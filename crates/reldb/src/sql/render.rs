//! Render catalog objects and query ASTs back to parseable SQL.
//!
//! The durability layer persists DDL as SQL text: a `CREATE TABLE` or
//! `CREATE VIEW` in the WAL (or a view in a checkpoint) is replayed by
//! handing the rendered statement straight back to the parser. The
//! renderer therefore only has to be *round-trip faithful* for what our
//! own dialect can parse — which it is by construction, since it renders
//! the very AST the parser produced.

use crate::index::IndexDef;
use crate::schema::TableSchema;
use crate::value::Value;

use super::ast::{
    BinOp, Expr, FromItem, Join, OrderItem, SelectItem, SelectStmt, TableSource, UnaryOp,
};

/// `CREATE TABLE` for a schema, with all constraints spelled table-level.
pub(crate) fn create_table_sql(schema: &TableSchema) -> String {
    let mut parts: Vec<String> = schema
        .columns
        .iter()
        .map(|c| {
            let mut s = format!("{} {}", c.name, c.data_type.sql_name());
            if !c.nullable {
                s.push_str(" NOT NULL");
            }
            s
        })
        .collect();
    if let Some(pk) = &schema.primary_key {
        parts.push(format!("PRIMARY KEY ({})", pk.join(", ")));
    }
    for uq in &schema.uniques {
        parts.push(format!("UNIQUE ({})", uq.join(", ")));
    }
    for fk in &schema.foreign_keys {
        parts.push(format!(
            "FOREIGN KEY ({}) REFERENCES {} ({})",
            fk.columns.join(", "),
            fk.ref_table,
            fk.ref_columns.join(", ")
        ));
    }
    format!("CREATE TABLE {} ({})", schema.name, parts.join(", "))
}

/// `CREATE [UNIQUE] INDEX` for an index definition.
pub(crate) fn create_index_sql(table: &str, def: &IndexDef) -> String {
    format!(
        "CREATE {}INDEX {} ON {} ({})",
        if def.unique { "UNIQUE " } else { "" },
        def.name,
        table,
        def.columns.join(", ")
    )
}

/// `CREATE VIEW name AS <select>`.
pub(crate) fn create_view_sql(name: &str, query: &SelectStmt) -> String {
    format!("CREATE VIEW {} AS {}", name, select_sql(query))
}

/// Render a SELECT back to SQL.
pub(crate) fn select_sql(q: &SelectStmt) -> String {
    let mut out = String::from("SELECT ");
    if q.distinct {
        out.push_str("DISTINCT ");
    }
    let items: Vec<String> = q.items.iter().map(select_item_sql).collect();
    out.push_str(&items.join(", "));
    if !q.from.is_empty() {
        out.push_str(" FROM ");
        let from: Vec<String> = q.from.iter().map(from_item_sql).collect();
        out.push_str(&from.join(", "));
    }
    if let Some(w) = &q.where_clause {
        out.push_str(" WHERE ");
        out.push_str(&expr_sql(w));
    }
    if !q.group_by.is_empty() {
        out.push_str(" GROUP BY ");
        let keys: Vec<String> = q.group_by.iter().map(expr_sql).collect();
        out.push_str(&keys.join(", "));
    }
    if let Some(h) = &q.having {
        out.push_str(" HAVING ");
        out.push_str(&expr_sql(h));
    }
    if !q.order_by.is_empty() {
        out.push_str(" ORDER BY ");
        let keys: Vec<String> = q.order_by.iter().map(order_item_sql).collect();
        out.push_str(&keys.join(", "));
    }
    if let Some(n) = q.limit {
        out.push_str(&format!(" LIMIT {n}"));
    }
    out
}

fn select_item_sql(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".into(),
        SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
        SelectItem::Expr { expr, alias: Some(a) } => format!("{} AS {a}", expr_sql(expr)),
        SelectItem::Expr { expr, alias: None } => expr_sql(expr),
    }
}

fn from_item_sql(item: &FromItem) -> String {
    let mut out = table_source_sql(&item.source);
    for j in &item.joins {
        out.push_str(&join_sql(j));
    }
    out
}

fn join_sql(j: &Join) -> String {
    format!(
        " {} JOIN {} ON {}",
        if j.left_outer { "LEFT" } else { "INNER" },
        table_source_sql(&j.source),
        expr_sql(&j.on)
    )
}

fn table_source_sql(src: &TableSource) -> String {
    match src {
        TableSource::Named { name, alias: Some(a) } => format!("{name} AS {a}"),
        TableSource::Named { name, alias: None } => name.clone(),
        TableSource::Function { name, args, alias, columns } => {
            let args: Vec<String> = args.iter().map(expr_sql).collect();
            let cols: Vec<String> =
                columns.iter().map(|(c, t)| format!("{c} {}", t.sql_name())).collect();
            format!("TABLE({name}({})) AS {alias} ({})", args.join(", "), cols.join(", "))
        }
        TableSource::Subquery { query, alias } => {
            format!("({}) AS {alias}", select_sql(query))
        }
    }
}

fn order_item_sql(item: &OrderItem) -> String {
    format!("{}{}", expr_sql(&item.expr), if item.desc { " DESC" } else { "" })
}

fn bin_op_sql(op: BinOp) -> &'static str {
    match op {
        BinOp::Eq => "=",
        BinOp::NotEq => "<>",
        BinOp::Lt => "<",
        BinOp::LtEq => "<=",
        BinOp::Gt => ">",
        BinOp::GtEq => ">=",
        BinOp::And => "AND",
        BinOp::Or => "OR",
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
    }
}

/// SQL literal for a value (`'` doubled inside strings, the one escape
/// the lexer understands).
pub(crate) fn value_sql(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Bigint(i) => i.to_string(),
        Value::Double(d) => {
            // Non-finite doubles have no literal of their own but must
            // still re-parse (a checkpointed view containing one would
            // otherwise make the data directory unopenable): `1e999`
            // overflows to infinity in the lexer, and inf - inf gives NaN
            // back at evaluation.
            if d.is_nan() {
                "(1e999 - 1e999)".into()
            } else if d.is_infinite() {
                if *d > 0.0 { "1e999" } else { "-1e999" }.into()
            } else {
                // Keep a decimal point so the literal re-parses as a double.
                let s = d.to_string();
                if s.contains('.') || s.contains('e') {
                    s
                } else {
                    format!("{s}.0")
                }
            }
        }
        Value::Varchar(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Boolean(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
    }
}

/// Render an expression, fully parenthesized where nesting matters so the
/// round trip never re-associates.
pub(crate) fn expr_sql(e: &Expr) -> String {
    match e {
        Expr::Column { qualifier: Some(q), name } => format!("{q}.{name}"),
        Expr::Column { qualifier: None, name } => name.clone(),
        Expr::Literal(v) => value_sql(v),
        Expr::Param(_) => "?".into(),
        Expr::Unary { op, expr } => match op {
            UnaryOp::Not => format!("(NOT {})", expr_sql(expr)),
            UnaryOp::Neg => format!("(-{})", expr_sql(expr)),
        },
        Expr::Binary { op, left, right } => {
            format!("({} {} {})", expr_sql(left), bin_op_sql(*op), expr_sql(right))
        }
        Expr::InList { expr, list, negated } => {
            let items: Vec<String> = list.iter().map(expr_sql).collect();
            format!(
                "({} {}IN ({}))",
                expr_sql(expr),
                if *negated { "NOT " } else { "" },
                items.join(", ")
            )
        }
        Expr::IsNull { expr, negated } => {
            format!("({} IS {}NULL)", expr_sql(expr), if *negated { "NOT " } else { "" })
        }
        Expr::Like { expr, pattern, negated } => {
            format!(
                "({} {}LIKE {})",
                expr_sql(expr),
                if *negated { "NOT " } else { "" },
                expr_sql(pattern)
            )
        }
        Expr::Function { name, args, distinct, star } => {
            if *star {
                return format!("{name}(*)");
            }
            let args: Vec<String> = args.iter().map(expr_sql).collect();
            format!("{name}({}{})", if *distinct { "DISTINCT " } else { "" }, args.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::ast::Stmt;
    use crate::sql::parser::parse_statement;

    fn round_trip_select(sql: &str) {
        let Stmt::Select(q1) = parse_statement(sql).unwrap() else {
            panic!("not a select: {sql}");
        };
        let rendered = select_sql(&q1);
        let Stmt::Select(q2) = parse_statement(&rendered).unwrap() else {
            panic!("render did not re-parse as select: {rendered}");
        };
        assert_eq!(q1, q2, "round trip changed the AST for {sql} → {rendered}");
    }

    #[test]
    fn selects_round_trip_through_render() {
        round_trip_select("SELECT * FROM T");
        round_trip_select("SELECT DISTINCT a.x AS y, COUNT(*) FROM T AS a WHERE a.x > 1 AND a.y IS NOT NULL GROUP BY a.x HAVING COUNT(*) > 2 ORDER BY y DESC LIMIT 7");
        round_trip_select(
            "SELECT p.name FROM Patient AS p LEFT JOIN Visit AS v ON p.id = v.pid WHERE v.kind IN ('er', 'checkup') OR p.name LIKE 'Jo%'",
        );
        round_trip_select("SELECT x FROM (SELECT a + 1 AS x FROM T) AS s WHERE NOT x = 3");
        round_trip_select("SELECT SUM(DISTINCT b) FROM T WHERE c = 'it''s'");
    }

    /// A view whose AST holds a non-finite literal must still render to
    /// SQL the parser accepts — a checkpoint that stored `inf`/`NaN` text
    /// would make the whole data directory unopenable on restore.
    #[test]
    fn non_finite_doubles_render_parseably() {
        // `1e999` overflows to infinity in the lexer, so the round trip
        // lands on the identical literal.
        round_trip_select("SELECT x FROM T WHERE x < 1e999");
        let item_expr = |sql: String| -> Expr {
            let Ok(Stmt::Select(q)) = parse_statement(&sql) else {
                panic!("rendered non-finite double did not re-parse: {sql}");
            };
            let SelectItem::Expr { expr, .. } = q.items.into_iter().next().unwrap() else {
                panic!("not an expression item: {sql}");
            };
            expr
        };
        let select = |v: f64| format!("SELECT {} FROM T", value_sql(&Value::Double(v)));
        assert!(matches!(
            item_expr(select(f64::INFINITY)),
            Expr::Literal(Value::Double(d)) if d == f64::INFINITY
        ));
        // The parser folds the sign into the literal.
        assert!(matches!(
            item_expr(select(f64::NEG_INFINITY)),
            Expr::Literal(Value::Double(d)) if d == f64::NEG_INFINITY
        ));
        // NaN has no literal; its rendering is inf - inf, which evaluates
        // back to NaN.
        assert!(matches!(item_expr(select(f64::NAN)), Expr::Binary { op: BinOp::Sub, .. }));
    }

    #[test]
    fn create_table_round_trips_schema() {
        let sql = "CREATE TABLE Edge (src BIGINT NOT NULL, dst BIGINT, note VARCHAR, \
                   PRIMARY KEY (src, dst), UNIQUE (note), \
                   FOREIGN KEY (src) REFERENCES Node (nid))";
        let Stmt::CreateTable { schema, .. } = parse_statement(sql).unwrap() else {
            panic!("not create table");
        };
        let rendered = create_table_sql(&schema);
        let Stmt::CreateTable { schema: schema2, .. } = parse_statement(&rendered).unwrap() else {
            panic!("render did not re-parse: {rendered}");
        };
        assert_eq!(schema, schema2);
    }

    #[test]
    fn create_index_renders_parseably() {
        let def = IndexDef {
            name: "ix_edge_src".into(),
            columns: vec!["src".into(), "dst".into()],
            unique: true,
        };
        let sql = create_index_sql("Edge", &def);
        let Stmt::CreateIndex { name, table, columns, unique } = parse_statement(&sql).unwrap()
        else {
            panic!("not create index: {sql}");
        };
        assert_eq!(name, "ix_edge_src");
        assert_eq!(table, "Edge");
        assert_eq!(columns, vec!["src".to_string(), "dst".to_string()]);
        assert!(unique);
    }
}
