//! Prepared statements.
//!
//! A prepared statement is parsed once; executing it binds `?` parameters by
//! substitution into a copy of the AST. This is the mechanism behind the
//! paper's SQL Dialect module, which "creates a set of pre-compiled SQL
//! templates for these frequent patterns and issues the corresponding
//! prepare statements in Db2 to avoid the SQL compilation overhead at
//! runtime" (Section 6.1).

use std::sync::Arc;

use crate::error::{DbError, DbResult};
use crate::sql::ast::*;
use crate::sql::parser::parse_statement;
use crate::value::Value;

/// Generation value meaning "not stamped against any catalog state" — a
/// `Prepared` built directly (without a database) always executes as-is.
pub(crate) const GENERATION_ANY: u64 = u64::MAX;

/// A parsed statement ready for repeated parameterized execution.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub sql: String,
    pub(crate) stmt: Arc<Stmt>,
    pub(crate) param_count: usize,
    /// Catalog generation this statement was prepared under (see
    /// [`crate::db::Database::schema_generation`]). Executing against a
    /// database whose generation moved on (DDL ran in between) forces a
    /// re-prepare, so cached plans can never read a dropped-and-recreated
    /// table through a stale layout.
    generation: u64,
}

impl Prepared {
    /// Parse and prepare a statement.
    pub(crate) fn new(sql: &str) -> DbResult<Prepared> {
        let stmt = parse_statement(sql)?;
        let param_count = count_params(&stmt);
        Ok(Prepared {
            sql: sql.to_string(),
            stmt: Arc::new(stmt),
            param_count,
            generation: GENERATION_ANY,
        })
    }

    /// Stamp this statement with the catalog generation it was prepared
    /// under (`Database::prepare` does this automatically).
    pub(crate) fn with_generation(mut self, generation: u64) -> Prepared {
        self.generation = generation;
        self
    }

    /// True when the statement was stamped under an older catalog
    /// generation than `current` and must be re-prepared before execution.
    pub fn is_stale(&self, current: u64) -> bool {
        self.generation != GENERATION_ANY && self.generation != current
    }

    /// Produce an executable statement with all `?` parameters bound.
    pub(crate) fn bind(&self, params: &[Value]) -> DbResult<Stmt> {
        if params.len() != self.param_count {
            return Err(DbError::Execution(format!(
                "statement expects {} parameters, got {}",
                self.param_count,
                params.len()
            )));
        }
        bind_stmt(&self.stmt, params)
    }
}

fn count_params(stmt: &Stmt) -> usize {
    let mut max: Option<usize> = None;
    visit_stmt_exprs(stmt, &mut |e| {
        e.walk(&mut |node| {
            if let Expr::Param(i) = node {
                max = Some(max.map_or(*i, |m: usize| m.max(*i)));
            }
        });
    });
    max.map(|m| m + 1).unwrap_or(0)
}

fn visit_stmt_exprs(stmt: &Stmt, f: &mut dyn FnMut(&Expr)) {
    match stmt {
        Stmt::Insert { values, .. } => {
            for row in values {
                for e in row {
                    f(e);
                }
            }
        }
        Stmt::Update { sets, where_clause, .. } => {
            for (_, e) in sets {
                f(e);
            }
            if let Some(w) = where_clause {
                f(w);
            }
        }
        Stmt::Delete { where_clause: Some(w), .. } => f(w),
        Stmt::Delete { .. } => {}
        Stmt::Select(q) | Stmt::Explain(q) => visit_select_exprs(q, f),
        Stmt::CreateView { query, .. } => visit_select_exprs(query, f),
        _ => {}
    }
}

fn visit_select_exprs(q: &SelectStmt, f: &mut dyn FnMut(&Expr)) {
    for item in &q.items {
        if let SelectItem::Expr { expr, .. } = item {
            f(expr);
        }
    }
    for fi in &q.from {
        visit_source_exprs(&fi.source, f);
        for j in &fi.joins {
            visit_source_exprs(&j.source, f);
            f(&j.on);
        }
    }
    if let Some(w) = &q.where_clause {
        f(w);
    }
    for e in &q.group_by {
        f(e);
    }
    if let Some(h) = &q.having {
        f(h);
    }
    for o in &q.order_by {
        f(&o.expr);
    }
}

fn visit_source_exprs(s: &TableSource, f: &mut dyn FnMut(&Expr)) {
    match s {
        TableSource::Function { args, .. } => {
            for a in args {
                f(a);
            }
        }
        TableSource::Subquery { query, .. } => visit_select_exprs(query, f),
        TableSource::Named { .. } => {}
    }
}

/// Clone a statement with parameters substituted as literals.
pub(crate) fn bind_stmt(stmt: &Stmt, params: &[Value]) -> DbResult<Stmt> {
    Ok(match stmt {
        Stmt::Insert { table, columns, values } => Stmt::Insert {
            table: table.clone(),
            columns: columns.clone(),
            values: values
                .iter()
                .map(|row| row.iter().map(|e| bind_expr(e, params)).collect::<DbResult<_>>())
                .collect::<DbResult<_>>()?,
        },
        Stmt::Update { table, sets, where_clause } => Stmt::Update {
            table: table.clone(),
            sets: sets
                .iter()
                .map(|(c, e)| Ok((c.clone(), bind_expr(e, params)?)))
                .collect::<DbResult<_>>()?,
            where_clause: where_clause.as_ref().map(|w| bind_expr(w, params)).transpose()?,
        },
        Stmt::Delete { table, where_clause } => Stmt::Delete {
            table: table.clone(),
            where_clause: where_clause.as_ref().map(|w| bind_expr(w, params)).transpose()?,
        },
        Stmt::Select(q) => Stmt::Select(Box::new(bind_select(q, params)?)),
        Stmt::Explain(q) => Stmt::Explain(Box::new(bind_select(q, params)?)),
        other => other.clone(),
    })
}

fn bind_select(q: &SelectStmt, params: &[Value]) -> DbResult<SelectStmt> {
    Ok(SelectStmt {
        distinct: q.distinct,
        items: q
            .items
            .iter()
            .map(|i| {
                Ok(match i {
                    SelectItem::Expr { expr, alias } => {
                        SelectItem::Expr { expr: bind_expr(expr, params)?, alias: alias.clone() }
                    }
                    other => other.clone(),
                })
            })
            .collect::<DbResult<_>>()?,
        from: q
            .from
            .iter()
            .map(|fi| {
                Ok(FromItem {
                    source: bind_source(&fi.source, params)?,
                    joins: fi
                        .joins
                        .iter()
                        .map(|j| {
                            Ok(Join {
                                source: bind_source(&j.source, params)?,
                                on: bind_expr(&j.on, params)?,
                                left_outer: j.left_outer,
                            })
                        })
                        .collect::<DbResult<_>>()?,
                })
            })
            .collect::<DbResult<_>>()?,
        where_clause: q.where_clause.as_ref().map(|w| bind_expr(w, params)).transpose()?,
        group_by: q.group_by.iter().map(|e| bind_expr(e, params)).collect::<DbResult<_>>()?,
        having: q.having.as_ref().map(|h| bind_expr(h, params)).transpose()?,
        order_by: q
            .order_by
            .iter()
            .map(|o| Ok(OrderItem { expr: bind_expr(&o.expr, params)?, desc: o.desc }))
            .collect::<DbResult<_>>()?,
        limit: q.limit,
    })
}

fn bind_source(s: &TableSource, params: &[Value]) -> DbResult<TableSource> {
    Ok(match s {
        TableSource::Function { name, args, alias, columns } => TableSource::Function {
            name: name.clone(),
            args: args.iter().map(|a| bind_expr(a, params)).collect::<DbResult<_>>()?,
            alias: alias.clone(),
            columns: columns.clone(),
        },
        TableSource::Subquery { query, alias } => TableSource::Subquery {
            query: Box::new(bind_select(query, params)?),
            alias: alias.clone(),
        },
        named => named.clone(),
    })
}

fn bind_expr(e: &Expr, params: &[Value]) -> DbResult<Expr> {
    Ok(match e {
        Expr::Param(i) => {
            let v = params
                .get(*i)
                .ok_or_else(|| DbError::Execution(format!("missing value for parameter ?{i}")))?;
            Expr::Literal(v.clone())
        }
        Expr::Unary { op, expr } => {
            Expr::Unary { op: *op, expr: Box::new(bind_expr(expr, params)?) }
        }
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(bind_expr(left, params)?),
            right: Box::new(bind_expr(right, params)?),
        },
        Expr::InList { expr, list, negated } => Expr::InList {
            expr: Box::new(bind_expr(expr, params)?),
            list: list.iter().map(|x| bind_expr(x, params)).collect::<DbResult<_>>()?,
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => {
            Expr::IsNull { expr: Box::new(bind_expr(expr, params)?), negated: *negated }
        }
        Expr::Like { expr, pattern, negated } => Expr::Like {
            expr: Box::new(bind_expr(expr, params)?),
            pattern: Box::new(bind_expr(pattern, params)?),
            negated: *negated,
        },
        Expr::Function { name, args, distinct, star } => Expr::Function {
            name: name.clone(),
            args: args.iter().map(|x| bind_expr(x, params)).collect::<DbResult<_>>()?,
            distinct: *distinct,
            star: *star,
        },
        other => other.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counting_covers_all_clauses() {
        let p = Prepared::new("SELECT * FROM t WHERE a = ? AND b IN (?, ?) ORDER BY c LIMIT 1")
            .unwrap();
        assert_eq!(p.param_count, 3);
        let p = Prepared::new("INSERT INTO t VALUES (?, ?)").unwrap();
        assert_eq!(p.param_count, 2);
        let p = Prepared::new("SELECT 1").unwrap();
        assert_eq!(p.param_count, 0);
    }

    #[test]
    fn bind_substitutes_literals() {
        let p = Prepared::new("SELECT * FROM t WHERE a = ?").unwrap();
        let bound = p.bind(&[Value::Bigint(42)]).unwrap();
        match bound {
            Stmt::Select(q) => match q.where_clause.unwrap() {
                Expr::Binary { right, .. } => {
                    assert_eq!(*right, Expr::Literal(Value::Bigint(42)));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bind_checks_arity() {
        let p = Prepared::new("SELECT * FROM t WHERE a = ? AND b = ?").unwrap();
        assert!(p.bind(&[Value::Bigint(1)]).is_err());
        assert!(p.bind(&[Value::Bigint(1), Value::Bigint(2), Value::Bigint(3)]).is_err());
        assert!(p.bind(&[Value::Bigint(1), Value::Bigint(2)]).is_ok());
    }

    #[test]
    fn bind_reaches_table_function_args() {
        let p = Prepared::new("SELECT * FROM TABLE(f(?)) AS x (a BIGINT) WHERE a > ?").unwrap();
        assert_eq!(p.param_count, 2);
        let bound = p.bind(&[Value::Varchar("q".into()), Value::Bigint(0)]).unwrap();
        match bound {
            Stmt::Select(q) => match &q.from[0].source {
                TableSource::Function { args, .. } => {
                    assert_eq!(args[0], Expr::Literal(Value::Varchar("q".into())));
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }
}
