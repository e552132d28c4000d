//! Abstract syntax tree for the SQL dialect.

use crate::schema::TableSchema;
use crate::value::{DataType, Value};

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Stmt {
    CreateTable {
        schema: TableSchema,
        if_not_exists: bool,
    },
    CreateIndex {
        name: String,
        table: String,
        columns: Vec<String>,
        unique: bool,
    },
    CreateView {
        name: String,
        query: Box<SelectStmt>,
        or_replace: bool,
    },
    DropTable {
        name: String,
        if_exists: bool,
    },
    DropView {
        name: String,
    },
    DropIndex {
        name: String,
    },
    Insert {
        table: String,
        columns: Option<Vec<String>>,
        values: Vec<Vec<Expr>>,
    },
    Update {
        table: String,
        sets: Vec<(String, Expr)>,
        where_clause: Option<Expr>,
    },
    Delete {
        table: String,
        where_clause: Option<Expr>,
    },
    Select(Box<SelectStmt>),
    Begin,
    Commit,
    Rollback,
    /// `EXPLAIN <select>` — returns the plan as a one-column row set.
    Explain(Box<SelectStmt>),
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SelectStmt {
    pub(crate) distinct: bool,
    pub(crate) items: Vec<SelectItem>,
    /// Comma-separated FROM items; each may carry its own JOIN chain.
    pub(crate) from: Vec<FromItem>,
    pub(crate) where_clause: Option<Expr>,
    pub(crate) group_by: Vec<Expr>,
    pub(crate) having: Option<Expr>,
    pub(crate) order_by: Vec<OrderItem>,
    pub(crate) limit: Option<u64>,
}

/// One projection item.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with optional `AS alias`.
    Expr { expr: Expr, alias: Option<String> },
}

/// One FROM item: a source plus zero or more JOINs hanging off it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FromItem {
    pub(crate) source: TableSource,
    pub(crate) joins: Vec<Join>,
}

/// An explicit `[INNER|LEFT] JOIN <source> ON <expr>`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Join {
    pub(crate) source: TableSource,
    pub(crate) on: Expr,
    pub(crate) left_outer: bool,
}

/// A relation appearing in FROM.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum TableSource {
    /// A base table or view, with optional alias.
    Named { name: String, alias: Option<String> },
    /// A polymorphic table function: `TABLE(f(args)) AS alias (col type, ...)`.
    /// This is the hook the paper's `graphQuery` function uses (Section 4).
    Function { name: String, args: Vec<Expr>, alias: String, columns: Vec<(String, DataType)> },
    /// A derived table: `(SELECT ...) AS alias`.
    Subquery { query: Box<SelectStmt>, alias: String },
}

impl TableSource {
    /// The name this source binds in the query's scope.
    pub(crate) fn binding_name(&self) -> &str {
        match self {
            TableSource::Named { name, alias } => alias.as_deref().unwrap_or(name),
            TableSource::Function { alias, .. } => alias,
            TableSource::Subquery { alias, .. } => alias,
        }
    }
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OrderItem {
    pub(crate) expr: Expr,
    pub(crate) desc: bool,
}

/// Binary operators, in SQL semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    And,
    Or,
    Add,
    Sub,
    Mul,
    Div,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnaryOp {
    Not,
    Neg,
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Expr {
    /// Column reference, optionally qualified (`t.col`).
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Literal(Value),
    /// `?` positional parameter (0-based ordinal in statement order).
    Param(usize),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    /// Function call — aggregates (`COUNT`, `SUM`, `AVG`, `MIN`, `MAX`,
    /// with optional DISTINCT or `*`) and scalar functions (`ABS`, `LOWER`,
    /// `UPPER`, `LENGTH`, `CONCAT`).
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        star: bool,
    },
}

impl Expr {
    pub(crate) fn and(self, other: Expr) -> Expr {
        Expr::Binary { op: BinOp::And, left: Box::new(self), right: Box::new(other) }
    }

    /// The value of a literal, or of a parameter read by reference from
    /// the statement's `params`; `None` for anything else, or a parameter
    /// with no value.
    pub(crate) fn value<'a>(&'a self, params: &'a [Value]) -> Option<&'a Value> {
        match self {
            Expr::Literal(v) => Some(v),
            Expr::Param(i) => params.get(*i),
            _ => None,
        }
    }

    /// True if the expression contains an aggregate function call.
    pub(crate) fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Function { name, args, .. } => {
                is_aggregate_name(name) || args.iter().any(Expr::contains_aggregate)
            }
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_aggregate() || pattern.contains_aggregate()
            }
            _ => false,
        }
    }

    /// Walk the expression tree, visiting every node.
    pub(crate) fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
    }
}

/// Builders and a parameter count the unit tests construct and check
/// expressions with.
#[cfg(test)]
impl Expr {
    pub(crate) fn col(name: &str) -> Expr {
        Expr::Column { qualifier: None, name: name.to_string() }
    }

    pub(crate) fn qcol(qualifier: &str, name: &str) -> Expr {
        Expr::Column { qualifier: Some(qualifier.to_string()), name: name.to_string() }
    }

    pub(crate) fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    pub(crate) fn eq(self, other: Expr) -> Expr {
        Expr::Binary { op: BinOp::Eq, left: Box::new(self), right: Box::new(other) }
    }

    /// Count `?` parameters in the expression.
    pub(crate) fn param_count(&self) -> usize {
        let mut n = 0;
        self.walk(&mut |e| {
            if matches!(e, Expr::Param(_)) {
                n += 1;
            }
        });
        n
    }
}

/// Whether a function name denotes an aggregate.
pub(crate) fn is_aggregate_name(name: &str) -> bool {
    matches!(name.to_ascii_uppercase().as_str(), "COUNT" | "SUM" | "AVG" | "MIN" | "MAX")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_detection_recurses() {
        let e = Expr::col("a").and(Expr::Function {
            name: "count".into(),
            args: vec![],
            distinct: false,
            star: true,
        });
        assert!(e.contains_aggregate());
        assert!(!Expr::col("a").eq(Expr::lit(1i64)).contains_aggregate());
    }

    #[test]
    fn binding_names() {
        let t = TableSource::Named { name: "Patient".into(), alias: Some("p".into()) };
        assert_eq!(t.binding_name(), "p");
        let t = TableSource::Named { name: "Patient".into(), alias: None };
        assert_eq!(t.binding_name(), "Patient");
    }

    #[test]
    fn walk_visits_all_nodes() {
        let e = Expr::InList {
            expr: Box::new(Expr::col("x")),
            list: vec![Expr::lit(1i64), Expr::Param(0)],
            negated: false,
        };
        let mut count = 0;
        e.walk(&mut |_| count += 1);
        assert_eq!(count, 4);
        assert_eq!(e.param_count(), 1);
    }
}
