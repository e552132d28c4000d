//! Scalar expression evaluation.
//!
//! An expression is compiled once per statement against a column list:
//! every column reference becomes a position in the row, and an
//! `IN (literals)` list whose literals are non-NULL and share one type
//! becomes a hash set. Evaluation then borrows the row and the statement's
//! literals, so testing a predicate against a stored row clones nothing.

use std::borrow::Cow;
use std::collections::HashSet;

use crate::error::{DbError, DbResult};
use crate::row::Row;
use crate::sql::ast::{BinOp, Expr, UnaryOp};
use crate::value::{DataType, Value};

/// A reference to a column within an intermediate relation: the binding
/// qualifier (table alias) plus the column name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ColRef {
    pub(crate) qualifier: Option<String>,
    pub name: String,
}

impl ColRef {
    pub(crate) fn new(qualifier: Option<&str>, name: &str) -> Self {
        ColRef { qualifier: qualifier.map(str::to_string), name: name.to_string() }
    }
}

/// Resolve a column reference against a column list; returns its position.
/// An unqualified name that matches more than one column is ambiguous.
pub(crate) fn resolve_column(
    cols: &[ColRef],
    qualifier: &Option<String>,
    name: &str,
) -> DbResult<usize> {
    let mut found: Option<usize> = None;
    for (i, c) in cols.iter().enumerate() {
        let qual_matches = match (qualifier, &c.qualifier) {
            (Some(q), Some(cq)) => q.eq_ignore_ascii_case(cq),
            (Some(_), None) => false,
            (None, _) => true,
        };
        if c.name.eq_ignore_ascii_case(name) && qual_matches {
            if found.is_some() && qualifier.is_none() {
                return Err(DbError::Execution(format!("ambiguous column reference '{name}'")));
            }
            found.get_or_insert(i);
        }
    }
    found.ok_or_else(|| {
        let q = qualifier.as_deref().map(|q| format!("{q}.")).unwrap_or_default();
        DbError::Execution(format!("column '{q}{name}' not found"))
    })
}

/// An expression compiled against a column list, borrowing the statement's
/// literals.
#[derive(Debug)]
pub(crate) enum Compiled<'a> {
    Col(usize),
    Lit(&'a Value),
    /// A reference that did not resolve. Evaluating it reports the error, so
    /// a statement whose rows never reach the reference still succeeds.
    Fail(DbError),
    Unary(UnaryOp, Box<Compiled<'a>>),
    Binary(BinOp, Box<Compiled<'a>>, Box<Compiled<'a>>),
    InList {
        expr: Box<Compiled<'a>>,
        list: Vec<Compiled<'a>>,
        set: Option<InSet<'a>>,
        negated: bool,
    },
    IsNull(Box<Compiled<'a>>, bool),
    Like(Box<Compiled<'a>>, Box<Compiled<'a>>, bool),
    /// A scalar function call; the name is upper-cased at compile time.
    Function(String, Vec<Compiled<'a>>),
}

/// The literals of an `IN` list, all non-NULL and of one type `ty`, hashed.
/// A probed value of type `ty` is compared with each literal exactly as
/// [`Value::sql_eq`] would, so membership decides the predicate. A value of
/// another type falls back to the list's three-valued scan: mixed numeric
/// equality is not transitive for integers past 2^53, and an incomparable
/// type makes the result NULL rather than FALSE.
#[derive(Debug)]
pub(crate) struct InSet<'a> {
    ty: DataType,
    members: HashSet<&'a Value>,
}

impl<'a> InSet<'a> {
    fn new(list: &'a [Expr]) -> Option<InSet<'a>> {
        let mut ty = None;
        let mut members = HashSet::with_capacity(list.len());
        for item in list {
            let Expr::Literal(v) = item else { return None };
            let t = v.data_type()?;
            if *ty.get_or_insert(t) != t {
                return None;
            }
            members.insert(v);
        }
        Some(InSet { ty: ty?, members })
    }
}

/// Compile `expr` against `cols`: resolve every column once.
pub(crate) fn compile<'a>(expr: &'a Expr, cols: &[ColRef]) -> Compiled<'a> {
    let sub = |e: &'a Expr| Box::new(compile(e, cols));
    match expr {
        Expr::Column { qualifier, name } => match resolve_column(cols, qualifier, name) {
            Ok(i) => Compiled::Col(i),
            Err(e) => Compiled::Fail(e),
        },
        Expr::Literal(v) => Compiled::Lit(v),
        Expr::Param(i) => Compiled::Fail(DbError::Execution(format!("unbound parameter ?{i}"))),
        Expr::Unary { op, expr } => Compiled::Unary(*op, sub(expr)),
        Expr::Binary { op, left, right } => Compiled::Binary(*op, sub(left), sub(right)),
        Expr::InList { expr, list, negated } => Compiled::InList {
            expr: sub(expr),
            list: list.iter().map(|e| compile(e, cols)).collect(),
            set: InSet::new(list),
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Compiled::IsNull(sub(expr), *negated),
        Expr::Like { expr, pattern, negated } => Compiled::Like(sub(expr), sub(pattern), *negated),
        Expr::Function { name, args, .. } => Compiled::Function(
            name.to_ascii_uppercase(),
            args.iter().map(|a| compile(a, cols)).collect(),
        ),
    }
}

impl Compiled<'_> {
    /// Evaluate against a row laid out as the column list this was compiled
    /// for. Column values and literals come back borrowed.
    #[inline]
    pub(crate) fn eval<'r>(&'r self, row: &'r [Value]) -> DbResult<Cow<'r, Value>> {
        match self {
            Compiled::Col(i) => Ok(Cow::Borrowed(&row[*i])),
            Compiled::Lit(v) => Ok(Cow::Borrowed(*v)),
            _ => self.eval_owned(row).map(Cow::Owned),
        }
    }

    /// [`Compiled::eval`] for the nodes that compute a new value.
    fn eval_owned(&self, row: &[Value]) -> DbResult<Value> {
        Ok(match self {
            Compiled::Col(_) | Compiled::Lit(_) => self.eval(row)?.into_owned(),
            Compiled::Fail(e) => return Err(e.clone()),
            Compiled::Unary(op, e) => unary(*op, &*e.eval(row)?)?,
            Compiled::Binary(op @ (BinOp::And | BinOp::Or), l, r) => {
                // Short circuit: FALSE AND x, TRUE OR x.
                let l = l.eval(row)?;
                if *l == Value::Boolean(*op == BinOp::Or) {
                    return Ok(l.into_owned());
                }
                binary(*op, &l, &*r.eval(row)?)?
            }
            Compiled::Binary(op, l, r) => binary(*op, &*l.eval(row)?, &*r.eval(row)?)?,
            Compiled::InList { expr, list, set, negated } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                match set {
                    Some(set) if v.data_type() == Some(set.ty) => {
                        Value::Boolean(set.members.contains(&*v) != *negated)
                    }
                    _ => {
                        let mut saw_null = false;
                        for item in list {
                            match v.sql_eq(&*item.eval(row)?) {
                                Some(true) => return Ok(Value::Boolean(!negated)),
                                Some(false) => {}
                                None => saw_null = true,
                            }
                        }
                        if saw_null {
                            Value::Null
                        } else {
                            Value::Boolean(*negated)
                        }
                    }
                }
            }
            Compiled::IsNull(e, negated) => Value::Boolean(e.eval(row)?.is_null() != *negated),
            Compiled::Like(e, pattern, negated) => match (&*e.eval(row)?, &*pattern.eval(row)?) {
                (Value::Null, _) | (_, Value::Null) => Value::Null,
                (Value::Varchar(s), Value::Varchar(pat)) => {
                    Value::Boolean(like_match(s, pat) != *negated)
                }
                _ => return Err(DbError::Type("LIKE requires string operands".into())),
            },
            Compiled::Function(name, args) => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| a.eval(row).map(Cow::into_owned))
                    .collect::<DbResult<_>>()?;
                scalar_function(name, vals)?
            }
        })
    }

    /// Whether the row satisfies this predicate (it evaluates to TRUE).
    pub(crate) fn test(&self, row: &[Value]) -> DbResult<bool> {
        Ok(truth(&*self.eval(row)?) == Some(true))
    }
}

/// Evaluation environment: a row laid out against a column list.
pub(crate) struct RowEnv<'a> {
    pub(crate) cols: &'a [ColRef],
    pub(crate) row: &'a Row,
}

/// Evaluate a scalar expression once against a row. Code that evaluates one
/// expression over many rows compiles it once with [`compile`] instead.
/// Aggregate function calls are rejected here — the executor resolves them
/// before projection.
pub(crate) fn eval(expr: &Expr, env: &RowEnv<'_>) -> DbResult<Value> {
    compile(expr, env.cols).eval(env.row).map(Cow::into_owned)
}

/// Apply a unary operator to a value.
pub(crate) fn unary(op: UnaryOp, v: &Value) -> DbResult<Value> {
    match op {
        UnaryOp::Not => match v {
            Value::Null => Ok(Value::Null),
            Value::Boolean(b) => Ok(Value::Boolean(!b)),
            other => Err(DbError::Type(format!("NOT applied to non-boolean {other}"))),
        },
        UnaryOp::Neg => match v {
            Value::Null => Ok(Value::Null),
            Value::Bigint(x) => Ok(Value::Bigint(-x)),
            Value::Double(x) => Ok(Value::Double(-x)),
            other => Err(DbError::Type(format!("negation of non-numeric {other}"))),
        },
    }
}

/// Apply a binary operator to two values, in SQL three-valued logic.
pub(crate) fn binary(op: BinOp, l: &Value, r: &Value) -> DbResult<Value> {
    match op {
        BinOp::And => Ok(match (truth(l), truth(r)) {
            (Some(false), _) | (_, Some(false)) => Value::Boolean(false),
            (Some(true), Some(true)) => Value::Boolean(true),
            _ => Value::Null,
        }),
        BinOp::Or => Ok(match (truth(l), truth(r)) {
            (Some(true), _) | (_, Some(true)) => Value::Boolean(true),
            (Some(false), Some(false)) => Value::Boolean(false),
            _ => Value::Null,
        }),
        BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
            Ok(l.sql_cmp(r).map_or(Value::Null, |ord| Value::Boolean(compare(op, ord))))
        }
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            // Integer arithmetic when both sides are BIGINT (except division
            // by zero errors; integer division truncates like SQL).
            if let (Value::Bigint(a), Value::Bigint(b)) = (l, r) {
                return match op {
                    BinOp::Add => Ok(Value::Bigint(a.wrapping_add(*b))),
                    BinOp::Sub => Ok(Value::Bigint(a.wrapping_sub(*b))),
                    BinOp::Mul => Ok(Value::Bigint(a.wrapping_mul(*b))),
                    BinOp::Div => {
                        if *b == 0 {
                            Err(DbError::Execution("division by zero".into()))
                        } else {
                            Ok(Value::Bigint(a / b))
                        }
                    }
                    _ => unreachable!(),
                };
            }
            let a = l.as_f64()?;
            let b = r.as_f64()?;
            match op {
                BinOp::Add => Ok(Value::Double(a + b)),
                BinOp::Sub => Ok(Value::Double(a - b)),
                BinOp::Mul => Ok(Value::Double(a * b)),
                BinOp::Div => {
                    if b == 0.0 {
                        Err(DbError::Execution("division by zero".into()))
                    } else {
                        Ok(Value::Double(a / b))
                    }
                }
                _ => unreachable!(),
            }
        }
    }
}

/// Whether `ord` satisfies comparison operator `op`.
fn compare(op: BinOp, ord: std::cmp::Ordering) -> bool {
    match op {
        BinOp::Eq => ord.is_eq(),
        BinOp::NotEq => ord.is_ne(),
        BinOp::Lt => ord.is_lt(),
        BinOp::LtEq => ord.is_le(),
        BinOp::Gt => ord.is_gt(),
        BinOp::GtEq => ord.is_ge(),
        _ => unreachable!("not a comparison: {op:?}"),
    }
}

fn scalar_function(upper: &str, vals: Vec<Value>) -> DbResult<Value> {
    match upper {
        "ABS" => match vals.first() {
            Some(Value::Bigint(v)) => Ok(Value::Bigint(v.abs())),
            Some(Value::Double(v)) => Ok(Value::Double(v.abs())),
            Some(Value::Null) => Ok(Value::Null),
            _ => Err(DbError::Type("ABS requires one numeric argument".into())),
        },
        "LOWER" => match vals.first() {
            Some(Value::Varchar(s)) => Ok(Value::Varchar(s.to_lowercase())),
            Some(Value::Null) => Ok(Value::Null),
            _ => Err(DbError::Type("LOWER requires one string argument".into())),
        },
        "UPPER" => match vals.first() {
            Some(Value::Varchar(s)) => Ok(Value::Varchar(s.to_uppercase())),
            Some(Value::Null) => Ok(Value::Null),
            _ => Err(DbError::Type("UPPER requires one string argument".into())),
        },
        "LENGTH" => match vals.first() {
            Some(Value::Varchar(s)) => Ok(Value::Bigint(s.chars().count() as i64)),
            Some(Value::Null) => Ok(Value::Null),
            _ => Err(DbError::Type("LENGTH requires one string argument".into())),
        },
        "CONCAT" => {
            let mut out = String::new();
            for v in &vals {
                if v.is_null() {
                    return Ok(Value::Null);
                }
                out.push_str(&v.to_string());
            }
            Ok(Value::Varchar(out))
        }
        "COALESCE" => Ok(vals.into_iter().find(|v| !v.is_null()).unwrap_or(Value::Null)),
        other => Err(DbError::Unsupported(format!("scalar function '{other}'"))),
    }
}

/// SQL truth value of a value: `Some(bool)` or `None` for NULL/unknown.
pub(crate) fn truth(v: &Value) -> Option<bool> {
    match v {
        Value::Boolean(b) => Some(*b),
        Value::Null => None,
        // Any other type in a boolean position is an error surfaced earlier;
        // treat as unknown to be safe.
        _ => None,
    }
}

/// SQL LIKE matching: `%` matches any run, `_` matches one character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                // Greedy expansion of % over every split point.
                (0..=s.len()).any(|k| rec(&s[k..], &p[1..]))
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    rec(&s, &p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn env_cols() -> Vec<ColRef> {
        vec![ColRef::new(Some("t"), "a"), ColRef::new(Some("t"), "b"), ColRef::new(Some("u"), "a")]
    }

    fn row() -> Row {
        vec![Value::Bigint(5), Value::Varchar("hello".into()), Value::Bigint(7)]
    }

    #[test]
    fn column_resolution_and_ambiguity() {
        let cols = env_cols();
        assert_eq!(resolve_column(&cols, &Some("t".into()), "a").unwrap(), 0);
        assert_eq!(resolve_column(&cols, &Some("U".into()), "A").unwrap(), 2);
        assert_eq!(resolve_column(&cols, &None, "b").unwrap(), 1);
        assert!(resolve_column(&cols, &None, "a").is_err()); // ambiguous
        assert!(resolve_column(&cols, &Some("x".into()), "a").is_err());
    }

    #[test]
    fn arithmetic_and_types() {
        let cols = env_cols();
        let r = row();
        let env = RowEnv { cols: &cols, row: &r };
        let e = Expr::qcol("t", "a").eq(Expr::lit(5i64));
        assert_eq!(eval(&e, &env).unwrap(), Value::Boolean(true));
        let e = Expr::Binary {
            op: BinOp::Add,
            left: Box::new(Expr::qcol("t", "a")),
            right: Box::new(Expr::lit(2.5)),
        };
        assert_eq!(eval(&e, &env).unwrap(), Value::Double(7.5));
        let div0 = Expr::Binary {
            op: BinOp::Div,
            left: Box::new(Expr::lit(1i64)),
            right: Box::new(Expr::lit(0i64)),
        };
        assert!(eval(&div0, &env).is_err());
    }

    #[test]
    fn three_valued_logic() {
        let cols = env_cols();
        let r = row();
        let env = RowEnv { cols: &cols, row: &r };
        // NULL AND FALSE = FALSE; NULL AND TRUE = NULL
        let null = Expr::Literal(Value::Null);
        let null_cmp = null.clone().eq(Expr::lit(1i64));
        let f = Expr::lit(1i64).eq(Expr::lit(2i64));
        let t = Expr::lit(1i64).eq(Expr::lit(1i64));
        let and_f =
            Expr::Binary { op: BinOp::And, left: Box::new(null_cmp.clone()), right: Box::new(f) };
        assert_eq!(eval(&and_f, &env).unwrap(), Value::Boolean(false));
        let and_t = Expr::Binary {
            op: BinOp::And,
            left: Box::new(null_cmp.clone()),
            right: Box::new(t.clone()),
        };
        assert_eq!(eval(&and_t, &env).unwrap(), Value::Null);
        let or_t = Expr::Binary { op: BinOp::Or, left: Box::new(null_cmp), right: Box::new(t) };
        assert_eq!(eval(&or_t, &env).unwrap(), Value::Boolean(true));
    }

    #[test]
    fn in_list_with_nulls() {
        let cols = env_cols();
        let r = row();
        let env = RowEnv { cols: &cols, row: &r };
        let e = Expr::InList {
            expr: Box::new(Expr::qcol("t", "a")),
            list: vec![Expr::lit(1i64), Expr::lit(5i64)],
            negated: false,
        };
        assert_eq!(eval(&e, &env).unwrap(), Value::Boolean(true));
        // 5 NOT IN (1, NULL) -> NULL (unknown)
        let e = Expr::InList {
            expr: Box::new(Expr::qcol("t", "a")),
            list: vec![Expr::lit(1i64), Expr::Literal(Value::Null)],
            negated: true,
        };
        assert_eq!(eval(&e, &env).unwrap(), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("hello", "h%"));
        assert!(like_match("hello", "%llo"));
        assert!(like_match("hello", "h_llo"));
        assert!(like_match("hello", "%"));
        assert!(!like_match("hello", "h_llx"));
        assert!(!like_match("", "_"));
        assert!(like_match("", "%"));
        assert!(like_match("a%b", "a%b"));
    }

    #[test]
    fn scalar_functions() {
        let cols = env_cols();
        let r = row();
        let env = RowEnv { cols: &cols, row: &r };
        let f = |name: &str, args: Vec<Expr>| Expr::Function {
            name: name.into(),
            args,
            distinct: false,
            star: false,
        };
        assert_eq!(eval(&f("ABS", vec![Expr::lit(-3i64)]), &env).unwrap(), Value::Bigint(3));
        assert_eq!(
            eval(&f("UPPER", vec![Expr::qcol("t", "b")]), &env).unwrap(),
            Value::Varchar("HELLO".into())
        );
        assert_eq!(eval(&f("LENGTH", vec![Expr::qcol("t", "b")]), &env).unwrap(), Value::Bigint(5));
        assert_eq!(
            eval(&f("COALESCE", vec![Expr::Literal(Value::Null), Expr::lit(9i64)]), &env).unwrap(),
            Value::Bigint(9)
        );
        assert!(eval(&f("NOSUCH", vec![]), &env).is_err());
    }
}
