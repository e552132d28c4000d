//! Access path selection.
//!
//! Given a base-table scan plus the WHERE conjuncts that reference it, pick
//! an index probe when one applies. The SQL that Db2 Graph generates is
//! dominated by `id = ?` point probes and `src_v IN (...)` list probes, so
//! these two access paths are what make graph traversal fast; the paper's
//! SQL Dialect module suggests exactly these indexes (Section 6.1).
//!
//! Literals and `?` parameters alike are keys: a parameter is read by
//! reference from the statement's values, so a prepared statement probes
//! the same index its literal form would.
//!
//! An IN-list path carries the list's values as one flat key list, which
//! [`Index::lookup_in`](crate::index::Index::lookup_in) probes key by key
//! without building a key per member. Whatever the path, the executor
//! re-checks the whole WHERE clause on each visible version.

use std::ops::Bound;

use crate::index::Index;
use crate::sql::ast::{BinOp, Expr};
use crate::storage::TableData;
use crate::value::Value;

/// A chosen way to produce candidate rows from a table: the index it
/// probes, borrowed from the table under its read guard, and the keys,
/// borrowed from the statement's literals and parameters where they can be.
#[derive(Debug)]
pub(crate) enum AccessPath<'a> {
    /// Scan every live row.
    FullScan,
    /// Probe an index for one exact key.
    IndexEq { index: &'a Index, key: Vec<Value> },
    /// Probe a single-column index for each key in a list (IN-list).
    IndexIn { index: &'a Index, keys: Vec<&'a Value> },
    /// Range scan on the leading column of an index.
    IndexRange { index: &'a Index, low: Bound<&'a Value>, high: Bound<&'a Value> },
}

impl AccessPath<'_> {
    /// Human-readable form for EXPLAIN output.
    pub(crate) fn describe(&self, table: &str) -> String {
        match self {
            AccessPath::FullScan => format!("SCAN {table}"),
            AccessPath::IndexEq { index, key } => {
                let keys: Vec<String> = key.iter().map(Value::to_sql_literal).collect();
                format!("INDEX-EQ {table} via {} key=({})", index.def.name, keys.join(", "))
            }
            AccessPath::IndexIn { index, keys } => {
                format!("INDEX-IN {table} via {} ({} keys)", index.def.name, keys.len())
            }
            AccessPath::IndexRange { index, .. } => {
                format!("INDEX-RANGE {table} via {}", index.def.name)
            }
        }
    }
}

/// Split an expression into its top-level AND conjuncts.
pub(crate) fn split_conjuncts(expr: &Expr) -> Vec<&Expr> {
    let mut out = Vec::new();
    fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
        if let Expr::Binary { op: BinOp::And, left, right } = e {
            walk(left, out);
            walk(right, out);
        } else {
            out.push(e);
        }
    }
    walk(expr, &mut out);
    out
}

/// A simple predicate on one column of the scanned binding:
/// `col <op> value`, `col IN (values)`, where each value is a literal or a
/// parameter, borrowed.
#[derive(Debug, Clone)]
pub(crate) enum SimplePred<'a> {
    Eq(&'a str, &'a Value),
    In(&'a str, Vec<&'a Value>),
    Cmp(&'a str, BinOp, &'a Value),
}

/// Try to view a conjunct as a simple single-column predicate over the
/// given binding (alias) of a table with the given columns. A `?` reads
/// its value from `params`, so a prepared `id = ?` probes the index.
pub(crate) fn as_simple_pred<'a>(
    expr: &'a Expr,
    binding: &str,
    has_column: &dyn Fn(&str) -> bool,
    params: &'a [Value],
) -> Option<SimplePred<'a>> {
    let col_of = |e: &'a Expr| -> Option<&'a str> {
        if let Expr::Column { qualifier, name } = e {
            let qual_ok =
                qualifier.as_ref().map(|q| q.eq_ignore_ascii_case(binding)).unwrap_or(true);
            if qual_ok && has_column(name) {
                return Some(name);
            }
        }
        None
    };
    let lit_of = |e: &'a Expr| e.value(params);
    match expr {
        Expr::Binary { op, left, right }
            if matches!(op, BinOp::Eq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq) =>
        {
            if let (Some(c), Some(v)) = (col_of(left), lit_of(right)) {
                return Some(match op {
                    BinOp::Eq => SimplePred::Eq(c, v),
                    other => SimplePred::Cmp(c, *other, v),
                });
            }
            // Flipped: literal <op> column.
            if let (Some(v), Some(c)) = (lit_of(left), col_of(right)) {
                let flipped = match op {
                    BinOp::Eq => return Some(SimplePred::Eq(c, v)),
                    BinOp::Lt => BinOp::Gt,
                    BinOp::LtEq => BinOp::GtEq,
                    BinOp::Gt => BinOp::Lt,
                    BinOp::GtEq => BinOp::LtEq,
                    _ => return None,
                };
                return Some(SimplePred::Cmp(c, flipped, v));
            }
            None
        }
        Expr::InList { expr, list, negated: false } => {
            let c = col_of(expr)?;
            let vals: Option<Vec<&Value>> = list.iter().map(lit_of).collect();
            Some(SimplePred::In(c, vals?))
        }
        _ => None,
    }
}

/// Choose the best access path for a table given the simple predicates that
/// apply to it. Preference order: unique point probe, point probe, IN-list
/// probe, range scan, full scan. Also returns how many of `preds` the path
/// answers; the executor still re-checks them on each visible version,
/// because a slot stays posted under the keys of its older versions.
pub(crate) fn choose_access_path<'a>(
    data: &'a TableData,
    preds: &[SimplePred<'a>],
) -> (AccessPath<'a>, usize) {
    // 1. Exact multi/single-column equality matching a whole index. The
    //    first equality on each key column builds the key.
    let eq_value = |col: &str| {
        preds.iter().find_map(|p| match p {
            SimplePred::Eq(c, v) if c.eq_ignore_ascii_case(col) => Some(*v),
            _ => None,
        })
    };
    let mut best_eq: Option<(AccessPath, usize)> = None;
    for ix in data.indexes() {
        if !ix.def.columns.iter().all(|col| eq_value(col).is_some()) {
            continue;
        }
        let key: Vec<Value> = ix.def.columns.iter().filter_map(|c| eq_value(c).cloned()).collect();
        let used = key.len();
        let path = AccessPath::IndexEq { index: ix, key };
        if ix.def.unique {
            // Can't beat a unique point probe.
            return (path, used);
        }
        best_eq = Some((path, used));
    }
    if let Some(best) = best_eq {
        return best;
    }
    // 2. IN-list probe on a single-column index.
    for p in preds {
        if let SimplePred::In(col, vals) = p {
            if let Some(ix) = data.find_index(&[*col]) {
                return (AccessPath::IndexIn { index: ix, keys: vals.clone() }, 1);
            }
        }
    }
    // 3. Range scan on the leading column of an index; merge all range
    //    predicates on the same column.
    for p in preds {
        if let SimplePred::Cmp(col, _, _) = p {
            if let Some(ix) = data.find_index_on(col) {
                let mut low: Bound<&Value> = Bound::Unbounded;
                let mut high: Bound<&Value> = Bound::Unbounded;
                let mut used = 0;
                for q in preds {
                    if let SimplePred::Cmp(c, op, v) = q {
                        if c.eq_ignore_ascii_case(col) {
                            match op {
                                BinOp::Gt => low = tighten_low(low, Bound::Excluded(v)),
                                BinOp::GtEq => low = tighten_low(low, Bound::Included(v)),
                                BinOp::Lt => high = tighten_high(high, Bound::Excluded(v)),
                                BinOp::LtEq => high = tighten_high(high, Bound::Included(v)),
                                _ => continue,
                            }
                            used += 1;
                        }
                    }
                }
                return (AccessPath::IndexRange { index: ix, low, high }, used);
            }
        }
    }
    (AccessPath::FullScan, 0)
}

fn bound_value<'a>(b: &Bound<&'a Value>) -> Option<&'a Value> {
    match b {
        Bound::Included(v) | Bound::Excluded(v) => Some(v),
        Bound::Unbounded => None,
    }
}

fn tighten_low<'a>(cur: Bound<&'a Value>, new: Bound<&'a Value>) -> Bound<&'a Value> {
    match (bound_value(&cur), bound_value(&new)) {
        (None, _) => new,
        (_, None) => cur,
        (Some(a), Some(b)) => {
            if b.total_cmp(a).is_gt() {
                new
            } else {
                cur
            }
        }
    }
}

fn tighten_high<'a>(cur: Bound<&'a Value>, new: Bound<&'a Value>) -> Bound<&'a Value> {
    match (bound_value(&cur), bound_value(&new)) {
        (None, _) => new,
        (_, None) => cur,
        (Some(a), Some(b)) => {
            if b.total_cmp(a).is_lt() {
                new
            } else {
                cur
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, TableSchema};
    use crate::storage::Table;
    use crate::value::DataType;

    fn table_with_index() -> Table {
        let t = Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Bigint).not_null(),
                    ColumnDef::new("src", DataType::Bigint),
                    ColumnDef::new("name", DataType::Varchar),
                ],
            )
            .with_primary_key(vec!["id"]),
        )
        .unwrap();
        t.create_index(crate::index::IndexDef {
            name: "ix_src".into(),
            columns: vec!["src".into()],
            unique: false,
        })
        .unwrap();
        t
    }

    #[test]
    fn split_conjuncts_flattens_ands() {
        let e = Expr::col("a")
            .eq(Expr::lit(1i64))
            .and(Expr::col("b").eq(Expr::lit(2i64)).and(Expr::col("c").eq(Expr::lit(3i64))));
        assert_eq!(split_conjuncts(&e).len(), 3);
    }

    #[test]
    fn simple_pred_extraction() {
        let has = |c: &str| matches!(c.to_ascii_lowercase().as_str(), "id" | "src" | "name");
        let e = Expr::qcol("t", "id").eq(Expr::lit(5i64));
        assert!(matches!(as_simple_pred(&e, "t", &has, &[]), Some(SimplePred::Eq("id", _))));
        // Wrong binding is rejected.
        assert!(as_simple_pred(&e, "other", &has, &[]).is_none());
        // A parameter is read by reference from the statement's values.
        let e = Expr::qcol("t", "id").eq(Expr::Param(0));
        let params = [Value::Bigint(9)];
        match as_simple_pred(&e, "t", &has, &params) {
            Some(SimplePred::Eq("id", v)) => assert!(std::ptr::eq(v, &params[0])),
            other => panic!("{other:?}"),
        }
        assert!(as_simple_pred(&e, "t", &has, &[]).is_none());
        // Flipped comparison normalizes direction.
        let e = Expr::Binary {
            op: BinOp::Lt,
            left: Box::new(Expr::lit(3i64)),
            right: Box::new(Expr::col("id")),
        };
        match as_simple_pred(&e, "t", &has, &[]) {
            Some(SimplePred::Cmp(c, BinOp::Gt, Value::Bigint(3))) => assert_eq!(c, "id"),
            other => panic!("{other:?}"),
        }
        // IN list of literals.
        let e = Expr::InList {
            expr: Box::new(Expr::col("src")),
            list: vec![Expr::lit(1i64), Expr::lit(2i64)],
            negated: false,
        };
        assert!(
            matches!(as_simple_pred(&e, "t", &has, &[]), Some(SimplePred::In(_, v)) if v.len() == 2)
        );
        // Non-literal member defeats extraction.
        let e = Expr::InList {
            expr: Box::new(Expr::col("src")),
            list: vec![Expr::col("id")],
            negated: false,
        };
        assert!(as_simple_pred(&e, "t", &has, &[]).is_none());
    }

    #[test]
    fn chooses_unique_point_probe_first() {
        let t = table_with_index();
        let d = t.read();
        let preds = vec![
            SimplePred::In("src", vec![&Value::Bigint(1)]),
            SimplePred::Eq("id", &Value::Bigint(9)),
        ];
        match choose_access_path(&d, &preds) {
            (AccessPath::IndexEq { index, key }, 1) => {
                assert_eq!(index.def.name, "pk_t");
                assert_eq!(key, vec![Value::Bigint(9)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chooses_in_list_then_range_then_scan() {
        let t = table_with_index();
        let d = t.read();
        let preds = vec![SimplePred::In("src", vec![&Value::Bigint(1), &Value::Bigint(2)])];
        assert!(
            matches!(choose_access_path(&d, &preds), (AccessPath::IndexIn { keys, .. }, 1) if keys.len() == 2)
        );
        let preds = vec![
            SimplePred::Cmp("src", BinOp::Gt, &Value::Bigint(5)),
            SimplePred::Cmp("src", BinOp::LtEq, &Value::Bigint(10)),
        ];
        match choose_access_path(&d, &preds) {
            (AccessPath::IndexRange { low, high, .. }, 2) => {
                assert_eq!(low, Bound::Excluded(&Value::Bigint(5)));
                assert_eq!(high, Bound::Included(&Value::Bigint(10)));
            }
            other => panic!("{other:?}"),
        }
        let name = Value::Varchar("x".into());
        let preds = vec![SimplePred::Eq("name", &name)];
        assert!(matches!(choose_access_path(&d, &preds), (AccessPath::FullScan, 0)));
    }
}
