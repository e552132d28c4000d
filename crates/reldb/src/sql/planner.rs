//! Access path selection.
//!
//! Given a base-table scan plus the WHERE conjuncts that reference it, pick
//! an index probe when one applies. The SQL that Db2 Graph generates is
//! dominated by `id = ?` point probes and `src_v IN (...)` list probes, so
//! these two access paths are what make graph traversal fast; the paper's
//! SQL Dialect module suggests exactly these indexes (Section 6.1).
//!
//! An IN-list path carries the list's literals as one flat key list, which
//! [`Index::lookup_in`](crate::index::Index::lookup_in) probes key by key
//! without building a key per member. Whatever the path, the executor
//! re-checks the whole WHERE clause on each visible version.

use std::ops::Bound;

use crate::sql::ast::{BinOp, Expr};
use crate::storage::TableData;
use crate::value::Value;

/// A chosen way to produce candidate rows from a table.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum AccessPath {
    /// Scan every live row.
    FullScan,
    /// Probe an index for one exact key.
    IndexEq { index: String, key: Vec<Value> },
    /// Probe a single-column index for each key in a list (IN-list).
    IndexIn { index: String, keys: Vec<Value> },
    /// Range scan on the leading column of an index.
    IndexRange { index: String, low: Bound<Value>, high: Bound<Value> },
}

impl AccessPath {
    /// Human-readable form for EXPLAIN output.
    pub(crate) fn describe(&self, table: &str) -> String {
        match self {
            AccessPath::FullScan => format!("SCAN {table}"),
            AccessPath::IndexEq { index, key } => {
                let keys: Vec<String> = key.iter().map(Value::to_sql_literal).collect();
                format!("INDEX-EQ {table} via {index} key=({})", keys.join(", "))
            }
            AccessPath::IndexIn { index, keys } => {
                format!("INDEX-IN {table} via {index} ({} keys)", keys.len())
            }
            AccessPath::IndexRange { index, .. } => format!("INDEX-RANGE {table} via {index}"),
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
/// `col <op> literal`, `col IN (literals)`.
#[derive(Debug, Clone)]
pub(crate) enum SimplePred {
    Eq(String, Value),
    In(String, Vec<Value>),
    Cmp(String, BinOp, Value),
}

/// Try to view a conjunct as a simple single-column predicate over the
/// given binding (alias) of a table with the given columns.
pub(crate) fn as_simple_pred(
    expr: &Expr,
    binding: &str,
    has_column: &dyn Fn(&str) -> bool,
) -> Option<SimplePred> {
    let col_of = |e: &Expr| -> Option<String> {
        if let Expr::Column { qualifier, name } = e {
            let qual_ok =
                qualifier.as_ref().map(|q| q.eq_ignore_ascii_case(binding)).unwrap_or(true);
            if qual_ok && has_column(name) {
                return Some(name.clone());
            }
        }
        None
    };
    let lit_of = |e: &Expr| -> Option<Value> {
        if let Expr::Literal(v) = e {
            Some(v.clone())
        } else {
            None
        }
    };
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
            let vals: Option<Vec<Value>> = list.iter().map(lit_of).collect();
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
pub(crate) fn choose_access_path(data: &TableData, preds: &[SimplePred]) -> (AccessPath, usize) {
    // 1. Exact multi/single-column equality matching a whole index. The
    //    first equality on each key column builds the key.
    let eq_preds: Vec<&SimplePred> =
        preds.iter().filter(|p| matches!(p, SimplePred::Eq(_, _))).collect();
    let mut best_eq: Option<(AccessPath, usize)> = None;
    for ix in data.indexes() {
        let mut key = Vec::with_capacity(ix.def.columns.len());
        let mut ok = true;
        for col in &ix.def.columns {
            match eq_preds.iter().find_map(|p| match p {
                SimplePred::Eq(c, v) if c.eq_ignore_ascii_case(col) => Some(v.clone()),
                _ => None,
            }) {
                Some(v) => key.push(v),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            let used = key.len();
            let path = AccessPath::IndexEq { index: ix.def.name.clone(), key };
            if ix.def.unique {
                // Can't beat a unique point probe.
                return (path, used);
            }
            best_eq = Some((path, used));
        }
    }
    if let Some(best) = best_eq {
        return best;
    }
    // 2. IN-list probe on a single-column index.
    for p in preds {
        if let SimplePred::In(col, vals) = p {
            if let Some(ix) = data.find_index(std::slice::from_ref(col)) {
                return (AccessPath::IndexIn { index: ix.def.name.clone(), keys: vals.clone() }, 1);
            }
        }
    }
    // 3. Range scan on the leading column of an index; merge all range
    //    predicates on the same column.
    for p in preds {
        if let SimplePred::Cmp(col, _, _) = p {
            if let Some(ix) = data.find_index_on(col) {
                let mut low: Bound<Value> = Bound::Unbounded;
                let mut high: Bound<Value> = Bound::Unbounded;
                let mut used = 0;
                for q in preds {
                    if let SimplePred::Cmp(c, op, v) = q {
                        if c.eq_ignore_ascii_case(col) {
                            match op {
                                BinOp::Gt => low = tighten_low(low, Bound::Excluded(v.clone())),
                                BinOp::GtEq => low = tighten_low(low, Bound::Included(v.clone())),
                                BinOp::Lt => high = tighten_high(high, Bound::Excluded(v.clone())),
                                BinOp::LtEq => {
                                    high = tighten_high(high, Bound::Included(v.clone()))
                                }
                                _ => continue,
                            }
                            used += 1;
                        }
                    }
                }
                return (AccessPath::IndexRange { index: ix.def.name.clone(), low, high }, used);
            }
        }
    }
    (AccessPath::FullScan, 0)
}

fn bound_value(b: &Bound<Value>) -> Option<&Value> {
    match b {
        Bound::Included(v) | Bound::Excluded(v) => Some(v),
        Bound::Unbounded => None,
    }
}

fn tighten_low(cur: Bound<Value>, new: Bound<Value>) -> Bound<Value> {
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

fn tighten_high(cur: Bound<Value>, new: Bound<Value>) -> Bound<Value> {
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
        assert!(matches!(as_simple_pred(&e, "t", &has), Some(SimplePred::Eq(c, _)) if c == "id"));
        // Wrong binding is rejected.
        assert!(as_simple_pred(&e, "other", &has).is_none());
        // Flipped comparison normalizes direction.
        let e = Expr::Binary {
            op: BinOp::Lt,
            left: Box::new(Expr::lit(3i64)),
            right: Box::new(Expr::col("id")),
        };
        match as_simple_pred(&e, "t", &has) {
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
            matches!(as_simple_pred(&e, "t", &has), Some(SimplePred::In(_, v)) if v.len() == 2)
        );
        // Non-literal member defeats extraction.
        let e = Expr::InList {
            expr: Box::new(Expr::col("src")),
            list: vec![Expr::col("id")],
            negated: false,
        };
        assert!(as_simple_pred(&e, "t", &has).is_none());
    }

    #[test]
    fn chooses_unique_point_probe_first() {
        let t = table_with_index();
        let d = t.read();
        let preds = vec![
            SimplePred::In("src".into(), vec![Value::Bigint(1)]),
            SimplePred::Eq("id".into(), Value::Bigint(9)),
        ];
        match choose_access_path(&d, &preds) {
            (AccessPath::IndexEq { index, key }, 1) => {
                assert_eq!(index, "pk_t");
                assert_eq!(key, vec![Value::Bigint(9)]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn chooses_in_list_then_range_then_scan() {
        let t = table_with_index();
        let d = t.read();
        let preds = vec![SimplePred::In("src".into(), vec![Value::Bigint(1), Value::Bigint(2)])];
        assert!(
            matches!(choose_access_path(&d, &preds), (AccessPath::IndexIn { keys, .. }, 1) if keys.len() == 2)
        );
        let preds = vec![
            SimplePred::Cmp("src".into(), BinOp::Gt, Value::Bigint(5)),
            SimplePred::Cmp("src".into(), BinOp::LtEq, Value::Bigint(10)),
        ];
        match choose_access_path(&d, &preds) {
            (AccessPath::IndexRange { low, high, .. }, 2) => {
                assert_eq!(low, Bound::Excluded(Value::Bigint(5)));
                assert_eq!(high, Bound::Included(Value::Bigint(10)));
            }
            other => panic!("{other:?}"),
        }
        let preds = vec![SimplePred::Eq("name".into(), Value::Varchar("x".into()))];
        assert_eq!(choose_access_path(&d, &preds), (AccessPath::FullScan, 0));
    }
}
