//! Ordered secondary indexes.
//!
//! Indexes are ordered maps from key values to row ids. The planner uses
//! them for the point and IN-list probes that dominate the SQL generated by
//! the graph layer (`WHERE id = ?`, `WHERE src_v IN (...)`), which is also
//! why the paper's SQL Dialect module *suggests* indexes for frequent query
//! patterns — without them every traversal hop is a table scan.
//!
//! A single-column index, which is every index the graph layer probes,
//! keys its B-tree by the bare [`Value`]: no heap allocation per indexed
//! row, and a BIGINT comparison inlines ([`Value::total_cmp`]). A composite
//! index keys by the column values in declaration order. Which of the two
//! an index uses stays behind this module's API: callers pass keys as
//! `&[Value]` either way.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::row::Row;
use crate::value::Value;

/// Identifier of a row slot within its table.
pub(crate) type RowId = usize;

/// User-visible definition of an index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexDef {
    pub name: String,
    pub columns: Vec<String>,
    pub unique: bool,
}

/// An ordered index over one or more columns of a table.
///
/// Keys are the indexed column values in declaration order. Non-unique
/// indexes keep a postings list of row ids per key.
#[derive(Debug)]
pub struct Index {
    pub(crate) def: IndexDef,
    /// Positions of the indexed columns within the table schema.
    pub(crate) col_positions: Vec<usize>,
    /// Created implicitly for a schema constraint (PRIMARY KEY / UNIQUE)
    /// rather than by `CREATE INDEX`. Auto indexes are rebuilt from the
    /// schema on checkpoint restore, so checkpoints skip them — tracked
    /// as a flag, never inferred from the name, which a user index is
    /// free to collide with.
    pub(crate) auto: bool,
    map: Postings,
}

/// The key → row ids map, by the index's arity.
#[derive(Debug)]
enum Postings {
    Single(BTreeMap<Value, Vec<RowId>>),
    Composite(BTreeMap<Vec<Value>, Vec<RowId>>),
}

impl Index {
    pub(crate) fn new(def: IndexDef, col_positions: Vec<usize>) -> Self {
        let map = if col_positions.len() == 1 {
            Postings::Single(BTreeMap::new())
        } else {
            Postings::Composite(BTreeMap::new())
        };
        Index { def, col_positions, auto: false, map }
    }

    /// An index implied by the schema (see [`Index::auto`]).
    pub(crate) fn new_auto(def: IndexDef, col_positions: Vec<usize>) -> Self {
        Index { auto: true, ..Self::new(def, col_positions) }
    }

    /// A fresh, empty index with the same definition and provenance —
    /// for rebuilds that re-insert every key from storage.
    pub(crate) fn cleared(&self) -> Index {
        Index { auto: self.auto, ..Self::new(self.def.clone(), self.col_positions.clone()) }
    }

    /// A composite index's key for `row`.
    fn composite_key(col_positions: &[usize], row: &Row) -> Vec<Value> {
        col_positions.iter().map(|&i| row[i].clone()).collect()
    }

    /// The postings of a row's key, created empty if absent.
    fn postings_mut(&mut self, row: &Row) -> &mut Vec<RowId> {
        match &mut self.map {
            Postings::Single(m) => m.entry(row[self.col_positions[0]].clone()).or_default(),
            Postings::Composite(m) => {
                m.entry(Self::composite_key(&self.col_positions, row)).or_default()
            }
        }
    }

    /// The postings of `key`, one value per indexed column.
    fn postings(&self, key: &[Value]) -> Option<&Vec<RowId>> {
        match (&self.map, key) {
            (Postings::Single(m), [k]) => m.get(k),
            (Postings::Single(_), _) => None,
            (Postings::Composite(m), key) => m.get(key),
        }
    }

    /// Add a posting for a row's key. Uniqueness is *not* checked here:
    /// under versioned storage an entry may refer to a dead version, so
    /// only the table (which sees the version chains) can decide whether a
    /// key is genuinely taken — see `TableData::key_occupied`.
    pub(crate) fn insert(&mut self, row: &Row, rid: RowId) {
        self.postings_mut(row).push(rid);
    }

    /// Add a posting unless `(key, rid)` is already present — used when a
    /// new version of an existing row re-introduces a key an older version
    /// of the same row already indexed.
    pub(crate) fn insert_unique_rid(&mut self, row: &Row, rid: RowId) {
        let entry = self.postings_mut(row);
        if !entry.contains(&rid) {
            entry.push(rid);
        }
    }

    /// Remove a row's key posting.
    pub(crate) fn remove(&mut self, row: &Row, rid: RowId) {
        fn drop_rid<K: Ord>(m: &mut BTreeMap<K, Vec<RowId>>, key: K, rid: RowId) {
            if let Some(entry) = m.get_mut(&key) {
                entry.retain(|&r| r != rid);
                if entry.is_empty() {
                    m.remove(&key);
                }
            }
        }
        match &mut self.map {
            Postings::Single(m) => drop_rid(m, row[self.col_positions[0]].clone(), rid),
            Postings::Composite(m) => {
                drop_rid(m, Self::composite_key(&self.col_positions, row), rid)
            }
        }
    }

    /// All row ids whose key equals `key` exactly.
    pub(crate) fn lookup_eq(&self, key: &[Value]) -> &[RowId] {
        self.postings(key).map_or(&[], Vec::as_slice)
    }

    /// Row ids matching any of the given one-column keys (IN-list probe),
    /// and the number of probes made. A key equal to the one before it is
    /// not probed again: the graph layer pads its IN-lists by repeating
    /// the last id. Other duplicates yield their row ids twice; the caller
    /// dedups them.
    pub(crate) fn lookup_in(&self, keys: &[Value]) -> (Vec<RowId>, usize) {
        let mut out = Vec::new();
        let mut probes = 0;
        let mut prev: Option<&Value> = None;
        for key in keys {
            if prev == Some(key) {
                continue;
            }
            prev = Some(key);
            probes += 1;
            if let Some(rids) = self.postings(std::slice::from_ref(key)) {
                out.extend_from_slice(rids);
            }
        }
        (out, probes)
    }

    /// Row ids whose *first* indexed column falls in the given bounds.
    /// Only meaningful for prefix (single leading column) ranges.
    pub(crate) fn lookup_range(&self, low: Bound<&Value>, high: Bound<&Value>) -> Vec<RowId> {
        let past_high = |v: &Value| match high {
            Bound::Included(h) => v > h,
            Bound::Excluded(h) => v >= h,
            Bound::Unbounded => false,
        };
        let mut out = Vec::new();
        match &self.map {
            Postings::Single(m) => {
                for (key, rids) in m.range::<Value, _>((low, Bound::Unbounded)) {
                    if past_high(key) {
                        break;
                    }
                    out.extend_from_slice(rids);
                }
            }
            Postings::Composite(m) => {
                // An exclusive lower bound on the first column must still
                // admit composite keys sharing the bound value, so widen
                // and re-filter.
                let lo = match low {
                    Bound::Included(v) | Bound::Excluded(v) => Bound::Included(vec![v.clone()]),
                    Bound::Unbounded => Bound::Unbounded,
                };
                for (key, rids) in m.range((lo, Bound::Unbounded)) {
                    let first = &key[0];
                    if matches!(low, Bound::Excluded(l) if first <= l) {
                        continue;
                    }
                    if past_high(first) {
                        break;
                    }
                    out.extend_from_slice(rids);
                }
            }
        }
        out
    }

    /// Number of distinct keys currently indexed.
    #[cfg(test)]
    pub(crate) fn distinct_keys(&self) -> usize {
        match &self.map {
            Postings::Single(m) => m.len(),
            Postings::Composite(m) => m.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(unique: bool) -> Index {
        Index::new(IndexDef { name: "i".into(), columns: vec!["a".into()], unique }, vec![0])
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut i = idx(false);
        i.insert(&vec![Value::Bigint(1), Value::Varchar("x".into())], 10);
        i.insert(&vec![Value::Bigint(1), Value::Varchar("y".into())], 11);
        i.insert(&vec![Value::Bigint(2), Value::Varchar("z".into())], 12);
        assert_eq!(i.lookup_eq(&[Value::Bigint(1)]), vec![10, 11]);
        i.remove(&vec![Value::Bigint(1), Value::Varchar("x".into())], 10);
        assert_eq!(i.lookup_eq(&[Value::Bigint(1)]), vec![11]);
        assert_eq!(i.distinct_keys(), 2);
    }

    #[test]
    fn insert_unique_rid_dedups_per_row_postings() {
        let mut i = idx(true);
        i.insert(&vec![Value::Bigint(1)], 0);
        i.insert_unique_rid(&vec![Value::Bigint(1)], 0);
        assert_eq!(i.lookup_eq(&[Value::Bigint(1)]), vec![0]);
        // A different row id under the same key is still recorded (two
        // versions of different rows can share a key transiently).
        i.insert_unique_rid(&vec![Value::Bigint(1)], 1);
        assert_eq!(i.lookup_eq(&[Value::Bigint(1)]), vec![0, 1]);
    }

    #[test]
    fn in_list_probe_collects_all_matches() {
        let mut i = idx(false);
        for rid in 0..5 {
            i.insert(&vec![Value::Bigint(rid as i64)], rid);
        }
        let keys = [Value::Bigint(1), Value::Bigint(3), Value::Bigint(9)];
        assert_eq!(i.lookup_in(&keys), (vec![1, 3], 3));
    }

    #[test]
    fn in_list_probe_skips_repeated_tail_but_not_distant_duplicates() {
        let mut i = idx(false);
        for rid in 0..5 {
            i.insert(&vec![Value::Bigint(rid as i64)], rid);
        }
        // A padded tail is probed once; a duplicate further back is probed
        // again and its row ids repeat (the executor dedups them).
        let keys = [1, 3, 1, 4, 4].map(Value::Bigint);
        assert_eq!(i.lookup_in(&keys), (vec![1, 3, 1, 4], 4));
        // DOUBLE keys find BIGINT postings, as the total order says.
        assert_eq!(i.lookup_in(&[Value::Double(2.0)]), (vec![2], 1));
    }

    #[test]
    fn range_probe_on_leading_column() {
        let mut i = Index::new(
            IndexDef { name: "c".into(), columns: vec!["a".into(), "b".into()], unique: false },
            vec![0, 1],
        );
        for (a, b, rid) in [(1, 1, 0), (1, 2, 1), (2, 1, 2), (3, 1, 3)] {
            i.insert(&vec![Value::Bigint(a), Value::Bigint(b)], rid);
        }
        let got =
            i.lookup_range(Bound::Excluded(&Value::Bigint(1)), Bound::Included(&Value::Bigint(3)));
        assert_eq!(got, vec![2, 3]);
        let got = i.lookup_range(Bound::Unbounded, Bound::Excluded(&Value::Bigint(2)));
        assert_eq!(got, vec![0, 1]);
        // A composite index answers whole keys only.
        assert!(i.lookup_eq(&[Value::Bigint(1)]).is_empty());
        assert_eq!(i.lookup_eq(&[Value::Bigint(1), Value::Bigint(2)]), [1]);
    }

    #[test]
    fn range_probe_on_single_column_index() {
        let mut i = idx(false);
        for rid in 0..6 {
            i.insert(&vec![Value::Bigint(rid as i64)], rid);
        }
        let got =
            i.lookup_range(Bound::Excluded(&Value::Bigint(1)), Bound::Included(&Value::Bigint(3)));
        assert_eq!(got, vec![2, 3]);
        let got = i.lookup_range(Bound::Included(&Value::Double(3.5)), Bound::Unbounded);
        assert_eq!(got, vec![4, 5]);
        // An empty range, low above high, finds nothing.
        let (four, two) = (Value::Bigint(4), Value::Bigint(2));
        let got = i.lookup_range(Bound::Excluded(&four), Bound::Excluded(&two));
        assert!(got.is_empty());
    }
}
