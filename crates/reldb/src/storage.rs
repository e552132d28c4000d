//! In-memory versioned table storage (epoch-based MVCC).
//!
//! Each table is a slotted heap guarded by a `parking_lot::RwLock`; every
//! slot holds a small *version chain* rather than a single row. A version
//! carries a `begin` and an `end` stamp: while its writing transaction is
//! uncommitted both are *markers* (`TXN_BIT | txn_stamp`); at commit the
//! database finalizes markers to a freshly allocated commit epoch. Readers
//! evaluate visibility against a [`ReadView`] — either "latest committed
//! plus my own writes" (the write path and plain statements) or a pinned
//! commit epoch (snapshot reads used by the graph layer), so a multi-
//! statement traversal observes one database state while writers proceed
//! without blocking readers. This is what lets the overlay inherit the
//! "strongest suit for RDBMSs" the paper claims for Db2 Graph (Section 1)
//! and still keep the Figure 6 concurrency win: readers never block, and
//! secondary indexes are maintained under the same lock so index entries
//! are never *missing* for a visible version (stale extra entries are
//! filtered by re-checking visibility and predicates at read time).
//!
//! Dead versions (committed `end` stamps) are retained until no registered
//! snapshot could still see them, then reclaimed by [`Table::vacuum`]
//! (driven by the database's garbage counter — see `docs/CONSISTENCY.md`).

use parking_lot::{RwLock, RwLockReadGuard};

use crate::error::{DbError, DbResult};
use crate::index::{Index, IndexDef, RowId};
use crate::row::Row;
use crate::schema::TableSchema;
use crate::value::Value;

/// High bit marking an uncommitted begin/end stamp (`TXN_BIT | txn_stamp`).
pub(crate) const TXN_BIT: u64 = 1 << 63;

/// `end` value of a version that has not been deleted or superseded.
pub(crate) const NO_END: u64 = u64::MAX;

/// Snapshot value that admits every committed epoch ("read latest").
pub(crate) const LATEST: u64 = TXN_BIT - 1;

/// A reader's view of the database: which commit epochs are visible and
/// which in-flight transaction (if any) counts as "my own writes".
///
/// `stamp == 0` means "no transaction" — only committed versions are seen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ReadView {
    /// Highest commit epoch visible to this view.
    pub(crate) snap: u64,
    /// Stamp of the transaction whose uncommitted writes are visible.
    pub(crate) stamp: u64,
}

impl ReadView {
    /// A view pinned to one commit epoch (snapshot isolation for reads).
    pub(crate) fn committed(epoch: u64) -> ReadView {
        ReadView { snap: epoch, stamp: 0 }
    }

    /// A view that sees every committed version plus the given
    /// transaction's own uncommitted writes (read-latest; `stamp == 0`
    /// for plain auto-commit reads).
    pub(crate) fn latest(stamp: u64) -> ReadView {
        ReadView { snap: LATEST, stamp }
    }

    fn marker(&self) -> u64 {
        TXN_BIT | self.stamp
    }
}

/// One version of a row: the payload plus its visibility interval.
#[derive(Debug, Clone)]
struct Version {
    begin: u64,
    end: u64,
    row: Row,
}

impl Version {
    /// True when `end` is a committed epoch (neither open nor a marker).
    fn end_committed(&self) -> bool {
        self.end & TXN_BIT == 0
    }

    /// True when this version is the slot's current image (not deleted or
    /// superseded, committed or not).
    fn is_current(&self) -> bool {
        self.end == NO_END
    }

    /// Visibility under MVCC: the version must have begun within the view
    /// (committed at or before `snap`, or written by the view's own
    /// transaction) and must not have ended within it.
    fn visible(&self, view: &ReadView) -> bool {
        let begun = if self.begin & TXN_BIT != 0 {
            view.stamp != 0 && self.begin == view.marker()
        } else {
            self.begin <= view.snap
        };
        if !begun {
            return false;
        }
        if self.end == NO_END {
            return true;
        }
        if self.end & TXN_BIT != 0 {
            // Uncommitted delete: invisible only to the deleting transaction.
            !(view.stamp != 0 && self.end == view.marker())
        } else {
            self.end > view.snap
        }
    }
}

/// Mutable state of a table: version chains plus all indexes.
#[derive(Debug, Default)]
pub struct TableData {
    slots: Vec<Vec<Version>>,
    free: Vec<RowId>,
    /// Count of current versions (committed or not) — the table cardinality
    /// the planner and `row_count` report.
    live: usize,
    /// Committed-dead versions retained for older snapshots; drives vacuum.
    garbage: usize,
    indexes: Vec<Index>,
}

fn same_key(ix: &Index, a: &Row, b: &Row) -> bool {
    ix.col_positions.iter().all(|&i| a[i] == b[i])
}

impl TableData {
    /// Row by id as seen from `view`.
    pub(crate) fn row_at(&self, rid: RowId, view: &ReadView) -> Option<&Row> {
        self.slots.get(rid)?.iter().rev().find(|v| v.visible(view)).map(|v| &v.row)
    }

    /// Iterate `(row_id, row)` over rows visible to `view`.
    pub(crate) fn iter_at(&self, view: ReadView) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots.iter().enumerate().filter_map(move |(rid, slot)| {
            slot.iter().rev().find(|v| v.visible(&view)).map(|v| (rid, &v.row))
        })
    }

    /// Row by id, if the slot has a current (not deleted or superseded)
    /// version — the write path's view of the table.
    #[cfg(test)]
    pub(crate) fn row(&self, rid: RowId) -> Option<&Row> {
        self.slots.get(rid)?.iter().rfind(|v| v.is_current()).map(|v| &v.row)
    }

    /// Iterate `(row_id, row)` over current versions.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (RowId, &Row)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(rid, slot)| slot.iter().rfind(|v| v.is_current()).map(|v| (rid, &v.row)))
    }

    pub(crate) fn len(&self) -> usize {
        self.live
    }

    /// Total stored versions across all slots (introspection for tests and
    /// vacuum accounting).
    #[cfg(test)]
    pub(crate) fn version_count(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// Committed-dead versions awaiting vacuum.
    #[cfg(test)]
    pub(crate) fn garbage_versions(&self) -> usize {
        self.garbage
    }

    /// Find an index whose column list (in order) equals `columns`
    /// case-insensitively, or whose leading columns match for prefix use.
    pub fn find_index(&self, columns: &[impl AsRef<str>]) -> Option<&Index> {
        self.indexes.iter().find(|ix| {
            ix.def.columns.len() == columns.len()
                && ix
                    .def
                    .columns
                    .iter()
                    .zip(columns)
                    .all(|(a, b)| a.eq_ignore_ascii_case(b.as_ref()))
        })
    }

    /// Find an index whose *first* column is `column` (prefix probe).
    pub(crate) fn find_index_on(&self, column: &str) -> Option<&Index> {
        self.indexes
            .iter()
            .find(|ix| ix.def.columns.first().is_some_and(|c| c.eq_ignore_ascii_case(column)))
    }

    pub(crate) fn indexes(&self) -> &[Index] {
        &self.indexes
    }

    /// Is `key` taken in unique index `ix_pos` by any version that is
    /// current or uncommitted-deleted (a rolled-back delete would revive
    /// it)? Index entries can be stale under MVCC, so each candidate's row
    /// is re-checked against the key. Conservative: a *foreign*
    /// uncommitted delete still blocks re-use of its key until the
    /// deleting transaction commits — but a version the inserting
    /// transaction (`stamp`) end-marked itself does not occupy the key, so
    /// DELETE-then-INSERT of the same key inside one transaction works.
    fn key_occupied(
        &self,
        ix_pos: usize,
        key: &[Value],
        exclude: Option<RowId>,
        stamp: u64,
    ) -> bool {
        let own_delete = TXN_BIT | stamp;
        let ix = &self.indexes[ix_pos];
        ix.lookup_eq(key).iter().any(|&rid| {
            if exclude == Some(rid) {
                return false;
            }
            self.slots[rid].iter().any(|v| {
                v.end & TXN_BIT != 0
                    && v.end != own_delete
                    && ix.col_positions.iter().map(|&i| &v.row[i]).eq(key.iter())
            })
        })
    }
}

/// A table: immutable schema plus lock-guarded versioned data.
#[derive(Debug)]
pub struct Table {
    pub schema: TableSchema,
    data: RwLock<TableData>,
}

impl Table {
    /// Create an empty table. A unique index is automatically created on the
    /// primary key (as Db2 does), which both enforces PK uniqueness and
    /// gives the planner a point-probe access path on it.
    pub(crate) fn new(schema: TableSchema) -> DbResult<Table> {
        schema.validate()?;
        let mut data = TableData::default();
        if let Some(pk) = schema.primary_key.clone() {
            let positions: Vec<usize> =
                pk.iter().map(|c| schema.require_column(c)).collect::<DbResult<_>>()?;
            data.indexes.push(Index::new_auto(
                IndexDef {
                    name: format!("pk_{}", schema.name.to_ascii_lowercase()),
                    columns: pk,
                    unique: true,
                },
                positions,
            ));
        }
        for (n, u) in schema.uniques.iter().enumerate() {
            let positions: Vec<usize> =
                u.iter().map(|c| schema.require_column(c)).collect::<DbResult<_>>()?;
            data.indexes.push(Index::new_auto(
                IndexDef {
                    name: format!("uq_{}_{}", schema.name.to_ascii_lowercase(), n),
                    columns: u.clone(),
                    unique: true,
                },
                positions,
            ));
        }
        Ok(Table { schema, data: RwLock::new(data) })
    }

    /// Acquire the read guard for scanning / probing.
    pub fn read(&self) -> RwLockReadGuard<'_, TableData> {
        self.data.read()
    }

    /// Current number of live rows.
    #[cfg(test)]
    pub(crate) fn row_count(&self) -> usize {
        self.data.read().len()
    }

    /// Type-check and coerce a row against the schema.
    fn check_row(&self, mut row: Row) -> DbResult<Row> {
        if row.len() != self.schema.columns.len() {
            return Err(DbError::Type(format!(
                "table '{}' expects {} columns, got {}",
                self.schema.name,
                self.schema.columns.len(),
                row.len()
            )));
        }
        for (i, col) in self.schema.columns.iter().enumerate() {
            let v = std::mem::replace(&mut row[i], Value::Null);
            let coerced = v.coerce_to(col.data_type).map_err(|e| {
                DbError::Type(format!("column '{}.{}': {e}", self.schema.name, col.name))
            })?;
            if coerced.is_null() && (!col.nullable || self.schema.is_pk_column(&col.name)) {
                return Err(DbError::Constraint(format!(
                    "NULL not allowed in column '{}.{}'",
                    self.schema.name, col.name
                )));
            }
            row[i] = coerced;
        }
        Ok(row)
    }

    fn write_locked(&self, rid: RowId) -> DbError {
        DbError::Txn(format!(
            "row {rid} in table '{}' is write-locked by a concurrent transaction",
            self.schema.name
        ))
    }

    fn conflict_or_missing(&self, slot: &[Version], rid: RowId, marker: u64) -> DbError {
        if slot.iter().any(|v| v.end & TXN_BIT != 0 && v.end != NO_END && v.end != marker) {
            self.write_locked(rid)
        } else {
            DbError::Execution(format!("row {rid} not found"))
        }
    }

    /// Insert a full-width row with an uncommitted begin stamp; returns its
    /// row id. The version becomes durable when the owning transaction
    /// finalizes the stamp to a commit epoch.
    pub(crate) fn insert(&self, row: Row, stamp: u64) -> DbResult<RowId> {
        let row = self.check_row(row)?;
        let mut data = self.data.write();
        // Probe all unique indexes before mutating any of them so a
        // duplicate-key failure leaves the table untouched.
        for i in 0..data.indexes.len() {
            if !data.indexes[i].def.unique {
                continue;
            }
            let key: Vec<Value> =
                data.indexes[i].col_positions.iter().map(|&c| row[c].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            if data.key_occupied(i, &key, None, stamp) {
                return Err(DbError::Constraint(format!(
                    "duplicate key in unique index '{}' on table '{}'",
                    data.indexes[i].def.name, self.schema.name
                )));
            }
        }
        let rid = match data.free.pop() {
            Some(rid) => rid,
            None => {
                data.slots.push(Vec::new());
                data.slots.len() - 1
            }
        };
        // Freed slots carry no versions and no index entries, so a plain
        // posting insert cannot create a duplicate (key, rid) pair.
        for ix in &mut data.indexes {
            ix.insert(&row, rid);
        }
        data.slots[rid].push(Version { begin: TXN_BIT | stamp, end: NO_END, row });
        data.live += 1;
        Ok(rid)
    }

    /// Mark the current version of `rid` as deleted by `stamp`; returns the
    /// deleted row image. Index entries are retained for older snapshots
    /// and reclaimed by vacuum. A current version another transaction
    /// created and has not yet committed is a write conflict: end-marking
    /// it would orphan that transaction's rollback.
    pub(crate) fn delete(&self, rid: RowId, stamp: u64) -> DbResult<Row> {
        let marker = TXN_BIT | stamp;
        let mut data = self.data.write();
        let slot = data
            .slots
            .get_mut(rid)
            .ok_or_else(|| DbError::Execution(format!("row {rid} not found")))?;
        let row = match slot.iter_mut().rfind(|v| v.is_current()) {
            Some(v) => {
                if v.begin & TXN_BIT != 0 && v.begin != marker {
                    return Err(self.write_locked(rid));
                }
                v.end = marker;
                v.row.clone()
            }
            None => return Err(self.conflict_or_missing(slot, rid, marker)),
        };
        data.live -= 1;
        Ok(row)
    }

    /// Supersede the current version of `rid` with `new_row` under `stamp`;
    /// returns the previous image. As with [`Table::delete`], a current
    /// version belonging to another uncommitted transaction is a write
    /// conflict, not a silent overwrite.
    pub(crate) fn update(&self, rid: RowId, new_row: Row, stamp: u64) -> DbResult<Row> {
        let new_row = self.check_row(new_row)?;
        let marker = TXN_BIT | stamp;
        let mut data = self.data.write();
        let cur_pos = match data.slots.get(rid) {
            Some(slot) => match slot.iter().rposition(Version::is_current) {
                Some(p) => {
                    if slot[p].begin & TXN_BIT != 0 && slot[p].begin != marker {
                        return Err(self.write_locked(rid));
                    }
                    p
                }
                None => return Err(self.conflict_or_missing(slot, rid, marker)),
            },
            None => return Err(DbError::Execution(format!("row {rid} not found"))),
        };
        // Unique checks against other rows.
        for i in 0..data.indexes.len() {
            if !data.indexes[i].def.unique {
                continue;
            }
            let key: Vec<Value> =
                data.indexes[i].col_positions.iter().map(|&c| new_row[c].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            if data.key_occupied(i, &key, Some(rid), stamp) {
                return Err(DbError::Constraint(format!(
                    "duplicate key in unique index '{}' on table '{}'",
                    data.indexes[i].def.name, self.schema.name
                )));
            }
        }
        let old = {
            let v = &mut data.slots[rid][cur_pos];
            v.end = marker;
            v.row.clone()
        };
        // Postings for unchanged keys already exist; add entries only where
        // the key changed, and dedup against entries left by even older
        // versions of this slot.
        for i in 0..data.indexes.len() {
            if !same_key(&data.indexes[i], &old, &new_row) {
                data.indexes[i].insert_unique_rid(&new_row, rid);
            }
        }
        data.slots[rid].push(Version { begin: marker, end: NO_END, row: new_row });
        Ok(old)
    }

    /// Commit: rewrite `stamp`'s markers on `rid` to the allocated `epoch`.
    pub(crate) fn finalize_stamp(&self, rid: RowId, stamp: u64, epoch: u64) {
        let marker = TXN_BIT | stamp;
        let mut data = self.data.write();
        let mut ended = 0usize;
        if let Some(slot) = data.slots.get_mut(rid) {
            for v in slot.iter_mut() {
                if v.begin == marker {
                    v.begin = epoch;
                }
                if v.end == marker {
                    v.end = epoch;
                    ended += 1;
                }
            }
        }
        data.garbage += ended;
    }

    /// Roll back an insert: remove the uncommitted version `stamp` created
    /// in `rid`, along with index entries no surviving version still needs.
    pub(crate) fn rollback_insert(&self, rid: RowId, stamp: u64) -> DbResult<()> {
        let marker = TXN_BIT | stamp;
        let mut data = self.data.write();
        let TableData { slots, free, live, indexes, .. } = &mut *data;
        let slot = slots
            .get_mut(rid)
            .ok_or_else(|| DbError::Txn(format!("rollback: slot {rid} missing")))?;
        let pos =
            slot.iter().rposition(|v| v.begin == marker && v.end == NO_END).ok_or_else(|| {
                DbError::Txn(format!("rollback: inserted version for row {rid} missing"))
            })?;
        let gone = slot.remove(pos);
        for ix in indexes.iter_mut() {
            if !slot.iter().any(|s| same_key(ix, &s.row, &gone.row)) {
                ix.remove(&gone.row, rid);
            }
        }
        if slot.is_empty() {
            free.push(rid);
        }
        *live -= 1;
        Ok(())
    }

    /// Roll back a delete: re-open the version `stamp` end-marked in `rid`.
    pub(crate) fn rollback_delete(&self, rid: RowId, stamp: u64) -> DbResult<()> {
        let marker = TXN_BIT | stamp;
        let mut data = self.data.write();
        let slot = data
            .slots
            .get_mut(rid)
            .ok_or_else(|| DbError::Txn(format!("rollback: slot {rid} missing")))?;
        let v = slot.iter_mut().rfind(|v| v.end == marker).ok_or_else(|| {
            DbError::Txn(format!("rollback: deleted version for row {rid} missing"))
        })?;
        v.end = NO_END;
        data.live += 1;
        Ok(())
    }

    /// Roll back an update: drop the uncommitted new image and re-open the
    /// version it superseded. Processing undo records in reverse order
    /// unwinds multi-update chains one hop at a time.
    pub(crate) fn rollback_update(&self, rid: RowId, stamp: u64) -> DbResult<()> {
        let marker = TXN_BIT | stamp;
        let mut data = self.data.write();
        let TableData { slots, indexes, .. } = &mut *data;
        let slot = slots
            .get_mut(rid)
            .ok_or_else(|| DbError::Txn(format!("rollback: slot {rid} missing")))?;
        let pos =
            slot.iter().rposition(|v| v.begin == marker && v.end == NO_END).ok_or_else(|| {
                DbError::Txn(format!("rollback: updated version for row {rid} missing"))
            })?;
        let gone = slot.remove(pos);
        for ix in indexes.iter_mut() {
            if !slot.iter().any(|s| same_key(ix, &s.row, &gone.row)) {
                ix.remove(&gone.row, rid);
            }
        }
        let prev = slot.iter_mut().rfind(|v| v.end == marker).ok_or_else(|| {
            DbError::Txn(format!("rollback: superseded version for row {rid} missing"))
        })?;
        prev.end = NO_END;
        Ok(())
    }

    /// Reclaim committed-dead versions invisible to every snapshot at or
    /// above `horizon`. Removes index entries no surviving version shares
    /// and returns slots that became empty to the free list. Returns the
    /// number of versions reclaimed.
    pub(crate) fn vacuum(&self, horizon: u64) -> usize {
        let mut data = self.data.write();
        if data.garbage == 0 {
            return 0;
        }
        let TableData { slots, free, garbage, indexes, .. } = &mut *data;
        let mut removed = 0usize;
        let mut remaining = 0usize;
        for (rid, slot) in slots.iter_mut().enumerate() {
            if slot.is_empty() {
                continue;
            }
            if !slot.iter().any(|v| v.end_committed() && v.end <= horizon) {
                remaining += slot.iter().filter(|v| v.end_committed()).count();
                continue;
            }
            let mut kept = Vec::with_capacity(slot.len());
            let mut dead = Vec::new();
            for v in slot.drain(..) {
                if v.end_committed() && v.end <= horizon {
                    dead.push(v);
                } else {
                    kept.push(v);
                }
            }
            *slot = kept;
            removed += dead.len();
            for v in &dead {
                for ix in indexes.iter_mut() {
                    if !slot.iter().any(|s| same_key(ix, &s.row, &v.row)) {
                        ix.remove(&v.row, rid);
                    }
                }
            }
            if slot.is_empty() {
                free.push(rid);
            }
            remaining += slot.iter().filter(|v| v.end_committed()).count();
        }
        *garbage = remaining;
        removed
    }

    /// Create a new secondary index and backfill it from existing versions
    /// (all of them, so probes under older snapshots stay complete).
    pub fn create_index(&self, def: IndexDef) -> DbResult<()> {
        let positions: Vec<usize> =
            def.columns.iter().map(|c| self.schema.require_column(c)).collect::<DbResult<_>>()?;
        let mut data = self.data.write();
        if data.indexes.iter().any(|ix| ix.def.name.eq_ignore_ascii_case(&def.name)) {
            return Err(DbError::Catalog(format!("index '{}' already exists", def.name)));
        }
        let mut ix = Index::new(def, positions);
        if ix.def.unique {
            // Uniqueness is enforced by the table (version-aware), so
            // validate existing data here before accepting the definition.
            let mut seen: std::collections::HashSet<Vec<Value>> = Default::default();
            for (_, row) in data.iter() {
                let key: Vec<Value> = ix.col_positions.iter().map(|&i| row[i].clone()).collect();
                if !key.iter().any(Value::is_null) && !seen.insert(key) {
                    return Err(DbError::Constraint(format!(
                        "cannot create unique index '{}': duplicate key in table '{}'",
                        ix.def.name, self.schema.name
                    )));
                }
            }
        }
        for (rid, slot) in data.slots.iter().enumerate() {
            for (vi, v) in slot.iter().enumerate() {
                if slot[..vi].iter().any(|p| same_key(&ix, &p.row, &v.row)) {
                    continue;
                }
                ix.insert(&v.row, rid);
            }
        }
        data.indexes.push(ix);
        Ok(())
    }

    /// Drop a secondary index by name. Indexes implied by the schema
    /// (primary key / UNIQUE) enforce constraints and cannot be dropped.
    pub(crate) fn drop_index(&self, name: &str) -> DbResult<()> {
        let mut data = self.data.write();
        let pos = data
            .indexes
            .iter()
            .position(|ix| ix.def.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| DbError::Catalog(format!("index '{name}' not found")))?;
        if data.indexes[pos].auto {
            return Err(DbError::Catalog(format!(
                "cannot drop index '{name}': it enforces a schema constraint"
            )));
        }
        data.indexes.remove(pos);
        Ok(())
    }

    // ------------------------------------------------ durability support

    /// Net effect of transaction `stamp` on `rid`, read *before* the
    /// stamp is finalized: the final row image if a version written by
    /// `stamp` is current, a deletion if `stamp` end-marked a pre-existing
    /// version, or nothing (insert-then-delete inside one transaction).
    /// Intermediate versions of a multi-update chain are invisible to
    /// every post-recovery reader, so the WAL never carries them.
    pub(crate) fn net_change(
        &self,
        rid: RowId,
        stamp: u64,
    ) -> Option<crate::durability::NetChange> {
        use crate::durability::NetChange;
        let marker = TXN_BIT | stamp;
        let data = self.data.read();
        let slot = data.slots.get(rid)?;
        if let Some(v) = slot.iter().rev().find(|v| v.begin == marker && v.end == NO_END) {
            return Some(NetChange::Put(v.row.clone()));
        }
        if slot.iter().any(|v| v.end == marker && v.begin != marker) {
            return Some(NetChange::Del);
        }
        None
    }

    /// Serialize for a checkpoint: slot-array length plus `(rid, begin,
    /// row)` for every version visible at commit epoch `epoch`. The
    /// caller guarantees (via the checkpoint floor) that vacuum cannot
    /// reclaim those versions while this runs.
    pub(crate) fn checkpoint_rows(&self, epoch: u64) -> (u64, Vec<(RowId, u64, Row)>) {
        let view = ReadView::committed(epoch);
        let data = self.data.read();
        let rows = data
            .slots
            .iter()
            .enumerate()
            .filter_map(|(rid, slot)| {
                slot.iter().rev().find(|v| v.visible(&view)).map(|v| (rid, v.begin, v.row.clone()))
            })
            .collect();
        (data.slots.len() as u64, rows)
    }

    /// Index definitions beyond the schema-implied ones auto-created by
    /// [`Table::new`] — what a checkpoint must persist so `CREATE INDEX`
    /// statements already rotated out of the WAL survive. Provenance is
    /// the [`Index::auto`] flag, not the `pk_*`/`uq_*_<n>` naming scheme:
    /// a user index that happens to use such a name is still persisted.
    pub(crate) fn secondary_index_defs(&self) -> Vec<IndexDef> {
        self.data.read().indexes.iter().filter(|ix| !ix.auto).map(|ix| ix.def.clone()).collect()
    }

    /// Grow the slot array to `n` entries (checkpoint restore preserves
    /// row-id positions even for trailing empty slots).
    pub(crate) fn ensure_slots(&self, n: usize) {
        let mut data = self.data.write();
        if data.slots.len() < n {
            data.slots.resize_with(n, Vec::new);
        }
    }

    /// Load one committed version verbatim (checkpoint restore). Indexes
    /// and bookkeeping are rebuilt afterwards by
    /// [`Table::rebuild_indexes`] / [`Table::recompute_bookkeeping`].
    pub(crate) fn load_version(&self, rid: RowId, begin: u64, row: Row) {
        let mut data = self.data.write();
        if data.slots.len() <= rid {
            data.slots.resize_with(rid + 1, Vec::new);
        }
        data.slots[rid].push(Version { begin, end: NO_END, row });
    }

    /// Replay a committed put from the WAL: end-mark the current version
    /// (an update) or start a fresh chain (an insert) at `epoch`.
    pub(crate) fn replay_put(&self, rid: RowId, row: Row, epoch: u64) {
        let mut data = self.data.write();
        if data.slots.len() <= rid {
            data.slots.resize_with(rid + 1, Vec::new);
        }
        if let Some(v) = data.slots[rid].iter_mut().rfind(|v| v.is_current()) {
            v.end = epoch;
        }
        data.slots[rid].push(Version { begin: epoch, end: NO_END, row });
    }

    /// Apply a committed put on a *live* replica: same version-chain
    /// effect as [`Table::replay_put`], but indexes and bookkeeping are
    /// maintained incrementally — a serving follower cannot afford the
    /// full [`Table::rebuild_indexes`] sweep recovery runs once at the
    /// end, and concurrent readers at older epochs need index entries for
    /// every version (same per-slot key dedup as the rebuild).
    pub(crate) fn apply_put(&self, rid: RowId, row: Row, epoch: u64) {
        let mut data = self.data.write();
        if data.slots.len() <= rid {
            data.slots.resize_with(rid + 1, Vec::new);
        }
        let TableData { slots, free, live, garbage, indexes } = &mut *data;
        let slot = &mut slots[rid];
        if slot.is_empty() {
            free.retain(|&r| r != rid);
        }
        match slot.iter_mut().rfind(|v| v.is_current()) {
            Some(v) => {
                v.end = epoch;
                *garbage += 1;
            }
            None => *live += 1,
        }
        for ix in indexes.iter_mut() {
            if !slot.iter().any(|p| same_key(ix, &p.row, &row)) {
                ix.insert(&row, rid);
            }
        }
        slot.push(Version { begin: epoch, end: NO_END, row });
    }

    /// Apply a committed delete on a live replica (see [`Table::apply_put`]
    /// for why this maintains bookkeeping inline). Index entries stay: they
    /// cover all stored versions and vacuum reclaims them with the chain.
    pub(crate) fn apply_del(&self, rid: RowId, epoch: u64) {
        let mut data = self.data.write();
        let TableData { slots, live, garbage, .. } = &mut *data;
        if let Some(slot) = slots.get_mut(rid) {
            if let Some(v) = slot.iter_mut().rfind(|v| v.is_current()) {
                v.end = epoch;
                *live -= 1;
                *garbage += 1;
            }
        }
    }

    /// Replay a committed delete from the WAL. A missing current version
    /// is a no-op (the row was already gone at checkpoint time).
    pub(crate) fn replay_del(&self, rid: RowId, epoch: u64) {
        let mut data = self.data.write();
        if let Some(slot) = data.slots.get_mut(rid) {
            if let Some(v) = slot.iter_mut().rfind(|v| v.is_current()) {
                v.end = epoch;
            }
        }
    }

    /// Rebuild every index from scratch over all stored versions (same
    /// per-slot key dedup as [`Table::create_index`] backfill).
    pub(crate) fn rebuild_indexes(&self) {
        let mut data = self.data.write();
        let TableData { slots, indexes, .. } = &mut *data;
        for ix in indexes.iter_mut() {
            *ix = ix.cleared();
            for (rid, slot) in slots.iter().enumerate() {
                for (vi, v) in slot.iter().enumerate() {
                    if slot[..vi].iter().any(|p| same_key(ix, &p.row, &v.row)) {
                        continue;
                    }
                    ix.insert(&v.row, rid);
                }
            }
        }
    }

    /// Recompute free list, live count, and garbage count from the
    /// version chains (after checkpoint restore + WAL replay).
    pub(crate) fn recompute_bookkeeping(&self) {
        let mut data = self.data.write();
        let TableData { slots, free, live, garbage, .. } = &mut *data;
        free.clear();
        *live = 0;
        *garbage = 0;
        for (rid, slot) in slots.iter().enumerate() {
            if slot.is_empty() {
                free.push(rid);
                continue;
            }
            if slot.iter().any(Version::is_current) {
                *live += 1;
            }
            *garbage += slot.iter().filter(|v| v.end_committed()).count();
        }
    }

    /// Approximate bytes used by live rows (storage accounting for Table 3).
    pub fn approx_bytes(&self) -> usize {
        let data = self.data.read();
        data.iter()
            .map(|(_, row)| {
                row.iter()
                    .map(|v| match v {
                        Value::Varchar(s) => 24 + s.len(),
                        _ => 16,
                    })
                    .sum::<usize>()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::DataType;

    fn table() -> Table {
        Table::new(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Bigint).not_null(),
                    ColumnDef::new("name", DataType::Varchar),
                ],
            )
            .with_primary_key(vec!["id"]),
        )
        .unwrap()
    }

    /// Insert and immediately commit under a private epoch, mimicking what
    /// the database's auto-commit path does.
    fn put(t: &Table, row: Row, stamp: u64, epoch: u64) -> RowId {
        let rid = t.insert(row, stamp).unwrap();
        t.finalize_stamp(rid, stamp, epoch);
        rid
    }

    #[test]
    fn insert_scan_delete() {
        let t = table();
        let r1 = put(&t, vec![Value::Bigint(1), Value::Varchar("a".into())], 1, 1);
        let r2 = put(&t, vec![Value::Bigint(2), Value::Varchar("b".into())], 2, 2);
        assert_eq!(t.row_count(), 2);
        {
            let d = t.read();
            assert_eq!(d.row(r1).unwrap()[1], Value::Varchar("a".into()));
            assert_eq!(d.iter().count(), 2);
        }
        let gone = t.delete(r2, 3).unwrap();
        t.finalize_stamp(r2, 3, 3);
        assert_eq!(gone[0], Value::Bigint(2));
        assert_eq!(t.row_count(), 1);
        // The dead version is retained for older snapshots until vacuum;
        // only then is the slot recycled.
        let r3 = put(&t, vec![Value::Bigint(3), Value::Null], 4, 4);
        assert_ne!(r3, r2);
        assert_eq!(t.vacuum(4), 1);
        let r4 = put(&t, vec![Value::Bigint(4), Value::Null], 5, 5);
        assert_eq!(r4, r2);
    }

    #[test]
    fn snapshot_views_see_their_epoch() {
        let t = table();
        let rid = put(&t, vec![Value::Bigint(1), Value::Varchar("old".into())], 1, 1);
        t.update(rid, vec![Value::Bigint(1), Value::Varchar("new".into())], 2).unwrap();
        // Uncommitted: snapshot at epoch 1 and read-latest both see "old";
        // the writer's own view sees "new".
        let d = t.read();
        let at1 = ReadView::committed(1);
        assert_eq!(d.row_at(rid, &at1).unwrap()[1], Value::Varchar("old".into()));
        assert_eq!(d.row_at(rid, &ReadView::latest(0)).unwrap()[1], Value::Varchar("old".into()));
        assert_eq!(d.row_at(rid, &ReadView::latest(2)).unwrap()[1], Value::Varchar("new".into()));
        drop(d);
        t.finalize_stamp(rid, 2, 2);
        let d = t.read();
        // Committed: the pinned snapshot still sees "old", latest sees "new".
        assert_eq!(d.row_at(rid, &at1).unwrap()[1], Value::Varchar("old".into()));
        assert_eq!(
            d.row_at(rid, &ReadView::committed(2)).unwrap()[1],
            Value::Varchar("new".into())
        );
        assert_eq!(d.iter_at(at1).count(), 1);
    }

    #[test]
    fn deleted_row_stays_visible_to_older_snapshot() {
        let t = table();
        let rid = put(&t, vec![Value::Bigint(7), Value::Null], 1, 1);
        t.delete(rid, 2).unwrap();
        t.finalize_stamp(rid, 2, 2);
        let d = t.read();
        assert!(d.row_at(rid, &ReadView::committed(1)).is_some());
        assert!(d.row_at(rid, &ReadView::committed(2)).is_none());
        assert!(d.row_at(rid, &ReadView::latest(0)).is_none());
        // The index still finds it for the old snapshot.
        let ix = d.find_index_on("id").unwrap();
        assert_eq!(ix.lookup_eq(&[Value::Bigint(7)]), vec![rid]);
    }

    #[test]
    fn pk_uniqueness_enforced_via_auto_index() {
        let t = table();
        put(&t, vec![Value::Bigint(1), Value::Null], 1, 1);
        let err = t.insert(vec![Value::Bigint(1), Value::Null], 2).unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
        // Failed insert must not leak a slot or index entry.
        assert_eq!(t.row_count(), 1);
        put(&t, vec![Value::Bigint(2), Value::Null], 3, 2);
    }

    #[test]
    fn pk_reusable_after_committed_delete_before_vacuum() {
        // A committed delete retains its version (and index entry) for old
        // snapshots, but its key must be immediately reusable.
        let t = table();
        let rid = put(&t, vec![Value::Bigint(1), Value::Null], 1, 1);
        t.delete(rid, 2).unwrap();
        t.finalize_stamp(rid, 2, 2);
        let r2 = put(&t, vec![Value::Bigint(1), Value::Varchar("again".into())], 3, 3);
        assert_ne!(rid, r2);
        let d = t.read();
        assert_eq!(
            d.row_at(r2, &ReadView::committed(3)).unwrap()[1],
            Value::Varchar("again".into())
        );
    }

    #[test]
    fn uncommitted_delete_blocks_key_reuse() {
        let t = table();
        let rid = put(&t, vec![Value::Bigint(1), Value::Null], 1, 1);
        t.delete(rid, 2).unwrap(); // not finalized: could still roll back
        let err = t.insert(vec![Value::Bigint(1), Value::Null], 3).unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
        t.rollback_delete(rid, 2).unwrap();
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    fn own_uncommitted_delete_allows_key_reuse() {
        // DELETE-then-INSERT of the same key inside one transaction: the
        // deleting stamp may re-take its own key while others stay blocked.
        let t = table();
        let rid = put(&t, vec![Value::Bigint(1), Value::Varchar("old".into())], 1, 1);
        t.delete(rid, 2).unwrap();
        let r2 = t.insert(vec![Value::Bigint(1), Value::Varchar("new".into())], 2).unwrap();
        t.finalize_stamp(rid, 2, 2);
        t.finalize_stamp(r2, 2, 2);
        let d = t.read();
        assert_eq!(d.row_at(r2, &ReadView::committed(2)).unwrap()[1], Value::Varchar("new".into()));
        assert_eq!(
            d.row_at(rid, &ReadView::committed(1)).unwrap()[1],
            Value::Varchar("old".into())
        );
        assert_eq!(d.iter_at(ReadView::committed(2)).count(), 1);
    }

    #[test]
    fn foreign_uncommitted_write_locks_update_and_delete() {
        // A current version created by an uncommitted transaction (insert
        // or update) must reject end-marking by any other stamp — otherwise
        // the owner's rollback can no longer find its versions and aborts
        // half-done, stranding permanent uncommitted markers.
        let t = table();
        let rid = put(&t, vec![Value::Bigint(1), Value::Varchar("v0".into())], 1, 1);
        t.update(rid, vec![Value::Bigint(1), Value::Varchar("v1".into())], 5).unwrap();
        assert!(matches!(
            t.update(rid, vec![Value::Bigint(1), Value::Varchar("x".into())], 6).unwrap_err(),
            DbError::Txn(_)
        ));
        assert!(matches!(t.delete(rid, 6).unwrap_err(), DbError::Txn(_)));
        // The owner itself can keep going, and its rollback still unwinds.
        t.update(rid, vec![Value::Bigint(1), Value::Varchar("v2".into())], 5).unwrap();
        t.rollback_update(rid, 5).unwrap();
        t.rollback_update(rid, 5).unwrap();
        assert_eq!(t.read().row(rid).unwrap()[1], Value::Varchar("v0".into()));
        // Once the owner is gone, other stamps can write again.
        t.delete(rid, 7).unwrap();
        t.finalize_stamp(rid, 7, 2);
        assert_eq!(t.row_count(), 0);

        // Same for an uncommitted *insert*: its current version is locked.
        let r2 = t.insert(vec![Value::Bigint(9), Value::Null], 8).unwrap();
        assert!(matches!(t.delete(r2, 9).unwrap_err(), DbError::Txn(_)));
        assert!(matches!(
            t.update(r2, vec![Value::Bigint(9), Value::Null], 9).unwrap_err(),
            DbError::Txn(_)
        ));
        t.rollback_insert(r2, 8).unwrap();
        assert_eq!(t.row_count(), 0);
    }

    #[test]
    fn pk_rejects_null_and_wrong_arity() {
        let t = table();
        assert!(matches!(
            t.insert(vec![Value::Null, Value::Null], 1).unwrap_err(),
            DbError::Constraint(_)
        ));
        assert!(matches!(t.insert(vec![Value::Bigint(1)], 1).unwrap_err(), DbError::Type(_)));
    }

    #[test]
    fn update_maintains_indexes() {
        let t = table();
        let rid = put(&t, vec![Value::Bigint(1), Value::Varchar("a".into())], 1, 1);
        put(&t, vec![Value::Bigint(2), Value::Null], 2, 2);
        // Moving row 1 onto pk 2 must fail.
        assert!(t.update(rid, vec![Value::Bigint(2), Value::Null], 3).is_err());
        t.update(rid, vec![Value::Bigint(5), Value::Varchar("z".into())], 3).unwrap();
        t.finalize_stamp(rid, 3, 3);
        let d = t.read();
        let ix = d.find_index_on("id").unwrap();
        assert_eq!(ix.lookup_eq(&[Value::Bigint(5)]), vec![rid]);
        // The old key's entry survives for older snapshots...
        assert_eq!(ix.lookup_eq(&[Value::Bigint(1)]), vec![rid]);
        assert!(d.row_at(rid, &ReadView::committed(1)).is_some());
        drop(d);
        // ...and is reclaimed once no snapshot can reach it.
        t.vacuum(3);
        let d = t.read();
        let ix = d.find_index_on("id").unwrap();
        assert!(ix.lookup_eq(&[Value::Bigint(1)]).is_empty());
        assert_eq!(ix.lookup_eq(&[Value::Bigint(5)]), vec![rid]);
    }

    #[test]
    fn rollback_insert_removes_version_entries_and_count() {
        let t = table();
        let rid = t.insert(vec![Value::Bigint(1), Value::Varchar("x".into())], 7).unwrap();
        assert_eq!(t.row_count(), 1);
        t.rollback_insert(rid, 7).unwrap();
        assert_eq!(t.row_count(), 0);
        let d = t.read();
        assert!(d.find_index_on("id").unwrap().lookup_eq(&[Value::Bigint(1)]).is_empty());
        assert_eq!(d.version_count(), 0);
        drop(d);
        // Key and slot are reusable immediately.
        let r2 = t.insert(vec![Value::Bigint(1), Value::Null], 8).unwrap();
        assert_eq!(r2, rid);
    }

    #[test]
    fn rollback_update_chain_restores_original() {
        let t = table();
        let rid = put(&t, vec![Value::Bigint(1), Value::Varchar("v0".into())], 1, 1);
        t.update(rid, vec![Value::Bigint(2), Value::Varchar("v1".into())], 5).unwrap();
        t.update(rid, vec![Value::Bigint(3), Value::Varchar("v2".into())], 5).unwrap();
        // Reverse order, as the undo log replays them.
        t.rollback_update(rid, 5).unwrap();
        t.rollback_update(rid, 5).unwrap();
        let d = t.read();
        assert_eq!(d.row(rid).unwrap()[0], Value::Bigint(1));
        let ix = d.find_index_on("id").unwrap();
        assert_eq!(ix.lookup_eq(&[Value::Bigint(1)]), vec![rid]);
        assert!(ix.lookup_eq(&[Value::Bigint(2)]).is_empty());
        assert!(ix.lookup_eq(&[Value::Bigint(3)]).is_empty());
        assert_eq!(d.version_count(), 1);
    }

    #[test]
    fn vacuum_respects_horizon() {
        let t = table();
        let rid = put(&t, vec![Value::Bigint(1), Value::Varchar("v0".into())], 1, 1);
        for (stamp, epoch) in [(2u64, 2u64), (3, 3), (4, 4)] {
            t.update(rid, vec![Value::Bigint(1), Value::Varchar(format!("v{}", epoch - 1))], stamp)
                .unwrap();
            t.finalize_stamp(rid, stamp, epoch);
        }
        assert_eq!(t.read().version_count(), 4);
        // A snapshot pinned at epoch 2 keeps versions ending after 2.
        assert_eq!(t.vacuum(2), 1);
        assert_eq!(t.read().version_count(), 3);
        assert!(t.read().row_at(rid, &ReadView::committed(2)).is_some());
        assert_eq!(t.vacuum(4), 2);
        assert_eq!(t.read().version_count(), 1);
        assert_eq!(t.read().garbage_versions(), 0);
    }

    #[test]
    fn secondary_index_backfill_and_drop() {
        let t = table();
        for i in 0..10 {
            put(
                &t,
                vec![Value::Bigint(i), Value::Varchar(format!("n{}", i % 3))],
                (i + 1) as u64,
                (i + 1) as u64,
            );
        }
        t.create_index(IndexDef {
            name: "ix_name".into(),
            columns: vec!["name".into()],
            unique: false,
        })
        .unwrap();
        {
            let d = t.read();
            let ix = d.find_index_on("name").unwrap();
            assert_eq!(ix.lookup_eq(&[Value::Varchar("n0".into())]).len(), 4);
        }
        assert!(t
            .create_index(IndexDef {
                name: "ix_name".into(),
                columns: vec!["name".into()],
                unique: false
            })
            .is_err());
        t.drop_index("ix_name").unwrap();
        assert!(t.drop_index("ix_name").is_err());
        assert!(t.drop_index("pk_t").is_err());
    }

    #[test]
    fn unique_index_creation_validates_existing_rows() {
        let t = table();
        put(&t, vec![Value::Bigint(1), Value::Varchar("same".into())], 1, 1);
        put(&t, vec![Value::Bigint(2), Value::Varchar("same".into())], 2, 2);
        let err = t
            .create_index(IndexDef {
                name: "uq_name".into(),
                columns: vec!["name".into()],
                unique: true,
            })
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)));
    }

    #[test]
    fn rollback_delete_restores_visibility() {
        let t = table();
        let rid = put(&t, vec![Value::Bigint(7), Value::Varchar("x".into())], 1, 1);
        t.delete(rid, 2).unwrap();
        assert_eq!(t.row_count(), 0);
        t.rollback_delete(rid, 2).unwrap();
        assert_eq!(t.row_count(), 1);
        let d = t.read();
        assert_eq!(d.row(rid).unwrap()[0], Value::Bigint(7));
        assert_eq!(d.row_at(rid, &ReadView::committed(1)).unwrap()[0], Value::Bigint(7));
    }
}
