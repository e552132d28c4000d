//! Adjacency cache: the rows adjacency SQL returned, kept per (edge table
//! × direction) and grouped by source vertex.
//!
//! Every adjacency step the Graph Structure module executes turns into SQL
//! against the overlaid edge tables — correct, but a traversal workload
//! re-expands the same frontiers over and over, paying statement dispatch
//! and row materialization each time. GRAPHITE-style systems answer
//! traversals from in-engine adjacency instead; this module retrofits that
//! idea *behind* the SQL path. [`Db2GraphBackend`] consults it before
//! generating adjacency SQL: cache-hit sources read their rows from
//! memory, misses fall back to the unchanged batched-SQL path, whose rows
//! lazily populate the cache for next time. The cache holds the edge
//! table's rows exactly as the probe selected them, not built elements:
//! hits and misses go through one decoder, which builds only what the step
//! asks for (two endpoint ids for a vertex hop, an `Edge` for an edge hop).
//!
//! [`Db2GraphBackend`]: crate::graph_structure::Db2GraphBackend
//!
//! ## MVCC correctness (the epoch-invalidation rule)
//!
//! The relational substrate is MVCC: a query pins a [`Snapshot`] at epoch
//! `E` and must observe exactly the state committed at `E`. A cache above
//! it must never leak a later (or earlier) state into that view. Each
//! segment therefore records the **epoch** its rows were read at
//! (`built_epoch`) and the **schema generation** at build time, and the
//! cache tracks a per-table *last-modified watermark* fed by a
//! [`reldb::ChangeHook`] — the engine reports, inside its commit lock,
//! which tables every published commit touched. A segment may serve a
//! query pinned at epoch `E` only when
//!
//! ```text
//! schema_gen(segment) == schema_gen(db)
//!   AND watermark(table) <= min(built_epoch(segment), E)
//! ```
//!
//! i.e. the table provably has not changed between the state the segment
//! captured and the state the query reads. Otherwise the segment is
//! dropped (stale) or bypassed (query older than the last change) — never
//! served. Tables that predate the hook installation use the installation
//! epoch as a conservative watermark. Queries running inside a transaction
//! (a stamped snapshot: they see their own uncommitted writes) bypass the
//! cache. Observed runs — `profile()`, `.profile()`, tracing, the
//! slow-query log — use it like any other run, and their profile records
//! each served hop as `TableAction::CacheHit` — see `docs/VECTORIZED.md`.
//!
//! [`Snapshot`]: reldb::Snapshot
//!
//! ## Layout
//!
//! A segment maps each cached source id to a [`RowSpan`]: a range of one
//! immutable `Arc<Vec<Row>>` chunk. Each population batch becomes one
//! chunk, its rows grouped by source and kept in SQL order within a
//! source. A lookup clones the spans' `Arc`s under the cache lock; the
//! rows are decoded outside it, on the calling thread, by the same
//! decoder the SQL rows go through.
//!
//! Memory is bounded: the budget the graph resolves at open
//! (`GraphOptions.adj_cache_mb`, then `DB2GRAPH_ADJ_CACHE_MB`, then
//! [`DEFAULT_ADJ_CACHE_MB`]; `0` disables the cache) caps the resident
//! estimate, enforced by LRU eviction at segment granularity. The estimate
//! charges each row its slot in the chunk, its value buffer as allocated
//! and each string's buffer, plus each cached source its hash-table slot
//! and the text of a string id; every heap allocation also pays the
//! allocator's bookkeeping.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use gremlin::structure::ElementId;
use parking_lot::{Mutex, RwLock};
use reldb::{Database, Row, Value};

use crate::metrics::MetricsRegistry;

/// Default cache budget (MiB) when neither `GraphOptions.adj_cache_mb` nor
/// `DB2GRAPH_ADJ_CACHE_MB` sets one; both are resolved by
/// [`GraphOptions::with_lookup`](crate::GraphOptions::with_lookup).
pub const DEFAULT_ADJ_CACHE_MB: usize = 64;

/// Key of one cache segment: (edge-table index, direction), where `true`
/// means outgoing (source = the edge's src endpoint).
pub type SegKey = (usize, bool);

/// Per-table last-modified watermarks, maintained by the change hook.
struct Watermarks {
    /// Epoch at hook installation: the conservative watermark for tables
    /// the hook has never reported (they may have last changed at any
    /// epoch up to this one).
    floor: u64,
    /// Lowercased table name -> epoch of the last commit touching it.
    by_table: HashMap<String, u64>,
}

impl Watermarks {
    fn get(&self, table: &str) -> u64 {
        self.by_table.get(table).copied().unwrap_or(self.floor)
    }
}

/// One source's cached adjacency: rows `lo..hi` of an immutable chunk.
/// Readable without the cache lock.
#[derive(Clone)]
pub struct RowSpan {
    chunk: Arc<Vec<Row>>,
    lo: usize,
    hi: usize,
}

impl RowSpan {
    /// The source's rows, in the order SQL returned them.
    pub fn rows(&self) -> &[Row] {
        &self.chunk[self.lo..self.hi]
    }
}

/// One segment: the cached adjacency of one (edge table, direction).
struct Segment {
    /// Lowercased edge-table name — the watermark key.
    table: String,
    /// The committed epoch whose state this segment's rows reflect.
    built_epoch: u64,
    /// Catalog generation at build time; any DDL invalidates.
    schema_gen: u64,
    /// Built from a full scan: sources absent from `spans` are known to
    /// have empty adjacency (a hit), not unknown (a miss).
    complete: bool,
    /// Source id -> its rows.
    spans: HashMap<ElementId, RowSpan>,
    /// Resident-size estimate for the budget.
    bytes: usize,
    /// LRU clock value of the last lookup touching this segment.
    last_used: u64,
}

impl Segment {
    /// The adjacency of one source id, if cached.
    fn span(&self, id: &ElementId) -> Option<RowSpan> {
        match self.spans.get(id) {
            Some(span) => Some(span.clone()),
            None => self.complete.then(|| RowSpan { chunk: Arc::default(), lo: 0, hi: 0 }),
        }
    }

    /// Append the complete adjacency of `probed_ids`: `rows` in SQL order,
    /// `anchors[i]` the probed endpoint of `rows[i]`. Rows of sources
    /// already cached (identical state — same epoch rule) are dropped.
    fn append(&mut self, probed_ids: &[ElementId], rows: Vec<Row>, anchors: &[&ElementId]) {
        let fresh: Vec<&ElementId> =
            probed_ids.iter().filter(|id| !self.spans.contains_key(*id)).collect();
        let slot: HashMap<&ElementId, usize> =
            fresh.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        // A stable sort groups rows by source and keeps SQL order within one.
        let mut keyed: Vec<(usize, Row)> = rows
            .into_iter()
            .zip(anchors)
            .filter_map(|(row, anchor)| Some((*slot.get(anchor)?, row)))
            .collect();
        keyed.sort_by_key(|&(k, _)| k);
        let keys: Vec<usize> = keyed.iter().map(|&(k, _)| k).collect();
        // Extended, not collected: an in-place collect would keep the
        // larger `(usize, Row)` buffer.
        let mut chunk = Vec::with_capacity(keyed.len());
        chunk.extend(keyed.into_iter().map(|(_, row)| row));
        self.bytes += chunk.iter().map(row_bytes).sum::<usize>();
        let chunk = Arc::new(chunk);
        for (k, id) in fresh.into_iter().enumerate() {
            let lo = keys.partition_point(|&x| x < k);
            let hi = keys.partition_point(|&x| x <= k);
            self.bytes += source_bytes(id);
            self.spans.insert(id.clone(), RowSpan { chunk: chunk.clone(), lo, hi });
        }
    }
}

/// Fixed overhead charged per segment so even empty segments count
/// against the budget.
const SEGMENT_BASE_BYTES: usize = 512;

/// Allocator bookkeeping charged per heap allocation: its header and the
/// rounding up to the allocator's granule.
const ALLOC_BYTES: usize = 16;

/// Per cached source: its hash-table slot (the id and the span, 48 bytes,
/// and a control byte) with the table's spare capacity.
const SOURCE_BYTES: usize = 64;

/// Resident-size estimate of one cached source: its slot, and the text of
/// a string id.
fn source_bytes(id: &ElementId) -> usize {
    SOURCE_BYTES
        + match id {
            ElementId::Long(_) => 0,
            ElementId::Str(s) => ALLOC_BYTES + s.capacity(),
        }
}

/// Resident-size estimate of one cached row: its slot in the chunk, its
/// value buffer as allocated (SQL rows may carry spare capacity), and each
/// string's buffer.
fn row_bytes(row: &Row) -> usize {
    let strings: usize = row
        .iter()
        .map(|v| match v {
            Value::Varchar(s) => ALLOC_BYTES + s.capacity(),
            _ => 0,
        })
        .sum();
    let values = ALLOC_BYTES + row.capacity() * std::mem::size_of::<Value>();
    std::mem::size_of::<Row>() + values + strings
}

struct CacheInner {
    segments: HashMap<SegKey, Segment>,
    /// Sum of all segments' byte estimates.
    bytes: usize,
    /// LRU clock.
    tick: u64,
}

/// The adjacency cache for one graph. Shared (via `Arc`) by the backend
/// and all of its shallow per-query clones; one instance per `Db2Graph`.
pub struct AdjCache {
    db: Arc<Database>,
    budget_bytes: usize,
    registry: Arc<MetricsRegistry>,
    watermarks: Arc<RwLock<Watermarks>>,
    inner: Mutex<CacheInner>,
}

impl AdjCache {
    /// Build a cache over `db` with a `budget_mb` MiB budget and register
    /// its change hook. The hook holds only a weak reference: dropping
    /// the graph (and its cache) degenerates the hook to a no-op rather
    /// than leaking the cache through the database.
    pub fn new(db: Arc<Database>, budget_mb: usize, registry: Arc<MetricsRegistry>) -> Arc<AdjCache> {
        Self::with_budget_bytes(db, budget_mb.saturating_mul(1024 * 1024), registry)
    }

    fn with_budget_bytes(
        db: Arc<Database>,
        budget_bytes: usize,
        registry: Arc<MetricsRegistry>,
    ) -> Arc<AdjCache> {
        let watermarks = Arc::new(RwLock::new(Watermarks {
            // Read before hook registration: every epoch at or below this
            // may contain unseen changes, and every commit after
            // registration is reported — no window is unaccounted for.
            floor: db.commit_epoch(),
            by_table: HashMap::new(),
        }));
        let cache = Arc::new(AdjCache {
            db: db.clone(),
            budget_bytes,
            registry,
            watermarks: watermarks.clone(),
            inner: Mutex::new(CacheInner { segments: HashMap::new(), bytes: 0, tick: 0 }),
        });
        let weak: Weak<RwLock<Watermarks>> = Arc::downgrade(&watermarks);
        db.add_change_hook(Arc::new(move |epoch, tables| {
            if let Some(w) = weak.upgrade() {
                let mut w = w.write();
                for t in tables {
                    w.by_table.insert(t.clone(), epoch);
                }
            }
        }));
        cache
    }

    /// Resident byte estimate (the `adj_cache_bytes` gauge).
    pub fn bytes(&self) -> usize {
        self.inner.lock().bytes
    }

    /// Number of resident segments.
    pub fn segment_count(&self) -> usize {
        self.inner.lock().segments.len()
    }

    /// Look up the adjacency of `ids` in segment `key` for a query pinned
    /// at `epoch`. Returns one entry per id, in order: a span for a hit
    /// (possibly empty), `None` for a miss. Stale segments are dropped
    /// here (counted as invalidations), never served.
    pub fn lookup(&self, key: SegKey, ids: &[ElementId], epoch: u64) -> Vec<Option<RowSpan>> {
        let all_miss = |n: usize| vec![None; n];
        let schema_gen = self.db.schema_generation();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let Some(seg) = inner.segments.get_mut(&key) else {
            self.registry.adj_cache_misses.add(ids.len() as u64);
            return all_miss(ids.len());
        };
        let wm = self.watermarks.read().get(&seg.table);
        if seg.schema_gen != schema_gen || wm > seg.built_epoch {
            // The table (or the catalog) moved past the segment's state:
            // it can never serve anyone again.
            let stale = inner.segments.remove(&key).expect("segment present");
            inner.bytes -= stale.bytes;
            self.registry.adj_cache_invalidations.add(1);
            self.registry.adj_cache_misses.add(ids.len() as u64);
            return all_miss(ids.len());
        }
        if wm > epoch {
            // The segment is current but this query's snapshot predates
            // the table's last change: bypass (do not drop — newer
            // queries can still be served).
            self.registry.adj_cache_misses.add(ids.len() as u64);
            return all_miss(ids.len());
        }
        seg.last_used = tick;
        let spans: Vec<Option<RowSpan>> = ids.iter().map(|id| seg.span(id)).collect();
        let hits = spans.iter().filter(|s| s.is_some()).count() as u64;
        self.registry.adj_cache_hits.add(hits);
        self.registry.adj_cache_misses.add(ids.len() as u64 - hits);
        spans
    }

    /// Populate from one unconstrained probe's result: `rows` (SQL order)
    /// are the complete adjacency of `probed_ids` in `table` for segment
    /// `key`, read at committed epoch `epoch`; `anchors[i]` is the probed
    /// endpoint of `rows[i]`. No-op if a concurrent commit already made
    /// that state unservable.
    pub fn insert(
        &self,
        key: SegKey,
        table: &str,
        probed_ids: &[ElementId],
        rows: Vec<Row>,
        anchors: &[&ElementId],
        epoch: u64,
    ) {
        self.insert_inner(key, table, probed_ids, rows, anchors, epoch, false)
    }

    /// Populate from a full scan of `table`: like [`AdjCache::insert`],
    /// but the resulting segment is *complete* — sources not present are
    /// known to have empty adjacency, so they hit (with no rows) instead
    /// of missing. Replaces any existing segment.
    pub fn insert_complete(
        &self,
        key: SegKey,
        table: &str,
        rows: Vec<Row>,
        anchors: &[&ElementId],
        epoch: u64,
    ) {
        // A full scan defines its own source universe.
        let mut seen: std::collections::HashSet<&ElementId> = std::collections::HashSet::new();
        let sources: Vec<ElementId> =
            anchors.iter().filter(|a| seen.insert(**a)).map(|a| (*a).clone()).collect();
        self.insert_inner(key, table, &sources, rows, anchors, epoch, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_inner(
        &self,
        key: SegKey,
        table: &str,
        probed_ids: &[ElementId],
        rows: Vec<Row>,
        anchors: &[&ElementId],
        epoch: u64,
        complete: bool,
    ) {
        if self.budget_bytes == 0 {
            return;
        }
        let table = table.to_ascii_lowercase();
        let schema_gen = self.db.schema_generation();
        let wm = self.watermarks.read().get(&table);
        if wm > epoch {
            // The table changed after this data was read; caching it
            // would serve a superseded state.
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(seg) = inner.segments.get(&key) {
            let drop_existing = seg.schema_gen != schema_gen
                || wm > seg.built_epoch
                || complete
                || seg.table != table;
            if drop_existing {
                let stale = inner.segments.remove(&key).expect("segment present");
                inner.bytes -= stale.bytes;
                if !complete {
                    self.registry.adj_cache_invalidations.add(1);
                }
            } else if wm > epoch.min(seg.built_epoch) {
                return; // incompatible states; keep the existing segment
            }
        }
        let existed = inner.segments.contains_key(&key);
        let seg = inner.segments.entry(key).or_insert_with(|| Segment {
            table,
            built_epoch: epoch,
            schema_gen,
            complete,
            spans: HashMap::new(),
            bytes: SEGMENT_BASE_BYTES,
            last_used: 0,
        });
        let before = if existed { seg.bytes } else { 0 };
        // Appending rows read at a different epoch is sound only because
        // wm <= min(built_epoch, epoch) — the table did not change
        // between the two states, so they are the same state.
        seg.built_epoch = seg.built_epoch.min(epoch);
        seg.last_used = tick;
        seg.append(probed_ids, rows, anchors);
        let after = seg.bytes;
        inner.bytes = inner.bytes - before + after;
        self.enforce_budget(&mut inner);
    }

    /// LRU eviction at segment granularity until the estimate fits the
    /// budget (which can evict the segment just populated, if it alone
    /// exceeds the budget).
    fn enforce_budget(&self, inner: &mut CacheInner) {
        let mut evicted = 0u64;
        while inner.bytes > self.budget_bytes && !inner.segments.is_empty() {
            let victim = inner
                .segments
                .iter()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty");
            let seg = inner.segments.remove(&victim).expect("victim present");
            inner.bytes -= seg.bytes;
            evicted += 1;
        }
        if evicted > 0 {
            self.registry.adj_cache_evictions.add(evicted);
        }
    }

    /// Drop every segment (tests and explicit resets).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        let n = inner.segments.len() as u64;
        inner.segments.clear();
        inner.bytes = 0;
        if n > 0 {
            self.registry.adj_cache_invalidations.add(n);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An adjacency row of a `knows(src, dst, n)` edge table.
    fn row(src: i64, dst: i64, n: i64) -> Row {
        vec![Value::Bigint(src), Value::Bigint(dst), Value::Bigint(n)]
    }

    /// The out-direction anchors (src ids) of `rows`.
    fn anchors(rows: &[Row]) -> Vec<ElementId> {
        rows.iter().map(|r| ElementId::Long(r[0].as_i64().unwrap())).collect()
    }

    /// Insert `rows` as the complete out-adjacency of `ids` into segment
    /// `(et, true)`.
    fn insert(cache: &AdjCache, et: usize, ids: &[ElementId], rows: Vec<Row>, epoch: u64) {
        let owned = anchors(&rows);
        let refs: Vec<&ElementId> = owned.iter().collect();
        cache.insert((et, true), "knows", ids, rows, &refs, epoch);
    }

    fn cache(db: &Arc<Database>, mb: usize) -> (Arc<AdjCache>, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::default());
        (AdjCache::new(db.clone(), mb, registry.clone()), registry)
    }

    fn commit_touching(db: &Database, table: &str) {
        db.execute(&format!("INSERT INTO {table} VALUES ({})", db.commit_epoch() + 1000))
            .unwrap();
    }

    fn test_db() -> Arc<Database> {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE knows (x BIGINT)").unwrap();
        db.execute("CREATE TABLE other (x BIGINT)").unwrap();
        db
    }

    fn hits_of(spans: &[Option<RowSpan>]) -> Vec<Option<Vec<Row>>> {
        spans.iter().map(|s| s.as_ref().map(|s| s.rows().to_vec())).collect()
    }

    #[test]
    fn populate_then_hit_same_epoch() {
        let db = test_db();
        let (cache, _) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1), ElementId::Long(9)];
        insert(&cache, 0, &ids, vec![row(1, 2, 0), row(1, 3, 1)], epoch);
        let hits = hits_of(&cache.lookup((0, true), &ids, epoch));
        assert_eq!(hits[0], Some(vec![row(1, 2, 0), row(1, 3, 1)]));
        // Probed id with no edges: cached as empty adjacency (a hit).
        assert_eq!(hits[1], Some(vec![]));
        // An unprobed id is a miss (segment is not complete).
        assert!(cache.lookup((0, true), &[ElementId::Long(5)], epoch)[0].is_none());
    }

    #[test]
    fn commit_to_cached_table_invalidates() {
        let db = test_db();
        let (cache, registry) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1)];
        insert(&cache, 0, &ids, vec![row(1, 2, 0)], epoch);
        commit_touching(&db, "knows");
        assert!(cache.lookup((0, true), &ids, db.commit_epoch())[0].is_none());
        assert_eq!(registry.snapshot().adj_cache_invalidations, 1);
        assert_eq!(cache.segment_count(), 0);
        assert_eq!(cache.bytes(), 0);
    }

    #[test]
    fn commit_to_unrelated_table_keeps_segment() {
        let db = test_db();
        let (cache, _) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1)];
        insert(&cache, 0, &ids, vec![row(1, 2, 0)], epoch);
        commit_touching(&db, "other");
        assert!(cache.lookup((0, true), &ids, db.commit_epoch())[0].is_some());
    }

    #[test]
    fn old_snapshot_bypasses_without_dropping() {
        let db = test_db();
        let (cache, _) = cache(&db, 4);
        let old_epoch = db.commit_epoch();
        commit_touching(&db, "knows");
        let new_epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1)];
        insert(&cache, 0, &ids, vec![row(1, 2, 0)], new_epoch);
        // A snapshot from before the commit must not see the newer state.
        assert!(cache.lookup((0, true), &ids, old_epoch)[0].is_none());
        // ... but the segment still serves current snapshots.
        assert!(cache.lookup((0, true), &ids, new_epoch)[0].is_some());
        // And the old snapshot's results never populate over newer data.
        insert(&cache, 0, &[ElementId::Long(7)], vec![], old_epoch);
        assert!(cache.lookup((0, true), &[ElementId::Long(7)], new_epoch)[0].is_none());
    }

    #[test]
    fn ddl_invalidates_via_schema_generation() {
        let db = test_db();
        let (cache, registry) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1)];
        insert(&cache, 0, &ids, vec![row(1, 2, 0)], epoch);
        db.execute("CREATE TABLE later (x BIGINT)").unwrap();
        assert!(cache.lookup((0, true), &ids, db.commit_epoch())[0].is_none());
        assert_eq!(registry.snapshot().adj_cache_invalidations, 1);
    }

    #[test]
    fn complete_segment_hits_absent_sources_empty() {
        let db = test_db();
        let (cache, _) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let rows = vec![row(1, 2, 0)];
        let owned = anchors(&rows);
        let refs: Vec<&ElementId> = owned.iter().collect();
        cache.insert_complete((0, true), "knows", rows, &refs, epoch);
        let ids = [ElementId::Long(1), ElementId::Long(42)];
        let hits = hits_of(&cache.lookup((0, true), &ids, epoch));
        assert_eq!(hits, vec![Some(vec![row(1, 2, 0)]), Some(vec![])]);
    }

    #[test]
    fn budget_evicts_lru_segments() {
        let db = test_db();
        // A zero-MB budget disables caching outright.
        let (disabled, _) = cache(&db, 0);
        let epoch = db.commit_epoch();
        insert(&disabled, 0, &[ElementId::Long(1)], vec![row(1, 2, 0)], epoch);
        assert_eq!(disabled.segment_count(), 0);

        // Tiny budgets evict whole segments, least recently used first.
        let registry = Arc::new(MetricsRegistry::default());
        let tight = AdjCache::with_budget_bytes(db.clone(), 8 * 1024, registry.clone());
        for et in 0..8usize {
            let ids: Vec<ElementId> = (0..16).map(ElementId::Long).collect();
            insert(&tight, et, &ids, (0..16).map(|i| row(i, i + 1, i)).collect(), epoch);
        }
        assert!(tight.bytes() <= 8 * 1024);
        assert!(tight.segment_count() < 8);
        let snap = registry.snapshot();
        assert!(snap.adj_cache_evictions > 0, "{}", snap.adj_cache_evictions);
        // The most recently inserted segment survives.
        assert!(tight.lookup((7, true), &[ElementId::Long(0)], epoch)[0].is_some());
    }

    #[test]
    fn rows_group_by_source_in_sql_order_across_batches() {
        let db = test_db();
        let (cache, _) = cache(&db, 16);
        let epoch = db.commit_epoch();
        // SQL may interleave sources; each span keeps its source's rows
        // in the order they arrived.
        let ids = [ElementId::Long(1), ElementId::Long(4)];
        let rows = vec![row(4, 9, 0), row(1, 2, 1), row(4, 8, 2), row(1, 3, 3)];
        insert(&cache, 0, &ids, rows, epoch);
        // A second batch into the same segment, with an empty source.
        insert(&cache, 0, &[ElementId::Long(5), ElementId::Long(6)], vec![row(6, 1, 4)], epoch);
        let ids: Vec<ElementId> = [1, 4, 5, 6, 9].into_iter().map(ElementId::Long).collect();
        let hits = hits_of(&cache.lookup((0, true), &ids, epoch));
        assert_eq!(hits[0], Some(vec![row(1, 2, 1), row(1, 3, 3)]));
        assert_eq!(hits[1], Some(vec![row(4, 9, 0), row(4, 8, 2)]));
        assert_eq!(hits[2], Some(vec![]));
        assert_eq!(hits[3], Some(vec![row(6, 1, 4)]));
        assert!(hits[4].is_none());
    }

    #[test]
    fn bytes_of_a_two_row_segment_match_a_hand_count() {
        let db = test_db();
        let (cache, _) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let rows = vec![
            vec![Value::Bigint(1), Value::Bigint(2), Value::Varchar("ab".into())],
            vec![Value::Bigint(1), Value::Bigint(3), Value::Varchar("xyz".into())],
        ];
        let src = ElementId::Str("node::1".into());
        cache.insert((0, true), "knows", std::slice::from_ref(&src), rows, &[&src, &src], epoch);
        let value = std::mem::size_of::<Value>();
        let segment = 512;
        // One source: its 64-byte slot and its id's text ("node::1", 7
        // bytes, in its own allocation).
        let source = 64 + (16 + 7);
        // Two rows: each a 24-byte slot in the chunk and an allocation of
        // three values, plus the allocations of "ab" and "xyz".
        let rows = 2 * (24 + 16 + 3 * value) + (16 + 2) + (16 + 3);
        assert_eq!(cache.bytes(), segment + source + rows);
    }
}
