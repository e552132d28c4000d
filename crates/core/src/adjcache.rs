//! Columnar CSR adjacency cache.
//!
//! Every adjacency step the Graph Structure module executes turns into SQL
//! against the overlaid edge tables — correct, but a traversal workload
//! re-expands the same frontiers over and over, paying statement dispatch
//! and row materialization each time. GRAPHITE-style systems answer
//! traversals from columnar in-engine adjacency instead; this module
//! retrofits that idea *behind* the SQL path: a per-(edge-table ×
//! direction) cache of CSR-shaped columns (offsets + neighbor-ids +
//! edge-ids, all `Vec<i64>`) that [`Db2GraphBackend`] consults before
//! generating adjacency SQL. Cache-hit sources expand entirely in memory;
//! misses fall back to the unchanged batched-SQL path, whose results
//! lazily populate the cache for next time.
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
//! epoch as a conservative watermark. Queries running inside a session
//! transaction (a stamped snapshot: they see their own uncommitted
//! writes) and profiled/observed runs bypass the cache entirely — see
//! `docs/VECTORIZED.md`.
//!
//! ## Layout
//!
//! A segment interns `ElementId`s into dense `i64` dictionary codes and
//! stores classic CSR columns: `sources[i]` spans
//! `neighbors[offsets[i]..offsets[i+1]]` (opposite-endpoint codes) and
//! `edge_rows[..]` (rows in an append-only edge arena). The arena holds
//! materialized [`Edge`]s in immutable `Arc` chunks, so serving resolves
//! spans under the cache lock but materializes (clones) edges outside it
//! — which is what lets the backend expand hits on work-stealing morsels
//! (`pool::run_morsels`) without holding the cache lock.
//!
//! Memory is bounded: `DB2GRAPH_ADJ_CACHE_MB` (default
//! [`DEFAULT_ADJ_CACHE_MB`], `0` disables the cache) caps the resident
//! estimate, enforced by LRU eviction at segment granularity.

use std::collections::HashMap;
use std::sync::{Arc, Weak};

use gremlin::structure::{Edge, ElementId, GValue};
use parking_lot::{Mutex, RwLock};
use reldb::Database;

use crate::metrics::MetricsRegistry;

/// Environment knob: adjacency-cache budget in mebibytes. `0` disables
/// the cache.
pub const ADJ_CACHE_MB_ENV: &str = "DB2GRAPH_ADJ_CACHE_MB";

/// Default cache budget when neither `GraphOptions.adj_cache_mb` nor the
/// environment sets one.
pub const DEFAULT_ADJ_CACHE_MB: usize = 64;

/// Key of one cache segment: (edge-table index, direction), where `true`
/// means outgoing (source = the edge's src endpoint).
type SegKey = (usize, bool);

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

/// One cache-resident edge, resolvable without the cache lock: an `Arc`
/// to its immutable arena chunk plus its index there. Materialization
/// (the `Edge` clone) is the expensive part, deferred to morsel workers.
#[derive(Clone)]
pub struct EdgeRef {
    chunk: Arc<Vec<Edge>>,
    idx: usize,
}

impl EdgeRef {
    pub fn materialize(&self) -> Edge {
        self.chunk[self.idx].clone()
    }
}

/// The cache's answer for one frontier source id.
pub enum Probe {
    /// Complete adjacency for this source at the query's epoch (possibly
    /// empty). No SQL needed.
    Hit(Vec<EdgeRef>),
    /// Unknown: fall back to the batched-SQL path.
    Miss,
}

/// One CSR segment: the cached adjacency of one (edge table, direction).
struct Segment {
    /// Lowercased edge-table name — the watermark key.
    table: String,
    /// The committed epoch whose state this segment's rows reflect.
    built_epoch: u64,
    /// Catalog generation at build time; any DDL invalidates.
    schema_gen: u64,
    /// Built from a full scan: sources absent from the dictionary are
    /// known to have empty adjacency (a hit), not unknown (a miss).
    complete: bool,
    /// `ElementId` -> dense dictionary code.
    dict: HashMap<ElementId, i64>,
    /// Reverse dictionary: code -> `ElementId`.
    ids: Vec<ElementId>,
    /// Source code -> row in the CSR columns below.
    src_row: HashMap<i64, usize>,
    /// CSR columns: `sources[i]` spans
    /// `neighbors/edge_rows[offsets[i] as usize .. offsets[i+1] as usize]`.
    sources: Vec<i64>,
    offsets: Vec<i64>,
    /// Opposite-endpoint dictionary codes.
    neighbors: Vec<i64>,
    /// Global arena row of each adjacency entry.
    edge_rows: Vec<i64>,
    /// Append-only arena of materialized edges, in immutable chunks (one
    /// per population batch). `arena_starts[k]` is the global row of
    /// chunk `k`'s first edge.
    arena: Vec<Arc<Vec<Edge>>>,
    arena_starts: Vec<i64>,
    /// Resident-size estimate for the budget.
    bytes: usize,
    /// LRU clock value of the last lookup touching this segment.
    last_used: u64,
}

impl Segment {
    fn new(table: String, built_epoch: u64, schema_gen: u64, complete: bool) -> Segment {
        Segment {
            table,
            built_epoch,
            schema_gen,
            complete,
            dict: HashMap::new(),
            ids: Vec::new(),
            src_row: HashMap::new(),
            sources: Vec::new(),
            offsets: vec![0],
            neighbors: Vec::new(),
            edge_rows: Vec::new(),
            arena: Vec::new(),
            arena_starts: Vec::new(),
            bytes: SEGMENT_BASE_BYTES,
            last_used: 0,
        }
    }

    fn intern(&mut self, id: &ElementId) -> i64 {
        if let Some(&c) = self.dict.get(id) {
            return c;
        }
        let code = self.ids.len() as i64;
        self.dict.insert(id.clone(), code);
        self.ids.push(id.clone());
        self.bytes += approx_id_bytes(id) * 2 + 48;
        code
    }

    /// Resolve one adjacency entry to a lock-free edge reference.
    fn edge_ref(&self, global_row: i64) -> EdgeRef {
        // arena_starts is sorted; find the chunk containing the row.
        let k = match self.arena_starts.binary_search(&global_row) {
            Ok(k) => k,
            Err(k) => k - 1,
        };
        EdgeRef {
            chunk: self.arena[k].clone(),
            idx: (global_row - self.arena_starts[k]) as usize,
        }
    }

    /// The adjacency span of one source id, if cached.
    fn span(&self, id: &ElementId) -> Option<Vec<EdgeRef>> {
        let code = match self.dict.get(id) {
            Some(c) => c,
            None => return self.complete.then(Vec::new),
        };
        let row = match self.src_row.get(code) {
            Some(&r) => r,
            None => return self.complete.then(Vec::new),
        };
        let (lo, hi) = (self.offsets[row] as usize, self.offsets[row + 1] as usize);
        Some(self.edge_rows[lo..hi].iter().map(|&g| self.edge_ref(g)).collect())
    }

    /// Append the complete adjacency of `probed_ids` (grouped from one
    /// unconstrained probe's result rows, order preserved).
    fn append(&mut self, probed_ids: &[ElementId], out: bool, edges: &[&Edge]) {
        // Group result edges by their probed endpoint, preserving row
        // order within each source — the order SQL produced them.
        let mut per_source: HashMap<&ElementId, Vec<&Edge>> = HashMap::new();
        for e in edges {
            let anchor = if out { &e.src } else { &e.dst };
            per_source.entry(anchor).or_default().push(e);
        }
        let mut chunk: Vec<Edge> = Vec::new();
        let global_base = self.arena_starts.last().map_or(0, |&s| s + self.arena.last().map_or(0, |c| c.len() as i64));
        for id in probed_ids {
            let code = self.intern(id);
            if self.src_row.contains_key(&code) {
                continue; // already cached (identical state — same epoch)
            }
            let own = per_source.get(id).map(|v| v.as_slice()).unwrap_or(&[]);
            self.src_row.insert(code, self.sources.len());
            self.sources.push(code);
            for e in own {
                let ncode = self.intern(if out { &e.dst } else { &e.src });
                self.neighbors.push(ncode);
                self.edge_rows.push(global_base + chunk.len() as i64);
                self.bytes += approx_edge_bytes(e) + 24;
                chunk.push((*e).clone());
            }
            self.offsets.push(self.neighbors.len() as i64);
            self.bytes += 48;
        }
        if !chunk.is_empty() {
            self.arena_starts.push(global_base);
            self.arena.push(Arc::new(chunk));
        }
    }
}

/// Fixed overhead charged per segment so even empty segments count
/// against the budget.
const SEGMENT_BASE_BYTES: usize = 512;

fn approx_id_bytes(id: &ElementId) -> usize {
    match id {
        ElementId::Long(_) => 16,
        ElementId::Str(s) => 24 + s.len(),
    }
}

fn approx_gvalue_bytes(v: &GValue) -> usize {
    match v {
        GValue::Str(s) => 24 + s.len(),
        _ => 16,
    }
}

/// Resident-size estimate of one materialized edge (id + endpoints +
/// label + properties).
fn approx_edge_bytes(e: &Edge) -> usize {
    let mut n = 96
        + approx_id_bytes(&e.id)
        + approx_id_bytes(&e.src)
        + approx_id_bytes(&e.dst)
        + 24
        + e.label.len();
    for (k, v) in &e.properties {
        n += 48 + k.len() + approx_gvalue_bytes(v);
    }
    if let Some(p) = &e.provenance {
        n += 24 + p.len();
    }
    n
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
        let watermarks = Arc::new(RwLock::new(Watermarks {
            // Read before hook registration: every epoch at or below this
            // may contain unseen changes, and every commit after
            // registration is reported — no window is unaccounted for.
            floor: db.commit_epoch(),
            by_table: HashMap::new(),
        }));
        let cache = Arc::new(AdjCache {
            db: db.clone(),
            budget_bytes: budget_mb.saturating_mul(1024 * 1024),
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

    /// The per-table watermark a serve/populate decision would use now.
    fn watermark(&self, table: &str) -> u64 {
        self.watermarks.read().get(table)
    }

    /// Look up the adjacency of `ids` in segment `(et_idx, out)` for a
    /// query pinned at `epoch`. Returns one [`Probe`] per id, in order.
    /// Stale segments are dropped here (counted as invalidations), never
    /// served.
    pub fn lookup(&self, et_idx: usize, out: bool, ids: &[ElementId], epoch: u64) -> Vec<Probe> {
        let all_miss = |n: usize| (0..n).map(|_| Probe::Miss).collect::<Vec<_>>();
        let schema_gen = self.db.schema_generation();
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = (et_idx, out);
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
        let mut hits = 0u64;
        let probes: Vec<Probe> = ids
            .iter()
            .map(|id| match seg.span(id) {
                Some(refs) => {
                    hits += 1;
                    Probe::Hit(refs)
                }
                None => Probe::Miss,
            })
            .collect();
        self.registry.adj_cache_hits.add(hits);
        self.registry.adj_cache_misses.add(ids.len() as u64 - hits);
        probes
    }

    /// Populate from one unconstrained probe's result: `edges` is the
    /// complete adjacency of `probed_ids` in `table` for direction `out`,
    /// read at committed epoch `epoch`. No-op if a concurrent commit
    /// already made that state unservable.
    pub fn insert(
        &self,
        et_idx: usize,
        out: bool,
        table: &str,
        probed_ids: &[ElementId],
        edges: &[&Edge],
        epoch: u64,
    ) {
        self.insert_inner(et_idx, out, table, probed_ids, edges, epoch, false)
    }

    /// Populate from a full scan of `table`: like [`AdjCache::insert`],
    /// but the resulting segment is *complete* — sources not present are
    /// known to have empty adjacency, so they hit (with no edges) instead
    /// of missing. Replaces any existing segment.
    pub fn insert_complete(
        &self,
        et_idx: usize,
        out: bool,
        table: &str,
        edges: &[&Edge],
        epoch: u64,
    ) {
        // A full scan defines its own source universe.
        let mut seen: std::collections::HashSet<&ElementId> = std::collections::HashSet::new();
        let mut sources: Vec<ElementId> = Vec::new();
        for e in edges {
            let anchor = if out { &e.src } else { &e.dst };
            if seen.insert(anchor) {
                sources.push(anchor.clone());
            }
        }
        self.insert_inner(et_idx, out, table, &sources, edges, epoch, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn insert_inner(
        &self,
        et_idx: usize,
        out: bool,
        table: &str,
        probed_ids: &[ElementId],
        edges: &[&Edge],
        epoch: u64,
        complete: bool,
    ) {
        if self.budget_bytes == 0 {
            return;
        }
        let table = table.to_ascii_lowercase();
        let schema_gen = self.db.schema_generation();
        let wm = self.watermark(&table);
        if wm > epoch {
            // The table changed after this data was read; caching it
            // would serve a superseded state.
            return;
        }
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        let key = (et_idx, out);
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
        let seg = inner
            .segments
            .entry(key)
            .or_insert_with(|| Segment::new(table, epoch, schema_gen, complete));
        let before = if existed { seg.bytes } else { 0 };
        // Appending rows read at a different epoch is sound only because
        // wm <= min(built_epoch, epoch) — the table did not change
        // between the two states, so they are the same state.
        seg.built_epoch = seg.built_epoch.min(epoch);
        seg.last_used = tick;
        seg.append(probed_ids, out, edges);
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

    fn edge(src: i64, dst: i64, n: i64) -> Edge {
        let mut e = Edge::new(
            ElementId::Str(format!("e{src}-{dst}-{n}")),
            "knows",
            ElementId::Long(src),
            ElementId::Long(dst),
        );
        e.provenance = Some("knows".into());
        e
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

    fn hits_of(probes: &[Probe]) -> Vec<Option<Vec<Edge>>> {
        probes
            .iter()
            .map(|p| match p {
                Probe::Hit(refs) => Some(refs.iter().map(|r| r.materialize()).collect()),
                Probe::Miss => None,
            })
            .collect()
    }

    #[test]
    fn populate_then_hit_same_epoch() {
        let db = test_db();
        let (cache, _) = cache(&db, 4);
        let e1 = edge(1, 2, 0);
        let e2 = edge(1, 3, 1);
        let epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1), ElementId::Long(9)];
        cache.insert(0, true, "knows", &ids, &[&e1, &e2], epoch);
        let probes = cache.lookup(0, true, &ids, epoch);
        let hits = hits_of(&probes);
        assert_eq!(hits[0].as_ref().map(|v| v.len()), Some(2));
        assert_eq!(hits[0].as_ref().unwrap()[0], e1);
        assert_eq!(hits[0].as_ref().unwrap()[1], e2);
        // Probed id with no edges: cached as empty adjacency (a hit).
        assert_eq!(hits[1].as_ref().map(|v| v.len()), Some(0));
        // An unprobed id is a miss (segment is not complete).
        let probes = cache.lookup(0, true, &[ElementId::Long(5)], epoch);
        assert!(matches!(probes[0], Probe::Miss));
    }

    #[test]
    fn commit_to_cached_table_invalidates() {
        let db = test_db();
        let (cache, registry) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1)];
        cache.insert(0, true, "knows", &ids, &[&edge(1, 2, 0)], epoch);
        commit_touching(&db, "knows");
        let new_epoch = db.commit_epoch();
        let probes = cache.lookup(0, true, &ids, new_epoch);
        assert!(matches!(probes[0], Probe::Miss));
        let snap = registry.snapshot();
        assert_eq!(snap.adj_cache_invalidations, 1);
        assert_eq!(cache.segment_count(), 0);
    }

    #[test]
    fn commit_to_unrelated_table_keeps_segment() {
        let db = test_db();
        let (cache, _) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1)];
        cache.insert(0, true, "knows", &ids, &[&edge(1, 2, 0)], epoch);
        commit_touching(&db, "other");
        let probes = cache.lookup(0, true, &ids, db.commit_epoch());
        assert!(matches!(probes[0], Probe::Hit(_)));
    }

    #[test]
    fn old_snapshot_bypasses_without_dropping() {
        let db = test_db();
        let (cache, _) = cache(&db, 4);
        let old_epoch = db.commit_epoch();
        commit_touching(&db, "knows");
        let new_epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1)];
        cache.insert(0, true, "knows", &ids, &[&edge(1, 2, 0)], new_epoch);
        // A snapshot from before the commit must not see the newer state.
        let probes = cache.lookup(0, true, &ids, old_epoch);
        assert!(matches!(probes[0], Probe::Miss));
        // ... but the segment still serves current snapshots.
        let probes = cache.lookup(0, true, &ids, new_epoch);
        assert!(matches!(probes[0], Probe::Hit(_)));
        // And the old snapshot's results never populate over newer data.
        cache.insert(0, true, "knows", &[ElementId::Long(7)], &[], old_epoch);
        let probes = cache.lookup(0, true, &[ElementId::Long(7)], new_epoch);
        assert!(matches!(probes[0], Probe::Miss));
    }

    #[test]
    fn ddl_invalidates_via_schema_generation() {
        let db = test_db();
        let (cache, registry) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let ids = vec![ElementId::Long(1)];
        cache.insert(0, true, "knows", &ids, &[&edge(1, 2, 0)], epoch);
        db.execute("CREATE TABLE later (x BIGINT)").unwrap();
        let probes = cache.lookup(0, true, &ids, db.commit_epoch());
        assert!(matches!(probes[0], Probe::Miss));
        let snap = registry.snapshot();
        assert_eq!(snap.adj_cache_invalidations, 1);
    }

    #[test]
    fn complete_segment_hits_absent_sources_empty() {
        let db = test_db();
        let (cache, _) = cache(&db, 4);
        let epoch = db.commit_epoch();
        let e1 = edge(1, 2, 0);
        cache.insert_complete(0, true, "knows", &[&e1], epoch);
        let probes =
            cache.lookup(0, true, &[ElementId::Long(1), ElementId::Long(42)], epoch);
        let hits = hits_of(&probes);
        assert_eq!(hits[0].as_ref().map(|v| v.len()), Some(1));
        assert_eq!(hits[1].as_ref().map(|v| v.len()), Some(0));
    }

    #[test]
    fn budget_evicts_lru_segments() {
        let db = test_db();
        // A zero-MB budget disables caching outright.
        let (disabled, _) = cache(&db, 0);
        let epoch = db.commit_epoch();
        disabled.insert(0, true, "knows", &[ElementId::Long(1)], &[&edge(1, 2, 0)], epoch);
        assert_eq!(disabled.segment_count(), 0);

        // Tiny budgets evict whole segments, least recently used first.
        let registry = Arc::new(MetricsRegistry::default());
        let tight = AdjCache {
            db: db.clone(),
            budget_bytes: 16 * 1024,
            registry: registry.clone(),
            watermarks: Arc::new(RwLock::new(Watermarks {
                floor: db.commit_epoch(),
                by_table: HashMap::new(),
            })),
            inner: Mutex::new(CacheInner { segments: HashMap::new(), bytes: 0, tick: 0 }),
        };
        for et in 0..8usize {
            let ids: Vec<ElementId> = (0..16).map(ElementId::Long).collect();
            let edges: Vec<Edge> = (0..16).map(|i| edge(i, i + 1, i)).collect();
            let refs: Vec<&Edge> = edges.iter().collect();
            tight.insert(et, true, "knows", &ids, &refs, epoch);
        }
        assert!(tight.bytes() <= 16 * 1024);
        assert!(tight.segment_count() < 8);
        let snap = registry.snapshot();
        assert!(snap.adj_cache_evictions > 0, "{}", snap.adj_cache_evictions);
        // The most recently inserted segment survives.
        let probes = tight.lookup(7, true, &[ElementId::Long(0)], epoch);
        assert!(matches!(probes[0], Probe::Hit(_)));
    }

    #[test]
    fn csr_columns_stay_consistent_across_batches() {
        let db = test_db();
        let (cache, _) = cache(&db, 16);
        let epoch = db.commit_epoch();
        // Two population batches into the same segment.
        let batch1: Vec<Edge> = vec![edge(1, 2, 0), edge(1, 3, 1)];
        let refs1: Vec<&Edge> = batch1.iter().collect();
        cache.insert(0, true, "knows", &[ElementId::Long(1)], &refs1, epoch);
        let batch2: Vec<Edge> = vec![edge(4, 1, 2)];
        let refs2: Vec<&Edge> = batch2.iter().collect();
        cache.insert(0, true, "knows", &[ElementId::Long(4), ElementId::Long(5)], &refs2, epoch);
        let ids =
            vec![ElementId::Long(1), ElementId::Long(4), ElementId::Long(5), ElementId::Long(9)];
        let hits = hits_of(&cache.lookup(0, true, &ids, epoch));
        assert_eq!(hits[0].as_ref().unwrap().as_slice(), batch1.as_slice());
        assert_eq!(hits[1].as_ref().unwrap().as_slice(), batch2.as_slice());
        assert_eq!(hits[2].as_ref().map(|v| v.len()), Some(0));
        assert!(hits[3].is_none());
    }
}
