//! The `Database` facade: catalog, statement execution, transactions, and
//! snapshot management.
//!
//! Reads and writes meet here: writers allocate a *stamp*, mark versions in
//! the storage layer, and publish all their changes at once by finalizing
//! the stamp to a commit epoch under the commit lock. Readers either run at
//! "latest committed" (plain statements) or pin a [`Snapshot`] — a
//! registered commit epoch that guarantees every version it can see
//! survives until the snapshot is dropped (vacuum computes its horizon from
//! the registry). See `docs/CONSISTENCY.md` for the full model.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::checkpoint;
use crate::durability::{
    parse_frames, CrashHook, CrashPoint, Durability, DurabilityState, NetChange, Wal, WalRecord,
    WalTailResult, NO_FLOOR,
};
use crate::error::{DbError, DbResult};
use crate::func::TableFunction;
use crate::index::{IndexDef, RowId};
use crate::metrics::DbMetrics;
use crate::prepared::Prepared;
use crate::row::{Row, RowSet};
use crate::schema::TableSchema;
use crate::sql::ast::*;
use crate::sql::eval::{compile, eval_const, Cols, Compiled};
use crate::sql::exec::{execute_select, explain_select, matching_rows};
use crate::sql::parser::{parse_script, parse_statement};
use crate::sql::render;
use crate::storage::{ReadView, Table};
use crate::txn::{TxnState, UndoLog, UndoOp};
use crate::value::Value;

/// Committed-dead versions tolerated across all tables before a commit
/// triggers an automatic vacuum. Pure-insert bulk loads never create
/// garbage, so loading is unaffected.
const VACUUM_THRESHOLD: usize = 4096;

/// Registry of pinned snapshot epochs; vacuum's horizon is the minimum.
#[derive(Debug, Default)]
struct SnapshotTracker {
    active: Mutex<BTreeMap<u64, usize>>,
}

/// A pinned, committed database state.
///
/// Queries executed through [`Database::execute_prepared_at`] with this
/// snapshot see exactly the state as of its epoch, no matter how many
/// writers commit in the meantime. Clones share one registration — an
/// `Arc` bump, no lock — and the registration is released for garbage
/// collection when the last clone drops. The graph layer pins one
/// snapshot per traversal and shares clones with every parallel worker,
/// which is what makes multi-statement traversals anachronism-free.
#[derive(Clone)]
pub struct Snapshot {
    epoch: u64,
    /// The uncommitted-marker stamp this snapshot additionally sees (0 =
    /// none). Nonzero only for snapshots pinned inside a session
    /// transaction: the session's own uncommitted writes stay visible to
    /// its queries — including clones handed to parallel fan-out workers
    /// on other threads, which is exactly why the stamp rides the
    /// snapshot instead of a thread-local.
    stamp: u64,
    /// Held only for its drop (the tracker deregistration); never read.
    _guard: Arc<SnapshotGuard>,
}

/// The tracker registration backing a snapshot and all its clones;
/// deregisters exactly once, when the last clone drops.
struct SnapshotGuard {
    epoch: u64,
    tracker: Arc<SnapshotTracker>,
}

impl Snapshot {
    /// Wrap an epoch whose tracker count [`Database::snapshot`] has
    /// already incremented; the guard's drop performs the one decrement.
    fn register_preincremented(epoch: u64, stamp: u64, tracker: Arc<SnapshotTracker>) -> Snapshot {
        Snapshot { epoch, stamp, _guard: Arc::new(SnapshotGuard { epoch, tracker }) }
    }

    /// The commit epoch this snapshot is pinned to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The uncommitted-marker stamp this snapshot sees in addition to its
    /// epoch (0 outside session transactions).
    pub fn stamp(&self) -> u64 {
        self.stamp
    }
}

impl Drop for SnapshotGuard {
    fn drop(&mut self) {
        let mut active = self.tracker.active.lock();
        if let Some(n) = active.get_mut(&self.epoch) {
            *n -= 1;
            if *n == 0 {
                active.remove(&self.epoch);
            }
        }
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot").field("epoch", &self.epoch).finish()
    }
}

/// Per-statement write context: the stamp writes are marked with, and the
/// statement's undo records. A statement run inside an adopted transaction
/// joins its stamp and hands the records to its log when the statement
/// ends; a standalone statement gets a private stamp, committed (or rolled
/// back — statement atomicity) when the statement ends.
pub(crate) struct WriteCtx {
    stamp: u64,
    local: UndoLog,
}

/// A named view: a stored SELECT executed on reference.
///
/// Views are *non-materialized*: every reference re-runs the query against
/// current table contents. This is the mechanism behind the paper's
/// "surprising benefit" (Section 5) — derived edges defined as a view over
/// two edge tables stay automatically consistent with the base data.
#[derive(Debug, Clone)]
pub struct ViewDef {
    pub name: String,
    pub(crate) query: SelectStmt,
}

/// An embedded, thread-safe relational database.
///
/// Share it across threads with `Arc<Database>`; all methods take `&self`.
pub struct Database {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
    views: RwLock<BTreeMap<String, ViewDef>>,
    functions: RwLock<BTreeMap<String, Arc<dyn TableFunction>>>,
    /// Process-unique key of this database's thread adoptions (`ADOPTED`):
    /// unlike an address, it survives moves and is never reused.
    id: u64,
    /// Every open multi-statement transaction — sessions, SQL `BEGIN`s and
    /// `transaction()` closures — keyed by its stamp (a session's token).
    /// `None` marks an adopted entry: some thread is executing inside it
    /// right now, so commit/rollback/reap of a session must wait (they
    /// error with "busy" rather than block). A `BEGIN` or `transaction()`
    /// entry is adopted for its whole life. Any number may be open at once;
    /// writes race under the same first-writer-wins conflict rules as
    /// auto-commit units.
    txns: Mutex<HashMap<u64, Option<TxnState>>>,
    /// Serializes `transaction()` closures: a caller blocks here while
    /// another caller's closure runs, instead of losing a write conflict.
    txn_gate: Mutex<()>,
    /// Serializes commit publication so each commit gets a unique epoch and
    /// readers can never observe a half-finalized transaction at an epoch
    /// they are allowed to see.
    commit_lock: Mutex<()>,
    /// Highest published commit epoch (0 = empty database).
    commit_epoch: AtomicU64,
    /// Source of unique transaction stamps (never reused).
    next_stamp: AtomicU64,
    /// Bumped by every DDL statement; prepared statements and downstream
    /// template caches compare against it to detect stale plans.
    schema_gen: AtomicU64,
    snapshots: Arc<SnapshotTracker>,
    /// Approximate dead versions created since the last vacuum.
    garbage_hint: AtomicUsize,
    enforce_foreign_keys: AtomicBool,
    /// Every reporting counter of this database, shared with the
    /// durability layer, which records the WAL rows.
    metrics: Arc<DbMetrics>,
    /// WAL + checkpoint machinery; `None` for a purely in-memory database
    /// (and during recovery replay, which must not re-log itself).
    durability: Option<Arc<DurabilityState>>,
    /// Replication position when this database is a follower: the next
    /// primary WAL sequence [`Database::apply_wal_frames`] expects. Always
    /// 0 on a primary or standalone database.
    applied_wal_seq: AtomicU64,
    /// Observer for operational events (checkpoints, WAL rotations, txn
    /// conflicts). Installed by an embedding layer — reldb sits below the
    /// observability crates, so the event vocabulary lives here and the
    /// transport lives above.
    event_hook: RwLock<Option<DbEventHook>>,
    /// Data-change observers: each hook is told, inside the commit lock,
    /// which tables every published commit touched and at which epoch.
    /// Unlike the single `event_hook`, any number of change hooks may be
    /// registered (caches above the engine each add their own), and they
    /// are never replaced — holders capture weak state so a dropped
    /// consumer degenerates to a no-op.
    change_hooks: RwLock<Vec<ChangeHook>>,
}

/// Operational events a [`Database`] reports to an installed
/// `DbEventHook`. These are narrative ("a checkpoint just finished"),
/// not numeric — counters are rows of [`Database::metrics`].
#[derive(Debug, Clone)]
pub enum DbEvent {
    /// A checkpoint captured its `(epoch, WAL position)` pair and began
    /// serializing table data.
    CheckpointBegin { epoch: u64 },
    /// A checkpoint image was installed and its WAL prefix dropped.
    CheckpointEnd { epoch: u64, wall_nanos: u64 },
    /// The WAL was rewritten to start at `cut_seq` (prefix covered by the
    /// latest checkpoint dropped).
    WalRotation { cut_seq: u64 },
    /// A statement lost a write conflict to a concurrent transaction.
    TxnConflict { detail: String },
}

/// Callback for [`Database::set_event_hook`]. Runs synchronously on the
/// emitting thread; keep it cheap and never call back into the database.
pub(crate) type DbEventHook = Arc<dyn Fn(&DbEvent) + Send + Sync>;

/// Callback for [`Database::add_change_hook`]: `(epoch, touched_tables)`
/// for every published commit — both local commits and replicated WAL
/// applies. Table names are lowercased (catalog-key form). Runs
/// synchronously *inside the commit lock*, so invocations are totally
/// ordered by epoch; keep it cheap and never call back into the database.
pub(crate) type ChangeHook = Arc<dyn Fn(u64, &[String]) + Send + Sync>;

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.table_names())
            .field("views", &self.view_names())
            .finish()
    }
}

// --------------------------------------------------------- transactions
//
// Every multi-statement transaction lives in `Database::txns` and is
// *adopted* by the thread executing inside it: adoption parks its state in
// this thread-local, keyed by database, so reads (`current_stamp`) and
// writes (`begin_stmt_write`, `end_stmt_write`) find it here alone — no
// database-wide lock, no thread identity. The registry slot holds `None`
// while adopted, so ending a session observes "busy" instead of racing an
// in-flight request. A thread adopts at most one transaction per database.
thread_local! {
    static ADOPTED: RefCell<Vec<Adopted>> = const { RefCell::new(Vec::new()) };
}

static NEXT_DB_ID: AtomicU64 = AtomicU64::new(0);

/// Who adopted a transaction onto the thread, which decides how it ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Opener {
    /// [`Database::with_session_txn`]: parked again when the closure exits.
    Session,
    /// [`Database::transaction`]: settled when the closure exits.
    Closure,
    /// SQL `BEGIN`: adopted until `COMMIT`/`ROLLBACK` on the same thread.
    Begin,
}

struct Adopted {
    db: u64,
    opener: Opener,
    state: TxnState,
}

/// Ends a closure's adoption however the closure exits, including a panic:
/// a session goes back to its registry slot (intact for an explicit
/// rollback or the reaper), an unwound `transaction()` is rolled back.
/// After a normal `transaction()` return it finds nothing to do.
struct AdoptionGuard<'a> {
    db: &'a Database,
}

impl Drop for AdoptionGuard<'_> {
    fn drop(&mut self) {
        let Some(ad) = self.db.unadopt() else { return };
        let mut txns = self.db.txns.lock();
        match txns.get_mut(&ad.state.stamp) {
            Some(slot) if ad.opener == Opener::Session => *slot = Some(ad.state),
            // An unwound closure (or a session entry gone while adopted,
            // impossible through the public API): never strand markers.
            _ => {
                txns.remove(&ad.state.stamp);
                drop(txns);
                let _ = self.db.rollback_ops(ad.state.log, ad.state.stamp);
            }
        }
    }
}

impl Drop for Database {
    /// Free a `BEGIN` this thread left open on the dropped database.
    fn drop(&mut self) {
        let id = self.id;
        let _ = ADOPTED.try_with(|a| {
            if let Ok(mut adopted) = a.try_borrow_mut() {
                adopted.retain(|ad| ad.db != id);
            }
        });
    }
}

impl Database {
    pub fn new() -> Database {
        Database {
            tables: RwLock::new(BTreeMap::new()),
            views: RwLock::new(BTreeMap::new()),
            functions: RwLock::new(BTreeMap::new()),
            id: NEXT_DB_ID.fetch_add(1, Ordering::Relaxed),
            txns: Mutex::new(HashMap::new()),
            txn_gate: Mutex::new(()),
            commit_lock: Mutex::new(()),
            commit_epoch: AtomicU64::new(0),
            next_stamp: AtomicU64::new(0),
            schema_gen: AtomicU64::new(0),
            snapshots: Arc::new(SnapshotTracker::default()),
            garbage_hint: AtomicUsize::new(0),
            enforce_foreign_keys: AtomicBool::new(true),
            metrics: Arc::default(),
            durability: None,
            applied_wal_seq: AtomicU64::new(0),
            event_hook: RwLock::new(None),
            change_hooks: RwLock::new(Vec::new()),
        }
    }

    /// Install (or clear) the operational-event observer. At most one hook
    /// is active; installing replaces the previous one.
    pub fn set_event_hook(&self, hook: Option<DbEventHook>) {
        *self.event_hook.write() = hook;
    }

    /// Register a data-change observer (see `ChangeHook`). Hooks
    /// accumulate — every registered hook sees every published commit.
    pub fn add_change_hook(&self, hook: ChangeHook) {
        self.change_hooks.write().push(hook);
    }

    /// Notify every change hook of a published commit. Must be called with
    /// the commit lock held so notifications arrive in epoch order.
    fn notify_change(&self, epoch: u64, tables: &[String]) {
        let hooks = self.change_hooks.read();
        for h in hooks.iter() {
            h(epoch, tables);
        }
    }

    fn emit_event(&self, event: DbEvent) {
        let hook = self.event_hook.read().clone();
        if let Some(h) = hook {
            h(&event);
        }
    }

    /// Toggle foreign-key enforcement (disable for bulk loads).
    pub fn set_enforce_foreign_keys(&self, on: bool) {
        self.enforce_foreign_keys.store(on, Ordering::Relaxed);
    }

    /// This database's metric table: statement execution, vacuum,
    /// conflicts, WAL volume, checkpoints, recovery and fsync latency.
    pub fn metrics(&self) -> &DbMetrics {
        &self.metrics
    }

    // --------------------------------------------------- snapshots & epochs

    /// Pin the current committed state. Every query executed with this
    /// snapshot (via [`Database::execute_prepared_at`]) sees exactly this
    /// state; versions it can see are protected from vacuum until the
    /// snapshot (and all its clones) drop.
    pub fn snapshot(&self) -> Snapshot {
        let tracker = self.snapshots.clone();
        // Read the epoch *inside* the registry lock: vacuum computes its
        // horizon under the same lock, so a concurrent commit+vacuum can
        // never reclaim versions between our epoch read and registration.
        let mut active = tracker.active.lock();
        let epoch = self.commit_epoch.load(Ordering::Acquire);
        *active.entry(epoch).or_insert(0) += 1;
        drop(active);
        // A snapshot pinned while this thread has a transaction adopted
        // carries the txn's stamp, so pinned reads — including fan-out
        // clones — keep seeing the transaction's own uncommitted writes.
        Snapshot::register_preincremented(epoch, self.current_stamp(), tracker)
    }

    /// The highest published commit epoch.
    pub fn commit_epoch(&self) -> u64 {
        self.commit_epoch.load(Ordering::Acquire)
    }

    /// The vacuum horizon: the oldest epoch a registered snapshot still
    /// pins, or the current commit epoch when nothing is pinned. Versions
    /// dead before this epoch are reclaimable. Exposed as a gauge so
    /// operators can spot a stuck snapshot holding garbage alive.
    pub fn snapshot_horizon(&self) -> u64 {
        let active = self.snapshots.active.lock();
        let current = self.commit_epoch.load(Ordering::Acquire);
        active.keys().next().map_or(current, |&m| m.min(current))
    }

    /// Number of currently registered (live) snapshots, counting clones
    /// once per [`Database::snapshot`] call.
    pub fn active_snapshots(&self) -> usize {
        self.snapshots.active.lock().values().sum()
    }

    /// Monotone counter bumped by every DDL statement (CREATE/DROP of
    /// tables, views, indexes, and function registration). Prepared
    /// statements are stamped with it; executing a stale one re-prepares.
    pub fn schema_generation(&self) -> u64 {
        self.schema_gen.load(Ordering::Acquire)
    }

    fn bump_schema_generation(&self) {
        self.schema_gen.fetch_add(1, Ordering::AcqRel);
    }

    fn alloc_stamp(&self) -> u64 {
        self.next_stamp.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// The stamp of the transaction this thread has adopted, or 0
    /// (matching no uncommitted marker) — so a plain read never observes
    /// another thread's uncommitted writes.
    fn current_stamp(&self) -> u64 {
        self.adopted().map_or(0, |(_, stamp)| stamp)
    }

    /// The view plain (unpinned) statements read under: the highest
    /// *published* commit epoch plus the open transaction's own writes, if
    /// any. Reading at the published epoch — not "anything committed" —
    /// matters because `commit_ops` finalizes a multi-row transaction's
    /// markers one row at a time: a half-finalized epoch is above the
    /// published one and stays invisible until the atomic
    /// `commit_epoch.store`, so even plain statements observe whole
    /// transactions or none of them.
    fn read_view(&self) -> ReadView {
        ReadView { snap: self.commit_epoch.load(Ordering::Acquire), stamp: self.current_stamp() }
    }

    /// Reclaim committed-dead versions no registered snapshot can see.
    /// Runs automatically once enough garbage accumulates; callable
    /// directly for tests and maintenance. Returns versions reclaimed;
    /// every pass, whoever runs it, counts in the `vacuum_runs` and
    /// `vacuumed_versions` rows of [`Database::metrics`].
    pub fn vacuum(&self) -> usize {
        let mut horizon = {
            let active = self.snapshots.active.lock();
            let current = self.commit_epoch.load(Ordering::Acquire);
            active.keys().next().map_or(current, |&m| m.min(current))
        };
        if let Some(d) = &self.durability {
            // A running checkpoint serializes the version chains at its
            // capture epoch *outside* any lock; until its image is
            // installed, versions visible at that epoch must survive or a
            // crash right after would lose committed history on replay.
            horizon = horizon.min(d.checkpoint_floor.load(Ordering::Acquire));
        }
        let tables: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
        let reclaimed: usize = tables.iter().map(|t| t.vacuum(horizon)).sum();
        self.metrics.vacuum_runs.add(1);
        self.metrics.vacuumed_versions.add(reclaimed as u64);
        reclaimed
    }

    // ---------------------------------------------------------- durability

    /// Open (or create) a durable database at `dir` with
    /// [`Durability::Always`]. See [`Database::open_with`].
    pub fn open(dir: impl AsRef<std::path::Path>) -> DbResult<Database> {
        Self::open_with(dir, Durability::Always)
    }

    /// Open (or create) a durable database at `dir`.
    ///
    /// Recovery: load the latest installed checkpoint (if any), scan the
    /// WAL — truncating a torn or corrupt tail in place, it is never
    /// replayed — and re-apply every record past the checkpoint's
    /// coverage. Each replayed commit record advances the published epoch,
    /// so the recovered database always lands exactly on a commit-epoch
    /// boundary: a transaction whose record made it to the log in full is
    /// replayed whole, one whose record was cut off never happened.
    pub fn open_with(dir: impl AsRef<std::path::Path>, mode: Durability) -> DbResult<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| DbError::Io(format!("create data dir {}: {e}", dir.display())))?;
        let mut db = Database::new();

        let image = checkpoint::load(&dir)?;
        let (start_seq, ckpt_epoch) = match &image {
            Some(img) => (img.wal_seq, img.epoch),
            None => (0, 0),
        };
        if let Some(img) = image {
            db.restore_checkpoint(img)?;
        }
        let mut last_epoch = ckpt_epoch;

        // Scan (and scrub) the log even in `Off` mode — an operator can
        // downgrade durability without losing what an earlier run logged.
        let (wal, scan) = Wal::open(&dir.join("wal.log"), start_seq)?;

        // Replay with `db.durability` still `None`: nothing re-logs itself.
        let mut replayed = 0u64;
        for (seq, rec) in scan.records {
            if seq < start_seq {
                continue; // already folded into the checkpoint
            }
            match rec {
                WalRecord::Commit { epoch, changes } => {
                    for (table, rid, change) in changes {
                        let Some(t) = db.get_table(&table) else { continue };
                        match change {
                            NetChange::Put(row) => t.replay_put(rid, row, epoch),
                            NetChange::Del => t.replay_del(rid, epoch),
                        }
                    }
                    last_epoch = epoch;
                    replayed += 1;
                }
                WalRecord::Ddl { sql } => {
                    db.commit_epoch.store(last_epoch, Ordering::Release);
                    // A replayed statement that fails did so identically
                    // before the crash (the log reproduces the exact data
                    // state it ran against) and left no catalog change.
                    let _ = db.execute(&sql);
                }
            }
        }
        db.commit_epoch.store(last_epoch, Ordering::Release);

        // Replay applied raw version chains; build the derived structures
        // once at the end (this also absorbs CREATE INDEX statements that
        // were interleaved with the data records).
        for t in db.tables.read().values() {
            t.rebuild_indexes();
            t.recompute_bookkeeping();
        }

        // Keep the WAL handle in every mode. `Off` never appends, but a
        // checkpoint must still capture the file's real position and
        // rotate it — otherwise records already folded into a newer image
        // would sit on disk and be replayed on top of it next open,
        // silently reverting checkpointed data.
        let state = DurabilityState::new(dir, mode, Some(wal), db.metrics.clone());
        state.last_checkpoint_epoch.store(ckpt_epoch, Ordering::Relaxed);
        db.metrics.recovery_replayed_epochs.set(replayed);
        db.metrics.recovery_truncated_bytes.set(scan.truncated_bytes);
        db.durability = Some(Arc::new(state));
        Ok(db)
    }

    /// Install a checkpoint image into a fresh database: raw version
    /// loads, no WAL, no index maintenance (rebuilt after WAL replay).
    fn restore_checkpoint(&self, img: checkpoint::CheckpointImage) -> DbResult<()> {
        {
            let mut tables = self.tables.write();
            for ti in img.tables {
                let table = Table::new(ti.schema)?;
                for def in ti.secondary {
                    table.create_index(def)?; // empty table: trivially valid
                }
                table.ensure_slots(ti.slots as usize);
                for (rid, begin, row) in ti.rows {
                    table.load_version(rid, begin, row);
                }
                tables.insert(Self::key(&table.schema.name), Arc::new(table));
            }
        }
        let mut views = self.views.write();
        for (name, sql) in img.views {
            match parse_statement(&sql) {
                Ok(Stmt::Select(q)) => {
                    views.insert(Self::key(&name), ViewDef { name, query: *q });
                }
                _ => {
                    return Err(DbError::Io(format!("checkpoint view '{name}' failed to re-parse")))
                }
            }
        }
        self.commit_epoch.store(img.epoch, Ordering::Release);
        Ok(())
    }

    /// Write a checkpoint: serialize every table at the current published
    /// epoch, install the image atomically, and drop the WAL prefix it
    /// covers. Returns the epoch the image captured.
    ///
    /// Only the `(epoch, wal position, catalog)` capture runs under the
    /// commit lock; serialization proceeds concurrently with readers and
    /// writers, protected from vacuum by the checkpoint floor.
    pub fn checkpoint(&self) -> DbResult<u64> {
        let Some(d) = self.durability.clone() else {
            return Err(DbError::Unsupported(
                "checkpoint requires a durable database (Database::open)".into(),
            ));
        };
        let _gate = d.checkpoint_gate.lock();
        let started = std::time::Instant::now();
        let (epoch, wal_seq, wal_off, tables, views) = {
            let _commit = self.commit_lock.lock();
            let epoch = self.commit_epoch.load(Ordering::Acquire);
            let (wal_seq, wal_off) = d.capture_position();
            d.checkpoint_floor.store(epoch, Ordering::Release);
            let tables: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
            let views: Vec<ViewDef> = self.views.read().values().cloned().collect();
            (epoch, wal_seq, wal_off, tables, views)
        };
        // Lift the floor however this function exits — holding it past an
        // error would pin garbage forever.
        struct FloorGuard<'a>(&'a DurabilityState);
        impl Drop for FloorGuard<'_> {
            fn drop(&mut self) {
                self.0.checkpoint_floor.store(NO_FLOOR, Ordering::Release);
            }
        }
        let _floor = FloorGuard(&d);
        self.emit_event(DbEvent::CheckpointBegin { epoch });
        d.crash_gate(CrashPoint::CheckpointBegin)?;
        let mut images = Vec::with_capacity(tables.len());
        for t in &tables {
            let (slots, rows) = t.checkpoint_rows(epoch);
            images.push(checkpoint::TableImage {
                schema: t.schema.clone(),
                secondary: t.secondary_index_defs(),
                slots,
                rows,
            });
        }
        let view_images =
            views.iter().map(|v| (v.name.clone(), render::select_sql(&v.query))).collect();
        let image =
            checkpoint::CheckpointImage { epoch, wal_seq, tables: images, views: view_images };
        checkpoint::write(&d, &image)?;
        d.last_checkpoint_epoch.store(epoch, Ordering::Release);
        d.rotate(wal_seq, wal_off)?;
        self.emit_event(DbEvent::WalRotation { cut_seq: wal_seq });
        self.metrics.checkpoints.add(1);
        self.emit_event(DbEvent::CheckpointEnd {
            epoch,
            wall_nanos: started.elapsed().as_nanos() as u64,
        });
        Ok(epoch)
    }

    /// `true` when this database persists to a data directory.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Epoch of the last installed checkpoint (0 if none).
    pub fn last_checkpoint_epoch(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.last_checkpoint_epoch.load(Ordering::Relaxed))
    }

    /// Install (or clear) the crash-injection hook the recovery test
    /// harness uses to kill the durability layer at an exact I/O boundary.
    /// No-op for in-memory databases.
    pub fn set_crash_hook(&self, hook: Option<CrashHook>) {
        if let Some(d) = &self.durability {
            d.set_crash_hook(hook);
        }
    }

    /// Flush any buffered WAL bytes to disk (meaningful in `Batch` mode).
    pub fn sync_wal(&self) -> DbResult<()> {
        match &self.durability {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    /// Byte length of the WAL prefix known to be fsynced. In `Batch` mode
    /// this lags the appended length by up to `BATCH_SYNC_EVERY - 1`
    /// records; the durability-contract test truncates to it to simulate
    /// worst-case loss of the OS page cache.
    pub fn wal_synced_bytes(&self) -> u64 {
        self.durability.as_ref().map_or(0, |d| d.synced_len.load(Ordering::Acquire))
    }

    /// WAL fsyncs performed since open (0 on non-durable databases).
    pub fn wal_fsync_count(&self) -> u64 {
        self.metrics.wal_fsync.count()
    }

    // ---------------------------------------------------------- replication

    /// Primary side of log shipping: read committed WAL frames for a
    /// follower positioned at `from_seq` (see
    /// [`crate::durability::WalTailResult`] for the gap/bootstrap
    /// contract). `max_bytes` caps the returned frame bytes, always
    /// shipping at least one whole frame when any is available.
    pub fn wal_tail(&self, from_seq: u64, max_bytes: usize) -> DbResult<WalTailResult> {
        let Some(d) = &self.durability else {
            return Err(DbError::Unsupported(
                "wal tailing requires a durable database (Database::open)".into(),
            ));
        };
        d.tail_since(from_seq, max_bytes)
    }

    /// The installed checkpoint file verbatim (magic + crc + body), integrity
    /// verified — what the primary serves to a bootstrapping follower.
    /// `Ok(None)` when no checkpoint has been written yet.
    pub fn checkpoint_bytes(&self) -> DbResult<Option<Vec<u8>>> {
        let Some(d) = &self.durability else {
            return Err(DbError::Unsupported(
                "checkpoint shipping requires a durable database (Database::open)".into(),
            ));
        };
        checkpoint::verified_bytes(&d.dir)
    }

    /// Follower bootstrap: replace this database's entire state with a
    /// primary's checkpoint image and position the apply stream at the
    /// image's WAL sequence, which is returned.
    ///
    /// This is wholesale replacement, not an MVCC transition — it is the
    /// replica-side equivalent of a process restart, used both for first
    /// contact and for re-bootstrapping after the primary rotated past the
    /// follower's position. Requests racing a re-bootstrap observe it as
    /// such (tables swap under them); the schema generation is bumped so
    /// every cached plan re-prepares.
    pub fn install_checkpoint_image(&self, bytes: &[u8]) -> DbResult<u64> {
        let img = checkpoint::decode_file(bytes)?;
        let (epoch, wal_seq) = (img.epoch, img.wal_seq);
        let _commit = self.commit_lock.lock();
        self.tables.write().clear();
        self.views.write().clear();
        self.restore_checkpoint(img)?;
        for t in self.tables.read().values() {
            t.rebuild_indexes();
            t.recompute_bookkeeping();
        }
        self.commit_epoch.store(epoch, Ordering::Release);
        self.applied_wal_seq.store(wal_seq, Ordering::Release);
        self.bump_schema_generation();
        Ok(wal_seq)
    }

    /// Follower apply: decode a shipped run of WAL frames starting at
    /// `from_seq` (which must equal [`Database::applied_wal_seq`]) and
    /// apply each record through the same idempotent net-change path
    /// recovery replays, publishing each commit's epoch as it lands.
    /// Indexes and bookkeeping are maintained incrementally so concurrent
    /// readers stay consistent at every published epoch. Returns the
    /// number of records applied.
    pub fn apply_wal_frames(&self, from_seq: u64, frames: &[u8]) -> DbResult<u64> {
        let expected = self.applied_wal_seq.load(Ordering::Acquire);
        if from_seq != expected {
            return Err(DbError::Recovery(format!(
                "apply stream out of order: got frames at sequence {from_seq}, expected {expected}"
            )));
        }
        let records = parse_frames(frames, from_seq)?;
        let applied = records.len() as u64;
        for (_, rec) in records {
            match rec {
                WalRecord::Commit { epoch, changes } => {
                    // Same publication discipline as `commit_ops`: mutate
                    // version chains first, then advance the published
                    // epoch atomically, so a reader either sees the whole
                    // commit or none of it.
                    let _commit = self.commit_lock.lock();
                    let mut touched: Vec<String> = Vec::new();
                    for (table, rid, change) in changes {
                        let Some(t) = self.get_table(&table) else { continue };
                        match change {
                            NetChange::Put(row) => t.apply_put(rid, row, epoch),
                            NetChange::Del => t.apply_del(rid, epoch),
                        }
                        let key = Self::key(&table);
                        if !touched.contains(&key) {
                            touched.push(key);
                        }
                    }
                    self.commit_epoch.store(epoch, Ordering::Release);
                    if !self.change_hooks.read().is_empty() {
                        self.notify_change(epoch, &touched);
                    }
                }
                WalRecord::Ddl { sql } => {
                    // A replayed DDL that fails did so identically on the
                    // primary against the same data state (see recovery).
                    let _ = self.execute(&sql);
                }
            }
        }
        self.applied_wal_seq.store(from_seq + applied, Ordering::Release);
        Ok(applied)
    }

    /// The next primary WAL sequence this follower expects (0 when this
    /// database has never bootstrapped as a replica).
    pub fn applied_wal_seq(&self) -> u64 {
        self.applied_wal_seq.load(Ordering::Acquire)
    }

    // ------------------------------------------------------------- catalog

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    pub fn get_table(&self, name: &str) -> Option<Arc<Table>> {
        self.tables.read().get(&Self::key(name)).cloned()
    }

    pub fn get_view(&self, name: &str) -> Option<ViewDef> {
        self.views.read().get(&Self::key(name)).cloned()
    }

    pub(crate) fn get_function(&self, name: &str) -> Option<Arc<dyn TableFunction>> {
        self.functions.read().get(&Self::key(name)).cloned()
    }

    /// Register a polymorphic table function under a name.
    pub fn register_function(&self, name: &str, f: Arc<dyn TableFunction>) {
        self.functions.write().insert(Self::key(name), f);
        self.bump_schema_generation();
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().values().map(|t| t.schema.name.clone()).collect()
    }

    pub(crate) fn view_names(&self) -> Vec<String> {
        self.views.read().values().map(|v| v.name.clone()).collect()
    }

    /// Schemas of all base tables — the catalog metadata AutoOverlay reads.
    pub fn table_schemas(&self) -> Vec<TableSchema> {
        self.tables.read().values().map(|t| t.schema.clone()).collect()
    }

    /// Output column names of a view (executed against current data with
    /// LIMIT 0 semantics — we run the query and read the header).
    pub fn view_columns(&self, name: &str) -> DbResult<Vec<String>> {
        let view = self
            .get_view(name)
            .ok_or_else(|| DbError::Catalog(format!("view '{name}' not found")))?;
        let mut q = view.query.clone();
        q.limit = Some(0);
        Ok(execute_select(self, &q, &self.read_view(), &[])?.columns)
    }

    /// Create a table from a schema built in code.
    ///
    /// DDL is serialized with commit publication (the commit lock) so a
    /// checkpoint's `(catalog, epoch, wal position)` capture is atomic,
    /// and logged *before* it is applied — a logged statement that then
    /// fails does so identically on replay, where it is ignored.
    pub fn create_table(&self, schema: TableSchema) -> DbResult<()> {
        self.validate_foreign_keys(&schema)?;
        let table = Arc::new(Table::new(schema)?);
        let ddl = self.commit_lock.lock();
        let mut tables = self.tables.write();
        let key = Self::key(&table.schema.name);
        if tables.contains_key(&key) || self.views.read().contains_key(&key) {
            return Err(DbError::Catalog(format!("'{}' already exists", table.schema.name)));
        }
        self.log_ddl(render::create_table_sql(&table.schema))?;
        tables.insert(key, table);
        drop(tables);
        drop(ddl);
        self.bump_schema_generation();
        Ok(())
    }

    /// Append a DDL statement to the WAL (no-op for in-memory databases
    /// and during recovery replay, when `durability` is still unset).
    /// Callers hold the commit lock.
    fn log_ddl(&self, sql: String) -> DbResult<()> {
        match &self.durability {
            Some(d) => d.append(&WalRecord::Ddl { sql }),
            None => Ok(()),
        }
    }

    fn validate_foreign_keys(&self, schema: &TableSchema) -> DbResult<()> {
        for fk in &schema.foreign_keys {
            if fk.ref_table.eq_ignore_ascii_case(&schema.name) {
                continue; // self reference is checked against own columns
            }
            let target = self.get_table(&fk.ref_table).ok_or_else(|| {
                DbError::Catalog(format!(
                    "foreign key on '{}' references unknown table '{}'",
                    schema.name, fk.ref_table
                ))
            })?;
            for c in &fk.ref_columns {
                target.schema.require_column(c)?;
            }
        }
        Ok(())
    }

    // ----------------------------------------------------------- execution

    /// Parse and execute one SQL statement.
    pub fn execute(&self, sql: &str) -> DbResult<RowSet> {
        let stmt = parse_statement(sql)?;
        self.execute_stmt_at(&stmt, &[], None)
    }

    /// Execute every statement in a `;`-separated script; returns the last
    /// statement's result.
    pub fn execute_script(&self, sql: &str) -> DbResult<RowSet> {
        let stmts = parse_script(sql)?;
        let mut last = RowSet::default();
        for stmt in &stmts {
            last = self.execute_stmt_at(stmt, &[], None)?;
        }
        Ok(last)
    }

    /// Prepare a statement for repeated execution, stamped with the current
    /// catalog generation so DDL that runs later forces a transparent
    /// re-prepare instead of executing a stale plan.
    pub fn prepare(&self, sql: &str) -> DbResult<Prepared> {
        Ok(Prepared::new(sql)?.with_generation(self.schema_generation()))
    }

    /// Execute a previously prepared statement at latest-committed state.
    pub fn execute_prepared(&self, prepared: &Prepared, params: &[Value]) -> DbResult<RowSet> {
        self.execute_prepared_inner(prepared, params, None)
    }

    /// Execute a previously prepared statement pinned to a snapshot: every
    /// read sees exactly the committed state of `snap.epoch()`, no matter
    /// how many writers commit concurrently. DML statements still write at
    /// latest (a snapshot governs reads, not writes).
    pub fn execute_prepared_at(
        &self,
        prepared: &Prepared,
        params: &[Value],
        snap: &Snapshot,
    ) -> DbResult<RowSet> {
        self.execute_prepared_inner(prepared, params, Some(snap))
    }

    fn execute_prepared_inner(
        &self,
        prepared: &Prepared,
        params: &[Value],
        snap: Option<&Snapshot>,
    ) -> DbResult<RowSet> {
        prepared.check_arity(params)?;
        if prepared.is_stale(self.schema_generation()) {
            let fresh = Prepared::new(&prepared.sql)?;
            return self.execute_stmt_at(&fresh.stmt, params, snap);
        }
        self.execute_stmt_at(&prepared.stmt, params, snap)
    }

    /// Execute a parsed statement whose `?` parameters read `params`,
    /// recording result size and wall time into the metric table. Reads
    /// run against `snap` when given. Every statement kind runs here: the
    /// parsed text of [`Database::execute`] with no parameters, and a
    /// prepared statement, whose AST is shared, not copied.
    fn execute_stmt_at(
        &self,
        stmt: &Stmt,
        params: &[Value],
        snap: Option<&Snapshot>,
    ) -> DbResult<RowSet> {
        self.metrics.statements.add(1);
        let start = std::time::Instant::now();
        let result = self.execute_stmt_inner(stmt, params, snap);
        let rows = result.as_ref().map(|rs| rs.rows.len() as u64).unwrap_or(0);
        self.metrics.rows_returned.add(rows);
        self.metrics.exec_nanos.add(start.elapsed().as_nanos() as u64);
        if let Err(DbError::Txn(detail)) = &result {
            // `DbError::Txn` also covers BEGIN/COMMIT misuse; only genuine
            // write-write conflicts (see `Table::write_locked`) are events.
            if detail.contains("write-locked") {
                self.metrics.txn_conflicts.add(1);
                self.emit_event(DbEvent::TxnConflict { detail: detail.clone() });
            }
        }
        result
    }

    fn execute_stmt_inner(
        &self,
        stmt: &Stmt,
        params: &[Value],
        snap: Option<&Snapshot>,
    ) -> DbResult<RowSet> {
        match stmt {
            Stmt::Select(q) => {
                let view = match snap {
                    // The snapshot's stamp (nonzero inside a session
                    // transaction) keeps the transaction's own writes
                    // visible to its pinned reads.
                    Some(s) => ReadView { snap: s.epoch(), stamp: s.stamp() },
                    None => self.read_view(),
                };
                execute_select(self, q, &view, params)
            }
            Stmt::Explain(q) => {
                let lines = explain_select(self, q, params)?;
                Ok(RowSet::with_rows(
                    vec!["plan".into()],
                    lines.into_iter().map(|l| vec![Value::Varchar(l)]).collect(),
                ))
            }
            Stmt::CreateTable { schema, if_not_exists } => {
                match self.create_table(schema.clone()) {
                    Err(DbError::Catalog(_)) if *if_not_exists => {}
                    other => other?,
                }
                Ok(count_result(0))
            }
            Stmt::CreateIndex { name, table, columns, unique } => {
                let t = self.require_table(table)?;
                for c in columns {
                    t.schema.require_column(c)?; // cheap pre-check before logging
                }
                let def =
                    IndexDef { name: name.clone(), columns: columns.clone(), unique: *unique };
                let ddl = self.commit_lock.lock();
                // Log-then-apply: a unique violation after logging fails
                // identically on replay (replay reproduces the same data
                // state) and replayed DDL errors are ignored.
                self.log_ddl(render::create_index_sql(&t.schema.name, &def))?;
                t.create_index(def)?;
                drop(ddl);
                self.bump_schema_generation();
                Ok(count_result(0))
            }
            Stmt::CreateView { name, query, or_replace } => {
                let key = Self::key(name);
                if self.tables.read().contains_key(&key) {
                    return Err(DbError::Catalog(format!("'{name}' is a table")));
                }
                let ddl = self.commit_lock.lock();
                let mut views = self.views.write();
                if views.contains_key(&key) && !*or_replace {
                    return Err(DbError::Catalog(format!("view '{name}' already exists")));
                }
                self.log_ddl(render::create_view_sql(name, query))?;
                views.insert(key, ViewDef { name: name.clone(), query: (**query).clone() });
                drop(views);
                drop(ddl);
                self.bump_schema_generation();
                Ok(count_result(0))
            }
            Stmt::DropTable { name, if_exists } => {
                let ddl = self.commit_lock.lock();
                let mut tables = self.tables.write();
                let key = Self::key(name);
                if !tables.contains_key(&key) {
                    if *if_exists {
                        return Ok(count_result(0));
                    }
                    return Err(DbError::Catalog(format!("table '{name}' not found")));
                }
                self.log_ddl(format!("DROP TABLE {name}"))?;
                tables.remove(&key);
                drop(tables);
                drop(ddl);
                self.bump_schema_generation();
                Ok(count_result(0))
            }
            Stmt::DropView { name } => {
                let ddl = self.commit_lock.lock();
                let mut views = self.views.write();
                let key = Self::key(name);
                if !views.contains_key(&key) {
                    return Err(DbError::Catalog(format!("view '{name}' not found")));
                }
                self.log_ddl(format!("DROP VIEW {name}"))?;
                views.remove(&key);
                drop(views);
                drop(ddl);
                self.bump_schema_generation();
                Ok(count_result(0))
            }
            Stmt::DropIndex { name } => {
                let tables: Vec<Arc<Table>> = self.tables.read().values().cloned().collect();
                for t in tables {
                    if t.read().indexes().iter().any(|ix| ix.def.name.eq_ignore_ascii_case(name)) {
                        let ddl = self.commit_lock.lock();
                        self.log_ddl(format!("DROP INDEX {name}"))?;
                        t.drop_index(name)?;
                        drop(ddl);
                        self.bump_schema_generation();
                        return Ok(count_result(0));
                    }
                }
                Err(DbError::Catalog(format!("index '{name}' not found")))
            }
            Stmt::Insert { table, columns, values } => {
                self.run_insert(table, columns, values, params)
            }
            Stmt::Update { table, sets, where_clause } => {
                self.run_update(table, sets, where_clause.as_ref(), params)
            }
            Stmt::Delete { table, where_clause } => {
                self.run_delete(table, where_clause.as_ref(), params)
            }
            Stmt::Begin => match self.adopted() {
                None => {
                    self.begin_adopted(Opener::Begin);
                    Ok(count_result(0))
                }
                Some((Opener::Session, _)) => {
                    Err(DbError::Txn("BEGIN is not allowed inside a session transaction".into()))
                }
                Some(_) => Err(DbError::Txn("transaction already in progress".into())),
            },
            Stmt::Commit => {
                let st = self.end_begun_txn("COMMIT")?;
                self.settle(st.log, st.stamp, Ok(count_result(0)))
            }
            Stmt::Rollback => {
                let st = self.end_begun_txn("ROLLBACK")?;
                self.rollback_ops(st.log, st.stamp)?;
                Ok(count_result(0))
            }
        }
    }

    /// Detach the transaction SQL `BEGIN` adopted onto this thread, for
    /// `COMMIT`/`ROLLBACK`. Refused inside a closure-scoped transaction:
    /// the closure's owner ends it.
    fn end_begun_txn(&self, verb: &str) -> DbResult<TxnState> {
        let refusal = match self.end_adopted(Opener::Begin) {
            Ok(st) => return Ok(st),
            Err(None) => "no transaction in progress".to_string(),
            Err(Some(Opener::Session)) => format!(
                "{verb} is not allowed inside a session transaction; end the session instead"
            ),
            Err(Some(_)) => format!(
                "{verb} is not allowed inside transaction(); return from the closure instead"
            ),
        };
        Err(DbError::Txn(refusal))
    }

    /// Render the execution plan of a SELECT.
    pub fn explain(&self, sql: &str) -> DbResult<String> {
        match parse_statement(sql)? {
            Stmt::Select(q) | Stmt::Explain(q) => Ok(explain_select(self, &q, &[])?.join("\n")),
            _ => Err(DbError::Unsupported("EXPLAIN supports SELECT only".into())),
        }
    }

    /// Run `f` inside a transaction: committed on `Ok`, rolled back on `Err`.
    ///
    /// Concurrent `transaction()` callers from other threads *block* on an
    /// internal gate and run one after another instead of erroring, so
    /// multi-threaded writers can all use this safely. (The gate does not
    /// cover SQL `BEGIN` or sessions: those settle write conflicts
    /// first-writer-wins.) A re-entrant call from a thread that already has
    /// a transaction adopted (including an open SQL `BEGIN`) errors.
    pub fn transaction<T>(&self, f: impl FnOnce(&Database) -> DbResult<T>) -> DbResult<T> {
        // Checked before the gate, which this thread may itself be holding.
        if self.in_transaction() {
            return Err(DbError::Txn("transaction already in progress".into()));
        }
        let _gate = self.txn_gate.lock();
        self.begin_adopted(Opener::Closure);
        let _unwind = AdoptionGuard { db: self };
        let result = f(self);
        match self.end_adopted(Opener::Closure) {
            Ok(st) => self.settle(st.log, st.stamp, result),
            Err(_) => result,
        }
    }

    /// True while this thread has a transaction open on this database: a
    /// SQL `BEGIN` awaiting `COMMIT`/`ROLLBACK`, or inside a
    /// [`Database::transaction`] or [`Database::with_session_txn`] closure.
    pub fn in_transaction(&self) -> bool {
        self.adopted().is_some()
    }

    // ------------------------------------------------------------ adoption

    /// Opener and stamp of the transaction this thread has adopted on this
    /// database, if any.
    fn adopted(&self) -> Option<(Opener, u64)> {
        ADOPTED.with(|a| {
            let adopted = a.borrow();
            adopted.iter().find(|ad| ad.db == self.id).map(|ad| (ad.opener, ad.state.stamp))
        })
    }

    /// Detach this thread's adoption on this database, whoever opened it.
    fn unadopt(&self) -> Option<Adopted> {
        ADOPTED.with(|a| {
            let mut adopted = a.borrow_mut();
            let i = adopted.iter().position(|ad| ad.db == self.id)?;
            Some(adopted.swap_remove(i))
        })
    }

    /// Begin a transaction adopted onto this thread from birth.
    fn begin_adopted(&self, opener: Opener) {
        let stamp = self.alloc_stamp();
        self.txns.lock().insert(stamp, None);
        let state = TxnState::new(stamp);
        ADOPTED.with(|a| a.borrow_mut().push(Adopted { db: self.id, opener, state }));
    }

    /// End this thread's adoption on this database and unregister the
    /// transaction for the caller to settle — provided `opener` opened it.
    /// Otherwise the adoption stays and the error names its opener (`None`:
    /// nothing adopted).
    fn end_adopted(&self, opener: Opener) -> Result<TxnState, Option<Opener>> {
        let found = self.adopted().map(|(o, _)| o);
        if found != Some(opener) {
            return Err(found);
        }
        let ad = self.unadopt().ok_or(None)?;
        self.txns.lock().remove(&ad.state.stamp);
        Ok(ad.state)
    }

    // ------------------------------------------------ session transactions

    /// Begin a session transaction: one that lives *between* calls in the
    /// registry rather than adopted by one thread, so a network session
    /// can stretch a single transaction across requests served by
    /// different worker threads. Returns the token (== the transaction's
    /// stamp) naming it for [`Database::with_session_txn`] /
    /// [`Database::commit_session_txn`] /
    /// [`Database::rollback_session_txn`]. Any number may be open
    /// concurrently; conflicting writers settle first-writer-wins.
    pub fn begin_session_txn(&self) -> u64 {
        let stamp = self.alloc_stamp();
        self.txns.lock().insert(stamp, Some(TxnState::new(stamp)));
        stamp
    }

    /// Run `f` with session transaction `token` adopted onto this thread:
    /// statements `f` executes join the session's transaction — its reads
    /// see the session's uncommitted writes, its writes land in the
    /// session's undo log. Errors if the token is unknown (already
    /// committed, rolled back, or reaped), if the session is busy on
    /// another thread, or if this thread already has a transaction open on
    /// this database (no nesting).
    pub fn with_session_txn<R>(&self, token: u64, f: impl FnOnce(&Database) -> R) -> DbResult<R> {
        if self.in_transaction() {
            return Err(DbError::Txn(
                "cannot adopt a session transaction inside another transaction".into(),
            ));
        }
        let state = match self.txns.lock().get_mut(&token) {
            None => return Err(DbError::Txn(format!("no session transaction {token}"))),
            Some(slot) => slot.take().ok_or_else(|| {
                DbError::Txn(format!("session transaction {token} is busy on another thread"))
            })?,
        };
        let opener = Opener::Session;
        ADOPTED.with(|a| a.borrow_mut().push(Adopted { db: self.id, opener, state }));
        let _park = AdoptionGuard { db: self };
        Ok(f(self))
    }

    /// Remove session transaction `token` from the registry for
    /// commit/rollback/reap. Errors if unknown or currently adopted by an
    /// in-flight request — ending a session never races its own work.
    fn take_session_txn(&self, token: u64, verb: &str) -> DbResult<TxnState> {
        let mut map = self.txns.lock();
        match map.get(&token) {
            None => Err(DbError::Txn(format!("no session transaction {token}"))),
            Some(None) => Err(DbError::Txn(format!(
                "{verb}: session transaction {token} is busy on another thread"
            ))),
            Some(Some(_)) => Ok(map.remove(&token).flatten().expect("checked above")),
        }
    }

    /// Commit session transaction `token`, publishing its writes as one
    /// atomic epoch. On a commit failure the writes are rolled back — the
    /// session is over either way.
    pub fn commit_session_txn(&self, token: u64) -> DbResult<()> {
        let st = self.take_session_txn(token, "commit")?;
        self.settle(st.log, st.stamp, Ok(()))
    }

    /// Roll back session transaction `token`, undoing every write it made.
    pub fn rollback_session_txn(&self, token: u64) -> DbResult<()> {
        let st = self.take_session_txn(token, "rollback")?;
        self.rollback_ops(st.log, st.stamp)
    }

    /// Number of open registry transactions: sessions (parked or adopted)
    /// plus open SQL `BEGIN`s and running `transaction()` closures.
    #[cfg(test)]
    pub(crate) fn session_txn_count(&self) -> usize {
        self.txns.lock().len()
    }

    /// Publish a transaction's writes: under the commit lock, seal the
    /// transaction's net changes into the WAL, finalize the stamp markers
    /// of every touched version to one freshly allocated epoch, then
    /// advance the published epoch. Readers observe either the whole
    /// transaction or none of it.
    ///
    /// The WAL append happens strictly *before* any finalization: if it
    /// fails (an I/O error, or a crash injected by the test harness),
    /// nothing has been published and the caller rolls the stamp markers
    /// back — the database and the log stay consistent.
    fn commit_ops(&self, log: &UndoLog, stamp: u64) -> DbResult<()> {
        if log.is_empty() {
            return Ok(());
        }
        {
            let _commit = self.commit_lock.lock();
            let epoch = self.commit_epoch.load(Ordering::Acquire) + 1;
            if let Some(d) = &self.durability {
                let mut seen: HashSet<(&str, RowId)> = HashSet::new();
                let mut changes = Vec::new();
                for op in log.ops() {
                    if !seen.insert((op.table(), op.rid())) {
                        continue;
                    }
                    if let Some(t) = self.get_table(op.table()) {
                        if let Some(change) = t.net_change(op.rid(), stamp) {
                            changes.push((op.table().to_string(), op.rid(), change));
                        }
                    }
                }
                d.append(&WalRecord::Commit { epoch, changes })?;
            }
            let mut seen: HashSet<(&str, RowId)> = HashSet::new();
            for op in log.ops() {
                if !seen.insert((op.table(), op.rid())) {
                    continue; // a multi-update chain finalizes in one pass
                }
                if let Some(t) = self.get_table(op.table()) {
                    t.finalize_stamp(op.rid(), stamp, epoch);
                }
            }
            self.commit_epoch.store(epoch, Ordering::Release);
            if !self.change_hooks.read().is_empty() {
                let mut touched: Vec<String> = Vec::new();
                for op in log.ops() {
                    let key = Self::key(op.table());
                    if !touched.contains(&key) {
                        touched.push(key);
                    }
                }
                self.notify_change(epoch, &touched);
            }
        }
        let garbage = log.ops().iter().filter(|op| op.creates_garbage()).count();
        if garbage > 0
            && self.garbage_hint.fetch_add(garbage, Ordering::Relaxed) + garbage >= VACUUM_THRESHOLD
        {
            self.garbage_hint.store(0, Ordering::Relaxed);
            self.vacuum();
        }
        Ok(())
    }

    /// Undo a transaction's writes, most recent first. A per-op failure
    /// does not stop the walk: every remaining record still settles its own
    /// independent marker (bailing early would strand them as permanent
    /// uncommitted markers — rows invisible forever). The first failure is
    /// reported after the whole log is drained.
    fn rollback_ops(&self, mut log: UndoLog, stamp: u64) -> DbResult<()> {
        let mut first_err: Option<DbError> = None;
        for op in log.drain_reverse() {
            let result = match self.get_table(op.table()) {
                None => Err(DbError::Txn(format!("rollback: table '{}' missing", op.table()))),
                Some(t) => match &op {
                    UndoOp::Insert { rid, .. } => t.rollback_insert(*rid, stamp),
                    UndoOp::Delete { rid, .. } => t.rollback_delete(*rid, stamp),
                    UndoOp::Update { rid, .. } => t.rollback_update(*rid, stamp),
                },
            };
            if let Err(e) = result {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Roll back a failed unit's log while preserving the unit's original
    /// error; a rollback failure is attached to its message rather than
    /// replacing it.
    fn rollback_preserving(&self, log: UndoLog, stamp: u64, err: DbError) -> DbError {
        match self.rollback_ops(log, stamp) {
            Ok(()) => err,
            Err(rb) => DbError::Txn(format!("{err}; rollback also failed: {rb}")),
        }
    }

    /// Commit `log` when `result` is `Ok`, roll it back when it is `Err`
    /// or the commit itself fails; the caller's value or error passes
    /// through.
    fn settle<T>(&self, log: UndoLog, stamp: u64, result: DbResult<T>) -> DbResult<T> {
        match result {
            Ok(v) => match self.commit_ops(&log, stamp) {
                Ok(()) => Ok(v),
                Err(e) => Err(self.rollback_preserving(log, stamp, e)),
            },
            Err(e) => Err(self.rollback_preserving(log, stamp, e)),
        }
    }

    /// Open the write context for one DML statement: join the transaction
    /// this thread has adopted if any, otherwise start an auto-commit unit
    /// with a fresh stamp.
    fn begin_stmt_write(&self) -> WriteCtx {
        let stamp = self.adopted().map_or_else(|| self.alloc_stamp(), |(_, stamp)| stamp);
        WriteCtx { stamp, local: UndoLog::default() }
    }

    /// Close the statement's write context. A statement that joined an
    /// adopted transaction hands its undo records to that transaction's
    /// log, to be settled with the rest. Any other unit — auto-commit, or
    /// one whose transaction ended mid-statement — commits on success and
    /// rolls back on failure, so a multi-row INSERT that fails half-way
    /// leaves nothing behind (statement atomicity).
    fn end_stmt_write<T>(&self, ctx: WriteCtx, result: DbResult<T>) -> DbResult<T> {
        let WriteCtx { stamp, local } = ctx;
        let unowned = ADOPTED.with(|a| {
            let mut adopted = a.borrow_mut();
            match adopted.iter_mut().find(|ad| ad.db == self.id && ad.state.stamp == stamp) {
                Some(ad) => {
                    ad.state.log.append(local);
                    None
                }
                None => Some(local),
            }
        });
        match unowned {
            Some(log) => self.settle(log, stamp, result),
            None => result,
        }
    }

    fn require_table(&self, name: &str) -> DbResult<Arc<Table>> {
        self.get_table(name).ok_or_else(|| DbError::Catalog(format!("table '{name}' not found")))
    }

    // ---------------------------------------------------------------- DML

    fn run_insert(
        &self,
        table: &str,
        columns: &Option<Vec<String>>,
        values: &[Vec<Expr>],
        params: &[Value],
    ) -> DbResult<RowSet> {
        let t = self.require_table(table)?;
        let positions: Vec<usize> = match columns {
            Some(cols) => {
                cols.iter().map(|c| t.schema.require_column(c)).collect::<DbResult<_>>()?
            }
            None => (0..t.schema.columns.len()).collect(),
        };
        let mut ctx = self.begin_stmt_write();
        let result = (|| {
            let mut n = 0i64;
            for exprs in values {
                if exprs.len() != positions.len() {
                    return Err(DbError::Type(format!(
                        "INSERT expects {} values per row, got {}",
                        positions.len(),
                        exprs.len()
                    )));
                }
                let mut row: Row = vec![Value::Null; t.schema.columns.len()];
                for (pos, e) in positions.iter().zip(exprs) {
                    row[*pos] = eval_const(e, params)?;
                }
                self.insert_row_ctx(&t, row, &mut ctx)?;
                n += 1;
            }
            Ok(count_result(n))
        })();
        self.end_stmt_write(ctx, result)
    }

    /// Insert a positional row directly (programmatic API used by loaders).
    /// Auto-commits unless the calling thread has a transaction open.
    pub fn insert_row(&self, table: &Arc<Table>, row: Row) -> DbResult<usize> {
        let mut ctx = self.begin_stmt_write();
        let result = self.insert_row_ctx(table, row, &mut ctx);
        self.end_stmt_write(ctx, result)
    }

    fn insert_row_ctx(&self, table: &Arc<Table>, row: Row, ctx: &mut WriteCtx) -> DbResult<usize> {
        if self.enforce_foreign_keys.load(Ordering::Relaxed) {
            self.check_foreign_keys(table, &row, ReadView::latest(ctx.stamp))?;
        }
        let rid = table.insert(row, ctx.stamp)?;
        ctx.local.record(UndoOp::Insert { table: table.schema.name.clone(), rid });
        Ok(rid)
    }

    fn check_foreign_keys(&self, table: &Arc<Table>, row: &Row, view: ReadView) -> DbResult<()> {
        for fk in &table.schema.foreign_keys {
            let vals: Vec<Value> = fk
                .columns
                .iter()
                .map(|c| table.schema.require_column(c).map(|i| row[i].clone()))
                .collect::<DbResult<_>>()?;
            if vals.iter().any(Value::is_null) {
                continue;
            }
            let target = if fk.ref_table.eq_ignore_ascii_case(&table.schema.name) {
                table.clone()
            } else {
                self.require_table(&fk.ref_table)?
            };
            let guard = target.read();
            let positions: Vec<usize> = fk
                .ref_columns
                .iter()
                .map(|c| target.schema.require_column(c))
                .collect::<DbResult<_>>()?;
            let found = if let Some(ix) = guard.find_index(&fk.ref_columns) {
                // Index entries may be stale under versioned storage, so
                // verify each candidate against the row it resolves to.
                ix.lookup_eq(&vals).iter().any(|&rid| {
                    guard.row_at(rid, &view).is_some_and(|r| {
                        positions.iter().zip(&vals).all(|(&p, v)| r[p].sql_eq(v) == Some(true))
                    })
                })
            } else {
                // No index on the referenced columns: scan.
                guard.iter_at(view).any(|(_, r)| {
                    positions.iter().zip(&vals).all(|(&p, v)| r[p].sql_eq(v) == Some(true))
                })
            };
            if !found {
                return Err(DbError::Constraint(format!(
                    "foreign key violation: {}({}) -> {}({})",
                    table.schema.name,
                    fk.columns.join(","),
                    fk.ref_table,
                    fk.ref_columns.join(",")
                )));
            }
        }
        Ok(())
    }

    fn run_update(
        &self,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
        params: &[Value],
    ) -> DbResult<RowSet> {
        let t = self.require_table(table)?;
        let cols = Cols::Table(&t.schema.name, &t.schema);
        let set_positions: Vec<usize> =
            sets.iter().map(|(c, _)| t.schema.require_column(c)).collect::<DbResult<_>>()?;
        let set_exprs: Vec<Compiled<'_>> =
            sets.iter().map(|(_, e)| compile(e, cols, params)).collect();
        let mut ctx = self.begin_stmt_write();
        let result = (|| {
            let view = ReadView::latest(ctx.stamp);
            let matches = matching_rows(self, &t, where_clause, &view, params)?;
            let mut n = 0i64;
            for (rid, row) in matches {
                let mut new_row = row.clone();
                for (pos, e) in set_positions.iter().zip(&set_exprs) {
                    new_row[*pos] = e.eval(&row)?.into_owned();
                }
                t.update(rid, new_row, ctx.stamp)?;
                ctx.local.record(UndoOp::Update { table: t.schema.name.clone(), rid });
                n += 1;
            }
            Ok(count_result(n))
        })();
        self.end_stmt_write(ctx, result)
    }

    fn run_delete(
        &self,
        table: &str,
        where_clause: Option<&Expr>,
        params: &[Value],
    ) -> DbResult<RowSet> {
        let t = self.require_table(table)?;
        let mut ctx = self.begin_stmt_write();
        let result = (|| {
            let view = ReadView::latest(ctx.stamp);
            let matches = matching_rows(self, &t, where_clause, &view, params)?;
            let mut n = 0i64;
            for (rid, _) in matches {
                t.delete(rid, ctx.stamp)?;
                ctx.local.record(UndoOp::Delete { table: t.schema.name.clone(), rid });
                n += 1;
            }
            Ok(count_result(n))
        })();
        self.end_stmt_write(ctx, result)
    }
}

fn count_result(n: i64) -> RowSet {
    RowSet::with_rows(vec!["count".into()], vec![vec![Value::Bigint(n)]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    fn setup() -> Database {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, address VARCHAR, subscriptionID BIGINT);
             CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, conceptName VARCHAR);
             CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR,
                FOREIGN KEY (patientID) REFERENCES Patient(patientID),
                FOREIGN KEY (diseaseID) REFERENCES Disease(diseaseID));
             INSERT INTO Patient VALUES (1, 'Alice', '12 Oak St', 100), (2, 'Bob', '9 Elm St', 101), (3, 'Carol', NULL, NULL);
             INSERT INTO Disease VALUES (10, 'E11', 'type 2 diabetes'), (11, 'E10', 'type 1 diabetes'), (12, 'E08', 'diabetes');
             INSERT INTO HasDisease VALUES (1, 10, 'diagnosed 2019'), (2, 11, NULL), (1, 11, NULL);",
        )
        .unwrap();
        db
    }

    #[test]
    fn select_with_filter_and_projection() {
        let db = setup();
        let rs = db.execute("SELECT name FROM Patient WHERE patientID = 1").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("Alice".into())));
        let rs = db
            .execute("SELECT patientID, name FROM Patient WHERE name LIKE '%o%' ORDER BY patientID")
            .unwrap();
        assert_eq!(rs.len(), 2); // Bob, Carol
    }

    #[test]
    fn join_and_aggregate() {
        let db = setup();
        let rs = db
            .execute(
                "SELECT p.name, COUNT(*) AS n FROM Patient p JOIN HasDisease h ON p.patientID = h.patientID GROUP BY p.name ORDER BY n DESC",
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.get(0, "name"), Some(&Value::Varchar("Alice".into())));
        assert_eq!(rs.get(0, "n"), Some(&Value::Bigint(2)));
    }

    #[test]
    fn aggregate_over_empty_input_yields_one_row() {
        let db = setup();
        let rs = db.execute("SELECT COUNT(*) FROM Patient WHERE patientID = 999").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(0)));
        let rs =
            db.execute("SELECT SUM(subscriptionID) FROM Patient WHERE patientID = 999").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Null));
    }

    #[test]
    fn foreign_keys_enforced_and_toggleable() {
        let db = setup();
        let err = db.execute("INSERT INTO HasDisease VALUES (99, 10, NULL)").unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)), "{err}");
        db.set_enforce_foreign_keys(false);
        db.execute("INSERT INTO HasDisease VALUES (99, 10, NULL)").unwrap();
    }

    #[test]
    fn update_delete_and_counts() {
        let db = setup();
        let rs =
            db.execute("UPDATE Patient SET address = 'moved' WHERE patientID IN (1, 2)").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(2)));
        let rs = db.execute("SELECT COUNT(*) FROM Patient WHERE address = 'moved'").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(2)));
        let rs = db.execute("DELETE FROM HasDisease WHERE description IS NULL").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(2)));
    }

    #[test]
    fn explicit_transaction_rollback_restores_state() {
        let db = setup();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO Patient VALUES (4, 'Dan', NULL, NULL)").unwrap();
        db.execute("UPDATE Patient SET name = 'Alicia' WHERE patientID = 1").unwrap();
        db.execute("DELETE FROM HasDisease WHERE patientID = 2").unwrap();
        db.execute("ROLLBACK").unwrap();
        let rs = db.execute("SELECT COUNT(*) FROM Patient").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(3)));
        let rs = db.execute("SELECT name FROM Patient WHERE patientID = 1").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("Alice".into())));
        let rs = db.execute("SELECT COUNT(*) FROM HasDisease WHERE patientID = 2").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(1)));
    }

    #[test]
    fn transaction_closure_rolls_back_on_error() {
        let db = setup();
        let res: DbResult<()> = db.transaction(|db| {
            db.execute("INSERT INTO Patient VALUES (5, 'Eve', NULL, NULL)")?;
            Err(DbError::Execution("boom".into()))
        });
        assert!(res.is_err());
        let rs = db.execute("SELECT COUNT(*) FROM Patient WHERE patientID = 5").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(0)));
        // And commits on success.
        db.transaction(|db| db.execute("INSERT INTO Patient VALUES (5, 'Eve', NULL, NULL)"))
            .unwrap();
        let rs = db.execute("SELECT COUNT(*) FROM Patient WHERE patientID = 5").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(1)));
    }

    #[test]
    fn views_reflect_updates_immediately() {
        let db = setup();
        db.execute(
            "CREATE VIEW Diabetics AS SELECT p.patientID AS pid, p.name AS pname FROM Patient p JOIN HasDisease h ON p.patientID = h.patientID WHERE h.diseaseID = 10",
        )
        .unwrap();
        let rs = db.execute("SELECT pname FROM Diabetics").unwrap();
        assert_eq!(rs.len(), 1);
        db.execute("INSERT INTO HasDisease VALUES (2, 10, NULL)").unwrap();
        let rs = db.execute("SELECT pname FROM Diabetics ORDER BY pid").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.get(1, "pname"), Some(&Value::Varchar("Bob".into())));
    }

    #[test]
    fn prepared_statement_roundtrip() {
        let db = setup();
        let p = db.prepare("SELECT name FROM Patient WHERE patientID = ?").unwrap();
        let rs = db.execute_prepared(&p, &[Value::Bigint(2)]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("Bob".into())));
        let rs = db.execute_prepared(&p, &[Value::Bigint(3)]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("Carol".into())));
    }

    #[test]
    fn explain_shows_index_probe_vs_scan() {
        let db = setup();
        let plan = db.explain("SELECT * FROM Patient WHERE patientID = 1").unwrap();
        assert!(plan.contains("INDEX-EQ"), "{plan}");
        let plan = db.explain("SELECT * FROM Patient WHERE name = 'Alice'").unwrap();
        assert!(plan.contains("SCAN"), "{plan}");
        db.execute("CREATE INDEX ix_name ON Patient (name)").unwrap();
        let plan = db.explain("SELECT * FROM Patient WHERE name = 'Alice'").unwrap();
        assert!(plan.contains("INDEX-EQ"), "{plan}");
    }

    #[test]
    fn table_function_in_sql() {
        let db = setup();
        db.register_function(
            "pair_maker",
            Arc::new(|args: &[Value], _cols: &[(String, DataType)]| -> DbResult<RowSet> {
                let n = args[0].as_i64()?;
                Ok(RowSet::with_rows(
                    vec!["a".into(), "b".into()],
                    (0..n).map(|i| vec![Value::Bigint(i), Value::Bigint(i * i)]).collect(),
                ))
            }),
        );
        let rs = db
            .execute("SELECT b FROM TABLE(pair_maker(4)) AS t (a BIGINT, b BIGINT) WHERE a >= 2 ORDER BY a")
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Bigint(4)], vec![Value::Bigint(9)]]);
    }

    #[test]
    fn comma_join_with_table_function_uses_hash_join() {
        // The Section 4 pattern: base table comma-joined to a table function
        // with the link predicate in WHERE.
        let db = setup();
        db.register_function(
            "subs",
            Arc::new(|_args: &[Value], _cols: &[(String, DataType)]| -> DbResult<RowSet> {
                Ok(RowSet::with_rows(
                    vec!["sid".into()],
                    vec![vec![Value::Bigint(100)], vec![Value::Bigint(101)]],
                ))
            }),
        );
        let rs = db
            .execute(
                "SELECT p.name FROM Patient AS p, TABLE(subs()) AS s (sid BIGINT) WHERE p.subscriptionID = s.sid ORDER BY p.name",
            )
            .unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.get(0, "name"), Some(&Value::Varchar("Alice".into())));
    }

    #[test]
    fn subquery_distinct_limit() {
        let db = setup();
        let rs = db
            .execute(
                "SELECT DISTINCT diseaseID FROM (SELECT diseaseID FROM HasDisease) AS s ORDER BY diseaseID LIMIT 1",
            )
            .unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Bigint(10)]]);
    }

    #[test]
    fn duplicate_table_and_missing_objects_error() {
        let db = setup();
        assert!(db.execute("CREATE TABLE Patient (x BIGINT)").is_err());
        assert!(db.execute("SELECT * FROM NoSuch").is_err());
        assert!(db.execute("DROP VIEW nothere").is_err());
        assert!(db.execute("DROP TABLE nothere").is_err());
        db.execute("DROP TABLE IF EXISTS nothere").unwrap();
        db.execute("CREATE TABLE IF NOT EXISTS Patient (x BIGINT)").unwrap();
    }

    #[test]
    fn snapshot_pins_one_committed_state() {
        let db = setup();
        let snap = db.snapshot();
        let p = db.prepare("SELECT COUNT(*) FROM Patient").unwrap();
        // Writers commit after the snapshot was taken…
        db.execute("INSERT INTO Patient VALUES (7, 'Grace', NULL, NULL)").unwrap();
        db.execute("DELETE FROM Patient WHERE patientID = 3").unwrap();
        // …the pinned query still sees the old state; a fresh one does not.
        let rs = db.execute_prepared_at(&p, &[], &snap).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(3)));
        // The insert is invisible at the snapshot but visible at latest.
        let p7 = db.prepare("SELECT COUNT(*) FROM Patient WHERE patientID = 7").unwrap();
        assert_eq!(
            db.execute_prepared_at(&p7, &[], &snap).unwrap().scalar(),
            Some(&Value::Bigint(0))
        );
        assert_eq!(db.execute_prepared(&p7, &[]).unwrap().scalar(), Some(&Value::Bigint(1)));
        let p2 = db.prepare("SELECT name FROM Patient WHERE patientID = 3").unwrap();
        let rs = db.execute_prepared_at(&p2, &[], &snap).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("Carol".into())));
        assert_eq!(db.execute_prepared(&p2, &[]).unwrap().len(), 0);
    }

    #[test]
    fn snapshot_shields_updates_and_clones_share_epoch() {
        let db = setup();
        let snap = db.snapshot();
        db.execute("UPDATE Patient SET name = 'Alicia' WHERE patientID = 1").unwrap();
        let clone = snap.clone();
        assert_eq!(clone.epoch(), snap.epoch());
        let p = db.prepare("SELECT name FROM Patient WHERE patientID = 1").unwrap();
        let rs = db.execute_prepared_at(&p, &[], &clone).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("Alice".into())));
        drop(snap);
        // The clone still holds the epoch open.
        let rs = db.execute_prepared_at(&p, &[], &clone).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("Alice".into())));
    }

    #[test]
    fn stale_prepared_statement_reprepares_after_ddl() {
        let db = setup();
        let p = db.prepare("SELECT * FROM Disease WHERE conceptCode = 'E11'").unwrap();
        assert!(!p.is_stale(db.schema_generation()));
        // Drop and recreate the table with a *different column order*: a
        // stale plan compiled against the old layout would misread rows.
        db.execute("DROP TABLE Disease").unwrap();
        db.execute(
            "CREATE TABLE Disease (conceptName VARCHAR, conceptCode VARCHAR, diseaseID BIGINT PRIMARY KEY)",
        )
        .unwrap();
        db.execute("INSERT INTO Disease VALUES ('type 2 diabetes', 'E11', 10)").unwrap();
        assert!(p.is_stale(db.schema_generation()));
        let rs = db.execute_prepared(&p, &[]).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.get(0, "diseaseID"), Some(&Value::Bigint(10)));
    }

    #[test]
    fn failed_multi_row_insert_leaves_nothing_behind() {
        let db = setup();
        // Third row violates the Patient PK: the whole statement must undo.
        let err = db
            .execute("INSERT INTO Patient VALUES (8, 'Hana', NULL, NULL), (9, 'Ivan', NULL, NULL), (1, 'Dup', NULL, NULL)")
            .unwrap_err();
        assert!(matches!(err, DbError::Constraint(_)), "{err}");
        let rs = db.execute("SELECT COUNT(*) FROM Patient").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(3)));
        let rs = db.execute("SELECT COUNT(*) FROM Patient WHERE patientID IN (8, 9)").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(0)));
        // The aborted stamps left no index entries: the keys are reusable.
        db.execute("INSERT INTO Patient VALUES (8, 'Hana', NULL, NULL)").unwrap();
    }

    #[test]
    fn aborted_transaction_leaves_no_index_entries() {
        let db = setup();
        let res: DbResult<()> = db.transaction(|db| {
            db.execute("INSERT INTO Patient VALUES (20, 'Tess', NULL, NULL)")?;
            db.execute("UPDATE Patient SET subscriptionID = 999 WHERE patientID = 2")?;
            db.execute("DELETE FROM Patient WHERE patientID = 3")?;
            Err(DbError::Execution("abort".into()))
        });
        assert!(res.is_err());
        let t = db.get_table("Patient").unwrap();
        let guard = t.read();
        // PK index has exactly the three original keys, each mapping to a
        // row visible at latest.
        let ix = guard.find_index_on("patientID").unwrap();
        assert_eq!(ix.distinct_keys(), 3);
        drop(guard);
        let rs = db.execute("SELECT subscriptionID FROM Patient WHERE patientID = 2").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(101)));
        db.execute("INSERT INTO Patient VALUES (20, 'Tess', NULL, NULL)").unwrap();
    }

    #[test]
    fn vacuum_reclaims_only_unpinned_versions() {
        let db = setup();
        let snap = db.snapshot();
        db.execute("UPDATE Patient SET address = 'x' WHERE patientID = 1").unwrap();
        db.execute("DELETE FROM HasDisease WHERE patientID = 1").unwrap();
        // The snapshot pins the pre-update state: nothing can be reclaimed.
        assert_eq!(db.vacuum(), 0);
        let p = db.prepare("SELECT address FROM Patient WHERE patientID = 1").unwrap();
        let rs = db.execute_prepared_at(&p, &[], &snap).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("12 Oak St".into())));
        drop(snap);
        // 1 superseded Patient version + 2 deleted HasDisease versions.
        assert_eq!(db.vacuum(), 3);
        let rs = db.execute("SELECT address FROM Patient WHERE patientID = 1").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("x".into())));
    }

    #[test]
    fn concurrent_transactions_serialize_through_gate() {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE counter (id BIGINT PRIMARY KEY, n BIGINT)").unwrap();
        db.execute("INSERT INTO counter VALUES (1, 0)").unwrap();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let db = db.clone();
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        db.transaction(|db| {
                            let n = db
                                .execute("SELECT n FROM counter WHERE id = 1")
                                .unwrap()
                                .scalar()
                                .unwrap()
                                .as_i64()
                                .unwrap();
                            db.execute(&format!("UPDATE counter SET n = {} WHERE id = 1", n + 1))
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let rs = db.execute("SELECT n FROM counter WHERE id = 1").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(100)));
    }

    #[test]
    fn foreign_transaction_writes_stay_invisible_to_other_threads() {
        // A plain read on thread B while thread A holds an open transaction
        // must not adopt A's stamp — that would be a dirty read of A's
        // uncommitted writes.
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        let (inside_tx, inside_rx) = std::sync::mpsc::channel();
        let (checked_tx, checked_rx) = std::sync::mpsc::channel();
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                db.transaction(|db| {
                    db.execute("INSERT INTO t VALUES (2)")?;
                    inside_tx.send(()).unwrap();
                    // Hold the transaction open until the reader has looked.
                    checked_rx.recv().unwrap();
                    Ok(())
                })
                .unwrap();
            })
        };
        inside_rx.recv().unwrap();
        let n = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(n.scalar(), Some(&Value::Bigint(1)), "dirty read of an uncommitted insert");
        checked_tx.send(()).unwrap();
        writer.join().unwrap();
        let n = db.execute("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(n.scalar(), Some(&Value::Bigint(2)));
    }

    #[test]
    fn delete_then_reinsert_same_key_inside_transaction() {
        // Pre-MVCC behavior that must keep working: a transaction deletes a
        // key and re-inserts it before committing. The uncommitted delete
        // belongs to the same stamp, so it must not count as "occupied".
        let db = setup();
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM Disease WHERE diseaseID = 10").unwrap();
        db.execute("INSERT INTO Disease VALUES (10, 'E11.9', 'type 2 diabetes, new code')")
            .unwrap();
        db.execute("COMMIT").unwrap();
        let rs = db.execute("SELECT conceptCode FROM Disease WHERE diseaseID = 10").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("E11.9".into())));
        // The rollback variant restores the original row.
        db.execute("BEGIN").unwrap();
        db.execute("DELETE FROM Disease WHERE diseaseID = 11").unwrap();
        db.execute("INSERT INTO Disease VALUES (11, 'X', 'replaced')").unwrap();
        db.execute("ROLLBACK").unwrap();
        let rs = db.execute("SELECT conceptCode FROM Disease WHERE diseaseID = 11").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("E10".into())));
        assert_eq!(
            db.execute("SELECT COUNT(*) FROM Disease").unwrap().scalar(),
            Some(&Value::Bigint(3))
        );
    }

    #[test]
    fn autocommit_dml_conflicts_with_foreign_uncommitted_write() {
        // An auto-commit UPDATE/DELETE racing an open transaction's write
        // on the same row must error as a write conflict — not end-mark the
        // uncommitted version (which would break the owner's rollback and
        // silently drop its update).
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, n BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        let (inside_tx, inside_rx) = std::sync::mpsc::channel();
        let (checked_tx, checked_rx) = std::sync::mpsc::channel();
        let writer = {
            let db = db.clone();
            std::thread::spawn(move || {
                let res: DbResult<()> = db.transaction(|db| {
                    db.execute("UPDATE t SET n = 10 WHERE id = 1")?;
                    inside_tx.send(()).unwrap();
                    checked_rx.recv().unwrap();
                    Err(DbError::Execution("abort".into()))
                });
                assert!(res.is_err());
            })
        };
        inside_rx.recv().unwrap();
        let err = db.execute("UPDATE t SET n = 99 WHERE id = 1").unwrap_err();
        assert!(matches!(err, DbError::Txn(_)), "{err}");
        let err = db.execute("DELETE FROM t WHERE id = 1").unwrap_err();
        assert!(matches!(err, DbError::Txn(_)), "{err}");
        checked_tx.send(()).unwrap();
        writer.join().unwrap();
        // The owner rolled back cleanly: the original row is intact and
        // writable again (no stranded uncommitted markers).
        let rs = db.execute("SELECT n FROM t WHERE id = 1").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(0)));
        db.execute("UPDATE t SET n = 99 WHERE id = 1").unwrap();
        let rs = db.execute("SELECT n FROM t WHERE id = 1").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(99)));
    }

    #[test]
    fn commit_and_rollback_rejected_from_non_owner_thread() {
        let db = Arc::new(setup());
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO Patient VALUES (30, 'Uma', NULL, NULL)").unwrap();
        {
            let db = db.clone();
            std::thread::spawn(move || {
                assert!(matches!(db.execute("COMMIT"), Err(DbError::Txn(_))));
                assert!(matches!(db.execute("ROLLBACK"), Err(DbError::Txn(_))));
            })
            .join()
            .unwrap();
        }
        // The owner's transaction is still open and still rolls back.
        db.execute("ROLLBACK").unwrap();
        let rs = db.execute("SELECT COUNT(*) FROM Patient WHERE patientID = 30").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Bigint(0)));
    }

    #[test]
    fn reentrant_transaction_errors_instead_of_deadlocking() {
        let db = setup();
        let res: DbResult<()> = db.transaction(|db| {
            let inner: DbResult<()> = db.transaction(|_| Ok(()));
            assert!(matches!(inner, Err(DbError::Txn(_))));
            Ok(())
        });
        res.unwrap();
        // SQL BEGIN also blocks transaction() on the same thread.
        db.execute("BEGIN").unwrap();
        assert!(db.transaction(|_| Ok(())).is_err());
        db.execute("ROLLBACK").unwrap();
    }

    #[test]
    fn session_txn_spans_threads_and_commits_atomically() {
        let db = setup();
        let token = db.begin_session_txn();
        assert_eq!(db.session_txn_count(), 1);
        // Two writes adopted on two different threads, one transaction.
        std::thread::scope(|s| {
            s.spawn(|| {
                db.with_session_txn(token, |db| {
                    db.execute("UPDATE Patient SET address = '1 Session Way' WHERE patientID = 1")
                        .unwrap();
                })
                .unwrap();
            });
        });
        db.with_session_txn(token, |db| {
            db.execute("INSERT INTO Patient VALUES (4, 'Dave', NULL, NULL)").unwrap();
            // Reads inside the session see both uncommitted writes.
            let rs = db.execute("SELECT address FROM Patient WHERE patientID = 1").unwrap();
            assert_eq!(rs.scalar(), Some(&Value::Varchar("1 Session Way".into())));
            assert_eq!(db.execute("SELECT * FROM Patient").unwrap().len(), 4);
        })
        .unwrap();
        // Outside the session, nothing is visible yet.
        assert_eq!(db.execute("SELECT * FROM Patient").unwrap().len(), 3);
        db.commit_session_txn(token).unwrap();
        assert_eq!(db.session_txn_count(), 0);
        assert_eq!(db.execute("SELECT * FROM Patient").unwrap().len(), 4);
        let rs = db.execute("SELECT address FROM Patient WHERE patientID = 1").unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("1 Session Way".into())));
        // The token died with the commit.
        assert!(db.with_session_txn(token, |_| ()).is_err());
    }

    #[test]
    fn session_txn_rollback_discards_and_refuses_nesting() {
        let db = setup();
        let token = db.begin_session_txn();
        db.with_session_txn(token, |db| {
            db.execute("DELETE FROM HasDisease WHERE patientID = 1").unwrap();
            // No transactional nesting inside a session: neither the
            // closure API nor SQL BEGIN/COMMIT/ROLLBACK.
            assert!(db.transaction(|_| Ok(())).is_err());
            assert!(db.execute("BEGIN").is_err());
            assert!(db.execute("COMMIT").is_err());
        })
        .unwrap();
        db.rollback_session_txn(token).unwrap();
        assert_eq!(db.execute("SELECT * FROM HasDisease").unwrap().len(), 3);
        // A dead token cannot be committed either.
        assert!(db.commit_session_txn(token).is_err());
    }

    #[test]
    fn concurrent_sessions_stay_isolated() {
        let db = setup();
        let a = db.begin_session_txn();
        let b = db.begin_session_txn();
        db.with_session_txn(a, |db| {
            db.execute("UPDATE Patient SET name = 'A' WHERE patientID = 1").unwrap();
        })
        .unwrap();
        db.with_session_txn(b, |db| {
            // Session b sees neither a's write nor its own absence of one.
            let rs = db.execute("SELECT name FROM Patient WHERE patientID = 1").unwrap();
            assert_eq!(rs.scalar(), Some(&Value::Varchar("Alice".into())));
            db.execute("UPDATE Patient SET name = 'B' WHERE patientID = 2").unwrap();
        })
        .unwrap();
        db.rollback_session_txn(b).unwrap();
        db.commit_session_txn(a).unwrap();
        let rs = db.execute("SELECT name FROM Patient ORDER BY patientID").unwrap();
        assert_eq!(rs.get(0, "name"), Some(&Value::Varchar("A".into())));
        assert_eq!(rs.get(1, "name"), Some(&Value::Varchar("Bob".into())));
    }

    fn count(db: &Database, sql: &str) -> Value {
        db.execute(sql).unwrap().scalar().unwrap().clone()
    }

    #[test]
    fn sql_begin_on_two_threads_at_once_commits_both() {
        let db = setup();
        let insert = |id: i64| format!("INSERT INTO Patient VALUES ({id}, 'P{id}', NULL, NULL)");
        assert!(!db.in_transaction());
        db.execute("BEGIN").unwrap();
        assert!(db.in_transaction());
        db.execute(&insert(40)).unwrap();
        // A second BEGIN on another thread while this one is open.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!db.in_transaction());
                db.execute("BEGIN").unwrap();
                db.execute(&insert(41)).unwrap();
                assert_eq!(count(&db, "SELECT COUNT(*) FROM Patient"), Value::Bigint(4));
                db.execute("COMMIT").unwrap();
            });
        });
        // Its commit is visible here; our own row only to us until COMMIT.
        assert_eq!(count(&db, "SELECT COUNT(*) FROM Patient"), Value::Bigint(5));
        db.execute("COMMIT").unwrap();
        assert!(!db.in_transaction());
        let ours = count(&db, "SELECT COUNT(*) FROM Patient WHERE patientID >= 40");
        assert_eq!(ours, Value::Bigint(2));
        assert_eq!(db.session_txn_count(), 0);
    }

    #[test]
    fn sql_begin_writers_of_one_row_settle_first_writer_wins() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, n BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 0)").unwrap();
        db.execute("BEGIN").unwrap();
        db.execute("UPDATE t SET n = 1 WHERE id = 1").unwrap();
        let (tried_tx, tried_rx) = std::sync::mpsc::channel();
        let (committed_tx, committed_rx) = std::sync::mpsc::channel::<()>();
        std::thread::scope(|s| {
            let db = &db;
            s.spawn(move || {
                db.execute("BEGIN").unwrap();
                let err = db.execute("UPDATE t SET n = 2 WHERE id = 1").unwrap_err();
                assert!(matches!(err, DbError::Txn(_)), "{err}");
                tried_tx.send(()).unwrap();
                committed_rx.recv().unwrap();
                db.execute("ROLLBACK").unwrap();
            });
            tried_rx.recv().unwrap();
            db.execute("COMMIT").unwrap();
            committed_tx.send(()).unwrap();
        });
        assert_eq!(count(&db, "SELECT n FROM t WHERE id = 1"), Value::Bigint(1));
        db.execute("UPDATE t SET n = 3 WHERE id = 1").unwrap();
        assert_eq!(count(&db, "SELECT n FROM t WHERE id = 1"), Value::Bigint(3));
    }

    #[test]
    fn two_databases_keep_separate_adoptions_on_one_thread() {
        let (db1, db2) = (setup(), setup());
        let patients = "SELECT COUNT(*) FROM Patient WHERE patientID >= 40";
        // A session on db2 adopted inside a session on db1.
        let (t1, t2) = (db1.begin_session_txn(), db2.begin_session_txn());
        db1.with_session_txn(t1, |db1| {
            db1.execute("INSERT INTO Patient VALUES (40, 'A', NULL, NULL)").unwrap();
            db2.with_session_txn(t2, |db2| {
                db2.execute("INSERT INTO Patient VALUES (41, 'B', NULL, NULL)").unwrap();
                assert_eq!(count(db2, patients), Value::Bigint(1));
            })
            .unwrap();
            // Still inside db1's session after db2's ended.
            db1.execute("INSERT INTO Patient VALUES (42, 'C', NULL, NULL)").unwrap();
            assert_eq!(count(db1, patients), Value::Bigint(2));
        })
        .unwrap();
        assert_eq!(count(&db1, patients), Value::Bigint(0));
        db1.commit_session_txn(t1).unwrap();
        db2.commit_session_txn(t2).unwrap();
        assert_eq!(count(&db1, patients), Value::Bigint(2));
        assert_eq!(count(&db2, patients), Value::Bigint(1));
        // SQL BEGIN on db1 around a session on db2.
        db1.execute("BEGIN").unwrap();
        db1.execute("INSERT INTO Patient VALUES (50, 'D', NULL, NULL)").unwrap();
        let t = db2.begin_session_txn();
        db2.with_session_txn(t, |db2| {
            db2.execute("INSERT INTO Patient VALUES (51, 'E', NULL, NULL)").unwrap();
            assert_eq!(count(db2, patients), Value::Bigint(2));
        })
        .unwrap();
        db1.execute("INSERT INTO Patient VALUES (52, 'F', NULL, NULL)").unwrap();
        db1.execute("COMMIT").unwrap();
        db2.commit_session_txn(t).unwrap();
        assert_eq!(count(&db1, patients), Value::Bigint(4));
        assert_eq!(count(&db2, patients), Value::Bigint(2));
    }

    #[test]
    fn open_begin_follows_the_database_when_it_moves() {
        let db = setup();
        db.execute("BEGIN").unwrap();
        db.execute("INSERT INTO Patient VALUES (60, 'Moved', NULL, NULL)").unwrap();
        let db = Arc::new(db);
        db.execute("COMMIT").unwrap();
        assert_eq!(count(&db, "SELECT COUNT(*) FROM Patient"), Value::Bigint(4));
    }

    #[test]
    fn panicking_transaction_closure_rolls_back() {
        let db = setup();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.transaction(|db| -> DbResult<()> {
                db.execute("INSERT INTO Patient VALUES (70, 'Boom', NULL, NULL)")?;
                panic!("closure panicked");
            })
        }));
        assert!(caught.is_err());
        assert!(!db.in_transaction());
        assert_eq!(count(&db, "SELECT COUNT(*) FROM Patient"), Value::Bigint(3));
        db.transaction(|db| db.execute("INSERT INTO Patient VALUES (70, 'Ok', NULL, NULL)"))
            .unwrap();
        assert_eq!(count(&db, "SELECT COUNT(*) FROM Patient"), Value::Bigint(4));
    }

    #[test]
    fn left_outer_join() {
        let db = setup();
        let rs = db
            .execute(
                "SELECT p.name, h.diseaseID FROM Patient p LEFT JOIN HasDisease h ON p.patientID = h.patientID ORDER BY p.patientID, h.diseaseID",
            )
            .unwrap();
        // Alice x2, Bob x1, Carol with NULL.
        assert_eq!(rs.len(), 4);
        assert_eq!(rs.get(3, "name"), Some(&Value::Varchar("Carol".into())));
        assert_eq!(rs.get(3, "diseaseID"), Some(&Value::Null));
    }
}
