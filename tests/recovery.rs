//! Crash-injection recovery tests for the durable reldb layer.
//!
//! The balance-transfer workload from `stress_consistency` is the oracle:
//! every transfer moves 1 between two accounts inside one transaction, so
//! the total is invariant under *whole* transactions and broken by any
//! half-replayed one. We kill the durability layer at every enumerated
//! [`CrashPoint`], reopen from disk, and require that recovery (a) lands
//! exactly on a published commit-epoch boundary, (b) conserves the total,
//! and (c) leaves a fully writable database. A torn or corrupt WAL tail
//! must be truncated — never replayed, never a panic.
//!
//! On an invariant failure the recovered state is dumped to
//! `DB2GRAPH_RECOVERY_DIFF_DIR` (when set) so the CI job can upload it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use db2graph::core::Db2Graph;
use db2graph::reldb::{CrashPoint, Database, Durability, Value};
use proptest::{proptest, ProptestConfig, TestRng};

const ACCOUNTS: u64 = 16;
const INIT: i64 = 100;
const TOTAL: i64 = ACCOUNTS as i64 * INIT;
/// A one-table overlay on the accounts, enough to open a graph.
const ACCOUNT_OVERLAY: &str = r#"{"v_tables": [{"table_name": "Account", "id": "aid",
    "fix_label": true, "label": "'account'"}], "e_tables": []}"#;

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "db2graph-recovery-{tag}-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic per-scenario randomness (no external seeds).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 33) % n
    }
}

/// One multi-row INSERT = one commit epoch, so any recovered prefix that
/// contains the seed at all contains every account.
fn seed_accounts(db: &Database) {
    db.execute("CREATE TABLE Account (aid BIGINT PRIMARY KEY, balance BIGINT)").unwrap();
    let rows: Vec<String> = (0..ACCOUNTS).map(|a| format!("({a}, {INIT})")).collect();
    db.execute(&format!("INSERT INTO Account VALUES {}", rows.join(", "))).unwrap();
}

fn transfer(db: &Database, from: u64, to: u64) -> db2graph::reldb::DbResult<()> {
    db.transaction(|db| {
        db.execute(&format!("UPDATE Account SET balance = balance - 1 WHERE aid = {from}"))?;
        db.execute(&format!("UPDATE Account SET balance = balance + 1 WHERE aid = {to}"))?;
        Ok(())
    })
}

fn total_balance(db: &Database) -> Option<i64> {
    let rs = db.execute("SELECT SUM(balance) FROM Account").ok()?;
    match rs.scalar() {
        Some(Value::Bigint(n)) => Some(*n),
        _ => None,
    }
}

fn account_rows(db: &Database) -> String {
    match db.execute("SELECT aid, balance FROM Account ORDER BY aid") {
        Ok(rs) => rs
            .rows
            .iter()
            .map(|r| format!("{:?}\n", r))
            .collect(),
        Err(e) => format!("<query failed: {e}>\n"),
    }
}

/// Dump the recovered state for CI artifact upload, then fail the test.
fn fail_with_diff(label: &str, db: &Database, detail: String) -> ! {
    if let Ok(dir) = std::env::var("DB2GRAPH_RECOVERY_DIFF_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let body = format!(
            "scenario: {label}\n{detail}\nexpected total: {TOTAL}\n\
             commit_epoch: {}\nlast_checkpoint_epoch: {}\nreplayed: {}\ntruncated: {}\n\
             recovered accounts (aid, balance):\n{}",
            db.commit_epoch(),
            db.last_checkpoint_epoch(),
            db.metrics().recovery_replayed_epochs(),
            db.metrics().recovery_truncated_bytes(),
            account_rows(db),
        );
        let _ = std::fs::write(format!("{dir}/{label}.diff.txt"), body);
    }
    panic!("{label}: {detail}");
}

/// Run the serial transfer workload with a checkpoint every 8 transfers,
/// dying at the `target`-th occurrence of `point`. Returns what the
/// survivor knew at the moment of death.
fn run_until_crash(db: &Arc<Database>, point: CrashPoint, target: usize) -> (bool, u64, u64) {
    let fired = Arc::new(AtomicUsize::new(0));
    {
        let fired = fired.clone();
        db.set_crash_hook(Some(Arc::new(move |p| {
            p == point && fired.fetch_add(1, Ordering::Relaxed) + 1 == target
        })));
    }
    let mut rng = Lcg(point as u64 * 1013 + target as u64);
    let mut crashed = false;
    for round in 0..48u64 {
        let from = rng.below(ACCOUNTS);
        let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
        if transfer(db, from, to).is_err() {
            crashed = true;
            break;
        }
        if round % 8 == 7 && db.checkpoint().is_err() {
            crashed = true;
            break;
        }
    }
    db.set_crash_hook(None);
    (crashed, db.commit_epoch(), db.last_checkpoint_epoch())
}

fn check_recovered(label: &str, dir: &Path, published: u64, checkpointed: u64) {
    let db = Database::open(dir).unwrap_or_else(|e| panic!("{label}: reopen failed: {e}"));
    let recovered = db.commit_epoch();
    // Recovery lands exactly on a published epoch: everything the crashed
    // process published, plus at most the one commit whose WAL record was
    // durable before the in-memory publication failed.
    if recovered != published && recovered != published + 1 {
        fail_with_diff(label, &db, format!("recovered epoch {recovered}, published {published}"));
    }
    if recovered < checkpointed {
        fail_with_diff(
            label,
            &db,
            format!("recovered epoch {recovered} behind checkpoint {checkpointed}"),
        );
    }
    match total_balance(&db) {
        Some(t) if t == TOTAL => {}
        got => fail_with_diff(label, &db, format!("total balance {got:?}")),
    }
    // The recovered database must be fully live: writes, checkpoints, and
    // another clean reopen all work.
    transfer(&db, 0, 1).unwrap_or_else(|e| panic!("{label}: post-recovery write failed: {e}"));
    db.checkpoint().unwrap_or_else(|e| panic!("{label}: post-recovery checkpoint failed: {e}"));
    assert_eq!(total_balance(&db), Some(TOTAL), "{label}: post-recovery transfer conserved");
}

/// The tentpole matrix: for every enumerable crash point, at an early and
/// a later occurrence, the crashed directory recovers to a consistent,
/// whole-transaction state.
#[test]
fn crash_point_matrix_conserves_balances() {
    for &point in CrashPoint::ALL.iter() {
        for target in [1usize, 4] {
            let label = format!("{point:?}-{target}");
            let dir = temp_dir("matrix");
            let db = Arc::new(Database::open(&dir).unwrap());
            seed_accounts(&db);
            let (crashed, published, checkpointed) = run_until_crash(&db, point, target);
            if target == 1 {
                assert!(crashed, "{label}: the crash point never fired");
            }
            if crashed && point == CrashPoint::WalTorn {
                // The torn half-frame is on disk; recovery must cut it, and
                // the graph's metrics report the cut.
                let db2 = Arc::new(Database::open(&dir).unwrap());
                let cut = db2.metrics().recovery_truncated_bytes();
                assert!(cut > 0, "{label}: no tail truncated");
                let graph = Db2Graph::open_json(db2, ACCOUNT_OVERLAY).unwrap();
                assert_eq!(graph.metrics().recovery_truncated_bytes, cut, "{label}");
                drop(graph);
            }
            drop(db);
            check_recovered(&label, &dir, published, checkpointed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Three concurrent writers racing transfers when the WAL dies mid-flight:
/// whatever interleaving reached the log, recovery is a whole-transaction
/// prefix and the total is conserved.
#[test]
fn concurrent_writers_crash_recovers_conserved() {
    let dir = temp_dir("writers");
    let db = Arc::new(Database::open(&dir).unwrap());
    seed_accounts(&db);
    let fired = Arc::new(AtomicUsize::new(0));
    {
        let fired = fired.clone();
        db.set_crash_hook(Some(Arc::new(move |p| {
            p == CrashPoint::WalSynced && fired.fetch_add(1, Ordering::Relaxed) + 1 == 23
        })));
    }
    let workers: Vec<_> = (0..3u64)
        .map(|w| {
            let db = db.clone();
            std::thread::spawn(move || {
                let mut rng = Lcg(w + 1);
                for _ in 0..40 {
                    let from = rng.below(ACCOUNTS);
                    let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                    if transfer(&db, from, to).is_err() {
                        break; // the process "died"; this thread is gone
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    db.set_crash_hook(None);
    let published = db.commit_epoch();
    drop(db);
    check_recovered("concurrent-writers", &dir, published, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression: vacuum must not reclaim versions a running
/// checkpoint still needs. The hook runs a superseding commit plus an
/// explicit vacuum *between* the checkpoint's epoch capture and its table
/// serialization (the `CheckpointBegin` gate is lock-free by design);
/// without the checkpoint floor the captured image would lose the row.
#[test]
fn vacuum_respects_running_checkpoint_horizon() {
    let dir = temp_dir("floor");
    let db = Arc::new(Database::open(&dir).unwrap());
    db.execute("CREATE TABLE T (k BIGINT PRIMARY KEY, v BIGINT)").unwrap();
    db.execute("INSERT INTO T VALUES (1, 10)").unwrap();
    {
        let db2 = db.clone();
        db.set_crash_hook(Some(Arc::new(move |p| {
            if p == CrashPoint::CheckpointBegin {
                db2.execute("UPDATE T SET v = 20 WHERE k = 1").unwrap();
                db2.vacuum(); // must be clamped by the checkpoint floor
            }
            false // never crash — this hook only races the checkpoint
        })));
    }
    let ckpt_epoch = db.checkpoint().unwrap();
    db.set_crash_hook(None);
    // With the checkpoint done the floor is lifted: the superseded v=10
    // version is reclaimable now (and only now).
    assert!(db.vacuum() >= 1, "floor lifted after checkpoint");

    // Recover from the checkpoint image *alone* (no WAL): it must contain
    // the row as of its capture epoch — v = 10, the version vacuum was
    // racing to reclaim.
    let dir2 = temp_dir("floor-image");
    std::fs::create_dir_all(&dir2).unwrap();
    std::fs::copy(dir.join("checkpoint.bin"), dir2.join("checkpoint.bin")).unwrap();
    let from_image = Database::open(&dir2).unwrap();
    assert_eq!(from_image.commit_epoch(), ckpt_epoch);
    let rs = from_image.execute("SELECT v FROM T WHERE k = 1").unwrap();
    assert_eq!(
        rs.scalar(),
        Some(&Value::Bigint(10)),
        "checkpoint serialized the version visible at its capture epoch"
    );

    // The full directory (checkpoint + WAL) recovers the later commit.
    drop(db);
    let full = Database::open(&dir).unwrap();
    let rs = full.execute("SELECT v FROM T WHERE k = 1").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Bigint(20)));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

/// Byte offsets of every complete frame in a WAL image (after the
/// 16-byte header) — a tiny re-implementation of the scanner, used to
/// locate the final record for exhaustive truncation.
fn frame_offsets(bytes: &[u8]) -> Vec<usize> {
    let mut offs = Vec::new();
    let mut off = 16usize;
    while off + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        if bytes.len() - off - 8 < len {
            break;
        }
        offs.push(off);
        off += 8 + len;
    }
    offs
}

/// Build a reference directory (WAL only, no checkpoint): seed + 8
/// transfers. Returns (final epoch, wal bytes).
fn reference_wal(dir: &Path) -> (u64, Vec<u8>) {
    let db = Database::open(dir).unwrap();
    seed_accounts(&db);
    let mut rng = Lcg(99);
    for _ in 0..8 {
        let from = rng.below(ACCOUNTS);
        let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
        transfer(&db, from, to).unwrap();
    }
    let epoch = db.commit_epoch();
    drop(db);
    let bytes = std::fs::read(dir.join("wal.log")).unwrap();
    (epoch, bytes)
}

fn open_wal_image(tag: &str, bytes: &[u8]) -> Database {
    let dir = temp_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal.log"), bytes).unwrap();
    let db = Database::open(&dir).unwrap_or_else(|e| panic!("{tag}: open failed: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    db
}

/// Truncate the WAL at *every* byte offset of its final record: recovery
/// must never panic, must drop exactly that record (the longest valid
/// prefix survives), and must conserve the total.
#[test]
fn torn_tail_truncation_is_exhaustive() {
    let refdir = temp_dir("torn-ref");
    let (full_epoch, bytes) = reference_wal(&refdir);
    let _ = std::fs::remove_dir_all(&refdir);
    let last = *frame_offsets(&bytes).last().unwrap();
    for cut in last..bytes.len() {
        let db = open_wal_image("torn-cut", &bytes[..cut]);
        assert_eq!(
            db.commit_epoch(),
            full_epoch - 1,
            "cut at {cut}: exactly the final record is dropped"
        );
        assert_eq!(total_balance(&db), Some(TOTAL), "cut at {cut}");
        assert!(db.metrics().recovery_truncated_bytes() > 0 || cut == last, "cut at {cut}");
    }
    // The untouched image recovers everything.
    let db = open_wal_image("torn-full", &bytes);
    assert_eq!(db.commit_epoch(), full_epoch);
    assert_eq!(total_balance(&db), Some(TOTAL));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    /// Flip any single bit anywhere in the WAL image (header included):
    /// `Database::open` must never panic, and the recovered state is a
    /// whole-commit prefix — the seed either fully present (16 accounts,
    /// conserved total) or fully absent.
    #[test]
    fn wal_bitflips_never_panic_or_tear(seed in 0u64..u64::MAX) {
        let refdir = temp_dir("flip-ref");
        let (full_epoch, bytes) = reference_wal(&refdir);
        let _ = std::fs::remove_dir_all(&refdir);
        let mut rng = TestRng::from_seed(seed);
        let mut mutated = bytes.clone();
        let byte = rng.below(mutated.len());
        let bit = rng.below(8) as u32;
        mutated[byte] ^= 1u8 << bit;
        let db = open_wal_image("flip", &mutated);
        assert!(db.commit_epoch() <= full_epoch);
        let rows = db
            .execute("SELECT COUNT(*) FROM Account")
            .map(|rs| match rs.scalar() {
                Some(Value::Bigint(n)) => *n,
                _ => 0,
            })
            .unwrap_or(0);
        assert!(rows == 0 || rows == ACCOUNTS as i64, "partial seed after flip at byte {byte}");
        if rows == ACCOUNTS as i64 {
            assert_eq!(total_balance(&db), Some(TOTAL), "flip at byte {byte} bit {bit}");
        }
    }
}

/// `Batch` mode: the fsync cadence is relaxed but the written prefix is
/// still valid — reopen replays every whole commit.
#[test]
fn batch_mode_reopens_cleanly() {
    let dir = temp_dir("batch");
    let db = Database::open_with(&dir, Durability::Batch).unwrap();
    seed_accounts(&db);
    for i in 0..10 {
        transfer(&db, i % ACCOUNTS, (i + 1) % ACCOUNTS).unwrap();
    }
    db.sync_wal().unwrap();
    let published = db.commit_epoch();
    drop(db);
    let db = Database::open_with(&dir, Durability::Batch).unwrap();
    assert_eq!(db.commit_epoch(), published);
    assert_eq!(total_balance(&db), Some(TOTAL));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `Batch` durability contract, made exact: the WAL fsyncs every
/// 32nd append, so a crash can lose at most the 31 commits after the
/// last fsync — never more, and never half of one. We drive the record
/// count to the worst case (31 appends past a sync boundary), simulate
/// losing the OS page cache by truncating a copy of the WAL to the
/// fsynced prefix (`wal_synced_bytes`), and reopen.
#[test]
fn batch_mode_loses_at_most_thirty_one_commits() {
    let dir = temp_dir("batch-contract");
    let db = Database::open_with(&dir, Durability::Batch).unwrap();
    seed_accounts(&db);
    let mut rng = Lcg(7);
    // Seed writes 2 records (DDL + insert); 125 transfers land the log at
    // 127 records with the last fsync at 96 — 31 unsynced commits.
    for _ in 0..125 {
        let from = rng.below(ACCOUNTS);
        let to = (from + 1 + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
        transfer(&db, from, to).unwrap();
    }
    let published = db.commit_epoch();
    let synced = db.wal_synced_bytes() as usize;
    let full = std::fs::read(dir.join("wal.log")).unwrap();
    assert!(synced <= full.len(), "synced prefix within the file");
    drop(db);

    let db = open_wal_image("batch-contract-img", &full[..synced]);
    let recovered = db.commit_epoch();
    let lost = published - recovered;
    assert!(lost > 0, "worst case actually exercises unsynced commits");
    assert!(lost <= 31, "batch mode lost {lost} commits; the contract is at most 31");
    assert_eq!(total_balance(&db), Some(TOTAL), "every surviving commit is whole");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `Off` mode: no WAL — checkpoints are the only durable state. Work
/// after the last checkpoint is (by contract) lost; the recovered state
/// is exactly the checkpoint, still whole and conserved.
#[test]
fn off_mode_recovers_to_last_checkpoint() {
    let dir = temp_dir("off");
    let db = Database::open_with(&dir, Durability::Off).unwrap();
    seed_accounts(&db);
    transfer(&db, 0, 1).unwrap();
    let ckpt = db.checkpoint().unwrap();
    transfer(&db, 2, 3).unwrap(); // after the checkpoint: not durable
    drop(db);
    let db = Database::open_with(&dir, Durability::Off).unwrap();
    assert_eq!(db.commit_epoch(), ckpt, "recovered exactly to the checkpoint");
    assert_eq!(total_balance(&db), Some(TOTAL));
    assert_eq!(db.metrics().recovery_replayed_epochs(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a checkpoint taken while running in `Off` mode must cut
/// the WAL records an earlier (logging) run left behind. Without the
/// rotation the image would record `wal_seq = 0` and the next open would
/// replay the stale records — carrying older epochs — on top of the newer
/// image, silently reverting checkpointed commits.
#[test]
fn off_mode_checkpoint_cuts_stale_wal_from_earlier_run() {
    let dir = temp_dir("off-stale-wal");

    // First life logs under `Always`: the WAL holds the seed + transfers.
    let db = Database::open(&dir).unwrap();
    seed_accounts(&db);
    transfer(&db, 0, 1).unwrap();
    transfer(&db, 1, 2).unwrap();
    drop(db);

    // Second life downgrades to `Off`, commits more (unlogged) work, and
    // checkpoints: the image now supersedes everything in the old WAL.
    let db = Database::open_with(&dir, Durability::Off).unwrap();
    assert_eq!(total_balance(&db), Some(TOTAL), "old WAL replayed on downgrade");
    transfer(&db, 3, 4).unwrap();
    let ckpt = db.checkpoint().unwrap();
    drop(db);

    // Third life must recover the image verbatim — zero stale replays.
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.commit_epoch(), ckpt, "stale WAL records replayed over the image");
    assert_eq!(db.metrics().recovery_replayed_epochs(), 0);
    assert_eq!(total_balance(&db), Some(TOTAL));
    // And the recovered database logs + recovers normally from here on.
    transfer(&db, 5, 6).unwrap();
    let published = db.commit_epoch();
    drop(db);
    let db = Database::open(&dir).unwrap();
    assert_eq!(db.commit_epoch(), published);
    assert_eq!(total_balance(&db), Some(TOTAL));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a user index whose name collides with the auto-generated
/// `pk_*`/`uq_*_<n>` scheme is still checkpointed — provenance is a flag
/// on the index, not a name pattern. `Account` has no UNIQUE columns, so
/// `uq_account_0` is exactly the name the old filter silently dropped.
#[test]
fn user_index_with_auto_like_name_survives_checkpoint() {
    let dir = temp_dir("ixname");
    let db = Database::open(&dir).unwrap();
    seed_accounts(&db);
    db.execute("CREATE INDEX uq_account_0 ON Account (balance)").unwrap();
    db.checkpoint().unwrap(); // rotates the CREATE INDEX out of the WAL
    drop(db);
    let db = Database::open(&dir).unwrap();
    db.execute("DROP INDEX uq_account_0")
        .expect("user index survived the checkpoint despite its auto-like name");
    // The schema-implied PK index is not a user index: never persisted as
    // one, always rebuilt, never droppable.
    assert!(db.execute("DROP INDEX pk_account").is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// DDL (tables, secondary indexes, views) round-trips through WAL replay
/// and checkpoint images alike, and the durability counters tell the
/// recovery's story.
#[test]
fn ddl_and_counters_survive_recovery() {
    let dir = temp_dir("ddl");
    let db = Database::open(&dir).unwrap();
    seed_accounts(&db);
    db.execute("CREATE INDEX ix_balance ON Account (balance)").unwrap();
    db.execute("CREATE VIEW Rich AS SELECT aid FROM Account WHERE balance > 100").unwrap();
    transfer(&db, 3, 4).unwrap();
    db.checkpoint().unwrap();
    transfer(&db, 5, 6).unwrap(); // exactly one commit past the checkpoint
    let published = db.commit_epoch();
    assert!(db.metrics().wal_records() >= 4);
    assert!(db.metrics().wal_bytes() > 0);
    assert_eq!(db.metrics().checkpoints(), 1);
    drop(db);

    let db = Database::open(&dir).unwrap();
    assert_eq!(db.commit_epoch(), published);
    let replayed = db.metrics().recovery_replayed_epochs();
    assert_eq!(replayed, 1, "one commit replayed past the checkpoint");
    // The secondary index answers (and is actually used for) a probe.
    let rs = db.execute("SELECT COUNT(*) FROM Account WHERE balance = 101").unwrap();
    assert!(matches!(rs.scalar(), Some(Value::Bigint(n)) if *n >= 1));
    // The view survived — through the checkpoint's rendered SQL.
    let rs = db.execute("SELECT COUNT(*) FROM Rich").unwrap();
    assert!(matches!(rs.scalar(), Some(Value::Bigint(n)) if *n >= 1));
    assert_eq!(total_balance(&db), Some(TOTAL));
    let _ = std::fs::remove_dir_all(&dir);
}
