//! Concurrency stress: writer threads commit transactional mutations while
//! reader threads traverse the graph and probe SQL under pinned snapshots.
//! Every single read — graph-level or SQL-level — must observe a conserved
//! invariant, proving that a query never mixes two database states (the
//! multi-statement anachronism this suite guards against).
//!
//! Scale knobs: `DB2GRAPH_STRESS_ROUNDS` (writer iterations per thread,
//! default 200) and `DB2GRAPH_THREADS` (intra-query fan-out width). CI
//! runs this suite in release mode with `DB2GRAPH_THREADS=8`.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;

use db2graph::core::{Db2Graph, ETableConfig, GraphOptions, OverlayConfig, VTableConfig};
use db2graph::gremlin::GValue;
use db2graph::reldb::Database;

fn stress_rounds() -> usize {
    std::env::var("DB2GRAPH_STRESS_ROUNDS")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(200)
}

fn open_with_threads(
    db: Arc<Database>,
    overlay: &OverlayConfig,
    threads: usize,
) -> Arc<Db2Graph> {
    open_observed(db, overlay, threads, false)
}

/// Like [`open_with_threads`]; `observed` turns the slow-query log on for
/// every query, so each run carries a collecting profiler — the shape
/// production runs in. Observed runs must pass the same invariants.
fn open_observed(
    db: Arc<Database>,
    overlay: &OverlayConfig,
    threads: usize,
    observed: bool,
) -> Arc<Db2Graph> {
    let options = GraphOptions {
        threads: Some(threads),
        slow_query_nanos: observed.then_some(0),
        ..Default::default()
    };
    Db2Graph::open_with_options(db, overlay, options).unwrap()
}

/// Join every writer, then tell the readers to stop — also when a writer
/// panicked, so a failing writer fails the test instead of leaving the
/// readers spinning forever.
fn join_then_stop(writers: Vec<ScopedJoinHandle<'_, ()>>, stop: &AtomicBool) {
    let results: Vec<_> = writers.into_iter().map(|w| w.join()).collect();
    stop.store(true, Ordering::Relaxed);
    for result in results {
        if let Err(panic) = result {
            std::panic::resume_unwind(panic);
        }
    }
}

/// The reader configurations of the cached-adjacency proofs: each thread
/// count, plain and observed.
const READERS: [(usize, bool); 6] =
    [(1, false), (2, false), (8, false), (1, true), (2, true), (8, true)];

// --------------------------------------------------------- value conservation

fn account_overlay() -> OverlayConfig {
    OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "Account".into(),
            prefixed_id: true,
            id: "'acct'::aid".into(),
            fix_label: true,
            label: "'acct'".into(),
            properties: Some(vec!["balance".into()]),
        }],
        e_tables: vec![],
    }
}

/// N writer threads transfer balance between accounts inside transactions;
/// M reader threads sum all balances through Gremlin traversals at several
/// fan-out widths. Money is conserved: *every* read sums to the initial
/// total, never to a state where one leg of a transfer has landed and the
/// other has not.
#[test]
fn transfers_conserve_the_total_balance_under_concurrent_readers() {
    const ACCOUNTS: i64 = 16;
    const TOTAL: i64 = ACCOUNTS * 100;
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE Account (aid BIGINT PRIMARY KEY, balance BIGINT)").unwrap();
    let rows: Vec<String> = (0..ACCOUNTS).map(|i| format!("({i}, 100)")).collect();
    db.execute(&format!("INSERT INTO Account VALUES {}", rows.join(", "))).unwrap();

    let overlay = account_overlay();
    let graphs: Vec<Arc<Db2Graph>> =
        [1, 2, 8].iter().map(|&t| open_with_threads(db.clone(), &overlay, t)).collect();

    let rounds = stress_rounds();
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..3usize)
            .map(|w| {
                let db = db.clone();
                s.spawn(move || {
                    for r in 0..rounds {
                        let from = (r as i64 + w as i64) % ACCOUNTS;
                        let to = (r as i64 * 7 + w as i64 * 3 + 1) % ACCOUNTS;
                        db.transaction(|db| {
                            db.execute(&format!(
                                "UPDATE Account SET balance = balance - 1 WHERE aid = {from}"
                            ))?;
                            db.execute(&format!(
                                "UPDATE Account SET balance = balance + 1 WHERE aid = {to}"
                            ))?;
                            Ok(())
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for g in &graphs {
            let g = g.clone();
            let stop = stop.clone();
            let reads = reads.clone();
            s.spawn(move || {
                // Each reader performs at least one full read, then keeps
                // going until the writers finish.
                let mut looked = false;
                while !looked || !stop.load(Ordering::Relaxed) {
                    let sum = g.run("g.V().values('balance').sum()").unwrap();
                    assert_eq!(
                        sum,
                        vec![GValue::Long(TOTAL)],
                        "a read observed a half-applied transfer (threads={})",
                        g.threads()
                    );
                    reads.fetch_add(1, Ordering::Relaxed);
                    looked = true;
                }
            });
        }
        join_then_stop(writers, &stop);
    });
    assert!(reads.load(Ordering::Relaxed) >= 3);
    let sum = graphs[0].run("g.V().values('balance').sum()").unwrap();
    assert_eq!(sum, vec![GValue::Long(TOTAL)]);
}

// ---------------------------------------------------- structure conservation

fn tree_overlay() -> OverlayConfig {
    OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "Node".into(),
            prefixed_id: true,
            id: "'node'::nid".into(),
            fix_label: true,
            label: "'node'".into(),
            properties: Some(vec!["val".into()]),
        }],
        e_tables: vec![ETableConfig {
            table_name: "Edge".into(),
            src_v_table: Some("Node".into()),
            src_v: "'node'::src".into(),
            dst_v_table: Some("Node".into()),
            dst_v: "'node'::dst".into(),
            prefixed_edge_id: false,
            implicit_edge_id: true,
            id: None,
            fix_label: true,
            label: "'child'".into(),
            properties: None,
        }],
    }
}

/// Writers grow and prune a tree — each commit inserts (node + edge to it)
/// or deletes (edge + node) atomically, so `nodes == edges + 1` holds in
/// every committed state. Readers verify the invariant two ways, both
/// under one pinned snapshot per read:
///
/// * SQL-level: both `COUNT(*)` statements run via
///   [`Database::execute_prepared_at`] against the same [`Snapshot`];
/// * graph-level: `.profile()` of `g.E().inV()` — the endpoint-resolution
///   step must emit exactly one vertex per edge (no dangling endpoints).
#[test]
fn tree_invariant_holds_at_every_snapshot_under_churn() {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Node (nid BIGINT PRIMARY KEY, val BIGINT);
         CREATE TABLE Edge (src BIGINT, dst BIGINT,
            FOREIGN KEY (src) REFERENCES Node(nid),
            FOREIGN KEY (dst) REFERENCES Node(nid));
         CREATE INDEX ix_edge_src ON Edge (src);
         CREATE INDEX ix_edge_dst ON Edge (dst);
         INSERT INTO Node VALUES (0, 0), (1, 1), (2, 2);
         INSERT INTO Edge VALUES (0, 1), (0, 2);",
    )
    .unwrap();

    let overlay = tree_overlay();
    let graphs: Vec<Arc<Db2Graph>> =
        [1, 2, 8].iter().map(|&t| open_with_threads(db.clone(), &overlay, t)).collect();

    const WRITERS: usize = 3;
    let rounds = stress_rounds();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Each writer owns a disjoint id range of `rounds` ids and
        // alternates: attach a leaf under the root, then remove it — always
        // node+edge in one transaction, so every commit preserves
        // nodes == edges + 1.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = db.clone();
                s.spawn(move || {
                    let base = 1_000 + (w * rounds) as i64;
                    for r in 0..rounds {
                        let nid = base + r as i64;
                        db.transaction(|db| {
                            db.execute(&format!("INSERT INTO Node VALUES ({nid}, {r})"))?;
                            db.execute(&format!("INSERT INTO Edge VALUES (0, {nid})"))?;
                            Ok(())
                        })
                        .unwrap();
                        if r % 2 == 0 {
                            db.transaction(|db| {
                                db.execute(&format!("DELETE FROM Edge WHERE dst = {nid}"))?;
                                db.execute(&format!("DELETE FROM Node WHERE nid = {nid}"))?;
                                Ok(())
                            })
                            .unwrap();
                        }
                    }
                })
            })
            .collect();
        // SQL-level readers: one pinned snapshot covers both counts.
        for _ in 0..2 {
            let db = db.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let nodes = db.prepare("SELECT COUNT(*) FROM Node").unwrap();
                let edges = db.prepare("SELECT COUNT(*) FROM Edge").unwrap();
                let mut looked = false;
                while !looked || !stop.load(Ordering::Relaxed) {
                    let snap = db.snapshot();
                    let n = db
                        .execute_prepared_at(&nodes, &[], &snap)
                        .unwrap()
                        .scalar()
                        .unwrap()
                        .as_i64()
                        .unwrap();
                    let e = db
                        .execute_prepared_at(&edges, &[], &snap)
                        .unwrap()
                        .scalar()
                        .unwrap()
                        .as_i64()
                        .unwrap();
                    assert_eq!(n, e + 1, "snapshot mixed two committed states");
                    looked = true;
                }
            });
        }
        // Graph-level readers: endpoint resolution never dangles.
        for g in &graphs {
            let g = g.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut looked = false;
                while !looked || !stop.load(Ordering::Relaxed) {
                    let (_, report) = g.profile("g.E().hasLabel('child').inV()").unwrap();
                    // inV() profiles as the endpoint-resolution step
                    // `EdgeVertex(In)`.
                    let inv = report
                        .steps
                        .iter()
                        .find(|s| s.description.contains("EdgeVertex"))
                        .expect("inV step profiled");
                    assert_eq!(
                        inv.out_count,
                        inv.in_count,
                        "dangling endpoint: {} edges resolved {} vertices (threads={})",
                        inv.in_count,
                        inv.out_count,
                        g.threads()
                    );
                    looked = true;
                }
            });
        }
        join_then_stop(writers, &stop);
    });

    // Quiesced end state still satisfies the invariant, and versions dead
    // to every snapshot are reclaimable.
    let n = db.execute("SELECT COUNT(*) FROM Node").unwrap().scalar().unwrap().as_i64().unwrap();
    let e = db.execute("SELECT COUNT(*) FROM Edge").unwrap().scalar().unwrap().as_i64().unwrap();
    assert_eq!(n, e + 1);
    db.vacuum();
}

// --------------------------------------------------- adjacency-cache validity

/// Deterministic cached-path variant of the writer-interleaving tests in
/// `tests/parallel_exec.rs`: the adjacency cache is warmed, a traversal
/// pins its snapshot, and a writer commits a new edge *between* the
/// traversal's vertex scan and its adjacency expansion (interleaved via
/// the dialect's statement hook — the vertex scan always reaches SQL even
/// when adjacency is fully cached). The commit advances the cache's
/// per-table watermark past the traversal's snapshot, so the warmed
/// segment must be dropped and the expansion re-probed through SQL at the
/// pinned snapshot: the running query must NOT see the new edge — neither
/// from SQL nor, crucially, from a stale cache segment — while a fresh
/// query must. Plain and observed runs alike, at every thread count.
#[test]
fn commit_mid_traversal_invalidates_cached_adjacency_without_leaks() {
    for (threads, observed) in READERS {
        let db = Arc::new(Database::new());
        db.execute_script(
            "CREATE TABLE Node (nid BIGINT PRIMARY KEY, val BIGINT);
             CREATE TABLE Edge (src BIGINT, dst BIGINT);
             INSERT INTO Node VALUES (0, 0), (1, 1), (2, 2);
             INSERT INTO Edge VALUES (0, 1), (0, 2);",
        )
        .unwrap();
        let overlay = tree_overlay();
        let g = open_observed(db.clone(), &overlay, threads, observed);
        assert!(g.warm_adjacency_cache().unwrap() > 0);

        // Sanity: the warmed cache serves this adjacency without SQL.
        let before = g.metrics();
        assert_eq!(g.run("g.V().out().count()").unwrap(), vec![GValue::Long(2)]);
        assert!(
            g.metrics().adj_cache_hits > before.adj_cache_hits,
            "warmed lookup did not hit the cache (threads={threads}, observed={observed})"
        );

        let fired = Arc::new(AtomicBool::new(false));
        let hook_db = db.clone();
        let hook_fired = fired.clone();
        g.dialect().set_statement_hook(Some(Arc::new(move |template: &str| {
            if template.contains("FROM Node") && !hook_fired.swap(true, Ordering::SeqCst) {
                hook_db
                    .transaction(|db| {
                        db.execute("INSERT INTO Node VALUES (99, 99)")?;
                        db.execute("INSERT INTO Edge VALUES (0, 99)")?;
                        Ok(())
                    })
                    .unwrap();
            }
        })));
        let out = g.run("g.V().out().count()").unwrap();
        g.dialect().set_statement_hook(None);
        assert!(
            fired.load(Ordering::SeqCst),
            "the writer never ran (threads={threads}, observed={observed})"
        );
        assert_eq!(
            out,
            vec![GValue::Long(2)],
            "a post-snapshot edge leaked into a pinned traversal \
             (threads={threads}, observed={observed})"
        );
        assert!(
            g.metrics().adj_cache_invalidations >= 1,
            "the commit did not invalidate the warmed segment \
             (threads={threads}, observed={observed})"
        );
        // A fresh query pins a snapshot after the commit: it must see the
        // new edge (and may repopulate the cache at the new watermark).
        assert_eq!(g.run("g.V().out().count()").unwrap(), vec![GValue::Long(3)]);
    }
}

fn churn_overlay() -> OverlayConfig {
    let edge = |table: &str, label: &str| ETableConfig {
        table_name: table.into(),
        src_v_table: Some("Node".into()),
        src_v: "'node'::src".into(),
        dst_v_table: Some("Node".into()),
        dst_v: "'node'::dst".into(),
        prefixed_edge_id: false,
        implicit_edge_id: true,
        id: None,
        fix_label: true,
        label: format!("'{label}'"),
        properties: None,
    };
    OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "Node".into(),
            prefixed_id: true,
            id: "'node'::nid".into(),
            fix_label: true,
            label: "'node'".into(),
            properties: Some(vec!["val".into()]),
        }],
        e_tables: vec![edge("Stable", "stable"), edge("Churn", "churn")],
    }
}

/// Writer churn against a cached adjacency: two edge tables hang off one
/// vertex table — `Stable` is never written (so its warmed segment stays
/// valid and every read of it must be a cache hit) and `Churn` takes a
/// stream of transactional edge-pair inserts/deletes (so its segments are
/// invalidated over and over). Readers at several fan-out widths, plain
/// and observed, assert two conserved invariants on every single read:
///
/// * the stable out-degree of the root is always exactly 4;
/// * the churned out-degree is always even, because writers only ever
///   commit edge *pairs* atomically — an odd count means a lookup mixed a
///   cache segment from one committed state with SQL from another.
///
/// This is the workload behind the `adjcache-stress` CI job; set
/// `DB2GRAPH_METRICS_SNAPSHOT_PATH` to export the plain 8-thread graph's
/// final metrics snapshot as a JSON artifact.
#[test]
fn cached_adjacency_stays_consistent_under_writer_churn() {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Node (nid BIGINT PRIMARY KEY, val BIGINT);
         CREATE TABLE Stable (src BIGINT, dst BIGINT);
         CREATE TABLE Churn (src BIGINT, dst BIGINT, tag BIGINT);
         INSERT INTO Node VALUES (0, 0), (1, 1), (2, 2), (3, 3), (4, 4);
         INSERT INTO Stable VALUES (0, 1), (0, 2), (0, 3), (0, 4);",
    )
    .unwrap();

    let overlay = churn_overlay();
    let graphs: Vec<Arc<Db2Graph>> = READERS
        .iter()
        .map(|&(t, observed)| open_observed(db.clone(), &overlay, t, observed))
        .collect();
    for g in &graphs {
        // Warm both edge tables (Churn warms to a complete-but-empty
        // segment), so the very first post-commit read must invalidate.
        assert!(g.warm_adjacency_cache().unwrap() > 0);
    }

    let count_of = |g: &Db2Graph, q: &str| -> i64 {
        match g.run(q).unwrap()[..] {
            [GValue::Long(n)] => n,
            ref v => panic!("expected a single count, got {v:?}"),
        }
    };

    const WRITERS: usize = 3;
    let rounds = stress_rounds();
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        // Each commit inserts or deletes a *pair* of churn edges, so the
        // root's churned out-degree is even in every committed state.
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let db = db.clone();
                s.spawn(move || {
                    for r in 0..rounds {
                        let tag = 1_000_000 * (w as i64 + 1) + r as i64;
                        db.transaction(|db| {
                            db.execute(&format!(
                                "INSERT INTO Churn VALUES (0, 1, {tag}), (0, 2, {tag})"
                            ))?;
                            Ok(())
                        })
                        .unwrap();
                        if r % 2 == 0 {
                            db.transaction(|db| {
                                db.execute(&format!("DELETE FROM Churn WHERE tag = {tag}"))?;
                                Ok(())
                            })
                            .unwrap();
                        }
                    }
                })
            })
            .collect();
        for (g, (threads, observed)) in graphs.iter().zip(READERS) {
            let g = g.clone();
            let stop = stop.clone();
            s.spawn(move || {
                let mut looked = false;
                while !looked || !stop.load(Ordering::Relaxed) {
                    let stable = count_of(&g, "g.V().out('stable').count()");
                    assert_eq!(
                        stable,
                        4,
                        "the never-written table changed under a reader \
                         (threads={threads}, observed={observed})"
                    );
                    let churn = count_of(&g, "g.V().out('churn').count()");
                    assert_eq!(
                        churn % 2,
                        0,
                        "a read mixed two committed states: odd churn degree {churn} \
                         (threads={threads}, observed={observed})"
                    );
                    looked = true;
                }
            });
        }
        join_then_stop(writers, &stop);
    });

    for (g, (threads, observed)) in graphs.iter().zip(READERS) {
        // One quiesced read per graph: if no reader happened to probe the
        // churn table after the last commit, this read finds the stale
        // segment and invalidates it now.
        let churn = count_of(g, "g.V().out('churn').count()");
        assert_eq!(churn % 2, 0);
        assert_eq!(count_of(g, "g.V().out('stable').count()"), 4);
        let m = g.metrics();
        let who = format!("threads={threads}, observed={observed}");
        assert!(m.adj_cache_hits > 0, "no cache hits under churn ({who})");
        assert!(m.adj_cache_invalidations >= 1, "writer churn never invalidated a segment ({who})");
        assert!(m.adj_cache_bytes > 0, "cache empty after churn ({who})");
    }
    if let Ok(path) = std::env::var("DB2GRAPH_METRICS_SNAPSHOT_PATH") {
        let snap = graphs[2].metrics().to_json().to_string();
        std::fs::write(&path, snap).unwrap();
    }
}
