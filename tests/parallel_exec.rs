//! Parallel execution semantics: sequential (1 thread) and fan-out (4
//! threads) execution must return identical results and identical profiles
//! modulo timing; TinkerPop corner cases (self-loops under `both()`,
//! duplicate frontier vertices) are pinned under both modes; and the
//! bucketed IN-list templates keep the prepared cache O(log frontier).

use std::sync::Arc;

use db2graph::core::{
    Db2Graph, ETableConfig, GraphOptions, OverlayConfig, ProfileReport, TableAction, VTableConfig,
};
use db2graph::gremlin::GValue;
use db2graph::linkbench::queries::get_node;
use db2graph::linkbench::{
    generate, materialize, overlay_config, GraphData, LinkBenchConfig, QueryKind, QueryStream,
};
use db2graph::reldb::Database;

/// A social graph with a self-loop: Ann knows herself.
fn social_db() -> Arc<Database> {
    social_db_with_knows(
        ",
            FOREIGN KEY (a) REFERENCES Person(pid),
            FOREIGN KEY (b) REFERENCES Person(pid)",
    )
}

/// [`social_db`] with `constraints` closing the Knows column list.
fn social_db_with_knows(constraints: &str) -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute_script(&format!(
        "CREATE TABLE Person (pid BIGINT PRIMARY KEY, name VARCHAR, age BIGINT);
         CREATE TABLE Company (cid BIGINT PRIMARY KEY, cname VARCHAR);
         CREATE TABLE WorksAt (pid BIGINT, cid BIGINT, since BIGINT,
            FOREIGN KEY (pid) REFERENCES Person(pid),
            FOREIGN KEY (cid) REFERENCES Company(cid));
         CREATE TABLE Knows (a BIGINT, b BIGINT, metIn VARCHAR{constraints});
         CREATE INDEX ix_knows_a ON Knows (a);
         CREATE INDEX ix_knows_b ON Knows (b);
         INSERT INTO Person VALUES (1, 'Ann', 34), (2, 'Bo', 28), (3, 'Cy', 45), (4, 'Di', 31);
         INSERT INTO Company VALUES (1, 'Initech'), (2, 'Globex');
         INSERT INTO WorksAt VALUES (1, 1, 2015), (2, 1, 2020), (3, 2, 2010);
         INSERT INTO Knows VALUES (1, 1, 'XX'), (1, 2, 'US'), (2, 3, 'DE'), (1, 3, 'US'), (3, 4, 'FR');",
    ))
    .unwrap();
    db
}

fn social_overlay() -> OverlayConfig {
    OverlayConfig {
        v_tables: vec![
            VTableConfig {
                table_name: "Person".into(),
                prefixed_id: true,
                id: "'person'::pid".into(),
                fix_label: true,
                label: "'person'".into(),
                properties: Some(vec!["name".into(), "age".into()]),
            },
            VTableConfig {
                table_name: "Company".into(),
                prefixed_id: true,
                id: "'company'::cid".into(),
                fix_label: true,
                label: "'company'".into(),
                properties: Some(vec!["cname".into()]),
            },
        ],
        e_tables: vec![
            ETableConfig {
                table_name: "WorksAt".into(),
                src_v_table: Some("Person".into()),
                src_v: "'person'::pid".into(),
                dst_v_table: Some("Company".into()),
                dst_v: "'company'::cid".into(),
                prefixed_edge_id: false,
                implicit_edge_id: true,
                id: None,
                fix_label: true,
                label: "'worksAt'".into(),
                properties: Some(vec!["since".into()]),
            },
            ETableConfig {
                table_name: "Knows".into(),
                src_v_table: Some("Person".into()),
                src_v: "'person'::a".into(),
                dst_v_table: Some("Person".into()),
                dst_v: "'person'::b".into(),
                prefixed_edge_id: false,
                implicit_edge_id: true,
                id: None,
                fix_label: true,
                label: "'knows'".into(),
                properties: Some(vec!["metIn".into()]),
            },
        ],
    }
}

fn open_with_threads(db: Arc<Database>, threads: usize) -> Arc<Db2Graph> {
    let options = GraphOptions { threads: Some(threads), ..Default::default() };
    Db2Graph::open_with_options(db, &social_overlay(), options).unwrap()
}

/// Like [`open_with_threads`] but with the adjacency cache pinned off —
/// for tests whose statement-hook harness requires every adjacency probe
/// to reach SQL.
fn open_no_cache(db: Arc<Database>, threads: usize) -> Arc<Db2Graph> {
    let options = GraphOptions {
        threads: Some(threads),
        adj_cache_mb: Some(0),
        ..Default::default()
    };
    Db2Graph::open_with_options(db, &social_overlay(), options).unwrap()
}

/// Queries exercising every fan-out path: GraphStep over all tables,
/// adjacency in each direction, endpoint resolution, aggregates,
/// projections, and multi-label scans.
const CORPUS: &[&str] = &[
    "g.V().count()",
    "g.E().count()",
    "g.V().values('name')",
    "g.V().hasLabel('person').out('knows').values('name')",
    "g.V().hasLabel('person').in('knows').count()",
    "g.V('person::1').both('knows').values('name')",
    "g.V('person::1').bothE('knows').values('metIn')",
    "g.V('person::1', 'person::2', 'person::3').outE('knows').inV().values('name')",
    "g.V().out('worksAt').values('cname')",
    "g.E().hasLabel('knows').outV().dedup().count()",
    "g.V().values('age').sum()",
    "g.V().values('age').mean()",
    "g.V().has('metIn', 'US')",
];

#[test]
fn parallel_results_match_sequential_on_corpus() {
    let db = social_db();
    let g1 = open_with_threads(db.clone(), 1);
    let g4 = open_with_threads(db, 4);
    for q in CORPUS {
        let seq = g1.run(q).unwrap();
        let par = g4.run(q).unwrap();
        assert_eq!(seq, par, "results diverge for {q}");
    }
}

#[test]
fn parallel_profile_matches_sequential_modulo_timing() {
    let db = social_db();
    let g1 = open_with_threads(db.clone(), 1);
    let g4 = open_with_threads(db, 4);
    for q in CORPUS {
        let (v1, p1) = g1.profile(q).unwrap();
        let (v4, p4) = g4.profile(q).unwrap();
        assert_eq!(v1, v4, "profiled results diverge for {q}");
        // Step structure: same descriptions and frontier counts.
        let steps = |p: &db2graph::core::ProfileReport| {
            p.steps
                .iter()
                .map(|s| (s.index, s.description.clone(), s.in_count, s.out_count))
                .collect::<Vec<_>>()
        };
        assert_eq!(steps(&p1), steps(&p4), "step profiles diverge for {q}");
        // Table decisions arrive in the same order (forks are absorbed in
        // job order, so scheduling cannot reorder them).
        let tables = |p: &db2graph::core::ProfileReport| {
            p.tables.iter().map(|t| (t.table.clone(), t.action.clone())).collect::<Vec<_>>()
        };
        assert_eq!(tables(&p1), tables(&p4), "table decisions diverge for {q}");
        // Same SQL statements in the same order, with the same cache
        // outcomes (both graphs replay the corpus from a cold cache).
        let stmts = |p: &db2graph::core::ProfileReport| {
            p.statements
                .iter()
                .map(|s| (s.sql.clone(), s.template_hit, s.rows))
                .collect::<Vec<_>>()
        };
        assert_eq!(stmts(&p1), stmts(&p4), "statement profiles diverge for {q}");
    }
}

#[test]
fn tracing_does_not_change_the_profile() {
    // The profile is derived from the same spans whether or not they then
    // reach the trace sink, so a traced graph profiles every corpus query
    // exactly like an untraced one, modulo timing and template_hit.
    let db = social_db();
    let open = |trace: bool| {
        let options = GraphOptions { threads: Some(4), trace: Some(trace), ..Default::default() };
        Db2Graph::open_with_options(db.clone(), &social_overlay(), options).unwrap()
    };
    let (traced, untraced) = (open(true), open(false));
    assert!(traced.trace_sink().is_some() && untraced.trace_sink().is_none());
    let timeless = |mut p: ProfileReport| {
        p.steps.iter_mut().for_each(|s| s.nanos = 0);
        for s in &mut p.statements {
            (s.nanos, s.template_hit) = (0, false);
        }
        p.to_json().to_pretty()
    };
    for q in CORPUS {
        let (v_traced, p_traced) = traced.profile(q).unwrap();
        let (v_untraced, p_untraced) = untraced.profile(q).unwrap();
        assert_eq!(v_traced, v_untraced, "results diverge for {q}");
        assert!(!p_traced.steps.is_empty(), "empty profile for {q}");
        assert_eq!(timeless(p_traced), timeless(p_untraced), "profiles diverge for {q}");
    }
    assert!(traced.trace_sink().unwrap().total() > 0);
}

#[test]
fn cold_warm_and_disabled_caches_agree_on_corpus() {
    // The adjacency cache must be invisible to results: every corpus query
    // returns the same values from a cold cache (lazily populating), a warm
    // cache (serving from cached rows), an explicitly warmed cache
    // (complete segments from a full scan), and no cache at all. Profiled
    // runs use the cache too, and their profiles say exactly what it
    // served — at every thread count.
    let db = social_db();
    let mut served_anywhere = false;
    for threads in [1, 2, 8] {
        let g_off = open_no_cache(db.clone(), threads);
        let g_on = open_with_threads(db.clone(), threads);
        let g_warmed = open_with_threads(db.clone(), threads);
        assert!(g_warmed.warm_adjacency_cache().unwrap() > 0);
        for q in CORPUS {
            let reference = g_off.run(q).unwrap();
            let cold = g_on.run(q).unwrap();
            let warm = g_on.run(q).unwrap();
            let warmed = g_warmed.run(q).unwrap();
            assert_eq!(cold, reference, "threads={threads}: cold cache diverges for {q}");
            assert_eq!(warm, reference, "threads={threads}: warm cache diverges for {q}");
            assert_eq!(warmed, reference, "threads={threads}: warmed cache diverges for {q}");

            let steps = |p: &ProfileReport| {
                p.steps
                    .iter()
                    .map(|s| (s.index, s.description.clone(), s.in_count, s.out_count))
                    .collect::<Vec<_>>()
            };
            let shape = |p: &ProfileReport| {
                (
                    steps(p),
                    p.tables
                        .iter()
                        .map(|t| (t.table.clone(), t.action.clone()))
                        .collect::<Vec<_>>(),
                    p.statements
                        .iter()
                        .map(|s| (s.sql.clone(), s.rows))
                        .collect::<Vec<_>>(),
                )
            };
            // A cold-cache profile is the cache-off profile exactly: misses
            // are chunked like the SQL path, so steps, table decisions and
            // statements all match.
            let (v_off, p_off) = g_off.profile(q).unwrap();
            let g_cold = open_with_threads(db.clone(), threads);
            let (v_cold, p_cold) = g_cold.profile(q).unwrap();
            assert_eq!(v_off, v_cold, "threads={threads}: profiled results diverge for {q}");
            assert_eq!(
                shape(&p_off),
                shape(&p_cold),
                "threads={threads}: cold-cache profile differs from cache-off for {q}"
            );
            // A warm profile has the same steps and results; its CacheHit
            // entries name the served tables, and no adjacency statement
            // reaches them.
            let (v_warm, p_warm) = g_cold.profile(q).unwrap();
            assert_eq!(v_warm, v_off, "threads={threads}: warm profiled results diverge for {q}");
            assert_eq!(steps(&p_warm), steps(&p_off), "threads={threads}: steps diverge for {q}");
            for t in p_warm.tables.iter().filter(|t| t.action == TableAction::CacheHit) {
                served_anywhere = true;
                let probe = format!("FROM {} WHERE", t.table);
                assert!(
                    !p_warm.statements.iter().any(|s| s.sql.contains(&probe)),
                    "threads={threads}: {} served from the cache but probed for {q}:\n{p_warm}",
                    t.table
                );
            }
        }
        // The warm passes really were served from the cache.
        let m = g_on.metrics();
        assert!(m.adj_cache_hits > 0, "threads={threads}: no cache hits recorded: {m:?}");
        assert!(m.adj_cache_bytes > 0, "threads={threads}: cache reports empty: {m:?}");
        let m = g_warmed.metrics();
        assert!(m.adj_cache_hits > 0, "threads={threads}: warmed graph never hit: {m:?}");
        // ... and the cache-disabled graph never touched a cache.
        let m = g_off.metrics();
        assert_eq!(m.adj_cache_hits + m.adj_cache_misses + m.adj_cache_bytes, 0, "{m:?}");
    }
    assert!(served_anywhere, "no warm profile recorded a CacheHit");
}

/// A 500-vertex LinkBench graph: ten fixed-label vertex tables and ten
/// fixed-label edge tables, the layout of the paper's Table 1 queries.
fn linkbench_graph(options: GraphOptions) -> (GraphData, Arc<Db2Graph>) {
    let data = generate(&LinkBenchConfig::small().with_vertices(500));
    let (db, _) = materialize(&data).unwrap();
    let g = Db2Graph::open_with_options(db, &overlay_config(), options).unwrap();
    (data, g)
}

#[test]
fn parallel_trace_structure_matches_sequential() {
    // The span *tree* must be deterministic across thread counts: worker
    // forks are absorbed in job order and re-parented under the fan-out
    // site, so the timing-free structure rendering is identical at 1 and 4
    // threads — spans differ only in timestamps.
    let db = social_db();
    let open_traced = |db: Arc<Database>, threads: usize| {
        let options = GraphOptions {
            threads: Some(threads),
            trace: Some(true),
            trace_capacity: Some(1 << 20),
            ..Default::default()
        };
        Db2Graph::open_with_options(db, &social_overlay(), options).unwrap()
    };
    let g1 = open_traced(db.clone(), 1);
    let g4 = open_traced(db, 4);
    for q in CORPUS {
        assert_eq!(g1.run(q).unwrap(), g4.run(q).unwrap(), "results diverge for {q}");
    }
    let seq = g1.trace_sink().unwrap().structure_lines();
    let par = g4.trace_sink().unwrap().structure_lines();
    assert!(!seq.is_empty());
    assert_eq!(seq, par, "trace structure diverges between 1 and 4 threads");
    // The corpus exercises every layer: the combined trace must contain
    // query, step, table, sql and worker spans, with sql nesting under a
    // worker under a step under a query.
    for kind in ["[query|", "[step|", "[table|", "[sql|", "[worker|"] {
        assert!(seq.iter().any(|l| l.starts_with(kind)), "no {kind} span in trace");
    }
    assert!(
        seq.iter().any(|l| l.starts_with("[sql|") && l.contains(" > worker > ")),
        "no sql span nested under a worker span:\n{}",
        seq.join("\n")
    );

    // getNode over ten fixed-label vertex tables: the coordinator records
    // nine pruned tables and one queried, in table order, and the one read
    // runs inline — the same decisions, statements and span tree at 1, 2
    // and 8 threads, with no pool job in the trace.
    let mut reference: Option<(Vec<String>, Vec<String>)> = None;
    for threads in [1, 2, 8] {
        let (data, g) = linkbench_graph(GraphOptions {
            threads: Some(threads),
            trace: Some(true),
            trace_capacity: Some(1 << 20),
            ..Default::default()
        });
        let label = data.vertex_label(17).to_string();
        let (values, p) = g.profile(&get_node(17, &label)).unwrap();
        assert_eq!(values.len(), 1, "threads={threads}: getNode finds its vertex");
        let decisions: Vec<(String, bool)> = p
            .tables
            .iter()
            .map(|t| match &t.action {
                TableAction::Pruned(_) => (t.table.clone(), false),
                TableAction::Queried => (t.table.clone(), true),
                other => panic!("threads={threads}: unexpected decision {other:?}"),
            })
            .collect();
        let expected: Vec<(String, bool)> = (0..10)
            .map(|k| (format!("nodes_vt{k}"), format!("vt{k}") == label))
            .collect();
        assert_eq!(decisions, expected, "threads={threads}: table decisions");
        let statements: Vec<String> = p.statements.iter().map(|s| s.sql.clone()).collect();
        assert_eq!(statements.len(), 1, "threads={threads}: {statements:?}");
        let trace = g.trace_sink().unwrap().structure_lines();
        assert!(
            !trace.iter().any(|l| l.starts_with("[worker|")),
            "threads={threads}: a one-table read reached the pool:\n{}",
            trace.join("\n")
        );
        match &reference {
            None => reference = Some((statements, trace)),
            Some((stmts, lines)) => {
                assert_eq!(&statements, stmts, "threads={threads}: statements diverge");
                assert_eq!(&trace, lines, "threads={threads}: trace structure diverges");
            }
        }
    }
}

#[test]
fn one_table_point_queries_run_on_the_calling_thread() {
    // Table 1's four shapes each read one table after pruning. The
    // coordinator plans every table, so at 8 threads the one read runs
    // inline: every statement executes on the thread that called run().
    use std::sync::Mutex;
    use std::thread::ThreadId;
    let (data, g) =
        linkbench_graph(GraphOptions { threads: Some(8), ..Default::default() });
    let ran_on: Arc<Mutex<Vec<ThreadId>>> = Arc::default();
    let hook_ran_on = ran_on.clone();
    g.dialect().set_statement_hook(Some(Arc::new(move |_: &str| {
        hook_ran_on.lock().unwrap().push(std::thread::current().id());
    })));
    let mut queries = 0;
    for kind in QueryKind::ALL {
        for q in QueryStream::new(&data, kind, 11).batch(200) {
            g.run(&q).unwrap();
            queries += 1;
        }
    }
    g.dialect().set_statement_hook(None);
    let caller = std::thread::current().id();
    let ran_on = ran_on.lock().unwrap();
    assert!(ran_on.len() >= queries, "{} statements for {queries} queries", ran_on.len());
    let elsewhere = ran_on.iter().filter(|&&t| t != caller).count();
    assert_eq!(elsewhere, 0, "{elsewhere} of {} statements left the calling thread", ran_on.len());
}

#[test]
fn self_loop_surfaces_once_per_incident_direction() {
    // Ann knows Ann: under TinkerPop semantics bothE() emits the self-loop
    // edge once for the out-incidence and once for the in-incidence.
    let db = social_db();
    for threads in [1, 4] {
        let g = open_with_threads(db.clone(), threads);
        let out = g.run("g.V('person::1').bothE('knows').count()").unwrap();
        // out-edges: 1->1, 1->2, 1->3; in-edges: 1->1 again.
        assert_eq!(out, vec![GValue::Long(4)], "threads={threads}");
        let out = g.run("g.V('person::1').both('knows').count()").unwrap();
        assert_eq!(out, vec![GValue::Long(4)], "threads={threads}");
        // The self-loop neighbor is Ann herself, twice.
        let out = g
            .run("g.V('person::1').both('knows').hasId('person::1').count()")
            .unwrap();
        assert_eq!(out, vec![GValue::Long(2)], "threads={threads}");
    }
}

#[test]
fn duplicate_frontier_vertices_keep_their_positions() {
    // A vertex appearing twice in a traversal frontier (here: Ann, reached
    // once per incident direction of her self-loop) produces its adjacency
    // once per frontier position, not once per distinct id.
    let db = social_db();
    for threads in [1, 4] {
        let g = open_with_threads(db.clone(), threads);
        let once = g.run("g.V('person::1').out('knows').count()").unwrap();
        assert_eq!(once, vec![GValue::Long(3)], "threads={threads}");
        // both('knows').hasId('person::1') puts Ann in the frontier twice.
        let twice = g
            .run("g.V('person::1').both('knows').hasId('person::1').out('knows').count()")
            .unwrap();
        assert_eq!(twice, vec![GValue::Long(6)], "threads={threads}");
        let mut names = g
            .run("g.V('person::1').both('knows').hasId('person::1').out('knows').values('name')")
            .unwrap();
        names.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
        assert_eq!(
            names,
            vec![
                GValue::Str("Ann".into()),
                GValue::Str("Ann".into()),
                GValue::Str("Bo".into()),
                GValue::Str("Bo".into()),
                GValue::Str("Cy".into()),
                GValue::Str("Cy".into()),
            ],
            "threads={threads}"
        );
    }
}

#[test]
fn id_only_hops_keep_the_dangling_edge_guard() {
    // Two Knows rows whose Person endpoint 99 does not exist (this Knows
    // has no foreign keys): 1 -> 99 and 99 -> 2. A hop whose elements
    // later steps read only for ids (count, id, dedup, a next hop) reads
    // no vertex properties, but still resolves its targets against the
    // vertex table; that semi-join drops 99. So each traversal must count
    // exactly the elements the same traversal without its terminal step
    // returns, at every thread count, with the adjacency cache off, lazily
    // filled, and warmed.
    let db = social_db_with_knows("");
    db.execute("INSERT INTO Knows VALUES (1, 99, 'ZZ'), (99, 2, 'ZZ')").unwrap();
    // (traversal, the same without its terminal step, expected size)
    let cases: &[(&str, &str, usize)] = &[
        ("g.V('person::1').out('knows').count()", "g.V('person::1').out('knows')", 3),
        ("g.V('person::1').out('knows').id()", "g.V('person::1').out('knows')", 3),
        (
            "g.V('person::1').out('knows').dedup().count()",
            "g.V('person::1').out('knows').dedup()",
            3,
        ),
        (
            "g.V('person::1').outE('knows').inV().count()",
            "g.V('person::1').outE('knows').inV()",
            3,
        ),
        (
            "g.V('person::1').out('knows').out('knows').count()",
            "g.V('person::1').out('knows').out('knows')",
            5,
        ),
        (
            "g.V('person::1').out('knows').out('knows').dedup().count()",
            "g.V('person::1').out('knows').out('knows').dedup()",
            4,
        ),
        (
            "g.V().hasLabel('person').out('knows').count()",
            "g.V().hasLabel('person').out('knows')",
            5,
        ),
        ("g.V('person::2').both('knows').count()", "g.V('person::2').both('knows')", 2),
    ];
    let size = |q: &str, values: Vec<GValue>| match (q.ends_with(".count()"), &values[..]) {
        (true, [GValue::Long(n)]) => *n as usize,
        (true, other) => panic!("{q}: not one count: {other:?}"),
        (false, _) => values.len(),
    };
    for threads in [1, 2, 8] {
        let lazy = open_with_threads(db.clone(), threads);
        let warmed = open_with_threads(db.clone(), threads);
        assert!(warmed.warm_adjacency_cache().unwrap() > 0);
        let off = open_no_cache(db.clone(), threads);
        let graphs = [("off", off), ("lazy", lazy), ("warmed", warmed)];
        for (cache, g) in &graphs {
            // Twice: the lazy cache is cold on the first pass, warm on the
            // second.
            for pass in 0..2 {
                for &(q, elements, expected) in cases {
                    let at = format!("threads={threads}, cache {cache}, pass {pass}: {q}");
                    let whole = g.run(elements).unwrap();
                    assert!(
                        whole.iter().all(|v| matches!(v, GValue::Vertex(_))),
                        "{at}: {whole:?}"
                    );
                    assert_eq!(whole.len(), expected, "{at}: elements {whole:?}");
                    assert_eq!(size(q, g.run(q).unwrap()), expected, "{at}");
                }
            }
        }
    }
}

// ----------------------------------------------------- snapshot consistency

/// Sort a result list into a canonical order for comparison.
fn sorted(mut values: Vec<GValue>) -> Vec<GValue> {
    values.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
    values
}

#[test]
fn writer_commit_mid_traversal_is_invisible_to_the_running_query() {
    // Regression: each generated statement used to read the latest
    // committed state, so a writer committing *between* the frontier scan
    // and the adjacency probe leaked future rows into a running traversal
    // (an anachronism: the query mixed two database states). The whole
    // script now reads the snapshot pinned at run() entry — at any thread
    // count, across every fan-out worker.
    use std::sync::atomic::{AtomicBool, Ordering};
    for threads in [1, 2, 8] {
        let db = social_db();
        // Cache off: this harness interleaves via the statement hook, so
        // the second run's adjacency probe must reach SQL. The cached
        // variant of this scenario lives in stress_consistency.rs.
        let g = open_no_cache(db.clone(), threads);
        let traversal = "g.V().hasLabel('person').out('knows').values('name')";
        let baseline = sorted(g.run(traversal).unwrap());

        // Deterministic interleaving via the dialect's statement hook: the
        // first statement touching the edge table means the Person frontier
        // scan has already executed — exactly the window where a concurrent
        // commit used to split the traversal across two states.
        let fired = Arc::new(AtomicBool::new(false));
        let hook_db = db.clone();
        let hook_fired = fired.clone();
        g.dialect().set_statement_hook(Some(Arc::new(move |template: &str| {
            if template.contains("FROM Knows") && !hook_fired.swap(true, Ordering::SeqCst) {
                hook_db.execute("INSERT INTO Person VALUES (9, 'Zed', 52)").unwrap();
                hook_db
                    .execute(
                        "INSERT INTO Knows VALUES (1, 9, 'ZZ'), (2, 9, 'ZZ'), \
                         (3, 9, 'ZZ'), (4, 9, 'ZZ')",
                    )
                    .unwrap();
            }
        })));
        let mid = sorted(g.run(traversal).unwrap());
        g.dialect().set_statement_hook(None);
        assert!(fired.load(Ordering::SeqCst), "threads={threads}: the writer never ran");
        assert_eq!(
            mid, baseline,
            "threads={threads}: a mid-traversal commit leaked into a running query"
        );

        // The commit is real — a *fresh* query (fresh snapshot) sees it.
        let after = g
            .run("g.V().hasLabel('person').out('knows').has('name', 'Zed').count()")
            .unwrap();
        assert_eq!(after, vec![GValue::Long(4)], "threads={threads}");
    }
}

#[test]
fn endpoint_delete_mid_traversal_leaves_no_dangling_edges() {
    // Phantom-vertex regression: an endpoint deleted between the edge scan
    // and the endpoint lookup used to produce a dangling edge — the edge
    // row from one state, no vertex row from the next. Under the pinned
    // snapshot the traversal sees both rows (the pre-delete state); a fresh
    // query afterwards sees neither.
    use std::sync::atomic::{AtomicBool, Ordering};
    for threads in [1, 2, 8] {
        let db = social_db();
        // Cache off: the hook below must see this query's own statements.
        let g = open_no_cache(db.clone(), threads);
        let fired = Arc::new(AtomicBool::new(false));
        let hook_db = db.clone();
        let hook_fired = fired.clone();
        // The first Person statement of this traversal is the endpoint
        // lookup — the edge scan has already run. Delete vertex Di and her
        // incident edge atomically right in that window.
        g.dialect().set_statement_hook(Some(Arc::new(move |template: &str| {
            if template.contains("FROM Person") && !hook_fired.swap(true, Ordering::SeqCst) {
                hook_db
                    .transaction(|db| {
                        db.execute("DELETE FROM Knows WHERE b = 4")?;
                        db.execute("DELETE FROM Person WHERE pid = 4")?;
                        Ok(())
                    })
                    .unwrap();
            }
        })));
        let names = sorted(g.run("g.E().hasLabel('knows').inV().values('name')").unwrap());
        g.dialect().set_statement_hook(None);
        assert!(fired.load(Ordering::SeqCst), "threads={threads}: the deleter never ran");
        // All five edges resolve an endpoint, including 3 -> Di.
        assert_eq!(
            names,
            vec![
                GValue::Str("Ann".into()),
                GValue::Str("Bo".into()),
                GValue::Str("Cy".into()),
                GValue::Str("Cy".into()),
                GValue::Str("Di".into()),
            ],
            "threads={threads}: endpoint lookup must see the same state as the edge scan"
        );
        // A fresh snapshot sees both rows gone — never an edge without its
        // endpoint or vice versa.
        assert_eq!(
            g.run("g.E().hasLabel('knows').count()").unwrap(),
            vec![GValue::Long(4)],
            "threads={threads}"
        );
        assert_eq!(
            g.run("g.V().hasId('person::4').count()").unwrap(),
            vec![GValue::Long(0)],
            "threads={threads}"
        );
    }
}

#[test]
fn ddl_between_queries_reprepares_cached_templates() {
    // The dialect's template cache is stamped with the catalog generation;
    // DDL (here: drop + recreate a table with a different column order)
    // must transparently re-prepare the cached entry instead of executing
    // a statement compiled against the dropped catalog state.
    let db = social_db();
    let g = open_with_threads(db.clone(), 2);
    let traversal = "g.V().hasLabel('person').values('name')";
    let before = sorted(g.run(traversal).unwrap());
    assert_eq!(before.len(), 4);
    assert_eq!(g.metrics().template_invalidations, 0);

    db.execute("DROP TABLE Knows").unwrap();
    db.execute("DROP TABLE WorksAt").unwrap();
    db.execute("DROP TABLE Person").unwrap();
    db.execute("CREATE TABLE Person (name VARCHAR, age BIGINT, pid BIGINT PRIMARY KEY)")
        .unwrap();
    db.execute("INSERT INTO Person VALUES ('Ned', 61, 1), ('Oz', 25, 2)").unwrap();

    // Same Gremlin, same SQL template text — but the cached entry is stale.
    let after = sorted(g.run(traversal).unwrap());
    assert_eq!(after, vec![GValue::Str("Ned".into()), GValue::Str("Oz".into())]);
    let m = g.metrics();
    assert!(
        m.template_invalidations >= 1,
        "expected a recorded template invalidation: {m:?}"
    );
    // Re-running is served by the refreshed cache entry — no further
    // invalidations without further DDL.
    let again = sorted(g.run(traversal).unwrap());
    assert_eq!(again, after);
    assert_eq!(g.metrics().template_invalidations, m.template_invalidations);
}

// ------------------------------------------------------------- large graphs

/// A chain of `n` nodes: i -> i+1.
fn chain_db(n: i64) -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Node (nid BIGINT PRIMARY KEY, val BIGINT);
         CREATE TABLE Next (src BIGINT, dst BIGINT,
            FOREIGN KEY (src) REFERENCES Node(nid),
            FOREIGN KEY (dst) REFERENCES Node(nid));
         CREATE INDEX ix_next_src ON Next (src);
         CREATE INDEX ix_next_dst ON Next (dst);",
    )
    .unwrap();
    for start in (0..n).step_by(500) {
        let end = (start + 500).min(n);
        let nodes: Vec<String> =
            (start..end).map(|i| format!("({i}, {})", i % 7)).collect();
        db.execute(&format!("INSERT INTO Node VALUES {}", nodes.join(", "))).unwrap();
    }
    for start in (0..n).step_by(500) {
        let end = (start + 500).min(n);
        let edges: Vec<String> = (start..end)
            .filter(|&i| i + 1 < n)
            .map(|i| format!("({i}, {})", i + 1))
            .collect();
        if !edges.is_empty() {
            db.execute(&format!("INSERT INTO Next VALUES {}", edges.join(", "))).unwrap();
        }
    }
    db
}

fn chain_overlay() -> OverlayConfig {
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
            table_name: "Next".into(),
            src_v_table: Some("Node".into()),
            src_v: "'node'::src".into(),
            dst_v_table: Some("Node".into()),
            dst_v: "'node'::dst".into(),
            prefixed_edge_id: false,
            implicit_edge_id: true,
            id: None,
            fix_label: true,
            label: "'next'".into(),
            properties: None,
        }],
    }
}

#[test]
fn ten_thousand_vertex_frontier_completes_and_chunks() {
    // Regression for the quadratic `Vec::contains` dedup: a 10k frontier
    // must dedupe via hashing (this test ran for minutes before) and split
    // into multiple bounded statements instead of one 10k-wide IN-list.
    let n = 10_000;
    let db = chain_db(n);
    for threads in [1, 4] {
        let options = GraphOptions { threads: Some(threads), ..Default::default() };
        let g = Db2Graph::open_with_options(db.clone(), &chain_overlay(), options).unwrap();
        let out = g.run("g.V().out('next').count()").unwrap();
        assert_eq!(out, vec![GValue::Long(n - 1)], "threads={threads}");
        // Every generated IN-list stayed within the chunk ceiling.
        for t in g.dialect().template_texts() {
            let placeholders = t.matches('?').count();
            assert!(placeholders <= 1024, "template exceeds chunk ceiling: {t}");
        }
    }

    // Warm, the whole 10k-source hop is served from the adjacency cache and
    // decoded on the calling thread: the same values in the same order as
    // the SQL path, at any thread count, with no edge-table statement.
    let queries = ["g.V().out('next').values('val')", "g.V().outE('next').id()"];
    let no_cache = GraphOptions { threads: Some(1), adj_cache_mb: Some(0), ..Default::default() };
    let off = Db2Graph::open_with_options(db.clone(), &chain_overlay(), no_cache).unwrap();
    let reference: Vec<Vec<GValue>> = queries.iter().map(|q| off.run(q).unwrap()).collect();
    for threads in [1, 8] {
        let options = GraphOptions { threads: Some(threads), ..Default::default() };
        let g = Db2Graph::open_with_options(db.clone(), &chain_overlay(), options).unwrap();
        assert!(g.warm_adjacency_cache().unwrap() > 0);
        for (q, expected) in queries.iter().zip(&reference) {
            let at = format!("threads={threads}: {q}");
            assert_eq!(expected.len(), n as usize - 1, "{at}");
            let (out, profile) = g.profile(q).unwrap();
            assert_eq!(&out, expected, "{at}");
            let hit = profile
                .tables
                .iter()
                .any(|t| t.table == "Next" && t.action == TableAction::CacheHit);
            assert!(hit, "{at}: {:?}", profile.tables);
            let probes: Vec<&str> = profile
                .statements
                .iter()
                .map(|s| s.sql.as_str())
                .filter(|sql| sql.contains("FROM Next WHERE"))
                .collect();
            assert!(probes.is_empty(), "{at}: {probes:?}");
        }
    }
}

#[test]
fn template_count_stays_logarithmic_in_frontier_size() {
    // 100 adjacency queries with frontier sizes 1..=100 must produce at
    // most 8 distinct templates for the adjacency family (buckets 1, 2, 4,
    // ..., 128), not one template per distinct frontier size.
    let db = chain_db(200);
    let g = Db2Graph::open_with_options(
        db,
        &chain_overlay(),
        GraphOptions { threads: Some(2), ..Default::default() },
    )
    .unwrap();
    for size in 1..=100usize {
        let ids: Vec<String> = (0..size).map(|i| format!("'node::{i}'")).collect();
        let q = format!("g.V({}).outE('next').count()", ids.join(", "));
        let out = g.run(&q).unwrap();
        assert_eq!(out, vec![GValue::Long(size as i64)]);
    }
    let family: Vec<String> = g
        .dialect()
        .template_texts()
        .into_iter()
        .filter(|t| t.contains("FROM Next"))
        .collect();
    assert!(
        family.len() <= 8,
        "adjacency family has {} templates: {family:#?}",
        family.len()
    );
    // And the cache served almost every query.
    let m = g.metrics();
    assert!(
        m.template_hits > m.template_misses,
        "expected mostly hits: {m:?}"
    );
}
