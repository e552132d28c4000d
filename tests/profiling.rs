//! Observability-layer integration tests: `explain()` (data-independent
//! plan + SQL + table elimination), `profile()` (per-step report), the
//! `.profile()`/`.explain()` Gremlin terminators, and the aggregate
//! metrics snapshot — all on the paper's Figure 2 healthcare overlay.

use std::sync::Arc;

use db2graph_core::{
    healthcare_example_json, Db2Graph, GraphOptions, OverlayConfig, TableAction, TablePlan,
};
use gremlin::GValue;
use reldb::Database;

fn healthcare_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, address VARCHAR, subscriptionID BIGINT);
         CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, conceptName VARCHAR);
         CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR,
            FOREIGN KEY (sourceID) REFERENCES Disease(diseaseID),
            FOREIGN KEY (targetID) REFERENCES Disease(diseaseID));
         CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR,
            FOREIGN KEY (patientID) REFERENCES Patient(patientID),
            FOREIGN KEY (diseaseID) REFERENCES Disease(diseaseID));
         INSERT INTO Patient VALUES
            (1, 'Alice', '12 Oak St', 100),
            (2, 'Bob', '9 Elm St', 101),
            (3, 'Carol', '4 Pine St', 102);
         INSERT INTO Disease VALUES
            (10, 'E11', 'type 2 diabetes'),
            (11, 'E10', 'type 1 diabetes'),
            (12, 'E08', 'diabetes');
         INSERT INTO DiseaseOntology VALUES (10, 12, 'isa'), (11, 12, 'isa');
         INSERT INTO HasDisease VALUES (1, 10, 'diagnosed 2019'), (2, 11, 'diagnosed 2020');",
    )
    .unwrap();
    db
}

fn open(db: &Arc<Database>) -> Arc<Db2Graph> {
    Db2Graph::open_json(db.clone(), healthcare_example_json()).unwrap()
}

/// A fixed label (`hasLabel('patient')`) eliminates every vertex table
/// whose fixed label differs, before any SQL — and explain says so.
#[test]
fn explain_shows_fixed_label_elimination() {
    let db = healthcare_db();
    let g = open(&db);
    let report = g.explain_report("g.V().hasLabel('patient').values('name')").unwrap();
    // Both vertex tables are considered; only Patient survives.
    assert_eq!(report.tables_considered(), 2, "{report}");
    assert_eq!(report.tables_queried(), 1, "{report}");
    assert_eq!(report.tables_pruned(), 1, "{report}");
    let pruned: Vec<_> = report
        .steps
        .iter()
        .flat_map(|s| &s.tables)
        .filter(|t| matches!(t.plan, TablePlan::Pruned { .. }))
        .collect();
    assert_eq!(pruned.len(), 1);
    assert_eq!(pruned[0].table, "Disease");
    let TablePlan::Pruned { reason } = &pruned[0].plan else { unreachable!() };
    assert!(reason.contains("label"), "unexpected prune reason: {reason}");
    // The surviving table carries real generated SQL.
    let sql = report.sql_statements();
    assert_eq!(sql.len(), 1, "{report}");
    assert!(sql[0].contains("Patient"), "{}", sql[0]);
    // The rendered text shows both the plan and the elimination.
    let text = g.explain("g.V().hasLabel('patient').values('name')").unwrap();
    assert!(text.starts_with("plan: "), "{text}");
    assert!(text.contains("pruned ("), "{text}");
}

/// A prefixed id (`patient::1`) pins the lookup to the one table whose id
/// prefix matches; plain-integer ids can only come from Bigint-id tables.
#[test]
fn explain_shows_prefixed_id_pinning() {
    let db = healthcare_db();
    let g = open(&db);
    let report = g.explain_report("g.V('patient::1')").unwrap();
    assert_eq!(report.tables_considered(), 2, "{report}");
    assert!(
        report.tables_queried() < report.tables_considered(),
        "prefixed id should eliminate non-matching tables: {report}"
    );
    let pruned: Vec<_> = report
        .steps
        .iter()
        .flat_map(|s| &s.tables)
        .filter(|t| matches!(t.plan, TablePlan::Pruned { .. }))
        .map(|t| t.table.as_str())
        .collect();
    assert_eq!(pruned, vec!["Disease"], "{report}");

    // The mirror case: a plain integer id cannot live in a prefixed table.
    let report = g.explain_report("g.V(10)").unwrap();
    let pruned: Vec<_> = report
        .steps
        .iter()
        .flat_map(|s| &s.tables)
        .filter(|t| matches!(t.plan, TablePlan::Pruned { .. }))
        .map(|t| t.table.as_str())
        .collect();
    assert_eq!(pruned, vec!["Patient"], "{report}");
}

/// explain() is a dry run: it never executes SQL or touches data.
#[test]
fn explain_touches_no_data() {
    let db = healthcare_db();
    let g = open(&db);
    let before = g.metrics();
    g.explain("g.V().hasLabel('patient').out('hasDisease').values('conceptName')").unwrap();
    g.explain_report("g.E().hasLabel('isa').count()").unwrap();
    let after = g.metrics();
    assert_eq!(after.sql_statements, before.sql_statements);
    assert_eq!(after.rows_returned, before.rows_returned);
}

/// profile() returns the results *and* a per-step report covering strategy
/// rewrites, step timings, table decisions, and executed SQL.
#[test]
fn profile_reports_steps_tables_and_sql() {
    let db = healthcare_db();
    let g = open(&db);
    let (values, report) = g
        .profile("g.V().hasLabel('patient').has('name', 'Alice').out('hasDisease').values('conceptName')")
        .unwrap();
    assert_eq!(values, vec![GValue::Str("type 2 diabetes".into())]);
    // The optimizer rewrote the plan (predicate pushdown at minimum).
    assert!(
        report.strategies.iter().any(|s| s.strategy == "PredicatePushdown"),
        "expected a PredicatePushdown rewrite: {report}"
    );
    // Every top-level step is timed with frontier sizes.
    assert!(!report.steps.is_empty(), "{report}");
    assert!(report.steps.iter().all(|s| s.index < report.steps.len()));
    // Table elimination is visible: Disease is pruned for the hasLabel
    // scan, the adjacency step prunes DiseaseOntology ('isa' != 'hasDisease').
    assert!(report.tables_queried() >= 1, "{report}");
    assert!(report.tables_pruned() >= 1, "{report}");
    assert!(
        report.tables_queried() < report.tables_considered(),
        "table elimination should have pruned something: {report}"
    );
    assert!(
        report.tables.iter().any(|d| {
            d.table == "DiseaseOntology" && matches!(d.action, TableAction::Pruned(_))
        }),
        "{report}"
    );
    // SQL statements carry wall time and row counts.
    assert!(!report.statements.is_empty(), "{report}");
    assert!(report.total_rows() >= 1, "{report}");
    // The rendered report has all four sections.
    let text = report.to_string();
    for needle in ["strategies:", "steps:", "tables: considered=", "sql: statements="] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
}

/// The dst-vertex-table link pins the vertex lookup after an adjacency
/// step instead of fanning out over all vertex tables.
#[test]
fn profile_shows_link_pinning() {
    let db = healthcare_db();
    let g = open(&db);
    let (_, report) = g.profile("g.V('patient::1').out('hasDisease')").unwrap();
    assert!(
        report.tables.iter().any(|d| d.table == "Disease" && d.action == TableAction::Pinned),
        "dst link should pin the Disease lookup: {report}"
    );
}

/// The `.profile()` Gremlin terminator returns the rendered report as the
/// traversal's value, like TinkerPop's.
#[test]
fn profile_terminator_returns_report_text() {
    let db = healthcare_db();
    let g = open(&db);
    let out = g.run("g.V().hasLabel('patient').count().profile()").unwrap();
    assert_eq!(out.len(), 1);
    let GValue::Str(text) = &out[0] else { panic!("expected report text, got {out:?}") };
    assert!(text.starts_with("profile"), "{text}");
    assert!(text.contains("tables: considered="), "{text}");
    assert!(text.contains("sql: statements="), "{text}");
}

/// In a multi-statement script, `.profile()` reports its own statement
/// only: the statements before it leave their steps, table decisions and
/// SQL out of the report.
#[test]
fn profile_terminator_reports_only_its_statement() {
    let db = healthcare_db();
    let g = open(&db);
    let profiled = "g.V().hasLabel('patient').count().profile()";
    let alone = g.run(profiled).unwrap();
    let script = format!("g.V().hasLabel('patient').out('hasDisease').count(); {profiled}");
    let out = g.run(&script).unwrap();
    let (GValue::Str(alone), GValue::Str(text)) = (&alone[0], &out[0]) else {
        panic!("expected report text, got {alone:?} and {out:?}")
    };
    // Timing and template-cache outcomes differ between the runs; the
    // shape of the report must not.
    let shape = |t: &str| -> Vec<String> {
        t.lines()
            .map(|l| match l.trim_start() {
                l if l.starts_with("sql: ") => l.split(" template_hits=").next().unwrap(),
                // A statement: `[time, rows, hit|miss] SQL` keeps its SQL.
                l if l.contains(" rows, ") => l.split_once("] ").unwrap().1,
                // A step: `[index] step  in=.. out=..  time` drops its time.
                l if l.starts_with('[') => l.rsplit_once("  ").unwrap().0,
                l => l,
            })
            .map(str::to_string)
            .collect()
    };
    assert_eq!(shape(text), shape(alone), "\n{text}\n--- alone ---\n{alone}");
    assert!(!text.contains("HasDisease"), "an earlier statement leaked:\n{text}");
}

/// Repeated identical traversals re-use prepared templates: the second run
/// hits the cache for every statement the first run prepared.
#[test]
fn repeated_traversals_hit_template_cache() {
    let db = healthcare_db();
    let g = open(&db);
    let query =
        "g.V().hasLabel('patient').has('name', 'Alice').out('hasDisease').values('conceptName')";

    let (_, first) = g.profile(query).unwrap();
    assert!(first.template_misses() > 0, "first run must prepare: {first}");

    let before = g.metrics();
    let (_, second) = g.profile(query).unwrap();
    let delta = g.metrics().since(&before);

    // Per-query view: every statement of the identical re-run is a hit.
    assert_eq!(second.template_misses(), 0, "{second}");
    assert!(second.template_hits() > 0, "{second}");
    // Aggregate view: the registry counted those hits too.
    assert!(delta.template_hits >= second.template_hits() as u64);
    assert_eq!(delta.template_misses, 0);

    // Observation does not change the plan: with the slow-query log on
    // (every query observed), a repeated 2-hop is served from the
    // adjacency cache, and its profile says so.
    let observed = Db2Graph::open_with_options(
        db.clone(),
        &OverlayConfig::from_json(healthcare_example_json()).unwrap(),
        GraphOptions { slow_query_nanos: Some(0), ..Default::default() },
    )
    .unwrap();
    let two_hop = "g.V().hasLabel('patient').out('hasDisease').in('hasDisease').values('name')";
    let cold = observed.run(two_hop).unwrap();
    assert_eq!(cold, vec![GValue::Str("Alice".into()), GValue::Str("Bob".into())]);
    assert_eq!(observed.metrics().adj_cache_hits, 0);
    assert_eq!(observed.run(two_hop).unwrap(), cold);
    assert!(observed.metrics().adj_cache_hits > 0, "{:?}", observed.metrics());
    let (values, warm) = observed.profile(two_hop).unwrap();
    assert_eq!(values, cold);
    let served = warm.tables.iter().filter(|d| d.action == TableAction::CacheHit);
    assert_eq!(served.map(|d| d.table.as_str()).collect::<Vec<_>>(), ["HasDisease"; 2], "{warm}");
    assert!(!warm.statements.iter().any(|s| s.sql.contains("FROM HasDisease")), "{warm}");
    assert!(warm.to_string().contains("HasDisease: cache_hit"), "{warm}");
}

/// The aggregate snapshot accumulates across queries and diffs cleanly.
#[test]
fn metrics_snapshot_accumulates() {
    let db = healthcare_db();
    let g = open(&db);
    let zero = g.metrics();
    assert_eq!(zero.traversals, 0);
    assert_eq!(zero.sql_statements, 0);

    g.run("g.V().count()").unwrap();
    g.run("g.E().count()").unwrap();
    let after = g.metrics();
    assert_eq!(after.traversals, 2);
    assert!(after.sql_statements >= 2, "{after:?}");
    assert!(after.rows_returned >= 1, "{after:?}");

    let delta = after.since(&zero);
    assert_eq!(delta.traversals, 2);

    // The snapshot exports as JSON (the bench harness prints this).
    let json = after.to_json().to_compact();
    assert!(json.contains("\"traversals\":2"), "{json}");
    assert!(json.contains("\"sql_statements\":"), "{json}");

    // Latency percentiles populate from the always-on histograms; the
    // telemetry counters stay zero without tracing or a slow-query
    // threshold configured.
    assert!(after.query_p99_nanos > 0, "{after:?}");
    assert!(after.sql_p99_nanos > 0, "{after:?}");
    assert!(after.query_p50_nanos <= after.query_p99_nanos, "{after:?}");
    assert_eq!(after.slow_queries, 0);
    assert_eq!(after.trace_spans, 0);
    assert_eq!(after.dropped_spans, 0);
    assert!(json.contains("\"query_p50_nanos\":"), "{json}");
    assert!(json.contains("\"sql_p99_nanos\":"), "{json}");

    // Only a parsed `.profile()` terminator turns observation on; the same
    // text inside a string literal is data. Unobserved runs record no
    // per-step-kind latency.
    let out = g.run("g.V().has('name', '.profile()').count()").unwrap();
    assert_eq!(out, vec![GValue::Long(0)]);
    let steps = g.histogram_report();
    let steps = steps.get("step_kinds").and_then(|s| s.as_object()).unwrap();
    assert!(steps.is_empty(), "unobserved runs recorded step latencies: {steps:?}");
}

/// Profiling is opt-in: plain runs leave no per-query residue and return
/// identical results.
#[test]
fn unprofiled_runs_match_profiled_results() {
    let db = healthcare_db();
    let g = open(&db);
    let query = "g.V().hasLabel('patient').out('hasDisease').values('conceptCode')";
    let mut plain = g.run(query).unwrap();
    let (mut profiled, report) = g.profile(query).unwrap();
    let key = |v: &GValue| format!("{v:?}");
    plain.sort_by_key(key);
    profiled.sort_by_key(key);
    assert_eq!(plain, profiled);
    assert!(!report.statements.is_empty());
}
