//! Trace export and telemetry integration: Chrome trace-event JSON
//! well-formedness (validated with the repo's own `json.rs`), JSONL export,
//! drop-time export via `trace_path`, the slow-query log, and the telemetry
//! counters in `MetricsSnapshot`.
//!
//! The CI trace-smoke job runs an example with `DB2GRAPH_TRACE=<path>` and
//! then points `DB2GRAPH_TRACE_CHECK` at the emitted file; the gated
//! checker test at the bottom validates that externally produced file.

use std::sync::Arc;

use db2graph::core::json::Json;
use db2graph::core::{Db2Graph, ETableConfig, GraphOptions, OverlayConfig, VTableConfig};
use db2graph::reldb::Database;

fn people_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Person (pid BIGINT PRIMARY KEY, name VARCHAR);
         CREATE TABLE Knows (a BIGINT, b BIGINT,
            FOREIGN KEY (a) REFERENCES Person(pid),
            FOREIGN KEY (b) REFERENCES Person(pid));
         INSERT INTO Person VALUES (1, 'Ann'), (2, 'Bo'), (3, 'Cy');
         INSERT INTO Knows VALUES (1, 2), (2, 3), (1, 3);",
    )
    .unwrap();
    db
}

fn people_overlay() -> OverlayConfig {
    OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "Person".into(),
            prefixed_id: true,
            id: "'person'::pid".into(),
            fix_label: true,
            label: "'person'".into(),
            properties: Some(vec!["name".into()]),
        }],
        e_tables: vec![ETableConfig {
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
            properties: None,
        }],
    }
}

fn traced_graph() -> Arc<Db2Graph> {
    let options = GraphOptions { trace: Some(true), ..Default::default() };
    Db2Graph::open_with_options(people_db(), &people_overlay(), options).unwrap()
}

fn tmp_path(name: &str) -> String {
    let dir = std::env::temp_dir();
    dir.join(format!("db2graph-{}-{name}", std::process::id())).to_string_lossy().into_owned()
}

/// Validate one Chrome trace-event JSON document: the object form with a
/// `traceEvents` array of complete ("X") events carrying the machine-
/// readable hierarchy in `args`, every parent id resolving to an event in
/// the same document. Returns the number of events.
fn check_chrome_trace(text: &str) -> usize {
    let doc = Json::parse(text).expect("trace file must parse as JSON");
    let events =
        doc.get("traceEvents").and_then(|e| e.as_array()).expect("traceEvents must be an array");
    assert!(!events.is_empty(), "trace must contain at least one event");
    let mut ids = std::collections::HashSet::new();
    for e in events {
        for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
            assert!(e.get(key).is_some(), "event missing '{key}': {e:?}");
        }
        assert_eq!(e.get("ph").and_then(|p| p.as_str()), Some("X"));
        let id = e
            .get("args")
            .and_then(|a| a.get("id"))
            .and_then(|v| v.as_u64())
            .expect("args.id must be a u64");
        ids.insert(id);
    }
    for e in events {
        if let Some(parent) = e.get("args").and_then(|a| a.get("parent")) {
            let parent = parent.as_u64().expect("args.parent must be a u64");
            assert!(ids.contains(&parent), "dangling parent id {parent}");
        }
    }
    events.len()
}

#[test]
fn export_trace_writes_wellformed_chrome_json() {
    let g = traced_graph();
    g.run("g.V().out('knows').values('name')").unwrap();
    g.run("g.V().count()").unwrap();
    let path = tmp_path("export.json");
    g.export_trace(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let n = check_chrome_trace(&text);
    assert!(n >= 4, "expected several spans, got {n}");

    // The hierarchy covers the layers: sql events parent (transitively)
    // under a step which parents under the query root.
    let doc = Json::parse(&text).unwrap();
    let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
    let cat = |e: &Json| e.get("cat").and_then(|c| c.as_str()).unwrap().to_string();
    let by_id: std::collections::HashMap<u64, &Json> = events
        .iter()
        .map(|e| (e.get("args").unwrap().get("id").unwrap().as_u64().unwrap(), e))
        .collect();
    let sql = events.iter().find(|e| cat(e) == "sql").expect("a sql span");
    let mut cursor = Some(sql);
    let mut chain = Vec::new();
    while let Some(e) = cursor {
        chain.push(cat(e));
        cursor = e
            .get("args")
            .and_then(|a| a.get("parent"))
            .and_then(|p| p.as_u64())
            .and_then(|p| by_id.get(&p).copied());
    }
    assert!(chain.contains(&"step".to_string()), "sql ancestry lacks a step: {chain:?}");
    assert_eq!(chain.last().map(|s| s.as_str()), Some("query"), "{chain:?}");
}

#[test]
fn export_trace_jsonl_emits_one_object_per_line() {
    let g = traced_graph();
    g.run("g.V().count()").unwrap();
    let path = tmp_path("export.jsonl");
    g.export_trace_jsonl(&path).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(text.lines().count() >= 2);
    for line in text.lines() {
        let obj = Json::parse(line).expect("each JSONL line parses");
        for key in ["id", "name", "kind", "start_nanos", "dur_nanos", "track", "attrs"] {
            assert!(obj.get(key).is_some(), "line missing '{key}': {line}");
        }
    }
}

#[test]
fn export_without_tracing_is_a_config_error() {
    let g = Db2Graph::open_with_options(
        people_db(),
        &people_overlay(),
        GraphOptions { trace: Some(false), ..Default::default() },
    )
    .unwrap();
    assert!(g.trace_sink().is_none());
    let err = g.export_trace(&tmp_path("never.json")).unwrap_err();
    assert!(err.to_string().contains("tracing is not enabled"), "{err}");
}

#[test]
fn trace_path_option_exports_on_drop() {
    let path = tmp_path("on-drop.json");
    {
        let options = GraphOptions { trace_path: Some(path.clone()), ..Default::default() };
        let g = Db2Graph::open_with_options(people_db(), &people_overlay(), options).unwrap();
        // trace_path alone enables tracing.
        assert!(g.trace_sink().is_some());
        g.run("g.V().out('knows').count()").unwrap();
    } // last Arc drops here -> export fires
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    check_chrome_trace(&text);
}

#[test]
fn slow_query_log_retains_full_reports() {
    let options = GraphOptions {
        slow_query_nanos: Some(0), // everything is slow
        slow_log_capacity: Some(4),
        ..Default::default()
    };
    let g = Db2Graph::open_with_options(people_db(), &people_overlay(), options).unwrap();
    g.run("g.V().count()").unwrap();
    g.run("g.V().out('knows').values('name')").unwrap();
    let slow = g.slow_queries();
    assert_eq!(slow.len(), 2);
    // Slowest first; each entry retains its full profile report.
    assert!(slow[0].wall_nanos >= slow[1].wall_nanos);
    for entry in &slow {
        assert!(!entry.report.steps.is_empty(), "entry lacks a report: {entry:?}");
        assert!(!entry.report.statements.is_empty());
    }
    let m = g.metrics();
    assert_eq!(m.slow_queries, 2);
    assert!(m.query_p99_nanos > 0, "query latency histogram must populate");
}

#[test]
fn metrics_surface_trace_counters() {
    let options = GraphOptions {
        trace: Some(true),
        trace_capacity: Some(8), // tiny ring: force drops
        ..Default::default()
    };
    let g = Db2Graph::open_with_options(people_db(), &people_overlay(), options).unwrap();
    for _ in 0..4 {
        g.run("g.V().out('knows').values('name')").unwrap();
    }
    let m = g.metrics();
    assert_eq!(m.trace_spans, 8, "ring holds exactly its capacity");
    assert!(m.dropped_spans > 0, "wrapping must count drops: {m:?}");
    let sink = g.trace_sink().unwrap();
    assert_eq!(sink.dropped(), m.dropped_spans);
    assert!(sink.total() > 8);
}

/// CI hook: when `DB2GRAPH_TRACE_CHECK` names a file (produced by running
/// an example under `DB2GRAPH_TRACE`), validate it as a well-formed Chrome
/// trace. Skipped silently otherwise.
#[test]
fn validate_externally_emitted_trace_file() {
    let Ok(path) = std::env::var("DB2GRAPH_TRACE_CHECK") else { return };
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("DB2GRAPH_TRACE_CHECK={path}: {e}"));
    let n = check_chrome_trace(&text);
    assert!(n > 0);
}
