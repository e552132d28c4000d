//! Operational observability, end to end over real sockets: request
//! correlation, the structured event log, the Prometheus exposition of
//! `/metrics`, and the SLO health monitor behind `/readyz`.
//!
//! The acceptance bar this file proves:
//!
//! * one `request_id` is traceable across the response header, JSON error
//!   bodies, the slow-query log, the trace export's root span, and
//!   `/events`;
//! * the `/metrics` JSON schema is frozen (golden key lists) and the
//!   Prometheus form covers every numeric leaf of it, with every line
//!   parseable and histogram buckets cumulative ending in `+Inf`;
//! * `/events?since=` paginates;
//! * `/readyz` flips to 503 naming the violated SLO under an injected
//!   p99 breach and recovers without a restart, with both transitions in
//!   `/events`.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

use db2graph::core::json::Json;
use db2graph::core::{Db2Graph, GraphOptions, MetricsSnapshot, OverlayConfig, VTableConfig};
use db2graph::reldb::Database;
use db2graph::server::metrics::ServerMetrics;
use db2graph::server::monitor::SloTargets;
use db2graph::server::replica::ReplicaMetrics;
use db2graph::server::{
    http_call, http_call_with_headers, GraphServer, ServerConfig, ServerHandle,
};

const TIMEOUT: Duration = Duration::from_secs(10);

fn account_graph(options: GraphOptions) -> Arc<Db2Graph> {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE Account (aid BIGINT PRIMARY KEY, balance BIGINT)").unwrap();
    let rows: Vec<String> = (0..16).map(|i| format!("({i}, 100)")).collect();
    db.execute(&format!("INSERT INTO Account VALUES {}", rows.join(", "))).unwrap();
    let overlay = OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "Account".into(),
            prefixed_id: true,
            id: "'acct'::aid".into(),
            fix_label: true,
            label: "'acct'".into(),
            properties: Some(vec!["balance".into()]),
        }],
        e_tables: vec![],
    };
    Db2Graph::open_with_options(db, &overlay, options).unwrap()
}

fn start(options: GraphOptions, config: ServerConfig) -> (Arc<Db2Graph>, ServerHandle) {
    let graph = account_graph(options);
    let handle = GraphServer::start(graph.clone(), config).expect("bind server");
    (graph, handle)
}

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        vacuum_interval: None,
        ..Default::default()
    }
}

fn get(addr: SocketAddr, path: &str) -> db2graph::server::HttpResponse {
    http_call(addr, "GET", path, "", TIMEOUT).expect("http call")
}

// ------------------------------------------------------- correlation

#[test]
fn request_id_is_traceable_across_header_slowlog_trace_and_events() {
    // Trace every query and treat every query as slow, so one request
    // must land in all the observability surfaces at once.
    let options = GraphOptions {
        trace: Some(true),
        slow_query_nanos: Some(0),
        threads: Some(1),
        ..Default::default()
    };
    let (graph, handle) = start(options, base_config());
    let addr = handle.addr();
    let rid = "obs-correlation-0042";

    let r = http_call_with_headers(
        addr,
        "POST",
        "/query",
        "g.V().hasLabel('acct').count()",
        &[("X-Request-Id", rid)],
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    // 1. The response header echoes the client's id.
    assert_eq!(r.header("x-request-id"), Some(rid));

    // 2. The slow-query log entry carries it.
    let slow = get(addr, "/slow-queries");
    assert_eq!(slow.status, 200);
    assert!(slow.body.contains(rid), "slow-query log must carry the request id: {}", slow.body);

    // 3. The trace export's query root span carries it as an attr.
    let dir = std::env::temp_dir().join(format!("obs_trace_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("trace.jsonl");
    graph.export_trace_jsonl(path.to_str().unwrap()).unwrap();
    let trace = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    assert!(trace.contains(rid), "trace export must carry the request id");

    // 4. The event log has the request's completion under the same id.
    let events = get(addr, "/events");
    assert_eq!(events.status, 200);
    let doc = Json::parse(&events.body).unwrap();
    let completed = doc
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .any(|e| {
            e.get("kind").and_then(Json::as_str) == Some("request_completed")
                && e.get("request_id").and_then(Json::as_str) == Some(rid)
        });
    assert!(completed, "no request_completed event for {rid}: {}", events.body);

    // 5. Error bodies carry the id too (and the header).
    let err = http_call_with_headers(
        addr,
        "POST",
        "/query",
        "g.V().nonsenseStep()",
        &[("X-Request-Id", "obs-err-7")],
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(err.status, 400);
    assert_eq!(err.header("x-request-id"), Some("obs-err-7"));
    let body = Json::parse(&err.body).unwrap();
    assert_eq!(body.get("request_id").and_then(Json::as_str), Some("obs-err-7"));

    handle.shutdown();
}

#[test]
fn generated_request_ids_are_unique_and_hostile_ids_are_sanitized() {
    let (_graph, handle) = start(GraphOptions::default(), base_config());
    let addr = handle.addr();
    let a = get(addr, "/healthz").header("x-request-id").unwrap().to_string();
    let b = get(addr, "/healthz").header("x-request-id").unwrap().to_string();
    assert_ne!(a, b, "generated ids must be unique");
    assert!(a.contains('-'), "generated id is epoch-seq shaped: {a}");

    // A header-injection attempt is stripped to its safe characters.
    let evil = http_call_with_headers(
        addr,
        "GET",
        "/healthz",
        "",
        &[("X-Request-Id", "ok-id\tbad chars\"{}")],
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(evil.header("x-request-id"), Some("ok-idbadchars"));
    handle.shutdown();
}

// ------------------------------------------------ metrics JSON golden

/// The frozen key lists of the `/metrics` JSON sections. A rename or
/// removal here is a breaking change for scrapers — this test makes it
/// loud. (Additions append; update the list in the same PR.)
const GRAPH_KEYS: &[&str] = &[
    "traversals",
    "sql_statements",
    "sql_wall_nanos",
    "rows_returned",
    "template_hits",
    "template_misses",
    "template_evictions",
    "template_invalidations",
    "pattern_evictions",
    "slow_queries",
    "vacuum_runs",
    "vacuumed_versions",
    "trace_spans",
    "dropped_spans",
    "commit_epoch",
    "snapshot_horizon",
    "active_snapshots",
    "wal_records",
    "wal_bytes",
    "checkpoints",
    "recovery_replayed_epochs",
    "query_p50_nanos",
    "query_p90_nanos",
    "query_p99_nanos",
    "sql_p50_nanos",
    "sql_p90_nanos",
    "sql_p99_nanos",
    "tables_considered",
    "tables_pruned",
    "vertices_from_edges",
    "adj_cache_hits",
    "adj_cache_misses",
    "adj_cache_evictions",
    "adj_cache_invalidations",
    "adj_cache_bytes",
    "recovery_truncated_bytes",
];

const SERVER_KEYS: &[&str] = &[
    "accepted",
    "admitted",
    "rejected",
    "completed",
    "bad_requests",
    "query_timeouts",
    "bytes_in",
    "bytes_out",
    "in_flight",
    "queued",
    "accept_errors",
    "error_responses",
    "keepalive_reuses",
    "retry_after_hints",
    "sessions_began",
    "sessions_committed",
    "sessions_rolled_back",
    "sessions_reaped",
    "sessions_open",
    "endpoint_latency",
];

#[test]
fn metrics_json_sections_keep_their_golden_keys() {
    let (_graph, handle) = start(GraphOptions::default(), base_config());
    let addr = handle.addr();
    let _ = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
    let r = get(addr, "/metrics");
    assert_eq!(r.status, 200);
    let doc = Json::parse(&r.body).unwrap();
    for (section, golden) in [("graph", GRAPH_KEYS), ("server", SERVER_KEYS)] {
        let keys: Vec<&str> = doc
            .get(section)
            .and_then(Json::as_object)
            .unwrap_or_else(|| panic!("/metrics must have a '{section}' object"))
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, golden, "'{section}' section keys drifted");
    }
    handle.shutdown();
}

// --------------------------------------------- prometheus exposition

fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().unwrap().is_ascii_alphabetic()
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Parse one sample line into (series_key, le_label, value) where
/// series_key is the metric name plus its non-`le` labels.
fn parse_sample(line: &str) -> (String, Option<String>, f64) {
    let (name_and_labels, value) =
        line.rsplit_once(' ').unwrap_or_else(|| panic!("no value in line: {line}"));
    let value: f64 = if value == "+Inf" {
        f64::INFINITY
    } else {
        value.parse().unwrap_or_else(|_| panic!("bad value in line: {line}"))
    };
    let (name, labels) = match name_and_labels.split_once('{') {
        Some((n, rest)) => {
            let rest = rest.strip_suffix('}').unwrap_or_else(|| panic!("bad labels: {line}"));
            (n, rest)
        }
        None => (name_and_labels, ""),
    };
    assert!(is_metric_name(name), "bad metric name in line: {line}");
    let mut le = None;
    let mut other_labels = Vec::new();
    for pair in split_labels(labels) {
        let (k, v) = pair.split_once('=').unwrap_or_else(|| panic!("bad label in: {line}"));
        assert!(is_metric_name(k), "bad label name in: {line}");
        assert!(
            v.starts_with('"') && v.ends_with('"') && v.len() >= 2,
            "unquoted label value in: {line}"
        );
        if k == "le" {
            le = Some(v.trim_matches('"').to_string());
        } else {
            other_labels.push(pair.to_string());
        }
    }
    (format!("{name}{{{}}}", other_labels.join(",")), le, value)
}

/// Split a label body on top-level commas (values may contain escaped
/// quotes but our emitter never puts commas inside values; keep it
/// simple and quote-aware anyway).
fn split_labels(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in body.chars() {
        if escaped {
            cur.push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                cur.push(c);
                escaped = true;
            }
            '"' => {
                cur.push(c);
                in_quotes = !in_quotes;
            }
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// The declared `# TYPE` of every `db2graph_{graph,server,replication}_*`
/// metric: each section's table rows, plus the two scalars rendered
/// outside a table.
fn declared_types() -> std::collections::HashMap<String, &'static str> {
    let sections = [
        ("graph", MetricsSnapshot::default().rows()),
        ("server", ServerMetrics::default().rows(0)),
        ("replication", ReplicaMetrics::default().load().rows()),
    ];
    let mut types: std::collections::HashMap<String, &'static str> = sections
        .iter()
        .flat_map(|(section, rows)| {
            rows.iter().map(move |r| {
                (format!("db2graph_{section}_{}", r.name), r.kind.prometheus_type())
            })
        })
        .collect();
    types.insert("db2graph_server_uptime_seconds".into(), "gauge");
    types.insert("db2graph_replication_info".into(), "gauge");
    types
}

/// The exposition-format lint: every line parses, every histogram's
/// buckets are cumulative and end with `+Inf` equal to its `_count`, and
/// every section scalar is typed as its table row declares.
fn lint_prometheus(text: &str) {
    use std::collections::HashMap;
    let declared = declared_types();
    let mut buckets: HashMap<String, Vec<(Option<String>, f64)>> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(is_metric_name(name), "bad TYPE name: {line}");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown metric kind: {line}"
            );
            if ["db2graph_graph_", "db2graph_server_", "db2graph_replication_"]
                .iter()
                .any(|p| name.starts_with(p))
            {
                let want = declared.get(name).copied();
                assert_eq!(want, Some(kind), "{name} is not typed as its table row");
            }
            continue;
        }
        assert!(!line.starts_with('#'), "only TYPE comments are emitted: {line}");
        let (series, le, value) = parse_sample(line);
        if let Some(name) = series.split('{').next() {
            if name.ends_with("_bucket") {
                buckets.entry(series.clone()).or_default().push((le, value));
            } else if name.ends_with("_count") {
                let base = series.replacen("_count{", "_bucket{", 1);
                counts.insert(base, value);
            }
        }
    }
    assert!(!buckets.is_empty(), "exposition must contain at least one histogram");
    for (series, entries) in buckets {
        let mut prev = -1.0;
        for (le, v) in &entries {
            assert!(le.is_some(), "bucket sample without le label: {series}");
            assert!(*v >= prev, "non-cumulative buckets in {series}");
            prev = *v;
        }
        let (last_le, last_v) = entries.last().unwrap();
        assert_eq!(last_le.as_deref(), Some("+Inf"), "{series} must end with +Inf");
        if let Some(count) = counts.get(&series) {
            assert_eq!(*last_v, *count, "+Inf bucket of {series} must equal its _count");
        }
    }
}

#[test]
fn prometheus_exposition_parses_and_covers_the_json_form() {
    let (_graph, handle) = start(GraphOptions::default(), base_config());
    let addr = handle.addr();
    for _ in 0..3 {
        let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
        assert_eq!(r.status, 200);
    }
    // Both negotiation forms answer the text format.
    let via_accept = http_call_with_headers(
        addr,
        "GET",
        "/metrics",
        "",
        &[("Accept", "text/plain")],
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(via_accept.status, 200);
    assert!(via_accept
        .header("content-type")
        .is_some_and(|ct| ct.starts_with("text/plain")));
    let via_query = get(addr, "/metrics?format=prometheus");
    assert_eq!(via_query.status, 200);
    let json_form = get(addr, "/metrics");

    lint_prometheus(&via_accept.body);
    lint_prometheus(&via_query.body);

    // Coverage: every numeric leaf of the JSON sections has a
    // correspondingly named sample in the text form.
    let doc = Json::parse(&json_form.body).unwrap();
    for section in ["graph", "server"] {
        for (key, value) in doc.get(section).and_then(Json::as_object).unwrap() {
            if matches!(value, Json::Num(_)) {
                let name = format!("db2graph_{section}_{key}");
                assert!(
                    via_accept.body.lines().any(|l| l.starts_with(&name)),
                    "JSON metric {section}.{key} missing from Prometheus form as {name}"
                );
            }
        }
    }
    // JSON stays the default when no negotiation asks for text.
    assert!(Json::parse(&json_form.body).is_ok());
    handle.shutdown();
}

// ------------------------------------------------------ event paging

#[test]
fn events_endpoint_paginates_with_since() {
    let (_graph, handle) = start(GraphOptions::default(), base_config());
    let addr = handle.addr();
    for _ in 0..3 {
        let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
        assert_eq!(r.status, 200);
    }
    let first = Json::parse(&get(addr, "/events").body).unwrap();
    let last_seq = first.get("last_seq").and_then(Json::as_u64).unwrap();
    assert!(last_seq >= 3, "expected at least the three request events");
    let events = first.get("events").and_then(Json::as_array).unwrap();
    assert!(!events.is_empty());

    // The tail call returns nothing new... (the /events request itself
    // completes *after* its response is framed, so it is not included).
    let tail = Json::parse(&get(addr, &format!("/events?since={last_seq}")).body).unwrap();
    let new_events = tail.get("events").and_then(Json::as_array).unwrap();
    assert!(
        new_events.iter().all(|e| e.get("seq").and_then(Json::as_u64).unwrap() > last_seq),
        "since must be exclusive"
    );

    // ...until something happens.
    let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    let after = Json::parse(&get(addr, &format!("/events?since={last_seq}")).body).unwrap();
    let found = after
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .any(|e| e.get("kind").and_then(Json::as_str) == Some("request_completed"));
    assert!(found, "new request_completed event must appear after since={last_seq}");
    handle.shutdown();
}

// ------------------------------------------------------- SLO monitor

#[test]
fn readyz_degrades_under_p99_breach_and_recovers_without_restart() {
    // A 1-nanosecond p99 target: every query breaches it. Short window
    // and tick so the test observes both transitions quickly.
    let config = ServerConfig {
        slo: SloTargets { p99_ms: Some(0.000001), ..Default::default() },
        monitor_interval: Duration::from_millis(25),
        monitor_window: Duration::from_millis(400),
        ..base_config()
    };
    let (_graph, handle) = start(GraphOptions::default(), config);
    let addr = handle.addr();
    assert_eq!(get(addr, "/healthz").status, 200);

    // Inject the breach: real queries whose latency must exceed 1ns.
    for _ in 0..5 {
        let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
        assert_eq!(r.status, 200);
    }
    let mut degraded_body = None;
    for _ in 0..200 {
        let r = get(addr, "/readyz");
        if r.status == 503 {
            degraded_body = Some(r.body);
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    let degraded_body = degraded_body.expect("/readyz must flip to 503 under the p99 breach");
    assert!(
        degraded_body.contains("DB2GRAPH_SLO_P99_MS"),
        "degraded body must name the violated SLO: {degraded_body}"
    );
    assert!(degraded_body.contains("degraded"), "{degraded_body}");
    // Liveness is unaffected.
    assert_eq!(get(addr, "/healthz").status, 200);

    // Stop the query load; once the window slides past the breach the
    // server recovers with no restart. (/readyz polls are exempt from
    // the latency SLO, so polling cannot keep it degraded.)
    let mut recovered = false;
    for _ in 0..400 {
        if get(addr, "/readyz").status == 200 {
            recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(recovered, "/readyz must recover after the rolling window passes");

    // Both transitions are in the event log.
    let events = get(addr, "/events").body;
    let doc = Json::parse(&events).unwrap();
    let kinds: Vec<&str> = doc
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .filter_map(|e| e.get("kind").and_then(Json::as_str))
        .collect();
    assert!(kinds.contains(&"slo_degraded"), "missing slo_degraded event: {events}");
    assert!(kinds.contains(&"slo_recovered"), "missing slo_recovered event: {events}");
    handle.shutdown();
}

#[test]
fn drain_report_lands_in_the_event_log_file() {
    // With DB2GRAPH_EVENT_LOG configured (via ServerConfig here), events
    // survive the server: the drain report is the last thing written.
    let dir = std::env::temp_dir().join(format!("obs_evlog_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("events.jsonl");
    let config = ServerConfig {
        event_log_path: Some(path.to_str().unwrap().to_string()),
        ..base_config()
    };
    let (_graph, handle) = start(GraphOptions::default(), config);
    let addr = handle.addr();
    let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    let report = handle.shutdown();
    assert_eq!(report.admitted, report.completed, "drain invariant");

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    let mut kinds = Vec::new();
    for line in text.lines() {
        let doc = Json::parse(line).expect("every event-log line is one JSON object");
        kinds.push(doc.get("kind").and_then(Json::as_str).unwrap().to_string());
    }
    assert_eq!(kinds.first().map(String::as_str), Some("server_started"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "request_completed"), "{kinds:?}");
    assert_eq!(kinds.last().map(String::as_str), Some("drain_report"), "{kinds:?}");
}
