//! Hand-rolled Prometheus text exposition (format version 0.0.4) for
//! `GET /metrics` with `Accept: text/plain` or `?format=prometheus`.
//!
//! This module renders the same metric rows the JSON form of `/metrics`
//! serves, so a stock Prometheus scraper can consume them without a
//! sidecar exporter — the paper's retrofit argument applied to
//! operations: the graph layer must plug into the host fleet's standard
//! monitoring, not ship its own.
//!
//! Mapping rules:
//! * every scalar row of a section's metric table becomes
//!   `db2graph_<section>_<key>`, its `# TYPE` the row's declared kind (so
//!   a row added to a table later is exposed here with the right type —
//!   coverage can't silently drift);
//! * the log2 latency histograms become native Prometheus histograms in
//!   seconds: cumulative `le` buckets (bucket upper bounds are the
//!   `2^i - 1` nanosecond boundaries), terminated by `+Inf`, plus `_sum`
//!   and `_count`;
//! * keyed histogram sets (`sql_templates`, `step_kinds`, per-endpoint
//!   latency) become one labeled histogram series each.

use db2graph_core::{
    EventLog, Histogram, HistogramSet, MetricRow, MetricsRegistry, MetricsSnapshot,
};

use crate::metrics::ServerMetrics;
use crate::replica::ReplicaMetrics;

/// Escape a label value per the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn push_metric(out: &mut String, name: &str, kind: &str, value: f64) {
    out.push_str("# TYPE ");
    out.push_str(name);
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
    out.push_str(name);
    out.push(' ');
    out.push_str(&fmt_f64(value));
    out.push('\n');
}

/// Render every row of a `/metrics` section as `db2graph_<section>_<key>`.
fn push_rows(out: &mut String, section: &str, rows: &[MetricRow]) {
    for row in rows {
        let name = format!("db2graph_{section}_{}", row.name);
        push_metric(out, &name, row.kind.prometheus_type(), row.value as f64);
    }
}

/// One histogram exposed in seconds from cumulative nanosecond buckets.
fn push_histogram_buckets(
    out: &mut String,
    name: &str,
    labels: &str,
    buckets: &[(u64, u64)],
    count: u64,
    sum_nanos: u64,
) {
    let sep = if labels.is_empty() { "" } else { "," };
    for (upper, cum) in buckets {
        // The top bucket's upper bound is u64::MAX nanos — effectively
        // unbounded; folding it into +Inf keeps `le` values meaningful.
        if *upper == u64::MAX {
            continue;
        }
        out.push_str(&format!(
            "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}\n",
            fmt_f64(*upper as f64 / 1e9)
        ));
    }
    out.push_str(&format!("{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {count}\n"));
    if labels.is_empty() {
        out.push_str(&format!("{name}_sum {}\n", fmt_f64(sum_nanos as f64 / 1e9)));
        out.push_str(&format!("{name}_count {count}\n"));
    } else {
        out.push_str(&format!("{name}_sum{{{labels}}} {}\n", fmt_f64(sum_nanos as f64 / 1e9)));
        out.push_str(&format!("{name}_count{{{labels}}} {count}\n"));
    }
}

fn push_histogram(out: &mut String, name: &str, hist: &Histogram) {
    out.push_str(&format!("# TYPE {name} histogram\n"));
    push_histogram_buckets(out, name, "", &hist.cumulative_buckets(), hist.count(), hist.sum());
}

fn push_histogram_set(out: &mut String, name: &str, label: &str, set: &HistogramSet) {
    let entries = set.entries();
    if entries.is_empty() {
        return;
    }
    out.push_str(&format!("# TYPE {name} histogram\n"));
    for (key, hist) in entries {
        let labels = format!("{label}=\"{}\"", escape_label(&key));
        push_histogram_buckets(
            out,
            name,
            &labels,
            &hist.cumulative_buckets(),
            hist.count(),
            hist.sum(),
        );
    }
}

/// Everything `/metrics` knows, in Prometheus text format: the same
/// `graph`, `server` (with its `queued` depth) and `replication` rows the
/// JSON form serves, so the two formats can never disagree on a value's
/// name or meaning, plus the full histograms.
#[allow(clippy::too_many_arguments)]
pub(crate) fn render(
    graph: &MetricsSnapshot,
    registry: &MetricsRegistry,
    server: &ServerMetrics,
    queued: usize,
    replication: Option<(&str, &ReplicaMetrics)>,
    db: &reldb::Database,
    events: &EventLog,
    uptime_seconds: u64,
) -> String {
    let mut out = String::with_capacity(8 * 1024);
    push_rows(&mut out, "graph", &graph.rows());
    push_rows(&mut out, "server", &server.rows(queued));
    if let Some((primary, replica)) = replication {
        push_rows(&mut out, "replication", &replica.load().rows());
        out.push_str("# TYPE db2graph_replication_info gauge\n");
        out.push_str(&format!(
            "db2graph_replication_info{{primary=\"{}\"}} 1\n",
            escape_label(primary)
        ));
    }
    push_metric(&mut out, "db2graph_server_uptime_seconds", "gauge", uptime_seconds as f64);
    push_metric(&mut out, "db2graph_events_emitted_total", "counter", events.emitted() as f64);
    push_metric(
        &mut out,
        "db2graph_events_dropped_writes_total",
        "counter",
        events.dropped_writes() as f64,
    );
    let db = db.metrics();
    push_metric(&mut out, "db2graph_txn_conflicts_total", "counter", db.txn_conflicts() as f64);

    push_histogram(&mut out, "db2graph_query_latency_seconds", registry.query_latency());
    push_histogram(&mut out, "db2graph_sql_latency_seconds", registry.sql_latency());
    push_histogram_set(
        &mut out,
        "db2graph_sql_template_latency_seconds",
        "template",
        registry.sql_templates(),
    );
    push_histogram_set(&mut out, "db2graph_step_latency_seconds", "step", registry.step_kinds());
    push_histogram_set(
        &mut out,
        "db2graph_http_request_latency_seconds",
        "endpoint",
        server.endpoint_histograms(),
    );
    // WAL fsync latency from the database's table (empty — just the +Inf
    // bucket — on in-memory databases).
    push_histogram(&mut out, "db2graph_wal_fsync_latency_seconds", &db.wal_fsync);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_render_with_their_declared_type() {
        let mut out = String::new();
        push_rows(&mut out, "server", &ServerMetrics::default().rows(3));
        assert!(out.contains("# TYPE db2graph_server_accepted counter\n"), "{out}");
        assert!(out.contains("# TYPE db2graph_server_in_flight gauge\n"), "{out}");
        assert!(out.contains("# TYPE db2graph_server_queued gauge\ndb2graph_server_queued 3\n"));
        let mut out = String::new();
        let graph = MetricsSnapshot { traversals: 7, ..Default::default() };
        push_rows(&mut out, "graph", &graph.rows());
        assert!(out.contains("# TYPE db2graph_graph_traversals counter\n"), "{out}");
        assert!(out.contains("db2graph_graph_traversals 7\n"), "{out}");
        assert!(out.contains("# TYPE db2graph_graph_sql_wall_nanos counter\n"), "{out}");
        assert!(out.contains("# TYPE db2graph_graph_wal_bytes gauge\n"), "{out}");
        let mut out = String::new();
        push_rows(&mut out, "replication", &ReplicaMetrics::default().load().rows());
        assert!(out.contains("# TYPE db2graph_replication_replica_applied_epoch gauge\n"));
        assert!(out.contains("# TYPE db2graph_replication_replica_reconnects counter\n"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_in_inf() {
        let h = Histogram::default();
        for v in [1u64, 2, 3, 700, 9_000_000] {
            h.record(v);
        }
        let mut out = String::new();
        push_histogram(&mut out, "test_seconds", &h);
        let bucket_counts: Vec<u64> = out
            .lines()
            .filter(|l| l.starts_with("test_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(bucket_counts.windows(2).all(|w| w[0] <= w[1]), "{out}");
        assert!(out.contains("le=\"+Inf\"} 5\n"), "{out}");
        assert!(out.contains("test_seconds_count 5\n"), "{out}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
