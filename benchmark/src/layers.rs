//! Per-layer attribution, taken from outside the program: counter deltas
//! over a load phase, and a single-client traced replay in which the
//! benchmark times calls into each layer's public functions on the same
//! operations and records them as spans. Spans inside the program are a
//! later change.
//!
//! The span tree of one operation says which call accounts for which:
//!
//! ```text
//! op
//! └─ server.http            the HTTP round trip          (*.http only)
//!    ├─ server.encode       gvalue_to_json(..).to_compact() on the result
//!    └─ core.run            Db2Graph::run / Database::execute, in process
//!       ├─ core.plan        Db2Graph::plan (parse + compile + strategies)
//!       │  └─ gremlin.parse gremlin::parser::parse
//!       └─ reldb.direct_sql the hand-written prepared statement(s)
//! ```
//!
//! The calls are made one after the other, not nested; the parent links
//! define the attribution, and a layer's self time is its span minus its
//! children: `core.run` self is the overlay's cost beyond planning and
//! the SQL a person would have written, `server.http` self is queueing,
//! HTTP parsing and socket time.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

use db2graph_core::MetricsSnapshot;
use db2graph_server::gjson::gvalue_to_json;
use gremlin::structure::GValue;
use reldb::Prepared;

use crate::run::{Driver, Fixture, LoadResult};
use crate::workloads::{Call, Op, Plan, WriterPlan};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op_id: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder; written out once, when the run ends.
pub struct Recorder {
    base: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Recorder {
        Recorder {
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Time `f` as a span; returns its result and the span's id.
    fn span<T>(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: Option<u32>,
        f: impl FnOnce() -> T,
    ) -> (T, u32) {
        let start_ns = self.base.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.base.elapsed().as_nanos() as u64;
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            op_id,
            id,
            parent,
            start_ns,
            end_ns,
        });
        (out, id)
    }

    /// Summed duration and summed self time (duration minus children) per
    /// span name, in nanoseconds, and how many spans carry the name.
    pub fn totals(&self) -> HashMap<&'static str, (u64, i64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut totals: HashMap<&'static str, (u64, i64, u64)> = HashMap::new();
        for s in &self.spans {
            let dur = s.end_ns - s.start_ns;
            let t = totals.entry(s.name).or_default();
            t.0 += dur;
            t.1 += dur as i64 - child_ns[s.id as usize] as i64;
            t.2 += 1;
        }
        totals
    }

    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"op_id\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.op_id,
                s.id,
                parent,
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Counters read before and after the load phase.
pub struct Counters {
    pub graph: MetricsSnapshot,
    pub shed: u64,
    pub keepalive_reuses: u64,
    pub query_timeouts: u64,
    pub wal_fsyncs: u64,
}

impl Counters {
    pub fn read(fixture: &Fixture) -> Counters {
        let server = fixture.server.as_ref().map(|s| s.metrics());
        Counters {
            graph: fixture.graph.metrics(),
            shed: server.map_or(0, |m| m.rejected()),
            keepalive_reuses: server.map_or(0, |m| m.keepalive_reuses()),
            query_timeouts: server.map_or(0, |m| m.query_timeouts()),
            wal_fsyncs: fixture.db.wal_fsync_count(),
        }
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The counter-derived rows of the per-layer table, from the load phase.
pub fn counter_metrics(
    load: &mut LoadResult,
    before: &Counters,
    after: &Counters,
    out: &mut Vec<(&'static str, f64)>,
) {
    let d = after.graph.since(&before.graph);
    let ops = (load.reads.attempted - load.reads.failed).max(1) as f64;
    out.push(("latency_p90_us", load.reads.latency.percentile_us(0.9)));
    out.push(("latency_p99_us", load.reads.latency.tail_us(0.99).1));
    out.push(("core.sql_statements_per_op", d.sql_statements as f64 / ops));
    out.push(("core.rows_returned_per_op", d.rows_returned as f64 / ops));
    out.push((
        "core.template_hit_ratio",
        ratio(d.template_hits, d.template_hits + d.template_misses),
    ));
    out.push((
        "core.tables_pruned_share",
        ratio(d.tables_pruned, d.tables_considered),
    ));
    out.push((
        "adjcache.hit_ratio",
        ratio(d.adj_cache_hits, d.adj_cache_hits + d.adj_cache_misses),
    ));
    out.push(("adjcache.evictions", d.adj_cache_evictions as f64));
    out.push(("adjcache.invalidations", d.adj_cache_invalidations as f64));
    out.push(("adjcache.bytes", d.adj_cache_bytes as f64));
    out.push(("server.shed", (after.shed - before.shed) as f64));
    out.push((
        "server.keepalive_reuses",
        (after.keepalive_reuses - before.keepalive_reuses) as f64,
    ));
    out.push((
        "server.query_timeouts",
        (after.query_timeouts - before.query_timeouts) as f64,
    ));
    let (mut p50, mut p99, mut late, mut acked) = (0.0, 0.0, 0.0, 0);
    if let Some(w) = &mut load.writer {
        p50 = w.tally.latency.percentile_us(0.5);
        p99 = w.tally.latency.tail_us(0.99).1;
        late = w.lateness.tail_us(0.99).1;
        acked = w.acked;
    }
    out.push(("write_latency_p50_us", p50));
    out.push(("write_latency_p99_us", p99));
    out.push(("writer_lateness_p99_us", late));
    // Gauges, so plain differences.
    out.push((
        "reldb.wal_bytes_per_commit",
        ratio(d.wal_bytes - before.graph.wal_bytes, acked),
    ));
    out.push((
        "reldb.wal_fsyncs",
        (after.wal_fsyncs - before.wal_fsyncs) as f64,
    ));
    out.push((
        "reldb.checkpoints",
        (d.checkpoints - before.graph.checkpoints) as f64,
    ));
    out.push(("reldb.vacuum_runs", d.vacuum_runs as f64));
}

/// The call a user makes for `op`, result discarded: the HTTP round trip
/// where there is a server, else `Db2Graph::run` / `Database::execute`.
/// The traced replay puts its end-to-end span around exactly this.
fn end_to_end(fixture: &Fixture, wire: &mut Option<Driver>, op: &Op) {
    match wire {
        Some(wire) => drop(std::hint::black_box(wire.call(op))),
        None if op.call == Call::Gremlin => drop(std::hint::black_box(fixture.graph.run(&op.text))),
        None => drop(std::hint::black_box(fixture.db.execute(&op.text))),
    }
}

/// Run the end-to-end call of the first operations on one client, until
/// `max_ops` are done or `seconds` have passed; returns how many ran and
/// their mean latency in µs. The first call sizes the replay; a second one
/// over the same operations, after the traced replay, is the untraced
/// baseline the tracing overhead is measured against (the first pass over
/// an operation runs colder than any later one, traced or not).
pub fn replay_untraced(
    fixture: &Fixture,
    plan: &Plan,
    max_ops: usize,
    seconds: f64,
) -> (usize, f64) {
    let mut wire = fixture.server.is_some().then(|| fixture.driver());
    let start = Instant::now();
    let mut done = 0;
    for op in plan.ops.iter().take(max_ops) {
        end_to_end(fixture, &mut wire, op);
        done += 1;
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (done, start.elapsed().as_secs_f64() * 1e6 / done as f64)
}

/// Replay the first `k` operations with a span around every layer call.
/// In `mixed_rw.http` a commit is traced after every fifth read, the
/// writer's share of that workload's traffic at its usual read rate.
pub fn replay_traced(
    fixture: &Fixture,
    plan: &Plan,
    k: usize,
    mut writer: Option<&mut WriterPlan>,
    acked: &mut u64,
) -> Recorder {
    let mut rec = Recorder::new();
    let mut wire = fixture.server.is_some().then(|| fixture.driver());
    let mut prepared: HashMap<&str, Prepared> = HashMap::new();
    for (i, op) in plan.ops.iter().take(k).enumerate() {
        let op_id = i as u32;
        let root = rec.spans.len() as u32;
        rec.spans.push(Span {
            name: "op",
            op_id,
            id: root,
            parent: None,
            start_ns: 0,
            end_ns: 0,
        });
        let start_ns = rec.base.elapsed().as_nanos() as u64;

        let mut parent = root;
        if wire.is_some() {
            parent = rec
                .span("server.http", op_id, Some(root), || {
                    end_to_end(fixture, &mut wire, op)
                })
                .1;
        }
        // Behind a server the in-process run is a probe and its result is
        // kept for the encode probe; without one it is the end-to-end call.
        let run = if wire.is_some() && op.call == Call::Gremlin {
            let (values, run) = rec.span("core.run", op_id, Some(parent), || {
                fixture.graph.run(&op.text)
            });
            let values: Vec<GValue> = values.unwrap_or_default();
            rec.span("server.encode", op_id, Some(parent), || {
                let items: Vec<_> = values.iter().map(gvalue_to_json).collect();
                std::hint::black_box(db2graph_core::json::Json::arr(items).to_compact()).len()
            });
            run
        } else {
            rec.span("core.run", op_id, Some(parent), || {
                end_to_end(fixture, &mut None, op)
            })
            .1
        };
        if op.call == Call::Gremlin {
            let (_, plan_span) = rec.span("core.plan", op_id, Some(run), || {
                std::hint::black_box(fixture.graph.plan(&op.text)).is_ok()
            });
            rec.span("gremlin.parse", op_id, Some(plan_span), || {
                std::hint::black_box(gremlin::parser::parse(&op.text)).is_ok()
            });
        }
        if !op.direct.is_empty() {
            for (sql, _) in &op.direct {
                if !prepared.contains_key(sql.as_str()) {
                    prepared.insert(sql, fixture.db.prepare(sql).expect("prepare direct SQL"));
                }
            }
            rec.span("reldb.direct_sql", op_id, Some(run), || {
                for (sql, args) in &op.direct {
                    let rows = fixture.db.execute_prepared(&prepared[sql.as_str()], args);
                    std::hint::black_box(rows).expect("direct SQL");
                }
            });
        }
        if let Some(writer) = writer.as_deref_mut().filter(|_| i % 5 == 4) {
            let insert = writer.next_insert();
            let (ok, _) = rec.span("reldb.commit", op_id, Some(root), || {
                fixture.db.execute(&insert).is_ok()
            });
            *acked += ok as u64;
        }
        rec.spans[root as usize].start_ns = start_ns;
        rec.spans[root as usize].end_ns = rec.base.elapsed().as_nanos() as u64;
    }
    rec
}

/// The span-derived rows of the per-layer table. Self times are per
/// replayed operation, so a workload's rows add up to its `op` mean.
pub fn span_metrics(
    rec: &Recorder,
    plan: &Plan,
    k: usize,
    untraced_us: f64,
    out: &mut Vec<(&'static str, f64)>,
) {
    let totals = rec.totals();
    let per_op = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.1 as f64 / 1e3 / k.max(1) as f64)
    };
    out.push(("gremlin.parse_us", per_op("gremlin.parse")));
    out.push(("core.plan_us", per_op("core.plan")));
    out.push(("reldb.direct_sql_us", per_op("reldb.direct_sql")));
    out.push(("core.exec_self_us", per_op("core.run")));
    // The retrofit tax: run time over hand-written-SQL time, on the
    // operations that have such SQL.
    let mut run_ns = 0;
    let mut direct_ns = 0;
    let with_direct: Vec<bool> = plan
        .ops
        .iter()
        .take(k)
        .map(|op| !op.direct.is_empty())
        .collect();
    for s in rec.spans.iter().filter(|s| with_direct[s.op_id as usize]) {
        match s.name {
            "core.run" => run_ns += s.end_ns - s.start_ns,
            "reldb.direct_sql" => direct_ns += s.end_ns - s.start_ns,
            _ => {}
        }
    }
    out.push(("core.overlay_overhead_ratio", ratio(run_ns, direct_ns)));
    out.push(("server.encode_us", per_op("server.encode")));
    out.push(("server.wire_self_us", per_op("server.http")));
    out.push((
        "reldb.commit_us",
        totals
            .get("reldb.commit")
            .map_or(0.0, |t| t.0 as f64 / 1e3 / t.2 as f64),
    ));
    let end_to_end = if totals.contains_key("server.http") {
        "server.http"
    } else {
        "core.run"
    };
    let traced_us = totals
        .get(end_to_end)
        .map_or(0.0, |t| t.0 as f64 / 1e3 / t.2 as f64);
    out.push(("trace.run_mean_us", traced_us));
    out.push(("trace.overhead_us", traced_us - untraced_us));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let mut rec = Recorder::new();
        let span = |name, id, parent, start_ns, end_ns| Span {
            name,
            op_id: 0,
            id,
            parent,
            start_ns,
            end_ns,
        };
        rec.spans = vec![
            span("core.run", 0, None, 0, 100),
            span("core.plan", 1, Some(0), 200, 230),
            span("gremlin.parse", 2, Some(1), 300, 310),
            span("reldb.direct_sql", 3, Some(0), 400, 440),
        ];
        let t = rec.totals();
        assert_eq!(t["core.run"], (100, 30, 1));
        assert_eq!(t["core.plan"], (30, 20, 1));
        assert_eq!(t["gremlin.parse"], (10, 10, 1));
        assert_eq!(t["reldb.direct_sql"], (40, 40, 1));
        // Self times add up to the root's duration.
        assert_eq!(t.values().map(|v| v.1).sum::<i64>(), 100);
        assert!(rec
            .to_json()
            .contains("\"name\":\"core.plan\",\"op_id\":0,\"id\":1,\"parent\":0"));
    }
}
