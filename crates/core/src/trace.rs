//! Hierarchical trace spans: the one record of what an observed query did.
//!
//! Every observed query records one tree of spans — query → strategy
//! rewrites → steps → table decisions / SQL statements, with pool-worker
//! children nested under the step that fanned them out. Each span carries
//! the typed values of its event ([`SpanData`]), so one record serves both
//! readers:
//!
//! * the per-query [`ProfileReport`](crate::metrics::ProfileReport), a pure
//!   function of the spans (the [`Profiler`](crate::metrics::Profiler)
//!   records them and derives the report);
//! * when tracing is on, the bounded process-lifetime ring buffer
//!   ([`TraceSink`]), exported as Chrome trace-event JSON (loadable in
//!   Perfetto / `chrome://tracing`) or JSONL.
//!
//! **Trace structure is deterministic at any thread count**, and a test
//! pins it: pool workers record into a fork of the query's span tree
//! ([`Profiler::fork`](crate::metrics::Profiler::fork)), and the
//! coordinator absorbs the forks in job-submission order, re-parenting
//! each fork's root spans under the span open at the fan-out site (the
//! step span). The span *tree* is identical between `DB2GRAPH_THREADS=1`
//! and `=8`; only timestamps differ, and `template_hit`, which racing
//! workers decide and which the exports therefore leave out.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

use crate::json::Json;
use crate::metrics::TableAction;

/// Default capacity of the span ring buffer (spans, not bytes).
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 65_536;

/// What one span records: its kind and the typed values of its event.
/// The profile report reads these values; exports render them as string
/// attributes ([`Span::attrs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SpanData {
    /// The root span of one Gremlin script execution.
    Query { gremlin: String, request_id: Option<String> },
    /// A compile-time strategy application that changed the plan (the
    /// span's name is the strategy).
    Strategy { before: String, after: String },
    /// One top-level executor step at plan position `index`. `frontier`
    /// holds the traverser counts in and out once the step finishes, and
    /// stays `None` for a step that failed.
    Step { index: usize, frontier: Option<(usize, usize)> },
    /// A Graph Structure table decision (zero duration).
    Table(TableAction),
    /// One SQL statement executed by the dialect.
    Sql { rows: usize, template_hit: bool },
    /// One fan-out job run on the worker pool.
    Worker { job: usize },
}

/// One recorded span. `parent` is an index into the same query's span
/// batch until the batch lands in a `TraceSink`, which rewrites it into
/// a global id (see `TracedSpan`).
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub(crate) parent: Option<usize>,
    /// Start time in nanoseconds since the tree's epoch.
    pub(crate) start_nanos: u64,
    pub(crate) dur_nanos: u64,
    /// Virtual track: 0 for the coordinator, a per-fork number for spans
    /// absorbed from a worker fork. Assigned in absorb order, so it is
    /// deterministic across thread counts.
    pub(crate) track: u32,
    pub(crate) data: SpanData,
}

impl Span {
    /// Stable lowercase kind name (the Chrome event category).
    pub fn kind(&self) -> &'static str {
        match self.data {
            SpanData::Query { .. } => "query",
            SpanData::Strategy { .. } => "strategy",
            SpanData::Step { .. } => "step",
            SpanData::Table(_) => "table",
            SpanData::Sql { .. } => "sql",
            SpanData::Worker { .. } => "worker",
        }
    }

    /// The attributes the exports and `TraceSink::structure_lines` show.
    /// Step frontier sizes and `template_hit` stay out: racing workers
    /// may both miss the same template, so hit/miss is not deterministic
    /// across thread counts, and trace structure must be.
    pub(crate) fn attrs(&self) -> Vec<(&'static str, String)> {
        match &self.data {
            SpanData::Query { gremlin, request_id } => {
                let mut attrs = vec![("gremlin", gremlin.clone())];
                attrs.extend(request_id.iter().map(|id| ("request_id", id.clone())));
                attrs
            }
            SpanData::Strategy { before, after } => {
                vec![("before", before.clone()), ("after", after.clone())]
            }
            SpanData::Step { .. } => Vec::new(),
            SpanData::Table(action) => {
                let (act, reason) = action.parts();
                let mut attrs = vec![("action", act.to_string())];
                attrs.extend(reason.map(|r| ("reason", r.to_string())));
                attrs
            }
            SpanData::Sql { rows, .. } => vec![("rows", rows.to_string())],
            SpanData::Worker { job } => vec![("job", job.to_string())],
        }
    }
}

/// One query's span tree under construction, or a pool worker's fork of
/// it. New spans nest under the innermost open span; every fork shares
/// the tree's epoch, so absorbed timestamps stay on one axis.
#[derive(Debug)]
pub(crate) struct SpanTree {
    epoch: Instant,
    spans: Vec<Span>,
    /// Indices of currently open spans, innermost last.
    stack: Vec<usize>,
    /// Next virtual track to hand to an absorbed fork.
    next_track: u32,
}

impl Default for SpanTree {
    fn default() -> SpanTree {
        SpanTree::at(Instant::now())
    }
}

impl SpanTree {
    fn at(epoch: Instant) -> SpanTree {
        SpanTree { epoch, spans: Vec::new(), stack: Vec::new(), next_track: 1 }
    }

    /// An empty tree on this tree's epoch, for one pool worker.
    pub(crate) fn fork(&self) -> SpanTree {
        SpanTree::at(self.epoch)
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// The spans recorded so far, in recording order.
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn push(&mut self, name: &str, start_nanos: u64, dur_nanos: u64, data: SpanData) -> usize {
        let idx = self.spans.len();
        let parent = self.stack.last().copied();
        let name = name.to_string();
        self.spans.push(Span { name, parent, start_nanos, dur_nanos, track: 0, data });
        idx
    }

    /// Open a span as a child of the innermost open span; returns its
    /// index for [`Self::end`].
    pub(crate) fn start(&mut self, name: &str, data: SpanData) -> usize {
        let idx = self.push(name, self.now(), 0, data);
        self.stack.push(idx);
        idx
    }

    /// Close the span `idx` opened by [`Self::start`], setting its
    /// duration. Spans opened inside it and left open (a step that
    /// failed) stay open until [`Self::finish`].
    pub(crate) fn end(&mut self, idx: usize) {
        let now = self.now();
        let s = &mut self.spans[idx];
        s.dur_nanos = now.saturating_sub(s.start_nanos);
        self.stack.retain(|&i| i != idx);
    }

    /// Close the innermost open span with a duration the caller measured
    /// and its final data (a finished executor step).
    pub(crate) fn end_innermost(&mut self, nanos: u64, data: SpanData) {
        if let Some(idx) = self.stack.pop() {
            let s = &mut self.spans[idx];
            s.dur_nanos = nanos;
            s.data = data;
        }
    }

    /// Record an already-measured span (e.g. a SQL statement timed by the
    /// dialect): it ends now and started `nanos` ago, parented under the
    /// innermost open span.
    pub(crate) fn record(&mut self, name: &str, nanos: u64, data: SpanData) {
        self.push(name, self.now().saturating_sub(nanos), nanos, data);
    }

    /// Append a fork's drained spans. The fork's root spans (no parent
    /// inside it) re-parent under the innermost span open here — the step
    /// span at the fan-out site — and the whole fork gets the next track.
    pub(crate) fn absorb(&mut self, forked: Vec<Span>) {
        if forked.is_empty() {
            return;
        }
        let offset = self.spans.len();
        let parent_here = self.stack.last().copied();
        let track = self.next_track;
        self.next_track += 1;
        self.spans.extend(forked.into_iter().map(|mut s| {
            s.parent = s.parent.map_or(parent_here, |p| Some(p + offset));
            s.track = track;
            s
        }));
    }

    /// Drain the recorded spans, closing any still-open span (a query that
    /// errored mid-step leaves its step span open) at the current time.
    pub(crate) fn finish(&mut self) -> Vec<Span> {
        let now = self.now();
        for idx in std::mem::take(&mut self.stack) {
            let s = &mut self.spans[idx];
            if s.dur_nanos == 0 {
                s.dur_nanos = now.saturating_sub(s.start_nanos);
            }
        }
        std::mem::take(&mut self.spans)
    }
}

// ------------------------------------------------------------------ sink

/// A span with its sink-global id and resolved parent id.
#[derive(Debug, Clone)]
pub(crate) struct TracedSpan {
    pub id: u64,
    pub(crate) parent: Option<u64>,
    pub(crate) span: Span,
}

struct SinkInner {
    buf: VecDeque<TracedSpan>,
    next_id: u64,
}

/// Bounded, lock-cheap ring buffer of completed spans, shared by every
/// query of one graph. One lock acquisition per *query* (spans arrive as a
/// batch from [`Profiler::finish`](crate::metrics::Profiler::finish)); when
/// the ring wraps, the oldest spans
/// are dropped and counted.
pub struct TraceSink {
    capacity: usize,
    dropped: AtomicU64,
    total: AtomicU64,
    inner: Mutex<SinkInner>,
}

impl TraceSink {
    pub(crate) fn new(capacity: usize) -> TraceSink {
        TraceSink {
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            total: AtomicU64::new(0),
            inner: Mutex::new(SinkInner { buf: VecDeque::new(), next_id: 0 }),
        }
    }

    /// Spans dropped because the ring wrapped.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Spans ever pushed (retained + dropped).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Spans currently retained.
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one query's spans, assigning global ids and rewriting
    /// batch-local parent indices; evicts the oldest spans past capacity.
    pub(crate) fn push_batch(&self, spans: Vec<Span>) {
        if spans.is_empty() {
            return;
        }
        self.total.fetch_add(spans.len() as u64, Ordering::Relaxed);
        let mut g = self.inner.lock();
        let base = g.next_id;
        g.next_id += spans.len() as u64;
        for (i, span) in spans.into_iter().enumerate() {
            let parent = span.parent.map(|p| base + p as u64);
            g.buf.push_back(TracedSpan { id: base + i as u64, parent, span });
        }
        let mut evicted = 0u64;
        while g.buf.len() > self.capacity {
            g.buf.pop_front();
            evicted += 1;
        }
        if evicted > 0 {
            self.dropped.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// The retained spans, oldest first.
    pub(crate) fn snapshot(&self) -> Vec<TracedSpan> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// Timing-free rendering of the span forest, one line per span in
    /// recording order: `[kind|track] root > ... > name {attrs}`. Two runs
    /// of the same workload produce identical lines at any thread count —
    /// the seq ≡ par trace-structure tests compare exactly this.
    pub fn structure_lines(&self) -> Vec<String> {
        let spans = self.snapshot();
        let mut paths: std::collections::HashMap<u64, String> = std::collections::HashMap::new();
        let mut out = Vec::with_capacity(spans.len());
        for ts in &spans {
            let prefix = ts
                .parent
                .and_then(|p| paths.get(&p))
                .map(|p| format!("{p} > "))
                .unwrap_or_default();
            let path = format!("{prefix}{}", ts.span.name);
            let attrs: Vec<String> =
                ts.span.attrs().iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push(format!(
                "[{}|t{}] {path} {{{}}}",
                ts.span.kind(),
                ts.span.track,
                attrs.join(",")
            ));
            paths.insert(ts.id, path);
        }
        out
    }

    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` object form),
    /// loadable in Perfetto / `chrome://tracing`. Every span becomes a
    /// complete ("X") event; `args` carries the span id, parent id and
    /// attributes so the hierarchy survives the export machine-readably.
    pub(crate) fn to_chrome_json(&self) -> Json {
        let events: Vec<Json> = self.snapshot().iter().map(chrome_event).collect();
        Json::obj(vec![("traceEvents", Json::arr(events)), ("displayTimeUnit", Json::str("ms"))])
    }

    /// One JSON object per span per line, oldest first.
    pub(crate) fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ts in self.snapshot() {
            out.push_str(&jsonl_event(&ts).to_compact());
            out.push('\n');
        }
        out
    }

    /// Write the Chrome trace-event JSON to a file.
    pub(crate) fn export_chrome(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_chrome_json().to_compact())
    }

    /// Write the JSONL form to a file.
    pub(crate) fn export_jsonl(&self, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.to_jsonl())
    }
}

fn chrome_event(ts: &TracedSpan) -> Json {
    let mut args = vec![("id".to_string(), Json::u64(ts.id))];
    if let Some(p) = ts.parent {
        args.push(("parent".to_string(), Json::u64(p)));
    }
    for (k, v) in ts.span.attrs() {
        args.push((k.to_string(), Json::str(v)));
    }
    Json::obj(vec![
        ("name", Json::str(&ts.span.name)),
        ("cat", Json::str(ts.span.kind())),
        ("ph", Json::str("X")),
        ("ts", Json::num(ts.span.start_nanos as f64 / 1_000.0)),
        ("dur", Json::num(ts.span.dur_nanos as f64 / 1_000.0)),
        ("pid", Json::u64(1)),
        ("tid", Json::u64(ts.span.track as u64 + 1)),
        ("args", Json::Obj(args)),
    ])
}

fn jsonl_event(ts: &TracedSpan) -> Json {
    let mut fields = vec![
        ("id", Json::u64(ts.id)),
        ("name", Json::str(&ts.span.name)),
        ("kind", Json::str(ts.span.kind())),
        ("start_nanos", Json::u64(ts.span.start_nanos)),
        ("dur_nanos", Json::u64(ts.span.dur_nanos)),
        ("track", Json::u64(ts.span.track as u64)),
    ];
    if let Some(p) = ts.parent {
        fields.insert(1, ("parent", Json::u64(p)));
    }
    let attrs: Vec<(String, Json)> =
        ts.span.attrs().into_iter().map(|(k, v)| (k.to_string(), Json::str(v))).collect();
    fields.push(("attrs", Json::Obj(attrs)));
    Json::obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sql(rows: usize) -> SpanData {
        SpanData::Sql { rows, template_hit: false }
    }

    fn query(gremlin: &str) -> SpanData {
        SpanData::Query { gremlin: gremlin.into(), request_id: None }
    }

    fn step(index: usize) -> SpanData {
        SpanData::Step { index, frontier: None }
    }

    #[test]
    fn spans_nest_under_open_parent() {
        let mut t = SpanTree::default();
        let q = t.start("query", query("g.V()"));
        let strategy = SpanData::Strategy { before: "a".into(), after: "b".into() };
        t.record("Strategy", 0, strategy);
        t.start("Step", step(0));
        t.record("SELECT 1", 5, sql(1));
        t.end_innermost(7, SpanData::Step { index: 0, frontier: Some((0, 1)) });
        t.end(q);
        let spans = t.finish();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0)); // strategy under query
        assert_eq!(spans[2].parent, Some(0)); // step under query
        assert_eq!(spans[3].parent, Some(2)); // sql under step
        assert_eq!(spans[3].dur_nanos, 5);
        assert_eq!(spans[2].dur_nanos, 7, "a step keeps the executor's duration");
        assert_eq!(spans[2].data, SpanData::Step { index: 0, frontier: Some((0, 1)) });
        assert_eq!(spans[1].attrs(), vec![("before", "a".to_string()), ("after", "b".to_string())]);
    }

    #[test]
    fn fork_absorb_reparents_under_fanout_site() {
        let mut t = SpanTree::default();
        let q = t.start("query", query("g.V()"));
        let step = t.start("Step", step(0));
        let forks: Vec<Vec<Span>> = (0..2)
            .map(|job| {
                let mut f = t.fork();
                let w = f.start("worker", SpanData::Worker { job });
                f.record("SELECT x", 1, sql(0));
                f.end(w);
                f.finish()
            })
            .collect();
        for f in forks {
            t.absorb(f);
        }
        t.end(step);
        t.end(q);
        let spans = t.finish();
        // query, step, then per fork: worker + sql.
        assert_eq!(spans.len(), 6);
        assert_eq!(spans[2].name, "worker");
        assert_eq!(spans[2].parent, Some(1), "fork root re-parents under the step");
        assert_eq!(spans[3].parent, Some(2), "fork-internal parent offsets shift");
        assert_eq!(spans[2].track, 1);
        assert_eq!(spans[4].track, 2, "each fork gets its own track");
        assert_eq!(spans[4].parent, Some(1));
        assert_eq!(spans[5].parent, Some(4));
    }

    /// Untraced queries record through a disabled profiler: one pointer,
    /// one null check per event, no span data built, and nothing reaches
    /// the sink.
    #[test]
    fn disabled_tracer_is_one_null_check() {
        use crate::metrics::Profiler;
        assert_eq!(std::mem::size_of::<Profiler>(), std::mem::size_of::<usize>());
        let p = Profiler::disabled();
        let q = p.start("query", || panic!("span data must not be built when disabled"));
        let h = p.start("Step", || panic!("span data must not be built when disabled"));
        let fork = p.fork();
        assert!(!fork.is_enabled(), "forking a disabled recorder is free");
        fork.record_statement("SELECT x", false, 1, 10);
        p.absorb(&fork);
        p.record_table("t", TableAction::Queried);
        p.end(h);
        p.end(q);
        let sink = TraceSink::new(4);
        sink.push_batch(p.finish());
        assert!(sink.is_empty());
        assert_eq!((sink.total(), sink.dropped()), (0, 0));
    }

    #[test]
    fn finish_closes_dangling_spans() {
        let mut t = SpanTree::default();
        let q = t.start("query", query("g.V()"));
        t.start("Step", step(0));
        std::thread::sleep(std::time::Duration::from_millis(1));
        // Ending the root leaves the failed step open for finish().
        t.end(q);
        let spans = t.finish();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.dur_nanos > 0), "{spans:?}");
    }

    #[test]
    fn ring_buffer_wraps_in_order_and_counts_drops() {
        let sink = TraceSink::new(4);
        let mut t = SpanTree::default();
        for i in 0..6 {
            t.record(&format!("e{i}"), 0, sql(0));
        }
        sink.push_batch(t.finish());
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 2);
        assert_eq!(sink.total(), 6);
        let names: Vec<String> = sink.snapshot().iter().map(|s| s.span.name.clone()).collect();
        assert_eq!(names, vec!["e2", "e3", "e4", "e5"], "oldest spans drop first");
        let ids: Vec<u64> = sink.snapshot().iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![2, 3, 4, 5], "global ids survive the wrap");
        // A second batch keeps wrapping.
        let mut t2 = SpanTree::default();
        t2.record("late", 0, sql(0));
        sink.push_batch(t2.finish());
        assert_eq!(sink.len(), 4);
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.snapshot().last().unwrap().span.name, "late");
    }

    #[test]
    fn sink_rewrites_parents_to_global_ids() {
        let sink = TraceSink::new(16);
        for _ in 0..2 {
            let mut t = SpanTree::default();
            let q = t.start("query", query("g.V()"));
            t.record("child", 0, SpanData::Table(TableAction::Queried));
            t.end(q);
            sink.push_batch(t.finish());
        }
        let spans = sink.snapshot();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[3].parent, Some(spans[2].id));
        assert_ne!(spans[1].parent, spans[3].parent, "batches get distinct ids");
    }

    #[test]
    fn chrome_export_parses_and_carries_hierarchy() {
        let sink = TraceSink::new(16);
        let mut t = SpanTree::default();
        let q = t.start("query", query("g.V()"));
        t.record("SELECT 1", 1_500, SpanData::Sql { rows: 2, template_hit: true });
        t.end(q);
        sink.push_batch(t.finish());
        let json = Json::parse(&sink.to_chrome_json().to_compact()).unwrap();
        let events = json.get("traceEvents").unwrap();
        let Json::Arr(events) = events else { panic!("traceEvents must be an array") };
        assert_eq!(events.len(), 2);
        for e in events {
            for key in ["name", "cat", "ph", "ts", "dur", "pid", "tid", "args"] {
                assert!(e.get(key).is_some(), "missing {key} in {e:?}");
            }
        }
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("gremlin")).and_then(|g| g.as_str()),
            Some("g.V()")
        );
        let sql = &events[1];
        assert_eq!(sql.get("cat").and_then(|c| c.as_str()), Some("sql"));
        assert_eq!(
            sql.get("args").and_then(|a| a.get("parent")).and_then(|p| p.as_u64()),
            events[0].get("args").and_then(|a| a.get("id")).and_then(|p| p.as_u64()),
        );
        let args = sql.get("args").unwrap();
        assert_eq!(args.get("rows").and_then(|r| r.as_str()), Some("2"));
        assert!(args.get("template_hit").is_none(), "template_hit stays out of exports");
        // JSONL: one parseable object per line.
        let jsonl = sink.to_jsonl();
        assert_eq!(jsonl.lines().count(), 2);
        for line in jsonl.lines() {
            let obj = Json::parse(line).unwrap();
            assert!(obj.get("kind").is_some(), "{line}");
        }
    }

    #[test]
    fn structure_lines_are_timing_free_paths() {
        let sink = TraceSink::new(16);
        let mut t = SpanTree::default();
        let q = t.start("query", query("g.V()"));
        t.start("Step", step(0));
        t.end_innermost(3, SpanData::Step { index: 0, frontier: Some((0, 3)) });
        t.end(q);
        sink.push_batch(t.finish());
        let lines = sink.structure_lines();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "[query|t0] query {gremlin=g.V()}");
        assert_eq!(lines[1], "[step|t0] query > Step {}");
    }
}
