//! Query observability: per-query profiling, plan explanation, and
//! process-wide metrics.
//!
//! Three layers, each answering a different question:
//!
//! * [`Profiler`] — *what did this query do?* The one per-query recorder
//!   threaded through the whole pipeline: the compiler reports which
//!   strategies rewrote the plan, the executor reports each step with its
//!   wall time and frontier sizes, the graph-structure layer reports every
//!   table decision, and the SQL dialect reports each statement it
//!   executed with its template-cache outcome, row count and wall time.
//!   Every event is recorded once, as a span of the query's span tree;
//!   the [`ProfileReport`] is a view of those spans, and the same spans
//!   go to the trace sink when tracing is on. A disabled
//!   profiler ([`Profiler::disabled`]) is a `None`: every record call is
//!   one branch on an `Option` and nothing else, so the unobserved hot
//!   path pays no locks, no allocation, no timestamps.
//! * [`ExplainReport`] — *what would this query do?* A data-independent
//!   dry-run: the optimized plan plus, per GSA step and per table, either
//!   the SQL that would be generated or the reason the table is eliminated.
//!   Produced without touching any data.
//! * [`MetricsRegistry`] — *what has this graph done so far?* Cheap atomic
//!   counters aggregated across all queries, snapshot at any time (the
//!   bench harness exports one per run). Each metric is declared once, as
//!   a row of a [`metric_table!`](crate::metric_table). The macro, its
//!   rows and the [`Histogram`] live in `reldb::metrics`, the lowest
//!   layer, and are re-exported here; the JSON forms live here.

use std::collections::HashMap;
use std::sync::Arc;

use gremlin::TraversalObserver;
use parking_lot::{Mutex, RwLock};

use crate::json::Json;
use crate::trace::{Span, SpanData, SpanTree};

use reldb::{Histogram, MetricRow};

/// Default capacity of the slow-query log (worst-N entries retained).
pub(crate) const DEFAULT_SLOW_LOG_CAPACITY: usize = 32;

/// Default cap on distinct keys per latency-histogram set (per SQL
/// template, per step kind); overflow lands under `"<other>"`.
pub(crate) const DEFAULT_HISTOGRAM_KEYS: usize = 256;

// ------------------------------------------------------------- profiling

/// One compile-time strategy application that changed the plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StrategyRewrite {
    pub strategy: String,
    pub(crate) before: String,
    pub(crate) after: String,
}

/// Execution of one top-level plan step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepProfile {
    pub index: usize,
    pub description: String,
    /// Traverser frontier size entering the step.
    pub in_count: usize,
    /// Traverser frontier size leaving the step.
    pub out_count: usize,
    pub nanos: u64,
}

/// What the graph-structure layer decided about one overlay table while
/// evaluating a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDecision {
    pub table: String,
    pub action: TableAction,
}

/// The decision taken for a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableAction {
    /// The table was queried with SQL.
    Queried,
    /// The table was selected directly without considering the others
    /// (src/dst vertex table link or prefixed-id pinning).
    Pinned,
    /// The table was eliminated before any SQL, for the given reason.
    Pruned(String),
    /// Part of an adjacency hop over this edge table (one direction) was
    /// answered from the adjacency cache, with no SQL for those sources.
    CacheHit,
}

impl TableAction {
    /// The action's name in the profile JSON and trace, and its reason.
    pub(crate) fn parts(&self) -> (&'static str, Option<&str>) {
        match self {
            TableAction::Queried => ("queried", None),
            TableAction::Pinned => ("pinned", None),
            TableAction::Pruned(r) => ("pruned", Some(r)),
            TableAction::CacheHit => ("cache_hit", None),
        }
    }
}

/// One SQL statement executed by the dialect on behalf of the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SqlStatementProfile {
    pub sql: String,
    /// Whether the prepared-template cache already held this statement.
    pub template_hit: bool,
    pub rows: usize,
    pub nanos: u64,
}

/// The per-query counters a report carries beside the spans.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    template_evictions: u64,
    template_invalidations: u64,
    pattern_evictions: u64,
}

impl Counters {
    fn add(&mut self, other: Counters) {
        self.template_evictions += other.template_evictions;
        self.template_invalidations += other.template_invalidations;
        self.pattern_evictions += other.pattern_evictions;
    }

    fn since(self, earlier: Counters) -> Counters {
        Counters {
            template_evictions: self.template_evictions - earlier.template_evictions,
            template_invalidations: self.template_invalidations - earlier.template_invalidations,
            pattern_evictions: self.pattern_evictions - earlier.pattern_evictions,
        }
    }
}

/// What one enabled profiler holds: the span tree, the counters, and
/// where the running script statement began (the span count and counters
/// at that point), which bounds what `.profile()` reports.
#[derive(Default)]
struct Recording {
    spans: SpanTree,
    counters: Counters,
    statement: (usize, Counters),
}

/// Handle to an open span; `None` when the profiler is disabled.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpanHandle(Option<usize>);

/// The per-query recorder. Cheap to clone (shared interior); a disabled
/// profiler is a `None` that records nothing and costs one pointer-null
/// check per event — attribute closures never run.
#[derive(Clone, Default)]
pub(crate) struct Profiler {
    inner: Option<Arc<Mutex<Recording>>>,
}

impl Profiler {
    /// A profiler that drops every event — the default for normal queries.
    pub(crate) fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// A recording profiler with a fresh span tree.
    pub(crate) fn enabled() -> Profiler {
        Profiler { inner: Some(Arc::default()) }
    }

    pub(crate) fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Run `f` on the recording — the one null check of every event.
    fn with(&self, f: impl FnOnce(&mut Recording)) {
        if let Some(inner) = &self.inner {
            f(&mut inner.lock());
        }
    }

    /// A fresh profiler on the same span-tree epoch: a pool worker records
    /// into its own fork, and the coordinator [`Self::absorb`]s the forks
    /// in job order, so a parallel run records the *same* span sequence as
    /// a sequential one. Forking a disabled profiler yields a disabled
    /// (free) one.
    pub(crate) fn fork(&self) -> Profiler {
        let inner = self.inner.as_ref().map(|inner| {
            let spans = inner.lock().spans.fork();
            Arc::new(Mutex::new(Recording { spans, ..Recording::default() }))
        });
        Profiler { inner }
    }

    /// Append everything `fork` recorded (draining it): its spans nest
    /// under the span open here, and its counters add to these.
    pub(crate) fn absorb(&self, fork: &Profiler) {
        let Some(theirs) = &fork.inner else { return };
        let (spans, counters) = {
            let mut t = theirs.lock();
            (t.spans.finish(), std::mem::take(&mut t.counters))
        };
        self.with(|r| {
            r.spans.absorb(spans);
            r.counters.add(counters);
        });
    }

    /// Open a span under the innermost open one; `data` runs only when
    /// enabled.
    pub(crate) fn start(&self, name: &str, data: impl FnOnce() -> SpanData) -> SpanHandle {
        let Some(inner) = &self.inner else { return SpanHandle(None) };
        SpanHandle(Some(inner.lock().spans.start(name, data())))
    }

    /// Close a span opened by [`Self::start`].
    pub(crate) fn end(&self, handle: SpanHandle) {
        if let SpanHandle(Some(idx)) = handle {
            self.with(|r| r.spans.end(idx));
        }
    }

    pub(crate) fn record_strategy(&self, strategy: &str, before: &str, after: &str) {
        self.with(|r| {
            let data = SpanData::Strategy { before: before.to_string(), after: after.to_string() };
            r.spans.record(strategy, 0, data);
        });
    }

    pub(crate) fn record_table(&self, table: &str, action: TableAction) {
        self.with(|r| r.spans.record(table, 0, SpanData::Table(action)));
    }

    pub(crate) fn record_statement(&self, sql: &str, template_hit: bool, rows: usize, nanos: u64) {
        self.with(|r| r.spans.record(sql, nanos, SpanData::Sql { rows, template_hit }));
    }

    /// A prepared template was evicted from the dialect cache while this
    /// query executed.
    pub(crate) fn record_template_eviction(&self) {
        self.with(|r| r.counters.template_evictions += 1);
    }

    /// A cached template was re-prepared because DDL moved the catalog
    /// generation past the one it was compiled under.
    pub(crate) fn record_template_invalidation(&self) {
        self.with(|r| r.counters.template_invalidations += 1);
    }

    /// A tracked workload pattern was evicted while this query executed.
    pub(crate) fn record_pattern_eviction(&self) {
        self.with(|r| r.counters.pattern_evictions += 1);
    }

    /// The report of everything recorded so far (empty when disabled).
    pub(crate) fn report(&self) -> ProfileReport {
        let Some(inner) = &self.inner else { return ProfileReport::default() };
        let r = inner.lock();
        ProfileReport::from_spans(r.spans.spans(), r.counters)
    }

    /// Call `f(description, nanos)` for every finished step, in recording
    /// order — the per-step-kind latency histograms read this, not a
    /// report.
    pub(crate) fn for_each_step(&self, mut f: impl FnMut(&str, u64)) {
        self.with(|r| {
            for s in r.spans.spans() {
                if let SpanData::Step { frontier: Some(_), .. } = s.data {
                    f(&s.name, s.dur_nanos);
                }
            }
        });
    }

    /// Drain the recorded spans for the trace sink, closing any span an
    /// error left open.
    pub(crate) fn finish(&self) -> Vec<Span> {
        let Some(inner) = &self.inner else { return Vec::new() };
        inner.lock().spans.finish()
    }
}

impl TraversalObserver for Profiler {
    fn strategy_applied(&self, name: &str, before: &str, after: &str) {
        self.record_strategy(name, before, after);
    }

    fn statement_started(&self) {
        self.with(|r| r.statement = (r.spans.spans().len(), r.counters));
    }

    fn step_started(&self, index: usize, description: &str) {
        self.with(|r| {
            r.spans.start(description, SpanData::Step { index, frontier: None });
        });
    }

    fn step_finished(
        &self,
        index: usize,
        _description: &str,
        in_count: usize,
        out_count: usize,
        nanos: u64,
    ) {
        // Close the span opened by step_started; its children (table
        // decisions, SQL statements, absorbed worker spans) recorded while
        // the step ran and are already nested under it.
        let data = SpanData::Step { index, frontier: Some((in_count, out_count)) };
        self.with(|r| r.spans.end_innermost(nanos, data));
    }

    fn take_report(&self) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let r = inner.lock();
        let (first, counters) = r.statement;
        let spans = &r.spans.spans()[first..];
        Some(ProfileReport::from_spans(spans, r.counters.since(counters)).to_string())
    }
}

/// Structured result of profiling one query.
#[derive(Debug, Clone, Default)]
pub struct ProfileReport {
    pub strategies: Vec<StrategyRewrite>,
    pub steps: Vec<StepProfile>,
    pub tables: Vec<TableDecision>,
    pub statements: Vec<SqlStatementProfile>,
    /// Prepared templates evicted from the dialect cache during this query
    /// (field name matches [`MetricsSnapshot::template_evictions`]).
    pub(crate) template_evictions: u64,
    /// Cached templates re-prepared after DDL during this query (field name
    /// matches [`MetricsSnapshot::template_invalidations`]).
    pub(crate) template_invalidations: u64,
    /// Workload patterns evicted during this query (field name matches
    /// [`MetricsSnapshot::pattern_evictions`]).
    pub(crate) pattern_evictions: u64,
}

/// The step *kind* of a step description — the prefix up to the first
/// `(`: `"Vertex(out)"` → `"Vertex"`. Keys the per-step-kind latency
/// histograms.
pub(crate) fn step_kind(description: &str) -> &str {
    description.split('(').next().unwrap_or(description)
}

impl ProfileReport {
    /// The report as a view of recorded spans: strategy, finished step,
    /// table and SQL spans in recording order, plus the counters.
    fn from_spans(spans: &[Span], counters: Counters) -> ProfileReport {
        let mut report = ProfileReport {
            template_evictions: counters.template_evictions,
            template_invalidations: counters.template_invalidations,
            pattern_evictions: counters.pattern_evictions,
            ..ProfileReport::default()
        };
        for s in spans {
            match &s.data {
                SpanData::Strategy { before, after } => report.strategies.push(StrategyRewrite {
                    strategy: s.name.clone(),
                    before: before.clone(),
                    after: after.clone(),
                }),
                &SpanData::Step { index, frontier: Some((in_count, out_count)) } => {
                    report.steps.push(StepProfile {
                        index,
                        description: s.name.clone(),
                        in_count,
                        out_count,
                        nanos: s.dur_nanos,
                    })
                }
                SpanData::Table(action) => report
                    .tables
                    .push(TableDecision { table: s.name.clone(), action: action.clone() }),
                &SpanData::Sql { rows, template_hit } => {
                    report.statements.push(SqlStatementProfile {
                        sql: s.name.clone(),
                        template_hit,
                        rows,
                        nanos: s.dur_nanos,
                    })
                }
                SpanData::Query { .. } | SpanData::Step { .. } | SpanData::Worker { .. } => {}
            }
        }
        report
    }

    /// Tables the graph-structure layer looked at (queried, pinned,
    /// pruned and cache-hit decisions).
    pub fn tables_considered(&self) -> usize {
        self.tables.len()
    }

    /// Tables that actually received SQL (queried or pinned).
    pub fn tables_queried(&self) -> usize {
        self.tables
            .iter()
            .filter(|d| matches!(d.action, TableAction::Queried | TableAction::Pinned))
            .count()
    }

    pub fn tables_pruned(&self) -> usize {
        self.tables.iter().filter(|d| matches!(d.action, TableAction::Pruned(_))).count()
    }

    pub fn template_hits(&self) -> usize {
        self.statements.iter().filter(|s| s.template_hit).count()
    }

    pub fn template_misses(&self) -> usize {
        self.statements.iter().filter(|s| !s.template_hit).count()
    }

    pub(crate) fn total_sql_nanos(&self) -> u64 {
        self.statements.iter().map(|s| s.nanos).sum()
    }

    pub fn total_rows(&self) -> usize {
        self.statements.iter().map(|s| s.rows).sum()
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            (
                "strategies",
                Json::arr(
                    self.strategies
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("strategy", Json::str(&s.strategy)),
                                ("before", Json::str(&s.before)),
                                ("after", Json::str(&s.after)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "steps",
                Json::arr(
                    self.steps
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("index", Json::u64(s.index as u64)),
                                ("step", Json::str(&s.description)),
                                ("in", Json::u64(s.in_count as u64)),
                                ("out", Json::u64(s.out_count as u64)),
                                ("nanos", Json::u64(s.nanos)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "tables",
                Json::arr(
                    self.tables
                        .iter()
                        .map(|d| {
                            let (action, reason) = d.action.parts();
                            let mut fields =
                                vec![("table", Json::str(&d.table)), ("action", Json::str(action))];
                            if let Some(r) = reason {
                                fields.push(("reason", Json::str(r)));
                            }
                            Json::obj(fields)
                        })
                        .collect(),
                ),
            ),
            (
                "sql",
                Json::arr(
                    self.statements
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("sql", Json::str(&s.sql)),
                                ("template_hit", Json::Bool(s.template_hit)),
                                ("rows", Json::u64(s.rows as u64)),
                                ("nanos", Json::u64(s.nanos)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "totals",
                Json::obj(vec![
                    ("tables_considered", Json::u64(self.tables_considered() as u64)),
                    ("tables_queried", Json::u64(self.tables_queried() as u64)),
                    ("tables_pruned", Json::u64(self.tables_pruned() as u64)),
                    ("template_hits", Json::u64(self.template_hits() as u64)),
                    ("template_misses", Json::u64(self.template_misses() as u64)),
                    ("template_evictions", Json::u64(self.template_evictions)),
                    ("template_invalidations", Json::u64(self.template_invalidations)),
                    ("pattern_evictions", Json::u64(self.pattern_evictions)),
                    ("sql_rows", Json::u64(self.total_rows() as u64)),
                    ("sql_nanos", Json::u64(self.total_sql_nanos())),
                ]),
            ),
        ])
    }
}

/// Pretty nanoseconds for report text.
pub(crate) fn fmt_nanos(n: u64) -> String {
    if n >= 1_000_000_000 {
        format!("{:.2}s", n as f64 / 1e9)
    } else if n >= 1_000_000 {
        format!("{:.2}ms", n as f64 / 1e6)
    } else if n >= 1_000 {
        format!("{:.1}µs", n as f64 / 1e3)
    } else {
        format!("{n}ns")
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "profile")?;
        if !self.strategies.is_empty() {
            writeln!(f, "  strategies:")?;
            for s in &self.strategies {
                writeln!(f, "    {}: {} => {}", s.strategy, s.before, s.after)?;
            }
        }
        if !self.steps.is_empty() {
            writeln!(f, "  steps:")?;
            for s in &self.steps {
                writeln!(
                    f,
                    "    [{}] {}  in={} out={}  {}",
                    s.index,
                    s.description,
                    s.in_count,
                    s.out_count,
                    fmt_nanos(s.nanos)
                )?;
            }
        }
        writeln!(
            f,
            "  tables: considered={} queried={} pruned={}",
            self.tables_considered(),
            self.tables_queried(),
            self.tables_pruned()
        )?;
        for d in &self.tables {
            match d.action.parts() {
                (action, Some(r)) => writeln!(f, "    {}: {action} ({r})", d.table)?,
                (action, None) => writeln!(f, "    {}: {action}", d.table)?,
            }
        }
        write!(
            f,
            "  sql: statements={} template_hits={} misses={} rows={} total={}",
            self.statements.len(),
            self.template_hits(),
            self.template_misses(),
            self.total_rows(),
            fmt_nanos(self.total_sql_nanos())
        )?;
        for s in &self.statements {
            write!(
                f,
                "\n    [{}, {} rows, {}] {}",
                fmt_nanos(s.nanos),
                s.rows,
                if s.template_hit { "hit" } else { "miss" },
                s.sql
            )?;
        }
        Ok(())
    }
}

// --------------------------------------------------------------- explain

/// How one table would be handled by one GSA step — decided without
/// touching data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TablePlan {
    /// The SQL statement(s) this step would issue against the table.
    Query { sql: Vec<String> },
    /// The table would be queried per frontier batch; the exact statement
    /// depends on runtime ids (adjacency steps).
    Candidate { detail: String },
    /// The table is eliminated, with the reason.
    Pruned { reason: String },
}

/// A table's explain entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableExplain {
    pub table: String,
    pub plan: TablePlan,
}

/// Explain detail for one plan step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepExplain {
    pub index: usize,
    pub description: String,
    pub tables: Vec<TableExplain>,
}

/// The full result of `explain()`: the rewritten plan and the SQL it would
/// generate, produced without executing anything.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainReport {
    /// The optimized plan rendering (after all strategies).
    pub plan: String,
    pub steps: Vec<StepExplain>,
}

impl ExplainReport {
    pub fn tables_considered(&self) -> usize {
        self.steps.iter().map(|s| s.tables.len()).sum()
    }

    pub fn tables_queried(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| &s.tables)
            .filter(|t| !matches!(t.plan, TablePlan::Pruned { .. }))
            .count()
    }

    pub fn tables_pruned(&self) -> usize {
        self.steps
            .iter()
            .flat_map(|s| &s.tables)
            .filter(|t| matches!(t.plan, TablePlan::Pruned { .. }))
            .count()
    }

    /// Every SQL statement the plan would issue, in step order.
    pub fn sql_statements(&self) -> Vec<&str> {
        self.steps
            .iter()
            .flat_map(|s| &s.tables)
            .filter_map(|t| match &t.plan {
                TablePlan::Query { sql } => Some(sql.iter().map(String::as_str)),
                _ => None,
            })
            .flatten()
            .collect()
    }

    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("plan", Json::str(&self.plan)),
            (
                "steps",
                Json::arr(
                    self.steps
                        .iter()
                        .map(|s| {
                            Json::obj(vec![
                                ("index", Json::u64(s.index as u64)),
                                ("step", Json::str(&s.description)),
                                (
                                    "tables",
                                    Json::arr(
                                        s.tables
                                            .iter()
                                            .map(|t| {
                                                let mut fields =
                                                    vec![("table", Json::str(&t.table))];
                                                match &t.plan {
                                                    TablePlan::Query { sql } => {
                                                        fields.push((
                                                            "sql",
                                                            Json::arr(
                                                                sql.iter().map(Json::str).collect(),
                                                            ),
                                                        ));
                                                    }
                                                    TablePlan::Candidate { detail } => {
                                                        fields
                                                            .push(("candidate", Json::str(detail)));
                                                    }
                                                    TablePlan::Pruned { reason } => {
                                                        fields.push(("pruned", Json::str(reason)));
                                                    }
                                                }
                                                Json::obj(fields)
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

impl std::fmt::Display for ExplainReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan: {}", self.plan)?;
        for s in &self.steps {
            if s.tables.is_empty() {
                continue;
            }
            write!(f, "\nstep {}: {}", s.index, s.description)?;
            for t in &s.tables {
                match &t.plan {
                    TablePlan::Query { sql } => {
                        for q in sql {
                            write!(f, "\n  {}: {q}", t.table)?;
                        }
                    }
                    TablePlan::Candidate { detail } => {
                        write!(f, "\n  {}: {detail}", t.table)?;
                    }
                    TablePlan::Pruned { reason } => {
                        write!(f, "\n  {}: pruned ({reason})", t.table)?;
                    }
                }
            }
        }
        Ok(())
    }
}

// ------------------------------------------------------------ histograms

/// `{"count", "sum_nanos", "p50_nanos", "p90_nanos", "p99_nanos"}`.
pub(crate) fn histogram_json(h: &Histogram) -> Json {
    let (p50, p90, p99) = h.percentiles();
    Json::obj(vec![
        ("count", Json::u64(h.count())),
        ("sum_nanos", Json::u64(h.sum())),
        ("p50_nanos", Json::u64(p50)),
        ("p90_nanos", Json::u64(p90)),
        ("p99_nanos", Json::u64(p99)),
    ])
}

/// Keyed histograms (per SQL template, per step kind) with a bounded key
/// set: once `cap` distinct keys exist, further keys aggregate under
/// `"<other>"` so an adversarial workload cannot grow the map unbounded.
pub struct HistogramSet {
    cap: usize,
    map: RwLock<HashMap<String, Arc<Histogram>>>,
}

impl std::fmt::Debug for HistogramSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HistogramSet").field("cap", &self.cap).finish_non_exhaustive()
    }
}

impl Default for HistogramSet {
    fn default() -> HistogramSet {
        HistogramSet::new(DEFAULT_HISTOGRAM_KEYS)
    }
}

impl HistogramSet {
    pub fn new(cap: usize) -> HistogramSet {
        HistogramSet { cap: cap.max(1), map: RwLock::new(HashMap::new()) }
    }

    pub fn record(&self, key: &str, nanos: u64) {
        let hist = {
            let read = self.map.read();
            read.get(key).cloned()
        };
        let hist = match hist {
            Some(h) => h,
            None => {
                let mut write = self.map.write();
                let effective = if write.len() >= self.cap && !write.contains_key(key) {
                    "<other>"
                } else {
                    key
                };
                write.entry(effective.to_string()).or_default().clone()
            }
        };
        hist.record(nanos);
    }

    /// All keyed histograms, sorted by key for deterministic output.
    pub fn entries(&self) -> Vec<(String, Arc<Histogram>)> {
        let mut out: Vec<(String, Arc<Histogram>)> =
            self.map.read().iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(self.entries().into_iter().map(|(k, h)| (k, histogram_json(&h))).collect())
    }
}

// --------------------------------------------------------- slow-query log

/// One retained slow query: the script, its wall time, a monotonic
/// admission sequence, and the full per-query [`ProfileReport`].
#[derive(Debug, Clone)]
pub struct SlowQueryEntry {
    pub(crate) seq: u64,
    pub(crate) gremlin: String,
    pub wall_nanos: u64,
    pub report: ProfileReport,
    /// The serving layer's correlation id, when the query arrived over
    /// HTTP — links this entry to the response header, error body, trace
    /// span root, and event log.
    pub request_id: Option<String>,
}

struct SlowLogInner {
    entries: Vec<SlowQueryEntry>,
    seq: u64,
}

/// Worst-N ring of completed queries over a wall-time threshold
/// (`DB2GRAPH_SLOW_QUERY_MS`). Each entry keeps its full profile report,
/// so the tail is diagnosable after the fact without re-running anything.
/// When full, a new slow query replaces the *fastest* retained entry —
/// the log converges on the worst N, not the most recent N.
pub(crate) struct SlowQueryLog {
    threshold_nanos: u64,
    capacity: usize,
    inner: Mutex<SlowLogInner>,
}

impl SlowQueryLog {
    pub(crate) fn new(threshold_nanos: u64, capacity: usize) -> SlowQueryLog {
        SlowQueryLog {
            threshold_nanos,
            capacity: capacity.max(1),
            inner: Mutex::new(SlowLogInner { entries: Vec::new(), seq: 0 }),
        }
    }

    pub(crate) fn threshold_nanos(&self) -> u64 {
        self.threshold_nanos
    }

    /// Offer a completed query, with the serving layer's request id so the
    /// retained entry stays correlatable with the HTTP response; returns
    /// whether it crossed the threshold (and was therefore counted slow,
    /// even if a worse entry kept its ring slot).
    pub(crate) fn offer_with_id(
        &self,
        gremlin: &str,
        wall_nanos: u64,
        report: &ProfileReport,
        request_id: Option<&str>,
    ) -> bool {
        if wall_nanos < self.threshold_nanos {
            return false;
        }
        let mut g = self.inner.lock();
        g.seq += 1;
        let entry = SlowQueryEntry {
            seq: g.seq,
            gremlin: gremlin.to_string(),
            wall_nanos,
            report: report.clone(),
            request_id: request_id.map(str::to_string),
        };
        if g.entries.len() < self.capacity {
            g.entries.push(entry);
        } else if let Some(min_idx) = (0..g.entries.len())
            .min_by_key(|&i| (g.entries[i].wall_nanos, std::cmp::Reverse(g.entries[i].seq)))
        {
            if g.entries[min_idx].wall_nanos < wall_nanos {
                g.entries[min_idx] = entry;
            }
        }
        true
    }

    /// Retained entries, slowest first (ties broken newest-first).
    pub(crate) fn entries(&self) -> Vec<SlowQueryEntry> {
        let mut out = self.inner.lock().entries.clone();
        out.sort_by(|a, b| b.wall_nanos.cmp(&a.wall_nanos).then_with(|| b.seq.cmp(&a.seq)));
        out
    }

    pub(crate) fn to_json(&self) -> Json {
        Json::arr(
            self.entries()
                .iter()
                .map(|e| {
                    Json::obj(vec![
                        ("seq", Json::u64(e.seq)),
                        ("gremlin", Json::str(&e.gremlin)),
                        ("wall_nanos", Json::u64(e.wall_nanos)),
                        (
                            "request_id",
                            match &e.request_id {
                                Some(id) => Json::str(id),
                                None => Json::Null,
                            },
                        ),
                        ("profile", e.report.to_json()),
                    ])
                })
                .collect(),
        )
    }
}

// --------------------------------------------------------- metric tables

/// `rows` as JSON object fields, in row order.
pub fn json_fields(rows: &[MetricRow]) -> Vec<(&'static str, Json)> {
    rows.iter().map(|r| (r.name, Json::u64(r.value))).collect()
}

// --------------------------------------------------------------- metrics

crate::metric_table! {
    /// Process-lifetime metrics for one graph, shared by every query. All
    /// atomic; safe to read concurrently with query execution.
    pub struct MetricsRegistry;
    /// Point-in-time metrics for one graph: the `graph` section of
    /// `/metrics`. Gauges kept outside the registry read 0 in a bare
    /// [`MetricsRegistry::snapshot`]; [`Db2Graph::metrics`] fills them.
    ///
    /// [`Db2Graph::metrics`]: crate::Db2Graph::metrics
    pub struct MetricsSnapshot {
        /// Traversals run (every `run` and `profile` call).
        traversals: Counter,
        /// SQL statements executed by the SQL Dialect.
        sql_statements: Counter,
        /// Summed wall time of those statements, in nanoseconds.
        sql_wall_nanos: Counter,
        /// Rows those statements returned.
        rows_returned: Counter,
        /// Statements served by an already-prepared template.
        template_hits: Counter,
        /// Statements that had to prepare their template.
        template_misses: Counter,
        /// Prepared templates dropped because the cache hit its size cap.
        template_evictions: Counter,
        /// Cached templates re-prepared because DDL changed the catalog.
        template_invalidations: Counter,
        /// Workload patterns dropped because the tracker hit its size cap.
        pattern_evictions: Counter,
        /// Completed queries whose wall time crossed the slow-query threshold.
        slow_queries: Counter,
        /// `Database::vacuum` passes run: the inline sweep a commit
        /// triggers and the server's vacuum task alike. Read from the
        /// database by `Db2Graph::metrics`; 0 in a bare registry snapshot.
        vacuum_runs: Counter,
        /// Dead row versions reclaimed across those passes.
        vacuumed_versions: Counter,
        /// Spans retained in the trace ring buffer (0 when tracing is off).
        trace_spans: Gauge,
        /// Spans evicted because the trace ring buffer wrapped.
        dropped_spans: Gauge,
        /// The database's highest published commit epoch.
        commit_epoch: Gauge,
        /// The oldest epoch a live snapshot pins — the vacuum horizon. A
        /// horizon far behind `commit_epoch` means a snapshot is holding
        /// garbage alive.
        snapshot_horizon: Gauge,
        /// Currently registered snapshots.
        active_snapshots: Gauge,
        /// WAL records appended since the database opened (0 in memory).
        wal_records: Gauge,
        /// WAL bytes appended since the database opened.
        wal_bytes: Gauge,
        /// Checkpoints completed since the database opened.
        checkpoints: Gauge,
        /// Commit epochs the last `Database::open` replayed from the WAL
        /// during crash recovery.
        recovery_replayed_epochs: Gauge,
        /// End-to-end traversal latency p50 (log2-bucket upper bound).
        query_p50_nanos: Gauge,
        /// End-to-end traversal latency p90.
        query_p90_nanos: Gauge,
        /// End-to-end traversal latency p99.
        query_p99_nanos: Gauge,
        /// Per-SQL-statement latency p50 (log2-bucket upper bound).
        sql_p50_nanos: Gauge,
        /// Per-SQL-statement latency p90.
        sql_p90_nanos: Gauge,
        /// Per-SQL-statement latency p99.
        sql_p99_nanos: Gauge,
        /// Overlay tables graph operations considered before pruning.
        tables_considered: Counter,
        /// Tables eliminated before any SQL by the runtime optimisations
        /// (labels, prefixed ids, property names, src/dst table links).
        tables_pruned: Counter,
        /// Vertices built straight from edge rows with no SQL (the "vertex
        /// table is also an edge table" optimisation).
        vertices_from_edges: Counter,
        /// Frontier sources expanded straight from the adjacency cache.
        adj_cache_hits: Counter,
        /// Frontier sources that fell back to the batched-SQL path.
        adj_cache_misses: Counter,
        /// Cache segments dropped to stay within the byte budget.
        adj_cache_evictions: Counter,
        /// Cache segments dropped as stale (commit epoch or schema change).
        adj_cache_invalidations: Counter,
        /// Resident adjacency-cache bytes.
        adj_cache_bytes: Gauge,
        /// Bytes of torn WAL tail the last `Database::open` cut off during
        /// crash recovery.
        recovery_truncated_bytes: Gauge,
    }
    with {
        query_latency: Histogram,
        sql_latency: Histogram,
        sql_templates: HistogramSet,
        step_kinds: HistogramSet,
    }
}

impl MetricsSnapshot {
    /// The `graph` section of `/metrics`: every row, in table order.
    pub fn to_json(&self) -> Json {
        Json::obj(json_fields(&self.rows()))
    }
}

impl MetricsRegistry {
    /// One executed SQL statement: its template-cache outcome, the rows it
    /// returned and its wall time, in the counters and in the aggregate
    /// and per-template latency histograms.
    pub(crate) fn record_statement(
        &self,
        template: &str,
        template_hit: bool,
        rows: u64,
        nanos: u64,
    ) {
        if template_hit {
            self.template_hits.add(1);
        } else {
            self.template_misses.add(1);
        }
        self.sql_statements.add(1);
        self.rows_returned.add(rows);
        self.sql_wall_nanos.add(nanos);
        self.sql_latency.record(nanos);
        self.sql_templates.record(template, nanos);
    }

    /// End-to-end wall time of one complete traversal.
    pub(crate) fn record_query_latency(&self, nanos: u64) {
        self.query_latency.record(nanos);
    }

    /// Wall time of one executor step, keyed by step kind (`has`, `outE`, …).
    pub(crate) fn record_step_latency(&self, kind: &str, nanos: u64) {
        self.step_kinds.record(kind, nanos);
    }

    pub fn query_latency(&self) -> &Histogram {
        &self.query_latency
    }

    pub fn sql_latency(&self) -> &Histogram {
        &self.sql_latency
    }

    pub fn sql_templates(&self) -> &HistogramSet {
        &self.sql_templates
    }

    pub fn step_kinds(&self) -> &HistogramSet {
        &self.step_kinds
    }

    /// Full latency breakdown: aggregate query/SQL histograms plus the
    /// per-template and per-step-kind keyed histograms.
    pub(crate) fn histogram_report(&self) -> Json {
        Json::obj(vec![
            ("query_latency", histogram_json(&self.query_latency)),
            ("sql_latency", histogram_json(&self.sql_latency)),
            ("sql_templates", self.sql_templates.to_json()),
            ("step_kinds", self.step_kinds.to_json()),
        ])
    }

    /// Every slot, plus the latency percentiles read from the histograms.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.load();
        (snap.query_p50_nanos, snap.query_p90_nanos, snap.query_p99_nanos) =
            self.query_latency.percentiles();
        (snap.sql_p50_nanos, snap.sql_p90_nanos, snap.sql_p99_nanos) =
            self.sql_latency.percentiles();
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::MetricKind;

    /// The contract the hot path relies on: a disabled profiler is a
    /// single null check per event — `Option<Arc<..>>` niche-packed to one
    /// pointer, no attribute closures invoked, nothing recorded.
    #[test]
    fn disabled_profiler_records_nothing() {
        assert_eq!(
            std::mem::size_of::<Profiler>(),
            std::mem::size_of::<usize>(),
            "Profiler must stay a niche-packed Option<Arc<..>> pointer"
        );
        let p = Profiler::disabled();
        assert!(!p.is_enabled());
        let h = p.start("q", || panic!("attr closure must not run when disabled"));
        p.record_strategy("s", "a", "b");
        p.step_started(0, "x");
        p.step_finished(0, "x", 1, 2, 3);
        p.record_table("t", TableAction::Queried);
        p.record_statement("SELECT 1", false, 1, 10);
        let fork = p.fork();
        assert!(!fork.is_enabled());
        fork.record_template_eviction();
        p.absorb(&fork);
        p.end(h);
        let r = p.report();
        assert!(r.strategies.is_empty());
        assert!(r.steps.is_empty());
        assert!(r.tables.is_empty());
        assert!(r.statements.is_empty());
        assert!(p.take_report().is_none());
        assert!(p.finish().is_empty());
    }

    #[test]
    fn enabled_profiler_accumulates_and_counts() {
        let p = Profiler::enabled();
        p.record_strategy("PredicatePushdown", "a", "b");
        p.record_table("Patient", TableAction::Queried);
        p.record_table("Disease", TableAction::Pruned("id prefix mismatch".into()));
        p.record_table("Visit", TableAction::Pinned);
        p.record_statement("SELECT * FROM Patient", false, 3, 1_500);
        p.record_statement("SELECT * FROM Patient", true, 3, 900);
        let r = p.report();
        assert_eq!(r.tables_considered(), 3);
        assert_eq!(r.tables_queried(), 2);
        assert_eq!(r.tables_pruned(), 1);
        assert_eq!(r.template_hits(), 1);
        assert_eq!(r.template_misses(), 1);
        assert_eq!(r.total_rows(), 6);
        assert_eq!(r.total_sql_nanos(), 2_400);
        let text = p.take_report().unwrap();
        assert!(text.contains("PredicatePushdown"), "{text}");
        assert!(text.contains("pruned (id prefix mismatch)"), "{text}");
        // JSON export round-trips through the parser.
        let json = crate::json::Json::parse(&r.to_json().to_pretty()).unwrap();
        assert_eq!(
            json.get("totals").and_then(|t| t.get("tables_pruned")).and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn report_is_a_view_of_the_spans() {
        let p = Profiler::enabled();
        let root = p.start("query", || SpanData::Query { gremlin: "g".into(), request_id: None });
        p.record_strategy("S", "a", "b");
        p.step_started(0, "Graph(V)");
        let fork = p.fork();
        let w = fork.start("worker", || SpanData::Worker { job: 0 });
        fork.record_table("Patient", TableAction::Queried);
        fork.record_statement("SELECT 1", false, 3, 40);
        fork.record_template_eviction();
        fork.end(w);
        p.absorb(&fork);
        p.step_finished(0, "Graph(V)", 0, 3, 100);
        p.step_started(1, "count");
        p.end(root); // step 1 never finishes: it failed
        let r = p.report();
        // Every timing in the report is a span duration set here, so the
        // text is exact; step 1 failed and is not in it.
        let text = "profile
  strategies:
    S: a => b
  steps:
    [0] Graph(V)  in=0 out=3  100ns
  tables: considered=1 queried=1 pruned=0
    Patient: queried
  sql: statements=1 template_hits=0 misses=1 rows=3 total=40ns
    [40ns, 3 rows, miss] SELECT 1";
        assert_eq!(r.to_string(), text);
        assert_eq!(r.template_evictions, 1, "absorb merges the fork's counters");
        // The same spans, drained for the sink: query, strategy, step,
        // worker, table, sql, and the failed step closed by finish().
        let spans = p.finish();
        let kinds: Vec<&str> = spans.iter().map(Span::kind).collect();
        assert_eq!(kinds, ["query", "strategy", "step", "worker", "table", "sql", "step"]);
        assert!(spans[6].dur_nanos > 0);
    }

    #[test]
    fn take_report_covers_the_running_statement() {
        let p = Profiler::enabled();
        p.statement_started();
        p.record_table("Disease", TableAction::Queried);
        p.record_pattern_eviction();
        p.statement_started();
        p.record_table("Patient", TableAction::Pinned);
        let text = p.take_report().unwrap();
        assert!(text.contains("Patient: pinned"), "{text}");
        assert!(!text.contains("Disease"), "an earlier statement leaked: {text}");
        assert!(p.take_report().unwrap().contains("Patient"), "taking keeps the spans");
        let whole = p.report();
        assert_eq!((whole.tables.len(), whole.pattern_evictions), (2, 1));
    }

    #[test]
    fn explain_report_accessors() {
        let r = ExplainReport {
            plan: "Graph(V|ids)".into(),
            steps: vec![StepExplain {
                index: 0,
                description: "Graph(V|ids)".into(),
                tables: vec![
                    TableExplain {
                        table: "Patient".into(),
                        plan: TablePlan::Query { sql: vec!["SELECT x FROM Patient".into()] },
                    },
                    TableExplain {
                        table: "Disease".into(),
                        plan: TablePlan::Pruned { reason: "id prefix mismatch".into() },
                    },
                ],
            }],
        };
        assert_eq!(r.tables_considered(), 2);
        assert_eq!(r.tables_queried(), 1);
        assert_eq!(r.tables_pruned(), 1);
        assert_eq!(r.sql_statements(), vec!["SELECT x FROM Patient"]);
        let text = r.to_string();
        assert!(text.starts_with("plan: Graph(V|ids)"), "{text}");
        assert!(text.contains("SELECT x FROM Patient"), "{text}");
        assert!(text.contains("pruned (id prefix mismatch)"), "{text}");
    }

    #[test]
    fn every_row_follows_its_kind() {
        // Walk the whole table: counters subtract in `since`, gauges carry
        // the later value, and the JSON keys come out in row order.
        let earlier = MetricsSnapshot::from_fn(|name| name.len() as u64);
        let later = MetricsSnapshot::from_fn(|name| 1_000 + 2 * name.len() as u64);
        let window = later.since(&earlier);
        for (row, earlier) in window.rows().iter().zip(earlier.rows()) {
            let want = match row.kind {
                MetricKind::Counter => 1_000 + earlier.value,
                MetricKind::Gauge => 1_000 + 2 * earlier.value,
            };
            assert_eq!(row.value, want, "{} is a {:?}", row.name, row.kind);
        }
        // The benchmark subtracts these two itself, so they must carry.
        assert_eq!(window.wal_bytes, later.wal_bytes);
        assert_eq!(window.checkpoints, later.checkpoints);
        let json = Json::parse(&later.to_json().to_compact()).unwrap();
        let keys: Vec<&str> = json.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        let names: Vec<&str> = later.rows().iter().map(|r| r.name).collect();
        assert_eq!(keys, names);
    }

    #[test]
    fn one_call_records_a_statement() {
        let m = MetricsRegistry::default();
        m.traversals.add(1);
        m.record_statement("SELECT 1", false, 5, 1_000);
        m.record_statement("SELECT 1", true, 2, 500);
        let s = m.snapshot();
        assert_eq!((s.traversals, s.sql_statements, s.rows_returned), (1, 2, 7));
        assert_eq!((s.template_hits, s.template_misses, s.sql_wall_nanos), (1, 1, 1_500));
        assert_eq!(m.sql_latency().count(), 2);
        assert_eq!(m.sql_templates().entries().len(), 1);
    }

    #[test]
    fn nanos_formatting() {
        assert_eq!(fmt_nanos(12), "12ns");
        assert_eq!(fmt_nanos(1_500), "1.5µs");
        assert_eq!(fmt_nanos(2_500_000), "2.50ms");
        assert_eq!(fmt_nanos(3_000_000_000), "3.00s");
    }

    #[test]
    fn histogram_set_caps_keys_into_other() {
        let set = HistogramSet::new(2);
        set.record("a", 1);
        set.record("b", 2);
        set.record("c", 3); // over cap → "<other>"
        set.record("a", 4); // existing key still records
        let entries = set.entries();
        let keys: Vec<&str> = entries.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["<other>", "a", "b"]);
        let a = &entries.iter().find(|(k, _)| k == "a").unwrap().1;
        assert_eq!(a.count(), 2);
        let parsed = Json::parse(&set.to_json().to_compact()).unwrap();
        assert_eq!(
            parsed.get("<other>").and_then(|h| h.get("count")).and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn slow_query_log_keeps_worst_n() {
        let log = SlowQueryLog::new(100, 2);
        let report = ProfileReport::default();
        assert!(!log.offer_with_id("fast", 99, &report, None)); // under threshold
        assert!(log.offer_with_id("slow-a", 150, &report, None));
        assert!(log.offer_with_id("slow-b", 300, &report, None));
        assert!(log.offer_with_id("slow-c", 200, &report, None)); // evicts slow-a (fastest)
        assert!(log.offer_with_id("slow-d", 120, &report, None)); // counted slow, but not retained
        let entries = log.entries();
        let names: Vec<&str> = entries.iter().map(|e| e.gremlin.as_str()).collect();
        assert_eq!(names, vec!["slow-b", "slow-c"]);
        assert_eq!(entries[0].wall_nanos, 300);
        let json = log.to_json().to_compact();
        assert!(json.contains("\"gremlin\":\"slow-b\""), "{json}");
        assert!(!json.contains("slow-a"), "{json}");
    }

    #[test]
    fn registry_histograms_feed_snapshot_percentiles() {
        let m = MetricsRegistry::default();
        for _ in 0..10 {
            m.record_query_latency(1_000); // bucket 10 → upper 1023
        }
        m.record_statement("SELECT 1", true, 0, 100);
        m.record_statement("SELECT 2", true, 0, 200);
        m.record_step_latency("outE", 50);
        m.slow_queries.add(1);
        let snap = m.snapshot();
        assert_eq!(snap.query_p50_nanos, 1023);
        assert_eq!(snap.query_p99_nanos, 1023);
        assert_eq!(snap.sql_p50_nanos, 127);
        assert_eq!(snap.sql_p99_nanos, 255);
        assert_eq!(snap.slow_queries, 1);
        let report = m.histogram_report();
        let parsed = Json::parse(&report.to_compact()).unwrap();
        assert_eq!(
            parsed
                .get("sql_templates")
                .and_then(|t| t.get("SELECT 1"))
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
        assert_eq!(
            parsed
                .get("step_kinds")
                .and_then(|t| t.get("outE"))
                .and_then(|h| h.get("count"))
                .and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn profile_json_reports_eviction_counters() {
        // The bench snapshot JSON and the per-query profile JSON must agree
        // on eviction field names.
        let p = Profiler::enabled();
        p.record_template_eviction();
        p.record_template_invalidation();
        p.record_pattern_eviction();
        p.record_pattern_eviction();
        let r = p.report();
        assert_eq!(r.template_evictions, 1);
        assert_eq!(r.template_invalidations, 1);
        assert_eq!(r.pattern_evictions, 2);
        let json = Json::parse(&r.to_json().to_compact()).unwrap();
        let totals = json.get("totals").unwrap();
        assert_eq!(totals.get("template_evictions").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(totals.get("template_invalidations").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(totals.get("pattern_evictions").and_then(|v| v.as_u64()), Some(2));
    }

    #[test]
    fn step_kind_extracts_prefix() {
        assert_eq!(step_kind("outE(Knows)"), "outE");
        assert_eq!(step_kind("has(name eq x)"), "has");
        assert_eq!(step_kind("count"), "count");
    }
}
