//! The `Db2Graph` entry point: open a graph over a database, run Gremlin,
//! and register the `graphQuery` polymorphic table function.
//!
//! Every query — [`Db2Graph::run`], [`Db2Graph::profile`], a `.profile()`
//! terminator, a traced or slow-logged run, an HTTP request — goes through
//! one path, [`Db2Graph::execute`]. Observation (the per-query
//! [`Profiler`], whose one span tree feeds both the profile report and
//! the trace sink) is attached to that path when something will read it
//! and is otherwise disabled; it records what the run did and never
//! changes how it runs.

use std::sync::Arc;

use gremlin::structure::GValue;
use gremlin::{IdentityRemoval, ScriptRunner, StrategyRegistry};
use reldb::{DataType, Database, DbError, DbResult, RowSet, TableFunction, Value};

use crate::adjcache::{AdjCache, DEFAULT_ADJ_CACHE_MB};
use crate::config::OverlayConfig;
use crate::error::{GraphError, GraphResult};
use crate::events::lookup_knob;
use crate::graph_structure::{to_value, Db2GraphBackend};
use crate::metrics::{
    step_kind, ExplainReport, MetricsSnapshot, ProfileReport, Profiler, SlowQueryEntry,
    SlowQueryLog, StepExplain, DEFAULT_SLOW_LOG_CAPACITY,
};
use crate::pool;
use crate::sql_dialect::{SqlDialect, WorkloadReport};
use crate::strategies::StrategyConfig;
use crate::topology::Topology;
use crate::trace::{SpanData, TraceSink, DEFAULT_TRACE_CAPACITY};

/// Options controlling a graph's optimizer and executor.
///
/// Every knob that has a `DB2GRAPH_*` variable resolves the same way:
/// the field when set, then the variable, then the built-in default.
/// `GraphOptions::with_env` is the one place the graph layer reads its
/// environment; [`Db2Graph::open_with_options`] and
/// [`GraphOptions::open_database`] call it.
#[derive(Debug, Clone, Default)]
pub struct GraphOptions {
    pub strategies: StrategyConfig,
    /// Intra-query worker threads for the backend's probe fan-out.
    /// `None` defers to `DB2GRAPH_THREADS` / available parallelism;
    /// `Some(1)` forces fully sequential execution.
    pub threads: Option<usize>,
    /// Collect hierarchical trace spans for every query. `None` defers to
    /// the environment: tracing turns on when `DB2GRAPH_TRACE` is set (or
    /// when `trace_path` is). `Some(false)` forces it off regardless.
    pub trace: Option<bool>,
    /// Span ring-buffer capacity (spans, not bytes); default
    /// `DEFAULT_TRACE_CAPACITY`.
    pub trace_capacity: Option<usize>,
    /// File the Chrome trace JSON is written to when the graph is dropped
    /// (also exportable any time via [`Db2Graph::export_trace`]). `None`
    /// defers to `DB2GRAPH_TRACE=<path>`.
    pub trace_path: Option<String>,
    /// Wall-time threshold (nanoseconds) above which a completed query
    /// enters the slow-query log. `None` defers to
    /// `DB2GRAPH_SLOW_QUERY_MS`; unset means no slow-query log.
    pub slow_query_nanos: Option<u64>,
    /// Worst-N capacity of the slow-query log; default
    /// `DEFAULT_SLOW_LOG_CAPACITY`.
    pub slow_log_capacity: Option<usize>,
    /// Directory the underlying database persists to (WAL + checkpoints);
    /// consumed by [`GraphOptions::open_database`]. `None` defers to
    /// `DB2GRAPH_DATA_DIR`; unset means a purely in-memory database.
    pub data_dir: Option<String>,
    /// Durability mode for the data directory. `None` defers to
    /// `DB2GRAPH_DURABILITY` (`always`/`batch`/`off`), then `always`.
    pub durability: Option<reldb::Durability>,
    /// Byte budget (MiB) for the adjacency cache; `Some(0)`
    /// disables it. `None` defers to `DB2GRAPH_ADJ_CACHE_MB`, then
    /// `DEFAULT_ADJ_CACHE_MB`.
    pub adj_cache_mb: Option<usize>,
}

/// Per-query parameters of [`Db2Graph::execute`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunRequest<'a> {
    /// Cooperative deadline: once it passes, the next SQL-issuing
    /// operation (in any traversal step, statement, or fan-out worker)
    /// aborts the script with [`GraphError::Timeout`] instead of touching
    /// storage; the snapshot pinned at entry is released like on any other
    /// error path. `None` never times out.
    pub deadline: Option<std::time::Instant>,
    /// The serving layer's request id, stamped on the trace root span and
    /// the slow-query entry so one id correlates the HTTP response with
    /// both. Unused when neither is configured.
    pub request_id: Option<&'a str>,
    /// Collect and return the structured profile report.
    pub profile: bool,
}

impl GraphOptions {
    /// Fill the knobs left `None` from the process environment:
    /// [`Self::with_lookup`] over `std::env::var`.
    pub(crate) fn with_env(self) -> GraphOptions {
        self.with_lookup(|name| std::env::var(name).ok())
    }

    /// Fill each knob left `None` from its variable as `get` reports it:
    /// `threads` from `DB2GRAPH_THREADS`, `adj_cache_mb` from
    /// `DB2GRAPH_ADJ_CACHE_MB`, `trace_path` from `DB2GRAPH_TRACE`,
    /// `slow_query_nanos` from `DB2GRAPH_SLOW_QUERY_MS`, `data_dir` from
    /// `DB2GRAPH_DATA_DIR` and `durability` from `DB2GRAPH_DURABILITY`.
    /// A set field is never looked up. A value that does not parse
    /// records one `config_warning` and leaves the field `None`, so the
    /// built-in default applies.
    pub fn with_lookup(mut self, get: impl Fn(&str) -> Option<String>) -> GraphOptions {
        fn fill<T>(
            field: &mut Option<T>,
            get: &dyn Fn(&str) -> Option<String>,
            name: &str,
            fallback: &str,
            parse: impl FnOnce(&str) -> Option<T>,
        ) {
            if field.is_none() {
                *field = lookup_knob(get, name, fallback, parse);
            }
        }
        let text = |v: &str| Some(v.to_owned()).filter(|s| !s.is_empty());
        let millis = |v: &str| v.parse::<u64>().ok().map(|ms| ms.saturating_mul(1_000_000));
        let threads = format!("available parallelism ({})", pool::default_threads());
        let budget = format!("default budget ({DEFAULT_ADJ_CACHE_MB} MiB)");
        let (no_log, always) = ("no slow-query log", "default durability (always)");
        fill(&mut self.threads, &get, "DB2GRAPH_THREADS", &threads, pool::parse_threads);
        fill(&mut self.adj_cache_mb, &get, "DB2GRAPH_ADJ_CACHE_MB", &budget, |v| v.parse().ok());
        fill(&mut self.trace_path, &get, "DB2GRAPH_TRACE", "", text);
        fill(&mut self.slow_query_nanos, &get, "DB2GRAPH_SLOW_QUERY_MS", no_log, millis);
        fill(&mut self.data_dir, &get, "DB2GRAPH_DATA_DIR", "", text);
        fill(&mut self.durability, &get, "DB2GRAPH_DURABILITY", always, reldb::Durability::parse);
        self
    }

    /// Open the database these options describe: durable (with crash
    /// recovery) when a data directory is configured here or via
    /// `DB2GRAPH_DATA_DIR`, in-memory otherwise.
    pub fn open_database(&self) -> DbResult<Arc<Database>> {
        let options = self.clone().with_env();
        let Some(dir) = options.data_dir else {
            return Ok(Arc::new(Database::new()));
        };
        Ok(Arc::new(Database::open_with(dir, options.durability.unwrap_or_default())?))
    }
}

/// A property graph overlaid on a relational database.
///
/// The analogue of the paper's
/// `g = Db2Graph.open('config.properties').traversal()`: opening resolves
/// the overlay topology against the catalog; afterwards every Gremlin query
/// executes as SQL against the *live* tables — updates made through SQL are
/// immediately visible to graph queries, because there is no second copy of
/// the data.
pub struct Db2Graph {
    db: Arc<Database>,
    backend: Arc<Db2GraphBackend>,
    registry: StrategyRegistry,
    /// Present when tracing is on; every query's span batch lands here.
    sink: Option<Arc<TraceSink>>,
    /// Where the Chrome trace JSON is written when the graph drops.
    trace_path: Option<String>,
    /// Present when a slow-query threshold is configured.
    slow_log: Option<Arc<SlowQueryLog>>,
    /// The adjacency cache, when enabled (budget > 0).
    adj_cache: Option<Arc<AdjCache>>,
}

impl Db2Graph {
    /// Open a graph with default options (all optimized strategies on).
    pub fn open(db: Arc<Database>, config: &OverlayConfig) -> GraphResult<Arc<Db2Graph>> {
        Self::open_with_options(db, config, GraphOptions::default())
    }

    /// Open a graph from a JSON overlay configuration string.
    pub fn open_json(db: Arc<Database>, config_json: &str) -> GraphResult<Arc<Db2Graph>> {
        let config = OverlayConfig::from_json(config_json)?;
        Self::open(db, &config)
    }

    /// Open with explicit optimizer/executor options; the knobs left
    /// `None` resolve through `GraphOptions::with_env`.
    pub fn open_with_options(
        db: Arc<Database>,
        config: &OverlayConfig,
        options: GraphOptions,
    ) -> GraphResult<Arc<Db2Graph>> {
        let options = options.with_env();
        let topo = Arc::new(Topology::resolve(&db, config)?);
        let threads = options.threads.unwrap_or_else(pool::default_threads);
        let backend = Db2GraphBackend::new(db.clone(), topo, threads);
        // 0 MiB disables the adjacency cache.
        let adj_cache_mb = options.adj_cache_mb.unwrap_or(DEFAULT_ADJ_CACHE_MB);
        let adj_cache = (adj_cache_mb > 0)
            .then(|| AdjCache::new(db.clone(), adj_cache_mb, backend.registry().clone()));
        let backend = Arc::new(backend.with_adj_cache(adj_cache.clone()));
        let mut registry = StrategyRegistry::new();
        registry.add(Arc::new(IdentityRemoval));
        for s in options.strategies.build() {
            registry.add(s);
        }
        let sink = options.trace.unwrap_or(options.trace_path.is_some()).then(|| {
            Arc::new(TraceSink::new(options.trace_capacity.unwrap_or(DEFAULT_TRACE_CAPACITY)))
        });
        let slow_log = options.slow_query_nanos.map(|threshold| {
            Arc::new(SlowQueryLog::new(
                threshold,
                options.slow_log_capacity.unwrap_or(DEFAULT_SLOW_LOG_CAPACITY),
            ))
        });
        Ok(Arc::new(Db2Graph {
            db,
            backend,
            registry,
            sink,
            trace_path: options.trace_path,
            slow_log,
            adj_cache,
        }))
    }

    /// The underlying database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// The resolved overlay topology.
    pub fn topology(&self) -> &Topology {
        self.backend.topology()
    }

    /// The backend's intra-query worker count.
    pub fn threads(&self) -> usize {
        self.backend.threads()
    }

    /// The SQL Dialect module (template cache, index advisor).
    pub fn dialect(&self) -> &SqlDialect {
        self.backend.dialect()
    }

    /// Aggregate metrics for this graph — every row of the
    /// [`MetricsSnapshot`] table, including the gauges read live from the
    /// trace sink, the database and the adjacency cache. Diff two calls
    /// with [`MetricsSnapshot::since`] to measure a window.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.backend.registry().snapshot();
        if let Some(sink) = &self.sink {
            snap.trace_spans = sink.len() as u64;
            snap.dropped_spans = sink.dropped();
        }
        // MVCC gauges read live from the database: where commits have
        // advanced to, the oldest epoch any active snapshot still pins
        // (the vacuum horizon), and how many snapshots pin it there.
        snap.commit_epoch = self.db.commit_epoch();
        snap.snapshot_horizon = self.db.snapshot_horizon();
        snap.active_snapshots = self.db.active_snapshots() as u64;
        // Rows of the database's own table. Vacuum passes are counted
        // there, so the inline sweep a commit triggers and the server's
        // scheduled pass both show up; the durability rows (all zero for
        // an in-memory database) are WAL volume, checkpoints completed,
        // and what the last recovery did.
        let db = self.db.metrics();
        snap.vacuum_runs = db.vacuum_runs();
        snap.vacuumed_versions = db.vacuumed_versions();
        snap.wal_records = db.wal_records();
        snap.wal_bytes = db.wal_bytes();
        snap.checkpoints = db.checkpoints();
        snap.recovery_replayed_epochs = db.recovery_replayed_epochs();
        snap.recovery_truncated_bytes = db.recovery_truncated_bytes();
        // Adjacency-cache residency gauge (the hit/miss/eviction/
        // invalidation counters flow through the registry).
        snap.adj_cache_bytes = self.adj_cache.as_ref().map_or(0, |c| c.bytes() as u64);
        snap
    }

    /// Eagerly build complete adjacency-cache segments for every edge
    /// table by scanning them once at a fresh snapshot (the explicit warm
    /// call; lazy population happens on every query anyway).
    /// Returns the number of edges cached — 0 when the cache is disabled.
    pub fn warm_adjacency_cache(&self) -> GraphResult<usize> {
        if self.adj_cache.is_none() {
            return Ok(0);
        }
        self.backend.bind(Some(self.db.snapshot()), None, Profiler::disabled()).warm_adj_cache()
    }

    /// Run a Gremlin script; returns the final statement's results.
    ///
    /// The whole script executes against one storage snapshot pinned at
    /// entry: every generated SQL statement — across all traversal steps
    /// and all fan-out worker threads — observes the same committed
    /// database state, even while concurrent writers commit (see
    /// `docs/CONSISTENCY.md`). A nested `graphQuery` call issued *by SQL*
    /// pins its own snapshot at its own start time.
    pub fn run(&self, gremlin: &str) -> GraphResult<Vec<GValue>> {
        Ok(self.execute(gremlin, &RunRequest::default())?.0)
    }

    /// Run a Gremlin script with profiling enabled; returns the results
    /// and the structured per-step report (strategy rewrites, step
    /// timings, table decisions, SQL statements).
    pub fn profile(&self, gremlin: &str) -> GraphResult<(Vec<GValue>, ProfileReport)> {
        let (values, report) =
            self.execute(gremlin, &RunRequest { profile: true, ..Default::default() })?;
        Ok((values, report.unwrap_or_default()))
    }

    /// The one run path behind [`Self::run`], [`Self::profile`] and the
    /// server: parse once, pin a snapshot, execute, and hand what the
    /// profiler recorded to the slow-query log and the trace sink.
    ///
    /// A per-query `Profiler` records the run only when something will
    /// read it: `req.profile`, a `.profile()` terminator in the script,
    /// tracing, or the slow-query log. Otherwise it is
    /// `Profiler::disabled`, which costs one null check per event. Its
    /// spans reach the trace sink only when tracing is on; the profile
    /// report is derived from the same spans, and only when `req.profile`
    /// asks for it or the query is past the slow-log threshold.
    /// Observing never changes the plan: the adjacency cache serves
    /// observed and plain runs alike. Returns the final statement's
    /// results, and the profile report when `req.profile` asked for one.
    pub fn execute(
        &self,
        gremlin: &str,
        req: &RunRequest,
    ) -> GraphResult<(Vec<GValue>, Option<ProfileReport>)> {
        let registry = self.backend.registry();
        registry.traversals.add(1);
        let start = std::time::Instant::now();
        let script = gremlin::parser::parse(gremlin);
        let observed = req.profile
            || self.sink.is_some()
            || self.slow_log.is_some()
            || script.as_ref().is_ok_and(|s| s.profiles());
        let profiler = if observed { Profiler::enabled() } else { Profiler::disabled() };
        let root = profiler.start("query", || SpanData::Query {
            gremlin: gremlin.to_string(),
            request_id: req.request_id.map(str::to_string),
        });
        let backend = self.backend.bind(Some(self.db.snapshot()), req.deadline, profiler.clone());
        let mut runner = ScriptRunner::new(&backend).with_strategies(self.registry.clone());
        if observed {
            runner = runner.with_observer(Arc::new(profiler.clone()));
        }
        let result = script.and_then(|s| runner.run_script(&s)).map_err(GraphError::from);
        let wall_nanos = start.elapsed().as_nanos() as u64;
        profiler.end(root);
        registry.record_query_latency(wall_nanos);
        if !observed {
            return Ok((result?, None));
        }
        profiler.for_each_step(|description, nanos| {
            registry.record_step_latency(step_kind(description), nanos);
        });
        // The report is built only for a reader: the caller, or the slow
        // log once the query is past its threshold.
        let slow_log = self.slow_log.as_ref().filter(|log| wall_nanos >= log.threshold_nanos());
        let report = (req.profile || slow_log.is_some()).then(|| profiler.report());
        if let (Some(log), Some(report)) = (slow_log, &report) {
            log.offer_with_id(gremlin, wall_nanos, report, req.request_id);
            registry.slow_queries.add(1);
        }
        if let Some(sink) = &self.sink {
            // finish() also closes spans left open by an error mid-step.
            sink.push_batch(profiler.finish());
        }
        Ok((result?, report.filter(|_| req.profile)))
    }

    /// The trace sink, when tracing is enabled.
    pub fn trace_sink(&self) -> Option<&Arc<TraceSink>> {
        self.sink.as_ref()
    }

    /// Write the retained spans as Chrome trace-event JSON (loadable in
    /// Perfetto / `chrome://tracing`). Errors when tracing is off.
    pub fn export_trace(&self, path: &str) -> GraphResult<()> {
        let sink = self.sink.as_ref().ok_or_else(|| {
            GraphError::Config(
                "tracing is not enabled (set DB2GRAPH_TRACE or GraphOptions.trace)".into(),
            )
        })?;
        sink.export_chrome(path)
            .map_err(|e| GraphError::Config(format!("trace export to '{path}': {e}")))
    }

    /// Write the retained spans as JSONL (one span object per line).
    pub fn export_trace_jsonl(&self, path: &str) -> GraphResult<()> {
        let sink = self.sink.as_ref().ok_or_else(|| {
            GraphError::Config(
                "tracing is not enabled (set DB2GRAPH_TRACE or GraphOptions.trace)".into(),
            )
        })?;
        sink.export_jsonl(path)
            .map_err(|e| GraphError::Config(format!("trace export to '{path}': {e}")))
    }

    /// Retained slow queries, slowest first (empty when no threshold is
    /// configured).
    pub fn slow_queries(&self) -> Vec<SlowQueryEntry> {
        self.slow_log.as_ref().map(|l| l.entries()).unwrap_or_default()
    }

    /// The slow-query log as JSON, slowest first (`[]` when no threshold
    /// is configured) — the payload behind the server's `/slow-queries`.
    pub fn slow_queries_json(&self) -> crate::json::Json {
        self.slow_log
            .as_ref()
            .map(|l| l.to_json())
            .unwrap_or_else(|| crate::json::Json::Arr(Vec::new()))
    }

    /// The advisor's workload view: cost-sorted pattern stats plus index
    /// suggestions ranked by observed wall time.
    pub fn workload_report(&self) -> WorkloadReport {
        self.backend.dialect().workload_report()
    }

    /// Latency histogram breakdown (aggregate query/SQL plus per-template
    /// and per-step-kind) as JSON.
    pub fn histogram_report(&self) -> crate::json::Json {
        self.backend.registry().histogram_report()
    }

    /// The optimized step plan for a single-statement script.
    pub fn plan(&self, gremlin: &str) -> GraphResult<gremlin::Traversal> {
        let runner =
            ScriptRunner::new(self.backend.as_ref()).with_strategies(self.registry.clone());
        runner.plan(gremlin).map_err(GraphError::Gremlin)
    }

    /// Plan description string (EXPLAIN for graph queries): the optimized
    /// plan plus, per GSA step and per overlay table, the SQL that would
    /// be generated or the reason the table is eliminated. Nothing is
    /// executed and no data is touched.
    pub fn explain(&self, gremlin: &str) -> GraphResult<String> {
        Ok(self.explain_report(gremlin)?.to_string())
    }

    /// Structured form of [`Self::explain`].
    pub fn explain_report(&self, gremlin: &str) -> GraphResult<ExplainReport> {
        let traversal = self.plan(gremlin)?;
        let mut steps = Vec::new();
        for (i, step) in traversal.steps.iter().enumerate() {
            let tables = self.backend.explain_compiled_step(step);
            if !tables.is_empty() {
                steps.push(StepExplain { index: i, description: step.describe(), tables });
            }
        }
        Ok(ExplainReport { plan: traversal.describe(), steps })
    }

    /// Run a Gremlin script and shape the results into rows for the given
    /// declared columns — the conversion behind the `graphQuery` table
    /// function (Section 4). Shaping rules:
    ///
    /// * map results (`valueMap`, `select('a','b')`) become rows by column
    ///   name;
    /// * element results become rows from their properties (plus `id` and
    ///   `label` pseudo-columns);
    /// * scalar results are chunked into rows of the declared width, in
    ///   stream order (so `values('a','b')` with two declared columns
    ///   yields one row per element);
    /// * a single list result (from `cap`/`fold`) is unwrapped first.
    pub fn query_rows(&self, gremlin: &str, columns: &[(String, DataType)]) -> GraphResult<RowSet> {
        let mut results = self.run(gremlin)?;
        if results.len() == 1 {
            if let GValue::List(items) = &results[0] {
                results = items.clone();
            }
        }
        let names: Vec<String> = columns.iter().map(|(n, _)| n.clone()).collect();
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let all_maps = !results.is_empty() && results.iter().all(|v| matches!(v, GValue::Map(_)));
        let all_elements = !results.is_empty()
            && results.iter().all(|v| matches!(v, GValue::Vertex(_) | GValue::Edge(_)));
        if all_maps {
            for v in &results {
                let GValue::Map(m) = v else { unreachable!() };
                let row: Vec<Value> = names
                    .iter()
                    .map(|n| {
                        m.iter()
                            .find(|(k, _)| k.eq_ignore_ascii_case(n))
                            .and_then(|(_, v)| to_value(v))
                            .unwrap_or(Value::Null)
                    })
                    .collect();
                rows.push(row);
            }
        } else if all_elements {
            for v in &results {
                let e = v.as_element().expect("checked");
                let row: Vec<Value> = names
                    .iter()
                    .map(|n| {
                        gremlin::element_property(e, n)
                            .and_then(|v| to_value(&v))
                            .unwrap_or(Value::Null)
                    })
                    .collect();
                rows.push(row);
            }
        } else {
            // Scalars chunked into rows of the declared width.
            let width = columns.len().max(1);
            if !results.is_empty() && results.len() % width != 0 {
                return Err(GraphError::Config(format!(
                    "graphQuery returned {} values, not divisible into rows of {} declared columns",
                    results.len(),
                    width
                )));
            }
            for chunk in results.chunks(width) {
                let row: Vec<Value> =
                    chunk.iter().map(|v| to_value(v).unwrap_or(Value::Null)).collect();
                rows.push(row);
            }
        }
        Ok(RowSet::with_rows(names, rows))
    }

    /// Register this graph's `graphQuery` table function in its database
    /// under the given name (conventionally `graphQuery`), enabling the
    /// Section 4 synergy pattern:
    ///
    /// ```sql
    /// SELECT ... FROM T, TABLE(graphQuery('gremlin', '<script>'))
    ///   AS P (col1 BIGINT, col2 BIGINT) WHERE ...
    /// ```
    /// The registration holds only a weak reference: the graph owns the
    /// database, so a strong one would be a reference cycle — the graph
    /// would never drop (leaking it and suppressing the drop-time trace
    /// export). Callers keep their own `Arc` for as long as SQL should be
    /// able to call back into the graph.
    pub fn register_graph_query(self: &Arc<Self>, name: &str) {
        let graph = Arc::downgrade(self);
        self.db.register_function(name, Arc::new(GraphQueryFunction { graph }));
    }
}

impl Drop for Db2Graph {
    /// `DB2GRAPH_TRACE=<path>` (or `GraphOptions.trace_path`) means "write
    /// the trace when the graph goes away" — the zero-code-change way to
    /// get a Perfetto-loadable file out of any existing program. Export
    /// failure at drop time is reported to stderr, never panicked.
    fn drop(&mut self) {
        let (Some(sink), Some(path)) = (&self.sink, &self.trace_path) else { return };
        if let Err(e) = sink.export_chrome(path) {
            eprintln!("db2graph: trace export to '{path}' failed: {e}");
        }
    }
}

/// The `graphQuery` polymorphic table function.
struct GraphQueryFunction {
    graph: std::sync::Weak<Db2Graph>,
}

impl TableFunction for GraphQueryFunction {
    fn eval(&self, args: &[Value], columns: &[(String, DataType)]) -> DbResult<RowSet> {
        // Accept graphQuery('gremlin', '<script>') and graphQuery('<script>').
        let script = match args {
            [lang, script] => {
                let l = lang.as_str()?;
                if !l.eq_ignore_ascii_case("gremlin") {
                    return Err(DbError::Unsupported(format!(
                        "graphQuery language '{l}' (only 'gremlin' is supported)"
                    )));
                }
                script.as_str()?
            }
            [script] => script.as_str()?,
            _ => {
                return Err(DbError::Execution(
                    "graphQuery expects (language, script) or (script)".into(),
                ))
            }
        };
        let graph = self.graph.upgrade().ok_or_else(|| {
            DbError::Execution("graphQuery: the registered graph has been dropped".into())
        })?;
        graph.query_rows(script, columns).map_err(|e| DbError::Execution(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VTableConfig;

    /// Sixteen `acct` vertices over one table, each with a balance of 0.
    fn accounts() -> (Arc<Database>, OverlayConfig) {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE Account (aid BIGINT PRIMARY KEY, balance BIGINT)").unwrap();
        let rows: Vec<String> = (0..16).map(|i| format!("({i}, 0)")).collect();
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
        (db, overlay)
    }

    #[test]
    fn step_latencies_do_not_need_the_slow_log_report() {
        let queries = [
            "g.V().hasLabel('acct').values('balance')",
            "g.V().has('balance', 0).count()",
            "g.V().hasLabel('acct').limit(3).id()",
        ];
        let step_counts = |threshold: u64| {
            let (db, overlay) = accounts();
            let options = GraphOptions { slow_query_nanos: Some(threshold), ..Default::default() };
            let graph = Db2Graph::open_with_options(db, &overlay, options).unwrap();
            for q in queries {
                graph.run(q).unwrap();
            }
            let counts: Vec<(String, u64)> = graph
                .backend
                .registry()
                .step_kinds()
                .entries()
                .into_iter()
                .map(|(kind, h)| (kind, h.count()))
                .collect();
            (counts, graph.slow_queries().len(), graph.metrics().slow_queries)
        };
        let (never, never_logged, never_counted) = step_counts(u64::MAX);
        let (always, always_logged, always_counted) = step_counts(0);
        assert!(!never.is_empty());
        assert_eq!(never, always);
        assert_eq!((never_logged, never_counted), (0, 0));
        assert_eq!((always_logged, always_counted), (queries.len(), queries.len() as u64));
    }

    /// Building an element moves each value out of its row, except from a
    /// column that a later property key reads too: then every key still
    /// gets the value, and so does the id reading the same column.
    #[test]
    fn a_column_read_by_several_keys_reaches_each_of_them() {
        let (db, mut overlay) = accounts();
        db.execute("UPDATE Account SET balance = 7 WHERE aid = 3").unwrap();
        overlay.v_tables[0].properties =
            Some(vec!["balance".into(), "BALANCE".into(), "aid".into()]);
        let graph = Db2Graph::open(db, &overlay).unwrap();
        let out = graph.run("g.V('acct::3')").unwrap();
        let [GValue::Vertex(v)] = &out[..] else { panic!("{out:?}") };
        let props: Vec<(&str, &GValue)> = v.properties.iter().map(|(k, v)| (&**k, v)).collect();
        assert_eq!(
            props,
            [
                ("BALANCE", &GValue::Long(7)),
                ("aid", &GValue::Long(3)),
                ("balance", &GValue::Long(7))
            ]
        );
        assert_eq!(v.id, gremlin::ElementId::Str("acct::3".into()));
    }

    #[test]
    fn inline_vacuum_is_counted_without_a_daemon() {
        let (db, overlay) = accounts();
        let graph =
            Db2Graph::open_with_options(db.clone(), &overlay, GraphOptions::default()).unwrap();
        let before = graph.metrics();
        // 300 passes over 16 rows supersede 4 800 versions: past the
        // garbage threshold at which a commit sweeps inline.
        for _ in 0..300 {
            db.execute("UPDATE Account SET balance = balance + 1").unwrap();
        }
        let d = graph.metrics().since(&before);
        assert!(d.vacuum_runs >= 1, "{d:?}");
        assert!(d.vacuumed_versions > 0, "{d:?}");
    }
}
