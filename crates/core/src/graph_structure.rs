//! The Graph Structure module: the overlay implementation of the graph
//! structure API.
//!
//! Every graph operation here turns into SQL against the overlaid tables,
//! generated through the SQL Dialect module. The data-dependent runtime
//! optimizations of Section 6.3 are all implemented:
//!
//! 1. **Using source/destination vertex tables** — adjacency queries skip
//!    edge tables whose `src_v_table`/`dst_v_table` cannot match the source
//!    vertices' table, and endpoint lookups go straight to the one declared
//!    vertex table.
//! 2. **When a vertex table is also an edge table** — `outV()`/`inV()`
//!    construct the vertex from the edge itself (no SQL) when the endpoint
//!    vertex table is the edge's own table and its properties are subsumed
//!    by the edge's.
//! 3. **Using property names in pushdown information** — tables lacking a
//!    pushed-down predicate/projection property are eliminated.
//! 4. **Using label values** — fixed-label tables not matching the query
//!    labels are eliminated; column-label tables are always searched.
//! 5. **Using prefixed id values** — a prefixed id pins the exact table,
//!    and composite ids decompose into conjunctive column predicates.
//! 6. **Using implicit edge id values** — `src::label::dst` ids are broken
//!    apart, the embedded label eliminates tables, and the parts become
//!    conjunctive predicates.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use gremlin::backend::{
    AggOp, BackendOutput, Direction, EdgeEnd, ElementFilter, ElementKind, GraphBackend, Pred,
};
use gremlin::structure::{Edge, Element, ElementId, GValue, Vertex};
use gremlin::GResult;
use reldb::{Database, DataType, Row, Snapshot, Value};

use crate::adjcache::{AdjCache, RowSpan};
use crate::error::{to_gremlin, GraphError, GraphResult};
use crate::ids::{implicit_edge_id, split_implicit_edge_id, EdgeIdDef, IdDef};
use crate::metrics::{MetricsRegistry, Profiler, TableAction, TableExplain, TablePlan};
use crate::pool;
use crate::sql_dialect::{
    build_select, composite_in_bucketed, ident, in_list_bucketed, SqlDialect, MAX_FRONTIER_CHUNK,
};
use crate::topology::{EdgeTable, LabelDef, Topology, VertexTable};

/// Convert a relational value into a Gremlin value.
pub fn to_gvalue(v: &Value) -> GValue {
    match v {
        Value::Null => GValue::Null,
        Value::Bigint(x) => GValue::Long(*x),
        Value::Double(x) => GValue::Double(*x),
        Value::Varchar(s) => GValue::Str(s.clone()),
        Value::Boolean(b) => GValue::Bool(*b),
    }
}

/// Convert a Gremlin value into a relational value (scalar kinds only).
pub fn to_value(v: &GValue) -> Option<Value> {
    match v {
        GValue::Null => Some(Value::Null),
        GValue::Long(x) => Some(Value::Bigint(*x)),
        GValue::Double(x) => Some(Value::Double(*x)),
        GValue::Str(s) => Some(Value::Varchar(s.clone())),
        GValue::Bool(b) => Some(Value::Boolean(*b)),
        _ => None,
    }
}

/// Coerce an id text fragment to a column's type; view columns (unknown
/// type) use a numeric-looking heuristic.
fn coerce_id_text(text: &str, ty: Option<DataType>) -> GraphResult<Value> {
    match ty {
        Some(t) => IdDef::coerce(text, t),
        None => {
            if !text.is_empty()
                && text.chars().enumerate().all(|(i, c)| c.is_ascii_digit() || (i == 0 && c == '-'))
            {
                Ok(Value::Bigint(text.parse().unwrap_or(0)))
            } else {
                Ok(Value::Varchar(text.to_string()))
            }
        }
    }
}

/// The overlay backend: executes graph operations as SQL.
pub struct Db2GraphBackend {
    pub(crate) topo: Arc<Topology>,
    pub(crate) dialect: Arc<SqlDialect>,
    /// Per-query event sink. Disabled by default; [`Self::bind`] attaches
    /// a collecting one for observed runs.
    pub(crate) profiler: Profiler,
    /// Worker threads for intra-query fan-out (1 = fully sequential).
    pub(crate) threads: usize,
    /// The pinned storage snapshot every generated SQL statement reads.
    /// `None` only for backends not yet bound to a query;
    /// `Db2Graph::execute` binds one via [`Self::bind`] so multi-statement
    /// traversals observe a single committed database state even while
    /// writers commit concurrently.
    pub(crate) read_view: Option<Snapshot>,
    /// Cooperative cancellation point: when set, every SQL-issuing
    /// operation checks the clock before touching storage and aborts with
    /// [`GraphError::Timeout`] once the instant has passed. Bound per
    /// query from [`crate::RunRequest::deadline`]; the serving layer uses
    /// it to shed requests that outlive their budget.
    pub(crate) deadline: Option<Instant>,
    /// Adjacency cache consulted before generating adjacency SQL (`None`
    /// = disabled). Shared across all shallow clones; every run pinned to
    /// an unstamped snapshot uses it, observed or not — see
    /// `docs/VECTORIZED.md`.
    pub(crate) adj_cache: Option<Arc<AdjCache>>,
}

impl Db2GraphBackend {
    pub fn new(db: Arc<Database>, topo: Arc<Topology>) -> Db2GraphBackend {
        let registry = Arc::new(MetricsRegistry::default());
        let dialect = Arc::new(SqlDialect::with_registry(db, registry));
        Db2GraphBackend {
            topo,
            dialect,
            profiler: Profiler::disabled(),
            threads: pool::configured_threads(),
            read_view: None,
            deadline: None,
            adj_cache: None,
        }
    }

    /// A shallow clone, sharing all caches and the metrics registry, bound
    /// to one query: every SQL statement it generates (including fan-out
    /// jobs, which inherit the binding) reads `read_view`, aborts with
    /// [`GraphError::Timeout`] once `deadline` passes, and reports to
    /// `profiler`. A `None` read view reads the latest committed data per
    /// statement; a `None` deadline never times out.
    pub fn bind(
        &self,
        read_view: Option<Snapshot>,
        deadline: Option<Instant>,
        profiler: Profiler,
    ) -> Db2GraphBackend {
        Db2GraphBackend {
            topo: self.topo.clone(),
            dialect: self.dialect.clone(),
            profiler,
            threads: self.threads,
            read_view,
            deadline,
            adj_cache: self.adj_cache.clone(),
        }
    }

    /// Attach (or detach) the adjacency cache. Installed once by
    /// [`crate::graph::Db2Graph`] at open; per-query shallow clones then
    /// share the one instance.
    pub fn with_adj_cache(mut self, cache: Option<Arc<AdjCache>>) -> Db2GraphBackend {
        self.adj_cache = cache;
        self
    }

    /// The attached adjacency cache, if any.
    pub fn adj_cache(&self) -> Option<&Arc<AdjCache>> {
        self.adj_cache.as_ref()
    }

    /// Eagerly build *complete* cache segments (both directions) for every
    /// edge table by scanning them once at this backend's pinned snapshot.
    /// Complete segments answer even never-probed sources (absent = empty
    /// adjacency). Returns the number of edges cached, or 0 when the
    /// cache is disabled or the backend is unpinned/stamped.
    pub fn warm_adj_cache(&self) -> GraphResult<usize> {
        let Some(cache) = &self.adj_cache else { return Ok(0) };
        let Some(snap) = self.read_view.as_ref().filter(|s| s.stamp() == 0) else { return Ok(0) };
        let epoch = snap.epoch();
        let mut cached = 0usize;
        for (ei, et) in self.topo.edge_tables.iter().enumerate() {
            let TableResult::Rows(rows) = self.probe_edge_rows(et, &ElementFilter::default())?
            else {
                continue;
            };
            let shape = EdgeShape::new(et, None);
            let ends: Vec<(ElementId, ElementId)> = rows
                .iter()
                .map(|row| Ok((shape.endpoint(row, true)?, shape.endpoint(row, false)?)))
                .collect::<GraphResult<_>>()?;
            let srcs: Vec<&ElementId> = ends.iter().map(|(src, _)| src).collect();
            let dsts: Vec<&ElementId> = ends.iter().map(|(_, dst)| dst).collect();
            cached += rows.len();
            cache.insert_complete((ei, false), &et.name, rows.clone(), &dsts, epoch);
            cache.insert_complete((ei, true), &et.name, rows, &srcs, epoch);
        }
        Ok(cached)
    }

    /// Cooperative cancellation check, called on every SQL-issuing path
    /// (table scans, adjacency probes, endpoint lookups, aggregates) so a
    /// traversal's statement loop stops within one statement of the
    /// deadline passing — including inside fan-out worker jobs, which
    /// inherit the deadline through the shallow clones above.
    fn check_deadline(&self) -> GraphResult<()> {
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(GraphError::Timeout),
            _ => Ok(()),
        }
    }

    /// Override the intra-query worker count (clamped to at least 1). The
    /// default comes from `DB2GRAPH_THREADS` / available parallelism.
    pub fn with_threads(mut self, threads: usize) -> Db2GraphBackend {
        self.threads = threads.max(1);
        self
    }

    /// The effective intra-query worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Fan independent table reads out over the worker pool.
    ///
    /// Each job runs against a shallow backend clone whose profiler is a
    /// fresh fork; after the batch finishes, the forks are absorbed back
    /// into this backend's profiler **in job order**, so `.profile()`
    /// output is identical to sequential execution modulo timing. Results
    /// likewise come back in job order, and the first error in job order
    /// wins — callers observe no scheduling effects.
    ///
    /// When tracing is enabled each job runs inside a `worker` span on its
    /// fork's tracer; absorbing re-parents those spans under whatever span
    /// is open at the fan-out site (the executor step), so trace structure
    /// is the same at any thread count.
    fn fan_out(&self, jobs: Vec<TableJob>) -> GraphResult<Vec<TableResult>> {
        let forks: Vec<Profiler> = jobs.iter().map(|_| self.profiler.fork()).collect();
        let work: Vec<_> = jobs
            .into_iter()
            .zip(&forks)
            .enumerate()
            .map(|(i, (job, fork))| {
                let be = self.bind(self.read_view.clone(), self.deadline, fork.clone());
                move || {
                    let tracer = be.profiler.tracer();
                    let span = tracer
                        .start_with("worker", crate::trace::SpanKind::Worker, || {
                            vec![("job".to_string(), i.to_string())]
                        });
                    let out = be.run_table_job(&job);
                    tracer.end(span);
                    out
                }
            })
            .collect();
        let results = pool::run_ordered(self.threads, work);
        for fork in &forks {
            self.profiler.absorb(fork);
        }
        results.into_iter().collect()
    }

    fn run_table_job(&self, job: &TableJob) -> GraphResult<TableResult> {
        match job.kind {
            JobKind::Vertices | JobKind::PinnedVertices => self.query_vertex_table(
                &self.topo.vertex_tables[job.table],
                &job.filter,
                job.kind == JobKind::PinnedVertices,
            ),
            JobKind::Edges => self.query_edge_table(&self.topo.edge_tables[job.table], &job.filter),
            JobKind::Adjacency => {
                self.probe_edge_rows(&self.topo.edge_tables[job.table], &job.filter)
            }
        }
    }

    /// The always-on aggregate counters shared with the SQL dialect.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        self.dialect.registry()
    }

    pub fn dialect(&self) -> &SqlDialect {
        &self.dialect
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    // ---------------------------------------------------------- vertices

    /// Columns to SELECT for vertices of `vt` under an optional projection.
    fn vertex_columns(&self, vt: &VertexTable, projection: Option<&[String]>) -> (Vec<String>, Vec<String>) {
        let mut cols: Vec<String> = vt.id.columns().iter().map(|c| c.to_string()).collect();
        if let LabelDef::Column(c) = &vt.label {
            if !cols.iter().any(|x| x.eq_ignore_ascii_case(c)) {
                cols.push(c.clone());
            }
        }
        let props: Vec<String> = match projection {
            Some(keys) => vt
                .properties
                .iter()
                .filter(|p| keys.iter().any(|k| k.eq_ignore_ascii_case(p)))
                .cloned()
                .collect(),
            None => vt.properties.clone(),
        };
        for p in &props {
            if !cols.iter().any(|x| x.eq_ignore_ascii_case(p)) {
                cols.push(p.clone());
            }
        }
        (cols, props)
    }

    /// Materialize a vertex from a result row selected with `cols`.
    fn vertex_from_row(&self, vt: &VertexTable, cols: &[String], row: &Row) -> GraphResult<Vertex> {
        let col = |name: &str| cols.iter().position(|c| c.eq_ignore_ascii_case(name));
        let id_vals: Vec<Value> = vt
            .id
            .columns()
            .iter()
            .map(|c| row[col(c).expect("id column selected")].clone())
            .collect();
        let id = vt.id.encode(&id_vals)?;
        let label = match &vt.label {
            LabelDef::Fixed(l) => l.clone(),
            LabelDef::Column(c) => row[col(c).expect("label column selected")].to_string(),
        };
        let mut v = Vertex::new(id, label);
        for p in &vt.properties {
            if let Some(i) = col(p) {
                if !row[i].is_null() {
                    v.properties.insert(p.clone(), to_gvalue(&row[i]));
                }
            }
        }
        v.provenance = Some(vt.name.clone());
        Ok(v)
    }

    /// Translate a property predicate into a SQL conjunct for a table that
    /// has the column. Returns `None` when it cannot be pushed (the caller
    /// must post-filter).
    fn pred_to_sql(col: &str, pred: &Pred) -> Option<(String, Vec<Value>)> {
        let conv = |g: &GValue| to_value(g);
        Some(match pred {
            Pred::Eq(v) => (format!("{} = ?", ident(col)), vec![conv(v)?]),
            Pred::Neq(v) => (format!("{} <> ?", ident(col)), vec![conv(v)?]),
            Pred::Gt(v) => (format!("{} > ?", ident(col)), vec![conv(v)?]),
            Pred::Gte(v) => (format!("{} >= ?", ident(col)), vec![conv(v)?]),
            Pred::Lt(v) => (format!("{} < ?", ident(col)), vec![conv(v)?]),
            Pred::Lte(v) => (format!("{} <= ?", ident(col)), vec![conv(v)?]),
            Pred::Within(vs) => {
                let mut vals: Vec<Value> = vs.iter().map(conv).collect::<Option<_>>()?;
                if vals.is_empty() {
                    return None;
                }
                let sql = in_list_bucketed(col, &mut vals);
                (sql, vals)
            }
            Pred::Between(lo, hi) => (
                format!("({c} >= ? AND {c} < ?)", c = ident(col)),
                vec![conv(lo)?, conv(hi)?],
            ),
            Pred::Exists => (format!("{} IS NOT NULL", ident(col)), Vec::new()),
            Pred::Absent => (format!("{} IS NULL", ident(col)), Vec::new()),
        })
    }

    /// Build id-based conjuncts for a vertex table from a set of element
    /// ids. Returns `None` when no id can belong to this table (table is
    /// eliminated).
    fn id_conjunct_for(
        def: &IdDef,
        column_type: impl Fn(&str) -> Option<DataType>,
        ids: &[ElementId],
    ) -> GraphResult<Option<(String, Vec<Value>)>> {
        let cols = def.columns();
        let mut keys: Vec<Vec<Value>> = Vec::new();
        for id in ids {
            if let Some(parts) = def.decode(id) {
                let mut key = Vec::with_capacity(parts.len());
                let mut ok = true;
                for (text, col) in parts.iter().zip(&cols) {
                    match coerce_id_text(text, column_type(col)) {
                        Ok(v) => key.push(v),
                        Err(_) => {
                            // Type mismatch (e.g. text fragment for a
                            // BIGINT column): this id can't be here.
                            ok = false;
                            break;
                        }
                    }
                }
                if ok {
                    keys.push(key);
                }
            }
        }
        if keys.is_empty() {
            return Ok(None);
        }
        // Bucketed arity: the generated template depends only on
        // log2(|ids|), so frontier-size jitter reuses prepared statements.
        if cols.len() == 1 {
            let mut params: Vec<Value> = keys.into_iter().map(|mut k| k.remove(0)).collect();
            let sql = in_list_bucketed(cols[0], &mut params);
            Ok(Some((sql, params)))
        } else {
            let sql = composite_in_bucketed(&cols, &mut keys);
            let params: Vec<Value> = keys.into_iter().flatten().collect();
            Ok(Some((sql, params)))
        }
    }

    /// A `V()`/`E()` step: one scan job per table of `kind`, merged in
    /// table order.
    fn fetch_elements(
        &self,
        kind: ElementKind,
        filter: &ElementFilter,
    ) -> GraphResult<BackendOutput> {
        let (job, tables) = match kind {
            ElementKind::Vertices => (JobKind::Vertices, self.topo.vertex_tables.len()),
            ElementKind::Edges => (JobKind::Edges, self.topo.edge_tables.len()),
        };
        self.registry().tables_considered.add(tables as u64);
        let mut outputs: Vec<Element> = Vec::new();
        let mut values: Vec<GValue> = Vec::new();
        let mut agg = AggCombiner::new(filter.aggregate);
        let mut pruned = 0u64;
        for r in self.fan_out(TableJob::every_table(job, tables, filter))? {
            match r {
                TableResult::Pruned => pruned += 1,
                TableResult::Elements(es) => outputs.extend(es),
                TableResult::Values(vs) => values.extend(vs),
                TableResult::Agg(parts) => agg.add(parts),
                TableResult::Rows(_) => unreachable!("table scans decode their rows"),
            }
        }
        self.registry().tables_pruned.add(pruned);
        if filter.aggregate.is_some() {
            return Ok(agg.finish());
        }
        if filter.projection.is_some() {
            return Ok(BackendOutput::Values(values));
        }
        Ok(BackendOutput::Elements(outputs))
    }

    /// Decide how a vertex table would be accessed for a filter, without
    /// executing anything: eliminated (with the reason) or scanned with
    /// the given conjuncts. Shared by the execution path and `explain()`.
    fn vertex_table_access(
        &self,
        vt: &VertexTable,
        filter: &ElementFilter,
    ) -> GraphResult<TableAccess> {
        // --- Using Label Values: eliminate fixed-label mismatches.
        if let (Some(labels), Some(fixed)) = (&filter.labels, vt.fixed_label()) {
            if !labels.iter().any(|l| l == fixed) {
                return Ok(TableAccess::Pruned(format!(
                    "fixed label '{fixed}' not in requested labels"
                )));
            }
        }
        // --- Using Property Names: predicates and projections require the
        // property to exist on this table.
        for p in &filter.predicates {
            if p.key != "label" && p.key != "id" && !vt.has_property(&p.key) {
                // hasNot on a property the table doesn't have is trivially
                // satisfied; anything else eliminates the table.
                if !matches!(p.pred, Pred::Absent) {
                    return Ok(TableAccess::Pruned(format!(
                        "no property column for '{}'",
                        p.key
                    )));
                }
            }
        }
        if let Some(keys) = &filter.projection {
            if !keys.iter().any(|k| vt.has_property(k)) {
                return Ok(TableAccess::Pruned("no projected property column".into()));
            }
        }

        let mut plan = ScanPlan::default();

        // --- Using Prefixed Id Values: decode ids; prune on no match.
        if let Some(ids) = &filter.ids {
            match Self::id_conjunct_for(&vt.id, |c| vt.column_type(c), ids)? {
                None => {
                    return Ok(TableAccess::Pruned(
                        "no requested id fits this table (id prefix or type mismatch)".into(),
                    ))
                }
                Some((sql, mut p)) => {
                    plan.conjuncts.push(sql);
                    plan.params.append(&mut p);
                    plan.pattern_cols.extend(vt.id.columns().iter().map(|c| c.to_string()));
                }
            }
        }
        // Label predicate on a label column.
        if let Some(labels) = &filter.labels {
            if let LabelDef::Column(c) = &vt.label {
                let mut vals: Vec<Value> =
                    labels.iter().map(|l| Value::Varchar(l.clone())).collect();
                plan.conjuncts.push(in_list_bucketed(c, &mut vals));
                plan.params.extend(vals);
                plan.pattern_cols.push(c.clone());
            }
        }
        // Property predicates.
        for p in &filter.predicates {
            let col = match (p.key.as_str(), &vt.label) {
                ("label", LabelDef::Column(c)) => c.clone(),
                ("label", LabelDef::Fixed(fixed)) => {
                    // Evaluate against the constant now.
                    if !p.pred.test(Some(&GValue::Str(fixed.clone()))) {
                        return Ok(TableAccess::Pruned(format!(
                            "fixed label '{fixed}' fails the label predicate"
                        )));
                    }
                    continue;
                }
                ("id", _) => {
                    // hasId predicates that weren't folded into filter.ids:
                    // post-filter below.
                    continue;
                }
                _ => p.key.clone(),
            };
            if !vt.has_column(&col) {
                // Only reachable for hasNot on an absent column: trivially
                // true, nothing to push.
                continue;
            }
            match Self::pred_to_sql(&col, &p.pred) {
                Some((sql, mut ps)) => {
                    plan.conjuncts.push(sql);
                    plan.params.append(&mut ps);
                    plan.pattern_cols.push(col);
                }
                None => { /* post-filtered below */ }
            }
        }
        Ok(TableAccess::Scan(plan))
    }

    /// `pinned` marks accesses where the table was selected directly (the
    /// src/dst vertex table optimization) instead of considered among all
    /// tables; it only affects how the decision is profiled.
    fn query_vertex_table(
        &self,
        vt: &VertexTable,
        filter: &ElementFilter,
        pinned: bool,
    ) -> GraphResult<TableResult> {
        self.check_deadline()?;
        let action = if pinned { TableAction::Pinned } else { TableAction::Queried };
        let Some(plan) = self.admit(&vt.name, self.vertex_table_access(vt, filter)?, action) else {
            return Ok(TableResult::Pruned);
        };

        // Aggregate pushdown.
        if let Some(op) = filter.aggregate {
            return self.run_aggregate(
                &vt.name,
                &plan,
                op,
                filter.projection.as_deref(),
                |k| vt.has_property(k),
                |k| vt.column_type(k),
            );
        }

        let (cols, props) = self.vertex_columns(vt, filter.projection.as_deref());
        let rows = self.fetch_rows(&vt.name, &cols, plan)?;
        let col = |name: &str| cols.iter().position(|c| c.eq_ignore_ascii_case(name));

        if let Some(keys) = &filter.projection {
            // Projection pushdown: emit scalar values in requested order.
            let mut out = Vec::new();
            for row in &rows {
                for k in keys {
                    if props.iter().any(|p| p.eq_ignore_ascii_case(k)) {
                        if let Some(i) = col(k) {
                            if !row[i].is_null() {
                                out.push(to_gvalue(&row[i]));
                            }
                        }
                    }
                }
            }
            return Ok(TableResult::Values(out));
        }

        let mut out = Vec::with_capacity(rows.len());
        for row in &rows {
            let v = self.vertex_from_row(vt, &cols, row)?;
            let el = Element::Vertex(v);
            // Residual check covers anything not pushed to SQL.
            if filter.matches(&el) {
                out.push(el);
            }
        }
        Ok(TableResult::Elements(out))
    }

    // ------------------------------------------------------------- edges

    /// Edge-table counterpart of [`Self::vertex_table_access`]: decide,
    /// without executing, whether the table is eliminated or how it would
    /// be scanned.
    fn edge_table_access(
        &self,
        et: &EdgeTable,
        filter: &ElementFilter,
    ) -> GraphResult<TableAccess> {
        if let (Some(labels), Some(fixed)) = (&filter.labels, et.fixed_label()) {
            if !labels.iter().any(|l| l == fixed) {
                return Ok(TableAccess::Pruned(format!(
                    "fixed label '{fixed}' not in requested labels"
                )));
            }
        }
        for p in &filter.predicates {
            if p.key != "label"
                && p.key != "id"
                && !et.has_property(&p.key)
                && !matches!(p.pred, Pred::Absent)
            {
                return Ok(TableAccess::Pruned(format!(
                    "no property column for '{}'",
                    p.key
                )));
            }
        }
        if let Some(keys) = &filter.projection {
            if !keys.iter().any(|k| et.has_property(k)) {
                return Ok(TableAccess::Pruned("no projected property column".into()));
            }
        }

        let mut plan = ScanPlan::default();

        // --- Edge ids (explicit or implicit).
        if let Some(ids) = &filter.ids {
            match &et.id {
                EdgeIdDef::Explicit(def) => {
                    match Self::id_conjunct_for(def, |c| et.column_type(c), ids)? {
                        None => {
                            return Ok(TableAccess::Pruned(
                                "no requested id fits this table (id prefix or type mismatch)"
                                    .into(),
                            ))
                        }
                        Some((sql, mut p)) => {
                            plan.conjuncts.push(sql);
                            plan.params.append(&mut p);
                            plan.pattern_cols.extend(def.columns().iter().map(|c| c.to_string()));
                        }
                    }
                }
                EdgeIdDef::Implicit => {
                    if let Some(fixed) = et.fixed_label() {
                        // --- Using Implicit Edge Id Values: label inside the
                        // id eliminates tables; parts become predicates.
                        let mut src_ids = Vec::new();
                        let mut dst_ids = Vec::new();
                        for id in ids {
                            if let Some((s, d)) = split_implicit_edge_id(id, fixed) {
                                src_ids.push(ElementId::Str(s));
                                dst_ids.push(ElementId::Str(d));
                            }
                        }
                        if src_ids.is_empty() {
                            return Ok(TableAccess::Pruned(format!(
                                "no implicit edge id embeds label '{fixed}'"
                            )));
                        }
                        let src_c =
                            Self::id_conjunct_for(&et.src_v, |c| et.column_type(c), &src_ids)?;
                        let dst_c =
                            Self::id_conjunct_for(&et.dst_v, |c| et.column_type(c), &dst_ids)?;
                        match (src_c, dst_c) {
                            (Some((s_sql, mut s_p)), Some((d_sql, mut d_p))) => {
                                plan.conjuncts.push(s_sql);
                                plan.params.append(&mut s_p);
                                plan.conjuncts.push(d_sql);
                                plan.params.append(&mut d_p);
                                plan.pattern_cols
                                    .extend(et.src_v.columns().iter().map(|c| c.to_string()));
                                plan.pattern_cols
                                    .extend(et.dst_v.columns().iter().map(|c| c.to_string()));
                            }
                            _ => {
                                return Ok(TableAccess::Pruned(
                                    "implicit edge id endpoints do not fit this table".into(),
                                ))
                            }
                        }
                    } else {
                        // Column label: cannot decompose without knowing the
                        // label; fetch and post-filter by computed id.
                        plan.post_filter_ids = true;
                    }
                }
            }
        }

        // --- src/dst id constraints (GraphStep::VertexStep mutation).
        for (def, ids_opt, which) in [
            (&et.src_v, &filter.src_ids, "src"),
            (&et.dst_v, &filter.dst_ids, "dst"),
        ] {
            if let Some(ids) = ids_opt {
                match Self::id_conjunct_for(def, |c| et.column_type(c), ids)? {
                    None => {
                        return Ok(TableAccess::Pruned(format!(
                            "no {which} endpoint id fits this table"
                        )))
                    }
                    Some((sql, mut p)) => {
                        plan.conjuncts.push(sql);
                        plan.params.append(&mut p);
                        plan.pattern_cols.extend(def.columns().iter().map(|c| c.to_string()));
                    }
                }
            }
        }

        if let Some(labels) = &filter.labels {
            if let LabelDef::Column(c) = &et.label {
                let mut vals: Vec<Value> =
                    labels.iter().map(|l| Value::Varchar(l.clone())).collect();
                plan.conjuncts.push(in_list_bucketed(c, &mut vals));
                plan.params.extend(vals);
                plan.pattern_cols.push(c.clone());
            }
        }
        for p in &filter.predicates {
            let col = match (p.key.as_str(), &et.label) {
                ("label", LabelDef::Column(c)) => c.clone(),
                ("label", LabelDef::Fixed(fixed)) => {
                    if !p.pred.test(Some(&GValue::Str(fixed.clone()))) {
                        return Ok(TableAccess::Pruned(format!(
                            "fixed label '{fixed}' fails the label predicate"
                        )));
                    }
                    continue;
                }
                ("id", _) => continue,
                _ => p.key.clone(),
            };
            if !et.has_column(&col) {
                continue;
            }
            if let Some((sql, mut ps)) = Self::pred_to_sql(&col, &p.pred) {
                plan.conjuncts.push(sql);
                plan.params.append(&mut ps);
                plan.pattern_cols.push(col);
            }
        }
        Ok(TableAccess::Scan(plan))
    }

    /// The access decision for one edge table, recorded in the profile:
    /// the scan plan, or `None` when the table is pruned.
    fn plan_edge_table(
        &self,
        et: &EdgeTable,
        filter: &ElementFilter,
    ) -> GraphResult<Option<ScanPlan>> {
        self.check_deadline()?;
        Ok(self.admit(&et.name, self.edge_table_access(et, filter)?, TableAction::Queried))
    }

    /// An adjacency probe: the rows of `et` under `filter`, selected with
    /// every column a hop decodes — the shape the adjacency cache holds.
    fn probe_edge_rows(&self, et: &EdgeTable, filter: &ElementFilter) -> GraphResult<TableResult> {
        let Some(plan) = self.plan_edge_table(et, filter)? else {
            return Ok(TableResult::Pruned);
        };
        let rows = self.fetch_rows(&et.name, &EdgeShape::new(et, None).cols, plan)?;
        Ok(TableResult::Rows(rows))
    }

    fn query_edge_table(&self, et: &EdgeTable, filter: &ElementFilter) -> GraphResult<TableResult> {
        let Some(plan) = self.plan_edge_table(et, filter)? else {
            return Ok(TableResult::Pruned);
        };
        if let Some(op) = filter.aggregate {
            // A post-filtered id check forces materialization.
            if !plan.post_filter_ids {
                return self.run_aggregate(
                    &et.name,
                    &plan,
                    op,
                    filter.projection.as_deref(),
                    |k| et.has_property(k),
                    |k| et.column_type(k),
                );
            }
        }
        let shape = EdgeShape::new(et, filter.projection.as_deref());
        let mut elements: Vec<Element> = Vec::new();
        for row in self.fetch_rows(&et.name, &shape.cols, plan)? {
            // Residual check: anything not pushed to SQL, and computed ids
            // when they could not be pushed.
            let el = Element::Edge(shape.edge(&row)?);
            if filter.matches(&el) {
                elements.push(el);
            }
        }

        if let Some(op) = filter.aggregate {
            // Post-filtered aggregate fallback.
            return Ok(TableResult::Agg(AggParts::from_count(op, elements.len() as i64)));
        }
        if let Some(keys) = &filter.projection {
            let mut out = Vec::new();
            for el in &elements {
                for k in keys.iter().filter(|k| et.has_property(k)) {
                    if let Some(v) = el.properties().get(k) {
                        out.push(v.clone());
                    }
                }
            }
            return Ok(TableResult::Values(out));
        }
        Ok(TableResult::Elements(elements))
    }

    /// Record the access decision for `table` in the profile — `action`
    /// when it is scanned, the reason when it is pruned — and return the
    /// scan plan, or `None` when pruned.
    fn admit(&self, table: &str, access: TableAccess, action: TableAction) -> Option<ScanPlan> {
        match access {
            TableAccess::Pruned(reason) => {
                self.profiler.record_table(table, TableAction::Pruned(reason));
                None
            }
            TableAccess::Scan(plan) => {
                self.profiler.record_table(table, action);
                Some(plan)
            }
        }
    }

    /// Select `cols` from `table` under `plan`'s conjuncts, at this
    /// backend's read view.
    fn fetch_rows(&self, table: &str, cols: &[String], plan: ScanPlan) -> GraphResult<Vec<Row>> {
        let sql = build_select(table, cols, &plan.conjuncts, None);
        let rs = self
            .dialect
            .query_at(
                &self.profiler,
                &sql,
                &plan.params,
                Some((table, &plan.pattern())),
                self.read_view.as_ref(),
            )
            .map_err(GraphError::Db)?;
        Ok(rs.rows)
    }

    /// Run an aggregate-pushdown query for one table.
    fn run_aggregate(
        &self,
        table: &str,
        plan: &ScanPlan,
        op: AggOp,
        projection: Option<&[String]>,
        has_property: impl Fn(&str) -> bool,
        column_type: impl Fn(&str) -> Option<DataType>,
    ) -> GraphResult<TableResult> {
        let (conjuncts, params) = (&plan.conjuncts, &plan.params);
        let pattern_cols = plan.pattern();
        let pattern = Some((table, pattern_cols.as_slice()));
        match (op, projection) {
            (AggOp::Count, None) => {
                let sql = build_select(table, &[], conjuncts, Some("COUNT(*)"));
                let rs = self
                    .dialect
                    .query_at(&self.profiler, &sql, params, pattern, self.read_view.as_ref())
                    .map_err(GraphError::Db)?;
                let n = rs.scalar().and_then(|v| v.as_i64().ok()).unwrap_or(0);
                Ok(TableResult::Agg(AggParts::from_count(op, n)))
            }
            (op, keys) => {
                // Aggregate over projected property values: per key, issue
                // the aggregate + count so mean combines across tables.
                let keys: Vec<String> = keys
                    .map(|ks| ks.iter().filter(|k| has_property(k)).cloned().collect())
                    .unwrap_or_default();
                if keys.is_empty() {
                    // count() over elements.
                    let sql = build_select(table, &[], conjuncts, Some("COUNT(*)"));
                    let rs = self
                        .dialect
                        .query_at(&self.profiler, &sql, params, pattern, self.read_view.as_ref())
                        .map_err(GraphError::Db)?;
                    let n = rs.scalar().and_then(|v| v.as_i64().ok()).unwrap_or(0);
                    return Ok(TableResult::Agg(AggParts::from_count(op, n)));
                }
                let mut parts = AggParts::empty(op);
                for k in &keys {
                    let func = match op {
                        AggOp::Count => format!("COUNT({})", ident(k)),
                        AggOp::Sum => format!("SUM({})", ident(k)),
                        AggOp::Mean => format!("SUM({0}), COUNT({0})", ident(k)),
                        AggOp::Min => format!("MIN({})", ident(k)),
                        AggOp::Max => format!("MAX({})", ident(k)),
                    };
                    let sql = build_select(table, &[], conjuncts, Some(&func));
                    let rs = self
                        .dialect
                        .query_at(&self.profiler, &sql, params, pattern, self.read_view.as_ref())
                        .map_err(GraphError::Db)?;
                    let row = rs.rows.first();
                    let all_long = matches!(column_type(k), Some(DataType::Bigint));
                    match op {
                        AggOp::Count => {
                            let n = row
                                .and_then(|r| r.first())
                                .and_then(|v| v.as_i64().ok())
                                .unwrap_or(0);
                            parts.count += n;
                        }
                        AggOp::Sum | AggOp::Mean => {
                            if let Some(r) = row {
                                if let Ok(s) = r[0].as_f64() {
                                    parts.sum += s;
                                    parts.saw_values = true;
                                }
                                if op == AggOp::Mean {
                                    parts.count += r[1].as_i64().unwrap_or(0);
                                } else {
                                    parts.count += 1;
                                }
                                parts.all_long &= all_long;
                            }
                        }
                        AggOp::Min | AggOp::Max => {
                            if let Some(r) = row {
                                if !r[0].is_null() {
                                    let v = to_gvalue(&r[0]);
                                    parts.merge_minmax(op, v);
                                }
                            }
                        }
                    }
                }
                Ok(TableResult::Agg(parts))
            }
        }
    }

    // --------------------------------------------------- vertex lookups

    /// Bulk-resolve vertices by id. `hint` (a vertex-table index) pins the
    /// table directly — the src/dst vertex table optimization. Without a
    /// hint, prefixed-id decoding eliminates tables.
    pub(crate) fn lookup_vertices(
        &self,
        ids: &[ElementId],
        hint: Option<usize>,
        filter: &ElementFilter,
    ) -> GraphResult<HashMap<ElementId, Vertex>> {
        let mut out = HashMap::with_capacity(ids.len());
        if ids.is_empty() {
            return Ok(out);
        }
        self.check_deadline()?;
        let unique_ids: Vec<ElementId> = {
            // An id constraint already on the filter (a pushed-down hasId)
            // intersects with the requested endpoint ids.
            let allowed: Option<HashSet<&ElementId>> =
                filter.ids.as_ref().map(|v| v.iter().collect());
            let mut seen = HashSet::new();
            ids.iter()
                .filter(|i| allowed.as_ref().map(|a| a.contains(i)).unwrap_or(true))
                .filter(|i| seen.insert((*i).clone()))
                .cloned()
                .collect()
        };
        if unique_ids.is_empty() {
            return Ok(out);
        }
        let candidates: Vec<usize> = match hint {
            Some(i) => {
                self.registry().tables_considered.add(1);
                vec![i]
            }
            None => {
                self.registry().tables_considered.add(self.topo.vertex_tables.len() as u64);
                (0..self.topo.vertex_tables.len()).collect()
            }
        };
        // One job per (candidate table × id chunk); large frontiers split
        // so each statement stays within the template bucket ceiling.
        let chunks: Vec<&[ElementId]> = unique_ids.chunks(MAX_FRONTIER_CHUNK).collect();
        let mut jobs: Vec<TableJob> = Vec::new();
        for &ti in &candidates {
            for chunk in &chunks {
                let mut sub = filter.clone();
                sub.ids = Some(chunk.to_vec());
                sub.projection = None;
                sub.aggregate = None;
                jobs.push(TableJob {
                    kind: if hint.is_some() { JobKind::PinnedVertices } else { JobKind::Vertices },
                    table: ti,
                    filter: Arc::new(sub),
                });
            }
        }
        let tables: Vec<usize> = jobs.iter().map(|j| j.table).collect();
        let results = self.fan_out(jobs)?;
        // A table counts as pruned only when every one of its chunks was.
        let mut chunks_pruned: HashMap<usize, usize> = HashMap::new();
        for (ti, r) in tables.into_iter().zip(results) {
            match r {
                TableResult::Pruned => *chunks_pruned.entry(ti).or_insert(0) += 1,
                TableResult::Elements(es) => {
                    for el in es {
                        if let Element::Vertex(v) = el {
                            out.insert(v.id.clone(), v);
                        }
                    }
                }
                _ => unreachable!("projection/aggregate cleared"),
            }
        }
        let pruned =
            chunks_pruned.values().filter(|&&n| n == chunks.len()).count() as u64;
        self.registry().tables_pruned.add(pruned);
        Ok(out)
    }

    /// "When a vertex table is also an edge table": construct the endpoint
    /// vertex directly from the edge when the vertex table *is* the edge's
    /// table and the vertex's properties are subsumed by the edge's.
    fn vertex_from_edge(&self, edge: &Edge, endpoint: &ElementId, vt_idx: usize) -> Option<Vertex> {
        let vt = &self.topo.vertex_tables[vt_idx];
        let et_name = edge.provenance.as_deref()?;
        if !vt.name.eq_ignore_ascii_case(et_name) {
            return None;
        }
        let label = vt.fixed_label()?;
        // Vertex property columns must be subsumed by the edge's
        // configured property columns.
        let et_idx = self.topo.edge_table_index(et_name)?;
        let et = &self.topo.edge_tables[et_idx];
        if !vt.properties.iter().all(|p| et.properties.iter().any(|q| q.eq_ignore_ascii_case(p))) {
            return None;
        }
        let mut v = Vertex::new(endpoint.clone(), label);
        for p in &vt.properties {
            if let Some(val) = edge.properties.get(p) {
                v.properties.insert(p.clone(), val.clone());
            }
        }
        v.provenance = Some(vt.name.clone());
        self.registry().vertices_from_edges.add(1);
        Some(v)
    }

    // ----------------------------------------------------------- explain

    /// The SQL statements an aggregate pushdown would issue, mirroring the
    /// shapes [`Self::run_aggregate`] executes.
    fn aggregate_sqls(table: &str, conjuncts: &[String], op: AggOp, keys: &[String]) -> Vec<String> {
        if keys.is_empty() {
            return vec![build_select(table, &[], conjuncts, Some("COUNT(*)"))];
        }
        keys.iter()
            .map(|k| {
                let func = match op {
                    AggOp::Count => format!("COUNT({})", ident(k)),
                    AggOp::Sum => format!("SUM({})", ident(k)),
                    AggOp::Mean => format!("SUM({0}), COUNT({0})", ident(k)),
                    AggOp::Min => format!("MIN({})", ident(k)),
                    AggOp::Max => format!("MAX({})", ident(k)),
                };
                build_select(table, &[], conjuncts, Some(&func))
            })
            .collect()
    }

    /// Dry-run a `V()`/`E()` step: per table, either the SQL it would
    /// generate or the reason it is eliminated. No data is touched.
    pub fn explain_elements(
        &self,
        kind: ElementKind,
        filter: &ElementFilter,
    ) -> GraphResult<Vec<TableExplain>> {
        let mut out = Vec::new();
        match kind {
            ElementKind::Vertices => {
                for vt in &self.topo.vertex_tables {
                    let plan = match self.vertex_table_access(vt, filter)? {
                        TableAccess::Pruned(reason) => {
                            out.push(TableExplain {
                                table: vt.name.clone(),
                                plan: TablePlan::Pruned { reason },
                            });
                            continue;
                        }
                        TableAccess::Scan(p) => p,
                    };
                    let sql = match filter.aggregate {
                        Some(op) => {
                            let keys: Vec<String> = filter
                                .projection
                                .as_deref()
                                .map(|ks| {
                                    ks.iter().filter(|k| vt.has_property(k)).cloned().collect()
                                })
                                .unwrap_or_default();
                            Self::aggregate_sqls(&vt.name, &plan.conjuncts, op, &keys)
                        }
                        None => {
                            let (cols, _) =
                                self.vertex_columns(vt, filter.projection.as_deref());
                            vec![build_select(&vt.name, &cols, &plan.conjuncts, None)]
                        }
                    };
                    out.push(TableExplain {
                        table: vt.name.clone(),
                        plan: TablePlan::Query { sql },
                    });
                }
            }
            ElementKind::Edges => {
                for et in &self.topo.edge_tables {
                    let plan = match self.edge_table_access(et, filter)? {
                        TableAccess::Pruned(reason) => {
                            out.push(TableExplain {
                                table: et.name.clone(),
                                plan: TablePlan::Pruned { reason },
                            });
                            continue;
                        }
                        TableAccess::Scan(p) => p,
                    };
                    let sql = match filter.aggregate {
                        // A post-filtered id check forces materialization,
                        // as in query_edge_table.
                        Some(op) if !plan.post_filter_ids => {
                            let keys: Vec<String> = filter
                                .projection
                                .as_deref()
                                .map(|ks| {
                                    ks.iter().filter(|k| et.has_property(k)).cloned().collect()
                                })
                                .unwrap_or_default();
                            Self::aggregate_sqls(&et.name, &plan.conjuncts, op, &keys)
                        }
                        _ => {
                            let shape = EdgeShape::new(et, filter.projection.as_deref());
                            vec![build_select(&et.name, &shape.cols, &plan.conjuncts, None)]
                        }
                    };
                    out.push(TableExplain {
                        table: et.name.clone(),
                        plan: TablePlan::Query { sql },
                    });
                }
            }
        }
        Ok(out)
    }

    /// Dry-run an adjacency step: which edge tables remain candidates
    /// after label elimination. The concrete SQL depends on the runtime
    /// frontier, so candidates carry a description instead of a statement.
    pub fn explain_adjacency(&self, edge_labels: &[String]) -> Vec<TableExplain> {
        let label_filter: Option<Vec<String>> =
            if edge_labels.is_empty() { None } else { Some(edge_labels.to_vec()) };
        let candidates: Vec<usize> = match &label_filter {
            Some(labels) => self.topo.edge_tables_for_labels(labels),
            None => (0..self.topo.edge_tables.len()).collect(),
        };
        self.topo
            .edge_tables
            .iter()
            .enumerate()
            .map(|(i, et)| {
                if candidates.contains(&i) {
                    let mut detail =
                        String::from("candidate; queried per frontier batch of source ids");
                    if et.src_v_table.is_some() || et.dst_v_table.is_some() {
                        detail.push_str(
                            " (declared src/dst vertex table links can skip it per direction)",
                        );
                    }
                    TableExplain { table: et.name.clone(), plan: TablePlan::Candidate { detail } }
                } else {
                    TableExplain {
                        table: et.name.clone(),
                        plan: TablePlan::Pruned {
                            reason: "label not served by this table".into(),
                        },
                    }
                }
            })
            .collect()
    }

    /// Structured explain for one compiled step; non-GSA steps yield
    /// nothing (they never touch the database).
    pub fn explain_compiled_step(&self, step: &gremlin::step::Step) -> Vec<TableExplain> {
        use gremlin::step::Step;
        match step {
            Step::Graph(g) => self.explain_elements(g.kind, &g.filter).unwrap_or_default(),
            Step::Vertex(v) => self.explain_adjacency(&v.edge_labels),
            Step::EdgeVertex(_) => vec![TableExplain {
                table: "<edge endpoints>".into(),
                plan: TablePlan::Candidate {
                    detail: "vertices fetched by endpoint id; the declared src/dst vertex \
                             table pins the lookup, and vertex-from-edge skips SQL when the \
                             edge subsumes the vertex"
                        .into(),
                },
            }],
            _ => Vec::new(),
        }
    }
}

// ----------------------------------------------------------- aggregates

/// Per-table aggregate pieces, combinable across tables.
pub(crate) struct AggParts {
    op: AggOp,
    count: i64,
    sum: f64,
    all_long: bool,
    saw_values: bool,
    minmax: Option<GValue>,
}

impl AggParts {
    fn empty(op: AggOp) -> AggParts {
        AggParts { op, count: 0, sum: 0.0, all_long: true, saw_values: false, minmax: None }
    }

    fn from_count(op: AggOp, n: i64) -> AggParts {
        let mut p = AggParts::empty(op);
        p.count = n;
        p
    }

    fn merge_minmax(&mut self, op: AggOp, v: GValue) {
        self.saw_values = true;
        self.minmax = Some(match self.minmax.take() {
            None => v,
            Some(cur) => {
                let keep_new = match op {
                    AggOp::Min => v.total_cmp(&cur).is_lt(),
                    AggOp::Max => v.total_cmp(&cur).is_gt(),
                    _ => false,
                };
                if keep_new {
                    v
                } else {
                    cur
                }
            }
        });
    }
}

struct AggCombiner {
    op: Option<AggOp>,
    acc: Option<AggParts>,
}

impl AggCombiner {
    fn new(op: Option<AggOp>) -> AggCombiner {
        AggCombiner { op, acc: None }
    }

    fn add(&mut self, parts: AggParts) {
        match &mut self.acc {
            None => self.acc = Some(parts),
            Some(acc) => {
                acc.count += parts.count;
                acc.sum += parts.sum;
                acc.all_long &= parts.all_long;
                acc.saw_values |= parts.saw_values;
                if let Some(v) = parts.minmax {
                    acc.merge_minmax(parts.op, v);
                }
            }
        }
    }

    fn finish(self) -> BackendOutput {
        let op = self.op.expect("combiner used only with aggregate");
        let acc = match self.acc {
            Some(a) => a,
            None => AggParts::empty(op),
        };
        match op {
            AggOp::Count => BackendOutput::Aggregate(GValue::Long(acc.count)),
            AggOp::Sum => {
                if !acc.saw_values {
                    BackendOutput::Elements(Vec::new())
                } else if acc.all_long {
                    BackendOutput::Aggregate(GValue::Long(acc.sum as i64))
                } else {
                    BackendOutput::Aggregate(GValue::Double(acc.sum))
                }
            }
            AggOp::Mean => {
                if acc.count == 0 {
                    BackendOutput::Elements(Vec::new())
                } else {
                    BackendOutput::Aggregate(GValue::Double(acc.sum / acc.count as f64))
                }
            }
            AggOp::Min | AggOp::Max => match acc.minmax {
                Some(v) => BackendOutput::Aggregate(v),
                None => BackendOutput::Elements(Vec::new()),
            },
        }
    }
}

enum TableResult {
    Pruned,
    Elements(Vec<Element>),
    Values(Vec<GValue>),
    Agg(AggParts),
    /// An adjacency probe's rows, undecoded.
    Rows(Vec<Row>),
}

/// What one [`TableJob`] reads.
#[derive(Clone, Copy, PartialEq, Eq)]
enum JobKind {
    /// Vertices of a table considered among all vertex tables.
    Vertices,
    /// Vertices of the one table a src/dst link selected (profiled as
    /// pinned rather than queried).
    PinnedVertices,
    /// Edges, as elements, values or an aggregate.
    Edges,
    /// An adjacency probe: the edge table's rows.
    Adjacency,
}

/// One unit of [`Db2GraphBackend::fan_out`]: read one overlay table under
/// a filter. Owned, so it can run on a resident pool thread.
struct TableJob {
    kind: JobKind,
    /// Index into the topology's vertex or edge tables, per `kind`.
    table: usize,
    filter: Arc<ElementFilter>,
}

impl TableJob {
    /// One job per table of `kind`, all sharing `filter`, in table order.
    fn every_table(kind: JobKind, tables: usize, filter: &ElementFilter) -> Vec<TableJob> {
        let filter = Arc::new(filter.clone());
        (0..tables).map(|table| TableJob { kind, table, filter: filter.clone() }).collect()
    }
}

/// An edge table's SELECT list, and where each part of an edge sits in
/// the rows it returns — so decoding a row indexes it instead of looking
/// columns up by name.
struct EdgeShape<'a> {
    et: &'a EdgeTable,
    /// The selected columns: endpoints, explicit id, label column, then
    /// the (projected) properties, each once.
    cols: Vec<String>,
    src: Vec<usize>,
    dst: Vec<usize>,
    /// Explicit-id columns (empty for implicit ids).
    id: Vec<usize>,
    /// The label column, for column-labelled tables.
    label: Option<usize>,
    /// Each property whose column is selected, with that column.
    props: Vec<(&'a str, usize)>,
}

impl<'a> EdgeShape<'a> {
    fn new(et: &'a EdgeTable, projection: Option<&[String]>) -> EdgeShape<'a> {
        let mut cols: Vec<String> = Vec::new();
        let mut at = |c: &str| match cols.iter().position(|x| x.eq_ignore_ascii_case(c)) {
            Some(i) => i,
            None => {
                cols.push(c.to_string());
                cols.len() - 1
            }
        };
        let src: Vec<usize> = et.src_v.columns().into_iter().map(&mut at).collect();
        let dst: Vec<usize> = et.dst_v.columns().into_iter().map(&mut at).collect();
        let id: Vec<usize> = match &et.id {
            EdgeIdDef::Explicit(def) => def.columns().into_iter().map(&mut at).collect(),
            EdgeIdDef::Implicit => Vec::new(),
        };
        let label = match &et.label {
            LabelDef::Column(c) => Some(at(c)),
            LabelDef::Fixed(_) => None,
        };
        for p in &et.properties {
            if projection.is_none_or(|keys| keys.iter().any(|k| k.eq_ignore_ascii_case(p))) {
                at(p);
            }
        }
        let props = et
            .properties
            .iter()
            .filter_map(|p| {
                let i = cols.iter().position(|c| c.eq_ignore_ascii_case(p))?;
                Some((p.as_str(), i))
            })
            .collect();
        EdgeShape { et, cols, src, dst, id, label, props }
    }

    /// The id encoded from columns `at` of `row` under `def`.
    fn encode(def: &IdDef, at: &[usize], row: &Row) -> GraphResult<ElementId> {
        def.encode(&at.iter().map(|&i| row[i].clone()).collect::<Vec<_>>())
    }

    /// The src (`out`) or dst endpoint id of `row`.
    fn endpoint(&self, row: &Row, out: bool) -> GraphResult<ElementId> {
        if out {
            Self::encode(&self.et.src_v, &self.src, row)
        } else {
            Self::encode(&self.et.dst_v, &self.dst, row)
        }
    }

    /// Materialize the edge of `row`.
    fn edge(&self, row: &Row) -> GraphResult<Edge> {
        let et = self.et;
        let (src, dst) = (self.endpoint(row, true)?, self.endpoint(row, false)?);
        let label = match &et.label {
            LabelDef::Fixed(l) => l.clone(),
            LabelDef::Column(_) => row[self.label.expect("label column selected")].to_string(),
        };
        let id = match &et.id {
            EdgeIdDef::Explicit(def) => Self::encode(def, &self.id, row)?,
            EdgeIdDef::Implicit => implicit_edge_id(&src, &label, &dst),
        };
        let mut e = Edge::new(id, label, src, dst);
        for &(p, i) in &self.props {
            if !row[i].is_null() {
                e.properties.insert(p.to_string(), to_gvalue(&row[i]));
            }
        }
        e.provenance = Some(et.name.clone());
        Ok(e)
    }

    /// The one decoder for adjacency rows, cached or fresh: a vertex hop
    /// decodes only the two endpoint ids, an edge hop builds the edge.
    /// `out` says which endpoint is on the frontier side; a cache hit
    /// already knows that id (`anchor`, the span's key) and skips it.
    fn hop(
        &self,
        row: &Row,
        out: bool,
        to: ElementKind,
        anchor: Option<&ElementId>,
    ) -> GraphResult<Hop> {
        Ok(match to {
            ElementKind::Vertices => Hop::Vertex {
                anchor: match anchor {
                    Some(id) => id.clone(),
                    None => self.endpoint(row, out)?,
                },
                target: self.endpoint(row, !out)?,
            },
            ElementKind::Edges => Hop::Edge(self.edge(row)?),
        })
    }
}

/// One decoded adjacency row.
enum Hop {
    /// A vertex hop: the frontier-side endpoint and the far one.
    Vertex { anchor: ElementId, target: ElementId },
    /// An edge hop: the edge itself.
    Edge(Edge),
}

/// A decoded row together with the (edge table, direction) it came from.
struct Found {
    hop: Hop,
    et_idx: usize,
    via_out: bool,
}

impl Found {
    /// The frontier-side endpoint: the source this row is adjacency of.
    fn anchor(&self) -> &ElementId {
        match &self.hop {
            Hop::Vertex { anchor, .. } => anchor,
            Hop::Edge(e) if self.via_out => &e.src,
            Hop::Edge(e) => &e.dst,
        }
    }
}

/// Everything needed to scan one table: WHERE conjuncts (with `?`
/// placeholders), their parameters, and the predicate columns for the
/// dialect's pattern tracking.
#[derive(Default)]
struct ScanPlan {
    conjuncts: Vec<String>,
    params: Vec<Value>,
    pattern_cols: Vec<String>,
    /// Edge tables with a column label and implicit ids cannot push an id
    /// filter to SQL; the computed ids are checked after materialization.
    post_filter_ids: bool,
}

impl ScanPlan {
    /// The predicate columns, sorted and deduplicated: the key of the
    /// dialect's pattern tracking.
    fn pattern(&self) -> Vec<String> {
        let mut cols = self.pattern_cols.clone();
        cols.sort();
        cols.dedup();
        cols
    }
}

/// The data-independent access decision for one table.
enum TableAccess {
    /// Eliminated before any SQL, with the reason.
    Pruned(String),
    Scan(ScanPlan),
}

// ------------------------------------------------------ GraphBackend impl

impl GraphBackend for Db2GraphBackend {
    fn graph_elements(&self, kind: ElementKind, filter: &ElementFilter) -> GResult<BackendOutput> {
        self.fetch_elements(kind, filter).map_err(to_gremlin)
    }

    fn adjacent(
        &self,
        sources: &[Element],
        direction: Direction,
        edge_labels: &[String],
        to: ElementKind,
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<Element>>> {
        self.adjacent_impl(sources, direction, edge_labels, to, filter)
            .map_err(to_gremlin)
    }

    fn edge_endpoints(
        &self,
        edges: &[Edge],
        end: EdgeEnd,
        came_from: &[Option<ElementId>],
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<Element>>> {
        self.edge_endpoints_impl(edges, end, came_from, filter).map_err(to_gremlin)
    }

    fn backend_name(&self) -> &str {
        "db2graph"
    }

    fn explain_step(&self, step: &gremlin::step::Step) -> Vec<String> {
        self.explain_compiled_step(step)
            .into_iter()
            .flat_map(|t| match t.plan {
                TablePlan::Query { sql } => sql
                    .into_iter()
                    .map(|q| format!("{}: {q}", t.table))
                    .collect::<Vec<_>>(),
                TablePlan::Candidate { detail } => vec![format!("{}: {detail}", t.table)],
                TablePlan::Pruned { reason } => {
                    vec![format!("{}: pruned ({reason})", t.table)]
                }
            })
            .collect()
    }
}

impl Db2GraphBackend {
    fn adjacent_impl(
        &self,
        sources: &[Element],
        direction: Direction,
        edge_labels: &[String],
        to: ElementKind,
        filter: &ElementFilter,
    ) -> GraphResult<Vec<Vec<Element>>> {
        let mut groups: Vec<Vec<Element>> = vec![Vec::new(); sources.len()];
        if sources.is_empty() {
            return Ok(groups);
        }
        self.check_deadline()?;
        // Map source vertex id -> positions (a vertex can appear several
        // times in the frontier).
        let mut src_positions: HashMap<ElementId, Vec<usize>> = HashMap::new();
        for (i, s) in sources.iter().enumerate() {
            src_positions.entry(s.id().clone()).or_default().push(i);
        }
        // Group source ids by their provenance vertex table (for the
        // src/dst vertex table elimination). Insertion-ordered groups with
        // set-backed dedup: frontier order decides probe order, and a 10k
        // frontier no longer pays a quadratic `Vec::contains` scan.
        let mut by_table: Vec<(Option<usize>, Vec<ElementId>)> = Vec::new();
        let mut group_of: HashMap<Option<usize>, usize> = HashMap::new();
        let mut group_seen: Vec<HashSet<ElementId>> = Vec::new();
        for s in sources {
            let vt_idx = s.provenance().and_then(|t| self.topo.vertex_table_index(t));
            let gi = *group_of.entry(vt_idx).or_insert_with(|| {
                by_table.push((vt_idx, Vec::new()));
                group_seen.push(HashSet::new());
                by_table.len() - 1
            });
            if group_seen[gi].insert(s.id().clone()) {
                by_table[gi].1.push(s.id().clone());
            }
        }

        // Candidate edge tables by label.
        let label_filter: Option<Vec<String>> =
            if edge_labels.is_empty() { None } else { Some(edge_labels.to_vec()) };
        let candidates: Vec<usize> = match &label_filter {
            Some(labels) => self.topo.edge_tables_for_labels(labels),
            None => (0..self.topo.edge_tables.len()).collect(),
        };
        self.registry().tables_considered.add(self.topo.edge_tables.len() as u64);
        self.registry()
            .tables_pruned
            .add((self.topo.edge_tables.len() - candidates.len()) as u64);
        if self.profiler.is_enabled() {
            for (i, et) in self.topo.edge_tables.iter().enumerate() {
                if !candidates.contains(&i) {
                    self.profiler.record_table(
                        &et.name,
                        TableAction::Pruned("label not served by this table".into()),
                    );
                }
            }
        }

        // Edge-level filter for the SQL query (only when edges are the
        // output; vertex filters apply after endpoint resolution).
        let edge_filter_preds =
            if to == ElementKind::Edges { filter.predicates.clone() } else { Vec::new() };

        // Adjacency-cache context: every run pinned to an unstamped
        // snapshot consults and feeds the cache, observed or not — the
        // profile records what it served (`TableAction::CacheHit`). Stamped
        // snapshots observe transaction-private writes the shared cache
        // must not hold. `epoch` is the snapshot's pin — the cache's
        // validity rule keys off it (docs/VECTORIZED.md).
        let cache_ctx: Option<(&AdjCache, u64)> = match (&self.adj_cache, &self.read_view) {
            (Some(c), Some(snap)) if snap.stamp() == 0 => Some((c, snap.epoch())),
            _ => None,
        };
        // A probe context is cacheable only when its SQL is unconstrained
        // beyond the frontier ids — then each probed id's rows are its
        // *complete* adjacency, so the cached entry can serve any later
        // query without post-filtering. A label filter stays cacheable
        // only through fixed-label tables (the candidate list already did
        // the elimination; the SQL adds no row constraint there).
        let ctx_cacheable = cache_ctx.is_some()
            && (to == ElementKind::Vertices
                || (edge_filter_preds.is_empty()
                    && filter.src_ids.is_none()
                    && filter.dst_ids.is_none()));

        // Phase 1 (sequential, cheap): expand the probe space —
        // (edge table × source-table group × direction × frontier chunk) —
        // recording the pruning and cache decisions on the coordinator
        // thread so the profile stream is ordered like sequential
        // execution. Each (table × group × direction) becomes one *unit*:
        // its cache-hit sources decode from memory, its misses fall back
        // to the batched SQL path with the exact chunking the pure-SQL
        // path uses.
        struct Unit {
            et_idx: usize,
            via_out: bool,
            /// Cache-hit sources with their spans, frontier order.
            /// Decoded on work-stealing morsels — no SQL.
            hits: Vec<(ElementId, RowSpan)>,
            /// Frontier ids that missed, chunked exactly like the pure
            /// SQL path chunks them; aligned 1:1 with this unit's probes.
            miss_chunks: Vec<Vec<ElementId>>,
            /// This unit's probes are `probes[probe_start..][..miss_chunks.len()]`.
            probe_start: usize,
            /// Feed this unit's SQL rows back into the cache.
            populate: bool,
        }
        let mut units: Vec<Unit> = Vec::new();
        let mut probes: Vec<TableJob> = Vec::new();
        for &ei in &candidates {
            let et = &self.topo.edge_tables[ei];
            for (vt_idx, ids) in &by_table {
                let passes = |dir_out: bool| -> bool {
                    // Source table link optimization: skip when the edge
                    // table's declared endpoint table differs from the
                    // sources' table.
                    let declared = if dir_out { et.src_v_table } else { et.dst_v_table };
                    match (declared, vt_idx) {
                        (Some(d), Some(v)) => d == *v,
                        _ => true,
                    }
                };
                let dirs: &[bool] = match direction {
                    Direction::Out => &[true],
                    Direction::In => &[false],
                    Direction::Both => &[true, false],
                };
                for &dir_out in dirs {
                    if !passes(dir_out) {
                        self.registry().tables_pruned.add(1);
                        if self.profiler.is_enabled() {
                            self.profiler.record_table(
                                &et.name,
                                TableAction::Pruned(format!(
                                    "declared {} vertex table differs from sources' table",
                                    if dir_out { "src" } else { "dst" }
                                )),
                            );
                        }
                        continue;
                    }
                    // Serve what the cache can: hit sources decode without
                    // SQL, miss sources continue to the probe path below.
                    let populate = ctx_cacheable
                        && (label_filter.is_none() || et.fixed_label().is_some());
                    let mut hits = Vec::new();
                    let mut remaining = Vec::new();
                    match cache_ctx {
                        Some((cache, epoch)) if populate => {
                            let spans = cache.lookup((ei, dir_out), ids, epoch);
                            for (id, span) in ids.iter().zip(spans) {
                                match span {
                                    Some(span) => hits.push((id.clone(), span)),
                                    None => remaining.push(id.clone()),
                                }
                            }
                        }
                        _ => remaining.clone_from(ids),
                    }
                    if !hits.is_empty() {
                        self.profiler.record_table(&et.name, TableAction::CacheHit);
                    }
                    let probe_start = probes.len();
                    let mut miss_chunks: Vec<Vec<ElementId>> = Vec::new();
                    // Chunked so one statement never exceeds the template
                    // bucket ceiling; chunks partition the ids, so an edge
                    // matches exactly one chunk per direction.
                    for chunk in remaining.chunks(MAX_FRONTIER_CHUNK) {
                        let mut sub = ElementFilter {
                            labels: label_filter.clone(),
                            predicates: edge_filter_preds.clone(),
                            ..Default::default()
                        };
                        // Endpoint constraints folded into the step's filter
                        // (e.g. a getLink-style `filter(inV().id() == x)`)
                        // combine with the frontier ids.
                        if to == ElementKind::Edges {
                            sub.src_ids = filter.src_ids.clone();
                            sub.dst_ids = filter.dst_ids.clone();
                        }
                        let chunk_set: HashSet<&ElementId> = chunk.iter().collect();
                        let intersect =
                            |slot: &mut Option<Vec<ElementId>>| match slot {
                                None => *slot = Some(chunk.to_vec()),
                                Some(existing) => existing.retain(|i| chunk_set.contains(i)),
                            };
                        if dir_out {
                            intersect(&mut sub.src_ids);
                        } else {
                            intersect(&mut sub.dst_ids);
                        }
                        probes.push(TableJob {
                            kind: JobKind::Adjacency,
                            table: ei,
                            filter: Arc::new(sub),
                        });
                        miss_chunks.push(chunk.to_vec());
                    }
                    units.push(Unit {
                        et_idx: ei,
                        via_out: dir_out,
                        hits,
                        miss_chunks,
                        probe_start,
                        populate,
                    });
                }
            }
        }

        // Phase 2 (parallel): run the independent cache-miss probes;
        // results come back in probe order.
        let mut results: Vec<Option<TableResult>> =
            self.fan_out(probes)?.into_iter().map(Some).collect();

        // Phase 3: decode — units in probe nesting order; within a unit,
        // cache hits (on work-stealing morsels, no SQL) before its SQL-probe
        // rows. Both go through one decoder (`EdgeShape::hop`), and each
        // source's rows come wholly from one span or one SQL chunk, in SQL
        // row order either way — so every per-source group below is
        // identical to the pure SQL path's: the cache changes *where* a
        // group's rows come from, never their content or order.
        let mut found: Vec<Found> = Vec::new();
        for unit in &mut units {
            let (et_idx, via_out) = (unit.et_idx, unit.via_out);
            if !unit.hits.is_empty() {
                let topo = self.topo.clone();
                let morsel = pool::morsel_size(unit.hits.len());
                let hops = pool::run_morsels(
                    self.threads,
                    std::mem::take(&mut unit.hits),
                    morsel,
                    move |_, hits| {
                        let shape = EdgeShape::new(&topo.edge_tables[et_idx], None);
                        hits.iter()
                            .flat_map(|(anchor, span)| {
                                span.rows().iter().map(move |row| (anchor, row))
                            })
                            .map(|(anchor, row)| shape.hop(row, via_out, to, Some(anchor)))
                            .collect()
                    },
                );
                for hop in hops {
                    found.push(Found { hop: hop?, et_idx, via_out });
                }
            }
            let et = &self.topo.edge_tables[et_idx];
            let shape = EdgeShape::new(et, None);
            for (k, chunk) in unit.miss_chunks.iter().enumerate() {
                let rows = match results[unit.probe_start + k].take() {
                    // A pruned unconstrained probe means the chunk's ids
                    // cannot exist in this table: their adjacency here is
                    // known empty, which is itself cacheable.
                    Some(TableResult::Pruned) => Vec::new(),
                    Some(TableResult::Rows(rows)) => rows,
                    _ => unreachable!("each adjacency probe yields rows once"),
                };
                let start = found.len();
                for row in &rows {
                    found.push(Found { hop: shape.hop(row, via_out, to, None)?, et_idx, via_out });
                }
                if let (true, Some((cache, epoch))) = (unit.populate, cache_ctx) {
                    let anchors: Vec<&ElementId> =
                        found[start..].iter().map(Found::anchor).collect();
                    cache.insert((et_idx, via_out), &et.name, chunk, rows, &anchors, epoch);
                }
            }
        }

        match to {
            ElementKind::Edges => {
                // What the probe SQL was not trusted with is re-checked on
                // each built edge, cached or fresh; membership in the
                // frontier is the position lookup.
                let leftover = ElementFilter {
                    labels: label_filter,
                    predicates: edge_filter_preds,
                    src_ids: filter.src_ids.clone(),
                    dst_ids: filter.dst_ids.clone(),
                    ..Default::default()
                };
                for f in found {
                    let Some(positions) = src_positions.get(f.anchor()) else { continue };
                    let Hop::Edge(edge) = f.hop else { unreachable!("an edge hop decodes edges") };
                    let el = Element::Edge(edge);
                    if !leftover.matches(&el) {
                        continue;
                    }
                    let (&last, rest) = positions.split_last().expect("positions are non-empty");
                    for &p in rest {
                        groups[p].push(el.clone());
                    }
                    groups[last].push(el);
                }
            }
            ElementKind::Vertices => {
                // Resolve opposite endpoints, batched per edge table +
                // direction (so the dst_v_table hint applies).
                // Insertion-ordered groups with set-backed dedup, so the
                // lookups run in discovery order regardless of hashing.
                let mut need: Vec<((usize, bool), Vec<ElementId>)> = Vec::new();
                let mut need_of: HashMap<(usize, bool), usize> = HashMap::new();
                let mut need_seen: Vec<HashSet<ElementId>> = Vec::new();
                for f in &found {
                    let Hop::Vertex { anchor, target } = &f.hop else {
                        unreachable!("a vertex hop decodes endpoint ids")
                    };
                    if !src_positions.contains_key(anchor) {
                        continue;
                    }
                    let key = (f.et_idx, f.via_out);
                    let gi = *need_of.entry(key).or_insert_with(|| {
                        need.push((key, Vec::new()));
                        need_seen.push(HashSet::new());
                        need.len() - 1
                    });
                    if need_seen[gi].insert(target.clone()) {
                        need[gi].1.push(target.clone());
                    }
                }
                // Each lookup fans out internally (table × chunk jobs), so
                // the group loop itself stays sequential — no nested
                // thread explosion.
                let mut resolved: HashMap<ElementId, Vertex> = HashMap::new();
                for ((et_idx, via_out), ids) in need {
                    let et = &self.topo.edge_tables[et_idx];
                    let hint = if via_out { et.dst_v_table } else { et.src_v_table };
                    let m = self.lookup_vertices(&ids, hint, filter)?;
                    resolved.extend(m);
                }
                for f in found {
                    let Hop::Vertex { anchor, target } = f.hop else {
                        unreachable!("a vertex hop decodes endpoint ids")
                    };
                    if let (Some(v), Some(positions)) =
                        (resolved.get(&target), src_positions.get(&anchor))
                    {
                        for &p in positions {
                            groups[p].push(Element::Vertex(v.clone()));
                        }
                    }
                }
            }
        }
        Ok(groups)
    }

    fn edge_endpoints_impl(
        &self,
        edges: &[Edge],
        end: EdgeEnd,
        came_from: &[Option<ElementId>],
        filter: &ElementFilter,
    ) -> GraphResult<Vec<Vec<Element>>> {
        // Endpoint ids needed per edge.
        let mut wanted: Vec<Vec<ElementId>> = Vec::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            let ids = match end {
                EdgeEnd::Out => vec![e.src.clone()],
                EdgeEnd::In => vec![e.dst.clone()],
                EdgeEnd::Both => vec![e.src.clone(), e.dst.clone()],
                EdgeEnd::Other => {
                    let from = came_from.get(i).and_then(|o| o.as_ref());
                    match from {
                        Some(f) if *f == e.src => vec![e.dst.clone()],
                        Some(f) if *f == e.dst => vec![e.src.clone()],
                        _ => vec![e.dst.clone()],
                    }
                }
            };
            wanted.push(ids);
        }
        // Try the vertex-from-edge shortcut; collect the rest per edge
        // table endpoint hint. Need-groups are insertion-ordered with
        // set-backed dedup (no quadratic `Vec::contains`, no HashMap
        // iteration-order nondeterminism in the lookup sequence).
        let mut resolved: HashMap<ElementId, Vertex> = HashMap::new();
        let mut need: Vec<(Option<usize>, Vec<ElementId>)> = Vec::new();
        let mut need_of: HashMap<Option<usize>, usize> = HashMap::new();
        let mut need_seen: Vec<HashSet<ElementId>> = Vec::new();
        for (e, ids) in edges.iter().zip(&wanted) {
            let et_idx = e.provenance.as_deref().and_then(|t| self.topo.edge_table_index(t));
            for id in ids {
                if resolved.contains_key(id) {
                    continue;
                }
                let hint = et_idx.and_then(|ei| {
                    let et = &self.topo.edge_tables[ei];
                    if *id == e.src {
                        et.src_v_table
                    } else {
                        et.dst_v_table
                    }
                });
                if let Some(vt_idx) = hint {
                    if let Some(v) = self.vertex_from_edge(e, id, vt_idx) {
                        let el = Element::Vertex(v.clone());
                        if filter.matches(&el) {
                            resolved.insert(id.clone(), v);
                        } else {
                            // Filtered out: record absence via no entry.
                        }
                        continue;
                    }
                }
                let gi = *need_of.entry(hint).or_insert_with(|| {
                    need.push((hint, Vec::new()));
                    need_seen.push(HashSet::new());
                    need.len() - 1
                });
                if need_seen[gi].insert(id.clone()) {
                    need[gi].1.push(id.clone());
                }
            }
        }
        // lookup_vertices fans out internally per (table × chunk).
        for (hint, ids) in need {
            let m = self.lookup_vertices(&ids, hint, filter)?;
            resolved.extend(m);
        }
        let mut out = Vec::with_capacity(edges.len());
        for ids in wanted {
            let mut group = Vec::new();
            for id in ids {
                if let Some(v) = resolved.get(&id) {
                    group.push(Element::Vertex(v.clone()));
                }
            }
            out.push(group);
        }
        Ok(out)
    }
}
