//! The Graph Structure module: the overlay implementation of the graph
//! structure API.
//!
//! Every graph operation here turns into SQL against the overlaid tables,
//! generated through the SQL Dialect module. One planner serves vertex and
//! edge tables alike: `table_access` decides per table whether it is
//! eliminated or read, and with which pushed conjuncts; `TableRead` turns
//! that plan into the statements that both execution and `explain()` use;
//! `Shape` decodes the rows of either kind. The data-dependent runtime
//! optimizations of Section 6.3 are all implemented:
//!
//! 1. **Using source/destination vertex tables** — `plan_probes` skips
//!    edge tables whose `src_v_table`/`dst_v_table` cannot match the source
//!    vertices' table, and `lookup_vertices` goes straight to the one
//!    declared vertex table.
//! 2. **When a vertex table is also an edge table** — `vertex_from_edge`:
//!    `outV()`/`inV()` construct the vertex from the edge itself (no SQL)
//!    when the endpoint vertex table is the edge's own table and its
//!    properties are subsumed by the edge's.
//! 3. **Using property names in pushdown information** — `table_access`
//!    eliminates tables lacking a pushed-down predicate/projection property.
//! 4. **Using label values** — `table_access` eliminates fixed-label tables
//!    not matching the query labels; column-label tables are always
//!    searched (`Topology::tables_for_labels` for adjacency steps).
//! 5. **Using prefixed id values** — in `table_access`, a prefixed id pins
//!    the exact table, and composite ids decompose into conjunctive column
//!    predicates (`id_conjunct_for`).
//! 6. **Using implicit edge id values** — `push_implicit_ids`:
//!    `src::label::dst` ids are broken apart, the embedded label eliminates
//!    tables, and the parts become conjunctive predicates.
//!
//! **The exact-plan rule.** A plan is *exact* when its conjuncts express
//! the whole filter, so SQL returns exactly the matching elements. Only an
//! exact plan pushes a projection (a narrowed SELECT list), an aggregate
//! (`COUNT`/`SUM`/`MIN`/`MAX` per table) or a read bound (a `LIMIT` from
//! `ElementFilter::first`, rounded up to a power of two) into SQL: each
//! table's bounded statement returns a prefix of the rows its unbounded one
//! would, and the `limit`/`range` step still trims the union across
//! tables. A plan is inexact when part of the filter has no SQL form here:
//! an `id` predicate that did not fold into `hasId`, a predicate value SQL
//! cannot hold or an empty `within()`, implicit edge ids on a
//! column-labelled table, or implicit ids spanning several endpoints on
//! both sides. An inexact plan reads
//! whole elements, keeps those `ElementFilter::matches` accepts, and folds
//! the projection or aggregate per table in Rust; it reads every row, since
//! the residual check may drop some.
//!
//! **Set-at-a-time hops.** A hop resolves the far endpoints of its whole
//! frontier in one lookup per vertex-table hint (`IdGroups`), so each
//! vertex table is read once per id chunk. An exact read selects only the
//! properties later steps read (`ElementFilter::properties`) plus those
//! its pushed predicates test (`selected_keys`); for an intermediate hop
//! that is the id column alone — the existence semi-join that drops edges
//! whose endpoint row is missing.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use gremlin::structure::{Edge, Element, ElementId, GValue, Properties, Vertex};
use gremlin::GResult;
use gremlin::{
    AggOp, BackendOutput, Direction, EdgeEnd, ElementFilter, ElementKind, GraphBackend, Pred,
};
use reldb::{DataType, Database, Row, RowSet, Snapshot, Value};

use crate::adjcache::{AdjCache, RowSpan};
use crate::error::{to_gremlin, GraphError, GraphResult};
use crate::ids::{implicit_edge_id, split_implicit_edge_id, IdDef};
use crate::metrics::{MetricsRegistry, Profiler, TableAction, TableExplain, TablePlan};
use crate::pool;
use crate::sql_dialect::{
    build_select, composite_in_bucketed, ident, in_list_bucketed, SqlDialect, MAX_FRONTIER_CHUNK,
};
use crate::topology::{LabelDef, OverlayTable, Topology};
use crate::trace::SpanData;

/// Convert a relational value into a Gremlin value.
pub(crate) fn to_gvalue(v: &Value) -> GValue {
    match v {
        Value::Null => GValue::Null,
        Value::Bigint(x) => GValue::Long(*x),
        Value::Double(x) => GValue::Double(*x),
        Value::Varchar(s) => GValue::Str(s.clone()),
        Value::Boolean(b) => GValue::Bool(*b),
    }
}

/// [`to_gvalue`] for an owned value: a string moves instead of being
/// copied.
fn into_gvalue(v: Value) -> GValue {
    match v {
        Value::Varchar(s) => GValue::Str(s),
        other => to_gvalue(&other),
    }
}

/// Convert a Gremlin value into a relational value (scalar kinds only).
pub(crate) fn to_value(v: &GValue) -> Option<Value> {
    match v {
        GValue::Null => Some(Value::Null),
        GValue::Long(x) => Some(Value::Bigint(*x)),
        GValue::Double(x) => Some(Value::Double(*x)),
        GValue::Str(s) => Some(Value::Varchar(s.clone())),
        GValue::Bool(b) => Some(Value::Boolean(*b)),
        _ => None,
    }
}

/// The overlay backend: executes graph operations as SQL.
pub(crate) struct Db2GraphBackend {
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
    /// A backend over `topo` whose fan-out uses up to `threads` threads
    /// (clamped to at least 1; 1 = fully sequential).
    pub(crate) fn new(db: Arc<Database>, topo: Arc<Topology>, threads: usize) -> Db2GraphBackend {
        let registry = Arc::new(MetricsRegistry::default());
        let dialect = Arc::new(SqlDialect::with_registry(db, registry));
        Db2GraphBackend {
            topo,
            dialect,
            profiler: Profiler::disabled(),
            threads: threads.max(1),
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
    pub(crate) fn bind(
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
    pub(crate) fn with_adj_cache(mut self, cache: Option<Arc<AdjCache>>) -> Db2GraphBackend {
        self.adj_cache = cache;
        self
    }

    /// Eagerly build *complete* cache segments (both directions) for every
    /// edge table by scanning them once at this backend's pinned snapshot.
    /// Complete segments answer even never-probed sources (absent = empty
    /// adjacency). Returns the number of edges cached, or 0 when the
    /// cache is disabled or the backend is unpinned/stamped.
    pub(crate) fn warm_adj_cache(&self) -> GraphResult<usize> {
        let Some(cache) = &self.adj_cache else { return Ok(0) };
        let Some(snap) = self.read_view.as_ref().filter(|s| s.stamp() == 0) else { return Ok(0) };
        let epoch = snap.epoch();
        let mut cached = 0usize;
        for ei in 0..self.topo.edge_tables.len() {
            let TableAccess::Scan(plan) =
                self.table_access(ElementKind::Edges, ei, &ElementFilter::default())
            else {
                continue;
            };
            let rows = self.probe_edge_rows(ei, &plan)?;
            let shape = Shape::new(&self.topo, ElementKind::Edges, ei, None);
            let ends: Vec<(ElementId, ElementId)> = rows
                .iter()
                .map(|row| Ok((shape.endpoint(row, true)?, shape.endpoint(row, false)?)))
                .collect::<GraphResult<_>>()?;
            let srcs: Vec<&ElementId> = ends.iter().map(|(src, _)| src).collect();
            let dsts: Vec<&ElementId> = ends.iter().map(|(_, dst)| dst).collect();
            cached += rows.len();
            let table = &shape.table.name;
            cache.insert_complete((ei, false), table, rows.clone(), &dsts, epoch);
            cache.insert_complete((ei, true), table, rows, &srcs, epoch);
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

    /// The effective intra-query worker count.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Plan a batch of table jobs here, then read what the plans keep.
    ///
    /// The coordinator runs `table_access` for every job in job order and
    /// records each decision — pruned with its reason, or read — on this
    /// backend's profiler before any SQL runs, so a pruned table costs no
    /// pool job. Only reads go further, each with its [`ScanPlan`]: a single
    /// read runs inline on this backend, on the calling thread; two or more
    /// go to the worker pool. Whether the pool is used depends only on how
    /// many tables the plan reads, never on the thread count.
    ///
    /// Each pooled read runs, inside a `worker` span, against a shallow
    /// backend clone whose profiler is a fresh fork; after the batch
    /// finishes, the forks are absorbed back into this backend's profiler
    /// **in job order**, re-parented under the span open at the fan-out
    /// site (the executor step). The span tree, and with it the profile
    /// derived from it, is identical to sequential execution modulo
    /// timing. Results come back in job order (`TableResult::Pruned` for a
    /// pruned job), and the first error in job order wins — callers
    /// observe no scheduling effects.
    fn fan_out(&self, jobs: Vec<TableJob>) -> GraphResult<Vec<TableResult>> {
        self.check_deadline()?;
        let mut results: Vec<TableResult> = Vec::with_capacity(jobs.len());
        let mut reads: Vec<(usize, TableJob, ScanPlan)> = Vec::new();
        for (i, job) in jobs.into_iter().enumerate() {
            let (kind, action) = job.kind.profiled_as();
            let table = &self.topo.table(kind, job.table).name;
            results.push(TableResult::Pruned);
            match self.table_access(kind, job.table, &job.filter) {
                TableAccess::Pruned(reason) => {
                    self.profiler.record_table(table, TableAction::Pruned(reason));
                }
                TableAccess::Scan(plan) => {
                    self.profiler.record_table(table, action);
                    reads.push((i, job, plan));
                }
            }
        }
        if let [(i, job, plan)] = reads.as_slice() {
            results[*i] = self.read_table(job, plan)?;
            return Ok(results);
        }
        let forks: Vec<Profiler> = reads.iter().map(|_| self.profiler.fork()).collect();
        let work: Vec<_> = reads
            .into_iter()
            .zip(&forks)
            .map(|((i, job, plan), fork)| {
                let be = self.bind(self.read_view.clone(), self.deadline, fork.clone());
                move || {
                    let span = be.profiler.start("worker", || SpanData::Worker { job: i });
                    let out = be.read_table(&job, &plan);
                    be.profiler.end(span);
                    (i, out)
                }
            })
            .collect();
        let outs = pool::run_ordered(self.threads, work);
        for fork in &forks {
            self.profiler.absorb(fork);
        }
        for (i, out) in outs {
            results[i] = out?;
        }
        Ok(results)
    }

    /// Run one planned read: the SQL of `job` under `plan`.
    fn read_table(&self, job: &TableJob, plan: &ScanPlan) -> GraphResult<TableResult> {
        self.check_deadline()?;
        match job.kind {
            JobKind::Adjacency => Ok(TableResult::Rows(self.probe_edge_rows(job.table, plan)?)),
            JobKind::Read(kind) => self.query_table(kind, job.table, &job.filter, plan),
            JobKind::PinnedVertices => {
                self.query_table(ElementKind::Vertices, job.table, &job.filter, plan)
            }
        }
    }

    /// The always-on aggregate counters shared with the SQL dialect.
    pub(crate) fn registry(&self) -> &Arc<MetricsRegistry> {
        self.dialect.registry()
    }

    pub(crate) fn dialect(&self) -> &SqlDialect {
        &self.dialect
    }

    pub(crate) fn topology(&self) -> &Topology {
        &self.topo
    }

    // ---------------------------------------------------------- planner

    /// Translate a property predicate into a SQL conjunct for a table that
    /// has the column. Returns `None` when it cannot be pushed (the plan
    /// is then inexact and the predicate is checked on the elements).
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
            Pred::Between(lo, hi) => {
                (format!("({c} >= ? AND {c} < ?)", c = ident(col)), vec![conv(lo)?, conv(hi)?])
            }
            Pred::Exists => (format!("{} IS NOT NULL", ident(col)), Vec::new()),
            Pred::Absent => (format!("{} IS NULL", ident(col)), Vec::new()),
        })
    }

    /// Build the conjunct selecting the ids `def` encodes in table `t`.
    /// Returns `None` when no id can belong to this table (the table is
    /// eliminated).
    fn id_conjunct_for(
        def: &IdDef,
        t: &OverlayTable,
        ids: &[ElementId],
    ) -> Option<(String, Vec<Value>)> {
        let cols = def.columns();
        // An id whose parts do not fit the columns' types (e.g. a text
        // fragment for a BIGINT column) cannot be in this table.
        let via_text = |id: &ElementId| -> Option<Vec<Value>> {
            let parts = def.decode(id)?;
            parts
                .iter()
                .zip(&cols)
                .map(|(text, col)| IdDef::coerce_column(text, t.column_type(col)).ok())
                .collect()
        };
        // Bucketed arity: the generated template depends only on
        // log2(|ids|), so frontier-size jitter reuses prepared statements.
        if let [col] = cols[..] {
            let ty = t.column_type(col);
            let mut params: Vec<Value> = ids
                .iter()
                .filter_map(|id| match def.single_column_value(id, ty) {
                    Some(value) => value,
                    None => via_text(id).and_then(|mut key| key.pop()),
                })
                .collect();
            if params.is_empty() {
                return None;
            }
            let sql = in_list_bucketed(col, &mut params);
            return Some((sql, params));
        }
        let mut keys: Vec<Vec<Value>> = ids.iter().filter_map(via_text).collect();
        if keys.is_empty() {
            return None;
        }
        let sql = composite_in_bucketed(&cols, &mut keys);
        Some((sql, keys.into_iter().flatten().collect()))
    }

    /// A `V()`/`E()` step: one read job per table of `kind`, merged in
    /// table order.
    fn fetch_elements(
        &self,
        kind: ElementKind,
        filter: &ElementFilter,
    ) -> GraphResult<BackendOutput> {
        let tables = self.topo.table_count(kind);
        self.registry().tables_considered.add(tables as u64);
        let mut outputs: Vec<Element> = Vec::new();
        let mut values: Vec<GValue> = Vec::new();
        let mut agg = AggCombiner::new(filter.aggregate);
        let mut pruned = 0u64;
        for r in self.fan_out(TableJob::every_table(JobKind::Read(kind), tables, filter))? {
            match r {
                TableResult::Pruned => pruned += 1,
                TableResult::Elements(es) => outputs.extend(es),
                TableResult::Values(vs) => values.extend(vs),
                TableResult::Agg(parts) => agg.add(parts),
                TableResult::Rows(_) => unreachable!("table reads decode their rows"),
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

    /// The one planner: decide how table `ti` of `kind` would be read
    /// under `filter`, without executing anything — eliminated (with the
    /// reason), or read with the pushed conjuncts. Every table read uses
    /// it: `V()`/`E()` scans, adjacency probes, endpoint lookups and
    /// `explain()`. Only the id blocks differ between the kinds.
    fn table_access(&self, kind: ElementKind, ti: usize, filter: &ElementFilter) -> TableAccess {
        let t = self.topo.table(kind, ti);
        // --- Using Label Values: eliminate fixed-label mismatches.
        if let (Some(labels), Some(fixed)) = (&filter.labels, t.fixed_label()) {
            if !labels.iter().any(|l| l == fixed) {
                return TableAccess::Pruned(format!(
                    "fixed label '{fixed}' not in requested labels"
                ));
            }
        }
        // --- Using Property Names: predicates and projections require the
        // property to exist on this table. hasNot on a property the table
        // doesn't have is trivially satisfied; anything else eliminates it.
        if let Some(p) = filter.predicates.iter().find(|p| {
            p.key != "label"
                && p.key != "id"
                && !t.has_property(&p.key)
                && !matches!(p.pred, Pred::Absent)
        }) {
            return TableAccess::Pruned(format!("no property column for '{}'", p.key));
        }
        if let Some(keys) = &filter.projection {
            if !keys.iter().any(|k| t.has_property(k)) {
                return TableAccess::Pruned("no projected property column".into());
            }
        }

        let mut plan = ScanPlan { exact: true, ..Default::default() };
        let id_def = match kind {
            ElementKind::Vertices => Some(&self.topo.vertex_tables[ti].id),
            ElementKind::Edges => self.topo.edge_tables[ti].id.explicit(),
        };
        if let Some(ids) = &filter.ids {
            match id_def {
                // --- Using Prefixed Id Values: decode ids; prune on no match.
                Some(def) => match Self::id_conjunct_for(def, t, ids) {
                    Some(c) => plan.push(c, def.columns()),
                    None => {
                        return TableAccess::Pruned(
                            "no requested id fits this table (id prefix or type mismatch)".into(),
                        )
                    }
                },
                None => {
                    if let Err(reason) = self.push_implicit_ids(&mut plan, ti, ids) {
                        return TableAccess::Pruned(reason);
                    }
                }
            }
        }
        // --- src/dst id constraints (GraphStep::VertexStep mutation).
        if kind == ElementKind::Edges {
            let et = &self.topo.edge_tables[ti];
            for (def, ids, which) in
                [(&et.src_v, &filter.src_ids, "src"), (&et.dst_v, &filter.dst_ids, "dst")]
            {
                let Some(ids) = ids else { continue };
                match Self::id_conjunct_for(def, t, ids) {
                    Some(c) => plan.push(c, def.columns()),
                    None => {
                        return TableAccess::Pruned(format!(
                            "no {which} endpoint id fits this table"
                        ))
                    }
                }
            }
        }
        // Label predicate on a label column.
        if let (Some(labels), LabelDef::Column(c)) = (&filter.labels, &t.label) {
            let mut vals: Vec<Value> = labels.iter().map(|l| Value::Varchar(l.clone())).collect();
            let sql = in_list_bucketed(c, &mut vals);
            plan.push((sql, vals), [c.as_str()]);
        }
        // Property predicates.
        for p in &filter.predicates {
            let col = match (p.key.as_str(), &t.label) {
                ("label", LabelDef::Column(c)) => c.as_str(),
                ("label", LabelDef::Fixed(fixed)) => {
                    // Evaluate against the constant now.
                    if !p.pred.test(Some(&GValue::Str(fixed.to_string()))) {
                        return TableAccess::Pruned(format!(
                            "fixed label '{fixed}' fails the label predicate"
                        ));
                    }
                    continue;
                }
                // Id predicates that did not fold into `filter.ids`.
                ("id", _) => {
                    plan.exact = false;
                    continue;
                }
                // hasNot on a property this table lacks holds for every row.
                (key, _) if !t.has_property(key) => continue,
                (key, _) => key,
            };
            match Self::pred_to_sql(col, &p.pred) {
                Some(c) => plan.push(c, [col]),
                None => plan.exact = false,
            }
        }
        TableAccess::Scan(plan)
    }

    /// --- Using Implicit Edge Id Values: the label inside a
    /// `src::label::dst` id eliminates tables, and the endpoint parts
    /// become conjuncts. `Err` carries the reason the table is pruned.
    fn push_implicit_ids(
        &self,
        plan: &mut ScanPlan,
        ei: usize,
        ids: &[ElementId],
    ) -> Result<(), String> {
        let et = &self.topo.edge_tables[ei];
        let Some(fixed) = et.table.fixed_label() else {
            // A column label cannot be split off the id without knowing
            // it: the computed ids are checked on the elements.
            plan.exact = false;
            return Ok(());
        };
        let (src_ids, dst_ids): (Vec<ElementId>, Vec<ElementId>) = ids
            .iter()
            .filter_map(|id| split_implicit_edge_id(id, fixed))
            .map(|(s, d)| (ElementId::Str(s), ElementId::Str(d)))
            .unzip();
        if src_ids.is_empty() {
            return Err(format!("no implicit edge id embeds label '{fixed}'"));
        }
        let (Some(src), Some(dst)) = (
            Self::id_conjunct_for(&et.src_v, &et.table, &src_ids),
            Self::id_conjunct_for(&et.dst_v, &et.table, &dst_ids),
        ) else {
            return Err("implicit edge id endpoints do not fit this table".into());
        };
        // `src IN (..) AND dst IN (..)` selects every src × dst pair: exact
        // only while one side is a single endpoint.
        let single = |ids: &[ElementId]| ids.windows(2).all(|w| w[0] == w[1]);
        plan.exact &= single(&src_ids) || single(&dst_ids);
        plan.push(src, et.src_v.columns());
        plan.push(dst, et.dst_v.columns());
        Ok(())
    }

    /// An adjacency probe: the rows of edge table `ei` under `plan`,
    /// selected with every column a hop decodes — the shape the adjacency
    /// cache holds.
    fn probe_edge_rows(&self, ei: usize, plan: &ScanPlan) -> GraphResult<Vec<Row>> {
        let shape = Shape::new(&self.topo, ElementKind::Edges, ei, None);
        let sql = build_select(&shape.table.name, &shape.cols, &plan.conjuncts, None);
        Ok(self.query(&shape.table.name, &sql, plan)?.rows)
    }

    /// One table's part of a `V()`/`E()` read under `plan`: its elements,
    /// projected values or aggregate parts. An exact plan pushes the
    /// projection or aggregate into SQL; an inexact one reads whole
    /// elements, keeps those the filter matches, and folds the projection
    /// or aggregate here.
    fn query_table(
        &self,
        kind: ElementKind,
        ti: usize,
        filter: &ElementFilter,
        plan: &ScanPlan,
    ) -> GraphResult<TableResult> {
        let t = self.topo.table(kind, ti);
        let (shape, sql) = match TableRead::new(&self.topo, kind, ti, plan, filter) {
            TableRead::Aggregate(op, statements) => {
                return self.run_aggregate(t, plan, op, statements)
            }
            TableRead::Select(shape, sql) => (shape, sql),
        };
        let rows = self.query(&t.name, &sql, plan)?.rows;
        if let (true, Some(keys)) = (plan.exact, &filter.projection) {
            // Projection pushdown: scalar values straight from the rows.
            let values = rows.iter().flat_map(|row| shape.values(row, keys)).collect();
            return Ok(TableResult::Values(values));
        }
        let mut elements = Vec::with_capacity(rows.len());
        for mut row in rows {
            let el = shape.element(Cells::Owned(&mut row))?;
            // Residual check: anything the plan did not push to SQL.
            if filter.matches(&el) {
                elements.push(el);
            }
        }
        let keys = filter.projection.as_deref();
        Ok(match (filter.aggregate, keys) {
            (Some(op), keys) => TableResult::Agg(AggParts::fold(op, keys, &elements)),
            (None, Some(keys)) => TableResult::Values(
                elements
                    .iter()
                    .flat_map(|el| keys.iter().filter_map(|k| el.properties().get(k)))
                    .cloned()
                    .collect(),
            ),
            (None, None) => TableResult::Elements(elements),
        })
    }

    /// Run one statement of a read of `table` with `plan`'s parameters, at
    /// this backend's read view.
    fn query(&self, table: &str, sql: &str, plan: &ScanPlan) -> GraphResult<RowSet> {
        self.dialect
            .query_at(
                &self.profiler,
                sql,
                &plan.params,
                Some((table, &plan.pattern())),
                self.read_view.as_ref(),
            )
            .map_err(GraphError::Db)
    }

    /// Run a table's aggregate-pushdown statements and combine their
    /// results into the table's aggregate parts.
    fn run_aggregate(
        &self,
        t: &OverlayTable,
        plan: &ScanPlan,
        op: AggOp,
        statements: Vec<(String, Option<&str>)>,
    ) -> GraphResult<TableResult> {
        let mut parts = AggParts::empty(op);
        for (sql, key) in statements {
            let rs = self.query(&t.name, &sql, plan)?;
            let Some(row) = rs.rows.first() else { continue };
            match (op, key) {
                (AggOp::Count, _) | (_, None) => parts.count += row[0].as_i64().unwrap_or(0),
                (AggOp::Sum | AggOp::Mean, Some(k)) => {
                    if let Ok(s) = row[0].as_f64() {
                        parts.sum += s;
                        parts.saw_values = true;
                    }
                    if op == AggOp::Mean {
                        parts.count += row[1].as_i64().unwrap_or(0);
                    }
                    parts.all_long &= matches!(t.column_type(k), Some(DataType::Bigint));
                }
                (AggOp::Min | AggOp::Max, Some(_)) => {
                    if !row[0].is_null() {
                        parts.merge_minmax(op, to_gvalue(&row[0]));
                    }
                }
            }
        }
        Ok(TableResult::Agg(parts))
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
                    kind: match hint {
                        Some(_) => JobKind::PinnedVertices,
                        None => JobKind::Read(ElementKind::Vertices),
                    },
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
        let pruned = chunks_pruned.values().filter(|&&n| n == chunks.len()).count() as u64;
        self.registry().tables_pruned.add(pruned);
        Ok(out)
    }

    /// "When a vertex table is also an edge table": construct the endpoint
    /// vertex directly from the edge when the vertex table *is* the edge's
    /// table and the vertex's properties are subsumed by the edge's.
    fn vertex_from_edge(&self, edge: &Edge, endpoint: &ElementId, vt_idx: usize) -> Option<Vertex> {
        let vt = &self.topo.vertex_tables[vt_idx].table;
        let et_name = edge.provenance.as_deref()?;
        if !vt.name.eq_ignore_ascii_case(et_name) {
            return None;
        }
        let LabelDef::Fixed(label) = &vt.label else { return None };
        // Vertex property columns must be subsumed by the edge's
        // configured property columns.
        let et_idx = self.topo.table_index(ElementKind::Edges, et_name)?;
        let et = self.topo.table(ElementKind::Edges, et_idx);
        if !vt.properties.iter().all(|p| et.properties.iter().any(|q| q.eq_ignore_ascii_case(p))) {
            return None;
        }
        let values = vt.keys.iter().map(|k| edge.properties.get(k).cloned()).collect();
        self.registry().vertices_from_edges.add(1);
        Some(Vertex {
            id: endpoint.clone(),
            label: label.clone(),
            properties: Properties::shared(vt.keys.clone(), values),
            provenance: Some(vt.provenance.clone()),
        })
    }

    // ----------------------------------------------------------- explain

    /// Dry-run a `V()`/`E()` step: per table, either the SQL it would
    /// generate — built by the same [`TableRead`] execution runs — or the
    /// reason it is eliminated. No data is touched.
    pub(crate) fn explain_elements(
        &self,
        kind: ElementKind,
        filter: &ElementFilter,
    ) -> Vec<TableExplain> {
        let explain = |ti: usize| {
            let plan = match self.table_access(kind, ti, filter) {
                TableAccess::Pruned(reason) => TablePlan::Pruned { reason },
                TableAccess::Scan(plan) => TablePlan::Query {
                    sql: TableRead::new(&self.topo, kind, ti, &plan, filter).sqls(),
                },
            };
            TableExplain { table: self.topo.table(kind, ti).name.clone(), plan }
        };
        (0..self.topo.table_count(kind)).map(explain).collect()
    }

    /// Dry-run an adjacency step: which edge tables remain candidates
    /// after label elimination. The concrete SQL depends on the runtime
    /// frontier, so candidates carry a description instead of a statement.
    pub(crate) fn explain_adjacency(&self, edge_labels: &[String]) -> Vec<TableExplain> {
        let labels = (!edge_labels.is_empty()).then_some(edge_labels);
        self.topo
            .edge_tables
            .iter()
            .zip(self.label_verdicts(labels))
            .map(|(et, pruned)| {
                let plan = match pruned {
                    Some(reason) => TablePlan::Pruned { reason: reason.into() },
                    None => {
                        let mut detail =
                            String::from("candidate; queried per frontier batch of source ids");
                        if et.src_v_table.is_some() || et.dst_v_table.is_some() {
                            detail.push_str(
                                " (declared src/dst vertex table links can skip it per direction)",
                            );
                        }
                        TablePlan::Candidate { detail }
                    }
                };
                TableExplain { table: et.table.name.clone(), plan }
            })
            .collect()
    }

    /// Label elimination for an adjacency step over `labels` (`None`: no
    /// label filter): per edge table, `None` when the step searches it, or
    /// why it is pruned. Execution and explain both decide through this.
    fn label_verdicts(&self, labels: Option<&[String]>) -> Vec<Option<&'static str>> {
        let candidates = labels.map(|l| self.topo.tables_for_labels(ElementKind::Edges, l));
        (0..self.topo.edge_tables.len())
            .map(|i| match &candidates {
                Some(c) if !c.contains(&i) => Some("label not served by this table"),
                _ => None,
            })
            .collect()
    }

    /// Structured explain for one compiled step; non-GSA steps yield
    /// nothing (they never touch the database).
    pub(crate) fn explain_compiled_step(&self, step: &gremlin::Step) -> Vec<TableExplain> {
        use gremlin::Step;
        match step {
            Step::Graph(g) => self.explain_elements(g.kind, &g.filter),
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

    /// The parts of `op` over elements already read and filtered: the
    /// aggregate of an inexact plan. Without a projection it counts the
    /// elements; with one it folds each present value of the projected
    /// properties, as the pushed-down SQL aggregates their columns.
    fn fold(op: AggOp, keys: Option<&[String]>, elements: &[Element]) -> AggParts {
        let mut parts = AggParts::empty(op);
        let Some(keys) = keys else {
            parts.count = elements.len() as i64;
            return parts;
        };
        for v in elements.iter().flat_map(|el| keys.iter().filter_map(|k| el.properties().get(k))) {
            let number = match v {
                GValue::Long(x) => Some(*x as f64),
                GValue::Double(x) => Some(*x),
                _ => None,
            };
            match (op, number) {
                (AggOp::Count, _) => parts.count += 1,
                (AggOp::Min | AggOp::Max, _) => parts.merge_minmax(op, v.clone()),
                (AggOp::Sum | AggOp::Mean, Some(x)) => {
                    parts.sum += x;
                    parts.count += 1;
                    parts.saw_values = true;
                    parts.all_long &= matches!(v, GValue::Long(_));
                }
                (AggOp::Sum | AggOp::Mean, None) => {}
            }
        }
        parts
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
    /// Elements of a table considered among all tables of its kind: as
    /// elements, values or an aggregate.
    Read(ElementKind),
    /// Vertices of the one table a src/dst link selected (profiled as
    /// pinned rather than queried).
    PinnedVertices,
    /// An adjacency probe: the edge table's rows.
    Adjacency,
}

impl JobKind {
    /// The kind of table the job reads, and how a read is profiled.
    fn profiled_as(self) -> (ElementKind, TableAction) {
        match self {
            JobKind::Read(kind) => (kind, TableAction::Queried),
            JobKind::PinnedVertices => (ElementKind::Vertices, TableAction::Pinned),
            JobKind::Adjacency => (ElementKind::Edges, TableAction::Queried),
        }
    }
}

/// One unit of [`Db2GraphBackend::fan_out`]: one overlay table under a
/// filter. The coordinator plans it; a job it reads travels with its
/// [`ScanPlan`], owned, so it can run on a resident pool thread.
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

/// An id definition with the ordinals of its columns in a [`Shape`].
type IdCols<'a> = (&'a IdDef, Vec<usize>);

/// A table's SELECT list, and where each part of an element sits in the
/// rows it returns — so decoding a row indexes it instead of looking
/// columns up by name. One shape serves both kinds: only edges have
/// endpoints, and only implicit edge ids have no id columns. Every element
/// a shape builds shares its table's label and provenance and the shape's
/// property key list.
struct Shape<'a> {
    table: &'a OverlayTable,
    /// The selected columns: endpoints (edges), explicit id, label column,
    /// then the selected properties, each once.
    cols: Vec<String>,
    /// An edge's src and dst definitions; `None` for vertices.
    ends: Option<[IdCols<'a>; 2]>,
    /// The explicit id definition; `None` for implicit edge ids.
    id: Option<IdCols<'a>>,
    /// The label column, for column-labelled tables.
    label: Option<usize>,
    /// The selected property keys, sorted: every element of this shape
    /// shares the list.
    keys: Arc<[Arc<str>]>,
    /// Per key, its column, and whether it is that column's last reader
    /// (so an owned row's value may move instead of being copied).
    props: Vec<(usize, bool)>,
}

impl<'a> Shape<'a> {
    /// The shape of table `ti` of `kind`, selecting the properties among
    /// `keys`, or all of them for `None`.
    fn new(topo: &'a Topology, kind: ElementKind, ti: usize, keys: Option<&[String]>) -> Shape<'a> {
        let (ends, id) = match kind {
            ElementKind::Vertices => (None, Some(&topo.vertex_tables[ti].id)),
            ElementKind::Edges => {
                let et = &topo.edge_tables[ti];
                (Some([&et.src_v, &et.dst_v]), et.id.explicit())
            }
        };
        let table = topo.table(kind, ti);
        let mut cols: Vec<String> = Vec::new();
        let mut at = |c: &str| match cols.iter().position(|x| x.eq_ignore_ascii_case(c)) {
            Some(i) => i,
            None => {
                cols.push(c.to_string());
                cols.len() - 1
            }
        };
        let mut place = |def: &'a IdDef| (def, def.columns().into_iter().map(&mut at).collect());
        let ends = ends.map(|defs| defs.map(&mut place));
        let id = id.map(&mut place);
        let label = match &table.label {
            LabelDef::Column(c) => Some(at(c)),
            LabelDef::Fixed(_) => None,
        };
        let selected =
            |p: &str| keys.is_none_or(|keys| keys.iter().any(|k| k.eq_ignore_ascii_case(p)));
        for p in &table.properties {
            if selected(p) {
                at(p);
            }
        }
        // A whole-table read shares the list the table built when it
        // opened, and an id-only read the empty one, which allocates nothing.
        let shared: Arc<[Arc<str>]> = match keys {
            None => table.keys.clone(),
            Some(_) => {
                let kept: Vec<_> = table.keys.iter().filter(|k| selected(k)).cloned().collect();
                if kept.is_empty() {
                    Arc::default()
                } else {
                    kept.into()
                }
            }
        };
        let key_cols: Vec<usize> = shared
            .iter()
            .map(|k| cols.iter().position(|c| c.eq_ignore_ascii_case(k)).expect("selected"))
            .collect();
        let props = key_cols
            .iter()
            .enumerate()
            .map(|(j, &i)| (i, !key_cols[j + 1..].contains(&i)))
            .collect();
        Shape { table, cols, ends, id, label, keys: shared, props }
    }

    /// The id `def` encodes from its columns of `row`; a one-column id
    /// encodes from the borrowed value.
    fn encode((def, at): &IdCols, row: &Row) -> GraphResult<ElementId> {
        match at[..] {
            [i] => def.encode(std::slice::from_ref(&row[i])),
            _ => def.encode(&at.iter().map(|&i| row[i].clone()).collect::<Vec<_>>()),
        }
    }

    /// The src (`out`) or dst endpoint id of an edge `row`.
    fn endpoint(&self, row: &Row, out: bool) -> GraphResult<ElementId> {
        let ends = self.ends.as_ref().expect("only edge shapes have endpoints");
        Self::encode(&ends[usize::from(!out)], row)
    }

    fn label(&self, row: &Row) -> Arc<str> {
        match &self.table.label {
            LabelDef::Fixed(l) => l.clone(),
            LabelDef::Column(_) => match &row[self.label.expect("label column selected")] {
                Value::Varchar(s) => Arc::from(s.as_str()),
                other => Arc::from(other.to_string()),
            },
        }
    }

    /// The selected properties of `row`; NULL columns are absent.
    fn properties(&self, row: &mut Cells) -> Properties {
        let values = self.props.iter().map(|&(i, last)| row.value(i, last)).collect();
        Properties::shared(self.keys.clone(), values)
    }

    /// Materialize the edge of `row`.
    fn edge(&self, mut row: Cells) -> GraphResult<Edge> {
        let r = row.row();
        let (src, dst) = (self.endpoint(r, true)?, self.endpoint(r, false)?);
        let label = self.label(r);
        let id = match &self.id {
            Some(id) => Self::encode(id, r)?,
            None => implicit_edge_id(&src, &label, &dst),
        };
        let properties = self.properties(&mut row);
        let provenance = Some(self.table.provenance.clone());
        Ok(Edge { id, label, src, dst, properties, provenance })
    }

    /// Materialize the vertex or edge of `row`.
    fn element(&self, mut row: Cells) -> GraphResult<Element> {
        if self.ends.is_some() {
            return Ok(Element::Edge(self.edge(row)?));
        }
        let r = row.row();
        let id = Self::encode(self.id.as_ref().expect("vertex ids are explicit"), r)?;
        let label = self.label(r);
        let properties = self.properties(&mut row);
        let provenance = Some(self.table.provenance.clone());
        Ok(Element::Vertex(Vertex { id, label, properties, provenance }))
    }

    /// The non-null values of `keys` in `row`, in key order: projection
    /// pushdown, with no element built.
    fn values<'r>(&'r self, row: &'r Row, keys: &'r [String]) -> impl Iterator<Item = GValue> + 'r {
        keys.iter()
            .filter_map(|k| self.keys.iter().position(|p| p.eq_ignore_ascii_case(k)))
            .map(|j| &row[self.props[j].0])
            .filter(|v| !v.is_null())
            .map(to_gvalue)
    }

    /// The one decoder for adjacency rows, cached or fresh: a vertex hop
    /// decodes only the two endpoint ids, an edge hop builds the edge.
    /// `out` says which endpoint is on the frontier side; a cache hit
    /// already knows that id (`anchor`, the span's key) and skips it.
    fn hop(
        &self,
        row: Cells,
        out: bool,
        to: ElementKind,
        anchor: Option<&ElementId>,
    ) -> GraphResult<Hop> {
        Ok(match to {
            ElementKind::Vertices => Hop::Vertex {
                anchor: match anchor {
                    Some(id) => id.clone(),
                    None => self.endpoint(row.row(), out)?,
                },
                target: self.endpoint(row.row(), !out)?,
            },
            ElementKind::Edges => Hop::Edge(self.edge(row)?),
        })
    }
}

/// A row being decoded. An owned row gives its values up to the element;
/// a shared one (an adjacency-cache span, or rows about to be cached) is
/// copied from.
enum Cells<'r> {
    Owned(&'r mut Row),
    Shared(&'r Row),
}

impl Cells<'_> {
    fn row(&self) -> &Row {
        match self {
            Cells::Owned(row) => row,
            Cells::Shared(row) => row,
        }
    }

    /// Column `i` as a property value (`None` for NULL); `last` says no
    /// later property reads the column, so an owned row's value moves.
    fn value(&mut self, i: usize, last: bool) -> Option<GValue> {
        let v = match self {
            Cells::Owned(row) if last => std::mem::replace(&mut row[i], Value::Null),
            _ => self.row()[i].clone(),
        };
        (!v.is_null()).then(|| into_gvalue(v))
    }
}

/// One decoded adjacency row.
enum Hop {
    /// A vertex hop: the frontier-side endpoint and the far one.
    Vertex { anchor: ElementId, target: ElementId },
    /// An edge hop: the edge itself.
    Edge(Edge),
}

/// Ids grouped by a vertex-table index (`None` = no known table): groups
/// in insertion order, each id once per group. Discovery order, not
/// hashing, decides the order of the probes and lookups built from them,
/// and a large frontier pays no quadratic `Vec::contains`.
#[derive(Default)]
struct IdGroups {
    groups: Vec<(Option<usize>, Vec<ElementId>)>,
    of: HashMap<Option<usize>, usize>,
    seen: Vec<HashSet<ElementId>>,
}

impl IdGroups {
    fn add(&mut self, table: Option<usize>, id: &ElementId) {
        let gi = *self.of.entry(table).or_insert_with(|| {
            self.groups.push((table, Vec::new()));
            self.seen.push(HashSet::new());
            self.groups.len() - 1
        });
        if self.seen[gi].insert(id.clone()) {
            self.groups[gi].1.push(id.clone());
        }
    }
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

/// Everything needed to read one table: WHERE conjuncts (with `?`
/// placeholders), their parameters, the predicate columns for the
/// dialect's pattern tracking, and whether the conjuncts are exact.
#[derive(Default)]
struct ScanPlan {
    conjuncts: Vec<String>,
    params: Vec<Value>,
    pattern_cols: Vec<String>,
    /// The conjuncts express the whole filter, so SQL returns exactly the
    /// matching elements and may project or aggregate them. An inexact
    /// plan's rows are a superset, checked on the materialized elements.
    exact: bool,
}

impl ScanPlan {
    /// Add one conjunct with its parameters, over predicate columns `cols`.
    fn push<'c>(
        &mut self,
        (sql, mut params): (String, Vec<Value>),
        cols: impl IntoIterator<Item = &'c str>,
    ) {
        self.conjuncts.push(sql);
        self.params.append(&mut params);
        self.pattern_cols.extend(cols.into_iter().map(str::to_string));
    }

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

/// The properties an exact read under `filter` selects: the projection, or
/// the properties later steps read plus the keys of the pushed predicates,
/// which the residual `ElementFilter::matches` reads; `None` selects all.
pub(crate) fn selected_keys(filter: &ElementFilter) -> Option<Cow<'_, [String]>> {
    if let Some(keys) = &filter.projection {
        return Some(Cow::Borrowed(keys));
    }
    let keys = filter.properties.as_deref()?;
    if filter.predicates.is_empty() {
        return Some(Cow::Borrowed(keys));
    }
    let predicate_keys = filter.predicates.iter().map(|p| p.key.clone());
    Some(Cow::Owned(keys.iter().cloned().chain(predicate_keys).collect()))
}

/// The statements one table's part of a `V()`/`E()` read issues, built
/// once for execution and `explain()` alike.
enum TableRead<'a> {
    /// Aggregate pushdown, on exact plans only: one statement per
    /// projected property the table has, with that property, or one
    /// `COUNT(*)` without a projection.
    Aggregate(AggOp, Vec<(String, Option<&'a str>)>),
    /// One SELECT of the shape's columns: on an exact plan only the
    /// properties [`selected_keys`] names and at most the rows
    /// `ElementFilter::first` asks for, whole elements and every row
    /// otherwise.
    Select(Shape<'a>, String),
}

impl<'a> TableRead<'a> {
    fn new(
        topo: &'a Topology,
        kind: ElementKind,
        ti: usize,
        plan: &ScanPlan,
        filter: &'a ElementFilter,
    ) -> TableRead<'a> {
        let t = topo.table(kind, ti);
        let (table, conjuncts) = (&t.name, &plan.conjuncts);
        let Some(op) = filter.aggregate.filter(|_| plan.exact) else {
            let keys = if plan.exact { selected_keys(filter) } else { None };
            let shape = Shape::new(topo, kind, ti, keys.as_deref());
            let mut sql = build_select(table, &shape.cols, conjuncts, None);
            // The read bound, rounded up to a power of two so bounds share
            // templates. `limit(-1)` compiles to `u64::MAX`, which has no
            // such power and stays unbounded.
            let bound = filter.first.filter(|_| plan.exact);
            if let Some(b) = bound.and_then(u64::checked_next_power_of_two) {
                sql.push_str(&format!(" LIMIT {b}"));
            }
            return TableRead::Select(shape, sql);
        };
        let Some(keys) = &filter.projection else {
            let sql = build_select(table, &[], conjuncts, Some("COUNT(*)"));
            return TableRead::Aggregate(op, vec![(sql, None)]);
        };
        let statements = keys
            .iter()
            .filter(|k| t.has_property(k))
            .map(|k| {
                let func = match op {
                    AggOp::Count => format!("COUNT({})", ident(k)),
                    AggOp::Sum => format!("SUM({})", ident(k)),
                    AggOp::Mean => format!("SUM({0}), COUNT({0})", ident(k)),
                    AggOp::Min => format!("MIN({})", ident(k)),
                    AggOp::Max => format!("MAX({})", ident(k)),
                };
                (build_select(table, &[], conjuncts, Some(&func)), Some(k.as_str()))
            })
            .collect();
        TableRead::Aggregate(op, statements)
    }

    /// The statements' SQL text, in execution order.
    fn sqls(self) -> Vec<String> {
        match self {
            TableRead::Aggregate(_, statements) => {
                statements.into_iter().map(|(sql, _)| sql).collect()
            }
            TableRead::Select(_, sql) => vec![sql],
        }
    }
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
        self.adjacent_impl(sources, direction, edge_labels, to, filter).map_err(to_gremlin)
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

    fn explain_step(&self, step: &gremlin::Step) -> Vec<String> {
        self.explain_compiled_step(step)
            .into_iter()
            .flat_map(|t| match t.plan {
                TablePlan::Query { sql } => {
                    sql.into_iter().map(|q| format!("{}: {q}", t.table)).collect::<Vec<_>>()
                }
                TablePlan::Candidate { detail } => vec![format!("{}: {detail}", t.table)],
                TablePlan::Pruned { reason } => {
                    vec![format!("{}: pruned ({reason})", t.table)]
                }
            })
            .collect()
    }
}

/// One (edge table × source-table group × direction) of an adjacency
/// step: the sources the cache serves, and the SQL probes for the rest.
struct Unit {
    et_idx: usize,
    via_out: bool,
    /// Cache-hit sources with their spans, frontier order. Decoded on the
    /// calling thread — no SQL.
    hits: Vec<(ElementId, RowSpan)>,
    /// Frontier ids that missed, chunked exactly like the pure SQL path
    /// chunks them; aligned 1:1 with this unit's probes.
    miss_chunks: Vec<Vec<ElementId>>,
    /// This unit's probes are `probes[probe_start..][..miss_chunks.len()]`.
    probe_start: usize,
    /// Feed this unit's SQL rows back into the cache.
    populate: bool,
}

/// An adjacency step's probe plan: its units, and the SQL probes of their
/// cache misses in unit order.
struct ProbePlan {
    units: Vec<Unit>,
    probes: Vec<TableJob>,
}

impl Db2GraphBackend {
    /// Phase 1 of an adjacency step (sequential, cheap): expand the probe
    /// space — (edge table × source-table group × direction × frontier
    /// chunk) — recording the pruning and cache decisions on the
    /// coordinator thread so the profile stream is ordered like sequential
    /// execution. Each (table × group × direction) becomes one [`Unit`]:
    /// its cache-hit sources decode from memory, its misses fall back to
    /// the batched SQL path with the exact chunking the pure-SQL path
    /// uses. `edge_filter` is what the probe SQL filters on besides the
    /// frontier ids.
    fn plan_probes(
        &self,
        sources: &[Element],
        direction: Direction,
        edge_filter: &ElementFilter,
        cache_ctx: Option<(&AdjCache, u64)>,
    ) -> ProbePlan {
        // Group source ids by their provenance vertex table (for the
        // src/dst vertex table elimination); frontier order decides probe
        // order.
        let mut by_table = IdGroups::default();
        for s in sources {
            let vt_idx =
                s.provenance().and_then(|t| self.topo.table_index(ElementKind::Vertices, t));
            by_table.add(vt_idx, s.id());
        }

        // Candidate edge tables by label.
        let verdicts = self.label_verdicts(edge_filter.labels.as_deref());
        let tables = verdicts.len();
        let candidates: Vec<usize> = (0..tables).filter(|&i| verdicts[i].is_none()).collect();
        self.registry().tables_considered.add(tables as u64);
        self.registry().tables_pruned.add((tables - candidates.len()) as u64);
        if self.profiler.is_enabled() {
            for (et, pruned) in self.topo.edge_tables.iter().zip(verdicts) {
                if let Some(reason) = pruned {
                    self.profiler.record_table(&et.table.name, TableAction::Pruned(reason.into()));
                }
            }
        }

        // A probe is cacheable only when its SQL is unconstrained beyond
        // the frontier ids — then each probed id's rows are its *complete*
        // adjacency, so the cached entry can serve any later query without
        // post-filtering. A label filter stays cacheable only through
        // fixed-label tables (the candidate list already did the
        // elimination; the SQL adds no row constraint there).
        let ctx_cacheable = cache_ctx.is_some()
            && edge_filter.predicates.is_empty()
            && edge_filter.src_ids.is_none()
            && edge_filter.dst_ids.is_none();

        let dirs: &[bool] = match direction {
            Direction::Out => &[true],
            Direction::In => &[false],
            Direction::Both => &[true, false],
        };
        let mut plan = ProbePlan { units: Vec::new(), probes: Vec::new() };
        for &ei in &candidates {
            let et = &self.topo.edge_tables[ei];
            for (vt_idx, ids) in &by_table.groups {
                for &dir_out in dirs {
                    // Source table link optimization: skip when the edge
                    // table's declared endpoint table differs from the
                    // sources' table.
                    let declared = if dir_out { et.src_v_table } else { et.dst_v_table };
                    if matches!((declared, vt_idx), (Some(d), Some(v)) if d != *v) {
                        self.registry().tables_pruned.add(1);
                        if self.profiler.is_enabled() {
                            self.profiler.record_table(
                                &et.table.name,
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
                        && (edge_filter.labels.is_none() || et.table.fixed_label().is_some());
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
                        self.profiler.record_table(&et.table.name, TableAction::CacheHit);
                    }
                    let probe_start = plan.probes.len();
                    let mut miss_chunks: Vec<Vec<ElementId>> = Vec::new();
                    // Chunked so one statement never exceeds the template
                    // bucket ceiling; chunks partition the ids, so an edge
                    // matches exactly one chunk per direction.
                    for chunk in remaining.chunks(MAX_FRONTIER_CHUNK) {
                        // Endpoint constraints folded into the step's
                        // filter (e.g. a getLink-style `filter(inV().id()
                        // == x)`) combine with the frontier ids.
                        let mut sub = edge_filter.clone();
                        let chunk_set: HashSet<&ElementId> = chunk.iter().collect();
                        let slot = if dir_out { &mut sub.src_ids } else { &mut sub.dst_ids };
                        match slot {
                            None => *slot = Some(chunk.to_vec()),
                            Some(existing) => existing.retain(|i| chunk_set.contains(i)),
                        }
                        plan.probes.push(TableJob {
                            kind: JobKind::Adjacency,
                            table: ei,
                            filter: Arc::new(sub),
                        });
                        miss_chunks.push(chunk.to_vec());
                    }
                    plan.units.push(Unit {
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
        plan
    }

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
        // The edge-level filter: the edge labels, plus the step's
        // predicates and endpoint constraints when edges are the output
        // (vertex filters apply after endpoint resolution).
        let mut edge_filter = ElementFilter {
            labels: (!edge_labels.is_empty()).then(|| edge_labels.to_vec()),
            ..Default::default()
        };
        if to == ElementKind::Edges {
            edge_filter.predicates = filter.predicates.clone();
            edge_filter.src_ids = filter.src_ids.clone();
            edge_filter.dst_ids = filter.dst_ids.clone();
        }
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
        let ProbePlan { units, probes } =
            self.plan_probes(sources, direction, &edge_filter, cache_ctx);

        // Phase 2 (parallel): run the independent cache-miss probes;
        // results come back in probe order.
        let mut results: Vec<Option<TableResult>> =
            self.fan_out(probes)?.into_iter().map(Some).collect();

        // Phase 3: one decode loop on this thread — units in probe nesting
        // order; within a unit, cache hits (no SQL) before its SQL-probe
        // rows. Both go through one decoder (`Shape::hop`), and each
        // source's rows come wholly from one span or one SQL chunk, in SQL
        // row order either way — so every per-source group below is
        // identical to the pure SQL path's: the cache changes *where* a
        // group's rows come from, never their content or order.
        let mut found: Vec<Found> = Vec::new();
        for unit in &units {
            let (et_idx, via_out) = (unit.et_idx, unit.via_out);
            let shape = Shape::new(&self.topo, ElementKind::Edges, et_idx, None);
            for (anchor, span) in &unit.hits {
                for row in span.rows() {
                    let hop = shape.hop(Cells::Shared(row), via_out, to, Some(anchor))?;
                    found.push(Found { hop, et_idx, via_out });
                }
            }
            for (k, chunk) in unit.miss_chunks.iter().enumerate() {
                let mut rows = match results[unit.probe_start + k].take() {
                    // A pruned unconstrained probe means the chunk's ids
                    // cannot exist in this table: their adjacency here is
                    // known empty, which is itself cacheable.
                    Some(TableResult::Pruned) => Vec::new(),
                    Some(TableResult::Rows(rows)) => rows,
                    _ => unreachable!("each adjacency probe yields rows once"),
                };
                // Rows the cache is about to hold are copied from; the rest
                // give their values up to the edges.
                let populate = unit.populate && cache_ctx.is_some();
                let start = found.len();
                for row in &mut rows {
                    let cells = if populate { Cells::Shared(row) } else { Cells::Owned(row) };
                    found.push(Found {
                        hop: shape.hop(cells, via_out, to, None)?,
                        et_idx,
                        via_out,
                    });
                }
                if let (true, Some((cache, epoch))) = (populate, cache_ctx) {
                    let anchors: Vec<&ElementId> =
                        found[start..].iter().map(Found::anchor).collect();
                    let table = &shape.table.name;
                    cache.insert((et_idx, via_out), table, chunk, rows, &anchors, epoch);
                }
            }
        }

        match to {
            ElementKind::Edges => {
                // What the probe SQL was not trusted with is re-checked on
                // each built edge, cached or fresh; membership in the
                // frontier is the position lookup.
                for f in found {
                    let Some(positions) = src_positions.get(f.anchor()) else { continue };
                    let Hop::Edge(edge) = f.hop else { unreachable!("an edge hop decodes edges") };
                    let el = Element::Edge(edge);
                    if !edge_filter.matches(&el) {
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
                // Resolve the far endpoints of the whole hop at once, one
                // group per vertex-table hint (the edge table's declared
                // `dst_v_table`/`src_v_table`, or none): each vertex table
                // is read once per id chunk, however many edge tables and
                // directions led to it. With `filter.properties` empty the
                // read is the id semi-join that drops dangling edges.
                let mut need = IdGroups::default();
                for f in &found {
                    let Hop::Vertex { anchor, target } = &f.hop else {
                        unreachable!("a vertex hop decodes endpoint ids")
                    };
                    if !src_positions.contains_key(anchor) {
                        continue;
                    }
                    let et = &self.topo.edge_tables[f.et_idx];
                    need.add(if f.via_out { et.dst_v_table } else { et.src_v_table }, target);
                }
                // Each lookup fans out internally (table × chunk jobs), so
                // the group loop stays sequential: no nested fan-out.
                let mut resolved: HashMap<ElementId, Vertex> = HashMap::new();
                for (hint, ids) in need.groups {
                    resolved.extend(self.lookup_vertices(&ids, hint, filter)?);
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
        // table endpoint hint.
        let mut resolved: HashMap<ElementId, Vertex> = HashMap::new();
        let mut need = IdGroups::default();
        for (e, ids) in edges.iter().zip(&wanted) {
            let et_idx =
                e.provenance.as_deref().and_then(|t| self.topo.table_index(ElementKind::Edges, t));
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
                need.add(hint, id);
            }
        }
        for (hint, ids) in need.groups {
            resolved.extend(self.lookup_vertices(&ids, hint, filter)?);
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
