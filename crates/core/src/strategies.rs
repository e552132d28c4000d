//! The optimized traversal strategies of Section 6.2.
//!
//! These are *data-independent* plan rewrites applied at query compile time
//! through the provider strategy API:
//!
//! * **Predicate pushdown with filter steps** — `has(...)` steps following
//!   a GSA step fold into the step's `ElementFilter` and become SQL `WHERE`
//!   conjuncts.
//! * **Projection pushdown with properties steps** — a `values(...)` step
//!   immediately after a GraphStep sets the step's projection, shrinking
//!   the SQL select list to exactly the needed columns. The same strategy
//!   records on each GSA step which properties the steps after it read
//!   (`ElementFilter::properties`): a hop into `count()`, `id()`,
//!   `label()` or another hop reads ids only, so its vertex lookup
//!   selects the id column alone. A GraphStep followed directly by
//!   `limit(n)` or `range(_, n)` also records that read bound
//!   (`ElementFilter::first`), which exact table reads turn into a SQL
//!   `LIMIT`; the `limit`/`range` step stays and trims the union across
//!   tables.
//! * **Aggregate pushdown with aggregation steps** — `count()`/`sum()`/...
//!   after a GraphStep turns into `SELECT COUNT(*)`/`SUM(col)` in SQL.
//! * **GraphStep::VertexStep mutation** — `g.V(ids).outE()` drops the
//!   useless vertex-table scan and becomes a GraphStep over *edges* with
//!   `src_v IN (ids)`; `g.V(ids).out()` additionally appends the
//!   `EdgeVertexStep` that resolves destination vertices.
//!
//! Each strategy can be disabled independently (the Figure 4 ablation).

use std::borrow::Cow;

use gremlin::structure::value_to_id;
use gremlin::{
    AggOp, Direction, EdgeEnd, EdgeVertexStep, ElementKind, GraphStep, Pred, Step, Traversal,
    TraversalStrategy,
};

use crate::graph_structure::selected_keys;

/// Which optimized strategies to enable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyConfig {
    pub(crate) graphstep_vertexstep_mutation: bool,
    pub(crate) predicate_pushdown: bool,
    pub(crate) projection_pushdown: bool,
    pub(crate) aggregate_pushdown: bool,
}

impl Default for StrategyConfig {
    fn default() -> Self {
        StrategyConfig {
            graphstep_vertexstep_mutation: true,
            predicate_pushdown: true,
            projection_pushdown: true,
            aggregate_pushdown: true,
        }
    }
}

impl StrategyConfig {
    /// All strategies off — the Figure 4 baseline.
    pub fn none() -> StrategyConfig {
        StrategyConfig {
            graphstep_vertexstep_mutation: false,
            predicate_pushdown: false,
            projection_pushdown: false,
            aggregate_pushdown: false,
        }
    }

    /// Build the strategy list in the paper's application order: mutation
    /// first, then predicate pushdown, then projection, then aggregate
    /// (Section 6.2's combined example).
    pub fn build(&self) -> Vec<std::sync::Arc<dyn TraversalStrategy>> {
        let mut out: Vec<std::sync::Arc<dyn TraversalStrategy>> = Vec::new();
        if self.graphstep_vertexstep_mutation {
            out.push(std::sync::Arc::new(GraphStepVertexStepMutation));
        }
        if self.predicate_pushdown {
            out.push(std::sync::Arc::new(PredicatePushdown));
        }
        if self.projection_pushdown {
            out.push(std::sync::Arc::new(ProjectionPushdown));
        }
        if self.aggregate_pushdown {
            out.push(std::sync::Arc::new(AggregatePushdown));
        }
        out
    }
}

// ------------------------------------------------------ predicate pushdown

/// Fold `has(...)` filter steps into the preceding GSA step's filter.
pub(crate) struct PredicatePushdown;

impl TraversalStrategy for PredicatePushdown {
    fn name(&self) -> &str {
        "PredicatePushdown"
    }

    fn apply(&self, traversal: &mut Traversal) {
        let mut out: Vec<Step> = Vec::with_capacity(traversal.steps.len());
        for step in traversal.steps.drain(..) {
            match step {
                Step::Has(preds) => {
                    // Find the filter of the immediately preceding GSA step.
                    let target = match out.last_mut() {
                        Some(Step::Graph(g)) => Some(&mut g.filter),
                        Some(Step::Vertex(v)) => Some(&mut v.filter),
                        Some(Step::EdgeVertex(e)) => Some(&mut e.filter),
                        _ => None,
                    };
                    match target {
                        None => out.push(Step::Has(preds)),
                        Some(filter) => {
                            for p in preds {
                                match (p.key.as_str(), &p.pred) {
                                    // hasLabel folds into the labels set.
                                    ("label", Pred::Within(vals)) => {
                                        let labels: Vec<String> =
                                            vals.iter().map(|v| v.to_string()).collect();
                                        merge_labels(&mut filter.labels, labels);
                                    }
                                    ("label", Pred::Eq(v)) => {
                                        merge_labels(&mut filter.labels, vec![v.to_string()]);
                                    }
                                    // hasId folds into the ids set.
                                    ("id", Pred::Within(vals)) => {
                                        let ids: Vec<_> =
                                            vals.iter().filter_map(value_to_id).collect();
                                        merge_ids(&mut filter.ids, ids);
                                    }
                                    ("id", Pred::Eq(v)) => {
                                        if let Some(id) = value_to_id(v) {
                                            merge_ids(&mut filter.ids, vec![id]);
                                        }
                                    }
                                    _ => filter.predicates.push(p),
                                }
                            }
                        }
                    }
                }
                Step::Filter(spec) => {
                    // Fold `filter(inV().id() == X)` / `filter(outV().id()
                    // == X)` after an edge-producing GSA step into a
                    // dst/src id constraint — the Table 1 getLink shape.
                    // (Assumes referentially intact edges: an edge whose
                    // endpoint row is missing would be kept rather than
                    // dropped, but such edges cannot express the filter's
                    // comparison anyway.)
                    let folded = try_fold_endpoint_filter(&mut out, &spec);
                    if !folded {
                        out.push(Step::Filter(spec));
                    }
                }
                other => out.push(other),
            }
        }
        traversal.steps = out;
    }
}

/// Attempt to fold an endpoint-id comparison filter into the preceding
/// edge-producing GSA step. Returns true when folded.
fn try_fold_endpoint_filter(out: &mut [Step], spec: &gremlin::FilterSpec) -> bool {
    use gremlin::CompareOp;
    let Some((CompareOp::Eq, value)) = &spec.compare else { return false };
    let Some(id) = value_to_id(value) else { return false };
    // The sub-traversal must be exactly endpoint -> id().
    let end = match spec.traversal.steps.as_slice() {
        [Step::EdgeVertex(ev), Step::Id] if ev.filter.is_empty() => ev.end,
        _ => return false,
    };
    let produces_edges = |s: &Step| match s {
        Step::Graph(g) => g.kind == ElementKind::Edges,
        Step::Vertex(v) => v.to == ElementKind::Edges,
        _ => false,
    };
    let Some(last) = out.last_mut() else { return false };
    if !produces_edges(last) {
        return false;
    }
    let filter = match last {
        Step::Graph(g) => &mut g.filter,
        Step::Vertex(v) => &mut v.filter,
        _ => unreachable!("produces_edges checked"),
    };
    match end {
        EdgeEnd::In => merge_ids(&mut filter.dst_ids, vec![id]),
        EdgeEnd::Out => merge_ids(&mut filter.src_ids, vec![id]),
        _ => return false,
    }
    true
}

fn merge_labels(slot: &mut Option<Vec<String>>, labels: Vec<String>) {
    match slot {
        None => *slot = Some(labels),
        Some(existing) => {
            // Intersection: both constraints must hold.
            existing.retain(|l| labels.contains(l));
        }
    }
}

fn merge_ids(slot: &mut Option<Vec<gremlin::ElementId>>, ids: Vec<gremlin::ElementId>) {
    match slot {
        None => *slot = Some(ids),
        Some(existing) => existing.retain(|i| ids.contains(i)),
    }
}

// ----------------------------------------------------- projection pushdown

/// Fold a `values(keys)` step immediately following a GraphStep into the
/// step's projection, so SQL selects only those columns; then record on
/// every GSA step which properties the steps after it read
/// ([`ElementFilter::properties`]), so its table reads select only those.
pub(crate) struct ProjectionPushdown;

impl TraversalStrategy for ProjectionPushdown {
    fn name(&self) -> &str {
        "ProjectionPushdown"
    }

    fn apply(&self, traversal: &mut Traversal) {
        fold_values(traversal);
        // A path holds whole elements of every step it passes.
        if !traversal.needs_paths() {
            record_reads(&mut traversal.steps);
        }
    }

    /// A nested traversal's elements can reach the enclosing traversal's
    /// path, so only the `values` fold applies there.
    fn apply_nested(&self, traversal: &mut Traversal) {
        fold_values(traversal);
    }
}

fn fold_values(traversal: &mut Traversal) {
    let mut out: Vec<Step> = Vec::with_capacity(traversal.steps.len());
    for step in traversal.steps.drain(..) {
        match step {
            Step::Values(keys) if !keys.is_empty() => {
                if let Some(Step::Graph(g)) = out.last_mut() {
                    if g.filter.projection.is_none() && g.filter.aggregate.is_none() {
                        g.filter.projection = Some(keys);
                        continue;
                    }
                }
                out.push(Step::Values(keys));
            }
            other => out.push(other),
        }
    }
    traversal.steps = out;
}

/// Set `properties` on each GraphStep without projection or aggregate,
/// each VertexStep that returns vertices and each EdgeVertexStep, from
/// the steps after it; on such a GraphStep also set `first` when the next
/// step is a `limit`/`range`. Runs back to front, so an EdgeVertexStep's
/// set is known when the step before it asks.
fn record_reads(steps: &mut [Step]) {
    for i in (0..steps.len()).rev() {
        let (head, rest) = steps.split_at_mut(i + 1);
        let filter = match &mut head[i] {
            Step::Graph(g) if g.filter.projection.is_none() && g.filter.aggregate.is_none() => {
                g.filter.first = match rest.first() {
                    Some(Step::Limit(n) | Step::Range(_, n)) => Some(*n),
                    _ => None,
                };
                &mut g.filter
            }
            Step::Vertex(v) if v.to == ElementKind::Vertices => &mut v.filter,
            Step::EdgeVertex(e) => &mut e.filter,
            _ => continue,
        };
        filter.properties = reads(rest);
    }
}

/// Which properties `rest` reads of the elements entering it: `Some(keys)`
/// when only those (besides id and label) on a whitelist of steps,
/// `None` when any may be read.
fn reads(rest: &[Step]) -> Option<Vec<String>> {
    for step in rest {
        match step {
            Step::Dedup | Step::Limit(_) | Step::Range(..) => continue,
            Step::Vertex(_) | Step::Aggregate(AggOp::Count) | Step::Id | Step::Label => {
                return Some(Vec::new())
            }
            Step::Values(keys) if !keys.is_empty() => return Some(keys.clone()),
            // `vertex_from_edge` may build the endpoint from the edge's
            // properties, so an edge carries what its endpoint's read
            // selects: the keys later steps read and those its own
            // predicates test.
            Step::EdgeVertex(e) => return selected_keys(&e.filter).map(Cow::into_owned),
            _ => return None,
        }
    }
    None
}

// ------------------------------------------------------ aggregate pushdown

/// Fold a global aggregate step immediately following a GraphStep into the
/// step's filter so the backend issues `SELECT COUNT(*)` / `SUM(col)` /
/// etc. instead of fetching elements.
pub(crate) struct AggregatePushdown;

impl TraversalStrategy for AggregatePushdown {
    fn name(&self) -> &str {
        "AggregatePushdown"
    }

    fn apply(&self, traversal: &mut Traversal) {
        let mut out: Vec<Step> = Vec::with_capacity(traversal.steps.len());
        for step in traversal.steps.drain(..) {
            match step {
                Step::Aggregate(op) => {
                    if let Some(Step::Graph(g)) = out.last_mut() {
                        let can_push = match op {
                            AggOp::Count => true,
                            // sum/mean/min/max need a pushed projection to
                            // know which column to aggregate.
                            _ => g.filter.projection.is_some(),
                        };
                        if can_push && g.filter.aggregate.is_none() {
                            g.filter.aggregate = Some(op);
                            continue;
                        }
                    }
                    out.push(Step::Aggregate(op));
                }
                other => out.push(other),
            }
        }
        traversal.steps = out;
    }
}

// ------------------------------------------- GraphStep::VertexStep mutation

/// Rewrite `GraphStep(V, ids-only) -> VertexStep` into a single GraphStep
/// over edges with a src/dst id constraint, eliminating the pointless
/// vertex-table query (Section 6.2).
pub(crate) struct GraphStepVertexStepMutation;

impl TraversalStrategy for GraphStepVertexStepMutation {
    fn name(&self) -> &str {
        "GraphStepVertexStepMutation"
    }

    fn apply(&self, traversal: &mut Traversal) {
        let steps = std::mem::take(&mut traversal.steps);
        let mut out: Vec<Step> = Vec::with_capacity(steps.len());
        let mut iter = steps.into_iter().peekable();
        while let Some(step) = iter.next() {
            let applicable = match &step {
                Step::Graph(g) => {
                    g.kind == ElementKind::Vertices
                        && g.filter.ids.is_some()
                        && g.filter.labels.is_none()
                        && g.filter.predicates.is_empty()
                        && g.filter.projection.is_none()
                        && g.filter.aggregate.is_none()
                }
                _ => false,
            };
            if applicable {
                if let Some(Step::Vertex(v)) = iter.peek() {
                    // Only Out and In have a single-sided id constraint.
                    if matches!(v.direction, Direction::Out | Direction::In) {
                        let ids = match &step {
                            Step::Graph(g) => g.filter.ids.clone().unwrap(),
                            _ => unreachable!(),
                        };
                        let v = match iter.next() {
                            Some(Step::Vertex(v)) => v,
                            _ => unreachable!(),
                        };
                        let mut filter = v.filter.clone();
                        match v.direction {
                            Direction::Out => filter.src_ids = Some(ids),
                            Direction::In => filter.dst_ids = Some(ids),
                            Direction::Both => unreachable!(),
                        }
                        if !v.edge_labels.is_empty() {
                            merge_labels(&mut filter.labels, v.edge_labels.clone());
                        }
                        out.push(Step::Graph(GraphStep { kind: ElementKind::Edges, filter }));
                        // out()/in() need the endpoint vertices afterwards.
                        if v.to == ElementKind::Vertices {
                            let end = match v.direction {
                                Direction::Out => EdgeEnd::In,
                                Direction::In => EdgeEnd::Out,
                                Direction::Both => unreachable!(),
                            };
                            out.push(Step::EdgeVertex(EdgeVertexStep {
                                end,
                                filter: Default::default(),
                            }));
                        }
                        continue;
                    }
                }
            }
            out.push(step);
        }
        traversal.steps = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gremlin::structure::{ElementId, GValue};
    use gremlin::{AggOp, ElementFilter, PropPred, StrategyRegistry, VertexStep};

    fn apply(config: StrategyConfig, mut t: Traversal) -> Traversal {
        let mut reg = StrategyRegistry::new();
        for s in config.build() {
            reg.add(s);
        }
        reg.apply_all(&mut t);
        t
    }

    fn graph_v_ids(ids: Vec<i64>) -> Step {
        Step::Graph(GraphStep {
            kind: ElementKind::Vertices,
            filter: ElementFilter::with_ids(ids.into_iter().map(ElementId::Long).collect()),
        })
    }

    fn out_e(labels: Vec<&str>) -> Step {
        Step::Vertex(VertexStep {
            direction: Direction::Out,
            edge_labels: labels.into_iter().map(str::to_string).collect(),
            to: ElementKind::Edges,
            filter: ElementFilter::default(),
        })
    }

    #[test]
    fn predicate_pushdown_folds_has_into_graphstep() {
        // g.V().hasLabel('patient').has('name','Alice')
        let t = Traversal::new(vec![
            Step::Graph(GraphStep { kind: ElementKind::Vertices, filter: Default::default() }),
            Step::Has(vec![PropPred {
                key: "label".into(),
                pred: Pred::Within(vec![GValue::Str("patient".into())]),
            }]),
            Step::Has(vec![PropPred {
                key: "name".into(),
                pred: Pred::Eq(GValue::Str("Alice".into())),
            }]),
        ]);
        let t = apply(StrategyConfig::default(), t);
        assert_eq!(t.steps.len(), 1);
        match &t.steps[0] {
            Step::Graph(g) => {
                assert_eq!(g.filter.labels, Some(vec!["patient".to_string()]));
                assert_eq!(g.filter.predicates.len(), 1);
                assert_eq!(g.filter.predicates[0].key, "name");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn has_id_folds_into_ids() {
        let t = Traversal::new(vec![
            Step::Graph(GraphStep { kind: ElementKind::Vertices, filter: Default::default() }),
            Step::Has(vec![PropPred {
                key: "id".into(),
                pred: Pred::Within(vec![GValue::Long(1), GValue::Long(2)]),
            }]),
        ]);
        let t = apply(StrategyConfig::default(), t);
        match &t.steps[0] {
            Step::Graph(g) => {
                assert_eq!(g.filter.ids, Some(vec![ElementId::Long(1), ElementId::Long(2)]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn projection_and_aggregate_pushdown() {
        // g.V().values('w').sum()
        let t = Traversal::new(vec![
            Step::Graph(GraphStep { kind: ElementKind::Vertices, filter: Default::default() }),
            Step::Values(vec!["w".into()]),
            Step::Aggregate(AggOp::Sum),
        ]);
        let t = apply(StrategyConfig::default(), t);
        assert_eq!(t.steps.len(), 1);
        match &t.steps[0] {
            Step::Graph(g) => {
                assert_eq!(g.filter.projection, Some(vec!["w".to_string()]));
                assert_eq!(g.filter.aggregate, Some(AggOp::Sum));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn sum_without_projection_stays_in_engine() {
        // g.V().count() pushes; g.V().sum() (nonsensical but legal) doesn't.
        let t = Traversal::new(vec![
            Step::Graph(GraphStep { kind: ElementKind::Vertices, filter: Default::default() }),
            Step::Aggregate(AggOp::Sum),
        ]);
        let t = apply(StrategyConfig::default(), t);
        assert_eq!(t.steps.len(), 2);
    }

    #[test]
    fn graphstep_vertexstep_mutation_oute() {
        // g.V(ids).outE('l') -> Graph(E, src_ids, labels=['l'])
        let t = Traversal::new(vec![graph_v_ids(vec![1, 2]), out_e(vec!["l"])]);
        let t = apply(StrategyConfig::default(), t);
        assert_eq!(t.steps.len(), 1);
        match &t.steps[0] {
            Step::Graph(g) => {
                assert_eq!(g.kind, ElementKind::Edges);
                assert_eq!(g.filter.src_ids, Some(vec![ElementId::Long(1), ElementId::Long(2)]));
                assert_eq!(g.filter.labels, Some(vec!["l".to_string()]));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn graphstep_vertexstep_mutation_out_adds_edge_vertex() {
        // g.V(ids).out() -> Graph(E, src_ids) + EdgeVertex(In)
        let t = Traversal::new(vec![
            graph_v_ids(vec![7]),
            Step::Vertex(VertexStep {
                direction: Direction::Out,
                edge_labels: vec![],
                to: ElementKind::Vertices,
                filter: ElementFilter::default(),
            }),
        ]);
        let t = apply(StrategyConfig::default(), t);
        assert_eq!(t.steps.len(), 2);
        assert!(matches!(&t.steps[0], Step::Graph(g) if g.kind == ElementKind::Edges));
        assert!(matches!(&t.steps[1], Step::EdgeVertex(e) if e.end == EdgeEnd::In));
        // in() mirrors to dst_ids + EdgeVertex(Out).
        let t = Traversal::new(vec![
            graph_v_ids(vec![7]),
            Step::Vertex(VertexStep {
                direction: Direction::In,
                edge_labels: vec![],
                to: ElementKind::Vertices,
                filter: ElementFilter::default(),
            }),
        ]);
        let t = apply(StrategyConfig::default(), t);
        assert!(matches!(&t.steps[0], Step::Graph(g) if g.filter.dst_ids.is_some()));
        assert!(matches!(&t.steps[1], Step::EdgeVertex(e) if e.end == EdgeEnd::Out));
    }

    #[test]
    fn mutation_skipped_for_both_and_non_id_graphsteps() {
        let t = Traversal::new(vec![
            graph_v_ids(vec![1]),
            Step::Vertex(VertexStep {
                direction: Direction::Both,
                edge_labels: vec![],
                to: ElementKind::Edges,
                filter: ElementFilter::default(),
            }),
        ]);
        let t = apply(StrategyConfig::default(), t);
        assert_eq!(t.steps.len(), 2); // unchanged
                                      // GraphStep without ids is not mutated.
        let t = Traversal::new(vec![
            Step::Graph(GraphStep { kind: ElementKind::Vertices, filter: Default::default() }),
            out_e(vec![]),
        ]);
        let t = apply(StrategyConfig::default(), t);
        assert_eq!(t.steps.len(), 2);
    }

    #[test]
    fn combined_paper_example() {
        // g.V(ids).outE().has('metIn','US').count()
        //   -> one GraphStep(E, src_ids, pred, agg=Count)
        let t = Traversal::new(vec![
            graph_v_ids(vec![1, 2, 3]),
            out_e(vec![]),
            Step::Has(vec![PropPred {
                key: "metIn".into(),
                pred: Pred::Eq(GValue::Str("US".into())),
            }]),
            Step::Aggregate(AggOp::Count),
        ]);
        let t = apply(StrategyConfig::default(), t);
        assert_eq!(t.steps.len(), 1, "{}", t.describe());
        match &t.steps[0] {
            Step::Graph(g) => {
                assert_eq!(g.kind, ElementKind::Edges);
                assert!(g.filter.src_ids.is_some());
                assert_eq!(g.filter.predicates.len(), 1);
                assert_eq!(g.filter.aggregate, Some(AggOp::Count));
            }
            other => panic!("{other:?}"),
        }
    }

    /// The step plan of `gremlin` before any strategy.
    fn compile(gremlin: &str) -> Traversal {
        let graph = gremlin::memgraph::MemGraph::new();
        gremlin::ScriptRunner::new(&graph).plan(gremlin).unwrap()
    }

    /// Each GSA step of `gremlin` after `config`'s strategies, as
    /// `description: reads`, where reads is `*` for every property and
    /// otherwise the recorded keys joined by commas (empty for ids only).
    fn reads_of(config: StrategyConfig, gremlin: &str) -> Vec<String> {
        apply(config, compile(gremlin))
            .steps
            .iter()
            .filter_map(|s| {
                let filter = match s {
                    Step::Graph(g) => &g.filter,
                    Step::Vertex(v) => &v.filter,
                    Step::EdgeVertex(e) => &e.filter,
                    _ => return None,
                };
                let reads = filter.properties.as_ref().map_or("*".into(), |keys| keys.join(","));
                Some(format!("{}: {reads}", s.describe()))
            })
            .collect()
    }

    #[test]
    fn projection_pushdown_records_what_later_steps_read() {
        let cases: &[(&str, &[&str])] = &[
            // A hop into a count, id, label or a next hop reads ids only;
            // the final hop's elements are the answer.
            (
                "g.V(1).out().out().count()",
                &["Graph(E|src_ids): ", "EdgeVertex(In): ", "Vertex(out): "],
            ),
            ("g.V(1).out().out()", &["Graph(E|src_ids): ", "EdgeVertex(In): ", "Vertex(out): *"]),
            (
                "g.V().hasLabel('a').out().dedup().limit(2).label()",
                &["Graph(V|labels): ", "Vertex(out): "],
            ),
            // values(k) reads k; an edge carries what its endpoint step
            // reads, since the endpoint may be built from the edge.
            (
                "g.V(1).out().out().values('data')",
                &["Graph(E|src_ids): ", "EdgeVertex(In): ", "Vertex(out): data"],
            ),
            ("g.V(1).out().values('data')", &["Graph(E|src_ids): data", "EdgeVertex(In): data"]),
            ("g.V(1).outE().inV().id()", &["Graph(E|src_ids): ", "EdgeVertex(In): "]),
            // The endpoint's own predicates read their keys too, so the
            // edge before it carries them.
            (
                "g.V(1).out().has('total', gt(50)).count()",
                &["Graph(E|src_ids): total", "EdgeVertex(In): "],
            ),
            (
                "g.V(1).outE().inV().has('total', gt(50)).values('w')",
                &["Graph(E|src_ids): w,total", "EdgeVertex(In): w"],
            ),
            ("g.V(1).outE()", &["Graph(E|src_ids): *"]),
            // Anything off the whitelist, and any traversal with a path,
            // reads everything.
            (
                "g.V(1).out().order().by('time').limit(3).id()",
                &["Graph(E|src_ids): *", "EdgeVertex(In): *"],
            ),
            (
                "g.V(1).out().out().path()",
                &["Graph(E|src_ids): *", "EdgeVertex(In): *", "Vertex(out): *"],
            ),
            (
                "g.V().as('a').out().out().select('a')",
                &["Graph(V): *", "Vertex(out): ", "Vertex(out): *"],
            ),
            // A projected or aggregated GraphStep selects its own columns.
            ("g.V().values('name')", &["Graph(V|proj): *"]),
            ("g.V().values('w').sum()", &["Graph(V|proj+agg): *"]),
        ];
        for (gremlin, expected) in cases {
            assert_eq!(reads_of(StrategyConfig::default(), gremlin), *expected, "{gremlin}");
        }
        // With projection pushdown off (the Figure 4 ablation) nothing is
        // recorded.
        let config = StrategyConfig { projection_pushdown: false, ..Default::default() };
        assert_eq!(
            reads_of(config, "g.V(1).out().out().count()"),
            ["Graph(E|src_ids): *", "EdgeVertex(In): *", "Vertex(out): *"]
        );
    }

    #[test]
    fn projection_pushdown_bounds_a_graphstep_read_by_the_next_limit() {
        let first_of = |config: StrategyConfig, gremlin: &str| match apply(config, compile(gremlin))
            .steps
            .first()
        {
            Some(Step::Graph(g)) => g.filter.first,
            other => panic!("{gremlin}: {other:?}"),
        };
        let first = |gremlin: &str| first_of(StrategyConfig::default(), gremlin);
        assert_eq!(first("g.V().limit(2)"), Some(2));
        assert_eq!(first("g.V().hasLabel('a').has('w', 3).range(1, 5).values('w')"), Some(5));
        assert_eq!(first("g.E().range(4, 2)"), Some(2));
        // -1 compiles to u64::MAX, which the SQL overlay leaves unbounded.
        assert_eq!(first("g.V().limit(-1)"), Some(u64::MAX));
        // Only a limit right after the GraphStep, on its elements.
        for gremlin in [
            "g.V()",
            "g.V().values('w').limit(1)",
            "g.V().dedup().limit(1)",
            "g.V().order().by('w').limit(1)",
            "g.V().out().limit(1)",
            "g.V().as('a').limit(1).select('a')",
        ] {
            assert_eq!(first(gremlin), None, "{gremlin}");
        }
        let config = StrategyConfig { projection_pushdown: false, ..Default::default() };
        assert_eq!(first_of(config, "g.V().limit(2)"), None);
    }

    #[test]
    fn nested_traversals_record_no_reads() {
        // A repeat body's elements reach the enclosing path, so its hops
        // keep whole elements even where the body alone would not need them.
        let t = compile("g.V(1).repeat(out().out()).times(2).path()");
        let t = apply(StrategyConfig::default(), t);
        let Some(Step::Repeat { body, .. }) = t.steps.get(1) else { panic!("{}", t.describe()) };
        assert_eq!(body.steps.len(), 2, "{}", body.describe());
        for step in &body.steps {
            let Step::Vertex(v) = step else { panic!("{}", body.describe()) };
            assert_eq!(v.filter.properties, None, "{}", body.describe());
        }
    }

    #[test]
    fn disabled_strategies_leave_plan_alone() {
        let t = Traversal::new(vec![
            graph_v_ids(vec![1]),
            out_e(vec![]),
            Step::Has(vec![PropPred { key: "x".into(), pred: Pred::Eq(GValue::Long(1)) }]),
            Step::Aggregate(AggOp::Count),
        ]);
        let before = t.clone();
        let t = apply(StrategyConfig::none(), t);
        assert_eq!(t, before);
    }
}
