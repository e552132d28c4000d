//! The graph backend trait — TinkerPop's "graph structure API" with the
//! pushdown extensions Db2 Graph adds.
//!
//! The paper's Graph Structure module "extend\[s\] the basic API to carry out
//! more sophisticated functionalities (e.g. predicate, projection, and
//! aggregate pushdown) in response to the optimized query plans" (Section
//! 6.1). [`ElementFilter`] is that extension: strategies fold filter steps,
//! property projections, aggregates, and GraphStep::VertexStep id
//! constraints into it, and each backend implementation turns the filter
//! into whatever access it natively supports (SQL for the overlay backend,
//! adjacency probes for the native store, KV lookups for the Janus-like
//! store).

use std::borrow::{Borrow, Cow};

use crate::error::{GResult, GremlinError};
use crate::structure::{id_value, Edge, Element, ElementId, GValue, Vertex};

/// Which element set a graph-level step addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElementKind {
    Vertices,
    Edges,
}

/// Direction of a vertex step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Out,
    In,
    Both,
}

/// Which endpoint(s) an edge-to-vertex step retrieves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeEnd {
    /// `outV()`: the source vertex.
    Out,
    /// `inV()`: the destination vertex.
    In,
    /// `bothV()`: both endpoints.
    Both,
    /// `otherV()`: the endpoint other than the one traversed from.
    Other,
}

/// A property predicate pushed into the backend (from `has(...)` steps).
#[derive(Debug, Clone, PartialEq)]
pub struct PropPred {
    pub key: String,
    pub pred: Pred,
}

/// Predicate kinds (TinkerPop's `P`).
#[derive(Debug, Clone, PartialEq)]
pub enum Pred {
    Eq(GValue),
    Neq(GValue),
    Gt(GValue),
    Gte(GValue),
    Lt(GValue),
    Lte(GValue),
    Within(Vec<GValue>),
    Between(GValue, GValue),
    /// `has('key')` — the property must exist.
    Exists,
    /// `hasNot('key')` — the property must be absent.
    Absent,
}

impl Pred {
    /// Evaluate against a property value (`None` = property absent).
    pub fn test(&self, value: Option<&GValue>) -> bool {
        match self {
            Pred::Exists => value.is_some(),
            Pred::Absent => value.is_none(),
            _ => {
                let Some(v) = value else { return false };
                match self {
                    Pred::Eq(x) => v.compare(x) == Some(std::cmp::Ordering::Equal),
                    Pred::Neq(x) => {
                        matches!(v.compare(x), Some(o) if o != std::cmp::Ordering::Equal)
                    }
                    Pred::Gt(x) => matches!(v.compare(x), Some(std::cmp::Ordering::Greater)),
                    Pred::Gte(x) => {
                        matches!(v.compare(x), Some(o) if o != std::cmp::Ordering::Less)
                    }
                    Pred::Lt(x) => matches!(v.compare(x), Some(std::cmp::Ordering::Less)),
                    Pred::Lte(x) => {
                        matches!(v.compare(x), Some(o) if o != std::cmp::Ordering::Greater)
                    }
                    Pred::Within(set) => {
                        set.iter().any(|x| v.compare(x) == Some(std::cmp::Ordering::Equal))
                    }
                    Pred::Between(lo, hi) => {
                        matches!(v.compare(lo), Some(o) if o != std::cmp::Ordering::Less)
                            && matches!(v.compare(hi), Some(std::cmp::Ordering::Less))
                    }
                    Pred::Exists | Pred::Absent => unreachable!(),
                }
            }
        }
    }
}

/// Aggregates that can be pushed into a graph-level step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    Count,
    Sum,
    Mean,
    Min,
    Max,
}

/// The pushdown filter attached to graph-structure-accessing steps.
///
/// All fields are optional; an empty filter means "everything".
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ElementFilter {
    /// Restrict to these element ids (`g.V(ids)`).
    pub ids: Option<Vec<ElementId>>,
    /// Restrict to these labels (`hasLabel(...)` pushdown).
    pub labels: Option<Vec<String>>,
    /// Property predicates (`has(...)` pushdown).
    pub predicates: Vec<PropPred>,
    /// Property projection (`values(...)` pushdown): the backend may return
    /// only these properties on each element.
    pub projection: Option<Vec<String>>,
    /// Aggregate pushdown (`count()` etc.): the backend returns a single
    /// aggregate value instead of elements.
    pub aggregate: Option<AggOp>,
    /// For edges: restrict to edges whose source vertex id is in this set
    /// (produced by the GraphStep::VertexStep mutation strategy).
    pub src_ids: Option<Vec<ElementId>>,
    /// For edges: restrict to edges whose destination vertex id is in this
    /// set.
    pub dst_ids: Option<Vec<ElementId>>,
    /// The properties the steps after this one read of its elements (set
    /// by projection pushdown): `None` means all of them, `Some([])` only
    /// id and label. A read hint, not a constraint: a backend may return
    /// more, and only the SQL overlay narrows its reads by it.
    pub properties: Option<Vec<String>>,
    /// The steps after this one use at most its first `n` outputs (set by
    /// projection pushdown from a following `limit(n)` or `range(_, n)`).
    /// A read hint like `properties`: the step that set it still trims the
    /// output, so a backend may ignore it; the SQL overlay turns it into a
    /// per-table `LIMIT` on exact plans.
    pub first: Option<u64>,
}

impl ElementFilter {
    pub fn with_ids(ids: Vec<ElementId>) -> ElementFilter {
        ElementFilter { ids: Some(ids), ..Default::default() }
    }

    /// True when the filter constrains nothing (the read hints `properties`
    /// and `first` select no elements, so they do not count).
    pub fn is_empty(&self) -> bool {
        self.ids.is_none()
            && self.labels.is_none()
            && self.predicates.is_empty()
            && self.projection.is_none()
            && self.aggregate.is_none()
            && self.src_ids.is_none()
            && self.dst_ids.is_none()
    }

    /// Evaluate the filter's constraints (ids, labels, predicates and, for
    /// an edge, its endpoint ids) against an element; an endpoint
    /// constraint rejects every vertex. Backends that cannot push a filter
    /// natively call this to post-filter.
    pub fn matches(&self, e: Element) -> bool {
        let within = |ids: &Option<Vec<ElementId>>, id: &ElementId| {
            ids.as_ref().is_none_or(|ids| ids.contains(id))
        };
        let ends = match e {
            Element::Vertex(_) => self.src_ids.is_none() && self.dst_ids.is_none(),
            Element::Edge(edge) => {
                within(&self.src_ids, &edge.src) && within(&self.dst_ids, &edge.dst)
            }
        };
        ends && within(&self.ids, e.id())
            && self.labels.as_ref().is_none_or(|ls| ls.iter().any(|l| l == e.label()))
            && self.predicates.iter().all(|p| p.pred.test(element_property(e, &p.key).as_deref()))
    }
}

/// Resolve a property key against an element, treating `id` and `label` as
/// pseudo-properties like TinkerPop's `T.id`/`T.label`. A stored property
/// is borrowed; only the pseudo-properties build a value.
pub fn element_property<'a>(e: Element<'a>, key: &str) -> Option<Cow<'a, GValue>> {
    match key {
        "id" => Some(Cow::Owned(id_value(e.id()))),
        "label" => Some(Cow::Owned(GValue::Str(e.label().to_string()))),
        _ => e.properties().get(key).map(Cow::Borrowed),
    }
}

/// Apply the projection/aggregate parts of a filter to already-filtered
/// elements — the shared "finalize" for backends that post-process instead
/// of pushing these down natively (the in-memory reference backend and the
/// baseline stores; the SQL overlay backend pushes them into SQL instead). Returns what
/// [`GraphBackend::graph_elements`] returns: the elements, their projected
/// values, or the aggregate as one value. An aggregate fails as the step
/// form does, on a value it cannot take.
pub fn finalize_elements(elements: Vec<GValue>, filter: &ElementFilter) -> GResult<Vec<GValue>> {
    let Some(keys) = filter.projection.as_deref() else {
        return Ok(match filter.aggregate {
            Some(op) => Accumulator::fold(op, &elements)?.finish().into_iter().collect(),
            None => elements,
        });
    };
    let projected = elements
        .iter()
        .filter_map(GValue::as_element)
        .flat_map(|e| keys.iter().filter_map(move |k| e.properties().get(k)))
        .filter(|v| !matches!(v, GValue::Null));
    Ok(match filter.aggregate {
        Some(op) => Accumulator::fold(op, projected)?.finish().into_iter().collect(),
        None => projected.cloned().collect(),
    })
}

/// The one aggregate accumulator. The step form, the in-memory stores
/// and the SQL overlay's pushed-down partials all compute `count`, `sum`,
/// `mean`, `min` and `max` through it, so a pushed aggregate returns what
/// the step form returns.
///
/// `count` counts any value. The others take numbers only and fail on
/// anything else. Longs add exactly, in `i128`, and clamp to the long
/// range only in [`Accumulator::finish`]; a mean divides that exact sum.
/// Any double makes the result a double.
#[derive(Debug)]
pub struct Accumulator {
    op: AggOp,
    /// Values taken: every value for `count`, numbers for the others.
    n: i64,
    /// The sum of the longs, or for `min`/`max` the extreme long.
    int: i128,
    /// The sum of the doubles, or for `min`/`max` the extreme of every
    /// number as a double.
    float: f64,
    /// Whether a double was taken.
    double: bool,
}

impl Accumulator {
    pub fn new(op: AggOp) -> Accumulator {
        let (int, float) = match op {
            AggOp::Min => (i128::MAX, f64::INFINITY),
            AggOp::Max => (i128::MIN, f64::NEG_INFINITY),
            _ => (0, 0.0),
        };
        Accumulator { op, n: 0, int, float, double: false }
    }

    /// `op` over `values`.
    pub fn fold<V: Borrow<GValue>>(
        op: AggOp,
        values: impl IntoIterator<Item = V>,
    ) -> GResult<Accumulator> {
        let mut acc = Accumulator::new(op);
        values.into_iter().try_for_each(|v| acc.add(v.borrow()))?;
        Ok(acc)
    }

    /// Take one value.
    pub fn add(&mut self, v: &GValue) -> GResult<()> {
        self.add_partial(v, 1)
    }

    /// Take a partial aggregated elsewhere, as SQL computes one: `v` is the
    /// `SUM`, `MIN` or `MAX` of `n` values, and `count` reads `n` alone. A
    /// partial of no values (`n == 0`, where SQL returns NULL) adds nothing.
    pub fn add_partial(&mut self, v: &GValue, n: i64) -> GResult<()> {
        let empty = Accumulator::new(self.op);
        let part = match *v {
            _ if self.op == AggOp::Count || n == 0 => Accumulator { n, ..empty },
            GValue::Long(x) => {
                let float = match self.op {
                    AggOp::Min | AggOp::Max => x as f64,
                    _ => 0.0,
                };
                Accumulator { n, int: x.into(), float, ..empty }
            }
            GValue::Double(x) => Accumulator { n, float: x, double: true, ..empty },
            _ => {
                return Err(GremlinError::Execution(format!(
                    "numeric aggregate over non-numeric value {v}"
                )))
            }
        };
        self.merge(&part);
        Ok(())
    }

    /// Take another accumulator's state: another table's, say.
    pub fn merge(&mut self, other: &Accumulator) {
        match self.op {
            AggOp::Min => {
                self.int = self.int.min(other.int);
                self.float = self.float.min(other.float);
            }
            AggOp::Max => {
                self.int = self.int.max(other.int);
                self.float = self.float.max(other.float);
            }
            _ => {
                self.int += other.int;
                self.float += other.float;
            }
        }
        self.n += other.n;
        self.double |= other.double;
    }

    /// The aggregate, or `None` when it has no value: a sum, mean, min or
    /// max of no numbers.
    pub fn finish(&self) -> Option<GValue> {
        if self.op == AggOp::Count {
            return Some(GValue::Long(self.n));
        }
        if self.n == 0 {
            return None;
        }
        let total = self.float + self.int as f64;
        Some(match self.op {
            AggOp::Sum if !self.double => {
                GValue::Long(self.int.clamp(i64::MIN.into(), i64::MAX.into()) as i64)
            }
            AggOp::Sum => GValue::Double(total),
            AggOp::Mean => GValue::Double(total / self.n as f64),
            _ if self.double => GValue::Double(self.float),
            _ => GValue::Long(self.int as i64),
        })
    }
}

/// The graph structure API a provider implements.
///
/// Elements travel as `GValue::Vertex`/`GValue::Edge`, the traverser's own
/// form: a backend returns them owned and reads its inputs borrowed.
/// `adjacent` and `edge_endpoints` return results grouped per input element
/// so the traversal engine can keep traverser paths aligned.
pub trait GraphBackend: Send + Sync {
    /// `g.V(...)` / `g.E(...)`: fetch elements of a kind with pushdown. The
    /// result is the matching elements (with properties, possibly trimmed
    /// to the projection); with a projection, their projected property
    /// values, flattened per element in request order; with an aggregate,
    /// the aggregate as one value, or none when it has no value (a sum or
    /// mean over no numbers, say).
    fn graph_elements(&self, kind: ElementKind, filter: &ElementFilter) -> GResult<Vec<GValue>>;

    /// Adjacency: for each source vertex, its incident edges
    /// (`to == Edges`) or neighbouring vertices (`to == Vertices`) along
    /// `direction`, restricted to `edge_labels` (empty = all) and the
    /// result-element `filter`.
    fn adjacent(
        &self,
        sources: &[&Vertex],
        direction: Direction,
        edge_labels: &[String],
        to: ElementKind,
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<GValue>>>;

    /// For each edge, the requested endpoint vertex/vertices.
    /// `came_from`, when known, carries the vertex id each edge was reached
    /// from (needed by `otherV()`).
    fn edge_endpoints(
        &self,
        edges: &[&Edge],
        end: EdgeEnd,
        came_from: &[Option<&ElementId>],
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<GValue>>>;

    /// A short name for diagnostics.
    fn backend_name(&self) -> &str {
        "graph"
    }

    /// Data-independent explanation of how the backend would evaluate one
    /// step of a compiled plan — without touching any data. Backends that
    /// compile steps to a query language return per-table decisions and the
    /// query text here (one line per entry); the default (in-memory
    /// backends) has nothing to add beyond the step description.
    fn explain_step(&self, _step: &crate::step::Step) -> Vec<String> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_evaluation() {
        let v = GValue::Long(5);
        assert!(Pred::Eq(GValue::Long(5)).test(Some(&v)));
        assert!(Pred::Eq(GValue::Double(5.0)).test(Some(&v)));
        assert!(!Pred::Eq(GValue::Long(4)).test(Some(&v)));
        assert!(Pred::Neq(GValue::Long(4)).test(Some(&v)));
        assert!(Pred::Gt(GValue::Long(4)).test(Some(&v)));
        assert!(!Pred::Gt(GValue::Long(5)).test(Some(&v)));
        assert!(Pred::Gte(GValue::Long(5)).test(Some(&v)));
        assert!(Pred::Lt(GValue::Long(6)).test(Some(&v)));
        assert!(Pred::Within(vec![GValue::Long(1), GValue::Long(5)]).test(Some(&v)));
        assert!(Pred::Between(GValue::Long(5), GValue::Long(6)).test(Some(&v)));
        assert!(!Pred::Between(GValue::Long(6), GValue::Long(9)).test(Some(&v)));
        assert!(Pred::Exists.test(Some(&v)));
        assert!(!Pred::Exists.test(None));
        assert!(!Pred::Eq(GValue::Long(5)).test(None));
    }

    #[test]
    fn filter_matches_labels_ids_and_predicates() {
        let v = Vertex::new(1, "patient").with_property("name", "Alice");
        let e = Element::Vertex(&v);
        let mut f = ElementFilter::default();
        assert!(f.is_empty());
        assert!(f.matches(e));
        f.labels = Some(vec!["patient".into()]);
        assert!(f.matches(e));
        f.labels = Some(vec!["disease".into()]);
        assert!(!f.matches(e));
        f.labels = None;
        f.ids = Some(vec![ElementId::Long(2)]);
        assert!(!f.matches(e));
        f.ids = Some(vec![ElementId::Long(1)]);
        f.predicates
            .push(PropPred { key: "name".into(), pred: Pred::Eq(GValue::Str("Alice".into())) });
        assert!(f.matches(e));
        f.predicates.push(PropPred { key: "missing".into(), pred: Pred::Exists });
        assert!(!f.matches(e));
    }

    #[test]
    fn filter_src_dst_constraints_apply_to_edges_only() {
        let edge = Edge::new(1, "knows", 10, 20);
        let e = Element::Edge(&edge);
        let f = ElementFilter { src_ids: Some(vec![ElementId::Long(10)]), ..Default::default() };
        assert!(f.matches(e));
        let f = ElementFilter { src_ids: Some(vec![ElementId::Long(99)]), ..Default::default() };
        assert!(!f.matches(e));
        let f = ElementFilter { dst_ids: Some(vec![ElementId::Long(20)]), ..Default::default() };
        assert!(f.matches(e));
        let v = Vertex::new(10, "x");
        assert!(!f.matches(Element::Vertex(&v)));
    }

    #[test]
    fn accumulator_merges_and_partials_equal_one_fold() {
        let values = [GValue::Long(i64::MAX), GValue::Long(-3), GValue::Double(0.5)];
        for op in [AggOp::Count, AggOp::Sum, AggOp::Mean, AggOp::Min, AggOp::Max] {
            let whole = Accumulator::fold(op, &values).unwrap().finish();
            let mut split = Accumulator::fold(op, &values[..1]).unwrap();
            split.merge(&Accumulator::fold(op, &values[1..]).unwrap());
            assert_eq!(split.finish(), whole, "{op:?}");
            // SQL's NULL over no values adds nothing.
            split.add_partial(&GValue::Null, 0).unwrap();
            assert_eq!(split.finish(), whole, "{op:?}");
        }
        // Two longs summed in SQL: one partial of two values.
        let mut mean = Accumulator::new(AggOp::Mean);
        mean.add_partial(&GValue::Long(10), 2).unwrap();
        assert_eq!(mean.finish(), Some(GValue::Double(5.0)));
        // A mixed min is a double; a string fails every numeric aggregate.
        let min = Accumulator::fold(AggOp::Min, &values[1..]).unwrap();
        assert_eq!(min.finish(), Some(GValue::Double(-3.0)));
        let word = GValue::Str("x".into());
        assert!(Accumulator::new(AggOp::Max).add(&word).is_err());
        assert_eq!(
            Accumulator::fold(AggOp::Count, [&word]).unwrap().finish(),
            Some(GValue::Long(1))
        );
        assert_eq!(Accumulator::new(AggOp::Sum).finish(), None);
    }

    #[test]
    fn pseudo_properties() {
        let v = Vertex::new(3, "thing").with_property("a", 1i64);
        let v = Element::Vertex(&v);
        let get = |key| element_property(v, key).map(Cow::into_owned);
        assert_eq!(get("id"), Some(GValue::Long(3)));
        assert_eq!(get("label"), Some(GValue::Str("thing".into())));
        assert_eq!(get("a"), Some(GValue::Long(1)));
        assert!(matches!(element_property(v, "a"), Some(Cow::Borrowed(_))));
        assert_eq!(get("zz"), None);
    }
}
