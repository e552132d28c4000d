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

use crate::error::GResult;
use crate::structure::{Edge, Element, ElementId, GValue, Properties, Vertex};

/// Which element set a graph-level step addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

    /// Evaluate the non-structural parts (labels + predicates) against an
    /// element. Backends that cannot push a filter natively call this to
    /// post-filter.
    pub fn matches(&self, e: &Element) -> bool {
        match e {
            Element::Vertex(v) => self.matches_vertex(v),
            Element::Edge(edge) => self.matches_edge(edge),
        }
    }

    /// [`Self::matches`] for a borrowed vertex: an endpoint constraint
    /// rejects every vertex.
    pub(crate) fn matches_vertex(&self, v: &Vertex) -> bool {
        self.src_ids.is_none()
            && self.dst_ids.is_none()
            && self.matches_parts(&v.id, &v.label, &v.properties)
    }

    /// [`Self::matches`] for a borrowed edge.
    pub(crate) fn matches_edge(&self, e: &Edge) -> bool {
        let within = |ids: &Option<Vec<ElementId>>, end: &ElementId| {
            ids.as_ref().is_none_or(|ids| ids.contains(end))
        };
        within(&self.src_ids, &e.src)
            && within(&self.dst_ids, &e.dst)
            && self.matches_parts(&e.id, &e.label, &e.properties)
    }

    fn matches_parts(&self, id: &ElementId, label: &str, properties: &Properties) -> bool {
        self.ids.as_ref().is_none_or(|ids| ids.contains(id))
            && self.labels.as_ref().is_none_or(|ls| ls.iter().any(|l| l == label))
            && self
                .predicates
                .iter()
                .all(|p| p.pred.test(property_of(id, label, properties, &p.key).as_ref()))
    }
}

/// Resolve a property key against an element, treating `id` and `label` as
/// pseudo-properties like TinkerPop's `T.id`/`T.label`.
pub fn element_property(e: &Element, key: &str) -> Option<GValue> {
    property_of(e.id(), e.label(), e.properties(), key)
}

fn property_of(id: &ElementId, label: &str, properties: &Properties, key: &str) -> Option<GValue> {
    match key {
        "id" => Some(crate::structure::id_value(id)),
        "label" => Some(GValue::Str(label.to_string())),
        _ => properties.get(key).cloned(),
    }
}

/// Apply the projection/aggregate parts of a filter to already-filtered
/// elements — the shared "finalize" for backends that post-process instead
/// of pushing these down natively (the in-memory reference backend and the
/// baseline stores; the SQL overlay backend pushes them into SQL instead).
pub fn finalize_elements(elements: Vec<Element>, filter: &ElementFilter) -> BackendOutput {
    if let Some(op) = filter.aggregate {
        if op == AggOp::Count && filter.projection.is_none() {
            return BackendOutput::Aggregate(GValue::Long(elements.len() as i64));
        }
        let keys = filter.projection.clone().unwrap_or_default();
        let mut nums: Vec<f64> = Vec::new();
        let mut all_long = true;
        let mut count = 0i64;
        for e in &elements {
            for k in &keys {
                if let Some(v) = e.properties().get(k) {
                    count += 1;
                    match v {
                        GValue::Long(x) => nums.push(*x as f64),
                        GValue::Double(x) => {
                            all_long = false;
                            nums.push(*x);
                        }
                        _ => {}
                    }
                }
            }
        }
        if op == AggOp::Count {
            return BackendOutput::Aggregate(GValue::Long(count));
        }
        if nums.is_empty() {
            return BackendOutput::Elements(Vec::new());
        }
        let v = match op {
            AggOp::Sum => {
                let s: f64 = nums.iter().sum();
                if all_long {
                    GValue::Long(s as i64)
                } else {
                    GValue::Double(s)
                }
            }
            AggOp::Mean => GValue::Double(nums.iter().sum::<f64>() / nums.len() as f64),
            AggOp::Min => {
                let m = nums.iter().cloned().fold(f64::INFINITY, f64::min);
                if all_long {
                    GValue::Long(m as i64)
                } else {
                    GValue::Double(m)
                }
            }
            AggOp::Max => {
                let m = nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                if all_long {
                    GValue::Long(m as i64)
                } else {
                    GValue::Double(m)
                }
            }
            AggOp::Count => unreachable!(),
        };
        return BackendOutput::Aggregate(v);
    }
    if let Some(keys) = &filter.projection {
        let mut out = Vec::new();
        for e in &elements {
            for k in keys {
                if let Some(v) = e.properties().get(k) {
                    if !matches!(v, GValue::Null) {
                        out.push(v.clone());
                    }
                }
            }
        }
        return BackendOutput::Values(out);
    }
    BackendOutput::Elements(elements)
}

/// Output of a graph-level backend call.
#[derive(Debug, Clone, PartialEq)]
pub enum BackendOutput {
    /// Matching elements (with properties, possibly trimmed to the
    /// projection).
    Elements(Vec<Element>),
    /// Projected property values, flattened per element in request order
    /// (projection pushdown).
    Values(Vec<GValue>),
    /// A single aggregate value (aggregate pushdown).
    Aggregate(GValue),
}

/// The graph structure API a provider implements.
///
/// `adjacent` and `edge_endpoints` return results grouped per input element
/// so the traversal engine can keep traverser paths aligned.
pub trait GraphBackend: Send + Sync {
    /// `g.V(...)` / `g.E(...)`: fetch elements of a kind with pushdown.
    fn graph_elements(&self, kind: ElementKind, filter: &ElementFilter) -> GResult<BackendOutput>;

    /// Adjacency: for each source vertex, its incident edges
    /// (`to == Edges`) or neighbouring vertices (`to == Vertices`) along
    /// `direction`, restricted to `edge_labels` (empty = all) and the
    /// result-element `filter`.
    fn adjacent(
        &self,
        sources: &[Element],
        direction: Direction,
        edge_labels: &[String],
        to: ElementKind,
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<Element>>>;

    /// For each edge, the requested endpoint vertex/vertices.
    /// `came_from`, when known, carries the vertex id each edge was reached
    /// from (needed by `otherV()`).
    fn edge_endpoints(
        &self,
        edges: &[Edge],
        end: EdgeEnd,
        came_from: &[Option<ElementId>],
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<Element>>>;

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
    use crate::structure::Vertex;

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
        let e = Element::Vertex(v);
        let mut f = ElementFilter::default();
        assert!(f.is_empty());
        assert!(f.matches(&e));
        f.labels = Some(vec!["patient".into()]);
        assert!(f.matches(&e));
        f.labels = Some(vec!["disease".into()]);
        assert!(!f.matches(&e));
        f.labels = None;
        f.ids = Some(vec![ElementId::Long(2)]);
        assert!(!f.matches(&e));
        f.ids = Some(vec![ElementId::Long(1)]);
        f.predicates
            .push(PropPred { key: "name".into(), pred: Pred::Eq(GValue::Str("Alice".into())) });
        assert!(f.matches(&e));
        f.predicates.push(PropPred { key: "missing".into(), pred: Pred::Exists });
        assert!(!f.matches(&e));
    }

    #[test]
    fn filter_src_dst_constraints_apply_to_edges_only() {
        let edge = crate::structure::Edge::new(1, "knows", 10, 20);
        let e = Element::Edge(edge);
        let f = ElementFilter { src_ids: Some(vec![ElementId::Long(10)]), ..Default::default() };
        assert!(f.matches(&e));
        let f = ElementFilter { src_ids: Some(vec![ElementId::Long(99)]), ..Default::default() };
        assert!(!f.matches(&e));
        let f = ElementFilter { dst_ids: Some(vec![ElementId::Long(20)]), ..Default::default() };
        assert!(f.matches(&e));
        let v = Element::Vertex(Vertex::new(10, "x"));
        assert!(!f.matches(&v));
    }

    #[test]
    fn pseudo_properties() {
        let v = Element::Vertex(Vertex::new(3, "thing").with_property("a", 1i64));
        assert_eq!(element_property(&v, "id"), Some(GValue::Long(3)));
        assert_eq!(element_property(&v, "label"), Some(GValue::Str("thing".into())));
        assert_eq!(element_property(&v, "a"), Some(GValue::Long(1)));
        assert_eq!(element_property(&v, "zz"), None);
    }
}
