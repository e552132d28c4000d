//! The logical step plan a Gremlin traversal compiles into.
//!
//! This mirrors TinkerPop's step taxonomy (Section 6.1 of the paper): each
//! step is a transformation (GraphStep, VertexStep, ...), filter (HasStep,
//! ...), side-effect (store), or branch (union, repeat). Steps that access
//! the graph structure API — [`Step::Graph`], [`Step::Vertex`],
//! [`Step::EdgeVertex`] — are the paper's *GSA steps*: each typically
//! results in one or more SQL queries, and the optimization strategies all
//! target them.

use crate::backend::{AggOp, Direction, EdgeEnd, ElementFilter, ElementKind, PropPred};
use crate::structure::GValue;

/// A compiled traversal: an ordered list of steps.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Traversal {
    pub steps: Vec<Step>,
}

impl Traversal {
    pub fn new(steps: Vec<Step>) -> Traversal {
        Traversal { steps }
    }

    /// True if any step (recursively) requires path tracking.
    pub fn needs_paths(&self) -> bool {
        fn scan(steps: &[Step]) -> bool {
            steps.iter().any(|s| match s {
                Step::Path | Step::SimplePath => true,
                Step::Repeat { body, until, .. } => {
                    scan(&body.steps) || until.as_ref().map(|u| scan(&u.steps)).unwrap_or(false)
                }
                Step::Union(ts) | Step::Coalesce(ts) => ts.iter().any(|t| scan(&t.steps)),
                Step::Filter(spec) | Step::Where(spec) => scan(&spec.traversal.steps),
                Step::Not(t) => scan(&t.steps),
                _ => false,
            })
        }
        scan(&self.steps)
    }

    /// Render a compact plan string (used in tests and EXPLAIN-style
    /// diagnostics).
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self.steps.iter().map(Step::describe).collect();
        parts.join(" -> ")
    }
}

/// `g.V(...)` / `g.E(...)` — fetch from the whole graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStep {
    pub kind: ElementKind,
    pub filter: ElementFilter,
}

/// `out/in/both[E](labels)` — move from vertices to adjacent elements.
#[derive(Debug, Clone, PartialEq)]
pub struct VertexStep {
    pub direction: Direction,
    pub edge_labels: Vec<String>,
    /// `Vertices` for out()/in()/both(), `Edges` for outE()/inE()/bothE().
    pub to: ElementKind,
    pub filter: ElementFilter,
}

/// `outV/inV/bothV/otherV` — move from edges to endpoint vertices.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeVertexStep {
    pub end: EdgeEnd,
    pub filter: ElementFilter,
}

/// Sub-traversal filter used by `filter(...)`, `where(...)`.
#[derive(Debug, Clone, PartialEq)]
pub struct FilterSpec {
    pub traversal: Traversal,
    /// `filter(outV().id() == x)` style comparison; `None` means plain
    /// existence ("the sub-traversal produces at least one result").
    pub compare: Option<(CompareOp, GValue)>,
}

/// Comparison operators in filter sugar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Neq,
    Gt,
    Gte,
    Lt,
    Lte,
}

/// Sort key for `order().by(...)`.
#[derive(Debug, Clone, PartialEq)]
pub enum OrderKey {
    /// Order by the traverser value itself.
    Value,
    /// Order by a property of the element.
    Property(String),
}

/// One step of a traversal.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    Graph(GraphStep),
    Vertex(VertexStep),
    EdgeVertex(EdgeVertexStep),
    /// `has(...)`, `hasLabel(...)`, `hasId(...)` — pure filters.
    Has(Vec<PropPred>),
    /// `values(keys...)` — flatten to property values.
    Values(Vec<String>),
    /// `valueMap(keys...)` — map of property values per element.
    ValueMap(Vec<String>),
    /// `properties(keys...)` — key/value property entries.
    Properties(Vec<String>),
    Id,
    Label,
    /// Global aggregate: `count()`, `sum()`, `mean()`, `min()`, `max()`.
    Aggregate(AggOp),
    Dedup,
    Limit(u64),
    /// `range(lo, hi)`.
    Range(u64, u64),
    Order(Vec<(OrderKey, bool)>),
    Repeat {
        body: Traversal,
        times: Option<u32>,
        until: Option<Traversal>,
        emit: bool,
    },
    /// `store(key)` — lazy side-effect collection.
    Store(String),
    /// `aggregate(key)` — eager (barrier) side-effect collection.
    AggregateSE(String),
    /// `cap(key)` — emit the collected side effect as a list.
    Cap(String),
    Filter(FilterSpec),
    Where(FilterSpec),
    Not(Traversal),
    /// `is(P)` — filter scalars by predicate.
    Is(crate::backend::Pred),
    Union(Vec<Traversal>),
    /// `coalesce(t1, t2, ...)` — per traverser, the first branch that
    /// yields results.
    Coalesce(Vec<Traversal>),
    Path,
    /// `simplePath()` — drop traversers that revisit an element.
    SimplePath,
    As(String),
    Select(Vec<String>),
    Constant(GValue),
    /// `group().by(key)` — barrier: map from key to list of incoming
    /// values (`None` key groups by the value itself).
    Group(Option<String>),
    /// `groupCount().by(key)` — barrier: map from key to count.
    GroupCount(Option<String>),
    /// `fold()` — gather the stream into one list.
    Fold,
    /// `unfold()` — flatten lists back into the stream.
    Unfold,
    Identity,
}

impl Step {
    /// Short plan label.
    pub fn describe(&self) -> String {
        match self {
            Step::Graph(g) => {
                let kind = if g.kind == ElementKind::Vertices { "V" } else { "E" };
                let mut tags = Vec::new();
                if g.filter.ids.is_some() {
                    tags.push("ids");
                }
                if g.filter.labels.is_some() {
                    tags.push("labels");
                }
                if !g.filter.predicates.is_empty() {
                    tags.push("preds");
                }
                if g.filter.projection.is_some() {
                    tags.push("proj");
                }
                if g.filter.aggregate.is_some() {
                    tags.push("agg");
                }
                if g.filter.src_ids.is_some() {
                    tags.push("src_ids");
                }
                if g.filter.dst_ids.is_some() {
                    tags.push("dst_ids");
                }
                if tags.is_empty() {
                    format!("Graph({kind})")
                } else {
                    format!("Graph({kind}|{})", tags.join("+"))
                }
            }
            Step::Vertex(v) => {
                let dir = match v.direction {
                    Direction::Out => "out",
                    Direction::In => "in",
                    Direction::Both => "both",
                };
                let suffix = if v.to == ElementKind::Edges { "E" } else { "" };
                format!("Vertex({dir}{suffix})")
            }
            Step::EdgeVertex(e) => format!("EdgeVertex({:?})", e.end),
            Step::Has(p) => format!("Has({})", p.len()),
            Step::Values(k) => format!("Values({})", k.join(",")),
            Step::ValueMap(_) => "ValueMap".into(),
            Step::Properties(_) => "Properties".into(),
            Step::Id => "Id".into(),
            Step::Label => "Label".into(),
            Step::Aggregate(op) => format!("Aggregate({op:?})"),
            Step::Dedup => "Dedup".into(),
            Step::Limit(n) => format!("Limit({n})"),
            Step::Range(a, b) => format!("Range({a},{b})"),
            Step::Order(_) => "Order".into(),
            Step::Repeat { times, .. } => format!("Repeat(times={times:?})"),
            Step::Store(k) => format!("Store({k})"),
            Step::AggregateSE(k) => format!("AggregateSE({k})"),
            Step::Cap(k) => format!("Cap({k})"),
            Step::Filter(_) => "Filter".into(),
            Step::Where(_) => "Where".into(),
            Step::Not(_) => "Not".into(),
            Step::Is(_) => "Is".into(),
            Step::Union(ts) => format!("Union({})", ts.len()),
            Step::Coalesce(ts) => format!("Coalesce({})", ts.len()),
            Step::Path => "Path".into(),
            Step::SimplePath => "SimplePath".into(),
            Step::As(k) => format!("As({k})"),
            Step::Select(k) => format!("Select({})", k.join(",")),
            Step::Constant(_) => "Constant".into(),
            Step::Group(k) => format!("Group({})", k.as_deref().unwrap_or("<value>")),
            Step::GroupCount(k) => format!("GroupCount({})", k.as_deref().unwrap_or("<value>")),
            Step::Fold => "Fold".into(),
            Step::Unfold => "Unfold".into(),
            Step::Identity => "Identity".into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_detection_recurses_into_repeat_and_union() {
        let t = Traversal::new(vec![Step::Repeat {
            body: Traversal::new(vec![Step::Path]),
            times: Some(2),
            until: None,
            emit: false,
        }]);
        assert!(t.needs_paths());
        let t = Traversal::new(vec![Step::Union(vec![
            Traversal::new(vec![Step::Dedup]),
            Traversal::new(vec![Step::SimplePath]),
        ])]);
        assert!(t.needs_paths());
        let t = Traversal::new(vec![Step::Dedup]);
        assert!(!t.needs_paths());
    }

    #[test]
    fn describe_tags_pushdowns() {
        let f = ElementFilter {
            aggregate: Some(AggOp::Count),
            src_ids: Some(vec![]),
            ..Default::default()
        };
        let s = Step::Graph(GraphStep { kind: ElementKind::Edges, filter: f });
        let d = s.describe();
        assert!(d.contains("agg"), "{d}");
        assert!(d.contains("src_ids"), "{d}");
    }
}
