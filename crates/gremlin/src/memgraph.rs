//! A simple in-memory reference implementation of [`GraphBackend`].
//!
//! This backend stores vertices and edges in hash maps and answers every
//! call by filtering — no indexes, no pushdown cleverness. It serves two
//! purposes: unit-testing the traversal engine in isolation, and acting as
//! a correctness *oracle* in integration tests (the overlay backend and the
//! baseline stores must return the same answers it does).

use std::collections::{BTreeMap, HashMap};

use parking_lot_shim::RwLockShim;

use crate::backend::{
    finalize_elements, Direction, EdgeEnd, ElementFilter, ElementKind, GraphBackend,
};
use crate::error::GResult;
use crate::structure::{Edge, Element, ElementId, GValue, Vertex};

/// Minimal internal RwLock wrapper so this crate stays dependency-free.
mod parking_lot_shim {
    pub(super) use std::sync::RwLock as RwLockShim;
}

/// An in-memory property graph.
#[derive(Debug, Default)]
pub struct MemGraph {
    inner: RwLockShim<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    vertices: BTreeMap<ElementId, Vertex>,
    edges: BTreeMap<ElementId, Edge>,
    out_adj: HashMap<ElementId, Vec<ElementId>>,
    in_adj: HashMap<ElementId, Vec<ElementId>>,
}

impl MemGraph {
    pub fn new() -> MemGraph {
        MemGraph::default()
    }

    pub fn add_vertex(&self, v: Vertex) {
        self.inner.write().unwrap().vertices.insert(v.id.clone(), v);
    }

    pub fn add_edge(&self, e: Edge) {
        let mut inner = self.inner.write().unwrap();
        inner.out_adj.entry(e.src.clone()).or_default().push(e.id.clone());
        inner.in_adj.entry(e.dst.clone()).or_default().push(e.id.clone());
        inner.edges.insert(e.id.clone(), e);
    }

    #[cfg(test)]
    pub(crate) fn vertex_count(&self) -> usize {
        self.inner.read().unwrap().vertices.len()
    }

    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.inner.read().unwrap().edges.len()
    }
}

/// The elements of `map` that `filter` accepts, in key order, cloning only
/// those: with `filter.ids` set, a lookup per distinct id instead of a scan.
fn select<T: Clone>(
    map: &BTreeMap<ElementId, T>,
    filter: &ElementFilter,
    view: fn(&T) -> Element<'_>,
    own: fn(T) -> GValue,
) -> Vec<GValue> {
    let Some(ids) = &filter.ids else {
        return map.values().filter(|x| filter.matches(view(x))).cloned().map(own).collect();
    };
    let mut ids: Vec<&ElementId> = ids.iter().collect();
    ids.sort();
    ids.dedup();
    // Every looked-up element has a requested id: check the rest.
    let rest = ElementFilter { ids: None, ..filter.clone() };
    ids.into_iter()
        .filter_map(|id| map.get(id))
        .filter(|x| rest.matches(view(x)))
        .cloned()
        .map(own)
        .collect()
}

impl GraphBackend for MemGraph {
    fn graph_elements(&self, kind: ElementKind, filter: &ElementFilter) -> GResult<Vec<GValue>> {
        let inner = self.inner.read().unwrap();
        let elements = match kind {
            ElementKind::Vertices => {
                select(&inner.vertices, filter, |v| Element::Vertex(v), GValue::Vertex)
            }
            ElementKind::Edges => select(&inner.edges, filter, |e| Element::Edge(e), GValue::Edge),
        };
        finalize_elements(elements, filter)
    }

    fn adjacent(
        &self,
        sources: &[&Vertex],
        direction: Direction,
        edge_labels: &[String],
        to: ElementKind,
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<GValue>>> {
        let inner = self.inner.read().unwrap();
        let mut out = Vec::with_capacity(sources.len());
        for src in sources {
            let mut group: Vec<GValue> = Vec::new();
            let mut push_edges = |edge_ids: Option<&Vec<ElementId>>, outgoing: bool| {
                for eid in edge_ids.into_iter().flatten() {
                    let Some(edge) = inner.edges.get(eid) else { continue };
                    if !edge_labels.is_empty() && !edge_labels.iter().any(|l| **l == *edge.label) {
                        continue;
                    }
                    match to {
                        ElementKind::Edges => {
                            if filter.matches(Element::Edge(edge)) {
                                group.push(GValue::Edge(edge.clone()));
                            }
                        }
                        ElementKind::Vertices => {
                            let nid = if outgoing { &edge.dst } else { &edge.src };
                            if let Some(v) = inner.vertices.get(nid) {
                                if filter.matches(Element::Vertex(v)) {
                                    group.push(GValue::Vertex(v.clone()));
                                }
                            }
                        }
                    }
                }
            };
            match direction {
                Direction::Out => push_edges(inner.out_adj.get(&src.id), true),
                Direction::In => push_edges(inner.in_adj.get(&src.id), false),
                Direction::Both => {
                    push_edges(inner.out_adj.get(&src.id), true);
                    push_edges(inner.in_adj.get(&src.id), false);
                }
            }
            out.push(group);
        }
        Ok(out)
    }

    fn edge_endpoints(
        &self,
        edges: &[&Edge],
        end: EdgeEnd,
        came_from: &[Option<&ElementId>],
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<GValue>>> {
        let inner = self.inner.read().unwrap();
        let mut out = Vec::with_capacity(edges.len());
        for (i, edge) in edges.iter().enumerate() {
            let mut ids: Vec<&ElementId> = Vec::new();
            match end {
                EdgeEnd::Out => ids.push(&edge.src),
                EdgeEnd::In => ids.push(&edge.dst),
                EdgeEnd::Both => {
                    ids.push(&edge.src);
                    ids.push(&edge.dst);
                }
                EdgeEnd::Other => match came_from.get(i).copied().flatten() {
                    Some(f) if *f == edge.src => ids.push(&edge.dst),
                    Some(f) if *f == edge.dst => ids.push(&edge.src),
                    // Unknown origin: fall back to the destination.
                    _ => ids.push(&edge.dst),
                },
            }
            let mut group = Vec::new();
            for id in ids {
                if let Some(v) = inner.vertices.get(id) {
                    if filter.matches(Element::Vertex(v)) {
                        group.push(GValue::Vertex(v.clone()));
                    }
                }
            }
            out.push(group);
        }
        Ok(out)
    }

    fn backend_name(&self) -> &str {
        "memgraph"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AggOp;

    /// The Figure 2 healthcare graph, abridged.
    pub(super) fn sample() -> MemGraph {
        let g = MemGraph::new();
        g.add_vertex(
            Vertex::new("patient::1", "patient")
                .with_property("patientID", 1i64)
                .with_property("name", "Alice"),
        );
        g.add_vertex(
            Vertex::new("patient::2", "patient")
                .with_property("patientID", 2i64)
                .with_property("name", "Bob"),
        );
        g.add_vertex(Vertex::new(10i64, "disease").with_property("conceptName", "type 2 diabetes"));
        g.add_vertex(Vertex::new(11i64, "disease").with_property("conceptName", "diabetes"));
        g.add_edge(Edge::new("hd1", "hasDisease", "patient::1", 10i64));
        g.add_edge(Edge::new("hd2", "hasDisease", "patient::2", 11i64));
        g.add_edge(Edge::new("isa1", "isa", 10i64, 11i64));
        g
    }

    #[test]
    fn counts() {
        let g = sample();
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
    }

    /// The element ids of a `graph_elements` result.
    fn ids(out: Vec<GValue>) -> Vec<ElementId> {
        out.iter().map(|v| v.as_element().expect("an element").id().clone()).collect()
    }

    #[test]
    fn graph_elements_with_filters() {
        let g = sample();
        let mut f = ElementFilter { labels: Some(vec!["patient".into()]), ..Default::default() };
        assert_eq!(ids(g.graph_elements(ElementKind::Vertices, &f).unwrap()).len(), 2);
        f.aggregate = Some(AggOp::Count);
        assert_eq!(g.graph_elements(ElementKind::Vertices, &f).unwrap(), vec![GValue::Long(2)]);
        // Requested ids are looked up once each and come back in key
        // order; the rest of the filter still applies.
        let f = ElementFilter {
            ids: Some(vec![11i64.into(), "patient::2".into(), 10i64.into(), 11i64.into()]),
            labels: Some(vec!["disease".into()]),
            ..Default::default()
        };
        let found = ids(g.graph_elements(ElementKind::Vertices, &f).unwrap());
        assert_eq!(found, vec![ElementId::from(10i64), ElementId::from(11i64)]);
        let f = ElementFilter {
            ids: Some(vec!["isa1".into(), "hd2".into(), "hd1".into(), "none".into()]),
            src_ids: Some(vec!["patient::1".into(), "patient::2".into()]),
            ..Default::default()
        };
        let found = ids(g.graph_elements(ElementKind::Edges, &f).unwrap());
        assert_eq!(found, vec![ElementId::from("hd1"), ElementId::from("hd2")]);
    }

    /// A pushed-down `count()` over a projection counts the values, not
    /// the elements: the diseases have no `name`.
    #[test]
    fn projected_count_counts_values() {
        let g = sample();
        let mut f = ElementFilter {
            projection: Some(vec!["name".into()]),
            aggregate: Some(AggOp::Count),
            ..Default::default()
        };
        assert_eq!(g.graph_elements(ElementKind::Vertices, &f).unwrap(), vec![GValue::Long(2)]);
        f.projection = Some(vec!["patientID".into()]);
        f.aggregate = Some(AggOp::Sum);
        assert_eq!(g.graph_elements(ElementKind::Vertices, &f).unwrap(), vec![GValue::Long(3)]);
    }

    /// The one element `graph_elements` finds with id `id`.
    fn one(g: &MemGraph, kind: ElementKind, id: ElementId) -> GValue {
        let mut found = g.graph_elements(kind, &ElementFilter::with_ids(vec![id])).unwrap();
        assert_eq!(found.len(), 1);
        found.remove(0)
    }

    #[test]
    fn adjacency_directions() {
        let g = sample();
        let GValue::Vertex(alice) =
            one(&g, ElementKind::Vertices, ElementId::Str("patient::1".into()))
        else {
            panic!("a vertex")
        };
        let out = g
            .adjacent(
                &[&alice],
                Direction::Out,
                &["hasDisease".into()],
                ElementKind::Vertices,
                &ElementFilter::default(),
            )
            .unwrap();
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0][0].as_element().unwrap().label(), "disease");
        // both() from the disease vertex sees isa (out) and hasDisease (in).
        let GValue::Vertex(d10) = one(&g, ElementKind::Vertices, ElementId::Long(10)) else {
            panic!("a vertex")
        };
        let both = g
            .adjacent(&[&d10], Direction::Both, &[], ElementKind::Edges, &ElementFilter::default())
            .unwrap();
        assert_eq!(both[0].len(), 2);
    }

    #[test]
    fn endpoints_including_other_v() {
        let g = sample();
        let GValue::Edge(inner_edge) = one(&g, ElementKind::Edges, ElementId::Str("isa1".into()))
        else {
            panic!("an edge")
        };
        let ends = g
            .edge_endpoints(
                &[&inner_edge],
                EdgeEnd::Other,
                &[Some(&ElementId::Long(11))],
                &ElementFilter::default(),
            )
            .unwrap();
        assert_eq!(ends[0][0].as_element().unwrap().id(), &ElementId::Long(10));
        let ends = g
            .edge_endpoints(&[&inner_edge], EdgeEnd::Both, &[None], &ElementFilter::default())
            .unwrap();
        assert_eq!(ends[0].len(), 2);
    }
}
