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
    AggOp, BackendOutput, Direction, EdgeEnd, ElementFilter, ElementKind, GraphBackend,
};
use crate::error::{GremlinError, GResult};
use crate::structure::{Edge, Element, ElementId, GValue, Vertex};

/// Minimal internal RwLock wrapper so this crate stays dependency-free.
mod parking_lot_shim {
    pub use std::sync::RwLock as RwLockShim;
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

    pub fn vertex_count(&self) -> usize {
        self.inner.read().unwrap().vertices.len()
    }

    pub fn edge_count(&self) -> usize {
        self.inner.read().unwrap().edges.len()
    }
}

fn apply_output(elements: Vec<Element>, filter: &ElementFilter) -> GResult<BackendOutput> {
    if let Some(op) = filter.aggregate {
        // Aggregate pushdown: for projections, aggregate over the projected
        // property values; otherwise count elements.
        return match op {
            AggOp::Count => Ok(BackendOutput::Aggregate(GValue::Long(elements.len() as i64))),
            _ => {
                let keys = filter.projection.clone().unwrap_or_default();
                let mut nums = Vec::new();
                for e in &elements {
                    for k in &keys {
                        if let Some(v) = e.properties().get(k) {
                            if let Some(f) = v.as_f64() {
                                nums.push(f);
                            }
                        }
                    }
                }
                if nums.is_empty() {
                    return Ok(BackendOutput::Elements(Vec::new()));
                }
                let v = match op {
                    AggOp::Sum => GValue::Double(nums.iter().sum()),
                    AggOp::Mean => GValue::Double(nums.iter().sum::<f64>() / nums.len() as f64),
                    AggOp::Min => GValue::Double(nums.iter().cloned().fold(f64::INFINITY, f64::min)),
                    AggOp::Max => {
                        GValue::Double(nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
                    }
                    AggOp::Count => unreachable!(),
                };
                Ok(BackendOutput::Aggregate(v))
            }
        };
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
        return Ok(BackendOutput::Values(out));
    }
    Ok(BackendOutput::Elements(elements))
}

/// The elements of `map` that `filter` accepts, in key order, cloning only
/// those: with `filter.ids` set, a lookup per distinct id instead of a scan.
fn select<T: Clone>(
    map: &BTreeMap<ElementId, T>,
    filter: &ElementFilter,
    matches: fn(&ElementFilter, &T) -> bool,
    wrap: fn(T) -> Element,
) -> Vec<Element> {
    let Some(ids) = &filter.ids else {
        return map.values().filter(|x| matches(filter, x)).cloned().map(wrap).collect();
    };
    let mut ids: Vec<&ElementId> = ids.iter().collect();
    ids.sort();
    ids.dedup();
    // Every looked-up element has a requested id: check the rest.
    let rest = ElementFilter { ids: None, ..filter.clone() };
    ids.into_iter()
        .filter_map(|id| map.get(id))
        .filter(|x| matches(&rest, x))
        .cloned()
        .map(wrap)
        .collect()
}

impl GraphBackend for MemGraph {
    fn graph_elements(&self, kind: ElementKind, filter: &ElementFilter) -> GResult<BackendOutput> {
        let inner = self.inner.read().unwrap();
        let elements = match kind {
            ElementKind::Vertices => {
                select(&inner.vertices, filter, ElementFilter::matches_vertex, Element::Vertex)
            }
            ElementKind::Edges => {
                select(&inner.edges, filter, ElementFilter::matches_edge, Element::Edge)
            }
        };
        apply_output(elements, filter)
    }

    fn adjacent(
        &self,
        sources: &[Element],
        direction: Direction,
        edge_labels: &[String],
        to: ElementKind,
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<Element>>> {
        let inner = self.inner.read().unwrap();
        let mut out = Vec::with_capacity(sources.len());
        for src in sources {
            let vid = match src {
                Element::Vertex(v) => &v.id,
                Element::Edge(_) => {
                    return Err(GremlinError::Execution(
                        "adjacency from an edge element".into(),
                    ))
                }
            };
            let mut group: Vec<Element> = Vec::new();
            let mut push_edges = |edge_ids: Option<&Vec<ElementId>>, outgoing: bool| {
                for eid in edge_ids.into_iter().flatten() {
                    let Some(edge) = inner.edges.get(eid) else { continue };
                    if !edge_labels.is_empty() && !edge_labels.iter().any(|l| **l == *edge.label) {
                        continue;
                    }
                    match to {
                        ElementKind::Edges => {
                            let el = Element::Edge(edge.clone());
                            if filter.matches(&el) {
                                group.push(el);
                            }
                        }
                        ElementKind::Vertices => {
                            let nid = if outgoing { &edge.dst } else { &edge.src };
                            if let Some(v) = inner.vertices.get(nid) {
                                let el = Element::Vertex(v.clone());
                                if filter.matches(&el) {
                                    group.push(el);
                                }
                            }
                        }
                    }
                }
            };
            match direction {
                Direction::Out => push_edges(inner.out_adj.get(vid), true),
                Direction::In => push_edges(inner.in_adj.get(vid), false),
                Direction::Both => {
                    push_edges(inner.out_adj.get(vid), true);
                    push_edges(inner.in_adj.get(vid), false);
                }
            }
            out.push(group);
        }
        Ok(out)
    }

    fn edge_endpoints(
        &self,
        edges: &[Edge],
        end: EdgeEnd,
        came_from: &[Option<ElementId>],
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<Element>>> {
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
                EdgeEnd::Other => {
                    let from = came_from.get(i).and_then(|o| o.as_ref());
                    match from {
                        Some(f) if *f == edge.src => ids.push(&edge.dst),
                        Some(f) if *f == edge.dst => ids.push(&edge.src),
                        // Unknown origin: fall back to the destination.
                        _ => ids.push(&edge.dst),
                    }
                }
            }
            let mut group = Vec::new();
            for id in ids {
                if let Some(v) = inner.vertices.get(id) {
                    let el = Element::Vertex(v.clone());
                    if filter.matches(&el) {
                        group.push(el);
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

    /// The Figure 2 healthcare graph, abridged.
    pub fn sample() -> MemGraph {
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
        g.add_vertex(
            Vertex::new(10i64, "disease").with_property("conceptName", "type 2 diabetes"),
        );
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

    #[test]
    fn graph_elements_with_filters() {
        let g = sample();
        let mut f = ElementFilter { labels: Some(vec!["patient".into()]), ..Default::default() };
        match g.graph_elements(ElementKind::Vertices, &f).unwrap() {
            BackendOutput::Elements(es) => assert_eq!(es.len(), 2),
            other => panic!("{other:?}"),
        }
        f.aggregate = Some(AggOp::Count);
        match g.graph_elements(ElementKind::Vertices, &f).unwrap() {
            BackendOutput::Aggregate(GValue::Long(2)) => {}
            other => panic!("{other:?}"),
        }
        // Requested ids are looked up once each and come back in key
        // order; the rest of the filter still applies.
        let ids = |es: BackendOutput| match es {
            BackendOutput::Elements(es) => es.iter().map(|e| e.id().clone()).collect::<Vec<_>>(),
            other => panic!("{other:?}"),
        };
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

    #[test]
    fn adjacency_directions() {
        let g = sample();
        let alice = match g
            .graph_elements(
                ElementKind::Vertices,
                &ElementFilter::with_ids(vec![ElementId::Str("patient::1".into())]),
            )
            .unwrap()
        {
            BackendOutput::Elements(mut es) => es.remove(0),
            other => panic!("{other:?}"),
        };
        let out = g
            .adjacent(
                std::slice::from_ref(&alice),
                Direction::Out,
                &["hasDisease".into()],
                ElementKind::Vertices,
                &ElementFilter::default(),
            )
            .unwrap();
        assert_eq!(out[0].len(), 1);
        assert_eq!(out[0][0].label(), "disease");
        // both() from the disease vertex sees isa (out) and hasDisease (in).
        let d10 = match g
            .graph_elements(
                ElementKind::Vertices,
                &ElementFilter::with_ids(vec![ElementId::Long(10)]),
            )
            .unwrap()
        {
            BackendOutput::Elements(mut es) => es.remove(0),
            other => panic!("{other:?}"),
        };
        let both = g
            .adjacent(
                std::slice::from_ref(&d10),
                Direction::Both,
                &[],
                ElementKind::Edges,
                &ElementFilter::default(),
            )
            .unwrap();
        assert_eq!(both[0].len(), 2);
    }

    #[test]
    fn endpoints_including_other_v() {
        let g = sample();
        let inner_edge = {
            match g
                .graph_elements(
                    ElementKind::Edges,
                    &ElementFilter::with_ids(vec![ElementId::Str("isa1".into())]),
                )
                .unwrap()
            {
                BackendOutput::Elements(mut es) => match es.remove(0) {
                    Element::Edge(e) => e,
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            }
        };
        let ends = g
            .edge_endpoints(
                std::slice::from_ref(&inner_edge),
                EdgeEnd::Other,
                &[Some(ElementId::Long(11))],
                &ElementFilter::default(),
            )
            .unwrap();
        assert_eq!(ends[0][0].id(), &ElementId::Long(10));
        let ends = g
            .edge_endpoints(
                std::slice::from_ref(&inner_edge),
                EdgeEnd::Both,
                &[None],
                &ElementFilter::default(),
            )
            .unwrap();
        assert_eq!(ends[0].len(), 2);
    }
}
