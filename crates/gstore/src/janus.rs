//! The JanusGraph-like baseline: a graph layered on the KV store.
//!
//! Mirrors JanusGraph-on-BerkeleyDB's storage model: each vertex is a "row"
//! in the ordered KV store, holding a serialized property blob plus one
//! *column per incident edge* (the full edge record serialized into the
//! column value, in both directions — each edge stored twice). Reading any
//! part of a vertex means ordered-store range scans and per-edge
//! deserialization on every access; there is no decoded-record cache, and a
//! configurable per-KV-operation overhead models the layered storage stack
//! (transaction scope, serializer framework, store adapter) that makes the
//! real system the uniformly slowest in Figures 5 and 6. The duplicated
//! edge records are a large part of its disk blowup in Table 3. As the
//! paper notes, none of this layout is usable from SQL — "the convoluted
//! schema makes it impossible to decipher what is stored".

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use gremlin::structure::{Edge, Element, ElementId, Vertex};
use gremlin::{
    finalize_elements, BackendOutput, Direction, EdgeEnd, ElementFilter, ElementKind, GraphBackend,
};
use gremlin::{GResult, GremlinError};

use crate::codec::{self, Cursor};
use crate::kv::KvStore;

fn vkey(id: &ElementId) -> Vec<u8> {
    let mut k = b"v:".to_vec();
    codec::put_id(&mut k, id);
    k
}

/// Adjacency column key: direction prefix + owner id + label + other id.
/// The id encoding is self-delimiting, so prefix scans by owner (and by
/// owner+label) are unambiguous.
fn adj_key(outgoing: bool, owner: &ElementId, label: &str, other: &ElementId) -> Vec<u8> {
    let mut k: Vec<u8> = if outgoing { b"oa:".to_vec() } else { b"ia:".to_vec() };
    codec::put_id(&mut k, owner);
    codec::put_str(&mut k, label);
    codec::put_id(&mut k, other);
    k
}

fn adj_prefix(outgoing: bool, owner: &ElementId, label: Option<&str>) -> Vec<u8> {
    let mut k: Vec<u8> = if outgoing { b"oa:".to_vec() } else { b"ia:".to_vec() };
    codec::put_id(&mut k, owner);
    if let Some(l) = label {
        codec::put_str(&mut k, l);
    }
    k
}

fn ekey(id: &ElementId) -> Vec<u8> {
    let mut k = b"e:".to_vec();
    codec::put_id(&mut k, id);
    k
}

fn vlabel_key(label: &str, id: &ElementId) -> Vec<u8> {
    let mut k = b"lv:".to_vec();
    k.extend_from_slice(label.as_bytes());
    k.push(0);
    codec::put_id(&mut k, id);
    k
}

/// The Janus-like graph store.
pub struct JanusLikeDb {
    kv: KvStore,
    /// Simulated per-KV-operation stack overhead (nanoseconds). Zero by
    /// default; the benchmark harness sets it to model the real system's
    /// layered storage path.
    op_overhead: AtomicU64,
}

/// Staging loader for [`JanusLikeDb`].
#[derive(Default)]
pub struct JanusLoader {
    vertices: Vec<Vertex>,
    edges: Vec<Edge>,
}

impl JanusLoader {
    pub fn new() -> JanusLoader {
        JanusLoader::default()
    }

    pub fn add_vertex(&mut self, v: Vertex) {
        self.vertices.push(v);
    }

    pub fn add_edge(&mut self, e: Edge) {
        self.edges.push(e);
    }

    /// Write every vertex property blob, every edge twice (out-column and
    /// in-column), the edge-id pointer index, and the label index — the
    /// slowest loader in Table 3.
    pub fn build(self) -> JanusLikeDb {
        let kv = KvStore::new();
        for e in &self.edges {
            let record = codec::encode_edge(e).expect("scalar properties");
            kv.put(adj_key(true, &e.src, &e.label, &e.dst), record.clone());
            kv.put(adj_key(false, &e.dst, &e.label, &e.src), record);
            // Edge-id index: (src, label, dst) locates the out-column.
            let mut ptr = Vec::new();
            codec::put_id(&mut ptr, &e.src);
            codec::put_str(&mut ptr, &e.label);
            codec::put_id(&mut ptr, &e.dst);
            kv.put(ekey(&e.id), ptr);
        }
        for v in self.vertices {
            kv.put(vlabel_key(&v.label, &v.id), Vec::new());
            kv.put(vkey(&v.id), codec::encode_vertex(&v).expect("scalar properties"));
        }
        JanusLikeDb { kv, op_overhead: AtomicU64::new(0) }
    }
}

impl JanusLikeDb {
    pub fn storage_bytes(&self) -> usize {
        self.kv.total_bytes()
    }

    pub fn kv(&self) -> &KvStore {
        &self.kv
    }

    /// Set the simulated per-KV-operation overhead (models the layered
    /// storage stack of the real system).
    pub fn set_op_overhead(&self, overhead: Duration) {
        self.op_overhead.store(overhead.as_nanos() as u64, Ordering::Relaxed);
    }

    fn pay_op(&self) {
        let ns = self.op_overhead.load(Ordering::Relaxed);
        if ns > 0 {
            // Stack overhead is CPU work in the real system: spin, don't
            // sleep, so it also costs concurrency in Figure 6.
            let start = Instant::now();
            let d = Duration::from_nanos(ns);
            while start.elapsed() < d {
                std::hint::spin_loop();
            }
        }
    }

    fn load_vertex(&self, id: &ElementId) -> GResult<Option<Vertex>> {
        self.pay_op();
        match self.kv.get(&vkey(id)) {
            None => Ok(None),
            Some(bytes) => codec::decode_vertex(&bytes)
                .map(Some)
                .map_err(|e| GremlinError::Backend(e.to_string())),
        }
    }

    /// Range-scan adjacency columns for a vertex (optionally by label),
    /// deserializing every matching edge record — paid on *every* access;
    /// there is no decoded cache.
    fn scan_adjacency(
        &self,
        id: &ElementId,
        outgoing: bool,
        label: Option<&str>,
    ) -> GResult<Vec<Edge>> {
        self.pay_op();
        let prefix = adj_prefix(outgoing, id, label);
        let mut out = Vec::new();
        let mut err: Option<GremlinError> = None;
        self.kv.for_each_prefix(&prefix, |_, v| {
            if err.is_some() {
                return;
            }
            match codec::decode_edge(v) {
                Ok(e) => out.push(e),
                Err(e) => err = Some(GremlinError::Backend(e.to_string())),
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    fn all_vertex_ids(&self) -> Vec<ElementId> {
        self.pay_op();
        let mut out = Vec::new();
        self.kv.for_each_prefix(b"v:", |k, _| {
            let mut c = Cursor::new(&k[2..]);
            if let Ok(id) = codec::read_id(&mut c) {
                out.push(id);
            }
        });
        out
    }

    fn vertex_ids_for_labels(&self, labels: &[String]) -> Vec<ElementId> {
        self.pay_op();
        let mut out = Vec::new();
        for l in labels {
            let mut prefix = b"lv:".to_vec();
            prefix.extend_from_slice(l.as_bytes());
            prefix.push(0);
            self.kv.for_each_prefix(&prefix, |k, _| {
                let mut c = Cursor::new(&k[prefix.len()..]);
                if let Ok(id) = codec::read_id(&mut c) {
                    out.push(id);
                }
            });
        }
        out
    }

    /// Scan adjacency for several labels (or all).
    fn adjacency_for(
        &self,
        id: &ElementId,
        outgoing: bool,
        labels: &Option<Vec<String>>,
    ) -> GResult<Vec<Edge>> {
        match labels {
            None => self.scan_adjacency(id, outgoing, None),
            Some(ls) => {
                let mut out = Vec::new();
                for l in ls {
                    out.extend(self.scan_adjacency(id, outgoing, Some(l))?);
                }
                Ok(out)
            }
        }
    }
}

impl GraphBackend for JanusLikeDb {
    fn graph_elements(&self, kind: ElementKind, filter: &ElementFilter) -> GResult<BackendOutput> {
        let elements = match kind {
            ElementKind::Vertices => {
                let ids: Vec<ElementId> = if let Some(ids) = &filter.ids {
                    ids.clone()
                } else if let Some(labels) = &filter.labels {
                    self.vertex_ids_for_labels(labels)
                } else {
                    self.all_vertex_ids()
                };
                let mut out = Vec::with_capacity(ids.len());
                for id in ids {
                    if let Some(v) = self.load_vertex(&id)? {
                        let el = Element::Vertex(v);
                        if filter.matches(&el) {
                            out.push(el);
                        }
                    }
                }
                out
            }
            ElementKind::Edges => {
                if let Some(src_ids) = &filter.src_ids {
                    let mut out = Vec::new();
                    for id in src_ids {
                        for e in self.adjacency_for(id, true, &filter.labels)? {
                            let el = Element::Edge(e);
                            if filter.matches(&el) {
                                out.push(el);
                            }
                        }
                    }
                    out
                } else if let Some(dst_ids) = &filter.dst_ids {
                    let mut out = Vec::new();
                    for id in dst_ids {
                        for e in self.adjacency_for(id, false, &filter.labels)? {
                            let el = Element::Edge(e);
                            if filter.matches(&el) {
                                out.push(el);
                            }
                        }
                    }
                    out
                } else if let Some(ids) = &filter.ids {
                    // Edge id -> (src, label, dst) pointer -> exact column.
                    let mut out = Vec::new();
                    for id in ids {
                        self.pay_op();
                        if let Some(ptr) = self.kv.get(&ekey(id)) {
                            let mut c = Cursor::new(&ptr);
                            let src = codec::read_id(&mut c)
                                .map_err(|e| GremlinError::Backend(e.to_string()))?;
                            let label =
                                c.read_str().map_err(|e| GremlinError::Backend(e.to_string()))?;
                            let dst = codec::read_id(&mut c)
                                .map_err(|e| GremlinError::Backend(e.to_string()))?;
                            self.pay_op();
                            if let Some(bytes) = self.kv.get(&adj_key(true, &src, &label, &dst)) {
                                let e = codec::decode_edge(&bytes)
                                    .map_err(|e| GremlinError::Backend(e.to_string()))?;
                                let el = Element::Edge(e);
                                if filter.matches(&el) {
                                    out.push(el);
                                }
                            }
                        }
                    }
                    out
                } else {
                    // Full scan: decode every out-column of every vertex.
                    let mut out = Vec::new();
                    for id in self.all_vertex_ids() {
                        for e in self.adjacency_for(&id, true, &filter.labels)? {
                            let el = Element::Edge(e);
                            if filter.matches(&el) {
                                out.push(el);
                            }
                        }
                    }
                    out
                }
            }
        };
        Ok(finalize_elements(elements, filter))
    }

    fn adjacent(
        &self,
        sources: &[Element],
        direction: Direction,
        edge_labels: &[String],
        to: ElementKind,
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<Element>>> {
        let labels: Option<Vec<String>> =
            if edge_labels.is_empty() { None } else { Some(edge_labels.to_vec()) };
        let mut groups = Vec::with_capacity(sources.len());
        for src in sources {
            let mut group = Vec::new();
            let walk =
                |edges: Vec<Edge>, outgoing: bool, group: &mut Vec<Element>| -> GResult<()> {
                    for e in edges {
                        match to {
                            ElementKind::Edges => {
                                let el = Element::Edge(e);
                                if filter.matches(&el) {
                                    group.push(el);
                                }
                            }
                            ElementKind::Vertices => {
                                let nid = if outgoing { &e.dst } else { &e.src };
                                if let Some(v) = self.load_vertex(nid)? {
                                    let el = Element::Vertex(v);
                                    if filter.matches(&el) {
                                        group.push(el);
                                    }
                                }
                            }
                        }
                    }
                    Ok(())
                };
            match direction {
                Direction::Out => {
                    walk(self.adjacency_for(src.id(), true, &labels)?, true, &mut group)?
                }
                Direction::In => {
                    walk(self.adjacency_for(src.id(), false, &labels)?, false, &mut group)?
                }
                Direction::Both => {
                    walk(self.adjacency_for(src.id(), true, &labels)?, true, &mut group)?;
                    walk(self.adjacency_for(src.id(), false, &labels)?, false, &mut group)?;
                }
            }
            groups.push(group);
        }
        Ok(groups)
    }

    fn edge_endpoints(
        &self,
        edges: &[Edge],
        end: EdgeEnd,
        came_from: &[Option<ElementId>],
        filter: &ElementFilter,
    ) -> GResult<Vec<Vec<Element>>> {
        let mut out = Vec::with_capacity(edges.len());
        for (i, e) in edges.iter().enumerate() {
            let ids: Vec<&ElementId> = match end {
                EdgeEnd::Out => vec![&e.src],
                EdgeEnd::In => vec![&e.dst],
                EdgeEnd::Both => vec![&e.src, &e.dst],
                EdgeEnd::Other => match came_from.get(i).and_then(|o| o.as_ref()) {
                    Some(f) if *f == e.src => vec![&e.dst],
                    Some(f) if *f == e.dst => vec![&e.src],
                    _ => vec![&e.dst],
                },
            };
            let mut group = Vec::new();
            for id in ids {
                if let Some(v) = self.load_vertex(id)? {
                    let el = Element::Vertex(v);
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
        "janus-like"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gremlin::structure::GValue;
    use gremlin::ScriptRunner;

    fn diamond() -> JanusLikeDb {
        let mut l = JanusLoader::new();
        for (id, w) in [(1i64, 1.0f64), (2, 2.0), (3, 3.0), (4, 4.0)] {
            l.add_vertex(Vertex::new(id, "node").with_property("w", w));
        }
        l.add_edge(Edge::new(100i64, "to", 1i64, 2i64).with_property("len", 5i64));
        l.add_edge(Edge::new(101i64, "to", 1i64, 3i64).with_property("len", 7i64));
        l.add_edge(Edge::new(102i64, "to", 2i64, 4i64).with_property("len", 1i64));
        l.add_edge(Edge::new(103i64, "to", 3i64, 4i64).with_property("len", 2i64));
        l.add_edge(Edge::new(104i64, "likes", 1i64, 4i64));
        l.build()
    }

    #[test]
    fn traversals_match_expected() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        assert_eq!(r.run("g.V().count()").unwrap(), vec![GValue::Long(4)]);
        assert_eq!(r.run("g.E().count()").unwrap(), vec![GValue::Long(5)]);
        let out = r.run("g.V(1).out('to').out('to').dedup().id()").unwrap();
        assert_eq!(out, vec![GValue::Long(4)]);
        let out = r.run("g.V(1).outE('to').has('len', gt(5)).inV().id()").unwrap();
        assert_eq!(out, vec![GValue::Long(3)]);
        // Edge lookup through the pointer index.
        let out = r.run("g.E(102).outV().id()").unwrap();
        assert_eq!(out, vec![GValue::Long(2)]);
        // In-direction through the in-columns.
        let out = r.run("g.V(4).in('to').order().by('w').values('w')").unwrap();
        assert_eq!(out, vec![GValue::Double(2.0), GValue::Double(3.0)]);
        // Label slicing works.
        let out = r.run("g.V(1).out('likes').id()").unwrap();
        assert_eq!(out, vec![GValue::Long(4)]);
    }

    #[test]
    fn label_index_lookup() {
        let g = diamond();
        let mut f = ElementFilter { labels: Some(vec!["node".into()]), ..Default::default() };
        match g.graph_elements(ElementKind::Vertices, &f).unwrap() {
            BackendOutput::Elements(es) => assert_eq!(es.len(), 4),
            other => panic!("{other:?}"),
        }
        f.labels = Some(vec!["ghost".into()]);
        match g.graph_elements(ElementKind::Vertices, &f).unwrap() {
            BackendOutput::Elements(es) => assert!(es.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn storage_duplicates_edges() {
        let g = diamond();
        // Both-direction duplication: stored bytes exceed a single copy of
        // all records by a wide margin.
        assert!(g.storage_bytes() > 5 * 40);
    }

    #[test]
    fn op_overhead_slows_queries() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        let fast = {
            let t = Instant::now();
            for _ in 0..20 {
                r.run("g.V(1).out('to')").unwrap();
            }
            t.elapsed()
        };
        g.set_op_overhead(Duration::from_micros(200));
        let slow = {
            let t = Instant::now();
            for _ in 0..20 {
                r.run("g.V(1).out('to')").unwrap();
            }
            t.elapsed()
        };
        assert!(slow > fast * 2, "overhead must be visible: {fast:?} vs {slow:?}");
    }

    #[test]
    fn prefix_keys_do_not_collide_across_ids() {
        // Vertex 1 and vertex 10 must have disjoint adjacency prefixes.
        let g = {
            let mut l = JanusLoader::new();
            l.add_vertex(Vertex::new(1i64, "n"));
            l.add_vertex(Vertex::new(10i64, "n"));
            l.add_vertex(Vertex::new(2i64, "n"));
            l.add_edge(Edge::new(100i64, "to", 1i64, 2i64));
            l.add_edge(Edge::new(101i64, "to", 10i64, 2i64));
            l.build()
        };
        let r = ScriptRunner::new(&g);
        assert_eq!(r.run("g.V(1).outE('to').count()").unwrap(), vec![GValue::Long(1)]);
        assert_eq!(r.run("g.V(10).outE('to').count()").unwrap(), vec![GValue::Long(1)]);
    }
}
