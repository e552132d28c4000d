//! Export + bulk-load machinery with per-phase timing (drives Table 3).
//!
//! The paper's loading pipeline for the standalone baselines is: export the
//! data out of the relational database (as CSV), load it into the graph
//! database, then open the graph. Each phase is timed separately here.

use std::time::{Duration, Instant};

use gremlin::structure::{Edge, Element, GValue, Vertex};
use gremlin::{BackendOutput, ElementFilter, ElementKind, GResult, GraphBackend};

use crate::janus::{JanusLikeDb, JanusLoader};
use crate::native::{NativeGraphDb, NativeLoader};

/// A graph exported out of the source database, plus the size of its CSV
/// rendering (Table 2's "CSV File" column).
pub struct ExportedGraph {
    pub vertices: Vec<Vertex>,
    pub edges: Vec<Edge>,
    pub csv_bytes: usize,
}

impl ExportedGraph {
    #[cfg(test)]
    pub(crate) fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    #[cfg(test)]
    pub(crate) fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

fn csv_value(v: &GValue) -> String {
    match v {
        GValue::Str(s) if s.contains(',') || s.contains('"') => {
            format!("\"{}\"", s.replace('"', "\"\""))
        }
        other => other.to_string(),
    }
}

/// Render a vertex as a CSV line (id,label,props...).
fn vertex_csv(v: &Vertex) -> String {
    let mut cells = vec![v.id.to_string(), v.label.to_string()];
    for (k, val) in &v.properties {
        cells.push(format!("{k}={}", csv_value(val)));
    }
    cells.join(",")
}

fn edge_csv(e: &Edge) -> String {
    let mut cells =
        vec![e.id.to_string(), e.label.to_string(), e.src.to_string(), e.dst.to_string()];
    for (k, val) in &e.properties {
        cells.push(format!("{k}={}", csv_value(val)));
    }
    cells.join(",")
}

/// Phase 1 of Table 3: export every vertex and edge out of the source
/// database through its graph view, rendering CSV along the way.
pub fn export_graph(backend: &dyn GraphBackend) -> GResult<(ExportedGraph, Duration)> {
    let start = Instant::now();
    let filter = ElementFilter::default();
    let vertices: Vec<Vertex> = match backend.graph_elements(ElementKind::Vertices, &filter)? {
        BackendOutput::Elements(es) => es
            .into_iter()
            .filter_map(|e| match e {
                Element::Vertex(v) => Some(v),
                Element::Edge(_) => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    let edges: Vec<Edge> = match backend.graph_elements(ElementKind::Edges, &filter)? {
        BackendOutput::Elements(es) => es
            .into_iter()
            .filter_map(|e| match e {
                Element::Edge(e) => Some(e),
                Element::Vertex(_) => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    // CSV rendering (what the paper's export step produces). We count
    // bytes instead of writing to disk.
    let mut csv_bytes = 0usize;
    for v in &vertices {
        csv_bytes += vertex_csv(v).len() + 1;
    }
    for e in &edges {
        csv_bytes += edge_csv(e).len() + 1;
    }
    let elapsed = start.elapsed();
    Ok((ExportedGraph { vertices, edges, csv_bytes }, elapsed))
}

/// Phase 2 of Table 3 (native): bulk-load into the native store.
pub fn load_native(graph: &ExportedGraph, cache_capacity: usize) -> (NativeGraphDb, Duration) {
    let start = Instant::now();
    let mut loader = NativeLoader::new();
    for v in &graph.vertices {
        loader.add_vertex(v.clone());
    }
    for e in &graph.edges {
        loader.add_edge(e.clone());
    }
    let db = loader.build(cache_capacity);
    (db, start.elapsed())
}

/// Phase 3 of Table 3 (native): open the graph — aggressive prefetch.
pub fn open_native(db: &NativeGraphDb) -> Duration {
    let start = Instant::now();
    db.open();
    start.elapsed()
}

/// Phase 2 of Table 3 (janus): bulk-load into the KV-backed store.
pub fn load_janus(graph: &ExportedGraph) -> (JanusLikeDb, Duration) {
    let start = Instant::now();
    let mut loader = JanusLoader::new();
    for v in &graph.vertices {
        loader.add_vertex(v.clone());
    }
    for e in &graph.edges {
        loader.add_edge(e.clone());
    }
    let db = loader.build();
    (db, start.elapsed())
}

/// One row of Table 3.
#[derive(Debug, Clone)]
pub struct LoadReport {
    pub system: String,
    pub export: Duration,
    pub load: Duration,
    pub open: Duration,
    pub storage_bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gremlin::memgraph::MemGraph;
    use gremlin::ScriptRunner;

    fn source() -> MemGraph {
        let g = MemGraph::new();
        for i in 0..10i64 {
            g.add_vertex(Vertex::new(i, "node").with_property("x", i));
        }
        for i in 0..9i64 {
            g.add_edge(Edge::new(100 + i, "to", i, i + 1).with_property("w", i));
        }
        g
    }

    #[test]
    fn export_counts_and_csv() {
        let src = source();
        let (graph, t) = export_graph(&src).unwrap();
        assert_eq!(graph.vertex_count(), 10);
        assert_eq!(graph.edge_count(), 9);
        assert!(graph.csv_bytes > 100);
        assert!(t.as_nanos() > 0);
    }

    #[test]
    fn loaded_stores_answer_like_the_source() {
        let src = source();
        let (graph, _) = export_graph(&src).unwrap();
        let (native, _) = load_native(&graph, 1000);
        let (janus, _) = load_janus(&graph);
        open_native(&native);
        let qs = [
            "g.V().count()",
            "g.E().count()",
            "g.V(3).out('to').id()",
            "g.V(3).in('to').id()",
            "g.V(0).outE('to').values('w')",
        ];
        let src_runner = ScriptRunner::new(&src);
        let native_runner = ScriptRunner::new(&native);
        let janus_runner = ScriptRunner::new(&janus);
        for q in qs {
            let a = src_runner.run(q).unwrap();
            let b = native_runner.run(q).unwrap();
            let c = janus_runner.run(q).unwrap();
            assert_eq!(a, b, "native differs on {q}");
            assert_eq!(a, c, "janus differs on {q}");
        }
    }

    #[test]
    fn storage_blowup_over_csv_is_visible() {
        let src = source();
        let (graph, _) = export_graph(&src).unwrap();
        let (native, _) = load_native(&graph, 10);
        let (janus, _) = load_janus(&graph);
        // Both stores use more bytes than the CSV rendering of the data.
        assert!(native.storage_bytes() > graph.csv_bytes);
        assert!(janus.storage_bytes() > graph.csv_bytes);
    }

    #[test]
    fn csv_escaping() {
        let v = Vertex::new(1, "x").with_property("name", "a,b\"c");
        let line = vertex_csv(&v);
        assert!(line.contains("\"a,b\"\"c\""), "{line}");
    }
}
