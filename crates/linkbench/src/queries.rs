//! The four LinkBench query templates (Table 1) and the workload driver.
//!
//! | LinkBench query        | Gremlin                                        |
//! |------------------------|------------------------------------------------|
//! | getNode(id, lbl)       | `g.V(id).hasLabel(lbl)`                        |
//! | countLinks(id1, lbl)   | `g.V(id1).outE(lbl).count()`                   |
//! | getLink(id1, lbl, id2) | `g.V(id1).outE(lbl).filter(inV().id() == id2)` |
//! | getLinkList(id1, lbl)  | `g.V(id1).outE(lbl)`                           |
//!
//! Note: the paper's Table 1 prints `outV()` in getLink; since the query's
//! purpose is "fetch the link from id1 *to* id2" and `outV()` of an
//! out-edge of `id1` is always `id1` itself, we take that as a typo for
//! `inV()` (see EXPERIMENTS.md).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gen::GraphData;

/// The four query types of the LinkBench query-only workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryKind {
    GetNode,
    CountLinks,
    GetLink,
    GetLinkList,
}

impl QueryKind {
    pub const ALL: [QueryKind; 4] =
        [QueryKind::GetNode, QueryKind::CountLinks, QueryKind::GetLink, QueryKind::GetLinkList];

    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::GetNode => "getNode",
            QueryKind::CountLinks => "countLinks",
            QueryKind::GetLink => "getLink",
            QueryKind::GetLinkList => "getLinkList",
        }
    }
}

/// Gremlin text for getNode(id, lbl).
pub fn get_node(id: i64, label: &str) -> String {
    format!("g.V({id}).hasLabel('{label}')")
}

/// Gremlin text for countLinks(id1, lbl).
pub(crate) fn count_links(id1: i64, label: &str) -> String {
    format!("g.V({id1}).outE('{label}').count()")
}

/// Gremlin text for getLink(id1, lbl, id2).
pub(crate) fn get_link(id1: i64, label: &str, id2: i64) -> String {
    format!("g.V({id1}).outE('{label}').filter(inV().id() == {id2})")
}

/// Gremlin text for getLinkList(id1, lbl).
pub(crate) fn get_link_list(id1: i64, label: &str) -> String {
    format!("g.V({id1}).outE('{label}')")
}

/// Deterministic stream of LinkBench queries of one kind, parameterized
/// from the generated dataset (hot vertices queried more often, existing
/// links used for getLink).
pub struct QueryStream<'a> {
    data: &'a GraphData,
    kind: QueryKind,
    rng: StdRng,
}

impl<'a> QueryStream<'a> {
    pub fn new(data: &'a GraphData, kind: QueryKind, seed: u64) -> QueryStream<'a> {
        QueryStream { data, kind, rng: StdRng::seed_from_u64(seed) }
    }

    /// Next query's Gremlin text.
    pub fn next_query(&mut self) -> String {
        match self.kind {
            QueryKind::GetNode => {
                let id = self.data.sample_vertex(&mut self.rng);
                get_node(id, self.data.vertex_label(id))
            }
            QueryKind::CountLinks => {
                let l = self.data.sample_link(&mut self.rng);
                count_links(l.id1, &l.label)
            }
            QueryKind::GetLink => {
                let l = self.data.sample_link(&mut self.rng);
                get_link(l.id1, &l.label, l.id2)
            }
            QueryKind::GetLinkList => {
                let l = self.data.sample_link(&mut self.rng);
                get_link_list(l.id1, &l.label)
            }
        }
    }

    /// A batch of `n` queries.
    pub fn batch(&mut self, n: usize) -> Vec<String> {
        (0..n).map(|_| self.next_query()).collect()
    }
}

/// A mixed stream cycling uniformly through all four kinds (used for
/// warmups and smoke tests).
pub fn mixed_batch(data: &GraphData, n: usize, seed: u64) -> Vec<(QueryKind, String)> {
    let mut streams: Vec<QueryStream<'_>> = QueryKind::ALL
        .iter()
        .map(|&k| QueryStream::new(data, k, seed ^ (k as u64).wrapping_mul(0x9e3779b9)))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let i = rng.gen_range(0..streams.len());
            (QueryKind::ALL[i], streams[i].next_query())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, LinkBenchConfig};
    use crate::tables::{materialize, overlay_config};
    use db2graph_core::Db2Graph;
    use gremlin::GValue;

    #[test]
    fn templates_render_table1_shapes() {
        assert_eq!(get_node(5, "vt1"), "g.V(5).hasLabel('vt1')");
        assert_eq!(count_links(5, "et2"), "g.V(5).outE('et2').count()");
        assert_eq!(get_link(5, "et2", 9), "g.V(5).outE('et2').filter(inV().id() == 9)");
        assert_eq!(get_link_list(5, "et2"), "g.V(5).outE('et2')");
    }

    #[test]
    fn streams_are_deterministic_and_valid() {
        let data = generate(&LinkBenchConfig::small().with_vertices(500));
        let mut a = QueryStream::new(&data, QueryKind::GetLink, 1);
        let mut b = QueryStream::new(&data, QueryKind::GetLink, 1);
        assert_eq!(a.batch(10), b.batch(10));
        let mut c = QueryStream::new(&data, QueryKind::GetLink, 2);
        assert_ne!(a.batch(10), c.batch(10));
    }

    #[test]
    fn all_query_kinds_execute_and_hit() {
        let data = generate(&LinkBenchConfig::small().with_vertices(400));
        let (db, _) = materialize(&data).unwrap();
        let graph = Db2Graph::open(db, &overlay_config()).unwrap();
        // getNode finds the vertex (label matches by construction).
        let mut s = QueryStream::new(&data, QueryKind::GetNode, 7);
        let out = graph.run(&s.next_query()).unwrap();
        assert_eq!(out.len(), 1);
        // getLink over an existing link returns exactly one edge.
        let mut s = QueryStream::new(&data, QueryKind::GetLink, 7);
        let out = graph.run(&s.next_query()).unwrap();
        assert_eq!(out.len(), 1);
        // countLinks returns a positive count for a sampled source.
        let mut s = QueryStream::new(&data, QueryKind::CountLinks, 7);
        let out = graph.run(&s.next_query()).unwrap();
        match &out[0] {
            GValue::Long(n) => assert!(*n >= 1),
            other => panic!("{other:?}"),
        }
        // getLinkList returns at least the sampled link.
        let mut s = QueryStream::new(&data, QueryKind::GetLinkList, 7);
        let out = graph.run(&s.next_query()).unwrap();
        assert!(!out.is_empty());
    }

    #[test]
    fn mixed_batch_covers_kinds() {
        let data = generate(&LinkBenchConfig::small().with_vertices(300));
        let batch = mixed_batch(&data, 64, 5);
        let kinds: std::collections::HashSet<QueryKind> = batch.iter().map(|(k, _)| *k).collect();
        assert_eq!(kinds.len(), 4);
    }
}
