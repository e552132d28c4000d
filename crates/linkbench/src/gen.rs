//! Synthetic LinkBench-like graph generation.
//!
//! Reproduces the *shape* of the paper's Table 2 datasets: a social-graph
//! workload with a power-law out-degree distribution (average degree
//! ≈ 4.2–4.3 with a very heavy maximum-degree tail), 10 vertex types, 10
//! edge types, 3 properties per vertex and 4 per edge. Row counts are
//! scaled down (the paper used 10M/100M vertices on a 256 GB server); the
//! benchmark harness scales cache budgets proportionally so the relative
//! behaviour reproduces.
//!
//! Generation is deterministic for a given seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct LinkBenchConfig {
    pub num_vertices: u64,
    /// Average out-degree; LinkBench's datasets sit at ~4.2–4.3.
    pub avg_degree: f64,
    pub num_vertex_types: usize,
    pub num_edge_types: usize,
    /// Power-law skew exponent for source-vertex sampling (0 = uniform,
    /// larger = heavier head). 0.7 yields a max degree of a few percent of
    /// all edges, like LinkBench.
    pub skew: f64,
    pub seed: u64,
}

impl LinkBenchConfig {
    /// A small dataset (CI-friendly; stands in for LinkBench-10M).
    pub fn small() -> LinkBenchConfig {
        LinkBenchConfig {
            num_vertices: 10_000,
            avg_degree: 4.3,
            num_vertex_types: 10,
            num_edge_types: 10,
            skew: 0.7,
            seed: 42,
        }
    }

    /// A larger dataset (stands in for LinkBench-100M; 10× the small one).
    pub fn large() -> LinkBenchConfig {
        LinkBenchConfig { num_vertices: 100_000, seed: 43, ..LinkBenchConfig::small() }
    }

    /// Scale to an arbitrary vertex count.
    pub fn with_vertices(mut self, n: u64) -> LinkBenchConfig {
        self.num_vertices = n;
        self
    }
}

/// A generated vertex: 3 properties (version, time, data) per LinkBench's
/// node table.
#[derive(Debug, Clone)]
pub struct NodeData {
    pub id: i64,
    pub label: String,
    pub version: i64,
    pub time: i64,
    pub data: String,
}

/// A generated edge: 4 properties (visibility, time, version, data) per
/// LinkBench's link table.
#[derive(Debug, Clone)]
pub struct LinkData {
    pub id1: i64,
    pub id2: i64,
    pub label: String,
    pub visibility: i64,
    pub time: i64,
    pub version: i64,
    pub data: String,
}

/// A complete generated dataset.
#[derive(Debug, Clone)]
pub struct GraphData {
    pub nodes: Vec<NodeData>,
    pub links: Vec<LinkData>,
    pub(crate) config: LinkBenchConfig,
}

/// Table 2 statistics for a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    pub num_vertices: u64,
    pub num_edges: u64,
    pub avg_degree: f64,
    pub max_degree: u64,
    pub csv_bytes: u64,
}

/// Sample a power-law-distributed vertex rank in `[0, n)`:
/// `rank = floor(n * u^(1/(1-skew)))` puts mass `∝ rank^(-skew)` on low
/// ranks.
fn sample_rank(rng: &mut StdRng, n: u64, skew: f64) -> u64 {
    if skew <= 0.0 {
        return rng.gen_range(0..n);
    }
    let a = 1.0 / (1.0 - skew.min(0.99));
    let u: f64 = rng.gen::<f64>();
    ((n as f64) * u.powf(a)).floor().min((n - 1) as f64) as u64
}

fn random_payload(rng: &mut StdRng, len: usize) -> String {
    const CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    (0..len).map(|_| CHARS[rng.gen_range(0..CHARS.len())] as char).collect()
}

/// Generate a dataset.
pub fn generate(config: &LinkBenchConfig) -> GraphData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let n = config.num_vertices;
    let mut nodes = Vec::with_capacity(n as usize);
    for id in 0..n as i64 {
        let vt = rng.gen_range(0..config.num_vertex_types);
        nodes.push(NodeData {
            id,
            label: format!("vt{vt}"),
            version: rng.gen_range(1..100),
            time: 1_500_000_000 + rng.gen_range(0..100_000_000),
            data: random_payload(&mut rng, 32),
        });
    }
    let target_edges = (n as f64 * config.avg_degree) as u64;
    let mut links = Vec::with_capacity(target_edges as usize);
    let mut seen: HashSet<(i64, u8, i64)> = HashSet::with_capacity(target_edges as usize);
    let mut attempts = 0u64;
    while (links.len() as u64) < target_edges && attempts < target_edges * 4 {
        attempts += 1;
        let src = sample_rank(&mut rng, n, config.skew) as i64;
        let dst = rng.gen_range(0..n) as i64;
        if src == dst {
            continue;
        }
        let et = rng.gen_range(0..config.num_edge_types) as u8;
        // Implicit edge ids require (src, label, dst) uniqueness.
        if !seen.insert((src, et, dst)) {
            continue;
        }
        links.push(LinkData {
            id1: src,
            id2: dst,
            label: format!("et{et}"),
            visibility: rng.gen_range(0..2),
            time: 1_500_000_000 + rng.gen_range(0..100_000_000),
            version: rng.gen_range(1..50),
            data: random_payload(&mut rng, 20),
        });
    }
    GraphData { nodes, links, config: config.clone() }
}

impl GraphData {
    /// Compute Table 2's statistics.
    pub fn stats(&self) -> DatasetStats {
        let mut out_deg: std::collections::HashMap<i64, u64> = std::collections::HashMap::new();
        for l in &self.links {
            *out_deg.entry(l.id1).or_insert(0) += 1;
        }
        let max_degree = out_deg.values().copied().max().unwrap_or(0);
        let csv_bytes: u64 =
            self.nodes.iter().map(|v| (20 + v.label.len() + v.data.len() + 22) as u64).sum::<u64>()
                + self
                    .links
                    .iter()
                    .map(|e| (30 + e.label.len() + e.data.len() + 30) as u64)
                    .sum::<u64>();
        DatasetStats {
            num_vertices: self.nodes.len() as u64,
            num_edges: self.links.len() as u64,
            avg_degree: self.links.len() as f64 / self.nodes.len() as f64,
            max_degree,
            csv_bytes,
        }
    }

    /// Random existing vertex id, biased toward hot (high-degree) vertices
    /// like LinkBench's access distributions.
    pub fn sample_vertex(&self, rng: &mut StdRng) -> i64 {
        sample_rank(rng, self.nodes.len() as u64, self.config.skew) as i64
    }

    /// Random existing edge (for getLink-style queries).
    pub(crate) fn sample_link(&self, rng: &mut StdRng) -> &LinkData {
        &self.links[rng.gen_range(0..self.links.len())]
    }

    /// Label of a vertex by id (ids are dense 0..n).
    pub fn vertex_label(&self, id: i64) -> &str {
        &self.nodes[id as usize].label
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = LinkBenchConfig::small().with_vertices(500);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.nodes.len(), b.nodes.len());
        assert_eq!(a.links.len(), b.links.len());
        assert_eq!(a.links[0].id1, b.links[0].id1);
        assert_eq!(a.nodes[10].data, b.nodes[10].data);
    }

    #[test]
    fn shape_matches_table2() {
        let cfg = LinkBenchConfig::small().with_vertices(2_000);
        let g = generate(&cfg);
        let s = g.stats();
        assert_eq!(s.num_vertices, 2_000);
        // Average degree near the configured 4.3 (dedup/self-loop losses
        // allowed).
        assert!(s.avg_degree > 3.5 && s.avg_degree < 4.4, "{}", s.avg_degree);
        // Heavy tail: max degree far above the average.
        assert!(s.max_degree as f64 > 10.0 * s.avg_degree, "max {}", s.max_degree);
        assert!(s.csv_bytes > 0);
    }

    #[test]
    fn labels_span_the_type_space() {
        let g = generate(&LinkBenchConfig::small().with_vertices(2_000));
        let vlabels: std::collections::HashSet<&str> =
            g.nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(vlabels.len(), 10);
        let elabels: std::collections::HashSet<&str> =
            g.links.iter().map(|l| l.label.as_str()).collect();
        assert_eq!(elabels.len(), 10);
    }

    #[test]
    fn edge_keys_are_unique() {
        let g = generate(&LinkBenchConfig::small().with_vertices(1_000));
        let mut seen = HashSet::new();
        for l in &g.links {
            assert!(seen.insert((l.id1, l.label.clone(), l.id2)));
            assert_ne!(l.id1, l.id2);
        }
    }

    #[test]
    fn sampling_prefers_hot_vertices() {
        let g = generate(&LinkBenchConfig::small().with_vertices(10_000));
        let mut rng = StdRng::seed_from_u64(7);
        let mut low = 0;
        for _ in 0..1000 {
            if g.sample_vertex(&mut rng) < 1000 {
                low += 1;
            }
        }
        // With skew 0.7, far more than 10% of samples land in the first 10%.
        assert!(low > 400, "{low}");
    }

    #[test]
    fn uniform_sampling_when_skew_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut low = 0;
        for _ in 0..1000 {
            if sample_rank(&mut rng, 1000, 0.0) < 100 {
                low += 1;
            }
        }
        assert!((50..200).contains(&low), "{low}");
    }
}
