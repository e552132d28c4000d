//! Cross-system equivalence: the overlay backend, the native store, the
//! Janus-like store, and the in-memory reference backend must all give the
//! same answers to the same Gremlin queries over the same generated
//! LinkBench graph. This is the correctness backbone behind the Figure 5/6
//! comparisons — a benchmark between systems is only meaningful if they
//! compute the same thing.

use std::sync::Arc;

use db2graph::core::{Db2Graph, StrategyConfig};
use db2graph::gremlin::memgraph::MemGraph;
use db2graph::gremlin::{GValue, GraphBackend, IdentityRemoval, ScriptRunner, StrategyRegistry};
use db2graph::gstore::{JanusLoader, NativeLoader};
use db2graph::linkbench::{generate, materialize, overlay_config, to_elements, LinkBenchConfig};

struct Systems {
    data: db2graph::linkbench::GraphData,
    graph: Arc<Db2Graph>,
    native: db2graph::gstore::NativeGraphDb,
    janus: db2graph::gstore::JanusLikeDb,
    mem: MemGraph,
    registry: StrategyRegistry,
}

fn build(vertices: u64, seed: u64) -> Systems {
    let mut cfg = LinkBenchConfig::small().with_vertices(vertices);
    cfg.seed = seed;
    let data = generate(&cfg);
    let (db, _) = materialize(&data).unwrap();
    let graph = Db2Graph::open(db, &overlay_config()).unwrap();

    let (vs, es) = to_elements(&data);
    let mut nl = NativeLoader::new();
    let mut jl = JanusLoader::new();
    let mem = MemGraph::new();
    for v in &vs {
        nl.add_vertex(v.clone());
        jl.add_vertex(v.clone());
        mem.add_vertex(v.clone());
    }
    for e in &es {
        nl.add_edge(e.clone());
        jl.add_edge(e.clone());
        mem.add_edge(e.clone());
    }
    let native = nl.build(vs.len() + es.len());
    let janus = jl.build();

    let mut registry = StrategyRegistry::new();
    registry.add(Arc::new(IdentityRemoval));
    for s in StrategyConfig::default().build() {
        registry.add(s);
    }
    Systems { data, graph, native, janus, mem, registry }
}

impl Systems {
    /// Whether `q` fails on each system, in the order db2graph, native,
    /// janus, memgraph.
    fn fails(&self, q: &str) -> Vec<bool> {
        let backends: Vec<&dyn GraphBackend> = vec![&self.native, &self.janus, &self.mem];
        let mut failed = vec![self.graph.run(q).is_err()];
        for b in backends {
            let runner = ScriptRunner::new(b).with_strategies(self.registry.clone());
            failed.push(runner.run(q).is_err());
        }
        failed
    }

    fn run_all(&self, q: &str) -> Vec<Vec<String>> {
        let norm = |vs: Vec<GValue>| -> Vec<String> {
            let mut out: Vec<String> = vs
                .iter()
                .map(|v| match v {
                    GValue::Vertex(vx) => format!("v[{}]", vx.id),
                    GValue::Edge(e) => format!("e[{}->{}:{}]", e.src, e.dst, e.label),
                    other => other.to_string(),
                })
                .collect();
            out.sort();
            out
        };
        let backends: Vec<&dyn GraphBackend> = vec![&self.native, &self.janus, &self.mem];
        let mut results = vec![norm(self.graph.run(q).unwrap())];
        for b in backends {
            let runner = ScriptRunner::new(b).with_strategies(self.registry.clone());
            results.push(norm(runner.run(q).unwrap()));
        }
        results
    }

    fn assert_agree(&self, q: &str) {
        let results = self.run_all(q);
        let names = ["db2graph", "native", "janus", "memgraph"];
        for i in 1..results.len() {
            assert_eq!(
                results[0], results[i],
                "query {q}: {} disagrees with {}",
                names[i], names[0]
            );
        }
    }
}

#[test]
fn full_battery_agrees_across_systems() {
    let sys = build(400, 7);
    // Pick real parameters from the dataset so queries hit data.
    let hot = sys.data.links[0].clone();
    let cold = sys.data.nodes.last().unwrap().id;
    let queries = vec![
        "g.V().count()".to_string(),
        "g.E().count()".to_string(),
        format!("g.V({}).hasLabel('{}')", hot.id1, sys.data.vertex_label(hot.id1)),
        format!("g.V({}).outE('{}').count()", hot.id1, hot.label),
        format!("g.V({}).outE('{}')", hot.id1, hot.label),
        format!("g.V({}).outE('{}').filter(inV().id() == {})", hot.id1, hot.label, hot.id2),
        format!("g.V({}).out('{}').id()", hot.id1, hot.label),
        format!("g.V({}).in('{}').id()", hot.id2, hot.label),
        format!("g.V({}).both('{}').id()", hot.id1, hot.label),
        format!("g.V({cold}).outE().count()"),
        "g.V().hasLabel('vt3').count()".to_string(),
        "g.E().hasLabel('et2').count()".to_string(),
        format!("g.V({}).outE().has('visibility', 1).count()", hot.id1),
        format!("g.V({}).out().dedup().count()", hot.id1),
        format!("g.V({}).repeat(out('{}').dedup()).times(2).dedup().count()", hot.id1, hot.label),
        format!("g.V({}).outE('{}').values('version').sum()", hot.id1, hot.label),
        format!("g.V({}).outE('{}').inV().values('time').max()", hot.id1, hot.label),
        "g.V().values('version').mean()".to_string(),
        format!("g.V({}).out().order().by('time').limit(3).id()", hot.id1),
        format!("g.V({}).where(__.out('{}')).id()", hot.id1, hot.label),
        format!("g.V({}).not(out('zzz')).id()", hot.id1),
        // Filters with no SQL form (an id range, an empty `within()`) make
        // the plan inexact: the aggregate or projection must then run over
        // the matching elements, not over every row of the table.
        "g.V().has('id', gt(150)).count()".to_string(),
        "g.V().has('id', gt(150)).values('version').count()".to_string(),
        "g.V().has('id', gt(150)).values('version').sum()".to_string(),
        "g.V().has('version', within()).count()".to_string(),
        "g.E().has('version', within()).values('version').count()".to_string(),
        // Hops whose elements later steps read for ids only select no
        // vertex property columns (the benchmark's three 2-hop shapes
        // among them); a pushed predicate still reads its own column.
        format!("g.V({}).out().out().count()", hot.id1),
        format!("g.V({}).out().out().values('data')", hot.id1),
        format!("g.V({}).out('et1','et2','et3').out('et1','et2','et3').dedup().count()", hot.id1),
        format!("g.V({}).out().label()", hot.id1),
        format!("g.V({}).out().has('version', gt(3)).out().count()", hot.id1),
        format!("g.V({}).out().has('version', gt(3)).out().id()", hot.id1),
        format!("g.V({}).outE().inV().out().id()", hot.id1),
        format!("g.V({}).in().in().count()", hot.id2),
        format!("g.V({}).both().both().dedup().count()", hot.id1),
    ];
    for q in &queries {
        sys.assert_agree(q);
    }
}

#[test]
fn agreement_holds_on_a_second_seed() {
    let sys = build(250, 99);
    let link = sys.data.links[sys.data.links.len() / 2].clone();
    for q in [
        format!("g.V({}).outE('{}')", link.id1, link.label),
        format!("g.V({}).out('{}').values('data')", link.id1, link.label),
        format!("g.V({}).bothE().count()", link.id2),
        "g.V().hasLabel('vt0', 'vt1').count()".to_string(),
    ] {
        sys.assert_agree(&q);
    }
}

#[test]
fn multi_label_union_and_paths_agree() {
    let sys = build(200, 3);
    let link = sys.data.links[1].clone();
    sys.assert_agree(&format!(
        "g.V({}).union(out('{}'), in('{}')).dedup().count()",
        link.id1, link.label, link.label
    ));
    sys.assert_agree(&format!("g.V({}).out('{}').path().count()", link.id1, link.label));
}

/// A vertex step needs vertices: from an edge it fails on every system,
/// the same way, instead of returning nothing on some of them.
#[test]
fn vertex_step_over_an_edge_fails_everywhere() {
    let sys = build(200, 3);
    for q in ["g.E().limit(1).out()", "g.E().limit(1).outE()", "g.E().limit(1).both().count()"] {
        assert_eq!(sys.fails(q), [true; 4], "query {q}: db2graph, native, janus, memgraph");
    }
}

/// A sum of longs past 2^53 is exact on every system. The overlay pushes
/// `values('x').sum()` into SQL and the other systems fold it in the
/// backend; each must equal the step form, `.fold().unfold().sum()`, which
/// sums in integer arithmetic.
#[test]
fn long_sums_past_2_pow_53_agree_with_the_step_form() {
    use db2graph::core::{OverlayConfig, VTableConfig};
    use db2graph::gremlin::Vertex;
    use db2graph::reldb::Database;

    let big = (1i64 << 53) + 1;
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE N (id BIGINT PRIMARY KEY, x BIGINT)").unwrap();
    db.execute(&format!("INSERT INTO N VALUES (1, {big}), (2, 0)")).unwrap();
    let config = OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "N".into(),
            prefixed_id: false,
            id: "id".into(),
            fix_label: true,
            label: "'n'".into(),
            properties: Some(vec!["x".into()]),
        }],
        e_tables: vec![],
    };
    let graph = Db2Graph::open(db, &config).unwrap();
    let (mut nl, mut jl, mem) = (NativeLoader::new(), JanusLoader::new(), MemGraph::new());
    for (id, x) in [(1i64, big), (2, 0)] {
        let v = Vertex::new(id, "n").with_property("x", x);
        nl.add_vertex(v.clone());
        jl.add_vertex(v.clone());
        mem.add_vertex(v);
    }
    let (native, janus) = (nl.build(2), jl.build());
    let backends: [&dyn GraphBackend; 3] = [&native, &janus, &mem];
    // The strategies push the sum into each backend, as the overlay's do.
    let mut registry = StrategyRegistry::new();
    for s in StrategyConfig::default().build() {
        registry.add(s);
    }
    let step_form = "g.V().values('x').fold().unfold().sum()";
    let expected = graph.run(step_form).unwrap();
    assert_eq!(expected, vec![GValue::Long(big)]);
    for q in ["g.V().values('x').sum()", step_form] {
        assert_eq!(graph.run(q).unwrap(), expected, "db2graph: {q}");
        for (name, b) in ["native", "janus", "memgraph"].iter().zip(backends) {
            let runner = ScriptRunner::new(b).with_strategies(registry.clone());
            assert_eq!(runner.run(q).unwrap(), expected, "{name}: {q}");
        }
    }
}
