//! Cross-system equivalence: the overlay backend, the native store, the
//! Janus-like store, and the in-memory reference backend must all give the
//! same answers to the same Gremlin queries over the same generated
//! LinkBench graph. This is the correctness backbone behind the Figure 5/6
//! comparisons — a benchmark between systems is only meaningful if they
//! compute the same thing.
//!
//! Strategies are rewrites that must never change an answer, so each
//! query also runs twice with every step as written: on the overlay with
//! no strategies, and on the in-memory backend with `IdentityRemoval`
//! alone. Every system is compared against the first of these.

use std::sync::Arc;

use db2graph::core::{Db2Graph, GraphOptions, OverlayConfig, StrategyConfig};
use db2graph::gremlin::memgraph::MemGraph;
use db2graph::gremlin::{
    Edge, GValue, GraphBackend, IdentityRemoval, ScriptRunner, StrategyRegistry, Vertex,
};
use db2graph::gstore::{JanusLoader, NativeLoader};
use db2graph::linkbench::{generate, materialize, overlay_config, to_elements, LinkBenchConfig};
use db2graph::reldb::Database;

/// The six runs of each query: the four systems with the default
/// strategies, then the two with none.
const RUNS: [&str; 6] = [
    "db2graph",
    "native",
    "janus",
    "memgraph",
    "db2graph without strategies",
    "memgraph without strategies",
];
/// The run every other is compared against.
const REFERENCE: usize = 4;

struct Systems {
    graph: Arc<Db2Graph>,
    reference: Arc<Db2Graph>,
    native: db2graph::gstore::NativeGraphDb,
    janus: db2graph::gstore::JanusLikeDb,
    mem: MemGraph,
    registry: StrategyRegistry,
    identity: StrategyRegistry,
}

fn build(vertices: u64, seed: u64) -> (db2graph::linkbench::GraphData, Systems) {
    let mut cfg = LinkBenchConfig::small().with_vertices(vertices);
    cfg.seed = seed;
    let data = generate(&cfg);
    let (db, _) = materialize(&data).unwrap();
    let (vs, es) = to_elements(&data);
    let sys = systems(db, &overlay_config(), &vs, &es);
    (data, sys)
}

/// The six runs over one graph: `db` under `config` for the overlay, and
/// `vs`/`es` loaded into the other systems.
fn systems(db: Arc<Database>, config: &OverlayConfig, vs: &[Vertex], es: &[Edge]) -> Systems {
    let graph = Db2Graph::open(db.clone(), config).unwrap();
    let none = GraphOptions { strategies: StrategyConfig::none(), ..Default::default() };
    let reference = Db2Graph::open_with_options(db, config, none).unwrap();

    let mut nl = NativeLoader::new();
    let mut jl = JanusLoader::new();
    let mem = MemGraph::new();
    for v in vs {
        nl.add_vertex(v.clone());
        jl.add_vertex(v.clone());
        mem.add_vertex(v.clone());
    }
    for e in es {
        nl.add_edge(e.clone());
        jl.add_edge(e.clone());
        mem.add_edge(e.clone());
    }
    let native = nl.build(vs.len() + es.len());
    let janus = jl.build();

    let mut identity = StrategyRegistry::new();
    identity.add(Arc::new(IdentityRemoval));
    let mut registry = identity.clone();
    for s in StrategyConfig::default().build() {
        registry.add(s);
    }
    Systems { graph, reference, native, janus, mem, registry, identity }
}

impl Systems {
    /// `q` on each of the six [`RUNS`], in order.
    fn results(&self, q: &str) -> Vec<Result<Vec<GValue>, String>> {
        let on = |b: &dyn GraphBackend, strategies: &StrategyRegistry| {
            ScriptRunner::new(b)
                .with_strategies(strategies.clone())
                .run(q)
                .map_err(|e| e.to_string())
        };
        vec![
            self.graph.run(q).map_err(|e| e.to_string()),
            on(&self.native, &self.registry),
            on(&self.janus, &self.registry),
            on(&self.mem, &self.registry),
            self.reference.run(q).map_err(|e| e.to_string()),
            on(&self.mem, &self.identity),
        ]
    }

    /// Whether `q` fails on each of the six [`RUNS`].
    fn fails(&self, q: &str) -> Vec<bool> {
        self.results(q).iter().map(Result::is_err).collect()
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
        let results = self.results(q).into_iter().zip(RUNS);
        results.map(|(r, name)| norm(r.unwrap_or_else(|e| panic!("{name}: {q}: {e}")))).collect()
    }

    fn assert_agree(&self, q: &str) {
        let results = self.run_all(q);
        for (result, name) in results.iter().zip(RUNS) {
            assert_eq!(
                *result, results[REFERENCE],
                "query {q}: {name} disagrees with {}",
                RUNS[REFERENCE]
            );
        }
    }
}

#[test]
fn full_battery_agrees_across_systems() {
    let (data, sys) = build(400, 7);
    // Pick real parameters from the dataset so queries hit data.
    let hot = data.links[0].clone();
    let cold = data.nodes.last().unwrap().id;
    let queries = vec![
        "g.V().count()".to_string(),
        "g.E().count()".to_string(),
        format!("g.V({}).hasLabel('{}')", hot.id1, data.vertex_label(hot.id1)),
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
        // A path starts at the start vertex, so a walk back to it is not
        // simple.
        format!("g.V({}).out().out().simplePath().count()", hot.id1),
        format!("g.V({}).out('{}').path()", hot.id1, hot.label),
    ];
    for q in &queries {
        sys.assert_agree(q);
    }
}

#[test]
fn agreement_holds_on_a_second_seed() {
    let (data, sys) = build(250, 99);
    let link = data.links[data.links.len() / 2].clone();
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
    let (data, sys) = build(200, 3);
    let link = data.links[1].clone();
    sys.assert_agree(&format!(
        "g.V({}).union(out('{}'), in('{}')).dedup().count()",
        link.id1, link.label, link.label
    ));
    sys.assert_agree(&format!("g.V({}).out('{}').path().count()", link.id1, link.label));
}

/// A vertex step needs vertices: from an edge it fails on every system,
/// the same way, instead of returning nothing on some of them. So does a
/// numeric aggregate over strings, pushed into SQL or not, and on the
/// overlay and the in-memory backend it fails with the step form's error,
/// which names the first string.
#[test]
fn vertex_step_over_an_edge_fails_everywhere() {
    let (_, sys) = build(200, 3);
    let mut queries = vec![
        "g.E().limit(1).out()".to_string(),
        "g.E().limit(1).outE()".to_string(),
        "g.E().limit(1).both().count()".to_string(),
    ];
    let mut aggregates = Vec::new();
    for op in ["min", "max", "sum", "mean"] {
        aggregates.push(format!("g.V().hasLabel('vt1').values('data').{op}()"));
        aggregates.push(format!("g.E().hasLabel('et1').values('data').{op}()"));
    }
    queries.extend(aggregates.iter().cloned());
    for q in &queries {
        assert_eq!(sys.fails(q), [true; 6], "query {q}: {RUNS:?}");
    }
    // The overlay and MemGraph, with and without strategies.
    let same_text = [0, 3, 4, 5];
    for q in &aggregates {
        let errors: Vec<String> = sys.results(q).into_iter().map(Result::unwrap_err).collect();
        for i in same_text {
            assert_eq!(
                errors[i], errors[REFERENCE],
                "query {q}: {} vs {}",
                RUNS[i], RUNS[REFERENCE]
            );
        }
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

/// Aggregates at the edges of the long range: a sum past it clamps to
/// `i64::MAX`, a mean divides the exact sum, and a min or max over a long
/// and a double column is a double. The overlay pushes each into SQL,
/// where a BIGINT `SUM` past the range is an error it must fold past;
/// every run must equal the step form, `.fold().unfold()`.
#[test]
fn aggregates_past_the_long_range_agree_with_the_step_form() {
    use db2graph::core::VTableConfig;

    let big = 1i64 << 62;
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE N (id BIGINT PRIMARY KEY, x BIGINT, m BIGINT, s BIGINT, y DOUBLE)")
        .unwrap();
    let rows = [(1i64, big, i64::MAX, -1i64, 2.5f64), (2, big, i64::MAX, 3, 0.5)];
    let mut vs = Vec::new();
    for (id, x, m, s, y) in rows {
        db.execute(&format!("INSERT INTO N VALUES ({id}, {x}, {m}, {s}, {y})")).unwrap();
        let v = Vertex::new(id, "n").with_property("x", x).with_property("m", m);
        vs.push(v.with_property("s", s).with_property("y", y));
    }
    let config = OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "N".into(),
            prefixed_id: false,
            id: "id".into(),
            fix_label: true,
            label: "'n'".into(),
            properties: Some(vec!["x".into(), "m".into(), "s".into(), "y".into()]),
        }],
        e_tables: vec![],
    };
    let sys = systems(db, &config, &vs, &[]);
    let cases = [
        ("values('x').sum()", GValue::Long(i64::MAX)),
        ("values('m').mean()", GValue::Double(9.223372036854776e18)),
        ("values('s', 'y').min()", GValue::Double(-1.0)),
        ("values('s', 'y').max()", GValue::Double(3.0)),
        ("values('s').min()", GValue::Long(-1)),
    ];
    for (tail, expected) in cases {
        let (agg, op) = tail.rsplit_once('.').unwrap();
        for q in [format!("g.V().{tail}"), format!("g.V().{agg}.fold().unfold().{op}")] {
            for (result, name) in sys.results(&q).into_iter().zip(RUNS) {
                assert_eq!(result, Ok(vec![expected.clone()]), "{name}: {q}");
            }
        }
    }
}
