//! Allocations per operation, held as a budget.
//!
//! Wall-clock timings swing from host to host; the number of heap
//! allocations an operation makes does not. This binary installs a
//! counting global allocator (std only, so it is a test binary of its
//! own) and measures, on a generated LinkBench graph with the product
//! defaults:
//!
//! - each Table 1 op, as the mean over a fixed `mixed_batch` sample;
//! - the max-degree getLinkList (`g.V(hub).outE(l)`), its `.id()` form,
//!   and the same rows read by the hand-written prepared statement;
//! - `g.V(x)` and `g.V(x).id()`, which read all ten vertex tables;
//! - the layers under a query: `gremlin::parser::parse`,
//!   `Db2Graph::plan`, and a hand-written point SELECT through
//!   `Database::execute_prepared`.
//!
//! Every row runs at 1 and 2 intra-query threads and must stay within its
//! committed count in [`BUDGET`] plus [`SLACK`]; the hub's edges must also
//! cost at most twice the allocations of its direct statement. A change
//! that lowers a count lowers its row here. On failure the whole table is
//! printed.
//!
//! Run: `cargo test --release --test alloc_budget -- --nocapture`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use db2graph::core::{Db2Graph, GraphOptions};
use db2graph::gremlin::parser::parse;
use db2graph::linkbench::{
    generate, materialize, mixed_batch, overlay_config, GraphData, LinkBenchConfig, QueryKind,
};
use db2graph::reldb::{Database, Value};

struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn note(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Vertices of the generated graph (LinkBench's small config otherwise).
const VERTICES: u64 = 20_000;
/// Size of the fixed mixed Table 1 sample, and its seed.
const SAMPLE: usize = 200;
const SAMPLE_SEED: u64 = 7;
/// Timed runs of each single-query row, after one warm-up run.
const RUNS: u64 = 20;
/// The vertex `g.V(x)` reads.
const X: i64 = 17;
/// Allowance over a committed count: covers the 1-vs-2-thread spread and
/// the debug-vs-release spread.
const SLACK: u64 = 8;

/// Committed allocations per op, one per row; both thread counts must stay
/// within `count + SLACK`.
const BUDGET: &[(&str, u64)] = &[
    ("getNode", 124),
    ("countLinks", 117),
    ("getLink", 180),
    ("getLinkList", 171),
    ("hub outE(l)", 2464),
    ("hub outE(l).id()", 1979),
    ("hub direct SELECT", 1447),
    ("g.V(x)", 717),
    ("g.V(x).id()", 570),
    ("parse", 20),
    ("Db2Graph::plan", 34),
    ("getNode direct SELECT", 38),
];

/// The allocation and byte counters so far.
fn counters() -> (u64, u64) {
    (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst))
}

/// Mean allocations and bytes of one `f()`, over `RUNS` runs after one
/// warm-up, rounded to the nearest integer.
fn per_run(mut f: impl FnMut()) -> (u64, u64) {
    f();
    let (a0, b0) = counters();
    for _ in 0..RUNS {
        f();
    }
    let (a1, b1) = counters();
    ((a1 - a0 + RUNS / 2) / RUNS, (b1 - b0 + RUNS / 2) / RUNS)
}

/// The source and label with the most out-links; ties go to the smaller
/// source id, then the smaller label.
fn hub(data: &GraphData) -> (i64, String) {
    let mut degree: HashMap<(i64, &str), usize> = HashMap::new();
    for l in &data.links {
        *degree.entry((l.id1, l.label.as_str())).or_default() += 1;
    }
    let ((id, label), _) = degree
        .into_iter()
        .max_by(|(a, da), (b, db)| da.cmp(db).then(b.cmp(a)))
        .expect("the graph has links");
    (id, label.to_string())
}

struct Row {
    name: &'static str,
    threads: usize,
    allocs: u64,
    bytes: u64,
}

fn measure(db: &Arc<Database>, data: &GraphData, threads: usize) -> Vec<Row> {
    let options = GraphOptions { threads: Some(threads), ..GraphOptions::default() };
    let graph =
        Db2Graph::open_with_options(db.clone(), &overlay_config(), options).expect("open overlay");
    let mut rows = Vec::new();
    let mut push = |name: &'static str, (allocs, bytes): (u64, u64)| {
        rows.push(Row { name, threads, allocs, bytes });
    };

    // Table 1: per-kind means over one fixed sample, after one warm-up pass.
    let sample = mixed_batch(data, SAMPLE, SAMPLE_SEED);
    for (_, q) in &sample {
        graph.run(q).expect("sample query");
    }
    let mut per_kind: HashMap<QueryKind, (u64, u64, u64)> = HashMap::new();
    for (kind, q) in &sample {
        let (a0, b0) = counters();
        drop(graph.run(q).expect("sample query"));
        let (a1, b1) = counters();
        let e = per_kind.entry(*kind).or_default();
        *e = (e.0 + a1 - a0, e.1 + b1 - b0, e.2 + 1);
    }
    for kind in QueryKind::ALL {
        let (a, b, n) = per_kind[&kind];
        push(kind.name(), ((a + n / 2) / n, (b + n / 2) / n));
    }

    let (hub_id, label) = hub(data);
    let hub_query = format!("g.V({hub_id}).outE('{label}')");
    let hub_ids = format!("{hub_query}.id()");
    push("hub outE(l)", per_run(|| drop(graph.run(&hub_query).unwrap())));
    push("hub outE(l).id()", per_run(|| drop(graph.run(&hub_ids).unwrap())));
    let direct = db
        .prepare(&format!(
            "SELECT id1, id2, visibility, time, version, data FROM links_{label} WHERE id1 = ?"
        ))
        .unwrap();
    let hub_param = [Value::Bigint(hub_id)];
    push("hub direct SELECT", per_run(|| drop(db.execute_prepared(&direct, &hub_param).unwrap())));

    let vx = format!("g.V({X})");
    let vx_id = format!("g.V({X}).id()");
    push("g.V(x)", per_run(|| drop(graph.run(&vx).unwrap())));
    push("g.V(x).id()", per_run(|| drop(graph.run(&vx_id).unwrap())));

    // The layers under a query, each over the whole sample.
    let over_sample = |f: &dyn Fn(&str)| {
        let n = sample.len() as u64;
        let (allocs, bytes) = per_run(|| sample.iter().for_each(|(_, q)| f(q)));
        ((allocs + n / 2) / n, (bytes + n / 2) / n)
    };
    push("parse", over_sample(&|q| drop(parse(q).unwrap())));
    push("Db2Graph::plan", over_sample(&|q| drop(graph.plan(q).unwrap())));

    let node_label = data.vertex_label(X);
    let point = db
        .prepare(&format!("SELECT id, version, time, data FROM nodes_{node_label} WHERE id = ?"))
        .unwrap();
    let x_param = [Value::Bigint(X)];
    push("getNode direct SELECT", per_run(|| drop(db.execute_prepared(&point, &x_param).unwrap())));
    rows
}

fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<24} {:>7} {:>10} {:>11} {:>8}\n",
        "row", "threads", "allocs/op", "bytes/op", "budget"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>7} {:>10} {:>11} {:>8}\n",
            r.name,
            r.threads,
            r.allocs,
            r.bytes,
            budget(r.name)
        ));
    }
    out
}

fn budget(name: &str) -> u64 {
    BUDGET.iter().find(|(n, _)| *n == name).map(|&(_, b)| b).expect("every row has a budget")
}

#[test]
fn allocations_per_op_stay_within_budget() {
    let data = generate(&LinkBenchConfig::small().with_vertices(VERTICES));
    let (db, _) = materialize(&data).expect("materialize");
    let mut rows = measure(&db, &data, 1);
    rows.extend(measure(&db, &data, 2));
    let report = table(&rows);
    println!("{report}");

    let over: Vec<&Row> = rows.iter().filter(|r| r.allocs > budget(r.name) + SLACK).collect();
    assert!(
        over.is_empty(),
        "allocations over budget (+{SLACK}) in {:?}:\n{report}",
        over.iter().map(|r| (r.name, r.threads)).collect::<Vec<_>>()
    );
    // Turning the hub's rows into edges costs at most as many allocations
    // as reading the rows did.
    for threads in [1, 2] {
        let allocs = |name: &str| {
            rows.iter().find(|r| r.name == name && r.threads == threads).expect("measured").allocs
        };
        let (edges, direct) = (allocs("hub outE(l)"), allocs("hub direct SELECT"));
        assert!(edges <= 2 * direct, "threads={threads}:\n{report}");
    }
}
