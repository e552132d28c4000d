//! Regenerates **Figure 4**: Db2 Graph latency with vs without the
//! optimized traversal strategies (Section 6.2), per LinkBench query.
//! The data-dependent runtime optimizations (Section 6.3) stay on in both
//! configurations, exactly as in the paper. Paper reference: 2.8×–3.3×
//! speedups from the strategies.

use std::time::Instant;

use bench::harness::{fmt_duration, print_table, Scale};
use db2graph_core::{Db2Graph, GraphOptions, StrategyConfig};
use linkbench::{generate, materialize, overlay_config, LinkBenchConfig, QueryKind, QueryStream};

fn main() {
    let scale = Scale::from_env();
    let cfg = LinkBenchConfig::small().with_vertices(scale.small_vertices);
    let data = generate(&cfg);
    let (db, _) = materialize(&data).expect("materialize");
    let overlay = overlay_config();
    let g_on = Db2Graph::open(db.clone(), &overlay).expect("open optimized");
    let g_off = Db2Graph::open_with_options(
        db,
        &overlay,
        GraphOptions { strategies: StrategyConfig::none(), ..Default::default() },
    )
    .expect("open unoptimized");

    println!("\n=== Figure 4: Db2 Graph with vs without optimized traversal strategies ===");
    println!(
        "(dataset: {} vertices, {} edges; {} iters/point)\n",
        data.nodes.len(),
        data.links.len(),
        scale.iters
    );

    let mut rows = Vec::new();
    for kind in QueryKind::ALL {
        let avg = |g: &Db2Graph, seed: u64| {
            let mut s = QueryStream::new(&data, kind, seed);
            for q in s.batch(scale.iters / 10 + 1) {
                g.run(&q).expect("query");
            }
            let qs = s.batch(scale.iters);
            let start = Instant::now();
            for q in &qs {
                g.run(q).expect("query");
            }
            start.elapsed() / scale.iters as u32
        };
        let on = avg(&g_on, 11);
        let off = avg(&g_off, 11);
        rows.push(vec![
            kind.name().to_string(),
            fmt_duration(on),
            fmt_duration(off),
            format!("{:.1}x", off.as_secs_f64() / on.as_secs_f64()),
        ]);
    }
    print_table(&["Query", "Strategies ON", "Strategies OFF", "Speedup"], &rows);
    println!("\nPaper reference: 2.8x-3.3x speedups; getNode mainly from predicate pushdown,");
    println!("the others from the GraphStep::VertexStep mutation, countLinks additionally");
    println!("from aggregate pushdown, getLink additionally from predicate pushdown.\n");
}
