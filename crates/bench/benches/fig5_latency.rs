//! Regenerates **Figure 5**: per-query latency of the three systems on the
//! small and large datasets. Expected shape: the native store wins on the
//! small (cache-resident) dataset but loses past its cache on the large
//! one, where Db2 Graph takes the lead; the Janus-like store is always the
//! slowest.

use bench::harness::{build_env, fmt_duration, print_table, Dataset, Scale, SystemKind};
use bench::report::BenchReport;
use db2graph_core::json::Json;
use linkbench::QueryKind;

fn main() {
    let scale = Scale::from_env();
    let mut report = BenchReport::new("fig5_latency");
    report.meta("iters", Json::u64(scale.iters as u64));
    println!("\n=== Figure 5: Latency of LinkBench queries (Table 1 shapes) ===");
    println!("getNode:     g.V(id).hasLabel(lbl)");
    println!("countLinks:  g.V(id1).outE(lbl).count()");
    println!("getLink:     g.V(id1).outE(lbl).filter(inV().id() == id2)");
    println!("getLinkList: g.V(id1).outE(lbl)\n");
    for dataset in [Dataset::Small, Dataset::Large] {
        let env = build_env(dataset, scale);
        println!(
            "{} — {} vertices, {} edges, {} iters/point",
            dataset.name(),
            env.data.nodes.len(),
            env.data.links.len(),
            scale.iters
        );
        let mut rows = Vec::new();
        for kind in QueryKind::ALL {
            let mut row = vec![kind.name().to_string()];
            let mut lat = Vec::new();
            for sys in SystemKind::ALL {
                let d = env.measure_latency(sys, kind, scale.iters);
                report.push(Json::obj(vec![
                    ("dataset", Json::str(dataset.name())),
                    ("query", Json::str(kind.name())),
                    ("system", Json::str(sys.name())),
                    ("mean_latency_ms", Json::num(d.as_secs_f64() * 1e3)),
                ]));
                lat.push(d);
                row.push(fmt_duration(d));
            }
            // Ratios vs Db2 Graph.
            row.push(format!(
                "native/db2g {:.2}x, janus/db2g {:.2}x",
                lat[1].as_secs_f64() / lat[0].as_secs_f64(),
                lat[2].as_secs_f64() / lat[0].as_secs_f64()
            ));
            rows.push(row);
        }
        print_table(
            &["Query", "Db2 Graph", "GDB-X (native sim)", "JanusGraph (sim)", "ratios"],
            &rows,
        );
        env.print_metrics_snapshot();
        env.print_parallel_speedup(scale.iters / 8 + 1);
        let (cold, warm) = env.print_cache_speedup(scale.iters / 8 + 1);
        report.push(Json::obj(vec![
            ("dataset", Json::str(dataset.name())),
            ("query", Json::str("frontier_out_count")),
            ("system", Json::str("db2graph")),
            ("cold_cache_ms", Json::num(cold.as_secs_f64() * 1e3)),
            ("warm_cache_ms", Json::num(warm.as_secs_f64() * 1e3)),
            ("cache_speedup", Json::num(cold.as_secs_f64() / warm.as_secs_f64().max(1e-12))),
        ]));
        println!();
    }
    println!("Paper reference: on 10M GDB-X leads (Db2 Graph within 1.5x, better on getNode);");
    println!(
        "on 100M Db2 Graph beats GDB-X up to 1.7x; JanusGraph up to 2.7x slower than Db2 Graph.\n"
    );
    report.write();
}
