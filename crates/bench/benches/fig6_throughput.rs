//! Regenerates **Figure 6**: throughput of the three systems with
//! concurrent clients (the paper used 50 clients; scale with LB_THREADS).
//! Expected shape: Db2 Graph wins everywhere — per-table reader-writer
//! locking scales with clients, while the native store's coarse cache lock
//! and the Janus-like store's per-query blob decoding do not.

use bench::harness::{build_env, print_table, Dataset, Scale, SystemKind};
use bench::report::BenchReport;
use db2graph_core::json::Json;
use linkbench::QueryKind;

fn main() {
    let scale = Scale::from_env();
    let cores = Scale::cores();
    let mut report = BenchReport::new("fig6_throughput");
    report.meta("clients", Json::u64(scale.threads as u64));
    report.meta("cores", Json::u64(cores as u64));
    println!(
        "\n=== Figure 6: Throughput of LinkBench queries ({} clients, {} cores) ===\n",
        scale.threads, cores
    );
    if cores < 4 {
        println!("CAVEAT: only {cores} core(s) available. The paper's Figure 6 measures how");
        println!("systems scale with 50 concurrent clients on 32 cores; with so few cores,");
        println!("clients time-slice instead of running in parallel, so throughput mostly");
        println!("mirrors single-client latency and the concurrency contrast (per-table");
        println!("reader-writer locks vs a coarse cache lock) cannot fully materialize.\n");
    }
    for dataset in [Dataset::Small, Dataset::Large] {
        let env = build_env(dataset, scale);
        println!(
            "{} — {} vertices, {} edges, {} queries/client",
            dataset.name(),
            env.data.nodes.len(),
            env.data.links.len(),
            scale.iters / 4 + 1
        );
        let per_client = scale.iters / 4 + 1;
        let mut rows = Vec::new();
        for kind in QueryKind::ALL {
            let mut row = vec![kind.name().to_string()];
            let mut qps = Vec::new();
            for sys in SystemKind::ALL {
                let t = env.measure_throughput(sys, kind, scale.threads, per_client);
                report.push(Json::obj(vec![
                    ("dataset", Json::str(dataset.name())),
                    ("query", Json::str(kind.name())),
                    ("system", Json::str(sys.name())),
                    ("queries_per_sec", Json::num(t)),
                ]));
                qps.push(t);
                row.push(format!("{t:.0} q/s"));
            }
            row.push(format!(
                "db2g/native {:.2}x, db2g/janus {:.2}x",
                qps[0] / qps[1].max(1e-9),
                qps[0] / qps[2].max(1e-9)
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
    println!("Paper reference: Db2 Graph is the clear winner in all cases, beating GDB-X up");
    println!("to 1.6x and JanusGraph up to 4.2x, because the RDBMS engine is extremely good");
    println!("at handling concurrent queries.\n");
    report.write();
}
