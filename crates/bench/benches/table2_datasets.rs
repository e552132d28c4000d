//! Regenerates **Table 2**: LinkBench dataset statistics (vertices, edges,
//! average degree, max degree, CSV size).

use bench::harness::{fmt_bytes, print_table, Scale};
use linkbench::{generate, LinkBenchConfig};

fn main() {
    let scale = Scale::from_env();
    println!("\n=== Table 2: LinkBench datasets (scaled; paper used 10M/100M vertices) ===\n");
    let mut rows = Vec::new();
    for (name, n, seed) in
        [("LB-small", scale.small_vertices, 42), ("LB-large", scale.large_vertices, 43)]
    {
        let cfg = LinkBenchConfig { seed, ..LinkBenchConfig::small().with_vertices(n) };
        let data = generate(&cfg);
        let s = data.stats();
        rows.push(vec![
            name.to_string(),
            s.num_vertices.to_string(),
            s.num_edges.to_string(),
            format!("{:.1}", s.avg_degree),
            s.max_degree.to_string(),
            fmt_bytes(s.csv_bytes as usize),
        ]);
    }
    print_table(
        &["Dataset", "Num Vertices", "Num Edges", "Avg Degree", "Max Degree", "CSV Size"],
        &rows,
    );
    println!("\nPaper reference: 10M/43M avg 4.3 max 961,970 CSV 4.3G; 100M/419M avg 4.2 max 962,000 CSV 42G.");
    println!(
        "Expected shape: avg degree ~4.2-4.3, max degree orders of magnitude above the average.\n"
    );
}
