//! Ablation of the **data-dependent runtime optimizations** (Section 6.3).
//!
//! Figure 4 ablates the compile-time strategies; the paper describes but
//! does not separately measure the runtime optimizations. They are overlay-
//! *configuration* choices, so this harness measures them by running the
//! same queries under overlay variants that disable one lever each:
//!
//! * `full`          — prefixed ids + fixed labels + src/dst table links
//! * `no-prefix`     — plain ids (no table pinning on V(id))
//! * `no-links`      — src_v_table/dst_v_table omitted (no edge-table
//!   endpoint elimination)
//! * `column-labels` — labels from a column (no fixed-label elimination)
//!
//! Reported per variant: average latency and SQL queries issued per
//! operation — the second column is the direct observable of "eliminating
//! the unnecessary tables to query from".

use std::sync::Arc;
use std::time::Instant;

use bench::harness::{fmt_duration, print_table};
use db2graph_core::{Db2Graph, ETableConfig, OverlayConfig, VTableConfig};
use reldb::Database;

const K: usize = 8; // number of vertex/edge tables
const ROWS: i64 = 2_000; // rows per vertex table

fn build_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    let mut ddl = String::new();
    for k in 0..K {
        ddl.push_str(&format!(
            "CREATE TABLE P{k} (id BIGINT PRIMARY KEY, name VARCHAR, kind VARCHAR);\n"
        ));
    }
    for k in 0..K {
        ddl.push_str(&format!(
            "CREATE TABLE E{k} (src BIGINT, dst BIGINT, kind VARCHAR, w BIGINT);
             CREATE INDEX ix_e{k}_src ON E{k} (src);
             CREATE INDEX ix_e{k}_dst ON E{k} (dst);\n"
        ));
    }
    db.execute_script(&ddl).unwrap();
    db.set_enforce_foreign_keys(false);
    for k in 0..K as i64 {
        let pt = db.get_table(&format!("P{k}")).unwrap();
        for i in 0..ROWS {
            let id = k * ROWS + i; // globally unique
            db.insert_row(
                &pt,
                vec![
                    reldb::Value::Bigint(id),
                    reldb::Value::Varchar(format!("n{id}")),
                    reldb::Value::Varchar(format!("p{k}")),
                ],
            )
            .unwrap();
        }
        let et = db.get_table(&format!("E{k}")).unwrap();
        let next = (k + 1) % K as i64;
        for i in 0..ROWS {
            db.insert_row(
                &et,
                vec![
                    reldb::Value::Bigint(k * ROWS + i),
                    reldb::Value::Bigint(next * ROWS + (i * 7) % ROWS),
                    reldb::Value::Varchar(format!("e{k}")),
                    reldb::Value::Bigint(i),
                ],
            )
            .unwrap();
        }
    }
    db
}

#[derive(Clone, Copy)]
struct Variant {
    name: &'static str,
    prefixed: bool,
    links: bool,
    fixed_labels: bool,
}

fn overlay(v: Variant) -> OverlayConfig {
    let v_tables = (0..K)
        .map(|k| VTableConfig {
            table_name: format!("P{k}"),
            prefixed_id: v.prefixed,
            id: if v.prefixed { format!("'p{k}'::id") } else { "id".into() },
            fix_label: v.fixed_labels,
            label: if v.fixed_labels { format!("'p{k}'") } else { "kind".into() },
            properties: Some(vec!["name".into()]),
        })
        .collect();
    let e_tables = (0..K)
        .map(|k| {
            let next = (k + 1) % K;
            ETableConfig {
                table_name: format!("E{k}"),
                src_v_table: v.links.then(|| format!("P{k}")),
                src_v: if v.prefixed { format!("'p{k}'::src") } else { "src".into() },
                dst_v_table: v.links.then(|| format!("P{next}")),
                dst_v: if v.prefixed { format!("'p{next}'::dst") } else { "dst".into() },
                prefixed_edge_id: false,
                implicit_edge_id: true,
                id: None,
                fix_label: v.fixed_labels,
                label: if v.fixed_labels { format!("'e{k}'") } else { "kind".into() },
                properties: Some(vec!["w".into()]),
            }
        })
        .collect();
    OverlayConfig { v_tables, e_tables }
}

fn main() {
    let iters: usize = std::env::var("LB_ITERS").ok().and_then(|v| v.parse().ok()).unwrap_or(300);
    let db = build_db();
    let variants = [
        Variant { name: "full", prefixed: true, links: true, fixed_labels: true },
        Variant { name: "no-prefix", prefixed: false, links: true, fixed_labels: true },
        Variant { name: "no-links", prefixed: true, links: false, fixed_labels: true },
        Variant { name: "column-labels", prefixed: true, links: true, fixed_labels: false },
        // With neither prefixed ids nor endpoint links, endpoint lookups
        // after a hop must search every vertex table.
        Variant { name: "no-prefix-no-links", prefixed: false, links: false, fixed_labels: true },
    ];

    println!("\n=== Ablation: data-dependent runtime optimizations (Section 6.3) ===");
    println!("({K} vertex tables x {ROWS} rows, {K} edge tables; {iters} iters/point)\n");

    type QueryGen = Box<dyn Fn(&Variant, i64) -> String>;
    struct Op {
        name: &'static str,
        query: QueryGen,
    }
    let ops = [
        Op {
            name: "lookup by id (prefixed-id pinning)",
            query: Box::new(|v: &Variant, i: i64| {
                if v.prefixed {
                    format!("g.V('p3::{}')", 3 * ROWS + (i % ROWS))
                } else {
                    format!("g.V({})", 3 * ROWS + (i % ROWS))
                }
            }),
        },
        Op {
            name: "out() hop (src/dst table links)",
            query: Box::new(|v: &Variant, i: i64| {
                if v.prefixed {
                    format!("g.V('p3::{}').out('e3').values('name')", 3 * ROWS + (i % ROWS))
                } else {
                    format!("g.V({}).out('e3').values('name')", 3 * ROWS + (i % ROWS))
                }
            }),
        },
        Op {
            name: "hasLabel().count() (fixed-label elimination)",
            query: Box::new(|_v: &Variant, _i: i64| "g.V().hasLabel('p5').count()".to_string()),
        },
        Op {
            name: "E lookup by implicit id (label-in-id elimination)",
            query: Box::new(|v: &Variant, i: i64| {
                let s = 3 * ROWS + (i % ROWS);
                let d = 4 * ROWS + ((i % ROWS) * 7) % ROWS;
                if v.prefixed {
                    format!("g.E('p3::{s}::e3::p4::{d}')")
                } else {
                    format!("g.E('{s}::e3::{d}')")
                }
            }),
        },
    ];

    for op in &ops {
        println!("-- {}", op.name);
        let mut rows = Vec::new();
        for v in &variants {
            let g = Db2Graph::open(db.clone(), &overlay(*v)).unwrap();
            // Warmup.
            for i in 0..(iters / 10 + 1) as i64 {
                let _ = g.run(&(op.query)(v, i));
            }
            let before = g.metrics();
            let start = Instant::now();
            for i in 0..iters as i64 {
                g.run(&(op.query)(v, i)).unwrap();
            }
            let elapsed = start.elapsed() / iters as u32;
            let d = g.metrics().since(&before);
            rows.push(vec![
                v.name.to_string(),
                fmt_duration(elapsed),
                format!("{:.1}", d.sql_statements as f64 / iters as f64),
                format!("{:.1}", d.tables_pruned as f64 / iters as f64),
            ]);
        }
        print_table(&["variant", "avg latency", "SQL queries/op", "tables pruned/op"], &rows);
        println!();
    }
    println!("Reading: each disabled lever shows up as more SQL queries per operation —");
    println!("the paper's 'eliminate, as much as possible, the unnecessary tables'.\n");
}
