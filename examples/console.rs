//! A dual SQL + Gremlin console over one database — the paper's first
//! interface ("users can have a SQL console and a Gremlin console opened
//! side by side to query the same underlying data either as relational
//! tables or as a property graph", Section 4).
//!
//! Lines starting with `g.` run as Gremlin; everything else runs as SQL.
//! Meta-commands: `\plan <gremlin>` shows the optimized step plan,
//! `\stats` shows overlay counters, `\quit` exits.
//!
//! Run with: `cargo run --example console`
//! (or pipe a script: `echo "g.V().count()" | cargo run --example console`)
//!
//! `--serve` starts the HTTP query service (see `docs/SERVER.md`) on the
//! same seeded overlay instead of the REPL, so the interactive demo and
//! the network path share one setup.

#[path = "common/seed.rs"]
mod seed;

use std::io::{self, BufRead, Write};

use db2graph::server::{GraphServer, ServerConfig};

fn main() {
    let (db, graph) = seed::open_healthcare(Default::default());

    if std::env::args().any(|a| a == "--serve") {
        let handle = match GraphServer::start(graph, ServerConfig::from_env()) {
            Ok(h) => h,
            Err(e) => {
                eprintln!("console --serve failed to start: {e}");
                std::process::exit(1);
            }
        };
        println!("db2graph console serving on http://{}", handle.addr());
        handle.wait();
        return;
    }

    println!("db2graph console — SQL and Gremlin over the same tables.");
    println!("  g.<...>        Gremlin   |  SELECT/INSERT/...  SQL");
    println!("  \\plan g.<...>  show optimized plan  |  \\stats  overlay counters  |  \\quit");
    println!();

    let stdin = io::stdin();
    let interactive = atty_like();
    loop {
        if interactive {
            print!("> ");
            io::stdout().flush().ok();
        }
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() || line.starts_with("--") {
            continue;
        }
        if !interactive {
            println!("> {line}");
        }
        if line == "\\quit" || line == "\\q" {
            break;
        }
        if line == "\\stats" {
            println!("{}", graph.metrics().to_json().to_pretty());
            continue;
        }
        if let Some(rest) = line.strip_prefix("\\plan ") {
            match graph.explain(rest) {
                Ok(plan) => println!("{plan}"),
                Err(e) => println!("error: {e}"),
            }
            continue;
        }
        if line.starts_with("g.") {
            match graph.run(line) {
                Ok(values) => {
                    for v in &values {
                        println!("==> {v}");
                    }
                    println!(
                        "({} result{})",
                        values.len(),
                        if values.len() == 1 { "" } else { "s" }
                    );
                }
                Err(e) => println!("error: {e}"),
            }
        } else {
            match db.execute(line) {
                Ok(rs) => print!("{rs}"),
                Err(e) => println!("error: {e}"),
            }
        }
    }
}

/// Crude interactivity guess without a libc dependency: honor an env
/// override, default to non-interactive prompt suppression when piped
/// input is likely (PS1 unset in CI is good enough for an example).
fn atty_like() -> bool {
    std::env::var("CONSOLE_INTERACTIVE").map(|v| v == "1").unwrap_or(false)
}
