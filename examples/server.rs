//! The graph query service over the healthcare overlay — the network
//! face of the paper's stack, the way a Gremlin server fronts TinkerPop.
//!
//! Run with: `cargo run --release --example server`
//!
//! Knobs (environment): `DB2GRAPH_HTTP_ADDR` (default `127.0.0.1:8182`),
//! `DB2GRAPH_MAX_INFLIGHT`, `DB2GRAPH_QUERY_TIMEOUT_MS`; set
//! `DB2GRAPH_DATA_DIR` (plus optionally `DB2GRAPH_DURABILITY` and
//! `DB2GRAPH_CHECKPOINT_MS`) to persist across restarts — a reopened
//! directory recovers from its checkpoint + WAL instead of reseeding.
//! `DB2GRAPH_SQL_ENDPOINT=1` enables the raw-SQL admin endpoint
//! (`POST /sql`), which is off by default because it can mutate
//! anything. `DB2GRAPH_REPLICA_OF=host:port` turns the server into a
//! log-shipping read replica of a durable primary (see
//! `docs/REPLICATION.md`) — it bootstraps from the primary instead of
//! seeding and refuses writes. The graph knobs (`DB2GRAPH_THREADS`,
//! `DB2GRAPH_ADJ_CACHE_MB`, `DB2GRAPH_TRACE`) apply as in any program;
//! `DB2GRAPH_SLOW_QUERY_MS` does not, because this example sets the
//! slow-query threshold to 0 explicitly and an explicit option wins. The
//! full list, with defaults, is the "Knobs" table of `docs/SERVER.md`.
//! Then:
//!
//! ```sh
//! curl -s localhost:8182/healthz
//! curl -s localhost:8182/query -d "g.V().hasLabel('patient').values('name')"
//! curl -s localhost:8182/metrics
//! ```
//!
//! See `docs/SERVER.md` for the full endpoint reference.

#[path = "common/seed.rs"]
mod seed;

use db2graph::core::{healthcare_example_json, Db2Graph, GraphOptions, OverlayConfig};
use db2graph::server::{GraphServer, ServerConfig};

fn main() {
    // Log every query as "slow" so /slow-queries has content to show in a
    // demo; production deployments set a real threshold instead.
    let options = GraphOptions { slow_query_nanos: Some(0), ..Default::default() };
    let config = ServerConfig::from_env();
    let graph = if config.replica_of.is_some() {
        // A follower never seeds: its state is a mirror of the primary's,
        // pulled over /checkpoint + /wal before the overlay reads the
        // catalog (ServerConfig::open_database runs the initial sync).
        let db = match config.open_database() {
            Ok(db) => db,
            Err(e) => {
                eprintln!("db2graph replica failed its initial sync: {e}");
                std::process::exit(1);
            }
        };
        let overlay = OverlayConfig::from_json(healthcare_example_json()).expect("overlay json");
        Db2Graph::open_with_options(db, &overlay, options).expect("overlay")
    } else {
        let (_db, graph) = seed::open_healthcare(options);
        graph
    };
    let handle = match GraphServer::start(graph, config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("db2graph server failed to start: {e}");
            std::process::exit(1);
        }
    };
    println!("db2graph server listening on http://{}", handle.addr());
    println!("endpoints: POST /query /explain /profile (/sql if DB2GRAPH_SQL_ENDPOINT=1) · GET /metrics /slow-queries /workload /healthz /readyz /events /wal /checkpoint");
    handle.wait();
}
