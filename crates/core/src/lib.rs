//! # db2graph-core — synergistic, retrofittable graph queries inside a
//! relational database
//!
//! A Rust reproduction of the system described in *"IBM Db2 Graph:
//! Supporting Synergistic and Retrofittable Graph Queries Inside IBM Db2"*
//! (Tian et al., SIGMOD 2020). The crate implements the paper's
//! contribution — a graph layer *inside* the database — over the `reldb`
//! relational substrate and the `gremlin` traversal substrate:
//!
//! * **Graph overlay** ([`OverlayConfig`], [`Topology`], [`IdDef`]): a JSON
//!   configuration maps existing tables/views onto the vertex and edge sets
//!   of a property graph, with prefixed ids, fixed or column labels,
//!   implicit edge ids, and src/dst vertex table links — no data is copied
//!   or transformed.
//! * **AutoOverlay** ([`auto_overlay()`]): Algorithms 1 & 2 — derive the
//!   overlay from primary/foreign-key metadata.
//! * **Optimized traversal strategies** ([`StrategyConfig`]): the four
//!   data-independent compile-time rewrites of Section 6.2, individually
//!   toggleable.
//! * **Graph Structure module** (`graph_structure`): the graph structure
//!   API implemented as SQL with the six data-dependent runtime
//!   optimizations of Section 6.3.
//! * **SQL Dialect module** (`sql_dialect`): SQL generation, a prepared
//!   template cache driven by frequent-pattern detection, and an index
//!   advisor.
//! * **Synergy** ([`Db2Graph`]): the `graphQuery` polymorphic table function,
//!   so SQL joins and aggregates can consume Gremlin results (Section 4).
//!
//! ## API
//!
//! The `pub use` lists below are the crate's whole API: every name in them
//! is used by another crate, a test, an example or the benchmark, and the
//! modules behind them are private. The workspace's `unreachable_pub` lint
//! fails the build on a `pub` item no list re-exports, so an item nothing
//! outside uses is `pub(crate)` and `dead_code` sees when it goes unused.
//! Some types (the `SqlDialect`, `ExplainReport`, trace and profile records)
//! are reachable only through the methods that return them. `json` alone
//! stays a `pub mod`, because the benchmark names `db2graph_core::json`.
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use db2graph_core::Db2Graph;
//! use db2graph_core::healthcare_example_json;
//! use gremlin::GValue;
//! use reldb::Database;
//!
//! // Existing relational data (Figure 2 of the paper).
//! let db = Arc::new(Database::new());
//! db.execute_script(
//!     "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR,
//!                            address VARCHAR, subscriptionID BIGINT);
//!      CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR,
//!                            conceptName VARCHAR);
//!      CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR,
//!         FOREIGN KEY (sourceID) REFERENCES Disease(diseaseID),
//!         FOREIGN KEY (targetID) REFERENCES Disease(diseaseID));
//!      CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR,
//!         FOREIGN KEY (patientID) REFERENCES Patient(patientID),
//!         FOREIGN KEY (diseaseID) REFERENCES Disease(diseaseID));
//!      INSERT INTO Patient VALUES (1, 'Alice', '12 Oak St', 100);
//!      INSERT INTO Disease VALUES (10, 'E11', 'type 2 diabetes');
//!      INSERT INTO HasDisease VALUES (1, 10, 'diagnosed 2019');",
//! ).unwrap();
//!
//! // Overlay a property graph onto the same tables — no copy, no transform.
//! let graph = Db2Graph::open_json(db, healthcare_example_json()).unwrap();
//! let out = graph
//!     .run("g.V().hasLabel('patient').has('name', 'Alice').out('hasDisease').values('conceptName')")
//!     .unwrap();
//! assert_eq!(out, vec![GValue::Str("type 2 diabetes".into())]);
//! ```

mod adjcache;
mod auto_overlay;
mod config;
mod error;
mod events;
mod graph;
mod graph_structure;
mod ids;
pub mod json;
mod metrics;
mod pool;
mod sql_dialect;
mod strategies;
mod topology;
mod trace;

pub use auto_overlay::{auto_overlay, generate_overlay, identify_tables};
pub use config::{healthcare_example_json, ETableConfig, OverlayConfig, VTableConfig};
pub use error::GraphError;
pub use events::{
    drain_config_warnings, lookup_knob, ConfigWarning, EventLog, DEFAULT_ROTATE_BYTES,
};
pub use graph::{Db2Graph, GraphOptions, RunRequest};
pub use ids::{implicit_edge_id, split_implicit_edge_id, IdDef};
pub use metrics::{
    json_fields, HistogramSet, MetricsRegistry, MetricsSnapshot, ProfileReport, TableAction,
    TablePlan,
};
pub use reldb::{metric_table, Histogram, HistogramSnapshot, MetricKind, MetricRow};
pub use strategies::StrategyConfig;
pub use topology::Topology;
pub use trace::Span;
