//! # db2graph-core — synergistic, retrofittable graph queries inside a
//! relational database
//!
//! A Rust reproduction of the system described in *"IBM Db2 Graph:
//! Supporting Synergistic and Retrofittable Graph Queries Inside IBM Db2"*
//! (Tian et al., SIGMOD 2020). The crate implements the paper's
//! contribution — a graph layer *inside* the database — over the `reldb`
//! relational substrate and the `gremlin` traversal substrate:
//!
//! * **Graph overlay** ([`config`], [`topology`], [`ids`]): a JSON
//!   configuration maps existing tables/views onto the vertex and edge sets
//!   of a property graph, with prefixed ids, fixed or column labels,
//!   implicit edge ids, and src/dst vertex table links — no data is copied
//!   or transformed.
//! * **AutoOverlay** ([`mod@auto_overlay`]): Algorithms 1 & 2 — derive the
//!   overlay from primary/foreign-key metadata.
//! * **Optimized traversal strategies** ([`strategies`]): the four
//!   data-independent compile-time rewrites of Section 6.2, individually
//!   toggleable.
//! * **Graph Structure module** ([`graph_structure`]): the graph structure
//!   API implemented as SQL with the six data-dependent runtime
//!   optimizations of Section 6.3.
//! * **SQL Dialect module** ([`sql_dialect`]): SQL generation, a prepared
//!   template cache driven by frequent-pattern detection, and an index
//!   advisor.
//! * **Synergy** ([`graph`]): the `graphQuery` polymorphic table function,
//!   so SQL joins and aggregates can consume Gremlin results (Section 4).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use db2graph_core::Db2Graph;
//! use db2graph_core::config::healthcare_example_json;
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

pub mod adjcache;
pub mod auto_overlay;
pub mod config;
pub mod error;
pub mod events;
pub mod graph;
pub mod graph_structure;
pub mod ids;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod sql_dialect;
pub mod strategies;
pub mod topology;
pub mod trace;

pub use adjcache::{AdjCache, DEFAULT_ADJ_CACHE_MB};
pub use auto_overlay::{auto_overlay, generate_overlay, identify_tables};
pub use config::{ETableConfig, OverlayConfig, VTableConfig};
pub use error::{GraphError, GraphResult};
pub use events::{
    drain_config_warnings, lookup_knob, record_config_warning, ConfigWarning, Event, EventLog,
    DEFAULT_EVENT_CAPACITY, DEFAULT_ROTATE_BYTES,
};
pub use graph::{Db2Graph, GraphOptions, RunRequest};
pub use graph_structure::Db2GraphBackend;
pub use reldb::metric_table;
pub use metrics::{
    step_kind, ExplainReport, Histogram, HistogramSet, HistogramSnapshot, MetricKind, MetricRow,
    MetricsRegistry,
    MetricsSnapshot, ProfileReport, Profiler, SlowQueryEntry, SlowQueryLog, SpanHandle,
    StepExplain, StepProfile, TableAction, TableExplain, TablePlan,
};
pub use sql_dialect::{IndexSuggestion, SqlDialect, WorkloadReport};
pub use trace::{Span, SpanData, TraceSink, TracedSpan, DEFAULT_TRACE_CAPACITY};
pub use strategies::StrategyConfig;
pub use topology::Topology;
