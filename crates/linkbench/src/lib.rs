//! # linkbench — the evaluation workload
//!
//! A deterministic LinkBench-like benchmark (the paper evaluates on
//! Facebook's LinkBench, Section 8): a power-law social graph with 10
//! vertex and 10 edge types ([`generate`]), materialized into relational
//! tables with the overlay that retrofits a graph view onto them
//! ([`materialize`], [`overlay_config`]), plus the four query-only
//! templates of Table 1 and their workload driver ([`QueryStream`]). The
//! `pub use` lists are the whole API; `gen` is `pub` for the benchmark.

pub mod gen;
mod queries;
mod tables;

pub use gen::{generate, GraphData, LinkBenchConfig};
pub use queries::{get_node, mixed_batch, QueryKind, QueryStream};
pub use tables::{materialize, overlay_config, to_elements, NUM_TYPES};
