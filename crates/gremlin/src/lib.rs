//! # gremlin — a Gremlin traversal substrate
//!
//! A from-scratch implementation of the parts of the Apache TinkerPop stack
//! that the paper *"IBM Db2 Graph"* (SIGMOD 2020) builds on:
//!
//! * the **property graph structure API** ([`structure`]): vertices, edges,
//!   ids, values — with element *provenance* (source table) recorded, as the
//!   paper's runtime optimizations require;
//! * a **Gremlin parser** ([`parser`]) for the traversal subset the paper
//!   exercises (LinkBench queries, the Section 4 healthcare script,
//!   repeat/dedup/store/cap, predicates, filters, unions, paths);
//! * a **step plan** ([`Traversal`], [`Step`]) mirroring TinkerPop's step
//!   taxonomy, with the pushdown-extended [`ElementFilter`] on every
//!   graph-structure-accessing (GSA) step;
//! * the **provider strategy API** ([`TraversalStrategy`]): plan-rewriting hooks that
//!   Db2 Graph uses for predicate/projection/aggregate pushdown and the
//!   GraphStep::VertexStep mutation;
//! * a batching **interpreter** (run through [`ScriptRunner`]) that makes one
//!   backend call per GSA step for the whole traverser frontier;
//! * a reference **in-memory backend** ([`memgraph`]) used as a correctness
//!   oracle.
//!
//! Any store that implements [`GraphBackend`] gets the whole
//! language: the relational overlay in `db2graph-core` and both baseline
//! stores in `gstore` plug in here, exactly as graph databases plug into
//! TinkerPop.
//!
//! The `pub use` lists below are the whole API, each name used outside the
//! crate; `unreachable_pub` rejects any other `pub` item. `structure`,
//! `parser` and `memgraph` stay `pub mod` because the benchmark names them
//! by path.
//!
//! ## Example
//!
//! ```
//! use gremlin::memgraph::MemGraph;
//! use gremlin::ScriptRunner;
//! use gremlin::structure::{Edge, GValue, Vertex};
//!
//! let g = MemGraph::new();
//! g.add_vertex(Vertex::new(1, "person").with_property("name", "Alice"));
//! g.add_vertex(Vertex::new(2, "person").with_property("name", "Bob"));
//! g.add_edge(Edge::new(10, "knows", 1, 2));
//!
//! let runner = ScriptRunner::new(&g);
//! let out = runner.run("g.V(1).out('knows').values('name')").unwrap();
//! assert_eq!(out, vec![GValue::Str("Bob".into())]);
//! ```

mod ast;
mod backend;
mod compile;
mod error;
mod exec;
pub mod memgraph;
mod observe;
pub mod parser;
mod script;
mod step;
mod strategy;
pub mod structure;

pub use backend::{
    element_property, finalize_elements, Accumulator, AggOp, Direction, EdgeEnd, ElementFilter,
    ElementKind, GraphBackend, Pred, PropPred,
};
pub use error::{GResult, GremlinError};
pub use observe::TraversalObserver;
pub use script::ScriptRunner;
pub use step::{CompareOp, EdgeVertexStep, FilterSpec, GraphStep, Step, Traversal, VertexStep};
pub use strategy::{IdentityRemoval, StrategyRegistry, TraversalStrategy};
pub use structure::{Edge, Element, ElementId, GValue, Vertex};
