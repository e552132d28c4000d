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
//! * a **step plan** ([`step`]) mirroring TinkerPop's step taxonomy, with
//!   the pushdown-extended [`backend::ElementFilter`] on every
//!   graph-structure-accessing (GSA) step;
//! * the **provider strategy API** ([`strategy`]): plan-rewriting hooks that
//!   Db2 Graph uses for predicate/projection/aggregate pushdown and the
//!   GraphStep::VertexStep mutation;
//! * a batching **interpreter** ([`exec`]) that makes one backend call per
//!   GSA step for the whole traverser frontier;
//! * a reference **in-memory backend** ([`memgraph`]) used as a correctness
//!   oracle.
//!
//! Any store that implements [`backend::GraphBackend`] gets the whole
//! language: the relational overlay in `db2graph-core` and both baseline
//! stores in `gstore` plug in here, exactly as graph databases plug into
//! TinkerPop.
//!
//! ## Example
//!
//! ```
//! use gremlin::memgraph::MemGraph;
//! use gremlin::script::ScriptRunner;
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

pub mod ast;
pub mod backend;
pub mod compile;
pub mod error;
pub mod exec;
pub mod memgraph;
pub mod observe;
pub mod parser;
pub mod script;
pub mod step;
pub mod strategy;
pub mod structure;

pub use backend::{
    AggOp, BackendOutput, Direction, EdgeEnd, ElementFilter, ElementKind, GraphBackend, Pred,
    PropPred,
};
pub use error::{GremlinError, GResult};
pub use exec::{Executor, SideEffects, Traverser};
pub use observe::{NoopObserver, TraversalObserver};
pub use script::ScriptRunner;
pub use step::{CompareOp, FilterSpec, GraphStep, Step, Traversal, VertexStep};
pub use strategy::{StrategyRegistry, TraversalStrategy};
pub use structure::{Edge, Element, ElementId, GValue, Vertex};
