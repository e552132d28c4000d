//! # gstore — baseline graph stores for the evaluation
//!
//! The paper's evaluation (Section 8) compares Db2 Graph against two
//! standalone graph databases: **GDB-X**, an anonymous commercial native
//! graph database, and **JanusGraph** backed by Berkeley DB. Neither is
//! available here, so this crate implements architectural stand-ins that
//! reproduce their qualitative behaviour (see DESIGN.md §2 for the
//! substitution argument):
//!
//! * [`NativeGraphDb`] — index-free adjacency + bounded deserialized-record
//!   cache behind a coarse lock (fast when the graph fits the cache,
//!   degrades past it, poor concurrency scaling);
//! * [`JanusLikeDb`] — one serialized adjacency blob per vertex on an
//!   ordered key-value store (every access deserializes a whole blob;
//!   uniformly the slowest; largest load times);
//! * [`export_graph`], [`load_native`], [`load_janus`] — export-from-source
//!   + bulk load with per-phase timing (Table 3) and storage accounting;
//! * `codec` — the deliberately verbose record serialization both stores
//!   pay for.
//!
//! Both stores implement `gremlin::GraphBackend`, so the same Gremlin
//! engine and queries run on them unchanged — exactly how TinkerPop hosts
//! multiple providers.
//!
//! The `pub use` lists below are the whole API, each name used outside the
//! crate; `unreachable_pub` rejects any other `pub` item.

mod codec;
mod janus;
mod kv;
mod loader;
mod native;

pub use janus::{JanusLikeDb, JanusLoader};
pub use loader::{export_graph, load_janus, load_native, open_native, LoadReport};
pub use native::{NativeGraphDb, NativeLoader};
