//! # reldb — an embedded relational engine substrate
//!
//! This crate plays the role IBM Db2 plays in the paper *"IBM Db2 Graph:
//! Supporting Synergistic and Retrofittable Graph Queries Inside IBM Db2"*
//! (SIGMOD 2020): an ordinary SQL database holding ordinary relational
//! tables, on top of which the `db2graph-core` crate overlays a property
//! graph without copying or transforming any data.
//!
//! It provides exactly the capabilities the graph layer relies on:
//!
//! * typed tables with primary/foreign-key metadata in a queryable catalog
//!   (consumed by AutoOverlay),
//! * a SQL subset with predicates, IN-lists, projections, aggregates,
//!   GROUP BY, ORDER BY, joins, and subqueries (the target language of the
//!   paper's SQL Dialect module),
//! * ordered indexes with point / IN-list / range probes chosen by a small
//!   planner (what makes pushed-down predicates fast),
//! * non-materialized views (the "derived edges" mechanism of Section 5),
//! * prepared statements (the SQL-template cache of Section 6.1),
//! * polymorphic table functions in FROM (the `graphQuery` hook of
//!   Section 4),
//! * multi-version storage with epoch snapshots: transactions commit
//!   atomically through an undo log, readers pin a [`Snapshot`] and see one
//!   committed state across arbitrarily many statements while writers
//!   proceed without blocking them (Figure 6; `docs/CONSISTENCY.md`).
//!
//! ## Quick example
//!
//! ```
//! use reldb::{Database, Value};
//!
//! let db = Database::new();
//! db.execute("CREATE TABLE person (id BIGINT PRIMARY KEY, name VARCHAR)").unwrap();
//! db.execute("INSERT INTO person VALUES (1, 'Alice'), (2, 'Bob')").unwrap();
//! let rs = db.execute("SELECT name FROM person WHERE id = 2").unwrap();
//! assert_eq!(rs.scalar(), Some(&Value::Varchar("Bob".into())));
//! ```

pub mod checkpoint;
pub mod db;
pub mod durability;
pub mod error;
pub mod func;
pub mod index;
pub mod metrics;
pub mod prepared;
pub mod row;
pub mod schema;
pub mod sql;
pub mod storage;
pub mod txn;
pub mod value;

pub use db::{ChangeHook, Database, DbEvent, DbEventHook, Snapshot, ViewDef};
pub use durability::{CrashHook, CrashPoint, Durability, NetChange, WalTail, WalTailResult};
pub use error::{DbError, DbResult};
pub use func::TableFunction;
pub use index::{IndexDef, RowId};
pub use metrics::{
    DbMetrics, DbMetricsSnapshot, Histogram, HistogramSnapshot, MetricKind, MetricRow,
};
pub use prepared::Prepared;
pub use row::{Row, RowSet};
pub use schema::{ColumnDef, ForeignKey, TableSchema};
pub use storage::{ReadView, Table};
pub use value::{DataType, Value};
