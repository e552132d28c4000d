//! Errors for the graph overlay layer.

use std::fmt;

use gremlin::GremlinError;
use reldb::DbError;

/// Errors raised by Db2 Graph: configuration problems, SQL-layer failures,
/// or Gremlin-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// The overlay configuration is invalid (bad id definition, missing
    /// table/column, inconsistent src/dst definitions, ...).
    Config(String),
    /// An error from the relational engine.
    Db(DbError),
    /// An error from the Gremlin layer.
    Gremlin(GremlinError),
    /// The query's deadline expired; execution was aborted between
    /// statements (see [`crate::RunRequest::deadline`]).
    Timeout,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::Config(m) => write!(f, "overlay config error: {m}"),
            GraphError::Db(e) => write!(f, "{e}"),
            GraphError::Gremlin(e) => write!(f, "{e}"),
            GraphError::Timeout => write!(f, "query deadline exceeded"),
        }
    }
}

impl std::error::Error for GraphError {}

impl From<DbError> for GraphError {
    fn from(e: DbError) -> Self {
        GraphError::Db(e)
    }
}

/// The inverse of `to_gremlin`: a timeout that crossed the
/// `GraphBackend` trait comes back as [`GraphError::Timeout`].
impl From<GremlinError> for GraphError {
    fn from(e: GremlinError) -> Self {
        match e {
            GremlinError::Timeout => GraphError::Timeout,
            other => GraphError::Gremlin(other),
        }
    }
}

/// Result alias for the crate.
pub(crate) type GraphResult<T> = Result<T, GraphError>;

/// Convert a graph error into a Gremlin error (used inside the
/// `GraphBackend` implementation, whose trait returns `GResult`).
pub(crate) fn to_gremlin(e: GraphError) -> GremlinError {
    match e {
        GraphError::Gremlin(g) => g,
        GraphError::Timeout => GremlinError::Timeout,
        other => GremlinError::Backend(other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        let e: GraphError = DbError::Catalog("x".into()).into();
        assert!(matches!(e, GraphError::Db(_)));
        let e: GraphError = GremlinError::Parse("y".into()).into();
        assert!(matches!(e, GraphError::Gremlin(_)));
        let g = to_gremlin(GraphError::Config("bad".into()));
        assert!(matches!(g, GremlinError::Backend(_)));
        let g = to_gremlin(GraphError::Gremlin(GremlinError::Parse("p".into())));
        assert!(matches!(g, GremlinError::Parse(_)));
    }

    #[test]
    fn timeout_round_trips_through_the_backend_trait() {
        let g = to_gremlin(GraphError::Timeout);
        assert_eq!(GraphError::from(g), GraphError::Timeout);
        // Backend errors stay Gremlin errors whatever their text — the
        // human-readable timeout message and the retired string marker
        // included.
        let e = GraphError::from(GremlinError::Backend("disk on fire".into()));
        assert!(matches!(e, GraphError::Gremlin(GremlinError::Backend(_))));
        let e = GraphError::from(GremlinError::Backend("query deadline exceeded".into()));
        assert!(matches!(e, GraphError::Gremlin(GremlinError::Backend(_))));
        let e = GraphError::from(GremlinError::Backend("__db2graph_timeout__".into()));
        assert!(matches!(e, GraphError::Gremlin(GremlinError::Backend(_))));
    }
}
