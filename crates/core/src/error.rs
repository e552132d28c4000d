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
    /// statements (see [`Db2Graph::run_for_request`]).
    Timeout,
}

/// Marker message used to round-trip [`GraphError::Timeout`] through the
/// `GraphBackend` trait, which erases backend errors into
/// `GremlinError::Backend(String)`. [`from_gremlin`] maps it back. The
/// `__db2graph_timeout__` prefix keeps an ordinary Db/backend error whose
/// rendered message happens to say "query deadline exceeded" from being
/// misclassified as a timeout; the marker never reaches clients —
/// [`GraphError::Timeout`] renders the human-readable message instead.
pub(crate) const TIMEOUT_MARKER: &str = "__db2graph_timeout__";

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

impl From<GremlinError> for GraphError {
    fn from(e: GremlinError) -> Self {
        GraphError::Gremlin(e)
    }
}

/// Result alias for the crate.
pub type GraphResult<T> = Result<T, GraphError>;

/// Convert a graph error into a Gremlin backend error (used inside the
/// `GraphBackend` implementation, whose trait returns `GResult`).
pub fn to_gremlin(e: GraphError) -> GremlinError {
    match e {
        GraphError::Gremlin(g) => g,
        GraphError::Timeout => GremlinError::Backend(TIMEOUT_MARKER.into()),
        other => GremlinError::Backend(other.to_string()),
    }
}

/// Recover a [`GraphError`] from the Gremlin layer, un-erasing the timeout
/// marker that [`to_gremlin`] collapsed into a backend-error string.
pub(crate) fn from_gremlin(e: GremlinError) -> GraphError {
    match e {
        GremlinError::Backend(ref m) if m == TIMEOUT_MARKER => GraphError::Timeout,
        other => GraphError::Gremlin(other),
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
        assert_eq!(from_gremlin(g), GraphError::Timeout);
        // Non-marker backend errors stay Gremlin errors — even one whose
        // rendered message coincides with the human-readable timeout text.
        let e = from_gremlin(GremlinError::Backend("disk on fire".into()));
        assert!(matches!(e, GraphError::Gremlin(GremlinError::Backend(_))));
        let e = from_gremlin(GremlinError::Backend("query deadline exceeded".into()));
        assert!(matches!(e, GraphError::Gremlin(GremlinError::Backend(_))));
    }
}
