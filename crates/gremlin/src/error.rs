//! Errors for the Gremlin substrate.

use std::fmt;

/// Errors raised while parsing, compiling, or executing a traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GremlinError {
    /// The Gremlin text could not be tokenized or parsed.
    Parse(String),
    /// The parsed script uses an unsupported construct.
    Unsupported(String),
    /// A runtime failure inside the traversal engine.
    Execution(String),
    /// A failure reported by the graph backend (e.g. the SQL layer).
    Backend(String),
    /// The backend stopped the traversal because its deadline passed.
    Timeout,
}

impl fmt::Display for GremlinError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GremlinError::Parse(m) => write!(f, "gremlin parse error: {m}"),
            GremlinError::Unsupported(m) => write!(f, "unsupported gremlin: {m}"),
            GremlinError::Execution(m) => write!(f, "traversal error: {m}"),
            GremlinError::Backend(m) => write!(f, "backend error: {m}"),
            GremlinError::Timeout => write!(f, "query deadline exceeded"),
        }
    }
}

impl std::error::Error for GremlinError {}

/// Result alias for the crate.
pub type GResult<T> = Result<T, GremlinError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert!(GremlinError::Parse("x".into()).to_string().contains("parse"));
        assert!(GremlinError::Backend("y".into()).to_string().contains("backend"));
    }
}
