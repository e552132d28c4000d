//! Error types for the relational engine.

use std::fmt;

/// All errors surfaced by the relational engine.
///
/// The engine distinguishes error classes so that callers (notably the graph
/// overlay layer, which generates SQL programmatically) can react to schema
/// problems differently from data problems.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbError {
    /// The SQL text could not be tokenized or parsed.
    Parse(String),
    /// A referenced table, view, column, index, or function does not exist,
    /// or a created object conflicts with an existing one.
    Catalog(String),
    /// A primary key, unique, foreign key, or nullability constraint was
    /// violated by a write.
    Constraint(String),
    /// A value had the wrong type for the operation or column.
    Type(String),
    /// A runtime failure during query execution.
    Execution(String),
    /// A computed value falls outside its type's range (Db2's SQLSTATE
    /// 22003): a `SUM` of BIGINTs past the BIGINT range, say.
    OutOfRange(String),
    /// The statement is syntactically valid but uses an unsupported feature.
    Unsupported(String),
    /// A transaction could not be completed and has been rolled back.
    Txn(String),
    /// A durability-layer I/O failure (WAL append, checkpoint write, or a
    /// simulated crash injected by the test harness).
    Io(String),
    /// Recovery or replication state is internally inconsistent (e.g. a
    /// checkpoint META that disagrees with the WAL it claims to cover).
    /// Unlike [`DbError::Io`], this is not transient: the on-disk or
    /// streamed state itself is wrong and must not be trusted.
    Recovery(String),
}

impl fmt::Display for DbError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbError::Parse(m) => write!(f, "parse error: {m}"),
            DbError::Catalog(m) => write!(f, "catalog error: {m}"),
            DbError::Constraint(m) => write!(f, "constraint violation: {m}"),
            DbError::Type(m) => write!(f, "type error: {m}"),
            DbError::Execution(m) => write!(f, "execution error: {m}"),
            DbError::OutOfRange(m) => write!(f, "out of range: {m} (SQLSTATE 22003)"),
            DbError::Unsupported(m) => write!(f, "unsupported: {m}"),
            DbError::Txn(m) => write!(f, "transaction error: {m}"),
            DbError::Io(m) => write!(f, "io error: {m}"),
            DbError::Recovery(m) => write!(f, "recovery error: {m}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Convenient result alias used across the engine.
pub type DbResult<T> = Result<T, DbError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_class_and_message() {
        let e = DbError::Parse("unexpected token".into());
        assert_eq!(e.to_string(), "parse error: unexpected token");
        let e = DbError::Constraint("duplicate key".into());
        assert!(e.to_string().contains("constraint violation"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(DbError::Type("x".into()), DbError::Type("x".into()));
        assert_ne!(DbError::Type("x".into()), DbError::Execution("x".into()));
    }
}
