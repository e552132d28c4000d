//! Prepared statements.
//!
//! A prepared statement is parsed once into a shared AST. Executing it
//! reads each `?` by reference from the parameter values: the executor
//! compiles `Expr::Param(i)` to `&params[i]` and the access-path planner
//! probes an index with it, so no execution copies the AST. This is the
//! mechanism behind the
//! paper's SQL Dialect module, which "creates a set of pre-compiled SQL
//! templates for these frequent patterns and issues the corresponding
//! prepare statements in Db2 to avoid the SQL compilation overhead at
//! runtime" (Section 6.1).

use std::sync::Arc;

use crate::error::{DbError, DbResult};
use crate::sql::ast::*;
use crate::sql::parser::parse_with_params;
use crate::value::Value;

/// Generation value meaning "not stamped against any catalog state" — a
/// `Prepared` built directly (without a database) always executes as-is.
pub(crate) const GENERATION_ANY: u64 = u64::MAX;

/// A parsed statement ready for repeated parameterized execution.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub sql: String,
    pub(crate) stmt: Arc<Stmt>,
    pub(crate) param_count: usize,
    /// Catalog generation this statement was prepared under (see
    /// [`crate::db::Database::schema_generation`]). Executing against a
    /// database whose generation moved on (DDL ran in between) forces a
    /// re-prepare, so cached plans can never read a dropped-and-recreated
    /// table through a stale layout.
    generation: u64,
}

impl Prepared {
    /// Parse and prepare a statement.
    pub(crate) fn new(sql: &str) -> DbResult<Prepared> {
        let (stmt, param_count) = parse_with_params(sql)?;
        Ok(Prepared {
            sql: sql.to_string(),
            stmt: Arc::new(stmt),
            param_count,
            generation: GENERATION_ANY,
        })
    }

    /// Stamp this statement with the catalog generation it was prepared
    /// under (`Database::prepare` does this automatically).
    pub(crate) fn with_generation(mut self, generation: u64) -> Prepared {
        self.generation = generation;
        self
    }

    /// True when the statement was stamped under an older catalog
    /// generation than `current` and must be re-prepared before execution.
    pub fn is_stale(&self, current: u64) -> bool {
        self.generation != GENERATION_ANY && self.generation != current
    }

    /// Check that `params` supplies exactly one value per `?`.
    pub(crate) fn check_arity(&self, params: &[Value]) -> DbResult<()> {
        if params.len() != self.param_count {
            return Err(DbError::Execution(format!(
                "statement expects {} parameters, got {}",
                self.param_count,
                params.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_counting_covers_all_clauses() {
        let p = Prepared::new("SELECT * FROM t WHERE a = ? AND b IN (?, ?) ORDER BY c LIMIT 1")
            .unwrap();
        assert_eq!(p.param_count, 3);
        let p = Prepared::new("INSERT INTO t VALUES (?, ?)").unwrap();
        assert_eq!(p.param_count, 2);
        let p = Prepared::new("SELECT 1").unwrap();
        assert_eq!(p.param_count, 0);
    }

    #[test]
    fn params_bind_by_reference() {
        let db = crate::Database::new();
        db.execute("CREATE TABLE t (a BIGINT PRIMARY KEY, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (42, 'z')").unwrap();
        let p = db.prepare("SELECT b FROM t WHERE a = ?").unwrap();
        let before = db.metrics().load();
        let rs = db.execute_prepared(&p, &[Value::Bigint(42)]).unwrap();
        assert_eq!(rs.scalar(), Some(&Value::Varchar("z".into())));
        // The parameter keys the primary-key probe, as a literal would.
        let stats = db.metrics().load().since(&before);
        assert_eq!((stats.index_probes, stats.full_scans), (1, 0));
        // The shared AST still holds the parameter: nothing was substituted.
        match &*p.stmt {
            Stmt::Select(q) => match q.where_clause.as_ref().unwrap() {
                Expr::Binary { right, .. } => assert_eq!(**right, Expr::Param(0)),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bind_checks_arity() {
        let db = crate::Database::new();
        db.execute("CREATE TABLE t (a BIGINT, b BIGINT)").unwrap();
        let p = db.prepare("SELECT * FROM t WHERE a = ? AND b = ?").unwrap();
        assert!(db.execute_prepared(&p, &[Value::Bigint(1)]).is_err());
        let three = [Value::Bigint(1), Value::Bigint(2), Value::Bigint(3)];
        assert!(db.execute_prepared(&p, &three).is_err());
        assert!(db.execute_prepared(&p, &[Value::Bigint(1), Value::Bigint(2)]).is_ok());
    }

    #[test]
    fn bind_reaches_table_function_args() {
        let db = crate::Database::new();
        db.register_function(
            "f",
            std::sync::Arc::new(|args: &[Value], cols: &[(String, crate::DataType)]| {
                let n = args[0].as_i64()?;
                let rows = (0..n).map(|i| vec![Value::Bigint(i)]).collect();
                Ok(crate::RowSet::with_rows(vec![cols[0].0.clone()], rows))
            }),
        );
        let p = db.prepare("SELECT * FROM TABLE(f(?)) AS x (a BIGINT) WHERE a > ?").unwrap();
        assert_eq!(p.param_count, 2);
        let rs = db.execute_prepared(&p, &[Value::Bigint(5), Value::Bigint(2)]).unwrap();
        assert_eq!(rs.rows, vec![vec![Value::Bigint(3)], vec![Value::Bigint(4)]]);
    }
}
