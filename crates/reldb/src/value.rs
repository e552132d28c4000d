//! Dynamic values and column data types.
//!
//! The engine is dynamically typed at the execution layer: every cell is a
//! [`Value`]. Column definitions carry a [`DataType`] that writes are checked
//! against, mirroring how a SQL engine validates INSERTs.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{DbError, DbResult};

/// The SQL column types supported by the engine.
///
/// This is the small set Db2 Graph actually needs: graph ids and numeric
/// properties map to `BIGINT`/`DOUBLE`, labels and textual properties to
/// `VARCHAR`, flags to `BOOLEAN`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bigint,
    Double,
    Varchar,
    Boolean,
}

impl DataType {
    /// Parse a SQL type name (case-insensitive). Accepts common aliases so
    /// that `INT`, `INTEGER`, `TEXT`, `FLOAT`, etc. all work.
    pub(crate) fn parse(name: &str) -> DbResult<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BIGINT" | "INT" | "INTEGER" | "LONG" | "SMALLINT" => Ok(DataType::Bigint),
            "DOUBLE" | "FLOAT" | "REAL" | "DECIMAL" | "NUMERIC" => Ok(DataType::Double),
            "VARCHAR" | "CHAR" | "TEXT" | "STRING" | "CLOB" => Ok(DataType::Varchar),
            "BOOLEAN" | "BOOL" => Ok(DataType::Boolean),
            other => Err(DbError::Type(format!("unknown data type '{other}'"))),
        }
    }

    /// Canonical SQL name of the type.
    pub(crate) fn sql_name(&self) -> &'static str {
        match self {
            DataType::Bigint => "BIGINT",
            DataType::Double => "DOUBLE",
            DataType::Varchar => "VARCHAR",
            DataType::Boolean => "BOOLEAN",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single dynamically-typed SQL value.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bigint(i64),
    Double(f64),
    Varchar(String),
    Boolean(bool),
}

impl Value {
    /// Type of this value, or `None` for NULL (NULL is typeless).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bigint(_) => Some(DataType::Bigint),
            Value::Double(_) => Some(DataType::Double),
            Value::Varchar(_) => Some(DataType::Varchar),
            Value::Boolean(_) => Some(DataType::Boolean),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Coerce this value to the given column type, if a lossless or
    /// conventional SQL coercion exists (BIGINT -> DOUBLE, anything -> its
    /// own type, NULL -> NULL). Used when checking INSERT/UPDATE values.
    pub(crate) fn coerce_to(&self, ty: DataType) -> DbResult<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (Value::Bigint(v), DataType::Bigint) => Ok(Value::Bigint(*v)),
            (Value::Bigint(v), DataType::Double) => Ok(Value::Double(*v as f64)),
            (Value::Double(v), DataType::Double) => Ok(Value::Double(*v)),
            (Value::Double(v), DataType::Bigint) if v.fract() == 0.0 => {
                Ok(Value::Bigint(*v as i64))
            }
            (Value::Varchar(s), DataType::Varchar) => Ok(Value::Varchar(s.clone())),
            (Value::Boolean(b), DataType::Boolean) => Ok(Value::Boolean(*b)),
            (v, ty) => {
                Err(DbError::Type(format!("cannot coerce {v} to {ty}", v = v.type_display())))
            }
        }
    }

    fn type_display(&self) -> String {
        match self.data_type() {
            Some(t) => t.sql_name().to_string(),
            None => "NULL".to_string(),
        }
    }

    /// Extract an i64, coercing exact doubles. Errors on other types.
    pub fn as_i64(&self) -> DbResult<i64> {
        match self {
            Value::Bigint(v) => Ok(*v),
            Value::Double(v) if v.fract() == 0.0 => Ok(*v as i64),
            other => Err(DbError::Type(format!("expected BIGINT, got {}", other.type_display()))),
        }
    }

    /// Extract an f64 from any numeric value.
    pub fn as_f64(&self) -> DbResult<f64> {
        match self {
            Value::Bigint(v) => Ok(*v as f64),
            Value::Double(v) => Ok(*v),
            other => Err(DbError::Type(format!("expected numeric, got {}", other.type_display()))),
        }
    }

    /// Extract a string slice. Errors on non-VARCHAR values.
    pub fn as_str(&self) -> DbResult<&str> {
        match self {
            Value::Varchar(s) => Ok(s),
            other => Err(DbError::Type(format!("expected VARCHAR, got {}", other.type_display()))),
        }
    }

    /// SQL three-valued-logic equality: NULL compared to anything is unknown
    /// (`None`); numeric values compare across BIGINT/DOUBLE.
    pub(crate) fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL comparison with NULL propagation and numeric cross-type support.
    /// Returns `None` when either side is NULL or the types are incomparable.
    pub(crate) fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bigint(a), Value::Bigint(b)) => Some(a.cmp(b)),
            (Value::Double(a), Value::Double(b)) => Some(a.total_cmp(b)),
            (Value::Bigint(a), Value::Double(b)) => Some((*a as f64).total_cmp(b)),
            (Value::Double(a), Value::Bigint(b)) => Some(a.total_cmp(&(*b as f64))),
            (Value::Varchar(a), Value::Varchar(b)) => Some(a.cmp(b)),
            (Value::Boolean(a), Value::Boolean(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Total ordering used by indexes and ORDER BY. NULLs sort first, then
    /// values are grouped by a type rank; numerics of either type compare
    /// together so a BIGINT index probe can find DOUBLE-coerced keys.
    ///
    /// Two BIGINTs, the graph layer's ids, compare inline: every B-tree
    /// comparison of an index probe goes through here. Every other pair
    /// takes the out-of-line `Value::total_cmp_slow`.
    #[inline]
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        match (self, other) {
            (Value::Bigint(a), Value::Bigint(b)) => a.cmp(b),
            _ => self.total_cmp_slow(other),
        }
    }

    #[inline(never)]
    fn total_cmp_slow(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Boolean(_) => 1,
                Value::Bigint(_) | Value::Double(_) => 2,
                Value::Varchar(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Boolean(a), Value::Boolean(b)) => a.cmp(b),
            (Value::Varchar(a), Value::Varchar(b)) => a.cmp(b),
            // Mixed numerics compare as doubles.
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                a.as_f64().unwrap_or(f64::NAN).total_cmp(&b.as_f64().unwrap_or(f64::NAN))
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// Render the value as a SQL literal (strings quoted and escaped).
    pub fn to_sql_literal(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bigint(v) => v.to_string(),
            Value::Double(v) => {
                if v.fract() == 0.0 && v.is_finite() {
                    format!("{v:.1}")
                } else {
                    v.to_string()
                }
            }
            Value::Varchar(s) => format!("'{}'", s.replace('\'', "''")),
            Value::Boolean(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        }
    }
}

impl PartialEq for Value {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for Value {}

impl PartialOrd for Value {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Value {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Boolean(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            // Hash all numerics as their f64 bits so Bigint(2) and
            // Double(2.0), which compare equal, hash identically.
            Value::Bigint(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            Value::Double(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            Value::Varchar(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bigint(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Varchar(s) => f.write_str(s),
            Value::Boolean(b) => write!(f, "{b}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Bigint(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Varchar(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Varchar(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Boolean(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_type_aliases() {
        assert_eq!(DataType::parse("int").unwrap(), DataType::Bigint);
        assert_eq!(DataType::parse("LONG").unwrap(), DataType::Bigint);
        assert_eq!(DataType::parse("Text").unwrap(), DataType::Varchar);
        assert_eq!(DataType::parse("real").unwrap(), DataType::Double);
        assert!(DataType::parse("blob").is_err());
    }

    #[test]
    fn coercion_rules() {
        assert_eq!(Value::Bigint(3).coerce_to(DataType::Double).unwrap(), Value::Double(3.0));
        assert_eq!(Value::Double(4.0).coerce_to(DataType::Bigint).unwrap(), Value::Bigint(4));
        assert!(Value::Double(4.5).coerce_to(DataType::Bigint).is_err());
        assert!(Value::Varchar("x".into()).coerce_to(DataType::Bigint).is_err());
        assert!(Value::Null.coerce_to(DataType::Bigint).unwrap().is_null());
    }

    #[test]
    fn sql_comparison_is_three_valued() {
        assert_eq!(Value::Null.sql_eq(&Value::Bigint(1)), None);
        assert_eq!(Value::Bigint(1).sql_eq(&Value::Bigint(1)), Some(true));
        assert_eq!(Value::Bigint(1).sql_eq(&Value::Double(1.0)), Some(true));
        assert_eq!(
            Value::Varchar("a".into()).sql_cmp(&Value::Varchar("b".into())),
            Some(Ordering::Less)
        );
        // Incomparable types yield unknown, like a failed implicit cast.
        assert_eq!(Value::Bigint(1).sql_cmp(&Value::Varchar("1".into())), None);
    }

    #[test]
    fn total_order_groups_nulls_first_and_mixes_numerics() {
        let mut vals = [
            Value::Varchar("a".into()),
            Value::Bigint(2),
            Value::Null,
            Value::Double(1.5),
            Value::Boolean(true),
        ];
        vals.sort();
        assert!(vals[0].is_null());
        assert_eq!(vals[1], Value::Boolean(true));
        assert_eq!(vals[2], Value::Double(1.5));
        assert_eq!(vals[3], Value::Bigint(2));
        assert_eq!(vals[4], Value::Varchar("a".into()));
    }

    #[test]
    fn bigints_compare_exactly_and_mixed_numerics_as_doubles() {
        // Both round to the same double: only the inline BIGINT path
        // tells them apart.
        assert_eq!(Value::Bigint(i64::MAX).cmp(&Value::Bigint(i64::MAX - 1)), Ordering::Greater);
        assert_eq!(Value::Bigint(-3).cmp(&Value::Bigint(2)), Ordering::Less);
        assert_eq!(Value::Bigint(2).cmp(&Value::Double(2.5)), Ordering::Less);
        assert_eq!(Value::Double(2.0).cmp(&Value::Bigint(2)), Ordering::Equal);
        assert_eq!(Value::Bigint(0).cmp(&Value::Null), Ordering::Greater);
        assert_eq!(Value::Bigint(0).cmp(&Value::Varchar("0".into())), Ordering::Less);
    }

    #[test]
    fn cross_type_numeric_hash_matches_equality() {
        use std::collections::hash_map::DefaultHasher;
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_eq!(Value::Bigint(7), Value::Double(7.0));
        assert_eq!(h(&Value::Bigint(7)), h(&Value::Double(7.0)));
    }

    #[test]
    fn sql_literal_escaping() {
        assert_eq!(Value::Varchar("O'Brien".into()).to_sql_literal(), "'O''Brien'");
        assert_eq!(Value::Bigint(-5).to_sql_literal(), "-5");
        assert_eq!(Value::Null.to_sql_literal(), "NULL");
        assert_eq!(Value::Double(2.0).to_sql_literal(), "2.0");
    }
}
