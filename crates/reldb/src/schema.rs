//! Table schemas and integrity constraints.
//!
//! The catalog metadata here — column definitions, primary keys, and foreign
//! keys — is exactly what the paper's AutoOverlay toolkit consumes
//! (Section 5.1, Step 1: "queries Db2 catalog to get all the metadata
//! information for each table such as table schema, and primary key/foreign
//! key constraints").

use crate::error::{DbError, DbResult};
use crate::value::DataType;

/// Definition of a single table column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
    pub(crate) nullable: bool,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef { name: name.into(), data_type, nullable: true }
    }

    pub fn not_null(mut self) -> Self {
        self.nullable = false;
        self
    }
}

/// A foreign key constraint: `columns` in this table reference
/// `ref_columns` of `ref_table`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForeignKey {
    pub columns: Vec<String>,
    pub ref_table: String,
    pub(crate) ref_columns: Vec<String>,
}

/// Complete schema of a table: columns plus declared constraints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    /// Primary key column names, if declared. Composite keys supported.
    pub primary_key: Option<Vec<String>>,
    pub foreign_keys: Vec<ForeignKey>,
    /// Additional UNIQUE constraints (each a set of column names).
    pub(crate) uniques: Vec<Vec<String>>,
}

impl TableSchema {
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
            primary_key: None,
            foreign_keys: Vec::new(),
            uniques: Vec::new(),
        }
    }

    pub fn with_primary_key(mut self, cols: Vec<&str>) -> Self {
        self.primary_key = Some(cols.into_iter().map(str::to_string).collect());
        self
    }

    pub fn with_foreign_key(
        mut self,
        cols: Vec<&str>,
        ref_table: &str,
        ref_cols: Vec<&str>,
    ) -> Self {
        self.foreign_keys.push(ForeignKey {
            columns: cols.into_iter().map(str::to_string).collect(),
            ref_table: ref_table.to_string(),
            ref_columns: ref_cols.into_iter().map(str::to_string).collect(),
        });
        self
    }

    /// Position of a column by case-insensitive name.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Like [`Self::column_index`] but returns a catalog error naming the
    /// table, for use during planning.
    pub(crate) fn require_column(&self, name: &str) -> DbResult<usize> {
        self.column_index(name).ok_or_else(|| {
            DbError::Catalog(format!("column '{}' not found in table '{}'", name, self.name))
        })
    }

    #[cfg(test)]
    pub(crate) fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    pub fn has_primary_key(&self) -> bool {
        self.primary_key.is_some()
    }

    /// True when `name` is one of the primary key columns.
    pub(crate) fn is_pk_column(&self, name: &str) -> bool {
        self.primary_key
            .as_ref()
            .map(|pk| pk.iter().any(|c| c.eq_ignore_ascii_case(name)))
            .unwrap_or(false)
    }

    /// Validate internal consistency: unique column names, constraints
    /// referencing existing columns, PK columns implicitly NOT NULL.
    pub(crate) fn validate(&self) -> DbResult<()> {
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|p| p.name.eq_ignore_ascii_case(&c.name)) {
                return Err(DbError::Catalog(format!(
                    "duplicate column '{}' in table '{}'",
                    c.name, self.name
                )));
            }
        }
        if let Some(pk) = &self.primary_key {
            if pk.is_empty() {
                return Err(DbError::Catalog(format!("empty primary key on '{}'", self.name)));
            }
            for col in pk {
                self.require_column(col)?;
            }
        }
        for fk in &self.foreign_keys {
            if fk.columns.is_empty() || fk.columns.len() != fk.ref_columns.len() {
                return Err(DbError::Catalog(format!(
                    "malformed foreign key on '{}': column count mismatch",
                    self.name
                )));
            }
            for col in &fk.columns {
                self.require_column(col)?;
            }
        }
        for u in &self.uniques {
            for col in u {
                self.require_column(col)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn patient_schema() -> TableSchema {
        TableSchema::new(
            "Patient",
            vec![
                ColumnDef::new("patientID", DataType::Bigint).not_null(),
                ColumnDef::new("name", DataType::Varchar),
                ColumnDef::new("address", DataType::Varchar),
                ColumnDef::new("subscriptionID", DataType::Bigint),
            ],
        )
        .with_primary_key(vec!["patientID"])
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let s = patient_schema();
        assert_eq!(s.column_index("PATIENTID"), Some(0));
        assert_eq!(s.column("Name").unwrap().data_type, DataType::Varchar);
        assert!(s.require_column("missing").is_err());
    }

    #[test]
    fn pk_and_fk_membership() {
        let s = TableSchema::new(
            "HasDisease",
            vec![
                ColumnDef::new("patientID", DataType::Bigint),
                ColumnDef::new("diseaseID", DataType::Bigint),
                ColumnDef::new("description", DataType::Varchar),
            ],
        )
        .with_foreign_key(vec!["patientID"], "Patient", vec!["patientID"])
        .with_foreign_key(vec!["diseaseID"], "Disease", vec!["diseaseID"]);
        assert!(!s.is_pk_column("patientID"));
        assert!(!s.has_primary_key());
        assert_eq!(s.foreign_keys.len(), 2);
    }

    #[test]
    fn validate_rejects_duplicates_and_bad_constraints() {
        let dup = TableSchema::new(
            "T",
            vec![ColumnDef::new("a", DataType::Bigint), ColumnDef::new("A", DataType::Varchar)],
        );
        assert!(dup.validate().is_err());

        let bad_pk = TableSchema::new("T", vec![ColumnDef::new("a", DataType::Bigint)])
            .with_primary_key(vec!["nope"]);
        assert!(bad_pk.validate().is_err());

        assert!(patient_schema().validate().is_ok());
    }
}
