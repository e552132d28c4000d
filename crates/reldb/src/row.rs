//! Rows and result sets.

use std::fmt;

use crate::value::Value;

/// A single row: one [`Value`] per column, positionally aligned with the
/// owning table's schema or a result set's column list.
pub type Row = Vec<Value>;

/// A materialized query result: named columns plus rows.
///
/// This is what `Database::query` returns and what [`crate::func::TableFunction`]
/// implementations produce. It intentionally mirrors a JDBC result set: the
/// graph layer converts Gremlin output into one of these for the
/// `graphQuery` polymorphic table function.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowSet {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
}

impl RowSet {
    pub fn with_rows(columns: Vec<String>, rows: Vec<Row>) -> Self {
        RowSet { columns, rows }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column by case-insensitive name.
    pub(crate) fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Fetch a cell by row number and case-insensitive column name.
    pub fn get(&self, row: usize, column: &str) -> Option<&Value> {
        let ci = self.column_index(column)?;
        self.rows.get(row).and_then(|r| r.get(ci))
    }

    /// Convenience for single-value results (e.g. `SELECT COUNT(*) ...`).
    pub fn scalar(&self) -> Option<&Value> {
        self.rows.first().and_then(|r| r.first())
    }

    /// Render as an aligned text table, for examples and debugging output.
    pub(crate) fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> =
            self.rows.iter().map(|r| r.iter().map(|v| v.to_string()).collect()).collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:w$}", c, w = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("-+-"));
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:w$}", c, w = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for RowSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_table_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RowSet {
        RowSet::with_rows(
            vec!["id".into(), "name".into()],
            vec![
                vec![Value::Bigint(1), Value::Varchar("Alice".into())],
                vec![Value::Bigint(2), Value::Varchar("Bob".into())],
            ],
        )
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let rs = sample();
        assert_eq!(rs.column_index("NAME"), Some(1));
        assert_eq!(rs.get(0, "Name"), Some(&Value::Varchar("Alice".into())));
        assert_eq!(rs.get(5, "name"), None);
        assert_eq!(rs.column_index("missing"), None);
    }

    #[test]
    fn scalar_returns_first_cell() {
        let rs = RowSet::with_rows(vec!["c".into()], vec![vec![Value::Bigint(42)]]);
        assert_eq!(rs.scalar(), Some(&Value::Bigint(42)));
        assert_eq!(RowSet::with_rows(vec!["c".into()], Vec::new()).scalar(), None);
    }

    #[test]
    fn table_rendering_aligns_columns() {
        let s = sample().to_table_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("id"));
        assert!(lines[2].contains("Alice"));
        // All lines equal width.
        assert_eq!(lines[0].len(), lines[2].len());
    }
}
