//! AutoOverlay: automatic overlay-configuration generation (Section 5.1).
//!
//! Implements the paper's Algorithm 1 (identify vertex and edge tables from
//! primary/foreign-key constraints) and Algorithm 2 (generate the overlay
//! configuration):
//!
//! * a table **with a primary key** is a vertex table; if it also has
//!   foreign keys it is *additionally* one edge table per foreign key (fact
//!   tables play both roles);
//! * a table **without a primary key** but with `k >= 2` foreign keys is
//!   `C(k, 2)` edge tables, one per pair of foreign keys (many-to-many
//!   link tables);
//! * vertex ids are the primary key prefixed with a unique table
//!   identifier; labels are fixed to the table name; remaining columns are
//!   properties; edges use the implicit `src::label::dst` id.

use reldb::{Database, TableSchema};

use crate::config::{ETableConfig, OverlayConfig, VTableConfig};
use crate::error::{GraphError, GraphResult};

/// Result of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableRoles {
    pub vertex_tables: Vec<String>,
    pub edge_tables: Vec<String>,
}

/// Algorithm 1: classify tables into vertex tables and edge tables.
pub fn identify_tables(tables: &[TableSchema]) -> TableRoles {
    let mut vertex_tables = Vec::new();
    let mut edge_tables = Vec::new();
    for t in tables {
        if t.has_primary_key() {
            vertex_tables.push(t.name.clone());
            if !t.foreign_keys.is_empty() {
                edge_tables.push(t.name.clone());
            }
        } else if t.foreign_keys.len() >= 2 {
            edge_tables.push(t.name.clone());
        }
    }
    TableRoles { vertex_tables, edge_tables }
}

/// The unique table identifier used as id prefix: the lower-cased table
/// name (the paper allows "the table name or some other unique constant").
fn table_prefix(name: &str) -> String {
    name.to_ascii_lowercase()
}

/// Build the id definition string for a vertex table: the primary key
/// columns prefixed with the table identifier.
fn vertex_id_def(t: &TableSchema) -> String {
    let pk = t.primary_key.as_ref().expect("vertex tables have a primary key");
    let mut parts = vec![format!("'{}'", table_prefix(&t.name))];
    parts.extend(pk.iter().cloned());
    parts.join("::")
}

/// Build an endpoint definition referencing `ref_table` through the given
/// columns of the edge table.
fn endpoint_def(ref_table: &str, cols: &[String]) -> String {
    let mut parts = vec![format!("'{}'", table_prefix(ref_table))];
    parts.extend(cols.iter().cloned());
    parts.join("::")
}

/// Algorithm 2: generate the overlay configuration for a set of tables.
pub fn generate_overlay(tables: &[TableSchema]) -> GraphResult<OverlayConfig> {
    let roles = identify_tables(tables);
    if roles.vertex_tables.is_empty() {
        return Err(GraphError::Config(
            "no table has a primary key; AutoOverlay cannot identify vertex tables (specify an overlay manually)".into(),
        ));
    }
    let by_name = |name: &str| -> &TableSchema {
        tables.iter().find(|t| t.name == *name).expect("role tables come from input")
    };

    let mut config = OverlayConfig::default();
    for name in &roles.vertex_tables {
        let t = by_name(name);
        let pk = t.primary_key.as_ref().unwrap();
        let properties: Vec<String> = t
            .columns
            .iter()
            .map(|c| c.name.clone())
            .filter(|c| !pk.iter().any(|p| p.eq_ignore_ascii_case(c)))
            .collect();
        config.v_tables.push(VTableConfig {
            table_name: t.name.clone(),
            prefixed_id: true,
            id: vertex_id_def(t),
            fix_label: true,
            label: format!("'{}'", t.name),
            properties: Some(properties),
        });
    }

    for name in &roles.edge_tables {
        let t = by_name(name);
        if t.has_primary_key() {
            // Fact-table case: the table itself is the source vertex; one
            // edge table per foreign key.
            let pk = t.primary_key.as_ref().unwrap();
            for fk in &t.foreign_keys {
                let properties: Vec<String> = t
                    .columns
                    .iter()
                    .map(|c| c.name.clone())
                    .filter(|c| {
                        !pk.iter().any(|p| p.eq_ignore_ascii_case(c))
                            && !fk.columns.iter().any(|p| p.eq_ignore_ascii_case(c))
                    })
                    .collect();
                config.e_tables.push(ETableConfig {
                    table_name: t.name.clone(),
                    src_v_table: Some(t.name.clone()),
                    src_v: vertex_id_def(t),
                    dst_v_table: resolve_vertex_table(&roles, &fk.ref_table),
                    dst_v: endpoint_def(&fk.ref_table, &fk.columns),
                    prefixed_edge_id: false,
                    implicit_edge_id: true,
                    id: None,
                    fix_label: true,
                    label: format!("'{}_{}'", t.name, fk.ref_table),
                    properties: Some(properties),
                });
            }
        } else {
            // Link-table case: one edge table per pair of foreign keys.
            let fks = &t.foreign_keys;
            for i in 0..fks.len() {
                for j in (i + 1)..fks.len() {
                    let fk1 = &fks[i];
                    let fk2 = &fks[j];
                    let properties: Vec<String> = t
                        .columns
                        .iter()
                        .map(|c| c.name.clone())
                        .filter(|c| {
                            !fk1.columns.iter().any(|p| p.eq_ignore_ascii_case(c))
                                && !fk2.columns.iter().any(|p| p.eq_ignore_ascii_case(c))
                        })
                        .collect();
                    config.e_tables.push(ETableConfig {
                        table_name: t.name.clone(),
                        src_v_table: resolve_vertex_table(&roles, &fk1.ref_table),
                        src_v: endpoint_def(&fk1.ref_table, &fk1.columns),
                        dst_v_table: resolve_vertex_table(&roles, &fk2.ref_table),
                        dst_v: endpoint_def(&fk2.ref_table, &fk2.columns),
                        prefixed_edge_id: false,
                        implicit_edge_id: true,
                        id: None,
                        fix_label: true,
                        label: format!("'{}_{}_{}'", fk1.ref_table, t.name, fk2.ref_table),
                        properties: Some(properties),
                    });
                }
            }
        }
    }
    Ok(config)
}

/// Only link `src_v_table`/`dst_v_table` when the referenced table is a
/// configured vertex table (it always is when it has a primary key).
fn resolve_vertex_table(roles: &TableRoles, name: &str) -> Option<String> {
    roles.vertex_tables.iter().find(|v| v.eq_ignore_ascii_case(name)).cloned()
}

/// Generate the overlay for a database, optionally restricted to a subset
/// of tables.
pub fn auto_overlay(db: &Database, include: Option<&[&str]>) -> GraphResult<OverlayConfig> {
    let mut schemas = db.table_schemas();
    if let Some(include) = include {
        schemas.retain(|s| include.iter().any(|n| n.eq_ignore_ascii_case(&s.name)));
        // Drop foreign keys that point outside the included set, so the
        // generated overlay is self-contained.
        let names: Vec<String> = schemas.iter().map(|s| s.name.clone()).collect();
        for s in &mut schemas {
            s.foreign_keys.retain(|fk| names.iter().any(|n| n.eq_ignore_ascii_case(&fk.ref_table)));
        }
    }
    generate_overlay(&schemas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reldb::{ColumnDef, DataType};

    fn schemas() -> Vec<TableSchema> {
        vec![
            // Vertex table.
            TableSchema::new(
                "Patient",
                vec![
                    ColumnDef::new("patientID", DataType::Bigint).not_null(),
                    ColumnDef::new("name", DataType::Varchar),
                ],
            )
            .with_primary_key(vec!["patientID"]),
            // Vertex table.
            TableSchema::new(
                "Disease",
                vec![
                    ColumnDef::new("diseaseID", DataType::Bigint).not_null(),
                    ColumnDef::new("conceptName", DataType::Varchar),
                ],
            )
            .with_primary_key(vec!["diseaseID"]),
            // Pure link table: no PK, two FKs.
            TableSchema::new(
                "HasDisease",
                vec![
                    ColumnDef::new("patientID", DataType::Bigint),
                    ColumnDef::new("diseaseID", DataType::Bigint),
                    ColumnDef::new("description", DataType::Varchar),
                ],
            )
            .with_foreign_key(vec!["patientID"], "Patient", vec!["patientID"])
            .with_foreign_key(vec!["diseaseID"], "Disease", vec!["diseaseID"]),
            // Fact table: PK + FK -> vertex table AND edge table.
            TableSchema::new(
                "Visit",
                vec![
                    ColumnDef::new("visitID", DataType::Bigint).not_null(),
                    ColumnDef::new("patientID", DataType::Bigint),
                    ColumnDef::new("cost", DataType::Double),
                ],
            )
            .with_primary_key(vec!["visitID"])
            .with_foreign_key(vec!["patientID"], "Patient", vec!["patientID"]),
            // Table with neither PK nor 2 FKs: ignored.
            TableSchema::new("Scratch", vec![ColumnDef::new("x", DataType::Bigint)]),
        ]
    }

    #[test]
    fn algorithm1_roles() {
        let roles = identify_tables(&schemas());
        assert_eq!(roles.vertex_tables, vec!["Patient", "Disease", "Visit"]);
        assert_eq!(roles.edge_tables, vec!["HasDisease", "Visit"]);
    }

    #[test]
    fn algorithm2_generates_valid_config() {
        let config = generate_overlay(&schemas()).unwrap();
        config.validate_shape().unwrap();
        assert_eq!(config.v_tables.len(), 3);
        // Visit (1 FK) + HasDisease (C(2,2)=1 pair) = 2 edge tables.
        assert_eq!(config.e_tables.len(), 2);

        let patient = config.v_tables.iter().find(|v| v.table_name == "Patient").unwrap();
        assert_eq!(patient.id, "'patient'::patientID");
        assert!(patient.prefixed_id);
        assert_eq!(patient.label, "'Patient'");
        assert_eq!(patient.properties, Some(vec!["name".to_string()]));

        let visit_edge = config.e_tables.iter().find(|e| e.table_name == "Visit").unwrap();
        assert_eq!(visit_edge.src_v, "'visit'::visitID");
        assert_eq!(visit_edge.dst_v, "'patient'::patientID");
        assert_eq!(visit_edge.src_v_table.as_deref(), Some("Visit"));
        assert!(visit_edge.implicit_edge_id);
        // Properties exclude PK and FK columns.
        assert_eq!(visit_edge.properties, Some(vec!["cost".to_string()]));

        let hd = config.e_tables.iter().find(|e| e.table_name == "HasDisease").unwrap();
        assert_eq!(hd.src_v, "'patient'::patientID");
        assert_eq!(hd.dst_v, "'disease'::diseaseID");
        assert_eq!(hd.label, "'Patient_HasDisease_Disease'");
        assert_eq!(hd.properties, Some(vec!["description".to_string()]));
    }

    #[test]
    fn many_to_many_pairs() {
        // 3 FKs, no PK -> C(3,2) = 3 edge tables.
        let t = TableSchema::new(
            "Tri",
            vec![
                ColumnDef::new("a", DataType::Bigint),
                ColumnDef::new("b", DataType::Bigint),
                ColumnDef::new("c", DataType::Bigint),
            ],
        )
        .with_foreign_key(vec!["a"], "A", vec!["id"])
        .with_foreign_key(vec!["b"], "B", vec!["id"])
        .with_foreign_key(vec!["c"], "C", vec!["id"]);
        let mut tables = vec![t];
        for n in ["A", "B", "C"] {
            tables.push(
                TableSchema::new(n, vec![ColumnDef::new("id", DataType::Bigint).not_null()])
                    .with_primary_key(vec!["id"]),
            );
        }
        let config = generate_overlay(&tables).unwrap();
        assert_eq!(config.e_tables.len(), 3);
        let labels: Vec<&str> = config.e_tables.iter().map(|e| e.label.as_str()).collect();
        assert!(labels.contains(&"'A_Tri_B'"));
        assert!(labels.contains(&"'A_Tri_C'"));
        assert!(labels.contains(&"'B_Tri_C'"));
    }

    #[test]
    fn no_pk_anywhere_errors() {
        let t = TableSchema::new("X", vec![ColumnDef::new("a", DataType::Bigint)]);
        assert!(generate_overlay(&[t]).is_err());
    }

    #[test]
    fn end_to_end_against_database() {
        let db = Database::new();
        db.execute_script(
            "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR);
             CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptName VARCHAR);
             CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR,
                FOREIGN KEY (patientID) REFERENCES Patient(patientID),
                FOREIGN KEY (diseaseID) REFERENCES Disease(diseaseID));",
        )
        .unwrap();
        let config = auto_overlay(&db, None).unwrap();
        assert_eq!(config.v_tables.len(), 2);
        assert_eq!(config.e_tables.len(), 1);
        // Restricting to a subset drops edges whose endpoints are excluded.
        let config = auto_overlay(&db, Some(&["Patient", "HasDisease"])).unwrap();
        assert_eq!(config.v_tables.len(), 1);
        assert!(config.e_tables.is_empty()); // fk to Disease dropped -> only 1 fk left
    }
}
