//! The Topology module: the resolved overlay mapping.
//!
//! "The Topology module reads the overlay configuration file and establishes
//! the overlay mapping from the property graph onto the relational tables in
//! the database by accessing the database metadata. ... the overlay topology
//! can tell us which table(s) contains vertices/edges with a particular
//! label or a particular property name, and whether the source/destination
//! vertices of all the edges in an edge table are from a specific vertex
//! table." (Section 6.1)

use std::collections::HashMap;
use std::sync::Arc;

use gremlin::ElementKind;
use reldb::{DataType, Database};

use crate::config::{parse_label_constant, ETableConfig, OverlayConfig, VTableConfig};
use crate::error::{GraphError, GraphResult};
use crate::ids::{EdgeIdDef, IdDef, IdPart};

/// How a table defines the `label` required field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LabelDef {
    /// All rows share this constant label (`fix_label: true`); every
    /// element of the table holds this one `Arc`.
    Fixed(Arc<str>),
    /// The label comes from this column.
    Column(String),
}

/// What vertex and edge tables share: the table, its label and its
/// properties.
#[derive(Debug, Clone)]
pub struct OverlayTable {
    pub name: String,
    pub label: LabelDef,
    /// Property names (== column names) exposed on this table's elements.
    pub properties: Vec<String>,
    /// All columns with their types (`None` for view columns, whose types
    /// are not tracked by the catalog).
    pub columns: Vec<(String, Option<DataType>)>,
    /// `name`, shared as the provenance of every element of the table.
    pub provenance: Arc<str>,
    /// `properties` sorted and deduplicated: the key list every element
    /// read with all its properties shares.
    pub(crate) keys: Arc<[Arc<str>]>,
}

/// A resolved vertex table mapping.
#[derive(Debug, Clone)]
pub struct VertexTable {
    pub table: OverlayTable,
    pub id: IdDef,
    pub prefixed_id: bool,
}

/// A resolved edge table mapping.
#[derive(Debug, Clone)]
pub struct EdgeTable {
    pub table: OverlayTable,
    /// Index into `Topology::vertex_tables` when `src_v_table` was
    /// configured.
    pub src_v_table: Option<usize>,
    pub src_v: IdDef,
    pub dst_v_table: Option<usize>,
    pub dst_v: IdDef,
    pub(crate) id: EdgeIdDef,
}

impl OverlayTable {
    fn new(
        name: &str,
        label: LabelDef,
        properties: Vec<String>,
        columns: Vec<(String, Option<DataType>)>,
    ) -> OverlayTable {
        let mut keys: Vec<Arc<str>> = properties.iter().map(|p| Arc::from(p.as_str())).collect();
        keys.sort();
        keys.dedup();
        OverlayTable {
            name: name.to_string(),
            label,
            properties,
            columns,
            provenance: Arc::from(name),
            keys: keys.into(),
        }
    }

    pub(crate) fn column_type(&self, name: &str) -> Option<DataType> {
        self.columns.iter().find(|(c, _)| c.eq_ignore_ascii_case(name)).and_then(|(_, t)| *t)
    }

    pub(crate) fn has_property(&self, name: &str) -> bool {
        self.properties.iter().any(|p| p.eq_ignore_ascii_case(name))
    }

    pub(crate) fn fixed_label(&self) -> Option<&str> {
        match &self.label {
            LabelDef::Fixed(l) => Some(l),
            LabelDef::Column(_) => None,
        }
    }
}

/// The resolved overlay topology.
#[derive(Debug, Clone)]
pub struct Topology {
    pub vertex_tables: Vec<VertexTable>,
    pub edge_tables: Vec<EdgeTable>,
}

impl Topology {
    /// Resolve a configuration against the database catalog, validating
    /// every referenced table/view and column.
    pub fn resolve(db: &Arc<Database>, config: &OverlayConfig) -> GraphResult<Topology> {
        config.validate_shape()?;
        let mut vertex_tables = Vec::with_capacity(config.v_tables.len());
        for v in &config.v_tables {
            vertex_tables.push(resolve_vertex(db, v)?);
        }
        // Map configured vertex table names to their indexes.
        let name_to_idx: HashMap<String, usize> = vertex_tables
            .iter()
            .enumerate()
            .map(|(i, t)| (t.table.name.to_ascii_lowercase(), i))
            .collect();
        let mut edge_tables = Vec::with_capacity(config.e_tables.len());
        for e in &config.e_tables {
            edge_tables.push(resolve_edge(db, e, &name_to_idx, &vertex_tables)?);
        }
        Ok(Topology { vertex_tables, edge_tables })
    }

    /// The number of tables holding elements of `kind`.
    pub(crate) fn table_count(&self, kind: ElementKind) -> usize {
        match kind {
            ElementKind::Vertices => self.vertex_tables.len(),
            ElementKind::Edges => self.edge_tables.len(),
        }
    }

    /// What table `i` of `kind` shares with the other kind.
    pub fn table(&self, kind: ElementKind, i: usize) -> &OverlayTable {
        match kind {
            ElementKind::Vertices => &self.vertex_tables[i].table,
            ElementKind::Edges => &self.edge_tables[i].table,
        }
    }

    /// Tables of `kind` that might contain elements with one of the given
    /// labels: fixed-label tables matching, plus every column-label table
    /// ("the implementation still has to search all the tables without
    /// fixed labels", Section 6.3).
    pub(crate) fn tables_for_labels(&self, kind: ElementKind, labels: &[String]) -> Vec<usize> {
        (0..self.table_count(kind))
            .filter(|&i| {
                self.table(kind, i).fixed_label().is_none_or(|l| labels.iter().any(|x| x == l))
            })
            .collect()
    }

    /// Index of a table of `kind` by name.
    pub(crate) fn table_index(&self, kind: ElementKind, name: &str) -> Option<usize> {
        (0..self.table_count(kind)).find(|&i| self.table(kind, i).name.eq_ignore_ascii_case(name))
    }
}

/// Column list with optional catalog types (None for view columns).
type ColumnList = Vec<(String, Option<DataType>)>;

/// Fetch a table's or view's columns from the catalog.
fn table_columns(db: &Arc<Database>, name: &str) -> GraphResult<ColumnList> {
    if let Some(t) = db.get_table(name) {
        return Ok(t.schema.columns.iter().map(|c| (c.name.clone(), Some(c.data_type))).collect());
    }
    if db.get_view(name).is_some() {
        return Ok(db
            .view_columns(name)
            .map_err(GraphError::Db)?
            .into_iter()
            .map(|c| (c, None))
            .collect());
    }
    Err(GraphError::Config(format!("overlay references unknown table or view '{name}'")))
}

fn require_columns(
    table: &str,
    columns: &[(String, Option<DataType>)],
    needed: &[&str],
    what: &str,
) -> GraphResult<()> {
    for n in needed {
        if !columns.iter().any(|(c, _)| c.eq_ignore_ascii_case(n)) {
            return Err(GraphError::Config(format!(
                "{what} of table '{table}' references missing column '{n}'"
            )));
        }
    }
    Ok(())
}

fn resolve_label(
    spec: &str,
    fix: bool,
    table: &str,
    columns: &[(String, Option<DataType>)],
) -> GraphResult<LabelDef> {
    match parse_label_constant(spec) {
        Some(constant) => Ok(LabelDef::Fixed(constant.into())),
        None if fix => Err(GraphError::Config(format!(
            "table '{table}': fix_label set but label '{spec}' is not a constant"
        ))),
        None => {
            require_columns(table, columns, &[spec], "label")?;
            Ok(LabelDef::Column(spec.to_string()))
        }
    }
}

/// Property defaulting: all columns except those used by required fields.
fn default_properties(columns: &[(String, Option<DataType>)], used: &[&str]) -> Vec<String> {
    columns
        .iter()
        .map(|(c, _)| c.clone())
        .filter(|c| !used.iter().any(|u| u.eq_ignore_ascii_case(c)))
        .collect()
}

fn resolve_vertex(db: &Arc<Database>, v: &VTableConfig) -> GraphResult<VertexTable> {
    let columns = table_columns(db, &v.table_name)?;
    let id = IdDef::parse(&v.id)?;
    if v.prefixed_id && id.prefix().is_none() {
        return Err(GraphError::Config(format!(
            "vertex table '{}': prefixed_id set but id '{}' has no constant prefix",
            v.table_name, v.id
        )));
    }
    require_columns(&v.table_name, &columns, &id.columns(), "id")?;
    let label = resolve_label(&v.label, v.fix_label, &v.table_name, &columns)?;
    let properties = match &v.properties {
        Some(p) => {
            let names: Vec<&str> = p.iter().map(String::as_str).collect();
            require_columns(&v.table_name, &columns, &names, "properties")?;
            p.clone()
        }
        None => {
            let mut used: Vec<&str> = id.columns();
            if let LabelDef::Column(c) = &label {
                used.push(c);
            }
            default_properties(&columns, &used)
        }
    };
    Ok(VertexTable {
        table: OverlayTable::new(&v.table_name, label, properties, columns),
        id,
        prefixed_id: v.prefixed_id,
    })
}

/// Check that an edge endpoint definition structurally matches the id
/// definition of its declared vertex table: equal constants, equal column
/// counts ("the source/destination vertex id definition has to match
/// exactly with the id definition of the corresponding vertex table",
/// Section 5 — column *names* may differ).
fn endpoint_matches(endpoint: &IdDef, vertex_id: &IdDef) -> bool {
    if endpoint.parts.len() != vertex_id.parts.len() {
        return false;
    }
    endpoint.parts.iter().zip(&vertex_id.parts).all(|(a, b)| match (a, b) {
        (IdPart::Const(x), IdPart::Const(y)) => x == y,
        (IdPart::Column(_), IdPart::Column(_)) => true,
        _ => false,
    })
}

fn resolve_edge(
    db: &Arc<Database>,
    e: &ETableConfig,
    name_to_idx: &HashMap<String, usize>,
    vertex_tables: &[VertexTable],
) -> GraphResult<EdgeTable> {
    let columns = table_columns(db, &e.table_name)?;
    let src_v = IdDef::parse(&e.src_v)?;
    let dst_v = IdDef::parse(&e.dst_v)?;
    require_columns(&e.table_name, &columns, &src_v.columns(), "src_v")?;
    require_columns(&e.table_name, &columns, &dst_v.columns(), "dst_v")?;

    let lookup_vt = |name: &Option<String>,
                     endpoint: &IdDef,
                     which: &str|
     -> GraphResult<Option<usize>> {
        match name {
            None => Ok(None),
            Some(n) => {
                let idx = name_to_idx.get(&n.to_ascii_lowercase()).copied().ok_or_else(|| {
                    GraphError::Config(format!(
                        "edge table '{}': {which}_table '{n}' is not a configured vertex table",
                        e.table_name
                    ))
                })?;
                if !endpoint_matches(endpoint, &vertex_tables[idx].id) {
                    return Err(GraphError::Config(format!(
                        "edge table '{}': {which} definition does not match the id definition of vertex table '{n}'",
                        e.table_name
                    )));
                }
                Ok(Some(idx))
            }
        }
    };
    let src_idx = lookup_vt(&e.src_v_table, &src_v, "src_v")?;
    let dst_idx = lookup_vt(&e.dst_v_table, &dst_v, "dst_v")?;

    let id = if e.implicit_edge_id {
        EdgeIdDef::Implicit
    } else {
        let spec = e.id.as_ref().expect("validated by validate_shape");
        let def = IdDef::parse(spec)?;
        if e.prefixed_edge_id && def.prefix().is_none() {
            return Err(GraphError::Config(format!(
                "edge table '{}': prefixed_edge_id set but id '{spec}' has no constant prefix",
                e.table_name
            )));
        }
        require_columns(&e.table_name, &columns, &def.columns(), "id")?;
        EdgeIdDef::Explicit(def)
    };

    let label = resolve_label(&e.label, e.fix_label, &e.table_name, &columns)?;
    let properties = match &e.properties {
        Some(p) => {
            let names: Vec<&str> = p.iter().map(String::as_str).collect();
            require_columns(&e.table_name, &columns, &names, "properties")?;
            p.clone()
        }
        None => {
            let mut used: Vec<&str> = Vec::new();
            used.extend(src_v.columns());
            used.extend(dst_v.columns());
            if let EdgeIdDef::Explicit(def) = &id {
                used.extend(def.columns());
            }
            if let LabelDef::Column(c) = &label {
                used.push(c);
            }
            default_properties(&columns, &used)
        }
    };

    Ok(EdgeTable {
        table: OverlayTable::new(&e.table_name, label, properties, columns),
        src_v_table: src_idx,
        src_v,
        dst_v_table: dst_idx,
        dst_v,
        id,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::healthcare_example_json;

    /// Build the Figure 2 healthcare database (tables + sample rows).
    pub(crate) fn healthcare_db() -> Arc<Database> {
        let db = Arc::new(Database::new());
        db.execute_script(
            "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, address VARCHAR, subscriptionID BIGINT);
             CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, conceptName VARCHAR);
             CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR,
                FOREIGN KEY (sourceID) REFERENCES Disease(diseaseID),
                FOREIGN KEY (targetID) REFERENCES Disease(diseaseID));
             CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR,
                FOREIGN KEY (patientID) REFERENCES Patient(patientID),
                FOREIGN KEY (diseaseID) REFERENCES Disease(diseaseID));
             CREATE TABLE DeviceData (subscriptionID BIGINT, day BIGINT, steps BIGINT, exerciseMinutes BIGINT);",
        )
        .unwrap();
        db
    }

    #[test]
    fn resolve_paper_example() {
        let db = healthcare_db();
        let cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        let topo = Topology::resolve(&db, &cfg).unwrap();
        assert_eq!(topo.vertex_tables.len(), 2);
        assert_eq!(topo.edge_tables.len(), 2);

        let patient = &topo.vertex_tables[0];
        assert_eq!(patient.table.fixed_label(), Some("patient"));
        assert!(patient.prefixed_id);
        assert_eq!(patient.id.prefix(), Some("patient"));

        let hd = &topo.edge_tables[1];
        assert_eq!(hd.src_v_table, Some(0));
        assert_eq!(hd.dst_v_table, Some(1));
        assert_eq!(hd.id, EdgeIdDef::Implicit);
        // Properties defaulted to the remaining column.
        assert_eq!(hd.table.properties, vec!["description".to_string()]);

        let onto = &topo.edge_tables[0];
        assert_eq!(onto.table.fixed_label(), None);
        assert!(matches!(onto.table.label, LabelDef::Column(ref c) if c == "type"));
    }

    #[test]
    fn label_based_table_selection() {
        let db = healthcare_db();
        let cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        let topo = Topology::resolve(&db, &cfg).unwrap();
        let (v, e) = (ElementKind::Vertices, ElementKind::Edges);
        assert_eq!(topo.tables_for_labels(v, &["patient".into()]), vec![0]);
        assert_eq!(topo.tables_for_labels(v, &["disease".into()]), vec![1]);
        assert!(topo.tables_for_labels(v, &["nope".into()]).is_empty());
        // Edge label 'isa' comes from a column-label table, which must
        // always be searched.
        assert_eq!(topo.tables_for_labels(e, &["isa".into()]), vec![0]);
        assert_eq!(topo.tables_for_labels(e, &["hasDisease".into()]), vec![0, 1]);
        assert_eq!(topo.table_index(v, "DISEASE"), Some(1));
        assert_eq!(topo.table_index(e, "hasdisease"), Some(1));
        assert_eq!(topo.table_index(e, "Patient"), None);
    }

    #[test]
    fn validation_failures() {
        let db = healthcare_db();
        let mut cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        cfg.v_tables[0].table_name = "NoSuch".into();
        assert!(Topology::resolve(&db, &cfg).is_err());

        let mut cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        cfg.v_tables[0].id = "'patient'::missingCol".into();
        assert!(Topology::resolve(&db, &cfg).is_err());

        // src_v not matching the vertex table id definition.
        let mut cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        cfg.e_tables[1].src_v = "patientID".into(); // missing 'patient' prefix
        let err = Topology::resolve(&db, &cfg).unwrap_err();
        assert!(err.to_string().contains("does not match"), "{err}");

        // src_v_table not among configured vertex tables.
        let mut cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        cfg.e_tables[1].src_v_table = Some("DeviceData".into());
        assert!(Topology::resolve(&db, &cfg).is_err());

        // prefixed_id without a prefix.
        let mut cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        cfg.v_tables[1].prefixed_id = true;
        assert!(Topology::resolve(&db, &cfg).is_err());
    }

    #[test]
    fn views_can_be_overlaid() {
        let db = healthcare_db();
        db.execute("CREATE VIEW PatientLite AS SELECT patientID, name FROM Patient").unwrap();
        let cfg = OverlayConfig {
            v_tables: vec![VTableConfig {
                table_name: "PatientLite".into(),
                prefixed_id: true,
                id: "'p'::patientID".into(),
                fix_label: true,
                label: "'patient'".into(),
                properties: None,
            }],
            e_tables: vec![],
        };
        let topo = Topology::resolve(&db, &cfg).unwrap();
        let view = &topo.vertex_tables[0].table;
        assert_eq!(view.properties, vec!["name".to_string()]);
        // View columns have no catalog type.
        assert_eq!(view.column_type("name"), None);
    }
}
