//! The overlay configuration file format (Section 5 of the paper).
//!
//! The JSON schema matches the paper's example verbatim: a `v_tables` array
//! and an `e_tables` array, each entry naming a table (or view) and
//! describing how its columns define the property-graph required fields
//! (`id`, `label`, and for edges `src_v`/`dst_v`) and properties.

use crate::error::{GraphError, GraphResult};
use crate::json::Json;

/// A full graph overlay configuration.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OverlayConfig {
    pub v_tables: Vec<VTableConfig>,
    pub e_tables: Vec<ETableConfig>,
}

/// Configuration of one vertex table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VTableConfig {
    pub table_name: String,
    /// Whether the id is prefixed with a unique table identifier
    /// (`'patient'::patientID`). Enables the prefixed-id runtime
    /// optimization.
    pub prefixed_id: bool,
    /// Id definition string, e.g. `"'patient'::patientID"` or `"diseaseID"`.
    pub id: String,
    /// Whether all vertices from this table share one constant label.
    pub fix_label: bool,
    /// Label definition: a constant `"'patient'"` when `fix_label`, else a
    /// column name.
    pub label: String,
    /// Property columns. `None` means "all columns not used by required
    /// fields" (the paper's default).
    pub properties: Option<Vec<String>>,
}

/// Configuration of one edge table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ETableConfig {
    pub table_name: String,
    /// Vertex table all source vertices come from, when known. Enables the
    /// src/dst table runtime optimization (Section 6.3).
    pub src_v_table: Option<String>,
    /// Source vertex id definition; must match the id definition of the
    /// source vertex table when `src_v_table` is set.
    pub src_v: String,
    pub dst_v_table: Option<String>,
    pub dst_v: String,
    /// Explicit prefixed edge id (like vertex prefixed ids).
    pub prefixed_edge_id: bool,
    /// Use the implicit `src_v::label::dst_v` edge id.
    pub implicit_edge_id: bool,
    /// Explicit id definition (required unless `implicit_edge_id`).
    pub id: Option<String>,
    pub fix_label: bool,
    pub label: String,
    pub properties: Option<Vec<String>>,
}

// JSON (de)serialization is hand-rolled over [`crate::json`]; the schema —
// field names, optional fields defaulting to false/None, `properties`
// omitted when absent — matches what serde derive produced in earlier
// revisions, so existing config files keep parsing byte-for-byte.

fn err(msg: impl Into<String>) -> GraphError {
    GraphError::Config(format!("invalid overlay JSON: {}", msg.into()))
}

fn get_string(obj: &Json, ctx: &str, key: &str) -> GraphResult<String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| err(format!("{ctx}: missing string field '{key}'")))
}

fn get_opt_string(obj: &Json, ctx: &str, key: &str) -> GraphResult<Option<String>> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Str(s)) => Ok(Some(s.clone())),
        Some(_) => Err(err(format!("{ctx}: field '{key}' must be a string"))),
    }
}

fn get_bool(obj: &Json, ctx: &str, key: &str) -> GraphResult<bool> {
    match obj.get(key) {
        None => Ok(false),
        Some(v) => {
            v.as_bool().ok_or_else(|| err(format!("{ctx}: field '{key}' must be a boolean")))
        }
    }
}

fn get_properties(obj: &Json, ctx: &str) -> GraphResult<Option<Vec<String>>> {
    match obj.get("properties") {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Arr(items)) => items
            .iter()
            .map(|p| {
                p.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| err(format!("{ctx}: properties must be strings")))
            })
            .collect::<GraphResult<Vec<_>>>()
            .map(Some),
        Some(_) => Err(err(format!("{ctx}: field 'properties' must be an array"))),
    }
}

fn properties_json(props: &[String]) -> Json {
    Json::Arr(props.iter().map(|p| Json::str(p.clone())).collect())
}

impl VTableConfig {
    fn from_json_value(v: &Json) -> GraphResult<VTableConfig> {
        if v.as_object().is_none() {
            return Err(err("v_tables entries must be objects"));
        }
        let table_name = get_string(v, "v_table", "table_name")?;
        let ctx = format!("v_table '{table_name}'");
        Ok(VTableConfig {
            prefixed_id: get_bool(v, &ctx, "prefixed_id")?,
            id: get_string(v, &ctx, "id")?,
            fix_label: get_bool(v, &ctx, "fix_label")?,
            label: get_string(v, &ctx, "label")?,
            properties: get_properties(v, &ctx)?,
            table_name,
        })
    }

    fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("table_name", Json::str(self.table_name.clone())),
            ("prefixed_id", Json::Bool(self.prefixed_id)),
            ("id", Json::str(self.id.clone())),
            ("fix_label", Json::Bool(self.fix_label)),
            ("label", Json::str(self.label.clone())),
        ];
        if let Some(props) = &self.properties {
            fields.push(("properties", properties_json(props)));
        }
        Json::obj(fields)
    }
}

impl ETableConfig {
    fn from_json_value(v: &Json) -> GraphResult<ETableConfig> {
        if v.as_object().is_none() {
            return Err(err("e_tables entries must be objects"));
        }
        let table_name = get_string(v, "e_table", "table_name")?;
        let ctx = format!("e_table '{table_name}'");
        Ok(ETableConfig {
            src_v_table: get_opt_string(v, &ctx, "src_v_table")?,
            src_v: get_string(v, &ctx, "src_v")?,
            dst_v_table: get_opt_string(v, &ctx, "dst_v_table")?,
            dst_v: get_string(v, &ctx, "dst_v")?,
            prefixed_edge_id: get_bool(v, &ctx, "prefixed_edge_id")?,
            implicit_edge_id: get_bool(v, &ctx, "implicit_edge_id")?,
            id: get_opt_string(v, &ctx, "id")?,
            fix_label: get_bool(v, &ctx, "fix_label")?,
            label: get_string(v, &ctx, "label")?,
            properties: get_properties(v, &ctx)?,
            table_name,
        })
    }

    fn to_json_value(&self) -> Json {
        let mut fields = vec![("table_name", Json::str(self.table_name.clone()))];
        if let Some(t) = &self.src_v_table {
            fields.push(("src_v_table", Json::str(t.clone())));
        }
        fields.push(("src_v", Json::str(self.src_v.clone())));
        if let Some(t) = &self.dst_v_table {
            fields.push(("dst_v_table", Json::str(t.clone())));
        }
        fields.push(("dst_v", Json::str(self.dst_v.clone())));
        fields.push(("prefixed_edge_id", Json::Bool(self.prefixed_edge_id)));
        fields.push(("implicit_edge_id", Json::Bool(self.implicit_edge_id)));
        if let Some(id) = &self.id {
            fields.push(("id", Json::str(id.clone())));
        }
        fields.push(("fix_label", Json::Bool(self.fix_label)));
        fields.push(("label", Json::str(self.label.clone())));
        if let Some(props) = &self.properties {
            fields.push(("properties", properties_json(props)));
        }
        Json::obj(fields)
    }
}

impl OverlayConfig {
    /// Parse a configuration from JSON text.
    pub fn from_json(text: &str) -> GraphResult<OverlayConfig> {
        let doc = Json::parse(text).map_err(err)?;
        if doc.as_object().is_none() {
            return Err(err("top level must be an object"));
        }
        let section = |key: &str| -> GraphResult<Vec<Json>> {
            match doc.get(key) {
                None | Some(Json::Null) => Ok(Vec::new()),
                Some(Json::Arr(items)) => Ok(items.clone()),
                Some(_) => Err(err(format!("'{key}' must be an array"))),
            }
        };
        Ok(OverlayConfig {
            v_tables: section("v_tables")?
                .iter()
                .map(VTableConfig::from_json_value)
                .collect::<GraphResult<_>>()?,
            e_tables: section("e_tables")?
                .iter()
                .map(ETableConfig::from_json_value)
                .collect::<GraphResult<_>>()?,
        })
    }

    /// Serialize to pretty JSON (what AutoOverlay writes out).
    pub fn to_json(&self) -> String {
        Json::obj(vec![
            (
                "v_tables",
                Json::Arr(self.v_tables.iter().map(VTableConfig::to_json_value).collect()),
            ),
            (
                "e_tables",
                Json::Arr(self.e_tables.iter().map(ETableConfig::to_json_value).collect()),
            ),
        ])
        .to_pretty()
    }

    /// Structural sanity checks that do not need the database catalog.
    pub fn validate_shape(&self) -> GraphResult<()> {
        if self.v_tables.is_empty() {
            return Err(GraphError::Config("overlay has no vertex tables".into()));
        }
        for v in &self.v_tables {
            if v.table_name.is_empty() {
                return Err(GraphError::Config("vertex table with empty name".into()));
            }
            if v.fix_label && !(v.label.starts_with('\'') && v.label.ends_with('\'')) {
                return Err(GraphError::Config(format!(
                    "vertex table '{}': fix_label requires a quoted constant label",
                    v.table_name
                )));
            }
        }
        for e in &self.e_tables {
            if e.implicit_edge_id && e.id.is_some() {
                return Err(GraphError::Config(format!(
                    "edge table '{}': implicit_edge_id and explicit id are mutually exclusive",
                    e.table_name
                )));
            }
            if !e.implicit_edge_id && e.id.is_none() {
                return Err(GraphError::Config(format!(
                    "edge table '{}': needs either implicit_edge_id or an id definition",
                    e.table_name
                )));
            }
            if e.fix_label && !(e.label.starts_with('\'') && e.label.ends_with('\'')) {
                return Err(GraphError::Config(format!(
                    "edge table '{}': fix_label requires a quoted constant label",
                    e.table_name
                )));
            }
        }
        Ok(())
    }
}

/// Parse a label definition: `Some(constant)` when quoted, else `None`
/// (meaning: it's a column name).
pub(crate) fn parse_label_constant(label: &str) -> Option<String> {
    label.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')).map(str::to_string)
}

/// The paper's Section 5 example configuration (healthcare overlay), used
/// by tests, examples, and documentation.
pub fn healthcare_example_json() -> &'static str {
    r#"{
  "v_tables": [
    {
      "table_name": "Patient",
      "prefixed_id": true,
      "id": "'patient'::patientID",
      "fix_label": true,
      "label": "'patient'",
      "properties": ["patientID", "name", "address", "subscriptionID"]
    },
    {
      "table_name": "Disease",
      "id": "diseaseID",
      "fix_label": true,
      "label": "'disease'",
      "properties": ["diseaseID", "conceptCode", "conceptName"]
    }
  ],
  "e_tables": [
    {
      "table_name": "DiseaseOntology",
      "src_v_table": "Disease",
      "src_v": "sourceID",
      "dst_v_table": "Disease",
      "dst_v": "targetID",
      "prefixed_edge_id": true,
      "id": "'ontology'::sourceID::targetID",
      "label": "type"
    },
    {
      "table_name": "HasDisease",
      "src_v_table": "Patient",
      "src_v": "'patient'::patientID",
      "dst_v_table": "Disease",
      "dst_v": "diseaseID",
      "implicit_edge_id": true,
      "fix_label": true,
      "label": "'hasDisease'"
    }
  ]
}"#
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_parses() {
        let cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        cfg.validate_shape().unwrap();
        assert_eq!(cfg.v_tables.len(), 2);
        assert_eq!(cfg.e_tables.len(), 2);
        let patient = &cfg.v_tables[0];
        assert!(patient.prefixed_id);
        assert_eq!(patient.id, "'patient'::patientID");
        assert!(patient.fix_label);
        let ontology = &cfg.e_tables[0];
        assert!(!ontology.fix_label);
        assert_eq!(ontology.label, "type");
        assert!(ontology.prefixed_edge_id);
        let hd = &cfg.e_tables[1];
        assert!(hd.implicit_edge_id);
        assert!(hd.properties.is_none()); // defaults to remaining columns
    }

    #[test]
    fn roundtrip_json() {
        let cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        let text = cfg.to_json();
        let cfg2 = OverlayConfig::from_json(&text).unwrap();
        assert_eq!(cfg, cfg2);
    }

    #[test]
    fn shape_validation_catches_mistakes() {
        let mut cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        cfg.e_tables[1].id = Some("'x'::a".into());
        assert!(cfg.validate_shape().is_err()); // implicit + explicit id

        let mut cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        cfg.e_tables[0].id = None;
        assert!(cfg.validate_shape().is_err()); // no id at all

        let mut cfg = OverlayConfig::from_json(healthcare_example_json()).unwrap();
        cfg.v_tables[0].label = "patient".into(); // fix_label without quotes
        assert!(cfg.validate_shape().is_err());

        let cfg = OverlayConfig::default();
        assert!(cfg.validate_shape().is_err()); // no vertex tables

        assert!(OverlayConfig::from_json("{ not json").is_err());
    }

    #[test]
    fn label_constant_parsing() {
        assert_eq!(parse_label_constant("'patient'"), Some("patient".into()));
        assert_eq!(parse_label_constant("type"), None);
    }
}
