//! Id definitions: prefixed ids, composite ids, implicit edge ids.
//!
//! Section 5 of the paper: a vertex/edge id is defined by a sequence of
//! string constants and table columns joined by `::`, e.g.
//! `'patient'::patientID`. The constant prefix makes ids unique across
//! tables and — crucially for Section 6.3's "Using Prefixed Id Values"
//! optimization — lets the runtime *pin down the exact table* an id belongs
//! to and decompose the id into conjunctive column predicates.

use std::fmt::Write;

use gremlin::ElementId;
use reldb::{DataType, Value};

use crate::error::{GraphError, GraphResult};

/// One component of an id definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum IdPart {
    /// A string constant, written `'text'` in the configuration.
    Const(String),
    /// A table column reference.
    Column(String),
}

/// A full id definition: ordered parts joined by `::`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdDef {
    pub(crate) parts: Vec<IdPart>,
}

impl IdDef {
    /// Parse a definition string like `'patient'::patientID` or
    /// `'ontology'::sourceID::targetID` or plain `diseaseID`.
    pub fn parse(spec: &str) -> GraphResult<IdDef> {
        let mut parts = Vec::new();
        for raw in spec.split("::") {
            let raw = raw.trim();
            if raw.is_empty() {
                return Err(GraphError::Config(format!("empty id component in '{spec}'")));
            }
            if let Some(stripped) = raw.strip_prefix('\'') {
                let inner = stripped.strip_suffix('\'').ok_or_else(|| {
                    GraphError::Config(format!("unterminated constant in id definition '{spec}'"))
                })?;
                parts.push(IdPart::Const(inner.to_string()));
            } else {
                parts.push(IdPart::Column(raw.to_string()));
            }
        }
        if parts.is_empty() {
            return Err(GraphError::Config(format!("empty id definition '{spec}'")));
        }
        if !parts.iter().any(|p| matches!(p, IdPart::Column(_))) {
            return Err(GraphError::Config(format!(
                "id definition '{spec}' has no column component"
            )));
        }
        Ok(IdDef { parts })
    }

    /// Column names referenced by this definition, in order.
    pub fn columns(&self) -> Vec<&str> {
        self.parts
            .iter()
            .filter_map(|p| match p {
                IdPart::Column(c) => Some(c.as_str()),
                IdPart::Const(_) => None,
            })
            .collect()
    }

    /// The leading constant (unique table identifier), if the definition
    /// starts with one.
    pub fn prefix(&self) -> Option<&str> {
        match self.parts.first() {
            Some(IdPart::Const(c)) => Some(c),
            _ => None,
        }
    }

    /// True when the definition is a single bare column.
    pub(crate) fn is_single_column(&self) -> bool {
        self.parts.len() == 1 && matches!(self.parts[0], IdPart::Column(_))
    }

    /// Encode an id from column values (in [`Self::columns`] order).
    ///
    /// A single-column definition with an integer value stays numeric
    /// (`ElementId::Long`); everything else becomes the `::`-joined text.
    pub fn encode(&self, values: &[Value]) -> GraphResult<ElementId> {
        let arity = self.parts.iter().filter(|p| matches!(p, IdPart::Column(_))).count();
        if values.len() != arity {
            return Err(GraphError::Config(format!(
                "id encode expects {arity} values, got {}",
                values.len()
            )));
        }
        if self.is_single_column() {
            if let Value::Bigint(v) = &values[0] {
                return Ok(ElementId::Long(*v));
            }
        }
        let mut out = String::new();
        let mut vi = 0;
        for (i, part) in self.parts.iter().enumerate() {
            if i > 0 {
                out.push_str("::");
            }
            match part {
                IdPart::Const(c) => out.push_str(c),
                IdPart::Column(_) => {
                    write!(out, "{}", values[vi]).expect("writing to a String cannot fail");
                    vi += 1;
                }
            }
        }
        Ok(ElementId::Str(out))
    }

    /// Decode an id against this definition: constants must match exactly;
    /// returns the raw text of each column component, or `None` when the id
    /// cannot belong to this definition (wrong prefix, wrong arity, wrong
    /// shape). This is the table-elimination test of Section 6.3.
    pub fn decode(&self, id: &ElementId) -> Option<Vec<String>> {
        match id {
            ElementId::Long(v) => {
                if self.is_single_column() {
                    Some(vec![v.to_string()])
                } else {
                    None
                }
            }
            ElementId::Str(s) => {
                let segments: Vec<&str> = s.split("::").collect();
                if segments.len() != self.parts.len() {
                    return None;
                }
                let mut out = Vec::new();
                for (part, seg) in self.parts.iter().zip(&segments) {
                    match part {
                        IdPart::Const(c) => {
                            if c != seg {
                                return None;
                            }
                        }
                        IdPart::Column(_) => out.push((*seg).to_string()),
                    }
                }
                Some(out)
            }
        }
    }

    /// The value `id` binds to the column of a bare single-column
    /// definition, straight from the id: always equal to [`Self::decode`]
    /// followed by [`Self::coerce_column`], but a numeric id never becomes
    /// text and back. `Some(None)` when the id fits no row of a column of
    /// type `ty`; `None` declines a prefixed or composite definition, whose
    /// ids go through `decode`.
    pub(crate) fn single_column_value(
        &self,
        id: &ElementId,
        ty: Option<DataType>,
    ) -> Option<Option<Value>> {
        if !self.is_single_column() {
            return None;
        }
        Some(match (id, ty) {
            (ElementId::Long(v), None | Some(DataType::Bigint)) => Some(Value::Bigint(*v)),
            // Both this cast and parsing the decimal text round to nearest.
            (ElementId::Long(v), Some(DataType::Double)) => Some(Value::Double(*v as f64)),
            (ElementId::Long(v), Some(DataType::Varchar)) => Some(Value::Varchar(v.to_string())),
            (ElementId::Long(v), Some(DataType::Boolean)) => {
                Self::coerce(&v.to_string(), DataType::Boolean).ok()
            }
            (ElementId::Str(s), _) if s.contains("::") => None,
            (ElementId::Str(s), ty) => Self::coerce_column(s, ty).ok(),
        })
    }

    /// Coerce decoded text back to a typed value for a SQL predicate.
    pub fn coerce(text: &str, ty: DataType) -> GraphResult<Value> {
        Ok(match ty {
            DataType::Bigint => Value::Bigint(text.parse::<i64>().map_err(|_| {
                GraphError::Config(format!("id component '{text}' is not a BIGINT"))
            })?),
            DataType::Double => Value::Double(text.parse::<f64>().map_err(|_| {
                GraphError::Config(format!("id component '{text}' is not a DOUBLE"))
            })?),
            DataType::Varchar => Value::Varchar(text.to_string()),
            DataType::Boolean => Value::Boolean(text.eq_ignore_ascii_case("true")),
        })
    }

    /// [`Self::coerce`] for a column whose type may be unknown: the
    /// catalog does not type view columns, so numeric-looking text is
    /// taken as a BIGINT and anything else as VARCHAR. Digits that
    /// overflow a BIGINT are an error, so such an id matches no row.
    pub(crate) fn coerce_column(text: &str, ty: Option<DataType>) -> GraphResult<Value> {
        let numeric = |text: &str| {
            !text.is_empty()
                && text.chars().enumerate().all(|(i, c)| c.is_ascii_digit() || (i == 0 && c == '-'))
        };
        match ty {
            Some(t) => Self::coerce(text, t),
            None if numeric(text) => Self::coerce(text, DataType::Bigint),
            None => Ok(Value::Varchar(text.to_string())),
        }
    }
}

impl EdgeIdDef {
    /// The explicit definition, or `None` for implicit ids.
    pub(crate) fn explicit(&self) -> Option<&IdDef> {
        match self {
            EdgeIdDef::Explicit(def) => Some(def),
            EdgeIdDef::Implicit => None,
        }
    }
}

/// How an edge table defines its edge ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EdgeIdDef {
    /// An explicit definition (possibly prefixed), like vertex ids.
    Explicit(IdDef),
    /// The implicit `src_v::label::dst_v` combination (Section 5). The
    /// label is materialized into the id text at encode time.
    Implicit,
}

/// Encode an implicit edge id.
pub fn implicit_edge_id(src: &ElementId, label: &str, dst: &ElementId) -> ElementId {
    fn text_len(id: &ElementId) -> usize {
        match id {
            ElementId::Long(v) => {
                let digits = v.unsigned_abs().checked_ilog10().map_or(1, |d| d as usize + 1);
                digits + usize::from(*v < 0)
            }
            ElementId::Str(s) => s.len(),
        }
    }
    let mut id = String::with_capacity(text_len(src) + label.len() + text_len(dst) + 4);
    write!(id, "{src}::{label}::{dst}").expect("writing to a String cannot fail");
    ElementId::Str(id)
}

/// Decompose an implicit edge id given a known label: splits on the first
/// `::label::` occurrence. Returns `(src_text, dst_text)`.
pub fn split_implicit_edge_id(id: &ElementId, label: &str) -> Option<(String, String)> {
    let text = match id {
        ElementId::Str(s) => s,
        ElementId::Long(_) => return None,
    };
    let needle = format!("::{label}::");
    let pos = text.find(&needle)?;
    let src = &text[..pos];
    let dst = &text[pos + needle.len()..];
    if src.is_empty() || dst.is_empty() {
        return None;
    }
    Some((src.to_string(), dst.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_forms() {
        let d = IdDef::parse("diseaseID").unwrap();
        assert!(d.is_single_column());
        assert_eq!(d.columns(), vec!["diseaseID"]);
        assert_eq!(d.prefix(), None);

        let d = IdDef::parse("'patient'::patientID").unwrap();
        assert_eq!(d.prefix(), Some("patient"));
        assert_eq!(d.columns(), vec!["patientID"]);

        let d = IdDef::parse("'ontology'::sourceID::targetID").unwrap();
        assert_eq!(d.columns(), vec!["sourceID", "targetID"]);

        assert!(IdDef::parse("").is_err());
        assert!(IdDef::parse("'onlyconst'").is_err());
        assert!(IdDef::parse("'unterminated::x").is_err());
    }

    #[test]
    fn encode_numeric_and_prefixed() {
        let d = IdDef::parse("diseaseID").unwrap();
        assert_eq!(d.encode(&[Value::Bigint(10)]).unwrap(), ElementId::Long(10));
        let d = IdDef::parse("'patient'::patientID").unwrap();
        assert_eq!(d.encode(&[Value::Bigint(1)]).unwrap(), ElementId::Str("patient::1".into()));
        let d = IdDef::parse("'o'::a::b").unwrap();
        assert_eq!(
            d.encode(&[Value::Bigint(1), Value::Bigint(2)]).unwrap(),
            ElementId::Str("o::1::2".into())
        );
        assert!(d.encode(&[Value::Bigint(1)]).is_err());
    }

    #[test]
    fn decode_matches_and_rejects() {
        let d = IdDef::parse("'patient'::patientID").unwrap();
        assert_eq!(d.decode(&ElementId::Str("patient::1".into())), Some(vec!["1".to_string()]));
        // Wrong prefix -> table eliminated.
        assert_eq!(d.decode(&ElementId::Str("disease::1".into())), None);
        // Plain long cannot be a prefixed id.
        assert_eq!(d.decode(&ElementId::Long(1)), None);
        // Wrong arity.
        assert_eq!(d.decode(&ElementId::Str("patient::1::2".into())), None);

        let single = IdDef::parse("diseaseID").unwrap();
        assert_eq!(single.decode(&ElementId::Long(10)), Some(vec!["10".to_string()]));
        assert_eq!(single.decode(&ElementId::Str("10".into())), Some(vec!["10".to_string()]));
    }

    #[test]
    fn coercion() {
        assert_eq!(IdDef::coerce("42", DataType::Bigint).unwrap(), Value::Bigint(42));
        assert_eq!(IdDef::coerce("x", DataType::Varchar).unwrap(), Value::Varchar("x".into()));
        assert!(IdDef::coerce("notanint", DataType::Bigint).is_err());
    }

    #[test]
    fn untyped_columns_coerce_by_shape_and_reject_overflow() {
        assert_eq!(IdDef::coerce_column("42", None).unwrap(), Value::Bigint(42));
        assert_eq!(IdDef::coerce_column("-7", None).unwrap(), Value::Bigint(-7));
        assert_eq!(IdDef::coerce_column("a1", None).unwrap(), Value::Varchar("a1".into()));
        assert_eq!(
            IdDef::coerce_column("42", Some(DataType::Varchar)).unwrap(),
            Value::Varchar("42".into())
        );
        // Too large for a BIGINT: no row can carry it, so it must not
        // collapse onto some other value.
        assert!(IdDef::coerce_column("99999999999999999999", None).is_err());
        assert!(IdDef::coerce_column("-", None).is_err());
    }

    #[test]
    fn single_column_value_equals_decode_then_coerce() {
        let via_text = |def: &IdDef, id: &ElementId, ty: Option<DataType>| -> Option<Value> {
            let parts = def.decode(id)?;
            IdDef::coerce_column(&parts[0], ty).ok()
        };
        let ids = [
            ElementId::Long(0),
            ElementId::Long(42),
            ElementId::Long(-7),
            ElementId::Long(i64::MAX),
            ElementId::Long(i64::MIN),
            // Not exactly representable as a double: both sides round.
            ElementId::Long((1 << 53) + 1),
            ElementId::Long(-(1 << 53) - 3),
            ElementId::Str("42".into()),
            ElementId::Str("-7".into()),
            ElementId::Str("007".into()),
            ElementId::Str("4.5".into()),
            ElementId::Str("x1".into()),
            ElementId::Str("".into()),
            ElementId::Str("-".into()),
            ElementId::Str("true".into()),
            ElementId::Str("1::2".into()),
            ElementId::Str("patient::1".into()),
            // Overflows a BIGINT: the text path drops it on typed and
            // untyped columns alike.
            ElementId::Str("99999999999999999999".into()),
        ];
        let types = [
            None,
            Some(DataType::Bigint),
            Some(DataType::Double),
            Some(DataType::Varchar),
            Some(DataType::Boolean),
        ];
        let single = IdDef::parse("id").unwrap();
        for id in &ids {
            for ty in types {
                let direct = single.single_column_value(id, ty).expect("a bare column binds");
                let expected = via_text(&single, id, ty);
                // `Value`'s equality is numeric across types; compare the
                // variants too.
                assert_eq!(
                    direct.as_ref().map(|v| (v.data_type(), v.to_sql_literal())),
                    expected.as_ref().map(|v| (v.data_type(), v.to_sql_literal())),
                    "{id:?} on {ty:?}"
                );
            }
        }
        assert_eq!(
            single.single_column_value(&ElementId::Long(-7), None),
            Some(Some(Value::Bigint(-7)))
        );
        assert_eq!(single.single_column_value(&ElementId::Str("1::2".into()), None), Some(None));
        // Prefixed and composite definitions decline.
        for spec in ["'patient'::id", "a::b", "'o'::a::b"] {
            let def = IdDef::parse(spec).unwrap();
            for id in &ids {
                assert_eq!(def.single_column_value(id, Some(DataType::Bigint)), None, "{spec}");
            }
        }
    }

    #[test]
    fn implicit_edge_ids_roundtrip() {
        let src = ElementId::Str("patient::1".into());
        let dst = ElementId::Long(10);
        let id = implicit_edge_id(&src, "hasDisease", &dst);
        assert_eq!(id, ElementId::Str("patient::1::hasDisease::10".into()));
        // The text is sized exactly up front: one allocation, no growth.
        for (a, b) in [(0, 9), (10, -1), (99, 100), (i64::MIN, i64::MAX)] {
            let ElementId::Str(s) = implicit_edge_id(&a.into(), "l", &b.into()) else {
                panic!("implicit ids are strings")
            };
            assert_eq!(s, format!("{a}::l::{b}"));
            assert_eq!(s.capacity(), s.len(), "{s}");
        }
        let (s, d) = split_implicit_edge_id(&id, "hasDisease").unwrap();
        assert_eq!(s, "patient::1");
        assert_eq!(d, "10");
        assert!(split_implicit_edge_id(&id, "isa").is_none());
    }
}
