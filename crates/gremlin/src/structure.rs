//! The property-graph structure API: elements, ids, and values.
//!
//! This mirrors TinkerPop's core API (Section 3 of the paper): vertices and
//! edges with an `id`, a `label`, and key/value properties. Elements carry a
//! `provenance` field recording which relational table the element came from
//! — "every vertex/edge in the property graph comes from a particular table.
//! We record this information in the basic vertex and edge data structures
//! so that we can access this information at runtime" (Section 6.3).

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Unique identifier of a vertex or edge.
///
/// Plain numeric ids are `Long`; prefixed and implicit composite ids (e.g.
/// `patient::1` or `1::hasDisease::10`) are `Str`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ElementId {
    Long(i64),
    Str(String),
}

impl fmt::Display for ElementId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ElementId::Long(v) => write!(f, "{v}"),
            ElementId::Str(s) => f.write_str(s),
        }
    }
}

impl From<i64> for ElementId {
    fn from(v: i64) -> Self {
        ElementId::Long(v)
    }
}

impl From<&str> for ElementId {
    fn from(v: &str) -> Self {
        ElementId::Str(v.to_string())
    }
}

impl From<String> for ElementId {
    fn from(v: String) -> Self {
        ElementId::Str(v)
    }
}

/// An element's properties: a key list shared by every element of one
/// shape (an overlay table, say), sorted by key, plus this element's value
/// for each key (`None`: absent, e.g. a NULL column). Cloning an element
/// copies the values, never the keys. Inserting a key the shared list
/// lacks gives this element a list of its own (copy on write).
///
/// Iteration is in ascending key order, like the `BTreeMap` it replaces,
/// and equality compares contents, not pointers.
#[derive(Clone, Default)]
pub struct Properties {
    keys: Arc<[Arc<str>]>,
    values: Vec<Option<GValue>>,
}

impl Properties {
    /// Properties over a shared, sorted, duplicate-free key list, with one
    /// value slot per key.
    pub fn shared(keys: Arc<[Arc<str>]>, values: Vec<Option<GValue>>) -> Properties {
        debug_assert_eq!(keys.len(), values.len(), "one value slot per key");
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys sorted and unique");
        Properties { keys, values }
    }

    fn slot(&self, key: &str) -> Result<usize, usize> {
        self.keys.binary_search_by(|k| (**k).cmp(key))
    }

    pub fn get(&self, key: &str) -> Option<&GValue> {
        self.values[self.slot(key).ok()?].as_ref()
    }

    #[cfg(test)]
    pub(crate) fn contains_key(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    pub fn len(&self) -> usize {
        self.values.iter().filter(|v| v.is_some()).count()
    }

    pub fn is_empty(&self) -> bool {
        self.values.iter().all(Option::is_none)
    }

    /// The present properties, in ascending key order.
    pub fn iter(&self) -> PropertiesIter<'_> {
        PropertiesIter { keys: self.keys.iter(), values: self.values.iter() }
    }

    /// Set `key`, returning its previous value.
    pub fn insert(&mut self, key: Arc<str>, value: GValue) -> Option<GValue> {
        match self.slot(&key) {
            Ok(i) => self.values[i].replace(value),
            Err(i) => {
                let mut keys = self.keys.to_vec();
                keys.insert(i, key);
                self.keys = keys.into();
                self.values.insert(i, Some(value));
                None
            }
        }
    }

    /// Unset `key`, returning its value. The shared key list is kept.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, key: &str) -> Option<GValue> {
        let i = self.slot(key).ok()?;
        self.values[i].take()
    }
}

impl PartialEq for Properties {
    fn eq(&self, other: &Properties) -> bool {
        self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Properties {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl<K: Into<Arc<str>>> FromIterator<(K, GValue)> for Properties {
    /// Later duplicates win, as with repeated `insert`.
    fn from_iter<I: IntoIterator<Item = (K, GValue)>>(iter: I) -> Properties {
        let sorted: BTreeMap<Arc<str>, GValue> =
            iter.into_iter().map(|(k, v)| (k.into(), v)).collect();
        let (keys, values): (Vec<_>, Vec<_>) =
            sorted.into_iter().map(|(k, v)| (k, Some(v))).unzip();
        Properties { keys: keys.into(), values }
    }
}

/// Iterator over present properties, in ascending key order.
pub struct PropertiesIter<'a> {
    keys: std::slice::Iter<'a, Arc<str>>,
    values: std::slice::Iter<'a, Option<GValue>>,
}

impl<'a> Iterator for PropertiesIter<'a> {
    type Item = (&'a Arc<str>, &'a GValue);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let key = self.keys.next()?;
            if let Some(value) = self.values.next()? {
                return Some((key, value));
            }
        }
    }
}

impl<'a> IntoIterator for &'a Properties {
    type Item = (&'a Arc<str>, &'a GValue);
    type IntoIter = PropertiesIter<'a>;

    fn into_iter(self) -> PropertiesIter<'a> {
        self.iter()
    }
}

/// A vertex of the property graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Vertex {
    pub id: ElementId,
    pub label: Arc<str>,
    pub properties: Properties,
    /// Relational table this vertex was materialized from, if any.
    pub provenance: Option<Arc<str>>,
}

impl Vertex {
    pub fn new(id: impl Into<ElementId>, label: impl Into<Arc<str>>) -> Vertex {
        Vertex {
            id: id.into(),
            label: label.into(),
            properties: Properties::default(),
            provenance: None,
        }
    }

    pub fn with_property(mut self, key: &str, value: impl Into<GValue>) -> Vertex {
        self.properties.insert(key.into(), value.into());
        self
    }
}

/// A directed edge of the property graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    pub id: ElementId,
    pub label: Arc<str>,
    pub src: ElementId,
    pub dst: ElementId,
    pub properties: Properties,
    /// Relational table this edge was materialized from, if any.
    pub provenance: Option<Arc<str>>,
}

impl Edge {
    pub fn new(
        id: impl Into<ElementId>,
        label: impl Into<Arc<str>>,
        src: impl Into<ElementId>,
        dst: impl Into<ElementId>,
    ) -> Edge {
        Edge {
            id: id.into(),
            label: label.into(),
            src: src.into(),
            dst: dst.into(),
            properties: Properties::default(),
            provenance: None,
        }
    }

    pub fn with_property(mut self, key: &str, value: impl Into<GValue>) -> Edge {
        self.properties.insert(key.into(), value.into());
        self
    }
}

/// Either kind of graph element.
#[derive(Debug, Clone, PartialEq)]
pub enum Element {
    Vertex(Vertex),
    Edge(Edge),
}

impl Element {
    pub fn id(&self) -> &ElementId {
        match self {
            Element::Vertex(v) => &v.id,
            Element::Edge(e) => &e.id,
        }
    }

    pub fn label(&self) -> &str {
        match self {
            Element::Vertex(v) => &v.label,
            Element::Edge(e) => &e.label,
        }
    }

    pub fn properties(&self) -> &Properties {
        match self {
            Element::Vertex(v) => &v.properties,
            Element::Edge(e) => &e.properties,
        }
    }

    pub fn provenance(&self) -> Option<&str> {
        match self {
            Element::Vertex(v) => v.provenance.as_deref(),
            Element::Edge(e) => e.provenance.as_deref(),
        }
    }

    #[cfg(test)]
    pub(crate) fn is_vertex(&self) -> bool {
        matches!(self, Element::Vertex(_))
    }
}

/// The dynamic value type flowing through a traversal.
#[derive(Debug, Clone)]
pub enum GValue {
    Null,
    Long(i64),
    Double(f64),
    Str(String),
    Bool(bool),
    List(Vec<GValue>),
    Map(BTreeMap<String, GValue>),
    Vertex(Vertex),
    Edge(Edge),
    /// A traversal path: the ordered objects visited.
    Path(Vec<GValue>),
}

impl GValue {
    pub fn as_element(&self) -> Option<Element> {
        match self {
            GValue::Vertex(v) => Some(Element::Vertex(v.clone())),
            GValue::Edge(e) => Some(Element::Edge(e.clone())),
            _ => None,
        }
    }

    pub(crate) fn from_element(e: Element) -> GValue {
        match e {
            Element::Vertex(v) => GValue::Vertex(v),
            Element::Edge(e) => GValue::Edge(e),
        }
    }

    /// Numeric view (Long and Double only).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            GValue::Long(v) => Some(*v as f64),
            GValue::Double(v) => Some(*v),
            _ => None,
        }
    }

    /// Identity key used by `dedup()`: elements dedup by kind+id, scalars
    /// by value.
    pub(crate) fn dedup_key(&self) -> GValue {
        match self {
            GValue::Vertex(v) => GValue::List(vec![GValue::Str("v".into()), id_value(&v.id)]),
            GValue::Edge(e) => GValue::List(vec![GValue::Str("e".into()), id_value(&e.id)]),
            other => other.clone(),
        }
    }

    /// Equality with numeric cross-type comparison (2 == 2.0).
    pub fn compare(&self, other: &GValue) -> Option<Ordering> {
        match (self, other) {
            (GValue::Null, GValue::Null) => Some(Ordering::Equal),
            (GValue::Null, _) | (_, GValue::Null) => None,
            (GValue::Bool(a), GValue::Bool(b)) => Some(a.cmp(b)),
            (GValue::Str(a), GValue::Str(b)) => Some(a.cmp(b)),
            (a, b) => match (a.as_f64(), b.as_f64()) {
                (Some(x), Some(y)) => Some(x.total_cmp(&y)),
                _ => None,
            },
        }
    }
}

/// Convert an id to a comparable value.
pub(crate) fn id_value(id: &ElementId) -> GValue {
    match id {
        ElementId::Long(v) => GValue::Long(*v),
        ElementId::Str(s) => GValue::Str(s.clone()),
    }
}

/// Try to view a value as an element id.
pub fn value_to_id(v: &GValue) -> Option<ElementId> {
    match v {
        GValue::Long(x) => Some(ElementId::Long(*x)),
        GValue::Str(s) => Some(ElementId::Str(s.clone())),
        GValue::Vertex(vx) => Some(vx.id.clone()),
        GValue::Edge(e) => Some(e.id.clone()),
        _ => None,
    }
}

impl PartialEq for GValue {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}
impl Eq for GValue {}

impl PartialOrd for GValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for GValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl GValue {
    /// Total ordering for sorting and set membership; groups by type rank,
    /// numerics compare across Long/Double.
    pub fn total_cmp(&self, other: &GValue) -> Ordering {
        fn rank(v: &GValue) -> u8 {
            match v {
                GValue::Null => 0,
                GValue::Bool(_) => 1,
                GValue::Long(_) | GValue::Double(_) => 2,
                GValue::Str(_) => 3,
                GValue::List(_) => 4,
                GValue::Map(_) => 5,
                GValue::Vertex(_) => 6,
                GValue::Edge(_) => 7,
                GValue::Path(_) => 8,
            }
        }
        match (self, other) {
            (GValue::Null, GValue::Null) => Ordering::Equal,
            (GValue::Bool(a), GValue::Bool(b)) => a.cmp(b),
            (GValue::Str(a), GValue::Str(b)) => a.cmp(b),
            (GValue::Long(a), GValue::Long(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                a.as_f64().unwrap().total_cmp(&b.as_f64().unwrap())
            }
            (GValue::List(a), GValue::List(b)) | (GValue::Path(a), GValue::Path(b)) => a.cmp(b),
            (GValue::Map(a), GValue::Map(b)) => a.iter().cmp(b.iter()),
            (GValue::Vertex(a), GValue::Vertex(b)) => a.id.cmp(&b.id),
            (GValue::Edge(a), GValue::Edge(b)) => a.id.cmp(&b.id),
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }
}

impl Hash for GValue {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            GValue::Null => 0u8.hash(state),
            GValue::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            GValue::Long(v) => {
                2u8.hash(state);
                (*v as f64).to_bits().hash(state);
            }
            GValue::Double(v) => {
                2u8.hash(state);
                v.to_bits().hash(state);
            }
            GValue::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
            GValue::List(items) | GValue::Path(items) => {
                4u8.hash(state);
                for i in items {
                    i.hash(state);
                }
            }
            GValue::Map(m) => {
                5u8.hash(state);
                for (k, v) in m {
                    k.hash(state);
                    v.hash(state);
                }
            }
            GValue::Vertex(v) => {
                6u8.hash(state);
                v.id.hash(state);
            }
            GValue::Edge(e) => {
                7u8.hash(state);
                e.id.hash(state);
            }
        }
    }
}

impl fmt::Display for GValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GValue::Null => f.write_str("null"),
            GValue::Long(v) => write!(f, "{v}"),
            GValue::Double(v) => write!(f, "{v}"),
            GValue::Str(s) => f.write_str(s),
            GValue::Bool(b) => write!(f, "{b}"),
            GValue::List(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            GValue::Map(m) => {
                write!(f, "{{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{k}: {v}")?;
                }
                write!(f, "}}")
            }
            GValue::Vertex(v) => write!(f, "v[{}]", v.id),
            GValue::Edge(e) => write!(f, "e[{}][{}->{}]", e.id, e.src, e.dst),
            GValue::Path(p) => {
                write!(f, "path[")?;
                for (i, v) in p.iter().enumerate() {
                    if i > 0 {
                        write!(f, " -> ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<i64> for GValue {
    fn from(v: i64) -> Self {
        GValue::Long(v)
    }
}
impl From<f64> for GValue {
    fn from(v: f64) -> Self {
        GValue::Double(v)
    }
}
impl From<&str> for GValue {
    fn from(v: &str) -> Self {
        GValue::Str(v.to_string())
    }
}
impl From<String> for GValue {
    fn from(v: String) -> Self {
        GValue::Str(v)
    }
}
impl From<bool> for GValue {
    fn from(v: bool) -> Self {
        GValue::Bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const KEYS: [&str; 6] = ["a", "b", "c", "data", "time", "version"];

    proptest! {
        /// `Properties` behaves like the `BTreeMap<String, GValue>` it
        /// replaced, whether it starts empty or over a shared key list
        /// (each key: 0 not listed, 1 listed but absent, 2 present), and
        /// whatever mix of insert, get, remove, len and iterate follows.
        #[test]
        fn properties_match_a_btreemap_model(
            start in prop::collection::vec(0u8..3, 6..7),
            ops in prop::collection::vec((0u8..4, 0usize..6, any::<i64>()), 0..40),
        ) {
            let mut model: BTreeMap<String, GValue> = BTreeMap::new();
            let mut listed: Vec<Arc<str>> = Vec::new();
            let mut values = Vec::new();
            for (k, &state) in KEYS.iter().zip(&start) {
                if state > 0 {
                    listed.push(Arc::from(*k));
                    values.push((state == 2).then_some(GValue::Long(k.len() as i64)));
                }
                if state == 2 {
                    model.insert(k.to_string(), GValue::Long(k.len() as i64));
                }
            }
            let mut props = Properties::shared(listed.into(), values);
            let (before, model_before) = (props.clone(), model.clone());
            for (op, k, v) in ops {
                let key = KEYS[k];
                match op {
                    0 => prop_assert_eq!(
                        props.insert(key.into(), GValue::Long(v)),
                        model.insert(key.to_string(), GValue::Long(v))
                    ),
                    1 => prop_assert_eq!(props.remove(key), model.remove(key)),
                    2 => {
                        prop_assert_eq!(props.get(key), model.get(key));
                        prop_assert_eq!(props.contains_key(key), model.contains_key(key));
                    }
                    _ => {
                        prop_assert_eq!(props.len(), model.len());
                        prop_assert_eq!(props.is_empty(), model.is_empty());
                    }
                }
                let seen: Vec<(&str, &GValue)> = props.iter().map(|(k, v)| (&**k, v)).collect();
                let want: Vec<(&str, &GValue)> = model.iter().map(|(k, v)| (k.as_str(), v)).collect();
                prop_assert_eq!(seen, want);
            }
            // Equality is by contents, whatever the key lists: a copy built
            // from the model's entries is equal, and the start state (a
            // clone, untouched by the writes) equals the end iff the model
            // came back to where it began.
            let rebuilt: Properties = model.clone().into_iter().collect();
            prop_assert_eq!(&props, &rebuilt);
            let kept: Properties = model_before.clone().into_iter().collect();
            prop_assert_eq!(&before, &kept);
            prop_assert_eq!(props == before, model == model_before);
        }
    }

    #[test]
    fn element_accessors() {
        let v = Vertex::new(1, "patient").with_property("name", "Alice");
        let e = Element::Vertex(v);
        assert_eq!(e.id(), &ElementId::Long(1));
        assert_eq!(e.label(), "patient");
        assert!(e.is_vertex());
        assert_eq!(e.properties().get("name"), Some(&GValue::Str("Alice".into())));
    }

    #[test]
    fn cross_type_numeric_equality() {
        assert_eq!(GValue::Long(2), GValue::Double(2.0));
        assert_eq!(GValue::Long(2).compare(&GValue::Double(2.5)), Some(Ordering::Less));
        assert_eq!(GValue::Str("a".into()).compare(&GValue::Long(1)), None);
        assert_eq!(GValue::Null.compare(&GValue::Long(1)), None);
    }

    #[test]
    fn dedup_key_identity_for_elements() {
        let v1 = Vertex::new(1, "a").with_property("x", 1i64);
        let mut v2 = Vertex::new(1, "a");
        v2.properties.insert("x".into(), GValue::Long(999));
        // Same id -> same dedup key despite differing properties.
        assert_eq!(GValue::Vertex(v1).dedup_key(), GValue::Vertex(v2).dedup_key());
        // Vertex and edge with the same id have different keys.
        let e = Edge::new(1, "l", 0, 2);
        assert_ne!(GValue::Vertex(Vertex::new(1, "a")).dedup_key(), GValue::Edge(e).dedup_key());
    }

    #[test]
    fn ordering_is_total() {
        let mut vals = [
            GValue::Str("b".into()),
            GValue::Long(10),
            GValue::Null,
            GValue::Double(1.5),
            GValue::Bool(false),
        ];
        vals.sort();
        assert_eq!(vals[0], GValue::Null);
        assert_eq!(vals[1], GValue::Bool(false));
        assert_eq!(vals[2], GValue::Double(1.5));
        assert_eq!(vals[3], GValue::Long(10));
    }

    #[test]
    fn id_value_roundtrip() {
        assert_eq!(value_to_id(&GValue::Long(5)), Some(ElementId::Long(5)));
        assert_eq!(
            value_to_id(&id_value(&ElementId::Str("p::1".into()))),
            Some(ElementId::Str("p::1".into()))
        );
        assert_eq!(value_to_id(&GValue::Bool(true)), None);
        let v = Vertex::new(7, "x");
        assert_eq!(value_to_id(&GValue::Vertex(v)), Some(ElementId::Long(7)));
    }

    #[test]
    fn display_forms() {
        let v = Vertex::new(1, "a");
        assert_eq!(GValue::Vertex(v).to_string(), "v[1]");
        assert_eq!(
            GValue::List(vec![GValue::Long(1), GValue::Str("x".into())]).to_string(),
            "[1, x]"
        );
    }
}
