//! Wire serialization of Gremlin results using the repo's own JSON type.

use db2graph_core::json::Json;
use gremlin::structure::{Edge, ElementId, GValue, Properties, Vertex};

fn id_json(id: &ElementId) -> Json {
    match id {
        // i64 ids ride through f64 like every other number in the JSON
        // layer; ids beyond 2^53 would lose precision, so they are sent
        // as strings instead.
        ElementId::Long(v) if v.unsigned_abs() <= (1u64 << 53) => Json::num(*v as f64),
        ElementId::Long(v) => Json::str(v.to_string()),
        ElementId::Str(s) => Json::str(s.clone()),
    }
}

fn properties_json(properties: &Properties) -> Json {
    Json::Obj(properties.iter().map(|(k, gv)| (k.to_string(), gvalue_to_json(gv))).collect())
}

fn vertex_json(v: &Vertex) -> Json {
    Json::obj(vec![
        ("type", Json::str("vertex")),
        ("id", id_json(&v.id)),
        ("label", Json::str(&*v.label)),
        ("properties", properties_json(&v.properties)),
    ])
}

fn edge_json(e: &Edge) -> Json {
    Json::obj(vec![
        ("type", Json::str("edge")),
        ("id", id_json(&e.id)),
        ("label", Json::str(&*e.label)),
        ("src", id_json(&e.src)),
        ("dst", id_json(&e.dst)),
        ("properties", properties_json(&e.properties)),
    ])
}

/// Convert one traversal result value to JSON. Longs past 2^53 degrade to
/// strings (same rationale as ids); everything else maps structurally.
pub fn gvalue_to_json(v: &GValue) -> Json {
    match v {
        GValue::Null => Json::Null,
        GValue::Long(x) if x.unsigned_abs() <= (1u64 << 53) => Json::num(*x as f64),
        GValue::Long(x) => Json::str(x.to_string()),
        GValue::Double(x) => Json::num(*x),
        GValue::Str(s) => Json::str(s.clone()),
        GValue::Bool(b) => Json::Bool(*b),
        GValue::List(items) => Json::arr(items.iter().map(gvalue_to_json).collect()),
        GValue::Map(m) => {
            Json::Obj(m.iter().map(|(k, gv)| (k.clone(), gvalue_to_json(gv))).collect())
        }
        GValue::Vertex(vx) => vertex_json(vx),
        GValue::Edge(e) => edge_json(e),
        GValue::Path(objs) => {
            Json::obj(vec![("path", Json::arr(objs.iter().map(gvalue_to_json).collect()))])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use db2graph_core::Db2Graph;
    use gremlin::structure::Edge;
    use reldb::Database;
    use std::sync::Arc;

    #[test]
    fn scalars_and_structures_round_trip_shape() {
        let v = GValue::List(vec![
            GValue::Long(42),
            GValue::Str("x".into()),
            GValue::Bool(true),
            GValue::Null,
        ]);
        assert_eq!(gvalue_to_json(&v).to_compact(), r#"[42,"x",true,null]"#);
    }

    #[test]
    fn big_longs_become_strings() {
        let big = 1i64 << 60;
        assert_eq!(gvalue_to_json(&GValue::Long(big)).as_str(), Some(big.to_string().as_str()));
        assert_eq!(gvalue_to_json(&GValue::Long(7)).as_u64(), Some(7));
    }

    #[test]
    fn vertex_shape() {
        let vx = Vertex::new(1i64, "patient").with_property("name", GValue::Str("Alice".into()));
        let j = gvalue_to_json(&GValue::Vertex(vx));
        assert_eq!(j.get("type").and_then(Json::as_str), Some("vertex"));
        assert_eq!(j.get("label").and_then(Json::as_str), Some("patient"));
        assert_eq!(
            j.get("properties").and_then(|p| p.get("name")).and_then(Json::as_str),
            Some("Alice")
        );
    }

    /// Elements the overlay builds (shared label, provenance and key list,
    /// values moved out of the rows) encode to the same bytes as the same
    /// elements built one property at a time.
    #[test]
    fn overlay_elements_encode_like_hand_built_ones() {
        let db = Arc::new(Database::new());
        for sql in [
            "CREATE TABLE person (id BIGINT PRIMARY KEY, name VARCHAR, age BIGINT)",
            "CREATE TABLE knows (src BIGINT, dst BIGINT, since BIGINT, note VARCHAR)",
            "INSERT INTO person VALUES (1, 'Ann', 41), (2, 'Bo', NULL)",
            "INSERT INTO knows VALUES (1, 2, 2019, 'met \"at\" work'), (2, 1, 2020, NULL)",
        ] {
            db.execute(sql).unwrap();
        }
        let overlay = r#"{
            "v_tables": [{"table_name": "person", "id": "id", "fix_label": true,
                "label": "'person'", "properties": ["name", "id", "age"]}],
            "e_tables": [{"table_name": "knows", "src_v_table": "person", "src_v": "src",
                "dst_v_table": "person", "dst_v": "dst", "implicit_edge_id": true,
                "fix_label": true, "label": "'knows'"}]
        }"#;
        let graph = Db2Graph::open_json(db, overlay).unwrap();
        let wire =
            |values: &[GValue]| Json::arr(values.iter().map(gvalue_to_json).collect()).to_compact();
        let vertices = [
            Vertex::new(1, "person")
                .with_property("name", "Ann")
                .with_property("id", 1i64)
                .with_property("age", 41i64),
            Vertex::new(2, "person").with_property("id", 2i64).with_property("name", "Bo"),
        ];
        let edges = [
            Edge::new("1::knows::2", "knows", 1, 2)
                .with_property("since", 2019i64)
                .with_property("note", "met \"at\" work"),
            Edge::new("2::knows::1", "knows", 2, 1).with_property("since", 2020i64),
        ];
        let cases = [
            ("g.V().order().by('id')", vertices.map(GValue::Vertex).to_vec()),
            ("g.E().order().by('since')", edges.clone().map(GValue::Edge).to_vec()),
            ("g.V(1).outE('knows')", vec![GValue::Edge(edges[0].clone())]),
            // An adjacency hop: rows read for the cache, then served by it.
            ("g.V(2).out('knows').outE('knows')", vec![GValue::Edge(edges[0].clone())]),
            ("g.V(2).out('knows').outE('knows')", vec![GValue::Edge(edges[0].clone())]),
        ];
        for (query, hand_built) in cases {
            let overlay_built = graph.run(query).unwrap();
            assert_eq!(overlay_built, hand_built, "{query}");
            assert_eq!(wire(&overlay_built), wire(&hand_built), "{query}");
        }
    }
}
