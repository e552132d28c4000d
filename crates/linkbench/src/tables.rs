//! Materializing a LinkBench dataset into the relational database, and the
//! overlay configuration that retrofits a graph view onto it.
//!
//! Following common practice — and the paper's dataset description ("There
//! are 10 types of vertices and also 10 types of edges") — each vertex type
//! and each edge type is stored in its own table: `nodes_vt0..nodes_vt9`
//! and `links_et0..links_et9`, each with a *fixed label* in the overlay.
//! This is the layout where the paper's optimizations matter: label values
//! and pushed-down predicates eliminate 9 of 10 tables per query, and the
//! GraphStep::VertexStep mutation avoids querying any vertex table at all.
//!
//! Vertex ids are globally unique across the ten tables (LinkBench ids),
//! so the overlay uses plain unprefixed ids; a query without a label must
//! therefore search all ten tables — exactly the behaviour Section 6.3's
//! optimizations exist to avoid.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use db2graph_core::{ETableConfig, OverlayConfig, VTableConfig};
use gremlin::structure::{Edge, Properties, Vertex};
use reldb::{Database, DbResult, Value};

use crate::gen::GraphData;

/// Number of per-type tables (matches the generator's 10 vertex and 10
/// edge types).
pub const NUM_TYPES: usize = 10;

/// Create the 10+10 table schema with the indexes the paper grants every
/// system, and bulk-insert the dataset. Returns the database and the load
/// duration.
pub fn materialize(data: &GraphData) -> DbResult<(Arc<Database>, Duration)> {
    let db = Arc::new(Database::new());
    let mut ddl = String::new();
    for k in 0..NUM_TYPES {
        ddl.push_str(&format!(
            "CREATE TABLE nodes_vt{k} (
                id BIGINT PRIMARY KEY,
                version BIGINT,
                time BIGINT,
                data VARCHAR
            );\n"
        ));
    }
    for k in 0..NUM_TYPES {
        ddl.push_str(&format!(
            "CREATE TABLE links_et{k} (
                id1 BIGINT NOT NULL,
                id2 BIGINT NOT NULL,
                visibility BIGINT,
                time BIGINT,
                version BIGINT,
                data VARCHAR
            );
            CREATE INDEX ix_links_et{k}_id1 ON links_et{k} (id1);
            CREATE INDEX ix_links_et{k}_id2 ON links_et{k} (id2);\n"
        ));
    }
    db.execute_script(&ddl)?;

    let start = Instant::now();
    db.set_enforce_foreign_keys(false);
    let node_tables: Vec<_> = (0..NUM_TYPES)
        .map(|k| db.get_table(&format!("nodes_vt{k}")).expect("created above"))
        .collect();
    for n in &data.nodes {
        let k: usize = n.label[2..].parse().expect("label vtK");
        db.insert_row(
            &node_tables[k],
            vec![
                Value::Bigint(n.id),
                Value::Bigint(n.version),
                Value::Bigint(n.time),
                Value::Varchar(n.data.clone()),
            ],
        )?;
    }
    let link_tables: Vec<_> = (0..NUM_TYPES)
        .map(|k| db.get_table(&format!("links_et{k}")).expect("created above"))
        .collect();
    for l in &data.links {
        let k: usize = l.label[2..].parse().expect("label etK");
        db.insert_row(
            &link_tables[k],
            vec![
                Value::Bigint(l.id1),
                Value::Bigint(l.id2),
                Value::Bigint(l.visibility),
                Value::Bigint(l.time),
                Value::Bigint(l.version),
                Value::Varchar(l.data.clone()),
            ],
        )?;
    }
    db.set_enforce_foreign_keys(true);
    Ok((db, start.elapsed()))
}

/// The overlay configuration: ten fixed-label vertex tables and ten
/// fixed-label edge tables with implicit edge ids.
pub fn overlay_config() -> OverlayConfig {
    let v_tables = (0..NUM_TYPES)
        .map(|k| VTableConfig {
            table_name: format!("nodes_vt{k}"),
            prefixed_id: false,
            id: "id".into(),
            fix_label: true,
            label: format!("'vt{k}'"),
            properties: Some(vec!["version".into(), "time".into(), "data".into()]),
        })
        .collect();
    let e_tables = (0..NUM_TYPES)
        .map(|k| ETableConfig {
            table_name: format!("links_et{k}"),
            // Sources/destinations span all ten node tables, so no
            // src_v_table/dst_v_table link can be declared.
            src_v_table: None,
            src_v: "id1".into(),
            dst_v_table: None,
            dst_v: "id2".into(),
            prefixed_edge_id: false,
            implicit_edge_id: true,
            id: None,
            fix_label: true,
            label: format!("'et{k}'"),
            properties: Some(vec![
                "visibility".into(),
                "time".into(),
                "version".into(),
                "data".into(),
            ]),
        })
        .collect();
    OverlayConfig { v_tables, e_tables }
}

/// Build the equivalent graph directly as vertices/edges (for loading the
/// baseline stores without going through export, used by unit tests).
/// Like the overlay's, the elements of one type share their label, and all
/// vertices (edges) share one sorted key list.
pub fn to_elements<'d>(data: &'d GraphData) -> (Vec<Vertex>, Vec<Edge>) {
    let mut labels: HashMap<&str, Arc<str>> = HashMap::new();
    let mut label = |l: &'d str| labels.entry(l).or_insert_with(|| Arc::from(l)).clone();
    let keys =
        |names: &[&str]| -> Arc<[Arc<str>]> { names.iter().map(|&k| Arc::from(k)).collect() };
    let vertex_keys = keys(&["data", "time", "version"]);
    let edge_keys = keys(&["data", "time", "version", "visibility"]);
    let vertices: Vec<Vertex> = data
        .nodes
        .iter()
        .map(|n| Vertex {
            properties: Properties::shared(
                vertex_keys.clone(),
                vec![Some(n.data.as_str().into()), Some(n.time.into()), Some(n.version.into())],
            ),
            ..Vertex::new(n.id, label(&n.label))
        })
        .collect();
    let edges: Vec<Edge> = data
        .links
        .iter()
        .map(|l| Edge {
            properties: Properties::shared(
                edge_keys.clone(),
                vec![
                    Some(l.data.as_str().into()),
                    Some(l.time.into()),
                    Some(l.version.into()),
                    Some(l.visibility.into()),
                ],
            ),
            ..Edge::new(format!("{}::{}::{}", l.id1, l.label, l.id2), label(&l.label), l.id1, l.id2)
        })
        .collect();
    (vertices, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, LinkBenchConfig};
    use db2graph_core::Db2Graph;
    use gremlin::GValue;

    #[test]
    fn materialize_and_overlay_roundtrip() {
        let data = generate(&LinkBenchConfig::small().with_vertices(300));
        let (db, _t) = materialize(&data).unwrap();
        let mut total = 0;
        for k in 0..NUM_TYPES {
            let rs = db.execute(&format!("SELECT COUNT(*) FROM nodes_vt{k}")).unwrap();
            total += rs.scalar().unwrap().as_i64().unwrap();
        }
        assert_eq!(total, 300);

        let graph = Db2Graph::open(db, &overlay_config()).unwrap();
        let out = graph.run("g.V().count()").unwrap();
        assert_eq!(out, vec![GValue::Long(300)]);
        let out = graph.run("g.E().count()").unwrap();
        assert_eq!(out, vec![GValue::Long(data.links.len() as i64)]);
    }

    #[test]
    fn degree_queries_agree_with_generator() {
        let data = generate(&LinkBenchConfig::small().with_vertices(300));
        let (db, _) = materialize(&data).unwrap();
        let graph = Db2Graph::open(db, &overlay_config()).unwrap();
        let expected = data.links.iter().filter(|l| l.id1 == 0).count() as i64;
        let out = graph.run("g.V(0).outE().count()").unwrap();
        assert_eq!(out, vec![GValue::Long(expected)]);
        // Per-label degree matches too.
        let expected = data.links.iter().filter(|l| l.id1 == 0 && l.label == "et3").count() as i64;
        let out = graph.run("g.V(0).outE('et3').count()").unwrap();
        assert_eq!(out, vec![GValue::Long(expected)]);
    }

    #[test]
    fn label_elimination_prunes_nine_tables() {
        let data = generate(&LinkBenchConfig::small().with_vertices(300));
        let (db, _) = materialize(&data).unwrap();
        let graph = Db2Graph::open(db, &overlay_config()).unwrap();
        let before = graph.metrics();
        let id = data.nodes[5].id;
        let label = &data.nodes[5].label;
        graph.run(&format!("g.V({id}).hasLabel('{label}')")).unwrap();
        let d = graph.metrics().since(&before);
        assert_eq!(d.sql_statements, 1, "label should pin one table: {d:?}");
        // Without a label, all ten node tables must be searched.
        let before = graph.metrics();
        graph.run(&format!("g.V({id})")).unwrap();
        let d = graph.metrics().since(&before);
        assert_eq!(d.sql_statements, NUM_TYPES as u64, "{d:?}");
    }

    #[test]
    fn elements_match_row_counts() {
        let data = generate(&LinkBenchConfig::small().with_vertices(200));
        let (vs, es) = to_elements(&data);
        assert_eq!(vs.len(), 200);
        assert_eq!(es.len(), data.links.len());
        assert_eq!(vs[5].properties.len(), 3);
        assert_eq!(es[0].properties.len(), 4);
        // The shared-shape elements equal ones built a property at a time.
        let (n, l) = (&data.nodes[5], &data.links[0]);
        let vertex = Vertex::new(n.id, n.label.as_str())
            .with_property("version", n.version)
            .with_property("time", n.time)
            .with_property("data", n.data.as_str());
        assert_eq!((&vs[5].label, &vs[5].properties), (&vertex.label, &vertex.properties));
        let edge = Edge::new(es[0].id.clone(), l.label.as_str(), l.id1, l.id2)
            .with_property("visibility", l.visibility)
            .with_property("time", l.time)
            .with_property("version", l.version)
            .with_property("data", l.data.as_str());
        assert_eq!(es[0], edge);
    }
}
