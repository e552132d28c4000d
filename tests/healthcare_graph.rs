//! End-to-end integration tests on the paper's Figure 2 healthcare
//! scenario: overlay a property graph onto relational tables and run the
//! Gremlin workloads from the paper.

use std::sync::Arc;

use db2graph_core::config::healthcare_example_json;
use db2graph_core::{Db2Graph, GraphOptions, StrategyConfig};
use gremlin::GValue;
use reldb::{Database, Value};

/// Figure 2's data: patients, diseases, a small ontology, device data.
fn healthcare_db() -> Arc<Database> {
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
         CREATE TABLE DeviceData (subscriptionID BIGINT, day BIGINT, steps BIGINT, exerciseMinutes BIGINT);
         CREATE INDEX ix_hd_patient ON HasDisease (patientID);
         CREATE INDEX ix_hd_disease ON HasDisease (diseaseID);
         CREATE INDEX ix_onto_src ON DiseaseOntology (sourceID);
         CREATE INDEX ix_onto_dst ON DiseaseOntology (targetID);
         INSERT INTO Patient VALUES
            (1, 'Alice', '12 Oak St', 100),
            (2, 'Bob', '9 Elm St', 101),
            (3, 'Carol', '4 Pine St', 102),
            (4, 'Dave', NULL, 103);
         INSERT INTO Disease VALUES
            (10, 'E11', 'type 2 diabetes'),
            (11, 'E10', 'type 1 diabetes'),
            (12, 'E08', 'diabetes'),
            (13, 'E00', 'metabolic disease'),
            (14, 'I10', 'hypertension');
         -- ontology: t2d -isa-> diabetes, t1d -isa-> diabetes,
         --           diabetes -isa-> metabolic disease
         INSERT INTO DiseaseOntology VALUES
            (10, 12, 'isa'), (11, 12, 'isa'), (12, 13, 'isa');
         INSERT INTO HasDisease VALUES
            (1, 10, 'diagnosed 2019'),
            (2, 11, 'diagnosed 2020'),
            (3, 14, NULL),
            (4, 12, NULL);
         INSERT INTO DeviceData VALUES
            (100, 1, 9000, 40), (100, 2, 11000, 55),
            (101, 1, 3000, 10), (101, 2, 5000, 20),
            (102, 1, 12000, 70),
            (103, 1, 800, 5);",
    )
    .unwrap();
    db
}

fn open(db: &Arc<Database>) -> Arc<Db2Graph> {
    Db2Graph::open_json(db.clone(), healthcare_example_json()).unwrap()
}

#[test]
fn basic_counts() {
    let db = healthcare_db();
    let g = open(&db);
    assert_eq!(g.run("g.V().count()").unwrap(), vec![GValue::Long(9)]);
    assert_eq!(g.run("g.E().count()").unwrap(), vec![GValue::Long(7)]);
    assert_eq!(
        g.run("g.V().hasLabel('patient').count()").unwrap(),
        vec![GValue::Long(4)]
    );
    assert_eq!(
        g.run("g.E().hasLabel('isa').count()").unwrap(),
        vec![GValue::Long(3)]
    );
}

#[test]
fn lookup_by_prefixed_and_plain_ids() {
    let db = healthcare_db();
    let g = open(&db);
    let out = g.run("g.V('patient::1').values('name')").unwrap();
    assert_eq!(out, vec![GValue::Str("Alice".into())]);
    let out = g.run("g.V(10).values('conceptName')").unwrap();
    assert_eq!(out, vec![GValue::Str("type 2 diabetes".into())]);
    // Unknown ids return nothing, not an error.
    assert!(g.run("g.V('patient::999')").unwrap().is_empty());
    assert!(g.run("g.V(999)").unwrap().is_empty());
}

#[test]
fn traversal_patient_to_disease_and_back() {
    let db = healthcare_db();
    let g = open(&db);
    let out = g
        .run("g.V('patient::1').out('hasDisease').values('conceptName')")
        .unwrap();
    assert_eq!(out, vec![GValue::Str("type 2 diabetes".into())]);
    // Reverse: who has t2d?
    let out = g.run("g.V(10).in('hasDisease').values('name')").unwrap();
    assert_eq!(out, vec![GValue::Str("Alice".into())]);
    // Edges with properties.
    let out = g
        .run("g.V('patient::1').outE('hasDisease').values('description')")
        .unwrap();
    assert_eq!(out, vec![GValue::Str("diagnosed 2019".into())]);
}

#[test]
fn ontology_walk_with_repeat() {
    let db = healthcare_db();
    let g = open(&db);
    // From t2d, 2 hops up the ontology.
    let out = g
        .run("g.V(10).repeat(out('isa').dedup().store('x')).times(2).cap('x')")
        .unwrap();
    match &out[0] {
        GValue::List(items) => {
            let names: Vec<String> = items
                .iter()
                .filter_map(|v| match v {
                    GValue::Vertex(vx) => {
                        vx.properties.get("conceptName").map(|p| p.to_string())
                    }
                    _ => None,
                })
                .collect();
            assert!(names.contains(&"diabetes".to_string()));
            assert!(names.contains(&"metabolic disease".to_string()));
            assert_eq!(items.len(), 2);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn section4_similar_diseases_script() {
    let db = healthcare_db();
    let g = open(&db);
    // The paper's Section 4 script (2 hops up + 2 hops down from Alice's
    // diseases). Alice has t2d; up: diabetes, metabolic; down from those:
    // t2d, t1d, diabetes. Patients with any of these: Alice, Bob, Dave.
    let script = "similar_diseases = g.V().hasLabel('patient').has('patientID', 1)\
        .out('hasDisease')\
        .repeat(out('isa').dedup().store('x')).times(2)\
        .repeat(in('isa').dedup().store('x')).times(2).cap('x').next();\
        g.V(similar_diseases).in('hasDisease').dedup().values('patientID', 'subscriptionID')";
    let out = g.run(script).unwrap();
    // Scalars interleave patientID, subscriptionID per patient.
    assert_eq!(out.len() % 2, 0);
    let pids: Vec<i64> = out
        .chunks(2)
        .map(|c| match &c[0] {
            GValue::Long(v) => *v,
            other => panic!("{other:?}"),
        })
        .collect();
    let mut sorted = pids.clone();
    sorted.sort();
    assert_eq!(sorted, vec![1, 2, 4]);
}

#[test]
fn graph_query_table_function_synergy() {
    let db = healthcare_db();
    let g = open(&db);
    g.register_graph_query("graphQuery");
    // The paper's Section 4 SQL: join graph results with DeviceData and
    // aggregate per patient.
    let sql = "SELECT patientID, AVG(steps) AS avg_steps, AVG(exerciseMinutes) AS avg_min \
        FROM DeviceData AS D, \
        TABLE(graphQuery('gremlin', 'similar_diseases = g.V().hasLabel(''patient'').has(''patientID'', 1).out(''hasDisease'')\
            .repeat(out(''isa'').dedup().store(''x'')).times(2)\
            .repeat(in(''isa'').dedup().store(''x'')).times(2).cap(''x'').next();\
            g.V(similar_diseases).in(''hasDisease'').dedup().values(''patientID'', ''subscriptionID'')')) \
        AS P (patientID BIGINT, subscriptionID BIGINT) \
        WHERE D.subscriptionID = P.subscriptionID \
        GROUP BY patientID ORDER BY patientID";
    let rs = db.execute(sql).unwrap();
    assert_eq!(rs.len(), 3); // Alice, Bob, Dave
    assert_eq!(rs.get(0, "patientID"), Some(&Value::Bigint(1)));
    assert_eq!(rs.get(0, "avg_steps"), Some(&Value::Double(10000.0)));
    assert_eq!(rs.get(1, "patientID"), Some(&Value::Bigint(2)));
    assert_eq!(rs.get(1, "avg_steps"), Some(&Value::Double(4000.0)));
    assert_eq!(rs.get(2, "patientID"), Some(&Value::Bigint(4)));
    // The graph query runs first, and DeviceData is read through the
    // subscription ids it returned: by index once the column has one.
    let keyed = "(join keys of P.subscriptionID)";
    let plan = db.explain(sql).unwrap();
    let expected = format!("TABLE-FUNCTION graphQuery\nSCAN DeviceData {keyed}\n");
    assert!(plan.starts_with(&expected), "{plan}");
    db.execute("CREATE INDEX ix_device_sub ON DeviceData (subscriptionID)").unwrap();
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains(&format!("INDEX-IN DeviceData via ix_device_sub {keyed}")), "{plan}");
    assert_eq!(db.execute(sql).unwrap().rows, rs.rows);
}

#[test]
fn updates_are_immediately_visible_to_graph_queries() {
    let db = healthcare_db();
    let g = open(&db);
    assert_eq!(
        g.run("g.V(10).in('hasDisease').count()").unwrap(),
        vec![GValue::Long(1)]
    );
    // A SQL write on the transactional side...
    db.execute("INSERT INTO HasDisease VALUES (3, 10, 'new diagnosis')").unwrap();
    // ...is visible to the very next graph query: same data, no copy.
    assert_eq!(
        g.run("g.V(10).in('hasDisease').count()").unwrap(),
        vec![GValue::Long(2)]
    );
    db.execute("UPDATE Patient SET name = 'Alicia' WHERE patientID = 1").unwrap();
    assert_eq!(
        g.run("g.V('patient::1').values('name')").unwrap(),
        vec![GValue::Str("Alicia".into())]
    );
    db.execute("DELETE FROM HasDisease WHERE patientID = 3").unwrap();
    assert_eq!(
        g.run("g.V(10).in('hasDisease').count()").unwrap(),
        vec![GValue::Long(1)]
    );
}

#[test]
fn rolled_back_updates_are_not_visible() {
    let db = healthcare_db();
    let g = open(&db);
    db.execute("BEGIN").unwrap();
    db.execute("INSERT INTO Patient VALUES (9, 'Ghost', NULL, NULL)").unwrap();
    db.execute("ROLLBACK").unwrap();
    assert!(g.run("g.V('patient::9')").unwrap().is_empty());
}

#[test]
fn label_pruning_is_observable_in_stats() {
    let db = healthcare_db();
    let g = open(&db);
    let before = g.metrics();
    g.run("g.V().hasLabel('patient').count()").unwrap();
    let d = g.metrics().since(&before);
    // Disease table pruned by its fixed label.
    assert!(d.tables_pruned >= 1, "{d:?}");
    // Exactly one SQL query (COUNT pushed down on Patient only).
    assert_eq!(d.sql_statements, 1, "{d:?}");
}

#[test]
fn prefixed_id_pins_single_table() {
    let db = healthcare_db();
    let g = open(&db);
    let before = g.metrics();
    g.run("g.V('patient::2')").unwrap();
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 1, "prefixed id should query only Patient: {d:?}");
}

#[test]
fn mutation_strategy_skips_vertex_scan() {
    let db = healthcare_db();
    let g = open(&db);
    let before = g.metrics();
    // g.V(id).outE(label): with the mutation this is ONE SQL query on the
    // edge table, no Patient query at all.
    g.run("g.V('patient::1').outE('hasDisease')").unwrap();
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 1, "{d:?}");
    // Plan shows the rewritten shape.
    let plan = g.explain("g.V('patient::1').outE('hasDisease')").unwrap();
    assert!(plan.contains("src_ids"), "{plan}");
    assert!(!plan.contains("Vertex("), "{plan}");
}

#[test]
fn count_links_is_one_aggregate_query() {
    let db = healthcare_db();
    let g = open(&db);
    let before = g.metrics();
    let out = g.run("g.V('patient::1').outE('hasDisease').count()").unwrap();
    assert_eq!(out, vec![GValue::Long(1)]);
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 1, "{d:?}");
    let plan = g.explain("g.V('patient::1').outE('hasDisease').count()").unwrap();
    assert!(plan.contains("agg"), "{plan}");
}

#[test]
fn strategies_off_still_correct() {
    let db = healthcare_db();
    let cfg = db2graph_core::OverlayConfig::from_json(healthcare_example_json()).unwrap();
    // Adjacency cache off on both sides: the SQL-count comparison below
    // measures the *strategy* savings, which warm cache hits would mask.
    let g_off = Db2Graph::open_with_options(
        db.clone(),
        &cfg,
        GraphOptions {
            strategies: StrategyConfig::none(),
            adj_cache_mb: Some(0),
            ..Default::default()
        },
    )
    .unwrap();
    let g_on = Db2Graph::open_with_options(
        db.clone(),
        &cfg,
        GraphOptions { adj_cache_mb: Some(0), ..Default::default() },
    )
    .unwrap();
    for q in [
        "g.V().hasLabel('patient').count()",
        "g.V('patient::1').outE('hasDisease').count()",
        "g.V('patient::1').out('hasDisease').values('conceptName')",
        "g.V().has('name', 'Alice').values('patientID')",
        "g.V(10).repeat(out('isa').dedup().store('x')).times(2).cap('x').next()",
        "g.E().hasLabel('isa').count()",
    ] {
        let a = g_on.run(q).unwrap();
        let b = g_off.run(q).unwrap();
        assert_eq!(a, b, "query {q} differs with strategies off");
    }
    // But the optimized version issues fewer SQL queries.
    let b_on = g_on.metrics();
    g_on.run("g.V('patient::1').outE('hasDisease').count()").unwrap();
    let on_q = g_on.metrics().since(&b_on).sql_statements;
    let b_off = g_off.metrics();
    g_off.run("g.V('patient::1').outE('hasDisease').count()").unwrap();
    let off_q = g_off.metrics().since(&b_off).sql_statements;
    assert!(on_q < off_q, "optimized {on_q} vs unoptimized {off_q}");
}

#[test]
fn edge_lookup_by_implicit_id() {
    let db = healthcare_db();
    let g = open(&db);
    // Implicit edge ids have the form src::label::dst.
    let out = g.run("g.E('patient::1::hasDisease::10').values('description')").unwrap();
    assert_eq!(out, vec![GValue::Str("diagnosed 2019".into())]);
    // outV/inV resolve endpoints.
    let out = g.run("g.E('patient::1::hasDisease::10').outV().values('name')").unwrap();
    assert_eq!(out, vec![GValue::Str("Alice".into())]);
    let out = g.run("g.E('patient::1::hasDisease::10').inV().values('conceptName')").unwrap();
    assert_eq!(out, vec![GValue::Str("type 2 diabetes".into())]);
}

#[test]
fn edge_lookup_by_explicit_prefixed_id() {
    let db = healthcare_db();
    let g = open(&db);
    let out = g.run("g.E('ontology::10::12').outV().values('conceptName')").unwrap();
    assert_eq!(out, vec![GValue::Str("type 2 diabetes".into())]);
    let out = g.run("g.E('ontology::10::12').inV().values('conceptName')").unwrap();
    assert_eq!(out, vec![GValue::Str("diabetes".into())]);
}

#[test]
fn column_derived_edge_labels() {
    let db = healthcare_db();
    let g = open(&db);
    // DiseaseOntology's label comes from the 'type' column.
    let out = g.run("g.E().hasLabel('isa').label().dedup()").unwrap();
    assert_eq!(out, vec![GValue::Str("isa".into())]);
}

#[test]
fn get_link_filter_shape() {
    let db = healthcare_db();
    let g = open(&db);
    // LinkBench getLink: does the specific edge exist?
    let out = g
        .run("g.V('patient::1').outE('hasDisease').filter(inV().id() == 10)")
        .unwrap();
    assert_eq!(out.len(), 1);
    let out = g
        .run("g.V('patient::1').outE('hasDisease').filter(inV().id() == 11)")
        .unwrap();
    assert!(out.is_empty());
}

#[test]
fn derived_edges_via_view() {
    let db = healthcare_db();
    // The "surprising benefit" (Section 5): define patient->ontology-parent
    // edges as a view joining HasDisease with DiseaseOntology.
    db.execute(
        "CREATE VIEW PatientDiseaseParent AS \
         SELECT h.patientID AS patientID, o.targetID AS parentID \
         FROM HasDisease h JOIN DiseaseOntology o ON h.diseaseID = o.sourceID",
    )
    .unwrap();
    let mut cfg = db2graph_core::OverlayConfig::from_json(healthcare_example_json()).unwrap();
    cfg.e_tables.push(db2graph_core::ETableConfig {
        table_name: "PatientDiseaseParent".into(),
        src_v_table: Some("Patient".into()),
        src_v: "'patient'::patientID".into(),
        dst_v_table: Some("Disease".into()),
        dst_v: "parentID".into(),
        prefixed_edge_id: false,
        implicit_edge_id: true,
        id: None,
        fix_label: true,
        label: "'hasDiseaseParent'".into(),
        properties: Some(vec![]),
    });
    let g = Db2Graph::open(db.clone(), &cfg).unwrap();
    // Alice has t2d, whose parent is diabetes (12).
    let out = g
        .run("g.V('patient::1').out('hasDiseaseParent').values('conceptName')")
        .unwrap();
    assert_eq!(out, vec![GValue::Str("diabetes".into())]);
    // Deleting the underlying ontology edge removes the derived edge
    // automatically — no custom maintenance logic.
    db.execute("DELETE FROM DiseaseOntology WHERE sourceID = 10").unwrap();
    assert!(g.run("g.V('patient::1').out('hasDiseaseParent')").unwrap().is_empty());
}

#[test]
fn valuemap_and_order() {
    let db = healthcare_db();
    let g = open(&db);
    let out = g
        .run("g.V().hasLabel('patient').order().by('name', desc).limit(2).values('name')")
        .unwrap();
    assert_eq!(
        out,
        vec![GValue::Str("Dave".into()), GValue::Str("Carol".into())]
    );
    let out = g.run("g.V('patient::1').valueMap('name', 'address')").unwrap();
    match &out[0] {
        GValue::Map(m) => {
            assert_eq!(m.get("name"), Some(&GValue::Str("Alice".into())));
            assert_eq!(m.get("address"), Some(&GValue::Str("12 Oak St".into())));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn aggregate_pushdowns_sum_mean_min_max() {
    let db = healthcare_db();
    let g = open(&db);
    // values+aggregate over vertex properties pushes SUM into SQL.
    let before = g.metrics();
    let out = g.run("g.V().hasLabel('patient').values('subscriptionID').sum()").unwrap();
    assert_eq!(out, vec![GValue::Long(100 + 101 + 102 + 103)]);
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 1, "{d:?}");
    let out = g.run("g.V().hasLabel('patient').values('patientID').mean()").unwrap();
    assert_eq!(out, vec![GValue::Double(2.5)]);
    let out = g.run("g.V().hasLabel('patient').values('patientID').min()").unwrap();
    assert_eq!(out, vec![GValue::Long(1)]);
    let out = g.run("g.V().hasLabel('patient').values('patientID').max()").unwrap();
    assert_eq!(out, vec![GValue::Long(4)]);
}

#[test]
fn oracle_equivalence_with_memgraph() {
    // Build the same graph in the in-memory reference backend and compare
    // answers for a battery of queries.
    use gremlin::memgraph::MemGraph;
    use gremlin::{Edge, ScriptRunner, Vertex};

    let db = healthcare_db();
    let g = open(&db);

    let mem = MemGraph::new();
    let patients = db.execute("SELECT * FROM Patient").unwrap();
    for row in &patients.rows {
        let pid = row[0].as_i64().unwrap();
        let mut v = Vertex::new(format!("patient::{pid}"), "patient")
            .with_property("patientID", pid);
        if let Value::Varchar(s) = &row[1] {
            v.properties.insert("name".into(), GValue::Str(s.clone()));
        }
        if let Value::Varchar(s) = &row[2] {
            v.properties.insert("address".into(), GValue::Str(s.clone()));
        }
        if let Value::Bigint(s) = &row[3] {
            v.properties.insert("subscriptionID".into(), GValue::Long(*s));
        }
        mem.add_vertex(v);
    }
    let diseases = db.execute("SELECT * FROM Disease").unwrap();
    for row in &diseases.rows {
        let did = row[0].as_i64().unwrap();
        let mut v = Vertex::new(did, "disease").with_property("diseaseID", did);
        if let Value::Varchar(s) = &row[1] {
            v.properties.insert("conceptCode".into(), GValue::Str(s.clone()));
        }
        if let Value::Varchar(s) = &row[2] {
            v.properties.insert("conceptName".into(), GValue::Str(s.clone()));
        }
        mem.add_vertex(v);
    }
    let hd = db.execute("SELECT * FROM HasDisease").unwrap();
    for row in &hd.rows {
        let pid = row[0].as_i64().unwrap();
        let did = row[1].as_i64().unwrap();
        let mut e = Edge::new(
            format!("patient::{pid}::hasDisease::{did}"),
            "hasDisease",
            format!("patient::{pid}"),
            did,
        );
        if let Value::Varchar(s) = &row[2] {
            e.properties.insert("description".into(), GValue::Str(s.clone()));
        }
        mem.add_edge(e);
    }
    let onto = db.execute("SELECT * FROM DiseaseOntology").unwrap();
    for row in &onto.rows {
        let s = row[0].as_i64().unwrap();
        let t = row[1].as_i64().unwrap();
        mem.add_edge(Edge::new(format!("ontology::{s}::{t}"), "isa", s, t));
    }

    let runner = ScriptRunner::new(&mem);
    for q in [
        "g.V().count()",
        "g.E().count()",
        "g.V().hasLabel('patient').count()",
        "g.V().hasLabel('patient').values('name').order()",
        "g.V('patient::1').out('hasDisease').values('conceptName')",
        "g.V(10).in('hasDisease').values('name')",
        "g.V(10).repeat(out('isa').dedup().store('x')).times(2).cap('x').next()",
        "g.V().has('name', 'Bob').out('hasDisease').out('isa').values('conceptName')",
        "g.E().hasLabel('isa').count()",
        "g.V('patient::1').outE('hasDisease').count()",
        "g.V().hasLabel('disease').values('diseaseID').max()",
    ] {
        let a = g.run(q).unwrap();
        let b = runner.run(q).unwrap();
        // Element results compare by id; sort scalars for order-insensitive
        // comparison where the query doesn't impose order.
        let norm = |vs: Vec<GValue>| -> Vec<String> {
            let mut out: Vec<String> = vs
                .iter()
                .map(|v| match v {
                    GValue::Vertex(vx) => format!("v[{}]", vx.id),
                    GValue::Edge(e) => format!("e[{}]", e.id),
                    GValue::List(items) => {
                        let mut inner: Vec<String> = items
                            .iter()
                            .map(|i| match i {
                                GValue::Vertex(vx) => format!("v[{}]", vx.id),
                                GValue::Edge(e) => format!("e[{}]", e.id),
                                other => other.to_string(),
                            })
                            .collect();
                        inner.sort();
                        format!("[{}]", inner.join(","))
                    }
                    other => other.to_string(),
                })
                .collect();
            out.sort();
            out
        };
        assert_eq!(norm(a), norm(b), "query {q} differs from oracle");
    }
}
