//! Quickstart: overlay a property graph onto existing relational tables and
//! query it with Gremlin — the paper's Figure 2 healthcare scenario.
//!
//! Run with: `cargo run --example quickstart`

use std::sync::Arc;

use db2graph::core::config::healthcare_example_json;
use db2graph::core::Db2Graph;
use db2graph::reldb::Database;

fn main() {
    // 1. "Existing" relational data: the four tables in Figure 2's
    //    dashed-line box, plus wearable-device data.
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
         INSERT INTO Patient VALUES
            (1, 'Alice', '12 Oak St', 100), (2, 'Bob', '9 Elm St', 101);
         INSERT INTO Disease VALUES
            (10, 'E11', 'type 2 diabetes'), (11, 'E10', 'type 1 diabetes'), (12, 'E08', 'diabetes');
         INSERT INTO DiseaseOntology VALUES (10, 12, 'isa'), (11, 12, 'isa');
         INSERT INTO HasDisease VALUES (1, 10, 'diagnosed 2019'), (2, 11, NULL);",
    )
    .expect("schema + data");

    // 2. Open a graph view over those tables — no copy, no transformation.
    //    The overlay configuration is the JSON file from Section 5 of the
    //    paper, verbatim.
    let graph = Db2Graph::open_json(db.clone(), healthcare_example_json()).expect("overlay");

    println!("== overlay topology ==");
    for vt in &graph.topology().vertex_tables {
        println!("  vertex table {:12} label={:?}", vt.table.name, vt.table.label);
    }
    for et in &graph.topology().edge_tables {
        println!("  edge table   {:12} label={:?}", et.table.name, et.table.label);
    }

    // 3. Gremlin queries run as SQL against the live tables.
    println!("\n== Gremlin over relational data ==");
    for q in [
        "g.V().count()",
        "g.V().hasLabel('patient').values('name')",
        "g.V().has('name', 'Alice').out('hasDisease').values('conceptName')",
        "g.V().has('name', 'Alice').out('hasDisease').out('isa').values('conceptName')",
        "g.V(12).in('isa').in('hasDisease').dedup().values('name')",
    ] {
        let out = graph.run(q).expect("query");
        let rendered: Vec<String> = out.iter().map(|v| v.to_string()).collect();
        println!("  {q}\n    -> [{}]", rendered.join(", "));
    }

    // 4. The killer feature: SQL updates are instantly visible to graph
    //    queries, because graph and SQL share the same single copy of data.
    db.execute("INSERT INTO HasDisease VALUES (2, 10, 'new diagnosis')").unwrap();
    let out = graph
        .run("g.V(10).in('hasDisease').values('name')")
        .expect("query after update");
    println!("\nAfter a SQL INSERT, patients with type 2 diabetes: {:?}",
        out.iter().map(|v| v.to_string()).collect::<Vec<_>>());

    // 5. And the optimizer is observable: the same query plan the paper's
    //    strategies produce.
    println!(
        "\nOptimized plan for g.V(10).in('hasDisease').count():\n  {}",
        graph.explain("g.V(10).in('hasDisease').count()").unwrap()
    );
    println!("\nMetrics: {}", graph.metrics().to_json().to_compact());
}
