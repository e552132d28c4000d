//! Shared setup for the interactive console and the HTTP server examples:
//! the paper's Figure 2 healthcare schema, seeded, overlaid, and with the
//! `graphQuery` table function registered — one code path, so whatever
//! the demo shows is exactly what the network serves.

use std::sync::Arc;

use db2graph::core::{healthcare_example_json, Db2Graph, GraphOptions};
use db2graph::reldb::Database;

pub fn open_healthcare(options: GraphOptions) -> (Arc<Database>, Arc<Db2Graph>) {
    // In-memory by default; durable (WAL + checkpoints, with crash
    // recovery) when `options.data_dir` / `DB2GRAPH_DATA_DIR` is set.
    let db = options.open_database().expect("open database");
    // A recovered data directory already holds the schema and data —
    // reseeding would collide with the primary keys.
    if db.get_table("Patient").is_none() {
        seed_healthcare(&db);
    }
    let graph = Db2Graph::open_with_options(
        db.clone(),
        &db2graph::core::OverlayConfig::from_json(healthcare_example_json()).expect("overlay json"),
        options,
    )
    .expect("overlay");
    graph.register_graph_query("graphQuery");
    (db, graph)
}

fn seed_healthcare(db: &Database) {
    db.execute_script(
        "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, address VARCHAR, subscriptionID BIGINT);
         CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, conceptName VARCHAR);
         CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR,
            FOREIGN KEY (sourceID) REFERENCES Disease(diseaseID),
            FOREIGN KEY (targetID) REFERENCES Disease(diseaseID));
         CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR,
            FOREIGN KEY (patientID) REFERENCES Patient(patientID),
            FOREIGN KEY (diseaseID) REFERENCES Disease(diseaseID));
         INSERT INTO Patient VALUES (1, 'Alice', '12 Oak St', 100), (2, 'Bob', '9 Elm St', 101);
         INSERT INTO Disease VALUES (10, 'E11', 'type 2 diabetes'), (11, 'E10', 'type 1 diabetes'), (12, 'E08', 'diabetes');
         INSERT INTO DiseaseOntology VALUES (10, 12, 'isa'), (11, 12, 'isa');
         INSERT INTO HasDisease VALUES (1, 10, 'diagnosed 2019'), (2, 11, NULL);",
    )
    .expect("seed data");
}
