//! The paper's Section 4 synergistic-analytics scenario, end to end:
//! a Gremlin graph query embedded in SQL via the `graphQuery` polymorphic
//! table function, joined with device data and aggregated — "graph queries
//! excel at navigating through complex relationships, whereas SQL is good
//! at the heavy-lifting group-by and aggregation".
//!
//! Run with: `cargo run --example healthcare_analytics`

use std::sync::Arc;

use db2graph::core::{healthcare_example_json, Db2Graph};
use db2graph::reldb::Database;

fn main() {
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
         CREATE INDEX ix_dd_sub ON DeviceData (subscriptionID);
         INSERT INTO Patient VALUES
            (1, 'Alice', '12 Oak St', 100), (2, 'Bob', '9 Elm St', 101),
            (3, 'Carol', '4 Pine St', 102), (4, 'Dave', NULL, 103);
         INSERT INTO Disease VALUES
            (10, 'E11', 'type 2 diabetes'), (11, 'E10', 'type 1 diabetes'),
            (12, 'E08', 'diabetes'), (13, 'E00', 'metabolic disease'), (14, 'I10', 'hypertension');
         INSERT INTO DiseaseOntology VALUES (10, 12, 'isa'), (11, 12, 'isa'), (12, 13, 'isa');
         INSERT INTO HasDisease VALUES
            (1, 10, 'diagnosed 2019'), (2, 11, 'diagnosed 2020'), (3, 14, NULL), (4, 12, NULL);
         INSERT INTO DeviceData VALUES
            (100, 1, 9000, 40), (100, 2, 11000, 55),
            (101, 1, 3000, 10), (101, 2, 5000, 20),
            (102, 1, 12000, 70), (103, 1, 800, 5);",
    )
    .expect("schema + data");

    let graph = Db2Graph::open_json(db.clone(), healthcare_example_json()).expect("overlay");
    graph.register_graph_query("graphQuery");

    // The paper's query: find patients with similar diseases to patient 1
    // (2 hops up + 2 hops down the disease ontology) via Gremlin, then let
    // SQL join them to their wearable-device data and aggregate.
    let sql = "SELECT patientID, AVG(steps) AS avg_steps, AVG(exerciseMinutes) AS avg_minutes \
        FROM DeviceData AS D, \
        TABLE(graphQuery('gremlin', 'similar_diseases = g.V().hasLabel(''patient'').has(''patientID'', 1).out(''hasDisease'')\
            .repeat(out(''isa'').dedup().store(''x'')).times(2)\
            .repeat(in(''isa'').dedup().store(''x'')).times(2).cap(''x'').next();\
            g.V(similar_diseases).in(''hasDisease'').dedup().values(''patientID'', ''subscriptionID'')')) \
        AS P (patientID BIGINT, subscriptionID BIGINT) \
        WHERE D.subscriptionID = P.subscriptionID \
        GROUP BY patientID ORDER BY patientID";

    println!("== Section 4: synergistic SQL + graph query ==\n");
    println!("{sql}\n");
    let rs = db.execute(sql).expect("synergistic query");
    println!("{rs}");

    println!("The graph part navigated the ontology (patients with diseases similar to");
    println!("patient 1's), the SQL part joined with DeviceData and computed the averages.");
    println!("Carol (hypertension only) is correctly absent.\n");

    // Contrast: the same question in one Gremlin script (no SQL join) —
    // possible, but the aggregation side is where SQL shines.
    let gremlin_only =
        "similar_diseases = g.V().hasLabel('patient').has('patientID', 1).out('hasDisease')\
        .repeat(out('isa').dedup().store('x')).times(2)\
        .repeat(in('isa').dedup().store('x')).times(2).cap('x').next();\
        g.V(similar_diseases).in('hasDisease').dedup().values('name')";
    let names = graph.run(gremlin_only).expect("gremlin query");
    println!(
        "Patients found by the graph side alone: {:?}",
        names.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );

    // What the telemetry layer observed while the queries above ran: the
    // SQL Dialect's workload view (pattern costs + wall-time-ranked index
    // suggestions) and the aggregate latency snapshot. With
    // `DB2GRAPH_TRACE=<path>` set, a Perfetto-loadable Chrome trace of
    // every span is additionally written when the graph drops.
    println!("\n== Telemetry ==\n");
    print!("{}", graph.workload_report());
    let m = graph.metrics();
    println!("metrics: {}", m.to_json().to_compact());
    if graph.trace_sink().is_some() {
        println!("tracing: enabled ({} span(s) retained)", m.trace_spans);
    }
}
