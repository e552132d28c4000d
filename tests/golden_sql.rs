//! Golden-SQL snapshot tests: for a corpus of Gremlin queries over the
//! paper's healthcare overlay, the exact SQL that `explain()` reports the
//! plan would generate is checked against expected strings committed here.
//!
//! These pin down the SQL Dialect's generation (projection pushdown,
//! predicate pushdown, aggregate pushdown, id pinning) so an accidental
//! change to the emitted SQL fails loudly with a readable diff. explain()
//! is data-independent, so the snapshots need no table contents at all.

use std::sync::Arc;

use db2graph_core::{healthcare_example_json, Db2Graph};
use reldb::Database;

/// Schema only — explain never reads rows, so none are inserted.
fn graph() -> Arc<Db2Graph> {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, address VARCHAR, subscriptionID BIGINT);
         CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, conceptName VARCHAR);
         CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR);
         CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR);",
    )
    .unwrap();
    Db2Graph::open_json(db, healthcare_example_json()).unwrap()
}

/// (gremlin, expected SQL statements in step/table order).
const GOLDEN: &[(&str, &[&str])] = &[
    (
        "g.V()",
        &[
            "SELECT patientID, name, address, subscriptionID FROM Patient",
            "SELECT diseaseID, conceptCode, conceptName FROM Disease",
        ],
    ),
    // Aggregate pushdown: count() becomes COUNT(*) per table.
    ("g.V().count()", &["SELECT COUNT(*) FROM Patient", "SELECT COUNT(*) FROM Disease"]),
    // Fixed-label elimination: only Patient is scanned.
    (
        "g.V().hasLabel('patient')",
        &["SELECT patientID, name, address, subscriptionID FROM Patient"],
    ),
    // Predicate pushdown: has() becomes a parameterized WHERE.
    (
        "g.V().hasLabel('patient').has('name', 'Alice')",
        &["SELECT patientID, name, address, subscriptionID FROM Patient WHERE name = ?"],
    ),
    // Prefixed-id pinning: 'patient::1' keys only the Patient table.
    (
        "g.V('patient::1')",
        &["SELECT patientID, name, address, subscriptionID FROM Patient WHERE patientID = ?"],
    ),
    // A plain integer id can only come from the Bigint-id table.
    ("g.V(10)", &["SELECT diseaseID, conceptCode, conceptName FROM Disease WHERE diseaseID = ?"]),
    // Projection pushdown: values('name') narrows the SELECT list to the
    // id column plus the requested property.
    ("g.V().hasLabel('patient').values('name')", &["SELECT patientID, name FROM Patient"]),
    (
        "g.V().hasLabel('disease').has('conceptCode', 'E11').values('conceptName')",
        &["SELECT diseaseID, conceptName FROM Disease WHERE conceptCode = ?"],
    ),
    (
        "g.E()",
        &[
            "SELECT sourceID, targetID, type FROM DiseaseOntology",
            "SELECT patientID, diseaseID, description FROM HasDisease",
        ],
    ),
    ("g.E().count()", &["SELECT COUNT(*) FROM DiseaseOntology", "SELECT COUNT(*) FROM HasDisease"]),
    // Column-label edge table: hasLabel('isa') pushes into WHERE on the
    // label column; the fixed-label table HasDisease is eliminated.
    (
        "g.E().hasLabel('isa')",
        &["SELECT sourceID, targetID, type FROM DiseaseOntology WHERE type = ?"],
    ),
    (
        "g.E().hasLabel('hasDisease').has('description', 'diagnosed 2019')",
        &["SELECT patientID, diseaseID, description FROM HasDisease WHERE description = ?"],
    ),
    // Strategy-mutated plan: V(id).outE(label) becomes a single edge scan
    // keyed by the source endpoint; the ontology table cannot hold a
    // 'patient::…' endpoint.
    (
        "g.V('patient::1').outE('hasDisease')",
        &["SELECT patientID, diseaseID, description FROM HasDisease WHERE patientID = ?"],
    ),
    // Aggregate pushdown through projection: sum() of one property.
    (
        "g.V().hasLabel('patient').values('subscriptionID').sum()",
        &["SELECT SUM(subscriptionID) FROM Patient"],
    ),
    ("g.V().hasLabel('disease').count()", &["SELECT COUNT(*) FROM Disease"]),
    // An id range has no SQL form here, so the plan is inexact: the
    // aggregate counts the matching vertices the SELECT materializes
    // instead of pushing COUNT(*) over the whole table.
    (
        "g.V().hasLabel('disease').has('id', gt(1)).count()",
        &["SELECT diseaseID, conceptCode, conceptName FROM Disease"],
    ),
    // Limit pushdown: a limit right after a GraphStep bounds each table's
    // read, rounded up to a power of two so bounds share templates.
    (
        "g.V().hasLabel('patient').limit(3)",
        &["SELECT patientID, name, address, subscriptionID FROM Patient LIMIT 4"],
    ),
    (
        "g.V().limit(1).values('name')",
        &["SELECT patientID, name FROM Patient LIMIT 1", "SELECT diseaseID FROM Disease LIMIT 1"],
    ),
    (
        "g.E().hasLabel('isa').range(2, 5)",
        &["SELECT sourceID, targetID, type FROM DiseaseOntology WHERE type = ? LIMIT 8"],
    ),
    // An inexact plan's residual check may drop rows: no LIMIT.
    (
        "g.V().hasLabel('disease').has('id', gt(1)).limit(2)",
        &["SELECT diseaseID, conceptCode, conceptName FROM Disease"],
    ),
];

#[test]
fn golden_sql_statements() {
    let g = graph();
    let mut failures = Vec::new();
    for (gremlin, expected) in GOLDEN {
        let report = g.explain_report(gremlin).unwrap();
        let actual = report.sql_statements();
        if actual != *expected {
            failures.push(format!(
                "query:    {gremlin}\nexpected: {expected:?}\nactual:   {actual:?}\n"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "generated SQL diverged from golden snapshots:\n\n{}",
        failures.join("\n")
    );
}

/// explain() and execution build their statements with one function: for
/// every golden query, the statements `profile()` runs are the ones
/// `explain_report()` lists. The tables are empty, so no step after the
/// first issues SQL.
#[test]
fn explain_lists_the_statements_execution_runs() {
    let g = graph();
    let mut failures = Vec::new();
    for (gremlin, _) in GOLDEN {
        let explained = g.explain_report(gremlin).unwrap();
        let (_, profile) = g.profile(gremlin).unwrap();
        let executed: Vec<&str> = profile.statements.iter().map(|s| s.sql.as_str()).collect();
        if executed != explained.sql_statements() {
            failures.push(format!(
                "query:     {gremlin}\nexplained: {:?}\nexecuted:  {executed:?}\n",
                explained.sql_statements()
            ));
        }
    }
    assert!(failures.is_empty(), "explain() and execution diverged:\n\n{}", failures.join("\n"));
}

/// Full rendered explain() output for a representative multi-step query,
/// pinned verbatim: plan line, per-table SQL, prune reasons, and the
/// adjacency step's candidate annotation.
#[test]
fn golden_explain_text_traversal() {
    let g = graph();
    let text =
        g.explain("g.V().hasLabel('patient').out('hasDisease').values('conceptName')").unwrap();
    let expected = "\
plan: Graph(V|labels) -> Vertex(out) -> Values(conceptName)
step 0: Graph(V|labels)
  Patient: SELECT patientID FROM Patient
  Disease: pruned (fixed label 'disease' not in requested labels)
step 1: Vertex(out)
  DiseaseOntology: candidate; queried per frontier batch of source ids (declared src/dst vertex table links can skip it per direction)
  HasDisease: candidate; queried per frontier batch of source ids (declared src/dst vertex table links can skip it per direction)";
    assert_eq!(text, expected);
}

/// Id-lookup explain, pinned verbatim: prefixed-id pinning prunes the
/// mismatching table with a precise reason.
#[test]
fn golden_explain_text_id_lookup() {
    let g = graph();
    let text = g.explain("g.V('patient::1')").unwrap();
    let expected = "\
plan: Graph(V|ids)
step 0: Graph(V|ids)
  Patient: SELECT patientID, name, address, subscriptionID FROM Patient WHERE patientID = ?
  Disease: pruned (no requested id fits this table (id prefix or type mismatch))";
    assert_eq!(text, expected);
}
