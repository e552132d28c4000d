//! Targeted tests for each of the paper's data-dependent runtime
//! optimizations (Section 6.3) and the SQL Dialect module's workload
//! machinery (Section 6.1), asserting their observable effects through the
//! overlay statistics counters.

use std::sync::Arc;

use db2graph::core::{Db2Graph, ETableConfig, OverlayConfig, VTableConfig};
use db2graph::gremlin::GValue;
use db2graph::reldb::Database;

/// A multi-table social schema: two vertex tables with prefixed ids, one
/// edge table with declared endpoint tables, one without.
fn social_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Person (pid BIGINT PRIMARY KEY, name VARCHAR, age BIGINT);
         CREATE TABLE Company (cid BIGINT PRIMARY KEY, cname VARCHAR, sector VARCHAR);
         CREATE TABLE WorksAt (pid BIGINT, cid BIGINT, since BIGINT,
            FOREIGN KEY (pid) REFERENCES Person(pid),
            FOREIGN KEY (cid) REFERENCES Company(cid));
         CREATE TABLE Knows (a BIGINT, b BIGINT, metIn VARCHAR,
            FOREIGN KEY (a) REFERENCES Person(pid),
            FOREIGN KEY (b) REFERENCES Person(pid));
         CREATE INDEX ix_worksat_pid ON WorksAt (pid);
         CREATE INDEX ix_worksat_cid ON WorksAt (cid);
         CREATE INDEX ix_knows_a ON Knows (a);
         CREATE INDEX ix_knows_b ON Knows (b);
         INSERT INTO Person VALUES (1, 'Ann', 34), (2, 'Bo', 28), (3, 'Cy', 45), (4, 'Di', 31);
         INSERT INTO Company VALUES (1, 'Initech', 'tech'), (2, 'Globex', 'energy');
         INSERT INTO WorksAt VALUES (1, 1, 2015), (2, 1, 2020), (3, 2, 2010);
         INSERT INTO Knows VALUES (1, 2, 'US'), (2, 3, 'DE'), (1, 3, 'US'), (3, 4, 'FR');",
    )
    .unwrap();
    db
}

fn social_overlay() -> OverlayConfig {
    OverlayConfig {
        v_tables: vec![
            VTableConfig {
                table_name: "Person".into(),
                prefixed_id: true,
                id: "'person'::pid".into(),
                fix_label: true,
                label: "'person'".into(),
                properties: Some(vec!["name".into(), "age".into()]),
            },
            VTableConfig {
                table_name: "Company".into(),
                prefixed_id: true,
                id: "'company'::cid".into(),
                fix_label: true,
                label: "'company'".into(),
                properties: Some(vec!["cname".into(), "sector".into()]),
            },
        ],
        e_tables: vec![
            ETableConfig {
                table_name: "WorksAt".into(),
                src_v_table: Some("Person".into()),
                src_v: "'person'::pid".into(),
                dst_v_table: Some("Company".into()),
                dst_v: "'company'::cid".into(),
                prefixed_edge_id: false,
                implicit_edge_id: true,
                id: None,
                fix_label: true,
                label: "'worksAt'".into(),
                properties: Some(vec!["since".into()]),
            },
            ETableConfig {
                table_name: "Knows".into(),
                src_v_table: Some("Person".into()),
                src_v: "'person'::a".into(),
                dst_v_table: Some("Person".into()),
                dst_v: "'person'::b".into(),
                prefixed_edge_id: false,
                implicit_edge_id: true,
                id: None,
                fix_label: true,
                label: "'knows'".into(),
                properties: Some(vec!["metIn".into()]),
            },
        ],
    }
}

#[test]
fn prefixed_ids_pin_tables_and_decompose() {
    let db = social_db();
    let g = Db2Graph::open(db, &social_overlay()).unwrap();
    let before = g.metrics();
    let out = g.run("g.V('person::1').values('name')").unwrap();
    assert_eq!(out, vec![GValue::Str("Ann".into())]);
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 1, "prefix must pin Person only: {d:?}");
    // Wrong-prefix ids return nothing and touch no table at all.
    let before = g.metrics();
    assert!(g.run("g.V('warehouse::1')").unwrap().is_empty());
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 0, "{d:?}");
    assert_eq!(d.tables_pruned, 2, "{d:?}");
}

#[test]
fn src_dst_table_links_prune_edge_tables() {
    let db = social_db();
    let g = Db2Graph::open(db, &social_overlay()).unwrap();
    // out('worksAt') from a person: label pruning leaves WorksAt only.
    let before = g.metrics();
    let out = g.run("g.V('person::1').out('worksAt').values('cname')").unwrap();
    assert_eq!(out, vec![GValue::Str("Initech".into())]);
    let d = g.metrics().since(&before);
    // 1 SQL for Person (V(id)), wait - mutation rewrites V(id).out into
    // edge scan + endpoint lookup: 1 SQL on WorksAt + 1 on Company.
    assert_eq!(d.sql_statements, 2, "{d:?}");
    // in('worksAt') from a company touches WorksAt by dst + Person lookup.
    let before = g.metrics();
    let out = g.run("g.V('company::1').in('worksAt').dedup().count()").unwrap();
    assert_eq!(out, vec![GValue::Long(2)]);
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 2, "{d:?}");
}

#[test]
fn property_name_elimination() {
    let db = social_db();
    let g = Db2Graph::open(db, &social_overlay()).unwrap();
    // 'sector' only exists on Company: Person is eliminated without SQL.
    let before = g.metrics();
    let out = g.run("g.V().has('sector', 'tech').count()").unwrap();
    assert_eq!(out, vec![GValue::Long(1)]);
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 1, "{d:?}");
    assert!(d.tables_pruned >= 1, "{d:?}");
    // Projection pushdown on a single-table property also prunes.
    let before = g.metrics();
    let out = g.run("g.V().values('sector').dedup().count()").unwrap();
    assert_eq!(out, vec![GValue::Long(2)]);
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 1, "{d:?}");
}

#[test]
fn label_elimination_on_edges() {
    let db = social_db();
    let g = Db2Graph::open(db, &social_overlay()).unwrap();
    let before = g.metrics();
    let out = g.run("g.E().hasLabel('knows').count()").unwrap();
    assert_eq!(out, vec![GValue::Long(4)]);
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 1, "only Knows queried: {d:?}");
}

#[test]
fn combined_strategy_example_from_section_6_2() {
    // The paper's end-to-end example:
    // g.V(ids).outE().has('metIn','US').count()
    //   -> SELECT COUNT(*) FROM Knows WHERE a IN (...) AND metIn = 'US'
    let db = social_db();
    let g = Db2Graph::open(db, &social_overlay()).unwrap();
    let before = g.metrics();
    let out = g.run("g.V('person::1', 'person::2').outE().has('metIn', 'US').count()").unwrap();
    assert_eq!(out, vec![GValue::Long(2)]);
    let d = g.metrics().since(&before);
    // metIn exists only on Knows -> WorksAt pruned; single aggregate SQL.
    assert_eq!(d.sql_statements, 1, "{d:?}");
    let plan = g.explain("g.V('person::1').outE().has('metIn', 'US').count()").unwrap();
    assert!(plan.contains("src_ids"), "{plan}");
    assert!(plan.contains("agg"), "{plan}");
    assert!(plan.contains("preds"), "{plan}");
}

#[test]
fn vertex_from_edge_shortcut_when_table_is_both() {
    // A fact table serving as vertex AND edge table: Order rows are both
    // `order` vertices and person->order edges... here modelled as the
    // paper describes for e.outV(): edge table == src_v_table with vertex
    // properties subsumed by edge properties.
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Person (pid BIGINT PRIMARY KEY, name VARCHAR);
         CREATE TABLE Orders (oid BIGINT PRIMARY KEY, pid BIGINT, total DOUBLE,
            FOREIGN KEY (pid) REFERENCES Person(pid));
         INSERT INTO Person VALUES (1, 'Ann'), (2, 'Bo');
         INSERT INTO Orders VALUES (100, 1, 30.5), (101, 1, 99.0), (102, 2, 12.0);",
    )
    .unwrap();
    let cfg = OverlayConfig {
        v_tables: vec![
            VTableConfig {
                table_name: "Person".into(),
                prefixed_id: true,
                id: "'person'::pid".into(),
                fix_label: true,
                label: "'person'".into(),
                properties: Some(vec!["name".into()]),
            },
            VTableConfig {
                table_name: "Orders".into(),
                prefixed_id: true,
                id: "'order'::oid".into(),
                fix_label: true,
                label: "'order'".into(),
                properties: Some(vec!["total".into()]),
            },
        ],
        e_tables: vec![ETableConfig {
            table_name: "Orders".into(),
            src_v_table: Some("Orders".into()),
            src_v: "'order'::oid".into(),
            dst_v_table: Some("Person".into()),
            dst_v: "'person'::pid".into(),
            prefixed_edge_id: false,
            implicit_edge_id: true,
            id: None,
            fix_label: true,
            label: "'placedBy'".into(),
            properties: Some(vec!["total".into()]),
        }],
    };
    let g = Db2Graph::open(db, &cfg).unwrap();
    // e.outV(): source vertex table == edge table, vertex props (total)
    // subsumed by edge props -> constructed from the edge, zero SQL.
    let before = g.metrics();
    let out = g.run("g.E().hasLabel('placedBy').outV().values('total').sum()").unwrap();
    assert_eq!(out, vec![GValue::Double(141.5)]);
    let d = g.metrics().since(&before);
    assert!(d.vertices_from_edges >= 3, "{d:?}");
    assert_eq!(d.sql_statements, 1, "only the edge fetch needs SQL: {d:?}");
    // The constructed vertices carry the right ids and label.
    let out = g.run("g.E().hasLabel('placedBy').outV().hasLabel('order').count()").unwrap();
    assert_eq!(out, vec![GValue::Long(3)]);
    // A predicate on the constructed vertex reads a column the edge read
    // must select, though no later step reads it.
    let out = g.run("g.E().hasLabel('placedBy').outV().has('total', gt(50)).count()").unwrap();
    assert_eq!(out, vec![GValue::Long(1)]);
    let out = g.run("g.V('person::1').in('placedBy').has('total', gt(50)).count()").unwrap();
    assert_eq!(out, vec![GValue::Long(1)]);
    // inV() goes to a different table -> needs SQL, no shortcut.
    let out = g.run("g.E().hasLabel('placedBy').inV().dedup().values('name')").unwrap();
    assert_eq!(out.len(), 2);
}

#[test]
fn dialect_suggests_and_applies_indexes_from_workload() {
    let db = social_db();
    // Drop the workload-relevant index to give the advisor something to do.
    db.execute("DROP INDEX ix_knows_a").unwrap();
    let g = Db2Graph::open(db.clone(), &social_overlay()).unwrap();
    // Hammer the same pattern (outE by source id on Knows).
    for i in 0..40 {
        let pid = 1 + (i % 4);
        g.run(&format!("g.V('person::{pid}').outE('knows').count()")).unwrap();
    }
    let suggestions = g.dialect().suggested_indexes();
    assert!(
        suggestions.iter().any(|s| s.table == "Knows" && s.columns == vec!["a".to_string()]),
        "expected a Knows(a) suggestion, got {suggestions:?}"
    );
    let created = g.dialect().apply_suggested_indexes().unwrap();
    assert!(created >= 1);
    // The index is real: the SQL plan for the pattern now probes it.
    let plan = db.explain("SELECT * FROM Knows WHERE a = 1").unwrap();
    assert!(plan.contains("INDEX"), "{plan}");
}

#[test]
fn template_cache_reuses_prepared_statements() {
    let db = social_db();
    let g = Db2Graph::open(db, &social_overlay()).unwrap();
    for pid in [1, 2, 3, 4, 1, 2] {
        g.run(&format!("g.V('person::{pid}').values('name')")).unwrap();
    }
    let stats = g.metrics();
    // Six queries, but after the first the SQL template is cached.
    assert!(stats.template_hits >= 5, "{stats:?}");
    assert!(g.dialect().template_count() <= 2, "{}", g.dialect().template_count());
}

#[test]
fn implicit_edge_id_decomposition_pins_table_and_row() {
    let db = social_db();
    let g = Db2Graph::open(db, &social_overlay()).unwrap();
    let before = g.metrics();
    let out = g.run("g.E('person::1::knows::person::2').values('metIn')").unwrap();
    assert_eq!(out, vec![GValue::Str("US".into())]);
    let d = g.metrics().since(&before);
    // The embedded label eliminates WorksAt; parts become predicates.
    assert_eq!(d.sql_statements, 1, "{d:?}");
    assert!(d.tables_pruned >= 1, "{d:?}");
    // An id embedding a label of the *other* table returns nothing.
    assert!(g.run("g.E('person::1::worksFor::person::2')").unwrap().is_empty());
}

/// An edge table with a label column and implicit ids cannot push an id
/// filter into SQL (the label inside `src::label::dst` is not known per
/// table), so its plan is inexact: aggregates over the matching edges are
/// folded from the materialized edges, not answered by counting rows.
#[test]
fn implicit_ids_on_a_label_column_aggregate_the_matching_edges() {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE N (id BIGINT PRIMARY KEY);
         CREATE TABLE L (s BIGINT, d BIGINT, t VARCHAR, w BIGINT);
         INSERT INTO N VALUES (1), (2), (3);
         INSERT INTO L VALUES (1, 2, 'a', 10), (1, 3, 'a', 20), (1, 2, 'b', 5), (2, 3, 'a', 40);",
    )
    .unwrap();
    let cfg = OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "N".into(),
            prefixed_id: false,
            id: "id".into(),
            fix_label: true,
            label: "'n'".into(),
            properties: None,
        }],
        e_tables: vec![ETableConfig {
            table_name: "L".into(),
            src_v_table: Some("N".into()),
            src_v: "s".into(),
            dst_v_table: Some("N".into()),
            dst_v: "d".into(),
            prefixed_edge_id: false,
            implicit_edge_id: true,
            id: None,
            fix_label: false,
            label: "t".into(),
            properties: Some(vec!["w".into()]),
        }],
    };
    let g = Db2Graph::open(db, &cfg).unwrap();
    let ids = "g.E('1::a::2', '1::a::3')";
    let run = |tail: &str| g.run(&format!("{ids}{tail}")).unwrap();
    assert_eq!(run(".count()"), vec![GValue::Long(2)]);
    assert_eq!(run(".values('w').sum()"), vec![GValue::Long(30)]);
    assert_eq!(run(".values('w').max()"), vec![GValue::Long(20)]);
    assert_eq!(run(".values('w').min()"), vec![GValue::Long(10)]);
    assert_eq!(run(".values('w').mean()"), vec![GValue::Double(15.0)]);
    assert_eq!(run(".values('w').count()"), vec![GValue::Long(2)]);
    let mut ws = run(".values('w')");
    ws.sort_by(|a, b| a.total_cmp(b));
    assert_eq!(ws, vec![GValue::Long(10), GValue::Long(20)]);
}

/// View columns carry no catalog type, so id text is coerced by its shape.
/// Digits too large for a BIGINT name no row, not some other id's row.
#[test]
fn oversized_ids_on_view_columns_match_no_row() {
    let db = social_db();
    db.execute_script(
        "INSERT INTO Person VALUES (0, 'Zed', 50);
         CREATE VIEW PersonView AS SELECT pid, name FROM Person;",
    )
    .unwrap();
    let cfg = OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "PersonView".into(),
            prefixed_id: false,
            id: "pid".into(),
            fix_label: true,
            label: "'person'".into(),
            properties: None,
        }],
        e_tables: vec![],
    };
    let g = Db2Graph::open(db, &cfg).unwrap();
    assert_eq!(g.run("g.V('0').values('name')").unwrap(), vec![GValue::Str("Zed".into())]);
    assert!(g.run("g.V('99999999999999999999')").unwrap().is_empty());
    assert_eq!(g.run("g.V('99999999999999999999').count()").unwrap(), vec![GValue::Long(0)]);
}
