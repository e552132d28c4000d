//! Edge-case and failure-injection tests across the stack: empty results,
//! unicode, NULL handling, limits, runaway repeats, DDL-under-workload, and
//! concurrent readers/writers against the overlay.

use std::sync::Arc;

use db2graph::core::{Db2Graph, ETableConfig, OverlayConfig, VTableConfig};
use db2graph::gremlin::{GValue, GremlinError};
use db2graph::reldb::{Database, DbError, Value};

fn tiny_overlay(db: &Arc<Database>) -> Arc<Db2Graph> {
    db.execute_script(
        "CREATE TABLE N (id BIGINT PRIMARY KEY, tag VARCHAR, score DOUBLE);
         CREATE TABLE L (a BIGINT, b BIGINT, kind VARCHAR,
            FOREIGN KEY (a) REFERENCES N(id), FOREIGN KEY (b) REFERENCES N(id));
         CREATE INDEX ix_l_a ON L (a);
         CREATE INDEX ix_l_b ON L (b);",
    )
    .unwrap();
    Db2Graph::open(
        db.clone(),
        &OverlayConfig {
            v_tables: vec![VTableConfig {
                table_name: "N".into(),
                prefixed_id: false,
                id: "id".into(),
                fix_label: true,
                label: "'n'".into(),
                properties: Some(vec!["tag".into(), "score".into()]),
            }],
            e_tables: vec![ETableConfig {
                table_name: "L".into(),
                src_v_table: Some("N".into()),
                src_v: "a".into(),
                dst_v_table: Some("N".into()),
                dst_v: "b".into(),
                prefixed_edge_id: false,
                implicit_edge_id: true,
                id: None,
                fix_label: true,
                label: "'l'".into(),
                properties: Some(vec!["kind".into()]),
            }],
        },
    )
    .unwrap()
}

#[test]
fn empty_graph_queries_are_empty_not_errors() {
    let db = Arc::new(Database::new());
    let g = tiny_overlay(&db);
    assert_eq!(g.run("g.V().count()").unwrap(), vec![GValue::Long(0)]);
    assert_eq!(g.run("g.E().count()").unwrap(), vec![GValue::Long(0)]);
    assert!(g.run("g.V().values('tag')").unwrap().is_empty());
    assert!(g.run("g.V().values('score').sum()").unwrap().is_empty());
    assert!(g.run("g.V(1).out('l')").unwrap().is_empty());
    assert!(g.run("g.V().order().by('tag').limit(5)").unwrap().is_empty());
}

#[test]
fn unicode_roundtrips_sql_and_gremlin() {
    let db = Arc::new(Database::new());
    let g = tiny_overlay(&db);
    db.execute("INSERT INTO N VALUES (1, 'héllo wörld 日本', 1.0)").unwrap();
    let rs = db.execute("SELECT tag FROM N WHERE id = 1").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Varchar("héllo wörld 日本".into())));
    let out = g.run("g.V(1).values('tag')").unwrap();
    assert_eq!(out, vec![GValue::Str("héllo wörld 日本".into())]);
    // Unicode in a Gremlin predicate pushes into SQL and back.
    let out = g.run("g.V().has('tag', 'héllo wörld 日本').count()").unwrap();
    assert_eq!(out, vec![GValue::Long(1)]);
}

#[test]
fn null_properties_are_absent_not_null_values() {
    let db = Arc::new(Database::new());
    let g = tiny_overlay(&db);
    db.execute("INSERT INTO N VALUES (1, NULL, 2.5)").unwrap();
    let out = g.run("g.V(1).valueMap()").unwrap();
    match &out[0] {
        GValue::Map(m) => {
            assert!(!m.contains_key("tag"), "NULL column must not surface: {m:?}");
            assert_eq!(m.get("score"), Some(&GValue::Double(2.5)));
        }
        other => panic!("{other:?}"),
    }
    // values() skips it; has() misses it; hasNot() finds it.
    assert!(g.run("g.V(1).values('tag')").unwrap().is_empty());
    assert_eq!(g.run("g.V(1).has('tag').count()").unwrap(), vec![GValue::Long(0)]);
    assert_eq!(g.run("g.V(1).hasNot('tag').count()").unwrap(), vec![GValue::Long(1)]);
}

#[test]
fn runaway_repeat_is_bounded() {
    let db = Arc::new(Database::new());
    let g = tiny_overlay(&db);
    db.execute("INSERT INTO N VALUES (1, 'a', 1.0), (2, 'b', 2.0)").unwrap();
    db.execute("INSERT INTO L VALUES (1, 2, 'x'), (2, 1, 'x')").unwrap();
    // until() that never holds on a cyclic graph must hit the iteration
    // guard, not loop forever.
    let err = g.run("g.V(1).repeat(out('l')).until(has('tag', 'nope')).count()").unwrap_err();
    assert!(err.to_string().contains("iterations"), "{err}");
}

#[test]
fn limit_zero_and_range_beyond_end() {
    let db = Arc::new(Database::new());
    let g = tiny_overlay(&db);
    db.execute("INSERT INTO N VALUES (1, 'a', 1.0), (2, 'b', 2.0)").unwrap();
    assert!(g.run("g.V().limit(0)").unwrap().is_empty());
    assert!(g.run("g.V().range(5, 9)").unwrap().is_empty());
    // An upper bound below the lower one selects nothing. After dedup()
    // the bound is not pushed into SQL, so the step sees both vertices.
    assert!(g.run("g.V().range(5, 2)").unwrap().is_empty());
    assert!(g.run("g.V().range(1, 0)").unwrap().is_empty());
    assert!(g.run("g.V().dedup().range(1, 0)").unwrap().is_empty());
    // -1 as the bound means no bound: every element.
    assert_eq!(g.run("g.V().range(0, -1)").unwrap().len(), 2);
    assert_eq!(g.run("g.V().limit(-1)").unwrap().len(), 2);
    assert_eq!(g.run("g.V().range(1, -1)").unwrap().len(), 1);
    let rs = db.execute("SELECT COUNT(*) FROM N LIMIT 0").unwrap();
    assert!(rs.is_empty());
    let rs = db.execute("SELECT COUNT(*) FROM N LIMIT 1").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Bigint(2)));
}

#[test]
fn sql_empty_in_list_and_quoted_identifiers() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE \"Weird Table\" (\"a col\" BIGINT, b BIGINT)").unwrap();
    db.execute("INSERT INTO \"Weird Table\" VALUES (1, 2)").unwrap();
    let rs = db.execute("SELECT \"a col\" FROM \"Weird Table\" WHERE b IN (2, 3)").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Bigint(1)));
    let rs = db.execute("SELECT b FROM \"Weird Table\" WHERE b IN ()").unwrap();
    assert!(rs.is_empty());
}

#[test]
fn create_or_replace_view_and_drop() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (a BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.execute("CREATE VIEW v AS SELECT a FROM t WHERE a > 1").unwrap();
    assert!(db.execute("CREATE VIEW v AS SELECT a FROM t").is_err());
    db.execute("CREATE OR REPLACE VIEW v AS SELECT a FROM t WHERE a > 2").unwrap();
    let rs = db.execute("SELECT COUNT(*) FROM v").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Bigint(1)));
    db.execute("DROP VIEW v").unwrap();
    assert!(matches!(db.execute("SELECT * FROM v").unwrap_err(), DbError::Catalog(_)));
}

#[test]
fn order_by_places_nulls_first() {
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE t (a BIGINT)").unwrap();
    db.execute("INSERT INTO t VALUES (2), (NULL), (1)").unwrap();
    let rs = db.execute("SELECT a FROM t ORDER BY a").unwrap();
    assert_eq!(rs.rows[0][0], Value::Null);
    assert_eq!(rs.rows[1][0], Value::Bigint(1));
    let rs = db.execute("SELECT a FROM t ORDER BY a DESC").unwrap();
    assert_eq!(rs.rows[2][0], Value::Null);
}

#[test]
fn ddl_under_running_overlay_new_index_is_picked_up() {
    let db = Arc::new(Database::new());
    let g = tiny_overlay(&db);
    db.set_enforce_foreign_keys(false);
    for i in 0..500 {
        db.execute(&format!("INSERT INTO N VALUES ({i}, 't{}', 1.0)", i % 5)).unwrap();
    }
    // Query on an unindexed property column works (scan)...
    let before = g.run("g.V().has('tag', 't3').count()").unwrap();
    // ...and stays correct after an index appears mid-session (prepared
    // plans pick access paths at execution time).
    db.execute("CREATE INDEX ix_n_tag ON N (tag)").unwrap();
    let after = g.run("g.V().has('tag', 't3').count()").unwrap();
    assert_eq!(before, after);
    let plan = db.explain("SELECT * FROM N WHERE tag = 't3'").unwrap();
    assert!(plan.contains("INDEX"), "{plan}");
}

#[test]
fn concurrent_graph_readers_with_sql_writer() {
    let db = Arc::new(Database::new());
    let g = tiny_overlay(&db);
    db.set_enforce_foreign_keys(false);
    for i in 0..50 {
        db.execute(&format!("INSERT INTO N VALUES ({i}, 'x', 1.0)")).unwrap();
    }
    for i in 0..49 {
        db.execute(&format!("INSERT INTO L VALUES ({i}, {}, 'k')", i + 1)).unwrap();
    }
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let iterations = Arc::new(std::sync::atomic::AtomicU64::new(0));
    let readers: Vec<_> = (0..3)
        .map(|_| {
            let g = g.clone();
            let stop = stop.clone();
            let iterations = iterations.clone();
            std::thread::spawn(move || {
                let mut runs = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    // Counts move while the writer runs, but must never be
                    // below the initial state or error out.
                    let n = match g.run("g.V().count()").unwrap()[0] {
                        GValue::Long(n) => n,
                        _ => unreachable!(),
                    };
                    assert!(n >= 50, "{n}");
                    let e = g.run("g.V(0).repeat(out('l')).times(3).count()").unwrap();
                    assert_eq!(e, vec![GValue::Long(1)]);
                    runs += 1;
                    iterations.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
                runs
            })
        })
        .collect();
    for i in 50..150 {
        db.execute(&format!("INSERT INTO N VALUES ({i}, 'y', 2.0)")).unwrap();
    }
    // The writer can outpace the readers; don't signal stop until every
    // reader has observed at least one consistent snapshot, or the
    // `total > 0` assertion below races with thread startup.
    while iterations.load(std::sync::atomic::Ordering::Relaxed) < 3 {
        std::thread::yield_now();
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let total: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(total > 0);
    assert_eq!(g.run("g.V().count()").unwrap(), vec![GValue::Long(150)]);
}

#[test]
fn malformed_gremlin_reports_parse_errors() {
    let db = Arc::new(Database::new());
    let g = tiny_overlay(&db);
    for bad in ["not gremlin at all", "g.V(", "g.V().has('a',)", "g.", "g.V()..out()"] {
        let err = g.run(bad).unwrap_err();
        assert!(
            matches!(err, db2graph::core::GraphError::Gremlin(GremlinError::Parse(_))),
            "{bad}: {err}"
        );
    }
    // Valid parse, unsupported step.
    let err = g.run("g.V().frobnicate()").unwrap_err();
    assert!(err.to_string().contains("frobnicate"), "{err}");
}

#[test]
fn overlay_detects_schema_drift_at_open() {
    // If someone drops a column the overlay references, re-opening fails
    // with a clear config error (the paper: rerun AutoOverlay after DDL).
    let db = Arc::new(Database::new());
    db.execute("CREATE TABLE N (id BIGINT PRIMARY KEY, tag VARCHAR)").unwrap();
    let cfg = OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "N".into(),
            prefixed_id: false,
            id: "id".into(),
            fix_label: true,
            label: "'n'".into(),
            properties: Some(vec!["tag".into(), "ghost_column".into()]),
        }],
        e_tables: vec![],
    };
    let err = match Db2Graph::open(db, &cfg) {
        Err(e) => e,
        Ok(_) => panic!("open must fail on missing column"),
    };
    assert!(err.to_string().contains("ghost_column"), "{err}");
}
