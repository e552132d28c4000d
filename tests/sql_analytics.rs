//! Integration coverage of the relational substrate on analytics-style
//! workloads: multi-way joins, grouped aggregation with HAVING, subqueries,
//! views with predicate pushdown, DISTINCT/ORDER/LIMIT interactions,
//! transactions under concurrent readers, and the Db2-style FETCH FIRST
//! syntax. The overlay generates simple SQL; these tests cover the parts a
//! human analyst writes around the `graphQuery` calls (Section 4).

use std::sync::Arc;

use db2graph::reldb::{Database, DbError, Value};

fn sales_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE region (rid BIGINT PRIMARY KEY, rname VARCHAR);
         CREATE TABLE store (sid BIGINT PRIMARY KEY, rid BIGINT, sname VARCHAR,
            FOREIGN KEY (rid) REFERENCES region(rid));
         CREATE TABLE sale (saleid BIGINT PRIMARY KEY, sid BIGINT, amount DOUBLE, items BIGINT,
            FOREIGN KEY (sid) REFERENCES store(sid));
         CREATE INDEX ix_store_rid ON store (rid);
         CREATE INDEX ix_sale_sid ON sale (sid);
         INSERT INTO region VALUES (1, 'north'), (2, 'south'), (3, 'empty');
         INSERT INTO store VALUES (10, 1, 'N1'), (11, 1, 'N2'), (12, 2, 'S1');
         INSERT INTO sale VALUES
            (100, 10, 25.0, 2), (101, 10, 75.0, 5), (102, 11, 10.0, 1),
            (103, 12, 200.0, 9), (104, 12, 50.0, 3), (105, 12, 30.0, 2);",
    )
    .unwrap();
    db
}

#[test]
fn three_way_join_with_group_and_having() {
    let db = sales_db();
    let rs = db
        .execute(
            "SELECT r.rname, COUNT(*) AS n, SUM(s.amount) AS total \
             FROM region r \
             JOIN store st ON r.rid = st.rid \
             JOIN sale s ON st.sid = s.sid \
             GROUP BY r.rname \
             HAVING SUM(s.amount) > 100 \
             ORDER BY total DESC",
        )
        .unwrap();
    // north = 110, south = 280: both clear the HAVING bar.
    assert_eq!(rs.len(), 2);
    assert_eq!(rs.get(0, "rname"), Some(&Value::Varchar("south".into())));
    assert_eq!(rs.get(0, "n"), Some(&Value::Bigint(3)));
    assert_eq!(rs.get(0, "total"), Some(&Value::Double(280.0)));
    assert_eq!(rs.get(1, "rname"), Some(&Value::Varchar("north".into())));
    assert_eq!(rs.get(1, "total"), Some(&Value::Double(110.0)));
}

#[test]
fn left_join_preserves_childless_parents() {
    let db = sales_db();
    let rs = db
        .execute(
            "SELECT r.rname, COUNT(st.sid) AS stores \
             FROM region r LEFT JOIN store st ON r.rid = st.rid \
             GROUP BY r.rname ORDER BY r.rname",
        )
        .unwrap();
    assert_eq!(rs.len(), 3);
    // COUNT(col) skips the NULL-extended row.
    assert_eq!(rs.get(0, "rname"), Some(&Value::Varchar("empty".into())));
    assert_eq!(rs.get(0, "stores"), Some(&Value::Bigint(0)));
}

#[test]
fn subquery_and_distinct() {
    let db = sales_db();
    let rs = db
        .execute(
            "SELECT DISTINCT big.sid FROM \
             (SELECT sid, amount FROM sale WHERE amount >= 50) AS big \
             ORDER BY big.sid",
        )
        .unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Bigint(10)], vec![Value::Bigint(12)]]);
}

#[test]
fn view_with_pushdown_uses_inner_index() {
    let db = sales_db();
    db.execute(
        "CREATE VIEW store_sales AS \
         SELECT st.sid AS sid, st.rid AS rid, s.amount AS amount \
         FROM store st JOIN sale s ON st.sid = s.sid",
    )
    .unwrap();
    let rs = db.execute("SELECT SUM(amount) FROM store_sales WHERE sid = 12").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Double(280.0)));
    // The pushdown is observable: the probe count rises instead of scans.
    let before = db.metrics().load();
    db.execute("SELECT amount FROM store_sales WHERE sid = 12").unwrap();
    let d = db.metrics().load().since(&before);
    assert!(d.index_probes >= 1, "{d:?}");
}

#[test]
fn scalar_functions_and_arithmetic_in_projection() {
    let db = sales_db();
    let rs = db
        .execute(
            "SELECT UPPER(sname) AS u, LENGTH(sname) AS l, amount * 2 + 1 AS a2 \
             FROM store st JOIN sale s ON st.sid = s.sid \
             WHERE s.saleid = 100",
        )
        .unwrap();
    assert_eq!(rs.get(0, "u"), Some(&Value::Varchar("N1".into())));
    assert_eq!(rs.get(0, "l"), Some(&Value::Bigint(2)));
    assert_eq!(rs.get(0, "a2"), Some(&Value::Double(51.0)));
}

#[test]
fn fetch_first_rows_only_and_between() {
    let db = sales_db();
    let rs =
        db.execute("SELECT saleid FROM sale ORDER BY amount DESC FETCH FIRST 2 ROWS ONLY").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Bigint(103)], vec![Value::Bigint(101)]]);
    let rs = db.execute("SELECT COUNT(*) FROM sale WHERE amount BETWEEN 25 AND 75").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Bigint(4))); // 25, 75, 50, 30 (inclusive bounds)
}

#[test]
fn between_bounds_are_inclusive() {
    let db = sales_db();
    let rs = db.execute("SELECT saleid FROM sale WHERE amount BETWEEN 75 AND 75").unwrap();
    assert_eq!(rs.rows, vec![vec![Value::Bigint(101)]]);
}

#[test]
fn count_distinct_and_avg() {
    let db = sales_db();
    let rs = db.execute("SELECT COUNT(DISTINCT sid), AVG(items) FROM sale").unwrap();
    assert_eq!(rs.rows[0][0], Value::Bigint(3));
    let avg = rs.rows[0][1].as_f64().unwrap();
    assert!((avg - 22.0 / 6.0).abs() < 1e-9);
}

#[test]
fn concurrent_readers_during_writes() {
    let db = sales_db();
    let readers: Vec<_> = (0..4)
        .map(|_| {
            let db = db.clone();
            std::thread::spawn(move || {
                for _ in 0..200 {
                    let rs = db.execute("SELECT COUNT(*) FROM sale").unwrap();
                    let n = rs.scalar().unwrap().as_i64().unwrap();
                    assert!(n >= 6);
                }
            })
        })
        .collect();
    for i in 0..50 {
        db.execute(&format!("INSERT INTO sale VALUES ({}, 10, 1.0, 1)", 1000 + i)).unwrap();
    }
    for r in readers {
        r.join().unwrap();
    }
    let rs = db.execute("SELECT COUNT(*) FROM sale").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Bigint(56)));
}

#[test]
fn txn_spanning_multiple_tables_rolls_back_atomically() {
    let db = sales_db();
    let result: Result<(), DbError> = db.transaction(|db| {
        db.execute("INSERT INTO region VALUES (9, 'west')")?;
        db.execute("INSERT INTO store VALUES (90, 9, 'W1')")?;
        db.execute("UPDATE sale SET amount = 0 WHERE sid = 12")?;
        db.execute("DELETE FROM sale WHERE saleid = 100")?;
        Err(DbError::Execution("abort".into()))
    });
    assert!(result.is_err());
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM region").unwrap().scalar(),
        Some(&Value::Bigint(3))
    );
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM sale WHERE amount = 0").unwrap().scalar(),
        Some(&Value::Bigint(0))
    );
    assert_eq!(
        db.execute("SELECT COUNT(*) FROM sale WHERE saleid = 100").unwrap().scalar(),
        Some(&Value::Bigint(1))
    );
}

#[test]
fn fk_violations_and_pk_duplicates_are_rejected() {
    let db = sales_db();
    let err = db.execute("INSERT INTO store VALUES (99, 777, 'X')").unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
    let err = db.execute("INSERT INTO region VALUES (1, 'dup')").unwrap_err();
    assert!(matches!(err, DbError::Constraint(_)), "{err}");
}

#[test]
fn order_by_alias_and_multiple_keys() {
    let db = sales_db();
    let rs = db.execute("SELECT sid, amount AS a FROM sale ORDER BY sid ASC, a DESC").unwrap();
    let got: Vec<(i64, f64)> =
        rs.rows.iter().map(|r| (r[0].as_i64().unwrap(), r[1].as_f64().unwrap())).collect();
    assert_eq!(got, vec![(10, 75.0), (10, 25.0), (11, 10.0), (12, 200.0), (12, 50.0), (12, 30.0)]);
}

#[test]
fn in_list_or_not_and_is_null() {
    let db = sales_db();
    db.execute("INSERT INTO store VALUES (13, NULL, 'Homeless')").unwrap();
    let rs = db.execute("SELECT sname FROM store WHERE rid IS NULL").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Varchar("Homeless".into())));
    let rs = db.execute("SELECT COUNT(*) FROM store WHERE rid IN (1, 2) OR rid IS NULL").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Bigint(4)));
    let rs = db.execute("SELECT COUNT(*) FROM store WHERE NOT (rid = 1)").unwrap();
    // NULL rid row is unknown -> excluded by NOT as well.
    assert_eq!(rs.scalar(), Some(&Value::Bigint(1)));
}

#[test]
fn update_with_expression_and_index_maintenance() {
    let db = sales_db();
    db.execute("UPDATE sale SET amount = amount * 1.1 WHERE sid = 10").unwrap();
    let rs = db.execute("SELECT SUM(amount) FROM sale WHERE sid = 10").unwrap();
    let total = rs.scalar().unwrap().as_f64().unwrap();
    assert!((total - 110.0).abs() < 1e-9);
    // Move a sale to another store; the id1-style index must follow.
    db.execute("UPDATE sale SET sid = 11 WHERE saleid = 100").unwrap();
    let rs = db.execute("SELECT COUNT(*) FROM sale WHERE sid = 11").unwrap();
    assert_eq!(rs.scalar(), Some(&Value::Bigint(2)));
    let plan = db.explain("SELECT * FROM sale WHERE sid = 11").unwrap();
    assert!(plan.contains("INDEX"), "{plan}");
}

#[test]
fn explain_renders_join_pipeline() {
    let db = sales_db();
    let plan = db
        .explain("SELECT r.rname FROM region r JOIN store st ON r.rid = st.rid WHERE st.sid = 10")
        .unwrap();
    assert!(plan.contains("HASH-JOIN"), "{plan}");
    assert!(plan.contains("FILTER"), "{plan}");
}
