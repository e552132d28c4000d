//! Property-based tests over the core invariants:
//! id codec roundtrips, value ordering laws, index-vs-scan equivalence,
//! LIKE semantics, optimizer semantic preservation, AutoOverlay shape
//! invariants.

use std::sync::Arc;

use proptest::prelude::*;

use db2graph::core::{generate_overlay, Db2Graph, GraphOptions, IdDef, StrategyConfig};
use db2graph::gremlin::{ElementId, GValue};
use db2graph::reldb::{ColumnDef, DataType, Database, DbResult, RowSet, TableSchema, Value};

// ----------------------------------------------------------------- values

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Bigint),
        any::<f64>().prop_filter("no NaN keys", |f| !f.is_nan()).prop_map(Value::Double),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::Varchar),
        any::<bool>().prop_map(Value::Boolean),
    ]
}

proptest! {
    #[test]
    fn value_total_order_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        let ab = a.total_cmp(&b);
        let ba = b.total_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == std::cmp::Ordering::Equal {
            prop_assert_eq!(a.total_cmp(&b), std::cmp::Ordering::Equal);
        }
    }

    #[test]
    fn value_total_order_is_transitive(a in arb_value(), b in arb_value(), c in arb_value()) {
        use std::cmp::Ordering::*;
        let mut v = [a, b, c];
        v.sort();
        // After sorting, pairwise comparisons must be consistent.
        prop_assert_ne!(v[0].total_cmp(&v[1]), Greater);
        prop_assert_ne!(v[1].total_cmp(&v[2]), Greater);
        prop_assert_ne!(v[0].total_cmp(&v[2]), Greater);
    }

    #[test]
    fn sql_literal_roundtrips_through_parser(v in arb_value()) {
        // Rendering a value as a SQL literal and selecting it yields the
        // value back (module numeric formatting).
        let db = Database::new();
        let rs = db.execute(&format!("SELECT {}", v.to_sql_literal())).unwrap();
        let got = rs.scalar().unwrap();
        match (&v, got) {
            (Value::Double(a), got) => {
                prop_assert!((got.as_f64().unwrap() - a).abs() < 1e-9 || a.is_infinite());
            }
            (expected, got) => prop_assert_eq!(expected, got),
        }
    }
}

// -------------------------------------------------------------------- ids

fn arb_id_def() -> impl Strategy<Value = (String, usize)> {
    // (definition string, number of column parts)
    prop_oneof![
        Just(("plainCol".to_string(), 1)),
        "[a-z]{1,8}".prop_map(|p| (format!("'{p}'::keyCol"), 1)),
        "[a-z]{1,8}".prop_map(|p| (format!("'{p}'::c1::c2"), 2)),
    ]
}

proptest! {
    #[test]
    fn id_encode_decode_roundtrip((spec, ncols) in arb_id_def(), vals in prop::collection::vec(1i64..1_000_000, 1..3)) {
        prop_assume!(vals.len() == ncols);
        let def = IdDef::parse(&spec).unwrap();
        let values: Vec<Value> = vals.iter().map(|&v| Value::Bigint(v)).collect();
        let id = def.encode(&values).unwrap();
        let decoded = def.decode(&id).expect("own encoding must decode");
        prop_assert_eq!(decoded.len(), ncols);
        for (text, v) in decoded.iter().zip(&vals) {
            prop_assert_eq!(text.parse::<i64>().unwrap(), *v);
        }
    }

    /// Prefixed-id compose/decompose is lossless for *arbitrary* table
    /// prefixes and key values — any mix of integer and textual keys, any
    /// arity — as long as no value contains `:` (a colon adjacent to the
    /// `::` separator is indistinguishable from a component boundary).
    /// Single-column BIGINT keys must stay numeric (`ElementId::Long`).
    #[test]
    fn prefixed_id_roundtrip_arbitrary_names_and_values(
        prefix in "[a-zA-Z][a-zA-Z0-9_]{0,10}",
        keys in prop::collection::vec(
            prop_oneof![
                (-1_000_000_000i64..1_000_000_000).prop_map(Value::Bigint),
                "[a-zA-Z0-9_. -]{1,12}".prop_map(Value::Varchar),
            ],
            1..4,
        ),
    ) {
        let cols: Vec<String> = (0..keys.len()).map(|i| format!("k{i}")).collect();
        let spec = format!("'{prefix}'::{}", cols.join("::"));
        let def = IdDef::parse(&spec).unwrap();
        prop_assert_eq!(def.prefix(), Some(prefix.as_str()));

        let id = def.encode(&keys).unwrap();
        prop_assert!(matches!(id, ElementId::Str(_)), "prefixed ids are textual");
        let decoded = def.decode(&id).expect("own encoding must decode");
        prop_assert_eq!(decoded.len(), keys.len());
        for (text, value) in decoded.iter().zip(&keys) {
            // Lossless: the decoded text is exactly the value's rendering,
            // so coercing by the column's type recovers the original.
            prop_assert_eq!(text.clone(), value.to_string());
            match value {
                Value::Bigint(v) => {
                    prop_assert_eq!(IdDef::coerce(text, DataType::Bigint).unwrap(), Value::Bigint(*v))
                }
                Value::Varchar(s) => {
                    prop_assert_eq!(IdDef::coerce(text, DataType::Varchar).unwrap(), Value::Varchar(s.clone()))
                }
                _ => unreachable!(),
            }
        }

        // Without the prefix, a single BIGINT key stays a numeric id.
        let bare = IdDef::parse("k0").unwrap();
        if let [Value::Bigint(v)] = keys.as_slice() {
            let id = bare.encode(&keys[..1]).unwrap();
            prop_assert_eq!(&id, &ElementId::Long(*v));
            prop_assert_eq!(bare.decode(&id).unwrap(), vec![v.to_string()]);
        }
    }

    #[test]
    fn prefixed_ids_never_decode_under_other_prefix(a in "[a-z]{1,6}", b in "[a-z]{1,6}", v in 1i64..100000) {
        prop_assume!(a != b);
        let da = IdDef::parse(&format!("'{a}'::c")).unwrap();
        let db_ = IdDef::parse(&format!("'{b}'::c")).unwrap();
        let id = da.encode(&[Value::Bigint(v)]).unwrap();
        prop_assert!(db_.decode(&id).is_none());
    }

    #[test]
    fn implicit_edge_id_splits_on_label(src in 1i64..10000, dst in 1i64..10000, label in "[a-zA-Z]{1,10}") {
        use db2graph::core::{implicit_edge_id, split_implicit_edge_id};
        let id = implicit_edge_id(&ElementId::Long(src), &label, &ElementId::Long(dst));
        let (s, d) = split_implicit_edge_id(&id, &label).expect("splits on its own label");
        prop_assert_eq!(s, src.to_string());
        prop_assert_eq!(d, dst.to_string());
    }
}

// ----------------------------------------------------- index equivalence

/// `COUNT(*)` and `SUM(v)` over the `(k, v)` rows that satisfy `keep`,
/// computed in Rust (`None` is SQL NULL).
fn count_and_sum(
    rows: &[(Option<i64>, Option<i64>)],
    keep: impl Fn(Option<i64>) -> bool,
) -> Vec<Value> {
    let kept: Vec<_> = rows.iter().filter(|(k, _)| keep(*k)).collect();
    let vs: Vec<i64> = kept.iter().filter_map(|(_, v)| *v).collect();
    let sum = if vs.is_empty() { Value::Null } else { Value::Bigint(vs.iter().sum()) };
    vec![Value::Bigint(kept.len() as i64), sum]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn index_probe_equals_full_scan(
        rows in prop::collection::vec((0i64..44, 0i64..44), 1..60),
        probe in 0i64..40,
        bump_below in 0i64..40,
        limit in 0u64..6,
    ) {
        // Two identical tables, one indexed on `k`, one not: every query
        // must return identical multisets. Generated values of 40 and up
        // are NULL.
        let rows: Vec<(Option<i64>, Option<i64>)> =
            rows.iter().map(|&(k, v)| ((k < 40).then_some(k), (v < 40).then_some(v))).collect();
        let sql = |x: Option<i64>| x.map_or("NULL".to_string(), |x| x.to_string());
        let db = Database::new();
        db.execute("CREATE TABLE with_ix (k BIGINT, v BIGINT)").unwrap();
        db.execute("CREATE TABLE no_ix (k BIGINT, v BIGINT)").unwrap();
        db.execute("CREATE INDEX ix_k ON with_ix (k)").unwrap();
        for (k, v) in &rows {
            db.execute(&format!("INSERT INTO with_ix VALUES ({}, {})", sql(*k), sql(*v))).unwrap();
            db.execute(&format!("INSERT INTO no_ix VALUES ({}, {})", sql(*k), sql(*v))).unwrap();
        }
        // Move some rows to the next key: the index keeps a stale posting
        // under each old key, which a probe must not return.
        for t in ["with_ix", "no_ix"] {
            db.execute(&format!("UPDATE {t} SET k = k + 1 WHERE v < {bump_below}")).unwrap();
        }
        let rows: Vec<(Option<i64>, Option<i64>)> = rows
            .into_iter()
            .map(|(k, v)| match v {
                Some(v) if v < bump_below => (k.map(|k| k + 1), Some(v)),
                _ => (k, v),
            })
            .collect();

        let p = probe;
        let long: Vec<String> = (p..p + 6).map(|x| x.to_string()).collect();
        let long = long.join(", ");
        let mut queries = vec![
            format!("SELECT k, v FROM {{}} WHERE k = {p} ORDER BY k, v"),
            format!("SELECT k, v FROM {{}} WHERE k IN ({p}, {}) ORDER BY k, v", p + 1),
            format!("SELECT k, v FROM {{}} WHERE k > {p} ORDER BY k, v"),
            format!("SELECT k, v FROM {{}} WHERE k >= {p} AND k < {} ORDER BY k, v", p + 5),
            "SELECT COUNT(*) FROM {}".to_string(),
            // IN lists: duplicates, NULL, DOUBLE literals, mixed types, short
            // and long, and their negations. Lists of one non-NULL type are
            // hashed; the others are scanned.
            format!("SELECT k, v FROM {{}} WHERE k IN ({p}, {p}, {}, {p}) ORDER BY k, v", p + 1),
            format!("SELECT k, v FROM {{}} WHERE k IN ({p}, NULL) ORDER BY k, v"),
            format!("SELECT k, v FROM {{}} WHERE k IN ({p}.0) ORDER BY k, v"),
            format!("SELECT k, v FROM {{}} WHERE k IN ({long}, {long}) ORDER BY k, v"),
            format!("SELECT k, v FROM {{}} WHERE k IN ({long}, NULL) ORDER BY k, v"),
            format!("SELECT k, v FROM {{}} WHERE k IN ({long}, {p}.0) ORDER BY k, v"),
            format!("SELECT k, v FROM {{}} WHERE k IN ({p}.0, {}.0, {}.0, {}.0) ORDER BY k, v", p + 1, p + 2, p + 3),
            format!("SELECT k, v FROM {{}} WHERE k NOT IN ({p}, {}) ORDER BY k, v", p + 1),
            format!("SELECT k, v FROM {{}} WHERE k NOT IN ({long}) ORDER BY k, v"),
            format!("SELECT k, v FROM {{}} WHERE k NOT IN ({long}, NULL) ORDER BY k, v"),
            format!("SELECT k, v FROM {{}} WHERE NOT (k IN ({long}, NULL)) ORDER BY k, v"),
            // Grouping and duplicate elimination.
            "SELECT k, COUNT(*), SUM(v) FROM {} GROUP BY k ORDER BY k".to_string(),
            format!("SELECT DISTINCT k FROM {{}} WHERE k >= {p} ORDER BY k"),
            // LIMIT under a sort is exact.
            format!("SELECT k, v FROM {{}} ORDER BY k, v LIMIT {limit}"),
            format!("SELECT k, v FROM {{}} WHERE k >= {p} ORDER BY v DESC, k LIMIT {limit}"),
        ];
        for filter in ["", &format!(" WHERE k = {p}"), &format!(" WHERE k IN ({long})")] {
            queries.push(format!(
                "SELECT COUNT(*), COUNT(v), SUM(v), MIN(v), MAX(v), AVG(v) FROM {{}}{filter}"
            ));
        }
        for query in &queries {
            let a = db.execute(&query.replace("{}", "with_ix")).unwrap();
            let b = db.execute(&query.replace("{}", "no_ix")).unwrap();
            prop_assert_eq!(a.rows, b.rows, "query {} differs", query);
        }

        // LIMIT without a sort may pick any rows, but as many of them.
        for filter in ["", &format!(" WHERE k = {p}"), &format!(" WHERE k IN ({long})")] {
            let query = format!("SELECT k, v FROM {{}}{filter} LIMIT {limit}");
            let all = db.execute(&format!("SELECT COUNT(*) FROM no_ix{filter}")).unwrap();
            let expect = all.scalar().unwrap().as_i64().unwrap().min(limit as i64) as usize;
            for t in ["with_ix", "no_ix"] {
                let got = db.execute(&query.replace("{}", t)).unwrap().rows.len();
                prop_assert_eq!(got, expect, "{} on {}", query, t);
            }
        }

        // A Rust oracle, so the two tables cannot be wrong together.
        let in_long = |k: Option<i64>| k.is_some_and(|k| (p..p + 6).contains(&k));
        let oracle = [
            ("".to_string(), count_and_sum(&rows, |_| true)),
            (format!(" WHERE k = {p}"), count_and_sum(&rows, |k| k == Some(p))),
            (format!(" WHERE k IN ({long})"), count_and_sum(&rows, in_long)),
            (format!(" WHERE k NOT IN ({long})"), count_and_sum(&rows, |k| k.is_some() && !in_long(k))),
            (format!(" WHERE k NOT IN ({long}, NULL)"), count_and_sum(&rows, |_| false)),
        ];
        for (filter, expect) in oracle {
            for t in ["with_ix", "no_ix"] {
                let query = format!("SELECT COUNT(*), SUM(v) FROM {t}{filter}");
                let got = db.execute(&query).unwrap().rows;
                prop_assert_eq!(&got, &vec![expect.clone()], "{}", query);
            }
        }

        // And the indexed one actually used the index for the point query.
        let plan = db.explain(&format!("SELECT * FROM with_ix WHERE k = {probe}")).unwrap();
        prop_assert!(plan.contains("INDEX"), "{}", plan);
    }
}

/// One IN-list parameter as the overlay binds it: mostly BIGINT keys, some
/// DOUBLEs that equal a key, some that equal none, and NULL.
fn arb_in_param() -> impl Strategy<Value = Value> {
    (0u8..10, 0i64..90).prop_map(|(kind, x)| match kind {
        0..=5 => Value::Bigint(x),
        6 | 7 => Value::Double(x as f64),
        8 => Value::Double(x as f64 + 0.5),
        _ => Value::Null,
    })
}

/// `rows` sorted, so results compare as multisets.
fn multiset(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
    rows.sort();
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn in_list_probe_equals_full_scan(
        keys in prop::collection::vec(0i64..45, 1..60),
        vs in prop::collection::vec(0i64..44, 60..61),
        list in prop::collection::vec(arb_in_param(), 1..40),
        bump_below in 0i64..40,
    ) {
        // Bound IN-lists through prepared statements, as the overlay sends
        // them, on a PRIMARY KEY table (single-column index) and on a table
        // with a two-column index, each against an unindexed twin. Keys are
        // even, so `k + 1` never collides with another key; the UPDATE
        // leaves a stale posting under each old key. Generated `v` values
        // of 40 and up are NULL.
        let mut keys: Vec<i64> = keys.iter().map(|k| 2 * k).collect();
        keys.sort_unstable();
        keys.dedup();
        let sql = |v: i64| if v < 40 { v.to_string() } else { "NULL".to_string() };
        let db = Database::new();
        db.execute("CREATE TABLE pk_ix (k BIGINT PRIMARY KEY, v BIGINT)").unwrap();
        db.execute("CREATE TABLE pk_scan (k BIGINT, v BIGINT)").unwrap();
        db.execute("CREATE TABLE pair_ix (k BIGINT, j BIGINT, v BIGINT)").unwrap();
        db.execute("CREATE TABLE pair_scan (k BIGINT, j BIGINT, v BIGINT)").unwrap();
        db.execute("CREATE INDEX ix_kj ON pair_ix (k, j)").unwrap();
        for (i, k) in keys.iter().enumerate() {
            let v = sql(vs[i]);
            for t in ["pk_ix", "pk_scan"] {
                db.execute(&format!("INSERT INTO {t} VALUES ({k}, {v})")).unwrap();
            }
            for t in ["pair_ix", "pair_scan"] {
                db.execute(&format!("INSERT INTO {t} VALUES ({k}, {}, {v})", k % 3)).unwrap();
            }
        }
        for t in ["pk_ix", "pk_scan", "pair_ix", "pair_scan"] {
            db.execute(&format!("UPDATE {t} SET k = k + 1 WHERE v < {bump_below}")).unwrap();
        }

        // The list as generated, with a distant duplicate of its first
        // member, padded to a power of two by repeating its last member,
        // as the overlay buckets its lists.
        let mut params = list.clone();
        params.push(list[0].clone());
        let last = params.last().cloned().unwrap();
        params.resize(params.len().next_power_of_two(), last);
        let marks = vec!["?"; params.len()].join(", ");
        let run = |sql: &str, params: &[Value]| {
            let prepared = db.prepare(sql).unwrap();
            multiset(db.execute_prepared(&prepared, params).unwrap().rows)
        };
        let queries = [
            (format!("SELECT k, v FROM {{}} WHERE k IN ({marks})"), params.clone()),
            (format!("SELECT k FROM {{}} WHERE k IN ({marks})"), params.clone()),
            (format!("SELECT k, v FROM {{}} WHERE k IN ({marks}) AND v < ?"), {
                let mut p = params.clone();
                p.push(Value::Bigint(bump_below));
                p
            }),
            (format!("SELECT COUNT(*), SUM(v) FROM {{}} WHERE k IN ({marks})"), params.clone()),
            (format!("SELECT k, v FROM {{}} WHERE k NOT IN ({marks})"), params.clone()),
        ];
        for (query, params) in &queries {
            for (ix, scan) in [("pk_ix", "pk_scan"), ("pair_ix", "pair_scan")] {
                let a = run(&query.replace("{}", ix), params);
                let b = run(&query.replace("{}", scan), params);
                prop_assert_eq!(a, b, "{} on {}", query, ix);
            }
        }
        // The composite index answers full keys, OR-ed as the overlay
        // writes composite ids.
        let pairs = vec!["(k = ? AND j = ?)"; params.len()].join(" OR ");
        let pair_params: Vec<Value> = params
            .iter()
            .flat_map(|p| [p.clone(), Value::Bigint(p.as_i64().unwrap_or(0).rem_euclid(3))])
            .collect();
        for (query, params) in [
            (format!("SELECT k, j, v FROM {{}} WHERE ({pairs})"), pair_params),
            (
                "SELECT k, j, v FROM {} WHERE k = ? AND j = ?".to_string(),
                vec![params[0].clone(), Value::Bigint(1)],
            ),
        ] {
            let a = run(&query.replace("{}", "pair_ix"), &params);
            let b = run(&query.replace("{}", "pair_scan"), &params);
            prop_assert_eq!(a, b, "{}", query);
        }

        // A Rust oracle for the IN-list, so the twins cannot be wrong
        // together: NULL members match nothing, DOUBLEs match equal keys.
        let current: Vec<i64> = keys
            .iter()
            .enumerate()
            .map(|(i, &k)| if vs[i] < bump_below { k + 1 } else { k })
            .collect();
        let listed = |k: i64| params.iter().any(|p| p.as_f64().is_ok_and(|x| x == k as f64));
        let expect = multiset(
            current.iter().filter(|&&k| listed(k)).map(|&k| vec![Value::Bigint(k)]).collect(),
        );
        let sql = format!("SELECT k FROM {{}} WHERE k IN ({marks})");
        for t in ["pk_ix", "pair_ix"] {
            prop_assert_eq!(run(&sql.replace("{}", t), &params), expect.clone(), "{}", t);
        }
        // And the PRIMARY KEY table probed its index for the list.
        let plan = db.explain(&format!("SELECT k FROM pk_ix WHERE k IN ({})", current[0])).unwrap();
        prop_assert!(plan.contains("INDEX"), "{}", plan);
    }
}

/// One join key as a table function returns it: an id, an id the UPDATE
/// below moved, a DOUBLE equal to an id or to none, or NULL.
fn arb_join_key() -> impl Strategy<Value = Value> {
    (0u8..10, 0i64..90).prop_map(|(kind, x)| match kind {
        0..=3 => Value::Bigint(x),
        4 => Value::Bigint(x + 1000),
        5 | 6 => Value::Double(x as f64),
        7 => Value::Double(x as f64 + 0.5),
        _ => Value::Null,
    })
}

/// Register `name` as a table function returning `keys`, one per row.
fn register_keys(db: &Database, name: &str, keys: Vec<Value>) {
    db.register_function(
        name,
        Arc::new(move |_: &[Value], cols: &[(String, DataType)]| -> DbResult<RowSet> {
            let rows = keys.iter().map(|k| vec![k.clone()]).collect();
            Ok(RowSet::with_rows(vec![cols[0].0.clone()], rows))
        }),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn semi_join_reduction_equals_unreduced_join(
        ids in prop::collection::btree_set(0i64..90, 1..60),
        vs in prop::collection::vec(0i64..44, 60..61),
        keys in prop::collection::vec(arb_join_key(), 0..40),
        bump_below in 0i64..40,
        floor in 0i64..40,
    ) {
        // A base table joined to a table function or subquery is read
        // through the other side's join keys. The same statement with the
        // table wrapped as `(SELECT * FROM t) AS n` has no base table in
        // FROM, so it runs the plain hash join over the full table: rows
        // and their order must be equal. `v` values of 40 and up are NULL;
        // the UPDATE moves some ids by 1 000, leaving a stale posting
        // under each old id of the PRIMARY KEY table.
        let db = Database::new();
        db.execute("CREATE TABLE t_pk (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
        db.execute("CREATE TABLE t_scan (id BIGINT, v BIGINT)").unwrap();
        for (i, id) in ids.iter().enumerate() {
            let v = if vs[i] < 40 { vs[i].to_string() } else { "NULL".to_string() };
            for t in ["t_pk", "t_scan"] {
                db.execute(&format!("INSERT INTO {t} VALUES ({id}, {v})")).unwrap();
            }
        }
        for t in ["t_pk", "t_scan"] {
            db.execute(&format!("UPDATE {t} SET id = id + 1000 WHERE v < {bump_below}")).unwrap();
        }
        let bigints: Vec<Value> =
            keys.iter().filter(|k| !matches!(k, Value::Double(_))).cloned().collect();
        let strings: Vec<Value> =
            bigints.iter().map(|k| Value::Varchar(k.to_string())).collect();
        register_keys(&db, "keys_d", keys);
        register_keys(&db, "keys_i", bigints);
        register_keys(&db, "keys_s", strings);
        register_keys(&db, "keys_none", Vec::new());

        let queries = [
            "SELECT n.id, n.v, p.k FROM {n}, TABLE(keys_i()) AS p (k BIGINT) WHERE n.id = p.k"
                .to_string(),
            format!(
                "SELECT n.id, n.v, p.k FROM {{n}}, TABLE(keys_d()) AS p (k DOUBLE) \
                 WHERE n.id = p.k AND n.v > {floor}"
            ),
            format!(
                "SELECT COUNT(*), SUM(n.v) FROM {{n}}, TABLE(keys_i()) AS p (k BIGINT) \
                 WHERE n.id = p.k AND n.v > {floor}"
            ),
            // The function first in FROM.
            "SELECT p.k, n.v FROM TABLE(keys_d()) AS p (k DOUBLE), {n} WHERE p.k = n.id"
                .to_string(),
            "SELECT n.id FROM {n}, TABLE(keys_none()) AS p (k BIGINT) WHERE n.id = p.k"
                .to_string(),
            "SELECT n.id FROM {n}, TABLE(keys_s()) AS p (k VARCHAR) WHERE n.id = p.k".to_string(),
            // A subquery as the other side.
            "SELECT q.k, n.id FROM {n}, (SELECT p.k FROM TABLE(keys_d()) AS p (k DOUBLE)) AS q \
             WHERE q.k = n.id"
                .to_string(),
        ];
        for query in &queries {
            for t in ["t_pk", "t_scan"] {
                let reduced = query.replace("{n}", &format!("{t} AS n"));
                let plain = query.replace("{n}", &format!("(SELECT * FROM {t}) AS n"));
                let plan = db.explain(&reduced).unwrap();
                prop_assert!(plan.contains("join keys of"), "{}\n{}", reduced, plan);
                prop_assert!(!db.explain(&plain).unwrap().contains("join keys of"), "{}", plain);
                let a = db.execute(&reduced).unwrap().rows;
                let b = db.execute(&plain).unwrap().rows;
                prop_assert_eq!(a, b, "{}", reduced);
            }
        }
    }
}

// -------------------------------------------------------------------- LIKE

/// Reference LIKE implementation via dynamic programming.
fn like_oracle(s: &str, p: &str) -> bool {
    let s: Vec<char> = s.chars().collect();
    let p: Vec<char> = p.chars().collect();
    let mut dp = vec![vec![false; p.len() + 1]; s.len() + 1];
    dp[0][0] = true;
    for j in 1..=p.len() {
        dp[0][j] = p[j - 1] == '%' && dp[0][j - 1];
    }
    for i in 1..=s.len() {
        for j in 1..=p.len() {
            dp[i][j] = match p[j - 1] {
                '%' => dp[i][j - 1] || dp[i - 1][j],
                '_' => dp[i - 1][j - 1],
                c => c == s[i - 1] && dp[i - 1][j - 1],
            };
        }
    }
    dp[s.len()][p.len()]
}

proptest! {
    #[test]
    fn like_matches_oracle(s in "[ab%_]{0,8}", p in "[ab%_]{0,6}") {
        prop_assert_eq!(
            db2graph::reldb::like_match(&s, &p),
            like_oracle(&s, &p),
            "s={:?} p={:?}", s, p
        );
    }
}

// ---------------------------------------------- optimizer preservation

#[allow(clippy::type_complexity)]
fn arb_graph_rows() -> impl Strategy<Value = (Vec<(i64, String)>, Vec<(i64, i64, String)>)> {
    let verts = prop::collection::btree_set(0i64..20, 1..12)
        .prop_map(|ids| ids.into_iter().map(|id| (id, format!("t{}", id % 3))).collect::<Vec<_>>());
    verts.prop_flat_map(|vs| {
        let ids: Vec<i64> = vs.iter().map(|(id, _)| *id).collect();
        let edges = prop::collection::btree_set((0..ids.len(), 0..ids.len(), 0usize..2), 0..20)
            .prop_map(move |set| {
                set.into_iter()
                    .map(|(a, b, l)| (ids[a], ids[b], format!("e{l}")))
                    .collect::<Vec<_>>()
            });
        (Just(vs), edges)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn strategies_preserve_semantics((verts, edges) in arb_graph_rows(), probe in 0i64..20) {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE vs (id BIGINT PRIMARY KEY, vlabel VARCHAR, w BIGINT, x BIGINT)")
            .unwrap();
        db.execute("CREATE TABLE es (src BIGINT, dst BIGINT, elabel VARCHAR)").unwrap();
        db.execute("CREATE INDEX ix_src ON es (src)").unwrap();
        db.set_enforce_foreign_keys(false);
        for (id, l) in &verts {
            // `x` is NULL on two vertices in three.
            let x = if id % 3 == 2 { id.to_string() } else { "NULL".to_string() };
            db.execute(&format!("INSERT INTO vs VALUES ({id}, '{l}', {}, {x})", id * 2)).unwrap();
        }
        for (s, d, l) in &edges {
            db.execute(&format!("INSERT INTO es VALUES ({s}, {d}, '{l}')")).unwrap();
        }
        let cfg = db2graph::core::OverlayConfig {
            v_tables: vec![db2graph::core::VTableConfig {
                table_name: "vs".into(),
                prefixed_id: false,
                id: "id".into(),
                fix_label: false,
                label: "vlabel".into(),
                properties: Some(vec!["w".into(), "x".into()]),
            }],
            e_tables: vec![db2graph::core::ETableConfig {
                table_name: "es".into(),
                src_v_table: Some("vs".into()),
                src_v: "src".into(),
                dst_v_table: Some("vs".into()),
                dst_v: "dst".into(),
                prefixed_edge_id: false,
                implicit_edge_id: true,
                id: None,
                fix_label: true,
                label: "'link'".into(),
                properties: Some(vec!["elabel".into()]),
            }],
        };
        let g_on = Db2Graph::open(db.clone(), &cfg).unwrap();
        let g_off = Db2Graph::open_with_options(
            db.clone(),
            &cfg,
            GraphOptions { strategies: StrategyConfig::none(), ..Default::default() },
        )
        .unwrap();
        let queries = [
            format!("g.V({probe}).outE('link').count()"),
            format!("g.V({probe}).out('link').values('w')"),
            "g.V().hasLabel('t1').count()".to_string(),
            format!("g.V().has('w', gte({probe})).count()"),
            format!("g.V({probe}).outE('link').filter(inV().id() == {})", (probe + 1) % 20),
            "g.V().values('w').sum()".to_string(),
            format!("g.V({probe}).in('link').dedup().count()"),
        ];
        for q in &queries {
            let mut a = g_on.run(q).unwrap();
            let mut b = g_off.run(q).unwrap();
            let key = |v: &GValue| v.to_string();
            a.sort_by_key(key);
            b.sort_by_key(key);
            prop_assert_eq!(a, b, "query {} differs under strategies", q);
        }

        // A limit or range right after a GraphStep becomes a per-table SQL
        // LIMIT on exact plans; each table returns a prefix of its rows, so
        // the answer is the same sequence, compared unsorted.
        let mut queries = vec![
            "g.V().limit(-1)".to_string(),
            "g.V().range(0, -1)".to_string(),
            // A NULL `x` yields no value, so values() must not be bounded.
            "g.V().values('x').limit(1)".to_string(),
        ];
        for n in [0, 1, 3, 17] {
            queries.extend([
                format!("g.V().limit({n})"),
                format!("g.E().limit({n})"),
                format!("g.V().has('w', gte({probe})).limit({n})"),
                format!("g.V().has('x', gte({probe})).limit({n})"),
                // An id range is an inexact plan: no LIMIT.
                format!("g.V().has('id', gt({probe})).limit({n})"),
                format!("g.V().dedup().limit({n})"),
                format!("g.V().order().by('w').limit({n})"),
            ]);
        }
        for (lo, hi) in [(0, 1), (1, 3), (2, 17), (5, 9), (12, 15), (5, 2), (3, 0)] {
            queries.push(format!("g.V().hasLabel('t1').range({lo}, {hi})"));
        }
        for q in &queries {
            let a = g_on.run(q).unwrap();
            let b = g_off.run(q).unwrap();
            prop_assert_eq!(a, b, "query {} differs under strategies", q);
        }
        let sql = |q: &str| g_on.explain_report(q).unwrap().sql_statements().join("; ");
        let bounded = sql("g.V().limit(3)");
        prop_assert!(bounded.ends_with(" LIMIT 4"), "{}", bounded);
        let inexact = sql(&format!("g.V().has('id', gt({probe})).limit(3)"));
        prop_assert!(!inexact.contains("LIMIT"), "{}", inexact);
    }
}

// -------------------------------------------------------------- AutoOverlay

fn arb_schemas() -> impl Strategy<Value = Vec<TableSchema>> {
    // Between 1 and 4 vertex tables, plus up to 3 link tables referencing
    // random vertex tables.
    (1usize..4, 0usize..4).prop_map(|(nv, nl)| {
        let mut out = Vec::new();
        for i in 0..nv {
            out.push(
                TableSchema::new(
                    format!("V{i}"),
                    vec![
                        ColumnDef::new("id", DataType::Bigint).not_null(),
                        ColumnDef::new("payload", DataType::Varchar),
                    ],
                )
                .with_primary_key(vec!["id"]),
            );
        }
        for j in 0..nl {
            let a = j % nv;
            let b = (j + 1) % nv;
            out.push(
                TableSchema::new(
                    format!("L{j}"),
                    vec![
                        ColumnDef::new("a", DataType::Bigint),
                        ColumnDef::new("b", DataType::Bigint),
                        ColumnDef::new("note", DataType::Varchar),
                    ],
                )
                .with_foreign_key(vec!["a"], &format!("V{a}"), vec!["id"])
                .with_foreign_key(vec!["b"], &format!("V{b}"), vec!["id"]),
            );
        }
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    #[test]
    fn auto_overlay_always_produces_valid_configs(schemas in arb_schemas()) {
        let config = generate_overlay(&schemas).unwrap();
        config.validate_shape().unwrap();
        // Every vertex table has a prefixed id and a fixed label.
        for v in &config.v_tables {
            prop_assert!(v.prefixed_id);
            prop_assert!(v.fix_label);
            prop_assert!(v.id.starts_with('\''));
        }
        // Every edge table uses implicit ids and has both endpoint defs.
        for e in &config.e_tables {
            prop_assert!(e.implicit_edge_id);
            prop_assert!(e.id.is_none());
            prop_assert!(!e.src_v.is_empty() && !e.dst_v.is_empty());
        }
        // And the config actually resolves against a database with those
        // tables.
        let db = Arc::new(Database::new());
        for s in &schemas {
            // Create in dependency order: vertex tables first.
            if s.has_primary_key() {
                db.create_table(s.clone()).unwrap();
            }
        }
        for s in &schemas {
            if !s.has_primary_key() {
                db.create_table(s.clone()).unwrap();
            }
        }
        let topo = db2graph::core::Topology::resolve(&db, &config);
        prop_assert!(topo.is_ok(), "{:?}", topo.err());
    }
}

// --------------------------------------------------------- gremlin parser

proptest! {
    #[test]
    fn parser_accepts_generated_chains(
        id in 0i64..100,
        label in "[a-z]{1,6}",
        key in "[a-z]{1,6}",
        n in 1u32..5,
    ) {
        let script = format!(
            "g.V({id}).hasLabel('{label}').out('{label}').has('{key}', gt({id})).repeat(out('{label}').dedup()).times({n}).values('{key}')"
        );
        let parsed = db2graph::gremlin::parser::parse(&script);
        prop_assert!(parsed.is_ok(), "{:?}", parsed.err());
        let stmt = &parsed.unwrap().statements[0];
        prop_assert_eq!(stmt.traversal.start.name.as_str(), "V");
    }

    #[test]
    fn parser_rejects_truncations(cut in 3usize..30) {
        let script = "g.V(1).out('x').has('k', 5).dedup().count()";
        if cut < script.len() {
            let truncated = &script[..cut];
            // Truncated scripts either parse to a prefix (when cut lands on
            // a step boundary) or error — they never panic.
            let _ = db2graph::gremlin::parser::parse(truncated);
        }
    }
}

// ------------------------------------------- overlay vs in-memory oracle

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn overlay_matches_memory_oracle((verts, edges) in arb_graph_rows(), probe in 0i64..20) {
        use db2graph::gremlin::memgraph::MemGraph;
        use db2graph::gremlin::{ScriptRunner, Vertex, Edge, IdentityRemoval, StrategyRegistry};

        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE vs (id BIGINT PRIMARY KEY, vlabel VARCHAR, w BIGINT)").unwrap();
        db.execute("CREATE TABLE es (src BIGINT, dst BIGINT, elabel VARCHAR)").unwrap();
        db.execute("CREATE INDEX ix_src ON es (src)").unwrap();
        db.execute("CREATE INDEX ix_dst ON es (dst)").unwrap();
        db.set_enforce_foreign_keys(false);
        let mem = MemGraph::new();
        for (id, l) in &verts {
            db.execute(&format!("INSERT INTO vs VALUES ({id}, '{l}', {})", id * 2)).unwrap();
            let mut v = Vertex::new(*id, l.as_str());
            v.properties.insert("vlabel".into(), GValue::Str(l.clone()));
            v.properties.insert("w".into(), GValue::Long(id * 2));
            mem.add_vertex(v);
        }
        for (s, d, l) in &edges {
            db.execute(&format!("INSERT INTO es VALUES ({s}, {d}, '{l}')")).unwrap();
            // The edge label comes from the elabel column, so the implicit
            // (src, label, dst) id is unique per generated triple.
            mem.add_edge(Edge::new(format!("{s}::{l}::{d}"), l.as_str(), *s, *d));
        }
        let cfg = db2graph::core::OverlayConfig {
            v_tables: vec![db2graph::core::VTableConfig {
                table_name: "vs".into(),
                prefixed_id: false,
                id: "id".into(),
                fix_label: false,
                label: "vlabel".into(),
                properties: Some(vec!["vlabel".into(), "w".into()]),
            }],
            e_tables: vec![db2graph::core::ETableConfig {
                table_name: "es".into(),
                src_v_table: Some("vs".into()),
                src_v: "src".into(),
                dst_v_table: Some("vs".into()),
                dst_v: "dst".into(),
                prefixed_edge_id: false,
                implicit_edge_id: true,
                id: None,
                fix_label: false,
                label: "elabel".into(),
                properties: Some(vec![]),
            }],
        };
        let overlay = Db2Graph::open(db, &cfg).unwrap();
        let mut reg = StrategyRegistry::new();
        reg.add(std::sync::Arc::new(IdentityRemoval));
        for s in StrategyConfig::default().build() {
            reg.add(s);
        }
        let oracle = ScriptRunner::new(&mem).with_strategies(reg);

        let queries = [
            "g.V().count()".to_string(),
            "g.E().count()".to_string(),
            format!("g.V({probe}).out('e0').id()"),
            format!("g.V({probe}).in('e0').id()"),
            format!("g.V({probe}).both('e0', 'e1').id()"),
            format!("g.V({probe}).outE('e1').count()"),
            format!("g.V({probe}).outE().hasLabel('e1').count()"),
            "g.V().hasLabel('t1').values('w').sum()".to_string(),
            format!("g.V({probe}).repeat(out('e0').dedup()).times(2).dedup().id()"),
            format!("g.V({probe}).bothE().otherV().dedup().count()"),
            "g.V().has('w', gte(10)).count()".to_string(),
            format!("g.V({probe}).where(__.out('e1')).id()"),
            "g.V().groupCount().by('vlabel')".to_string(),
        ];
        for q in &queries {
            let norm = |vs: Vec<GValue>| -> Vec<String> {
                let mut out: Vec<String> = vs
                    .iter()
                    .map(|v| match v {
                        GValue::Vertex(vx) => format!("v[{}]", vx.id),
                        GValue::Edge(e) => format!("e[{}->{}]", e.src, e.dst),
                        other => other.to_string(),
                    })
                    .collect();
                out.sort();
                out
            };
            let a = norm(overlay.run(q).unwrap());
            let b = norm(oracle.run(q).unwrap());
            prop_assert_eq!(a, b, "query {} diverges from oracle", q);
        }
    }
}
