//! Feature tests beyond the core benchmarks: multiple overlays on the same
//! tables, temporal "as of" graphs through views, and the long tail of
//! Gremlin steps running against the SQL overlay backend.

use std::sync::Arc;

use db2graph::core::{Db2Graph, ETableConfig, OverlayConfig, VTableConfig};
use db2graph::gremlin::GValue;
use db2graph::reldb::Database;

fn flights_db() -> Arc<Database> {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE City (code VARCHAR PRIMARY KEY, cname VARCHAR, country VARCHAR);
         CREATE TABLE Flight (fid BIGINT PRIMARY KEY, orig VARCHAR, dest VARCHAR,
                              price DOUBLE, validFrom BIGINT, validTo BIGINT,
            FOREIGN KEY (orig) REFERENCES City(code),
            FOREIGN KEY (dest) REFERENCES City(code));
         CREATE INDEX ix_flight_orig ON Flight (orig);
         CREATE INDEX ix_flight_dest ON Flight (dest);
         INSERT INTO City VALUES
            ('ZRH', 'Zurich', 'CH'), ('OSL', 'Oslo', 'NO'),
            ('NRT', 'Tokyo', 'JP'), ('GIG', 'Rio', 'BR');
         -- validity windows make the graph temporal
         INSERT INTO Flight VALUES
            (1, 'ZRH', 'OSL', 120.0, 0, 100),
            (2, 'OSL', 'NRT', 700.0, 0, 50),
            (3, 'ZRH', 'NRT', 900.0, 50, 200),
            (4, 'NRT', 'GIG', 1100.0, 0, 200);",
    )
    .unwrap();
    db
}

fn city_vtable() -> VTableConfig {
    VTableConfig {
        table_name: "City".into(),
        prefixed_id: false,
        id: "code".into(),
        fix_label: true,
        label: "'city'".into(),
        properties: Some(vec!["cname".into(), "country".into()]),
    }
}

fn flight_etable(table: &str) -> ETableConfig {
    ETableConfig {
        table_name: table.into(),
        src_v_table: Some("City".into()),
        src_v: "orig".into(),
        dst_v_table: Some("City".into()),
        dst_v: "dest".into(),
        prefixed_edge_id: true,
        implicit_edge_id: false,
        id: Some("'f'::fid".into()),
        fix_label: true,
        label: "'flight'".into(),
        properties: Some(vec!["price".into()]),
    }
}

#[test]
fn string_vertex_ids_work_end_to_end() {
    let db = flights_db();
    let cfg =
        OverlayConfig { v_tables: vec![city_vtable()], e_tables: vec![flight_etable("Flight")] };
    let g = Db2Graph::open(db, &cfg).unwrap();
    let out = g.run("g.V('ZRH').out('flight').values('cname').order()").unwrap();
    assert_eq!(out, vec![GValue::Str("Oslo".into()), GValue::Str("Tokyo".into())]);
    let out = g.run("g.E('f::2').inV().values('country')").unwrap();
    assert_eq!(out, vec![GValue::Str("JP".into())]);
}

#[test]
fn two_overlays_on_the_same_tables() {
    // One set of tables, two different graphs: the full network and a
    // budget network (price-capped via a view) — the paper's "one can
    // create multiple overlay configuration files on the same set of
    // tables, so that they can be queried as different graphs".
    let db = flights_db();
    db.execute(
        "CREATE VIEW CheapFlight AS \
         SELECT fid, orig, dest, price, validFrom, validTo FROM Flight WHERE price < 800",
    )
    .unwrap();
    let full = Db2Graph::open(
        db.clone(),
        &OverlayConfig { v_tables: vec![city_vtable()], e_tables: vec![flight_etable("Flight")] },
    )
    .unwrap();
    let budget = Db2Graph::open(
        db.clone(),
        &OverlayConfig {
            v_tables: vec![city_vtable()],
            e_tables: vec![flight_etable("CheapFlight")],
        },
    )
    .unwrap();
    assert_eq!(full.run("g.E().count()").unwrap(), vec![GValue::Long(4)]);
    assert_eq!(budget.run("g.E().count()").unwrap(), vec![GValue::Long(2)]);
    // Tokyo unreachable from Zurich on the budget graph in one hop that
    // exists on the full graph.
    assert_eq!(
        full.run("g.V('ZRH').out('flight').hasId('NRT').count()").unwrap(),
        vec![GValue::Long(1)]
    );
    assert_eq!(
        budget.run("g.V('ZRH').out('flight').hasId('NRT').count()").unwrap(),
        vec![GValue::Long(0)]
    );
}

#[test]
fn temporal_as_of_graphs_via_views() {
    // The paper: "The temporal support in Db2 allows all of our graphs to
    // be temporal as well. For example, one can view a graph 'as of'
    // different time snapshots." Model: validity-windowed rows + one view
    // per snapshot.
    let db = flights_db();
    for t in [25, 75] {
        db.execute(&format!(
            "CREATE VIEW FlightAsOf{t} AS \
             SELECT fid, orig, dest, price, validFrom, validTo FROM Flight \
             WHERE validFrom <= {t} AND validTo > {t}"
        ))
        .unwrap();
    }
    let at25 = Db2Graph::open(
        db.clone(),
        &OverlayConfig {
            v_tables: vec![city_vtable()],
            e_tables: vec![flight_etable("FlightAsOf25")],
        },
    )
    .unwrap();
    let at75 = Db2Graph::open(
        db.clone(),
        &OverlayConfig {
            v_tables: vec![city_vtable()],
            e_tables: vec![flight_etable("FlightAsOf75")],
        },
    )
    .unwrap();
    // At t=25 the OSL->NRT leg exists, the direct ZRH->NRT doesn't.
    let via = at25.run("g.V('ZRH').out('flight').out('flight').hasId('NRT').count()").unwrap();
    assert_eq!(via, vec![GValue::Long(1)]);
    let direct = at25.run("g.V('ZRH').out('flight').hasId('NRT').count()").unwrap();
    assert_eq!(direct, vec![GValue::Long(0)]);
    // At t=75 it's the other way around.
    let via = at75.run("g.V('ZRH').out('flight').out('flight').hasId('NRT').count()").unwrap();
    assert_eq!(via, vec![GValue::Long(0)]);
    let direct = at75.run("g.V('ZRH').out('flight').hasId('NRT').count()").unwrap();
    assert_eq!(direct, vec![GValue::Long(1)]);
}

#[test]
fn long_tail_gremlin_steps_on_the_overlay() {
    let db = flights_db();
    let cfg =
        OverlayConfig { v_tables: vec![city_vtable()], e_tables: vec![flight_etable("Flight")] };
    let g = Db2Graph::open(db, &cfg).unwrap();

    // union of out and in neighbourhoods.
    let mut out = g.run("g.V('NRT').union(out('flight'), in('flight')).values('cname')").unwrap();
    out.sort();
    assert_eq!(
        out,
        vec![GValue::Str("Oslo".into()), GValue::Str("Rio".into()), GValue::Str("Zurich".into())]
    );
    // as/select across a hop.
    let out = g
        .run("g.V('ZRH').as('from').out('flight').as('to').select('from').dedup().values('cname')")
        .unwrap();
    assert_eq!(out, vec![GValue::Str("Zurich".into())]);
    // path over two hops, each starting at the start vertex.
    let out = g.run("g.V('ZRH').out('flight').out('flight').path()").unwrap();
    assert!(!out.is_empty());
    for p in &out {
        match p {
            GValue::Path(steps) => {
                assert_eq!(steps.len(), 3);
                assert!(matches!(&steps[0], GValue::Vertex(v) if v.id.to_string() == "ZRH"), "{p}");
            }
            other => panic!("{other:?}"),
        }
    }
    // valueMap with multiple keys on edges.
    let out = g.run("g.E('f::1').valueMap('price')").unwrap();
    match &out[0] {
        GValue::Map(m) => assert_eq!(m.get("price"), Some(&GValue::Double(120.0))),
        other => panic!("{other:?}"),
    }
    // is() on scalar stream; fold/unfold roundtrip.
    let out = g.run("g.E().values('price').is(gte(900)).count()").unwrap();
    assert_eq!(out, vec![GValue::Long(2)]);
    let out = g.run("g.V().id().fold()").unwrap();
    assert_eq!(out.len(), 1);
    let out = g.run("g.V().id().fold().unfold().count()").unwrap();
    assert_eq!(out, vec![GValue::Long(4)]);
    // where() with a sub-traversal; not().
    let out = g
        .run("g.V().where(__.out('flight').has('country', 'JP')).values('cname').order()")
        .unwrap();
    assert_eq!(out, vec![GValue::Str("Oslo".into()), GValue::Str("Zurich".into())]);
    let out = g.run("g.V().not(out('flight')).values('cname')").unwrap();
    assert_eq!(out, vec![GValue::Str("Rio".into())]);
    // range pagination.
    let out = g.run("g.V().order().by('cname').range(1, 3).values('cname')").unwrap();
    assert_eq!(out, vec![GValue::Str("Rio".into()), GValue::Str("Tokyo".into())]);
    // repeat with until on the overlay.
    let out = g
        .run("g.V('ZRH').repeat(out('flight')).until(hasId('GIG')).dedup().values('cname')")
        .unwrap();
    assert_eq!(out, vec![GValue::Str("Rio".into())]);
    // properties() entries.
    let out = g.run("g.V('ZRH').properties('country')").unwrap();
    match &out[0] {
        GValue::Map(m) => {
            assert_eq!(m.get("key"), Some(&GValue::Str("country".into())));
            assert_eq!(m.get("value"), Some(&GValue::Str("CH".into())));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn graph_query_rows_shaping_variants() {
    use db2graph::reldb::DataType;
    let db = flights_db();
    let cfg =
        OverlayConfig { v_tables: vec![city_vtable()], e_tables: vec![flight_etable("Flight")] };
    let g = Db2Graph::open(db, &cfg).unwrap();
    // Map-shaped results.
    let rs = g
        .query_rows(
            "g.V().valueMap('cname', 'country')",
            &[("cname".into(), DataType::Varchar), ("country".into(), DataType::Varchar)],
        )
        .unwrap();
    assert_eq!(rs.len(), 4);
    assert_eq!(rs.columns, vec!["cname", "country"]);
    // Element-shaped results use property/pseudo-column lookup.
    let rs = g
        .query_rows(
            "g.V().hasLabel('city')",
            &[("id".into(), DataType::Varchar), ("cname".into(), DataType::Varchar)],
        )
        .unwrap();
    assert_eq!(rs.len(), 4);
    assert!(rs.rows.iter().any(|r| r[0] == db2graph::reldb::Value::Varchar("ZRH".into())));
    // Scalar chunking: 4 values into rows of 2 declared columns.
    let rs = g
        .query_rows(
            "g.V().order().by('cname').values('cname')",
            &[("a".into(), DataType::Varchar), ("b".into(), DataType::Varchar)],
        )
        .unwrap();
    assert_eq!(rs.len(), 2);
    // A width mismatch (4 values, 3 columns) errors cleanly.
    let err = g
        .query_rows(
            "g.V().values('cname')",
            &[
                ("a".into(), DataType::Varchar),
                ("b".into(), DataType::Varchar),
                ("c".into(), DataType::Varchar),
            ],
        )
        .unwrap_err();
    assert!(err.to_string().contains("divisible"), "{err}");
}

#[test]
fn deep_traversal_with_emit_collects_every_hop() {
    let db = flights_db();
    let cfg =
        OverlayConfig { v_tables: vec![city_vtable()], e_tables: vec![flight_etable("Flight")] };
    let g = Db2Graph::open(db, &cfg).unwrap();
    let mut out =
        g.run("g.V('ZRH').repeat(out('flight')).emit().times(3).dedup().values('cname')").unwrap();
    out.sort();
    assert_eq!(
        out,
        vec![GValue::Str("Oslo".into()), GValue::Str("Rio".into()), GValue::Str("Tokyo".into())]
    );
}

#[test]
fn has_not_and_coalesce() {
    let db = flights_db();
    // Give one city a nullable extra property via schema evolution: model
    // it with NULLs instead (country NULL for a new city).
    db.execute("INSERT INTO City VALUES ('XXX', 'Nowhere', NULL)").unwrap();
    let cfg =
        OverlayConfig { v_tables: vec![city_vtable()], e_tables: vec![flight_etable("Flight")] };
    let g = Db2Graph::open(db.clone(), &cfg).unwrap();
    // hasNot: the NULL country surfaces as an absent property.
    let out = g.run("g.V().hasNot('country').values('cname')").unwrap();
    assert_eq!(out, vec![GValue::Str("Nowhere".into())]);
    let out = g.run("g.V().hasNot('country').count()").unwrap();
    assert_eq!(out, vec![GValue::Long(1)]);
    // hasNot on a property NO table has matches every vertex.
    let out = g.run("g.V().hasNot('nosuchproperty').count()").unwrap();
    assert_eq!(out, vec![GValue::Long(5)]);
    // coalesce: first non-empty branch wins per traverser. Rio has no
    // outgoing flights, so it falls back to incoming.
    let out = g.run("g.V('GIG').coalesce(out('flight'), in('flight')).values('cname')").unwrap();
    assert_eq!(out, vec![GValue::Str("Tokyo".into())]);
    // A vertex WITH outgoing flights takes the first branch only.
    let out = g.run("g.V('ZRH').coalesce(out('flight'), in('flight')).dedup().count()").unwrap();
    assert_eq!(out, vec![GValue::Long(2)]);
}

#[test]
fn composite_primary_key_vertices() {
    // Vertices identified by a two-column key: id = 'route'::orig::dest.
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Route (orig VARCHAR, dest VARCHAR, miles BIGINT, PRIMARY KEY (orig, dest));
         INSERT INTO Route VALUES ('ZRH', 'OSL', 1010), ('OSL', 'NRT', 5200);",
    )
    .unwrap();
    let cfg = OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "Route".into(),
            prefixed_id: true,
            id: "'route'::orig::dest".into(),
            fix_label: true,
            label: "'route'".into(),
            properties: Some(vec!["miles".into()]),
        }],
        e_tables: vec![],
    };
    let g = Db2Graph::open(db, &cfg).unwrap();
    // Composite id decomposes into conjunctive predicates (orig = ? AND
    // dest = ?) and pins the row.
    let out = g.run("g.V('route::ZRH::OSL').values('miles')").unwrap();
    assert_eq!(out, vec![GValue::Long(1010)]);
    let before = g.metrics();
    g.run("g.V('route::OSL::NRT')").unwrap();
    let d = g.metrics().since(&before);
    assert_eq!(d.sql_statements, 1);
    // Wrong arity or prefix finds nothing.
    assert!(g.run("g.V('route::ZRH')").unwrap().is_empty());
    assert!(g.run("g.V('flight::ZRH::OSL')").unwrap().is_empty());
    assert_eq!(g.run("g.V().count()").unwrap(), vec![GValue::Long(2)]);
}

#[test]
fn group_and_group_count() {
    let db = flights_db();
    let cfg =
        OverlayConfig { v_tables: vec![city_vtable()], e_tables: vec![flight_etable("Flight")] };
    let g = Db2Graph::open(db, &cfg).unwrap();
    // groupCount by country.
    let out = g.run("g.V().groupCount().by('country')").unwrap();
    match &out[0] {
        GValue::Map(m) => {
            assert_eq!(m.len(), 4);
            assert_eq!(m.get("CH"), Some(&GValue::Long(1)));
            assert_eq!(m.get("JP"), Some(&GValue::Long(1)));
        }
        other => panic!("{other:?}"),
    }
    // group collects the elements themselves.
    let out = g.run("g.V().group().by('country')").unwrap();
    match &out[0] {
        GValue::Map(m) => match m.get("NO") {
            Some(GValue::List(items)) => assert_eq!(items.len(), 1),
            other => panic!("{other:?}"),
        },
        other => panic!("{other:?}"),
    }
    // group over scalars groups by value.
    let out = g.run("g.E().values('price').groupCount()").unwrap();
    match &out[0] {
        GValue::Map(m) => assert_eq!(m.len(), 4),
        other => panic!("{other:?}"),
    }
    // destination fan-in per city: hop then groupCount.
    let out = g.run("g.V('ZRH').out('flight').groupCount().by('cname')").unwrap();
    match &out[0] {
        GValue::Map(m) => {
            assert_eq!(m.get("Oslo"), Some(&GValue::Long(1)));
            assert_eq!(m.get("Tokyo"), Some(&GValue::Long(1)));
        }
        other => panic!("{other:?}"),
    }
}
