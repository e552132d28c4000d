//! The Section 7 law-enforcement scenario: a police-department dataset
//! with persons, organizations, arrests, vehicles, phones, and addresses —
//! all overlaid as one property graph with AutoOverlay-style multi-type
//! vertices, queried with path traversals starting from a single vertex.
//!
//! Run with: `cargo run --example law_enforcement`

use std::sync::Arc;

use db2graph::core::{auto_overlay, Db2Graph};
use db2graph::reldb::Database;

fn main() {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Person (personID BIGINT PRIMARY KEY, name VARCHAR, role VARCHAR);
         CREATE TABLE Organization (orgID BIGINT PRIMARY KEY, orgName VARCHAR, orgType VARCHAR);
         CREATE TABLE Arrest (arrestID BIGINT PRIMARY KEY, charge VARCHAR, day BIGINT);
         CREATE TABLE Phone (phoneID BIGINT PRIMARY KEY, number VARCHAR);
         CREATE TABLE Address (addressID BIGINT PRIMARY KEY, street VARCHAR, city VARCHAR);
         -- link tables (no PKs, pairs of FKs -> AutoOverlay edge tables)
         CREATE TABLE ArrestedIn (personID BIGINT, arrestID BIGINT, roleInArrest VARCHAR,
            FOREIGN KEY (personID) REFERENCES Person(personID),
            FOREIGN KEY (arrestID) REFERENCES Arrest(arrestID));
         CREATE TABLE MemberOf (personID BIGINT, orgID BIGINT, since BIGINT,
            FOREIGN KEY (personID) REFERENCES Person(personID),
            FOREIGN KEY (orgID) REFERENCES Organization(orgID));
         CREATE TABLE UsesPhone (personID BIGINT, phoneID BIGINT,
            FOREIGN KEY (personID) REFERENCES Person(personID),
            FOREIGN KEY (phoneID) REFERENCES Phone(phoneID));
         CREATE TABLE LivesAt (personID BIGINT, addressID BIGINT,
            FOREIGN KEY (personID) REFERENCES Person(personID),
            FOREIGN KEY (addressID) REFERENCES Address(addressID));
         INSERT INTO Person VALUES
            (1, 'R. Malone', 'suspect'), (2, 'S. Vann', 'suspect'),
            (3, 'T. Webb', 'witness'), (4, 'U. Cole', 'suspect');
         INSERT INTO Organization VALUES
            (100, 'Eastside Crew', 'gang'), (101, 'Harbor Imports LLC', 'legitimate');
         INSERT INTO Arrest VALUES (500, 'burglary', 120), (501, 'fraud', 130);
         INSERT INTO Phone VALUES (900, '555-0101'), (901, '555-0102'), (902, '555-0103');
         INSERT INTO Address VALUES (800, '12 Dock Rd', 'Harborton'), (801, '77 Hill St', 'Harborton');
         INSERT INTO ArrestedIn VALUES
            (1, 500, 'suspect'), (2, 500, 'suspect'), (3, 500, 'witness'), (4, 501, 'suspect');
         INSERT INTO MemberOf VALUES (1, 100, 2018), (2, 100, 2020), (4, 101, 2015);
         INSERT INTO UsesPhone VALUES (1, 900), (2, 901), (4, 902);
         INSERT INTO LivesAt VALUES (1, 800), (2, 801), (4, 800);",
    )
    .expect("schema + data");

    // AutoOverlay (Algorithms 1 & 2): derive the whole graph overlay from
    // primary/foreign-key metadata — 5 vertex tables, 4 edge tables.
    let config = auto_overlay(&db, None).expect("auto overlay");
    println!("== AutoOverlay-generated configuration ==");
    println!("  {} vertex tables, {} edge tables", config.v_tables.len(), config.e_tables.len());
    for e in &config.e_tables {
        println!(
            "    edge {:12} {} -> {} (label {})",
            e.table_name,
            e.src_v.split(':').next().unwrap_or(""),
            e.dst_v.split(':').next().unwrap_or(""),
            e.label
        );
    }

    let graph = Db2Graph::open(db.clone(), &config).expect("overlay");

    // Case study 1: phone numbers and addresses of the suspects in arrest
    // 500 (a path query from a single vertex, as in Section 7).
    println!("\n== Case study: arrest 500 ==");
    let q = "g.V('arrest::500').in('Person_ArrestedIn_Arrest')\
        .has('role', 'suspect').as('p')\
        .out('Person_UsesPhone_Phone').values('number')";
    let phones = graph.run(q).expect("phones");
    println!(
        "suspect phone numbers: {:?}",
        phones.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );
    let q = "g.V('arrest::500').in('Person_ArrestedIn_Arrest')\
        .has('role', 'suspect')\
        .out('Person_LivesAt_Address').dedup().values('street')";
    let addrs = graph.run(q).expect("addresses");
    println!("suspect addresses: {:?}", addrs.iter().map(|v| v.to_string()).collect::<Vec<_>>());

    // Case study 2: do all suspects of arrest 500 belong to one criminal
    // organization?
    let q = "g.V('arrest::500').in('Person_ArrestedIn_Arrest')\
        .has('role', 'suspect')\
        .out('Person_MemberOf_Organization')\
        .has('orgType', 'gang').dedup().values('orgName')";
    let orgs = graph.run(q).expect("orgs");
    println!(
        "criminal organizations of all suspects: {:?}",
        orgs.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );

    // Case study 3: who shares an address with a gang member?
    let q = "g.V().hasLabel('Organization').has('orgType', 'gang')\
        .in('Person_MemberOf_Organization')\
        .out('Person_LivesAt_Address')\
        .in('Person_LivesAt_Address').dedup().values('name')";
    let cohab = graph.run(q).expect("cohabitants");
    println!(
        "people sharing addresses with gang members: {:?}",
        cohab.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );

    // The dataset is updated in real time; graph queries always see the
    // latest data (the reason a standalone graph DB didn't fit, per the
    // paper).
    db.execute("INSERT INTO UsesPhone VALUES (2, 902)").unwrap();
    let phones = graph
        .run("g.V('arrest::500').in('Person_ArrestedIn_Arrest').has('role','suspect').out('Person_UsesPhone_Phone').dedup().values('number')")
        .expect("phones after update");
    println!(
        "\nafter a live update, suspect phones now: {:?}",
        phones.iter().map(|v| v.to_string()).collect::<Vec<_>>()
    );
}
