//! End-to-end log-shipping replication tests: a durable primary server
//! and an in-memory follower, over real sockets.
//!
//! The follower must bootstrap from the primary's checkpoint, tail its
//! WAL across rotations, serve byte-identical reads at the applied
//! epoch, refuse writes with a pointer at the primary, survive its own
//! kill-and-restart, and keep serving (while counting reconnects) when
//! the primary dies. See `docs/REPLICATION.md` for the protocol.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use db2graph::core::json::Json;
use db2graph::core::{healthcare_example_json, Db2Graph, OverlayConfig};
use db2graph::reldb::Database;
use db2graph::server::{http_call, GraphServer, ServerConfig, ServerHandle};

const TIMEOUT: Duration = Duration::from_secs(10);

static DIRS: AtomicUsize = AtomicUsize::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "db2graph-replication-{tag}-{}-{}",
        std::process::id(),
        DIRS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn base_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 16,
        query_timeout: Some(Duration::from_secs(5)),
        read_timeout: Duration::from_secs(2),
        vacuum_interval: Some(Duration::from_millis(50)),
        checkpoint_interval: None,
        sql_endpoint: true,
        ..Default::default()
    }
}

const SCHEMA: &str =
    "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, address VARCHAR, subscriptionID BIGINT);
     CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, conceptName VARCHAR);
     CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR);
     CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR);";

fn overlay() -> OverlayConfig {
    OverlayConfig::from_json(healthcare_example_json()).unwrap()
}

/// A durable primary: schema installed, `n` patients committed, one
/// checkpoint taken (so its WAL no longer starts at sequence zero and a
/// fresh follower *must* go through the checkpoint-bootstrap path).
fn start_primary(dir: &PathBuf, patients: u64) -> (Arc<Database>, ServerHandle) {
    let db = Arc::new(Database::open(dir).unwrap());
    db.execute_script(SCHEMA).unwrap();
    for i in 1..=patients {
        insert_patient(&db, i);
    }
    db.checkpoint().unwrap();
    let graph = Db2Graph::open_with_options(db.clone(), &overlay(), Default::default()).unwrap();
    let handle = GraphServer::start(graph, base_config()).unwrap();
    (db, handle)
}

fn insert_patient(db: &Database, i: u64) {
    db.execute(&format!("INSERT INTO Patient VALUES ({i}, 'P{i}', '{i} Oak St', {i})")).unwrap();
}

/// A follower of `primary`: `open_database` runs the synchronous initial
/// sync, so the overlay reads a populated catalog.
fn start_replica(primary: SocketAddr) -> (Arc<Database>, ServerHandle) {
    let config = ServerConfig {
        replica_of: Some(primary.to_string()),
        replica_poll: Duration::from_millis(20),
        ..base_config()
    };
    let db = config.open_database().unwrap();
    let graph = Db2Graph::open_with_options(db.clone(), &overlay(), Default::default()).unwrap();
    let handle = GraphServer::start(graph, config).unwrap();
    (db, handle)
}

fn patient_count(addr: SocketAddr) -> u64 {
    let r =
        http_call(addr, "POST", "/query", "g.V().hasLabel('patient').count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    Json::parse(&r.body)
        .unwrap()
        .get("result")
        .and_then(|v| v.as_array())
        .and_then(|a| a[0].as_u64())
        .unwrap()
}

fn query_body(addr: SocketAddr, gremlin: &str) -> String {
    let r = http_call(addr, "POST", "/query", gremlin, TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    r.body
}

fn replication_metrics(addr: SocketAddr) -> Json {
    let r = http_call(addr, "GET", "/metrics", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    Json::parse(&r.body).unwrap().get("replication").expect("replication section").clone()
}

fn wait_until(what: &str, f: impl Fn() -> bool) {
    let start = Instant::now();
    while start.elapsed() < Duration::from_secs(15) {
        if f() {
            return;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    panic!("timed out waiting for {what}");
}

/// The tentpole path: bootstrap from the checkpoint, tail the WAL across
/// another rotation, serve byte-identical reads, expose lag, refuse
/// writes.
#[test]
fn replica_bootstraps_tails_and_serves_identical_reads() {
    let dir = temp_dir("tail");
    let (pdb, primary) = start_primary(&dir, 2);
    let paddr = primary.addr();

    // One commit past the checkpoint, shipped by WAL tailing alone.
    insert_patient(&pdb, 3);

    let (_rdb, replica) = start_replica(paddr);
    let raddr = replica.addr();
    assert_eq!(patient_count(raddr), 3, "initial sync caught the post-checkpoint commit");

    // Byte-identical reads on a multi-row traversal.
    let probe = "g.V().hasLabel('patient').values('name')";
    assert_eq!(query_body(paddr, probe), query_body(raddr, probe));

    // More commits, a second checkpoint (WAL rotation while the follower
    // is live), then more commits on the rotated log.
    insert_patient(&pdb, 4);
    insert_patient(&pdb, 5);
    pdb.checkpoint().unwrap();
    insert_patient(&pdb, 6);
    wait_until("replica to converge at 6 patients", || patient_count(raddr) == 6);
    assert_eq!(query_body(paddr, probe), query_body(raddr, probe));

    // The replication section of /metrics: caught up means zero lag and a
    // published epoch matching the primary's.
    wait_until("replication lag to reach zero", || {
        let m = replication_metrics(raddr);
        m.get("replication_lag_records").and_then(Json::as_u64) == Some(0)
            && m.get("replica_applied_epoch").and_then(Json::as_u64) == Some(pdb.commit_epoch())
    });
    let m = replication_metrics(raddr);
    assert_eq!(m.get("primary").and_then(Json::as_str), Some(paddr.to_string().as_str()));
    assert!(m.get("replica_applied_records").and_then(Json::as_u64).unwrap() >= 1);

    // Roles are visible, and writes are refused with a pointer home even
    // though the replica's config opted into /sql.
    let r = http_call(raddr, "GET", "/healthz", "", TIMEOUT).unwrap();
    assert_eq!(Json::parse(&r.body).unwrap().get("role").and_then(Json::as_str), Some("replica"));
    let r = http_call(paddr, "GET", "/healthz", "", TIMEOUT).unwrap();
    assert_eq!(Json::parse(&r.body).unwrap().get("role").and_then(Json::as_str), Some("primary"));
    let r =
        http_call(raddr, "POST", "/sql", "INSERT INTO Patient VALUES (99, 'X', 'X', 99)", TIMEOUT)
            .unwrap();
    assert_eq!(r.status, 403, "{}", r.body);
    assert_eq!(
        Json::parse(&r.body).unwrap().get("primary").and_then(Json::as_str),
        Some(paddr.to_string().as_str())
    );
    assert_eq!(patient_count(raddr), 6, "refused write touched nothing");

    // Replication endpoints answer their contract over plain HTTP: a
    // position rotated out of the log is 410, a missing position is 400,
    // and a replica (no WAL of its own) refuses to be tailed.
    let r = http_call(paddr, "GET", "/wal?from_seq=0", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 410, "sequence 0 rotated away at the first checkpoint");
    assert!(Json::parse(&r.body).unwrap().get("base_seq").is_some());
    let r = http_call(paddr, "GET", "/wal", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 400);
    let r = http_call(raddr, "GET", "/wal?from_seq=0", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 403);

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Failure handling: a killed-and-restarted follower re-bootstraps to the
/// primary's current state, and a follower that loses its primary keeps
/// serving reads at its last applied epoch while counting reconnects.
#[test]
fn replica_survives_kill_restart_and_primary_loss() {
    let dir = temp_dir("kill");
    let (pdb, primary) = start_primary(&dir, 3);
    let paddr = primary.addr();

    let (rdb1, replica1) = start_replica(paddr);
    assert_eq!(patient_count(replica1.addr()), 3);

    // Kill the follower outright (its state is memory-only and dies with
    // it), advance the primary, restart: the new follower re-bootstraps
    // and converges on state it never saw shipped live.
    replica1.shutdown();
    drop(rdb1);
    insert_patient(&pdb, 4);
    pdb.checkpoint().unwrap();
    insert_patient(&pdb, 5);
    let (_rdb2, replica2) = start_replica(paddr);
    let raddr = replica2.addr();
    assert_eq!(patient_count(raddr), 5, "restarted replica re-bootstrapped to current state");
    wait_until("restarted replica to report zero lag", || {
        replication_metrics(raddr).get("replication_lag_records").and_then(Json::as_u64) == Some(0)
    });

    // Primary loss: reads keep answering from the applied epoch, and the
    // apply loop's failed polls are counted as reconnects.
    primary.shutdown();
    drop(pdb);
    wait_until("replica to count reconnects against the dead primary", || {
        replication_metrics(raddr).get("replica_reconnects").and_then(Json::as_u64) >= Some(1)
    });
    assert_eq!(patient_count(raddr), 5, "reads survive the primary's death");

    replica2.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
