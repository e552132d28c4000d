//! In-process smoke tests for the HTTP query service: every endpoint,
//! every error class, over a real socket — plus the env-gated validator
//! the `server-smoke` CI job uses to check curl-produced artifacts with
//! the repo's own JSON parser.

use std::sync::Arc;
use std::time::Duration;

use db2graph::core::json::Json;
use db2graph::core::{healthcare_example_json, Db2Graph, GraphOptions};
use db2graph::reldb::Database;
use db2graph::server::{http_call, GraphServer, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(10);

fn healthcare_graph(options: GraphOptions) -> Arc<Db2Graph> {
    let db = Arc::new(Database::new());
    db.execute_script(
        "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, address VARCHAR, subscriptionID BIGINT);
         CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, conceptName VARCHAR);
         CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR);
         CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR);
         INSERT INTO Patient VALUES (1, 'Alice', '12 Oak St', 100), (2, 'Bob', '9 Elm St', 101);
         INSERT INTO Disease VALUES (10, 'E11', 'type 2 diabetes'), (11, 'E10', 'type 1 diabetes');
         INSERT INTO HasDisease VALUES (1, 10, 'diagnosed 2019'), (2, 11, NULL);",
    )
    .unwrap();
    Db2Graph::open_with_options(
        db,
        &db2graph::core::OverlayConfig::from_json(healthcare_example_json()).unwrap(),
        options,
    )
    .unwrap()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 16,
        query_timeout: Some(Duration::from_secs(5)),
        read_timeout: Duration::from_secs(2),
        max_header_bytes: 4096,
        max_body_bytes: 4096,
        vacuum_interval: Some(Duration::from_millis(50)),
        checkpoint_interval: None,
        sql_endpoint: false,
        ..Default::default()
    }
}

#[test]
fn every_endpoint_answers_over_a_real_socket() {
    let options = GraphOptions { slow_query_nanos: Some(0), ..Default::default() };
    let graph = healthcare_graph(options);
    let handle = GraphServer::start(graph, test_config()).unwrap();
    let addr = handle.addr();

    // /healthz
    let r = http_call(addr, "GET", "/healthz", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    let j = Json::parse(&r.body).unwrap();
    assert_eq!(j.get("status").and_then(Json::as_str), Some("ok"));

    // /query with a raw-Gremlin body.
    let r = http_call(addr, "POST", "/query", "g.V().hasLabel('patient').values('name')", TIMEOUT)
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let j = Json::parse(&r.body).unwrap();
    assert_eq!(j.get("count").and_then(Json::as_u64), Some(2));
    let names: Vec<&str> =
        j.get("result").unwrap().as_array().unwrap().iter().filter_map(Json::as_str).collect();
    assert_eq!(names, ["Alice", "Bob"]);

    // /query with a JSON envelope.
    let r = http_call(addr, "POST", "/query", r#"{"gremlin": "g.V().count()"}"#, TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    let j = Json::parse(&r.body).unwrap();
    assert_eq!(j.get("result").and_then(|v| v.as_array()).and_then(|a| a[0].as_u64()), Some(4));

    // Element serialization: vertices come back structured.
    let r =
        http_call(addr, "POST", "/query", "g.V().hasLabel('patient').limit(1)", TIMEOUT).unwrap();
    let j = Json::parse(&r.body).unwrap();
    let v = &j.get("result").unwrap().as_array().unwrap()[0];
    assert_eq!(v.get("type").and_then(Json::as_str), Some("vertex"));
    assert_eq!(v.get("label").and_then(Json::as_str), Some("patient"));

    // /explain and /profile reuse the observability reports.
    let r =
        http_call(addr, "POST", "/explain", "g.V().hasLabel('patient').count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    assert!(Json::parse(&r.body).unwrap().get("plan").is_some());
    let r = http_call(addr, "POST", "/profile", "g.V().count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    let j = Json::parse(&r.body).unwrap();
    assert!(j.get("profile").and_then(|p| p.get("steps")).is_some());

    // Malformed Gremlin, malformed JSON, empty body: structured 400s.
    for body in ["g.V().has((", "{\"gremlin\": 7}", "{not json", ""] {
        let r = http_call(addr, "POST", "/query", body, TIMEOUT).unwrap();
        assert_eq!(r.status, 400, "body {body:?} → {}", r.body);
        assert!(Json::parse(&r.body).unwrap().get("error").is_some());
    }
    // Adversarial nesting from the wire is a 400, not a stack overflow.
    let deep = format!("g.V().where({}out(){})", "not(".repeat(400), ")".repeat(400));
    let r = http_call(addr, "POST", "/query", &deep, TIMEOUT).unwrap();
    assert_eq!(r.status, 400);

    // /sql is opt-in (it can mutate anything): disabled here, so even a
    // well-formed statement is refused before it reaches the database.
    let r = http_call(addr, "POST", "/sql", "DROP TABLE Patient", TIMEOUT).unwrap();
    assert_eq!(r.status, 403, "{}", r.body);
    assert!(Json::parse(&r.body).unwrap().get("error").is_some());
    let r =
        http_call(addr, "POST", "/query", "g.V().hasLabel('patient').count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "table untouched by the refused DROP");

    // Unknown path, wrong method, oversized body.
    let r = http_call(addr, "GET", "/nope", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 404);
    let r = http_call(addr, "DELETE", "/query", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 405);
    let r = http_call(addr, "POST", "/query", &"x".repeat(5000), TIMEOUT).unwrap();
    assert_eq!(r.status, 413);

    // /slow-queries (threshold 0 ⇒ everything above is logged).
    let r = http_call(addr, "GET", "/slow-queries", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    let j = Json::parse(&r.body).unwrap();
    assert!(!j.get("slow_queries").unwrap().as_array().unwrap().is_empty());

    // /workload parses.
    let r = http_call(addr, "GET", "/workload", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    assert!(Json::parse(&r.body).unwrap().get("patterns").is_some());

    // /metrics: graph section (with the new vacuum/horizon fields) plus
    // the server section.
    std::thread::sleep(Duration::from_millis(120)); // let the daemon tick
    let r = http_call(addr, "GET", "/metrics", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    let j = Json::parse(&r.body).unwrap();
    let graph = j.get("graph").unwrap();
    assert!(graph.get("traversals").and_then(Json::as_u64).unwrap() >= 4);
    assert!(graph.get("vacuum_runs").and_then(Json::as_u64).unwrap() >= 1);
    assert!(graph.get("commit_epoch").and_then(Json::as_u64).unwrap() >= 1);
    assert!(graph.get("snapshot_horizon").is_some());
    assert!(graph.get("vacuumed_versions").is_some());
    let server = j.get("server").unwrap();
    assert!(server.get("completed").and_then(Json::as_u64).unwrap() >= 10);
    assert!(server.get("bad_requests").and_then(Json::as_u64).unwrap() >= 4);
    assert!(server.get("bytes_in").and_then(Json::as_u64).unwrap() > 0);
    assert!(server.get("bytes_out").and_then(Json::as_u64).unwrap() > 0);

    let report = handle.shutdown();
    assert!(report.admitted >= 10);
    assert_eq!(report.completed, report.admitted, "graceful drain answered everything");
}

/// `HEAD` on any read endpoint is a headers-only `GET`: same status, a
/// `Content-Length` describing the body the `GET` would return, zero
/// body bytes on the wire. Unknown paths mirror the GET's 404.
#[test]
fn head_is_answered_as_a_headers_only_get() {
    use std::io::{Read, Write};

    let graph = healthcare_graph(Default::default());
    let handle = GraphServer::start(graph, test_config()).unwrap();
    let addr = handle.addr();

    // Through the client (which enforces the no-body contract)…
    let r = http_call(addr, "HEAD", "/healthz", "", TIMEOUT).unwrap();
    assert_eq!((r.status, r.body.len()), (200, 0));
    let r = http_call(addr, "HEAD", "/metrics", "", TIMEOUT).unwrap();
    assert_eq!((r.status, r.body.len()), (200, 0));
    let r = http_call(addr, "HEAD", "/nope", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 404);

    // …and on the raw wire: a nonzero Content-Length, nothing after the
    // blank line.
    let mut s = std::net::TcpStream::connect(addr).unwrap();
    s.write_all(
        b"HEAD /healthz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();
    assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
    let head_end = raw.find("\r\n\r\n").unwrap();
    assert_eq!(head_end + 4, raw.len(), "body bytes after a HEAD response: {raw}");
    let declared: usize =
        raw.lines().find_map(|l| l.strip_prefix("Content-Length: ")).unwrap().parse().unwrap();
    assert!(declared > 0, "Content-Length still describes the GET body");
    handle.shutdown();
}

/// A zero query budget expires before the first SQL statement: the
/// statement loop aborts with 503 and the timeout counter moves. (Zero
/// keeps the test deterministic — no racing a real clock.)
#[test]
fn expired_deadline_maps_to_503_and_counts() {
    let graph = healthcare_graph(Default::default());
    let config = ServerConfig { query_timeout: Some(Duration::ZERO), ..test_config() };
    let handle = GraphServer::start(graph, config).unwrap();
    let addr = handle.addr();
    let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 503, "{}", r.body);
    let j = Json::parse(&r.body).unwrap();
    assert_eq!(j.get("timeout").and_then(Json::as_bool), Some(true));
    let r = http_call(addr, "GET", "/metrics", "", TIMEOUT).unwrap();
    let j = Json::parse(&r.body).unwrap();
    assert!(j.get("server").unwrap().get("query_timeouts").and_then(Json::as_u64).unwrap() >= 1);
    handle.shutdown();
}

/// A stalled client (connects, sends nothing) is bounded by the read
/// timeout and answered 408 — it cannot hold a worker forever.
#[test]
fn stalled_client_is_timed_out() {
    let graph = healthcare_graph(Default::default());
    let config = ServerConfig { read_timeout: Duration::from_millis(150), ..test_config() };
    let handle = GraphServer::start(graph, config).unwrap();
    let addr = handle.addr();
    let stalled = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    // The worker must be free again for real requests.
    let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 200);
    drop(stalled);
    handle.shutdown();
}

/// A slow-loris client dripping one byte at a time cannot renew the read
/// clock: `read_timeout` is a total per-request budget, so the lone
/// worker is freed at the deadline and real traffic proceeds while the
/// drip is still going. (With a per-read timeout, each byte would arrive
/// well inside the window and the drip would hold the worker for the
/// whole three seconds, timing out the real query below.)
#[test]
fn slow_loris_drip_cannot_renew_the_read_deadline() {
    let graph = healthcare_graph(Default::default());
    let config =
        ServerConfig { workers: 1, read_timeout: Duration::from_millis(250), ..test_config() };
    let handle = GraphServer::start(graph, config).unwrap();
    let addr = handle.addr();
    let dripper = std::thread::spawn(move || {
        use std::io::Write;
        let Ok(mut s) = std::net::TcpStream::connect(addr) else { return };
        for b in b"POST /query HTTP/1.1\r\nContent-Length: 4096\r\n\r\n".iter().cycle().take(30) {
            if s.write_all(&[*b]).is_err() {
                break; // the server gave up on us — exactly the point
            }
            std::thread::sleep(Duration::from_millis(100));
        }
    });
    // Well past the 250ms budget, with the drip still running.
    std::thread::sleep(Duration::from_millis(600));
    let r = http_call(addr, "POST", "/query", "g.V().count()", Duration::from_secs(2)).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    dripper.join().unwrap();
    handle.shutdown();
}

/// A `range` whose upper bound is below its lower one is an empty answer,
/// not a panic: with one worker, a panic would take the only worker down
/// and the next query would never be served. The graph has four vertices;
/// after `dedup()` the bound is not pushed into SQL, so the step sees all
/// of them.
#[test]
fn inverted_range_answers_empty_and_the_worker_survives() {
    let graph = healthcare_graph(Default::default());
    let handle = GraphServer::start(graph, ServerConfig { workers: 1, ..test_config() }).unwrap();
    let addr = handle.addr();
    for query in ["g.V().range(5, 2)", "g.V().dedup().range(3, 1)"] {
        let r = http_call(addr, "POST", "/query", query, TIMEOUT).unwrap();
        assert_eq!(r.status, 200, "{query}: {}", r.body);
        let j = Json::parse(&r.body).unwrap();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(0), "{query}: {}", r.body);
        let result = j.get("result").and_then(Json::as_array);
        assert_eq!(result.map(|a| a.len()), Some(0), "{query}: {}", r.body);
    }
    let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    let j = Json::parse(&r.body).unwrap();
    assert_eq!(j.get("result").unwrap().as_array().unwrap()[0].as_u64(), Some(4), "{}", r.body);
    handle.shutdown();
}

/// Full durable round trip over the wire: start a server on a fresh data
/// directory, seed rows over `POST /sql`, query them, kill the server,
/// reopen a second server from the *same* directory, and check that (a)
/// `/query` answers identically from recovered state and (b) `/metrics`
/// reports the recovery (`recovery_replayed_epochs`, `wal_records`).
#[test]
fn server_restart_recovers_from_data_dir() {
    use db2graph::core::{healthcare_example_json, OverlayConfig};
    use db2graph::reldb::Database;

    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "db2graph-restart-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let overlay = OverlayConfig::from_json(healthcare_example_json()).unwrap();
    let query = "g.V().hasLabel('patient').values('name')";
    let run_query = |addr| {
        let r = http_call(addr, "POST", "/query", query, TIMEOUT).unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        r.body
    };

    // ---- First life: durable database, schema at open, rows over HTTP.
    let first_body;
    {
        let db = Arc::new(Database::open(&dir).unwrap());
        db.execute_script(
            "CREATE TABLE Patient (patientID BIGINT PRIMARY KEY, name VARCHAR, address VARCHAR, subscriptionID BIGINT);
             CREATE TABLE Disease (diseaseID BIGINT PRIMARY KEY, conceptCode VARCHAR, conceptName VARCHAR);
             CREATE TABLE DiseaseOntology (sourceID BIGINT, targetID BIGINT, type VARCHAR);
             CREATE TABLE HasDisease (patientID BIGINT, diseaseID BIGINT, description VARCHAR);",
        )
        .unwrap();
        let graph = Db2Graph::open_with_options(db, &overlay, Default::default()).unwrap();
        let config = ServerConfig { sql_endpoint: true, ..test_config() };
        let handle = GraphServer::start(graph, config).unwrap();
        let addr = handle.addr();

        let r = http_call(
            addr,
            "POST",
            "/sql",
            "INSERT INTO Patient VALUES (1, 'Alice', '12 Oak St', 100), (2, 'Bob', '9 Elm St', 101);
             INSERT INTO Disease VALUES (10, 'E11', 'type 2 diabetes');
             INSERT INTO HasDisease VALUES (1, 10, 'diagnosed 2019'), (2, 10, NULL);
             SELECT COUNT(*) AS n FROM Patient",
            TIMEOUT,
        )
        .unwrap();
        assert_eq!(r.status, 200, "{}", r.body);
        let j = Json::parse(&r.body).unwrap();
        let first_row = &j.get("rows").unwrap().as_array().unwrap()[0];
        assert_eq!(first_row.as_array().unwrap()[0].as_u64(), Some(2));

        first_body = run_query(addr);
        let names = Json::parse(&first_body).unwrap();
        assert_eq!(names.get("count").and_then(Json::as_u64), Some(2));

        let r = http_call(addr, "GET", "/metrics", "", TIMEOUT).unwrap();
        let j = Json::parse(&r.body).unwrap();
        let g = j.get("graph").unwrap();
        assert!(g.get("wal_records").and_then(Json::as_u64).unwrap() >= 6, "DDL + inserts logged");
        assert_eq!(g.get("recovery_replayed_epochs").and_then(Json::as_u64), Some(0));

        handle.shutdown(); // drops the server AND the database
    }

    // ---- Second life: same directory, recovered purely from disk.
    {
        let db = Arc::new(Database::open(&dir).unwrap());
        assert!(db.metrics().recovery_replayed_epochs() > 0, "WAL had commits to replay");
        let graph = Db2Graph::open_with_options(db, &overlay, Default::default()).unwrap();
        let handle = GraphServer::start(graph, test_config()).unwrap();
        let addr = handle.addr();

        let second_body = run_query(addr);
        assert_eq!(
            Json::parse(&first_body).unwrap(),
            Json::parse(&second_body).unwrap(),
            "recovered server answers /query identically"
        );

        let r = http_call(addr, "GET", "/metrics", "", TIMEOUT).unwrap();
        let j = Json::parse(&r.body).unwrap();
        let g = j.get("graph").unwrap();
        assert!(
            g.get("recovery_replayed_epochs").and_then(Json::as_u64).unwrap() > 0,
            "metrics surface the recovery"
        );
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Validates the artifacts the `server-smoke` CI job captured with curl,
/// using the repo's own JSON parser. Gated on `DB2GRAPH_SMOKE_DIR`; a
/// plain `cargo test` skips it.
#[test]
fn ci_smoke_artifacts_are_valid() {
    let Ok(dir) = std::env::var("DB2GRAPH_SMOKE_DIR") else { return };
    let read = |name: &str| {
        let path = format!("{dir}/{name}");
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
    };
    let healthz = Json::parse(&read("healthz.json")).expect("healthz is valid JSON");
    assert_eq!(healthz.get("status").and_then(Json::as_str), Some("ok"));

    let query = Json::parse(&read("query.json")).expect("query is valid JSON");
    let names: Vec<&str> = query
        .get("result")
        .and_then(|r| r.as_array())
        .expect("query result array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert_eq!(names, ["Alice", "Bob"], "healthcare overlay answered over HTTP");

    // The session leg: the in-session read observed the session's own
    // uncommitted write, and the commit answered affirmatively.
    let session_query =
        Json::parse(&read("session_query.json")).expect("session query is valid JSON");
    let addresses: Vec<&str> = session_query
        .get("result")
        .and_then(|r| r.as_array())
        .expect("session query result array")
        .iter()
        .filter_map(Json::as_str)
        .collect();
    assert!(
        addresses.contains(&"Session Ave"),
        "in-session read sees the session's write: {addresses:?}"
    );
    let commit = Json::parse(&read("session_commit.json")).expect("commit is valid JSON");
    assert_eq!(commit.get("committed").and_then(Json::as_bool), Some(true));

    let metrics = Json::parse(&read("metrics.json")).expect("metrics is valid JSON");
    let graph = metrics.get("graph").expect("graph metrics section");
    assert!(graph.get("traversals").and_then(Json::as_u64).unwrap() >= 1);
    assert!(graph.get("vacuum_runs").is_some());
    assert!(graph.get("snapshot_horizon").is_some());
    let server = metrics.get("server").expect("server metrics section");
    assert!(server.get("completed").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(server.get("rejected").and_then(Json::as_u64), Some(0));
    // The three --next-chained session requests rode one connection.
    assert!(
        server.get("keepalive_reuses").and_then(Json::as_u64).unwrap() >= 2,
        "curl --next reused its connection"
    );
    assert!(server.get("sessions_committed").and_then(Json::as_u64).unwrap() >= 1);
    assert_eq!(server.get("sessions_open").and_then(Json::as_u64), Some(0));
}
