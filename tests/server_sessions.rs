//! The persistent-connection serving path and its transaction sessions:
//! HTTP keep-alive (one TCP connection, many requests), pipelining,
//! cross-request sessions via `X-Db2Graph-Session`, the idle-session
//! reaper, and the protocol hardening that rode along (conflicting
//! `Content-Length`, `Allow` on 405, 501 for `Transfer-Encoding`).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use db2graph::core::json::Json;
use db2graph::core::{Db2Graph, GraphOptions, OverlayConfig, VTableConfig};
use db2graph::reldb::Database;
use db2graph::server::{http_call, GraphServer, HttpClient, ServerConfig};

const ACCOUNTS: i64 = 8;
const TOTAL: u64 = ACCOUNTS as u64 * 100;
const TIMEOUT: Duration = Duration::from_secs(10);

fn account_graph() -> (Arc<Database>, Arc<Db2Graph>) {
    let db = Arc::new(Database::new());
    (db.clone(), account_graph_on(db))
}

fn account_graph_on(db: Arc<Database>) -> Arc<Db2Graph> {
    db.execute("CREATE TABLE Account (aid BIGINT PRIMARY KEY, balance BIGINT)").unwrap();
    let rows: Vec<String> = (0..ACCOUNTS).map(|i| format!("({i}, 100)")).collect();
    db.execute(&format!("INSERT INTO Account VALUES {}", rows.join(", "))).unwrap();
    let overlay = OverlayConfig {
        v_tables: vec![VTableConfig {
            table_name: "Account".into(),
            prefixed_id: true,
            id: "'acct'::aid".into(),
            fix_label: true,
            label: "'acct'".into(),
            properties: Some(vec!["balance".into()]),
        }],
        e_tables: vec![],
    };
    Db2Graph::open_with_options(db, &overlay, GraphOptions::default()).unwrap()
}

fn config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 4,
        queue_depth: 16,
        query_timeout: Some(Duration::from_secs(5)),
        read_timeout: Duration::from_secs(2),
        max_header_bytes: 4096,
        max_body_bytes: 65536,
        vacuum_interval: Some(Duration::from_millis(20)),
        checkpoint_interval: None,
        sql_endpoint: true,
        ..Default::default()
    }
}

fn summed_balance(body: &str) -> u64 {
    Json::parse(body)
        .unwrap_or_else(|e| panic!("response not JSON ({e}): {body}"))
        .get("result")
        .and_then(|r| r.as_array())
        .and_then(|a| a.first())
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no numeric result in {body}"))
}

// ------------------------------------------------------- keep-alive

/// The tentpole's core claim: one TCP connection serves a long sequence
/// of requests. 120 sequential queries arrive on a single connection —
/// the server accepts exactly once, admits 120 requests, and counts 119
/// keep-alive reuses; the drain invariant holds at request grain.
#[test]
fn one_connection_serves_a_hundred_sequential_requests() {
    let (_db, graph) = account_graph();
    let handle = GraphServer::start(graph, config()).unwrap();
    let addr = handle.addr();

    let mut client = HttpClient::new(addr, TIMEOUT);
    for i in 0..120usize {
        let r = client.call("POST", "/query", "g.V().values('balance').sum()").unwrap();
        assert_eq!(r.status, 200, "request {i}: {}", r.body);
        assert_eq!(summed_balance(&r.body), TOTAL);
        assert!(client.connected(), "request {i} lost the connection");
    }
    let m = handle.metrics();
    assert_eq!(m.accepted(), 1, "all 120 requests rode one accepted connection");
    assert_eq!(m.admitted(), 120);
    assert_eq!(m.keepalive_reuses(), 119);

    let report = handle.shutdown();
    assert_eq!(report.completed, report.admitted, "request-grain drain invariant");
}

/// A connection that exhausts its request budget is closed politely
/// (`Connection: close` on the last response) and the client reconnects
/// transparently.
#[test]
fn keepalive_budget_closes_politely_and_client_reconnects() {
    let (_db, graph) = account_graph();
    let cfg = ServerConfig { keepalive_requests: 3, ..config() };
    let handle = GraphServer::start(graph, cfg).unwrap();
    let addr = handle.addr();

    let mut client = HttpClient::new(addr, TIMEOUT);
    for i in 0..9usize {
        let r = client.call("GET", "/healthz", "").unwrap();
        assert_eq!(r.status, 200, "request {i}");
    }
    // 9 requests over a budget of 3 = exactly 3 connections.
    assert_eq!(handle.metrics().accepted(), 3);
    let report = handle.shutdown();
    assert_eq!(report.completed, report.admitted);
}

/// Two pipelined requests written in a single `write_all` are both
/// answered in order on the same connection — the surplus bytes after
/// request one become request two, not a 400.
#[test]
fn pipelined_requests_in_one_write_are_served_in_order() {
    let (_db, graph) = account_graph();
    let handle = GraphServer::start(graph, config()).unwrap();
    let addr = handle.addr();

    let body1 = "g.V().count()";
    let body2 = "g.V().values('balance').sum()";
    let wire = format!(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body1}\
         POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body2}",
        body1.len(),
        body2.len()
    );
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(wire.as_bytes()).unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).unwrap();

    let starts: Vec<usize> = raw.match_indices("HTTP/1.1 200").map(|(i, _)| i).collect();
    assert_eq!(starts.len(), 2, "two pipelined requests, two responses: {raw}");
    let first = &raw[..starts[1]];
    let second = &raw[starts[1]..];
    assert!(first.contains("\"result\":[8]"), "first response answers request one: {first}");
    let body2_start = second.find("\r\n\r\n").unwrap() + 4;
    assert_eq!(summed_balance(&second[body2_start..]), TOTAL);
    assert_eq!(handle.metrics().accepted(), 1);
    let report = handle.shutdown();
    assert_eq!(report.completed, report.admitted);
}

// --------------------------------------------------------- sessions

fn session_headers(sid: &str) -> Vec<(&str, &str)> {
    vec![("X-Db2Graph-Session", sid)]
}

fn begin_session(client: &mut HttpClient) -> String {
    let r = client.call("POST", "/session", "").unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    Json::parse(&r.body)
        .unwrap()
        .get("session")
        .and_then(Json::as_str)
        .expect("session id in begin response")
        .to_string()
}

/// A session transaction survives across separate HTTP requests: begin,
/// three writes in three requests, reads inside the session see the
/// uncommitted state while plain requests do not, then commit publishes
/// everything atomically.
#[test]
fn session_spans_multiple_requests_then_commits() {
    let (_db, graph) = account_graph();
    let handle = GraphServer::start(graph, config()).unwrap();
    let addr = handle.addr();
    let mut client = HttpClient::new(addr, TIMEOUT);

    let sid = begin_session(&mut client);
    let hdrs = session_headers(&sid);

    // Three separate requests, one transaction: move 5 from account 0 to
    // account 1 in two statements, then read the in-session sum.
    for sql in [
        "UPDATE Account SET balance = balance - 5 WHERE aid = 0",
        "UPDATE Account SET balance = balance + 5 WHERE aid = 1",
    ] {
        let r = client
            .call_bytes_with_headers("POST", "/sql", sql.as_bytes(), &hdrs)
            .unwrap();
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.bytes));
    }
    let r = client
        .call_bytes_with_headers(
            "POST",
            "/query",
            b"g.V().values('balance').sum()",
            &hdrs,
        )
        .unwrap();
    assert_eq!(r.status, 200);
    assert_eq!(summed_balance(&String::from_utf8_lossy(&r.bytes)), TOTAL);

    // Inside the session, account 1 already holds 105…
    let r = client
        .call_bytes_with_headers(
            "POST",
            "/sql",
            b"SELECT balance FROM Account WHERE aid = 1",
            &hdrs,
        )
        .unwrap();
    assert!(
        String::from_utf8_lossy(&r.bytes).contains("105"),
        "in-session read sees the session's writes: {}",
        String::from_utf8_lossy(&r.bytes)
    );
    // …while a plain request (different connection, no session header)
    // still sees the committed 100.
    let plain = http_call(addr, "POST", "/sql", "SELECT balance FROM Account WHERE aid = 1", TIMEOUT)
        .unwrap();
    assert!(plain.body.contains("100"), "uncommitted writes must not leak: {}", plain.body);

    let r = client
        .call_bytes_with_headers("POST", "/session/commit", b"", &hdrs)
        .unwrap();
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.bytes));

    // Now everyone sees it.
    let plain = http_call(addr, "POST", "/sql", "SELECT balance FROM Account WHERE aid = 1", TIMEOUT)
        .unwrap();
    assert!(plain.body.contains("105"), "{}", plain.body);

    // The session is gone: a second commit is 404.
    let r = client
        .call_bytes_with_headers("POST", "/session/commit", b"", &hdrs)
        .unwrap();
    assert_eq!(r.status, 404);

    let m = handle.metrics();
    assert_eq!((m.sessions_began(), m.sessions_committed(), m.sessions_open()), (1, 1, 0));
    handle.shutdown();
}

/// An explicit rollback discards the session's writes.
#[test]
fn session_rollback_discards_writes() {
    let (_db, graph) = account_graph();
    let handle = GraphServer::start(graph, config()).unwrap();
    let addr = handle.addr();
    let mut client = HttpClient::new(addr, TIMEOUT);

    let sid = begin_session(&mut client);
    let hdrs = session_headers(&sid);
    let r = client
        .call_bytes_with_headers(
            "POST",
            "/sql",
            b"UPDATE Account SET balance = balance - 42 WHERE aid = 3",
            &hdrs,
        )
        .unwrap();
    assert_eq!(r.status, 200);
    let r = client
        .call_bytes_with_headers("POST", "/session/rollback", b"", &hdrs)
        .unwrap();
    assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.bytes));

    let plain = http_call(addr, "POST", "/query", "g.V().values('balance').sum()", TIMEOUT).unwrap();
    assert_eq!(summed_balance(&plain.body), TOTAL, "rollback restored the balance");
    assert_eq!(handle.metrics().sessions_rolled_back(), 1);
    handle.shutdown();
}

/// The reaper rolls back a session its client abandoned: the half-done
/// transfer vanishes (balances conserve), the metrics and the session id
/// both report the reap.
#[test]
fn abandoned_session_is_reaped_and_rolled_back() {
    let (_db, graph) = account_graph();
    let cfg = ServerConfig { session_idle: Duration::from_millis(150), ..config() };
    let handle = GraphServer::start(graph, cfg).unwrap();
    let addr = handle.addr();
    let mut client = HttpClient::new(addr, TIMEOUT);

    let sid = begin_session(&mut client);
    let hdrs = session_headers(&sid);
    // Half a transfer: debit without the matching credit. If the reaper
    // failed to roll back, the committed total would be short 7.
    let r = client
        .call_bytes_with_headers(
            "POST",
            "/sql",
            b"UPDATE Account SET balance = balance - 7 WHERE aid = 2",
            &hdrs,
        )
        .unwrap();
    assert_eq!(r.status, 200);

    // Abandon it past the idle deadline; the reaper ticks at idle/4.
    std::thread::sleep(Duration::from_millis(600));

    assert!(handle.metrics().sessions_reaped() >= 1, "reaper fired");
    assert_eq!(handle.metrics().sessions_open(), 0);
    let plain = http_call(addr, "POST", "/query", "g.V().values('balance').sum()", TIMEOUT).unwrap();
    assert_eq!(summed_balance(&plain.body), TOTAL, "reap rolled the half-transfer back");
    // The id is dead: committing it now is 404.
    let r = client
        .call_bytes_with_headers("POST", "/session/commit", b"", &hdrs)
        .unwrap();
    assert_eq!(r.status, 404, "{}", String::from_utf8_lossy(&r.bytes));

    // The reap is visible in the event stream, tagged with the id.
    let ev = http_call(addr, "GET", "/events", "", TIMEOUT).unwrap();
    assert!(ev.body.contains("session_reaped") && ev.body.contains(&sid), "{}", ev.body);
    handle.shutdown();
}

/// Shutdown rolls back a session that is still open, and does so before
/// the final vacuum and checkpoint: a durable server stopped with half a
/// transfer in flight reopens with the conserved balance.
#[test]
fn shutdown_rolls_back_an_open_session_before_the_final_checkpoint() {
    let dir = std::env::temp_dir().join(format!("db2graph-session-shutdown-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let graph = account_graph_on(Arc::new(Database::open(&dir).unwrap()));
    let cfg = ServerConfig { checkpoint_interval: Some(Duration::from_secs(3600)), ..config() };
    let handle = GraphServer::start(graph, cfg).unwrap();
    let events = handle.events().clone();

    let sid = {
        let mut client = HttpClient::new(handle.addr(), TIMEOUT);
        let sid = begin_session(&mut client);
        let r = client
            .call_bytes_with_headers(
                "POST",
                "/sql",
                b"UPDATE Account SET balance = balance - 7 WHERE aid = 2",
                &session_headers(&sid),
            )
            .unwrap();
        assert_eq!(r.status, 200, "{}", String::from_utf8_lossy(&r.bytes));
        sid
    };
    let report = handle.shutdown();
    assert_eq!(report.completed, report.admitted);

    let events = events.since(0);
    let reaped: Vec<String> = events
        .iter()
        .filter(|e| e.kind == "session_reaped")
        .map(|e| e.to_json().to_compact())
        .collect();
    assert_eq!(reaped.len(), 1, "sessions_reaped == 1: {reaped:?}");
    assert!(reaped[0].contains(&sid), "{reaped:?}");
    let order: Vec<&str> = events
        .iter()
        .map(|e| e.kind.as_str())
        .filter(|k| matches!(*k, "session_reaped" | "checkpoint_begin"))
        .collect();
    assert_eq!(order, ["session_reaped", "checkpoint_begin"], "rollback, then the final checkpoint");

    let reopened = Database::open(&dir).unwrap();
    let sum = reopened.execute("SELECT SUM(balance) FROM Account").unwrap();
    assert_eq!(
        sum.scalar(),
        Some(&db2graph::reldb::Value::Bigint(TOTAL as i64)),
        "the debit was rolled back before the final checkpoint"
    );
    drop(reopened);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Session endpoints without the header, or with a bogus id, answer with
/// structured errors rather than panics or hangs.
#[test]
fn session_misuse_answers_structured_errors() {
    let (_db, graph) = account_graph();
    let handle = GraphServer::start(graph, config()).unwrap();
    let addr = handle.addr();

    let r = http_call(addr, "POST", "/session/commit", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 400, "{}", r.body);
    let r = http_call_with_session(addr, "/session/rollback", "s-0-999");
    assert_eq!(r.0, 404, "{}", r.1);
    let r = http_call_with_session(addr, "/query", "s-0-999");
    assert_eq!(r.0, 404, "{}", r.1);
    handle.shutdown();
}

/// A plain `/sql` script may not leave a transaction open: it would stay
/// with the worker thread, and the next request that worker served — from
/// any client — would read its uncommitted rows and write into it. With
/// one worker every later request lands on that thread.
#[test]
fn sql_script_cannot_leave_a_transaction_open_on_a_worker() {
    let (_db, graph) = account_graph();
    let handle = GraphServer::start(graph, ServerConfig { workers: 1, ..config() }).unwrap();
    let addr = handle.addr();
    let sql = |body: &str| http_call(addr, "POST", "/sql", body, TIMEOUT).unwrap();
    let committed_sum = || {
        let sum = "g.V().values('balance').sum()";
        summed_balance(&http_call(addr, "POST", "/query", sum, TIMEOUT).unwrap().body)
    };

    let r = sql("BEGIN; INSERT INTO Account VALUES (100, 1)");
    assert_eq!(r.status, 400, "no COMMIT: {}", r.body);
    assert!(r.body.contains("POST /session"), "{}", r.body);
    let r = sql("BEGIN; INSERT INTO Account VALUES (101, 1); INSERT INTO Nope VALUES (1); COMMIT");
    assert_eq!(r.status, 400, "failed statement after BEGIN: {}", r.body);
    assert!(r.body.contains("Nope"), "the statement's own error is kept: {}", r.body);
    assert_eq!(committed_sum(), TOTAL, "both scripts were rolled back");

    let r = sql("BEGIN; INSERT INTO Account VALUES (102, 1), (103, 1); COMMIT");
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(committed_sum(), TOTAL + 2);
    handle.shutdown();
}

fn http_call_with_session(addr: std::net::SocketAddr, path: &str, sid: &str) -> (u16, String) {
    let body = if path == "/query" { "g.V().count()" } else { "" };
    let r = db2graph::server::http_call_bytes_with_headers(
        addr,
        "POST",
        path,
        body.as_bytes(),
        &[("X-Db2Graph-Session", sid)],
        TIMEOUT,
    )
    .unwrap();
    (r.status, String::from_utf8_lossy(&r.bytes).into_owned())
}

// ------------------------------------------------ protocol hardening

/// Raw one-shot exchange helper for malformed-request tests.
fn raw_exchange(addr: std::net::SocketAddr, wire: &str) -> String {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(TIMEOUT)).unwrap();
    s.write_all(wire.as_bytes()).unwrap();
    let mut raw = String::new();
    let _ = s.read_to_string(&mut raw);
    raw
}

/// Conflicting duplicate `Content-Length` headers are the classic
/// request-smuggling vector: reject with a structured 400. Identical
/// repeats stay tolerated.
#[test]
fn conflicting_content_lengths_are_rejected() {
    let (_db, graph) = account_graph();
    let handle = GraphServer::start(graph, config()).unwrap();
    let addr = handle.addr();

    let raw = raw_exchange(
        addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\nContent-Length: 7\r\n\
         Connection: close\r\n\r\nabcd",
    );
    assert!(raw.starts_with("HTTP/1.1 400"), "{raw}");
    assert!(raw.contains("conflicting content-length"), "{raw}");

    let body = "g.V().count()";
    let raw = raw_exchange(
        addr,
        &format!(
            "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: {n}\r\nContent-Length: {n}\r\n\
             Connection: close\r\n\r\n{body}",
            n = body.len()
        ),
    );
    assert!(raw.starts_with("HTTP/1.1 200"), "identical repeats are benign: {raw}");
    handle.shutdown();
}

/// `Transfer-Encoding` is honestly unimplemented: 501, not a mangled
/// read. And a known path with the wrong method names its allowed
/// methods.
#[test]
fn transfer_encoding_gets_501_and_405_names_allowed_methods() {
    let (_db, graph) = account_graph();
    let handle = GraphServer::start(graph, config()).unwrap();
    let addr = handle.addr();

    let raw = raw_exchange(
        addr,
        "POST /query HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\
         Connection: close\r\n\r\n0\r\n\r\n",
    );
    assert!(raw.starts_with("HTTP/1.1 501 Not Implemented"), "{raw}");

    let r = http_call(addr, "GET", "/query", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("POST"), "405 names the allowed methods");
    let r = http_call(addr, "POST", "/metrics", "", TIMEOUT).unwrap();
    assert_eq!(r.status, 405);
    assert_eq!(r.header("allow"), Some("GET, HEAD"));
    handle.shutdown();
}

/// Every endpoint answers a method it does not serve with 405 and its own
/// `Allow` header; a path outside the route list is 404 with no `Allow`.
#[test]
fn every_route_answers_a_wrong_method_with_405_and_its_allow_header() {
    const ROUTES: [(&str, &str); 15] = [
        ("/query", "POST"),
        ("/explain", "POST"),
        ("/profile", "POST"),
        ("/sql", "POST"),
        ("/session", "POST"),
        ("/session/commit", "POST"),
        ("/session/rollback", "POST"),
        ("/metrics", "GET, HEAD"),
        ("/slow-queries", "GET, HEAD"),
        ("/workload", "GET, HEAD"),
        ("/healthz", "GET, HEAD"),
        ("/readyz", "GET, HEAD"),
        ("/events", "GET, HEAD"),
        ("/wal", "GET, HEAD"),
        ("/checkpoint", "GET, HEAD"),
    ];
    let (_db, graph) = account_graph();
    let handle = GraphServer::start(graph, config()).unwrap();
    let addr = handle.addr();
    for (path, allow) in ROUTES {
        let wrong =
            if allow == "POST" { ["GET", "HEAD", "PUT"] } else { ["POST", "PUT", "DELETE"] };
        for method in wrong {
            let r = http_call(addr, method, path, "", TIMEOUT).unwrap();
            assert_eq!(r.status, 405, "{method} {path}");
            assert_eq!(r.header("allow"), Some(allow), "{method} {path}");
        }
    }
    for path in ["/", "/nope", "/query/", "/session/other", "/metrics/graph"] {
        for method in ["GET", "POST"] {
            let r = http_call(addr, method, path, "", TIMEOUT).unwrap();
            assert_eq!(r.status, 404, "{method} {path}");
            assert_eq!(r.header("allow"), None, "{method} {path}");
        }
    }
    handle.shutdown();
}
