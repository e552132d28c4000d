//! Serving-layer stress: real sockets, concurrent writers, admission
//! control, and graceful shutdown.
//!
//! * 16 mixed clients — 12 HTTP readers and 4 transactional SQL writers —
//!   hammer one database; every HTTP response must observe the conserved
//!   total balance, proving each request is pinned to one committed
//!   snapshot end to end (the Gremlin wire surface is read-only, so the
//!   writers mutate through SQL transactions, exactly the paper's
//!   synergistic split).
//! * With one worker and a one-deep queue, excess clients are shed with
//!   429 — never queued unboundedly, never dropped silently.
//! * Shutdown mid-load is complete-or-nothing: a client either gets a
//!   full, valid response or provably nothing, and the drain report shows
//!   `completed == admitted`.
//!
//! Scale knob: `DB2GRAPH_STRESS_ROUNDS` (writer iterations, default 200).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use db2graph::core::json::Json;
use db2graph::core::{Db2Graph, GraphOptions, OverlayConfig, VTableConfig};
use db2graph::reldb::Database;
use db2graph::server::{http_call, GraphServer, ServerConfig};

const ACCOUNTS: i64 = 16;
const TOTAL: u64 = ACCOUNTS as u64 * 100;
const TIMEOUT: Duration = Duration::from_secs(10);
/// How long the mixed-client test waits for its writers before failing
/// (it normally finishes in well under a second).
const WRITERS_DEADLINE: Duration = Duration::from_secs(120);

fn stress_rounds() -> usize {
    std::env::var("DB2GRAPH_STRESS_ROUNDS").ok().and_then(|s| s.trim().parse().ok()).unwrap_or(200)
}

fn account_graph() -> (Arc<Database>, Arc<Db2Graph>) {
    let db = Arc::new(Database::new());
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
    let options = GraphOptions { threads: Some(2), ..Default::default() };
    let graph = Db2Graph::open_with_options(db.clone(), &overlay, options).unwrap();
    (db, graph)
}

fn config(workers: usize, queue_depth: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        query_timeout: Some(Duration::from_secs(10)),
        read_timeout: Duration::from_secs(5),
        max_header_bytes: 8192,
        max_body_bytes: 65536,
        vacuum_interval: Some(Duration::from_millis(20)),
        checkpoint_interval: None,
        sql_endpoint: false,
        ..Default::default()
    }
}

/// Extract the summed balance from a `/query` response body.
fn summed_balance(body: &str) -> u64 {
    Json::parse(body)
        .unwrap_or_else(|e| panic!("response not JSON ({e}): {body}"))
        .get("result")
        .and_then(|r| r.as_array())
        .and_then(|a| a.first())
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("no numeric result in {body}"))
}

/// 12 socket readers assert value conservation on every response while 4
/// writer threads transfer balances transactionally. The vacuum daemon
/// churns underneath the whole time.
#[test]
fn sixteen_mixed_clients_observe_one_committed_state_each() {
    let (db, graph) = account_graph();
    let handle = GraphServer::start(graph, config(8, 32)).unwrap();
    let addr = handle.addr();

    let rounds = stress_rounds();
    let stop = Arc::new(AtomicBool::new(false));
    let reads = Arc::new(AtomicUsize::new(0));
    // Writers are detached threads rather than scoped ones, so a writer
    // that never finishes fails the test at the deadline instead of
    // hanging it.
    let progress: Arc<Vec<AtomicUsize>> = Arc::new((0..4).map(|_| AtomicUsize::new(0)).collect());
    let writers: Vec<_> = (0..4usize)
        .map(|w| {
            let db = db.clone();
            let progress = progress.clone();
            std::thread::spawn(move || {
                for r in 0..rounds {
                    let from = (r as i64 + w as i64) % ACCOUNTS;
                    let to = (r as i64 * 7 + w as i64 * 3 + 1) % ACCOUNTS;
                    db.transaction(|db| {
                        db.execute(&format!(
                            "UPDATE Account SET balance = balance - 1 WHERE aid = {from}"
                        ))?;
                        db.execute(&format!(
                            "UPDATE Account SET balance = balance + 1 WHERE aid = {to}"
                        ))?;
                        Ok(())
                    })
                    .unwrap();
                    progress[w].fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let deadline = Instant::now() + WRITERS_DEADLINE;
    std::thread::scope(|s| {
        for _ in 0..12usize {
            let stop = stop.clone();
            let reads = reads.clone();
            s.spawn(move || {
                let mut looked = false;
                while !looked || !stop.load(Ordering::Relaxed) {
                    let r =
                        http_call(addr, "POST", "/query", "g.V().values('balance').sum()", TIMEOUT)
                            .expect("reader request failed");
                    assert_eq!(r.status, 200, "{}", r.body);
                    assert_eq!(
                        summed_balance(&r.body),
                        TOTAL,
                        "an HTTP response observed a half-applied transfer"
                    );
                    reads.fetch_add(1, Ordering::Relaxed);
                    looked = true;
                }
            });
        }
        while !writers.iter().all(|w| w.is_finished()) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
    });
    if !writers.iter().all(|w| w.is_finished()) {
        let done: Vec<usize> = progress.iter().map(|p| p.load(Ordering::Relaxed)).collect();
        // A stuck writer may hold locks the server's shutdown needs:
        // leak the server so the failure is reported instead of hanging.
        std::mem::forget(handle);
        panic!(
            "writers unfinished after {WRITERS_DEADLINE:?}: \
             rounds done per writer {done:?} of {rounds}"
        );
    }
    for w in writers {
        w.join().expect("writer panicked");
    }
    assert!(reads.load(Ordering::Relaxed) >= 12, "every reader completed at least one read");

    // Quiesced end state conserves, and the daemon actually reclaims the
    // update churn (4 writers × 2 updates × rounds of dead versions). The
    // churn can stay below the inline-vacuum threshold and end within one
    // daemon tick, so wait for a pass instead of reading the first scrape.
    let r = http_call(addr, "POST", "/query", "g.V().values('balance').sum()", TIMEOUT).unwrap();
    assert_eq!(summed_balance(&r.body), TOTAL);
    let vacuumed = || {
        let m = http_call(addr, "GET", "/metrics", "", TIMEOUT).unwrap();
        let j = Json::parse(&m.body).unwrap();
        j.get("graph").unwrap().get("vacuumed_versions").and_then(Json::as_u64).unwrap()
    };
    let patience = Instant::now() + Duration::from_secs(5);
    while vacuumed() == 0 && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(vacuumed() > 0, "vacuum daemon reclaimed superseded versions during churn");

    let report = handle.shutdown();
    assert_eq!(report.completed, report.admitted);
    assert_eq!(report.rejected, 0, "12 clients over 8 workers + depth-32 queue never saturate");
}

/// Admission control, deterministically: one worker held busy by a
/// stalled connection, a one-deep queue filled by a second — every
/// further client must be shed with 429 while nothing is dropped
/// silently.
#[test]
fn saturated_server_sheds_excess_clients_with_429() {
    let (_db, graph) = account_graph();
    let mut cfg = config(1, 1);
    cfg.read_timeout = Duration::from_secs(3);
    let handle = GraphServer::start(graph, cfg).unwrap();
    let addr = handle.addr();

    // Occupy the single worker: connect and send nothing. The worker
    // blocks in its read until the 3 s read timeout.
    let hold_worker = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    // Fill the one queue slot the same way.
    let hold_queue = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(200));

    // Worker busy + queue full ⇒ every further arrival is shed — and
    // every shed carries an honest, finite `Retry-After` hint.
    for i in 0..5 {
        let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT)
            .unwrap_or_else(|e| panic!("shed client {i} got no response: {e}"));
        assert_eq!(r.status, 429, "client {i}: {}", r.body);
        let body = Json::parse(&r.body).unwrap();
        assert!(body.get("error").is_some());
        let hint: u64 = r
            .header("retry-after")
            .unwrap_or_else(|| panic!("shed client {i} got no Retry-After header"))
            .parse()
            .expect("Retry-After is an integer number of seconds");
        assert!((1..=60).contains(&hint), "Retry-After {hint} outside [1, 60]");
        assert_eq!(body.get("retry_after_seconds").and_then(Json::as_u64), Some(hint));
    }
    assert!(handle.metrics().rejected() >= 5);
    assert!(handle.metrics().retry_after_hints() >= 5, "every shed computed a hint");

    // Once the stalled connections age out, capacity returns.
    drop(hold_worker);
    drop(hold_queue);
    std::thread::sleep(Duration::from_millis(100));
    let r = http_call(addr, "POST", "/query", "g.V().count()", TIMEOUT).unwrap();
    assert_eq!(r.status, 200, "{}", r.body);

    let report = handle.shutdown();
    assert_eq!(report.completed, report.admitted);
    assert!(report.rejected >= 5);
}

/// One raw request/response exchange, returning everything the server
/// sent. `None` means the connection yielded zero bytes (refused mid-dial
/// or dropped before admission) — the acceptable shutdown outcome.
fn raw_post(addr: SocketAddr, path: &str, body: &str) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let req = format!(
        "POST {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    if stream.write_all(req.as_bytes()).is_err() {
        return None; // never reached the server's request loop
    }
    let mut bytes = Vec::new();
    match stream.read_to_end(&mut bytes) {
        Ok(_) => Some(bytes),
        // A reset with zero bytes is "provably nothing"; a reset after
        // bytes arrived would be a torn response — surface it.
        Err(_) if bytes.is_empty() => None,
        Err(e) => panic!("connection torn mid-response after {} bytes: {e}", bytes.len()),
    }
}

/// Assert `bytes` is one complete HTTP response: status 200, a
/// Content-Length matching the actual body, and a conserved balance.
fn assert_complete_response(bytes: &[u8]) {
    let text = std::str::from_utf8(bytes).expect("response is UTF-8");
    let head_end = text.find("\r\n\r\n").expect("response has a full header block");
    let (head, body) = (&text[..head_end], &text[head_end + 4..]);
    assert!(head.starts_with("HTTP/1.1 200"), "expected 200, got {head}");
    let content_length: usize = head
        .lines()
        .find_map(|l| l.to_ascii_lowercase().strip_prefix("content-length:").map(str::to_owned))
        .expect("content-length present")
        .trim()
        .parse()
        .unwrap();
    assert_eq!(body.len(), content_length, "body truncated");
    assert_eq!(summed_balance(body), TOTAL);
}

/// Shutdown fires while clients and writers are mid-load. Every client
/// observes complete-or-nothing; the drain report proves no admitted
/// connection was abandoned.
#[test]
fn shutdown_mid_load_drains_admitted_work_completely() {
    let (db, graph) = account_graph();
    let handle = GraphServer::start(graph, config(2, 16)).unwrap();
    let addr = handle.addr();

    let stop_writers = Arc::new(AtomicBool::new(false));
    let full_responses = Arc::new(AtomicUsize::new(0));
    let empty_outcomes = Arc::new(AtomicUsize::new(0));
    std::thread::scope(|s| {
        for _ in 0..2usize {
            let db = db.clone();
            let stop = stop_writers.clone();
            s.spawn(move || {
                let mut r = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let from = r % ACCOUNTS;
                    let to = (r * 5 + 3) % ACCOUNTS;
                    db.transaction(|db| {
                        db.execute(&format!(
                            "UPDATE Account SET balance = balance - 2 WHERE aid = {from}"
                        ))?;
                        db.execute(&format!(
                            "UPDATE Account SET balance = balance + 2 WHERE aid = {to}"
                        ))?;
                        Ok(())
                    })
                    .unwrap();
                    r += 1;
                }
            });
        }
        let clients: Vec<_> = (0..8usize)
            .map(|_| {
                let full = full_responses.clone();
                let empty = empty_outcomes.clone();
                s.spawn(move || {
                    for _ in 0..200 {
                        match raw_post(addr, "/query", "g.V().values('balance').sum()") {
                            Some(bytes) => {
                                assert_complete_response(&bytes);
                                full.fetch_add(1, Ordering::Relaxed);
                            }
                            None => {
                                // Listener gone or connection un-admitted:
                                // the server is shutting down; stop dialing.
                                empty.fetch_add(1, Ordering::Relaxed);
                                break;
                            }
                        }
                    }
                })
            })
            .collect();

        // Let the load establish, then pull the plug mid-flight.
        std::thread::sleep(Duration::from_millis(250));
        let report = handle.shutdown();
        assert_eq!(
            report.completed, report.admitted,
            "an admitted connection was dropped without a response"
        );

        for c in clients {
            c.join().unwrap();
        }
        stop_writers.store(true, Ordering::Relaxed);
    });

    assert!(full_responses.load(Ordering::Relaxed) >= 8, "load was established before shutdown");
    // The database outlives the server: the final committed state still
    // conserves the total.
    let sum =
        db.execute("SELECT SUM(balance) FROM Account").unwrap().scalar().unwrap().as_i64().unwrap();
    assert_eq!(sum as u64, TOTAL);
}
