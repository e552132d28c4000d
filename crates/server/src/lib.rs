//! # db2graph-server — the network surface of the graph
//!
//! A dependency-free HTTP/1.1 query service over `std::net`, fronting a
//! [`Db2Graph`] the way a Gremlin server fronts the paper's TinkerPop
//! stack. Design points, all load-bearing:
//!
//! * **Fixed acceptor + worker pool.** One thread accepts; `workers`
//!   threads execute. Max in-flight requests is exactly the worker
//!   count — queries never oversubscribe the process.
//! * **Admission control.** Accepted connections enter a bounded queue;
//!   when it is full the acceptor sheds the connection with `429`
//!   immediately instead of queuing unboundedly.
//! * **Per-request snapshot.** Every `/query` pins one committed MVCC
//!   snapshot for its whole script (via `Db2Graph::run`'s existing
//!   pinning), so a response can never observe half of a concurrent
//!   writer's transaction.
//! * **Per-request deadline.** `query_timeout` converts to a deadline the
//!   backend checks before every SQL statement; an expired query aborts
//!   with `503` and counts in `query_timeouts`.
//! * **Hostile-input limits.** Read timeout, header budget, body budget;
//!   malformed HTTP, JSON, or Gremlin is a structured `400`, never a
//!   panic.
//! * **Graceful shutdown.** Stop accepting, drain everything already
//!   admitted, join every thread. After shutdown,
//!   `completed == admitted`: zero dropped in-flight queries.
//! * **One background thread.** The session reaper, MVCC vacuum and
//!   checkpoints, and the SLO monitor are tasks in one scheduler's table
//!   (see [`background`]); a follower's WAL apply loop is a second,
//!   one-task scheduler. Their work reports through `/metrics`.
//!
//! See `docs/SERVER.md` for the endpoint reference and curl examples.

pub mod background;
pub mod client;
pub mod gjson;
pub mod http;
pub mod metrics;
pub mod monitor;
pub mod promtext;
pub mod replica;
pub mod session;

use std::collections::VecDeque;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

use db2graph_core::json::Json;
use db2graph_core::{
    lookup_knob, Db2Graph, EventLog, GraphError, GraphOptions, RunRequest, DEFAULT_ROTATE_BYTES,
};
use reldb::Database;

use crate::background::{Background, Pass, Task};
use crate::gjson::gvalue_to_json;
use crate::http::{HttpError, Request};
use crate::metrics::ServerMetrics;
use crate::monitor::{Health, SloTargets};
use crate::replica::ReplicaMetrics;
use crate::session::{SessionError, SessionManager};

pub use crate::client::{
    http_call, http_call_bytes, http_call_bytes_with_headers, http_call_with_headers, post_query,
    HttpBytesResponse, HttpClient, HttpResponse,
};

/// How long a keep-alive connection may sit idle between requests before
/// the server closes it.
const KEEPALIVE_IDLE: Duration = Duration::from_secs(5);

/// Serving knobs. `Default` is production-shaped; [`ServerConfig::from_env`]
/// layers the `DB2GRAPH_*` environment on top.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; `:0` picks an ephemeral port (see
    /// [`ServerHandle::addr`]). Env: `DB2GRAPH_HTTP_ADDR`.
    pub addr: String,
    /// Worker threads — the hard cap on in-flight requests.
    /// Env: `DB2GRAPH_MAX_INFLIGHT`.
    pub workers: usize,
    /// Accepted connections waiting for a worker beyond the in-flight
    /// cap; when full, new arrivals are shed with 429 (clamped ≥ 1).
    pub queue_depth: usize,
    /// Per-query execution budget; `None` disables deadlines.
    /// Env: `DB2GRAPH_QUERY_TIMEOUT_MS` (0 disables).
    pub query_timeout: Option<Duration>,
    /// Total budget for reading one request — head and body together —
    /// against slow or stalled clients (408). A per-request deadline, not
    /// a per-read idle timeout: dripping bytes does not renew it.
    pub read_timeout: Duration,
    /// Request head budget (431 beyond it).
    pub max_header_bytes: usize,
    /// Request body budget (413 beyond it).
    pub max_body_bytes: usize,
    /// Requests one keep-alive connection may serve before the server
    /// closes it (clamped ≥ 1; 1 restores one-request-per-connection).
    /// The budget — together with the 5 s idle limit — keeps a persistent
    /// connection from squatting a worker forever.
    /// Env: `DB2GRAPH_KEEPALIVE_REQUESTS`.
    pub keepalive_requests: usize,
    /// How long an HTTP session (an open cross-request transaction) may
    /// sit idle before the reaper rolls it back.
    /// Env: `DB2GRAPH_SESSION_IDLE_MS`.
    pub session_idle: Duration,
    /// Vacuum period; `None` disables the vacuum task (and with it
    /// periodic checkpoints).
    pub vacuum_interval: Option<Duration>,
    /// Checkpoint cadence, run by the vacuum task; `None` disables
    /// periodic checkpoints. Ignored for an in-memory database.
    /// Env: `DB2GRAPH_CHECKPOINT_MS` (0 disables).
    pub checkpoint_interval: Option<Duration>,
    /// Enable `POST /sql`, the raw-SQL administration channel. It can
    /// mutate or drop any table and carries no authentication, so it is
    /// opt-in and off by default — the graph endpoints stay read-only.
    /// When disabled the endpoint answers 403.
    /// Env: `DB2GRAPH_SQL_ENDPOINT` (`1`/`true` to enable).
    pub sql_endpoint: bool,
    /// Follow a primary at `host:port` instead of serving standalone: the
    /// server becomes a log-shipping read replica — it bootstraps from the
    /// primary's checkpoint, tails its WAL, serves every read endpoint at
    /// the applied epoch, and answers writes 403 pointing at the primary.
    /// Replicas serve from memory; `DB2GRAPH_DATA_DIR` is ignored (a
    /// restarted replica re-bootstraps). Env: `DB2GRAPH_REPLICA_OF`.
    pub replica_of: Option<String>,
    /// How often a caught-up replica polls the primary for new WAL
    /// records (while behind it streams without pausing).
    /// Env: `DB2GRAPH_REPLICA_POLL_MS`.
    pub replica_poll: Duration,
    /// Mirror every operational event to this JSONL file, rotated to
    /// `<path>.1` once it reaches [`DEFAULT_ROTATE_BYTES`] (8 MiB); `None`
    /// keeps events in the in-memory ring only. Env: `DB2GRAPH_EVENT_LOG`.
    pub event_log_path: Option<String>,
    /// SLO targets for the health monitor; the monitor task runs only
    /// when at least one is set. Envs: `DB2GRAPH_SLO_P99_MS`,
    /// `DB2GRAPH_SLO_ERROR_PCT`, `DB2GRAPH_MAX_REPLICA_LAG`,
    /// `DB2GRAPH_SLO_FSYNC_P99_MS`, `DB2GRAPH_SLO_MAX_SESSIONS`.
    pub slo: SloTargets,
    /// Monitor evaluation period. Env: `DB2GRAPH_MONITOR_MS`.
    pub monitor_interval: Duration,
    /// Rolling window the SLOs are evaluated over.
    /// Env: `DB2GRAPH_MONITOR_WINDOW_MS`.
    pub monitor_window: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:8182".into(),
            workers: 8,
            queue_depth: 64,
            query_timeout: Some(Duration::from_secs(30)),
            read_timeout: Duration::from_secs(10),
            max_header_bytes: 8 * 1024,
            max_body_bytes: 1024 * 1024,
            keepalive_requests: 1000,
            session_idle: Duration::from_secs(30),
            vacuum_interval: Some(Duration::from_secs(1)),
            checkpoint_interval: Some(Duration::from_secs(60)),
            sql_endpoint: false,
            replica_of: None,
            replica_poll: Duration::from_millis(100),
            event_log_path: None,
            slo: SloTargets::default(),
            monitor_interval: Duration::from_millis(500),
            monitor_window: Duration::from_secs(60),
        }
    }
}

impl ServerConfig {
    /// Defaults overridden by the process environment:
    /// [`Self::with_lookup`] over `std::env::var`.
    pub fn from_env() -> ServerConfig {
        ServerConfig::default().with_lookup(|name| std::env::var(name).ok())
    }

    /// Override each field whose variable `get` reports: `DB2GRAPH_HTTP_ADDR`,
    /// `DB2GRAPH_MAX_INFLIGHT`, `DB2GRAPH_QUERY_TIMEOUT_MS`,
    /// `DB2GRAPH_CHECKPOINT_MS`, `DB2GRAPH_KEEPALIVE_REQUESTS`,
    /// `DB2GRAPH_SESSION_IDLE_MS`, `DB2GRAPH_SQL_ENDPOINT`,
    /// `DB2GRAPH_REPLICA_OF`, `DB2GRAPH_REPLICA_POLL_MS`,
    /// `DB2GRAPH_EVENT_LOG`, the SLO targets (`DB2GRAPH_SLO_P99_MS`,
    /// `DB2GRAPH_SLO_ERROR_PCT`, `DB2GRAPH_MAX_REPLICA_LAG`,
    /// `DB2GRAPH_SLO_FSYNC_P99_MS`, `DB2GRAPH_SLO_MAX_SESSIONS`) and the
    /// monitor cadence (`DB2GRAPH_MONITOR_MS`, `DB2GRAPH_MONITOR_WINDOW_MS`).
    /// An unset variable keeps the field; a value that does not parse
    /// records one `config_warning` and keeps it too. The data directory
    /// and durability knobs belong to [`GraphOptions::open_database`].
    pub fn with_lookup(mut self, get: impl Fn(&str) -> Option<String>) -> ServerConfig {
        use std::str::FromStr;
        const DEFAULT: &str = "built-in default";
        fn num<T: FromStr>(get: &dyn Fn(&str) -> Option<String>, name: &str) -> Option<T> {
            lookup_knob(get, name, DEFAULT, |v| v.parse().ok())
        }
        let get: &dyn Fn(&str) -> Option<String> = &get;
        let ms = |name| num::<u64>(get, name);
        let text = |name| {
            lookup_knob(get, name, "", |v| Some(v.to_owned())).filter(|s: &String| !s.is_empty())
        };
        let millis = Duration::from_millis;
        self.addr = text("DB2GRAPH_HTTP_ADDR").unwrap_or(self.addr);
        self.workers = num(get, "DB2GRAPH_MAX_INFLIGHT").map_or(self.workers, |n: usize| n.max(1));
        if let Some(ms) = ms("DB2GRAPH_QUERY_TIMEOUT_MS") {
            self.query_timeout = (ms > 0).then(|| millis(ms));
        }
        if let Some(ms) = ms("DB2GRAPH_CHECKPOINT_MS") {
            self.checkpoint_interval = (ms > 0).then(|| millis(ms));
        }
        self.keepalive_requests = num(get, "DB2GRAPH_KEEPALIVE_REQUESTS")
            .map_or(self.keepalive_requests, |n: usize| n.max(1));
        self.session_idle =
            ms("DB2GRAPH_SESSION_IDLE_MS").map_or(self.session_idle, |ms| millis(ms.max(1)));
        let sql = lookup_knob(get, "DB2GRAPH_SQL_ENDPOINT", DEFAULT, |v| {
            Some(matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "yes"))
        });
        self.sql_endpoint = sql.unwrap_or(self.sql_endpoint);
        self.replica_of = text("DB2GRAPH_REPLICA_OF").or(self.replica_of);
        self.replica_poll =
            ms("DB2GRAPH_REPLICA_POLL_MS").map_or(self.replica_poll, |ms| millis(ms.max(1)));
        self.event_log_path = text("DB2GRAPH_EVENT_LOG").or(self.event_log_path);
        let slo = &mut self.slo;
        slo.p99_ms = num(get, "DB2GRAPH_SLO_P99_MS").or(slo.p99_ms);
        slo.error_pct = num(get, "DB2GRAPH_SLO_ERROR_PCT").or(slo.error_pct);
        slo.max_replica_lag = num(get, "DB2GRAPH_MAX_REPLICA_LAG").or(slo.max_replica_lag);
        slo.fsync_p99_ms = num(get, "DB2GRAPH_SLO_FSYNC_P99_MS").or(slo.fsync_p99_ms);
        slo.max_sessions = num(get, "DB2GRAPH_SLO_MAX_SESSIONS").or(slo.max_sessions);
        self.monitor_interval =
            ms("DB2GRAPH_MONITOR_MS").map_or(self.monitor_interval, |ms| millis(ms.max(10)));
        self.monitor_window =
            ms("DB2GRAPH_MONITOR_WINDOW_MS").map_or(self.monitor_window, |ms| millis(ms.max(100)));
        self
    }

    /// Open the database this configuration describes. A replica
    /// (`replica_of`) always serves from memory — its durability story is
    /// re-bootstrapping from the primary — and is synchronized with the
    /// primary before returning, so the graph overlay constructed over it
    /// reads a populated catalog. Otherwise this is
    /// [`GraphOptions::open_database`]: durable when `DB2GRAPH_DATA_DIR`
    /// is set, in-memory otherwise.
    pub fn open_database(&self) -> reldb::DbResult<Arc<Database>> {
        let Some(primary) = &self.replica_of else {
            return GraphOptions::default().open_database();
        };
        let db = Arc::new(Database::new());
        replica::sync_once(&db, primary, self.read_timeout, Duration::from_secs(30))
            .map_err(reldb::DbError::Io)?;
        Ok(db)
    }
}

/// Follower identity, present only when serving as a read replica: who
/// the primary is (for 403 redirects and metrics labels) and the apply
/// loop's counters.
pub(crate) struct ReplicaInfo {
    pub(crate) primary: String,
    pub(crate) metrics: Arc<ReplicaMetrics>,
}

/// State shared by the acceptor, the workers, the background tasks, and
/// the handle.
pub(crate) struct Shared {
    pub(crate) graph: Arc<Db2Graph>,
    pub(crate) config: ServerConfig,
    pub(crate) metrics: ServerMetrics,
    /// `Some` when this server is a log-shipping follower.
    pub(crate) replica: Option<ReplicaInfo>,
    /// The structured operational event log (ring + optional JSONL file),
    /// served by `GET /events`.
    pub(crate) events: Arc<EventLog>,
    /// The SLO monitor's current verdict, served by `GET /readyz`.
    /// Default (never evaluated) is "ready".
    pub(crate) health: Mutex<Health>,
    /// Process start, for `uptime_seconds`.
    pub(crate) started: Instant,
    /// Request-id prefix: server start time in unix millis, hex. Makes
    /// generated ids unique across restarts, not just within a process.
    pub(crate) request_epoch: u64,
    /// Monotonic suffix for generated request ids.
    pub(crate) request_seq: AtomicU64,
    /// Admitted connections waiting for a worker.
    pub(crate) queue: Mutex<VecDeque<TcpStream>>,
    pub(crate) queue_cv: Condvar,
    /// Once true: the acceptor exits, workers drain the queue and exit.
    pub(crate) shutdown: AtomicBool,
    /// Open HTTP transaction sessions (id → reldb session transaction).
    pub(crate) sessions: SessionManager,
    /// Live `http-shed` courtesy threads (bounded; see [`shed`]).
    pub(crate) shedding: AtomicUsize,
    /// Join handles for shed threads, pruned as they finish; shutdown
    /// joins the stragglers so in-flight 429s complete before the
    /// [`DrainReport`] is final.
    pub(crate) shed_threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    /// The request's correlation id: the client's `X-Request-Id` when it
    /// sent a usable one, else a generated `{epoch_hex}-{seq}`. Client
    /// ids are sanitized (header-safe charset, bounded length) because
    /// they are echoed into a response header and logs.
    pub(crate) fn request_id(&self, req: Option<&Request>) -> String {
        if let Some(claimed) = req.and_then(|r| r.header("x-request-id")) {
            let cleaned: String = claimed
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.' | ':'))
                .take(64)
                .collect();
            if !cleaned.is_empty() {
                return cleaned;
            }
        }
        let seq = self.request_seq.fetch_add(1, Ordering::Relaxed) + 1;
        format!("{:x}-{seq}", self.request_epoch)
    }
}

/// The graph query service. [`GraphServer::start`] binds, spawns the
/// thread pool and the background scheduler, and returns a
/// [`ServerHandle`].
pub struct GraphServer;

impl GraphServer {
    pub fn start(graph: Arc<Db2Graph>, config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        // The event log first: the background tasks and the database hook
        // all write into it. An unopenable sink file degrades to ring-only
        // (with a stderr note) rather than refusing to serve.
        let events = match &config.event_log_path {
            Some(path) => {
                match EventLog::new().with_file_sink(path, DEFAULT_ROTATE_BYTES) {
                    Ok(log) => Arc::new(log),
                    Err(e) => {
                        eprintln!(
                            "db2graph-server: cannot open event log '{path}': {e}; \
                             keeping events in memory only"
                        );
                        Arc::new(EventLog::new())
                    }
                }
            }
            None => Arc::new(EventLog::new()),
        };
        // Storage-level happenings (checkpoints, WAL rotation, write
        // conflicts) surface through the database's event hook; this
        // adapter translates them into the server's event stream.
        {
            let sink = events.clone();
            graph.database().set_event_hook(Some(Arc::new(move |e: &reldb::DbEvent| {
                let _ = match e {
                    reldb::DbEvent::CheckpointBegin { epoch } => {
                        sink.emit("checkpoint_begin", vec![("epoch", Json::u64(*epoch))])
                    }
                    reldb::DbEvent::CheckpointEnd { epoch, wall_nanos } => sink.emit(
                        "checkpoint_end",
                        vec![
                            ("epoch", Json::u64(*epoch)),
                            ("wall_nanos", Json::u64(*wall_nanos)),
                        ],
                    ),
                    reldb::DbEvent::WalRotation { cut_seq } => {
                        sink.emit("wal_rotation", vec![("cut_seq", Json::u64(*cut_seq))])
                    }
                    reldb::DbEvent::TxnConflict { detail } => {
                        sink.emit("txn_conflict", vec![("detail", Json::str(detail.clone()))])
                    }
                };
            })));
        }
        // A follower keeps itself current on its own thread: the apply
        // task tails the primary's WAL and applies commits while the
        // workers serve reads at whatever epoch has been applied so far.
        // It blocks on the primary for up to `read_timeout` per step, so
        // it does not share the other tasks' clock.
        let replica = config.replica_of.clone().map(|primary| ReplicaInfo {
            primary,
            metrics: Arc::new(ReplicaMetrics::default()),
        });
        let replica_apply = replica.as_ref().map(|rep| {
            let task = replica::apply_task(
                graph.database().clone(),
                rep.primary.clone(),
                config.replica_poll,
                config.read_timeout,
                events.clone(),
                rep.metrics.clone(),
            );
            Background::start("replica-apply", vec![task], events.clone())
        });
        let request_epoch = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let shared = Arc::new(Shared {
            graph,
            config: config.clone(),
            metrics: ServerMetrics::default(),
            replica,
            events,
            health: Mutex::new(Health::default()),
            started: Instant::now(),
            request_epoch,
            request_seq: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            sessions: SessionManager::new(config.session_idle, request_epoch),
            shutdown: AtomicBool::new(false),
            shedding: AtomicUsize::new(0),
            shed_threads: Mutex::new(Vec::new()),
        });
        // Table order is shutdown order: the reaper's final pass rolls back
        // every remaining session before the final vacuum and checkpoint,
        // so the freed versions are reclaimable and the checkpoint sees no
        // uncommitted markers. The reaper ticks a few times per idle
        // window so an abandoned transaction outlives its deadline only
        // briefly.
        let mut tasks = vec![session::reaper_task(
            shared.clone(),
            (config.session_idle / 4).clamp(Duration::from_millis(10), Duration::from_secs(1)),
        )];
        if let Some(interval) = config.vacuum_interval {
            let db = shared.graph.database().clone();
            tasks.push(vacuum_task(db, shared.events.clone(), interval, config.checkpoint_interval));
        }
        if config.slo.any() {
            tasks.push(monitor::monitor_task(
                shared.clone(),
                config.slo.clone(),
                config.monitor_interval,
                config.monitor_window,
            ));
        }
        let background = Background::start("background", tasks, shared.events.clone());
        // Surface config-parse fallbacks (typed, queryable) before the
        // first request: anything the core or server env parsing rejected
        // since process start lands in the event stream here.
        shared.events.emit_config_warnings();
        shared.events.emit(
            "server_started",
            vec![
                ("addr", Json::str(addr.to_string())),
                (
                    "role",
                    Json::str(if shared.replica.is_some() { "replica" } else { "primary" }),
                ),
            ],
        );
        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("http-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("http-acceptor".into())
                .spawn(move || accept_loop(&listener, &shared))
                .expect("spawn acceptor")
        };
        Ok(ServerHandle {
            shared,
            addr,
            acceptor: Some(acceptor),
            workers,
            background: Some(background),
            replica_apply,
            drained: false,
        })
    }
}

/// MVCC maintenance on the server's clock: every `interval`, reclaim row
/// versions dead to every registered snapshot and — when the database is
/// durable and a cadence is configured — write a checkpoint so the WAL
/// stays short and recovery stays fast. With checkpoints on, the final
/// pass writes one whatever the cadence, so a clean shutdown leaves no
/// reclaimable garbage and a short WAL behind. The database counts every pass (`vacuum_runs`,
/// `vacuumed_versions`, `checkpoints` in `/metrics`).
fn vacuum_task(
    db: Arc<Database>,
    events: Arc<EventLog>,
    interval: Duration,
    checkpoint_interval: Option<Duration>,
) -> Task {
    // Checkpoints only make sense against a durable database; a cadence
    // on an in-memory one is ignored rather than erroring every tick.
    let checkpoint_interval = checkpoint_interval.filter(|_| db.is_durable());
    let mut last_checkpoint = Instant::now();
    Task::new("vacuum", interval, move |pass| {
        let n = db.vacuum() as u64;
        // Idle ticks reclaim nothing; logging them would only drown real
        // events.
        if n > 0 {
            events.emit("vacuum_run", vec![("reclaimed_versions", Json::u64(n))]);
        }
        if let Some(every) = checkpoint_interval {
            if pass == Pass::Final || last_checkpoint.elapsed() >= every {
                // A checkpoint failure (disk full, or a test-injected
                // crash) must not kill the vacuum schedule; recovery still
                // has the previous checkpoint plus the full WAL.
                if db.checkpoint().is_ok() {
                    last_checkpoint = Instant::now();
                }
            }
        }
        Some(interval)
    })
}

/// Owner of the serving threads. Dropping the handle performs a graceful
/// shutdown (prefer calling [`ServerHandle::shutdown`] explicitly).
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    /// The session reaper, vacuum and checkpoints, and the SLO monitor.
    background: Option<Background>,
    /// A follower's WAL apply loop.
    replica_apply: Option<Background>,
    /// Whether `shutdown_impl` has already run (it is called from both
    /// the explicit shutdown and `Drop`).
    drained: bool,
}

impl ServerHandle {
    /// The bound address (resolves `:0` to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serving-layer counters (admission, shedding, bytes).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// The structured operational event log (also served by `/events`).
    pub fn events(&self) -> &Arc<EventLog> {
        &self.shared.events
    }

    /// Block until the acceptor thread exits (it never does on its own —
    /// this is for serve-forever binaries that end via process signal).
    pub fn wait(mut self) {
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // The acceptor is gone; drop-time shutdown joins the rest.
    }

    /// Graceful shutdown: stop accepting, drain every admitted
    /// connection, join all threads, run a final vacuum pass. Returns
    /// once everything is down, with the final counters — a drained
    /// server always reports `completed == admitted`.
    pub fn shutdown(mut self) -> DrainReport {
        self.shutdown_impl();
        let m = &self.shared.metrics;
        DrainReport {
            admitted: m.admitted(),
            completed: m.completed(),
            rejected: m.rejected(),
            query_timeouts: m.query_timeouts(),
        }
    }

    fn shutdown_impl(&mut self) {
        if self.drained {
            return;
        }
        self.drained = true;
        // Store the flag while holding the queue mutex. A worker decides
        // to wait only after checking the flag under this same lock, so
        // once the store below completes, any worker that read `false` has
        // already released the lock by entering `wait()` (where the later
        // notify_all reaches it), and any worker checking afterwards sees
        // `true`. Storing without the lock loses the wakeup when the
        // store+notify lands between a worker's flag check and its wait,
        // hanging shutdown forever.
        {
            let _q = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        // Unblock the acceptor's blocking `accept()` by dialing it, and
        // join it *before* waking the workers: anything it admitted in the
        // meantime must still find live workers to drain it.
        let _ = TcpStream::connect(self.addr);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        // Wake every idle worker; busy ones re-check the flag after
        // finishing their request and after the queue runs dry.
        self.shared.queue_cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Let in-flight 429 courtesy threads finish writing (each is
        // bounded by the read/write timeouts) so the drain report's
        // rejected/bytes counters are final when shutdown returns.
        let stragglers: Vec<JoinHandle<()>> = {
            let mut v = self.shared.shed_threads.lock().unwrap_or_else(|e| e.into_inner());
            v.drain(..).collect()
        };
        for h in stragglers {
            let _ = h.join();
        }
        // Final passes in table order: sessions are rolled back, then the
        // last vacuum and checkpoint run.
        if let Some(b) = self.background.take() {
            b.stop();
        }
        if let Some(r) = self.replica_apply.take() {
            r.stop();
        }
        // Everything is down; the counters are final. Log the drain
        // outcome, then detach the database hook so a db that outlives
        // this server stops writing into a dead server's event log.
        let m = &self.shared.metrics;
        self.shared.events.emit(
            "drain_report",
            vec![
                ("admitted", Json::u64(m.admitted())),
                ("completed", Json::u64(m.completed())),
                ("rejected", Json::u64(m.rejected())),
                ("query_timeouts", Json::u64(m.query_timeouts())),
            ],
        );
        self.shared.graph.database().set_event_hook(None);
    }
}

/// Final counter values from [`ServerHandle::shutdown`]. The drain
/// guarantee is `completed == admitted`: no connection that made it past
/// admission was abandoned without a response.
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    pub admitted: u64,
    pub completed: u64,
    pub rejected: u64,
    pub query_timeouts: u64,
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((s, _)) => s,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // A persistent accept error (e.g. EMFILE under an fd
                // flood) would otherwise spin this loop at 100% CPU;
                // count it, then pause briefly before retrying.
                shared.metrics.accept_errors.add(1);
                std::thread::sleep(Duration::from_millis(50));
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            // The shutdown wake-up call (or a late client): drop without
            // admitting. Admitted work is still drained by the workers.
            return;
        }
        shared.metrics.accepted.add(1);
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if q.len() >= shared.config.queue_depth.max(1) {
            drop(q);
            shed(shared, stream);
            continue;
        }
        q.push_back(stream);
        drop(q);
        shared.metrics.admitted.add(1);
        shared.queue_cv.notify_one();
    }
}

/// Upper bound on concurrent courtesy-429 threads. Past this the server
/// is under a flood, not mere saturation, and connections are dropped
/// outright — shedding must never become its own resource sink.
const MAX_SHED_THREADS: usize = 32;

/// Saturated: answer 429 without occupying a worker or the acceptor.
///
/// The reject happens on a short-lived side thread because it must
/// *read the request before closing* — closing a socket with unread
/// input makes the kernel send RST, which discards the in-flight 429 —
/// and the acceptor cannot afford to block on a client's upload.
fn shed(shared: &Arc<Shared>, stream: TcpStream) {
    shared.metrics.rejected.add(1);
    if shared.shedding.fetch_add(1, Ordering::SeqCst) >= MAX_SHED_THREADS {
        shared.shedding.fetch_sub(1, Ordering::SeqCst);
        return;
    }
    let cloned = shared.clone();
    let spawned = std::thread::Builder::new().name("http-shed".into()).spawn(move || {
        answer_429(&cloned, stream);
        cloned.shedding.fetch_sub(1, Ordering::SeqCst);
    });
    match spawned {
        Ok(handle) => {
            // Keep the handle so shutdown can join stragglers; prune
            // finished ones here so the vec stays bounded by
            // MAX_SHED_THREADS plus a few already-exited entries.
            let mut v = shared.shed_threads.lock().unwrap_or_else(|e| e.into_inner());
            v.retain(|h| !h.is_finished());
            v.push(handle);
        }
        Err(_) => {
            shared.shedding.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

fn answer_429(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    // Consume the request (bounded by the same limits and total read
    // deadline as real requests) so the close below is clean; keep only
    // what correlation needs (the path and any client request id).
    let mut shed_req = None;
    if let Ok(req) = http::read_request(
        &mut stream,
        shared.config.max_header_bytes,
        shared.config.max_body_bytes,
        shared.config.read_timeout,
        &mut Vec::new(),
    ) {
        shared.metrics.bytes_in.add(req.wire_bytes);
        shed_req = Some(req);
    }
    let request_id = shared.request_id(shed_req.as_ref());
    // The honest part of the shed: when to come back, from the queue's
    // observed drain rate, as both a header and a JSON field.
    let queued = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    let retry_after = shared.metrics.retry_after_secs(queued as u64);
    let body = Json::obj(vec![
        ("error", Json::str("server saturated, retry later")),
        ("rejected", Json::Bool(true)),
        ("retry_after_seconds", Json::u64(retry_after)),
        ("request_id", Json::str(request_id.clone())),
    ])
    .to_compact();
    let retry_after = retry_after.to_string();
    if let Ok(n) = http::write_response_with(
        &mut stream,
        429,
        "application/json",
        body.as_bytes(),
        false,
        true,
        &[("X-Request-Id", &request_id), ("Retry-After", &retry_after)],
    ) {
        shared.metrics.bytes_out.add(n);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    shared.events.emit(
        "request_shed",
        vec![
            ("request_id", Json::str(request_id)),
            (
                "path",
                match &shed_req {
                    Some(r) => Json::str(r.path.clone()),
                    None => Json::Null,
                },
            ),
        ],
    );
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        match stream {
            Some(s) => handle_connection(shared, s),
            // Queue drained after shutdown: the worker may exit.
            None => return,
        }
    }
}

/// A routed response body: JSON everywhere except the replication
/// endpoints, which ship binary WAL frames and checkpoint images.
enum Payload {
    Json(Json),
    Bytes { content_type: &'static str, data: Vec<u8> },
}

/// Every endpoint path and the methods it answers (its `Allow` header).
/// The latency labels, the 405-versus-404 decision and the `Allow` header
/// all read this one list.
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

/// The `Allow` header value for a known path, for 405 responses. `None`
/// for unknown paths (those 404 instead).
fn allowed_methods(path: &str) -> Option<&'static str> {
    ROUTES.iter().find(|(p, _)| *p == path).map(|&(_, methods)| methods)
}

/// Normalize a request path to a bounded endpoint label for the
/// per-endpoint latency histograms and events. Unknown paths are
/// client-controlled strings, so they fold into one bucket rather than
/// growing the label set.
fn endpoint_label(path: &str) -> &str {
    if allowed_methods(path).is_some() {
        path
    } else {
        "<other>"
    }
}

/// Why the keep-alive idle wait ended.
enum IdleWait {
    /// Bytes are waiting: serve the next request.
    Ready,
    /// The connection must close: idle deadline, peer hangup, or server
    /// shutdown.
    Close,
}

/// Wait for the first byte of the next request on a kept-alive
/// connection, bounded by [`KEEPALIVE_IDLE`]. The wait `peek`s in ≤100 ms
/// slices so a shutdown is noticed promptly even while a connection
/// squats idle — a worker parked here must not stall the drain.
fn wait_for_next_request(shared: &Shared, stream: &mut TcpStream) -> IdleWait {
    let deadline = Instant::now() + KEEPALIVE_IDLE;
    let mut byte = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return IdleWait::Close;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return IdleWait::Close;
        }
        let _ = stream.set_read_timeout(Some(remaining.min(Duration::from_millis(100))));
        match stream.peek(&mut byte) {
            Ok(0) => return IdleWait::Close,
            Ok(_) => return IdleWait::Ready,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(_) => return IdleWait::Close,
        }
    }
}

/// The persistent-connection request loop: serve requests off one
/// connection until the client asks to close, the per-connection budget
/// runs out, the idle window lapses, or an error makes the stream's
/// framing untrustworthy.
///
/// Admission accounting is per *request*: the queue admission that got
/// this connection here pays for its first request; every further
/// request on the same connection increments `admitted` (and
/// `keepalive_reuses`) as it arrives, so the drain invariant
/// `completed == admitted` holds at request grain.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _gauge = shared.metrics.enter();
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_nodelay(true);
    let budget = shared.config.keepalive_requests.max(1);
    let mut carry: Vec<u8> = Vec::new();
    let mut served: usize = 0;
    loop {
        // Between requests (not before the first: it was admitted because
        // bytes were on the way), wait for the next one — unless the
        // client already pipelined it into the carry buffer.
        if served > 0 && carry.is_empty() {
            match wait_for_next_request(shared, &mut stream) {
                IdleWait::Ready => {}
                IdleWait::Close => break,
            }
        }
        if !serve_one(shared, &mut stream, &mut carry, served, budget) {
            break;
        }
        served += 1;
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Read, route, and answer one request on the connection. Returns whether
/// the connection should serve another.
fn serve_one(
    shared: &Shared,
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
    served: usize,
    budget: usize,
) -> bool {
    let started = Instant::now();
    let mut head_only = false;
    let mut request_id = None;
    let mut method = String::new();
    // Requests that die before parsing still get a latency sample and an
    // event, under a reserved label.
    let mut endpoint = "<unparsed>".to_string();
    // Close after this response when the budget is spent or the server is
    // draining; the request itself (Connection: close, framing errors)
    // can also force it below.
    let mut close = served + 1 >= budget || shared.shutdown.load(Ordering::SeqCst);
    let mut allow: Option<&'static str> = None;
    let (status, payload) = match http::read_request(
        stream,
        shared.config.max_header_bytes,
        shared.config.max_body_bytes,
        shared.config.read_timeout,
        carry,
    ) {
        Ok(req) => {
            if served > 0 {
                shared.metrics.admitted.add(1);
                shared.metrics.keepalive_reuses.add(1);
            }
            shared.metrics.bytes_in.add(req.wire_bytes);
            head_only = req.method == "HEAD";
            method = req.method.clone();
            endpoint = endpoint_label(&req.path).to_string();
            close |= req.close;
            let rid = shared.request_id(Some(&req));
            let out = route(shared, &req, &rid);
            if out.0 == 405 {
                allow = allowed_methods(&req.path);
            }
            request_id = Some(rid);
            out
        }
        Err(HttpError::Closed) => {
            // Nothing arrived. The first request was pre-paid by the
            // queue admission, so balance it; a reused connection going
            // quiet costs nothing.
            if served == 0 {
                shared.metrics.completed.add(1);
            }
            return false;
        }
        Err(e) => {
            // A read-layer failure leaves the stream's framing unknown;
            // the connection cannot be reused.
            close = true;
            if served > 0 {
                shared.metrics.admitted.add(1);
                shared.metrics.keepalive_reuses.add(1);
            }
            let (status, msg) = match e {
                HttpError::Timeout => (408, "request read timed out".to_string()),
                HttpError::HeadersTooLarge => (431, "request head too large".to_string()),
                HttpError::BodyTooLarge => (413, "request body too large".to_string()),
                HttpError::Malformed(m) => (400, m),
                HttpError::Unsupported(m) => (501, m),
                HttpError::Io(e) => (400, format!("transport error: {e}")),
                HttpError::Closed => unreachable!("handled above"),
            };
            if status == 400 || status == 413 || status == 431 {
                shared.metrics.bad_requests.add(1);
            }
            (status, Payload::Json(Json::obj(vec![("error", Json::str(msg))])))
        }
    };
    let request_id = request_id.unwrap_or_else(|| shared.request_id(None));
    // A graph-deadline 503 carries `"timeout": true`; surface it (and the
    // read-timeout 408) as a distinct event kind.
    let timed_out = status == 408
        || matches!(&payload, Payload::Json(j) if status == 503 && j.get("timeout").is_some());
    // Every error response carries the correlation id in its JSON body as
    // well as the header, so a copy-pasted error alone is traceable.
    let payload = if status >= 400 {
        shared.metrics.error_responses.add(1);
        match payload {
            Payload::Json(Json::Obj(mut fields)) => {
                if !fields.iter().any(|(k, _)| k == "request_id") {
                    fields.push(("request_id".into(), Json::str(request_id.clone())));
                }
                Payload::Json(Json::Obj(fields))
            }
            other => other,
        }
    } else {
        payload
    };
    let (content_type, body) = match payload {
        Payload::Json(j) => ("application/json", j.to_compact().into_bytes()),
        Payload::Bytes { content_type, data } => (content_type, data),
    };
    let mut extra: Vec<(&str, &str)> = vec![("X-Request-Id", &request_id)];
    if let Some(methods) = allow {
        extra.push(("Allow", methods));
    }
    // Overload answers are honest about when to come back: every 429/503
    // carries a Retry-After computed from the queue's observed drain
    // rate. (429s from this path are rare — most sheds happen in
    // `answer_429` — but a loaded `/readyz` 503 takes the same hint.)
    let retry_after;
    if status == 429 || status == 503 {
        let queued = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
        retry_after = shared.metrics.retry_after_secs(queued as u64).to_string();
        extra.push(("Retry-After", &retry_after));
    }
    let mut keep = !close;
    match http::write_response_with(stream, status, content_type, &body, head_only, close, &extra)
    {
        Ok(n) => shared.metrics.bytes_out.add(n),
        // A client that vanished mid-response cannot be served further.
        Err(_) => keep = false,
    }
    shared.metrics.completed.add(1);
    let latency_nanos = started.elapsed().as_nanos() as u64;
    shared.metrics.record_endpoint_latency(&endpoint, latency_nanos);
    shared.events.emit(
        if timed_out { "request_timed_out" } else { "request_completed" },
        vec![
            ("request_id", Json::str(request_id)),
            ("method", Json::str(method)),
            ("endpoint", Json::str(endpoint)),
            ("status", Json::u64(status as u64)),
            ("latency_nanos", Json::u64(latency_nanos)),
        ],
    );
    keep
}

/// Pull the Gremlin script out of a request body: either a JSON object
/// `{"gremlin": "..."}` / JSON string, or the raw body verbatim. Raw
/// Gremlin can't start with `{` or `"`, so the sniff is unambiguous.
fn extract_gremlin(body: &[u8]) -> Result<String, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not valid UTF-8".to_string())?;
    let trimmed = text.trim_start();
    if trimmed.starts_with('{') || trimmed.starts_with('"') {
        let json = Json::parse(text).map_err(|e| format!("bad JSON body: {e}"))?;
        match &json {
            Json::Str(s) => Ok(s.clone()),
            Json::Obj(_) => json
                .get("gremlin")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| "JSON body must have a string 'gremlin' field".to_string()),
            _ => Err("JSON body must be an object or a string".to_string()),
        }
    } else if text.trim().is_empty() {
        Err("empty query body".to_string())
    } else {
        Ok(text.to_string())
    }
}

/// Classify a graph error into a response. Parse/config/runtime-usage
/// errors are the client's fault (400); deadline expiry is 503 so retry
/// policies treat it as load, not as a bad query; storage errors are 500.
fn graph_error_response(shared: &Shared, e: GraphError) -> (u16, Json) {
    let status = match &e {
        GraphError::Timeout => {
            shared.metrics.query_timeouts.add(1);
            503
        }
        GraphError::Gremlin(_) | GraphError::Config(_) => {
            shared.metrics.bad_requests.add(1);
            400
        }
        GraphError::Db(_) => 500,
    };
    let mut fields = vec![("error", Json::str(e.to_string()))];
    if status == 503 {
        fields.push(("timeout", Json::Bool(true)));
    }
    (status, Json::obj(fields))
}

fn route(shared: &Shared, req: &Request, request_id: &str) -> (u16, Payload) {
    // HEAD is answered as a headers-only GET: same status and
    // Content-Length as the GET would carry, no body bytes
    // (`handle_connection` suppresses them).
    let method = if req.method == "HEAD" { "GET" } else { req.method.as_str() };
    match (method, req.path.as_str()) {
        ("GET", "/wal") => route_wal(shared, req),
        ("GET", "/checkpoint") => route_checkpoint(shared),
        ("GET", "/metrics") if wants_prometheus(req) => (
            200,
            Payload::Bytes {
                content_type: "text/plain; version=0.0.4",
                data: render_prometheus(shared).into_bytes(),
            },
        ),
        _ => {
            let (status, json) = route_json(shared, req, method, request_id);
            (status, Payload::Json(json))
        }
    }
}

/// Content negotiation for `/metrics`: Prometheus scrapers send
/// `Accept: text/plain`; `?format=prometheus` forces it for curl.
fn wants_prometheus(req: &Request) -> bool {
    if req.query_param("format") == Some("prometheus") {
        return true;
    }
    req.header("accept").is_some_and(|a| a.contains("text/plain"))
}

/// The Prometheus rendering of `/metrics`, built from the *same* metric
/// rows the JSON form serves (see [`promtext::render`]).
fn render_prometheus(shared: &Shared) -> String {
    let queued = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
    promtext::render(
        &shared.graph.metrics(),
        shared.graph.dialect().registry(),
        &shared.metrics,
        queued,
        shared.replica.as_ref().map(|rep| (rep.primary.as_str(), rep.metrics.as_ref())),
        shared.graph.database().as_ref(),
        shared.events.as_ref(),
        shared.started.elapsed().as_secs(),
    )
}

/// Primary side of log shipping: ship committed WAL frames from
/// `from_seq` as a binary batch (see [`replica::encode_ship`]). `410`
/// tells the follower its position has rotated out of the log — it must
/// re-bootstrap from `/checkpoint`; `403` means this server has no WAL
/// to ship (in-memory, or itself a replica).
fn route_wal(shared: &Shared, req: &Request) -> (u16, Payload) {
    let Some(from_seq) = req.query_param("from_seq").and_then(|s| s.parse::<u64>().ok()) else {
        let (status, json) =
            bad_request(shared, "GET /wal requires an integer from_seq query parameter".into());
        return (status, Payload::Json(json));
    };
    match shared.graph.database().wal_tail(from_seq, replica::MAX_SHIP_BYTES) {
        Ok(reldb::WalTailResult::Tail(tail)) => (
            200,
            Payload::Bytes {
                content_type: "application/octet-stream",
                data: replica::encode_ship(&tail),
            },
        ),
        Ok(reldb::WalTailResult::Gap { base_seq }) => (
            410,
            Payload::Json(Json::obj(vec![
                (
                    "error",
                    Json::str("requested wal position is gone; bootstrap from /checkpoint"),
                ),
                ("base_seq", Json::u64(base_seq)),
            ])),
        ),
        Err(e) => {
            let status = match e {
                reldb::DbError::Unsupported(_) => 403,
                _ => 500,
            };
            (status, Payload::Json(Json::obj(vec![("error", Json::str(e.to_string()))])))
        }
    }
}

/// Serve the installed checkpoint image verbatim for follower bootstrap,
/// writing one first if the primary has never checkpointed.
fn route_checkpoint(shared: &Shared) -> (u16, Payload) {
    let db = shared.graph.database();
    let fetch = || -> reldb::DbResult<Option<Vec<u8>>> {
        if let Some(bytes) = db.checkpoint_bytes()? {
            return Ok(Some(bytes));
        }
        // Fresh primary with no image on disk yet: take a checkpoint now
        // so a follower can always bootstrap.
        db.checkpoint()?;
        db.checkpoint_bytes()
    };
    match fetch() {
        Ok(Some(data)) => {
            (200, Payload::Bytes { content_type: "application/octet-stream", data })
        }
        Ok(None) => (
            500,
            Payload::Json(Json::obj(vec![(
                "error",
                Json::str("checkpoint produced no image"),
            )])),
        ),
        Err(e) => {
            let status = match e {
                reldb::DbError::Unsupported(_) => 403,
                _ => 500,
            };
            (status, Payload::Json(Json::obj(vec![("error", Json::str(e.to_string()))])))
        }
    }
}

/// Every JSON endpoint. `method` is the request method with HEAD already
/// normalized to GET; `request_id` is the correlation id the query
/// observability chain (trace root span, slow-query log) records.
fn route_json(shared: &Shared, req: &Request, method: &str, request_id: &str) -> (u16, Json) {
    let deadline = shared.config.query_timeout.map(|t| Instant::now() + t);
    match (method, req.path.as_str()) {
        ("POST", path @ ("/query" | "/profile")) => match extract_gremlin(&req.body) {
            Ok(g) => in_session(shared, req, || {
                let run = RunRequest {
                    deadline,
                    request_id: Some(request_id),
                    profile: path == "/profile",
                };
                match shared.graph.execute(&g, &run) {
                    Ok((values, report)) => {
                        let results: Vec<Json> = values.iter().map(gvalue_to_json).collect();
                        let mut body = vec![
                            ("count", Json::u64(results.len() as u64)),
                            ("result", Json::arr(results)),
                        ];
                        if let Some(report) = report {
                            body.push(("profile", report.to_json()));
                        }
                        (200, Json::obj(body))
                    }
                    Err(e) => graph_error_response(shared, e),
                }
            }),
            Err(m) => bad_request(shared, m),
        },
        ("POST", "/explain") => match extract_gremlin(&req.body) {
            Ok(g) => match shared.graph.explain_report(&g) {
                Ok(report) => (200, report.to_json()),
                Err(e) => graph_error_response(shared, e),
            },
            Err(m) => bad_request(shared, m),
        },
        ("POST", "/sql") => {
            // Raw SQL against the underlying database — the seeding and
            // administration channel (the graph endpoints stay read-only
            // Gremlin). Returns the last statement's result set. Because
            // it can mutate or drop anything, it must be opted into.
            if let Some(rep) = &shared.replica {
                // A follower's state is a function of the primary's log;
                // local writes would silently diverge it.
                return (
                    403,
                    Json::obj(vec![
                        (
                            "error",
                            Json::str(format!(
                                "read-only replica: writes must go to the primary at {}",
                                rep.primary
                            )),
                        ),
                        ("primary", Json::str(rep.primary.clone())),
                    ]),
                );
            }
            if !shared.config.sql_endpoint {
                return (
                    403,
                    Json::obj(vec![(
                        "error",
                        Json::str(
                            "SQL endpoint disabled; opt in with \
                             ServerConfig::sql_endpoint or DB2GRAPH_SQL_ENDPOINT=1",
                        ),
                    )]),
                );
            }
            let Ok(sql) = std::str::from_utf8(&req.body) else {
                return bad_request(shared, "SQL body is not valid UTF-8".into());
            };
            if sql.trim().is_empty() {
                return bad_request(shared, "empty SQL body".into());
            }
            let db = shared.graph.database();
            let in_a_session = req.header("x-db2graph-session").is_some();
            in_session(shared, req, || match db.execute_script(sql) {
                // A transaction outlives a request only as a session: one a
                // script leaves open (no COMMIT, or a statement after BEGIN
                // failed) would stay adopted by this worker thread, and the
                // next request it serves would run inside it.
                result if !in_a_session && db.in_transaction() => {
                    let _ = db.execute("ROLLBACK");
                    let failure = result.err().map_or(String::new(), |e| format!("{e}; "));
                    bad_request(
                        shared,
                        format!(
                            "{failure}the script left a transaction open, so it was rolled \
                             back; end it with COMMIT in the same script, or use POST /session \
                             for a transaction spanning requests"
                        ),
                    )
                }
                Ok(rs) => {
                    let columns: Vec<Json> =
                        rs.columns.iter().map(|c| Json::str(c.clone())).collect();
                    let rows: Vec<Json> = rs
                        .rows
                        .iter()
                        .map(|row| Json::arr(row.iter().map(sql_value_to_json).collect()))
                        .collect();
                    (
                        200,
                        Json::obj(vec![
                            ("count", Json::u64(rows.len() as u64)),
                            ("columns", Json::arr(columns)),
                            ("rows", Json::arr(rows)),
                        ]),
                    )
                }
                Err(e) => bad_request(shared, e.to_string()),
            })
        }
        ("POST", "/session") => {
            if let Some(rep) = &shared.replica {
                // A session is a write transaction waiting to happen; a
                // follower cannot host one.
                return (
                    403,
                    Json::obj(vec![
                        (
                            "error",
                            Json::str(format!(
                                "read-only replica: open sessions on the primary at {}",
                                rep.primary
                            )),
                        ),
                        ("primary", Json::str(rep.primary.clone())),
                    ]),
                );
            }
            let sid = shared.sessions.begin(shared.graph.database());
            shared.metrics.sessions_began.add(1);
            shared.metrics.sessions_open.add(1);
            shared.events.emit("session_began", vec![("session", Json::str(sid.clone()))]);
            (200, Json::obj(vec![("session", Json::str(sid))]))
        }
        ("POST", "/session/commit" | "/session/rollback") => {
            let commit = req.path.ends_with("/commit");
            let Some(sid) = req.header("x-db2graph-session") else {
                return bad_request(
                    shared,
                    "session endpoints require the X-Db2Graph-Session header".into(),
                );
            };
            match shared.sessions.end(sid, shared.graph.database(), commit) {
                Err(e) => session_error_response(e),
                Ok(Ok(())) => {
                    shared.metrics.sessions_open.sub(1);
                    let (kind, field) = if commit {
                        shared.metrics.sessions_committed.add(1);
                        ("session_committed", "committed")
                    } else {
                        shared.metrics.sessions_rolled_back.add(1);
                        ("session_rolled_back", "rolled_back")
                    };
                    shared.events.emit(kind, vec![("session", Json::str(sid.to_string()))]);
                    (200, Json::obj(vec![(field, Json::Bool(true))]))
                }
                Ok(Err(e)) => {
                    // The transaction is over either way: a failed commit
                    // rolled its writes back.
                    shared.metrics.sessions_open.sub(1);
                    shared.metrics.sessions_rolled_back.add(1);
                    shared
                        .events
                        .emit("session_rolled_back", vec![("session", Json::str(sid.to_string()))]);
                    (500, Json::obj(vec![("error", Json::str(e.to_string()))]))
                }
            }
        }
        ("GET", "/metrics") => {
            let queued = shared.queue.lock().unwrap_or_else(|e| e.into_inner()).len();
            let mut sections = vec![
                ("graph", shared.graph.metrics().to_json()),
                ("server", shared.metrics.to_json(queued)),
            ];
            if let Some(rep) = &shared.replica {
                sections.push(("replication", rep.metrics.to_json(&rep.primary)));
            }
            (200, Json::obj(sections))
        }
        ("GET", "/slow-queries") => {
            (200, Json::obj(vec![("slow_queries", shared.graph.slow_queries_json())]))
        }
        ("GET", "/workload") => (200, shared.graph.workload_report().to_json()),
        ("GET", "/events") => {
            let since = req.query_param("since").and_then(|s| s.parse::<u64>().ok()).unwrap_or(0);
            (200, shared.events.since_json(since))
        }
        ("GET", "/healthz") => (
            200,
            Json::obj(vec![
                ("status", Json::str("ok")),
                (
                    "role",
                    Json::str(if shared.replica.is_some() { "replica" } else { "primary" }),
                ),
                ("commit_epoch", Json::u64(shared.graph.database().commit_epoch())),
                ("in_flight", Json::u64(shared.metrics.in_flight())),
                ("uptime_seconds", Json::u64(shared.started.elapsed().as_secs())),
            ]),
        ),
        ("GET", "/readyz") => {
            // Liveness (`/healthz`) says "the process answers"; readiness
            // consults the SLO monitor's verdict so load balancers stop
            // sending traffic to a degraded node — and resume when the
            // rolling window recovers, no restart needed.
            let health = shared.health.lock().unwrap_or_else(|e| e.into_inner());
            let status = if health.degraded { 503 } else { 200 };
            (status, health.to_json())
        }
        (_, path) if allowed_methods(path).is_some() => (
            405,
            Json::obj(vec![("error", Json::str(format!("method {} not allowed", req.method)))]),
        ),
        (_, path) => {
            (404, Json::obj(vec![("error", Json::str(format!("no such endpoint '{path}'")))]))
        }
    }
}

fn bad_request(shared: &Shared, msg: String) -> (u16, Json) {
    shared.metrics.bad_requests.add(1);
    (400, Json::obj(vec![("error", Json::str(msg))]))
}

/// Execute `f` inside the transaction named by the request's
/// `X-Db2Graph-Session` header — its reads see the session's uncommitted
/// writes, its writes join the session's undo log — or plainly when the
/// header is absent.
fn in_session(shared: &Shared, req: &Request, f: impl FnOnce() -> (u16, Json)) -> (u16, Json) {
    match req.header("x-db2graph-session") {
        None => f(),
        Some(sid) => match shared.sessions.with(sid, shared.graph.database(), f) {
            Ok(out) => out,
            Err(e) => session_error_response(e),
        },
    }
}

/// Map a session registry refusal to a response: an id that doesn't
/// resolve is 404 (ended, reaped, or never begun); a session already
/// executing a request is 409 — sessions serialize their own requests.
fn session_error_response(e: SessionError) -> (u16, Json) {
    match e {
        SessionError::Unknown => (
            404,
            Json::obj(vec![(
                "error",
                Json::str("no such session: never begun, already ended, or reaped as idle"),
            )]),
        ),
        SessionError::Busy => (
            409,
            Json::obj(vec![(
                "error",
                Json::str("session is busy serving another request"),
            )]),
        ),
    }
}

fn sql_value_to_json(v: &reldb::Value) -> Json {
    match v {
        reldb::Value::Null => Json::Null,
        // Numbers ride through f64 in the JSON layer; a BIGINT beyond
        // 2^53 would silently lose precision there, so it degrades to a
        // string instead — the same convention as element ids and Longs
        // in `gjson`.
        reldb::Value::Bigint(i) if i.unsigned_abs() <= (1u64 << 53) => Json::num(*i as f64),
        reldb::Value::Bigint(i) => Json::str(i.to_string()),
        reldb::Value::Double(d) => Json::num(*d),
        reldb::Value::Varchar(s) => Json::str(s.clone()),
        reldb::Value::Boolean(b) => Json::Bool(*b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_bigints_past_2_53_degrade_to_strings() {
        let exact = 1i64 << 53;
        assert_eq!(sql_value_to_json(&reldb::Value::Bigint(exact)).to_compact(), "9007199254740992");
        for i in [exact + 1, -(exact + 1), i64::MAX, i64::MIN] {
            let json = sql_value_to_json(&reldb::Value::Bigint(i));
            assert_eq!(json, Json::Str(i.to_string()), "{i} must not round through f64");
        }
    }
}
