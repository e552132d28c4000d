//! Set-up, warm-up and the timed load of one workload.
//!
//! The end-to-end path calls only `linkbench::{generate, materialize,
//! overlay_config}`, `Db2Graph::{open_with_options, run, metrics,
//! register_graph_query}`, `Database::{execute, open_with}`,
//! `GraphServer::start`, `ServerHandle::{addr, shutdown}` and the HTTP
//! wire, so refactors behind those entry points cannot break it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use db2graph_core::{Db2Graph, GraphOptions};
use db2graph_server::{GraphServer, ServerConfig, ServerHandle};
use linkbench::gen::GraphData;
use linkbench::{generate, materialize, overlay_config, LinkBenchConfig, NUM_TYPES};
use reldb::{Database, Durability};

use crate::http::HttpClient;
use crate::measure::{median, OpenLoop, Samples};
use crate::model::{answer_of_gvalues, answer_of_reply, answer_of_rows, Answer};
use crate::workloads::{Call, Kind, Op, Plan, Spec, WriterPlan};

/// Where the benchmark writes (data directories, trace files): inside the
/// checkout, relative to the directory the command is run from.
pub const OUT_DIR: &str = "benchmark/out";

/// Slow-query threshold of the production-shaped server. Configuring one
/// at all is what routes every query through the observed pipeline.
const SLOW_QUERY: Duration = Duration::from_millis(100);

/// A dataset loaded into the program, with a server in front where the
/// workload wants one.
pub struct Fixture {
    pub db: Arc<Database>,
    pub graph: Arc<Db2Graph>,
    pub server: Option<ServerHandle>,
    /// The durable data directory (`mixed_rw.http`), removed on drop.
    pub data_dir: Option<PathBuf>,
}

impl Fixture {
    pub fn driver(&self) -> Driver {
        match &self.server {
            Some(server) => Driver::Http(HttpClient::new(server.addr())),
            None => Driver::Embedded {
                graph: self.graph.clone(),
                db: self.db.clone(),
            },
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.shutdown();
        }
        if let Some(dir) = &self.data_dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

fn dataset_config(spec: &Spec, seed: u64, smoke: bool) -> LinkBenchConfig {
    let vertices = if smoke {
        spec.vertices / 10
    } else {
        spec.vertices
    };
    LinkBenchConfig {
        seed,
        ..LinkBenchConfig::small().with_vertices(vertices)
    }
}

/// Load the dataset into a durable database through SQL, one commit (one
/// WAL fsync under `Durability::Always`) per 1 000-row `INSERT`.
fn load_durable(dir: &Path, data: &GraphData) -> Arc<Database> {
    let db = Database::open_with(dir, Durability::Always).expect("open data dir");
    let run = |sql: String| {
        db.execute(&sql)
            .unwrap_or_else(|e| panic!("set-up statement failed: {e}: {sql:.120}"));
    };
    for k in 0..NUM_TYPES {
        run(format!(
            "CREATE TABLE nodes_vt{k} (id BIGINT PRIMARY KEY, version BIGINT, time BIGINT, data VARCHAR)"
        ));
        run(format!(
            "CREATE TABLE links_et{k} (id1 BIGINT NOT NULL, id2 BIGINT NOT NULL, \
             visibility BIGINT, time BIGINT, version BIGINT, data VARCHAR)"
        ));
        run(format!(
            "CREATE INDEX ix_links_et{k}_id1 ON links_et{k} (id1)"
        ));
        run(format!(
            "CREATE INDEX ix_links_et{k}_id2 ON links_et{k} (id2)"
        ));
    }
    let mut rows: Vec<Vec<String>> = vec![Vec::new(); 2 * NUM_TYPES];
    for n in &data.nodes {
        let k: usize = n.label[2..].parse().expect("label vtK");
        rows[k].push(format!("({},{},{},'{}')", n.id, n.version, n.time, n.data));
    }
    for l in &data.links {
        let k: usize = l.label[2..].parse().expect("label etK");
        rows[NUM_TYPES + k].push(format!(
            "({},{},{},{},{},'{}')",
            l.id1, l.id2, l.visibility, l.time, l.version, l.data
        ));
    }
    for (t, rows) in rows.iter().enumerate() {
        let table = if t < NUM_TYPES {
            format!("nodes_vt{t}")
        } else {
            format!("links_et{}", t - NUM_TYPES)
        };
        for chunk in rows.chunks(1_000) {
            run(format!("INSERT INTO {table} VALUES {}", chunk.join(",")));
        }
    }
    Arc::new(db)
}

fn build(spec: &Spec, data: &GraphData, clients: usize, data_dir: Option<PathBuf>) -> Fixture {
    let mixed = spec.kind == Kind::MixedRw;
    let db = match &data_dir {
        Some(dir) => load_durable(dir, data),
        None => materialize(data).expect("materialize").0,
    };
    let options = GraphOptions {
        slow_query_nanos: mixed.then_some(SLOW_QUERY.as_nanos() as u64),
        ..GraphOptions::default()
    };
    let graph =
        Db2Graph::open_with_options(db.clone(), &overlay_config(), options).expect("open overlay");
    if spec.kind == Kind::Scan {
        graph.register_graph_query("graphQuery");
    }
    let server = spec.http.then(|| {
        let config = ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: clients,
            sql_endpoint: mixed,
            ..ServerConfig::default()
        };
        GraphServer::start(graph.clone(), config).expect("start server")
    });
    Fixture {
        db,
        graph,
        server,
        data_dir,
    }
}

/// Generate, load, open and serve the dataset `repeats` times, keeping the
/// last; returns it with the median time of one set-up.
pub fn set_up(
    spec: &Spec,
    seed: u64,
    smoke: bool,
    clients: usize,
    repeats: usize,
) -> (GraphData, Fixture, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for i in 0..repeats {
        drop(kept.take());
        let dir = (spec.kind == Kind::MixedRw).then(|| {
            let dir = PathBuf::from(format!("{OUT_DIR}/data.{}.{i}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        });
        let start = Instant::now();
        let data = generate(&dataset_config(spec, seed, smoke));
        let fixture = build(spec, &data, clients, dir);
        times.push(start.elapsed().as_secs_f64());
        kept = Some((data, fixture));
    }
    let (data, fixture) = kept.expect("at least one set-up");
    (data, fixture, median(&times))
}

/// Fill the lazily populated adjacency cache the way a long-running
/// process would have: expand every vertex once through ordinary queries.
/// Stops early once the cache starts evicting — from then on it is at its
/// budget, which is the steady state the spill workload measures.
pub fn prefill_adjacency(graph: &Db2Graph, vertices: u64) {
    let before = graph.metrics();
    let ids: Vec<String> = (0..vertices).map(|v| v.to_string()).collect();
    for chunk in ids.chunks(2_500) {
        // `dedup()` keeps the first hop a plain vertex step, which is the
        // step the cache serves (without it the hop folds into one edge
        // scan).
        let query = format!("g.V({}).dedup().out().dedup().count()", chunk.join(","));
        graph.run(&query).expect("prefill query");
        if graph.metrics().since(&before).adj_cache_evictions > 0 {
            break;
        }
    }
}

/// How one client reaches the program.
pub enum Driver {
    Embedded {
        graph: Arc<Db2Graph>,
        db: Arc<Database>,
    },
    Http(HttpClient),
}

impl Driver {
    /// Execute one operation and digest its result.
    pub fn call(&mut self, op: &Op) -> Result<Answer, String> {
        match self {
            Driver::Embedded { graph, db } => match op.call {
                Call::Gremlin => graph
                    .run(&op.text)
                    .map(|v| answer_of_gvalues(&v))
                    .map_err(|e| e.to_string()),
                Call::Sql => db
                    .execute(&op.text)
                    .map(|r| answer_of_rows(&r))
                    .map_err(|e| e.to_string()),
            },
            Driver::Http(client) => {
                let path = if op.call == Call::Gremlin {
                    "/query"
                } else {
                    "/sql"
                };
                let reply = client
                    .post(path, op.text.as_bytes())
                    .map_err(|e| e.to_string())?;
                if reply.status != 200 {
                    return Err(format!("HTTP {}", reply.status));
                }
                if op.write {
                    return Ok(Answer::default());
                }
                answer_of_reply(&reply.body).ok_or_else(|| "malformed reply body".to_string())
            }
        }
    }
}

/// Outcome counters of one client (or of all, merged).
#[derive(Default)]
pub struct Tally {
    pub latency: Samples,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, op: &Op, outcome: Result<Answer, String>, latency: Duration) {
        self.attempted += 1;
        let problem = match outcome {
            Ok(answer) if op.expect.accepts(&answer) => {
                self.latency.push(latency);
                return;
            }
            Ok(answer) => format!("wrong answer {answer:?}, expected {:?}", op.expect),
            Err(e) => e,
        };
        self.fail(format!("{problem}: {:.100}", op.text));
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(what);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.latency.merge(other.latency);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(5);
    }
}

pub struct WriterResult {
    pub tally: Tally,
    pub lateness: Samples,
    pub acked: u64,
}

pub struct LoadResult {
    pub reads: Tally,
    pub writer: Option<WriterResult>,
    pub warmup_s: f64,
    /// Timed wall clock, first operation to last completion.
    pub wall_s: f64,
}

/// Hands out operation indexes to the closed-loop clients and ends the
/// run on a block boundary once the time is up.
struct Dispatch<'a> {
    ops: &'a [Op],
    block: usize,
    next: AtomicUsize,
    stop_at: AtomicUsize,
    base: Instant,
    /// Nanoseconds after `base` at which the measured time is up; set
    /// between warm-up and the timed part.
    deadline_ns: AtomicU64,
    /// Hard stop: operations not finished by then count as failed.
    guard_ns: AtomicU64,
}

impl Dispatch<'_> {
    fn closed_loop(&self, driver: &mut Driver) -> Tally {
        let mut tally = Tally::default();
        loop {
            let i = self.next.fetch_add(1, Ordering::SeqCst);
            let now = self.base.elapsed().as_nanos() as u64;
            if now >= self.deadline_ns.load(Ordering::SeqCst) {
                // Every index below `next` is claimed and will run; finish
                // the block they end in.
                let end = self
                    .next
                    .load(Ordering::SeqCst)
                    .min(i + 1)
                    .div_ceil(self.block)
                    * self.block;
                let _ = self.stop_at.compare_exchange(
                    usize::MAX,
                    end,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                );
            }
            let stop_at = self.stop_at.load(Ordering::SeqCst);
            if i >= stop_at {
                return tally;
            }
            if now >= self.guard_ns.load(Ordering::SeqCst) {
                tally.fail(format!(
                    "unfinished at the wall-clock guard: op {i} of {stop_at}"
                ));
                continue;
            }
            let op = &self.ops[i % self.ops.len()];
            let start = Instant::now();
            let outcome = driver.call(op);
            tally.record(op, outcome, start.elapsed());
        }
    }
}

fn open_loop(mut plan: WriterPlan, driver: &mut Driver, stop: &AtomicBool) -> WriterResult {
    let mut schedule = OpenLoop::new(plan.rate_per_s);
    let mut tally = Tally::default();
    let mut acked = 0;
    while !stop.load(Ordering::SeqCst) {
        let due = schedule.wait_until_due();
        let op = Op::write(plan.next_insert());
        let outcome = driver.call(&op);
        acked += outcome.is_ok() as u64;
        tally.record(&op, outcome, due.elapsed());
    }
    WriterResult {
        tally,
        lateness: schedule.lateness,
        acked,
    }
}

/// Warm up over `plan.warmup`, then run `plan.ops` in whole blocks for
/// about `seconds` on `clients` closed-loop clients (plus the open-loop
/// writer where the plan has one).
pub fn run_load(fixture: &Fixture, plan: &Plan, clients: usize, seconds: f64) -> LoadResult {
    let dispatch = Dispatch {
        ops: &plan.ops,
        block: plan.block,
        next: AtomicUsize::new(0),
        stop_at: AtomicUsize::new(usize::MAX),
        base: Instant::now(),
        deadline_ns: AtomicU64::new(u64::MAX),
        guard_ns: AtomicU64::new(u64::MAX),
    };
    let readers_done = AtomicBool::new(false);
    let parties = clients + plan.writer.is_some() as usize + 1;
    let (warmed, go) = (Barrier::new(parties), Barrier::new(parties));
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..clients)
            .map(|c| {
                let (dispatch, warmed, go) = (&dispatch, &warmed, &go);
                scope.spawn(move || {
                    let mut driver = fixture.driver();
                    let mut warm = Tally::default();
                    for op in plan.warmup.iter().skip(c).step_by(clients) {
                        let outcome = driver.call(op);
                        warm.record(op, outcome, Duration::ZERO);
                    }
                    warmed.wait();
                    go.wait();
                    let mut tally = dispatch.closed_loop(&mut driver);
                    let end = Instant::now();
                    // Warm-up answers are checked too; their timings are not kept.
                    tally.attempted += warm.attempted;
                    tally.failed += warm.failed;
                    tally.errors.extend(warm.errors);
                    (tally, end)
                })
            })
            .collect();
        let writer = plan.writer.clone().map(|writer_plan| {
            let (warmed, go, readers_done) = (&warmed, &go, &readers_done);
            scope.spawn(move || {
                let mut driver = fixture.driver();
                warmed.wait();
                go.wait();
                open_loop(writer_plan, &mut driver, readers_done)
            })
        });

        let warm_start = Instant::now();
        warmed.wait();
        let warmup_s = warm_start.elapsed().as_secs_f64();
        let now = dispatch.base.elapsed();
        let guard = Duration::from_secs_f64((seconds * 2.0).max(seconds + 20.0).min(120.0));
        dispatch.deadline_ns.store(
            (now + Duration::from_secs_f64(seconds)).as_nanos() as u64,
            Ordering::SeqCst,
        );
        dispatch
            .guard_ns
            .store((now + guard).as_nanos() as u64, Ordering::SeqCst);
        go.wait();
        let start = Instant::now();

        let mut reads = Tally::default();
        let mut end = start;
        for reader in readers {
            let (tally, finished) = reader.join().expect("reader thread");
            reads.merge(tally);
            end = end.max(finished);
        }
        readers_done.store(true, Ordering::SeqCst);
        let writer = writer.map(|w| w.join().expect("writer thread"));
        LoadResult {
            reads,
            writer,
            warmup_s,
            wall_s: (end - start).as_secs_f64(),
        }
    })
}

/// Shut the server down and release the database; for a durable fixture
/// return what `links_et0` + `links_et1` hold on reopening its directory.
/// Acknowledged commits must all be there, in pairs.
pub fn shut_down_and_count_rows(mut fixture: Fixture) -> Option<Result<i64, String>> {
    let dir = fixture.data_dir.take();
    drop(fixture);
    let dir = dir?;
    let count = || -> Result<i64, String> {
        let db = Database::open_with(&dir, Durability::Always).map_err(|e| e.to_string())?;
        let mut total = 0;
        for table in ["links_et0", "links_et1"] {
            let rows = db
                .execute(&format!("SELECT COUNT(*) FROM {table}"))
                .map_err(|e| e.to_string())?;
            total += rows
                .scalar()
                .and_then(|v| v.as_i64().ok())
                .ok_or("COUNT(*) returned no integer")?;
        }
        Ok(total)
    };
    let rows = count();
    let _ = std::fs::remove_dir_all(&dir);
    Some(rows)
}
