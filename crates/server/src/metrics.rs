//! Serving-layer counters, separate from the graph's [`MetricsRegistry`]:
//! these measure the network surface (admission, shedding, deadlines,
//! bytes), not query execution.

use std::sync::Mutex;
use std::time::Instant;

use db2graph_core::json::Json;
use db2graph_core::metrics::json_fields;
use db2graph_core::{HistogramSet, MetricKind, MetricRow};

/// Key-set cap for the per-endpoint latency histograms: the endpoint
/// namespace is fixed and tiny, so anything past this is `<other>`.
const ENDPOINT_HISTOGRAM_KEYS: usize = 32;

db2graph_core::metric_table! {
    /// Atomic counters shared by the acceptor, every worker, and `/metrics`.
    pub struct ServerMetrics;
    /// A point-in-time copy of every [`ServerMetrics`] row.
    pub struct ServerSnapshot {
        /// Connections the acceptor pulled off the listener.
        accepted: Counter,
        /// Requests admitted into the bounded queue (request ≥ 2 of a
        /// keep-alive connection is admitted without queueing).
        admitted: Counter,
        /// Connections shed with 429 because the queue was full.
        rejected: Counter,
        /// Requests a worker finished (response written or write failed);
        /// after a graceful shutdown `completed == admitted` — zero dropped
        /// in-flight queries.
        completed: Counter,
        /// Requests answered 4xx (malformed HTTP, bad JSON, bad Gremlin).
        bad_requests: Counter,
        /// Queries aborted by the per-request deadline (503).
        query_timeouts: Counter,
        /// Request bytes read off the wire.
        bytes_in: Counter,
        /// Response bytes written to the wire.
        bytes_out: Counter,
        /// Requests currently being handled by workers.
        in_flight: Gauge,
        /// `accept()` calls that failed (fd exhaustion, transient network
        /// errors).
        accept_errors: Counter,
        /// Responses written with a 4xx/5xx status (shed 429s count under
        /// `rejected`, not here). The SLO monitor's error rate reads this.
        error_responses: Counter,
        /// Requests served on an already-used connection (request ≥ 2 of a
        /// keep-alive connection) — the churn the persistent loop saves.
        keepalive_reuses: Counter,
        /// 429/503 sheds that carried a computed `Retry-After` hint (every
        /// shed should; a gap between this and `rejected` is a bug).
        retry_after_hints: Counter,
        /// Sessions begun via `POST /session`.
        sessions_began: Counter,
        /// Sessions ended by an explicit commit.
        sessions_committed: Counter,
        /// Sessions ended by an explicit rollback.
        sessions_rolled_back: Counter,
        /// Abandoned sessions the idle reaper rolled back.
        sessions_reaped: Counter,
        /// Sessions currently open (begun, not yet ended).
        sessions_open: Gauge,
    }
    with {
        /// Wall-time latency per endpoint path, for per-endpoint p99 SLOs
        /// and the Prometheus exposition.
        endpoints: EndpointHistograms,
        /// Completion-rate sample backing the `Retry-After` estimate.
        drain: Mutex<Option<DrainSample>>,
    }
}

/// One observation of the completion counter, plus the rate derived from
/// the previous observation — the queue's measured drain rate.
#[derive(Debug, Clone, Copy)]
struct DrainSample {
    at: Instant,
    completed: u64,
    /// Requests completed per second over the last sampling window; 0.0
    /// until a window with progress has been observed.
    rate: f64,
}

/// Minimum spacing between drain-rate samples: shorter windows are noise.
const DRAIN_SAMPLE_MIN: f64 = 0.25;

/// `Retry-After` is clamped to this range: at least 1 (the smallest
/// honest integer hint), at most 60 (past a minute the estimate is
/// guesswork and clients should just re-poll).
const RETRY_AFTER_MAX_SECS: u64 = 60;

/// Wrapper so `ServerMetrics` can stay `Default` while bounding the
/// endpoint key set.
#[derive(Debug)]
struct EndpointHistograms(HistogramSet);

impl Default for EndpointHistograms {
    fn default() -> EndpointHistograms {
        EndpointHistograms(HistogramSet::new(ENDPOINT_HISTOGRAM_KEYS))
    }
}

impl ServerMetrics {
    /// Record one served request's wall time against its endpoint path.
    pub fn record_endpoint_latency(&self, endpoint: &str, nanos: u64) {
        self.endpoints.0.record(endpoint, nanos);
    }

    /// The per-endpoint latency histograms (path → log2 histogram).
    pub fn endpoint_histograms(&self) -> &HistogramSet {
        &self.endpoints.0
    }

    /// Compute the `Retry-After` hint for one shed, against the queue
    /// depth the caller observed, and count the hint.
    ///
    /// The estimate is the observed backlog (`queued` + requests mid-
    /// execution + this one) divided by the queue's measured drain rate —
    /// the completion counter's slope over the last ≥250 ms window —
    /// clamped to `[1, 60]` seconds. Before any drain has been observed
    /// (cold start, or a fully wedged pool) the honest answer is "soon,
    /// try again": 1 second, rather than a fabricated larger number.
    pub fn retry_after_secs(&self, queued: u64) -> u64 {
        self.retry_after_hints.add(1);
        let now = Instant::now();
        let completed = self.completed();
        let mut slot = self.drain.lock().unwrap_or_else(|e| e.into_inner());
        let rate = match *slot {
            None => {
                *slot = Some(DrainSample { at: now, completed, rate: 0.0 });
                0.0
            }
            Some(prev) => {
                let elapsed = now.saturating_duration_since(prev.at).as_secs_f64();
                if elapsed >= DRAIN_SAMPLE_MIN {
                    let drained = completed.saturating_sub(prev.completed);
                    let rate = drained as f64 / elapsed;
                    *slot = Some(DrainSample { at: now, completed, rate });
                    rate
                } else {
                    prev.rate
                }
            }
        };
        drop(slot);
        let backlog = queued + self.in_flight() + 1;
        if rate <= 0.0 {
            return 1;
        }
        ((backlog as f64 / rate).ceil() as u64).clamp(1, RETRY_AFTER_MAX_SECS)
    }

    /// RAII in-flight gauge increment; decrements on drop so early
    /// returns and write failures can't leak the gauge.
    pub fn enter(&self) -> InFlight<'_> {
        self.in_flight.add(1);
        InFlight { metrics: self }
    }

    /// The scalar rows of the `server` section of `/metrics`: the table,
    /// plus `queued` after `in_flight` — passed in by the caller, which
    /// owns the admission queue.
    pub fn rows(&self, queued: usize) -> Vec<MetricRow> {
        let mut rows = self.load().rows();
        let at = rows.iter().position(|r| r.name == "in_flight").map_or(rows.len(), |i| i + 1);
        let queued = MetricRow { name: "queued", kind: MetricKind::Gauge, value: queued as u64 };
        rows.insert(at, queued);
        rows
    }

    /// JSON for the `server` section of `/metrics`.
    pub fn to_json(&self, queued: usize) -> Json {
        let mut fields = json_fields(&self.rows(queued));
        fields.push(("endpoint_latency", self.endpoints.0.to_json()));
        Json::obj(fields)
    }
}

/// See [`ServerMetrics::enter`].
pub struct InFlight<'a> {
    metrics: &'a ServerMetrics,
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        self.metrics.in_flight.sub(1);
    }
}
