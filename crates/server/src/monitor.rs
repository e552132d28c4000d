//! SLO health monitor: a [`background`](crate::background) task that
//! evaluates rolling windows of the serving stack's own metrics against
//! configured targets and publishes a degradation verdict.
//!
//! `/healthz` stays pure liveness — "the process is up and answering".
//! Readiness is a different question ("should a load balancer send
//! traffic here?"), answered by `/readyz` from the [`Health`] this task
//! publishes: 503 naming the violated SLOs while degraded, 200 once the
//! window slides past the bad period — recovery without a restart.
//!
//! Inputs per tick: per-endpoint latency histograms (p99 over the
//! window), error/shed rate, replication lag, WAL fsync latency, and
//! admission-queue depth. All are cumulative counters/histograms, so the
//! window is computed by diffing the newest sample against the oldest
//! retained one — no per-request bookkeeping on the hot path.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use db2graph_core::json::Json;
use db2graph_core::HistogramSnapshot;

use crate::background::{Pass, Task};
use crate::Shared;

/// Configured SLO targets; `None` disables that check. The monitor only
/// runs when at least one target is set.
#[derive(Debug, Clone, Default)]
pub struct SloTargets {
    /// Per-endpoint p99 latency ceiling, milliseconds
    /// (`DB2GRAPH_SLO_P99_MS`).
    pub p99_ms: Option<f64>,
    /// Error + shed percentage ceiling over the window
    /// (`DB2GRAPH_SLO_ERROR_PCT`).
    pub error_pct: Option<f64>,
    /// Replication-lag ceiling in WAL records, follower side
    /// (`DB2GRAPH_MAX_REPLICA_LAG`).
    pub max_replica_lag: Option<u64>,
    /// WAL fsync p99 ceiling, milliseconds (`DB2GRAPH_SLO_FSYNC_P99_MS`).
    pub fsync_p99_ms: Option<f64>,
    /// Open-session ceiling (`DB2GRAPH_SLO_MAX_SESSIONS`): a pile-up of
    /// open transactions pins the vacuum horizon, so it is a readiness
    /// signal like replica lag — a level, not a rate, read directly off
    /// the gauge rather than windowed.
    pub max_sessions: Option<u64>,
}

impl SloTargets {
    /// Whether any target is configured (the monitor runs only then).
    pub fn any(&self) -> bool {
        self.p99_ms.is_some()
            || self.error_pct.is_some()
            || self.max_replica_lag.is_some()
            || self.fsync_p99_ms.is_some()
            || self.max_sessions.is_some()
    }
}

/// The published verdict `/readyz` serves.
#[derive(Debug, Clone, Default)]
pub struct Health {
    pub degraded: bool,
    /// One human-readable line per violated SLO, each naming the knob
    /// (e.g. `DB2GRAPH_SLO_P99_MS: /query p99 42.3ms > 5ms`).
    pub violations: Vec<String>,
}

impl Health {
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("status", Json::str(if self.degraded { "degraded" } else { "ready" })),
            (
                "violations",
                Json::arr(self.violations.iter().map(|v| Json::str(v.clone())).collect()),
            ),
        ])
    }
}

/// One tick's capture of every monitored cumulative series.
struct Sample {
    at: Instant,
    completed: u64,
    rejected: u64,
    error_responses: u64,
    endpoints: HashMap<String, HistogramSnapshot>,
    fsync: HistogramSnapshot,
}

fn capture(shared: &Shared) -> Sample {
    let m = &shared.metrics;
    let endpoints =
        m.endpoint_histograms().entries().into_iter().map(|(key, h)| (key, h.snapshot())).collect();
    Sample {
        at: Instant::now(),
        completed: m.completed(),
        rejected: m.rejected(),
        error_responses: m.error_responses(),
        endpoints,
        fsync: shared.graph.database().metrics().wal_fsync.snapshot(),
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Evaluate the window `base → now` against the targets. A latency
/// window with no values has a p99 of 0, which breaks no ceiling.
fn evaluate(shared: &Shared, targets: &SloTargets, now: &Sample, base: &Sample) -> Vec<String> {
    let mut violations = Vec::new();
    if let Some(limit_ms) = targets.p99_ms {
        let limit_nanos = (limit_ms * 1e6) as u64;
        for (endpoint, snapshot) in &now.endpoints {
            // Health probes are exempt from the latency SLO: a load
            // balancer polling /readyz while degraded must not itself
            // keep the p99 window hot and wedge the server degraded.
            if endpoint == "/healthz" || endpoint == "/readyz" {
                continue;
            }
            let earlier = base.endpoints.get(endpoint).copied().unwrap_or_default();
            let p99 = snapshot.since(&earlier).percentile(0.99);
            if p99 > limit_nanos {
                violations.push(format!(
                    "DB2GRAPH_SLO_P99_MS: {endpoint} p99 {:.1}ms > {limit_ms}ms",
                    ms(p99)
                ));
            }
        }
    }
    if let Some(limit_pct) = targets.error_pct {
        let served = now.completed.saturating_sub(base.completed);
        let shed = now.rejected.saturating_sub(base.rejected);
        let errors = now.error_responses.saturating_sub(base.error_responses) + shed;
        let denom = served + shed;
        if denom > 0 {
            let pct = 100.0 * errors as f64 / denom as f64;
            if pct > limit_pct {
                violations.push(format!(
                    "DB2GRAPH_SLO_ERROR_PCT: {pct:.2}% of {denom} requests errored or shed \
                     > {limit_pct}%"
                ));
            }
        }
    }
    if let Some(limit) = targets.max_replica_lag {
        if let Some(rep) = &shared.replica {
            let lag = rep.metrics.replication_lag_records();
            if lag > limit {
                violations.push(format!(
                    "DB2GRAPH_MAX_REPLICA_LAG: {lag} records behind {} > {limit}",
                    rep.primary
                ));
            }
        }
    }
    if let Some(limit) = targets.max_sessions {
        let open = shared.metrics.sessions_open();
        if open > limit {
            violations.push(format!(
                "DB2GRAPH_SLO_MAX_SESSIONS: {open} open sessions > {limit}"
            ));
        }
    }
    if let Some(limit_ms) = targets.fsync_p99_ms {
        let p99 = now.fsync.since(&base.fsync).percentile(0.99);
        if p99 > (limit_ms * 1e6) as u64 {
            violations.push(format!(
                "DB2GRAPH_SLO_FSYNC_P99_MS: wal fsync p99 {:.1}ms > {limit_ms}ms",
                ms(p99)
            ));
        }
    }
    violations
}

/// The SLO monitor, run every `interval` over a rolling `window`. It has
/// nothing to do on the final pass.
pub(crate) fn monitor_task(
    shared: Arc<Shared>,
    targets: SloTargets,
    interval: Duration,
    window: Duration,
) -> Task {
    let mut samples = VecDeque::from([capture(&shared)]);
    Task::new("slo-monitor", interval, move |pass| {
        if pass == Pass::Final {
            return None;
        }
        let now = capture(&shared);
        // The baseline is the newest retained sample at least `window`
        // old; younger history behind it is dropped. Until the process has
        // run that long the oldest sample serves, so a fresh server still
        // evaluates (over a shorter, growing window).
        while samples.len() >= 2 && now.at.duration_since(samples[1].at) >= window {
            samples.pop_front();
        }
        let base = samples.front().expect("at least one sample");
        let violations = evaluate(&shared, &targets, &now, base);
        publish(&shared, violations);
        samples.push_back(now);
        Some(interval)
    })
}

/// Install the new verdict; on a state transition, log it to the event
/// stream so the flip is diagnosable after the fact.
fn publish(shared: &Shared, violations: Vec<String>) {
    let degraded = !violations.is_empty();
    let mut health = shared.health.lock().unwrap_or_else(|e| e.into_inner());
    let was_degraded = health.degraded;
    health.degraded = degraded;
    health.violations = violations.clone();
    drop(health);
    if degraded != was_degraded {
        let kind = if degraded { "slo_degraded" } else { "slo_recovered" };
        shared.events.emit(
            kind,
            vec![(
                "violations",
                Json::arr(violations.into_iter().map(Json::str).collect()),
            )],
        );
    }
}
