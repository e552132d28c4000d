//! SLO health monitor: a daemon (peer of [`crate::vacuum::VacuumDaemon`])
//! that evaluates rolling windows of the serving stack's own metrics
//! against configured targets and publishes a degradation verdict.
//!
//! `/healthz` stays pure liveness — "the process is up and answering".
//! Readiness is a different question ("should a load balancer send
//! traffic here?"), answered by `/readyz` from the [`Health`] this daemon
//! publishes: 503 naming the violated SLOs while degraded, 200 once the
//! window slides past the bad period — recovery without a restart.
//!
//! Inputs per tick: per-endpoint latency histograms (p99 over the
//! window), error/shed rate, replication lag, WAL fsync latency, and
//! admission-queue depth. All are cumulative counters/histograms, so the
//! window is computed by diffing the newest sample against the oldest
//! retained one — no per-request bookkeeping on the hot path.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use db2graph_core::json::Json;

use crate::Shared;

/// Configured SLO targets; `None` disables that check. The daemon only
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
    /// Whether any target is configured (the daemon starts only then).
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

/// One cumulative histogram capture: total count plus cumulative
/// `(upper_bound_nanos, count)` pairs.
#[derive(Debug, Clone, Default)]
struct HistCapture {
    count: u64,
    buckets: Vec<(u64, u64)>,
}

impl HistCapture {
    /// Cumulative count at or below `upper` (total count past the last
    /// recorded bucket — cumulative histograms are monotone).
    fn cum_at(&self, upper: u64) -> u64 {
        let mut last = 0;
        for &(u, c) in &self.buckets {
            if u > upper {
                return last;
            }
            last = c;
        }
        last
    }
}

/// The q-quantile of the histogram delta `now - base`, as a bucket upper
/// bound in nanos; `None` when no events landed in the window.
fn delta_quantile(now: &HistCapture, base: &HistCapture, q: f64) -> Option<u64> {
    let total = now.count.saturating_sub(base.count);
    if total == 0 {
        return None;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    for &(upper, cum_now) in &now.buckets {
        if cum_now.saturating_sub(base.cum_at(upper)) >= rank {
            return Some(upper);
        }
    }
    Some(u64::MAX)
}

/// One tick's capture of every monitored cumulative series.
struct Sample {
    at: Instant,
    completed: u64,
    rejected: u64,
    error_responses: u64,
    query_timeouts: u64,
    endpoints: HashMap<String, HistCapture>,
    fsync: HistCapture,
}

fn capture(shared: &Shared) -> Sample {
    let m = &shared.metrics;
    let endpoints = m
        .endpoint_histograms()
        .entries()
        .into_iter()
        .map(|(key, h)| {
            (key, HistCapture { count: h.count(), buckets: h.cumulative_buckets() })
        })
        .collect();
    let db = shared.graph.database();
    Sample {
        at: Instant::now(),
        completed: m.completed(),
        rejected: m.rejected(),
        error_responses: m.error_responses(),
        query_timeouts: m.query_timeouts(),
        endpoints,
        fsync: HistCapture { count: db.wal_fsync_count(), buckets: db.wal_fsync_buckets() },
    }
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// Evaluate the window `base → now` against the targets.
fn evaluate(shared: &Shared, targets: &SloTargets, now: &Sample, base: &Sample) -> Vec<String> {
    let mut violations = Vec::new();
    if let Some(limit_ms) = targets.p99_ms {
        let limit_nanos = (limit_ms * 1e6) as u64;
        for (endpoint, capture) in &now.endpoints {
            // Health probes are exempt from the latency SLO: a load
            // balancer polling /readyz while degraded must not itself
            // keep the p99 window hot and wedge the server degraded.
            if endpoint == "/healthz" || endpoint == "/readyz" {
                continue;
            }
            let empty = HistCapture::default();
            let earlier = base.endpoints.get(endpoint).unwrap_or(&empty);
            if let Some(p99) = delta_quantile(capture, earlier, 0.99) {
                if p99 > limit_nanos {
                    violations.push(format!(
                        "DB2GRAPH_SLO_P99_MS: {endpoint} p99 {:.1}ms > {limit_ms}ms",
                        ms(p99)
                    ));
                }
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
        if let Some(p99) = delta_quantile(&now.fsync, &base.fsync, 0.99) {
            if p99 > (limit_ms * 1e6) as u64 {
                violations.push(format!(
                    "DB2GRAPH_SLO_FSYNC_P99_MS: wal fsync p99 {:.1}ms > {limit_ms}ms",
                    ms(p99)
                ));
            }
        }
    }
    // Query timeouts ride the error budget; surface them explicitly when
    // they are what is eating it.
    let _ = now.query_timeouts;
    violations
}

/// The SLO monitor daemon. Same lifecycle discipline as the vacuum
/// daemon: condvar stop signal, prompt shutdown, joined handle.
pub struct MonitorDaemon {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl MonitorDaemon {
    pub(crate) fn start(
        shared: Arc<Shared>,
        targets: SloTargets,
        interval: Duration,
        window: Duration,
    ) -> MonitorDaemon {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("slo-monitor".into())
                .spawn(move || {
                    let (lock, cv) = &*stop;
                    let mut samples: VecDeque<Sample> = VecDeque::new();
                    samples.push_back(capture(&shared));
                    let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        if *stopped {
                            return;
                        }
                        let (guard, _) = cv
                            .wait_timeout(stopped, interval)
                            .unwrap_or_else(|e| e.into_inner());
                        stopped = guard;
                        if *stopped {
                            return;
                        }
                        let now = capture(&shared);
                        // The baseline is the newest retained sample at
                        // least `window` old; younger history behind it is
                        // dropped. Until the process has run that long the
                        // oldest sample serves, so a fresh server still
                        // evaluates (over a shorter, growing window).
                        while samples.len() >= 2
                            && now.at.duration_since(samples[1].at) >= window
                        {
                            samples.pop_front();
                        }
                        let base = samples.front().expect("at least one sample");
                        let violations = evaluate(&shared, &targets, &now, base);
                        publish(&shared, violations);
                        samples.push_back(now);
                    }
                })
                .expect("spawn slo monitor")
        };
        MonitorDaemon { stop, handle: Some(handle) }
    }

    /// Signal the thread and join it.
    pub fn stop(mut self) {
        self.stop_impl();
    }

    fn stop_impl(&mut self) {
        let Some(handle) = self.handle.take() else { return };
        let (lock, cv) = &*self.stop;
        *lock.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        let _ = handle.join();
    }
}

impl Drop for MonitorDaemon {
    fn drop(&mut self) {
        self.stop_impl();
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_quantile_diffs_cumulative_histograms() {
        // base: 10 events all <= 1023ns. now: those plus 10 at ~1ms.
        let base = HistCapture { count: 10, buckets: vec![(1023, 10)] };
        let now = HistCapture { count: 20, buckets: vec![(1023, 10), (1_048_575, 20)] };
        let p99 = delta_quantile(&now, &base, 0.99).unwrap();
        assert_eq!(p99, 1_048_575);
        // p50 of the delta is also in the millisecond bucket: all 10 new
        // events landed there.
        assert_eq!(delta_quantile(&now, &base, 0.50).unwrap(), 1_048_575);
        // No new events → no verdict.
        assert!(delta_quantile(&base, &base, 0.99).is_none());
    }

    #[test]
    fn cum_at_handles_missing_buckets() {
        let c = HistCapture { count: 7, buckets: vec![(15, 3), (1023, 7)] };
        assert_eq!(c.cum_at(7), 0);
        assert_eq!(c.cum_at(15), 3);
        assert_eq!(c.cum_at(500), 3);
        assert_eq!(c.cum_at(1023), 7);
        assert_eq!(c.cum_at(u64::MAX), 7);
    }
}
