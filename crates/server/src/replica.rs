//! Log-shipping read replicas: the follower half of replication.
//!
//! A follower is an ordinary in-memory database that mirrors a durable
//! primary by pulling its WAL over HTTP and applying whole commits
//! through the same idempotent net-change path crash recovery replays:
//!
//! 1. **Tail.** `GET /wal?from_seq=N` returns a shipped batch (see
//!    [`ShippedBatch`]): raw WAL frames starting at `N`, still in their
//!    on-disk framing, plus the primary's own next sequence so the
//!    follower can compute its lag in records.
//! 2. **Apply.** [`reldb::Database::apply_wal_frames`] validates every
//!    frame (CRC + strict decode — a truncated batch is rejected, never
//!    partially applied) and publishes each commit's epoch exactly like a
//!    local writer would, so concurrent readers stay snapshot-consistent.
//! 3. **Bootstrap.** When the primary answers `410 Gone` — its WAL
//!    rotated past the follower's position, or the follower is brand new
//!    against a primary whose log no longer starts at 0 — the follower
//!    fetches `GET /checkpoint` and installs the image wholesale, then
//!    resumes tailing at the image's sequence.
//!
//! The [`ReplicaDaemon`] runs this loop in the background with
//! reconnect-and-backoff on primary loss; [`sync_once`] runs it
//! synchronously until caught up, for bootstrapping a follower *before*
//! the graph overlay reads its catalog. See `docs/REPLICATION.md`.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use db2graph_core::json::Json;
use db2graph_core::metrics::json_fields;
use db2graph_core::EventLog;
use reldb::{Database, WalTail};

use crate::client::http_call_bytes;

/// Preamble magic of a `GET /wal` response body.
pub const SHIP_MAGIC: &[u8; 8] = b"D2GSHIP1";
/// Preamble length: magic + from_seq + records + primary_next_seq.
pub const SHIP_HEADER_LEN: usize = 32;

/// Cap on frame bytes per `/wal` response; a far-behind follower catches
/// up over multiple polls instead of one giant body.
pub const MAX_SHIP_BYTES: usize = 4 << 20;

db2graph_core::metric_table! {
    /// Gauges and counters for the replication section of `/metrics`.
    pub struct ReplicaMetrics;
    /// A point-in-time copy of every [`ReplicaMetrics`] row.
    pub struct ReplicaSnapshot {
        /// Highest commit epoch the follower has published locally.
        replica_applied_epoch: Gauge,
        /// Records the primary had beyond our position at the last
        /// successful poll (`primary_next_seq - next_seq`).
        replication_lag_records: Gauge,
        /// Polls that failed at the transport layer (primary down or
        /// unreachable) and entered backoff.
        replica_reconnects: Counter,
        /// Checkpoint-image installs (first contact and 410-triggered).
        replica_bootstraps: Counter,
        /// Total WAL records applied.
        replica_applied_records: Counter,
    }
}

impl ReplicaMetrics {
    /// JSON for the `replication` section of `/metrics`.
    pub fn to_json(&self, primary: &str) -> Json {
        let mut fields = vec![("primary", Json::str(primary))];
        fields.extend(json_fields(&self.load().rows()));
        Json::obj(fields)
    }
}

// ------------------------------------------------------------ wire codec

/// Encode a primary-side [`WalTail`] as a `/wal` response body.
pub fn encode_ship(tail: &WalTail) -> Vec<u8> {
    let mut out = Vec::with_capacity(SHIP_HEADER_LEN + tail.frames.len());
    out.extend_from_slice(SHIP_MAGIC);
    out.extend_from_slice(&tail.from_seq.to_le_bytes());
    out.extend_from_slice(&tail.records.to_le_bytes());
    out.extend_from_slice(&tail.primary_next_seq.to_le_bytes());
    out.extend_from_slice(&tail.frames);
    out
}

/// A decoded `/wal` response body.
#[derive(Debug)]
pub struct ShippedBatch {
    pub from_seq: u64,
    pub records: u64,
    pub primary_next_seq: u64,
    pub frames: Vec<u8>,
}

/// Decode a `/wal` response body, validating the preamble. Frame-level
/// validation (CRC, strict decode) happens in
/// [`reldb::Database::apply_wal_frames`].
pub fn decode_ship(body: &[u8]) -> Result<ShippedBatch, String> {
    if body.len() < SHIP_HEADER_LEN || &body[..8] != SHIP_MAGIC {
        return Err("shipped wal batch has a corrupt preamble".into());
    }
    let u64_at = |off: usize| u64::from_le_bytes(body[off..off + 8].try_into().unwrap());
    Ok(ShippedBatch {
        from_seq: u64_at(8),
        records: u64_at(16),
        primary_next_seq: u64_at(24),
        frames: body[SHIP_HEADER_LEN..].to_vec(),
    })
}

// ------------------------------------------------------------- apply step

/// What one replication round-trip accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// Applied `records` WAL records; `lag` remained behind the primary.
    Applied { records: u64, lag: u64 },
    /// Installed a checkpoint image after the primary reported our
    /// position gone (410).
    Bootstrapped,
}

/// A replication step failure, split by whether backing off and retrying
/// can help.
#[derive(Debug)]
pub enum StepError {
    /// Transport-level failure: primary down, unreachable, or the
    /// response was truncated. Retry with backoff.
    Transport(String),
    /// The primary answered but the payload or our apply state is wrong
    /// (corrupt stream, misconfigured primary). Retrying identically
    /// will not help; the daemon re-bootstraps.
    Protocol(String),
}

impl std::fmt::Display for StepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StepError::Transport(m) => write!(f, "transport: {m}"),
            StepError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

fn resolve(primary: &str) -> Result<SocketAddr, StepError> {
    primary
        .to_socket_addrs()
        .map_err(|e| StepError::Transport(format!("resolve {primary}: {e}")))?
        .next()
        .ok_or_else(|| StepError::Transport(format!("{primary} resolved to no address")))
}

/// Install the primary's checkpoint image, replacing the follower's whole
/// state (the replica-side equivalent of a restart).
fn bootstrap(db: &Database, primary: &str, timeout: Duration) -> Result<(), StepError> {
    let addr = resolve(primary)?;
    let r = http_call_bytes(addr, "GET", "/checkpoint", b"", timeout)
        .map_err(|e| StepError::Transport(format!("GET /checkpoint: {e}")))?;
    if r.status != 200 {
        return Err(StepError::Protocol(format!(
            "GET /checkpoint answered {}: {}",
            r.status,
            String::from_utf8_lossy(&r.bytes)
        )));
    }
    db.install_checkpoint_image(&r.bytes)
        .map_err(|e| StepError::Protocol(format!("install checkpoint image: {e}")))?;
    Ok(())
}

/// One replication round-trip: tail the primary's WAL at our position and
/// apply what arrives, falling back to a checkpoint bootstrap on 410.
pub fn replicate_step(
    db: &Database,
    primary: &str,
    timeout: Duration,
    metrics: &ReplicaMetrics,
) -> Result<StepOutcome, StepError> {
    let addr = resolve(primary)?;
    let from = db.applied_wal_seq();
    let r = http_call_bytes(addr, "GET", &format!("/wal?from_seq={from}"), b"", timeout)
        .map_err(|e| StepError::Transport(format!("GET /wal: {e}")))?;
    match r.status {
        200 => {
            let batch = decode_ship(&r.bytes).map_err(StepError::Protocol)?;
            if batch.from_seq != from {
                return Err(StepError::Protocol(format!(
                    "primary shipped frames at sequence {}, asked for {from}",
                    batch.from_seq
                )));
            }
            let applied = db
                .apply_wal_frames(from, &batch.frames)
                .map_err(|e| StepError::Protocol(format!("apply shipped frames: {e}")))?;
            let lag = batch.primary_next_seq.saturating_sub(from + applied);
            metrics.replica_applied_records.add(applied);
            metrics.replica_applied_epoch.set(db.commit_epoch());
            metrics.replication_lag_records.set(lag);
            Ok(StepOutcome::Applied { records: applied, lag })
        }
        410 => {
            bootstrap(db, primary, timeout)?;
            metrics.replica_bootstraps.add(1);
            metrics.replica_applied_epoch.set(db.commit_epoch());
            Ok(StepOutcome::Bootstrapped)
        }
        s => Err(StepError::Protocol(format!(
            "GET /wal answered {s}: {}",
            String::from_utf8_lossy(&r.bytes)
        ))),
    }
}

/// Synchronously replicate until the follower is caught up with the
/// primary (a tail poll returns zero records), retrying transport errors
/// until `deadline` elapses. Use this to bootstrap a follower *before*
/// constructing the graph overlay, so the overlay reads a populated
/// catalog.
pub fn sync_once(
    db: &Database,
    primary: &str,
    timeout: Duration,
    deadline: Duration,
) -> Result<(), String> {
    let metrics = ReplicaMetrics::default();
    let started = std::time::Instant::now();
    loop {
        match replicate_step(db, primary, timeout, &metrics) {
            Ok(StepOutcome::Applied { records: 0, .. }) => return Ok(()),
            Ok(_) => {}
            Err(e) => {
                if started.elapsed() >= deadline {
                    return Err(format!("initial sync from {primary} failed: {e}"));
                }
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

// ---------------------------------------------------------------- daemon

/// Ceiling for the reconnect backoff.
const MAX_BACKOFF: Duration = Duration::from_secs(3);

/// Background apply loop: polls the primary at `poll` cadence while
/// caught up, streams continuously while behind, and on primary loss
/// retries with exponential backoff (counted in
/// [`ReplicaMetrics::replica_reconnects`]) — the follower keeps serving reads at
/// its last applied epoch throughout.
pub struct ReplicaDaemon {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
    metrics: Arc<ReplicaMetrics>,
    primary: String,
}

impl ReplicaDaemon {
    pub fn start(
        db: Arc<Database>,
        primary: String,
        poll: Duration,
        timeout: Duration,
        events: Arc<EventLog>,
    ) -> ReplicaDaemon {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let metrics = Arc::new(ReplicaMetrics::default());
        let primary_label = primary.clone();
        let handle = {
            let stop = stop.clone();
            let metrics = metrics.clone();
            std::thread::Builder::new()
                .name("replica-apply".into())
                .spawn(move || {
                    let (lock, cv) = &*stop;
                    let mut backoff = poll;
                    // Emit the reconnect event only on the healthy→down
                    // edge, not every backoff retry while down.
                    let mut was_connected = true;
                    loop {
                        let wait = match replicate_step(&db, &primary, timeout, &metrics) {
                            // Still behind (or just bootstrapped): keep
                            // streaming without a pause.
                            Ok(StepOutcome::Applied { records, .. }) if records > 0 => {
                                was_connected = true;
                                backoff = poll;
                                Duration::ZERO
                            }
                            Ok(StepOutcome::Bootstrapped) => {
                                events.emit(
                                    "replica_bootstrap",
                                    vec![
                                        ("primary", Json::str(primary.clone())),
                                        ("applied_epoch", Json::u64(db.commit_epoch())),
                                    ],
                                );
                                was_connected = true;
                                backoff = poll;
                                Duration::ZERO
                            }
                            Ok(StepOutcome::Applied { .. }) => {
                                was_connected = true;
                                backoff = poll;
                                poll
                            }
                            Err(e) => {
                                metrics.replica_reconnects.add(1);
                                if was_connected {
                                    events.emit(
                                        "replica_reconnect",
                                        vec![
                                            ("primary", Json::str(primary.clone())),
                                            ("error", Json::str(e.to_string())),
                                        ],
                                    );
                                }
                                was_connected = false;
                                backoff = (backoff * 2).min(MAX_BACKOFF);
                                // A protocol error means identical retries
                                // are useless: drop our position so the
                                // next round re-bootstraps from the
                                // checkpoint instead of looping on a
                                // poisoned stream.
                                if let StepError::Protocol(detail) = &e {
                                    events.emit(
                                        "replica_gap",
                                        vec![
                                            ("primary", Json::str(primary.clone())),
                                            ("detail", Json::str(detail.clone())),
                                        ],
                                    );
                                    if let Err(e) = bootstrap(&db, &primary, timeout) {
                                        let _ = e; // primary still down; backoff covers it
                                    } else {
                                        metrics.replica_bootstraps.add(1);
                                        events.emit(
                                            "replica_bootstrap",
                                            vec![
                                                ("primary", Json::str(primary.clone())),
                                                ("applied_epoch", Json::u64(db.commit_epoch())),
                                            ],
                                        );
                                    }
                                }
                                backoff
                            }
                        };
                        let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                        if *stopped {
                            return;
                        }
                        if !wait.is_zero() {
                            let (guard, _) = cv
                                .wait_timeout(stopped, wait)
                                .unwrap_or_else(|e| e.into_inner());
                            stopped = guard;
                            if *stopped {
                                return;
                            }
                        }
                        drop(stopped);
                    }
                })
                .expect("spawn replica daemon")
        };
        ReplicaDaemon { stop, handle: Some(handle), metrics, primary: primary_label }
    }

    pub fn metrics(&self) -> &Arc<ReplicaMetrics> {
        &self.metrics
    }

    /// The `host:port` this daemon follows.
    pub fn primary(&self) -> &str {
        &self.primary
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

impl Drop for ReplicaDaemon {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ship_codec_round_trips() {
        let tail = WalTail {
            from_seq: 7,
            records: 2,
            next_seq: 9,
            primary_next_seq: 12,
            frames: vec![1, 2, 3, 4],
        };
        let body = encode_ship(&tail);
        let batch = decode_ship(&body).unwrap();
        assert_eq!(
            (batch.from_seq, batch.records, batch.primary_next_seq, batch.frames.as_slice()),
            (7, 2, 12, &[1u8, 2, 3, 4][..])
        );
        assert!(decode_ship(&body[..SHIP_HEADER_LEN - 1]).is_err());
        assert!(decode_ship(b"NOTMAGIC________________________").is_err());
    }
}
