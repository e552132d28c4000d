//! Structured operational event log.
//!
//! The serving stack (PRs 5–7) emits typed events — request completions,
//! shed decisions, transaction conflicts, vacuum/checkpoint/WAL activity,
//! replication state changes — into one append-only stream so a fleet
//! operator can answer "what happened around 14:03?" without correlating
//! five ad-hoc logs. The paper's premise (graph queries *inside* an
//! operational DBMS) implies operability at the host's standard: events
//! are the narrative complement to the numeric [`crate::metrics`] layer.
//!
//! Design:
//! * a bounded in-memory ring (`capacity` newest events) answers
//!   `GET /events?since=<seq>` tail-style without unbounded growth;
//! * an optional JSONL file sink (`DB2GRAPH_EVENT_LOG=<path>`) persists
//!   every event, rotating `<path>` → `<path>.1` once it passes a size
//!   cap so the log cannot fill a disk;
//! * sequence numbers are assigned under the ring lock, so `since`
//!   pagination never skips or duplicates an event that is still in the
//!   ring.
//!
//! Emission must never fail the hot path: file-sink errors are counted
//! (`dropped_writes`) and otherwise swallowed.
//!
//! Every `DB2GRAPH_*` environment knob is parsed by one function,
//! [`lookup_knob`], so a value that does not parse always becomes a typed
//! `config_warning`.

use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Default number of events retained in memory.
pub const DEFAULT_EVENT_CAPACITY: usize = 4096;

/// Default file-sink rotation threshold (bytes).
pub const DEFAULT_ROTATE_BYTES: u64 = 8 * 1024 * 1024;

/// One structured event. `fields` keeps insertion order, mirroring the
/// repo-wide JSON convention.
#[derive(Debug, Clone)]
pub struct Event {
    /// Monotonic sequence number, 1-based, assigned at emission.
    pub seq: u64,
    /// Wall-clock milliseconds since the Unix epoch.
    pub unix_millis: u64,
    /// Event kind, e.g. `request_completed`, `checkpoint_end`.
    pub kind: String,
    /// Kind-specific payload.
    pub fields: Vec<(String, Json)>,
}

impl Event {
    /// Render as a JSON object (`seq`, `unix_millis`, `kind`, then the
    /// kind-specific fields inline).
    pub fn to_json(&self) -> Json {
        let mut obj = vec![
            ("seq".to_string(), Json::u64(self.seq)),
            ("unix_millis".to_string(), Json::u64(self.unix_millis)),
            ("kind".to_string(), Json::str(self.kind.clone())),
        ];
        obj.extend(self.fields.iter().cloned());
        Json::Obj(obj)
    }
}

struct Ring {
    events: std::collections::VecDeque<Event>,
    next_seq: u64,
}

struct FileSink {
    path: PathBuf,
    file: File,
    written: u64,
    rotate_bytes: u64,
}

impl FileSink {
    fn open(path: PathBuf, rotate_bytes: u64) -> std::io::Result<FileSink> {
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let written = file.metadata().map(|m| m.len()).unwrap_or(0);
        Ok(FileSink { path, file, written, rotate_bytes })
    }

    fn append(&mut self, line: &str) -> std::io::Result<()> {
        if self.written >= self.rotate_bytes {
            self.rotate()?;
        }
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.written += line.len() as u64 + 1;
        Ok(())
    }

    /// Rename the live file to `<path>.1` (replacing any previous
    /// rotation) and start a fresh one. One generation of history is
    /// enough for tailing; the ring covers recency, the metrics layer
    /// covers totals.
    fn rotate(&mut self) -> std::io::Result<()> {
        let mut rotated = self.path.as_os_str().to_owned();
        rotated.push(".1");
        fs::rename(&self.path, PathBuf::from(&rotated))?;
        self.file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        self.written = 0;
        Ok(())
    }
}

/// Bounded event ring plus optional JSONL file sink. Cheap to clone
/// behind an `Arc`; all emitters share one instance.
pub struct EventLog {
    ring: Mutex<Ring>,
    capacity: usize,
    sink: Mutex<Option<FileSink>>,
    emitted: AtomicU64,
    dropped_writes: AtomicU64,
}

impl EventLog {
    /// In-memory-only log with the default capacity.
    pub fn new() -> EventLog {
        EventLog::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// In-memory-only log retaining the newest `capacity` events.
    pub fn with_capacity(capacity: usize) -> EventLog {
        let capacity = capacity.max(1);
        EventLog {
            ring: Mutex::new(Ring {
                events: std::collections::VecDeque::with_capacity(capacity.min(1024)),
                next_seq: 1,
            }),
            capacity,
            sink: Mutex::new(None),
            emitted: AtomicU64::new(0),
            dropped_writes: AtomicU64::new(0),
        }
    }

    /// Attach a JSONL file sink with the given rotation threshold.
    /// Returns `Err` only if the file cannot be opened at all; later
    /// write failures are counted, not raised.
    pub fn with_file_sink(
        self,
        path: impl Into<PathBuf>,
        rotate_bytes: u64,
    ) -> std::io::Result<EventLog> {
        let sink = FileSink::open(path.into(), rotate_bytes.max(1))?;
        *self.sink.lock().unwrap() = Some(sink);
        Ok(self)
    }

    /// Emit one event; returns its sequence number.
    pub fn emit(&self, kind: &str, fields: Vec<(&str, Json)>) -> u64 {
        let fields: Vec<(String, Json)> =
            fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
        let unix_millis = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let event = {
            let mut ring = self.ring.lock().unwrap();
            let event = Event { seq: ring.next_seq, unix_millis, kind: kind.to_string(), fields };
            ring.next_seq += 1;
            if ring.events.len() == self.capacity {
                ring.events.pop_front();
            }
            ring.events.push_back(event.clone());
            event
        };
        self.emitted.fetch_add(1, Ordering::Relaxed);
        if let Some(sink) = self.sink.lock().unwrap().as_mut() {
            if sink.append(&event.to_json().to_compact()).is_err() {
                self.dropped_writes.fetch_add(1, Ordering::Relaxed);
            }
        }
        event.seq
    }

    /// Events with `seq > since`, oldest first — the `GET /events?since=`
    /// contract. A client that polls with the last seq it saw never
    /// re-reads an event still in the ring.
    pub fn since(&self, since: u64) -> Vec<Event> {
        let ring = self.ring.lock().unwrap();
        ring.events.iter().filter(|e| e.seq > since).cloned().collect()
    }

    /// Newest sequence number emitted so far (0 before the first event).
    pub fn last_seq(&self) -> u64 {
        self.ring.lock().unwrap().next_seq - 1
    }

    /// Total events emitted over the log's lifetime (ring eviction does
    /// not decrement this).
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// File-sink writes that failed and were swallowed.
    pub fn dropped_writes(&self) -> u64 {
        self.dropped_writes.load(Ordering::Relaxed)
    }

    /// Render `since(seq)` as the `/events` response body.
    pub fn since_json(&self, since: u64) -> Json {
        let events: Vec<Json> = self.since(since).iter().map(Event::to_json).collect();
        Json::obj(vec![
            ("last_seq", Json::u64(self.last_seq())),
            ("events", Json::Arr(events)),
        ])
    }
}

impl Default for EventLog {
    fn default() -> EventLog {
        EventLog::new()
    }
}

/// An environment knob whose value could not be parsed and was replaced
/// by a fallback. Historically these fell back *silently* — a typo'd
/// `DB2GRAPH_THREADS=eight` ran single-knob defaults with no trace. Now
/// every such decision is recorded here and surfaced as a typed
/// `config_warning` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigWarning {
    /// The environment variable name, e.g. `DB2GRAPH_THREADS`.
    pub knob: String,
    /// The raw value that failed to parse.
    pub raw: String,
    /// Human-readable description of the fallback that was used instead.
    pub fallback: String,
}

static CONFIG_WARNINGS: Mutex<Vec<ConfigWarning>> = Mutex::new(Vec::new());

/// Record that `knob` was set to the unparseable `raw` and `fallback` was
/// used instead. Config parsing happens before (or without) any
/// [`EventLog`], so warnings buffer in a process-global queue; an embedder
/// with a log drains them via [`EventLog::emit_config_warnings`]. Also
/// printed to stderr immediately so library users see it regardless.
/// The same bad value read again before anything drained the queue (one
/// program opening a database and then a graph resolves the graph knobs
/// twice) is one warning, not two.
pub fn record_config_warning(knob: &str, raw: &str, fallback: &str) {
    let warning = ConfigWarning {
        knob: knob.to_string(),
        raw: raw.to_string(),
        fallback: fallback.to_string(),
    };
    let mut pending = CONFIG_WARNINGS.lock().unwrap();
    if !pending.contains(&warning) {
        eprintln!("db2graph: ignoring invalid {knob}={raw:?}; using {fallback}");
        pending.push(warning);
    }
}

/// Read the knob `name` through `get` (the process environment, or a
/// test's table). `None` when unset. A set value is trimmed and handed to
/// `parse`; when `parse` rejects it, a config warning naming `fallback` is
/// recorded and the result is `None`, so the caller's default applies.
/// [`crate::GraphOptions::with_lookup`] and the server's
/// `ServerConfig::with_lookup` resolve every knob through it.
pub fn lookup_knob<T>(
    get: &dyn Fn(&str) -> Option<String>,
    name: &str,
    fallback: &str,
    parse: impl FnOnce(&str) -> Option<T>,
) -> Option<T> {
    let raw = get(name)?;
    let parsed = parse(raw.trim());
    if parsed.is_none() {
        record_config_warning(name, &raw, fallback);
    }
    parsed
}

/// Take (and clear) all buffered configuration warnings.
pub fn drain_config_warnings() -> Vec<ConfigWarning> {
    std::mem::take(&mut *CONFIG_WARNINGS.lock().unwrap())
}

impl EventLog {
    /// Drain the buffered configuration warnings into this log as typed
    /// `config_warning` events; returns how many were emitted.
    pub fn emit_config_warnings(&self) -> usize {
        let warnings = drain_config_warnings();
        for w in &warnings {
            self.emit(
                "config_warning",
                vec![
                    ("knob", Json::str(w.knob.clone())),
                    ("raw", Json::str(w.raw.clone())),
                    ("fallback", Json::str(w.fallback.clone())),
                ],
            );
        }
        warnings.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequences_are_monotonic_and_since_paginates() {
        let log = EventLog::with_capacity(8);
        for i in 0..5u64 {
            log.emit("test", vec![("i", Json::u64(i))]);
        }
        assert_eq!(log.last_seq(), 5);
        let tail = log.since(3);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].seq, 4);
        assert_eq!(tail[1].seq, 5);
        assert!(log.since(5).is_empty());
    }

    #[test]
    fn ring_evicts_oldest_but_keeps_sequence() {
        let log = EventLog::with_capacity(3);
        for i in 0..10u64 {
            log.emit("test", vec![("i", Json::u64(i))]);
        }
        let all = log.since(0);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].seq, 8);
        assert_eq!(all[2].seq, 10);
        assert_eq!(log.emitted(), 10);
    }

    #[test]
    fn config_warnings_buffer_then_emit_as_events() {
        let log = EventLog::with_capacity(8);
        record_config_warning("DB2GRAPH_TEST_KNOB", "eight", "autodetect (4)");
        let emitted = log.emit_config_warnings();
        assert!(emitted >= 1);
        let events = log.since(0);
        let w = events
            .iter()
            .find(|e| {
                e.kind == "config_warning"
                    && e.fields.iter().any(|(k, v)| {
                        k == "knob" && v.to_compact().contains("DB2GRAPH_TEST_KNOB")
                    })
            })
            .expect("config_warning event present");
        assert!(w.to_json().to_compact().contains("eight"));
        // Drained: a second pass emits nothing new for this knob.
        assert_eq!(drain_config_warnings(), Vec::new());
    }

    #[test]
    fn file_sink_rotates_at_size_cap() {
        let dir = std::env::temp_dir().join(format!(
            "db2graph-events-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let log = EventLog::with_capacity(4).with_file_sink(&path, 256).unwrap();
        for i in 0..64u64 {
            log.emit("rotate_me", vec![("i", Json::u64(i))]);
        }
        let rotated = dir.join("events.jsonl.1");
        assert!(rotated.exists(), "expected {} to exist", rotated.display());
        // Every surviving line must parse as a JSON object with a seq.
        for file in [&path, &rotated] {
            let text = std::fs::read_to_string(file).unwrap();
            for line in text.lines() {
                let parsed = Json::parse(line).unwrap();
                assert!(parsed.get("seq").is_some());
            }
        }
        assert_eq!(log.dropped_writes(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
