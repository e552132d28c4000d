//! Machine-readable benchmark output, so the perf trajectory is tracked
//! across PRs instead of living only in scrollback: each harness writes a
//! `BENCH_<name>.json` next to its human-readable table.
//!
//! The file lands in `$BENCH_JSON_DIR` when set, else the current
//! directory. Shape: `{"bench": <name>, "unix_millis": <when>,
//! "meta": {...knobs...}, "rows": [...]}` — one row object per measured
//! point, flat numeric fields, stable keys.

use std::time::{SystemTime, UNIX_EPOCH};

use db2graph_core::json::Json;

/// Accumulates rows for one benchmark run and writes them on `write()`.
pub struct BenchReport {
    name: String,
    meta: Vec<(String, Json)>,
    rows: Vec<Json>,
}

impl BenchReport {
    pub fn new(name: &str) -> BenchReport {
        BenchReport { name: name.to_string(), meta: Vec::new(), rows: Vec::new() }
    }

    /// Record a run-level knob (scale, client count, ...).
    pub fn meta(&mut self, key: &str, value: Json) {
        self.meta.push((key.to_string(), value));
    }

    /// Record one measured point.
    pub fn push(&mut self, row: Json) {
        self.rows.push(row);
    }

    /// The destination path: `$BENCH_JSON_DIR/BENCH_<name>.json`, or the
    /// current directory when the variable is unset.
    pub fn path(&self) -> std::path::PathBuf {
        let dir = std::env::var("BENCH_JSON_DIR").unwrap_or_else(|_| ".".into());
        std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name))
    }

    /// Write the report. Benchmarks print results as they go, so a write
    /// failure (read-only CI mount, missing dir) warns instead of
    /// panicking away the run's stdout value.
    pub fn write(self) {
        let unix_millis =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_millis() as u64).unwrap_or(0);
        let json = Json::Obj(vec![
            ("bench".into(), Json::str(self.name.clone())),
            ("unix_millis".into(), Json::u64(unix_millis)),
            ("meta".into(), Json::Obj(self.meta.clone())),
            ("rows".into(), Json::arr(self.rows.clone())),
        ]);
        let path = self.path();
        match std::fs::write(&path, json.to_compact() + "\n") {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
    }
}
