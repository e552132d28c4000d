//! Metric primitives for every layer, and the database's own table.
//!
//! A metric is declared once, as a row of a [`metric_table!`]: the
//! database's table is [`DbMetrics`] below, and the graph and the server
//! declare theirs with the same macro (re-exported by `db2graph-core`).
//! Rows are relaxed atomics read for reporting; nothing here is read to
//! make an engine decision. Latency distributions are [`Histogram`]s.

use std::sync::atomic::{AtomicU64, Ordering};

/// How a scalar metric behaves over a window: a counter only grows, so its
/// value over a window is a difference; a gauge is a level, so a window
/// reports the latest reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    Counter,
    Gauge,
}

impl MetricKind {
    /// The value over the window from `earlier` to `now`.
    pub fn since(self, now: u64, earlier: u64) -> u64 {
        match self {
            MetricKind::Counter => now - earlier,
            MetricKind::Gauge => now,
        }
    }

    /// The Prometheus `# TYPE` of a metric of this kind.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One scalar of a metric table: its key, kind and value. The JSON form
/// and the Prometheus exposition are both rendered from these.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricRow {
    pub name: &'static str,
    pub kind: MetricKind,
    pub value: u64,
}

/// The atomic cell behind one metric row. Relaxed ordering throughout:
/// metrics are read for reporting, never to synchronise.
#[derive(Debug, Default)]
pub struct Slot(AtomicU64);

impl Slot {
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Declares one metric table as rows, each `/// doc` then
/// `name: Counter | Gauge,`. From the table it generates:
///
/// * the live struct: one public [`Slot`] per row (recorded through
///   `add` / `sub` / `set`), a getter per row, the hand-written fields
///   listed under `with { .. }`, and `load()`, which reads every slot;
/// * the snapshot struct: one `u64` per row carrying the row's doc;
///   `since` (counters subtract, gauges carry the latest value), `rows`
///   in row order, and `from_fn`.
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$live_meta:meta])*
        pub struct $live:ident;
        $(#[$snap_meta:meta])*
        pub struct $snap:ident {
            $( $(#[doc = $doc:literal])* $name:ident: $kind:ident, )+
        }
        $( with {
            $( $(#[$extra_meta:meta])* $extra_vis:vis $extra:ident: $extra_ty:ty, )+
        } )?
    ) => {
        $(#[$live_meta])*
        #[derive(Debug, Default)]
        pub struct $live {
            $( $(#[doc = $doc])* pub $name: $crate::Slot, )+
            $( $( $(#[$extra_meta])* $extra_vis $extra: $extra_ty, )+ )?
        }

        impl $live {
            $( $(#[doc = $doc])* pub fn $name(&self) -> u64 { self.$name.get() } )+

            /// Every row's current value.
            pub fn load(&self) -> $snap {
                $snap { $( $name: self.$name.get(), )+ }
            }
        }

        $(#[$snap_meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct $snap {
            $( $(#[doc = $doc])* pub $name: u64, )+
        }

        impl $snap {
            /// A snapshot whose every row holds `value(name)`.
            pub fn from_fn(mut value: impl FnMut(&'static str) -> u64) -> $snap {
                $snap { $( $name: value(stringify!($name)), )+ }
            }

            /// The rows over the window since `earlier`: counters are
            /// deltas, gauges carry this snapshot's value.
            pub fn since(&self, earlier: &$snap) -> $snap {
                $snap {
                    $( $name: $crate::MetricKind::$kind
                        .since(self.$name, earlier.$name), )+
                }
            }

            /// Every row, in table order.
            pub fn rows(&self) -> Vec<$crate::MetricRow> {
                vec![$(
                    $crate::MetricRow {
                        name: stringify!($name),
                        kind: $crate::MetricKind::$kind,
                        value: self.$name,
                    },
                )+]
            }
        }
    };
}

// ------------------------------------------------------------ histograms

/// Buckets of a [`Histogram`]: one for exact zeros and one per power of
/// two, which covers the full `u64` range.
const BUCKETS: usize = 65;

/// Lock-free log2-bucketed latency histogram: bucket 0 holds exact zeros,
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, and bucket 64 tops
/// out at `u64::MAX`. Recording is two relaxed atomic adds; percentiles
/// are estimated as the upper bound of the bucket the rank falls in.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)), sum: AtomicU64::new(0) }
    }
}

/// The bucket for a value: 0 for 0, else its bit length (1 for 1, 2 for
/// 2..=3, …, 64 for the top half of the u64 range).
fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value a bucket can hold (the percentile estimate).
fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64.. => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

impl Histogram {
    pub fn record(&self, nanos: u64) {
        self.buckets[bucket_index(nanos)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(nanos, Ordering::Relaxed);
    }

    /// Values recorded: the sum of the bucket counts.
    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Every bucket's current count.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot(std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)))
    }

    /// The `q`-quantile; see [`HistogramSnapshot::percentile`].
    #[cfg(test)]
    pub(crate) fn percentile(&self, q: f64) -> u64 {
        self.snapshot().percentile(q)
    }

    /// (p50, p90, p99), read from one snapshot.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        let s = self.snapshot();
        (s.percentile(0.50), s.percentile(0.90), s.percentile(0.99))
    }

    /// See [`HistogramSnapshot::cumulative_buckets`].
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        self.snapshot().cumulative_buckets()
    }
}

/// A point-in-time copy of a [`Histogram`]'s bucket counts. Two snapshots
/// give the distribution over the window between them ([`Self::since`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot([u64; BUCKETS]);

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot([0; BUCKETS])
    }
}

impl HistogramSnapshot {
    /// Values recorded.
    pub(crate) fn count(&self) -> u64 {
        self.0.iter().sum()
    }

    /// The values recorded after `earlier` was taken.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot(std::array::from_fn(|i| self.0[i].saturating_sub(earlier.0[i])))
    }

    /// The `q`-quantile (`0.0 < q <= 1.0`) as the upper bound of the
    /// bucket containing that rank; 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper(i);
            }
        }
        u64::MAX
    }

    /// Cumulative `(upper_bound, count <= upper_bound)` pairs up to and
    /// including the highest non-empty bucket — the shape a Prometheus
    /// `le`-bucket exposition needs (the caller appends `+Inf`). Empty
    /// histograms yield no pairs.
    pub(crate) fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let Some(last) = self.0.iter().rposition(|&c| c > 0) else { return Vec::new() };
        let mut running = 0u64;
        self.0[..=last]
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                running += c;
                (bucket_upper(i), running)
            })
            .collect()
    }
}

// ------------------------------------------------------ database metrics

metric_table! {
    /// Process-lifetime counters of one [`Database`](crate::Database):
    /// statement execution, MVCC maintenance and durability. An in-memory
    /// database never records the WAL rows.
    pub struct DbMetrics;
    /// A point-in-time copy of every [`DbMetrics`] row.
    pub struct DbMetricsSnapshot {
        /// Statements executed.
        statements: Counter,
        /// Row versions the access paths visited.
        rows_read: Counter,
        /// Index keys probed (point, IN-list and range lookups).
        index_probes: Counter,
        /// Table scans that visited every row.
        full_scans: Counter,
        /// Rows those scans covered.
        full_scan_rows: Counter,
        /// Rows in statement results (as opposed to rows scanned internally).
        rows_returned: Counter,
        /// Total wall time spent executing statements, in nanoseconds.
        exec_nanos: Counter,
        /// Write conflicts surfaced to statements (`DbError::Txn`).
        txn_conflicts: Counter,
        /// `Database::vacuum` passes run by any caller: the inline sweep a
        /// commit triggers, a daemon, a test.
        vacuum_runs: Counter,
        /// Dead row versions reclaimed by those passes.
        vacuumed_versions: Counter,
        /// WAL records appended since open.
        wal_records: Counter,
        /// WAL bytes appended since open.
        wal_bytes: Counter,
        /// Checkpoints completed since open.
        checkpoints: Counter,
        /// Commit epochs the last `Database::open` replayed from the WAL.
        recovery_replayed_epochs: Gauge,
        /// Torn or corrupt WAL tail bytes the last `Database::open` truncated.
        recovery_truncated_bytes: Gauge,
    }
    with {
        /// Latency of every WAL `sync_data`. A stalling disk shows up here
        /// long before it shows up anywhere else, which is why the SLO
        /// monitor reads it.
        pub wal_fsync: Histogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_diff() {
        let m = DbMetrics::default();
        m.statements.add(2);
        m.index_probes.add(3);
        m.full_scans.add(1);
        m.full_scan_rows.add(100);
        m.recovery_replayed_epochs.set(4);
        let a = m.load();
        assert_eq!((a.statements, a.index_probes, a.full_scans, a.full_scan_rows), (2, 3, 1, 100));
        m.rows_read.add(7);
        m.rows_returned.add(4);
        m.exec_nanos.add(250);
        let d = m.load().since(&a);
        assert_eq!((d.rows_read, d.statements, d.rows_returned, d.exec_nanos), (7, 0, 4, 250));
        assert_eq!(d.recovery_replayed_epochs, 4, "a gauge carries its level");
        let names: Vec<&str> = d.rows().iter().map(|r| r.name).collect();
        assert_eq!(names.first(), Some(&"statements"));
        assert_eq!(names.last(), Some(&"recovery_truncated_bytes"));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Values at the extremes land in the right buckets: 0 has its own
        // exact bucket, 1 is the smallest non-zero bucket, u64::MAX caps
        // the top bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);

        let h = Histogram::default();
        h.record(0);
        assert_eq!(h.percentile(0.5), 0);
        h.record(1);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(0.33), 0);
        assert_eq!(h.percentile(0.5), 1);
        assert_eq!(h.percentile(0.99), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn histogram_percentiles_estimate_bucket_upper_bound() {
        let h = Histogram::default();
        assert_eq!(h.percentiles(), (0, 0, 0)); // empty
        for _ in 0..90 {
            h.record(100); // bucket 7 → upper 127
        }
        for _ in 0..10 {
            h.record(1_000_000); // bucket 20 → upper 2^20 - 1
        }
        let (p50, p90, p99) = h.percentiles();
        assert_eq!(p50, 127);
        assert_eq!(p90, 127);
        assert_eq!(p99, (1u64 << 20) - 1);
        assert_eq!(h.sum(), 90 * 100 + 10 * 1_000_000);
        assert_eq!(h.cumulative_buckets().last(), Some(&((1u64 << 20) - 1, 100)));
    }

    #[test]
    fn snapshot_since_gives_the_window_quantile() {
        // Earlier: 10 values of 1 000 ns. Later: those plus 10 at ~1 ms.
        let h = Histogram::default();
        for _ in 0..10 {
            h.record(1_000);
        }
        let earlier = h.snapshot();
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let window = h.snapshot().since(&earlier);
        assert_eq!(window.count(), 10);
        // Every value in the window landed in the millisecond bucket, so
        // even its median is there; the whole history's median is not.
        assert_eq!(window.percentile(0.50), 1_048_575);
        assert_eq!(window.percentile(0.99), 1_048_575);
        assert_eq!(h.percentile(0.50), 1023);
        assert_eq!(window.cumulative_buckets().first(), Some(&(0, 0)));
        // No new values: an empty window.
        let none = h.snapshot().since(&h.snapshot());
        assert_eq!((none.count(), none.percentile(0.99)), (0, 0));
        assert!(none.cumulative_buckets().is_empty());
    }
}
