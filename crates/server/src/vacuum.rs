//! Background MVCC maintenance: a daemon thread that periodically
//! reclaims row versions dead to every registered snapshot, and — when
//! the database is durable and a cadence is configured — writes
//! checkpoints so the WAL stays short and recovery stays fast.
//!
//! Without a schedule, version chains under a steady write load grow
//! between the opportunistic threshold sweeps commits trigger. The
//! serving layer owns the process lifecycle, so it owns the schedule
//! too. The database counts
//! every pass it runs — these and the inline sweeps alike — and
//! `/metrics` reports them as `vacuum_runs` / `vacuumed_versions`;
//! checkpoint counts surface the same way (`checkpoints`).

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use db2graph_core::json::Json;
use db2graph_core::EventLog;
use reldb::Database;

/// Periodically calls [`Database::vacuum`] (and, on its own slower
/// cadence, [`Database::checkpoint`]) until stopped. Stopping is prompt
/// (condvar wakeup, no interval-long sleep to drain) and runs one final
/// pass — including a final checkpoint when configured — so a clean
/// shutdown leaves no reclaimable garbage and a short WAL behind.
pub struct VacuumDaemon {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl VacuumDaemon {
    pub fn start(
        db: Arc<Database>,
        events: Arc<EventLog>,
        interval: Duration,
        checkpoint_interval: Option<Duration>,
    ) -> VacuumDaemon {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        // Checkpoints only make sense against a durable database; a
        // cadence on an in-memory one is ignored rather than erroring
        // every tick.
        let checkpoint_interval = checkpoint_interval.filter(|_| db.is_durable());
        let handle = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("vacuum-daemon".into())
                .spawn(move || {
                    let (lock, cv) = &*stop;
                    let mut last_checkpoint = Instant::now();
                    let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
                        let mut run_pass = |final_pass: bool| {
                            let n = db.vacuum() as u64;
                            // Idle ticks reclaim nothing; logging them
                            // would only drown real events.
                            if n > 0 {
                                events.emit(
                                    "vacuum_run",
                                    vec![("reclaimed_versions", Json::u64(n))],
                                );
                            }
                            if let Some(every) = checkpoint_interval {
                                if final_pass || last_checkpoint.elapsed() >= every {
                                    // A checkpoint failure (disk full, or a
                                    // test-injected crash) must not kill the
                                    // vacuum schedule; recovery still has the
                                    // previous checkpoint plus the full WAL.
                                    if db.checkpoint().is_ok() {
                                        last_checkpoint = Instant::now();
                                    }
                                }
                            }
                        };
                        if *stopped {
                            run_pass(true);
                            return;
                        }
                        let (guard, _) = cv
                            .wait_timeout(stopped, interval)
                            .unwrap_or_else(|e| e.into_inner());
                        stopped = guard;
                        if !*stopped {
                            run_pass(false);
                        }
                    }
                })
                .expect("spawn vacuum daemon")
        };
        VacuumDaemon { stop, handle: Some(handle) }
    }

    /// Signal the thread, wait for its final pass, and join it.
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

impl Drop for VacuumDaemon {
    fn drop(&mut self) {
        self.stop_impl();
    }
}
