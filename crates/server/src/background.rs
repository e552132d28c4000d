//! The server's background work: one thread, one clock, one task table.
//!
//! Each periodic job — rolling back abandoned sessions, vacuum and
//! checkpoints, the SLO monitor, a follower's WAL apply loop — is a
//! [`Task`]: a name plus a step closure. A step returns when it wants to
//! run next (`Some(delay)`, where [`Duration::ZERO`] means "again as soon
//! as the other due tasks had their turn") or `None` to retire. The
//! thread sleeps on one condvar until the earliest due task and runs the
//! due tasks in table order.
//!
//! [`Background::stop`] wakes the thread, runs each live task's
//! [`Pass::Final`] exactly once in table order, and joins it; table order
//! is therefore shutdown order. A step that panics is retired with a
//! `background_task_failed` event and the other tasks keep their
//! schedule.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use db2graph_core::json::Json;
use db2graph_core::EventLog;

/// Why a step runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Pass {
    /// The task's scheduled time came.
    Tick,
    /// The scheduler is stopping: the task's last run. Its return value
    /// is ignored.
    Final,
}

type Step = Box<dyn FnMut(Pass) -> Option<Duration> + Send>;

/// One row of the task table.
pub(crate) struct Task {
    name: &'static str,
    step: Step,
    /// When the next tick is due; `None` once the task has retired.
    due: Option<Instant>,
}

impl Task {
    /// A task whose first tick is due `first` after the scheduler starts.
    pub(crate) fn new(
        name: &'static str,
        first: Duration,
        step: impl FnMut(Pass) -> Option<Duration> + Send + 'static,
    ) -> Task {
        Task { name, step: Box::new(step), due: Some(Instant::now() + first) }
    }

    /// Run one pass, retiring the task (with a `background_task_failed`
    /// event) if the step panics.
    fn run(&mut self, pass: Pass, events: &EventLog) {
        match panic::catch_unwind(AssertUnwindSafe(|| (self.step)(pass))) {
            Ok(next) => self.due = next.map(|d| Instant::now() + d),
            Err(_) => {
                self.due = None;
                events.emit("background_task_failed", vec![("task", Json::str(self.name))]);
            }
        }
    }
}

/// A scheduler thread running a task table until stopped.
pub(crate) struct Background {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Background {
    /// Spawn a thread named `name` that runs `tasks`.
    pub(crate) fn start(name: &str, tasks: Vec<Task>, events: Arc<EventLog>) -> Background {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name(name.into())
                .spawn(move || run(&stop, tasks, &events))
                .expect("spawn background thread")
        };
        Background { stop, handle: Some(handle) }
    }

    /// Signal the thread, wait for every live task's final pass, and join
    /// it.
    pub(crate) fn stop(mut self) {
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

impl Drop for Background {
    fn drop(&mut self) {
        self.stop_impl();
    }
}

fn run(stop: &(Mutex<bool>, Condvar), mut tasks: Vec<Task>, events: &EventLog) {
    let (lock, cv) = stop;
    let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
    while !*stopped {
        let now = Instant::now();
        match tasks.iter().filter_map(|t| t.due).min() {
            None => {
                stopped = cv.wait(stopped).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            Some(due) if due > now => {
                stopped = cv.wait_timeout(stopped, due - now).unwrap_or_else(|e| e.into_inner()).0;
                continue;
            }
            Some(_) => {}
        }
        // Steps run without the lock, so `stop` never waits on a step to
        // set the flag, only to be noticed.
        drop(stopped);
        for task in &mut tasks {
            if task.due.is_some_and(|due| due <= now) {
                task.run(Pass::Tick, events);
            }
        }
        stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
    }
    drop(stopped);
    for task in tasks.iter_mut().filter(|t| t.due.is_some()) {
        task.run(Pass::Final, events);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::atomic::{AtomicU64, Ordering};

    fn counter() -> Arc<AtomicU64> {
        Arc::new(AtomicU64::new(0))
    }

    #[test]
    fn stop_is_prompt_under_a_long_period() {
        let bg = Background::start(
            "test-bg",
            vec![Task::new("hourly", Duration::from_secs(3600), |_| {
                Some(Duration::from_secs(3600))
            })],
            Arc::new(EventLog::new()),
        );
        let started = Instant::now();
        bg.stop();
        assert!(started.elapsed() < Duration::from_secs(1), "{:?}", started.elapsed());
    }

    #[test]
    fn final_passes_run_once_each_in_table_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let task = |name: &'static str, log: &Arc<Mutex<Vec<(&'static str, Pass)>>>| {
            let log = log.clone();
            Task::new(name, Duration::from_secs(3600), move |pass| {
                log.lock().unwrap().push((name, pass));
                Some(Duration::from_secs(3600))
            })
        };
        let retired = {
            let log = log.clone();
            Task::new("retired", Duration::ZERO, move |pass| {
                log.lock().unwrap().push(("retired", pass));
                None
            })
        };
        let bg = Background::start(
            "test-bg",
            vec![task("first", &log), retired, task("second", &log), task("third", &log)],
            Arc::new(EventLog::new()),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while log.lock().unwrap().is_empty() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        bg.stop();
        assert_eq!(
            *log.lock().unwrap(),
            [
                ("retired", Pass::Tick),
                ("first", Pass::Final),
                ("second", Pass::Final),
                ("third", Pass::Final),
            ],
            "a retired task gets no final pass"
        );
    }

    #[test]
    fn a_panicking_task_is_retired_and_its_sibling_keeps_ticking() {
        let events = Arc::new(EventLog::new());
        let (panics, ticks) = (counter(), counter());
        let bg = Background::start(
            "test-bg",
            vec![
                Task::new("boom", Duration::ZERO, {
                    let panics = panics.clone();
                    move |_| {
                        panics.fetch_add(1, Ordering::SeqCst);
                        panic!("task failure under test");
                    }
                }),
                Task::new("steady", Duration::ZERO, {
                    let ticks = ticks.clone();
                    move |_| {
                        ticks.fetch_add(1, Ordering::SeqCst);
                        Some(Duration::from_millis(2))
                    }
                }),
            ],
            events.clone(),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while ticks.load(Ordering::SeqCst) < 5 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        bg.stop();
        assert!(ticks.load(Ordering::SeqCst) >= 5, "the sibling kept its schedule");
        assert_eq!(panics.load(Ordering::SeqCst), 1, "a panicking task runs once, no final pass");
        let failed: Vec<String> = events
            .since(0)
            .iter()
            .filter(|e| e.kind == "background_task_failed")
            .map(|e| e.to_json().to_compact())
            .collect();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert!(failed[0].contains(r#""task":"boom""#), "{failed:?}");
    }

    #[test]
    fn a_zero_delay_task_does_not_starve_a_periodic_one() {
        let (spins, ticks) = (counter(), counter());
        let bg = Background::start(
            "test-bg",
            vec![
                Task::new("spin", Duration::ZERO, {
                    let spins = spins.clone();
                    move |_| {
                        spins.fetch_add(1, Ordering::SeqCst);
                        Some(Duration::ZERO)
                    }
                }),
                Task::new("every-10ms", Duration::from_millis(10), {
                    let ticks = ticks.clone();
                    move |_| {
                        ticks.fetch_add(1, Ordering::SeqCst);
                        Some(Duration::from_millis(10))
                    }
                }),
            ],
            Arc::new(EventLog::new()),
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while ticks.load(Ordering::SeqCst) < 5 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        bg.stop();
        let (spins, ticks) = (spins.load(Ordering::SeqCst), ticks.load(Ordering::SeqCst));
        assert!(ticks >= 5, "the periodic task ticked {ticks} times in 5 s");
        assert!(spins > ticks, "the zero-delay task streamed meanwhile ({spins} runs)");
    }
}
