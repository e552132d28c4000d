//! HTTP transaction sessions: the network mapping of reldb's session
//! transactions (`Database::begin_session_txn` and friends).
//!
//! `POST /session` begins a transaction bound to a server-minted session
//! id; subsequent `/query`/`/profile`/`/sql` requests carrying the id in
//! `X-Db2Graph-Session` execute *inside* it — on whatever worker thread
//! they land, which is the whole point: keep-alive gives a client a
//! persistent connection, sessions give it a persistent transaction, and
//! neither is pinned to the other. `POST /session/commit` /
//! `/session/rollback` end it. A session a client abandons (crashed,
//! wandered off) would pin its undo log and uncommitted markers forever,
//! so the [`SessionReaper`] — a daemon peer of
//! [`crate::vacuum::VacuumDaemon`] — rolls back sessions idle past the
//! configured deadline and emits a typed `session_reaped` event.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use db2graph_core::json::Json;
use reldb::Database;

use crate::Shared;

/// Why a session operation could not run; the router maps these to
/// status codes (`Unknown` → 404, `Busy` → 409).
#[derive(Debug)]
pub enum SessionError {
    /// No such session id: never begun, or already ended by commit,
    /// rollback, or the reaper.
    Unknown,
    /// The session is mid-request on another connection; sessions
    /// serialize their own requests rather than interleaving them.
    Busy,
}

struct SessionEntry {
    /// The reldb session-transaction token this id is bound to.
    token: u64,
    /// Last moment a request begun, touched, or ended this session; the
    /// reaper's idle clock.
    last_used: Instant,
    /// A request is currently executing inside the session. The registry
    /// guards this above reldb's own checkout so touch/reap/commit make
    /// their decision and mutation under one lock.
    busy: bool,
}

/// The id → transaction registry, owned by [`crate::Shared`].
pub struct SessionManager {
    sessions: Mutex<HashMap<String, SessionEntry>>,
    idle: Duration,
    /// Suffix for minted session ids.
    seq: AtomicU64,
    /// Id prefix (server start time in unix millis, hex), making ids
    /// unique across restarts like request ids.
    epoch: u64,
}

impl SessionManager {
    pub fn new(idle: Duration, epoch: u64) -> SessionManager {
        SessionManager {
            sessions: Mutex::new(HashMap::new()),
            idle,
            seq: AtomicU64::new(0),
            epoch,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<String, SessionEntry>> {
        self.sessions.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Begin a session: open a reldb session transaction and bind a fresh
    /// id to it.
    pub fn begin(&self, db: &Database) -> String {
        let token = db.begin_session_txn();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let id = format!("s-{:x}-{seq}", self.epoch);
        self.lock().insert(id.clone(), SessionEntry { token, last_used: Instant::now(), busy: true });
        // `busy: true` above reserves the entry against a reaper tick
        // firing between insert and the touch below on a loaded box;
        // release it immediately.
        self.finish(&id);
        id
    }

    /// Mark the session busy and return its token for request execution.
    /// The caller must pair this with [`SessionManager::finish`].
    fn checkout(&self, id: &str) -> Result<u64, SessionError> {
        let mut map = self.lock();
        let entry = map.get_mut(id).ok_or(SessionError::Unknown)?;
        if entry.busy {
            return Err(SessionError::Busy);
        }
        entry.busy = true;
        entry.last_used = Instant::now();
        Ok(entry.token)
    }

    /// Release a checked-out session and refresh its idle clock.
    fn finish(&self, id: &str) {
        if let Some(entry) = self.lock().get_mut(id) {
            entry.busy = false;
            entry.last_used = Instant::now();
        }
    }

    /// Run `f` inside session `id`'s transaction: its statements read the
    /// session's uncommitted writes and write into its undo log.
    pub fn with<T>(
        &self,
        id: &str,
        db: &Database,
        f: impl FnOnce() -> T,
    ) -> Result<T, SessionError> {
        let token = self.checkout(id)?;
        // A panic inside `f` unwinds through `with_session_txn`'s own
        // guard (the reldb state survives); this guard releases the
        // registry entry the same way so the session stays endable.
        struct Finish<'a> {
            mgr: &'a SessionManager,
            id: &'a str,
        }
        impl Drop for Finish<'_> {
            fn drop(&mut self) {
                self.mgr.finish(self.id);
            }
        }
        let _finish = Finish { mgr: self, id };
        match db.with_session_txn(token, |_| f()) {
            Ok(v) => Ok(v),
            // The registry said the token exists and is not busy, so a
            // reldb-level refusal means the token raced away (it cannot
            // through this registry); surface it as unknown.
            Err(_) => Err(SessionError::Unknown),
        }
    }

    /// End session `id` by committing (`commit == true`) or rolling back
    /// its transaction. The entry is removed first — under the registry
    /// lock, refusing busy sessions — so two racing enders cannot both
    /// settle one transaction.
    pub fn end(&self, id: &str, db: &Database, commit: bool) -> Result<reldb::DbResult<()>, SessionError> {
        let token = {
            let mut map = self.lock();
            let entry = map.get(id).ok_or(SessionError::Unknown)?;
            if entry.busy {
                return Err(SessionError::Busy);
            }
            map.remove(id).expect("present above").token
        };
        Ok(if commit { db.commit_session_txn(token) } else { db.rollback_session_txn(token) })
    }

    /// Sessions currently registered (busy or idle).
    pub fn open(&self) -> usize {
        self.lock().len()
    }

    /// Roll back every non-busy session idle past the deadline — or, on
    /// the final shutdown pass (`everything`), all of them — returning the
    /// reaped ids. Busy sessions are skipped, not waited for: the request
    /// inside refreshes `last_used` when it finishes.
    pub fn reap(&self, db: &Database, everything: bool) -> Vec<String> {
        let victims: Vec<(String, u64)> = {
            let mut map = self.lock();
            let ids: Vec<String> = map
                .iter()
                .filter(|(_, e)| !e.busy && (everything || e.last_used.elapsed() >= self.idle))
                .map(|(id, _)| id.clone())
                .collect();
            ids.into_iter()
                .map(|id| {
                    let token = map.remove(&id).expect("collected above").token;
                    (id, token)
                })
                .collect()
        };
        victims
            .into_iter()
            .map(|(id, token)| {
                // A rollback failure still reaps the registry entry; the
                // error is best-effort logged by the caller's event.
                let _ = db.rollback_session_txn(token);
                id
            })
            .collect()
    }
}

/// Background reaper for abandoned sessions: same lifecycle discipline as
/// the vacuum daemon — condvar stop signal, prompt shutdown, a final pass
/// (which rolls back *every* remaining session, so a drained server
/// leaves no uncommitted markers behind), joined handle.
pub struct SessionReaper {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl SessionReaper {
    pub(crate) fn start(shared: Arc<Shared>, interval: Duration) -> SessionReaper {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let handle = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("session-reaper".into())
                .spawn(move || {
                    let (lock, cv) = &*stop;
                    let run_pass = |everything: bool| {
                        let db = shared.graph.database();
                        for id in shared.sessions.reap(db, everything) {
                            shared.metrics.sessions_open.sub(1);
                            shared.metrics.sessions_reaped.add(1);
                            shared
                                .events
                                .emit("session_reaped", vec![("session", Json::str(id))]);
                        }
                    };
                    let mut stopped = lock.lock().unwrap_or_else(|e| e.into_inner());
                    loop {
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
                .expect("spawn session reaper")
        };
        SessionReaper { stop, handle: Some(handle) }
    }

    /// Signal the thread, wait for its final reap-everything pass, and
    /// join it.
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

impl Drop for SessionReaper {
    fn drop(&mut self) {
        self.stop_impl();
    }
}
