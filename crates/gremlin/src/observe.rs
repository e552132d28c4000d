//! Query observability hooks.
//!
//! A [`TraversalObserver`] receives events from the script runner (where
//! each statement starts), the compile pipeline (which strategies rewrote
//! the plan) and the interpreter (per-step wall time and traverser
//! counts). It observes the one traversal; it is not a second pipeline.
//! The overlay backend in `db2graph-core` implements it with its
//! `Profiler`, which records these events and the backend's own (table
//! decisions, generated SQL, template cache hits) as one span tree and
//! derives the profile report from it.
//!
//! The trait lives here — below the backend crates — so the gremlin layer
//! never depends on a particular backend's metrics representation. All
//! methods have empty defaults: an observer implements only what it needs,
//! and the pipeline only pays for observation when an observer is attached.

/// Receiver for compile-time and run-time traversal events.
pub trait TraversalObserver: Send + Sync {
    /// A script statement is about to compile and run; what follows, up
    /// to the next call, belongs to it.
    fn statement_started(&self) {}

    /// A strategy changed the plan. `before`/`after` are
    /// [`crate::step::Traversal::describe`] renderings; called only when
    /// they differ.
    fn strategy_applied(&self, _name: &str, _before: &str, _after: &str) {}

    /// A top-level step is about to run. Paired with [`step_finished`] —
    /// an observer that builds hierarchical traces opens a span here and
    /// closes it when the step finishes, so backend events emitted during
    /// the step nest under it.
    ///
    /// [`step_finished`]: TraversalObserver::step_finished
    fn step_started(&self, _index: usize, _description: &str) {}

    /// A top-level step finished. `index` is the step's position in the
    /// optimized plan, `in_count`/`out_count` are the traverser frontier
    /// sizes before and after, `nanos` is wall time spent in the step
    /// (including backend calls).
    fn step_finished(
        &self,
        _index: usize,
        _description: &str,
        _in_count: usize,
        _out_count: usize,
        _nanos: u64,
    ) {
    }

    /// Render the report of the running statement — the events since the
    /// last [`statement_started`] — if this observer builds one. Used by
    /// the script-level `.profile()` terminal, which must return the report
    /// as a traversal result.
    ///
    /// [`statement_started`]: TraversalObserver::statement_started
    fn take_report(&self) -> Option<String> {
        None
    }
}

/// An observer that ignores every event (useful in tests).
pub struct NoopObserver;

impl TraversalObserver for NoopObserver {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_inert() {
        let o = NoopObserver;
        o.strategy_applied("x", "a", "b");
        o.step_started(0, "s");
        o.step_finished(0, "s", 1, 2, 3);
        assert!(o.take_report().is_none());
    }
}
