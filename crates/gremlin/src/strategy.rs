//! Traversal strategies — the provider optimization hook.
//!
//! TinkerPop "opens up a Provider Strategy API for graph database developers
//! to add customized optimization strategies specific to the particular
//! graph database implementation" (Section 6.1). A [`TraversalStrategy`]
//! mutates a compiled step plan; a [`StrategyRegistry`] applies every
//! registered strategy, recursing into nested traversals (repeat bodies,
//! union branches, filters) exactly once per compile.

use std::sync::Arc;

use crate::observe::TraversalObserver;
use crate::step::{Step, Traversal};

/// A plan-rewriting optimization.
pub trait TraversalStrategy: Send + Sync {
    /// Stable name, used to enable/disable strategies in experiments.
    fn name(&self) -> &str;
    /// Mutate the traversal in place. Must preserve query semantics.
    fn apply(&self, traversal: &mut Traversal);
    /// Mutate a nested traversal (a repeat body, a branch, a filter) in
    /// place. Its elements can flow on into the enclosing traversal — into
    /// a path, say — so a strategy that reasons about what the rest of a
    /// traversal does with its elements rewrites less here. Defaults to
    /// [`Self::apply`].
    fn apply_nested(&self, traversal: &mut Traversal) {
        self.apply(traversal)
    }
}

/// An ordered collection of strategies.
#[derive(Default, Clone)]
pub struct StrategyRegistry {
    strategies: Vec<Arc<dyn TraversalStrategy>>,
}

impl StrategyRegistry {
    pub fn new() -> StrategyRegistry {
        StrategyRegistry::default()
    }

    pub fn add(&mut self, s: Arc<dyn TraversalStrategy>) {
        self.strategies.push(s);
    }

    pub(crate) fn names(&self) -> Vec<&str> {
        self.strategies.iter().map(|s| s.name()).collect()
    }

    /// Apply all strategies to the traversal and, recursively, to every
    /// nested traversal.
    pub fn apply_all(&self, traversal: &mut Traversal) {
        self.apply_all_observed(traversal, None);
    }

    /// Like [`Self::apply_all`], additionally reporting each top-level plan
    /// rewrite to the observer. The before/after comparison (two
    /// `describe()` renderings per strategy) only happens when an observer
    /// is attached, so the unobserved path costs nothing extra.
    pub(crate) fn apply_all_observed(
        &self,
        traversal: &mut Traversal,
        observer: Option<&dyn TraversalObserver>,
    ) {
        for s in &self.strategies {
            match observer {
                None => s.apply(traversal),
                Some(obs) => {
                    let before = traversal.describe();
                    s.apply(traversal);
                    let after = traversal.describe();
                    if before != after {
                        obs.strategy_applied(s.name(), &before, &after);
                    }
                }
            }
        }
        self.apply_to_nested(traversal);
    }

    /// Rewrite every traversal nested in `traversal`'s steps, recursively,
    /// with [`TraversalStrategy::apply_nested`]. Unobserved: these rewrites
    /// are implementation detail of the enclosing step.
    fn apply_to_nested(&self, traversal: &mut Traversal) {
        let rewrite = |t: &mut Traversal| {
            for s in &self.strategies {
                s.apply_nested(t);
            }
            self.apply_to_nested(t);
        };
        for step in &mut traversal.steps {
            match step {
                Step::Repeat { body, until, .. } => {
                    rewrite(body);
                    if let Some(u) = until {
                        rewrite(u);
                    }
                }
                Step::Union(branches) | Step::Coalesce(branches) => {
                    for b in branches {
                        rewrite(b);
                    }
                }
                Step::Filter(spec) | Step::Where(spec) => rewrite(&mut spec.traversal),
                Step::Not(t) => rewrite(t),
                _ => {}
            }
        }
    }
}

impl std::fmt::Debug for StrategyRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StrategyRegistry").field("strategies", &self.names()).finish()
    }
}

/// Built-in strategy: remove no-op `identity()` steps.
pub struct IdentityRemoval;

impl TraversalStrategy for IdentityRemoval {
    fn name(&self) -> &str {
        "IdentityRemoval"
    }

    fn apply(&self, traversal: &mut Traversal) {
        traversal.steps.retain(|s| !matches!(s, Step::Identity));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::FilterSpec;

    #[test]
    fn identity_removal_cleans_plan() {
        let mut t = Traversal::new(vec![Step::Identity, Step::Dedup, Step::Identity]);
        let mut reg = StrategyRegistry::new();
        reg.add(Arc::new(IdentityRemoval));
        reg.apply_all(&mut t);
        assert_eq!(t.steps, vec![Step::Dedup]);
    }

    #[test]
    fn registry_recurses_into_nested_traversals() {
        let mut t = Traversal::new(vec![
            Step::Repeat {
                body: Traversal::new(vec![Step::Identity, Step::Dedup]),
                times: Some(2),
                until: None,
                emit: false,
            },
            Step::Filter(FilterSpec {
                traversal: Traversal::new(vec![Step::Identity]),
                compare: None,
            }),
        ]);
        let mut reg = StrategyRegistry::new();
        reg.add(Arc::new(IdentityRemoval));
        reg.apply_all(&mut t);
        match &t.steps[0] {
            Step::Repeat { body, .. } => assert_eq!(body.steps, vec![Step::Dedup]),
            other => panic!("{other:?}"),
        }
        match &t.steps[1] {
            Step::Filter(spec) => assert!(spec.traversal.steps.is_empty()),
            other => panic!("{other:?}"),
        }
        assert_eq!(reg.names(), vec!["IdentityRemoval"]);
    }
}
