//! Script-level execution: multi-statement Gremlin with variables.

use std::sync::Arc;

use crate::ast::{Script, Terminal};
use crate::backend::GraphBackend;
use crate::compile::{compile, VarEnv};
use crate::error::{GResult, GremlinError};
use crate::exec::Executor;
use crate::observe::TraversalObserver;
use crate::step::Traversal;
use crate::strategy::StrategyRegistry;
use crate::structure::GValue;

/// Runs Gremlin scripts against a backend with a strategy registry applied
/// at compile time — the role of TinkerPop's `GraphTraversalSource`.
pub struct ScriptRunner<'a> {
    backend: &'a dyn GraphBackend,
    strategies: StrategyRegistry,
    observer: Option<Arc<dyn TraversalObserver>>,
}

impl<'a> ScriptRunner<'a> {
    pub fn new(backend: &'a dyn GraphBackend) -> ScriptRunner<'a> {
        ScriptRunner { backend, strategies: StrategyRegistry::new(), observer: None }
    }

    pub fn with_strategies(mut self, strategies: StrategyRegistry) -> Self {
        self.strategies = strategies;
        self
    }

    /// Attach an observer: it receives strategy-rewrite and per-step timing
    /// events, and its [`TraversalObserver::take_report`] feeds the
    /// `.profile()` terminal.
    pub fn with_observer(mut self, observer: Arc<dyn TraversalObserver>) -> Self {
        self.observer = Some(observer);
        self
    }

    pub fn strategies(&self) -> &StrategyRegistry {
        &self.strategies
    }

    /// Parse, compile, optimize, and execute a script. Returns the final
    /// statement's results.
    pub fn run(&self, script_text: &str) -> GResult<Vec<GValue>> {
        self.run_script(&crate::parser::parse(script_text)?)
    }

    /// Compile, optimize, and execute an already-parsed script. Returns
    /// the final statement's results.
    pub fn run_script(&self, script: &Script) -> GResult<Vec<GValue>> {
        let mut env = VarEnv::new();
        let mut last: Option<Vec<GValue>> = None;
        for stmt in &script.statements {
            if let Some(obs) = self.observer.as_deref() {
                obs.statement_started();
            }
            let mut traversal = compile(&stmt.traversal, &env)?;
            self.strategies.apply_all_observed(&mut traversal, self.observer.as_deref());
            if stmt.terminal == Some(Terminal::Explain) {
                // Explain never executes: render the optimized plan plus
                // whatever the backend can say about each step without
                // touching data.
                let text = self.render_explain(&traversal);
                if let Some(name) = &stmt.assign {
                    env.insert(name.clone(), GValue::Str(text.clone()));
                }
                last = Some(vec![GValue::Str(text)]);
                continue;
            }
            let mut executor = Executor::new(self.backend);
            if let Some(obs) = self.observer.as_deref() {
                executor = executor.with_observer(obs);
            }
            let (values, _) = executor.run(&traversal)?;
            // Only an assignment keeps a copy of the results.
            if let Some(name) = &stmt.assign {
                let assigned = match stmt.terminal {
                    Some(Terminal::Next) => values.first().cloned().unwrap_or(GValue::Null),
                    Some(Terminal::Iterate) => GValue::List(Vec::new()),
                    _ => GValue::List(values.clone()),
                };
                env.insert(name.clone(), assigned);
            }
            let final_values = match stmt.terminal {
                Some(Terminal::Next) => values.into_iter().take(1).collect(),
                Some(Terminal::Iterate) => Vec::new(),
                Some(Terminal::Profile) => {
                    // The observer (when attached) owns the collected
                    // events; without one, fall back to the optimized plan
                    // so `.profile()` still answers something useful.
                    let report = self
                        .observer
                        .as_deref()
                        .and_then(|o| o.take_report())
                        .unwrap_or_else(|| format!("plan: {}", traversal.describe()));
                    vec![GValue::Str(report)]
                }
                _ => values,
            };
            last = Some(final_values);
        }
        last.ok_or_else(|| GremlinError::Parse("script produced no statements".into()))
    }

    /// Render an EXPLAIN text for an optimized plan: the plan string, then
    /// per-step backend detail (generated SQL, table eliminations) for
    /// steps where the backend has any.
    fn render_explain(&self, traversal: &Traversal) -> String {
        let mut out = format!("plan: {}", traversal.describe());
        for (i, step) in traversal.steps.iter().enumerate() {
            let lines = self.backend.explain_step(step);
            if !lines.is_empty() {
                out.push_str(&format!("\nstep {i}: {}", step.describe()));
                for l in lines {
                    out.push_str("\n  ");
                    out.push_str(&l);
                }
            }
        }
        out
    }

    /// Compile a single-statement script to its optimized plan without
    /// executing it (used by tests and plan inspection).
    pub fn plan(&self, script_text: &str) -> GResult<crate::step::Traversal> {
        let script = crate::parser::parse(script_text)?;
        let stmt =
            script.statements.first().ok_or_else(|| GremlinError::Parse("empty script".into()))?;
        let mut traversal = compile(&stmt.traversal, &VarEnv::new())?;
        self.strategies.apply_all(&mut traversal);
        Ok(traversal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memgraph::MemGraph;
    use crate::structure::{Edge, Vertex};

    fn diamond() -> MemGraph {
        // 1 -> 2 -> 4, 1 -> 3 -> 4 (label "to"), vertex property w.
        let g = MemGraph::new();
        for (id, w) in [(1i64, 1.0f64), (2, 2.0), (3, 3.0), (4, 4.0)] {
            g.add_vertex(Vertex::new(id, "node").with_property("w", w));
        }
        g.add_edge(Edge::new(100i64, "to", 1i64, 2i64).with_property("len", 5i64));
        g.add_edge(Edge::new(101i64, "to", 1i64, 3i64).with_property("len", 7i64));
        g.add_edge(Edge::new(102i64, "to", 2i64, 4i64).with_property("len", 1i64));
        g.add_edge(Edge::new(103i64, "to", 3i64, 4i64).with_property("len", 2i64));
        g
    }

    #[test]
    fn basic_traversal_pipeline() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        let out = r.run("g.V().count()").unwrap();
        assert_eq!(out, vec![GValue::Long(4)]);
        let out = r.run("g.V(1).out('to').values('w')").unwrap();
        assert_eq!(out.len(), 2);
        let out = r.run("g.V(1).out('to').out('to').dedup()").unwrap();
        assert_eq!(out.len(), 1); // vertex 4 once
        let out = r.run("g.V(1).outE('to').has('len', gt(5)).inV().id()").unwrap();
        assert_eq!(out, vec![GValue::Long(3)]);
    }

    #[test]
    fn aggregates_and_order() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        assert_eq!(r.run("g.V().values('w').sum()").unwrap(), vec![GValue::Double(10.0)]);
        assert_eq!(r.run("g.V().values('w').mean()").unwrap(), vec![GValue::Double(2.5)]);
        assert_eq!(r.run("g.E().values('len').max()").unwrap(), vec![GValue::Long(7)]);
        let out = r.run("g.V().order().by('w', desc).limit(2).values('w')").unwrap();
        assert_eq!(out, vec![GValue::Double(4.0), GValue::Double(3.0)]);
    }

    #[test]
    fn repeat_times_and_store_cap() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        let out = r.run("g.V(1).repeat(out('to').dedup().store('x')).times(2).cap('x')").unwrap();
        match &out[0] {
            GValue::List(items) => assert_eq!(items.len(), 3), // 2,3 then 4
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn repeat_until() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        // Walk until reaching vertex 4.
        let out = r.run("g.V(1).repeat(out('to')).until(hasId(4)).dedup().id()").unwrap();
        assert_eq!(out, vec![GValue::Long(4)]);
    }

    #[test]
    fn variables_across_statements() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        let out = r
            .run("mids = g.V(1).out('to').id().fold().next(); g.V(mids).out('to').dedup().id()")
            .unwrap();
        assert_eq!(out, vec![GValue::Long(4)]);
    }

    #[test]
    fn assigned_statements_feed_later_ones_under_every_terminal() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        let ids = |script: &str| r.run(script).unwrap();
        let longs = |xs: &[i64]| xs.iter().map(|&x| GValue::Long(x)).collect::<Vec<_>>();
        // No terminal and `.toList()` bind the whole result list.
        assert_eq!(ids("xs = g.V(1).out('to'); g.V(xs).out('to').id()"), longs(&[4, 4]));
        assert_eq!(ids("xs = g.V(1).out('to').toList(); g.V(xs).id()"), longs(&[2, 3]));
        // `.next()` binds the first result, or null when there is none.
        assert_eq!(ids("x = g.V(1).out('to').next(); g.V(x).out('to').id()"), longs(&[4]));
        assert!(r.run("x = g.V(4).out('to').next(); g.V(x)").is_err());
        // `.iterate()` binds the empty list, which reads like no ids.
        assert_eq!(ids("xs = g.V(1).out('to').iterate(); g.V(xs).id()"), longs(&[1, 2, 3, 4]));
        // A bound element keeps its properties.
        assert_eq!(
            ids("xs = g.V(1).out('to').toList(); g.V(xs).values('w')"),
            vec![GValue::Double(2.0), GValue::Double(3.0)]
        );
    }

    #[test]
    fn unassigned_statements_return_their_results_unchanged() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        for (alone, terminal) in [
            ("g.V(1).out('to')", ""),
            ("g.V(1).out('to')", ".toList()"),
            ("g.V(1).out('to')", ".next()"),
            ("g.V(1).out('to')", ".iterate()"),
            ("g.V(1).outE('to').values('len')", ""),
        ] {
            let statement = format!("{alone}{terminal}");
            let want = r.run(&statement).unwrap();
            for script in
                [format!("xs = g.V(4).toList(); {statement}"), format!("g.V(2); {statement}")]
            {
                assert_eq!(r.run(&script).unwrap(), want, "{script}");
            }
        }
        let full = r.run("g.V(1).out('to')").unwrap();
        assert_eq!(full.len(), 2);
        assert_eq!(r.run("g.V(1).out('to').next()").unwrap(), full[..1]);
        assert_eq!(r.run("g.V(1).out('to').toList()").unwrap(), full);
        assert!(r.run("g.V(1).out('to').iterate()").unwrap().is_empty());
    }

    #[test]
    fn filter_comparison_and_where() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        // LinkBench getLink shape.
        let out = r.run("g.V(1).outE('to').filter(inV().id() == 3)").unwrap();
        assert_eq!(out.len(), 1);
        let out = r.run("g.V().where(__.out('to').has('w', 4.0)).id()").unwrap();
        assert_eq!(out, vec![GValue::Long(2), GValue::Long(3)]);
        let out = r.run("g.V().not(out('to')).id()").unwrap();
        assert_eq!(out, vec![GValue::Long(4)]);
    }

    #[test]
    fn union_path_simple_path() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        let out = r.run("g.V(2).union(out('to'), in('to')).id()").unwrap();
        assert_eq!(out, vec![GValue::Long(4), GValue::Long(1)]);
        let out = r.run("g.V(1).out('to').out('to').path()").unwrap();
        assert_eq!(out.len(), 2);
        match &out[0] {
            GValue::Path(p) => assert_eq!(p.len(), 3),
            other => panic!("{other:?}"),
        }
        // simplePath drops cyclic walks: 1->2->4 has no repeats, keeps 2.
        let out = r.run("g.V(1).out('to').in('to').simplePath().id()").unwrap();
        // From 1: out->2 in-> {1} dropped; out->3 in->{1} dropped => empty.
        assert!(out.is_empty());
    }

    #[test]
    fn select_as_valuemap() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        let out = r.run("g.V(1).as('a').out('to').as('b').select('a').id()").unwrap();
        assert_eq!(out, vec![GValue::Long(1), GValue::Long(1)]);
        let out = r.run("g.V(1).valueMap('w')").unwrap();
        match &out[0] {
            GValue::Map(m) => assert_eq!(m.get("w"), Some(&GValue::Double(1.0))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn next_terminal_and_iterate() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        let out = r.run("g.V().order().by('w').id().next()").unwrap();
        assert_eq!(out, vec![GValue::Long(1)]);
        let out = r.run("g.V().store('all').iterate()").unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn is_and_constant_and_range() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        let out = r.run("g.V().values('w').is(gt(2.5))").unwrap();
        assert_eq!(out.len(), 2);
        let out = r.run("g.V().constant(9).dedup()").unwrap();
        assert_eq!(out, vec![GValue::Long(9)]);
        let out = r.run("g.V().order().by('w').range(1, 3).values('w')").unwrap();
        assert_eq!(out, vec![GValue::Double(2.0), GValue::Double(3.0)]);
    }

    #[test]
    fn error_paths() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        assert!(r.run("g.V().outV()").is_err()); // edge step on vertices
        assert!(r.run("g.V().out().repeat(out())").is_err()); // repeat without times/until
        assert!(r.run("g.V(unbound_var)").is_err());
    }

    #[test]
    fn other_v_roundtrip() {
        let g = diamond();
        let r = ScriptRunner::new(&g);
        // From vertex 2 through both incident edges, otherV gives 1 and 4.
        let mut out = r.run("g.V(2).bothE('to').otherV().id()").unwrap();
        out.sort();
        assert_eq!(out, vec![GValue::Long(1), GValue::Long(4)]);
    }
}
