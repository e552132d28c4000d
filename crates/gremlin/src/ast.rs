//! Abstract syntax tree for Gremlin scripts.
//!
//! A script is a sequence of `;`-separated statements, each optionally
//! assigning its result to a variable — matching the paper's Section 4
//! example:
//!
//! ```text
//! similar_diseases = g.V().hasLabel('patient')...cap('x').next();
//! g.V(similar_diseases).in('hasDisease').dedup().values('patientID')
//! ```

use crate::step::CompareOp;
use crate::structure::GValue;

/// A full Gremlin script.
#[derive(Debug, Clone, PartialEq)]
pub struct Script {
    pub statements: Vec<Statement>,
}

impl Script {
    /// True when some statement ends in `.profile()`.
    pub fn profiles(&self) -> bool {
        self.statements.iter().any(|s| s.terminal == Some(Terminal::Profile))
    }
}

/// One statement: an optional assignment target plus a rooted traversal.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    pub assign: Option<String>,
    pub traversal: SourceCall,
    pub terminal: Option<Terminal>,
}

/// Terminal methods that end a traversal chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// `.next()` — take the first result.
    Next,
    /// `.toList()` — collect all results into a list.
    ToList,
    /// `.iterate()` — discard results (side effects only).
    Iterate,
    /// `.explain()` — do not execute; return the optimized plan and, when
    /// the backend supports it, the SQL each GSA step would generate.
    Explain,
    /// `.profile()` — execute, then return a per-step profiling report.
    Profile,
}

/// A traversal rooted at the graph source `g`: the start step (`V`/`E`)
/// plus the following chained steps.
#[derive(Debug, Clone, PartialEq)]
pub struct SourceCall {
    pub start: StepCall,
    pub steps: Vec<StepCall>,
}

/// One chained method call.
#[derive(Debug, Clone, PartialEq)]
pub struct StepCall {
    pub name: String,
    pub args: Vec<Arg>,
}

/// A predicate invocation (TinkerPop's `P`): `eq(5)`, `within('a','b')`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredArg {
    pub name: String,
    pub args: Vec<Arg>,
}

/// An argument of a step call.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A literal value.
    Value(GValue),
    /// A script variable reference (bound by a prior statement).
    Var(String),
    /// An anonymous traversal (`out('isa').dedup()` or `__.out(...)`).
    Anon(Vec<StepCall>),
    /// A predicate (`eq(...)`, `within(...)`, ...).
    Pred(PredArg),
    /// Comparison sugar: `outV().id() == id2`.
    Compare {
        traversal: Vec<StepCall>,
        op: CompareOp,
        value: Box<Arg>,
    },
}

impl StepCall {
    pub fn new(name: &str, args: Vec<Arg>) -> StepCall {
        StepCall { name: name.to_string(), args }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let s = StepCall::new("has", vec![Arg::Value(GValue::Str("name".into()))]);
        assert_eq!(s.name, "has");
        assert_eq!(s.args.len(), 1);
    }
}
