//! Compilation from the parsed AST into a logical [`Traversal`] step plan.
//!
//! Script variables are resolved at compile time against the values bound by
//! previously executed statements, so `g.V(similar_diseases)` compiles into
//! a GraphStep whose id filter is the variable's list value.

use std::collections::HashMap;

use crate::ast::*;
use crate::backend::{AggOp, Direction, EdgeEnd, ElementFilter, ElementKind, Pred, PropPred};
use crate::error::{GResult, GremlinError};
use crate::step::*;
use crate::structure::{value_to_id, ElementId, GValue};

/// Variable bindings produced by earlier statements in a script.
pub(crate) type VarEnv = HashMap<String, GValue>;

/// Compile one statement's traversal into a step plan.
pub(crate) fn compile(source: &SourceCall, env: &VarEnv) -> GResult<Traversal> {
    let kind = match source.start.name.as_str() {
        "V" => ElementKind::Vertices,
        "E" => ElementKind::Edges,
        other => return Err(GremlinError::Unsupported(format!("source step '{other}'"))),
    };
    let ids = args_to_ids(&source.start.args, env)?;
    let filter =
        if ids.is_empty() { ElementFilter::default() } else { ElementFilter::with_ids(ids) };
    let mut steps = vec![Step::Graph(GraphStep { kind, filter })];
    compile_calls(&source.steps, env, &mut steps)?;
    Ok(Traversal::new(steps))
}

/// Compile an anonymous traversal (used inside repeat/filter/union/...).
pub(crate) fn compile_anon(calls: &[StepCall], env: &VarEnv) -> GResult<Traversal> {
    let mut steps = Vec::new();
    compile_calls(calls, env, &mut steps)?;
    Ok(Traversal::new(steps))
}

fn args_to_ids(args: &[Arg], env: &VarEnv) -> GResult<Vec<ElementId>> {
    let mut ids = Vec::new();
    for a in args {
        let v = resolve_value(a, env)?;
        match v {
            GValue::List(items) => {
                for item in items {
                    ids.push(value_to_id(&item).ok_or_else(|| {
                        GremlinError::Execution(format!("value {item} is not a valid element id"))
                    })?);
                }
            }
            other => ids.push(value_to_id(&other).ok_or_else(|| {
                GremlinError::Execution(format!("value {other} is not a valid element id"))
            })?),
        }
    }
    Ok(ids)
}

fn resolve_value(arg: &Arg, env: &VarEnv) -> GResult<GValue> {
    match arg {
        Arg::Value(v) => Ok(v.clone()),
        Arg::Var(name) => env
            .get(name)
            .cloned()
            .ok_or_else(|| GremlinError::Execution(format!("unbound variable '{name}'"))),
        other => {
            Err(GremlinError::Unsupported(format!("expected a value argument, got {other:?}")))
        }
    }
}

fn string_arg(call: &StepCall, idx: usize, env: &VarEnv) -> GResult<String> {
    match resolve_value(&call.args[idx], env)? {
        GValue::Str(s) => Ok(s),
        other => Err(GremlinError::Unsupported(format!(
            "step '{}' expects a string argument, got {other}",
            call.name
        ))),
    }
}

fn string_args(call: &StepCall, env: &VarEnv) -> GResult<Vec<String>> {
    (0..call.args.len()).map(|i| string_arg(call, i, env)).collect()
}

fn int_arg(call: &StepCall, idx: usize, env: &VarEnv) -> GResult<i64> {
    match resolve_value(&call.args[idx], env)? {
        GValue::Long(v) => Ok(v),
        other => Err(GremlinError::Unsupported(format!(
            "step '{}' expects an integer argument, got {other}",
            call.name
        ))),
    }
}

fn compile_pred(p: &PredArg, env: &VarEnv) -> GResult<Pred> {
    let vals: Vec<GValue> = p.args.iter().map(|a| resolve_value(a, env)).collect::<GResult<_>>()?;
    // `within(list)` with a single list argument flattens it.
    let flat = |vals: Vec<GValue>| -> Vec<GValue> {
        if vals.len() == 1 {
            if let GValue::List(items) = &vals[0] {
                return items.clone();
            }
        }
        vals
    };
    Ok(match p.name.as_str() {
        "eq" => Pred::Eq(vals[0].clone()),
        "neq" => Pred::Neq(vals[0].clone()),
        "gt" => Pred::Gt(vals[0].clone()),
        "gte" => Pred::Gte(vals[0].clone()),
        "lt" => Pred::Lt(vals[0].clone()),
        "lte" => Pred::Lte(vals[0].clone()),
        "within" => Pred::Within(flat(vals)),
        "between" | "inside" => Pred::Between(vals[0].clone(), vals[1].clone()),
        other => return Err(GremlinError::Unsupported(format!("predicate '{other}'"))),
    })
}

fn compile_filter_arg(arg: &Arg, env: &VarEnv) -> GResult<FilterSpec> {
    match arg {
        Arg::Anon(calls) => Ok(FilterSpec { traversal: compile_anon(calls, env)?, compare: None }),
        Arg::Compare { traversal, op, value } => Ok(FilterSpec {
            traversal: compile_anon(traversal, env)?,
            compare: Some((*op, resolve_value(value, env)?)),
        }),
        other => Err(GremlinError::Unsupported(format!(
            "filter expects a traversal argument, got {other:?}"
        ))),
    }
}

fn compile_calls(calls: &[StepCall], env: &VarEnv, out: &mut Vec<Step>) -> GResult<()> {
    let mut i = 0;
    while i < calls.len() {
        let call = &calls[i];
        match call.name.as_str() {
            // ---------------------------------------------------- adjacency
            "out" | "in" | "both" | "outE" | "inE" | "bothE" => {
                let (direction, to) = match call.name.as_str() {
                    "out" => (Direction::Out, ElementKind::Vertices),
                    "in" => (Direction::In, ElementKind::Vertices),
                    "both" => (Direction::Both, ElementKind::Vertices),
                    "outE" => (Direction::Out, ElementKind::Edges),
                    "inE" => (Direction::In, ElementKind::Edges),
                    _ => (Direction::Both, ElementKind::Edges),
                };
                out.push(Step::Vertex(VertexStep {
                    direction,
                    edge_labels: string_args(call, env)?,
                    to,
                    filter: ElementFilter::default(),
                }));
            }
            "outV" | "inV" | "bothV" | "otherV" => {
                let end = match call.name.as_str() {
                    "outV" => EdgeEnd::Out,
                    "inV" => EdgeEnd::In,
                    "bothV" => EdgeEnd::Both,
                    _ => EdgeEnd::Other,
                };
                out.push(Step::EdgeVertex(EdgeVertexStep {
                    end,
                    filter: ElementFilter::default(),
                }));
            }
            // ------------------------------------------------------ filters
            "has" => {
                let key = string_arg(call, 0, env)?;
                let pred = match call.args.len() {
                    1 => Pred::Exists,
                    2 => match &call.args[1] {
                        Arg::Pred(p) => compile_pred(p, env)?,
                        other => Pred::Eq(resolve_value(other, env)?),
                    },
                    n => {
                        return Err(GremlinError::Unsupported(format!("has() with {n} arguments")))
                    }
                };
                out.push(Step::Has(vec![PropPred { key, pred }]));
            }
            "hasNot" => {
                let key = string_arg(call, 0, env)?;
                out.push(Step::Has(vec![PropPred { key, pred: Pred::Absent }]));
            }
            "hasLabel" => {
                let labels: Vec<GValue> =
                    string_args(call, env)?.into_iter().map(GValue::Str).collect();
                out.push(Step::Has(vec![PropPred {
                    key: "label".into(),
                    pred: Pred::Within(labels),
                }]));
            }
            "hasId" => {
                let ids: Vec<GValue> =
                    call.args.iter().map(|a| resolve_value(a, env)).collect::<GResult<_>>()?;
                out.push(Step::Has(vec![PropPred { key: "id".into(), pred: Pred::Within(ids) }]));
            }
            "filter" => out.push(Step::Filter(compile_filter_arg(&call.args[0], env)?)),
            "where" => out.push(Step::Where(compile_filter_arg(&call.args[0], env)?)),
            "not" => match &call.args[0] {
                Arg::Anon(calls) => out.push(Step::Not(compile_anon(calls, env)?)),
                other => {
                    return Err(GremlinError::Unsupported(format!(
                        "not() expects a traversal, got {other:?}"
                    )))
                }
            },
            "is" => {
                let pred = match &call.args[0] {
                    Arg::Pred(p) => compile_pred(p, env)?,
                    other => Pred::Eq(resolve_value(other, env)?),
                };
                out.push(Step::Is(pred));
            }
            "simplePath" => out.push(Step::SimplePath),
            // -------------------------------------------------- projections
            "values" => out.push(Step::Values(string_args(call, env)?)),
            "valueMap" => out.push(Step::ValueMap(string_args(call, env)?)),
            "properties" => out.push(Step::Properties(string_args(call, env)?)),
            "id" => out.push(Step::Id),
            "label" => out.push(Step::Label),
            "constant" => out.push(Step::Constant(resolve_value(&call.args[0], env)?)),
            // --------------------------------------------------- aggregates
            "count" => out.push(Step::Aggregate(AggOp::Count)),
            "sum" => out.push(Step::Aggregate(AggOp::Sum)),
            "mean" => out.push(Step::Aggregate(AggOp::Mean)),
            "min" => out.push(Step::Aggregate(AggOp::Min)),
            "max" => out.push(Step::Aggregate(AggOp::Max)),
            // ----------------------------------------------------- ordering
            "dedup" => out.push(Step::Dedup),
            "limit" => out.push(Step::Limit(int_arg(call, 0, env)? as u64)),
            "range" => {
                out.push(Step::Range(int_arg(call, 0, env)? as u64, int_arg(call, 1, env)? as u64))
            }
            "order" => {
                // Collect following `.by(...)` modulators.
                let mut keys: Vec<(OrderKey, bool)> = Vec::new();
                while i + 1 < calls.len() && calls[i + 1].name == "by" {
                    i += 1;
                    let by = &calls[i];
                    let mut key = OrderKey::Value;
                    let mut desc = false;
                    for a in &by.args {
                        match resolve_value(a, env)? {
                            GValue::Str(s) if s == "asc" || s == "incr" => desc = false,
                            GValue::Str(s) if s == "desc" || s == "decr" => desc = true,
                            GValue::Str(s) => key = OrderKey::Property(s),
                            other => {
                                return Err(GremlinError::Unsupported(format!(
                                    "order().by({other})"
                                )))
                            }
                        }
                    }
                    keys.push((key, desc));
                }
                if keys.is_empty() {
                    keys.push((OrderKey::Value, false));
                }
                out.push(Step::Order(keys));
            }
            // ------------------------------------------------------ looping
            "repeat" => {
                let body = match &call.args[0] {
                    Arg::Anon(calls) => compile_anon(calls, env)?,
                    other => {
                        return Err(GremlinError::Unsupported(format!(
                            "repeat() expects a traversal, got {other:?}"
                        )))
                    }
                };
                let mut times = None;
                let mut until = None;
                let mut emit = false;
                // Consume following modulators.
                while i + 1 < calls.len() {
                    match calls[i + 1].name.as_str() {
                        "times" => {
                            i += 1;
                            times = Some(int_arg(&calls[i], 0, env)? as u32);
                        }
                        "until" => {
                            i += 1;
                            until = Some(match &calls[i].args[0] {
                                Arg::Anon(c) => compile_anon(c, env)?,
                                other => {
                                    return Err(GremlinError::Unsupported(format!(
                                        "until() expects a traversal, got {other:?}"
                                    )))
                                }
                            });
                        }
                        "emit" => {
                            i += 1;
                            emit = true;
                        }
                        _ => break,
                    }
                }
                out.push(Step::Repeat { body, times, until, emit });
            }
            // ------------------------------------------------- side effects
            "store" => out.push(Step::Store(string_arg(call, 0, env)?)),
            "aggregate" => out.push(Step::AggregateSE(string_arg(call, 0, env)?)),
            "cap" => out.push(Step::Cap(string_arg(call, 0, env)?)),
            // ---------------------------------------------------- branching
            "union" | "coalesce" => {
                let branches: Vec<Traversal> = call
                    .args
                    .iter()
                    .map(|a| match a {
                        Arg::Anon(calls) => compile_anon(calls, env),
                        other => Err(GremlinError::Unsupported(format!(
                            "{}() expects traversals, got {other:?}",
                            call.name
                        ))),
                    })
                    .collect::<GResult<_>>()?;
                if call.name == "union" {
                    out.push(Step::Union(branches));
                } else {
                    out.push(Step::Coalesce(branches));
                }
            }
            // -------------------------------------------------------- misc
            "path" => out.push(Step::Path),
            "as" => out.push(Step::As(string_arg(call, 0, env)?)),
            "select" => out.push(Step::Select(string_args(call, env)?)),
            "group" | "groupCount" => {
                // Optional `.by('key')` modulator.
                let mut key = None;
                if i + 1 < calls.len() && calls[i + 1].name == "by" {
                    i += 1;
                    key = Some(string_arg(&calls[i], 0, env)?);
                }
                if call.name == "group" {
                    out.push(Step::Group(key));
                } else {
                    out.push(Step::GroupCount(key));
                }
            }
            "fold" => out.push(Step::Fold),
            "unfold" => out.push(Step::Unfold),
            "identity" => out.push(Step::Identity),
            "V" => {
                // Mid-traversal V(ids): jump to vertices (used after cap()).
                let ids = args_to_ids(&call.args, env)?;
                let filter = if ids.is_empty() {
                    ElementFilter::default()
                } else {
                    ElementFilter::with_ids(ids)
                };
                out.push(Step::Graph(GraphStep { kind: ElementKind::Vertices, filter }));
            }
            other => return Err(GremlinError::Unsupported(format!("step '{other}'"))),
        }
        i += 1;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn compile_str(s: &str) -> Traversal {
        let script = parse(s).unwrap();
        compile(&script.statements[0].traversal, &VarEnv::new()).unwrap()
    }

    #[test]
    fn compile_basic_chain() {
        let t = compile_str("g.V().hasLabel('patient').has('name', 'Alice').outE()");
        assert_eq!(t.steps.len(), 4);
        assert!(matches!(&t.steps[0], Step::Graph(g) if g.kind == ElementKind::Vertices));
        assert!(matches!(&t.steps[1], Step::Has(p) if p[0].key == "label"));
        assert!(matches!(&t.steps[2], Step::Has(p) if p[0].key == "name"));
        assert!(
            matches!(&t.steps[3], Step::Vertex(v) if v.to == ElementKind::Edges && v.direction == Direction::Out)
        );
    }

    #[test]
    fn compile_ids_into_graph_filter() {
        let t = compile_str("g.V(1, 'p::2')");
        match &t.steps[0] {
            Step::Graph(g) => {
                assert_eq!(
                    g.filter.ids,
                    Some(vec![ElementId::Long(1), ElementId::Str("p::2".into())])
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compile_repeat_with_modulators() {
        let t = compile_str("g.V(1).repeat(out('isa').dedup().store('x')).times(2).cap('x')");
        match &t.steps[1] {
            Step::Repeat { body, times, emit, .. } => {
                assert_eq!(*times, Some(2));
                assert!(!emit);
                assert_eq!(body.steps.len(), 3);
            }
            other => panic!("{other:?}"),
        }
        assert!(matches!(&t.steps[2], Step::Cap(k) if k == "x"));
    }

    #[test]
    fn compile_variable_ids() {
        let mut env = VarEnv::new();
        env.insert("xs".into(), GValue::List(vec![GValue::Long(5), GValue::Str("d::2".into())]));
        let script = parse("g.V(xs).in('hasDisease')").unwrap();
        let t = compile(&script.statements[0].traversal, &env).unwrap();
        match &t.steps[0] {
            Step::Graph(g) => assert_eq!(g.filter.ids.as_ref().unwrap().len(), 2),
            other => panic!("{other:?}"),
        }
        // Unbound variable errors.
        let script = parse("g.V(nope)").unwrap();
        assert!(compile(&script.statements[0].traversal, &VarEnv::new()).is_err());
    }

    #[test]
    fn compile_comparison_filter() {
        let t = compile_str("g.V(1).outE('follows').filter(outV().id() == 9)");
        match &t.steps[2] {
            Step::Filter(spec) => {
                assert_eq!(spec.compare, Some((CompareOp::Eq, GValue::Long(9))));
                assert_eq!(spec.traversal.steps.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compile_order_by_keys() {
        let t = compile_str("g.V().order().by('name', desc).by('age')");
        match &t.steps[1] {
            Step::Order(keys) => {
                assert_eq!(keys.len(), 2);
                assert_eq!(keys[0], (OrderKey::Property("name".into()), true));
                assert_eq!(keys[1], (OrderKey::Property("age".into()), false));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn compile_predicates_and_union() {
        let t = compile_str("g.V().has('age', gt(30)).union(out('a'), in('b'))");
        assert!(matches!(&t.steps[1], Step::Has(p) if matches!(p[0].pred, Pred::Gt(_))));
        assert!(matches!(&t.steps[2], Step::Union(b) if b.len() == 2));
    }

    #[test]
    fn compile_rejects_unknown_step() {
        let script = parse("g.V().frobnicate()").unwrap();
        let err = compile(&script.statements[0].traversal, &VarEnv::new()).unwrap_err();
        assert!(matches!(err, GremlinError::Unsupported(_)));
    }

    #[test]
    fn compile_within_flattens_single_list() {
        let mut env = VarEnv::new();
        env.insert(
            "xs".into(),
            GValue::List(vec![GValue::Str("a".into()), GValue::Str("b".into())]),
        );
        let script = parse("g.V().has('tag', within(xs))").unwrap();
        let t = compile(&script.statements[0].traversal, &env).unwrap();
        match &t.steps[1] {
            Step::Has(p) => match &p[0].pred {
                Pred::Within(vals) => assert_eq!(vals.len(), 2),
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }
}
