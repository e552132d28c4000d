//! The traversal interpreter.
//!
//! Executes a compiled [`Traversal`] against a [`GraphBackend`]. Traversers
//! flow step to step in batches so that each GSA step makes *one* backend
//! call for the whole frontier — which, for the SQL overlay backend, is what
//! turns a traversal hop into a single `... WHERE src_v IN (...)` query
//! instead of a query per vertex.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::backend::{element_property, AggOp, BackendOutput, ElementKind, GraphBackend};
use crate::error::{GResult, GremlinError};
use crate::observe::TraversalObserver;
use crate::step::{CompareOp, FilterSpec, OrderKey, Step, Traversal};
use crate::structure::{Element, ElementId, GValue};

/// Side-effect collections (`store`, `aggregate`, `cap`).
#[derive(Debug, Clone, Default)]
pub(crate) struct SideEffects {
    map: HashMap<String, Vec<GValue>>,
}

impl SideEffects {
    pub(crate) fn push(&mut self, key: &str, value: GValue) {
        self.map.entry(key.to_string()).or_default().push(value);
    }

    pub(crate) fn get(&self, key: &str) -> &[GValue] {
        self.map.get(key).map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// One unit of traversal state.
#[derive(Debug, Clone)]
pub(crate) struct Traverser {
    pub value: GValue,
    /// Visited objects, populated only when the traversal needs paths.
    pub(crate) path: Vec<GValue>,
    /// `as(...)` labels.
    pub labels: HashMap<String, GValue>,
    /// Id of the vertex this traverser's current edge was reached from
    /// (needed by `otherV()`).
    pub(crate) prev_vertex: Option<ElementId>,
}

impl Traverser {
    fn new(value: GValue, track_paths: bool) -> Traverser {
        let path = if track_paths { vec![value.clone()] } else { Vec::new() };
        Traverser { value, path, labels: HashMap::new(), prev_vertex: None }
    }

    /// The traverser moved on to `value`. The current value is replaced,
    /// so only the history (path, labels, origin vertex) is copied.
    fn advance(&self, value: GValue, track_paths: bool) -> Traverser {
        let mut path = self.path.clone();
        if track_paths {
            path.push(value.clone());
        }
        Traverser {
            value,
            path,
            labels: self.labels.clone(),
            prev_vertex: self.prev_vertex.clone(),
        }
    }
}

/// Hard cap on repeat() iterations to guard against unbounded loops.
const MAX_REPEAT_ITERATIONS: u32 = 64;

/// Interpreter over a graph backend.
pub(crate) struct Executor<'a> {
    backend: &'a dyn GraphBackend,
    observer: Option<&'a dyn TraversalObserver>,
}

struct Ctx {
    side_effects: SideEffects,
    track_paths: bool,
}

impl<'a> Executor<'a> {
    pub(crate) fn new(backend: &'a dyn GraphBackend) -> Executor<'a> {
        Executor { backend, observer: None }
    }

    /// Attach an observer receiving per-step timing events for top-level
    /// steps. Without one, execution takes no timestamps at all.
    pub(crate) fn with_observer(mut self, observer: &'a dyn TraversalObserver) -> Executor<'a> {
        self.observer = Some(observer);
        self
    }

    /// Run a traversal from the graph source; returns final values and the
    /// side-effect store.
    pub(crate) fn run(&self, traversal: &Traversal) -> GResult<(Vec<GValue>, SideEffects)> {
        let mut ctx =
            Ctx { side_effects: SideEffects::default(), track_paths: traversal.needs_paths() };
        let out = match self.observer {
            None => self.run_steps(&traversal.steps, Vec::new(), &mut ctx)?,
            Some(obs) => {
                // Observed variant: time each top-level step. Nested
                // traversals (repeat bodies, union branches) stay inside
                // their enclosing step's measurement.
                let mut current = Vec::new();
                for (i, step) in traversal.steps.iter().enumerate() {
                    let in_count = current.len();
                    let desc = step.describe();
                    obs.step_started(i, &desc);
                    let start = std::time::Instant::now();
                    current = self.run_step(step, current, &mut ctx)?;
                    obs.step_finished(
                        i,
                        &desc,
                        in_count,
                        current.len(),
                        start.elapsed().as_nanos() as u64,
                    );
                }
                current
            }
        };
        Ok((out.into_iter().map(|t| t.value).collect(), ctx.side_effects))
    }

    fn run_steps(
        &self,
        steps: &[Step],
        mut current: Vec<Traverser>,
        ctx: &mut Ctx,
    ) -> GResult<Vec<Traverser>> {
        for step in steps {
            current = self.run_step(step, current, ctx)?;
        }
        Ok(current)
    }

    fn run_step(
        &self,
        step: &Step,
        current: Vec<Traverser>,
        ctx: &mut Ctx,
    ) -> GResult<Vec<Traverser>> {
        match step {
            Step::Graph(g) => {
                let output = self.backend.graph_elements(g.kind, &g.filter)?;
                let values: Vec<GValue> = match output {
                    BackendOutput::Elements(es) => {
                        es.into_iter().map(GValue::from_element).collect()
                    }
                    BackendOutput::Values(vs) => vs,
                    BackendOutput::Aggregate(v) => vec![v],
                };
                if current.is_empty() {
                    Ok(values.into_iter().map(|v| Traverser::new(v, ctx.track_paths)).collect())
                } else {
                    // Mid-traversal V(ids): flat-map per incoming traverser.
                    let mut out = Vec::with_capacity(current.len() * values.len());
                    for t in &current {
                        for v in &values {
                            out.push(t.advance(v.clone(), ctx.track_paths));
                        }
                    }
                    Ok(out)
                }
            }
            Step::Vertex(v) => {
                let sources: Vec<Element> = current
                    .iter()
                    .map(|t| {
                        t.value.as_element().ok_or_else(|| {
                            GremlinError::Execution(format!(
                                "vertex step applied to non-element {}",
                                t.value
                            ))
                        })
                    })
                    .collect::<GResult<_>>()?;
                let groups = self.backend.adjacent(
                    &sources,
                    v.direction,
                    &v.edge_labels,
                    v.to,
                    &v.filter,
                )?;
                if groups.len() != sources.len() {
                    return Err(GremlinError::Backend(format!(
                        "backend returned {} adjacency groups for {} sources",
                        groups.len(),
                        sources.len()
                    )));
                }
                let mut out = Vec::new();
                for ((t, src), group) in current.iter().zip(&sources).zip(groups) {
                    for e in group {
                        let mut nt = t.advance(GValue::from_element(e), ctx.track_paths);
                        if v.to == ElementKind::Edges {
                            nt.prev_vertex = Some(src.id().clone());
                        }
                        out.push(nt);
                    }
                }
                Ok(out)
            }
            Step::EdgeVertex(ev) => {
                let mut edges = Vec::with_capacity(current.len());
                let mut came_from = Vec::with_capacity(current.len());
                for t in &current {
                    match &t.value {
                        GValue::Edge(e) => {
                            edges.push(e.clone());
                            came_from.push(t.prev_vertex.clone());
                        }
                        other => {
                            return Err(GremlinError::Execution(format!(
                                "edge-vertex step applied to non-edge {other}"
                            )))
                        }
                    }
                }
                let groups = self.backend.edge_endpoints(&edges, ev.end, &came_from, &ev.filter)?;
                if groups.len() != edges.len() {
                    return Err(GremlinError::Backend(
                        "backend returned wrong number of endpoint groups".into(),
                    ));
                }
                let mut out = Vec::new();
                for (t, group) in current.iter().zip(groups) {
                    for e in group {
                        out.push(t.advance(GValue::from_element(e), ctx.track_paths));
                    }
                }
                Ok(out)
            }
            Step::Has(preds) => Ok(current
                .into_iter()
                .filter(|t| match t.value.as_element() {
                    Some(e) => preds.iter().all(|p| {
                        let v = element_property(&e, &p.key);
                        p.pred.test(v.as_ref())
                    }),
                    None => false,
                })
                .collect()),
            Step::Values(keys) => {
                let mut out = Vec::new();
                for t in &current {
                    let Some(e) = t.value.as_element() else { continue };
                    if keys.is_empty() {
                        for (_, v) in e.properties() {
                            if !matches!(v, GValue::Null) {
                                out.push(t.advance(v.clone(), ctx.track_paths));
                            }
                        }
                    } else {
                        for k in keys {
                            if let Some(v) = e.properties().get(k) {
                                if !matches!(v, GValue::Null) {
                                    out.push(t.advance(v.clone(), ctx.track_paths));
                                }
                            }
                        }
                    }
                }
                Ok(out)
            }
            Step::ValueMap(keys) => Ok(current
                .into_iter()
                .filter_map(|t| {
                    let e = t.value.as_element()?;
                    let mut m = BTreeMap::new();
                    let props = e.properties();
                    if keys.is_empty() {
                        for (k, v) in props {
                            m.insert(k.to_string(), v.clone());
                        }
                    } else {
                        for k in keys {
                            if let Some(v) = props.get(k) {
                                m.insert(k.clone(), v.clone());
                            }
                        }
                    }
                    Some(t.advance(GValue::Map(m), ctx.track_paths))
                })
                .collect()),
            Step::Properties(keys) => {
                let mut out = Vec::new();
                for t in &current {
                    let Some(e) = t.value.as_element() else { continue };
                    for (k, v) in e.properties() {
                        if keys.is_empty() || keys.iter().any(|x| **x == **k) {
                            let mut m = BTreeMap::new();
                            m.insert("key".to_string(), GValue::Str(k.to_string()));
                            m.insert("value".to_string(), v.clone());
                            out.push(t.advance(GValue::Map(m), ctx.track_paths));
                        }
                    }
                }
                Ok(out)
            }
            Step::Id => Ok(current
                .into_iter()
                .filter_map(|t| {
                    let e = t.value.as_element()?;
                    Some(t.advance(crate::structure::id_value(e.id()), ctx.track_paths))
                })
                .collect()),
            Step::Label => Ok(current
                .into_iter()
                .filter_map(|t| {
                    let e = t.value.as_element()?;
                    Some(t.advance(GValue::Str(e.label().to_string()), ctx.track_paths))
                })
                .collect()),
            Step::Aggregate(op) => {
                let v = compute_aggregate(*op, &current)?;
                Ok(match v {
                    Some(v) => vec![Traverser::new(v, ctx.track_paths)],
                    None => Vec::new(),
                })
            }
            Step::Dedup => {
                let mut seen: HashSet<GValue> = HashSet::with_capacity(current.len());
                Ok(current.into_iter().filter(|t| seen.insert(t.value.dedup_key())).collect())
            }
            Step::Limit(n) => {
                let mut c = current;
                c.truncate(*n as usize);
                Ok(c)
            }
            Step::Range(lo, hi) => {
                let lo = *lo as usize;
                let hi = (*hi as usize).min(current.len());
                // Empty also when `hi < lo`: `range(5, 2)` selects nothing.
                if lo >= hi {
                    return Ok(Vec::new());
                }
                Ok(current[lo..hi].to_vec())
            }
            Step::Order(keys) => {
                let mut c = current;
                c.sort_by(|a, b| {
                    for (key, desc) in keys {
                        let ka = order_value(key, &a.value);
                        let kb = order_value(key, &b.value);
                        let ord = ka.total_cmp(&kb);
                        let ord = if *desc { ord.reverse() } else { ord };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(c)
            }
            Step::Repeat { body, times, until, emit } => {
                self.run_repeat(body, *times, until.as_ref(), *emit, current, ctx)
            }
            Step::Store(key) | Step::AggregateSE(key) => {
                for t in &current {
                    ctx.side_effects.push(key, t.value.clone());
                }
                Ok(current)
            }
            Step::Cap(key) => {
                let list = GValue::List(ctx.side_effects.get(key).to_vec());
                Ok(vec![Traverser::new(list, ctx.track_paths)])
            }
            Step::Filter(spec) | Step::Where(spec) => {
                let mut out = Vec::new();
                for t in current {
                    if self.filter_passes(spec, &t, ctx)? {
                        out.push(t);
                    }
                }
                Ok(out)
            }
            Step::Not(inner) => {
                let mut out = Vec::new();
                for t in current {
                    let results = self.run_sub(inner, &t, ctx)?;
                    if results.is_empty() {
                        out.push(t);
                    }
                }
                Ok(out)
            }
            Step::Is(pred) => {
                Ok(current.into_iter().filter(|t| pred.test(Some(&t.value))).collect())
            }
            Step::Union(branches) => {
                let mut out = Vec::new();
                for t in &current {
                    for b in branches {
                        out.extend(self.run_sub_traversers(b, t, ctx)?);
                    }
                }
                Ok(out)
            }
            Step::Coalesce(branches) => {
                let mut out = Vec::new();
                for t in &current {
                    for b in branches {
                        let results = self.run_sub_traversers(b, t, ctx)?;
                        if !results.is_empty() {
                            out.extend(results);
                            break;
                        }
                    }
                }
                Ok(out)
            }
            Step::Path => Ok(current
                .into_iter()
                .map(|t| {
                    let p = GValue::Path(t.path.clone());
                    t.advance(p, false)
                })
                .collect()),
            Step::SimplePath => Ok(current
                .into_iter()
                .filter(|t| {
                    let mut seen = HashSet::with_capacity(t.path.len());
                    t.path.iter().all(|v| seen.insert(v.dedup_key()))
                })
                .collect()),
            Step::As(label) => Ok(current
                .into_iter()
                .map(|mut t| {
                    t.labels.insert(label.clone(), t.value.clone());
                    t
                })
                .collect()),
            Step::Select(keys) => {
                let mut out = Vec::new();
                for t in current {
                    let v = if keys.len() == 1 {
                        t.labels.get(&keys[0]).cloned()
                    } else {
                        let mut m = BTreeMap::new();
                        for k in keys {
                            if let Some(v) = t.labels.get(k) {
                                m.insert(k.clone(), v.clone());
                            }
                        }
                        if m.len() == keys.len() {
                            Some(GValue::Map(m))
                        } else {
                            None
                        }
                    };
                    if let Some(v) = v {
                        out.push(t.advance(v, ctx.track_paths));
                    }
                }
                Ok(out)
            }
            Step::Constant(v) => {
                Ok(current.into_iter().map(|t| t.advance(v.clone(), ctx.track_paths)).collect())
            }
            Step::Group(key) | Step::GroupCount(key) => {
                let counting = matches!(step, Step::GroupCount(_));
                let mut m: BTreeMap<String, Vec<GValue>> = BTreeMap::new();
                for t in &current {
                    let k = match key {
                        None => t.value.to_string(),
                        Some(k) => match t.value.as_element() {
                            Some(e) => match element_property(&e, k) {
                                Some(v) => v.to_string(),
                                None => continue, // no key -> not grouped
                            },
                            None => continue,
                        },
                    };
                    m.entry(k).or_default().push(t.value.clone());
                }
                let out: BTreeMap<String, GValue> = m
                    .into_iter()
                    .map(|(k, vs)| {
                        let v =
                            if counting { GValue::Long(vs.len() as i64) } else { GValue::List(vs) };
                        (k, v)
                    })
                    .collect();
                Ok(vec![Traverser::new(GValue::Map(out), ctx.track_paths)])
            }
            Step::Fold => {
                let list = GValue::List(current.iter().map(|t| t.value.clone()).collect());
                Ok(vec![Traverser::new(list, ctx.track_paths)])
            }
            Step::Unfold => {
                let mut out = Vec::new();
                for t in current {
                    match &t.value {
                        GValue::List(items) => {
                            for v in items {
                                out.push(t.advance(v.clone(), ctx.track_paths));
                            }
                        }
                        _ => out.push(t),
                    }
                }
                Ok(out)
            }
            Step::Identity => Ok(current),
        }
    }

    fn run_repeat(
        &self,
        body: &Traversal,
        times: Option<u32>,
        until: Option<&Traversal>,
        emit: bool,
        incoming: Vec<Traverser>,
        ctx: &mut Ctx,
    ) -> GResult<Vec<Traverser>> {
        if times.is_none() && until.is_none() {
            return Err(GremlinError::Unsupported("repeat() requires times() or until()".into()));
        }
        let mut current = incoming;
        let mut emitted: Vec<Traverser> = Vec::new();
        let mut done: Vec<Traverser> = Vec::new();
        let mut loops = 0u32;
        loop {
            if current.is_empty() {
                break;
            }
            if let Some(t) = times {
                if loops >= t {
                    break;
                }
            }
            if loops >= MAX_REPEAT_ITERATIONS {
                return Err(GremlinError::Execution(format!(
                    "repeat() exceeded {MAX_REPEAT_ITERATIONS} iterations"
                )));
            }
            current = self.run_steps(&body.steps, current, ctx)?;
            loops += 1;
            if emit {
                emitted.extend(current.iter().cloned());
            }
            if let Some(u) = until {
                // Per-traverser do-while: traversers satisfying the
                // until-condition exit the loop.
                let mut staying = Vec::with_capacity(current.len());
                for t in current {
                    if !self.run_sub(u, &t, ctx)?.is_empty() {
                        done.push(t);
                    } else {
                        staying.push(t);
                    }
                }
                current = staying;
            }
        }
        done.extend(current);
        if emit {
            Ok(emitted)
        } else {
            Ok(done)
        }
    }

    /// Run a sub-traversal from one traverser; returns result values.
    fn run_sub(&self, t: &Traversal, from: &Traverser, ctx: &mut Ctx) -> GResult<Vec<GValue>> {
        Ok(self.run_sub_traversers(t, from, ctx)?.into_iter().map(|t| t.value).collect())
    }

    fn run_sub_traversers(
        &self,
        t: &Traversal,
        from: &Traverser,
        ctx: &mut Ctx,
    ) -> GResult<Vec<Traverser>> {
        self.run_steps(&t.steps, vec![from.clone()], ctx)
    }

    fn filter_passes(&self, spec: &FilterSpec, t: &Traverser, ctx: &mut Ctx) -> GResult<bool> {
        let results = self.run_sub(&spec.traversal, t, ctx)?;
        match &spec.compare {
            None => Ok(!results.is_empty()),
            Some((op, value)) => Ok(results.iter().any(|r| {
                let Some(ord) = r.compare(value) else { return false };
                match op {
                    CompareOp::Eq => ord.is_eq(),
                    CompareOp::Neq => ord.is_ne(),
                    CompareOp::Gt => ord.is_gt(),
                    CompareOp::Gte => ord.is_ge(),
                    CompareOp::Lt => ord.is_lt(),
                    CompareOp::Lte => ord.is_le(),
                }
            })),
        }
    }
}

fn order_value(key: &OrderKey, value: &GValue) -> GValue {
    match key {
        OrderKey::Value => value.clone(),
        OrderKey::Property(k) => match value.as_element() {
            Some(e) => element_property(&e, k).unwrap_or(GValue::Null),
            None => GValue::Null,
        },
    }
}

fn compute_aggregate(op: AggOp, current: &[Traverser]) -> GResult<Option<GValue>> {
    if op == AggOp::Count {
        return Ok(Some(GValue::Long(current.len() as i64)));
    }
    // Integer inputs stay in integer arithmetic: sums of longs beyond 2^53
    // (and min/max of such values) are exact, where a round-trip through
    // f64 would silently lose low-order bits.
    let mut nums: Vec<f64> = Vec::with_capacity(current.len());
    let mut longs: Vec<i64> = Vec::with_capacity(current.len());
    let mut all_long = true;
    for t in current {
        match &t.value {
            GValue::Long(v) => {
                longs.push(*v);
                nums.push(*v as f64);
            }
            GValue::Double(v) => {
                all_long = false;
                nums.push(*v);
            }
            other => {
                return Err(GremlinError::Execution(format!(
                    "numeric aggregate over non-numeric value {other}"
                )))
            }
        }
    }
    if nums.is_empty() {
        return Ok(None);
    }
    let exact_sum = || -> i64 {
        let s: i128 = longs.iter().map(|&v| v as i128).sum();
        s.clamp(i64::MIN as i128, i64::MAX as i128) as i64
    };
    let v = match op {
        AggOp::Sum => {
            if all_long {
                GValue::Long(exact_sum())
            } else {
                GValue::Double(nums.iter().sum())
            }
        }
        AggOp::Mean => {
            if all_long {
                GValue::Double(exact_sum() as f64 / longs.len() as f64)
            } else {
                GValue::Double(nums.iter().sum::<f64>() / nums.len() as f64)
            }
        }
        AggOp::Min => {
            if all_long {
                GValue::Long(longs.iter().copied().min().expect("non-empty"))
            } else {
                GValue::Double(nums.iter().cloned().fold(f64::INFINITY, f64::min))
            }
        }
        AggOp::Max => {
            if all_long {
                GValue::Long(longs.iter().copied().max().expect("non-empty"))
            } else {
                GValue::Double(nums.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
            }
        }
        AggOp::Count => unreachable!(),
    };
    Ok(Some(v))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traversers(values: Vec<GValue>) -> Vec<Traverser> {
        values
            .into_iter()
            .map(|value| Traverser {
                value,
                path: Vec::new(),
                labels: HashMap::new(),
                prev_vertex: None,
            })
            .collect()
    }

    #[test]
    fn long_aggregates_are_exact_beyond_f64_precision() {
        // 2^53 + 1 is not representable as f64; a float round-trip would
        // collapse it to 2^53.
        let big = (1i64 << 53) + 1;
        let ts = traversers(vec![GValue::Long(big), GValue::Long(0)]);
        assert_eq!(compute_aggregate(AggOp::Sum, &ts).unwrap(), Some(GValue::Long(big)));
        assert_eq!(compute_aggregate(AggOp::Max, &ts).unwrap(), Some(GValue::Long(big)));
        let ts = traversers(vec![GValue::Long(big), GValue::Long(big + 1)]);
        assert_eq!(compute_aggregate(AggOp::Min, &ts).unwrap(), Some(GValue::Long(big)));
        assert_eq!(compute_aggregate(AggOp::Sum, &ts).unwrap(), Some(GValue::Long(2 * big + 1)));
    }

    #[test]
    fn long_sum_saturates_instead_of_wrapping() {
        let ts = traversers(vec![GValue::Long(i64::MAX), GValue::Long(i64::MAX)]);
        assert_eq!(compute_aggregate(AggOp::Sum, &ts).unwrap(), Some(GValue::Long(i64::MAX)));
    }

    #[test]
    fn mixed_numeric_aggregates_stay_double() {
        let ts = traversers(vec![GValue::Long(1), GValue::Double(2.5)]);
        assert_eq!(compute_aggregate(AggOp::Sum, &ts).unwrap(), Some(GValue::Double(3.5)));
        assert_eq!(compute_aggregate(AggOp::Mean, &ts).unwrap(), Some(GValue::Double(1.75)));
    }
}
