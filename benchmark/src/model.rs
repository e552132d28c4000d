//! Answer checking: a reference model that computes the expected answer
//! of every benchmark operation straight from the generated dataset, and
//! order-independent digests of what the program actually returned — as
//! `GValue`s from the embedded path, as rows from SQL, or as JSON from the
//! HTTP wire. Shares no code with the program under test.
//!
//! `gremlin::memgraph::MemGraph` is not used at run time because it scans
//! every vertex for each `g.V(id)` (≈7 ms per point query on 20 k
//! vertices); the unit tests check this model against it instead.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::Hasher;
use std::sync::Arc;

use gremlin::structure::{ElementId, GValue};
use linkbench::gen::{GraphData, LinkData, NodeData};
use reldb::{RowSet, Value};

use crate::http::Json;

/// Multiset digest of a result: how many values, the wrapping sum of their
/// hashes, and the value itself when the result is one integer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Answer {
    pub count: u64,
    pub sum: u64,
    pub long: Option<i64>,
}

impl Answer {
    fn add(&mut self, hash: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(hash);
    }

    fn one_long(v: i64) -> Answer {
        Answer {
            count: 1,
            sum: h_int(v),
            long: Some(v),
        }
    }
}

/// What a correct answer looks like.
#[derive(Debug, Clone)]
pub enum Expect {
    /// Exactly this multiset.
    Exact(Answer),
    /// One value whose hash is in the set (`limit(1)` may return any row).
    OneOf(Arc<HashSet<u64>>),
    /// One integer that exceeds the baseline by an even amount: the writer
    /// commits rows in pairs, so an odd difference is a torn read.
    EvenAbove(i64),
    /// Any successful reply (writes).
    Done,
}

impl Expect {
    pub fn long(v: i64) -> Expect {
        Expect::Exact(Answer::one_long(v))
    }

    pub fn accepts(&self, got: &Answer) -> bool {
        match self {
            Expect::Exact(want) => want.count == got.count && want.sum == got.sum,
            Expect::OneOf(set) => got.count == 1 && set.contains(&got.sum),
            Expect::EvenAbove(base) => got.long.is_some_and(|v| v >= *base && (v - base) % 2 == 0),
            Expect::Done => true,
        }
    }
}

// ---------------------------------------------------------------- hashing

struct H(DefaultHasher);

impl H {
    fn new(tag: u8) -> H {
        let mut h = DefaultHasher::new();
        h.write_u8(tag);
        H(h)
    }
    fn int(mut self, v: i64) -> H {
        self.0.write_u8(b'i');
        self.0.write_i64(v);
        self
    }
    fn str(mut self, s: &str) -> H {
        self.0.write_u8(b's');
        self.0.write_usize(s.len());
        self.0.write(s.as_bytes());
        self
    }
    fn num(self, v: f64) -> H {
        // Integral doubles hash like integers: the JSON wire does not
        // distinguish them.
        if v.fract() == 0.0 && v.abs() < 9e15 {
            self.int(v as i64)
        } else {
            let mut h = self;
            h.0.write_u8(b'f');
            h.0.write_u64(v.to_bits());
            h
        }
    }
    fn null(mut self) -> H {
        self.0.write_u8(b'n');
        self
    }
    fn finish(self) -> u64 {
        self.0.finish()
    }
}

fn h_int(v: i64) -> u64 {
    H::new(b'x').int(v).finish()
}

fn h_str(s: &str) -> u64 {
    H::new(b'x').str(s).finish()
}

fn h_node(n: &NodeData) -> u64 {
    // Properties in key order, as the program's BTreeMap yields them.
    H::new(b'v')
        .int(n.id)
        .str(&n.label)
        .str("data")
        .str(&n.data)
        .str("time")
        .int(n.time)
        .str("version")
        .int(n.version)
        .finish()
}

fn h_link(l: &LinkData) -> u64 {
    H::new(b'e')
        .str(&format!("{}::{}::{}", l.id1, l.label, l.id2))
        .str(&l.label)
        .int(l.id1)
        .int(l.id2)
        .str("data")
        .str(&l.data)
        .str("time")
        .int(l.time)
        .str("version")
        .int(l.version)
        .str("visibility")
        .int(l.visibility)
        .finish()
}

fn h_id(h: H, id: &ElementId) -> H {
    match id {
        ElementId::Long(v) => h.int(*v),
        ElementId::Str(s) => h.str(s),
    }
}

fn h_gvalue_into(h: H, v: &GValue) -> H {
    match v {
        GValue::Long(x) => h.int(*x),
        GValue::Double(x) => h.num(*x),
        GValue::Str(s) => h.str(s),
        GValue::Bool(b) => h.int(*b as i64),
        _ => h.null(),
    }
}

fn h_gvalue(v: &GValue) -> u64 {
    match v {
        GValue::Vertex(vx) => {
            let mut h = h_id(H::new(b'v'), &vx.id).str(&vx.label);
            for (k, p) in &vx.properties {
                h = h_gvalue_into(h.str(k), p);
            }
            h.finish()
        }
        GValue::Edge(e) => {
            let mut h = h_id(
                h_id(h_id(H::new(b'e'), &e.id).str(&e.label), &e.src),
                &e.dst,
            );
            for (k, p) in &e.properties {
                h = h_gvalue_into(h.str(k), p);
            }
            h.finish()
        }
        scalar => h_gvalue_into(H::new(b'x'), scalar).finish(),
    }
}

fn h_json_into(h: H, j: &Json) -> H {
    match j {
        Json::Num(_) => match j.as_i64() {
            Some(v) => h.int(v),
            None => h.num(j.as_f64().unwrap_or(f64::NAN)),
        },
        Json::Str(s) => h.str(s),
        Json::Bool(b) => h.int(*b as i64),
        _ => h.null(),
    }
}

fn h_json(j: &Json) -> u64 {
    let kind = j.get("type").and_then(Json::as_str);
    let (Some(kind), Json::Obj(_)) = (kind, j) else {
        return h_json_into(H::new(b'x'), j).finish();
    };
    let field = |h: H, name: &str| h_json_into(h, j.get(name).unwrap_or(&Json::Null));
    let mut h = field(H::new(if kind == "vertex" { b'v' } else { b'e' }), "id");
    h = field(h, "label");
    if kind == "edge" {
        h = field(field(h, "src"), "dst");
    }
    if let Some(Json::Obj(props)) = j.get("properties") {
        let mut props: Vec<&(String, Json)> = props.iter().collect();
        props.sort_by(|a, b| a.0.cmp(&b.0));
        for (k, p) in props {
            h = h_json_into(h.str(k), p);
        }
    }
    h.finish()
}

/// Digest of an embedded Gremlin result.
pub fn answer_of_gvalues(values: &[GValue]) -> Answer {
    let mut a = Answer::default();
    for v in values {
        a.add(h_gvalue(v));
    }
    if let [GValue::Long(v)] = values {
        a.long = Some(*v);
    }
    a
}

/// Digest of a SQL result, one hash per row.
pub fn answer_of_rows(rs: &RowSet) -> Answer {
    let mut a = Answer::default();
    for row in &rs.rows {
        let mut h = H::new(b'r');
        for v in row {
            h = match v {
                Value::Bigint(x) => h.int(*x),
                Value::Double(x) => h.num(*x),
                Value::Varchar(s) => h.str(s),
                Value::Boolean(b) => h.int(*b as i64),
                Value::Null => h.null(),
            };
        }
        a.add(h.finish());
    }
    a
}

/// Digest of a `POST /query` reply (`{"count":n,"result":[...]}`) or a
/// `POST /sql` reply (`{"count":n,"columns":[...],"rows":[[...]]}`).
/// `None` when the body is not that shape or `count` disagrees with it.
pub fn answer_of_reply(body: &[u8]) -> Option<Answer> {
    let json = Json::parse(body)?;
    let count = json.get("count")?.as_i64()? as u64;
    let mut a = Answer::default();
    if let Some(items) = json.get("result").and_then(Json::as_array) {
        for item in items {
            a.add(h_json(item));
        }
        if let [only @ Json::Num(_)] = items {
            a.long = only.as_i64();
        }
    } else {
        for row in json.get("rows")?.as_array()? {
            let mut h = H::new(b'r');
            for cell in row.as_array()? {
                h = h_json_into(h, cell);
            }
            a.add(h.finish());
        }
    }
    (a.count == count).then_some(a)
}

// ------------------------------------------------------------------ model

/// Out-adjacency over the generated links, and the expected answer of
/// each operation shape the workloads use.
pub struct Model<'a> {
    pub data: &'a GraphData,
    /// `out[v]` = indexes into `data.links` of v's out-edges.
    out: Vec<Vec<u32>>,
}

impl<'a> Model<'a> {
    pub fn new(data: &'a GraphData) -> Model<'a> {
        let mut out = vec![Vec::new(); data.nodes.len()];
        for (i, l) in data.links.iter().enumerate() {
            out[l.id1 as usize].push(i as u32);
        }
        Model { data, out }
    }

    pub fn out_links<'s>(
        &'s self,
        v: i64,
        labels: &'s [&'s str],
    ) -> impl Iterator<Item = &'s LinkData> + 's {
        self.out[v as usize]
            .iter()
            .map(|&i| &self.data.links[i as usize])
            .filter(move |l| labels.is_empty() || labels.contains(&l.label.as_str()))
    }

    /// `g.V(id).hasLabel(label)`
    pub fn get_node(&self, id: i64, label: &str) -> Expect {
        let mut a = Answer::default();
        let n = &self.data.nodes[id as usize];
        if n.label == label {
            a.add(h_node(n));
        }
        Expect::Exact(a)
    }

    /// `g.V(id1).outE(label).count()`
    pub fn count_links(&self, id1: i64, label: &str) -> i64 {
        self.out_links(id1, &[label]).count() as i64
    }

    /// `g.V(id1).outE(label)`, optionally `.filter(inV().id() == id2)`
    pub fn links(&self, id1: i64, label: &str, id2: Option<i64>) -> Expect {
        let mut a = Answer::default();
        for l in self.out_links(id1, &[label]) {
            if id2.is_none_or(|d| d == l.id2) {
                a.add(h_link(l));
            }
        }
        Expect::Exact(a)
    }

    /// The endpoints of `g.V(x).out(labels).out(labels)`, with multiplicity.
    fn two_hop<'s>(&'s self, x: i64, labels: &'s [&'s str]) -> impl Iterator<Item = i64> + 's {
        self.out_links(x, labels)
            .flat_map(move |first| self.out_links(first.id2, labels).map(|second| second.id2))
    }

    /// `g.V(x).out(labels).out(labels).count()`
    pub fn two_hop_count(&self, x: i64, labels: &[&str]) -> Expect {
        Expect::long(self.two_hop(x, labels).count() as i64)
    }

    /// `g.V(x).out(labels).out(labels).dedup().count()`
    pub fn two_hop_distinct(&self, x: i64, labels: &[&str]) -> Expect {
        let distinct: HashSet<i64> = self.two_hop(x, labels).collect();
        Expect::long(distinct.len() as i64)
    }

    /// `g.V(x).out().out().values('data')`
    pub fn two_hop_data(&self, x: i64) -> Expect {
        let mut a = Answer::default();
        for v in self.two_hop(x, &[]) {
            a.add(h_str(&self.data.nodes[v as usize].data));
        }
        Expect::Exact(a)
    }

    /// Vertices whose out-edges `g.V(x).out().out()` reads: x and its
    /// out-neighbours.
    pub fn two_hop_sources(&self, x: i64) -> impl Iterator<Item = i64> + '_ {
        std::iter::once(x).chain(self.out_links(x, &[]).map(|l| l.id2))
    }

    /// `g.V().hasLabel(label).count()`
    pub fn label_count(&self, label: &str) -> Expect {
        let n = self.data.nodes.iter().filter(|n| n.label == label).count();
        Expect::long(n as i64)
    }

    /// `g.V().has('version', k).count()`
    pub fn version_count(&self, k: i64) -> Expect {
        let n = self.data.nodes.iter().filter(|n| n.version == k).count();
        Expect::long(n as i64)
    }

    /// `g.E().hasLabel(label).values('time').sum()`
    pub fn time_sum(&self, label: &str) -> Expect {
        let sum: i64 = self
            .data
            .links
            .iter()
            .filter(|l| l.label == label)
            .map(|l| l.time)
            .sum();
        Expect::long(sum)
    }

    /// `g.V().hasLabel(label).limit(1).values('data')`: any one of them.
    pub fn any_data_of(&self, label: &str) -> Expect {
        let set = self
            .data
            .nodes
            .iter()
            .filter(|n| n.label == label)
            .map(|n| h_str(&n.data));
        Expect::OneOf(Arc::new(set.collect()))
    }

    /// `SELECT COUNT(*), SUM(n.version)` over x's out-neighbours (with
    /// multiplicity) that live in `nodes_<label>` and have
    /// `version > floor` — the Section 4 synergy statement.
    pub fn neighbour_versions(&self, x: i64, label: &str, floor: i64) -> Expect {
        let (mut count, mut sum) = (0i64, 0i64);
        for l in self.out_links(x, &[]) {
            let n = &self.data.nodes[l.id2 as usize];
            if n.label == label && n.version > floor {
                count += 1;
                sum += n.version;
            }
        }
        let mut a = Answer::default();
        let h = H::new(b'r').int(count);
        // SUM over no rows is NULL.
        a.add(if count == 0 { h.null() } else { h.int(sum) }.finish());
        Expect::Exact(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Call, WORKLOADS};
    use db2graph_core::{Db2Graph, GraphOptions};
    use gremlin::memgraph::MemGraph;
    use gremlin::ScriptRunner;
    use linkbench::{generate, materialize, overlay_config, to_elements, LinkBenchConfig};

    /// Every Gremlin operation of every workload: the model, the repo's
    /// in-memory oracle and the overlay agree on a small dataset, and the
    /// JSON digest of the wire encoding equals the embedded one.
    #[test]
    fn model_agrees_with_memgraph_and_the_overlay() {
        let cfg = LinkBenchConfig {
            seed: 9,
            ..LinkBenchConfig::small().with_vertices(400)
        };
        let data = generate(&cfg);
        let (db, _) = materialize(&data).unwrap();
        let graph =
            Db2Graph::open_with_options(db.clone(), &overlay_config(), GraphOptions::default())
                .unwrap();
        graph.register_graph_query("graphQuery");
        let oracle = MemGraph::new();
        let (vertices, edges) = to_elements(&data);
        vertices.into_iter().for_each(|v| oracle.add_vertex(v));
        edges.into_iter().for_each(|e| oracle.add_edge(e));
        let oracle = ScriptRunner::new(&oracle);

        let mut checked = 0;
        for spec in WORKLOADS {
            let plan = workloads::plan(spec, &data, 9, true);
            for op in plan.ops.iter().chain(&plan.warmup).take(400) {
                match op.call {
                    Call::Gremlin => {
                        let got = graph.run(&op.text).unwrap();
                        let answer = answer_of_gvalues(&got);
                        assert!(op.expect.accepts(&answer), "{}: overlay {:?}", op.text, got);
                        // limit(1) may legitimately differ between stores.
                        if !matches!(op.expect, Expect::OneOf(_)) {
                            let reference = oracle.run(&op.text).unwrap();
                            assert!(
                                op.expect.accepts(&answer_of_gvalues(&reference)),
                                "{}: memgraph {:?}",
                                op.text,
                                reference
                            );
                        }
                        let results: Vec<_> = got
                            .iter()
                            .map(db2graph_server::gjson::gvalue_to_json)
                            .collect();
                        let body = format!(
                            "{{\"count\":{},\"result\":{}}}",
                            got.len(),
                            db2graph_core::json::Json::arr(results).to_compact()
                        );
                        let wire = answer_of_reply(body.as_bytes()).unwrap();
                        assert_eq!(
                            (wire.count, wire.sum),
                            (answer.count, answer.sum),
                            "{}",
                            op.text
                        );
                    }
                    Call::Sql if !op.write => {
                        let rows = db.execute(&op.text).unwrap();
                        assert!(
                            op.expect.accepts(&answer_of_rows(&rows)),
                            "{}: {:?}",
                            op.text,
                            rows
                        );
                    }
                    Call::Sql => {}
                }
                checked += 1;
            }
        }
        assert!(checked > 1000);
    }

    #[test]
    fn a_wrong_answer_is_rejected() {
        let data = generate(&LinkBenchConfig::small().with_vertices(300));
        let model = Model::new(&data);
        let n = &data.nodes[5];
        let want = model.get_node(n.id, &n.label);
        let mut wrong = gremlin::structure::Vertex::new(n.id, n.label.as_str())
            .with_property("version", n.version)
            .with_property("time", n.time)
            .with_property("data", n.data.as_str());
        assert!(want.accepts(&answer_of_gvalues(&[GValue::Vertex(wrong.clone())])));
        wrong
            .properties
            .insert("version".into(), GValue::Long(n.version + 1));
        assert!(!want.accepts(&answer_of_gvalues(&[GValue::Vertex(wrong)])));
        assert!(!want.accepts(&Answer::default()));
        assert!(Expect::EvenAbove(4).accepts(&Answer::one_long(6)));
        assert!(!Expect::EvenAbove(4).accepts(&Answer::one_long(7)));
        assert!(!Expect::EvenAbove(4).accepts(&Answer::one_long(2)));
    }
}
