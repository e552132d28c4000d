//! The six workloads: their datasets, their seeded operation lists with
//! expected answers, and the hand-written SQL each operation is compared
//! against in the per-layer table.
//!
//! An operation list is a sequence of equal-sized *blocks*; a run executes
//! whole blocks. Where operation cost has a heavy tail (2-hop traversals
//! from `sample_vertex`-skewed starts: a hub start costs 100× the median)
//! each block holds one start from every quantile band of the draw, so two
//! runs — or two seeds — that execute a different number of blocks still
//! execute the same mix of cheap and expensive operations.

use std::collections::HashSet;

use linkbench::gen::GraphData;
use linkbench::{mixed_batch, QueryKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reldb::Value;

use crate::model::{Expect, Model};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Point,
    Traverse,
    Scan,
    MixedRw,
}

/// One workload's fixed parameters.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub vertices: u64,
    /// Driven over `POST /query` and `POST /sql` instead of in process.
    pub http: bool,
    /// Closed-loop clients: this many, or one per core if that is fewer.
    /// The traversals run alone: a 2-hop query already fans out over every
    /// core, so a second client adds ~8 % throughput, doubles latency and
    /// makes it vary by 30 % between runs of the same seed. `mixed_rw.http`
    /// has one reader beside its writer.
    pub max_clients: usize,
    pub why: &'static str,
}

pub const WORKLOADS: &[Spec] = &[
    Spec {
        name: "point.embedded",
        kind: Kind::Point,
        vertices: 20_000,
        http: false,
        max_clients: 2,
        why: "Table 1 point queries in process: fixed per-query overhead dominates; no server, no adjacency cache",
    },
    Spec {
        name: "point.http",
        kind: Kind::Point,
        vertices: 20_000,
        http: true,
        max_clients: 2,
        why: "the same op list over keep-alive HTTP: adds admission queue, HTTP parse, JSON encode, socket write",
    },
    Spec {
        name: "traverse.fit",
        kind: Kind::Traverse,
        vertices: 10_000,
        http: false,
        max_clients: 1,
        why: "2-hop reads from skewed starts; the out-edge CSR (~35 MB) fits the default 64 MB cache: 0 evictions",
    },
    Spec {
        name: "traverse.spill",
        kind: Kind::Traverse,
        vertices: 50_000,
        http: false,
        max_clients: 1,
        why: "the same 2-hop shapes with a ~165 MB working set against the 64 MB cache: evictions and misses",
    },
    Spec {
        name: "scan.embedded",
        kind: Kind::Scan,
        vertices: 20_000,
        http: false,
        max_clients: 2,
        why: "table scans, aggregates, limit(1) and a graphQuery SQL join: reldb access paths; bypasses cache and server",
    },
    Spec {
        name: "mixed_rw.http",
        kind: Kind::MixedRw,
        vertices: 10_000,
        http: true,
        max_clients: 1,
        why: "durable server, closed-loop reads beside an open-loop 200 commits/s writer: WAL, invalidation, observed pipeline",
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `Db2Graph::run` / `POST /query`
    Gremlin,
    /// `Database::execute` / `POST /sql`
    Sql,
}

#[derive(Debug, Clone)]
pub struct Op {
    pub call: Call,
    pub text: String,
    pub expect: Expect,
    pub write: bool,
    /// Hand-written SQL returning the same answer, for the
    /// `reldb.direct_sql_us` probe; empty where there is no such statement.
    pub direct: Vec<(String, Vec<Value>)>,
}

impl Op {
    fn gremlin(text: String, expect: Expect) -> Op {
        Op {
            call: Call::Gremlin,
            text,
            expect,
            write: false,
            direct: Vec::new(),
        }
    }

    /// One of the writer's commits: any 200 reply is a correct one.
    pub fn write(sql: String) -> Op {
        Op {
            call: Call::Sql,
            text: sql,
            expect: Expect::Done,
            write: true,
            direct: Vec::new(),
        }
    }

    fn with_direct(mut self, sql: String, params: Vec<i64>) -> Op {
        self.direct
            .push((sql, params.into_iter().map(Value::Bigint).collect()));
        self
    }
}

/// The open-loop writer of `mixed_rw.http`: two-row inserts into
/// `links_et0` / `links_et1` from a few vertices no read touches.
#[derive(Debug, Clone)]
pub struct WriterPlan {
    pub rate_per_s: u32,
    /// Per (source vertex, edge table 0|1): destinations not yet linked.
    targets: Vec<(i64, usize, Vec<i64>)>,
    issued: usize,
}

impl WriterPlan {
    /// Pass over the first `n` commits (another copy of the plan sent them).
    pub fn skip(&mut self, n: usize) {
        self.issued += n;
    }

    /// The next commit: one `INSERT` of two rows, atomic by construction.
    pub fn next_insert(&mut self) -> String {
        let slot = self.issued % self.targets.len();
        let round = self.issued / self.targets.len();
        self.issued += 1;
        let (src, table, free) = &self.targets[slot];
        let (a, b) = (
            free[(2 * round) % free.len()],
            free[(2 * round + 1) % free.len()],
        );
        format!(
            "INSERT INTO links_et{table} VALUES ({src}, {a}, 1, 1600000000, 1, 'bench'), \
             ({src}, {b}, 1, 1600000000, 1, 'bench')"
        )
    }
}

pub struct Plan {
    /// Timed operations: `ops.len()` is a multiple of `block`.
    pub ops: Vec<Op>,
    pub block: usize,
    /// A different slice, run untimed first.
    pub warmup: Vec<Op>,
    pub writer: Option<WriterPlan>,
}

const TWO_HOP_LABELS: [&str; 3] = ["et1", "et2", "et3"];

/// Build a workload's operation lists from the seed. `smoke` shortens them.
pub fn plan(spec: &Spec, data: &GraphData, seed: u64, smoke: bool) -> Plan {
    let model = Model::new(data);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0b5e_55ed_0001);
    match spec.kind {
        Kind::Point => {
            let n = if smoke { 512 } else { 16_384 };
            let ops = point_ops(&model, n, seed);
            let warmup = point_ops(&model, n / 16, seed ^ 0x77a7);
            // Costs are light-tailed and the draws independent, so any
            // quarter of the list is as good a block as the whole.
            Plan {
                block: ops.len() / 4,
                ops,
                warmup,
                writer: None,
            }
        }
        Kind::Traverse => {
            let blocks = if smoke { 2 } else { 17 };
            let mut all = traverse_blocks(&model, &mut rng, blocks, 32);
            let block = all[0].len();
            let warmup = all.pop().expect("at least two blocks");
            Plan {
                ops: all.concat(),
                block,
                warmup,
                writer: None,
            }
        }
        Kind::Scan => {
            let per_shape = if smoke { 4 } else { 50 };
            let ops = scan_ops(&model, &mut rng, per_shape);
            let warmup = scan_ops(&model, &mut rng, 4);
            Plan {
                block: ops.len(),
                ops,
                warmup,
                writer: None,
            }
        }
        Kind::MixedRw => mixed_rw_plan(&model, &mut rng, seed, smoke),
    }
}

/// Decimal integers and quoted strings of a Table 1 query, in order.
fn params(query: &str) -> (Vec<i64>, Vec<&str>) {
    let (mut ints, mut strs) = (Vec::new(), Vec::new());
    let mut rest = query;
    while let Some(at) = rest.find(|c: char| c == '\'' || c.is_ascii_digit()) {
        rest = &rest[at..];
        if let Some(quoted) = rest.strip_prefix('\'') {
            let end = quoted.find('\'').unwrap_or(quoted.len());
            strs.push(&quoted[..end]);
            rest = quoted.get(end + 1..).unwrap_or("");
        } else {
            let end = rest
                .find(|c: char| !c.is_ascii_digit())
                .unwrap_or(rest.len());
            ints.push(rest[..end].parse().expect("digits"));
            rest = &rest[end..];
        }
    }
    (ints, strs)
}

/// The paper's Table 1 mix in equal shares via `linkbench::mixed_batch`.
fn point_ops(model: &Model<'_>, n: usize, seed: u64) -> Vec<Op> {
    const LINK_COLUMNS: &str = "id1, id2, visibility, time, version, data";
    mixed_batch(model.data, n, seed)
        .into_iter()
        .map(|(kind, text)| {
            let (ints, strs) = params(&text);
            let (id, label) = (ints[0], strs[0]);
            let (expect, sql, args) = match kind {
                QueryKind::GetNode => (
                    model.get_node(id, label),
                    format!("SELECT id, version, time, data FROM nodes_{label} WHERE id = ?"),
                    vec![id],
                ),
                QueryKind::CountLinks => (
                    Expect::long(model.count_links(id, label)),
                    format!("SELECT COUNT(*) FROM links_{label} WHERE id1 = ?"),
                    vec![id],
                ),
                QueryKind::GetLink => (
                    model.links(id, label, Some(ints[1])),
                    format!("SELECT {LINK_COLUMNS} FROM links_{label} WHERE id1 = ? AND id2 = ?"),
                    vec![id, ints[1]],
                ),
                QueryKind::GetLinkList => (
                    model.links(id, label, None),
                    format!("SELECT {LINK_COLUMNS} FROM links_{label} WHERE id1 = ?"),
                    vec![id],
                ),
            };
            Op::gremlin(text, expect).with_direct(sql, args)
        })
        .collect()
}

fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Start vertices for `blocks` blocks, one from every quantile band of
/// `sample_vertex`'s distribution per block. The quantile function is read
/// off a large sorted sample of `sample_vertex` draws; the position inside
/// a band follows a fixed low-discrepancy sequence (van der Corput over the
/// blocks, rotated per band). So the *ranks* a run starts from depend only
/// on how many blocks it executes — a few hub starts carry most of the
/// time, and their number must not vary from seed to seed — while the
/// graph behind those ranks is the seed's.
fn stratified_starts(
    data: &GraphData,
    rng: &mut StdRng,
    blocks: usize,
    strata: usize,
) -> Vec<Vec<i64>> {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let mut pool: Vec<i64> = (0..1 << 16).map(|_| data.sample_vertex(rng)).collect();
    pool.sort_unstable();
    (0..blocks)
        .map(|b| {
            let shift = (b as u32).reverse_bits() as f64 / (1u64 << 32) as f64;
            (0..strata)
                .map(|s| {
                    let within = (shift + s as f64 * GOLDEN).fract();
                    let u = (s as f64 + within) / strata as f64;
                    pool[(u * pool.len() as f64) as usize]
                })
                .collect()
        })
        .collect()
}

fn two_hop_count_op(model: &Model<'_>, x: i64) -> Op {
    Op::gremlin(
        format!("g.V({x}).out().out().count()"),
        model.two_hop_count(x, &[]),
    )
}

/// Three 2-hop shapes from each start: a count, a property fetch at the
/// far end, and a label-restricted distinct count.
fn traverse_blocks(
    model: &Model<'_>,
    rng: &mut StdRng,
    blocks: usize,
    strata: usize,
) -> Vec<Vec<Op>> {
    let labels = TWO_HOP_LABELS.map(|l| format!("'{l}'")).join(",");
    stratified_starts(model.data, rng, blocks, strata)
        .into_iter()
        .map(|starts| {
            let mut block = Vec::with_capacity(starts.len() * 3);
            for x in starts {
                block.push(two_hop_count_op(model, x));
                block.push(Op::gremlin(
                    format!("g.V({x}).out().out().values('data')"),
                    model.two_hop_data(x),
                ));
                block.push(Op::gremlin(
                    format!("g.V({x}).out({labels}).out({labels}).dedup().count()"),
                    model.two_hop_distinct(x, &TWO_HOP_LABELS),
                ));
            }
            shuffle(&mut block, rng);
            block
        })
        .collect()
}

/// Table-shaped analytics, `per_shape` of each of five shapes, shuffled.
fn scan_ops(model: &Model<'_>, rng: &mut StdRng, per_shape: usize) -> Vec<Op> {
    let n = model.data.nodes.len() as i64;
    let tables = linkbench::NUM_TYPES;
    let mut ops = Vec::with_capacity(per_shape * 5);
    for _ in 0..per_shape {
        let k = rng.gen_range(0..tables);
        ops.push(
            Op::gremlin(
                format!("g.V().hasLabel('vt{k}').limit(1).values('data')"),
                model.any_data_of(&format!("vt{k}")),
            )
            .with_direct(format!("SELECT data FROM nodes_vt{k} LIMIT 1"), vec![]),
        );
        let version = rng.gen_range(1..100i64);
        let mut op = Op::gremlin(
            format!("g.V().has('version',{version}).count()"),
            model.version_count(version),
        );
        for t in 0..tables {
            op = op.with_direct(
                format!("SELECT COUNT(*) FROM nodes_vt{t} WHERE version = ?"),
                vec![version],
            );
        }
        ops.push(op);
        let k = rng.gen_range(0..tables);
        ops.push(
            Op::gremlin(
                format!("g.E().hasLabel('et{k}').values('time').sum()"),
                model.time_sum(&format!("et{k}")),
            )
            .with_direct(format!("SELECT SUM(time) FROM links_et{k}"), vec![]),
        );
        let k = rng.gen_range(0..tables);
        ops.push(
            Op::gremlin(
                format!("g.V().hasLabel('vt{k}').count()"),
                model.label_count(&format!("vt{k}")),
            )
            .with_direct(format!("SELECT COUNT(*) FROM nodes_vt{k}"), vec![]),
        );
        // The Section 4 synergy statement: SQL joins a base table with the
        // rows a Gremlin traversal returns. Starts are uniform, not
        // skewed: from a hub the statement times reldb's join, not the
        // graphQuery hand-over this shape is here for.
        let (k, x, floor) = (
            rng.gen_range(0..tables),
            rng.gen_range(0..n),
            rng.gen_range(1..100i64),
        );
        ops.push(Op {
            call: Call::Sql,
            text: format!(
                "SELECT COUNT(*), SUM(n.version) FROM nodes_vt{k} AS n, \
                 TABLE(graphQuery('gremlin', 'g.V({x}).out().id()')) AS p (vid BIGINT) \
                 WHERE n.id = p.vid AND n.version > {floor}"
            ),
            expect: model.neighbour_versions(x, &format!("vt{k}"), floor),
            write: false,
            direct: Vec::new(),
        });
    }
    shuffle(&mut ops, rng);
    ops
}

/// Reads for the production-shaped server — per block 60 Table 1 queries,
/// 16 two-hop counts from stratified starts and 4 torn-read probes — and
/// the writer's targets, chosen among vertices no read depends on so every
/// read keeps an exact expected answer while two edge tables churn.
fn mixed_rw_plan(model: &Model<'_>, rng: &mut StdRng, seed: u64, smoke: bool) -> Plan {
    let blocks = if smoke { 2 } else { 13 };
    let (points_per_block, strata, probes) = (60, 16, 4);
    let starts = stratified_starts(model.data, rng, blocks, strata);
    let points = point_ops(model, blocks * points_per_block, seed);

    let mut read: HashSet<i64> = points.iter().map(|op| params(&op.text).0[0]).collect();
    for &x in starts.iter().flatten() {
        read.extend(model.two_hop_sources(x));
    }
    let n = model.data.nodes.len() as i64;
    let writers: Vec<i64> = (0..n)
        .rev()
        .filter(|v| !read.contains(v))
        .take(probes)
        .collect();
    assert_eq!(writers.len(), probes, "no vertex left for the writer");

    let mut targets = Vec::new();
    let mut probe_ops = Vec::new();
    for (i, &w) in writers.iter().enumerate() {
        for table in 0..2 {
            let label = format!("et{table}");
            let linked: HashSet<i64> = model
                .out_links(w, &[label.as_str()])
                .map(|l| l.id2)
                .collect();
            let free: Vec<i64> = (0..n).filter(|d| *d != w && !linked.contains(d)).collect();
            targets.push((w, table, free));
        }
        let label = format!("et{}", i % 2);
        probe_ops.push(Op::gremlin(
            format!("g.V({w}).outE('{label}').count()"),
            Expect::EvenAbove(model.count_links(w, &label)),
        ));
    }

    let mut points = points.into_iter();
    let mut all: Vec<Vec<Op>> = starts
        .into_iter()
        .map(|starts| {
            let mut block: Vec<Op> = points.by_ref().take(points_per_block).collect();
            block.extend(starts.into_iter().map(|x| two_hop_count_op(model, x)));
            block.extend(probe_ops.iter().cloned());
            shuffle(&mut block, rng);
            block
        })
        .collect();
    let block = all[0].len();
    let warmup = all.pop().expect("at least two blocks");
    Plan {
        ops: all.concat(),
        block,
        warmup,
        writer: Some(WriterPlan {
            rate_per_s: 200,
            targets,
            issued: 0,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linkbench::{generate, LinkBenchConfig};

    fn texts(plan: &Plan) -> Vec<&str> {
        plan.ops
            .iter()
            .chain(&plan.warmup)
            .map(|op| op.text.as_str())
            .collect()
    }

    #[test]
    fn same_seed_same_ops_and_another_seed_other_ops() {
        let data = generate(&LinkBenchConfig {
            seed: 1,
            ..LinkBenchConfig::small().with_vertices(600)
        });
        for spec in WORKLOADS {
            let a = plan(spec, &data, 1, true);
            let b = plan(spec, &data, 1, true);
            let c = plan(spec, &data, 2, true);
            assert_eq!(texts(&a), texts(&b), "{}", spec.name);
            assert_ne!(texts(&a), texts(&c), "{}", spec.name);
            assert!(
                !a.ops.is_empty() && a.ops.len().is_multiple_of(a.block),
                "{}",
                spec.name
            );
            assert!(!a.warmup.is_empty(), "{}", spec.name);
        }
    }

    #[test]
    fn every_block_holds_one_start_from_each_band() {
        let data = generate(&LinkBenchConfig::small().with_vertices(5_000));
        let mut rng = StdRng::seed_from_u64(3);
        let blocks = stratified_starts(&data, &mut rng, 8, 16);
        assert_eq!(blocks.len(), 8);
        // With skew 0.7 the lowest band is all hub vertices and the
        // highest all cold ones, in every block alike.
        for block in &blocks {
            assert_eq!(block.len(), 16);
            assert!(block[0] < 10, "{block:?}");
            assert!(block[15] > 2_500, "{block:?}");
        }
        // Bands are ordered, positions inside them differ between blocks,
        // and another seed starts from (nearly) the same ranks.
        assert!(blocks.iter().all(|b| b.windows(2).all(|w| w[0] <= w[1])));
        assert_ne!(blocks[0], blocks[1]);
        let other = stratified_starts(&data, &mut StdRng::seed_from_u64(4), 8, 16);
        assert_eq!(blocks[0][..4], other[0][..4]);
    }

    #[test]
    fn writer_never_repeats_an_edge_and_avoids_what_reads_see() {
        let data = generate(&LinkBenchConfig::small().with_vertices(600));
        let spec = spec("mixed_rw.http").unwrap();
        let mut plan = plan(spec, &data, 5, true);
        let mut writer = plan.writer.take().unwrap();
        let sources: HashSet<i64> = writer.targets.iter().map(|t| t.0).collect();
        let mut seen = HashSet::new();
        for _ in 0..64 {
            let sql = writer.next_insert();
            let (ints, _) = params(&sql.replace("links_et", "links_et "));
            // table, then per row: src dst visibility time version
            assert!(sources.contains(&ints[1]) && ints[1] == ints[6], "{sql}");
            assert!(seen.insert((ints[0], ints[1], ints[2])), "{sql}");
            assert!(seen.insert((ints[0], ints[6], ints[7])), "{sql}");
        }
        for op in plan
            .ops
            .iter()
            .filter(|op| matches!(op.expect, Expect::Exact(_)))
        {
            assert!(!sources.contains(&params(&op.text).0[0]), "{}", op.text);
        }
    }

    #[test]
    fn table1_parameters_are_read_back_from_the_query_text() {
        let (ints, strs) = params("g.V(5).outE('et2').filter(inV().id() == 19)");
        assert_eq!((ints, strs), (vec![5, 19], vec!["et2"]));
    }
}
