//! The SQL Dialect module.
//!
//! "The SQL Dialect module deals with everything related to Db2. It
//! generates all the SQL queries needed for implementing graph operations.
//! This module also keeps track of these SQL queries and finds out frequent
//! query patterns ... It then creates a set of pre-compiled SQL templates
//! for these frequent patterns and issues the corresponding prepare
//! statements ... Based on these SQL templates, it also suggests indexes"
//! (Section 6.1).
//!
//! Here: every generated statement is parameterized (`?`). A table read is
//! compiled once per read shape: the cache is keyed by a structured
//! [`ReadKey`] — the table, the shapes of the pushed conjuncts (column,
//! operator, IN-arity bucket), the selected columns, the `LIMIT` bucket and
//! the aggregate — and each entry holds the SQL text, the prepared
//! statement, the handles of its pattern counters and latency histogram,
//! and the layout its rows decode with. A hit renders no SQL and hashes no
//! text; only its parameters travel. Each read's access pattern (table +
//! predicate columns) is counted, and patterns crossing the frequency
//! threshold produce index suggestions, which can be applied in one call.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use gremlin::{AggOp, ElementKind};
use parking_lot::RwLock;
use reldb::{Database, DbResult, Histogram, Prepared, RowSet, Snapshot, Value};

use crate::graph_structure::Layout;
use crate::json::Json;
use crate::metrics::{MetricsRegistry, Profiler};

/// Frontiers larger than this are split into multiple statements instead of
/// one gigantic `IN (...)`: the template for 2^k placeholders past this
/// point would be prepared once and reused almost never. The split is about
/// template reuse and statement size, not probe speed: reldb probes an
/// IN-list key by key through its index, so its cost grows with the number
/// of ids, whatever the chunking.
pub(crate) const MAX_FRONTIER_CHUNK: usize = 1024;

/// Default cap on distinct cached prepared templates.
pub(crate) const DEFAULT_TEMPLATE_CAP: usize = 512;

/// Default cap on tracked workload patterns.
pub(crate) const DEFAULT_PATTERN_CAP: usize = 1024;

/// An index the dialect suggests creating, ranked by the wall time the
/// driving pattern has cost so far (a proxy for the time an index would
/// save — ROADMAP follow-up from PR 1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexSuggestion {
    pub table: String,
    pub columns: Vec<String>,
    /// How many statements matched the driving pattern.
    pub(crate) count: u64,
    /// Cumulative observed statement wall time for the pattern, in nanos.
    pub(crate) observed_nanos: u64,
}

/// A workload access pattern: (table name, predicate column list).
pub(crate) type PatternKey = (String, Vec<String>);

/// One observed access pattern with its cumulative cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct WorkloadPattern {
    pub table: String,
    pub columns: Vec<String>,
    pub(crate) count: u64,
    pub(crate) observed_nanos: u64,
}

/// Everything the advisor knows about the workload: every tracked pattern
/// (cost-sorted) plus the index suggestions ranked by estimated time saved.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub(crate) patterns: Vec<WorkloadPattern>,
    pub(crate) suggestions: Vec<IndexSuggestion>,
}

impl WorkloadReport {
    pub fn to_json(&self) -> Json {
        let pattern_json = |table: &str, columns: &[String], count: u64, nanos: u64| {
            Json::obj(vec![
                ("table", Json::str(table)),
                ("columns", Json::arr(columns.iter().map(Json::str).collect())),
                ("count", Json::u64(count)),
                ("observed_nanos", Json::u64(nanos)),
            ])
        };
        Json::obj(vec![
            (
                "patterns",
                Json::arr(
                    self.patterns
                        .iter()
                        .map(|p| pattern_json(&p.table, &p.columns, p.count, p.observed_nanos))
                        .collect(),
                ),
            ),
            (
                "suggestions",
                Json::arr(
                    self.suggestions
                        .iter()
                        .map(|s| pattern_json(&s.table, &s.columns, s.count, s.observed_nanos))
                        .collect(),
                ),
            ),
        ])
    }
}

impl std::fmt::Display for WorkloadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "workload: {} pattern(s) tracked", self.patterns.len())?;
        for p in &self.patterns {
            writeln!(
                f,
                "  {}({}) seen {}x, {}",
                p.table,
                p.columns.join(", "),
                p.count,
                crate::metrics::fmt_nanos(p.observed_nanos)
            )?;
        }
        writeln!(f, "suggestions ({}):", self.suggestions.len())?;
        for s in &self.suggestions {
            writeln!(
                f,
                "  CREATE INDEX ON {}({}) -- {}x, {}",
                s.table,
                s.columns.join(", "),
                s.count,
                crate::metrics::fmt_nanos(s.observed_nanos)
            )?;
        }
        Ok(())
    }
}

/// Pre-execution statement interception callback: receives the template
/// text of every statement the dialect is about to execute.
pub(crate) type StatementHook = Arc<dyn Fn(&str) + Send + Sync>;

// ------------------------------------------------------------- read keys

/// Which id definition of a table a conjunct tests: a vertex's or an
/// edge's own id, or an edge's src or dst endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum IdRef {
    Id,
    Src,
    Dst,
}

/// A column a pushed conjunct tests, named by where the overlay defines it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Col {
    /// Property `i` of the table (`OverlayTable::properties`).
    Prop(u16),
    /// The label column of a column-labelled table.
    Label,
    /// Column `j` of an id definition.
    Id(IdRef, u8),
}

/// A comparison other than `=`, which is a one-value [`Conjunct::In`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum CmpOp {
    Neq,
    Gt,
    Gte,
    Lt,
    Lte,
}

/// One pushed WHERE conjunct, structured: the column(s) it tests and its
/// operator. Its `?` count follows from it, and its values travel beside
/// it as the read's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Conjunct {
    /// `c = ?` for one value, `c IN (?, …)` for `n` values, `n` a bucket
    /// ([`bucket_arity`]). A one-value IN and `=` are one shape, so two
    /// keys never render the same text.
    In(Col, u32),
    /// `c <op> ?`.
    Cmp(Col, CmpOp),
    /// `(c >= ? AND c < ?)`.
    Between(Col),
    /// `c IS NULL`, or `c IS NOT NULL` when `true`.
    Null(Col, bool),
    /// `((a = ? AND b = ?) OR …)`: `n` key groups (a bucket) over the
    /// columns of a composite id.
    Composite(IdRef, u32),
}

/// What a read selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum Select {
    /// Element rows: the columns of the properties in the mask over
    /// `OverlayTable::properties` (`None`: all of them), and at most
    /// `limit` rows (a power of two).
    Rows { props: Option<u64>, limit: Option<u64> },
    /// `COUNT(*)`.
    Count,
    /// An aggregate of property `i`.
    Agg(AggOp, u16),
}

/// The key of one compiled table read: the table, the shapes of its pushed
/// conjuncts and what it selects. Everything the SQL text depends on is
/// here, and nothing else, so equal keys render equal text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct ReadKey<'a> {
    pub(crate) kind: ElementKind,
    pub(crate) table: usize,
    pub(crate) conjuncts: &'a [Conjunct],
    pub(crate) select: Select,
}

/// A [`ReadKey`] the template cache owns.
struct OwnedKey {
    kind: ElementKind,
    table: usize,
    conjuncts: Box<[Conjunct]>,
    select: Select,
}

/// Either key form, so the cache is looked up with a borrowed key and
/// allocates only to admit one.
trait AsKey {
    fn key(&self) -> ReadKey<'_>;
}

impl AsKey for ReadKey<'_> {
    fn key(&self) -> ReadKey<'_> {
        *self
    }
}

impl AsKey for OwnedKey {
    fn key(&self) -> ReadKey<'_> {
        let OwnedKey { kind, table, ref conjuncts, select } = *self;
        ReadKey { kind, table, conjuncts, select }
    }
}

impl<'a> Borrow<dyn AsKey + 'a> for OwnedKey {
    fn borrow(&self) -> &(dyn AsKey + 'a) {
        self
    }
}

impl Hash for dyn AsKey + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state)
    }
}

impl PartialEq for dyn AsKey + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for dyn AsKey + '_ {}

impl Hash for OwnedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state)
    }
}

impl PartialEq for OwnedKey {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for OwnedKey {}

fn owned(key: ReadKey<'_>) -> OwnedKey {
    let ReadKey { kind, table, conjuncts, select } = key;
    OwnedKey { kind, table, conjuncts: conjuncts.into(), select }
}

/// What compiling a read's key yields: its SQL text, its access pattern
/// (table, predicate columns) and, for a row read, how its rows decode.
pub(crate) struct Rendered {
    pub(crate) sql: String,
    pub(crate) pattern: PatternKey,
    pub(crate) layout: Option<Arc<Layout>>,
}

/// A compiled table read: one entry of the template cache. A hit formats
/// no SQL, builds no column list and hashes no text.
#[derive(Clone)]
pub(crate) struct CompiledRead {
    sql: Arc<str>,
    prepared: Arc<Prepared>,
    /// The access pattern, and its counters in the tracker as of pattern
    /// generation `pattern_gen`.
    pattern: PatternKey,
    counters: (Arc<AtomicU64>, Arc<AtomicU64>),
    pattern_gen: u64,
    /// The template's latency histogram in `MetricsRegistry::sql_templates`.
    histogram: Arc<Histogram>,
    /// How a row read's rows decode; `None` for an aggregate.
    pub(crate) layout: Option<Arc<Layout>>,
    /// Admission sequence, for FIFO eviction once the cache is full.
    seq: u64,
}

/// A tracked workload pattern: occurrence counter, cumulative observed
/// statement wall time, and admission sequence.
struct TrackedPattern {
    count: Arc<AtomicU64>,
    nanos: Arc<AtomicU64>,
    seq: u64,
}

/// SQL generation + template cache + workload pattern tracking.
pub struct SqlDialect {
    db: Arc<Database>,
    /// Compiled reads keyed by [`ReadKey`]. Read-mostly: once the
    /// workload's reads exist, queries only take the read lock.
    templates: RwLock<HashMap<OwnedKey, Arc<CompiledRead>>>,
    /// (table, predicate column list) -> times seen. Counters are atomics
    /// so concurrent queries only contend on first sight of a pattern.
    patterns: RwLock<HashMap<PatternKey, TrackedPattern>>,
    /// Bumped on every pattern eviction: a compiled read whose counters
    /// predate it looks its pattern up again.
    pattern_gen: AtomicU64,
    /// Monotonic admission counter shared by both maps.
    admissions: AtomicU64,
    /// Patterns become suggestions after this many occurrences.
    frequency_threshold: u64,
    /// Caps on the two maps above; both are evicted-on-insert so an
    /// adversarial workload (a distinct read per query) cannot grow them
    /// without bound.
    template_cap: usize,
    pattern_cap: usize,
    /// Always-on aggregate counters (statement count, wall time, rows,
    /// template hit rate, evictions), shared with the owning graph.
    registry: Arc<MetricsRegistry>,
    /// Test-only interception point: invoked with each statement's template
    /// text right before execution. Lets concurrency tests interleave
    /// writer commits between the statements of one traversal
    /// deterministically.
    statement_hook: RwLock<Option<StatementHook>>,
}

impl SqlDialect {
    /// Build a dialect that reports into an externally owned registry.
    pub(crate) fn with_registry(db: Arc<Database>, registry: Arc<MetricsRegistry>) -> SqlDialect {
        SqlDialect {
            db,
            templates: RwLock::new(HashMap::new()),
            patterns: RwLock::new(HashMap::new()),
            pattern_gen: AtomicU64::new(0),
            admissions: AtomicU64::new(0),
            frequency_threshold: 16,
            template_cap: DEFAULT_TEMPLATE_CAP,
            pattern_cap: DEFAULT_PATTERN_CAP,
            registry,
            statement_hook: RwLock::new(None),
        }
    }

    /// Install (or clear) the pre-execution statement hook. Used by tests
    /// to trigger concurrent writes at precise points inside a traversal.
    pub fn set_statement_hook(&self, hook: Option<StatementHook>) {
        *self.statement_hook.write() = hook;
    }

    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// Execute the read `key` with `params` through the template cache;
    /// `render` compiles the key on a miss. The read's access pattern is
    /// counted for index advising; `profiler` (when enabled) receives the
    /// statement text, cache outcome, row count and wall time. When
    /// `snapshot` is given every read in the statement is pinned to that
    /// committed epoch — how a multi-statement traversal keeps all of its
    /// generated SQL, across every parallel worker, on one consistent
    /// database state; `None` reads the latest committed data. Returns the
    /// rows and the compiled read, whose layout decodes them.
    pub(crate) fn read(
        &self,
        profiler: &Profiler,
        key: ReadKey<'_>,
        params: &[Value],
        snapshot: Option<&Snapshot>,
        render: impl FnOnce() -> Rendered,
    ) -> DbResult<(RowSet, Arc<CompiledRead>)> {
        let cached = self.templates.read().get(&key as &dyn AsKey).cloned();
        let (mut read, cache_hit) = match cached {
            Some(read) => (read, true),
            None => (self.admit(profiler, key, render())?, false),
        };
        // A read prepared before a DDL statement carries a stale catalog
        // generation: re-prepare and replace it so a dropped-and-recreated
        // table can never be read through its old layout. (The engine
        // would also re-prepare defensively, but the cache must stop
        // handing out the stale plan.)
        if read.prepared.is_stale(self.db.schema_generation()) {
            let prepared = Arc::new(self.db.prepare(&read.sql)?);
            let fresh = Arc::new(CompiledRead { prepared, ..CompiledRead::clone(&read) });
            if let Some(entry) = self.templates.write().get_mut(&key as &dyn AsKey) {
                *entry = fresh.clone();
            }
            self.registry.template_invalidations.add(1);
            profiler.record_template_invalidation();
            read = fresh;
        }
        let retracked;
        let (count, pattern_nanos) = if read.pattern_gen == self.pattern_gen.load(Ordering::Relaxed)
        {
            (&read.counters.0, &read.counters.1)
        } else {
            retracked = self.track(profiler, &read.pattern).0;
            (&retracked.0, &retracked.1)
        };
        count.fetch_add(1, Ordering::Relaxed);
        let hook = self.statement_hook.read().clone();
        if let Some(hook) = hook {
            hook(&read.sql);
        }
        let start = std::time::Instant::now();
        let result = match snapshot {
            Some(s) => self.db.execute_prepared_at(&read.prepared, params, s),
            None => self.db.execute_prepared(&read.prepared, params),
        };
        let nanos = start.elapsed().as_nanos() as u64;
        let rows = result.as_ref().map(|rs| rs.rows.len()).unwrap_or(0);
        self.registry.record_statement(&read.histogram, cache_hit, rows as u64, nanos);
        pattern_nanos.fetch_add(nanos, Ordering::Relaxed);
        profiler.record_statement(&read.sql, cache_hit, rows, nanos);
        Ok((result?, read))
    }

    /// Compile a missed read and admit it, evicting the oldest admission
    /// once the cache is full. A racing thread may have admitted the same
    /// key first; its entry stays.
    fn admit(
        &self,
        profiler: &Profiler,
        key: ReadKey<'_>,
        rendered: Rendered,
    ) -> DbResult<Arc<CompiledRead>> {
        let prepared = Arc::new(self.db.prepare(&rendered.sql)?);
        let (counters, pattern_gen) = self.track(profiler, &rendered.pattern);
        let histogram = self.registry.sql_templates().handle(&rendered.sql);
        let mut write = self.templates.write();
        if let Some(existing) = write.get(&key as &dyn AsKey) {
            return Ok(existing.clone());
        }
        if write.len() >= self.template_cap {
            if let Some(victim) = write.iter().min_by_key(|(_, t)| t.seq).map(|(k, _)| k.key()) {
                let victim = owned(victim);
                write.remove(&victim);
                self.registry.template_evictions.add(1);
                profiler.record_template_eviction();
            }
        }
        let read = Arc::new(CompiledRead {
            sql: rendered.sql.into(),
            prepared,
            pattern: rendered.pattern,
            counters,
            pattern_gen,
            histogram,
            layout: rendered.layout,
            seq: self.admissions.fetch_add(1, Ordering::Relaxed),
        });
        write.insert(owned(key), read.clone());
        Ok(read)
    }

    /// The counters of `pattern`, tracked from now on if it is new, and the
    /// pattern generation they belong to.
    fn track(
        &self,
        profiler: &Profiler,
        pattern: &PatternKey,
    ) -> ((Arc<AtomicU64>, Arc<AtomicU64>), u64) {
        let gen = self.pattern_gen.load(Ordering::Relaxed);
        if let Some(p) = self.patterns.read().get(pattern) {
            return ((p.count.clone(), p.nanos.clone()), gen);
        }
        let mut write = self.patterns.write();
        if !write.contains_key(pattern) && write.len() >= self.pattern_cap {
            // Evict the least-seen pattern (oldest on ties): a pattern that
            // never recurred is the one least likely to drive an index
            // suggestion.
            if let Some(victim) = write
                .iter()
                .min_by_key(|(_, p)| (p.count.load(Ordering::Relaxed), p.seq))
                .map(|(k, _)| k.clone())
            {
                write.remove(&victim);
                self.pattern_gen.fetch_add(1, Ordering::Relaxed);
                self.registry.pattern_evictions.add(1);
                profiler.record_pattern_eviction();
            }
        }
        let seq = self.admissions.fetch_add(1, Ordering::Relaxed);
        let entry = write.entry(pattern.clone()).or_insert_with(|| TrackedPattern {
            count: Arc::new(AtomicU64::new(0)),
            nanos: Arc::new(AtomicU64::new(0)),
            seq,
        });
        ((entry.count.clone(), entry.nanos.clone()), self.pattern_gen.load(Ordering::Relaxed))
    }

    /// Number of distinct cached SQL templates.
    pub fn template_count(&self) -> usize {
        self.templates.read().len()
    }

    /// The cached template texts (for tests and diagnostics), unsorted.
    pub fn template_texts(&self) -> Vec<String> {
        self.templates.read().values().map(|t| t.sql.to_string()).collect()
    }

    /// Every tracked pattern with its count and cumulative observed wall
    /// time, costliest first (ties: most seen, then key order).
    pub(crate) fn pattern_stats(&self) -> Vec<(PatternKey, u64, u64)> {
        let mut out: Vec<(PatternKey, u64, u64)> = self
            .patterns
            .read()
            .iter()
            .map(|(k, p)| {
                (k.clone(), p.count.load(Ordering::Relaxed), p.nanos.load(Ordering::Relaxed))
            })
            .collect();
        out.sort_by(|a, b| b.2.cmp(&a.2).then_with(|| b.1.cmp(&a.1)).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// Indexes that would serve the frequent patterns and do not already
    /// exist, ranked by the cumulative observed wall time of the driving
    /// pattern (costliest first) — the statements an index would speed up
    /// the most come first.
    pub fn suggested_indexes(&self) -> Vec<IndexSuggestion> {
        let mut out = Vec::new();
        for ((table, cols), count, observed_nanos) in self.pattern_stats() {
            if count < self.frequency_threshold || cols.is_empty() {
                continue;
            }
            let Some(t) = self.db.get_table(&table) else { continue };
            let guard = t.read();
            if guard.find_index(&cols).is_none() {
                out.push(IndexSuggestion {
                    table: t.schema.name.clone(),
                    columns: cols,
                    count,
                    observed_nanos,
                });
            }
        }
        // pattern_stats is already cost-sorted and its keys are unique, so
        // the ranked order carries through without a dedup pass.
        out
    }

    /// The advisor's full view of the workload: cost-sorted pattern stats
    /// plus the ranked index suggestions.
    pub(crate) fn workload_report(&self) -> WorkloadReport {
        let patterns = self
            .pattern_stats()
            .into_iter()
            .map(|((table, columns), count, observed_nanos)| WorkloadPattern {
                table,
                columns,
                count,
                observed_nanos,
            })
            .collect();
        WorkloadReport { patterns, suggestions: self.suggested_indexes() }
    }

    /// Create every suggested index; returns how many were created.
    pub fn apply_suggested_indexes(&self) -> DbResult<usize> {
        let suggestions = self.suggested_indexes();
        let mut created = 0;
        for s in &suggestions {
            let name = format!(
                "ix_auto_{}_{}",
                s.table.to_ascii_lowercase(),
                s.columns.join("_").to_ascii_lowercase()
            );
            let Some(t) = self.db.get_table(&s.table) else { continue };
            if t.create_index(reldb::IndexDef { name, columns: s.columns.clone(), unique: false })
                .is_ok()
            {
                created += 1;
            }
        }
        Ok(created)
    }
}

// ----------------------------------------------------------- SQL building

/// Quote an identifier for the SQL dialect (double quotes when needed).
/// Embedded double quotes are doubled, so a hostile or merely unusual name
/// like `a"b` can never break out of the quoted identifier.
pub(crate) fn ident(name: &str) -> String {
    if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

/// Build `SELECT <cols> FROM <table>` with optional WHERE conjuncts and an
/// optional aggregate projection. Conjuncts are strings already containing
/// `?` placeholders.
pub(crate) fn build_select(
    table: &str,
    columns: &[String],
    conjuncts: &[String],
    aggregate: Option<&str>,
) -> String {
    let proj = match aggregate {
        Some(agg) => agg.to_string(),
        None => {
            if columns.is_empty() {
                "*".to_string()
            } else {
                columns.iter().map(|c| ident(c)).collect::<Vec<_>>().join(", ")
            }
        }
    };
    let mut sql = format!("SELECT {proj} FROM {}", ident(table));
    if !conjuncts.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conjuncts.join(" AND "));
    }
    sql
}

/// Build an `col IN (?, ?, ...)` conjunct for `n` values (or `col = ?` for
/// one).
pub(crate) fn in_list(col: &str, n: usize) -> String {
    if n == 1 {
        format!("{} = ?", ident(col))
    } else {
        let marks = vec!["?"; n].join(", ");
        format!("{} IN ({})", ident(col), marks)
    }
}

/// Round an IN-list arity up to its template bucket: 1 stays 1 (the `=`
/// form), anything larger goes to the next power of two. With buckets, a
/// workload whose frontier sizes range over 1..=N produces O(log N)
/// distinct templates instead of one per distinct size — which is what
/// keeps the prepared-template cache hot under traversal workloads.
pub(crate) fn bucket_arity(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        n.next_power_of_two()
    }
}

/// Pad the groups of `width` values pushed onto `values` since `start` up
/// to their bucket by repeating the last group (a duplicate IN member or
/// disjunct never changes the result), and return the bucket. At least
/// one group must have been pushed.
pub(crate) fn pad_to_bucket<T: Clone>(values: &mut Vec<T>, start: usize, width: usize) -> usize {
    let n = (values.len() - start) / width;
    debug_assert!(n > 0, "pad_to_bucket over no values");
    let bucket = bucket_arity(n);
    let last = values.len() - width;
    for _ in n..bucket {
        values.extend_from_within(last..last + width);
    }
    bucket
}

/// Build an OR-of-conjunctions conjunct for composite keys:
/// `((a = ? AND b = ?) OR (a = ? AND b = ?))` for `groups` keys over
/// `cols`.
pub(crate) fn composite_in(cols: &[&str], groups: usize) -> String {
    let one: String =
        cols.iter().map(|c| format!("{} = ?", ident(c))).collect::<Vec<_>>().join(" AND ");
    if groups == 1 {
        format!("({one})")
    } else {
        let parts = vec![format!("({one})"); groups].join(" OR ");
        format!("({parts})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dialect with the default caps, the index-advice threshold
    /// `threshold` and a registry of its own.
    fn dialect(db: Arc<Database>, threshold: u64) -> SqlDialect {
        let defaults = SqlDialect::with_registry(db, Arc::default());
        SqlDialect { frequency_threshold: threshold, ..defaults }
    }

    /// The key of test read `n`: distinct `n` are distinct reads.
    fn key(n: usize) -> ReadKey<'static> {
        let select = Select::Rows { props: None, limit: None };
        ReadKey { kind: ElementKind::Vertices, table: n, conjuncts: &[], select }
    }

    /// Run `sql` as read `n`, tracking `pattern` (no columns for `None`).
    fn run(
        dialect: &SqlDialect,
        n: usize,
        sql: &str,
        params: &[Value],
        pattern: Option<&[&str]>,
    ) -> RowSet {
        let pattern =
            ("t".to_string(), pattern.unwrap_or(&[]).iter().map(|c| c.to_string()).collect());
        let render = || Rendered { sql: sql.to_string(), pattern, layout: None };
        dialect.read(&Profiler::disabled(), key(n), params, None, render).unwrap().0
    }

    fn db_with_table() -> Arc<Database> {
        let db = Arc::new(Database::new());
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, name VARCHAR, src BIGINT)").unwrap();
        for i in 0..20 {
            db.execute(&format!("INSERT INTO t VALUES ({i}, 'n{}', {})", i % 3, i / 2)).unwrap();
        }
        db
    }

    #[test]
    fn sql_builders() {
        assert_eq!(build_select("T", &["a".into(), "b".into()], &[], None), "SELECT a, b FROM T");
        assert_eq!(
            build_select("T", &[], &["a = ?".into(), "b IN (?, ?)".into()], None),
            "SELECT * FROM T WHERE a = ? AND b IN (?, ?)"
        );
        assert_eq!(build_select("T", &[], &[], Some("COUNT(*)")), "SELECT COUNT(*) FROM T");
        assert_eq!(in_list("x", 1), "x = ?");
        assert_eq!(in_list("x", 3), "x IN (?, ?, ?)");
        assert_eq!(composite_in(&["a", "b"], 2), "((a = ? AND b = ?) OR (a = ? AND b = ?))");
        assert_eq!(ident("weird name"), "\"weird name\"");
        assert_eq!(ident("plain_1"), "plain_1");
    }

    #[test]
    fn ident_escapes_embedded_quotes() {
        // A name with an embedded quote cannot terminate the quoted
        // identifier early: the quote is doubled.
        assert_eq!(ident("a\"b"), "\"a\"\"b\"");
        assert_eq!(ident("a\"\"b"), "\"a\"\"\"\"b\"");
        assert_eq!(ident("\""), "\"\"\"\"");
        // Empty names are quoted rather than emitted bare.
        assert_eq!(ident(""), "\"\"");
    }

    #[test]
    fn arity_bucketing_and_padding() {
        assert_eq!(bucket_arity(0), 1);
        assert_eq!(bucket_arity(1), 1);
        assert_eq!(bucket_arity(2), 2);
        assert_eq!(bucket_arity(3), 4);
        assert_eq!(bucket_arity(5), 8);
        assert_eq!(bucket_arity(100), 128);
        assert_eq!(bucket_arity(1024), 1024);

        // Padding repeats the last value up to the bucket size.
        let mut p = vec![Value::Bigint(1), Value::Bigint(2), Value::Bigint(3)];
        let sql = in_list("x", pad_to_bucket(&mut p, 0, 1));
        assert_eq!(sql, "x IN (?, ?, ?, ?)");
        assert_eq!(p, vec![Value::Bigint(1), Value::Bigint(2), Value::Bigint(3), Value::Bigint(3)]);

        // Arity 1 keeps the equality form, untouched params.
        let mut p1 = vec![Value::Bigint(7)];
        assert_eq!(in_list("x", pad_to_bucket(&mut p1, 0, 1)), "x = ?");
        assert_eq!(p1, vec![Value::Bigint(7)]);

        // Composite keys pad whole key groups.
        let mut keys = vec![
            vec![Value::Bigint(1), Value::Bigint(2)],
            vec![Value::Bigint(3), Value::Bigint(4)],
            vec![Value::Bigint(5), Value::Bigint(6)],
        ];
        let sql = composite_in(&["a", "b"], pad_to_bucket(&mut keys, 0, 1));
        assert_eq!(
            sql,
            "((a = ? AND b = ?) OR (a = ? AND b = ?) OR (a = ? AND b = ?) OR (a = ? AND b = ?))"
        );
        assert_eq!(keys.len(), 4);
        assert_eq!(keys[3], vec![Value::Bigint(5), Value::Bigint(6)]);
    }

    #[test]
    fn bucketed_in_list_results_match_exact() {
        let db = db_with_table();
        let dialect = dialect(db, 16);
        // Padded params (repeating the last id) return the same rows as the
        // exact-arity statement.
        let mut padded = vec![Value::Bigint(1), Value::Bigint(2), Value::Bigint(3)];
        let sql = in_list("id", pad_to_bucket(&mut padded, 0, 1));
        let sql = format!("SELECT id FROM t WHERE {sql}");
        let rs = run(&dialect, 0, &sql, &padded, None);
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn template_cache_cap_evicts_oldest() {
        let db = db_with_table();
        let dialect = SqlDialect { template_cap: 3, pattern_cap: 2, ..dialect(db, 16) };
        for i in 0..5 {
            run(&dialect, i, &format!("SELECT id FROM t WHERE id = {i}"), &[], None);
        }
        assert_eq!(dialect.template_count(), 3);
        let texts = dialect.template_texts();
        // The two oldest templates were evicted.
        assert!(!texts.contains(&"SELECT id FROM t WHERE id = 0".to_string()), "{texts:?}");
        assert!(!texts.contains(&"SELECT id FROM t WHERE id = 1".to_string()), "{texts:?}");
        assert!(texts.contains(&"SELECT id FROM t WHERE id = 4".to_string()), "{texts:?}");
        let snap = dialect.registry().snapshot();
        assert_eq!(snap.template_evictions, 2);
        // A re-query of an evicted template still works (it is re-prepared
        // and re-admitted).
        run(&dialect, 0, "SELECT id FROM t WHERE id = 0", &[], None);
        assert_eq!(dialect.template_count(), 3);
    }

    #[test]
    fn pattern_tracker_cap_evicts_least_seen() {
        let db = db_with_table();
        let dialect = SqlDialect { template_cap: 64, pattern_cap: 2, ..dialect(db, 2) };
        // One read per pattern, as a pattern follows from its read's key.
        let track = |n, cols: &[&str]| {
            run(&dialect, n, "SELECT id FROM t", &[], Some(cols));
        };
        // "src" recurs; "name" is seen once; a third pattern evicts the
        // least-seen one ("name"), keeping the recurring pattern alive.
        track(0, &["src"]);
        track(0, &["src"]);
        track(0, &["src"]);
        track(1, &["name"]);
        track(2, &["id"]);
        let stats = dialect.pattern_stats();
        assert!(
            stats.iter().any(|((t, c), n, _)| t == "t" && c == &vec!["src".to_string()] && *n >= 3),
            "{stats:?}"
        );
        let snap = dialect.registry().snapshot();
        assert_eq!(snap.pattern_evictions, 1);
    }

    #[test]
    fn template_cache_hits() {
        let db = db_with_table();
        let dialect = dialect(db, 16);
        let sql = "SELECT name FROM t WHERE id = ?";
        let query = |id| run(&dialect, 0, sql, &[id], None);
        let (r1, r2) = (query(Value::Bigint(1)), query(Value::Bigint(2)));
        assert_eq!(r1.scalar(), Some(&Value::Varchar("n1".into())));
        assert_eq!(r2.scalar(), Some(&Value::Varchar("n2".into())));
        assert_eq!(dialect.template_count(), 1);
        let snap = dialect.registry().snapshot();
        assert_eq!(snap.sql_statements, 2);
        assert_eq!(snap.template_hits, 1);
    }

    #[test]
    fn frequent_patterns_drive_index_suggestions() {
        let db = db_with_table();
        let dialect = dialect(db.clone(), 5);
        // Query on the unindexed 'src' column repeatedly.
        for i in 0..6 {
            run(&dialect, 0, "SELECT * FROM t WHERE src = ?", &[Value::Bigint(i)], Some(&["src"]));
        }
        let suggestions = dialect.suggested_indexes();
        assert_eq!(suggestions.len(), 1);
        assert_eq!(suggestions[0].columns, vec!["src".to_string()]);
        assert_eq!(suggestions[0].count, 6);
        // Real wall time accumulated on the pattern and flows through.
        assert!(suggestions[0].observed_nanos > 0);

        // A second frequent pattern on 'name'. Pin the observed wall time
        // on both patterns directly (the counters are ours) so the ranking
        // assertion is deterministic: 'name' must cost more than 'src'.
        for i in 0..5 {
            let name = Value::Varchar(format!("n{i}"));
            run(&dialect, 1, "SELECT * FROM t WHERE name = ?", &[name], Some(&["name"]));
        }
        {
            let patterns = dialect.patterns.read();
            patterns[&("t".to_string(), vec!["src".to_string()])]
                .nanos
                .store(1_000, Ordering::Relaxed);
            patterns[&("t".to_string(), vec!["name".to_string()])]
                .nanos
                .store(9_000, Ordering::Relaxed);
        }
        let ranked = dialect.suggested_indexes();
        assert_eq!(ranked.len(), 2);
        // Costliest pattern first, even though 'src' was seen more often.
        assert_eq!(ranked[0].columns, vec!["name".to_string()]);
        assert_eq!(ranked[0].observed_nanos, 9_000);
        assert_eq!(ranked[0].count, 5);
        assert_eq!(ranked[1].columns, vec!["src".to_string()]);
        assert_eq!(ranked[1].observed_nanos, 1_000);

        // The workload report carries the same ranking and serializes.
        let report = dialect.workload_report();
        assert_eq!(report.suggestions, ranked);
        assert_eq!(report.patterns[0].columns, vec!["name".to_string()]);
        let json = Json::parse(&report.to_json().to_compact()).unwrap();
        let first = json.get("suggestions").and_then(|s| s.as_array()).unwrap()[0].clone();
        assert_eq!(first.get("observed_nanos").and_then(|v| v.as_u64()), Some(9_000));

        // Applying creates both indexes in ranked order; suggestions clear.
        assert_eq!(dialect.apply_suggested_indexes().unwrap(), 2);
        assert!(dialect.suggested_indexes().is_empty());
        // The new indexes are actually used: plans show probes.
        let plan = db.explain("SELECT * FROM t WHERE src = 3").unwrap();
        assert!(plan.contains("INDEX-EQ"), "{plan}");
        let plan = db.explain("SELECT * FROM t WHERE name = 'n1'").unwrap();
        assert!(plan.contains("INDEX-EQ"), "{plan}");
    }

    #[test]
    fn below_threshold_patterns_not_suggested() {
        let db = db_with_table();
        let dialect = dialect(db, 100);
        for _ in 0..5 {
            run(&dialect, 0, "SELECT * FROM t WHERE src = ?", &[Value::Bigint(0)], Some(&["src"]));
        }
        assert!(dialect.pattern_stats().iter().all(|(_, n, _)| *n < 100));
        assert!(dialect.suggested_indexes().is_empty());
    }

    #[test]
    fn indexed_patterns_not_resuggested() {
        let db = db_with_table();
        let dialect = dialect(db, 1);
        run(&dialect, 0, "SELECT * FROM t WHERE id = ?", &[Value::Bigint(0)], Some(&["id"]));
        // id is the PK — already indexed, so nothing to suggest.
        assert!(dialect.suggested_indexes().is_empty());
    }
}
