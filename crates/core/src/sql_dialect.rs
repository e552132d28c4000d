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
//! Here: every generated statement is parameterized (`?`), executed through
//! a prepared-statement cache keyed by template text, and its access
//! pattern (table + predicate columns) is counted. Patterns crossing the
//! frequency threshold produce index suggestions, which can be applied in
//! one call.

use std::collections::HashMap;
use std::sync::Arc;

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
use reldb::{Database, DbResult, Prepared, RowSet, Snapshot, Value};

use crate::json::Json;
use crate::metrics::{MetricsRegistry, Profiler};

/// Frontiers larger than this are split into multiple statements instead of
/// one gigantic `IN (...)`: the template for 2^k placeholders past this
/// point would be prepared once and reused almost never. The split is about
/// template reuse and statement size, not probe speed: reldb probes an
/// IN-list key by key through its index, so its cost grows with the number
/// of ids, whatever the chunking.
pub const MAX_FRONTIER_CHUNK: usize = 1024;

/// Default cap on distinct cached prepared templates.
pub const DEFAULT_TEMPLATE_CAP: usize = 512;

/// Default cap on tracked workload patterns.
pub const DEFAULT_PATTERN_CAP: usize = 1024;

/// An index the dialect suggests creating, ranked by the wall time the
/// driving pattern has cost so far (a proxy for the time an index would
/// save — ROADMAP follow-up from PR 1).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct IndexSuggestion {
    pub table: String,
    pub columns: Vec<String>,
    /// How many statements matched the driving pattern.
    pub count: u64,
    /// Cumulative observed statement wall time for the pattern, in nanos.
    pub observed_nanos: u64,
}

/// A workload access pattern: (table name, predicate column list).
pub type PatternKey = (String, Vec<String>);

/// One observed access pattern with its cumulative cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadPattern {
    pub table: String,
    pub columns: Vec<String>,
    pub count: u64,
    pub observed_nanos: u64,
}

/// Everything the advisor knows about the workload: every tracked pattern
/// (cost-sorted) plus the index suggestions ranked by estimated time saved.
#[derive(Debug, Clone, Default)]
pub struct WorkloadReport {
    pub patterns: Vec<WorkloadPattern>,
    pub suggestions: Vec<IndexSuggestion>,
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
pub type StatementHook = Arc<dyn Fn(&str) + Send + Sync>;

/// A cached prepared template plus its admission sequence number (used for
/// FIFO eviction once the cache is full).
struct CachedTemplate {
    prepared: Arc<Prepared>,
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
    /// Prepared templates keyed by SQL text. Read-mostly: once the
    /// workload's templates exist, queries only take the read lock.
    templates: RwLock<HashMap<String, CachedTemplate>>,
    /// (table, predicate column list) -> times seen. Counters are atomics
    /// so concurrent queries only contend on first sight of a pattern.
    patterns: RwLock<HashMap<PatternKey, TrackedPattern>>,
    /// Monotonic admission counter shared by both maps.
    admissions: AtomicU64,
    /// Patterns become suggestions after this many occurrences.
    frequency_threshold: u64,
    /// Caps on the two maps above; both are evicted-on-insert so an
    /// adversarial workload (distinct SQL text per query) cannot grow them
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
    pub fn with_registry(db: Arc<Database>, registry: Arc<MetricsRegistry>) -> SqlDialect {
        SqlDialect {
            db,
            templates: RwLock::new(HashMap::new()),
            patterns: RwLock::new(HashMap::new()),
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

    /// Execute a parameterized SQL template through the prepared cache.
    /// `pattern` records the access shape for index advising; `profiler`
    /// (when enabled) receives the statement text, cache outcome, row
    /// count and wall time. When `snapshot` is given every read in the
    /// statement is pinned to that committed epoch — how a multi-statement
    /// traversal keeps all of its generated SQL, across every parallel
    /// worker, on one consistent database state; `None` reads the latest
    /// committed data.
    pub fn query_at(
        &self,
        profiler: &Profiler,
        template: &str,
        params: &[Value],
        pattern: Option<(&str, &[String])>,
        snapshot: Option<&Snapshot>,
    ) -> DbResult<RowSet> {
        let mut pattern_nanos: Option<Arc<AtomicU64>> = None;
        if let Some((table, cols)) = pattern {
            let key = (table.to_ascii_lowercase(), cols.to_vec());
            let tracked = {
                let read = self.patterns.read();
                read.get(&key).map(|p| (p.count.clone(), p.nanos.clone()))
            };
            let (counter, nanos) = match tracked {
                Some(t) => t,
                None => {
                    let mut write = self.patterns.write();
                    if !write.contains_key(&key) && write.len() >= self.pattern_cap {
                        // Evict the least-seen pattern (oldest on ties):
                        // a pattern that never recurred is the one least
                        // likely to drive an index suggestion.
                        if let Some(victim) = write
                            .iter()
                            .min_by_key(|(_, p)| (p.count.load(Ordering::Relaxed), p.seq))
                            .map(|(k, _)| k.clone())
                        {
                            write.remove(&victim);
                            self.registry.pattern_evictions.add(1);
                            profiler.record_pattern_eviction();
                        }
                    }
                    let seq = self.admissions.fetch_add(1, Ordering::Relaxed);
                    let entry = write.entry(key).or_insert_with(|| TrackedPattern {
                        count: Arc::new(AtomicU64::new(0)),
                        nanos: Arc::new(AtomicU64::new(0)),
                        seq,
                    });
                    (entry.count.clone(), entry.nanos.clone())
                }
            };
            counter.fetch_add(1, Ordering::Relaxed);
            pattern_nanos = Some(nanos);
        }
        let (prepared, cache_hit) = {
            let hit = self.templates.read().get(template).map(|t| t.prepared.clone());
            match hit {
                Some(p) => (p, true),
                None => {
                    let p = Arc::new(self.db.prepare(template)?);
                    let mut write = self.templates.write();
                    // Double-checked: a racing thread may have prepared the
                    // same template; keep the existing entry.
                    if !write.contains_key(template) {
                        if write.len() >= self.template_cap {
                            // FIFO eviction: drop the oldest admission.
                            if let Some(victim) = write
                                .iter()
                                .min_by_key(|(_, t)| t.seq)
                                .map(|(k, _)| k.clone())
                            {
                                write.remove(&victim);
                                self.registry.template_evictions.add(1);
                                profiler.record_template_eviction();
                            }
                        }
                        let seq = self.admissions.fetch_add(1, Ordering::Relaxed);
                        write.insert(
                            template.to_string(),
                            CachedTemplate { prepared: p.clone(), seq },
                        );
                    }
                    (p, false)
                }
            }
        };
        // A cached template prepared before a DDL statement carries a stale
        // catalog generation: re-prepare and replace it so a
        // dropped-and-recreated table can never be read through its old
        // layout. (The engine would also re-prepare defensively, but the
        // cache must stop handing out the stale plan.)
        let prepared = if prepared.is_stale(self.db.schema_generation()) {
            let fresh = Arc::new(self.db.prepare(template)?);
            if let Some(entry) = self.templates.write().get_mut(template) {
                entry.prepared = fresh.clone();
            }
            self.registry.template_invalidations.add(1);
            profiler.record_template_invalidation();
            fresh
        } else {
            prepared
        };
        let hook = self.statement_hook.read().clone();
        if let Some(hook) = hook {
            hook(template);
        }
        let start = std::time::Instant::now();
        let result = match snapshot {
            Some(s) => self.db.execute_prepared_at(&prepared, params, s),
            None => self.db.execute_prepared(&prepared, params),
        };
        let nanos = start.elapsed().as_nanos() as u64;
        let rows = result.as_ref().map(|rs| rs.rows.len()).unwrap_or(0);
        self.registry.record_statement(template, cache_hit, rows as u64, nanos);
        if let Some(acc) = pattern_nanos {
            acc.fetch_add(nanos, Ordering::Relaxed);
        }
        profiler.record_statement(template, cache_hit, rows, nanos);
        result
    }

    /// Number of distinct cached SQL templates.
    pub fn template_count(&self) -> usize {
        self.templates.read().len()
    }

    /// The cached template texts (for tests and diagnostics), unsorted.
    pub fn template_texts(&self) -> Vec<String> {
        self.templates.read().keys().cloned().collect()
    }

    /// Frequent query patterns observed so far (above threshold), with
    /// their counts.
    pub fn frequent_patterns(&self) -> Vec<(PatternKey, u64)> {
        self.patterns
            .read()
            .iter()
            .map(|(k, p)| (k.clone(), p.count.load(Ordering::Relaxed)))
            .filter(|(_, n)| *n >= self.frequency_threshold)
            .collect()
    }

    /// Every tracked pattern with its count and cumulative observed wall
    /// time, costliest first (ties: most seen, then key order).
    pub fn pattern_stats(&self) -> Vec<(PatternKey, u64, u64)> {
        let mut out: Vec<(PatternKey, u64, u64)> = self
            .patterns
            .read()
            .iter()
            .map(|(k, p)| {
                (k.clone(), p.count.load(Ordering::Relaxed), p.nanos.load(Ordering::Relaxed))
            })
            .collect();
        out.sort_by(|a, b| {
            b.2.cmp(&a.2).then_with(|| b.1.cmp(&a.1)).then_with(|| a.0.cmp(&b.0))
        });
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
    pub fn workload_report(&self) -> WorkloadReport {
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
            if t.create_index(reldb::IndexDef {
                name,
                columns: s.columns.clone(),
                unique: false,
            })
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
pub fn ident(name: &str) -> String {
    if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

/// Build `SELECT <cols> FROM <table>` with optional WHERE conjuncts and an
/// optional aggregate projection. Conjuncts are strings already containing
/// `?` placeholders.
pub fn build_select(
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
pub fn in_list(col: &str, n: usize) -> String {
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
pub fn bucket_arity(n: usize) -> usize {
    if n <= 1 {
        1
    } else {
        n.next_power_of_two()
    }
}

/// Bucketed [`in_list`]: pads `params` in place up to the bucket arity by
/// repeating the last value (duplicates never change IN semantics) and
/// returns the conjunct for the padded arity. `params` must be non-empty.
pub fn in_list_bucketed(col: &str, params: &mut Vec<Value>) -> String {
    let n = params.len();
    debug_assert!(n > 0, "in_list_bucketed over empty params");
    let bucket = bucket_arity(n);
    if let Some(last) = params.last().cloned() {
        params.resize(bucket, last);
    }
    in_list(col, bucket)
}

/// Bucketed [`composite_in`]: pads `keys` in place up to the bucket count
/// by repeating the last key group (duplicate disjuncts are harmless) and
/// returns the conjunct for the padded count. `keys` must be non-empty.
pub fn composite_in_bucketed(cols: &[&str], keys: &mut Vec<Vec<Value>>) -> String {
    let n = keys.len();
    debug_assert!(n > 0, "composite_in_bucketed over empty keys");
    let bucket = bucket_arity(n);
    if let Some(last) = keys.last().cloned() {
        keys.resize(bucket, last);
    }
    composite_in(cols, bucket)
}

/// Build an OR-of-conjunctions conjunct for composite keys:
/// `((a = ? AND b = ?) OR (a = ? AND b = ?))` for `groups` keys over
/// `cols`.
pub fn composite_in(cols: &[&str], groups: usize) -> String {
    let one: String = cols
        .iter()
        .map(|c| format!("{} = ?", ident(c)))
        .collect::<Vec<_>>()
        .join(" AND ");
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
        assert_eq!(
            build_select("T", &["a".into(), "b".into()], &[], None),
            "SELECT a, b FROM T"
        );
        assert_eq!(
            build_select("T", &[], &["a = ?".into(), "b IN (?, ?)".into()], None),
            "SELECT * FROM T WHERE a = ? AND b IN (?, ?)"
        );
        assert_eq!(
            build_select("T", &[], &[], Some("COUNT(*)")),
            "SELECT COUNT(*) FROM T"
        );
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
        let sql = in_list_bucketed("x", &mut p);
        assert_eq!(sql, "x IN (?, ?, ?, ?)");
        assert_eq!(p, vec![Value::Bigint(1), Value::Bigint(2), Value::Bigint(3), Value::Bigint(3)]);

        // Arity 1 keeps the equality form, untouched params.
        let mut p1 = vec![Value::Bigint(7)];
        assert_eq!(in_list_bucketed("x", &mut p1), "x = ?");
        assert_eq!(p1, vec![Value::Bigint(7)]);

        // Composite keys pad whole key groups.
        let mut keys = vec![
            vec![Value::Bigint(1), Value::Bigint(2)],
            vec![Value::Bigint(3), Value::Bigint(4)],
            vec![Value::Bigint(5), Value::Bigint(6)],
        ];
        let sql = composite_in_bucketed(&["a", "b"], &mut keys);
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
        let sql = in_list_bucketed("id", &mut padded);
        let sql = format!("SELECT id FROM t WHERE {sql}");
        let rs = dialect.query_at(&Profiler::disabled(), &sql, &padded, None, None).unwrap();
        assert_eq!(rs.rows.len(), 3);
    }

    #[test]
    fn template_cache_cap_evicts_oldest() {
        let db = db_with_table();
        let dialect = SqlDialect { template_cap: 3, pattern_cap: 2, ..dialect(db, 16) };
        for i in 0..5 {
            let sql = format!("SELECT id FROM t WHERE id = {i}");
            dialect.query_at(&Profiler::disabled(), &sql, &[], None, None).unwrap();
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
        dialect
            .query_at(&Profiler::disabled(), "SELECT id FROM t WHERE id = 0", &[], None, None)
            .unwrap();
        assert_eq!(dialect.template_count(), 3);
    }

    #[test]
    fn pattern_tracker_cap_evicts_least_seen() {
        let db = db_with_table();
        let dialect = SqlDialect { template_cap: 64, pattern_cap: 2, ..dialect(db, 2) };
        let run = |cols: &[&str]| {
            let cols: Vec<String> = cols.iter().map(|c| c.to_string()).collect();
            dialect
                .query_at(
                    &Profiler::disabled(),
                    "SELECT id FROM t",
                    &[],
                    Some(("t", &cols)),
                    None,
                )
                .unwrap();
        };
        // "src" recurs; "name" is seen once; a third pattern evicts the
        // least-seen one ("name"), keeping the recurring pattern alive.
        run(&["src"]);
        run(&["src"]);
        run(&["src"]);
        run(&["name"]);
        run(&["id"]);
        let frequent = dialect.frequent_patterns();
        assert!(
            frequent.iter().any(|((t, c), n)| t == "t" && c == &vec!["src".to_string()] && *n >= 3),
            "{frequent:?}"
        );
        let snap = dialect.registry().snapshot();
        assert_eq!(snap.pattern_evictions, 1);
    }

    #[test]
    fn template_cache_hits() {
        let db = db_with_table();
        let dialect = dialect(db, 16);
        let sql = "SELECT name FROM t WHERE id = ?";
        let query = |id| dialect.query_at(&Profiler::disabled(), sql, &[id], None, None).unwrap();
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
            dialect
                .query_at(
                    &Profiler::disabled(),
                    "SELECT * FROM t WHERE src = ?",
                    &[Value::Bigint(i)],
                    Some(("t", &["src".to_string()])),
                    None,
                )
                .unwrap();
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
            dialect
                .query_at(
                    &Profiler::disabled(),
                    "SELECT * FROM t WHERE name = ?",
                    &[Value::Varchar(format!("n{i}"))],
                    Some(("t", &["name".to_string()])),
                    None,
                )
                .unwrap();
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
            dialect
                .query_at(
                    &Profiler::disabled(),
                    "SELECT * FROM t WHERE src = ?",
                    &[Value::Bigint(0)],
                    Some(("t", &["src".to_string()])),
                    None,
                )
                .unwrap();
        }
        assert!(dialect.frequent_patterns().is_empty());
        assert!(dialect.suggested_indexes().is_empty());
    }

    #[test]
    fn indexed_patterns_not_resuggested() {
        let db = db_with_table();
        let dialect = dialect(db, 1);
        dialect
            .query_at(
                &Profiler::disabled(),
                "SELECT * FROM t WHERE id = ?",
                &[Value::Bigint(0)],
                Some(("t", &["id".to_string()])),
                None,
            )
            .unwrap();
        // id is the PK — already indexed, so nothing to suggest.
        assert!(dialect.suggested_indexes().is_empty());
    }
}
