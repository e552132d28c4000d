//! Query execution.
//!
//! A SELECT over one base table — every statement the graph overlay sends
//! except the Section 4 `graphQuery` join — runs as one pull pipeline under
//! the table's read guard:
//!
//! 1. the planner's access path yields the rows visible to the statement's
//!    [`ReadView`], borrowed;
//! 2. the WHERE clause, compiled once against table ordinals, filters them
//!    before anything is cloned. Conjuncts an index probe answered are
//!    re-checked too: a slot stays posted under the keys of its older
//!    versions, so the visible version may not match the probed key
//!    (docs/CONSISTENCY.md);
//! 3. a sink clones only the output columns of the surviving rows, or folds
//!    them straight into aggregate accumulators. A LIMIT that no ORDER BY,
//!    DISTINCT or aggregate precedes stops the scan.
//!
//! Statements with joins, several FROM items, a view or a subquery
//! materialize relations. The first base table is read by the same scan,
//! and the WHERE conjuncts that name only its columns and cannot raise an
//! error run before a row is cloned; the whole WHERE then runs on the
//! joined rows. Joins are hash joins on equi-keys, falling back to nested
//! loops, and the joined rows feed the same sinks.
//!
//! One shape reads less: a base table and a table function or subquery as
//! the only two FROM items, linked by a WHERE equi-conjunct — the Section 4
//! `graphQuery` join. The other side runs first, and the table is read
//! through its distinct join keys (an index probe when the column is
//! indexed) instead of in full; the hash join then runs as above on the
//! same pairs, in the same order ([`KeyedJoin`]). Other join shapes still
//! build from full rows.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::sync::Arc;

use crate::db::Database;
use crate::error::{DbError, DbResult};
use crate::index::RowId;
use crate::row::{Row, RowSet};
use crate::schema::TableSchema;
use crate::sql::ast::*;
use crate::sql::eval::{
    binary, compile, eval, resolve_column, truth, unary, ColRef, Compiled, RowEnv,
};
use crate::sql::planner::{
    as_simple_pred, choose_access_path, split_conjuncts, AccessPath, SimplePred,
};
use crate::storage::{ReadView, Table, TableData};
use crate::value::Value;

/// An intermediate relation: qualified columns plus materialized rows.
struct Relation {
    cols: Vec<ColRef>,
    rows: Vec<Row>,
}

/// A base table's columns, every one qualified by the table's binding.
pub(crate) fn table_cols(binding: &str, schema: &TableSchema) -> Vec<ColRef> {
    schema.columns.iter().map(|c| ColRef::new(Some(binding), &c.name)).collect()
}

/// Execute a SELECT statement to completion. All table reads — including
/// those inside views, subqueries, and joins — go through `view`, so a
/// snapshot-pinned query can never mix two committed states.
pub(crate) fn execute_select(
    db: &Database,
    stmt: &SelectStmt,
    view: &ReadView,
) -> DbResult<RowSet> {
    // FROM-less SELECT: evaluate items once against an empty row.
    if stmt.from.is_empty() {
        let cols: Vec<ColRef> = Vec::new();
        let row: Row = Vec::new();
        let env = RowEnv { cols: &cols, row: &row };
        let mut names = Vec::new();
        let mut out = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Expr { expr, alias } => {
                    names.push(output_name(expr, alias, i));
                    out.push(eval(expr, &env)?);
                }
                _ => return Err(DbError::Execution("SELECT * requires FROM".into())),
            }
        }
        return Ok(RowSet::with_rows(names, vec![out]));
    }

    if let Some((table, binding)) = single_table(db, stmt) {
        let cols = table_cols(binding, &table.schema);
        let filter = stmt.where_clause.as_ref().map(|w| compile(w, &cols));
        let mut sink = Sink::new(stmt, &cols)?;
        if !sink.full() {
            let pushdown = stmt.where_clause.as_ref();
            scan(db, &table, binding, pushdown, filter.as_ref(), view, |_, row| sink.push(row))?;
        }
        return sink.finish(&cols);
    }

    let rel = build_from(db, stmt, view)?;
    let filter = stmt.where_clause.as_ref().map(|w| compile(w, &rel.cols));
    let mut sink = Sink::new(stmt, &rel.cols)?;
    if !sink.full() {
        let rows = rel.rows.iter().enumerate();
        drain(rows, filter.as_ref(), &mut 0, &mut |_, row| sink.push(row))?;
    }
    sink.finish(&rel.cols)
}

/// The base table a SELECT reads when that table is its only source.
fn single_table<'s>(db: &Database, stmt: &'s SelectStmt) -> Option<(Arc<Table>, &'s str)> {
    match stmt.from.as_slice() {
        [FromItem { source: source @ TableSource::Named { name, .. }, joins }]
            if joins.is_empty() =>
        {
            Some((db.get_table(name)?, source.binding_name()))
        }
        _ => None,
    }
}

/// Whether LIMIT can stop reading input: nothing before it needs every row.
fn limit_stops_early(stmt: &SelectStmt) -> bool {
    stmt.order_by.is_empty() && !stmt.distinct && !is_aggregate_query(stmt)
}

/// Render the plan that `execute_select` would use, for EXPLAIN.
pub(crate) fn explain_select(db: &Database, stmt: &SelectStmt) -> DbResult<Vec<String>> {
    let mut lines = Vec::new();
    let single = single_table(db, stmt);
    if let Some((table, binding)) = &single {
        let preds = collect_simple_preds(table, binding, stmt.where_clause.as_ref());
        let (path, used) = choose_access_path(&table.read(), &preds);
        lines.push(path.describe(&table.schema.name));
        let conjuncts = stmt.where_clause.as_ref().map_or(0, |w| split_conjuncts(w).len());
        if conjuncts > used {
            lines.push("FILTER".to_string());
        }
    } else if let Some(keyed) = keyed_join(db, stmt) {
        lines.push(describe_source(db, keyed.other, None)?);
        lines.push(keyed.describe(stmt));
        lines.push("CROSS/HASH COMBINE".to_string());
        lines.push("FILTER".to_string());
    } else {
        for (i, fi) in stmt.from.iter().enumerate() {
            let pushdown = if i == 0 { stmt.where_clause.as_ref() } else { None };
            lines.push(describe_source(db, &fi.source, pushdown)?);
            for j in &fi.joins {
                let kind =
                    if equi_pairs_possible(&j.on) { "HASH-JOIN" } else { "NESTED-LOOP-JOIN" };
                lines.push(format!("{kind} {}", describe_source(db, &j.source, None)?));
            }
            if i + 1 < stmt.from.len() {
                lines.push("CROSS/HASH COMBINE".to_string());
            }
        }
        if stmt.where_clause.is_some() {
            lines.push("FILTER".to_string());
        }
    }
    if is_aggregate_query(stmt) {
        lines.push(format!("AGGREGATE ({} group keys)", stmt.group_by.len()));
    }
    if stmt.distinct {
        lines.push("DISTINCT".to_string());
    }
    if !stmt.order_by.is_empty() {
        lines.push(format!("SORT ({} keys)", stmt.order_by.len()));
    }
    if let Some(n) = stmt.limit {
        if single.is_some() && limit_stops_early(stmt) {
            lines.push(format!("LIMIT {n} (stops scan)"));
        } else {
            lines.push(format!("LIMIT {n}"));
        }
    }
    Ok(lines)
}

fn equi_pairs_possible(on: &Expr) -> bool {
    split_conjuncts(on).iter().any(|c| {
        matches!(
            c,
            Expr::Binary { op: BinOp::Eq, left, right }
                if matches!(**left, Expr::Column { .. }) && matches!(**right, Expr::Column { .. })
        )
    })
}

fn describe_source(
    db: &Database,
    source: &TableSource,
    pushdown: Option<&Expr>,
) -> DbResult<String> {
    match source {
        TableSource::Named { name, .. } => {
            if let Some(table) = db.get_table(name) {
                let binding = source.binding_name().to_string();
                let preds = collect_simple_preds(&table, &binding, pushdown);
                let (path, _) = choose_access_path(&table.read(), &preds);
                Ok(path.describe(&table.schema.name))
            } else if db.get_view(name).is_some() {
                Ok(format!("VIEW {name}"))
            } else {
                Err(DbError::Catalog(format!("table or view '{name}' not found")))
            }
        }
        TableSource::Function { name, .. } => Ok(format!("TABLE-FUNCTION {name}")),
        TableSource::Subquery { alias, .. } => Ok(format!("SUBQUERY {alias}")),
    }
}

// ------------------------------------------------------------------- scan

fn collect_simple_preds(table: &Table, binding: &str, pushdown: Option<&Expr>) -> Vec<SimplePred> {
    let mut preds = Vec::new();
    if let Some(w) = pushdown {
        let has_column = |c: &str| table.schema.column_index(c).is_some();
        for conj in split_conjuncts(w) {
            if let Some(p) = as_simple_pred(conj, binding, &has_column) {
                preds.push(p);
            }
        }
    }
    preds
}

/// Drive the rows of `table` visible to `view` that pass `filter` into
/// `sink`, borrowed under the table's read guard. The access path is the
/// planner's choice over the simple conjuncts of `pushdown`; `sink` returns
/// `Break` to stop the scan. Only the rows pulled count as read.
fn scan(
    db: &Database,
    table: &Table,
    binding: &str,
    pushdown: Option<&Expr>,
    filter: Option<&Compiled<'_>>,
    view: &ReadView,
    mut sink: impl FnMut(RowId, &Row) -> DbResult<ControlFlow<()>>,
) -> DbResult<()> {
    let preds = collect_simple_preds(table, binding, pushdown);
    let guard = table.read();
    let probed = match choose_access_path(&guard, &preds).0 {
        AccessPath::FullScan => None,
        AccessPath::IndexEq { index, key } => {
            Some((1, Cow::Borrowed(find_index(&guard, &index)?.lookup_eq(&key))))
        }
        AccessPath::IndexIn { index, keys } => {
            let (rids, probes) = find_index(&guard, &index)?.lookup_in(&keys);
            Some((probes, Cow::Owned(dedup_rids(rids))))
        }
        AccessPath::IndexRange { index, low, high } => {
            let ix = find_index(&guard, &index)?;
            Some((1, Cow::Owned(dedup_rids(ix.lookup_range(low.as_ref(), high.as_ref())))))
        }
    };
    let mut read = 0;
    let result = match probed {
        None => {
            db.metrics().full_scans.add(1);
            db.metrics().full_scan_rows.add(guard.len() as u64);
            drain(guard.iter_at(*view), filter, &mut read, &mut sink)
        }
        Some((probes, rids)) => {
            db.metrics().index_probes.add(probes as u64);
            let visible = rids.iter().filter_map(|&rid| guard.row_at(rid, view).map(|r| (rid, r)));
            drain(visible, filter, &mut read, &mut sink)
        }
    };
    db.metrics().rows_read.add(read);
    result
}

/// Pull rows until `sink` breaks, passing on those that satisfy `filter`.
fn drain<'r>(
    rows: impl Iterator<Item = (RowId, &'r Row)>,
    filter: Option<&Compiled<'_>>,
    read: &mut u64,
    sink: &mut impl FnMut(RowId, &Row) -> DbResult<ControlFlow<()>>,
) -> DbResult<()> {
    for (rid, row) in rows {
        *read += 1;
        if let Some(f) = filter {
            if !f.test(row)? {
                continue;
            }
        }
        if sink(rid, row)?.is_break() {
            break;
        }
    }
    Ok(())
}

fn find_index<'a>(data: &'a TableData, name: &str) -> DbResult<&'a crate::index::Index> {
    data.indexes()
        .iter()
        .find(|ix| ix.def.name == name)
        .ok_or_else(|| DbError::Execution(format!("index '{name}' vanished during execution")))
}

/// Under versioned storage one row slot can be posted under several keys
/// (one per version), so multi-key probes must dedup rids before visibility
/// filtering or a row would be returned once per matching key.
fn dedup_rids(rids: Vec<RowId>) -> Vec<RowId> {
    let mut seen: HashSet<RowId> = HashSet::with_capacity(rids.len());
    rids.into_iter().filter(|r| seen.insert(*r)).collect()
}

/// The rows of `table` visible to `view` that satisfy `where_clause`, with
/// their ids: what UPDATE and DELETE act on.
pub(crate) fn matching_rows(
    db: &Database,
    table: &Table,
    where_clause: Option<&Expr>,
    view: &ReadView,
) -> DbResult<Vec<(RowId, Row)>> {
    let binding = table.schema.name.as_str();
    let cols = table_cols(binding, &table.schema);
    let filter = where_clause.map(|w| compile(w, &cols));
    let mut out = Vec::new();
    scan(db, table, binding, where_clause, filter.as_ref(), view, |rid, row| {
        out.push((rid, row.clone()));
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(out)
}

// ------------------------------------------------------------------- FROM

fn build_from(db: &Database, stmt: &SelectStmt, view: &ReadView) -> DbResult<Relation> {
    if let Some(keyed) = keyed_join(db, stmt) {
        return keyed.execute(db, stmt, view);
    }
    let mut rel: Option<Relation> = None;
    for (idx, fi) in stmt.from.iter().enumerate() {
        // WHERE conjuncts that reference only the first source can be
        // evaluated during its scan (index probes, filtering before the
        // clone); the full WHERE is re-applied afterwards. Safe under INNER
        // and LEFT joins alike because the first source is never
        // null-extended.
        let pushdown = if idx == 0 { stmt.where_clause.as_ref() } else { None };
        let mut r = resolve_source(db, &fi.source, pushdown, view)?;
        for join in &fi.joins {
            r = apply_join(db, r, join, view)?;
        }
        rel = Some(match rel {
            None => r,
            Some(prev) => combine(prev, r, stmt.where_clause.as_ref())?,
        });
    }
    Ok(rel.expect("FROM has at least one source"))
}

/// Read a base table into a relation. Before it clones a row, the scan
/// applies the conjuncts of `pushdown` that [cannot fail](cannot_fail) and
/// whose every column is qualified with this table's binding: those cannot
/// name another source's column.
fn read_table(
    db: &Database,
    table: &Table,
    binding: &str,
    pushdown: Option<&Expr>,
    view: &ReadView,
) -> DbResult<Relation> {
    let mut rows = Vec::new();
    let cols = read_rows(db, table, binding, pushdown, view, |_, row| rows.push(row.clone()))?;
    Ok(Relation { cols, rows })
}

/// [`read_table`]'s scan: hands each row that passes the pushed filter to
/// `keep`, and returns the table's columns.
fn read_rows(
    db: &Database,
    table: &Table,
    binding: &str,
    pushdown: Option<&Expr>,
    view: &ReadView,
    mut keep: impl FnMut(RowId, &Row),
) -> DbResult<Vec<ColRef>> {
    let cols = table_cols(binding, &table.schema);
    let names_only_this_table = |conj: &Expr| {
        let (mut refs, mut mine) = (0, 0);
        conj.walk(&mut |e| {
            if let Expr::Column { qualifier, name } = e {
                refs += 1;
                let qualified = qualifier.as_ref().is_some_and(|q| q.eq_ignore_ascii_case(binding));
                mine += usize::from(qualified && table.schema.column_index(name).is_some());
            }
        });
        refs > 0 && refs == mine
    };
    let filter = pushdown
        .iter()
        .flat_map(|w| split_conjuncts(w))
        .filter(|c| cannot_fail(c) && names_only_this_table(c))
        .map(|c| compile(c, &cols))
        .reduce(|a, b| Compiled::Binary(BinOp::And, Box::new(a), Box::new(b)));
    scan(db, table, binding, pushdown, filter.as_ref(), view, |rid, row| {
        keep(rid, row);
        Ok(ControlFlow::Continue(()))
    })?;
    Ok(cols)
}

/// Whether evaluating `e` never raises an error: columns, literals, and
/// comparisons, IN lists, IS NULL, AND and OR over those. A pushed-down
/// conjunct is evaluated on rows that may never join, so a conjunct that
/// can fail (arithmetic, a function, LIKE, NOT) waits for the joined rows.
fn cannot_fail(e: &Expr) -> bool {
    match e {
        Expr::Column { .. } | Expr::Literal(_) => true,
        Expr::Binary { op, left, right } => {
            let predicate = matches!(
                op,
                BinOp::And
                    | BinOp::Or
                    | BinOp::Eq
                    | BinOp::NotEq
                    | BinOp::Lt
                    | BinOp::LtEq
                    | BinOp::Gt
                    | BinOp::GtEq
            );
            predicate && cannot_fail(left) && cannot_fail(right)
        }
        Expr::InList { expr, list, .. } => cannot_fail(expr) && list.iter().all(cannot_fail),
        Expr::IsNull { expr, .. } => cannot_fail(expr),
        _ => false,
    }
}

fn resolve_source(
    db: &Database,
    source: &TableSource,
    pushdown: Option<&Expr>,
    view: &ReadView,
) -> DbResult<Relation> {
    match source {
        TableSource::Named { name, .. } => {
            let binding = source.binding_name().to_string();
            if let Some(table) = db.get_table(name) {
                return read_table(db, &table, &binding, pushdown, view);
            }
            if let Some(vdef) = db.get_view(name) {
                let query = push_into_view(&vdef.query, &binding, pushdown);
                let rs = execute_select(db, &query, view)?;
                return Ok(relabel(rs, &binding));
            }
            Err(DbError::Catalog(format!("table or view '{name}' not found")))
        }
        TableSource::Function { name, args, alias, columns } => {
            let func = db
                .get_function(name)
                .ok_or_else(|| DbError::Catalog(format!("table function '{name}' not found")))?;
            let empty_cols: Vec<ColRef> = Vec::new();
            let empty_row: Row = Vec::new();
            let env = RowEnv { cols: &empty_cols, row: &empty_row };
            let arg_vals: Vec<Value> =
                args.iter().map(|a| eval(a, &env)).collect::<DbResult<_>>()?;
            let rs = func.eval(&arg_vals, columns)?;
            if rs.columns.len() != columns.len() {
                return Err(DbError::Type(format!(
                    "table function '{name}' returned {} columns, declaration has {}",
                    rs.columns.len(),
                    columns.len()
                )));
            }
            let mut rows = Vec::with_capacity(rs.rows.len());
            for row in rs.rows {
                let mut out = Vec::with_capacity(row.len());
                for (v, (cname, ty)) in row.into_iter().zip(columns) {
                    out.push(v.coerce_to(*ty).map_err(|e| {
                        DbError::Type(format!("table function '{name}' column '{cname}': {e}"))
                    })?);
                }
                rows.push(out);
            }
            Ok(Relation {
                cols: columns.iter().map(|(n, _)| ColRef::new(Some(alias), n)).collect(),
                rows,
            })
        }
        TableSource::Subquery { query, alias } => {
            let rs = execute_select(db, query, view)?;
            Ok(relabel(rs, alias))
        }
    }
}

fn relabel(rs: RowSet, binding: &str) -> Relation {
    Relation {
        cols: rs.columns.iter().map(|c| ColRef::new(Some(binding), c)).collect(),
        rows: rs.rows,
    }
}

/// Push applicable outer conjuncts into a view's query so its own planning
/// can use indexes. Only conjuncts over simple passthrough columns of a
/// plain (non-aggregating, non-distinct, non-limited) view are pushed.
fn push_into_view(view_query: &SelectStmt, binding: &str, pushdown: Option<&Expr>) -> SelectStmt {
    let mut query = view_query.clone();
    let Some(outer) = pushdown else { return query };
    if !query.group_by.is_empty()
        || query.distinct
        || query.limit.is_some()
        || query
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
    {
        return query;
    }
    // Map of output column name -> inner column expression.
    let mut mapping: HashMap<String, Expr> = HashMap::new();
    for item in &query.items {
        if let SelectItem::Expr { expr: inner @ Expr::Column { name, .. }, alias } = item {
            let out_name = alias.clone().unwrap_or_else(|| name.clone());
            mapping.insert(out_name.to_ascii_lowercase(), inner.clone());
        }
    }
    if mapping.is_empty() {
        return query;
    }
    let mut pushed: Option<Expr> = None;
    for conj in split_conjuncts(outer) {
        if let Some(rewritten) = rewrite_for_view(conj, binding, &mapping) {
            pushed = Some(match pushed {
                None => rewritten,
                Some(p) => p.and(rewritten),
            });
        }
    }
    if let Some(p) = pushed {
        query.where_clause = Some(match query.where_clause.take() {
            None => p,
            Some(w) => w.and(p),
        });
    }
    query
}

/// Rewrite a conjunct replacing outer column references (which must all
/// refer to `binding`) with the view's inner expressions. Returns None when
/// any part cannot be rewritten.
fn rewrite_for_view(expr: &Expr, binding: &str, mapping: &HashMap<String, Expr>) -> Option<Expr> {
    match expr {
        Expr::Column { qualifier, name } => {
            let qual_ok =
                qualifier.as_ref().map(|q| q.eq_ignore_ascii_case(binding)).unwrap_or(true);
            if !qual_ok {
                return None;
            }
            mapping.get(&name.to_ascii_lowercase()).cloned()
        }
        Expr::Literal(_) => Some(expr.clone()),
        Expr::Binary { op, left, right }
            if matches!(
                op,
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq
            ) =>
        {
            Some(Expr::Binary {
                op: *op,
                left: Box::new(rewrite_for_view(left, binding, mapping)?),
                right: Box::new(rewrite_for_view(right, binding, mapping)?),
            })
        }
        Expr::InList { expr, list, negated: false } => {
            let inner = rewrite_for_view(expr, binding, mapping)?;
            let list: Option<Vec<Expr>> = list
                .iter()
                .map(|e| if matches!(e, Expr::Literal(_)) { Some(e.clone()) } else { None })
                .collect();
            Some(Expr::InList { expr: Box::new(inner), list: list?, negated: false })
        }
        _ => None,
    }
}

// ------------------------------------------------------------- keyed join

/// A FROM list of exactly one base table and one table function or
/// subquery, with no JOIN chains, that a WHERE equi-conjunct links: the
/// Section 4 shape, a table joined to `graphQuery`. The other source runs
/// first, and the table is read through the distinct non-NULL values of
/// its join key: `c IN (keys)` joins the table's pushdown, so an index on
/// `c` probes them, and the pushed filter re-checks the IN on each visible
/// version before a row is cloned. The hash join then runs as for any two
/// FROM items and sees the same pairs: it matches a row only on a key
/// equal to one of those values, under the `total_cmp` equality that
/// `Value`'s `Eq`/`Hash` and the index share (`2 = 2.0`; NULL never
/// joins).
///
/// Only a read that would otherwise be a full scan is reduced, and its
/// rows are handed on in RowId order, the full scan's order, so the result
/// keeps its rows and their order. Views, LEFT JOINs and a key set larger
/// than the table are left to the plain path.
struct KeyedJoin<'s> {
    table: Arc<Table>,
    binding: &'s str,
    /// The table comes first in FROM, so its read takes the WHERE pushdown.
    table_first: bool,
    other: &'s TableSource,
    /// The join column's ordinal in the table, and its partner's in the
    /// other source's columns.
    column: usize,
    key: usize,
    other_cols: Vec<ColRef>,
}

/// The [`KeyedJoin`] plan of `stmt`, when it has that shape.
fn keyed_join<'s>(db: &Database, stmt: &'s SelectStmt) -> Option<KeyedJoin<'s>> {
    let [a, b] = stmt.from.as_slice() else { return None };
    if !a.joins.is_empty() || !b.joins.is_empty() {
        return None;
    }
    let named = |s: &TableSource| matches!(s, TableSource::Named { .. });
    let (source, other, table_first) = match (named(&a.source), named(&b.source)) {
        (true, false) => (&a.source, &b.source, true),
        (false, true) => (&b.source, &a.source, false),
        _ => return None,
    };
    let TableSource::Named { name, .. } = source else { return None };
    let table = db.get_table(name)?;
    let binding = source.binding_name();
    let where_clause = stmt.where_clause.as_ref()?;
    let cols = table_cols(binding, &table.schema);
    let other_cols = static_cols(db, other)?;
    let (column, key) = split_conjuncts(where_clause).into_iter().find_map(|conj| {
        let Expr::Binary { op: BinOp::Eq, left, right } = conj else { return None };
        let (Expr::Column { qualifier: qa, name: na }, Expr::Column { qualifier: qb, name: nb }) =
            (left.as_ref(), right.as_ref())
        else {
            return None;
        };
        let link = |(tq, tn), (oq, on)| {
            Some((resolve_column(&cols, tq, tn).ok()?, resolve_column(&other_cols, oq, on).ok()?))
        };
        link((qa, na), (qb, nb)).or_else(|| link((qb, nb), (qa, na)))
    })?;
    let pushdown = Some(where_clause).filter(|_| table_first);
    let preds = collect_simple_preds(&table, binding, pushdown);
    if !matches!(choose_access_path(&table.read(), &preds).0, AccessPath::FullScan) {
        return None;
    }
    Some(KeyedJoin { table, binding, table_first, other, column, key, other_cols })
}

/// The columns a table function or subquery yields, known without running
/// it: a function's declared list, or a subquery's items with `*` over its
/// one base table expanded. `None` for any other source.
fn static_cols(db: &Database, source: &TableSource) -> Option<Vec<ColRef>> {
    let (names, alias) = match source {
        TableSource::Function { columns, alias, .. } => {
            (columns.iter().map(|(n, _)| n.clone()).collect(), alias)
        }
        TableSource::Subquery { query, alias } => {
            let mut names = Vec::new();
            for (i, item) in query.items.iter().enumerate() {
                match item {
                    SelectItem::Expr { expr, alias } => names.push(output_name(expr, alias, i)),
                    SelectItem::Wildcard => {
                        let (table, _) = single_table(db, query)?;
                        names.extend(table.schema.columns.iter().map(|c| c.name.clone()));
                    }
                    SelectItem::QualifiedWildcard(_) => return None,
                }
            }
            (names, alias)
        }
        TableSource::Named { .. } => return None,
    };
    Some(names.iter().map(|n| ColRef::new(Some(alias), n)).collect())
}

impl KeyedJoin<'_> {
    fn pushdown<'e>(&self, stmt: &'e SelectStmt) -> Option<&'e Expr> {
        stmt.where_clause.as_ref().filter(|_| self.table_first)
    }

    fn execute(&self, db: &Database, stmt: &SelectStmt, view: &ReadView) -> DbResult<Relation> {
        let other = resolve_source(db, self.other, None, view)?;
        let mut keys: Vec<&Value> =
            other.rows.iter().map(|row| &row[self.key]).filter(|v| !v.is_null()).collect();
        keys.sort_unstable();
        keys.dedup();
        let pushdown = self.pushdown(stmt);
        let table = if keys.len() > self.table.read().len() {
            read_table(db, &self.table, self.binding, pushdown, view)?
        } else {
            let keys = keys.into_iter().cloned().collect();
            self.read_keyed(db, keys, pushdown, view)?
        };
        let (left, right) = if self.table_first { (table, other) } else { (other, table) };
        combine(left, right, stmt.where_clause.as_ref())
    }

    /// The table's rows whose join column holds one of `keys`, in RowId
    /// order.
    fn read_keyed(
        &self,
        db: &Database,
        keys: Vec<Value>,
        pushdown: Option<&Expr>,
        view: &ReadView,
    ) -> DbResult<Relation> {
        if keys.is_empty() {
            let cols = table_cols(self.binding, &self.table.schema);
            return Ok(Relation { cols, rows: Vec::new() });
        }
        let column = Expr::Column {
            qualifier: Some(self.binding.to_string()),
            name: self.table.schema.columns[self.column].name.clone(),
        };
        let in_keys = Expr::InList {
            expr: Box::new(column),
            list: keys.into_iter().map(Expr::Literal).collect(),
            negated: false,
        };
        let pushdown = match pushdown {
            Some(w) => w.clone().and(in_keys),
            None => in_keys,
        };
        let mut found = Vec::new();
        let cols = read_rows(db, &self.table, self.binding, Some(&pushdown), view, |rid, row| {
            found.push((rid, row.clone()))
        })?;
        found.sort_unstable_by_key(|&(rid, _)| rid);
        Ok(Relation { cols, rows: found.into_iter().map(|(_, row)| row).collect() })
    }

    /// EXPLAIN's line for the table's read: the access path over the join
    /// keys, which are known only once the other source has run.
    fn describe(&self, stmt: &SelectStmt) -> String {
        let schema = &self.table.schema;
        let mut preds = collect_simple_preds(&self.table, self.binding, self.pushdown(stmt));
        preds.push(SimplePred::In(schema.columns[self.column].name.clone(), Vec::new()));
        let path = match choose_access_path(&self.table.read(), &preds).0 {
            AccessPath::IndexIn { index, .. } => format!("INDEX-IN {} via {index}", schema.name),
            other => other.describe(&schema.name),
        };
        let key = &self.other_cols[self.key];
        let qualifier = key.qualifier.as_deref().unwrap_or_default();
        format!("{path} (join keys of {qualifier}.{})", key.name)
    }
}

// ------------------------------------------------------------------- joins

fn apply_join(db: &Database, left: Relation, join: &Join, view: &ReadView) -> DbResult<Relation> {
    let right = resolve_source(db, &join.source, None, view)?;
    join_relations(left, right, &join.on, join.left_outer)
}

fn join_relations(
    left: Relation,
    right: Relation,
    on: &Expr,
    left_outer: bool,
) -> DbResult<Relation> {
    let combined_cols: Vec<ColRef> = left.cols.iter().chain(right.cols.iter()).cloned().collect();

    // Find equi-join key pairs resolvable on opposite sides.
    let (lcols, rcols) = (left.cols.as_slice(), right.cols.as_slice());
    let mut left_keys: Vec<usize> = Vec::new();
    let mut right_keys: Vec<usize> = Vec::new();
    for conj in split_conjuncts(on) {
        if let Expr::Binary { op: BinOp::Eq, left: a, right: b } = conj {
            if let (
                Expr::Column { qualifier: qa, name: na },
                Expr::Column { qualifier: qb, name: nb },
            ) = (a.as_ref(), b.as_ref())
            {
                if let (Ok(li), Ok(ri)) =
                    (resolve_column(lcols, qa, na), resolve_column(rcols, qb, nb))
                {
                    left_keys.push(li);
                    right_keys.push(ri);
                } else if let (Ok(li), Ok(ri)) =
                    (resolve_column(lcols, qb, nb), resolve_column(rcols, qa, na))
                {
                    left_keys.push(li);
                    right_keys.push(ri);
                }
            }
        }
    }
    let on = compile(on, &combined_cols);

    let mut out_rows: Vec<Row> = Vec::new();
    let null_right: Row = vec![Value::Null; right.cols.len()];

    if !left_keys.is_empty() {
        // Hash join.
        let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right.rows.len());
        for (i, row) in right.rows.iter().enumerate() {
            let key: Vec<Value> = right_keys.iter().map(|&k| row[k].clone()).collect();
            if key.iter().any(Value::is_null) {
                continue;
            }
            table.entry(key).or_default().push(i);
        }
        for lrow in &left.rows {
            let key: Vec<Value> = left_keys.iter().map(|&k| lrow[k].clone()).collect();
            let mut matched = false;
            if !key.iter().any(Value::is_null) {
                if let Some(cands) = table.get(&key) {
                    for &ri in cands {
                        let mut combined = lrow.clone();
                        combined.extend_from_slice(&right.rows[ri]);
                        if on.test(&combined)? {
                            out_rows.push(combined);
                            matched = true;
                        }
                    }
                }
            }
            if left_outer && !matched {
                let mut combined = lrow.clone();
                combined.extend_from_slice(&null_right);
                out_rows.push(combined);
            }
        }
    } else {
        // Nested loop.
        for lrow in &left.rows {
            let mut matched = false;
            for rrow in &right.rows {
                let mut combined = lrow.clone();
                combined.extend_from_slice(rrow);
                if on.test(&combined)? {
                    out_rows.push(combined);
                    matched = true;
                }
            }
            if left_outer && !matched {
                let mut combined = lrow.clone();
                combined.extend_from_slice(&null_right);
                out_rows.push(combined);
            }
        }
    }

    Ok(Relation { cols: combined_cols, rows: out_rows })
}

/// Combine two comma-separated FROM items. When WHERE contains an equi
/// condition linking them, perform a hash join on it instead of a cross
/// product (this is what makes the paper's Section 4 query — DeviceData
/// joined to a graphQuery table function — efficient).
fn combine(left: Relation, right: Relation, where_clause: Option<&Expr>) -> DbResult<Relation> {
    if let Some(w) = where_clause {
        // Build a synthetic ON from linking equi-conjuncts.
        let mut on: Option<Expr> = None;
        for conj in split_conjuncts(w) {
            if let Expr::Binary { op: BinOp::Eq, left: a, right: b } = conj {
                if let (
                    Expr::Column { qualifier: qa, name: na },
                    Expr::Column { qualifier: qb, name: nb },
                ) = (a.as_ref(), b.as_ref())
                {
                    let (l, r) = (left.cols.as_slice(), right.cols.as_slice());
                    let resolves = |cols, q, n| resolve_column(cols, q, n).is_ok();
                    let crosses = (resolves(l, qa, na) && resolves(r, qb, nb))
                        || (resolves(l, qb, nb) && resolves(r, qa, na));
                    if crosses {
                        on = Some(match on {
                            None => (*conj).clone(),
                            Some(p) => p.and((*conj).clone()),
                        });
                    }
                }
            }
        }
        if let Some(on) = on {
            return join_relations(left, right, &on, false);
        }
    }
    // Plain cross product.
    let combined_cols: Vec<ColRef> = left.cols.iter().chain(right.cols.iter()).cloned().collect();
    let mut rows = Vec::with_capacity(left.rows.len().saturating_mul(right.rows.len()));
    for l in &left.rows {
        for r in &right.rows {
            let mut combined = l.clone();
            combined.extend_from_slice(r);
            rows.push(combined);
        }
    }
    Ok(Relation { cols: combined_cols, rows })
}

// -------------------------------------------------------------------- sinks

/// Where the rows that pass WHERE go: projected output rows, or the
/// accumulators of an aggregate.
enum Sink<'a> {
    Project(Projector<'a>),
    Aggregate(Aggregator<'a>),
}

impl<'a> Sink<'a> {
    fn new(stmt: &'a SelectStmt, cols: &[ColRef]) -> DbResult<Sink<'a>> {
        Ok(if is_aggregate_query(stmt) {
            Sink::Aggregate(Aggregator::new(stmt, cols)?)
        } else {
            Sink::Project(Projector::new(stmt, cols))
        })
    }

    /// The sink takes no more rows: its early-stopping LIMIT is reached.
    fn full(&self) -> bool {
        matches!(self, Sink::Project(p) if p.stop_at.is_some_and(|n| p.rows.len() >= n))
    }

    fn push(&mut self, row: &[Value]) -> DbResult<ControlFlow<()>> {
        match self {
            Sink::Project(p) => p.push(row)?,
            Sink::Aggregate(a) => a.push(row)?,
        }
        Ok(if self.full() { ControlFlow::Break(()) } else { ControlFlow::Continue(()) })
    }

    fn finish(self, cols: &[ColRef]) -> DbResult<RowSet> {
        match self {
            Sink::Project(p) => finish(p.names, p.rows, p.keys, p.stmt),
            Sink::Aggregate(a) => a.finish(cols),
        }
    }
}

/// An ORDER BY key: an output column named by its alias, or an expression
/// over the input row.
enum OrderKey<'a> {
    Output(usize),
    Input(Compiled<'a>),
}

/// The sink of a plain SELECT: clones each output column of a passing row.
struct Projector<'a> {
    stmt: &'a SelectStmt,
    names: Vec<String>,
    items: Vec<Compiled<'a>>,
    order: Vec<OrderKey<'a>>,
    rows: Vec<Row>,
    keys: Vec<Vec<Value>>,
    /// The LIMIT, when it stops reading input.
    stop_at: Option<usize>,
}

impl<'a> Projector<'a> {
    fn new(stmt: &'a SelectStmt, cols: &[ColRef]) -> Projector<'a> {
        let mut names: Vec<String> = Vec::new();
        let mut items: Vec<Compiled<'a>> = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            let qualifier = match item {
                SelectItem::Wildcard => None,
                SelectItem::QualifiedWildcard(q) => Some(q),
                SelectItem::Expr { expr, alias } => {
                    names.push(output_name(expr, alias, i));
                    items.push(compile(expr, cols));
                    continue;
                }
            };
            for (c, col) in cols.iter().enumerate() {
                let cq = col.qualifier.as_deref();
                if qualifier.is_none_or(|q| cq.is_some_and(|cq| cq.eq_ignore_ascii_case(q))) {
                    names.push(col.name.clone());
                    items.push(Compiled::Col(c));
                }
            }
        }
        let order = stmt
            .order_by
            .iter()
            .map(|o| {
                if let Expr::Column { qualifier: None, name } = &o.expr {
                    if let Some(i) = names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
                        return OrderKey::Output(i);
                    }
                }
                OrderKey::Input(compile(&o.expr, cols))
            })
            .collect();
        let stop_at = stmt.limit.filter(|_| limit_stops_early(stmt)).map(|n| n as usize);
        Projector { stmt, names, items, order, rows: Vec::new(), keys: Vec::new(), stop_at }
    }

    fn push(&mut self, row: &[Value]) -> DbResult<()> {
        let out: Row =
            self.items.iter().map(|e| e.eval(row).map(Cow::into_owned)).collect::<DbResult<_>>()?;
        if !self.order.is_empty() {
            let keys = self
                .order
                .iter()
                .map(|k| match k {
                    OrderKey::Output(i) => Ok(out[*i].clone()),
                    OrderKey::Input(e) => e.eval(row).map(Cow::into_owned),
                })
                .collect::<DbResult<_>>()?;
            self.keys.push(keys);
        }
        self.rows.push(out);
        Ok(())
    }
}

// --------------------------------------------------------------- aggregate

fn is_aggregate_query(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt
            .items
            .iter()
            .any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr.contains_aggregate()))
        || stmt.having.as_ref().map(Expr::contains_aggregate).unwrap_or(false)
}

/// One aggregate accumulator.
#[derive(Debug, Clone)]
enum AggAcc {
    Count(i64),
    CountDistinct(HashSet<Value>),
    Sum { int: i64, float: f64, any_float: bool, count: u64 },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, count: u64 },
}

fn new_acc(name: &str, distinct: bool) -> DbResult<AggAcc> {
    Ok(match name.to_ascii_uppercase().as_str() {
        "COUNT" if distinct => AggAcc::CountDistinct(Default::default()),
        "COUNT" => AggAcc::Count(0),
        "SUM" => AggAcc::Sum { int: 0, float: 0.0, any_float: false, count: 0 },
        "MIN" => AggAcc::Min(None),
        "MAX" => AggAcc::Max(None),
        "AVG" => AggAcc::Avg { sum: 0.0, count: 0 },
        other => return Err(DbError::Unsupported(format!("aggregate '{other}'"))),
    })
}

/// Fold one input into an accumulator: `None` is `COUNT(*)`'s "the row
/// itself"; a value is cloned only when the accumulator keeps it.
fn acc_update(acc: &mut AggAcc, v: Option<&Value>) -> DbResult<()> {
    let Some(v) = v else {
        if let AggAcc::Count(n) = acc {
            *n += 1;
        }
        return Ok(());
    };
    if v.is_null() {
        return Ok(());
    }
    match acc {
        AggAcc::Count(n) => *n += 1,
        AggAcc::CountDistinct(set) => {
            if !set.contains(v) {
                set.insert(v.clone());
            }
        }
        AggAcc::Sum { int, float, any_float, count } => match v {
            Value::Bigint(x) => {
                *int += x;
                *float += *x as f64;
                *count += 1;
            }
            Value::Double(x) => {
                *float += x;
                *any_float = true;
                *count += 1;
            }
            other => return Err(DbError::Type(format!("SUM over non-numeric {other}"))),
        },
        AggAcc::Min(cur) => {
            if cur.as_ref().is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Less)) {
                *cur = Some(v.clone());
            }
        }
        AggAcc::Max(cur) => {
            if cur.as_ref().is_none_or(|c| v.sql_cmp(c) == Some(std::cmp::Ordering::Greater)) {
                *cur = Some(v.clone());
            }
        }
        AggAcc::Avg { sum, count } => {
            *sum += v.as_f64()?;
            *count += 1;
        }
    }
    Ok(())
}

fn acc_finish(acc: &AggAcc) -> Value {
    match acc {
        AggAcc::Count(n) => Value::Bigint(*n),
        AggAcc::CountDistinct(set) => Value::Bigint(set.len() as i64),
        AggAcc::Sum { int, float, any_float, count } => {
            if *count == 0 {
                Value::Null
            } else if *any_float {
                Value::Double(*float)
            } else {
                Value::Bigint(*int)
            }
        }
        AggAcc::Min(v) | AggAcc::Max(v) => v.clone().unwrap_or(Value::Null),
        AggAcc::Avg { sum, count } => {
            if *count == 0 {
                Value::Null
            } else {
                Value::Double(sum / *count as f64)
            }
        }
    }
}

/// Collect the distinct aggregate function expressions used by the query.
fn collect_agg_specs<'s>(stmt: &'s SelectStmt) -> Vec<&'s Expr> {
    let mut specs: Vec<&Expr> = Vec::new();
    let mut push = |e: &'s Expr| {
        e.walk(&mut |node| {
            if let Expr::Function { name, .. } = node {
                if is_aggregate_name(name) && !specs.contains(&node) {
                    specs.push(node);
                }
            }
        });
    };
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            push(expr);
        }
    }
    if let Some(h) = &stmt.having {
        push(h);
    }
    for o in &stmt.order_by {
        push(&o.expr);
    }
    specs
}

struct Group {
    key: Vec<Value>,
    /// The group's first row, against which non-aggregate expressions that
    /// are not group keys resolve (MySQL-style leniency).
    representative: Row,
    accs: Vec<AggAcc>,
}

/// The sink of an aggregating SELECT. Without GROUP BY every row folds
/// into the one global group, with no key to build or look up.
struct Aggregator<'a> {
    stmt: &'a SelectStmt,
    names: Vec<String>,
    /// The distinct aggregate calls, and each one's compiled argument
    /// (`None` for `*`).
    specs: Vec<&'a Expr>,
    args: Vec<Option<Compiled<'a>>>,
    /// Accumulators of a new group.
    fresh: Vec<AggAcc>,
    group_by: Vec<Compiled<'a>>,
    groups: Vec<Group>,
    lookup: HashMap<Vec<Value>, usize>,
}

impl<'a> Aggregator<'a> {
    fn new(stmt: &'a SelectStmt, cols: &[ColRef]) -> DbResult<Aggregator<'a>> {
        let mut names: Vec<String> = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            match item {
                SelectItem::Expr { expr, alias } => names.push(output_name(expr, alias, i)),
                _ => return Err(DbError::Unsupported("SELECT * together with aggregation".into())),
            }
        }
        let specs = collect_agg_specs(stmt);
        let mut args = Vec::with_capacity(specs.len());
        let mut fresh = Vec::with_capacity(specs.len());
        for spec in &specs {
            let Expr::Function { name, args: call_args, distinct, star } = spec else {
                unreachable!("collect_agg_specs yields function calls")
            };
            fresh.push(new_acc(name, *distinct)?);
            args.push(match call_args.first() {
                _ if *star => None,
                Some(arg) => Some(compile(arg, cols)),
                None => {
                    Some(Compiled::Fail(DbError::Execution(format!("{name}() needs an argument"))))
                }
            });
        }
        Ok(Aggregator {
            stmt,
            names,
            specs,
            args,
            fresh,
            group_by: stmt.group_by.iter().map(|e| compile(e, cols)).collect(),
            groups: Vec::new(),
            lookup: HashMap::new(),
        })
    }

    fn push(&mut self, row: &[Value]) -> DbResult<()> {
        let gi = if self.group_by.is_empty() {
            if self.groups.is_empty() {
                let accs = self.fresh.clone();
                self.groups.push(Group { key: Vec::new(), representative: row.to_vec(), accs });
            }
            0
        } else {
            let key: Vec<Value> = self
                .group_by
                .iter()
                .map(|e| e.eval(row).map(Cow::into_owned))
                .collect::<DbResult<_>>()?;
            match self.lookup.get(&key) {
                Some(&i) => i,
                None => {
                    let accs = self.fresh.clone();
                    self.groups.push(Group {
                        key: key.clone(),
                        representative: row.to_vec(),
                        accs,
                    });
                    self.lookup.insert(key, self.groups.len() - 1);
                    self.groups.len() - 1
                }
            }
        };
        let group = &mut self.groups[gi];
        for (acc, arg) in group.accs.iter_mut().zip(&self.args) {
            match arg {
                None => acc_update(acc, None)?,
                Some(e) => acc_update(acc, Some(&*e.eval(row)?))?,
            }
        }
        Ok(())
    }

    fn finish(mut self, cols: &[ColRef]) -> DbResult<RowSet> {
        let stmt = self.stmt;
        // Global aggregate over an empty input still produces one group.
        if self.groups.is_empty() && stmt.group_by.is_empty() {
            let representative = vec![Value::Null; cols.len()];
            self.groups.push(Group { key: Vec::new(), representative, accs: self.fresh.clone() });
        }
        let mut out_rows: Vec<Row> = Vec::new();
        let mut sort_keys: Vec<Vec<Value>> = Vec::new();
        for group in &self.groups {
            let agg_vals: Vec<Value> = group.accs.iter().map(acc_finish).collect();
            let genv = GroupEnv {
                cols,
                representative: &group.representative,
                group_exprs: &stmt.group_by,
                group_vals: &group.key,
                agg_specs: &self.specs,
                agg_vals: &agg_vals,
            };
            if let Some(h) = &stmt.having {
                if truth(&eval_agg_expr(h, &genv)?) != Some(true) {
                    continue;
                }
            }
            let mut row = Vec::with_capacity(stmt.items.len());
            for item in &stmt.items {
                if let SelectItem::Expr { expr, .. } = item {
                    row.push(eval_agg_expr(expr, &genv)?);
                }
            }
            if !stmt.order_by.is_empty() {
                // ORDER BY keys: alias references resolve against output first.
                let mut keys = Vec::with_capacity(stmt.order_by.len());
                for o in &stmt.order_by {
                    keys.push(match &o.expr {
                        Expr::Column { qualifier: None, name } => {
                            match self.names.iter().position(|n| n.eq_ignore_ascii_case(name)) {
                                Some(i) => row[i].clone(),
                                None => eval_agg_expr(&o.expr, &genv)?,
                            }
                        }
                        e => eval_agg_expr(e, &genv)?,
                    });
                }
                sort_keys.push(keys);
            }
            out_rows.push(row);
        }
        finish(self.names, out_rows, sort_keys, stmt)
    }
}

struct GroupEnv<'g> {
    cols: &'g [ColRef],
    representative: &'g Row,
    group_exprs: &'g [Expr],
    group_vals: &'g [Value],
    agg_specs: &'g [&'g Expr],
    agg_vals: &'g [Value],
}

fn eval_agg_expr(expr: &Expr, genv: &GroupEnv<'_>) -> DbResult<Value> {
    if let Some(i) = genv.agg_specs.iter().position(|s| *s == expr) {
        return Ok(genv.agg_vals[i].clone());
    }
    if let Some(i) = genv.group_exprs.iter().position(|s| s == expr) {
        return Ok(genv.group_vals[i].clone());
    }
    match expr {
        Expr::Binary { op, left, right } => {
            binary(*op, &eval_agg_expr(left, genv)?, &eval_agg_expr(right, genv)?)
        }
        Expr::Unary { op, expr } => unary(*op, &eval_agg_expr(expr, genv)?),
        // Lenient fallback: resolve against the group's representative row
        // (first row), MySQL-style, so `SELECT name ... GROUP BY id` works.
        _ => compile(expr, genv.cols).eval(genv.representative).map(Cow::into_owned),
    }
}

// ------------------------------------------------------------------ output

fn output_name(expr: &Expr, alias: &Option<String>, idx: usize) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::Function { name, .. } => name.to_ascii_lowercase(),
        _ => format!("col{idx}"),
    }
}

/// DISTINCT, ORDER BY and LIMIT over the output rows. `sort_keys` holds
/// one key row per output row when the statement has ORDER BY, and is
/// empty otherwise.
fn finish(
    names: Vec<String>,
    mut rows: Vec<Row>,
    mut sort_keys: Vec<Vec<Value>>,
    stmt: &SelectStmt,
) -> DbResult<RowSet> {
    if stmt.distinct {
        let mut seen: HashSet<&Row> = HashSet::with_capacity(rows.len());
        let first: Vec<bool> = rows.iter().map(|r| seen.insert(r)).collect();
        let mut flags = first.iter();
        rows.retain(|_| flags.next() == Some(&true));
        let mut flags = first.iter();
        sort_keys.retain(|_| flags.next() == Some(&true));
    }
    if !stmt.order_by.is_empty() {
        let mut idx: Vec<usize> = (0..rows.len()).collect();
        idx.sort_by(|&a, &b| {
            for (k, o) in stmt.order_by.iter().enumerate() {
                let ord = sort_keys[a][k].total_cmp(&sort_keys[b][k]);
                let ord = if o.desc { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        rows = idx.into_iter().map(|i| std::mem::take(&mut rows[i])).collect();
    }
    if let Some(n) = stmt.limit {
        rows.truncate(n as usize);
    }
    Ok(RowSet::with_rows(names, rows))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use crate::{DataType, Database, DbResult, RowSet, Value};

    fn col(rows: Vec<Vec<Value>>) -> Vec<Value> {
        rows.into_iter().map(|mut r| r.remove(0)).collect()
    }

    #[test]
    fn limit_stops_the_scan_unless_a_sort_comes_first() {
        let db = Database::new();
        db.execute("CREATE TABLE t (k BIGINT, v BIGINT)").unwrap();
        let values: Vec<String> = (0..1000).map(|i| format!("({i}, {})", 999 - i)).collect();
        db.execute(&format!("INSERT INTO t VALUES {}", values.join(", "))).unwrap();

        let before = db.metrics().load();
        let rs = db.execute("SELECT v FROM t LIMIT 3").unwrap();
        assert_eq!(rs.len(), 3);
        let read = db.metrics().load().since(&before).rows_read;
        assert!(read <= 3, "LIMIT 3 read {read} rows");
        let plan = db.explain("SELECT v FROM t LIMIT 3").unwrap();
        assert!(plan.contains("LIMIT 3 (stops scan)"), "{plan}");
        assert!(!plan.contains("FILTER"), "{plan}");

        let before = db.metrics().load();
        let rs = db.execute("SELECT v FROM t ORDER BY v LIMIT 3").unwrap();
        assert_eq!(col(rs.rows), vec![Value::Bigint(0), Value::Bigint(1), Value::Bigint(2)]);
        assert_eq!(db.metrics().load().since(&before).rows_read, 1000);
        let plan = db.explain("SELECT v FROM t ORDER BY v LIMIT 3").unwrap();
        assert!(plan.contains("LIMIT 3") && !plan.contains("stops scan"), "{plan}");

        // A residual that the access path does not answer is a FILTER; an
        // index probe that answers the whole WHERE is not.
        db.execute("CREATE INDEX ix_k ON t (k)").unwrap();
        let plan = db.explain("SELECT v FROM t WHERE k = 5").unwrap();
        assert!(plan.contains("INDEX-EQ") && !plan.contains("FILTER"), "{plan}");
        let plan = db.explain("SELECT v FROM t WHERE k = 5 AND v > 1").unwrap();
        assert!(plan.contains("INDEX-EQ") && plan.contains("FILTER"), "{plan}");
    }

    #[test]
    fn in_lists_keep_three_valued_results() {
        let db = Database::new();
        db.execute("CREATE TABLE t (k BIGINT, name VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b'), (3, '1'), (NULL, 'd')").unwrap();
        let ks = |sql: &str| col(db.execute(sql).unwrap().rows);
        // A list holding NULL is scanned; the others are hashed, and a probe
        // of another type than the list's falls back to the scan. Both must
        // agree with and without an index on `k`.
        for indexed in [false, true] {
            if indexed {
                db.execute("CREATE INDEX ix_k ON t (k)").unwrap();
            }
            assert_eq!(ks("SELECT k FROM t WHERE NOT (k IN (1, NULL))"), vec![]);
            assert_eq!(ks("SELECT k FROM t WHERE k IN (1, NULL)"), vec![Value::Bigint(1)]);
            assert_eq!(ks("SELECT k FROM t WHERE NOT (name IN (1, 2))"), vec![]);
            assert_eq!(ks("SELECT k FROM t WHERE name IN (1, 2)"), vec![]);
            assert_eq!(ks("SELECT k FROM t WHERE k IN (2.0)"), vec![Value::Bigint(2)]);
            assert_eq!(
                ks("SELECT k FROM t WHERE k NOT IN (2.0, 7.0) ORDER BY k"),
                vec![Value::Bigint(1), Value::Bigint(3)]
            );
            assert_eq!(
                ks("SELECT k FROM t WHERE k IN (3, 1, 3) ORDER BY k"),
                vec![Value::Bigint(1), Value::Bigint(3)]
            );
        }
    }

    #[test]
    fn index_probes_count_the_keys_probed_not_the_padding() {
        let db = Database::new();
        db.execute("CREATE TABLE t (id BIGINT PRIMARY KEY, v BIGINT)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30), (4, 40)").unwrap();
        // Three ids padded to a bucket of four by repeating the last one.
        let before = db.metrics().load();
        let rs = db.execute("SELECT v FROM t WHERE id IN (1, 2, 3, 3)").unwrap();
        assert_eq!(rs.len(), 3);
        assert_eq!(db.metrics().load().since(&before).index_probes, 3);
    }

    /// The Section 4 statement: a 1 000-row table joined to the ids a
    /// table function returns, as SQL joins a table to `graphQuery`.
    #[test]
    fn a_table_joined_to_a_function_reads_only_the_matched_rows() {
        let db = Database::new();
        db.execute("CREATE TABLE nodes (id BIGINT PRIMARY KEY, version BIGINT)").unwrap();
        let values: Vec<String> = (0..1000).map(|i| format!("({i}, {})", i % 100)).collect();
        db.execute(&format!("INSERT INTO nodes VALUES {}", values.join(", "))).unwrap();
        // 555 twice, a NULL and an id no row has.
        let ids =
            [555, 42, 7, 555, -1, 5000].map(|i| if i < 0 { Value::Null } else { Value::Bigint(i) });
        db.register_function(
            "neighbours",
            Arc::new(move |_: &[Value], cols: &[(String, DataType)]| -> DbResult<RowSet> {
                let rows = ids.iter().map(|v| vec![v.clone()]).collect();
                Ok(RowSet::with_rows(vec![cols[0].0.clone()], rows))
            }),
        );
        let sql = "SELECT COUNT(*), SUM(n.version) FROM nodes AS n, \
                   TABLE(neighbours()) AS p (vid BIGINT) WHERE n.id = p.vid AND n.version > 10";
        let before = db.metrics().load();
        let rs = db.execute(sql).unwrap();
        // 7 fails the version filter; 42 joins once, 555 twice.
        assert_eq!(rs.rows, vec![vec![Value::Bigint(3), Value::Bigint(42 + 55 + 55)]]);
        let stats = db.metrics().load().since(&before);
        assert_eq!(stats.rows_read, 3, "read {} rows of 1 000", stats.rows_read);
        let plan = db.explain(sql).unwrap();
        let expected = "TABLE-FUNCTION neighbours\n\
                        INDEX-IN nodes via pk_nodes (join keys of p.vid)\n\
                        CROSS/HASH COMBINE\nFILTER\nAGGREGATE (0 group keys)";
        assert_eq!(plan, expected);
        // The same join over a view of the table reads all of it.
        db.execute("CREATE VIEW all_nodes AS SELECT id, version FROM nodes").unwrap();
        let over_view = sql.replace("FROM nodes", "FROM all_nodes");
        let before = db.metrics().load();
        assert_eq!(db.execute(&over_view).unwrap().rows, rs.rows);
        assert_eq!(db.metrics().load().since(&before).rows_read, 1000);
        assert!(db.explain(&over_view).unwrap().starts_with("VIEW all_nodes"));
    }

    #[test]
    fn join_pushdown_skips_conjuncts_that_can_fail() {
        let db = Database::new();
        db.execute("CREATE TABLE a (id BIGINT, v BIGINT, d BIGINT)").unwrap();
        db.execute("CREATE TABLE b (id BIGINT)").unwrap();
        // Row 1 would divide by zero, but it never joins.
        db.execute("INSERT INTO a VALUES (1, 1, 0), (2, 4, 2)").unwrap();
        db.execute("INSERT INTO b VALUES (2)").unwrap();
        let rs = db
            .execute("SELECT a.id FROM a JOIN b ON a.id = b.id WHERE a.v / a.d > 0 AND a.v > 0")
            .unwrap();
        assert_eq!(col(rs.rows), vec![Value::Bigint(2)]);
        let rs = db.execute("SELECT a.id FROM a, b WHERE a.id = b.id AND a.v / a.d > 0").unwrap();
        assert_eq!(col(rs.rows), vec![Value::Bigint(2)]);
        // The same conjunct fails where the row does reach it.
        assert!(db.execute("SELECT a.id FROM a WHERE a.v / a.d > 0").is_err());
    }
}
