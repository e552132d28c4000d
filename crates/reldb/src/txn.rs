//! Transaction support: write stamps plus an undo log.
//!
//! A statement runs in auto-commit mode unless its thread has adopted a
//! transaction — a SQL `BEGIN`, a [`crate::db::Database::transaction`]
//! closure, or a session inside `with_session_txn` — which are one
//! mechanism: a [`TxnState`] registered under its stamp and adopted by the
//! thread executing inside it (see `crate::db`). Every transaction, even
//! the implicit one around an auto-commit statement, gets a unique *stamp*;
//! its writes carry the stamp as an uncommitted marker in the version
//! chains (see [`crate::storage`]) and append an undo record here. Commit
//! walks the log forward finalizing markers to one fresh epoch (so the
//! whole transaction becomes visible atomically); rollback replays it in
//! reverse, removing or re-opening exactly the versions the stamp touched.
//! This is the atomicity the paper calls "the strongest suit for RDBMSs"
//! (Section 1); `docs/CONSISTENCY.md` documents the isolation model.

use crate::index::RowId;

/// One reversible data modification.
#[derive(Debug, Clone)]
pub(crate) enum UndoOp {
    /// A row was inserted; undo removes the created version.
    Insert { table: String, rid: RowId },
    /// A row was deleted; undo re-opens the end-marked version (the
    /// version chain is the source of truth for rollback).
    Delete { table: String, rid: RowId },
    /// A row was updated; undo drops the new version and re-opens the old.
    Update { table: String, rid: RowId },
}

impl UndoOp {
    /// Name of the table this operation touched.
    pub(crate) fn table(&self) -> &str {
        match self {
            UndoOp::Insert { table, .. }
            | UndoOp::Delete { table, .. }
            | UndoOp::Update { table, .. } => table,
        }
    }

    /// Row slot this operation touched.
    pub(crate) fn rid(&self) -> RowId {
        match self {
            UndoOp::Insert { rid, .. }
            | UndoOp::Delete { rid, .. }
            | UndoOp::Update { rid, .. } => *rid,
        }
    }

    /// True for operations that leave a dead version behind on commit
    /// (update/delete end-mark a version; insert does not).
    pub(crate) fn creates_garbage(&self) -> bool {
        !matches!(self, UndoOp::Insert { .. })
    }
}

/// The undo log of an open transaction.
#[derive(Debug, Default)]
pub(crate) struct UndoLog {
    ops: Vec<UndoOp>,
}

impl UndoLog {
    pub(crate) fn record(&mut self, op: UndoOp) {
        self.ops.push(op);
    }

    /// Move every operation of `other` onto the end of this log.
    pub(crate) fn append(&mut self, other: UndoLog) {
        self.ops.extend(other.ops);
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operations in execution order (the commit path walks these forward).
    pub(crate) fn ops(&self) -> &[UndoOp] {
        &self.ops
    }

    /// Drain operations in reverse (rollback) order.
    pub(crate) fn drain_reverse(&mut self) -> Vec<UndoOp> {
        let mut ops = std::mem::take(&mut self.ops);
        ops.reverse();
        ops
    }
}

/// State of an open multi-statement transaction: its write stamp and undo
/// log. Which thread may use it is decided by adoption, not recorded here.
#[derive(Debug)]
pub(crate) struct TxnState {
    pub(crate) stamp: u64,
    pub(crate) log: UndoLog,
}

impl TxnState {
    pub(crate) fn new(stamp: u64) -> TxnState {
        TxnState { stamp, log: UndoLog::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_reverses_order() {
        let mut log = UndoLog::default();
        log.record(UndoOp::Insert { table: "t".into(), rid: 1 });
        log.record(UndoOp::Delete { table: "t".into(), rid: 2 });
        assert_eq!(log.ops().len(), 2);
        assert_eq!(log.ops()[0].table(), "t");
        assert_eq!(log.ops()[1].rid(), 2);
        let ops = log.drain_reverse();
        assert!(matches!(ops[0], UndoOp::Delete { .. }));
        assert!(matches!(ops[1], UndoOp::Insert { .. }));
        assert!(log.is_empty());
    }

    #[test]
    fn garbage_accounting_distinguishes_inserts() {
        assert!(!UndoOp::Insert { table: "t".into(), rid: 0 }.creates_garbage());
        assert!(UndoOp::Delete { table: "t".into(), rid: 0 }.creates_garbage());
        assert!(UndoOp::Update { table: "t".into(), rid: 0 }.creates_garbage());
    }
}
