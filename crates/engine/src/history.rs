//! Execution histories (schedules).
//!
//! When recording is enabled, every transaction operation appends an
//! [`Event`] to the shared [`History`]. The `semcc-checker` crate consumes
//! histories to test conflict-serializability, detect anomalies (dirty
//! read, lost update, non-repeatable read, phantom, write skew) and replay
//! annotated assertions.

use crate::level::IsolationLevel;
use parking_lot::Mutex;
use semcc_logic::row::RowPred;
use semcc_mvcc::Key;
use semcc_storage::{Row, RowId, Ts, TxnId, Value};
use std::sync::atomic::{AtomicBool, Ordering};

/// Where a read's value came from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadSrc {
    /// A committed version with this commit timestamp.
    Committed(Ts),
    /// The uncommitted (dirty) value written by this transaction.
    Dirty(TxnId),
    /// A snapshot read at this snapshot timestamp.
    Snapshot(Ts),
}

/// One recorded operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Transaction started.
    Begin,
    /// A read of one key.
    Read {
        /// What was read.
        key: Key,
        /// The value observed.
        value: Value,
        /// Which version supplied it.
        src: ReadSrc,
    },
    /// A write of one key (item write, row update/insert/delete).
    Write {
        /// What was written.
        key: Key,
        /// The new value for items; `None` for row-level writes (see
        /// `RowWrite`) and deletes.
        value: Option<Value>,
    },
    /// A row read performed by a SELECT, with version provenance — the
    /// row-granular counterpart of `Read`, needed by the anomaly detectors
    /// to see *which* version a relational reader observed.
    RowRead {
        /// Table scanned.
        table: String,
        /// Row observed.
        id: RowId,
        /// Which version supplied it.
        src: ReadSrc,
    },
    /// A predicate read (SELECT): the filter and the row ids it matched.
    PredRead {
        /// Table scanned.
        table: String,
        /// Filter evaluated (already bound to concrete outer values).
        pred: RowPred,
        /// Row ids returned.
        matched: Vec<RowId>,
    },
    /// A row insert, with the inserted tuple (needed for phantom checks).
    RowInsert {
        /// Table.
        table: String,
        /// New slot.
        id: RowId,
        /// Inserted tuple.
        row: Row,
    },
    /// A row update, with the new tuple.
    RowUpdate {
        /// Table.
        table: String,
        /// Slot updated.
        id: RowId,
        /// New tuple.
        row: Row,
    },
    /// A row delete.
    RowDelete {
        /// Table.
        table: String,
        /// Slot deleted.
        id: RowId,
    },
    /// Commit at the given timestamp.
    Commit {
        /// Assigned commit timestamp.
        ts: Ts,
    },
    /// Abort (voluntary, deadlock victim, or FCW loser).
    Abort,
    /// SSI dangerous-structure abort: this transaction died because
    /// `pivot` carried both rw-antidependency flags (possibly itself).
    /// Recorded just before the `Abort` entry so the trail names the
    /// pivot.
    SsiAbort {
        /// The both-flags transaction of the dangerous structure.
        pivot: TxnId,
        /// The access that completed the structure.
        key: String,
    },
}

/// One history entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (append order = real-time order).
    pub seq: u64,
    /// The acting transaction.
    pub txn: TxnId,
    /// Its isolation level.
    pub level: IsolationLevel,
    /// The operation.
    pub op: Op,
}

/// A shared, append-only schedule recording. It keeps every event
/// (checkers need complete histories), so long-running servers leave
/// recording off.
#[derive(Default)]
pub struct History {
    enabled: AtomicBool,
    /// Recorded events, oldest first; an event's `seq` is its index.
    events: Mutex<Vec<Event>>,
}

impl History {
    /// A history with recording initially enabled.
    pub fn new() -> Self {
        let h = History::default();
        h.enabled.store(true, Ordering::Relaxed);
        h
    }

    /// A history with recording disabled (zero overhead apart from the
    /// flag check; see [`History::record`]) — used by throughput benchmarks.
    pub fn disabled() -> Self {
        History::default()
    }

    /// Toggle recording.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Append an event. `op` is only called when recording is on, so a
    /// disabled history costs its callers the flag check and nothing else:
    /// no key, value or row is cloned for an event that would be dropped.
    pub fn record(&self, txn: TxnId, level: IsolationLevel, op: impl FnOnce() -> Op) {
        if !self.is_enabled() {
            return;
        }
        let op = op();
        let mut events = self.events.lock();
        let seq = events.len() as u64;
        events.push(Event { seq, txn, level, op });
    }

    /// Snapshot of all recorded events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.events.lock().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.lock().len()
    }

    /// Whether the history holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.lock().is_empty()
    }

    /// Drop all recorded events and reset the sequence counter (between
    /// benchmark phases; keeps deterministic replays identical).
    pub fn clear(&self) {
        self.events.lock().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_replay() {
        let h = History::new();
        h.record(1, IsolationLevel::ReadCommitted, || Op::Begin);
        h.record(1, IsolationLevel::ReadCommitted, || Op::Read {
            key: Key::item("x"),
            value: Value::Int(1),
            src: ReadSrc::Committed(0),
        });
        h.record(1, IsolationLevel::ReadCommitted, || Op::Commit { ts: 1 });
        let ev = h.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[2].seq, 2);
        assert!(matches!(ev[2].op, Op::Commit { ts: 1 }));
    }

    #[test]
    fn disabled_history_records_nothing() {
        let h = History::disabled();
        h.record(1, IsolationLevel::Snapshot, || Op::Begin);
        assert!(h.is_empty());
        h.set_enabled(true);
        h.record(1, IsolationLevel::Snapshot, || Op::Begin);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn clear_resets() {
        let h = History::new();
        h.record(1, IsolationLevel::Snapshot, || Op::Begin);
        h.clear();
        assert!(h.is_empty());
        // Sequence numbers restart so replays after clear are identical.
        h.record(1, IsolationLevel::Snapshot, || Op::Begin);
        assert_eq!(h.events()[0].seq, 0);
    }
}
