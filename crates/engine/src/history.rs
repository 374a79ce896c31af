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
use std::collections::VecDeque;
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

#[derive(Default)]
struct Inner {
    /// Retained events, oldest first. Bounded by `cap` when set.
    events: VecDeque<Event>,
    /// Sequence number the next recorded event receives. Equals the count
    /// of events ever recorded, including any that were dropped.
    next_seq: u64,
    /// Events evicted by the ring-buffer bound.
    dropped: u64,
}

/// A shared, append-only schedule recording.
///
/// By default the buffer is unbounded (checkers need complete histories).
/// Long-running servers use [`History::bounded`], which keeps only the
/// newest `cap` events and counts what it evicted — memory stays flat no
/// matter how many transactions run.
#[derive(Default)]
pub struct History {
    enabled: AtomicBool,
    inner: Mutex<Inner>,
    /// Maximum retained events; `None` = unbounded.
    cap: Option<usize>,
}

impl History {
    /// A history with recording initially enabled and no bound.
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

    /// A recording history that retains at most `cap` events (clamped to
    /// ≥ 1), evicting the oldest and counting them in
    /// [`History::dropped`]. Sequence numbers keep counting past evicted
    /// events, so retained entries still show their true append order.
    pub fn bounded(cap: usize) -> Self {
        let h = History { cap: Some(cap.max(1)), ..History::default() };
        h.enabled.store(true, Ordering::Relaxed);
        h
    }

    /// The configured retention bound, if any.
    pub fn cap(&self) -> Option<usize> {
        self.cap
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
        let mut inner = self.inner.lock();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push_back(Event { seq, txn, level, op });
        if let Some(cap) = self.cap {
            while inner.events.len() > cap {
                inner.events.pop_front();
                inner.dropped += 1;
            }
        }
    }

    /// Snapshot of all retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        self.inner.lock().events.iter().cloned().collect()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.inner.lock().events.len()
    }

    /// Events evicted by the retention bound (0 when unbounded).
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Whether the history retains no events.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().events.is_empty()
    }

    /// Drop all recorded events and reset the sequence and drop counters
    /// (between benchmark phases; keeps deterministic replays identical).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.events.clear();
        inner.next_seq = 0;
        inner.dropped = 0;
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
        assert_eq!(h.dropped(), 0);
        // Sequence numbers restart so replays after clear are identical.
        h.record(1, IsolationLevel::Snapshot, || Op::Begin);
        assert_eq!(h.events()[0].seq, 0);
    }

    #[test]
    fn bounded_history_evicts_oldest_and_counts_drops() {
        let h = History::bounded(4);
        assert_eq!(h.cap(), Some(4));
        for i in 0..10 {
            h.record(i, IsolationLevel::ReadCommitted, || Op::Begin);
        }
        assert_eq!(h.len(), 4, "retention bound holds");
        assert_eq!(h.dropped(), 6);
        let ev = h.events();
        // The newest 4 events survive with their true sequence numbers.
        assert_eq!(ev.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        assert_eq!(ev.iter().map(|e| e.txn).collect::<Vec<_>>(), vec![6, 7, 8, 9]);
        h.clear();
        assert_eq!((h.len(), h.dropped()), (0, 0));
    }

    #[test]
    fn bounded_history_memory_is_flat_across_100k_events() {
        // The regression this guards: with `record_history: true` a
        // long-running server leaked an unbounded Vec. A bounded history
        // must retain exactly `cap` events no matter how many are recorded.
        let h = History::bounded(256);
        for i in 0..100_000u64 {
            h.record(i, IsolationLevel::Serializable, || Op::Commit { ts: i });
        }
        assert_eq!(h.len(), 256, "retained set never exceeds the cap");
        assert_eq!(h.dropped(), 100_000 - 256);
        assert_eq!(h.events().last().map(|e| e.seq), Some(99_999));
    }
}
