//! Serializable Snapshot Isolation bookkeeping (Cahill et al.).
//!
//! An SSI transaction is a SNAPSHOT transaction that additionally
//! registers **SIREAD locks** on everything it reads (point keys and, for
//! predicate reads, the whole table) and **write intents** on everything
//! it writes. SIREAD locks are *retained past commit*: a committed SSI
//! record stays in the registry until no concurrent SSI transaction can
//! still form an rw-antidependency with it.
//!
//! Every rw-antidependency `r → w` between *concurrent* SSI transactions
//! (their lifetimes overlap: the writer committed after the reader's
//! snapshot, or either is still active) records an out-edge on `r` and an
//! in-edge on `w`. A transaction with **both** kinds of edge (the
//! `in_conflict`/`out_conflict` flags of Cahill's formulation, kept here
//! as peer sets so an aborted peer's edges can be struck) is a *pivot* of a
//! dangerous structure; Cahill's theorem says aborting every pivot before
//! it commits leaves only serializable executions. The abort policy here:
//!
//! * a transaction whose own flags become (or are found) both set aborts
//!   at its next read/write or at commit (`ssi_precommit` inside the
//!   commit critical section);
//! * when a marking would set both flags on an already **committed**
//!   record, the *caller* aborts instead (the pivot can no longer be).
//!
//! All checks require lifetime overlap, so strictly serial executions
//! never set a flag and never abort — the explorer's serial reference
//! orders stay error-free at SSI.

use semcc_storage::{Key, Ts, TxnId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// What an SSI lock covers: one versioned key, or a whole table (the
/// coarse predicate lock a SELECT takes so phantoms raise conflicts too).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SsiKey {
    /// A single item or row key.
    Point(Key),
    /// Every row of a table, present and future.
    Table(String),
}

impl fmt::Display for SsiKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SsiKey::Point(k) => write!(f, "{k}"),
            SsiKey::Table(t) => write!(f, "table {t}"),
        }
    }
}

/// A dangerous-structure abort: `txn` was aborted because `pivot` has
/// both rw-antidependency flags set (`pivot == txn` when the transaction
/// is its own pivot; otherwise the pivot already committed and the caller
/// must die in its place).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SsiConflict {
    /// The aborted transaction.
    pub txn: TxnId,
    /// The transaction holding both conflict flags.
    pub pivot: TxnId,
    /// The access that completed the dangerous structure.
    pub key: String,
}

impl fmt::Display for SsiConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.txn == self.pivot {
            write!(
                f,
                "ssi dangerous structure at {}: txn {} is a pivot (in+out rw-antidependencies)",
                self.key, self.pivot
            )
        } else {
            write!(
                f,
                "ssi dangerous structure at {}: committed txn {} is a pivot, txn {} aborted",
                self.key, self.pivot, self.txn
            )
        }
    }
}

impl std::error::Error for SsiConflict {}

/// Per-transaction SSI record. Lives from `ssi_begin` until garbage
/// collection proves no active SSI transaction can still be concurrent
/// with it (aborted transactions are dropped immediately — their reads
/// and writes never happened).
#[derive(Debug)]
struct SsiRecord {
    snapshot_ts: Ts,
    /// `None` while active; the commit timestamp once committed.
    commit_ts: Option<Ts>,
    /// SIREAD locks (retained past commit).
    reads: BTreeSet<SsiKey>,
    /// Write intents while active; the committed write set afterwards.
    writes: BTreeSet<SsiKey>,
    /// Concurrent transactions that read what this one wrote (rw
    /// in-edges). Edge *sets*, not booleans: when a peer aborts, its
    /// edges are struck from every record — a dependency on reads and
    /// writes that never happened must not survive to kill a pivot.
    in_edges: BTreeSet<TxnId>,
    /// Concurrent transactions that wrote what this one read (rw
    /// out-edges).
    out_edges: BTreeSet<TxnId>,
}

impl SsiRecord {
    fn active(&self) -> bool {
        self.commit_ts.is_none()
    }

    fn pivot(&self) -> bool {
        !self.in_edges.is_empty() && !self.out_edges.is_empty()
    }

    /// Whether this record's lifetime overlaps a transaction that took
    /// its snapshot at `snapshot_ts` (still-active records trivially do).
    fn concurrent_with(&self, snapshot_ts: Ts) -> bool {
        match self.commit_ts {
            None => true,
            Some(c) => c > snapshot_ts,
        }
    }
}

/// The SSI registry: one record per tracked transaction, keyed by id so
/// every scan is in deterministic order.
#[derive(Default)]
pub(crate) struct SsiState {
    records: BTreeMap<TxnId, SsiRecord>,
}

impl SsiState {
    pub(crate) fn begin(&mut self, txn: TxnId, snapshot_ts: Ts) {
        self.records.insert(
            txn,
            SsiRecord {
                snapshot_ts,
                commit_ts: None,
                reads: BTreeSet::new(),
                writes: BTreeSet::new(),
                in_edges: BTreeSet::new(),
                out_edges: BTreeSet::new(),
            },
        );
    }

    /// Register SIREAD locks for `txn` and mark every rw-antidependency
    /// `txn → writer` against concurrent write intents and committed
    /// writes, aborting on any dangerous structure this completes.
    pub(crate) fn on_read(&mut self, txn: TxnId, keys: &[SsiKey]) -> Result<(), SsiConflict> {
        self.check_self(txn, keys)?;
        let me = self.records.get_mut(&txn).expect("ssi transaction has a record");
        let my_snapshot = me.snapshot_ts;
        me.reads.extend(keys.iter().cloned());
        let mut marked = Vec::new();
        for (&id, other) in self.records.iter_mut() {
            if id == txn || !other.concurrent_with(my_snapshot) {
                continue;
            }
            if let Some(k) = keys.iter().find(|k| other.writes.contains(k)) {
                other.in_edges.insert(txn);
                marked.push((id, k.clone()));
            }
        }
        if let Some((_, k)) = marked.first() {
            let me = self.records.get_mut(&txn).expect("record");
            me.out_edges.extend(marked.iter().map(|(id, _)| *id));
            if me.pivot() {
                return Err(SsiConflict { txn, pivot: txn, key: k.to_string() });
            }
        }
        self.check_committed_pivots(txn, &marked)
    }

    /// Register write intents for `txn` and mark every rw-antidependency
    /// `holder → txn` against concurrent SIREAD holders, aborting on any
    /// dangerous structure this completes.
    pub(crate) fn on_write(&mut self, txn: TxnId, keys: &[SsiKey]) -> Result<(), SsiConflict> {
        self.check_self(txn, keys)?;
        let me = self.records.get_mut(&txn).expect("ssi transaction has a record");
        let my_snapshot = me.snapshot_ts;
        me.writes.extend(keys.iter().cloned());
        let mut marked = Vec::new();
        for (&id, other) in self.records.iter_mut() {
            if id == txn || !other.concurrent_with(my_snapshot) {
                continue;
            }
            if let Some(k) = keys.iter().find(|k| other.reads.contains(k)) {
                other.out_edges.insert(txn);
                marked.push((id, k.clone()));
            }
        }
        if let Some((_, k)) = marked.first() {
            let me = self.records.get_mut(&txn).expect("record");
            me.in_edges.extend(marked.iter().map(|(id, _)| *id));
            if me.pivot() {
                return Err(SsiConflict { txn, pivot: txn, key: k.to_string() });
            }
        }
        self.check_committed_pivots(txn, &marked)
    }

    /// Abort when `txn` itself is already a pivot (a peer's marking set
    /// the second flag after our last operation; the deferred abort lands
    /// here, at the pivot's own next action).
    fn check_self(&self, txn: TxnId, keys: &[SsiKey]) -> Result<(), SsiConflict> {
        let me = self.records.get(&txn).expect("ssi transaction has a record");
        if me.pivot() {
            let key = keys.first().map(|k| k.to_string()).unwrap_or_else(|| "commit".into());
            return Err(SsiConflict { txn, pivot: txn, key });
        }
        Ok(())
    }

    /// A marking that completes the dangerous structure on an already
    /// *committed* record cannot abort the pivot; the caller dies instead.
    fn check_committed_pivots(
        &self,
        txn: TxnId,
        marked: &[(TxnId, SsiKey)],
    ) -> Result<(), SsiConflict> {
        for (id, k) in marked {
            let other = &self.records[id];
            if !other.active() && other.pivot() {
                return Err(SsiConflict { txn, pivot: *id, key: k.to_string() });
            }
        }
        Ok(())
    }

    /// The commit-time check: a pivot never commits.
    pub(crate) fn precommit(&self, txn: TxnId) -> Result<(), SsiConflict> {
        self.check_self(txn, &[])
    }

    /// Stamp the record committed (its SIREADs persist) and collect.
    pub(crate) fn commit(&mut self, txn: TxnId, ts: Ts) {
        if let Some(rec) = self.records.get_mut(&txn) {
            rec.commit_ts = Some(ts);
        }
        self.gc();
    }

    /// Drop an aborted transaction's record entirely — its reads and
    /// writes never happened, so every conflict edge it contributed is
    /// struck from the surviving records too.
    pub(crate) fn abort(&mut self, txn: TxnId) {
        self.records.remove(&txn);
        for rec in self.records.values_mut() {
            rec.in_edges.remove(&txn);
            rec.out_edges.remove(&txn);
        }
        self.gc();
    }

    /// Retain a committed record only while some active SSI transaction
    /// took its snapshot before the record committed (i.e. could still
    /// form an rw edge with it). A pure function of the registry, so the
    /// collection point is identical across replays.
    fn gc(&mut self) {
        let min_active_snapshot =
            self.records.values().filter(|r| r.active()).map(|r| r.snapshot_ts).min();
        match min_active_snapshot {
            None => self.records.clear(),
            Some(m) => self.records.retain(|_, r| r.active() || r.commit_ts.unwrap_or(0) > m),
        }
    }

    pub(crate) fn clear(&mut self) {
        self.records.clear();
    }

    // -- audit accessors ---------------------------------------------------

    pub(crate) fn tracked(&self, txn: TxnId) -> bool {
        self.records.contains_key(&txn)
    }

    pub(crate) fn flags(&self, txn: TxnId) -> Option<(bool, bool)> {
        self.records.get(&txn).map(|r| (!r.in_edges.is_empty(), !r.out_edges.is_empty()))
    }

    pub(crate) fn siread_count(&self, txn: TxnId) -> usize {
        self.records.get(&txn).map_or(0, |r| r.reads.len())
    }

    pub(crate) fn record_count(&self) -> usize {
        self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(name: &str) -> SsiKey {
        SsiKey::Point(Key::item(name))
    }

    #[test]
    fn serial_lifetimes_never_conflict() {
        let mut st = SsiState::default();
        st.begin(1, 0);
        st.on_read(1, &[k("x")]).expect("read");
        st.on_write(1, &[k("y")]).expect("write");
        st.precommit(1).expect("commit check");
        st.commit(1, 1);
        // The next transaction's snapshot is at/after the commit: no
        // overlap, no flags, and the old record is collected.
        st.begin(2, 1);
        st.on_read(2, &[k("y")]).expect("read after commit");
        st.on_write(2, &[k("x")]).expect("write after commit");
        st.precommit(2).expect("serial execution never aborts");
        st.commit(2, 2);
        assert_eq!(st.record_count(), 0, "no active txn: registry fully collected");
    }

    #[test]
    fn write_skew_aborts_exactly_one_pivot() {
        // Classic write skew: T1 reads x writes y, T2 reads y writes x,
        // fully interleaved. Whoever completes the second rw edge is the
        // pivot and dies; the other commits.
        let mut st = SsiState::default();
        st.begin(1, 0);
        st.begin(2, 0);
        st.on_read(1, &[k("x")]).expect("t1 read x");
        st.on_read(2, &[k("y")]).expect("t2 read y");
        st.on_write(1, &[k("y")]).expect("t1 intends y; marks t2.out, t1.in");
        let err = st.on_write(2, &[k("x")]).expect_err("t2 completes its own pivot");
        assert_eq!(err.txn, 2);
        assert_eq!(err.pivot, 2);
        st.abort(2);
        st.precommit(1).expect("t1 has only in_conflict");
        st.commit(1, 1);
        assert_eq!(st.record_count(), 0);
    }

    #[test]
    fn committed_pivot_kills_the_caller() {
        // T2 becomes a pivot only after it committed: T1's later read
        // completes the structure and must abort T1 instead.
        let mut st = SsiState::default();
        st.begin(1, 0);
        st.begin(2, 0);
        st.begin(3, 0);
        st.on_read(2, &[k("a")]).expect("t2 reads a");
        st.on_write(3, &[k("a")]).expect("t3 writes a: t2.out, t3.in");
        st.on_write(2, &[k("b")]).expect("t2 intends b");
        st.precommit(2).expect("t2 has only out_conflict");
        st.commit(2, 1);
        let err = st.on_read(1, &[k("b")]).expect_err("t1 reads committed pivot's write");
        assert_eq!(err.txn, 1);
        assert_eq!(err.pivot, 2, "the committed both-flag txn is named");
        st.abort(1);
    }

    #[test]
    fn table_sireads_catch_phantom_writers() {
        let mut st = SsiState::default();
        st.begin(1, 0);
        st.begin(2, 0);
        st.on_read(1, &[SsiKey::Table("emp".into())]).expect("t1 scans emp");
        st.on_write(2, &[SsiKey::Point(Key::row("emp", 7)), SsiKey::Table("emp".into())])
            .expect("t2 inserts into emp: rw edge t1 -> t2");
        assert_eq!(st.flags(1), Some((false, true)));
        assert_eq!(st.flags(2), Some((true, false)));
    }

    #[test]
    fn aborted_records_leave_nothing_behind() {
        let mut st = SsiState::default();
        st.begin(1, 0);
        st.on_read(1, &[k("x")]).expect("read");
        st.abort(1);
        assert!(!st.tracked(1));
        assert_eq!(st.record_count(), 0);
        assert_eq!(st.siread_count(1), 0);
    }

    #[test]
    fn deferred_self_pivot_aborts_at_next_action() {
        // T1 is made a pivot by its peers' markings while idle; its next
        // operation must fail even though that operation itself conflicts
        // with nothing.
        let mut st = SsiState::default();
        st.begin(1, 0);
        st.begin(2, 0);
        st.begin(3, 0);
        st.on_read(1, &[k("a")]).expect("t1 reads a");
        st.on_write(1, &[k("b")]).expect("t1 writes b");
        st.on_write(2, &[k("a")]).expect("t2 writes a: t1.out");
        st.on_read(3, &[k("b")]).expect("t3 reads b: t1.in");
        let err = st.on_read(1, &[k("z")]).expect_err("t1 is now a pivot");
        assert_eq!((err.txn, err.pivot), (1, 1));
        let err = st.precommit(1).expect_err("and cannot commit either");
        assert_eq!((err.txn, err.pivot), (1, 1));
    }
}
