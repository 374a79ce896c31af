//! The timestamp oracle and first-committer-wins commit log.

use crate::ssi::{SsiConflict, SsiKey, SsiState};
use parking_lot::Mutex;
use semcc_storage::{Commit, Key, Ts, TxnId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A first-committer-wins validation failure: some other transaction
/// committed a write to `key` after the requester's protected timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FcwConflict {
    /// The contended key.
    pub key: Key,
    /// When the conflicting write committed.
    pub committed_ts: Ts,
    /// The timestamp the requester needed the key unchanged since
    /// (snapshot start for SNAPSHOT, item read time for RC-FCW).
    pub since_ts: Ts,
}

impl fmt::Display for FcwConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "first-committer-wins conflict on {}: committed at {} > protected since {}",
            self.key, self.committed_ts, self.since_ts
        )
    }
}

impl std::error::Error for FcwConflict {}

/// Why an SSI commit attempt was refused: the first-committer-wins
/// validation lost, or the transaction is a dangerous-structure pivot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CommitConflict {
    /// First-committer-wins validation failed.
    Fcw(FcwConflict),
    /// The committing transaction carries both rw-antidependency flags.
    Ssi(SsiConflict),
}

impl fmt::Display for CommitConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitConflict::Fcw(e) => e.fmt(f),
            CommitConflict::Ssi(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CommitConflict {}

#[derive(Default)]
struct CommitLog {
    /// Last committed write timestamp per key. Never pruned: an RC+FCW
    /// check is `since` the version it read, which no snapshot registers,
    /// so no watermark bounds the entries a check may still need. The map
    /// holds one entry per key ever written.
    last_write: HashMap<Key, Ts>,
}

/// The oracle: transaction ids, commit timestamps, active snapshots, and
/// the commit log backing first-committer-wins validation.
pub struct Oracle {
    next_txn: AtomicU64,
    /// Last assigned commit timestamp. Snapshot reads use this as "now".
    last_commit: AtomicU64,
    log: Mutex<CommitLog>,
    /// Active snapshots: snapshot ts per transaction. Their minimum is the
    /// watermark every install trims to. Lock order: `log`, `ssi`, then
    /// `snapshots`; ending a snapshot takes only `snapshots`.
    snapshots: Mutex<BTreeMap<TxnId, Ts>>,
    /// SSI registry: SIREAD locks, write intents, and rw-antidependency
    /// flags per tracked transaction. Lock order: `log` before `ssi`
    /// (the commit critical section takes both); read/write marking takes
    /// only `ssi`.
    ssi: Mutex<SsiState>,
    /// Successful commits through the validation critical section.
    commits: AtomicU64,
    /// First-committer-wins validation losses.
    fcw_failures: AtomicU64,
}

impl Default for Oracle {
    fn default() -> Self {
        Oracle::new()
    }
}

impl Oracle {
    /// A fresh oracle. Timestamp 0 is reserved for bulk-loaded initial
    /// state; the first commit gets timestamp 1.
    pub fn new() -> Self {
        Oracle {
            next_txn: AtomicU64::new(1),
            last_commit: AtomicU64::new(0),
            log: Mutex::new(CommitLog::default()),
            snapshots: Mutex::new(BTreeMap::new()),
            ssi: Mutex::new(SsiState::default()),
            commits: AtomicU64::new(0),
            fcw_failures: AtomicU64::new(0),
        }
    }

    /// Successful commits since construction or [`Oracle::reset`]
    /// (server metrics).
    pub fn commit_count(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    /// First-committer-wins validation losses since construction or
    /// [`Oracle::reset`] (server metrics).
    pub fn fcw_failure_count(&self) -> u64 {
        self.fcw_failures.load(Ordering::Relaxed)
    }

    /// Allocate a transaction id.
    pub fn next_txn_id(&self) -> TxnId {
        self.next_txn.fetch_add(1, Ordering::Relaxed)
    }

    /// The newest committed timestamp ("now" for starting snapshots).
    pub fn current_ts(&self) -> Ts {
        self.last_commit.load(Ordering::Acquire)
    }

    /// Register an active snapshot at the current timestamp; returns the
    /// snapshot timestamp the transaction reads at.
    pub fn begin_snapshot(&self, txn: TxnId) -> Ts {
        // Take the log lock so no commit can slide between reading "now"
        // and registering the snapshot: that commit would read a watermark
        // without this snapshot and trim away the version it needs.
        let _log = self.log.lock();
        let ts = self.current_ts();
        self.snapshots.lock().insert(txn, ts);
        ts
    }

    /// Deregister a snapshot (commit or abort of a SNAPSHOT transaction).
    pub fn end_snapshot(&self, txn: TxnId) {
        self.snapshots.lock().remove(&txn);
    }

    /// Whether `txn` still has a registered snapshot (post-abort auditing:
    /// a finished transaction must not).
    pub fn has_snapshot(&self, txn: TxnId) -> bool {
        self.snapshots.lock().contains_key(&txn)
    }

    /// Number of registered snapshots (tests/metrics).
    pub fn active_snapshots(&self) -> usize {
        self.snapshots.lock().len()
    }

    /// Return to the freshly constructed state: txn ids restart at 1,
    /// timestamps at 0, and the commit log and snapshot registry are
    /// emptied. Only sound when no transaction is in flight — used by the
    /// engine's deterministic replay reset, where identical schedules must
    /// reproduce identical ids and timestamps.
    pub fn reset(&self) {
        let mut log = self.log.lock();
        log.last_write.clear();
        self.snapshots.lock().clear();
        self.ssi.lock().clear();
        self.next_txn.store(1, Ordering::Release);
        self.last_commit.store(0, Ordering::Release);
        self.commits.store(0, Ordering::Relaxed);
        self.fcw_failures.store(0, Ordering::Relaxed);
    }

    /// Advance the commit clock to at least `ts` (recovery: the WAL's
    /// newest commit timestamp must be re-reserved so post-recovery
    /// commits stay monotone).
    pub fn advance_to(&self, ts: Ts) {
        self.last_commit.fetch_max(ts, Ordering::AcqRel);
    }

    /// Advance the txn-id allocator past `id` (recovery: replayed
    /// transaction ids must never be re-issued).
    pub fn advance_txn_past(&self, id: TxnId) {
        self.next_txn.fetch_max(id + 1, Ordering::AcqRel);
    }

    /// The watermark: no active snapshot reads below this timestamp.
    pub fn watermark(&self) -> Ts {
        self.oldest_snapshot().unwrap_or_else(|| self.current_ts())
    }

    fn oldest_snapshot(&self) -> Option<Ts> {
        self.snapshots.lock().values().copied().min()
    }

    /// Atomically validate first-committer-wins `checks` and, on success,
    /// assign a commit timestamp and record `writes` in the commit log.
    ///
    /// Each check `(key, since_ts)` fails if some transaction committed a
    /// write to `key` at a timestamp `> since_ts`. Non-FCW transactions
    /// commit with empty `checks` but still record their writes, so FCW
    /// transactions observe conflicts with them too.
    pub fn validate_and_commit(
        &self,
        checks: &[(Key, Ts)],
        writes: &[Key],
    ) -> Result<Ts, FcwConflict> {
        self.validate_and_commit_with(checks, writes, |_| {})
    }

    /// Like [`Oracle::validate_and_commit`], but runs `install` (which
    /// should publish the transaction's versions to storage) *inside* the
    /// commit critical section. Because [`Oracle::begin_snapshot`] takes the
    /// same lock, no snapshot can start at a timestamp whose versions are
    /// not yet installed — the commit is atomic from every reader's view.
    /// For the same reason the [`Commit`] handed to `install` carries a
    /// watermark no open snapshot is below: the oldest one, or the commit
    /// timestamp when none is open. A snapshot ending meanwhile only makes
    /// it lower than it could be, which is safe.
    pub fn validate_and_commit_with(
        &self,
        checks: &[(Key, Ts)],
        writes: &[Key],
        install: impl FnOnce(Commit),
    ) -> Result<Ts, FcwConflict> {
        self.commit_section(None, checks, writes, install).map_err(|e| match e {
            CommitConflict::Fcw(e) => e,
            CommitConflict::Ssi(_) => unreachable!("no SSI check runs without a transaction"),
        })
    }

    /// The commit critical section: validate `checks`, run the SSI
    /// precommit check when `ssi_txn` names a tracked transaction, assign
    /// the timestamp, record `writes`, stamp the SSI record committed, read
    /// the watermark, run `install`. The commit-log lock is held
    /// throughout, the SSI lock from the precommit check on.
    fn commit_section(
        &self,
        ssi_txn: Option<TxnId>,
        checks: &[(Key, Ts)],
        writes: &[Key],
        install: impl FnOnce(Commit),
    ) -> Result<Ts, CommitConflict> {
        let mut log = self.log.lock();
        for (key, since) in checks {
            if let Some(committed) = log.last_write.get(key) {
                if committed > since {
                    self.fcw_failures.fetch_add(1, Ordering::Relaxed);
                    return Err(CommitConflict::Fcw(FcwConflict {
                        key: key.clone(),
                        committed_ts: *committed,
                        since_ts: *since,
                    }));
                }
            }
        }
        let mut ssi = ssi_txn.map(|txn| (txn, self.ssi.lock()));
        if let Some((txn, ssi)) = &mut ssi {
            ssi.precommit(*txn).map_err(CommitConflict::Ssi)?;
        }
        let ts = self.last_commit.fetch_add(1, Ordering::AcqRel) + 1;
        for key in writes {
            log.last_write.insert(key.clone(), ts);
        }
        if let Some((txn, ssi)) = &mut ssi {
            ssi.commit(*txn, ts);
        }
        self.commits.fetch_add(1, Ordering::Relaxed);
        install(Commit { ts, watermark: self.oldest_snapshot().unwrap_or(ts) });
        Ok(ts)
    }

    /// Commit without validation (read-only or plain locking transactions
    /// with no FCW obligations) but still recording writes.
    pub fn commit(&self, writes: &[Key]) -> Ts {
        self.validate_and_commit(&[], writes).expect("no checks cannot fail")
    }

    /// Number of commit-log entries (metrics/tests).
    pub fn log_len(&self) -> usize {
        self.log.lock().last_write.len()
    }

    // -- Serializable Snapshot Isolation ----------------------------------

    /// Start SSI tracking for `txn`, whose snapshot was taken at
    /// `snapshot_ts` (from [`Oracle::begin_snapshot`]).
    pub fn ssi_begin(&self, txn: TxnId, snapshot_ts: Ts) {
        self.ssi.lock().begin(txn, snapshot_ts);
    }

    /// Register SIREAD locks and mark rw-antidependencies for a read.
    pub fn ssi_on_read(&self, txn: TxnId, keys: &[SsiKey]) -> Result<(), SsiConflict> {
        self.ssi.lock().on_read(txn, keys)
    }

    /// Register write intents and mark rw-antidependencies for a write.
    pub fn ssi_on_write(&self, txn: TxnId, keys: &[SsiKey]) -> Result<(), SsiConflict> {
        self.ssi.lock().on_write(txn, keys)
    }

    /// Like [`Oracle::validate_and_commit_with`] but for an SSI
    /// transaction: the dangerous-structure precommit check runs inside
    /// the same critical section that validates first-committer-wins and
    /// assigns the timestamp, so no concurrent marking can slip a pivot
    /// past its commit. On success the record is stamped committed (its
    /// SIREAD locks persist) and the registry is collected.
    pub fn ssi_validate_and_commit_with(
        &self,
        txn: TxnId,
        checks: &[(Key, Ts)],
        writes: &[Key],
        install: impl FnOnce(Commit),
    ) -> Result<Ts, CommitConflict> {
        self.commit_section(Some(txn), checks, writes, install)
    }

    /// Drop an aborted SSI transaction's record (SIREAD locks, write
    /// intents, and conflict flags all vanish with it) and collect.
    pub fn ssi_abort(&self, txn: TxnId) {
        self.ssi.lock().abort(txn);
    }

    /// Whether `txn` still has an SSI record at all (committed records
    /// legitimately persist while concurrent SSI transactions live).
    pub fn ssi_tracked(&self, txn: TxnId) -> bool {
        self.ssi.lock().tracked(txn)
    }

    /// The `(in_conflict, out_conflict)` flags of `txn`, if tracked.
    pub fn ssi_flags(&self, txn: TxnId) -> Option<(bool, bool)> {
        self.ssi.lock().flags(txn)
    }

    /// Number of SIREAD locks `txn` holds (0 when untracked).
    pub fn ssi_siread_count(&self, txn: TxnId) -> usize {
        self.ssi.lock().siread_count(txn)
    }

    /// Total SSI records (active + retained committed) — quiescent
    /// engines must report 0.
    pub fn ssi_record_count(&self) -> usize {
        self.ssi.lock().record_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_ids_monotone() {
        let o = Oracle::new();
        let a = o.next_txn_id();
        let b = o.next_txn_id();
        assert!(b > a);
    }

    #[test]
    fn commit_advances_time() {
        let o = Oracle::new();
        assert_eq!(o.current_ts(), 0);
        let t1 = o.commit(&[Key::item("x")]);
        assert_eq!(t1, 1);
        let t2 = o.commit(&[]);
        assert_eq!(t2, 2);
        assert_eq!(o.current_ts(), 2);
    }

    #[test]
    fn fcw_write_write_conflict() {
        // Two snapshot txns start at ts 0, both write x; first commits, the
        // second must fail validation.
        let o = Oracle::new();
        let snap = o.current_ts();
        let first = o.validate_and_commit(&[(Key::item("x"), snap)], &[Key::item("x")]);
        assert!(first.is_ok());
        let second = o.validate_and_commit(&[(Key::item("x"), snap)], &[Key::item("x")]);
        let err = second.expect_err("second committer must lose");
        assert_eq!(err.key, Key::item("x"));
        assert_eq!(err.since_ts, snap);
    }

    #[test]
    fn fcw_disjoint_writes_both_commit() {
        let o = Oracle::new();
        let snap = o.current_ts();
        assert!(o.validate_and_commit(&[(Key::item("x"), snap)], &[Key::item("x")]).is_ok());
        assert!(o.validate_and_commit(&[(Key::item("y"), snap)], &[Key::item("y")]).is_ok());
    }

    #[test]
    fn fcw_sees_non_fcw_writers() {
        let o = Oracle::new();
        let snap = o.current_ts();
        // A plain locking transaction commits a write to x.
        o.commit(&[Key::item("x")]);
        // The snapshot transaction that started before must now fail.
        let r = o.validate_and_commit(&[(Key::item("x"), snap)], &[Key::item("x")]);
        assert!(r.is_err());
    }

    #[test]
    fn rc_fcw_read_ts_semantics() {
        let o = Oracle::new();
        // T2 reads x at ts 3 (after T-other committed at 1..3); a commit to
        // x at ts 4 must doom it, one at ts ≤ 3 must not.
        o.commit(&[Key::item("x")]); // ts 1
        o.commit(&[]); // ts 2
        o.commit(&[]); // ts 3
        let read_ts = o.current_ts();
        assert!(o.validate_and_commit(&[(Key::item("x"), read_ts)], &[Key::item("x")]).is_ok());
        // now a later write lands
        o.commit(&[Key::item("x")]); // ts 5
        assert!(o.validate_and_commit(&[(Key::item("x"), read_ts)], &[Key::item("x")]).is_err());
    }

    #[test]
    fn watermark_tracks_oldest_snapshot() {
        let o = Oracle::new();
        o.commit(&[]); // ts 1
        let s1 = o.begin_snapshot(10);
        o.commit(&[]); // ts 2
        let s2 = o.begin_snapshot(11);
        assert_eq!((s1, s2), (1, 2));
        assert_eq!(o.watermark(), 1);
        o.end_snapshot(10);
        assert_eq!(o.watermark(), 2);
        o.end_snapshot(11);
        assert_eq!(o.watermark(), o.current_ts());
    }

    #[test]
    fn install_gets_the_oldest_open_snapshot_as_watermark() {
        let o = Oracle::new();
        let commit = || {
            let mut at = None;
            o.validate_and_commit_with(&[], &[], |c| at = Some(c)).expect("no checks");
            at.expect("install ran")
        };
        assert_eq!(commit(), Commit { ts: 1, watermark: 1 }, "no snapshot: its own ts");
        o.begin_snapshot(10);
        o.commit(&[]); // ts 2
        o.begin_snapshot(11);
        assert_eq!(commit(), Commit { ts: 3, watermark: 1 });
        o.end_snapshot(10);
        assert_eq!(commit(), Commit { ts: 4, watermark: 2 });
        o.end_snapshot(11);
        assert_eq!(commit(), Commit { ts: 5, watermark: 5 });
    }

    #[test]
    fn commit_and_fcw_counters_track_outcomes() {
        let o = Oracle::new();
        let snap = o.current_ts();
        o.commit(&[Key::item("x")]);
        assert!(o.validate_and_commit(&[(Key::item("x"), snap)], &[Key::item("x")]).is_err());
        assert_eq!((o.commit_count(), o.fcw_failure_count()), (1, 1));
        o.reset();
        assert_eq!((o.commit_count(), o.fcw_failure_count()), (0, 0));
    }

    #[test]
    fn concurrent_commits_unique_timestamps() {
        use std::collections::HashSet;
        use std::sync::Arc;
        let o = Arc::new(Oracle::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let o = o.clone();
            handles.push(std::thread::spawn(move || {
                (0..100).map(|_| o.commit(&[])).collect::<Vec<_>>()
            }));
        }
        let mut all = HashSet::new();
        for h in handles {
            for ts in h.join().expect("join") {
                assert!(all.insert(ts), "duplicate commit ts {ts}");
            }
        }
        assert_eq!(all.len(), 800);
    }
}
