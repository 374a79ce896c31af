//! The lock table: sharded grants, FIFO waiters, deadlock detection.
//!
//! The table is split into `LockConfig::shards` independent shards, each
//! with its own mutex and condvar. Targets route to shards by hash — points
//! by their [`Key`], predicate locks by table — chosen so that any two
//! *conflictable* targets always land in the same shard (a point never
//! conflicts with a predicate, points only conflict when equal, and
//! predicates only conflict on the same table). Disjoint keys therefore
//! never contend on a shared mutex. Request sequence numbers come from one
//! global atomic, preserving FIFO fairness per key, and deadlock detection
//! merges a snapshot of every shard so waits-for cycles that span shards
//! are still found.

use crate::error::LockError;
use parking_lot::{Condvar, Mutex};
use semcc_faults::{FaultInjector, FaultKind};
use semcc_logic::prover::{Prover, Sat};
use semcc_logic::row::RowPred;
use semcc_logic::Pred;
use semcc_storage::Key;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Lock mode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Shared (read) lock.
    S,
    /// Exclusive (write) lock.
    X,
}

impl Mode {
    /// S is compatible with S; everything else conflicts.
    pub fn compatible(self, other: Mode) -> bool {
        matches!((self, other), (Mode::S, Mode::S))
    }

    /// Whether holding `self` already covers a request for `req`.
    pub fn covers(self, req: Mode) -> bool {
        self == Mode::X || req == Mode::S
    }
}

/// What is being locked: a point or a region.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Target {
    /// One item or one row slot. Conflicts with an equal key only.
    Key(Key),
    /// A predicate over a table's rows. Conflicts with other predicate
    /// locks on the same table whose predicates may intersect.
    Pred {
        /// Table name.
        table: String,
        /// The locked region.
        pred: RowPred,
    },
}

impl Target {
    /// Item-lock constructor.
    pub fn item(name: impl Into<String>) -> Self {
        Target::Key(Key::item(name))
    }

    /// Row-lock constructor.
    pub fn row(table: impl Into<String>, id: u64) -> Self {
        Target::Key(Key::row(table, id))
    }

    /// Predicate-lock constructor.
    pub fn pred(table: impl Into<String>, pred: RowPred) -> Self {
        Target::Pred { table: table.into(), pred }
    }
}

#[derive(Clone, Debug)]
struct Grant {
    txn: u64,
    target: Target,
    mode: Mode,
    count: u32,
}

#[derive(Clone, Debug)]
struct Waiter {
    seq: u64,
    txn: u64,
    target: Target,
    mode: Mode,
}

#[derive(Default)]
struct State {
    grants: Vec<Grant>,
    waiters: Vec<Waiter>,
}

struct Shard {
    state: Mutex<State>,
    cv: Condvar,
}

impl Default for Shard {
    fn default() -> Self {
        Shard { state: Mutex::new(State::default()), cv: Condvar::new() }
    }
}

/// Configuration for the lock manager.
#[derive(Clone, Debug)]
pub struct LockConfig {
    /// Maximum time a request may wait before failing with
    /// [`LockError::Timeout`].
    pub wait_timeout: Duration,
    /// Optional fault injector consulted on every acquisition; when it
    /// fires, the request fails with a spurious timeout or deadlock
    /// without touching the lock table.
    pub injector: Option<Arc<FaultInjector>>,
    /// Number of lock-table shards (clamped to ≥ 1). 1 reproduces the
    /// historical single-mutex table; servers use a power of two so
    /// disjoint-key transactions never contend on one global lock.
    pub shards: usize,
}

impl Default for LockConfig {
    fn default() -> Self {
        LockConfig { wait_timeout: Duration::from_secs(5), injector: None, shards: 1 }
    }
}

/// Contention counters, cumulative since construction or [`LockManager::clear`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LockStats {
    /// Acquisitions that could not be granted immediately and had to queue.
    pub waits: u64,
    /// Waits that ended in a timeout abort.
    pub timeouts: u64,
    /// Waits refused because they would have closed a waits-for cycle.
    pub deadlocks: u64,
}

/// The lock manager. One instance is shared by all engine threads.
pub struct LockManager {
    shards: Vec<Shard>,
    next_seq: AtomicU64,
    prover: Prover,
    config: LockConfig,
    waits: AtomicU64,
    timeouts: AtomicU64,
    deadlocks: AtomicU64,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(LockConfig::default())
    }
}

impl LockManager {
    /// Build a lock manager with the given configuration.
    pub fn new(config: LockConfig) -> Self {
        let n = config.shards.max(1);
        LockManager {
            shards: (0..n).map(|_| Shard::default()).collect(),
            next_seq: AtomicU64::new(0),
            prover: Prover::new(),
            config,
            waits: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            deadlocks: AtomicU64::new(0),
        }
    }

    /// Number of shards the table was built with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cumulative contention counters.
    pub fn stats(&self) -> LockStats {
        LockStats {
            waits: self.waits.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            deadlocks: self.deadlocks.load(Ordering::Relaxed),
        }
    }

    /// The shard a target routes to. Two targets that can conflict always
    /// hash identically: points by key, predicates by table alone (any two
    /// predicates on one table may intersect).
    fn shard_index(&self, target: &Target) -> usize {
        if self.shards.len() == 1 {
            return 0;
        }
        // `DefaultHasher::new()` is unkeyed, so routing repeats across runs.
        let mut h = DefaultHasher::new();
        match target {
            Target::Key(key) => key.hash(&mut h),
            Target::Pred { table, .. } => table.hash(&mut h),
        }
        (h.finish() % self.shards.len() as u64) as usize
    }

    /// Drop every grant and waiter, returning the manager to its freshly
    /// constructed state. Only sound when no transaction is in flight —
    /// used by the engine's deterministic replay reset. Parked waiters (if
    /// any) are woken so they re-evaluate and fail fast.
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut state = shard.state.lock();
            *state = State::default();
            shard.cv.notify_all();
        }
        self.next_seq.store(0, Ordering::Release);
        self.waits.store(0, Ordering::Relaxed);
        self.timeouts.store(0, Ordering::Relaxed);
        self.deadlocks.store(0, Ordering::Relaxed);
    }

    /// Whether two (txn, target, mode) requests conflict.
    fn conflicts(&self, a_target: &Target, a_mode: Mode, b_target: &Target, b_mode: Mode) -> bool {
        if a_mode.compatible(b_mode) {
            return false;
        }
        match (a_target, b_target) {
            (Target::Key(x), Target::Key(y)) => x == y,
            (Target::Pred { table: t1, pred: p1 }, Target::Pred { table: t2, pred: p2 }) => {
                if t1 != t2 {
                    return false;
                }
                // Predicates conflict when their conjunction may be
                // satisfiable (Unknown counts as a conflict — sound).
                let joint = Pred::and([p1.to_scalar(), p2.to_scalar()]);
                !matches!(self.prover.sat(&joint), Sat::Unsat)
            }
            _ => false,
        }
    }

    /// A merged copy of every shard's grants and waiters, for deadlock
    /// detection (waits-for cycles may span shards). Shards are visited in
    /// index order without nesting their locks, so this never deadlocks
    /// with concurrent acquires; the caller's own waiter is already
    /// registered before snapshotting, which guarantees the *last* member
    /// of any cycle to queue observes the whole cycle.
    fn snapshot(&self) -> State {
        let mut merged = State::default();
        for shard in &self.shards {
            let state = shard.state.lock();
            merged.grants.extend(state.grants.iter().cloned());
            merged.waiters.extend(state.waiters.iter().cloned());
        }
        merged
    }

    /// Acquire a lock, blocking if necessary.
    pub fn acquire(&self, txn: u64, target: Target, mode: Mode) -> Result<(), LockError> {
        // Fault injection: every acquisition request is an opportunity for
        // a spurious failure, reported before the lock table is touched so
        // the victim's abort path does the whole cleanup.
        if let Some(inj) = &self.config.injector {
            match inj.on_acquire(txn) {
                Some(FaultKind::LockTimeout) => return Err(LockError::Timeout { txn }),
                Some(FaultKind::LockDeadlock) => {
                    return Err(LockError::Deadlock { victim: txn, cycle: vec![txn] })
                }
                _ => {}
            }
        }
        let shard = &self.shards[self.shard_index(&target)];
        let mut state = shard.state.lock();

        // Reentrancy / upgrade bookkeeping.
        if let Some(g) = state.grants.iter_mut().find(|g| g.txn == txn && g.target == target) {
            if g.mode.covers(mode) {
                g.count += 1;
                return Ok(());
            }
            // S → X upgrade: fall through to the wait loop; the request is
            // treated as an X request whose own S grant is ignored.
        }

        let seq = self.next_seq.fetch_add(1, Ordering::Relaxed);
        let waiter = Waiter { seq, txn, target, mode };

        if !self.grantable(&state, &waiter) {
            self.waits.fetch_add(1, Ordering::Relaxed);
            // Register the waiter, then check for a cycle against a merged
            // snapshot of all shards (the wait edge may close a cycle whose
            // other edges live elsewhere). The waiter must be visible
            // before the snapshot so concurrent requesters see it too.
            state.waiters.push(waiter.clone());
            drop(state);
            let snap = self.snapshot();
            if let Some(cycle) = self.find_cycle(&snap, &waiter) {
                let mut state = shard.state.lock();
                state.waiters.retain(|w| w.seq != seq);
                drop(state);
                shard.cv.notify_all();
                self.deadlocks.fetch_add(1, Ordering::Relaxed);
                return Err(LockError::Deadlock { victim: txn, cycle });
            }
            state = shard.state.lock();
            let deadline = Instant::now() + self.config.wait_timeout;
            loop {
                if self.grantable(&state, &waiter) {
                    state.waiters.retain(|w| w.seq != seq);
                    break;
                }
                if shard.cv.wait_until(&mut state, deadline).timed_out() {
                    state.waiters.retain(|w| w.seq != seq);
                    drop(state);
                    shard.cv.notify_all();
                    self.timeouts.fetch_add(1, Ordering::Relaxed);
                    return Err(LockError::Timeout { txn });
                }
            }
        }

        self.install_grant(&mut state, txn, waiter.target, mode);
        drop(state);
        // Granting may unblock fairness-ordered waiters behind us only when
        // locks are *released*, but an upgrade consumed a waiter slot —
        // conservatively wake everyone to re-check.
        shard.cv.notify_all();
        Ok(())
    }

    fn install_grant(&self, state: &mut State, txn: u64, target: Target, mode: Mode) {
        if let Some(g) = state.grants.iter_mut().find(|g| g.txn == txn && g.target == target) {
            // Upgrade S → X.
            g.mode = Mode::X;
            g.count += 1;
        } else {
            state.grants.push(Grant { txn, target, mode, count: 1 });
        }
    }

    /// A request is grantable when it conflicts with no *other* transaction's
    /// grant and no earlier-queued conflicting waiter of another transaction
    /// (FIFO fairness; prevents reader streams from starving writers).
    /// `w` itself may or may not be present in `state.waiters`.
    fn grantable(&self, state: &State, w: &Waiter) -> bool {
        for g in &state.grants {
            if g.txn != w.txn && self.conflicts(&w.target, w.mode, &g.target, g.mode) {
                return false;
            }
        }
        for other in &state.waiters {
            if other.txn != w.txn
                && other.seq < w.seq
                && self.conflicts(&w.target, w.mode, &other.target, other.mode)
            {
                return false;
            }
        }
        true
    }

    /// The transactions a waiter is currently waiting for.
    fn blockers(&self, state: &State, w: &Waiter) -> Vec<u64> {
        let mut out = Vec::new();
        for g in &state.grants {
            if g.txn != w.txn && self.conflicts(&w.target, w.mode, &g.target, g.mode) {
                out.push(g.txn);
            }
        }
        for other in &state.waiters {
            if other.txn != w.txn
                && other.seq < w.seq
                && self.conflicts(&w.target, w.mode, &other.target, other.mode)
            {
                out.push(other.txn);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// DFS over the waits-for graph starting from a (just-registered) new
    /// waiter. Returns the cycle (as txn ids, starting with the requester)
    /// if this wait closes one.
    fn find_cycle(&self, state: &State, new_waiter: &Waiter) -> Option<Vec<u64>> {
        let start = new_waiter.txn;
        let mut stack = vec![(start, self.blockers(state, new_waiter))];
        let mut path = vec![start];
        let mut visited = vec![start];
        while let Some((_, succs)) = stack.last_mut() {
            match succs.pop() {
                None => {
                    stack.pop();
                    path.pop();
                }
                Some(next) => {
                    if next == start {
                        return Some(path.clone());
                    }
                    if visited.contains(&next) {
                        continue;
                    }
                    visited.push(next);
                    // Successors of `next` are the blockers of its waits.
                    let mut nexts = Vec::new();
                    for w in state.waiters.iter().filter(|w| w.txn == next) {
                        nexts.extend(self.blockers(state, w));
                    }
                    nexts.sort_unstable();
                    nexts.dedup();
                    path.push(next);
                    stack.push((next, nexts));
                }
            }
        }
        None
    }

    /// Release one unit of a (short-duration) lock held by `txn` on `target`.
    /// When the reentrancy count reaches zero the grant is removed.
    pub fn release(&self, txn: u64, target: &Target) {
        let shard = &self.shards[self.shard_index(target)];
        let mut state = shard.state.lock();
        if let Some(pos) = state.grants.iter().position(|g| g.txn == txn && &g.target == target) {
            let g = &mut state.grants[pos];
            g.count -= 1;
            if g.count == 0 {
                state.grants.remove(pos);
            }
        }
        drop(state);
        shard.cv.notify_all();
    }

    /// Release every lock held by `txn` (commit/abort).
    pub fn release_all(&self, txn: u64) {
        for shard in &self.shards {
            let mut state = shard.state.lock();
            let before = state.grants.len() + state.waiters.len();
            state.grants.retain(|g| g.txn != txn);
            state.waiters.retain(|w| w.txn != txn);
            let changed = before != state.grants.len() + state.waiters.len();
            drop(state);
            if changed || self.shards.len() == 1 {
                shard.cv.notify_all();
            }
        }
    }

    /// Number of grants currently held by `txn` (tests/metrics).
    pub fn held_by(&self, txn: u64) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().grants.iter().filter(|g| g.txn == txn).count())
            .sum()
    }

    /// Total grants (tests/metrics).
    pub fn total_grants(&self) -> usize {
        self.shards.iter().map(|s| s.state.lock().grants.len()).sum()
    }

    /// Number of queued waiters owned by `txn` (post-abort auditing: a
    /// finished transaction must have none).
    pub fn waiting_by(&self, txn: u64) -> usize {
        self.shards
            .iter()
            .map(|s| s.state.lock().waiters.iter().filter(|w| w.txn == txn).count())
            .sum()
    }

    /// Total queued waiters (tests/metrics).
    pub fn total_waiters(&self) -> usize {
        self.shards.iter().map(|s| s.state.lock().waiters.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    fn mgr() -> Arc<LockManager> {
        Arc::new(LockManager::new(LockConfig {
            wait_timeout: Duration::from_millis(300),
            ..LockConfig::default()
        }))
    }

    fn sharded(n: usize) -> Arc<LockManager> {
        Arc::new(LockManager::new(LockConfig {
            wait_timeout: Duration::from_millis(300),
            shards: n,
            ..LockConfig::default()
        }))
    }

    #[test]
    fn shared_locks_coexist() {
        let m = mgr();
        m.acquire(1, Target::item("x"), Mode::S).expect("t1 s");
        m.acquire(2, Target::item("x"), Mode::S).expect("t2 s");
        assert_eq!(m.total_grants(), 2);
    }

    #[test]
    fn exclusive_blocks_until_release() {
        let m = mgr();
        m.acquire(1, Target::item("x"), Mode::X).expect("t1 x");
        let m2 = m.clone();
        let got = Arc::new(AtomicBool::new(false));
        let got2 = got.clone();
        let h = std::thread::spawn(move || {
            m2.acquire(2, Target::item("x"), Mode::X).expect("t2 x after release");
            got2.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!got.load(Ordering::SeqCst), "t2 must still be blocked");
        m.release_all(1);
        h.join().expect("join");
        assert!(got.load(Ordering::SeqCst));
    }

    #[test]
    fn reentrant_acquire_and_release() {
        let m = mgr();
        m.acquire(1, Target::item("x"), Mode::X).expect("x");
        m.acquire(1, Target::item("x"), Mode::X).expect("x again");
        m.acquire(1, Target::item("x"), Mode::S).expect("s covered by x");
        assert_eq!(m.held_by(1), 1);
        m.release(1, &Target::item("x"));
        m.release(1, &Target::item("x"));
        assert_eq!(m.held_by(1), 1, "count 3 minus 2 releases");
        m.release(1, &Target::item("x"));
        assert_eq!(m.held_by(1), 0);
    }

    #[test]
    fn upgrade_succeeds_when_alone() {
        let m = mgr();
        m.acquire(1, Target::item("x"), Mode::S).expect("s");
        m.acquire(1, Target::item("x"), Mode::X).expect("upgrade");
        // Now exclusive: another reader must block (timeout).
        assert!(matches!(
            m.acquire(2, Target::item("x"), Mode::S),
            Err(LockError::Timeout { txn: 2 })
        ));
    }

    #[test]
    fn upgrade_deadlock_detected() {
        let m = mgr();
        m.acquire(1, Target::item("x"), Mode::S).expect("t1 s");
        m.acquire(2, Target::item("x"), Mode::S).expect("t2 s");
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.acquire(1, Target::item("x"), Mode::X));
        std::thread::sleep(Duration::from_millis(50));
        // t2's upgrade closes the cycle and must be chosen as victim.
        let r = m.acquire(2, Target::item("x"), Mode::X);
        assert!(matches!(r, Err(LockError::Deadlock { victim: 2, .. })), "got {r:?}");
        m.release_all(2);
        h.join().expect("join").expect("t1 upgrade proceeds after victim aborts");
    }

    #[test]
    fn two_item_deadlock_detected() {
        let m = mgr();
        m.acquire(1, Target::item("x"), Mode::X).expect("t1 x");
        m.acquire(2, Target::item("y"), Mode::X).expect("t2 y");
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.acquire(1, Target::item("y"), Mode::X));
        std::thread::sleep(Duration::from_millis(50));
        let r = m.acquire(2, Target::item("x"), Mode::X);
        assert!(matches!(r, Err(LockError::Deadlock { victim: 2, .. })), "got {r:?}");
        m.release_all(2);
        h.join().expect("join").expect("t1 proceeds");
    }

    #[test]
    fn row_locks_are_per_row() {
        let m = mgr();
        m.acquire(1, Target::row("orders", 1), Mode::X).expect("r1");
        m.acquire(2, Target::row("orders", 2), Mode::X).expect("r2 distinct row");
        m.acquire(3, Target::row("cust", 1), Mode::X).expect("same id different table");
    }

    #[test]
    fn predicate_locks_conflict_on_intersection() {
        use semcc_logic::row::RowPred;
        let m = mgr();
        // date = 5 locked exclusively
        m.acquire(1, Target::pred("orders", RowPred::field_eq_int("date", 5)), Mode::X)
            .expect("p1");
        // date = 6 is disjoint: grant
        m.acquire(2, Target::pred("orders", RowPred::field_eq_int("date", 6)), Mode::X)
            .expect("disjoint predicate");
        // date = 5 again (same region, other txn): conflict → timeout
        assert!(matches!(
            m.acquire(3, Target::pred("orders", RowPred::field_eq_int("date", 5)), Mode::X),
            Err(LockError::Timeout { txn: 3 })
        ));
        // whole-table S select conflicts with the X pred lock
        assert!(matches!(
            m.acquire(4, Target::pred("orders", RowPred::True), Mode::S),
            Err(LockError::Timeout { txn: 4 })
        ));
        // S/S predicate locks coexist even when intersecting
        m.acquire(5, Target::pred("cust", RowPred::True), Mode::S).expect("s1");
        m.acquire(6, Target::pred("cust", RowPred::True), Mode::S).expect("s2");
    }

    #[test]
    fn predicate_lock_on_different_tables_no_conflict() {
        let m = mgr();
        m.acquire(1, Target::pred("a", RowPred::True), Mode::X).expect("a");
        m.acquire(2, Target::pred("b", RowPred::True), Mode::X).expect("b");
    }

    #[test]
    fn fifo_fairness_blocks_late_readers_behind_writer() {
        let m = mgr();
        m.acquire(1, Target::item("x"), Mode::S).expect("t1 s");
        // t2 queues an X request behind t1's S.
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.acquire(2, Target::item("x"), Mode::X));
        std::thread::sleep(Duration::from_millis(50));
        // t3's S must NOT overtake the queued X (starvation guard): even
        // though it is compatible with t1's granted S, it must block.
        let m3 = m.clone();
        let t3_got = Arc::new(AtomicBool::new(false));
        let t3_flag = t3_got.clone();
        let h3 = std::thread::spawn(move || {
            m3.acquire(3, Target::item("x"), Mode::S).expect("t3 eventually");
            t3_flag.store(true, Ordering::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(80));
        assert!(!t3_got.load(Ordering::SeqCst), "reader must queue behind writer");
        m.release_all(1);
        h.join().expect("join").expect("writer proceeds");
        m.release_all(2);
        h3.join().expect("join");
        assert!(t3_got.load(Ordering::SeqCst));
    }

    #[test]
    fn release_all_clears_everything() {
        let m = mgr();
        m.acquire(1, Target::item("x"), Mode::X).expect("x");
        m.acquire(1, Target::item("y"), Mode::S).expect("y");
        m.acquire(1, Target::row("t", 1), Mode::X).expect("row");
        assert_eq!(m.held_by(1), 3);
        m.release_all(1);
        assert_eq!(m.held_by(1), 0);
        m.acquire(2, Target::item("x"), Mode::X).expect("free after release_all");
    }

    #[test]
    fn concurrent_increments_serialize() {
        // 8 threads × 50 X-locked critical sections: all succeed, no panic.
        let m = mgr();
        let counter = Arc::new(parking_lot::Mutex::new(0u64));
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = m.clone();
            let counter = counter.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50u64 {
                    let txn = t * 1000 + i;
                    m.acquire(txn, Target::item("ctr"), Mode::X).expect("acquire");
                    *counter.lock() += 1;
                    m.release_all(txn);
                }
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        assert_eq!(*counter.lock(), 400);
    }

    // ---- sharded-mode tests ---------------------------------------------

    #[test]
    fn sharded_routes_conflicting_targets_to_one_shard() {
        // Conflict semantics must be identical at any shard count: the same
        // item, row, or table-predicate always lands in one shard.
        for shards in [2, 8, 32] {
            let m = sharded(shards);
            assert_eq!(m.shard_count(), shards);
            m.acquire(1, Target::item("x"), Mode::X).expect("x");
            assert!(matches!(
                m.acquire(2, Target::item("x"), Mode::X),
                Err(LockError::Timeout { txn: 2 })
            ));
            m.acquire(3, Target::row("t", 7), Mode::X).expect("row");
            assert!(m.acquire(4, Target::row("t", 7), Mode::X).is_err());
            m.acquire(5, Target::pred("t", RowPred::field_eq_int("a", 1)), Mode::X).expect("pred");
            assert!(m
                .acquire(6, Target::pred("t", RowPred::field_eq_int("a", 1)), Mode::X)
                .is_err());
        }
    }

    #[test]
    fn sharded_disjoint_keys_grant_concurrently() {
        // 8 threads on 8 distinct items through a 32-shard table: nothing
        // blocks, every grant and release succeeds.
        let m = sharded(32);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = m.clone();
            handles.push(std::thread::spawn(move || {
                let item = format!("k{t}");
                for i in 0..200u64 {
                    let txn = t * 10_000 + i;
                    m.acquire(txn, Target::item(&item), Mode::X).expect("disjoint acquire");
                    m.release_all(txn);
                }
            }));
        }
        for h in handles {
            h.join().expect("join");
        }
        assert_eq!(m.total_grants(), 0);
        assert_eq!(m.stats().timeouts, 0, "disjoint keys must never time out");
        assert_eq!(m.stats().deadlocks, 0);
    }

    #[test]
    fn sharded_cross_shard_deadlock_detected() {
        // The two lock targets will usually live in different shards; the
        // waits-for cycle must still be found via the merged snapshot.
        let m = sharded(16);
        m.acquire(1, Target::item("alpha"), Mode::X).expect("t1 alpha");
        m.acquire(2, Target::item("beta"), Mode::X).expect("t2 beta");
        let m2 = m.clone();
        let h = std::thread::spawn(move || m2.acquire(1, Target::item("beta"), Mode::X));
        std::thread::sleep(Duration::from_millis(50));
        let r = m.acquire(2, Target::item("alpha"), Mode::X);
        assert!(matches!(r, Err(LockError::Deadlock { victim: 2, .. })), "got {r:?}");
        assert!(m.stats().deadlocks >= 1);
        m.release_all(2);
        h.join().expect("join").expect("t1 proceeds");
    }

    #[test]
    fn stats_count_waits_and_timeouts() {
        let m = mgr();
        assert_eq!(m.stats(), LockStats::default());
        m.acquire(1, Target::item("x"), Mode::X).expect("x");
        assert_eq!(m.stats().waits, 0, "uncontended grant is not a wait");
        assert!(m.acquire(2, Target::item("x"), Mode::X).is_err());
        let s = m.stats();
        assert_eq!((s.waits, s.timeouts), (1, 1));
        m.clear();
        assert_eq!(m.stats(), LockStats::default());
    }
}
