//! Version retention: every commit trims the version chains it installs
//! into to the oldest open snapshot (DESIGN.md §6, "Version retention").
//! A long-lived reader keeps reading its snapshot while thousands of
//! commits go by, and once it ends the chains collapse to one version.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_engine::{Engine, EngineConfig, IsolationLevel, Op, Ts, Txn, Value};
use semcc_storage::Key;
use semcc_workloads::banking;
use semcc_workloads::driver::{retry, run_mix, Attempted, MixSpec, RetryPolicy};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use IsolationLevel::*;

/// Both tests run two writer threads; one test at a time, neither's
/// writers sit preempted in mid-transaction while the other's run.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

const INITIAL: i64 = 1_000;

fn engine(record_history: bool) -> Arc<Engine> {
    let lock_timeout = Duration::from_millis(100);
    Arc::new(Engine::new(EngineConfig { lock_timeout, record_history, ..EngineConfig::default() }))
}

fn item_names(accounts: usize) -> Vec<String> {
    (0..accounts).flat_map(|i| [format!("acct_sav[{i}]"), format!("acct_ch[{i}]")]).collect()
}

fn chain_len(e: &Engine, name: &str) -> usize {
    e.store().item(name).expect("item").lock().versions().count()
}

/// Sets the flag when dropped, so a failing reader stops the writers
/// instead of leaving the scope waiting on them.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// A reader held open until the oracle's commit count reaches `until`, and
/// every value it read.
struct Reader {
    txn: Txn,
    until: u64,
    reads: Vec<(String, Value)>,
}

/// Each item's committed versions `(ts, value)`, in timestamp order, from
/// the writes the history records for committed transactions.
fn committed_versions(e: &Engine) -> BTreeMap<String, Vec<(Ts, Value)>> {
    let mut pending: BTreeMap<u64, BTreeMap<String, Value>> = BTreeMap::new();
    let mut versions: BTreeMap<String, Vec<(Ts, Value)>> = BTreeMap::new();
    for event in e.history().events() {
        match event.op {
            Op::Write { key: Key::Item(name), value: Some(v) } => {
                pending.entry(event.txn).or_default().insert(name, v);
            }
            Op::Commit { ts } => {
                for (name, v) in pending.remove(&event.txn).unwrap_or_default() {
                    versions.entry(name).or_default().push((ts, v));
                }
            }
            Op::Abort => {
                pending.remove(&event.txn);
            }
            _ => {}
        }
    }
    versions.values_mut().for_each(|chain| chain.sort_by_key(|(ts, _)| *ts));
    versions
}

#[test]
fn long_readers_keep_their_snapshot_and_chains_collapse_after() {
    /// Few items, so every reader pins hundreds of versions of each.
    const ACCOUNTS: usize = 4;
    /// Commits every reader stays open across, at least.
    const HOLD: u64 = 2_000;
    const READERS: usize = 6;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let e = engine(true);
    banking::setup(&e, ACCOUNTS, INITIAL);
    let names = item_names(ACCOUNTS);
    let programs = banking::app().programs;
    // Withdraw_sav, Withdraw_ch, Deposit_sav, Deposit_ch: writes reach the
    // chains both by promote (locking levels) and by install (SNAPSHOT).
    let levels = [RepeatableRead, Snapshot, ReadCommittedFcw, Snapshot];
    let policy = RetryPolicy { max_attempts: 100, ..RetryPolicy::default() };
    let stop = AtomicBool::new(false);
    let mut rng = StdRng::seed_from_u64(0x7e7a);
    let mut finished: Vec<Reader> = Vec::new();
    let mut longest_pinned = 0;

    std::thread::scope(|s| {
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let (e, programs, levels, policy, stop) = (&e, &programs, &levels, &policy, &stop);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(w);
                    for n in 0u64.. {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let request = rng.clone();
                        let attempt = || {
                            rng.clone_from(&request);
                            banking::random_txn(e, programs, levels, ACCOUNTS, &mut rng)
                        };
                        if let Attempted::Failed(err) =
                            retry(policy, w << 32 | n, attempt, |_, _| {})
                        {
                            panic!("writer {w}: {err}");
                        }
                    }
                })
            })
            .collect();
        let _stop = StopOnDrop(&stop);
        let mut open: Vec<Reader> = Vec::new();
        let mut next_open = rng.gen_range(0..HOLD / 4);
        while finished.len() < READERS {
            assert!(!writers.iter().any(|w| w.is_finished()), "a writer died");
            let now = e.oracle().commit_count();
            let opened = finished.len() + open.len();
            if opened < READERS && now >= next_open {
                let level = if opened.is_multiple_of(2) { Snapshot } else { Ssi };
                let until = now + HOLD + rng.gen_range(0..HOLD / 2);
                open.push(Reader { txn: e.begin(level), until, reads: Vec::new() });
                next_open = now + rng.gen_range(0..HOLD);
            }
            for r in &mut open {
                for name in &names {
                    let v = r.txn.read(name).expect("a reader's snapshot is never trimmed away");
                    r.reads.push((name.clone(), v));
                }
            }
            let longest = names.iter().map(|n| chain_len(&e, n)).max().unwrap_or(0);
            longest_pinned = longest_pinned.max(longest);
            // A reader leaves once it has read again `until` commits on.
            let (done, still): (Vec<_>, Vec<_>) = open.into_iter().partition(|r| now >= r.until);
            open = still;
            finished.extend(done);
            std::thread::sleep(Duration::from_millis(1));
        }
    });

    // Each reader saw, at every read, the newest version committed at or
    // before its snapshot.
    let versions = committed_versions(&e);
    let read_at = |name: &str, at: Ts| {
        let chain = versions.get(name).map(Vec::as_slice).unwrap_or_default();
        chain.iter().rev().find(|(ts, _)| *ts <= at).map_or(Value::Int(INITIAL), |(_, v)| v.clone())
    };
    for r in finished {
        let at = r.txn.snapshot_ts().expect("a snapshot-level reader");
        for (name, v) in &r.reads {
            assert_eq!(v, &read_at(name, at), "reader at {at} read {name}");
        }
        r.txn.commit().expect("a read-only reader commits");
    }
    assert!(longest_pinned > 10, "readers pinned old versions: longest chain {longest_pinned}");

    // With no snapshot open, one more write leaves each chain one version.
    for name in &names {
        let mut t = e.begin(ReadCommitted);
        let v = t.read(name).expect("read");
        t.write(name, v).expect("write");
        t.commit().expect("commit");
        assert_eq!(chain_len(&e, name), 1, "{name} after the readers ended");
    }
    assert_eq!(e.oracle().active_snapshots(), 0);
    assert_eq!(e.oracle().ssi_record_count(), 0);
}

#[test]
fn a_banking_run_at_the_mvcc_levels_ends_with_short_chains() {
    // A chain keeps a version older than its newest only while another
    // worker's snapshot predates that newest, and each worker has one
    // transaction open at a time. A worker descheduled mid-transaction
    // (a few milliseconds, a few hundred commits) pins every version
    // committed meanwhile; over 131,072 items no item is written three
    // times in so short a span. Without the trim, about 70 items end with
    // four versions or more.
    const ACCOUNTS: usize = 65_536;
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let e = engine(false);
    banking::setup(&e, ACCOUNTS, INITIAL);
    let programs = banking::app().programs;
    // `bank_mvcc`'s policy: withdrawals at SSI, deposits at SNAPSHOT.
    let levels = [Ssi, Ssi, Snapshot, Snapshot];
    let spec = MixSpec { threads: 2, txns_per_thread: 10_000, seed: 33 };
    let stats = run_mix(spec, &RetryPolicy::default(), |_, rng| {
        banking::random_txn(&e, &programs, &levels, ACCOUNTS, rng)
    });
    assert_eq!(stats.committed + stats.failed, 20_000);
    assert!(banking::balance_violations(&e, ACCOUNTS).is_empty());
    for name in item_names(ACCOUNTS) {
        let len = chain_len(&e, &name);
        assert!(len <= 3, "{name} holds {len} versions");
    }
    assert_eq!(e.oracle().ssi_record_count(), 0);
}
