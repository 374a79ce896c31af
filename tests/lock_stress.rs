//! Seeded multi-thread schedules on a 32-shard lock table, aimed at shard
//! boundaries: a waits-for 2-cycle whose two edges live in different
//! shards, a holder releasing at its waiter's deadline, a release while two
//! requests queue behind it, and a queued request withdrawing (by timeout or
//! as a deadlock victim) in front of another.
//!
//! Every schedule must end with no lost wakeup (each blocked request
//! returns within a wall-clock bound far below its wait timeout), no
//! undetected cycle (a cycle ends in a deadlock error, never in timeouts)
//! and an empty table: no grant and no waiter left behind. Every
//! transaction releases through [`LockManager::release_in`] over the shards
//! its acquires reported, as the engine does at commit and abort, so a shard
//! reported wrongly leaves a grant behind.
//!
//! The table broadcasts on a shard's condvar only where a queued request can
//! progress; [`LockStats::wakeups`](semcc_lock::LockStats::wakeups) counts
//! the broadcasts, and the last test pins the count for uncontended traffic
//! and for single-thread banking.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc::engine::{Engine, EngineConfig, EngineTuning, IsolationLevel};
use semcc::txn::interp::run_program;
use semcc::workloads::banking;
use semcc_lock::manager::LockConfig;
use semcc_lock::{shard_bit, LockError, LockManager, Mode, Target};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// The server's shard count (`EngineTuning::server()`).
const SHARDS: usize = 32;

/// A wait this long means a wakeup was lost: every schedule below unblocks
/// its waiters within microseconds of the release that frees them.
const LOST: Duration = Duration::from_secs(2);

fn table(wait_timeout: Duration) -> LockManager {
    LockManager::new(LockConfig { wait_timeout, shards: SHARDS, ..LockConfig::default() })
}

/// The shard `name`'s item lock routes to, as a probe's acquire reports it.
/// Only called while nobody holds `name` exclusively.
fn shard(m: &LockManager, name: &str) -> usize {
    const PROBE: u64 = u64::MAX;
    let s = m.acquire(PROBE, Target::item(name), Mode::S).expect("probe");
    m.release_in(PROBE, shard_bit(s));
    s
}

/// `N` item names, drawn by `rng`, whose locks route to pairwise distinct
/// shards, each with its shard.
fn names_in_distinct_shards<const N: usize>(
    m: &LockManager,
    rng: &mut StdRng,
) -> [(String, usize); N] {
    let mut names: Vec<(String, usize)> = Vec::new();
    while names.len() < N {
        let name = format!("k{}", rng.gen_range(0..1_000_000u64));
        let s = shard(m, &name);
        if names.iter().all(|(_, used)| *used != s) {
            names.push((name, s));
        }
    }
    names.try_into().unwrap()
}

/// Acquire and check the reported shard; returns its bit.
fn lock_in(m: &LockManager, txn: u64, (name, shard): &(String, usize), mode: Mode) -> u64 {
    let at = m.acquire(txn, Target::item(name), mode).expect("free lock");
    assert_eq!(at, *shard, "txn {txn}: {name} granted in another shard");
    shard_bit(at)
}

/// Spin until `cond` holds; a bound of [`LOST`] turns a hang into a failure.
fn wait_until(what: &str, cond: impl Fn() -> bool) {
    let start = Instant::now();
    while !cond() {
        assert!(start.elapsed() < LOST, "timed out waiting until {what}");
        thread::yield_now();
    }
}

/// A seeded pause of up to `max_us` microseconds, to vary who runs first.
fn jitter(rng: &mut StdRng, max_us: u64) {
    let until = Instant::now() + Duration::from_micros(rng.gen_range(0..=max_us));
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

fn assert_empty(m: &LockManager, round: usize) {
    assert_eq!((m.total_grants(), m.total_waiters()), (0, 0), "round {round}: table not empty");
}

/// Run `acquire`, failing if it blocks past [`LOST`].
fn timed<T>(acquire: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = acquire();
    assert!(start.elapsed() < LOST, "a blocked request was never woken");
    out
}

#[test]
fn cross_shard_two_cycle_is_always_found() {
    // t1 queues on b, then t2's request on a closes the cycle. The two
    // edges live in different shards, so only the merged snapshot shows
    // both. t2 queued last and sees t1's edge, unless t1, still checking,
    // saw t2's edge first and withdrew as the victim.
    let m = table(LOST * 2);
    let mut rng = StdRng::seed_from_u64(0x5ba4d);
    for round in 0..100 {
        let [a, b] = names_in_distinct_shards(&m, &mut rng);
        let t1_set = lock_in(&m, 1, &a, Mode::X);
        let t2_set = lock_in(&m, 2, &b, Mode::X);
        // A victim aborts at once, which frees its partner.
        let request = |txn: u64, (want, _): &(String, usize), held: u64| {
            let r = timed(|| m.acquire(txn, Target::item(want), Mode::X));
            if r.is_err() {
                m.release_in(txn, held);
            }
            r
        };
        thread::scope(|s| {
            let t1 = s.spawn(|| request(1, &b, t1_set));
            wait_until("t1 queues on b", || m.waiting_by(1) == 1);
            jitter(&mut rng, 200);
            let r2 = request(2, &a, t2_set);
            match (t1.join().unwrap(), r2) {
                (Ok(at), Err(LockError::Deadlock { victim: 2, cycle })) => {
                    assert_eq!(at, b.1, "round {round}");
                    assert!(cycle.contains(&1) && cycle.contains(&2), "round {round}: {cycle:?}");
                }
                (Err(LockError::Deadlock { victim: 1, .. }), Ok(at)) => {
                    assert_eq!(at, a.1, "round {round}")
                }
                (Err(LockError::Deadlock { .. }), Err(LockError::Deadlock { .. })) => {}
                r => panic!("round {round}: cycle not detected: {r:?}"),
            }
        });
        m.release_in(1, t1_set | shard_bit(b.1));
        m.release_in(2, t2_set | shard_bit(a.1));
        assert_empty(&m, round);
    }
    assert_eq!(m.stats().timeouts, 0);
}

#[test]
fn racing_cross_shard_two_cycle_always_has_a_victim() {
    // Both requests close the cycle at once: whichever snapshots last sees
    // both waiters, whatever order the two shards were visited in.
    let m = table(LOST * 2);
    let mut rng = StdRng::seed_from_u64(0x2c1c);
    for round in 0..100 {
        let [a, b] = names_in_distinct_shards(&m, &mut rng);
        let sets = [lock_in(&m, 1, &a, Mode::X), lock_in(&m, 2, &b, Mode::X)];
        let pauses = [rng.gen_range(0..=100u64), rng.gen_range(0..=100u64)];
        let go = Barrier::new(2);
        let results = thread::scope(|s| {
            let run = |txn: u64, (want, at): &(String, usize), held: u64, pause: u64| {
                let (m, go, want, at) = (&m, &go, want.clone(), *at);
                s.spawn(move || {
                    go.wait();
                    jitter(&mut StdRng::seed_from_u64(pause), pause);
                    let r = timed(|| m.acquire(txn, Target::item(&want), Mode::X));
                    match &r {
                        Ok(got) => assert_eq!(*got, at, "txn {txn}: granted in another shard"),
                        // A victim aborts at once, which frees its partner.
                        Err(_) => m.release_in(txn, held),
                    }
                    r
                })
            };
            let t1 = run(1, &b, sets[0], pauses[0]);
            let t2 = run(2, &a, sets[1], pauses[1]);
            [t1.join().unwrap(), t2.join().unwrap()]
        });
        let victims =
            results.iter().filter(|r| matches!(r, Err(LockError::Deadlock { .. }))).count();
        assert!(victims >= 1, "round {round}: undetected cycle: {results:?}");
        for r in &results {
            assert!(matches!(r, Ok(_) | Err(LockError::Deadlock { .. })), "round {round}: {r:?}");
        }
        m.release_in(1, sets[0] | shard_bit(b.1));
        m.release_in(2, sets[1] | shard_bit(a.1));
        assert_empty(&m, round);
    }
    assert_eq!(m.stats().timeouts, 0);
}

#[test]
fn holder_releasing_at_the_waiters_deadline_leaves_a_consistent_table() {
    const TIMEOUT: Duration = Duration::from_millis(20);
    let m = table(TIMEOUT);
    let mut rng = StdRng::seed_from_u64(0xdead1);
    let (mut granted, mut timed_out) = (0, 0);
    for round in 0..10 {
        let [a] = names_in_distinct_shards(&m, &mut rng);
        let held = lock_in(&m, 1, &a, Mode::X);
        let release_after =
            TIMEOUT + Duration::from_micros(rng.gen_range(0..6_000)) - Duration::from_millis(3);
        let r = thread::scope(|s| {
            let waiter = s.spawn(|| timed(|| m.acquire(2, Target::item(&a.0), Mode::X)));
            wait_until("the waiter queues", || m.waiting_by(2) == 1);
            thread::sleep(release_after);
            m.release_in(1, held);
            waiter.join().unwrap()
        });
        // Either side of the race is legal; a half-done one is not.
        match r {
            Ok(at) => {
                assert_eq!(at, a.1, "round {round}");
                granted += 1;
                assert_eq!(m.held_by(2), 1, "round {round}");
            }
            Err(LockError::Timeout { txn: 2 }) => {
                timed_out += 1;
                assert_eq!(m.held_by(2), 0, "round {round}");
            }
            r => panic!("round {round}: {r:?}"),
        }
        assert_eq!(m.waiting_by(2), 0, "round {round}: waiter left queued");
        m.release_in(2, held);
        // Nothing left behind blocks the next requester.
        m.release_in(3, lock_in(&m, 3, &a, Mode::X));
        assert_empty(&m, round);
    }
    assert_eq!(granted + timed_out, 10);
}

#[test]
fn release_during_a_wait_hands_off_in_queue_order() {
    let m = table(LOST * 2);
    let mut rng = StdRng::seed_from_u64(0xf1f0);
    let mode = |x: bool| if x { Mode::X } else { Mode::S };
    for round in 0..100 {
        let [a, b, c] = names_in_distinct_shards(&m, &mut rng);
        let (m1, m2) = (mode(rng.gen_bool(0.5)), mode(rng.gen_bool(0.5)));
        let both_shared = m1 == Mode::S && m2 == Mode::S;
        // A shared holder queues a writer; then a reader must queue behind
        // that writer, not join the holder.
        let m0 = if m1 == Mode::X { mode(rng.gen_bool(0.5)) } else { Mode::X };
        // Each waiter also holds a lock in a shard of its own, so a release
        // must clear more than the contended shard.
        let held = lock_in(&m, 1, &a, m0);
        let w1_set = lock_in(&m, 2, &b, Mode::X) | shard_bit(a.1);
        let w2_set = lock_in(&m, 3, &c, Mode::X) | shard_bit(a.1);
        let order = AtomicU64::new(0);
        let pause = rng.gen_range(0..=200u64);
        let hold = rng.gen_range(0..=200u64);
        thread::scope(|s| {
            let (m, a, order) = (&m, &a, &order);
            let w1 = s.spawn(move || {
                let at = timed(|| m.acquire(2, Target::item(&a.0), m1)).expect("w1 granted");
                assert_eq!(at, a.1, "round {round}");
                let turn = order.fetch_add(1, Ordering::SeqCst);
                if !both_shared {
                    assert_eq!(m.held_by(3), 1, "round {round}: w2 granted beside w1");
                }
                jitter(&mut StdRng::seed_from_u64(hold), hold);
                m.release_in(2, w1_set);
                turn
            });
            wait_until("w1 queues", || m.waiting_by(2) == 1);
            let w2 = s.spawn(move || {
                let at = timed(|| m.acquire(3, Target::item(&a.0), m2)).expect("w2 granted");
                assert_eq!(at, a.1, "round {round}");
                let turn = order.fetch_add(1, Ordering::SeqCst);
                m.release_in(3, w2_set);
                turn
            });
            wait_until("w2 queues", || m.waiting_by(3) == 1);
            jitter(&mut rng, pause);
            m.release_in(1, held);
            let (turn1, turn2) = (w1.join().unwrap(), w2.join().unwrap());
            if !both_shared {
                assert!(turn1 < turn2, "round {round}: w2 overtook w1");
            }
        });
        assert_empty(&m, round);
    }
    assert_eq!(m.stats().timeouts + m.stats().deadlocks, 0);
}

/// T1 holds S on `a`, T2 queues X behind it, and T3 queues S behind T2,
/// blocked by FIFO order alone. Runs `t2` (T2's request and its handling)
/// on the calling thread, and T3's request on another once `t3_may_queue`
/// holds; returns T2's result, T3's result and whether T3 queued (rather
/// than being granted on arrival). T3 must be granted within [`LOST`],
/// whatever T2's fate.
fn queue_behind_a_withdrawing_writer(
    m: &LockManager,
    a: &(String, usize),
    t3_may_queue: impl Fn() -> bool + Sync,
    t2: impl FnOnce() -> Result<usize, LockError>,
) -> (Result<usize, LockError>, Result<usize, LockError>, bool) {
    let held = lock_in(m, 1, a, Mode::S);
    let waits = m.stats().waits;
    let (r2, r3) = thread::scope(|s| {
        let t3 = s.spawn(|| {
            while !t3_may_queue() {
                thread::yield_now();
            }
            timed(|| m.acquire(3, Target::item(&a.0), Mode::S))
        });
        let r2 = t2();
        (r2, t3.join().unwrap())
    });
    // T2 queued once; a second wait is T3's.
    let t3_queued = m.stats().waits - waits == 2;
    m.release_in(3, shard_bit(a.1));
    m.release_in(1, held);
    (r2, r3, t3_queued)
}

#[test]
fn a_timed_out_waiter_wakes_the_queue_behind_it() {
    // T3 queues GAP after T2, so its own deadline is GAP after T2's. Only
    // T2's withdrawal at its deadline can grant T3 before T3's deadline.
    const TIMEOUT: Duration = Duration::from_millis(60);
    const GAP: Duration = Duration::from_millis(30);
    let m = table(TIMEOUT);
    let mut rng = StdRng::seed_from_u64(0x7130);
    for round in 0..5 {
        let [a] = names_in_distinct_shards(&m, &mut rng);
        let t2_queued_at = OnceLock::new();
        let (r2, r3, t3_queued) = queue_behind_a_withdrawing_writer(
            &m,
            &a,
            || t2_queued_at.get().is_some_and(|at: &Instant| at.elapsed() >= GAP),
            || {
                thread::scope(|s| {
                    let t2 = s.spawn(|| m.acquire(2, Target::item(&a.0), Mode::X));
                    wait_until("t2 queues", || m.waiting_by(2) == 1);
                    t2_queued_at.set(Instant::now()).unwrap();
                    t2.join().unwrap()
                })
            },
        );
        assert!(matches!(r2, Err(LockError::Timeout { txn: 2 })), "round {round}: {r2:?}");
        assert_eq!(r3.as_ref().ok(), Some(&a.1), "round {round}: t3 not woken by t2's timeout");
        assert!(t3_queued, "round {round}: t3 never queued behind t2");
        assert_empty(&m, round);
    }
    assert_eq!(m.stats().timeouts, 5, "only t2 times out");
}

#[test]
fn a_deadlock_victim_wakes_the_queue_behind_it() {
    // T1 also waits for T2's X on `b`, so T2's request on `a` closes the
    // cycle and T2 withdraws as the victim. T3 requests once it sees T2
    // queued, so it often queues behind T2 while T2 checks for the cycle,
    // and now and then parks before T2 withdraws (a race). Either way it
    // must not wait for its own deadline.
    let m = table(LOST * 2);
    let mut rng = StdRng::seed_from_u64(0xd1c7);
    for round in 0..100 {
        let [a, b] = names_in_distinct_shards(&m, &mut rng);
        let t2_held = lock_in(&m, 2, &b, Mode::X);
        let t2_done = AtomicBool::new(false);
        let (r2, r3, _) = thread::scope(|s| {
            let t1 = s.spawn(|| timed(|| m.acquire(1, Target::item(&b.0), Mode::X)));
            let r = queue_behind_a_withdrawing_writer(
                &m,
                &a,
                || m.waiting_by(2) == 1 || t2_done.load(Ordering::SeqCst),
                || {
                    wait_until("t1 queues on b", || m.waiting_by(1) == 1);
                    // Let T1 finish its own cycle check and park, so that
                    // T2's request is the one that closes the cycle.
                    thread::sleep(Duration::from_millis(2));
                    let r = m.acquire(2, Target::item(&a.0), Mode::X);
                    t2_done.store(true, Ordering::SeqCst);
                    // The victim aborts, which frees T1.
                    m.release_in(2, t2_held);
                    r
                },
            );
            let r1 = t1.join().unwrap();
            assert_eq!(r1, Ok(b.1), "round {round}: t1 not granted b");
            r
        });
        assert!(matches!(r2, Err(LockError::Deadlock { victim: 2, .. })), "round {round}: {r2:?}");
        assert_eq!(r3.ok(), Some(a.1), "round {round}");
        m.release_in(1, shard_bit(b.1));
        assert_empty(&m, round);
    }
    assert_eq!(m.stats().timeouts, 0);
}

/// Single-thread banking through `run_program` at the paper's levels:
/// withdrawals at REPEATABLE READ, deposits at READ COMMITTED+FCW. Returns
/// the number of deposits run.
fn banking_run(engine: &Arc<Engine>, txns: usize) -> u64 {
    const ACCOUNTS: usize = 8;
    banking::setup(engine, ACCOUNTS, 1_000);
    let programs = [
        (banking::withdraw("sav", "ch"), IsolationLevel::RepeatableRead),
        (banking::withdraw("ch", "sav"), IsolationLevel::RepeatableRead),
        (banking::deposit("sav", "ch"), IsolationLevel::ReadCommittedFcw),
        (banking::deposit("ch", "sav"), IsolationLevel::ReadCommittedFcw),
    ];
    let mut rng = StdRng::seed_from_u64(0xba2c);
    let mut deposits = 0;
    for _ in 0..txns {
        let (program, level) = &programs[rng.gen_range(0..programs.len())];
        let bindings = banking::bindings(&program.name, ACCOUNTS, &mut rng);
        run_program(engine, program, *level, &bindings).expect("single-thread banking commits");
        deposits += u64::from(*level == IsolationLevel::ReadCommittedFcw);
    }
    deposits
}

#[test]
fn wakeups_go_only_where_a_queued_request_can_progress() {
    // Uncontended long locks: S, X, a reentrant acquire and an S -> X
    // upgrade, then commit's release_in. Nobody waits, nobody is woken.
    for shards in [1, SHARDS] {
        let m = LockManager::new(LockConfig { shards, ..LockConfig::default() });
        for txn in 0..50u64 {
            let mut set = 0;
            for (name, mode) in [("s", Mode::S), ("x", Mode::X), ("x", Mode::X), ("u", Mode::S)] {
                set |= shard_bit(m.acquire(txn, Target::item(name), mode).expect("free"));
            }
            set |= shard_bit(m.acquire(txn, Target::item("u"), Mode::X).expect("upgrade"));
            m.release_in(txn, set);
        }
        assert_eq!(m.stats().wakeups, 0, "{shards} shards: uncontended long locks woke a shard");
        assert_empty(&m, 0);

        // The pending short-lock case: a short read lock's release wakes its
        // shard once, waiters or not, until that path is redesigned.
        for txn in 0..50u64 {
            m.acquire(txn, Target::item("s"), Mode::S).expect("free");
            m.release(txn, &Target::item("s"));
        }
        assert_eq!(m.stats().wakeups, 50, "{shards} shards: one wakeup per short-lock release");
    }

    // Single-thread banking: a withdrawal (RR, long locks) wakes no one; a
    // deposit's short read at RC+FCW wakes once.
    for tuning in [EngineTuning::default(), EngineTuning::server()] {
        let config = EngineConfig { record_history: false, ..EngineConfig::default() };
        let engine = Arc::new(Engine::with_tuning(config, tuning));
        let deposits = banking_run(&engine, 400);
        assert!(deposits > 100 && deposits < 300, "{deposits} deposits of 400");
        assert_eq!(engine.locks().stats().wakeups, deposits, "{tuning:?}");
    }

    // A writer parked behind a long X is woken by the holder's commit.
    let config = EngineConfig { lock_timeout: LOST * 2, ..EngineConfig::default() };
    let engine = Arc::new(Engine::with_tuning(config, EngineTuning::server()));
    engine.create_item("x", 0).expect("create x");
    let mut holder = engine.begin(IsolationLevel::RepeatableRead);
    holder.write("x", 1).expect("holder writes x");
    thread::scope(|s| {
        let waiter = s.spawn(|| {
            let mut txn = engine.begin(IsolationLevel::RepeatableRead);
            timed(|| txn.write("x", 2)).expect("woken by the holder's commit");
            txn.commit().expect("waiter commits");
        });
        wait_until("the writer queues", || engine.locks().total_waiters() == 1);
        holder.commit().expect("holder commits");
        waiter.join().unwrap();
    });
    assert_eq!(engine.locks().stats().wakeups, 1, "only the holder's commit wakes");
    assert_eq!(engine.peek_item("x").ok().and_then(|v| v.as_int()), Some(2));
}
