//! The per-layer metrics: every layer (crate or module) measured from
//! outside, by timing its public calls.
//!
//! The interior of `Server::submit` is not visible from here, so the serve
//! path is attributed by a **ladder** over one pre-generated input vector:
//! (a) `serve.submit`, (b) `txn.run_program` on an identically tuned
//! engine, (c) `engine.native`, the same transactions hand-written against
//! `begin/read/write/commit`, and (d) `layers.direct`, the lock, store and
//! oracle calls those transactions make, with no `Txn` in between. The
//! mean difference of adjacent rungs is the upper rung's self time.
//!
//! Everything else is a timed loop over a public call ([`time_ns`]), a
//! short run of a workload read for its counters, or a traced pass of the
//! analysis pipeline. Counts marked *exact* in the README repeat bit for
//! bit on one client.

use crate::analysis::{apps, prove};
use crate::clock::now_ns;
use crate::explorebench::{cells, Cells};
use crate::gen::{bank_inputs, BankInputs, BankOp};
use crate::hist::median;
use crate::run::{drive, Workload};
use crate::serve::{serve_config, BankPolicy, BankServe, BANK_INITIAL, HOT_ACCOUNTS};
use crate::trace::{Scope, Tracer};
use crate::walbench::{bank_programs, engine_with_wal, run_programs};
use semcc_core::theorems::check_at_level;
use semcc_engine::{recover, Engine, EngineError, IsolationLevel};
use semcc_explore::{differential, explore, ExploreOptions};
use semcc_lock::manager::LockConfig;
use semcc_lock::{LockManager, Mode, Target};
use semcc_logic::parser::parse_pred;
use semcc_logic::prover::Prover;
use semcc_logic::row::RowPred;
use semcc_mvcc::{Key, Oracle, SsiKey};
use semcc_serve::{AdmissionPolicy, Server};
use semcc_storage::wal::{read_records, Wal, WalPolicy, WalRecord};
use semcc_storage::{Schema, Store, Table, Value};
use semcc_synth::policy::verify_policy_digest;
use semcc_synth::{synthesize, SynthOptions};
use semcc_txn::symexec::SymOptions;
use semcc_workloads::{banking, orders};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::slice::from_ref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Every per-layer metric with its unit, in table order.
pub const PER_LAYER: [(&str, &str); 84] = [
    ("serve.submit_ns", "ns"),
    ("serve.submit_self_ns", "ns"),
    ("serve.scaling_2c", "ratio"),
    ("serve.start_ms", "ms"),
    ("serve.policy_load_us", "us"),
    ("serve.aborts_per_kop.deadlock", "1/kop"),
    ("serve.aborts_per_kop.timeout", "1/kop"),
    ("serve.aborts_per_kop.fcw", "1/kop"),
    ("serve.aborts_per_kop.ssi", "1/kop"),
    ("txn.run_program_ns", "ns"),
    ("txn.interp_self_ns", "ns"),
    ("engine.rmw_commit_ns.ru", "ns"),
    ("engine.rmw_commit_ns.rc", "ns"),
    ("engine.rmw_commit_ns.rcfcw", "ns"),
    ("engine.rmw_commit_ns.rr", "ns"),
    ("engine.rmw_commit_ns.snap", "ns"),
    ("engine.rmw_commit_ns.ssi", "ns"),
    ("engine.rmw_commit_ns.ser", "ns"),
    ("engine.read_commit_ns.rc", "ns"),
    ("engine.read_commit_ns.snap", "ns"),
    ("engine.read_commit_ns.ser", "ns"),
    ("engine.txn_self_ns", "ns"),
    ("engine.history_on_overhead_ns", "ns"),
    ("engine.begin_abort_ns", "ns"),
    ("engine.select_ns_per_row", "ns"),
    ("engine.select_pred_ns_per_row", "ns"),
    ("engine.insert_commit_ns", "ns"),
    ("engine.update_where_commit_ns", "ns"),
    ("engine.reset_us", "us"),
    ("layers.direct_ns", "ns"),
    ("lock.acquire_release_ns.shards1", "ns"),
    ("lock.acquire_release_ns.shards32", "ns"),
    ("lock.shared_acquire_release_ns", "ns"),
    ("lock.pred_acquire_release_ns", "ns"),
    ("lock.target_build_ns", "ns"),
    ("lock.handoff_us", "us"),
    ("lock.waits_per_kop", "1/kop"),
    ("lock.deadlocks_per_kop", "1/kop"),
    ("lock.timeouts_per_kop", "1/kop"),
    ("mvcc.begin_end_snapshot_ns", "ns"),
    ("mvcc.validate_commit_ns.w1", "ns"),
    ("mvcc.validate_commit_ns.w8", "ns"),
    ("mvcc.ssi_on_read_ns", "ns"),
    ("mvcc.ssi_commit_ns", "ns"),
    ("mvcc.commit_log_len_end", "count"),
    ("mvcc.ssi_records_end", "count"),
    ("mvcc.fcw_failures_per_kop", "1/kop"),
    ("store.item_lookup_ns.stripes1", "ns"),
    ("store.item_lookup_ns.stripes32", "ns"),
    ("table.scan_ns_per_row", "ns"),
    ("table.insert_promote_ns", "ns"),
    ("wal.append_ns", "ns"),
    ("wal.append_commit_ns", "ns"),
    ("wal.bytes_per_commit", "B"),
    ("wal.records_per_commit", "count"),
    ("wal.read_records_mb_s", "MB/s"),
    ("recover.us_per_record", "us"),
    ("recover.redo_records", "count"),
    ("recover.undo_records", "count"),
    ("prover.valid_us", "us"),
    ("prover.sat_us", "us"),
    ("prover.wp_check_us", "us"),
    ("prover.calls", "count"),
    ("core.sdg_build_ms", "ms"),
    ("core.check_at_level_ms", "ms"),
    ("core.assign_levels_ms", "ms"),
    ("core.certify_ms", "ms"),
    ("refine.refine_ms", "ms"),
    ("refine.predict_deadlocks_ms", "ms"),
    ("synth.synthesize_ms", "ms"),
    ("synth.lemmas_evaluated", "count"),
    ("synth.vectors_visited", "count"),
    ("synth.lemmas_per_s", "1/s"),
    ("synth.witness_replay_ms", "ms"),
    ("cert.verify_ms", "ms"),
    ("json.policy_roundtrip_us", "us"),
    ("explore.replays", "count"),
    ("explore.replays_per_s", "1/s"),
    ("explore.pruning_ratio", "ratio"),
    ("explore.differential_ms", "ms"),
    ("explore.jobs2_speedup", "ratio"),
    ("checker.events_per_s", "1/s"),
    ("par.ordered_map_ns_per_item", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// How much work the per-layer suite does.
pub struct Budget {
    /// Time spent inside each timed loop.
    pub slice: Duration,
    /// Requests per ladder rung.
    pub ladder_ops: usize,
    /// Requests of each short workload run read for its counters.
    pub run_ops: usize,
    /// Measure `synth.witness_replay_ms` (3 s on its own) and the explorer
    /// at two jobs; `--quick` skips both and reports 0.
    pub slow: bool,
}

impl Budget {
    /// Scale the suite to a `--seconds` budget.
    pub fn new(seconds: f64, quick: bool) -> Budget {
        if quick {
            return Budget {
                slice: Duration::from_millis(3),
                ladder_ops: 5_000,
                run_ops: 5_000,
                slow: false,
            };
        }
        Budget {
            slice: Duration::from_secs_f64(seconds * 0.004),
            ladder_ops: 100_000,
            run_ops: 100_000,
            slow: true,
        }
    }
}

/// Mean nanoseconds per call of `f`: after a warm-up tenth of the slice,
/// calls are timed in batches of about 200 µs and the median batch mean is
/// reported, so a descheduled batch does not move the figure.
pub fn time_ns(slice: Duration, mut f: impl FnMut()) -> f64 {
    let slice_ns = slice.as_nanos() as u64;
    let mut batch = 1u64;
    let warm_until = now_ns() + slice_ns / 10;
    loop {
        let t0 = now_ns();
        for _ in 0..batch {
            f();
        }
        let dt = now_ns() - t0;
        if dt < 200_000 && batch < 1 << 20 {
            batch *= 2;
        } else if now_ns() >= warm_until {
            break;
        }
    }
    let mut means = Vec::new();
    let until = now_ns() + slice_ns;
    while now_ns() < until || means.len() < 3 {
        let t0 = now_ns();
        for _ in 0..batch {
            f();
        }
        means.push((now_ns() - t0) as f64 / batch as f64);
    }
    median(&means)
}

type Metrics = BTreeMap<&'static str, f64>;

// ---------------------------------------------------------------------
// The ladder
// ---------------------------------------------------------------------

fn item_names(op: BankOp) -> (String, String) {
    let (own, other) = if op.on_savings() { ("sav", "ch") } else { ("ch", "sav") };
    (format!("acct_{own}[{}]", op.acct), format!("acct_{other}[{}]", op.acct))
}

/// Rung (c): the banking transaction of `op`, hand-written against the
/// engine's transaction handle at the level the policy gives its type.
fn native(engine: &Arc<Engine>, op: BankOp) -> Result<(), EngineError> {
    let (own, other) = item_names(op);
    let amount = i64::from(op.amount);
    if op.is_withdraw() {
        let mut t = engine.begin(IsolationLevel::RepeatableRead);
        let sav = t.read(&own)?.as_int().expect("integer balance");
        let ch = t.read(&other)?.as_int().expect("integer balance");
        if sav + ch >= amount {
            t.write(&own, sav - amount)?;
        }
        t.commit()?;
    } else {
        let mut t = engine.begin(IsolationLevel::ReadCommittedFcw);
        let balance = t.read(&own)?.as_int().expect("integer balance");
        t.write(&own, balance + amount)?;
        t.commit()?;
    }
    Ok(())
}

/// Rung (d): the lock, store and oracle calls the same transaction makes,
/// straight on the three layers. A withdrawal at REPEATABLE READ takes two
/// long S locks, upgrades one to X and commits without validation; a
/// deposit at RC+FCW takes a short S lock, an X lock, and validates its
/// read timestamp at commit. Each call into a layer is a child span.
fn direct(engine: &Engine, op: BankOp, scope: &mut Scope<'_>) -> Result<(), EngineError> {
    let (locks, store, oracle) = (engine.locks(), engine.store(), engine.oracle());
    let (own, other) = item_names(op);
    let amount = i64::from(op.amount);
    let txn = oracle.next_txn_id();
    let read = |name: &str, scope: &mut Scope<'_>| {
        scope.call("store.item", || {
            let cell = store.item(name)?;
            let c = cell.lock();
            Ok::<_, EngineError>((
                c.read_committed().as_int().expect("integer"),
                c.latest_commit_ts(),
            ))
        })
    };
    let write = |name: &str, v: i64, scope: &mut Scope<'_>| {
        scope.call("store.item", || {
            let cell = store.item(name)?;
            let mut c = cell.lock();
            c.write_dirty(txn, Value::Int(v))?;
            Ok::<_, EngineError>(())
        })
    };
    let install = |name: &str, ts| {
        if let Ok(cell) = store.item(name) {
            cell.lock().promote(txn, ts);
        }
    };
    if op.is_withdraw() {
        scope.call("lock.acquire", || locks.acquire(txn, Target::item(own.as_str()), Mode::S))?;
        let (sav, _) = read(&own, scope)?;
        scope.call("lock.acquire", || locks.acquire(txn, Target::item(other.as_str()), Mode::S))?;
        let (ch, _) = read(&other, scope)?;
        let mut writes = Vec::new();
        if sav + ch >= amount {
            scope
                .call("lock.acquire", || locks.acquire(txn, Target::item(own.as_str()), Mode::X))?;
            write(&own, sav - amount, scope)?;
            writes.push(Key::item(own.as_str()));
        }
        scope.call("mvcc.validate_and_commit", || {
            oracle.validate_and_commit_with(&[], &writes, |ts| install(&own, ts))
        })?;
    } else {
        let target = Target::item(own.as_str());
        scope.call("lock.acquire", || locks.acquire(txn, target.clone(), Mode::S))?;
        let (balance, read_ts) = read(&own, scope)?;
        scope.call("lock.release", || locks.release(txn, &target));
        scope.call("lock.acquire", || locks.acquire(txn, target, Mode::X))?;
        write(&own, balance + amount, scope)?;
        let key = Key::item(own.as_str());
        scope.call("mvcc.validate_and_commit", || {
            oracle.validate_and_commit_with(&[(key.clone(), read_ts)], from_ref(&key), |ts| {
                install(&own, ts)
            })
        })?;
    }
    scope.call("lock.release_all", || locks.release_all(txn));
    Ok(())
}

/// Requests per rung before the next rung takes its turn. The host's
/// speed drifts by 10–20 % over seconds, far more than the rungs differ;
/// interleaving them in short blocks makes a slow spell hit all of them.
const LADDER_BLOCK: usize = 10_000;

/// Run the rungs on the first `budget.ladder_ops` of `bank_point`'s
/// inputs, one client, every op under a root span, each rung on a system
/// of its own, in blocks of [`LADDER_BLOCK`] requests taken in turn.
/// Rung (d) runs twice: bare for its mean, and with child spans for the
/// breakdown. Returns every span.
fn ladder(seed: u64, budget: &Budget, out: &mut Metrics) -> Tracer {
    let spec = BankServe {
        seed,
        accounts: 4096,
        ops: budget.ladder_ops,
        clients: 1,
        policy: BankPolicy::Synthesized,
    };
    let (server, inputs) = spec.setup().expect("banking set-up");
    let programs = bank_programs().expect("banking policy");
    let engines: Vec<Arc<Engine>> = (0..4)
        .map(|_| {
            let e = engine_with_wal(false, false);
            banking::setup(&e, 4096, BANK_INITIAL);
            e
        })
        .collect();
    let ops = &inputs.ops;

    let mut spans = Tracer::default();
    let mut failed = 0;
    let mut start = 0;
    while start < inputs.ops.len() {
        let block = start..(start + LADDER_BLOCK).min(inputs.ops.len());
        start = block.end;
        let rungs = [
            spec.submit(&server, &inputs, block.clone(), true),
            run_programs(&engines[0], &programs, &inputs, block.clone(), true),
            drive(1, block.clone(), "engine.native", true, |k, _| {
                native(&engines[1], ops[k]).is_ok()
            }),
            drive(1, block.clone(), "layers.direct", true, |k, _| {
                direct(&engines[2], ops[k], &mut Scope::off()).is_ok()
            }),
            drive(1, block, "layers.direct.children", true, |k, scope| {
                direct(&engines[3], ops[k], scope).is_ok()
            }),
        ];
        for m in rungs {
            failed += m.failed;
            spans.absorb(m.tracer.expect("traced rung"));
        }
    }
    assert_eq!(failed, 0, "a ladder rung failed a request");

    let means = spans.mean_ns_by_name();
    let mean = |name: &str| means[name].0;
    let (a, b, c, d) = (
        mean("serve.submit"),
        mean("txn.run_program"),
        mean("engine.native"),
        mean("layers.direct"),
    );
    out.insert("serve.submit_ns", a);
    out.insert("serve.submit_self_ns", a - b);
    out.insert("txn.run_program_ns", b);
    out.insert("txn.interp_self_ns", b - c);
    out.insert("engine.txn_self_ns", c - d);
    out.insert("layers.direct_ns", d);
    spans
}

/// How the rungs reconcile: the three self times plus the per-request sum
/// of rung (d)'s child spans, against the mean `serve.submit` span.
pub fn reconcile(metrics: &Metrics, spans: &Tracer) -> (f64, f64) {
    let means = spans.mean_ns_by_name();
    let requests = means.get("layers.direct.children").map_or(1, |v| v.1) as f64;
    let children: f64 = [
        "lock.acquire",
        "lock.release",
        "lock.release_all",
        "store.item",
        "mvcc.validate_and_commit",
    ]
    .iter()
    .filter_map(|n| means.get(n))
    .map(|(mean, count)| mean * *count as f64 / requests)
    .sum();
    let sum = metrics["serve.submit_self_ns"]
        + metrics["txn.interp_self_ns"]
        + metrics["engine.txn_self_ns"]
        + children;
    (sum, metrics["serve.submit_ns"])
}

// ---------------------------------------------------------------------
// serve, and the short workload runs read for their counters
// ---------------------------------------------------------------------

fn serve_layer(seed: u64, budget: &Budget, out: &mut Metrics) {
    let throughput = |clients| {
        let mut w = BankServe {
            seed,
            accounts: 4096,
            ops: 2 * budget.run_ops,
            clients,
            policy: BankPolicy::Synthesized,
        };
        let rep = w.rep(false);
        rep.ops as f64 / rep.measured.wall_ns as f64
    };
    let one = throughput(1);
    out.insert("serve.scaling_2c", throughput(2) / one);

    let proven = prove(&banking::app(), "banking", &mut Scope::off()).expect("banking policy");
    let programs = banking::app().programs;
    out.insert(
        "serve.start_ms",
        time_ns(budget.slice, || {
            black_box(
                Server::start(proven.policy.clone(), programs.clone(), serve_config(seed)).is_ok(),
            );
        }) / 1e6,
    );
    out.insert(
        "serve.policy_load_us",
        time_ns(budget.slice, || {
            black_box(AdmissionPolicy::from_json(&proven.artifact, "banking").is_ok());
        }) / 1e3,
    );

    let per_kop = |rep: &crate::run::Rep, key: &str| rep.counters[key] / (rep.ops as f64 / 1e3);
    let hot = BankServe {
        seed,
        accounts: HOT_ACCOUNTS,
        ops: budget.run_ops,
        clients: 2,
        policy: BankPolicy::Synthesized,
    }
    .rep(false);
    out.insert("serve.aborts_per_kop.deadlock", per_kop(&hot, "aborts.deadlock"));
    out.insert("serve.aborts_per_kop.timeout", per_kop(&hot, "aborts.timeout"));
    out.insert("lock.waits_per_kop", per_kop(&hot, "lock.waits"));
    out.insert("lock.deadlocks_per_kop", per_kop(&hot, "lock.deadlocks"));
    out.insert("lock.timeouts_per_kop", per_kop(&hot, "lock.timeouts"));
    out.insert("mvcc.fcw_failures_per_kop", per_kop(&hot, "mvcc.fcw_failures"));

    let mvcc = BankServe {
        seed,
        accounts: 4096,
        ops: 2 * budget.run_ops,
        clients: 2,
        policy: BankPolicy::MvccOnly,
    }
    .rep(false);
    out.insert("serve.aborts_per_kop.fcw", per_kop(&mvcc, "aborts.fcw"));
    out.insert("serve.aborts_per_kop.ssi", per_kop(&mvcc, "aborts.ssi"));
    out.insert("mvcc.commit_log_len_end", mvcc.counters["mvcc.commit_log_len"]);
    out.insert("mvcc.ssi_records_end", mvcc.counters["mvcc.ssi_records"]);
}

// ---------------------------------------------------------------------
// engine
// ---------------------------------------------------------------------

fn rmw(e: &Arc<Engine>, item: &str, level: IsolationLevel) {
    let mut t = e.begin(level);
    let v = t.read(item).expect("read").as_int().expect("int");
    t.write(item, v + 1).expect("write");
    t.commit().expect("commit");
}

fn engine_layer(budget: &Budget, out: &mut Metrics) {
    use IsolationLevel::*;
    let with_x = |history: bool| {
        let e = engine_with_wal(false, history);
        e.create_item("x", 0).expect("item");
        e
    };
    for (name, level) in [
        ("engine.rmw_commit_ns.ru", ReadUncommitted),
        ("engine.rmw_commit_ns.rc", ReadCommitted),
        ("engine.rmw_commit_ns.rcfcw", ReadCommittedFcw),
        ("engine.rmw_commit_ns.rr", RepeatableRead),
        ("engine.rmw_commit_ns.snap", Snapshot),
        ("engine.rmw_commit_ns.ssi", Ssi),
        ("engine.rmw_commit_ns.ser", Serializable),
    ] {
        let e = with_x(false);
        out.insert(name, time_ns(budget.slice, || rmw(&e, "x", level)));
    }
    for (name, level) in [
        ("engine.read_commit_ns.rc", ReadCommitted),
        ("engine.read_commit_ns.snap", Snapshot),
        ("engine.read_commit_ns.ser", Serializable),
    ] {
        let e = with_x(false);
        out.insert(
            name,
            time_ns(budget.slice, || {
                let mut t = e.begin(level);
                black_box(t.read("x").expect("read"));
                t.commit().expect("commit");
            }),
        );
    }
    let (on, off) = (with_x(true), with_x(false));
    let history_on = time_ns(budget.slice, || rmw(&on, "x", RepeatableRead));
    out.insert(
        "engine.history_on_overhead_ns",
        history_on - time_ns(budget.slice, || rmw(&off, "x", RepeatableRead)),
    );
    out.insert(
        "engine.begin_abort_ns",
        time_ns(budget.slice, || off.begin(RepeatableRead).abort()),
    );

    // Relational paths on the orders schema, 1,000 rows.
    const ROWS: i64 = 1_000;
    let e = engine_with_wal(false, false);
    orders::setup(&e, ROWS);
    let mut reader = e.begin(ReadUncommitted);
    out.insert(
        "engine.select_ns_per_row",
        time_ns(budget.slice, || {
            black_box(reader.select("orders", &RowPred::True).expect("select").len());
        }) / ROWS as f64,
    );
    let one_day = RowPred::field_eq_int("deliv_date", ROWS / 2);
    out.insert(
        "engine.select_pred_ns_per_row",
        time_ns(budget.slice, || {
            black_box(reader.select("orders", &one_day).expect("select").len());
        }) / ROWS as f64,
    );
    reader.abort();
    out.insert(
        "engine.update_where_commit_ns",
        time_ns(budget.slice, || {
            let mut t = e.begin(ReadCommitted);
            t.update_where("orders", &one_day, &|row| row.clone()).expect("update");
            t.commit().expect("commit");
        }),
    );
    let mut next = ROWS;
    out.insert(
        "engine.insert_commit_ns",
        time_ns(budget.slice, || {
            next += 1;
            let mut t = e.begin(ReadCommitted);
            let row = vec![Value::Int(next), Value::str("cust1"), Value::Int(next), Value::Int(0)];
            t.insert("orders", row).expect("insert");
            t.commit().expect("commit");
        }),
    );

    // Engine::reset of the explorer's kind of state: a handful of items
    // and one small table. Only the reset is timed, not the re-seeding.
    let e = engine_with_wal(false, true);
    let mut resets = Vec::new();
    let until = now_ns() + budget.slice.as_nanos() as u64;
    while now_ns() < until || resets.len() < 3 {
        banking::setup(&e, 2, 100);
        orders::setup(&e, 4);
        rmw(&e, "acct_sav[0]", Serializable);
        let t0 = now_ns();
        e.reset();
        resets.push((now_ns() - t0) as f64);
    }
    out.insert("engine.reset_us", median(&resets) / 1e3);
}

// ---------------------------------------------------------------------
// lock
// ---------------------------------------------------------------------

fn lock_manager(shards: usize) -> LockManager {
    LockManager::new(LockConfig { wait_timeout: Duration::from_secs(5), injector: None, shards })
}

/// Mean wait → grant latency of one X lock handed back and forth between
/// two threads. The holder releases only once the other thread is queued
/// (and has had time to park), and stamps the clock right before the
/// release; the waiter stamps it when `acquire` returns.
fn lock_handoff_us(rounds: u64) -> f64 {
    let m = lock_manager(32);
    let target = || Target::item("handoff");
    let released_at = AtomicU64::new(0);
    let granted_rounds = AtomicU64::new(0);
    let samples: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|me| {
                let (m, released_at, granted_rounds) = (&m, &released_at, &granted_rounds);
                s.spawn(move || {
                    let txn = me + 1;
                    let mut waits = Vec::new();
                    for round in 0..rounds {
                        if round % 2 == me {
                            // Holder: from the previous round's grant, or
                            // by taking the free lock in round 0.
                            if round == 0 {
                                m.acquire(txn, target(), Mode::X).expect("free lock");
                                granted_rounds.store(1, Ordering::SeqCst);
                            }
                            while m.total_waiters() == 0 {
                                std::hint::spin_loop();
                            }
                            let parked = now_ns() + 20_000;
                            while now_ns() < parked {
                                std::hint::spin_loop();
                            }
                            released_at.store(now_ns(), Ordering::SeqCst);
                            m.release_all(txn);
                        } else {
                            // Waiter: queue only once the holder really
                            // holds the lock for this round.
                            while granted_rounds.load(Ordering::SeqCst) <= round {
                                std::hint::spin_loop();
                            }
                            m.acquire(txn, target(), Mode::X).expect("handed-off lock");
                            let t = now_ns();
                            waits.push((t - released_at.load(Ordering::SeqCst)) as f64);
                            granted_rounds.store(round + 2, Ordering::SeqCst);
                        }
                    }
                    m.release_all(txn);
                    waits
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("handoff thread panicked")).collect()
    });
    median(&samples.concat()) / 1e3
}

fn lock_layer(budget: &Budget, out: &mut Metrics) {
    let names: Vec<String> = (0..4096).map(|i| format!("acct_sav[{i}]")).collect();
    let targets: Vec<Target> = names.iter().map(|n| Target::item(n.as_str())).collect();
    for (name, shards) in
        [("lock.acquire_release_ns.shards1", 1), ("lock.acquire_release_ns.shards32", 32)]
    {
        let m = lock_manager(shards);
        let mut txn = 0u64;
        out.insert(
            name,
            time_ns(budget.slice, || {
                txn += 1;
                let target = targets[txn as usize % targets.len()].clone();
                m.acquire(txn, target, Mode::X).expect("acquire");
                m.release_all(txn);
            }),
        );
    }
    let m = lock_manager(32);
    let mut txn = 0u64;
    out.insert(
        "lock.shared_acquire_release_ns",
        time_ns(budget.slice, || {
            txn += 1;
            let target = &targets[txn as usize % targets.len()];
            m.acquire(txn, target.clone(), Mode::S).expect("acquire");
            m.release(txn, target);
        }),
    );
    let m = lock_manager(32);
    for k in 1..=16 {
        m.acquire(k as u64, Target::pred("t", RowPred::field_eq_int("k", k)), Mode::X)
            .expect("disjoint predicates");
    }
    let mut txn = 16u64;
    out.insert(
        "lock.pred_acquire_release_ns",
        time_ns(budget.slice, || {
            txn += 1;
            m.acquire(
                txn,
                Target::pred("t", RowPred::field_eq_int("k", txn as i64 + 100)),
                Mode::X,
            )
            .expect("disjoint predicate");
            m.release_all(txn);
        }),
    );
    let mut i = 0usize;
    out.insert(
        "lock.target_build_ns",
        time_ns(budget.slice, || {
            i += 1;
            black_box(Target::item(names[i % names.len()].as_str()));
        }),
    );
    out.insert("lock.handoff_us", lock_handoff_us(if budget.slow { 2_000 } else { 200 }));
}

// ---------------------------------------------------------------------
// mvcc, storage, wal + recover
// ---------------------------------------------------------------------

fn mvcc_layer(budget: &Budget, out: &mut Metrics) {
    let keys: Vec<Key> = (0..4096).map(|i| Key::item(format!("acct_sav[{i}]"))).collect();
    let oracle = Oracle::new();
    let mut txn = 0u64;
    out.insert(
        "mvcc.begin_end_snapshot_ns",
        time_ns(budget.slice, || {
            txn += 1;
            black_box(oracle.begin_snapshot(txn));
            oracle.end_snapshot(txn);
        }),
    );
    for (name, width) in [("mvcc.validate_commit_ns.w1", 1), ("mvcc.validate_commit_ns.w8", 8)] {
        let oracle = Oracle::new();
        type ChecksAndWrites = (Vec<(Key, u64)>, Vec<Key>);
        let sets: Vec<ChecksAndWrites> = keys
            .chunks(width)
            .map(|c| (c.iter().map(|k| (k.clone(), u64::MAX)).collect(), c.to_vec()))
            .collect();
        let mut i = 0usize;
        out.insert(
            name,
            time_ns(budget.slice, || {
                i += 1;
                let (checks, writes) = &sets[i % sets.len()];
                black_box(oracle.validate_and_commit(checks, writes).expect("no conflict"));
            }),
        );
    }
    let ssi_keys: Vec<SsiKey> = keys.iter().cloned().map(SsiKey::Point).collect();
    let oracle = Oracle::new();
    let reader = oracle.next_txn_id();
    let ts = oracle.begin_snapshot(reader);
    oracle.ssi_begin(reader, ts);
    let mut i = 0usize;
    out.insert(
        "mvcc.ssi_on_read_ns",
        time_ns(budget.slice, || {
            i += 1;
            oracle.ssi_on_read(reader, &ssi_keys[i % ssi_keys.len()..][..1]).expect("no conflict");
        }),
    );
    let oracle = Oracle::new();
    let mut i = 0usize;
    out.insert(
        "mvcc.ssi_commit_ns",
        time_ns(budget.slice, || {
            i += 1;
            let (key, ssi_key) = (&keys[i % keys.len()], &ssi_keys[i % keys.len()..][..1]);
            let txn = oracle.next_txn_id();
            let ts = oracle.begin_snapshot(txn);
            oracle.ssi_begin(txn, ts);
            oracle.ssi_on_read(txn, ssi_key).expect("no conflict");
            oracle.ssi_on_write(txn, ssi_key).expect("no conflict");
            let writes = [key.clone()];
            oracle
                .ssi_validate_and_commit_with(txn, &[(key.clone(), ts)], &writes, |_| {})
                .expect("serial SSI commits never conflict");
            oracle.end_snapshot(txn);
        }),
    );
}

fn storage_layer(budget: &Budget, out: &mut Metrics) {
    let names: Vec<String> =
        (0..4096).flat_map(|i| [format!("acct_sav[{i}]"), format!("acct_ch[{i}]")]).collect();
    for (name, stripes) in
        [("store.item_lookup_ns.stripes1", 1), ("store.item_lookup_ns.stripes32", 32)]
    {
        let store = Store::with_stripes(stripes);
        for n in &names {
            store.create_item(n.clone(), Value::Int(0)).expect("item");
        }
        let mut i = 0usize;
        out.insert(
            name,
            time_ns(budget.slice, || {
                i += 1;
                black_box(store.item(&names[i % names.len()]).expect("item"));
            }),
        );
    }
    const ROWS: i64 = 1_000;
    let table = Table::with_stripes(Schema::new("t", &["k", "v"], &["k"]), 32);
    for k in 0..ROWS {
        table.load_row(0, vec![Value::Int(k), Value::Int(0)]).expect("row");
    }
    out.insert(
        "table.scan_ns_per_row",
        time_ns(budget.slice, || {
            black_box(table.scan_visible(1).len());
        }) / ROWS as f64,
    );
    let table = Table::with_stripes(Schema::new("t", &["k", "v"], &["k"]), 32);
    let mut k = 0i64;
    out.insert(
        "table.insert_promote_ns",
        time_ns(budget.slice, || {
            k += 1;
            let id = table.insert_dirty(1, vec![Value::Int(k), Value::Int(0)]).expect("insert");
            table.promote_row(1, id, k as u64);
        }),
    );
}

fn wal_layer(seed: u64, budget: &Budget, out: &mut Metrics) {
    let wal = Wal::new(WalPolicy { flush_every: 1 });
    let record = WalRecord::ItemWrite {
        txn: 1,
        name: "acct_sav[17]".into(),
        before: Value::Int(1_000),
        after: Value::Int(1_007),
    };
    out.insert(
        "wal.append_ns",
        time_ns(budget.slice, || {
            black_box(wal.append(record.clone()));
        }),
    );
    let wal = Wal::new(WalPolicy { flush_every: 1 });
    let mut ts = 0u64;
    out.insert(
        "wal.append_commit_ns",
        time_ns(budget.slice, || {
            ts += 1;
            black_box(wal.append_commit(ts, ts));
        }),
    );

    // A one-client banking run with the log on: exact bytes and records
    // per commit, then parse and recovery speed over its durable bytes.
    let engine = engine_with_wal(true, false);
    banking::setup(&engine, 4096, BANK_INITIAL);
    let wal = engine.wal().expect("log").clone();
    let (records0, bytes0) = (wal.record_count(), wal.len());
    let inputs: BankInputs = bank_inputs(seed, 4096, budget.run_ops);
    let programs = bank_programs().expect("banking policy");
    let run = run_programs(&engine, &programs, &inputs, 0..inputs.ops.len(), false);
    assert_eq!(run.failed, 0, "a logged banking request failed");
    let commits = engine.oracle().commit_count() as f64;
    out.insert("wal.bytes_per_commit", (wal.len() - bytes0) as f64 / commits);
    out.insert("wal.records_per_commit", (wal.record_count() - records0) as f64 / commits);
    let bytes = wal.durable_bytes();
    drop(engine);
    let t0 = now_ns();
    black_box(read_records(&bytes).records.len());
    out.insert("wal.read_records_mb_s", bytes.len() as f64 / 1e6 / ((now_ns() - t0) as f64 / 1e9));
    let t0 = now_ns();
    let recovered = recover(&bytes).expect("recovery");
    let dt = now_ns() - t0;
    out.insert("recover.us_per_record", dt as f64 / 1e3 / recovered.stats.records as f64);
    out.insert("recover.redo_records", recovered.stats.redo_applied as f64);
    out.insert("recover.undo_records", recovered.stats.undone as f64);
}

// ---------------------------------------------------------------------
// analysis: logic, core, refine, synth, cert, json
// ---------------------------------------------------------------------

fn analysis_layer(budget: &Budget, out: &mut Metrics) -> Tracer {
    let prover = Prover::new();
    for (name, formula) in [
        (
            "prover.valid_us",
            "sav + ch >= 0 && sav + ch >= :S + :C && :S + :C >= @w ==> sav + ch - @w >= 0",
        ),
        ("prover.wp_check_us", "sav + ch >= :S + :C && @d >= 0 ==> sav + @d + ch >= :S + :C"),
    ] {
        let p = parse_pred(formula).expect("formula parses");
        out.insert(
            name,
            time_ns(budget.slice, || {
                black_box(prover.valid(black_box(&p)));
            }) / 1e3,
        );
    }
    let p = parse_pred("x >= 0 && y >= 0 && x + y <= 10 && 2 * x + 3 * y >= 37").expect("parses");
    out.insert(
        "prover.sat_us",
        time_ns(budget.slice, || {
            black_box(prover.sat(black_box(&p)));
        }) / 1e3,
    );

    // One traced pass of the pipeline over the five applications: the
    // per-call means are the layer metrics, the search statistics the
    // exact counts.
    let apps = apps();
    let mut tracer = Tracer::default();
    let mut proofs = Vec::new();
    for (k, (name, app)) in apps.iter().enumerate() {
        let open = tracer.begin("analyze.app", 0, k as u32);
        let proven = prove(app, name, &mut Scope::under(&mut tracer, open.id(), k as u32));
        tracer.end(open);
        proofs.push(proven.expect("pipeline"));
    }
    let means = tracer.mean_ns_by_name();
    for (metric, span) in [
        ("core.sdg_build_ms", "core.sdg_build"),
        ("core.assign_levels_ms", "core.assign_levels"),
        ("refine.refine_ms", "refine.refine"),
        ("refine.predict_deadlocks_ms", "refine.predict_deadlocks"),
        ("synth.synthesize_ms", "synth.synthesize"),
        ("cert.verify_ms", "cert.verify"),
    ] {
        out.insert(metric, means[span].0 / 1e6);
    }
    let total =
        |f: fn(&crate::analysis::Proven) -> usize| proofs.iter().map(f).sum::<usize>() as f64;
    out.insert("prover.calls", total(|p| p.stats.prover_calls));
    out.insert("synth.lemmas_evaluated", total(|p| p.stats.pair_evals));
    out.insert("synth.vectors_visited", total(|p| p.stats.visited));
    let synth_s = means["synth.synthesize"].0 * means["synth.synthesize"].1 as f64 / 1e9;
    out.insert("synth.lemmas_per_s", total(|p| p.stats.pair_evals) / synth_s);

    let mut cells = Vec::new();
    let mut certify = Vec::new();
    for (name, app) in &apps {
        for program in &app.programs {
            for level in IsolationLevel::ALL {
                let t0 = now_ns();
                black_box(check_at_level(app, &program.name, level).ok);
                cells.push((now_ns() - t0) as f64);
            }
        }
        let t0 = now_ns();
        black_box(semcc_core::certify_app(app, name, SymOptions::default()).is_ok());
        certify.push((now_ns() - t0) as f64);
    }
    out.insert("core.check_at_level_ms", cells.iter().sum::<f64>() / cells.len() as f64 / 1e6);
    out.insert("core.certify_ms", certify.iter().sum::<f64>() / certify.len() as f64 / 1e6);

    out.insert("synth.witness_replay_ms", 0.0);
    if budget.slow {
        let opts = SynthOptions { jobs: 1, witnesses: true, ..SynthOptions::default() };
        let t0 = now_ns();
        black_box(synthesize(&apps[1].1, &opts).expect("orders synthesis").minimal.len());
        out.insert("synth.witness_replay_ms", (now_ns() - t0) as f64 / 1e6);
    }

    // Print + parse + digest of the serve mix's three artifacts.
    let mixed: Vec<_> = proofs
        .iter()
        .zip(&apps)
        .filter(|(_, (n, _))| ["banking", "orders", "payroll"].contains(n))
        .collect();
    out.insert(
        "json.policy_roundtrip_us",
        time_ns(budget.slice, || {
            for (proven, _) in &mixed {
                let text = proven.artifact.to_pretty();
                let parsed = semcc_json::from_str_value(&text).expect("round trip");
                verify_policy_digest(&parsed).expect("digest");
            }
        }) / 1e3,
    );
    tracer
}

// ---------------------------------------------------------------------
// explore, checker, par
// ---------------------------------------------------------------------

fn explore_layer(budget: &Budget, out: &mut Metrics) {
    let Cells { apps, cells } = cells();
    let stride = if budget.slow { 1 } else { 4 };
    let pass = |jobs: usize| {
        let (mut explore_ns, mut diff_ns) = (0u64, 0u64);
        let (mut replays, mut naive, mut ran) = (0u64, 0f64, 0f64);
        for cell in cells.iter().step_by(stride) {
            let app = &apps[cell.app].1;
            let opts = ExploreOptions { jobs, ..cell.opts.clone() };
            let t0 = now_ns();
            let r = explore(app, &cell.specs, &opts).expect("cell explores");
            let t1 = now_ns();
            black_box(differential(app, &cell.specs, &r).sound());
            diff_ns += now_ns() - t1;
            explore_ns += t1 - t0;
            replays += r.replays;
            naive += r.naive_schedules as f64;
            ran += (r.explored + r.blocked + r.infeasible) as f64;
        }
        (explore_ns, diff_ns, replays, naive / ran)
    };
    let (explore_ns, diff_ns, replays, pruning) = pass(1);
    let n = cells.iter().step_by(stride).count() as f64;
    out.insert("explore.replays", replays as f64);
    out.insert("explore.replays_per_s", replays as f64 / (explore_ns as f64 / 1e9));
    out.insert("explore.pruning_ratio", pruning);
    out.insert("explore.differential_ms", diff_ns as f64 / n / 1e6);
    out.insert("explore.jobs2_speedup", 0.0);
    if budget.slow {
        out.insert("explore.jobs2_speedup", explore_ns as f64 / pass(2).0 as f64);
    }
}

fn checker_and_par(seed: u64, budget: &Budget, out: &mut Metrics) {
    let engine = engine_with_wal(false, true);
    banking::setup(&engine, 64, BANK_INITIAL);
    let inputs = bank_inputs(seed, 64, budget.run_ops.min(2_000));
    let programs = bank_programs().expect("banking policy");
    let run = run_programs(&engine, &programs, &inputs, 0..inputs.ops.len(), false);
    assert_eq!(run.failed, 0, "a history-recording banking request failed");
    let histories = vec![engine.history().events()];
    let events = histories[0].len() as f64;
    let t0 = now_ns();
    black_box(semcc_checker::check_histories(1, &histories).len());
    out.insert("checker.events_per_s", events / ((now_ns() - t0) as f64 / 1e9));

    let items: Vec<u64> = (0..200_000).collect();
    let per_item = time_ns(budget.slice, || {
        black_box(semcc_par::ordered_map(2, &items, |_, x| x + 1).len());
    }) / items.len() as f64;
    out.insert("par.ordered_map_ns_per_item", per_item);
}

/// Measure every per-layer metric except `trace.overhead_ratio` (which
/// belongs to the traced workload). Returns the metrics, the ladder's and
/// the analysis pipeline's spans, and the ladder's reconciliation
/// `(sum of self times and direct child spans, mean serve.submit span)`.
pub fn measure(seed: u64, budget: &Budget) -> (Metrics, Tracer, (f64, f64)) {
    let mut out = Metrics::new();
    let mut spans = ladder(seed, budget, &mut out);
    let reconciled = reconcile(&out, &spans);
    serve_layer(seed, budget, &mut out);
    engine_layer(budget, &mut out);
    lock_layer(budget, &mut out);
    mvcc_layer(budget, &mut out);
    storage_layer(budget, &mut out);
    wal_layer(seed, budget, &mut out);
    spans.absorb(analysis_layer(budget, &mut out));
    explore_layer(budget, &mut out);
    checker_and_par(seed, budget, &mut out);
    (out, spans, reconciled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_rung_leaves_the_same_state_as_the_native_one() {
        let inputs = bank_inputs(5, 8, 500);
        let (a, b) = (engine_with_wal(false, false), engine_with_wal(false, false));
        for e in [&a, &b] {
            banking::setup(e, 8, BANK_INITIAL);
        }
        for op in &inputs.ops {
            native(&a, *op).expect("native");
            direct(&b, *op, &mut Scope::off()).expect("direct");
        }
        assert_eq!(
            semcc_engine::committed_digest(&a),
            semcc_engine::committed_digest(&b),
            "values and commit timestamps"
        );
        assert!(semcc_engine::audit_quiescent(&b).clean());
    }

    #[test]
    fn handoff_measures_a_positive_wait() {
        let us = lock_handoff_us(20);
        assert!(us > 0.0 && us < 1e6, "{us}");
    }
}
