//! Deterministic fault-simulation harness.
//!
//! Drives an application's programs through the engine single-threaded
//! under a seeded [`FaultPlan`], with the bounded [`RetryPolicy`] absorbing
//! the injected aborts, and audits the robustness contract after every
//! abort and at the end of the run:
//!
//! * after every abort, the victim left no lock grants/waiters, no dirty
//!   versions, and no registered snapshot ([`semcc_engine::audit`]);
//! * at the end, the store equals a replay of only the committed
//!   transactions' effects onto an identically seeded fresh engine — the
//!   executable form of Theorem 1's quantification over rollback writes;
//! * every dirtied-then-rolled-back target of each victim is covered by a
//!   `core::compens::rollback_effects` compensating-write summary, tying
//!   the dynamic abort paths back to the static Theorem 1 obligations.
//!
//! Single-threaded on purpose: with one driver thread every injector
//! ordinal, transaction id, and timestamp is a pure function of the seed,
//! so the whole run — including the [`FaultEvent`] trail — is bit-for-bit
//! reproducible.

use crate::driver::{retry, AbortClass, Attempted, RetryPolicy};
use semcc_core::compens::rollback_effects;
use semcc_core::{neutral_bindings, seed_neutral, App};
use semcc_engine::{
    audit_committed_replay, audit_post_abort, audit_quiescent, audit_recovery, CrashSnapshot,
    Engine, EngineConfig, FaultEvent, FaultInjector, FaultMix, FaultPlan, IsolationLevel, Op,
    TxnId, Wal, WalPolicy,
};
use semcc_txn::interp::Stepper;
use semcc_txn::Program;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a fault-simulation run.
#[derive(Clone, Debug)]
pub struct FaultSimOptions {
    /// Seed for the fault plan (and hence the whole run).
    pub seed: u64,
    /// Number of transactions to drive (round-robin over the app's
    /// programs).
    pub txns: usize,
    /// Isolation level per program, positionally. Empty = SERIALIZABLE for
    /// all; a single level is broadcast.
    pub levels: Vec<IsolationLevel>,
    /// Probabilistic fault rates.
    pub mix: FaultMix,
    /// Extra scripted faults layered under the mix.
    pub plan: FaultPlan,
    /// Engine lock-wait timeout.
    pub lock_timeout: Duration,
    /// Retry/backoff policy absorbing the injected aborts.
    pub policy: RetryPolicy,
    /// Durable mode: attach a write-ahead log to the engine, snapshot it at
    /// every injected crash, and audit crash recovery (replay the surviving
    /// log prefix onto a fresh engine, require bit-for-bit equality with
    /// the committed-prefix reference).
    pub durable: bool,
    /// WAL group-flush policy: flush the log to its durable prefix every
    /// this-many records (commits always force a flush). Only meaningful
    /// with `durable`.
    pub wal_flush_every: usize,
}

impl Default for FaultSimOptions {
    fn default() -> Self {
        FaultSimOptions {
            seed: 0,
            txns: 60,
            levels: Vec::new(),
            // Default mix: every class fires, aggressively enough that a
            // short run injects faults of most kinds.
            mix: FaultMix {
                lock_timeout: 0.02,
                lock_deadlock: 0.02,
                fcw_conflict: 0.05,
                abort_stmt: 0.05,
                crash_before: 0.03,
                crash_after: 0.03,
                crash_mid: 0.02,
                torn_tail: 0.02,
            },
            plan: FaultPlan::default(),
            lock_timeout: Duration::from_millis(50),
            policy: RetryPolicy {
                base_backoff: Duration::from_micros(10),
                max_backoff: Duration::from_micros(500),
                ..RetryPolicy::default()
            },
            durable: false,
            wal_flush_every: 1,
        }
    }
}

/// Results of a fault-simulation run. Every field except
/// `recovery_latencies_us` and `elapsed` is a pure function of the seed
/// and options (the determinism the CLI's `--json` trail relies on).
#[derive(Clone, Debug, Default)]
pub struct FaultSimReport {
    /// The driving seed.
    pub seed: u64,
    /// Transactions driven to completion (committed or given up).
    pub txns: usize,
    /// Committed transactions.
    pub committed: u64,
    /// Aborts absorbed (every class, injected or natural).
    pub aborts: u64,
    /// Transactions given up under the retry policy.
    pub gave_up: u64,
    /// Absorbed aborts by class.
    pub aborts_by_class: BTreeMap<AbortClass, u64>,
    /// Total injected faults.
    pub injected: u64,
    /// Injected faults by kind name.
    pub injected_by_kind: BTreeMap<&'static str, u64>,
    /// The structured fault trail, in firing order.
    pub events: Vec<FaultEvent>,
    /// Individual auditor checks performed.
    pub audit_checks: u64,
    /// Crash-recovery audits performed (durable mode: one per injected
    /// crash of any class).
    pub recoveries_audited: u64,
    /// Injected crashes by class name (durable mode).
    pub crashes_by_class: BTreeMap<&'static str, u64>,
    /// WAL records redone across all recovery audits (durable mode).
    pub recovery_redo: u64,
    /// Loser records undone across all recovery audits (durable mode).
    pub recovery_undone: u64,
    /// Auditor violations (empty = the robustness contract holds).
    pub violations: Vec<String>,
    /// Latencies (µs) of committed transactions that absorbed ≥ 1 abort —
    /// the recovery cost of graceful degradation. Wall-clock: excluded
    /// from deterministic comparisons.
    pub recovery_latencies_us: Vec<u64>,
    /// Wall-clock duration of the run (excluded from deterministic
    /// comparisons).
    pub elapsed: Duration,
}

impl FaultSimReport {
    /// True when the auditor found no violation.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Abort rate: aborts per finished transaction (committed + given up).
    pub fn abort_rate(&self) -> f64 {
        let finished = self.committed + self.gave_up;
        if finished == 0 {
            return 0.0;
        }
        self.aborts as f64 / finished as f64
    }

    /// Nearest-rank percentile (µs) of the recovery latencies.
    pub fn recovery_percentile_us(&self, p: f64) -> u64 {
        crate::driver::percentile(&self.recovery_latencies_us, p)
    }
}

/// Resolve the per-program level vector.
fn level_vector(
    n_programs: usize,
    levels: &[IsolationLevel],
) -> Result<Vec<IsolationLevel>, String> {
    match levels.len() {
        0 => Ok(vec![IsolationLevel::Serializable; n_programs]),
        1 => Ok(vec![levels[0]; n_programs]),
        n if n == n_programs => Ok(levels.to_vec()),
        n => Err(format!("{n} level(s) for {n_programs} program(s)")),
    }
}

/// The base item name of a (possibly indexed) engine item: `sav[0]` → `sav`.
fn item_base(name: &str) -> &str {
    name.split('[').next().unwrap_or(name)
}

/// One attempt of one program; returns the txn id alongside the outcome so
/// aborts can be audited against their victim.
fn attempt(
    engine: &Arc<Engine>,
    program: &Program,
    level: IsolationLevel,
    bindings: &semcc_txn::Bindings,
) -> (TxnId, Result<(), semcc_engine::EngineError>) {
    let st = Stepper::begin(engine, program, level, bindings);
    (st.txn_id(), st.finish().map(|_| ()))
}

/// Audit one crash snapshot: recover the surviving WAL prefix onto a fresh
/// engine and require bit-for-bit equality with a winner-filtered
/// committed-prefix replay onto an identically seeded reference engine.
fn audit_crash(
    snap: &CrashSnapshot,
    engine: &Arc<Engine>,
    app: &App,
    programs: &[&Program],
    opts: &FaultSimOptions,
    report: &mut FaultSimReport,
) {
    *report.crashes_by_class.entry(snap.kind).or_insert(0) += 1;
    let reference = Arc::new(Engine::new(EngineConfig {
        lock_timeout: opts.lock_timeout,
        record_history: false,
        faults: None,
        wal: None,
    }));
    if let Err(e) = seed_neutral(&reference, app, programs) {
        report.violations.push(format!("recovery reference seeding failed: {e}"));
        return;
    }
    let audit = audit_recovery(engine, &reference, &snap.bytes);
    report.audit_checks += audit.report.checks;
    report.violations.extend(audit.report.violations.iter().map(|v| v.to_string()));
    report.recoveries_audited += 1;
    if let Some(stats) = &audit.stats {
        report.recovery_redo += stats.redo_applied;
        report.recovery_undone += stats.undone;
    }
}

/// Run the fault simulation over `app`'s programs.
pub fn simulate(app: &App, opts: &FaultSimOptions) -> Result<FaultSimReport, String> {
    let programs: Vec<&Program> = app.programs.iter().collect();
    if programs.is_empty() {
        return Err("application has no programs".into());
    }
    let levels = level_vector(programs.len(), &opts.levels)?;
    let bindings = neutral_bindings(&programs);

    let mut plan = opts.plan.clone();
    plan.seed = opts.seed;
    plan.mix = opts.mix;
    let injector = Arc::new(FaultInjector::new(plan));
    let wal = opts
        .durable
        .then(|| Arc::new(Wal::new(WalPolicy { flush_every: opts.wal_flush_every.max(1) })));
    let engine = Arc::new(Engine::new(EngineConfig {
        lock_timeout: opts.lock_timeout,
        record_history: true,
        faults: Some(injector.clone()),
        wal: wal.clone(),
    }));

    // Seed with the injector disarmed so setup cannot be aborted and
    // consumes no fault-plan ordinals; the seeding transaction is not part
    // of the audited history.
    injector.set_armed(false);
    seed_neutral(&engine, app, &programs).map_err(|e| format!("seeding failed: {e}"))?;
    engine.history().clear();
    injector.set_armed(true);
    // Setup records must survive every crash: flush them past the
    // group-flush boundary before any fault can fire.
    if let Some(w) = &wal {
        w.flush();
    }

    let start = Instant::now();
    // Shared by the attempt closure (crash audits) and `on_abort`.
    let report =
        RefCell::new(FaultSimReport { seed: opts.seed, txns: opts.txns, ..Default::default() });
    // Victims by (txn id → program index), for the compensation cross-check.
    let mut victims: Vec<(TxnId, usize)> = Vec::new();

    for i in 0..opts.txns {
        let pi = i % programs.len();
        let t0 = Instant::now();
        let last_id = Cell::new(0);
        let attempted = retry(
            &opts.policy,
            i as u64,
            || {
                let (id, res) = attempt(&engine, programs[pi], levels[pi], &bindings[pi]);
                last_id.set(id);
                // Durable mode: every crash the attempt injected left a
                // snapshot of the surviving log — audit recovery from each
                // one before driving anything else.
                for snap in wal.iter().flat_map(|w| w.take_crash_snapshots()) {
                    audit_crash(&snap, &engine, app, &programs, opts, &mut report.borrow_mut());
                }
                res
            },
            |class, _| {
                let id = last_id.get();
                victims.push((id, pi));
                let mut report = report.borrow_mut();
                report.aborts += 1;
                *report.aborts_by_class.entry(class).or_insert(0) += 1;
                // Post-abort invariant audit on the fresh victim.
                let rep = audit_post_abort(&engine, id);
                report.audit_checks += rep.checks;
                report.violations.extend(rep.violations.iter().map(|v| v.to_string()));
            },
        );
        let mut report = report.borrow_mut();
        match attempted {
            Attempted::Committed { aborts, .. } => {
                report.committed += 1;
                if aborts > 0 {
                    report.recovery_latencies_us.push(t0.elapsed().as_micros() as u64);
                }
            }
            Attempted::GaveUp { .. } => report.gave_up += 1,
            Attempted::Failed(e) => return Err(format!("workload programming error: {e}")),
            Attempted::Panicked => return Err(format!("transaction {i} panicked")),
        }
    }
    let mut report = report.into_inner();

    // Whole-engine quiescence.
    let rep = audit_quiescent(&engine);
    report.audit_checks += rep.checks;
    report.violations.extend(rep.violations.iter().map(|v| v.to_string()));

    // Committed-prefix replay onto an identically seeded fresh engine.
    let fresh = Arc::new(Engine::new(EngineConfig {
        lock_timeout: opts.lock_timeout,
        record_history: false,
        faults: None,
        wal: None,
    }));
    seed_neutral(&fresh, app, &programs).map_err(|e| format!("replay seeding failed: {e}"))?;
    let rep = audit_committed_replay(&engine, &fresh);
    report.audit_checks += rep.checks;
    report.violations.extend(rep.violations.iter().map(|v| v.to_string()));

    // Compensation cross-check: everything a victim dirtied must be
    // covered by a rollback-effect summary of its program (Theorem 1's
    // "write statements including those that rollback a transaction").
    let coverage: Vec<(BTreeSet<String>, BTreeSet<String>)> = programs
        .iter()
        .map(|p| {
            let effects = rollback_effects(p, &app.schemas);
            let items = effects.iter().flat_map(|e| e.summary.written_items()).collect();
            let tables = effects.iter().flat_map(|e| e.summary.written_tables()).collect();
            (items, tables)
        })
        .collect();
    let events = engine.history().events();
    for (id, pi) in &victims {
        let (items, tables) = &coverage[*pi];
        report.audit_checks += 1;
        for e in events.iter().filter(|e| e.txn == *id) {
            let missing = match &e.op {
                Op::Write { key: semcc_mvcc::Key::Item(name), value: Some(_) } => {
                    let base = item_base(name);
                    (!items.contains(base)).then(|| format!("item `{base}`"))
                }
                Op::RowInsert { table, .. }
                | Op::RowUpdate { table, .. }
                | Op::RowDelete { table, .. } => {
                    (!tables.contains(table)).then(|| format!("table `{table}`"))
                }
                _ => None,
            };
            if let Some(what) = missing {
                report.violations.push(format!(
                    "txn {id}: compens-coverage: {what} dirtied by `{}` has no rollback effect",
                    programs[*pi].name
                ));
            }
        }
    }

    report.injected = injector.injected();
    report.injected_by_kind =
        injector.counts_by_kind().into_iter().map(|(k, n)| (k.name(), n)).collect();
    report.events = injector.events();
    report.elapsed = start.elapsed();
    Ok(report)
}

/// Run the fault simulation once per seed, fanned out over `jobs`
/// workers. Each run keeps its single-threaded driver (the plan-sweep
/// determinism of [`simulate`] depends on every fault ordinal being drawn
/// from the run's own `(seed, site, ordinal)` stream with no concurrent
/// interleaving), so the parallelism lives at the seed level: runs share
/// nothing, and reports come back in seed order — identical, wall-clock
/// fields aside, at every job count.
pub fn simulate_sweep(
    app: &App,
    base: &FaultSimOptions,
    seeds: &[u64],
    jobs: usize,
) -> Result<Vec<FaultSimReport>, String> {
    semcc_par::ordered_map(jobs, seeds, |_, &seed| {
        simulate(app, &FaultSimOptions { seed, ..base.clone() })
    })
    .into_iter()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payroll;
    use semcc_engine::FaultKind;

    fn strip_wallclock(r: &FaultSimReport) -> FaultSimReport {
        FaultSimReport { recovery_latencies_us: Vec::new(), elapsed: Duration::ZERO, ..r.clone() }
    }

    #[test]
    fn faultsim_is_deterministic_and_clean_on_payroll() {
        let app = payroll::app();
        let opts = FaultSimOptions { seed: 42, txns: 40, ..FaultSimOptions::default() };
        let a = simulate(&app, &opts).expect("run a");
        let b = simulate(&app, &opts).expect("run b");
        assert!(a.clean(), "auditor violations: {:?}", a.violations);
        assert!(a.injected > 0, "default mix over 40 txns must inject");
        assert!(format!("{:?}", strip_wallclock(&a)) == format!("{:?}", strip_wallclock(&b)));
    }

    #[test]
    fn seed_sweep_is_jobs_invariant() {
        let app = payroll::app();
        let base = FaultSimOptions { txns: 12, ..FaultSimOptions::default() };
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let seq = simulate_sweep(&app, &base, &seeds, 1).expect("jobs=1");
        let par = simulate_sweep(&app, &base, &seeds, 8).expect("jobs=8");
        assert_eq!(seq.len(), seeds.len());
        for (i, (a, b)) in seq.iter().zip(&par).enumerate() {
            assert_eq!(a.seed, seeds[i], "reports stay in seed order");
            assert_eq!(
                format!("{:?}", strip_wallclock(a)),
                format!("{:?}", strip_wallclock(b)),
                "seed {} diverged between job counts",
                seeds[i]
            );
        }
    }

    #[test]
    fn scripted_abort_is_audited() {
        let app = payroll::app();
        let opts = FaultSimOptions {
            seed: 7,
            txns: 6,
            mix: FaultMix::default(),
            // Seeding disarmed ⇒ the first driven txn gets id 2; abort it
            // after its first statement.
            plan: FaultPlan { abort_after: vec![(2, 1)], ..FaultPlan::default() },
            ..FaultSimOptions::default()
        };
        let r = simulate(&app, &opts).expect("run");
        assert!(r.clean(), "{:?}", r.violations);
        assert_eq!(r.injected, 1);
        assert_eq!(r.events[0].kind, FaultKind::AbortAfterStmt);
        assert!(r.aborts >= 1);
        assert_eq!(r.committed, 6, "the retry absorbed the abort");
    }

    #[test]
    fn durable_run_is_deterministic_and_recovery_clean() {
        let app = payroll::app();
        let opts =
            FaultSimOptions { seed: 42, txns: 60, durable: true, ..FaultSimOptions::default() };
        let a = simulate(&app, &opts).expect("run a");
        let b = simulate(&app, &opts).expect("run b");
        assert!(a.clean(), "recovery violations: {:?}", a.violations);
        assert!(a.recoveries_audited > 0, "default mix over 60 txns must crash");
        assert_eq!(
            a.recoveries_audited,
            a.crashes_by_class.values().sum::<u64>(),
            "every crash snapshot is audited exactly once"
        );
        assert!(a.recovery_redo > 0, "recovery replays committed work");
        assert!(
            format!("{:?}", strip_wallclock(&a)) == format!("{:?}", strip_wallclock(&b)),
            "durable runs (including recovery counters) are bit-for-bit deterministic"
        );
    }

    #[test]
    fn scripted_crashes_cover_every_class_and_recover_cleanly() {
        let app = payroll::app();
        let opts = FaultSimOptions {
            seed: 9,
            txns: 6,
            durable: true,
            mix: FaultMix::default(),
            // Seeding is disarmed, so the first driven txn gets id 2 and
            // the first client-commit ordinal is 1: ordinal 1 dies before
            // commit (retry absorbs it), ordinal 2 dies after its durable
            // commit, ordinal 3 tears the final log record; txn 5 (the
            // third driven program's first attempt) crashes mid-txn after
            // its first statement.
            plan: FaultPlan {
                crash_faults: vec![
                    (1, FaultKind::CrashBeforeCommit),
                    (2, FaultKind::CrashAfterCommit),
                    (3, FaultKind::TornTail),
                ],
                crash_mid_txn: vec![(5, 1)],
                ..FaultPlan::default()
            },
            ..FaultSimOptions::default()
        };
        let r = simulate(&app, &opts).expect("run");
        assert!(r.clean(), "{:?}", r.violations);
        assert_eq!(r.recoveries_audited, 4);
        let classes: Vec<&str> = r.crashes_by_class.keys().copied().collect();
        assert_eq!(classes, vec!["crash-after", "crash-before", "crash-mid-txn", "torn-tail"]);
        assert!(r.crashes_by_class.values().all(|&n| n == 1));
        assert_eq!(r.committed, 6, "retries absorbed both aborting crash classes");
    }

    #[test]
    fn durable_sweep_is_jobs_invariant() {
        let app = payroll::app();
        let base = FaultSimOptions { txns: 12, durable: true, ..FaultSimOptions::default() };
        let seeds = [1u64, 2, 3, 4];
        let seq = simulate_sweep(&app, &base, &seeds, 1).expect("jobs=1");
        let par = simulate_sweep(&app, &base, &seeds, 8).expect("jobs=8");
        for (a, b) in seq.iter().zip(&par) {
            assert!(a.clean(), "seed {}: {:?}", a.seed, a.violations);
            assert_eq!(
                format!("{:?}", strip_wallclock(a)),
                format!("{:?}", strip_wallclock(b)),
                "seed {} diverged between job counts",
                a.seed
            );
        }
    }

    #[test]
    fn group_flush_policy_still_recovers_cleanly() {
        let app = payroll::app();
        for flush_every in [1usize, 8, 64] {
            let opts = FaultSimOptions {
                seed: 42,
                txns: 40,
                durable: true,
                wal_flush_every: flush_every,
                ..FaultSimOptions::default()
            };
            let r = simulate(&app, &opts).expect("run");
            assert!(r.clean(), "flush_every={flush_every}: {:?}", r.violations);
            assert!(r.recoveries_audited > 0);
        }
    }

    #[test]
    fn level_vector_shapes() {
        assert_eq!(level_vector(3, &[]).expect("all ser").len(), 3);
        assert_eq!(
            level_vector(3, &[IsolationLevel::ReadCommitted]).expect("broadcast"),
            vec![IsolationLevel::ReadCommitted; 3]
        );
        assert!(level_vector(3, &[IsolationLevel::ReadCommitted; 2]).is_err());
    }
}
