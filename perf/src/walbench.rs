//! `bank_wal`: `bank_point`'s traffic with the write-ahead log on.
//!
//! `Server::start` hard-codes `wal: None`, so the requests go through
//! `run_program` on an engine built with a log that flushes every record.
//! One op is one `run_program`. The log is still an in-memory model, so
//! recovery time is a per-layer figure, not an end-to-end one; what the
//! end-to-end run does check is that recovering from the durable bytes
//! reproduces the live engine's committed state bit for bit.

use crate::clock::now_ns;
use crate::gen::{bank_inputs, BankInputs};
use crate::run::{drive, Measured, Rep, Workload};
use crate::serve::{bank_policy, expected_total, BankPolicy, BANK_INITIAL};
use semcc_engine::audit::{audit_quiescent, audit_recovery, committed_digest};
use semcc_engine::{recover, Engine, EngineConfig, EngineTuning, IsolationLevel, Wal, WalPolicy};
use semcc_storage::wal::fnv1a;
use semcc_txn::interp::run_program;
use semcc_txn::Program;
use semcc_workloads::banking;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// `bank_wal`, and the per-layer WAL figures taken off the same run.
pub struct BankWal {
    /// Seed of the input vector.
    pub seed: u64,
    /// Accounts.
    pub accounts: u32,
    /// Ops per repetition.
    pub ops: usize,
    /// The last repetition's engine and committed-state digest, kept for
    /// the end-of-run recovery audit (dropped before the next repetition
    /// builds its own, so two logs are never resident at once).
    pub last: Option<(Arc<Engine>, u64)>,
}

/// A server-layout engine (32/32, no history, 30 ms lock wait) with an
/// optional flush-every-record log.
pub fn engine_with_wal(wal: bool, record_history: bool) -> Arc<Engine> {
    Arc::new(Engine::with_tuning(
        EngineConfig {
            lock_timeout: Duration::from_millis(30),
            record_history,
            faults: None,
            wal: wal.then(|| Arc::new(Wal::new(WalPolicy { flush_every: 1 }))),
        },
        EngineTuning::server(),
    ))
}

/// The banking programs with the level the synthesized policy gives each.
pub fn bank_programs() -> Result<Vec<(Program, IsolationLevel)>, String> {
    let policy = bank_policy(BankPolicy::Synthesized)?;
    Ok(banking::app()
        .programs
        .into_iter()
        .map(|p| {
            let level = policy.level_of(&p.name).expect("policy covers every banking type");
            (p, level)
        })
        .collect())
}

/// Drive the requests `ops` of `inputs` through `run_program` on one
/// client.
pub fn run_programs(
    engine: &Arc<Engine>,
    programs: &[(Program, IsolationLevel)],
    inputs: &BankInputs,
    ops: Range<usize>,
    traced: bool,
) -> Measured {
    drive(1, ops, "txn.run_program", traced, |k, _| {
        let op = inputs.ops[k];
        let (program, level) = &programs[op.ty as usize];
        run_program(engine, program, *level, &inputs.bindings[op.binding as usize]).is_ok()
    })
}

impl Workload for BankWal {
    fn clients(&self) -> usize {
        1
    }

    fn rep(&mut self, traced: bool) -> Rep {
        self.last = None;
        let t0 = now_ns();
        let programs = bank_programs().expect("banking policy");
        let engine = engine_with_wal(true, false);
        banking::setup(&engine, self.accounts as usize, BANK_INITIAL);
        let inputs = bank_inputs(self.seed, self.accounts, self.ops);
        let setup_s = (now_ns() - t0) as f64 / 1e9;
        let wal = engine.wal().expect("engine built with a log").clone();
        let (records0, bytes0) = (wal.record_count(), wal.len());

        let measured = run_programs(&engine, &programs, &inputs, 0..inputs.ops.len(), traced);

        let mut audit_failures: Vec<String> = audit_quiescent(&engine)
            .violations
            .iter()
            .map(|v| format!("not quiescent: {}: {}", v.invariant, v.detail))
            .collect();
        let (want, got) = (
            expected_total(&inputs, self.accounts),
            banking::total_money(&engine, self.accounts as usize),
        );
        if measured.failed == 0 && want != got {
            audit_failures.push(format!("bank holds {got}, the committed requests sum to {want}"));
        }
        if wal.durable_len() != wal.len() {
            audit_failures.push("log has an undurable tail after the last commit".into());
        }
        let commits = engine.oracle().commit_count() as f64;
        let counters = BTreeMap::from([
            ("wal.bytes", (wal.len() - bytes0) as f64),
            ("wal.records", (wal.record_count() - records0) as f64),
            ("wal.commits", commits),
        ]);
        let digest = fnv1a(committed_digest(&engine).as_bytes());
        self.last = Some((engine, digest));
        Rep {
            setup_s,
            ops: inputs.ops.len() as u64,
            audit_failures,
            digest: Some(digest),
            counters,
            measured,
        }
    }

    /// Recover from the last repetition's durable bytes and require the
    /// recovered engine to be quiescent, free of undo mismatches, and equal
    /// to the live committed state in every value and commit timestamp.
    ///
    /// `audit_recovery` itself rebuilds its reference from the live
    /// engine's *history*, in time quadratic in the transaction count, so
    /// it cannot run on a 400k-op repetition; it runs here on a short
    /// history-recording prefix of the same inputs instead.
    fn finish(&mut self) -> Vec<String> {
        let mut out = Vec::new();
        if let Some((engine, live_digest)) = self.last.take() {
            let bytes = engine.wal().expect("engine built with a log").durable_bytes();
            drop(engine);
            match recover(&bytes) {
                Err(e) => out.push(format!("recovery failed: {e}")),
                Ok(rec) => {
                    if rec.stats.undo_mismatches != 0 || rec.stats.torn {
                        out.push(format!(
                            "recovery: {} undo mismatch(es), torn = {}",
                            rec.stats.undo_mismatches, rec.stats.torn
                        ));
                    }
                    if fnv1a(committed_digest(&rec.engine).as_bytes()) != live_digest {
                        out.push("recovered committed state differs from the live engine".into());
                    }
                    if !audit_quiescent(&rec.engine).clean() {
                        out.push("recovered engine is not quiescent".into());
                    }
                }
            }
        }
        out.extend(audit_recovery_prefix(self.seed, self.accounts, self.ops.min(2_000)));
        out
    }
}

/// Run `n` requests on a history-recording engine with a log, then let
/// `audit_recovery` compare recovery against its committed-prefix replay.
pub fn audit_recovery_prefix(seed: u64, accounts: u32, n: usize) -> Vec<String> {
    let programs = match bank_programs() {
        Ok(p) => p,
        Err(e) => return vec![e],
    };
    let live = engine_with_wal(true, true);
    banking::setup(&live, accounts as usize, BANK_INITIAL);
    let inputs = bank_inputs(seed, accounts, n);
    let measured = run_programs(&live, &programs, &inputs, 0..n, false);
    let fresh = engine_with_wal(false, false);
    banking::setup(&fresh, accounts as usize, BANK_INITIAL);
    let bytes = live.wal().expect("log").durable_bytes();
    let audit = audit_recovery(&live, &fresh, &bytes);
    let mut out: Vec<String> =
        audit.report.violations.iter().map(|v| format!("audit_recovery: {v}")).collect();
    if measured.failed != 0 {
        out.push(format!("audit_recovery prefix: {} request(s) failed", measured.failed));
    }
    out
}
