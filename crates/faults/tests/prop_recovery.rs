//! Seeded crash-recovery property suite: random small programs × random
//! crash-heavy fault plans × all seven isolation levels, driven in durable
//! mode — and the recovery auditor must find **zero** violations in every
//! run.
//!
//! This is the executable form of the durability contract: no matter where
//! a crash lands — mid-transaction, before the commit request, after the
//! durable commit, or tearing the final log record mid-frame — replaying
//! the surviving write-ahead-log prefix onto a fresh engine reproduces,
//! bit for bit (values *and* commit timestamps), the state obtained by
//! replaying exactly the transactions whose commit records survived onto
//! an identically seeded reference engine.
//!
//! Everything is seeded: a failure reproduces by iteration number. A
//! companion test drives `recover` directly over *every* frame boundary
//! (and a torn mid-frame cut after each) of a sequential run's log, so the
//! crash-point axis is exhaustive rather than sampled there.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_core::App;
use semcc_engine::{
    audit_recovery, Engine, EngineConfig, FaultMix, FaultPlan, IsolationLevel, Wal, WalPolicy,
};
use semcc_workloads::{
    random_item_program, simulate, simulate_sweep, FaultSimOptions, RetryPolicy,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

const ITEMS: [&str; 3] = ["x", "y", "z"];

/// A crash-heavy random mix: every crash class drawn from {off, rare,
/// common}, the non-crash classes kept rare so retries stay cheap.
fn crashy_mix(rng: &mut StdRng) -> FaultMix {
    let mut p = || match rng.gen_range(0..3) {
        0 => 0.0,
        1 => 0.05,
        _ => 0.15,
    };
    FaultMix {
        lock_timeout: 0.01,
        lock_deadlock: 0.01,
        fcw_conflict: 0.02,
        abort_stmt: 0.02,
        crash_before: p(),
        crash_after: p(),
        crash_mid: p(),
        torn_tail: p(),
    }
}

/// A random scripted plan layered under the mix: a few forced mid-txn
/// crashes at plausible (txn, statement) coordinates, so the mid-txn class
/// fires even on iterations whose mix rolled it off.
fn crashy_plan(rng: &mut StdRng) -> FaultPlan {
    let mut plan = FaultPlan::default();
    for _ in 0..rng.gen_range(0..3usize) {
        // Txn ids start after the (disarmed) seeding transaction.
        plan.crash_mid_txn.push((rng.gen_range(2..20u64), rng.gen_range(1..=3usize)));
    }
    plan
}

fn durable_opts(iter: u64, rng: &mut StdRng, level: IsolationLevel) -> FaultSimOptions {
    FaultSimOptions {
        seed: iter.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        txns: 12,
        levels: vec![level],
        mix: crashy_mix(rng),
        plan: crashy_plan(rng),
        durable: true,
        // Vary the group-flush policy too: recovery must hold whether the
        // durable prefix trails by 0, a few, or many records.
        wal_flush_every: [1usize, 4, 32][(iter % 3) as usize],
        policy: RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        },
        ..FaultSimOptions::default()
    }
}

/// 203 seeded iterations (29 per isolation level): every injected crash is
/// recovery-audited and none may diverge.
#[test]
fn recovery_audit_finds_no_violation_across_seeds_and_levels() {
    let mut audited_total = 0u64;
    let mut classes_seen: BTreeSet<&'static str> = BTreeSet::new();
    for iter in 0..203u64 {
        let level = IsolationLevel::ALL[(iter as usize) % IsolationLevel::ALL.len()];
        let mut rng = StdRng::seed_from_u64(0xD0_5EED ^ iter);
        let app = App::new()
            .with_program(random_item_program("T0", &ITEMS, 4, &mut rng))
            .with_program(random_item_program("T1", &ITEMS, 4, &mut rng));
        let opts = durable_opts(iter, &mut rng, level);
        let report = simulate(&app, &opts)
            .unwrap_or_else(|e| panic!("iteration {iter} at {level}: simulate failed: {e}"));
        assert!(
            report.clean(),
            "iteration {iter} at {level}: recovery violations: {:#?}",
            report.violations
        );
        audited_total += report.recoveries_audited;
        classes_seen.extend(report.crashes_by_class.keys());
    }
    // The suite must exercise recovery heavily and hit every crash class.
    assert!(audited_total > 400, "expected a substantial audit count, got {audited_total}");
    assert_eq!(
        classes_seen.into_iter().collect::<Vec<_>>(),
        vec!["crash-after", "crash-before", "crash-mid-txn", "torn-tail"],
        "every crash class must fire somewhere in the suite"
    );
}

/// Durable sweeps are invariant under the worker count: the recovery
/// audits run inside each single-threaded simulation, so fanning seeds
/// over 8 workers must reproduce the 1-worker reports bit for bit
/// (wall-clock fields aside).
#[test]
fn durable_sweep_reports_are_jobs_invariant() {
    let mut rng = StdRng::seed_from_u64(0xD05E_ED0B);
    let app = App::new()
        .with_program(random_item_program("T0", &ITEMS, 4, &mut rng))
        .with_program(random_item_program("T1", &ITEMS, 4, &mut rng));
    let base = durable_opts(1, &mut rng, IsolationLevel::Serializable);
    let seeds: Vec<u64> = (0..8).collect();
    let seq = simulate_sweep(&app, &base, &seeds, 1).expect("jobs=1");
    let par = simulate_sweep(&app, &base, &seeds, 8).expect("jobs=8");
    let strip = |r: &semcc_workloads::FaultSimReport| {
        let mut r = r.clone();
        r.recovery_latencies_us = Vec::new();
        r.elapsed = Duration::ZERO;
        format!("{r:?}")
    };
    for (a, b) in seq.iter().zip(&par) {
        assert!(a.clean(), "seed {}: {:?}", a.seed, a.violations);
        assert_eq!(strip(a), strip(b), "seed {} diverged between job counts", a.seed);
    }
}

/// Frame boundaries of an encoded log: byte offsets at which a crash can
/// cut it leaving only whole records before the cut.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut cuts = vec![0usize];
    let mut off = 0usize;
    while off + 4 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        let end = off + 4 + len + 8;
        if end > bytes.len() {
            break;
        }
        cuts.push(end);
        off = end;
    }
    cuts
}

/// Exhaustive crash-point check, `recover` driven directly: run a
/// sequential random workload cycling through all seven levels on a
/// WAL-attached engine, then recover from **every** frame boundary past
/// the setup records — and from a torn mid-frame cut after each — and
/// require winner-consistent bit-for-bit equality every time.
#[test]
fn every_log_prefix_recovers_to_winner_consistent_state() {
    let wal = Arc::new(Wal::new(WalPolicy::default()));
    let live = Arc::new(Engine::new(EngineConfig { wal: Some(wal.clone()), ..Default::default() }));
    for name in ITEMS {
        live.create_item(name, 100).expect("item");
    }
    let setup_len = wal.bytes().len();

    let mut rng = StdRng::seed_from_u64(0xC4A54);
    for i in 0..14usize {
        let level = IsolationLevel::ALL[i % IsolationLevel::ALL.len()];
        let mut t = live.begin(level);
        for _ in 0..rng.gen_range(1..=3usize) {
            let item = ITEMS[rng.gen_range(0..ITEMS.len())];
            let v = t.read(item).expect("read").as_int().expect("int");
            t.write(item, v + 1).expect("write");
        }
        t.commit().expect("commit");
    }
    wal.flush();
    let bytes = wal.bytes();

    let reference = |cut: usize| {
        let fresh = Arc::new(Engine::new(EngineConfig {
            record_history: false,
            ..EngineConfig::default()
        }));
        for name in ITEMS {
            fresh.create_item(name, 100).expect("item");
        }
        let audit = audit_recovery(&live, &fresh, &bytes[..cut]);
        assert!(
            audit.report.violations.is_empty(),
            "cut at byte {cut}/{}: {:#?}",
            bytes.len(),
            audit.report.violations
        );
    };

    let cuts: Vec<usize> =
        frame_boundaries(&bytes).into_iter().filter(|&c| c >= setup_len).collect();
    assert!(cuts.len() > 14, "the run must produce many crash points");
    for (i, &cut) in cuts.iter().enumerate() {
        reference(cut);
        // A torn cut strictly inside the next frame (when one exists).
        if let Some(&next) = cuts.get(i + 1) {
            reference(cut + (next - cut) / 2);
        }
    }
}
