//! Seeded property suite for the fault-injection harness: random small
//! programs × random fault plans × all seven isolation levels, and the
//! abort-path auditor must find **zero** violations in every run.
//!
//! This is the executable form of the robustness contract: no matter where
//! a fault fires — mid-statement, at lock acquisition, at commit
//! validation, or as a client crash around commit — an aborted transaction
//! leaves no trace (no lock grants or waiters, no dirty versions, no
//! snapshot registration), the final store equals a replay of exactly the
//! committed transactions, and every rolled-back write is covered by a
//! `compens` rollback-effect summary.
//!
//! Everything is seeded: a failure reproduces by iteration number.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_core::App;
use semcc_engine::{FaultMix, FaultPlan, IsolationLevel};
use semcc_workloads::{random_item_program, simulate, FaultSimOptions, RetryPolicy};
use std::time::Duration;

const ITEMS: [&str; 3] = ["x", "y", "z"];

/// A random fault mix: each class drawn from {off, rare, common}.
fn gen_mix(rng: &mut StdRng) -> FaultMix {
    let mut p = || match rng.gen_range(0..3) {
        0 => 0.0,
        1 => 0.02,
        _ => 0.10,
    };
    FaultMix {
        lock_timeout: p(),
        lock_deadlock: p(),
        fcw_conflict: p(),
        abort_stmt: p(),
        crash_before: p(),
        crash_after: p(),
        crash_mid: p(),
        torn_tail: p(),
    }
}

/// A random scripted plan on top of the mix: a few forced mid-statement
/// aborts at plausible (txn, statement) coordinates.
fn gen_plan(rng: &mut StdRng) -> FaultPlan {
    let mut plan = FaultPlan::default();
    for _ in 0..rng.gen_range(0..3usize) {
        // Txn ids start after the (disarmed) seeding transaction.
        plan.abort_after.push((rng.gen_range(2..20u64), rng.gen_range(1..=3usize)));
    }
    plan
}

#[test]
fn auditor_finds_no_violation_on_random_programs_and_fault_plans() {
    let mut injected_total = 0u64;
    for iter in 0..204u64 {
        let level = IsolationLevel::ALL[(iter as usize) % IsolationLevel::ALL.len()];
        let mut rng = StdRng::seed_from_u64(0xFA_0175 ^ iter);
        let app = App::new()
            .with_program(random_item_program("T0", &ITEMS, 4, &mut rng))
            .with_program(random_item_program("T1", &ITEMS, 4, &mut rng));
        let opts = FaultSimOptions {
            seed: iter.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            txns: 12,
            levels: vec![level],
            mix: gen_mix(&mut rng),
            plan: gen_plan(&mut rng),
            policy: RetryPolicy {
                max_attempts: 8,
                base_backoff: Duration::ZERO,
                ..RetryPolicy::default()
            },
            ..FaultSimOptions::default()
        };
        let report = simulate(&app, &opts)
            .unwrap_or_else(|e| panic!("iteration {iter} at {level}: simulate failed: {e}"));
        assert!(
            report.clean(),
            "iteration {iter} at {level}: auditor violations: {:#?}",
            report.violations
        );
        assert_eq!(
            report.committed + report.gave_up,
            opts.txns as u64,
            "iteration {iter} at {level}: every driven txn must finish"
        );
        injected_total += report.injected;
    }
    // The suite must actually exercise fault paths, not vacuously pass.
    assert!(
        injected_total > 200,
        "expected a substantial injected-fault count, got {injected_total}"
    );
}
