//! Seeded differential property test: the static predictor vs the
//! exhaustive explorer on random small programs.
//!
//! For random 2-transaction item programs (≤ 4 statements each) the suite
//! checks, at every isolation level:
//!
//! 1. **soundness** — when the structural predictor exposes *nothing* for
//!    either type (and the theorem linter agrees), the explorer must find
//!    zero divergent schedules;
//! 2. **engine serializability** — at SERIALIZABLE and (for item-only
//!    programs) REPEATABLE READ the explorer must find zero divergent
//!    schedules no matter what the programs do;
//! 3. **determinism** — re-running the same case yields identical counts.
//!
//! Everything is seeded: a failure reproduces by seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_core::sdg::{predict_exposures, DepGraph};
use semcc_core::{lint, App};
use semcc_engine::IsolationLevel;
use semcc_explore::{explore, specs_for, ExploreOptions, ExploreResult, TxnSpec};
use semcc_txn::Program;
use semcc_workloads::random_item_program;
use std::collections::BTreeMap;

const ITEMS: [&str; 3] = ["x", "y", "z"];

fn case(seed: u64) -> (App, Vec<Program>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let p0 = random_item_program("T0", &ITEMS, 4, &mut rng);
    let p1 = random_item_program("T1", &ITEMS, 4, &mut rng);
    let app = App::new().with_program(p0.clone()).with_program(p1.clone());
    (app, vec![p0, p1])
}

/// Structural + theorem verdict: nothing exposed, nothing diagnosed.
fn static_safe(app: &App, levels: &BTreeMap<String, IsolationLevel>) -> bool {
    let graph = DepGraph::build(app);
    let clean_exposures = predict_exposures(&graph, levels).iter().all(|e| e.exposed.is_empty());
    clean_exposures && lint(app, Some(levels)).clean()
}

fn run(app: &App, l0: IsolationLevel, l1: IsolationLevel) -> (Vec<TxnSpec>, ExploreResult) {
    let specs = specs_for(app, &["T0".into(), "T1".into()], &[l0, l1]).expect("specs");
    let r = explore(app, &specs, &ExploreOptions::default()).expect("explore");
    (specs, r)
}

#[test]
fn static_safe_implies_no_divergent_schedule_at_every_level() {
    let mut checked_safe = 0u32;
    for seed in 0..40u64 {
        let (app, _) = case(seed);
        for level in IsolationLevel::ALL {
            let levels: BTreeMap<String, IsolationLevel> =
                [("T0".to_string(), level), ("T1".to_string(), level)].into();
            let safe = static_safe(&app, &levels);
            let (_, r) = run(&app, level, level);
            assert_eq!(r.serial_errors, 0, "seed {seed} at {level}: {r:?}");
            assert!(!r.truncated, "seed {seed} at {level} must explore fully");
            if safe {
                checked_safe += 1;
                assert_eq!(
                    r.divergent, 0,
                    "seed {seed} at {level}: static SAFE but divergent schedule found — \
                     analyzer soundness violation: {r:?}"
                );
            }
        }
    }
    assert!(checked_safe >= 20, "the generator must produce enough SAFE cases ({checked_safe})");
}

#[test]
fn static_safe_implies_no_divergence_at_mixed_levels() {
    let mut rng = StdRng::seed_from_u64(0xd1ff);
    for seed in 40..60u64 {
        let (app, _) = case(seed);
        let l0 = IsolationLevel::ALL[rng.gen_range(0..IsolationLevel::ALL.len())];
        let l1 = IsolationLevel::ALL[rng.gen_range(0..IsolationLevel::ALL.len())];
        let levels: BTreeMap<String, IsolationLevel> =
            [("T0".to_string(), l0), ("T1".to_string(), l1)].into();
        let safe = static_safe(&app, &levels);
        let (_, r) = run(&app, l0, l1);
        if safe {
            assert_eq!(r.divergent, 0, "seed {seed} at ({l0}, {l1}): {r:?}");
        }
    }
}

#[test]
fn strict_two_phase_locking_levels_never_diverge() {
    for seed in 0..40u64 {
        let (app, _) = case(seed);
        for level in [IsolationLevel::RepeatableRead, IsolationLevel::Serializable] {
            let (_, r) = run(&app, level, level);
            assert_eq!(
                r.divergent, 0,
                "seed {seed}: item programs under long read/write locks must serialize: {r:?}"
            );
        }
    }
}

#[test]
fn exploration_is_deterministic() {
    for seed in [3u64, 17, 29] {
        let (app, _) = case(seed);
        let (_, a) = run(&app, IsolationLevel::ReadCommitted, IsolationLevel::Snapshot);
        let (_, b) = run(&app, IsolationLevel::ReadCommitted, IsolationLevel::Snapshot);
        assert_eq!(
            (a.explored, a.blocked, a.infeasible, a.replays, a.divergent, a.serial_orders),
            (b.explored, b.blocked, b.infeasible, b.replays, b.divergent, b.serial_orders),
            "seed {seed}: two runs of the same case disagree"
        );
    }
}
