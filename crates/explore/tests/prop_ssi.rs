//! Seeded SSI vacuity gate: the differential oracle over random small
//! programs at all-SSI and mixed SSI/weak level vectors.
//!
//! Serializable Snapshot Isolation aborts every dangerous-structure pivot
//! before commit, so when *every* concurrent transaction is SSI-tracked
//! the execution is serializable for any footprints (Cahill et al.) — the
//! static side's vacuously-SAFE verdict must therefore meet **zero**
//! divergent schedules in the exhaustive exploration, for every seed:
//!
//! 1. **vacuity gate** — at the all-SSI vector, zero divergent schedules
//!    and zero `SOUNDNESS-VIOLATION` verdicts, 200 seeded iterations of
//!    random 2–3-transaction item programs;
//! 2. **mixed vectors** — with at least one SSI and at least one weaker
//!    coordinate, the lint degrades the SSI types to SNAPSHOT
//!    obligations, and no mixed vector may produce a
//!    `SOUNDNESS-VIOLATION`;
//! 3. **determinism** — `explore(jobs = 1)` and `explore(jobs = 8)` are
//!    bit-identical at SSI, divergent-witness lists included.
//!
//! Everything is seeded: a failure reproduces by seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_core::sdg::{predict_exposures, DepGraph};
use semcc_core::{lint, App};
use semcc_engine::IsolationLevel;
use semcc_explore::{
    differential, explore, specs_for, DifferentialVerdict, ExploreOptions, ExploreResult, TxnSpec,
};
use semcc_workloads::random_item_program;
use std::collections::BTreeMap;

const ITEMS: [&str; 3] = ["x", "y", "z"];

/// 2 transactions most iterations, 3 every fourth (triples are pricier to
/// explore exhaustively, so they keep a smaller share of the budget).
fn case(seed: u64) -> (App, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(0x551_0000 ^ seed);
    let k = if seed % 4 == 3 { 3 } else { 2 };
    let mut app = App::new();
    let mut names = Vec::new();
    for i in 0..k {
        let name = format!("T{i}");
        app = app.with_program(random_item_program(&name, &ITEMS, 3, &mut rng));
        names.push(name);
    }
    (app, names)
}

fn run(
    app: &App,
    names: &[String],
    levels: &[IsolationLevel],
    jobs: usize,
) -> (Vec<TxnSpec>, ExploreResult) {
    let specs: Vec<TxnSpec> = specs_for(app, names, levels).expect("specs");
    let r = explore(app, &specs, &ExploreOptions { jobs, ..ExploreOptions::default() })
        .expect("explore");
    (specs, r)
}

/// The acceptance gate: 200 seeded iterations at the all-SSI vector, zero
/// divergent schedules, zero soundness violations, and abort-free serial
/// reference orders (serial executions never overlap, so SSI must never
/// abort them).
#[test]
fn all_ssi_zero_divergence_over_200_seeds() {
    let mut ssi_blocked_cases = 0u32;
    for seed in 0..200u64 {
        let (app, names) = case(seed);
        let levels = vec![IsolationLevel::Ssi; names.len()];
        let (specs, r) = run(&app, &names, &levels, 1);
        assert_eq!(r.serial_errors, 0, "seed {seed}: SSI aborted a serial reference order: {r:?}");
        assert!(!r.truncated, "seed {seed}: the exploration must be exhaustive");
        assert_eq!(
            r.divergent, 0,
            "seed {seed}: a divergent schedule survived the dangerous-structure abort: {r:?}"
        );
        if r.blocked > 0 {
            ssi_blocked_cases += 1;
        }
        let d = differential(&app, &specs, &r);
        assert!(d.static_safe, "seed {seed}: the SSI condition is vacuously safe: {d:?}");
        assert_eq!(d.verdict, DifferentialVerdict::Agree, "seed {seed}: {d:?}");
    }
    assert!(
        ssi_blocked_cases > 0,
        "the generator must produce racy cases the SSI aborts actually block, \
         or the zero-divergence gate is vacuous"
    );
}

/// Structural + theorem verdict, as in `prop_differential`: nothing
/// exposed by the dependence-graph predictor, nothing diagnosed by the
/// linter. The predictor is partner-aware about the classic SI/2PL
/// mixing leak (a snapshot-class commit install bypasses 2PL read
/// locks), which the whole-app lint alone does not model — so this is
/// the contract under which the analyzer claims soundness for mixed
/// vectors.
fn static_safe(app: &App, levels: &BTreeMap<String, IsolationLevel>) -> bool {
    let graph = DepGraph::build(app);
    let clean_exposures = predict_exposures(&graph, levels).iter().all(|e| e.exposed.is_empty());
    clean_exposures && lint(app, Some(levels)).clean()
}

/// Mixed SSI/weak vectors: the static side degrades each SSI type to
/// SNAPSHOT obligations (its partner is untracked). Whenever the
/// analyzer — exposure predictor plus theorem linter — declares a mixed
/// vector SAFE, the exhaustive exploration must find zero divergent
/// schedules.
#[test]
fn mixed_ssi_weak_vectors_never_violate_soundness() {
    let mut rng = StdRng::seed_from_u64(0x551_713);
    let mut mixed_safe = 0u32;
    for seed in 0..200u64 {
        let (app, names) = case(seed);
        // At least one SSI coordinate, at least one weaker one.
        let mut levels: Vec<IsolationLevel> = names
            .iter()
            .map(|_| IsolationLevel::ALL[rng.gen_range(0..IsolationLevel::ALL.len())])
            .collect();
        levels[rng.gen_range(0..names.len())] = IsolationLevel::Ssi;
        if levels.iter().all(|l| *l == IsolationLevel::Ssi) {
            let weak = [
                IsolationLevel::ReadUncommitted,
                IsolationLevel::ReadCommitted,
                IsolationLevel::Snapshot,
            ];
            levels[0] = weak[rng.gen_range(0..weak.len())];
        }
        let level_map: BTreeMap<String, IsolationLevel> =
            names.iter().cloned().zip(levels.iter().copied()).collect();
        let safe = static_safe(&app, &level_map);
        let (_, r) = run(&app, &names, &levels, 1);
        assert_eq!(r.serial_errors, 0, "seed {seed} at {levels:?}: {r:?}");
        assert!(!r.truncated, "seed {seed} at {levels:?} must explore fully");
        if safe {
            mixed_safe += 1;
            assert_eq!(
                r.divergent, 0,
                "seed {seed} at {levels:?}: static SAFE but divergent schedule found — \
                 analyzer soundness violation: {r:?}"
            );
        }
    }
    assert!(
        mixed_safe > 0,
        "the sweep must include statically-SAFE mixed vectors, or soundness was never at stake"
    );
}

/// `--jobs` bit-identity at SSI: the parallel frontier may change
/// wall-clock only, never any field of the result — counts, anomaly
/// tallies, and the step-by-step divergent witnesses all compare equal
/// via the Debug rendering.
#[test]
fn ssi_results_are_identical_at_jobs_1_and_8() {
    for seed in 0..12u64 {
        let (app, names) = case(seed);
        let all_ssi = vec![IsolationLevel::Ssi; names.len()];
        let (_, seq) = run(&app, &names, &all_ssi, 1);
        let (_, par) = run(&app, &names, &all_ssi, 8);
        assert_eq!(
            format!("{seq:?}"),
            format!("{par:?}"),
            "seed {seed}: jobs=8 changed the all-SSI result"
        );
        // A mixed vector keeps the SSI-specific dependence edges in play
        // on one side of the pair only.
        let mut mixed = all_ssi.clone();
        mixed[0] = IsolationLevel::ReadCommitted;
        let (_, seq) = run(&app, &names, &mixed, 1);
        let (_, par) = run(&app, &names, &mixed, 8);
        assert_eq!(
            format!("{seq:?}"),
            format!("{par:?}"),
            "seed {seed}: jobs=8 changed the mixed-vector result"
        );
    }
}
