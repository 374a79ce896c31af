//! Seeded parallel-determinism property test: the work-sharing frontier
//! must be invisible in every result field.
//!
//! For seeded random 2- and 3-transaction item programs, at every
//! isolation level, `explore(jobs = 1)` and `explore(jobs = 8)` must
//! produce identical counts, verdicts, anomaly tallies, and concrete
//! divergent witness lists — the tentpole contract that parallelism
//! changes wall-clock only, never answers. Everything is seeded: a
//! failure reproduces by seed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use semcc_core::App;
use semcc_engine::IsolationLevel;
use semcc_explore::{differential, explore, specs_for, ExploreOptions, ExploreResult, TxnSpec};
use semcc_workloads::random_item_program;

const ITEMS: [&str; 3] = ["x", "y", "z"];

fn case(seed: u64, k: usize) -> (App, Vec<String>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut app = App::new();
    let mut names = Vec::new();
    for i in 0..k {
        let name = format!("T{i}");
        app = app.with_program(random_item_program(&name, &ITEMS, 3, &mut rng));
        names.push(name);
    }
    (app, names)
}

/// Every field that could expose a scheduling race, in one comparable
/// rendering (Debug covers counts, anomaly maps, and the step-by-step
/// divergent examples).
fn fingerprint(r: &ExploreResult) -> String {
    format!("{r:?}")
}

fn run_at(app: &App, names: &[String], level: IsolationLevel, jobs: usize) -> ExploreResult {
    let levels = vec![level; names.len()];
    let specs: Vec<TxnSpec> = specs_for(app, names, &levels).expect("specs");
    explore(app, &specs, &ExploreOptions { jobs, ..ExploreOptions::default() }).expect("explore")
}

#[test]
fn two_txn_results_are_identical_at_jobs_1_and_8_at_every_level() {
    let mut divergent_cases = 0u32;
    for seed in 0..12u64 {
        let (app, names) = case(seed, 2);
        for level in IsolationLevel::ALL {
            let seq = run_at(&app, &names, level, 1);
            let par = run_at(&app, &names, level, 8);
            assert_eq!(
                fingerprint(&seq),
                fingerprint(&par),
                "seed {seed} at {level}: jobs=8 changed the result"
            );
            if seq.divergent > 0 {
                divergent_cases += 1;
            }
        }
    }
    assert!(
        divergent_cases > 0,
        "the generator must exercise divergent cases, or the witness-list comparison is vacuous"
    );
}

#[test]
fn three_txn_results_are_identical_at_jobs_1_and_8() {
    for seed in 0..4u64 {
        let (app, names) = case(seed, 3);
        for level in [IsolationLevel::ReadUncommitted, IsolationLevel::Serializable] {
            let seq = run_at(&app, &names, level, 1);
            let par = run_at(&app, &names, level, 8);
            assert_eq!(
                fingerprint(&seq),
                fingerprint(&par),
                "seed {seed} at {level}: jobs=8 changed the 3-txn result"
            );
        }
    }
}

#[test]
fn differential_verdicts_are_identical_across_job_counts() {
    for seed in [5u64, 9, 11] {
        let (app, names) = case(seed, 2);
        let level = IsolationLevel::ReadUncommitted;
        let levels = vec![level; names.len()];
        let specs: Vec<TxnSpec> = specs_for(&app, &names, &levels).expect("specs");
        let seq = explore(&app, &specs, &ExploreOptions::default()).expect("jobs=1");
        let par = explore(&app, &specs, &ExploreOptions { jobs: 8, ..Default::default() })
            .expect("jobs=8");
        let d_seq = differential(&app, &specs, &seq);
        let d_par = differential(&app, &specs, &par);
        assert_eq!(
            format!("{d_seq:?}"),
            format!("{d_par:?}"),
            "seed {seed}: the differential verdict depends on the job count"
        );
    }
}

#[test]
fn truncation_is_jobs_invariant() {
    // The budget cut is a position in the canonical merge stream, so a
    // truncated run must also be bit-for-bit identical across job counts.
    for seed in 0..6u64 {
        let (app, names) = case(seed, 2);
        for max_schedules in [1u64, 3, 7] {
            let levels = vec![IsolationLevel::ReadCommitted; names.len()];
            let specs: Vec<TxnSpec> = specs_for(&app, &names, &levels).expect("specs");
            let opts = |jobs| ExploreOptions { max_schedules, jobs, ..Default::default() };
            let seq = explore(&app, &specs, &opts(1)).expect("jobs=1");
            let par = explore(&app, &specs, &opts(8)).expect("jobs=8");
            assert_eq!(
                fingerprint(&seq),
                fingerprint(&par),
                "seed {seed} max_schedules {max_schedules}: truncation point moved with jobs"
            );
        }
    }
}
