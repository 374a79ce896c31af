//! Serve-mode throughput table: the `semcc serve --bench` closed loop
//! at increasing worker counts, sharded engine vs. the legacy
//! single-lock layout (ROADMAP item 1's contention ablation).
//!
//! Policies are synthesized in-process — the same pipeline `semcc synth`
//! runs — so every row executes each transaction type at its *proven*
//! lowest safe level. Two mixes are driven: `banking` (the hot-account
//! contention case) and `mixed` (banking + orders + payroll, 12 types).
//!
//! ```text
//! cargo run -p semcc-bench --release -- serve [--quick]
//! ```
//!
//! Wall-clock columns depend on the host. The determinism contract is
//! checked, not assumed: every row re-runs once with the same seed and
//! must print byte-identical JSON, and must commit nonzero work with a
//! clean invariant audit and a quiescent engine.

use crate::{header, row, Opts};
use semcc_core::assign::{assign_levels, default_ladder};
use semcc_core::App;
use semcc_engine::IsolationLevel;
use semcc_serve::workload::Mix;
use semcc_serve::{bench, AdmissionPolicy, BenchConfig};
use semcc_workloads::{banking, orders, payroll};
use std::collections::BTreeMap;

const WIDTHS: [usize; 9] = [7, 4, 11, 7, 8, 7, 7, 6, 9];

/// Synthesize an app's admission policy in-process (the `semcc synth`
/// pipeline minus the file round trip).
fn synth_policy(app: &App, name: &str) -> AdmissionPolicy {
    let opts = semcc_synth::SynthOptions { jobs: 1, witnesses: false, ..Default::default() };
    let syn = semcc_synth::synthesize(app, &opts).expect("synthesize");
    let greedy = assign_levels(app, &default_ladder());
    let cert = semcc_synth::policy::synth_certificate(app, name, &syn);
    let digest = semcc_synth::policy::certificate_digest(&cert);
    let primary = syn.primary();
    let level_map: BTreeMap<String, IsolationLevel> =
        syn.txns.iter().cloned().zip(primary.levels.iter().cloned()).collect();
    let advisories = semcc_refine::predict_deadlocks(app, &level_map);
    let json = semcc_synth::policy_json(name, &syn, &greedy, &advisories, &digest);
    AdmissionPolicy::from_json(&json, name).expect("fresh artifact verifies")
}

fn policy_for(mix: Mix) -> AdmissionPolicy {
    match mix {
        Mix::Banking => synth_policy(&banking::app(), "banking"),
        Mix::Orders => synth_policy(&orders::app(false), "orders"),
        Mix::Payroll => synth_policy(&payroll::app(), "payroll"),
        Mix::Mixed => synth_policy(&banking::app(), "banking")
            .merge(synth_policy(&orders::app(false), "orders"))
            .expect("disjoint")
            .merge(synth_policy(&payroll::app(), "payroll"))
            .expect("disjoint"),
    }
}

/// The title, the contract and the column header.
pub fn head(_: &Opts, out: &mut String) {
    outln!(out, "serve throughput — closed-loop typed traffic at synthesized levels\n");
    outln!(out, "each row drives workers x txns submissions through `semcc serve`'s");
    outln!(out, "worker pool; `sharded` rows use the 32-shard lock table + 32-stripe");
    outln!(out, "store, `single` rows the legacy one-mutex layout. every row is run");
    outln!(out, "twice with the same seed and must report byte-identical JSON, commit");
    outln!(out, "nonzero work, audit zero invariant violations, and end quiescent.\n");

    let names =
        ["mix", "jobs", "layout", "wall_ms", "txn/s", "p50_us", "p99_us", "waits", "identical"];
    outln!(out, "{}", header(&names, &WIDTHS));
}

/// Every row runs twice and times the first run.
pub fn timed(opts: &Opts) {
    let txns_per_worker = if opts.quick { 25 } else { 100 };
    for mix in [Mix::Banking, Mix::Mixed] {
        let policy = policy_for(mix);
        for jobs in [1usize, 2, 4, 8] {
            for single_lock in [false, true] {
                let cfg = BenchConfig {
                    mix,
                    workers: jobs,
                    txns_per_worker,
                    seed: 42,
                    scale: 8,
                    single_lock,
                    ..BenchConfig::default()
                };
                let a = bench::run(policy.clone(), &cfg).expect("bench run");
                let b = bench::run(policy.clone(), &cfg).expect("bench rerun");
                let ja = bench::json_report(&cfg, &a).to_pretty();
                let jb = bench::json_report(&cfg, &b).to_pretty();
                let identical = ja == jb;
                assert!(identical, "same-seed JSON diverged at jobs={jobs} mix={}", mix.name());
                assert!(a.stats.committed > 0, "row must commit work");
                assert!(a.violations.is_empty(), "invariant violations: {:?}", a.violations);
                assert!(a.quiescent, "engine must be quiescent after the run");
                println!(
                    "{}",
                    row(
                        &[
                            mix.name().into(),
                            jobs.to_string(),
                            if single_lock { "single".into() } else { "sharded".into() },
                            format!("{:.1}", a.stats.elapsed.as_secs_f64() * 1e3),
                            format!("{:.0}", a.stats.throughput()),
                            a.stats.p50_us().to_string(),
                            a.stats.p99_us().to_string(),
                            a.lock_stats.waits.to_string(),
                            if identical { "yes".into() } else { "NO".into() },
                        ],
                        &WIDTHS
                    )
                );
            }
        }
    }

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!();
    println!("host parallelism: {cores} core(s) available to this process.");
    println!("throughput/latency are wall-clock on this host; on a single-core host");
    println!("the jobs>1 rows measure scheduling overhead, not speedup, and the");
    println!("sharded-vs-single contrast shows up in the `waits` column (lock-table");
    println!("contention) rather than txn/s. the `identical` column certifies that");
    println!("neither worker count nor lock layout changes the issued traffic or");
    println!("commit totals — the property the CI byte-identity gate also enforces.");
}
