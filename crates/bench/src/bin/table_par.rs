//! Parallel-scaling table: wall-clock for the 3-transaction
//! `table_explore` workload at increasing worker counts, with a
//! bit-for-bit identity check against the single-worker baseline.
//!
//! The workload is the payroll Example 2 trio — two `Hours` instances
//! racing a `Print_Records` — explored at every isolation level through
//! [`explore_sweep`]: the six level vectors fan out over the workers, and
//! each cell's DPOR tree is walked on a worker-local engine. The
//! determinism contract is checked, not assumed: every row's merged
//! results must render identically to the `jobs = 1` baseline.
//!
//! ```text
//! cargo run --release -p semcc-bench --bin table_par \
//!     | tee results/table_par.txt
//! ```
//!
//! Wall-clock depends on the host; the `identical` column must read `yes`
//! everywhere on any host.

use semcc_bench::{row, rule};
use semcc_engine::IsolationLevel;
use semcc_explore::{explore_sweep, ExploreOptions, ExploreResult};
use semcc_workloads::payroll;
use std::time::Instant;

const WIDTHS: [usize; 4] = [5, 10, 8, 9];

/// Every result field, rendered; equality means bit-for-bit agreement.
fn fingerprint(cells: &[(Vec<semcc_explore::TxnSpec>, ExploreResult)]) -> String {
    cells.iter().map(|(_, r)| format!("{r:?}\n")).collect()
}

fn main() {
    println!("parallel scaling — 3-txn payroll exploration sweep across all 6 levels\n");
    println!("workload: Hours, Hours, Print_Records (Example 2 with a second writer);");
    println!("the six level vectors fan out over --jobs workers, each DPOR tree is");
    println!("walked on a worker-local engine, results merge in canonical order.");
    println!("`identical` compares every result field against the jobs=1 baseline.\n");

    let app = payroll::app();
    let names = vec!["Hours".to_string(), "Hours".to_string(), "Print_Records".to_string()];
    let vectors: Vec<Vec<IsolationLevel>> =
        IsolationLevel::ALL.iter().map(|&l| vec![l, l, l]).collect();
    let opts_for = |jobs| ExploreOptions {
        seed_cols: vec![("emp".into(), "rate".into(), 10)],
        jobs,
        ..ExploreOptions::default()
    };

    println!(
        "{}",
        row(&["jobs".into(), "wall_ms".into(), "speedup".into(), "identical".into()], &WIDTHS)
    );
    println!("{}", rule(&WIDTHS));

    // Untimed warm-up so the jobs=1 row doesn't absorb cold-start costs
    // (page faults, lazy allocator init) that later rows would then be
    // "sped up" against.
    let _ = explore_sweep(&app, &names, &vectors, &opts_for(1)).expect("warm-up");

    let mut baseline: Option<(f64, String)> = None;
    for jobs in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let cells = explore_sweep(&app, &names, &vectors, &opts_for(jobs)).expect("sweep");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let fp = fingerprint(&cells);
        let (base_ms, base_fp) = baseline.get_or_insert_with(|| (ms, fp.clone()));
        let identical = fp == *base_fp;
        assert!(identical, "jobs={jobs} changed the results — determinism contract broken");
        println!(
            "{}",
            row(
                &[
                    jobs.to_string(),
                    format!("{ms:.1}"),
                    format!("{:.2}x", *base_ms / ms),
                    if identical { "yes".into() } else { "NO".into() },
                ],
                &WIDTHS
            )
        );
    }

    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!();
    println!("host parallelism: {cores} core(s) available to this process.");
    println!("speedup is wall-clock relative to jobs=1 on this host; on a single-core");
    println!("host the rows measure scheduling overhead only (expect ~1.0x or below),");
    println!("while the `identical` column certifies that worker count never changes");
    println!("any result — the property the CI byte-identity gates also enforce.");
}
