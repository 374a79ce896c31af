//! Fault-injection robustness table — the deterministic fault-simulation
//! harness over the paper's example applications at every isolation level.
//!
//! Each cell drives the application's transaction mix single-threaded
//! under a seeded fault plan (spurious lock timeouts and deadlock
//! victimizations, injected first-committer conflicts, forced
//! mid-statement aborts, client crashes around commit) with the bounded
//! retry/backoff policy absorbing the aborts, then audits the abort
//! paths: no victim residue in the lock table or version store, final
//! state equal to a replay of exactly the committed transactions, and
//! every rolled-back write covered by a `compens` rollback-effect
//! summary (Theorem 1's quantification over rollback writes).
//!
//! ```text
//! cargo run -p semcc-bench --release -- faults
//! ```

use crate::{header, row, short, Opts};
use semcc_core::App;
use semcc_engine::IsolationLevel;
use semcc_workloads::{banking, orders, payroll, simulate, FaultSimOptions};

const WIDTHS: [usize; 8] = [6, 6, 7, 7, 8, 9, 8, 18];

const SEED: u64 = 42;
const TXNS: usize = 240;

fn print_app(app: &App, title: &str) {
    println!("== {title} ==");
    let names =
        ["level", "commit", "aborts", "gaveup", "injectd", "audits", "violatd", "recovery p50/p99"];
    println!("{}", header(&names, &WIDTHS));
    for level in IsolationLevel::ALL {
        let opts = FaultSimOptions {
            seed: SEED,
            txns: TXNS,
            levels: vec![level],
            ..FaultSimOptions::default()
        };
        let r = simulate(app, &opts).expect("simulate");
        let recovery = if r.recovery_latencies_us.is_empty() {
            "-".to_string()
        } else {
            format!("{}µs / {}µs", r.recovery_percentile_us(0.50), r.recovery_percentile_us(0.99))
        };
        println!(
            "{}",
            row(
                &[
                    short(level).to_string(),
                    r.committed.to_string(),
                    r.aborts.to_string(),
                    r.gave_up.to_string(),
                    r.injected.to_string(),
                    r.audit_checks.to_string(),
                    r.violations.len().to_string(),
                    recovery,
                ],
                &WIDTHS
            )
        );
        assert!(r.clean(), "auditor violations at {level}: {:#?}", r.violations);
    }
    println!();
}

/// The title and the column legend.
pub fn head(_: &Opts, out: &mut String) {
    outln!(out, "fault-injection robustness — seeded fault plan, audited abort paths\n");
    outln!(out, "every cell: {TXNS} transactions of the application's mix driven at that");
    outln!(out, "level under seed {SEED} with all six fault classes armed (spurious lock");
    outln!(out, "timeouts/deadlocks, injected FCW conflicts, forced mid-statement aborts,");
    outln!(out, "client crashes before/after commit). `aborts` are absorbed by the bounded");
    outln!(out, "retry policy; `gaveup` counts transactions that exhausted it. `audits`");
    outln!(out, "counts post-abort + quiescence + committed-replay + rollback-coverage");
    outln!(out, "checks; `violatd` must be 0. `recovery` is the commit latency of");
    outln!(out, "transactions that absorbed at least one abort.\n");
}

/// One block per application; `recovery` is wall-clock.
pub fn timed(_: &Opts) {
    print_app(&payroll::app(), "payroll (Example 2)");
    print_app(&banking::app(), "banking (Example 3)");
    print_app(&orders::app(false), "orders (Section 6)");

    println!("reading the table: every run is a pure function of (seed, level) — fault");
    println!("decisions hash (seed, site, ordinal), so re-running a row reproduces it");
    println!("bit-for-bit. Injected counts differ *across* levels because the sites");
    println!("visited depend on the locking discipline (snapshot levels skip the lock");
    println!("manager entirely; retried transactions reroll under fresh ids). Zero");
    println!("violations everywhere is the robustness claim: no abort path — injected");
    println!("anywhere in a transaction — leaks locks, dirty versions, snapshots, or");
    println!("effects, and every rolled-back write is covered by a compens summary.");
}
