//! The semcc benchmark. See `perf/README.md`; run it through `perf/run.sh`.
//!
//! With `--workload <name>` the process runs that one workload and prints,
//! as the last line of its standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Without
//! `--workload` it runs every workload in a process of its own and merges
//! their detail files into `out/<seed>.json` (`out/trace-<seed>.json` when
//! traced).

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux clocks and /proc; it needs a 64-bit Linux target");

mod analysis;
mod analyze;
mod clock;
mod explorebench;
mod gen;
mod hist;
mod layers;
mod report;
mod run;
mod serve;
mod trace;
mod walbench;

use report::{Args, WORKLOADS};
use run::Workload;
use semcc_json::Json;
use std::path::Path;
use std::process::{Command, ExitCode};

fn expected(root: &Path, file: &str) -> Json {
    let path = root.join("expected").join(file);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    semcc_json::from_str_value(&text).unwrap_or_else(|e| panic!("parsing {}: {e}", path.display()))
}

/// Build a workload at full size, or at a twentieth of it for `--quick`.
fn workload(name: &str, args: &Args) -> Box<dyn Workload> {
    let seed = args.seed;
    let cut = |n: usize| if args.quick { n / 20 } else { n };
    let bank = |accounts, ops, clients, policy| {
        Box::new(serve::BankServe { seed, accounts, ops: cut(ops), clients, policy })
    };
    match name {
        "bank_point" => bank(4096, 400_000, 2, serve::BankPolicy::Synthesized),
        "bank_hot" => bank(serve::HOT_ACCOUNTS, 300_000, 2, serve::BankPolicy::Synthesized),
        "bank_mvcc" => bank(4096, 600_000, 2, serve::BankPolicy::MvccOnly),
        "orders_scan" => Box::new(serve::OrdersScan { seed, days: 64, ops: cut(8_000) }),
        "bank_wal" => {
            Box::new(walbench::BankWal { seed, accounts: 4096, ops: cut(400_000), last: None })
        }
        "analyze_synth" => Box::new(analyze::AnalyzeSynth {
            seed,
            rounds: if args.quick { 1 } else { analyze::ROUNDS },
            expected: expected(&args.root, "policies.json"),
        }),
        "explore_dpor" => Box::new(explorebench::ExploreDpor {
            seed,
            rounds: if args.quick { 1 } else { explorebench::ROUNDS },
            stride: if args.quick { 4 } else { 1 },
            expected: expected(&args.root, "explore.json"),
            last: Default::default(),
        }),
        other => panic!("unknown workload `{other}`"),
    }
}

fn exit_code(correct: bool) -> ExitCode {
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run one workload in this process.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let mut w = workload(name, args);
    exit_code(if args.trace {
        report::traced(name, w.as_mut(), args)
    } else {
        report::untraced(name, w.as_mut(), args)
    })
}

/// Run every workload, each in a process of its own, and merge the detail
/// files they wrote.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    for (i, (name, _)) in WORKLOADS.iter().enumerate() {
        let mut cmd = Command::new(&exe);
        cmd.args(args.child_args(name, i == 0));
        let status = cmd.status().unwrap_or_else(|e| panic!("spawning {name}: {e}"));
        all_ok &= status.success();
    }
    report::merge(args);
    exit_code(all_ok)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", report::USAGE);
            return ExitCode::from(2);
        }
    };
    if args.write_expected {
        return report::write_expected(&args);
    }
    match args.workload.as_deref() {
        Some(name) if WORKLOADS.iter().any(|(n, _)| *n == name) => run_one(name, &args),
        Some(other) => {
            eprintln!("unknown workload `{other}`\n{}", report::USAGE);
            ExitCode::from(2)
        }
        None => run_all(&args),
    }
}
