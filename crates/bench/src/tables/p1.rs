//! P1 — the performance motivation: throughput / latency / abort rate per
//! level policy, including the analyzer-assigned **mixed** policy the
//! paper's future-work section proposes ("run them at a combination of
//! isolation levels to evaluate the performance").
//!
//! ```text
//! cargo run -p semcc-bench --release -- p1 [--quick]
//! ```

use crate::{header, row, short, Opts};
use semcc_engine::{Engine, EngineConfig, IsolationLevel};
use semcc_txn::program::with_pauses;
use semcc_txn::Program;
use semcc_workloads::{banking, driver, orders, payroll, tpcc, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

use IsolationLevel::*;

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        lock_timeout: Duration::from_millis(500),
        record_history: false,
        faults: None,
        wal: None,
    }))
}

/// Up to 50 immediate retries per transaction.
fn retries() -> RetryPolicy {
    RetryPolicy { max_attempts: 51, base_backoff: Duration::ZERO, ..RetryPolicy::default() }
}

struct Policy {
    name: &'static str,
    level: fn(&str) -> IsolationLevel,
}

fn print_header() {
    let widths = [14usize, 8, 12, 10, 10, 10, 10];
    println!(
        "{}",
        header(&["policy", "threads", "txn/s", "p50 us", "p99 us", "aborts/c", "failed"], &widths)
    );
}

fn print_stats(policy: &str, threads: usize, stats: &driver::RunStats) {
    let widths = [14usize, 8, 12, 10, 10, 10, 10];
    println!(
        "{}",
        row(
            &[
                policy.into(),
                threads.to_string(),
                format!("{:.0}", stats.throughput()),
                stats.p50_us().to_string(),
                stats.p99_us().to_string(),
                format!("{:.3}", stats.abort_rate()),
                stats.failed.to_string(),
            ],
            &widths
        )
    );
}

fn bench_banking(threads_list: &[usize], per_thread: usize) {
    println!("\n== banking (2 accounts, withdraw/deposit mix, 50us think time) ==");
    print_header();
    let policies: Vec<Policy> = vec![
        Policy { name: "all-RC", level: |_| ReadCommitted },
        Policy { name: "all-RC+FCW", level: |_| ReadCommittedFcw },
        Policy { name: "all-RR", level: |_| RepeatableRead },
        Policy { name: "all-SNAP", level: |_| Snapshot },
        Policy { name: "all-SER", level: |_| Serializable },
        Policy {
            name: "mixed",
            // analyzer assignment: deposits RC+FCW, withdrawals RR
            level: |name| {
                if name.starts_with("Deposit") {
                    ReadCommittedFcw
                } else {
                    RepeatableRead
                }
            },
        },
    ];
    for p in &policies {
        for &threads in threads_list {
            let e = engine();
            banking::setup(&e, 2, 1_000_000);
            let programs: Vec<Program> =
                banking::app().programs.iter().map(|pr| with_pauses(pr, 50)).collect();
            let levels: Vec<IsolationLevel> =
                programs.iter().map(|pr| (p.level)(&pr.name)).collect();
            let stats = driver::run_mix(
                driver::MixSpec { threads, txns_per_thread: per_thread, seed: 42 },
                &retries(),
                |_, rng| banking::random_txn(&e, &programs, &levels, 2, rng),
            );
            print_stats(p.name, threads, &stats);
        }
    }
}

fn bench_orders(threads_list: &[usize], per_thread: usize) {
    println!("\n== order processing (Section 6 mix) ==");
    print_header();
    let policies: Vec<Policy> = vec![
        Policy { name: "all-RC", level: |_| ReadCommitted },
        Policy { name: "all-RR", level: |_| RepeatableRead },
        Policy { name: "all-SER", level: |_| Serializable },
        Policy {
            name: "mixed",
            level: |name| match name {
                "Mailing_List" => ReadUncommitted,
                "Mailing_List_strict" => ReadCommitted,
                "New_Order" => ReadCommitted,
                "Delivery" => RepeatableRead,
                _ => Serializable, // Audit
            },
        },
    ];
    for p in &policies {
        for &threads in threads_list {
            let e = engine();
            orders::setup(&e, 20);
            let programs = orders::app(false).programs;
            let stats = driver::run_mix(
                driver::MixSpec { threads, txns_per_thread: per_thread, seed: 42 },
                &retries(),
                |_, rng| orders::random_txn(&e, &programs, &|n| (p.level)(n), rng),
            );
            print_stats(p.name, threads, &stats);
        }
    }
}

fn bench_payroll(threads_list: &[usize], per_thread: usize) {
    println!("\n== payroll (Hours/Print_Records, 8 employees) ==");
    print_header();
    let policies: [(&str, IsolationLevel, IsolationLevel); 3] = [
        ("all-SER", Serializable, Serializable),
        ("all-RR", RepeatableRead, RepeatableRead),
        ("mixed(RC)", ReadCommitted, ReadCommitted), // the analyzer's assignment
    ];
    for (name, lh, lp) in policies {
        for &threads in threads_list {
            let e = engine();
            payroll::setup(&e, 8);
            let programs = payroll::app().programs;
            let level = |n: &str| if n == "Hours" { lh } else { lp };
            let stats = driver::run_mix(
                driver::MixSpec { threads, txns_per_thread: per_thread, seed: 42 },
                &retries(),
                |_, rng| payroll::random_txn(&e, &programs, &level, 8, rng),
            );
            print_stats(name, threads, &stats);
        }
    }
}

fn bench_tpcc(threads_list: &[usize], per_thread: usize) {
    println!("\n== TPC-C style (45/43/4/4/4 mix) ==");
    print_header();
    let policies: Vec<Policy> = vec![
        Policy { name: "all-SER", level: |_| Serializable },
        Policy { name: "all-SNAP", level: |_| Snapshot },
        Policy {
            name: "mixed",
            level: |name| match name {
                "New_Order_tpcc" | "Payment" => ReadCommittedFcw,
                "Order_Status" => ReadCommitted,
                "Delivery_tpcc" => RepeatableRead,
                _ => ReadUncommitted, // Stock_Level
            },
        },
    ];
    let scale = tpcc::Scale { districts: 2, customers_per_district: 10, items: 30 };
    for p in &policies {
        for &threads in threads_list {
            let e = engine();
            tpcc::setup(&e, scale);
            let programs = tpcc::app().programs;
            let stats = driver::run_mix(
                driver::MixSpec { threads, txns_per_thread: per_thread, seed: 42 },
                &retries(),
                |_, rng| tpcc::random_txn(&e, &programs, scale, &|n| (p.level)(n), 0, rng),
            );
            print_stats(p.name, threads, &stats);
            let v = tpcc::integrity_violations(&e);
            if !v.is_empty() {
                println!("     !! integrity violations under {}: {:?}", p.name, v);
            }
        }
    }
}

/// Worker counts and transactions per worker.
fn shape(opts: &Opts) -> (&'static [usize], usize) {
    if opts.quick {
        (&[4], 100)
    } else {
        (&[1, 2, 4, 8], 400)
    }
}

pub fn head(opts: &Opts, out: &mut String) {
    let (threads, per_thread) = shape(opts);
    outln!(
        out,
        "P1: throughput per isolation-level policy ({} threads x {} txns; seed 42)",
        threads.iter().map(|t| t.to_string()).collect::<Vec<_>>().join("/"),
        per_thread
    );
    outln!(out, "levels: {}", IsolationLevel::ALL.map(short).join(", "));
}

pub fn timed(opts: &Opts) {
    let (threads, per_thread) = shape(opts);
    bench_banking(threads, per_thread);
    bench_orders(threads, per_thread);
    bench_payroll(threads, per_thread);
    bench_tpcc(threads, per_thread);
    println!("\nshape expectation: weaker levels and the mixed assignment sustain equal or");
    println!("higher throughput with fewer lock-wait aborts than all-SERIALIZABLE, while");
    println!("the integrity auditors stay clean for every *assigned* policy.");
}
