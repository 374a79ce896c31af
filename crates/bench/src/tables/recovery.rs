//! Crash-recovery economics — redo-log replay cost against WAL length,
//! plus the group-flush ablation.
//!
//! Part 1 (**recovery cost vs log length**): a WAL-attached engine runs
//! increasing counts of committed item transactions; `recover` then
//! rebuilds a fresh engine from the full log. The table reports the log
//! size (bytes and records), the redo/undo work recovery performed, and
//! its wall-clock — recovery should scale linearly in the log length with
//! a per-record cost in the microseconds.
//!
//! Part 2 (**group-flush ablation**): the durable fault simulation drives
//! payroll (Example 2) under seed 42 with every crash class armed, at
//! `flush_every` ∈ {1, 8, 64}. Laxer flush policies lose more of the
//! in-flight tail at each crash (fewer records redone, fewer losers to
//! undo) but must never lose a *committed* transaction — commits force a
//! flush — so the recovery auditor stays clean in every row.
//!
//! ```text
//! cargo run -p semcc-bench --release -- recovery [--quick]
//! ```

use crate::{header, row, Opts};
use semcc_engine::{recover, Engine, EngineConfig, FaultMix, IsolationLevel, Wal, WalPolicy};
use semcc_workloads::{payroll, simulate, FaultSimOptions};
use std::sync::Arc;
use std::time::Instant;

const ITEMS: [&str; 4] = ["w", "x", "y", "z"];

/// Run `txns` sequential read-modify-write transactions (3 writes each)
/// on a WAL-attached engine and return the full encoded log.
fn build_log(txns: usize) -> Vec<u8> {
    let wal = Arc::new(Wal::new(WalPolicy::default()));
    let engine =
        Arc::new(Engine::new(EngineConfig { wal: Some(wal.clone()), ..Default::default() }));
    for name in ITEMS {
        engine.create_item(name, 0).expect("item");
    }
    for i in 0..txns {
        let level = IsolationLevel::ALL[i % IsolationLevel::ALL.len()];
        let mut t = engine.begin(level);
        for j in 0..3 {
            let item = ITEMS[(i + j) % ITEMS.len()];
            let v = t.read(item).expect("read").as_int().expect("int");
            t.write(item, v + 1).expect("write");
        }
        t.commit().expect("commit");
    }
    wal.flush();
    wal.bytes()
}

fn part1(quick: bool) {
    println!("== recovery cost vs WAL length ==");
    let widths = [8usize, 10, 9, 9, 7, 12, 11];
    println!(
        "{}",
        header(
            &["txns", "wal bytes", "records", "redone", "undone", "recover", "µs/record"],
            &widths
        )
    );
    let sizes: &[usize] = if quick { &[50, 200] } else { &[50, 200, 800, 3200] };
    for &txns in sizes {
        let bytes = build_log(txns);
        let t0 = Instant::now();
        let rec = recover(&bytes).expect("recover");
        let took = t0.elapsed();
        let per = took.as_micros() as f64 / rec.stats.records.max(1) as f64;
        println!(
            "{}",
            row(
                &[
                    txns.to_string(),
                    bytes.len().to_string(),
                    rec.stats.records.to_string(),
                    rec.stats.redo_applied.to_string(),
                    rec.stats.undone.to_string(),
                    format!("{}µs", took.as_micros()),
                    format!("{per:.2}"),
                ],
                &widths
            )
        );
    }
    println!();
}

fn part2(quick: bool) {
    println!("== group-flush ablation (payroll, durable faultsim, seed 42) ==");
    let widths = [12usize, 7, 8, 9, 8, 8, 8];
    println!(
        "{}",
        header(
            &["flush_every", "commit", "crashes", "audits", "redone", "undone", "violatd"],
            &widths
        )
    );
    let app = payroll::app();
    for flush_every in [1usize, 8, 64] {
        let opts = FaultSimOptions {
            seed: 42,
            txns: if quick { 60 } else { 240 },
            durable: true,
            wal_flush_every: flush_every,
            // Crash-heavy mix: the flush-policy axis only shows up when
            // crashes land on transactions with an un-flushed write tail.
            mix: FaultMix {
                crash_before: 0.10,
                crash_after: 0.05,
                crash_mid: 0.10,
                torn_tail: 0.05,
                ..FaultMix::default()
            },
            ..FaultSimOptions::default()
        };
        let r = simulate(&app, &opts).expect("simulate");
        println!(
            "{}",
            row(
                &[
                    flush_every.to_string(),
                    r.committed.to_string(),
                    r.crashes_by_class.values().sum::<u64>().to_string(),
                    r.recoveries_audited.to_string(),
                    r.recovery_redo.to_string(),
                    r.recovery_undone.to_string(),
                    r.violations.len().to_string(),
                ],
                &widths
            )
        );
    }
    println!();
}

pub fn head(_: &Opts, out: &mut String) {
    outln!(out, "crash recovery — ARIES-lite redo/undo replay of the write-ahead log");
    outln!(out);
}

/// Part 1 times `recover`; part 2 follows it.
pub fn timed(opts: &Opts) {
    part1(opts.quick);
    part2(opts.quick);
    println!("recovery contract: every row's `violatd` is 0 — replaying the surviving");
    println!("log prefix reproduces exactly the committed transactions, bit for bit,");
    println!("at every flush policy and every injected crash class.");
}
