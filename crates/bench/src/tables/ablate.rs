//! Ablations of the analyzer's design choices (DESIGN.md §6/§7).
//!
//! Each ablation switches off one mechanism and shows how the verdicts
//! degrade — always *upward* (more conservative), never unsoundly down:
//!
//! * **update merging** — without composing `Hours`'s two UPDATEs into one
//!   unit effect, Example 2's READ COMMITTED verdict is lost;
//! * **loop unrolling** — with `loop_unroll = 0` every loop is havocked
//!   immediately; conventional programs survive, loop-carried effects
//!   degrade;
//! * **RC+FCW read exemption** — measured indirectly: the obligations the
//!   exemption removes (RC vs RC+FCW counts);
//! * **prover budget** — a starved prover (tiny branch budget) must still
//!   be sound: verdicts may only move up the ladder.
//!
//! ```text
//! cargo run -p semcc-bench --release -- ablate
//! ```

use crate::{header, row, short, Opts};
use semcc_core::theorems::{check_at_level, check_with, LevelReport};
use semcc_core::{Analyzer, App};
use semcc_engine::IsolationLevel::*;
use semcc_txn::symexec::SymOptions;
use semcc_workloads::{banking, orders, payroll};
use std::collections::BTreeSet;

fn verdict_at(ok: bool) -> &'static str {
    if ok {
        "correct"
    } else {
        "rejected"
    }
}

/// [`check_at_level`] with one symbolic-execution mechanism switched off.
fn check_opts(
    app: &App,
    txn: &str,
    level: semcc_engine::IsolationLevel,
    opts: SymOptions,
) -> LevelReport {
    check_with(&Analyzer::new(app), app, txn, level, opts, &BTreeSet::new())
}

pub fn head(_: &Opts, out: &mut String) {
    outln!(out, "ablations: switching off one analyzer mechanism at a time\n");

    // ------------------------------------------------------------------
    // A1: update merging (the Hours / Example 2 mechanism)
    // ------------------------------------------------------------------
    outln!(out, "== A1: sequential UPDATE merging ==");
    let pay = payroll::app();
    let with = check_at_level(&pay, "Print_Records", ReadCommitted);
    let without = check_opts(
        &pay,
        "Print_Records",
        ReadCommitted,
        SymOptions { merge_updates: false, ..SymOptions::default() },
    );
    outln!(out, "  Print_Records @ RC, merging ON : {}", verdict_at(with.ok));
    outln!(out, "  Print_Records @ RC, merging OFF: {}", verdict_at(without.ok));
    if let Some(f) = without.failures.first() {
        outln!(out, "    reason: {f}");
    }
    assert!(with.ok && !without.ok, "merging is exactly what buys Example 2's RC verdict");
    outln!(out, "  -> without the sequential-composition rule, Hours's first UPDATE is");
    outln!(out, "     checked in isolation and Example 2 degrades past READ COMMITTED.\n");

    // ------------------------------------------------------------------
    // A2: loop unrolling depth
    // ------------------------------------------------------------------
    outln!(out, "== A2: loop unrolling / havoc fallback ==");
    let widths = [26usize, 14, 14, 14];
    outln!(out, "{}", header(&["txn @ level", "unroll=0", "unroll=2", "unroll=4"], &widths));
    let bank = banking::app();
    let ord = orders::app(false);
    for (app, txn, level) in [
        (&bank, "Deposit_sav", ReadCommittedFcw),
        (&bank, "Withdraw_sav", RepeatableRead),
        (&ord, "New_Order", ReadCommitted),
        (&ord, "Delivery", RepeatableRead),
    ] {
        let at = |unroll: usize| {
            let r = check_opts(
                app,
                txn,
                level,
                SymOptions { loop_unroll: unroll, ..SymOptions::default() },
            );
            verdict_at(r.ok).to_string()
        };
        outln!(
            out,
            "{}",
            row(&[format!("{txn} @ {}", short(level)), at(0), at(2), at(4)], &widths)
        );
    }
    outln!(out, "  -> these workloads are loop-free at top level, so verdicts are stable;");
    outln!(out, "     the fallback only matters for loop-carried database writes.\n");

    // ------------------------------------------------------------------
    // A3: what the FCW exemption buys (RC vs RC+FCW obligations)
    // ------------------------------------------------------------------
    outln!(out, "== A3: first-committer-wins read exemption ==");
    let widths = [22usize, 16, 20, 16];
    let names = ["txn", "RC verdict", "RC+FCW verdict", "exempt reads"];
    outln!(out, "{}", header(&names, &widths));
    for (app, txn) in [(&bank, "Deposit_sav"), (&orders::app(true), "New_Order_strict")] {
        let rc = check_at_level(app, txn, ReadCommitted);
        let fcw = check_at_level(app, txn, ReadCommittedFcw);
        // exempt reads = obligations whose description marks the pre-check
        let exempted = fcw.failures.iter().filter(|f| f.contains("FCW-exempt")).count();
        outln!(
            out,
            "{}",
            row(
                &[
                    txn.to_string(),
                    verdict_at(rc.ok).to_string(),
                    verdict_at(fcw.ok).to_string(),
                    format!("(failures referencing exemption: {exempted})"),
                ],
                &widths
            )
        );
        assert!(!rc.ok && fcw.ok);
    }
    outln!(out, "  -> both types are rejected at RC and certified at RC+FCW purely by the");
    outln!(out, "     read-then-write exemption of Theorem 3.\n");

    // ------------------------------------------------------------------
    // A4: starved prover stays sound (verdicts only move up)
    // ------------------------------------------------------------------
    outln!(out, "== A4: prover-budget sensitivity (soundness under starvation) ==");
    // The analyzer constructs its own prover; starving is emulated by
    // collapsing symbolic paths (max_paths = 1 forces the havoc summary),
    // the coarsest over-approximation the analyzer can fall back to.
    let coarse = SymOptions { max_paths: 1, ..SymOptions::default() };
    let mut moved_up = 0;
    let mut total = 0;
    for (app, name) in [(&bank, "banking"), (&ord, "orders"), (&pay, "payroll")] {
        for p in &app.programs {
            for level in [ReadCommitted, ReadCommittedFcw, RepeatableRead] {
                total += 1;
                let precise = check_at_level(app, &p.name, level).ok;
                let degraded = check_opts(app, &p.name, level, coarse).ok;
                assert!(
                    precise || !degraded,
                    "{name}/{}: coarse analysis certified what precise rejected — unsound!",
                    p.name
                );
                if precise && !degraded {
                    moved_up += 1;
                }
            }
        }
    }
    outln!(out, "  {total} (txn, level) checks: coarse analysis never certified more than the");
    outln!(out, "  precise one; {moved_up} verdicts degraded upward (havoc summaries are sound).");

    outln!(out, "\nall ablations behaved as designed.");
}
