//! F1–F5 / E1–E3 — per-figure and per-example verdicts with the analyzer's
//! failure explanations, mirroring the paper's worked arguments.
//!
//! ```text
//! cargo run -p semcc-bench --release -- verdicts
//! ```

use crate::Opts;
use semcc_core::theorems::check_at_level;
use semcc_core::App;
use semcc_engine::IsolationLevel::{self, *};
use semcc_workloads::{banking, orders, payroll};

fn verdict(
    out: &mut String,
    app: &App,
    txn: &str,
    level: IsolationLevel,
    expect_ok: bool,
    label: &str,
) {
    let r = check_at_level(app, txn, level);
    let mark = if r.ok == expect_ok { "OK " } else { "** MISMATCH **" };
    outln!(
        out,
        "[{mark}] {label}: {txn} @ {level} -> {} ({} obligations, {} prover calls)",
        if r.ok { "correct" } else { "rejected" },
        r.obligations,
        r.prover_calls
    );
    if !r.ok {
        for f in r.failures.iter().take(2) {
            outln!(out, "        reason: {f}");
        }
    }
}

pub fn head(_: &Opts, out: &mut String) {
    outln!(out, "verdict reproduction for the paper's figures and examples\n");

    outln!(out, "-- Figure 1 / Example 3 (banking) --");
    let bank = banking::app();
    verdict(out, &bank, "Withdraw_sav", Snapshot, false, "F1/E3 write skew");
    verdict(out, &bank, "Deposit_sav", Snapshot, true, "E3 deposits safe under SNAPSHOT");
    verdict(out, &bank, "Deposit_ch", Snapshot, true, "E3 deposits safe under SNAPSHOT");
    verdict(out, &bank, "Withdraw_sav", RepeatableRead, true, "Thm 4 conventional RR");
    verdict(out, &bank, "Deposit_sav", ReadCommittedFcw, true, "Thm 3 FCW deposit");
    verdict(out, &bank, "Deposit_sav", ReadCommitted, false, "lost update at RC");

    outln!(out, "\n-- Figure 2 (Mailing_List) / Examples 1-2 --");
    let ord = orders::app(false);
    verdict(out, &ord, "Mailing_List", ReadUncommitted, true, "F2 weak spec at RU");
    verdict(out, &ord, "Mailing_List_strict", ReadUncommitted, false, "E2 strict spec fails RU");
    verdict(out, &ord, "Mailing_List_strict", ReadCommitted, true, "E2 strict spec at RC");

    outln!(out, "\n-- Figure 3 (New_Order) --");
    verdict(out, &ord, "New_Order", ReadUncommitted, false, "F3 rollback breaks no_gaps at RU");
    verdict(out, &ord, "New_Order", ReadCommitted, true, "F3 New_Order at RC (no_gaps)");
    let strict = orders::app(true);
    verdict(out, &strict, "New_Order_strict", ReadCommitted, false, "S6 strict rule fails RC");
    verdict(out, &strict, "New_Order_strict", ReadCommittedFcw, true, "S6 strict rule at RC+FCW");

    outln!(out, "\n-- Figure 4 (Delivery) --");
    verdict(out, &ord, "Delivery", ReadCommitted, false, "F4 another Delivery interferes at RC");
    verdict(out, &ord, "Delivery", RepeatableRead, true, "F4 tuple locks suffice (Thm 6 case 2)");

    outln!(out, "\n-- Figure 5 (Audit) --");
    verdict(out, &ord, "Audit", RepeatableRead, false, "F5 phantom INSERT escapes tuple locks");
    verdict(out, &ord, "Audit", Serializable, true, "F5 predicate locks required");

    outln!(out, "\n-- Example 2 (payroll) --");
    let pay = payroll::app();
    verdict(
        out,
        &pay,
        "Print_Records",
        ReadUncommitted,
        false,
        "E2 single Hours write breaks I_sal",
    );
    verdict(
        out,
        &pay,
        "Print_Records",
        ReadCommitted,
        true,
        "E2 composite Hours unit preserves I_sal",
    );
    verdict(out, &pay, "Hours", ReadCommitted, true, "E2 Hours itself at RC");
}
