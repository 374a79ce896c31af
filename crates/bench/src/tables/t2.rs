//! T2 — the Section 5 assignment tables: lowest safe isolation level per
//! transaction type, for every workload.
//!
//! Regenerates the implied table of the paper's Section 6 (plus our
//! banking, payroll, and TPC-C analyses):
//!
//! ```text
//! cargo run -p semcc-bench --release -- t2
//! ```

use crate::{header, row, short, Opts};
use semcc_core::assign::{ansi_ladder, assign_levels, default_ladder};
use semcc_core::App;
use semcc_workloads::{banking, orders, payroll, tpcc};

fn print_app(out: &mut String, name: &str, app: &App) {
    outln!(out, "\n== {name} ==");
    let widths = [22usize, 18, 12, 14, 14];
    outln!(
        out,
        "{}",
        header(
            &["transaction", "lowest level", "snapshot ok", "ANSI-only", "prover calls"],
            &widths
        )
    );
    let full = assign_levels(app, &default_ladder());
    let ansi = assign_levels(app, &ansi_ladder());
    for a in &full {
        let ansi_level =
            ansi.iter().find(|x| x.txn == a.txn).map(|x| short(x.level)).unwrap_or("?");
        let calls: usize = a.reports.iter().map(|r| r.prover_calls).sum();
        outln!(
            out,
            "{}",
            row(
                &[
                    a.txn.clone(),
                    short(a.level).to_string(),
                    if a.snapshot_ok { "yes".into() } else { "NO".into() },
                    ansi_level.to_string(),
                    calls.to_string(),
                ],
                &widths
            )
        );
    }
}

pub fn head(_: &Opts, out: &mut String) {
    outln!(out, "T2: lowest-safe-isolation-level assignment (Section 5 procedure)");
    outln!(out, "ladder: RU -> RC -> RC+FCW -> RR -> SER; SNAPSHOT reported separately");
    print_app(out, "banking (Figure 1 / Example 3)", &banking::app());
    print_app(out, "order processing, no_gaps rule (Section 6)", &orders::app(false));
    print_app(out, "order processing, one_order_per_day rule", &orders::app(true));
    print_app(out, "payroll (Example 2)", &payroll::app());
    print_app(out, "TPC-C style (future-work section)", &tpcc::app());
    outln!(out, "\npaper expectation (Section 6): Mailing_List=RU, New_Order=RC (RC+FCW under");
    outln!(out, "the strict rule), Delivery=RR, Audit=SER; Example 3: withdrawals unsafe under");
    outln!(out, "SNAPSHOT against the opposite account (write skew), deposits safe.");
}
