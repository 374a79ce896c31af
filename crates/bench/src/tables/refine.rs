//! Semantic edge-refinement table — what the prover-backed pruning pass
//! (`semcc-refine`) buys on the paper's workloads.
//!
//! For each transaction pair the harness reports three effects of
//! refinement:
//!
//! 1. **SDG precision** — conflict-edge constituents deleted from the
//!    pair's dependency graph, each justified by a replayable
//!    unsatisfiability certificate;
//! 2. **DPOR reduction** — schedules the refined dependence relation lets
//!    the explorer skip (executed + blocked, base vs refined);
//! 3. **differential precision** — isolation-level cells whose
//!    static/dynamic verdict improves from STATIC-OVERAPPROX to AGREE
//!    once the singleton-instance theorems run on the pruned graph.
//!
//! The harness asserts that refinement never *worsens* a verdict: a
//! SOUNDNESS-VIOLATION cell with refinement on aborts the run.
//!
//! ```text
//! cargo run -p semcc-bench --release -- refine [--jobs N]
//! ```
//!
//! `--jobs N` output is bit-identical to `--jobs 1` (the CI gate diffs
//! the two).
//!
//! `New_Order × New_Order` is deliberately absent: that self-pair trips a
//! known pre-existing analyzer soundness gap at READ COMMITTED that is
//! independent of refinement (see the `explore` table's notes).

use crate::{header, row, short, Opts};
use semcc_core::{App, DepGraph};
use semcc_engine::IsolationLevel;
use semcc_explore::{
    differential_refined_with_jobs, differential_with_jobs, explore, specs_for, sub_app,
    ExploreOptions,
};

const WIDTHS: [usize; 7] = [6, 9, 9, 9, 18, 18, 10];

struct Pair {
    app: App,
    title: &'static str,
    txns: [&'static str; 2],
    seed_cols: Vec<(String, String, i64)>,
    seed_items: Vec<(String, i64)>,
}

struct Totals {
    pruned: usize,
    conversions: usize,
    base_scheds: u64,
    refined_scheds: u64,
    violations: usize,
}

fn print_pair(out: &mut String, p: &Pair, jobs: usize, totals: &mut Totals) {
    let names = vec![p.txns[0].to_string(), p.txns[1].to_string()];
    // Edge precision is a property of the pair's sub-application, not of
    // any particular level vector: use the first level only to build it.
    let probe = specs_for(&p.app, &names, &[IsolationLevel::Serializable; 2]).expect("specs");
    let sub = sub_app(&p.app, &probe);
    let graph = DepGraph::build(&sub);
    let refined = semcc_refine::refine(&sub, &graph);
    outln!(out, "== {} ==", p.title);
    outln!(
        out,
        "SDG: {} -> {} edges ({} constituent(s) pruned, prover-certified)",
        refined.base_edges,
        refined.refined_edges,
        refined.prunes.len()
    );
    for pr in &refined.prunes {
        outln!(
            out,
            "  pruned {} -{}-> {} on `{}` ({})",
            pr.from,
            pr.kind,
            pr.to,
            pr.table,
            pr.rule
        );
    }
    totals.pruned += refined.prunes.len();
    outln!(
        out,
        "{}",
        header(
            &["level", "base", "refined", "saved", "base diff", "refined diff", "converted"],
            &WIDTHS
        )
    );
    for l in IsolationLevel::ALL {
        let specs = specs_for(&p.app, &names, &[l, l]).expect("specs");
        let opts = ExploreOptions {
            seed_cols: p.seed_cols.clone(),
            seed_items: p.seed_items.clone(),
            jobs,
            ..ExploreOptions::default()
        };
        let base = explore(&p.app, &specs, &opts).expect("base explore");
        let refined_run = explore(&p.app, &specs, &ExploreOptions { refine: true, ..opts })
            .expect("refined explore");
        let d_base = differential_with_jobs(&p.app, &specs, &base, jobs);
        let d_ref = differential_refined_with_jobs(&p.app, &specs, &refined_run, jobs);
        let base_n = base.explored + base.blocked;
        let ref_n = refined_run.explored + refined_run.blocked;
        assert!(ref_n <= base_n, "{}@{l}: refinement inflated the schedule count", p.title);
        assert_eq!(
            base.divergent > 0,
            refined_run.divergent > 0,
            "{}@{l}: refinement changed the divergence verdict",
            p.title
        );
        let converted = d_base.verdict.to_string() == "STATIC-OVERAPPROX"
            && d_ref.verdict.to_string() == "AGREE";
        if converted {
            totals.conversions += 1;
        }
        if !d_ref.sound() {
            totals.violations += 1;
        }
        totals.base_scheds += base_n;
        totals.refined_scheds += ref_n;
        outln!(
            out,
            "{}",
            row(
                &[
                    short(l).to_string(),
                    base_n.to_string(),
                    ref_n.to_string(),
                    (base_n - ref_n).to_string(),
                    d_base.verdict.to_string(),
                    d_ref.verdict.to_string(),
                    if converted { "yes".into() } else { "-".to_string() },
                ],
                &WIDTHS
            )
        );
    }
    outln!(out);
}

pub fn head(opts: &Opts, out: &mut String) {
    outln!(out, "semantic edge refinement — prover-pruned SDG conflicts, refined DPOR,");
    outln!(out, "and the precision the singleton-instance theorems recover\n");
    outln!(out, "`base`/`refined`: schedules the explorer ran or saw blocked with the");
    outln!(out, "unrefined vs the prover-refined dependence relation (same seeds, same");
    outln!(out, "engine). `converted` marks cells whose differential verdict improves");
    outln!(out, "from STATIC-OVERAPPROX to AGREE on the refined analysis.\n");

    let jobs = opts.jobs;
    let seed_orders = vec![("orders".to_string(), "deliv_date".to_string(), 1)];
    let pairs = [
        Pair {
            app: semcc_workloads::banking::app(),
            title: "banking: Withdraw_sav x Deposit_ch",
            txns: ["Withdraw_sav", "Deposit_ch"],
            seed_cols: Vec::new(),
            seed_items: Vec::new(),
        },
        Pair {
            app: semcc_workloads::banking::app(),
            title: "banking: Withdraw_sav x Deposit_sav",
            txns: ["Withdraw_sav", "Deposit_sav"],
            seed_cols: Vec::new(),
            seed_items: Vec::new(),
        },
        Pair {
            app: semcc_workloads::payroll::app(),
            title: "payroll: Hours x Print_Records (Example 2)",
            txns: ["Hours", "Print_Records"],
            seed_cols: Vec::new(),
            seed_items: vec![("emp.rate".to_string(), 10)],
        },
        Pair {
            app: semcc_workloads::orders::app(false),
            title: "orders: New_Order x Delivery",
            txns: ["New_Order", "Delivery"],
            seed_cols: seed_orders.clone(),
            seed_items: Vec::new(),
        },
        Pair {
            app: semcc_workloads::orders::app(false),
            title: "orders: Mailing_List x Delivery",
            txns: ["Mailing_List", "Delivery"],
            seed_cols: seed_orders.clone(),
            seed_items: Vec::new(),
        },
        Pair {
            app: semcc_workloads::orders::app(false),
            title: "orders: Delivery x Audit",
            txns: ["Delivery", "Audit"],
            seed_cols: seed_orders.clone(),
            seed_items: Vec::new(),
        },
        Pair {
            app: semcc_workloads::orders::app(true),
            title: "orders-strict: New_Order_strict x Delivery",
            txns: ["New_Order_strict", "Delivery"],
            seed_cols: seed_orders,
            seed_items: Vec::new(),
        },
    ];
    let mut totals =
        Totals { pruned: 0, conversions: 0, base_scheds: 0, refined_scheds: 0, violations: 0 };
    for p in &pairs {
        print_pair(out, p, jobs, &mut totals);
    }
    outln!(
        out,
        "totals: {} edge constituent(s) pruned; {} STATIC-OVERAPPROX -> AGREE \
         conversion(s); schedules {} -> {} ({} saved); {} soundness violation(s)",
        totals.pruned,
        totals.conversions,
        totals.base_scheds,
        totals.refined_scheds,
        totals.base_scheds - totals.refined_scheds,
        totals.violations
    );
    assert!(totals.violations == 0, "refinement introduced a SOUNDNESS-VIOLATION cell");
    assert!(totals.pruned > 0, "refinement pruned nothing on the paper workloads");
    assert!(totals.conversions > 0, "refinement converted no STATIC-OVERAPPROX cell");
    assert!(totals.refined_scheds < totals.base_scheds, "refinement saved no DPOR schedules");
}
