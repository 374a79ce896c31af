//! Lint matrix — the static anomaly predictor over all bundled workloads,
//! printed next to the theorem verdicts it refines.
//!
//! For each workload: the Section 5 level assignment, the per-type
//! predicted-anomaly exposure at that level (and at SNAPSHOT), the
//! dangerous structures in the static dependency graph, and every lint
//! diagnostic with its provenance and counterexample.
//!
//! ```text
//! cargo run -p semcc-bench --release -- lint
//! ```

use crate::{header, row, short, Opts};
use semcc_core::sdg::{predict_exposures, DepGraph};
use semcc_core::{lint, App};
use semcc_engine::{AnomalyKind, IsolationLevel};
use semcc_workloads::{banking, orders, payroll, tpcc};
use std::collections::BTreeMap;

const WIDTHS: [usize; 4] = [22, 12, 34, 34];

fn kinds(exposed: &BTreeMap<AnomalyKind, String>) -> String {
    if exposed.is_empty() {
        "-".to_string()
    } else {
        exposed.keys().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    }
}

fn print_app(out: &mut String, name: &str, app: &App) {
    outln!(out, "== {name} ==");
    let report = lint(app, None);

    // Exposure at SNAPSHOT for every type, for the side-by-side column.
    let graph = DepGraph::build(app);
    let snap_levels: BTreeMap<String, IsolationLevel> =
        app.programs.iter().map(|p| (p.name.clone(), IsolationLevel::Snapshot)).collect();
    let at_snapshot = predict_exposures(&graph, &snap_levels);

    outln!(
        out,
        "{}",
        header(&["transaction", "level", "predicted @ level", "predicted @ SNAPSHOT"], &WIDTHS)
    );
    for (txn, level) in &report.levels {
        let here = report
            .exposures
            .iter()
            .find(|e| &e.txn == txn)
            .map(|e| kinds(&e.exposed))
            .unwrap_or_else(|| "-".into());
        let snap = at_snapshot
            .iter()
            .find(|e| &e.txn == txn)
            .map(|e| kinds(&e.exposed))
            .unwrap_or_else(|| "-".into());
        outln!(out, "{}", row(&[txn.clone(), short(*level).to_string(), here, snap], &WIDTHS));
    }

    for d in &report.dangerous {
        outln!(
            out,
            "dangerous structure: {} <-rw-> {} (reads {{{}}} / {{{}}})",
            d.a,
            d.b,
            d.a_reads_b_writes.iter().cloned().collect::<Vec<_>>().join(", "),
            d.b_reads_a_writes.iter().cloned().collect::<Vec<_>>().join(", ")
        );
    }
    if report.clean() {
        outln!(out, "lint: clean at the assigned levels");
    } else {
        for d in &report.diagnostics {
            outln!(out, "{}", d.render());
        }
    }
    outln!(out);
}

pub fn head(_: &Opts, out: &mut String) {
    outln!(out, "lint matrix — static anomaly prediction vs theorem verdicts\n");
    print_app(out, "banking (Figure 1 / Example 3)", &banking::app());
    print_app(out, "orders (Figures 2-5)", &orders::app(false));
    print_app(out, "payroll (Section 2)", &payroll::app());
    print_app(out, "tpcc (Section 7 sketch)", &tpcc::app());
}
