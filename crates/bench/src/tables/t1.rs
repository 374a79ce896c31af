//! T1 — the analysis-cost table: non-interference obligations enumerated
//! per isolation level, versus the naive Owicki–Gries `(K·N)²`.
//!
//! Reproduces the paper's Section 2 claim that the locking disciplines
//! dramatically shrink the triple space (down to `K²` pair checks for
//! SNAPSHOT, independent of `N`), both on the real workloads and on a
//! synthetic `K × N` sweep.
//!
//! ```text
//! cargo run -p semcc-bench --release -- t1 [--quick]
//! ```

use crate::{header, row, short, Opts};
use semcc_core::counting::cost_table;
use semcc_core::App;
use semcc_engine::IsolationLevel;
use semcc_logic::{Expr, Pred};
use semcc_txn::stmt::{ItemRef, Stmt};
use semcc_txn::ProgramBuilder;
use semcc_workloads::{banking, orders, payroll, tpcc};

fn print_costs(out: &mut String, name: &str, app: &App) {
    let table = cost_table(app);
    outln!(
        out,
        "\n== {name}: K = {}, ΣN = {}, naive (ΣN)² = {} ==",
        table.k,
        table.total_stmts,
        table.naive_triples
    );
    let widths = [12usize, 14, 14, 12, 20];
    outln!(
        out,
        "{}",
        header(&["level", "obligations", "prover calls", "cache hits", "vs naive"], &widths)
    );
    for c in &table.per_level {
        let pct = if table.naive_triples == 0 {
            0.0
        } else {
            100.0 * c.obligations as f64 / table.naive_triples as f64
        };
        outln!(
            out,
            "{}",
            row(
                &[
                    short(c.level).to_string(),
                    c.obligations.to_string(),
                    c.prover_calls.to_string(),
                    c.cache_hits.to_string(),
                    format!("{pct:.1}%"),
                ],
                &widths
            )
        );
    }
}

/// A synthetic application: `k` transaction types, each reading and
/// writing `n/2` distinct items (classic read-modify-write chains).
fn synthetic(k: usize, n: usize) -> App {
    let mut app = App::new();
    for t in 0..k {
        let mut b = ProgramBuilder::new(format!("T{t}"));
        for s in 0..n / 2 {
            let item = format!("x{t}_{s}");
            b = b
                .stmt(
                    Stmt::ReadItem { item: ItemRef::plain(&item), into: format!("v{s}") },
                    Pred::True,
                    Pred::ge(Expr::db(&item), 0),
                )
                .stmt(
                    Stmt::WriteItem {
                        item: ItemRef::plain(&item),
                        value: Expr::local(format!("v{s}")).add(Expr::int(1)),
                    },
                    Pred::ge(Expr::local(format!("v{s}")), 0),
                    Pred::ge(Expr::db(&item), 0),
                )
        }
        app = app.with_program(b.result(Pred::True).build());
    }
    app
}

pub fn head(opts: &Opts, out: &mut String) {
    outln!(out, "T1: obligations per isolation level vs the naive (KN)^2 triple space");
    print_costs(out, "banking", &banking::app());
    print_costs(out, "orders (no_gaps)", &orders::app(false));
    print_costs(out, "payroll", &payroll::app());
    print_costs(out, "tpcc", &tpcc::app());

    outln!(out, "\n== synthetic K x N sweep (read-modify-write chains) ==");
    let widths = [6usize, 6, 12, 10, 10, 10, 10, 10];
    outln!(out, "{}", header(&["K", "N", "naive", "RU", "RC", "RR", "SNAP", "SER"], &widths));
    let quick = opts.quick;
    let ks: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let ns: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16] };
    for &k in ks {
        for &n in ns {
            let app = synthetic(k, n);
            let t = cost_table(&app);
            let at = |lvl| t.at(lvl).map(|c| c.obligations).unwrap_or(0);
            outln!(
                out,
                "{}",
                row(
                    &[
                        k.to_string(),
                        n.to_string(),
                        t.naive_triples.to_string(),
                        at(IsolationLevel::ReadUncommitted).to_string(),
                        at(IsolationLevel::ReadCommitted).to_string(),
                        at(IsolationLevel::RepeatableRead).to_string(),
                        at(IsolationLevel::Snapshot).to_string(),
                        at(IsolationLevel::Serializable).to_string(),
                    ],
                    &widths
                )
            );
        }
    }
    outln!(out, "\nshape check: SNAPSHOT obligations grow as K^2 (pairs), independent of N;");
    outln!(out, "RR is 0 for these conventional-model transactions (Theorem 4); SER is 0.");
}
