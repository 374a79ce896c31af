//! A TPC-C-style workload — the paper's stated future work ("use our
//! theorems to analyze the TPC-C benchmark transactions and run them at a
//! combination of isolation levels to evaluate the performance").
//!
//! Scaled-down schema (one warehouse):
//!
//! * `district(d_id, d_ytd)`
//! * `customer(c_id, d_id, c_balance, c_ytd_payment)`
//! * `stock(s_i_id, s_quantity, s_ytd)`
//! * `orders(o_id, d_id, c_id, o_carrier)` (`o_carrier = 0` ⇒ undelivered)
//! * `order_line(o_id, d_id, ol_num, ol_item, ol_qty)`
//! * items `w_ytd` (warehouse year-to-date) and `next_oid[d]` (per-district
//!   order-id allocator — the Section 6 `maximum_date` pattern)
//!
//! Integrity conjuncts: `ytd_consistency` (`w_ytd = Σ d_ytd`),
//! `order_ids_dense` (`next_oid[d]` exceeds every existing order id of the
//! district — the TPC-C analogue of Section 6's `no_gaps`).
//!
//! Analyzer-expected assignments: `Payment` → RC+FCW (its read-modify-
//! write of the `w_ytd` item loses updates at plain READ COMMITTED),
//! `Order_Status` → READ COMMITTED, `New_Order_tpcc` → RC+FCW,
//! `Delivery_tpcc` → REPEATABLE READ, `Stock_Level` → READ UNCOMMITTED
//! (TPC-C explicitly allows the stock-level query weak consistency; with a
//! strict current-state count spec our soundness-refined Theorem 6 would
//! demand SERIALIZABLE, because New-Order's stock decrement can move an
//! unlocked row *into* the counted below-threshold region — a case the
//! paper's Theorem 6 statement glosses over).

use rand::Rng;
use semcc_core::{App, LemmaScope};
use semcc_engine::{Engine, EngineError, IsolationLevel, Value};
use semcc_logic::parser::parse_pred;
use semcc_logic::pred::{OpaqueAtom, TableAtom, TableRegion};
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::{CmpOp, Expr, Pred};
use semcc_txn::interp::run_program;
use semcc_txn::program::with_pauses;
use semcc_txn::stmt::{AStmt, ItemRef, Stmt};
use semcc_txn::{Bindings, Program, ProgramBuilder};
use std::sync::Arc;

fn pp(s: &str) -> Pred {
    parse_pred(s).unwrap_or_else(|e| panic!("bad assertion {s:?}: {e}"))
}

/// `w_ytd = Σ d_ytd` (plus customer payment bookkeeping).
pub fn ytd_atom() -> Pred {
    Pred::Opaque(
        OpaqueAtom::over_items("ytd_consistency", &["w_ytd"])
            .with_region(TableRegion::columns("district", &["d_ytd"])),
    )
}

/// `next_oid` exceeds every order id in the district.
pub fn dense_ids_atom() -> Pred {
    Pred::Opaque(
        OpaqueAtom::over_items("order_ids_dense", &["next_oid"])
            .with_region(TableRegion::columns("orders", &["o_id", "d_id"])),
    )
}

fn i_all() -> Pred {
    Pred::and([ytd_atom(), dense_ids_atom()])
}

/// TPC-C `New-Order` (single line): allocate the next order id from the
/// per-district item allocator, insert the order, decrement stock.
pub fn new_order() -> Program {
    let dense = Pred::Table(TableAtom::NotExists {
        table: "orders".into(),
        filter: RowPred::and([
            RowPred::field_eq_outer("d_id", Expr::param("d")),
            RowPred::Cmp(CmpOp::Ge, RowExpr::field("o_id"), RowExpr::Outer(Expr::local("next"))),
        ]),
    });
    ProgramBuilder::new("New_Order_tpcc")
        .param_int("d")
        .param_int("c")
        .param_int("item")
        .param_int("qty")
        .param_int("n_lines")
        .consistency(i_all())
        .param_cond(pp("@qty >= 1 && @n_lines >= 1"))
        .result(Pred::and([i_all(), pp("#order_placed_at_commit")]))
        .snapshot_read_post(Pred::and([i_all(), dense.clone()]))
        .stmt(
            Stmt::ReadItem {
                item: ItemRef::indexed("next_oid", Expr::param("d")),
                into: "next".into(),
            },
            i_all(),
            Pred::and([
                i_all(),
                pp(":next <= next_oid"),
                // No order of this district has an id at or above `next`.
                dense,
            ]),
        )
        .stmt(
            Stmt::WriteItem {
                item: ItemRef::indexed("next_oid", Expr::param("d")),
                value: Expr::local("next").add(Expr::int(1)),
            },
            i_all(),
            Pred::and([i_all(), pp("next_oid >= :next + 1")]),
        )
        .stmt(
            Stmt::Insert {
                table: "orders".into(),
                values: vec![
                    RowExpr::Outer(Expr::local("next")),
                    RowExpr::Outer(Expr::param("d")),
                    RowExpr::Outer(Expr::param("c")),
                    RowExpr::Int(0),
                ],
            },
            i_all(),
            i_all(),
        )
        .stmt(Stmt::LocalAssign { local: "line".into(), value: Expr::int(0) }, i_all(), i_all())
        .stmt(
            // One order line per requested item: insert the line and
            // decrement that item's stock. The loop exercises the
            // analyzer's unrolling/havoc machinery on a real workload.
            Stmt::While {
                guard: pp(":line < @n_lines"),
                body: vec![
                    AStmt::bare(Stmt::Insert {
                        table: "order_line".into(),
                        values: vec![
                            RowExpr::Outer(Expr::local("next")),
                            RowExpr::Outer(Expr::param("d")),
                            RowExpr::Outer(Expr::local("line")),
                            RowExpr::Outer(Expr::param("item").add(Expr::local("line"))),
                            RowExpr::Outer(Expr::param("qty")),
                        ],
                    }),
                    AStmt::bare(Stmt::Update {
                        table: "stock".into(),
                        filter: RowPred::field_eq_outer(
                            "s_i_id",
                            Expr::param("item").add(Expr::local("line")),
                        ),
                        sets: vec![
                            (
                                "s_quantity".into(),
                                RowExpr::field("s_quantity")
                                    .sub(RowExpr::Outer(Expr::param("qty"))),
                            ),
                            (
                                "s_ytd".into(),
                                RowExpr::field("s_ytd").add(RowExpr::Outer(Expr::param("qty"))),
                            ),
                        ],
                    }),
                    AStmt::bare(Stmt::LocalAssign {
                        local: "line".into(),
                        value: Expr::local("line").add(Expr::int(1)),
                    }),
                ],
            },
            i_all(),
            i_all(),
        )
        .build()
}

/// TPC-C `Payment`: three ytd/balance updates that only jointly preserve
/// `ytd_consistency` (the Example 2 pattern at warehouse scale).
pub fn payment() -> Program {
    ProgramBuilder::new("Payment")
        .param_int("d")
        .param_int("c")
        .param_int("amount")
        .consistency(i_all())
        .param_cond(pp("@amount >= 0"))
        .result(Pred::and([i_all(), pp("#payment_recorded_at_commit")]))
        .snapshot_read_post(i_all())
        .stmt(
            Stmt::ReadItem { item: ItemRef::plain("w_ytd"), into: "W".into() },
            i_all(),
            Pred::and([i_all(), pp("w_ytd = :W")]),
        )
        .stmt(
            Stmt::WriteItem {
                item: ItemRef::plain("w_ytd"),
                value: Expr::local("W").add(Expr::param("amount")),
            },
            pp("w_ytd = :W"),
            Pred::True,
        )
        .stmt(
            Stmt::Update {
                table: "district".into(),
                filter: RowPred::field_eq_outer("d_id", Expr::param("d")),
                sets: vec![(
                    "d_ytd".into(),
                    RowExpr::field("d_ytd").add(RowExpr::Outer(Expr::param("amount"))),
                )],
            },
            Pred::True,
            i_all(),
        )
        .stmt(
            Stmt::Update {
                table: "customer".into(),
                filter: RowPred::field_eq_outer("c_id", Expr::param("c")),
                sets: vec![
                    (
                        "c_balance".into(),
                        RowExpr::field("c_balance").sub(RowExpr::Outer(Expr::param("amount"))),
                    ),
                    (
                        "c_ytd_payment".into(),
                        RowExpr::field("c_ytd_payment").add(RowExpr::Outer(Expr::param("amount"))),
                    ),
                ],
            },
            i_all(),
            i_all(),
        )
        .build()
}

/// TPC-C `Order-Status`: read a customer's balance and order history.
pub fn order_status() -> Program {
    ProgramBuilder::new("Order_Status")
        .param_int("c")
        .consistency(i_all())
        .result(pp("#status_reported"))
        .snapshot_read_post(i_all())
        .stmt(
            Stmt::Select {
                table: "customer".into(),
                filter: RowPred::field_eq_outer("c_id", Expr::param("c")),
                into: "cust".into(),
            },
            i_all(),
            // Weak spec: the returned record is a committed row (no
            // cross-statement snapshot requirement).
            i_all(),
        )
        .stmt(
            Stmt::Select {
                table: "orders".into(),
                filter: RowPred::field_eq_outer("c_id", Expr::param("c")),
                into: "hist".into(),
            },
            i_all(),
            i_all(),
        )
        .build()
}

/// TPC-C `Delivery`: deliver the undelivered orders of a district with
/// ids below `@upto` (the allocator value the dispatcher observed) — the
/// Section 6 bounded-region pattern that keeps New-Order phantoms
/// provably outside the batch.
pub fn delivery() -> Program {
    let undelivered = RowPred::and([
        RowPred::field_eq_outer("d_id", Expr::param("d")),
        RowPred::field_eq_int("o_carrier", 0),
        RowPred::Cmp(CmpOp::Lt, RowExpr::field("o_id"), RowExpr::Outer(Expr::param("upto"))),
    ]);
    let snap = Pred::Table(TableAtom::SnapshotEq {
        table: "orders".into(),
        filter: undelivered.clone(),
        name: "batch".into(),
    });
    let upto_bounded = pp("@upto <= next_oid");
    ProgramBuilder::new("Delivery_tpcc")
        .param_int("d")
        .param_int("upto")
        .param_int("carrier")
        .consistency(i_all())
        .param_cond(pp("@carrier >= 1"))
        .result(Pred::and([i_all(), pp("#batch_delivered_at_commit")]))
        .snapshot_read_post(Pred::and([i_all(), upto_bounded.clone(), snap.clone()]))
        .stmt(
            Stmt::Select {
                table: "orders".into(),
                filter: undelivered.clone(),
                into: "batch".into(),
            },
            Pred::and([i_all(), upto_bounded.clone()]),
            Pred::and([i_all(), upto_bounded, snap]),
        )
        .stmt(
            Stmt::Update {
                table: "orders".into(),
                filter: undelivered,
                sets: vec![("o_carrier".into(), RowExpr::Outer(Expr::param("carrier")))],
            },
            i_all(),
            i_all(),
        )
        .build()
}

/// TPC-C `Stock-Level`: count items below a threshold. The TPC-C
/// specification explicitly permits this query weak consistency (it may
/// even read uncommitted data), so its annotation places no condition on
/// the count — and the analyzer duly assigns READ UNCOMMITTED. A strict
/// "count equals the current state" spec would instead require
/// SERIALIZABLE under our soundness-refined Theorem 6 (see module docs).
pub fn stock_level() -> Program {
    let low = RowPred::Cmp(
        CmpOp::Lt,
        RowExpr::field("s_quantity"),
        RowExpr::Outer(Expr::param("threshold")),
    );
    ProgramBuilder::new("Stock_Level")
        .param_int("threshold")
        .consistency(Pred::True)
        .result(pp("#stock_level_reported"))
        .snapshot_read_post(Pred::True)
        .stmt(
            Stmt::SelectCount { table: "stock".into(), filter: low, into: "low_count".into() },
            Pred::True,
            pp(":low_count >= 0"),
        )
        .build()
}

/// The TPC-C-style application.
pub fn app() -> App {
    App::new()
        .with_schema("district", &["d_id", "d_ytd"])
        .with_schema("customer", &["c_id", "d_id", "c_balance", "c_ytd_payment"])
        .with_schema("stock", &["s_i_id", "s_quantity", "s_ytd"])
        .with_schema("orders", &["o_id", "d_id", "c_id", "o_carrier"])
        .with_schema("order_line", &["o_id", "d_id", "ol_num", "ol_item", "ol_qty"])
        .with_program(new_order())
        .with_program(payment())
        .with_program(order_status())
        .with_program(delivery())
        .with_program(stock_level())
        // Prose lemmas, monitor-validated: Payment moves money through all
        // three ledgers atomically; New_Order bumps the id it allocates.
        .with_lemma("ytd_consistency", "Payment", LemmaScope::Unit)
        .with_lemma("order_ids_dense", "New_Order_tpcc", LemmaScope::Unit)
        .with_lemma("order_ids_dense", "Payment", LemmaScope::Unit)
        .with_lemma("ytd_consistency", "New_Order_tpcc", LemmaScope::Unit)
}

/// Scale parameters for the generated database.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Number of districts.
    pub districts: usize,
    /// Customers per district.
    pub customers_per_district: usize,
    /// Number of stocked items.
    pub items: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale { districts: 4, customers_per_district: 10, items: 50 }
    }
}

/// Load the initial database.
pub fn setup(engine: &Engine, scale: Scale) {
    engine.create_item("w_ytd", 0).expect("w_ytd");
    engine
        .create_table(semcc_storage::Schema::new("district", &["d_id", "d_ytd"], &["d_id"]))
        .expect("district");
    engine
        .create_table(semcc_storage::Schema::new(
            "customer",
            &["c_id", "d_id", "c_balance", "c_ytd_payment"],
            &["c_id"],
        ))
        .expect("customer");
    engine
        .create_table(semcc_storage::Schema::new(
            "stock",
            &["s_i_id", "s_quantity", "s_ytd"],
            &["s_i_id"],
        ))
        .expect("stock");
    engine
        .create_table(semcc_storage::Schema::new(
            "orders",
            &["o_id", "d_id", "c_id", "o_carrier"],
            &["o_id", "d_id"],
        ))
        .expect("orders");
    engine
        .create_table(semcc_storage::Schema::new(
            "order_line",
            &["o_id", "d_id", "ol_num", "ol_item", "ol_qty"],
            &["o_id", "d_id", "ol_num"],
        ))
        .expect("order_line");
    for d in 0..scale.districts {
        engine.create_item(format!("next_oid[{d}]"), 1).expect("next_oid");
        engine
            .load_row("district", vec![Value::Int(d as i64), Value::Int(0)])
            .expect("district row");
        for c in 0..scale.customers_per_district {
            let c_id = (d * scale.customers_per_district + c) as i64;
            engine
                .load_row(
                    "customer",
                    vec![Value::Int(c_id), Value::Int(d as i64), Value::Int(1000), Value::Int(0)],
                )
                .expect("customer row");
        }
    }
    for i in 0..scale.items {
        engine
            .load_row("stock", vec![Value::Int(i as i64), Value::Int(1000), Value::Int(0)])
            .expect("stock row");
    }
}

/// Integrity audit; returns violated conjunct descriptions.
pub fn integrity_violations(engine: &Engine) -> Vec<String> {
    let mut out = Vec::new();
    let w_ytd = engine.peek_item("w_ytd").expect("w_ytd").as_int().expect("int");
    let districts = engine.peek_table("district").expect("district");
    let d_sum: i64 = districts.iter().map(|(_, r)| r[1].as_int().expect("ytd")).sum();
    if w_ytd != d_sum {
        out.push(format!("ytd_consistency: w_ytd {w_ytd} != Σ d_ytd {d_sum}"));
    }
    let orders = engine.peek_table("orders").expect("orders");
    // Referential integrity: every committed order line belongs to a
    // committed order (lines and orders commit atomically in New-Order).
    for (_, l) in engine.peek_table("order_line").expect("order_line") {
        let (o_id, d_id) = (l[0].as_int().expect("o_id"), l[1].as_int().expect("d_id"));
        if !orders.iter().any(|(_, o)| o[0].as_int() == Some(o_id) && o[1].as_int() == Some(d_id)) {
            out.push(format!("order_line_fk: orphan line for order ({o_id}, {d_id})"));
        }
    }
    for (_, d) in &districts {
        let d_id = d[0].as_int().expect("d_id");
        let next = engine
            .peek_item(&format!("next_oid[{d_id}]"))
            .expect("next_oid")
            .as_int()
            .expect("int");
        for (_, o) in &orders {
            if o[1].as_int() == Some(d_id) && o[0].as_int().expect("o_id") >= next {
                out.push(format!(
                    "order_ids_dense: district {d_id} has order {} >= next id {next}",
                    o[0]
                ));
            }
        }
        // duplicate order ids within a district
        let mut ids: Vec<i64> = orders
            .iter()
            .filter(|(_, o)| o[1].as_int() == Some(d_id))
            .map(|(_, o)| o[0].as_int().expect("o_id"))
            .collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        if ids.len() != before {
            out.push(format!("order_ids_dense: duplicate order ids in district {d_id}"));
        }
    }
    out
}

/// One attempt of a transaction from the standard-ish mix (NewOrder 45%,
/// Payment 43%, OrderStatus 4%, Delivery 4%, StockLevel 4%). `programs`
/// is [`app`]'s, in its order; `levels` maps a program name to its level.
/// A nonzero `think_us` pauses that many microseconds after each
/// statement (benchmark contention amplification).
pub fn random_txn(
    engine: &Arc<Engine>,
    programs: &[Program],
    scale: Scale,
    levels: &dyn Fn(&str) -> IsolationLevel,
    think_us: u64,
    rng: &mut impl Rng,
) -> Result<(), EngineError> {
    let roll = rng.gen_range(0..100);
    let d = rng.gen_range(0..scale.districts) as i64;
    let c = rng.gen_range(0..scale.districts * scale.customers_per_district) as i64;
    let (which, bindings) = if roll < 45 {
        (
            0,
            Bindings::new()
                .set("d", d)
                .set("c", c)
                .set("item", rng.gen_range(0..scale.items.saturating_sub(4)) as i64)
                .set("qty", rng.gen_range(1..10) as i64)
                .set("n_lines", rng.gen_range(1..4) as i64),
        )
    } else if roll < 88 {
        (1, Bindings::new().set("d", d).set("c", c).set("amount", rng.gen_range(1..500) as i64))
    } else if roll < 92 {
        (2, Bindings::new().set("c", c))
    } else if roll < 96 {
        let upto =
            engine.peek_item(&format!("next_oid[{d}]")).ok().and_then(|v| v.as_int()).unwrap_or(1);
        (
            3,
            Bindings::new()
                .set("d", d)
                .set("upto", upto)
                .set("carrier", rng.gen_range(1..10) as i64),
        )
    } else {
        (4, Bindings::new().set("threshold", rng.gen_range(100..900) as i64))
    };
    let paused = (think_us > 0).then(|| with_pauses(&programs[which], think_us));
    let program = paused.as_ref().unwrap_or(&programs[which]);
    run_program(engine, program, levels(&program.name), &bindings).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_mix, MixSpec, RetryPolicy};
    use semcc_engine::EngineConfig;
    use std::time::Duration;

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::new(EngineConfig {
            lock_timeout: Duration::from_millis(500),
            record_history: false,
            faults: None,
            wal: None,
        }))
    }

    #[test]
    fn setup_is_consistent() {
        let e = engine();
        setup(&e, Scale::default());
        assert!(integrity_violations(&e).is_empty());
    }

    #[test]
    fn serial_mix_preserves_integrity() {
        let e = engine();
        setup(&e, Scale::default());
        let programs = app().programs;
        let mut rng = rand::thread_rng();
        let lv = |_: &str| IsolationLevel::Serializable;
        for _ in 0..60 {
            random_txn(&e, &programs, Scale::default(), &lv, 0, &mut rng).expect("txn");
        }
        let v = integrity_violations(&e);
        assert!(v.is_empty(), "violations: {v:?}");
    }

    #[test]
    fn concurrent_mixed_levels_preserve_integrity() {
        // The analyzer-assigned mixed levels must be anomaly-free.
        let e = engine();
        setup(&e, Scale::default());
        let lv = |name: &str| match name {
            "New_Order_tpcc" => IsolationLevel::ReadCommittedFcw,
            "Payment" => IsolationLevel::ReadCommittedFcw,
            "Order_Status" => IsolationLevel::ReadCommitted,
            "Delivery_tpcc" => IsolationLevel::RepeatableRead,
            "Stock_Level" => IsolationLevel::ReadUncommitted,
            other => panic!("unknown txn {other}"),
        };
        let programs = app().programs;
        let policy = RetryPolicy {
            max_attempts: 51,
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let spec = MixSpec { threads: 4, txns_per_thread: 30, seed: 5 };
        let stats = run_mix(spec, &policy, |_, rng| {
            random_txn(&e, &programs, Scale::default(), &lv, 0, rng)
        });
        assert_eq!(stats.committed, 120, "retries absorbed every abort");
        let v = integrity_violations(&e);
        assert!(v.is_empty(), "violations: {v:?}");
    }
}
