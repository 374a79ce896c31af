//! End-to-end interpreter tests: annotated programs executed against the
//! real engine.

use semcc_engine::{Engine, EngineConfig, EngineError, IsolationLevel, Value};
use semcc_logic::parser::parse_pred;
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::Expr;
use semcc_storage::Schema;
use semcc_txn::interp::{run_program, Stepper};
use semcc_txn::stmt::{AStmt, ItemRef, Stmt};
use semcc_txn::{Bindings, ProgramBuilder};
use std::sync::Arc;
use std::time::Duration;

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        lock_timeout: Duration::from_millis(300),
        record_history: true,
        faults: None,
        wal: None,
    }))
}

#[test]
fn withdraw_program_runs() {
    let e = engine();
    e.create_item("sav", 100).expect("item");
    e.create_item("ch", 50).expect("item");
    let p = ProgramBuilder::new("Withdraw_sav")
        .param_int("w")
        .bare(Stmt::ReadItem { item: ItemRef::plain("sav"), into: "Sav".into() })
        .bare(Stmt::ReadItem { item: ItemRef::plain("ch"), into: "Ch".into() })
        .bare(Stmt::If {
            guard: parse_pred(":Sav + :Ch >= @w").expect("parses"),
            then_branch: vec![AStmt::bare(Stmt::WriteItem {
                item: ItemRef::plain("sav"),
                value: Expr::local("Sav").sub(Expr::param("w")),
            })],
            else_branch: vec![],
        })
        .build();
    // sufficient funds: withdraw happens
    let out = run_program(&e, &p, IsolationLevel::Serializable, &Bindings::new().set("w", 120))
        .expect("run");
    assert!(out.commit_ts > 0);
    assert_eq!(e.peek_item("sav").expect("peek"), Value::Int(-20));
    // insufficient funds: guard blocks the write
    run_program(&e, &p, IsolationLevel::Serializable, &Bindings::new().set("w", 1000))
        .expect("run");
    assert_eq!(e.peek_item("sav").expect("peek"), Value::Int(-20));
}

#[test]
fn indexed_items_resolve_per_account() {
    let e = engine();
    e.create_item("acct[1]", 10).expect("item");
    e.create_item("acct[2]", 20).expect("item");
    let p = ProgramBuilder::new("Deposit")
        .param_int("i")
        .param_int("d")
        .bare(Stmt::ReadItem { item: ItemRef::indexed("acct", Expr::param("i")), into: "B".into() })
        .bare(Stmt::WriteItem {
            item: ItemRef::indexed("acct", Expr::param("i")),
            value: Expr::local("B").add(Expr::param("d")),
        })
        .build();
    run_program(&e, &p, IsolationLevel::ReadCommitted, &Bindings::new().set("i", 2).set("d", 5))
        .expect("run");
    assert_eq!(e.peek_item("acct[2]").expect("peek"), Value::Int(25));
    assert_eq!(e.peek_item("acct[1]").expect("peek"), Value::Int(10));
}

#[test]
fn while_loop_counts_down() {
    let e = engine();
    e.create_item("x", 0).expect("item");
    let p = ProgramBuilder::new("Loop")
        .param_int("n")
        .bare(Stmt::LocalAssign { local: "i".into(), value: Expr::param("n") })
        .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() })
        .bare(Stmt::While {
            guard: parse_pred(":i > 0").expect("parses"),
            body: vec![
                AStmt::bare(Stmt::LocalAssign {
                    local: "X".into(),
                    value: Expr::local("X").add(Expr::int(2)),
                }),
                AStmt::bare(Stmt::LocalAssign {
                    local: "i".into(),
                    value: Expr::local("i").sub(Expr::int(1)),
                }),
            ],
        })
        .bare(Stmt::WriteItem { item: ItemRef::plain("x"), value: Expr::local("X") })
        .build();
    run_program(&e, &p, IsolationLevel::ReadCommitted, &Bindings::new().set("n", 7)).expect("run");
    assert_eq!(e.peek_item("x").expect("peek"), Value::Int(14));
}

fn orders_engine() -> Arc<Engine> {
    let e = engine();
    e.create_table(Schema::new("orders", &["info", "cust", "date", "done"], &["info"]))
        .expect("table");
    e.create_item("maximum_date", 3).expect("item");
    for (i, d) in [(1i64, 1i64), (2, 2), (3, 3)] {
        e.load_row(
            "orders",
            vec![Value::Int(i), Value::str(format!("c{i}")), Value::Int(d), Value::bool(false)],
        )
        .expect("row");
    }
    e
}

#[test]
fn new_order_style_program() {
    let e = orders_engine();
    // read maxdate, bump it, insert an order at maxdate+1, count customer's orders
    let p = ProgramBuilder::new("New_Order")
        .param_str("customer")
        .param_int("info")
        .bare(Stmt::ReadItem { item: ItemRef::plain("maximum_date"), into: "maxdate".into() })
        .bare(Stmt::WriteItem {
            item: ItemRef::plain("maximum_date"),
            value: Expr::local("maxdate").add(Expr::int(1)),
        })
        .bare(Stmt::SelectCount {
            table: "orders".into(),
            filter: RowPred::field_eq_outer("cust", Expr::param("customer")),
            into: "custcount".into(),
        })
        .bare(Stmt::Insert {
            table: "orders".into(),
            values: vec![
                RowExpr::Outer(Expr::param("info")),
                RowExpr::Outer(Expr::param("customer")),
                RowExpr::Outer(Expr::local("maxdate").add(Expr::int(1))),
                RowExpr::Int(0),
            ],
        })
        .build();
    let out = run_program(
        &e,
        &p,
        IsolationLevel::ReadCommitted,
        &Bindings::new().set("customer", "c1").set("info", 99),
    )
    .expect("run");
    assert_eq!(out.locals.get("custcount"), Some(&Value::Int(1)));
    assert_eq!(e.peek_item("maximum_date").expect("peek"), Value::Int(4));
    let rows = e.peek_table("orders").expect("scan");
    assert_eq!(rows.len(), 4);
    assert!(rows.iter().any(|(_, r)| r[0] == Value::Int(99) && r[2] == Value::Int(4)));
}

#[test]
fn delivery_style_select_then_update() {
    let e = orders_engine();
    let filter = RowPred::and([
        RowPred::field_eq_outer("date", Expr::param("today")),
        RowPred::field_eq_int("done", 0),
    ]);
    let p = ProgramBuilder::new("Delivery")
        .param_int("today")
        .bare(Stmt::Select { table: "orders".into(), filter: filter.clone(), into: "buff".into() })
        .bare(Stmt::Update {
            table: "orders".into(),
            filter,
            sets: vec![("done".into(), RowExpr::Int(1))],
        })
        .build();
    let out = run_program(&e, &p, IsolationLevel::RepeatableRead, &Bindings::new().set("today", 2))
        .expect("run");
    assert_eq!(out.buffers.get("buff").map(Vec::len), Some(1));
    let rows = e.peek_table("orders").expect("scan");
    let done: Vec<_> = rows.iter().filter(|(_, r)| r[3] == Value::Int(1)).collect();
    assert_eq!(done.len(), 1);
    assert_eq!(done[0].1[2], Value::Int(2));
}

#[test]
fn select_value_and_delete() {
    let e = orders_engine();
    let p = ProgramBuilder::new("Audit_and_purge")
        .param_int("which")
        .bare(Stmt::SelectValue {
            table: "orders".into(),
            filter: RowPred::field_eq_outer("info", Expr::param("which")),
            column: "date".into(),
            into: "d".into(),
        })
        .bare(Stmt::Delete {
            table: "orders".into(),
            filter: RowPred::field_eq_outer("info", Expr::param("which")),
        })
        .build();
    let out = run_program(&e, &p, IsolationLevel::Serializable, &Bindings::new().set("which", 2))
        .expect("run");
    assert_eq!(out.locals.get("d"), Some(&Value::Int(2)));
    assert_eq!(e.peek_table("orders").expect("scan").len(), 2);
}

#[test]
fn empty_select_into_is_error() {
    let e = orders_engine();
    let p = ProgramBuilder::new("T")
        .bare(Stmt::SelectValue {
            table: "orders".into(),
            filter: RowPred::field_eq_int("info", 999),
            column: "date".into(),
            into: "d".into(),
        })
        .build();
    let r = run_program(&e, &p, IsolationLevel::ReadCommitted, &Bindings::new());
    assert!(r.is_err());
    // the failed run must have rolled back cleanly; engine still usable
    assert_eq!(e.peek_table("orders").expect("scan").len(), 3);
}

#[test]
fn unbound_param_is_invalid_not_abort() {
    let e = engine();
    e.create_item("x", 0).expect("item");
    let p = ProgramBuilder::new("T")
        .bare(Stmt::WriteItem { item: ItemRef::plain("x"), value: Expr::param("missing") })
        .build();
    let err = run_program(&e, &p, IsolationLevel::ReadCommitted, &Bindings::new())
        .expect_err("must fail");
    assert!(!err.is_abort(), "programming error, not a retryable abort: {err}");
}

fn incr_program(name: &str) -> semcc_txn::Program {
    ProgramBuilder::new(name)
        .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() })
        .bare(Stmt::WriteItem {
            item: ItemRef::plain("x"),
            value: Expr::local("X").add(Expr::int(1)),
        })
        .build()
}

#[test]
fn stepper_abort_mid_statement_releases_locks() {
    let e = engine();
    e.create_item("x", 5).expect("item");
    let p = incr_program("Incr");
    let bindings = Bindings::new();

    let mut a = Stepper::begin(&e, &p, IsolationLevel::Serializable, &bindings);
    a.run_until(2).expect("both statements run"); // holds the write lock on x
    assert!(a.is_done() && !a.is_finished());

    // With the lock held, a competing transaction times out...
    let mut b = Stepper::begin(&e, &p, IsolationLevel::Serializable, &bindings);
    let err = b.step().expect_err("x is write-locked");
    assert!(err.is_abort(), "lock conflict is a retryable abort: {err}");
    b.abort().expect("first abort succeeds");

    // ...but after the mid-program abort the lock is free again.
    a.abort().expect("abort");
    assert!(a.is_finished());
    let mut c = Stepper::begin(&e, &p, IsolationLevel::Serializable, &bindings);
    c.run_to_end().expect("lock released by abort");
    c.commit().expect("commit");
    // The aborted increment left no trace; only c's increment landed.
    assert_eq!(e.peek_item("x").expect("peek"), Value::Int(6));
}

#[test]
fn stepper_run_until_past_stmt_count_errors_cleanly() {
    let e = engine();
    e.create_item("x", 0).expect("item");
    let p = incr_program("Incr");
    let bindings = Bindings::new();
    let mut s = Stepper::begin(&e, &p, IsolationLevel::ReadCommitted, &bindings);
    assert_eq!(s.stmt_count(), 2);
    let err = s.run_until(3).expect_err("past the end");
    assert!(
        matches!(err, EngineError::Invalid(_)),
        "out-of-range request is a programming error, not an abort: {err}"
    );
    assert!(!err.is_abort());
    // The stepper itself is unharmed: the valid prefix still runs.
    s.run_until(2).expect("valid range");
    s.commit().expect("commit");
    assert_eq!(e.peek_item("x").expect("peek"), Value::Int(1));
}

#[test]
fn stepper_double_commit_and_use_after_finish_are_rejected() {
    let e = engine();
    e.create_item("x", 0).expect("item");
    let p = incr_program("Incr");
    let bindings = Bindings::new();
    let mut s = Stepper::begin(&e, &p, IsolationLevel::Serializable, &bindings);
    s.run_to_end().expect("runs");
    s.commit().expect("first commit");
    assert!(s.is_finished());
    assert!(matches!(s.commit(), Err(EngineError::TxnFinished)), "double commit");
    assert!(matches!(s.abort(), Err(EngineError::TxnFinished)), "abort after commit");
    // Locals survive the commit for post-hoc observation.
    assert_eq!(s.locals().get("X"), Some(&Value::Int(0)));
    assert_eq!(e.peek_item("x").expect("peek"), Value::Int(1));

    // An early commit (before the program is done) ends the transaction:
    // further stepping is rejected, not silently executed.
    let mut t = Stepper::begin(&e, &p, IsolationLevel::Serializable, &bindings);
    t.run_until(1).expect("first statement");
    t.commit().expect("early commit");
    assert!(matches!(t.step(), Err(EngineError::TxnFinished)), "step after commit");
    assert!(matches!(t.finish(), Err(EngineError::TxnFinished)), "finish after commit");
}

#[test]
fn dropping_an_open_stepper_aborts_and_releases_locks() {
    let e = engine();
    e.create_item("x", 0).expect("item");
    let p = incr_program("Incr");
    let bindings = Bindings::new();
    {
        let mut s = Stepper::begin(&e, &p, IsolationLevel::Serializable, &bindings);
        s.run_to_end().expect("runs");
        // dropped uncommitted
    }
    let mut s = Stepper::begin(&e, &p, IsolationLevel::Serializable, &bindings);
    s.run_to_end().expect("drop released the lock");
    s.commit().expect("commit");
    assert_eq!(e.peek_item("x").expect("peek"), Value::Int(1));
}
