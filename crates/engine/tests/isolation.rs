//! Integration tests: the engine exhibits exactly the per-level anomaly
//! menagerie the paper's theorems reason about.

use semcc_engine::{Engine, EngineConfig, EngineError, IsolationLevel, Value};
use semcc_logic::row::RowPred;
use semcc_storage::Schema;
use std::sync::Arc;
use std::time::Duration;

use IsolationLevel::*;

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        lock_timeout: Duration::from_millis(200),
        record_history: true,
        faults: None,
        wal: None,
    }))
}

fn bank(e: &Arc<Engine>) {
    e.create_item("sav", 100).expect("sav");
    e.create_item("ch", 100).expect("ch");
}

#[test]
fn dirty_read_at_ru_but_not_rc() {
    let e = engine();
    bank(&e);
    let mut writer = e.begin(ReadCommitted);
    writer.write("sav", 999).expect("write");

    // RU sees the uncommitted value.
    let mut ru = e.begin(ReadUncommitted);
    assert_eq!(ru.read("sav").expect("read"), Value::Int(999));
    ru.abort();

    // RC blocks on the short S lock until the writer finishes → timeout here.
    let mut rc = e.begin(ReadCommitted);
    let r = rc.read("sav");
    assert!(matches!(r, Err(EngineError::Lock(_))), "got {r:?}");
    rc.abort();

    writer.abort();
    // After rollback RC reads the original value.
    let mut rc = e.begin(ReadCommitted);
    assert_eq!(rc.read("sav").expect("read"), Value::Int(100));
    rc.abort();
}

#[test]
fn dirty_read_of_rolled_back_data() {
    // The paper's Example 2 hazard: RU can read data that never existed.
    let e = engine();
    bank(&e);
    let mut writer = e.begin(ReadCommitted);
    writer.write("sav", -1).expect("write");
    let mut ru = e.begin(ReadUncommitted);
    let seen = ru.read("sav").expect("read");
    writer.abort();
    assert_eq!(seen, Value::Int(-1), "RU observed a value that was rolled back");
    assert_eq!(e.peek_item("sav").expect("peek"), Value::Int(100));
    ru.abort();
}

#[test]
fn non_repeatable_read_at_rc_but_not_rr() {
    let e = engine();
    bank(&e);
    // RC: value changes between two reads of the same transaction.
    let mut t1 = e.begin(ReadCommitted);
    assert_eq!(t1.read("sav").expect("read"), Value::Int(100));
    let mut t2 = e.begin(ReadCommitted);
    t2.write("sav", 50).expect("write");
    t2.commit().expect("commit");
    assert_eq!(t1.read("sav").expect("reread"), Value::Int(50), "non-repeatable read");
    t1.abort();

    // RR: the long S lock blocks the writer instead.
    let mut t1 = e.begin(RepeatableRead);
    assert_eq!(t1.read("sav").expect("read"), Value::Int(50));
    let mut t2 = e.begin(ReadCommitted);
    let r = t2.write("sav", 25);
    assert!(matches!(r, Err(EngineError::Lock(_))), "writer must block: {r:?}");
    t2.abort();
    assert_eq!(t1.read("sav").expect("reread"), Value::Int(50));
    t1.commit().expect("commit");
}

#[test]
fn lost_update_at_rc_prevented_by_fcw() {
    let e = engine();
    bank(&e);
    // Classic lost update at RC: both read 100, both add 10, final 110.
    let mut t1 = e.begin(ReadCommitted);
    let v1 = t1.read("sav").expect("read").as_int().expect("int");
    let mut t2 = e.begin(ReadCommitted);
    let v2 = t2.read("sav").expect("read").as_int().expect("int");
    t2.write("sav", v2 + 10).expect("write");
    t2.commit().expect("commit");
    t1.write("sav", v1 + 10).expect("write");
    t1.commit().expect("commit");
    assert_eq!(e.peek_item("sav").expect("peek"), Value::Int(110), "one update lost");

    // Same schedule at RC+FCW: the second committer is aborted.
    let mut t1 = e.begin(ReadCommittedFcw);
    let v1 = t1.read("sav").expect("read").as_int().expect("int");
    let mut t2 = e.begin(ReadCommittedFcw);
    let v2 = t2.read("sav").expect("read").as_int().expect("int");
    t2.write("sav", v2 + 10).expect("write");
    t2.commit().expect("commit");
    t1.write("sav", v1 + 10).expect("write");
    let r = t1.commit();
    assert!(matches!(r, Err(EngineError::Fcw(_))), "got {r:?}");
    assert_eq!(e.peek_item("sav").expect("peek"), Value::Int(120));
}

#[test]
fn rc_fcw_write_without_read_commits() {
    // FCW only protects read-then-written items (Theorem 3's condition).
    let e = engine();
    bank(&e);
    let mut t1 = e.begin(ReadCommittedFcw);
    t1.read("ch").expect("unrelated read");
    let mut t2 = e.begin(ReadCommitted);
    t2.write("sav", 77).expect("write");
    t2.commit().expect("commit");
    // t1 writes sav blind (never read it): no FCW check applies.
    t1.write("sav", 88).expect("write");
    t1.commit().expect("blind write commits");
    assert_eq!(e.peek_item("sav").expect("peek"), Value::Int(88));
}

#[test]
fn write_skew_at_snapshot_but_not_serializable() {
    let e = engine();
    bank(&e);
    // Invariant: sav + ch >= 0. Each txn checks the sum then withdraws 150
    // from a different account. Under SNAPSHOT both commit → skew.
    let mut t1 = e.begin(Snapshot);
    let s = t1.read("sav").expect("read").as_int().expect("int");
    let c = t1.read("ch").expect("read").as_int().expect("int");
    assert!(s + c >= 150);
    let mut t2 = e.begin(Snapshot);
    let s2 = t2.read("sav").expect("read").as_int().expect("int");
    let c2 = t2.read("ch").expect("read").as_int().expect("int");
    assert!(s2 + c2 >= 150);
    t1.write("sav", s - 150).expect("write");
    t2.write("ch", c2 - 150).expect("write");
    t1.commit().expect("t1 commits");
    t2.commit().expect("t2 commits too — disjoint write sets");
    let sav = e.peek_item("sav").expect("peek").as_int().expect("int");
    let ch = e.peek_item("ch").expect("peek").as_int().expect("int");
    assert!(sav + ch < 0, "write skew violated the invariant: {sav} + {ch}");

    // Reset and try at SERIALIZABLE: the upgrade deadlock/timeout kills one.
    let e = engine();
    bank(&e);
    let mut t1 = e.begin(Serializable);
    let s = t1.read("sav").expect("read").as_int().expect("int");
    t1.read("ch").expect("read");
    let mut t2 = e.begin(Serializable);
    t2.read("sav").expect("read");
    let c2 = t2.read("ch").expect("read").as_int().expect("int");
    // t1 upgrades sav; blocked by t2's S lock.
    let r1 = t1.write("sav", s - 150);
    let r2 = t2.write("ch", c2 - 150);
    assert!(
        r1.is_err() || r2.is_err(),
        "at SERIALIZABLE at least one writer must be blocked/aborted"
    );
}

#[test]
fn two_snapshot_writers_same_item_first_committer_wins() {
    let e = engine();
    bank(&e);
    let mut t1 = e.begin(Snapshot);
    let mut t2 = e.begin(Snapshot);
    let v = t1.read("sav").expect("read").as_int().expect("int");
    t1.write("sav", v - 10).expect("write");
    let v2 = t2.read("sav").expect("read").as_int().expect("int");
    t2.write("sav", v2 - 20).expect("write");
    t1.commit().expect("first committer wins");
    let r = t2.commit();
    assert!(matches!(r, Err(EngineError::Fcw(_))), "got {r:?}");
    assert_eq!(e.peek_item("sav").expect("peek"), Value::Int(90));
}

#[test]
fn snapshot_reads_are_stable_and_ignore_later_commits() {
    let e = engine();
    bank(&e);
    let mut t1 = e.begin(Snapshot);
    assert_eq!(t1.read("sav").expect("read"), Value::Int(100));
    let mut t2 = e.begin(ReadCommitted);
    t2.write("sav", 5).expect("write");
    t2.commit().expect("commit");
    // Still the snapshot value:
    assert_eq!(t1.read("sav").expect("reread"), Value::Int(100));
    t1.abort();
}

#[test]
fn snapshot_reads_own_writes() {
    let e = engine();
    bank(&e);
    let mut t = e.begin(Snapshot);
    t.write("sav", 42).expect("write");
    assert_eq!(t.read("sav").expect("read"), Value::Int(42));
    t.commit().expect("commit");
    assert_eq!(e.peek_item("sav").expect("peek"), Value::Int(42));
}

fn orders(e: &Arc<Engine>) {
    e.create_table(Schema::new(
        "orders",
        &["order_info", "cust_name", "deliv_date", "done"],
        &["order_info"],
    ))
    .expect("table");
    for (i, date) in [(1i64, 1i64), (2, 1), (3, 2)] {
        e.load_row(
            "orders",
            vec![Value::Int(i), Value::str(format!("c{i}")), Value::Int(date), Value::bool(false)],
        )
        .expect("row");
    }
}

/// Phantoms and the locks that stop them do not depend on the access
/// path: the same script runs with `orders`' equality indexes never built
/// before the first statement (`warm = false`) and already built on both
/// predicate columns by an earlier lookup (`warm = true`).
fn phantom_at_rr_but_not_serializable(warm: bool) {
    let e = engine();
    orders(&e);
    let due_today = RowPred::field_eq_int("deliv_date", 1);
    let of_x = RowPred::field_eq_str("cust_name", "x");
    let orders_table = e.store().table("orders").expect("orders");
    if warm {
        let mut t0 = e.begin(ReadUncommitted);
        t0.count("orders", &due_today).expect("warm deliv_date");
        t0.count("orders", &of_x).expect("warm cust_name");
        t0.commit().expect("commit");
        assert_eq!(orders_table.indexed_columns(), vec!["cust_name", "deliv_date"]);
    } else {
        assert!(orders_table.indexed_columns().is_empty());
    }
    let order = |info: i64, cust: &str| {
        vec![Value::Int(info), Value::str(cust), Value::Int(1), Value::bool(false)]
    };

    // REPEATABLE READ: tuple locks only; a new order slips in.
    let mut t1 = e.begin(RepeatableRead);
    assert_eq!(t1.count("orders", &due_today).expect("count"), 2);
    let mut t2 = e.begin(ReadCommitted);
    t2.insert("orders", order(9, "c9")).expect("phantom insert succeeds at RR");
    t2.commit().expect("commit");
    assert_eq!(t1.count("orders", &due_today).expect("recount"), 3, "phantom appeared");
    t1.abort();

    // SERIALIZABLE: the SELECT's predicate lock blocks the insert.
    let mut t1 = e.begin(Serializable);
    assert_eq!(t1.count("orders", &due_today).expect("count"), 3);
    let mut t2 = e.begin(ReadCommitted);
    let r = t2.insert("orders", order(10, "c10"));
    assert!(matches!(r, Err(EngineError::Lock(_))), "got {r:?}");
    t2.abort();
    assert_eq!(t1.count("orders", &due_today).expect("recount"), 3);
    t1.commit().expect("commit");

    // A predicate that matches no row locks no row, and still covers its
    // region: only the predicate lock can be what blocks the insert.
    let mut t1 = e.begin(Serializable);
    assert_eq!(t1.count("orders", &of_x).expect("count"), 0);
    let mut t2 = e.begin(ReadCommitted);
    let r = t2.insert("orders", order(11, "x"));
    assert!(matches!(r, Err(EngineError::Lock(_))), "got {r:?}");
    t2.abort();
    assert_eq!(t1.count("orders", &of_x).expect("recount"), 0);
    t1.commit().expect("commit");

    // The same empty read at REPEATABLE READ leaves the region open.
    let mut t1 = e.begin(RepeatableRead);
    assert_eq!(t1.count("orders", &of_x).expect("count"), 0);
    let mut t2 = e.begin(ReadCommitted);
    t2.insert("orders", order(12, "x")).expect("nothing covers the empty region at RR");
    t2.commit().expect("commit");
    assert_eq!(t1.count("orders", &of_x).expect("recount"), 1, "phantom appeared");
    t1.abort();
    assert_eq!(orders_table.index_violations(), Vec::<String>::new());
}

#[test]
fn phantom_at_rr_but_not_serializable_cold() {
    phantom_at_rr_but_not_serializable(false);
}

#[test]
fn phantom_at_rr_but_not_serializable_warm() {
    phantom_at_rr_but_not_serializable(true);
}

#[test]
fn serializable_insert_outside_predicate_is_allowed() {
    let e = engine();
    orders(&e);
    let due_today = RowPred::field_eq_int("deliv_date", 1);
    let mut t1 = e.begin(Serializable);
    t1.count("orders", &due_today).expect("count");
    // An insert with deliv_date = 7 does not intersect the locked predicate.
    let mut t2 = e.begin(ReadCommitted);
    t2.insert("orders", vec![Value::Int(11), Value::str("c"), Value::Int(7), Value::bool(false)])
        .expect("disjoint insert proceeds");
    t2.commit().expect("commit");
    t1.commit().expect("commit");
}

#[test]
fn rr_select_blocks_updates_of_read_rows() {
    // Theorem 6's case 2: DELETE/UPDATE whose predicate intersects a prior
    // SELECT is blocked by the tuple locks.
    let e = engine();
    orders(&e);
    let due_today = RowPred::field_eq_int("deliv_date", 1);
    let mut t1 = e.begin(RepeatableRead);
    assert_eq!(t1.count("orders", &due_today).expect("count"), 2);
    let mut t2 = e.begin(ReadCommitted);
    let r = t2.update_where("orders", &due_today, &|row| {
        let mut r = row.clone();
        r[3] = Value::bool(true);
        r
    });
    assert!(matches!(r, Err(EngineError::Lock(_))), "got {r:?}");
    t2.abort();
    t1.commit().expect("commit");
}

#[test]
fn update_delete_and_rollback_relational() {
    let e = engine();
    orders(&e);
    let all = RowPred::True;
    let mut t = e.begin(ReadCommitted);
    let n = t
        .update_where("orders", &RowPred::field_eq_int("deliv_date", 1), &|row| {
            let mut r = row.clone();
            r[3] = Value::bool(true);
            r
        })
        .expect("update");
    assert_eq!(n, 2);
    let d = t.delete_where("orders", &RowPred::field_eq_int("deliv_date", 2)).expect("delete");
    assert_eq!(d, 1);
    assert_eq!(t.count("orders", &all).expect("count"), 2);
    t.abort();
    // rollback restored everything
    let mut t = e.begin(ReadCommitted);
    assert_eq!(t.count("orders", &all).expect("count"), 3);
    let done = t.select("orders", &RowPred::field_eq_int("done", 1)).expect("select");
    assert!(done.is_empty(), "updates rolled back");
    t.commit().expect("commit");
}

#[test]
fn snapshot_relational_overlay_and_fcw() {
    let e = engine();
    orders(&e);
    let mut t1 = e.begin(Snapshot);
    // insert + update + delete inside the snapshot, all visible to itself
    t1.insert("orders", vec![Value::Int(20), Value::str("x"), Value::Int(9), Value::bool(false)])
        .expect("insert");
    assert_eq!(t1.count("orders", &RowPred::True).expect("count"), 4);
    t1.update_where("orders", &RowPred::field_eq_int("order_info", 20), &|row| {
        let mut r = row.clone();
        r[3] = Value::bool(true);
        r
    })
    .expect("update own insert");
    t1.delete_where("orders", &RowPred::field_eq_int("order_info", 1)).expect("delete");
    assert_eq!(t1.count("orders", &RowPred::True).expect("count"), 3);
    // other transactions see nothing yet
    assert_eq!(e.peek_table("orders").expect("peek").len(), 3);
    t1.commit().expect("commit");
    let rows = e.peek_table("orders").expect("peek");
    assert_eq!(rows.len(), 3);

    // FCW on rows: two snapshots updating the same row → second loses.
    let mut a = e.begin(Snapshot);
    let mut b = e.begin(Snapshot);
    let bump = |row: &Vec<Value>| {
        let mut r = row.clone();
        r[2] = Value::Int(r[2].as_int().expect("int") + 1);
        r
    };
    assert_eq!(
        a.update_where("orders", &RowPred::field_eq_int("order_info", 2), &bump).expect("a"),
        1
    );
    assert_eq!(
        b.update_where("orders", &RowPred::field_eq_int("order_info", 2), &bump).expect("b"),
        1
    );
    a.commit().expect("first committer");
    assert!(matches!(b.commit(), Err(EngineError::Fcw(_))));
}

#[test]
fn deadlock_victim_is_aborted_and_other_proceeds() {
    let e = engine();
    bank(&e);
    let e1 = e.clone();
    let h = std::thread::spawn(move || {
        let mut t1 = e1.begin(ReadCommitted);
        t1.write("sav", 1).expect("t1 sav");
        std::thread::sleep(Duration::from_millis(60));
        match t1.write("ch", 1) {
            Ok(()) => {
                t1.commit().expect("commit");
                true
            }
            Err(_) => false, // t1 aborted on drop
        }
    });
    let mut t2 = e.begin(ReadCommitted);
    t2.write("ch", 2).expect("t2 ch");
    std::thread::sleep(Duration::from_millis(30));
    let r2 = match t2.write("sav", 2) {
        Ok(()) => {
            t2.commit().expect("commit");
            true
        }
        Err(_) => false,
    };
    let r1 = h.join().expect("join");
    assert!(r1 || r2, "at least one transaction must survive the deadlock");
}

#[test]
fn concurrent_transfers_preserve_total_at_serializable() {
    let e = engine();
    bank(&e); // 200 total
    let threads = 4;
    let per = 25;
    let mut handles = Vec::new();
    for i in 0..threads {
        let e = e.clone();
        handles.push(std::thread::spawn(move || {
            let (from, to) = if i % 2 == 0 { ("sav", "ch") } else { ("ch", "sav") };
            let mut done = 0;
            while done < per {
                let mut t = e.begin(Serializable);
                let step = (|| -> Result<(), EngineError> {
                    let f = t.read(from)?.as_int().expect("int");
                    let g = t.read(to)?.as_int().expect("int");
                    t.write(from, f - 1)?;
                    t.write(to, g + 1)?;
                    Ok(())
                })();
                match step {
                    Ok(()) => {
                        if t.commit().is_ok() {
                            done += 1;
                        }
                    }
                    Err(e) if e.is_abort() => { /* retry */ }
                    Err(e) => panic!("unexpected: {e}"),
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("join");
    }
    let sav = e.peek_item("sav").expect("peek").as_int().expect("int");
    let ch = e.peek_item("ch").expect("peek").as_int().expect("int");
    assert_eq!(sav + ch, 200, "money conserved");
}

#[test]
fn mixed_levels_coexist() {
    let e = engine();
    bank(&e);
    let mut ru = e.begin(ReadUncommitted);
    let mut snap = e.begin(Snapshot);
    let mut rc = e.begin(ReadCommitted);
    rc.write("sav", 70).expect("write");
    assert_eq!(ru.read("sav").expect("ru"), Value::Int(70), "dirty");
    assert_eq!(snap.read("sav").expect("snap"), Value::Int(100), "snapshot");
    rc.commit().expect("commit");
    assert_eq!(snap.read("sav").expect("snap2"), Value::Int(100), "still snapshot");
    ru.abort();
    snap.abort();
}

#[test]
fn operations_on_finished_txn_fail() {
    let e = engine();
    bank(&e);
    let t = e.begin(ReadCommitted);
    let ts = t.commit().expect("commit");
    assert!(ts > 0);
    // A fresh handle aborted twice is fine via drop semantics; a used-up
    // handle can't be reused because commit/abort consume it (compile-time
    // guarantee) — nothing to assert at runtime beyond this.
}

#[test]
fn history_records_schedule() {
    use semcc_engine::Op;
    let e = engine();
    bank(&e);
    let mut t = e.begin(ReadCommitted);
    t.read("sav").expect("read");
    t.write("sav", 1).expect("write");
    t.commit().expect("commit");
    let ev = e.history().events();
    assert!(ev.iter().any(|x| matches!(x.op, Op::Begin)));
    assert!(ev.iter().any(|x| matches!(x.op, Op::Read { .. })));
    assert!(ev.iter().any(|x| matches!(x.op, Op::Write { .. })));
    assert!(ev.iter().any(|x| matches!(x.op, Op::Commit { .. })));
}

#[test]
fn abort_releases_predicate_locks() {
    let e = engine();
    orders(&e);
    let due = RowPred::field_eq_int("deliv_date", 1);
    // A SERIALIZABLE reader predicate-locks the region, then aborts.
    let mut reader = e.begin(Serializable);
    reader.count("orders", &due).expect("count");
    let mut writer = e.begin(ReadCommitted);
    assert!(
        writer
            .insert(
                "orders",
                vec![Value::Int(50), Value::str("x"), Value::Int(1), Value::bool(false)]
            )
            .is_err(),
        "blocked while the reader holds the predicate lock"
    );
    writer.abort();
    reader.abort();
    // After the abort the same insert sails through.
    let mut writer = e.begin(ReadCommitted);
    writer
        .insert("orders", vec![Value::Int(51), Value::str("x"), Value::Int(1), Value::bool(false)])
        .expect("predicate lock released by abort");
    writer.commit().expect("commit");
}

#[test]
fn rc_fcw_validates_row_level_reads() {
    // RC-FCW's read-then-written protection applies to rows exactly as to
    // items: two transactions SELECT the same row then UPDATE it — the
    // second committer must lose.
    let e = engine();
    orders(&e);
    let key = RowPred::field_eq_int("order_info", 1);
    let bump = |row: &Vec<Value>| {
        let mut r = row.clone();
        r[2] = Value::Int(r[2].as_int().expect("int") + 1);
        r
    };
    let mut t1 = e.begin(ReadCommittedFcw);
    let mut t2 = e.begin(ReadCommittedFcw);
    assert_eq!(t1.select("orders", &key).expect("select").len(), 1);
    assert_eq!(t2.select("orders", &key).expect("select").len(), 1);
    t1.update_where("orders", &key, &bump).expect("t1 update");
    t1.commit().expect("first committer");
    t2.update_where("orders", &key, &bump).expect("t2 update");
    assert!(
        matches!(t2.commit(), Err(EngineError::Fcw(_))),
        "row-level FCW must doom the second committer"
    );
    // Exactly one increment landed.
    let rows = e.peek_table("orders").expect("peek");
    let row = &rows.iter().find(|(_, r)| r[0] == Value::Int(1)).expect("row").1;
    assert_eq!(row[2], Value::Int(2), "date bumped exactly once");
}

#[test]
fn rc_fcw_concurrent_row_increments_lose_no_update() {
    // Four threads increment one row's counter through SELECT, then
    // UPDATE ... WHERE writing the value *computed from the selected row*,
    // retrying on any abort. The version timestamp a SELECT records must
    // belong to the row it returned: were it read after the short S lock is
    // released, a writer committing in between would have its timestamp
    // recorded against the old row, the stale increment would pass
    // first-committer-wins validation, and the counter would end below the
    // number of commits.
    const THREADS: i64 = 4;
    const COMMITS_EACH: i64 = 1000;
    let e = engine();
    orders(&e);
    let key = RowPred::field_eq_int("order_info", 1);
    let start = Arc::new(std::sync::Barrier::new(THREADS as usize));
    let workers: Vec<_> = (0..THREADS)
        .map(|_| {
            let (e, key, start) = (e.clone(), key.clone(), start.clone());
            std::thread::spawn(move || {
                start.wait();
                let mut committed = 0;
                while committed < COMMITS_EACH {
                    let mut t = e.begin(ReadCommittedFcw);
                    let attempt = (|| -> Result<(), EngineError> {
                        let rows = t.select("orders", &key)?;
                        let seen = rows[0].1[2].as_int().expect("int");
                        let n = t.update_where("orders", &key, &|row| {
                            let mut r = row.clone();
                            r[2] = Value::Int(seen + 1);
                            r
                        })?;
                        assert_eq!(n, 1);
                        Ok(())
                    })();
                    match attempt.and_then(|()| t.commit().map(|_| ())) {
                        Ok(()) => committed += 1,
                        Err(err) => assert!(err.is_abort(), "unexpected error: {err:?}"),
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("join");
    }
    let rows = e.peek_table("orders").expect("peek");
    let row = &rows.iter().find(|(_, r)| r[0] == Value::Int(1)).expect("row").1;
    assert_eq!(row[2], Value::Int(1 + THREADS * COMMITS_EACH), "one increment per commit");
}

#[test]
fn dropped_transaction_rolls_back_dirty_state() {
    let e = engine();
    bank(&e);
    {
        let mut t = e.begin(ReadCommitted);
        t.write("sav", 1).expect("write");
        // dropped here without commit/abort
    }
    assert_eq!(e.peek_item("sav").expect("peek"), Value::Int(100));
    // ...and its locks are gone:
    let mut t2 = e.begin(ReadCommitted);
    t2.write("sav", 2).expect("lock released by drop");
    t2.commit().expect("commit");
}

#[test]
fn snapshot_commit_is_atomic_for_new_snapshots() {
    // A new snapshot taken at timestamp T must see ALL of a transaction
    // that committed at T — hammered under concurrency.
    let e = engine();
    bank(&e); // sav = ch = 100; invariant: sav + ch multiple of 200 after paired updates
    let writers: Vec<_> = (0..4)
        .map(|_| {
            let e = e.clone();
            std::thread::spawn(move || {
                for _ in 0..50 {
                    let mut t = e.begin(Snapshot);
                    let step = (|| -> Result<(), EngineError> {
                        let s = t.read("sav")?.as_int().expect("int");
                        let c = t.read("ch")?.as_int().expect("int");
                        t.write("sav", s + 100)?;
                        t.write("ch", c - 100)?;
                        Ok(())
                    })();
                    if step.is_ok() {
                        let _ = t.commit();
                    }
                }
            })
        })
        .collect();
    let reader = {
        let e = e.clone();
        std::thread::spawn(move || {
            for _ in 0..200 {
                let mut t = e.begin(Snapshot);
                let s = t.read("sav").expect("read").as_int().expect("int");
                let c = t.read("ch").expect("read").as_int().expect("int");
                assert_eq!(s + c, 200, "torn snapshot: {s} + {c}");
                t.abort();
            }
        })
    };
    for w in writers {
        w.join().expect("join");
    }
    reader.join().expect("join");
}
