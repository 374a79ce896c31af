//! The write path through `Txn`: every write statement, at every level,
//! ended every way, leaves the store, the lock table, the oracle and the
//! log agreeing with each other.

use semcc_engine::{
    audit_post_abort, audit_quiescent, committed_digest, recover, Engine, EngineConfig,
    EngineError, FaultInjector, FaultKind, FaultPlan, IsolationLevel, Row, Txn, Value, Wal,
    WalPolicy, WalRecord,
};
use semcc_logic::row::RowPred;
use semcc_storage::wal::read_records;
use semcc_storage::Schema;
use std::sync::Arc;

/// What a SERIALIZABLE reader sees: items `x` and `m`, and table `t` as
/// `(k, v)` pairs in slot order.
type View = (i64, i64, Vec<(i64, i64)>);

fn initial() -> View {
    (10, 10, vec![(1, 10), (2, 20), (3, 30)])
}

fn logged_engine(faults: Option<Arc<FaultInjector>>) -> (Arc<Engine>, Arc<Wal>) {
    let wal = Arc::new(Wal::new(WalPolicy::default()));
    let e = Arc::new(Engine::new(EngineConfig {
        wal: Some(wal.clone()),
        faults,
        ..EngineConfig::default()
    }));
    let (x, m, rows) = initial();
    e.create_item("x", x).expect("x");
    e.create_item("m", m).expect("m");
    e.create_table(Schema::new("t", &["k", "v"], &["k"])).expect("t");
    for (k, v) in rows {
        e.load_row("t", vec![Value::Int(k), Value::Int(v)]).expect("row");
    }
    (e, wal)
}

fn view(e: &Arc<Engine>) -> View {
    let mut r = e.begin(IsolationLevel::Serializable);
    let int = |v: &Value| v.as_int().expect("int");
    let x = int(&r.read("x").expect("x"));
    let m = int(&r.read("m").expect("m"));
    let rows = r.select("t", &RowPred::True).expect("t");
    r.commit().expect("reader");
    (x, m, rows.iter().map(|(_, row)| (int(&row[0]), int(&row[1]))).collect())
}

/// Recovery from the whole log rebuilds the live committed state bit for
/// bit (values and commit timestamps).
fn assert_recovery_agrees(e: &Arc<Engine>, wal: &Wal, case: &str) {
    let rec = recover(&wal.bytes()).expect("recover");
    assert_eq!(committed_digest(&rec.engine), committed_digest(e), "{case}: recovery disagrees");
    assert_eq!(rec.stats.undo_mismatches, 0, "{case}");
}

fn assert_rolled_back(e: &Arc<Engine>, wal: &Wal, victim: u64, before: &str, case: &str) {
    assert_eq!(committed_digest(e), before, "{case}: store differs from its before-image");
    let post = audit_post_abort(e, victim);
    assert!(post.clean(), "{case}: {:?}", post.violations);
    let quiet = audit_quiescent(e);
    assert!(quiet.clean(), "{case}: {:?}", quiet.violations);
    assert_eq!(view(e), initial(), "{case}");
    assert_recovery_agrees(e, wal, case);
}

type Statement = fn(&mut Txn) -> Result<(), EngineError>;

/// Each statement writes its key twice, so the second write goes through
/// the already-noted, already-dirty (or already-buffered) path. The third
/// element is what a reader sees once the statement has committed.
fn statements() -> Vec<(&'static str, Statement, View)> {
    let (x, m, rows) = initial();
    vec![
        (
            "write",
            |t| {
                t.write("x", 11)?;
                t.write("x", 12)
            },
            (12, m, rows.clone()),
        ),
        (
            "write_max",
            |t| {
                assert_eq!(t.write_max("m", 15)?, 15);
                assert_eq!(t.write_max("m", 12)?, 15, "maxes against its own earlier write");
                Ok(())
            },
            (x, 15, rows),
        ),
        (
            "insert",
            |t| {
                t.insert("t", vec![Value::Int(4), Value::Int(40)])?;
                t.insert("t", vec![Value::Int(5), Value::Int(50)]).map(|_| ())
            },
            (x, m, vec![(1, 10), (2, 20), (3, 30), (4, 40), (5, 50)]),
        ),
        (
            "update_where",
            |t| {
                let key = RowPred::field_eq_int("k", 2);
                assert_eq!(t.update_where("t", &key, &bump_row)?, 1);
                assert_eq!(t.update_where("t", &key, &bump_row)?, 1);
                Ok(())
            },
            (x, m, vec![(1, 10), (2, 22), (3, 30)]),
        ),
        (
            "delete_where",
            |t| {
                let (first, last) = (RowPred::field_eq_int("k", 1), RowPred::field_eq_int("k", 3));
                assert_eq!(t.delete_where("t", &last)?, 1);
                assert_eq!(t.delete_where("t", &last)?, 0, "already gone");
                // An update then a delete of one slot: the last state wins.
                assert_eq!(t.update_where("t", &first, &bump_row)?, 1);
                assert_eq!(t.delete_where("t", &first)?, 1);
                Ok(())
            },
            (x, m, vec![(2, 20)]),
        ),
    ]
}

fn bump_row(row: &Row) -> Row {
    vec![row[0].clone(), Value::Int(row[1].as_int().expect("int") + 1)]
}

#[derive(Clone, Copy, Debug)]
enum Ending {
    Commit,
    Abort,
    Drop,
}

#[test]
fn every_write_statement_at_every_level_commits_aborts_and_drops_cleanly() {
    for (name, run, after) in statements() {
        for level in IsolationLevel::ALL {
            for ending in [Ending::Commit, Ending::Abort, Ending::Drop] {
                let case = format!("{name} at {} ending in {ending:?}", level.name());
                let (e, wal) = logged_engine(None);
                let before = committed_digest(&e);
                let mut t = e.begin(level);
                let id = t.id();
                run(&mut t).unwrap_or_else(|err| panic!("{case}: {err:?}"));
                match ending {
                    Ending::Commit => {
                        t.commit().unwrap_or_else(|err| panic!("{case}: {err:?}"));
                        assert_eq!(view(&e), after, "{case}");
                        let quiet = audit_quiescent(&e);
                        assert!(quiet.clean(), "{case}: {:?}", quiet.violations);
                        assert_recovery_agrees(&e, &wal, &case);
                    }
                    Ending::Abort => {
                        t.abort();
                        assert_rolled_back(&e, &wal, id, &before, &case);
                    }
                    Ending::Drop => {
                        drop(t);
                        assert_rolled_back(&e, &wal, id, &before, &case);
                    }
                }
            }
        }
    }
}

/// `t`'s `(id, k, v)` rows matching `pred` as a fresh transaction at
/// `level` reads them.
fn lookup(e: &Arc<Engine>, level: IsolationLevel, pred: &RowPred) -> Vec<(i64, i64)> {
    let mut r = e.begin(level);
    let rows = r.select("t", pred).expect("select");
    r.commit().expect("reader");
    rows.iter().map(|(_, row)| (row[0].as_int().expect("k"), row[1].as_int().expect("v"))).collect()
}

#[test]
fn an_update_of_the_looked_up_column_moves_the_row_between_keys() {
    // `k` is the column the lookups go by, so its equality index exists
    // before the update and must follow the row from `k = 2` to `k = 7`:
    // back again on abort, for good on commit, and for an older snapshot
    // the row stays where that snapshot saw it.
    let (at_2, at_7) = (RowPred::field_eq_int("k", 2), RowPred::field_eq_int("k", 7));
    let rekey = |row: &Row| vec![Value::Int(7), row[1].clone()];
    let clean = |e: &Arc<Engine>, case: &str| {
        let quiet = audit_quiescent(e);
        assert!(quiet.clean(), "{case}: {:?}", quiet.violations);
        let t = e.store().table("t").expect("t");
        assert_eq!(t.indexed_columns(), vec!["k"], "{case}");
    };
    for level in IsolationLevel::ALL {
        let case = format!("rekey at {}", level.name());
        let (e, wal) = logged_engine(None);
        assert_eq!(lookup(&e, level, &at_2), vec![(2, 20)], "{case}: warm-up");
        let before = committed_digest(&e);

        let mut t = e.begin(level);
        let id = t.id();
        assert_eq!(t.update_where("t", &at_2, &rekey).expect("update"), 1, "{case}");
        assert_eq!(t.select("t", &at_7).expect("own write").len(), 1, "{case}");
        assert_eq!(t.select("t", &at_2).expect("own write").len(), 0, "{case}");
        t.abort();
        assert_rolled_back(&e, &wal, id, &before, &case);
        assert_eq!(lookup(&e, level, &at_2), vec![(2, 20)], "{case}: aborted, found by 2");
        assert_eq!(lookup(&e, level, &at_7), vec![], "{case}: aborted, not found by 7");
        clean(&e, &case);

        let mut old_reader = e.begin(IsolationLevel::Snapshot);
        assert_eq!(old_reader.count("t", &RowPred::True).expect("pin the snapshot"), 3);
        let mut t = e.begin(level);
        assert_eq!(t.update_where("t", &at_2, &rekey).expect("update"), 1, "{case}");
        t.commit().unwrap_or_else(|err| panic!("{case}: {err:?}"));
        let found =
            |rows: Vec<(u64, Row)>| rows.iter().map(|(_, r)| r[1].clone()).collect::<Vec<_>>();
        assert_eq!(found(old_reader.select("t", &at_2).expect("old")), vec![Value::Int(20)]);
        assert_eq!(found(old_reader.select("t", &at_7).expect("old")), vec![], "{case}");
        old_reader.commit().expect("read-only snapshot commits");
        assert_eq!(lookup(&e, level, &at_2), vec![], "{case}: committed, not found by 2");
        assert_eq!(lookup(&e, level, &at_7), vec![(7, 20)], "{case}: committed, found by 7");
        clean(&e, &case);
        assert_recovery_agrees(&e, &wal, &case);
    }
}

#[test]
fn insert_whose_row_lock_fails_leaves_no_dirty_slot() {
    // An insert at a locking level takes the predicate lock (acquisition 1),
    // dirties a fresh slot, then takes the slot's row lock (acquisition 2).
    // Only an injected fault can fail the second; when it does, the slot is
    // already dirty and the abort path must find it.
    for level in IsolationLevel::ALL.into_iter().filter(|l| !l.is_snapshot()) {
        for ending in [Ending::Abort, Ending::Drop] {
            let case = format!("insert at {} ending in {ending:?}", level.name());
            let plan = FaultPlan {
                lock_faults: vec![(2, FaultKind::LockTimeout)],
                ..FaultPlan::default()
            };
            let (e, wal) = logged_engine(Some(Arc::new(FaultInjector::new(plan))));
            let before = committed_digest(&e);
            let mut t = e.begin(level);
            let id = t.id();
            let r = t.insert("t", vec![Value::Int(4), Value::Int(40)]);
            assert!(matches!(r, Err(EngineError::Lock(_))), "{case}: {r:?}");
            match ending {
                Ending::Abort => t.abort(),
                _ => drop(t),
            }
            e.faults().expect("injector").set_armed(false);
            assert_rolled_back(&e, &wal, id, &before, &case);
        }
    }
}

#[test]
fn snapshot_commit_logs_installs_in_write_order() {
    // The log of a run must be a function of the run: the same SNAPSHOT
    // transaction on two fresh engines appends the same bytes, and its
    // install records come out in the order the transaction first wrote
    // each key (not in a hash map's iteration order).
    let items: Vec<String> = [5, 2, 7, 0, 3, 6, 1, 4].iter().map(|i| format!("acct_{i}")).collect();
    let run = || {
        let wal = Arc::new(Wal::new(WalPolicy::default()));
        let e = Arc::new(Engine::new(EngineConfig {
            wal: Some(wal.clone()),
            ..EngineConfig::default()
        }));
        for table in ["left", "right"] {
            e.create_table(Schema::new(table, &["k"], &["k"])).expect("table");
        }
        for name in &items {
            e.create_item(name.as_str(), 0).expect("item");
        }
        let mut t = e.begin(IsolationLevel::Snapshot);
        for (i, name) in items.iter().enumerate() {
            t.write(name, i as i64 + 1).expect("write");
            if i == 2 {
                t.insert("right", vec![Value::Int(1)]).expect("insert");
            }
            if i == 5 {
                t.insert("left", vec![Value::Int(2)]).expect("insert");
            }
        }
        t.write(&items[0], 99).expect("a rewrite keeps the key's first-write position");
        t.commit().expect("commit");
        wal.bytes()
    };
    let (first, second) = (run(), run());
    assert!(first == second, "the same transaction logged different bytes on two fresh engines");
    let installs: Vec<String> = read_records(&first)
        .records
        .into_iter()
        .filter_map(|(_, rec)| match rec {
            WalRecord::ItemInstall { name, .. } => Some(name),
            WalRecord::RowInstall { table, .. } => Some(table),
            _ => None,
        })
        .collect();
    let mut expected = items.clone();
    expected.insert(3, "right".to_string());
    expected.insert(7, "left".to_string());
    assert_eq!(installs, expected);
}
