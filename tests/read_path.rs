//! Read-path parity: an item and a row are one version chain read through
//! one `View`, so at every level a read of either shape must behave alike.
//!
//! Single-threaded with `lock_timeout: ZERO`, so a read that would wait is
//! refused at once and "blocked" is an observable outcome. Every level ×
//! {item `x`, the row `k = 1` of table `t`} × four scenarios; for each the
//! two shapes must agree on what the reader saw (a value, or a refusal),
//! on the `ReadSrc` variant its history event carries, on the locks the
//! reader holds afterwards, and on how the writes and commits around the
//! read ended.
//! The item shape is also pinned to the level's expected behaviour, so the
//! shapes cannot agree by both being wrong.

use semcc::engine::{
    Engine, EngineConfig, EngineError, IsolationLevel, Op, ReadSrc, Row, Txn, Value,
};
use semcc::logic::row::RowPred;
use semcc::storage::Schema;
use std::sync::Arc;
use std::time::Duration;
use IsolationLevel::*;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    Item,
    Row,
}

/// Which version a history event says a read came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Src {
    Committed,
    OwnDirty,
    ForeignDirty,
    Snapshot,
}

/// How a statement or a commit ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum End {
    Ok,
    Blocked,
    Fcw,
    Ssi,
}

fn end<T>(r: &Result<T, EngineError>) -> End {
    match r {
        Ok(_) => End::Ok,
        Err(EngineError::Lock(_)) => End::Blocked,
        Err(EngineError::Fcw(_)) => End::Fcw,
        Err(EngineError::Ssi(_)) => End::Ssi,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// A fresh engine holding `x = 10` and `t = {(k 1, v 10), (k 2, v 20)}`.
fn engine() -> Arc<Engine> {
    let e = Arc::new(Engine::new(EngineConfig {
        lock_timeout: Duration::ZERO,
        ..EngineConfig::default()
    }));
    e.create_item("x", 10).expect("x");
    e.create_table(Schema::new("t", &["k", "v"], &["k"])).expect("t");
    e.load_row("t", vec![Value::Int(1), Value::Int(10)]).expect("row 1");
    e.load_row("t", vec![Value::Int(2), Value::Int(20)]).expect("row 2");
    e
}

fn key() -> RowPred {
    RowPred::field_eq_int("k", 1)
}

/// Read the shape's one value.
fn read(t: &mut Txn, shape: Shape) -> Result<i64, EngineError> {
    match shape {
        Shape::Item => Ok(t.read("x")?.as_int().expect("int")),
        Shape::Row => {
            let rows = t.select("t", &key())?;
            assert_eq!(rows.len(), 1, "k = 1 names one row");
            Ok(rows[0].1[1].as_int().expect("int"))
        }
    }
}

/// Overwrite the shape's one value with `v`.
fn write(t: &mut Txn, shape: Shape, v: i64) -> Result<(), EngineError> {
    match shape {
        Shape::Item => t.write("x", v),
        Shape::Row => {
            let set = move |row: &Row| vec![row[0].clone(), Value::Int(v)];
            t.update_where("t", &key(), &set).map(|n| assert_eq!(n, 1))
        }
    }
}

/// What one read did: the value or the refusal, the provenance the history
/// recorded for it, and the point locks (on `x`, on the row) the reader
/// holds once it is over.
#[derive(Debug, PartialEq, Eq)]
struct ReadOutcome {
    seen: Result<i64, End>,
    src: Option<Src>,
    locks: usize,
}

/// Read the shape's value in `t`, which has already written it iff `wrote`.
fn observed_read(e: &Arc<Engine>, t: &mut Txn, shape: Shape, wrote: bool) -> ReadOutcome {
    let events_before = e.history().events().len();
    let r = read(t, shape);
    let srcs: Vec<Src> = e.history().events()[events_before..]
        .iter()
        .filter_map(|ev| match &ev.op {
            Op::Read { src, .. } | Op::RowRead { src, .. } => Some(match src {
                ReadSrc::Committed(_) => Src::Committed,
                ReadSrc::Snapshot(_) => Src::Snapshot,
                ReadSrc::Dirty(w) if *w == t.id() => Src::OwnDirty,
                ReadSrc::Dirty(_) => Src::ForeignDirty,
            }),
            _ => None,
        })
        .collect();
    assert!(srcs.len() <= 1, "one value read, at most one provenance: {srcs:?}");
    // The row shape's one lock without an item counterpart is the predicate
    // lock on `key()`: X from a locking level's UPDATE, S from a
    // SERIALIZABLE SELECT, one grant when both.
    let level = t.level();
    let pred_lock = shape == Shape::Row
        && ((wrote && !level.is_snapshot()) || (r.is_ok() && level.read_predicate_locks()));
    ReadOutcome {
        seen: r.as_ref().map(|v| *v).map_err(|_| end(&r)),
        src: srcs.first().copied(),
        locks: e.locks().held_by(t.id()) - usize::from(pred_lock),
    }
}

fn saw(v: i64, src: Src, locks: usize) -> ReadOutcome {
    ReadOutcome { seen: Ok(v), src: Some(src), locks }
}

/// Run `scenario` on both shapes at every level; the item shape must give
/// `expected(level)`, the row shape whatever the item shape gave.
fn parity<O: std::fmt::Debug + PartialEq>(
    what: &str,
    expected: impl Fn(IsolationLevel) -> O,
    scenario: impl Fn(&Arc<Engine>, IsolationLevel, Shape) -> O,
) {
    for level in IsolationLevel::ALL {
        let item = scenario(&engine(), level, Shape::Item);
        assert_eq!(item, expected(level), "{what}: item at {level}");
        assert_eq!(scenario(&engine(), level, Shape::Row), item, "{what}: row vs item at {level}");
    }
}

#[test]
fn plain_read() {
    parity(
        "plain read",
        |level| match level {
            ReadUncommitted | ReadCommitted | ReadCommittedFcw => saw(10, Src::Committed, 0),
            RepeatableRead | Serializable => saw(10, Src::Committed, 1),
            Snapshot | Ssi => saw(10, Src::Snapshot, 0),
        },
        |e, level, shape| observed_read(e, &mut e.begin(level), shape, false),
    );
}

#[test]
fn read_of_own_uncommitted_write() {
    parity(
        "own write",
        |level| match level {
            Snapshot | Ssi => saw(11, Src::Snapshot, 0),
            // The write's long X lock covers the read: no second grant.
            _ => saw(11, Src::OwnDirty, 1),
        },
        |e, level, shape| {
            let mut t = e.begin(level);
            write(&mut t, shape, 11).expect("own write");
            observed_read(e, &mut t, shape, true)
        },
    );
}

#[test]
fn read_while_another_transaction_holds_an_uncommitted_write() {
    parity(
        "foreign dirty write",
        |level| match level {
            ReadUncommitted => saw(99, Src::ForeignDirty, 0),
            Snapshot | Ssi => saw(10, Src::Snapshot, 0),
            _ => ReadOutcome { seen: Err(End::Blocked), src: None, locks: 0 },
        },
        |e, level, shape| {
            let mut writer = e.begin(ReadCommitted);
            write(&mut writer, shape, 99).expect("dirty write");
            observed_read(e, &mut e.begin(level), shape, false)
        },
    );
}

/// Read, let another transaction try to overwrite and commit, then write a
/// value computed from the read and commit: `(the read, the other writer's
/// write, own write, own commit, the committed value afterwards)`.
type Rmw = (ReadOutcome, End, End, End, i64);

#[test]
fn read_then_concurrent_commit_then_write_and_commit() {
    parity(
        "read, concurrent commit, write, commit",
        |level| -> Rmw {
            match level {
                // No long read lock and no validation: the update is lost.
                ReadUncommitted | ReadCommitted => {
                    (saw(10, Src::Committed, 0), End::Ok, End::Ok, End::Ok, 11)
                }
                // The read's version timestamp loses first-committer-wins.
                ReadCommittedFcw => (saw(10, Src::Committed, 0), End::Ok, End::Ok, End::Fcw, 50),
                // The long S lock refuses the other writer.
                RepeatableRead | Serializable => {
                    (saw(10, Src::Committed, 1), End::Blocked, End::Ok, End::Ok, 11)
                }
                Snapshot | Ssi => (saw(10, Src::Snapshot, 0), End::Ok, End::Ok, End::Fcw, 50),
            }
        },
        |e, level, shape| {
            let mut t = e.begin(level);
            let seen = observed_read(e, &mut t, shape, false);
            let mut other = e.begin(ReadCommitted);
            let others_write = write(&mut other, shape, 50);
            match others_write {
                Ok(()) => drop(other.commit().expect("the other writer commits")),
                Err(_) => other.abort(),
            }
            let own_write = write(&mut t, shape, seen.seen.expect("the read succeeds") + 1);
            let commit = t.commit();
            let after = read(&mut e.begin(Serializable), shape).expect("quiescent read");
            (seen, end(&others_write), end(&own_write), end(&commit), after)
        },
    );
}
