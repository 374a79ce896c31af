//! Versioned conventional items.
//!
//! An [`ItemCell`] is the [`Versioned`] chain of one named database item:
//! its value type is [`Value`] and its chain is never empty, because an
//! item is created with an initial version at timestamp 0.

use crate::chain::{Versioned, View};
use crate::value::Value;
use crate::Ts;

/// A versioned cell for one conventional item.
pub type ItemCell = Versioned<Value>;

impl ItemCell {
    /// A cell whose initial value was installed at timestamp 0.
    pub fn new(initial: Value) -> Self {
        let mut cell = ItemCell::default();
        cell.install(0, initial);
        cell
    }

    /// Newest committed value.
    pub fn read_committed(&self) -> &Value {
        self.read(View::Committed).expect("an item's chain is never empty").value
    }

    /// Commit timestamp of the newest committed version.
    pub fn latest_commit_ts(&self) -> Ts {
        self.read(View::Committed).expect("an item's chain is never empty").latest_ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::{Commit, Source};
    use crate::error::StorageError;

    /// The value `view` reads; panics where the view sees no version.
    fn value(c: &ItemCell, view: View) -> &Value {
        c.read(view).expect("visible").value
    }

    #[test]
    fn dirty_read_visible_at_latest() {
        let mut c = ItemCell::new(Value::Int(10));
        c.write_dirty(7, Value::Int(99)).expect("first writer");
        assert_eq!(value(&c, View::Latest), &Value::Int(99));
        assert_eq!(c.read_committed(), &Value::Int(10));
    }

    #[test]
    fn second_dirty_writer_rejected() {
        let mut c = ItemCell::new(Value::Int(0));
        c.write_dirty(1, Value::Int(1)).expect("first writer");
        assert_eq!(
            c.write_dirty(2, Value::Int(2)),
            Err(StorageError::DirtyConflict { holder: 1, writer: 2 })
        );
        // same txn may rewrite
        c.write_dirty(1, Value::Int(3)).expect("same writer rewrites");
        assert_eq!(value(&c, View::Latest), &Value::Int(3));
    }

    #[test]
    fn promote_and_discard() {
        let mut c = ItemCell::new(Value::Int(0));
        c.write_dirty(1, Value::Int(5)).expect("write");
        c.promote(1, 10);
        assert_eq!(c.read_committed(), &Value::Int(5));
        assert_eq!(c.latest_commit_ts(), 10);
        c.write_dirty(2, Value::Int(7)).expect("write");
        c.discard(2);
        assert_eq!(value(&c, View::Latest), &Value::Int(5));
    }

    #[test]
    fn promote_other_txn_is_noop() {
        let mut c = ItemCell::new(Value::Int(0));
        c.write_dirty(1, Value::Int(5)).expect("write");
        c.promote(2, 10); // different txn: must not commit txn 1's write
        assert_eq!(c.read_committed(), &Value::Int(0));
        assert_eq!(c.read(View::Latest).expect("visible").source, Source::Dirty(1));
        c.discard(2); // likewise no-op
        assert_eq!(c.read(View::Latest).expect("visible").source, Source::Dirty(1));
    }

    /// A commit at `ts` while a snapshot at 0 is open.
    fn under_snapshot_0(ts: Ts) -> Commit {
        Commit { ts, watermark: 0 }
    }

    #[test]
    fn snapshot_reads() {
        let mut c = ItemCell::new(Value::Int(0));
        c.install(under_snapshot_0(5), Value::Int(50));
        c.install(under_snapshot_0(9), Value::Int(90));
        assert_eq!(value(&c, View::At(0)), &Value::Int(0));
        assert_eq!(value(&c, View::At(5)), &Value::Int(50));
        assert_eq!(value(&c, View::At(7)), &Value::Int(50));
        assert_eq!(value(&c, View::At(100)), &Value::Int(90));
    }

    #[test]
    fn snapshot_ignores_dirty() {
        let mut c = ItemCell::new(Value::Int(0));
        c.write_dirty(3, Value::Int(33)).expect("write");
        assert_eq!(value(&c, View::At(100)), &Value::Int(0));
    }

    #[test]
    fn lsn_stamp_is_monotone_and_outside_equality() {
        let mut a = ItemCell::new(Value::Int(0));
        let b = ItemCell::new(Value::Int(0));
        a.stamp_lsn(9);
        a.stamp_lsn(4); // older stamp must not regress
        assert_eq!(a.lsn(), 9);
        assert_eq!(b.lsn(), 0);
        assert_eq!(a, b, "LSN bookkeeping must not affect logical equality");
    }

    #[test]
    fn trim_keeps_watermark_visible_version() {
        let mut c = ItemCell::new(Value::Int(0));
        c.install(under_snapshot_0(5), Value::Int(50));
        c.install(under_snapshot_0(9), Value::Int(90));
        c.trim(7);
        // version at ts 5 must survive (a snapshot at 7 reads it)
        assert_eq!(value(&c, View::At(7)), &Value::Int(50));
        assert_eq!(c.versions().count(), 2);
        c.trim(9);
        assert_eq!(c.versions().count(), 1);
        assert_eq!(c.read_committed(), &Value::Int(90));
    }
}
