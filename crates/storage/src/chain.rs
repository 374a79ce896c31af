//! The version chain both data models are built on.
//!
//! A [`Versioned<T>`] holds the committed versions of one cell, oldest
//! first, plus at most one *dirty* (uncommitted, in-place) version written
//! by a locking-level transaction, plus the LSN of the newest WAL record
//! that touched it. An item is a `Versioned<Value>` whose chain is never
//! empty; a row slot is a `Versioned<Option<Row>>`, where `None` records a
//! deletion and an empty chain a birth that has not committed.
//!
//! Every read goes through [`Versioned::read`]: a [`View`] names the
//! version wanted, and the answer carries, from that one access, the value,
//! which version supplied it and the chain's newest commit timestamp. The
//! engine's write locks guarantee a single dirty writer; the chain still
//! defends against violations with [`StorageError::DirtyConflict`].

use crate::error::StorageError;
use crate::wal::Lsn;
use crate::{Ts, TxnId};

/// Which version of a cell a read goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum View {
    /// Newest state including any dirty version (READ UNCOMMITTED).
    Latest,
    /// Newest committed state, overlaid with the given transaction's own
    /// dirty version; other writers' dirty versions are invisible (the
    /// locking levels).
    Visible(TxnId),
    /// Newest committed state at or before the timestamp (snapshot levels).
    At(Ts),
    /// Newest committed state.
    Committed,
}

/// The version that supplied a read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// The uncommitted version written by this transaction.
    Dirty(TxnId),
    /// The version committed at this timestamp.
    Committed(Ts),
}

/// What one read of a chain saw.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Seen<V> {
    /// The value of the version the view selected.
    pub value: V,
    /// Which version that was.
    pub source: Source,
    /// Commit timestamp of the chain's newest committed version at the
    /// moment of the read (0 if it has none), whichever version was read.
    pub latest_ts: Ts,
}

impl<V: Clone> Seen<&V> {
    /// The same reading, owning its value.
    pub fn cloned(self) -> Seen<V> {
        Seen { value: self.value.clone(), source: self.source, latest_ts: self.latest_ts }
    }
}

/// One cell's committed version chain, dirty slot and LSN.
#[derive(Clone, Debug)]
pub struct Versioned<T> {
    /// Committed versions in increasing timestamp order.
    committed: Vec<(Ts, T)>,
    /// In-place uncommitted write, if any.
    dirty: Option<(TxnId, T)>,
    /// LSN of the newest WAL record touching this cell (0 = never logged).
    lsn: Lsn,
}

impl<T> Default for Versioned<T> {
    fn default() -> Self {
        Versioned { committed: Vec::new(), dirty: None, lsn: 0 }
    }
}

/// Equality compares logical content only; the WAL bookkeeping LSN is
/// excluded so a recovered cell equals its reference regardless of log
/// position.
impl<T: PartialEq> PartialEq for Versioned<T> {
    fn eq(&self, other: &Self) -> bool {
        self.committed == other.committed && self.dirty == other.dirty
    }
}

impl<T: Eq> Eq for Versioned<T> {}

impl<T> Versioned<T> {
    /// LSN of the newest WAL record that touched this cell.
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// Stamp the cell with the LSN of the WAL record describing the
    /// mutation just performed (monotone; older stamps never regress it).
    pub fn stamp_lsn(&mut self, lsn: Lsn) {
        self.lsn = self.lsn.max(lsn);
    }

    /// The version `view` selects, or `None` when the chain holds none the
    /// view can see.
    pub fn read(&self, view: View) -> Option<Seen<&T>> {
        let newest = self.committed.last();
        let (value, source) = match (view, &self.dirty) {
            (View::Latest, Some((writer, v))) => (v, Source::Dirty(*writer)),
            (View::Visible(txn), Some((writer, v))) if *writer == txn => (v, Source::Dirty(txn)),
            (View::At(ts), _) => {
                let (at, v) = self.committed.iter().rev().find(|(t, _)| *t <= ts)?;
                (v, Source::Committed(*at))
            }
            _ => newest.map(|(at, v)| (v, Source::Committed(*at)))?,
        };
        Some(Seen { value, source, latest_ts: newest.map_or(0, |(at, _)| *at) })
    }

    /// The committed versions, oldest first.
    pub fn versions(&self) -> impl Iterator<Item = (Ts, &T)> {
        self.committed.iter().map(|(ts, v)| (*ts, v))
    }

    /// The uncommitted version and its writer, if any.
    pub fn dirty(&self) -> Option<(TxnId, &T)> {
        self.dirty.as_ref().map(|(txn, v)| (*txn, v))
    }

    /// In-place uncommitted write (locking levels). Re-writing by the same
    /// transaction replaces its dirty version, which is returned.
    pub fn write_dirty(&mut self, txn: TxnId, value: T) -> Result<Option<T>, StorageError> {
        match &self.dirty {
            Some((holder, _)) if *holder != txn => {
                Err(StorageError::DirtyConflict { holder: *holder, writer: txn })
            }
            _ => Ok(self.dirty.replace((txn, value)).map(|(_, old)| old)),
        }
    }

    /// Promote the transaction's dirty version to a committed one at `ts`.
    /// No-op if the transaction has no dirty write here.
    pub fn promote(&mut self, txn: TxnId, ts: Ts) {
        if let Some(value) = self.discard(txn) {
            self.install(ts, value);
        }
    }

    /// Drop the transaction's dirty version (abort) and return it. No-op if
    /// the dirty slot is empty or another transaction's.
    pub fn discard(&mut self, txn: TxnId) -> Option<T> {
        match &self.dirty {
            Some((holder, _)) if *holder == txn => self.dirty.take().map(|(_, v)| v),
            _ => None,
        }
    }

    /// Append a committed version directly (SNAPSHOT commit, bulk load).
    /// Most chains only ever hold one, so the first is given exactly its
    /// own room, not `Vec`'s four-element start.
    pub fn install(&mut self, ts: Ts, value: T) {
        debug_assert!(self.committed.last().is_none_or(|(newest, _)| ts >= *newest));
        if self.committed.is_empty() {
            self.committed.reserve_exact(1);
        }
        self.committed.push((ts, value));
    }

    /// Drop the versions no snapshot at or after `watermark` can see (all
    /// but the newest with `ts <= watermark`) and return them.
    pub fn gc(&mut self, watermark: Ts) -> Vec<T> {
        let keep_from = self.committed.iter().rposition(|(ts, _)| *ts <= watermark).unwrap_or(0);
        self.committed.drain(..keep_from).map(|(_, v)| v).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seen(value: &i64, source: Source, latest_ts: Ts) -> Option<Seen<&i64>> {
        Some(Seen { value, source, latest_ts })
    }

    #[test]
    fn one_read_gives_value_source_and_latest_timestamp() {
        let mut c: Versioned<i64> = Versioned::default();
        assert_eq!(c.read(View::Latest), None, "an empty chain shows nothing to any view");
        c.install(3, 30);
        c.install(6, 60);
        c.write_dirty(7, 70).expect("first writer");
        assert_eq!(c.read(View::Latest), seen(&70, Source::Dirty(7), 6));
        assert_eq!(c.read(View::Visible(7)), seen(&70, Source::Dirty(7), 6));
        assert_eq!(c.read(View::Visible(8)), seen(&60, Source::Committed(6), 6));
        assert_eq!(c.read(View::Committed), seen(&60, Source::Committed(6), 6));
        assert_eq!(c.read(View::At(5)), seen(&30, Source::Committed(3), 6));
        assert_eq!(c.read(View::At(2)), None, "nothing committed that early");
        assert_eq!(c.read(View::At(9)).map(Seen::cloned).map(|s| s.value), Some(60));
    }
}
