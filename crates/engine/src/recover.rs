//! ARIES-lite crash recovery: rebuild a fresh [`Engine`] from a WAL
//! prefix.
//!
//! The algorithm is the classic three phases collapsed into two passes:
//!
//! 1. **Analysis + redo (repeat history).** One forward scan over the
//!    whole, checksum-valid records. Setup records rebuild items/tables;
//!    `ItemWrite`/`Row*` records re-apply dirty writes exactly as the
//!    live engine performed them (recording first undo images per
//!    transaction along the way); `ItemInstall`/`RowInstall` records are
//!    buffered per transaction; a `Commit` record promotes the
//!    transaction's dirty set / applies its buffered installs at the
//!    logged timestamp and marks it a **winner**; an `Abort` record
//!    rolls its dirty set back, exactly as the live engine's
//!    `finish_abort` did at the same log position.
//! 2. **Undo losers.** Transactions with neither `Commit` nor `Abort` in
//!    the surviving prefix (in-flight at the crash) have their dirty
//!    writes discarded, newest-first, and each undo is validated against
//!    the logged before-image — a mismatch means the log and the replay
//!    disagree and is surfaced in [`RecoveryStats::undo_mismatches`].
//!
//! The WAL append discipline in `txn.rs` guarantees commit/abort records
//! are appended while the transaction's locks (or the oracle's commit
//! critical section) are still held, so replaying records in log order
//! reproduces the live engine's committed state byte for byte.

use crate::engine::{Engine, EngineConfig};
use semcc_storage::wal::{read_records, Lsn, WalRecord};
use semcc_storage::{Row, RowId, Ts, TxnId, Value, View};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Counters and outcomes of one recovery run.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// Whole records replayed from the prefix.
    pub records: u64,
    /// True when trailing bytes were dropped (torn final record).
    pub torn: bool,
    /// Bytes of the prefix consumed by whole records.
    pub consumed_bytes: usize,
    /// Committed transactions (txn id → logged commit timestamp).
    pub winners: BTreeMap<TxnId, Ts>,
    /// In-flight transactions undone by the loser pass.
    pub losers: Vec<TxnId>,
    /// Committed effects applied: promoted dirty entries + installs.
    pub redo_applied: u64,
    /// Dirty entries / buffered installs rolled back (logged aborts and
    /// losers).
    pub undone: u64,
    /// Undo validations where the post-rollback state differed from the
    /// logged before-image, plus replay conflicts (any > 0 means the log
    /// is inconsistent with the replay — an audit violation).
    pub undo_mismatches: u64,
    /// Newest commit timestamp re-reserved in the oracle.
    pub max_ts: Ts,
}

/// A recovered engine plus the stats of the run.
pub struct Recovered {
    /// The rebuilt engine (no history, no faults, no WAL).
    pub engine: Arc<Engine>,
    /// What recovery did.
    pub stats: RecoveryStats,
}

/// Per-transaction in-flight tracking during the forward pass.
#[derive(Default)]
struct TxnTrack {
    /// First (oldest) undo image per dirty item.
    items: Vec<(String, Value)>,
    /// Dirty row slots: (table, id, first before-image, born-dirty).
    rows: Vec<(String, RowId, Option<Row>, bool)>,
    /// Buffered snapshot-commit installs, applied at Commit.
    installs: Vec<WalRecord>,
}

impl TxnTrack {
    fn dirty_len(&self) -> u64 {
        (self.items.len() + self.rows.len() + self.installs.len()) as u64
    }
}

/// Rebuild an engine from a WAL byte image (typically a crash snapshot's
/// surviving prefix). Never fails on torn/corrupt tails — those simply
/// bound the prefix — but returns `Err` on structurally impossible logs
/// (e.g. a record for a table that was never created).
pub fn recover(wal_bytes: &[u8]) -> Result<Recovered, String> {
    let parsed = read_records(wal_bytes);
    let engine =
        Arc::new(Engine::new(EngineConfig { record_history: false, ..Default::default() }));
    let mut stats = RecoveryStats {
        records: parsed.records.len() as u64,
        torn: parsed.torn,
        consumed_bytes: parsed.consumed,
        ..RecoveryStats::default()
    };
    let mut live: BTreeMap<TxnId, TxnTrack> = BTreeMap::new();
    let mut max_txn: TxnId = 0;

    let err = |lsn: Lsn, what: &str, e: &dyn std::fmt::Display| -> String {
        format!("recovery: record {lsn} ({what}): {e}")
    };

    for (lsn, rec) in &parsed.records {
        if let Some(t) = rec.txn() {
            max_txn = max_txn.max(t);
        }
        match rec {
            WalRecord::CreateItem { name, initial } => {
                engine
                    .store()
                    .create_item(name.clone(), initial.clone())
                    .map_err(|e| err(*lsn, "CreateItem", &e))?;
                if let Ok(cell) = engine.store().item(name) {
                    cell.lock().stamp_lsn(*lsn);
                }
            }
            WalRecord::CreateTable { schema } => {
                engine
                    .store()
                    .create_table(schema.clone())
                    .map_err(|e| err(*lsn, "CreateTable", &e))?;
            }
            WalRecord::LoadRow { table, id, row } => {
                let t = engine.store().table(table).map_err(|e| err(*lsn, "LoadRow", &e))?;
                t.load_row_at(*id, 0, row.clone()).map_err(|e| err(*lsn, "LoadRow", &e))?;
                t.stamp_row_lsn(*id, *lsn);
            }
            WalRecord::Begin { txn } => {
                live.entry(*txn).or_default();
            }
            WalRecord::ItemWrite { txn, name, before, after } => {
                let cell = engine.store().item(name).map_err(|e| err(*lsn, "ItemWrite", &e))?;
                {
                    let mut c = cell.lock();
                    if c.write_dirty(*txn, after.clone()).is_err() {
                        // Two live dirty writers on one item can only mean
                        // the log ordering invariant was broken.
                        stats.undo_mismatches += 1;
                    } else {
                        c.stamp_lsn(*lsn);
                    }
                }
                let track = live.entry(*txn).or_default();
                if !track.items.iter().any(|(n, _)| n == name) {
                    track.items.push((name.clone(), before.clone()));
                }
            }
            WalRecord::RowInsert { txn, table, id, row } => {
                let t = engine.store().table(table).map_err(|e| err(*lsn, "RowInsert", &e))?;
                t.insert_dirty_at(*txn, *id, row.clone())
                    .map_err(|e| err(*lsn, "RowInsert", &e))?;
                t.stamp_row_lsn(*id, *lsn);
                let track = live.entry(*txn).or_default();
                track.rows.push((table.clone(), *id, None, true));
            }
            WalRecord::RowUpdate { txn, table, id, before, after } => {
                let t = engine.store().table(table).map_err(|e| err(*lsn, "RowUpdate", &e))?;
                if t.update_dirty(*txn, *id, after.clone()).is_err() {
                    stats.undo_mismatches += 1;
                } else {
                    t.stamp_row_lsn(*id, *lsn);
                }
                let track = live.entry(*txn).or_default();
                if !track.rows.iter().any(|(tb, rid, _, _)| tb == table && rid == id) {
                    track.rows.push((table.clone(), *id, before.clone(), false));
                }
            }
            WalRecord::RowDelete { txn, table, id, before } => {
                let t = engine.store().table(table).map_err(|e| err(*lsn, "RowDelete", &e))?;
                if t.delete_dirty(*txn, *id).is_err() {
                    stats.undo_mismatches += 1;
                } else {
                    t.stamp_row_lsn(*id, *lsn);
                }
                let track = live.entry(*txn).or_default();
                if !track.rows.iter().any(|(tb, rid, _, _)| tb == table && rid == id) {
                    track.rows.push((table.clone(), *id, before.clone(), false));
                }
            }
            WalRecord::ItemInstall { .. } | WalRecord::RowInstall { .. } => {
                let txn = rec.txn().expect("install records carry a txn");
                live.entry(txn).or_default().installs.push(rec.clone());
            }
            WalRecord::Commit { txn, ts } => {
                let track = live.remove(txn).unwrap_or_default();
                // Promote the locking-mode dirty set at the logged ts.
                for (name, _) in &track.items {
                    if let Ok(cell) = engine.store().item(name) {
                        let mut c = cell.lock();
                        c.promote(*txn, *ts);
                        c.stamp_lsn(*lsn);
                        stats.redo_applied += 1;
                    }
                }
                for (table, id, _, _) in &track.rows {
                    if let Ok(t) = engine.store().table(table) {
                        t.promote_row(*txn, *id, *ts);
                        t.stamp_row_lsn(*id, *lsn);
                        stats.redo_applied += 1;
                    }
                }
                // Apply the buffered snapshot installs atomically here.
                for inst in &track.installs {
                    match inst {
                        WalRecord::ItemInstall { name, value, .. } => {
                            if let Ok(cell) = engine.store().item(name) {
                                let mut c = cell.lock();
                                c.install(*ts, value.clone());
                                c.stamp_lsn(*lsn);
                                stats.redo_applied += 1;
                            }
                        }
                        WalRecord::RowInstall { table, id, row, .. } => {
                            if let Ok(t) = engine.store().table(table) {
                                let _ = t.install(*ts, *id, row.clone());
                                t.stamp_row_lsn(*id, *lsn);
                                stats.redo_applied += 1;
                            }
                        }
                        _ => {}
                    }
                }
                stats.winners.insert(*txn, *ts);
                stats.max_ts = stats.max_ts.max(*ts);
            }
            WalRecord::Abort { txn } => {
                let track = live.remove(txn).unwrap_or_default();
                stats.undone += undo_track(&engine, *txn, &track, &mut stats.undo_mismatches);
            }
        }
    }

    // Undo pass: transactions still in flight at the crash are losers.
    let losers: Vec<(TxnId, TxnTrack)> = std::mem::take(&mut live).into_iter().collect();
    for (txn, track) in losers.into_iter().rev() {
        stats.undone += undo_track(&engine, txn, &track, &mut stats.undo_mismatches);
        stats.losers.push(txn);
    }
    stats.losers.sort_unstable();

    // Re-reserve the id/timestamp space so post-recovery transactions
    // stay monotone with everything in the log.
    engine.oracle.advance_to(stats.max_ts);
    engine.oracle.advance_txn_past(max_txn);

    Ok(Recovered { engine, stats })
}

/// Roll back one transaction's dirty set, validating each undo against
/// the logged before-image. Returns the number of entries undone.
fn undo_track(engine: &Engine, txn: TxnId, track: &TxnTrack, mismatches: &mut u64) -> u64 {
    // Undo newest-first (rows were pushed in execution order).
    for (name, before) in track.items.iter().rev() {
        if let Ok(cell) = engine.store().item(name) {
            let mut c = cell.lock();
            c.discard(txn);
            if c.read(View::Latest).map(|seen| seen.value) != Some(before) {
                *mismatches += 1;
            }
        }
    }
    for (table, id, before, born) in track.rows.iter().rev() {
        if let Ok(t) = engine.store().table(table) {
            t.discard_row(txn, *id);
            let now = t.read_row(*id, View::Latest).map(|seen| seen.value);
            let expect = if *born { None } else { before.clone() };
            if now != expect {
                *mismatches += 1;
            }
        }
    }
    // Buffered installs that never reached their Commit record are
    // dropped wholesale — they were never applied.
    track.dirty_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::level::IsolationLevel;
    use semcc_storage::wal::{Wal, WalPolicy};
    use semcc_storage::Schema;

    fn durable_engine() -> (Arc<Engine>, Arc<Wal>) {
        let wal = Arc::new(Wal::new(WalPolicy::default()));
        let engine = Arc::new(Engine::new(EngineConfig {
            wal: Some(wal.clone()),
            ..EngineConfig::default()
        }));
        (engine, wal)
    }

    #[test]
    fn committed_writes_survive_full_log_replay() {
        let (e, wal) = durable_engine();
        e.create_item("x", 1).unwrap();
        e.create_table(Schema::new("t", &["a"], &["a"])).unwrap();
        e.load_row("t", vec![Value::Int(10)]).unwrap();
        let mut t1 = e.begin(IsolationLevel::Serializable);
        t1.write("x", 5).unwrap();
        let ts = t1.commit().unwrap();
        let rec = recover(&wal.bytes()).expect("recover");
        assert_eq!(rec.stats.winners.get(&t1_id(&rec)), Some(&ts));
        assert_eq!(rec.engine.peek_item("x").unwrap(), Value::Int(5));
        assert_eq!(rec.engine.peek_table("t").unwrap(), e.peek_table("t").unwrap());
        assert_eq!(rec.stats.undo_mismatches, 0);
        assert!(rec.stats.losers.is_empty());
        assert!(!rec.stats.torn);
    }

    fn t1_id(rec: &Recovered) -> TxnId {
        *rec.stats.winners.keys().next().expect("one winner")
    }

    #[test]
    fn in_flight_loser_is_undone_to_before_image() {
        let (e, wal) = durable_engine();
        e.create_item("x", 1).unwrap();
        let mut t1 = e.begin(IsolationLevel::ReadCommitted);
        t1.write("x", 99).unwrap();
        wal.flush(); // the dirty write is durable, the commit never happens
        let rec = recover(&wal.bytes()).expect("recover");
        assert_eq!(rec.engine.peek_item("x").unwrap(), Value::Int(1));
        assert_eq!(rec.stats.losers.len(), 1);
        assert_eq!(rec.stats.undone, 1);
        assert_eq!(rec.stats.undo_mismatches, 0);
        drop(t1);
    }

    #[test]
    fn snapshot_installs_apply_only_with_whole_commit_record() {
        let (e, wal) = durable_engine();
        e.create_item("x", 1).unwrap();
        let mut t1 = e.begin(IsolationLevel::Snapshot);
        t1.write("x", 7).unwrap();
        t1.commit().unwrap();
        // Torn commit: cut the log just before the final (Commit) record.
        let full = wal.bytes();
        let parsed = read_records(&full);
        let (_, last) = parsed.records.last().expect("records");
        assert!(matches!(last, WalRecord::Commit { .. }));
        // Find the byte start of the Commit record by re-parsing prefixes.
        let mut cut = full.len();
        while cut > 0 {
            let p = read_records(&full[..cut - 1]);
            if p.records.len() < parsed.records.len() && p.consumed < cut {
                cut = p.consumed;
                break;
            }
            cut -= 1;
        }
        let rec = recover(&full[..cut]).expect("recover");
        assert_eq!(
            rec.engine.peek_item("x").unwrap(),
            Value::Int(1),
            "install without commit must not apply"
        );
        assert!(rec.stats.winners.is_empty());
        let rec_full = recover(&full).expect("recover full");
        assert_eq!(rec_full.engine.peek_item("x").unwrap(), Value::Int(7));
    }

    #[test]
    fn recovered_oracle_resumes_past_logged_ids_and_ts() {
        let (e, wal) = durable_engine();
        e.create_item("x", 1).unwrap();
        let mut t1 = e.begin(IsolationLevel::Serializable);
        t1.write("x", 2).unwrap();
        let ts = t1.commit().unwrap();
        let rec = recover(&wal.bytes()).expect("recover");
        let mut t2 = rec.engine.begin(IsolationLevel::Serializable);
        assert!(t2.id() > t1_id(&rec), "recovered ids must not be reissued");
        t2.write("x", 3).unwrap();
        let ts2 = t2.commit().unwrap();
        assert!(ts2 > ts, "recovered timestamps stay monotone");
    }
}
