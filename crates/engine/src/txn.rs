//! Transaction handles: the per-level read/write/commit disciplines.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::history::{Op, ReadSrc};
use crate::level::IsolationLevel;
use semcc_lock::{Mode, Target};
use semcc_logic::row::RowPred;
use semcc_mvcc::{CommitConflict, Key, SsiConflict, SsiKey};
use semcc_storage::eval::{empty_env, row_matches};
use semcc_storage::wal::{Lsn, WalRecord};
use semcc_storage::{
    ItemCell, Row, RowId, Schema, Seen, Source, StorageError, Table, Ts, TxnId, Value, View,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TxnState {
    Active,
    Committed,
    Aborted,
}

/// A transaction handle.
///
/// Obtained from [`Engine::begin`]; single-threaded (one transaction per
/// thread, many threads per engine). All relational predicates passed to
/// transaction operations must be *concrete* — `RowExpr::Outer` terms are
/// evaluated with an empty environment and therefore never match; callers
/// (the `semcc-txn` interpreter) bind parameters before calling.
///
/// Dropping an active transaction aborts it.
pub struct Txn {
    engine: Arc<Engine>,
    id: TxnId,
    level: IsolationLevel,
    state: TxnState,
    snapshot_ts: Option<Ts>,
    /// Private item write buffer (snapshot levels).
    buf_items: HashMap<String, Value>,
    /// Private row write buffer (snapshot levels): final state per touched
    /// slot.
    buf_rows: HashMap<String, BTreeMap<RowId, Option<Row>>>,
    /// Every key this transaction wrote, once each, in first-write order:
    /// the one record of its writes. The new version of each key sits in
    /// the store's dirty slot (locking levels) or in the buffers above
    /// (snapshot levels). Commit reads this list for its
    /// first-committer-wins checks, the commit-log entry, SSI's committed
    /// write set and promote/install; abort reads it for undo.
    write_set: Vec<Key>,
    /// First-read timestamps per key (RC-FCW validation).
    read_ts: HashMap<Key, Ts>,
}

impl Txn {
    pub(crate) fn begin(engine: Arc<Engine>, level: IsolationLevel) -> Txn {
        let id = engine.oracle.next_txn_id();
        let snapshot_ts =
            if level.is_snapshot() { Some(engine.oracle.begin_snapshot(id)) } else { None };
        if level.siread_locks() {
            engine.oracle.ssi_begin(id, snapshot_ts.expect("ssi txn has ts"));
        }
        engine.history.record(id, level, || Op::Begin);
        if let Some(wal) = &engine.wal {
            wal.append(WalRecord::Begin { txn: id });
        }
        Txn {
            engine,
            id,
            level,
            state: TxnState::Active,
            snapshot_ts,
            buf_items: HashMap::new(),
            buf_rows: HashMap::new(),
            write_set: Vec::new(),
            read_ts: HashMap::new(),
        }
    }

    /// This transaction's id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// The engine this transaction belongs to.
    pub fn engine_ref(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// This transaction's isolation level.
    pub fn level(&self) -> IsolationLevel {
        self.level
    }

    /// The snapshot timestamp, for SNAPSHOT transactions.
    pub fn snapshot_ts(&self) -> Option<Ts> {
        self.snapshot_ts
    }

    /// The version of an item or a row slot this transaction's level reads.
    fn view(&self) -> View {
        match self.snapshot_ts {
            Some(ts) => View::At(ts),
            None if self.level == IsolationLevel::ReadUncommitted => View::Latest,
            None => View::Visible(self.id),
        }
    }

    /// How the history names the version a read through [`Txn::view`] saw.
    fn read_src(&self, source: Source) -> ReadSrc {
        match (self.snapshot_ts, source) {
            (Some(ts), _) => ReadSrc::Snapshot(ts),
            (None, Source::Dirty(writer)) => ReadSrc::Dirty(writer),
            (None, Source::Committed(ts)) => ReadSrc::Committed(ts),
        }
    }

    /// Run `read` under the read lock this level takes on `target()`: none,
    /// short (released once `read` returns) or long.
    fn with_read_lock<R>(
        &self,
        target: impl Fn() -> Target,
        read: impl FnOnce() -> R,
    ) -> Result<R, EngineError> {
        if !self.level.read_locks() {
            return Ok(read());
        }
        self.engine.locks.acquire(self.id, target(), Mode::S)?;
        let out = read();
        if !self.level.long_read_locks() {
            self.engine.locks.release(self.id, &target());
        }
        Ok(out)
    }

    /// A privately buffered write as a reading: this transaction's own
    /// uncommitted version, on no chain. Only a snapshot level buffers, and
    /// none of them consults `latest_ts`.
    fn buffered<V>(&self, value: V) -> Seen<V> {
        Seen { value, source: Source::Dirty(self.id), latest_ts: 0 }
    }

    /// The item as this transaction sees it, no lock taken: its own buffered
    /// write, else the version of `cell` under [`Txn::view`].
    fn item_seen(&self, name: &str, cell: &ItemCell) -> Result<Seen<Value>, StorageError> {
        match self.buf_items.get(name) {
            Some(v) => Ok(self.buffered(v.clone())),
            None => cell.read(self.view()).map(Seen::cloned).ok_or(StorageError::NoVisibleVersion),
        }
    }

    fn check_active(&self) -> Result<(), EngineError> {
        if self.state == TxnState::Active {
            Ok(())
        } else {
            Err(EngineError::TxnFinished)
        }
    }

    /// Note `key` as written: the only bookkeeping a write does. Called as
    /// soon as the store or the buffer holds the new version, before any
    /// later step of the statement that can fail, so no error path leaves a
    /// dirty version behind that abort would not find.
    fn note_write(&mut self, key: Key) {
        if !self.write_set.contains(&key) {
            self.write_set.push(key);
        }
    }

    /// Record a history event; `op` is built only when history is on.
    fn record(&self, op: impl FnOnce() -> Op) {
        self.engine.history.record(self.id, self.level, op);
    }

    /// Append `record` when a log is attached and hand its LSN to `stamp`,
    /// which marks the cell the record describes.
    fn log(&self, record: impl FnOnce() -> WalRecord, stamp: impl FnOnce(Lsn)) {
        if let Some(wal) = &self.engine.wal {
            stamp(wal.append(record()));
        }
    }

    /// Surface an SSI dangerous-structure conflict: record the pivot in the
    /// history (so anomaly trails can name it) and convert to an engine
    /// error. The caller's abort path then releases the SSI record.
    fn ssi_fail(&self, e: SsiConflict) -> EngineError {
        self.record(|| Op::SsiAbort { pivot: e.pivot, key: e.key.clone() });
        EngineError::Ssi(e)
    }

    /// Register a SIREAD lock on `key()` and run rw-antidependency marking.
    /// No-op below SSI, where the key is not built either.
    fn ssi_read(&self, key: impl FnOnce() -> SsiKey) -> Result<(), EngineError> {
        if self.level.siread_locks() {
            self.engine.oracle.ssi_on_read(self.id, &[key()]).map_err(|e| self.ssi_fail(e))?;
        }
        Ok(())
    }

    /// Register SSI write intent for `keys` and run rw-antidependency
    /// marking against concurrent SIREAD holders. No-op below SSI.
    fn ssi_write(&self, keys: &[SsiKey]) -> Result<(), EngineError> {
        if self.level.siread_locks() {
            self.engine.oracle.ssi_on_write(self.id, keys).map_err(|e| self.ssi_fail(e))?;
        }
        Ok(())
    }

    /// Record the version timestamp observed by a read (RC-FCW). Using the
    /// *version's* commit timestamp — not `oracle.current_ts()` — is what
    /// makes validation race-free: a concurrent committer may already have
    /// taken a timestamp while its versions are still being installed, and
    /// a read that missed those versions must conflict with it.
    fn note_read_ts(&mut self, key: impl FnOnce() -> Key, version_ts: Ts) {
        if self.level == IsolationLevel::ReadCommittedFcw {
            self.read_ts.entry(key()).or_insert(version_ts);
        }
    }

    // ------------------------------------------------------------------
    // Conventional items
    // ------------------------------------------------------------------

    /// Read an item under this transaction's isolation discipline.
    pub fn read(&mut self, name: &str) -> Result<Value, EngineError> {
        self.check_active()?;
        let cell = self.engine.store.item(name)?;
        // Value, provenance and version timestamp come from one access of
        // the cell, made while the level's read lock (if any) is held.
        let Seen { value, source, latest_ts } =
            self.with_read_lock(|| Target::item(name), || self.item_seen(name, &cell.lock()))??;
        self.note_read_ts(|| Key::item(name), latest_ts);
        self.ssi_read(|| SsiKey::Point(Key::item(name)))?;
        self.record(|| Op::Read {
            key: Key::item(name),
            value: value.clone(),
            src: self.read_src(source),
        });
        Ok(value)
    }

    /// Write an item. All locking levels take a long X lock; SNAPSHOT
    /// buffers privately.
    pub fn write(&mut self, name: &str, value: impl Into<Value>) -> Result<(), EngineError> {
        self.write_item(name, ItemOp::Set(value.into())).map(|_| ())
    }

    /// Monotone write: store `max(current, floor)` as one atomic
    /// read-modify-write. Locking levels hold the long X lock across the
    /// implicit re-read and the store, so no other transaction's write can
    /// interleave between them — the item analogue of the in-place
    /// `UPDATE ... SET c = c + 1` discipline. SNAPSHOT maxes against the
    /// transaction's own view (buffer, else snapshot); first-committer-wins
    /// validation handles concurrent committers there.
    ///
    /// A non-integer current value is treated as absent (the floor wins).
    /// Only the write is recorded in history: the re-read happens under the
    /// X lock and is not an interference-exposed read.
    pub fn write_max(&mut self, name: &str, floor: i64) -> Result<i64, EngineError> {
        let stored = self.write_item(name, ItemOp::Max(floor))?;
        Ok(stored.as_int().expect("ItemOp::Max stores an integer"))
    }

    /// The one item-write path; returns the value stored.
    fn write_item(&mut self, name: &str, op: ItemOp) -> Result<Value, EngineError> {
        self.check_active()?;
        let value;
        if self.level.is_snapshot() {
            if !self.engine.store.has_item(name) {
                return Err(StorageError::NoSuchItem(name.to_string()).into());
            }
            value = match op {
                ItemOp::Set(v) => v,
                ItemOp::Max(_) => {
                    let cell = self.engine.store.item(name)?;
                    let current = self.item_seen(name, &cell.lock())?.value;
                    // The implicit re-read is interference-exposed at SSI
                    // (it maxes against the snapshot, not the committed
                    // state), so the read side is registered too.
                    self.ssi_read(|| SsiKey::Point(Key::item(name)))?;
                    op.apply(&current)
                }
            };
            self.ssi_write(&[SsiKey::Point(Key::item(name))])?;
            self.buf_items.insert(name.to_string(), value.clone());
        } else {
            let cell = self.engine.store.item(name)?;
            self.engine.locks.acquire(self.id, Target::item(name), Mode::X)?;
            let mut c = cell.lock();
            let before = self.item_seen(name, &c)?.value;
            value = op.apply(&before);
            c.write_dirty(self.id, value.clone())?;
            self.log(
                || WalRecord::ItemWrite {
                    txn: self.id,
                    name: name.to_string(),
                    before,
                    after: value.clone(),
                },
                |lsn| c.stamp_lsn(lsn),
            );
            drop(c);
        }
        self.note_write(Key::item(name));
        self.record(|| Op::Write { key: Key::item(name), value: Some(value.clone()) });
        Ok(value)
    }

    // ------------------------------------------------------------------
    // Relational operations
    // ------------------------------------------------------------------

    /// SELECT: rows matching `pred`, under the level's read discipline.
    pub fn select(
        &mut self,
        table: &str,
        pred: &RowPred,
    ) -> Result<Vec<(RowId, Row)>, EngineError> {
        self.check_active()?;
        let t = self.engine.store.table(table)?;
        let view = self.view();

        // SERIALIZABLE: long S predicate lock first — phantoms are blocked
        // before we even look, and whatever the access path then examines.
        if self.level.read_predicate_locks() {
            self.engine.locks.acquire(self.id, Target::pred(table, pred.clone()), Mode::S)?;
        }

        let found = if self.level.read_locks() {
            let matches = |s: &Seen<Row>| row_matches(&t.schema, &s.value, pred, &empty_env);
            let mut found = Vec::new();
            for id in t.ids_matching(view, pred) {
                // Re-read under the row lock: the row may have changed while
                // we waited. Row, provenance and version timestamp come from
                // that one stripe access, made before a short lock is
                // released: were the timestamp taken after, a writer
                // committing in between would have its timestamp recorded
                // against the old row, and an update computed from that row
                // would pass first-committer-wins validation (a lost
                // update). One access also means a lock-free SNAPSHOT
                // install cannot separate them.
                let seen =
                    self.with_read_lock(|| Target::row(table, id), || t.read_row(id, view))?;
                if let Some(seen) = seen.filter(matches) {
                    self.note_read_ts(|| Key::row(table, id), seen.latest_ts);
                    found.push((id, seen));
                }
            }
            found
        } else {
            self.overlay_scan(&t, table, pred)
        };
        // Table-granular SIREAD: covers the predicate, so a concurrent
        // writer of *any* row in this table (including phantoms) raises an
        // rw-antidependency.
        self.ssi_read(|| SsiKey::Table(table.to_string()))?;
        for (id, seen) in &found {
            self.record(|| Op::RowRead {
                table: table.to_string(),
                id: *id,
                src: self.read_src(seen.source),
            });
        }
        self.record(|| Op::PredRead {
            table: table.to_string(),
            pred: pred.clone(),
            matched: found.iter().map(|(id, _)| *id).collect(),
        });
        Ok(rows_of(found))
    }

    /// SELECT COUNT(*): number of rows matching `pred`.
    pub fn count(&mut self, table: &str, pred: &RowPred) -> Result<i64, EngineError> {
        Ok(self.select(table, pred)?.len() as i64)
    }

    /// This transaction's view of a table through `pred`, id-ascending and
    /// with no lock taken: the stored rows matching under [`Txn::view`] in
    /// slots it has not buffered a write to, plus the matching rows of its
    /// private buffer (which only a snapshot level fills).
    fn overlay_scan(&self, t: &Table, table: &str, pred: &RowPred) -> Vec<(RowId, Seen<Row>)> {
        let stored = t.rows_matching(self.view(), pred);
        let Some(buf) = self.buf_rows.get(table) else { return stored };
        let buffered = buf.iter().filter_map(|(id, state)| {
            let row = state.as_ref().filter(|row| row_matches(&t.schema, row, pred, &empty_env))?;
            Some((*id, self.buffered(row.clone())))
        });
        let mut rows: Vec<(RowId, Seen<Row>)> =
            stored.into_iter().filter(|(id, _)| !buf.contains_key(id)).chain(buffered).collect();
        rows.sort_by_key(|(id, _)| *id);
        rows
    }

    /// INSERT a row. Writers at locking levels take a long X predicate lock
    /// on the inserted point (colliding with SERIALIZABLE readers' predicate
    /// locks) plus a long X lock on the new slot.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<RowId, EngineError> {
        self.check_active()?;
        let t = self.engine.store.table(table)?;
        if row.len() != t.schema.arity() {
            return Err(StorageError::ArityMismatch {
                table: table.to_string(),
                expected: t.schema.arity(),
                got: row.len(),
            }
            .into());
        }
        let id = if self.level.is_snapshot() {
            let id = t.reserve_row_id();
            // Point + table write intent: table-granular intent is what
            // collides with SIREAD holders whose predicate the new row
            // would have matched (phantom prevention at SSI).
            self.ssi_write(&[
                SsiKey::Point(Key::row(table, id)),
                SsiKey::Table(table.to_string()),
            ])?;
            self.buf_rows.entry(table.to_string()).or_default().insert(id, Some(row.clone()));
            self.note_write(Key::row(table, id));
            id
        } else {
            let point = point_pred(&t.schema, &row);
            self.engine.locks.acquire(self.id, Target::pred(table, point), Mode::X)?;
            let id = t.insert_dirty(self.id, row.clone())?;
            // Noted before the row lock: if that acquisition fails (an
            // injected timeout — a fresh slot never conflicts naturally),
            // the abort path must still discard the dirty version.
            self.note_write(Key::row(table, id));
            self.log(
                || WalRecord::RowInsert {
                    txn: self.id,
                    table: table.to_string(),
                    id,
                    row: row.clone(),
                },
                |lsn| t.stamp_row_lsn(id, lsn),
            );
            self.engine.locks.acquire(self.id, Target::row(table, id), Mode::X)?;
            id
        };
        self.record(|| Op::RowInsert { table: table.to_string(), id, row });
        Ok(id)
    }

    /// UPDATE ... WHERE: apply `f` to every matching row. Returns the number
    /// of rows updated. Takes a long X predicate lock on `pred` plus long X
    /// row locks on the updated rows.
    pub fn update_where(
        &mut self,
        table: &str,
        pred: &RowPred,
        f: &dyn Fn(&Row) -> Row,
    ) -> Result<usize, EngineError> {
        self.modify_where(table, pred, &|row| Some(f(row)))
    }

    /// DELETE ... WHERE. Returns the number of rows deleted. Locking as for
    /// [`Txn::update_where`].
    pub fn delete_where(&mut self, table: &str, pred: &RowPred) -> Result<usize, EngineError> {
        self.modify_where(table, pred, &|_| None)
    }

    /// The one WHERE-write path: every row matching `pred` gets the slot
    /// state `new(row)` — `Some` is an update, `None` a delete. Returns the
    /// number of rows written.
    fn modify_where(
        &mut self,
        table: &str,
        pred: &RowPred,
        new: &dyn Fn(&Row) -> Option<Row>,
    ) -> Result<usize, EngineError> {
        self.check_active()?;
        let t = self.engine.store.table(table)?;
        let mut n = 0;
        if self.level.is_snapshot() {
            let targets = self.overlay_scan(&t, table, pred);
            // The WHERE scan is a predicate read; the matched slots plus the
            // table itself are the write footprint.
            self.ssi_read(|| SsiKey::Table(table.to_string()))?;
            if !targets.is_empty() {
                let mut wkeys: Vec<SsiKey> =
                    targets.iter().map(|(id, _)| SsiKey::Point(Key::row(table, *id))).collect();
                wkeys.push(SsiKey::Table(table.to_string()));
                self.ssi_write(&wkeys)?;
            }
            for (id, Seen { value: row, .. }) in targets {
                let state = new(&row);
                self.record(|| row_write_op(table, id, state.clone()));
                self.buf_rows.entry(table.to_string()).or_default().insert(id, state);
                self.note_write(Key::row(table, id));
                n += 1;
            }
        } else {
            // The predicate lock covers the region whatever rows it holds
            // now; the access path only decides which cells are examined.
            self.engine.locks.acquire(self.id, Target::pred(table, pred.clone()), Mode::X)?;
            for id in t.ids_matching(self.view(), pred) {
                self.engine.locks.acquire(self.id, Target::row(table, id), Mode::X)?;
                // Re-read after the (possibly waited-for) lock.
                let Some(Seen { value: row, .. }) = t.read_row(id, self.view()) else { continue };
                if !row_matches(&t.schema, &row, pred, &empty_env) {
                    continue;
                }
                let state = new(&row);
                match &state {
                    Some(after) => t.update_dirty(self.id, id, after.clone())?,
                    None => t.delete_dirty(self.id, id)?,
                }
                self.note_write(Key::row(table, id));
                self.log(
                    || match state.clone() {
                        Some(after) => WalRecord::RowUpdate {
                            txn: self.id,
                            table: table.to_string(),
                            id,
                            before: Some(row),
                            after,
                        },
                        None => WalRecord::RowDelete {
                            txn: self.id,
                            table: table.to_string(),
                            id,
                            before: Some(row),
                        },
                    },
                    |lsn| t.stamp_row_lsn(id, lsn),
                );
                self.record(|| row_write_op(table, id, state));
                n += 1;
            }
        }
        Ok(n)
    }

    // ------------------------------------------------------------------
    // Monitor views (lock-free, unrecorded)
    // ------------------------------------------------------------------

    /// The value this transaction *would* read for `name` right now, with
    /// no locking, no history recording, and no FCW bookkeeping — used by
    /// the runtime assertion monitor to evaluate annotations without
    /// perturbing the schedule.
    pub fn monitor_item(&self, name: &str) -> Option<Value> {
        let cell = self.engine.store.item(name).ok()?;
        let seen = self.item_seen(name, &cell.lock()).ok()?;
        Some(seen.value)
    }

    /// The rows this transaction would see in `table` right now (monitor
    /// view; see [`Txn::monitor_item`]).
    pub fn monitor_table(&self, table: &str) -> Option<Vec<(RowId, Row)>> {
        let t = self.engine.store.table(table).ok()?;
        Some(rows_of(self.overlay_scan(&t, table, &RowPred::True)))
    }

    // ------------------------------------------------------------------
    // Commit / abort
    // ------------------------------------------------------------------

    /// Commit. Consumes the handle; on a first-committer-wins conflict the
    /// transaction is rolled back and the error returned.
    pub fn commit(mut self) -> Result<Ts, EngineError> {
        self.check_active()?;
        let result = self.do_commit();
        match &result {
            Ok(_) => self.state = TxnState::Committed,
            Err(_) => self.finish_abort(),
        }
        result
    }

    fn do_commit(&self) -> Result<Ts, EngineError> {
        let (engine, id) = (&self.engine, self.id);
        // Fault injection: an artificial first-committer-wins loss at
        // validation, raised before any buffer/dirty state is consumed so
        // the caller's abort path performs the full rollback.
        if let Some(inj) = &engine.faults {
            if inj.on_commit_validate(id) {
                return Err(EngineError::Injected(semcc_faults::FaultKind::FcwConflict));
            }
        }
        // First-committer-wins checks. A snapshot level checks every key it
        // wrote, since its snapshot; RC+FCW checks the keys it also read,
        // since the version it read; the other levels recorded neither
        // timestamp and check nothing.
        let checks: Vec<(Key, Ts)> = self
            .write_set
            .iter()
            .filter_map(|k| {
                let since = self.snapshot_ts.or_else(|| self.read_ts.get(k).copied())?;
                Some((k.clone(), since))
            })
            .collect();
        let ts = if self.level.is_snapshot() {
            // WAL ordering: the install records and the Commit record are
            // appended inside the oracle's commit critical section, so no
            // other transaction's records can interleave between them —
            // recovery replays the install group atomically at the Commit.
            // Installs go in write-set order, so the log is a function of
            // the transaction and not of a hash map's iteration order.
            let install = |ts: Ts| {
                for key in &self.write_set {
                    match key {
                        Key::Item(name) => {
                            let (Some(v), Ok(cell)) =
                                (self.buf_items.get(name), engine.store.item(name))
                            else {
                                continue;
                            };
                            let mut c = cell.lock();
                            c.install(ts, v.clone());
                            self.log(
                                || WalRecord::ItemInstall {
                                    txn: id,
                                    name: name.clone(),
                                    value: v.clone(),
                                },
                                |lsn| c.stamp_lsn(lsn),
                            );
                        }
                        Key::Row(table, rid) => {
                            let (Some(state), Ok(t)) = (
                                self.buf_rows.get(table).and_then(|rows| rows.get(rid)),
                                engine.store.table(table),
                            ) else {
                                continue;
                            };
                            let _ = t.install(ts, *rid, state.clone());
                            self.log(
                                || WalRecord::RowInstall {
                                    txn: id,
                                    table: table.clone(),
                                    id: *rid,
                                    row: state.clone(),
                                },
                                |lsn| t.stamp_row_lsn(*rid, lsn),
                            );
                        }
                    }
                }
                if let Some(wal) = &engine.wal {
                    wal.append_commit(id, ts);
                }
            };
            let ts = if self.level.siread_locks() {
                // SSI: the dangerous-structure precommit check runs inside
                // the oracle's commit critical section, atomically with FCW
                // validation and timestamp assignment.
                engine
                    .oracle
                    .ssi_validate_and_commit_with(id, &checks, &self.write_set, install)
                    .map_err(|e| match e {
                        CommitConflict::Fcw(f) => EngineError::Fcw(f),
                        CommitConflict::Ssi(s) => self.ssi_fail(s),
                    })?
            } else {
                engine.oracle.validate_and_commit_with(&checks, &self.write_set, install)?
            };
            engine.oracle.end_snapshot(id);
            ts
        } else {
            // A validation failure leaves every dirty version in place for
            // the caller's abort path, which walks the same write set.
            let ts = engine.oracle.validate_and_commit_with(&checks, &self.write_set, |ts| {
                // Commit record first, inside the critical section and with
                // this transaction's X locks still held: every ItemWrite/Row*
                // record of the transaction already precedes it, and no
                // competing writer can slip a record in between.
                let commit_lsn = engine.wal.as_ref().map_or(0, |wal| wal.append_commit(id, ts));
                self.settle_dirty(Some(ts), commit_lsn);
            })?;
            engine.locks.release_all(id);
            ts
        };
        self.record(|| Op::Commit { ts });
        Ok(ts)
    }

    /// Resolve every dirty version this transaction left in the store
    /// (locking levels): promote it at `Some(commit_ts)`, discard it at
    /// `None`, and stamp the cell with the LSN of the Commit or Abort record
    /// (0 without a log; stamps only ever raise).
    fn settle_dirty(&self, commit_ts: Option<Ts>, lsn: Lsn) {
        for key in &self.write_set {
            match key {
                Key::Item(name) => {
                    let Ok(cell) = self.engine.store.item(name) else { continue };
                    let mut c = cell.lock();
                    match commit_ts {
                        Some(ts) => c.promote(self.id, ts),
                        None => drop(c.discard(self.id)),
                    }
                    c.stamp_lsn(lsn);
                }
                Key::Row(table, rid) => {
                    let Ok(t) = self.engine.store.table(table) else { continue };
                    match commit_ts {
                        Some(ts) => t.promote_row(self.id, *rid, ts),
                        None => t.discard_row(self.id, *rid),
                    }
                    t.stamp_row_lsn(*rid, lsn);
                }
            }
        }
    }

    /// Abort (rollback). Consumes the handle.
    pub fn abort(mut self) {
        if self.state == TxnState::Active {
            self.finish_abort();
        }
    }

    fn finish_abort(&mut self) {
        let engine = &self.engine;
        // Abort record before releasing any lock: until release_all below,
        // no competing writer can append a record for the items/rows this
        // transaction dirtied, so recovery sees the rollback at the same
        // log position the live engine performed it.
        let abort_lsn =
            engine.wal.as_ref().map_or(0, |wal| wal.append(WalRecord::Abort { txn: self.id }));
        if self.level.is_snapshot() {
            // Nothing reached the store, and the private buffers die with
            // the handle: every caller consumes it or is dropping it.
            engine.oracle.end_snapshot(self.id);
        } else {
            self.settle_dirty(None, abort_lsn);
        }
        engine.locks.release_all(self.id);
        if self.level.siread_locks() {
            // Aborted transactions surrender their SIREAD locks and conflict
            // flags — only *committed* readers keep them.
            engine.oracle.ssi_abort(self.id);
        }
        self.record(|| Op::Abort);
        self.state = TxnState::Aborted;
    }
}

impl Drop for Txn {
    fn drop(&mut self) {
        if self.state == TxnState::Active {
            self.finish_abort();
        }
    }
}

/// What an item write stores, given the item's current value in the
/// writer's own view.
enum ItemOp {
    /// The value itself; the current value is not read.
    Set(Value),
    /// `max(current, floor)`; a non-integer current value counts as absent.
    Max(i64),
}

impl ItemOp {
    fn apply(self, current: &Value) -> Value {
        match self {
            ItemOp::Set(v) => v,
            ItemOp::Max(floor) => Value::Int(current.as_int().map_or(floor, |c| c.max(floor))),
        }
    }
}

/// The rows of a scan, their provenance dropped.
fn rows_of(found: Vec<(RowId, Seen<Row>)>) -> Vec<(RowId, Row)> {
    found.into_iter().map(|(id, seen)| (id, seen.value)).collect()
}

/// The history event of a row write whose new slot state is `state`.
fn row_write_op(table: &str, id: RowId, state: Option<Row>) -> Op {
    let table = table.to_string();
    match state {
        Some(row) => Op::RowUpdate { table, id, row },
        None => Op::RowDelete { table, id },
    }
}

/// The point predicate of an inserted row: the conjunction of equalities
/// pinning every column to the inserted value. An insert taking an X lock
/// on this predicate collides exactly with readers whose predicate the new
/// row satisfies — literal phantom prevention.
pub fn point_pred(schema: &Schema, row: &Row) -> RowPred {
    RowPred::and(schema.columns.iter().zip(row.iter()).map(|(col, v)| match v {
        Value::Int(i) => RowPred::field_eq_int(col.clone(), *i),
        Value::Str(s) => RowPred::field_eq_str(col.clone(), s.clone()),
    }))
}
