//! Versioned relational tables.
//!
//! Rows live in slots identified by a [`RowId`]. Each slot is a [`RowCell`]:
//! a committed version chain of `Option<Row>` (where `None` records a
//! deletion, or a not-yet-committed birth) plus at most one dirty slot.
//! Inserting creates a fresh slot with a dirty birth — visible to READ
//! UNCOMMITTED scans before commit, exactly the phantom/dirty behavior the
//! paper reasons about.
//!
//! Every predicate read goes through [`Table::rows_matching`]: the filter
//! runs on the version a [`View`] selects, under the stripe lock and before
//! anything is cloned. When the predicate pins a column to a literal, each
//! stripe answers from a per-column equality index that only ever proposes
//! *candidates*: every candidate is read through the view and re-checked
//! with the whole predicate, exactly as a scanned cell is (DESIGN.md,
//! "Access path").

use crate::chain::{Commit, Seen, Versioned, View};
use crate::error::StorageError;
use crate::eval::{empty_env, row_matches};
use crate::schema::Schema;
use crate::value::Value;
use crate::wal::Lsn;
use crate::{Ts, TxnId};
use parking_lot::Mutex;
use semcc_logic::hash::{fnv1a, fnv1a_step};
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::CmpOp;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};

/// A tuple: values in schema column order.
pub type Row = Vec<Value>;

/// Stable identifier of a row slot within its table.
pub type RowId = u64;

/// A versioned row slot: `None` records a deletion, an empty chain a birth
/// that has not committed.
pub type RowCell = Versioned<Option<Row>>;

/// The row `cell` holds under `view`, if it holds one there.
fn row_under(cell: &RowCell, view: View) -> Option<Seen<&Row>> {
    let Seen { value, source, latest_ts } = cell.read(view)?;
    Some(Seen { value: value.as_ref()?, source, latest_ts })
}

/// Every row version the slot still holds: the committed chain, then the
/// dirty slot. This is what the equality indexes cover.
fn held(cell: &RowCell) -> impl Iterator<Item = &Row> {
    let committed = cell.versions().filter_map(|(_, v)| v.as_ref());
    committed.chain(cell.dirty().and_then(|(_, v)| v.as_ref()))
}

/// Whether the slot is garbage (no committed presence, no dirty).
fn is_garbage(cell: &RowCell, watermark: Ts) -> bool {
    cell.dirty().is_none()
        && cell.read(View::At(watermark)).is_none_or(|seen| seen.value.is_none())
        && cell.versions().all(|(t, v)| t <= watermark || v.is_none())
}

/// The hash a value is indexed under. Equal values hash equal; nothing
/// else is relied on, because every candidate is re-checked.
fn index_hash(v: &Value) -> u64 {
    match v {
        Value::Int(i) => hash_int(*i),
        Value::Str(s) => hash_str(s),
    }
}

fn hash_int(i: i64) -> u64 {
    fnv1a_step(fnv1a(b"i"), &i.to_le_bytes())
}

fn hash_str(s: &str) -> u64 {
    fnv1a_step(fnv1a(b"s"), s.as_bytes())
}

/// The equality index of one column within one stripe: `(hash(v), id)` is
/// present iff some version slot `id` still holds has `v` in the column.
#[derive(Debug)]
struct ColumnIndex {
    column: usize,
    entries: BTreeSet<(u64, RowId)>,
}

impl ColumnIndex {
    /// The index of `column` over every version in `cells`.
    fn build(column: usize, cells: &BTreeMap<RowId, RowCell>) -> Self {
        let entries = cells
            .iter()
            .flat_map(|(id, cell)| held(cell).map(move |row| (index_hash(&row[column]), *id)))
            .collect();
        ColumnIndex { column, entries }
    }
}

/// Slot `id` now holds `row`.
fn index_row(indexes: &mut [ColumnIndex], id: RowId, row: &Row) {
    for ix in indexes {
        ix.entries.insert((index_hash(&row[ix.column]), id));
    }
}

/// Slot `id` dropped the version `gone`; `cell` is what it still holds.
/// An entry stays while another held version carries the same hash.
fn unindex_row(indexes: &mut [ColumnIndex], id: RowId, gone: &Row, cell: Option<&RowCell>) {
    for ix in indexes {
        let hash = index_hash(&gone[ix.column]);
        let still_held =
            cell.is_some_and(|c| held(c).any(|row| index_hash(&row[ix.column]) == hash));
        if !still_held {
            ix.entries.remove(&(hash, id));
        }
    }
}

/// One stripe of the row map, with the equality indexes built over it so
/// far. Both live under the stripe's one mutex, so an index is never out
/// of step with the cells a reader sees.
#[derive(Debug, Default)]
struct Stripe {
    cells: BTreeMap<RowId, RowCell>,
    indexes: Vec<ColumnIndex>,
}

impl Stripe {
    /// Put `cell` into slot `id`, replacing whatever was there.
    fn put(&mut self, id: RowId, cell: RowCell) {
        for row in held(&cell) {
            index_row(&mut self.indexes, id, row);
        }
        if let Some(old) = self.cells.insert(id, cell) {
            for row in held(&old) {
                unindex_row(&mut self.indexes, id, row, self.cells.get(&id));
            }
        }
    }

    /// Write slot `id`'s dirty version for `txn`.
    fn write_dirty(&mut self, txn: TxnId, id: RowId, v: Option<Row>) -> Result<(), StorageError> {
        let cell = self.cells.get_mut(&id).ok_or(StorageError::NoVisibleVersion)?;
        let displaced = cell.write_dirty(txn, v)?;
        if let Some((_, Some(row))) = cell.dirty() {
            index_row(&mut self.indexes, id, row);
        }
        if let Some(old) = displaced.flatten() {
            unindex_row(&mut self.indexes, id, &old, Some(cell));
        }
        Ok(())
    }

    /// Slot `id` was trimmed to `watermark`, dropping the rows in `gone`:
    /// remove the slot if that left it garbage, and unindex what it no
    /// longer holds.
    fn settle(&mut self, id: RowId, watermark: Ts, gone: Vec<Row>) {
        let Stripe { cells, indexes } = self;
        if cells.get(&id).is_some_and(|cell| is_garbage(cell, watermark)) {
            // Trimmed and garbage, the slot holds deletions only, which no
            // index covers.
            cells.remove(&id);
        }
        for row in gone {
            unindex_row(indexes, id, &row, cells.get(&id));
        }
    }
}

/// The slots that may hold `hash` in `column`, ascending; builds the
/// column's index over `cells` on first use.
fn candidates<'a>(
    indexes: &'a mut Vec<ColumnIndex>,
    cells: &BTreeMap<RowId, RowCell>,
    column: usize,
    hash: u64,
) -> impl Iterator<Item = RowId> + 'a {
    let at = match indexes.iter().position(|ix| ix.column == column) {
        Some(at) => at,
        None => {
            indexes.push(ColumnIndex::build(column, cells));
            indexes.len() - 1
        }
    };
    indexes[at].entries.range((hash, RowId::MIN)..=(hash, RowId::MAX)).map(|(_, id)| *id)
}

/// The first top-level conjunct of `pred` that pins a column to a literal,
/// as `(column, hash of the literal)`. A row can only match `pred` if it
/// holds that literal in that column.
fn equality_probe(schema: &Schema, pred: &RowPred) -> Option<(usize, u64)> {
    let conjuncts = match pred {
        RowPred::And(ps) => ps.as_slice(),
        single => std::slice::from_ref(single),
    };
    conjuncts.iter().find_map(|p| {
        let RowPred::Cmp(CmpOp::Eq, a, b) = p else { return None };
        let (column, literal) = match (a, b) {
            (RowExpr::Field(c), lit) | (lit, RowExpr::Field(c)) => (c, lit),
            _ => return None,
        };
        let hash = match literal {
            RowExpr::Int(i) => hash_int(*i),
            RowExpr::Str(s) => hash_str(s),
            _ => return None,
        };
        Some((schema.columns.iter().position(|c| c == column)?, hash))
    })
}

/// A relational table.
///
/// The row map is split into stripes keyed by `row-id mod stripes` (ids
/// are allocated sequentially, so consecutive inserts round-robin across
/// stripes). Each slot-addressed operation locks only its stripe; scans
/// visit stripes in order and re-sort by id, preserving the id-ascending
/// result order of the historical single-map layout.
#[derive(Debug)]
pub struct Table {
    /// The table's schema.
    pub schema: Schema,
    stripes: Vec<Mutex<Stripe>>,
    next_row: AtomicU64,
    /// Cells [`Table::rows_matching`] has read so far.
    examined: AtomicU64,
}

impl Table {
    /// An empty table with the given schema and a single stripe (the
    /// historical layout).
    pub fn new(schema: Schema) -> Self {
        Table::with_stripes(schema, 1)
    }

    /// An empty table whose row map is split into `n` stripes (clamped to
    /// ≥ 1).
    pub fn with_stripes(schema: Schema, n: usize) -> Self {
        let n = n.max(1);
        Table {
            schema,
            stripes: (0..n).map(|_| Mutex::new(Stripe::default())).collect(),
            next_row: AtomicU64::new(1),
            examined: AtomicU64::new(0),
        }
    }

    fn stripe(&self, id: RowId) -> &Mutex<Stripe> {
        &self.stripes[(id % self.stripes.len() as u64) as usize]
    }

    /// Let `visit` append `(id, _)` pairs from every stripe in turn, then
    /// sort by id — the scan order the single-map layout produced for free.
    fn collect_rows<T>(
        &self,
        mut visit: impl FnMut(&mut Stripe, &mut Vec<(RowId, T)>),
    ) -> Vec<(RowId, T)> {
        let mut out = Vec::new();
        for stripe in &self.stripes {
            visit(&mut stripe.lock(), &mut out);
        }
        if self.stripes.len() > 1 {
            out.sort_by_key(|(id, _)| *id);
        }
        out
    }

    /// The one walk for a predicate: `keep(seen)` for every slot whose row
    /// under `view` matches `pred`, id-ascending. Stripe by stripe, under
    /// the stripe lock, it examines either every cell or, when `pred` pins
    /// a column to a literal, the cells the column's index proposes.
    fn matching<T>(
        &self,
        view: View,
        pred: &RowPred,
        keep: impl Fn(Seen<&Row>) -> T,
    ) -> Vec<(RowId, T)> {
        let probe = equality_probe(&self.schema, pred);
        self.collect_rows(|stripe, out| {
            let mut examined = 0;
            let mut examine = |id: RowId, cell: &RowCell| {
                examined += 1;
                if let Some(seen) = row_under(cell, view) {
                    if row_matches(&self.schema, seen.value, pred, &empty_env) {
                        out.push((id, keep(seen)));
                    }
                }
            };
            match probe {
                Some((column, hash)) => {
                    let Stripe { cells, indexes } = stripe;
                    for id in candidates(indexes, cells, column, hash) {
                        if let Some(cell) = cells.get(&id) {
                            examine(id, cell);
                        }
                    }
                }
                None => stripe.cells.iter().for_each(|(id, cell)| examine(*id, cell)),
            }
            self.examined.fetch_add(examined, Ordering::Relaxed);
        })
    }

    /// Rows whose state under `view` matches `pred`, id-ascending, each with
    /// the version that supplied it. What is returned is exactly the scan
    /// under `view` filtered by `row_matches`.
    pub fn rows_matching(&self, view: View, pred: &RowPred) -> Vec<(RowId, Seen<Row>)> {
        self.matching(view, pred, |seen| seen.cloned())
    }

    /// Slot `id`'s row under `view`, the version that supplied it and the
    /// slot's latest commit timestamp, all from one access under the stripe
    /// lock, so no install can separate them. `None` where the view sees no
    /// row: a missing slot, a deletion, another writer's uncommitted birth.
    pub fn read_row(&self, id: RowId, view: View) -> Option<Seen<Row>> {
        self.stripe(id).lock().cells.get(&id).and_then(|c| row_under(c, view)).map(Seen::cloned)
    }

    /// The ids of [`Table::rows_matching`], for callers that lock each slot
    /// and read it again.
    pub fn ids_matching(&self, view: View, pred: &RowPred) -> Vec<RowId> {
        self.matching(view, pred, |_| ()).into_iter().map(|(id, ())| id).collect()
    }

    /// Cells [`Table::rows_matching`] and [`Table::ids_matching`] have read
    /// since the table was created: rows visited per relational statement,
    /// as a difference of two readings.
    pub fn rows_examined(&self) -> u64 {
        self.examined.load(Ordering::Relaxed)
    }

    /// Names of the columns an equality index has been built for, in
    /// schema order.
    pub fn indexed_columns(&self) -> Vec<&str> {
        let mut columns = BTreeSet::new();
        for stripe in &self.stripes {
            columns.extend(stripe.lock().indexes.iter().map(|ix| ix.column));
        }
        columns.into_iter().map(|c| self.schema.columns[c].as_str()).collect()
    }

    /// Audit: every built index equals the index rebuilt from its stripe's
    /// cells. Returns one line per index that does not.
    pub fn index_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        for (n, stripe) in self.stripes.iter().enumerate() {
            let stripe = stripe.lock();
            for ix in &stripe.indexes {
                let rebuilt = ColumnIndex::build(ix.column, &stripe.cells);
                if rebuilt.entries != ix.entries {
                    out.push(format!(
                        "{}.{} stripe {n}: index holds {} entries, its cells {}",
                        self.schema.name,
                        self.schema.columns[ix.column],
                        ix.entries.len(),
                        rebuilt.entries.len()
                    ));
                }
            }
        }
        out
    }

    fn check_arity(&self, row: &Row) -> Result<(), StorageError> {
        if row.len() != self.schema.arity() {
            return Err(StorageError::ArityMismatch {
                table: self.schema.name.clone(),
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        Ok(())
    }

    /// Insert a committed row directly at timestamp `ts` (bulk loading).
    pub fn load_row(&self, ts: Ts, row: Row) -> Result<RowId, StorageError> {
        let id = self.next_row.fetch_add(1, Ordering::Relaxed);
        self.load_row_at(id, ts, row)?;
        Ok(id)
    }

    /// Bulk-load a committed row into a *specific* slot (recovery replay
    /// of a logged `LoadRow`). Bumps the allocator past `id`.
    pub fn load_row_at(&self, id: RowId, ts: Ts, row: Row) -> Result<(), StorageError> {
        self.check_arity(&row)?;
        self.next_row.fetch_max(id + 1, Ordering::Relaxed);
        let mut cell = RowCell::default();
        cell.install(ts, Some(row));
        self.stripe(id).lock().put(id, cell);
        Ok(())
    }

    /// Insert an uncommitted row (dirty birth) for `txn`.
    pub fn insert_dirty(&self, txn: TxnId, row: Row) -> Result<RowId, StorageError> {
        let id = self.next_row.fetch_add(1, Ordering::Relaxed);
        self.insert_dirty_at(txn, id, row)?;
        Ok(id)
    }

    /// Insert an uncommitted row into a *specific* slot (recovery replay
    /// of a logged `RowInsert`). Bumps the allocator past `id`.
    pub fn insert_dirty_at(&self, txn: TxnId, id: RowId, row: Row) -> Result<(), StorageError> {
        self.check_arity(&row)?;
        self.next_row.fetch_max(id + 1, Ordering::Relaxed);
        let mut cell = RowCell::default();
        cell.write_dirty(txn, Some(row))?;
        self.stripe(id).lock().put(id, cell);
        Ok(())
    }

    /// Stamp slot `id` with the LSN of the WAL record describing the
    /// mutation just performed. No-op on a missing slot.
    pub fn stamp_row_lsn(&self, id: RowId, lsn: Lsn) {
        if let Some(cell) = self.stripe(id).lock().cells.get_mut(&id) {
            cell.stamp_lsn(lsn);
        }
    }

    /// LSN stamped on slot `id`, if the slot exists.
    pub fn row_lsn(&self, id: RowId) -> Option<Lsn> {
        self.stripe(id).lock().cells.get(&id).map(RowCell::lsn)
    }

    /// Replace the row in slot `id` with a dirty version for `txn`.
    pub fn update_dirty(&self, txn: TxnId, id: RowId, row: Row) -> Result<(), StorageError> {
        self.check_arity(&row)?;
        self.stripe(id).lock().write_dirty(txn, id, Some(row))
    }

    /// Mark slot `id` dirty-deleted for `txn`.
    pub fn delete_dirty(&self, txn: TxnId, id: RowId) -> Result<(), StorageError> {
        self.stripe(id).lock().write_dirty(txn, id, None)
    }

    /// Install a committed version of slot `id` directly (SNAPSHOT commit),
    /// trimming the slot to the watermark. `None` commits a delete. A
    /// missing slot is created (snapshot insert); a slot left holding
    /// nothing any reader can see is removed.
    pub fn install(
        &self,
        at: impl Into<Commit>,
        id: RowId,
        row: Option<Row>,
    ) -> Result<(), StorageError> {
        if let Some(r) = &row {
            self.check_arity(r)?;
        }
        let at = at.into();
        let mut stripe = self.stripe(id).lock();
        if let Some(r) = &row {
            index_row(&mut stripe.indexes, id, r);
        }
        let mut gone = Vec::new();
        stripe.cells.entry(id).or_default().install_with(at, row, |v| gone.extend(v));
        stripe.settle(id, at.watermark, gone);
        Ok(())
    }

    /// Allocate a fresh slot id without inserting (SNAPSHOT insert buffering).
    pub fn reserve_row_id(&self) -> RowId {
        self.next_row.fetch_add(1, Ordering::Relaxed)
    }

    /// Promote `txn`'s dirty changes on `id` (commit), trimming as
    /// [`Table::install`] does. No-op unless `txn` holds the dirty version.
    pub fn promote_row(&self, txn: TxnId, id: RowId, at: impl Into<Commit>) {
        let at = at.into();
        let mut stripe = self.stripe(id).lock();
        let Some(cell) = stripe.cells.get_mut(&id) else { return };
        // The dirty row stays held as a committed one: its index entries stay.
        let Some(value) = cell.discard(txn) else { return };
        let mut gone = Vec::new();
        cell.install_with(at, value, |v| gone.extend(v));
        stripe.settle(id, at.watermark, gone);
    }

    /// Discard `txn`'s dirty changes on `id` (abort).
    pub fn discard_row(&self, txn: TxnId, id: RowId) {
        let mut stripe = self.stripe(id).lock();
        let Stripe { cells, indexes } = &mut *stripe;
        let Some(cell) = cells.get_mut(&id) else { return };
        let displaced = cell.discard(txn);
        // A slot left holding no version at all (a birth that never
        // committed) is dropped eagerly.
        if cell.read(View::Latest).is_none() {
            cells.remove(&id);
        }
        if let Some(old) = displaced.flatten() {
            unindex_row(indexes, id, &old, cells.get(&id));
        }
    }

    /// Scan newest committed rows.
    pub fn scan_committed(&self) -> Vec<(RowId, Row)> {
        self.matching(View::Committed, &RowPred::True, |seen| seen.value.clone())
    }

    /// Scan rows as transaction `txn` sees them under a locking level:
    /// its own dirty changes overlay the newest committed state; other
    /// transactions' dirty changes are invisible.
    pub fn scan_visible(&self, txn: TxnId) -> Vec<(RowId, Row)> {
        self.matching(View::Visible(txn), &RowPred::True, |seen| seen.value.clone())
    }

    /// Every row slot with an uncommitted version, with its writer
    /// (post-abort auditing: an aborted writer must own none).
    pub fn dirty_rows(&self) -> Vec<(RowId, TxnId)> {
        self.collect_rows(|stripe, out| {
            out.extend(stripe.cells.iter().filter_map(|(id, c)| Some((*id, c.dirty()?.0))));
        })
    }

    /// Number of live (committed-visible) rows — for tests and metrics.
    pub fn committed_len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| {
                s.lock().cells.values().filter(|c| row_under(c, View::Committed).is_some()).count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chain::Source;

    fn orders() -> Table {
        Table::new(Schema::new("orders", &["order_info", "cust", "date", "done"], &["order_info"]))
    }

    fn row(info: i64, cust: &str, date: i64, done: bool) -> Row {
        vec![Value::Int(info), Value::str(cust), Value::Int(date), Value::bool(done)]
    }

    /// How many rows `view` sees in `t`.
    fn scan_len(t: &Table, view: View) -> usize {
        t.rows_matching(view, &RowPred::True).len()
    }

    /// The row `view` sees in slot `id`.
    fn row_at(t: &Table, id: RowId, view: View) -> Option<Row> {
        t.read_row(id, view).map(|seen| seen.value)
    }

    #[test]
    fn dirty_insert_visible_only_to_latest() {
        let t = orders();
        t.insert_dirty(1, row(1, "a", 10, false)).expect("insert");
        assert_eq!(scan_len(&t, View::Latest), 1);
        assert_eq!(t.scan_committed().len(), 0);
        assert_eq!(scan_len(&t, View::At(100)), 0);
    }

    #[test]
    fn promote_makes_row_committed() {
        let t = orders();
        let id = t.insert_dirty(1, row(1, "a", 10, false)).expect("insert");
        t.promote_row(1, id, 5);
        assert_eq!(t.scan_committed().len(), 1);
        assert_eq!(scan_len(&t, View::At(4)), 0);
        assert_eq!(scan_len(&t, View::At(5)), 1);
    }

    #[test]
    fn abort_insert_removes_slot() {
        let t = orders();
        let id = t.insert_dirty(1, row(1, "a", 10, false)).expect("insert");
        t.discard_row(1, id);
        assert_eq!(scan_len(&t, View::Latest), 0);
        assert_eq!(t.committed_len(), 0);
    }

    #[test]
    fn dirty_update_and_delete_rollback() {
        let t = orders();
        let id = t.load_row(1, row(1, "a", 10, false)).expect("load");
        t.update_dirty(2, id, row(1, "a", 10, true)).expect("update");
        assert!(row_at(&t, id, View::Latest).expect("present")[3].is_truthy());
        assert!(!row_at(&t, id, View::Committed).expect("present")[3].is_truthy());
        t.discard_row(2, id);
        assert!(!row_at(&t, id, View::Latest).expect("present")[3].is_truthy());

        t.delete_dirty(3, id).expect("delete");
        assert!(row_at(&t, id, View::Latest).is_none());
        t.discard_row(3, id);
        assert!(row_at(&t, id, View::Latest).is_some());
    }

    #[test]
    fn committed_delete_hides_row() {
        let t = orders();
        let id = t.load_row(1, row(1, "a", 10, false)).expect("load");
        t.delete_dirty(2, id).expect("delete");
        t.promote_row(2, id, Commit { ts: 7, watermark: 6 });
        assert_eq!(t.scan_committed().len(), 0);
        assert_eq!(scan_len(&t, View::At(6)), 1, "old snapshot still sees the row");
    }

    #[test]
    fn arity_enforced() {
        let t = orders();
        assert!(matches!(
            t.insert_dirty(1, vec![Value::Int(1)]),
            Err(StorageError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn second_dirty_writer_rejected() {
        let t = orders();
        let id = t.load_row(1, row(1, "a", 10, false)).expect("load");
        t.update_dirty(2, id, row(1, "a", 10, true)).expect("update");
        assert!(matches!(
            t.delete_dirty(3, id),
            Err(StorageError::DirtyConflict { holder: 2, writer: 3 })
        ));
    }

    #[test]
    fn snapshot_install_insert_and_delete() {
        let t = orders();
        let id = t.reserve_row_id();
        t.install(9, id, Some(row(2, "b", 11, false))).expect("install");
        assert_eq!(scan_len(&t, View::At(9)), 1);
        assert_eq!(scan_len(&t, View::At(8)), 0);
        t.install(12, id, None).expect("install delete");
        assert_eq!(t.scan_committed().len(), 0);
    }

    #[test]
    fn at_slot_inserts_bump_allocator_and_stamp_lsns() {
        let t = orders();
        t.load_row_at(7, 1, row(1, "a", 10, false)).expect("load at");
        t.insert_dirty_at(2, 9, row(2, "b", 11, false)).expect("insert at");
        t.stamp_row_lsn(9, 42);
        t.stamp_row_lsn(9, 5); // older stamp must not regress
        assert_eq!(t.row_lsn(9), Some(42));
        assert_eq!(t.row_lsn(7), Some(0));
        // fresh allocation must not collide with the replayed ids
        let id = t.insert_dirty(3, row(3, "c", 12, false)).expect("insert");
        assert_eq!(id, 10);
    }

    #[test]
    fn striped_table_scans_stay_id_ordered() {
        let t = Table::with_stripes(
            Schema::new("orders", &["order_info", "cust", "date", "done"], &["order_info"]),
            4,
        );
        for i in 0..16 {
            t.load_row(1, row(i, "c", i, false)).expect("load");
        }
        let ids: Vec<RowId> = t.scan_committed().iter().map(|(id, _)| *id).collect();
        assert_eq!(ids, (1..=16).collect::<Vec<_>>(), "merge across stripes is id-ascending");
        assert_eq!(t.committed_len(), 16);
        t.update_dirty(9, 3, row(3, "c", 3, true)).expect("update");
        assert_eq!(t.dirty_rows(), vec![(3, 9)]);
        t.discard_row(9, 3);
        assert_eq!(t.committed_len(), 16, "a discarded update leaves the row live");
    }

    #[test]
    fn visible_row_and_commit_ts_come_from_one_read() {
        let t = orders();
        let seen = |value: Row, source, latest_ts| Some(Seen { value, source, latest_ts });
        let (old, new) = (row(1, "a", 10, false), row(1, "a", 10, true));
        let id = t.load_row(3, old.clone()).expect("load");
        t.install(Commit { ts: 5, watermark: 3 }, id, Some(old.clone())).expect("second version");
        assert_eq!(t.read_row(id, View::Visible(7)), seen(old.clone(), Source::Committed(5), 5));

        // A committed version plus transaction 7's dirty one. The writer and
        // READ UNCOMMITTED see the dirty version, named as such; everyone
        // else the committed row; a snapshot the version it is entitled to.
        // All of them get the slot's latest commit timestamp.
        t.update_dirty(7, id, new.clone()).expect("update");
        assert_eq!(t.read_row(id, View::Latest), seen(new.clone(), Source::Dirty(7), 5));
        assert_eq!(t.read_row(id, View::Visible(7)), seen(new.clone(), Source::Dirty(7), 5));
        assert_eq!(t.read_row(id, View::Visible(8)), seen(old.clone(), Source::Committed(5), 5));
        assert_eq!(t.read_row(id, View::Committed), seen(old.clone(), Source::Committed(5), 5));
        assert_eq!(t.read_row(id, View::At(4)), seen(old.clone(), Source::Committed(3), 5));
        assert_eq!(t.read_row(id, View::At(2)), None, "not yet loaded");
        let scanned = t.rows_matching(View::Latest, &RowPred::True);
        assert_eq!(
            scanned,
            vec![(id, Seen { value: new, source: Source::Dirty(7), latest_ts: 5 })]
        );

        // A dirty birth has no committed timestamp and no foreign reader.
        let born = t.insert_dirty(7, row(2, "b", 11, false)).expect("insert");
        let birth = seen(row(2, "b", 11, false), Source::Dirty(7), 0);
        assert_eq!(t.read_row(born, View::Latest), birth);
        assert_eq!(t.read_row(born, View::Visible(7)), birth);
        for view in [View::Visible(8), View::Committed, View::At(9)] {
            assert_eq!(t.read_row(born, view), None, "{view:?} of a dirty birth");
        }
        for view in [View::Latest, View::Visible(7), View::Committed, View::At(9)] {
            assert_eq!(t.read_row(99, view), None, "{view:?} of a missing slot");
        }
    }

    #[test]
    fn equality_lookup_examines_candidates_and_returns_what_the_scan_returns() {
        for stripes in [1, 4] {
            let t = Table::with_stripes(orders().schema, stripes);
            for i in 0..40 {
                t.load_row(1, row(i, if i % 4 == 0 { "a" } else { "b" }, i % 5, false))
                    .expect("load");
            }
            let by_cust = RowPred::field_eq_str("cust", "a");
            let both = RowPred::and([RowPred::field_eq_int("done", 0), by_cust.clone()]);
            let scan = |p: &RowPred| -> Vec<(RowId, Row)> {
                let all = t.scan_committed().into_iter();
                all.filter(|(_, r)| row_matches(&t.schema, r, p, &empty_env)).collect()
            };
            let (want_both, want_cust) = (scan(&both), scan(&by_cust));
            let rows_matching = |p: &RowPred| -> Vec<(RowId, Row)> {
                let found = t.rows_matching(View::Committed, p).into_iter();
                found.map(|(id, seen)| (id, seen.value)).collect()
            };
            let cold = t.rows_examined();
            assert_eq!(rows_matching(&both), want_both);
            assert_eq!(t.rows_examined() - cold, 40, "first conjunct is `done`: all forty hold 0");
            let warm = t.rows_examined();
            assert_eq!(rows_matching(&by_cust), want_cust);
            assert_eq!(t.rows_examined() - warm, 10, "ten rows hold `a`");
            assert_eq!(t.indexed_columns(), vec!["cust", "done"]);

            // A row that moves out of `a` stays a candidate while an old
            // version holds `a`, and is never returned for it.
            t.update_dirty(9, 1, row(0, "c", 0, false)).expect("update");
            assert_eq!(t.ids_matching(View::Latest, &by_cust).len(), 9);
            assert_eq!(t.ids_matching(View::Committed, &by_cust).len(), 10);
            t.promote_row(9, 1, Commit { ts: 5, watermark: 5 });
            let before = t.rows_examined();
            assert_eq!(t.ids_matching(View::Committed, &by_cust).len(), 9);
            let dropped = "the commit trimmed the last version holding `a`";
            assert_eq!(t.rows_examined() - before, 9, "{dropped}");
            assert_eq!(t.index_violations(), Vec::<String>::new());
        }
    }

    #[test]
    fn dead_slots_go_at_the_commit_unless_a_snapshot_pins_them() {
        // Under a snapshot at 1 the deleted slot keeps its old versions.
        let t = orders();
        let id = t.load_row(1, row(1, "a", 10, false)).expect("load");
        t.update_dirty(2, id, row(1, "a", 10, true)).expect("update");
        t.promote_row(2, id, Commit { ts: 5, watermark: 1 });
        t.delete_dirty(3, id).expect("delete");
        t.promote_row(3, id, Commit { ts: 8, watermark: 1 });
        assert_eq!(scan_len(&t, View::Latest), 0);
        assert!(row_at(&t, id, View::At(5)).is_some(), "the snapshot pins the slot");

        // With no snapshot open the deletion's own commit drops the slot,
        // whether promoted or installed.
        let ids = [t.load_row(1, row(2, "b", 10, false)), t.load_row(1, row(3, "c", 10, false))];
        let [promoted, installed] = ids.map(|id| id.expect("load"));
        assert_eq!(t.ids_matching(View::Committed, &RowPred::field_eq_str("cust", "b")).len(), 1);
        t.delete_dirty(4, promoted).expect("delete");
        t.promote_row(4, promoted, 9);
        t.install(10, installed, None).expect("install delete");
        assert_eq!((t.row_lsn(promoted), t.row_lsn(installed)), (None, None));
        assert_eq!(t.index_violations(), Vec::<String>::new());
    }
}
