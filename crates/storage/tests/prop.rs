//! Model-based randomized tests for the versioned storage layer: an
//! [`ItemCell`]/[`Table`] driven by a random operation sequence must agree
//! with a trivial reference model at every step, neither the trim every
//! install and promote makes nor the sweep may change what a live snapshot
//! can read, and a table's access path (`rows_matching`, with its equality
//! indexes) must return exactly what a scan filtered by `row_matches`
//! returns.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::CmpOp;
use semcc_storage::eval::{empty_env, row_matches};
use semcc_storage::{Commit, ItemCell, Row, RowId, Schema, Seen, Source, Table, Value, View};
use std::collections::BTreeMap;

/// The trim rule, on a model chain: keep the newest version at or below
/// `watermark` and everything newer.
fn trim<V>(chain: &mut Vec<(u64, V)>, watermark: u64) {
    let keep_from = chain.iter().rposition(|(ts, _)| *ts <= watermark).unwrap_or(0);
    chain.drain(..keep_from);
}

/// `pin` picks which of `committed`'s versions the oldest open snapshot
/// reads, or none open (the watermark is then `next_ts`, the commit's own
/// timestamp); watermarks never fall below `floor`.
fn pick_watermark<V>(pin: u8, committed: &[(u64, V)], next_ts: u64, floor: u64) -> u64 {
    committed.get(usize::from(pin)).map_or(next_ts, |(ts, _)| *ts).max(floor)
}

#[derive(Clone, Debug)]
enum ItemOp {
    WriteDirty { txn: u8, v: i64 },
    Promote { txn: u8, pin: u8 },
    Discard { txn: u8 },
    Install { v: i64, pin: u8 },
    Gc { pin: u8 },
}

fn gen_item_op(rng: &mut StdRng) -> ItemOp {
    match rng.gen_range(0..5) {
        0 => ItemOp::WriteDirty { txn: rng.gen_range(0..3), v: rng.gen_range(-100..100) },
        1 => ItemOp::Promote { txn: rng.gen_range(0..3), pin: rng.gen_range(0..8) },
        2 => ItemOp::Discard { txn: rng.gen_range(0..3) },
        3 => ItemOp::Install { v: rng.gen_range(-100..100), pin: rng.gen_range(0..8) },
        _ => ItemOp::Gc { pin: rng.gen_range(0..8) },
    }
}

#[test]
fn item_cell_agrees_with_model() {
    let mut rng = StdRng::seed_from_u64(0x5701);
    for case in 0..512 {
        let n_ops = rng.gen_range(1..40);
        let ops: Vec<ItemOp> = (0..n_ops).map(|_| gen_item_op(&mut rng)).collect();

        let mut cell = ItemCell::new(Value::Int(0));
        // model: committed versions (ts, value) the chain holds, every
        // version ever committed, and the dirty slot
        let mut committed: Vec<(u64, i64)> = vec![(0, 0)];
        let mut history = committed.clone();
        let mut dirty: Option<(u8, i64)> = None;
        let mut next_ts = 1u64;
        // The oldest open snapshot: every read at or after it must survive.
        let mut watermark = 0u64;

        for op in ops {
            match op {
                ItemOp::WriteDirty { txn, v } => {
                    let r = cell.write_dirty(txn as u64, Value::Int(v));
                    match &dirty {
                        Some((holder, _)) if *holder != txn => {
                            assert!(r.is_err(), "case {case}")
                        }
                        _ => {
                            assert!(r.is_ok(), "case {case}");
                            dirty = Some((txn, v));
                        }
                    }
                }
                ItemOp::Promote { txn, pin } => {
                    watermark = pick_watermark(pin, &committed, next_ts, watermark);
                    cell.promote(txn as u64, Commit { ts: next_ts, watermark });
                    if let Some((holder, v)) = dirty {
                        if holder == txn {
                            committed.push((next_ts, v));
                            history.push((next_ts, v));
                            trim(&mut committed, watermark);
                            dirty = None;
                            next_ts += 1;
                        }
                    }
                }
                ItemOp::Discard { txn } => {
                    cell.discard(txn as u64);
                    if matches!(dirty, Some((holder, _)) if holder == txn) {
                        dirty = None;
                    }
                }
                ItemOp::Install { v, pin } => {
                    watermark = pick_watermark(pin, &committed, next_ts, watermark);
                    cell.install(Commit { ts: next_ts, watermark }, Value::Int(v));
                    committed.push((next_ts, v));
                    history.push((next_ts, v));
                    trim(&mut committed, watermark);
                    next_ts += 1;
                }
                ItemOp::Gc { pin } => {
                    watermark = pick_watermark(pin, &committed, next_ts - 1, watermark);
                    cell.trim(watermark);
                    trim(&mut committed, watermark);
                }
            }
            // Invariants after every step: under every view, the one read
            // gives the model's value, names the version that supplied it
            // and carries the newest commit timestamp.
            let &(latest_ts, model_latest_committed) = committed.last().expect("never empty");
            assert_eq!(cell.read_committed(), &Value::Int(model_latest_committed), "case {case}");
            assert_eq!(cell.latest_commit_ts(), latest_ts, "case {case}");
            let check = |view: View, v: i64, source: Source| {
                let want = Seen { value: Value::Int(v), source, latest_ts };
                assert_eq!(cell.read(view).map(Seen::cloned), Some(want), "case {case}: {view:?}");
            };
            let newest = (model_latest_committed, Source::Committed(latest_ts));
            let dirty_of = |txn: u8| dirty.filter(|(holder, _)| *holder == txn);
            let (v, source) = dirty.map_or(newest, |(w, v)| (v, Source::Dirty(u64::from(w))));
            check(View::Latest, v, source);
            check(View::Committed, newest.0, newest.1);
            for txn in 0..3 {
                let own = dirty_of(txn).map(|(_, v)| (v, Source::Dirty(u64::from(txn))));
                let (v, source) = own.unwrap_or(newest);
                check(View::Visible(u64::from(txn)), v, source);
            }
            // Snapshot reads at every surviving version boundary agree, and
            // every snapshot still open reads what it read when it began.
            for (ts, v) in &committed {
                check(View::At(*ts), *v, Source::Committed(*ts));
            }
            for at in watermark..next_ts {
                let (ts, v) = history.iter().rev().find(|(ts, _)| *ts <= at).expect("initial");
                check(View::At(at), *v, Source::Committed(*ts));
            }
            assert_eq!(cell.versions().count(), committed.len(), "case {case}");
        }
    }
}

/// A model row: `(k, name, v)`. `k` and `name` are the columns the
/// predicates below look up by, over domains small enough to collide.
type MRow = (i64, &'static str, i64);

#[derive(Clone, Debug)]
enum TableOp {
    InsertDirty {
        txn: u8,
        row: MRow,
    },
    /// Replace slot `pick`'s row, indexed columns included.
    UpdateDirty {
        txn: u8,
        pick: usize,
        row: MRow,
    },
    DeleteDirty {
        txn: u8,
        pick: usize,
    },
    /// Commit `txn`'s dirty versions, trimming to `back` below the commit's
    /// timestamp (0: no snapshot open).
    PromoteAll {
        txn: u8,
        back: u64,
    },
    /// Also how a never-committed birth is discarded.
    DiscardAll {
        txn: u8,
    },
    /// Install a committed version (`None` = delete) into slot `pick`, or
    /// into a freshly reserved slot when `fresh`, trimming as `PromoteAll`.
    Install {
        fresh: bool,
        pick: usize,
        row: Option<MRow>,
        back: u64,
    },
}

fn gen_row(rng: &mut StdRng) -> MRow {
    (rng.gen_range(0..4), ["a", "b", "c"][rng.gen_range(0..3)], rng.gen_range(0..100))
}

fn gen_table_op(rng: &mut StdRng) -> TableOp {
    let txn = rng.gen_range(0..3);
    let pick = rng.gen_range(0..64);
    match rng.gen_range(0..9) {
        0 | 1 => TableOp::InsertDirty { txn, row: gen_row(rng) },
        2 | 3 => TableOp::UpdateDirty { txn, pick, row: gen_row(rng) },
        4 => TableOp::DeleteDirty { txn, pick },
        5 | 6 => TableOp::PromoteAll { txn, back: rng.gen_range(0..4) },
        7 => TableOp::DiscardAll { txn },
        _ => TableOp::Install {
            fresh: rng.gen_bool(0.3),
            pick,
            row: rng.gen_bool(0.8).then(|| gen_row(rng)),
            back: rng.gen_range(0..4),
        },
    }
}

fn to_row(r: &MRow) -> Row {
    vec![Value::Int(r.0), Value::str(r.1), Value::Int(r.2)]
}

/// The reference model of one slot: its committed chain and dirty version.
#[derive(Clone, Debug, Default)]
struct MSlot {
    committed: Vec<(u64, Option<MRow>)>,
    dirty: Option<(u8, Option<MRow>)>,
}

impl MSlot {
    fn newest_at(&self, ts: u64) -> Option<&(u64, Option<MRow>)> {
        self.committed.iter().rev().find(|(t, _)| *t <= ts)
    }

    /// Trim to `watermark`; false when that leaves nothing any reader can
    /// see (no dirty version, deletions only from the watermark on), so
    /// the table drops the slot.
    fn trim_and_keep(&mut self, watermark: u64) -> bool {
        trim(&mut self.committed, watermark);
        let dead = self.committed.iter().all(|(_, r)| r.is_none());
        self.dirty.is_some() || !dead
    }

    fn read(&self, view: View) -> Option<MRow> {
        let committed = || self.committed.last().and_then(|(_, r)| *r);
        match (view, &self.dirty) {
            (View::Latest, Some((_, r))) => *r,
            (View::Visible(txn), Some((holder, r))) if u64::from(*holder) == txn => *r,
            (View::At(ts), _) => self.newest_at(ts).and_then(|(_, r)| *r),
            _ => committed(),
        }
    }

    /// The version [`MSlot::read`] takes its row from.
    fn source(&self, view: View) -> Option<Source> {
        let committed = |v: &(u64, Option<MRow>)| Source::Committed(v.0);
        match (view, &self.dirty) {
            (View::Latest, Some((holder, _))) => Some(Source::Dirty(u64::from(*holder))),
            (View::Visible(txn), Some((holder, _))) if u64::from(*holder) == txn => {
                Some(Source::Dirty(txn))
            }
            (View::At(ts), _) => self.newest_at(ts).map(committed),
            _ => self.committed.last().map(committed),
        }
    }
}

/// The fixed predicate set the access path is checked on.
fn predicates() -> Vec<RowPred> {
    let k2 = RowPred::field_eq_int("k", 2);
    let name_a = RowPred::field_eq_str("name", "a");
    let v_low = RowPred::cmp(CmpOp::Lt, RowExpr::field("v"), RowExpr::Int(50));
    vec![
        RowPred::True,
        k2.clone(),
        RowPred::field_eq_int("k", 77),
        RowPred::field_eq_str("k", "a"),
        RowPred::field_eq_int("name", 3),
        RowPred::cmp(CmpOp::Eq, RowExpr::Int(2), RowExpr::field("k")),
        RowPred::and([k2.clone(), name_a.clone()]),
        RowPred::and([name_a, k2.clone()]),
        RowPred::not(k2.clone()),
        RowPred::or([k2.clone(), RowPred::field_eq_str("name", "b")]),
        v_low.clone(),
        RowPred::and([v_low, k2]),
    ]
}

/// Every view worth reading: latest, committed, visible to each
/// transaction, and every timestamp a snapshot may still hold.
fn views(watermark: u64, next_ts: u64) -> Vec<View> {
    let mut out = vec![View::Latest, View::Committed];
    out.extend((0..3).map(View::Visible));
    out.extend((watermark..next_ts).map(View::At));
    out
}

/// `table` against the model and against itself: it holds a slot for
/// exactly the model's ids among those `allocated`, each view's scan is
/// the model's, each predicate's answer is that scan filtered by
/// `row_matches` (same ids, same rows, same order), and every built index
/// equals the index rebuilt from the cells.
fn check_table(
    table: &Table,
    slots: &BTreeMap<RowId, MSlot>,
    allocated: &[RowId],
    views: &[View],
    what: &str,
) {
    for id in allocated {
        let held = table.row_lsn(*id).is_some();
        assert_eq!(held, slots.contains_key(id), "{what}: slot {id} present in the table");
    }
    for &view in views {
        // Each slot read on its own: the model's row, the version it came
        // from and the slot's newest commit timestamp, or nothing at all.
        let model: Vec<(RowId, Seen<Row>)> = slots
            .iter()
            .filter_map(|(id, slot)| {
                let seen = Seen {
                    value: to_row(&slot.read(view)?),
                    source: slot.source(view).expect("a row has a source"),
                    latest_ts: slot.committed.last().map_or(0, |(ts, _)| *ts),
                };
                Some((*id, seen))
            })
            .collect();
        for id in slots.keys() {
            let want = model.iter().find(|(m, _)| m == id).map(|(_, seen)| seen.clone());
            assert_eq!(table.read_row(*id, view), want, "{what}: slot {id} under {view:?}");
        }
        let scan = table.rows_matching(view, &RowPred::True);
        assert_eq!(scan, model, "{what}: scan of {view:?}");
        for pred in predicates() {
            let want: Vec<(RowId, Seen<Row>)> = scan
                .iter()
                .filter(|(_, seen)| row_matches(&table.schema, &seen.value, &pred, &empty_env))
                .cloned()
                .collect();
            assert_eq!(table.rows_matching(view, &pred), want, "{what}: {pred:?} under {view:?}");
            let ids: Vec<RowId> = want.iter().map(|(id, _)| *id).collect();
            assert_eq!(table.ids_matching(view, &pred), ids, "{what}: ids of {pred:?}");
        }
    }
    assert_eq!(table.index_violations(), Vec::<String>::new(), "{what}");
}

#[test]
fn table_agrees_with_model() {
    let mut rng = StdRng::seed_from_u64(0x5702);
    for case in 0..256 {
        let n_ops = rng.gen_range(1..30);
        let ops: Vec<TableOp> = (0..n_ops).map(|_| gen_table_op(&mut rng)).collect();

        // Four tables take every op: 1 and 4 stripes, each once *warm*
        // (its indexes built while empty, maintained by every mutation and
        // checked after every op) and once *cold* (no lookup until the ops
        // are over, so its indexes are built from the final cells, old
        // versions and dirty slots included).
        let schema = || Schema::new("t", &["k", "name", "v"], &["k"]);
        let tables: Vec<(Table, bool)> = [(1, true), (4, true), (1, false), (4, false)]
            .into_iter()
            .map(|(stripes, warm)| (Table::with_stripes(schema(), stripes), warm))
            .collect();
        for (table, warm) in &tables {
            if *warm {
                for pred in predicates() {
                    table.ids_matching(View::Latest, &pred);
                }
                assert_eq!(table.indexed_columns(), vec!["k", "name"]);
            }
        }
        let mut slots: BTreeMap<RowId, MSlot> = BTreeMap::new();
        let mut allocated: Vec<RowId> = Vec::new();
        let mut next_ts = 1u64;
        let mut watermark = 0u64;

        for op in ops {
            let picked = |pick: usize| slots.keys().nth(pick % slots.len().max(1)).copied();
            match op {
                TableOp::InsertDirty { txn, row } => {
                    let mut ids = tables.iter().map(|(t, _)| {
                        t.insert_dirty(u64::from(txn), to_row(&row)).expect("insert")
                    });
                    let id = ids.next().expect("a table");
                    assert!(ids.all(|other| other == id), "case {case}: ids allocate alike");
                    allocated.push(id);
                    slots
                        .insert(id, MSlot { committed: Vec::new(), dirty: Some((txn, Some(row))) });
                }
                TableOp::UpdateDirty { txn, pick, .. } | TableOp::DeleteDirty { txn, pick } => {
                    let Some(id) = picked(pick) else { continue };
                    let state = match op {
                        TableOp::UpdateDirty { row, .. } => Some(row),
                        _ => None,
                    };
                    let slot = slots.get_mut(&id).expect("picked");
                    let foreign = matches!(slot.dirty, Some((holder, _)) if holder != txn);
                    for (t, _) in &tables {
                        let r = match &state {
                            Some(row) => t.update_dirty(u64::from(txn), id, to_row(row)),
                            None => t.delete_dirty(u64::from(txn), id),
                        };
                        assert_eq!(r.is_err(), foreign, "case {case}: {r:?}");
                    }
                    if !foreign {
                        slot.dirty = Some((txn, state));
                    }
                }
                TableOp::PromoteAll { txn, back } => {
                    watermark = watermark.max(next_ts.saturating_sub(back));
                    let at = Commit { ts: next_ts, watermark };
                    slots.retain(|id, slot| {
                        tables.iter().for_each(|(t, _)| t.promote_row(u64::from(txn), *id, at));
                        if !matches!(slot.dirty, Some((holder, _)) if holder == txn) {
                            return true;
                        }
                        let (_, state) = slot.dirty.take().expect("dirty");
                        slot.committed.push((next_ts, state));
                        slot.trim_and_keep(watermark)
                    });
                    next_ts += 1;
                }
                TableOp::DiscardAll { txn } => {
                    for (id, slot) in slots.iter_mut() {
                        tables.iter().for_each(|(t, _)| t.discard_row(u64::from(txn), *id));
                        if matches!(slot.dirty, Some((holder, _)) if holder == txn) {
                            slot.dirty = None;
                        }
                    }
                    // A birth that never committed is gone with its writer.
                    slots.retain(|_, s| s.dirty.is_some() || !s.committed.is_empty());
                }
                TableOp::Install { fresh, pick, row, back } => {
                    let id = match picked(pick) {
                        Some(id) if !fresh => id,
                        _ => {
                            let mut ids = tables.iter().map(|(t, _)| t.reserve_row_id());
                            let id = ids.next().expect("a table");
                            assert!(ids.all(|other| other == id), "case {case}");
                            allocated.push(id);
                            id
                        }
                    };
                    watermark = watermark.max(next_ts.saturating_sub(back));
                    let at = Commit { ts: next_ts, watermark };
                    for (t, _) in &tables {
                        t.install(at, id, row.as_ref().map(to_row)).expect("install");
                    }
                    let slot = slots.entry(id).or_default();
                    slot.committed.push((next_ts, row));
                    if !slot.trim_and_keep(watermark) {
                        slots.remove(&id);
                    }
                    next_ts += 1;
                }
            }
            for (table, warm) in &tables {
                if *warm {
                    let views = views(watermark, next_ts);
                    check_table(table, &slots, &allocated, &views, &format!("case {case}"));
                }
            }
        }
        for (table, warm) in &tables {
            if !*warm {
                assert!(table.indexed_columns().is_empty(), "case {case}: cold until now");
                let what = format!("case {case} (cold)");
                check_table(table, &slots, &allocated, &views(watermark, next_ts), &what);
            }
        }
    }
}
