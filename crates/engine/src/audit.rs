//! Post-abort invariant auditor.
//!
//! Theorem 1 treats rollback writes as first-class write statements, so an
//! abort is only correct if it leaves *no* residue: the paper's semantic
//! conditions are stated over committed effects, and any uncommitted
//! leftovers (grants, waiters, dirty versions, registered snapshots) would
//! silently change what concurrent transactions at weak levels observe.
//!
//! The auditor asserts that contract after every injected (or natural)
//! abort:
//!
//! 1. **Lock table clean** — the victim holds no grants and queues no
//!    waiters.
//! 2. **No uncommitted versions** — no item or row slot carries a dirty
//!    version owned by the victim.
//! 3. **Snapshot deregistered** — the MVCC oracle retains no snapshot for
//!    the victim.
//! 4. **Store = committed-prefix replay** — (whole-engine check) the
//!    committed state equals a replay of only the committed transactions'
//!    recorded effects onto an identically seeded fresh engine.

use crate::engine::Engine;
use crate::history::Op;
use semcc_logic::row::RowPred;
use semcc_storage::{Ts, TxnId, View};
use std::collections::BTreeMap;
use std::fmt;

/// One violated invariant, attributed to a transaction (0 for
/// whole-engine checks).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditViolation {
    /// The audited transaction (0 = whole-engine check).
    pub txn: TxnId,
    /// Which invariant failed.
    pub invariant: &'static str,
    /// Human-readable specifics.
    pub detail: String,
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "txn {}: {}: {}", self.txn, self.invariant, self.detail)
    }
}

/// Result of an audit pass: how many checks ran and which failed.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// Number of individual invariant checks performed.
    pub checks: u64,
    /// The failures (empty = contract holds).
    pub violations: Vec<AuditViolation>,
}

impl AuditReport {
    /// True when every check passed.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }
}

/// Audit the abort path of a single finished (aborted) transaction: no
/// grants, no waiters, no dirty item/row versions, no registered snapshot.
pub fn audit_post_abort(engine: &Engine, victim: TxnId) -> AuditReport {
    let mut rep = AuditReport::default();

    rep.checks += 1;
    let grants = engine.locks.held_by(victim);
    if grants != 0 {
        rep.violations.push(AuditViolation {
            txn: victim,
            invariant: "lock-grants",
            detail: format!("{grants} grant(s) still held after abort"),
        });
    }

    rep.checks += 1;
    let waiting = engine.locks.waiting_by(victim);
    if waiting != 0 {
        rep.violations.push(AuditViolation {
            txn: victim,
            invariant: "lock-waiters",
            detail: format!("{waiting} waiter(s) still queued after abort"),
        });
    }

    rep.checks += 1;
    for name in engine.store.item_names() {
        if let Ok(cell) = engine.store.item(&name) {
            if cell.lock().dirty().is_some_and(|(w, _)| w == victim) {
                rep.violations.push(AuditViolation {
                    txn: victim,
                    invariant: "dirty-item",
                    detail: format!("item `{name}` holds an uncommitted version"),
                });
            }
        }
    }

    rep.checks += 1;
    for table in engine.store.table_names() {
        if let Ok(t) = engine.store.table(&table) {
            for (id, writer) in t.dirty_rows() {
                if writer == victim {
                    rep.violations.push(AuditViolation {
                        txn: victim,
                        invariant: "dirty-row",
                        detail: format!("row {table}[{id}] holds an uncommitted version"),
                    });
                }
            }
        }
    }

    rep.checks += 1;
    if engine.oracle.has_snapshot(victim) {
        rep.violations.push(AuditViolation {
            txn: victim,
            invariant: "snapshot-leak",
            detail: "oracle still registers a snapshot for the victim".into(),
        });
    }

    // SSI residue: an aborted transaction must surrender its SIREAD locks
    // and rw-antidependency flags entirely — only committed readers may
    // persist in the registry.
    rep.checks += 1;
    if engine.oracle.ssi_tracked(victim) {
        let (inc, outc) = engine.oracle.ssi_flags(victim).unwrap_or((false, false));
        let sireads = engine.oracle.ssi_siread_count(victim);
        rep.violations.push(AuditViolation {
            txn: victim,
            invariant: "ssi-leak",
            detail: format!(
                "oracle still tracks the victim's SSI record \
                 ({sireads} siread(s), in={inc}, out={outc})"
            ),
        });
    }

    rep
}

/// Whole-engine quiescence: with no transaction in flight, nothing in the
/// store may be dirty, the lock table and snapshot registry must be
/// empty, and every table's equality indexes must match its cells.
pub fn audit_quiescent(engine: &Engine) -> AuditReport {
    let mut rep = AuditReport::default();

    rep.checks += 1;
    let grants = engine.locks.total_grants();
    let waiters = engine.locks.total_waiters();
    if grants != 0 || waiters != 0 {
        rep.violations.push(AuditViolation {
            txn: 0,
            invariant: "quiescent-locks",
            detail: format!("{grants} grant(s), {waiters} waiter(s) with no txn in flight"),
        });
    }

    rep.checks += 1;
    for name in engine.store.item_names() {
        if let Ok(cell) = engine.store.item(&name) {
            if let Some((w, _)) = cell.lock().dirty() {
                rep.violations.push(AuditViolation {
                    txn: w,
                    invariant: "quiescent-dirty-item",
                    detail: format!("item `{name}` dirty (writer {w}) with no txn in flight"),
                });
            }
        }
    }

    rep.checks += 1;
    for table in engine.store.table_names() {
        if let Ok(t) = engine.store.table(&table) {
            for (id, w) in t.dirty_rows() {
                rep.violations.push(AuditViolation {
                    txn: w,
                    invariant: "quiescent-dirty-row",
                    detail: format!("row {table}[{id}] dirty (writer {w}) with no txn in flight"),
                });
            }
            // Part of the same walk over the tables: an equality index
            // must be what its stripe's cells would rebuild.
            for detail in t.index_violations() {
                rep.violations.push(AuditViolation { txn: 0, invariant: "row-index", detail });
            }
        }
    }

    rep.checks += 1;
    let snaps = engine.oracle.active_snapshots();
    if snaps != 0 {
        rep.violations.push(AuditViolation {
            txn: 0,
            invariant: "quiescent-snapshots",
            detail: format!("{snaps} snapshot(s) registered with no txn in flight"),
        });
    }

    // With no SSI transaction in flight, GC must have drained the whole
    // registry: committed SIREAD locks are only retained while some active
    // snapshot could still form a dangerous structure with them.
    rep.checks += 1;
    let ssi = engine.oracle.ssi_record_count();
    if ssi != 0 {
        rep.violations.push(AuditViolation {
            txn: 0,
            invariant: "quiescent-ssi",
            detail: format!("{ssi} SSI record(s) retained with no txn in flight"),
        });
    }

    rep
}

/// Replay only the *committed* transactions' recorded write effects from
/// `live`'s history onto `fresh` — an engine seeded with the identical
/// initial state — then compare committed stores. Any difference means an
/// aborted transaction leaked effects into the durable state (the Theorem 1
/// rollback-write contract).
///
/// Requires `live` to have been built with `record_history: true`.
pub fn audit_committed_replay(live: &Engine, fresh: &Engine) -> AuditReport {
    let mut rep = replay_committed(live, fresh, None);
    rep.merge(compare_committed(live, fresh, "committed-prefix replay"));
    rep
}

/// Replay the committed write effects recorded in `live`'s history onto
/// `fresh`. With a `winners` filter, only those transactions' effects are
/// applied — the recovery audit's committed-prefix reference, where a
/// transaction that committed live may still be a crash loser because its
/// commit record did not survive the durable prefix.
fn replay_committed(
    live: &Engine,
    fresh: &Engine,
    winners: Option<&BTreeMap<TxnId, Ts>>,
) -> AuditReport {
    let mut rep = AuditReport::default();
    let events = live.history.events();

    // Commit timestamps of committed transactions.
    let mut commit_ts: BTreeMap<TxnId, Ts> = BTreeMap::new();
    for e in &events {
        if let Op::Commit { ts } = &e.op {
            if winners.is_none_or(|w| w.contains_key(&e.txn)) {
                commit_ts.insert(e.txn, *ts);
            }
        }
    }

    // Apply committed writes in commit-timestamp order (within a
    // transaction, in recording order).
    let mut order: Vec<(Ts, TxnId)> = commit_ts.iter().map(|(t, ts)| (*ts, *t)).collect();
    order.sort_unstable();
    for (ts, txn) in order {
        for e in events.iter().filter(|e| e.txn == txn) {
            match &e.op {
                Op::Write { key: semcc_mvcc::Key::Item(name), value: Some(v) } => {
                    if let Ok(cell) = fresh.store.item(name) {
                        cell.lock().install(ts, v.clone());
                    } else {
                        rep.violations.push(AuditViolation {
                            txn,
                            invariant: "replay-missing-item",
                            detail: format!("fresh engine lacks item `{name}`"),
                        });
                    }
                }
                Op::RowInsert { table, id, row } | Op::RowUpdate { table, id, row } => {
                    match fresh.store.table(table) {
                        Ok(t) => {
                            let _ = t.install(ts, *id, Some(row.clone()));
                        }
                        Err(_) => rep.violations.push(AuditViolation {
                            txn,
                            invariant: "replay-missing-table",
                            detail: format!("fresh engine lacks table `{table}`"),
                        }),
                    }
                }
                Op::RowDelete { table, id } => {
                    if let Ok(t) = fresh.store.table(table) {
                        let _ = t.install(ts, *id, None);
                    }
                }
                _ => {}
            }
        }
    }

    rep
}

/// Compare the committed states of two engines (item sets and values,
/// table sets and rows). `what` names the right-hand side in violations.
fn compare_committed(live: &Engine, other: &Engine, what: &str) -> AuditReport {
    let mut rep = AuditReport::default();
    rep.checks += 1;
    let (live_items, other_items) = (live.store.item_names(), other.store.item_names());
    if live_items != other_items {
        rep.violations.push(AuditViolation {
            txn: 0,
            invariant: "replay-item-set",
            detail: format!("item sets differ: live {live_items:?} vs {what} {other_items:?}"),
        });
    }
    for name in &live_items {
        rep.checks += 1;
        let a = live.store.peek_committed(name).ok();
        let b = other.store.peek_committed(name).ok();
        if a != b {
            rep.violations.push(AuditViolation {
                txn: 0,
                invariant: "replay-item",
                detail: format!("item `{name}`: live {a:?} vs {what} {b:?}"),
            });
        }
    }
    let (live_tables, other_tables) = (live.store.table_names(), other.store.table_names());
    if live_tables != other_tables {
        rep.violations.push(AuditViolation {
            txn: 0,
            invariant: "replay-table-set",
            detail: format!("table sets differ: live {live_tables:?} vs {what} {other_tables:?}"),
        });
    }
    for table in &live_tables {
        rep.checks += 1;
        let a = live.store.table(table).map(|t| t.scan_committed()).unwrap_or_default();
        let b = other.store.table(table).map(|t| t.scan_committed()).unwrap_or_default();
        if a != b {
            rep.violations.push(AuditViolation {
                txn: 0,
                invariant: "replay-table",
                detail: format!("table `{table}`: live {a:?} vs {what} {b:?}"),
            });
        }
    }
    rep
}

/// A canonical, deterministic rendering of an engine's committed state:
/// every item's latest value *and commit timestamp*, every table's
/// committed rows *and per-row commit timestamps*. Two engines with equal
/// digests are bit-for-bit equal as far as committed state goes.
pub fn committed_digest(engine: &Engine) -> String {
    let mut out = String::new();
    for name in engine.store.item_names() {
        if let Ok(cell) = engine.store.item(&name) {
            let c = cell.lock();
            out.push_str(&format!(
                "item {name}={:?}@{}\n",
                c.read_committed(),
                c.latest_commit_ts()
            ));
        }
    }
    for table in engine.store.table_names() {
        if let Ok(t) = engine.store.table(&table) {
            for (id, seen) in t.rows_matching(View::Committed, &RowPred::True) {
                out.push_str(&format!("row {table}[{id}]={:?}@{}\n", seen.value, seen.latest_ts));
            }
        }
    }
    out
}

/// Result of a recovery audit: the report plus the recovery stats (absent
/// when the log failed to replay at all).
pub struct RecoveryAudit {
    /// Check/violation tally.
    pub report: AuditReport,
    /// What recovery did, when it ran.
    pub stats: Option<crate::recover::RecoveryStats>,
}

/// The durability half of the audit: recover a fresh engine from
/// `wal_bytes` (a crash's surviving log prefix) and require it to be
/// **bit-for-bit equal** — values *and* commit timestamps — to the
/// committed-prefix reference built by replaying, onto `fresh`, only the
/// transactions whose `Commit` record survives the prefix. Also asserts
/// the recovered engine is quiescent (no dirty residue, no locks, no
/// snapshots) and that every loser undo matched its logged before-image.
///
/// `live` must record history; `fresh` must be seeded with the identical
/// initial state (same ids, same timestamp-0 values) as `live` was.
pub fn audit_recovery(live: &Engine, fresh: &Engine, wal_bytes: &[u8]) -> RecoveryAudit {
    let mut rep = AuditReport::default();
    rep.checks += 1;
    let rec = match crate::recover::recover(wal_bytes) {
        Ok(r) => r,
        Err(e) => {
            rep.violations.push(AuditViolation {
                txn: 0,
                invariant: "recovery-replay",
                detail: format!("WAL replay failed: {e}"),
            });
            return RecoveryAudit { report: rep, stats: None };
        }
    };

    rep.checks += 1;
    if rec.stats.undo_mismatches != 0 {
        rep.violations.push(AuditViolation {
            txn: 0,
            invariant: "recovery-undo",
            detail: format!(
                "{} undo validation(s) diverged from the logged before-image",
                rec.stats.undo_mismatches
            ),
        });
    }

    // Build the committed-prefix reference: only WAL winners replay.
    rep.merge(replay_committed(live, fresh, Some(&rec.stats.winners)));

    // Bit-for-bit: values and commit timestamps, items and rows.
    rep.checks += 1;
    let recovered = committed_digest(&rec.engine);
    let reference = committed_digest(fresh);
    if recovered != reference {
        let diff: Vec<String> = {
            let a: Vec<&str> = recovered.lines().collect();
            let b: Vec<&str> = reference.lines().collect();
            a.iter()
                .filter(|l| !b.contains(l))
                .map(|l| format!("recovered only: {l}"))
                .chain(b.iter().filter(|l| !a.contains(l)).map(|l| format!("reference only: {l}")))
                .take(6)
                .collect()
        };
        rep.violations.push(AuditViolation {
            txn: 0,
            invariant: "recovery-divergence",
            detail: format!(
                "recovered state differs from committed-prefix reference: {}",
                diff.join("; ")
            ),
        });
    }

    // The recovered engine must come up quiescent — recovery leaves no
    // dirty residue, no locks, no snapshots.
    rep.merge(audit_quiescent(&rec.engine));

    RecoveryAudit { report: rep, stats: Some(rec.stats) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::level::IsolationLevel;
    use semcc_storage::{Schema, Value};
    use std::sync::Arc;

    fn seeded() -> Arc<Engine> {
        let e = Arc::new(Engine::new(EngineConfig::default()));
        e.create_item("x", 10).expect("item");
        e.create_table(Schema::new("t", &["a", "b"], &["a"])).expect("table");
        e.load_row("t", vec![Value::Int(1), Value::Int(2)]).expect("row");
        e
    }

    #[test]
    fn clean_after_abort() {
        let e = seeded();
        let mut t = e.begin(IsolationLevel::ReadCommitted);
        t.write("x", 99).expect("write");
        let id = t.id();
        t.abort();
        let rep = audit_post_abort(&e, id);
        assert!(rep.clean(), "{:?}", rep.violations);
        assert!(audit_quiescent(&e).clean());
    }

    #[test]
    fn dirty_item_detected() {
        let e = seeded();
        let mut t = e.begin(IsolationLevel::ReadCommitted);
        t.write("x", 99).expect("write");
        let id = t.id();
        // Audit while still in flight: the dirty version and X grant are
        // exactly what the auditor must flag.
        let rep = audit_post_abort(&e, id);
        assert!(!rep.clean());
        let kinds: Vec<&str> = rep.violations.iter().map(|v| v.invariant).collect();
        assert!(kinds.contains(&"dirty-item"), "{kinds:?}");
        assert!(kinds.contains(&"lock-grants"), "{kinds:?}");
        t.abort();
        assert!(audit_post_abort(&e, id).clean());
    }

    #[test]
    fn committed_replay_matches_after_mixed_commits_and_aborts() {
        let e = seeded();
        let mut t1 = e.begin(IsolationLevel::Serializable);
        let v = t1.read("x").expect("read").as_int().expect("int");
        t1.write("x", v + 5).expect("write");
        t1.commit().expect("commit");

        let mut t2 = e.begin(IsolationLevel::ReadCommitted);
        t2.write("x", 1000).expect("write");
        t2.abort();

        let fresh = seeded();
        let rep = audit_committed_replay(&e, &fresh);
        assert!(rep.clean(), "{:?}", rep.violations);
        assert_eq!(fresh.peek_item("x").expect("peek"), Value::Int(15));
    }

    #[test]
    fn committed_replay_detects_leaked_effect() {
        let e = seeded();
        let mut t1 = e.begin(IsolationLevel::Serializable);
        t1.write("x", 77).expect("write");
        t1.commit().expect("commit");
        // Tamper: a fresh engine seeded *differently* stands in for a
        // leaked or lost effect.
        let fresh = Arc::new(Engine::new(EngineConfig::default()));
        fresh.create_item("x", 11).expect("item");
        fresh.create_table(Schema::new("t", &["a", "b"], &["a"])).expect("table");
        let rep = audit_committed_replay(&e, &fresh);
        assert!(!rep.clean());
    }

    /// Regression: an INSERT dirties the table and *then* acquires the
    /// row X lock; when that acquisition fails (only an injected fault
    /// can make it — the slot is fresh), the dirty version must still be
    /// on the undo list, or the abort leaks it. Found by the fault
    /// harness on the orders workload.
    #[test]
    fn insert_whose_row_lock_fails_leaves_no_dirty_row() {
        use semcc_faults::{FaultInjector, FaultKind, FaultPlan};
        let inj = Arc::new(FaultInjector::new(FaultPlan {
            // Acquisition #1 is the predicate lock; #2 is the row lock
            // taken after `insert_dirty` — the hazardous one.
            lock_faults: vec![(2, FaultKind::LockTimeout)],
            ..FaultPlan::default()
        }));
        let e =
            Arc::new(Engine::new(EngineConfig { faults: Some(inj), ..EngineConfig::default() }));
        e.create_table(Schema::new("t", &["a", "b"], &["a"])).expect("table");
        let mut t = e.begin(IsolationLevel::ReadCommitted);
        let id = t.id();
        let err = t.insert("t", vec![Value::Int(1), Value::Int(2)]).expect_err("injected");
        assert!(err.is_abort());
        t.abort();
        let rep = audit_post_abort(&e, id);
        assert!(rep.clean(), "{:?}", rep.violations);
        assert!(audit_quiescent(&e).clean());
    }
}
