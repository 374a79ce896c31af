//! P2 — anomaly incidence per isolation level.
//!
//! Part 1 (deterministic **anomaly zoo**): for each level, a scripted
//! schedule attempts each classical anomaly; the matrix shows whether the
//! anomaly *occurs*, is *blocked* (lock wait), or is *aborted* (deadlock /
//! first-committer-wins) — reproducing the Berenson et al. phenomenon
//! table that underlies the paper's Theorems 1–6.
//!
//! Part 2 (stochastic workloads with think time): contended runs of the
//! real workloads per level policy; the checker counts anomalies and the
//! integrity auditors report constraint violations. The analyzer-assigned
//! mixed policy must keep the auditors clean even when the history is not
//! conflict-serializable — semantic correctness strictly weaker than
//! serializability, the paper's core point.
//!
//! ```text
//! cargo run -p semcc-bench --release -- p2 [--quick]
//! ```

use crate::{header, row, short, Opts};
use semcc_checker::{is_conflict_serializable, AnomalyCounts, AnomalyKind};
use semcc_engine::{Engine, EngineConfig, EngineError, IsolationLevel, Value};
use semcc_logic::row::RowPred;
use semcc_storage::Schema;
use semcc_txn::program::with_pauses;
use semcc_txn::Program;
use semcc_workloads::{banking, driver, orders, tpcc, RetryPolicy};
use std::sync::Arc;
use std::time::Duration;

use IsolationLevel::*;

fn engine() -> Arc<Engine> {
    Arc::new(Engine::new(EngineConfig {
        lock_timeout: Duration::from_millis(300),
        record_history: true,
        faults: None,
        wal: None,
    }))
}

/// Outcome of one scripted anomaly attempt.
enum ZooOutcome {
    Occurs,
    Prevented(&'static str),
}

impl std::fmt::Display for ZooOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ZooOutcome::Occurs => write!(f, "OCCURS"),
            ZooOutcome::Prevented(how) => write!(f, "no ({how})"),
        }
    }
}

fn blocked(e: &EngineError) -> bool {
    matches!(e, EngineError::Lock(_))
}

/// Dirty read: T1 writes, T2 reads before T1 finishes.
fn zoo_dirty_read(level: IsolationLevel) -> ZooOutcome {
    let e = engine();
    e.create_item("x", 0).expect("item");
    let mut w = e.begin(ReadCommitted);
    w.write("x", 99).expect("w");
    let mut r = e.begin(level);
    let out = match r.read("x") {
        Ok(Value::Int(99)) => ZooOutcome::Occurs,
        Ok(_) => ZooOutcome::Prevented("old version"),
        Err(err) if blocked(&err) => ZooOutcome::Prevented("blocked"),
        Err(_) => ZooOutcome::Prevented("aborted"),
    };
    w.abort();
    out
}

/// Lost update: T1 and T2 read-modify-write the same item.
fn zoo_lost_update(level: IsolationLevel) -> ZooOutcome {
    let e = engine();
    e.create_item("x", 0).expect("item");
    let mut t1 = e.begin(level);
    let Ok(v1) = t1.read("x") else { return ZooOutcome::Prevented("blocked") };
    let mut t2 = e.begin(level);
    let r2 = (|| -> Result<(), EngineError> {
        let v2 = t2.read("x")?.as_int().expect("int");
        t2.write("x", v2 + 10)?;
        Ok(())
    })();
    match r2 {
        Ok(()) => {
            if t2.commit().is_err() {
                t1.abort();
                return ZooOutcome::Prevented("aborted");
            }
        }
        Err(err) => {
            t1.abort();
            return if blocked(&err) {
                ZooOutcome::Prevented("blocked")
            } else {
                ZooOutcome::Prevented("aborted")
            };
        }
    }
    let r1 = (|| -> Result<(), EngineError> {
        t1.write("x", v1.as_int().expect("int") + 5)?;
        Ok(())
    })();
    match r1 {
        Ok(()) => match t1.commit() {
            Ok(_) => {
                if e.peek_item("x").expect("peek") == Value::Int(5) {
                    ZooOutcome::Occurs // T2's +10 vanished
                } else {
                    ZooOutcome::Prevented("serialized")
                }
            }
            Err(_) => ZooOutcome::Prevented("aborted"),
        },
        Err(err) if blocked(&err) => ZooOutcome::Prevented("blocked"),
        Err(_) => ZooOutcome::Prevented("aborted"),
    }
}

/// Non-repeatable read: T1 reads, T2 updates+commits, T1 re-reads.
fn zoo_non_repeatable(level: IsolationLevel) -> ZooOutcome {
    let e = engine();
    e.create_item("x", 0).expect("item");
    let mut t1 = e.begin(level);
    let Ok(v1) = t1.read("x") else { return ZooOutcome::Prevented("blocked") };
    let mut t2 = e.begin(ReadCommitted);
    match t2.write("x", 42).and_then(|_| t2.commit().map(|_| ())) {
        Ok(()) => {}
        Err(err) if blocked(&err) => return ZooOutcome::Prevented("blocked"),
        Err(_) => return ZooOutcome::Prevented("aborted"),
    }
    match t1.read("x") {
        Ok(v2) if v2 != v1 => ZooOutcome::Occurs,
        Ok(_) => ZooOutcome::Prevented("stable"),
        Err(err) if blocked(&err) => ZooOutcome::Prevented("blocked"),
        Err(_) => ZooOutcome::Prevented("aborted"),
    }
}

/// Phantom: T1 counts a predicate, T2 inserts a matching row, T1 recounts.
fn zoo_phantom(level: IsolationLevel) -> ZooOutcome {
    let e = engine();
    e.create_table(Schema::new("t", &["k"], &["k"])).expect("table");
    e.load_row("t", vec![Value::Int(1)]).expect("row");
    let pred = RowPred::field_eq_int("k", 1);
    let mut t1 = e.begin(level);
    let Ok(n1) = t1.count("t", &pred) else { return ZooOutcome::Prevented("blocked") };
    let mut t2 = e.begin(ReadCommitted);
    match t2.insert("t", vec![Value::Int(1)]).and_then(|_| t2.commit().map(|_| ())) {
        Ok(()) => {}
        Err(err) if blocked(&err) => return ZooOutcome::Prevented("blocked"),
        Err(_) => return ZooOutcome::Prevented("aborted"),
    }
    match t1.count("t", &pred) {
        Ok(n2) if n2 != n1 => ZooOutcome::Occurs,
        Ok(_) => ZooOutcome::Prevented("stable"),
        Err(err) if blocked(&err) => ZooOutcome::Prevented("blocked"),
        Err(_) => ZooOutcome::Prevented("aborted"),
    }
}

/// Write skew: both read {sav, ch}, each withdraws from a different item.
fn zoo_write_skew(level: IsolationLevel) -> ZooOutcome {
    let e = engine();
    e.create_item("sav", 100).expect("item");
    e.create_item("ch", 100).expect("item");
    let mut t1 = e.begin(level);
    let mut t2 = e.begin(level);
    let body = |t: &mut semcc_engine::Txn, target: &str| -> Result<(), EngineError> {
        let s = t.read("sav")?.as_int().expect("int");
        let c = t.read("ch")?.as_int().expect("int");
        if s + c >= 150 {
            let cur = if target == "sav" { s } else { c };
            t.write(target, cur - 150)?;
        }
        Ok(())
    };
    let r1 = body(&mut t1, "sav");
    let r2 = body(&mut t2, "ch");
    match (r1, r2) {
        (Ok(()), Ok(())) => {
            let c1 = t1.commit().is_ok();
            let c2 = t2.commit().is_ok();
            if c1 && c2 {
                let sav = peek_int(&e, "sav");
                let ch = peek_int(&e, "ch");
                if sav + ch < 0 {
                    ZooOutcome::Occurs
                } else {
                    ZooOutcome::Prevented("serialized")
                }
            } else {
                ZooOutcome::Prevented("aborted")
            }
        }
        (Err(err), _) | (_, Err(err)) if blocked(&err) => ZooOutcome::Prevented("blocked"),
        _ => ZooOutcome::Prevented("aborted"),
    }
}

fn peek_int(e: &Engine, name: &str) -> i64 {
    e.peek_item(name).expect("peek").as_int().expect("int")
}

/// The title and the anomaly zoo.
pub fn head(_: &Opts, out: &mut String) {
    outln!(out, "P2: anomaly incidence per level");
    outln!(out, "== anomaly zoo (deterministic schedules; 'no (…)' = prevented) ==");
    let widths = [10usize, 16, 16, 16, 16, 16];
    outln!(
        out,
        "{}",
        header(
            &["level", "dirty read", "lost update", "non-rep read", "phantom", "write skew"],
            &widths
        )
    );
    for level in IsolationLevel::ALL {
        outln!(
            out,
            "{}",
            row(
                &[
                    short(level).to_string(),
                    zoo_dirty_read(level).to_string(),
                    zoo_lost_update(level).to_string(),
                    zoo_non_repeatable(level).to_string(),
                    zoo_phantom(level).to_string(),
                    zoo_write_skew(level).to_string(),
                ],
                &widths
            )
        );
    }
}

// ---------------------------------------------------------------------
// Part 2: stochastic workload runs with think time
// ---------------------------------------------------------------------

fn print_header() {
    let widths = [12usize, 7, 6, 6, 6, 6, 6, 5, 10];
    println!(
        "{}",
        header(
            &["policy", "commit", "dirty", "lost", "nonrep", "phant", "skew", "CSR", "integrity"],
            &widths
        )
    );
}

fn print_run(policy: &str, committed: u64, counts: &AnomalyCounts, csr: bool, violations: usize) {
    let widths = [12usize, 7, 6, 6, 6, 6, 6, 5, 10];
    println!(
        "{}",
        row(
            &[
                policy.into(),
                committed.to_string(),
                counts.get(AnomalyKind::DirtyRead).to_string(),
                counts.get(AnomalyKind::LostUpdate).to_string(),
                counts.get(AnomalyKind::NonRepeatableRead).to_string(),
                counts.get(AnomalyKind::Phantom).to_string(),
                counts.get(AnomalyKind::WriteSkew).to_string(),
                if csr { "yes".into() } else { "NO".into() },
                if violations == 0 { "clean".into() } else { format!("{violations} BAD") },
            ],
            &widths
        )
    );
}

/// A named uniform-or-mixed level policy.
type PolicyFn = fn(&str) -> IsolationLevel;

const THINK_US: u64 = 200;

/// Up to 50 immediate retries per transaction.
fn retries() -> RetryPolicy {
    RetryPolicy { max_attempts: 51, base_backoff: Duration::ZERO, ..RetryPolicy::default() }
}

fn banking_runs(per_thread: usize) {
    println!("\n== banking, 2 accounts, {THINK_US}us think time ==");
    print_header();
    let policies: Vec<(&str, PolicyFn)> = vec![
        ("all-RU", |_| ReadUncommitted),
        ("all-RC", |_| ReadCommitted),
        ("all-RC+FCW", |_| ReadCommittedFcw),
        ("all-RR", |_| RepeatableRead),
        ("all-SNAP", |_| Snapshot),
        ("all-SER", |_| Serializable),
        (
            "mixed",
            |name| {
                if name.starts_with("Deposit") {
                    ReadCommittedFcw
                } else {
                    RepeatableRead
                }
            },
        ),
    ];
    for (name, pol) in policies {
        let e = engine();
        banking::setup(&e, 2, 40);
        let programs: Vec<Program> =
            banking::app().programs.iter().map(|p| with_pauses(p, THINK_US)).collect();
        let levels: Vec<IsolationLevel> = programs.iter().map(|p| pol(&p.name)).collect();
        let stats = driver::run_mix(
            driver::MixSpec { threads: 4, txns_per_thread: per_thread, seed: 7 },
            &retries(),
            |_, rng| banking::random_txn(&e, &programs, &levels, 2, rng),
        );
        let events = e.history().events();
        let counts = AnomalyCounts::from_events(&events);
        let csr = is_conflict_serializable(&events);
        let violations = banking::balance_violations(&e, 2).len();
        print_run(name, stats.committed, &counts, csr, violations);
    }
    println!("  (integrity = combined balance non-negative on every account)");
}

fn orders_runs(per_thread: usize) {
    println!("\n== order processing (Section 6 mix), {THINK_US}us think time ==");
    print_header();
    let policies: Vec<(&str, PolicyFn)> = vec![
        ("all-RU", |_| ReadUncommitted),
        ("all-RC", |_| ReadCommitted),
        ("all-RR", |_| RepeatableRead),
        ("all-SER", |_| Serializable),
        ("mixed", |name| match name {
            "Mailing_List" => ReadUncommitted,
            "Mailing_List_strict" | "New_Order" => ReadCommitted,
            "Delivery" => RepeatableRead,
            _ => Serializable,
        }),
    ];
    for (name, pol) in policies {
        let e = engine();
        orders::setup(&e, 10);
        let programs: Vec<Program> =
            orders::app(false).programs.iter().map(|p| with_pauses(p, THINK_US)).collect();
        let stats = driver::run_mix(
            driver::MixSpec { threads: 4, txns_per_thread: per_thread, seed: 7 },
            &retries(),
            |_, rng| orders::random_txn(&e, &programs, &pol, rng),
        );
        let events = e.history().events();
        let counts = AnomalyCounts::from_events(&events);
        let csr = is_conflict_serializable(&events);
        let violations = orders::integrity_violations(&e, false).len();
        print_run(name, stats.committed, &counts, csr, violations);
    }
    println!("  (integrity = no_gaps + Imax + order_consistency auditors)");
}

fn tpcc_runs(per_thread: usize) {
    println!("\n== TPC-C style, {THINK_US}us think time ==");
    print_header();
    let policies: Vec<(&str, PolicyFn)> = vec![
        ("all-RC", |_| ReadCommitted),
        ("all-SNAP", |_| Snapshot),
        ("all-SER", |_| Serializable),
        ("mixed", |name| match name {
            "New_Order_tpcc" | "Payment" => ReadCommittedFcw,
            "Order_Status" => ReadCommitted,
            "Delivery_tpcc" => RepeatableRead,
            _ => ReadUncommitted,
        }),
    ];
    let scale = tpcc::Scale { districts: 2, customers_per_district: 5, items: 20 };
    for (name, pol) in policies {
        let e = engine();
        tpcc::setup(&e, scale);
        let programs = tpcc::app().programs;
        let stats = driver::run_mix(
            driver::MixSpec { threads: 4, txns_per_thread: per_thread, seed: 7 },
            &retries(),
            |_, rng| tpcc::random_txn(&e, &programs, scale, &pol, THINK_US, rng),
        );
        let events = e.history().events();
        let counts = AnomalyCounts::from_events(&events);
        let csr = is_conflict_serializable(&events);
        let violations = tpcc::integrity_violations(&e).len();
        print_run(name, stats.committed, &counts, csr, violations);
    }
    println!("  (integrity = ytd_consistency + order_ids_dense auditors)");
}

/// The stochastic workload runs.
pub fn timed(opts: &Opts) {
    let per_thread = if opts.quick { 40 } else { 150 };
    banking_runs(per_thread);
    orders_runs(per_thread);
    tpcc_runs(per_thread);
    println!("\nreading: each weak level admits exactly its characteristic anomalies; the");
    println!("analyzer-assigned mixed policy keeps every integrity auditor clean even when");
    println!("its history is not conflict-serializable (CSR = NO) — semantic correctness");
    println!("is strictly weaker than serializability, which is the paper's core point.");
}
