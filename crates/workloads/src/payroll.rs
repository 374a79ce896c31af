//! The payroll application of Example 2.
//!
//! One table `emp(name, rate, hrs, sal)` with the record-granularity
//! constraint `I_sal : rate · hrs = sal` on every row. `Hours` adds a
//! day's hours and recomputes the salary in **two separate UPDATE
//! statements** — individually each breaks `I_sal`, together they
//! preserve it. `Print_Records` reads one employee's record and requires
//! it to be internally consistent.
//!
//! Expected verdicts: `Hours` and `Print_Records` fail READ UNCOMMITTED
//! (a single `Hours` write interferes with `I_sal`) but pass READ
//! COMMITTED (the composite unit preserves it; row-granularity reads are
//! atomic) — Example 2's exact conclusion.

use rand::Rng;
use semcc_core::App;
use semcc_engine::{Engine, EngineError, IsolationLevel, Value};
use semcc_logic::parser::parse_pred;
use semcc_logic::pred::{OpaqueAtom, TableAtom};
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::{CmpOp, Expr, Pred};
use semcc_txn::interp::run_program;
use semcc_txn::stmt::Stmt;
use semcc_txn::{Bindings, Program, ProgramBuilder};
use std::sync::Arc;

fn pp(s: &str) -> Pred {
    parse_pred(s).unwrap_or_else(|e| panic!("bad assertion {s:?}: {e}"))
}

/// `I_sal` as a table atom: every row satisfies `rate · hrs = sal`.
pub fn isal_atom() -> Pred {
    Pred::Table(TableAtom::AllRows {
        table: "emp".into(),
        constraint: RowPred::Cmp(
            CmpOp::Eq,
            RowExpr::field("rate").mul(RowExpr::field("hrs")),
            RowExpr::field("sal"),
        ),
    })
}

/// `Hours(emp, h)`: two updates that only jointly preserve `I_sal`.
pub fn hours() -> Program {
    let me = RowPred::field_eq_outer("name", Expr::param("emp"));
    ProgramBuilder::new("Hours")
        .param_str("emp")
        .param_int("h")
        .consistency(isal_atom())
        .param_cond(pp("@h >= 0"))
        .result(Pred::and([isal_atom(), pp("#hours_recorded_at_commit")]))
        .snapshot_read_post(isal_atom())
        .stmt(
            Stmt::Update {
                table: "emp".into(),
                filter: me.clone(),
                sets: vec![(
                    "hrs".into(),
                    RowExpr::field("hrs").add(RowExpr::Outer(Expr::param("h"))),
                )],
            },
            isal_atom(),
            // Intermediate state: I_sal is broken for this record.
            Pred::True,
        )
        .stmt(
            Stmt::Update {
                table: "emp".into(),
                filter: me,
                sets: vec![("sal".into(), RowExpr::field("rate").mul(RowExpr::field("hrs")))],
            },
            Pred::True,
            isal_atom(),
        )
        .build()
}

/// `Print_Records(emp)`: read the employee's record; its postcondition
/// demands the record came from a state satisfying `I_sal` (reading the
/// row is atomic at record granularity).
pub fn print_records() -> Program {
    ProgramBuilder::new("Print_Records")
        .param_str("emp")
        .consistency(isal_atom())
        .result(pp("#record_printed"))
        .snapshot_read_post(isal_atom())
        .stmt(
            Stmt::Select {
                table: "emp".into(),
                filter: RowPred::field_eq_outer("name", Expr::param("emp")),
                into: "record".into(),
            },
            isal_atom(),
            // The read snapshot is consistent: the state the row was read
            // from satisfied I_sal. (The spec deliberately does NOT demand
            // all printed records come from one snapshot — Example 2.)
            isal_atom(),
        )
        .build()
}

/// A salary-cap auditor used as an extra reader in benchmarks.
pub fn payroll_report() -> Program {
    ProgramBuilder::new("Payroll_Report")
        .consistency(isal_atom())
        .result(Pred::Opaque(OpaqueAtom::over_items("report_printed", &[])))
        .snapshot_read_post(isal_atom())
        .stmt(
            Stmt::Select { table: "emp".into(), filter: RowPred::True, into: "all".into() },
            isal_atom(),
            isal_atom(),
        )
        .build()
}

/// The payroll application.
pub fn app() -> App {
    App::new()
        .with_schema("emp", &["name", "rate", "hrs", "sal"])
        .with_program(hours())
        .with_program(print_records())
        .with_program(payroll_report())
}

/// `n` employees with random-ish rates, zero hours.
pub fn setup(engine: &Engine, n: usize) {
    engine
        .create_table(semcc_storage::Schema::new("emp", &["name", "rate", "hrs", "sal"], &["name"]))
        .expect("emp table");
    for i in 0..n {
        let rate = 10 + (i as i64 % 5) * 3;
        engine
            .load_row(
                "emp",
                vec![Value::str(format!("emp{i}")), Value::Int(rate), Value::Int(0), Value::Int(0)],
            )
            .expect("emp row");
    }
}

/// Rows violating `I_sal` (names).
pub fn isal_violations(engine: &Engine) -> Vec<String> {
    engine
        .peek_table("emp")
        .expect("emp")
        .into_iter()
        .filter_map(|(_, row)| {
            let rate = row[1].as_int()?;
            let hrs = row[2].as_int()?;
            let sal = row[3].as_int()?;
            (rate * hrs != sal).then(|| row[0].as_str().unwrap_or("?").to_string())
        })
        .collect()
}

/// Bindings for one request of the payroll program named `program` over
/// `n` employees: the employee, then (for `Hours`) the hours worked.
pub fn bindings(program: &str, n: usize, rng: &mut impl Rng) -> Bindings {
    let mut emp = || format!("emp{}", rng.gen_range(0..n));
    match program {
        "Hours" => Bindings::new().set("emp", emp()).set("h", rng.gen_range(1..9) as i64),
        "Print_Records" => Bindings::new().set("emp", emp()),
        _ => Bindings::new(),
    }
}

/// One attempt of a random payroll transaction: `Hours` and
/// `Print_Records` in a 2:1 mix over `n` employees. `programs` is
/// [`app`]'s, in its order; `levels` maps a program name to its level.
pub fn random_txn(
    engine: &Arc<Engine>,
    programs: &[Program],
    levels: &dyn Fn(&str) -> IsolationLevel,
    n: usize,
    rng: &mut impl Rng,
) -> Result<(), EngineError> {
    let program = &programs[if rng.gen_range(0..3) < 2 { 0 } else { 1 }];
    let bindings = bindings(&program.name, n, rng);
    run_program(engine, program, levels(&program.name), &bindings).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_mix, MixSpec, RetryPolicy};
    use semcc_engine::EngineConfig;
    use std::time::Duration;

    fn engine() -> Arc<Engine> {
        Arc::new(Engine::new(EngineConfig {
            lock_timeout: Duration::from_millis(300),
            record_history: false,
            faults: None,
            wal: None,
        }))
    }

    #[test]
    fn hours_preserves_isal_end_to_end() {
        let e = engine();
        setup(&e, 3);
        run_program(
            &e,
            &hours(),
            IsolationLevel::ReadCommitted,
            &Bindings::new().set("emp", "emp1").set("h", 8),
        )
        .expect("runs");
        assert!(isal_violations(&e).is_empty());
        let emp = e.peek_table("emp").expect("emp");
        let row = &emp.iter().find(|(_, r)| r[0] == Value::str("emp1")).expect("emp1").1;
        assert_eq!(row[2], Value::Int(8));
        assert_eq!(row[3].as_int(), row[1].as_int().map(|r| r * 8));
    }

    #[test]
    fn print_records_sees_consistent_row_at_rc() {
        let e = engine();
        setup(&e, 2);
        run_program(
            &e,
            &hours(),
            IsolationLevel::ReadCommitted,
            &Bindings::new().set("emp", "emp0").set("h", 5),
        )
        .expect("hours");
        let out = run_program(
            &e,
            &print_records(),
            IsolationLevel::ReadCommitted,
            &Bindings::new().set("emp", "emp0"),
        )
        .expect("print");
        let buf = out.buffers.get("record").expect("buffer");
        assert_eq!(buf.len(), 1);
        let row = &buf[0].1;
        assert_eq!(
            row[1].as_int().map(|r| r * row[2].as_int().expect("hrs")),
            row[3].as_int(),
            "printed record is internally consistent"
        );
    }

    #[test]
    fn dirty_read_exposes_broken_invariant_at_ru() {
        // The Example 2 hazard, dynamically: a reader at RU can observe the
        // state between Hours' two updates.
        let e = engine();
        setup(&e, 1);
        // Run the first half of Hours manually and pause.
        let mut t = e.begin(IsolationLevel::ReadCommitted);
        let bump = |row: &Vec<Value>| {
            let mut r = row.clone();
            r[2] = Value::Int(r[2].as_int().expect("hrs") + 8);
            r
        };
        t.update_where("emp", &RowPred::field_eq_str("name", "emp0"), &bump).expect("first update");
        // RU reader sees rate*hrs != sal
        let mut ru = e.begin(IsolationLevel::ReadUncommitted);
        let rows = ru.select("emp", &RowPred::field_eq_str("name", "emp0")).expect("select");
        let row = &rows[0].1;
        assert_ne!(
            row[1].as_int().map(|r| r * row[2].as_int().expect("hrs")),
            row[3].as_int(),
            "RU observed the intermediate inconsistent record"
        );
        ru.abort();
        t.abort();
        assert!(isal_violations(&e).is_empty(), "rollback restored consistency");
    }

    #[test]
    fn concurrent_hours_and_prints_keep_isal_at_rc() {
        let e = engine();
        setup(&e, 4);
        let programs = app().programs;
        let policy = RetryPolicy {
            max_attempts: 51,
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        let spec = MixSpec { threads: 4, txns_per_thread: 25, seed: 5 };
        let stats = run_mix(spec, &policy, |_, rng| {
            random_txn(&e, &programs, &|_| IsolationLevel::ReadCommitted, 4, rng)
        });
        assert_eq!(stats.committed, 100, "retries absorbed every abort");
        assert!(isal_violations(&e).is_empty());
    }
}
