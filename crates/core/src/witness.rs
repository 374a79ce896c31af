//! Executable refutation witnesses.
//!
//! A failed non-interference obligation comes with a Fourier–Motzkin
//! counterexample *model* — a variable assignment under which the triple
//! `{P ∧ P'} S {P}` is refuted. That model is static evidence. This module
//! turns it into *dynamic* evidence: an initial database state plus a
//! concrete two-transaction interleaved schedule which, replayed on the
//! real `semcc-engine` at the diagnosed level vector, should exhibit the
//! predicted anomaly.
//!
//! * The initial state seeds every item the two programs touch (values
//!   taken from the FM model where available) and one row per table.
//! * Parameter bindings come from the model: the victim's parameters are
//!   recorded unprefixed (`@w`), the interferer's under a `u$`/`w$` rename.
//! * The schedule places the interferer between the victim's read and the
//!   use of that read, respecting the level's discipline: for a dirty read
//!   the interferer *pauses with an uncommitted write* while the victim
//!   runs; for every other kind the victim pauses before its first write
//!   while the interferer runs to commit.
//!
//! The replay is scored by the independent detectors of `semcc-checker`:
//! a witness is [`WitnessOutcome::Confirmed`] when the replayed history
//! contains the predicted [`AnomalyKind`], and `Unconfirmed` (with a
//! reason) otherwise — e.g. when the engine's locking blocked the
//! interleaving, which is itself evidence the level is safe.

use crate::app::App;
use crate::diag::{Diagnostic, LintReport};
use semcc_checker::detect_anomalies;
use semcc_engine::{AnomalyKind, Engine, EngineConfig, EngineError, IsolationLevel};
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::{Expr, Var};
use semcc_storage::{Schema, Value};
use semcc_txn::interp::Stepper;
use semcc_txn::stmt::{visit_stmts, ItemRef, Stmt};
use semcc_txn::{Bindings, ParamKind, Program};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Key value used for the seeded row of every table (string-typed columns
/// and string parameters are all bound to it so filters match the row).
pub const SEED_KEY: &str = "w0";

/// How a replayed witness scored against its prediction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WitnessOutcome {
    /// The replay exhibited the predicted anomaly.
    Confirmed,
    /// It did not; the string says why (blocked schedule, no anomaly, …).
    Unconfirmed(String),
}

/// One executable refutation witness: the concrete run backing (or failing
/// to back) a lint diagnostic.
#[derive(Clone, Debug)]
pub struct Witness {
    /// Diagnostic code this witness backs (e.g. `SEMCC-W002`).
    pub code: String,
    /// Predicted anomaly.
    pub kind: AnomalyKind,
    /// Victim transaction type.
    pub victim: String,
    /// Level the victim ran at.
    pub victim_level: IsolationLevel,
    /// Interfering transaction type.
    pub interferer: String,
    /// Level the interferer ran at.
    pub interferer_level: IsolationLevel,
    /// Seeded initial state, `name → value` (items and rows).
    pub initial_state: Vec<(String, String)>,
    /// Victim parameter bindings used.
    pub victim_bindings: Vec<(String, String)>,
    /// Interferer parameter bindings used.
    pub interferer_bindings: Vec<(String, String)>,
    /// Human-readable interleaving, one line per scheduling step.
    pub schedule: Vec<String>,
    /// Replay verdict.
    pub outcome: WitnessOutcome,
}

impl Witness {
    /// Whether the replay exhibited the predicted anomaly.
    pub fn confirmed(&self) -> bool {
        self.outcome == WitnessOutcome::Confirmed
    }

    /// Multi-line human rendering.
    pub fn render(&self) -> String {
        let verdict = match &self.outcome {
            WitnessOutcome::Confirmed => "CONFIRMED".to_string(),
            WitnessOutcome::Unconfirmed(why) => format!("UNCONFIRMED ({why})"),
        };
        let mut out = format!(
            "{} [{}] {}@{} vs {}@{}: {}",
            self.code,
            self.kind,
            self.victim,
            self.victim_level,
            self.interferer,
            self.interferer_level,
            verdict
        );
        if !self.initial_state.is_empty() {
            let state: Vec<String> =
                self.initial_state.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("\n    initial {}", state.join(", ")));
        }
        let binds = |b: &[(String, String)]| {
            b.iter().map(|(k, v)| format!("{k}={v}")).collect::<Vec<_>>().join(", ")
        };
        if !self.victim_bindings.is_empty() {
            out.push_str(&format!("\n    victim({})", binds(&self.victim_bindings)));
        }
        if !self.interferer_bindings.is_empty() {
            out.push_str(&format!("\n    interferer({})", binds(&self.interferer_bindings)));
        }
        for s in &self.schedule {
            out.push_str(&format!("\n    {s}"));
        }
        out
    }
}

/// Replay one witness per lint diagnostic.
pub fn replay_witnesses(app: &App, report: &LintReport) -> Vec<Witness> {
    report.diagnostics.iter().map(|d| replay_witness(app, report, d)).collect()
}

/// Replay the witness for a single diagnostic.
pub fn replay_witness(app: &App, report: &LintReport, diag: &Diagnostic) -> Witness {
    let unconfirmed = |why: &str| Witness {
        code: diag.code.clone(),
        kind: diag.kind,
        victim: diag.txn.clone(),
        victim_level: diag.level,
        interferer: diag.partner.clone().unwrap_or_default(),
        interferer_level: diag.level,
        initial_state: Vec::new(),
        victim_bindings: Vec::new(),
        interferer_bindings: Vec::new(),
        schedule: Vec::new(),
        outcome: WitnessOutcome::Unconfirmed(why.to_string()),
    };
    let Some(victim) = app.program(&diag.txn) else {
        return unconfirmed("victim program not found");
    };
    let interferer_name = match &diag.partner {
        Some(p) => p.clone(),
        None => match pick_interferer(app, victim) {
            Some(n) => n,
            None => return unconfirmed("no interfering program writes the victim's footprint"),
        },
    };
    let Some(interferer) = app.program(&interferer_name) else {
        return unconfirmed("interfering program not found");
    };
    // A write-skew diagnostic is about *both* participants running at the
    // diagnosed level; otherwise the interferer runs at its linted level.
    let interferer_level = if diag.kind == AnomalyKind::WriteSkew {
        diag.level
    } else {
        report
            .levels
            .iter()
            .find(|(n, _)| *n == interferer_name)
            .map(|(_, l)| *l)
            .unwrap_or(diag.level)
    };

    // First attempt uses the FM model for the initial state and parameters;
    // if that replay does not confirm, retry once with neutral defaults
    // (the model describes a mid-execution state and occasionally pins a
    // guard the wrong way when used as an *initial* state).
    let mut best: Option<Witness> = None;
    for strategy in [Strategy::Model, Strategy::Defaults] {
        let w = attempt(app, diag, victim, interferer, interferer_level, strategy);
        let done = w.confirmed();
        if best.is_none() || done {
            best = Some(w);
        }
        if done {
            break;
        }
    }
    best.unwrap_or_else(|| unconfirmed("replay produced no result"))
}

#[derive(Clone, Copy, PartialEq)]
enum Strategy {
    /// Initial items and parameters from the FM counterexample model.
    Model,
    /// Neutral defaults: items 100, integer parameters 1.
    Defaults,
}

fn attempt(
    app: &App,
    diag: &Diagnostic,
    victim: &Program,
    interferer: &Program,
    interferer_level: IsolationLevel,
    strategy: Strategy,
) -> Witness {
    let index_params = index_param_names(&[victim, interferer]);
    let (vb, victim_bindings) =
        bindings_for(victim, Role::Victim, &diag.counterexample, strategy, &index_params);
    let (ib, interferer_bindings) =
        bindings_for(interferer, Role::Interferer, &diag.counterexample, strategy, &index_params);

    let engine = Arc::new(Engine::new(EngineConfig {
        // One thread steps both transactions, so a lock that is not free now
        // can never be granted: a blocked acquire times out at once.
        lock_timeout: Duration::ZERO,
        record_history: true,
        faults: None,
        wal: None,
    }));
    let initial_state =
        match seed(&engine, app, &[victim, interferer], &diag.counterexample, strategy) {
            Ok(s) => s,
            Err(e) => {
                return Witness {
                    code: diag.code.clone(),
                    kind: diag.kind,
                    victim: diag.txn.clone(),
                    victim_level: diag.level,
                    interferer: interferer.name.clone(),
                    interferer_level,
                    initial_state: Vec::new(),
                    victim_bindings,
                    interferer_bindings,
                    schedule: Vec::new(),
                    outcome: WitnessOutcome::Unconfirmed(format!("setup failed: {e}")),
                };
            }
        };
    // The seeding transaction is not part of the witness schedule.
    engine.history().clear();

    let mut schedule = Vec::new();
    let replayed = replay(
        &engine,
        victim,
        diag.level,
        &vb,
        interferer,
        interferer_level,
        &ib,
        diag.kind,
        &mut schedule,
    );
    let outcome = match replayed {
        Err(e) => WitnessOutcome::Unconfirmed(format!("schedule blocked by the engine: {e}")),
        Ok(()) => {
            let anomalies = detect_anomalies(&engine.history().events());
            if anomalies.iter().any(|a| a.kind == diag.kind) {
                WitnessOutcome::Confirmed
            } else if anomalies.is_empty() {
                WitnessOutcome::Unconfirmed("replay ran clean".to_string())
            } else {
                let kinds: Vec<String> = anomalies.iter().map(|a| a.kind.to_string()).collect();
                WitnessOutcome::Unconfirmed(format!(
                    "replay exhibited {} instead",
                    kinds.join(", ")
                ))
            }
        }
    };
    Witness {
        code: diag.code.clone(),
        kind: diag.kind,
        victim: diag.txn.clone(),
        victim_level: diag.level,
        interferer: interferer.name.clone(),
        interferer_level,
        initial_state,
        victim_bindings,
        interferer_bindings,
        schedule,
        outcome,
    }
}

/// Run the two-transaction interleaving for `kind`, appending a
/// description of each scheduling step to `schedule`.
#[allow(clippy::too_many_arguments)]
fn replay(
    engine: &Arc<Engine>,
    victim: &Program,
    victim_level: IsolationLevel,
    vb: &Bindings,
    interferer: &Program,
    interferer_level: IsolationLevel,
    ib: &Bindings,
    kind: AnomalyKind,
    schedule: &mut Vec<String>,
) -> Result<(), EngineError> {
    if kind == AnomalyKind::DirtyRead {
        // Interferer pauses holding an uncommitted write *the victim can
        // see*: the pause point is the first statement writing into the
        // victim's read footprint (its first write at all, failing that).
        // The victim runs to completion across the dirty state, then the
        // interferer finishes and commits.
        let Some(iw) = dirty_pause_idx(interferer, victim) else {
            schedule.push(format!("{} has no database write", interferer.name));
            return Ok(());
        };
        let mut i = Stepper::begin(engine, interferer, interferer_level, ib);
        schedule.push(format!("{}@{} begins", interferer.name, interferer_level));
        i.run_until(iw + 1)?;
        schedule.push(format!(
            "{} executes statements 0..{} (write pending, uncommitted)",
            interferer.name,
            iw + 1
        ));
        let v = Stepper::begin(engine, victim, victim_level, vb);
        schedule.push(format!("{}@{} begins", victim.name, victim_level));
        let ts = v.finish()?.commit_ts;
        schedule.push(format!("{} runs to completion and commits at ts {ts}", victim.name));
        let ts = i.finish()?.commit_ts;
        schedule.push(format!("{} finishes and commits at ts {ts}", interferer.name));
    } else {
        // Victim pauses between its reads and its first write (after its
        // first read when it never writes); the interferer runs to commit
        // in the window; the victim resumes.
        let pause =
            first_write_idx(victim).or_else(|| first_read_idx(victim).map(|i| i + 1)).unwrap_or(0);
        let mut v = Stepper::begin(engine, victim, victim_level, vb);
        schedule.push(format!("{}@{} begins", victim.name, victim_level));
        v.run_until(pause)?;
        schedule.push(format!("{} executes statements 0..{pause} then pauses", victim.name));
        let i = Stepper::begin(engine, interferer, interferer_level, ib);
        schedule.push(format!("{}@{} begins", interferer.name, interferer_level));
        let ts = i.finish()?.commit_ts;
        schedule.push(format!("{} runs to completion and commits at ts {ts}", interferer.name));
        let ts = v.finish()?.commit_ts;
        schedule.push(format!("{} resumes and commits at ts {ts}", victim.name));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Initial state and binding synthesis
// ---------------------------------------------------------------------------

/// Look up a model value for `name` recorded under the victim's namespace.
fn model_victim(cex: &[(String, i64)], name: &str) -> Option<i64> {
    let want = format!("@{name}");
    cex.iter().find(|(n, _)| *n == want).map(|(_, v)| *v)
}

/// Look up a model value for `name` recorded under the interferer's
/// rename (`u$`/`w$` prefix applied by the unit/snapshot counterexamples).
fn model_interferer(cex: &[(String, i64)], name: &str) -> Option<i64> {
    for prefix in ["u$", "w$"] {
        let want = format!("@{prefix}{name}");
        if let Some((_, v)) = cex.iter().find(|(n, _)| *n == want) {
            return Some(*v);
        }
    }
    None
}

/// Look up a model value for a database item base name.
fn model_db(cex: &[(String, i64)], base: &str) -> Option<i64> {
    cex.iter().find(|(n, _)| n == base).map(|(_, v)| *v)
}

#[derive(Clone, Copy)]
enum Role {
    Victim,
    Interferer,
}

/// Bind every declared parameter of `p`: strings to the seeded row key,
/// index parameters to account 0, other integers from the FM model (or 1).
fn bindings_for(
    p: &Program,
    role: Role,
    cex: &[(String, i64)],
    strategy: Strategy,
    index_params: &BTreeSet<String>,
) -> (Bindings, Vec<(String, String)>) {
    let mut b = Bindings::new();
    let mut shown = Vec::new();
    for (name, kind) in &p.params {
        let value = match kind {
            ParamKind::Str => Value::str(SEED_KEY),
            ParamKind::Int if index_params.contains(name) => Value::Int(0),
            ParamKind::Int => {
                let model = match (strategy, role) {
                    (Strategy::Model, Role::Victim) => model_victim(cex, name),
                    (Strategy::Model, Role::Interferer) => model_interferer(cex, name),
                    (Strategy::Defaults, _) => None,
                };
                Value::Int(model.unwrap_or(1))
            }
        };
        shown.push((name.clone(), value.to_string()));
        b = b.set(name.clone(), value);
    }
    (b, shown)
}

/// Parameters used inside any item index expression of the programs: both
/// transactions are pinned to the same index so their item accesses alias.
fn index_param_names(programs: &[&Program]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for p in programs {
        visit_stmts(&p.body, &mut |a| {
            let item = match &a.stmt {
                Stmt::ReadItem { item, .. }
                | Stmt::WriteItem { item, .. }
                | Stmt::WriteItemMax { item, .. } => item,
                _ => return,
            };
            if let Some(idx) = &item.index {
                for v in idx.vars() {
                    if let Var::Param(n) = v {
                        out.insert(n);
                    }
                }
            }
        });
    }
    out
}

/// Create every item and table the two programs touch. Items get their FM
/// model value (or 100); each table gets one row whose string columns hold
/// [`SEED_KEY`] and whose integer columns hold 0.
fn seed(
    engine: &Arc<Engine>,
    app: &App,
    programs: &[&Program],
    cex: &[(String, i64)],
    strategy: Strategy,
) -> Result<Vec<(String, String)>, EngineError> {
    let mut shown = Vec::new();
    let mut items: BTreeSet<(String, String)> = BTreeSet::new();
    let mut tables: BTreeSet<String> = BTreeSet::new();
    for p in programs {
        visit_stmts(&p.body, &mut |a| match &a.stmt {
            Stmt::ReadItem { item, .. }
            | Stmt::WriteItem { item, .. }
            | Stmt::WriteItemMax { item, .. } => {
                items.insert((item.base.clone(), resolve_seed_item(item)));
            }
            Stmt::Select { table, .. }
            | Stmt::SelectCount { table, .. }
            | Stmt::SelectValue { table, .. }
            | Stmt::Update { table, .. }
            | Stmt::Insert { table, .. }
            | Stmt::Delete { table, .. } => {
                tables.insert(table.clone());
            }
            _ => {}
        });
    }
    for (base, name) in &items {
        let value = match strategy {
            Strategy::Model => model_db(cex, base).unwrap_or(100),
            Strategy::Defaults => 100,
        };
        engine.create_item(name.clone(), value)?;
        shown.push((name.clone(), value.to_string()));
    }
    if !tables.is_empty() {
        let str_cols = string_columns(app);
        let mut t = engine.begin(IsolationLevel::Serializable);
        for table in &tables {
            let Some(cols) = app.columns(table) else { continue };
            let key: &str = cols.first().map(String::as_str).unwrap_or("id");
            engine
                .create_table(Schema::new(
                    table.clone(),
                    &cols.iter().map(String::as_str).collect::<Vec<_>>(),
                    &[key],
                ))
                .map_err(EngineError::from)?;
            let row: Vec<Value> = cols
                .iter()
                .map(|c| {
                    if str_cols.contains(&(table.clone(), c.clone())) {
                        Value::str(SEED_KEY)
                    } else {
                        Value::Int(0)
                    }
                })
                .collect();
            let desc: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            t.insert(table, row)?;
            shown.push((format!("{table} row"), format!("({})", desc.join(", "))));
        }
        t.commit()?;
    }
    Ok(shown)
}

/// Seed `engine` with neutral defaults for everything `programs` touch:
/// every item at 100, one row per table (string columns [`SEED_KEY`],
/// integer columns 0). Returns the seeded state as `name → value` pairs.
/// This is the `Strategy::Defaults` half of the witness replayer's
/// seeding, exported for the schedule-space explorer, which needs the
/// *same* initial state on every replayed interleaving.
pub fn seed_neutral(
    engine: &Arc<Engine>,
    app: &App,
    programs: &[&Program],
) -> Result<Vec<(String, String)>, EngineError> {
    seed(engine, app, programs, &[], Strategy::Defaults)
}

/// Neutral parameter bindings for each program, positionally: strings to
/// [`SEED_KEY`], item-index parameters to 0 (so all programs alias the
/// same slot), other integers to 1 — the bindings matching
/// [`seed_neutral`]'s initial state.
pub fn neutral_bindings(programs: &[&Program]) -> Vec<Bindings> {
    let index_params = index_param_names(programs);
    programs
        .iter()
        .map(|p| bindings_for(p, Role::Victim, &[], Strategy::Defaults, &index_params).0)
        .collect()
}

/// Concrete engine item name for the seeded state: indexed refs pin to
/// slot 0 (all index parameters are bound to 0).
fn resolve_seed_item(item: &ItemRef) -> String {
    match &item.index {
        Some(_) => format!("{}[0]", item.base),
        None => item.base.clone(),
    }
}

/// Columns that hold strings, inferred from every program in the app:
/// a column compared to (or inserted from) a string literal or a
/// string-typed parameter is a string column.
fn string_columns(app: &App) -> BTreeSet<(String, String)> {
    let mut out = BTreeSet::new();
    for p in &app.programs {
        let is_str_term = |e: &RowExpr| match e {
            RowExpr::Str(_) => true,
            RowExpr::Outer(Expr::Var(Var::Param(n))) => {
                p.params.iter().any(|(pn, k)| pn == n && *k == ParamKind::Str)
            }
            _ => false,
        };
        visit_stmts(&p.body, &mut |a| match &a.stmt {
            Stmt::Select { table, filter, .. }
            | Stmt::SelectCount { table, filter, .. }
            | Stmt::SelectValue { table, filter, .. }
            | Stmt::Update { table, filter, .. }
            | Stmt::Delete { table, filter } => {
                collect_str_cols(table, filter, &is_str_term, &mut out);
            }
            Stmt::Insert { table, values } => {
                let Some(cols) = app.columns(table) else { return };
                for (c, v) in cols.iter().zip(values) {
                    if is_str_term(v) {
                        out.insert((table.clone(), c.clone()));
                    }
                }
            }
            _ => {}
        });
    }
    out
}

fn collect_str_cols(
    table: &str,
    pred: &RowPred,
    is_str_term: &dyn Fn(&RowExpr) -> bool,
    out: &mut BTreeSet<(String, String)>,
) {
    match pred {
        RowPred::True | RowPred::False => {}
        RowPred::Cmp(_, a, b) => {
            for (field, other) in [(a, b), (b, a)] {
                let RowExpr::Field(c) = field else { continue };
                if is_str_term(other) {
                    out.insert((table.to_string(), c.clone()));
                }
            }
        }
        RowPred::Not(p) => collect_str_cols(table, p, is_str_term, out),
        RowPred::And(ps) | RowPred::Or(ps) => {
            for p in ps {
                collect_str_cols(table, p, is_str_term, out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Program-shape helpers
// ---------------------------------------------------------------------------

/// Whether the statement (including nested blocks) writes the database.
fn contains_write(s: &Stmt) -> bool {
    if s.is_db_write() {
        return true;
    }
    match s {
        Stmt::If { then_branch, else_branch, .. } => {
            then_branch.iter().chain(else_branch.iter()).any(|a| contains_write(&a.stmt))
        }
        Stmt::While { body, .. } => body.iter().any(|a| contains_write(&a.stmt)),
        _ => false,
    }
}

/// Index of the first top-level statement that may write the database.
fn first_write_idx(p: &Program) -> Option<usize> {
    p.body.iter().position(|a| contains_write(&a.stmt))
}

/// Write targets (item bases and table names) of one statement, including
/// nested branches and loop bodies.
fn stmt_writes(s: &Stmt, out: &mut BTreeSet<String>) {
    match s {
        Stmt::WriteItem { item, .. } | Stmt::WriteItemMax { item, .. } => {
            out.insert(item.base.clone());
        }
        Stmt::Update { table, .. } | Stmt::Insert { table, .. } | Stmt::Delete { table, .. } => {
            out.insert(table.clone());
        }
        Stmt::If { then_branch, else_branch, .. } => {
            for a in then_branch.iter().chain(else_branch.iter()) {
                stmt_writes(&a.stmt, out);
            }
        }
        Stmt::While { body, .. } => {
            for a in body {
                stmt_writes(&a.stmt, out);
            }
        }
        _ => {}
    }
}

/// Where the interferer should pause for a dirty-read schedule: after its
/// first statement writing something the victim reads, so the pending
/// write is actually visible to the victim's scan. Falls back to the
/// interferer's first write of any kind.
fn dirty_pause_idx(interferer: &Program, victim: &Program) -> Option<usize> {
    let reads = footprint(victim, false);
    interferer
        .body
        .iter()
        .position(|a| {
            let mut w = BTreeSet::new();
            stmt_writes(&a.stmt, &mut w);
            w.iter().any(|b| reads.contains(b))
        })
        .or_else(|| first_write_idx(interferer))
}

/// Index of the first top-level statement that reads the database.
fn first_read_idx(p: &Program) -> Option<usize> {
    p.body.iter().position(|a| a.stmt.is_db_read())
}

/// Database footprint (item bases + table names) of a program.
fn footprint(p: &Program, writes: bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    visit_stmts(&p.body, &mut |a| match &a.stmt {
        Stmt::ReadItem { item, .. } if !writes => {
            out.insert(item.base.clone());
        }
        Stmt::WriteItem { item, .. } | Stmt::WriteItemMax { item, .. } if writes => {
            out.insert(item.base.clone());
        }
        Stmt::Select { table, .. }
        | Stmt::SelectCount { table, .. }
        | Stmt::SelectValue { table, .. }
            if !writes =>
        {
            out.insert(table.clone());
        }
        Stmt::Update { table, .. } | Stmt::Insert { table, .. } | Stmt::Delete { table, .. }
            if writes =>
        {
            out.insert(table.clone());
        }
        _ => {}
    });
    out
}

/// Fallback interferer when the diagnostic names no partner: the first
/// program whose writes overlap the victim's footprint (itself included).
fn pick_interferer(app: &App, victim: &Program) -> Option<String> {
    let mut touched = footprint(victim, false);
    touched.extend(footprint(victim, true));
    app.programs
        .iter()
        .find(|q| footprint(q, true).iter().any(|b| touched.contains(b)))
        .map(|q| q.name.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::code_for;
    use semcc_logic::Pred;
    use semcc_txn::ProgramBuilder;

    fn diag(kind: AnomalyKind, level: IsolationLevel, txn: &str, partner: &str) -> Diagnostic {
        Diagnostic {
            code: code_for(kind).to_string(),
            kind,
            level,
            txn: txn.to_string(),
            partner: Some(partner.to_string()),
            statements: Vec::new(),
            provenance: Vec::new(),
            counterexample: Vec::new(),
            message: String::new(),
        }
    }

    fn report(levels: &[(&str, IsolationLevel)]) -> LintReport {
        LintReport {
            levels: levels.iter().map(|(n, l)| (n.to_string(), *l)).collect(),
            levels_assigned: false,
            exposures: Vec::new(),
            dangerous: Vec::new(),
            edges: Vec::new(),
            diagnostics: Vec::new(),
        }
    }

    fn reader() -> Program {
        ProgramBuilder::new("Reader")
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() },
                Pred::True,
                Pred::True,
            )
            .build()
    }

    fn incr(item: &str) -> Program {
        ProgramBuilder::new(format!("Incr_{item}"))
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain(item), into: "B".into() },
                Pred::True,
                Pred::True,
            )
            .stmt(
                Stmt::WriteItem {
                    item: ItemRef::plain(item),
                    value: Expr::local("B").add(Expr::int(1)),
                },
                Pred::True,
                Pred::True,
            )
            .build()
    }

    /// Read both items, write one — the write-skew shape.
    fn skew(mine: &str, other: &str) -> Program {
        ProgramBuilder::new(format!("Skew_{mine}"))
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain(mine), into: "A".into() },
                Pred::True,
                Pred::True,
            )
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain(other), into: "B".into() },
                Pred::True,
                Pred::True,
            )
            .stmt(
                Stmt::WriteItem {
                    item: ItemRef::plain(mine),
                    value: Expr::local("A").sub(Expr::int(1)),
                },
                Pred::True,
                Pred::True,
            )
            .build()
    }

    #[test]
    fn dirty_read_witness_confirms_at_ru() {
        let app = App::new().with_program(reader()).with_program(incr("x"));
        let d = diag(AnomalyKind::DirtyRead, IsolationLevel::ReadUncommitted, "Reader", "Incr_x");
        let r = report(&[
            ("Reader", IsolationLevel::ReadUncommitted),
            ("Incr_x", IsolationLevel::ReadCommitted),
        ]);
        let w = replay_witness(&app, &r, &d);
        assert!(w.confirmed(), "{}", w.render());
    }

    #[test]
    fn dirty_read_witness_unconfirmed_at_rc() {
        // Same schedule shape, but the victim reads at READ COMMITTED and
        // therefore cannot observe the pending write.
        let app = App::new().with_program(reader()).with_program(incr("x"));
        let d = diag(AnomalyKind::DirtyRead, IsolationLevel::ReadCommitted, "Reader", "Incr_x");
        let r = report(&[
            ("Reader", IsolationLevel::ReadCommitted),
            ("Incr_x", IsolationLevel::ReadCommitted),
        ]);
        let w = replay_witness(&app, &r, &d);
        assert!(!w.confirmed(), "{}", w.render());
    }

    #[test]
    fn lost_update_witness_confirms_at_rc() {
        let app = App::new().with_program(incr("x"));
        let d = diag(AnomalyKind::LostUpdate, IsolationLevel::ReadCommitted, "Incr_x", "Incr_x");
        let r = report(&[("Incr_x", IsolationLevel::ReadCommitted)]);
        let w = replay_witness(&app, &r, &d);
        assert!(w.confirmed(), "{}", w.render());
    }

    #[test]
    fn write_skew_witness_confirms_at_snapshot() {
        let app = App::new().with_program(skew("a", "b")).with_program(skew("b", "a"));
        let d = diag(AnomalyKind::WriteSkew, IsolationLevel::Snapshot, "Skew_a", "Skew_b");
        let r =
            report(&[("Skew_a", IsolationLevel::Snapshot), ("Skew_b", IsolationLevel::Snapshot)]);
        let w = replay_witness(&app, &r, &d);
        assert!(w.confirmed(), "{}", w.render());
    }

    #[test]
    fn serializable_blocks_the_lost_update_schedule() {
        let app = App::new().with_program(incr("x"));
        let d = diag(AnomalyKind::LostUpdate, IsolationLevel::Serializable, "Incr_x", "Incr_x");
        let r = report(&[("Incr_x", IsolationLevel::Serializable)]);
        let w = replay_witness(&app, &r, &d);
        assert!(!w.confirmed(), "{}", w.render());
    }
}
