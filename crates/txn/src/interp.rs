//! Interpreter: execute an annotated program against the engine.

use crate::colexpr::ColExpr;
use crate::evalpred::{eval_expr, eval_pred, no_atoms};
use crate::program::{Bindings, Program};
use crate::stmt::{AStmt, ItemRef, Stmt};
use semcc_engine::{Engine, EngineError, FaultKind, IsolationLevel, Txn};
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::Var;
use semcc_storage::{Row, RowId, Table, Ts, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// Safety bound on loop iterations.
const MAX_LOOP_ITERS: usize = 1_000_000;

/// The result of a successful program run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Commit timestamp.
    pub commit_ts: Ts,
    /// Final local-variable values.
    pub locals: HashMap<String, Value>,
    /// Final SELECT buffers.
    pub buffers: HashMap<String, Vec<(RowId, Row)>>,
}

struct Frame<'p> {
    bindings: &'p Bindings,
    locals: HashMap<String, Value>,
    buffers: HashMap<String, Vec<(RowId, Row)>>,
}

impl Frame<'_> {
    fn lookup(&self, v: &Var) -> Option<Value> {
        match v {
            Var::Local(n) => self.locals.get(n).cloned(),
            Var::Param(n) => self.bindings.get(n).cloned(),
            _ => None,
        }
    }
}

/// Bind a row predicate's `Outer` terms to concrete literals using the
/// current frame. Unbound outers are an error (they would silently match
/// nothing).
fn bind_row_pred(p: &RowPred, frame: &Frame<'_>) -> Result<RowPred, EngineError> {
    fn bind_expr(t: &RowExpr, frame: &Frame<'_>) -> Result<RowExpr, EngineError> {
        match t {
            RowExpr::Outer(e) => {
                let env = |v: &Var| frame.lookup(v);
                match eval_expr(e, &env) {
                    Some(Value::Int(i)) => Ok(RowExpr::Int(i)),
                    Some(Value::Str(s)) => Ok(RowExpr::Str(s)),
                    None => Err(EngineError::Invalid(format!("unbound outer expression {e}"))),
                }
            }
            RowExpr::Add(a, b) => {
                Ok(RowExpr::Add(Box::new(bind_expr(a, frame)?), Box::new(bind_expr(b, frame)?)))
            }
            RowExpr::Sub(a, b) => {
                Ok(RowExpr::Sub(Box::new(bind_expr(a, frame)?), Box::new(bind_expr(b, frame)?)))
            }
            RowExpr::Mul(a, b) => {
                Ok(RowExpr::Mul(Box::new(bind_expr(a, frame)?), Box::new(bind_expr(b, frame)?)))
            }
            other => Ok(other.clone()),
        }
    }
    Ok(match p {
        RowPred::True => RowPred::True,
        RowPred::False => RowPred::False,
        RowPred::Cmp(op, a, b) => RowPred::Cmp(*op, bind_expr(a, frame)?, bind_expr(b, frame)?),
        RowPred::Not(q) => RowPred::not(bind_row_pred(q, frame)?),
        RowPred::And(ps) => {
            RowPred::and(ps.iter().map(|q| bind_row_pred(q, frame)).collect::<Result<Vec<_>, _>>()?)
        }
        RowPred::Or(ps) => {
            RowPred::or(ps.iter().map(|q| bind_row_pred(q, frame)).collect::<Result<Vec<_>, _>>()?)
        }
    })
}

/// Resolve an item reference to a concrete item name.
fn resolve_item(item: &ItemRef, frame: &Frame<'_>) -> Result<String, EngineError> {
    match &item.index {
        None => Ok(item.base.clone()),
        Some(idx) => {
            let env = |v: &Var| frame.lookup(v);
            match eval_expr(idx, &env) {
                Some(Value::Int(i)) => Ok(format!("{}[{}]", item.base, i)),
                Some(Value::Str(s)) => Ok(format!("{}[{}]", item.base, s)),
                None => Err(EngineError::Invalid(format!("unbound item index {idx}"))),
            }
        }
    }
}

fn exec_block(txn: &mut Txn, block: &[AStmt], frame: &mut Frame<'_>) -> Result<(), EngineError> {
    for a in block {
        exec_stmt(txn, &a.stmt, frame)?;
    }
    Ok(())
}

fn exec_stmt(txn: &mut Txn, stmt: &Stmt, frame: &mut Frame<'_>) -> Result<(), EngineError> {
    match stmt {
        Stmt::ReadItem { item, into } => {
            let name = resolve_item(item, frame)?;
            let v = txn.read(&name)?;
            frame.locals.insert(into.clone(), v);
        }
        Stmt::WriteItem { item, value } => {
            let name = resolve_item(item, frame)?;
            let env = |v: &Var| frame.lookup(v);
            let v = eval_expr(value, &env)
                .ok_or_else(|| EngineError::Invalid(format!("unbound value {value}")))?;
            txn.write(&name, v)?;
        }
        Stmt::WriteItemMax { item, value } => {
            let name = resolve_item(item, frame)?;
            let env = |v: &Var| frame.lookup(v);
            let floor = match eval_expr(value, &env) {
                Some(Value::Int(i)) => i,
                Some(other) => {
                    return Err(EngineError::Invalid(format!("non-integer max floor {other:?}")))
                }
                None => return Err(EngineError::Invalid(format!("unbound value {value}"))),
            };
            txn.write_max(&name, floor)?;
        }
        Stmt::LocalAssign { local, value } => {
            let env = |v: &Var| frame.lookup(v);
            let v = eval_expr(value, &env)
                .ok_or_else(|| EngineError::Invalid(format!("unbound value {value}")))?;
            frame.locals.insert(local.clone(), v);
        }
        Stmt::If { guard, then_branch, else_branch } => {
            let env = |v: &Var| frame.lookup(v);
            match eval_pred(guard, &env, &no_atoms) {
                Some(true) => exec_block(txn, then_branch, frame)?,
                Some(false) => exec_block(txn, else_branch, frame)?,
                None => return Err(EngineError::Invalid(format!("undecidable guard {guard}"))),
            }
        }
        Stmt::While { guard, body } => {
            let mut iters = 0;
            loop {
                let env = |v: &Var| frame.lookup(v);
                match eval_pred(guard, &env, &no_atoms) {
                    Some(true) => {
                        exec_block(txn, body, frame)?;
                        iters += 1;
                        if iters > MAX_LOOP_ITERS {
                            return Err(EngineError::Invalid("runaway loop".into()));
                        }
                    }
                    Some(false) => break,
                    None => return Err(EngineError::Invalid(format!("undecidable guard {guard}"))),
                }
            }
        }
        Stmt::Select { table, filter, into } => {
            let bound = bind_row_pred(filter, frame)?;
            let rows = txn.select(table, &bound)?;
            frame.buffers.insert(into.clone(), rows);
        }
        Stmt::SelectCount { table, filter, into } => {
            let bound = bind_row_pred(filter, frame)?;
            let n = txn.count(table, &bound)?;
            frame.locals.insert(into.clone(), Value::Int(n));
        }
        Stmt::SelectValue { table, filter, column, into } => {
            let bound = bind_row_pred(filter, frame)?;
            let rows = txn.select(table, &bound)?;
            let (_, row) = rows
                .first()
                .ok_or_else(|| EngineError::Invalid(format!("empty SELECT INTO on {table}")))?;
            let idx = txn_table(txn, table)?.schema.column_index(column)?;
            frame.locals.insert(into.clone(), row[idx].clone());
        }
        Stmt::Update { table, filter, sets } => {
            let bound = bind_row_pred(filter, frame)?;
            let t = txn_table(txn, table)?;
            let set_idx: Vec<(usize, &ColExpr)> = sets
                .iter()
                .map(|(c, e)| t.schema.column_index(c).map(|i| (i, e)))
                .collect::<Result<Vec<_>, _>>()?;
            let env = |v: &Var| frame.lookup(v);
            let f = |old: &Row| -> Row {
                let mut new = old.clone();
                for (i, e) in &set_idx {
                    if let Some(v) = e.eval(&t.schema, Some(old), &env) {
                        new[*i] = v;
                    }
                }
                new
            };
            txn.update_where(table, &bound, &f)?;
        }
        Stmt::Insert { table, values } => {
            let t = txn_table(txn, table)?;
            let env = |v: &Var| frame.lookup(v);
            let row: Row = values
                .iter()
                .map(|e| {
                    e.eval(&t.schema, None, &env)
                        .ok_or_else(|| EngineError::Invalid(format!("unbound insert value {e}")))
                })
                .collect::<Result<Vec<_>, _>>()?;
            txn.insert(table, row)?;
        }
        Stmt::Delete { table, filter } => {
            let bound = bind_row_pred(filter, frame)?;
            txn.delete_where(table, &bound)?;
        }
        Stmt::Pause { micros } => {
            std::thread::sleep(std::time::Duration::from_micros(*micros));
        }
    }
    Ok(())
}

/// The table a statement names, through the engine the txn belongs to;
/// statements borrow its schema instead of cloning it.
fn txn_table(txn: &Txn, table: &str) -> Result<Arc<Table>, EngineError> {
    Ok(txn.engine_ref().store().table(table)?)
}

/// Where an observer is invoked relative to a statement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Before the statement executes (its precondition should hold).
    Pre,
    /// After the statement executed (its postcondition should hold).
    Post,
}

/// Read-only view of the interpreter state handed to observers.
pub struct FrameView<'a> {
    /// Parameter bindings.
    pub bindings: &'a Bindings,
    /// Current local values.
    pub locals: &'a HashMap<String, Value>,
    /// Current SELECT buffers.
    pub buffers: &'a HashMap<String, Vec<(RowId, Row)>>,
}

/// An observer called around every *top-level* statement (the control
/// points the paper's annotations decorate).
pub type Observer<'o> = dyn FnMut(&Txn, FrameView<'_>, &AStmt, Phase) + 'o;

/// Run a program in a fresh transaction at `level`. On success the
/// transaction commits; on any error (including deadlock/FCW aborts) it is
/// rolled back and the error returned — callers retry when
/// [`EngineError::is_abort`] holds.
pub fn run_program(
    engine: &Arc<Engine>,
    program: &Program,
    level: IsolationLevel,
    bindings: &Bindings,
) -> Result<RunOutcome, EngineError> {
    run_program_observed(engine, program, level, bindings, &mut |_, _, _, _| {})
}

/// [`run_program`] with an observer hook (used by the runtime assertion
/// monitor).
pub fn run_program_observed(
    engine: &Arc<Engine>,
    program: &Program,
    level: IsolationLevel,
    bindings: &Bindings,
    observer: &mut Observer<'_>,
) -> Result<RunOutcome, EngineError> {
    let mut txn = engine.begin(level);
    let mut frame = Frame { bindings, locals: HashMap::new(), buffers: HashMap::new() };
    let result = (|| -> Result<(), EngineError> {
        for (i, a) in program.body.iter().enumerate() {
            observer(
                &txn,
                FrameView { bindings, locals: &frame.locals, buffers: &frame.buffers },
                a,
                Phase::Pre,
            );
            exec_stmt(&mut txn, &a.stmt, &mut frame)?;
            stmt_faults(&txn, i + 1)?;
            observer(
                &txn,
                FrameView { bindings, locals: &frame.locals, buffers: &frame.buffers },
                a,
                Phase::Post,
            );
        }
        Ok(())
    })();
    match result {
        Ok(()) => {
            let commit_ts = txn.commit()?;
            Ok(RunOutcome { commit_ts, locals: frame.locals, buffers: frame.buffers })
        }
        Err(e) => {
            txn.abort();
            Err(e)
        }
    }
}

/// The per-statement fault hooks, consulted once `executed` top-level
/// statements have run: a forced abort, else a client crash
/// mid-transaction. The crash snapshots the surviving log here, *before*
/// the caller rolls the transaction back, so it carries the loser's dirty
/// records but no Abort record — recovery must undo the loser from
/// before-images alone.
fn stmt_faults(txn: &Txn, executed: usize) -> Result<(), EngineError> {
    let Some(inj) = txn.engine_ref().faults() else { return Ok(()) };
    if inj.on_stmt(txn.id(), executed) {
        return Err(EngineError::Injected(FaultKind::AbortAfterStmt));
    }
    if inj.on_stmt_crash(txn.id(), executed) {
        if let Some(wal) = txn.engine_ref().wal() {
            wal.mark_crash(FaultKind::CrashMidTxn.name(), false);
        }
        return Err(EngineError::Injected(FaultKind::CrashMidTxn));
    }
    Ok(())
}

/// A resumable single-transaction interpreter: executes one *top-level*
/// statement per [`Stepper::step`] call, so callers can interleave two
/// transactions at chosen statement boundaries (the witness replayer's
/// schedule synthesis).
///
/// Dropping a stepper with an open transaction aborts it.
pub struct Stepper<'p> {
    txn: Option<Txn>,
    program: &'p Program,
    frame: Frame<'p>,
    idx: usize,
    id: semcc_engine::TxnId,
}

impl<'p> Stepper<'p> {
    /// Begin a transaction at `level` and position before the first
    /// top-level statement.
    pub fn begin(
        engine: &Arc<Engine>,
        program: &'p Program,
        level: IsolationLevel,
        bindings: &'p Bindings,
    ) -> Stepper<'p> {
        let txn = engine.begin(level);
        let id = txn.id();
        Stepper {
            txn: Some(txn),
            program,
            frame: Frame { bindings, locals: HashMap::new(), buffers: HashMap::new() },
            idx: 0,
            id,
        }
    }

    /// The underlying transaction's id (stable after commit/abort — used
    /// by fault-injection harnesses to attribute audits to the victim).
    pub fn txn_id(&self) -> semcc_engine::TxnId {
        self.id
    }

    /// Number of top-level statements in the program.
    pub fn stmt_count(&self) -> usize {
        self.program.body.len()
    }

    /// Whether every statement has executed.
    pub fn is_done(&self) -> bool {
        self.idx >= self.program.body.len()
    }

    /// Index of the next statement to execute.
    pub fn position(&self) -> usize {
        self.idx
    }

    /// Whether [`Stepper::commit`] or [`Stepper::abort`] already ran.
    pub fn is_finished(&self) -> bool {
        self.txn.is_none()
    }

    /// Current local-variable values (the explorer's observation oracle
    /// reads these after commit; they survive the transaction ending).
    pub fn locals(&self) -> &HashMap<String, Value> {
        &self.frame.locals
    }

    /// Current SELECT buffers.
    pub fn buffers(&self) -> &HashMap<String, Vec<(RowId, Row)>> {
        &self.frame.buffers
    }

    /// Execute the next top-level statement. Returns `Ok(true)` when a
    /// statement ran, `Ok(false)` when the program was already finished.
    pub fn step(&mut self) -> Result<bool, EngineError> {
        if self.is_done() {
            return Ok(false);
        }
        let txn = self.txn.as_mut().ok_or(EngineError::TxnFinished)?;
        let a = &self.program.body[self.idx];
        exec_stmt(txn, &a.stmt, &mut self.frame)?;
        self.idx += 1;
        if let Err(e) = stmt_faults(txn, self.idx) {
            self.txn.take().expect("txn present: borrowed above").abort();
            return Err(e);
        }
        Ok(true)
    }

    /// Execute statements up to (not including) top-level index `until`.
    /// `until` past [`Stepper::stmt_count`] is a request for statements
    /// that do not exist and errors cleanly.
    pub fn run_until(&mut self, until: usize) -> Result<(), EngineError> {
        if until > self.program.body.len() {
            return Err(EngineError::Invalid(format!(
                "run_until({until}) past the {} top-level statement(s) of {}",
                self.program.body.len(),
                self.program.name
            )));
        }
        while self.idx < until {
            self.step()?;
        }
        Ok(())
    }

    /// Run all remaining statements.
    pub fn run_to_end(&mut self) -> Result<(), EngineError> {
        while self.step()? {}
        Ok(())
    }

    /// Commit the transaction. A second commit (or a commit after
    /// [`Stepper::abort`]) is rejected with [`EngineError::TxnFinished`].
    ///
    /// Fault injection simulates client crashes at this boundary:
    /// *crash-before-commit* rolls the transaction back and surfaces as an
    /// [`EngineError::Injected`] abort; *crash-after-commit* lets the
    /// engine commit durably (the returned timestamp stands — harnesses
    /// treat the acknowledgement as lost and audit durability);
    /// *torn-tail* also commits, but the crash snapshot rips the final log
    /// record mid-frame, so recovery sees the transaction as a loser (the
    /// disk lost the commit the engine acknowledged — exactly the case the
    /// recovery audit's winner filter models).
    ///
    /// Each crash kind snapshots the engine's write-ahead log (when one is
    /// configured) at the semantically right instant: before the rollback
    /// for crash-before (no Abort record survives), after the durable
    /// commit for crash-after and torn-tail.
    pub fn commit(&mut self) -> Result<Ts, EngineError> {
        let txn = self.txn.take().ok_or(EngineError::TxnFinished)?;
        let engine = txn.engine_ref().clone();
        let kind = engine.faults().and_then(|inj| inj.on_client_commit(self.id));
        if kind == Some(FaultKind::CrashBeforeCommit) {
            if let Some(wal) = engine.wal() {
                wal.mark_crash(FaultKind::CrashBeforeCommit.name(), false);
            }
            txn.abort();
            return Err(EngineError::Injected(FaultKind::CrashBeforeCommit));
        }
        let ts = txn.commit()?;
        match kind {
            Some(FaultKind::CrashAfterCommit) => {
                if let Some(wal) = engine.wal() {
                    wal.mark_crash(FaultKind::CrashAfterCommit.name(), false);
                }
            }
            Some(FaultKind::TornTail) => {
                if let Some(wal) = engine.wal() {
                    wal.mark_crash(FaultKind::TornTail.name(), true);
                }
            }
            _ => {}
        }
        Ok(ts)
    }

    /// Abort the transaction. Aborting an already finished stepper is
    /// rejected with [`EngineError::TxnFinished`].
    pub fn abort(&mut self) -> Result<(), EngineError> {
        let txn = self.txn.take().ok_or(EngineError::TxnFinished)?;
        txn.abort();
        Ok(())
    }
}

/// Run a program with retries on concurrency-control aborts. Returns the
/// outcome plus the number of aborts absorbed.
pub fn run_with_retries(
    engine: &Arc<Engine>,
    program: &Program,
    level: IsolationLevel,
    bindings: &Bindings,
    max_retries: usize,
) -> Result<(RunOutcome, usize), EngineError> {
    let mut aborts = 0;
    loop {
        match run_program(engine, program, level, bindings) {
            Ok(out) => return Ok((out, aborts)),
            Err(e) if e.is_abort() && aborts < max_retries => aborts += 1,
            Err(e) => return Err(e),
        }
    }
}
