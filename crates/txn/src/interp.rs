//! Interpreter: execute an annotated program against the engine.

use crate::evalpred::{eval_expr, eval_pred, no_atoms};
use crate::program::{Bindings, Program};
use crate::stmt::{AStmt, ItemRef, Stmt};
use semcc_engine::{Engine, EngineError, FaultKind, IsolationLevel, Txn};
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::Var;
use semcc_storage::eval::eval_row_expr;
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
            let set_idx: Vec<(usize, &RowExpr)> = sets
                .iter()
                .map(|(c, e)| t.schema.column_index(c).map(|i| (i, e)))
                .collect::<Result<Vec<_>, _>>()?;
            let env = |v: &Var| frame.lookup(v);
            let f = |old: &Row| -> Row {
                let mut new = old.clone();
                for (i, e) in &set_idx {
                    if let Some(v) = eval_row_expr(&t.schema, Some(old), e, &env) {
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
                    eval_row_expr(&t.schema, None, e, &env)
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

/// Run a program in a fresh transaction at `level`: [`Stepper::begin`],
/// then [`Stepper::finish`]. On success the transaction commits; on any
/// error (including deadlock/FCW aborts and injected faults) it is rolled
/// back and the error returned — callers retry through
/// `semcc_workloads::retry` when [`EngineError::is_abort`] holds.
pub fn run_program(
    engine: &Arc<Engine>,
    program: &Program,
    level: IsolationLevel,
    bindings: &Bindings,
) -> Result<RunOutcome, EngineError> {
    Stepper::begin(engine, program, level, bindings).finish()
}

/// The per-statement fault hooks, consulted once `executed` top-level
/// statements have run: a forced abort, else a client crash
/// mid-transaction. The crash snapshots the surviving log here, *before*
/// [`Stepper::step`] rolls the transaction back, so it carries the loser's dirty
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

/// The interpreter: executes one *top-level* statement per
/// [`Stepper::step`] call, so callers can interleave transactions at
/// chosen statement boundaries (the explorer, the witness replayer) or
/// check assertions between statements (the runtime monitor), and
/// [`Stepper::finish`] runs the rest and commits ([`run_program`]). The
/// per-statement and client-commit fault hooks are consulted here and
/// nowhere else.
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

    /// The open transaction, for reading the database through its view
    /// between statements; `None` once it committed or aborted.
    pub fn txn(&self) -> Option<&Txn> {
        self.txn.as_ref()
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

    /// Run the remaining statements and [`Stepper::commit`]. Any error
    /// aborts the transaction; after an early commit or abort this is
    /// [`EngineError::TxnFinished`].
    pub fn finish(mut self) -> Result<RunOutcome, EngineError> {
        self.run_to_end()?;
        let commit_ts = self.commit()?;
        Ok(RunOutcome { commit_ts, locals: self.frame.locals, buffers: self.frame.buffers })
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
        let Some(kind) = txn.engine_ref().faults().and_then(|inj| inj.on_client_commit(self.id))
        else {
            return txn.commit();
        };
        let wal = txn.engine_ref().wal().cloned();
        let crash = |torn| {
            if let Some(wal) = &wal {
                wal.mark_crash(kind.name(), torn);
            }
        };
        if kind == FaultKind::CrashBeforeCommit {
            crash(false);
            txn.abort();
            return Err(EngineError::Injected(kind));
        }
        let ts = txn.commit()?;
        // The injector only names commit-point kinds: crash-after or torn-tail.
        crash(kind == FaultKind::TornTail);
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
