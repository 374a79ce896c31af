//! Annotated transaction programs and parameter bindings.

use crate::stmt::{visit_stmts, AStmt, Stmt};
use semcc_logic::{Pred, Var};
use semcc_storage::Value;
use std::borrow::Cow;
use std::fmt;

/// Declared parameter kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamKind {
    /// Integer-valued parameter.
    Int,
    /// String-valued parameter.
    Str,
}

/// An annotated transaction program: the paper's
/// `{I_i ∧ B_i ∧ x = X} T_i {I_i ∧ Q_i}`.
#[derive(Clone, Debug)]
pub struct Program {
    /// Transaction-type name (e.g. `New_Order`).
    pub name: String,
    /// Declared parameters.
    pub params: Vec<(String, ParamKind)>,
    /// `I_i`: the conjuncts of the consistency constraint this transaction
    /// relies on and re-establishes.
    pub consistency: Pred,
    /// `B_i`: conditions assumed of the parameters.
    pub param_cond: Pred,
    /// `Q_i`: the result assertion.
    pub result: Pred,
    /// The read-step postcondition used by the SNAPSHOT analysis (Theorem
    /// 5): the assertion holding at the boundary between the transaction's
    /// read step and its write step.
    pub snapshot_read_post: Pred,
    /// The annotated body.
    pub body: Vec<AStmt>,
}

impl Program {
    /// All annotated statements, depth-first.
    pub fn all_stmts(&self) -> Vec<&AStmt> {
        let mut out = Vec::new();
        visit_stmts(&self.body, &mut |a| out.push(a));
        out
    }

    /// All db-read statements with their postconditions.
    pub fn read_stmts(&self) -> Vec<&AStmt> {
        self.all_stmts().into_iter().filter(|a| a.stmt.is_db_read()).collect()
    }

    /// All db-write statements.
    pub fn write_stmts(&self) -> Vec<&AStmt> {
        self.all_stmts().into_iter().filter(|a| a.stmt.is_db_write()).collect()
    }

    /// Number of (flattened) statements — the paper's `N`.
    pub fn stmt_count(&self) -> usize {
        self.all_stmts().len()
    }

    /// Whether a read statement is *followed by a write of the same item on
    /// every path* — the reads Theorem 3 (RC + first-committer-wins)
    /// exempts from interference checking.
    ///
    /// Only conventional item reads qualify, and only when the later write
    /// is unconditional (top level, not inside `If`/`While`): Theorem 3's
    /// proof relies on the write actually happening, so first-committer-wins
    /// validation covers the read. A SELECT followed by a same-filter
    /// UPDATE does **not** qualify: rows can leave the filter between the
    /// read and the write, in which case the update never writes them and
    /// FCW validates nothing — the exemption would be unsound.
    pub fn read_followed_by_write(&self, read_index: usize) -> bool {
        let flat = self.all_stmts();
        let Some(read) = flat.get(read_index) else { return false };
        let top_level_writes: Vec<&Stmt> = self
            .body
            .iter()
            .skip_while(|a| !std::ptr::eq(*a, *read))
            .skip(1)
            .map(|a| &a.stmt)
            .collect();
        match &read.stmt {
            Stmt::ReadItem { item, .. } => top_level_writes.iter().any(|s| match s {
                // The whole reference, index included: first-committer-wins
                // validates only keys both read and written, so may-alias
                // on the base (right for interference) is wrong here.
                Stmt::WriteItem { item: w, .. } | Stmt::WriteItemMax { item: w, .. } => w == item,
                _ => false,
            }),
            _ => false,
        }
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({})",
            self.name,
            self.params.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>().join(", ")
        )
    }
}

/// A copy of `program` with a [`Stmt::Pause`] inserted after every
/// top-level statement — benchmark think time that widens the race windows
/// real computation would create. Annotations are untouched (a pause has
/// no shared effect).
pub fn with_pauses(program: &Program, micros: u64) -> Program {
    let mut out = program.clone();
    let mut body = Vec::with_capacity(out.body.len() * 2);
    for stmt in out.body {
        body.push(stmt);
        body.push(AStmt::bare(Stmt::Pause { micros }));
    }
    out.body = body;
    out
}

/// Builder for [`Program`].
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// Start a program.
    pub fn new(name: impl Into<String>) -> Self {
        ProgramBuilder {
            program: Program {
                name: name.into(),
                params: Vec::new(),
                consistency: Pred::True,
                param_cond: Pred::True,
                result: Pred::True,
                snapshot_read_post: Pred::True,
                body: Vec::new(),
            },
        }
    }

    /// Declare an integer parameter.
    pub fn param_int(mut self, name: impl Into<String>) -> Self {
        self.program.params.push((name.into(), ParamKind::Int));
        self
    }

    /// Declare a string parameter.
    pub fn param_str(mut self, name: impl Into<String>) -> Self {
        self.program.params.push((name.into(), ParamKind::Str));
        self
    }

    /// Set `I_i`.
    pub fn consistency(mut self, p: Pred) -> Self {
        self.program.consistency = p;
        self
    }

    /// Set `B_i`.
    pub fn param_cond(mut self, p: Pred) -> Self {
        self.program.param_cond = p;
        self
    }

    /// Set `Q_i`.
    pub fn result(mut self, p: Pred) -> Self {
        self.program.result = p;
        self
    }

    /// Set the read-step postcondition (Theorem 5 analysis).
    pub fn snapshot_read_post(mut self, p: Pred) -> Self {
        self.program.snapshot_read_post = p;
        self
    }

    /// Append an annotated statement.
    pub fn stmt(mut self, stmt: Stmt, pre: Pred, post: Pred) -> Self {
        self.program.body.push(AStmt::new(stmt, pre, post));
        self
    }

    /// Append an unannotated statement.
    pub fn bare(mut self, stmt: Stmt) -> Self {
        self.program.body.push(AStmt::bare(stmt));
        self
    }

    /// Finish.
    pub fn build(self) -> Program {
        self.program
    }
}

/// Concrete parameter bindings for one execution.
///
/// A program has a handful of parameters and a server holds one
/// `Bindings` per queued request, so they are a list sized to what is
/// bound and searched by name, not a hash table, and a name given as a
/// literal is borrowed, not copied.
#[derive(Clone, Debug, Default)]
pub struct Bindings {
    params: Vec<(Cow<'static, str>, Value)>,
}

impl Bindings {
    /// Empty bindings.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Bind a parameter (rebinding replaces the earlier value).
    pub fn set(mut self, name: impl Into<Cow<'static, str>>, v: impl Into<Value>) -> Self {
        let (name, v) = (name.into(), v.into());
        match self.params.iter_mut().find(|(n, _)| *n == name) {
            Some((_, bound)) => *bound = v,
            None => {
                self.params.reserve_exact(1);
                self.params.push((name, v));
            }
        }
        self
    }

    /// Look up a parameter.
    pub fn get(&self, name: &str) -> Option<&Value> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Resolve a variable: parameters come from the bindings; everything
    /// else is absent.
    pub fn env(&self) -> impl Fn(&Var) -> Option<Value> + '_ {
        move |v: &Var| match v {
            Var::Param(name) => self.get(name).cloned(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stmt::ItemRef;
    use semcc_logic::row::RowPred;
    use semcc_logic::Expr;

    fn sample() -> Program {
        ProgramBuilder::new("T")
            .param_int("w")
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() },
                Pred::True,
                Pred::ge(Expr::local("X"), 0),
            )
            .bare(Stmt::WriteItem { item: ItemRef::plain("x"), value: Expr::local("X") })
            .bare(Stmt::ReadItem { item: ItemRef::plain("y"), into: "Y".into() })
            .build()
    }

    #[test]
    fn stmt_queries() {
        let p = sample();
        assert_eq!(p.stmt_count(), 3);
        assert_eq!(p.read_stmts().len(), 2);
        assert_eq!(p.write_stmts().len(), 1);
    }

    #[test]
    fn read_followed_by_write_item() {
        let p = sample();
        assert!(p.read_followed_by_write(0), "x is read then written");
        assert!(!p.read_followed_by_write(2), "y is only read");
    }

    #[test]
    fn relational_reads_are_never_exempt() {
        // A SELECT followed by a same-filter UPDATE must NOT be exempt:
        // rows can leave the filter between read and write, so FCW
        // validation covers nothing (see method docs).
        let filter = RowPred::field_eq_int("k", 1);
        let p = ProgramBuilder::new("T")
            .bare(Stmt::SelectCount { table: "t".into(), filter: filter.clone(), into: "n".into() })
            .bare(Stmt::Update { table: "t".into(), filter, sets: vec![] })
            .build();
        assert!(!p.read_followed_by_write(0));
    }

    #[test]
    fn write_inside_branch_does_not_exempt() {
        let p = ProgramBuilder::new("T")
            .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() })
            .bare(Stmt::If {
                guard: Pred::True,
                then_branch: vec![AStmt::bare(Stmt::WriteItem {
                    item: ItemRef::plain("x"),
                    value: Expr::local("X"),
                })],
                else_branch: vec![],
            })
            .build();
        assert!(!p.read_followed_by_write(0), "conditional write must not exempt the read");
    }

    #[test]
    fn bindings_env() {
        let b = Bindings::new().set("w", 5).set("c", "alice");
        let env = b.env();
        assert_eq!(env(&Var::param("w")), Some(Value::Int(5)));
        assert_eq!(env(&Var::param("c")), Some(Value::str("alice")));
        assert_eq!(env(&Var::local("w")), None);
        assert_eq!(env(&Var::db("w")), None);
    }
}
