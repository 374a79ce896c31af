//! Statements of the transaction-program model (Section 3.1 + Section 4).

use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::{Expr, Pred};
use std::fmt;

/// A reference to a conventional database item. The optional index models
/// array-structured data (`acct_sav[i]`): at run time the index expression
/// is evaluated and the item `base[i]` accessed; for static analysis two
/// references *may alias* whenever their bases match (the worst case, which
/// is the case the paper analyzes — two transactions touching the same
/// account).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ItemRef {
    /// Base item name (the name assertions use).
    pub base: String,
    /// Optional index expression over parameters/locals.
    pub index: Option<Expr>,
}

impl ItemRef {
    /// A plain (unindexed) item.
    pub fn plain(base: impl Into<String>) -> Self {
        ItemRef { base: base.into(), index: None }
    }

    /// An indexed item `base[index]`.
    pub fn indexed(base: impl Into<String>, index: Expr) -> Self {
        ItemRef { base: base.into(), index: Some(index) }
    }
}

impl fmt::Display for ItemRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.index {
            Some(i) => write!(f, "{}[{}]", self.base, i),
            None => write!(f, "{}", self.base),
        }
    }
}

/// A statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Stmt {
    /// `X := x` — read a database item into a local.
    ReadItem {
        /// Item read.
        item: ItemRef,
        /// Local variable receiving the value.
        into: String,
    },
    /// `x := e` — write a database item.
    WriteItem {
        /// Item written.
        item: ItemRef,
        /// New value (over locals/params/logical constants).
        value: Expr,
    },
    /// `x := max(x, e)` — monotone write of a database item. The engine
    /// evaluates `e`, acquires the item's long X lock, and stores the
    /// maximum of the current value and `e` as one atomic read-modify-write
    /// (the item analogue of the in-place `Update` increment idiom): no
    /// other transaction can slip a write between the implicit re-read and
    /// the store, so a stale `e` can never clobber the item smaller.
    WriteItemMax {
        /// Item written.
        item: ItemRef,
        /// Floor value (over locals/params/logical constants).
        value: Expr,
    },
    /// `X := e` — local assignment.
    LocalAssign {
        /// Local variable.
        local: String,
        /// Value expression.
        value: Expr,
    },
    /// Conditional; the guard is over local variables/parameters only
    /// (the paper's model).
    If {
        /// Branch condition.
        guard: Pred,
        /// THEN branch.
        then_branch: Vec<AStmt>,
        /// ELSE branch.
        else_branch: Vec<AStmt>,
    },
    /// Loop; guard over locals/parameters only.
    While {
        /// Loop condition.
        guard: Pred,
        /// Body.
        body: Vec<AStmt>,
    },
    /// SQL SELECT: read matching rows into a named local buffer.
    Select {
        /// Table scanned.
        table: String,
        /// WHERE clause (may contain `Outer` terms bound at run time).
        filter: RowPred,
        /// Name of the local row buffer receiving the result.
        into: String,
    },
    /// SQL SELECT COUNT(*): count matching rows into an integer local.
    SelectCount {
        /// Table scanned.
        table: String,
        /// WHERE clause.
        filter: RowPred,
        /// Local receiving the count.
        into: String,
    },
    /// SQL `SELECT <column> INTO`: read one column of the first matching row.
    SelectValue {
        /// Table scanned.
        table: String,
        /// WHERE clause.
        filter: RowPred,
        /// Column projected.
        column: String,
        /// Local receiving the value.
        into: String,
    },
    /// SQL UPDATE ... SET ... WHERE.
    Update {
        /// Table updated.
        table: String,
        /// WHERE clause.
        filter: RowPred,
        /// SET clauses (column := expression over old row + scalars).
        sets: Vec<(String, RowExpr)>,
    },
    /// SQL INSERT INTO ... VALUES.
    Insert {
        /// Table inserted into.
        table: String,
        /// One value per schema column (Field refs are not allowed here).
        values: Vec<RowExpr>,
    },
    /// SQL DELETE FROM ... WHERE.
    Delete {
        /// Table deleted from.
        table: String,
        /// WHERE clause.
        filter: RowPred,
    },
    /// Think time: sleep for the given number of microseconds. Not a
    /// database operation — used by benchmarks to widen race windows the
    /// way real computation between statements would.
    Pause {
        /// Microseconds to sleep.
        micros: u64,
    },
}

impl Stmt {
    /// Whether the statement (ignoring nested blocks) writes the database.
    pub fn is_db_write(&self) -> bool {
        matches!(
            self,
            Stmt::WriteItem { .. }
                | Stmt::WriteItemMax { .. }
                | Stmt::Update { .. }
                | Stmt::Insert { .. }
                | Stmt::Delete { .. }
        )
    }

    /// Whether the statement (ignoring nested blocks) reads the database.
    pub fn is_db_read(&self) -> bool {
        matches!(
            self,
            Stmt::ReadItem { .. }
                | Stmt::Select { .. }
                | Stmt::SelectCount { .. }
                | Stmt::SelectValue { .. }
        )
    }
}

/// An annotated statement: the paper's `{P_{i,j}} S_{i,j} {P_{i,j+1}}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AStmt {
    /// The statement.
    pub stmt: Stmt,
    /// Assertion active when the statement is eligible for execution.
    pub pre: Pred,
    /// Assertion established by the statement (= the next control point's
    /// precondition).
    pub post: Pred,
}

semcc_json::codec! {
    struct ItemRef { base, #[opt] index }
    enum Stmt {
        ReadItem { item, into },
        WriteItem { item, value },
        WriteItemMax { item, value },
        LocalAssign { local, value },
        If { guard, then_branch, else_branch },
        While { guard, body },
        Select { table, filter, into },
        SelectCount { table, filter, into },
        SelectValue { table, filter, column, into },
        Update { table, filter, sets },
        Insert { table, values },
        Delete { table, filter },
        Pause { micros },
    }
    struct AStmt { stmt, pre, post }
}

impl AStmt {
    /// An annotated statement.
    pub fn new(stmt: Stmt, pre: Pred, post: Pred) -> Self {
        AStmt { stmt, pre, post }
    }

    /// An unannotated statement (`true` pre/post) — for executable-only
    /// programs where no static analysis is intended.
    pub fn bare(stmt: Stmt) -> Self {
        AStmt { stmt, pre: Pred::True, post: Pred::True }
    }
}

/// Walk a statement block depth-first, visiting every annotated statement.
pub fn visit_stmts<'a>(block: &'a [AStmt], f: &mut dyn FnMut(&'a AStmt)) {
    for a in block {
        f(a);
        match &a.stmt {
            Stmt::If { then_branch, else_branch, .. } => {
                visit_stmts(then_branch, f);
                visit_stmts(else_branch, f);
            }
            Stmt::While { body, .. } => visit_stmts(body, f),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Stmt::WriteItem { item: ItemRef::plain("x"), value: Expr::int(1) }.is_db_write());
        assert!(Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() }.is_db_read());
        assert!(!Stmt::LocalAssign { local: "X".into(), value: Expr::int(1) }.is_db_read());
        assert!(Stmt::Delete { table: "t".into(), filter: RowPred::True }.is_db_write());
        assert!(Stmt::SelectCount { table: "t".into(), filter: RowPred::True, into: "n".into() }
            .is_db_read());
    }

    #[test]
    fn visit_descends_into_blocks() {
        let inner = AStmt::bare(Stmt::LocalAssign { local: "a".into(), value: Expr::int(1) });
        let block = vec![AStmt::bare(Stmt::If {
            guard: Pred::True,
            then_branch: vec![inner.clone()],
            else_branch: vec![AStmt::bare(Stmt::While {
                guard: Pred::False,
                body: vec![inner.clone()],
            })],
        })];
        let mut n = 0;
        visit_stmts(&block, &mut |_| n += 1);
        assert_eq!(n, 4);
    }

    #[test]
    fn item_ref_display() {
        assert_eq!(ItemRef::plain("sav").to_string(), "sav");
        assert_eq!(ItemRef::indexed("acct", Expr::param("i")).to_string(), "acct[@i]");
    }

    #[test]
    fn stmt_roundtrips() {
        use semcc_logic::CmpOp;
        let stmts = vec![
            Stmt::ReadItem { item: ItemRef { base: "sav".into(), index: None }, into: "S".into() },
            Stmt::WriteItem {
                item: ItemRef { base: "bal".into(), index: Some(Expr::param("i")) },
                value: Expr::local("S").sub(Expr::param("n")),
            },
            Stmt::Update {
                table: "emp".into(),
                filter: RowPred::Cmp(
                    CmpOp::Eq,
                    RowExpr::Field("name".into()),
                    RowExpr::Outer(Expr::param("e")),
                ),
                sets: vec![("hrs".into(), RowExpr::field("hrs").add(RowExpr::Int(1)))],
            },
            Stmt::Insert {
                table: "orders".into(),
                values: vec![RowExpr::Int(1), RowExpr::Str("x".into())],
            },
            Stmt::Pause { micros: 250 },
        ];
        for s in stmts {
            let text = semcc_json::to_string(&s);
            let back: Stmt = semcc_json::from_str(&text).expect("parse");
            assert_eq!(back, s);
        }
    }
}
