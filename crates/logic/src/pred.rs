//! The predicate (assertion) language.
//!
//! Assertions combine linear-arithmetic comparisons over [`Expr`]s, string
//! (dis)equalities, boolean connectives, *opaque constraint atoms* (named
//! integrity-constraint conjuncts such as the paper's `no_gap` or
//! `order_consistency`, carrying a declared read footprint), and *table
//! atoms* describing relational facts (`∀`-row constraints, counts,
//! existence, and snapshot-equality postconditions of SELECT statements).

use crate::expr::{Expr, Var};
use crate::row::RowPred;
use std::fmt;

/// Comparison operators on integer expressions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator recognizing the complementary set of models.
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Apply the comparison to concrete integers.
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A term in a string (dis)equality.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum StrTerm {
    /// String literal.
    Const(String),
    /// String-valued variable.
    Var(Var),
}

impl fmt::Display for StrTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrTerm::Const(s) => write!(f, "\"{s}\""),
            StrTerm::Var(v) => write!(f, "{v}"),
        }
    }
}

/// A region of a table an opaque constraint depends on.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TableRegion {
    /// Table name.
    pub table: String,
    /// Row region read (`None` = every row).
    pub region: Option<RowPred>,
    /// Columns read (`None` = every column). UPDATEs touching only other
    /// columns provably cannot affect the constraint; INSERTs and DELETEs
    /// change the row *set* and are column-insensitive.
    pub columns: Option<Vec<String>>,
}

impl TableRegion {
    /// A whole-table, all-columns region.
    pub fn whole(table: impl Into<String>) -> Self {
        TableRegion { table: table.into(), region: None, columns: None }
    }

    /// A whole-table region reading only the given columns.
    pub fn columns(table: impl Into<String>, cols: &[&str]) -> Self {
        TableRegion {
            table: table.into(),
            region: None,
            columns: Some(cols.iter().map(|c| c.to_string()).collect()),
        }
    }
}

/// An opaque, named integrity-constraint conjunct with a declared footprint.
///
/// The paper discharges conjuncts like `no_gap` informally; we mechanize the
/// *footprint* side (which items/table regions the conjunct depends on) and
/// let the analyzer consult registered preservation lemmas for the semantic
/// side.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct OpaqueAtom {
    /// Conjunct name, e.g. `no_gap`.
    pub name: String,
    /// Conventional database items the conjunct reads.
    pub reads_items: Vec<String>,
    /// Table regions the conjunct reads.
    pub reads_tables: Vec<TableRegion>,
}

impl OpaqueAtom {
    /// An opaque atom reading the listed conventional items.
    pub fn over_items(name: impl Into<String>, items: &[&str]) -> Self {
        OpaqueAtom {
            name: name.into(),
            reads_items: items.iter().map(|s| s.to_string()).collect(),
            reads_tables: Vec::new(),
        }
    }

    /// Add a table region to the footprint.
    pub fn with_region(mut self, region: TableRegion) -> Self {
        self.reads_tables.push(region);
        self
    }
}

/// A relational fact about a table's current contents.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum TableAtom {
    /// Every row of `table` satisfies `constraint`.
    AllRows {
        /// Table name.
        table: String,
        /// Per-row constraint each row must satisfy.
        constraint: RowPred,
    },
    /// `|σ_filter(table)| = value` — the number of rows satisfying `filter`
    /// equals the scalar expression `value`.
    CountEq {
        /// Table name.
        table: String,
        /// Row filter being counted.
        filter: RowPred,
        /// Scalar expression the count equals.
        value: Expr,
    },
    /// Some row of `table` satisfies `filter`.
    Exists {
        /// Table name.
        table: String,
        /// Row filter.
        filter: RowPred,
    },
    /// No row of `table` satisfies `filter`.
    NotExists {
        /// Table name.
        table: String,
        /// Row filter.
        filter: RowPred,
    },
    /// The local snapshot named `name` (filled by a SELECT) equals the
    /// *current* `σ_filter(table)` — the canonical postcondition of a SELECT
    /// statement, which phantom INSERTs and concurrent UPDATE/DELETEs can
    /// invalidate.
    SnapshotEq {
        /// Table name.
        table: String,
        /// Row filter of the originating SELECT.
        filter: RowPred,
        /// Name of the transaction-local snapshot buffer.
        name: String,
    },
}

impl TableAtom {
    /// The table the atom reads.
    pub fn table(&self) -> &str {
        match self {
            TableAtom::AllRows { table, .. }
            | TableAtom::CountEq { table, .. }
            | TableAtom::Exists { table, .. }
            | TableAtom::NotExists { table, .. }
            | TableAtom::SnapshotEq { table, .. } => table,
        }
    }

    /// The row region the atom depends on (`None` = whole table, as for
    /// `AllRows`, whose truth depends on every row).
    pub fn region(&self) -> Option<&RowPred> {
        match self {
            TableAtom::AllRows { .. } => None,
            TableAtom::CountEq { filter, .. }
            | TableAtom::Exists { filter, .. }
            | TableAtom::NotExists { filter, .. }
            | TableAtom::SnapshotEq { filter, .. } => Some(filter),
        }
    }
}

/// A quantifier-free assertion.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Trivially true.
    True,
    /// Trivially false.
    False,
    /// Integer comparison.
    Cmp(CmpOp, Expr, Expr),
    /// String (dis)equality; `eq == false` means disequality.
    StrCmp {
        /// true for `=`, false for `!=`.
        eq: bool,
        /// Left term.
        lhs: StrTerm,
        /// Right term.
        rhs: StrTerm,
    },
    /// Negation.
    Not(Box<Pred>),
    /// Conjunction (n-ary).
    And(Vec<Pred>),
    /// Disjunction (n-ary).
    Or(Vec<Pred>),
    /// Implication.
    Implies(Box<Pred>, Box<Pred>),
    /// Named opaque constraint conjunct.
    Opaque(OpaqueAtom),
    /// Relational table fact.
    Table(TableAtom),
}

semcc_json::codec! {
    enum CmpOp { Eq, Ne, Lt, Le, Gt, Ge }
    enum StrTerm { Const(s), Var(v) }
    struct TableRegion { table, #[opt] region, #[opt] columns }
    struct OpaqueAtom { name, reads_items, reads_tables }
    enum TableAtom {
        AllRows { table, constraint },
        CountEq { table, filter, value },
        Exists { table, filter },
        NotExists { table, filter },
        SnapshotEq { table, filter, name },
    }
    enum Pred {
        True,
        False,
        Cmp(op, lhs, rhs),
        StrCmp { eq, lhs, rhs },
        Not(p),
        And(ps),
        Or(ps),
        Implies(a, b),
        Opaque(atom),
        Table(atom),
    }
}

impl Pred {
    /// `lhs op rhs`
    pub fn cmp(op: CmpOp, lhs: impl Into<Expr>, rhs: impl Into<Expr>) -> Pred {
        Pred::Cmp(op, lhs.into(), rhs.into())
    }

    /// `lhs = rhs`
    pub fn eq(lhs: impl Into<Expr>, rhs: impl Into<Expr>) -> Pred {
        Pred::cmp(CmpOp::Eq, lhs, rhs)
    }

    /// `lhs <= rhs`
    pub fn le(lhs: impl Into<Expr>, rhs: impl Into<Expr>) -> Pred {
        Pred::cmp(CmpOp::Le, lhs, rhs)
    }

    /// `lhs >= rhs`
    pub fn ge(lhs: impl Into<Expr>, rhs: impl Into<Expr>) -> Pred {
        Pred::cmp(CmpOp::Ge, lhs, rhs)
    }

    /// `lhs < rhs`
    pub fn lt(lhs: impl Into<Expr>, rhs: impl Into<Expr>) -> Pred {
        Pred::cmp(CmpOp::Lt, lhs, rhs)
    }

    /// `lhs > rhs`
    pub fn gt(lhs: impl Into<Expr>, rhs: impl Into<Expr>) -> Pred {
        Pred::cmp(CmpOp::Gt, lhs, rhs)
    }

    /// Conjunction, flattening nested `And`s and dropping `True`s.
    pub fn and(preds: impl IntoIterator<Item = Pred>) -> Pred {
        let mut out = Vec::new();
        for p in preds {
            match p {
                Pred::True => {}
                Pred::False => return Pred::False,
                Pred::And(ps) => out.extend(ps),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Pred::True,
            1 => out.pop().expect("len checked"),
            _ => Pred::And(out),
        }
    }

    /// Disjunction, flattening nested `Or`s and dropping `False`s.
    pub fn or(preds: impl IntoIterator<Item = Pred>) -> Pred {
        let mut out = Vec::new();
        for p in preds {
            match p {
                Pred::False => {}
                Pred::True => return Pred::True,
                Pred::Or(ps) => out.extend(ps),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => Pred::False,
            1 => out.pop().expect("len checked"),
            _ => Pred::Or(out),
        }
    }

    /// Logical negation (lazy; pushed inward by the prover's NNF pass).
    pub fn not(p: Pred) -> Pred {
        match p {
            Pred::True => Pred::False,
            Pred::False => Pred::True,
            Pred::Not(inner) => *inner,
            other => Pred::Not(Box::new(other)),
        }
    }

    /// `p ==> q`
    pub fn implies(p: Pred, q: Pred) -> Pred {
        Pred::Implies(Box::new(p), Box::new(q))
    }

    /// Collect every scalar variable mentioned (not table-atom internals).
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Pred::True | Pred::False | Pred::Opaque(_) => {}
            Pred::Cmp(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Pred::StrCmp { lhs, rhs, .. } => {
                for t in [lhs, rhs] {
                    if let StrTerm::Var(v) = t {
                        out.push(v.clone());
                    }
                }
            }
            Pred::Not(p) => p.collect_vars(out),
            Pred::And(ps) | Pred::Or(ps) => {
                for p in ps {
                    p.collect_vars(out);
                }
            }
            Pred::Implies(p, q) => {
                p.collect_vars(out);
                q.collect_vars(out);
            }
            Pred::Table(atom) => {
                if let TableAtom::CountEq { value, .. } = atom {
                    value.collect_vars(out);
                }
                if let Some(region) = atom.region() {
                    region.collect_outer_vars(out);
                }
                if let TableAtom::AllRows { constraint, .. } = atom {
                    constraint.collect_outer_vars(out);
                }
            }
        }
    }

    /// All scalar variables (deduplicated, sorted).
    pub fn vars(&self) -> Vec<Var> {
        let mut v = Vec::new();
        self.collect_vars(&mut v);
        v.sort();
        v.dedup();
        v
    }

    /// Iterate over all conjuncts if the top level is a conjunction,
    /// otherwise yield the predicate itself.
    pub fn conjuncts(&self) -> Vec<&Pred> {
        match self {
            Pred::And(ps) => ps.iter().collect(),
            other => vec![other],
        }
    }
}

impl fmt::Debug for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pred::True => write!(f, "true"),
            Pred::False => write!(f, "false"),
            Pred::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            Pred::StrCmp { eq, lhs, rhs } => {
                write!(f, "{lhs} {} {rhs}", if *eq { "=" } else { "!=" })
            }
            Pred::Not(p) => write!(f, "!({p})"),
            Pred::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" && "))
            }
            Pred::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" || "))
            }
            Pred::Implies(p, q) => write!(f, "({p}) ==> ({q})"),
            Pred::Opaque(a) => write!(f, "#{}", a.name),
            Pred::Table(atom) => match atom {
                TableAtom::AllRows { table, constraint } => {
                    write!(f, "allrows({table}, {constraint})")
                }
                TableAtom::CountEq { table, filter, value } => {
                    write!(f, "count({table}, {filter}) = {value}")
                }
                TableAtom::Exists { table, filter } => write!(f, "exists({table}, {filter})"),
                TableAtom::NotExists { table, filter } => {
                    write!(f, "notexists({table}, {filter})")
                }
                TableAtom::SnapshotEq { table, filter, name } => {
                    write!(f, "snapshot({name}) = sel({table}, {filter})")
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_negate_roundtrip() {
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn cmp_apply() {
        assert!(CmpOp::Le.apply(3, 3));
        assert!(!CmpOp::Lt.apply(3, 3));
        assert!(CmpOp::Ne.apply(1, 2));
        assert!(CmpOp::Ge.apply(4, 2));
    }

    #[test]
    fn and_flattens_and_short_circuits() {
        let p = Pred::and([
            Pred::True,
            Pred::and([Pred::eq(Expr::db("x"), 1), Pred::True]),
            Pred::le(Expr::db("y"), 2),
        ]);
        assert_eq!(p.conjuncts().len(), 2);
        assert_eq!(Pred::and([Pred::False, Pred::True]), Pred::False);
        assert_eq!(Pred::and(Vec::<Pred>::new()), Pred::True);
    }

    #[test]
    fn or_flattens_and_short_circuits() {
        assert_eq!(Pred::or([Pred::True, Pred::False]), Pred::True);
        assert_eq!(Pred::or(Vec::<Pred>::new()), Pred::False);
        let p = Pred::or([Pred::or([Pred::eq(Expr::db("x"), 1)]), Pred::eq(Expr::db("y"), 2)]);
        match p {
            Pred::Or(ps) => assert_eq!(ps.len(), 2),
            other => panic!("expected Or, got {other}"),
        }
    }

    #[test]
    fn not_simplifies_trivials() {
        assert_eq!(Pred::not(Pred::True), Pred::False);
        assert_eq!(Pred::not(Pred::not(Pred::eq(Expr::db("x"), 1))), Pred::eq(Expr::db("x"), 1));
    }

    #[test]
    fn pred_vars_includes_countexpr_and_region_outers() {
        use crate::row::{RowExpr, RowPred};
        let atom = TableAtom::CountEq {
            table: "orders".into(),
            filter: RowPred::cmp(
                CmpOp::Eq,
                RowExpr::Field("cust".into()),
                RowExpr::Outer(Expr::param("customer")),
            ),
            value: Expr::local("count1"),
        };
        let vars = Pred::Table(atom).vars();
        assert!(vars.contains(&Var::local("count1")));
        assert!(vars.contains(&Var::param("customer")));
    }

    #[test]
    fn display_is_readable() {
        let p = Pred::and([
            Pred::ge(Expr::db("bal"), 0),
            Pred::eq(Expr::db("bal"), Expr::logical("BAL").add(Expr::param("dep"))),
        ]);
        let s = p.to_string();
        assert!(s.contains("bal >= 0"));
        assert!(s.contains("?BAL"));
        assert!(s.contains("@dep"));
    }

    fn roundtrip<T: semcc_json::ToJson + semcc_json::FromJson + PartialEq + fmt::Debug>(v: &T) {
        let text = semcc_json::to_string_pretty(v);
        let back: T = semcc_json::from_str(&text).expect("parse back");
        assert_eq!(&back, v);
    }

    #[test]
    fn expr_roundtrips() {
        let e = Expr::param("n")
            .add(Expr::Const(3).mul(Expr::db("bal")))
            .sub(Expr::Neg(Box::new(Expr::local("t"))));
        roundtrip(&e);
    }

    #[test]
    fn pred_roundtrips() {
        use crate::row::RowExpr;
        let p = Pred::And(vec![
            Pred::ge(Expr::db("sav"), Expr::Const(0)),
            Pred::Or(vec![
                Pred::True,
                Pred::Not(Box::new(Pred::Cmp(CmpOp::Ne, Expr::param("a"), Expr::Const(1)))),
            ]),
            Pred::StrCmp {
                eq: true,
                lhs: StrTerm::Var(Var::param("cust")),
                rhs: StrTerm::Const("alice".into()),
            },
            Pred::Table(TableAtom::CountEq {
                table: "orders".into(),
                filter: RowPred::Cmp(
                    CmpOp::Eq,
                    RowExpr::Field("cust".into()),
                    RowExpr::Outer(Expr::param("c")),
                ),
                value: Expr::local("n"),
            }),
            Pred::Opaque(OpaqueAtom {
                name: "no_gap".into(),
                reads_items: vec!["next".into()],
                reads_tables: vec![TableRegion {
                    table: "orders".into(),
                    region: Some(RowPred::True),
                    columns: Some(vec!["id".into()]),
                }],
            }),
        ]);
        roundtrip(&p);
    }
}
