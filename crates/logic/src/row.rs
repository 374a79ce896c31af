//! Row terms and row predicates: per-tuple filters used by relational
//! statements (SELECT/UPDATE/DELETE WHERE-clauses) and by table atoms, and
//! the values of UPDATE SET clauses and INSERT VALUES.
//!
//! A [`RowPred`] constrains the fields of a single generic row. Fields are
//! referenced by column name; *outer* scalar expressions (parameters, local
//! variables) may appear, e.g. `cust_name = :customer`. Satisfiability and
//! intersection of row predicates — the paper's phantom-reasoning primitive —
//! are decided by translating fields to reserved skolem variables and
//! handing the conjunction to the scalar prover. SET and VALUES terms are
//! lowered onto the same skolems ([`RowExpr::to_scalar`], [`bind_insert`]),
//! so a write and a filter can be compared in one query.

use crate::expr::{Expr, Var};
use crate::pred::{CmpOp, Pred, StrTerm};
use crate::subst::Subst;
use std::fmt;

/// Reserved prefix distinguishing row-field skolem variables from user
/// logical constants when a [`RowPred`] is lowered to a scalar [`Pred`].
pub const FIELD_SKOLEM_PREFIX: &str = "row$";

/// The skolem `?row$col` standing for column `col` of the row under test.
pub fn field_skolem(col: &str) -> Var {
    Var::logical(format!("{FIELD_SKOLEM_PREFIX}{col}"))
}

/// A term over one row: a filter operand, a SET value (where `Field` is
/// the old row's value) or an INSERT value (where `Field` has no value).
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum RowExpr {
    /// A column of the row under test.
    Field(String),
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// A scalar expression from the enclosing transaction (parameters,
    /// locals, logical constants) — *not* row fields.
    Outer(Expr),
    /// Sum of two row terms.
    Add(Box<RowExpr>, Box<RowExpr>),
    /// Difference of two row terms.
    Sub(Box<RowExpr>, Box<RowExpr>),
    /// Product of two row terms.
    Mul(Box<RowExpr>, Box<RowExpr>),
}

impl RowExpr {
    /// Field reference.
    pub fn field(name: impl Into<String>) -> Self {
        RowExpr::Field(name.into())
    }

    /// `self + rhs`
    pub fn add(self, rhs: RowExpr) -> Self {
        RowExpr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`
    pub fn sub(self, rhs: RowExpr) -> Self {
        RowExpr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`
    pub fn mul(self, rhs: RowExpr) -> Self {
        RowExpr::Mul(Box::new(self), Box::new(rhs))
    }

    /// Whether the term is string-typed (syntactically).
    pub fn is_stringy(&self) -> bool {
        matches!(self, RowExpr::Str(_))
    }

    /// Columns read by this term.
    pub fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            RowExpr::Field(c) => out.push(c.clone()),
            RowExpr::Int(_) | RowExpr::Str(_) | RowExpr::Outer(_) => {}
            RowExpr::Add(a, b) | RowExpr::Sub(a, b) | RowExpr::Mul(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
        }
    }

    /// Collect outer scalar variables (from `Outer` terms).
    pub fn collect_outer_vars(&self, out: &mut Vec<Var>) {
        match self {
            RowExpr::Outer(e) => e.collect_vars(out),
            RowExpr::Add(a, b) | RowExpr::Sub(a, b) | RowExpr::Mul(a, b) => {
                a.collect_outer_vars(out);
                b.collect_outer_vars(out);
            }
            RowExpr::Field(_) | RowExpr::Int(_) | RowExpr::Str(_) => {}
        }
    }

    /// Lower to a scalar [`Expr`] for prover obligations, mapping `Field(c)`
    /// to the skolem `?row$c`. Strings lower to `None`.
    pub fn to_scalar(&self) -> Option<Expr> {
        match self {
            RowExpr::Field(c) => Some(Expr::Var(field_skolem(c))),
            RowExpr::Int(v) => Some(Expr::Const(*v)),
            RowExpr::Str(_) => None,
            RowExpr::Outer(e) => Some(e.clone()),
            RowExpr::Add(a, b) => Some(a.to_scalar()?.add(b.to_scalar()?)),
            RowExpr::Sub(a, b) => Some(a.to_scalar()?.sub(b.to_scalar()?)),
            RowExpr::Mul(a, b) => Some(a.to_scalar()?.mul(b.to_scalar()?)),
        }
    }

    /// The term as a string term: a literal, a field's skolem or an outer
    /// variable. Used where the term is compared as a string.
    pub fn as_str_term(&self) -> Option<StrTerm> {
        match self {
            RowExpr::Str(s) => Some(StrTerm::Const(s.clone())),
            RowExpr::Field(c) => Some(StrTerm::Var(field_skolem(c))),
            RowExpr::Outer(Expr::Var(v)) => Some(StrTerm::Var(v.clone())),
            _ => None,
        }
    }
}

/// Bind an inserted row over the `?row$col` skolems: `?row$col = value`
/// for each value that lowers to a scalar, a string equality for a string
/// term. Other values contribute no constraint (sound: wider
/// satisfiability). `None` when `columns` and `values` differ in length.
pub fn bind_insert(columns: &[String], values: &[RowExpr]) -> Option<Pred> {
    if columns.len() != values.len() {
        return None;
    }
    let mut conj = Vec::new();
    for (col, v) in columns.iter().zip(values) {
        if let Some(e) = v.to_scalar() {
            conj.push(Pred::eq(Expr::Var(field_skolem(col)), e));
        } else if let Some(term) = v.as_str_term() {
            conj.push(Pred::StrCmp { eq: true, lhs: StrTerm::Var(field_skolem(col)), rhs: term });
        }
    }
    Some(Pred::and(conj))
}

impl fmt::Debug for RowExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for RowExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowExpr::Field(c) => write!(f, ".{c}"),
            RowExpr::Int(v) => write!(f, "{v}"),
            RowExpr::Str(s) => write!(f, "\"{s}\""),
            RowExpr::Outer(e) => write!(f, "{e}"),
            RowExpr::Add(a, b) => write!(f, "({a} + {b})"),
            RowExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            RowExpr::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

/// A predicate over one row.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum RowPred {
    /// Matches every row.
    True,
    /// Matches no row.
    False,
    /// Comparison between two row terms. String terms admit `Eq`/`Ne` only.
    Cmp(CmpOp, RowExpr, RowExpr),
    /// Negation.
    Not(Box<RowPred>),
    /// Conjunction.
    And(Vec<RowPred>),
    /// Disjunction.
    Or(Vec<RowPred>),
}

semcc_json::codec! {
    enum RowExpr { Field(c), Int(v), Str(s), Outer(e), Add(a, b), Sub(a, b), Mul(a, b) }
    enum RowPred { True, False, Cmp(op, lhs, rhs), Not(p), And(ps), Or(ps) }
}

impl RowPred {
    /// Comparison constructor.
    pub fn cmp(op: CmpOp, lhs: RowExpr, rhs: RowExpr) -> Self {
        RowPred::Cmp(op, lhs, rhs)
    }

    /// `.col = int-literal`
    pub fn field_eq_int(col: impl Into<String>, v: i64) -> Self {
        RowPred::Cmp(CmpOp::Eq, RowExpr::field(col), RowExpr::Int(v))
    }

    /// `.col = string-literal`
    pub fn field_eq_str(col: impl Into<String>, s: impl Into<String>) -> Self {
        RowPred::Cmp(CmpOp::Eq, RowExpr::field(col), RowExpr::Str(s.into()))
    }

    /// `.col = outer-expression`
    pub fn field_eq_outer(col: impl Into<String>, e: Expr) -> Self {
        RowPred::Cmp(CmpOp::Eq, RowExpr::field(col), RowExpr::Outer(e))
    }

    /// Conjunction with flattening.
    pub fn and(ps: impl IntoIterator<Item = RowPred>) -> Self {
        let mut out = Vec::new();
        for p in ps {
            match p {
                RowPred::True => {}
                RowPred::False => return RowPred::False,
                RowPred::And(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => RowPred::True,
            1 => out.pop().expect("len checked"),
            _ => RowPred::And(out),
        }
    }

    /// Disjunction with flattening.
    pub fn or(ps: impl IntoIterator<Item = RowPred>) -> Self {
        let mut out = Vec::new();
        for p in ps {
            match p {
                RowPred::False => {}
                RowPred::True => return RowPred::True,
                RowPred::Or(inner) => out.extend(inner),
                other => out.push(other),
            }
        }
        match out.len() {
            0 => RowPred::False,
            1 => out.pop().expect("len checked"),
            _ => RowPred::Or(out),
        }
    }

    /// Negation.
    pub fn not(p: RowPred) -> Self {
        match p {
            RowPred::True => RowPred::False,
            RowPred::False => RowPred::True,
            RowPred::Not(inner) => *inner,
            other => RowPred::Not(Box::new(other)),
        }
    }

    /// Columns the predicate reads.
    pub fn columns(&self) -> Vec<String> {
        fn walk(p: &RowPred, out: &mut Vec<String>) {
            match p {
                RowPred::True | RowPred::False => {}
                RowPred::Cmp(_, a, b) => {
                    a.collect_columns(out);
                    b.collect_columns(out);
                }
                RowPred::Not(p) => walk(p, out),
                RowPred::And(ps) | RowPred::Or(ps) => ps.iter().for_each(|p| walk(p, out)),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out.sort();
        out.dedup();
        out
    }

    /// Collect outer scalar variables (from `RowExpr::Outer` terms).
    pub fn collect_outer_vars(&self, out: &mut Vec<Var>) {
        match self {
            RowPred::True | RowPred::False => {}
            RowPred::Cmp(_, a, b) => {
                a.collect_outer_vars(out);
                b.collect_outer_vars(out);
            }
            RowPred::Not(p) => p.collect_outer_vars(out),
            RowPred::And(ps) | RowPred::Or(ps) => ps.iter().for_each(|p| p.collect_outer_vars(out)),
        }
    }

    /// Rename the outer parameters apart with `prefix` (`:p` becomes
    /// `:{prefix}p`), so two transactions sharing parameter names don't
    /// alias in an intersection query.
    pub fn rename_params(&self, prefix: &str) -> RowPred {
        let mut outer = Vec::new();
        self.collect_outer_vars(&mut outer);
        let mut s = Subst::new();
        for v in outer {
            if let Var::Param(name) = &v {
                s.insert(v.clone(), Expr::Var(Var::param(format!("{prefix}{name}"))));
            }
        }
        s.apply_row_pred(self)
    }

    /// Lower to a scalar [`Pred`] by replacing each field `c` with the
    /// reserved skolem variable `?row$c`. Two row predicates lowered with
    /// the same skolems and conjoined express "some single row satisfies
    /// both" — the intersection test at the heart of phantom reasoning.
    pub fn to_scalar(&self) -> Pred {
        match self {
            RowPred::True => Pred::True,
            RowPred::False => Pred::False,
            RowPred::Cmp(op, a, b) => {
                // A term compared against a string literal is a string term
                // even if syntactically a field or outer variable.
                let stringy = a.is_stringy() || b.is_stringy();
                if stringy {
                    match (a.as_str_term(), b.as_str_term(), op) {
                        (Some(l), Some(r), CmpOp::Eq) => Pred::StrCmp { eq: true, lhs: l, rhs: r },
                        (Some(l), Some(r), CmpOp::Ne) => Pred::StrCmp { eq: false, lhs: l, rhs: r },
                        // Ordered string comparison: unsupported, treated as
                        // unconstrained (sound for satisfiability checks).
                        _ => Pred::True,
                    }
                } else {
                    match (a.to_scalar(), b.to_scalar()) {
                        (Some(l), Some(r)) => Pred::Cmp(*op, l, r),
                        _ => Pred::True,
                    }
                }
            }
            RowPred::Not(p) => Pred::not(p.to_scalar()),
            RowPred::And(ps) => Pred::and(ps.iter().map(|p| p.to_scalar())),
            RowPred::Or(ps) => Pred::or(ps.iter().map(|p| p.to_scalar())),
        }
    }
}

impl fmt::Debug for RowPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for RowPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RowPred::True => write!(f, "true"),
            RowPred::False => write!(f, "false"),
            RowPred::Cmp(op, a, b) => write!(f, "{a} {op} {b}"),
            RowPred::Not(p) => write!(f, "!({p})"),
            RowPred::And(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" && "))
            }
            RowPred::Or(ps) => {
                let parts: Vec<String> = ps.iter().map(|p| format!("({p})")).collect();
                write!(f, "{}", parts.join(" || "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_collects_and_dedups() {
        let p = RowPred::and([
            RowPred::field_eq_int("a", 1),
            RowPred::cmp(CmpOp::Lt, RowExpr::field("b"), RowExpr::field("a")),
        ]);
        assert_eq!(p.columns(), vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn to_scalar_uses_skolem_fields() {
        let p = RowPred::field_eq_int("deliv_date", 7);
        match p.to_scalar() {
            Pred::Cmp(CmpOp::Eq, Expr::Var(v), Expr::Const(7)) => {
                assert_eq!(v, field_skolem("deliv_date"));
            }
            other => panic!("unexpected lowering: {other}"),
        }
        let e = RowExpr::field("hrs").add(RowExpr::Int(2));
        let scalar = e.to_scalar().expect("scalar");
        assert!(scalar.mentions(&field_skolem("hrs")));
    }

    #[test]
    fn to_scalar_string_equality() {
        let p = RowPred::field_eq_str("cust", "alice");
        match p.to_scalar() {
            Pred::StrCmp { eq: true, lhs: StrTerm::Var(v), rhs: StrTerm::Const(s) } => {
                assert_eq!(v, field_skolem("cust"));
                assert_eq!(s, "alice");
            }
            other => panic!("unexpected lowering: {other}"),
        }
        assert!(RowExpr::Str("x".into()).to_scalar().is_none());
    }

    #[test]
    fn and_or_flatten() {
        assert_eq!(RowPred::and([RowPred::True, RowPred::True]), RowPred::True);
        assert_eq!(RowPred::and([RowPred::False, RowPred::field_eq_int("x", 1)]), RowPred::False);
        assert_eq!(RowPred::or([RowPred::False]), RowPred::False);
        assert_eq!(RowPred::or([RowPred::True, RowPred::field_eq_int("x", 1)]), RowPred::True);
    }

    #[test]
    fn outer_vars_collected() {
        let p = RowPred::field_eq_outer("cust", Expr::param("customer"));
        let mut vs = Vec::new();
        p.collect_outer_vars(&mut vs);
        assert_eq!(vs, vec![Var::param("customer")]);
        // Substitution rewrites the locals inside `Outer` terms.
        let e = RowExpr::Outer(Expr::local("n")).add(RowExpr::Int(1));
        let s = Subst::single(Var::local("n"), Expr::param("m"));
        let renamed = s.apply_row_expr(&e);
        assert_eq!(renamed, RowExpr::Outer(Expr::param("m")).add(RowExpr::Int(1)));
        let mut vs = Vec::new();
        renamed.collect_outer_vars(&mut vs);
        assert_eq!(vs, vec![Var::param("m")]);
    }
}
