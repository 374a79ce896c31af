//! Row predicates: per-tuple filters used by relational statements
//! (SELECT/UPDATE/DELETE WHERE-clauses) and by table atoms.
//!
//! A [`RowPred`] constrains the fields of a single generic row. Fields are
//! referenced by column name; *outer* scalar expressions (parameters, local
//! variables) may appear, e.g. `cust_name = :customer`. Satisfiability and
//! intersection of row predicates — the paper's phantom-reasoning primitive —
//! are decided by translating fields to reserved skolem variables and
//! handing the conjunction to the scalar prover.

use crate::expr::{Expr, Var};
use crate::pred::{CmpOp, Pred, StrTerm};
use std::fmt;

/// Reserved prefix distinguishing row-field skolem variables from user
/// logical constants when a [`RowPred`] is lowered to a scalar [`Pred`].
pub const FIELD_SKOLEM_PREFIX: &str = "row$";

/// A term inside a row predicate.
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
        fn walk_expr(t: &RowExpr, out: &mut Vec<Var>) {
            match t {
                RowExpr::Outer(e) => e.collect_vars(out),
                RowExpr::Add(a, b) | RowExpr::Sub(a, b) | RowExpr::Mul(a, b) => {
                    walk_expr(a, out);
                    walk_expr(b, out);
                }
                _ => {}
            }
        }
        match self {
            RowPred::True | RowPred::False => {}
            RowPred::Cmp(_, a, b) => {
                walk_expr(a, out);
                walk_expr(b, out);
            }
            RowPred::Not(p) => p.collect_outer_vars(out),
            RowPred::And(ps) | RowPred::Or(ps) => ps.iter().for_each(|p| p.collect_outer_vars(out)),
        }
    }

    /// Lower to a scalar [`Pred`] by replacing each field `c` with the
    /// reserved skolem variable `?row$c`. Two row predicates lowered with
    /// the same skolems and conjoined express "some single row satisfies
    /// both" — the intersection test at the heart of phantom reasoning.
    pub fn to_scalar(&self) -> Pred {
        fn term(t: &RowExpr) -> Result<Expr, StrTerm> {
            match t {
                RowExpr::Field(c) => {
                    Ok(Expr::Var(Var::logical(format!("{FIELD_SKOLEM_PREFIX}{c}"))))
                }
                RowExpr::Int(v) => Ok(Expr::Const(*v)),
                RowExpr::Str(s) => Err(StrTerm::Const(s.clone())),
                RowExpr::Outer(e) => Ok(e.clone()),
                RowExpr::Add(a, b) => Ok(term(a)?.add(term(b)?)),
                RowExpr::Sub(a, b) => Ok(term(a)?.sub(term(b)?)),
                RowExpr::Mul(a, b) => Ok(term(a)?.mul(term(b)?)),
            }
        }
        // A term used in a comparison against a string literal must be
        // treated as a string term even if syntactically a field/outer var.
        fn as_str_term(t: &RowExpr) -> Option<StrTerm> {
            match t {
                RowExpr::Str(s) => Some(StrTerm::Const(s.clone())),
                RowExpr::Field(c) => {
                    Some(StrTerm::Var(Var::logical(format!("{FIELD_SKOLEM_PREFIX}{c}"))))
                }
                RowExpr::Outer(Expr::Var(v)) => Some(StrTerm::Var(v.clone())),
                _ => None,
            }
        }
        match self {
            RowPred::True => Pred::True,
            RowPred::False => Pred::False,
            RowPred::Cmp(op, a, b) => {
                let stringy = a.is_stringy() || b.is_stringy();
                if stringy {
                    match (as_str_term(a), as_str_term(b), op) {
                        (Some(l), Some(r), CmpOp::Eq) => Pred::StrCmp { eq: true, lhs: l, rhs: r },
                        (Some(l), Some(r), CmpOp::Ne) => Pred::StrCmp { eq: false, lhs: l, rhs: r },
                        // Ordered string comparison: unsupported, treated as
                        // unconstrained (sound for satisfiability checks).
                        _ => Pred::True,
                    }
                } else {
                    match (term(a), term(b)) {
                        (Ok(l), Ok(r)) => Pred::Cmp(*op, l, r),
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
                assert_eq!(v, Var::logical("row$deliv_date"));
            }
            other => panic!("unexpected lowering: {other}"),
        }
    }

    #[test]
    fn to_scalar_string_equality() {
        let p = RowPred::field_eq_str("cust", "alice");
        match p.to_scalar() {
            Pred::StrCmp { eq: true, lhs: StrTerm::Var(v), rhs: StrTerm::Const(s) } => {
                assert_eq!(v, Var::logical("row$cust"));
                assert_eq!(s, "alice");
            }
            other => panic!("unexpected lowering: {other}"),
        }
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
    }
}
