//! Capture-free substitution of scalar variables by expressions.
//!
//! Substitution is the engine behind weakest preconditions: the Hoare rule
//! for assignment gives `{P[x←e]} x := e {P}`, and the Owicki–Gries
//! non-interference check `{P ∧ P'} S {P}` for a write `S : x := e` reduces
//! to the validity of `P ∧ P' ⟹ P[x←e]`.

use crate::expr::{Expr, Var};
use crate::pred::{Pred, StrTerm, TableAtom};
use crate::row::{RowExpr, RowPred};
use std::collections::BTreeMap;

/// A simultaneous substitution `{v₁←e₁, …, vₙ←eₙ}`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Subst {
    map: BTreeMap<Var, Expr>,
}

impl Subst {
    /// Empty (identity) substitution.
    pub fn new() -> Self {
        Subst::default()
    }

    /// Single-variable substitution `{v ← e}`.
    pub fn single(v: Var, e: Expr) -> Self {
        let mut s = Subst::new();
        s.insert(v, e);
        s
    }

    /// Add (or replace) a binding.
    pub fn insert(&mut self, v: Var, e: Expr) {
        self.map.insert(v, e);
    }

    /// Look up a binding.
    pub fn get(&self, v: &Var) -> Option<&Expr> {
        self.map.get(v)
    }

    /// Whether no variable is remapped.
    pub fn is_identity(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&Var, &Expr)> {
        self.map.iter()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the substitution has no bindings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Apply to an expression. All bindings are applied *simultaneously*:
    /// replacement expressions are not themselves re-substituted.
    pub fn apply_expr(&self, e: &Expr) -> Expr {
        match e {
            Expr::Const(_) => e.clone(),
            Expr::Var(v) => self.map.get(v).cloned().unwrap_or_else(|| e.clone()),
            Expr::Add(a, b) => self.apply_expr(a).add(self.apply_expr(b)),
            Expr::Sub(a, b) => self.apply_expr(a).sub(self.apply_expr(b)),
            Expr::Mul(a, b) => self.apply_expr(a).mul(self.apply_expr(b)),
            Expr::Neg(a) => self.apply_expr(a).neg(),
        }
    }

    /// Apply to a string term. A variable remapped to another variable is
    /// followed; a variable remapped to a non-variable expression leaves a
    /// string term unchanged only if the binding is string-incompatible —
    /// we conservatively keep the original variable in that case (sound:
    /// the resulting predicate constrains no more than before).
    pub fn apply_str_term(&self, t: &StrTerm) -> StrTerm {
        match t {
            StrTerm::Const(_) => t.clone(),
            StrTerm::Var(v) => match self.map.get(v) {
                Some(Expr::Var(w)) => StrTerm::Var(w.clone()),
                _ => t.clone(),
            },
        }
    }

    /// Apply to a row predicate (its `Outer` scalar terms only — row fields
    /// are untouched).
    pub fn apply_row_pred(&self, p: &RowPred) -> RowPred {
        match p {
            RowPred::True | RowPred::False => p.clone(),
            RowPred::Cmp(op, a, b) => {
                RowPred::Cmp(*op, self.apply_row_expr(a), self.apply_row_expr(b))
            }
            RowPred::Not(p) => RowPred::not(self.apply_row_pred(p)),
            RowPred::And(ps) => RowPred::and(ps.iter().map(|p| self.apply_row_pred(p))),
            RowPred::Or(ps) => RowPred::or(ps.iter().map(|p| self.apply_row_pred(p))),
        }
    }

    /// Apply to a row term (its `Outer` scalar terms only).
    pub fn apply_row_expr(&self, t: &RowExpr) -> RowExpr {
        match t {
            RowExpr::Outer(e) => RowExpr::Outer(self.apply_expr(e)),
            RowExpr::Add(a, b) => {
                RowExpr::Add(Box::new(self.apply_row_expr(a)), Box::new(self.apply_row_expr(b)))
            }
            RowExpr::Sub(a, b) => {
                RowExpr::Sub(Box::new(self.apply_row_expr(a)), Box::new(self.apply_row_expr(b)))
            }
            RowExpr::Mul(a, b) => {
                RowExpr::Mul(Box::new(self.apply_row_expr(a)), Box::new(self.apply_row_expr(b)))
            }
            other => other.clone(),
        }
    }

    /// Apply to a predicate.
    pub fn apply_pred(&self, p: &Pred) -> Pred {
        if self.is_identity() {
            return p.clone();
        }
        match p {
            Pred::True | Pred::False | Pred::Opaque(_) => p.clone(),
            Pred::Cmp(op, a, b) => Pred::Cmp(*op, self.apply_expr(a), self.apply_expr(b)),
            Pred::StrCmp { eq, lhs, rhs } => Pred::StrCmp {
                eq: *eq,
                lhs: self.apply_str_term(lhs),
                rhs: self.apply_str_term(rhs),
            },
            Pred::Not(p) => Pred::not(self.apply_pred(p)),
            Pred::And(ps) => Pred::and(ps.iter().map(|p| self.apply_pred(p))),
            Pred::Or(ps) => Pred::or(ps.iter().map(|p| self.apply_pred(p))),
            Pred::Implies(p, q) => Pred::implies(self.apply_pred(p), self.apply_pred(q)),
            Pred::Table(atom) => Pred::Table(self.apply_table_atom(atom)),
        }
    }

    fn apply_table_atom(&self, atom: &TableAtom) -> TableAtom {
        match atom {
            TableAtom::AllRows { table, constraint } => TableAtom::AllRows {
                table: table.clone(),
                constraint: self.apply_row_pred(constraint),
            },
            TableAtom::CountEq { table, filter, value } => TableAtom::CountEq {
                table: table.clone(),
                filter: self.apply_row_pred(filter),
                value: self.apply_expr(value),
            },
            TableAtom::Exists { table, filter } => {
                TableAtom::Exists { table: table.clone(), filter: self.apply_row_pred(filter) }
            }
            TableAtom::NotExists { table, filter } => {
                TableAtom::NotExists { table: table.clone(), filter: self.apply_row_pred(filter) }
            }
            TableAtom::SnapshotEq { table, filter, name } => TableAtom::SnapshotEq {
                table: table.clone(),
                filter: self.apply_row_pred(filter),
                name: name.clone(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::CmpOp;

    #[test]
    fn substitution_is_simultaneous() {
        // {x←y, y←x} applied to x+y must give y+x, not x+x.
        let mut s = Subst::new();
        s.insert(Var::db("x"), Expr::db("y"));
        s.insert(Var::db("y"), Expr::db("x"));
        let e = Expr::db("x").add(Expr::db("y"));
        assert_eq!(s.apply_expr(&e), Expr::db("y").add(Expr::db("x")));
    }

    #[test]
    fn apply_pred_hits_count_value_and_region_outers() {
        let s = Subst::single(Var::local("c"), Expr::local("c").add(Expr::int(1)));
        let atom = TableAtom::CountEq {
            table: "t".into(),
            filter: RowPred::field_eq_outer("k", Expr::local("c")),
            value: Expr::local("c"),
        };
        match s.apply_pred(&Pred::Table(atom)) {
            Pred::Table(TableAtom::CountEq { filter, value, .. }) => {
                assert_eq!(value, Expr::local("c").add(Expr::int(1)));
                assert_eq!(
                    filter,
                    RowPred::field_eq_outer("k", Expr::local("c").add(Expr::int(1)))
                );
            }
            other => panic!("unexpected: {other}"),
        }
    }

    #[test]
    fn identity_substitution_is_noop() {
        let p = Pred::ge(Expr::db("bal"), 0);
        assert_eq!(Subst::new().apply_pred(&p), p);
    }

    #[test]
    fn str_term_var_to_var() {
        let s = Subst::single(Var::local("C"), Expr::Var(Var::param("customer")));
        let t = StrTerm::Var(Var::local("C"));
        assert_eq!(s.apply_str_term(&t), StrTerm::Var(Var::param("customer")));
    }

    #[test]
    fn unbound_vars_untouched() {
        let s = Subst::single(Var::db("x"), Expr::int(1));
        let p = Pred::cmp(CmpOp::Lt, Expr::db("y"), Expr::db("x"));
        assert_eq!(s.apply_pred(&p), Pred::cmp(CmpOp::Lt, Expr::db("y"), Expr::int(1)));
    }
}
