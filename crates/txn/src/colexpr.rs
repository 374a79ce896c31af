//! Column-level expressions: the right-hand sides of UPDATE SET clauses
//! and INSERT VALUES.

use semcc_logic::subst::Subst;
use semcc_logic::{Expr, Var};
use semcc_storage::{Row, Schema, Value};
use std::fmt;

/// An expression producing one column value, evaluated against an (old)
/// row and the transaction's scalar environment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ColExpr {
    /// Integer literal.
    Int(i64),
    /// String literal.
    Str(String),
    /// The old row's value in this column (UPDATE only).
    Field(String),
    /// A scalar expression over the transaction's parameters and locals.
    Outer(Expr),
    /// Sum.
    Add(Box<ColExpr>, Box<ColExpr>),
    /// Difference.
    Sub(Box<ColExpr>, Box<ColExpr>),
    /// Product.
    Mul(Box<ColExpr>, Box<ColExpr>),
}

semcc_json::codec! {
    enum ColExpr { Int(v), Str(s), Field(c), Outer(e), Add(a, b), Sub(a, b), Mul(a, b) }
}

impl ColExpr {
    /// Field reference.
    pub fn field(name: impl Into<String>) -> Self {
        ColExpr::Field(name.into())
    }

    /// Outer scalar expression.
    pub fn outer(e: Expr) -> Self {
        ColExpr::Outer(e)
    }

    /// `self + rhs`
    pub fn add(self, rhs: ColExpr) -> Self {
        ColExpr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`
    pub fn sub(self, rhs: ColExpr) -> Self {
        ColExpr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`
    pub fn mul(self, rhs: ColExpr) -> Self {
        ColExpr::Mul(Box::new(self), Box::new(rhs))
    }

    /// Evaluate against an old row (for UPDATE) or `None` (for INSERT,
    /// where `Field` is meaningless) and a scalar environment.
    pub fn eval(
        &self,
        schema: &Schema,
        old_row: Option<&Row>,
        env: &dyn Fn(&Var) -> Option<Value>,
    ) -> Option<Value> {
        match self {
            ColExpr::Int(v) => Some(Value::Int(*v)),
            ColExpr::Str(s) => Some(Value::str(s.clone())),
            ColExpr::Field(c) => {
                let row = old_row?;
                let idx = schema.column_index(c).ok()?;
                row.get(idx).cloned()
            }
            ColExpr::Outer(e) => {
                if let Expr::Var(v) = e {
                    if let Some(val) = env(v) {
                        return Some(val);
                    }
                }
                let int_env = |v: &Var| env(v).and_then(|x| x.as_int());
                e.eval(&int_env).map(Value::Int)
            }
            ColExpr::Add(a, b) => {
                let x = a.eval(schema, old_row, env)?.as_int()?;
                let y = b.eval(schema, old_row, env)?.as_int()?;
                Some(Value::Int(x.checked_add(y)?))
            }
            ColExpr::Sub(a, b) => {
                let x = a.eval(schema, old_row, env)?.as_int()?;
                let y = b.eval(schema, old_row, env)?.as_int()?;
                Some(Value::Int(x.checked_sub(y)?))
            }
            ColExpr::Mul(a, b) => {
                let x = a.eval(schema, old_row, env)?.as_int()?;
                let y = b.eval(schema, old_row, env)?.as_int()?;
                Some(Value::Int(x.checked_mul(y)?))
            }
        }
    }

    /// Substitute scalar variables inside `Outer` terms (symbolic execution
    /// replaces locals by their symbolic values).
    pub fn subst_outer(&self, s: &Subst) -> ColExpr {
        match self {
            ColExpr::Outer(e) => ColExpr::Outer(s.apply_expr(e)),
            ColExpr::Add(a, b) => {
                ColExpr::Add(Box::new(a.subst_outer(s)), Box::new(b.subst_outer(s)))
            }
            ColExpr::Sub(a, b) => {
                ColExpr::Sub(Box::new(a.subst_outer(s)), Box::new(b.subst_outer(s)))
            }
            ColExpr::Mul(a, b) => {
                ColExpr::Mul(Box::new(a.subst_outer(s)), Box::new(b.subst_outer(s)))
            }
            other => other.clone(),
        }
    }

    /// Lower to a scalar [`Expr`] for prover obligations, mapping `Field(c)`
    /// to the row-field skolem `?row$c` (consistent with
    /// [`semcc_logic::row::RowPred::to_scalar`]). Strings lower to `None`.
    pub fn to_scalar(&self) -> Option<Expr> {
        match self {
            ColExpr::Int(v) => Some(Expr::Const(*v)),
            ColExpr::Str(_) => None,
            ColExpr::Field(c) => Some(Expr::Var(Var::logical(format!(
                "{}{c}",
                semcc_logic::row::FIELD_SKOLEM_PREFIX
            )))),
            ColExpr::Outer(e) => Some(e.clone()),
            ColExpr::Add(a, b) => Some(a.to_scalar()?.add(b.to_scalar()?)),
            ColExpr::Sub(a, b) => Some(a.to_scalar()?.sub(b.to_scalar()?)),
            ColExpr::Mul(a, b) => Some(a.to_scalar()?.mul(b.to_scalar()?)),
        }
    }

    /// The string payload if the expression is a literal or a string-valued
    /// outer variable under `env` — used when lowering string equalities.
    pub fn as_str_term(&self) -> Option<semcc_logic::StrTerm> {
        match self {
            ColExpr::Str(s) => Some(semcc_logic::StrTerm::Const(s.clone())),
            ColExpr::Outer(Expr::Var(v)) => Some(semcc_logic::StrTerm::Var(v.clone())),
            _ => None,
        }
    }
}

impl fmt::Display for ColExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ColExpr::Int(v) => write!(f, "{v}"),
            ColExpr::Str(s) => write!(f, "\"{s}\""),
            ColExpr::Field(c) => write!(f, ".{c}"),
            ColExpr::Outer(e) => write!(f, "{e}"),
            ColExpr::Add(a, b) => write!(f, "({a} + {b})"),
            ColExpr::Sub(a, b) => write!(f, "({a} - {b})"),
            ColExpr::Mul(a, b) => write!(f, "({a} * {b})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new("emp", &["name", "rate", "hrs", "sal"], &["name"])
    }

    #[test]
    fn eval_field_arith() {
        let s = schema();
        let row = vec![Value::str("a"), Value::Int(10), Value::Int(5), Value::Int(50)];
        let e = ColExpr::field("hrs").add(ColExpr::Outer(Expr::param("h")));
        let env = |v: &Var| (v == &Var::param("h")).then_some(Value::Int(3));
        assert_eq!(e.eval(&s, Some(&row), &env), Some(Value::Int(8)));
    }

    #[test]
    fn eval_field_without_row_is_none() {
        let s = schema();
        assert_eq!(ColExpr::field("hrs").eval(&s, None, &|_| None), None);
    }

    #[test]
    fn eval_string_outer() {
        let s = schema();
        let e = ColExpr::Outer(Expr::param("cust"));
        let env = |v: &Var| (v == &Var::param("cust")).then_some(Value::str("alice"));
        assert_eq!(e.eval(&s, None, &env), Some(Value::str("alice")));
    }

    #[test]
    fn subst_outer_rewrites_locals() {
        let e = ColExpr::Outer(Expr::local("n")).add(ColExpr::Int(1));
        let s = Subst::single(Var::local("n"), Expr::param("m"));
        assert_eq!(e.subst_outer(&s), ColExpr::Outer(Expr::param("m")).add(ColExpr::Int(1)));
    }

    #[test]
    fn to_scalar_uses_field_skolems() {
        let e = ColExpr::field("hrs").add(ColExpr::Int(2));
        let scalar = e.to_scalar().expect("scalar");
        assert!(scalar.mentions(&Var::logical("row$hrs")));
    }

    #[test]
    fn to_scalar_of_string_is_none() {
        assert!(ColExpr::Str("x".into()).to_scalar().is_none());
    }
}
