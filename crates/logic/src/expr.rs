//! Integer-valued expressions over database items, transaction-local
//! variables, parameters, and rigid logical constants.
//!
//! The paper's assertion language ranges over database variables (`x`, `y`),
//! workspace/local variables (`X`, `Y`), transaction parameters (e.g. the
//! deposit amount `dep`), and *logical variables* (`X_i`) whose sole purpose
//! is to capture an initial value so postconditions can refer to it.
//! Boolean database fields are encoded as integers 0/1 by convention.

use std::fmt;

/// A variable occurring in an assertion or program expression.
///
/// The four kinds have distinct interference behavior:
/// * [`Var::Db`] names a shared database item — the only kind another
///   transaction's writes can change.
/// * [`Var::Local`] is private to one transaction's workspace.
/// * [`Var::Param`] is a rigid input argument (never written).
/// * [`Var::Logical`] is a rigid proof-only constant (never written).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Var {
    /// Shared, named database item (conventional-model item).
    Db(String),
    /// Transaction-local workspace variable.
    Local(String),
    /// Transaction parameter (rigid during execution).
    Param(String),
    /// Logical constant capturing an initial value (rigid).
    Logical(String),
}

impl Var {
    /// Convenience constructor for a database variable.
    pub fn db(name: impl Into<String>) -> Self {
        Var::Db(name.into())
    }

    /// Convenience constructor for a local variable.
    pub fn local(name: impl Into<String>) -> Self {
        Var::Local(name.into())
    }

    /// Convenience constructor for a parameter.
    pub fn param(name: impl Into<String>) -> Self {
        Var::Param(name.into())
    }

    /// Convenience constructor for a logical constant.
    pub fn logical(name: impl Into<String>) -> Self {
        Var::Logical(name.into())
    }

    /// The bare name, without the kind tag.
    pub fn name(&self) -> &str {
        match self {
            Var::Db(n) | Var::Local(n) | Var::Param(n) | Var::Logical(n) => n,
        }
    }

    /// Whether writes by *other* transactions can ever change this variable.
    /// Only database items are shared; everything else is rigid or private.
    pub fn is_shared(&self) -> bool {
        matches!(self, Var::Db(_))
    }

    /// Whether the variable is rigid (never assigned during execution).
    pub fn is_rigid(&self) -> bool {
        matches!(self, Var::Param(_) | Var::Logical(_))
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Var::Db(n) => write!(f, "{n}"),
            Var::Local(n) => write!(f, ":{n}"),
            Var::Param(n) => write!(f, "@{n}"),
            Var::Logical(n) => write!(f, "?{n}"),
        }
    }
}

/// An integer-valued expression.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Const(i64),
    /// Variable reference.
    Var(Var),
    /// Sum of subexpressions.
    Add(Box<Expr>, Box<Expr>),
    /// Difference of subexpressions.
    Sub(Box<Expr>, Box<Expr>),
    /// Product of subexpressions (linearized when one side is constant;
    /// otherwise treated opaquely by the prover).
    Mul(Box<Expr>, Box<Expr>),
    /// Arithmetic negation.
    Neg(Box<Expr>),
}

semcc_json::codec! {
    enum Var { Db(name), Local(name), Param(name), Logical(name) }
    enum Expr { Const(v), Var(v), Add(a, b), Sub(a, b), Mul(a, b), Neg(a) }
}

impl Expr {
    /// Integer literal expression.
    pub fn int(v: i64) -> Self {
        Expr::Const(v)
    }

    /// Database-variable expression.
    pub fn db(name: impl Into<String>) -> Self {
        Expr::Var(Var::db(name))
    }

    /// Local-variable expression.
    pub fn local(name: impl Into<String>) -> Self {
        Expr::Var(Var::local(name))
    }

    /// Parameter expression.
    pub fn param(name: impl Into<String>) -> Self {
        Expr::Var(Var::param(name))
    }

    /// Logical-constant expression.
    pub fn logical(name: impl Into<String>) -> Self {
        Expr::Var(Var::logical(name))
    }

    /// `self + rhs`
    pub fn add(self, rhs: Expr) -> Self {
        Expr::Add(Box::new(self), Box::new(rhs))
    }

    /// `self - rhs`
    pub fn sub(self, rhs: Expr) -> Self {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }

    /// `self * rhs`
    pub fn mul(self, rhs: Expr) -> Self {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }

    /// `-self`
    pub fn neg(self) -> Self {
        Expr::Neg(Box::new(self))
    }

    /// Collect every variable occurring in the expression into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Expr::Const(_) => {}
            Expr::Var(v) => out.push(v.clone()),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Neg(a) => a.collect_vars(out),
        }
    }

    /// All variables occurring in the expression (deduplicated, sorted).
    pub fn vars(&self) -> Vec<Var> {
        let mut v = Vec::new();
        self.collect_vars(&mut v);
        v.sort();
        v.dedup();
        v
    }

    /// Whether the expression mentions the given variable.
    pub fn mentions(&self, var: &Var) -> bool {
        match self {
            Expr::Const(_) => false,
            Expr::Var(v) => v == var,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.mentions(var) || b.mentions(var)
            }
            Expr::Neg(a) => a.mentions(var),
        }
    }

    /// Evaluate under an environment. Returns `None` when a variable is
    /// unbound (or on arithmetic overflow, which we refuse to mask).
    pub fn eval(&self, env: &dyn Fn(&Var) -> Option<i64>) -> Option<i64> {
        match self {
            Expr::Const(c) => Some(*c),
            Expr::Var(v) => env(v),
            Expr::Add(a, b) => a.eval(env)?.checked_add(b.eval(env)?),
            Expr::Sub(a, b) => a.eval(env)?.checked_sub(b.eval(env)?),
            Expr::Mul(a, b) => a.eval(env)?.checked_mul(b.eval(env)?),
            Expr::Neg(a) => a.eval(env)?.checked_neg(),
        }
    }

    /// Constant-fold the expression; purely syntactic, preserves meaning.
    pub fn fold(&self) -> Expr {
        match self {
            Expr::Const(_) | Expr::Var(_) => self.clone(),
            Expr::Add(a, b) => match (a.fold(), b.fold()) {
                (Expr::Const(x), Expr::Const(y)) => match x.checked_add(y) {
                    Some(z) => Expr::Const(z),
                    None => Expr::Const(x).add(Expr::Const(y)),
                },
                (Expr::Const(0), e) | (e, Expr::Const(0)) => e,
                (x, y) => x.add(y),
            },
            Expr::Sub(a, b) => match (a.fold(), b.fold()) {
                (Expr::Const(x), Expr::Const(y)) => match x.checked_sub(y) {
                    Some(z) => Expr::Const(z),
                    None => Expr::Const(x).sub(Expr::Const(y)),
                },
                (e, Expr::Const(0)) => e,
                (x, y) => x.sub(y),
            },
            Expr::Mul(a, b) => match (a.fold(), b.fold()) {
                (Expr::Const(x), Expr::Const(y)) => match x.checked_mul(y) {
                    Some(z) => Expr::Const(z),
                    None => Expr::Const(x).mul(Expr::Const(y)),
                },
                (Expr::Const(0), _) | (_, Expr::Const(0)) => Expr::Const(0),
                (Expr::Const(1), e) | (e, Expr::Const(1)) => e,
                (x, y) => x.mul(y),
            },
            Expr::Neg(a) => match a.fold() {
                Expr::Const(x) => match x.checked_neg() {
                    Some(z) => Expr::Const(z),
                    None => Expr::Const(x).neg(),
                },
                e => e.neg(),
            },
        }
    }
}

impl From<i64> for Expr {
    fn from(v: i64) -> Self {
        Expr::Const(v)
    }
}

impl From<Var> for Expr {
    fn from(v: Var) -> Self {
        Expr::Var(v)
    }
}

impl fmt::Debug for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Const(c) => write!(f, "{c}"),
            Expr::Var(v) => write!(f, "{v}"),
            Expr::Add(a, b) => write!(f, "({a} + {b})"),
            Expr::Sub(a, b) => write!(f, "({a} - {b})"),
            Expr::Mul(a, b) => write!(f, "({a} * {b})"),
            Expr::Neg(a) => write!(f, "(-{a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_kinds_display_with_sigils() {
        assert_eq!(Var::db("bal").to_string(), "bal");
        assert_eq!(Var::local("Sav").to_string(), ":Sav");
        assert_eq!(Var::param("w").to_string(), "@w");
        assert_eq!(Var::logical("SAV0").to_string(), "?SAV0");
    }

    #[test]
    fn only_db_vars_are_shared() {
        assert!(Var::db("x").is_shared());
        assert!(!Var::local("x").is_shared());
        assert!(!Var::param("x").is_shared());
        assert!(!Var::logical("x").is_shared());
    }

    #[test]
    fn rigid_kinds() {
        assert!(Var::param("x").is_rigid());
        assert!(Var::logical("x").is_rigid());
        assert!(!Var::db("x").is_rigid());
        assert!(!Var::local("x").is_rigid());
    }

    #[test]
    fn eval_arithmetic() {
        let e = Expr::db("x").add(Expr::int(3)).mul(Expr::int(2));
        let env = |v: &Var| if v.name() == "x" { Some(5) } else { None };
        assert_eq!(e.eval(&env), Some(16));
    }

    #[test]
    fn eval_unbound_is_none() {
        let e = Expr::db("x").add(Expr::db("y"));
        let env = |v: &Var| if v.name() == "x" { Some(1) } else { None };
        assert_eq!(e.eval(&env), None);
    }

    #[test]
    fn eval_overflow_is_none() {
        let e = Expr::int(i64::MAX).add(Expr::int(1));
        assert_eq!(e.eval(&|_| None), None);
    }

    #[test]
    fn fold_constants() {
        let e = Expr::int(2).add(Expr::int(3)).mul(Expr::int(4));
        assert_eq!(e.fold(), Expr::Const(20));
    }

    #[test]
    fn fold_identities() {
        let x = Expr::db("x");
        assert_eq!(x.clone().add(Expr::int(0)).fold(), x);
        assert_eq!(x.clone().mul(Expr::int(1)).fold(), x);
        assert_eq!(x.clone().mul(Expr::int(0)).fold(), Expr::Const(0));
        assert_eq!(x.clone().sub(Expr::int(0)).fold(), x);
    }

    #[test]
    fn fold_does_not_panic_on_overflow() {
        let e = Expr::int(i64::MAX).add(Expr::int(1));
        // stays symbolic rather than wrapping
        assert_eq!(e.fold(), Expr::int(i64::MAX).add(Expr::int(1)));
    }

    #[test]
    fn vars_dedup_sorted() {
        let e = Expr::db("y").add(Expr::db("x")).add(Expr::db("x"));
        assert_eq!(e.vars(), vec![Var::db("x"), Var::db("y")]);
    }

    #[test]
    fn mentions_checks_subtrees() {
        let e = Expr::db("x").add(Expr::local("L").neg());
        assert!(e.mentions(&Var::db("x")));
        assert!(e.mentions(&Var::local("L")));
        assert!(!e.mentions(&Var::db("L")));
    }
}
