//! Assertion language and prover for semantic-correctness analysis.
//!
//! This crate provides the logical substrate used by the interference
//! analyzer (`semcc-core`): an integer/string expression language, a
//! predicate language with opaque constraint atoms and relational table
//! atoms, substitution, predicate-transformer machinery (weakest
//! precondition over simultaneous assignments), and a **sound** validity
//! prover for the quantifier-free linear-integer-arithmetic fragment
//! (DPLL-style case splitting over a lazy DNF plus Fourier–Motzkin
//! elimination, with integer tightening of strict inequalities).
//!
//! DSL note: the expression builders are deliberately named `add`/`sub`/
//! `mul`/`not` to mirror the assertion syntax; they are constructors, not
//! operator-trait impls.
#![allow(clippy::should_implement_trait)]

//! Soundness contract: [`prover::Prover::valid`] returns `Proven` only when
//! the formula is valid. An `Unknown` answer is always safe for the
//! analyzer, which then conservatively reports *possible interference*.

pub mod certtrace;
pub mod expr;
pub mod footprint;
pub mod hash;
pub mod linear;
pub mod parser;
pub mod pred;
pub mod prover;
pub mod row;
pub mod simplify;
pub mod subst;
pub mod transform;

pub use expr::{Expr, Var};
pub use pred::{CmpOp, Pred, StrTerm};
pub use prover::{Outcome, Prover};
pub use row::{RowExpr, RowPred};
pub use transform::Assign;
