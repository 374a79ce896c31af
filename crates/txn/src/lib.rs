//! The transaction-program language of the paper's Section 3.1 model,
//! extended with the relational statements of Section 4.
//!
//! A [`Program`] is an *annotated* transaction: a statement list where each
//! statement carries its precondition and postcondition (the paper's
//! `P_{i,j}` control-point assertions), plus the transaction triple
//! `{I_i ∧ B_i ∧ x = X} T_i {I_i ∧ Q_i}`. Programs can be
//!
//! * **executed** against the engine at any isolation level
//!   ([`interp::run_program`]), and
//! * **symbolically executed** ([`symexec::summarize`]) into per-path
//!   effect summaries — the representation the analyzer uses when a
//!   theorem requires treating a transaction as an atomic isolated unit.

#![allow(clippy::should_implement_trait)] // DSL builders named add/sub/mul

pub mod evalpred;
pub mod interp;
pub mod monitor;
pub mod program;
pub mod stmt;
pub mod symexec;

pub use program::{Bindings, ParamKind, Program, ProgramBuilder};
pub use stmt::{AStmt, ItemRef, Stmt};
pub use symexec::{PathSummary, ReadFootprint, RelEffect, WriteFootprint};
