//! The paper's contribution: semantic conditions for correctness at
//! different isolation levels, mechanized.
//!
//! Given an *application* — a set of annotated transaction programs over a
//! shared schema, plus registered preservation lemmas for opaque integrity
//! conjuncts — this crate:
//!
//! 1. checks Owicki–Gries **non-interference obligations**
//!    `{P ∧ P'} S {P}` mechanically ([`interfere`]),
//! 2. enumerates, **per isolation level**, exactly the obligations each of
//!    the paper's Theorems 1–6 requires ([`theorems`]),
//! 3. runs the Section 5 procedure assigning each transaction type the
//!    lowest isolation level at which it is semantically correct
//!    ([`assign`]), and
//! 4. accounts for how many obligations each level requires, reproducing
//!    the paper's `(KN)²`-to-`K²` analysis-cost reduction claim
//!    ([`counting`]).
//!
//! Everything is **sound by construction**: the analyzer reports
//! "semantically correct at level L" only when every obligation was proven;
//! any prover give-up surfaces as possible interference and pushes the
//! assignment to a higher level.

pub mod annotate;
pub mod app;
pub mod assign;
pub mod certify;
pub mod compens;
pub mod counting;
pub mod diag;
pub mod interfere;
pub mod sdg;
pub mod theorems;
pub mod witness;

pub use annotate::{check_annotations, check_app_annotations, AnnotationIssue, Severity};
pub use app::{App, LemmaRegistry, LemmaScope};
pub use assign::{assign_levels, Assignment};
pub use certify::certify_app;
pub use diag::{code_for, lint, lint_with_singletons, Diagnostic, LintReport};
pub use interfere::{Analyzer, Verdict};
pub use sdg::{
    predict_exposures, stmt_footprints, DangerousStructure, DepEdge, DepGraph, DepKind, Exposure,
    StmtFootprint,
};
pub use theorems::{
    check_at_level, check_pair, check_with, obligations, FailedObligation, LevelReport, Obligation,
};
pub use witness::{
    neutral_bindings, replay_witness, replay_witnesses, seed_neutral, Witness, WitnessOutcome,
};
