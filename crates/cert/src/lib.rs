//! Proof certificates for the semantic-correctness analyzer, and an
//! independent checker for them.
//!
//! The analyzer (`semcc-core`) discharges Owicki–Gries non-interference
//! triples `{P ∧ P'} S {P}` with a sound prover. A *certifying* run
//! additionally emits, per discharged triple, a [`ObligationCert`]
//! recording the substituted pre/post predicates, the writer's symbolic
//! path summary, and — for the arithmetic core — a Fourier–Motzkin
//! refutation trace of the negated implication ([`UnsatProof`]).
//!
//! [`verify()`] re-validates a [`Certificate`] using only predicate
//! evaluation and substitution plus the from-scratch kernel in this crate;
//! it never invokes the prover, so the analyzer and the checker fail
//! independently.
//!
//! # Trust boundary
//!
//! * **Fully re-verified:** scalar preservation steps
//!   ([`Step::Substitution`], [`Step::Disjoint`], [`Step::NoWrites`]) — the
//!   postcondition is recomputed by substitution, fresh havoc constants are
//!   occurs-checked, and the recorded unsatisfiability proof is replayed
//!   positionally against the checker's own DNF expansion of the negated
//!   implication.
//! * **Trusted premises:** registered preservation lemmas
//!   ([`Step::Lemma`], checked against the certificate's lemma
//!   declarations) and the structural footprint/table-region rules
//!   ([`Step::Footprint`], [`Step::TableRule`]), which mirror the paper's
//!   prose arguments and are validated empirically by the runtime monitor
//!   rather than logically by this checker.
//!
//! Synthesis certificates ([`MinimalVectorCert`]) follow the same split:
//! a [`PredEvidence::Countermodel`] is fully re-verified (the checker
//! rebuilds the violated obligation by substitution, expands it with its
//! own kernel, and evaluates the recorded integer model against a
//! branch), while [`PredEvidence::Trusted`] records a non-scalar failure
//! (lock-footprint or table-region interference) as a trusted premise.
//!
//! The checker also cannot know whether the analyzer enumerated *all*
//! obligations a theorem requires — it certifies that every *claimed*
//! discharge is genuine, the classic translation-validation contract.
#![warn(missing_docs)]

mod kernel;
pub mod verify;

use semcc_logic::certtrace::UnsatProof;
use semcc_logic::{Expr, Pred, Var};

pub use verify::{check_countermodel, verify, VerifyReport};

/// One reasoning step discharging part of a non-interference obligation.
#[derive(Clone, Debug, PartialEq)]
pub enum Step {
    /// The writer's path has no scalar effect (empty assignment, no havoc).
    NoWrites,
    /// The assertion's database variables are disjoint from the items the
    /// writer's path assigns or havocs.
    Disjoint,
    /// A registered preservation lemma covers the opaque atom for this
    /// writer at this scope (trusted premise; must be declared in the
    /// certificate header).
    Lemma {
        /// Opaque atom name.
        atom: String,
        /// Writing transaction the lemma covers.
        writer: String,
        /// Scope of use: `"Unit"` or `"Stmt"`.
        scope: String,
    },
    /// The writer's footprint is disjoint from the opaque atom's declared
    /// read footprint (trusted structural rule).
    Footprint {
        /// Opaque atom name.
        atom: String,
    },
    /// A structural table-region rule discharged a table atom against one
    /// relational effect (trusted structural rule).
    TableRule {
        /// Printed form of the table atom.
        atom: String,
        /// Kind of the discharged effect (e.g. `INSERT`).
        effect: String,
    },
    /// The substituted assertion was proven preserved: `post` is the
    /// assertion after applying the writer's assignment (havoced items
    /// replaced by the recorded fresh constants), and `proof` refutes every
    /// DNF branch of `¬((P ∧ (P ∧ cond)) ⟹ post)`.
    Substitution {
        /// The substituted postcondition `P[assign, havoc←fresh]`.
        post: Pred,
        /// Havoced item → fresh rigid constant, in havoc-list order.
        havoc_fresh: Vec<(Var, Var)>,
        /// Positional refutation of the negated implication.
        proof: UnsatProof,
    },
}

/// A certified (discharged) non-interference obligation
/// `{P ∧ P'} S {P}`: the protected assertion, the interfering path's
/// summary, and the steps that discharged it.
#[derive(Clone, Debug, PartialEq)]
pub struct ObligationCert {
    /// The protected assertion `P`.
    pub assertion: Pred,
    /// The interfering path's condition `P'` (its path constraint).
    pub condition: Pred,
    /// The path's simultaneous scalar assignment.
    pub assign: Vec<(Var, Expr)>,
    /// Items the path writes with untracked values (havoc).
    pub havoc: Vec<Var>,
    /// Human-readable descriptions of the path's relational effects.
    pub effects: Vec<String>,
    /// The discharging steps, in analyzer order.
    pub steps: Vec<Step>,
}

/// The certificate for one transaction type at one isolation level.
#[derive(Clone, Debug, PartialEq)]
pub struct TxnCert {
    /// Transaction type analyzed.
    pub txn: String,
    /// Isolation level analyzed (printed form).
    pub level: String,
    /// Whether every obligation was discharged.
    pub ok: bool,
    /// Total obligations the theorem enumerated (certified + failed +
    /// trivially discharged without a preservation query).
    pub obligations: usize,
    /// Certificates for the discharged preservation queries.
    pub certified: Vec<ObligationCert>,
    /// Failure descriptions (empty iff `ok`); failed obligations are
    /// witnessed by executable schedules, not certificates.
    pub failures: Vec<String>,
}

/// A certified refinement prune: one table constituent of a syntactic
/// dependence edge proven infeasible. The refinement pass records, per
/// pruned constituent, every feasibility obligation it discharged together
/// with the Fourier–Motzkin refutation trace; [`verify()`] replays each proof
/// against the kernel's own DNF expansion of the obligation, exactly as it
/// replays [`Step::Substitution`] proofs.
#[derive(Clone, Debug, PartialEq)]
pub struct PruneCert {
    /// Source transaction of the pruned edge.
    pub from: String,
    /// Target transaction of the pruned edge.
    pub to: String,
    /// Dependence kind of the edge (`wr`, `rw`, or `ww`).
    pub kind: String,
    /// Table constituent removed from the edge.
    pub table: String,
    /// Refinement rule that produced the obligations
    /// (`insert-beyond-region` or `region-region`).
    pub rule: String,
    /// Trusted premises the obligations assume (declared transaction
    /// preconditions, printed).
    pub premises: Vec<String>,
    /// Each discharged feasibility obligation with its refutation. The
    /// predicate states that some row is simultaneously in both sides'
    /// footprints; the proof refutes every DNF branch of it.
    pub obligations: Vec<(Pred, UnsatProof)>,
}

/// A preservation lemma declared by the application (trusted premise).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LemmaDecl {
    /// Opaque atom name.
    pub atom: String,
    /// Transaction the lemma covers.
    pub txn: String,
    /// Declared scope: `"Unit"` or `"Stmt"` (statement scope implies unit).
    pub scope: String,
}

/// Evidence refuting one immediate-predecessor vector of a synthesized
/// Pareto-minimal isolation-level vector.
#[derive(Clone, Debug, PartialEq)]
#[allow(clippy::large_enum_variant)] // Countermodel is the common case; boxing would only tax it
pub enum PredEvidence {
    /// A concrete integer countermodel of the violated non-interference
    /// obligation: an assignment satisfying
    /// `P ∧ P' ∧ ¬P[assign, havoc←fresh]`. Fully re-verified — the
    /// checker rebuilds the goal by substitution, expands it with its own
    /// kernel, and evaluates the model against a branch.
    Countermodel {
        /// The protected assertion `P`.
        assertion: Pred,
        /// The interfering path's condition `P'`.
        condition: Pred,
        /// The path's simultaneous scalar assignment.
        assign: Vec<(Var, Expr)>,
        /// Havoced item → fresh rigid constant, in havoc-list order.
        havoc_fresh: Vec<(Var, Var)>,
        /// The violating integer assignment.
        model: Vec<(Var, i64)>,
    },
    /// The failure was non-scalar (lock-footprint or table-region
    /// interference the kernel cannot evaluate a model against);
    /// accepted as a trusted premise like [`Step::TableRule`], with the
    /// analyzer's reason recorded.
    Trusted {
        /// The analyzer's interference reason.
        reason: String,
    },
}

/// One refuted immediate predecessor of a Pareto-minimal level vector:
/// lowering `txn` to `level` breaks the named pair lemma.
#[derive(Clone, Debug, PartialEq)]
pub struct PredecessorCert {
    /// Transaction type whose coordinate was lowered.
    pub txn: String,
    /// The lowered-to level (printed form).
    pub level: String,
    /// Victim of the failing pair lemma.
    pub victim: String,
    /// Interferer of the failing pair lemma.
    pub interferer: String,
    /// Level the victim runs at in the predecessor vector.
    pub victim_level: String,
    /// Whether the interferer's class is SNAPSHOT in the predecessor.
    pub partner_snapshot: bool,
    /// Description of the violated obligation.
    pub what: String,
    /// The refutation evidence.
    pub evidence: PredEvidence,
    /// Executable witness schedule compiled from the refutation
    /// (replay provenance, not re-checked; empty when no replay ran).
    pub schedule: Vec<String>,
    /// Whether the witness replay exhibited the predicted anomaly
    /// (`None` when no replay ran).
    pub confirmed: Option<bool>,
}

/// A synthesized Pareto-minimal isolation-level vector with its
/// optimality certificate: every immediate predecessor refuted.
#[derive(Clone, Debug, PartialEq)]
pub struct MinimalVectorCert {
    /// `(transaction type, level)` per coordinate, in application order.
    pub levels: Vec<(String, String)>,
    /// One refutation per immediate predecessor, in coordinate order.
    pub predecessors: Vec<PredecessorCert>,
}

/// A proof certificate for an application's analysis run.
#[derive(Clone, Debug, PartialEq)]
pub struct Certificate {
    /// Application name.
    pub app: String,
    /// Declared preservation lemmas (the trusted premises).
    pub lemmas: Vec<LemmaDecl>,
    /// Per-(transaction, level) reports.
    pub reports: Vec<TxnCert>,
    /// Refinement prunes (empty for certificates produced without
    /// `--refine`; absent in pre-refinement certificate files).
    pub prunes: Vec<PruneCert>,
    /// Synthesis optimality certificates (empty for certificates produced
    /// without `synth`; absent in older certificate files).
    pub synth: Vec<MinimalVectorCert>,
}

semcc_json::codec! {
    enum Step {
        NoWrites,
        Disjoint,
        Lemma { atom, writer, scope },
        #[bare] Footprint { atom },
        TableRule { atom, effect },
        Substitution { post, havoc_fresh, proof },
    }
    struct ObligationCert { assertion, condition, assign, havoc, effects, steps }
    struct TxnCert { txn, level, ok, obligations, certified, failures }
    struct LemmaDecl { atom, txn, scope }
    struct PruneCert { from, to, kind, table, rule, premises, obligations }
    enum PredEvidence {
        Countermodel { assertion, condition, assign, havoc_fresh, model },
        #[bare] Trusted { reason },
    }
    struct PredecessorCert {
        txn, level, victim, interferer, victim_level, partner_snapshot, what, evidence,
        schedule, confirmed,
    }
    struct MinimalVectorCert { levels, predecessors }
    struct Certificate { app, lemmas, reports, #[default] prunes, #[default] synth }
}
