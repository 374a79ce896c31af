//! Optimality evidence: refuting the immediate predecessors of each
//! Pareto-minimal vector.
//!
//! A vector is Pareto-minimal only if *every* immediate predecessor —
//! each coordinate lowered one chain step — is unsafe. For each
//! predecessor the search already knows a failed pairwise lemma; this
//! module turns that failure into checkable evidence:
//!
//! 1. **Scalar countermodel** — re-ask the prover for a concrete integer
//!    assignment violating the failed obligation
//!    ([`Analyzer::violation_model`](semcc_core::Analyzer::violation_model)),
//!    with *deterministic* fresh constants (`?syn%…`) so the certificate
//!    is byte-identical across runs; the model is pre-validated with the
//!    checker's own [`check_countermodel`] before it is embedded.
//! 2. **Trusted refutation trace** — when the failure is not scalar
//!    (table-rule trust boundary, opaque lemma atoms) or no model is
//!    produced, the analyzer's reason string is recorded instead; the
//!    certificate checker counts these against its trust boundary.
//! 3. **Executable witness schedule** — the failed pair is compiled to a
//!    two-instance anomaly diagnostic and replayed through the real
//!    engine at the *predecessor's* levels
//!    ([`replay_witness`]); the resulting
//!    schedule is embedded in the certificate. Replays are independent,
//!    so they fan out over `jobs` workers in deterministic order.

use crate::{partner_bit, MinimalVector, PairCache, SynthOptions, DOMAIN, SNAP, SSI};
use semcc_cert::{check_countermodel, PredEvidence};
use semcc_core::theorems::FailedObligation;
use semcc_core::witness::replay_witness;
use semcc_core::{code_for, App, Diagnostic, LintReport};
use semcc_engine::{AnomalyKind, IsolationLevel};
use semcc_logic::{Expr, Var};
use semcc_par::ordered_map;
use std::collections::BTreeMap;

/// The refutation of one immediate predecessor of a minimal vector.
#[derive(Clone, Debug)]
pub struct Predecessor {
    /// Coordinate that was lowered (index into [`crate::Synthesis::txns`]).
    pub coord: usize,
    /// The level the coordinate was lowered to.
    pub lowered_to: IsolationLevel,
    /// Victim type of the failing pairwise lemma. Usually the lowered
    /// type; when an SSI coordinate drops to SNAPSHOT the victim can
    /// instead be another SSI type that lost the tracked-partner vacuity
    /// against it.
    pub victim: String,
    /// Interfering type of the failing pair.
    pub interferer: String,
    /// Victim level the lemma ran at (`lowered_to` when the victim is the
    /// lowered type, the victim's own vector level otherwise).
    pub victim_level: IsolationLevel,
    /// The partner bit the lemma ran with ([`partner_bit`]): the
    /// interferer is snapshot-class (non-SSI victim) or SSI-tracked
    /// (SSI victim).
    pub partner_snapshot: bool,
    /// Failed obligation description.
    pub what: String,
    /// Analyzer's reason for the failure.
    pub reason: String,
    /// Countermodel or trusted refutation trace.
    pub evidence: PredEvidence,
    /// Executable witness schedule replayed at the predecessor's levels,
    /// when witness compilation was requested.
    pub witness: Option<semcc_core::Witness>,
}

/// Anomaly the failed pair most plausibly exhibits, for witness
/// compilation (the replay confirms or refutes the guess; the refutation
/// itself rests on the countermodel, not on this heuristic).
fn anomaly_for(code: u8, partner_snapshot: bool, relational: bool) -> AnomalyKind {
    if code >= SNAP {
        AnomalyKind::WriteSkew
    } else if code == 0 {
        AnomalyKind::DirtyRead
    } else if code == 3 && !partner_snapshot && relational {
        AnomalyKind::Phantom
    } else {
        AnomalyKind::NonRepeatableRead
    }
}

/// Build countermodel evidence for a failed obligation, or fall back to
/// the trusted reason trace. Fresh constants are `?syn%{k}%{item}` —
/// deterministic in the obligation, never produced by the analyzer's own
/// renamings, and rigid as `check_countermodel` requires.
fn countermodel_evidence(
    cache: &PairCache<'_>,
    failed: &FailedObligation,
) -> (PredEvidence, Vec<(String, i64)>) {
    let fo = &failed.obligation;
    let assign: Vec<(Var, Expr)> = fo.effect.assign.pairs.clone();
    let havoc_fresh: Vec<(Var, Var)> = fo
        .effect
        .havoc_items
        .iter()
        .enumerate()
        .map(|(k, v)| (v.clone(), Var::logical(format!("syn%{k}%{}", v.name()))))
        .collect();
    let model = cache.analyzer().violation_model(
        &fo.assertion,
        &fo.effect.condition,
        &assign,
        &havoc_fresh,
    );
    if let Some(model) = model {
        // Producer-side pre-validation with the checker's own routine:
        // only models the independent checker will accept are embedded.
        if check_countermodel(&fo.assertion, &fo.effect.condition, &assign, &havoc_fresh, &model)
            .is_ok()
        {
            let printable = model.iter().map(|(v, x)| (v.to_string(), *x)).collect();
            return (
                PredEvidence::Countermodel {
                    assertion: (*fo.assertion).clone(),
                    condition: fo.effect.condition.clone(),
                    assign,
                    havoc_fresh,
                    model,
                },
                printable,
            );
        }
    }
    let reason = if failed.reason.is_empty() {
        format!("{} may not preserve {}", fo.eff_desc, fo.what)
    } else {
        failed.reason.clone()
    };
    (PredEvidence::Trusted { reason }, Vec::new())
}

/// Refute every immediate predecessor of every minimal vector. Evidence
/// extraction is sequential (the analyzer's memo cache makes the re-runs
/// nearly free); witness replays fan out over `opts.jobs`.
pub(crate) fn refute_predecessors(
    app: &App,
    txns: &[String],
    cache: &mut PairCache<'_>,
    safety: &BTreeMap<Vec<u8>, bool>,
    minimal_codes: Vec<Vec<u8>>,
    opts: &SynthOptions,
) -> Vec<MinimalVector> {
    let mut minimal: Vec<MinimalVector> = Vec::new();
    // Witness replay work items: (vector index, predecessor index,
    // report, diagnostic), in deterministic order.
    let mut replays: Vec<(usize, usize, LintReport, Diagnostic)> = Vec::new();

    for codes in minimal_codes {
        let levels: Vec<IsolationLevel> = codes.iter().map(|&c| DOMAIN[c as usize]).collect();
        let mut predecessors = Vec::new();
        for (coord, &c) in codes.iter().enumerate() {
            if c == 0 || c == SNAP {
                // READ UNCOMMITTED has no predecessor; SNAPSHOT is the
                // bottom of the off-ladder chain.
                continue;
            }
            let mut pred = codes.clone();
            let lowered = if c == SSI { SNAP } else { c - 1 };
            pred[coord] = lowered;
            debug_assert_eq!(safety.get(&pred), Some(&false), "predecessor of a minimal vector");
            // Pairs that differ from the (safe) minimal vector all
            // involve the lowered coordinate: as victim (its own level
            // dropped), or — when an SSI coordinate drops to SNAPSHOT —
            // as interferer (every other SSI victim loses the
            // tracked-partner vacuity against it). Scan both families in
            // deterministic order.
            let mut victim_pairs = (0..txns.len())
                .map(|j| (coord, j, lowered))
                .chain((0..txns.len()).filter(|&i| i != coord).map(|i| (i, coord, pred[i])));
            let (victim, interferer, vcode) = victim_pairs
                .find(|&(i, j, vc)| !cache.get(i, j, vc, partner_bit(vc, pred[j])).ok)
                .expect("an unsafe predecessor fails a pair involving the lowered coordinate");
            let partner_snapshot = partner_bit(vcode, pred[interferer]);
            let (_, fails) = cache.run(victim, interferer, vcode, partner_snapshot);
            let failed =
                fails.first().expect("a failed pair records at least one failed obligation");
            let (evidence, counterexample) = countermodel_evidence(cache, failed);
            let (fo, reason) = (&failed.obligation, &failed.reason);
            if opts.witnesses {
                let kind = anomaly_for(vcode, partner_snapshot, !fo.effect.effects.is_empty());
                let diag = Diagnostic {
                    code: code_for(kind).to_string(),
                    kind,
                    level: DOMAIN[vcode as usize],
                    txn: txns[victim].clone(),
                    partner: Some(txns[interferer].clone()),
                    statements: Vec::new(),
                    provenance: vec![format!("synthesis predecessor refutation: {}", fo.what)],
                    counterexample,
                    message: format!(
                        "lowering {} to {} breaks {}: {}",
                        txns[coord], DOMAIN[lowered as usize], fo.what, reason
                    ),
                };
                let report = LintReport {
                    levels: txns
                        .iter()
                        .zip(&pred)
                        .map(|(t, &pc)| (t.clone(), DOMAIN[pc as usize]))
                        .collect(),
                    levels_assigned: false,
                    exposures: Vec::new(),
                    dangerous: Vec::new(),
                    edges: Vec::new(),
                    diagnostics: Vec::new(),
                };
                replays.push((minimal.len(), predecessors.len(), report, diag));
            }
            predecessors.push(Predecessor {
                coord,
                lowered_to: DOMAIN[lowered as usize],
                victim: txns[victim].clone(),
                interferer: txns[interferer].clone(),
                victim_level: DOMAIN[vcode as usize],
                partner_snapshot,
                what: fo.what.to_string(),
                reason: reason.clone(),
                evidence,
                witness: None,
            });
        }
        minimal.push(MinimalVector { levels, codes, predecessors });
    }

    if !replays.is_empty() {
        let witnesses = ordered_map(opts.jobs, &replays, |_, (_, _, report, diag)| {
            replay_witness(app, report, diag)
        });
        for ((mv, pk, _, _), w) in replays.iter().zip(witnesses) {
            minimal[*mv].predecessors[*pk].witness = Some(w);
        }
    }
    minimal
}
