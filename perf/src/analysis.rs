//! The analyzer's static pipeline, from an application to a verified
//! admission policy — the work behind `semcc synth`, called function by
//! function so each call can carry a span.

use crate::trace::Scope;
use semcc_core::assign::default_ladder;
use semcc_core::{assign_levels, App, DepGraph};
use semcc_engine::IsolationLevel;
use semcc_json::Json;
use semcc_serve::policy::POLICY_ARTIFACT;
use semcc_serve::AdmissionPolicy;
use semcc_synth::policy::{certificate_digest, seal_policy, synth_certificate};
use semcc_synth::{policy_json, synthesize, SearchStats, SynthOptions};
use semcc_workloads::{banking, orders, payroll, tpcc};
use std::collections::BTreeMap;

/// The five bundled applications, by the name their policy is sealed under.
pub fn apps() -> Vec<(&'static str, App)> {
    vec![
        ("banking", banking::app()),
        ("orders", orders::app(false)),
        ("orders_strict", orders::app(true)),
        ("payroll", payroll::app()),
        ("tpcc", tpcc::app()),
    ]
}

/// What one pipeline run produced.
pub struct Proven {
    /// The sealed policy artifact, as `semcc synth` would write it.
    pub artifact: Json,
    /// The verified admission policy, loaded from the artifact.
    pub policy: AdmissionPolicy,
    /// The primary minimal vector, positionally.
    pub levels: Vec<IsolationLevel>,
    /// Self-digest of the policy artifact.
    pub policy_digest: String,
    /// Digest of the synthesis certificate the policy is bound to.
    pub certificate_digest: String,
    /// Lattice-search accounting (lemmas, vectors, prover calls).
    pub stats: SearchStats,
}

/// Run the whole static pipeline on `app`: dependency graph, greedy level
/// assignment, edge refinement, deadlock prediction, lattice synthesis,
/// certificate, independent verification, policy artifact, and the
/// server's own load of it. Witness replay is off: it is schedule
/// execution on the engine, not analysis, and is measured separately
/// (`synth.witness_replay_ms`).
///
/// `Err` names the check that failed: the certificate did not verify, the
/// synthesized primary vector left the greedy walk, or the server refused
/// the artifact.
pub fn prove(app: &App, name: &str, scope: &mut Scope<'_>) -> Result<Proven, String> {
    let graph = scope.call("core.sdg_build", || DepGraph::build(app));
    let greedy = scope.call("core.assign_levels", || assign_levels(app, &default_ladder()));
    scope.call("refine.refine", || semcc_refine::refine(app, &graph));
    let level_map: BTreeMap<String, IsolationLevel> =
        greedy.iter().map(|a| (a.txn.clone(), a.level)).collect();
    let advisories =
        scope.call("refine.predict_deadlocks", || semcc_refine::predict_deadlocks(app, &level_map));
    let opts = SynthOptions { jobs: 1, witnesses: false, ..SynthOptions::default() };
    let syn = scope.call("synth.synthesize", || synthesize(app, &opts))?;
    let cert = scope.call("synth.certificate", || synth_certificate(app, name, &syn));
    let report = scope.call("cert.verify", || semcc_cert::verify(&cert));
    if !report.is_valid() {
        return Err(format!("{name}: certificate rejected: {}", report.errors.join("; ")));
    }
    let levels = syn.primary().levels.clone();
    if levels != greedy.iter().map(|a| a.level).collect::<Vec<_>>() {
        return Err(format!("{name}: primary vector {levels:?} differs from the greedy walk"));
    }
    let certificate_digest = certificate_digest(&cert);
    let artifact = scope.call("synth.policy_json", || {
        policy_json(name, &syn, &greedy, &advisories, &certificate_digest)
    });
    let policy = scope
        .call("serve.policy_load", || AdmissionPolicy::from_json(&artifact, name))
        .map_err(|e| e.to_string())?;
    let policy_digest = policy.sources()[0].digest.clone();
    Ok(Proven { artifact, policy, levels, policy_digest, certificate_digest, stats: syn.stats })
}

/// A sealed artifact assigning `levels` to `txns` without running the
/// analyzer — for vectors taken from a synthesis result recorded elsewhere
/// (`bank_mvcc`'s MVCC-only minimal vector).
pub fn sealed_artifact(app: &str, txns: &[&str], levels: &[IsolationLevel]) -> Json {
    seal_policy(Json::obj([
        ("app", Json::str(app)),
        ("artifact", Json::str(POLICY_ARTIFACT)),
        ("version", Json::Int(1)),
        (
            "assignments",
            Json::Arr(
                txns.iter()
                    .zip(levels)
                    .map(|(t, l)| {
                        Json::obj([
                            ("txn", Json::str(*t)),
                            ("level", Json::str(l.name())),
                            ("snapshot_ok", Json::Bool(l.is_snapshot())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]))
}

/// Compare a pipeline result with the app's entry in
/// `expected/policies.json` (`{app: {levels, policy_digest,
/// certificate_digest}}`); returns one line per difference.
pub fn check_expected(name: &str, proven: &Proven, expected: &Json) -> Vec<String> {
    let Some(entry) = expected.get(name) else {
        return vec![format!("{name}: no entry in expected/policies.json")];
    };
    let mut out = Vec::new();
    let want_levels: Vec<&str> = entry
        .get("levels")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_str).collect())
        .unwrap_or_default();
    let got_levels: Vec<&str> = proven.levels.iter().map(|l| l.name()).collect();
    if want_levels != got_levels {
        out.push(format!("{name}: primary vector {got_levels:?}, expected {want_levels:?}"));
    }
    for (field, got) in [
        ("policy_digest", &proven.policy_digest),
        ("certificate_digest", &proven.certificate_digest),
    ] {
        let want = entry.get(field).and_then(Json::as_str).unwrap_or("<missing>");
        if want != got {
            out.push(format!("{name}: {field} {got}, expected {want}"));
        }
    }
    out
}

/// The `expected/policies.json` entry for a pipeline result.
pub fn expected_entry(proven: &Proven) -> Json {
    Json::obj([
        ("levels", Json::Arr(proven.levels.iter().map(|l| Json::str(l.name())).collect())),
        ("policy_digest", Json::str(&proven.policy_digest)),
        ("certificate_digest", Json::str(&proven.certificate_digest)),
    ])
}
