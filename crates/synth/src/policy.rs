//! The admission-policy artifact and the synthesis certificate.
//!
//! `semcc synth --json` emits a deterministic `policy.json`: the per-type
//! level assignment (the primary minimal vector), whether each type may
//! run under SNAPSHOT, the `SEMCC-W006` deadlock advisories at the
//! assigned vector, the search accounting, and an FNV-1a digest of the
//! synthesis certificate binding the artifact to its proof. Byte
//! determinism holds across repeated runs and across `--jobs` settings:
//! every map iterated is a `BTreeMap`, every list is in fixed order, and
//! nothing consults the clock or a random source.

use crate::{ladder_only, Synthesis, SNAP, SSI};
use semcc_cert::{Certificate, LemmaDecl, MinimalVectorCert, PredecessorCert};
use semcc_core::{App, Assignment, LemmaScope};
use semcc_json::{to_string_pretty, Json, ToJson};
use semcc_refine::DeadlockAdvisory;

/// Package the synthesis into the certificate's `synth` section: one
/// entry per minimal vector, one refutation per immediate predecessor.
pub fn synth_certs(syn: &Synthesis) -> Vec<MinimalVectorCert> {
    syn.minimal
        .iter()
        .map(|m| MinimalVectorCert {
            levels: syn
                .txns
                .iter()
                .zip(&m.levels)
                .map(|(t, l)| (t.clone(), l.to_string()))
                .collect(),
            predecessors: m
                .predecessors
                .iter()
                .map(|p| PredecessorCert {
                    txn: p.victim.clone(),
                    level: p.lowered_to.to_string(),
                    victim: p.victim.clone(),
                    interferer: p.interferer.clone(),
                    victim_level: p.victim_level.to_string(),
                    partner_snapshot: p.partner_snapshot,
                    what: p.what.clone(),
                    evidence: p.evidence.clone(),
                    schedule: p.witness.as_ref().map(|w| w.schedule.clone()).unwrap_or_default(),
                    confirmed: p.witness.as_ref().map(|w| w.confirmed()),
                })
                .collect(),
        })
        .collect()
}

/// A standalone certificate carrying only the synthesis section (plus
/// the application's lemma declarations, so the checker can account the
/// trust boundary the same way `certify` does).
pub fn synth_certificate(app: &App, name: &str, syn: &Synthesis) -> Certificate {
    let lemmas = app
        .lemmas
        .all()
        .map(|(atom, txn, scope)| LemmaDecl {
            atom: atom.clone(),
            txn: txn.clone(),
            scope: match scope {
                LemmaScope::Unit => "Unit".to_string(),
                LemmaScope::Stmt => "Stmt".to_string(),
            },
        })
        .collect();
    Certificate {
        app: name.to_string(),
        lemmas,
        reports: Vec::new(),
        prunes: Vec::new(),
        synth: synth_certs(syn),
    }
}

/// FNV-1a digest of a serialized artifact, as `fnv1a:<16 hex digits>`.
pub fn policy_digest(serialized: &str) -> String {
    format!("fnv1a:{:016x}", crate::fnv1a(serialized.as_bytes()))
}

/// Digest of a certificate's canonical (pretty) serialization.
pub fn certificate_digest(cert: &Certificate) -> String {
    policy_digest(&to_string_pretty(cert))
}

/// Name of the artifact's self-integrity field.
pub const POLICY_DIGEST_FIELD: &str = "policy_digest";

/// Seal an artifact object with its own integrity digest: the appended
/// `policy_digest` field holds the FNV-1a digest of the canonical (pretty)
/// serialization of the object *without* that field. Because the
/// serializer is deterministic and parse→print round-trips byte-exactly,
/// any consumer can re-verify with [`verify_policy_digest`].
pub fn seal_policy(policy: Json) -> Json {
    let digest = policy_digest(&to_string_pretty(&policy));
    match policy {
        Json::Obj(mut fields) => {
            fields.push((POLICY_DIGEST_FIELD.to_string(), Json::str(digest)));
            Json::Obj(fields)
        }
        other => other,
    }
}

/// Verify a sealed artifact: strip the `policy_digest` field, re-serialize
/// canonically, and compare digests. Errors name what failed — a missing
/// field, a non-string field, or a mismatch (tampering).
pub fn verify_policy_digest(policy: &Json) -> Result<(), String> {
    let Json::Obj(fields) = policy else {
        return Err("policy artifact is not a JSON object".to_string());
    };
    let Some((_, digest)) = fields.iter().find(|(k, _)| k == POLICY_DIGEST_FIELD) else {
        return Err(format!("policy artifact has no `{POLICY_DIGEST_FIELD}` field"));
    };
    let Json::Str(claimed) = digest else {
        return Err(format!("policy `{POLICY_DIGEST_FIELD}` is not a string"));
    };
    let stripped = Json::Obj(
        fields.iter().filter(|(k, _)| k != POLICY_DIGEST_FIELD).cloned().collect::<Vec<_>>(),
    );
    let actual = policy_digest(&to_string_pretty(&stripped));
    if &actual != claimed {
        return Err(format!(
            "policy digest mismatch: artifact claims {claimed}, content hashes to {actual}"
        ));
    }
    Ok(())
}

/// One entry of the artifact's `assignments` list: the level a
/// transaction type is admitted at, by display name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicyAssignment {
    /// Transaction type.
    pub txn: String,
    /// The assigned level's display name (`IsolationLevel::name`).
    pub level: String,
    /// Whether the type is additionally safe under SNAPSHOT.
    pub snapshot_ok: bool,
}

semcc_json::codec! {
    struct PolicyAssignment { txn, level, snapshot_ok }
}

/// Build the admission-policy artifact. `assignments` is the greedy
/// per-type walk (for `snapshot_ok` and cross-checking); `advisories`
/// are the `SEMCC-W006` predictions at the primary vector.
pub fn policy_json(
    name: &str,
    syn: &Synthesis,
    assignments: &[Assignment],
    advisories: &[DeadlockAdvisory],
    cert_digest: &str,
) -> Json {
    let primary = syn.primary();
    let snapshot_ok = |txn: &str| {
        assignments.iter().find(|a| a.txn == txn).map(|a| a.snapshot_ok).unwrap_or(false)
    };
    let assigned: Vec<PolicyAssignment> = syn
        .txns
        .iter()
        .zip(&primary.levels)
        .map(|(t, l)| PolicyAssignment {
            txn: t.clone(),
            level: l.name().to_string(),
            snapshot_ok: snapshot_ok(t),
        })
        .collect();
    let minimal: Vec<Json> = syn
        .minimal
        .iter()
        .map(|m| {
            Json::obj([
                (
                    "levels",
                    Json::Arr(
                        syn.txns
                            .iter()
                            .zip(&m.levels)
                            .map(|(t, l)| Json::Arr(vec![Json::str(t), Json::str(l.name())]))
                            .collect(),
                    ),
                ),
                ("ladder_only", Json::Bool(ladder_only(&m.codes))),
                (
                    "snapshot_types",
                    Json::Arr(
                        syn.txns
                            .iter()
                            .zip(&m.codes)
                            .filter(|(_, &c)| c == SNAP)
                            .map(|(t, _)| Json::str(t))
                            .collect(),
                    ),
                ),
                (
                    "ssi_types",
                    Json::Arr(
                        syn.txns
                            .iter()
                            .zip(&m.codes)
                            .filter(|(_, &c)| c == SSI)
                            .map(|(t, _)| Json::str(t))
                            .collect(),
                    ),
                ),
                ("refuted_predecessors", Json::Int(m.predecessors.len() as i64)),
            ])
        })
        .collect();
    let s = &syn.stats;
    let search = Json::obj([
        ("types", Json::Int(s.types as i64)),
        ("lattice", Json::Int(s.lattice as i64)),
        ("visited", Json::Int(s.visited as i64)),
        ("cache_complete", Json::Int(s.cache_complete as i64)),
        ("pruned_unsafe", Json::Int(s.pruned_unsafe as i64)),
        ("pruned_safe", Json::Int(s.pruned_safe as i64)),
        ("safe", Json::Int(s.safe as i64)),
        ("pair_evals", Json::Int(s.pair_evals as i64)),
        ("pair_hits", Json::Int(s.pair_hits as i64)),
        // 7^MAX_TYPES · MAX_TYPES² < 2^31, so the cast is exact.
        ("naive_pair_evals", Json::Int(s.naive_pair_evals as i64)),
        ("prover_calls", Json::Int(s.prover_calls as i64)),
        ("prover_cache_hits", Json::Int(s.prover_cache_hits as i64)),
    ]);
    seal_policy(Json::obj([
        ("app", Json::str(name)),
        ("artifact", Json::str("semcc-admission-policy")),
        ("version", Json::Int(1)),
        ("assignments", assigned.to_json()),
        ("minimal_vectors", Json::Arr(minimal)),
        ("deadlock_advisories", advisories.to_json()),
        ("certificate_digest", Json::str(cert_digest)),
        ("search", search),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_and_verify_round_trip() {
        let sealed =
            seal_policy(Json::obj([("app", Json::str("banking")), ("version", Json::Int(1))]));
        verify_policy_digest(&sealed).expect("fresh seal verifies");
        // Round-trip through the printer/parser preserves verifiability.
        let reparsed = semcc_json::from_str_value(&to_string_pretty(&sealed)).expect("parse");
        verify_policy_digest(&reparsed).expect("round-tripped artifact verifies");
    }

    #[test]
    fn tampering_breaks_verification() {
        let sealed =
            seal_policy(Json::obj([("app", Json::str("banking")), ("version", Json::Int(1))]));
        let Json::Obj(mut fields) = sealed else { panic!("sealed must be an object") };
        fields[1].1 = Json::Int(2);
        let err = verify_policy_digest(&Json::Obj(fields)).expect_err("tampered must fail");
        assert!(err.contains("mismatch"), "got: {err}");
        assert!(verify_policy_digest(&Json::Int(3)).is_err());
        assert!(verify_policy_digest(&Json::obj([("app", Json::str("x"))])).is_err());
    }
}
