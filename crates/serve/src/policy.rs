//! Loading, verifying, and merging `semcc synth` admission-policy
//! artifacts.
//!
//! The server trusts an artifact only after [`verify_policy_digest`]
//! replays its self-integrity check: the `policy_digest` field must equal
//! the FNV-1a digest of the canonical serialization of the rest of the
//! object. Because `semcc-json` prints deterministically and parse→print
//! round-trips byte-exactly, a digest mismatch can only mean the file was
//! edited after `semcc synth` wrote it — and the server refuses to start.
//!
//! Several artifacts (one per application) can be merged into a single
//! admission table for mixed traffic; transaction-type names must stay
//! disjoint across the merged artifacts.

use semcc_engine::IsolationLevel;
use semcc_json::Json;
use semcc_synth::policy::{verify_policy_digest, PolicyAssignment, POLICY_DIGEST_FIELD};
use std::collections::BTreeMap;
use std::fmt;

/// The `artifact` tag `semcc synth` stamps into every policy file.
pub const POLICY_ARTIFACT: &str = "semcc-admission-policy";

/// Provenance of one merged artifact: the application name and the
/// verified self-digest (echoed into bench reports so a result can be
/// tied back to the exact policy that produced it).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PolicySource {
    /// The artifact's `app` field.
    pub app: String,
    /// The artifact's verified `policy_digest`.
    pub digest: String,
}

/// Per-type admission entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TypePolicy {
    /// The cheapest safe isolation level the synthesis assigned.
    pub level: IsolationLevel,
    /// Whether the type is additionally safe under SNAPSHOT.
    pub snapshot_ok: bool,
}

/// Why a policy artifact was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolicyError {
    /// The file could not be read.
    Io { path: String, error: String },
    /// The file is not valid JSON.
    Parse { path: String, error: String },
    /// The self-integrity digest is missing or does not match (tampering).
    Digest { path: String, error: String },
    /// The JSON verifies but is not a well-formed admission policy.
    Malformed { path: String, error: String },
    /// Two merged artifacts assign the same transaction type.
    DuplicateType { txn: String, first: String, second: String },
}

impl fmt::Display for PolicyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PolicyError::Io { path, error } => write!(f, "reading {path}: {error}"),
            PolicyError::Parse { path, error } => write!(f, "parsing {path}: {error}"),
            PolicyError::Digest { path, error } => {
                write!(f, "policy {path} failed digest verification: {error}")
            }
            PolicyError::Malformed { path, error } => {
                write!(f, "policy {path} is malformed: {error}")
            }
            PolicyError::DuplicateType { txn, first, second } => {
                write!(f, "transaction type `{txn}` is assigned by both `{first}` and `{second}`")
            }
        }
    }
}

impl std::error::Error for PolicyError {}

/// A verified admission table: for every known transaction type, the
/// isolation level the server must run it at.
#[derive(Clone, Debug, Default)]
pub struct AdmissionPolicy {
    sources: Vec<PolicySource>,
    types: BTreeMap<String, (TypePolicy, String)>,
}

impl AdmissionPolicy {
    /// Build a policy from an already-parsed artifact. Verifies the
    /// self-digest first; `origin` labels errors (usually the file path).
    pub fn from_json(artifact: &Json, origin: &str) -> Result<Self, PolicyError> {
        verify_policy_digest(artifact)
            .map_err(|error| PolicyError::Digest { path: origin.to_string(), error })?;
        let malformed = |error: String| PolicyError::Malformed { path: origin.to_string(), error };
        let tag = artifact.get("artifact").and_then(Json::as_str);
        if tag != Some(POLICY_ARTIFACT) {
            return Err(malformed(format!(
                "`artifact` must be \"{POLICY_ARTIFACT}\", got {tag:?}"
            )));
        }
        let app: String = artifact.field("app").map_err(|e| malformed(e.to_string()))?;
        let digest = artifact
            .get(POLICY_DIGEST_FIELD)
            .and_then(Json::as_str)
            .expect("verify_policy_digest guarantees the digest field");
        let assignments: Vec<PolicyAssignment> =
            artifact.field("assignments").map_err(|e| malformed(e.to_string()))?;
        let mut types = BTreeMap::new();
        for PolicyAssignment { txn, level: name, snapshot_ok } in assignments {
            let Some(level) = IsolationLevel::from_name(&name) else {
                return Err(malformed(format!(
                    "assignment for `{txn}` names unknown level `{name}`"
                )));
            };
            if types.insert(txn.clone(), (TypePolicy { level, snapshot_ok }, app.clone())).is_some()
            {
                return Err(malformed(format!("type `{txn}` assigned twice")));
            }
        }
        if types.is_empty() {
            return Err(malformed("artifact assigns no transaction types".into()));
        }
        Ok(AdmissionPolicy {
            sources: vec![PolicySource { app, digest: digest.to_string() }],
            types,
        })
    }

    /// Load and verify one artifact from disk.
    pub fn load(path: &str) -> Result<Self, PolicyError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| PolicyError::Io { path: path.to_string(), error: e.to_string() })?;
        let json = semcc_json::from_str_value(&text)
            .map_err(|e| PolicyError::Parse { path: path.to_string(), error: e.to_string() })?;
        AdmissionPolicy::from_json(&json, path)
    }

    /// Load and merge several artifacts (mixed traffic: one policy per
    /// application). Type names must be disjoint.
    pub fn load_all<'a>(paths: impl IntoIterator<Item = &'a str>) -> Result<Self, PolicyError> {
        let mut merged: Option<AdmissionPolicy> = None;
        for p in paths {
            let next = AdmissionPolicy::load(p)?;
            merged = Some(match merged {
                None => next,
                Some(acc) => acc.merge(next)?,
            });
        }
        merged.ok_or(PolicyError::Malformed {
            path: "<none>".to_string(),
            error: "no policy artifacts given".to_string(),
        })
    }

    /// Merge two verified policies; duplicate type names are an error.
    pub fn merge(mut self, other: AdmissionPolicy) -> Result<Self, PolicyError> {
        for (txn, (tp, app)) in other.types {
            if let Some((_, first)) = self.types.get(&txn) {
                return Err(PolicyError::DuplicateType { txn, first: first.clone(), second: app });
            }
            self.types.insert(txn, (tp, app));
        }
        self.sources.extend(other.sources);
        Ok(self)
    }

    /// The assigned level for a type, if known.
    pub fn level_of(&self, txn: &str) -> Option<IsolationLevel> {
        self.types.get(txn).map(|(tp, _)| tp.level)
    }

    /// The full per-type entry, if known.
    pub fn type_policy(&self, txn: &str) -> Option<&TypePolicy> {
        self.types.get(txn).map(|(tp, _)| tp)
    }

    /// The application an entry came from.
    pub fn app_of(&self, txn: &str) -> Option<&str> {
        self.types.get(txn).map(|(_, app)| app.as_str())
    }

    /// All known type names, sorted.
    pub fn types(&self) -> impl Iterator<Item = &str> {
        self.types.keys().map(String::as_str)
    }

    /// Number of known types.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// Provenance of every merged artifact, in merge order.
    pub fn sources(&self) -> &[PolicySource] {
        &self.sources
    }
}

#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use semcc_json::ToJson;
    use semcc_synth::policy::seal_policy;

    /// The `assignments` list of `entries`, `(txn, level name, snapshot_ok)`.
    pub fn assignments(entries: &[(&str, &str, bool)]) -> Json {
        let entries: Vec<PolicyAssignment> = entries
            .iter()
            .map(|(t, l, s)| PolicyAssignment {
                txn: t.to_string(),
                level: l.to_string(),
                snapshot_ok: *s,
            })
            .collect();
        entries.to_json()
    }

    /// A minimal, correctly sealed artifact for unit tests.
    pub fn sealed_artifact(app: &str, entries: &[(&str, &str, bool)]) -> Json {
        seal_policy(Json::obj([
            ("app", Json::str(app)),
            ("artifact", Json::str(POLICY_ARTIFACT)),
            ("version", Json::Int(1)),
            ("assignments", assignments(entries)),
        ]))
    }

    /// A verified [`AdmissionPolicy`] built from a minimal artifact.
    pub fn sealed_policy(app: &str, entries: &[(&str, &str, bool)]) -> AdmissionPolicy {
        AdmissionPolicy::from_json(&sealed_artifact(app, entries), "test")
            .expect("test artifact verifies")
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{assignments, sealed_artifact as artifact};
    use super::*;
    use semcc_synth::policy::seal_policy;

    #[test]
    fn parses_verified_artifact() {
        let a = artifact(
            "banking",
            &[
                ("Withdraw_sav", "REPEATABLE READ", false),
                ("Deposit_sav", "READ COMMITTED+FCW", true),
            ],
        );
        let p = AdmissionPolicy::from_json(&a, "test").expect("valid artifact");
        assert_eq!(p.level_of("Withdraw_sav"), Some(IsolationLevel::RepeatableRead));
        assert_eq!(p.level_of("Deposit_sav"), Some(IsolationLevel::ReadCommittedFcw));
        assert!(p.type_policy("Deposit_sav").expect("entry").snapshot_ok);
        assert_eq!(p.level_of("Audit"), None);
        assert_eq!(p.sources().len(), 1);
        assert_eq!(p.sources()[0].app, "banking");
        assert!(p.sources()[0].digest.starts_with("fnv1a:"));
    }

    #[test]
    fn tampered_artifact_is_refused() {
        let a = artifact("banking", &[("Withdraw_sav", "REPEATABLE READ", false)]);
        let Json::Obj(mut fields) = a else { panic!("artifact is an object") };
        for (k, v) in &mut fields {
            if k == "assignments" {
                // Downgrade the assigned level after sealing: the classic
                // attack the digest gate exists to stop.
                *v = assignments(&[("Withdraw_sav", "READ UNCOMMITTED", false)]);
            }
        }
        let err = AdmissionPolicy::from_json(&Json::Obj(fields), "test").expect_err("tampered");
        assert!(matches!(err, PolicyError::Digest { .. }), "got: {err}");
    }

    #[test]
    fn unknown_level_and_bad_shapes_are_malformed() {
        let a = artifact("x", &[("T", "ULTRA SERIALIZABLE", false)]);
        let err = AdmissionPolicy::from_json(&a, "test").expect_err("unknown level");
        assert!(matches!(err, PolicyError::Malformed { .. }), "got: {err}");

        let sealed = seal_policy(Json::obj([("app", Json::str("x"))]));
        let err = AdmissionPolicy::from_json(&sealed, "test").expect_err("no artifact tag");
        assert!(matches!(err, PolicyError::Malformed { .. }), "got: {err}");

        // An entry without `snapshot_ok` is malformed, not `false`.
        let sealed = seal_policy(Json::obj([
            ("app", Json::str("x")),
            ("artifact", Json::str(POLICY_ARTIFACT)),
            (
                "assignments",
                Json::Arr(vec![Json::obj([
                    ("txn", Json::str("T")),
                    ("level", Json::str("SERIALIZABLE")),
                ])]),
            ),
        ]));
        let err = AdmissionPolicy::from_json(&sealed, "test").expect_err("no snapshot_ok");
        assert!(matches!(err, PolicyError::Malformed { .. }), "got: {err}");
        assert!(err.to_string().contains("missing field `snapshot_ok`"), "got: {err}");
    }

    #[test]
    fn merge_requires_disjoint_types() {
        let a =
            AdmissionPolicy::from_json(&artifact("banking", &[("T1", "SERIALIZABLE", false)]), "a")
                .expect("a");
        let b = AdmissionPolicy::from_json(&artifact("orders", &[("T2", "SNAPSHOT", true)]), "b")
            .expect("b");
        let m = a.clone().merge(b).expect("disjoint merge");
        assert_eq!(m.len(), 2);
        assert_eq!(m.sources().len(), 2);
        assert_eq!(m.app_of("T2"), Some("orders"));

        let dup = AdmissionPolicy::from_json(&artifact("other", &[("T1", "SSI", false)]), "c")
            .expect("c");
        let err = a.merge(dup).expect_err("duplicate type");
        assert!(matches!(err, PolicyError::DuplicateType { .. }), "got: {err}");
    }
}
