//! Structured lint diagnostics over the static dependency graph.
//!
//! A [`Diagnostic`] carries a stable code (`SEMCC-W001` … `SEMCC-W005`,
//! plus `SEMCC-W007` for SSI pivot aborts; `SEMCC-W006` belongs to the
//! static deadlock advisories in `semcc-refine`),
//! the offending statement pair, the provenance of the failed proof
//! obligation (which theorem, which non-interference triple), and — where
//! the refutation is linear-arithmetic — a concrete counterexample
//! variable assignment extracted from the Fourier–Motzkin model.
//!
//! [`lint`] is the single entry point behind both the `semcc lint` CLI
//! subcommand and the `table_lint` bench binary. Two modes:
//!
//! * **default** (no level vector): run the paper's Section 5 lowest-safe-
//!   level assignment — every type then runs at a level its theorem
//!   *proves* safe, so the only residual risk is the one the assignment
//!   deliberately leaves open: SNAPSHOT write skew. Each dangerous
//!   structure whose participant fails Theorem 5 becomes a `SEMCC-W001`.
//! * **explicit levels**: re-check each type at the given level; a failed
//!   theorem becomes one diagnostic per statically-exposed anomaly kind.

use crate::app::App;
use crate::assign::{assign_levels, default_ladder};
use crate::interfere::Analyzer;
use crate::sdg::{predict_exposures, DangerousStructure, DepEdge, DepGraph, Exposure};
use crate::theorems::{check_with, obligations};
use semcc_engine::{AnomalyKind, IsolationLevel};
use semcc_txn::stmt::Stmt;
use semcc_txn::symexec::SymOptions;
use semcc_txn::Program;
use std::collections::{BTreeMap, BTreeSet};

/// Stable diagnostic code for an anomaly kind.
pub fn code_for(kind: AnomalyKind) -> &'static str {
    match kind {
        AnomalyKind::WriteSkew => "SEMCC-W001",
        AnomalyKind::DirtyRead => "SEMCC-W002",
        AnomalyKind::LostUpdate => "SEMCC-W003",
        AnomalyKind::NonRepeatableRead => "SEMCC-W004",
        AnomalyKind::Phantom => "SEMCC-W005",
        // W006 is taken by the static deadlock advisories.
        AnomalyKind::SsiAbort => "SEMCC-W007",
    }
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable code, e.g. `SEMCC-W001`.
    pub code: String,
    /// Predicted anomaly.
    pub kind: AnomalyKind,
    /// Level the transaction was linted at.
    pub level: IsolationLevel,
    /// Affected transaction type.
    pub txn: String,
    /// The interfering type, when the anomaly is pairwise.
    pub partner: Option<String>,
    /// Offending statements (`type stmt #i: …`), victim's first.
    pub statements: Vec<String>,
    /// Failed-obligation provenance: theorem and triple descriptions.
    pub provenance: Vec<String>,
    /// Concrete variable assignment refuting the obligation (empty when
    /// the refutation was not linear or the obligation held trivially).
    pub counterexample: Vec<(String, i64)>,
    /// One-line human summary.
    pub message: String,
}

impl Diagnostic {
    /// Multi-line human rendering (code, message, statements, provenance,
    /// counterexample).
    pub fn render(&self) -> String {
        let mut out = format!("{} [{}] {}: {}", self.code, self.kind, self.txn, self.message);
        for s in &self.statements {
            out.push_str(&format!("\n    at {s}"));
        }
        for p in &self.provenance {
            out.push_str(&format!("\n    because {p}"));
        }
        if !self.counterexample.is_empty() {
            let vars: Vec<String> =
                self.counterexample.iter().map(|(v, x)| format!("{v} = {x}")).collect();
            out.push_str(&format!("\n    counterexample: {}", vars.join(", ")));
        }
        out
    }
}

/// The full result of linting an application.
#[derive(Clone, Debug)]
pub struct LintReport {
    /// Level each type was linted at (program order).
    pub levels: Vec<(String, IsolationLevel)>,
    /// Whether the levels came from the Section 5 assignment (default
    /// mode) rather than the caller.
    pub levels_assigned: bool,
    /// Static anomaly-exposure prediction per type at its level.
    pub exposures: Vec<Exposure>,
    /// Dangerous structures found in the dependency graph.
    pub dangerous: Vec<DangerousStructure>,
    /// The classified dependency edges the prediction ran over, with
    /// statement-level provenance (stable anchors for refinement
    /// justifications).
    pub edges: Vec<DepEdge>,
    /// Findings. Empty means the application lints clean.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Whether no diagnostics were emitted.
    pub fn clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lint an application. `levels` maps transaction type name to the level
/// it will run at; `None` selects the default mode (Section 5 assignment
/// over the default ladder, plus the SNAPSHOT write-skew advisory).
pub fn lint(app: &App, levels: Option<&BTreeMap<String, IsolationLevel>>) -> LintReport {
    lint_with_singletons(app, levels, &BTreeSet::new())
}

/// Like [`lint`], but skip self-interference obligations for the types in
/// `singletons` (see [`check_with`]): the refined differential
/// oracle uses this when it knows the explored system runs at most one
/// instance of those types. An empty set reproduces [`lint`] exactly.
pub fn lint_with_singletons(
    app: &App,
    levels: Option<&BTreeMap<String, IsolationLevel>>,
    singletons: &BTreeSet<String>,
) -> LintReport {
    let opts = SymOptions::default();
    let graph = DepGraph::build_opts(app, opts);
    let dangerous = graph.dangerous_structures();
    let analyzer = Analyzer::new(app);

    let (level_vec, assigned): (Vec<(String, IsolationLevel)>, bool) = match levels {
        Some(m) => (
            app.programs
                .iter()
                .map(|p| {
                    let l = m.get(&p.name).copied().unwrap_or(IsolationLevel::Serializable);
                    (p.name.clone(), l)
                })
                .collect(),
            false,
        ),
        None => (
            assign_levels(app, &default_ladder()).into_iter().map(|a| (a.txn, a.level)).collect(),
            true,
        ),
    };
    let level_map: BTreeMap<String, IsolationLevel> = level_vec.iter().cloned().collect();
    let exposures = predict_exposures(&graph, &level_map);

    // A fresh analyzer per (txn, level) check keeps the fresh-name stream
    // (and thus rendered failure text) identical to `check_at_level`.
    let check = |name: &str, level: IsolationLevel| {
        let a = Analyzer::new(app);
        check_with(&a, app, name, level, opts, singletons)
    };

    let mut diagnostics = Vec::new();
    if assigned {
        // Every type runs at a proven-safe ladder level; the residual risk
        // is write skew if anyone ever opts into SNAPSHOT. Advise per
        // dangerous structure whose participants fail Theorem 5.
        let mut warned: BTreeSet<String> = BTreeSet::new();
        for d in &dangerous {
            for (victim, partner, reads, writes) in [
                (&d.a, &d.b, &d.a_reads_b_writes, &d.b_reads_a_writes),
                (&d.b, &d.a, &d.b_reads_a_writes, &d.a_reads_b_writes),
            ] {
                if warned.contains(victim) {
                    continue;
                }
                let report = check(victim, IsolationLevel::Snapshot);
                if report.ok {
                    continue;
                }
                warned.insert(victim.clone());
                let program = app.program(victim).expect("dangerous txn exists");
                let partner_prog = app.program(partner).expect("partner exists");
                let mut statements = stmt_refs(program, reads, writes);
                statements.extend(stmt_refs(partner_prog, writes, reads));
                let counterexample =
                    counterexample(app, &analyzer, victim, IsolationLevel::Snapshot, opts);
                let mut provenance = vec![format!("Theorem 5 (SNAPSHOT) fails for {victim}")];
                provenance.extend(report.failures.iter().cloned());
                diagnostics.push(Diagnostic {
                    code: code_for(AnomalyKind::WriteSkew).to_string(),
                    kind: AnomalyKind::WriteSkew,
                    level: IsolationLevel::Snapshot,
                    txn: victim.clone(),
                    partner: Some(partner.clone()),
                    statements,
                    provenance,
                    counterexample,
                    message: format!(
                        "write skew with {partner} if run under SNAPSHOT: reads {{{}}} it \
                         writes, writes {{{}}} it reads, and the write sets can be disjoint",
                        join(reads),
                        join(writes)
                    ),
                });
            }
        }
    } else {
        for (name, level) in &level_vec {
            // An SSI type is serializable only when every concurrent type
            // is SSI-tracked too (dangerous-structure detection sees both
            // sides of every rw-antidependency). Against an untracked
            // partner its guarantees — and hence its obligations — are
            // exactly SNAPSHOT's.
            let degraded = *level == IsolationLevel::Ssi
                && level_vec.iter().any(|(n, l)| n != name && !l.siread_locks());
            let eff = if degraded { IsolationLevel::Snapshot } else { *level };
            let report = check(name, eff);
            if report.ok {
                continue;
            }
            let program = app.program(name).expect("linted txn exists");
            let exposure = exposures
                .iter()
                .find(|e| &e.txn == name)
                .expect("exposure computed for every type");
            let mut kinds: Vec<(AnomalyKind, Option<String>)> =
                exposure.exposed.iter().map(|(k, why)| (*k, Some(why.clone()))).collect();
            if kinds.is_empty() {
                // Theorem failed but no detector-level exposure predicted:
                // still report the level's characteristic phenomenon.
                kinds.push((level_default_kind(eff), None));
            }
            // Best effort below SNAPSHOT: Theorem 2's obligation shape,
            // which Theorems 1, 4 and 6 refine.
            let shape = if eff.is_snapshot() {
                IsolationLevel::Snapshot
            } else {
                IsolationLevel::ReadCommitted
            };
            let counterexample = counterexample(app, &analyzer, name, shape, opts);
            for (kind, why) in kinds {
                let partner = partner_for(&dangerous, &graph, name, kind);
                let statements = match kind {
                    AnomalyKind::WriteSkew => dangerous
                        .iter()
                        .find(|d| d.a == *name || d.b == *name)
                        .map(|d| {
                            let (reads, writes) = if d.a == *name {
                                (&d.a_reads_b_writes, &d.b_reads_a_writes)
                            } else {
                                (&d.b_reads_a_writes, &d.a_reads_b_writes)
                            };
                            stmt_refs(program, reads, writes)
                        })
                        .unwrap_or_default(),
                    _ => read_stmt_refs(program),
                };
                let mut provenance =
                    vec![format!("{} fails for {name} at {level}", theorem_name(eff))];
                if degraded {
                    provenance.push(format!(
                        "SSI degraded to SNAPSHOT obligations: a concurrent type is not \
                         SSI-tracked, so dangerous-structure aborts cannot cover {name}"
                    ));
                }
                provenance.extend(report.failures.iter().cloned());
                diagnostics.push(Diagnostic {
                    code: code_for(kind).to_string(),
                    kind,
                    level: *level,
                    txn: name.clone(),
                    partner,
                    statements,
                    provenance,
                    counterexample: counterexample.clone(),
                    message: match why {
                        Some(w) => format!("{kind} possible at {level}: {w}"),
                        None => format!(
                            "semantic correctness not provable at {level} \
                             (characteristic phenomenon: {kind})"
                        ),
                    },
                });
            }
        }
    }

    LintReport {
        levels: level_vec,
        levels_assigned: assigned,
        exposures,
        dangerous,
        edges: graph.edges,
        diagnostics,
    }
}

/// The phenomenon each level is named for — the fallback diagnostic kind
/// when a theorem fails without a matching detector-level exposure.
fn level_default_kind(level: IsolationLevel) -> AnomalyKind {
    match level {
        IsolationLevel::ReadUncommitted => AnomalyKind::DirtyRead,
        IsolationLevel::ReadCommitted | IsolationLevel::ReadCommittedFcw => AnomalyKind::LostUpdate,
        IsolationLevel::RepeatableRead => AnomalyKind::Phantom,
        IsolationLevel::Snapshot | IsolationLevel::Ssi | IsolationLevel::Serializable => {
            AnomalyKind::WriteSkew
        }
    }
}

fn theorem_name(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::ReadUncommitted => "Theorem 1 (READ UNCOMMITTED)",
        IsolationLevel::ReadCommitted => "Theorem 2 (READ COMMITTED)",
        IsolationLevel::ReadCommittedFcw => "Theorem 3 (READ COMMITTED+FCW)",
        IsolationLevel::RepeatableRead => "Theorems 4/6 (REPEATABLE READ)",
        IsolationLevel::Snapshot => "Theorem 5 (SNAPSHOT)",
        IsolationLevel::Ssi => "SSI (dangerous-structure aborts: no obligations)",
        IsolationLevel::Serializable => "SERIALIZABLE (no obligations)",
    }
}

fn join(s: &BTreeSet<String>) -> String {
    s.iter().cloned().collect::<Vec<_>>().join(", ")
}

/// Partner attribution for pairwise anomalies: the dangerous-structure
/// counterpart for write skew, else the target of an item rw edge.
fn partner_for(
    dangerous: &[DangerousStructure],
    graph: &DepGraph,
    name: &str,
    kind: AnomalyKind,
) -> Option<String> {
    match kind {
        AnomalyKind::WriteSkew => dangerous.iter().find_map(|d| {
            if d.a == name {
                Some(d.b.clone())
            } else if d.b == name {
                Some(d.a.clone())
            } else {
                None
            }
        }),
        _ => graph
            .edges
            .iter()
            .find(|e| {
                e.from == name
                    && e.kind == crate::sdg::DepKind::ReadWrite
                    && !(e.items.is_empty() && e.tables.is_empty())
            })
            .map(|e| e.to.clone()),
    }
}

/// References to the statements of `program` that read one of `reads` or
/// write one of `writes` — the offending statement pair of a mutual
/// anti-dependency, phrased over the flattened statement list (the same
/// numbering the theorems' `post(read #i)` labels use).
fn stmt_refs(
    program: &Program,
    reads: &BTreeSet<String>,
    writes: &BTreeSet<String>,
) -> Vec<String> {
    let mut out = Vec::new();
    for (i, a) in program.all_stmts().iter().enumerate() {
        match &a.stmt {
            Stmt::ReadItem { item, .. } if reads.contains(&item.base) => {
                out.push(format!("{} stmt #{i}: read of `{}`", program.name, item));
            }
            Stmt::WriteItem { item, .. } | Stmt::WriteItemMax { item, .. }
                if writes.contains(&item.base) =>
            {
                out.push(format!("{} stmt #{i}: write of `{}`", program.name, item));
            }
            _ => {}
        }
    }
    out
}

/// References to every database-read statement of `program`.
fn read_stmt_refs(program: &Program) -> Vec<String> {
    program
        .all_stmts()
        .iter()
        .enumerate()
        .filter(|(_, a)| a.stmt.is_db_read())
        .map(|(i, a)| format!("{} stmt #{i}: {:?}", program.name, kind_of(&a.stmt)))
        .map(|s| s.replace("\"", ""))
        .collect()
}

fn kind_of(s: &Stmt) -> String {
    match s {
        Stmt::ReadItem { item, .. } => format!("read of `{item}`"),
        Stmt::Select { table, .. }
        | Stmt::SelectCount { table, .. }
        | Stmt::SelectValue { table, .. } => format!("SELECT on `{table}`"),
        _ => "statement".to_string(),
    }
}

/// Ask the prover for a *model* of the first of `victim`'s obligations at
/// `level` the analyzer cannot discharge: a concrete assignment to
/// parameters, logical constants and pre-state items under which some
/// type's unit effect breaks the protected assertion. Empty when there is
/// no such obligation or no linear model of one.
fn counterexample(
    app: &App,
    analyzer: &Analyzer<'_>,
    victim: &str,
    level: IsolationLevel,
    opts: SymOptions,
) -> Vec<(String, i64)> {
    for other in &app.programs {
        for ob in obligations(app, victim, &other.name, level, false, opts).list {
            if analyzer.preserves(&ob.assertion, &ob.effect, &ob.writer, ob.scope).is_preserved() {
                continue;
            }
            if let Some(model) = analyzer.counterexample(&ob.assertion, &ob.effect) {
                return model.into_iter().map(|(v, x)| (v.to_string(), x)).collect();
            }
        }
    }
    Vec::new()
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn codes_are_stable_and_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for k in AnomalyKind::ALL {
            assert!(seen.insert(code_for(k)), "duplicate code for {k}");
        }
        assert_eq!(code_for(AnomalyKind::WriteSkew), "SEMCC-W001");
    }
}
