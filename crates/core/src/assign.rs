//! The Section 5 procedure: choose the lowest safe isolation level.

use crate::app::App;
use crate::interfere::Analyzer;
use crate::theorems::{check_with, LevelReport};
use semcc_engine::IsolationLevel;
use semcc_txn::symexec::SymOptions;
use std::collections::BTreeSet;

/// The analyzer's verdict for one transaction type.
#[derive(Clone, Debug)]
pub struct Assignment {
    /// Transaction type.
    pub txn: String,
    /// Lowest level on the ladder at which the type is semantically
    /// correct. SERIALIZABLE always passes, so this is never `None` when
    /// the ladder ends with SERIALIZABLE.
    pub level: IsolationLevel,
    /// Whether the type is additionally safe under SNAPSHOT isolation
    /// (Theorem 5) — reported separately, as the paper keeps SNAPSHOT
    /// outside the ANSI ladder.
    pub snapshot_ok: bool,
    /// Prover queries this type's ladder walk answered from the shared
    /// memo cache instead of re-proving (identical obligations recur
    /// across levels — and across types, since the walk shares one
    /// analyzer).
    pub cache_hits: usize,
    /// The per-level reports that led to the decision (in ladder order, up
    /// to and including the assigned level, plus the SNAPSHOT report).
    pub reports: Vec<LevelReport>,
}

/// Run the Section 5 procedure for every transaction type of the
/// application, walking `ladder` weakest-first. The default ladder is
/// READ UNCOMMITTED → READ COMMITTED → RC+FCW → REPEATABLE READ →
/// SERIALIZABLE.
///
/// ```
/// use semcc_core::assign::{assign_levels, default_ladder};
/// use semcc_core::App;
/// use semcc_engine::IsolationLevel;
/// use semcc_logic::parser::parse_pred;
/// use semcc_txn::stmt::{ItemRef, Stmt};
/// use semcc_txn::ProgramBuilder;
///
/// // A transaction that only ever reads — safe at READ UNCOMMITTED
/// // provided its annotation claims nothing interferable.
/// let reader = ProgramBuilder::new("Report")
///     .stmt(
///         Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() },
///         parse_pred("true").unwrap(),
///         parse_pred(":X = ?SEEN").unwrap(), // pure capture
///     )
///     .build();
/// let app = App::new().with_program(reader);
/// let a = &assign_levels(&app, &default_ladder())[0];
/// assert_eq!(a.level, IsolationLevel::ReadUncommitted);
/// ```
pub fn assign_levels(app: &App, ladder: &[IsolationLevel]) -> Vec<Assignment> {
    // One analyzer for the whole walk: identical obligations recur across
    // ladder steps (and across types), so the memo cache answers them
    // without re-proving. Each report still carries only its own deltas;
    // the per-type `cache_hits` sums them.
    let analyzer = Analyzer::new(app);
    let check = |name: &str, level| {
        check_with(&analyzer, app, name, level, SymOptions::default(), &BTreeSet::new())
    };
    app.programs
        .iter()
        .map(|p| {
            let mut reports = Vec::new();
            let mut assigned = *ladder.last().expect("non-empty ladder");
            for level in ladder {
                let r = check(&p.name, *level);
                let ok = r.ok;
                reports.push(r);
                if ok {
                    assigned = *level;
                    break;
                }
            }
            let snap = check(&p.name, IsolationLevel::Snapshot);
            let snapshot_ok = snap.ok;
            reports.push(snap);
            let cache_hits = reports.iter().map(|r| r.cache_hits).sum();
            Assignment { txn: p.name.clone(), level: assigned, snapshot_ok, cache_hits, reports }
        })
        .collect()
}

/// The default ladder (the paper's RU → RC → RR → SER, with the Section
/// 3.4 RC+FCW level inserted where the paper's Section 6 uses it).
pub fn default_ladder() -> Vec<IsolationLevel> {
    vec![
        IsolationLevel::ReadUncommitted,
        IsolationLevel::ReadCommitted,
        IsolationLevel::ReadCommittedFcw,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Serializable,
    ]
}

/// The paper's original four-level ladder (no RC+FCW).
pub fn ansi_ladder() -> Vec<IsolationLevel> {
    vec![
        IsolationLevel::ReadUncommitted,
        IsolationLevel::ReadCommitted,
        IsolationLevel::RepeatableRead,
        IsolationLevel::Serializable,
    ]
}
