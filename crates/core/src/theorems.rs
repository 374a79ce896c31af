//! Theorems 1–6 as one obligation generator.
//!
//! An isolation level, against a class of partner, is a rule: which unit
//! of the interferer runs between the victim's steps, which of the
//! victim's assertions that unit must preserve, and which pairs the level's
//! locks or first-committer-wins validation excuse (the private `rule`
//! function is the table, one row per theorem; DESIGN.md §6 prints it).
//! A rule applied to `(victim, interferer)` is a list of [`Obligation`]s
//! ([`obligations`]); a verdict is that list discharged in order by the
//! [`Analyzer`]. The returned [`LevelReport`] records whether every
//! obligation was proven, how many the rule generated (the analysis-cost
//! metric behind the paper's `(KN)² → K²` claim), and the reasons for any
//! failures.
//!
//! Fresh constants are numbered by a process-global counter and the
//! analyzer's memo is keyed on printed predicates, so the order of
//! `summarize`, `rollback_effects` and prover calls is observable in every
//! `prover calls` / `cache hits` column: obligations are generated per
//! pair (effects outer, assertions inner), discharged before the next pair
//! is generated, and nothing is hoisted or cached across pairs.

use crate::app::{App, LemmaScope};
use crate::compens::{forward_write_effects, rename_unit, rollback_effects};
use crate::interfere::{Analyzer, Verdict};
use semcc_engine::IsolationLevel;
use semcc_logic::row::RowPred;
use semcc_logic::Pred;
use semcc_txn::stmt::Stmt;
use semcc_txn::symexec::{summarize, SymOptions};
use semcc_txn::{PathSummary, Program, RelEffect};
use std::collections::BTreeSet;
use std::rc::Rc;

/// The verdict for one transaction type at one isolation level.
#[derive(Clone, Debug)]
pub struct LevelReport {
    /// Transaction type analyzed.
    pub txn: String,
    /// Isolation level analyzed.
    pub level: IsolationLevel,
    /// Whether every obligation was proven (semantically correct at level).
    pub ok: bool,
    /// Number of non-interference obligations enumerated.
    pub obligations: usize,
    /// Number of prover queries issued.
    pub prover_calls: usize,
    /// Number of prover queries answered from the analyzer's memo cache
    /// (these are *not* counted in `prover_calls`).
    pub cache_hits: usize,
    /// Failure descriptions (empty iff `ok`).
    pub failures: Vec<String>,
}

/// The victim's assertions a rule protects, in discharge order.
#[derive(Clone, Copy)]
enum Protects {
    /// `I_i` when `invariant`, then every read statement's postcondition,
    /// then `Q_i`.
    Reads { invariant: bool },
    /// Nothing for a transaction without a SELECT (Theorem 4); otherwise
    /// `Q_i`, then every SELECT's postcondition.
    Selects,
    /// Nothing for a read-only transaction (all its assertions are facts
    /// about its immutable snapshot); otherwise the snapshot read step's
    /// postcondition, then `Q_i`.
    SnapshotRead,
}

/// The pairs a level's locks or validation excuse.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Escape {
    /// Nothing is excused.
    Nothing,
    /// First-committer-wins validates a read followed by a write of the
    /// same item ([`fcw_exempt`]). Per Theorem 3's proof only the `X = x`
    /// currency conjunct is protected: the read's *precondition* must
    /// still be interference-free (the post is `sp(pre, X := x)`, and
    /// Lemma 1 transfers preservation of the pre to everything else).
    Fcw,
    /// A SELECT's long tuple locks block UPDATE/DELETE effects whose
    /// predicates intersect its own (Theorem 6 case 2). Decided by the
    /// prover, so only when case 1 fails, during discharge.
    TupleLocks,
    /// An interfering path whose writes intersect the writes of *every*
    /// writing path of the victim is aborted by first-committer-wins
    /// whenever both commit with effects (Theorem 5 condition 1).
    /// Syntactic, so decided during generation.
    WriteSets,
}

/// One row of the level table.
struct Rule {
    /// What interferes: every write statement of the interferer, rollback
    /// compensators included ([`LemmaScope::Stmt`]), or every writing path
    /// of it as a committed unit ([`LemmaScope::Unit`]).
    unit: LemmaScope,
    protects: Protects,
    escape: Escape,
}

/// The rule protecting a victim at `level` against one concurrent
/// interferer, classed by the interferer's own level; `None` when the
/// level's locks or aborts leave nothing to prove.
///
/// For a ladder or SNAPSHOT victim `partner_snapshot = false` means the
/// interferer runs somewhere on the ANSI ladder (its writes go through the
/// lock manager), `true` means it is snapshot-class (its write buffer is
/// installed at commit without acquiring the victim's read or predicate
/// locks — the "piercing" mixes the SI/2PL soundness suite found):
///
/// * RU / RC / RC+FCW keep Theorems 1–3 — statement- and unit-level
///   visibility over-approximates commit-time buffer installation
///   (soundly: an installed unit *is* a unit);
/// * REPEATABLE READ and SERIALIZABLE fall back to Theorem 2's unit
///   obligations: their long read locks and predicate locks cannot block
///   an SI writer's commit-time install, and neither level validates its
///   reads first-committer-wins. Note this makes the victim ladder
///   non-monotone vs an SI partner — RC+FCW (weakened obligations) can
///   pass where REPEATABLE READ (full Theorem 2 obligations) fails,
///   because raising the victim *loses* FCW validation while the locks it
///   gains are pierced;
/// * a SNAPSHOT victim keeps its Theorem 5 obligations regardless of the
///   partner's class (its snapshot reads are immune to when the partner's
///   writes land, and its own first-committer-wins validation is
///   victim-side).
///
/// For an SSI victim rw-antidependency tracking only covers pairs where
/// *both* sides hold SSI records, so `partner_snapshot` means "the partner
/// is SSI-tracked too" (callers pass `partner == Ssi`, NOT the
/// snapshot-class test). Tracked pair: every dangerous structure is
/// aborted before commit (Cahill et al.) — vacuously safe for any
/// footprints, like SERIALIZABLE. Untracked partner: SSI degrades to
/// exactly SNAPSHOT (same reads, same FCW, plus aborts that only shrink
/// the behavior set), so Theorem 5's obligations carry over verbatim.
fn rule(level: IsolationLevel, partner_snapshot: bool) -> Option<Rule> {
    use IsolationLevel::*;
    use LemmaScope::{Stmt, Unit};
    let row = |unit, protects, escape| Some(Rule { unit, protects, escape });
    match (level, partner_snapshot) {
        // Theorem 1: every individual write statement of every transaction,
        // including those that roll it back.
        (ReadUncommitted, _) => row(Stmt, Protects::Reads { invariant: true }, Escape::Nothing),
        // Theorem 2: every transaction as a unit.
        (ReadCommitted, _) | (RepeatableRead, true) | (Serializable, true) => {
            row(Unit, Protects::Reads { invariant: false }, Escape::Nothing)
        }
        // Theorem 3.
        (ReadCommittedFcw, _) => row(Unit, Protects::Reads { invariant: false }, Escape::Fcw),
        // Theorems 4 and 6.
        (RepeatableRead, false) => row(Unit, Protects::Selects, Escape::TupleLocks),
        // Theorem 5.
        (Snapshot, _) | (Ssi, false) => row(Unit, Protects::SnapshotRead, Escape::WriteSets),
        (Serializable, false) | (Ssi, true) => None,
    }
}

/// The region a SELECT's long tuple locks cover.
#[derive(Clone, Debug)]
pub struct TupleLocks {
    /// The SELECT's table.
    pub table: String,
    /// The SELECT's filter.
    pub filter: RowPred,
}

/// One non-interference triple `{P ∧ P'} S {P}` a rule requires.
#[derive(Clone, Debug)]
pub struct Obligation {
    /// The protected assertion's description (e.g. `post(read #1 of T)`).
    pub what: Rc<str>,
    /// The protected assertion `P`.
    pub assertion: Rc<Pred>,
    /// The interfering effect's description.
    pub eff_desc: Rc<str>,
    /// The interfering effect `S` with its context `P'`, renamed apart;
    /// shared by every assertion it is checked against.
    pub effect: Rc<PathSummary>,
    /// The interfering transaction type (whose lemmas apply).
    pub writer: Rc<str>,
    /// Lemma scope the preservation query runs at.
    pub scope: LemmaScope,
    /// Theorem 6 case 2: when `effect` does not preserve `assertion`,
    /// only what these tuple locks do not block has to.
    pub escape: Option<Rc<TupleLocks>>,
}

/// An [`Obligation`] that could not be discharged — enough structure to
/// extract a scalar countermodel or compile an executable witness, the raw
/// material of a synthesis refutation certificate.
#[derive(Clone, Debug)]
pub struct FailedObligation {
    /// The obligation as it was last tried (after Theorem 6's case 2, with
    /// the tuple-lock-blocked effects removed).
    pub obligation: Obligation,
    /// The analyzer's reason for `MayInterfere`.
    pub reason: String,
}

/// What a victim owes against one interferer.
#[derive(Debug, Default)]
pub struct Owed {
    /// The obligations the prover has to discharge, in discharge order.
    pub list: Vec<Obligation>,
    /// Writing paths of the interferer weighed against Theorem 5's
    /// condition 1: one obligation each in [`LevelReport::obligations`],
    /// decided syntactically during generation.
    pub syntactic: usize,
}

/// The obligations protecting `victim` at `level` against one concurrent
/// instance of `interferer`. `partner_snapshot` is the interferer's class:
/// for a ladder or SNAPSHOT victim, whether it is snapshot-class (SNAPSHOT
/// or SSI: its writes are installed at commit past the victim's locks);
/// for an SSI victim, whether it is SSI-tracked too.
pub fn obligations(
    app: &App,
    victim: &str,
    interferer: &str,
    level: IsolationLevel,
    partner_snapshot: bool,
    opts: SymOptions,
) -> Owed {
    let lookup =
        |name: &str| app.program(name).unwrap_or_else(|| panic!("unknown transaction type {name}"));
    let (program, other) = (lookup(victim), lookup(interferer));
    let mut owed = Owed::default();
    let Some(rule) = rule(level, partner_snapshot) else { return owed };

    // The protected assertions, each shared by every effect it is checked
    // against.
    type Protected = (Rc<str>, Rc<Pred>, Option<Rc<TupleLocks>>);
    let protect = |what: String, p: &Pred| -> Protected { (what.into(), Rc::new(p.clone()), None) };
    let flat = program.all_stmts();
    let q = protect(format!("Q_{}", program.name), &program.result);
    let mut protected: Vec<Protected> = Vec::new();
    let mut victim_writes: Vec<BTreeSet<String>> = Vec::new();
    match rule.protects {
        Protects::Reads { invariant } => {
            if invariant {
                protected.push(protect(format!("I_{}", program.name), &program.consistency));
            }
            for (idx, read) in flat.iter().enumerate().filter(|(_, a)| a.stmt.is_db_read()) {
                let what = format!("post(read #{idx} of {})", program.name);
                protected.push(if rule.escape == Escape::Fcw && fcw_exempt(app, program, idx) {
                    protect(format!("{what} (pre, FCW-exempt read)"), &read.pre)
                } else {
                    protect(what, &read.post)
                });
            }
            protected.push(q);
        }
        Protects::Selects => {
            let selects: Vec<Protected> = flat
                .iter()
                .enumerate()
                .filter_map(|(i, a)| {
                    let (table, filter) = select_region(&a.stmt)?;
                    let locks = (rule.escape == Escape::TupleLocks).then(|| {
                        Rc::new(TupleLocks { table: table.clone(), filter: filter.clone() })
                    });
                    let post = protect(format!("post(SELECT #{i} of {})", program.name), &a.post);
                    Some((post.0, post.1, locks))
                })
                .collect();
            if selects.is_empty() {
                return owed;
            }
            protected.push(q);
            protected.extend(selects);
        }
        Protects::SnapshotRead => {
            victim_writes = summarize(program, opts)
                .iter()
                .filter(|p| !p.is_read_only())
                .map(PathSummary::written_items)
                .collect();
            if victim_writes.is_empty() {
                return owed;
            }
            let what = format!("read-step post of {}", program.name);
            protected.push(protect(what, &program.snapshot_read_post));
            protected.push(q);
        }
    }

    let effects: Vec<(String, PathSummary)> = match rule.unit {
        LemmaScope::Stmt => forward_write_effects(other)
            .into_iter()
            .chain(rollback_effects(other, &app.schemas))
            .map(|e| (e.description, e.summary))
            .collect(),
        LemmaScope::Unit => summarize(other, opts)
            .iter()
            .enumerate()
            .filter(|(_, path)| !path.is_read_only())
            .map(|(pi, path)| {
                (format!("{} (unit, path {pi})", other.name), rename_unit(path, "u$"))
            })
            .collect(),
    };
    let writer: Rc<str> = other.name.as_str().into();
    for (eff_desc, effect) in effects {
        if rule.escape == Escape::WriteSets {
            owed.syntactic += 1;
            let writes = effect.written_items();
            if victim_writes.iter().all(|pw| writes.iter().any(|w| pw.contains(w))) {
                continue;
            }
        }
        let (eff_desc, effect): (Rc<str>, _) = (eff_desc.into(), Rc::new(effect));
        owed.list.extend(protected.iter().map(|(what, assertion, escape)| Obligation {
            what: what.clone(),
            assertion: assertion.clone(),
            eff_desc: eff_desc.clone(),
            effect: effect.clone(),
            writer: writer.clone(),
            scope: rule.unit,
            escape: escape.clone(),
        }));
    }
    owed
}

/// Discharge `obs` in order, counting each in `report` and recording the
/// ones the analyzer could not prove.
fn discharge(
    analyzer: &Analyzer<'_>,
    obs: &[Obligation],
    report: &mut LevelReport,
    fails: &mut Vec<FailedObligation>,
) {
    for ob in obs {
        report.obligations += 1;
        let preserved_by =
            |eff: &PathSummary| analyzer.preserves(&ob.assertion, eff, &ob.writer, ob.scope);
        let Verdict::MayInterfere(mut reason) = preserved_by(&ob.effect) else { continue };
        let mut unblocked = None;
        if let Some(locks) = &ob.escape {
            // Theorem 6 case (2): retry with the tuple-lock-blocked effects
            // removed; only the rest may interfere.
            let rest = locks.unblocked(analyzer, &ob.assertion, &ob.effect);
            let Verdict::MayInterfere(r) = preserved_by(&rest) else { continue };
            reason = r;
            unblocked = Some(rest);
        }
        let mut obligation = ob.clone();
        let mut beyond = "";
        if let Some(rest) = unblocked {
            beyond = " beyond tuple-lock protection";
            obligation.eff_desc =
                format!("{} (tuple-lock-blocked effects removed)", ob.eff_desc).into();
            obligation.effect = Rc::new(rest);
        }
        report
            .failures
            .push(format!("{} may interfere with {}{beyond}: {reason}", ob.eff_desc, ob.what));
        fails.push(FailedObligation { obligation, reason });
    }
}

impl TupleLocks {
    /// `unit` without the effects these locks physically block while the
    /// SELECT's postcondition `post` holds: an UPDATE/DELETE on the
    /// SELECT's table whose predicate intersects the SELECT's (the paper's
    /// condition) — refined for soundness: an UPDATE must additionally be
    /// unable to move an *outside* row into the region, since only read
    /// (inside) tuples are locked.
    fn unblocked(&self, analyzer: &Analyzer<'_>, post: &Pred, unit: &PathSummary) -> PathSummary {
        let intersects = |filter: &RowPred| {
            analyzer.regions_may_intersect(&unit.condition, filter, &self.filter)
        };
        let blocked = |e: &RelEffect| match e {
            _ if e.table() != self.table => false,
            RelEffect::Delete { filter, .. } => intersects(filter),
            RelEffect::Update { filter, sets, .. } => {
                intersects(filter)
                    && analyzer.update_cannot_move_into(
                        &Pred::and([post.clone(), unit.condition.clone()]),
                        filter,
                        sets,
                        &self.filter,
                    )
            }
            _ => false,
        };
        let mut out = unit.clone();
        out.effects.retain(|e| !blocked(e));
        out
    }
}

/// Discharge everything `victim` owes at `level` against each of
/// `interferers` in turn: the one place a [`LevelReport`] is built. The
/// report's `prover_calls`/`cache_hits` count only the queries this check
/// issued.
fn check_against<'p>(
    analyzer: &Analyzer<'_>,
    app: &App,
    victim: &str,
    interferers: impl Iterator<Item = &'p str>,
    level: IsolationLevel,
    partner_snapshot: bool,
    opts: SymOptions,
) -> (LevelReport, Vec<FailedObligation>) {
    let calls_before = analyzer.prover_calls();
    let hits_before = analyzer.cache_hits();
    let mut report = LevelReport {
        txn: victim.to_string(),
        level,
        ok: true,
        obligations: 0,
        prover_calls: 0,
        cache_hits: 0,
        failures: Vec::new(),
    };
    let mut fails = Vec::new();
    for other in interferers {
        let owed = obligations(app, victim, other, level, partner_snapshot, opts);
        report.obligations += owed.syntactic;
        discharge(analyzer, &owed.list, &mut report, &mut fails);
    }
    report.ok = fails.is_empty();
    report.prover_calls = analyzer.prover_calls() - calls_before;
    report.cache_hits = analyzer.cache_hits() - hits_before;
    (report, fails)
}

/// Check one transaction type at one isolation level against the whole
/// application (fresh analyzer, default symbolic-execution options).
pub fn check_at_level(app: &App, txn_name: &str, level: IsolationLevel) -> LevelReport {
    check_with(&Analyzer::new(app), app, txn_name, level, SymOptions::default(), &BTreeSet::new())
}

/// Check `txn_name` at `level` against every transaction type of the
/// application, all assumed to run at `level`'s own partner class, on a
/// caller-supplied analyzer.
///
/// Sharing one analyzer across many `(txn, level)` checks reuses its
/// memoized prover cache; a certifying analyzer additionally records proof
/// certificates for every discharged preservation query. `opts` is the
/// hook the ablation harness uses to switch off update merging or loop
/// unrolling and observe the verdicts degrade (soundly upward).
///
/// The theorems quantify over *every* concurrent instance, including a
/// second instance of the checked type itself. When a deployed system is
/// known to run at most one instance of a type at a time (e.g. a
/// differential-oracle cell exploring exactly one instance per name),
/// `T × T` obligations for that type are vacuous: there is no second `T`
/// to interfere. `singletons` names those types; usually it is empty.
pub fn check_with(
    analyzer: &Analyzer<'_>,
    app: &App,
    txn_name: &str,
    level: IsolationLevel,
    opts: SymOptions,
    singletons: &BTreeSet<String>,
) -> LevelReport {
    // A single-level whole-app check at SSI means every concurrent
    // transaction is SSI-tracked too.
    let partner_snapshot = level == IsolationLevel::Ssi;
    let interferers = app
        .programs
        .iter()
        .map(|p| p.name.as_str())
        .filter(|&other| !(other == txn_name && singletons.contains(txn_name)));
    check_against(analyzer, app, txn_name, interferers, level, partner_snapshot, opts).0
}

/// Check `victim` at `level` against one concurrent instance of
/// `interferer` of the given partner class (see [`obligations`]), also
/// returning the structured failed obligations. The obligation families
/// are per-interferer, so the conjunction over every interferer with
/// `partner_snapshot = false` reproduces [`check_with`] exactly at every
/// ladder level.
pub fn check_pair(
    analyzer: &Analyzer<'_>,
    app: &App,
    victim: &str,
    interferer: &str,
    level: IsolationLevel,
    partner_snapshot: bool,
    opts: SymOptions,
) -> (LevelReport, Vec<FailedObligation>) {
    let other = std::iter::once(interferer);
    check_against(analyzer, app, victim, other, level, partner_snapshot, opts)
}

/// The table and filter of a SELECT statement of any flavour.
fn select_region(stmt: &Stmt) -> Option<(&String, &RowPred)> {
    match stmt {
        Stmt::Select { table, filter, .. }
        | Stmt::SelectCount { table, filter, .. }
        | Stmt::SelectValue { table, filter, .. } => Some((table, filter)),
        _ => None,
    }
}

/// Whether Theorem 3's first-committer-wins protection covers read `idx`.
///
/// Two sound cases:
/// 1. a conventional item read followed by an unconditional write of the
///    same item (the theorem's literal condition), and
/// 2. a SELECT followed by an unconditional UPDATE on the same table with
///    a *syntactically identical* filter whose columns are **immutable
///    application-wide** (no transaction ever updates them). Then no row
///    can enter or leave the region between the read and the write, so
///    the UPDATE writes exactly the selected rows and row-level FCW
///    validation covers the read. Mutable filter columns (e.g. Delivery's
///    `done = 0`) break this — rows leave the filter, the update skips
///    them, and FCW validates nothing — so they are NOT exempt.
fn fcw_exempt(app: &App, program: &Program, idx: usize) -> bool {
    if program.read_followed_by_write(idx) {
        return true;
    }
    let flat = program.all_stmts();
    let Some(read) = flat.get(idx) else { return false };
    let Some((table, filter)) = select_region(&read.stmt) else { return false };
    let followed = program
        .body
        .iter()
        .skip_while(|a| !std::ptr::eq(*a, *read))
        .skip(1)
        .any(|a| matches!(&a.stmt, Stmt::Update { table: t, filter: f, .. } if t == table && f == filter));
    if !followed {
        return false;
    }
    let mutated = app_updated_columns(app, table);
    filter.columns().iter().all(|c| !mutated.contains(c))
}

/// Columns of `table` any transaction of the application ever updates.
fn app_updated_columns(app: &App, table: &str) -> BTreeSet<String> {
    let mut cols = BTreeSet::new();
    for p in &app.programs {
        for a in p.all_stmts() {
            if let Stmt::Update { table: t, sets, .. } = &a.stmt {
                if t == table {
                    cols.extend(sets.iter().map(|(c, _)| c.clone()));
                }
            }
        }
    }
    cols
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_logic::parser::parse_pred;
    use semcc_txn::stmt::{AStmt, ItemRef};
    use semcc_txn::ProgramBuilder;
    use IsolationLevel::*;

    fn pp(s: &str) -> Pred {
        parse_pred(s).expect("parses")
    }

    /// A pure reader whose read postcondition pins the exact value of `x`.
    fn pinned_reader() -> Program {
        ProgramBuilder::new("Reader")
            .consistency(pp("x >= 0"))
            .result(pp("#printed"))
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() },
                pp("x >= 0"),
                pp("x >= 0 && x = :X"),
            )
            .build()
    }

    /// A monotone incrementer: x := x + 1 (blind RMW through a local).
    fn incrementer() -> Program {
        ProgramBuilder::new("Incr")
            .consistency(pp("x >= 0"))
            .result(pp("x >= 0 && #incremented"))
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() },
                pp("x >= 0"),
                pp("x >= 0 && x >= :X"),
            )
            .stmt(
                Stmt::WriteItem {
                    item: ItemRef::plain("x"),
                    value: semcc_logic::Expr::local("X").add(semcc_logic::Expr::int(1)),
                },
                pp("x >= 0 && :X >= 0"),
                pp("x >= 0"),
            )
            .build()
    }

    fn app() -> App {
        App::new().with_program(pinned_reader()).with_program(incrementer())
    }

    #[test]
    fn thm1_blames_individual_writes() {
        // At RU the reader's `x = :X` post is interfered with by Incr's write
        // (and its rollback havoc).
        let r = check_at_level(&app(), "Reader", ReadUncommitted);
        assert!(!r.ok);
        assert!(r.failures.iter().any(|f| f.contains("Incr")));
        // Obligations: (#writes incl rollback = 2) × (#assertions = I, 1 read post, Q)
        assert_eq!(r.obligations, 2 * 3);
    }

    #[test]
    fn thm2_uses_units() {
        // At RC the unit of Incr still invalidates `x = :X`.
        let r = check_at_level(&app(), "Reader", ReadCommitted);
        assert!(!r.ok);
        assert!(r.failures.iter().any(|f| f.contains("unit")));
    }

    #[test]
    fn thm3_exempts_read_then_written() {
        // Incr reads x then writes it: at RC-FCW only its pre is checked,
        // and the monotone `x >= :X` claim in its Q... Q only carries the
        // consistency part, so Incr passes RC-FCW.
        let r = check_at_level(&app(), "Incr", ReadCommittedFcw);
        assert!(r.ok, "failures: {:?}", r.failures);
        // ...but not plain RC: `x >= :X` is invalidated by nothing (it is
        // monotone!), so Incr actually passes RC too.
        let rc = check_at_level(&app(), "Incr", ReadCommitted);
        assert!(rc.ok, "monotone read post survives units: {:?}", rc.failures);
        // The READER is the one stuck below RR:
        assert!(check_at_level(&app(), "Reader", RepeatableRead).ok);
    }

    #[test]
    fn thm3_does_not_exempt_a_read_of_a_different_element() {
        // Mover reads x[@i] and writes x[@j]. First-committer-wins
        // validates only keys both read and written, so nothing protects
        // the read of x[i]: its pinned post must stay an obligation at
        // RC+FCW exactly as at RC, where Incr's unit invalidates it.
        let at = |index: &str| ItemRef::indexed("x", semcc_logic::Expr::param(index));
        let mover = ProgramBuilder::new("Mover")
            .param_int("i")
            .param_int("j")
            .consistency(pp("x >= 0"))
            .result(pp("x >= 0"))
            .stmt(
                Stmt::ReadItem { item: at("i"), into: "X".into() },
                pp("x >= 0"),
                pp("x >= 0 && x = :X"),
            )
            .stmt(
                Stmt::WriteItem { item: at("j"), value: semcc_logic::Expr::local("X") },
                pp("x >= 0 && :X >= 0"),
                pp("x >= 0"),
            )
            .build();
        let app = App::new().with_program(mover).with_program(incrementer());
        assert!(!check_at_level(&app, "Mover", ReadCommitted).ok);
        let fcw = check_at_level(&app, "Mover", ReadCommittedFcw);
        assert!(!fcw.ok, "a write of x[@j] must not exempt the read of x[@i]");
        assert!(fcw.failures.iter().all(|f| !f.contains("FCW-exempt")), "{:?}", fcw.failures);
    }

    #[test]
    fn thm4_conventional_rr_is_free() {
        let r = check_at_level(&app(), "Reader", RepeatableRead);
        assert!(r.ok);
        assert_eq!(r.obligations, 0, "Theorem 4: no obligations for conventional txns");
    }

    #[test]
    fn thm5_intersecting_writers_need_no_proofs() {
        // Two incrementers: their write sets always intersect on `x`, so
        // SNAPSHOT passes via condition 1.
        let app = App::new().with_program(incrementer());
        let r = check_at_level(&app, "Incr", Snapshot);
        assert!(r.ok, "failures: {:?}", r.failures);
        assert_eq!(r.prover_calls, 0, "condition 1 needs no prover");
    }

    #[test]
    fn serializable_zero_obligations() {
        let r = check_at_level(&app(), "Reader", Serializable);
        assert!(r.ok);
        assert_eq!(r.obligations, 0);
    }

    #[test]
    fn singleton_filter_drops_only_self_obligations() {
        // A read-then-write type whose pinned read post (`x = :X`) is
        // invalidated by a second instance of itself — and by nothing else
        // when it is alone in the application.
        let pinner = ProgramBuilder::new("Pinner")
            .consistency(pp("x >= 0"))
            .result(pp("x >= 0"))
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() },
                pp("x >= 0"),
                pp("x >= 0 && x = :X"),
            )
            .stmt(
                Stmt::WriteItem {
                    item: ItemRef::plain("x"),
                    value: semcc_logic::Expr::local("X").add(semcc_logic::Expr::int(1)),
                },
                pp("x >= 0 && x = :X"),
                pp("x >= 0"),
            )
            .build();
        let app = App::new().with_program(pinner);
        let analyzer = Analyzer::new(&app);
        let check = |singletons: &BTreeSet<String>| {
            check_with(&analyzer, &app, "Pinner", ReadCommitted, SymOptions::default(), singletons)
        };
        let base = check(&BTreeSet::new());
        assert!(!base.ok, "a second Pinner invalidates the pinned read");
        assert!(base.obligations > 0);
        let solo = check(&["Pinner".to_string()].into());
        assert!(solo.ok, "no second instance, no interference: {:?}", solo.failures);
        assert_eq!(solo.obligations, 0);
        // Naming another type changes nothing.
        let other = check(&["Incr".to_string()].into());
        assert_eq!(other.ok, base.ok);
        assert_eq!(other.obligations, base.obligations);
    }

    #[test]
    fn pair_conjunction_reproduces_check_at_level() {
        // The theorems' obligation families are per-interferer: at every
        // level, conjoining base-class pair verdicts over all interferers
        // must reproduce the whole-app check — same verdict, same
        // obligation count.
        let app = app();
        for level in IsolationLevel::ALL {
            for victim in ["Reader", "Incr"] {
                let whole = check_at_level(&app, victim, level);
                let analyzer = Analyzer::new(&app);
                let mut ok = true;
                let mut obligations = 0;
                for other in &app.programs {
                    let (r, _) = check_pair(
                        &analyzer,
                        &app,
                        victim,
                        &other.name,
                        level,
                        level == Ssi,
                        SymOptions::default(),
                    );
                    ok &= r.ok;
                    obligations += r.obligations;
                }
                assert_eq!(ok, whole.ok, "{victim}@{level}");
                assert_eq!(obligations, whole.obligations, "{victim}@{level}");
            }
        }
    }

    #[test]
    fn snapshot_partner_pierces_lock_protection() {
        // Vs a base-class partner SERIALIZABLE has zero obligations; vs an
        // SI partner its predicate locks are pierced and it owes Theorem
        // 2's unit obligations — which Incr's installed unit violates for
        // the pinned reader.
        let app = app();
        let analyzer = Analyzer::new(&app);
        let pair = |partner_snapshot| {
            let opts = SymOptions::default();
            check_pair(&analyzer, &app, "Reader", "Incr", Serializable, partner_snapshot, opts)
        };
        let (base, _) = pair(false);
        assert!(base.ok);
        assert_eq!(base.obligations, 0);
        let (pierced, fails) = pair(true);
        assert!(!pierced.ok, "Incr's installed unit invalidates the pinned read");
        assert!(pierced.obligations > 0);
        // The failed obligation carries certificate raw material.
        assert!(!fails.is_empty());
        assert!(fails[0].obligation.what.contains("read"));
    }

    #[test]
    fn fcw_exemption_requires_unconditional_write() {
        // The write sits inside a branch: no exemption, Reader-style failure.
        let p = ProgramBuilder::new("MaybeIncr")
            .consistency(pp("x >= 0"))
            .result(pp("#maybe"))
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() },
                pp("x >= 0"),
                pp("x >= 0 && x = :X"),
            )
            .stmt(
                Stmt::If {
                    guard: pp(":X >= 5"),
                    then_branch: vec![AStmt::new(
                        Stmt::WriteItem {
                            item: ItemRef::plain("x"),
                            value: semcc_logic::Expr::local("X").sub(semcc_logic::Expr::int(5)),
                        },
                        pp(":X >= 5 && x = :X"),
                        pp("x >= 0"),
                    )],
                    else_branch: vec![],
                },
                pp("x >= 0 && x = :X"),
                pp("x >= 0"),
            )
            .build();
        let app = App::new().with_program(p).with_program(incrementer());
        let r = check_at_level(&app, "MaybeIncr", ReadCommittedFcw);
        assert!(!r.ok, "conditional write must not unlock the exemption");
    }
}
