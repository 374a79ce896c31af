//! The interference checker.
//!
//! `preserves(P, E, writer, scope)` decides whether effect `E` (a single
//! write statement, a compensating rollback write, or a whole transaction's
//! path summary) provably cannot invalidate assertion `P` — the mechanized
//! form of the paper's non-interference triple `{P ∧ P'} S {P}`.
//!
//! The check decomposes by assertion structure:
//!
//! * **scalar part** — the weakest-precondition obligation
//!   `P ∧ P' ⟹ P[written ← values]`, discharged by the prover (havocked
//!   writes substitute fresh rigid constants, i.e. `∀v. P[x←v]`);
//! * **opaque conjuncts** — preserved when a registered lemma covers
//!   `(atom, writer)` at the required scope, or when the effect's write
//!   footprint is disjoint from the atom's declared read footprint
//!   (region- and column-sensitive);
//! * **table atoms** — per-(atom, effect) rules built on predicate
//!   satisfiability, *polarity-aware* so that truth values are invariant
//!   (e.g. a DELETE always preserves a positively-occurring `AllRows`, but
//!   never a negated one).
//!
//! Every "don't know" is `MayInterfere` — the analyzer is sound, not
//! complete.

use crate::app::{App, LemmaScope};
use semcc_cert::{ObligationCert, Step};
use semcc_logic::pred::{OpaqueAtom, Pred, TableAtom, TableRegion};
use semcc_logic::prover::{Outcome, Prover, Sat};
use semcc_logic::row::{bind_insert, field_skolem, RowExpr, RowPred};
use semcc_logic::subst::Subst;
use semcc_logic::transform::FreshVars;
use semcc_logic::{Expr, Var};
use semcc_txn::{PathSummary, RelEffect};
use std::cell::{Cell, RefCell};
use std::collections::{BTreeSet, HashMap};

/// Branch budget for certificate proof traces — matches the prover's own
/// exploration budget, so whatever the prover proved the trace can record.
const CERT_BRANCH_BUDGET: usize = 50_000;

/// Outcome of one interference check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The effect provably cannot invalidate the assertion.
    Preserved,
    /// Interference could not be ruled out (with a reason for reporting).
    MayInterfere(String),
}

impl Verdict {
    /// Whether the verdict is [`Verdict::Preserved`].
    pub fn is_preserved(&self) -> bool {
        matches!(self, Verdict::Preserved)
    }
}

/// Polarity of an atom occurrence within an assertion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Polarity {
    Pos,
    Neg,
    Both,
}

impl Polarity {
    fn join(self, other: Polarity) -> Polarity {
        if self == other {
            self
        } else {
            Polarity::Both
        }
    }

    fn needs_true_preservation(self) -> bool {
        matches!(self, Polarity::Pos | Polarity::Both)
    }

    fn needs_false_preservation(self) -> bool {
        matches!(self, Polarity::Neg | Polarity::Both)
    }
}

/// Accumulated certificates for a recording analysis run.
#[derive(Default)]
struct CertLog {
    entries: Vec<ObligationCert>,
    error: Option<String>,
}

/// The analyzer: a prover plus the application context.
pub struct Analyzer<'a> {
    app: &'a App,
    prover: Prover,
    prover_calls: Cell<usize>,
    cache_hits: Cell<usize>,
    // Memoization of prover queries keyed on the printed (canonical
    // structural) form of the query. Identical obligations recur across
    // assertions and levels; a hit skips the prover entirely and is counted
    // in `cache_hits` instead of `prover_calls`.
    cache_implies: RefCell<HashMap<String, bool>>,
    cache_sat: RefCell<HashMap<String, bool>>,
    cert: RefCell<Option<CertLog>>,
}

impl<'a> Analyzer<'a> {
    /// Build an analyzer over an application.
    pub fn new(app: &'a App) -> Self {
        Analyzer {
            app,
            prover: Prover::new(),
            prover_calls: Cell::new(0),
            cache_hits: Cell::new(0),
            cache_implies: RefCell::new(HashMap::new()),
            cache_sat: RefCell::new(HashMap::new()),
            cert: RefCell::new(None),
        }
    }

    /// Number of prover queries issued so far (analysis-cost metric).
    /// Memoized hits are counted in [`Analyzer::cache_hits`], not here.
    pub fn prover_calls(&self) -> usize {
        self.prover_calls.get()
    }

    /// Number of prover queries answered from the memo cache.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits.get()
    }

    /// Start recording proof certificates for every discharged preservation
    /// query. Collect them with [`Analyzer::take_certificates`].
    pub fn start_certifying(&self) {
        *self.cert.borrow_mut() = Some(CertLog::default());
    }

    /// Stop recording and return the accumulated certificates, or the first
    /// certification error (a discharge whose proof trace could not be
    /// produced — the verdicts stand, but the run is not certifiable).
    pub fn take_certificates(&self) -> Result<Vec<ObligationCert>, String> {
        match self.cert.borrow_mut().take() {
            Some(log) => match log.error {
                Some(e) => Err(e),
                None => Ok(log.entries),
            },
            None => Ok(Vec::new()),
        }
    }

    fn cert_error(&self, msg: String) {
        if let Some(log) = self.cert.borrow_mut().as_mut() {
            log.error.get_or_insert(msg);
        }
    }

    fn implies(&self, hyp: &Pred, concl: &Pred) -> bool {
        let key = format!("({hyp}) ==> ({concl})");
        if let Some(&v) = self.cache_implies.borrow().get(&key) {
            self.cache_hits.set(self.cache_hits.get() + 1);
            return v;
        }
        self.prover_calls.set(self.prover_calls.get() + 1);
        let v = self.prover.implies(hyp, concl) == Outcome::Proven;
        self.cache_implies.borrow_mut().insert(key, v);
        v
    }

    /// Whether `p` may be satisfiable (Unknown counts as yes — sound).
    fn sat_possible(&self, p: &Pred) -> bool {
        let key = p.to_string();
        if let Some(&v) = self.cache_sat.borrow().get(&key) {
            self.cache_hits.set(self.cache_hits.get() + 1);
            return v;
        }
        self.prover_calls.set(self.prover_calls.get() + 1);
        let v = self.prover.sat(p) != Sat::Unsat;
        self.cache_sat.borrow_mut().insert(key, v);
        v
    }

    /// The top-level check: does `eff` (attributed to transaction type
    /// `writer`) provably preserve `assertion`?
    pub fn preserves(
        &self,
        assertion: &Pred,
        eff: &PathSummary,
        writer: &str,
        scope: LemmaScope,
    ) -> Verdict {
        // The Owicki–Gries hypothesis is `P ∧ P'`: the assertion itself
        // holds when the interfering step runs. Conjoining it lets the
        // relational rules use P's scalar conjuncts (e.g. Delivery's
        // `@today ≤ maximum_date`) to refute region membership.
        let ctx = &Pred::and([assertion.clone(), eff.condition.clone()]);
        let recording = self.cert.borrow().is_some();
        let mut steps: Vec<Step> = Vec::new();

        // 1. Opaque conjuncts.
        let mut atoms = Vec::new();
        collect_atoms(assertion, Polarity::Pos, &mut atoms);
        for (atom, pol) in &atoms {
            if let AtomRef::Opaque(op) = atom {
                let v = self.opaque_preserved(op, *pol, eff, writer, scope, recording, &mut steps);
                if !v.is_preserved() {
                    return v;
                }
            }
        }

        // 2. Table atoms vs relational effects.
        for (atom, pol) in &atoms {
            if let AtomRef::Table(t) = atom {
                for e in &eff.effects {
                    if e.table() != t.table() {
                        continue;
                    }
                    let v = self.table_atom_preserved(t, *pol, e, ctx);
                    if !v.is_preserved() {
                        return v;
                    }
                    if recording {
                        steps.push(Step::TableRule {
                            atom: Pred::Table((*t).clone()).to_string(),
                            effect: effect_kind(e).to_string(),
                        });
                    }
                }
            }
        }

        // 3. Scalar part.
        let verdict = self.scalar_preserved(assertion, eff, ctx, recording, &mut steps);
        if recording && verdict.is_preserved() {
            if let Some(log) = self.cert.borrow_mut().as_mut() {
                log.entries.push(ObligationCert {
                    assertion: assertion.clone(),
                    condition: eff.condition.clone(),
                    assign: eff.assign.pairs.clone(),
                    havoc: eff.havoc_items.clone(),
                    effects: eff
                        .effects
                        .iter()
                        .map(|e| format!("{} {}", effect_kind(e), e.table()))
                        .collect(),
                    steps,
                });
            }
        }
        verdict
    }

    fn scalar_preserved(
        &self,
        assertion: &Pred,
        eff: &PathSummary,
        ctx: &Pred,
        recording: bool,
        steps: &mut Vec<Step>,
    ) -> Verdict {
        let written: BTreeSet<String> = eff.written_items();
        if written.is_empty() {
            if recording {
                steps.push(Step::NoWrites);
            }
            return Verdict::Preserved;
        }
        // Direct scalar mentions only: opaque footprints were handled above.
        let direct: BTreeSet<String> = assertion
            .vars()
            .into_iter()
            .filter_map(|v| match v {
                Var::Db(n) => Some(n),
                _ => None,
            })
            .collect();
        if direct.is_disjoint(&written) {
            if recording {
                steps.push(Step::Disjoint);
            }
            return Verdict::Preserved;
        }
        let mut s = eff.assign.to_subst();
        let mut havoc_fresh: Vec<(Var, Var)> = Vec::with_capacity(eff.havoc_items.len());
        for v in &eff.havoc_items {
            let f = FreshVars::fresh(v.name());
            s.insert(v.clone(), Expr::Var(f.clone()));
            havoc_fresh.push((v.clone(), f));
        }
        let post = s.apply_pred(assertion);
        let hyp = Pred::and([assertion.clone(), ctx.clone()]);
        if self.implies(&hyp, &post) {
            if recording {
                // Re-derive the discharge as an explicit Fourier–Motzkin
                // refutation trace of the negated implication — the piece
                // the independent checker replays.
                let goal = Pred::not(Pred::implies(hyp.clone(), post.clone()));
                match semcc_logic::certtrace::unsat_proof(&goal, CERT_BRANCH_BUDGET) {
                    Some(proof) => steps.push(Step::Substitution { post, havoc_fresh, proof }),
                    None => self.cert_error(format!(
                        "no refutation trace for discharged obligation `{assertion}` \
                         against {}",
                        eff.assign
                    )),
                }
            }
            Verdict::Preserved
        } else {
            Verdict::MayInterfere(format!("write {} may invalidate `{assertion}`", eff.assign))
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn opaque_preserved(
        &self,
        atom: &OpaqueAtom,
        pol: Polarity,
        eff: &PathSummary,
        writer: &str,
        scope: LemmaScope,
        recording: bool,
        steps: &mut Vec<Step>,
    ) -> Verdict {
        // A lemma asserts the writer maintains the constraint (keeps it
        // true). That is enough only for positive occurrences.
        if pol == Polarity::Pos && self.app.lemmas.covers(&atom.name, writer, scope) {
            if recording {
                steps.push(Step::Lemma {
                    atom: atom.name.clone(),
                    writer: writer.to_string(),
                    scope: scope_str(scope).to_string(),
                });
            }
            return Verdict::Preserved;
        }
        let written = eff.written_items();
        if atom.reads_items.iter().any(|i| written.contains(i)) {
            return Verdict::MayInterfere(format!(
                "write touches item footprint of #{}",
                atom.name
            ));
        }
        for tr in &atom.reads_tables {
            for e in eff.effects.iter().filter(|e| e.table() == tr.table) {
                if self.effect_touches_region(e, tr, &eff.condition) {
                    return Verdict::MayInterfere(format!(
                        "{} effect on {} touches footprint of #{}",
                        effect_kind(e),
                        tr.table,
                        atom.name
                    ));
                }
            }
        }
        if recording {
            steps.push(Step::Footprint { atom: atom.name.clone() });
        }
        Verdict::Preserved
    }

    /// Could the effect change data the table region depends on?
    fn effect_touches_region(&self, e: &RelEffect, tr: &TableRegion, ctx: &Pred) -> bool {
        match e {
            RelEffect::HavocTable { .. } => true,
            RelEffect::Insert { table, values } => match &tr.region {
                None => true,
                Some(r) => self.insert_may_satisfy(ctx, table, values, r),
            },
            RelEffect::Delete { filter, .. } => {
                self.regions_intersect(ctx, Some(filter), tr.region.as_ref())
            }
            RelEffect::Update { filter, sets, .. } => {
                let cols_overlap = match &tr.columns {
                    None => true,
                    Some(cols) => sets.iter().any(|(c, _)| cols.contains(c)),
                };
                // An update can also *move* rows across a region boundary
                // when it writes the region's filter columns — covered by
                // the column overlap test since region columns are part of
                // the dependency footprint only if declared. To stay sound
                // when a region is declared without columns, the column
                // test above already returns true.
                cols_overlap
                    && self.regions_intersect_or_enter(ctx, filter, sets, tr.region.as_ref())
            }
        }
    }

    /// Public predicate-intersection test (Theorem 6's case-2 criterion).
    pub fn regions_may_intersect(&self, ctx: &Pred, f: &RowPred, g: &RowPred) -> bool {
        self.regions_intersect(ctx, Some(f), Some(g))
    }

    /// Concrete counterexample for a *failed* scalar preservation
    /// obligation: an integer assignment satisfying
    /// `P ∧ P' ∧ ¬P[assign]` — the state in which the interfering step
    /// runs and breaks the assertion. `None` when the effect's damage is
    /// non-scalar (havoc, relational) or the Fourier–Motzkin witness can't
    /// be verified; a `Some` is always a checked model of the refutation.
    pub fn counterexample(&self, assertion: &Pred, eff: &PathSummary) -> Option<Vec<(Var, i64)>> {
        let mut s = eff.assign.to_subst();
        for v in &eff.havoc_items {
            s.insert(v.clone(), Expr::Var(FreshVars::fresh(v.name())));
        }
        let post = s.apply_pred(assertion);
        self.prover_calls.set(self.prover_calls.get() + 1);
        self.prover.model(&Pred::and([assertion.clone(), eff.condition.clone(), Pred::not(post)]))
    }

    /// Like [`Analyzer::counterexample`], but with *caller-supplied* fresh
    /// constants for the havocked items, so the violating goal — and hence
    /// the model embedded in a synthesis certificate — is reproducible
    /// byte-for-byte across runs (the global fresh-variable counter never
    /// enters the construction). The caller is responsible for genuine
    /// freshness; the certificate checker re-validates it independently.
    pub fn violation_model(
        &self,
        assertion: &Pred,
        condition: &Pred,
        assign: &[(Var, Expr)],
        havoc_fresh: &[(Var, Var)],
    ) -> Option<Vec<(Var, i64)>> {
        let mut s = Subst::new();
        for (v, e) in assign {
            s.insert(v.clone(), e.clone());
        }
        for (v, f) in havoc_fresh {
            s.insert(v.clone(), Expr::Var(f.clone()));
        }
        let post = s.apply_pred(assertion);
        self.prover_calls.set(self.prover_calls.get() + 1);
        self.prover.model(&Pred::and([assertion.clone(), condition.clone(), Pred::not(post)]))
    }

    /// Soundness refinement of Theorem 6's case 2: an UPDATE with filter
    /// `f` is blocked by the tuple locks of a SELECT with filter `g` only
    /// for rows *inside* `g`. It remains dangerous if it can move an
    /// outside row into `g` (e.g. decrementing stock below a threshold a
    /// Stock-Level SELECT counted). This returns `true` only when that is
    /// provably impossible: `f(r) ∧ ¬g(r) ∧ g(r[sets])` is unsatisfiable.
    pub fn update_cannot_move_into(
        &self,
        ctx: &Pred,
        f: &RowPred,
        sets: &[(String, RowExpr)],
        g: &RowPred,
    ) -> bool {
        match self.apply_sets_to_region(g, sets) {
            Some(g_after) => !self.sat_possible(&Pred::and([
                ctx.clone(),
                f.to_scalar(),
                Pred::not(g.to_scalar()),
                g_after,
            ])),
            None => false,
        }
    }

    fn regions_intersect(&self, ctx: &Pred, f: Option<&RowPred>, g: Option<&RowPred>) -> bool {
        match (f, g) {
            (None, _) | (_, None) => true,
            (Some(f), Some(g)) => {
                self.sat_possible(&Pred::and([ctx.clone(), f.to_scalar(), g.to_scalar()]))
            }
        }
    }

    /// Update-specific: does `filter` intersect `g`, or can the update move
    /// a row *into* `g` (new values satisfy `g`)?
    fn regions_intersect_or_enter(
        &self,
        ctx: &Pred,
        filter: &RowPred,
        sets: &[(String, RowExpr)],
        g: Option<&RowPred>,
    ) -> bool {
        let Some(g) = g else { return true };
        if self.regions_intersect(ctx, Some(filter), Some(g)) {
            return true;
        }
        match self.apply_sets_to_region(g, sets) {
            Some(g_after) => {
                self.sat_possible(&Pred::and([ctx.clone(), filter.to_scalar(), g_after]))
            }
            None => true, // unliftable SET values: conservative
        }
    }

    /// `g` after the SET clauses: substitute `?row$col ← set-expr` in the
    /// lowered region. Returns `None` when a set value cannot be lifted to
    /// scalar form *and* its column occurs in `g`.
    fn apply_sets_to_region(&self, g: &RowPred, sets: &[(String, RowExpr)]) -> Option<Pred> {
        let g_cols = g.columns();
        let mut s = Subst::new();
        for (col, e) in sets {
            if !g_cols.contains(col) {
                continue;
            }
            match e.to_scalar() {
                Some(expr) => {
                    s.insert(field_skolem(col), expr);
                }
                None => {
                    // String-valued update into a column g depends on: the
                    // substitution machinery cannot express it unless the
                    // value is a plain string term; approximate via StrCmp
                    // rewriting only when g is a single equality — give up
                    // otherwise.
                    return None;
                }
            }
        }
        Some(s.apply_pred(&g.to_scalar()))
    }

    /// Can the inserted row satisfy region `r`?
    fn insert_may_satisfy(&self, ctx: &Pred, table: &str, values: &[RowExpr], r: &RowPred) -> bool {
        match self.app.columns(table).and_then(|cols| bind_insert(cols, values)) {
            Some(bound) => self.sat_possible(&Pred::and([ctx.clone(), bound, r.to_scalar()])),
            None => true, // unknown schema: conservative
        }
    }

    /// Does the inserted row *provably* satisfy `r`?
    fn insert_must_satisfy(
        &self,
        ctx: &Pred,
        table: &str,
        values: &[RowExpr],
        r: &RowPred,
    ) -> bool {
        match self.app.columns(table).and_then(|cols| bind_insert(cols, values)) {
            Some(bound) => self.implies(&Pred::and([ctx.clone(), bound]), &r.to_scalar()),
            None => false,
        }
    }

    fn table_atom_preserved(
        &self,
        atom: &TableAtom,
        pol: Polarity,
        e: &RelEffect,
        ctx: &Pred,
    ) -> Verdict {
        let fail = |why: String| Verdict::MayInterfere(why);
        match (atom, e) {
            (_, RelEffect::HavocTable { table }) => {
                fail(format!("untracked (havocked) writes to {table}"))
            }

            // ---------------- AllRows ----------------
            (TableAtom::AllRows { table, constraint }, RelEffect::Insert { values, .. }) => {
                // true-preservation: the new row must satisfy the constraint.
                if pol.needs_true_preservation()
                    && !self.insert_must_satisfy(ctx, table, values, constraint)
                {
                    return fail(format!("INSERT into {table} may violate allrows constraint"));
                }
                // false-preservation: inserting cannot repair a violation.
                Verdict::Preserved
            }
            (TableAtom::AllRows { table, .. }, RelEffect::Delete { .. }) => {
                // true-preservation: removing rows keeps ∀ true.
                if pol.needs_false_preservation() {
                    return fail(format!(
                        "DELETE from {table} could repair a violated allrows constraint"
                    ));
                }
                Verdict::Preserved
            }
            (TableAtom::AllRows { table, constraint }, RelEffect::Update { filter, sets, .. }) => {
                let c_cols = constraint.columns();
                if !sets.iter().any(|(c, _)| c_cols.contains(c)) {
                    // constraint-relevant columns untouched; row set unchanged
                    return Verdict::Preserved;
                }
                if pol.needs_false_preservation() {
                    return fail(format!("UPDATE on {table} could repair a violation"));
                }
                // Updated rows (which satisfied the constraint) must still
                // satisfy it afterwards.
                match self.apply_sets_to_region(constraint, sets) {
                    Some(c_after) => {
                        let hyp =
                            Pred::and([ctx.clone(), constraint.to_scalar(), filter.to_scalar()]);
                        if self.implies(&hyp, &c_after) {
                            Verdict::Preserved
                        } else {
                            fail(format!("UPDATE on {table} may violate allrows constraint"))
                        }
                    }
                    None => fail(format!("UPDATE on {table}: unliftable SET values")),
                }
            }

            // ---------------- CountEq / SnapshotEq ----------------
            // Both demand the filtered row set (and for SnapshotEq, the row
            // *values*) be untouched — equalities, so polarity is moot.
            (TableAtom::CountEq { table, filter: g, .. }, eff2) => {
                self.membership_invariant(table, g, eff2, ctx, /*values_matter=*/ false)
            }
            (TableAtom::SnapshotEq { table, filter: g, .. }, eff2) => {
                self.membership_invariant(table, g, eff2, ctx, /*values_matter=*/ true)
            }

            // ---------------- Exists ----------------
            (TableAtom::Exists { table, filter: g }, RelEffect::Insert { values, .. }) => {
                if pol.needs_false_preservation() && self.insert_may_satisfy(ctx, table, values, g)
                {
                    return fail(format!("INSERT into {table} may create a witness"));
                }
                Verdict::Preserved
            }
            (TableAtom::Exists { table, filter: g }, RelEffect::Delete { filter: f, .. }) => {
                if pol.needs_true_preservation() && self.regions_intersect(ctx, Some(f), Some(g)) {
                    return fail(format!("DELETE from {table} may remove the witness"));
                }
                Verdict::Preserved
            }
            (TableAtom::Exists { table, filter: g }, RelEffect::Update { filter: f, sets, .. }) => {
                let g_cols = g.columns();
                if !sets.iter().any(|(c, _)| g_cols.contains(c)) {
                    return Verdict::Preserved;
                }
                if pol.needs_true_preservation() {
                    // no witness may leave g
                    let ok = match self.apply_sets_to_region(g, sets) {
                        Some(g_after) => self.implies(
                            &Pred::and([ctx.clone(), f.to_scalar(), g.to_scalar()]),
                            &g_after,
                        ),
                        None => false,
                    };
                    if !ok {
                        return fail(format!("UPDATE on {table} may remove the witness"));
                    }
                }
                if pol.needs_false_preservation() {
                    // no row may enter g
                    let ok = match self.apply_sets_to_region(g, sets) {
                        Some(g_after) => {
                            !self.sat_possible(&Pred::and([ctx.clone(), f.to_scalar(), g_after]))
                        }
                        None => false,
                    };
                    if !ok {
                        return fail(format!("UPDATE on {table} may create a witness"));
                    }
                }
                Verdict::Preserved
            }

            // ---------------- NotExists ----------------
            (TableAtom::NotExists { table, filter: g }, eff2) => {
                // ¬Exists: dual polarities.
                let dual = match pol {
                    Polarity::Pos => Polarity::Neg,
                    Polarity::Neg => Polarity::Pos,
                    Polarity::Both => Polarity::Both,
                };
                self.table_atom_preserved(
                    &TableAtom::Exists { table: table.clone(), filter: g.clone() },
                    dual,
                    eff2,
                    ctx,
                )
            }
        }
    }

    /// Membership (and optionally value) invariance of region `g` under an
    /// effect — the rule shared by `CountEq` and `SnapshotEq`.
    fn membership_invariant(
        &self,
        table: &str,
        g: &RowPred,
        e: &RelEffect,
        ctx: &Pred,
        values_matter: bool,
    ) -> Verdict {
        let fail = |why: String| Verdict::MayInterfere(why);
        match e {
            RelEffect::HavocTable { .. } => fail(format!("untracked writes to {table}")),
            RelEffect::Insert { values, .. } => {
                if self.insert_may_satisfy(ctx, table, values, g) {
                    fail(format!("INSERT into {table} may land in the counted region"))
                } else {
                    Verdict::Preserved
                }
            }
            RelEffect::Delete { filter: f, .. } => {
                if self.regions_intersect(ctx, Some(f), Some(g)) {
                    fail(format!("DELETE from {table} may remove counted rows"))
                } else {
                    Verdict::Preserved
                }
            }
            RelEffect::Update { filter: f, sets, .. } => {
                let g_cols = g.columns();
                let touches_g_cols = sets.iter().any(|(c, _)| g_cols.contains(c));
                if values_matter {
                    // Any update of a row in the region invalidates a
                    // snapshot; so does moving a row in.
                    if self.regions_intersect_or_enter(ctx, f, sets, Some(g)) {
                        return fail(format!("UPDATE on {table} may change snapshot rows"));
                    }
                    return Verdict::Preserved;
                }
                if !touches_g_cols {
                    return Verdict::Preserved;
                }
                // Count: no row may cross the region boundary either way.
                let Some(g_after) = self.apply_sets_to_region(g, sets) else {
                    return fail(format!("UPDATE on {table}: unliftable SET values"));
                };
                let stays =
                    self.implies(&Pred::and([ctx.clone(), f.to_scalar(), g.to_scalar()]), &g_after);
                let no_entry = !self.sat_possible(&Pred::and([
                    ctx.clone(),
                    f.to_scalar(),
                    Pred::not(g.to_scalar()),
                    g_after,
                ]));
                if stays && no_entry {
                    Verdict::Preserved
                } else {
                    fail(format!("UPDATE on {table} may move rows across the counted region"))
                }
            }
        }
    }
}

fn scope_str(s: LemmaScope) -> &'static str {
    match s {
        LemmaScope::Unit => "Unit",
        LemmaScope::Stmt => "Stmt",
    }
}

fn effect_kind(e: &RelEffect) -> &'static str {
    match e {
        RelEffect::Insert { .. } => "INSERT",
        RelEffect::Update { .. } => "UPDATE",
        RelEffect::Delete { .. } => "DELETE",
        RelEffect::HavocTable { .. } => "HAVOC",
    }
}

enum AtomRef<'p> {
    Opaque(&'p OpaqueAtom),
    Table(&'p TableAtom),
}

/// Collect opaque and table atoms with occurrence polarity.
fn collect_atoms<'p>(p: &'p Pred, pol: Polarity, out: &mut Vec<(AtomRef<'p>, Polarity)>) {
    match p {
        Pred::True | Pred::False | Pred::Cmp(..) | Pred::StrCmp { .. } => {}
        Pred::Not(q) => {
            let flipped = match pol {
                Polarity::Pos => Polarity::Neg,
                Polarity::Neg => Polarity::Pos,
                Polarity::Both => Polarity::Both,
            };
            collect_atoms(q, flipped, out);
        }
        Pred::And(ps) | Pred::Or(ps) => ps.iter().for_each(|q| collect_atoms(q, pol, out)),
        Pred::Implies(a, b) => {
            let neg = match pol {
                Polarity::Pos => Polarity::Neg,
                Polarity::Neg => Polarity::Pos,
                Polarity::Both => Polarity::Both,
            };
            collect_atoms(a, neg, out);
            collect_atoms(b, pol, out);
        }
        Pred::Opaque(a) => merge_atom(out, AtomRef::Opaque(a), pol),
        Pred::Table(t) => merge_atom(out, AtomRef::Table(t), pol),
    }
}

fn merge_atom<'p>(out: &mut Vec<(AtomRef<'p>, Polarity)>, atom: AtomRef<'p>, pol: Polarity) {
    // Merge polarity for syntactically identical atoms.
    for (existing, p) in out.iter_mut() {
        let same = match (&atom, existing) {
            (AtomRef::Opaque(a), AtomRef::Opaque(b)) => a == b,
            (AtomRef::Table(a), AtomRef::Table(b)) => a == b,
            _ => false,
        };
        if same {
            *p = p.join(pol);
            return;
        }
    }
    out.push((atom, pol));
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_logic::parser::parse_pred;
    use semcc_logic::transform::Assign;

    fn app() -> App {
        App::new()
            .with_schema("orders", &["info", "cust", "date", "done"])
            .with_schema("emp", &["name", "rate", "hrs", "sal"])
    }

    fn eff_write(cond: &str, var: &str, value: Expr) -> PathSummary {
        PathSummary {
            condition: parse_pred(cond).expect("parses"),
            assign: Assign::single(Var::db(var), value),
            havoc_items: vec![],
            effects: vec![],
            reads: Default::default(),
        }
    }

    #[test]
    fn paper_section2_example() {
        // "x := x + 1 invalidates x = y but not x > y"
        let app = app();
        let a = Analyzer::new(&app);
        let eff = eff_write("true", "x", Expr::db("x").add(Expr::int(1)));
        let eq = parse_pred("x = y").expect("parses");
        let gt = parse_pred("x > y").expect("parses");
        assert!(!a.preserves(&eq, &eff, "T", LemmaScope::Stmt).is_preserved());
        assert!(a.preserves(&gt, &eff, "T", LemmaScope::Stmt).is_preserved());
    }

    #[test]
    fn disjoint_items_fast_path() {
        let app = app();
        let a = Analyzer::new(&app);
        let eff = eff_write("true", "z", Expr::int(0));
        let p = parse_pred("x = y").expect("parses");
        assert!(a.preserves(&p, &eff, "T", LemmaScope::Stmt).is_preserved());
        assert_eq!(a.prover_calls(), 0, "no prover needed for disjoint writes");
    }

    #[test]
    fn havoc_defeats_scalar_assertions() {
        let app = app();
        let a = Analyzer::new(&app);
        let eff = PathSummary {
            condition: Pred::True,
            assign: Assign::skip(),
            havoc_items: vec![Var::db("x")],
            effects: vec![],
            reads: Default::default(),
        };
        let p = parse_pred("x >= 0").expect("parses");
        assert!(!a.preserves(&p, &eff, "T", LemmaScope::Stmt).is_preserved());
        // but a tautology in x survives havoc
        let t = parse_pred("x = x").expect("parses");
        assert!(a.preserves(&t, &eff, "T", LemmaScope::Stmt).is_preserved());
    }

    #[test]
    fn deposit_preserves_withdraw_read_post() {
        // Example 3: Deposit does not interfere with Withdraw_sav's read post.
        let app = app();
        let a = Analyzer::new(&app);
        let eff = eff_write("@d >= 0", "sav", Expr::db("sav").add(Expr::param("d")));
        let post = parse_pred("sav + ch >= 0 && sav + ch >= :Sav + :Ch").expect("parses");
        assert!(a.preserves(&post, &eff, "Deposit", LemmaScope::Unit).is_preserved());
    }

    #[test]
    fn withdraw_ch_interferes_with_withdraw_sav() {
        // Example 3's write skew: the other account's withdrawal may break
        // the combined-balance bound.
        let app = app();
        let a = Analyzer::new(&app);
        let eff =
            eff_write("ch + sav >= @w2 && @w2 >= 0", "ch", Expr::db("ch").sub(Expr::param("w2")));
        let post = parse_pred("sav + ch >= :Sav + :Ch").expect("parses");
        assert!(!a.preserves(&post, &eff, "Withdraw_ch", LemmaScope::Unit).is_preserved());
    }

    fn rel_eff(cond: Pred, effects: Vec<RelEffect>) -> PathSummary {
        PathSummary {
            condition: cond,
            assign: Assign::skip(),
            havoc_items: vec![],
            effects,
            reads: Default::default(),
        }
    }

    #[test]
    fn insert_vs_allrows() {
        let app = app();
        let a = Analyzer::new(&app);
        let atom = Pred::Table(TableAtom::AllRows {
            table: "orders".into(),
            constraint: RowPred::cmp(
                semcc_logic::CmpOp::Ge,
                semcc_logic::row::RowExpr::field("date"),
                semcc_logic::row::RowExpr::Int(0),
            ),
        });
        // insert with provably valid date
        let good = rel_eff(
            parse_pred("@d >= 1").expect("parses"),
            vec![RelEffect::Insert {
                table: "orders".into(),
                values: vec![
                    RowExpr::Int(1),
                    RowExpr::Str("c".into()),
                    RowExpr::Outer(Expr::param("d")),
                    RowExpr::Int(0),
                ],
            }],
        );
        assert!(a.preserves(&atom, &good, "T", LemmaScope::Unit).is_preserved());
        // insert with unconstrained date
        let bad = rel_eff(
            Pred::True,
            vec![RelEffect::Insert {
                table: "orders".into(),
                values: vec![
                    RowExpr::Int(1),
                    RowExpr::Str("c".into()),
                    RowExpr::Outer(Expr::param("d")),
                    RowExpr::Int(0),
                ],
            }],
        );
        assert!(!a.preserves(&atom, &bad, "T", LemmaScope::Unit).is_preserved());
    }

    #[test]
    fn delete_preserves_positive_allrows_but_not_negated() {
        let app = app();
        let a = Analyzer::new(&app);
        let allrows = Pred::Table(TableAtom::AllRows {
            table: "orders".into(),
            constraint: RowPred::field_eq_int("done", 0),
        });
        let del = rel_eff(
            Pred::True,
            vec![RelEffect::Delete { table: "orders".into(), filter: RowPred::True }],
        );
        assert!(a.preserves(&allrows, &del, "T", LemmaScope::Unit).is_preserved());
        let negated = Pred::not(allrows);
        assert!(!a.preserves(&negated, &del, "T", LemmaScope::Unit).is_preserved());
    }

    #[test]
    fn count_atom_vs_effects() {
        let app = app();
        let a = Analyzer::new(&app);
        let count = Pred::Table(TableAtom::CountEq {
            table: "orders".into(),
            filter: RowPred::field_eq_outer("cust", Expr::param("customer")),
            value: Expr::local("n"),
        });
        // insert for a possibly-equal customer interferes (Audit vs New_Order)
        let ins = rel_eff(
            Pred::True,
            vec![RelEffect::Insert {
                table: "orders".into(),
                values: vec![
                    RowExpr::Int(9),
                    RowExpr::Outer(Expr::param("j$customer")),
                    RowExpr::Int(1),
                    RowExpr::Int(0),
                ],
            }],
        );
        assert!(!a.preserves(&count, &ins, "New_Order", LemmaScope::Unit).is_preserved());
        // update of an unrelated column preserves the count
        let upd = rel_eff(
            Pred::True,
            vec![RelEffect::Update {
                table: "orders".into(),
                filter: RowPred::True,
                sets: vec![("done".into(), RowExpr::Int(1))],
            }],
        );
        assert!(a.preserves(&count, &upd, "Delivery", LemmaScope::Unit).is_preserved());
        // delete in a provably different region preserves. NOTE: variables
        // compared without a string literal are integer-sorted, so the
        // disequality context must use the integer theory to connect.
        let del = rel_eff(
            Pred::cmp(semcc_logic::CmpOp::Ne, Expr::param("customer"), Expr::param("other")),
            vec![RelEffect::Delete {
                table: "orders".into(),
                filter: RowPred::field_eq_outer("cust", Expr::param("other")),
            }],
        );
        assert!(a.preserves(&count, &del, "T", LemmaScope::Unit).is_preserved());
        // …whereas with no context the regions may coincide.
        let del_unknown = rel_eff(
            Pred::True,
            vec![RelEffect::Delete {
                table: "orders".into(),
                filter: RowPred::field_eq_outer("cust", Expr::param("other")),
            }],
        );
        assert!(!a.preserves(&count, &del_unknown, "T", LemmaScope::Unit).is_preserved());
    }

    #[test]
    fn snapshot_atom_is_strict_about_updates() {
        let app = app();
        let a = Analyzer::new(&app);
        let snap = Pred::Table(TableAtom::SnapshotEq {
            table: "orders".into(),
            filter: RowPred::field_eq_int("date", 5),
            name: "buff".into(),
        });
        // update inside the region: interference even on untracked columns
        let upd_in = rel_eff(
            Pred::True,
            vec![RelEffect::Update {
                table: "orders".into(),
                filter: RowPred::field_eq_int("date", 5),
                sets: vec![("done".into(), RowExpr::Int(1))],
            }],
        );
        assert!(!a.preserves(&snap, &upd_in, "T", LemmaScope::Unit).is_preserved());
        // update strictly outside the region, not entering it: preserved
        let upd_out = rel_eff(
            Pred::True,
            vec![RelEffect::Update {
                table: "orders".into(),
                filter: RowPred::field_eq_int("date", 6),
                sets: vec![("done".into(), RowExpr::Int(1))],
            }],
        );
        assert!(a.preserves(&snap, &upd_out, "T", LemmaScope::Unit).is_preserved());
        // update outside that rewrites date INTO the region: interference
        let upd_enter = rel_eff(
            Pred::True,
            vec![RelEffect::Update {
                table: "orders".into(),
                filter: RowPred::field_eq_int("date", 6),
                sets: vec![("date".into(), RowExpr::Int(5))],
            }],
        );
        assert!(!a.preserves(&snap, &upd_enter, "T", LemmaScope::Unit).is_preserved());
    }

    #[test]
    fn opaque_footprint_and_lemmas() {
        let app = app().with_lemma("no_gap", "New_Order", LemmaScope::Unit);
        let a = Analyzer::new(&app);
        let no_gap = Pred::Opaque(
            OpaqueAtom::over_items("no_gap", &["maximum_date"])
                .with_region(TableRegion::columns("orders", &["date"])),
        );
        // New_Order (unit) has a lemma: preserved despite touching the footprint.
        let new_order_eff = PathSummary {
            condition: Pred::True,
            assign: Assign::single(
                Var::db("maximum_date"),
                Expr::db("maximum_date").add(Expr::int(1)),
            ),
            havoc_items: vec![],
            effects: vec![RelEffect::Insert {
                table: "orders".into(),
                values: vec![
                    RowExpr::Int(1),
                    RowExpr::Str("c".into()),
                    RowExpr::Int(9),
                    RowExpr::Int(0),
                ],
            }],
            reads: Default::default(),
        };
        assert!(a.preserves(&no_gap, &new_order_eff, "New_Order", LemmaScope::Unit).is_preserved());
        // Same effect at Stmt scope (RU analysis): the lemma does not apply.
        assert!(!a
            .preserves(&no_gap, &new_order_eff, "New_Order", LemmaScope::Stmt)
            .is_preserved());
        // Delivery updates only `done`: outside the column footprint.
        let delivery_eff = rel_eff(
            Pred::True,
            vec![RelEffect::Update {
                table: "orders".into(),
                filter: RowPred::field_eq_int("date", 3),
                sets: vec![("done".into(), RowExpr::Int(1))],
            }],
        );
        assert!(a.preserves(&no_gap, &delivery_eff, "Delivery", LemmaScope::Unit).is_preserved());
        // ... but a DELETE in the region interferes regardless of columns.
        let purge_eff = rel_eff(
            Pred::True,
            vec![RelEffect::Delete {
                table: "orders".into(),
                filter: RowPred::field_eq_int("date", 3),
            }],
        );
        assert!(!a.preserves(&no_gap, &purge_eff, "Purge", LemmaScope::Unit).is_preserved());
    }

    #[test]
    fn hours_unit_preserves_isal_but_single_update_does_not() {
        // Example 2, relational form: emp rows satisfy rate*hrs = sal.
        let app = app();
        let a = Analyzer::new(&app);
        let isal = Pred::Table(TableAtom::AllRows {
            table: "emp".into(),
            constraint: RowPred::cmp(
                semcc_logic::CmpOp::Eq,
                RowExpr::field("rate").mul(RowExpr::field("hrs")),
                RowExpr::field("sal"),
            ),
        });
        let filter = RowPred::field_eq_outer("name", Expr::param("emp"));
        // Composite (merged) update: hrs := hrs + h, sal := rate * (hrs + h)
        let new_hrs = RowExpr::field("hrs").add(RowExpr::Outer(Expr::param("h")));
        let unit = rel_eff(
            Pred::True,
            vec![RelEffect::Update {
                table: "emp".into(),
                filter: filter.clone(),
                sets: vec![
                    ("hrs".into(), new_hrs.clone()),
                    ("sal".into(), RowExpr::field("rate").mul(new_hrs.clone())),
                ],
            }],
        );
        assert!(
            a.preserves(&isal, &unit, "Hours", LemmaScope::Unit).is_preserved(),
            "composite effect preserves rate*hrs = sal"
        );
        // The first write alone breaks the constraint.
        let first_only = rel_eff(
            Pred::True,
            vec![RelEffect::Update {
                table: "emp".into(),
                filter,
                sets: vec![("hrs".into(), new_hrs)],
            }],
        );
        assert!(
            !a.preserves(&isal, &first_only, "Hours", LemmaScope::Stmt).is_preserved(),
            "individual write interferes (RU unsafe, per Example 2)"
        );
    }

    #[test]
    fn polarity_collection_merges() {
        let atom = Pred::Opaque(OpaqueAtom::over_items("c", &["x"]));
        let p = Pred::and([atom.clone(), Pred::not(atom.clone())]);
        let mut out = Vec::new();
        collect_atoms(&p, Polarity::Pos, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, Polarity::Both);
    }
}
