//! Whole-mix isolation-level synthesis.
//!
//! [`assign_levels`](semcc_core::assign_levels) answers the per-type
//! question: the lowest ladder level at which *one* transaction type is
//! semantically correct, assuming every peer may run anywhere. This crate
//! answers the whole-mix question: over the lattice of **isolation-level
//! vectors** — one level per transaction type, drawn from the ANSI ladder
//! RU → RC → RC+FCW → RR → SER plus the off-ladder SNAPSHOT → SSI chain —
//! which vectors make the *application* semantically correct, and which of those
//! are Pareto-minimal (no coordinate can be lowered without breaking
//! safety)?
//!
//! ## Decomposition
//!
//! A vector `v` is safe iff every ordered pair `(i, j)` of types (including
//! `i = j`) passes the pairwise interference lemma
//! [`check_pair`] for victim `i` at `v[i]` against interferer `j`
//! classed by its partner bit: for a non-SSI victim, whether `v[j]` is
//! snapshot-class (SNAPSHOT or SSI); for an SSI victim, whether `v[j]` is
//! *also* SSI (both tracked ⇒ dangerous-structure aborts make the pair
//! vacuously safe; an untracked partner degrades the victim to SNAPSHOT
//! obligations). The theorems' obligation families are per-interferer, so
//! this conjunction reproduces
//! [`check_with`](semcc_core::theorems::check_with) exactly — and it makes
//! vector safety a function of at most `7·2·n²` pair lemmas rather than
//! `7^n` monolithic checks.
//!
//! ## Monotonicity and pruning
//!
//! On the ladder-only sublattice (no SNAPSHOT coordinate) safety is
//! **upward closed**: raising any coordinate only strengthens the locking
//! discipline, so a safe vector excuses its entire up-set
//! (`pruned_safe`). Versus a SNAPSHOT partner the victim ladder is *not*
//! monotone between RC+FCW and REPEATABLE READ (raising loses
//! first-committer-wins validation while the read locks it gains are
//! pierced by the partner's commit-time install), so up-set pruning is
//! restricted to ladder-only vectors; the mixed-pattern part of the
//! lattice is covered by the pair cache instead. Dually, any pair lemma
//! that *failed* excuses every vector containing that pair
//! (`pruned_unsafe`) — the failure is a property of the pair, not the
//! rest of the vector.
//!
//! ## Accounting
//!
//! `visited` counts vectors whose classification required at least one
//! *fresh* pair-lemma evaluation; `cache_complete` counts vectors decided
//! entirely from previously evaluated pairs (no new prover work). The
//! acceptance criterion "the search visits < 50 % of the naive lattice"
//! is measured on `visited / lattice`: the naive sweep evaluates every
//! pair of every vector from scratch.

use semcc_core::theorems::{check_pair, FailedObligation, LevelReport};
use semcc_core::{Analyzer, App};
use semcc_engine::IsolationLevel;
use semcc_txn::symexec::SymOptions;
use std::collections::BTreeMap;

pub mod evidence;
pub mod policy;

pub use evidence::Predecessor;
pub use policy::{policy_digest, policy_json, synth_certs};

/// The level domain, indexed by the vector codes `0..=6`. Codes `0..=4`
/// form the ANSI ladder (chain order = code order); codes [`SNAP`] and
/// [`SSI`] form the off-ladder SNAPSHOT → SSI chain, incomparable to the
/// ladder.
pub const DOMAIN: [IsolationLevel; 7] = [
    IsolationLevel::ReadUncommitted,
    IsolationLevel::ReadCommitted,
    IsolationLevel::ReadCommittedFcw,
    IsolationLevel::RepeatableRead,
    IsolationLevel::Serializable,
    IsolationLevel::Snapshot,
    IsolationLevel::Ssi,
];

/// Vector code of SNAPSHOT (off the ladder).
pub const SNAP: u8 = 5;

/// Vector code of SSI — joins the lattice directly above [`SNAP`]
/// (SNAPSHOT plus dangerous-structure aborts), still off the ANSI ladder.
pub const SSI: u8 = 6;

/// The synthesizer enumerates `7^n` vectors; above this many types the
/// search is refused rather than silently truncated.
pub const MAX_TYPES: usize = 7;

/// Coordinate order: codes on the ladder compare by rank; the off-ladder
/// chain is SNAPSHOT ≤ SSI, incomparable to the ladder.
fn le_code(a: u8, b: u8) -> bool {
    a == b || (a < SNAP && b < SNAP && a <= b) || (a == SNAP && b == SSI)
}

/// Pointwise partial order on vectors.
pub fn vec_le(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| le_code(*x, *y))
}

/// Whether the vector stays on the ANSI ladder (no SNAPSHOT or SSI
/// coordinate) — the sublattice where up-set pruning is sound.
pub fn ladder_only(v: &[u8]) -> bool {
    v.iter().all(|&c| c < SNAP)
}

/// Search knobs.
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// Workers for the witness-replay fan-out (the lemma evaluation
    /// itself is sequential — the analyzer's memo cache is the point).
    pub jobs: usize,
    /// Symbolic-execution options threaded into every pair lemma.
    pub sym: SymOptions,
    /// Compile executable witness schedules for predecessor refutations.
    pub witnesses: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions { jobs: 1, sym: SymOptions::default(), witnesses: true }
    }
}

/// Outcome of one pairwise interference lemma, memoized under the
/// `(victim, interferer, level, partner class)` key.
#[derive(Clone, Debug)]
pub struct PairOutcome {
    /// All obligations of the pair discharged.
    pub ok: bool,
    /// Obligations the pair required.
    pub obligations: usize,
}

/// How the search disposed of each vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    /// Contains a pair already known to fail: excused unsafe, no work.
    PrunedUnsafe,
    /// Ladder-only and dominates a known-safe ladder-only vector:
    /// excused safe by monotonicity, no work.
    PrunedSafe,
    /// Decided from the pair cache alone — every pair previously
    /// evaluated, no fresh lemma work.
    CacheComplete,
    /// Required at least one fresh pair-lemma evaluation.
    Visited,
}

/// Search statistics (all vector counts partition the lattice).
#[derive(Clone, Debug, Default)]
pub struct SearchStats {
    /// Transaction types (`n`).
    pub types: usize,
    /// Lattice size `7^n`.
    pub lattice: usize,
    /// Vectors that needed fresh pair-lemma work.
    pub visited: usize,
    /// Vectors decided entirely from the pair cache.
    pub cache_complete: usize,
    /// Vectors excused unsafe by a cached failed pair.
    pub pruned_unsafe: usize,
    /// Vectors excused safe by ladder up-set monotonicity.
    pub pruned_safe: usize,
    /// Safe vectors (however classified).
    pub safe: usize,
    /// Distinct pair lemmas evaluated.
    pub pair_evals: usize,
    /// Pair-cache hits during classification.
    pub pair_hits: usize,
    /// Pair lemmas a naive sweep would evaluate (`7^n · n²` victim/
    /// interferer pairs, each from scratch).
    pub naive_pair_evals: u128,
    /// Prover queries actually issued (after the analyzer's memo cache).
    pub prover_calls: usize,
    /// Prover queries answered by the analyzer's memo cache.
    pub prover_cache_hits: usize,
}

/// A Pareto-minimal safe vector with its optimality evidence.
#[derive(Clone, Debug)]
pub struct MinimalVector {
    /// Level per type, aligned with [`Synthesis::txns`].
    pub levels: Vec<IsolationLevel>,
    /// Vector codes (the raw lattice point).
    pub codes: Vec<u8>,
    /// One refutation per immediate predecessor (each coordinate lowered
    /// one chain step): the proof that no coordinate can be lowered.
    pub predecessors: Vec<Predecessor>,
}

/// The synthesis result: every Pareto-minimal safe vector, refuted
/// predecessors, and the search accounting.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// Transaction type names, in application order (vector coordinate
    /// order).
    pub txns: Vec<String>,
    /// Pareto-minimal safe vectors, lexicographically by code.
    pub minimal: Vec<MinimalVector>,
    /// Search accounting.
    pub stats: SearchStats,
}

impl Synthesis {
    /// The primary vector: the minimal vector of the all-ladder snapshot
    /// pattern (always present — the greedy per-type assignment is safe
    /// and ladder-only). This is the vector the admission policy assigns.
    pub fn primary(&self) -> &MinimalVector {
        self.minimal
            .iter()
            .find(|m| ladder_only(&m.codes))
            .expect("the ladder-only pattern always has a minimal safe vector")
    }
}

/// Memoized pairwise-lemma cache. Keys are `(victim index, interferer
/// index, victim level code, partner bit)` — the partner bit is
/// [`partner_bit`]: snapshot-class partner for non-SSI victims,
/// SSI-tracked partner for SSI victims. The lemma's verdict depends on
/// nothing else. One shared [`Analyzer`] underneath additionally memoizes
/// the individual prover queries across pairs.
pub struct PairCache<'a> {
    app: &'a App,
    analyzer: Analyzer<'a>,
    sym: SymOptions,
    outcomes: BTreeMap<(usize, usize, u8, bool), PairOutcome>,
    evals: usize,
    hits: usize,
}

/// FNV-1a over a byte string: policy digests.
pub use semcc_logic::hash::fnv1a;

impl<'a> PairCache<'a> {
    pub fn new(app: &'a App, sym: SymOptions) -> Self {
        PairCache {
            app,
            analyzer: Analyzer::new(app),
            sym,
            outcomes: BTreeMap::new(),
            evals: 0,
            hits: 0,
        }
    }

    /// Whether this pair is already cached as failed (no evaluation).
    fn known_failed(&self, victim: usize, interferer: usize, code: u8, snap: bool) -> bool {
        self.outcomes.get(&(victim, interferer, code, snap)).is_some_and(|o| !o.ok)
    }

    /// Whether this pair is cached at all (no evaluation).
    fn known(&self, victim: usize, interferer: usize, code: u8, snap: bool) -> bool {
        self.outcomes.contains_key(&(victim, interferer, code, snap))
    }

    /// Run the pair lemma on the shared analyzer, past the outcome cache:
    /// its report and its structured failures (certificate raw material).
    /// Deterministic, and the analyzer's memo cache makes a re-run nearly
    /// free.
    pub fn run(
        &self,
        victim: usize,
        interferer: usize,
        code: u8,
        snap: bool,
    ) -> (LevelReport, Vec<FailedObligation>) {
        check_pair(
            &self.analyzer,
            self.app,
            &self.app.programs[victim].name,
            &self.app.programs[interferer].name,
            DOMAIN[code as usize],
            snap,
            self.sym,
        )
    }

    /// Look up the pair lemma, evaluating it on a miss.
    pub fn get(&mut self, victim: usize, interferer: usize, code: u8, snap: bool) -> PairOutcome {
        let key = (victim, interferer, code, snap);
        if let Some(o) = self.outcomes.get(&key) {
            self.hits += 1;
            return o.clone();
        }
        let (report, _) = self.run(victim, interferer, code, snap);
        self.evals += 1;
        let outcome = PairOutcome { ok: report.ok, obligations: report.obligations };
        self.outcomes.insert(key, outcome.clone());
        outcome
    }

    pub fn analyzer(&self) -> &Analyzer<'a> {
        &self.analyzer
    }
}

/// The partner-class bit for victim code `vic` against partner code
/// `par`: a non-SSI victim cares whether the partner is snapshot-class
/// (SNAPSHOT or SSI — both install at commit over a fixed snapshot); an
/// SSI victim cares whether the partner is *also* SSI-tracked (only then
/// do dangerous-structure aborts cover the pair).
pub fn partner_bit(vic: u8, par: u8) -> bool {
    if vic == SSI {
        par == SSI
    } else {
        par >= SNAP
    }
}

/// The ordered pair keys whose conjunction decides vector `v`, in the
/// deterministic order the search consults them.
fn pair_keys(v: &[u8]) -> Vec<(usize, usize, u8, bool)> {
    let n = v.len();
    let mut out = Vec::with_capacity(n * n);
    for i in 0..n {
        for j in 0..n {
            out.push((i, j, v[i], partner_bit(v[i], v[j])));
        }
    }
    out
}

/// Advance the base-7 odometer (rightmost coordinate fastest); `false`
/// when the enumeration is exhausted.
fn next_vector(v: &mut [u8]) -> bool {
    for c in v.iter_mut().rev() {
        if *c < SSI {
            *c += 1;
            return true;
        }
        *c = 0;
    }
    false
}

/// Ladder-rank sum (off-ladder coordinates contribute their own rank
/// class and never compare against ladder codes, so any order-preserving
/// values work; use 3 for SNAPSHOT and 4 for SSI — SNAPSHOT < SSI must
/// hold so dominators sort before their up-sets — purely for stable
/// ordering).
fn rank_sum(v: &[u8]) -> usize {
    v.iter()
        .map(|&c| match c {
            SNAP => 3,
            SSI => 4,
            _ => c as usize,
        })
        .sum()
}

/// Run the whole-mix synthesis: enumerate the `7^n` lattice bottom-up
/// with monotone pruning, extract the Pareto-minimal safe vectors, and
/// refute every immediate predecessor of each (see [`evidence`]).
pub fn synthesize(app: &App, opts: &SynthOptions) -> Result<Synthesis, String> {
    let n = app.programs.len();
    if n == 0 {
        return Err("application has no transaction types".to_string());
    }
    if n > MAX_TYPES {
        return Err(format!(
            "{n} transaction types yields a 7^{n} lattice; the synthesizer caps at {MAX_TYPES}"
        ));
    }
    let txns: Vec<String> = app.programs.iter().map(|p| p.name.clone()).collect();
    let mut cache = PairCache::new(app, opts.sym);
    let lattice = 7usize.pow(n as u32);

    let mut stats = SearchStats {
        types: n,
        lattice,
        naive_pair_evals: (lattice as u128) * (n as u128) * (n as u128),
        ..SearchStats::default()
    };
    let mut safety: BTreeMap<Vec<u8>, bool> = BTreeMap::new();
    // Antichain of known-safe ladder-only vectors (minimal elements seen
    // so far); any later ladder-only vector dominating one is excused.
    let mut frontier: Vec<Vec<u8>> = Vec::new();

    let mut v = vec![0u8; n];
    loop {
        let keys = pair_keys(&v);
        let class;
        let ok;
        if keys.iter().any(|&(i, j, c, s)| cache.known_failed(i, j, c, s)) {
            class = Class::PrunedUnsafe;
            ok = false;
        } else if ladder_only(&v) && frontier.iter().any(|f| vec_le(f, &v)) {
            class = Class::PrunedSafe;
            ok = true;
        } else {
            let evals_before = cache.evals;
            let all_known = keys.iter().all(|&(i, j, c, s)| cache.known(i, j, c, s));
            // Evaluate the conjunction; short-circuit on the first failed
            // pair (its failure enters the cache and excuses the up-set
            // extensions of this vector).
            ok = keys.iter().all(|&(i, j, c, s)| cache.get(i, j, c, s).ok);
            class = if all_known && cache.evals == evals_before {
                Class::CacheComplete
            } else {
                Class::Visited
            };
            if ok && ladder_only(&v) {
                frontier.retain(|f| !vec_le(&v, f));
                frontier.push(v.clone());
            }
        }
        match class {
            Class::PrunedUnsafe => stats.pruned_unsafe += 1,
            Class::PrunedSafe => stats.pruned_safe += 1,
            Class::CacheComplete => stats.cache_complete += 1,
            Class::Visited => stats.visited += 1,
        }
        if ok {
            stats.safe += 1;
        }
        safety.insert(v.clone(), ok);
        if !next_vector(&mut v) {
            break;
        }
    }

    // Pareto minima, per off-ladder pattern (a coordinate is either on
    // the ANSI ladder or on the SNAPSHOT → SSI chain; the two chains are
    // incomparable, so minima of different patterns never dominate one
    // another). Within a pattern, scanning by ascending rank sum
    // guarantees every dominator candidate is already kept when its
    // up-set is scanned.
    let mut groups: BTreeMap<Vec<bool>, Vec<Vec<u8>>> = BTreeMap::new();
    for (vec, &ok) in &safety {
        if ok {
            let pattern: Vec<bool> = vec.iter().map(|&c| c >= SNAP).collect();
            groups.entry(pattern).or_default().push(vec.clone());
        }
    }
    let mut minimal_codes: Vec<Vec<u8>> = Vec::new();
    for (_, mut group) in groups {
        group.sort_by_key(|u| (rank_sum(u), u.clone()));
        let mut kept: Vec<Vec<u8>> = Vec::new();
        for u in group {
            if !kept.iter().any(|k| vec_le(k, &u)) {
                kept.push(u);
            }
        }
        minimal_codes.extend(kept);
    }
    minimal_codes.sort();

    let minimal =
        evidence::refute_predecessors(app, &txns, &mut cache, &safety, minimal_codes, opts);

    stats.pair_evals = cache.evals;
    stats.pair_hits = cache.hits;
    stats.prover_calls = cache.analyzer.prover_calls();
    stats.prover_cache_hits = cache.analyzer.cache_hits();
    Ok(Synthesis { txns, minimal, stats })
}

#[cfg(test)]
mod tests;
