//! Proof-certificate capture for the prover's refutations.
//!
//! A *certifying* run of the prover does not just answer `Proven`: it
//! records, per DNF branch of the negated goal, the exact argument that
//! refutes the branch — a boolean-literal conflict, a string-congruence
//! conflict, or a Fourier–Motzkin elimination trace (the ordered
//! constraint combinations and integer tightenings ending in `k ≤ 0` with
//! `k > 0`). The trace is *positional*: an independent checker re-expands
//! the same predicate with the same deterministic rules and validates the
//! recorded refutation of branch `i` against **its own** branch `i`, so a
//! bug in the prover cannot silently certify a non-theorem.
//!
//! The expansion here deliberately differs from the lazy explorer in
//! [`crate::prover`]: it performs a **full** DNF expansion with no
//! early pruning (`False` becomes an ordinary branch literal, dead
//! branches are still enumerated), so the branch sequence is a pure
//! function of the predicate and trivially reproducible.

use crate::expr::Var;
use crate::linear::{comparison_constraints, Constraint, LinTerm};
use crate::pred::{CmpOp, Pred, StrTerm};
use crate::Expr;

/// One recorded Fourier–Motzkin inference. Indices refer to the item list
/// the checker reconstructs: initial constraints first (an equality
/// contributes its term and its negation, in that order), then one derived
/// item per step, in step order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FmStep {
    /// `mult_upper · items[upper] + mult_lower · items[lower]`, eliminating
    /// `var` (both multipliers are positive, so the combination of two
    /// `≤ 0` facts is again `≤ 0`).
    Combine {
        /// Index of the upper-bound item (positive coefficient on `var`).
        upper: usize,
        /// Index of the lower-bound item (negative coefficient on `var`).
        lower: usize,
        /// The eliminated variable.
        var: Var,
        /// Multiplier applied to the upper item (= −coeff of `var` in lower).
        mult_upper: i64,
        /// Multiplier applied to the lower item (= coeff of `var` in upper).
        mult_lower: i64,
    },
    /// Integer tightening: divide `items[src]`'s coefficients by `divisor`
    /// (which divides them all) and round the constant up — exact for
    /// integer-valued variables.
    Tighten {
        /// Index of the item being tightened.
        src: usize,
        /// The common divisor (> 1).
        divisor: i64,
    },
}

/// A complete Fourier–Motzkin refutation of a constraint conjunction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FmTrace {
    /// The inference steps, in order.
    pub steps: Vec<FmStep>,
    /// Index of the contradictory item: constant-only with constant > 0.
    pub contradiction: usize,
}

/// Why one DNF branch of the negated goal is contradictory.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Refutation {
    /// The branch contains the literal `false`.
    Falsum,
    /// A boolean atom occurs with both polarities.
    Bool {
        /// Canonical name of the conflicting atom.
        atom: String,
    },
    /// The branch's string (dis)equalities are congruence-inconsistent.
    Strings,
    /// The branch's linear constraints admit an FM refutation.
    Linear(FmTrace),
}

/// An unsatisfiability proof: one refutation per DNF branch, positionally
/// aligned with the deterministic expansion of the predicate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UnsatProof {
    /// Refutations, one per branch in expansion order.
    pub branches: Vec<Refutation>,
}

semcc_json::codec! {
    enum FmStep {
        Combine { upper, lower, var, mult_upper, mult_lower },
        Tighten { src, divisor },
    }
    struct FmTrace { steps, contradiction }
    enum Refutation { Falsum, #[bare] Bool { atom }, Strings, Linear(trace) }
    struct UnsatProof { branches }
}

/// One literal of a fully-expanded DNF branch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Lit {
    /// The literal `false`.
    Falsum,
    /// A (non-`Ne`) arithmetic comparison.
    Cmp(CmpOp, Expr, Expr),
    /// A string (dis)equality.
    Str {
        /// True for equality, false for disequality.
        eq: bool,
        /// Left term.
        lhs: StrTerm,
        /// Right term.
        rhs: StrTerm,
    },
    /// An opaque or table atom as a boolean literal.
    Bool {
        /// Canonical atom name (`O:` / `T:` namespaced).
        atom: String,
        /// Polarity.
        positive: bool,
    },
}

/// Canonical boolean-literal name for an atom predicate. Both the producer
/// here and the independent checker in `semcc-cert` must derive identical
/// names; the `O:`/`T:` prefixes keep the namespaces disjoint.
pub fn bool_atom_name(p: &Pred) -> Option<String> {
    match p {
        Pred::Opaque(a) => Some(format!("O:{}", a.name)),
        Pred::Table(t) => Some(format!("T:{}", Pred::Table(t.clone()))),
        _ => None,
    }
}

/// Deterministic full DNF expansion of an NNF predicate. Returns `None`
/// when more than `max_branches` branches would be produced.
///
/// Expansion rules (the checker mirrors these exactly):
/// `True` is dropped; `False` becomes [`Lit::Falsum`]; `And` splices;
/// `Or` multiplies branches in operand order; `Cmp(Ne, …)` splits into
/// `Lt ∨ Gt`; other comparisons, string comparisons, and atoms become
/// literals; residual `Not`/`Implies` are re-normalized.
pub fn dnf_branches(p: &Pred, max_branches: usize) -> Option<Vec<Vec<Lit>>> {
    let nnf = crate::prover::to_nnf(p, true);
    let mut out = Vec::new();
    let mut lits = Vec::new();
    if expand(&[nnf], &mut lits, &mut out, max_branches) {
        Some(out)
    } else {
        None
    }
}

fn expand(todo: &[Pred], lits: &mut Vec<Lit>, out: &mut Vec<Vec<Lit>>, max: usize) -> bool {
    let (first, rest) = match todo.split_first() {
        None => {
            if out.len() >= max {
                return false;
            }
            out.push(lits.clone());
            return true;
        }
        Some(x) => x,
    };
    match first {
        Pred::True => expand(rest, lits, out, max),
        Pred::False => {
            lits.push(Lit::Falsum);
            let ok = expand(rest, lits, out, max);
            lits.pop();
            ok
        }
        Pred::And(ps) => {
            let mut next: Vec<Pred> = ps.clone();
            next.extend_from_slice(rest);
            expand(&next, lits, out, max)
        }
        Pred::Or(ps) => {
            for alt in ps {
                let mut next: Vec<Pred> = vec![alt.clone()];
                next.extend_from_slice(rest);
                if !expand(&next, lits, out, max) {
                    return false;
                }
            }
            true
        }
        Pred::Cmp(CmpOp::Ne, a, b) => {
            let split = Pred::Or(vec![
                Pred::Cmp(CmpOp::Lt, a.clone(), b.clone()),
                Pred::Cmp(CmpOp::Gt, a.clone(), b.clone()),
            ]);
            let mut next: Vec<Pred> = vec![split];
            next.extend_from_slice(rest);
            expand(&next, lits, out, max)
        }
        Pred::Cmp(op, a, b) => {
            lits.push(Lit::Cmp(*op, a.clone(), b.clone()));
            let ok = expand(rest, lits, out, max);
            lits.pop();
            ok
        }
        Pred::StrCmp { eq, lhs, rhs } => {
            lits.push(Lit::Str { eq: *eq, lhs: lhs.clone(), rhs: rhs.clone() });
            let ok = expand(rest, lits, out, max);
            lits.pop();
            ok
        }
        Pred::Opaque(_) | Pred::Table(_) => {
            let atom = bool_atom_name(first).expect("atom");
            lits.push(Lit::Bool { atom, positive: true });
            let ok = expand(rest, lits, out, max);
            lits.pop();
            ok
        }
        Pred::Not(inner) => match bool_atom_name(inner) {
            Some(atom) => {
                lits.push(Lit::Bool { atom, positive: false });
                let ok = expand(rest, lits, out, max);
                lits.pop();
                ok
            }
            None => {
                let nnf = crate::prover::to_nnf(inner, false);
                let mut next: Vec<Pred> = vec![nnf];
                next.extend_from_slice(rest);
                expand(&next, lits, out, max)
            }
        },
        Pred::Implies(a, b) => {
            let nnf =
                Pred::Or(vec![crate::prover::to_nnf(a, false), crate::prover::to_nnf(b, true)]);
            let mut next: Vec<Pred> = vec![nnf];
            next.extend_from_slice(rest);
            expand(&next, lits, out, max)
        }
    }
}

/// Lower a branch's `Cmp` literals to linear constraints, in literal
/// order. Literals the linearizer cannot handle (checked-arithmetic
/// overflow) are *dropped* — sound, since dropping a conjunct only weakens
/// the branch; the checker performs the identical drop.
pub fn branch_constraints(lits: &[Lit]) -> Vec<Constraint> {
    let mut out = Vec::new();
    for l in lits {
        if let Lit::Cmp(op, a, b) = l {
            if let Some(cs) = comparison_constraints(*op, a, b) {
                out.extend(cs);
            }
        }
    }
    out
}

/// Produce an unsatisfiability proof for `p`, or `None` when some branch
/// cannot be refuted (the predicate may be satisfiable, or the expansion /
/// elimination exceeded its budget). A `Some` result re-derives —
/// independently of [`crate::prover::Prover`]'s lazy search — a refutation
/// of every branch, so it constitutes a standalone proof object.
pub fn unsat_proof(p: &Pred, max_branches: usize) -> Option<UnsatProof> {
    let branches = dnf_branches(p, max_branches)?;
    let mut proofs = Vec::with_capacity(branches.len());
    for lits in &branches {
        proofs.push(refute_branch(lits)?);
    }
    Some(UnsatProof { branches: proofs })
}

/// Refute one branch, trying the cheapest arguments first.
fn refute_branch(lits: &[Lit]) -> Option<Refutation> {
    if lits.iter().any(|l| matches!(l, Lit::Falsum)) {
        return Some(Refutation::Falsum);
    }
    // First atom observed under both polarities, scanning in order.
    let mut seen: Vec<(&str, bool)> = Vec::new();
    for l in lits {
        if let Lit::Bool { atom, positive } = l {
            if seen.iter().any(|(a, p)| *a == atom.as_str() && p != positive) {
                return Some(Refutation::Bool { atom: atom.clone() });
            }
            seen.push((atom.as_str(), *positive));
        }
    }
    let mut eqs = Vec::new();
    let mut nes = Vec::new();
    for l in lits {
        if let Lit::Str { eq, lhs, rhs } = l {
            if *eq {
                eqs.push((lhs.clone(), rhs.clone()));
            } else {
                nes.push((lhs.clone(), rhs.clone()));
            }
        }
    }
    if !crate::prover::strings_consistent(&eqs, &nes) {
        return Some(Refutation::Strings);
    }
    fm_refute(&branch_constraints(lits)).map(Refutation::Linear)
}

/// Re-run Fourier–Motzkin elimination over `constraints`, recording every
/// derived combination, and return the trace ending in a contradiction —
/// or `None` if the system is satisfiable or the budget is exceeded.
///
/// The item list starts with the constraints in order (equalities
/// contribute term and negated term), and each step appends exactly one
/// item, so the checker can rebuild the list positionally.
pub fn fm_refute(constraints: &[Constraint]) -> Option<FmTrace> {
    let mut items: Vec<LinTerm> = Vec::new();
    let mut steps: Vec<FmStep> = Vec::new();
    let mut active: Vec<usize> = Vec::new();
    for c in constraints {
        items.push(c.term.clone());
        active.push(items.len() - 1);
        if c.is_eq {
            items.push(c.term.scale(-1)?);
            active.push(items.len() - 1);
        }
    }
    loop {
        // Constant-only items: a positive constant is the contradiction.
        let mut live: Vec<usize> = Vec::with_capacity(active.len());
        for &i in &active {
            if items[i].is_constant() {
                if items[i].constant > 0 {
                    return Some(FmTrace { steps, contradiction: i });
                }
            } else {
                live.push(i);
            }
        }
        active = live;
        if active.is_empty() {
            return None; // satisfiable — nothing to refute
        }
        if active.len() > crate::linear::FM_MAX_CONSTRAINTS {
            return None;
        }
        // Same min-cost variable choice as `fm_sat` (ties to smallest Var).
        let mut best: Option<(Var, usize)> = None;
        {
            let mut counts: std::collections::BTreeMap<&Var, (usize, usize)> =
                std::collections::BTreeMap::new();
            for &i in &active {
                for (v, c) in &items[i].coeffs {
                    let e = counts.entry(v).or_insert((0, 0));
                    if *c > 0 {
                        e.0 += 1;
                    } else {
                        e.1 += 1;
                    }
                }
            }
            for (v, (up, lo)) in counts {
                let cost = up * lo + up + lo;
                if best.as_ref().map(|(_, c)| cost < *c).unwrap_or(true) {
                    best = Some((v.clone(), cost));
                }
            }
        }
        let var = match best {
            Some((v, _)) => v,
            None => return None,
        };
        let mut uppers: Vec<usize> = Vec::new();
        let mut lowers: Vec<usize> = Vec::new();
        let mut rest: Vec<usize> = Vec::new();
        for &i in &active {
            match items[i].coeffs.get(&var).copied() {
                Some(c) if c > 0 => uppers.push(i),
                Some(_) => lowers.push(i),
                None => rest.push(i),
            }
        }
        for &u in &uppers {
            let a = *items[u].coeffs.get(&var).expect("partitioned");
            for &l in &lowers {
                let b = -*items[l].coeffs.get(&var).expect("partitioned");
                let mut combined = items[u].scale(b)?.add(&items[l].scale(a)?)?;
                combined.coeffs.remove(&var);
                steps.push(FmStep::Combine {
                    upper: u,
                    lower: l,
                    var: var.clone(),
                    mult_upper: i64::try_from(b).ok()?,
                    mult_lower: i64::try_from(a).ok()?,
                });
                items.push(combined.clone());
                let mut derived = items.len() - 1;
                let (tightened, divisor) = tighten(&combined)?;
                if divisor > 1 {
                    steps.push(FmStep::Tighten {
                        src: derived,
                        divisor: i64::try_from(divisor).ok()?,
                    });
                    items.push(tightened);
                    derived = items.len() - 1;
                }
                rest.push(derived);
                if rest.len() > crate::linear::FM_MAX_CONSTRAINTS {
                    return None;
                }
            }
        }
        active = rest;
    }
}

/// Integer tightening of `t ≤ 0`: divide the coefficients by their gcd `g`
/// and round the constant up. Returns the tightened term and `g` (`g ≤ 1`
/// means the term is returned unchanged).
pub fn tighten(t: &LinTerm) -> Option<(LinTerm, i128)> {
    let mut g: i128 = 0;
    for c in t.coeffs.values() {
        g = crate::linear::gcd(g, c.abs());
    }
    if g <= 1 {
        return Some((t.clone(), g));
    }
    let mut out = LinTerm::default();
    for (v, c) in &t.coeffs {
        out.coeffs.insert(v.clone(), c / g);
    }
    out.constant = crate::linear::div_ceil(t.constant, g);
    Some((out, g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pred::OpaqueAtom;
    use crate::prover::{Outcome, Prover};

    fn unsat_of_negated_validity(p: &Pred) -> Option<UnsatProof> {
        unsat_proof(&Pred::not(p.clone()), 50_000)
    }

    #[test]
    fn linear_refutation_produced() {
        // x ≥ 1 ⟹ x > 0 is valid; its negation must be refutable.
        let p = Pred::implies(Pred::ge(Expr::db("x"), 1), Pred::gt(Expr::db("x"), 0));
        let proof = unsat_of_negated_validity(&p).expect("proof");
        assert!(!proof.branches.is_empty());
        assert!(proof
            .branches
            .iter()
            .any(|r| matches!(r, Refutation::Linear(t) if !t.steps.is_empty() || t.contradiction > 0 || t.contradiction == 0)));
    }

    #[test]
    fn satisfiable_has_no_proof() {
        // ¬(x ≥ 0 ⟹ x > 0) is satisfiable (x = 0): no proof must exist.
        let p = Pred::implies(Pred::ge(Expr::db("x"), 0), Pred::gt(Expr::db("x"), 0));
        assert!(unsat_of_negated_validity(&p).is_none());
    }

    #[test]
    fn bool_conflict_refutation() {
        let atom = Pred::Opaque(OpaqueAtom::over_items("inv", &[]));
        let p = Pred::and([atom.clone(), Pred::not(atom)]);
        let proof = unsat_proof(&p, 1000).expect("proof");
        assert_eq!(proof.branches.len(), 1);
        assert!(matches!(&proof.branches[0], Refutation::Bool { atom } if atom == "O:inv"));
    }

    #[test]
    fn string_conflict_refutation() {
        let v = StrTerm::Var(Var::param("c"));
        let p = Pred::and([
            Pred::StrCmp { eq: true, lhs: v.clone(), rhs: StrTerm::Const("a".into()) },
            Pred::StrCmp { eq: true, lhs: v, rhs: StrTerm::Const("b".into()) },
        ]);
        let proof = unsat_proof(&p, 1000).expect("proof");
        assert!(matches!(&proof.branches[0], Refutation::Strings));
    }

    #[test]
    fn falsum_refutation() {
        let proof = unsat_proof(&Pred::False, 1000).expect("proof");
        assert_eq!(proof.branches.len(), 1);
        assert!(matches!(&proof.branches[0], Refutation::Falsum));
    }

    #[test]
    fn disjunction_refutes_every_branch() {
        // (x ≤ -1 ∨ x ≥ 1) ∧ x = 0 is unsat with two branches.
        let p = Pred::and([
            Pred::or([Pred::le(Expr::db("x"), -1), Pred::ge(Expr::db("x"), 1)]),
            Pred::eq(Expr::db("x"), 0),
        ]);
        let proof = unsat_proof(&p, 1000).expect("proof");
        assert_eq!(proof.branches.len(), 2);
        for b in &proof.branches {
            assert!(matches!(b, Refutation::Linear(_)));
        }
    }

    #[test]
    fn agrees_with_prover_on_paper_obligations() {
        // Whenever the prover proves an implication, the certifying pass
        // must also produce a proof of the negation's unsatisfiability.
        let cases = vec![
            Pred::implies(
                Pred::and([
                    Pred::ge(Expr::db("sav").add(Expr::db("ch")), 0),
                    Pred::ge(Expr::param("d"), 0),
                ]),
                Pred::ge(Expr::db("sav").add(Expr::param("d")).add(Expr::db("ch")), 0),
            ),
            Pred::implies(
                Pred::gt(Expr::db("x"), Expr::db("y")),
                Pred::gt(Expr::db("x").add(Expr::int(1)), Expr::db("y")),
            ),
        ];
        let prover = Prover::new();
        for p in cases {
            assert_eq!(prover.valid(&p), Outcome::Proven, "{p}");
            assert!(unsat_proof(&Pred::not(p.clone()), 50_000).is_some(), "{p}");
        }
    }

    #[test]
    fn tighten_divides_and_rounds() {
        // 2x + 3 ≤ 0 tightens to x + 2 ≤ 0.
        let mut t = LinTerm::var(Var::db("x")).scale(2).unwrap();
        t.constant = 3;
        let (out, g) = tighten(&t).unwrap();
        assert_eq!(g, 2);
        assert_eq!(out.coeffs.get(&Var::db("x")), Some(&1));
        assert_eq!(out.constant, 2);
    }
}
