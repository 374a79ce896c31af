//! The pruned lattice search against a naive oracle.
//!
//! `semcc_synth::synthesize` classifies most of the `7^n` level vectors
//! without evaluating them: a cached failed pair excuses every vector
//! containing it, and a known-safe ladder-only vector excuses its up-set
//! (safety is monotone on the ANSI ladder). This oracle prunes nothing.
//! It evaluates every pair lemma `check_pair(i, j, code, bit)` once on
//! one `Analyzer`, decides every vector as the conjunction of its `n²`
//! pairs, and takes the Pareto minima of each off-ladder pattern by
//! comparing every safe vector with every other. The search must find
//! the same number of safe vectors and the same minimal vectors.

use semcc::analysis::theorems::check_pair;
use semcc::analysis::{Analyzer, App};
use semcc::txn::symexec::SymOptions;
use semcc::workloads::{banking, orders, payroll, tpcc};
use semcc_synth::{partner_bit, synthesize, vec_le, SynthOptions, DOMAIN, SNAP};
use std::collections::BTreeMap;

/// Every vector of the `n`-type lattice, in odometer order.
fn lattice(n: usize) -> Vec<Vec<u8>> {
    (0..DOMAIN.len().pow(n as u32))
        .map(|mut idx| {
            let mut v = vec![0u8; n];
            for c in v.iter_mut().rev() {
                *c = (idx % DOMAIN.len()) as u8;
                idx /= DOMAIN.len();
            }
            v
        })
        .collect()
}

/// Checks the search on `app` against the oracle; returns the number of
/// safe vectors.
fn search_matches_oracle(app: &App) -> usize {
    let n = app.programs.len();
    let analyzer = Analyzer::new(app);
    let name = |i: usize| app.programs[i].name.as_str();
    let sym = SymOptions::default();
    let mut lemma: BTreeMap<(usize, usize, u8, bool), bool> = BTreeMap::new();
    for i in 0..n {
        for j in 0..n {
            for (code, &level) in DOMAIN.iter().enumerate() {
                for bit in [false, true] {
                    let (report, _) = check_pair(&analyzer, app, name(i), name(j), level, bit, sym);
                    lemma.insert((i, j, code as u8, bit), report.ok);
                }
            }
        }
    }
    let safe: Vec<Vec<u8>> = lattice(n)
        .into_iter()
        .filter(|v| (0..n).all(|i| (0..n).all(|j| lemma[&(i, j, v[i], partner_bit(v[i], v[j]))])))
        .collect();
    let mut patterns: BTreeMap<Vec<bool>, Vec<&Vec<u8>>> = BTreeMap::new();
    for v in &safe {
        patterns.entry(v.iter().map(|&c| c >= SNAP).collect()).or_default().push(v);
    }
    let mut minimal: Vec<Vec<u8>> = patterns
        .values()
        .flat_map(|group| {
            group.iter().filter(|&&u| !group.iter().any(|&w| w != u && vec_le(w, u))).cloned()
        })
        .cloned()
        .collect();
    minimal.sort();

    let opts = SynthOptions { witnesses: false, ..SynthOptions::default() };
    let syn = synthesize(app, &opts).expect("synthesis runs");
    assert_eq!(syn.stats.safe, safe.len(), "safe vectors");
    let found: Vec<Vec<u8>> = syn.minimal.iter().map(|m| m.codes.clone()).collect();
    assert_eq!(found, minimal, "Pareto-minimal vectors");
    safe.len()
}

#[test]
fn banking_search_matches_the_naive_lattice() {
    assert_eq!(search_matches_oracle(&banking::app()), 109);
}

#[test]
fn orders_search_matches_the_naive_lattice() {
    assert_eq!(search_matches_oracle(&orders::app(false)), 2_016);
}

#[test]
fn orders_strict_search_matches_the_naive_lattice() {
    assert_eq!(search_matches_oracle(&orders::app(true)), 1_638);
}

#[test]
fn payroll_search_matches_the_naive_lattice() {
    assert_eq!(search_matches_oracle(&payroll::app()), 216);
}

#[test]
fn tpcc_search_matches_the_naive_lattice() {
    assert_eq!(search_matches_oracle(&tpcc::app()), 3_150);
}
