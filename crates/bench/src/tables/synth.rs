//! Whole-mix synthesis table — the Pareto front of safe isolation-level
//! vectors for the four paper workloads, plus the prover-call/pruning
//! accounting behind the acceptance criterion (the monotone-pruned
//! search must *visit* — spend fresh pair-lemma work on — under 50 % of
//! the `7^n` lattice; in practice it is under 5 %).
//!
//! For each workload the table reports:
//!
//! 1. the **primary minimal vector** (the ladder-only Pareto minimum —
//!    identical, coordinate for coordinate, to the Section 5 per-type
//!    greedy walk) and every other Pareto-minimal safe vector by its
//!    SNAPSHOT pattern;
//! 2. the **search disposal**: visited / cache-complete / pruned-safe /
//!    pruned-unsafe vector counts (they partition the lattice);
//! 3. the **lemma economy**: distinct pairwise lemmas evaluated vs the
//!    `7^n·n²` a naive per-vector sweep would discharge, plus the
//!    prover-call and memo-hit counts underneath.
//!
//! The run aborts if any workload's search visits ≥ 50 % of its lattice
//! or if a primary vector disagrees with the greedy walk — the table is
//! a regression gate, not just a report.
//!
//! ```text
//! cargo run -p semcc-bench --release -- synth
//! ```
//!
//! Output is deterministic (no timing, no randomness), so
//! `results_fresh` holds it to the committed file byte for byte.

use crate::{header, row, short, Opts};
use semcc_core::assign::default_ladder;
use semcc_core::{assign_levels, App};
use semcc_synth::{ladder_only, synthesize, SynthOptions, SNAP};
use semcc_workloads::{banking, orders, payroll, tpcc};

const WIDTHS: [usize; 4] = [22, 44, 12, 12];

pub fn head(_: &Opts, out: &mut String) {
    outln!(out, "whole-mix isolation-level synthesis (lattice search with monotone pruning)");
    outln!(
        out,
        "vector order: RU < RC < RC+FCW < RR < SER on the ladder; SNAPSHOT and SSI off-ladder"
    );
    outln!(out);

    let workloads: Vec<(&str, App)> = vec![
        ("banking (Fig 1 / Ex 3)", banking::app()),
        ("orders, no_gaps", orders::app(false)),
        ("orders, one_order_per_day", orders::app(true)),
        ("payroll (Ex 2)", payroll::app()),
        ("tpcc", tpcc::app()),
    ];

    for (title, app) in workloads {
        let syn = synthesize(&app, &SynthOptions::default()).expect("synthesis runs");
        let greedy = assign_levels(&app, &default_ladder());
        let primary = syn.primary();
        for (a, l) in greedy.iter().zip(&primary.levels) {
            assert_eq!(
                a.level, *l,
                "{title}: primary vector must equal the greedy walk at {}",
                a.txn
            );
        }

        outln!(out, "== {title} ==");
        outln!(
            out,
            "{} types, lattice 7^{} = {}",
            syn.stats.types,
            syn.stats.types,
            syn.stats.lattice
        );
        outln!(out);
        let names = ["pattern", "minimal vector", "refuted", "countermdl"];
        outln!(out, "{}", header(&names, &WIDTHS));
        for m in &syn.minimal {
            let pattern: Vec<&str> = syn
                .txns
                .iter()
                .zip(&m.codes)
                .filter(|(_, &c)| c == SNAP)
                .map(|(t, _)| t.as_str())
                .collect();
            let label = if ladder_only(&m.codes) {
                "ladder (primary)".to_string()
            } else {
                format!("SI: {}", pattern.join(","))
            };
            let vector: Vec<String> = m.levels.iter().map(|&l| short(l).to_string()).collect();
            outln!(
                out,
                "{}",
                row(
                    &[
                        label,
                        vector.join(" "),
                        format!("{}", m.predecessors.len()),
                        format!(
                            "{}",
                            m.predecessors
                                .iter()
                                .filter(|p| matches!(
                                    p.evidence,
                                    semcc_cert::PredEvidence::Countermodel { .. }
                                ))
                                .count()
                        ),
                    ],
                    &WIDTHS
                )
            );
        }
        let s = &syn.stats;
        let frac = 100.0 * s.visited as f64 / s.lattice as f64;
        assert!(
            2 * s.visited < s.lattice,
            "{title}: search visited {} of {} vectors (>= 50%)",
            s.visited,
            s.lattice
        );
        outln!(out);
        outln!(
            out,
            "disposal: visited {} ({frac:.2}%), cache-complete {}, pruned-safe {}, \
             pruned-unsafe {}",
            s.visited,
            s.cache_complete,
            s.pruned_safe,
            s.pruned_unsafe
        );
        outln!(
            out,
            "lemmas: {} pair lemma(s) evaluated vs {} naive ({}x fewer), {} pair-cache hit(s)",
            s.pair_evals,
            s.naive_pair_evals,
            s.naive_pair_evals / (s.pair_evals.max(1) as u128),
            s.pair_hits
        );
        outln!(out, "prover: {} call(s), {} memo hit(s)", s.prover_calls, s.prover_cache_hits);
        outln!(out);
    }
    outln!(out, "(primary vector == Section 5 greedy walk asserted for every workload;");
    outln!(out, " every other row is a Pareto-minimal SNAPSHOT mix with its refuted");
    outln!(out, " predecessor count and how many refutations carry FM countermodels)");
}
