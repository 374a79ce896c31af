//! `analyze_synth`: time to a proven policy.
//!
//! One op is one application's whole static pipeline ([`prove`]), over the
//! five bundled applications; a repetition is [`ROUNDS`] rounds of all
//! five, in an order shuffled by the seed. The engine does no work here:
//! prover, dependency graph, refinement, synthesis and the certificate
//! checker do all of it.

use crate::analysis::{apps, check_expected, prove, Proven};
use crate::clock::now_ns;
use crate::gen::Rng;
use crate::run::{drive, Rep, Workload};
use semcc_core::App;
use semcc_json::Json;
use semcc_storage::wal::fnv1a;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Rounds of the five applications per repetition.
pub const ROUNDS: usize = 12;

/// `analyze_synth`.
pub struct AnalyzeSynth {
    /// Seed of the per-round application order.
    pub seed: u64,
    /// Rounds per repetition.
    pub rounds: usize,
    /// Parsed `expected/policies.json`.
    pub expected: Json,
}

impl Workload for AnalyzeSynth {
    fn clients(&self) -> usize {
        1
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let t0 = now_ns();
        let apps: Vec<(&'static str, App)> = apps();
        let mut rng = Rng::new(self.seed, 3);
        let order: Vec<usize> = (0..self.rounds)
            .flat_map(|_| {
                let mut round: Vec<usize> = (0..apps.len()).collect();
                rng.shuffle(&mut round);
                round
            })
            .collect();
        let setup_s = (now_ns() - t0) as f64 / 1e9;

        // The first result per application is kept for the expected-file
        // check; failures of `prove` itself are failed ops.
        let first: Mutex<BTreeMap<&'static str, Proven>> = Mutex::new(BTreeMap::new());
        let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
        let measured = drive(1, 0..order.len(), "analyze.app", traced, |k, scope| {
            let (name, app) = &apps[order[k]];
            match prove(app, name, scope) {
                Ok(proven) => {
                    first.lock().expect("no panic holds this lock").entry(name).or_insert(proven);
                    true
                }
                Err(e) => {
                    errors.lock().expect("no panic holds this lock").push(e);
                    false
                }
            }
        });

        let first = first.into_inner().expect("no panic holds this lock");
        let mut audit_failures: Vec<String> =
            first.iter().flat_map(|(name, p)| check_expected(name, p, &self.expected)).collect();
        let errors = errors.into_inner().expect("no panic holds this lock");
        eprint!("{}", errors.iter().map(|e| format!("analyze_synth: {e}\n")).collect::<String>());
        if first.len() + errors.len() < apps.len() {
            audit_failures.push("a repetition must cover all five applications".into());
        }
        let digests: String = first.values().map(|p| p.policy_digest.as_str()).collect();
        let sum = |f: fn(&Proven) -> usize| first.values().map(f).sum::<usize>() as f64;
        let counters = BTreeMap::from([
            ("prover.calls", sum(|p| p.stats.prover_calls)),
            ("synth.lemmas_evaluated", sum(|p| p.stats.pair_evals)),
            ("synth.vectors_visited", sum(|p| p.stats.visited)),
        ]);
        Rep {
            setup_s,
            ops: order.len() as u64,
            audit_failures,
            digest: Some(fnv1a(digests.as_bytes())),
            counters,
            measured,
        }
    }
}
