use super::*;
use semcc_txn::stmt::{ItemRef, Stmt};
use semcc_txn::ProgramBuilder;

fn parse(s: &str) -> semcc_logic::Pred {
    semcc_logic::parser::parse_pred(s).unwrap()
}

/// A pure reader: safe at READ UNCOMMITTED against anything.
fn reader() -> semcc_txn::Program {
    ProgramBuilder::new("Reader")
        .stmt(
            Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() },
            parse("true"),
            parse(":X = ?SEEN"),
        )
        .build()
}

/// Reads `x` twice and asserts agreement with the stored item: needs
/// repeatable reads against a concurrent writer.
fn double_reader() -> semcc_txn::Program {
    ProgramBuilder::new("Double")
        .stmt(
            Stmt::ReadItem { item: ItemRef::plain("x"), into: "A".into() },
            parse("true"),
            parse("x = :A"),
        )
        .stmt(
            Stmt::ReadItem { item: ItemRef::plain("x"), into: "B".into() },
            parse("x = :A"),
            parse("x = :A && :B = :A"),
        )
        .build()
}

/// Overwrites `x` with an arbitrary parameter.
fn writer() -> semcc_txn::Program {
    ProgramBuilder::new("Writer")
        .param_int("v")
        .stmt(
            Stmt::WriteItem { item: ItemRef::plain("x"), value: semcc_logic::Expr::param("v") },
            parse("true"),
            parse("true"),
        )
        .build()
}

#[test]
fn code_order_is_the_ladder_plus_snapshot_ssi_chain() {
    // Chain: 0 ≤ 1 ≤ … ≤ 4; the off-ladder chain SNAPSHOT ≤ SSI is
    // incomparable to the ladder.
    for a in 0..5u8 {
        for b in 0..5u8 {
            assert_eq!(le_code(a, b), a <= b);
        }
        for off in [SNAP, SSI] {
            assert!(!le_code(a, off));
            assert!(!le_code(off, a));
        }
    }
    assert!(le_code(SNAP, SNAP));
    assert!(le_code(SSI, SSI));
    assert!(le_code(SNAP, SSI));
    assert!(!le_code(SSI, SNAP));
    // Pointwise on vectors; reflexive, antisymmetric on a sample.
    assert!(vec_le(&[0, 3], &[2, 3]));
    assert!(!vec_le(&[0, SNAP], &[2, 4]));
    assert!(vec_le(&[0, SNAP], &[2, SNAP]));
    assert!(vec_le(&[0, SNAP], &[2, SSI]));
    assert!(!vec_le(&[0, SSI], &[2, SNAP]));
}

#[test]
fn partner_bit_distinguishes_tracked_partners_for_ssi_victims() {
    // Non-SSI victims class SNAPSHOT and SSI partners alike.
    for vic in 0..=SNAP {
        for par in 0..5u8 {
            assert!(!partner_bit(vic, par));
        }
        assert!(partner_bit(vic, SNAP));
        assert!(partner_bit(vic, SSI));
    }
    // An SSI victim's bit is "partner is SSI-tracked too".
    for par in 0..=SNAP {
        assert!(!partner_bit(SSI, par));
    }
    assert!(partner_bit(SSI, SSI));
}

#[test]
fn odometer_enumerates_the_whole_lattice_once() {
    let mut v = vec![0u8; 3];
    let mut seen = std::collections::BTreeSet::new();
    loop {
        // The dense tables index a vector by its odometer position, and
        // only safe indices are decoded back to codes.
        assert_eq!(index_of(&v), seen.len());
        assert_eq!(decode(seen.len(), 3), v);
        assert!(seen.insert(v.clone()));
        if !next_vector(&mut v) {
            break;
        }
    }
    assert_eq!(seen.len(), 7usize.pow(3));
}

#[test]
fn fnv1a_is_stable_and_discriminating() {
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_ne!(fnv1a(b"Reader"), fnv1a(b"Writer"));
    assert_eq!(fnv1a(b"Reader"), fnv1a(b"Reader"));
}

#[test]
fn synthesize_refuses_oversized_and_empty_apps() {
    assert!(synthesize(&App::new(), &SynthOptions::default()).is_err());
    let mut app = App::new();
    for i in 0..=MAX_TYPES {
        let mut p = reader();
        p.name = format!("R{i}");
        app = app.with_program(p);
    }
    let err = synthesize(&app, &SynthOptions::default()).unwrap_err();
    assert!(err.contains("caps"), "{err}");
}

#[test]
fn single_reader_is_minimal_at_read_uncommitted() {
    let app = App::new().with_program(reader());
    let syn = synthesize(&app, &SynthOptions::default()).unwrap();
    // Counts partition the lattice.
    let s = &syn.stats;
    assert_eq!(s.visited + s.cache_complete + s.pruned_unsafe + s.pruned_safe, s.lattice);
    assert_eq!(s.lattice, 7);
    // All seven levels are safe for a pure reader; minima are RU and the
    // bottom of the off-ladder chain, SNAPSHOT (SSI dominates it).
    assert_eq!(s.safe, 7);
    let minima: Vec<Vec<u8>> = syn.minimal.iter().map(|m| m.codes.clone()).collect();
    assert_eq!(minima, vec![vec![0], vec![SNAP]]);
    // Bottom element has no predecessor to refute.
    assert!(syn.minimal.iter().all(|m| m.predecessors.is_empty()));
    assert_eq!(syn.primary().codes, vec![0]);
}

#[test]
fn double_reader_vs_writer_needs_repeatable_read_and_refutes_predecessors() {
    let app = App::new().with_program(double_reader()).with_program(writer());
    let syn = synthesize(&app, &SynthOptions::default()).unwrap();
    let primary = syn.primary();
    assert_eq!(syn.txns, vec!["Double".to_string(), "Writer".to_string()]);
    // Double needs RR against a concurrent writer; Writer is safe at RU.
    assert_eq!(primary.codes, vec![3, 0]);
    // Each lowerable coordinate of the primary vector carries a
    // refutation; Writer sits at the bottom already.
    assert_eq!(primary.predecessors.len(), 1);
    let p = &primary.predecessors[0];
    assert_eq!(p.victim, "Double");
    assert_eq!(p.interferer, "Writer");
    assert_eq!(p.lowered_to, IsolationLevel::ReadCommittedFcw);
    match &p.evidence {
        semcc_cert::PredEvidence::Countermodel { model, .. } => assert!(!model.is_empty()),
        semcc_cert::PredEvidence::Trusted { reason } => assert!(!reason.is_empty()),
    }
    // The witness replayed an executable schedule at the predecessor's
    // levels.
    let w = p.witness.as_ref().expect("witness compiled");
    assert!(!w.schedule.is_empty());
    // Monotone pruning did real work: the search evaluated fewer than
    // half the lattice fresh.
    let s = &syn.stats;
    assert!(s.visited * 2 < s.lattice, "visited {} of {}", s.visited, s.lattice);
    // Every safe vector dominates some minimal vector.
}

#[test]
fn search_is_deterministic_across_jobs() {
    let app = App::new().with_program(double_reader()).with_program(writer());
    let syn1 = synthesize(&app, &SynthOptions { jobs: 1, ..SynthOptions::default() }).unwrap();
    let syn8 = synthesize(&app, &SynthOptions { jobs: 8, ..SynthOptions::default() }).unwrap();
    let cert1 = synth_certificate(&app, "t", &syn1);
    let cert8 = synth_certificate(&app, "t", &syn8);
    assert_eq!(semcc_json::to_string_pretty(&cert1), semcc_json::to_string_pretty(&cert8));
    assert_eq!(certificate_digest(&cert1), certificate_digest(&cert8));
}

#[test]
fn synth_certificate_passes_the_independent_checker() {
    let app = App::new().with_program(double_reader()).with_program(writer());
    let syn = synthesize(&app, &SynthOptions::default()).unwrap();
    let cert = synth_certificate(&app, "t", &syn);
    // JSON round-trip, then verify — the same path `semcc verify-cert`
    // takes.
    let text = semcc_json::to_string_pretty(&cert);
    let parsed: semcc_cert::Certificate =
        semcc_json::from_str(&text).expect("certificate round-trips");
    let report = semcc_cert::verify(&parsed);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(report.countermodels + report.synth_trusted > 0);
}

#[test]
fn policy_artifact_is_deterministic_and_carries_advisories() {
    let app = App::new().with_program(double_reader()).with_program(writer());
    let syn = synthesize(&app, &SynthOptions::default()).unwrap();
    let greedy = semcc_core::assign_levels(&app, &semcc_core::assign::default_ladder());
    let cert = synth_certificate(&app, "t", &syn);
    let digest = certificate_digest(&cert);
    let levels: std::collections::BTreeMap<String, IsolationLevel> =
        syn.txns.iter().cloned().zip(syn.primary().levels.iter().cloned()).collect();
    let advisories = semcc_refine::predict_deadlocks(&app, &levels);
    let a = semcc_json::to_string_pretty(&policy_json("t", &syn, &greedy, &advisories, &digest));
    let b = semcc_json::to_string_pretty(&policy_json("t", &syn, &greedy, &advisories, &digest));
    assert_eq!(a, b);
    let s = a;
    assert!(s.contains("\"certificate_digest\""));
    assert!(s.contains("fnv1a:"));
    assert!(s.contains("\"deadlock_advisories\""));
}

use crate::policy::{certificate_digest, synth_certificate};
