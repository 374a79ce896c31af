//! Certifying analysis: package every discharged preservation query of an
//! application into a [`Certificate`] the dependency-light `semcc-cert`
//! crate re-validates without the prover.

use crate::app::{App, LemmaScope};
use crate::interfere::Analyzer;
use crate::theorems::check_with;
use semcc_cert::{Certificate, LemmaDecl, TxnCert};
use semcc_engine::IsolationLevel;
use semcc_txn::symexec::SymOptions;
use std::collections::BTreeSet;

/// The levels a certificate covers: the full ANSI ladder plus SNAPSHOT
/// and SSI (whose whole-app checks are vacuous but still recorded, so a
/// certificate names every level the lattice can assign).
pub const CERTIFIED_LEVELS: [IsolationLevel; 7] = [
    IsolationLevel::ReadUncommitted,
    IsolationLevel::ReadCommitted,
    IsolationLevel::ReadCommittedFcw,
    IsolationLevel::RepeatableRead,
    IsolationLevel::Snapshot,
    IsolationLevel::Ssi,
    IsolationLevel::Serializable,
];

/// Run the certifying analyzer over every `(transaction, level)` pair of the
/// application and assemble the proof certificate.
///
/// `Err` carries the first discharge whose proof trace could not be
/// produced; the analysis verdicts still stand, but the run cannot be
/// independently checked and no partial certificate is returned.
pub fn certify_app(app: &App, name: &str, opts: SymOptions) -> Result<Certificate, String> {
    let lemmas = app
        .lemmas
        .all()
        .map(|(atom, txn, scope)| LemmaDecl {
            atom: atom.clone(),
            txn: txn.clone(),
            scope: match scope {
                LemmaScope::Unit => "Unit".to_string(),
                LemmaScope::Stmt => "Stmt".to_string(),
            },
        })
        .collect();
    let mut reports = Vec::new();
    for program in &app.programs {
        for level in CERTIFIED_LEVELS {
            let analyzer = Analyzer::new(app);
            analyzer.start_certifying();
            let report = check_with(&analyzer, app, &program.name, level, opts, &BTreeSet::new());
            let certified = analyzer
                .take_certificates()
                .map_err(|e| format!("{}@{level}: {e}", program.name))?;
            reports.push(TxnCert {
                txn: report.txn,
                level: level.to_string(),
                ok: report.ok,
                obligations: report.obligations,
                certified,
                failures: report.failures,
            });
        }
    }
    Ok(Certificate {
        app: name.to_string(),
        lemmas,
        reports,
        prunes: Vec::new(),
        synth: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_logic::parser::parse_pred;
    use semcc_txn::stmt::{ItemRef, Stmt};
    use semcc_txn::ProgramBuilder;

    fn pp(s: &str) -> semcc_logic::Pred {
        parse_pred(s).expect("parses")
    }

    fn app() -> App {
        let reader = ProgramBuilder::new("Reader")
            .consistency(pp("x >= 0"))
            .result(pp("#printed"))
            .stmt(
                Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() },
                pp("x >= 0"),
                pp("x >= 0 && x = :X"),
            )
            .build();
        let incr = ProgramBuilder::new("Incr")
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
            .build();
        App::new().with_program(reader).with_program(incr)
    }

    #[test]
    fn certificate_verifies_independently() {
        let cert = certify_app(&app(), "toy", SymOptions::default()).expect("certifiable");
        assert!(!cert.reports.is_empty());
        assert!(
            cert.reports.iter().any(|r| !r.certified.is_empty()),
            "at least one discharged obligation is certified"
        );
        let vr = semcc_cert::verify(&cert);
        assert!(vr.is_valid(), "checker accepts the analyzer's certificate: {:?}", vr.errors);
        assert!(vr.substitution_proofs > 0, "some scalar discharge carries a replayed FM proof");
    }

    #[test]
    fn tampered_certificate_is_rejected() {
        let mut cert = certify_app(&app(), "toy", SymOptions::default()).expect("certifiable");
        // Flip a failing report to `ok` without clearing its failure list.
        let bad = cert.reports.iter_mut().find(|r| !r.ok).expect("some level fails");
        bad.ok = true;
        let vr = semcc_cert::verify(&cert);
        assert!(!vr.is_valid(), "bookkeeping tampering must be caught");
    }

    #[test]
    fn mutated_substitution_predicate_is_rejected() {
        use semcc_cert::Step;
        let mut cert = certify_app(&app(), "toy", SymOptions::default()).expect("certifiable");
        let mut mutated = false;
        'outer: for r in &mut cert.reports {
            for o in &mut r.certified {
                for s in &mut o.steps {
                    if let Step::Substitution { post, .. } = s {
                        *post = semcc_logic::Pred::and([
                            post.clone(),
                            pp("x >= 123456"), // a claim the proof never established
                        ]);
                        mutated = true;
                        break 'outer;
                    }
                }
            }
        }
        assert!(mutated, "toy certificate carries at least one substitution step");
        let vr = semcc_cert::verify(&cert);
        assert!(!vr.is_valid(), "a mutated substituted postcondition must be caught");
    }

    #[test]
    fn dropped_fm_step_is_rejected() {
        use semcc_cert::Step;
        use semcc_logic::certtrace::Refutation;
        let mut cert = certify_app(&app(), "toy", SymOptions::default()).expect("certifiable");
        let mut dropped = false;
        'outer: for r in &mut cert.reports {
            for o in &mut r.certified {
                for s in &mut o.steps {
                    if let Step::Substitution { proof, .. } = s {
                        for b in &mut proof.branches {
                            if let Refutation::Linear(trace) = b {
                                if !trace.steps.is_empty() {
                                    trace.steps.pop();
                                    dropped = true;
                                    break 'outer;
                                }
                            }
                        }
                    }
                }
            }
        }
        assert!(dropped, "toy certificate carries a linear FM trace with steps");
        let vr = semcc_cert::verify(&cert);
        assert!(!vr.is_valid(), "a truncated FM trace must no longer replay");
    }

    #[test]
    fn round_trips_through_json() {
        use semcc_json::{FromJson, ToJson};
        let cert = certify_app(&app(), "toy", SymOptions::default()).expect("certifiable");
        let j = cert.to_json();
        let back = Certificate::from_json(&j).expect("parses back");
        assert_eq!(cert, back);
        assert!(semcc_cert::verify(&back).is_valid());
    }
}
