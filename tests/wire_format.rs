//! The wire formats, byte for byte.
//!
//! For each bundled application this builds the five artifacts the CLI
//! writes — the exported app (`export`), its certificate (`certify`), the
//! refined certificate (`certify --refine`, orders only), the synthesis
//! certificate and the sealed admission policy (`synth --cert --out`) —
//! and pins the FNV-1a of each one's pretty serialization. The constants
//! were recorded at commit `606a99f`, before the encoders and decoders
//! were generated from one declaration per type. Every artifact must also
//! re-parse and re-print byte-identically (the typed decoder for apps and
//! certificates), and every certificate must pass `semcc_cert::verify`.
//!
//! This file holds exactly one test on purpose: `FreshVars` is a
//! process-global counter that names the fresh constants certificates
//! print, so a second test in this binary would race it and move bytes.

use semcc::analysis::assign::default_ladder;
use semcc::analysis::{assign_levels, certify_app, App, DepGraph};
use semcc::engine::IsolationLevel;
use semcc::logic::hash::fnv1a;
use semcc::txn::symexec::SymOptions;
use semcc::workloads::{banking, orders, payroll, tpcc};
use semcc_cert::Certificate;
use semcc_json::{from_str, from_str_value, to_string_pretty};
use semcc_synth::policy::{certificate_digest, synth_certificate, verify_policy_digest};
use semcc_synth::{policy_json, synthesize, SynthOptions};
use std::collections::BTreeMap;

/// `(artifact, fnv1a of its pretty serialization)`, in the order built.
const GOLDEN: &[(&str, u64)] = &[
    ("banking.json", 0x970e8ba149bb8474),
    ("banking.cert.json", 0x72f887d81fcd68d9),
    ("banking.synth.cert.json", 0x2e7c0461820129c3),
    ("banking.policy.json", 0x849d872d9da71974),
    ("orders.json", 0x29dce635a2c9965e),
    ("orders.cert.json", 0x58f6327b28efdb2f),
    ("orders.refine.cert.json", 0xe29afd45498bab4a),
    ("orders.synth.cert.json", 0xa11dcba4dc9101a5),
    ("orders.policy.json", 0x06f0abc4f5b58fe6),
    ("orders-strict.json", 0xb632bf6878f31406),
    ("orders-strict.cert.json", 0xe5ceea13d0b8a65d),
    ("orders-strict.synth.cert.json", 0xd44d92585cf77b2f),
    ("orders-strict.policy.json", 0x3d61afca41c50a4c),
    ("payroll.json", 0xb24319c5a99288c4),
    ("payroll.cert.json", 0xc12e9bb8a0f82907),
    ("payroll.synth.cert.json", 0xe8ff37136a74f248),
    ("payroll.policy.json", 0x0b5980966c11e87c),
    ("tpcc.json", 0x23d7c6724d62e1dd),
    ("tpcc.cert.json", 0x3311f4da4ac40283),
    ("tpcc.synth.cert.json", 0x1d03c1fc4a12c75d),
    ("tpcc.policy.json", 0x814b04aeb641eee7),
];

fn reprinted_cert(label: &str, text: &str) -> String {
    let cert: Certificate = from_str(text).unwrap_or_else(|e| panic!("{label}: {e}"));
    let report = semcc_cert::verify(&cert);
    assert!(report.is_valid(), "{label}: {:?}", report.errors);
    to_string_pretty(&cert)
}

#[test]
fn bundled_artifacts_are_the_parents_byte_for_byte() {
    let apps: [(&str, App); 5] = [
        ("banking", banking::app()),
        ("orders", orders::app(false)),
        ("orders-strict", orders::app(true)),
        ("payroll", payroll::app()),
        ("tpcc", tpcc::app()),
    ];
    let mut got: Vec<(String, u64)> = Vec::new();
    let mut record = |label: String, text: &str, reprinted: String| {
        assert_eq!(reprinted, text, "{label}: re-parse and re-print moved bytes");
        got.push((label, fnv1a(text.as_bytes())));
    };
    for (name, app) in &apps {
        let text = to_string_pretty(app);
        let back: App = from_str(&text).unwrap_or_else(|e| panic!("{name}.json: {e}"));
        record(format!("{name}.json"), &text, to_string_pretty(&back));

        let mut cert = certify_app(app, name, SymOptions::default()).expect("certify");
        let text = to_string_pretty(&cert);
        let label = format!("{name}.cert.json");
        record(label.clone(), &text, reprinted_cert(&label, &text));
        if *name == "orders" {
            cert.prunes = semcc_refine::refine(app, &DepGraph::build(app)).prunes;
            let text = to_string_pretty(&cert);
            let label = format!("{name}.refine.cert.json");
            record(label.clone(), &text, reprinted_cert(&label, &text));
        }

        let syn = synthesize(app, &SynthOptions::default()).expect("synthesize");
        let greedy = assign_levels(app, &default_ladder());
        let cert = synth_certificate(app, name, &syn);
        let text = to_string_pretty(&cert);
        let label = format!("{name}.synth.cert.json");
        record(label.clone(), &text, reprinted_cert(&label, &text));

        let levels: BTreeMap<String, IsolationLevel> =
            syn.txns.iter().cloned().zip(syn.primary().levels.iter().cloned()).collect();
        let advisories = semcc_refine::predict_deadlocks(app, &levels);
        let policy = policy_json(name, &syn, &greedy, &advisories, &certificate_digest(&cert));
        let text = policy.to_pretty();
        let back = from_str_value(&text).expect("policy parses");
        verify_policy_digest(&back).expect("policy seal verifies");
        record(format!("{name}.policy.json"), &text, back.to_pretty());
    }
    for (label, digest) in &got {
        println!("    (\"{label}\", 0x{digest:016x}),");
    }
    let want: Vec<(String, u64)> = GOLDEN.iter().map(|(l, d)| (l.to_string(), *d)).collect();
    assert_eq!(got, want, "an artifact's bytes moved");
}
