//! CERT — the certifying-analyzer matrix: proof certificates and
//! executable refutation witnesses for every bundled workload.
//!
//! Left half (proofs): every discharged non-interference triple is
//! re-verified by the independent `semcc-cert` checker (which does not
//! link the prover) after a JSON round trip. Right half (refutations):
//! every lint diagnostic is replayed as a concrete two-transaction
//! schedule on `semcc-engine`; CONFIRMED means the replay exhibited the
//! predicted anomaly.
//!
//! ```text
//! cargo run -p semcc-bench --release -- cert
//! ```

use crate::{header, row, Opts};
use semcc_core::{certify_app, lint, replay_witnesses, App};
use semcc_engine::IsolationLevel;
use semcc_txn::symexec::SymOptions;
use std::collections::BTreeMap;

fn all_at(app: &App, level: IsolationLevel) -> BTreeMap<String, IsolationLevel> {
    app.programs.iter().map(|p| (p.name.clone(), level)).collect()
}

const WIDTHS: [usize; 7] = [14usize, 12, 11, 9, 10, 10, 12];

fn cert_row(out: &mut String, name: &str, app: &App) {
    let cert = match certify_app(app, name, SymOptions::default()) {
        Ok(c) => c,
        Err(e) => {
            outln!(out, "{name}: certification failed: {e}");
            return;
        }
    };
    // Round-trip through JSON before verifying: the checker sees exactly
    // what a `semcc certify --out` file would contain.
    let text = semcc_json::to_string(&cert);
    let cert: semcc_cert::Certificate = match semcc_json::from_str(&text) {
        Ok(c) => c,
        Err(e) => {
            outln!(out, "{name}: certificate JSON round trip failed: {e}");
            return;
        }
    };
    let report = semcc_cert::verify(&cert);
    let obligations: usize = cert.reports.iter().map(|r| r.obligations).sum();
    let certified: usize = cert.reports.iter().map(|r| r.certified.len()).sum();
    let rejected = cert.reports.iter().filter(|r| !r.ok).count();
    outln!(
        out,
        "{}",
        row(
            &[
                name.into(),
                cert.reports.len().to_string(),
                obligations.to_string(),
                certified.to_string(),
                rejected.to_string(),
                report.substitution_proofs.to_string(),
                if report.is_valid() { "VERIFIED".into() } else { "INVALID".into() },
            ],
            &WIDTHS
        )
    );
    for e in report.errors.iter().take(3) {
        outln!(out, "    checker error: {e}");
    }
}

const WWIDTHS: [usize; 6] = [14usize, 10, 13, 11, 13, 24];

fn witness_row(
    out: &mut String,
    name: &str,
    mode: &str,
    app: &App,
    levels: Option<&BTreeMap<String, IsolationLevel>>,
) {
    let report = lint(app, levels);
    let witnesses = replay_witnesses(app, &report);
    let confirmed = witnesses.iter().filter(|w| w.confirmed()).count();
    let mut kinds: BTreeMap<String, (usize, usize)> = BTreeMap::new();
    for w in &witnesses {
        let e = kinds.entry(w.kind.to_string()).or_default();
        e.1 += 1;
        if w.confirmed() {
            e.0 += 1;
        }
    }
    let by_kind =
        kinds.iter().map(|(k, (c, n))| format!("{k} {c}/{n}")).collect::<Vec<_>>().join(", ");
    outln!(
        out,
        "{}",
        row(
            &[
                name.into(),
                mode.into(),
                report.diagnostics.len().to_string(),
                confirmed.to_string(),
                (witnesses.len() - confirmed).to_string(),
                if by_kind.is_empty() { "-".into() } else { by_kind },
            ],
            &WWIDTHS
        )
    );
}

pub fn head(_: &Opts, out: &mut String) {
    let workloads: Vec<(&str, App)> = vec![
        ("banking", semcc_workloads::banking::app()),
        ("orders", semcc_workloads::orders::app(false)),
        ("orders-strict", semcc_workloads::orders::app(true)),
        ("payroll", semcc_workloads::payroll::app()),
        ("tpcc", semcc_workloads::tpcc::app()),
    ];

    outln!(out, "CERT: proof certificates + executable refutation witnesses");
    outln!(out, "\n== proof certificates (verified by the prover-free semcc-cert checker) ==");
    let names =
        ["workload", "(txn,level)", "obligations", "certified", "rejected", "FM proofs", "checker"];
    outln!(out, "{}", header(&names, &WIDTHS));
    for (name, app) in &workloads {
        cert_row(out, name, app);
    }

    outln!(out, "\n== refutation witnesses (lint diagnostics replayed on the engine) ==");
    let names =
        ["workload", "levels", "diagnostics", "CONFIRMED", "unconfirmed", "by kind (conf/total)"];
    outln!(out, "{}", header(&names, &WWIDTHS));
    for (name, app) in &workloads {
        witness_row(out, name, "assigned", app, None);
        let ru = all_at(app, IsolationLevel::ReadUncommitted);
        witness_row(out, name, "all-RU", app, Some(&ru));
    }
    outln!(out, "\nreading: every discharged triple carries a certificate the independent");
    outln!(out, "checker replays (Substitution steps re-prove the FM refutation; lemma and");
    outln!(out, "footprint steps are declared trusted premises); every failed obligation");
    outln!(out, "yields an executable witness, and CONFIRMED rows are real engine runs of");
    outln!(out, "the predicted anomaly — Example 2's dirty read and Example 3's write skew");
    outln!(out, "among them. Unconfirmed witnesses are schedules the locking discipline");
    outln!(out, "blocked or whose anomaly needs a shape the victim lacks (e.g. a re-read).");
}
