//! The command line, byte for byte.
//!
//! Each row runs the `semcc-cli` binary in a scratch directory, naming
//! every file by a relative path so that no output carries the directory,
//! and pins `(argv, exit code, FNV-1a of stdout)`. A row that exits 2 must
//! also start its stderr with `error: `; the wording after that is free.
//! Two reports carry wall-clock numbers, and their rows pin only the
//! seed-pure lines (see [`seed_pure`]). Written files are pinned the same
//! way. The constants were recorded at commit `3e6eb17`, before the
//! subcommands shared one argument parser.
//!
//! The rows cover every invocation form the README, EXPERIMENTS.md and
//! the verify notes show, on the five bundled apps. A row that fails prints
//! the line that would pin what the binary does now, so a deliberate change
//! is re-recorded by pasting it.

use semcc_logic::hash::fnv1a;
use std::path::PathBuf;
use std::process::{Command, Output};

/// FNV-1a of an empty stdout.
const EMPTY: u64 = 0xcbf29ce484222325;

/// `(workload, fnv1a of export's stdout, fnv1a of the exported file)`.
const APPS: [(&str, u64, u64); 5] = [
    ("banking", 0x9ac389200c43485f, 0x970e8ba149bb8474),
    ("orders", 0xc664cceb2e3db410, 0x29dce635a2c9965e),
    ("orders-strict", 0x2458ba9fa75972a2, 0xb632bf6878f31406),
    ("payroll", 0xa2e0cd3eab4bb680, 0xb24319c5a99288c4),
    ("tpcc", 0x8f9d4d41ccc23b84, 0x23d7c6724d62e1dd),
];

/// The part of a row's stdout it pins. Serve's human `--bench` report
/// measures throughput and latency, so only its header and invariant
/// lines are pinned; faultsim's human report pins every line except the
/// recovery-latency percentiles.
fn seed_pure(argv: &[&str], stdout: &str) -> String {
    let human = !argv.contains(&"--json");
    let keep = |line: &str| match argv.first() {
        Some(&"serve") if human && argv.contains(&"--bench") => {
            line.starts_with("serve bench:") || line.starts_with("invariants:")
        }
        Some(&"faultsim") if human => !line.starts_with("  recovery latency"),
        _ => true,
    };
    stdout.lines().filter(|l| keep(l)).map(|l| format!("{l}\n")).collect()
}

/// A scratch directory and the rows that did not match so far.
struct Cli {
    dir: PathBuf,
    failures: Vec<String>,
}

impl Cli {
    /// A fresh directory holding the five bundled apps as `<workload>.json`.
    fn new(test: &str) -> Cli {
        let dir = std::env::temp_dir().join(format!("semcc-cli-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the scratch directory");
        let mut c = Cli { dir, failures: Vec::new() };
        for (app, stdout, file) in APPS {
            let path = format!("{app}.json");
            c.row(&["export", app, &path], 0, stdout);
            c.file(&path, file);
        }
        c
    }

    fn run(&self, argv: &[&str]) -> Output {
        Command::new(env!("CARGO_BIN_EXE_semcc-cli"))
            .args(argv)
            .current_dir(&self.dir)
            .output()
            .expect("spawn semcc-cli")
    }

    /// Run one row and return its stdout.
    fn row(&mut self, argv: &[&str], exit: i32, stdout: u64) -> String {
        let out = self.run(argv);
        let text = String::from_utf8(out.stdout).expect("stdout is UTF-8");
        let code = out.status.code().expect("exited, not killed");
        let got = fnv1a(seed_pure(argv, &text).as_bytes());
        if (code, got) != (exit, stdout) {
            self.failures.push(format!("c.row(&{argv:?}, {code}, {got:#018x});"));
        }
        let stderr = String::from_utf8_lossy(&out.stderr);
        if code == 2 && !stderr.starts_with("error: ") {
            self.failures.push(format!("{argv:?}: stderr does not start with `error: `: {stderr}"));
        }
        text
    }

    /// A usage or I/O error caught before any output: exit 2, no stdout.
    fn rejects(&mut self, argv: &[&str]) {
        self.row(argv, 2, EMPTY);
    }

    /// Pin a file a row wrote, and return it.
    fn file(&mut self, path: &str, want: u64) -> String {
        let text = std::fs::read_to_string(self.dir.join(path)).expect("the row wrote the file");
        let got = fnv1a(text.as_bytes());
        if got != want {
            self.failures.push(format!("c.file({path:?}, {got:#018x});"));
        }
        text
    }

    fn done(self) {
        assert!(self.failures.is_empty(), "rows differ:\n{}", self.failures.join("\n"));
    }
}

impl Drop for Cli {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn analyze_check_verify_obligations() {
    let mut c = Cli::new("analyze");
    c.row(&["analyze", "banking.json"], 1, 0x3d282af8fd7a7836);
    c.row(&["analyze", "orders.json"], 1, 0x1d276f38625f93a3);
    c.row(&["analyze", "orders-strict.json"], 1, 0x005be7c262654853);
    c.row(&["analyze", "payroll.json"], 0, 0x40cad10c228ccd50);
    c.row(&["analyze", "tpcc.json"], 1, 0x6daedd71c5295db5);
    c.row(&["analyze", "banking.json", "--ansi"], 1, 0xae9008262af9dc02);
    c.row(&["analyze", "orders.json", "--ansi"], 1, 0x1d276f38625f93a3);
    // A rejected level is a diagnostic (exit 1), not an error.
    c.row(&["check", "banking.json", "Withdraw_sav", "SNAPSHOT"], 1, 0x72fad31d3d341ccc);
    c.row(&["check", "banking.json", "Withdraw_sav", "REPEATABLE READ"], 0, 0x044e71274702d0a0);
    c.row(&["check", "banking.json", "Withdraw_sav", "rr"], 0, 0x044e71274702d0a0);
    c.row(&["check", "orders.json", "Delivery", "READ COMMITTED"], 1, 0x23aa0db0e00e0ea6);
    c.row(&["check", "orders.json", "Audit", "SER"], 0, 0x254e811fc06e051c);
    c.row(&["verify", "banking.json"], 0, 0x87de68cd43bd72db);
    c.row(&["verify", "orders.json"], 0, 0x4a84d1b73ec26c27);
    c.row(&["verify", "orders-strict.json"], 0, 0x930f0574ab382367);
    c.row(&["verify", "payroll.json"], 0, 0x86fe978701fbd2fd);
    c.row(&["verify", "tpcc.json"], 0, 0x3c146c3d9e09ea57);
    c.row(&["obligations", "banking.json"], 0, 0xce80246ad78e2a24);
    c.row(&["obligations", "orders.json"], 0, 0xdd18981f6ee8c517);
    c.row(&["obligations", "orders-strict.json"], 0, 0xdd18981f6ee8c517);
    c.row(&["obligations", "payroll.json"], 0, 0x3ca889db17728043);
    c.row(&["obligations", "tpcc.json"], 0, 0xa47febfd70fd9dfa);
    c.rejects(&["export", "nope", "x.json"]);
    c.rejects(&["export", "banking"]);
    c.rejects(&["analyze", "missing.json"]);
    c.rejects(&["analyze"]);
    c.rejects(&["check", "banking.json", "Withdraw_sav", "BOGUS"]);
    c.rejects(&["check", "banking.json", "Nope", "SNAPSHOT"]);
    c.rejects(&["check", "banking.json", "Withdraw_sav"]);
    c.rejects(&["verify", "missing.json"]);
    c.rejects(&["obligations"]);
    c.rejects(&["bogus"]);
    // The usage's layout is not pinned, only that it is not an error.
    for argv in [&["help"][..], &[]] {
        assert_eq!(c.run(argv).status.code(), Some(0), "{argv:?} prints the usage");
    }
    c.done();
}

#[test]
fn certify_and_verify_cert() {
    let mut c = Cli::new("certify");
    c.row(&["certify", "banking.json", "--out", "banking.cert.json"], 1, 0x50f6d1891cc3e8b1);
    c.row(&["certify", "orders.json", "--out", "orders.cert.json"], 1, 0x6abcff478846264c);
    c.row(
        &["certify", "orders-strict.json", "--out", "orders-strict.cert.json"],
        1,
        0x930fc55fd18e51c0,
    );
    c.row(&["certify", "payroll.json", "--out", "payroll.cert.json"], 1, 0x66ef4cd729bc0bc8);
    c.row(&["certify", "tpcc.json", "--out", "tpcc.cert.json"], 1, 0xe67d566d57426606);
    c.row(
        &["certify", "orders.json", "--refine", "--out", "orders.refine.cert.json"],
        1,
        0x4a10ef5b0b72fa04,
    );
    c.row(&["certify", "banking.json"], 1, 0x48b2361e93e46338);
    c.file("banking.cert.json", 0x72f887d81fcd68d9);
    c.file("orders.cert.json", 0xec5ac4200de99f20);
    c.file("orders-strict.cert.json", 0x6ebc14a783ab19a9);
    c.file("payroll.cert.json", 0xc12e9bb8a0f82907);
    c.file("tpcc.cert.json", 0x3311f4da4ac40283);
    c.file("orders.refine.cert.json", 0x2871e5d9b335de0b);
    c.row(&["verify-cert", "banking.cert.json"], 0, 0xcf531570fa9689c3);
    c.row(&["verify-cert", "orders.cert.json"], 0, 0xef2cdcb38fe008cd);
    c.row(&["verify-cert", "orders-strict.cert.json"], 0, 0x896b8fce48af571b);
    c.row(&["verify-cert", "payroll.cert.json"], 0, 0xbdb2b1d3710be62f);
    c.row(&["verify-cert", "tpcc.cert.json"], 0, 0x5d0656d80987f798);
    c.row(&["verify-cert", "orders.refine.cert.json"], 0, 0xf30101008b3e2019);
    c.rejects(&["verify-cert", "banking.json"]);
    c.rejects(&["verify-cert", "missing.json"]);
    c.rejects(&["certify", "banking.json", "--out"]);
    // The table is printed before the certificate fails to be written.
    c.row(&["certify", "banking.json", "--out", "no-such-dir/c.json"], 2, 0x48b2361e93e46338);
    c.done();
}

#[test]
fn lint() {
    let mut c = Cli::new("lint");
    c.row(&["lint", "banking.json"], 1, 0x689f985919bc770b);
    c.row(&["lint", "orders.json"], 0, 0x5dda5a869864d27f);
    c.row(&["lint", "orders-strict.json"], 0, 0x7331ec8808ed63e8);
    c.row(&["lint", "payroll.json"], 0, 0xafe3a4497a35b5c7);
    c.row(&["lint", "tpcc.json"], 0, 0x3920995c4b602259);
    c.row(&["lint", "banking.json", "--json"], 1, 0xc18993d90936330b);
    c.row(&["lint", "orders.json", "--json"], 0, 0x0d575d6af3221829);
    c.row(&["lint", "orders.json", "--levels", "RU,RC,RC,RR,SER"], 0, 0xf1831c8aa196d7df);
    c.row(&["lint", "banking.json", "--levels", "SNAPSHOT,SNAPSHOT,RR,RR"], 1, 0xbefe45f091d31ba9);
    c.row(&["lint", "banking.json", "--witness"], 1, 0x8dc40953c2dfaa5a);
    c.row(&["lint", "banking.json", "--witness", "--json"], 1, 0x2972e084550b03c3);
    c.row(&["lint", "banking.json", "--witness", "--jobs", "8"], 1, 0x8dc40953c2dfaa5a);
    c.row(&["lint", "payroll.json", "--levels", "RU,RU,RU", "--witness"], 1, 0xdfdee6ddd3526a72);
    // `--refine` only deletes proven-infeasible edges: verdicts stay.
    c.row(&["lint", "orders.json", "--refine"], 0, 0xbf1c3429e4ddf925);
    c.row(&["lint", "orders.json", "--refine", "--json"], 0, 0xf14252f156db1243);
    c.row(&["lint", "banking.json", "--refine"], 1, 0x3fa1cdf79a828827);
    // SSI: the all-SSI vector is vacuously clean; mixed with weaker
    // partners the SSI types degrade to SNAPSHOT obligations.
    c.row(&["lint", "banking.json", "--levels", "SSI,SSI,SSI,SSI"], 0, 0xc0beb1356ddd1e1e);
    let sweep = ["lint", "banking.json", "--levels", "SSI,SSI,SSI,SSI;SI,SI,SSI,SSI;RR,RR,SSI,SSI"];
    let first = c.row(&sweep, 1, 0x4cd2fb30ae750ed9);
    let again = c.row(&sweep, 1, 0x4cd2fb30ae750ed9);
    assert_eq!(first, again, "a sweep prints the same bytes on every run");
    assert!(first.contains("at levels: SI,SI,SSI,SSI"), "the skew is the mixed vector's:\n{first}");
    let skew = ["lint", "banking.json", "--levels", "SI,SI,SI,SI;RR,RR,RR,RR"];
    c.row(&skew, 1, 0x2bdc896b834fff58);
    c.row(&[&skew[..], &["--json"]].concat(), 1, 0x99183b6282a695e4);
    c.row(
        &["lint", "banking.json", "--levels", "RR,RR,RR,RR;SER,SER,SER,SER"],
        0,
        0x26fa52f52b208fcb,
    );
    let orders =
        ["lint", "orders.json", "--levels", "RU,RC,RC,RR,SER;SER,SER,SER,SER,SER", "--refine"];
    c.row(&orders, 0, 0x44b66f439e4e6e81);
    c.row(&[&orders[..], &["--json"]].concat(), 0, 0x140a7cbf1ace1048);
    c.rejects(&["lint", "orders.json", "--levels", "RU"]);
    c.rejects(&["lint", "orders.json", "--levels", "BOGUS,RC,RC,RR,SER"]);
    c.rejects(&["lint", "orders.json", "--levels"]);
    c.rejects(&["lint", "missing.json"]);
    c.rejects(&["lint"]);
    c.rejects(&["lint", "banking.json", "--jobs", "many"]);
    // Witness replay is per vector: with a sweep it is an error.
    c.rejects(&[&skew[..], &["--witness"]].concat());
    c.done();
}

#[test]
fn explore() {
    let mut c = Cli::new("explore");
    let pay = ["explore", "payroll.json", "--txns", "Hours,Print_Records", "--seed", "emp.rate=10"];
    let bank = ["explore", "banking.json", "--txns", "Withdraw_sav,Withdraw_ch"];
    let with = |base: &[&'static str], extra: &[&'static str]| [base, extra].concat();
    // Example 2 (payroll dirty read): divergent at RU, clean at SER and SSI.
    c.row(&with(&pay, &["--levels", "RU,RU"]), 1, 0xfd31f80b311bf9b7);
    c.row(&with(&pay, &["--levels", "SER,SER"]), 0, 0x200aeb4f8213dbc0);
    c.row(&with(&pay, &["--levels", "SSI,SSI"]), 0, 0x59a199bf5dd9c038);
    // Example 3 (banking write skew): divergent at SNAPSHOT, clean at RR
    // and at SSI (its dangerous-structure aborts kill the racy schedules).
    c.row(&with(&bank, &["--levels", "SI,SI"]), 1, 0xda06efb9d5aea1c0);
    c.row(&with(&bank, &["--levels", "RR,RR"]), 0, 0x8173a9f4f4383644);
    c.row(&with(&bank, &["--levels", "SSI,SSI"]), 0, 0x5038bf475d6e2939);
    c.row(&with(&bank, &["--levels", "SI,SI", "--json"]), 1, 0x2bd5cb458c316197);
    // `--refine` moves no verdict of Examples 2 and 3.
    c.row(&with(&pay, &["--levels", "RU,RU", "--refine"]), 1, 0x3cc288593bb34fe8);
    c.row(&with(&pay, &["--levels", "SER,SER", "--refine"]), 0, 0x08a701071352684f);
    c.row(&with(&bank, &["--levels", "SI,SI", "--refine"]), 1, 0x3e9fe39a9c0bac4f);
    c.row(&with(&bank, &["--levels", "RR,RR", "--refine"]), 0, 0x1130d7ea9e610349);
    c.row(&with(&bank, &["--levels", "SI,SI", "--refine", "--json"]), 1, 0x4fbf2aa72045cb14);
    // The JSON report is the same at one and at eight workers on these
    // five cells: both runs of a cell pin one constant.
    let three = ["explore", "payroll.json", "--txns", "Hours,Print_Records,Payroll_Report"];
    for (cell, exit, json) in [
        (with(&pay, &["--levels", "RU,RU"]), 1, 0x01c8d24b2cfa8b11),
        (with(&pay, &["--levels", "RU,RU;RC,RC;SER,SER"]), 1, 0x9a67e44716d0cc61),
        (with(&bank, &["--levels", "SI,SI"]), 1, 0x2bd5cb458c316197),
        (with(&bank, &["--levels", "SSI,SSI"]), 0, 0x956413f24426fc0c),
        (with(&three, &["--levels", "RU,RU,RU", "--max-schedules", "5"]), 0, 0x41e8d577df89a25d),
    ] {
        for jobs in ["1", "8"] {
            c.row(&with(&cell, &["--jobs", jobs, "--json"]), exit, json);
        }
    }
    c.row(&with(&pay, &["--levels", "RU,RU;RC,RC;SER,SER"]), 1, 0x2a35c573c8262b11);
    c.row(&with(&bank, &["--levels", "SI,SI", "--max-depth", "4"]), 0, 0xaf235881fee2921e);
    c.row(&with(&bank, &["--levels", "RR,RR", "--lock-timeout-ms", "5"]), 0, 0x8173a9f4f4383644);
    // Injected aborts: the rollback is visible at RU, not at RC.
    c.row(&with(&pay, &["--levels", "RU,RU", "--faults", "Hours"]), 1, 0x0b9ff9d6623a7318);
    c.row(&with(&pay, &["--levels", "RC,RC", "--faults", "Hours"]), 0, 0x33543d5f20b533d3);
    c.row(&with(&pay, &["--levels", "RU,RU", "--faults"]), 1, 0x0b9ff9d6623a7318);
    c.row(&with(&pay, &["--levels", "RU,RU", "--faults", "1", "--json"]), 1, 0x1de655c8147d90c1);
    // Four types and no `--txns`: the user must pick.
    c.rejects(&["explore", "banking.json"]);
    c.rejects(&with(&bank, &["--levels", "SI"]));
    c.rejects(&["explore", "banking.json", "--txns", "Nope,Withdraw_ch", "--levels", "SI,SI"]);
    c.rejects(&with(&bank, &["--seed", "emp.rate"]));
    c.rejects(&with(&bank, &["--seed", "x=y"]));
    c.rejects(&with(&pay, &["--levels", "RU,RU;RC,RC", "--faults", "Hours"]));
    c.rejects(&with(&pay, &["--levels", "RU,RU", "--faults", "Nobody"]));
    c.rejects(&with(&bank, &["--jobs"]));
    c.rejects(&with(&bank, &["--max-schedules", "-1"]));
    c.done();
}

#[test]
fn synth() {
    let mut c = Cli::new("synth");
    // Figures 2-5: the primary minimal vector projects to the paper's
    // per-type levels.
    let orders = c.row(&["synth", "orders.json"], 0, 0xbf1ff9cc596f4c5d);
    for want in [
        "Mailing_List: READ UNCOMMITTED",
        "Mailing_List_strict: READ COMMITTED",
        "New_Order: READ COMMITTED",
        "Delivery: REPEATABLE READ",
        "Audit: SERIALIZABLE",
    ] {
        assert!(orders.contains(want), "synth orders lacks `{want}`:\n{orders}");
    }
    let strict = c.row(&["synth", "orders-strict.json"], 0, 0x48794c7645b62770);
    assert!(strict.contains("New_Order_strict: READ COMMITTED+FCW"), "{strict}");
    c.row(&["synth", "payroll.json"], 0, 0xeecf885c254d725b);
    c.row(&["synth", "tpcc.json", "--no-witness"], 0, 0xdbde7ef78ff1399a);
    c.row(&["synth", "payroll.json", "--json"], 0, 0x5afdf599a26e0082);
    // The policy artifact is the same at one and at eight workers and on
    // a repeated run: the three files pin one constant.
    let policy = 0x06f0abc4f5b58fe6;
    c.row(
        &[
            "synth",
            "orders.json",
            "--jobs",
            "1",
            "--out",
            "policy.1.json",
            "--cert",
            "synth.cert.json",
        ],
        0,
        0xbf1ff9cc596f4c5d,
    );
    c.row(
        &["synth", "orders.json", "--jobs", "8", "--out", "policy.8.json"],
        0,
        0xbf1ff9cc596f4c5d,
    );
    c.row(
        &["synth", "orders.json", "--jobs", "1", "--out", "policy.1b.json"],
        0,
        0xbf1ff9cc596f4c5d,
    );
    let text = c.file("policy.1.json", policy);
    c.file("policy.8.json", policy);
    c.file("policy.1b.json", policy);
    assert!(text.contains("\"SSI\""), "the policy's minimal vectors include SSI");
    c.file("synth.cert.json", 0xa11dcba4dc9101a5);
    c.row(&["verify-cert", "synth.cert.json"], 0, 0xf72bcbc44641f5b3);
    // Banking's refutations are scalar: its certificate carries FM
    // countermodels that the independent checker re-evaluates.
    c.row(&["synth", "banking.json", "--cert", "banking.synth.json"], 0, 0x0dad3d7b9f027892);
    let verified = c.row(&["verify-cert", "banking.synth.json"], 0, 0x4f092145eb027498);
    assert!(verified.contains("certificate VERIFIED"), "{verified}");
    assert!(!verified.contains(" 0 synthesis countermodel"), "{verified}");
    c.rejects(&["synth", "banking.json", "--jobs", "x"]);
    c.rejects(&["synth", "banking.json", "--cert"]);
    c.done();
}

#[test]
fn serve() {
    let mut c = Cli::new("serve");
    c.row(&["synth", "banking.json", "--out", "banking.policy.json"], 0, 0x0dad3d7b9f027892);
    c.row(&["synth", "orders.json", "--out", "orders.policy.json"], 0, 0xbf1ff9cc596f4c5d);
    c.row(&["synth", "payroll.json", "--out", "payroll.policy.json"], 0, 0xeecf885c254d725b);
    let valid = c.row(&["serve", "--policy", "banking.policy.json"], 0, 0x22066aa0cf1aa2ef);
    assert!(valid.contains("admission policy verified"), "{valid}");
    c.row(&["serve", "--policy", "banking.policy.json", "--mix", "orders"], 0, 0x98822c697fc9f0fc);
    // A same-seed bench prints the same JSON, commits work and audits
    // clean.
    let bench = [
        "serve",
        "--bench",
        "--policy",
        "banking.policy.json",
        "--workers",
        "4",
        "--txns",
        "25",
        "--seed",
        "7",
        "--scale",
        "4",
    ];
    let json = [&bench[..], &["--json"]].concat();
    let first = c.row(&json, 0, 0x2c30a8ef0146d2c7);
    let again = c.row(&json, 0, 0x2c30a8ef0146d2c7);
    assert_eq!(first, again, "serve --bench --seed 7 is deterministic");
    assert!(!first.contains("\"committed\": 0,"), "the bench commits work:\n{first}");
    assert!(first.contains("\"invariant_violations\": 0,"), "{first}");
    assert!(first.contains("\"quiescent\": true"), "{first}");
    c.row(&bench, 0, 0x5496f461c28182fa);
    // Injected worker panics are contained: counted, and the engine ends
    // quiescent.
    let panics = c.row(&[&json[..], &["--inject-panics"]].concat(), 0, 0x702f7682d4698401);
    assert!(!panics.contains("\"panics\": 0,"), "the drill fires panics:\n{panics}");
    assert!(panics.contains("\"quiescent\": true"), "{panics}");
    c.row(&[&json[..], &["--single-lock"]].concat(), 0, 0x67604611171f407d);
    let patient = [&json[..], &["--lock-timeout-ms", "50", "--max-attempts", "4"]].concat();
    c.row(&patient, 0, 0xe8849588e0c00f28);
    let mixed = [
        "serve",
        "--policy",
        "banking.policy.json",
        "--policy",
        "orders.policy.json",
        "--policy",
        "payroll.policy.json",
    ];
    c.row(&mixed, 0, 0xc41afc2c6028d7d1);
    let load = ["--bench", "--mix", "mixed", "--workers", "2", "--txns", "20", "--json"];
    c.row(&[&mixed[..], &load].concat(), 0, 0x89e7d989ba2f32c9);
    let orders =
        ["serve", "--policy", "orders.policy.json", "--bench", "--mix", "orders", "--json"];
    c.row(&orders, 0, 0x3a37160e6c3b72d6);
    // A policy whose digest no longer matches is refused.
    let sealed = c.file("banking.policy.json", 0x849d872d9da71974);
    let at = sealed.find("fnv1a:").expect("a digest") + "fnv1a:".len();
    let flipped = if sealed.as_bytes()[at] == b'0' { "f" } else { "0" };
    let tampered = format!("{}{flipped}{}", &sealed[..at], &sealed[at + 1..]);
    std::fs::write(c.dir.join("tampered.policy.json"), tampered).expect("write");
    c.rejects(&["serve", "--policy", "tampered.policy.json"]);
    c.rejects(&["serve"]);
    c.rejects(&["serve", "--policy", "missing.json"]);
    c.rejects(&["serve", "--policy", "banking.policy.json", "--mix", "bogus"]);
    c.rejects(&["serve", "--policy", "banking.policy.json", "--workers", "many"]);
    c.rejects(&["serve", "--policy", "banking.policy.json", "extra"]);
    c.done();
}

#[test]
fn faultsim() {
    let mut c = Cli::new("faultsim");
    c.row(&["faultsim", "payroll.json", "--seed", "42", "--json"], 0, 0x3b8e5f4e439f9219);
    c.row(&["faultsim", "payroll.json", "--seed", "42"], 0, 0xd8ba58f7157b2b5e);
    c.row(&["faultsim", "banking.json", "--seed", "42", "--json"], 0, 0xd23f2e45561f5f1a);
    c.row(&["faultsim", "orders.json", "--seed", "42", "--json"], 0, 0x07b61572182e6923);
    let mix = ["--levels", "RC", "--mix", "fcw=0.1,abort-stmt=0.05"];
    c.row(
        &[&["faultsim", "payroll.json", "--seed", "42"][..], &mix].concat(),
        0,
        0xc7d315e2c3fa749a,
    );
    // A seed sweep prints the same report at one and at eight workers.
    let sweep = 0x911a5d91d8cd4f4a;
    c.row(&["faultsim", "banking.json", "--seeds", "4", "--jobs", "1", "--json"], 0, sweep);
    c.row(&["faultsim", "banking.json", "--seeds", "4", "--jobs", "8", "--json"], 0, sweep);
    c.row(&["faultsim", "banking.json", "--seeds", "4", "--jobs", "8"], 0, 0x0cecbe2c3f733bb1);
    c.row(&["faultsim", "orders.json", "--durable", "--json"], 0, 0xc76ed8e6ea832e80);
    c.row(&["faultsim", "orders.json", "--durable"], 0, 0x69f8b2d21cfd44b6);
    let ssi = ["--durable", "--wal-flush-every", "4", "--levels", "SSI", "--json"];
    c.row(&[&["faultsim", "payroll.json"][..], &ssi].concat(), 0, 0x240c9481207ed39c);
    let torn = [
        "faultsim",
        "payroll.json",
        "--txns",
        "30",
        "--lock-timeout-ms",
        "5",
        "--max-attempts",
        "3",
        "--mix",
        "torn-tail=1.0",
        "--durable",
        "--json",
    ];
    c.row(&torn, 0, 0x108584fbca4363a0);
    c.rejects(&["faultsim", "payroll.json", "--seeds", "0"]);
    c.rejects(&["faultsim", "payroll.json", "--wal-flush-every", "0"]);
    c.rejects(&["faultsim", "payroll.json", "--mix", "bogus=1"]);
    c.rejects(&["faultsim", "payroll.json", "--mix", "fcw"]);
    c.rejects(&["faultsim", "payroll.json", "--levels", "BOGUS"]);
    c.rejects(&["faultsim", "payroll.json", "--seed", "x"]);
    c.rejects(&["faultsim"]);
    c.done();
}

/// One grammar for every command: flags may come before the positional
/// arguments, an unknown flag or an extra argument is an error, and an
/// optional flag value never takes a missing positional argument. The
/// rows after the two setup rows failed when each command read its
/// arguments its own way, as did the loop's rows for `analyze`, `verify`,
/// `obligations` and `verify-cert` (which ignored what they did not
/// expect).
#[test]
fn one_grammar_for_every_command() {
    let mut c = Cli::new("grammar");
    c.row(&["synth", "banking.json", "--out", "banking.policy.json"], 0, 0x0dad3d7b9f027892);
    c.row(&["certify", "banking.json", "--out", "banking.cert.json"], 1, 0x50f6d1891cc3e8b1);
    // The same reports as with the flag after the app.
    c.row(&["analyze", "--ansi", "banking.json"], 1, 0xae9008262af9dc02);
    let explore = ["explore", "--faults", "payroll.json", "--txns", "Hours,Print_Records"];
    c.row(
        &[&explore[..], &["--levels", "RU,RU", "--seed", "emp.rate=10"]].concat(),
        1,
        0x0b9ff9d6623a7318,
    );
    c.rejects(&["verify", "banking.json", "--bogus"]);
    c.rejects(&["obligations", "tpcc.json", "extra", "args"]);
    for argv in [
        &["export", "banking", "x.json"][..],
        &["analyze", "banking.json"],
        &["check", "banking.json", "Withdraw_sav", "SNAPSHOT"],
        &["lint", "banking.json"],
        &["explore", "banking.json", "--txns", "Withdraw_sav,Withdraw_ch"],
        &["faultsim", "banking.json"],
        &["verify", "banking.json"],
        &["obligations", "banking.json"],
        &["certify", "banking.json"],
        &["verify-cert", "banking.cert.json"],
        &["synth", "banking.json"],
        &["serve", "--policy", "banking.policy.json"],
    ] {
        c.rejects(&[argv, &["--bogus"]].concat());
        c.rejects(&[argv, &["extra"]].concat());
    }
    c.done();
}
