//! The correctness gate, end to end: the benchmark binary must exit
//! non-zero and count a failed op when the system's answer differs from
//! `expected/`, and exit zero with `"correct":true` when it does not.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A copy of the package's `expected/` under a scratch root, with
/// `edit` applied to `policies.json`.
fn root_with(name: &str, edit: impl Fn(String) -> String) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let expected = root.join("expected");
    std::fs::create_dir_all(&expected).expect("scratch expected/");
    let source = Path::new(env!("CARGO_MANIFEST_DIR")).join("expected");
    for file in ["policies.json", "explore.json"] {
        let text = std::fs::read_to_string(source.join(file)).expect("committed expected file");
        let text = if file == "policies.json" { edit(text) } else { text };
        std::fs::write(expected.join(file), text).expect("write scratch expected file");
    }
    root
}

fn run(root: &Path, workload: &str) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_semcc-perf"))
        .args(["--quick", "--seed", "7", "--workload", workload, "--root"])
        .arg(root)
        .output()
        .expect("spawn the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line").to_string();
    (out.status.success(), last)
}

#[test]
fn untampered_expected_files_pass() {
    let root = root_with("gate-clean", |text| text);
    for workload in ["analyze_synth", "explore_dpor"] {
        let (ok, last) = run(&root, workload);
        assert!(ok, "{workload} failed: {last}");
        assert!(last.starts_with("{\"correct\":true,"), "{last}");
        assert!(last.contains("\"failed\":0,"), "{last}");
        assert!(root.join("out").join(format!("7-{workload}.json")).exists());
    }
}

#[test]
fn tampered_policy_digest_fails_the_run_and_counts_a_failed_op() {
    let root = root_with("gate-tampered", |text| {
        let digest = text.find("\"policy_digest\": \"fnv1a:").expect("a digest") + 24;
        let flipped = if &text[digest..digest + 1] == "0" { "1" } else { "0" };
        format!("{}{flipped}{}", &text[..digest], &text[digest + 1..])
    });
    let (ok, last) = run(&root, "analyze_synth");
    assert!(!ok, "a tampered expected digest must make the run exit non-zero");
    assert!(last.starts_with("{\"correct\":false,"), "{last}");
    assert!(!last.contains("\"failed\":0,"), "the mismatch counts as a failed op: {last}");
}
