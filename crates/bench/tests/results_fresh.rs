//! The committed `results/table_*.txt` files are what the code prints.
//!
//! Every table in `semcc_bench::REGISTRY` renders its seed-pure head at the
//! default options, in this process, and the head must equal the committed
//! file byte for byte: the whole file for a table without a timed tail,
//! its prefix for one with a tail. So a change that moves a verdict, an
//! obligation / prover-call / cache-hit count, a failure string, a digest
//! or a scripted anomaly outcome has to regenerate its table in the same
//! commit (see EXPERIMENTS.md), and a new table is gated as soon as it is
//! registered. The timed tails (wall-clock columns, concurrent runs) are
//! not compared.

use semcc_bench::{Opts, Table, REGISTRY};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn committed(table: &Table) -> String {
    let path = results_dir().join(format!("table_{}.txt", table.name));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// `None` if `head` is the committed file (or, for a table with a timed
/// tail, a prefix of it made of whole lines); otherwise what to print
/// about the first difference.
fn staleness(table: &Table, head: &str, want: &str) -> Option<String> {
    let fresh = match table.timed {
        Some(_) => head.ends_with('\n') && want.starts_with(head),
        None => head == want,
    };
    if fresh {
        return None;
    }
    let (got_lines, want_lines): (Vec<_>, Vec<_>) =
        (head.lines().collect(), want.lines().collect());
    let at = got_lines.iter().zip(&want_lines).take_while(|(g, w)| g == w).count();
    let name = table.name;
    Some(format!(
        "results/table_{name}.txt is stale; first difference at line {}:\n  committed: {}\n  \
         printed:   {}\nregenerate with `cargo run -p semcc-bench --release -- {name} > \
         results/table_{name}.txt`",
        at + 1,
        want_lines.get(at).unwrap_or(&"<end of file>"),
        got_lines.get(at).unwrap_or(&"<end of output>"),
    ))
}

#[test]
fn every_head_is_the_committed_file() {
    // One thread per table: the heads are independent, and the scripted
    // anomaly schedules spend most of their time waiting out lock timeouts.
    let stale: Vec<String> = std::thread::scope(|s| {
        let runs: Vec<_> = REGISTRY
            .iter()
            .map(|table| {
                s.spawn(move || {
                    let mut head = String::new();
                    (table.seed_pure)(&Opts::default(), &mut head);
                    staleness(table, &head, &committed(table))
                })
            })
            .collect();
        runs.into_iter().filter_map(|run| run.join().expect("a table head panicked")).collect()
    });
    assert!(stale.is_empty(), "{}", stale.join("\n\n"));
}

#[test]
fn every_results_file_has_a_registry_entry_and_every_entry_a_file() {
    let files: BTreeSet<String> = std::fs::read_dir(results_dir())
        .expect("results/")
        .map(|entry| entry.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    let tables: BTreeSet<String> =
        REGISTRY.iter().map(|t| format!("table_{}.txt", t.name)).collect();
    let names: BTreeSet<&str> = REGISTRY.iter().map(|t| t.name).collect();
    assert_eq!(names.len(), REGISTRY.len(), "registry names repeat");
    assert_eq!(files, tables, "results/ and the registry disagree");
}

#[test]
fn a_stale_head_is_reported_at_its_first_differing_line() {
    let table = Table { name: "demo", seed_pure: |_, _| {}, timed: None };
    assert_eq!(staleness(&table, "a\nb\n", "a\nb\n"), None);
    let report = staleness(&table, "a\nb\n", "a\nc\n").expect("stale");
    assert!(report.contains("line 2:\n  committed: c\n  printed:   b"), "{report}");
    let timed = Table { timed: Some(|_| {}), ..table };
    assert_eq!(staleness(&timed, "a\n", "a\nb\n"), None, "a head is a prefix");
    assert!(staleness(&timed, "", "a\n").is_some(), "an empty head gates nothing");
    assert!(staleness(&timed, "a\nx\n", "a\nb\n").is_some());
}
