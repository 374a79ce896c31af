//! The committed `results/table_*.txt` files are what the code prints.
//!
//! Nine of the bench binaries are deterministic down to the byte: verdicts,
//! obligation counts, prover-call and cache-hit columns, failure strings,
//! certificate and policy digests. Each is run here and its standard output
//! compared with the committed file, so a change to the analyzer that moves
//! any of them has to regenerate the table in the same commit (see
//! EXPERIMENTS.md). The tables with wall-clock or thread-timing columns
//! (`p1`, `p2`, `par`, `faults`, `recovery`, `serve`, `ssi`) stay out.

use std::process::Command;

fn assert_fresh(table: &str, bin: &str) {
    let committed = format!("{}/../../results/{table}.txt", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&committed).unwrap_or_else(|e| panic!("{committed}: {e}"));
    let out = Command::new(bin).output().unwrap_or_else(|e| panic!("{bin}: {e}"));
    assert!(out.status.success(), "{table} exited with {}", out.status);
    let got = String::from_utf8(out.stdout).expect("tables print UTF-8");
    if got == want {
        return;
    }
    let (got_lines, want_lines): (Vec<_>, Vec<_>) = (got.lines().collect(), want.lines().collect());
    let at = got_lines.iter().zip(&want_lines).take_while(|(g, w)| g == w).count();
    panic!(
        "results/{table}.txt is stale; first difference at line {}:\n  committed: {}\n  printed:   {}\n\
         regenerate with `cargo run -p semcc-bench --bin {table} > results/{table}.txt`",
        at + 1,
        want_lines.get(at).unwrap_or(&"<end of file>"),
        got_lines.get(at).unwrap_or(&"<end of output>"),
    );
}

macro_rules! fresh {
    ($($table:ident),*) => {$(
        #[test]
        fn $table() {
            assert_fresh(stringify!($table), env!(concat!("CARGO_BIN_EXE_", stringify!($table))));
        }
    )*};
}

fresh!(
    table_t1,
    table_t2,
    table_verdicts,
    table_lint,
    table_ablate,
    table_cert,
    table_synth,
    table_explore,
    table_refine
);
