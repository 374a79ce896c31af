//! The reproduction's tables, one registry entry each, printed by the
//! `tables` binary:
//!
//! ```text
//! cargo run -p semcc-bench --release -- <name> [--quick] [--jobs N]
//! ```
//!
//! `cargo run -p semcc-bench -- <name> > results/table_<name>.txt`
//! regenerates a committed table; DESIGN.md's per-experiment index says
//! which table backs which claim. Every [`Table`] splits into a seed-pure
//! head, a pure function of its [`Opts`], and an optional timed tail
//! whose rows carry wall-clock columns or come from concurrent runs.
//! `tests/results_fresh.rs` renders every head at the default options and
//! compares it byte for byte with `results/table_<name>.txt`: the whole
//! file when there is no tail, its prefix when there is one. A table is
//! gated as soon as it is registered.

use semcc_engine::IsolationLevel;

/// `println!` into a table head: appends one formatted line to a `String`.
macro_rules! outln {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($fmt:tt)*) => {{
        $out.push_str(&format!($($fmt)*));
        $out.push('\n');
    }};
}

mod tables {
    pub mod ablate;
    pub mod cert;
    pub mod explore;
    pub mod faults;
    pub mod lint;
    pub mod p1;
    pub mod p2;
    pub mod recovery;
    pub mod refine;
    pub mod serve;
    pub mod ssi;
    pub mod synth;
    pub mod t1;
    pub mod t2;
    pub mod verdicts;
}
use tables::*;

/// The command-line options every table takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Opts {
    /// `--quick`: smaller sweeps and shorter runs.
    pub quick: bool,
    /// `--jobs N`: worker count for the explorer tables (default 1).
    pub jobs: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Opts { quick: false, jobs: 1 }
    }
}

impl Opts {
    /// Parse `[--quick] [--jobs N]` out of `args`; every other argument is
    /// returned, in order, as a positional one.
    pub fn parse(args: &[String]) -> Result<(Opts, Vec<String>), String> {
        let mut opts = Opts::default();
        let mut rest = Vec::new();
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--jobs" => {
                    let n = args.next().ok_or("--jobs needs a value")?;
                    opts.jobs = match n.parse() {
                        Ok(n) if n > 0 => n,
                        _ => return Err(format!("--jobs takes a positive integer, not `{n}`")),
                    };
                }
                flag if flag.starts_with("--") => return Err(format!("unknown option `{flag}`")),
                _ => rest.push(arg.clone()),
            }
        }
        Ok((opts, rest))
    }
}

/// One table of the reproduction.
pub struct Table {
    /// Registry key; the committed output is `results/table_<name>.txt`.
    pub name: &'static str,
    /// The seed-pure head: everything the table prints before its first
    /// wall-clock or thread-timing row.
    pub seed_pure: fn(&Opts, &mut String),
    /// The rest of the table, printed as it is measured.
    pub timed: Option<fn(&Opts)>,
}

/// Every table, in the order DESIGN.md's per-experiment index lists them.
pub const REGISTRY: &[Table] = &[
    Table { name: "t1", seed_pure: t1::head, timed: None },
    Table { name: "t2", seed_pure: t2::head, timed: None },
    Table { name: "verdicts", seed_pure: verdicts::head, timed: None },
    Table { name: "p1", seed_pure: p1::head, timed: Some(p1::timed) },
    Table { name: "p2", seed_pure: p2::head, timed: Some(p2::timed) },
    Table { name: "lint", seed_pure: lint::head, timed: None },
    Table { name: "ablate", seed_pure: ablate::head, timed: None },
    Table { name: "cert", seed_pure: cert::head, timed: None },
    Table { name: "synth", seed_pure: synth::head, timed: None },
    Table { name: "explore", seed_pure: explore::head, timed: None },
    Table { name: "refine", seed_pure: refine::head, timed: None },
    Table { name: "faults", seed_pure: faults::head, timed: Some(faults::timed) },
    Table { name: "recovery", seed_pure: recovery::head, timed: Some(recovery::timed) },
    Table { name: "ssi", seed_pure: ssi::head, timed: Some(ssi::timed) },
    Table { name: "serve", seed_pure: serve::head, timed: Some(serve::timed) },
];

/// Render one table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:<w$}  ", w = w));
    }
    out.trim_end().to_string()
}

/// Render a rule (separator) line for the given widths.
fn rule(widths: &[usize]) -> String {
    widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>().join("--")
}

/// A column-header row and the rule under it.
pub fn header(names: &[&str], widths: &[usize]) -> String {
    let cells: Vec<String> = names.iter().map(|n| n.to_string()).collect();
    format!("{}\n{}", row(&cells, widths), rule(widths))
}

/// A short tag for a level (for narrow tables).
pub fn short(level: IsolationLevel) -> &'static str {
    match level {
        IsolationLevel::ReadUncommitted => "RU",
        IsolationLevel::ReadCommitted => "RC",
        IsolationLevel::ReadCommittedFcw => "RC+FCW",
        IsolationLevel::RepeatableRead => "RR",
        IsolationLevel::Snapshot => "SNAP",
        IsolationLevel::Ssi => "SSI",
        IsolationLevel::Serializable => "SER",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_and_rule_align() {
        let widths = [5, 3];
        assert_eq!(row(&["ab".into(), "c".into()], &widths), "ab     c");
        assert_eq!(rule(&widths), "----------");
        assert_eq!(rule(&widths).len(), 5 + 2 + 3);
        assert_eq!(header(&["ab", "c"], &widths), "ab     c\n----------");
    }

    #[test]
    fn short_tags() {
        assert_eq!(short(IsolationLevel::Snapshot), "SNAP");
        assert_eq!(short(IsolationLevel::ReadCommittedFcw), "RC+FCW");
    }

    #[test]
    fn opts_parse_flags_anywhere() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let (opts, rest) = Opts::parse(&args("--jobs 4 refine --quick")).expect("parses");
        assert_eq!(opts, Opts { quick: true, jobs: 4 });
        assert_eq!(rest, vec!["refine".to_string()]);
        assert_eq!(Opts::parse(&[]).expect("parses"), (Opts::default(), Vec::new()));
        assert!(Opts::parse(&args("t1 --jobs")).is_err());
        assert!(Opts::parse(&args("t1 --jobs 0")).is_err());
        assert!(Opts::parse(&args("t1 --fast")).is_err());
    }
}
