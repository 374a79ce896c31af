//! Arguments, the workload table, and everything the benchmark prints or
//! writes: the human-readable metric table, the last-line result object,
//! the per-workload detail files and their merge.

use crate::analysis::{apps, expected_entry, prove};
use crate::clock::Pinned;
use crate::explorebench;
use crate::layers::{self, Budget, PER_LAYER};
use crate::run::{self, RunResult, Workload, END_TO_END};
use crate::trace::{Scope, Tracer};
use semcc_json::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// The seven workloads and why each exists (one line; the README has the
/// long form).
pub const WORKLOADS: [(&str, &str); 7] = [
    ("bank_point", "uniform keys over 4,096 accounts at the synthesized levels: per-submission path cost with no data contention"),
    ("bank_hot", "the same types and policy on 2 accounts: lock waits, deadlock detection, FCW losers and retry backoff do most of the work"),
    ("bank_mvcc", "the same types at SSI SSI SNAP SNAP: snapshot reads, version chains, SIREAD tracking; the lock table is nearly idle"),
    ("orders_scan", "the relational path: select/insert/update_where, predicate and row locks, scans of a table that grows with every New_Order"),
    ("bank_wal", "bank_point traffic through run_program with the write-ahead log on: isolates Wal::append on the commit path"),
    ("analyze_synth", "time to a proven policy over the five bundled apps: prover, SDG, refine, synth and cert do all the work, the engine none"),
    ("explore_dpor", "the DPOR explorer's stateless replay on Engine::reset over a fixed list of 62 cells: the engine is the hot loop, the analyzer idle"),
];

/// Usage text.
pub const USAGE: &str =
    "usage: run.sh [--workload W] [--seed N] [--seconds S] [--trace [0|1]] [--quick]
  --workload W   one of bank_point bank_hot bank_mvcc orders_scan bank_wal analyze_synth
                 explore_dpor; without it every workload runs, each in its own process
  --seed N       seed of every generated input (default 42)
  --seconds S    measured seconds per workload (default 10)
  --trace [0|1]  the traced run: per-layer metrics and the span file
  --quick        smoke test of the harness: one short repetition per workload";

/// Parsed command line.
pub struct Args {
    /// `--workload`.
    pub workload: Option<String>,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: f64,
    /// `--trace`.
    pub trace: bool,
    /// `--quick`.
    pub quick: bool,
    /// Measure the workload-independent layer suite in a traced run (the
    /// all-workloads parent asks only its first child to).
    pub layers: bool,
    /// The benchmark's own directory (`expected/`, `out/`).
    pub root: PathBuf,
    /// `rustc --version` and commit, for the host line.
    pub rustc: String,
    /// Commit the measured tree is at, when known.
    pub commit: String,
    /// Regenerate `expected/*.json` from the current tree.
    pub write_expected: bool,
}

impl Args {
    /// Parse the arguments after the program name.
    pub fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: 42,
            seconds: 10.0,
            trace: false,
            quick: false,
            layers: true,
            root: PathBuf::from(env!("CARGO_MANIFEST_DIR")),
            rustc: "unknown".into(),
            commit: "unknown".into(),
            write_expected: false,
        };
        let mut pending: Option<String> = None;
        while let Some(flag) = pending.take().or_else(|| it.next()) {
            let value = |it: &mut dyn Iterator<Item = String>| {
                it.next().ok_or(format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--workload" => {
                    let w = value(&mut it)?;
                    a.workload = (w != "all").then_some(w);
                }
                "--seed" => {
                    a.seed = value(&mut it)?.parse().map_err(|_| "bad --seed".to_string())?;
                }
                "--seconds" => {
                    a.seconds = value(&mut it)?.parse().map_err(|_| "bad --seconds".to_string())?;
                    if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                }
                "--trace" => match it.next() {
                    Some(v) if v == "0" => a.trace = false,
                    Some(v) if v == "1" => a.trace = true,
                    other => {
                        a.trace = true;
                        pending = other;
                    }
                },
                "--layers" => a.layers = value(&mut it)? == "1",
                "--quick" => a.quick = true,
                "--root" => a.root = PathBuf::from(value(&mut it)?),
                "--rustc" => a.rustc = value(&mut it)?,
                "--commit" => a.commit = value(&mut it)?,
                "--write-expected" => a.write_expected = true,
                other => return Err(format!("unexpected argument `{other}`")),
            }
        }
        Ok(a)
    }

    /// The command line of the child process running `workload`.
    pub fn child_args(&self, workload: &str, layers: bool) -> Vec<String> {
        let mut v: Vec<String> = [
            ("--workload", workload.to_string()),
            ("--seed", self.seed.to_string()),
            ("--seconds", self.seconds.to_string()),
            ("--trace", u8::from(self.trace).to_string()),
            ("--layers", u8::from(layers).to_string()),
            ("--root", self.root.display().to_string()),
            ("--rustc", self.rustc.clone()),
            ("--commit", self.commit.clone()),
        ]
        .into_iter()
        .flat_map(|(k, v)| [k.to_string(), v])
        .collect();
        if self.quick {
            v.push("--quick".into());
        }
        v
    }

    fn out_file(&self, workload: Option<&str>) -> PathBuf {
        let kind = if self.trace { "trace-" } else { "" };
        let name = match workload {
            Some(w) => format!("{kind}{}-{w}.json", self.seed),
            None => format!("{kind}{}.json", self.seed),
        };
        self.root.join("out").join(name)
    }
}

/// A JSON value with floating-point numbers (`semcc-json` is integer-only
/// by design). `Raw` embeds text that is already JSON.
pub enum J {
    /// A float, written with every digit it was measured with.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// An array.
    Arr(Vec<J>),
    /// An object, in insertion order.
    Obj(Vec<(String, J)>),
    /// Pre-rendered JSON.
    Raw(String),
}

impl J {
    fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, J)>) -> J {
        J::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Render compactly (one line unless a `Raw` part has newlines).
    pub fn render(&self, out: &mut String) {
        match self {
            J::Num(v) if v.is_finite() => write!(out, "{v}").expect("write to String"),
            J::Num(_) => out.push('0'),
            J::Str(s) => out.push_str(&Json::str(s.as_str()).to_compact()),
            J::Bool(b) => write!(out, "{b}").expect("write to String"),
            J::Raw(text) => out.push_str(text),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).render(out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }

    fn text(&self) -> String {
        let mut s = String::new();
        self.render(&mut s);
        s
    }
}

fn host(args: &Args) -> J {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    J::obj([
        ("nproc", J::Num(nproc as f64)),
        ("rustc", J::Str(args.rustc.clone())),
        ("commit", J::Str(args.commit.clone())),
    ])
}

fn metric_objects(
    values: &BTreeMap<&'static str, f64>,
    units: &[(&'static str, &'static str)],
) -> J {
    J::obj(units.iter().map(|(name, unit)| {
        let value =
            values.get(name).copied().unwrap_or_else(|| panic!("metric {name} not measured"));
        (*name, J::obj([("value", J::Num(value)), ("unit", J::Str(unit.to_string()))]))
    }))
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
fn print_result(correct: bool, attempted: u64, failed: u64, metrics: J) {
    let line = J::obj([
        ("correct", J::Bool(correct)),
        ("attempted", J::Raw(attempted.max(1).to_string())),
        ("failed", J::Raw(failed.to_string())),
        ("metrics", metrics),
    ]);
    println!("{}", line.text());
}

fn write_detail(args: &Args, workload: &str, detail: &J) {
    let path = args.out_file(Some(workload));
    std::fs::create_dir_all(path.parent().expect("out/ has a parent"))
        .and_then(|()| std::fs::write(&path, detail.text() + "\n"))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
}

fn why(workload: &str) -> &'static str {
    WORKLOADS.iter().find(|(n, _)| *n == workload).map_or("", |(_, w)| w)
}

fn print_failures(failures: &[String]) {
    for f in failures.iter().take(20) {
        println!("  FAILED: {f}");
    }
    if failures.len() > 20 {
        println!("  ... and {} more", failures.len() - 20);
    }
}

/// The untraced run of one workload: the end-to-end metrics. Returns
/// whether the run was correct (no failed op, every audit passed).
pub fn untraced(name: &str, w: &mut dyn Workload, args: &Args) -> bool {
    let clients = w.clients();
    let r: RunResult = run::run(w, args.seconds, args.quick);
    let correct = r.failed == 0;
    println!(
        "== {name}: {clients} client(s), seed {}, {} repetition(s), {:.2} s measured ==",
        args.seed, r.reps, r.measured_s
    );
    for (metric, unit) in END_TO_END {
        println!(
            "  {metric:<16} {:>14.4} {unit:<5} rep_spread {:>5.1} %  rep_iqr {:>5.1} %  (uncorrected {:.4})",
            r.metrics[metric],
            100.0 * r.rep_spread[metric],
            100.0 * r.rep_iqr[metric],
            r.raw[metric]
        );
    }
    println!("  {:<16} {:>14} count (of {} attempted_ops)", "failed_ops", r.failed, r.attempted);
    println!("  {:<16} {:>14.2} (percentile op_p99_us was read at)", "tail_pct", r.tail_pct);
    print_failures(&r.failures);

    let metrics = J::obj(END_TO_END.iter().map(|(m, unit)| {
        (
            *m,
            J::obj([
                ("value", J::Num(r.metrics[m])),
                ("unit", J::Str(unit.to_string())),
                ("rep_spread", J::Num(r.rep_spread[m])),
                ("rep_iqr", J::Num(r.rep_iqr[m])),
                ("uncorrected", J::Num(r.raw[m])),
            ]),
        )
    }));
    let detail = J::obj([
        ("workload", J::Str(name.into())),
        ("why", J::Str(why(name).into())),
        ("seed", J::Raw(args.seed.to_string())),
        ("seconds", J::Num(args.seconds)),
        ("quick", J::Bool(args.quick)),
        ("clients", J::Num(clients as f64)),
        ("host", host(args)),
        ("reps", J::Num(r.reps as f64)),
        ("measured_s", J::Num(r.measured_s)),
        ("attempted_ops", J::Raw(r.attempted.to_string())),
        ("failed_ops", J::Raw(r.failed.to_string())),
        ("correct", J::Bool(correct)),
        ("tail_pct", J::Num(r.tail_pct)),
        ("metrics", metrics),
        (
            "per_rep",
            J::obj(
                r.per_rep.iter().map(|(k, v)| (*k, J::Arr(v.iter().map(|x| J::Num(*x)).collect()))),
            ),
        ),
        ("counters", J::obj(r.counters.iter().map(|(k, v)| (*k, J::Num(*v))))),
        ("failures", J::Arr(r.failures.iter().map(|f| J::Str(f.clone())).collect())),
    ]);
    write_detail(args, name, &detail);
    print_result(correct, r.attempted, r.failed, metric_objects(&r.metrics, &END_TO_END));
    correct
}

fn span_table(tracer: &Tracer) -> J {
    let own = tracer.mean_self_ns_by_name();
    J::obj(tracer.mean_ns_by_name().into_iter().map(|(name, (mean, count))| {
        (
            name,
            J::obj([
                ("count", J::Raw(count.to_string())),
                ("mean_ns", J::Num(mean)),
                ("self_ns", J::Num(own[name])),
            ]),
        )
    }))
}

/// The span file's part for one tracer: per-name means, both counts, and
/// the spans of the first [`SPAN_FILE_OPS`] requests, under `prefix`ed keys.
fn span_section(prefix: &str, tracer: &Tracer) -> Vec<(String, J)> {
    let (span_json, written) = tracer.to_json(SPAN_FILE_OPS);
    vec![
        (format!("{prefix}span_means"), span_table(tracer)),
        (format!("{prefix}spans_recorded"), J::Raw(tracer.spans().len().to_string())),
        (format!("{prefix}spans_written"), J::Raw(written.to_string())),
        (format!("{prefix}spans"), J::Raw(span_json)),
    ]
}

/// Spans of the first this-many requests of each traced loop go to the
/// span file; the means are over all of them.
const SPAN_FILE_OPS: u32 = 1_000;

/// The traced run of one workload: one untraced and one traced repetition
/// (their throughput ratio is the tracing overhead), the span file, and
/// the per-layer table. Returns whether the run was correct.
pub fn traced(name: &str, w: &mut dyn Workload, args: &Args) -> bool {
    let clients = w.clients();
    let one_cpu = (clients == 1).then(Pinned::one_cpu);
    let plain = w.rep(false);
    let mut with_spans = w.rep(true);
    let spans = with_spans.measured.tracer.take().unwrap_or_default();
    let late = w.finish();
    // The layer suite below has two-client runs of its own.
    drop(one_cpu);
    let ops_per_s = |r: &run::Rep| r.ops as f64 / (r.measured.wall_ns as f64 / 1e9);
    let (untraced_rate, traced_rate) = (ops_per_s(&plain), ops_per_s(&with_spans));
    let overhead = traced_rate / untraced_rate;
    let result = run::aggregate(&[plain, with_spans], &[1.0, 1.0], clients, 0.0);
    let failed = result.failed + late.len() as u64;
    let failures: Vec<String> = result.failures.iter().cloned().chain(late).collect();

    println!("== {name} traced: {clients} client(s), seed {} ==", args.seed);
    println!(
        "  trace_overhead   {overhead:>14.4} ratio (traced {traced_rate:.1} / untraced {untraced_rate:.1} ops_per_s)"
    );
    let mut detail = vec![
        ("workload".to_string(), J::Str(name.into())),
        ("seed".to_string(), J::Raw(args.seed.to_string())),
        ("host".to_string(), host(args)),
        ("trace_overhead".to_string(), J::Num(overhead)),
        ("untraced_ops_per_s".to_string(), J::Num(untraced_rate)),
        ("traced_ops_per_s".to_string(), J::Num(traced_rate)),
        ("attempted_ops".to_string(), J::Raw(result.attempted.to_string())),
        ("failed_ops".to_string(), J::Raw(failed.to_string())),
        ("failures".to_string(), J::Arr(failures.iter().map(|f| J::Str(f.clone())).collect())),
    ];

    // How far per-op cost moves within the repetition (orders_scan's
    // table grows under it): the first and the last 1,000 requests.
    let roots: Vec<_> = spans.spans().iter().filter(|s| s.parent == 0).collect();
    let last_op = roots.iter().map(|s| s.op).max().unwrap_or(0);
    let mean_us = |keep: &dyn Fn(u32) -> bool| {
        let picked: Vec<f64> =
            roots.iter().filter(|s| keep(s.op)).map(|s| (s.end_ns - s.start_ns) as f64).collect();
        picked.iter().sum::<f64>() / picked.len().max(1) as f64 / 1e3
    };
    let (head, tail) =
        (mean_us(&|op| op < SPAN_FILE_OPS), mean_us(&|op| op + SPAN_FILE_OPS > last_op));
    println!("  mean op, first 1,000 requests {head:>10.3} us, last 1,000 {tail:>10.3} us");
    detail.push(("first_1000_ops_mean_us".into(), J::Num(head)));
    detail.push(("last_1000_ops_mean_us".into(), J::Num(tail)));
    detail.extend(span_section("", &spans));

    let mut metrics = BTreeMap::from([("trace.overhead_ratio", overhead)]);
    let mut units: &[(&str, &str)] = &[("trace.overhead_ratio", "ratio")];
    if args.layers {
        let (layer_metrics, layer_spans, (sum, submit)) =
            layers::measure(args.seed, &Budget::new(args.seconds, args.quick));
        metrics.extend(layer_metrics);
        units = &PER_LAYER;
        println!("  per-layer metrics:");
        for (metric, unit) in PER_LAYER {
            println!("    {metric:<36} {:>16.4} {unit}", metrics[metric]);
        }
        println!(
            "  ladder: self times + direct child spans = {sum:.1} ns, mean serve.submit span = {submit:.1} ns ({:+.1} %)",
            100.0 * (sum / submit - 1.0)
        );
        detail.push((
            "ladder_reconcile".into(),
            J::obj([("sum_ns", J::Num(sum)), ("serve_submit_ns", J::Num(submit))]),
        ));
        detail.extend(span_section("layer_", &layer_spans));
        detail.push(("per_layer".into(), metric_objects(&metrics, units)));
    }
    print_failures(&failures);
    write_detail(args, name, &J::Obj(detail));
    print_result(failed == 0, result.attempted, failed, metric_objects(&metrics, units));
    failed == 0
}

/// Merge the per-workload detail files of this seed into one file.
pub fn merge(args: &Args) {
    let mut workloads = Vec::new();
    for (name, _) in WORKLOADS {
        let path = args.out_file(Some(name));
        if let Ok(text) = std::fs::read_to_string(&path) {
            workloads.push((name.to_string(), J::Raw(text.trim_end().to_string())));
            let _ = std::fs::remove_file(&path);
        }
    }
    let merged = J::obj([
        ("seed", J::Raw(args.seed.to_string())),
        ("traced", J::Bool(args.trace)),
        ("quick", J::Bool(args.quick)),
        ("host", host(args)),
        ("workloads", J::Obj(workloads)),
    ]);
    let path = args.out_file(None);
    std::fs::write(&path, merged.text() + "\n")
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("wrote {}", path.display());
}

/// Regenerate `expected/policies.json` and `expected/explore.json` from
/// the tree as it is (after a change that is meant to move them).
pub fn write_expected(args: &Args) -> ExitCode {
    let mut policies = Vec::new();
    for (name, app) in apps() {
        match prove(&app, name, &mut Scope::off()) {
            Ok(proven) => policies.push((name.to_string(), expected_entry(&proven))),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let explorebench::Cells { apps, cells } = explorebench::cells();
    let mut explored = Vec::new();
    for cell in &cells {
        let r = semcc_explore::explore(&apps[cell.app].1, &cell.specs, &cell.opts)
            .unwrap_or_else(|e| panic!("{}: {e}", cell.key));
        explored.push((cell.key.clone(), explorebench::expected_entry(&r)));
    }
    let dir = args.root.join("expected");
    for (file, json) in
        [("policies.json", Json::Obj(policies)), ("explore.json", Json::Obj(explored))]
    {
        let path = dir.join(file);
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, json.to_pretty() + "\n"))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_names_every_workload_and_metric() {
        let manifest = include_str!("../../BENCHMARK.json");
        let names =
            WORKLOADS.iter().map(|w| w.0).chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0));
        let mut count = 0;
        for name in names {
            assert!(manifest.contains(&format!("\"name\": \"{name}\"")), "{name} missing");
            count += 1;
        }
        assert_eq!(manifest.matches("\"name\": ").count(), count, "BENCHMARK.json names more");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "unit of {name} differs from {unit}");
        }
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from)).expect("parses");
        assert!(parse("--trace").trace);
        assert!(parse("--trace 1 --seed 7").trace);
        assert!(!parse("--trace 0 --seed 7").trace);
        let a = parse("--trace --workload bank_hot --seconds 3");
        assert!(a.trace && a.workload.as_deref() == Some("bank_hot") && a.seconds == 3.0);
        assert!(parse("--workload all").workload.is_none());
        assert!(Args::parse(["--seconds".to_string(), "0".to_string()].into_iter()).is_err());
    }

    #[test]
    fn floats_render_with_all_their_digits_and_strings_escape() {
        let j = J::obj([
            ("v", J::Num(1.2034567891)),
            ("s", J::Str("a\"b".into())),
            ("n", J::Num(f64::NAN)),
        ]);
        assert_eq!(j.text(), r#"{"v":1.2034567891,"s":"a\"b","n":0}"#);
    }
}
