//! `semcc` — the command-line face of the analyzer.
//!
//! Applications (annotated transaction programs + schemas + lemmas) are
//! serialized as JSON; the CLI runs the paper's Section 5 procedure, the
//! per-level theorem checks, the annotation outline validator, the static
//! anomaly linter, and the obligation cost accounting over them.
//!
//! ```text
//! semcc export banking bank.json       # write a bundled example app
//! semcc analyze bank.json              # lowest-level assignment table
//! semcc check bank.json Withdraw_sav SNAPSHOT
//! semcc lint bank.json                 # static anomaly prediction
//! semcc lint bank.json --levels SNAPSHOT,SNAPSHOT,RR,RR
//! semcc lint bank.json --witness       # replay refutation witnesses
//! semcc verify bank.json               # annotation outline validation
//! semcc obligations bank.json          # per-level obligation counts
//! semcc certify bank.json --out c.json # emit proof certificates
//! semcc verify-cert c.json             # independent certificate check
//! ```
//!
//! Every subcommand's grammar — its positional arguments and its flags —
//! is one entry of [`COMMANDS`]. One parser reads a command line against
//! that entry, and `semcc help` and every usage error print from it.
//!
//! Exit codes: `0` — everything provable / lints clean; `1` — diagnostics
//! emitted (a rejected level, a lint finding, an annotation error); `2` —
//! usage or I/O error.

use semcc_core::annotate::{check_app_annotations, Severity};
use semcc_core::assign::{ansi_ladder, assign_levels, default_ladder};
use semcc_core::counting::cost_table;
use semcc_core::theorems::check_at_level;
use semcc_core::{certify_app, lint, replay_witness, App, LintReport, Witness, WitnessOutcome};
use semcc_engine::{FaultMix, IsolationLevel};
use semcc_explore::{
    differential_batch, differential_refined_batch, differential_refined_with_jobs,
    differential_with_jobs, explore, explore_sweep, explore_with_aborts, specs_for, Differential,
    ExploreOptions, ExploreResult,
};
use semcc_json::{FromJson, Json, ToJson};
use semcc_par::ordered_map;
use semcc_workloads::{
    banking, orders, payroll, simulate, simulate_sweep, tpcc, FaultSimOptions, FaultSimReport,
};
use std::collections::BTreeMap;
use std::fmt::Display;
use std::num::{NonZeroU64, NonZeroUsize};
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;
use Takes::{Optional, Repeated, Required, Switch, Value};

/// What a successfully-run command concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Findings {
    /// Everything provable / no findings.
    Clean,
    /// Diagnostics were printed.
    Diagnostics,
}

type CmdResult = Result<Findings, String>;

/// `Clean` when nothing was found, else `Diagnostics`.
fn clean_if(clean: bool) -> CmdResult {
    Ok(if clean { Findings::Clean } else { Findings::Diagnostics })
}

/// What a flag takes; the string is the placeholder usage shows for the
/// value.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: the flag is a switch.
    Switch,
    /// The next token; given twice, the later one counts.
    Value(&'static str),
    /// The next token, once per occurrence; every one counts.
    Repeated(&'static str),
    /// As [`Takes::Repeated`], and the flag must be given.
    Required(&'static str),
    /// The next token, unless it is a flag or a positional argument is
    /// still missing; otherwise nothing.
    Optional(&'static str),
}

type Flag = (&'static str, Takes);

/// One subcommand: its grammar and the function that runs it.
struct Cmd {
    name: &'static str,
    /// Placeholders of the positional arguments, every one required.
    args: &'static [&'static str],
    flags: &'static [Flag],
    run: fn(&Args) -> CmdResult,
}

const APP: &[&str] = &["<app.json>"];
const JOBS: Flag = ("--jobs", Value("N"));
const JSON: Flag = ("--json", Switch);

/// Every subcommand, in the order `semcc help` lists them.
const COMMANDS: &[Cmd] = &[
    Cmd {
        name: "export",
        args: &["<banking|orders|orders-strict|payroll|tpcc>", "<out.json>"],
        flags: &[],
        run: cmd_export,
    },
    Cmd { name: "analyze", args: APP, flags: &[("--ansi", Switch)], run: cmd_analyze },
    Cmd {
        name: "check",
        args: &["<app.json>", "<transaction>", "<LEVEL>"],
        flags: &[],
        run: cmd_check,
    },
    Cmd {
        name: "lint",
        args: APP,
        flags: &[
            ("--levels", Value("L1,L2,...[;...]")),
            ("--refine", Switch),
            ("--witness", Switch),
            JOBS,
            JSON,
        ],
        run: cmd_lint,
    },
    Cmd {
        name: "explore",
        args: APP,
        flags: &[
            ("--txns", Value("T1,T2[,T3]")),
            ("--levels", Value("L1,L2[,L3][;...]")),
            ("--seed", Repeated("item=V|table.col=V")),
            ("--max-depth", Value("N")),
            ("--max-schedules", Value("N")),
            ("--faults", Optional("VICTIM")),
            ("--refine", Switch),
            ("--lock-timeout-ms", Value("N")),
            JOBS,
            JSON,
        ],
        run: cmd_explore,
    },
    Cmd {
        name: "faultsim",
        args: APP,
        flags: &[
            ("--seed", Value("N")),
            ("--seeds", Value("N")),
            JOBS,
            ("--txns", Value("N")),
            ("--levels", Value("L1[,L2,...]")),
            ("--mix", Value("CLASS=P,...")),
            ("--lock-timeout-ms", Value("N")),
            ("--max-attempts", Value("N")),
            ("--durable", Switch),
            ("--wal-flush-every", Value("N")),
            JSON,
        ],
        run: cmd_faultsim,
    },
    Cmd { name: "verify", args: APP, flags: &[], run: cmd_verify },
    Cmd { name: "obligations", args: APP, flags: &[], run: cmd_obligations },
    Cmd {
        name: "certify",
        args: APP,
        flags: &[("--refine", Switch), ("--out", Value("cert.json"))],
        run: cmd_certify,
    },
    Cmd { name: "verify-cert", args: &["<cert.json>"], flags: &[], run: cmd_verify_cert },
    Cmd {
        name: "synth",
        args: APP,
        flags: &[
            ("--out", Value("policy.json")),
            ("--cert", Value("cert.json")),
            ("--no-witness", Switch),
            JOBS,
            JSON,
        ],
        run: cmd_synth,
    },
    Cmd {
        name: "serve",
        args: &[],
        flags: &[
            ("--policy", Required("policy.json")),
            ("--bench", Switch),
            ("--mix", Value("banking|orders|payroll|mixed")),
            ("--workers", Value("N")),
            ("--txns", Value("N")),
            ("--seed", Value("N")),
            ("--scale", Value("N")),
            ("--lock-timeout-ms", Value("N")),
            ("--max-attempts", Value("N")),
            ("--single-lock", Switch),
            ("--inject-panics", Switch),
            JSON,
        ],
        run: cmd_serve,
    },
];

const HELP_NOTES: &str = "\
LEVELs: \"READ UNCOMMITTED\", \"READ COMMITTED\", \"READ COMMITTED+FCW\",
        \"REPEATABLE READ\", \"SNAPSHOT\", \"SSI\", \"SERIALIZABLE\"
        (lint --levels also accepts RU, RC, RCFCW, RR, SI, SSI, SER,
         one per transaction type in program order; `;` separates
         level vectors in a sweep, deduplicating diagnostics)

--refine runs the prover-backed SDG edge-refinement pass (semcc-refine):
  lint/explore use the pruned dependence relation plus the static
  deadlock predictor; certify attaches replayable pruning proofs.

exit codes: 0 clean, 1 diagnostics emitted, 2 usage/IO error
";

/// How usage shows a flag.
fn flag_usage((name, takes): &Flag) -> String {
    match takes {
        Switch => format!("[{name}]"),
        Value(v) => format!("[{name} {v}]"),
        Repeated(v) => format!("[{name} {v}]..."),
        Required(v) => format!("{name} {v} [{name} {v}]..."),
        Optional(v) => format!("[{name} [{v}]]"),
    }
}

impl Cmd {
    /// Read the tokens after the subcommand's name. Flags and positional
    /// arguments come in any order; a token starting with `--` is a flag,
    /// except where a flag takes it as its value.
    fn parse(&'static self, argv: &[String]) -> Result<Args, String> {
        let mut args = Args { cmd: self, positional: Vec::new(), flags: Vec::new() };
        let mut tokens = argv.iter().peekable();
        while let Some(token) = tokens.next() {
            if !token.starts_with("--") {
                args.positional.push(token.clone());
                continue;
            }
            let Some(&(name, takes)) = self.flags.iter().find(|(name, _)| name == token) else {
                return Err(self.usage_error(format!("unexpected argument `{token}`")));
            };
            let value = match takes {
                Switch => None,
                Optional(_) => {
                    let complete = args.positional.len() == self.args.len();
                    tokens.next_if(|t| complete && !t.starts_with("--")).cloned()
                }
                Value(v) | Repeated(v) | Required(v) => Some(
                    tokens
                        .next()
                        .cloned()
                        .ok_or_else(|| self.usage_error(format!("{name} needs a value ({v})")))?,
                ),
            };
            args.flags.push((name, value));
        }
        if args.positional.len() != self.args.len() {
            return Err(self.usage_error(format!(
                "`{}` takes {} positional argument(s), got {}",
                self.name,
                self.args.len(),
                args.positional.len()
            )));
        }
        match self.flags.iter().find(|(name, t)| matches!(t, Required(_)) && !args.has(name)) {
            Some((name, _)) => Err(self.usage_error(format!("{name} is required"))),
            None => Ok(args),
        }
    }

    fn usage_error(&self, msg: impl Display) -> String {
        format!("{msg}\n{}", self.synopsis("usage: "))
    }

    /// `<lead>semcc <name> <args> <flags>`, wrapped at 80 columns with
    /// continuation lines indented under the first argument.
    fn synopsis(&self, lead: &str) -> String {
        let mut out = format!("{lead}semcc {}", self.name);
        let indent = " ".repeat(out.len());
        let mut width = out.len();
        for word in self.args.iter().map(|a| a.to_string()).chain(self.flags.iter().map(flag_usage))
        {
            if width + 1 + word.len() > 80 {
                out.push('\n');
                out.push_str(&indent);
                width = indent.len();
            }
            out.push(' ');
            out.push_str(&word);
            width += 1 + word.len();
        }
        out
    }
}

/// The text of `semcc help`: every command's synopsis, then notes.
fn help() -> String {
    let synopses: Vec<String> = COMMANDS.iter().map(|c| c.synopsis("  ")).collect();
    format!(
        "semcc — semantic conditions for correctness at different isolation levels\n\n\
         USAGE:\n{}\n\n{HELP_NOTES}",
        synopses.join("\n")
    )
}

/// A command line read against one command's grammar.
struct Args {
    cmd: &'static Cmd,
    positional: Vec<String>,
    /// Every flag given, in order, with the value it took.
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// The `i`-th positional argument (the parser checked the count).
    fn pos(&self, i: usize) -> &str {
        &self.positional[i]
    }

    /// What each occurrence of `flag` took, in order.
    fn given(&self, flag: &'static str) -> impl Iterator<Item = Option<&str>> {
        debug_assert!(
            self.cmd.flags.iter().any(|(name, _)| *name == flag),
            "`{flag}` is not a flag of `{}`",
            self.cmd.name
        );
        self.flags.iter().filter(move |(name, _)| *name == flag).map(|(_, v)| v.as_deref())
    }

    fn has(&self, flag: &'static str) -> bool {
        self.given(flag).next().is_some()
    }

    /// Every value `flag` took, in order.
    fn values(&self, flag: &'static str) -> impl Iterator<Item = &str> {
        self.given(flag).flatten()
    }

    /// The value `flag` took; the later one if it was given twice.
    fn value(&self, flag: &'static str) -> Option<&str> {
        self.values(flag).last()
    }

    /// An optional-value flag: `None` when absent, else the value it took,
    /// if any.
    fn optional(&self, flag: &'static str) -> Option<Option<&str>> {
        self.given(flag).last()
    }

    /// Every value `flag` took, each through `parse`.
    fn all<'a, T, E: Display>(
        &'a self,
        flag: &'static str,
        parse: impl Fn(&'a str) -> Result<T, E>,
    ) -> Result<Vec<T>, String> {
        self.values(flag)
            .map(|v| parse(v).map_err(|e| self.cmd.usage_error(format!("bad {flag} `{v}`: {e}"))))
            .collect()
    }

    /// The value `flag` took through `parse` (the later one if given
    /// twice; each must parse).
    fn get<'a, T, E: Display>(
        &'a self,
        flag: &'static str,
        parse: impl Fn(&'a str) -> Result<T, E>,
    ) -> Result<Option<T>, String> {
        Ok(self.all(flag, parse)?.pop())
    }

    /// [`Args::get`] through [`FromStr`].
    fn num<T: FromStr>(&self, flag: &'static str) -> Result<Option<T>, String>
    where
        T::Err: Display,
    {
        self.get(flag, str::parse)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(Findings::Clean) => ExitCode::SUCCESS,
        Ok(Findings::Diagnostics) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Run one command line: a subcommand's name, then its arguments.
fn run(argv: &[String]) -> CmdResult {
    let Some((name, rest)) = argv.split_first().filter(|(name, _)| name.as_str() != "help") else {
        print!("{}", help());
        return Ok(Findings::Clean);
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command `{name}` (try `semcc help`)"))?;
    (cmd.run)(&cmd.parse(rest)?)
}

/// Read and decode a JSON file: an app or a certificate.
fn load<T: FromJson>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    semcc_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

/// The name certificates and policies give an app: its file's stem.
fn app_name(path: &str) -> String {
    std::path::Path::new(path).file_stem().and_then(|s| s.to_str()).unwrap_or("app").to_string()
}

fn cmd_export(args: &Args) -> CmdResult {
    let (which, out) = (args.pos(0), args.pos(1));
    let app = match which {
        "banking" => banking::app(),
        "orders" => orders::app(false),
        "orders-strict" => orders::app(true),
        "payroll" => payroll::app(),
        "tpcc" => tpcc::app(),
        other => return Err(format!("unknown workload `{other}`")),
    };
    let json = semcc_json::to_string_pretty(&app);
    std::fs::write(out, json).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {which} application ({} transaction types) to {out}", app.programs.len());
    Ok(Findings::Clean)
}

fn cmd_analyze(args: &Args) -> CmdResult {
    let app: App = load(args.pos(0))?;
    let ladder = if args.has("--ansi") { ansi_ladder() } else { default_ladder() };
    println!("{:<24}  {:<20}  {:<12}", "transaction", "lowest level", "snapshot ok");
    println!("{}", "-".repeat(60));
    let mut findings = Findings::Clean;
    for a in assign_levels(&app, &ladder) {
        println!(
            "{:<24}  {:<20}  {:<12}",
            a.txn,
            a.level.to_string(),
            if a.snapshot_ok { "yes" } else { "NO" }
        );
        if let Some(rejected) = a.reports.iter().find(|r| !r.ok) {
            if let Some(reason) = rejected.failures.first() {
                println!("    {} rejected: {}", rejected.level, reason);
            }
        }
        if !a.snapshot_ok {
            findings = Findings::Diagnostics;
        }
    }
    if findings == Findings::Diagnostics {
        println!();
        println!("warning: some types are unsafe under SNAPSHOT (run `semcc lint` for details)");
    }
    Ok(findings)
}

fn cmd_check(args: &Args) -> CmdResult {
    let (txn, level_name) = (args.pos(1), args.pos(2));
    let app: App = load(args.pos(0))?;
    let level: IsolationLevel = level_name.parse()?;
    if app.program(txn).is_none() {
        return Err(format!(
            "no transaction `{txn}` (have: {})",
            app.programs.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(", ")
        ));
    }
    let r = check_at_level(&app, txn, level);
    println!(
        "{txn} @ {level}: {} ({} obligations, {} prover calls)",
        if r.ok { "semantically correct" } else { "REJECTED" },
        r.obligations,
        r.prover_calls
    );
    for f in &r.failures {
        println!("  {f}");
    }
    clean_if(r.ok)
}

/// Parse one `--levels` vector (`L1,L2,...`, one level per program) into
/// a level map plus a short display label like `RU,RC,SER`.
fn parse_level_vector(
    app: &App,
    group: &str,
) -> Result<(BTreeMap<String, IsolationLevel>, String), String> {
    let tokens: Vec<&str> = group.split(',').map(str::trim).collect();
    if tokens.len() != app.programs.len() {
        return Err(format!(
            "--levels got {} level(s) for {} transaction type(s) ({})",
            tokens.len(),
            app.programs.len(),
            app.programs.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(", ")
        ));
    }
    let mut m = BTreeMap::new();
    let mut label = Vec::new();
    for (p, t) in app.programs.iter().zip(tokens) {
        let l: IsolationLevel = t.parse()?;
        m.insert(p.name.clone(), l);
        label.push(l.code());
    }
    Ok((m, label.join(",")))
}

fn cmd_lint(args: &Args) -> CmdResult {
    let levels_arg = args.value("--levels");
    let (json_out, witness, refine) =
        (args.has("--json"), args.has("--witness"), args.has("--refine"));
    let jobs = args.num("--jobs")?.unwrap_or(1);
    let app: App = load(args.pos(0))?;
    // `--levels A;B;...` is a sweep: each `;` group is one full vector,
    // linted independently, with repeated diagnostics deduplicated.
    if let Some(list) = levels_arg {
        if list.contains(';') {
            if witness {
                return Err("--witness cannot be combined with a `;` level-vector sweep".into());
            }
            let vectors: Vec<(BTreeMap<String, IsolationLevel>, String)> = list
                .split(';')
                .map(|group| parse_level_vector(&app, group))
                .collect::<Result<_, _>>()?;
            return lint_level_sweep(&app, &vectors, refine, json_out);
        }
    }
    let levels: Option<BTreeMap<String, IsolationLevel>> = match levels_arg {
        None => None,
        Some(list) => Some(parse_level_vector(&app, list)?.0),
    };
    let mut report = lint(&app, levels.as_ref());
    // SEMCC-W006 deadlock advisories are static and cheap: predict them
    // at the linted level vector unconditionally (the admission-policy
    // artifact embeds the same advisories, so `lint --json` must expose
    // them without requiring the refinement pass).
    let level_map: BTreeMap<String, IsolationLevel> = report.levels.iter().cloned().collect();
    let advisories = semcc_refine::predict_deadlocks(&app, &level_map);
    let refinement = if refine {
        let base = semcc_core::DepGraph::build(&app);
        let refined = semcc_refine::refine(&app, &base);
        // The provenance edges reported downstream are the refined ones.
        report.edges = refined.graph.edges.clone();
        Some(refined)
    } else {
        None
    };
    // The prover pass above stays single-threaded (its fresh-name stream
    // shows up in rendered diagnostics); only the engine-level witness
    // replays fan out, one per diagnostic, merged back in diagnostic order.
    let witnesses = if witness {
        Some(ordered_map(jobs, &report.diagnostics, |_, d| replay_witness(&app, &report, d)))
    } else {
        None
    };
    if json_out {
        let mut json = lint_report_json(&report);
        if let Json::Obj(fields) = &mut json {
            fields.push(("deadlocks".to_string(), advisories.to_json()));
        }
        if let (Some(ws), Json::Obj(fields)) = (&witnesses, &mut json) {
            fields.push(("witnesses".to_string(), witnesses_json(ws)));
        }
        if let (Some(refined), Json::Obj(fields)) = (&refinement, &mut json) {
            fields.push(("refine".to_string(), refine_json(refined, &advisories)));
        }
        println!("{}", json.to_pretty());
    } else {
        print_lint_report(&report);
        if let Some(ws) = &witnesses {
            print_witnesses(ws);
        }
        if let Some(refined) = &refinement {
            print_refinement(refined, &advisories);
        }
    }
    clean_if(report.clean())
}

/// `lint --levels A;B;...`: lint each vector, report each distinct
/// diagnostic once — keyed by (code, transaction, partner, statements) —
/// with the list of level vectors it fires at. Repeats across a sweep are
/// the common case (a W001 at RU usually persists at RC), so the deduped
/// view is the readable one; the exit code still reflects *any* finding.
fn lint_level_sweep(
    app: &App,
    vectors: &[(BTreeMap<String, IsolationLevel>, String)],
    refine: bool,
    json_out: bool,
) -> CmdResult {
    // (code, txn, partner, statements) → (first diagnostic, vector labels)
    type Key = (String, String, Option<String>, Vec<String>);
    let mut seen: Vec<(Key, semcc_core::Diagnostic, Vec<String>)> = Vec::new();
    let mut any = false;
    for (levels, label) in vectors {
        let report = lint(app, Some(levels));
        any |= !report.clean();
        for d in report.diagnostics {
            let key: Key = (d.code.clone(), d.txn.clone(), d.partner.clone(), d.statements.clone());
            match seen.iter_mut().find(|(k, _, _)| *k == key) {
                Some((_, _, labels)) => labels.push(label.clone()),
                None => seen.push((key, d, vec![label.clone()])),
            }
        }
    }
    // Deadlock advisories dedupe the same way, keyed by the participant
    // pair and the chain (the chain embeds the lock scopes and modes).
    let mut advisories: Vec<(semcc_refine::DeadlockAdvisory, Vec<String>)> = Vec::new();
    if refine {
        for (levels, label) in vectors {
            for a in semcc_refine::predict_deadlocks(app, levels) {
                match advisories
                    .iter_mut()
                    .find(|(x, _)| x.a == a.a && x.b == a.b && x.chain == a.chain)
                {
                    Some((_, labels)) => labels.push(label.clone()),
                    None => advisories.push((a, vec![label.clone()])),
                }
            }
        }
    }
    if json_out {
        let diags = Json::Arr(
            seen.iter()
                .map(|(_, d, labels)| {
                    Json::obj([
                        ("code", Json::str(d.code.clone())),
                        ("kind", Json::str(d.kind.to_string())),
                        ("txn", Json::str(d.txn.clone())),
                        ("partner", d.partner.to_json()),
                        ("statements", d.statements.to_json()),
                        ("message", Json::str(d.message.clone())),
                        ("levels", labels.to_json()),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            ("sweep", Json::Arr(vectors.iter().map(|(_, l)| l.to_json()).collect())),
            ("diagnostics", diags),
            ("clean", Json::Bool(!any)),
        ];
        if refine {
            let deadlocks = advisories.iter().map(|(a, labels)| {
                let mut j = a.to_json();
                if let Json::Obj(f) = &mut j {
                    f.push(("levels".to_string(), labels.to_json()));
                }
                j
            });
            fields.push(("deadlocks", Json::Arr(deadlocks.collect())));
        }
        println!("{}", Json::obj(fields).to_pretty());
    } else {
        println!(
            "lint sweep over {} level vector(s): {}",
            vectors.len(),
            vectors.iter().map(|(_, l)| l.as_str()).collect::<Vec<_>>().join("; ")
        );
        println!();
        if seen.is_empty() {
            println!("no diagnostics at any vector: the application lints clean everywhere");
        } else {
            for (_, d, labels) in &seen {
                println!("{}", d.render());
                println!("    at levels: {}", labels.join("; "));
            }
            println!();
            println!("{} distinct diagnostic(s) across {} vector(s)", seen.len(), vectors.len());
        }
        for (i, (a, labels)) in advisories.iter().enumerate() {
            if i == 0 {
                println!();
            }
            println!("{}", a.render());
            println!("    at levels: {}", labels.join("; "));
        }
        if !advisories.is_empty() {
            println!("(deadlock advisories are informational and do not affect the verdict)");
        }
    }
    clean_if(!any)
}

fn print_refinement(
    refined: &semcc_refine::RefineReport,
    advisories: &[semcc_refine::DeadlockAdvisory],
) {
    println!();
    println!(
        "refinement: {} edge constituent(s) pruned ({} -> {} edges), \
         each with a replayable feasibility certificate",
        refined.prunes.len(),
        refined.base_edges,
        refined.refined_edges
    );
    for p in &refined.prunes {
        println!(
            "  PRUNED {} -{}-> {} on `{}` ({}; {} obligation(s) refuted)",
            p.from,
            p.kind,
            p.to,
            p.table,
            p.rule,
            p.obligations.len()
        );
    }
    for a in advisories {
        println!("{}", a.render());
    }
    if !advisories.is_empty() {
        println!("(deadlock advisories are informational and do not affect the verdict)");
    }
}

fn refine_json(
    refined: &semcc_refine::RefineReport,
    advisories: &[semcc_refine::DeadlockAdvisory],
) -> Json {
    Json::obj([
        ("base_edges", Json::Int(refined.base_edges as i64)),
        ("refined_edges", Json::Int(refined.refined_edges as i64)),
        (
            "prunes",
            Json::Arr(
                refined
                    .prunes
                    .iter()
                    .map(|p| {
                        Json::obj([
                            ("from", Json::str(p.from.clone())),
                            ("to", Json::str(p.to.clone())),
                            ("kind", Json::str(p.kind.clone())),
                            ("table", Json::str(p.table.clone())),
                            ("rule", Json::str(p.rule.clone())),
                            ("premises", p.premises.to_json()),
                            ("obligations", Json::Int(p.obligations.len() as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("deadlocks", advisories.to_json()),
    ])
}

/// `item=V` or `table.col=V`, as explore's `--seed` takes it.
fn seed_spec(spec: &str) -> Result<(&str, i64), String> {
    let (target, value) = spec.split_once('=').ok_or("need `=`")?;
    Ok((target, value.parse().map_err(|_| format!("bad value `{value}`"))?))
}

fn cmd_explore(args: &Args) -> CmdResult {
    let d = ExploreOptions::default();
    let mut opts = ExploreOptions {
        max_depth: args.num("--max-depth")?.or(d.max_depth),
        max_schedules: args.num("--max-schedules")?.unwrap_or(d.max_schedules),
        lock_timeout: args.num("--lock-timeout-ms")?.map_or(d.lock_timeout, Duration::from_millis),
        jobs: args.num("--jobs")?.unwrap_or(d.jobs),
        refine: args.has("--refine"),
        ..d
    };
    for (target, value) in args.all("--seed", seed_spec)? {
        match target.split_once('.') {
            Some((table, col)) => opts.seed_cols.push((table.to_string(), col.to_string(), value)),
            None => opts.seed_items.push((target.to_string(), value)),
        }
    }
    let json_out = args.has("--json");
    // The victim is a transaction name or instance index; by default the
    // first instance.
    let faults_victim = args.optional("--faults").map(|v| v.unwrap_or("0"));
    let app: App = load(args.pos(0))?;

    let names: Vec<String> = match args.value("--txns") {
        Some(list) => list.split(',').map(|s| s.trim().to_string()).collect(),
        None => {
            if !(2..=3).contains(&app.programs.len()) {
                return Err(format!(
                    "the application has {} transaction types; pick 2–3 with --txns (have: {})",
                    app.programs.len(),
                    app.programs.iter().map(|p| p.name.as_str()).collect::<Vec<_>>().join(", ")
                ));
            }
            app.programs.iter().map(|p| p.name.clone()).collect()
        }
    };
    // `--levels` takes one vector per `;`-separated group: a single vector
    // is a plain exploration, several are a sweep fanned out over --jobs.
    let level_vectors: Vec<Vec<IsolationLevel>> = match args.value("--levels") {
        Some(list) => list
            .split(';')
            .map(|group| {
                let tokens: Vec<&str> = group.split(',').map(str::trim).collect();
                if tokens.len() != names.len() {
                    return Err(format!(
                        "--levels got {} level(s) for {} transaction instance(s)",
                        tokens.len(),
                        names.len()
                    ));
                }
                tokens.into_iter().map(str::parse).collect()
            })
            .collect::<Result<_, _>>()?,
        None => {
            // Default to the Section 5 assignment: explore each type at the
            // lowest level the analyzer claims is safe for it.
            let assigned = lint(&app, None).levels;
            vec![names
                .iter()
                .map(|n| {
                    assigned
                        .iter()
                        .find(|(t, _)| t == n)
                        .map(|(_, l)| *l)
                        .ok_or_else(|| format!("no transaction `{n}`"))
                })
                .collect::<Result<_, _>>()?]
        }
    };
    if level_vectors.len() > 1 {
        if faults_victim.is_some() {
            return Err("--faults cannot be combined with a `;` level-vector sweep".into());
        }
        return explore_level_sweep(&app, &names, &level_vectors, &opts, json_out);
    }
    let levels = level_vectors.into_iter().next().expect("one vector");
    let specs = specs_for(&app, &names, &levels)?;

    if let Some(victim_arg) = faults_victim {
        // Fault mode: sweep an injected abort over every statement
        // position of the victim instead of one plain exploration. The
        // explorer ignores --refine here (an injected abort voids the
        // whole-program prune proofs), and the differential stays on the
        // base static side for the same reason.
        let victim = match victim_arg.parse::<usize>() {
            Ok(i) => i,
            Err(_) => names
                .iter()
                .position(|n| n == victim_arg)
                .ok_or_else(|| format!("--faults: no transaction instance `{victim_arg}`"))?,
        };
        let cases = explore_with_aborts(&app, &specs, &opts, victim)?;
        let divergent_total: u64 = cases.iter().map(|c| c.result.divergent).sum();
        let cells: Vec<_> = cases.iter().map(|c| (specs.clone(), c.result.clone())).collect();
        let diffs = differential_batch(&app, &cells, opts.jobs);
        if json_out {
            let arr = cases
                .iter()
                .zip(&diffs)
                .map(|(c, d)| {
                    Json::obj([
                        ("abort_after", Json::Int(c.k as i64)),
                        ("explore", explore_json(&c.result, d, false)),
                    ])
                })
                .collect();
            println!(
                "{}",
                Json::obj([
                    ("victim", Json::str(names[victim].clone())),
                    ("cases", Json::Arr(arr)),
                    ("divergent_total", Json::Int(divergent_total as i64)),
                ])
                .to_pretty()
            );
        } else {
            println!(
                "fault mode: injected abort of `{}` at every statement position",
                names[victim]
            );
            for (c, d) in cases.iter().zip(&diffs) {
                println!();
                println!("== abort after statement {} ==", c.k);
                print_explore(&c.result, d, false);
            }
            println!();
            if divergent_total == 0 {
                println!(
                    "no injected abort position changes committed observers at this level vector"
                );
            } else {
                println!(
                    "{divergent_total} divergent schedule(s): a peer observed state the rollback erased"
                );
            }
        }
        return clean_if(divergent_total == 0);
    }

    let result = explore(&app, &specs, &opts)?;
    let diff = if opts.refine {
        differential_refined_with_jobs(&app, &specs, &result, opts.jobs)
    } else {
        differential_with_jobs(&app, &specs, &result, opts.jobs)
    };

    if json_out {
        println!("{}", explore_json(&result, &diff, opts.refine).to_pretty());
    } else {
        print_explore(&result, &diff, opts.refine);
    }
    clean_if(result.divergent == 0 && diff.sound())
}

/// `explore --levels A;B;...`: the outer level-vector sweep, explored and
/// differentially checked in parallel (`--jobs`), reported in vector
/// order.
fn explore_level_sweep(
    app: &App,
    names: &[String],
    vectors: &[Vec<IsolationLevel>],
    opts: &ExploreOptions,
    json_out: bool,
) -> CmdResult {
    let cells = explore_sweep(app, names, vectors, opts)?;
    let diffs = if opts.refine {
        differential_refined_batch(app, &cells, opts.jobs)
    } else {
        differential_batch(app, &cells, opts.jobs)
    };
    let mut findings = Findings::Clean;
    for ((_, r), d) in cells.iter().zip(&diffs) {
        if r.divergent > 0 || !d.sound() {
            findings = Findings::Diagnostics;
        }
    }
    if json_out {
        let arr =
            cells.iter().zip(&diffs).map(|((_, r), d)| explore_json(r, d, opts.refine)).collect();
        println!("{}", Json::obj([("sweep", Json::Arr(arr))]).to_pretty());
    } else {
        for (i, ((_, r), d)) in cells.iter().zip(&diffs).enumerate() {
            if i > 0 {
                println!();
            }
            let vec_str: Vec<String> = vectors[i].iter().map(ToString::to_string).collect();
            println!("== levels {} ==", vec_str.join(","));
            print_explore(r, d, opts.refine);
        }
    }
    Ok(findings)
}

/// `CLASS=P,...`, as faultsim's `--mix` takes it.
fn fault_mix(list: &str) -> Result<FaultMix, String> {
    let mut mix = FaultMix::default();
    for tok in list.split(',') {
        let (name, p) = tok.split_once('=').ok_or_else(|| format!("entry `{tok}` needs `=`"))?;
        let p: f64 = p.parse().map_err(|_| format!("bad rate in `{tok}`"))?;
        mix.set(name.trim(), p)?;
    }
    Ok(mix)
}

fn cmd_faultsim(args: &Args) -> CmdResult {
    let d = FaultSimOptions::default();
    let levels = |list: &str| list.split(',').map(|t| t.trim().parse()).collect();
    let opts = FaultSimOptions {
        seed: args.num("--seed")?.unwrap_or(d.seed),
        txns: args.num("--txns")?.unwrap_or(d.txns),
        levels: args.get("--levels", levels)?.unwrap_or(d.levels),
        mix: args.get("--mix", fault_mix)?.unwrap_or(d.mix),
        lock_timeout: args.num("--lock-timeout-ms")?.map_or(d.lock_timeout, Duration::from_millis),
        policy: semcc_workloads::RetryPolicy {
            max_attempts: args.num("--max-attempts")?.unwrap_or(d.policy.max_attempts),
            ..d.policy
        },
        durable: args.has("--durable"),
        wal_flush_every: args
            .num("--wal-flush-every")?
            .map_or(d.wal_flush_every, NonZeroUsize::get),
        ..d
    };
    let seeds = args.num("--seeds")?.map_or(1, NonZeroU64::get);
    let jobs = args.num("--jobs")?.unwrap_or(1);
    let json_out = args.has("--json");
    let app: App = load(args.pos(0))?;

    if seeds > 1 {
        // Plan sweep: the base seed and its successors, one single-threaded
        // run each, fanned out over --jobs (per-run determinism depends on
        // the driver staying serial, so the cores go to the seed axis).
        let seed_list: Vec<u64> = (0..seeds).map(|i| opts.seed + i).collect();
        let reports = simulate_sweep(&app, &opts, &seed_list, jobs)?;
        let violations: usize = reports.iter().map(|r| r.violations.len()).sum();
        if json_out {
            let arr = reports.iter().map(faultsim_json).collect();
            println!("{}", Json::obj([("sweep", Json::Arr(arr))]).to_pretty());
        } else {
            for (i, r) in reports.iter().enumerate() {
                if i > 0 {
                    println!();
                }
                print_faultsim(r);
            }
            println!();
            println!("seed sweep: {} run(s), {} violation(s) total", reports.len(), violations);
        }
        return clean_if(violations == 0);
    }

    let report = simulate(&app, &opts)?;
    if json_out {
        println!("{}", faultsim_json(&report).to_pretty());
    } else {
        print_faultsim(&report);
    }
    clean_if(report.clean())
}

fn print_faultsim(r: &FaultSimReport) {
    println!("fault simulation: seed {} over {} transaction(s)", r.seed, r.txns);
    println!("  committed             {}", r.committed);
    println!("  aborts absorbed       {}", r.aborts);
    for (class, n) in &r.aborts_by_class {
        println!("    {:<19} {}", class.name(), n);
    }
    println!("  gave up               {}", r.gave_up);
    println!("  abort rate            {:.3}", r.abort_rate());
    println!("  faults injected       {}", r.injected);
    for (kind, n) in &r.injected_by_kind {
        println!("    {kind:<19} {n}");
    }
    println!("  audit checks          {}", r.audit_checks);
    if r.recoveries_audited > 0 {
        println!("  recoveries audited    {}", r.recoveries_audited);
        for (kind, n) in &r.crashes_by_class {
            println!("    {kind:<19} {n}");
        }
        println!("  wal records redone    {}", r.recovery_redo);
        println!("  loser records undone  {}", r.recovery_undone);
    }
    if !r.recovery_latencies_us.is_empty() {
        println!(
            "  recovery latency      p50 {}µs  p99 {}µs  ({} retried commits)",
            r.recovery_percentile_us(0.50),
            r.recovery_percentile_us(0.99),
            r.recovery_latencies_us.len()
        );
    }
    if r.clean() {
        println!("  auditor               CLEAN ({} checks, 0 violations)", r.audit_checks);
    } else {
        println!("  auditor               {} VIOLATION(S):", r.violations.len());
        for v in &r.violations {
            println!("    {v}");
        }
    }
}

/// The deterministic portion of a faultsim report: everything here is a
/// pure function of the seed and options (wall-clock fields excluded), so
/// two runs with the same arguments must print identical JSON.
fn faultsim_json(r: &FaultSimReport) -> Json {
    Json::obj([
        ("seed", Json::Int(r.seed as i64)),
        ("txns", Json::Int(r.txns as i64)),
        ("committed", Json::Int(r.committed as i64)),
        ("aborts", Json::Int(r.aborts as i64)),
        ("gave_up", Json::Int(r.gave_up as i64)),
        (
            "aborts_by_class",
            Json::obj(r.aborts_by_class.iter().map(|(c, n)| (c.name(), n.to_json()))),
        ),
        ("injected", Json::Int(r.injected as i64)),
        ("injected_by_kind", Json::obj(r.injected_by_kind.iter().map(|(k, n)| (*k, n.to_json())))),
        (
            "events",
            Json::Arr(
                r.events
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("seq", Json::Int(e.seq as i64)),
                            ("txn", Json::Int(e.txn as i64)),
                            ("kind", Json::str(e.kind.name())),
                            ("ordinal", Json::Int(e.ordinal as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("audit_checks", Json::Int(r.audit_checks as i64)),
        ("recoveries_audited", Json::Int(r.recoveries_audited as i64)),
        ("crashes_by_class", Json::obj(r.crashes_by_class.iter().map(|(k, n)| (*k, n.to_json())))),
        ("recovery_redo", Json::Int(r.recovery_redo as i64)),
        ("recovery_undone", Json::Int(r.recovery_undone as i64)),
        ("violations", r.violations.to_json()),
        ("clean", Json::Bool(r.clean())),
    ])
}

fn print_explore(r: &ExploreResult, d: &Differential, refined: bool) {
    let pair = r
        .txns
        .iter()
        .zip(&r.levels)
        .map(|(t, l)| format!("{t}@{l}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!("exploring {{{pair}}} — all statement-granular interleavings (DPOR)");
    if refined {
        println!("  dependence: prover-refined (semcc-refine)");
    }
    println!(
        "  events: {}   naive interleavings: {}   engine replays: {}   events executed: {}",
        r.total_events, r.naive_schedules, r.replays, r.events
    );
    println!(
        "  executed: {}   blocked: {}   pruned: {} ({:.1}x)",
        r.explored,
        r.blocked,
        r.pruned(),
        r.pruning_ratio()
    );
    if r.infeasible > 0 {
        println!("  infeasible prefixes: {}", r.infeasible);
    }
    println!("  distinct serial outcomes: {}", r.serial_orders);
    if r.truncated {
        println!("  NOTE: exploration truncated by --max-depth/--max-schedules");
    }
    if !r.anomaly_counts.is_empty() {
        let summary = r
            .anomaly_counts
            .iter()
            .map(|(k, n)| format!("{k} ×{n}"))
            .collect::<Vec<_>>()
            .join(", ");
        println!("  anomalies observed: {summary}");
    }
    println!();
    if r.divergent > 0 {
        println!("verdict: DIVERGENT — {} schedule(s) match no serial order", r.divergent);
        if let Some(ex) = r.divergent_examples.first() {
            println!("  example:");
            for step in &ex.steps {
                println!("    {step}");
            }
        }
    } else {
        println!("verdict: CLEAN — every completed schedule is equivalent to a serial order");
    }
    let predicted = if d.predicted_kinds.is_empty() {
        "-".to_string()
    } else {
        d.predicted_kinds.iter().map(ToString::to_string).collect::<Vec<_>>().join(", ")
    };
    println!(
        "static: {} (predicted: {predicted}) — differential: {}{}",
        if d.static_safe { "SAFE" } else { "UNSAFE" },
        d.verdict,
        match d.witness_agrees {
            Some(true) => ", FM witness corroborates",
            Some(false) => ", FM witness DISAGREES",
            None => "",
        }
    );
}

fn explore_json(r: &ExploreResult, d: &Differential, refined: bool) -> Json {
    let kinds = |set: &std::collections::BTreeSet<semcc_engine::AnomalyKind>| {
        Json::Arr(set.iter().map(|k| Json::str(k.to_string())).collect())
    };
    Json::obj([
        ("refined", Json::Bool(refined)),
        (
            "txns",
            Json::Arr(
                r.txns
                    .iter()
                    .zip(&r.levels)
                    .map(|(t, l)| {
                        Json::obj([
                            ("txn", Json::str(t.clone())),
                            ("level", Json::str(l.to_string())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("total_events", Json::Int(r.total_events as i64)),
        ("naive_schedules", Json::Int(i64::try_from(r.naive_schedules).unwrap_or(i64::MAX))),
        ("explored", Json::Int(r.explored as i64)),
        ("blocked", Json::Int(r.blocked as i64)),
        ("infeasible", Json::Int(r.infeasible as i64)),
        ("replays", Json::Int(r.replays as i64)),
        ("events", Json::Int(r.events as i64)),
        ("pruned", Json::Int(i64::try_from(r.pruned()).unwrap_or(i64::MAX))),
        ("serial_orders", Json::Int(r.serial_orders as i64)),
        ("divergent", Json::Int(r.divergent as i64)),
        ("truncated", Json::Bool(r.truncated)),
        (
            "anomalies",
            Json::obj(r.anomaly_counts.iter().map(|(k, n)| (k.to_string(), n.to_json()))),
        ),
        (
            "divergent_examples",
            Json::Arr(
                r.divergent_examples
                    .iter()
                    .map(|ex| {
                        Json::obj([
                            ("steps", ex.steps.to_json()),
                            (
                                "anomalies",
                                Json::Arr(
                                    ex.anomalies.iter().map(|k| Json::str(k.to_string())).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "differential",
            Json::obj([
                ("static_safe", Json::Bool(d.static_safe)),
                ("verdict", Json::str(d.verdict.to_string())),
                ("predicted", kinds(&d.predicted_kinds)),
                ("observed", kinds(&d.observed_kinds)),
                ("witness_agrees", d.witness_agrees.map_or(Json::Null, Json::Bool)),
            ]),
        ),
        ("verdict", Json::str(if r.divergent > 0 { "DIVERGENT" } else { "CLEAN" })),
    ])
}

fn print_witnesses(witnesses: &[Witness]) {
    println!();
    if witnesses.is_empty() {
        println!("no diagnostics, so no witnesses to replay");
        return;
    }
    println!("refutation witnesses (replayed on semcc-engine):");
    for w in witnesses {
        println!("{}", w.render());
    }
    let confirmed = witnesses.iter().filter(|w| w.confirmed()).count();
    println!();
    println!("{confirmed}/{} witness(es) CONFIRMED", witnesses.len());
}

fn witnesses_json(witnesses: &[Witness]) -> Json {
    Json::Arr(
        witnesses
            .iter()
            .map(|w| {
                let (outcome, reason) = match &w.outcome {
                    WitnessOutcome::Confirmed => ("CONFIRMED", Json::Null),
                    WitnessOutcome::Unconfirmed(why) => ("UNCONFIRMED", Json::str(why.clone())),
                };
                Json::obj([
                    ("code", Json::str(w.code.clone())),
                    ("kind", Json::str(w.kind.to_string())),
                    ("victim", Json::str(w.victim.clone())),
                    ("victim_level", Json::str(w.victim_level.to_string())),
                    ("interferer", Json::str(w.interferer.clone())),
                    ("interferer_level", Json::str(w.interferer_level.to_string())),
                    ("schedule", w.schedule.to_json()),
                    ("outcome", Json::str(outcome)),
                    ("reason", reason),
                ])
            })
            .collect(),
    )
}

fn print_lint_report(report: &LintReport) {
    let origin = if report.levels_assigned { "assigned (Section 5)" } else { "given" };
    println!("{:<24}  {:<20}  exposure at that level", "transaction", "level");
    println!("{}", "-".repeat(72));
    for (name, level) in &report.levels {
        let exposure = report
            .exposures
            .iter()
            .find(|e| &e.txn == name)
            .map(|e| {
                if e.exposed.is_empty() {
                    "-".to_string()
                } else {
                    e.exposed.keys().map(ToString::to_string).collect::<Vec<_>>().join(", ")
                }
            })
            .unwrap_or_else(|| "-".to_string());
        println!("{:<24}  {:<20}  {}", name, level.to_string(), exposure);
    }
    println!("levels: {origin}");
    for d in &report.dangerous {
        println!(
            "dangerous structure: {} <-rw-> {} (reads {{{}}} / {{{}}})",
            d.a,
            d.b,
            d.a_reads_b_writes.iter().cloned().collect::<Vec<_>>().join(", "),
            d.b_reads_a_writes.iter().cloned().collect::<Vec<_>>().join(", ")
        );
    }
    println!();
    if report.clean() {
        println!("no diagnostics: the application lints clean");
    } else {
        for d in &report.diagnostics {
            println!("{}", d.render());
        }
        println!();
        println!("{} diagnostic(s)", report.diagnostics.len());
    }
}

fn lint_report_json(report: &LintReport) -> Json {
    let levels = Json::Arr(
        report
            .levels
            .iter()
            .map(|(n, l)| {
                Json::obj([("txn", Json::str(n.clone())), ("level", Json::str(l.to_string()))])
            })
            .collect(),
    );
    let exposures = Json::Arr(
        report
            .exposures
            .iter()
            .map(|e| {
                Json::obj([
                    ("txn", Json::str(e.txn.clone())),
                    ("level", Json::str(e.level.to_string())),
                    (
                        "exposed",
                        Json::Arr(
                            e.exposed
                                .iter()
                                .map(|(k, why)| {
                                    Json::obj([
                                        ("kind", Json::str(k.to_string())),
                                        ("code", Json::str(semcc_core::code_for(*k))),
                                        ("why", Json::str(why.clone())),
                                    ])
                                })
                                .collect(),
                        ),
                    ),
                ])
            })
            .collect(),
    );
    let dangerous = Json::Arr(
        report
            .dangerous
            .iter()
            .map(|d| {
                Json::obj([
                    ("a", Json::str(d.a.clone())),
                    ("b", Json::str(d.b.clone())),
                    ("a_reads_b_writes", d.a_reads_b_writes.to_json()),
                    ("b_reads_a_writes", d.b_reads_a_writes.to_json()),
                ])
            })
            .collect(),
    );
    let diagnostics = Json::Arr(
        report
            .diagnostics
            .iter()
            .map(|d| {
                Json::obj([
                    ("code", Json::str(d.code.clone())),
                    ("kind", Json::str(d.kind.to_string())),
                    ("level", Json::str(d.level.to_string())),
                    ("txn", Json::str(d.txn.clone())),
                    ("partner", d.partner.to_json()),
                    ("statements", d.statements.to_json()),
                    ("provenance", d.provenance.to_json()),
                    (
                        "counterexample",
                        Json::obj(d.counterexample.iter().map(|(v, x)| (v.as_str(), x.to_json()))),
                    ),
                    ("message", Json::str(d.message.clone())),
                ])
            })
            .collect(),
    );
    // Per-edge provenance: which footprint rule created the edge and
    // which statement indices anchor each side — the stable coordinates
    // refinement justifications refer to.
    let edges = Json::Arr(
        report
            .edges
            .iter()
            .map(|e| {
                Json::obj([
                    ("from", Json::str(e.from.clone())),
                    ("to", Json::str(e.to.clone())),
                    ("kind", Json::str(e.kind.to_string())),
                    ("rule", Json::str(e.rule.clone())),
                    ("items", e.items.to_json()),
                    ("tables", e.tables.to_json()),
                    ("from_stmts", e.from_stmts.to_json()),
                    ("to_stmts", e.to_stmts.to_json()),
                ])
            })
            .collect(),
    );
    Json::obj([
        ("levels", levels),
        ("levels_assigned", Json::Bool(report.levels_assigned)),
        ("exposures", exposures),
        ("dangerous_structures", dangerous),
        ("edges", edges),
        ("diagnostics", diagnostics),
        ("clean", Json::Bool(report.clean())),
    ])
}

fn cmd_verify(args: &Args) -> CmdResult {
    let app: App = load(args.pos(0))?;
    let issues = check_app_annotations(&app);
    let mut errors = 0;
    for i in &issues {
        let tag = match i.severity {
            Severity::Error => {
                errors += 1;
                "ERROR"
            }
            Severity::Unverified => "assumed",
        };
        println!("[{tag}] {} @ {}: {}", i.txn, i.location, i.message);
    }
    println!(
        "{} issue(s): {errors} error(s), {} assumed conjunct(s)",
        issues.len(),
        issues.len() - errors
    );
    if errors == 0 {
        println!("annotation outlines are valid sequential proofs (within the fragment)");
    }
    clean_if(errors == 0)
}

fn cmd_obligations(args: &Args) -> CmdResult {
    let app: App = load(args.pos(0))?;
    let t = cost_table(&app);
    println!(
        "K = {} transaction types, ΣN = {} statements, naive (ΣN)^2 = {}",
        t.k, t.total_stmts, t.naive_triples
    );
    println!(
        "{:<22}  {:>12}  {:>14}  {:>12}",
        "level", "obligations", "prover calls", "cache hits"
    );
    println!("{}", "-".repeat(66));
    for c in &t.per_level {
        println!(
            "{:<22}  {:>12}  {:>14}  {:>12}",
            c.level.to_string(),
            c.obligations,
            c.prover_calls,
            c.cache_hits
        );
    }
    Ok(Findings::Clean)
}

fn cmd_certify(args: &Args) -> CmdResult {
    let path = args.pos(0);
    let app: App = load(path)?;
    let mut cert = certify_app(&app, &app_name(path), semcc_txn::symexec::SymOptions::default())
        .map_err(|e| format!("certification failed: {e}"))?;
    if args.has("--refine") {
        let graph = semcc_core::DepGraph::build(&app);
        let rep = semcc_refine::refine(&app, &graph);
        println!(
            "refinement: {} of {} SDG edge(s) pruned, {} justification(s) attached",
            rep.prunes.len(),
            rep.base_edges,
            rep.prunes.len()
        );
        cert.prunes = rep.prunes;
    }
    println!("{:<24}  {:<20}  {:>11}  {:>9}", "transaction", "level", "obligations", "certified");
    println!("{}", "-".repeat(72));
    let mut findings = Findings::Clean;
    for r in &cert.reports {
        println!(
            "{:<24}  {:<20}  {:>11}  {:>9}{}",
            r.txn,
            r.level,
            r.obligations,
            r.certified.len(),
            if r.ok { "" } else { "  REJECTED" }
        );
        if !r.ok {
            findings = Findings::Diagnostics;
        }
    }
    let total: usize = cert.reports.iter().map(|r| r.certified.len()).sum();
    println!();
    println!(
        "{} certified obligation(s) across {} (transaction, level) pairs",
        total,
        cert.reports.len()
    );
    if let Some(out) = args.value("--out") {
        std::fs::write(out, semcc_json::to_string_pretty(&cert))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote certificate to {out}");
    }
    Ok(findings)
}

fn cmd_verify_cert(args: &Args) -> CmdResult {
    let cert: semcc_cert::Certificate = load(args.pos(0))?;
    let report = semcc_cert::verify(&cert);
    println!(
        "{}: {} obligation(s), {} substitution proof(s) replayed, {} trusted premise(s), \
         {} prune proof(s) replayed, {} synthesis countermodel(s) checked, \
         {} trusted refutation trace(s)",
        cert.app,
        report.obligations,
        report.substitution_proofs,
        report.trusted_steps,
        report.prune_proofs,
        report.countermodels,
        report.synth_trusted
    );
    if report.is_valid() {
        println!("certificate VERIFIED (independent checker, no prover linked)");
        Ok(Findings::Clean)
    } else {
        for e in &report.errors {
            println!("INVALID: {e}");
        }
        println!();
        println!("{} verification error(s)", report.errors.len());
        Ok(Findings::Diagnostics)
    }
}

/// `semcc synth`: whole-mix isolation-level synthesis. Searches the
/// lattice of per-type level vectors, prints the primary (ladder-only)
/// Pareto-minimal assignment, and optionally writes the deterministic
/// admission-policy artifact and the synthesis certificate.
fn cmd_synth(args: &Args) -> CmdResult {
    let opts = semcc_synth::SynthOptions {
        jobs: args.num("--jobs")?.unwrap_or(1),
        witnesses: !args.has("--no-witness"),
        ..Default::default()
    };
    let path = args.pos(0);
    let app: App = load(path)?;
    let name = app_name(path);
    let syn = semcc_synth::synthesize(&app, &opts)?;
    let greedy = assign_levels(&app, &default_ladder());
    let cert = semcc_synth::policy::synth_certificate(&app, &name, &syn);
    let digest = semcc_synth::policy::certificate_digest(&cert);
    let primary = syn.primary();
    let level_map: BTreeMap<String, IsolationLevel> =
        syn.txns.iter().cloned().zip(primary.levels.iter().cloned()).collect();
    let advisories = semcc_refine::predict_deadlocks(&app, &level_map);
    let policy = semcc_synth::policy_json(&name, &syn, &greedy, &advisories, &digest);
    if let Some(cert_out) = args.value("--cert") {
        std::fs::write(cert_out, semcc_json::to_string_pretty(&cert))
            .map_err(|e| format!("writing {cert_out}: {e}"))?;
    }
    if let Some(out) = args.value("--out") {
        std::fs::write(out, policy.to_pretty()).map_err(|e| format!("writing {out}: {e}"))?;
    }
    if args.has("--json") {
        println!("{}", policy.to_pretty());
        return Ok(Findings::Clean);
    }
    let s = &syn.stats;
    println!("synthesized isolation policy for {name} ({} types, lattice {})", s.types, s.lattice);
    println!();
    let snapshot_ok = |t: &str| greedy.iter().any(|a| a.txn == t && a.snapshot_ok);
    for (t, l) in syn.txns.iter().zip(&primary.levels) {
        let snap = if snapshot_ok(t) { "  [snapshot ok]" } else { "" };
        println!("{t}: {}{snap}", l.name());
    }
    println!();
    let refuted: usize = syn.minimal.iter().map(|m| m.predecessors.len()).sum();
    println!(
        "{} Pareto-minimal safe vector(s), {} immediate predecessor(s) refuted",
        syn.minimal.len(),
        refuted
    );
    println!(
        "search: visited {} of {} ({:.1}%), pruned-safe {}, pruned-unsafe {}, cache-complete {}",
        s.visited,
        s.lattice,
        100.0 * s.visited as f64 / s.lattice as f64,
        s.pruned_safe,
        s.pruned_unsafe,
        s.cache_complete
    );
    println!(
        "pair lemmas: {} evaluated (naive sweep: {}), {} cache hit(s); \
         prover: {} call(s), {} memo hit(s)",
        s.pair_evals, s.naive_pair_evals, s.pair_hits, s.prover_calls, s.prover_cache_hits
    );
    for a in &advisories {
        println!("{} {}", a.code, a.message);
    }
    println!("certificate digest {digest}");
    Ok(Findings::Clean)
}

fn cmd_serve(args: &Args) -> CmdResult {
    use semcc_serve::{bench, AdmissionPolicy, Mix};
    let d = bench::BenchConfig::default();
    let mut cfg = bench::BenchConfig {
        workers: args.num::<u64>("--workers")?.map_or(d.workers, |n| n.max(1) as usize),
        txns_per_worker: args.num("--txns")?.unwrap_or(d.txns_per_worker),
        seed: args.num("--seed")?.unwrap_or(d.seed),
        scale: args.num::<u64>("--scale")?.map_or(d.scale, |n| n.max(2) as usize),
        lock_timeout: args
            .num::<u64>("--lock-timeout-ms")?
            .map_or(d.lock_timeout, |ms| Duration::from_millis(ms.max(1))),
        max_attempts: args
            .num::<u64>("--max-attempts")?
            .map_or(d.max_attempts, |n| n.max(1) as usize),
        single_lock: args.has("--single-lock"),
        inject_panics: args.has("--inject-panics"),
        ..d
    };
    let mix_flag =
        args.get("--mix", |v| Mix::parse(v).ok_or("not banking|orders|payroll|mixed"))?;
    // Digest verification happens at load; a tampered artifact is a hard
    // error (exit 2) — the server must not start without a proof-backed
    // level assignment.
    let policy = AdmissionPolicy::load_all(args.values("--policy")).map_err(|e| e.to_string())?;
    let mix = match mix_flag.or_else(|| Mix::infer(&policy)) {
        Some(m) => m,
        None => {
            return Err(format!(
                "the loaded policy covers none of the known mixes; its types are: {}",
                policy.types().collect::<Vec<_>>().join(", ")
            ))
        }
    };
    cfg.mix = mix;
    if !args.has("--bench") {
        // Validation mode: print the admission table and exit.
        println!(
            "admission policy verified ({} artifact(s), {} type(s)):",
            policy.sources().len(),
            policy.len()
        );
        for s in policy.sources() {
            println!("  source {} {}", s.app, s.digest);
        }
        for t in policy.types() {
            let tp = policy.type_policy(t).expect("listed type");
            println!(
                "  {t}: {}{}",
                tp.level.name(),
                if tp.snapshot_ok { "  [snapshot ok]" } else { "" }
            );
        }
        println!("traffic mix: {} (no wire protocol yet; use --bench to drive load)", mix.name());
        return Ok(Findings::Clean);
    }
    let report = bench::run(policy, &cfg).map_err(|e| e.to_string())?;
    if args.has("--json") {
        println!("{}", bench::json_report(&cfg, &report).to_pretty());
    } else {
        print!("{}", bench::human_report(&cfg, &report));
    }
    clean_if(report.violations.is_empty() && report.quiescent)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Run a command line through the same dispatch as the binary.
    fn semcc(argv: &[&str]) -> CmdResult {
        run(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    fn tmp_app(name: &str, which: &str) -> String {
        let dir = std::env::temp_dir().join("semcc_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        let path_s = path.to_str().expect("utf8").to_string();
        semcc(&["export", which, &path_s]).expect("export");
        path_s
    }

    #[test]
    fn every_flag_is_in_help_and_in_its_usage_error() {
        let help = help();
        for cmd in COMMANDS {
            assert!(help.contains(&format!("semcc {} ", cmd.name)), "{}", cmd.name);
            let usage = semcc(&[cmd.name, "--bogus"]).expect_err("an unknown flag");
            assert!(usage.starts_with("unexpected argument `--bogus`\nusage: "), "{usage}");
            for flag in cmd.flags {
                let shown = flag_usage(flag);
                assert!(help.contains(&shown), "help lacks {shown} of {}", cmd.name);
                assert!(usage.contains(&shown), "usage of {} lacks {shown}:\n{usage}", cmd.name);
            }
            for arg in cmd.args {
                assert!(usage.contains(arg), "usage of {} lacks {arg}:\n{usage}", cmd.name);
            }
        }
    }

    #[test]
    fn every_workload_roundtrips_through_json() {
        for (name, app) in [
            ("banking", banking::app()),
            ("orders", orders::app(false)),
            ("orders-strict", orders::app(true)),
            ("payroll", payroll::app()),
            ("tpcc", tpcc::app()),
        ] {
            let json = semcc_json::to_string(&app);
            let back: App = semcc_json::from_str(&json).expect("deserialize");
            assert_eq!(back.programs.len(), app.programs.len(), "{name}");
            // Verdicts must be identical after the round trip.
            let before = assign_levels(&app, &default_ladder());
            let after = assign_levels(&back, &default_ladder());
            for (b, a) in before.iter().zip(&after) {
                assert_eq!(b.txn, a.txn, "{name}");
                assert_eq!(b.level, a.level, "{name}/{}", b.txn);
                assert_eq!(b.snapshot_ok, a.snapshot_ok, "{name}/{}", b.txn);
            }
        }
    }

    #[test]
    fn lint_json_shape() {
        let bank = tmp_app("bank_lint_json.json", "banking");
        let app: App = load(&bank).expect("load");
        let report = lint(&app, None);
        let json = lint_report_json(&report);
        assert_eq!(json.get("clean").and_then(Json::as_bool), Some(false));
        let diags = json.get("diagnostics").and_then(Json::as_arr).expect("array");
        assert!(!diags.is_empty());
        assert_eq!(diags[0].get("code").and_then(Json::as_str), Some("SEMCC-W001"));
        // The JSON output round-trips through the parser.
        let text = json.to_pretty();
        semcc_json::from_str_value(&text).expect("valid JSON");
    }

    #[test]
    fn bad_inputs_are_reported() {
        assert!(load::<App>("/nonexistent/x.json").is_err());
        assert!(semcc(&["export", "nope", "/tmp/x.json"]).is_err());
        assert!(IsolationLevel::from_name("BOGUS").is_none());
    }

    #[test]
    fn malformed_app_json_is_an_error_not_a_panic() {
        let dir = std::env::temp_dir().join("semcc_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        // Truncated JSON, valid JSON of the wrong shape, binary junk and
        // nesting past the parser's bound must all surface as one-line
        // errors (exit 2), never a panic or a stack overflow.
        let deep = "[".repeat(100_000);
        for (name, text) in [
            ("truncated.json", r#"{"programs": [{"name": "T", "bo"#),
            ("wrong_shape.json", r#"{"programs": 42}"#),
            ("junk.json", "\u{0}\u{1}\u{2}not json at all"),
            ("empty.json", ""),
            ("deep.json", deep.as_str()),
        ] {
            let p = dir.join(name);
            std::fs::write(&p, text).expect("write");
            let p = p.to_str().expect("utf8");
            assert!(load::<App>(p).is_err(), "{name}");
            for cmd in ["lint", "analyze", "certify", "verify-cert", "synth"] {
                assert!(semcc(&[cmd, p]).is_err(), "{cmd} {name}");
            }
            assert!(semcc(&["serve", "--policy", p]).is_err(), "{name}");
        }
    }

    #[test]
    fn bundled_artifacts_nest_well_below_the_parser_bound() {
        fn depth(j: &Json) -> usize {
            match j {
                Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
                Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
                _ => 0,
            }
        }
        let dir = std::env::temp_dir().join("semcc_cli_test");
        let mut deepest = (0, String::new());
        for which in ["banking", "orders", "orders-strict", "payroll", "tpcc"] {
            let app = tmp_app(&format!("depth_{which}.json"), which);
            let out = |kind: &str| {
                dir.join(format!("depth_{which}.{kind}.json")).to_str().expect("utf8").to_string()
            };
            let (cert, policy, synth) = (out("cert"), out("policy"), out("synth"));
            semcc(&["certify", &app, "--refine", "--out", &cert]).expect("certify");
            semcc(&["synth", &app, "--out", &policy, "--cert", &synth]).expect("synth");
            for path in [app, cert, policy, synth] {
                let text = std::fs::read_to_string(&path).expect("written");
                let d = depth(&semcc_json::from_str_value(&text).expect("parses"));
                if d > deepest.0 {
                    deepest = (d, path);
                }
            }
        }
        println!("deepest bundled artifact: {} levels ({})", deepest.0, deepest.1);
        assert!(
            4 * deepest.0 <= semcc_json::MAX_DEPTH,
            "{} nests {} deep: raise MAX_DEPTH ({}) to keep a 4x margin",
            deepest.1,
            deepest.0,
            semcc_json::MAX_DEPTH
        );
    }

    #[test]
    fn synth_writes_a_deterministic_policy_and_verifiable_certificate() {
        let app = tmp_app("synth_payroll.json", "payroll");
        let dir = std::env::temp_dir().join("semcc_cli_test");
        let policy1 = dir.join("synth_p1.json");
        let policy2 = dir.join("synth_p2.json");
        let cert = dir.join("synth_c.json");
        let synth = |out: &std::path::Path| {
            semcc(&[
                "synth",
                &app,
                "--out",
                out.to_str().unwrap(),
                "--cert",
                cert.to_str().unwrap(),
            ])
        };
        assert_eq!(synth(&policy1), Ok(Findings::Clean));
        let c1 = std::fs::read_to_string(&cert).expect("cert written");
        assert_eq!(synth(&policy2), Ok(Findings::Clean));
        let c2 = std::fs::read_to_string(&cert).expect("cert written");
        // Repeated runs are byte-identical — artifact and certificate.
        assert_eq!(
            std::fs::read_to_string(&policy1).unwrap(),
            std::fs::read_to_string(&policy2).unwrap()
        );
        assert_eq!(c1, c2);
        // The artifact parses, names the app, and binds the certificate.
        let policy: Json =
            semcc_json::from_str(&std::fs::read_to_string(&policy1).unwrap()).expect("parses");
        assert_eq!(policy.get("artifact").and_then(Json::as_str), Some("semcc-admission-policy"));
        let digest =
            policy.get("certificate_digest").and_then(Json::as_str).expect("digest present");
        assert!(digest.starts_with("fnv1a:"), "{digest}");
        // And the certificate passes the independent checker.
        let parsed: semcc_cert::Certificate = semcc_json::from_str(&c1).expect("cert parses");
        assert!(semcc_cert::verify(&parsed).is_valid());
    }

    #[test]
    fn certify_then_verify_cert_roundtrip() {
        let bank = tmp_app("bank_cert.json", "banking");
        let dir = std::env::temp_dir().join("semcc_cli_test");
        let cert_path = dir.join("bank_cert_out.json").to_str().expect("utf8").to_string();
        // Banking's withdrawals fail at SNAPSHOT, so certify reports
        // diagnostics — but still writes a certificate for what it proved.
        assert_eq!(semcc(&["certify", &bank, "--out", &cert_path]), Ok(Findings::Diagnostics));
        // The independent checker accepts the freshly-emitted certificate.
        assert_eq!(semcc(&["verify-cert", &cert_path]), Ok(Findings::Clean));
        // A tampered certificate (flip one report's ok flag) is rejected.
        let mut cert: semcc_cert::Certificate = load(&cert_path).expect("parse");
        if let Some(r) = cert.reports.iter_mut().find(|r| !r.ok) {
            r.ok = true;
        }
        let tampered = dir.join("bank_cert_tampered.json").to_str().expect("utf8").to_string();
        std::fs::write(&tampered, semcc_json::to_string_pretty(&cert)).expect("write");
        assert_eq!(semcc(&["verify-cert", &tampered]), Ok(Findings::Diagnostics));
    }

    #[test]
    fn lint_refine_json_reports_prunes_and_edge_provenance() {
        let app = orders::app(false);
        let graph = semcc_core::DepGraph::build(&app);
        let rep = semcc_refine::refine(&app, &graph);
        assert!(rep.refined_edges < rep.base_edges, "orders must lose edges");
        let json = refine_json(&rep, &[]);
        let prunes = json.get("prunes").and_then(Json::as_arr).expect("prunes array");
        assert!(!prunes.is_empty());
        for p in prunes {
            assert!(p.get("rule").and_then(Json::as_str).is_some());
            assert!(p.get("obligations").and_then(Json::as_int).unwrap_or(0) > 0);
        }
        // Per-edge provenance in lint --json (statement indices, footprint
        // items, creating rule).
        let report = lint(&app, None);
        let lint_json = lint_report_json(&report);
        let edges = lint_json.get("edges").and_then(Json::as_arr).expect("edges array");
        assert_eq!(edges.len(), report.edges.len());
        for e in edges {
            assert!(e.get("rule").and_then(Json::as_str).is_some());
            assert!(e.get("from_stmts").and_then(Json::as_arr).is_some());
            assert!(e.get("to_stmts").and_then(Json::as_arr).is_some());
        }
    }

    #[test]
    fn certify_refine_attaches_replayable_prunes() {
        let ord = tmp_app("orders_cert_refine.json", "orders");
        let dir = std::env::temp_dir().join("semcc_cli_test");
        let cert_path = dir.join("orders_cert_refine_out.json").to_str().expect("utf8").to_string();
        semcc(&["certify", &ord, "--refine", "--out", &cert_path]).expect("certify");
        let cert: semcc_cert::Certificate = load(&cert_path).expect("parse");
        assert!(!cert.prunes.is_empty(), "refined certificate carries prunes");
        // The independent checker replays the pruning proofs.
        assert_eq!(semcc(&["verify-cert", &cert_path]), Ok(Findings::Clean));
        let report = semcc_cert::verify(&cert);
        assert!(report.prune_proofs >= cert.prunes.len());
        // Strip a prune's obligations: the checker must reject it.
        let mut tampered = cert;
        tampered.prunes[0].obligations.clear();
        let tp = dir.join("orders_cert_refine_bad.json").to_str().expect("utf8").to_string();
        std::fs::write(&tp, semcc_json::to_string_pretty(&tampered)).expect("write");
        assert_eq!(semcc(&["verify-cert", &tp]), Ok(Findings::Diagnostics));
    }
}
