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
use semcc_json::{Json, ToJson};
use semcc_par::ordered_map;
use semcc_workloads::{
    banking, orders, payroll, simulate, simulate_sweep, tpcc, FaultSimOptions, FaultSimReport,
};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Duration;

/// What a successfully-run command concluded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Findings {
    /// Everything provable / no findings.
    Clean,
    /// Diagnostics were printed.
    Diagnostics,
}

type CmdResult = Result<Findings, String>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("export") => cmd_export(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("check") => cmd_check(&args[1..]),
        Some("lint") => cmd_lint(&args[1..]),
        Some("explore") => cmd_explore(&args[1..]),
        Some("faultsim") => cmd_faultsim(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("obligations") => cmd_obligations(&args[1..]),
        Some("certify") => cmd_certify(&args[1..]),
        Some("verify-cert") => cmd_verify_cert(&args[1..]),
        Some("synth") => cmd_synth(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("help") | None => {
            print_usage();
            Ok(Findings::Clean)
        }
        Some(other) => Err(format!("unknown command `{other}` (try `semcc help`)")),
    };
    match result {
        Ok(Findings::Clean) => ExitCode::SUCCESS,
        Ok(Findings::Diagnostics) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    println!("semcc — semantic conditions for correctness at different isolation levels");
    println!();
    println!("USAGE:");
    println!("  semcc export <banking|orders|orders-strict|payroll|tpcc> <out.json>");
    println!("  semcc analyze <app.json> [--ansi]");
    println!("  semcc check <app.json> <transaction> <LEVEL>");
    println!("  semcc lint <app.json> [--levels V1[;V2;...]] [--refine] [--witness]");
    println!("             [--jobs N] [--json]");
    println!("  semcc explore <app.json> [--txns T1,T2[,T3]] [--levels L1,L2[,L3][;...]]");
    println!("                [--seed item=V | table.col=V]... [--max-depth N]");
    println!("                [--max-schedules N] [--faults [VICTIM]] [--refine]");
    println!("                [--lock-timeout-ms N] [--jobs N] [--json]");
    println!("  semcc faultsim <app.json> [--seed N] [--seeds N] [--jobs N] [--txns N]");
    println!("                 [--levels L1[,L2,...]] [--mix CLASS=P,...]");
    println!("                 [--lock-timeout-ms N] [--max-attempts N]");
    println!("                 [--durable] [--wal-flush-every N] [--json]");
    println!("  semcc verify <app.json>");
    println!("  semcc obligations <app.json>");
    println!("  semcc certify <app.json> [--refine] [--out cert.json]");
    println!("  semcc verify-cert <cert.json>");
    println!("  semcc synth <app.json> [--out policy.json] [--cert cert.json]");
    println!("              [--no-witness] [--jobs N] [--json]");
    println!("  semcc serve --policy policy.json [--policy more.json]... [--bench]");
    println!("              [--mix banking|orders|payroll|mixed] [--workers N] [--txns N]");
    println!("              [--seed N] [--scale N] [--lock-timeout-ms N] [--max-attempts N]");
    println!("              [--single-lock] [--inject-panics] [--json]");
    println!();
    println!("LEVELs: \"READ UNCOMMITTED\", \"READ COMMITTED\", \"READ COMMITTED+FCW\",");
    println!("        \"REPEATABLE READ\", \"SNAPSHOT\", \"SSI\", \"SERIALIZABLE\"");
    println!("        (lint --levels also accepts RU, RC, RCFCW, RR, SI, SSI, SER,");
    println!("         one per transaction type in program order; `;` separates");
    println!("         level vectors in a sweep, deduplicating diagnostics)");
    println!();
    println!("--refine runs the prover-backed SDG edge-refinement pass (semcc-refine):");
    println!("  lint/explore use the pruned dependence relation plus the static");
    println!("  deadlock predictor; certify attaches replayable pruning proofs.");
    println!();
    println!("exit codes: 0 clean, 1 diagnostics emitted, 2 usage/IO error");
}

fn load_app(path: &str) -> Result<App, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    semcc_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn cmd_export(args: &[String]) -> CmdResult {
    let [which, out] = args else {
        return Err("usage: semcc export <workload> <out.json>".into());
    };
    let app = match which.as_str() {
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

fn cmd_analyze(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("usage: semcc analyze <app.json> [--ansi]")?;
    let app = load_app(path)?;
    let ladder = if args.iter().any(|a| a == "--ansi") { ansi_ladder() } else { default_ladder() };
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

fn cmd_check(args: &[String]) -> CmdResult {
    let [path, txn, level_name] = args else {
        return Err("usage: semcc check <app.json> <transaction> <LEVEL>".into());
    };
    let app = load_app(path)?;
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
    if r.ok {
        Ok(Findings::Clean)
    } else {
        Ok(Findings::Diagnostics)
    }
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
        label.push(level_code(l));
    }
    Ok((m, label.join(",")))
}

/// The short code of a level (`RU`, `RC`, `RCFCW`, `RR`, `SI`, `SSI`,
/// `SER`).
fn level_code(l: IsolationLevel) -> &'static str {
    match l {
        IsolationLevel::ReadUncommitted => "RU",
        IsolationLevel::ReadCommitted => "RC",
        IsolationLevel::ReadCommittedFcw => "RCFCW",
        IsolationLevel::RepeatableRead => "RR",
        IsolationLevel::Snapshot => "SI",
        IsolationLevel::Ssi => "SSI",
        IsolationLevel::Serializable => "SER",
    }
}

fn cmd_lint(args: &[String]) -> CmdResult {
    let mut path: Option<&String> = None;
    let mut levels_arg: Option<&String> = None;
    let mut json_out = false;
    let mut witness = false;
    let mut refine = false;
    let mut jobs = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--levels" => {
                levels_arg = Some(it.next().ok_or("--levels needs a comma-separated list")?);
            }
            "--json" => json_out = true,
            "--witness" => witness = true,
            "--refine" => refine = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a number")?;
                jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
            }
            _ if path.is_none() => path = Some(a),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or(
        "usage: semcc lint <app.json> [--levels L1,L2,...[;...]] [--witness] [--refine] \
         [--jobs N] [--json]",
    )?;
    let app = load_app(path)?;
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
    if report.clean() {
        Ok(Findings::Clean)
    } else {
        Ok(Findings::Diagnostics)
    }
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
                        ("partner", d.partner.clone().map_or(Json::Null, Json::str)),
                        (
                            "statements",
                            Json::Arr(d.statements.iter().map(|s| Json::str(s.clone())).collect()),
                        ),
                        ("message", Json::str(d.message.clone())),
                        (
                            "levels",
                            Json::Arr(labels.iter().map(|l| Json::str(l.clone())).collect()),
                        ),
                    ])
                })
                .collect(),
        );
        let mut fields = vec![
            ("sweep", Json::Arr(vectors.iter().map(|(_, l)| Json::str(l.clone())).collect())),
            ("diagnostics", diags),
            ("clean", Json::Bool(!any)),
        ];
        if refine {
            fields.push((
                "deadlocks",
                Json::Arr(
                    advisories
                        .iter()
                        .map(|(a, labels)| {
                            let mut j = a.to_json();
                            if let Json::Obj(f) = &mut j {
                                f.push((
                                    "levels".to_string(),
                                    Json::Arr(
                                        labels.iter().map(|l| Json::str(l.clone())).collect(),
                                    ),
                                ));
                            }
                            j
                        })
                        .collect(),
                ),
            ));
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
            println!("{} {}", a.code, a.message);
            for line in &a.chain {
                println!("    {line}");
            }
            println!("    at levels: {}", labels.join("; "));
        }
        if !advisories.is_empty() {
            println!("(deadlock advisories are informational and do not affect the verdict)");
        }
    }
    if any {
        Ok(Findings::Diagnostics)
    } else {
        Ok(Findings::Clean)
    }
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
        println!("{} {}", a.code, a.message);
        for line in &a.chain {
            println!("    {line}");
        }
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
                            (
                                "premises",
                                Json::Arr(
                                    p.premises.iter().map(|s| Json::str(s.clone())).collect(),
                                ),
                            ),
                            ("obligations", Json::Int(p.obligations.len() as i64)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("deadlocks", advisories.to_json()),
    ])
}

fn cmd_explore(args: &[String]) -> CmdResult {
    let mut path: Option<&String> = None;
    let mut txns_arg: Option<&String> = None;
    let mut levels_arg: Option<&String> = None;
    let mut json_out = false;
    let mut faults_victim: Option<String> = None;
    let mut opts = ExploreOptions::default();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" => {
                // Optional victim (transaction name or instance index);
                // default: the first instance.
                faults_victim = Some(match it.peek() {
                    Some(v) if !v.starts_with("--") => it.next().expect("peeked").clone(),
                    _ => "0".to_string(),
                });
            }
            "--lock-timeout-ms" => {
                let v = it.next().ok_or("--lock-timeout-ms needs a number")?;
                opts.lock_timeout = Duration::from_millis(
                    v.parse().map_err(|_| format!("bad --lock-timeout-ms `{v}`"))?,
                );
            }
            "--txns" => txns_arg = Some(it.next().ok_or("--txns needs a comma-separated list")?),
            "--levels" => {
                levels_arg = Some(it.next().ok_or("--levels needs a comma-separated list")?);
            }
            "--max-depth" => {
                let v = it.next().ok_or("--max-depth needs a number")?;
                opts.max_depth = Some(v.parse().map_err(|_| format!("bad --max-depth `{v}`"))?);
            }
            "--max-schedules" => {
                let v = it.next().ok_or("--max-schedules needs a number")?;
                opts.max_schedules = v.parse().map_err(|_| format!("bad --max-schedules `{v}`"))?;
            }
            "--seed" => {
                let spec = it.next().ok_or("--seed needs item=VALUE or table.col=VALUE")?;
                let (target, value) = spec
                    .split_once('=')
                    .ok_or_else(|| format!("bad --seed `{spec}` (need `=`)"))?;
                let value: i64 =
                    value.parse().map_err(|_| format!("bad --seed value `{value}`"))?;
                match target.split_once('.') {
                    Some((table, col)) => {
                        opts.seed_cols.push((table.to_string(), col.to_string(), value));
                    }
                    None => opts.seed_items.push((target.to_string(), value)),
                }
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a number")?;
                opts.jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
            }
            "--refine" => opts.refine = true,
            "--json" => json_out = true,
            _ if path.is_none() => path = Some(a),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or(
        "usage: semcc explore <app.json> [--txns T1,T2[,T3]] [--levels L1,L2[,L3][;...]] \
         [--seed item=V|table.col=V]... [--max-depth N] [--max-schedules N] [--refine] \
         [--jobs N] [--json]",
    )?;
    let app = load_app(path)?;

    let names: Vec<String> = match txns_arg {
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
    let level_vectors: Vec<Vec<IsolationLevel>> = match levels_arg {
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
                .position(|n| n == &victim_arg)
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
        return if divergent_total > 0 { Ok(Findings::Diagnostics) } else { Ok(Findings::Clean) };
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
    if result.divergent > 0 || !diff.sound() {
        Ok(Findings::Diagnostics)
    } else {
        Ok(Findings::Clean)
    }
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

fn cmd_faultsim(args: &[String]) -> CmdResult {
    let mut path: Option<&String> = None;
    let mut json_out = false;
    let mut opts = FaultSimOptions::default();
    let mut seeds = 1u64;
    let mut jobs = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a count")?;
                seeds = v.parse().map_err(|_| format!("bad --seeds `{v}`"))?;
                if seeds == 0 {
                    return Err("--seeds needs at least 1".into());
                }
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a number")?;
                jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
            }
            "--txns" => {
                let v = it.next().ok_or("--txns needs a number")?;
                opts.txns = v.parse().map_err(|_| format!("bad --txns `{v}`"))?;
            }
            "--levels" => {
                let list = it.next().ok_or("--levels needs a comma-separated list")?;
                opts.levels =
                    list.split(',').map(|t| t.trim().parse()).collect::<Result<_, String>>()?;
            }
            "--mix" => {
                let list = it.next().ok_or(
                    "--mix needs CLASS=P,... (classes: lock-timeout, deadlock, fcw, \
                     abort-stmt, crash-before, crash-after, crash-mid-txn, torn-tail)",
                )?;
                let mut mix = FaultMix::default();
                for tok in list.split(',') {
                    let (name, p) = tok
                        .split_once('=')
                        .ok_or_else(|| format!("bad --mix entry `{tok}` (need `=`)"))?;
                    let p: f64 = p.parse().map_err(|_| format!("bad --mix rate `{tok}`"))?;
                    mix.set(name.trim(), p)?;
                }
                opts.mix = mix;
            }
            "--lock-timeout-ms" => {
                let v = it.next().ok_or("--lock-timeout-ms needs a number")?;
                opts.lock_timeout = Duration::from_millis(
                    v.parse().map_err(|_| format!("bad --lock-timeout-ms `{v}`"))?,
                );
            }
            "--max-attempts" => {
                let v = it.next().ok_or("--max-attempts needs a number")?;
                opts.policy.max_attempts =
                    v.parse().map_err(|_| format!("bad --max-attempts `{v}`"))?;
            }
            "--durable" => opts.durable = true,
            "--wal-flush-every" => {
                let v = it.next().ok_or("--wal-flush-every needs a record count")?;
                opts.wal_flush_every =
                    v.parse().map_err(|_| format!("bad --wal-flush-every `{v}`"))?;
                if opts.wal_flush_every == 0 {
                    return Err("--wal-flush-every needs at least 1".into());
                }
            }
            "--json" => json_out = true,
            _ if path.is_none() => path = Some(a),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or(
        "usage: semcc faultsim <app.json> [--seed N] [--seeds N] [--jobs N] [--txns N] \
         [--levels L1[,L2,...]] [--mix CLASS=P,...] [--lock-timeout-ms N] [--max-attempts N] \
         [--durable] [--wal-flush-every N] [--json]",
    )?;
    let app = load_app(path)?;

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
        return if violations == 0 { Ok(Findings::Clean) } else { Ok(Findings::Diagnostics) };
    }

    let report = simulate(&app, &opts)?;
    if json_out {
        println!("{}", faultsim_json(&report).to_pretty());
    } else {
        print_faultsim(&report);
    }
    if report.clean() {
        Ok(Findings::Clean)
    } else {
        Ok(Findings::Diagnostics)
    }
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
        let mut lats = r.recovery_latencies_us.clone();
        lats.sort_unstable();
        let pct = |p: f64| lats[((lats.len() - 1) as f64 * p) as usize];
        println!(
            "  recovery latency      p50 {}µs  p99 {}µs  ({} retried commits)",
            pct(0.50),
            pct(0.99),
            lats.len()
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
            Json::obj(
                r.aborts_by_class
                    .iter()
                    .map(|(c, n)| (c.name().to_string(), Json::Int(*n as i64)))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("injected", Json::Int(r.injected as i64)),
        (
            "injected_by_kind",
            Json::obj(
                r.injected_by_kind
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::Int(*n as i64)))
                    .collect::<Vec<_>>(),
            ),
        ),
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
        (
            "crashes_by_class",
            Json::obj(
                r.crashes_by_class
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::Int(*n as i64)))
                    .collect::<Vec<_>>(),
            ),
        ),
        ("recovery_redo", Json::Int(r.recovery_redo as i64)),
        ("recovery_undone", Json::Int(r.recovery_undone as i64)),
        ("violations", Json::Arr(r.violations.iter().map(|v| Json::str(v.clone())).collect())),
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
            Json::obj(
                r.anomaly_counts
                    .iter()
                    .map(|(k, n)| (k.to_string(), Json::Int(*n as i64)))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "divergent_examples",
            Json::Arr(
                r.divergent_examples
                    .iter()
                    .map(|ex| {
                        Json::obj([
                            (
                                "steps",
                                Json::Arr(ex.steps.iter().map(|s| Json::str(s.clone())).collect()),
                            ),
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
                    (
                        "schedule",
                        Json::Arr(w.schedule.iter().map(|s| Json::str(s.clone())).collect()),
                    ),
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
                    (
                        "a_reads_b_writes",
                        Json::Arr(
                            d.a_reads_b_writes.iter().map(|s| Json::str(s.clone())).collect(),
                        ),
                    ),
                    (
                        "b_reads_a_writes",
                        Json::Arr(
                            d.b_reads_a_writes.iter().map(|s| Json::str(s.clone())).collect(),
                        ),
                    ),
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
                    ("partner", d.partner.clone().map_or(Json::Null, Json::str)),
                    (
                        "statements",
                        Json::Arr(d.statements.iter().map(|s| Json::str(s.clone())).collect()),
                    ),
                    (
                        "provenance",
                        Json::Arr(d.provenance.iter().map(|s| Json::str(s.clone())).collect()),
                    ),
                    (
                        "counterexample",
                        Json::obj(
                            d.counterexample
                                .iter()
                                .map(|(v, x)| (v.clone(), Json::Int(*x)))
                                .collect::<Vec<_>>(),
                        ),
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
                    ("items", Json::Arr(e.items.iter().map(|s| Json::str(s.clone())).collect())),
                    ("tables", Json::Arr(e.tables.iter().map(|s| Json::str(s.clone())).collect())),
                    (
                        "from_stmts",
                        Json::Arr(e.from_stmts.iter().map(|&i| Json::Int(i as i64)).collect()),
                    ),
                    (
                        "to_stmts",
                        Json::Arr(e.to_stmts.iter().map(|&i| Json::Int(i as i64)).collect()),
                    ),
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

fn cmd_verify(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("usage: semcc verify <app.json>")?;
    let app = load_app(path)?;
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
        Ok(Findings::Clean)
    } else {
        Ok(Findings::Diagnostics)
    }
}

fn cmd_obligations(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("usage: semcc obligations <app.json>")?;
    let app = load_app(path)?;
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

fn cmd_certify(args: &[String]) -> CmdResult {
    let mut path: Option<&String> = None;
    let mut out: Option<&String> = None;
    let mut refine = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a file path")?),
            "--refine" => refine = true,
            _ if path.is_none() => path = Some(a),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or("usage: semcc certify <app.json> [--refine] [--out cert.json]")?;
    let app = load_app(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("app")
        .to_string();
    let mut cert = certify_app(&app, &name, semcc_txn::symexec::SymOptions::default())
        .map_err(|e| format!("certification failed: {e}"))?;
    if refine {
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
    if let Some(out) = out {
        std::fs::write(out, semcc_json::to_string_pretty(&cert))
            .map_err(|e| format!("writing {out}: {e}"))?;
        println!("wrote certificate to {out}");
    }
    Ok(findings)
}

fn cmd_verify_cert(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("usage: semcc verify-cert <cert.json>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let cert: semcc_cert::Certificate =
        semcc_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
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
fn cmd_synth(args: &[String]) -> CmdResult {
    let mut path: Option<&String> = None;
    let mut out: Option<&String> = None;
    let mut cert_out: Option<&String> = None;
    let mut json_out = false;
    let mut witnesses = true;
    let mut jobs = 1usize;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = Some(it.next().ok_or("--out needs a file path")?),
            "--cert" => cert_out = Some(it.next().ok_or("--cert needs a file path")?),
            "--json" => json_out = true,
            "--no-witness" => witnesses = false,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a number")?;
                jobs = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
            }
            _ if path.is_none() => path = Some(a),
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    let path = path.ok_or(
        "usage: semcc synth <app.json> [--out policy.json] [--cert cert.json] [--no-witness] \
         [--jobs N] [--json]",
    )?;
    let app = load_app(path)?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("app")
        .to_string();
    let opts = semcc_synth::SynthOptions { jobs, witnesses, ..Default::default() };
    let syn = semcc_synth::synthesize(&app, &opts)?;
    let greedy = assign_levels(&app, &default_ladder());
    let cert = semcc_synth::policy::synth_certificate(&app, &name, &syn);
    let digest = semcc_synth::policy::certificate_digest(&cert);
    let primary = syn.primary();
    let level_map: BTreeMap<String, IsolationLevel> =
        syn.txns.iter().cloned().zip(primary.levels.iter().cloned()).collect();
    let advisories = semcc_refine::predict_deadlocks(&app, &level_map);
    let policy = semcc_synth::policy_json(&name, &syn, &greedy, &advisories, &digest);
    if let Some(cert_out) = cert_out {
        std::fs::write(cert_out, semcc_json::to_string_pretty(&cert))
            .map_err(|e| format!("writing {cert_out}: {e}"))?;
    }
    if let Some(out) = out {
        std::fs::write(out, policy.to_pretty()).map_err(|e| format!("writing {out}: {e}"))?;
    }
    if json_out {
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

fn cmd_serve(args: &[String]) -> CmdResult {
    use semcc_serve::{bench, AdmissionPolicy, Mix};
    let usage = "usage: semcc serve --policy policy.json [--policy more.json]... [--bench] \
                 [--mix banking|orders|payroll|mixed] [--workers N] [--txns N] [--seed N] \
                 [--scale N] [--lock-timeout-ms N] [--max-attempts N] [--single-lock] \
                 [--inject-panics] [--json]";
    let mut policies: Vec<String> = Vec::new();
    let mut run_bench = false;
    let mut json_out = false;
    let mut cfg = bench::BenchConfig::default();
    let mut mix_flag: Option<Mix> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut num = |flag: &str| -> Result<u64, String> {
            let v = it.next().ok_or(format!("{flag} needs a number"))?;
            v.parse().map_err(|_| format!("bad {flag} `{v}`"))
        };
        match a.as_str() {
            "--policy" => {
                policies.push(it.next().ok_or("--policy needs a file path")?.clone());
            }
            "--bench" => run_bench = true,
            "--json" => json_out = true,
            "--single-lock" => cfg.single_lock = true,
            "--inject-panics" => cfg.inject_panics = true,
            "--mix" => {
                let v = it.next().ok_or("--mix needs a value")?;
                mix_flag = Some(
                    Mix::parse(v)
                        .ok_or(format!("bad --mix `{v}` (banking|orders|payroll|mixed)"))?,
                );
            }
            "--workers" => cfg.workers = num("--workers")?.max(1) as usize,
            "--txns" => cfg.txns_per_worker = num("--txns")? as usize,
            "--seed" => cfg.seed = num("--seed")?,
            "--scale" => cfg.scale = num("--scale")?.max(2) as usize,
            "--lock-timeout-ms" => {
                cfg.lock_timeout = Duration::from_millis(num("--lock-timeout-ms")?.max(1))
            }
            "--max-attempts" => cfg.max_attempts = num("--max-attempts")?.max(1) as usize,
            other => return Err(format!("unexpected argument `{other}`\n{usage}")),
        }
    }
    if policies.is_empty() {
        return Err(usage.to_string());
    }
    // Digest verification happens at load; a tampered artifact is a hard
    // error (exit 2) — the server must not start without a proof-backed
    // level assignment.
    let policy = AdmissionPolicy::load_all(policies.iter().map(String::as_str))
        .map_err(|e| e.to_string())?;
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
    if !run_bench {
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
    if json_out {
        println!("{}", bench::json_report(&cfg, &report).to_pretty());
    } else {
        print!("{}", bench::human_report(&cfg, &report));
    }
    if report.violations.is_empty() && report.quiescent {
        Ok(Findings::Clean)
    } else {
        Ok(Findings::Diagnostics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_app(name: &str, which: &str) -> String {
        let dir = std::env::temp_dir().join("semcc_cli_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join(name);
        let path_s = path.to_str().expect("utf8").to_string();
        cmd_export(&[which.to_string(), path_s.clone()]).expect("export");
        path_s
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
    fn export_analyze_check_flow() {
        let path_s = tmp_app("bank.json", "banking");
        // Banking's withdrawals are snapshot-unsafe: analyze reports it.
        assert_eq!(cmd_analyze(std::slice::from_ref(&path_s)), Ok(Findings::Diagnostics));
        assert_eq!(cmd_verify(std::slice::from_ref(&path_s)), Ok(Findings::Clean));
        assert_eq!(cmd_obligations(std::slice::from_ref(&path_s)), Ok(Findings::Clean));
        // A passing check:
        assert_eq!(
            cmd_check(&[path_s.clone(), "Withdraw_sav".into(), "REPEATABLE READ".into()]),
            Ok(Findings::Clean)
        );
        // A rejected level is a diagnostic, not an error:
        assert_eq!(
            cmd_check(&[path_s, "Withdraw_sav".into(), "SNAPSHOT".into()]),
            Ok(Findings::Diagnostics)
        );
    }

    #[test]
    fn lint_exit_semantics() {
        // Banking default lint: write-skew advisory => diagnostics (exit 1).
        let bank = tmp_app("bank_lint.json", "banking");
        assert_eq!(cmd_lint(std::slice::from_ref(&bank)), Ok(Findings::Diagnostics));
        assert_eq!(cmd_lint(&[bank.clone(), "--json".into()]), Ok(Findings::Diagnostics));
        // Orders at its T2-assigned mixed levels lints clean (exit 0).
        let ord = tmp_app("orders_lint.json", "orders");
        assert_eq!(
            cmd_lint(&[ord.clone(), "--levels".into(), "RU,RC,RC,RR,SER".into()]),
            Ok(Findings::Clean)
        );
        // Usage errors are errors (exit 2), not diagnostics.
        assert!(cmd_lint(&[ord.clone(), "--levels".into(), "RU".into()]).is_err());
        assert!(cmd_lint(&[ord, "--levels".into(), "BOGUS,RC,RC,RR,SER".into()]).is_err());
        assert!(cmd_lint(&["/nonexistent/x.json".to_string()]).is_err());
    }

    #[test]
    fn lint_json_shape() {
        let bank = tmp_app("bank_lint_json.json", "banking");
        let app = load_app(&bank).expect("load");
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
        assert!(load_app("/nonexistent/x.json").is_err());
        assert!(cmd_export(&["nope".to_string(), "/tmp/x.json".to_string()]).is_err());
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
            let p = p.to_str().expect("utf8").to_string();
            assert!(load_app(&p).is_err(), "{name}");
            assert!(cmd_lint(std::slice::from_ref(&p)).is_err(), "{name}");
            assert!(cmd_analyze(std::slice::from_ref(&p)).is_err(), "{name}");
            assert!(cmd_certify(std::slice::from_ref(&p)).is_err(), "{name}");
            assert!(cmd_verify_cert(std::slice::from_ref(&p)).is_err(), "{name}");
            assert!(cmd_synth(std::slice::from_ref(&p)).is_err(), "{name}");
            assert!(cmd_serve(&["--policy".to_string(), p.clone()]).is_err(), "{name}");
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
            cmd_certify(&[app.clone(), "--refine".into(), "--out".into(), cert.clone()])
                .expect("certify");
            let synth_args =
                [app.clone(), "--out".into(), policy.clone(), "--cert".into(), synth.clone()];
            cmd_synth(&synth_args).expect("synth");
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
        let args = |out: &std::path::Path| {
            vec![
                app.clone(),
                "--out".into(),
                out.to_str().unwrap().to_string(),
                "--cert".into(),
                cert.to_str().unwrap().to_string(),
            ]
        };
        assert_eq!(cmd_synth(&args(&policy1)), Ok(Findings::Clean));
        let c1 = std::fs::read_to_string(&cert).expect("cert written");
        assert_eq!(cmd_synth(&args(&policy2)), Ok(Findings::Clean));
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
        assert_eq!(
            cmd_certify(&[bank, "--out".into(), cert_path.clone()]),
            Ok(Findings::Diagnostics)
        );
        // The independent checker accepts the freshly-emitted certificate.
        assert_eq!(cmd_verify_cert(std::slice::from_ref(&cert_path)), Ok(Findings::Clean));
        // A tampered certificate (flip one report's ok flag) is rejected.
        let text = std::fs::read_to_string(&cert_path).expect("read");
        let mut cert: semcc_cert::Certificate = semcc_json::from_str(&text).expect("parse");
        if let Some(r) = cert.reports.iter_mut().find(|r| !r.ok) {
            r.ok = true;
        }
        let tampered = dir.join("bank_cert_tampered.json").to_str().expect("utf8").to_string();
        std::fs::write(&tampered, semcc_json::to_string_pretty(&cert)).expect("write");
        assert_eq!(cmd_verify_cert(std::slice::from_ref(&tampered)), Ok(Findings::Diagnostics));
    }

    #[test]
    fn explore_exit_semantics_on_the_paper_examples() {
        // Example 2 (payroll): dirty read at RU => DIVERGENT (exit 1);
        // CLEAN at SERIALIZABLE (exit 0).
        let pay = tmp_app("pay_explore.json", "payroll");
        let base = vec![
            pay.clone(),
            "--txns".into(),
            "Hours,Print_Records".into(),
            "--seed".into(),
            "emp.rate=10".into(),
        ];
        let with_levels = |lv: &str| {
            let mut v = base.clone();
            v.push("--levels".into());
            v.push(lv.into());
            v
        };
        assert_eq!(cmd_explore(&with_levels("RU,RU")), Ok(Findings::Diagnostics));
        assert_eq!(cmd_explore(&with_levels("SER,SER")), Ok(Findings::Clean));
        // Example 3 (banking): write skew at SNAPSHOT, clean at RR.
        let bank = tmp_app("bank_explore.json", "banking");
        let bank_args = |lv: &str| {
            vec![
                bank.clone(),
                "--txns".into(),
                "Withdraw_sav,Withdraw_ch".into(),
                "--levels".into(),
                lv.into(),
            ]
        };
        assert_eq!(cmd_explore(&bank_args("SI,SI")), Ok(Findings::Diagnostics));
        assert_eq!(cmd_explore(&bank_args("RR,RR")), Ok(Findings::Clean));
        // JSON mode reports the same verdict.
        let mut json_args = bank_args("SI,SI");
        json_args.push("--json".into());
        assert_eq!(cmd_explore(&json_args), Ok(Findings::Diagnostics));
    }

    #[test]
    fn explore_usage_errors() {
        let bank = tmp_app("bank_explore_usage.json", "banking");
        // 4 types and no --txns: must ask the user to pick.
        assert!(cmd_explore(std::slice::from_ref(&bank)).is_err());
        // Level count mismatch.
        assert!(cmd_explore(&[
            bank.clone(),
            "--txns".into(),
            "Withdraw_sav,Withdraw_ch".into(),
            "--levels".into(),
            "SI".into(),
        ])
        .is_err());
        // Unknown transaction.
        assert!(cmd_explore(&[
            bank.clone(),
            "--txns".into(),
            "Nope,Withdraw_ch".into(),
            "--levels".into(),
            "SI,SI".into(),
        ])
        .is_err());
        // Malformed --seed.
        assert!(cmd_explore(&[
            bank,
            "--txns".into(),
            "Withdraw_sav,Withdraw_ch".into(),
            "--seed".into(),
            "emp.rate".into(),
        ])
        .is_err());
    }

    #[test]
    fn lint_witness_flag_replays() {
        let bank = tmp_app("bank_witness.json", "banking");
        assert_eq!(cmd_lint(&[bank.clone(), "--witness".into()]), Ok(Findings::Diagnostics));
        assert_eq!(
            cmd_lint(&[bank, "--witness".into(), "--json".into()]),
            Ok(Findings::Diagnostics)
        );
    }

    #[test]
    fn lint_refine_keeps_verdicts() {
        // Refinement deletes only proven-infeasible edges, so lint verdicts
        // are unchanged: orders stays clean, banking stays diagnosed.
        let ord = tmp_app("orders_refine_lint.json", "orders");
        assert_eq!(cmd_lint(&[ord.clone(), "--refine".into()]), Ok(Findings::Clean));
        assert_eq!(cmd_lint(&[ord, "--refine".into(), "--json".into()]), Ok(Findings::Clean));
        let bank = tmp_app("bank_refine_lint.json", "banking");
        assert_eq!(cmd_lint(&[bank, "--refine".into()]), Ok(Findings::Diagnostics));
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
        // Satellite: per-edge provenance in lint --json (statement indices,
        // footprint items, creating rule).
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
    fn lint_sweep_dedupes_and_keeps_exit_semantics() {
        let bank = tmp_app("bank_sweep.json", "banking");
        // SI vector diagnoses write skew; RR vector is clean. The sweep
        // reports the deduplicated union => diagnostics.
        assert_eq!(
            cmd_lint(&[bank.clone(), "--levels".into(), "SI,SI,SI,SI;RR,RR,RR,RR".into()]),
            Ok(Findings::Diagnostics)
        );
        assert_eq!(
            cmd_lint(&[
                bank.clone(),
                "--levels".into(),
                "SI,SI,SI,SI;RR,RR,RR,RR".into(),
                "--json".into(),
            ]),
            Ok(Findings::Diagnostics)
        );
        // Both vectors clean => clean.
        assert_eq!(
            cmd_lint(&[bank.clone(), "--levels".into(), "RR,RR,RR,RR;SER,SER,SER,SER".into()]),
            Ok(Findings::Clean)
        );
        // Witness replay is per-vector; combining it with a sweep is a
        // usage error, not a silent ignore.
        assert!(cmd_lint(&[
            bank,
            "--levels".into(),
            "SI,SI,SI,SI;RR,RR,RR,RR".into(),
            "--witness".into(),
        ])
        .is_err());
    }

    #[test]
    fn explore_refine_exit_semantics_match_base() {
        // The refined dependence relation must not change any verdict on
        // the paper examples — only shrink the schedule space.
        let pay = tmp_app("pay_explore_refine.json", "payroll");
        let pay_args = |lv: &str| {
            vec![
                pay.clone(),
                "--txns".into(),
                "Hours,Print_Records".into(),
                "--seed".into(),
                "emp.rate=10".into(),
                "--levels".into(),
                lv.into(),
                "--refine".into(),
            ]
        };
        assert_eq!(cmd_explore(&pay_args("RU,RU")), Ok(Findings::Diagnostics));
        assert_eq!(cmd_explore(&pay_args("SER,SER")), Ok(Findings::Clean));
        let bank = tmp_app("bank_explore_refine.json", "banking");
        let bank_args = |lv: &str| {
            vec![
                bank.clone(),
                "--txns".into(),
                "Withdraw_sav,Withdraw_ch".into(),
                "--levels".into(),
                lv.into(),
                "--refine".into(),
            ]
        };
        assert_eq!(cmd_explore(&bank_args("SI,SI")), Ok(Findings::Diagnostics));
        assert_eq!(cmd_explore(&bank_args("RR,RR")), Ok(Findings::Clean));
    }

    #[test]
    fn certify_refine_attaches_replayable_prunes() {
        let ord = tmp_app("orders_cert_refine.json", "orders");
        let dir = std::env::temp_dir().join("semcc_cli_test");
        let cert_path = dir.join("orders_cert_refine_out.json").to_str().expect("utf8").to_string();
        cmd_certify(&[ord, "--refine".into(), "--out".into(), cert_path.clone()]).expect("certify");
        let text = std::fs::read_to_string(&cert_path).expect("read");
        let cert: semcc_cert::Certificate = semcc_json::from_str(&text).expect("parse");
        assert!(!cert.prunes.is_empty(), "refined certificate carries prunes");
        // The independent checker replays the pruning proofs.
        assert_eq!(cmd_verify_cert(std::slice::from_ref(&cert_path)), Ok(Findings::Clean));
        let report = semcc_cert::verify(&cert);
        assert!(report.prune_proofs >= cert.prunes.len());
        // Strip a prune's obligations: the checker must reject it.
        let mut tampered = cert;
        tampered.prunes[0].obligations.clear();
        let tp = dir.join("orders_cert_refine_bad.json").to_str().expect("utf8").to_string();
        std::fs::write(&tp, semcc_json::to_string_pretty(&tampered)).expect("write");
        assert_eq!(cmd_verify_cert(std::slice::from_ref(&tp)), Ok(Findings::Diagnostics));
    }
}
