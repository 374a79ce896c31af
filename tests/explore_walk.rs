//! The schedule-space explorer's answers, pinned.
//!
//! The 62 cells are the `explore_dpor` benchmark's list (8 transaction
//! groups at each of the 7 uniform level vectors, plus 6 mixed vectors;
//! payroll seeded with `emp.rate = 10` so its broken invariant is
//! observable). For each cell the test pins the FNV-1a of every
//! `ExploreResult` field except the two cost counters (`replays`,
//! `events`): schedule counts, anomaly tallies, the divergent examples
//! step by step, the serial reference set and the truncation flag. The
//! constants were recorded at commit `515e219`, before the explorer's
//! tree walk became a live depth-first walk, so a change to how schedules
//! are executed must leave every answer where it was.
//!
//! The injected-abort sweeps of the paper's Examples 2 and 3 are pinned the
//! same way, truncated runs must be identical at one and two workers, and
//! the walk must execute each event about once per explored schedule.

use semcc::analysis::App;
use semcc::engine::IsolationLevel;
use semcc::logic::hash::fnv1a;
use semcc::workloads::{banking, orders, payroll};
use semcc_explore::{explore, explore_with_aborts, specs_for, ExploreOptions, ExploreResult};
use IsolationLevel::{
    ReadCommitted as RC, ReadCommittedFcw as RCF, ReadUncommitted as RU, RepeatableRead as RR,
    Serializable as SER, Snapshot as SNAP, Ssi as SSI,
};

/// Transaction groups explored at each of the seven uniform level vectors
/// (the index is into [`apps`]).
const UNIFORM: [(usize, &[&str]); 8] = [
    (1, &["Hours", "Print_Records"]),
    (0, &["Withdraw_sav", "Withdraw_ch"]),
    (0, &["Withdraw_sav", "Withdraw_ch", "Deposit_sav"]),
    (0, &["Withdraw_sav", "Deposit_sav", "Deposit_ch"]),
    (0, &["Withdraw_sav", "Withdraw_sav", "Deposit_ch"]),
    (2, &["Mailing_List", "New_Order", "Delivery"]),
    (2, &["Mailing_List_strict", "Delivery", "Audit"]),
    (1, &["Hours", "Print_Records", "Payroll_Report"]),
];

/// Mixed level vectors: the synthesized assignments and their neighbours.
const MIXED: [(usize, &[&str], &[IsolationLevel]); 6] = [
    (0, &["Withdraw_sav", "Withdraw_ch"], &[RR, SNAP]),
    (0, &["Withdraw_sav", "Withdraw_ch"], &[SSI, SNAP]),
    (0, &["Withdraw_sav", "Deposit_sav"], &[RR, RCF]),
    (0, &["Withdraw_sav", "Withdraw_ch", "Deposit_sav"], &[RR, RR, RCF]),
    (1, &["Hours", "Print_Records"], &[RC, RU]),
    (2, &["Mailing_List", "New_Order", "Delivery"], &[RU, RC, RR]),
];

/// `(cell, digest)` in cell order.
const GOLDEN: &[(&str, u64)] = &[
    ("payroll:Hours,Print_Records@RU,RU", 0xf8acdd850f9f2ae3),
    ("payroll:Hours,Print_Records@RC,RC", 0x1839e00294e356dc),
    ("payroll:Hours,Print_Records@RC+FCW,RC+FCW", 0x616530ef927adda0),
    ("payroll:Hours,Print_Records@RR,RR", 0x503c8a7b5efd907b),
    ("payroll:Hours,Print_Records@SNAP,SNAP", 0x000456266deab21b),
    ("payroll:Hours,Print_Records@SSI,SSI", 0x4bb870c8a0671245),
    ("payroll:Hours,Print_Records@SER,SER", 0x65e49330f3652ff7),
    ("banking:Withdraw_sav,Withdraw_ch@RU,RU", 0x406048d7c71168ae),
    ("banking:Withdraw_sav,Withdraw_ch@RC,RC", 0xe5e46392b2c01a18),
    ("banking:Withdraw_sav,Withdraw_ch@RC+FCW,RC+FCW", 0x9f4c5c9e3228d99c),
    ("banking:Withdraw_sav,Withdraw_ch@RR,RR", 0xfa7d294f647e2d73),
    ("banking:Withdraw_sav,Withdraw_ch@SNAP,SNAP", 0x709d82d3bf9603de),
    ("banking:Withdraw_sav,Withdraw_ch@SSI,SSI", 0x7e41a39988406f1a),
    ("banking:Withdraw_sav,Withdraw_ch@SER,SER", 0x60a1a1de01b70df7),
    ("banking:Withdraw_sav,Withdraw_ch,Deposit_sav@RU,RU,RU", 0x8b59c42bba6e4bc0),
    ("banking:Withdraw_sav,Withdraw_ch,Deposit_sav@RC,RC,RC", 0x7c5904a2a8355873),
    ("banking:Withdraw_sav,Withdraw_ch,Deposit_sav@RC+FCW,RC+FCW,RC+FCW", 0x73fcc0a395264fb9),
    ("banking:Withdraw_sav,Withdraw_ch,Deposit_sav@RR,RR,RR", 0x6068d659cedc9e26),
    ("banking:Withdraw_sav,Withdraw_ch,Deposit_sav@SNAP,SNAP,SNAP", 0xf9320a5ad59691f5),
    ("banking:Withdraw_sav,Withdraw_ch,Deposit_sav@SSI,SSI,SSI", 0x71ff0eec6bbf17f4),
    ("banking:Withdraw_sav,Withdraw_ch,Deposit_sav@SER,SER,SER", 0xb964af96399594d6),
    ("banking:Withdraw_sav,Deposit_sav,Deposit_ch@RU,RU,RU", 0x6773ec71e2d10c91),
    ("banking:Withdraw_sav,Deposit_sav,Deposit_ch@RC,RC,RC", 0xf2da076675e761f6),
    ("banking:Withdraw_sav,Deposit_sav,Deposit_ch@RC+FCW,RC+FCW,RC+FCW", 0xc5b82147fce72ec1),
    ("banking:Withdraw_sav,Deposit_sav,Deposit_ch@RR,RR,RR", 0x67063cafc43fca60),
    ("banking:Withdraw_sav,Deposit_sav,Deposit_ch@SNAP,SNAP,SNAP", 0x416cbedb4d986313),
    ("banking:Withdraw_sav,Deposit_sav,Deposit_ch@SSI,SSI,SSI", 0xea46e277b5b4181c),
    ("banking:Withdraw_sav,Deposit_sav,Deposit_ch@SER,SER,SER", 0xe1825b52b940d19c),
    ("banking:Withdraw_sav,Withdraw_sav,Deposit_ch@RU,RU,RU", 0x23919a0f13e0abe9),
    ("banking:Withdraw_sav,Withdraw_sav,Deposit_ch@RC,RC,RC", 0xeb91b6c0f99e5436),
    ("banking:Withdraw_sav,Withdraw_sav,Deposit_ch@RC+FCW,RC+FCW,RC+FCW", 0xe81869528bd8cca7),
    ("banking:Withdraw_sav,Withdraw_sav,Deposit_ch@RR,RR,RR", 0x0f5e4cd762ef69dd),
    ("banking:Withdraw_sav,Withdraw_sav,Deposit_ch@SNAP,SNAP,SNAP", 0x37ce4da67987fcb0),
    ("banking:Withdraw_sav,Withdraw_sav,Deposit_ch@SSI,SSI,SSI", 0x44246cc24360053e),
    ("banking:Withdraw_sav,Withdraw_sav,Deposit_ch@SER,SER,SER", 0xc97e82ac000f886d),
    ("orders:Mailing_List,New_Order,Delivery@RU,RU,RU", 0xc6c017def2c7dc76),
    ("orders:Mailing_List,New_Order,Delivery@RC,RC,RC", 0x936459891cc1767b),
    ("orders:Mailing_List,New_Order,Delivery@RC+FCW,RC+FCW,RC+FCW", 0xaaf0e9b432f06301),
    ("orders:Mailing_List,New_Order,Delivery@RR,RR,RR", 0xab6c3572f8083893),
    ("orders:Mailing_List,New_Order,Delivery@SNAP,SNAP,SNAP", 0xbfb0a381ef0a90a2),
    ("orders:Mailing_List,New_Order,Delivery@SSI,SSI,SSI", 0x083a14639aa302e2),
    ("orders:Mailing_List,New_Order,Delivery@SER,SER,SER", 0xc22edc49903d50ad),
    ("orders:Mailing_List_strict,Delivery,Audit@RU,RU,RU", 0xc28129f864daccf3),
    ("orders:Mailing_List_strict,Delivery,Audit@RC,RC,RC", 0x4bc7527e6b1dee74),
    ("orders:Mailing_List_strict,Delivery,Audit@RC+FCW,RC+FCW,RC+FCW", 0xf5a0a5db426312e6),
    ("orders:Mailing_List_strict,Delivery,Audit@RR,RR,RR", 0x76dff4efcc557d86),
    ("orders:Mailing_List_strict,Delivery,Audit@SNAP,SNAP,SNAP", 0x0db6656e6e5e3945),
    ("orders:Mailing_List_strict,Delivery,Audit@SSI,SSI,SSI", 0x4b319b98c442b87a),
    ("orders:Mailing_List_strict,Delivery,Audit@SER,SER,SER", 0x1b889323c9ec928a),
    ("payroll:Hours,Print_Records,Payroll_Report@RU,RU,RU", 0x4826299e1da622eb),
    ("payroll:Hours,Print_Records,Payroll_Report@RC,RC,RC", 0xfc6807137cfda34c),
    ("payroll:Hours,Print_Records,Payroll_Report@RC+FCW,RC+FCW,RC+FCW", 0x24ca461795c44ee6),
    ("payroll:Hours,Print_Records,Payroll_Report@RR,RR,RR", 0x303158f90a36e105),
    ("payroll:Hours,Print_Records,Payroll_Report@SNAP,SNAP,SNAP", 0x9cd5547e9cd83c73),
    ("payroll:Hours,Print_Records,Payroll_Report@SSI,SSI,SSI", 0x5ba20c7e8c7da378),
    ("payroll:Hours,Print_Records,Payroll_Report@SER,SER,SER", 0x2b6540a3ff8ddc59),
    ("banking:Withdraw_sav,Withdraw_ch@RR,SNAP", 0xfe0842090efbb7eb),
    ("banking:Withdraw_sav,Withdraw_ch@SSI,SNAP", 0x8a00511a1564d2d2),
    ("banking:Withdraw_sav,Deposit_sav@RR,RC+FCW", 0x9db4e045cdd03f82),
    ("banking:Withdraw_sav,Withdraw_ch,Deposit_sav@RR,RR,RC+FCW", 0x7d3ad3e71c54bbba),
    ("payroll:Hours,Print_Records@RC,RU", 0xe14130c886c38913),
    ("orders:Mailing_List,New_Order,Delivery@RU,RC,RR", 0xc75a617b9fe665ab),
];

/// `(sweep, digest)` for the injected-abort sweeps (victim: the first
/// program).
const GOLDEN_ABORTS: &[(&str, u64)] = &[
    ("payroll:Hours@RU", 0x4b6eefc9a854c5a0),
    ("payroll:Hours@RC", 0xb9c823a894ce79a3),
    ("banking:Withdraw_sav@RU", 0xcc8f60a467c6da78),
    ("banking:Withdraw_sav@RC", 0x7c070f31f23194b9),
];

struct Cell {
    key: String,
    app: usize,
    names: Vec<String>,
    levels: Vec<IsolationLevel>,
}

fn apps() -> [(&'static str, App); 3] {
    [("banking", banking::app()), ("payroll", payroll::app()), ("orders", orders::app(false))]
}

fn short(level: IsolationLevel) -> &'static str {
    match level {
        RU => "RU",
        RC => "RC",
        RCF => "RC+FCW",
        RR => "RR",
        SNAP => "SNAP",
        SSI => "SSI",
        SER => "SER",
    }
}

fn cells() -> Vec<Cell> {
    let names = apps().map(|(name, _)| name);
    let mut cells = Vec::new();
    let mut push = |app: usize, group: &[&str], levels: Vec<IsolationLevel>| {
        let key = format!(
            "{}:{}@{}",
            names[app],
            group.join(","),
            levels.iter().map(|l| short(*l)).collect::<Vec<_>>().join(",")
        );
        let names = group.iter().map(|n| n.to_string()).collect();
        cells.push(Cell { key, app, names, levels });
    };
    for (app, group) in UNIFORM {
        for level in IsolationLevel::ALL {
            push(app, group, vec![level; group.len()]);
        }
    }
    for (app, group, levels) in MIXED {
        push(app, group, levels.to_vec());
    }
    cells
}

/// The options `explore_dpor` runs a cell with.
fn cell_opts(app: usize) -> ExploreOptions {
    let seed_cols = if app == 1 { vec![("emp".into(), "rate".into(), 10)] } else { Vec::new() };
    ExploreOptions { seed_cols, ..ExploreOptions::default() }
}

fn run_cell(apps: &[(&str, App)], cell: &Cell, opts: &ExploreOptions) -> ExploreResult {
    let app = &apps[cell.app].1;
    let specs = specs_for(app, &cell.names, &cell.levels).expect("cell names a bundled program");
    explore(app, &specs, opts).unwrap_or_else(|e| panic!("{}: {e}", cell.key))
}

/// Every answer field of a result, without the cost counters.
fn digest(r: &ExploreResult) -> u64 {
    let ExploreResult {
        txns,
        levels,
        total_events,
        naive_schedules,
        explored,
        blocked,
        infeasible,
        divergent,
        divergent_examples,
        anomaly_counts,
        serial_orders,
        serial_errors,
        truncated,
        ..
    } = r;
    let text = format!(
        "{txns:?}|{levels:?}|{total_events}|{naive_schedules}|{explored}|{blocked}|{infeasible}|\
         {divergent}|{divergent_examples:?}|{anomaly_counts:?}|{serial_orders}|{serial_errors}|\
         {truncated}"
    );
    fnv1a(text.as_bytes())
}

/// Compare `(name, digest)` pairs against a golden table, printing the
/// whole table on a mismatch so a deliberate re-recording is one paste.
fn check(what: &str, got: &[(String, u64)], golden: &[(&str, u64)]) {
    let want: Vec<(String, u64)> = golden.iter().map(|(k, d)| (k.to_string(), *d)).collect();
    if got != want.as_slice() {
        let table: String =
            got.iter().map(|(k, d)| format!("    (\"{k}\", {d:#018x}),\n")).collect();
        let moved: Vec<&str> = got
            .iter()
            .filter(|(k, d)| !want.iter().any(|(wk, wd)| wk == k && wd == d))
            .map(|(k, _)| k.as_str())
            .collect();
        panic!("{what}: {} entries moved {moved:?}; now:\n{table}", moved.len());
    }
}

#[test]
fn explore_dpor_cells_are_the_parents() {
    let apps = apps();
    let got: Vec<(String, u64)> = cells()
        .iter()
        .map(|c| (c.key.clone(), digest(&run_cell(&apps, c, &cell_opts(c.app)))))
        .collect();
    assert_eq!(got.len(), 62);
    check("explore_dpor cells", &got, GOLDEN);
}

#[test]
fn abort_sweeps_of_examples_2_and_3_are_the_parents() {
    let apps = apps();
    let mut got = Vec::new();
    for (app, names) in [(1, ["Hours", "Print_Records"]), (0, ["Withdraw_sav", "Withdraw_ch"])] {
        for level in [RU, RC] {
            let the_app = &apps[app].1;
            let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
            let specs = specs_for(the_app, &names, &[level, level]).expect("specs");
            let cases =
                explore_with_aborts(the_app, &specs, &cell_opts(app), 0).expect("abort sweep");
            let text: String =
                cases.iter().map(|c| format!("{}:{:x};", c.k, digest(&c.result))).collect();
            got.push((
                format!("{}:{}@{}", apps[app].0, names[0], short(level)),
                fnv1a(text.as_bytes()),
            ));
        }
    }
    check("abort sweeps", &got, GOLDEN_ABORTS);
}

#[test]
fn truncated_runs_are_identical_at_one_and_two_workers() {
    let apps = apps();
    let cells = cells();
    for key in [
        "payroll:Hours,Print_Records,Payroll_Report@RU,RU,RU",
        "banking:Withdraw_sav,Withdraw_ch,Deposit_sav@SNAP,SNAP,SNAP",
        "orders:Mailing_List,New_Order,Delivery@RU,RC,RR",
    ] {
        let cell = cells.iter().find(|c| c.key == key).expect("a benchmark cell");
        for max_schedules in [1u64, 3, 7] {
            let opts = |jobs| ExploreOptions { max_schedules, jobs, ..cell_opts(cell.app) };
            let one = run_cell(&apps, cell, &opts(1));
            let two = run_cell(&apps, cell, &opts(2));
            assert!(one.truncated, "{key} at max_schedules {max_schedules} must truncate");
            assert_eq!(
                format!("{one:?}"),
                format!("{two:?}"),
                "{key} at max_schedules {max_schedules}: the cut moved with the worker count"
            );
        }
    }
}

/// The walk pays per explored history: restores included, it executes at
/// most 1.5 events per scheduled event of each completed or refused
/// schedule.
#[test]
fn the_walk_executes_each_event_about_once() {
    let apps = apps();
    for cell in cells() {
        let r = run_cell(&apps, &cell, &cell_opts(cell.app));
        let ran = r.explored + r.blocked + r.infeasible;
        assert!(
            r.events as f64 <= 1.5 * (ran * r.total_events as u64) as f64,
            "{}: {} events for {ran} schedules of {} events each",
            cell.key,
            r.events,
            r.total_events
        );
    }
}
