//! `explore_dpor`: the schedule-space explorer's stateless replay loop.
//!
//! One op is one cell: `explore()` of 2–3 transaction instances at a level
//! vector. The cell list is fixed; the seed only shuffles its order. The
//! explorer's replays on `Engine::reset` are the hot loop; the static
//! analyzer is idle.
//!
//! The `differential()` verdict of every cell is part of the correctness
//! gate but not of the timed op: its witness replays wait out 100 ms lock
//! timeouts, so a cell's differential takes ten times the wall time of its
//! exploration at a tenth of the CPU, and would bury the explorer. It is
//! timed on its own as `explore.differential_ms`.

use crate::clock::now_ns;
use crate::gen::Rng;
use crate::run::{drive, Rep, Workload};
use semcc_core::App;
use semcc_engine::IsolationLevel;
use semcc_explore::{differential, explore, specs_for, ExploreOptions, ExploreResult, TxnSpec};
use semcc_json::Json;
use semcc_storage::wal::fnv1a;
use semcc_workloads::{banking, orders, payroll};
use std::collections::BTreeMap;
use std::sync::Mutex;
use IsolationLevel::{
    ReadCommitted as RC, ReadCommittedFcw as RCF, ReadUncommitted as RU, RepeatableRead as RR,
    Serializable as SER, Snapshot as SNAP, Ssi as SSI,
};

/// Rounds of the cell list per repetition.
pub const ROUNDS: usize = 17;

/// One explorer cell: which instances, at which levels, from which seed
/// state.
pub struct Cell {
    /// `app:T1,T2[,T3]@L1,L2[,L3]` — the key in `expected/explore.json`.
    pub key: String,
    /// Index into [`Cells::apps`].
    pub app: usize,
    /// The transaction instances.
    pub specs: Vec<TxnSpec>,
    /// Seed-state overrides (payroll needs a nonzero hourly rate for the
    /// broken `rate·hrs = sal` to be observable).
    pub opts: ExploreOptions,
}

/// The fixed cell list and the applications it refers to.
pub struct Cells {
    /// `(name, app)`.
    pub apps: Vec<(&'static str, App)>,
    /// Every cell.
    pub cells: Vec<Cell>,
}

/// Transaction groups explored at each of the seven uniform level vectors.
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

/// Build the cell list.
pub fn cells() -> Cells {
    let apps = vec![
        ("banking", banking::app()),
        ("payroll", payroll::app()),
        ("orders", orders::app(false)),
    ];
    let mut cells = Vec::new();
    let mut push = |app: usize, names: &[&str], levels: &[IsolationLevel]| {
        let (app_name, the_app) = &apps[app];
        let owned: Vec<String> = names.iter().map(|n| n.to_string()).collect();
        let specs = specs_for(the_app, &owned, levels).expect("cell names a bundled program");
        let opts = ExploreOptions {
            seed_cols: if *app_name == "payroll" {
                vec![("emp".into(), "rate".into(), 10)]
            } else {
                Vec::new()
            },
            ..ExploreOptions::default()
        };
        let key = format!(
            "{app_name}:{}@{}",
            names.join(","),
            levels.iter().map(|l| short(*l)).collect::<Vec<_>>().join(",")
        );
        cells.push(Cell { key, app, specs, opts });
    };
    for (app, names) in UNIFORM {
        for level in IsolationLevel::ALL {
            push(app, names, &vec![level; names.len()]);
        }
    }
    for (app, names, levels) in MIXED {
        push(app, names, levels);
    }
    Cells { apps, cells }
}

/// What the correctness gate compares per cell.
pub fn expected_entry(r: &ExploreResult) -> Json {
    Json::obj([
        ("explored", Json::Int(r.explored as i64)),
        ("blocked", Json::Int(r.blocked as i64)),
        ("divergent", Json::Int(r.divergent as i64)),
    ])
}

/// Check one cell's result against `expected/explore.json` and the
/// explorer's own accounting identity; returns one line per difference.
pub fn check_cell(key: &str, r: &ExploreResult, expected: &Json) -> Vec<String> {
    let mut out = Vec::new();
    match expected.get(key) {
        None => out.push(format!("{key}: no entry in expected/explore.json")),
        Some(want) if *want != expected_entry(r) => out.push(format!(
            "{key}: explored/blocked/divergent {}/{}/{}, expected {}",
            r.explored,
            r.blocked,
            r.divergent,
            want.to_compact()
        )),
        Some(_) => {}
    }
    let accounted = u128::from(r.explored + r.blocked + r.infeasible) + r.pruned();
    if accounted != r.naive_schedules || r.truncated {
        out.push(format!(
            "{key}: explored+blocked+infeasible+pruned = {accounted}, naive = {} (truncated: {})",
            r.naive_schedules, r.truncated
        ));
    }
    out
}

/// `explore_dpor`.
pub struct ExploreDpor {
    /// Seed of the cell order.
    pub seed: u64,
    /// Rounds of the cell list per repetition.
    pub rounds: usize,
    /// Use only every `stride`-th cell (`--quick`).
    pub stride: usize,
    /// Parsed `expected/explore.json`.
    pub expected: Json,
    /// The last repetition's result per cell, for the end-of-run
    /// differential check.
    pub last: BTreeMap<usize, ExploreResult>,
}

impl Workload for ExploreDpor {
    fn clients(&self) -> usize {
        1
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let t0 = now_ns();
        let Cells { apps, cells } = cells();
        let mut rng = Rng::new(self.seed, 4);
        let order: Vec<usize> = (0..self.rounds)
            .flat_map(|_| {
                let mut round: Vec<usize> = (0..cells.len()).step_by(self.stride).collect();
                rng.shuffle(&mut round);
                round
            })
            .collect();
        let setup_s = (now_ns() - t0) as f64 / 1e9;

        let results: Mutex<BTreeMap<usize, ExploreResult>> = Mutex::new(BTreeMap::new());
        let measured = drive(1, 0..order.len(), "explore.explore", traced, |k, _| {
            let cell = &cells[order[k]];
            match explore(&apps[cell.app].1, &cell.specs, &cell.opts) {
                Ok(result) => {
                    results.lock().expect("no panic holds this lock").insert(order[k], result);
                    true
                }
                Err(_) => false,
            }
        });

        let results = results.into_inner().expect("no panic holds this lock");
        let audit_failures: Vec<String> = results
            .iter()
            .flat_map(|(i, r)| check_cell(&cells[*i].key, r, &self.expected))
            .collect();
        let summary: String = results
            .iter()
            .map(|(i, r)| format!("{i}:{}/{}/{};", r.explored, r.blocked, r.divergent))
            .collect();
        let total = |f: fn(&ExploreResult) -> f64| results.values().map(f).sum::<f64>();
        let counters = BTreeMap::from([
            ("explore.replays", total(|r| r.replays as f64)),
            ("explore.naive", total(|r| r.naive_schedules as f64)),
            ("explore.ran", total(|r| (r.explored + r.blocked + r.infeasible) as f64)),
        ]);
        self.last = results;
        Rep {
            setup_s,
            ops: order.len() as u64,
            audit_failures,
            digest: Some(fnv1a(summary.as_bytes())),
            counters,
            measured,
        }
    }

    /// The static/dynamic differential of every explored cell: a SAFE
    /// static verdict with a divergent schedule is a failure.
    fn finish(&mut self) -> Vec<String> {
        let Cells { apps, cells } = cells();
        std::mem::take(&mut self.last)
            .iter()
            .filter(|(i, r)| !differential(&apps[cells[**i].app].1, &cells[**i].specs, r).sound())
            .map(|(i, _)| format!("{}: static SAFE but a divergent schedule exists", cells[*i].key))
            .collect()
    }
}
