//! The serve workloads: closed-loop clients calling `Server::submit`.
//!
//! `bank_point`, `bank_hot` and `bank_mvcc` drive the four banking types,
//! `orders_scan` the five order-processing types. One op is one
//! `Server::submit`. Every repetition builds the policy, starts a server,
//! loads the data and generates the inputs afresh (that is `setup_s`),
//! then times nothing but the submissions.

use crate::analysis::{prove, sealed_artifact};
use crate::clock::now_ns;
use crate::gen::{bank_inputs, orders_inputs, BankInputs, OrdersOp, BANK_TYPES, ORDERS_TYPES};
use crate::run::{drive, Measured, Rep, Workload};
use crate::trace::Scope;
use semcc_engine::audit::{audit_quiescent, committed_digest};
use semcc_engine::{Engine, IsolationLevel};
use semcc_serve::workload::{invariant_violations, Mix};
use semcc_serve::{AdmissionPolicy, ServeConfig, Server, TypeStats};
use semcc_storage::wal::fnv1a;
use semcc_workloads::driver::{AbortClass, RetryPolicy};
use semcc_workloads::{banking, orders};
use std::collections::BTreeMap;
use std::ops::Range;

/// Initial balance of every account: large enough that no generated
/// withdrawal is ever refused, so every request does the same work
/// whatever the seed.
pub const BANK_INITIAL: i64 = 1_000_000;

/// Accounts of `bank_hot`. Contention is not monotone in this number: on
/// 2 accounts the two clients fall into a convoy (one sleeps in retry
/// backoff while the other runs alone, about 7 deadlocks per 1,000 ops),
/// and the share of retried ops sits right at 1 %, so p99 flips between
/// the lock-wait mode (35 µs) and the backoff mode (140 µs) from run to
/// run. On 4 accounts both clients stay runnable, 15 ops in 1,000 lose a
/// deadlock and 6 lose first-committer-wins, and p99 sits inside the
/// backoff mode on every repetition.
pub const HOT_ACCOUNTS: u32 = 4;

/// Which admission policy the banking server runs under.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum BankPolicy {
    /// The synthesized ladder policy `RR RR RC+FCW RC+FCW`, produced by
    /// the full analyzer pipeline during set-up.
    Synthesized,
    /// The MVCC-only minimal vector `SSI SSI SNAP SNAP` (a row of
    /// `results/table_synth.txt`), sealed without re-running the analyzer.
    MvccOnly,
}

/// The level vector [`BankPolicy::Synthesized`] must come out as.
pub const BANK_LADDER: [IsolationLevel; 4] = [
    IsolationLevel::RepeatableRead,
    IsolationLevel::RepeatableRead,
    IsolationLevel::ReadCommittedFcw,
    IsolationLevel::ReadCommittedFcw,
];

/// The level vector of [`BankPolicy::MvccOnly`].
pub const BANK_MVCC: [IsolationLevel; 4] =
    [IsolationLevel::Ssi, IsolationLevel::Ssi, IsolationLevel::Snapshot, IsolationLevel::Snapshot];

/// Build the banking policy; `Err` when the analyzer's answer moved.
pub fn bank_policy(kind: BankPolicy) -> Result<AdmissionPolicy, String> {
    match kind {
        BankPolicy::Synthesized => {
            let proven = prove(&banking::app(), "banking", &mut Scope::off())?;
            if proven.levels != BANK_LADDER {
                return Err(format!("banking synthesized to {:?}", proven.levels));
            }
            Ok(proven.policy)
        }
        BankPolicy::MvccOnly => {
            AdmissionPolicy::from_json(&sealed_artifact("banking", &BANK_TYPES, &BANK_MVCC), "mvcc")
                .map_err(|e| e.to_string())
        }
    }
}

/// Server configuration of every serve workload: the defaults (30 ms lock
/// wait, 32/32 layout, no history) with the retry bound raised so that
/// giving up cannot happen on these mixes, as `semcc serve --bench` does.
pub fn serve_config(seed: u64) -> ServeConfig {
    ServeConfig {
        retry: RetryPolicy { max_attempts: 1_000, jitter_seed: seed, ..RetryPolicy::default() },
        ..ServeConfig::default()
    }
}

/// Post-run counters every serve workload reports: lock contention,
/// absorbed aborts per class, and what the oracle still holds.
fn serve_counters(server: &Server) -> BTreeMap<&'static str, f64> {
    let engine = server.engine();
    let locks = engine.locks().stats();
    let mut out = BTreeMap::from([
        ("lock.waits", locks.waits as f64),
        ("lock.deadlocks", locks.deadlocks as f64),
        ("lock.timeouts", locks.timeouts as f64),
        ("mvcc.fcw_failures", engine.oracle().fcw_failure_count() as f64),
        ("mvcc.commit_log_len", engine.oracle().log_len() as f64),
        ("mvcc.ssi_records", engine.oracle().ssi_record_count() as f64),
    ]);
    let stats: BTreeMap<String, TypeStats> = server.stats();
    for (class, key) in [
        (AbortClass::Deadlock, "aborts.deadlock"),
        (AbortClass::Timeout, "aborts.timeout"),
        (AbortClass::Fcw, "aborts.fcw"),
        (AbortClass::Ssi, "aborts.ssi"),
    ] {
        let n: u64 = stats.values().filter_map(|s| s.aborts_by_class.get(&class)).sum();
        out.insert(key, n as f64);
    }
    out
}

/// The audits every serve repetition ends with.
fn serve_audits(engine: &Engine, mix: Mix, scale: usize) -> Vec<String> {
    let mut out = invariant_violations(engine, mix, scale);
    out.extend(
        audit_quiescent(engine)
            .violations
            .iter()
            .map(|v| format!("not quiescent: {}: {}", v.invariant, v.detail)),
    );
    out
}

fn digest_of(engine: &Engine) -> u64 {
    fnv1a(committed_digest(engine).as_bytes())
}

/// A banking serve workload.
pub struct BankServe {
    /// Seed of the input vector and the retry jitter.
    pub seed: u64,
    /// Accounts (two items each).
    pub accounts: u32,
    /// Ops per repetition.
    pub ops: usize,
    /// Client threads.
    pub clients: usize,
    /// Admission policy.
    pub policy: BankPolicy,
}

impl BankServe {
    /// Set up one repetition: policy, server, data, inputs.
    pub fn setup(&self) -> Result<(Server, BankInputs), String> {
        let policy = bank_policy(self.policy)?;
        let server = Server::start(policy, banking::app().programs, serve_config(self.seed))
            .map_err(|e| e.to_string())?;
        banking::setup(server.engine(), self.accounts as usize, BANK_INITIAL);
        Ok((server, bank_inputs(self.seed, self.accounts, self.ops)))
    }

    /// Drive the requests `ops` of `inputs` through `Server::submit`.
    pub fn submit(
        &self,
        server: &Server,
        inputs: &BankInputs,
        ops: Range<usize>,
        traced: bool,
    ) -> Measured {
        drive(self.clients, ops, "serve.submit", traced, |k, _| {
            let op = inputs.ops[k];
            server
                .submit(BANK_TYPES[op.ty as usize], &inputs.bindings[op.binding as usize], k as u64)
                .is_ok()
        })
    }
}

/// The money the bank must hold after every request of `inputs` committed
/// exactly once.
pub fn expected_total(inputs: &BankInputs, accounts: u32) -> i64 {
    let net: i64 = inputs
        .ops
        .iter()
        .map(|op| if op.is_withdraw() { -i64::from(op.amount) } else { i64::from(op.amount) })
        .sum();
    2 * i64::from(accounts) * BANK_INITIAL + net
}

impl Workload for BankServe {
    fn clients(&self) -> usize {
        self.clients
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let t0 = now_ns();
        let (server, inputs) = self.setup().expect("banking set-up");
        let setup_s = (now_ns() - t0) as f64 / 1e9;

        let measured = self.submit(&server, &inputs, 0..inputs.ops.len(), traced);

        let engine = server.engine();
        let mut audit_failures = serve_audits(engine, Mix::Banking, self.accounts as usize);
        let (want, got) = (
            expected_total(&inputs, self.accounts),
            banking::total_money(engine, self.accounts as usize),
        );
        if measured.failed == 0 && want != got {
            audit_failures.push(format!("bank holds {got}, the committed requests sum to {want}"));
        }
        Rep {
            setup_s,
            ops: inputs.ops.len() as u64,
            audit_failures,
            digest: (self.clients == 1).then(|| digest_of(engine)),
            counters: serve_counters(&server),
            measured,
        }
    }
}

/// The level vector the orders policy must come out as.
pub const ORDERS_LADDER: [IsolationLevel; 5] = [
    IsolationLevel::ReadUncommitted,
    IsolationLevel::ReadCommitted,
    IsolationLevel::ReadCommitted,
    IsolationLevel::RepeatableRead,
    IsolationLevel::Serializable,
];

/// `orders_scan`: the five order-processing types at their synthesized
/// levels, one client, on a table that grows with every `New_Order`.
pub struct OrdersScan {
    /// Seed of the input vector.
    pub seed: u64,
    /// Initial delivery days (one order and one customer each).
    pub days: u64,
    /// Ops per repetition.
    pub ops: usize,
}

impl Workload for OrdersScan {
    fn clients(&self) -> usize {
        1
    }

    fn rep(&mut self, traced: bool) -> Rep {
        let t0 = now_ns();
        let app = orders::app(false);
        let proven = prove(&app, "orders", &mut Scope::off()).expect("orders policy");
        assert_eq!(proven.levels, ORDERS_LADDER, "orders synthesized to another vector");
        let server = Server::start(proven.policy, app.programs, serve_config(self.seed))
            .expect("orders server");
        orders::setup(server.engine(), self.days as i64);
        let inputs: Vec<OrdersOp> = orders_inputs(self.seed, self.days, self.ops);
        let setup_s = (now_ns() - t0) as f64 / 1e9;

        let measured = drive(1, 0..inputs.len(), "serve.submit", traced, |k, _| {
            let op = &inputs[k];
            server.submit(ORDERS_TYPES[op.ty as usize], &op.bindings, k as u64).is_ok()
        });

        let engine = server.engine();
        let mut audit_failures = serve_audits(engine, Mix::Orders, self.days as usize);
        let new_orders = inputs.iter().filter(|o| ORDERS_TYPES[o.ty as usize] == "New_Order");
        let want_rows = self.days as usize + new_orders.count();
        let got_rows = engine.peek_table("orders").map(|r| r.len()).unwrap_or(0);
        if measured.failed == 0 && want_rows != got_rows {
            audit_failures.push(format!("orders holds {got_rows} rows, expected {want_rows}"));
        }
        let mut counters = serve_counters(&server);
        counters.insert("orders.rows_end", got_rows as f64);
        Rep {
            setup_s,
            ops: inputs.len() as u64,
            audit_failures,
            digest: Some(digest_of(engine)),
            counters,
            measured,
        }
    }
}
