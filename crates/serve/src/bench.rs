//! Closed-loop bench driver for `semcc serve --bench`.
//!
//! The transaction stream is a *pure function of the seed*: every
//! transaction index `i` derives its own type-pick RNG and binding RNG
//! from `(seed, i)`, so the issued mix is identical no matter which
//! worker claims which index, how many workers run, or how the engine
//! interleaves them. Binding draws may consult concurrent engine state
//! (the orders generators peek committed rows), which is why the type
//! pick uses a *separate* stream — divergent binding draws can never
//! skew the issue counts.
//!
//! The JSON report carries **only deterministic fields** (issue counts,
//! commit totals, config echo, policy digests, invariant audit): two
//! runs with the same seed print byte-identical JSON. Wall-clock
//! throughput, latency percentiles, and contention counters are
//! host-dependent and go to the human-readable report instead.

use crate::policy::{AdmissionPolicy, PolicySource};
use crate::server::{ServeConfig, Server, SubmitError, TypeStats};
use crate::workload::{self, Mix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_engine::audit::audit_quiescent;
use semcc_engine::EngineTuning;
use semcc_json::Json;
use semcc_lock::LockStats;
use semcc_workloads::driver::{retry, Attempted, RetryPolicy, RunStats};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Bench configuration (flags of `semcc serve --bench`).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Which applications to drive.
    pub mix: Mix,
    /// Worker threads (`semcc-par` pool size).
    pub workers: usize,
    /// Transactions per worker (total = workers × this).
    pub txns_per_worker: usize,
    /// Seed for the per-transaction RNG streams.
    pub seed: u64,
    /// Data scale (accounts / days / employees).
    pub scale: usize,
    /// Ablation: run the legacy single-shard, single-stripe layout
    /// instead of [`EngineTuning::server`].
    pub single_lock: bool,
    /// Deterministically panic a fraction (1/8) of the issued ops before
    /// they reach the server — the containment regression drill.
    pub inject_panics: bool,
    /// Lock-wait timeout (default 30 ms; see [`ServeConfig`]).
    pub lock_timeout: Duration,
    /// Retry attempts per transaction. The default is high enough that
    /// giving up is effectively impossible for these mixes, which keeps
    /// the commit totals in the JSON report deterministic.
    pub max_attempts: usize,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            mix: Mix::Banking,
            workers: 4,
            txns_per_worker: 50,
            seed: 42,
            scale: 8,
            single_lock: false,
            inject_panics: false,
            lock_timeout: Duration::from_millis(30),
            max_attempts: 1_000,
        }
    }
}

/// Everything a bench run produced.
#[derive(Clone, Debug)]
pub struct BenchReport {
    /// Aggregate driver stats (throughput, percentiles, aborts).
    pub stats: RunStats,
    /// Total transactions issued (= workers × txns_per_worker).
    pub issued: u64,
    /// Deterministic issue counts per type.
    pub issued_by_type: BTreeMap<String, u64>,
    /// Per-type server counters (commit/abort classes).
    pub type_stats: BTreeMap<String, TypeStats>,
    /// Invariant audit after the run (empty = clean).
    pub violations: Vec<String>,
    /// Post-run quiescence audit verdict.
    pub quiescent: bool,
    /// Lock-manager contention counters (the ablation's evidence).
    pub lock_stats: LockStats,
    /// Lock-table shards the engine ran with.
    pub lock_shards: usize,
    /// Store stripes the engine ran with.
    pub store_stripes: usize,
    /// Provenance of the admission policy.
    pub sources: Vec<PolicySource>,
}

/// One transaction's deterministic identity: its type pick and RNG
/// seeds, derived purely from `(seed, index)`.
fn item_seed(seed: u64, i: u64, stream: u64) -> u64 {
    let mut z =
        seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ stream.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Pre-compute the type a transaction index issues (and whether the
/// panic drill fires for it). Pure in `(cfg.seed, index)`.
fn pick_for(cfg: &BenchConfig, types: &[String], i: u64) -> (Option<usize>, bool) {
    let mut pick = StdRng::seed_from_u64(item_seed(cfg.seed, i, 0));
    if cfg.inject_panics && pick.gen_range(0..8) == 0 {
        return (None, true);
    }
    (Some(pick.gen_range(0..types.len())), false)
}

/// Run the closed loop: build a server over a fresh engine (sharded or
/// legacy layout per `cfg.single_lock`), seed the mix's data, and drive
/// `workers × txns_per_worker` typed submissions through a `semcc-par`
/// worker pool.
pub fn run(policy: AdmissionPolicy, cfg: &BenchConfig) -> Result<BenchReport, crate::ServeError> {
    let tuning = if cfg.single_lock { EngineTuning::default() } else { EngineTuning::server() };
    let serve_cfg = ServeConfig {
        lock_timeout: cfg.lock_timeout,
        tuning,
        retry: RetryPolicy {
            max_attempts: cfg.max_attempts.max(1),
            jitter_seed: cfg.seed,
            ..RetryPolicy::default()
        },
    };
    let server = Server::start(policy, cfg.mix.programs(), serve_cfg)?;
    workload::setup(server.engine(), cfg.mix, cfg.scale);
    let types: Vec<String> = server.types().into_iter().map(String::from).collect();
    let programs: BTreeMap<&str, &semcc_txn::Program> =
        types.iter().map(|t| (t.as_str(), server.program(t).expect("registered"))).collect();

    let items: Vec<u64> = (0..(cfg.workers * cfg.txns_per_worker) as u64).collect();
    // The server retries; this single-attempt pass through `retry` is the
    // panic boundary around everything an op does before and inside
    // `submit`, the injected-panic drill included.
    let once = RetryPolicy { max_attempts: 1, ..RetryPolicy::default() };
    let start = Instant::now();
    let results = semcc_par::ordered_map_with(
        cfg.workers,
        &items,
        || (),
        |(), _, &i| {
            let t0 = Instant::now();
            let (pick, panic_now) = pick_for(cfg, &types, i);
            let op = || {
                if panic_now {
                    panic!("injected bench panic (op {i})");
                }
                let name = types[pick.expect("non-panicking op picked a type")].as_str();
                let mut bind_rng = StdRng::seed_from_u64(item_seed(cfg.seed, i, 1));
                let b = workload::bindings_for(
                    server.engine(),
                    programs[name],
                    cfg.scale,
                    &mut bind_rng,
                );
                Ok((name, server.submit(name, &b, i)))
            };
            let attempted = retry(&once, i, op, |_, _| {});
            (attempted, t0.elapsed().as_micros() as u64)
        },
    );
    let elapsed = start.elapsed();

    let mut stats = RunStats { elapsed, ..RunStats::default() };
    let mut issued_by_type: BTreeMap<String, u64> = BTreeMap::new();
    for (attempted, latency_us) in results {
        let (name, submitted) = match attempted {
            Attempted::Committed { value, .. } => value,
            Attempted::Panicked => {
                stats.panics += 1;
                continue;
            }
            Attempted::GaveUp { error, .. } | Attempted::Failed(error) => {
                unreachable!("a bench op only returns Ok: {error}")
            }
        };
        *issued_by_type.entry(name.to_string()).or_insert(0) += 1;
        match submitted {
            Ok(done) => {
                stats.committed += 1;
                stats.aborts += done.aborts as u64;
                stats.latencies_us.push(latency_us);
            }
            Err(SubmitError::GaveUp { aborts, .. }) => {
                stats.failed += 1;
                stats.gave_up += 1;
                stats.aborts += aborts as u64;
            }
            Err(e) => panic!("bench programming error submitting `{name}`: {e}"),
        }
    }
    let type_stats = server.stats();
    for ts in type_stats.values() {
        for (class, n) in &ts.aborts_by_class {
            *stats.aborts_by_class.entry(*class).or_insert(0) += n;
        }
    }

    let engine = server.engine();
    Ok(BenchReport {
        stats,
        issued: items.len() as u64,
        issued_by_type,
        type_stats,
        violations: workload::invariant_violations(engine, cfg.mix, cfg.scale),
        quiescent: audit_quiescent(engine).clean(),
        lock_stats: engine.locks().stats(),
        lock_shards: engine.locks().shard_count(),
        store_stripes: engine.store().stripe_count(),
        sources: server.policy().sources().to_vec(),
    })
}

/// The deterministic JSON report: byte-identical across same-seed runs.
/// Wall-clock–dependent numbers are deliberately excluded; see the
/// module docs.
pub fn json_report(cfg: &BenchConfig, r: &BenchReport) -> Json {
    Json::obj([
        ("artifact", Json::str("semcc-serve-bench")),
        ("mix", Json::str(cfg.mix.name())),
        ("workers", Json::Int(cfg.workers as i64)),
        ("txns_per_worker", Json::Int(cfg.txns_per_worker as i64)),
        ("seed", Json::Int(cfg.seed as i64)),
        ("scale", Json::Int(cfg.scale.max(2) as i64)),
        ("lock_shards", Json::Int(r.lock_shards as i64)),
        ("store_stripes", Json::Int(r.store_stripes as i64)),
        ("lock_timeout_ms", Json::Int(cfg.lock_timeout.as_millis() as i64)),
        ("max_attempts", Json::Int(cfg.max_attempts as i64)),
        (
            "policies",
            Json::Arr(
                r.sources
                    .iter()
                    .map(|s| {
                        Json::obj([("app", Json::str(&s.app)), ("digest", Json::str(&s.digest))])
                    })
                    .collect(),
            ),
        ),
        ("issued", Json::Int(r.issued as i64)),
        (
            "issued_by_type",
            Json::Obj(
                r.issued_by_type.iter().map(|(t, n)| (t.clone(), Json::Int(*n as i64))).collect(),
            ),
        ),
        ("committed", Json::Int(r.stats.committed as i64)),
        ("gave_up", Json::Int(r.stats.gave_up as i64)),
        ("panics", Json::Int(r.stats.panics as i64)),
        ("invariant_violations", Json::Int(r.violations.len() as i64)),
        ("quiescent", Json::Bool(r.quiescent)),
    ])
}

/// The human-readable report: wall-clock throughput, latency
/// percentiles, abort classes, and the contention counters the
/// sharded-vs-single-lock ablation compares.
pub fn human_report(cfg: &BenchConfig, r: &BenchReport) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let s = &r.stats;
    let _ = writeln!(
        out,
        "serve bench: mix={} workers={} txns={} seed={} ({} lock shard(s), {} store stripe(s))",
        cfg.mix.name(),
        cfg.workers,
        r.issued,
        cfg.seed,
        r.lock_shards,
        r.store_stripes,
    );
    let _ = writeln!(
        out,
        "committed {} / issued {} ({} gave up, {} panicked), {} abort(s) absorbed",
        s.committed, r.issued, s.gave_up, s.panics, s.aborts
    );
    let _ = writeln!(
        out,
        "throughput {:.0} txn/s, latency p50 {} us, p99 {} us (wall {:.1} ms)",
        s.throughput(),
        s.p50_us(),
        s.p99_us(),
        s.elapsed.as_secs_f64() * 1e3
    );
    if !s.aborts_by_class.is_empty() {
        let classes: Vec<String> =
            s.aborts_by_class.iter().map(|(c, n)| format!("{}={n}", c.name())).collect();
        let _ = writeln!(out, "aborts by class: {}", classes.join(" "));
    }
    let _ = writeln!(
        out,
        "lock contention: {} wait(s), {} timeout(s), {} deadlock(s)",
        r.lock_stats.waits, r.lock_stats.timeouts, r.lock_stats.deadlocks
    );
    let _ = writeln!(
        out,
        "invariants: {} violation(s); quiescent: {}",
        r.violations.len(),
        if r.quiescent { "yes" } else { "NO" }
    );
    for v in &r.violations {
        let _ = writeln!(out, "  violation: {v}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests_support::sealed_policy;

    fn banking_policy() -> AdmissionPolicy {
        sealed_policy(
            "banking",
            &[
                ("Withdraw_sav", "REPEATABLE READ", false),
                ("Withdraw_ch", "REPEATABLE READ", false),
                ("Deposit_sav", "READ COMMITTED+FCW", true),
                ("Deposit_ch", "READ COMMITTED+FCW", true),
            ],
        )
    }

    #[test]
    fn same_seed_runs_print_identical_json() {
        let cfg = BenchConfig {
            workers: 4,
            txns_per_worker: 15,
            seed: 7,
            scale: 4,
            ..BenchConfig::default()
        };
        let a = run(banking_policy(), &cfg).expect("run a");
        let b = run(banking_policy(), &cfg).expect("run b");
        assert_eq!(
            json_report(&cfg, &a).to_pretty(),
            json_report(&cfg, &b).to_pretty(),
            "same-seed JSON must be byte-identical"
        );
        assert_eq!(a.stats.committed, 60);
        assert!(a.violations.is_empty());
        assert!(a.quiescent);
    }

    #[test]
    fn injected_panics_are_contained_and_deterministic() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let cfg = BenchConfig {
            workers: 4,
            txns_per_worker: 15,
            seed: 7,
            scale: 4,
            inject_panics: true,
            ..BenchConfig::default()
        };
        let a = run(banking_policy(), &cfg).expect("run a");
        let b = run(banking_policy(), &cfg).expect("run b");
        std::panic::set_hook(hook);
        assert!(a.stats.panics > 0, "the drill must fire");
        assert_eq!(
            a.stats.committed + a.stats.panics + a.stats.gave_up,
            a.issued,
            "every issued op is accounted for"
        );
        assert!(a.violations.is_empty());
        assert!(a.quiescent, "panicked ops must not leak locks or txns");
        assert_eq!(json_report(&cfg, &a).to_pretty(), json_report(&cfg, &b).to_pretty());
    }

    #[test]
    fn single_lock_ablation_runs_same_traffic() {
        let cfg = BenchConfig {
            workers: 2,
            txns_per_worker: 10,
            seed: 3,
            scale: 4,
            single_lock: true,
            ..BenchConfig::default()
        };
        let r = run(banking_policy(), &cfg).expect("run");
        assert_eq!(r.lock_shards, 1);
        assert_eq!(r.store_stripes, 1);
        assert_eq!(r.stats.committed, 20);
        let sharded = BenchConfig { single_lock: false, ..cfg.clone() };
        let s = run(banking_policy(), &sharded).expect("run sharded");
        assert_eq!(s.lock_shards, 32);
        // Identical issued traffic either way — the layout is invisible
        // to the deterministic stream.
        assert_eq!(r.issued_by_type, s.issued_by_type);
    }
}
