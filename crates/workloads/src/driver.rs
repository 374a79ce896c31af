//! Concurrent load driver shared by the P1/P2 benchmark harnesses.

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_engine::{EngineError, FaultKind};
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::time::{Duration, Instant};

/// What to run: `threads` workers each issuing `txns_per_thread`
/// transactions through the provided closure.
#[derive(Clone, Copy, Debug)]
pub struct MixSpec {
    /// Worker threads.
    pub threads: usize,
    /// Transactions per worker.
    pub txns_per_thread: usize,
    /// RNG seed (deterministic workloads across levels).
    pub seed: u64,
}

/// Classification of a concurrency-control abort, used for per-class
/// retry budgets and reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum AbortClass {
    /// Deadlock victim.
    Deadlock,
    /// Lock-wait timeout.
    Timeout,
    /// First-committer-wins validation loser.
    Fcw,
    /// SSI dangerous-structure (pivot) abort.
    Ssi,
    /// Deterministic injected fault (fault-injection harness).
    Injected,
}

impl AbortClass {
    /// All classes, in a stable order.
    pub const ALL: [AbortClass; 5] = [
        AbortClass::Deadlock,
        AbortClass::Timeout,
        AbortClass::Fcw,
        AbortClass::Ssi,
        AbortClass::Injected,
    ];

    /// Stable lowercase name (reports, JSON).
    pub fn name(self) -> &'static str {
        match self {
            AbortClass::Deadlock => "deadlock",
            AbortClass::Timeout => "timeout",
            AbortClass::Fcw => "fcw",
            AbortClass::Ssi => "ssi",
            AbortClass::Injected => "injected",
        }
    }

    /// Classify an engine error; `None` for non-abort (programming) errors.
    pub fn classify(e: &EngineError) -> Option<AbortClass> {
        match e {
            EngineError::Lock(semcc_lock::LockError::Deadlock { .. }) => Some(AbortClass::Deadlock),
            EngineError::Lock(semcc_lock::LockError::Timeout { .. }) => Some(AbortClass::Timeout),
            EngineError::Fcw(_) => Some(AbortClass::Fcw),
            EngineError::Ssi(_) => Some(AbortClass::Ssi),
            EngineError::Injected(FaultKind::LockTimeout) => Some(AbortClass::Timeout),
            EngineError::Injected(FaultKind::LockDeadlock) => Some(AbortClass::Deadlock),
            EngineError::Injected(FaultKind::FcwConflict) => Some(AbortClass::Fcw),
            EngineError::Injected(_) => Some(AbortClass::Injected),
            _ => None,
        }
    }
}

/// Bounded-retry policy with exponential backoff and deterministic seeded
/// jitter. Replaces the driver's historical "retry forever, immediately"
/// behavior: an always-losing transaction now degrades gracefully into a
/// [`RunStats::gave_up`] count instead of spinning.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per transaction (first try included); must be ≥ 1.
    pub max_attempts: usize,
    /// Backoff before retry `i` (1-based) is `base_backoff · 2^(i-1)`,
    /// capped at [`RetryPolicy::max_backoff`], ±50% deterministic jitter.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep (pre-jitter).
    pub max_backoff: Duration,
    /// Seed for the jitter hash (mixed with worker/attempt — identical
    /// seeds reproduce identical sleep schedules).
    pub jitter_seed: u64,
    /// Optional per-class retry budgets: at most `budget` retries may be
    /// *caused* by that abort class; exhausting a budget gives the
    /// transaction up even when attempts remain. Missing class = bounded
    /// only by `max_attempts`.
    pub class_budgets: BTreeMap<AbortClass, usize>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 50,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            jitter_seed: 0,
            class_budgets: BTreeMap::new(),
        }
    }
}

impl RetryPolicy {
    /// The backoff to sleep before retry `attempt` (1-based count of
    /// *failed* attempts so far), for a worker identified by `salt`.
    /// Deterministic in `(jitter_seed, salt, attempt)`.
    pub fn backoff(&self, attempt: usize, salt: u64) -> Duration {
        #[cfg(test)]
        tests::BACKOFF_CALLS.with(|calls| calls.borrow_mut().push((attempt, salt)));
        if self.base_backoff.is_zero() {
            return Duration::ZERO;
        }
        let exp = self.base_backoff.saturating_mul(1u32 << (attempt - 1).min(20) as u32);
        let capped = exp.min(self.max_backoff).max(self.base_backoff);
        // ±50% deterministic jitter, from a seeded per-(worker, attempt) rng.
        let mut rng =
            StdRng::seed_from_u64(self.jitter_seed ^ salt.rotate_left(17) ^ attempt as u64);
        let jitter_pm = rng.gen_range(50..=150) as u32;
        capped * jitter_pm / 100
    }
}

/// Results of a driver run.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Successfully committed transactions.
    pub committed: u64,
    /// Aborts absorbed by retries (deadlock victims, FCW losers, timeouts).
    pub aborts: u64,
    /// Transactions that exhausted their retries.
    pub failed: u64,
    /// Transactions given up under the retry policy (attempt or class
    /// budget exhausted) — counted in `failed` as well; the run degrades
    /// gracefully instead of panicking or spinning.
    pub gave_up: u64,
    /// Aborts the driver saw by class (every abort under
    /// [`run_mix_with_policy`]; under [`run_mix`] only the terminal abort
    /// of a given-up transaction, the rest being absorbed in the closure).
    pub aborts_by_class: BTreeMap<AbortClass, u64>,
    /// Given-up transactions by the class of their *last* abort.
    pub gave_up_by_class: BTreeMap<AbortClass, u64>,
    /// Crash-recovery audits performed on behalf of this run (populated
    /// by durable fault-simulation harnesses; plain drivers leave it 0).
    pub recoveries_audited: u64,
    /// Operations whose closure panicked mid-flight. Each panic is caught
    /// per-attempt: the worker continues with its next transaction and the
    /// run still reports every other worker's results (the lock guarding
    /// shared stats is a `parking_lot::Mutex`, which does not poison).
    pub panics: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-transaction latencies in microseconds (committed only).
    pub latencies_us: Vec<u64>,
}

impl RunStats {
    /// Fold one worker's counts and latencies into the run's.
    fn absorb(&mut self, worker: RunStats) {
        self.committed += worker.committed;
        self.aborts += worker.aborts;
        self.failed += worker.failed;
        self.gave_up += worker.gave_up;
        self.panics += worker.panics;
        for (class, n) in worker.aborts_by_class {
            *self.aborts_by_class.entry(class).or_insert(0) += n;
        }
        for (class, n) in worker.gave_up_by_class {
            *self.gave_up_by_class.entry(class).or_insert(0) += n;
        }
        self.latencies_us.extend(worker.latencies_us);
    }

    /// Committed transactions per second.
    pub fn throughput(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.committed as f64 / self.elapsed.as_secs_f64()
    }

    /// Abort rate: aborts per *finished* transaction, where finished means
    /// committed or given up under the retry policy. Given-up runs stay in
    /// the denominator so an always-losing transaction reports a high rate
    /// instead of being silently dropped. Equals aborts/committed when
    /// nothing gave up.
    pub fn abort_rate(&self) -> f64 {
        let finished = self.committed + self.gave_up;
        if finished == 0 {
            return 0.0;
        }
        self.aborts as f64 / finished as f64
    }

    /// Nearest-rank percentile (µs): the smallest recorded latency ≥ `p`
    /// of the sample. 0 on an empty sample; the sole value on a
    /// singleton, for every `p`.
    pub fn percentile_us(&self, p: f64) -> u64 {
        let n = self.latencies_us.len();
        if n == 0 {
            return 0;
        }
        let mut v = self.latencies_us.clone();
        v.sort_unstable();
        // Nearest-rank: rank = ⌈p·n⌉ (1-based), clamped to [1, n].
        let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
        v[rank.clamp(1, n) - 1]
    }

    /// Median latency (µs).
    pub fn p50_us(&self) -> u64 {
        self.percentile_us(0.50)
    }

    /// 99th-percentile latency (µs).
    pub fn p99_us(&self) -> u64 {
        self.percentile_us(0.99)
    }
}

/// How one transaction ended under [`retry`].
#[derive(Debug)]
pub enum Attempted<T> {
    /// An attempt succeeded, after `aborts` failed ones.
    Committed { value: T, aborts: usize },
    /// The attempt bound or a class budget ran out; `error` is the last
    /// abort and `class` its class.
    GaveUp { class: AbortClass, aborts: usize, error: EngineError },
    /// A non-abort error: a programming error, never retried.
    Failed(EngineError),
    /// The attempt panicked; the panic was contained here.
    Panicked,
}

/// Run one transaction to completion: the only retry loop and the only
/// panic boundary of the workspace. `attempt` performs exactly **one
/// attempt** (begin → statements → commit, rolling back on error). On a
/// concurrency-control abort, `retry` classifies it, tells `on_abort`,
/// applies `policy`'s attempt bound and per-class budgets, sleeps the
/// jittered backoff for `(failed attempts so far, salt)` and tries again.
///
/// A panicking attempt is caught — its transaction rolls back as it
/// unwinds (`Txn`'s `Drop`) — and ends this transaction as
/// [`Attempted::Panicked`]. `on_abort` runs *outside* that boundary, after
/// the victim has rolled back: it may count and audit, and must not panic.
pub fn retry<T>(
    policy: &RetryPolicy,
    salt: u64,
    mut attempt: impl FnMut() -> Result<T, EngineError>,
    mut on_abort: impl FnMut(AbortClass, &EngineError),
) -> Attempted<T> {
    let mut spent = [0usize; AbortClass::ALL.len()];
    let mut aborts = 0usize;
    loop {
        let error = match std::panic::catch_unwind(AssertUnwindSafe(&mut attempt)) {
            Err(_) => return Attempted::Panicked,
            Ok(Ok(value)) => return Attempted::Committed { value, aborts },
            Ok(Err(e)) => e,
        };
        let Some(class) = AbortClass::classify(&error) else {
            return Attempted::Failed(error);
        };
        aborts += 1;
        on_abort(class, &error);
        spent[class as usize] += 1;
        let budget_hit =
            policy.class_budgets.get(&class).is_some_and(|b| spent[class as usize] > *b);
        if aborts >= policy.max_attempts || budget_hit {
            return Attempted::GaveUp { class, aborts, error };
        }
        let pause = policy.backoff(aborts, salt);
        if !pause.is_zero() {
            std::thread::sleep(pause);
        }
    }
}

/// Run a mix whose closure retries by itself: it receives `(worker-id,
/// rng)`, performs one transaction, and returns the number of aborts it
/// absorbed (from `run_with_retries`) or its terminal abort, which counts
/// as given up. Panics are contained per transaction as in
/// [`run_mix_with_policy`].
pub fn run_mix<F>(spec: MixSpec, op: F) -> RunStats
where
    F: Fn(usize, &mut StdRng) -> Result<usize, EngineError> + Sync,
{
    run_workers(spec, &RetryPolicy { max_attempts: 1, ..RetryPolicy::default() }, op)
}

/// Run a mix with the driver owning the retry loop. The closure performs
/// exactly **one attempt** of one transaction; [`retry`] absorbs the
/// aborts, and on budget exhaustion the transaction is counted in
/// [`RunStats::gave_up`] (never a panic). A closure that *panics* is
/// counted in [`RunStats::panics`] and the worker moves on to its next
/// transaction. Non-abort errors are workload programming errors and
/// still panic the run.
pub fn run_mix_with_policy<F>(spec: MixSpec, policy: &RetryPolicy, op: F) -> RunStats
where
    F: Fn(usize, &mut StdRng) -> Result<(), EngineError> + Sync,
{
    run_workers(spec, policy, |t, rng| op(t, rng).map(|()| 0))
}

/// The closed-loop worker loop: `spec.threads` scoped threads, each with
/// its own seeded rng, each driving `spec.txns_per_thread` transactions
/// through [`retry`] and folding the outcomes into a private `RunStats`
/// that is merged once, when the worker finishes.
fn run_workers<F>(spec: MixSpec, policy: &RetryPolicy, op: F) -> RunStats
where
    F: Fn(usize, &mut StdRng) -> Result<usize, EngineError> + Sync,
{
    assert!(policy.max_attempts >= 1, "RetryPolicy::max_attempts must be ≥ 1");
    let total = Mutex::new(RunStats::default());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for t in 0..spec.threads {
            let (op, total) = (&op, &total);
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(spec.seed.wrapping_add(t as u64));
                let mut local = RunStats {
                    latencies_us: Vec::with_capacity(spec.txns_per_thread),
                    ..RunStats::default()
                };
                for txn_no in 0..spec.txns_per_thread {
                    let t0 = Instant::now();
                    let salt = (t as u64) << 32 | txn_no as u64;
                    let attempted = retry(
                        policy,
                        salt,
                        || op(t, &mut rng),
                        |class, _| {
                            local.aborts += 1;
                            *local.aborts_by_class.entry(class).or_insert(0) += 1;
                        },
                    );
                    match attempted {
                        Attempted::Committed { value: absorbed, .. } => {
                            local.committed += 1;
                            local.aborts += absorbed as u64;
                            local.latencies_us.push(t0.elapsed().as_micros() as u64);
                        }
                        Attempted::GaveUp { class, .. } => {
                            local.failed += 1;
                            local.gave_up += 1;
                            *local.gave_up_by_class.entry(class).or_insert(0) += 1;
                        }
                        Attempted::Failed(e) => panic!("workload programming error: {e}"),
                        Attempted::Panicked => local.panics += 1,
                    }
                }
                total.lock().absorb(local);
            });
        }
    });
    RunStats { elapsed: start.elapsed(), ..total.into_inner() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::banking;
    use semcc_engine::{Engine, EngineConfig, IsolationLevel};
    use std::cell::RefCell;
    use std::sync::Arc;
    use std::time::Duration;

    thread_local! {
        /// Every `(attempt, salt)` this thread passed to `backoff`.
        pub(super) static BACKOFF_CALLS: RefCell<Vec<(usize, u64)>> =
            const { RefCell::new(Vec::new()) };
    }

    #[test]
    fn retry_follows_scripted_outcomes() {
        fn fcw() -> EngineError {
            EngineError::Injected(FaultKind::FcwConflict)
        }
        fn timeout() -> EngineError {
            EngineError::Injected(FaultKind::LockTimeout)
        }
        let mut budgeted = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_nanos(1),
            ..RetryPolicy::default()
        };
        budgeted.class_budgets.insert(AbortClass::Fcw, 2);
        // (name, salt, scripted attempt results, expected end, aborts,
        // backoffs). The end is "committed", "failed" or the class given
        // up on; backoff k must be called with `(k, salt)`.
        type Script = Vec<Result<u32, EngineError>>;
        let always = |e: fn() -> EngineError| (0..9).map(|_| Err(e())).collect::<Script>();
        let cases: Vec<(&str, u64, Script, &str, usize, usize)> = vec![
            ("commit first try", 5, vec![Ok(1)], "committed", 0, 0),
            ("2 FCW then commit", 6, vec![Err(fcw()), Err(fcw()), Ok(2)], "committed", 2, 2),
            ("attempt bound (4)", 7, always(timeout), "timeout", 4, 3),
            ("FCW budget (2) before the bound", 8, always(fcw), "fcw", 3, 2),
            ("non-abort error", 9, vec![Err(fcw()), Err(EngineError::TxnFinished)], "failed", 1, 1),
        ];
        for (name, salt, script, end, aborts_seen, backoffs) in cases {
            BACKOFF_CALLS.with(|calls| calls.borrow_mut().clear());
            let mut script = script.into_iter();
            let mut seen = Vec::new();
            let attempted = retry(
                &budgeted,
                salt,
                || script.next().expect("retry ran past the script"),
                |class, _| seen.push(class),
            );
            let (got, aborts) = match &attempted {
                Attempted::Committed { aborts, .. } => ("committed", *aborts),
                Attempted::GaveUp { class, aborts, error } => {
                    assert_eq!(AbortClass::classify(error), Some(*class), "{name}");
                    assert_eq!(seen.last(), Some(class), "{name}: class of the last abort");
                    (class.name(), *aborts)
                }
                Attempted::Failed(_) => ("failed", seen.len()),
                Attempted::Panicked => ("panicked", seen.len()),
            };
            assert_eq!(got, end, "{name}");
            assert_eq!(aborts, aborts_seen, "{name}: aborts reported");
            assert_eq!(seen.len(), aborts_seen, "{name}: on_abort saw every abort");
            let expected: Vec<(usize, u64)> = (1..=backoffs).map(|k| (k, salt)).collect();
            BACKOFF_CALLS.with(|calls| assert_eq!(*calls.borrow(), expected, "{name}: backoff"));
        }
    }

    #[test]
    fn driver_counts_and_conserves() {
        let e = Arc::new(Engine::new(EngineConfig {
            lock_timeout: Duration::from_millis(300),
            record_history: false,
            faults: None,
            wal: None,
        }));
        banking::setup(&e, 4, 1000);
        let programs = banking::app().programs;
        let levels = vec![IsolationLevel::Serializable; programs.len()];
        let stats = run_mix(MixSpec { threads: 4, txns_per_thread: 25, seed: 7 }, |_, rng| {
            banking::random_txn(&e, &programs, &levels, 4, rng)
        });
        assert_eq!(stats.committed + stats.failed, 100);
        assert!(stats.throughput() > 0.0);
        assert!(banking::balance_violations(&e, 4).is_empty());
        assert_eq!(stats.latencies_us.len() as u64, stats.committed);
        assert!(stats.p99_us() >= stats.p50_us());
    }

    #[test]
    fn panicking_op_does_not_cascade_into_other_workers() {
        // Regression: a panicking worker closure used to poison the shared
        // `std::sync::Mutex`, panicking every other worker and the stats
        // collection with it. Now the panic is caught per-op, counted, and
        // every other worker's commits and latencies are still reported.
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let stats = run_mix(MixSpec { threads: 4, txns_per_thread: 10, seed: 1 }, |t, _| {
            if t == 2 {
                panic!("injected workload bug");
            }
            Ok(0)
        });
        std::panic::set_hook(hook);
        assert_eq!(stats.panics, 10, "every panicking op is counted");
        assert_eq!(stats.committed, 30, "the other three workers all finish");
        assert_eq!(stats.latencies_us.len(), 30, "their latencies survive");
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn policy_driver_survives_panicking_attempt() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let policy = RetryPolicy { base_backoff: Duration::ZERO, ..RetryPolicy::default() };
        let stats = run_mix_with_policy(
            MixSpec { threads: 2, txns_per_thread: 5, seed: 1 },
            &policy,
            |t, _| {
                if t == 0 {
                    panic!("injected workload bug");
                }
                Ok(())
            },
        );
        std::panic::set_hook(hook);
        assert_eq!(stats.panics, 5, "one panic per transaction, no retries of a panic");
        assert_eq!(stats.committed, 5, "the healthy worker commits everything");
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn percentiles_are_defined_on_empty_and_singleton_samples() {
        let empty = RunStats::default();
        assert_eq!(empty.p50_us(), 0);
        assert_eq!(empty.p99_us(), 0);

        let one = RunStats { latencies_us: vec![37], ..RunStats::default() };
        assert_eq!(one.p50_us(), 37);
        assert_eq!(one.p99_us(), 37);
        assert_eq!(one.percentile_us(0.0), 37);
        assert_eq!(one.percentile_us(1.0), 37);
    }

    #[test]
    fn percentiles_use_nearest_rank_and_are_monotone() {
        // Unsorted on purpose: the accessor must sort internally.
        let s = RunStats {
            latencies_us: vec![50, 10, 40, 20, 30, 60, 90, 70, 80, 100],
            ..RunStats::default()
        };
        // n = 10: p50 → rank ⌈5⌉ = 5th value; p99 → rank ⌈9.9⌉ = 10th.
        assert_eq!(s.p50_us(), 50);
        assert_eq!(s.p99_us(), 100);
        assert_eq!(s.percentile_us(0.10), 10);
        // Out-of-range p clamps rather than panics.
        assert_eq!(s.percentile_us(-0.5), 10);
        assert_eq!(s.percentile_us(2.0), 100);
        let mut prev = 0;
        for i in 0..=20 {
            let v = s.percentile_us(i as f64 / 20.0);
            assert!(v >= prev, "percentile must be monotone in p");
            prev = v;
        }
    }

    #[test]
    fn policy_caps_attempts_and_reports_gave_up() {
        // An always-losing transaction: without the policy bound this spun
        // forever; now it degrades into `gave_up` after max_attempts.
        let policy =
            RetryPolicy { max_attempts: 3, base_backoff: Duration::ZERO, ..RetryPolicy::default() };
        let stats = run_mix_with_policy(
            MixSpec { threads: 1, txns_per_thread: 5, seed: 1 },
            &policy,
            |_, _| Err(EngineError::Injected(FaultKind::AbortAfterStmt)),
        );
        assert_eq!(stats.committed, 0);
        assert_eq!(stats.gave_up, 5);
        assert_eq!(stats.failed, 5);
        assert_eq!(stats.aborts, 15, "3 attempts per transaction");
        assert_eq!(stats.aborts_by_class.get(&AbortClass::Injected), Some(&15));
        assert_eq!(stats.gave_up_by_class.get(&AbortClass::Injected), Some(&5));
        // Given-up runs stay in the abort_rate denominator.
        assert!((stats.abort_rate() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn class_budget_gives_up_before_attempt_bound() {
        let mut policy = RetryPolicy {
            max_attempts: 50,
            base_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        };
        policy.class_budgets.insert(AbortClass::Fcw, 1);
        let stats = run_mix_with_policy(
            MixSpec { threads: 1, txns_per_thread: 2, seed: 1 },
            &policy,
            |_, _| Err(EngineError::Injected(FaultKind::FcwConflict)),
        );
        // 1 retry allowed per txn: 2 aborts each, then give up.
        assert_eq!(stats.aborts, 4);
        assert_eq!(stats.gave_up, 2);
        assert_eq!(stats.gave_up_by_class.get(&AbortClass::Fcw), Some(&2));
    }

    #[test]
    fn policy_commits_pass_through() {
        let policy = RetryPolicy::default();
        let stats = run_mix_with_policy(
            MixSpec { threads: 2, txns_per_thread: 10, seed: 3 },
            &policy,
            |_, _| Ok(()),
        );
        assert_eq!(stats.committed, 20);
        assert_eq!(stats.gave_up, 0);
        assert_eq!(stats.abort_rate(), 0.0);
    }

    #[test]
    fn backoff_is_deterministic_bounded_and_grows() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(2),
            jitter_seed: 9,
            ..RetryPolicy::default()
        };
        for attempt in 1..10 {
            let a = policy.backoff(attempt, 7);
            let b = policy.backoff(attempt, 7);
            assert_eq!(a, b, "jitter must be deterministic");
            assert!(a <= policy.max_backoff * 3 / 2, "cap plus 50% jitter");
        }
        // Different salts decorrelate workers.
        assert!((1..20).any(|s| policy.backoff(3, s) != policy.backoff(3, s + 1)));
        // Zero base ⇒ no sleeping at all.
        let none = RetryPolicy { base_backoff: Duration::ZERO, ..RetryPolicy::default() };
        assert_eq!(none.backoff(5, 1), Duration::ZERO);
    }

    #[test]
    fn abort_class_names_and_classification() {
        assert_eq!(
            AbortClass::classify(&EngineError::Injected(FaultKind::LockTimeout)),
            Some(AbortClass::Timeout)
        );
        assert_eq!(
            AbortClass::classify(&EngineError::Injected(FaultKind::CrashBeforeCommit)),
            Some(AbortClass::Injected)
        );
        assert_eq!(AbortClass::classify(&EngineError::TxnFinished), None);
        let ssi = EngineError::Ssi(semcc_mvcc::SsiConflict {
            txn: 1,
            pivot: 1,
            key: "commit".to_string(),
        });
        assert_eq!(AbortClass::classify(&ssi), Some(AbortClass::Ssi));
        for c in AbortClass::ALL {
            assert!(!c.name().is_empty());
        }
    }

    #[test]
    fn deterministic_seeds_reproduce_counts() {
        // Same seed + single thread ⇒ same request sequence.
        let run = |seed: u64| {
            let e = Arc::new(Engine::new(EngineConfig {
                lock_timeout: Duration::from_millis(300),
                record_history: false,
                faults: None,
                wal: None,
            }));
            banking::setup(&e, 2, 500);
            let programs = banking::app().programs;
            let levels = vec![IsolationLevel::Serializable; programs.len()];
            run_mix(MixSpec { threads: 1, txns_per_thread: 30, seed }, |_, rng| {
                banking::random_txn(&e, &programs, &levels, 2, rng)
            });
            banking::total_money(&e, 2)
        };
        assert_eq!(run(42), run(42));
    }
}
