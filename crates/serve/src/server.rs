//! The typed-transaction server: a registry of transaction programs, an
//! admission policy assigning each type its isolation level, and a
//! sharded [`Engine`] underneath.
//!
//! [`Server::submit`] is the whole API surface: clients name a registered
//! transaction *type* and supply parameter bindings; the server runs the
//! program at the policy's level with bounded, classified retries. The
//! server never panics on behalf of a workload — a panicking program is
//! caught per-attempt and surfaced as [`SubmitError::Panicked`] — and
//! unknown types are rejected before touching the engine.

use crate::policy::AdmissionPolicy;
use parking_lot::Mutex;
use semcc_engine::{Engine, EngineConfig, EngineError, EngineTuning, IsolationLevel};
use semcc_txn::interp::{run_program, RunOutcome};
use semcc_txn::{Bindings, Program};
use semcc_workloads::driver::{retry, AbortClass, Attempted, RetryPolicy};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
///
/// The defaults differ from [`EngineConfig::default`] in two deliberate
/// ways. First, `lock_timeout` is **30 ms**, not 5 s: under server
/// concurrency an undetected stall must surface as a cheap
/// [`AbortClass::Timeout`] retry, not a five-second latency cliff on
/// every affected request (the per-type timeout counts in
/// [`TypeStats::aborts_by_class`] make the tuning observable). Second,
/// history recording is **off**: the unbounded event log exists for
/// checkers and explorers, and a long-running server would leak without
/// bound; opting back in via `record_history` uses a bounded ring buffer.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Lock-wait timeout (default 30 ms; see the struct docs).
    pub lock_timeout: Duration,
    /// Concurrency layout (default [`EngineTuning::server`]: 32 lock
    /// shards, 32 store stripes).
    pub tuning: EngineTuning,
    /// Record operation history (default **off** for servers). When on,
    /// an unset `tuning.history_cap` is clamped to a bounded default so
    /// the server still cannot leak.
    pub record_history: bool,
    /// Retry policy applied per submission (attempt bound, per-class
    /// budgets, jittered backoff).
    pub retry: RetryPolicy,
}

/// Ring-buffer capacity used when history is enabled without an explicit
/// cap.
pub const DEFAULT_HISTORY_CAP: usize = 65_536;

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            lock_timeout: Duration::from_millis(30),
            tuning: EngineTuning::server(),
            record_history: false,
            retry: RetryPolicy::default(),
        }
    }
}

/// Why the server refused to start.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// A registered program has no admission-policy entry.
    Uncovered { txn: String },
    /// No programs were registered.
    NoPrograms,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Uncovered { txn } => {
                write!(
                    f,
                    "program `{txn}` has no admission-policy entry; refusing to guess its level"
                )
            }
            ServeError::NoPrograms => write!(f, "no transaction programs registered"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Why a submission failed.
#[derive(Clone, Debug)]
pub enum SubmitError {
    /// The named type is not registered (admission control).
    UnknownType(String),
    /// Retries exhausted; carries the final abort.
    GaveUp { class: AbortClass, aborts: usize, error: EngineError },
    /// A non-abort engine error: a programming error in the submitted
    /// program, surfaced to the caller instead of panicking the server.
    Failed(EngineError),
    /// The program panicked mid-attempt; the panic was contained.
    Panicked,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::UnknownType(t) => write!(f, "unknown transaction type `{t}`"),
            SubmitError::GaveUp { class, aborts, .. } => {
                write!(f, "gave up after {aborts} abort(s); last class: {}", class.name())
            }
            SubmitError::Failed(e) => write!(f, "programming error: {e}"),
            SubmitError::Panicked => write!(f, "program panicked"),
        }
    }
}

/// A successful submission: the program's outcome plus the aborts the
/// retry loop absorbed on the way.
#[derive(Clone, Debug)]
pub struct Submitted {
    /// The committed run's outcome (commit timestamp, final locals).
    pub outcome: RunOutcome,
    /// Aborts absorbed before the committing attempt.
    pub aborts: usize,
}

/// Per-type counters, keyed by the class taxonomy the driver shares.
#[derive(Clone, Debug, Default)]
pub struct TypeStats {
    /// Submissions accepted (known type).
    pub submitted: u64,
    /// Submissions that committed.
    pub committed: u64,
    /// Submissions that exhausted retries.
    pub gave_up: u64,
    /// Attempts that panicked (contained).
    pub panics: u64,
    /// Absorbed aborts by class — [`AbortClass::Timeout`] here is the
    /// observable cost of the `lock_timeout` tuning.
    pub aborts_by_class: BTreeMap<AbortClass, u64>,
}

/// One type's counters: the live, lock-free form of [`TypeStats`].
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    committed: AtomicU64,
    gave_up: AtomicU64,
    panics: AtomicU64,
    /// Indexed by `AbortClass as usize`.
    aborts: [AtomicU64; AbortClass::ALL.len()],
}

impl Counters {
    fn snapshot(&self) -> TypeStats {
        TypeStats {
            submitted: self.submitted.load(Relaxed),
            committed: self.committed.load(Relaxed),
            gave_up: self.gave_up.load(Relaxed),
            panics: self.panics.load(Relaxed),
            aborts_by_class: AbortClass::ALL
                .into_iter()
                .map(|class| (class, self.aborts[class as usize].load(Relaxed)))
                .filter(|(_, n)| *n > 0)
                .collect(),
        }
    }
}

/// A registered type: its program, its policy level, and its own counter
/// slot, so a submission resolves its type once and counts without a
/// shared lock.
struct Registered {
    program: Program,
    level: IsolationLevel,
    counters: Counters,
}

/// The transaction server. `Sync`: one instance serves all worker
/// threads.
pub struct Server {
    engine: Arc<Engine>,
    programs: BTreeMap<String, Registered>,
    policy: AdmissionPolicy,
    retry: RetryPolicy,
    rejected_unknown: Mutex<BTreeMap<String, u64>>,
}

impl Server {
    /// Build a server over a fresh engine. Every registered program must
    /// have a policy entry — a program the synthesis never analyzed has
    /// no safe level, so the server refuses to start rather than guess.
    pub fn start(
        policy: AdmissionPolicy,
        programs: Vec<Program>,
        config: ServeConfig,
    ) -> Result<Server, ServeError> {
        if programs.is_empty() {
            return Err(ServeError::NoPrograms);
        }
        let mut table = BTreeMap::new();
        for p in programs {
            let Some(level) = policy.level_of(&p.name) else {
                return Err(ServeError::Uncovered { txn: p.name });
            };
            let name = p.name.clone();
            table.insert(name, Registered { program: p, level, counters: Counters::default() });
        }
        let mut tuning = config.tuning;
        if config.record_history && tuning.history_cap.is_none() {
            tuning.history_cap = Some(DEFAULT_HISTORY_CAP);
        }
        let engine = Arc::new(Engine::with_tuning(
            EngineConfig {
                lock_timeout: config.lock_timeout,
                record_history: config.record_history,
                faults: None,
                wal: None,
            },
            tuning,
        ));
        Ok(Server {
            engine,
            programs: table,
            policy,
            retry: config.retry,
            rejected_unknown: Mutex::new(BTreeMap::new()),
        })
    }

    /// The underlying engine (setup, audits, metrics).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The verified admission policy.
    pub fn policy(&self) -> &AdmissionPolicy {
        &self.policy
    }

    /// The level a type runs at, if registered.
    pub fn level_of(&self, txn_type: &str) -> Option<IsolationLevel> {
        self.programs.get(txn_type).map(|r| r.level)
    }

    /// A registered program, if any.
    pub fn program(&self, txn_type: &str) -> Option<&Program> {
        self.programs.get(txn_type).map(|r| &r.program)
    }

    /// Registered type names, sorted.
    pub fn types(&self) -> Vec<&str> {
        self.programs.keys().map(String::as_str).collect()
    }

    /// Snapshot of the per-type counters (types submitted at least once).
    pub fn stats(&self) -> BTreeMap<String, TypeStats> {
        let all = self.programs.iter().map(|(name, r)| (name.clone(), r.counters.snapshot()));
        all.filter(|(_, stats)| stats.submitted > 0).collect()
    }

    /// Submissions rejected for naming an unregistered type, per name.
    pub fn rejected_unknown(&self) -> BTreeMap<String, u64> {
        self.rejected_unknown.lock().clone()
    }

    /// Submit one typed transaction. `salt` decorrelates the retry
    /// backoff jitter across concurrent submitters (workers typically
    /// pass a request id).
    pub fn submit(
        &self,
        txn_type: &str,
        bindings: &Bindings,
        salt: u64,
    ) -> Result<Submitted, SubmitError> {
        let Some(entry) = self.programs.get(txn_type) else {
            *self.rejected_unknown.lock().entry(txn_type.to_string()).or_insert(0) += 1;
            return Err(SubmitError::UnknownType(txn_type.to_string()));
        };
        let run = || run_program(&self.engine, &entry.program, entry.level, bindings);
        let (outcome, aborts) = self.run_to_completion(&entry.counters, salt, run)?;
        Ok(Submitted { outcome, aborts })
    }

    /// Drive `attempt` through the shared [`retry`] loop on behalf of one
    /// submission, counting into its type's own slot.
    fn run_to_completion<T>(
        &self,
        counters: &Counters,
        salt: u64,
        attempt: impl FnMut() -> Result<T, EngineError>,
    ) -> Result<(T, usize), SubmitError> {
        counters.submitted.fetch_add(1, Relaxed);
        let on_abort = |class: AbortClass, _: &EngineError| {
            counters.aborts[class as usize].fetch_add(1, Relaxed);
        };
        match retry(&self.retry, salt, attempt, on_abort) {
            Attempted::Committed { value, aborts } => {
                counters.committed.fetch_add(1, Relaxed);
                Ok((value, aborts))
            }
            Attempted::GaveUp { class, aborts, error } => {
                counters.gave_up.fetch_add(1, Relaxed);
                Err(SubmitError::GaveUp { class, aborts, error })
            }
            Attempted::Failed(e) => Err(SubmitError::Failed(e)),
            Attempted::Panicked => {
                counters.panics.fetch_add(1, Relaxed);
                Err(SubmitError::Panicked)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::tests_support::sealed_policy;
    use semcc_workloads::banking;

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
    fn start_requires_full_coverage() {
        let partial = sealed_policy("banking", &[("Withdraw_sav", "REPEATABLE READ", false)]);
        let err = Server::start(partial, banking::app().programs, ServeConfig::default())
            .err()
            .expect("uncovered program must refuse start");
        assert!(matches!(err, ServeError::Uncovered { .. }), "got: {err}");

        let none = Server::start(banking_policy(), Vec::new(), ServeConfig::default())
            .err()
            .expect("no programs");
        assert_eq!(none, ServeError::NoPrograms);
    }

    #[test]
    fn submit_runs_at_policy_level_and_rejects_unknown() {
        let server =
            Server::start(banking_policy(), banking::app().programs, ServeConfig::default())
                .expect("server");
        banking::setup(server.engine(), 2, 100);
        assert_eq!(server.level_of("Withdraw_sav"), Some(IsolationLevel::RepeatableRead));

        let b = Bindings::new().set("i", 0).set("d", 25);
        let done = server.submit("Deposit_sav", &b, 1).expect("deposit commits");
        assert!(done.outcome.commit_ts > 0);
        assert_eq!(
            server.engine().peek_item("acct_sav[0]").expect("item"),
            semcc_engine::Value::Int(125)
        );

        let err = server.submit("Transfer", &Bindings::new(), 2).expect_err("unknown type");
        assert!(matches!(err, SubmitError::UnknownType(_)), "got: {err}");
        assert_eq!(server.rejected_unknown().get("Transfer"), Some(&1));

        let stats = server.stats();
        assert_eq!(stats.get("Deposit_sav").map(|s| s.committed), Some(1));
        assert!(!stats.contains_key("Transfer"), "rejected types never enter the stats table");
    }

    #[test]
    fn missing_items_surface_as_failed() {
        let server =
            Server::start(banking_policy(), banking::app().programs, ServeConfig::default())
                .expect("server");
        // No setup: the account items do not exist; reads fail with a
        // non-abort storage error that must surface as Failed.
        let b = Bindings::new().set("i", 0).set("w", 5);
        let err = server.submit("Withdraw_sav", &b, 0).expect_err("missing items");
        assert!(matches!(err, SubmitError::Failed(_)), "got: {err}");
    }

    #[test]
    fn attempt_panicking_under_an_x_lock_is_contained_and_rolled_back() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let server =
            Server::start(banking_policy(), banking::app().programs, ServeConfig::default())
                .expect("server");
        banking::setup(server.engine(), 2, 100);
        let engine = server.engine();
        // The interpreter has no panicking statement, so the attempt is
        // written out: write an item (taking its X lock), then panic with
        // the transaction still active.
        let buggy = || -> Result<(), EngineError> {
            let mut txn = engine.begin(IsolationLevel::Serializable);
            txn.write("acct_sav[0]", 7)?;
            panic!("injected bug after a write");
        };
        let direct = retry(&RetryPolicy::default(), 0, buggy, |_, _| {});
        let counters = &server.programs["Withdraw_sav"].counters;
        let submitted = server.run_to_completion(counters, 0, buggy);
        std::panic::set_hook(hook);

        assert!(matches!(direct, Attempted::Panicked), "got: {direct:?}");
        assert!(matches!(submitted, Err(SubmitError::Panicked)));
        assert_eq!(server.stats()["Withdraw_sav"].panics, 1);
        // Unwinding dropped the transaction: write undone, X lock released.
        let audit = semcc_engine::audit::audit_quiescent(engine);
        assert!(audit.clean(), "{:?}", audit.violations);
        assert_eq!(engine.peek_item("acct_sav[0]").expect("item"), semcc_engine::Value::Int(100));
        let b = Bindings::new().set("i", 0).set("d", 1);
        server.submit("Deposit_sav", &b, 1).expect("the item is not left locked");
    }
}
