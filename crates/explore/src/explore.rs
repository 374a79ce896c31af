//! The schedule-space explorer: systematic enumeration of all
//! statement-granular interleavings of 2–3 transaction instances, pruned
//! by persistent-set + sleep-set dynamic partial-order reduction.
//!
//! ## Event model
//!
//! Each transaction instance contributes `stmt_count + 2` schedulable
//! events: `begin` (snapshot acquisition), one per top-level statement,
//! and `commit` (lock release, buffer install, FCW validation). A
//! *schedule* is an interleaving of these event sequences; the explorer
//! enumerates Mazurkiewicz-trace representatives instead of all of them.
//!
//! ## Execution
//!
//! The tree is walked depth-first over **live state**. A worker keeps one
//! engine and the instances' `Stepper`s alive, executes the next event on
//! that state, and observes a completed schedule (`observe` +
//! `detect_anomalies`) where it stands, with no replay. The state is
//! restored only before a node's second and later attempts (the first
//! attempt moved it off the node), which also covers every refused event:
//! the steppers are dropped first, so their aborts land on the old state,
//! then the engine is [`Engine::reset`], re-seeded, and the node's prefix
//! re-executed. Engines run with `lock_timeout = 0`, so a conflicting lock
//! acquisition fails instantly instead of waiting for a peer that can
//! never run. An event the engine refuses (lock conflict, FCW validation
//! failure) is counted *blocked* and its subtree abandoned — the
//! concurrency control forbade that interleaving, which is evidence, not
//! error.
//!
//! ## Parallelism
//!
//! Which events a node tries and which stay asleep depends on the node's
//! positions and sleep set alone; the engine only prunes the tree, by
//! refusing events. So the tree is cut into subtrees before anything
//! executes: the unexecuted tree is expanded level by level until its
//! frontier holds at least `SUBTREES` nodes, a constant — the cut never
//! reads [`ExploreOptions::jobs`]. Each subtree is restored once and
//! walked depth-first by one of `jobs` workers via
//! `semcc_par::ordered_map_with`, each on its **own** `Engine`
//! ([`Engine::reset`] reproduces ids and timestamps exactly, so worker
//! engines are interchangeable). All the subtrees below one refused event
//! report that refusal; the merge counts it once.
//!
//! Outcomes are merged on the calling thread in **pre-order**, and the
//! [`ExploreOptions::max_schedules`] cut is a pre-order position, so every
//! result field — `replays` and `events` included — is identical at any
//! job count. Untruncated counts are order-free sums, and the leaves
//! arrive in pre-order, which is also the breadth-first leaf order,
//! because every leaf has depth `total_events`. At `jobs = 1` the map runs
//! on the calling thread: no thread is spawned and one engine is built.
//!
//! ## Pruning
//!
//! Two events are *dependent* when their read/write footprints conflict
//! (per-statement footprints from `semcc_core::stmt_footprints`; commits
//! carry the transaction's whole write set plus its read set when the
//! level holds long read locks; begins depend on commits only for
//! SNAPSHOT transactions). Independent events commute, so:
//!
//! * **persistent sets** — when some enabled transaction's next event is
//!   independent of *every* remaining event of every other transaction,
//!   only that transaction is explored at this node;
//! * **sleep sets** — after fully exploring a branch via event `e`, `e`
//!   is put to sleep for the sibling branches and only woken by a
//!   dependent event.
//!
//! ## Oracle
//!
//! Each completed schedule's *observation* — final committed items and
//! rows plus every transaction's locals and SELECT buffers (timestamps
//! and row ids excluded) — is compared against the observations of all
//! `k!` serial executions. A completed schedule matching no serial
//! observation is **divergent**: a concrete non-serializable execution.
//! The checker's anomaly detectors run on every completed schedule's
//! history for the cross-check against the static prediction.

use crate::spec::{specs_for, sub_app, TxnSpec};
use semcc_checker::detect_anomalies;
use semcc_core::{seed_neutral, stmt_footprints, App, DepGraph, StmtFootprint};
use semcc_engine::{AnomalyKind, Engine, EngineConfig, EngineError, IsolationLevel};
use semcc_par::{ordered_map, ordered_map_with};
use semcc_refine::{reads_table_select_only, writes_table_insert_only, writes_table_region_only};
use semcc_txn::interp::Stepper;
use semcc_txn::stmt::Stmt;
use semcc_txn::Program;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

/// Exploration bounds and initial-state adjustments.
#[derive(Clone, Debug)]
pub struct ExploreOptions {
    /// Maximum schedule length explored (`None` = full depth). Prefixes
    /// reaching the bound are abandoned and the result marked truncated.
    pub max_depth: Option<usize>,
    /// Safety bound on completed + blocked schedules.
    pub max_schedules: u64,
    /// Item overrides applied on top of the neutral seed (items default
    /// to 100) before every replay.
    pub seed_items: Vec<(String, i64)>,
    /// Column overrides for each table's seeded row, `(table, column,
    /// value)`. The neutral seed sets integer columns to 0, which can make
    /// an intermediate state coincide with a serial one (e.g. payroll's
    /// `rate = 0` hides the broken `rate·hrs = sal`); overrides make the
    /// states distinguishable without changing the shared witness seeding.
    pub seed_cols: Vec<(String, String, i64)>,
    /// Fault injection: `(victim index, k)` truncates the victim to its
    /// first `k` statements followed by a forced **abort** instead of a
    /// commit. Serial reference orders run the same truncated victim, so a
    /// divergent schedule means some peer *observed state the rollback
    /// erased* — the executable form of Theorem 1's rollback-write
    /// obligation.
    pub injected_abort: Option<(usize, usize)>,
    /// Engine lock-wait budget. The default `ZERO` is what the walk wants
    /// (each schedule is executed by a single thread, so a conflicting
    /// acquisition can never be released by a peer and must fail
    /// instantly); a nonzero value is only useful for measuring
    /// timeout-abort behaviour.
    pub lock_timeout: Duration,
    /// Worker threads walking the DPOR subtrees (and the serial-order
    /// reference replays). Any value produces **bit-for-bit identical**
    /// results; `jobs = 1` (the default) walks on the calling thread.
    pub jobs: usize,
    /// Use the prover-refined dependence relation for DPOR: run the
    /// `semcc-refine` pruning pass over the explored types' dependency
    /// graph and excuse statement pairs whose table conflict was proven
    /// infeasible, at the statement shapes the proof covered. Shrinks
    /// persistent sets and wakes sleep sets less often, so fewer
    /// Mazurkiewicz representatives are executed — soundly, because a
    /// pruned pair's events truly commute. Ignored (the base relation is
    /// used) under [`ExploreOptions::injected_abort`]: the victim's
    /// truncation + rollback invalidates the whole-program summaries the
    /// prune proofs are about.
    pub refine: bool,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            max_depth: None,
            max_schedules: 1_000_000,
            seed_items: Vec::new(),
            seed_cols: Vec::new(),
            injected_abort: None,
            lock_timeout: Duration::ZERO,
            jobs: 1,
            refine: false,
        }
    }
}

/// A concrete non-serializable execution found by the explorer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DivergentSchedule {
    /// The interleaving, one rendered event per line.
    pub steps: Vec<String>,
    /// Anomaly kinds the checker detected in this schedule's history.
    pub anomalies: Vec<AnomalyKind>,
}

/// What the explorer found.
#[derive(Clone, Debug)]
pub struct ExploreResult {
    /// Display labels of the explored instances (`name#2` on duplicates).
    pub txns: Vec<String>,
    /// Level per instance, positionally.
    pub levels: Vec<IsolationLevel>,
    /// Total schedulable events (Σ per-txn `stmt_count + 2`).
    pub total_events: usize,
    /// Interleavings a naive enumerator would execute (the multinomial
    /// coefficient over per-transaction event counts).
    pub naive_schedules: u128,
    /// Completed schedules actually executed.
    pub explored: u64,
    /// Prefixes the engine refused (lock conflict / FCW abort): the
    /// concurrency control forbade these interleavings at this level
    /// vector, so their whole subtree is unreachable at runtime.
    pub blocked: u64,
    /// Prefixes failing with a non-abort programming error (e.g. an empty
    /// `SELECT INTO`); should be 0 for well-formed inputs.
    pub infeasible: u64,
    /// Engine resets: one per serial order, one per subtree, and one per
    /// restore inside the walk.
    pub replays: u64,
    /// Begin, statement, commit and abort events the tree walk executed on
    /// an engine, restores included and serial orders excluded.
    pub events: u64,
    /// Completed schedules whose observation matches no serial order.
    pub divergent: u64,
    /// Up to [`MAX_DIVERGENT_EXAMPLES`] concrete divergent schedules.
    pub divergent_examples: Vec<DivergentSchedule>,
    /// Checker anomaly counts summed over all completed schedules.
    pub anomaly_counts: BTreeMap<AnomalyKind, u64>,
    /// Distinct serial observations (≤ k!).
    pub serial_orders: usize,
    /// Serial executions that failed (should be 0).
    pub serial_errors: u64,
    /// Whether a bound cut the exploration short.
    pub truncated: bool,
}

/// Cap on stored concrete divergent schedules (the count is exact).
pub const MAX_DIVERGENT_EXAMPLES: usize = 8;

impl ExploreResult {
    /// No divergent schedule was found **and** the exploration was
    /// complete. A truncated run proves nothing about the schedules it
    /// never reached, so it is never clean — callers deciding verdicts or
    /// exit codes must not mistake an exhausted budget for an exhausted
    /// schedule space.
    pub fn clean(&self) -> bool {
        self.divergent == 0 && !self.truncated
    }

    /// Schedules neither executed nor blocked: pruned by DPOR (each
    /// blocked *prefix* is counted once although it dominates many full
    /// interleavings, so this undercounts the true pruning).
    pub fn pruned(&self) -> u128 {
        self.naive_schedules
            .saturating_sub(self.explored as u128 + self.blocked as u128 + self.infeasible as u128)
    }

    /// Naive-to-executed ratio (the acceptance criterion's "pruning ≥ 2x").
    pub fn pruning_ratio(&self) -> f64 {
        let ran = (self.explored + self.blocked + self.infeasible).max(1);
        self.naive_schedules as f64 / ran as f64
    }
}

/// Explore every schedule of `specs` (2–3 transaction instances) over
/// `app`'s schema, starting from the neutral seeded state.
pub fn explore(
    app: &App,
    specs: &[TxnSpec],
    opts: &ExploreOptions,
) -> Result<ExploreResult, String> {
    if !(2..=3).contains(&specs.len()) {
        return Err(format!("explore needs 2–3 transaction instances, got {}", specs.len()));
    }
    if let Some((v, k)) = opts.injected_abort {
        if v >= specs.len() {
            return Err(format!("injected-abort victim #{v} out of range"));
        }
        let n = specs[v].program.body.len();
        if k == 0 || k > n {
            return Err(format!(
                "injected abort after statement {k} of `{}` (has {n})",
                specs[v].program.name
            ));
        }
    }
    let ctx = Ctx::new(app, specs, opts.clone());
    let mut acc = Acc::default();
    run(&ctx, &mut acc);
    Ok(acc.into_result(ctx))
}

/// One case of an injected-abort sweep: the victim rolled back after its
/// first `k` statements.
#[derive(Clone, Debug)]
pub struct AbortCase {
    /// The victim aborted after this many statements (1-based).
    pub k: usize,
    /// The exploration at that abort position.
    pub result: ExploreResult,
}

/// Fault-mode exploration: run [`explore`] once per abort position of
/// `victim` — rollback after statement 1, 2, …, up to its full statement
/// count. A divergent schedule at any position is a peer observing state
/// the rollback erased (a dirty read of a rolled-back write, in the
/// paper's terms); a clean sweep certifies that no single injected abort
/// of `victim` can change what committed observers see at this level
/// vector.
///
/// The abort positions are independent explorations, so the sweep fans
/// them out over `opts.jobs` workers (each position explored at
/// `jobs = 1` — the explorer is jobs-invariant, so spending the cores on
/// the outer sweep is the same answer for less coordination). Case order
/// and contents are identical at every job count.
pub fn explore_with_aborts(
    app: &App,
    specs: &[TxnSpec],
    opts: &ExploreOptions,
    victim: usize,
) -> Result<Vec<AbortCase>, String> {
    if victim >= specs.len() {
        return Err(format!("injected-abort victim #{victim} out of range"));
    }
    let n = specs[victim].program.body.len();
    if n == 0 {
        return Err(format!("victim `{}` has no statements", specs[victim].program.name));
    }
    let positions: Vec<usize> = (1..=n).collect();
    ordered_map(opts.jobs, &positions, |_, &k| {
        let o = ExploreOptions { injected_abort: Some((victim, k)), jobs: 1, ..opts.clone() };
        explore(app, specs, &o).map(|result| AbortCase { k, result })
    })
    .into_iter()
    .collect()
}

/// Level-vector sweep: explore the same transaction names at each vector
/// in `vectors`, fanning the vectors out over `opts.jobs` workers (each
/// vector explored at `jobs = 1`; see [`explore_with_aborts`] for why the
/// outer loop is the right place to spend the cores). Results are in
/// vector order and bit-for-bit identical at every job count.
///
/// The static half of the differential (`lint`) is deliberately *not*
/// computed here: callers hand these results to
/// [`crate::differential_batch`], which owns the argument for why the
/// prover side is safe to fan out.
pub fn explore_sweep(
    app: &App,
    names: &[String],
    vectors: &[Vec<IsolationLevel>],
    opts: &ExploreOptions,
) -> Result<Vec<(Vec<TxnSpec>, ExploreResult)>, String> {
    let specs: Vec<Vec<TxnSpec>> =
        vectors.iter().map(|v| specs_for(app, names, v)).collect::<Result<_, _>>()?;
    let results = ordered_map(opts.jobs, &specs, |_, specs| {
        let o = ExploreOptions { jobs: 1, ..opts.clone() };
        explore(app, specs, &o)
    });
    specs.into_iter().zip(results).map(|(s, r)| r.map(|result| (s, result))).collect()
}

/// Observation of one completed execution: everything a client could have
/// seen, with scheduling artifacts (timestamps, row ids) excluded so that
/// equality means semantic equivalence.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct Observation {
    items: BTreeMap<String, String>,
    tables: BTreeMap<String, Vec<Vec<String>>>,
    txns: Vec<TxnObs>,
}

#[derive(Clone, Debug, PartialEq, Eq, Default)]
struct TxnObs {
    locals: BTreeMap<String, String>,
    buffers: BTreeMap<String, Vec<Vec<String>>>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ReplayError {
    Blocked,
    Infeasible,
}

/// Classify a refused event. With the default `lock_timeout: ZERO`, an
/// `EngineError` Timeout is **not** a spurious fault of the worker's
/// private engine: it is the instant refusal of a conflicting lock
/// acquisition (the single executing thread can never have a peer release
/// a lock while it waits), and a genuine deadlock victimization is the
/// same verdict reached through the wait-for graph instead of the clock.
/// Both — like an FCW validation loss — mean "the concurrency control
/// forbade this interleaving" and classify the *prefix* ending in the
/// event as Blocked. Everything non-abort is a programming error:
/// Infeasible.
///
/// A refused event never yields a child node or a completed schedule, so
/// no interleaving can be counted both blocked and explored; the merge
/// step re-checks that conservation globally.
fn classify(e: &EngineError) -> ReplayError {
    if e.is_abort() {
        ReplayError::Blocked
    } else {
        ReplayError::Infeasible
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Begin,
    Stmt(usize),
    Commit,
    /// Injected fault: the victim's terminal event is a rollback.
    Abort,
}

/// The immutable exploration context shared (read-only) by all workers.
struct Ctx<'a> {
    app: &'a App,
    specs: &'a [TxnSpec],
    opts: ExploreOptions,
    labels: Vec<String>,
    n_events: Vec<usize>,
    stmt_fps: Vec<Vec<StmtFootprint>>,
    all_reads: Vec<BTreeSet<String>>,
    all_writes: Vec<BTreeSet<String>>,
    /// Prover-refined dependence matrices ([`ExploreOptions::refine`]);
    /// `None` means the base footprint-overlap relation applies.
    refined: Option<Refined>,
}

/// Precomputed refined dependence, indexed by instance and event. Each
/// matrix is the base token-overlap test with *excused* table tokens
/// removed: a `tbl:T` conflict between two statements is excused when the
/// refinement pass pruned the corresponding edge constituent between the
/// two transaction types **and** both statements match the shape the
/// prune proof covered (INSERT-only writer against SELECT-only reader for
/// wr/rw constituents; INSERT-only against UPDATE/DELETE-only for ww).
/// With no prunes every matrix reduces exactly to the base relation.
struct Refined {
    /// `[t][i][u][j]`: statements `i` of `t` and `j` of `u` stay dependent.
    stmt_stmt: Vec<Vec<Vec<Vec<bool>>>>,
    /// `[s][i][c]`: statement `i` of `s` is dependent on `c`'s commit.
    stmt_commit: Vec<Vec<Vec<bool>>>,
    /// `[b][c]`: `b`'s begin is dependent on `c`'s commit.
    begin_commit: Vec<Vec<bool>>,
    /// `[t][u]`: the two commits are dependent.
    commit_commit: Vec<Vec<bool>>,
}

impl Refined {
    /// Run the refinement pass over the explored types and lower its
    /// program-pair prunes to event-pair matrices.
    fn build(app: &App, specs: &[TxnSpec], stmt_fps: &[Vec<StmtFootprint>]) -> Refined {
        let sub = sub_app(app, specs);
        let report = semcc_refine::refine(&sub, &DepGraph::build(&sub));
        let prunes: Vec<(String, String, String, String)> =
            report.prunes.into_iter().map(|p| (p.from, p.to, p.kind, p.table)).collect();
        let pruned = |from: &str, to: &str, kind: &str, table: &str| {
            prunes.iter().any(|(f, t, k, tb)| f == from && t == to && k == kind && tb == table)
        };
        let k = specs.len();
        let n: Vec<usize> = specs.iter().map(|s| s.program.body.len()).collect();
        let name = |t: usize| specs[t].program.name.as_str();
        let stmt = |t: usize, i: usize| &specs[t].program.body[i].stmt;
        // writes(t,i) ∩ reads(u,j), minus excused table tokens.
        let wr = |t: usize, i: usize, u: usize, j: usize| {
            stmt_fps[t][i].writes.iter().any(|tok| {
                if !stmt_fps[u][j].reads.contains(tok) {
                    return false;
                }
                let Some(table) = tok.strip_prefix("tbl:") else {
                    return true; // item tokens are never excused
                };
                let excused = (pruned(name(t), name(u), "wr", table)
                    || pruned(name(u), name(t), "rw", table))
                    && writes_table_insert_only(stmt(t, i), table)
                    && reads_table_select_only(stmt(u, j), table);
                !excused
            })
        };
        // writes(t,i) ∩ writes(u,j), minus excused table tokens.
        let ww = |t: usize, i: usize, u: usize, j: usize| {
            stmt_fps[t][i].writes.iter().any(|tok| {
                if !stmt_fps[u][j].writes.contains(tok) {
                    return false;
                }
                let Some(table) = tok.strip_prefix("tbl:") else {
                    return true;
                };
                let pair_pruned =
                    pruned(name(t), name(u), "ww", table) || pruned(name(u), name(t), "ww", table);
                let (si, sj) = (stmt(t, i), stmt(u, j));
                let shapes = (writes_table_insert_only(si, table)
                    && writes_table_region_only(sj, table))
                    || (writes_table_region_only(si, table) && writes_table_insert_only(sj, table));
                !(pair_pruned && shapes)
            })
        };
        let stmt_stmt: Vec<Vec<Vec<Vec<bool>>>> = (0..k)
            .map(|t| {
                (0..n[t])
                    .map(|i| {
                        (0..k)
                            .map(|u| {
                                (0..n[u])
                                    .map(|j| ww(t, i, u, j) || wr(t, i, u, j) || wr(u, j, t, i))
                                    .collect()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let stmt_commit: Vec<Vec<Vec<bool>>> = (0..k)
            .map(|s| {
                (0..n[s])
                    .map(|i| {
                        (0..k)
                            .map(|c| {
                                // SIREAD locks order writes against the
                                // holder's commit exactly like long read
                                // locks (see `stmt_commit_dep`).
                                let read_lockish = specs[c].level.long_read_locks()
                                    || (specs[c].level.siread_locks()
                                        && specs[s].level.siread_locks());
                                (0..n[c]).any(|ci| wr(c, ci, s, i) || ww(c, ci, s, i))
                                    || (read_lockish && (0..n[c]).any(|ci| wr(s, i, c, ci)))
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let begin_commit: Vec<Vec<bool>> = (0..k)
            .map(|b| {
                (0..k)
                    .map(|c| {
                        (specs[b].level.is_snapshot()
                            && (0..n[c])
                                .any(|ci| (0..n[b]).any(|j| wr(c, ci, b, j) || ww(c, ci, b, j))))
                            // SSI concurrency classification: begin(b) vs
                            // commit(c) order decides whether b's writes
                            // mark c's SIREADs (see `begin_commit_dep`).
                            || (specs[b].level.siread_locks()
                                && specs[c].level.siread_locks()
                                && (0..n[b])
                                    .any(|j| (0..n[c]).any(|ci| wr(b, j, c, ci))))
                    })
                    .collect()
            })
            .collect();
        let commit_commit: Vec<Vec<bool>> = (0..k)
            .map(|t| (0..k).map(|u| (0..n[t]).any(|i| (0..n[u]).any(|j| ww(t, i, u, j)))).collect())
            .collect();
        Refined { stmt_stmt, stmt_commit, begin_commit, commit_commit }
    }
}

/// Nodes the tree is cut into before the walk (see the module docs). A
/// constant, so the cut — and with it every count — is the same at any
/// job count.
const SUBTREES: usize = 8;

/// One DPOR tree node: a prefix, the per-transaction event positions it
/// implies, and the sleep set at this node.
struct Node {
    prefix: Vec<(usize, usize)>,
    pos: Vec<usize>,
    sleep: Vec<bool>,
}

impl Node {
    fn root(k: usize) -> Node {
        Node { prefix: Vec::new(), pos: vec![0; k], sleep: vec![false; k] }
    }

    /// The node after `t`'s next event, with sleep set `sleep`.
    fn child(&self, t: usize, sleep: Vec<bool>) -> Node {
        let mut prefix = self.prefix.clone();
        prefix.push((t, self.pos[t]));
        let mut pos = self.pos.clone();
        pos[t] += 1;
        Node { prefix, pos, sleep }
    }
}

/// A node of the tree as the dependence relation alone shapes it.
enum Shape {
    /// All events scheduled: a completed schedule.
    Leaf,
    /// `max_depth` reached with events remaining: subtree abandoned.
    Depth,
    /// The awake members of the explore set in order, each with the sleep
    /// set its child starts from.
    Inner(Vec<(usize, Vec<bool>)>),
}

/// What the walk met, in pre-order.
enum Outcome {
    /// A completed schedule, observed on the live state; `obs` indexes
    /// [`Walked::observations`].
    Leaf { steps: Vec<(usize, usize)>, obs: usize, kinds: Vec<AnomalyKind> },
    /// The engine refused an event.
    Refused(ReplayError),
    /// `max_depth` reached with events remaining.
    Depth,
}

/// One subtree's walk.
#[derive(Default)]
struct Walked {
    /// The subtree root's prefix up to the event the engine refused while
    /// restoring it. Every subtree below that event reports the same
    /// refusal; the merge counts it once.
    refused: Option<Vec<(usize, usize)>>,
    outcomes: Vec<Outcome>,
    /// The completed schedules' distinct observations, first seen first:
    /// most schedules of a subtree share a few, so leaves index into this.
    observations: Vec<Observation>,
    /// Completed and refused schedules among `outcomes`.
    counted: u64,
    resets: u64,
    events: u64,
}

impl Walked {
    fn push(&mut self, o: Outcome) {
        if !matches!(o, Outcome::Depth) {
            self.counted += 1;
        }
        self.outcomes.push(o);
    }

    fn leaf(&mut self, steps: &[(usize, usize)], obs: Observation, kinds: Vec<AnomalyKind>) {
        let obs = match self.observations.iter().position(|o| *o == obs) {
            Some(i) => i,
            None => {
                self.observations.push(obs);
                self.observations.len() - 1
            }
        };
        self.push(Outcome::Leaf { steps: steps.to_vec(), obs, kinds });
    }
}

/// A unit of worker work.
enum Task {
    /// A serial reference order: each transaction's events in turn.
    Serial(Vec<(usize, usize)>),
    /// A subtree of the DPOR tree, walked from its root.
    Subtree(Node),
}

enum Done {
    Serial(Result<Observation, ReplayError>),
    Subtree(Walked),
}

impl<'a> Ctx<'a> {
    fn new(app: &'a App, specs: &'a [TxnSpec], opts: ExploreOptions) -> Ctx<'a> {
        let mut labels = Vec::new();
        for (i, s) in specs.iter().enumerate() {
            let dup = specs.iter().take(i).filter(|o| o.program.name == s.program.name).count();
            labels.push(if dup == 0 {
                s.program.name.clone()
            } else {
                format!("{}#{}", s.program.name, dup + 1)
            });
        }
        let stmt_fps: Vec<Vec<StmtFootprint>> =
            specs.iter().map(|s| stmt_footprints(&s.program)).collect();
        let all_reads = stmt_fps
            .iter()
            .map(|fps| fps.iter().flat_map(|f| f.reads.iter().cloned()).collect())
            .collect();
        let all_writes = stmt_fps
            .iter()
            .map(|fps| fps.iter().flat_map(|f| f.writes.iter().cloned()).collect())
            .collect();
        // The injected-abort victim contributes begin + its first k
        // statements + the forced abort; everyone else the full sequence.
        let n_events = specs
            .iter()
            .enumerate()
            .map(|(i, s)| match opts.injected_abort {
                Some((v, k)) if v == i => k + 2,
                _ => s.program.body.len() + 2,
            })
            .collect();
        // Refined dependence only applies to full (un-truncated) runs of
        // every instance — an injected abort voids the program summaries
        // the prune proofs quantify over.
        let refined = if opts.refine && opts.injected_abort.is_none() {
            Some(Refined::build(app, specs, &stmt_fps))
        } else {
            None
        };
        Ctx { app, specs, opts, labels, n_events, stmt_fps, all_reads, all_writes, refined }
    }

    /// A fresh worker-local engine. [`Engine::reset`] reproduces ids and
    /// timestamps exactly, so engines built here are interchangeable: any
    /// worker executing the same prefix observes the same outcome.
    fn new_engine(&self) -> Arc<Engine> {
        Arc::new(Engine::new(EngineConfig {
            // Zero timeout by default: execution is single-threaded, so no
            // peer can ever release a lock while we wait — a conflicting
            // acquire must fail instantly; that *is* the blocked verdict.
            lock_timeout: self.opts.lock_timeout,
            record_history: true,
            faults: None,
            wal: None,
        }))
    }

    // -- event bookkeeping -------------------------------------------------

    fn kind(&self, t: usize, ev: usize) -> EvKind {
        let (n, terminal) = match self.opts.injected_abort {
            Some((v, k)) if v == t => (k, EvKind::Abort),
            _ => (self.specs[t].program.body.len(), EvKind::Commit),
        };
        if ev == 0 {
            EvKind::Begin
        } else if ev <= n {
            EvKind::Stmt(ev - 1)
        } else {
            terminal
        }
    }

    fn render_event(&self, t: usize, ev: usize) -> String {
        match self.kind(t, ev) {
            EvKind::Begin => format!("{}@{} begin", self.labels[t], self.specs[t].level),
            EvKind::Stmt(i) => format!(
                "{} stmt[{i}] {}",
                self.labels[t],
                describe_stmt(&self.specs[t].program.body[i].stmt)
            ),
            EvKind::Commit => format!("{} commit", self.labels[t]),
            EvKind::Abort => format!("{} abort (injected)", self.labels[t]),
        }
    }

    // -- the dependence relation ------------------------------------------

    /// Mazurkiewicz dependence of the next events of two *distinct*
    /// transactions, over-approximated from symbolic footprints: sound for
    /// sleep/persistent sets (independent events truly commute, including
    /// their lock interactions, since disjoint footprints touch disjoint
    /// lock targets).
    fn dependent(&self, t: usize, et: usize, u: usize, eu: usize) -> bool {
        // An injected abort releases the victim's locks and erases its
        // dirty versions, so for ordering purposes it conflicts with the
        // same events a commit would (a sound over-approximation: the
        // rollback un-writes everything the transaction could have
        // written).
        let norm = |k: EvKind| if k == EvKind::Abort { EvKind::Commit } else { k };
        match (norm(self.kind(t, et)), norm(self.kind(u, eu))) {
            (EvKind::Begin, EvKind::Begin) => false,
            (EvKind::Begin, EvKind::Stmt(_)) | (EvKind::Stmt(_), EvKind::Begin) => false,
            (EvKind::Begin, EvKind::Commit) => self.begin_commit_dep(t, u),
            (EvKind::Commit, EvKind::Begin) => self.begin_commit_dep(u, t),
            (EvKind::Stmt(i), EvKind::Stmt(j)) => match &self.refined {
                Some(r) => r.stmt_stmt[t][i][u][j],
                None => self.stmt_fps[t][i].conflicts(&self.stmt_fps[u][j]),
            },
            (EvKind::Stmt(i), EvKind::Commit) => self.stmt_commit_dep(t, i, u),
            (EvKind::Commit, EvKind::Stmt(j)) => self.stmt_commit_dep(u, j, t),
            (EvKind::Commit, EvKind::Commit) => match &self.refined {
                Some(r) => r.commit_commit[t][u],
                None => overlaps(&self.all_writes[t], &self.all_writes[u]),
            },
            (EvKind::Abort, _) | (_, EvKind::Abort) => {
                unreachable!("aborts are normalized to commits above")
            }
        }
    }

    /// `begin(b)` vs `commit(c)`: the begin fixes a snapshot timestamp, so
    /// it is ordered against any commit writing something the SNAPSHOT
    /// transaction reads (snapshot contents) or writes (first-committer
    /// validation window). Non-snapshot begins observe nothing. At SSI the
    /// begin/commit order additionally decides whether `b` counts `c` as
    /// *concurrent* for rw-antidependency marking, so when both are SSI it
    /// is also ordered against commits of transactions whose SIREAD set
    /// `b`'s writes intersect (begin-before-commit marks `c`'s out-edge;
    /// commit-before-begin leaves no overlap and no edge).
    fn begin_commit_dep(&self, b: usize, c: usize) -> bool {
        if let Some(r) = &self.refined {
            return r.begin_commit[b][c];
        }
        (self.specs[b].level.is_snapshot()
            && (overlaps(&self.all_writes[c], &self.all_reads[b])
                || overlaps(&self.all_writes[c], &self.all_writes[b])))
            || (self.specs[b].level.siread_locks()
                && self.specs[c].level.siread_locks()
                && overlaps(&self.all_writes[b], &self.all_reads[c]))
    }

    /// `stmt(s, i)` vs `commit(c)`: the commit makes `c`'s writes durable
    /// and visible (and, under long read locks, releases read locks), so
    /// it is ordered against statements touching `c`'s write set — or
    /// writing into `c`'s read set when `c` held its read locks to commit.
    /// SIREAD locks behave like long read locks here: a write into an SSI
    /// transaction's read set lands differently on either side of that
    /// transaction's commit (active pivot aborts at its own next action;
    /// committed pivot kills the writer instead).
    fn stmt_commit_dep(&self, s: usize, i: usize, c: usize) -> bool {
        if let Some(r) = &self.refined {
            return r.stmt_commit[s][i][c];
        }
        let fp = &self.stmt_fps[s][i];
        let read_lockish = self.specs[c].level.long_read_locks()
            || (self.specs[c].level.siread_locks() && self.specs[s].level.siread_locks());
        overlaps(&self.all_writes[c], &fp.reads)
            || overlaps(&self.all_writes[c], &fp.writes)
            || (read_lockish && overlaps(&self.all_reads[c], &fp.writes))
    }

    /// A singleton persistent set: a transaction whose next event is
    /// independent of every remaining event of every other live
    /// transaction can be scheduled first without losing any trace class.
    fn persistent_singleton(&self, enabled: &[usize], pos: &[usize]) -> Option<usize> {
        'cand: for &t in enabled {
            for &u in enabled {
                if u == t {
                    continue;
                }
                for eu in pos[u]..self.n_events[u] {
                    if self.dependent(t, pos[t], u, eu) {
                        continue 'cand;
                    }
                }
            }
            return Some(t);
        }
        None
    }

    // -- the tree ----------------------------------------------------------

    /// The tree at `node`: which events it tries and what sleeps below
    /// each. Executes nothing, which is what lets the tree be cut into
    /// subtrees before the walk.
    fn shape(&self, node: &Node) -> Shape {
        let k = self.specs.len();
        let enabled: Vec<usize> = (0..k).filter(|&t| node.pos[t] < self.n_events[t]).collect();
        if enabled.is_empty() {
            return Shape::Leaf;
        }
        if self.opts.max_depth.is_some_and(|d| node.prefix.len() >= d) {
            return Shape::Depth;
        }
        let explore_set = match self.persistent_singleton(&enabled, &node.pos) {
            Some(t) => vec![t],
            None => enabled,
        };
        let mut sleep_here = node.sleep.clone();
        let mut branches = Vec::new();
        for t in explore_set {
            if sleep_here[t] {
                continue;
            }
            let ev = node.pos[t];
            // A sleeping sibling stays asleep only while its next event is
            // independent of what just executed.
            let sleep = (0..k)
                .map(|u| u != t && sleep_here[u] && !self.dependent(u, node.pos[u], t, ev))
                .collect();
            branches.push((t, sleep));
            sleep_here[t] = true;
        }
        Shape::Inner(branches)
    }

    /// Cut the tree into subtree roots, in pre-order: expand it level by
    /// level until at least [`SUBTREES`] nodes are left or none expands.
    /// A node with no awake branch stays a root, so every event the engine
    /// may refuse has at least one root below it to report the refusal.
    fn split(&self) -> Vec<Node> {
        let mut roots = vec![Node::root(self.specs.len())];
        while roots.len() < SUBTREES {
            let mut grew = false;
            roots = roots
                .into_iter()
                .flat_map(|n| match self.shape(&n) {
                    Shape::Inner(branches) if !branches.is_empty() => {
                        grew = true;
                        branches.into_iter().map(|(t, sleep)| n.child(t, sleep)).collect()
                    }
                    _ => vec![n],
                })
                .collect();
            if !grew {
                break;
            }
        }
        roots
    }

    // -- execution ---------------------------------------------------------

    /// Reset `engine` to the seeded initial state with an empty history.
    fn seed(&self, engine: &Arc<Engine>) -> Result<(), EngineError> {
        engine.reset();
        let refs: Vec<&Program> = self.specs.iter().map(|s| &s.program).collect();
        seed_neutral(engine, self.app, &refs)?;
        self.apply_seed_overrides(engine)?;
        engine.history().clear();
        Ok(())
    }

    /// Overwrite seeded items/row columns per the options, in one
    /// serializable setup transaction (erased from the history afterwards).
    fn apply_seed_overrides(&self, engine: &Arc<Engine>) -> Result<(), EngineError> {
        if self.opts.seed_items.is_empty() && self.opts.seed_cols.is_empty() {
            return Ok(());
        }
        let mut t = engine.begin(IsolationLevel::Serializable);
        for (name, v) in &self.opts.seed_items {
            t.write(name, *v)?;
        }
        for (table, col, v) in &self.opts.seed_cols {
            let idx = self
                .app
                .columns(table)
                .and_then(|cols| cols.iter().position(|c| c == col))
                .ok_or_else(|| EngineError::Invalid(format!("no column {table}.{col}")))?;
            t.update_where(table, &semcc_logic::row::RowPred::True, &|row| {
                let mut r = row.clone();
                r[idx] = semcc_storage::Value::Int(*v);
                r
            })?;
        }
        t.commit()?;
        Ok(())
    }

    fn observe(&self, engine: &Arc<Engine>, steppers: &[Option<Stepper<'_>>]) -> Observation {
        let render_rows = |rows: Vec<(u64, Vec<semcc_storage::Value>)>| -> Vec<Vec<String>> {
            let mut out: Vec<Vec<String>> = rows
                .into_iter()
                .map(|(_, r)| r.iter().map(ToString::to_string).collect())
                .collect();
            out.sort();
            out
        };
        let mut items = BTreeMap::new();
        for name in engine.store().item_names() {
            if let Ok(v) = engine.peek_item(&name) {
                items.insert(name, v.to_string());
            }
        }
        let mut tables = BTreeMap::new();
        for name in engine.store().table_names() {
            if let Ok(rows) = engine.peek_table(&name) {
                tables.insert(name, render_rows(rows));
            }
        }
        let txns = steppers
            .iter()
            .map(|s| match s {
                Some(st) => TxnObs {
                    locals: st.locals().iter().map(|(k, v)| (k.clone(), v.to_string())).collect(),
                    buffers: st
                        .buffers()
                        .iter()
                        .map(|(k, rows)| {
                            let mut rr: Vec<Vec<String>> = rows
                                .iter()
                                .map(|(_, r)| r.iter().map(ToString::to_string).collect())
                                .collect();
                            rr.sort();
                            (k.clone(), rr)
                        })
                        .collect(),
                },
                None => TxnObs::default(),
            })
            .collect();
        Observation { items, tables, txns }
    }
}

/// A worker's live state: its engine and the instances' steppers on it.
struct Live<'c, 'a> {
    ctx: &'c Ctx<'a>,
    engine: &'c Arc<Engine>,
    steppers: Vec<Option<Stepper<'a>>>,
    resets: u64,
    events: u64,
}

impl<'c, 'a> Live<'c, 'a> {
    fn new(ctx: &'c Ctx<'a>, engine: &'c Arc<Engine>) -> Self {
        let steppers = ctx.specs.iter().map(|_| None).collect();
        Live { ctx, engine, steppers, resets: 0, events: 0 }
    }

    /// Bring the state to `prefix`: drop the steppers first, so their
    /// aborts land on the old state, then reset, seed and re-execute. A
    /// refusal reports its position in `prefix`; a failed seeding counts
    /// as the first event's.
    fn restore(&mut self, prefix: &[(usize, usize)]) -> Result<(), (usize, ReplayError)> {
        self.steppers.iter_mut().for_each(|s| *s = None);
        self.resets += 1;
        self.ctx.seed(self.engine).map_err(|_| (0, ReplayError::Infeasible))?;
        for (j, &(t, ev)) in prefix.iter().enumerate() {
            self.exec(t, ev).map_err(|e| (j, e))?;
        }
        Ok(())
    }

    /// Execute `t`'s event `ev` on the live state.
    fn exec(&mut self, t: usize, ev: usize) -> Result<(), ReplayError> {
        self.events += 1;
        let spec = &self.ctx.specs[t];
        let stepper = &mut self.steppers[t];
        let r = match self.ctx.kind(t, ev) {
            EvKind::Begin => {
                *stepper =
                    Some(Stepper::begin(self.engine, &spec.program, spec.level, &spec.bindings));
                Ok(())
            }
            EvKind::Stmt(_) => stepper.as_mut().expect("begin precedes steps").step().map(|_| ()),
            EvKind::Commit => stepper.as_mut().expect("begin precedes commit").commit().map(|_| ()),
            EvKind::Abort => stepper.as_mut().expect("begin precedes abort").abort(),
        };
        r.map_err(|e| classify(&e))
    }

    /// Execute a serial reference order from the seeded state and observe
    /// the outcome.
    fn replay(mut self, order: &[(usize, usize)]) -> Result<Observation, ReplayError> {
        self.restore(order).map_err(|(_, e)| e)?;
        Ok(self.ctx.observe(self.engine, &self.steppers))
    }

    /// Restore `root`'s prefix once and walk the subtree below it.
    fn subtree(mut self, root: &Node) -> Walked {
        let mut out = Walked::default();
        // The split expands every root that has branches, so an empty
        // prefix is a depth-bounded root: nothing to execute or validate.
        let restored = if root.prefix.is_empty() { Ok(()) } else { self.restore(&root.prefix) };
        match restored {
            Ok(()) => self.walk(root, &mut out),
            Err((j, e)) => {
                out.refused = Some(root.prefix[..=j].to_vec());
                out.push(Outcome::Refused(e));
            }
        }
        out.resets = self.resets;
        out.events = self.events;
        out
    }

    /// Walk the subtree below `node` depth-first, appending outcomes in
    /// pre-order; the live state holds `node.prefix` on entry. Stops after
    /// `max_schedules` counted outcomes: the merge can use no more from
    /// one subtree.
    fn walk(&mut self, node: &Node, out: &mut Walked) {
        let branches = match self.ctx.shape(node) {
            Shape::Leaf => {
                let mut kinds: Vec<AnomalyKind> = detect_anomalies(&self.engine.history().events())
                    .iter()
                    .map(|a| a.kind)
                    .collect();
                kinds.sort();
                kinds.dedup();
                let obs = self.ctx.observe(self.engine, &self.steppers);
                return out.leaf(&node.prefix, obs, kinds);
            }
            Shape::Depth => return out.push(Outcome::Depth),
            Shape::Inner(branches) => branches,
        };
        for (i, (t, sleep)) in branches.into_iter().enumerate() {
            if i > 0 {
                // The previous branch moved the state off this node.
                self.restore(&node.prefix).expect("a prefix that executed once re-executes");
            }
            match self.exec(t, node.pos[t]) {
                Ok(()) => self.walk(&node.child(t, sleep), out),
                Err(e) => out.push(Outcome::Refused(e)),
            }
            if out.counted >= self.ctx.opts.max_schedules {
                return;
            }
        }
    }
}

/// The single-threaded merge-side accumulator. Only the calling thread
/// touches it, in pre-order, which is what makes every counter, example
/// list, and truncation decision jobs-invariant.
#[derive(Default)]
struct Acc {
    serial_obs: Vec<Observation>,
    serial_errors: u64,
    explored: u64,
    blocked: u64,
    infeasible: u64,
    replays: u64,
    events: u64,
    divergent: u64,
    divergent_examples: Vec<DivergentSchedule>,
    anomaly_counts: BTreeMap<AnomalyKind, u64>,
    truncated: bool,
    stop: bool,
}

impl Acc {
    fn record_serial(&mut self, r: Result<Observation, ReplayError>) {
        self.replays += 1;
        match r {
            Ok(obs) if !self.serial_obs.contains(&obs) => self.serial_obs.push(obs),
            Ok(_) => {}
            Err(_) => self.serial_errors += 1,
        }
    }

    /// Count one outcome, then apply the budget after every counted
    /// schedule (completed, blocked, or infeasible) — so the truncation
    /// point is a position in the pre-order stream, not a race. `serial`
    /// says which of the subtree's observations some serial order shares.
    fn record(&mut self, ctx: &Ctx<'_>, o: Outcome, serial: &[bool]) {
        match o {
            Outcome::Depth => {
                self.truncated = true;
                return;
            }
            Outcome::Refused(ReplayError::Blocked) => self.blocked += 1,
            Outcome::Refused(ReplayError::Infeasible) => self.infeasible += 1,
            Outcome::Leaf { steps, obs, kinds } => {
                self.explored += 1;
                for k in &kinds {
                    *self.anomaly_counts.entry(*k).or_insert(0) += 1;
                }
                // Matching no serial observation is divergence, also when
                // every serial order failed and there is none to match.
                if !serial[obs] {
                    self.divergent += 1;
                    if self.divergent_examples.len() < MAX_DIVERGENT_EXAMPLES {
                        let steps = steps.iter().map(|&(t, ev)| ctx.render_event(t, ev)).collect();
                        self.divergent_examples.push(DivergentSchedule { steps, anomalies: kinds });
                    }
                }
            }
        }
        if self.explored + self.blocked + self.infeasible >= ctx.opts.max_schedules {
            self.truncated = true;
            self.stop = true;
        }
    }

    fn into_result(self, ctx: Ctx<'_>) -> ExploreResult {
        let naive_schedules = multinomial(&ctx.n_events);
        // Merge-step conservation audit: every counted prefix landed in
        // exactly one bucket, so the buckets plus the DPOR-pruned
        // remainder must tile the enumerated total. A violation would
        // mean a schedule was double-counted (e.g. both blocked and
        // explored) somewhere between the workers and this merge.
        if !self.truncated {
            let ran = self.explored as u128 + self.blocked as u128 + self.infeasible as u128;
            assert!(
                ran <= naive_schedules,
                "conservation violated: explored {} + blocked {} + infeasible {} exceeds \
                 the {naive_schedules} enumerable interleavings",
                self.explored,
                self.blocked,
                self.infeasible,
            );
        }
        ExploreResult {
            txns: ctx.labels,
            levels: ctx.specs.iter().map(|s| s.level).collect(),
            total_events: ctx.n_events.iter().sum(),
            naive_schedules,
            explored: self.explored,
            blocked: self.blocked,
            infeasible: self.infeasible,
            replays: self.replays,
            events: self.events,
            divergent: self.divergent,
            divergent_examples: self.divergent_examples,
            anomaly_counts: self.anomaly_counts,
            serial_orders: self.serial_obs.len(),
            serial_errors: self.serial_errors,
            truncated: self.truncated,
        }
    }
}

/// Execute the `k!` serial orders — the semantic-equivalence reference
/// set — and walk the subtrees, on `opts.jobs` workers. Merge on this
/// thread: the serial observations first, then the walk's outcomes in
/// pre-order.
fn run(ctx: &Ctx<'_>, acc: &mut Acc) {
    let serial = permutations(ctx.specs.len()).into_iter().map(|perm| {
        Task::Serial(
            perm.iter().flat_map(|&t| (0..ctx.n_events[t]).map(move |ev| (t, ev))).collect(),
        )
    });
    let tasks: Vec<Task> = serial.chain(ctx.split().into_iter().map(Task::Subtree)).collect();
    let done = ordered_map_with(
        ctx.opts.jobs,
        &tasks,
        || ctx.new_engine(),
        |engine, _, task| {
            let live = Live::new(ctx, engine);
            match task {
                Task::Serial(order) => Done::Serial(live.replay(order)),
                Task::Subtree(root) => Done::Subtree(live.subtree(root)),
            }
        },
    );
    let mut last_refused = None;
    for d in done {
        let walked = match d {
            Done::Serial(r) => {
                acc.record_serial(r);
                continue;
            }
            Done::Subtree(walked) => walked,
        };
        acc.replays += walked.resets;
        acc.events += walked.events;
        if walked.refused.is_some() {
            if walked.refused == last_refused {
                continue;
            }
            last_refused = walked.refused;
        }
        let serial: Vec<bool> =
            walked.observations.iter().map(|o| acc.serial_obs.contains(o)).collect();
        for o in walked.outcomes {
            if acc.stop {
                break;
            }
            acc.record(ctx, o, &serial);
        }
    }
}

fn overlaps(a: &BTreeSet<String>, b: &BTreeSet<String>) -> bool {
    a.iter().any(|x| b.contains(x))
}

/// All permutations of `0..k` (k ≤ 3 here, but the recursion is general).
fn permutations(k: usize) -> Vec<Vec<usize>> {
    fn go(rest: &[usize], acc: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(acc.clone());
            return;
        }
        for (i, &x) in rest.iter().enumerate() {
            let mut next: Vec<usize> = rest.to_vec();
            next.remove(i);
            acc.push(x);
            go(&next, acc, out);
            acc.pop();
        }
    }
    let mut out = Vec::new();
    go(&(0..k).collect::<Vec<_>>(), &mut Vec::new(), &mut out);
    out
}

/// Number of interleavings of sequences with the given lengths:
/// `(Σn)! / Π(n_i!)`, built incrementally from exact binomials.
fn multinomial(counts: &[usize]) -> u128 {
    let mut total: u128 = 0;
    let mut result: u128 = 1;
    for &c in counts {
        for i in 1..=c as u128 {
            total += 1;
            result = result * total / i;
        }
    }
    result
}

/// One-line statement description for rendered schedules.
fn describe_stmt(s: &Stmt) -> String {
    match s {
        Stmt::ReadItem { item, .. } => format!("READ {}", item.base),
        Stmt::WriteItem { item, .. } => format!("WRITE {}", item.base),
        Stmt::WriteItemMax { item, .. } => format!("WRITEMAX {}", item.base),
        Stmt::LocalAssign { local, .. } => format!("LET {local}"),
        Stmt::If { .. } => "IF".to_string(),
        Stmt::While { .. } => "WHILE".to_string(),
        Stmt::Select { table, .. } => format!("SELECT {table}"),
        Stmt::SelectCount { table, .. } => format!("SELECT COUNT {table}"),
        Stmt::SelectValue { table, .. } => format!("SELECT INTO {table}"),
        Stmt::Update { table, .. } => format!("UPDATE {table}"),
        Stmt::Insert { table, .. } => format!("INSERT {table}"),
        Stmt::Delete { table, .. } => format!("DELETE {table}"),
        Stmt::Pause { .. } => "PAUSE".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::specs_for;
    use semcc_logic::Expr;
    use semcc_txn::stmt::ItemRef;
    use semcc_txn::ProgramBuilder;

    fn two_specs(
        app: &App,
        a: &str,
        b: &str,
        la: IsolationLevel,
        lb: IsolationLevel,
    ) -> Vec<TxnSpec> {
        specs_for(app, &[a.to_string(), b.to_string()], &[la, lb]).expect("specs")
    }

    /// `x := 1; x := 2` — a writer with a visibly inconsistent window.
    fn two_step_writer() -> semcc_txn::Program {
        ProgramBuilder::new("W")
            .bare(Stmt::WriteItem { item: ItemRef::plain("x"), value: Expr::int(1) })
            .bare(Stmt::WriteItem { item: ItemRef::plain("x"), value: Expr::int(2) })
            .build()
    }

    fn reader() -> semcc_txn::Program {
        ProgramBuilder::new("R")
            .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() })
            .build()
    }

    /// `X := x; x := X + 1` — the canonical lost-update increment.
    fn incr() -> semcc_txn::Program {
        ProgramBuilder::new("Incr")
            .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() })
            .bare(Stmt::WriteItem {
                item: ItemRef::plain("x"),
                value: Expr::local("X").add(Expr::int(1)),
            })
            .build()
    }

    #[test]
    fn disjoint_writers_collapse_to_one_trace() {
        let wx = ProgramBuilder::new("Wx")
            .bare(Stmt::WriteItem { item: ItemRef::plain("x"), value: Expr::int(1) })
            .build();
        let wy = ProgramBuilder::new("Wy")
            .bare(Stmt::WriteItem { item: ItemRef::plain("y"), value: Expr::int(1) })
            .build();
        let app = App::new().with_program(wx).with_program(wy);
        let specs =
            two_specs(&app, "Wx", "Wy", IsolationLevel::Serializable, IsolationLevel::Serializable);
        let r = explore(&app, &specs, &ExploreOptions::default()).expect("explore");
        assert_eq!(r.naive_schedules, 20, "C(6,3) interleavings naively");
        assert_eq!(r.divergent, 0);
        assert_eq!(r.blocked, 0);
        assert_eq!(
            r.explored, 1,
            "fully independent transactions form a single Mazurkiewicz trace"
        );
        assert!(r.pruning_ratio() >= 2.0);
        assert!(!r.truncated);
    }

    #[test]
    fn lost_update_diverges_at_rc_but_not_at_ser() {
        let app = App::new().with_program(incr());
        let rc = IsolationLevel::ReadCommitted;
        let specs: Vec<TxnSpec> =
            specs_for(&app, &["Incr".into(), "Incr".into()], &[rc, rc]).expect("specs");
        let r = explore(&app, &specs, &ExploreOptions::default()).expect("explore");
        assert!(r.divergent > 0, "r1 r2 w1 c1 w2 c2 loses an update at RC: {r:?}");
        assert!(r.anomaly_counts.contains_key(&AnomalyKind::LostUpdate));

        let ser = IsolationLevel::Serializable;
        let specs: Vec<TxnSpec> =
            specs_for(&app, &["Incr".into(), "Incr".into()], &[ser, ser]).expect("specs");
        let r = explore(&app, &specs, &ExploreOptions::default()).expect("explore");
        assert_eq!(r.divergent, 0, "long read locks block every racy interleaving: {r:?}");
        assert!(r.blocked > 0, "the racy prefixes must show up as blocked");
    }

    #[test]
    fn dirty_read_diverges_at_ru_but_not_at_rc() {
        let app = App::new().with_program(two_step_writer()).with_program(reader());
        let r = explore(
            &app,
            &two_specs(
                &app,
                "W",
                "R",
                IsolationLevel::ReadUncommitted,
                IsolationLevel::ReadUncommitted,
            ),
            &ExploreOptions::default(),
        )
        .expect("explore");
        assert!(r.divergent > 0, "reading x between the two writes matches no serial order: {r:?}");
        assert!(r.anomaly_counts.contains_key(&AnomalyKind::DirtyRead));
        assert!(
            r.divergent_examples.iter().any(|d| d.anomalies.contains(&AnomalyKind::DirtyRead)),
            "the divergent example carries the dirty-read verdict"
        );

        let r = explore(
            &app,
            &two_specs(
                &app,
                "W",
                "R",
                IsolationLevel::ReadCommitted,
                IsolationLevel::ReadCommitted,
            ),
            &ExploreOptions::default(),
        )
        .expect("explore");
        assert_eq!(r.divergent, 0, "RC read locks cannot see the window: {r:?}");
    }

    #[test]
    fn seed_overrides_change_the_initial_state() {
        let app = App::new().with_program(two_step_writer()).with_program(reader());
        let specs =
            two_specs(&app, "W", "R", IsolationLevel::Serializable, IsolationLevel::Serializable);
        let opts =
            ExploreOptions { seed_items: vec![("x".into(), 7)], ..ExploreOptions::default() };
        let r = explore(&app, &specs, &opts).expect("explore");
        // Serial: reader sees 7 (reader first) or 2 (writer first); two
        // distinct serial observations prove the override took effect
        // (both orders would read 2 == the writer's final value otherwise
        // only if x started at 2).
        assert_eq!(r.serial_orders, 2);
        assert_eq!(r.divergent, 0);
    }

    #[test]
    fn max_schedules_truncates() {
        let app = App::new().with_program(incr());
        let rc = IsolationLevel::ReadCommitted;
        let specs: Vec<TxnSpec> =
            specs_for(&app, &["Incr".into(), "Incr".into()], &[rc, rc]).expect("specs");
        let r = explore(&app, &specs, &ExploreOptions { max_schedules: 1, ..Default::default() })
            .expect("explore");
        assert!(r.truncated);
        assert!(r.explored + r.blocked <= 2);
    }

    /// Regression: a truncated run must never report itself clean, even
    /// when the schedules it did reach all matched a serial order — the
    /// unexplored remainder could hold the divergence.
    #[test]
    fn truncated_run_is_not_clean() {
        let app = App::new().with_program(incr());
        let ser = IsolationLevel::Serializable;
        let specs: Vec<TxnSpec> =
            specs_for(&app, &["Incr".into(), "Incr".into()], &[ser, ser]).expect("specs");
        let r = explore(&app, &specs, &ExploreOptions { max_schedules: 1, ..Default::default() })
            .expect("explore");
        assert!(r.truncated);
        assert_eq!(r.divergent, 0, "the single counted schedule is serial or blocked");
        assert!(!r.clean(), "truncation must veto the clean verdict");

        // Depth truncation takes the same veto path.
        let r = explore(&app, &specs, &ExploreOptions { max_depth: Some(2), ..Default::default() })
            .expect("explore");
        assert!(r.truncated && !r.clean());

        // And a complete divergence-free run still is clean.
        let r = explore(&app, &specs, &ExploreOptions::default()).expect("explore");
        assert!(!r.truncated && r.divergent == 0 && r.clean());
    }

    /// With nothing to prune (payroll has no INSERTs), the refined
    /// dependence matrices must reproduce the base relation *exactly* —
    /// every counter, example, and verdict bit-identical.
    #[test]
    fn refine_without_prunes_is_bit_identical() {
        let app = semcc_workloads::payroll::app();
        let names = vec!["Hours".to_string(), "Print_Records".to_string()];
        for level in [IsolationLevel::ReadUncommitted, IsolationLevel::Serializable] {
            let specs = specs_for(&app, &names, &[level, level]).expect("specs");
            let base = explore(&app, &specs, &ExploreOptions::default()).expect("base");
            let refined =
                explore(&app, &specs, &ExploreOptions { refine: true, ..Default::default() })
                    .expect("refined");
            assert_eq!(format!("{base:?}"), format!("{refined:?}"), "level {level}");
        }
    }

    /// On orders' New_Order × Delivery the prover deletes the wr/rw edge
    /// constituents (the inserted order is due past `maximum_date`, outside
    /// Delivery's region), so the refined explorer executes strictly fewer
    /// schedules — with the same divergence verdict.
    #[test]
    fn refine_reduces_orders_new_order_delivery_schedules() {
        let app = semcc_workloads::orders::app(false);
        let names = vec!["New_Order".to_string(), "Delivery".to_string()];
        let seed = ExploreOptions {
            seed_cols: vec![("orders".into(), "deliv_date".into(), 1)],
            ..Default::default()
        };
        for level in [IsolationLevel::ReadCommitted, IsolationLevel::Serializable] {
            let specs = specs_for(&app, &names, &[level, level]).expect("specs");
            let base = explore(&app, &specs, &seed).expect("base");
            let refined = explore(&app, &specs, &ExploreOptions { refine: true, ..seed.clone() })
                .expect("refined");
            assert!(
                refined.explored + refined.blocked < base.explored + base.blocked,
                "refinement must shrink the explored space at {level}: \
                 base {}+{}, refined {}+{}",
                base.explored,
                base.blocked,
                refined.explored,
                refined.blocked
            );
            assert_eq!(base.divergent > 0, refined.divergent > 0, "verdict must agree at {level}");
            assert!(!base.truncated && !refined.truncated);
        }
    }

    /// The refined relation is still jobs-invariant.
    #[test]
    fn refined_exploration_is_jobs_invariant() {
        let app = semcc_workloads::orders::app(false);
        let names = vec!["New_Order".to_string(), "Delivery".to_string()];
        let specs = specs_for(
            &app,
            &names,
            &[IsolationLevel::ReadCommitted, IsolationLevel::ReadCommitted],
        )
        .expect("specs");
        let opts = ExploreOptions {
            refine: true,
            seed_cols: vec![("orders".into(), "deliv_date".into(), 1)],
            ..Default::default()
        };
        let seq = explore(&app, &specs, &opts).expect("jobs=1");
        let par = explore(&app, &specs, &ExploreOptions { jobs: 4, ..opts }).expect("jobs=4");
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    /// The tentpole contract: any job count produces the *same* result,
    /// field for field — counts, verdicts, and the concrete divergent
    /// witness lists.
    #[test]
    fn jobs_do_not_change_any_result_field() {
        let cases: Vec<(App, Vec<TxnSpec>)> = {
            let incr_app = App::new().with_program(incr());
            let rw_app = App::new().with_program(two_step_writer()).with_program(reader());
            let rc = IsolationLevel::ReadCommitted;
            let ru = IsolationLevel::ReadUncommitted;
            let incr_specs =
                specs_for(&incr_app, &["Incr".into(), "Incr".into()], &[rc, rc]).expect("specs");
            let rw_specs = two_specs(&rw_app, "W", "R", ru, ru);
            vec![(incr_app, incr_specs), (rw_app, rw_specs)]
        };
        for (app, specs) in &cases {
            let base = explore(app, specs, &ExploreOptions::default()).expect("jobs=1");
            for jobs in [2, 8] {
                let par = explore(app, specs, &ExploreOptions { jobs, ..Default::default() })
                    .expect("parallel");
                assert_eq!(format!("{base:?}"), format!("{par:?}"), "jobs={jobs} diverged");
            }
        }
    }

    /// Conservation: the blocked/explored/infeasible buckets plus the
    /// DPOR-pruned remainder tile the enumerated total — no schedule is
    /// double-counted between workers (blocked prefixes from instantly
    /// refused lock acquisitions included).
    #[test]
    fn classification_buckets_tile_the_enumerated_total() {
        let app = App::new().with_program(incr());
        let ser = IsolationLevel::Serializable;
        let specs: Vec<TxnSpec> =
            specs_for(&app, &["Incr".into(), "Incr".into()], &[ser, ser]).expect("specs");
        let r = explore(&app, &specs, &ExploreOptions { jobs: 4, ..Default::default() })
            .expect("explore");
        assert!(r.blocked > 0, "long read locks must refuse racy prefixes: {r:?}");
        let ran = r.explored as u128 + r.blocked as u128 + r.infeasible as u128;
        assert!(ran <= r.naive_schedules);
        assert_eq!(r.pruned() + ran, r.naive_schedules, "buckets + pruned must tile: {r:?}");
    }

    #[test]
    fn abort_sweep_is_jobs_invariant() {
        let app = App::new().with_program(two_step_writer()).with_program(reader());
        let specs = two_specs(
            &app,
            "W",
            "R",
            IsolationLevel::ReadUncommitted,
            IsolationLevel::ReadUncommitted,
        );
        let seq = explore_with_aborts(&app, &specs, &ExploreOptions::default(), 0).expect("jobs=1");
        let par =
            explore_with_aborts(&app, &specs, &ExploreOptions { jobs: 8, ..Default::default() }, 0)
                .expect("jobs=8");
        assert_eq!(format!("{seq:?}"), format!("{par:?}"));
    }

    #[test]
    fn level_sweep_is_jobs_invariant_and_ordered() {
        let app = App::new().with_program(incr());
        let names = vec!["Incr".to_string(), "Incr".to_string()];
        let vectors: Vec<Vec<IsolationLevel>> =
            IsolationLevel::ALL.iter().map(|&l| vec![l, l]).collect();
        let seq = explore_sweep(&app, &names, &vectors, &ExploreOptions::default()).expect("seq");
        let par = explore_sweep(
            &app,
            &names,
            &vectors,
            &ExploreOptions { jobs: 8, ..Default::default() },
        )
        .expect("par");
        assert_eq!(seq.len(), vectors.len());
        for (i, ((_, a), (_, b))) in seq.iter().zip(&par).enumerate() {
            assert_eq!(a.levels, vectors[i], "results stay in vector order");
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "vector {i} diverged");
        }
    }

    /// Regression: when every serial order fails there is no serial
    /// observation to match, so every completed schedule is divergent.
    /// Each program inserts its own key and then `SELECT INTO`s the
    /// other's: alone it finds nothing, but at RU the two read each
    /// other's dirty inserts.
    #[test]
    fn schedules_are_divergent_when_every_serial_order_fails() {
        use semcc_logic::row::{RowExpr, RowPred};
        let mirror = |name: &str, own: i64, other: i64| {
            ProgramBuilder::new(name)
                .bare(Stmt::Insert {
                    table: "t".into(),
                    values: vec![RowExpr::Int(own), RowExpr::Int(0)],
                })
                .bare(Stmt::SelectValue {
                    table: "t".into(),
                    filter: RowPred::field_eq_int("k", other),
                    column: "v".into(),
                    into: "X".into(),
                })
                .build()
        };
        let app = App::new()
            .with_schema("t", &["k", "v"])
            .with_program(mirror("A", 1, 2))
            .with_program(mirror("B", 2, 1));
        let ru = IsolationLevel::ReadUncommitted;
        let r = explore(&app, &two_specs(&app, "A", "B", ru, ru), &ExploreOptions::default())
            .expect("explore");
        assert_eq!((r.serial_orders, r.serial_errors), (0, 2), "{r:?}");
        assert_eq!(r.explored, 8, "{r:?}");
        assert_eq!(r.divergent, 8, "no serial observation matches any of them: {r:?}");
        assert!(!r.clean());
    }

    #[test]
    fn multinomial_counts_interleavings() {
        assert_eq!(multinomial(&[1, 1]), 2);
        assert_eq!(multinomial(&[3, 3]), 20);
        assert_eq!(multinomial(&[4, 3]), 35);
        assert_eq!(multinomial(&[2, 2, 2]), 90);
    }

    #[test]
    fn permutations_enumerate_all_orders() {
        assert_eq!(permutations(2).len(), 2);
        let p3 = permutations(3);
        assert_eq!(p3.len(), 6);
        assert!(p3.contains(&vec![2, 0, 1]));
    }
}
