//! Static deadlock prediction over refined footprints.
//!
//! Each isolation level implies a lock discipline (the one
//! `semcc-engine` implements): which statements take S or X locks, on
//! items or on table regions, and whether the lock is held to commit
//! (*long*) or released at statement end (*short*). From those per-level
//! lock request sequences this module searches for two-transaction
//! wait-for cycles: `P` holds a long lock `a` and later requests `b`,
//! `Q` holds a long lock `c` and later requests `d`, with `b` blocked by
//! `c` and `d` blocked by `a`. Region conflicts are decided by the
//! analyzer's predicate-intersection test with parameters renamed apart;
//! a cycle whose two *held* locks are the same item in incompatible
//! modes is suppressed (the two transactions could never reach the
//! blocking state simultaneously).
//!
//! The prediction is advisory (a *may* analysis): it reports
//! `SEMCC-W006` diagnostics and never affects verdicts or exit codes.
//! SNAPSHOT transactions take no read locks and install their write
//! buffers at commit, so they participate in no predicted cycle.

use semcc_core::{Analyzer, App};
use semcc_engine::IsolationLevel;
use semcc_json::{Json, ToJson};
use semcc_logic::row::RowPred;
use semcc_logic::Pred;
use semcc_txn::stmt::Stmt;
use semcc_txn::Program;
use std::collections::BTreeMap;

/// A predicted two-transaction wait-for cycle.
#[derive(Clone, Debug)]
pub struct DeadlockAdvisory {
    /// Diagnostic code (`SEMCC-W006`).
    pub code: String,
    /// First participant.
    pub a: String,
    /// Second participant (equal to `a` for a self-pair of two instances).
    pub b: String,
    /// Level `a` runs at.
    pub level_a: IsolationLevel,
    /// Level `b` runs at.
    pub level_b: IsolationLevel,
    /// Human-readable hold/wait chain, one line per participant.
    pub chain: Vec<String>,
    /// One-line summary.
    pub message: String,
}

impl DeadlockAdvisory {
    /// Human-readable rendering: `code message`, then the hold/wait chain
    /// one indented line per participant.
    pub fn render(&self) -> String {
        let mut out = format!("{} {}", self.code, self.message);
        for line in &self.chain {
            out.push_str(&format!("\n    {line}"));
        }
        out
    }
}

/// The object `lint --json` and the admission-policy artifact both carry.
impl ToJson for DeadlockAdvisory {
    fn to_json(&self) -> Json {
        Json::obj([
            ("code", self.code.to_json()),
            ("a", self.a.to_json()),
            ("b", self.b.to_json()),
            ("level_a", Json::str(self.level_a.name())),
            ("level_b", Json::str(self.level_b.name())),
            ("chain", self.chain.to_json()),
            ("message", self.message.to_json()),
        ])
    }
}

/// What a lock covers.
#[derive(Clone)]
enum Scope {
    Item(String),
    Region(String, RowPred),
}

impl std::fmt::Display for Scope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scope::Item(x) => write!(f, "{x}"),
            Scope::Region(t, r) => write!(f, "{t} WHERE {r}"),
        }
    }
}

/// One lock request of a program at a level.
struct LockReq {
    /// Top-level statement index (nested statements inherit their
    /// enclosing top-level index).
    idx: usize,
    /// Exclusive?
    x: bool,
    /// Held to commit?
    long: bool,
    scope: Scope,
}

/// Predict potential lock-order deadlocks between every (unordered) pair
/// of transaction types — self-pairs included — when each type runs at
/// `levels[type]` (absent types default to SERIALIZABLE). At most one
/// advisory is reported per pair.
pub fn predict_deadlocks(
    app: &App,
    levels: &BTreeMap<String, IsolationLevel>,
) -> Vec<DeadlockAdvisory> {
    let analyzer = Analyzer::new(app);
    let level_of = |name: &str| levels.get(name).copied().unwrap_or(IsolationLevel::Serializable);
    let reqs: Vec<(usize, Vec<LockReq>)> = app
        .programs
        .iter()
        .enumerate()
        .map(|(i, p)| (i, lock_requests(p, level_of(&p.name))))
        .collect();
    let mut out = Vec::new();
    for (i, pr) in &reqs {
        for (j, qr) in &reqs {
            if j < i {
                continue;
            }
            let (p, q) = (&app.programs[*i], &app.programs[*j]);
            if let Some(chain) = find_cycle(&analyzer, p, pr, q, qr, level_of) {
                let (la, lb) = (level_of(&p.name), level_of(&q.name));
                out.push(DeadlockAdvisory {
                    code: "SEMCC-W006".into(),
                    a: p.name.clone(),
                    b: q.name.clone(),
                    level_a: la,
                    level_b: lb,
                    chain,
                    message: format!(
                        "potential lock-order deadlock between {}@{la} and {}@{lb} \
                         (two-phase locking wait-for cycle over the refined footprints; \
                         Theorem 4/6 lock discipline)",
                        p.name, q.name
                    ),
                });
            }
        }
    }
    out
}

/// First hold/wait cycle between `p` and `q`, if any.
fn find_cycle(
    analyzer: &Analyzer<'_>,
    p: &Program,
    pr: &[LockReq],
    q: &Program,
    qr: &[LockReq],
    level_of: impl Fn(&str) -> IsolationLevel,
) -> Option<Vec<String>> {
    for a in pr.iter().filter(|r| r.long) {
        for b in pr.iter().filter(|r| r.idx > a.idx) {
            for c in qr.iter().filter(|r| r.long) {
                for d in qr.iter().filter(|r| r.idx > c.idx) {
                    if !conflicts(analyzer, b, c) || !conflicts(analyzer, d, a) {
                        continue;
                    }
                    // Feasibility: if the two held locks are the same item
                    // in incompatible modes, the transactions could never
                    // both reach the blocking state.
                    if let (Scope::Item(x), Scope::Item(y)) = (&a.scope, &c.scope) {
                        if x == y && (a.x || c.x) {
                            continue;
                        }
                    }
                    let line = |t: &Program, held: &LockReq, want: &LockReq| {
                        format!(
                            "{}@{} holds {}({}) at stmt {}, waits for {}({}) at stmt {}",
                            t.name,
                            level_of(&t.name),
                            mode(held),
                            held.scope,
                            held.idx,
                            mode(want),
                            want.scope,
                            want.idx
                        )
                    };
                    return Some(vec![line(p, a, b), line(q, c, d)]);
                }
            }
        }
    }
    None
}

fn mode(r: &LockReq) -> &'static str {
    if r.x {
        "X"
    } else {
        "S"
    }
}

/// Whether a requested lock is blocked by a held one: incompatible modes
/// on an overlapping scope. Item and region locks never collide (the
/// engine keys them separately), matching its lock-manager granularity.
fn conflicts(analyzer: &Analyzer<'_>, want: &LockReq, held: &LockReq) -> bool {
    if !want.x && !held.x {
        return false;
    }
    match (&want.scope, &held.scope) {
        (Scope::Item(x), Scope::Item(y)) => x == y,
        (Scope::Region(t, f), Scope::Region(t2, g)) => {
            t == t2
                && analyzer.regions_may_intersect(
                    &Pred::True,
                    &f.rename_params("l$"),
                    &g.rename_params("r$"),
                )
        }
        _ => false,
    }
}

/// The lock requests a program issues at a level, in statement order.
fn lock_requests(p: &Program, level: IsolationLevel) -> Vec<LockReq> {
    let mut out = Vec::new();
    for (idx, a) in p.body.iter().enumerate() {
        collect(&a.stmt, idx, level, &mut out);
    }
    out
}

fn collect(s: &Stmt, idx: usize, level: IsolationLevel, out: &mut Vec<LockReq>) {
    let snapshot = level.is_snapshot();
    match s {
        Stmt::ReadItem { item, .. } => {
            if level.read_locks() {
                out.push(LockReq {
                    idx,
                    x: false,
                    long: level.long_read_locks(),
                    scope: Scope::Item(item.base.clone()),
                });
            }
        }
        Stmt::WriteItem { item, .. } | Stmt::WriteItemMax { item, .. } => {
            if !snapshot {
                out.push(LockReq {
                    idx,
                    x: true,
                    long: true,
                    scope: Scope::Item(item.base.clone()),
                });
            }
        }
        Stmt::Select { table, filter, .. }
        | Stmt::SelectCount { table, filter, .. }
        | Stmt::SelectValue { table, filter, .. } => {
            if level.read_locks() {
                out.push(LockReq {
                    idx,
                    x: false,
                    long: level.long_read_locks(),
                    scope: Scope::Region(table.clone(), filter.clone()),
                });
            }
        }
        Stmt::Update { table, filter, .. } | Stmt::Delete { table, filter } => {
            if !snapshot {
                out.push(LockReq {
                    idx,
                    x: true,
                    long: true,
                    scope: Scope::Region(table.clone(), filter.clone()),
                });
            }
        }
        Stmt::Insert { table, .. } => {
            if !snapshot {
                // The inserted row's identity is unknown statically; the
                // advisory over-approximates it as a whole-table X lock.
                out.push(LockReq {
                    idx,
                    x: true,
                    long: true,
                    scope: Scope::Region(table.clone(), RowPred::True),
                });
            }
        }
        Stmt::If { then_branch, else_branch, .. } => {
            for a in then_branch.iter().chain(else_branch.iter()) {
                collect(&a.stmt, idx, level, out);
            }
        }
        Stmt::While { body, .. } => {
            for a in body {
                collect(&a.stmt, idx, level, out);
            }
        }
        Stmt::LocalAssign { .. } | Stmt::Pause { .. } => {}
    }
}
