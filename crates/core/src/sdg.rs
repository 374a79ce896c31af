//! Static serialization dependency graph and anomaly exposure prediction.
//!
//! From every transaction type's symbolic path summaries this module
//! derives a read/write *footprint* (items, plus relational `(table,
//! predicate)` regions), classifies WR / WW / RW dependency edges between
//! every ordered pair of types — region overlap decided by the analyzer's
//! predicate-satisfiability test — and statically predicts which anomalies
//! each type is exposed to under a given isolation-level vector:
//!
//! * **dangerous structures** (mutual item-level anti-dependencies between
//!   two types whose write sets can be disjoint — the two consecutive RW
//!   edges of Fekete et al.'s criterion, specialized to the pair cycle the
//!   runtime detector recognizes) predict write skew under SNAPSHOT;
//! * per-level rules mirror the engine's locking/MVCC disciplines: dirty
//!   reads only at READ UNCOMMITTED, lost updates where reads are
//!   short-locked and commits unvalidated, non-repeatable reads below
//!   REPEATABLE READ, phantoms below SERIALIZABLE (predicate locks) and
//!   SNAPSHOT (stable snapshot), write skew unless *both* sides hold long
//!   read locks. Because SNAPSHOT writers install their buffers without
//!   consulting the lock manager, a SNAPSHOT-level partner pierces the
//!   long-lock exclusions of RR/SER (the SI/2PL mixing leak) — the rules
//!   account for partner levels, not just the victim's.
//!
//! The prediction is a *may* analysis: it over-approximates the runtime
//! detectors of `semcc-checker` (every anomaly they can observe at a level
//! vector is in the predicted exposure set), which the cross-oracle
//! property test in `crates/checker/tests/lint_soundness.rs` exercises.

use crate::app::App;
use crate::interfere::Analyzer;
use semcc_engine::{AnomalyKind, IsolationLevel};
use semcc_logic::row::RowPred;
use semcc_logic::Pred;
use semcc_txn::stmt::Stmt;
use semcc_txn::symexec::{summarize, write_footprint, SymOptions};
use std::collections::{BTreeMap, BTreeSet};

/// Static read/write footprint of one transaction type, folded over all of
/// its path summaries (with the syntactic write footprint as a sound
/// superset for truncated paths).
#[derive(Clone, Debug)]
pub struct TxnFootprint {
    /// Transaction type name.
    pub name: String,
    /// Items read on some path.
    pub read_items: BTreeSet<String>,
    /// Items some path reads more than once.
    pub reread_items: BTreeSet<String>,
    /// Items read and later written on the same path.
    pub rmw_items: BTreeSet<String>,
    /// Relational regions read (SELECT family), deduplicated.
    pub read_regions: Vec<(String, RowPred)>,
    /// Tables some path SELECTs from more than once.
    pub reread_tables: BTreeSet<String>,
    /// Tables a path both SELECTs twice from *and* writes — the type can
    /// phantom itself at any isolation level.
    pub self_phantom_tables: BTreeSet<String>,
    /// Items written on any path (syntactic superset).
    pub write_items: BTreeSet<String>,
    /// Tables written on any path (syntactic superset).
    pub write_tables: BTreeSet<String>,
    /// Regions written (`None` = potentially the whole table).
    pub write_regions: Vec<(String, Option<RowPred>)>,
    /// Item write set of each *writing* path (for the write-set
    /// disjointness side of the dangerous-structure test).
    pub writing_path_items: Vec<BTreeSet<String>>,
}

impl TxnFootprint {
    fn of(program: &semcc_txn::Program, opts: SymOptions) -> TxnFootprint {
        let paths = summarize(program, opts);
        let wf = write_footprint(program);
        let mut fp = TxnFootprint {
            name: program.name.clone(),
            read_items: BTreeSet::new(),
            reread_items: BTreeSet::new(),
            rmw_items: BTreeSet::new(),
            read_regions: Vec::new(),
            reread_tables: BTreeSet::new(),
            self_phantom_tables: BTreeSet::new(),
            write_items: wf.items,
            write_tables: wf.tables,
            write_regions: Vec::new(),
            writing_path_items: Vec::new(),
        };
        for p in &paths {
            fp.read_items.extend(p.reads.item_set());
            fp.reread_items.extend(p.reads.reread_items());
            fp.rmw_items.extend(p.reads.rmw_items.iter().cloned());
            for (t, r) in &p.reads.regions {
                if !fp.read_regions.iter().any(|(t2, r2)| t2 == t && r2 == r) {
                    fp.read_regions.push((t.clone(), r.clone()));
                }
            }
            let rr = p.reads.reread_tables();
            let written_tables = p.written_tables();
            for t in &rr {
                if written_tables.contains(t) {
                    fp.self_phantom_tables.insert(t.clone());
                }
            }
            fp.reread_tables.extend(rr);
            for e in &p.effects {
                let region = e.region().cloned();
                if !fp
                    .write_regions
                    .iter()
                    .any(|(t2, r2)| t2 == e.table() && r2.as_ref() == region.as_ref())
                {
                    fp.write_regions.push((e.table().to_string(), region));
                }
            }
            let w = p.written_items();
            if !w.is_empty() {
                fp.writing_path_items.push(w);
            }
        }
        fp
    }
}

/// Dependency-edge kind between an ordered pair of transaction types.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum DepKind {
    /// `from` writes what `to` reads (wr, read dependency).
    WriteRead,
    /// Both write the same item / overlapping region (ww).
    WriteWrite,
    /// `from` reads what `to` writes (rw, anti-dependency).
    ReadWrite,
}

impl std::fmt::Display for DepKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            DepKind::WriteRead => "wr",
            DepKind::WriteWrite => "ww",
            DepKind::ReadWrite => "rw",
        })
    }
}

/// One classified edge of the static dependency graph.
#[derive(Clone, Debug)]
pub struct DepEdge {
    /// Source transaction type.
    pub from: String,
    /// Target transaction type.
    pub to: String,
    /// Kind.
    pub kind: DepKind,
    /// Items inducing the edge.
    pub items: BTreeSet<String>,
    /// Tables whose regions may intersect (relational part of the edge).
    pub tables: BTreeSet<String>,
    /// Which footprint rule created the edge: `item-overlap`,
    /// `region-overlap`, or `item+region` (both parts non-empty).
    pub rule: String,
    /// Top-level statement indices of `from` whose footprints contribute
    /// the edge's items/tables (indexed like `Program::body`).
    pub from_stmts: Vec<usize>,
    /// Top-level statement indices of `to` contributing the edge.
    pub to_stmts: Vec<usize>,
}

/// The static serialization dependency graph of an application.
#[derive(Clone, Debug)]
pub struct DepGraph {
    /// Per-type footprints, in program order.
    pub txns: Vec<TxnFootprint>,
    /// Classified edges (self-pairs included: two instances of one type).
    pub edges: Vec<DepEdge>,
}

/// A pair of types with mutual item-level anti-dependencies and possibly
/// disjoint write sets — the structure that predicts write skew under
/// SNAPSHOT (and any level pair without two-sided long read locks).
#[derive(Clone, Debug)]
pub struct DangerousStructure {
    /// First participant (program order).
    pub a: String,
    /// Second participant.
    pub b: String,
    /// Items `a` reads that `b` writes.
    pub a_reads_b_writes: BTreeSet<String>,
    /// Items `b` reads that `a` writes.
    pub b_reads_a_writes: BTreeSet<String>,
}

impl DepGraph {
    /// Build the graph for an application with default symbolic options.
    pub fn build(app: &App) -> DepGraph {
        DepGraph::build_opts(app, SymOptions::default())
    }

    /// Build the graph with explicit symbolic-execution options.
    pub fn build_opts(app: &App, opts: SymOptions) -> DepGraph {
        let analyzer = Analyzer::new(app);
        let txns: Vec<TxnFootprint> =
            app.programs.iter().map(|p| TxnFootprint::of(p, opts)).collect();
        let mut edges = Vec::new();
        for a in &txns {
            for b in &txns {
                edges.extend(classify(&analyzer, a, b));
            }
        }
        // Provenance: anchor every edge to the top-level statements whose
        // syntactic footprints carry its items/tables (classify works on
        // folded type footprints, so the anchors are recovered here).
        let fps: BTreeMap<&str, Vec<StmtFootprint>> =
            app.programs.iter().map(|p| (p.name.as_str(), stmt_footprints(p))).collect();
        for e in &mut edges {
            let tokens: BTreeSet<String> = e
                .items
                .iter()
                .cloned()
                .chain(e.tables.iter().map(|t| format!("tbl:{t}")))
                .collect();
            let (from_writes, to_writes) = match e.kind {
                DepKind::WriteRead => (true, false),
                DepKind::WriteWrite => (true, true),
                DepKind::ReadWrite => (false, true),
            };
            let anchor = |name: &str, writes: bool| -> Vec<usize> {
                fps.get(name)
                    .map(|stmts| {
                        stmts
                            .iter()
                            .enumerate()
                            .filter(|(_, fp)| {
                                let side = if writes { &fp.writes } else { &fp.reads };
                                side.iter().any(|k| tokens.contains(k))
                            })
                            .map(|(i, _)| i)
                            .collect()
                    })
                    .unwrap_or_default()
            };
            e.from_stmts = anchor(&e.from, from_writes);
            e.to_stmts = anchor(&e.to, to_writes);
        }
        DepGraph { txns, edges }
    }

    /// Footprint of a type, by name.
    pub fn footprint(&self, name: &str) -> Option<&TxnFootprint> {
        self.txns.iter().find(|t| t.name == name)
    }

    /// Edges of a given kind from `from` to `to`.
    pub fn edge(&self, from: &str, to: &str, kind: DepKind) -> Option<&DepEdge> {
        self.edges.iter().find(|e| e.from == from && e.to == to && e.kind == kind)
    }

    /// All dangerous structures (unordered pairs, program order).
    pub fn dangerous_structures(&self) -> Vec<DangerousStructure> {
        let mut out = Vec::new();
        for (i, a) in self.txns.iter().enumerate() {
            for b in &self.txns[i..] {
                let arb: BTreeSet<String> =
                    a.read_items.intersection(&b.write_items).cloned().collect();
                let bra: BTreeSet<String> =
                    b.read_items.intersection(&a.write_items).cloned().collect();
                if arb.is_empty() || bra.is_empty() {
                    continue;
                }
                // Write sets must be able to end up disjoint (otherwise
                // first-committer-wins or write locks serialize the pair).
                let possibly_disjoint = a
                    .writing_path_items
                    .iter()
                    .any(|wa| b.writing_path_items.iter().any(|wb| wa.is_disjoint(wb)));
                if !possibly_disjoint {
                    continue;
                }
                out.push(DangerousStructure {
                    a: a.name.clone(),
                    b: b.name.clone(),
                    a_reads_b_writes: arb,
                    b_reads_a_writes: bra,
                });
            }
        }
        out
    }
}

/// Classify the edges from `a` to `b` (two *instances*, possibly of the
/// same type — parameters are renamed apart for the region queries).
fn classify(analyzer: &Analyzer<'_>, a: &TxnFootprint, b: &TxnFootprint) -> Vec<DepEdge> {
    let mut out = Vec::new();
    let region_overlap = |xs: &[(String, Option<RowPred>)], ys: &[(String, Option<RowPred>)]| {
        let mut tables = BTreeSet::new();
        for (t, f) in xs {
            for (t2, g) in ys {
                if t != t2 || tables.contains(t) {
                    continue;
                }
                let hit = match (f, g) {
                    (Some(f), Some(g)) => analyzer.regions_may_intersect(
                        &Pred::True,
                        &f.rename_params("l$"),
                        &g.rename_params("r$"),
                    ),
                    _ => true, // whole-table side always overlaps
                };
                if hit {
                    tables.insert(t.clone());
                }
            }
        }
        tables
    };
    let some = |r: &[(String, RowPred)]| -> Vec<(String, Option<RowPred>)> {
        r.iter().map(|(t, f)| (t.clone(), Some(f.clone()))).collect()
    };

    let rule_for = |items: &BTreeSet<String>, tables: &BTreeSet<String>| -> String {
        match (!items.is_empty(), !tables.is_empty()) {
            (true, true) => "item+region",
            (true, false) => "item-overlap",
            _ => "region-overlap",
        }
        .to_string()
    };

    // wr: a writes, b reads.
    let wr_items: BTreeSet<String> = a.write_items.intersection(&b.read_items).cloned().collect();
    let wr_tables = region_overlap(&a.write_regions, &some(&b.read_regions));
    if !wr_items.is_empty() || !wr_tables.is_empty() {
        out.push(DepEdge {
            from: a.name.clone(),
            to: b.name.clone(),
            kind: DepKind::WriteRead,
            rule: rule_for(&wr_items, &wr_tables),
            items: wr_items,
            tables: wr_tables,
            from_stmts: Vec::new(),
            to_stmts: Vec::new(),
        });
    }
    // ww.
    let ww_items: BTreeSet<String> = a.write_items.intersection(&b.write_items).cloned().collect();
    let ww_tables = region_overlap(&a.write_regions, &b.write_regions);
    if !ww_items.is_empty() || !ww_tables.is_empty() {
        out.push(DepEdge {
            from: a.name.clone(),
            to: b.name.clone(),
            kind: DepKind::WriteWrite,
            rule: rule_for(&ww_items, &ww_tables),
            items: ww_items,
            tables: ww_tables,
            from_stmts: Vec::new(),
            to_stmts: Vec::new(),
        });
    }
    // rw: a reads, b writes.
    let rw_items: BTreeSet<String> = a.read_items.intersection(&b.write_items).cloned().collect();
    let rw_tables = region_overlap(&some(&a.read_regions), &b.write_regions);
    if !rw_items.is_empty() || !rw_tables.is_empty() {
        out.push(DepEdge {
            from: a.name.clone(),
            to: b.name.clone(),
            kind: DepKind::ReadWrite,
            rule: rule_for(&rw_items, &rw_tables),
            items: rw_items,
            tables: rw_tables,
            from_stmts: Vec::new(),
            to_stmts: Vec::new(),
        });
    }
    out
}

/// Predicted exposure of one transaction type at its assigned level.
#[derive(Clone, Debug)]
pub struct Exposure {
    /// Transaction type.
    pub txn: String,
    /// Level the prediction was made for.
    pub level: IsolationLevel,
    /// Predicted anomalies with a one-line cause each.
    pub exposed: BTreeMap<AnomalyKind, String>,
}

impl Exposure {
    /// Whether `kind` is in the exposure set.
    pub fn has(&self, kind: AnomalyKind) -> bool {
        self.exposed.contains_key(&kind)
    }
}

/// Predict, per transaction type, which anomalies the runtime detectors
/// could observe when each type runs at `levels[type]` (types absent from
/// the map default to SERIALIZABLE). Sound over-approximation of
/// `semcc_checker::detect_anomalies` on any mixed-level execution.
pub fn predict_exposures(
    graph: &DepGraph,
    levels: &BTreeMap<String, IsolationLevel>,
) -> Vec<Exposure> {
    use AnomalyKind::*;
    let level_of = |name: &str| levels.get(name).copied().unwrap_or(IsolationLevel::Serializable);
    let writers_of = |item: &String| -> Vec<&TxnFootprint> {
        graph.txns.iter().filter(|u| u.write_items.contains(item)).collect()
    };
    let dangerous = graph.dangerous_structures();
    let mut out = Vec::new();
    for t in &graph.txns {
        let l = level_of(&t.name);
        let mut exposed: BTreeMap<AnomalyKind, String> = BTreeMap::new();

        // Dirty read: only READ UNCOMMITTED takes no read locks on items
        // while seeing in-place uncommitted writes.
        if l == IsolationLevel::ReadUncommitted {
            for x in &t.read_items {
                if let Some(u) = writers_of(x).first() {
                    exposed
                        .entry(DirtyRead)
                        .or_insert_with(|| format!("reads `{x}` which {} writes in place", u.name));
                }
            }
        }

        // Can a committed write of `x` by some other type slip past this
        // type's long read locks? Lock-based writers cannot (their X lock
        // blocks on our S lock), but a SNAPSHOT writer installs its buffer
        // at commit without consulting the lock manager — the classic
        // SI/2PL mixing leak.
        let lock_bypassing_writer = |x: &String| -> Option<&TxnFootprint> {
            writers_of(x).into_iter().find(|u| level_of(&u.name).is_snapshot())
        };

        // Lost update: a committed read, an intervening committed writer,
        // then our own write. Excluded by FCW validation (RC+FCW,
        // SNAPSHOT); long read locks (RR, SER) stop lock-based writers
        // only.
        if !l.fcw() {
            for x in &t.rmw_items {
                let culprit = if l.long_read_locks() {
                    lock_bypassing_writer(x)
                } else {
                    writers_of(x).into_iter().next()
                };
                if let Some(u) = culprit {
                    exposed.entry(LostUpdate).or_insert_with(|| {
                        format!("read-modify-writes `{x}` with concurrent writer {}", u.name)
                    });
                }
            }
        }

        // Cross-item lost update: a committed read of `y` and a write of a
        // *different* item `x`, with one concurrent type writing both. The
        // stale read (rw anti-dependency) orders this type before the
        // other, the surviving `x` overwrite (ww) orders it after — a
        // cycle no serial execution shows. First-committer-wins validation
        // aborts the second `x` writer; long read locks pin `y` against
        // lock-based writers only (the same SI/2PL pierce as above).
        if !l.fcw() {
            'cross: for y in &t.read_items {
                for u in writers_of(y) {
                    if l.long_read_locks() && !level_of(&u.name).is_snapshot() {
                        continue;
                    }
                    if let Some(x) =
                        t.write_items.iter().find(|x| *x != y && u.write_items.contains(*x))
                    {
                        exposed.entry(LostUpdate).or_insert_with(|| {
                            format!("reads `{y}` and writes `{x}` while {} writes both", u.name)
                        });
                        break 'cross;
                    }
                }
            }
        }

        // Non-repeatable read: two committed reads of one item straddling
        // another writer's commit. A snapshot read never observes a second
        // version; long read locks pin the version against lock-based
        // writers but not against SNAPSHOT writers.
        if !l.is_snapshot() {
            for x in &t.reread_items {
                let culprit = if l.long_read_locks() {
                    lock_bypassing_writer(x)
                } else {
                    writers_of(x).into_iter().next()
                };
                if let Some(u) = culprit {
                    exposed
                        .entry(NonRepeatableRead)
                        .or_insert_with(|| format!("re-reads `{x}` which {} writes", u.name));
                }
            }

            // Read skew (A5A): two reads of *different* items, both written
            // by one other committing type — the reads can straddle its
            // commit and observe a mix of states no serial execution shows.
            // Same protection profile as the re-read case: a snapshot pins
            // both reads to one state, long read locks fence off lock-based
            // writers (but not SNAPSHOT ones).
            if t.read_items.len() >= 2 {
                for u in &graph.txns {
                    if l.long_read_locks() && !level_of(&u.name).is_snapshot() {
                        continue;
                    }
                    let both: Vec<&str> = t
                        .read_items
                        .iter()
                        .filter(|x| u.write_items.contains(*x))
                        .map(String::as_str)
                        .collect();
                    if both.len() >= 2 {
                        exposed.entry(NonRepeatableRead).or_insert_with(|| {
                            format!(
                                "reads {{{}}} which {} writes together (read skew)",
                                both.join(", "),
                                u.name
                            )
                        });
                        break;
                    }
                }
            }
        }

        // Phantom: the same predicate re-evaluated with a different match
        // set. A type whose path SELECTs a table twice *and* writes it can
        // phantom itself at any level; a stable snapshot excludes foreign
        // phantoms entirely; SERIALIZABLE predicate locks fence off
        // lock-based writers but, again, not SNAPSHOT writers.
        for table in &t.reread_tables {
            if t.self_phantom_tables.contains(table) {
                exposed
                    .entry(Phantom)
                    .or_insert_with(|| format!("re-SELECTs `{table}` around its own writes"));
                continue;
            }
            if l.is_snapshot() {
                continue;
            }
            let foreign = graph.edges.iter().find(|e| {
                e.from == t.name
                    && e.kind == DepKind::ReadWrite
                    && e.tables.contains(table)
                    && (!l.read_predicate_locks() || level_of(&e.to).is_snapshot())
            });
            if let Some(e) = foreign {
                exposed.entry(Phantom).or_insert_with(|| {
                    format!("re-SELECTs `{table}` which {} writes an intersecting region of", e.to)
                });
            }
        }

        // Write skew: a dangerous structure this type participates in,
        // unless both sides hold long read locks (the mutual RW edges then
        // deadlock or serialize under two-phase locking).
        for d in &dangerous {
            let partner = if d.a == t.name {
                &d.b
            } else if d.b == t.name {
                &d.a
            } else {
                continue;
            };
            let lp = level_of(partner);
            if l.long_read_locks() && lp.long_read_locks() {
                continue;
            }
            // SSI prevention needs *both* participants in the SSI registry:
            // the rw edges of the dangerous structure are then marked and
            // the pivot aborted before commit. One untracked side leaves
            // the structure invisible — no exemption.
            if l.siread_locks() && lp.siread_locks() {
                continue;
            }
            let (reads, writes) = if d.a == t.name {
                (&d.a_reads_b_writes, &d.b_reads_a_writes)
            } else {
                (&d.b_reads_a_writes, &d.a_reads_b_writes)
            };
            exposed.entry(WriteSkew).or_insert_with(|| {
                format!(
                    "mutual anti-dependency with {partner}: reads {{{}}} it writes, writes {{{}}} it reads",
                    join(reads),
                    join(writes)
                )
            });
        }

        out.push(Exposure { txn: t.name.clone(), level: l, exposed });
    }
    out
}

fn join(s: &BTreeSet<String>) -> String {
    s.iter().cloned().collect::<Vec<_>>().join(", ")
}

/// Syntactic read/write footprint of one *top-level* statement: item base
/// names plus `tbl:`-tagged table names, with branches and loop bodies
/// folded in. Coarser than the per-transaction [`TxnFootprint`] (no region
/// predicates), but sound for the independence test of the schedule-space
/// explorer: two statements whose footprints do not conflict commute.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StmtFootprint {
    /// Items (base names) and tables (`tbl:` prefix) the statement may read.
    pub reads: BTreeSet<String>,
    /// Items and tables the statement may write.
    pub writes: BTreeSet<String>,
}

impl StmtFootprint {
    /// Whether two footprints conflict: one's writes overlap the other's
    /// reads or writes (the Mazurkiewicz dependence test).
    pub fn conflicts(&self, other: &StmtFootprint) -> bool {
        self.writes.iter().any(|k| other.reads.contains(k) || other.writes.contains(k))
            || other.writes.iter().any(|k| self.reads.contains(k))
    }
}

/// Per-top-level-statement footprints of a program, indexed like
/// `program.body`. Indexed items collapse to their base name (the
/// explorer binds all index parameters to the same slot, so aliasing is
/// the conservative answer anyway); UPDATE/DELETE read the rows their
/// filters select, so they count as table reads *and* writes.
pub fn stmt_footprints(program: &semcc_txn::Program) -> Vec<StmtFootprint> {
    program
        .body
        .iter()
        .map(|a| {
            let mut fp = StmtFootprint::default();
            collect_stmt_footprint(&a.stmt, &mut fp);
            fp
        })
        .collect()
}

fn collect_stmt_footprint(s: &Stmt, fp: &mut StmtFootprint) {
    match s {
        Stmt::ReadItem { item, .. } => {
            fp.reads.insert(item.base.clone());
        }
        Stmt::WriteItem { item, .. } => {
            fp.writes.insert(item.base.clone());
        }
        Stmt::WriteItemMax { item, .. } => {
            // The monotone RMW re-reads the written cell, but only under its
            // own X lock; a write entry alone yields the same conflict set
            // (writes already collide with both reads and writes).
            fp.writes.insert(item.base.clone());
        }
        Stmt::Select { table, .. }
        | Stmt::SelectCount { table, .. }
        | Stmt::SelectValue { table, .. } => {
            fp.reads.insert(format!("tbl:{table}"));
        }
        Stmt::Update { table, .. } | Stmt::Delete { table, .. } => {
            fp.reads.insert(format!("tbl:{table}"));
            fp.writes.insert(format!("tbl:{table}"));
        }
        Stmt::Insert { table, .. } => {
            fp.writes.insert(format!("tbl:{table}"));
        }
        Stmt::If { then_branch, else_branch, .. } => {
            for a in then_branch.iter().chain(else_branch.iter()) {
                collect_stmt_footprint(&a.stmt, fp);
            }
        }
        Stmt::While { body, .. } => {
            for a in body {
                collect_stmt_footprint(&a.stmt, fp);
            }
        }
        Stmt::LocalAssign { .. } | Stmt::Pause { .. } => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_logic::parser::parse_pred;
    use semcc_logic::row::RowExpr;
    use semcc_txn::stmt::{AStmt, ItemRef, Stmt};
    use semcc_txn::ProgramBuilder;

    /// Figure 1's two withdrawals: the canonical dangerous structure.
    fn bank_pair() -> App {
        let withdraw = |name: &str, this: &str, other: &str| {
            ProgramBuilder::new(name)
                .param_int("w")
                .param_cond(parse_pred("@w >= 0").expect("parses"))
                .bare(Stmt::ReadItem { item: ItemRef::plain(this), into: "A".into() })
                .bare(Stmt::ReadItem { item: ItemRef::plain(other), into: "B".into() })
                .bare(Stmt::If {
                    guard: parse_pred(":A + :B >= @w").expect("parses"),
                    then_branch: vec![AStmt::bare(Stmt::WriteItem {
                        item: ItemRef::plain(this),
                        value: semcc_logic::Expr::local("A").sub(semcc_logic::Expr::param("w")),
                    })],
                    else_branch: vec![],
                })
                .build()
        };
        App::new()
            .with_program(withdraw("W_sav", "sav", "ch"))
            .with_program(withdraw("W_ch", "ch", "sav"))
    }

    #[test]
    fn bank_pair_is_dangerous() {
        let g = DepGraph::build(&bank_pair());
        let d = g.dangerous_structures();
        assert_eq!(d.len(), 1, "exactly the W_sav/W_ch pair: {d:?}");
        assert_eq!((d[0].a.as_str(), d[0].b.as_str()), ("W_sav", "W_ch"));
        assert!(d[0].a_reads_b_writes.contains("ch"));
        assert!(d[0].b_reads_a_writes.contains("sav"));
        // and the mutual rw edges are present in the graph
        assert!(g.edge("W_sav", "W_ch", DepKind::ReadWrite).is_some());
        assert!(g.edge("W_ch", "W_sav", DepKind::ReadWrite).is_some());
    }

    #[test]
    fn write_skew_predicted_at_snapshot_not_at_rr() {
        let g = DepGraph::build(&bank_pair());
        let at = |l: IsolationLevel| {
            let levels: BTreeMap<String, IsolationLevel> =
                [("W_sav".to_string(), l), ("W_ch".to_string(), l)].into();
            predict_exposures(&g, &levels)
        };
        let snap = at(IsolationLevel::Snapshot);
        assert!(snap.iter().all(|e| e.has(AnomalyKind::WriteSkew)), "{snap:?}");
        let rr = at(IsolationLevel::RepeatableRead);
        assert!(rr.iter().all(|e| !e.has(AnomalyKind::WriteSkew)), "{rr:?}");
        // Mixed: one long-read-lock side does not save the pair.
        let levels: BTreeMap<String, IsolationLevel> = [
            ("W_sav".to_string(), IsolationLevel::RepeatableRead),
            ("W_ch".to_string(), IsolationLevel::ReadCommitted),
        ]
        .into();
        let mixed = predict_exposures(&g, &levels);
        assert!(mixed.iter().all(|e| e.has(AnomalyKind::WriteSkew)), "{mixed:?}");
    }

    #[test]
    fn item_level_exposure_ladder() {
        // RMW + re-read type against a blind writer.
        let reader = ProgramBuilder::new("R")
            .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "A".into() })
            .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "B".into() })
            .bare(Stmt::WriteItem {
                item: ItemRef::plain("x"),
                value: semcc_logic::Expr::local("A").add(semcc_logic::Expr::int(1)),
            })
            .build();
        let writer = ProgramBuilder::new("W")
            .bare(Stmt::WriteItem { item: ItemRef::plain("x"), value: semcc_logic::Expr::int(7) })
            .build();
        let app = App::new().with_program(reader).with_program(writer);
        let g = DepGraph::build(&app);
        let expect = |l: IsolationLevel, kinds: &[AnomalyKind]| {
            let levels: BTreeMap<String, IsolationLevel> =
                [("R".to_string(), l), ("W".to_string(), l)].into();
            let e = &predict_exposures(&g, &levels)[0];
            for k in AnomalyKind::ALL {
                assert_eq!(
                    e.has(k),
                    kinds.contains(&k),
                    "R at {l}: {k} (exposed: {:?})",
                    e.exposed.keys().collect::<Vec<_>>()
                );
            }
        };
        use AnomalyKind::*;
        expect(IsolationLevel::ReadUncommitted, &[DirtyRead, LostUpdate, NonRepeatableRead]);
        expect(IsolationLevel::ReadCommitted, &[LostUpdate, NonRepeatableRead]);
        expect(IsolationLevel::ReadCommittedFcw, &[NonRepeatableRead]);
        expect(IsolationLevel::RepeatableRead, &[]);
        expect(IsolationLevel::Serializable, &[]);
    }

    #[test]
    fn snapshot_partner_pierces_long_read_locks() {
        // R re-reads and read-modify-writes `x`; W blind-writes `x`.
        let reader = ProgramBuilder::new("R")
            .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "A".into() })
            .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "B".into() })
            .bare(Stmt::WriteItem {
                item: ItemRef::plain("x"),
                value: semcc_logic::Expr::local("A").add(semcc_logic::Expr::int(1)),
            })
            .build();
        let writer = ProgramBuilder::new("W")
            .bare(Stmt::WriteItem { item: ItemRef::plain("x"), value: semcc_logic::Expr::int(7) })
            .build();
        let app = App::new().with_program(reader).with_program(writer);
        let g = DepGraph::build(&app);
        let at = |wl: IsolationLevel| {
            let levels: BTreeMap<String, IsolationLevel> =
                [("R".to_string(), IsolationLevel::Serializable), ("W".to_string(), wl)].into();
            predict_exposures(&g, &levels).remove(0)
        };
        // Lock-based partner: R's long read locks protect it fully.
        let vs_locked = at(IsolationLevel::ReadCommitted);
        assert!(vs_locked.exposed.is_empty(), "{vs_locked:?}");
        // SNAPSHOT partner bypasses the lock manager at commit: R's stale
        // rmw and re-read become reachable even at SERIALIZABLE.
        let vs_snapshot = at(IsolationLevel::Snapshot);
        assert!(vs_snapshot.has(AnomalyKind::LostUpdate), "{vs_snapshot:?}");
        assert!(vs_snapshot.has(AnomalyKind::NonRepeatableRead), "{vs_snapshot:?}");
    }

    #[test]
    fn phantom_from_foreign_insert_and_self() {
        // Auditor SELECTs a region twice; Inserter adds matching rows.
        let audit = ProgramBuilder::new("Audit")
            .bare(Stmt::SelectCount {
                table: "orders".into(),
                filter: RowPred::field_eq_int("cust", 1),
                into: "n1".into(),
            })
            .bare(Stmt::SelectCount {
                table: "orders".into(),
                filter: RowPred::field_eq_int("cust", 1),
                into: "n2".into(),
            })
            .build();
        let insert = ProgramBuilder::new("Ins")
            .bare(Stmt::Insert { table: "orders".into(), values: vec![RowExpr::Int(1)] })
            .build();
        let app =
            App::new().with_program(audit).with_program(insert).with_schema("orders", &["cust"]);
        let g = DepGraph::build(&app);
        let at = |l: IsolationLevel| {
            let levels: BTreeMap<String, IsolationLevel> =
                [("Audit".to_string(), l), ("Ins".to_string(), l)].into();
            predict_exposures(&g, &levels)[0].has(AnomalyKind::Phantom)
        };
        assert!(at(IsolationLevel::RepeatableRead), "tuple locks don't stop phantoms");
        assert!(!at(IsolationLevel::Serializable), "predicate locks do");
        assert!(!at(IsolationLevel::Snapshot), "stable snapshot does");

        // Self-phantom: SELECT, INSERT, SELECT in one type — any level.
        let selfie = ProgramBuilder::new("Selfie")
            .bare(Stmt::SelectCount {
                table: "orders".into(),
                filter: RowPred::True,
                into: "n1".into(),
            })
            .bare(Stmt::Insert { table: "orders".into(), values: vec![RowExpr::Int(2)] })
            .bare(Stmt::SelectCount {
                table: "orders".into(),
                filter: RowPred::True,
                into: "n2".into(),
            })
            .build();
        let app = App::new().with_program(selfie).with_schema("orders", &["cust"]);
        let g = DepGraph::build(&app);
        let levels: BTreeMap<String, IsolationLevel> =
            [("Selfie".to_string(), IsolationLevel::Serializable)].into();
        assert!(predict_exposures(&g, &levels)[0].has(AnomalyKind::Phantom));
    }

    #[test]
    fn edges_carry_statement_provenance() {
        let g = DepGraph::build(&bank_pair());
        let e = g.edge("W_sav", "W_ch", DepKind::ReadWrite).expect("rw edge");
        assert_eq!(e.rule, "item-overlap");
        assert!(e.items.contains("ch"));
        // W_sav reads `ch` only in statement 1; W_ch writes `ch` only
        // inside the If at statement 2.
        assert_eq!(e.from_stmts, vec![1]);
        assert_eq!(e.to_stmts, vec![2]);
    }

    #[test]
    fn disjoint_regions_produce_no_edge() {
        let a = ProgramBuilder::new("A")
            .bare(Stmt::Select {
                table: "t".into(),
                filter: RowPred::field_eq_int("k", 1),
                into: "r".into(),
            })
            .build();
        let b = ProgramBuilder::new("B")
            .bare(Stmt::Update {
                table: "t".into(),
                filter: RowPred::field_eq_int("k", 2),
                sets: vec![("v".into(), RowExpr::Int(0))],
            })
            .build();
        let app = App::new().with_program(a).with_program(b).with_schema("t", &["k", "v"]);
        let g = DepGraph::build(&app);
        assert!(
            g.edge("A", "B", DepKind::ReadWrite).is_none(),
            "k=1 and k=2 regions are disjoint: {:?}",
            g.edges
        );
    }
}
