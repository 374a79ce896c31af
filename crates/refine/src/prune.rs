//! Prover-backed pruning of infeasible SDG conflict edges.
//!
//! Every *table constituent* of an edge (a table the builder believes both
//! sides can touch a common row of) is re-examined:
//!
//! * **insert-beyond-region** — when the writing side's only effects on
//!   the table are INSERTs and the other side touches it through region
//!   filters, the constituent is feasible only if some inserted row can
//!   satisfy some opposing filter. The obligation conjoins the writer's
//!   path condition, the inserted row's column bindings (over the shared
//!   `?row$col` skolems), the opposing filter, and the scalar conjuncts of
//!   the opposing statement's declared precondition. If every obligation
//!   is refutable, the constituent is deleted.
//! * **region-region** — when both sides touch the table through filters,
//!   the same test over the conjoined filters and preconditions (the
//!   builder runs it without the precondition context; the preconditions
//!   are what make e.g. date-partitioned workloads provably disjoint).
//!
//! Parameters of the two sides are renamed apart (`l$` / `r$`), exactly as
//! the builder's own intersection queries do. Declared preconditions enter
//! as **trusted premises** and are recorded on the certificate; the
//! refutation traces themselves are replayed by `semcc_cert::verify`.

use semcc_cert::PruneCert;
use semcc_core::sdg::{DepEdge, DepGraph, DepKind};
use semcc_core::{stmt_footprints, App, StmtFootprint};
use semcc_logic::certtrace::{unsat_proof, UnsatProof};
use semcc_logic::row::{bind_insert, RowPred};
use semcc_logic::subst::Subst;
use semcc_logic::{Expr, Pred, Var};
use semcc_txn::stmt::{visit_stmts, Stmt};
use semcc_txn::symexec::{summarize, RelEffect, SymOptions};
use semcc_txn::Program;
use std::collections::BTreeMap;

/// Branch budget for feasibility refutations — matches the certificate
/// checker's `MAX_BRANCHES`, so every emitted proof re-expands within the
/// checker's budget.
const MAX_BRANCHES: usize = 50_000;

/// Result of refining a dependency graph.
#[derive(Clone, Debug)]
pub struct RefineReport {
    /// Edges in the input graph.
    pub base_edges: usize,
    /// Edges remaining after pruning (an edge disappears when its last
    /// item/table constituent is deleted).
    pub refined_edges: usize,
    /// One certificate per pruned table constituent.
    pub prunes: Vec<PruneCert>,
    /// The refined graph (same footprints, pruned edges).
    pub graph: DepGraph,
}

/// Refine `graph` with default symbolic-execution options.
pub fn refine(app: &App, graph: &DepGraph) -> RefineReport {
    refine_opts(app, graph, SymOptions::default())
}

/// Refine `graph`: attempt to prune every table constituent of every edge,
/// returning the refined graph and the per-prune certificates.
pub fn refine_opts(app: &App, graph: &DepGraph, opts: SymOptions) -> RefineReport {
    let base_edges = graph.edges.len();
    let mut graph2 = graph.clone();
    let mut prunes = Vec::new();
    for e in &mut graph2.edges {
        let tables: Vec<String> = e.tables.iter().cloned().collect();
        for t in tables {
            if let Some(cert) = try_prune(app, opts, e, &t) {
                e.tables.remove(&t);
                prunes.push(cert);
            }
        }
    }
    graph2.edges.retain(|e| !e.items.is_empty() || !e.tables.is_empty());
    // Re-derive the classification rule and statement anchors of surviving
    // edges (a pruned constituent may have carried both).
    let fps: BTreeMap<&str, Vec<StmtFootprint>> =
        app.programs.iter().map(|p| (p.name.as_str(), stmt_footprints(p))).collect();
    for e in &mut graph2.edges {
        e.rule = match (!e.items.is_empty(), !e.tables.is_empty()) {
            (true, true) => "item+region",
            (true, false) => "item-overlap",
            _ => "region-overlap",
        }
        .to_string();
        let tokens: Vec<String> =
            e.items.iter().cloned().chain(e.tables.iter().map(|t| format!("tbl:{t}"))).collect();
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
    RefineReport { base_edges, refined_edges: graph2.edges.len(), prunes, graph: graph2 }
}

/// How the opposing (non-insert) side touches the table.
#[derive(Clone, Copy, PartialEq)]
enum Touch {
    Read,
    Write,
}

/// A successful rule application: the rule name, the refuted feasibility
/// obligations, and the premises the refutations assumed.
type RuleOutcome = (&'static str, Vec<(Pred, UnsatProof)>, Vec<String>);

/// Attempt to prove the table constituent `table` of `e` infeasible.
fn try_prune(app: &App, opts: SymOptions, e: &DepEdge, table: &str) -> Option<PruneCert> {
    let orientations: Vec<(&str, &str, Touch)> = match e.kind {
        DepKind::WriteRead => vec![(e.from.as_str(), e.to.as_str(), Touch::Read)],
        DepKind::ReadWrite => vec![(e.to.as_str(), e.from.as_str(), Touch::Read)],
        DepKind::WriteWrite => vec![
            (e.from.as_str(), e.to.as_str(), Touch::Write),
            (e.to.as_str(), e.from.as_str(), Touch::Write),
        ],
    };
    for (writer, opposer, touch) in orientations {
        let Some(writer) = app.programs.iter().find(|p| p.name == writer) else { continue };
        let Some(opposer) = app.programs.iter().find(|p| p.name == opposer) else { continue };
        let uses = match touch {
            Touch::Read => read_uses(opposer, table),
            Touch::Write => write_uses(opposer, table),
        };
        let Some(uses) = uses else { continue };
        if uses.is_empty() {
            continue;
        }
        if let Some((rule, obligations, premises)) =
            insert_beyond_region(app, opts, writer, table, &uses)
                .or_else(|| region_region(writer, table, &uses))
        {
            return Some(PruneCert {
                from: e.from.clone(),
                to: e.to.clone(),
                kind: e.kind.to_string(),
                table: table.to_string(),
                rule: rule.to_string(),
                premises,
                obligations,
            });
        }
    }
    None
}

/// One region use of a table: the filter and the scalar premise conjuncts
/// of the statement's declared precondition (plus the program's parameter
/// condition), both unrenamed.
struct RegionUse {
    owner: String,
    filter: RowPred,
    premises: Vec<Pred>,
}

/// The insert-beyond-region rule. `None` when inapplicable or when some
/// obligation is not refutable.
fn insert_beyond_region(
    app: &App,
    opts: SymOptions,
    writer: &Program,
    table: &str,
    uses: &[RegionUse],
) -> Option<RuleOutcome> {
    // Every effect of every writer path on the table must be an INSERT.
    let mut inserts = Vec::new();
    for path in summarize(writer, opts) {
        let path = path.rename_params("l$");
        for eff in &path.effects {
            match eff {
                RelEffect::Insert { table: t, values } if t == table => {
                    inserts.push((path.condition.clone(), values.clone()));
                }
                RelEffect::Insert { .. } => {}
                RelEffect::Update { table: t, .. }
                | RelEffect::Delete { table: t, .. }
                | RelEffect::HavocTable { table: t } => {
                    if t == table {
                        return None;
                    }
                }
            }
        }
    }
    if inserts.is_empty() {
        return None;
    }
    let mut obligations = Vec::new();
    let mut premises = Vec::new();
    if writer.param_cond != Pred::True {
        premises.push(format!("{}: {}", writer.name, writer.param_cond));
    }
    extend_premises(&mut premises, uses);
    for (cond, values) in &inserts {
        let bound = bind_insert(app.columns(table)?, values)?;
        for u in uses {
            let goal = Pred::and([
                cond.clone(),
                bound.clone(),
                u.filter.rename_params("r$").to_scalar(),
                rename_pred(&Pred::and(u.premises.iter().cloned()), "r$"),
            ]);
            let proof = unsat_proof(&goal, MAX_BRANCHES)?;
            obligations.push((goal, proof));
        }
    }
    Some(("insert-beyond-region", obligations, premises))
}

/// The region-region rule: both sides touch the table only through
/// filters, and every filter pair is disjoint under the declared
/// preconditions.
fn region_region(writer: &Program, table: &str, uses: &[RegionUse]) -> Option<RuleOutcome> {
    let writer_uses = write_uses(writer, table)?;
    if writer_uses.is_empty() {
        return None;
    }
    let mut obligations = Vec::new();
    let mut premises = Vec::new();
    extend_premises(&mut premises, &writer_uses);
    extend_premises(&mut premises, uses);
    for w in &writer_uses {
        for u in uses {
            let goal = Pred::and([
                w.filter.rename_params("l$").to_scalar(),
                rename_pred(&Pred::and(w.premises.iter().cloned()), "l$"),
                u.filter.rename_params("r$").to_scalar(),
                rename_pred(&Pred::and(u.premises.iter().cloned()), "r$"),
            ]);
            let proof = unsat_proof(&goal, MAX_BRANCHES)?;
            obligations.push((goal, proof));
        }
    }
    Some(("region-region", obligations, premises))
}

/// Record the printed premises (the trusted declared preconditions) of a
/// set of region uses, deduplicated.
fn extend_premises(out: &mut Vec<String>, uses: &[RegionUse]) {
    for u in uses {
        for p in &u.premises {
            let s = format!("{}: {p}", u.owner);
            if !out.contains(&s) {
                out.push(s);
            }
        }
    }
}

/// All SELECT-family uses of `table` with their premises. `None` when a
/// filter mentions non-parameter outer variables (locals / skolems — the
/// feasibility query could not rename them apart soundly).
fn read_uses(p: &Program, table: &str) -> Option<Vec<RegionUse>> {
    collect_uses(p, table, Touch::Read)
}

/// All UPDATE/DELETE region writes of `table`. `None` additionally when
/// the program INSERTs into the table (the write side is then not fully
/// region-shaped).
fn write_uses(p: &Program, table: &str) -> Option<Vec<RegionUse>> {
    collect_uses(p, table, Touch::Write)
}

fn collect_uses(p: &Program, table: &str, touch: Touch) -> Option<Vec<RegionUse>> {
    let mut out = Vec::new();
    let mut ok = true;
    visit_stmts(&p.body, &mut |a| {
        let hit: Option<&RowPred> = match (&a.stmt, touch) {
            (Stmt::Select { table: t, filter, .. }, Touch::Read)
            | (Stmt::SelectCount { table: t, filter, .. }, Touch::Read)
            | (Stmt::SelectValue { table: t, filter, .. }, Touch::Read)
            | (Stmt::Update { table: t, filter, .. }, Touch::Write)
            | (Stmt::Delete { table: t, filter }, Touch::Write) => (t == table).then_some(filter),
            (Stmt::Insert { table: t, .. }, Touch::Write) if t == table => {
                ok = false;
                None
            }
            _ => None,
        };
        if let Some(filter) = hit {
            let mut outer = Vec::new();
            filter.collect_outer_vars(&mut outer);
            if outer.iter().any(|v| !matches!(v, Var::Param(_))) {
                ok = false;
            }
            out.push(RegionUse {
                owner: p.name.clone(),
                filter: filter.clone(),
                premises: {
                    let mut prem = scalar_premises(&a.pre);
                    if p.param_cond != Pred::True {
                        prem.push(p.param_cond.clone());
                    }
                    prem
                },
            });
        }
    });
    ok.then_some(out)
}

/// The conjuncts of `p` usable as entry-state premises: comparisons over
/// parameters and shared database items only (no locals, no skolems, no
/// opaque atoms).
fn scalar_premises(p: &Pred) -> Vec<Pred> {
    let mut out = Vec::new();
    fn walk(p: &Pred, out: &mut Vec<Pred>) {
        match p {
            Pred::And(ps) => ps.iter().for_each(|q| walk(q, out)),
            Pred::Cmp(..) | Pred::StrCmp { .. } => {
                let mut vars = Vec::new();
                p.collect_vars(&mut vars);
                if vars.iter().all(|v| matches!(v, Var::Param(_) | Var::Db(_))) {
                    out.push(p.clone());
                }
            }
            _ => {}
        }
    }
    walk(p, &mut out);
    out
}

/// Rename the parameters of a scalar predicate apart.
fn rename_pred(p: &Pred, prefix: &str) -> Pred {
    let mut vars = Vec::new();
    p.collect_vars(&mut vars);
    let mut s = Subst::new();
    for v in vars {
        if let Var::Param(name) = &v {
            s.insert(v.clone(), Expr::Var(Var::param(format!("{prefix}{name}"))));
        }
    }
    s.apply_pred(p)
}
