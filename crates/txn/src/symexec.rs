//! Symbolic execution: turn a program into finitely many *path summaries*.
//!
//! When a theorem treats a transaction `T_j` as an atomic isolated unit
//! (Theorems 2, 3, 5, 6), the analyzer needs `T_j`'s *net effect*: which
//! items it writes and with what values (as expressions over the entry
//! state), which relational effects it performs, and under what path
//! condition. This module computes exactly that, with loops handled by
//! bounded unrolling plus a sound *havoc* fallback, and unreadable values
//! (SELECT results) skolemized to fresh rigid constants.

use crate::program::Program;
use crate::stmt::{AStmt, Stmt};
use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::subst::Subst;
use semcc_logic::transform::{Assign, FreshVars};
use semcc_logic::{Expr, Pred, Var};
use std::collections::{BTreeMap, BTreeSet};

/// One relational effect of a path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RelEffect {
    /// INSERT of a (symbolic) row.
    Insert {
        /// Table.
        table: String,
        /// One symbolic value per column (Outer terms range over the
        /// transaction's parameters and skolem constants).
        values: Vec<RowExpr>,
    },
    /// UPDATE of the region `filter`.
    Update {
        /// Table.
        table: String,
        /// Region updated.
        filter: RowPred,
        /// SET clauses.
        sets: Vec<(String, RowExpr)>,
    },
    /// DELETE of the region `filter`.
    Delete {
        /// Table.
        table: String,
        /// Region deleted.
        filter: RowPred,
    },
    /// Untrackable modification of a whole table (havocked loop body).
    HavocTable {
        /// Table.
        table: String,
    },
}

impl RelEffect {
    /// The table the effect touches.
    pub fn table(&self) -> &str {
        match self {
            RelEffect::Insert { table, .. }
            | RelEffect::Update { table, .. }
            | RelEffect::Delete { table, .. }
            | RelEffect::HavocTable { table } => table,
        }
    }

    /// The region written (`None` = potentially the whole table).
    pub fn region(&self) -> Option<&RowPred> {
        match self {
            RelEffect::Update { filter, .. } | RelEffect::Delete { filter, .. } => Some(filter),
            RelEffect::Insert { .. } | RelEffect::HavocTable { .. } => None,
        }
    }

    /// Collect the outer scalar variables of its filter and values.
    pub fn collect_outer_vars(&self, out: &mut Vec<Var>) {
        match self {
            RelEffect::Insert { values, .. } => {
                values.iter().for_each(|v| v.collect_outer_vars(out))
            }
            RelEffect::Update { filter, sets, .. } => {
                filter.collect_outer_vars(out);
                sets.iter().for_each(|(_, e)| e.collect_outer_vars(out));
            }
            RelEffect::Delete { filter, .. } => filter.collect_outer_vars(out),
            RelEffect::HavocTable { .. } => {}
        }
    }

    /// The effect with `s` applied to its `Outer` terms.
    pub fn subst(&self, s: &Subst) -> RelEffect {
        match self {
            RelEffect::Insert { table, values } => RelEffect::Insert {
                table: table.clone(),
                values: values.iter().map(|v| s.apply_row_expr(v)).collect(),
            },
            RelEffect::Update { table, filter, sets } => RelEffect::Update {
                table: table.clone(),
                filter: s.apply_row_pred(filter),
                sets: sets.iter().map(|(c, e)| (c.clone(), s.apply_row_expr(e))).collect(),
            },
            RelEffect::Delete { table, filter } => {
                RelEffect::Delete { table: table.clone(), filter: s.apply_row_pred(filter) }
            }
            RelEffect::HavocTable { table } => RelEffect::HavocTable { table: table.clone() },
        }
    }
}

/// Read footprint of one execution path, in program order.
///
/// `items` keeps duplicates: an item appearing twice means the path reads
/// it twice (the raw material for non-repeatable-read exposure). Havocked
/// loops over-approximate by recording every potentially-read item and
/// region twice.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadFootprint {
    /// Item base names read, in order, duplicates preserved.
    pub items: Vec<String>,
    /// Relational regions read (SELECT / SELECT COUNT / SELECT VALUE),
    /// with the filter substituted to range over the entry state.
    pub regions: Vec<(String, RowPred)>,
    /// Items read and later written on the same path (read-modify-write).
    pub rmw_items: BTreeSet<String>,
}

impl ReadFootprint {
    /// Distinct item base names read.
    pub fn item_set(&self) -> BTreeSet<String> {
        self.items.iter().cloned().collect()
    }

    /// Items this path reads more than once.
    pub fn reread_items(&self) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut out = BTreeSet::new();
        for i in &self.items {
            if !seen.insert(i.clone()) {
                out.insert(i.clone());
            }
        }
        out
    }

    /// Tables whose regions this path reads more than once.
    pub fn reread_tables(&self) -> BTreeSet<String> {
        let mut seen = BTreeSet::new();
        let mut out = BTreeSet::new();
        for (t, _) in &self.regions {
            if !seen.insert(t.clone()) {
                out.insert(t.clone());
            }
        }
        out
    }
}

/// The net effect of one execution path.
#[derive(Clone, Debug)]
pub struct PathSummary {
    /// Path condition over parameters, entry-state database values, and
    /// skolem constants (includes `I_j ∧ B_j`).
    pub condition: Pred,
    /// Item writes as a simultaneous assignment over the entry state.
    pub assign: Assign,
    /// Items written with untrackable values (havocked loops).
    pub havoc_items: Vec<Var>,
    /// Relational effects in program order.
    pub effects: Vec<RelEffect>,
    /// Items and regions read on this path.
    pub reads: ReadFootprint,
}

impl PathSummary {
    /// Items written on this path (tracked or havocked), by base name.
    pub fn written_items(&self) -> BTreeSet<String> {
        let mut out: BTreeSet<String> =
            self.assign.targets().map(|v| v.name().to_string()).collect();
        out.extend(self.havoc_items.iter().map(|v| v.name().to_string()));
        out
    }

    /// Tables written on this path.
    pub fn written_tables(&self) -> BTreeSet<String> {
        self.effects.iter().map(|e| e.table().to_string()).collect()
    }

    /// Whether the path writes nothing shared.
    pub fn is_read_only(&self) -> bool {
        self.assign.pairs.is_empty() && self.havoc_items.is_empty() && self.effects.is_empty()
    }

    /// Rename the transaction's parameters apart (prefix them), so two
    /// instances — or a pair of different transactions sharing parameter
    /// names — do not spuriously alias in interference obligations.
    pub fn rename_params(&self, prefix: &str) -> PathSummary {
        // Collect parameter vars from everything, Outer terms included.
        let mut collect = Vec::new();
        self.condition.collect_vars(&mut collect);
        for (_, e) in &self.assign.pairs {
            e.collect_vars(&mut collect);
        }
        for eff in &self.effects {
            eff.collect_outer_vars(&mut collect);
        }
        for (_, filter) in &self.reads.regions {
            filter.collect_outer_vars(&mut collect);
        }
        let vars: BTreeSet<Var> =
            collect.into_iter().filter(|v| matches!(v, Var::Param(_))).collect();
        let mut s = Subst::new();
        for v in vars {
            if let Var::Param(name) = &v {
                s.insert(v.clone(), Expr::Var(Var::param(format!("{prefix}{name}"))));
            }
        }
        PathSummary {
            condition: s.apply_pred(&self.condition),
            assign: Assign {
                pairs: self
                    .assign
                    .pairs
                    .iter()
                    .map(|(v, e)| (v.clone(), s.apply_expr(e)))
                    .collect(),
            },
            havoc_items: self.havoc_items.clone(),
            effects: self.effects.iter().map(|eff| eff.subst(&s)).collect(),
            reads: ReadFootprint {
                items: self.reads.items.clone(),
                regions: self
                    .reads
                    .regions
                    .iter()
                    .map(|(t, f)| (t.clone(), s.apply_row_pred(f)))
                    .collect(),
                rmw_items: self.reads.rmw_items.clone(),
            },
        }
    }
}

/// Static write footprint of a program: all items/tables any path writes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WriteFootprint {
    /// Item base names.
    pub items: BTreeSet<String>,
    /// Table names.
    pub tables: BTreeSet<String>,
}

/// Collect the static write footprint (syntactic, all paths).
pub fn write_footprint(program: &Program) -> WriteFootprint {
    let mut fp = WriteFootprint::default();
    crate::stmt::visit_stmts(&program.body, &mut |a| match &a.stmt {
        Stmt::WriteItem { item, .. } | Stmt::WriteItemMax { item, .. } => {
            fp.items.insert(item.base.clone());
        }
        Stmt::Update { table, .. } | Stmt::Insert { table, .. } | Stmt::Delete { table, .. } => {
            fp.tables.insert(table.clone());
        }
        _ => {}
    });
    fp
}

/// Conservative syntactic read footprint of a whole program: every item
/// and table any statement may read, each recorded twice (statements can
/// repeat under loops, so re-reads must be assumed). Filters widen to
/// `RowPred::True`. Used by the havoc-everything fallback.
pub fn syntactic_reads(program: &Program) -> ReadFootprint {
    let mut items: BTreeSet<String> = BTreeSet::new();
    let mut tables: BTreeSet<String> = BTreeSet::new();
    crate::stmt::visit_stmts(&program.body, &mut |a| match &a.stmt {
        Stmt::ReadItem { item, .. } => {
            items.insert(item.base.clone());
        }
        Stmt::Select { table, .. }
        | Stmt::SelectCount { table, .. }
        | Stmt::SelectValue { table, .. } => {
            tables.insert(table.clone());
        }
        _ => {}
    });
    let written = write_footprint(program);
    let mut fp = ReadFootprint::default();
    for i in &items {
        fp.items.push(i.clone());
        fp.items.push(i.clone());
        if written.items.contains(i) {
            fp.rmw_items.insert(i.clone());
        }
    }
    for t in &tables {
        fp.regions.push((t.clone(), RowPred::True));
        fp.regions.push((t.clone(), RowPred::True));
    }
    fp
}

/// Items written on *every* path — the must-write set used by Theorem 5's
/// write-set-intersection condition.
pub fn must_write_items(paths: &[PathSummary]) -> BTreeSet<String> {
    let mut iter = paths.iter();
    let Some(first) = iter.next() else { return BTreeSet::new() };
    let mut acc = first.written_items();
    for p in iter {
        let w = p.written_items();
        acc.retain(|x| w.contains(x));
    }
    acc
}

/// Symbolic-execution options.
#[derive(Clone, Copy, Debug)]
pub struct SymOptions {
    /// Loop unrolling bound before the havoc fallback kicks in.
    pub loop_unroll: usize,
    /// Maximum number of paths before collapsing to one havoc-everything
    /// summary.
    pub max_paths: usize,
    /// Whether adjacent same-region UPDATEs compose into one effect (the
    /// sequential-assignment rule that makes Example 2's `Hours`
    /// analyzable as a unit). Disabled only by the ablation harness.
    pub merge_updates: bool,
}

impl Default for SymOptions {
    fn default() -> Self {
        SymOptions { loop_unroll: 2, max_paths: 64, merge_updates: true }
    }
}

#[derive(Clone)]
struct SymState {
    locals: BTreeMap<String, Expr>,
    db: BTreeMap<String, Expr>,
    conds: Vec<Pred>,
    havoc_items: BTreeSet<String>,
    effects: Vec<RelEffect>,
    reads: ReadFootprint,
}

impl SymState {
    fn subst(&self) -> Subst {
        let mut s = Subst::new();
        for (n, e) in &self.locals {
            s.insert(Var::local(n.clone()), e.clone());
        }
        // Db vars in program expressions denote *current* values.
        for (n, e) in &self.db {
            s.insert(Var::db(n.clone()), e.clone());
        }
        s
    }

    fn read_item(&self, base: &str) -> Expr {
        self.db.get(base).cloned().unwrap_or_else(|| Expr::db(base))
    }
}

/// Symbolically execute a program into path summaries. The path conditions
/// are seeded with `I_j ∧ B_j` (the transaction's own precondition — what
/// the paper's `{P ∧ P'} S {P}` obligation assumes as `P'`).
pub fn summarize(program: &Program, opts: SymOptions) -> Vec<PathSummary> {
    let seed = SymState {
        locals: BTreeMap::new(),
        db: BTreeMap::new(),
        conds: vec![program.consistency.clone(), program.param_cond.clone()],
        havoc_items: BTreeSet::new(),
        effects: Vec::new(),
        reads: ReadFootprint::default(),
    };
    let mut states = vec![seed];
    exec_block_sym(&program.body, &mut states, &opts);
    if states.len() > opts.max_paths {
        return vec![havoc_everything(program)];
    }
    states
        .into_iter()
        .map(|st| {
            let mut assign = Assign::skip();
            for (name, e) in &st.db {
                if st.havoc_items.contains(name) {
                    continue;
                }
                assign.set(Var::db(name.clone()), e.clone());
            }
            PathSummary {
                condition: Pred::and(st.conds.clone()),
                assign,
                havoc_items: st.havoc_items.iter().map(|n| Var::db(n.clone())).collect(),
                effects: if opts.merge_updates {
                    merge_adjacent_updates(st.effects)
                } else {
                    st.effects
                },
                reads: st.reads,
            }
        })
        .collect()
}

/// The sound fallback: every statically-written item and table is havocked.
fn havoc_everything(program: &Program) -> PathSummary {
    let fp = write_footprint(program);
    PathSummary {
        condition: Pred::and([program.consistency.clone(), program.param_cond.clone()]),
        assign: Assign::skip(),
        havoc_items: fp.items.iter().map(|n| Var::db(n.clone())).collect(),
        effects: fp.tables.iter().map(|t| RelEffect::HavocTable { table: t.clone() }).collect(),
        reads: syntactic_reads(program),
    }
}

fn exec_block_sym(block: &[AStmt], states: &mut Vec<SymState>, opts: &SymOptions) {
    for a in block {
        exec_stmt_sym(&a.stmt, states, opts);
        if states.len() > opts.max_paths {
            return; // caller collapses to havoc
        }
    }
}

fn exec_stmt_sym(stmt: &Stmt, states: &mut Vec<SymState>, opts: &SymOptions) {
    match stmt {
        Stmt::ReadItem { item, into } => {
            for st in states.iter_mut() {
                let v = st.read_item(&item.base);
                st.locals.insert(into.clone(), v);
                st.reads.items.push(item.base.clone());
            }
        }
        Stmt::WriteItem { item, value } => {
            for st in states.iter_mut() {
                let v = st.subst().apply_expr(value);
                st.db.insert(item.base.clone(), v);
                if st.reads.items.iter().any(|r| r == &item.base) {
                    st.reads.rmw_items.insert(item.base.clone());
                }
            }
        }
        Stmt::WriteItemMax { item, value } => {
            // x := max(x, e). The new value is a fresh skolem bounded below
            // by both the old value and the floor — exactly the facts the
            // interference theorems need to see that the write is monotone.
            // The implicit re-read happens under the item's X lock, so it is
            // not an interference-exposed read (mirror of how `Update`'s
            // `Field` references are part of the atomic effect).
            for st in states.iter_mut() {
                let old = st.read_item(&item.base);
                let floor = st.subst().apply_expr(value);
                let m = FreshVars::fresh(&format!("max_{}", item.base));
                st.conds.push(Pred::ge(Expr::Var(m.clone()), old));
                st.conds.push(Pred::ge(Expr::Var(m.clone()), floor));
                st.db.insert(item.base.clone(), Expr::Var(m));
                if st.reads.items.iter().any(|r| r == &item.base) {
                    st.reads.rmw_items.insert(item.base.clone());
                }
            }
        }
        Stmt::LocalAssign { local, value } => {
            for st in states.iter_mut() {
                let v = st.subst().apply_expr(value);
                st.locals.insert(local.clone(), v);
            }
        }
        Stmt::If { guard, then_branch, else_branch } => {
            let mut out = Vec::new();
            for st in states.drain(..) {
                let g = st.subst().apply_pred(guard);
                let mut then_states = vec![{
                    let mut s = st.clone();
                    s.conds.push(g.clone());
                    s
                }];
                exec_block_sym(then_branch, &mut then_states, opts);
                let mut else_states = vec![{
                    let mut s = st;
                    s.conds.push(Pred::not(g));
                    s
                }];
                exec_block_sym(else_branch, &mut else_states, opts);
                out.extend(then_states);
                out.extend(else_states);
            }
            *states = out;
        }
        Stmt::While { guard, body } => {
            let mut out = Vec::new();
            for st in states.drain(..) {
                // Path: zero iterations.
                {
                    let g = st.subst().apply_pred(guard);
                    let mut s = st.clone();
                    s.conds.push(Pred::not(g));
                    out.push(s);
                }
                // Unrolled iterations.
                let mut frontier = vec![st.clone()];
                for _ in 0..opts.loop_unroll {
                    let mut next = Vec::new();
                    for f in frontier.drain(..) {
                        let g = f.subst().apply_pred(guard);
                        let mut s = f;
                        s.conds.push(g);
                        let mut iter_states = vec![s];
                        exec_block_sym(body, &mut iter_states, opts);
                        for is in iter_states {
                            // exit after this iteration
                            let g_exit = is.subst().apply_pred(guard);
                            let mut exited = is.clone();
                            exited.conds.push(Pred::not(g_exit));
                            out.push(exited);
                            next.push(is);
                        }
                    }
                    frontier = next;
                }
                // Havoc fallback for longer executions.
                let mut havoc = st;
                havoc_block(body, &mut havoc);
                out.push(havoc);
            }
            *states = out;
        }
        Stmt::Pause { .. } => { /* no shared effect */ }
        Stmt::Select { table, filter, .. } => {
            for st in states.iter_mut() {
                let f = st.subst().apply_row_pred(filter);
                st.reads.regions.push((table.clone(), f));
            }
        }
        Stmt::SelectCount { table, filter, into } => {
            for st in states.iter_mut() {
                let f = st.subst().apply_row_pred(filter);
                st.reads.regions.push((table.clone(), f));
                let k = FreshVars::fresh(&format!("count_{into}"));
                st.conds.push(Pred::ge(Expr::Var(k.clone()), 0));
                st.locals.insert(into.clone(), Expr::Var(k));
            }
        }
        Stmt::SelectValue { table, filter, into, .. } => {
            for st in states.iter_mut() {
                let f = st.subst().apply_row_pred(filter);
                st.reads.regions.push((table.clone(), f));
                let k = FreshVars::fresh(&format!("sel_{into}"));
                st.locals.insert(into.clone(), Expr::Var(k));
            }
        }
        Stmt::Update { table, filter, sets } => {
            for st in states.iter_mut() {
                let s = st.subst();
                st.effects.push(RelEffect::Update {
                    table: table.clone(),
                    filter: s.apply_row_pred(filter),
                    sets: sets.iter().map(|(c, e)| (c.clone(), s.apply_row_expr(e))).collect(),
                });
            }
        }
        Stmt::Insert { table, values } => {
            for st in states.iter_mut() {
                let s = st.subst();
                st.effects.push(RelEffect::Insert {
                    table: table.clone(),
                    values: values.iter().map(|e| s.apply_row_expr(e)).collect(),
                });
            }
        }
        Stmt::Delete { table, filter } => {
            for st in states.iter_mut() {
                let s = st.subst();
                st.effects.push(RelEffect::Delete {
                    table: table.clone(),
                    filter: s.apply_row_pred(filter),
                });
            }
        }
    }
}

/// Merge adjacent UPDATE effects on the same `(table, filter)` into one
/// composite update — the relational analogue of sequential assignment
/// composition. The second update's `Field(c)` references resolve to the
/// first update's value for `c` (it sees the row *after* the first write),
/// which is what makes a transaction like the paper's `Hours` — whose two
/// writes individually break `rate·hrs = sal` but jointly preserve it —
/// analyzable as a unit.
pub fn merge_adjacent_updates(effects: Vec<RelEffect>) -> Vec<RelEffect> {
    let mut out: Vec<RelEffect> = Vec::with_capacity(effects.len());
    for eff in effects {
        match (out.last_mut(), eff) {
            (
                Some(RelEffect::Update { table: t1, filter: f1, sets: s1 }),
                RelEffect::Update { table: t2, filter: f2, sets: s2 },
            ) if *t1 == t2 && *f1 == f2 => {
                for (col, e2) in s2 {
                    let composed = compose_sets(&e2, s1);
                    if let Some(slot) = s1.iter_mut().find(|(c, _)| *c == col) {
                        slot.1 = composed;
                    } else {
                        s1.push((col, composed));
                    }
                }
            }
            (_, eff) => out.push(eff),
        }
    }
    out
}

/// Replace `Field(c)` references by the pending SET value for `c`, if any.
fn compose_sets(e: &RowExpr, pending: &[(String, RowExpr)]) -> RowExpr {
    match e {
        RowExpr::Field(c) => pending
            .iter()
            .find(|(col, _)| col == c)
            .map(|(_, v)| v.clone())
            .unwrap_or_else(|| e.clone()),
        RowExpr::Add(a, b) => {
            RowExpr::Add(Box::new(compose_sets(a, pending)), Box::new(compose_sets(b, pending)))
        }
        RowExpr::Sub(a, b) => {
            RowExpr::Sub(Box::new(compose_sets(a, pending)), Box::new(compose_sets(b, pending)))
        }
        RowExpr::Mul(a, b) => {
            RowExpr::Mul(Box::new(compose_sets(a, pending)), Box::new(compose_sets(b, pending)))
        }
        other => other.clone(),
    }
}

/// Apply the havoc over-approximation of a block to a state: every item it
/// may write becomes untracked, every table it may write becomes a
/// `HavocTable` effect, every local it may assign becomes a fresh constant.
fn havoc_block(block: &[AStmt], st: &mut SymState) {
    // Over-approximate the block's reads: each item/table it may read is
    // recorded twice (the loop can repeat), filters widen to True, and any
    // item both read and written in the block is a potential RMW.
    let mut read_items: BTreeSet<String> = BTreeSet::new();
    let mut read_tables: BTreeSet<String> = BTreeSet::new();
    let mut written_items: BTreeSet<String> = BTreeSet::new();
    crate::stmt::visit_stmts(block, &mut |a| match &a.stmt {
        Stmt::ReadItem { item, .. } => {
            read_items.insert(item.base.clone());
        }
        Stmt::Select { table, .. }
        | Stmt::SelectCount { table, .. }
        | Stmt::SelectValue { table, .. } => {
            read_tables.insert(table.clone());
        }
        Stmt::WriteItem { item, .. } | Stmt::WriteItemMax { item, .. } => {
            written_items.insert(item.base.clone());
        }
        _ => {}
    });
    for i in &read_items {
        st.reads.items.push(i.clone());
        st.reads.items.push(i.clone());
        if written_items.contains(i) {
            st.reads.rmw_items.insert(i.clone());
        }
    }
    for t in &read_tables {
        st.reads.regions.push((t.clone(), RowPred::True));
        st.reads.regions.push((t.clone(), RowPred::True));
    }
    crate::stmt::visit_stmts(block, &mut |a| match &a.stmt {
        Stmt::WriteItem { item, .. } | Stmt::WriteItemMax { item, .. } => {
            st.havoc_items.insert(item.base.clone());
            st.db.remove(&item.base);
        }
        Stmt::Update { table, .. } | Stmt::Insert { table, .. } | Stmt::Delete { table, .. }
            if !st
                .effects
                .iter()
                .any(|e| matches!(e, RelEffect::HavocTable { table: t } if t == table)) =>
        {
            st.effects.push(RelEffect::HavocTable { table: table.clone() });
        }
        Stmt::LocalAssign { local, .. }
        | Stmt::ReadItem { into: local, .. }
        | Stmt::SelectCount { into: local, .. }
        | Stmt::SelectValue { into: local, .. } => {
            st.locals.insert(local.clone(), Expr::Var(FreshVars::fresh(local)));
        }
        _ => {}
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::ProgramBuilder;
    use crate::stmt::ItemRef;
    use semcc_logic::parser::parse_pred;

    fn withdraw() -> Program {
        // Figure 1: Withdraw_sav(w)
        ProgramBuilder::new("Withdraw_sav")
            .param_int("w")
            .param_cond(parse_pred("@w >= 0").expect("parses"))
            .bare(Stmt::ReadItem { item: ItemRef::plain("sav"), into: "Sav".into() })
            .bare(Stmt::ReadItem { item: ItemRef::plain("ch"), into: "Ch".into() })
            .bare(Stmt::If {
                guard: parse_pred(":Sav + :Ch >= @w").expect("parses"),
                then_branch: vec![AStmt::bare(Stmt::WriteItem {
                    item: ItemRef::plain("sav"),
                    value: Expr::local("Sav").sub(Expr::param("w")),
                })],
                else_branch: vec![],
            })
            .build()
    }

    #[test]
    fn withdraw_has_two_paths() {
        let paths = summarize(&withdraw(), SymOptions::default());
        assert_eq!(paths.len(), 2);
        let writing: Vec<_> = paths.iter().filter(|p| !p.is_read_only()).collect();
        assert_eq!(writing.len(), 1);
        let w = writing[0];
        // net effect: sav := sav - w under condition sav + ch >= w
        assert_eq!(w.assign.pairs.len(), 1);
        assert_eq!(w.assign.pairs[0].0, Var::db("sav"));
        assert_eq!(w.assign.pairs[0].1, Expr::db("sav").sub(Expr::param("w")));
        let cond = w.condition.to_string();
        assert!(cond.contains("sav"), "path condition mentions entry state: {cond}");
    }

    #[test]
    fn sequential_writes_compose() {
        // x := x + 1; y := x (sees updated x); x := x + 1 again
        let p = ProgramBuilder::new("T")
            .bare(Stmt::WriteItem {
                item: ItemRef::plain("x"),
                value: Expr::db("x").add(Expr::int(1)),
            })
            .bare(Stmt::ReadItem { item: ItemRef::plain("x"), into: "X".into() })
            .bare(Stmt::WriteItem { item: ItemRef::plain("y"), value: Expr::local("X") })
            .bare(Stmt::WriteItem {
                item: ItemRef::plain("x"),
                value: Expr::db("x").add(Expr::int(1)),
            })
            .build();
        let paths = summarize(&p, SymOptions::default());
        assert_eq!(paths.len(), 1);
        let a = &paths[0].assign;
        let x = a.pairs.iter().find(|(v, _)| v == &Var::db("x")).expect("x written");
        let y = a.pairs.iter().find(|(v, _)| v == &Var::db("y")).expect("y written");
        // x := (x+1)+1, y := x+1 — all over the ENTRY value of x.
        assert_eq!(x.1, Expr::db("x").add(Expr::int(1)).add(Expr::int(1)));
        assert_eq!(y.1, Expr::db("x").add(Expr::int(1)));
    }

    #[test]
    fn select_count_is_skolemized_nonnegative() {
        let p = ProgramBuilder::new("T")
            .bare(Stmt::SelectCount {
                table: "orders".into(),
                filter: RowPred::True,
                into: "n".into(),
            })
            .bare(Stmt::WriteItem { item: ItemRef::plain("x"), value: Expr::local("n") })
            .build();
        let paths = summarize(&p, SymOptions::default());
        assert_eq!(paths.len(), 1);
        let cond = paths[0].condition.to_string();
        assert!(cond.contains(">= 0"), "count skolem is constrained: {cond}");
        // x's new value is the skolem, not a local
        let (_, e) = &paths[0].assign.pairs[0];
        assert!(matches!(e, Expr::Var(Var::Logical(_))));
    }

    #[test]
    fn loop_produces_havoc_fallback() {
        let p = ProgramBuilder::new("T")
            .bare(Stmt::LocalAssign { local: "i".into(), value: Expr::int(0) })
            .bare(Stmt::While {
                guard: parse_pred(":i < @n").expect("parses"),
                body: vec![
                    AStmt::bare(Stmt::WriteItem {
                        item: ItemRef::plain("x"),
                        value: Expr::db("x").add(Expr::int(1)),
                    }),
                    AStmt::bare(Stmt::LocalAssign {
                        local: "i".into(),
                        value: Expr::local("i").add(Expr::int(1)),
                    }),
                ],
            })
            .build();
        let paths = summarize(&p, SymOptions::default());
        // zero, one, two iterations + havoc fallback
        assert!(paths.len() >= 4, "got {}", paths.len());
        assert!(paths.iter().any(|p| !p.havoc_items.is_empty()), "havoc fallback present");
        // must_write is empty: the zero-iteration path writes nothing
        assert!(must_write_items(&paths).is_empty());
    }

    #[test]
    fn relational_effects_substituted() {
        let p = ProgramBuilder::new("T")
            .bare(Stmt::ReadItem { item: ItemRef::plain("maxdate"), into: "m".into() })
            .bare(Stmt::Insert {
                table: "orders".into(),
                values: vec![
                    RowExpr::Outer(Expr::param("info")),
                    RowExpr::Outer(Expr::local("m").add(Expr::int(1))),
                ],
            })
            .build();
        let paths = summarize(&p, SymOptions::default());
        assert_eq!(paths.len(), 1);
        match &paths[0].effects[0] {
            RelEffect::Insert { values, .. } => {
                // :m was replaced by the entry value of maxdate
                assert_eq!(values[1], RowExpr::Outer(Expr::db("maxdate").add(Expr::int(1))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn must_write_intersection() {
        let paths = summarize(&withdraw(), SymOptions::default());
        // One path writes sav, the other writes nothing.
        assert!(must_write_items(&paths).is_empty());
        // A program with an unconditional write:
        let p = ProgramBuilder::new("T")
            .bare(Stmt::WriteItem { item: ItemRef::plain("sav"), value: Expr::int(1) })
            .build();
        let paths = summarize(&p, SymOptions::default());
        assert_eq!(must_write_items(&paths).into_iter().collect::<Vec<_>>(), vec!["sav"]);
    }

    #[test]
    fn rename_params_keeps_db_vars() {
        let paths = summarize(&withdraw(), SymOptions::default());
        let w = paths.iter().find(|p| !p.is_read_only()).expect("write path");
        let r = w.rename_params("j$");
        assert_eq!(r.assign.pairs[0].1, Expr::db("sav").sub(Expr::param("j$w")));
        assert!(r.condition.to_string().contains("@j$w"));
        assert!(r.condition.to_string().contains("sav"));
    }

    #[test]
    fn adjacent_updates_merge_with_field_composition() {
        // Hours: hrs := .hrs + @h, then sal := .rate * (.hrs …) — where the
        // second statement's Field(hrs) must see the updated value.
        let filter = RowPred::field_eq_outer("name", Expr::param("emp"));
        let p = ProgramBuilder::new("Hours")
            .param_int("h")
            .bare(Stmt::Update {
                table: "emp".into(),
                filter: filter.clone(),
                sets: vec![(
                    "hrs".into(),
                    RowExpr::field("hrs").add(RowExpr::Outer(Expr::param("h"))),
                )],
            })
            .bare(Stmt::Update {
                table: "emp".into(),
                filter: filter.clone(),
                sets: vec![("sal".into(), RowExpr::Outer(Expr::int(0)).add(RowExpr::field("hrs")))],
            })
            .build();
        let paths = summarize(&p, SymOptions::default());
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].effects.len(), 1, "updates merged");
        match &paths[0].effects[0] {
            RelEffect::Update { sets, .. } => {
                assert_eq!(sets.len(), 2);
                let sal = sets.iter().find(|(c, _)| c == "sal").expect("sal set");
                // Field(hrs) resolved to hrs + h
                assert_eq!(
                    sal.1,
                    RowExpr::Outer(Expr::int(0))
                        .add(RowExpr::field("hrs").add(RowExpr::Outer(Expr::param("h"))))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn non_matching_updates_do_not_merge() {
        let p = ProgramBuilder::new("T")
            .bare(Stmt::Update {
                table: "a".into(),
                filter: RowPred::True,
                sets: vec![("x".into(), RowExpr::Int(1))],
            })
            .bare(Stmt::Update {
                table: "b".into(),
                filter: RowPred::True,
                sets: vec![("x".into(), RowExpr::Int(2))],
            })
            .build();
        let paths = summarize(&p, SymOptions::default());
        assert_eq!(paths[0].effects.len(), 2);
    }

    #[test]
    fn path_explosion_collapses_to_havoc() {
        let mut b = ProgramBuilder::new("T");
        for i in 0..10 {
            b = b.bare(Stmt::If {
                guard: parse_pred(&format!("@p{i} = 1")).expect("parses"),
                then_branch: vec![AStmt::bare(Stmt::WriteItem {
                    item: ItemRef::plain("x"),
                    value: Expr::int(i),
                })],
                else_branch: vec![],
            });
        }
        let p = b.build();
        let paths =
            summarize(&p, SymOptions { loop_unroll: 2, max_paths: 64, ..SymOptions::default() });
        assert_eq!(paths.len(), 1, "collapsed");
        assert_eq!(paths[0].havoc_items, vec![Var::db("x")]);
    }
}
