//! Statement-level effects and rollback compensation.
//!
//! Theorem 1 (READ UNCOMMITTED) quantifies over "each write statement
//! (including those that rollback a transaction)". This module extracts
//! every write statement of a program as a standalone [`PathSummary`]
//! effect — with the writer's locals and parameters renamed apart — and
//! synthesizes the *compensating* effects a rollback would perform:
//!
//! | forward write | compensator |
//! |---------------|-------------|
//! | `x := e`      | `x := ?old` (havoc: the restored value is untracked) |
//! | `INSERT row`  | `DELETE` of exactly that row (point predicate) |
//! | `UPDATE f SET c…` | `UPDATE f SET c := ?old…` (same region/columns, untracked values) |
//! | `DELETE f`    | `INSERT` of an untracked row |

use semcc_logic::row::{RowExpr, RowPred};
use semcc_logic::transform::{Assign, FreshVars};
use semcc_logic::{CmpOp, Expr, Pred, Var};
use semcc_txn::stmt::Stmt;
use semcc_txn::{PathSummary, Program, RelEffect};

/// A named statement-level effect (for reporting).
#[derive(Clone, Debug)]
pub struct StmtEffect {
    /// Human-readable description, e.g. `New_Order: INSERT orders (rollback)`.
    pub description: String,
    /// The effect.
    pub summary: PathSummary,
}

/// Prefix used to rename a writer's variables apart from the reader's.
pub const WRITER_PREFIX: &str = "w$";

/// Extract every forward write statement of `program` as an effect, with
/// the statement's annotated precondition as the effect context.
pub fn forward_write_effects(program: &Program) -> Vec<StmtEffect> {
    let mut out = Vec::new();
    for astmt in program.write_stmts() {
        let summary = match &astmt.stmt {
            Stmt::WriteItem { item, value } => PathSummary {
                condition: astmt.pre.clone(),
                assign: Assign::single(Var::db(item.base.clone()), value.clone()),
                havoc_items: vec![],
                effects: vec![],
                reads: Default::default(),
            },
            Stmt::WriteItemMax { item, value } => {
                // x := max(x, e): a fresh skolem bounded below by the old
                // value and the floor (same shape the symbolic executor
                // produces for the monotone write).
                let m = FreshVars::fresh(&format!("max_{}", item.base));
                PathSummary {
                    condition: Pred::and([
                        astmt.pre.clone(),
                        Pred::ge(Expr::Var(m.clone()), Expr::db(item.base.clone())),
                        Pred::ge(Expr::Var(m.clone()), value.clone()),
                    ]),
                    assign: Assign::single(Var::db(item.base.clone()), Expr::Var(m)),
                    havoc_items: vec![],
                    effects: vec![],
                    reads: Default::default(),
                }
            }
            Stmt::Update { table, filter, sets } => PathSummary {
                condition: astmt.pre.clone(),
                assign: Assign::skip(),
                havoc_items: vec![],
                effects: vec![RelEffect::Update {
                    table: table.clone(),
                    filter: filter.clone(),
                    sets: sets.clone(),
                }],
                reads: Default::default(),
            },
            Stmt::Insert { table, values } => PathSummary {
                condition: astmt.pre.clone(),
                assign: Assign::skip(),
                havoc_items: vec![],
                effects: vec![RelEffect::Insert { table: table.clone(), values: values.clone() }],
                reads: Default::default(),
            },
            Stmt::Delete { table, filter } => PathSummary {
                condition: astmt.pre.clone(),
                assign: Assign::skip(),
                havoc_items: vec![],
                effects: vec![RelEffect::Delete { table: table.clone(), filter: filter.clone() }],
                reads: Default::default(),
            },
            _ => continue,
        };
        out.push(StmtEffect {
            description: format!("{}: {}", program.name, describe(&astmt.stmt)),
            summary: summary.rename_all(WRITER_PREFIX),
        });
    }
    out
}

/// Synthesize the compensating (rollback) effects of `program`.
///
/// Compensators run in an arbitrary state (a transaction can be rolled
/// back at any point), so their context is `true` — maximal conservatism.
pub fn rollback_effects(
    program: &Program,
    schemas: &std::collections::BTreeMap<String, Vec<String>>,
) -> Vec<StmtEffect> {
    let mut out = Vec::new();
    for astmt in program.write_stmts() {
        let summary = match &astmt.stmt {
            Stmt::WriteItem { item, .. } | Stmt::WriteItemMax { item, .. } => PathSummary {
                condition: Pred::True,
                assign: Assign::skip(),
                havoc_items: vec![Var::db(item.base.clone())],
                effects: vec![],
                reads: Default::default(),
            },
            Stmt::Insert { table, values } => {
                // Delete exactly the inserted row.
                let filter = match schemas.get(table) {
                    Some(cols) if cols.len() == values.len() => {
                        RowPred::and(cols.iter().zip(values).map(|(c, v)| point_eq(c, v)))
                    }
                    _ => RowPred::True, // unknown schema: whole-table delete
                };
                PathSummary {
                    condition: Pred::True,
                    assign: Assign::skip(),
                    havoc_items: vec![],
                    effects: vec![RelEffect::Delete { table: table.clone(), filter }],
                    reads: Default::default(),
                }
            }
            Stmt::Update { table, filter, sets } => PathSummary {
                condition: Pred::True,
                assign: Assign::skip(),
                havoc_items: vec![],
                effects: vec![RelEffect::Update {
                    table: table.clone(),
                    filter: filter.clone(),
                    sets: sets
                        .iter()
                        .map(|(c, _)| {
                            (
                                c.clone(),
                                RowExpr::Outer(Expr::Var(FreshVars::fresh(&format!("undo_{c}")))),
                            )
                        })
                        .collect(),
                }],
                reads: Default::default(),
            },
            Stmt::Delete { table, .. } => {
                let values = match schemas.get(table) {
                    Some(cols) => cols
                        .iter()
                        .map(|c| RowExpr::Outer(Expr::Var(FreshVars::fresh(&format!("undel_{c}")))))
                        .collect(),
                    None => vec![],
                };
                PathSummary {
                    condition: Pred::True,
                    assign: Assign::skip(),
                    havoc_items: vec![],
                    effects: vec![RelEffect::Insert { table: table.clone(), values }],
                    reads: Default::default(),
                }
            }
            _ => continue,
        };
        out.push(StmtEffect {
            description: format!("{}: {} (rollback)", program.name, describe(&astmt.stmt)),
            summary: summary.rename_all(WRITER_PREFIX),
        });
    }
    out
}

/// `column = value` as a row predicate (compensating delete's point filter).
fn point_eq(col: &str, v: &RowExpr) -> RowPred {
    let rhs = match v {
        RowExpr::Int(_) | RowExpr::Str(_) | RowExpr::Outer(_) => v.clone(),
        // Field refs are meaningless in INSERT values; arithmetic lowers
        // to an outer scalar when possible.
        other => match other.to_scalar() {
            Some(e) => RowExpr::Outer(e),
            None => return RowPred::True,
        },
    };
    RowPred::Cmp(CmpOp::Eq, RowExpr::field(col), rhs)
}

fn describe(stmt: &Stmt) -> String {
    match stmt {
        Stmt::WriteItem { item, .. } => format!("write {item}"),
        Stmt::WriteItemMax { item, .. } => format!("write-max {item}"),
        Stmt::Update { table, .. } => format!("UPDATE {table}"),
        Stmt::Insert { table, .. } => format!("INSERT {table}"),
        Stmt::Delete { table, .. } => format!("DELETE {table}"),
        other => format!("{other:?}"),
    }
}

/// Extension: rename every parameter *and* local apart with a prefix.
trait RenameAll {
    fn rename_all(&self, prefix: &str) -> PathSummary;
}

impl RenameAll for PathSummary {
    fn rename_all(&self, prefix: &str) -> PathSummary {
        // First rename params (provided by semcc-txn)…
        let renamed = self.rename_params(prefix);
        // …then locals, via the same substitution machinery.
        let mut collect = Vec::new();
        renamed.condition.collect_vars(&mut collect);
        for (_, e) in &renamed.assign.pairs {
            e.collect_vars(&mut collect);
        }
        for eff in &renamed.effects {
            eff.collect_outer_vars(&mut collect);
        }
        let locals: std::collections::BTreeSet<Var> =
            collect.into_iter().filter(|v| matches!(v, Var::Local(_))).collect();
        let mut s = semcc_logic::subst::Subst::new();
        for v in locals {
            if let Var::Local(name) = &v {
                s.insert(v.clone(), Expr::Var(Var::local(format!("{prefix}{name}"))));
            }
        }
        PathSummary {
            condition: s.apply_pred(&renamed.condition),
            assign: Assign {
                pairs: renamed
                    .assign
                    .pairs
                    .iter()
                    .map(|(v, e)| (v.clone(), s.apply_expr(e)))
                    .collect(),
            },
            havoc_items: renamed.havoc_items.clone(),
            effects: renamed.effects.iter().map(|eff| eff.subst(&s)).collect(),
            reads: renamed.reads.clone(),
        }
    }
}

/// Rename a unit path summary apart (params only; locals are already
/// substituted away by symbolic execution).
pub fn rename_unit(summary: &PathSummary, prefix: &str) -> PathSummary {
    summary.rename_params(prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_logic::parser::parse_pred;
    use semcc_txn::stmt::ItemRef;
    use semcc_txn::ProgramBuilder;
    use std::collections::BTreeMap;

    fn schemas() -> BTreeMap<String, Vec<String>> {
        let mut m = BTreeMap::new();
        m.insert(
            "orders".to_string(),
            vec!["info".into(), "cust".into(), "date".into(), "done".into()],
        );
        m
    }

    fn new_order_like() -> Program {
        ProgramBuilder::new("New_Order")
            .param_str("customer")
            .stmt(
                Stmt::WriteItem {
                    item: ItemRef::plain("maximum_date"),
                    value: Expr::local("maxdate").add(Expr::int(1)),
                },
                parse_pred(":maxdate <= maximum_date").expect("parses"),
                Pred::True,
            )
            .bare(Stmt::Insert {
                table: "orders".into(),
                values: vec![
                    RowExpr::Outer(Expr::param("info")),
                    RowExpr::Outer(Expr::param("customer")),
                    RowExpr::Outer(Expr::local("maxdate").add(Expr::int(1))),
                    RowExpr::Int(0),
                ],
            })
            .build()
    }

    #[test]
    fn forward_effects_renamed_apart() {
        let p = new_order_like();
        let effs = forward_write_effects(&p);
        assert_eq!(effs.len(), 2);
        // item write: locals renamed
        let w = &effs[0].summary;
        assert_eq!(w.assign.pairs.len(), 1);
        assert_eq!(w.assign.pairs[0].1, Expr::Var(Var::local("w$maxdate")).add(Expr::int(1)));
        assert!(w.condition.to_string().contains(":w$maxdate"));
        // insert: params renamed inside values
        match &effs[1].summary.effects[0] {
            RelEffect::Insert { values, .. } => {
                assert_eq!(values[1], RowExpr::Outer(Expr::Var(Var::param("w$customer"))));
                assert_eq!(
                    values[2],
                    RowExpr::Outer(Expr::Var(Var::local("w$maxdate")).add(Expr::int(1)))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rollback_of_insert_is_point_delete() {
        let p = new_order_like();
        let effs = rollback_effects(&p, &schemas());
        assert_eq!(effs.len(), 2);
        let del = effs
            .iter()
            .find(|e| e.description.contains("INSERT orders (rollback)"))
            .expect("compensator present");
        match &del.summary.effects[0] {
            RelEffect::Delete { table, filter } => {
                assert_eq!(table, "orders");
                // the point filter pins the inserted row's columns
                assert!(filter.columns().contains(&"cust".to_string()));
                assert!(filter.columns().contains(&"date".to_string()));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rollback_of_item_write_is_havoc() {
        let p = new_order_like();
        let effs = rollback_effects(&p, &schemas());
        let restore = effs
            .iter()
            .find(|e| e.description.contains("write maximum_date (rollback)"))
            .expect("compensator present");
        assert_eq!(restore.summary.havoc_items, vec![Var::db("maximum_date")]);
    }

    #[test]
    fn rollback_of_update_havocs_same_columns() {
        let p = ProgramBuilder::new("Delivery")
            .bare(Stmt::Update {
                table: "orders".into(),
                filter: RowPred::field_eq_int("date", 1),
                sets: vec![("done".into(), RowExpr::Int(1))],
            })
            .build();
        let effs = rollback_effects(&p, &schemas());
        match &effs[0].summary.effects[0] {
            RelEffect::Update { filter, sets, .. } => {
                assert_eq!(filter, &RowPred::field_eq_int("date", 1));
                assert_eq!(sets.len(), 1);
                assert_eq!(sets[0].0, "done");
                assert!(matches!(sets[0].1, RowExpr::Outer(Expr::Var(Var::Logical(_)))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rollback_of_delete_is_untracked_insert() {
        let p = ProgramBuilder::new("Purge")
            .bare(Stmt::Delete { table: "orders".into(), filter: RowPred::True })
            .build();
        let effs = rollback_effects(&p, &schemas());
        match &effs[0].summary.effects[0] {
            RelEffect::Insert { values, .. } => assert_eq!(values.len(), 4),
            other => panic!("unexpected {other:?}"),
        }
    }
}
