//! Obligation accounting — the paper's analysis-cost reduction claim.
//!
//! Section 2: a naive Owicki–Gries treatment of `K` transaction types with
//! `N` operations each must check `(K·N)²` triples; taking the locking
//! discipline into account shrinks this dramatically — for SNAPSHOT only
//! `K²` pair checks remain, independent of `N`. This module measures the
//! actual obligation counts our analyzer enumerates per level (Table T1 of
//! the reproduction).

use crate::app::App;
use crate::interfere::Analyzer;
use crate::theorems::check_with;
use semcc_engine::IsolationLevel;
use semcc_txn::symexec::SymOptions;
use std::collections::BTreeSet;

/// Obligation counts for one application at one level.
#[derive(Clone, Debug)]
pub struct LevelCount {
    /// Isolation level.
    pub level: IsolationLevel,
    /// Obligations enumerated across every transaction type.
    pub obligations: usize,
    /// Prover queries issued (cache misses only).
    pub prover_calls: usize,
    /// Queries answered by the analyzer's memo cache instead of the
    /// prover — repeated triples across types at the same level.
    pub cache_hits: usize,
}

/// The full cost table for an application.
#[derive(Clone, Debug)]
pub struct CostTable {
    /// Number of transaction types (the paper's `K`).
    pub k: usize,
    /// Total statements across all types (`Σ Nᵢ`).
    pub total_stmts: usize,
    /// The naive `(Σ Nᵢ)²` triple count of an unstructured Owicki–Gries
    /// proof (the paper's `(K·N)²` with uniform `N`).
    pub naive_triples: usize,
    /// Per-level measured counts.
    pub per_level: Vec<LevelCount>,
}

/// Compute the cost table: run every theorem for every transaction type
/// and total the enumerated obligations. One [`Analyzer`] (and hence one
/// memo cache) is shared per level, so `prover_calls` is the *distinct*
/// query count and `cache_hits` the repetition the cache absorbed.
pub fn cost_table(app: &App) -> CostTable {
    let k = app.programs.len();
    let total_stmts: usize = app.programs.iter().map(|p| p.stmt_count()).sum();
    let per_level = IsolationLevel::ALL
        .into_iter()
        .map(|level| {
            let analyzer = Analyzer::new(app);
            let mut obligations = 0;
            let mut prover_calls = 0;
            let mut cache_hits = 0;
            for p in &app.programs {
                let r = check_with(
                    &analyzer,
                    app,
                    &p.name,
                    level,
                    SymOptions::default(),
                    &BTreeSet::new(),
                );
                obligations += r.obligations;
                prover_calls += r.prover_calls;
                cache_hits += r.cache_hits;
            }
            LevelCount { level, obligations, prover_calls, cache_hits }
        })
        .collect();
    CostTable { k, total_stmts, naive_triples: total_stmts * total_stmts, per_level }
}

impl CostTable {
    /// The count for one level.
    pub fn at(&self, level: IsolationLevel) -> Option<&LevelCount> {
        self.per_level.iter().find(|c| c.level == level)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_logic::{Expr, Pred};
    use semcc_txn::stmt::{ItemRef, Stmt};
    use semcc_txn::ProgramBuilder;

    fn tiny_app(k: usize) -> App {
        let mut app = App::new();
        for t in 0..k {
            app = app.with_program(
                ProgramBuilder::new(format!("T{t}"))
                    .stmt(
                        Stmt::ReadItem { item: ItemRef::plain(format!("x{t}")), into: "V".into() },
                        Pred::True,
                        Pred::ge(Expr::db(format!("x{t}")), 0),
                    )
                    .stmt(
                        Stmt::WriteItem {
                            item: ItemRef::plain(format!("x{t}")),
                            value: Expr::local("V").add(Expr::int(1)),
                        },
                        Pred::ge(Expr::local("V"), 0),
                        Pred::True,
                    )
                    .build(),
            );
        }
        app
    }

    #[test]
    fn naive_is_quadratic_and_ser_is_zero() {
        let t = cost_table(&tiny_app(3));
        assert_eq!(t.k, 3);
        assert_eq!(t.total_stmts, 6);
        assert_eq!(t.naive_triples, 36);
        assert_eq!(t.at(IsolationLevel::Serializable).expect("ser").obligations, 0);
        assert_eq!(t.at(IsolationLevel::RepeatableRead).expect("rr").obligations, 0);
        assert!(t.at(IsolationLevel::ReadUncommitted).expect("ru").obligations > 0);
    }

    #[test]
    fn cache_absorbs_repeated_queries_across_types() {
        // Identical twin types issue identical interference queries; the
        // shared per-level memo cache must answer the repeats without new
        // prover calls.
        let mut app = App::new();
        for name in ["Twin_A", "Twin_B"] {
            app = app.with_program(
                ProgramBuilder::new(name)
                    .stmt(
                        Stmt::ReadItem { item: ItemRef::plain("x"), into: "V".into() },
                        Pred::ge(Expr::db("x"), 0),
                        Pred::and([Pred::ge(Expr::db("x"), 0), Pred::ge(Expr::local("V"), 0)]),
                    )
                    .stmt(
                        Stmt::WriteItem {
                            item: ItemRef::plain("x"),
                            value: Expr::local("V").add(Expr::int(1)),
                        },
                        Pred::and([Pred::ge(Expr::db("x"), 0), Pred::ge(Expr::local("V"), 0)]),
                        Pred::ge(Expr::db("x"), 0),
                    )
                    .build(),
            );
        }
        let t = cost_table(&app);
        let ru = t.at(IsolationLevel::ReadUncommitted).expect("ru");
        assert!(ru.cache_hits > 0, "twin types must share query results: {ru:?}");
    }

    #[test]
    fn snapshot_count_is_quadratic_in_k() {
        // Theorem 5 enumerates per ordered pair: 1 intersection check, plus
        // 2 assertion checks (read-step post, Q) when write sets do not
        // intersect. For K independent single-item types: self-pairs
        // intersect, cross-pairs do not ⇒ K + 3·K·(K−1) obligations —
        // quadratic in K and independent of statement count.
        for k in [2usize, 3, 4, 6] {
            let c =
                cost_table(&tiny_app(k)).at(IsolationLevel::Snapshot).expect("snap").obligations;
            assert_eq!(c, k + 3 * k * (k - 1), "K = {k}");
        }
    }
}
