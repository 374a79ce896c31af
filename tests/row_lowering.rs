//! The engine's row evaluator against the analyzer's lowering.
//!
//! Theorem 6's phantom test lowers a WHERE clause and an UPDATE's SET or an
//! INSERT's VALUES onto the same `?row$c` skolems and asks the prover
//! whether one row satisfies both. That is only sound if the lowering means
//! what the engine computes. Seeded random row terms and row predicates
//! over a three-column schema (two int columns, one string column) are
//! evaluated both ways:
//!
//! * a term's engine value equals `Expr::eval` of its lowering, each
//!   `?row$c` bound to the row's value in `c` (string values lower to no
//!   integer on both sides);
//! * a predicate's engine verdict equals `eval_pred` of its lowering under
//!   the same environment, except that an ordered string comparison lowers
//!   to `true`, so where one occurs only engine-true ⇒ lowered-true is
//!   required.

use semcc::logic::row::{RowExpr, RowPred, FIELD_SKOLEM_PREFIX};
use semcc::logic::{CmpOp, Expr, Var};
use semcc::storage::eval::{eval_row_expr, eval_row_pred};
use semcc::storage::{Row, Schema, Value};
use semcc::txn::evalpred::eval_pred;

const SEED: u64 = 0x5eed_0040;
const CASES: usize = 4_000;

const INT_COLUMNS: [&str; 2] = ["a", "b"];
const STRINGS: [&str; 3] = ["x", "y", "z"];
const OPS: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// splitmix64: the test owns its generator so the cases cannot move with
/// the vendored `rand`.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }

    fn small(&mut self) -> i64 {
        self.below(11) as i64 - 5
    }

    fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len() as u64) as usize]
    }
}

fn schema() -> Schema {
    Schema::new("t", &["a", "b", "s"], &["a"])
}

/// An outer scalar over the int parameters `p` and `q`; one in ten names
/// the unbound `u`, so both sides must agree on "no value" too.
fn outer(rng: &mut Rng) -> Expr {
    match rng.below(10) {
        0 => Expr::param("u"),
        1..=3 => Expr::param("p"),
        4..=5 => Expr::param("q"),
        6..=7 => Expr::param("p").add(Expr::int(rng.small())),
        _ => Expr::param("q").mul(Expr::int(rng.small())),
    }
}

/// An int-typed row term of depth at most `depth`.
fn int_term(rng: &mut Rng, depth: u32) -> RowExpr {
    let arms = if depth == 0 { 3 } else { 6 };
    match rng.below(arms) {
        0 => RowExpr::Int(rng.small()),
        1 => RowExpr::field(rng.pick(&INT_COLUMNS)),
        2 => RowExpr::Outer(outer(rng)),
        3 => int_term(rng, depth - 1).add(int_term(rng, depth - 1)),
        4 => int_term(rng, depth - 1).sub(int_term(rng, depth - 1)),
        _ => int_term(rng, depth - 1).mul(int_term(rng, depth - 1)),
    }
}

/// A string-valued row term: a literal, the string column, or the string
/// parameter `t`.
fn str_term(rng: &mut Rng) -> RowExpr {
    match rng.below(3) {
        0 => RowExpr::Str(rng.pick(&STRINGS).to_string()),
        1 => RowExpr::field("s"),
        _ => RowExpr::Outer(Expr::param("t")),
    }
}

/// Any row term; one in five is string-valued, some of those under
/// arithmetic, where neither side may produce an integer.
fn any_term(rng: &mut Rng) -> RowExpr {
    match rng.below(10) {
        0 => str_term(rng),
        1 => str_term(rng).add(int_term(rng, 1)),
        _ => int_term(rng, 3),
    }
}

/// A row predicate of depth at most `depth`. String comparisons put a
/// literal on one side, so the lowering sees a string comparison.
fn pred(rng: &mut Rng, depth: u32) -> RowPred {
    let arms = if depth == 0 { 4 } else { 7 };
    match rng.below(arms) {
        0 => [RowPred::True, RowPred::False][rng.below(2) as usize].clone(),
        1 | 2 => RowPred::cmp(rng.pick(&OPS), int_term(rng, 2), int_term(rng, 2)),
        3 => {
            // Equalities three times in four, so most string atoms lower
            // exactly.
            let op = if rng.below(4) > 0 { rng.pick(&OPS[..2]) } else { rng.pick(&OPS[2..]) };
            let lit = RowExpr::Str(rng.pick(&STRINGS).to_string());
            let term = str_term(rng);
            if rng.below(2) == 0 {
                RowPred::cmp(op, term, lit)
            } else {
                RowPred::cmp(op, lit, term)
            }
        }
        4 => RowPred::not(pred(rng, depth - 1)),
        5 => RowPred::And((0..2 + rng.below(2)).map(|_| pred(rng, depth - 1)).collect()),
        _ => RowPred::Or((0..2 + rng.below(2)).map(|_| pred(rng, depth - 1)).collect()),
    }
}

/// Whether the predicate holds an ordered comparison with a string side.
fn has_ordered_string_cmp(p: &RowPred) -> bool {
    match p {
        RowPred::True | RowPred::False => false,
        RowPred::Cmp(op, a, b) => {
            !matches!(op, CmpOp::Eq | CmpOp::Ne) && (a.is_stringy() || b.is_stringy())
        }
        RowPred::Not(q) => has_ordered_string_cmp(q),
        RowPred::And(ps) | RowPred::Or(ps) => ps.iter().any(has_ordered_string_cmp),
    }
}

/// One drawn row and parameter binding.
struct World {
    row: Row,
    p: i64,
    q: i64,
    t: &'static str,
}

impl World {
    fn draw(rng: &mut Rng) -> Self {
        let row =
            vec![Value::Int(rng.small()), Value::Int(rng.small()), Value::str(rng.pick(&STRINGS))];
        World { row, p: rng.small(), q: rng.small(), t: rng.pick(&STRINGS) }
    }

    /// The transaction's parameters, as the engine sees them.
    fn param(&self, v: &Var) -> Option<Value> {
        match v {
            Var::Param(n) if n == "p" => Some(Value::Int(self.p)),
            Var::Param(n) if n == "q" => Some(Value::Int(self.q)),
            Var::Param(n) if n == "t" => Some(Value::str(self.t)),
            _ => None,
        }
    }

    /// The parameters plus each `?row$c` skolem bound to the row's `c`.
    fn lowered(&self, v: &Var) -> Option<Value> {
        if let Var::Logical(n) = v {
            let column = n.strip_prefix(FIELD_SKOLEM_PREFIX)?;
            let idx = schema().column_index(column).ok()?;
            return self.row.get(idx).cloned();
        }
        self.param(v)
    }
}

#[test]
fn term_evaluation_matches_the_lowering() {
    let schema = schema();
    let mut rng = Rng(SEED);
    let (mut ints, mut strings) = (0, 0);
    for case in 0..CASES {
        let e = any_term(&mut rng);
        let w = World::draw(&mut rng);
        let env = |v: &Var| w.param(v);
        let engine = eval_row_expr(&schema, Some(&w.row), &e, &env);
        let int_env = |v: &Var| w.lowered(v).and_then(|x| x.as_int());
        let lowered = e.to_scalar().and_then(|x| x.eval(&int_env));
        assert_eq!(
            engine.as_ref().and_then(Value::as_int),
            lowered,
            "case {case}: {e} on {:?} (p={}, q={}, t={})",
            w.row,
            w.p,
            w.q,
            w.t
        );
        match engine {
            Some(Value::Int(_)) => ints += 1,
            Some(Value::Str(_)) => strings += 1,
            _ => {}
        }
        // Without a row (INSERT VALUES), a term that reads a column has no
        // value and any other term keeps its value.
        let mut columns = Vec::new();
        e.collect_columns(&mut columns);
        let rowless = eval_row_expr(&schema, None, &e, &env);
        if columns.is_empty() {
            assert_eq!(rowless, eval_row_expr(&schema, Some(&w.row), &e, &env), "case {case}: {e}");
        } else {
            assert_eq!(rowless, None, "case {case}: {e}");
        }
    }
    // The draw must reach both value kinds, not just "no value".
    assert!(ints > CASES / 4 && strings > CASES / 50, "ints {ints}, strings {strings}");
}

#[test]
fn predicate_evaluation_matches_the_lowering() {
    let schema = schema();
    let mut rng = Rng(SEED ^ 0xface);
    let (mut exact, mut weak, mut trues, mut falses) = (0, 0, 0, 0);
    for case in 0..CASES {
        let p = pred(&mut rng, 3);
        let w = World::draw(&mut rng);
        let env = |v: &Var| w.param(v);
        let engine = eval_row_pred(&schema, &w.row, &p, &env);
        let lowered_env = |v: &Var| w.lowered(v);
        let lowered = eval_pred(&p.to_scalar(), &lowered_env, &|_| None);
        let why = || format!("case {case}: {p} on {:?} (p={}, q={}, t={})", w.row, w.p, w.q, w.t);
        if has_ordered_string_cmp(&p) {
            weak += 1;
            if engine == Some(true) {
                assert_eq!(lowered, Some(true), "{}", why());
            }
        } else {
            exact += 1;
            assert_eq!(engine, lowered, "{}", why());
        }
        match engine {
            Some(true) => trues += 1,
            Some(false) => falses += 1,
            None => {}
        }
    }
    assert!(exact > CASES / 2 && weak > 0, "exact {exact}, weak {weak}");
    assert!(trues > CASES / 10 && falses > CASES / 10, "true {trues}, false {falses}");
}
