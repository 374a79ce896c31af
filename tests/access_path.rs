//! The relational access path under the Section 6 order-processing
//! application: what it may not change, and what it must.
//!
//! **Results are the parent's.** 2,000 seeded, single-threaded requests at
//! `RU RC RC RR SER` through `run_program`, on the 1/1 and the 32/32 engine
//! layout. The digest constant was recorded at commit `1a39d28`, before
//! `Table::rows_matching` and the per-column equality index existed: an
//! access path may change which cells a statement examines, never which
//! rows it returns, locks or writes, so the committed state must not move.
//!
//! **Rows examined.** On a 1,000-row `orders` a statement that names a
//! customer or a delivery date reads the cells that hold it, not the table
//! (ROADMAP item 5's success test, as an exact count at one client).

use semcc::engine::{committed_digest, Engine, EngineConfig, EngineTuning, IsolationLevel};
use semcc::logic::hash::fnv1a;
use semcc::storage::Value;
use semcc::txn::interp::{run_program, RunOutcome};
use semcc::txn::Bindings;
use semcc::workloads::orders;
use std::sync::Arc;

const DAYS: u64 = 32;
const REQUESTS: usize = 2_000;
const SEED: u64 = 0x5eed_0023;

/// FNV-1a of `committed_digest` after the run, and the `orders` rows it
/// must hold.
const GOLDEN_DIGEST: u64 = 0x9fbb_5b53_d704_2af1;
const GOLDEN_ORDERS_ROWS: usize = 403;

const LEVELS: [IsolationLevel; 5] = [
    IsolationLevel::ReadUncommitted,
    IsolationLevel::ReadCommitted,
    IsolationLevel::ReadCommitted,
    IsolationLevel::RepeatableRead,
    IsolationLevel::Serializable,
];

/// splitmix64: the test owns its generator so the request stream cannot
/// move with the vendored `rand`.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

/// `(program index, bindings)` per request: types uniform; a `New_Order`
/// names a known customer four times in five and a fresh one otherwise.
fn requests() -> Vec<(usize, Bindings)> {
    let mut rng = Rng(SEED);
    let mut customers: Vec<String> = (1..=DAYS).map(|d| format!("cust{d}")).collect();
    (0..REQUESTS)
        .map(|_| {
            let ty = rng.below(5) as usize;
            let bindings = match ty {
                2 => {
                    let customer = if rng.below(5) > 0 {
                        customers[rng.below(customers.len() as u64) as usize].clone()
                    } else {
                        let fresh = format!("new{}", customers.len());
                        customers.push(fresh.clone());
                        fresh
                    };
                    Bindings::new()
                        .set("address", format!("addr_of_{customer}"))
                        .set("customer", customer)
                        .set("info", (10_000 + rng.below(1_000_000)) as i64)
                }
                3 => Bindings::new().set("today", 1 + rng.below(DAYS) as i64),
                4 => Bindings::new().set("customer", format!("cust{}", 1 + rng.below(DAYS))),
                _ => Bindings::new(),
            };
            (ty, bindings)
        })
        .collect()
}

fn run(tuning: EngineTuning) -> (u64, usize) {
    let config = EngineConfig { record_history: false, ..EngineConfig::default() };
    let engine = Arc::new(Engine::with_tuning(config, tuning));
    orders::setup(&engine, DAYS as i64);
    let programs = orders::app(false).programs;
    for (k, (ty, bindings)) in requests().iter().enumerate() {
        run_program(&engine, &programs[*ty], LEVELS[*ty], bindings)
            .unwrap_or_else(|e| panic!("request {k} ({}) failed: {e}", programs[*ty].name));
    }
    assert!(orders::integrity_violations(&engine, false).is_empty(), "orders invariants hold");
    let rows = engine.peek_table("orders").expect("orders table").len();
    (fnv1a(committed_digest(&engine).as_bytes()), rows)
}

#[test]
fn committed_state_is_the_parents_on_both_engine_layouts() {
    for (layout, tuning) in [("1/1", EngineTuning::default()), ("32/32", EngineTuning::server())] {
        let (digest, rows) = run(tuning);
        assert_eq!(
            (format!("{digest:016x}"), rows),
            (format!("{GOLDEN_DIGEST:016x}"), GOLDEN_ORDERS_ROWS),
            "{layout} engine: committed state differs from the recorded parent's"
        );
    }
}

#[test]
fn statements_examine_the_cells_that_match_not_the_table() {
    const ROWS: i64 = 1_000;
    for tuning in [EngineTuning::default(), EngineTuning::server()] {
        let config = EngineConfig { record_history: false, ..EngineConfig::default() };
        let engine = Arc::new(Engine::with_tuning(config, tuning));
        orders::setup(&engine, ROWS);
        let programs = orders::app(false).programs;
        let run = |ty: usize, bindings: Bindings| -> RunOutcome {
            run_program(&engine, &programs[ty], LEVELS[ty], &bindings)
                .unwrap_or_else(|e| panic!("{} failed: {e}", programs[ty].name))
        };
        let table = |name: &str| engine.store().table(name).expect("table");
        let examined = || table("orders").rows_examined() + table("cust").rows_examined();
        let local = |out: &RunOutcome, name: &str| out.locals[name].as_int().expect("int");
        let new_order = |customer: &str| {
            let b = Bindings::new().set("customer", customer.to_string()).set("info", 77);
            run(2, b.set("address", format!("addr_of_{customer}")))
        };

        // Warm the three columns the traffic queries by.
        run(3, Bindings::new().set("today", 1));
        run(4, Bindings::new().set("customer", "cust1"));
        assert_eq!(table("orders").indexed_columns(), vec!["cust_name", "deliv_date"]);
        assert_eq!(table("cust").indexed_columns(), vec!["cust_name"]);

        // Delivery: the SELECT and the UPDATE each find day 500's one order.
        let before = examined();
        let out = run(3, Bindings::new().set("today", 500));
        let matches = 2 * out.buffers["buff"].len() as u64;
        assert_eq!(matches, 2);
        assert!(examined() - before <= matches + 8, "Delivery examined {}", examined() - before);

        // New_Order for a known customer: its orders, then its `cust` row.
        let before = examined();
        let matches = local(&new_order("cust7"), "custcount") as u64 + 1;
        assert_eq!(matches, 2);
        assert!(examined() - before <= matches + 8, "New_Order examined {}", examined() - before);
        // ... and for a new one: nothing to find, two rows to insert.
        let before = examined();
        assert_eq!(local(&new_order("newcomer"), "custcount"), 0);
        assert!(examined() - before <= 8, "New_Order examined {}", examined() - before);

        // Audit: cust7's two orders and its `cust` row.
        let before = examined();
        let out = run(4, Bindings::new().set("customer", "cust7"));
        assert_eq!((local(&out, "count1"), out.locals["retv"].clone()), (2, Value::Int(0)));
        assert!(examined() - before <= 3 + 8, "Audit examined {}", examined() - before);

        // Mailing_List must return every customer: each cell exactly once.
        let before = examined();
        let out = run(0, Bindings::new());
        assert_eq!(out.buffers["labels"].len() as i64, ROWS + 1);
        assert_eq!(examined() - before, ROWS as u64 + 1);
    }
}
