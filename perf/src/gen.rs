//! Input generators: every workload's whole input vector is a pure
//! function of `--seed`, materialised before any timing starts. Nothing
//! here reads engine state or a process-global counter, so the server
//! receives nothing but generated inputs.

use semcc_txn::Bindings;

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    /// A stream for `(seed, stream)`; distinct streams are independent.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is below 2⁻³² for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The banking transaction types, in `banking::app()` program order.
pub const BANK_TYPES: [&str; 4] = ["Withdraw_sav", "Withdraw_ch", "Deposit_sav", "Deposit_ch"];

/// Amounts are drawn from `1..=BANK_AMOUNTS`. The cost of a banking
/// transaction does not depend on the amount, and a small range keeps the
/// table of distinct parameter bindings small next to the engine's own
/// memory, which `peak_rss_mb` is meant to show.
pub const BANK_AMOUNTS: u64 = 8;

/// One banking request.
#[derive(Clone, Copy, Debug)]
pub struct BankOp {
    /// Index into [`BANK_TYPES`].
    pub ty: u8,
    /// Account index.
    pub acct: u32,
    /// Amount withdrawn or deposited.
    pub amount: u8,
    /// Index of this request's parameters in [`BankInputs::bindings`].
    pub binding: u32,
}

impl BankOp {
    /// Withdrawals are types 0 and 1.
    pub fn is_withdraw(self) -> bool {
        self.ty < 2
    }

    /// Whether the type's own account is the savings one.
    pub fn on_savings(self) -> bool {
        self.ty.is_multiple_of(2)
    }
}

/// A banking input vector: the requests, and every distinct parameter
/// binding they refer to (withdrawals bind `i, w`, deposits `i, d`).
pub struct BankInputs {
    /// Requests in issue order.
    pub ops: Vec<BankOp>,
    /// Distinct bindings, indexed by [`BankOp::binding`].
    pub bindings: Vec<Bindings>,
}

/// `n` banking requests, types and accounts uniform.
pub fn bank_inputs(seed: u64, accounts: u32, n: usize) -> BankInputs {
    let mut bindings = Vec::with_capacity(2 * accounts as usize * BANK_AMOUNTS as usize);
    for param in ["w", "d"] {
        for acct in 0..accounts {
            for amount in 1..=BANK_AMOUNTS {
                bindings.push(Bindings::new().set("i", i64::from(acct)).set(param, amount as i64));
            }
        }
    }
    let mut rng = Rng::new(seed, 1);
    let ops = (0..n)
        .map(|_| {
            let ty = rng.below(4) as u8;
            let acct = rng.below(u64::from(accounts)) as u32;
            let amount = rng.below(BANK_AMOUNTS) as u8 + 1;
            let deposit = u32::from(ty >= 2);
            let binding = (deposit * accounts + acct) * BANK_AMOUNTS as u32 + u32::from(amount) - 1;
            BankOp { ty, acct, amount, binding }
        })
        .collect();
    BankInputs { ops, bindings }
}

/// The order-processing transaction types, in `orders::app(false)` order.
pub const ORDERS_TYPES: [&str; 5] =
    ["Mailing_List", "Mailing_List_strict", "New_Order", "Delivery", "Audit"];

/// One order-processing request.
pub struct OrdersOp {
    /// Index into [`ORDERS_TYPES`].
    pub ty: u8,
    /// The request's parameters.
    pub bindings: Bindings,
}

/// `n` order-processing requests, types uniform, over a database seeded
/// with `days` delivery days and customers `cust1..cust<days>`.
///
/// The generator keeps its own customer set instead of peeking at the
/// engine: a `New_Order` goes to a known customer four times in five and
/// otherwise to a fresh `bc<i>`, which later requests may then name.
/// `Delivery` draws `today` from the initial days, and `Audit` names only
/// initial customers, whose `cust` row exists from the start.
pub fn orders_inputs(seed: u64, days: u64, n: usize) -> Vec<OrdersOp> {
    let mut rng = Rng::new(seed, 2);
    let mut customers: Vec<String> = (1..=days).map(|d| format!("cust{d}")).collect();
    (0..n)
        .map(|_| {
            let ty = rng.below(ORDERS_TYPES.len() as u64) as u8;
            let bindings = match ORDERS_TYPES[ty as usize] {
                "New_Order" => {
                    let customer = if rng.below(5) > 0 {
                        customers[rng.below(customers.len() as u64) as usize].clone()
                    } else {
                        let fresh = format!("bc{}", customers.len() as u64 - days);
                        customers.push(fresh.clone());
                        fresh
                    };
                    Bindings::new()
                        .set("address", format!("addr_of_{customer}"))
                        .set("customer", customer)
                        .set("info", (10_000 + rng.below(99_990_000)) as i64)
                }
                "Delivery" => Bindings::new().set("today", 1 + rng.below(days) as i64),
                "Audit" => Bindings::new().set("customer", format!("cust{}", 1 + rng.below(days))),
                _ => Bindings::new(),
            };
            OrdersOp { ty, bindings }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use semcc_storage::Value;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let key =
            |i: &BankInputs| i.ops.iter().map(|o| (o.ty, o.acct, o.amount)).collect::<Vec<_>>();
        let a = bank_inputs(42, 64, 1_000);
        assert_eq!(key(&a), key(&bank_inputs(42, 64, 1_000)));
        assert_ne!(key(&a), key(&bank_inputs(43, 64, 1_000)));
        let names = |v: &[OrdersOp]| {
            v.iter()
                .map(|o| format!("{}{:?}", o.ty, o.bindings.get("customer")))
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&orders_inputs(7, 8, 500)), names(&orders_inputs(7, 8, 500)));
        assert_ne!(names(&orders_inputs(7, 8, 500)), names(&orders_inputs(8, 8, 500)));
    }

    #[test]
    fn bank_binding_index_names_the_request_parameters() {
        let inputs = bank_inputs(1, 16, 2_000);
        for op in &inputs.ops {
            let b = &inputs.bindings[op.binding as usize];
            assert_eq!(b.get("i"), Some(&Value::Int(i64::from(op.acct))));
            let (own, other) = if op.is_withdraw() { ("w", "d") } else { ("d", "w") };
            assert_eq!(b.get(own), Some(&Value::Int(i64::from(op.amount))));
            assert_eq!(b.get(other), None);
            assert!((1..=BANK_AMOUNTS as u8).contains(&op.amount) && op.acct < 16);
        }
        let types: std::collections::BTreeSet<u8> = inputs.ops.iter().map(|o| o.ty).collect();
        assert_eq!(types.len(), 4);
    }

    #[test]
    fn orders_generator_names_only_customers_that_exist() {
        let days = 8;
        let mut known: std::collections::BTreeSet<String> =
            (1..=days).map(|d| format!("cust{d}")).collect();
        let mut fresh = 0;
        for op in orders_inputs(3, days, 4_000) {
            match ORDERS_TYPES[op.ty as usize] {
                "New_Order" => {
                    let Some(Value::Str(c)) = op.bindings.get("customer") else {
                        panic!("customer")
                    };
                    if known.insert(c.clone()) {
                        assert_eq!(c, &format!("bc{fresh}"), "fresh names count up from bc0");
                        fresh += 1;
                    }
                }
                "Delivery" => {
                    let Some(Value::Int(d)) = op.bindings.get("today") else { panic!("today") };
                    assert!((1..=days as i64).contains(d));
                }
                "Audit" => {
                    let Some(Value::Str(c)) = op.bindings.get("customer") else {
                        panic!("customer")
                    };
                    assert!(c.starts_with("cust"), "audits name initial customers only: {c}");
                }
                _ => {}
            }
        }
        assert!(fresh > 50, "about a fifth of the New_Orders open a customer");
    }
}
