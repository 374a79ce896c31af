//! Randomized tests for the lock manager: a single-threaded sequence of
//! acquires/releases must never leave two transactions holding conflicting
//! grants, and releasing through the shard set the acquires reported, or
//! through `release_all`, must fully clear a transaction's footprint, at
//! any shard count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use semcc_lock::manager::LockConfig;
use semcc_lock::{shard_bit, LockManager, Mode, Target};
use std::collections::BTreeMap;
use std::time::Duration;

#[derive(Clone, Debug)]
enum LockOp {
    Acquire { txn: u8, item: usize, exclusive: bool },
    Release { txn: u8, item: usize },
    ReleaseAll { txn: u8 },
    // Release through the set of shards the txn's acquires reported.
    ReleaseHeld { txn: u8 },
}

fn gen_op(rng: &mut StdRng, items: usize) -> LockOp {
    match rng.gen_range(0..4) {
        0 => LockOp::Acquire {
            txn: rng.gen_range(0..3),
            item: rng.gen_range(0..items),
            exclusive: rng.gen_bool(0.5),
        },
        1 => LockOp::Release { txn: rng.gen_range(0..3), item: rng.gen_range(0..items) },
        2 => LockOp::ReleaseAll { txn: rng.gen_range(0..3) },
        _ => LockOp::ReleaseHeld { txn: rng.gen_range(0..3) },
    }
}

/// The shard `name`'s item lock routes to, as an acquire reports it.
fn shard(m: &LockManager, name: &str) -> usize {
    let s = m.acquire(u64::MAX, Target::item(name), Mode::S).expect("probe");
    m.release_all(u64::MAX);
    s
}

/// Item names for a table of `m`'s shard count: three fixed ones and,
/// past 64 shards, two more whose shards share a set bit (`s` and
/// `s + 64`).
fn item_names(m: &LockManager) -> Vec<String> {
    let mut names: Vec<String> = (0..3).map(|i| format!("i{i}")).collect();
    if m.shard_count() > 64 {
        let high = (0..).map(|i| format!("h{i}")).find(|n| shard(m, n) >= 64).unwrap();
        let low_shard = shard(m, &high) - 64;
        let low = (0..).map(|i| format!("l{i}")).find(|n| shard(m, n) == low_shard).unwrap();
        names.extend([high, low]);
    }
    names
}

#[test]
fn no_conflicting_grants_ever() {
    for shards in [1, 2, 32, 65] {
        let mut rng = StdRng::seed_from_u64(0x10c1);
        for case in 0..256 {
            // Single-threaded: a conflicting acquire can't be granted, so it
            // must fail fast (timeout). We model held locks and verify the
            // manager agrees about grant/deny and never double-grants.
            let m = LockManager::new(LockConfig {
                wait_timeout: Duration::from_millis(1),
                shards,
                ..LockConfig::default()
            });
            let items = item_names(&m);
            let n_ops = rng.gen_range(1..40);
            let ops: Vec<LockOp> = (0..n_ops).map(|_| gen_op(&mut rng, items.len())).collect();
            let target = |item: usize| Target::item(&items[item]);
            // model: (txn, item) -> exclusive? (with reentrancy counts)
            let mut held: BTreeMap<(u8, usize), (bool, u32)> = BTreeMap::new();
            // model: the shard bits each txn's granted acquires reported
            let mut sets = [0u64; 3];

            for op in ops {
                let ctx = format!("{shards} shards, case {case}, {op:?}");
                match op {
                    LockOp::Acquire { txn, item, exclusive } => {
                        let mode = if exclusive { Mode::X } else { Mode::S };
                        // conflict iff another txn holds an incompatible lock
                        let model_conflict = held
                            .iter()
                            .any(|((t, i), (x, _))| *i == item && *t != txn && (*x || exclusive));
                        let r = m.acquire(txn as u64, target(item), mode);
                        if model_conflict {
                            assert!(r.is_err(), "{ctx}: model says conflict, manager granted");
                        } else {
                            let s = r.unwrap_or_else(|e| panic!("{ctx}: model says free: {e:?}"));
                            assert!(s < shards, "{ctx}: shard {s} out of range");
                            sets[txn as usize] |= shard_bit(s);
                            let e = held.entry((txn, item)).or_insert((false, 0));
                            e.0 |= exclusive;
                            e.1 += 1;
                        }
                    }
                    LockOp::Release { txn, item } => {
                        m.release(txn as u64, &target(item));
                        if let Some(e) = held.get_mut(&(txn, item)) {
                            e.1 -= 1;
                            if e.1 == 0 {
                                held.remove(&(txn, item));
                            }
                        }
                    }
                    LockOp::ReleaseAll { txn } => {
                        m.release_all(txn as u64);
                        held.retain(|(t, _), _| *t != txn);
                        sets[txn as usize] = 0;
                    }
                    LockOp::ReleaseHeld { txn } => {
                        m.release_in(txn as u64, sets[txn as usize]);
                        held.retain(|(t, _), _| *t != txn);
                        sets[txn as usize] = 0;
                    }
                }
                // the manager's grants and waiters per txn match the model's
                for t in 0..3u8 {
                    let model_count = held.keys().filter(|(ht, _)| *ht == t).count();
                    assert_eq!(m.held_by(t as u64), model_count, "{ctx}: txn {t}");
                    assert_eq!(m.waiting_by(t as u64), 0, "{ctx}: txn {t}");
                }
            }
        }
    }
}
