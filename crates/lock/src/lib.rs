//! Lock manager implementing the locking disciplines of Berenson et al.
//! (SIGMOD '95) that the paper's theorems assume.
//!
//! Supported lock targets:
//! * conventional **items** (by name),
//! * relational **rows** (`(table, row-id)`),
//! * **predicates** (`(table, row-predicate)`), whose conflicts are decided
//!   by a satisfiability test on the conjunction of the two predicates —
//!   literal predicate locking, which the paper assumes the DBMS's protocol
//!   is "equivalent to, or stronger than".
//!
//! The manager provides shared/exclusive modes, lock upgrade, FIFO-fair
//! queuing, waits-for-graph deadlock detection (the requester whose wait
//! would close a cycle is aborted), and wait timeouts. Lock *duration*
//! (short vs long) is the engine's policy: short locks are released by an
//! explicit [`LockManager::release`], long locks at commit/abort by
//! [`LockManager::release_in`] over the shards the transaction's acquires
//! reported (or [`LockManager::release_all`], which visits every shard).

pub mod error;
pub mod manager;

pub use error::LockError;
pub use manager::{shard_bit, LockConfig, LockManager, LockStats, Mode, Target};
