//! Multiversion concurrency-control machinery: the timestamp oracle,
//! active-snapshot registry (whose oldest entry is the watermark every
//! install trims version chains to), and the *first-committer-wins*
//! commit log used by SNAPSHOT isolation and by READ COMMITTED with
//! first-committer-wins (the paper's Section 3.4 level).
//!
//! The paper models SNAPSHOT isolation as a read step against a committed
//! snapshot followed by a write step, with "first committer wins" giving
//! writes the effect of long-duration write locks. This crate provides the
//! atomic validate-and-commit primitive those semantics require: commit
//! timestamps are handed out inside the same critical section that checks
//! the requester's write set against all writes committed since its
//! snapshot, so validation outcomes are strictly serializable with respect
//! to commit order.

pub mod oracle;
pub mod ssi;

pub use oracle::{CommitConflict, FcwConflict, Oracle};
pub use ssi::{SsiConflict, SsiKey};

pub use semcc_storage::{Key, Ts, TxnId};
