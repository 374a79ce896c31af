//! Multi-version in-memory storage for the semcc transaction engine.
//!
//! Two data models coexist, mirroring the paper's Section 3 (conventional)
//! and Section 4 (relational):
//!
//! * **Conventional items** — named integer/string cells accessed by name.
//! * **Relational tables** — schemas with typed rows, scanned and mutated
//!   through row predicates.
//!
//! Both are the same thing underneath. An item and a row slot are each one
//! [`Versioned`] chain (`chain.rs`): committed versions tagged with their
//! writers' commit timestamps, at most one *dirty* (uncommitted) version,
//! and the LSN of the newest WAL record that touched the cell. An
//! [`ItemCell`] is the chain at `T = Value`, a [`RowCell`] the chain at
//! `T = Option<Row>`; writing, promoting, discarding, installing and
//! trimming versions are written once, for both. So is reading: a
//! [`View`] names the version a reader is entitled to, and one
//! `read(view)` returns the value, the version that supplied it and the
//! chain's newest commit timestamp from a single access. Every committed
//! version arrives with a [`Commit`] carrying the snapshot watermark, and
//! installing it drops the versions no reader can reach any more.
//!
//! Locking isolation levels write in place into the dirty slot — which is
//! what makes READ UNCOMMITTED dirty reads observable — while SNAPSHOT
//! transactions buffer privately and install committed versions at commit.

pub mod chain;
pub mod error;
pub mod eval;
pub mod item;
pub mod key;
pub mod schema;
pub mod store;
pub mod table;
pub mod value;
pub mod wal;

pub use chain::{Commit, Seen, Source, Versioned, View};
pub use error::StorageError;
pub use item::ItemCell;
pub use key::Key;
pub use schema::Schema;
pub use store::Store;
pub use table::{Row, RowCell, RowId, Table};
pub use value::Value;
pub use wal::{CrashSnapshot, Lsn, Wal, WalPolicy, WalRecord};

/// Transaction identifier (assigned by the engine).
pub type TxnId = u64;

/// Commit timestamp (monotone, assigned by the engine).
pub type Ts = u64;
