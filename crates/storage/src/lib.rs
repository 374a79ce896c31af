//! Multi-version in-memory storage for the semcc transaction engine.
//!
//! Two data models coexist, mirroring the paper's Section 3 (conventional)
//! and Section 4 (relational):
//!
//! * **Conventional items** — named integer/string cells accessed by name.
//! * **Relational tables** — schemas with typed rows, scanned and mutated
//!   through row predicates.
//!
//! Every cell and row keeps a chain of committed versions (tagged with the
//! writer's commit timestamp) plus at most one *dirty* (uncommitted) slot.
//! Locking isolation levels write in place into the dirty slot — which is
//! what makes READ UNCOMMITTED dirty reads observable — while SNAPSHOT
//! transactions buffer privately and install committed versions at commit.

pub mod error;
pub mod eval;
pub mod item;
pub mod key;
pub mod schema;
pub mod store;
pub mod table;
pub mod value;
pub mod wal;

pub use error::StorageError;
pub use item::ItemCell;
pub use key::Key;
pub use schema::Schema;
pub use store::Store;
pub use table::{Row, RowCell, RowId, Table, View};
pub use value::Value;
pub use wal::{CrashSnapshot, Lsn, Wal, WalPolicy, WalRecord};

/// Transaction identifier (assigned by the engine).
pub type TxnId = u64;

/// Commit timestamp (monotone, assigned by the engine).
pub type Ts = u64;
