//! The paper's example applications, as annotated transaction programs
//! (for static analysis) and executable workloads (for the engine):
//!
//! * [`banking`] — Figure 1 / Example 3: savings+checking accounts with the
//!   combined-balance constraint; `Withdraw_sav`, `Withdraw_ch`,
//!   `Deposit_sav`, `Deposit_ch`. The write-skew showcase.
//! * [`orders`] — Section 6: the order-processing schema (`ORDERS`, `CUST`,
//!   `MAXDATE`) with `Mailing_List`, `New_Order`, `Delivery`, `Audit`, and
//!   the two business-rule variants (`no_gaps` vs `one_order_per_day`).
//! * [`payroll`] — Example 2: the `emp` table with `Hours` and
//!   `Print_Records` under the record-granularity constraint
//!   `rate · hrs = sal`.
//! * [`tpcc`] — a TPC-C-style five-transaction workload, the paper's
//!   stated future work ("analyze the TPC-C benchmark transactions and run
//!   them at a combination of isolation levels").
//!
//! Each module exposes `app()` (programs + schemas + lemmas for the
//! analyzer), `setup(engine, scale)` (initial data), binding generators for
//! load drivers, and executable integrity checks used by the runtime
//! monitor to validate both the registered lemmas and the analyzer's level
//! assignments.

pub mod banking;
pub mod driver;
pub mod faultsim;
pub mod orders;
pub mod payroll;
pub mod tpcc;

pub use driver::{
    random_item_program, retry, run_mix, AbortClass, Attempted, MixSpec, RetryPolicy, RunStats,
};
pub use faultsim::{simulate, simulate_sweep, FaultSimOptions, FaultSimReport};
