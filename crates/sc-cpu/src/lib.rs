//! Out-of-order core timing model for the SparseCore reproduction.
//!
//! The paper evaluates SparseCore against a conventional CPU baseline on
//! zSim. zSim's out-of-order core is itself an instruction-driven
//! approximation (not RTL); this crate rebuilds that modeling level:
//!
//! * [`Gshare`] — a global-history branch predictor fed with the *actual*
//!   branch outcomes of the running workload, so the mispredict cycles in
//!   the paper's Figure 9 breakdown come from real data-dependent branches.
//! * [`Core`] — an event-driven timing core: the functional workload calls
//!   [`Core::ops`], [`Core::branch`], [`Core::load`]/[`Core::load_use`],
//!   and the core charges cycles with issue-width, load-queue-overlap and
//!   mispredict-penalty effects. Every cycle lands in one slot of the
//!   core's cycle ledger, which projects onto the paper's
//!   cycle-accounting buckets ([`Breakdown`]), the five attribution bins
//!   and the span log's per-site totals.
//!
//! The design contract that keeps the reproduction honest: **every event
//! charged corresponds to an operation the real computation performed** —
//! real addresses go to the cache model and real outcomes go to the
//! predictor.
//!
//! # Example
//!
//! ```
//! use sc_cpu::{Core, CoreConfig};
//!
//! let mut core = Core::new(CoreConfig::paper());
//! core.ops(8);                 // eight independent ALU micro-ops
//! core.branch(0x40, true);     // a conditional branch, actually taken
//! core.load_use(0x1000);       // a pointer-chasing load
//! assert!(core.cycles() > 0);
//! ```

pub mod breakdown;
pub mod core_model;
pub mod predictor;

pub use breakdown::{Breakdown, Region};
pub use core_model::{Core, CoreConfig, CoreStats};
pub use predictor::Gshare;

/// Cycles, re-exported for convenience.
pub type Cycle = sc_mem::Cycle;
