//! The analysis passes beyond the shared lifetime walk.
//!
//! Each pass is one linear walk over the program that appends
//! [`Diagnostic`](crate::Diagnostic)s to a shared buffer. Passes are
//! independent: a fault reported by one does not suppress another, so a
//! single bad instruction can carry several diagnostics.

pub mod alias;
pub mod perf;
