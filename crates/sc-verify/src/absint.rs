//! The verifier's projection of the stream-lifetime walk.
//!
//! The abstract interpretation itself is [`sc_isa::dataflow::analyze`],
//! the one forward walk every static tool reads. It tracks, per stream
//! register, the symbolic SMT state (live, freed, never defined), the
//! kind, a length interval and the source descriptor; per instruction,
//! the live count and the bytes an output writeback reserves. This
//! module turns those facts into proof findings under a
//! [`VerifyConfig`]:
//!
//! * **SMT discipline** — use-after-free, double free and leaks become
//!   `SC-S303`/`SC-S301`/`SC-S302` through the shared
//!   [`sc_lint::lifetime`] table, proving those sanitizer invariants
//!   ahead of execution.
//! * **Writebacks** — the recorded writeback sizes, laid out from the
//!   engine's output-allocator base, are checked against the protected
//!   (read-only) ranges to prove `SC-S310` statically, and against every
//!   stream's source descriptor.
//! * **Resource bounds** — the live counts against the register file,
//!   and the peak scratchpad working set of priority streams against
//!   the scratchpad (`SC-S312`).
//!
//! [`crate::verify_program`] wraps the findings in a [`crate::Verdict`]
//! carrying the discharged proof obligations.

use crate::Interval;
use sc_isa::dataflow::{DataflowResult, Fault};
use sc_isa::Program;
use sc_lint::lifetime::{self, Tool};
use sc_lint::{Diagnostic, LintCode, Severity};

pub use sc_isa::dataflow::len_top;

/// Context the verifier assumes about the machine the program will run
/// on. Mirrors the execution context of [`sparsecore::Engine`]: register
/// capacity, scratchpad size, the output-region allocator base, and the
/// address ranges declared read-only by the parallel drivers.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Stream-register (= S-Cache slot) capacity.
    pub stream_registers: usize,
    /// Scratchpad capacity in bytes (priority streams pin their keys
    /// here).
    pub scratchpad_bytes: u64,
    /// SMT virtualization: pressure beyond capacity spills instead of
    /// faulting, so exceeding it downgrades to a note.
    pub virtualization: bool,
    /// Base of the engine's bump allocator for materialized output
    /// streams.
    pub out_alloc_base: u64,
    /// Read-only ranges (the shared graph of a parallel run): any
    /// write-set reaching one is an `SC-S310` violation.
    pub protected: Vec<Interval>,
}

/// The engine's output-region allocator base (see `Engine::new`).
pub const OUT_ALLOC_BASE: u64 = 0xC000_0000;

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig::paper()
    }
}

impl VerifyConfig {
    /// The paper's hardware: 16 stream registers, 16 KiB scratchpad.
    pub fn paper() -> Self {
        VerifyConfig {
            stream_registers: 16,
            scratchpad_bytes: 16 * 1024,
            virtualization: false,
            out_alloc_base: OUT_ALLOC_BASE,
            protected: Vec::new(),
        }
    }

    /// Mirror a concrete engine configuration. Virtualization is an
    /// engine runtime flag, not a config field — chain
    /// [`VerifyConfig::virtualized`] when the engine enables it.
    pub fn for_config(cfg: &sparsecore::SparseCoreConfig) -> Self {
        VerifyConfig {
            stream_registers: cfg.num_stream_registers(),
            scratchpad_bytes: cfg.scratchpad.size_bytes,
            virtualization: false,
            out_alloc_base: OUT_ALLOC_BASE,
            protected: Vec::new(),
        }
    }

    /// Add a read-only range `[lo, hi)` (builder).
    pub fn protect(mut self, lo: u64, hi: u64) -> Self {
        self.protected.push(Interval::new(lo, hi));
        self
    }

    /// Override the output-allocator base (builder) — the static mirror
    /// of `Engine::sabotage_redirect_out_alloc`.
    pub fn with_out_alloc(mut self, base: u64) -> Self {
        self.out_alloc_base = base;
        self
    }

    /// Override the register capacity (builder).
    pub fn with_stream_registers(mut self, n: usize) -> Self {
        self.stream_registers = n;
        self
    }

    /// Enable SMT virtualization (builder).
    pub fn virtualized(mut self) -> Self {
        self.virtualization = true;
        self
    }
}

/// The findings of the walk `flow` over `program` under `config`, in
/// emission order: within one instruction, use, free and key-kind
/// faults come first, then the writeback check, a redefinition and
/// pressure; leaks and source overlaps follow at their definitions.
pub(crate) fn findings(
    program: &Program,
    flow: &DataflowResult,
    config: &VerifyConfig,
) -> Vec<Diagnostic> {
    let named = |f: &Fault| lifetime::fault(program, f, Tool::Verify);
    let redefinition = |f: &&Fault| matches!(f, Fault::RedefinedLive { .. });
    let leak = |f: &&Fault| matches!(f, Fault::Leak { .. });
    let mut findings: Vec<Diagnostic> =
        flow.faults.iter().filter(|f| !redefinition(f) && !leak(f)).map(named).collect();

    // Output writebacks, laid out by the engine's bump allocator.
    let mut cursor = config.out_alloc_base;
    let mut writes = Interval::empty();
    for (at, step) in flow.steps.iter().enumerate().filter(|(_, s)| s.writeback > 0) {
        let w = Interval::new(cursor, cursor + step.writeback);
        if let Some(p) = config.protected.iter().find(|p| w.overlaps(p)) {
            findings.push(
                Diagnostic {
                    at: Some(at),
                    ..Diagnostic::sanitizer(
                        LintCode::SanReadOnlyWrite,
                        format!(
                            "output-stream writeback {w} reaches read-only range {p} \
                             (runtime counterpart: SC-S310)"
                        ),
                    )
                }
                .with_addr(cursor),
            );
        }
        writes = writes.hull(&w);
        cursor += step.writeback;
    }

    findings.extend(flow.faults.iter().filter(redefinition).map(named));
    findings.extend(lifetime::pressure(
        flow,
        config.stream_registers,
        config.virtualization,
        Tool::Verify,
    ));
    // End-of-program leak proof (static counterpart of SC-S302, which
    // the sanitizer only checks in its *final* audit).
    findings.extend(flow.faults.iter().filter(leak).map(named));

    // Source/output aliasing: a memory-backed stream whose descriptor
    // lies inside the output-allocator's write region can be clobbered
    // by a later writeback (static counterpart of the SC-E006 alias
    // family). Real programs read graph/tensor data far below the
    // allocator base, so a hit means a miscomputed descriptor.
    for s in &flow.streams {
        if let Some(src) = &s.source {
            if src.hull().overlaps(&writes) {
                findings.push(Diagnostic {
                    code: LintCode::ScacheOverlap,
                    severity: Severity::Warning,
                    at: Some(s.defined_at),
                    sid: Some(s.sid),
                    addr: None,
                    message: format!(
                        "stream {}'s source {src} lies inside the output-writeback \
                         region {writes}; a writeback may clobber it",
                        s.sid
                    ),
                });
            }
        }
    }

    // Scratchpad bound (static counterpart of the SC-S312 accounting
    // audit): when the priority working set provably fits, the runtime
    // accountant can never legitimately exceed capacity.
    if flow.scratch_peak > config.scratchpad_bytes {
        findings.push(Diagnostic {
            severity: Severity::Warning,
            ..Diagnostic::sanitizer(
                LintCode::SanScratchpadBounds,
                format!(
                    "priority-stream working set may reach {} bytes, beyond the \
                     {}-byte scratchpad; the bound is checked at runtime instead (SC-S312)",
                    flow.scratch_peak, config.scratchpad_bytes
                ),
            )
        });
    }
    findings
}
