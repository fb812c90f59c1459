//! Stream-lifetime diagnostics: the one table that names each fact of
//! the [`sc_isa::dataflow`] walk for the tool reporting it.
//!
//! The walk derives every lifetime fact once. sc-lint reports them as
//! the ISA's exception conditions; sc-verify, whose proofs stand in for
//! runtime sanitizer checks, names the cases the sanitizer can see
//! after their `SC-S3xx` counterparts:
//!
//! | fact                      | sc-lint   | sc-verify |
//! |---------------------------|-----------|-----------|
//! | use of a never-defined ID | `SC-E001` | `SC-E001` |
//! | use after free            | `SC-E001` | `SC-S303` |
//! | free of a never-defined ID| `SC-E002` | `SC-E002` |
//! | double free               | `SC-E002` | `SC-S301` |
//! | live redefinition         | `SC-W101` | `SC-W101` |
//! | key-only value operation  | `SC-E004` | `SC-E004` |
//! | leak at end               | `SC-E003` | `SC-S302` |
//! | live streams > registers  | `SC-E005` | `SC-E005` |

use crate::diag::{Diagnostic, LintCode, Severity};
use sc_isa::dataflow::{DataflowResult, Fault};
use sc_isa::Program;

/// The tool a lifetime diagnostic is worded for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    /// `sc-lint`: the ISA's exception conditions.
    Lint,
    /// `sc-verify`: sanitizer counterparts where the runtime has one.
    Verify,
}

/// Name one lifetime fault of `program` for `tool`.
pub fn fault(program: &Program, fault: &Fault, tool: Tool) -> Diagnostic {
    use LintCode::*;
    use Severity::{Error, Warning};
    use Tool::{Lint, Verify};
    let (at, sid) = fault.site();
    let mnemonic = program.instrs()[at].mnemonic();
    let (code, severity, message) = match (fault, tool) {
        (Fault::UndefinedUse { .. } | Fault::UseAfterFree { .. }, Lint) => {
            (UseUndefined, Error, format!("use of stream {sid}, which is not live here"))
        }
        (Fault::UndefinedUse { .. }, Verify) => {
            (UseUndefined, Error, format!("{mnemonic} uses stream {sid}, which was never defined"))
        }
        (Fault::UseAfterFree { .. }, Verify) => (
            SanUseAfterFree,
            Error,
            format!(
                "{mnemonic} uses stream {sid} after its S_FREE (runtime counterpart: SC-S303)"
            ),
        ),
        (Fault::FreeUnmapped { .. } | Fault::DoubleFree { .. }, Lint) => (
            FreeUnmapped,
            Error,
            format!("S_FREE of stream {sid}, which is not live (never defined or already freed)"),
        ),
        (Fault::FreeUnmapped { .. }, Verify) => {
            (FreeUnmapped, Error, format!("S_FREE of stream {sid}, which was never defined"))
        }
        (Fault::DoubleFree { .. }, Verify) => (
            SanDoubleFree,
            Error,
            format!("second S_FREE of stream {sid} (runtime counterpart: SC-S301)"),
        ),
        (Fault::RedefinedLive { .. }, Lint) => {
            (RedefinedLive, Warning, format!("stream {sid} redefined while still live; missing S_FREE?"))
        }
        (Fault::RedefinedLive { .. }, Verify) => {
            (RedefinedLive, Warning, format!("stream {sid} redefined while live (missing S_FREE?)"))
        }
        (Fault::KeyOnlyValueOp { .. }, Lint) => (
            KeyOnlyValueOp,
            Error,
            format!(
                "{mnemonic} input {sid} is a key-only stream; value computation requires a (key, value) stream (S_VREAD or S_VMERGE output)"
            ),
        ),
        (Fault::KeyOnlyValueOp { .. }, Verify) => {
            (KeyOnlyValueOp, Error, format!("value operation on key-only stream {sid}"))
        }
        (Fault::Leak { .. }, Lint) => {
            (LeakAtEnd, Error, format!("stream {sid} defined here is never freed"))
        }
        (Fault::Leak { .. }, Verify) => (
            SanStreamLeak,
            Error,
            format!(
                "stream {sid} (defined at instruction {at}) is still live at the end of \
                 the program (runtime counterpart: SC-S302)"
            ),
        ),
    };
    Diagnostic { code, severity, at: Some(at), sid: Some(sid), addr: None, message }
}

/// The register-pressure diagnostic for `tool`, if the live count ever
/// exceeds `capacity`: one finding per program, anchored at the first
/// instruction above capacity. Exceeding it predicts
/// `OutOfStreamRegisters` (an error); with SMT virtualization the excess
/// spills instead, costing cycles (a note; paper Section 3.3).
pub fn pressure(
    flow: &DataflowResult,
    capacity: usize,
    virtualization: bool,
    tool: Tool,
) -> Option<Diagnostic> {
    let at = flow.live_at.iter().position(|&n| n > capacity)?;
    let message = match tool {
        Tool::Lint => format!(
            "peak of {} simultaneously live streams exceeds the {capacity} stream registers (first exceeded here); {}",
            flow.max_live(),
            if virtualization {
                "SMT virtualization will spill the excess, costing cycles"
            } else {
                "this predicts OutOfStreamRegisters without SMT virtualization"
            }
        ),
        Tool::Verify => format!(
            "live-stream upper bound {} exceeds the {capacity} stream registers{}",
            flow.live_at[at],
            if virtualization { " (virtualization spills; no fault)" } else { "" }
        ),
    };
    Some(Diagnostic {
        code: LintCode::RegisterPressure,
        severity: if virtualization { Severity::Note } else { Severity::Error },
        at: Some(at),
        sid: None,
        addr: None,
        message,
    })
}
