//! Alias pass — address/alias checks.
//!
//! `S_READ`/`S_VREAD` pin their source bytes into the S-Cache for the
//! stream's lifetime, and Section 5.1 of the paper faults any scalar
//! access to S-Cache-resident data (`ScalarTouchesStream`). Two *live*
//! streams whose source ranges overlap are the static shadow of that
//! hazard — the same bytes are cache-resident under two mappings, and
//! any scalar touch of the shared range (or a free of one stream
//! followed by a scalar access assuming the bytes were released) faults.
//! Reported as `SC-E006` at warning severity: overlap is legal for pure
//! stream-side reads, so it is a hazard, not a certain fault.
//!
//! Zero-length reads (`SC-W102`) are also flagged here: they define a
//! stream whose first fetch is already `EOS`, which is almost always an
//! emitter bug (and wastes a stream register).

use crate::diag::{Diagnostic, LintCode, Severity};
use sc_isa::{Instr, Program, StreamId};

/// Key bytes per element (4-byte keys, paper Section 3.1).
const KEY_BYTES: u64 = 4;
/// Value bytes per element (f64 values).
const VAL_BYTES: u64 = 8;

/// One live stream's pinned source ranges.
struct Pinned {
    sid: StreamId,
    /// `(start, end)` half-open byte ranges: keys, plus values for
    /// `S_VREAD`.
    ranges: Vec<(u64, u64)>,
}

pub(crate) fn run(program: &Program, diags: &mut Vec<Diagnostic>) {
    let mut pinned: Vec<Pinned> = Vec::new();

    for (at, i) in program.iter().enumerate() {
        let (sid, key_addr, len, val_addr) = match *i {
            Instr::SRead { key_addr, len, sid, .. } => (sid, key_addr, len, None),
            Instr::SVRead { key_addr, len, sid, val_addr, .. } => {
                (sid, key_addr, len, Some(val_addr))
            }
            Instr::SFree { sid } => {
                pinned.retain(|p| p.sid != sid);
                continue;
            }
            _ => {
                // Set-operation outputs live in the S-Cache only, with
                // no architectural memory range; a redefinition of a
                // pinned sid by one releases the pin.
                if let Some(out) = i.defines_stream() {
                    pinned.retain(|p| p.sid != out);
                }
                continue;
            }
        };

        if len == 0 {
            diags.push(Diagnostic {
                code: LintCode::ZeroLengthStream,
                severity: Severity::Warning,
                at: Some(at),
                sid: Some(sid),
                addr: Some(key_addr),
                message: format!(
                    "{} defines zero-length stream {sid}; its first fetch is already EOS",
                    i.mnemonic()
                ),
            });
        }

        let mut ranges = vec![(key_addr, key_addr + u64::from(len) * KEY_BYTES)];
        if let Some(va) = val_addr {
            ranges.push((va, va + u64::from(len) * VAL_BYTES));
        }

        // Redefinition replaces the old pin (liveness warns separately).
        pinned.retain(|p| p.sid != sid);

        for p in &pinned {
            for &(ps, pe) in &p.ranges {
                for &(ns, ne) in &ranges {
                    let lo = ps.max(ns);
                    let hi = pe.min(ne);
                    if lo < hi {
                        diags.push(Diagnostic {
                            code: LintCode::ScacheOverlap,
                            severity: Severity::Warning,
                            at: Some(at),
                            sid: Some(sid),
                            addr: Some(lo),
                            message: format!(
                                "source range of stream {sid} overlaps live stream {} at {lo:#x}..{hi:#x}; the shared bytes are S-Cache-resident under two mappings and scalar access to them faults",
                                p.sid
                            ),
                        });
                    }
                }
            }
        }

        pinned.push(Pinned { sid, ranges });
    }
}
