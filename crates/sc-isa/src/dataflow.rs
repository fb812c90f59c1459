//! The one forward walk over a stream program.
//!
//! The paper's stream-lifetime contract (Section 3.3: SMT define bits,
//! a fixed file of stream registers, key-only vs. (key, value) streams)
//! is a single set of architectural facts. [`analyze`] derives them in
//! one pass, and every static consumer reads them from the
//! [`DataflowResult`] instead of walking the program again:
//!
//! * [`Program::validate`] and [`Program::max_live_streams`];
//! * `sc-lint`, which names the faults `SC-E001`–`SC-E005`/`SC-W101`;
//! * `sc-verify`, which names the same faults after their runtime
//!   sanitizer counterparts (`SC-S301`–`SC-S303`) and checks the
//!   recorded writeback sizes and scratchpad pins against its machine;
//! * `sc-cost`, which prices each instruction from its operand length
//!   intervals and splits regions at the live counts.
//!
//! Per stream ID the walk keeps the SMT state (live or freed; absent
//! means never defined), the defining instruction, the kind, a length
//! interval, the source descriptor and the scratchpad bytes a priority
//! stream pins. Per instruction it records the live count after the
//! instruction takes effect, the operand length intervals, the defined
//! stream's length and the bytes its output writeback reserves.
//!
//! Length rules (half-open intervals of element counts):
//! `S_READ`/`S_VREAD` are exact; `|a ∩ b| < min(hi_a, hi_b)`;
//! `|a \ b| < hi_a`; a merge holds at least `max(lo_a, lo_b)` and at
//! most `|a| + |b|` elements. An operand that is not live has the
//! length ⊤ ([`len_top`]), so later bounds stay conservative.

use crate::domain::{Interval, Stride};
use crate::instr::Instr;
use crate::operand::{Key, Priority, StreamId};
use crate::program::Program;
use std::collections::BTreeMap;

/// One stream-lifetime fault found by [`analyze`].
///
/// Faults are reported in program order; within one instruction, uses
/// come first, then the free or key-kind check, then a redefinition.
/// End-of-program leaks come last, ordered by definition site. Unlike
/// [`Program::validate`], the walk does not stop at the first fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Instruction `at` uses stream `sid`, which was never defined.
    UndefinedUse {
        /// Instruction index.
        at: usize,
        /// The offending stream.
        sid: StreamId,
    },
    /// Instruction `at` uses stream `sid` after its `S_FREE`.
    UseAfterFree {
        /// Instruction index.
        at: usize,
        /// The offending stream.
        sid: StreamId,
    },
    /// `S_FREE` at `at` frees stream `sid`, which was never defined.
    FreeUnmapped {
        /// Instruction index.
        at: usize,
        /// The offending stream.
        sid: StreamId,
    },
    /// `S_FREE` at `at` frees stream `sid` a second time.
    DoubleFree {
        /// Instruction index.
        at: usize,
        /// The offending stream.
        sid: StreamId,
    },
    /// Instruction `at` defines stream `sid` while a previous definition
    /// is still live. The ISA allows this (the SMT overwrites the
    /// mapping in place), but it usually means a missing `S_FREE`.
    RedefinedLive {
        /// Instruction index.
        at: usize,
        /// The redefined stream.
        sid: StreamId,
    },
    /// `S_VINTER`/`S_VMERGE` at `at` reads the live key-only stream
    /// `sid` (the runtime `NotKeyValueStream` exception).
    KeyOnlyValueOp {
        /// Instruction index.
        at: usize,
        /// The key-only input.
        sid: StreamId,
    },
    /// Stream `sid`, defined at `defined_at`, is still live when the
    /// program ends.
    Leak {
        /// The leaked stream.
        sid: StreamId,
        /// Index of the definition still live at the end.
        defined_at: usize,
    },
}

impl Fault {
    /// The instruction the fault anchors to (a leak anchors to the
    /// definition still live) and the stream involved.
    pub fn site(&self) -> (usize, StreamId) {
        match *self {
            Fault::UndefinedUse { at, sid }
            | Fault::UseAfterFree { at, sid }
            | Fault::FreeUnmapped { at, sid }
            | Fault::DoubleFree { at, sid }
            | Fault::RedefinedLive { at, sid }
            | Fault::KeyOnlyValueOp { at, sid } => (at, sid),
            Fault::Leak { sid, defined_at } => (defined_at, sid),
        }
    }
}

/// SMT state of a stream ID the program has defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Smt {
    /// Mapped to a stream register.
    Live,
    /// Released by `S_FREE`.
    Freed,
}

/// What a stream's elements carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Keys only: `S_READ` and the key set operations.
    KeyOnly,
    /// (key, value) pairs: `S_VREAD` and `S_VMERGE`.
    KeyValue,
}

/// The walk's final knowledge of one stream ID (its last definition).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stream {
    /// The stream ID.
    pub sid: StreamId,
    /// Live or freed at the end of the program.
    pub state: Smt,
    /// Index of the defining instruction.
    pub defined_at: usize,
    /// Key-only or (key, value).
    pub kind: Kind,
    /// Element-count range.
    pub len: Interval,
    /// Source descriptor of a memory-backed stream; `None` for a set
    /// operation's output, which the Stream Unit writes back.
    pub source: Option<Stride>,
    /// Scratchpad bytes pinned while live (priority streams only).
    pub pinned: u64,
}

/// What the walk records about one instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Length interval of each stream operand, in
    /// [`Instr::uses_streams`] order (⊤ for an operand that is not
    /// live).
    pub operands: Vec<Interval>,
    /// Length interval of the stream the instruction defines, if any.
    pub defined_len: Option<Interval>,
    /// Bytes the output writeback of a materializing set operation
    /// reserves in the engine's output region (0 for every other
    /// instruction).
    pub writeback: u64,
}

/// Result of one [`analyze`] walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataflowResult {
    /// All lifetime faults, in the order described on [`Fault`].
    pub faults: Vec<Fault>,
    /// Per-instruction live-stream count: the number of live streams
    /// after instruction `i` takes effect (a defining instruction's
    /// output is counted, an `S_FREE`'s operand is not). The peak, and
    /// the first instruction above any capacity, are the same as when
    /// a freed register is counted until its free retires.
    pub live_at: Vec<usize>,
    /// Per-instruction facts, one per instruction.
    pub steps: Vec<Step>,
    /// Final state of every stream ID the program defines, ordered by
    /// ID. A use of an ID missing here is a use of a never-defined
    /// stream.
    pub streams: Vec<Stream>,
    /// Peak scratchpad bytes pinned by live priority streams.
    pub scratch_peak: u64,
}

impl DataflowResult {
    /// Peak simultaneous live streams anywhere in the program.
    pub fn max_live(&self) -> usize {
        self.live_at.iter().copied().max().unwrap_or(0)
    }
}

/// The length domain's ⊤: any representable stream length. Half-open,
/// so the exclusive end is `Key::MAX + 1`: unlike keys, a length of
/// `u32::MAX` is legal (`len: u32` has no sentinel), and a top of
/// `[0, Key::MAX)` would exclude it.
pub fn len_top() -> Interval {
    Interval::new(0, u64::from(Key::MAX) + 1)
}

/// Bytes the engine reserves for a set-operation output of at most
/// `len_upper` elements (`Engine::set_op`): 4 bytes per key, 12 per
/// (key, value) pair, rounded up past a 64-byte boundary.
fn writeback_bytes(len_upper: u64, kind: Kind) -> u64 {
    let per_elem = match kind {
        Kind::KeyOnly => 4,
        Kind::KeyValue => 12,
    };
    (len_upper.saturating_mul(per_elem) | 63) + 1
}

/// Walk `program` once, collecting every lifetime fault, the final
/// per-stream state and the per-instruction facts.
pub fn analyze(program: &Program) -> DataflowResult {
    let mut streams: BTreeMap<u32, Stream> = BTreeMap::new();
    let mut faults = Vec::new();
    let mut live_at = Vec::with_capacity(program.len());
    let mut steps = Vec::with_capacity(program.len());
    let (mut live, mut pinned, mut scratch_peak) = (0usize, 0u64, 0u64);

    for (at, instr) in program.iter().enumerate() {
        let uses = instr.uses_streams();
        let operands: Vec<Interval> = uses
            .iter()
            .map(|sid| match streams.get(&sid.raw()) {
                Some(s) if s.state == Smt::Live => s.len,
                _ => len_top(),
            })
            .collect();

        if let Instr::SFree { sid } = *instr {
            match streams.get_mut(&sid.raw()) {
                None => faults.push(Fault::FreeUnmapped { at, sid }),
                Some(s) if s.state == Smt::Freed => faults.push(Fault::DoubleFree { at, sid }),
                Some(s) => {
                    s.state = Smt::Freed;
                    live -= 1;
                    pinned -= s.pinned;
                }
            }
        } else {
            for &sid in &uses {
                match streams.get(&sid.raw()).map(|s| s.state) {
                    None => faults.push(Fault::UndefinedUse { at, sid }),
                    Some(Smt::Freed) => faults.push(Fault::UseAfterFree { at, sid }),
                    Some(Smt::Live) => {}
                }
            }
        }
        if let Instr::SVInter { a, b, .. } | Instr::SVMerge { a, b, .. } = *instr {
            for sid in [a, b] {
                let key_only = streams
                    .get(&sid.raw())
                    .is_some_and(|s| s.state == Smt::Live && s.kind == Kind::KeyOnly);
                if key_only {
                    faults.push(Fault::KeyOnlyValueOp { at, sid });
                }
            }
        }

        let read = |sid, kind, key_addr, len: u32, priority: Priority| Stream {
            sid,
            state: Smt::Live,
            defined_at: at,
            kind,
            len: Interval::exact(u64::from(len)),
            source: Some(Stride::contiguous(key_addr, u64::from(len), 4)),
            pinned: if priority.0 > 0 { u64::from(len) * 4 } else { 0 },
        };
        let output = |sid, kind, len| Stream {
            sid,
            state: Smt::Live,
            defined_at: at,
            kind,
            len,
            source: None,
            pinned: 0,
        };
        let merged = || {
            let (a, b) = (operands[0], operands[1]);
            Interval::new(a.lo.max(b.lo), a.add(&b).hi)
        };
        let defined = match *instr {
            Instr::SRead { key_addr, len, sid, priority } => {
                Some(read(sid, Kind::KeyOnly, key_addr, len, priority))
            }
            Instr::SVRead { key_addr, len, sid, priority, .. } => {
                Some(read(sid, Kind::KeyValue, key_addr, len, priority))
            }
            Instr::SInter { out, .. } => Some(output(
                out,
                Kind::KeyOnly,
                Interval::new(0, operands[0].hi.min(operands[1].hi)),
            )),
            Instr::SSub { out, .. } => {
                Some(output(out, Kind::KeyOnly, Interval::new(0, operands[0].hi)))
            }
            Instr::SMerge { out, .. } => Some(output(out, Kind::KeyOnly, merged())),
            Instr::SVMerge { out, .. } => Some(output(out, Kind::KeyValue, merged())),
            _ => None,
        };

        let mut step = Step { operands, defined_len: None, writeback: 0 };
        if let Some(s) = defined {
            step.defined_len = Some(s.len);
            // A stream without a memory source is materialized by the
            // Stream Unit into the engine's output region.
            if s.source.is_none() {
                step.writeback = writeback_bytes(s.len.max().unwrap_or(0), s.kind);
            }
            match streams.get(&s.sid.raw()) {
                Some(old) if old.state == Smt::Live => {
                    faults.push(Fault::RedefinedLive { at, sid: s.sid });
                    pinned -= old.pinned;
                }
                _ => live += 1,
            }
            pinned += s.pinned;
            streams.insert(s.sid.raw(), s);
        }
        scratch_peak = scratch_peak.max(pinned);
        live_at.push(live);
        steps.push(step);
    }

    let mut leaked: Vec<&Stream> = streams.values().filter(|s| s.state == Smt::Live).collect();
    leaked.sort_by_key(|s| s.defined_at);
    faults.extend(leaked.iter().map(|s| Fault::Leak { sid: s.sid, defined_at: s.defined_at }));

    DataflowResult {
        faults,
        live_at,
        steps,
        streams: streams.into_values().collect(),
        scratch_peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operand::{Bound, Priority};

    fn sid(n: u32) -> StreamId {
        StreamId::new(n)
    }

    fn read(n: u32) -> Instr {
        Instr::SRead { key_addr: 0x1000 * n as u64, len: 16, sid: sid(n), priority: Priority(0) }
    }

    #[test]
    fn clean_program_has_no_faults() {
        let p: Program = vec![
            read(0),
            read(1),
            Instr::SInter { a: sid(0), b: sid(1), out: sid(2), bound: Bound::none() },
            Instr::SFree { sid: sid(0) },
            Instr::SFree { sid: sid(1) },
            Instr::SFree { sid: sid(2) },
        ]
        .into_iter()
        .collect();
        let r = analyze(&p);
        assert!(r.faults.is_empty());
        assert_eq!(r.live_at, vec![1, 2, 3, 2, 1, 0]);
        assert_eq!(r.max_live(), 3);
    }

    #[test]
    fn collects_multiple_faults_in_order() {
        // Use of two undefined streams, then a free of a dead stream.
        let p: Program = vec![
            Instr::SInterC { a: sid(0), b: sid(1), bound: Bound::none() },
            Instr::SFree { sid: sid(9) },
        ]
        .into_iter()
        .collect();
        let r = analyze(&p);
        assert_eq!(
            r.faults,
            vec![
                Fault::UndefinedUse { at: 0, sid: sid(0) },
                Fault::UndefinedUse { at: 0, sid: sid(1) },
                Fault::FreeUnmapped { at: 1, sid: sid(9) },
            ]
        );
    }

    #[test]
    fn live_redefinition_is_a_fault_but_not_fatal() {
        let p: Program = vec![read(0), read(0), Instr::SFree { sid: sid(0) }].into_iter().collect();
        let r = analyze(&p);
        assert_eq!(r.faults, vec![Fault::RedefinedLive { at: 1, sid: sid(0) }]);
        // One register, overwritten in place.
        assert_eq!(r.max_live(), 1);
    }

    #[test]
    fn leaks_report_definition_site_in_order() {
        let p: Program = vec![read(2), read(5)].into_iter().collect();
        let r = analyze(&p);
        assert_eq!(
            r.faults,
            vec![
                Fault::Leak { sid: sid(2), defined_at: 0 },
                Fault::Leak { sid: sid(5), defined_at: 1 },
            ]
        );
    }

    #[test]
    fn free_releases_its_register() {
        let p: Program = vec![read(0), Instr::SFree { sid: sid(0) }].into_iter().collect();
        let r = analyze(&p);
        assert_eq!(r.live_at, vec![1, 0]);
    }
}
