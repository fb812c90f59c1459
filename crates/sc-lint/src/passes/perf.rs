//! Perf pass — performance lints.
//!
//! Four wasted-work patterns the paper's compiler avoids by hand:
//!
//! * `SC-W201` dead-stream — a set-operation output that is never read
//!   before being freed. The `.C` (count-only) variants exist exactly
//!   so the Stream Unit never materializes such outputs.
//! * `SC-W202` unused-read — an `S_READ`/`S_VREAD` stream freed without
//!   any consumer: the memory traffic and S-Cache occupancy bought
//!   nothing.
//! * `SC-W203` missing-bound — an *unbounded* `S_INTER`/`S_SUB` whose
//!   output feeds only bounded consumers; hoisting the tightest
//!   consumer bound into the producer is Figure 2(b)'s BoundedIntersect
//!   optimization.
//! * `SC-W204` short-stream — a stream statically too short to amortize
//!   its setup line fetch. The threshold is not a magic number: it is
//!   [`PerfThresholds`], derived from the line geometry and warmup
//!   latency of the hardware config. sc-cost reports the same check
//!   through [`short_streams`] with thresholds from its own parameters.

use crate::config::{LintConfig, PerfThresholds};
use crate::diag::{Diagnostic, LintCode, Severity};
use sc_isa::{Instr, Program, StreamId};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DefKind {
    Read,
    /// `S_INTER`/`S_SUB`/`S_MERGE`/`S_VMERGE` output; the payload is the
    /// count-variant mnemonic to suggest, if one exists.
    SetOp(Option<&'static str>),
    /// Unbounded `S_INTER`/`S_SUB` specifically (candidates for
    /// `SC-W203`).
    UnboundedInterSub(Option<&'static str>),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UseKind {
    /// Consumer that itself applies a bound (`S_INTER[.C]`/`S_SUB[.C]`
    /// with a bound, or `S_NESTINTER`, which bounds internally).
    Bounded,
    /// Any other read (fetch, merge, unbounded set op, value op).
    Other,
}

struct Live {
    sid: StreamId,
    defined_at: usize,
    mnemonic: &'static str,
    kind: DefKind,
    uses: Vec<UseKind>,
}

fn finalize(d: &Live, diags: &mut Vec<Diagnostic>) {
    match d.kind {
        DefKind::Read if d.uses.is_empty() => diags.push(Diagnostic {
            code: LintCode::UnusedRead,
            severity: Severity::Warning,
            at: Some(d.defined_at),
            sid: Some(d.sid),
            addr: None,
            message: format!(
                "stream {} loaded by {} is never consumed before being freed",
                d.sid, d.mnemonic
            ),
        }),
        DefKind::SetOp(count_variant) | DefKind::UnboundedInterSub(count_variant)
            if d.uses.is_empty() =>
        {
            let suggestion = match count_variant {
                Some(c) => format!("; if only the count matters, {c} avoids materializing it"),
                None => String::new(),
            };
            diags.push(Diagnostic {
                code: LintCode::DeadStream,
                severity: Severity::Warning,
                at: Some(d.defined_at),
                sid: Some(d.sid),
                addr: None,
                message: format!(
                    "output {} of {} is never read, only freed{suggestion}",
                    d.sid, d.mnemonic
                ),
            });
        }
        DefKind::UnboundedInterSub(_)
            if !d.uses.is_empty() && d.uses.iter().all(|u| *u == UseKind::Bounded) =>
        {
            diags.push(Diagnostic {
                code: LintCode::MissingBound,
                severity: Severity::Warning,
                at: Some(d.defined_at),
                sid: Some(d.sid),
                addr: None,
                message: format!(
                    "unbounded {} output {} feeds only bounded consumers; hoisting the bound into the producer cuts work (BoundedIntersect)",
                    d.mnemonic, d.sid
                ),
            });
        }
        _ => {}
    }
}

/// `SC-W204`: statically short reads under thresholds `t`. Zero-length
/// reads are excluded: they are the alias pass's concern (`SC-W102`),
/// not a perf smell.
pub fn short_streams(program: &Program, t: &PerfThresholds, diags: &mut Vec<Diagnostic>) {
    for (at, i) in program.iter().enumerate() {
        let (len, sid) = match *i {
            Instr::SRead { len, sid, .. } => (len, sid),
            Instr::SVRead { len, sid, .. } => (len, sid),
            _ => continue,
        };
        if len > 0 && len < t.min_amortized_len {
            diags.push(Diagnostic {
                code: LintCode::ShortStream,
                severity: Severity::Warning,
                at: Some(at),
                sid: Some(sid),
                addr: None,
                message: format!(
                    "stream of {len} keys cannot amortize its setup: one refill line \
                     supplies {} keys for up to {} setup cycles",
                    t.min_amortized_len, t.setup_cycles
                ),
            });
        }
    }
}

pub(crate) fn run(program: &Program, config: &LintConfig, diags: &mut Vec<Diagnostic>) {
    short_streams(program, &config.perf, diags);

    let mut live: Vec<Live> = Vec::new();
    for (at, i) in program.iter().enumerate() {
        // Record uses against their live definitions.
        match *i {
            Instr::SFree { sid } => {
                if let Some(pos) = live.iter().position(|d| d.sid == sid) {
                    let d = live.remove(pos);
                    finalize(&d, diags);
                }
                continue;
            }
            _ => {
                let use_kind = match i {
                    Instr::SInter { bound, .. }
                    | Instr::SInterC { bound, .. }
                    | Instr::SSub { bound, .. }
                    | Instr::SSubC { bound, .. } => {
                        if bound.get().is_some() {
                            UseKind::Bounded
                        } else {
                            UseKind::Other
                        }
                    }
                    Instr::SNestInter { .. } => UseKind::Bounded,
                    _ => UseKind::Other,
                };
                for sid in i.uses_streams() {
                    if let Some(d) = live.iter_mut().find(|d| d.sid == sid) {
                        d.uses.push(use_kind);
                    }
                }
            }
        }

        // Record definitions (a redefinition finalizes the old one).
        if let Some(sid) = i.defines_stream() {
            if let Some(pos) = live.iter().position(|d| d.sid == sid) {
                let d = live.remove(pos);
                finalize(&d, diags);
            }
            let kind = match *i {
                Instr::SRead { .. } | Instr::SVRead { .. } => DefKind::Read,
                Instr::SInter { bound, .. } => {
                    if bound.get().is_none() {
                        DefKind::UnboundedInterSub(Some("S_INTER.C"))
                    } else {
                        DefKind::SetOp(Some("S_INTER.C"))
                    }
                }
                Instr::SSub { bound, .. } => {
                    if bound.get().is_none() {
                        DefKind::UnboundedInterSub(Some("S_SUB.C"))
                    } else {
                        DefKind::SetOp(Some("S_SUB.C"))
                    }
                }
                Instr::SMerge { .. } => DefKind::SetOp(Some("S_MERGE.C")),
                _ => DefKind::SetOp(None),
            };
            live.push(Live { sid, defined_at: at, mnemonic: i.mnemonic(), kind, uses: Vec::new() });
        }
    }

    // Leaked definitions still get their perf verdicts (the leak itself
    // is the liveness pass's SC-E003).
    for d in &live {
        finalize(d, diags);
    }
}
