//! Running one case: a fresh backend, the caller (`exec::count` or a
//! kernel), then the simulated statistics and the case digest.

use crate::trace::{Ledger, Timed};
use crate::workload::{
    fnv1a, Case, Inputs, Output, TensorInputs, Workload, APPS, FIBER_STRIDE, INNER_ROW_SAMPLE,
};
use sc_cpu::CoreStats;
use sc_gpm::exec::{self, ScalarBackend, SetBackend, StreamBackend};
use sc_gpm::Plan;
use sc_graph::CsrGraph;
use sc_kernels::{
    gustavson, inner_product, outer_product, ttm_sampled, ttv_sampled, InnerOptions,
    StreamTensorBackend, TensorBackend,
};
use sc_mem::HierarchyStats;
use sparsecore::{Engine, EngineStats};
use std::time::Instant;

/// The engine counters a case ends with.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EngineCounts {
    /// `S_READ` + `S_VREAD`.
    pub reads: u64,
    /// `S_FREE`.
    pub frees: u64,
    /// SU set operations (each nested step counts).
    pub set_ops: u64,
    /// `S_FETCH`.
    pub fetches: u64,
    /// `S_NESTINTER`.
    pub nested: u64,
    /// `S_VINTER` + `S_VMERGE`.
    pub value_ops: u64,
    /// Simulated SU-busy cycles.
    pub su_busy_cycles: u64,
    /// Elements moved into SUs.
    pub elements_streamed: u64,
    /// Scratchpad hits on stream initialization.
    pub scratchpad_hits: u64,
    /// Scratchpad misses on stream initialization.
    pub scratchpad_misses: u64,
    /// VA_gen value loads.
    pub value_loads: u64,
    /// Stream lengths recorded.
    pub streams: u64,
}

impl From<&EngineStats> for EngineCounts {
    fn from(s: &EngineStats) -> Self {
        EngineCounts {
            reads: s.reads,
            frees: s.frees,
            set_ops: s.set_ops,
            fetches: s.fetches,
            nested: s.nested,
            value_ops: s.value_ops,
            su_busy_cycles: s.su_busy_cycles,
            elements_streamed: s.elements_streamed,
            scratchpad_hits: s.scratchpad_hits,
            scratchpad_misses: s.scratchpad_misses,
            value_loads: s.value_loads,
            streams: s.lengths.count() as u64,
        }
    }
}

impl EngineCounts {
    fn words(&self) -> [u64; 12] {
        [
            self.reads,
            self.frees,
            self.set_ops,
            self.fetches,
            self.nested,
            self.value_ops,
            self.su_busy_cycles,
            self.elements_streamed,
            self.scratchpad_hits,
            self.scratchpad_misses,
            self.value_loads,
            self.streams,
        ]
    }
}

/// The simulated statistics of one case.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SimStats {
    /// Simulated cycles actually run (not scaled by a sampling stride).
    pub cycles: u64,
    /// Engine counters (`None` on the scalar backend).
    pub engine: Option<EngineCounts>,
    /// The out-of-order core's counters.
    pub core: CoreStats,
    /// The memory hierarchy's counters.
    pub mem: HierarchyStats,
}

impl SimStats {
    /// A digest of every simulated number of a case plus its result
    /// checksum: equal digests mean an identical simulation.
    pub fn digest(&self, checksum: u64) -> u64 {
        let c = &self.core;
        let m = &self.mem;
        let engine = self.engine.map_or([u64::MAX; 12], |e| e.words());
        fnv1a(
            [checksum, self.cycles, c.uops, c.branches, c.mispredicts, c.loads, c.stores]
                .into_iter()
                .chain([m.l1_hits, m.l2_hits, m.l3_hits, m.dram_accesses, m.total_latency])
                .chain(engine),
        )
    }
}

/// Read a backend's simulated statistics (and, for [`Timed`], its spans).
pub trait Observe {
    /// The statistics after the case finished.
    fn sim_stats(&self) -> SimStats;
    /// The spans recorded by a tracing decorator; empty otherwise.
    fn ledger(&self) -> Ledger {
        Ledger::default()
    }
}

fn engine_stats(e: &Engine) -> SimStats {
    SimStats {
        cycles: e.cycles(),
        engine: Some(e.stats().into()),
        core: *e.core().stats(),
        mem: *e.core().mem().stats(),
    }
}

impl Observe for StreamBackend<'_> {
    fn sim_stats(&self) -> SimStats {
        engine_stats(self.engine())
    }
}

impl Observe for StreamTensorBackend {
    fn sim_stats(&self) -> SimStats {
        engine_stats(self.engine())
    }
}

impl Observe for ScalarBackend<'_> {
    fn sim_stats(&self) -> SimStats {
        let core = self.core();
        SimStats {
            cycles: core.cycles(),
            engine: None,
            core: *core.stats(),
            mem: *core.mem().stats(),
        }
    }
}

impl<B: Observe> Observe for Timed<B> {
    fn sim_stats(&self) -> SimStats {
        self.inner().sim_stats()
    }

    fn ledger(&self) -> Ledger {
        *Timed::ledger(self)
    }
}

/// One simulated case.
#[derive(Debug, Clone)]
pub struct CaseRun {
    /// Host seconds from backend construction to the drained machine.
    pub wall_s: f64,
    /// The caller's self time: host seconds inside `exec::count` or the
    /// kernel minus the backend calls it made (all of it when untraced).
    pub caller_self_s: f64,
    /// Backend calls the caller made (traced only).
    pub caller_calls: u64,
    /// Allocations the caller made outside backend calls (traced only;
    /// untraced it counts every allocation inside the caller).
    pub caller_self_allocs: u64,
    /// The functional result.
    pub output: Output,
    /// The simulated statistics.
    pub stats: SimStats,
    /// Backend spans (traced only).
    pub ledger: Ledger,
}

impl CaseRun {
    /// The digest of this run's simulation.
    pub fn digest(&self) -> u64 {
        self.stats.digest(self.output.checksum())
    }
}

/// Run `plans` over `g` with the backend `make` builds.
fn gpm_case<B: SetBackend + Observe>(
    g: &CsrGraph,
    plans: &[Plan],
    make: impl FnOnce() -> B,
) -> CaseRun {
    let t0 = Instant::now();
    let mut b = make();
    let a0 = sc_host::alloc::thread_stats();
    let mut caller_s = 0.0;
    let mut count = 0;
    for plan in plans {
        let t = Instant::now();
        count += exec::count(g, plan, &mut b);
        caller_s += t.elapsed().as_secs_f64();
    }
    let allocs = sc_host::alloc::thread_stats().since(&a0).count;
    let inside = b.ledger().total();
    b.finish();
    let wall_s = t0.elapsed().as_secs_f64();
    CaseRun {
        wall_s,
        caller_self_s: caller_s - inside.secs,
        caller_calls: inside.calls,
        caller_self_allocs: allocs.saturating_sub(inside.allocs),
        output: Output::Count(count),
        stats: b.sim_stats(),
        ledger: b.ledger(),
    }
}

/// Run one tensor kernel on `b`.
fn kernel<B: TensorBackend>(case: Case, ti: &TensorInputs, b: &mut B) -> Output {
    match case {
        Case::Inner => {
            let opts = InnerOptions { row_sample: Some(INNER_ROW_SAMPLE) };
            Output::Matrix(inner_product(&ti.a, &ti.a_csc, b, opts).c)
        }
        Case::Outer => Output::Matrix(outer_product(&ti.a_csc, &ti.a, b).c),
        Case::Gustavson => Output::Matrix(gustavson(&ti.a, &ti.a, b).c),
        Case::Ttv => Output::Ttv(ttv_sampled(&ti.t, &ti.v, b, FIBER_STRIDE).z),
        Case::Ttm => Output::Ttm(ttm_sampled(&ti.t, &ti.factor, b, FIBER_STRIDE).z),
        Case::Gpm { .. } => unreachable!("GPM case routed to the tensor path"),
    }
}

/// Run a tensor kernel with the backend `make` builds.
fn kernel_case<B: TensorBackend + Observe>(
    case: Case,
    ti: &TensorInputs,
    make: impl FnOnce() -> B,
) -> CaseRun {
    let t0 = Instant::now();
    let mut b = make();
    let a0 = sc_host::alloc::thread_stats();
    let t = Instant::now();
    let output = kernel(case, ti, &mut b);
    let caller_s = t.elapsed().as_secs_f64();
    let allocs = sc_host::alloc::thread_stats().since(&a0).count;
    let wall_s = t0.elapsed().as_secs_f64();
    // The kernels drain the machine themselves, so every span is inside.
    let inside = b.ledger().total();
    CaseRun {
        wall_s,
        caller_self_s: caller_s - inside.secs,
        caller_calls: inside.calls,
        caller_self_allocs: allocs.saturating_sub(inside.allocs),
        output,
        stats: b.sim_stats(),
        ledger: b.ledger(),
    }
}

/// Simulate `case` of workload `w` once on a fresh backend, through the
/// tracing decorator when `traced`.
pub fn run_case(w: Workload, inputs: &Inputs, case: Case, traced: bool) -> CaseRun {
    let cfg = w.engine_config();
    match (case, w) {
        (Case::Gpm { graph, app }, Workload::GpmScalar) => {
            let (g, plans) = (&inputs.graphs[graph], &inputs.plans[app]);
            if traced {
                gpm_case(g, plans, || Timed::new(ScalarBackend::new(g)))
            } else {
                gpm_case(g, plans, || ScalarBackend::new(g))
            }
        }
        (Case::Gpm { graph, app }, _) => {
            let (g, plans) = (&inputs.graphs[graph], &inputs.plans[app]);
            let nested = APPS[app].uses_nested();
            let make = || StreamBackend::with_engine(g, Engine::new(cfg), nested);
            if traced {
                gpm_case(g, plans, || Timed::new(make()))
            } else {
                gpm_case(g, plans, make)
            }
        }
        _ => {
            let ti = inputs.tensor.as_ref().expect("tensor case without tensor inputs");
            let make = || StreamTensorBackend::with_engine(Engine::new(cfg));
            if traced {
                kernel_case(case, ti, || Timed::new(make()))
            } else {
                kernel_case(case, ti, make)
            }
        }
    }
}
