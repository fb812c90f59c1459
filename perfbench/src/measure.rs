//! The measurement loop and the metrics it yields.
//!
//! A pass simulates every case of the workload once, each on a fresh
//! backend. Passes repeat until the time budget is spent (at least one).
//! In a traced run, untraced and traced passes alternate, so both see the
//! same host conditions and `trace.overhead_frac` compares like with like.

use crate::sim::{run_case, CaseRun, SimStats};
use crate::trace::{Call, Ledger};
use crate::workload::{check, Case, Inputs, References, SetupTimes, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// What one case produced across passes.
#[derive(Debug, Clone, Default)]
struct CaseLog {
    /// Digest and statistics of the first completed run.
    first: Option<(u64, SimStats)>,
    untraced_walls: Vec<f64>,
    traced_walls: Vec<f64>,
}

/// Everything measured in one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Measurement {
    logs: Vec<CaseLog>,
    /// Case simulations attempted.
    pub attempted: u64,
    /// Case simulations that failed a check or did not complete.
    pub failed: u64,
    /// Traced passes run.
    pub traced_passes: u64,
    /// Untraced passes run.
    pub untraced_passes: u64,
    /// Backend spans summed over traced passes.
    ledger: Ledger,
    /// Caller self time, calls and self allocations, summed over traced
    /// passes.
    caller_self_s: f64,
    caller_calls: u64,
    caller_self_allocs: u64,
    /// Case walls summed over traced passes.
    traced_wall_s: f64,
}

impl Measurement {
    fn new(cases: usize) -> Self {
        Measurement { logs: vec![CaseLog::default(); cases], ..Measurement::default() }
    }

    /// Tally one case simulation: it passes when it completed, its result
    /// matches the reference, and its digest equals the case's first run.
    fn record(&mut self, i: usize, run: Option<(CaseRun, bool)>, traced: bool) {
        self.attempted += 1;
        let Some((run, correct)) = run else {
            self.failed += 1;
            return;
        };
        let log = &mut self.logs[i];
        let digest = run.digest();
        let first = *log.first.get_or_insert((digest, run.stats));
        if !correct || first.0 != digest {
            self.failed += 1;
        }
        if traced {
            log.traced_walls.push(run.wall_s);
            self.ledger.absorb(&run.ledger);
            self.caller_self_s += run.caller_self_s;
            self.caller_calls += run.caller_calls;
            self.caller_self_allocs += run.caller_self_allocs;
            self.traced_wall_s += run.wall_s;
        } else {
            log.untraced_walls.push(run.wall_s);
        }
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Σ over cases of the median untraced (or traced) case wall.
    pub fn sim_wall_s(&self, traced: bool) -> f64 {
        self.logs
            .iter()
            .map(|l| median(if traced { &l.traced_walls } else { &l.untraced_walls }))
            .sum()
    }

    /// The per-case first-run digests and statistics.
    pub fn firsts(&self) -> impl Iterator<Item = Option<(u64, SimStats)>> + '_ {
        self.logs.iter().map(|l| l.first)
    }

    /// Σ simulated cycles over cases.
    pub fn sim_cycles(&self) -> u64 {
        self.firsts().flatten().map(|(_, s)| s.cycles).sum()
    }

    /// The run digest: FNV over the per-case digests.
    pub fn digest(&self) -> u64 {
        crate::workload::fnv1a(self.firsts().map(|f| f.map_or(0, |(d, _)| d)))
    }
}

/// Simulate `case`, catching a panic as a failed case, and check its
/// result (outside the timed region).
fn attempt(
    w: Workload,
    inputs: &Inputs,
    refs: &References,
    case: Case,
    traced: bool,
) -> Option<(CaseRun, bool)> {
    let run = catch_unwind(AssertUnwindSafe(|| run_case(w, inputs, case, traced))).ok()?;
    let correct = check(case, &run.output, inputs, refs);
    Some((run, correct))
}

/// Run passes over `cases` until `budget` is spent.
pub fn measure(
    w: Workload,
    inputs: &Inputs,
    refs: &References,
    cases: &[Case],
    budget: Duration,
    trace: bool,
) -> Measurement {
    let mut m = Measurement::new(cases.len());
    let start = Instant::now();
    let mut rounds = 0u32;
    loop {
        let modes: &[bool] = if trace { &[false, true] } else { &[false] };
        for &traced in modes {
            for (i, &case) in cases.iter().enumerate() {
                let run = attempt(w, inputs, refs, case, traced);
                m.record(i, run, traced);
            }
            if traced {
                m.traced_passes += 1;
            } else {
                m.untraced_passes += 1;
            }
        }
        rounds += 1;
        // Start another round only if it should end within the budget.
        let elapsed = start.elapsed();
        if elapsed + elapsed / rounds > budget {
            return m;
        }
    }
}

/// A named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(m: &Measurement, setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let wall = m.sim_wall_s(false);
    let cycles = m.sim_cycles() as f64;
    vec![
        metric("sim_wall_s", wall, "s"),
        metric("sim_mcycles_per_s", cycles / wall.max(f64::MIN_POSITIVE) / 1e6, "Mcycles/s"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MB"),
        metric("sim_cycles", cycles, "cycles"),
    ]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run. Timers are per traced pass;
/// counts are per pass (they repeat exactly); setup timers are medians
/// over the setup repetitions.
pub fn per_layer(w: Workload, m: &Measurement, setups: &[SetupTimes]) -> Vec<Metric> {
    let passes = m.traced_passes.max(1) as f64;
    let per_pass = |x: f64| x / passes;
    let med = |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());

    // Simulated counts, summed over cases (one pass).
    let mut eng = crate::sim::EngineCounts::default();
    let (mut core, mut mem) = (sc_cpu::CoreStats::default(), sc_mem::HierarchyStats::default());
    for (_, s) in m.firsts().flatten() {
        if let Some(e) = s.engine {
            eng.reads += e.reads;
            eng.set_ops += e.set_ops;
            eng.value_ops += e.value_ops;
            eng.su_busy_cycles += e.su_busy_cycles;
            eng.elements_streamed += e.elements_streamed;
            eng.scratchpad_hits += e.scratchpad_hits;
            eng.scratchpad_misses += e.scratchpad_misses;
        }
        core.uops += s.core.uops;
        core.branches += s.core.branches;
        core.mispredicts += s.core.mispredicts;
        core.loads += s.core.loads;
        mem.l1_hits += s.mem.l1_hits;
        mem.l2_hits += s.mem.l2_hits;
        mem.l3_hits += s.mem.l3_hits;
        mem.dram_accesses += s.mem.dram_accesses;
        mem.total_latency += s.mem.total_latency;
    }

    // Backend spans belong to `core` on the stream backends and to
    // `sc-cpu` on the scalar backend; the other layer's timers read 0.
    let l = &m.ledger;
    let (core_l, cpu_l) =
        if w.uses_engine() { (*l, Ledger::default()) } else { (Ledger::default(), *l) };
    let secs = |ledger: &Ledger, calls: &[Call]| per_pass(ledger.sum(calls).secs);
    let calls = |ledger: &Ledger, kinds: &[Call]| per_pass(ledger.sum(kinds).calls as f64);
    let su_s = secs(&core_l, &[Call::SetOp, Call::Nested, Call::VInter, Call::VMerge]);
    let core_total = core_l.total();
    let cpu_s = secs(&cpu_l, &Call::ALL);
    // The caller is `sc-gpm`'s exec on the GPM workloads and `sc-kernels`
    // on the tensor workload; the other caller's metrics read 0.
    let caller = [
        per_pass(m.caller_self_s),
        per_pass(m.caller_calls as f64),
        per_pass(m.caller_self_allocs as f64),
    ];
    let (gpm, kernels) = if w.is_gpm() { (caller, [0.0; 3]) } else { ([0.0; 3], caller) };
    let elements = eng.elements_streamed as f64;
    let loads = mem.loads();
    let traced_wall = per_pass(m.traced_wall_s);
    let accounted = per_pass(m.caller_self_s) + per_pass(l.total().secs);

    vec![
        metric("sc-graph.generate_s", med(|s| s.graph_s), "s"),
        metric("sc-tensor.generate_s", med(|s| s.tensor_s), "s"),
        metric("sc-gpm.plan_compile_s", med(|s| s.plan_s), "s"),
        metric("sc-gpm.exec.self_s", gpm[0], "s"),
        metric("sc-gpm.exec.backend_calls", gpm[1], "count"),
        metric("sc-gpm.exec.alloc_count", gpm[2], "count"),
        metric("core.s_read_s", secs(&core_l, &[Call::Read]), "s"),
        metric("core.s_read_calls", calls(&core_l, &[Call::Read]), "count"),
        metric("core.setop_s", secs(&core_l, &[Call::SetOp]), "s"),
        metric("core.setop_calls", calls(&core_l, &[Call::SetOp]), "count"),
        metric("core.nestinter_s", secs(&core_l, &[Call::Nested]), "s"),
        metric("core.nestinter_calls", calls(&core_l, &[Call::Nested]), "count"),
        metric("core.fetch_s", secs(&core_l, &[Call::Fetch]), "s"),
        metric("core.free_s", secs(&core_l, &[Call::Free]), "s"),
        metric("core.scalar_s", secs(&core_l, &[Call::Scalar, Call::Finish]), "s"),
        metric("core.vread_s", secs(&core_l, &[Call::VRead]), "s"),
        metric("core.vinter_s", secs(&core_l, &[Call::VInter]), "s"),
        metric("core.vmerge_s", secs(&core_l, &[Call::VMerge]), "s"),
        metric("core.set_ops", eng.set_ops as f64, "count"),
        metric("core.elements_streamed", elements, "count"),
        metric("core.reads", eng.reads as f64, "count"),
        metric("core.value_ops", eng.value_ops as f64, "count"),
        metric("core.su_busy_cycles", eng.su_busy_cycles as f64, "cycles"),
        metric("core.setop_ns_per_element", ratio(su_s * 1e9, elements), "ns"),
        metric(
            "core.scratchpad_hit_rate",
            ratio(eng.scratchpad_hits as f64, (eng.scratchpad_hits + eng.scratchpad_misses) as f64),
            "ratio",
        ),
        metric(
            "core.allocs_per_kelement",
            ratio(per_pass(core_total.allocs as f64) * 1e3, elements),
            "count",
        ),
        metric("core.alloc_bytes", per_pass(core_total.alloc_bytes as f64), "bytes"),
        metric("sc-cpu.setop_s", secs(&cpu_l, &[Call::SetOp]), "s"),
        metric("sc-cpu.setop_calls", calls(&cpu_l, &[Call::SetOp]), "count"),
        metric("sc-cpu.read_s", secs(&cpu_l, &[Call::Read]), "s"),
        metric(
            "sc-cpu.other_s",
            secs(&cpu_l, &[Call::Nested, Call::Fetch, Call::Free, Call::Scalar, Call::Finish]),
            "s",
        ),
        metric("sc-cpu.uops", core.uops as f64, "count"),
        metric("sc-cpu.branches", core.branches as f64, "count"),
        metric("sc-cpu.loads", core.loads as f64, "count"),
        metric(
            "sc-cpu.mispredict_rate",
            ratio(core.mispredicts as f64, core.branches as f64),
            "ratio",
        ),
        metric("sc-cpu.ns_per_load", ratio(cpu_s * 1e9, core.loads as f64), "ns"),
        metric("sc-mem.loads", loads as f64, "count"),
        metric("sc-mem.l1_hit_rate", ratio(mem.l1_hits as f64, loads as f64), "ratio"),
        metric(
            "sc-mem.l2_hit_rate",
            ratio(mem.l2_hits as f64, (loads - mem.l1_hits) as f64),
            "ratio",
        ),
        metric("sc-mem.dram_accesses", mem.dram_accesses as f64, "count"),
        metric("sc-mem.mean_latency_cycles", mem.mean_latency(), "cycles"),
        metric("sc-kernels.self_s", kernels[0], "s"),
        metric("sc-kernels.backend_calls", kernels[1], "count"),
        metric(
            "trace.overhead_frac",
            ratio(m.sim_wall_s(true), m.sim_wall_s(false)) - 1.0,
            "ratio",
        ),
        metric("trace.unexplained_s", traced_wall - accounted, "s"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{cases, references, setup, tests::tiny, Output};

    /// Run one pass of `w` on tiny inputs, corrupting each result with
    /// `corrupt` before it is checked and tallied.
    fn tally_one_pass(w: Workload, corrupt: fn(&mut Output)) -> Measurement {
        let (inputs, _) = setup(w, 7, &tiny());
        let refs = references(&inputs);
        let cases = cases(w, &inputs);
        let mut m = Measurement::new(cases.len());
        for (i, &case) in cases.iter().enumerate() {
            let mut run = run_case(w, &inputs, case, false);
            corrupt(&mut run.output);
            let correct = check(case, &run.output, &inputs, &refs);
            m.record(i, Some((run, correct)), false);
        }
        m
    }

    #[test]
    fn clean_results_pass() {
        for w in Workload::ALL {
            let m = tally_one_pass(w, |_| {});
            assert_eq!((m.failed, m.error_rate()), (0, 0.0), "{w:?}");
            assert_eq!(m.attempted, cases(w, &setup(w, 7, &tiny()).0).len() as u64);
        }
    }

    #[test]
    fn corrupted_results_count_as_failures() {
        let corrupt: fn(&mut Output) = |out| match out {
            Output::Count(c) => *c += 1,
            Output::Matrix(m) => {
                *m = sc_tensor::CsrMatrix::from_triplets(m.rows(), m.cols(), &[(0, 0, 123.0)])
            }
            Output::Ttv(z) => z.iter_mut().flatten().for_each(|x| *x += 1.0),
            Output::Ttm(z) => z.iter_mut().flatten().flatten().for_each(|x| *x += 1.0),
        };
        for w in Workload::ALL {
            let m = tally_one_pass(w, corrupt);
            assert_eq!(m.failed, m.attempted, "{w:?}: a corrupted result passed");
            assert!(m.error_rate() > 0.0);
        }
    }

    #[test]
    fn a_digest_change_between_passes_counts_as_a_failure() {
        let w = Workload::GpmStream;
        let (inputs, _) = setup(w, 7, &tiny());
        let case = cases(w, &inputs)[0];
        let mut m = Measurement::new(1);
        let run = run_case(w, &inputs, case, false);
        let mut drifted = run.clone();
        drifted.stats.cycles += 1;
        m.record(0, Some((run, true)), false);
        m.record(0, Some((drifted, true)), false);
        m.record(0, None, false);
        assert_eq!((m.attempted, m.failed), (3, 2));
    }

    #[test]
    fn runs_repeat_exactly_and_tracing_does_not_perturb_the_model() {
        for w in Workload::ALL {
            let (inputs, _) = setup(w, 11, &tiny());
            let refs = references(&inputs);
            let cases = cases(w, &inputs);
            let budget = Duration::ZERO;
            let a = measure(w, &inputs, &refs, &cases, budget, true);
            let b = measure(w, &inputs, &refs, &cases, budget, false);
            assert_eq!((a.failed, a.traced_passes, b.failed), (0, 1, 0), "{w:?}");
            assert_eq!(a.digest(), b.digest(), "{w:?}");
            assert_eq!(a.sim_cycles(), b.sim_cycles(), "{w:?}");
            assert!(a.sim_cycles() > 0);
        }
    }

    #[test]
    fn traced_spans_cover_the_callers_backend_calls() {
        let w = Workload::GpmStream;
        let (inputs, _) = setup(w, 3, &tiny());
        let refs = references(&inputs);
        let m = measure(w, &inputs, &refs, &cases(w, &inputs), Duration::ZERO, true);
        // Every backend call is inside exec except the final drain.
        let finishes = m.ledger.sum(&[Call::Finish]).calls;
        assert_eq!(m.caller_calls + finishes, m.ledger.total().calls);
        assert!(m.ledger.sum(&[Call::SetOp]).calls > 0);
    }
}
