//! Integration tests for the simulated-clock span layer and the
//! `sc-explain` critical-path extraction, as the bench binaries wire
//! them: the golden span taxonomy, byte-identical determinism across
//! repeats and core counts, the probes-off overhead budget, the
//! critical-path conservation invariant on real workloads, and the
//! attribution-diff acceptance scenario (a halved S-Cache names the
//! S-Cache as the top contributor).

use std::time::Instant;

use sc_bench::{run_sparsecore_backend, run_sparsecore_probed};
use sc_explain::{extract, rank_attr_deltas, render_top, AttrMap};
use sc_gpm::plan::Induced;
use sc_gpm::sched::{count_stream_dynamic_probed, DEFAULT_CHUNK};
use sc_gpm::{App, Pattern, Plan};
use sc_graph::generators::uniform_graph;
use sc_graph::Dataset;
use sc_kernels::gustavson_multicore_probed;
use sc_probe::spans::snapshots_to_json;
use sc_probe::{AttrBin, Probe, ProbeLevel, Site};
use sc_tensor::MatrixDataset;
use sparsecore::{SchedMode, SparseCoreConfig};

fn spans_probe() -> Probe {
    let probe = Probe::new(ProbeLevel::Metrics);
    probe.enable_spans();
    probe
}

/// The span-site taxonomy is part of the observability contract: names
/// appear in span JSON, `sc-explain` reports, and the HTML timeline,
/// and each site rolls up to exactly one attribution bin. A new site
/// must be added here (and to DESIGN.md's table) deliberately.
#[test]
fn span_taxonomy_is_golden() {
    const GOLDEN: &[(&str, &str)] = &[
        ("scalar", "scalar_overlap"),
        ("su_busy", "su_compare"),
        ("su_retire", "su_compare"),
        ("drain", "su_compare"),
        ("stream_setup", "scache_refill"),
        ("scache_fill", "scache_refill"),
        ("mem_ready", "mem_stall"),
        ("translator", "translator"),
        ("chunk_claim", "su_compare"),
    ];
    assert_eq!(Site::COUNT, GOLDEN.len());
    for (site, &(name, bin)) in Site::ALL.iter().zip(GOLDEN) {
        assert_eq!(site.name(), name, "site order/name changed");
        assert_eq!(site.bin().name(), bin, "site {name} rolls up to a different bin");
        assert_eq!(Site::parse(name), Some(*site), "name no longer round-trips");
    }
    // Every attribution bin is refined by at least one site, so the
    // site totals can always reproduce the Figure 9/10 attribution.
    for bin in AttrBin::ALL {
        assert!(Site::ALL.iter().any(|s| s.bin() == bin), "no site refines {}", bin.name());
    }
}

/// One dynamic-scheduler run's span document, serialized.
fn dynamic_span_doc(g: &sc_graph::CsrGraph, plan: &Plan, cores: usize) -> String {
    let probe = spans_probe();
    let (run, _) = count_stream_dynamic_probed(
        g,
        plan,
        SparseCoreConfig::paper(),
        true,
        cores,
        DEFAULT_CHUNK,
        probe.clone(),
    );
    let snaps = probe.take_spans();
    assert_eq!(snaps.len(), cores, "one span snapshot per core");
    for snap in &snaps {
        assert_eq!(
            snap.per_bin().iter().sum::<u64>(),
            run.per_core[snap.core],
            "core {}: span totals must sum to the core's final clock",
            snap.core
        );
    }
    snapshots_to_json(&snaps)
}

/// The simulator is deterministic, and the span layer must not break
/// that: repeating a run yields a byte-identical span stream, at every
/// core count the schedulers support.
#[test]
fn span_streams_are_byte_identical_across_repeats() {
    let g = uniform_graph(80, 700, 17);
    let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
    for cores in [1usize, 2, 6] {
        let a = dynamic_span_doc(&g, &plan, cores);
        let b = dynamic_span_doc(&g, &plan, cores);
        assert_eq!(a, b, "span stream diverged across repeats at {cores} core(s)");
        assert!(!a.is_empty());
    }
}

/// Probe level 0 must stay within the <5% overhead budget: with the
/// probe off the span log is never allocated and the only residue is a
/// null-pointer branch per clock advance, so a probes-off run can cost
/// at most noise more than the fully instrumented spans-on run of the
/// same workload. Medians over several repetitions keep this stable.
#[test]
fn probes_off_stays_within_the_overhead_budget() {
    let g = uniform_graph(120, 1400, 23);
    let time = |probe: &Probe| {
        let mut samples: Vec<u128> = (0..5)
            .map(|_| {
                let t0 = Instant::now();
                let m =
                    run_sparsecore_probed(&g, App::Triangle, SparseCoreConfig::paper(), 1, probe);
                assert!(m.cycles > 0);
                let _ = probe.take_spans();
                t0.elapsed().as_nanos()
            })
            .collect();
        samples.sort_unstable();
        samples[samples.len() / 2]
    };
    // Warm up caches and the page allocator before timing anything.
    let _ = run_sparsecore_probed(&g, App::Triangle, SparseCoreConfig::paper(), 1, &Probe::off());
    let t_off = time(&Probe::off());
    let t_spans = time(&spans_probe());
    // The spans-on path does strictly more work per clock advance, so a
    // probes-off run exceeding it by more than the 5% budget means the
    // off path regressed (e.g. the log got allocated unconditionally).
    assert!(
        t_off as f64 <= t_spans as f64 * 1.05,
        "probes-off run ({t_off} ns) slower than spans-on ({t_spans} ns) beyond the 5% budget"
    );
}

/// The acceptance invariant on real golden-matrix workloads: the
/// extracted critical path's length equals the final simulated clock,
/// serial and multicore, GPM and tensor.
#[test]
fn critical_path_equals_final_clock_on_serial_gpm() {
    for (app, d) in [
        (App::Triangle, Dataset::Citeseer),
        (App::TriangleNoNested, Dataset::Citeseer),
        (App::ThreeChain, Dataset::EmailEuCore),
    ] {
        let g = d.build();
        let probe = spans_probe();
        let (m, backend) = run_sparsecore_backend(&g, app, SparseCoreConfig::paper(), 1, &probe);
        let snaps = probe.take_spans();
        let ex = extract(&snaps).expect("conservation holds");
        // Stride 1, so the measurement's cycles are the engine clock.
        assert_eq!(ex.makespan, m.cycles, "{app}/{}: critical path != final clock", d.tag());
        assert_eq!(ex.makespan, backend.engine().attribution().total());
        assert_eq!(ex.per_bin(), backend.engine().attribution().bins());
        assert_eq!(ex.critical_core, 0);
    }
}

#[test]
fn critical_path_equals_final_clock_on_multicore_dynamic() {
    let g = Dataset::Citeseer.build();
    let plan = Plan::compile(&Pattern::triangle(), &[0, 1, 2], Induced::Vertex);
    for cores in [2usize, 6] {
        let probe = spans_probe();
        let (run, _) = count_stream_dynamic_probed(
            &g,
            &plan,
            SparseCoreConfig::paper(),
            true,
            cores,
            DEFAULT_CHUNK,
            probe.clone(),
        );
        let ex = extract(&probe.take_spans()).expect("conservation holds");
        assert_eq!(ex.makespan, run.cycles, "{cores} cores: critical path != makespan");
        assert_eq!(ex.per_core, run.per_core);
        let slack: u64 = run.per_core.iter().map(|&c| run.cycles - c).sum();
        assert_eq!(ex.idle_cycles, slack, "barrier idle must equal the per-core slack");
        let text = ex.render_text();
        assert!(text.contains(&format!("critical path: {} cycles", run.cycles)), "{text}");
    }
}

#[test]
fn critical_path_equals_final_clock_on_multicore_spmspm() {
    let a = MatrixDataset::Circuit204.build();
    let probe = spans_probe();
    let (_, run, _) = gustavson_multicore_probed(
        &a,
        &a,
        SparseCoreConfig::paper_one_su(),
        2,
        SchedMode::Dynamic,
        DEFAULT_CHUNK,
        probe.clone(),
    );
    let ex = extract(&probe.take_spans()).expect("conservation holds");
    assert_eq!(ex.makespan, run.cycles);
    assert_eq!(ex.per_core, run.per_core);
}

/// The acceptance scenario for `sc-report explain`: run the same
/// workloads under the paper configuration and under a perturbed one
/// (S-Cache capacity halved), diff the per-workload attribution, and
/// the ranking must name the S-Cache refill bin as the top contributor.
#[test]
fn halved_scache_names_scache_refill_as_top_contributor() {
    let mut small = SparseCoreConfig::paper();
    small.scache.slot_keys /= 8; // an eighth of the window: short streams start refilling

    let mut base = AttrMap::new();
    let mut cand = AttrMap::new();
    for (app, d) in
        [(App::TriangleNoNested, Dataset::Citeseer), (App::TriangleNoNested, Dataset::EmailEuCore)]
    {
        let key = format!("fig08/{app}/{}", d.tag());
        let g = d.build();
        let (_, b) = run_sparsecore_backend(&g, app, SparseCoreConfig::paper(), 1, &Probe::off());
        base.insert(key.clone(), b.engine().attribution().bins());
        let (_, c) = run_sparsecore_backend(&g, app, small, 1, &Probe::off());
        cand.insert(key, c.engine().attribution().bins());
    }
    let ranked = rank_attr_deltas(&base, &cand);
    assert!(!ranked.is_empty(), "halving the S-Cache changed no attribution at all");
    assert_eq!(
        ranked[0].bin,
        AttrBin::ScacheRefill.name(),
        "top contributor should be the perturbed component, got {:?}",
        ranked[0]
    );
    assert!(ranked[0].delta > 0, "a smaller S-Cache must cost cycles");
    let text = render_top(&ranked, 10);
    assert!(text.contains("scache_refill"), "{text}");
}
