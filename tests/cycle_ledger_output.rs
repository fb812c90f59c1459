//! Pins every cycle report the core's cycle ledger feeds.
//!
//! One ledger in `sc_cpu::Core` is projected into the Figure 9
//! breakdown, the five-bin attribution and the per-site span totals;
//! `sc-explain` renders the span logs. This test runs small workloads
//! (serial GPM runs of three apps with their scalar CPU baselines, a
//! 2-core dynamic GPM run and a 2-core Gustavson run) and compares every
//! one of those reports byte for byte with
//! `tests/snapshots/cycle_ledger_output.txt`.
//!
//! On a mismatch the fresh rendering is written next to the test's
//! scratch directory and its path is printed; copy it over the snapshot
//! only when the output change is intended.

use sc_explain::extract;
use sc_gpm::exec::{self, ScalarBackend, SetBackend, StreamBackend};
use sc_gpm::sched::{count_stream_dynamic_probed, DEFAULT_CHUNK};
use sc_gpm::App;
use sc_graph::generators::uniform_graph;
use sc_kernels::gustavson_multicore_probed;
use sc_probe::spans::snapshots_to_json;
use sc_probe::{Probe, ProbeLevel, SpanSnapshot};
use sc_tensor::generators::random_matrix;
use sparsecore::{Engine, SchedMode, SparseCoreConfig};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "tests/snapshots/cycle_ledger_output.txt";

fn spans_probe() -> Probe {
    let probe = Probe::new(ProbeLevel::Metrics);
    probe.enable_spans();
    probe
}

/// The span document, per-core attribution rows and critical-path
/// report of one workload's snapshots.
fn render_spans(out: &mut String, snaps: &[SpanSnapshot]) {
    for snap in snaps {
        writeln!(
            out,
            "core {} attribution {:?} idle {}",
            snap.core,
            snap.per_bin(),
            snap.idle_tail
        )
        .unwrap();
    }
    writeln!(out, "spans {}", snapshots_to_json(snaps)).unwrap();
    let ex = extract(snaps).expect("span logs conserve cycles");
    writeln!(out, "explain per-bin {:?}", ex.per_bin()).unwrap();
    out.push_str(&ex.render_text());
}

fn render_all() -> String {
    let mut out = String::new();
    let g = uniform_graph(60, 360, 11);
    for app in [App::Triangle, App::TriangleNoNested, App::ThreeChain] {
        writeln!(out, "==== serial stream: {app} on uniform_graph(60, 360, 11)").unwrap();
        let probe = spans_probe();
        let mut engine = Engine::new(SparseCoreConfig::paper());
        engine.set_probe(probe.clone());
        let mut b = StreamBackend::with_engine(&g, engine, app.uses_nested());
        let count: u64 = app.plans().iter().map(|plan| exec::count(&g, plan, &mut b)).sum();
        let cycles = b.finish();
        b.engine().submit_spans(0);
        let attr = b.engine().attribution();
        writeln!(out, "count {count} cycles {cycles}").unwrap();
        writeln!(out, "breakdown {:?}", b.engine().breakdown()).unwrap();
        writeln!(out, "breakdown {}", b.engine().breakdown()).unwrap();
        writeln!(out, "attribution {}", attr.to_json()).unwrap();
        writeln!(out, "attribution {attr}").unwrap();
        render_spans(&mut out, &probe.take_spans());

        writeln!(out, "==== serial scalar: {app} on uniform_graph(60, 360, 11)").unwrap();
        let mut s = ScalarBackend::new(&g);
        let count: u64 = app.plans().iter().map(|plan| exec::count(&g, plan, &mut s)).sum();
        let cycles = s.finish();
        writeln!(out, "count {count} cycles {cycles}").unwrap();
        writeln!(out, "breakdown {:?}", s.core().breakdown()).unwrap();
        writeln!(out, "breakdown {}", s.core().breakdown()).unwrap();
    }

    let app = App::Triangle;
    writeln!(out, "==== dynamic stream: {app} on 2 cores").unwrap();
    let probe = spans_probe();
    let plan = &app.plans()[0];
    let (run, _) = count_stream_dynamic_probed(
        &g,
        plan,
        SparseCoreConfig::paper(),
        true,
        2,
        DEFAULT_CHUNK,
        probe.clone(),
    );
    writeln!(out, "count {} cycles {} per-core {:?}", run.count, run.cycles, run.per_core).unwrap();
    render_spans(&mut out, &probe.take_spans());

    writeln!(out, "==== dynamic gustavson: random_matrix(48, 48, 240, 5) squared on 2 cores")
        .unwrap();
    let a = random_matrix(48, 48, 240, 5);
    let probe = spans_probe();
    let (c, run, _) = gustavson_multicore_probed(
        &a,
        &a,
        SparseCoreConfig::paper_one_su(),
        2,
        SchedMode::Dynamic,
        DEFAULT_CHUNK,
        probe.clone(),
    );
    writeln!(out, "nnz {} cycles {} per-core {:?}", c.c.nnz(), run.cycles, run.per_core).unwrap();
    render_spans(&mut out, &probe.take_spans());
    out
}

#[test]
fn cycle_reports_match_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let actual = render_all();
    let expected = std::fs::read_to_string(root.join(SNAPSHOT))
        .unwrap_or_else(|e| panic!("read {SNAPSHOT}: {e}"));
    if actual != expected {
        let fresh: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cycle_ledger_output.txt");
        std::fs::write(&fresh, &actual).expect("write fresh rendering");
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "cycle reports differ from {SNAPSHOT} at line {}; fresh rendering in {}",
            line + 1,
            fresh.display()
        );
    }
}
