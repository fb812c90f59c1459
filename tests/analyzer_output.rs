//! Pins the exact output of the three static analyzers.
//!
//! `sc-lint`, `sc-verify` and `sc-cost` read the same stream-lifetime
//! facts and render them as findings. This test renders every program
//! in the corpus (`programs/*.sasm`, `crates/sc-lint/tests/fixtures/`
//! and the faulty fixtures in `tests/fixtures/analyzer/`) through all
//! three tools under two machine configurations, in the same human
//! layout the CLIs print plus the JSON and SARIF renderings, and
//! compares the result byte for byte with
//! `tests/snapshots/analyzer_output.txt`. Finding text, severity,
//! anchor and emission order are all observable, so any refactor of
//! the analyses must keep them exactly.
//!
//! On a mismatch the fresh rendering is written next to the test's
//! scratch directory and its path is printed; copy it over the snapshot
//! only when the output change is intended.

use sc_cost::cost_program;
use sc_isa::Program;
use sc_lint::{lint, LintConfig, Report};
use sc_verify::{verify_program, VerifyConfig, OUT_ALLOC_BASE};
use sparsecore::SparseCoreConfig;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "tests/snapshots/analyzer_output.txt";

/// One machine configuration, expressed for each tool.
struct Setup {
    name: &'static str,
    lint: LintConfig,
    verify: VerifyConfig,
    cost: SparseCoreConfig,
    /// Also render the JSON and SARIF forms (the human form is always
    /// rendered).
    machine_readable: bool,
}

fn setups() -> Vec<Setup> {
    vec![
        Setup {
            name: "paper",
            lint: LintConfig::paper(),
            verify: VerifyConfig::paper(),
            cost: SparseCoreConfig::paper(),
            machine_readable: true,
        },
        Setup {
            name: "tight: 3 registers, virtualized, output region protected, tiny cost config",
            lint: LintConfig::paper().stream_registers(3).virtualization(true),
            verify: VerifyConfig::paper()
                .with_stream_registers(3)
                .virtualized()
                .protect(OUT_ALLOC_BASE, OUT_ALLOC_BASE + 0x1000),
            cost: SparseCoreConfig::tiny(),
            machine_readable: false,
        },
    ]
}

/// Every `.sasm` file in `dir`, sorted by name, as repo-relative paths.
fn sasm_files(root: &Path, dir: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(root.join(dir))
        .unwrap_or_else(|e| panic!("read {dir}: {e}"))
        .map(|e| e.expect("dir entry").file_name().into_string().expect("utf-8 name"))
        .filter(|n| n.ends_with(".sasm"))
        .collect();
    names.sort();
    names.into_iter().map(|n| format!("{dir}/{n}")).collect()
}

fn corpus(root: &Path) -> Vec<String> {
    ["programs", "crates/sc-lint/tests/fixtures", "tests/fixtures/analyzer"]
        .iter()
        .flat_map(|d| sasm_files(root, d))
        .collect()
}

fn render_lint(out: &mut String, path: &str, program: &Program, report: &Report) {
    if report.is_empty() {
        writeln!(out, "{path}: ok ({} instructions)", program.len()).unwrap();
    } else {
        for d in report.diagnostics() {
            writeln!(out, "{path}: {d}").unwrap();
        }
        let (errors, warnings, _) = report.counts();
        writeln!(out, "{path}: {errors} error(s), {warnings} warning(s)").unwrap();
    }
}

fn render(path: &str, program: &Program, setup: &Setup) -> String {
    let mut out = String::new();

    let report = lint(program, &setup.lint);
    writeln!(out, "-- sc-lint").unwrap();
    render_lint(&mut out, path, program, &report);
    if setup.machine_readable {
        writeln!(out, "{}", report.to_json()).unwrap();
        writeln!(out, "{}", report.to_sarif(path)).unwrap();
    }

    let v = verify_program(program, &setup.verify);
    writeln!(out, "-- sc-verify --proofs").unwrap();
    writeln!(
        out,
        "{path}: {} ({} instructions, peak pressure {}, scratchpad <= {} B)",
        v.status(),
        program.len(),
        v.max_pressure,
        v.scratch_peak,
    )
    .unwrap();
    for d in v.report.diagnostics() {
        writeln!(out, "{path}: {d}").unwrap();
    }
    for p in &v.proofs {
        let codes: Vec<&str> = p.subsumes.iter().map(|c| c.as_str()).collect();
        writeln!(out, "{path}: proven: {} [{}]", p.obligation, codes.join(", ")).unwrap();
    }
    writeln!(out, "pressure {:?}", v.pressure).unwrap();
    if setup.machine_readable {
        writeln!(out, "{}", v.report.to_json()).unwrap();
        writeln!(out, "{}", v.report.to_sarif_with_driver(path, "sc-verify")).unwrap();
    }

    let c = cost_program(program, &setup.cost);
    let cost = &c.cost;
    writeln!(out, "-- sc-cost --proofs --regions").unwrap();
    writeln!(
        out,
        "{path}: {} ({} instructions, cycles {}, traffic [{}, {}] B, footprint {} B)",
        c.status(),
        program.len(),
        cost.cycles,
        cost.traffic_bytes.lower,
        cost.traffic_bytes.upper.map_or("unbounded".into(), |u| u.to_string()),
        cost.footprint_bytes,
    )
    .unwrap();
    for r in &cost.regions {
        writeln!(
            out,
            "{path}: region [{}..{}]: cycles {}, peak pressure {}",
            r.first, r.last, r.cycles, r.peak_pressure
        )
        .unwrap();
    }
    for d in c.report.diagnostics() {
        writeln!(out, "{path}: {d}").unwrap();
    }
    for p in &c.proofs {
        let codes: Vec<&str> = p.subsumes.iter().map(|c| c.as_str()).collect();
        writeln!(out, "{path}: established: {} [{}]", p.obligation, codes.join(", ")).unwrap();
    }
    writeln!(
        out,
        "length hull {}..{}, max pressure {}, scratchpad <= {} B, instr upper {:?}",
        cost.length_hull.lo,
        cost.length_hull.hi,
        cost.max_pressure,
        cost.scratch_peak,
        cost.instr_upper
    )
    .unwrap();
    if setup.machine_readable {
        writeln!(out, "{}", c.report.to_json()).unwrap();
        writeln!(out, "{}", c.report.to_sarif_with_driver(path, "sc-cost")).unwrap();
    }
    out
}

fn render_corpus(root: &Path) -> String {
    let mut out = String::new();
    for path in corpus(root) {
        let text = std::fs::read_to_string(root.join(&path))
            .unwrap_or_else(|e| panic!("read {path}: {e}"));
        let program =
            sc_isa::parse_program(&text).unwrap_or_else(|e| panic!("{path} does not parse: {e}"));
        for setup in setups() {
            writeln!(out, "==== {path} [{}]", setup.name).unwrap();
            out.push_str(&render(&path, &program, &setup));
        }
    }
    out
}

#[test]
fn analyzer_output_matches_snapshot() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let actual = render_corpus(root);
    let expected = std::fs::read_to_string(root.join(SNAPSHOT))
        .unwrap_or_else(|e| panic!("read {SNAPSHOT}: {e}"));
    if actual != expected {
        let fresh: PathBuf = Path::new(env!("CARGO_TARGET_TMPDIR")).join("analyzer_output.txt");
        std::fs::write(&fresh, &actual).expect("write fresh rendering");
        let line = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or_else(|| actual.lines().count().min(expected.lines().count()));
        panic!(
            "analyzer output differs from {SNAPSHOT} at line {}; fresh rendering in {}",
            line + 1,
            fresh.display()
        );
    }
}

#[test]
fn corpus_covers_every_stream_lifetime_fact() {
    // The faulty fixtures exist to exercise each fact at least once;
    // a fixture edit that silently drops one would weaken the snapshot.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let snapshot = std::fs::read_to_string(root.join(SNAPSHOT)).expect("snapshot");
    for code in [
        "error[SC-E001]",
        "error[SC-E002]",
        "error[SC-E003]",
        "error[SC-E004]",
        "error[SC-E005]",
        "note[SC-E005]",
        "warning[SC-E006]",
        "warning[SC-W101]",
        "error[SC-S301]",
        "error[SC-S302]",
        "error[SC-S303]",
        "error[SC-S310]",
        "warning[SC-S312]",
        "warning[SC-W204]",
        "warning[SC-W205]",
        "warning[SC-W206]",
    ] {
        assert!(snapshot.contains(code), "no corpus program produces {code}");
    }
}
