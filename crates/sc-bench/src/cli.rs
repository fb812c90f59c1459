//! Shared command-line plumbing for the figure binaries.
//!
//! Every binary in `src/bin/` accepts the same cross-cutting flags, so
//! they are parsed here once instead of twelve times:
//!
//! - `--sanitize` — enable the runtime invariant sanitizer (SC-S3xx).
//! - `--datasets C,E,W` — filter the Table 4 graphs by tag.
//! - `--probe-level off|metrics|trace` — observability recording level.
//! - `--metrics <path>` — write a JSON metrics snapshot on exit
//!   (implies at least `--probe-level metrics`).
//! - `--trace <path>` — write a Chrome `trace_event` JSON file on exit,
//!   loadable in Perfetto (implies `--probe-level trace`).
//! - `--record <path>` — append one canonical `sc-report` run record per
//!   workload to the given registry file (implies at least
//!   `--probe-level metrics`, so the cycle-attribution gauges exist).
//! - `--verify` — statically verify every stream program and partition
//!   plan the bench emits with `sc-verify` before/alongside execution;
//!   any `REJECTED` verdict makes the process exit 1 after the outputs
//!   are written.
//! - `--cost` — statically bound every stream program the bench emits
//!   with `sc-cost`, replay it on a synthesized image, and assert the
//!   simulated cycles land inside the static `[lower, upper]` bounds;
//!   any violation makes the process exit 1 after the outputs are
//!   written. The worst observed tightness ratio (`upper / simulated`)
//!   is published as the `cost.tightness` probe gauge so `--record`
//!   carries it into the sc-report registry.
//! - `--spans <path>` — keep per-core simulated-clock span logs
//!   (`sc_probe::SpanLog`) in every engine and write them per workload
//!   as a JSON document on exit (implies at least `--probe-level
//!   metrics`). The document feeds `sc-report html`'s timeline.
//! - `--explain <path>` — extract the simulated critical path of every
//!   workload from its span logs (`sc_explain::extract`, which re-proves
//!   the conservation invariant: path length == final simulated clock)
//!   and write a text report; implies spans.
//! - `--host` — host-process observability: per-workload wall split by
//!   phase (generate / emit / verify / simulate / record / other) from
//!   `sc-host`'s switching phase timers, peak RSS, and allocator stats,
//!   printed per workload and attached to `--record` records as the
//!   `host` section for `sc-report host`'s budget gates.
//! - `--jobs N` — shard independent workloads of the bench across `N`
//!   host worker threads via [`BenchCli::sweep`] (`auto`/`0` = all
//!   cores). Host threads only: every simulation stays byte-identical,
//!   and the emitted registry, span documents, and probe outputs are
//!   merged in workload order, so they match `--jobs 1` exactly (up to
//!   wall-clock timings, which are measurements, not model outputs).
//!
//! Independently of `--host`, every bench installs the `sc-host`
//! flight recorder's panic hook and logs one structured event per
//! workload / rejected obligation; the ring is dumped to stderr (and
//! `SC_FLIGHT` as JSON, when set) only on panic or nonzero exit.
//!
//! Binary-specific flags (`--skip-fsm`, `--gramer`, `--matrices`, ...)
//! stay in their binaries and read through [`BenchCli::flag`] /
//! [`BenchCli::value`].

use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use sc_graph::Dataset;
use sc_host::flight::{self, Level};
use sc_host::{AllocStats, Phase, PhaseTimers};
use sc_probe::{AttrBin, Probe, ProbeLevel};
use sc_report::{HostSection, RunRecord};
use sparsecore::SparseCoreConfig;

/// Parsed cross-cutting flags plus the probe they configure. Construct
/// one at the top of every bench `main` (it also runs
/// [`crate::init_sanitize`], which must precede the first
/// `SparseCoreConfig`), and call [`BenchCli::write_probe_outputs`] at
/// the end.
#[derive(Debug)]
pub struct BenchCli {
    args: Vec<String>,
    bench: String,
    probe: Probe,
    trace: Option<PathBuf>,
    metrics: Option<PathBuf>,
    record: Option<PathBuf>,
    spans: Option<PathBuf>,
    explain: Option<PathBuf>,
    verify: bool,
    cost: bool,
    /// `(checked, rejected)` static-verification obligation counters;
    /// [`BenchCli::write_probe_outputs`] turns a non-zero rejection
    /// count into exit status 1.
    verify_checked: Cell<usize>,
    verify_rejected: Cell<usize>,
    /// `(checked, violated)` cost-soundness counters plus the worst
    /// tightness ratio observed, mirroring the verify counters.
    cost_checked: Cell<usize>,
    cost_violated: Cell<usize>,
    cost_worst_tightness: Cell<f64>,
    records: RefCell<Vec<RunRecord>>,
    /// Per-workload span snapshots drained from the probe at each
    /// [`BenchCli::record`] call, in workload order.
    span_docs: RefCell<Vec<(String, Vec<sc_probe::SpanSnapshot>)>>,
    /// Start of the current workload's wall-clock window: construction
    /// time, then each `record()` call re-arms it, so a record's
    /// `wall_ms` covers everything since the previous record (graph
    /// build + baseline + SparseCore run for that workload).
    last_mark: Cell<Instant>,
    /// `--host`: host-process observability (phase timers, RSS,
    /// allocator accounting).
    host: bool,
    /// The switching phase-timer state machine; only touched when
    /// `--host` is on, and drained per workload by [`BenchCli::record`]
    /// so phase windows line up with `last_mark` windows.
    timers: RefCell<PhaseTimers>,
    /// Allocator counters at the last drain, for per-window deltas.
    last_alloc: Cell<AllocStats>,
    /// Every host section produced so far, for the end-of-run summary
    /// (and tests); parallel to the per-workload `# host:` lines.
    host_log: RefCell<Vec<HostSection>>,
    /// `--jobs`: worker-pool width for [`BenchCli::sweep`] (1 = the
    /// serial path, which still runs through the same per-item worker
    /// machinery so both paths are byte-identical by construction).
    jobs: usize,
    /// Sweep workers buffer their stdout here instead of printing, so
    /// the parent can flush per-item output in deterministic workload
    /// order. `None` on the parent CLI (prints directly).
    sink: Option<RefCell<String>>,
}

/// The cross-cutting flags every bench accepts: `(name, takes_value)`.
const COMMON_SPECS: &[(&str, bool)] = &[
    ("--sanitize", false),
    ("--datasets", true),
    ("--probe-level", true),
    ("--metrics", true),
    ("--trace", true),
    ("--record", true),
    ("--verify", false),
    ("--cost", false),
    ("--spans", true),
    ("--explain", true),
    ("--host", false),
    ("--jobs", true),
];

impl BenchCli {
    /// Parse the process's command line, accepting only the
    /// cross-cutting flags. Unknown flags are a hard error (exit 2).
    pub fn parse() -> Self {
        Self::parse_with(&[])
    }

    /// Parse the process's command line, accepting the cross-cutting
    /// flags plus the binary's own `specs` (`(name, takes_value)`
    /// pairs). Unknown flags are a hard error (exit 2).
    pub fn parse_with(specs: &[(&str, bool)]) -> Self {
        Self::try_from_args_with(std::env::args().collect(), specs).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Parse an explicit argument vector (tests use this).
    ///
    /// # Panics
    ///
    /// Panics on an unknown flag, a missing value, or an unknown
    /// `--probe-level` name.
    pub fn from_args(args: Vec<String>) -> Self {
        Self::from_args_with(args, &[])
    }

    /// Like [`BenchCli::from_args`], with binary-specific flag specs.
    ///
    /// # Panics
    ///
    /// Panics on an unknown flag, a missing value, or an unknown
    /// `--probe-level` name.
    pub fn from_args_with(args: Vec<String>, specs: &[(&str, bool)]) -> Self {
        Self::try_from_args_with(args, specs).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The fallible core of all the constructors: normalize
    /// `--flag=value` into `--flag value`, reject unknown flags and
    /// stray positionals, then wire up the probe.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending argument.
    pub fn try_from_args_with(args: Vec<String>, specs: &[(&str, bool)]) -> Result<Self, String> {
        let args = normalize(args);
        validate(&args, specs)?;
        Ok(Self::from_validated(args))
    }

    fn from_validated(args: Vec<String>) -> Self {
        crate::init_sanitize(&args);
        let trace = value_of(&args, "--trace").map(PathBuf::from);
        let metrics = value_of(&args, "--metrics").map(PathBuf::from);
        let record = value_of(&args, "--record").map(PathBuf::from);
        let spans = value_of(&args, "--spans").map(PathBuf::from);
        let explain = value_of(&args, "--explain").map(PathBuf::from);
        let mut level = match value_of(&args, "--probe-level") {
            Some(s) => ProbeLevel::parse(&s).unwrap_or_else(|e| panic!("{e}")),
            None => ProbeLevel::Off,
        };
        // Asking for an output file is asking for the data behind it.
        if trace.is_some() {
            level = level.max(ProbeLevel::Trace);
        }
        if metrics.is_some() || record.is_some() || spans.is_some() || explain.is_some() {
            level = level.max(ProbeLevel::Metrics);
        }
        let probe = Probe::new(level);
        if spans.is_some() || explain.is_some() {
            probe.enable_spans();
            println!("# spans: ON (per-core simulated-clock span logs)\n");
        }
        if probe.enabled() {
            println!("# probe: level {}\n", probe.level().name());
        }
        let bench = args
            .first()
            .map(|a| {
                PathBuf::from(a)
                    .file_stem()
                    .map_or_else(|| a.clone(), |s| s.to_string_lossy().into_owned())
            })
            .unwrap_or_else(|| "unknown".into());
        let verify = args.iter().any(|a| a == "--verify");
        if verify {
            println!("# verify: ON (static verification via sc-verify)\n");
        }
        let cost = args.iter().any(|a| a == "--cost");
        if cost {
            println!("# cost: ON (static cycle bounds + replay soundness gate via sc-cost)\n");
        }
        let host = args.iter().any(|a| a == "--host");
        if host {
            println!(
                "# host: ON (phase timers + RSS/alloc accounting; counting allocator {})\n",
                if sc_host::alloc::enabled() { "installed" } else { "off" }
            );
        }
        let jobs = match value_of(&args, "--jobs") {
            None => 1,
            Some(s) if s == "auto" || s == "0" => {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }
            Some(s) => s.parse::<usize>().ok().filter(|&n| n >= 1).unwrap_or_else(|| {
                panic!("--jobs expects a positive integer or 'auto', got '{s}'")
            }),
        };
        if jobs > 1 {
            println!("# jobs: {jobs} (host worker threads; simulated timing unchanged)");
        }
        // The flight recorder rides along unconditionally: it records a
        // handful of events per workload and only ever speaks on panic
        // or nonzero exit.
        flight::install_panic_hook();
        flight::log(
            Level::Info,
            &bench,
            "bench start",
            &[("args", args.iter().skip(1).cloned().collect::<Vec<_>>().join(" "))],
        );
        Self {
            args,
            bench,
            probe,
            trace,
            metrics,
            record,
            spans,
            explain,
            verify,
            cost,
            verify_checked: Cell::new(0),
            verify_rejected: Cell::new(0),
            cost_checked: Cell::new(0),
            cost_violated: Cell::new(0),
            cost_worst_tightness: Cell::new(1.0),
            records: RefCell::new(Vec::new()),
            span_docs: RefCell::new(Vec::new()),
            last_mark: Cell::new(Instant::now()),
            host,
            timers: RefCell::new(PhaseTimers::new()),
            last_alloc: Cell::new(sc_host::alloc::thread_stats()),
            host_log: RefCell::new(Vec::new()),
            jobs,
            sink: None,
        }
    }

    /// The raw argument vector (for binary-specific parsing).
    pub fn args(&self) -> &[String] {
        &self.args
    }

    /// Is a bare flag like `--skip-fsm` present?
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following a `--name value` pair, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        let pos = self.args.iter().position(|a| a == name)?;
        self.args.get(pos + 1).map(String::as_str)
    }

    /// The `--datasets` filter, or `default` when absent.
    pub fn datasets(&self, default: &[Dataset]) -> Vec<Dataset> {
        crate::dataset_filter(&self.args).unwrap_or_else(|| default.to_vec())
    }

    /// A handle on the shared probe (cloning is an `Arc` bump; all
    /// clones feed the same registry and trace buffer).
    pub fn probe(&self) -> Probe {
        self.probe.clone()
    }

    /// Is `--record` active? Benches can skip redundant work (e.g.
    /// recomputing checksums) when nothing will be recorded.
    pub fn recording(&self) -> bool {
        self.record.is_some()
    }

    /// Is span logging active (`--spans` or `--explain`)?
    pub fn spans_on(&self) -> bool {
        self.spans.is_some() || self.explain.is_some()
    }

    /// Is `--host` active?
    pub fn hosting(&self) -> bool {
        self.host
    }

    /// The `--jobs` worker-pool width (1 without the flag).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Print one line of per-workload output. On the parent CLI this is
    /// `println!`; on a sweep worker the line lands in the worker's
    /// buffer and the parent flushes it in workload order, so bench
    /// stdout stays byte-deterministic under `--jobs N`. Bench bins
    /// should route any stdout they emit *inside* a sweep closure
    /// through this.
    pub fn say(&self, line: &str) {
        match &self.sink {
            Some(buf) => {
                let mut b = buf.borrow_mut();
                b.push_str(line);
                b.push('\n');
            }
            None => println!("{line}"),
        }
    }

    /// Route [`BenchCli::say`] output (including sweep-worker flushes)
    /// into an in-memory buffer instead of stdout. Tests use this to
    /// observe output ordering.
    pub fn capture_output(&mut self) {
        self.sink = Some(RefCell::new(String::new()));
    }

    /// Everything captured since [`BenchCli::capture_output`] (empty if
    /// output was never captured).
    pub fn captured_output(&self) -> String {
        self.sink.as_ref().map(|b| b.borrow().clone()).unwrap_or_default()
    }

    /// Run one closure per item, sharded across the `--jobs` worker
    /// pool, and return the closure results in item order.
    ///
    /// Each item gets a **fresh worker `BenchCli`** (own probe, own
    /// phase timers, own stdout buffer, verify/cost counters seeded from
    /// this CLI's state at sweep start) regardless of the pool width —
    /// `--jobs 1` runs the items inline through the very same worker
    /// machinery, so the two paths cannot diverge. After the pool
    /// drains, per-item residues (buffered stdout, queued records, span
    /// documents, host sections, verify/cost counter deltas, the
    /// worker's probe) are absorbed back into this CLI **in item
    /// order**, never completion order: the emitted registry, span and
    /// probe outputs are therefore independent of scheduling, and
    /// byte-identical between `--jobs 1` and `--jobs N` (wall-clock
    /// fields excepted — those are measurements, not model outputs).
    ///
    /// The closure must treat its item as self-contained: record via
    /// the *worker* CLI it is handed, print via [`BenchCli::say`], and
    /// not touch the parent CLI (which is not `Sync` and is not
    /// reachable from the pool anyway).
    ///
    /// # Panics
    ///
    /// A panicking worker finishes the scope and then propagates the
    /// panic (the flight recorder's panic hook has already dumped the
    /// ring by then, stamped with the worker's thread name).
    pub fn sweep<I: Sync, R: Send>(
        &self,
        items: &[I],
        f: impl Fn(&BenchCli, &I) -> R + Sync,
    ) -> Vec<R> {
        let spec = self.worker_spec();
        let jobs = self.jobs.min(items.len()).max(1);
        if jobs <= 1 {
            let outs = items
                .iter()
                .map(|item| {
                    let worker = Self::worker(&spec);
                    let out = f(&worker, item);
                    self.absorb(worker.residue(&spec));
                    out
                })
                .collect();
            self.last_mark.set(Instant::now());
            return outs;
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<(R, SweepResidue)>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for w in 0..jobs {
                let (spec, next, slots, f) = (&spec, &next, &slots, &f);
                std::thread::Builder::new()
                    .name(format!("sweep-worker-{w}"))
                    .spawn_scoped(scope, move || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        let worker = Self::worker(spec);
                        let out = f(&worker, &items[i]);
                        *slots[i].lock().unwrap() = Some((out, worker.residue(spec)));
                    })
                    .expect("spawning a sweep worker thread");
            }
        });
        let mut outs = Vec::with_capacity(items.len());
        for slot in slots {
            let (out, residue) =
                slot.into_inner().unwrap().expect("every sweep item completed exactly once");
            self.absorb(residue);
            outs.push(out);
        }
        // The sweep's wall belongs to its items, not to whatever the
        // parent records next: re-mark so a post-sweep serial record
        // measures only its own work.
        self.last_mark.set(Instant::now());
        outs
    }

    /// The plain-data (`Sync`) snapshot a worker `BenchCli` is built
    /// from. Captured once at sweep start, so every worker — and every
    /// item under `--jobs 1` — sees the identical seed state.
    fn worker_spec(&self) -> WorkerSpec {
        WorkerSpec {
            args: self.args.clone(),
            bench: self.bench.clone(),
            level: self.probe.level(),
            spans: self.spans.clone(),
            explain: self.explain.clone(),
            record: self.record.clone(),
            verify: self.verify,
            cost: self.cost,
            host: self.host,
            seed_verify: (self.verify_checked.get(), self.verify_rejected.get()),
            seed_cost: (self.cost_checked.get(), self.cost_violated.get()),
            seed_tightness: self.cost_worst_tightness.get(),
        }
    }

    /// Build a worker CLI on the current thread: fresh probe at the
    /// parent's level, fresh thread-pinned phase timers, a stdout
    /// buffer, and verify/cost counters seeded from the sweep-start
    /// snapshot so per-item records keep carrying cumulative `cost.*`
    /// gauges (the `sc-report tightness` contract).
    fn worker(spec: &WorkerSpec) -> BenchCli {
        let probe = Probe::new(spec.level);
        if spec.spans.is_some() || spec.explain.is_some() {
            probe.enable_spans();
        }
        if spec.cost && spec.seed_cost.0 > 0 {
            probe.gauge("cost.tightness", spec.seed_tightness);
            probe.gauge("cost.checked", spec.seed_cost.0 as f64);
            probe.gauge("cost.violations", spec.seed_cost.1 as f64);
        }
        BenchCli {
            args: spec.args.clone(),
            bench: spec.bench.clone(),
            probe,
            trace: None,
            metrics: None,
            record: spec.record.clone(),
            spans: spec.spans.clone(),
            explain: spec.explain.clone(),
            verify: spec.verify,
            cost: spec.cost,
            verify_checked: Cell::new(spec.seed_verify.0),
            verify_rejected: Cell::new(spec.seed_verify.1),
            cost_checked: Cell::new(spec.seed_cost.0),
            cost_violated: Cell::new(spec.seed_cost.1),
            cost_worst_tightness: Cell::new(spec.seed_tightness),
            records: RefCell::new(Vec::new()),
            span_docs: RefCell::new(Vec::new()),
            last_mark: Cell::new(Instant::now()),
            host: spec.host,
            timers: RefCell::new(PhaseTimers::new()),
            last_alloc: Cell::new(sc_host::alloc::thread_stats()),
            host_log: RefCell::new(Vec::new()),
            jobs: 1,
            sink: Some(RefCell::new(String::new())),
        }
    }

    /// Strip a finished worker down to the plain-data residue the parent
    /// merges. Counter residues are deltas against the sweep-start seed,
    /// so absorbing them is pure addition.
    fn residue(self, spec: &WorkerSpec) -> SweepResidue {
        SweepResidue {
            out: self.sink.map(RefCell::into_inner).unwrap_or_default(),
            records: self.records.into_inner(),
            spans: self.span_docs.into_inner(),
            host: self.host_log.into_inner(),
            verify: (
                self.verify_checked.get() - spec.seed_verify.0,
                self.verify_rejected.get() - spec.seed_verify.1,
            ),
            cost: (
                self.cost_checked.get() - spec.seed_cost.0,
                self.cost_violated.get() - spec.seed_cost.1,
            ),
            tightness: self.cost_worst_tightness.get(),
            probe: self.probe,
        }
    }

    /// Merge one item's residue into this CLI: flush its stdout, append
    /// its records / span documents / host sections, add its counter
    /// deltas, and absorb its probe. Called in item order only.
    fn absorb(&self, r: SweepResidue) {
        if !r.out.is_empty() {
            match &self.sink {
                Some(buf) => buf.borrow_mut().push_str(&r.out),
                None => print!("{}", r.out),
            }
        }
        self.records.borrow_mut().extend(r.records);
        self.span_docs.borrow_mut().extend(r.spans);
        self.host_log.borrow_mut().extend(r.host);
        self.verify_checked.set(self.verify_checked.get() + r.verify.0);
        self.verify_rejected.set(self.verify_rejected.get() + r.verify.1);
        self.cost_checked.set(self.cost_checked.get() + r.cost.0);
        self.cost_violated.set(self.cost_violated.get() + r.cost.1);
        self.cost_worst_tightness.set(self.cost_worst_tightness.get().max(r.tightness));
        self.probe.absorb(&r.probe);
    }

    /// Run `f` attributed to host phase `phase`, restoring the previous
    /// phase afterwards. Inert (a single branch) without `--host`, so
    /// phase scopes cost nothing in the probes-off overhead budget.
    pub fn in_phase<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        if !self.host {
            return f();
        }
        let prev = self.timers.borrow_mut().switch(phase);
        let out = f();
        self.timers.borrow_mut().switch(prev);
        out
    }

    /// RAII variant of [`BenchCli::in_phase`] for scopes that span
    /// several statements: the returned guard restores the previous
    /// phase on drop.
    pub fn phase(&self, phase: Phase) -> PhaseGuard<'_> {
        let prev = self.host.then(|| self.timers.borrow_mut().switch(phase));
        PhaseGuard { cli: self, prev }
    }

    /// Host sections produced so far, one per recorded workload (tests
    /// inspect these; the same sections ride on `pending_records`).
    pub fn pending_host(&self) -> Vec<HostSection> {
        self.host_log.borrow().clone()
    }

    /// Is `--verify` active? Benches can skip building verification
    /// workloads (traced kernels, emitted plan programs) when nothing
    /// will be checked.
    pub fn verifying(&self) -> bool {
        self.verify
    }

    /// `(checked, rejected)` obligation counts so far (tests inspect
    /// these; [`BenchCli::write_probe_outputs`] turns rejections into
    /// exit status 1).
    pub fn verify_counts(&self) -> (usize, usize) {
        (self.verify_checked.get(), self.verify_rejected.get())
    }

    /// Is `--cost` active? Benches can skip building cost workloads
    /// (emitted plan programs, traced kernels) when nothing will be
    /// bounded.
    pub fn costing(&self) -> bool {
        self.cost
    }

    /// `(checked, violated)` cost-soundness counts so far.
    pub fn cost_counts(&self) -> (usize, usize) {
        (self.cost_checked.get(), self.cost_violated.get())
    }

    /// Statically bound one stream program with `sc-cost` and check the
    /// replay soundness gate, under `--cost` (no-op without the flag).
    /// Prints the bounds, the simulated witness cycles, and the
    /// tightness ratio; a violation (simulated cycles outside the
    /// static bounds) or a replay fault is counted toward the exit-1
    /// total. The worst tightness ratio so far is published as the
    /// `cost.tightness` gauge (with `cost.checked` / `cost.violations`)
    /// so `--record` snapshots carry it to sc-report.
    pub fn cost_program(&self, label: &str, program: &sc_isa::Program, config: &SparseCoreConfig) {
        if !self.cost {
            return;
        }
        self.cost_checked.set(self.cost_checked.get() + 1);
        match sc_cost::check_program(program, config) {
            Ok(out) => {
                let tightness = match out.tightness {
                    Some(t) => {
                        self.cost_worst_tightness.set(self.cost_worst_tightness.get().max(t));
                        format!("{t:.2}x")
                    }
                    None => "unbounded".to_string(),
                };
                if out.sound() {
                    self.say(&format!(
                        "# cost: {label}: SOUND (cycles {} contains simulated {}, tightness {tightness})",
                        out.report.cycles, out.simulated
                    ));
                } else {
                    self.cost_violated.set(self.cost_violated.get() + 1);
                    self.say(&format!(
                        "# cost: {label}: VIOLATION (simulated {} outside static {})",
                        out.simulated, out.report.cycles
                    ));
                    flight::log(
                        Level::Error,
                        &self.bench,
                        "cost VIOLATION",
                        &[("label", label.to_string()), ("simulated", out.simulated.to_string())],
                    );
                }
            }
            Err(e) => {
                self.cost_violated.set(self.cost_violated.get() + 1);
                self.say(&format!("# cost: {label}: VIOLATION ({e})"));
                flight::log(
                    Level::Error,
                    &self.bench,
                    "cost VIOLATION",
                    &[("label", label.to_string()), ("error", e.to_string())],
                );
            }
        }
        self.probe.gauge("cost.tightness", self.cost_worst_tightness.get());
        self.probe.gauge("cost.checked", self.cost_checked.get() as f64);
        self.probe.gauge("cost.violations", self.cost_violated.get() as f64);
    }

    /// Count one externally-evaluated cost obligation (e.g. the
    /// observed-length-in-static-hull check fig14 runs on a traced
    /// execution), under `--cost` (no-op without the flag). `ok = false`
    /// counts toward the exit-1 total.
    pub fn cost_check(&self, label: &str, ok: bool, detail: &str) {
        if !self.cost {
            return;
        }
        self.cost_checked.set(self.cost_checked.get() + 1);
        if ok {
            self.say(&format!("# cost: {label}: SOUND ({detail})"));
        } else {
            self.cost_violated.set(self.cost_violated.get() + 1);
            self.say(&format!("# cost: {label}: VIOLATION ({detail})"));
        }
        self.probe.gauge("cost.checked", self.cost_checked.get() as f64);
        self.probe.gauge("cost.violations", self.cost_violated.get() as f64);
    }

    /// Statically verify one stream program under `--verify` (no-op
    /// without the flag). Prints the verdict; a `REJECTED` program also
    /// prints its findings and is counted toward the exit-1 total.
    pub fn verify_program(
        &self,
        label: &str,
        program: &sc_isa::Program,
        config: &sc_verify::VerifyConfig,
    ) {
        if !self.verify {
            return;
        }
        let verdict = sc_verify::verify_program(program, config);
        self.note_verdict(
            label,
            verdict.verified(),
            &format!(
                "pressure {}/{}, scratch {} B",
                verdict.max_pressure, config.stream_registers, verdict.scratch_peak
            ),
            verdict.report.diagnostics(),
        );
    }

    /// Statically verify a chunk partition plan's write-set disjointness
    /// and coverage under `--verify` (no-op without the flag).
    pub fn verify_chunk_plan(&self, label: &str, chunks: &[sparsecore::Chunk], total: usize) {
        if !self.verify {
            return;
        }
        let verdict = sc_verify::verify_chunk_plan(chunks, total);
        self.note_verdict(
            label,
            verdict.verified(),
            &format!("proof: {}", verdict.proof.name()),
            &verdict.findings,
        );
    }

    /// Statically verify that statically-interleaved per-core shards
    /// (`core, core + cores, core + 2*cores, ...` over `0..total`) have
    /// pairwise-disjoint write sets, under `--verify`.
    pub fn verify_shard_plan(&self, label: &str, cores: usize, total: usize) {
        if !self.verify {
            return;
        }
        let sets: Vec<sc_verify::Stride> =
            (0..cores).map(|c| sc_verify::interleave_write_set(0, c, cores, total, 1)).collect();
        let verdict = sc_verify::verify_core_write_sets(&sets);
        self.note_verdict(
            label,
            verdict.verified(),
            &format!("proof: {}", verdict.proof.name()),
            &verdict.findings,
        );
    }

    fn note_verdict(
        &self,
        label: &str,
        verified: bool,
        detail: &str,
        findings: &[sc_lint::Diagnostic],
    ) {
        self.verify_checked.set(self.verify_checked.get() + 1);
        if verified {
            self.say(&format!("# verify: {label}: VERIFIED ({detail})"));
        } else {
            self.verify_rejected.set(self.verify_rejected.get() + 1);
            self.say(&format!("# verify: {label}: REJECTED ({detail})"));
            for d in findings {
                self.say(&format!("#   {d}"));
            }
            flight::log(
                Level::Error,
                &self.bench,
                "verify REJECTED",
                &[("label", label.to_string()), ("detail", detail.to_string())],
            );
        }
    }

    /// Queue one run record for this bench's current workload. No-op
    /// without `--record`. `cfg` is the simulated configuration (`None`
    /// for records that never ran the stream engine, e.g. dataset
    /// reports — their digest is 0). `baseline_cycles` is the comparison
    /// point when the workload measures a speedup.
    ///
    /// The record's cycle-attribution bins are read from the probe's
    /// `attr.*` gauges, which [`Engine::probe_snapshot`] overwrites per
    /// run — so call this immediately after the workload's SparseCore
    /// run, before the next one starts.
    ///
    /// [`Engine::probe_snapshot`]: sparsecore::Engine::probe_snapshot
    pub fn record(
        &self,
        workload: &str,
        cfg: Option<&SparseCoreConfig>,
        checksum: u64,
        cycles: u64,
        baseline_cycles: Option<u64>,
    ) {
        let now = Instant::now();
        let wall_ms = now.duration_since(self.last_mark.replace(now)).as_secs_f64() * 1e3;
        // Close the host phase window first, so its walls cover the same
        // span as `wall_ms`. Draining leaves the timers in the `record`
        // phase: the bookkeeping below is charged to the *next* window's
        // record bucket, and the tail switch below returns to `other`.
        let host_section = self.host.then(|| {
            let walls = self.timers.borrow_mut().drain(Phase::Record);
            // Thread-local counters, so a sweep worker's per-workload
            // alloc deltas never include a sibling worker's traffic
            // (the peak is still the process-wide high-water mark).
            let alloc_now = sc_host::alloc::thread_stats();
            let delta = alloc_now.since(&self.last_alloc.replace(alloc_now));
            let section = HostSection {
                phase_ms: walls.ms,
                peak_rss_kb: sc_host::rss::peak_rss_kb(),
                alloc_count: delta.count,
                alloc_bytes: delta.bytes,
                alloc_peak_bytes: alloc_now.peak_live,
            };
            let split = Phase::ALL
                .iter()
                .map(|p| format!("{} {:.1}", p.name(), section.get(*p)))
                .collect::<Vec<_>>()
                .join(" + ");
            self.say(&format!(
                "# host: {workload}: wall {:.1} ms = {split}; peak rss {}; allocs +{} (+{:.1} MB)",
                section.total_ms(),
                section
                    .peak_rss_kb
                    .map_or("n/a".into(), |kb| format!("{:.1} MB", kb as f64 / 1024.0)),
                section.alloc_count,
                section.alloc_bytes as f64 / (1024.0 * 1024.0),
            ));
            self.host_log.borrow_mut().push(section.clone());
            section
        });
        flight::log(
            Level::Debug,
            &self.bench,
            workload,
            &[("cycles", cycles.to_string()), ("wall_ms", format!("{wall_ms:.2}"))],
        );
        // Drain span snapshots per workload even without --record, so
        // `--spans`/`--explain` work standalone. Draining here (at the
        // same call sites `--record` already requires) keeps each
        // workload's snapshots attributed to the right label.
        if self.spans_on() {
            let snaps = self.probe.take_spans();
            if !snaps.is_empty() {
                self.span_docs.borrow_mut().push((workload.to_string(), snaps));
            }
        }
        if self.record.is_none() {
            if self.host {
                self.timers.borrow_mut().switch(Phase::Other);
            }
            return;
        }
        let metrics = sc_probe::json::parse(&self.probe.metrics_json())
            .expect("probe metrics snapshot is valid JSON");
        let mut attr = [0u64; 5];
        for (slot, bin) in attr.iter_mut().zip(AttrBin::ALL) {
            *slot = metrics
                .get("attr")
                .and_then(|a| a.get(bin.name()))
                .and_then(sc_probe::json::Value::as_f64)
                .unwrap_or(0.0) as u64;
        }
        self.records.borrow_mut().push(RunRecord {
            bench: self.bench.clone(),
            workload: workload.to_string(),
            git_sha: sc_report::current_git_sha(),
            config_digest: cfg.map_or(0, SparseCoreConfig::digest),
            checksum,
            cycles,
            baseline_cycles,
            wall_ms,
            attr,
            metrics,
            host: host_section,
        });
        if self.host {
            self.timers.borrow_mut().switch(Phase::Other);
        }
    }

    /// Records queued so far (tests inspect these without touching disk).
    pub fn pending_records(&self) -> Vec<RunRecord> {
        self.records.borrow().clone()
    }

    /// Span documents drained so far: `(workload, per-core snapshots)`
    /// in workload order (tests inspect these without touching disk).
    pub fn pending_spans(&self) -> Vec<(String, Vec<sc_probe::SpanSnapshot>)> {
        self.span_docs.borrow().clone()
    }

    /// Drop any span snapshots submitted since the last drain. Benches
    /// call this after un-recorded warmup or baseline runs, so those
    /// runs' spans don't leak into the next recorded workload's
    /// document.
    pub fn discard_spans(&self) {
        if self.spans_on() {
            let _ = self.probe.take_spans();
        }
    }

    /// Write the `--trace` / `--metrics` output files and flush queued
    /// run records to the `--record` registry file, if requested. Call
    /// this once, after the last simulation finishes.
    ///
    /// # Panics
    ///
    /// Panics when an output file cannot be written — a bench run whose
    /// requested artifacts silently vanish is worse than a crash. Also
    /// panics when `--record` was given but the bench never called
    /// [`BenchCli::record`]: an empty registry append is the silent
    /// no-op the regression gate exists to catch. The same applies to
    /// `--verify` with zero checked obligations. When any obligation was
    /// `REJECTED`, the process exits with status 1 after all outputs are
    /// written, so CI fails loudly without losing the artifacts.
    pub fn write_probe_outputs(&self) {
        if let Some(path) = &self.record {
            let records = self.records.borrow();
            assert!(
                !records.is_empty(),
                "--record given but no workload produced a record (bench bug?)"
            );
            let total = sc_report::append_records(path, &records)
                .unwrap_or_else(|e| panic!("appending records: {e}"));
            println!(
                "# record: {} run records -> {} ({total} total)",
                records.len(),
                path.display()
            );
        }
        if let Some(path) = &self.metrics {
            // Gauge merges are last-write-wins, so after a sweep the
            // cumulative cost gauges hold the *last item's* view;
            // republish the true totals before snapshotting.
            if self.cost && self.cost_checked.get() > 0 {
                self.probe.gauge("cost.tightness", self.cost_worst_tightness.get());
                self.probe.gauge("cost.checked", self.cost_checked.get() as f64);
                self.probe.gauge("cost.violations", self.cost_violated.get() as f64);
            }
            std::fs::write(path, self.probe.metrics_json())
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("# probe: metrics snapshot -> {}", path.display());
        }
        if let Some(path) = &self.trace {
            std::fs::write(path, self.probe.trace_json(0))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!(
                "# probe: trace ({} events) -> {} (load in Perfetto / chrome://tracing)",
                self.probe.trace_len(),
                path.display()
            );
        }
        if self.spans_on() {
            let docs = self.span_docs.borrow();
            assert!(
                !docs.is_empty(),
                "--spans/--explain given but no workload produced span snapshots (bench bug?)"
            );
            if let Some(path) = &self.spans {
                let mut out = String::from("[");
                for (i, (workload, snaps)) in docs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str("{\"workload\":");
                    sc_probe::json::write_str(&mut out, workload);
                    out.push_str(",\"spans\":");
                    out.push_str(&sc_probe::spans::snapshots_to_json(snaps));
                    out.push('}');
                }
                out.push_str("]\n");
                std::fs::write(path, out)
                    .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
                println!("# spans: {} workload span documents -> {}", docs.len(), path.display());
            }
            if let Some(path) = &self.explain {
                let mut out = String::new();
                for (workload, snaps) in docs.iter() {
                    // `extract` re-proves conservation (critical-path
                    // length == final simulated clock); a failure here is
                    // a model bug and must not be written away quietly.
                    let ex = sc_explain::extract(snaps)
                        .unwrap_or_else(|e| panic!("explain {workload}: {e}"));
                    out.push_str(&format!("== {workload} ==\n"));
                    out.push_str(&ex.render_text());
                    out.push('\n');
                    println!(
                        "# explain: {workload}: {} cycles on core {}",
                        ex.makespan, ex.critical_core
                    );
                }
                std::fs::write(path, out)
                    .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
                println!("# explain: critical-path report -> {}", path.display());
            }
        }
        if self.host {
            let sections = self.host_log.borrow();
            assert!(
                !sections.is_empty(),
                "--host given but no workload produced a host section (bench bug?)"
            );
            let mut phase_ms = [0.0f64; Phase::COUNT];
            for s in sections.iter() {
                for (acc, ms) in phase_ms.iter_mut().zip(s.phase_ms) {
                    *acc += ms;
                }
            }
            let total_ms: f64 = phase_ms.iter().sum();
            let split = Phase::ALL
                .iter()
                .map(|p| format!("{} {:.1}", p.name(), phase_ms[p.index()]))
                .collect::<Vec<_>>()
                .join(" + ");
            let peak_kb = sections.iter().filter_map(|s| s.peak_rss_kb).max();
            let allocs: u64 = sections.iter().map(|s| s.alloc_count).sum();
            let alloc_mb: f64 =
                sections.iter().map(|s| s.alloc_bytes).sum::<u64>() as f64 / (1024.0 * 1024.0);
            // Under --jobs the per-workload walls overlap in real time,
            // so the sum is aggregate worker wall, not elapsed wall.
            let wall_kind = if self.jobs > 1 { " aggregate worker wall" } else { "" };
            println!(
                "# host: total: {} workloads in {total_ms:.1} ms{wall_kind} ({:.1} records/s) = \
                 {split}; peak rss {}; allocs {allocs} ({alloc_mb:.1} MB)",
                sections.len(),
                if total_ms > 0.0 { sections.len() as f64 / (total_ms / 1e3) } else { 0.0 },
                peak_kb.map_or("n/a".into(), |kb| format!("{:.1} MB", kb as f64 / 1024.0)),
            );
        }
        if self.verify {
            let (checked, rejected) = self.verify_counts();
            assert!(checked > 0, "--verify given but the bench checked no obligation (bench bug?)");
            println!("# verify: {checked} obligations checked, {rejected} rejected");
            if rejected > 0 {
                eprintln!("error: {rejected} static-verification obligations REJECTED");
                flight::dump("nonzero exit: verify rejections");
                std::process::exit(1);
            }
        }
        if self.cost {
            let (checked, violated) = self.cost_counts();
            assert!(checked > 0, "--cost given but the bench bounded no program (bench bug?)");
            println!(
                "# cost: {checked} programs bounded, {violated} violations, worst tightness {:.2}x",
                self.cost_worst_tightness.get()
            );
            if violated > 0 {
                eprintln!("error: {violated} cost-soundness checks VIOLATED");
                flight::dump("nonzero exit: cost violations");
                std::process::exit(1);
            }
        }
    }
}

/// The plain-data seed a sweep worker `BenchCli` is built from. Every
/// field is `Sync` (no `Cell`/`RefCell`/`Probe`), so one spec can be
/// shared by reference across the whole worker pool.
struct WorkerSpec {
    args: Vec<String>,
    bench: String,
    level: ProbeLevel,
    spans: Option<PathBuf>,
    explain: Option<PathBuf>,
    record: Option<PathBuf>,
    verify: bool,
    cost: bool,
    host: bool,
    seed_verify: (usize, usize),
    seed_cost: (usize, usize),
    seed_tightness: f64,
}

/// What one sweep item leaves behind: everything the parent CLI needs
/// to merge, and nothing thread-bound (the worker's `PhaseTimers` die
/// with the worker). Counter fields are deltas against the sweep-start
/// seed.
struct SweepResidue {
    out: String,
    records: Vec<RunRecord>,
    spans: Vec<(String, Vec<sc_probe::SpanSnapshot>)>,
    host: Vec<HostSection>,
    verify: (usize, usize),
    cost: (usize, usize),
    tightness: f64,
    probe: Probe,
}

/// RAII host-phase scope from [`BenchCli::phase`]: restores the
/// previous phase when dropped. Inert when `--host` is off.
pub struct PhaseGuard<'a> {
    cli: &'a BenchCli,
    prev: Option<Phase>,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(prev) = self.prev {
            self.cli.timers.borrow_mut().switch(prev);
        }
    }
}

fn value_of(args: &[String], name: &str) -> Option<String> {
    let pos = args.iter().position(|a| a == name)?;
    args.get(pos + 1).cloned()
}

/// Split every `--flag=value` argument into the `--flag value` pair, so
/// the rest of the crate only ever sees the two-token form.
fn normalize(args: Vec<String>) -> Vec<String> {
    let mut out = Vec::with_capacity(args.len());
    for a in args {
        match a.strip_prefix("--").and_then(|rest| rest.split_once('=')) {
            Some((name, value)) => {
                out.push(format!("--{name}"));
                out.push(value.to_string());
            }
            None => out.push(a),
        }
    }
    out
}

/// Reject unknown flags and stray positional arguments. `args` is the
/// normalized vector including `argv[0]`.
fn validate(args: &[String], specs: &[(&str, bool)]) -> Result<(), String> {
    let lookup = |name: &str| {
        COMMON_SPECS
            .iter()
            .chain(specs)
            .find(|(n, _)| *n == name)
            .map(|&(_, takes_value)| takes_value)
    };
    let mut i = 1;
    while i < args.len() {
        let a = &args[i];
        if !a.starts_with("--") {
            return Err(format!("unexpected argument '{a}' (flags start with --)"));
        }
        match lookup(a) {
            None => return Err(format!("unknown flag '{a}'")),
            Some(true) => {
                if i + 1 >= args.len() || args[i + 1].starts_with("--") {
                    return Err(format!("flag '{a}' requires a value"));
                }
                i += 2;
            }
            Some(false) => i += 1,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(extra: &[&str]) -> BenchCli {
        cli_with(extra, &[])
    }

    fn cli_with(extra: &[&str], specs: &[(&str, bool)]) -> BenchCli {
        let mut args = vec!["prog".to_string()];
        args.extend(extra.iter().map(|s| s.to_string()));
        BenchCli::from_args_with(args, specs)
    }

    #[test]
    fn defaults_are_off() {
        let c = cli(&[]);
        assert!(!c.probe().enabled());
        assert!(!c.flag("--skip-fsm"));
        assert_eq!(c.datasets(&[Dataset::Citeseer]), vec![Dataset::Citeseer]);
    }

    #[test]
    fn probe_level_parses() {
        assert_eq!(cli(&["--probe-level", "metrics"]).probe().level(), ProbeLevel::Metrics);
        assert_eq!(cli(&["--probe-level", "trace"]).probe().level(), ProbeLevel::Trace);
    }

    #[test]
    fn output_paths_imply_levels() {
        assert_eq!(cli(&["--metrics", "/tmp/m.json"]).probe().level(), ProbeLevel::Metrics);
        assert_eq!(cli(&["--trace", "/tmp/t.json"]).probe().level(), ProbeLevel::Trace);
        // An explicit level is never lowered by an output path.
        let c = cli(&["--metrics", "/tmp/m.json", "--probe-level", "trace"]);
        assert_eq!(c.probe().level(), ProbeLevel::Trace);
    }

    const BIN_SPECS: &[(&str, bool)] = &[("--skip-fsm", false), ("--matrices", true)];

    #[test]
    fn flags_and_values_read_through() {
        let c = cli_with(&["--skip-fsm", "--matrices", "a,b"], BIN_SPECS);
        assert!(c.flag("--skip-fsm"));
        assert_eq!(c.value("--matrices"), Some("a,b"));
        assert_eq!(c.value("--missing"), None);
    }

    #[test]
    fn equals_form_is_accepted_everywhere() {
        let c = cli_with(&["--matrices=a,b", "--probe-level=metrics"], BIN_SPECS);
        assert_eq!(c.value("--matrices"), Some("a,b"));
        assert_eq!(c.probe().level(), ProbeLevel::Metrics);
        let c = cli(&["--datasets=E,W"]);
        assert_eq!(c.datasets(&Dataset::ALL).len(), 2);
    }

    #[test]
    fn unknown_flag_is_a_hard_error() {
        let err =
            BenchCli::try_from_args_with(vec!["prog".into(), "--no-such-flag".into()], BIN_SPECS)
                .unwrap_err();
        assert!(err.contains("--no-such-flag"), "{err}");
        // A flag the binary didn't declare is unknown to it.
        let err = BenchCli::try_from_args_with(vec!["prog".into(), "--skip-fsm".into()], &[])
            .unwrap_err();
        assert!(err.contains("--skip-fsm"), "{err}");
    }

    #[test]
    fn missing_value_and_stray_positional_rejected() {
        let err = BenchCli::try_from_args_with(vec!["prog".into(), "--datasets".into()], &[])
            .unwrap_err();
        assert!(err.contains("requires a value"), "{err}");
        let err =
            BenchCli::try_from_args_with(vec!["prog".into(), "oops".into()], &[]).unwrap_err();
        assert!(err.contains("oops"), "{err}");
    }

    #[test]
    fn dataset_filter_still_applies() {
        let c = cli(&["--datasets", "E,W"]);
        assert_eq!(c.datasets(&Dataset::ALL).len(), 2);
    }

    #[test]
    fn record_implies_metrics_level_and_queues_records() {
        let c = cli(&["--record", "/tmp/reg.json"]);
        assert!(c.recording());
        assert_eq!(c.probe().level(), ProbeLevel::Metrics);

        let cfg = SparseCoreConfig::paper();
        c.record("TC/C", Some(&cfg), 1458, 125_000, Some(1_690_000));
        c.record("cdf/T", None, 7, 10, None);
        let records = c.pending_records();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].bench, "prog");
        assert_eq!(records[0].config_digest, cfg.digest());
        assert!(records[0].wall_ms >= 0.0);
        assert_eq!(records[1].config_digest, 0);
        // Records round-trip through the registry schema.
        for r in &records {
            r.round_trip().unwrap();
        }
    }

    #[test]
    fn record_is_a_noop_without_the_flag() {
        let c = cli(&[]);
        assert!(!c.recording());
        c.record("TC/C", None, 1, 2, None);
        assert!(c.pending_records().is_empty());
    }

    #[test]
    fn verify_is_a_noop_without_the_flag() {
        let c = cli(&[]);
        assert!(!c.verifying());
        let p: sc_isa::Program =
            [sc_isa::Instr::SFree { sid: sc_isa::StreamId::new(0) }].into_iter().collect();
        c.verify_program("bad", &p, &sc_verify::VerifyConfig::paper());
        c.verify_chunk_plan("plan", &[], 10); // would be rejected when on
        assert_eq!(c.verify_counts(), (0, 0));
    }

    #[test]
    fn verify_counts_verdicts_and_rejections() {
        use sc_isa::{Instr, Priority, StreamId};
        let c = cli(&["--verify"]);
        assert!(c.verifying());
        let clean: sc_isa::Program = [
            Instr::SRead { key_addr: 0x1000, len: 8, sid: StreamId::new(0), priority: Priority(0) },
            Instr::SFree { sid: StreamId::new(0) },
        ]
        .into_iter()
        .collect();
        c.verify_program("clean", &clean, &sc_verify::VerifyConfig::paper());
        assert_eq!(c.verify_counts(), (1, 0));
        // A use of a never-defined stream is rejected.
        let bad: sc_isa::Program =
            [Instr::SFetch { sid: StreamId::new(3), offset: 0 }].into_iter().collect();
        c.verify_program("bad", &bad, &sc_verify::VerifyConfig::paper());
        assert_eq!(c.verify_counts(), (2, 1));
        // Disjoint interleaved shards and a covering chunk plan verify.
        c.verify_shard_plan("shards", 4, 103);
        c.verify_chunk_plan("chunks", &sparsecore::chunks(103, 16), 103);
        assert_eq!(c.verify_counts(), (4, 1));
    }

    #[test]
    fn spans_flag_enables_span_logging_and_drains_per_workload() {
        let c = cli(&["--spans", "/tmp/s.json"]);
        assert!(c.spans_on());
        // Spans imply the metrics level and flip the probe's span switch.
        assert_eq!(c.probe().level(), ProbeLevel::Metrics);
        assert!(c.probe().spans_on());

        // Simulate an engine submitting one snapshot per workload.
        let mut log = sc_probe::SpanLog::new(8);
        log.record(7, sc_probe::Site::Scalar);
        let mut totals = [0; sc_probe::Site::COUNT];
        totals[sc_probe::Site::Scalar as usize] = 7;
        c.probe().submit_spans(0, log.snapshot(0, totals));
        c.record("w1", None, 0, 7, None);
        let docs = c.pending_spans();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].0, "w1");
        assert_eq!(docs[0].1[0].total, 7);
        // The drain is destructive: a second record without new
        // submissions adds no document.
        c.record("w2", None, 0, 0, None);
        assert_eq!(c.pending_spans().len(), 1);
    }

    #[test]
    fn explain_implies_spans() {
        let c = cli(&["--explain", "/tmp/e.txt"]);
        assert!(c.spans_on());
        assert!(c.probe().spans_on());
    }

    #[test]
    fn spans_are_off_by_default() {
        let c = cli(&["--record", "/tmp/reg.json"]);
        assert!(!c.spans_on());
        assert!(!c.probe().spans_on());
        c.record("w", None, 0, 0, None);
        assert!(c.pending_spans().is_empty());
    }

    #[test]
    fn host_sections_ride_on_records_and_phase_walls_sum_to_the_wall() {
        let c = cli(&["--record", "/tmp/reg.json", "--host"]);
        assert!(c.hosting());
        c.in_phase(Phase::Generate, || std::thread::sleep(std::time::Duration::from_millis(2)));
        {
            let _g = c.phase(Phase::Simulate);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        c.record("w1", None, 0, 10, None);
        let records = c.pending_records();
        let h = records[0].host.as_ref().expect("--host attaches a section");
        assert!(h.get(Phase::Generate) >= 1.0, "{h:?}");
        assert!(h.get(Phase::Simulate) >= 1.0, "{h:?}");
        // The phase walls cover the record's wall window (same clock,
        // drained at the same call; allow scheduler-level skew).
        assert!(
            (h.total_ms() - records[0].wall_ms).abs() <= 0.5 + records[0].wall_ms * 0.05,
            "phase sum {} vs wall {}",
            h.total_ms(),
            records[0].wall_ms
        );
        if cfg!(target_os = "linux") {
            assert!(h.peak_rss_kb.unwrap() > 0, "peak RSS populated on Linux");
        }
        if sc_host::alloc::enabled() {
            let v: Vec<u64> = Vec::with_capacity(1024);
            drop(v);
            c.record("w2", None, 0, 10, None);
            let h2 = &c.pending_host()[1];
            assert!(h2.alloc_count > 0, "window delta counts allocations: {h2:?}");
        }
        // Each record starts a fresh phase window.
        c.record("w3", None, 0, 10, None);
        let h3 = c.pending_host().pop().unwrap();
        assert!(h3.get(Phase::Generate) < 1.0, "{h3:?}");
        // Records with host sections still round-trip the schema.
        for r in c.pending_records() {
            r.round_trip().unwrap();
        }
    }

    #[test]
    fn host_off_means_no_sections_and_inert_scopes() {
        let c = cli(&["--record", "/tmp/reg.json"]);
        assert!(!c.hosting());
        assert_eq!(c.in_phase(Phase::Simulate, || 42), 42);
        let _g = c.phase(Phase::Generate);
        c.record("w", None, 0, 1, None);
        assert!(c.pending_records()[0].host.is_none());
        assert!(c.pending_host().is_empty());
    }

    #[test]
    fn host_works_standalone_without_record() {
        let c = cli(&["--host"]);
        assert!(c.hosting());
        assert!(!c.recording());
        c.in_phase(Phase::Simulate, || ());
        c.record("w", None, 0, 1, None);
        assert!(c.pending_records().is_empty(), "no --record, no records");
        assert_eq!(c.pending_host().len(), 1, "the host section is still produced");
    }

    /// Strip the wall-clock measurements a determinism comparison must
    /// ignore (they are timings, not model outputs).
    fn deterministic_view(records: Vec<RunRecord>) -> Vec<RunRecord> {
        records
            .into_iter()
            .map(|mut r| {
                r.wall_ms = 0.0;
                r.host = None;
                r
            })
            .collect()
    }

    #[test]
    fn sweep_returns_results_and_records_in_item_order() {
        let c = cli(&["--record", "/tmp/reg.json", "--jobs", "3"]);
        let items: Vec<u64> = (0..7).collect();
        let out = c.sweep(&items, |w, &i| {
            // Later items finish first, so completion order is the
            // reverse of item order.
            std::thread::sleep(std::time::Duration::from_millis((7 - i) * 2));
            w.record(&format!("w{i}"), None, i ^ 0xabc, 100 + i, None);
            i * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60]);
        let records = c.pending_records();
        assert_eq!(records.len(), 7);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.workload, format!("w{i}"));
            assert_eq!(r.cycles, 100 + i as u64);
        }
    }

    #[test]
    fn sweep_serial_and_parallel_outputs_are_identical() {
        let run = |jobs: &str| {
            let c = cli(&["--record", "/tmp/reg.json", "--jobs", jobs]);
            let items: Vec<u64> = (0..6).collect();
            c.sweep(&items, |w, &i| {
                std::thread::sleep(std::time::Duration::from_millis((6 - i) * 2));
                let p = w.probe();
                p.gauge("attr.su_compare", (i * 7) as f64);
                p.gauge("attr.total", (i * 7) as f64);
                p.count("sweep.runs", 1);
                w.record(&format!("w{i}"), None, i.wrapping_mul(0x9e37), i * 1000, Some(i * 2000));
            });
            c
        };
        let serial = run("1");
        let parallel = run("4");
        assert_eq!(
            deterministic_view(serial.pending_records()),
            deterministic_view(parallel.pending_records()),
        );
        // The merged parent registries match byte-for-byte too: counters
        // sum, gauges land in item order (last write wins, same winner).
        assert_eq!(serial.probe().metrics_json(), parallel.probe().metrics_json());
        assert_eq!(serial.probe().counter("sweep.runs"), 6);
    }

    #[test]
    fn sweep_seeds_workers_with_presweep_counters_and_merges_deltas() {
        let c = cli(&["--record", "/tmp/reg.json", "--cost", "--verify", "--jobs", "2"]);
        // A pre-sweep obligation, as benches that cost-check shared
        // kernels before the workload loop do.
        c.cost_check("pre", true, "seed");
        c.verify_shard_plan("pre", 4, 103);
        let items: Vec<u64> = (0..4).collect();
        c.sweep(&items, |w, &i| {
            w.cost_check(&format!("item{i}"), true, "per-item");
            w.record(&format!("w{i}"), None, 0, 1, None);
        });
        assert_eq!(c.cost_counts(), (5, 0), "1 seed + 4 per-item obligations");
        assert_eq!(c.verify_counts(), (1, 0), "workers add no verify obligations here");
        // Every record still carries the cumulative cost gauges the
        // `sc-report tightness --require` gate depends on.
        for (i, r) in c.pending_records().iter().enumerate() {
            let checked = r
                .metrics
                .get("cost")
                .and_then(|v| v.get("checked"))
                .and_then(sc_probe::json::Value::as_f64)
                .unwrap_or_else(|| panic!("record {i} lost its cost gauges: {:?}", r.metrics));
            assert_eq!(checked as u64, 2, "seed (1) + this item's own check (1)");
        }
    }

    #[test]
    fn sweep_worker_output_flushes_to_the_parent_sink_in_item_order() {
        // Give the parent its own sink so the flush order is observable.
        let mut c = cli(&["--jobs", "4"]);
        c.sink = Some(RefCell::new(String::new()));
        let items: Vec<u64> = (0..5).collect();
        c.sweep(&items, |w, &i| {
            std::thread::sleep(std::time::Duration::from_millis((5 - i) * 2));
            w.say(&format!("line {i}"));
        });
        let out = c.sink.as_ref().unwrap().borrow().clone();
        assert_eq!(out, "line 0\nline 1\nline 2\nline 3\nline 4\n");
    }

    #[test]
    fn jobs_parses_auto_and_rejects_zero_width_garbage() {
        assert_eq!(cli(&[]).jobs(), 1);
        assert_eq!(cli(&["--jobs", "3"]).jobs(), 3);
        assert!(cli(&["--jobs", "auto"]).jobs() >= 1);
        assert!(cli(&["--jobs", "0"]).jobs() >= 1, "'0' means auto, not a zero-width pool");
        let err = std::panic::catch_unwind(|| cli(&["--jobs", "-2"]));
        assert!(err.is_err(), "negative widths are rejected");
    }

    #[test]
    fn record_reads_attr_gauges_from_the_probe() {
        let c = cli(&["--record", "/tmp/reg.json"]);
        let probe = c.probe();
        probe.gauge("attr.su_compare", 40.0);
        probe.gauge("attr.scalar_overlap", 60.0);
        probe.gauge("attr.total", 100.0);
        c.record("w", None, 0, 100, None);
        let r = &c.pending_records()[0];
        assert_eq!(r.attr, [40, 0, 0, 0, 60]);
        assert!(r.metrics.get("attr").is_some());
    }
}
