//! The repository's benchmark: host performance of the SparseCore
//! simulator, end to end and per layer. See `perfbench/README.md`.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gpm_stream --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the lines before it
//! are a readable summary starting with `#`.

mod measure;
mod sim;
mod trace;
mod workload;

use measure::{end_to_end, measure, median, per_layer, Metric};
use std::process::ExitCode;
use std::time::Duration;
use workload::{cases, references, setup, Shapes, Workload};

/// Setups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Parsed command line.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if s >= 1 => seconds = Some(s),
                _ => return Err(format!("--seconds must be a whole number >= 1, got {value:?}")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Quote a string as a JSON string.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The commit of the checkout, read from `.git` in the working directory
/// (`unknown` when it is not a git checkout).
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The host fingerprint stamped on every result, as a JSON object.
fn fingerprint(a: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let fields = [
        ("nproc", nproc.to_string()),
        ("rustc", json_str(env!("PERFBENCH_RUSTC"))),
        ("git_sha", json_str(&git_sha())),
        ("profile", json_str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("sanitize", a.workload.engine_config().sanitize.to_string()),
        ("alloc_counting", sc_host::alloc::enabled().to_string()),
        ("sim_threads", "1".into()),
        ("workload", json_str(a.workload.name())),
        ("seed", a.seed.to_string()),
        ("trace", a.trace.to_string()),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let shapes = Shapes::paper();

    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        // One input set alive at a time, so the repetitions do not stack
        // up in the peak RSS.
        drop(inputs.take());
        let (i, t) = setup(w, args.seed, &shapes);
        setups.push(t);
        inputs = Some(i);
    }
    let inputs = inputs.expect("at least one setup");
    let setup_s = median(&setups.iter().map(|s| s.total()).collect::<Vec<_>>());
    let refs = references(&inputs);
    let cases = cases(w, &inputs);

    let m = measure(w, &inputs, &refs, &cases, Duration::from_secs(args.seconds), args.trace);
    let peak_rss_mb = sc_host::rss::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0);

    println!("# fingerprint {}", fingerprint(&args));
    println!(
        "# passes: {} untraced, {} traced; digest {:016x}",
        m.untraced_passes,
        m.traced_passes,
        m.digest()
    );
    for (case, first) in cases.iter().zip(m.firsts()) {
        let (digest, cycles) = first.map_or((0, 0), |(d, s)| (d, s.cycles));
        println!("# case {:<24} cycles {cycles:>12} digest {digest:016x}", case.label(&inputs));
    }
    let metrics: Vec<Metric> =
        if args.trace { per_layer(w, &m, &setups) } else { end_to_end(&m, setup_s, peak_rss_mb) };
    println!(
        "# error_rate {} ratio ({} failed of {} attempted)",
        m.error_rate(),
        m.failed,
        m.attempted
    );
    for mt in &metrics {
        println!("# {} {} {}", mt.name, mt.value, mt.unit);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|mt| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(mt.name),
                mt.value,
                json_str(mt.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.failed == 0,
        m.attempted,
        m.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
