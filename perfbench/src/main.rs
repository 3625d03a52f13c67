//! The repository benchmark: one command, two workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <offline_brightkite|serve_forum> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` runs the same untraced pass, then a traced pass
//! that times calls into each crate from the outside, and reports the
//! per-layer metrics. Every output check that fails is printed and makes
//! the run exit non-zero. See `perfbench/README.md`.

mod offline;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics: every workload reports each one, measured on its
/// own main phase.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("quality_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. A layer a workload never calls
/// reports 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("latency_p99_ms", "ms"),
    ("data.generate_s", "s"),
    ("core.train_on_us", "us"),
    ("core.predict_all_us", "us"),
    ("core.propagation_fwd_us", "us"),
    ("core.extractor_fwd_us", "us"),
    ("nn.classifier_fwd_us", "us"),
    ("tensor.backward_us", "us"),
    ("tensor.optim_step_us", "us"),
    ("tensor.param_elems_per_graph", "count"),
    ("tensor.tape_nodes_per_graph", "count"),
    ("tensor.param_time_share", "share"),
    ("tensor.matmul_time_share", "share"),
    ("core.advance_us", "us"),
    ("core.advance_calls", "count"),
    ("core.score_us", "us"),
    ("core.score_calls", "count"),
    ("core.open_session_us", "us"),
    ("serve.ingest_us", "us"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.ingest_self_share", "share"),
    ("serve.evicted", "count"),
    ("serve.restored", "count"),
    ("serve.shed_refused_events", "count"),
    ("serve.recover_s", "s"),
    ("serve.recover.batches_replayed", "count"),
    ("par.serve_width_ratio", "ratio"),
    ("par.infer_batch_speedup", "ratio"),
    ("obs.vfs.append_us", "us"),
    ("obs.vfs.sync_us", "us"),
    ("obs.vfs.sync_calls", "count"),
    ("obs.vfs.bytes_per_event", "bytes"),
    ("obs.vfs.create_atomic_us", "us"),
    ("obs.vfs.retries", "count"),
    ("obs.vfs.read_us", "us"),
    ("loadgen.lag_p99_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.coverage_share", "share"),
];

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Output-correctness checks of one run.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
    passed: usize,
}

impl Checks {
    pub fn absorb(&mut self, other: Checks) {
        self.passed += other.passed;
        self.failures.extend(other.failures);
    }

    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if ok {
            self.passed += 1;
        } else {
            self.failures.push(what.into());
        }
    }
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    pub checks: Checks,
    /// Traced-run spans, one JSON object per line, written at the end.
    pub trace_rows: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Run `f` [`SETUP_REPS`] times. Returns the median wall time and the last
/// run's value.
pub fn setup_reps<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let (mut secs, mut last) = (Vec::new(), None);
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(f());
        secs.push(t.elapsed().as_secs_f64());
    }
    (stats::median(&secs), last.expect("SETUP_REPS > 0"))
}

/// Peak resident set size of this process, MB (Linux `VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k.as_str(), v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} outside (0, 600]"));
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace {t}: expected 0 or 1")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    // One client thread plus the program's pool, pinned to two workers.
    std::env::set_var("TPGNN_THREADS", "2");
    let out_dir = PathBuf::from(".bench_out");
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let mut out = match args.workload.as_str() {
        "offline_brightkite" => offline::run(args.seed, args.seconds, args.trace),
        "serve_forum" => serve::run(args.seed, args.seconds, args.trace, &work),
        w => {
            eprintln!("perfbench: unknown workload {w}");
            std::fs::remove_dir_all(&work).ok();
            return ExitCode::from(2);
        }
    };
    std::fs::remove_dir_all(&work).ok();
    match peak_rss_mb() {
        Some(mb) => out.set("peak_rss_mb", mb),
        None => out
            .checks
            .check(false, "peak RSS readable from /proc/self/status"),
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        let v = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => {
                out.checks
                    .check(false, format!("end-to-end metric {name} was measured"));
                continue;
            }
        };
        if !v.is_finite() {
            out.checks
                .check(false, format!("{name} is finite (got {v})"));
            continue;
        }
        println!("{name:<34} {v:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    if args.trace && !out.trace_rows.is_empty() {
        let path = out_dir.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        let mut body = out.trace_rows.join("\n");
        body.push('\n');
        if let Err(e) = std::fs::write(&path, body) {
            out.checks
                .check(false, format!("trace written to {}: {e}", path.display()));
        }
    }
    for f in &out.checks.failures {
        eprintln!("CHECK FAILED: {f}");
    }
    let correct = out.checks.failures.is_empty();
    eprintln!(
        "{} checks passed, {} failed",
        out.checks.passed,
        out.checks.failures.len()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
