//! Offline analysis over a serve run's observability artifacts: span
//! latency breakdowns from the trace JSONL, live-telemetry and SLO
//! summaries from the snapshot time series, top-op tables from the metrics
//! sidecar, and per-session timelines reconstructed from the journal by
//! joining **purely on trace ids**.
//!
//! Usage:
//!   obs_report [--trace <trace.jsonl>] [--live <live.jsonl>]
//!              [--sidecar <metrics.json>] [--journal <dir>]
//!              [--session <id>] [--run <name> [--dir <results>]]
//!
//! `--run <name>` is shorthand for `--trace <dir>/trace-<name>.jsonl
//! --live <dir>/live-<name>.jsonl --sidecar <dir>/metrics-<name>.json`
//! (`--dir` defaults to `results`). `--session` requires `--journal`.
//! Exit codes: 0 = report printed; 1 = bad arguments or unreadable input.

use std::path::{Path, PathBuf};

use tpgnn_bench::report;
use tpgnn_obs::reader;

fn fail(msg: &str) -> ! {
    eprintln!("obs_report: FAIL: {msg}");
    std::process::exit(1);
}

fn exists_or_note(path: &Path, what: &str) -> bool {
    if path.exists() {
        return true;
    }
    println!("== {what} {} — not present for this run\n", path.display());
    false
}

#[derive(Default)]
struct Args {
    trace: Option<PathBuf>,
    live: Option<PathBuf>,
    sidecar: Option<PathBuf>,
    journal: Option<PathBuf>,
    session: Option<u64>,
}

fn parse_args() -> Args {
    let mut out = Args::default();
    let mut dir = PathBuf::from("results");
    let mut run: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--trace" => out.trace = Some(PathBuf::from(val())),
            "--live" => out.live = Some(PathBuf::from(val())),
            "--sidecar" => out.sidecar = Some(PathBuf::from(val())),
            "--journal" => out.journal = Some(PathBuf::from(val())),
            "--session" => {
                out.session =
                    Some(val().parse().unwrap_or_else(|e| fail(&format!("--session: {e}"))))
            }
            "--run" => run = Some(val()),
            "--dir" => dir = PathBuf::from(val()),
            other => fail(&format!("unknown flag `{other}`")),
        }
    }
    if let Some(run) = run {
        out.trace.get_or_insert_with(|| dir.join(format!("trace-{run}.jsonl")));
        out.live.get_or_insert_with(|| dir.join(format!("live-{run}.jsonl")));
        out.sidecar.get_or_insert_with(|| dir.join(format!("metrics-{run}.json")));
    }
    if out.trace.is_none() && out.live.is_none() && out.sidecar.is_none() && out.journal.is_none()
    {
        fail("nothing to report on — pass --run <name> or explicit paths (see --help text in the source header)");
    }
    out
}

fn main() {
    let args = parse_args();
    let mut trace_records = Vec::new();

    // Sections degrade to a note when their artifact is absent (a run
    // without live telemetry still has a trace worth reporting on); a file
    // that exists but does not parse is still a hard failure.
    if let Some(path) = args.trace.as_ref().filter(|p| exists_or_note(p, "trace")) {
        let lossy = reader::read_trace_lossy(path)
            .unwrap_or_else(|e| fail(&format!("trace: {e}")));
        println!(
            "== trace {} — {} record(s), {} torn line(s) skipped",
            path.display(),
            lossy.records.len(),
            lossy.skipped
        );
        let rows = report::span_breakdown(&lossy.records);
        if rows.is_empty() {
            println!("  no spans recorded");
        } else {
            print!("{}", report::render_spans(&rows));
        }
        println!();
        trace_records = lossy.records;
    }

    if let Some(path) = args.live.as_ref().filter(|p| exists_or_note(p, "live telemetry")) {
        let live = report::read_live(path).unwrap_or_else(|e| fail(&format!("live: {e}")));
        println!(
            "== live telemetry {} — {} tick(s) (last seq {}), {} torn line(s) skipped",
            path.display(),
            live.ticks,
            live.last_seq,
            live.skipped
        );
        println!("== SLO");
        print!("{}", report::render_slo(&live));
        println!();
    }

    if let Some(path) = args.sidecar.as_ref().filter(|p| exists_or_note(p, "metrics sidecar")) {
        println!("== top ops {}", path.display());
        match report::render_top_ops_from_sidecar(path, 12) {
            Ok(table) => print!("{table}"),
            Err(e) => println!("  unavailable: {e}"),
        }
        println!();
    }

    if let Some(dir) = &args.journal {
        let data = report::load_journal(dir).unwrap_or_else(|e| fail(&format!("journal: {e}")));
        let frames: usize = data.shards.iter().map(Vec::len).sum();
        println!(
            "== journal {} — {} shard(s), {} frame(s), {} commit(s), {} torn frame(s)",
            dir.display(),
            data.shards.len(),
            frames,
            data.commits.len(),
            data.torn_frames
        );
        if let Some(sid) = args.session {
            match report::session_timeline(&data, &trace_records, sid) {
                Some(t) => print!("{t}"),
                None => fail(&format!("journal holds no frames for session {sid}")),
            }
        }
        println!();
    } else if args.session.is_some() {
        fail("--session requires --journal <dir>");
    }
}
