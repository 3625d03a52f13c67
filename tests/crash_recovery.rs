//! Crash recovery across a real process boundary. A child process serves
//! seeded chaos traffic with the journal, tracing and live telemetry on,
//! tears the journal tail as a crash mid-append would, and dies by
//! `std::process::abort` (no destructors, no flush: the in-tree stand-in
//! for `kill -9`). The parent checks that the telemetry artifacts survived
//! the abort, recovers from the journal, finishes the traffic, and requires
//! the whole history to be bitwise-identical to an uninterrupted run.
//!
//! The child is this test binary re-run on this one test with
//! `CHILD_DIR_ENV` set. It installs the process-global trace sink, so this
//! is the only test in its binary.

use std::fs::OpenOptions;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Duration;

use tpgnn_bench::report;
use tpgnn_core::{TpGnn, TpGnnConfig};
use tpgnn_data::chaos::FaultPlan;
use tpgnn_obs::{json, trace};
use tpgnn_serve::loadgen::{generate, LoadPlan, Traffic};
use tpgnn_serve::{ScoreRecord, SessionServer, TelemetryConfig};

const TEST_NAME: &str = "aborted_child_leaves_telemetry_and_recovers_bitwise";
const CHILD_DIR_ENV: &str = "TPGNN_CRASH_CHILD_DIR";
const RUN: &str = "crash-child";

fn model() -> TpGnn {
    TpGnn::new(TpGnnConfig::gru(3).with_seed(19))
}

/// The shared seeded plan; parent and child must agree exactly, or the
/// recovery self-check would (correctly) refuse the forked history.
fn plan(dir: &Path) -> LoadPlan {
    LoadPlan {
        sessions: 48,
        seed: 1719,
        fault: FaultPlan::mixed(0.15),
        batch_size: 32,
        session_spacing: 2.0,
        session_gap: 30.0,
        early_warning_every: 4,
        num_shards: 8,
        max_resident_sessions: 16,
        max_buffered_edges: 0,
        spill_dir: Some(dir.join("spill")),
        journal_dir: Some(dir.join("journal")),
        snapshot_every: 3,
    }
}

/// Bit-exact comparison key (float equality would misjudge NaN payloads).
fn key(r: &ScoreRecord) -> String {
    let q = r.quarantine.as_ref().map(|q| q.render());
    format!(
        "{} {:?} {:08x} {} {:?} {:?}",
        r.session,
        r.kind,
        r.proba.to_bits(),
        r.edges,
        r.stats,
        q
    )
}

fn feed(
    server: &mut SessionServer<'_, TpGnn>,
    batches: &[Vec<tpgnn_serve::SessionEvent>],
) -> Vec<ScoreRecord> {
    batches.iter().flat_map(|b| server.ingest(b).unwrap()).collect()
}

fn cut(traffic: &Traffic) -> usize {
    traffic.batches.len() / 2
}

/// Child role: serve the first half of the stream (each batch is
/// fsync-committed before its results return), give the 5 ms telemetry
/// ticker time to publish, tear the journal tail, and die without cleanup.
fn child(dir: &Path) -> ! {
    trace::init_to(RUN, dir.join(format!("trace-{RUN}.jsonl")));
    let p = plan(dir);
    let traffic = generate(&p);
    let m = model();
    let mut cfg = p.serve_config();
    cfg.telemetry = Some(TelemetryConfig { dir: dir.to_path_buf(), run: RUN.into(), tick_ms: 5 });
    let mut server = SessionServer::new(&m, cfg).unwrap();
    for (sid, f) in &traffic.features {
        server.register(*sid, f.clone());
    }
    feed(&mut server, &traffic.batches[..cut(&traffic)]);
    std::thread::sleep(Duration::from_millis(120));
    for name in ["shard-0.log", "commit.log"] {
        let mut f = OpenOptions::new().append(true).open(dir.join("journal").join(name)).unwrap();
        f.write_all(b"ffffffffffffffff torn-mid-append").unwrap();
    }
    std::process::abort();
}

#[test]
fn aborted_child_leaves_telemetry_and_recovers_bitwise() {
    if let Some(dir) = std::env::var_os(CHILD_DIR_ENV) {
        child(Path::new(&dir));
    }
    let base = std::env::temp_dir().join(format!("tpgnn-crash-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let dirs = |tag: &str| -> PathBuf {
        let d = base.join(tag);
        std::fs::create_dir_all(d.join("spill")).unwrap();
        std::fs::create_dir_all(d.join("journal")).unwrap();
        d
    };
    let m = model();

    // Uninterrupted reference run.
    let reference_dir = dirs("reference");
    let p = plan(&reference_dir);
    let traffic = generate(&p);
    let mut reference = SessionServer::new(&m, p.serve_config()).unwrap();
    for (sid, f) in &traffic.features {
        reference.register(*sid, f.clone());
    }
    let mut want = feed(&mut reference, &traffic.batches);
    want.extend(reference.close_all().unwrap());
    let want_stats = *reference.stats();
    assert!(want_stats.evicted > 0, "the resident budget never bit; nothing spilled");

    // Child: serve half the stream, then die hard.
    let child_dir = dirs("child");
    let status = Command::new(std::env::current_exe().unwrap())
        .args(["--exact", TEST_NAME, "--test-threads=1"])
        .env(CHILD_DIR_ENV, &child_dir)
        .stdout(Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success(), "the child was supposed to abort, but exited cleanly");

    // The ticker refreshed the live series and the metrics sidecar while
    // the child served, so the abort still left both readable.
    let live = report::read_live(&child_dir.join(format!("live-{RUN}.jsonl"))).unwrap();
    assert!(live.ticks > 0, "the aborted child's live series holds no parseable ticks");
    let sidecar = std::fs::read_to_string(child_dir.join(format!("metrics-{RUN}.json"))).unwrap();
    let doc = json::parse(&sidecar).expect("the child's sidecar parses");
    assert!(
        doc.get("counters").and_then(|c| c.get("serve.events")).is_some(),
        "the child's sidecar lacks the serve.* counters recorded before the abort"
    );

    // Recover from the dead child's journal and finish the stream.
    let (mut server, recovered) =
        SessionServer::recover(&m, plan(&child_dir).serve_config()).unwrap();
    let half = cut(&traffic);
    assert_eq!(recovered.last_committed, half, "recovered horizon");
    assert!(recovered.torn_frames >= 2, "torn tail not counted: {}", recovered.torn_frames);
    let mut got: Vec<ScoreRecord> =
        recovered.delivered.into_iter().flat_map(|b| b.records).collect();
    got.extend(feed(&mut server, &traffic.batches[half..]));
    got.extend(server.close_all().unwrap());
    let stats = *server.stats();

    assert_eq!(
        want.iter().map(key).collect::<Vec<_>>(),
        got.iter().map(key).collect::<Vec<_>>(),
        "recovered history diverges from the uninterrupted run"
    );
    assert_eq!(want_stats, stats, "serve counters diverge");

    // Event conservation: every offered event was absorbed by a session,
    // or shed or dropped with attribution.
    let absorbed: usize = got.iter().filter_map(|r| r.stats.as_ref()).map(|s| s.received).sum();
    let quarantined: usize =
        got.iter().filter_map(|r| r.stats.as_ref()).map(|s| s.quarantined).sum();
    let not_absorbed = stats.shed_refused_events
        + stats.dropped_closed
        + stats.dropped_refused
        + stats.dropped_poisoned;
    assert_eq!(stats.events, absorbed + not_absorbed, "event conservation broken");
    assert!(
        quarantined + not_absorbed >= traffic.ledger.duplicated + traffic.ledger.corrupted,
        "injected duplicate/corrupt faults are unaccounted for"
    );

    std::fs::remove_dir_all(&base).ok();
}
