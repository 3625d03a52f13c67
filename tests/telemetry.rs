//! Live serving telemetry, end to end: a traced serve run under seeded
//! chaos traffic with a fast snapshot ticker and SLO tracking on, checked
//! from the outside while and after it runs, then analysed offline with
//! `tpgnn_bench::report` exactly as `obs_report` does.
//!
//! The trace sink and the `serve.*` counters are process-global, so this
//! is the only test in its binary.

use std::path::Path;
use std::time::Duration;

use tpgnn_bench::report;
use tpgnn_core::{TpGnn, TpGnnConfig};
use tpgnn_data::chaos::FaultPlan;
use tpgnn_obs::{json, reader, trace};
use tpgnn_serve::loadgen::{generate, LoadPlan};
use tpgnn_serve::{slo, SessionServer, TelemetryConfig};

const RUN: &str = "telemetry-test";

fn plan(base: &Path) -> LoadPlan {
    LoadPlan {
        sessions: 32,
        seed: 2608,
        // The delay component gives the builders a finite lateness
        // horizon, so edges release mid-session and early warnings fire.
        fault: FaultPlan { delay_rate: 0.1, delay_margin: 3.0, ..FaultPlan::mixed(0.1) },
        batch_size: 24,
        session_spacing: 2.0,
        session_gap: 25.0,
        early_warning_every: 4,
        num_shards: 4,
        max_resident_sessions: 16,
        max_buffered_edges: 0,
        spill_dir: Some(base.join("spill")),
        journal_dir: Some(base.join("journal")),
        snapshot_every: 4,
    }
}

#[test]
fn traced_serve_is_readable_live_and_joins_offline_on_trace_ids() {
    let base = std::env::temp_dir().join(format!("tpgnn-telemetry-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    std::fs::create_dir_all(&base).unwrap();
    let trace_path = base.join(format!("trace-{RUN}.jsonl"));
    trace::init_to(RUN, &trace_path);

    let p = plan(&base);
    let traffic = generate(&p);
    let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(23));
    let mut cfg = p.serve_config();
    cfg.slo = Some(slo::SloConfig::default());
    cfg.telemetry = Some(TelemetryConfig { dir: base.clone(), run: RUN.into(), tick_ms: 5 });
    let mut server = SessionServer::new(&model, cfg).unwrap();
    for (sid, f) in &traffic.features {
        server.register(*sid, f.clone());
    }
    let mut records = Vec::new();
    for b in &traffic.batches {
        records.extend(server.ingest(b).unwrap());
        std::thread::sleep(Duration::from_millis(2));
    }

    // Mid-run visibility: the live series must already be readable while
    // the server still holds open sessions.
    let live_path = base.join(format!("live-{RUN}.jsonl"));
    std::thread::sleep(Duration::from_millis(60));
    let mid = report::read_live(&live_path).expect("live series readable mid-run");
    assert!(mid.ticks > 0, "no live snapshot ticks while the server was still running");
    assert!(
        server.resident() + server.spilled() > 0,
        "server already drained; the mid-run read proved nothing"
    );

    records.extend(server.close_all().unwrap());
    let stats = *server.stats();
    drop(server); // the ticker's Drop writes a final tick and joins
    assert_eq!(stats.final_scores, p.sessions, "a session was lost");
    assert!(stats.early_scores > 0, "no early warnings fired: {stats:?}");

    let live = report::read_live(&live_path).expect("live series readable after the run");
    assert!(
        live.ticks >= 2 && live.ticks >= mid.ticks,
        "{} ticks, {} mid-run",
        live.ticks,
        mid.ticks
    );
    let last = live.last.as_ref().expect("a last snapshot");
    for series in ["serve.requests", "serve.events"] {
        assert!(
            last.get("counters").and_then(|c| c.get(series)).is_some(),
            "last snapshot is missing the {series} counter"
        );
    }
    assert!(
        last.get("gauges").and_then(|g| g.get("slo.latency.burn_long")).is_some(),
        "SLO burn gauges never reached the snapshots"
    );
    let slo_view = report::render_slo(&live);
    assert!(slo_view.contains("latency") && slo_view.contains("burn short="), "{slo_view}");

    // Exposition file: atomically replaced Prometheus text format.
    let expo = std::fs::read_to_string(base.join(format!("metrics-{RUN}.prom"))).unwrap();
    assert!(
        expo.contains("# TYPE") && expo.contains("serve_request_us_bucket{le="),
        "exposition missing TYPE lines or histogram buckets:\n{expo}"
    );

    // Every delivered record's trace id re-derives offline from
    // (session, batch) for some committed batch.
    trace::finish();
    let lossy = reader::read_trace_lossy(&trace_path).unwrap();
    let data = report::load_journal(&base.join("journal")).unwrap();
    for r in &records {
        assert!(
            (1..=data.commits.len()).any(|b| tpgnn_serve::trace_id(r.session, b) == r.trace),
            "session {} carries trace {} matching no committed batch",
            r.session,
            tpgnn_serve::trace_hex(r.trace)
        );
    }
    let probe = records.first().expect("records delivered").session;
    let timeline = report::session_timeline(&data, &lossy.records, probe).unwrap();
    for needle in ["event arrival=", "score "] {
        assert!(
            timeline.contains(needle),
            "session {probe} timeline lacks `{needle}`:\n{timeline}"
        );
    }
    assert!(
        lossy.records.iter().any(|r| r.kind == "event" && r.name == "serve.score"),
        "trace carries no serve.score events"
    );

    // Request spans: one per ingest, carrying their size and residency.
    let requests: Vec<_> =
        lossy.records.iter().filter(|r| r.kind == "span" && r.name == "serve.request").collect();
    assert!(requests.len() > traffic.batches.len(), "{} serve.request spans", requests.len());
    assert!(
        requests.iter().all(|s| s.field("events").is_some() && s.field("resident").is_some()),
        "serve.request spans without events/resident fields"
    );
    let spans = report::render_spans(&report::span_breakdown(&lossy.records));
    assert!(spans.contains("serve.request"), "{spans}");

    // The metrics sidecar carries the serving series and the op profile.
    let sidecar_path = base.join(format!("metrics-{RUN}.json"));
    let doc = json::parse(&std::fs::read_to_string(&sidecar_path).unwrap()).unwrap();
    let counters = doc.get("counters").expect("sidecar counters");
    let histograms = doc.get("histograms").expect("sidecar histograms");
    let gauges = doc.get("gauges").expect("sidecar gauges");
    for series in ["serve.requests", "serve.events", "serve.advanced", "serve.closed"] {
        assert!(counters.get(series).is_some(), "sidecar is missing the {series} counter");
    }
    assert!(gauges.get("serve.sessions_resident").is_some(), "sidecar lacks resident gauge");
    assert!(histograms.get("serve.request_us").is_some(), "sidecar lacks request histogram");
    let ops = report::render_top_ops_from_sidecar(&sidecar_path, 12).unwrap();
    assert!(ops.lines().count() > 1, "sidecar op table is empty:\n{ops}");

    std::fs::remove_dir_all(&base).ok();
}
