//! `serve_forum`: open-loop Forum-java chaos traffic into a
//! `SessionServer`, in two phases.
//!
//! * In memory — no journal, unbounded residency, offered at about a
//!   quarter of its width-2 service rate. Disk is never touched. This phase
//!   gives every end-to-end metric.
//! * Durable — the same serve code with a journal fsynced every batch,
//!   periodic snapshots, and a residency budget that forces
//!   evict/spill/restore and some refusals. It ends in a crash (the server
//!   is dropped without `close_all`) and `SessionServer::recover`. This
//!   phase runs its output checks and, traced, gives the storage layers'
//!   metrics; its timings are too unsteady on a shared disk to bound.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tpgnn_core::{GraphClassifier, IncrementalScorer, TpGnn, TpGnnConfig};
use tpgnn_data::chaos::FaultPlan;
use tpgnn_graph::stream::CtdnBuilder;
use tpgnn_graph::NodeFeatures;
use tpgnn_obs::vfs::{RetryVfs, StdVfs, Vfs};
use tpgnn_serve::loadgen::{self, LoadPlan};
use tpgnn_serve::{
    wire, RecoverReport, ScoreKind, ScoreRecord, ServeConfig, ServeStats, SessionEvent,
    SessionFault, SessionServer,
};
use tpgnn_tensor::profile;

use crate::stats::{chunked_rate, median, p99, percentile, segmented_p99};
use crate::trace::{
    covered_ns, kind_stats, now_ns, Kind, Recorder, TapeProfile, TimedScorer, TimedVfs,
};
use crate::{setup_reps, Checks, Outcome};

/// Events per `ingest` request.
const BATCH: usize = 64;
/// Watermark gap: a session closes this long after its last event. A
/// Forum-java session's events are at most 1.2 apart and the delay fault
/// holds one back by at most 3.0, so a live session's silence stays below
/// 4.2; twice that leaves margin without keeping finished sessions long.
const GAP: f64 = 8.0;
/// A run is invalid when the generator's own lag p99 exceeds this many
/// inter-batch periods.
const MAX_GEN_LAG_PERIODS: f64 = 5.0;
/// Final scores re-checked against batch `predict_proba`.
const CHECK_SAMPLE: usize = 64;
/// Batches ingested by the throwaway warm-up server.
const WARM_BATCHES: usize = 32;
/// Length of the durable phase as a share of the in-memory one.
const DURABLE_SHARE: f64 = 1.0 / 3.0;

/// One serving phase's shape.
#[derive(Clone, Copy, Debug)]
struct Shape {
    durable: bool,
    /// Offered batches per second.
    rate: f64,
    /// Batches per throughput chunk; whole snapshot periods when durable,
    /// so every chunk holds one snapshot.
    chunk: usize,
    snapshot_every: usize,
    max_resident: usize,
    /// Global-clock offset between consecutive session starts: 0.1 keeps
    /// about 250 sessions open at once; 0.5 about 55, above the budget.
    spacing: f64,
}

const FORUM: Shape = Shape {
    durable: false,
    rate: 150.0,
    chunk: 20,
    snapshot_every: 0,
    max_resident: 0,
    spacing: 0.1,
};
const DURABLE: Shape = Shape {
    durable: true,
    rate: 100.0,
    chunk: 50,
    snapshot_every: 50,
    max_resident: 32,
    spacing: 0.5,
};

/// The Forum-java chaos mix of the workspace's serve benches (dup,
/// corrupt, shuffle and delay faults) without the drop fault.
fn load_plan(shape: &Shape, seed: u64, sessions: usize) -> LoadPlan {
    LoadPlan {
        sessions,
        seed,
        fault: FaultPlan {
            delay_rate: 0.05,
            delay_margin: 3.0,
            drop_rate: 0.0,
            ..FaultPlan::mixed(0.1)
        },
        batch_size: BATCH,
        session_spacing: shape.spacing,
        session_gap: GAP,
        early_warning_every: 8,
        max_resident_sessions: shape.max_resident,
        snapshot_every: shape.snapshot_every,
        ..LoadPlan::default()
    }
}

/// The offered traffic: batches in arrival order plus, per batch, the
/// sessions it opens (registered by the client just before the batch).
struct Traffic {
    plan: LoadPlan,
    batches: Vec<Vec<SessionEvent>>,
    opens: Vec<Vec<u64>>,
    features: Vec<NodeFeatures>,
    events: usize,
}

/// `num_batches` batches of the sessions `loadgen::generate` synthesizes,
/// merged by send time. Pure function of `seed`; the client's cost,
/// outside every timing.
///
/// `generate` interleaves sessions by a weighted random merge that ignores
/// the global clock, so an early batch carries events of sessions that
/// start much later. The watermark (max event time seen − gap) then closes
/// live sessions early: on 800 batches closed loop, 76–94% of the offered
/// events were dropped as `dropped_closed` at gap 8 or 60, against about
/// 4% merged by send time. So each session's arrivals keep `generate`'s
/// order and are sent at the latest event time the session has produced so
/// far; the streams are merged by that time.
fn traffic(shape: &Shape, seed: u64, num_batches: usize) -> Traffic {
    let want = num_batches * BATCH;
    // A Forum-java session carries about 27 arrivals.
    let mut sessions = want / 20 + 64;
    loop {
        let plan = load_plan(shape, seed, sessions);
        let gen = loadgen::generate(&plan);
        let mut per_session = vec![Vec::new(); sessions];
        for se in gen.batches.iter().flatten() {
            per_session[se.session as usize].push(*se);
        }
        let mut keyed: Vec<(f64, SessionEvent)> = Vec::with_capacity(gen.total_events);
        for (sid, arrivals) in per_session.into_iter().enumerate() {
            let mut sent = shape.spacing * sid as f64;
            for se in arrivals {
                if se.event.time.is_finite() {
                    sent = sent.max(se.event.time);
                }
                keyed.push((sent, se));
            }
        }
        // Stable: equal send times keep session, then arrival, order.
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        // A session sends nothing before its start, so once the cut lies
        // before the first session not generated, none could add to it.
        if keyed.len() < want || keyed[want - 1].0 >= shape.spacing * sessions as f64 {
            sessions += sessions / 2;
            continue;
        }
        keyed.truncate(want);
        let mut seen = vec![false; sessions];
        let mut batches = Vec::with_capacity(num_batches);
        let mut opens = Vec::with_capacity(num_batches);
        for chunk in keyed.chunks(BATCH) {
            let mut open = Vec::new();
            for (_, se) in chunk {
                if !std::mem::replace(&mut seen[se.session as usize], true) {
                    open.push(se.session);
                }
            }
            opens.push(open);
            batches.push(chunk.iter().map(|k| k.1).collect());
        }
        return Traffic {
            plan,
            batches,
            opens,
            features: gen.features.into_iter().map(|(_, f)| f).collect(),
            events: want,
        };
    }
}

fn serve_config(t: &Traffic, dir: Option<&Path>, vfs: Option<Arc<dyn Vfs>>) -> ServeConfig {
    ServeConfig {
        spill_dir: dir.map(|d| d.join("spill")),
        journal_dir: dir.map(|d| d.join("journal")),
        vfs,
        ..t.plan.serve_config()
    }
}

/// Everything one pass through the traffic produced and measured.
struct Pass {
    records: Vec<Vec<ScoreRecord>>,
    faults: Vec<Vec<SessionFault>>,
    stats: ServeStats,
    /// `opened == closed + resident + spilled + poisoned` before the crash.
    conserved: bool,
    latency_ms: Vec<f64>,
    service_s: Vec<f64>,
    gen_lag_ms: Vec<f64>,
    /// `[start, end)` of every `ingest`, ns since the trace epoch.
    ingest: Vec<(u64, u64)>,
    slept_s: f64,
    wall_s: f64,
}

/// Drive `traffic` through `server` open loop at `rate` batches per
/// second: one thread sleeps until each batch's due time, then registers
/// the batch's new sessions and calls `ingest`; latency runs from the due
/// time, less the generator's own lag.
fn drive<M: IncrementalScorer + Sync>(
    server: &mut SessionServer<'_, M>,
    t: &Traffic,
    rate: f64,
    epoch: Instant,
) -> Result<Pass, String> {
    let n = t.batches.len();
    let mut p = Pass {
        records: Vec::with_capacity(n),
        faults: Vec::with_capacity(n),
        stats: ServeStats::default(),
        conserved: false,
        latency_ms: Vec::with_capacity(n),
        service_s: Vec::with_capacity(n),
        gen_lag_ms: Vec::with_capacity(n),
        ingest: Vec::with_capacity(n),
        slept_s: 0.0,
        wall_s: 0.0,
    };
    let start = Instant::now() + Duration::from_millis(2);
    let mut prev_end = start;
    for (i, batch) in t.batches.iter().enumerate() {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
            p.slept_s += now.elapsed().as_secs_f64();
        }
        let sent = Instant::now();
        // Lag the generator caused: lateness past the later of the due
        // time and the moment the server became free. It is the harness's
        // own jitter, so it is reported apart and kept out of the latency;
        // a wait caused by the server (a previous batch running past this
        // one's due time) stays in.
        let lag = sent.saturating_duration_since(due.max(prev_end));
        p.gen_lag_ms.push(lag.as_secs_f64() * 1e3);
        for sid in &t.opens[i] {
            server.register(*sid, t.features[*sid as usize].clone());
        }
        let t_in = Instant::now();
        let a = now_ns(epoch);
        let recs = server
            .ingest(batch)
            .map_err(|e| format!("ingest of batch {i} failed: {e}"))?;
        let b = now_ns(epoch);
        let t_out = Instant::now();
        prev_end = t_out;
        p.ingest.push((a, b));
        p.service_s.push((t_out - t_in).as_secs_f64());
        p.latency_ms
            .push((t_out - due).saturating_sub(lag).as_secs_f64() * 1e3);
        p.records.push(recs);
        p.faults.push(server.take_faults());
    }
    p.wall_s = start.elapsed().as_secs_f64();
    p.stats = *server.stats();
    p.conserved =
        p.stats.opened == p.stats.closed + server.resident() + server.spilled() + p.stats.poisoned;
    Ok(p)
}

fn fmt_history(records: &[Vec<ScoreRecord>], faults: &[Vec<SessionFault>]) -> Vec<String> {
    records
        .iter()
        .zip(faults)
        .map(|(r, f)| {
            let mut s: Vec<String> = r.iter().map(wire::fmt_record).collect();
            s.extend(f.iter().map(wire::fmt_fault));
            s.join("\n")
        })
        .collect()
}

fn recovered_history(report: &RecoverReport) -> Vec<String> {
    let (records, faults): (Vec<_>, Vec<_>) = report
        .delivered
        .iter()
        .map(|b| (b.records.clone(), b.faults.clone()))
        .unzip();
    fmt_history(&records, &faults)
}

/// Final scores of a fixed sample of sessions must equal batch
/// `predict_proba` on the graph the streaming builder makes from the
/// session's arrivals up to its closing batch.
fn check_final_scores(
    model: &mut TpGnn,
    t: &Traffic,
    pass: &Pass,
    cfg: &ServeConfig,
    checks: &mut Checks,
) {
    let finals: Vec<(usize, &ScoreRecord)> = pass
        .records
        .iter()
        .enumerate()
        .flat_map(|(b, rs)| rs.iter().map(move |r| (b, r)))
        .filter(|(_, r)| r.kind == ScoreKind::Final)
        .collect();
    let step = (finals.len() / CHECK_SAMPLE).max(1);
    let sample: BTreeMap<u64, (usize, &ScoreRecord)> = finals
        .iter()
        .step_by(step)
        .take(CHECK_SAMPLE)
        .map(|(b, r)| (r.session, (*b, *r)))
        .collect();
    let mut events: BTreeMap<u64, Vec<_>> = BTreeMap::new();
    for (b, batch) in t.batches.iter().enumerate() {
        for se in batch {
            if sample
                .get(&se.session)
                .is_some_and(|(close, _)| b <= *close)
            {
                events.entry(se.session).or_default().push(se.event);
            }
        }
    }
    let mut bad = 0usize;
    for (sid, (_, rec)) in &sample {
        let mut builder = CtdnBuilder::new(t.features[*sid as usize].clone(), cfg.stream.clone());
        builder.extend(events.remove(sid).unwrap_or_default());
        let mut g = builder.finish().graph;
        let p = model.predict_proba(&mut g);
        bad += usize::from(p.to_bits() != rec.proba.to_bits() || g.num_edges() != rec.edges);
    }
    checks.check(
        !sample.is_empty() && bad == 0,
        format!(
            "{} sampled final scores equal batch predict_proba bitwise ({bad} differ)",
            sample.len()
        ),
    );
}

/// Recover from the journal `reps` times; returns the median recovery time
/// and the first report, checking every recovered server.
fn recover_reps<M: IncrementalScorer + Sync>(
    model: &M,
    cfg: &ServeConfig,
    reps: usize,
    checks: &mut Checks,
) -> Option<(f64, RecoverReport)> {
    let mut secs = Vec::new();
    let mut first = None;
    for _ in 0..reps {
        let t = Instant::now();
        match SessionServer::recover(model, cfg.clone()) {
            Ok((server, report)) => {
                secs.push(t.elapsed().as_secs_f64());
                let s = server.stats();
                checks.check(
                    s.opened == s.closed + server.resident() + server.spilled() + s.poisoned,
                    "recovered server keeps opened == closed + resident + spilled + poisoned",
                );
                first.get_or_insert(report);
            }
            Err(e) => {
                checks.check(false, format!("recover failed: {e}"));
                return None;
            }
        }
    }
    Some((median(&secs), first?))
}

fn fresh_dir(root: &Path, name: &str) -> PathBuf {
    let d = root.join(name);
    std::fs::remove_dir_all(&d).ok();
    d
}

/// Both phases on one seed. The durable phase reports only its checks and
/// the per-layer metrics of storage, shedding and recovery.
pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> Outcome {
    let mut out = phase(FORUM, seed, seconds, traced, work);
    let storage = phase(DURABLE, seed, seconds * DURABLE_SHARE, traced, work);
    out.attempted += storage.attempted;
    out.failed += storage.failed;
    out.checks.absorb(storage.checks);
    out.metrics.extend(storage.metrics);
    out.trace_rows.extend(storage.trace_rows);
    out
}

fn phase(shape: Shape, seed: u64, seconds: f64, traced: bool, work: &Path) -> Outcome {
    let mut checks = Checks::default();
    let mut out = Outcome::default();
    // Durable runs stop half a snapshot period past a snapshot, so the
    // crash leaves a journal tail for recovery to replay.
    let num_batches = (shape.rate * seconds).round() as usize + shape.snapshot_every / 2;
    let t = traffic(&shape, seed, num_batches);
    let mcfg = TpGnnConfig::sum(3).with_seed(seed ^ 0x7365_7276);
    let epoch = Instant::now();

    let setup = || {
        let model = TpGnn::new(mcfg.clone());
        let mut warm = SessionServer::new(&model, serve_config(&t, None, None))
            .expect("TP-GNN-SUM serves incrementally");
        for i in 0..WARM_BATCHES.min(t.batches.len()) {
            for sid in &t.opens[i] {
                warm.register(*sid, t.features[*sid as usize].clone());
            }
            std::hint::black_box(warm.ingest(&t.batches[i]).expect("warm-up ingest"));
        }
        drop(warm);
        model
    };
    let (setup_s, model) = if shape.durable {
        (0.0, setup())
    } else {
        setup_reps(setup)
    };

    let dir = shape.durable.then(|| fresh_dir(work, "base"));
    let cfg = serve_config(&t, dir.as_deref(), None);
    let base = SessionServer::new(&model, cfg.clone())
        .map_err(|e| e.to_string())
        .and_then(|mut s| drive(&mut s, &t, shape.rate, epoch));
    let base = match base {
        Ok(p) => p,
        Err(e) => {
            checks.check(false, e);
            out.failed = 1;
            out.attempted = 1;
            out.checks = checks;
            return out;
        }
    };
    out.attempted = t.batches.len() as u64;
    checks.check(
        base.conserved,
        format!(
            "opened == closed + resident + spilled + poisoned ({:?})",
            base.stats
        ),
    );
    let mut base_recover = None;
    if shape.durable {
        base_recover = recover_reps(&model, &cfg, 3, &mut checks);
        if let Some((_, report)) = &base_recover {
            checks.check(
                recovered_history(report) == fmt_history(&base.records, &base.faults),
                "recovered delivered history equals what was delivered before the crash, bitwise",
            );
        }
        checks.check(
            base.stats.evicted > 0 && base.stats.restored > 0,
            format!(
                "the residency budget forces evict and restore ({:?})",
                base.stats
            ),
        );
    }

    if !shape.durable {
        let s = &base.stats;
        let lost =
            s.dropped_closed + s.dropped_poisoned + s.dropped_refused + s.shed_refused_events;
        out.set("quality_share", 1.0 - lost as f64 / t.events as f64);
        out.set("setup_s", setup_s);
        let work_per_batch: Vec<f64> = t.batches.iter().map(|b| b.len() as f64).collect();
        match (
            chunked_rate(&work_per_batch, &base.service_s, shape.chunk),
            percentile(&base.latency_ms, 50.0),
            segmented_p99(&base.latency_ms),
            p99(&base.gen_lag_ms),
        ) {
            (Ok(rate), Ok(p50), Ok(tail), Ok(lag)) => {
                out.set("throughput_per_s", rate);
                out.set("latency_p50_ms", p50);
                out.set("latency_p99_ms", tail);
                out.set("loadgen.lag_p99_ms", lag);
                // The generator fell behind when, at p99, it sent batches
                // several periods after they were due while the server was
                // idle. A shorter lag is wake-up jitter of the shared host;
                // it is reported, and it lands in the latencies as a stall
                // would.
                let limit_ms = MAX_GEN_LAG_PERIODS * 1e3 / shape.rate;
                checks.check(
                    lag <= limit_ms,
                    format!("run valid: load generator lag p99 {lag:.3} ms <= {limit_ms} ms"),
                );
            }
            (a, b, c, d) => {
                for e in [a.err(), b.err(), c.err(), d.err()].into_iter().flatten() {
                    checks.check(false, e);
                }
            }
        }
        check_final_scores(&mut TpGnn::new(mcfg.clone()), &t, &base, &cfg, &mut checks);
    }

    if traced {
        let rec = Recorder::new(epoch);
        let timed = TimedScorer {
            inner: &model,
            rec: rec.clone(),
        };
        let vfs: Arc<dyn Vfs> = Arc::new(TimedVfs {
            inner: Arc::new(RetryVfs::new(Arc::new(StdVfs))),
            rec: rec.clone(),
        });
        let dir = shape.durable.then(|| fresh_dir(work, "traced"));
        let tcfg = serve_config(&t, dir.as_deref(), Some(vfs));
        let retries0 = tpgnn_obs::metrics::counter("io.retry").get();
        profile::set_enabled(true);
        profile::reset();
        let traced_pass = SessionServer::new(&timed, tcfg.clone())
            .map_err(|e| e.to_string())
            .and_then(|mut s| drive(&mut s, &t, shape.rate, epoch));
        let prof = profile::snapshot();
        profile::set_enabled(false);
        profile::reset();
        let tp = match traced_pass {
            Ok(p) => p,
            Err(e) => {
                checks.check(false, e);
                out.checks = checks;
                return out;
            }
        };
        let serve_spans = rec.take();
        let traced_recover = if shape.durable {
            recover_reps(&timed, &tcfg, 3, &mut checks)
        } else {
            None
        };
        let recover_spans = rec.take();
        let retries = tpgnn_obs::metrics::counter("io.retry").get() - retries0;

        checks.check(
            fmt_history(&tp.records, &tp.faults) == fmt_history(&base.records, &base.faults)
                && tp.stats == base.stats,
            "traced scores, faults and ServeStats equal the untraced pass bitwise",
        );
        if let (Some((_, a)), Some((_, b))) = (&base_recover, &traced_recover) {
            checks.check(
                a.batches_replayed == b.batches_replayed
                    && recovered_history(a) == recovered_history(b),
                "traced recovery replays and returns what untraced recovery did",
            );
        }

        // Per-batch self time: ingest minus the union of model and vfs
        // spans inside it.
        let children = covered_ns(&tp.ingest, &serve_spans);
        let ingest_ns: u64 = tp.ingest.iter().map(|(a, b)| b - a).sum();
        let child_ns: u64 = children.iter().sum();
        let waits: Vec<f64> = tp
            .latency_ms
            .iter()
            .zip(&tp.service_s)
            .map(|(l, s)| l - s * 1e3)
            .collect();
        let service_us: Vec<f64> = tp.service_s.iter().map(|s| s * 1e6).collect();
        // Busy time only: the client's sleep is not the program's work.
        let coverage = ingest_ns as f64 / 1e9 / (tp.wall_s - tp.slept_s);
        checks.check(
            coverage >= 0.95,
            format!("ingest spans cover {coverage:.4} of the traced pass's busy time (need 0.95)"),
        );

        if shape.durable {
            let (_, append_us, append_bytes) = kind_stats(&serve_spans, Kind::Append);
            let (syncs, sync_us, _) = kind_stats(&serve_spans, Kind::Sync);
            let (_, atomic_us, atomic_bytes) = kind_stats(&serve_spans, Kind::CreateAtomic);
            let (_, read_us, _) = kind_stats(&recover_spans, Kind::Read);
            out.set("serve.evicted", tp.stats.evicted as f64);
            out.set("serve.restored", tp.stats.restored as f64);
            out.set(
                "serve.shed_refused_events",
                tp.stats.shed_refused_events as f64,
            );
            out.set("obs.vfs.append_us", append_us);
            out.set("obs.vfs.sync_us", sync_us);
            out.set("obs.vfs.sync_calls", syncs as f64);
            out.set(
                "obs.vfs.bytes_per_event",
                (append_bytes + atomic_bytes) as f64 / t.events as f64,
            );
            out.set("obs.vfs.create_atomic_us", atomic_us);
            out.set("obs.vfs.retries", retries as f64);
            out.set("obs.vfs.read_us", read_us);
            if let Some((secs, report)) = &traced_recover {
                out.set("serve.recover_s", *secs);
                out.set(
                    "serve.recover.batches_replayed",
                    report.batches_replayed as f64,
                );
            }
        } else {
            let (_, open_us, _) = kind_stats(&serve_spans, Kind::Open);
            let (advances, advance_us, _) = kind_stats(&serve_spans, Kind::Advance);
            let (scores, score_us, _) = kind_stats(&serve_spans, Kind::Score);
            let prof = TapeProfile::of(&prof, tp.stats.opened);
            out.set("core.advance_us", advance_us);
            out.set("core.advance_calls", advances as f64);
            out.set("core.score_us", score_us);
            out.set("core.score_calls", scores as f64);
            out.set("core.open_session_us", open_us);
            out.set("tensor.param_elems_per_graph", prof.param_elems);
            out.set("tensor.tape_nodes_per_graph", prof.tape_nodes);
            out.set("tensor.param_time_share", prof.param_share);
            out.set("tensor.matmul_time_share", prof.matmul_share);
            out.set("serve.ingest_us", median(&service_us));
            out.set("serve.queue_wait_ms", median(&waits));
            out.set(
                "serve.ingest_self_share",
                1.0 - child_ns as f64 / ingest_ns.max(1) as f64,
            );
            out.set(
                "trace.overhead_share",
                ingest_ns as f64 / 1e9 / base.service_s.iter().sum::<f64>() - 1.0,
            );
            out.set("trace.coverage_share", coverage);

            // Same traffic, same open loop, at width 1: the fan-out's worth.
            let narrow = tpgnn_par::with_thread_override(1, || {
                SessionServer::new(&model, cfg.clone())
                    .map_err(|e| e.to_string())
                    .and_then(|mut s| drive(&mut s, &t, shape.rate, epoch))
            });
            match narrow {
                Ok(w1) => {
                    checks.check(
                        fmt_history(&w1.records, &w1.faults)
                            == fmt_history(&base.records, &base.faults),
                        "width-1 scores equal width-2 scores bitwise",
                    );
                    out.set(
                        "par.serve_width_ratio",
                        base.service_s.iter().sum::<f64>() / w1.service_s.iter().sum::<f64>(),
                    );
                }
                Err(e) => checks.check(false, e),
            }
        }
        let phase = if shape.durable { "durable" } else { "memory" };
        out.trace_rows = tp
            .ingest
            .iter()
            .zip(&children)
            .zip(&tp.latency_ms)
            .enumerate()
            .map(|(i, (((a, b), c), l))| {
                format!(
                    "{{\"span\":\"serve.ingest\",\"phase\":\"{phase}\",\"batch\":{i},\"start_ns\":{a},\"end_ns\":{b},\"child_ns\":{c},\"latency_ms\":{l}}}"
                )
            })
            .collect();
    }
    out.checks = checks;
    out
}
