//! # tpgnn-serve
//!
//! Online serving for TP-GNN: a resident, sharded store of per-session
//! incremental model states fed by the streaming ingestion path.
//!
//! Each arriving [`SessionEvent`] is routed to its session's
//! [`CtdnBuilder`], which reorders, dedups, and quarantines exactly as the
//! offline pipeline does; every event the builder *releases* advances the
//! session's [`SessionState`] one TP-GNN step (Algorithm 1 loop body — no
//! replay of the prefix). A global watermark (max event time seen minus
//! [`ServeConfig::session_gap`]) decides when a session is over: the
//! reorder-buffer tail is flushed, the state advanced through it, and the
//! session classified and evicted. Mid-session **early-warning** scores can
//! be emitted every [`ServeConfig::early_warning_every`] released edges.
//!
//! Every score — early or final — is **bitwise identical** to batch
//! [`predict_proba`](tpgnn_core::GraphClassifier::predict_proba) on the
//! graph of released edges, and the whole request loop is bitwise
//! deterministic at any worker-pool width: sessions shard by
//! `session_id % num_shards` (independent of thread count), shards fan out
//! on the `tpgnn-par` pool with one tape per worker, and results are
//! collected in shard order. `tests/replay_props.rs` and the workspace
//! determinism suite pin both properties.
//!
//! ## Overload, bounded memory, and crash recovery
//!
//! The server never panics and never silently drops an edge under load.
//! Configurable budgets ([`ServeConfig::max_resident_sessions`],
//! [`ServeConfig::max_buffered_edges`]) drive a deterministic shedding
//! ladder decided at batch boundaries: first Early scoring suspends, then
//! idle sessions are **evicted** — spilled to disk through the checksummed
//! atomic checkpoint machinery and transparently restored on their next
//! edge, bitwise-identically — and only then are *new* admissions refused,
//! each refusal attributed in the [`SessionFault`] ledger. A per-shard
//! append-only journal (fsync'd, checksummed, torn-tail tolerant) plus
//! periodic snapshots make the whole serving state recoverable after
//! `kill -9`: [`SessionServer::recover`] rebuilds in-flight sessions and
//! replays committed batches, self-checking every regenerated score
//! against the journaled one. A wall-clock shard watchdog
//! ([`ServeConfig::watchdog_ms`]) quarantines sessions that blow their
//! per-batch deadline; its verdicts are journaled so replay applies them
//! verbatim instead of re-measuring.
//!
//! The [`loadgen`] module turns the seeded chaos injectors into an
//! open-loop traffic model for benchmarks and smoke tests.
//!
//! ## Live telemetry, trace correlation, and SLOs
//!
//! Every unit of work carries a deterministic [`trace_id`] — a pure
//! function of (session, batch) — threaded through `serve.request` span
//! events, journal frames, fault-ledger entries, and spill-file headers,
//! so the `obs_report` tool can reconstruct a session's full lifecycle by
//! joining on the id alone, and crash-recovery replay reproduces the ids
//! bitwise. With [`ServeConfig::telemetry`] set, a server-owned ticker
//! thread publishes windowed metrics snapshots (JSONL time series plus a
//! Prometheus-style exposition file) while the server runs, and
//! [`ServeConfig::slo`] objectives are evaluated per window with
//! multi-window burn rates ([`slo`] module). All of it is gated on the
//! trace/metrics enable flags: a server without telemetry configured
//! spawns no thread and pays one relaxed atomic load per gate.

#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use tpgnn_core::{IncrementalScorer, SessionState};
use tpgnn_graph::stream::{CtdnBuilder, QuarantineLog, StreamConfig, StreamEvent, StreamStats};
use tpgnn_graph::{NodeFeatures, TemporalEdge};
use tpgnn_obs::metrics::{self, Counter, Gauge, Histogram};
use tpgnn_obs::trace;
use tpgnn_obs::vfs::{self, Vfs};
use tpgnn_tensor::Tape;

mod admission;
mod error;
mod recover;
mod spill;

pub mod journal;
pub mod loadgen;
pub mod slo;
pub mod wire;

pub use error::{FaultKind, ServeError, SessionFault};
pub use recover::{BatchOutput, RecoverReport};

/// Deterministic trace id for the work done on `session` during `batch`.
///
/// A pure function of committed traffic — no wall clock, no randomness —
/// so crash-recovery replay mints bitwise-identical ids, and every surface
/// that logs one (`serve.request` span events, journal R/E/S/F/W frames,
/// fault-ledger entries, spill-file headers) can be joined after the fact
/// on the id alone. Rendered everywhere as fixed-width hex via
/// [`trace_hex`].
pub fn trace_id(session: u64, batch: usize) -> u64 {
    tpgnn_tensor::ckpt::fnv1a(format!("tpgnn-trace v1 {session} {batch}").as_bytes())
}

/// Canonical rendering of a [`trace_id`]: 16 lowercase hex digits.
pub fn trace_hex(trace: u64) -> String {
    format!("{trace:016x}")
}

/// One raw record offered to the server: which session it belongs to, plus
/// the stream event itself (the unit the chaos injectors mutate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SessionEvent {
    /// The session this event belongs to.
    pub session: u64,
    /// The edge record as it arrived off the wire.
    pub event: StreamEvent,
}

impl SessionEvent {
    /// Convenience constructor.
    pub fn new(session: u64, event: StreamEvent) -> Self {
        Self { session, event }
    }
}

/// Whether a score was emitted mid-session or at session close.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScoreKind {
    /// Mid-session early warning (the session is still open).
    Early,
    /// Final classification at watermark-driven (or forced) close.
    Final,
}

/// One emitted score. `Final` records additionally carry the session's
/// ingestion accounting and quarantine log, so fault reconciliation works
/// from the outside.
#[derive(Clone, Debug)]
pub struct ScoreRecord {
    /// The scored session.
    pub session: u64,
    /// Early warning vs final classification.
    pub kind: ScoreKind,
    /// Probability the session is a positive graph — bitwise equal to the
    /// batch `predict_proba` on the released-edge graph.
    pub proba: f32,
    /// Released edges advanced into the state when the score was taken.
    pub edges: usize,
    /// Deterministic trace id of the (session, batch) that emitted this
    /// score ([`trace_id`]) — the join key back to the `serve.request`
    /// span, journal frames, and spill files of the same causal history.
    pub trace: u64,
    /// Ingestion accounting (`Final` only).
    pub stats: Option<StreamStats>,
    /// Quarantine log (`Final` only).
    pub quarantine: Option<QuarantineLog>,
}

/// Serving-layer configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Per-session streaming ingestion config (reorder window, lateness,
    /// dedup, skew offsets). `track_releases` is forced on by the server.
    pub stream: StreamConfig,
    /// A session closes when the global watermark (max event time seen
    /// across all sessions minus this gap) passes its last activity.
    /// `f64::INFINITY` disables watermark closes — only
    /// [`SessionServer::close_all`] then closes sessions.
    pub session_gap: f64,
    /// Number of session shards. Sessions route by `id % num_shards`;
    /// fixed by config (NOT by thread count) so results are identical at
    /// any pool width.
    pub num_shards: usize,
    /// Emit an early-warning score every N released edges; `0` disables.
    pub early_warning_every: usize,
    /// Node count for sessions that were never
    /// [`register`](SessionServer::register)ed.
    pub default_nodes: usize,
    /// Feature dimension for unregistered sessions; must match the model's
    /// input dimension.
    pub default_feature_dim: usize,
    /// Admission budget: maximum sessions resident in memory; `0` means
    /// unbounded. Over budget, the shedding ladder engages (suspend Early,
    /// evict idle, refuse new).
    pub max_resident_sessions: usize,
    /// Admission budget: maximum buffered edges across resident sessions
    /// (released edge logs plus reorder buffers); `0` means unbounded.
    pub max_buffered_edges: usize,
    /// Pressure fraction (of either budget) at which Early scoring
    /// suspends — the ladder's first, cheapest rung.
    pub shed_early_at: f64,
    /// Directory for evicted-session spill files. `None` disables the
    /// eviction rung (the ladder skips from Early suspension to refusal).
    pub spill_dir: Option<PathBuf>,
    /// Directory for the per-shard session journal and snapshots. `None`
    /// disables journaling (and with it [`SessionServer::recover`]).
    pub journal_dir: Option<PathBuf>,
    /// Write a full server snapshot every N committed batches; `0` means
    /// never (recovery then replays the journal from the beginning).
    pub snapshot_every: usize,
    /// Shard watchdog: a session whose advance+score work exceeds this
    /// many wall-clock milliseconds within one batch is quarantined as
    /// [`FaultKind::Poisoned`], with the measurement attributed in the
    /// fault ledger and journaled for replay. `0` disables (the default:
    /// the watchdog is the one wall-clock-dependent decision, so
    /// deterministic test suites leave it off).
    pub watchdog_ms: u64,
    /// Service-level objectives evaluated per telemetry window (burn-rate
    /// gauges, `slo.breach` events). `None` disables SLO tracking. Without
    /// [`telemetry`](Self::telemetry) no windows tick, so objectives are
    /// only evaluated when live telemetry is on.
    pub slo: Option<slo::SloConfig>,
    /// Live telemetry: a server-owned ticker thread appending windowed
    /// metrics snapshots as a JSONL time series plus a Prometheus-style
    /// exposition file, both readable while the server runs. `None` (the
    /// default) spawns nothing and costs nothing.
    pub telemetry: Option<TelemetryConfig>,
    /// Storage stack for every durability path the server owns (journal,
    /// spill files, snapshots, telemetry files). `None` (the default) uses
    /// the process-global [`tpgnn_obs::vfs::global`] stack; the chaos
    /// harness and fault-injection tests pass an injector stack here.
    pub vfs: Option<Arc<dyn Vfs>>,
}

/// Where and how often the server's telemetry ticker publishes windowed
/// metrics snapshots (see [`tpgnn_obs::snapshot`]).
#[derive(Clone, Debug)]
pub struct TelemetryConfig {
    /// Directory for `live-<run>.jsonl` and `metrics-<run>.prom`.
    pub dir: PathBuf,
    /// Run name embedded in both file names.
    pub run: String,
    /// Tick interval in milliseconds (clamped to ≥ 1).
    pub tick_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            stream: StreamConfig::default(),
            session_gap: f64::INFINITY,
            num_shards: 8,
            early_warning_every: 0,
            default_nodes: 16,
            default_feature_dim: 3,
            max_resident_sessions: 0,
            max_buffered_edges: 0,
            shed_early_at: 0.9,
            spill_dir: None,
            journal_dir: None,
            snapshot_every: 0,
            watchdog_ms: 0,
            slo: None,
            telemetry: None,
            vfs: None,
        }
    }
}

/// Cumulative serving counters (deterministic — no wall-clock content).
///
/// Accounting invariants, preserved across spill/restore and recovery:
/// `opened == closed + resident + spilled + poisoned` and every dropped or
/// shed event is counted in exactly one `dropped_*`/`shed_*` counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Ingest batches processed.
    pub batches: usize,
    /// Events offered across all batches.
    pub events: usize,
    /// Sessions opened.
    pub opened: usize,
    /// Early-warning scores emitted.
    pub early_scores: usize,
    /// Final scores emitted.
    pub final_scores: usize,
    /// Sessions closed (watermark or forced).
    pub closed: usize,
    /// Events dropped because their session was already closed.
    pub dropped_closed: usize,
    /// Events dropped because their session was poisoned by the watchdog.
    pub dropped_poisoned: usize,
    /// Events dropped because their session was refused at open.
    pub dropped_refused: usize,
    /// Sessions refused at open (feature-dim mismatch or a model without
    /// an incremental form).
    pub refused: usize,
    /// Idle sessions evicted to disk under memory pressure.
    pub evicted: usize,
    /// Spilled sessions transparently restored on their next edge.
    pub restored: usize,
    /// New sessions refused admission by the shedding ladder.
    pub shed_refused_sessions: usize,
    /// Events shed with those refusals (attributed in the fault ledger).
    pub shed_refused_events: usize,
    /// Batches processed with Early scoring suspended.
    pub early_suspensions: usize,
    /// Early-warning scores skipped while suspended.
    pub early_skipped: usize,
    /// Sessions quarantined by the shard watchdog.
    pub poisoned: usize,
}

/// Why a session id is tombstoned (further traffic counted per cause).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tomb {
    Closed,
    Poisoned,
    Refused,
}

/// One resident session: its streaming builder, incremental model state,
/// and close bookkeeping.
pub(crate) struct SessionEntry {
    pub(crate) builder: CtdnBuilder,
    pub(crate) state: SessionState,
    /// Max raw event time offered to this session, malformed times counted
    /// at the stream clock (watermark comparisons).
    pub(crate) last_seen: f64,
    /// Released-edge count at which the next early warning fires.
    pub(crate) next_warn: usize,
    /// Last batch index in which this session received events (LRU key).
    pub(crate) last_active_batch: usize,
}

impl SessionEntry {
    /// Buffered-edge cost of this session against
    /// [`ServeConfig::max_buffered_edges`].
    fn cost_edges(&self) -> usize {
        self.state.num_edges() + self.builder.buffer_depth()
    }
}

/// Per-batch counter deltas a shard hands back to the coordinator (the
/// coordinator owns the cumulative [`ServeStats`], so snapshots capture
/// exact counts).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ShardDelta {
    opened: usize,
    refused: usize,
    dropped_closed: usize,
    dropped_poisoned: usize,
    dropped_refused: usize,
    early_skipped: usize,
    restored: usize,
    poisoned: usize,
}

/// One shard of the session store plus its per-batch scratch queues.
pub(crate) struct Shard {
    pub(crate) sessions: BTreeMap<u64, SessionEntry>,
    /// Features declared ahead of first arrival via `register`.
    pub(crate) registered: BTreeMap<u64, NodeFeatures>,
    /// Tombstoned session ids: further traffic is counted and dropped.
    pub(crate) tombstones: BTreeMap<u64, Tomb>,
    /// Evicted sessions: id → batch whose spill file holds the state.
    pub(crate) spilled: BTreeMap<u64, usize>,
    /// This batch's events, in arrival order (filled before fan-out).
    pending: Vec<(u64, StreamEvent)>,
    /// Spilled sessions with traffic this batch: restore before processing.
    restore_list: Vec<u64>,
    /// Faults staged this batch (admission first, then processing order).
    faults: Vec<SessionFault>,
    /// Watchdog verdicts performed this batch (session, elapsed µs).
    poisons: Vec<(u64, u64)>,
    /// Counter deltas for this batch.
    delta: ShardDelta,
}

impl Shard {
    fn new() -> Self {
        Self {
            sessions: BTreeMap::new(),
            registered: BTreeMap::new(),
            tombstones: BTreeMap::new(),
            spilled: BTreeMap::new(),
            pending: Vec::new(),
            restore_list: Vec::new(),
            faults: Vec::new(),
            poisons: Vec::new(),
            delta: ShardDelta::default(),
        }
    }

    fn fault(&mut self, session: u64, batch_idx: usize, kind: FaultKind, detail: String) {
        self.faults.push(SessionFault { session, trace: trace_id(session, batch_idx), kind, detail });
    }

    /// Restore, process this batch's pending events, apply watchdog
    /// verdicts, then close every session the watermark has passed. Runs
    /// on a pool worker with a worker-local tape; output order is a pure
    /// function of the input order (the watchdog's wall-clock verdicts are
    /// journaled and replayed, never re-measured), so the flattened result
    /// is identical at any pool width.
    #[allow(clippy::too_many_arguments)]
    fn process<M: IncrementalScorer>(
        &mut self,
        tape: &mut Tape,
        model: &M,
        cfg: &ServeConfig,
        vfs: &dyn Vfs,
        clock: f64,
        watermark: f64,
        batch_idx: usize,
        early_enabled: bool,
        poison_plan: Option<&[(u64, u64)]>,
    ) -> Vec<ScoreRecord> {
        let mut out = Vec::new();

        // Restore-on-next-edge: spilled sessions with traffic this batch
        // come back from disk before their events are applied. A failed
        // restore quarantines the session (fail closed) and counts every
        // dropped event — never a panic, never a silent drop.
        for sid in std::mem::take(&mut self.restore_list) {
            let Some(spill_batch) = self.spilled.remove(&sid) else {
                self.fault(
                    sid,
                    batch_idx,
                    FaultKind::Invariant,
                    format!("batch {batch_idx}: restore requested but session not spilled"),
                );
                self.tombstones.insert(sid, Tomb::Refused);
                continue;
            };
            let Some(dir) = cfg.spill_dir.as_deref() else {
                // A spilled session without a spill dir means the server
                // was rebuilt with a narrower config — fail the session
                // closed instead of panicking a worker.
                self.fault(
                    sid,
                    batch_idx,
                    FaultKind::Invariant,
                    format!("batch {batch_idx}: session spilled but no spill_dir configured"),
                );
                self.tombstones.insert(sid, Tomb::Refused);
                continue;
            };
            match spill::read(vfs, dir, sid, spill_batch, &cfg.stream) {
                Ok(entry) => {
                    self.sessions.insert(sid, entry);
                    self.delta.restored += 1;
                    cells().shed_restored.inc();
                    if trace::enabled() {
                        trace::event(
                            "serve.restore",
                            &[
                                (
                                    "trace",
                                    tpgnn_obs::Json::Str(trace_hex(trace_id(sid, batch_idx))),
                                ),
                                ("session", tpgnn_obs::Json::from(sid)),
                                ("spill_batch", tpgnn_obs::Json::from(spill_batch as u64)),
                            ],
                        );
                    }
                }
                Err(e) => {
                    self.fault(
                        sid,
                        batch_idx,
                        FaultKind::Io,
                        format!("batch {batch_idx}: restore from spill batch {spill_batch} failed: {e}"),
                    );
                    self.tombstones.insert(sid, Tomb::Refused);
                }
            }
        }

        let measure = cfg.watchdog_ms > 0 && poison_plan.is_none();
        let mut session_us: BTreeMap<u64, u64> = BTreeMap::new();
        let pending = std::mem::take(&mut self.pending);
        for (sid, ev) in pending {
            match self.tombstones.get(&sid) {
                Some(Tomb::Closed) => {
                    self.delta.dropped_closed += 1;
                    continue;
                }
                Some(Tomb::Poisoned) => {
                    self.delta.dropped_poisoned += 1;
                    continue;
                }
                Some(Tomb::Refused) => {
                    self.delta.dropped_refused += 1;
                    continue;
                }
                None => {}
            }
            if !self.sessions.contains_key(&sid) && !self.open(tape, model, cfg, sid, batch_idx) {
                self.delta.dropped_refused += 1;
                continue;
            }
            // Invariant-checked lookup: an open session must be resident.
            // A miss here is a serving defect — quarantine the session and
            // keep the batch going instead of panicking on a worker.
            let Some(entry) = self.sessions.get_mut(&sid) else {
                self.fault(
                    sid,
                    batch_idx,
                    FaultKind::Invariant,
                    format!("batch {batch_idx}: session opened but not resident"),
                );
                self.tombstones.insert(sid, Tomb::Refused);
                self.delta.dropped_refused += 1;
                continue;
            };
            let t0 = measure.then(Instant::now);
            entry.last_active_batch = batch_idx;
            // A malformed time (NaN, ±∞, ≤ 0) is still activity: it counts
            // at the stream clock, or a session whose first arrival is
            // malformed would close this batch and drop its valid events.
            let seen = if ev.time.is_finite() && ev.time > 0.0 { ev.time } else { clock };
            entry.last_seen = entry.last_seen.max(seen);
            entry.builder.push(ev);
            Self::advance(tape, model, entry);
            if cfg.early_warning_every > 0 {
                while entry.state.num_edges() >= entry.next_warn {
                    if early_enabled {
                        tape.reset();
                        let proba = model.score_session(tape, &entry.state);
                        cells().early.inc();
                        out.push(ScoreRecord {
                            session: sid,
                            kind: ScoreKind::Early,
                            proba,
                            edges: entry.state.num_edges(),
                            trace: trace_id(sid, batch_idx),
                            stats: None,
                            quarantine: None,
                        });
                    } else {
                        // Rung 1 of the shedding ladder: the warning slot
                        // passes unscored (but counted), so resume after
                        // pressure drops does not flood stale warnings.
                        self.delta.early_skipped += 1;
                    }
                    entry.next_warn += cfg.early_warning_every;
                }
            }
            if let Some(t0) = t0 {
                *session_us.entry(sid).or_insert(0) += t0.elapsed().as_micros() as u64;
            }
        }

        // Watchdog: live mode measures, replay applies the journaled
        // verdicts verbatim (wall-clock must not influence a replay).
        let verdicts: Vec<(u64, u64)> = match poison_plan {
            Some(plan) => plan.to_vec(),
            None => session_us
                .into_iter()
                .filter(|(_, us)| *us > cfg.watchdog_ms.saturating_mul(1000))
                .collect(),
        };
        for (sid, elapsed_us) in verdicts {
            if self.sessions.remove(&sid).is_none() {
                self.fault(
                    sid,
                    batch_idx,
                    FaultKind::Invariant,
                    format!("batch {batch_idx}: watchdog verdict for non-resident session"),
                );
                continue;
            }
            self.tombstones.insert(sid, Tomb::Poisoned);
            self.delta.poisoned += 1;
            self.poisons.push((sid, elapsed_us));
            cells().poisoned.inc();
            self.fault(
                sid,
                batch_idx,
                FaultKind::Poisoned,
                format!(
                    "batch {batch_idx}: watchdog: {elapsed_us}us over {}ms deadline",
                    cfg.watchdog_ms
                ),
            );
        }

        // Watermark close pass: ascending session id, deterministically.
        let due: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, e)| e.last_seen < watermark)
            .map(|(id, _)| *id)
            .collect();
        for sid in due {
            // Invariant-checked removal (the id was listed just above).
            let Some(entry) = self.sessions.remove(&sid) else {
                self.fault(
                    sid,
                    batch_idx,
                    FaultKind::Invariant,
                    format!("batch {batch_idx}: close-due session vanished mid-pass"),
                );
                continue;
            };
            self.tombstones.insert(sid, Tomb::Closed);
            out.push(Self::close(tape, model, sid, batch_idx, entry));
        }
        out
    }

    /// Open a session: streaming builder plus incremental model state over
    /// its registered (or default zero) features. Returns `false` on
    /// refusal (recorded, never panics).
    fn open<M: IncrementalScorer>(
        &mut self,
        tape: &mut Tape,
        model: &M,
        cfg: &ServeConfig,
        sid: u64,
        batch_idx: usize,
    ) -> bool {
        let features = self
            .registered
            .remove(&sid)
            .unwrap_or_else(|| NodeFeatures::zeros(cfg.default_nodes, cfg.default_feature_dim));
        tape.reset();
        match model.open_session(tape, &features) {
            Ok(state) => {
                let mut stream = cfg.stream.clone();
                stream.track_releases = true;
                self.sessions.insert(
                    sid,
                    SessionEntry {
                        builder: CtdnBuilder::new(features, stream),
                        state,
                        last_seen: f64::NEG_INFINITY,
                        next_warn: cfg.early_warning_every.max(1),
                        last_active_batch: batch_idx,
                    },
                );
                self.delta.opened += 1;
                true
            }
            Err(e) => {
                self.fault(sid, batch_idx, FaultKind::Refused, e);
                self.tombstones.insert(sid, Tomb::Refused);
                self.delta.refused += 1;
                false
            }
        }
    }

    /// Advance the model state through everything the builder released.
    fn advance<M: IncrementalScorer>(tape: &mut Tape, model: &M, entry: &mut SessionEntry) {
        for r in entry.builder.drain_released() {
            tape.reset();
            model.advance_session(tape, &mut entry.state, TemporalEdge::new(r.src, r.dst, r.time));
            cells().advanced.inc();
        }
    }

    /// Close one session: flush the reorder tail, advance through it,
    /// take the final score, and fold in the ingestion outcome.
    fn close<M: IncrementalScorer>(
        tape: &mut Tape,
        model: &M,
        sid: u64,
        batch_idx: usize,
        mut entry: SessionEntry,
    ) -> ScoreRecord {
        entry.builder.flush_buffer();
        Self::advance(tape, model, &mut entry);
        tape.reset();
        let proba = model.score_session(tape, &entry.state);
        let outcome = entry.builder.finish();
        cells().closed.inc();
        ScoreRecord {
            session: sid,
            kind: ScoreKind::Final,
            proba,
            edges: entry.state.num_edges(),
            trace: trace_id(sid, batch_idx),
            stats: Some(outcome.stats),
            quarantine: Some(outcome.quarantine),
        }
    }
}

/// The resident serving loop: a sharded store of live sessions over a
/// shared incremental model.
///
/// The model is borrowed, not owned: serving is read-only on the weights,
/// so the same model instance can train offline and serve from a snapshot
/// elsewhere. All request processing fans out over the `tpgnn-par` pool;
/// every returned record sequence is bitwise-identical at any pool width.
pub struct SessionServer<'m, M: IncrementalScorer + Sync> {
    model: &'m M,
    cfg: ServeConfig,
    pub(crate) shards: Vec<Shard>,
    /// Max finite event time seen across all sessions (watermark anchor).
    pub(crate) global_max: f64,
    pub(crate) stats: ServeStats,
    /// The fault ledger, drained via [`take_faults`](Self::take_faults).
    faults: Vec<SessionFault>,
    journal: Option<journal::Journal>,
    /// The storage stack resolved at construction (explicit config handle
    /// or the process-global default).
    pub(crate) vfs: Arc<dyn Vfs>,
    /// Server-owned telemetry ticker; held only for its Drop (final tick +
    /// join when the server is dropped).
    _telemetry: Option<tpgnn_obs::snapshot::Ticker>,
}

impl<'m, M: IncrementalScorer + Sync> SessionServer<'m, M> {
    /// Build a server over `model`.
    ///
    /// Fails fast with [`ServeError::BadConfig`] (instead of refusing
    /// every session later) when the model has no incremental form for the
    /// configured default feature dimension — e.g. the `rand` ablation —
    /// and with [`ServeError::Io`] when the journal directory cannot be
    /// opened.
    pub fn new(model: &'m M, cfg: ServeConfig) -> Result<Self, ServeError> {
        let mut probe_tape = Tape::new();
        let probe = NodeFeatures::zeros(1, cfg.default_feature_dim);
        model.open_session(&mut probe_tape, &probe).map_err(|e| ServeError::BadConfig {
            detail: format!("model cannot serve incrementally: {e}"),
        })?;
        if !(0.0..=1.0).contains(&cfg.shed_early_at) {
            return Err(ServeError::BadConfig {
                detail: format!("shed_early_at {} outside [0, 1]", cfg.shed_early_at),
            });
        }
        let num_shards = cfg.num_shards.max(1);
        let server_vfs = cfg.vfs.clone().unwrap_or_else(vfs::global);
        let journal = match &cfg.journal_dir {
            Some(dir) => Some(journal::Journal::open(&*server_vfs, dir, num_shards)?),
            None => None,
        };
        let telemetry = cfg.telemetry.as_ref().map(|t| {
            let writer = tpgnn_obs::snapshot::SnapshotWriter::with_vfs(
                &t.run,
                &t.dir,
                Arc::clone(&server_vfs),
            );
            let mut slo = cfg.slo.clone().map(slo::SloTracker::new);
            tpgnn_obs::snapshot::Ticker::spawn(
                writer,
                std::time::Duration::from_millis(t.tick_ms.max(1)),
                move |w| {
                    if let Some(s) = slo.as_mut() {
                        s.observe(w);
                    }
                },
            )
        });
        let shards = (0..num_shards).map(|_| Shard::new()).collect();
        Ok(Self {
            model,
            cfg,
            shards,
            global_max: f64::NEG_INFINITY,
            stats: ServeStats::default(),
            faults: Vec::new(),
            journal,
            vfs: server_vfs,
            _telemetry: telemetry,
        })
    }

    /// Declare a session's node features ahead of its first event.
    /// Unregistered sessions open over
    /// [`ServeConfig::default_nodes`] × [`ServeConfig::default_feature_dim`]
    /// zero features. Journaled (when a journal is configured) with the
    /// upcoming batch, so recovery replays registrations in place; after a
    /// crash, registrations for *uncommitted* batches are lost with those
    /// batches and must be re-issued alongside the re-fed traffic.
    pub fn register(&mut self, session: u64, features: NodeFeatures) {
        let shard = (session % self.shards.len() as u64) as usize;
        if let Some(j) = self.journal.as_mut() {
            j.stage_register(shard, self.stats.batches + 1, session, &features);
        }
        self.shards[shard].registered.insert(session, features);
    }

    /// Offer one batch of events; returns every score emitted (early
    /// warnings in event order per shard, then watermark closes in
    /// session-id order, shards concatenated in index order).
    ///
    /// Never panics and never silently drops an edge: overload refusals,
    /// watchdog quarantines, and restore failures all land in the fault
    /// ledger with their dropped-event counts. An `Err` (journal/spill
    /// I/O) means the batch was **not** committed — re-feed it.
    pub fn ingest(&mut self, batch: &[SessionEvent]) -> Result<Vec<ScoreRecord>, ServeError> {
        self.run_batch(batch, journal::BatchKind::Ingest, None)
    }

    /// Force-close every resident session (end of stream): restore spilled
    /// sessions, flush, final score, evict. Records are in session-id
    /// order within each shard.
    pub fn close_all(&mut self) -> Result<Vec<ScoreRecord>, ServeError> {
        self.run_batch(&[], journal::BatchKind::CloseAll, None)
    }

    pub(crate) fn run_batch(
        &mut self,
        batch: &[SessionEvent],
        kind: journal::BatchKind,
        poison_plan: Option<&BTreeMap<usize, Vec<(u64, u64)>>>,
    ) -> Result<Vec<ScoreRecord>, ServeError> {
        let t0 = Instant::now();
        let mut span = trace::span("serve.request");
        let batch_idx = self.stats.batches + 1;
        span.set("batch", batch_idx as f64);
        let n = self.shards.len() as u64;
        let closing = matches!(kind, journal::BatchKind::CloseAll);

        for (arrival, se) in batch.iter().enumerate() {
            let t = se.event.time;
            if t.is_finite() {
                self.global_max = self.global_max.max(t);
            }
            let shard = (se.session % n) as usize;
            if let Some(j) = self.journal.as_mut() {
                j.stage_event(shard, batch_idx, arrival, se);
            }
            self.shards[shard].pending.push((se.session, se.event));
        }

        // close_all must also drain spilled sessions: every one of them is
        // still open and owed a Final score.
        if closing {
            for shard in &mut self.shards {
                shard.restore_list = shard.spilled.keys().copied().collect();
            }
        }

        let plan = self.plan_shedding(batch, batch_idx);
        if let Err(e) = self.apply_shedding(&plan, batch_idx) {
            // The batch dies before commit: discard its staged journal
            // frames so they cannot ride into a later batch's commit block
            // (recovery would see a commit-log gap). In-memory state may
            // already be partially mutated — the contract on `ingest` is
            // that after an `Err` the caller recovers from the journal.
            if let Some(j) = self.journal.as_mut() {
                j.abort_batch();
            }
            return Err(e);
        }

        let watermark =
            if closing { f64::INFINITY } else { self.global_max - self.cfg.session_gap };
        let clock = self.global_max;
        let model = self.model;
        let cfg = &self.cfg;
        let early_enabled = !plan.suspend_early;
        let shard_vfs = Arc::clone(&self.vfs);
        let per_shard = tpgnn_par::map_mut(&mut self.shards, Tape::new, |tape, i, shard| {
            let poisons = poison_plan.and_then(|p| p.get(&i)).map(Vec::as_slice);
            shard.process(
                tape,
                model,
                cfg,
                &*shard_vfs,
                clock,
                watermark,
                batch_idx,
                early_enabled,
                poisons,
            )
        });
        let records: Vec<ScoreRecord> = per_shard.into_iter().flatten().collect();

        // Fold shard deltas and ledgers back into coordinator state.
        self.stats.batches += 1;
        self.stats.events += batch.len();
        if plan.suspend_early {
            self.stats.early_suspensions += 1;
            cells().shed_early_suspended.inc();
        }
        for r in &records {
            match r.kind {
                ScoreKind::Early => self.stats.early_scores += 1,
                ScoreKind::Final => {
                    self.stats.final_scores += 1;
                    self.stats.closed += 1;
                }
            }
        }
        for shard in &mut self.shards {
            let d = std::mem::take(&mut shard.delta);
            self.stats.opened += d.opened;
            self.stats.refused += d.refused;
            self.stats.dropped_closed += d.dropped_closed;
            self.stats.dropped_poisoned += d.dropped_poisoned;
            self.stats.dropped_refused += d.dropped_refused;
            self.stats.early_skipped += d.early_skipped;
            self.stats.restored += d.restored;
            self.stats.poisoned += d.poisoned;
        }
        let mut batch_faults = Vec::new();
        for shard in &mut self.shards {
            batch_faults.append(&mut shard.faults);
        }

        // Trace correlation: one event per score and per fault, each
        // carrying its deterministic trace id, so `obs_report` can join the
        // trace stream against journal frames and spill files offline.
        if trace::enabled() {
            use tpgnn_obs::Json;
            for r in &records {
                let kind = match r.kind {
                    ScoreKind::Early => "early",
                    ScoreKind::Final => "final",
                };
                trace::event(
                    "serve.score",
                    &[
                        ("trace", Json::Str(trace_hex(r.trace))),
                        ("session", Json::from(r.session)),
                        ("kind", Json::Str(kind.to_string())),
                        ("edges", Json::from(r.edges as u64)),
                    ],
                );
                if let Some(q) = &r.quarantine {
                    if !q.is_empty() {
                        trace::event(
                            "serve.quarantine",
                            &[
                                ("trace", Json::Str(trace_hex(r.trace))),
                                ("session", Json::from(r.session)),
                                ("entries", Json::from(q.len() as u64)),
                            ],
                        );
                    }
                }
            }
            for f in &batch_faults {
                trace::warn(
                    "serve.fault",
                    &[
                        ("trace", Json::Str(trace_hex(f.trace))),
                        ("session", Json::from(f.session)),
                        ("kind", Json::Str(f.kind.label().to_string())),
                        ("detail", Json::Str(f.detail.clone())),
                    ],
                );
            }
        }

        // Durability point: journal everything this batch produced, then
        // commit. Results reach the caller only after the commit frame is
        // on disk, so a delivered batch is always recoverable.
        if self.journal.is_some() {
            let mut shard_records: Vec<Vec<&ScoreRecord>> = vec![Vec::new(); self.shards.len()];
            for r in &records {
                shard_records[(r.session % n) as usize].push(r);
            }
            let mut shard_faults: Vec<Vec<&SessionFault>> = vec![Vec::new(); self.shards.len()];
            for f in &batch_faults {
                shard_faults[(f.session % n) as usize].push(f);
            }
            let poisons: Vec<(usize, u64, u64)> = self
                .shards
                .iter_mut()
                .enumerate()
                .flat_map(|(i, s)| {
                    std::mem::take(&mut s.poisons).into_iter().map(move |(sid, us)| (i, sid, us))
                })
                .collect();
            if let Some(j) = self.journal.as_mut() {
                for (i, rs) in shard_records.iter().enumerate() {
                    for r in rs {
                        j.stage_score(i, batch_idx, r);
                    }
                }
                for (i, fs) in shard_faults.iter().enumerate() {
                    for f in fs {
                        j.stage_fault(i, batch_idx, f);
                    }
                }
                for (i, sid, us) in poisons {
                    j.stage_watchdog(i, batch_idx, sid, us);
                }
                j.commit(batch_idx, kind, batch.len())?;
            }
            if self.cfg.snapshot_every > 0 && batch_idx.is_multiple_of(self.cfg.snapshot_every) {
                // The journal is truth; a snapshot only accelerates
                // recovery. Failing the batch here — after its commit frame
                // is durable — would make the driver re-feed a committed
                // batch (double delivery), so a failed snapshot degrades to
                // a counter + trace warning and recovery falls back to an
                // older snapshot or full replay.
                if let Err(e) = self.write_snapshot(batch_idx) {
                    cells().snapshot_failed.inc();
                    trace::warn(
                        "serve.snapshot_failed",
                        &[
                            ("batch", tpgnn_obs::Json::from(batch_idx as u64)),
                            ("error", tpgnn_obs::Json::Str(e.to_string())),
                        ],
                    );
                }
            }
        } else {
            for shard in &mut self.shards {
                shard.poisons.clear();
            }
        }
        self.faults.append(&mut batch_faults);

        let c = cells();
        c.requests.inc();
        c.events.add(batch.len() as u64);
        c.resident.set(self.resident() as f64);
        c.shed_pressure.set(plan.pressure);
        c.request_us.record(t0.elapsed().as_secs_f64() * 1e6);
        span.set("events", batch.len() as f64);
        span.set("records", records.len() as f64);
        span.set("resident", self.resident() as f64);
        Ok(records)
    }

    /// Classify this batch's load and run the shedding planner. Pure
    /// function of configuration and committed traffic.
    fn plan_shedding(&self, batch: &[SessionEvent], _batch_idx: usize) -> admission::ShedPlan {
        let budget = admission::Budget {
            max_resident: self.cfg.max_resident_sessions,
            max_buffered_edges: self.cfg.max_buffered_edges,
            shed_early_at: self.cfg.shed_early_at,
            can_spill: self.cfg.spill_dir.is_some(),
        };
        if !budget.bounded() {
            return admission::ShedPlan::default();
        }
        let n = self.shards.len() as u64;
        let mut new_events: BTreeMap<u64, usize> = BTreeMap::new();
        let mut new_order: Vec<u64> = Vec::new();
        let mut active: BTreeSet<u64> = BTreeSet::new();
        let mut restores = 0usize;
        for se in batch {
            let sid = se.session;
            if !active.insert(sid) {
                if let Some(c) = new_events.get_mut(&sid) {
                    *c += 1;
                }
                continue;
            }
            let shard = &self.shards[(sid % n) as usize];
            if shard.sessions.contains_key(&sid) || shard.tombstones.contains_key(&sid) {
                continue;
            }
            if shard.spilled.contains_key(&sid) {
                restores += 1;
            } else {
                new_events.insert(sid, 1);
                new_order.push(sid);
            }
        }
        let mut view = admission::LoadView {
            resident: self.resident(),
            buffered_edges: self.buffered_edges(),
            batch_events: batch.len(),
            restores,
            new_sessions: new_order.iter().map(|sid| (*sid, new_events[sid])).collect(),
            idle: Vec::new(),
        };
        for (i, shard) in self.shards.iter().enumerate() {
            for (sid, entry) in &shard.sessions {
                if !active.contains(sid) {
                    view.idle.push(admission::IdleSession {
                        session: *sid,
                        shard: i,
                        last_active_batch: entry.last_active_batch,
                        cost_edges: entry.cost_edges(),
                    });
                }
            }
        }
        admission::plan(&budget, &view)
    }

    /// Execute the plan: spill evictees, strip refused sessions' events
    /// from the pending queues (attributed, counted), set restore lists.
    fn apply_shedding(
        &mut self,
        plan: &admission::ShedPlan,
        batch_idx: usize,
    ) -> Result<(), ServeError> {
        let spill_dir = self.cfg.spill_dir.clone();
        let spill_vfs = Arc::clone(&self.vfs);
        for &(shard_idx, sid) in &plan.evict {
            let Some(dir) = spill_dir.as_deref() else {
                break; // the planner never evicts without a spill dir
            };
            let shard = &mut self.shards[shard_idx];
            let Some(entry) = shard.sessions.get(&sid) else {
                continue; // planned against a stale view; nothing to spill
            };
            spill::write(&*spill_vfs, dir, sid, batch_idx, entry)?;
            shard.sessions.remove(&sid);
            shard.spilled.insert(sid, batch_idx);
            self.stats.evicted += 1;
            cells().shed_evicted.inc();
            if trace::enabled() {
                trace::event(
                    "serve.evict",
                    &[
                        ("trace", tpgnn_obs::Json::Str(trace_hex(trace_id(sid, batch_idx)))),
                        ("session", tpgnn_obs::Json::from(sid)),
                    ],
                );
            }
        }
        let n = self.shards.len() as u64;
        for &sid in &plan.refuse {
            let shard = &mut self.shards[(sid % n) as usize];
            let before = shard.pending.len();
            shard.pending.retain(|(s, _)| *s != sid);
            let shed = before - shard.pending.len();
            self.stats.shed_refused_sessions += 1;
            self.stats.shed_refused_events += shed;
            cells().shed_refused_sessions.inc();
            cells().shed_refused_events.add(shed as u64);
            shard.fault(
                sid,
                batch_idx,
                FaultKind::Overloaded,
                format!("batch {batch_idx}: admission refused, {shed} event(s) shed"),
            );
        }
        // Restore lists: spilled sessions with surviving pending traffic.
        for shard in &mut self.shards {
            if shard.spilled.is_empty() {
                continue;
            }
            let mut listed: BTreeSet<u64> = shard.restore_list.iter().copied().collect();
            for (sid, _) in &shard.pending {
                if shard.spilled.contains_key(sid) && listed.insert(*sid) {
                    shard.restore_list.push(*sid);
                }
            }
        }
        Ok(())
    }

    /// Number of sessions currently resident (open state in some shard).
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.sessions.len()).sum()
    }

    /// Number of sessions currently spilled to disk (still open).
    pub fn spilled(&self) -> usize {
        self.shards.iter().map(|s| s.spilled.len()).sum()
    }

    /// Total buffered edges across resident sessions (the load measure
    /// behind [`ServeConfig::max_buffered_edges`]).
    pub fn buffered_edges(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.sessions.values())
            .map(SessionEntry::cost_edges)
            .sum()
    }

    /// Cumulative deterministic counters.
    pub fn stats(&self) -> &ServeStats {
        &self.stats
    }

    /// Drain the fault ledger: every refusal, shed, quarantine, and
    /// invariant breach since the last drain, in deterministic order (per
    /// shard: admission faults then processing faults; shards concatenated
    /// in index order, batches in commit order).
    pub fn take_faults(&mut self) -> Vec<SessionFault> {
        std::mem::take(&mut self.faults)
    }

    /// The active configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    pub(crate) fn detach_journal(&mut self) -> Option<journal::Journal> {
        self.journal.take()
    }

    pub(crate) fn attach_journal(&mut self, j: journal::Journal) {
        self.journal = Some(j);
    }
}

struct Cells {
    requests: &'static Counter,
    events: &'static Counter,
    advanced: &'static Counter,
    early: &'static Counter,
    closed: &'static Counter,
    poisoned: &'static Counter,
    shed_early_suspended: &'static Counter,
    shed_evicted: &'static Counter,
    shed_restored: &'static Counter,
    shed_refused_sessions: &'static Counter,
    shed_refused_events: &'static Counter,
    resident: &'static Gauge,
    shed_pressure: &'static Gauge,
    request_us: &'static Histogram,
    snapshot_failed: &'static Counter,
}

fn cells() -> &'static Cells {
    static CELLS: OnceLock<Cells> = OnceLock::new();
    CELLS.get_or_init(|| Cells {
        requests: metrics::counter("serve.requests"),
        events: metrics::counter("serve.events"),
        advanced: metrics::counter("serve.advanced"),
        early: metrics::counter("serve.scores_early"),
        closed: metrics::counter("serve.closed"),
        poisoned: metrics::counter("serve.watchdog.poisoned"),
        shed_early_suspended: metrics::counter("serve.shed.early_suspended"),
        shed_evicted: metrics::counter("serve.shed.evicted"),
        shed_restored: metrics::counter("serve.shed.restored"),
        shed_refused_sessions: metrics::counter("serve.shed.refused_sessions"),
        shed_refused_events: metrics::counter("serve.shed.refused_events"),
        resident: metrics::gauge("serve.sessions_resident"),
        shed_pressure: metrics::gauge("serve.shed.pressure"),
        request_us: metrics::histogram(
            "serve.request_us",
            &metrics::exponential_buckets(10.0, 2.0, 16),
        ),
        snapshot_failed: metrics::counter("serve.snapshot.failed"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpgnn_core::{GraphClassifier, TpGnn, TpGnnConfig};

    fn feats(n: usize) -> NodeFeatures {
        let mut f = NodeFeatures::zeros(n, 3);
        for v in 0..n {
            f.row_mut(v).copy_from_slice(&[v as f32 * 0.1, 0.5, 1.0 - v as f32 * 0.05]);
        }
        f
    }

    fn ev(session: u64, src: usize, dst: usize, t: f64) -> SessionEvent {
        SessionEvent::new(session, StreamEvent::new(src, dst, t))
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("tpgnn-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn sessions_close_at_watermark_and_score_matches_batch() {
        let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(4));
        let cfg = ServeConfig { session_gap: 5.0, ..ServeConfig::default() };
        let mut server = SessionServer::new(&model, cfg).unwrap();
        server.register(1, feats(4));
        server.register(2, feats(4));

        // Session 1 is active around t=1..3; session 2 keeps the clock
        // advancing until the watermark (t−5) passes session 1.
        let r = server
            .ingest(&[ev(1, 0, 1, 1.0), ev(1, 1, 2, 2.0), ev(2, 0, 1, 2.0), ev(1, 2, 3, 3.0)])
            .unwrap();
        assert!(r.is_empty());
        assert_eq!(server.resident(), 2);
        let r = server.ingest(&[ev(2, 1, 2, 9.5)]).unwrap(); // watermark 4.5 > 3.0
        assert_eq!(r.len(), 1);
        assert_eq!((r[0].session, r[0].kind), (1, ScoreKind::Final));
        assert_eq!(server.resident(), 1);

        // Bitwise: the final score equals batch predict_proba on the
        // session's released-edge graph.
        let mut model2 = TpGnn::new(TpGnnConfig::sum(3).with_seed(4));
        let mut g = tpgnn_graph::Ctdn::new(feats(4));
        for (s, d, t) in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)] {
            g.try_add_edge(s, d, t).unwrap();
        }
        assert_eq!(model2.predict_proba(&mut g).to_bits(), r[0].proba.to_bits());

        // Stragglers to the closed session are dropped, not mis-scored.
        server.ingest(&[ev(1, 0, 3, 9.6)]).unwrap();
        assert_eq!(server.stats().dropped_closed, 1);

        let rest = server.close_all().unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].session, 2);
        assert_eq!(server.resident(), 0);
        assert_eq!(server.stats().final_scores, 2);
        assert_eq!(server.stats().opened, 2);
        assert_eq!(server.stats().closed, 2);
    }

    #[test]
    fn malformed_first_arrival_does_not_close_its_session() {
        let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(4));
        let cfg = ServeConfig { session_gap: 5.0, ..ServeConfig::default() };
        let mut server = SessionServer::new(&model, cfg).unwrap();
        for sid in 1..=3 {
            server.register(sid, feats(4));
        }
        // Session 2 moves the stream clock to t=10 (watermark 5); sessions
        // 1 and 3 then open on a NaN and a negative time, both quarantined.
        assert!(server.ingest(&[ev(2, 0, 1, 10.0)]).unwrap().is_empty());
        let r = server.ingest(&[ev(1, 0, 1, f64::NAN), ev(3, 0, 1, -1.0)]).unwrap();
        assert!(r.is_empty(), "a malformed first arrival closed its session: {r:?}");
        assert_eq!(server.resident(), 3);

        // Their later valid events are absorbed, not dropped as closed.
        server.ingest(&[ev(1, 1, 2, 11.0), ev(3, 1, 2, 11.5)]).unwrap();
        assert_eq!(server.stats().dropped_closed, 0);
        let fin = server.close_all().unwrap();
        for sid in [1, 3] {
            let rec = fin.iter().find(|r| r.session == sid).unwrap();
            let stats = rec.stats.as_ref().unwrap();
            assert_eq!((stats.received, stats.released, stats.quarantined), (2, 1, 1));
        }
    }

    #[test]
    fn early_warnings_fire_every_n_released_edges() {
        let model = TpGnn::new(TpGnnConfig::gru(3).with_seed(7));
        let cfg = ServeConfig {
            // lateness 0 ⇒ an in-order feed releases every event on push.
            stream: StreamConfig { lateness: 0.0, ..StreamConfig::default() },
            early_warning_every: 2,
            ..ServeConfig::default()
        };
        let mut server = SessionServer::new(&model, cfg).unwrap();
        server.register(9, feats(4));
        let batch: Vec<SessionEvent> =
            (0..6).map(|i| ev(9, i % 4, (i + 1) % 4, (i + 1) as f64)).collect();
        let records = server.ingest(&batch).unwrap();
        let early: Vec<usize> = records
            .iter()
            .filter(|r| r.kind == ScoreKind::Early)
            .map(|r| r.edges)
            .collect();
        assert_eq!(early, vec![2, 4, 6]);
        let fin = server.close_all().unwrap();
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].edges, 6);
    }

    #[test]
    fn unregistered_sessions_open_with_default_features() {
        let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(1));
        let mut server = SessionServer::new(&model, ServeConfig::default()).unwrap();
        let r = server.ingest(&[ev(42, 0, 1, 1.0)]).unwrap();
        assert!(r.is_empty());
        assert_eq!(server.resident(), 1);
        let fin = server.close_all().unwrap();
        assert_eq!(fin.len(), 1);
        assert_eq!(fin[0].stats.unwrap().released, 1);
    }

    #[test]
    fn mismatched_features_are_refused_not_panicked() {
        let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(1));
        let mut server = SessionServer::new(&model, ServeConfig::default()).unwrap();
        server.register(5, NodeFeatures::zeros(4, 7)); // model wants dim 3
        let r = server.ingest(&[ev(5, 0, 1, 1.0), ev(5, 1, 2, 2.0)]).unwrap();
        assert!(r.is_empty());
        assert_eq!(server.resident(), 0);
        assert_eq!(server.stats().refused, 1);
        assert_eq!(server.stats().dropped_refused, 2);
        let faults = server.take_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, FaultKind::Refused);
        assert!(faults[0].detail.contains("feature dim 7"), "{faults:?}");
        assert!(server.take_faults().is_empty(), "drain consumes the ledger");
        assert!(server.close_all().unwrap().is_empty());
    }

    #[test]
    fn rand_ablation_model_is_rejected_at_construction() {
        use tpgnn_core::AblationVariant;
        let model = TpGnn::new(AblationVariant::Rand.apply(TpGnnConfig::sum(3)));
        let err = match SessionServer::new(&model, ServeConfig::default()) {
            Ok(_) => panic!("rand ablation must be refused"),
            Err(e) => e,
        };
        assert!(matches!(err, ServeError::BadConfig { .. }));
        assert!(err.to_string().contains("cannot serve incrementally"), "{err}");
    }

    #[test]
    fn overload_refuses_new_sessions_with_attribution() {
        let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(2));
        let cfg = ServeConfig {
            max_resident_sessions: 2,
            default_nodes: 4,
            ..ServeConfig::default()
        };
        let mut server = SessionServer::new(&model, cfg).unwrap();
        // Three new sessions against a budget of two, no spill dir: the
        // newest arrival is refused, its events shed and attributed.
        let r = server
            .ingest(&[ev(1, 0, 1, 1.0), ev(2, 0, 1, 1.5), ev(3, 0, 1, 2.0), ev(3, 1, 2, 2.5)])
            .unwrap();
        assert!(r.is_empty());
        assert_eq!(server.resident(), 2);
        assert_eq!(server.stats().shed_refused_sessions, 1);
        assert_eq!(server.stats().shed_refused_events, 2);
        let faults = server.take_faults();
        assert_eq!(faults.len(), 1);
        assert_eq!((faults[0].session, faults[0].kind), (3, FaultKind::Overloaded));
        assert!(faults[0].detail.contains("2 event(s) shed"), "{faults:?}");
        // Refusal is not a tombstone: after load drops, the session may
        // open fresh.
        server.close_all().unwrap();
        let r = server.ingest(&[ev(3, 0, 1, 3.0)]).unwrap();
        assert!(r.is_empty());
        assert_eq!(server.resident(), 1);
    }

    #[test]
    fn eviction_spills_and_restores_bitwise() {
        let dir = tmpdir("evict");
        let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(6));
        let base = ServeConfig { default_nodes: 4, ..ServeConfig::default() };
        let bounded = ServeConfig {
            max_resident_sessions: 2,
            spill_dir: Some(dir.clone()),
            ..base.clone()
        };

        // Two servers fed identical traffic; only one sheds.
        let mut plain = SessionServer::new(&model, base).unwrap();
        let mut shedding = SessionServer::new(&model, bounded).unwrap();
        let batches: Vec<Vec<SessionEvent>> = vec![
            vec![ev(1, 0, 1, 1.0), ev(2, 0, 1, 1.5)],
            vec![ev(3, 1, 2, 2.0)], // session 1 or 2 must be evicted
            vec![ev(1, 1, 2, 2.5)], // session 1 restored on its next edge
            vec![ev(2, 2, 3, 3.0)],
        ];
        for b in &batches {
            assert!(plain.ingest(b).unwrap().is_empty());
            assert!(shedding.ingest(b).unwrap().is_empty());
        }
        assert!(shedding.stats().evicted >= 1, "budget must have forced eviction");
        assert_eq!(shedding.stats().restored + shedding.spilled(), shedding.stats().evicted);
        assert!(shedding.resident() <= 2);

        let a = plain.close_all().unwrap();
        let b = shedding.close_all().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.session, y.session);
            assert_eq!(x.proba.to_bits(), y.proba.to_bits(), "spill changed session {}", x.session);
        }
        assert!(shedding.take_faults().is_empty(), "eviction is not a fault");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn serve_stats_accounting_holds_under_eviction() {
        let dir = tmpdir("accounting");
        let model = TpGnn::new(TpGnnConfig::sum(3).with_seed(8));
        let cfg = ServeConfig {
            max_resident_sessions: 2,
            spill_dir: Some(dir.clone()),
            default_nodes: 4,
            ..ServeConfig::default()
        };
        let mut server = SessionServer::new(&model, cfg).unwrap();
        for i in 0..5u64 {
            server.ingest(&[ev(i, 0, 1, 1.0 + i as f64)]).unwrap();
        }
        let s = *server.stats();
        assert_eq!(
            s.opened,
            s.closed + server.resident() + server.spilled() + s.poisoned,
            "{s:?}"
        );
        server.close_all().unwrap();
        let s = *server.stats();
        assert_eq!(s.opened, s.closed, "close_all must close spilled sessions too: {s:?}");
        assert_eq!(s.final_scores, 5);
        std::fs::remove_dir_all(&dir).ok();
    }
}
