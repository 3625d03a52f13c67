//! End-to-end guardrail acceptance tests: an injected mid-training NaN
//! triggers rollback + learning-rate backoff and training completes without
//! panicking; a permanently poisoned sample is abandoned gracefully; and
//! corrupt dataset files are line-numbered `Err`s, never panics.

use std::sync::Mutex;

use tpgnn_core::{
    train_guarded, DivergenceReason, GraphClassifier, GuardConfig, TpGnn, TpGnnConfig, TrainConfig,
};
use tpgnn_data::forum_java::{generate_session, ForumJavaConfig};
use tpgnn_data::{io, negative};
use tpgnn_graph::Ctdn;
use tpgnn_rng::rngs::StdRng;
use tpgnn_rng::SeedableRng;

/// Held by the two tests that install the process-global trace sink: a
/// second `trace::init_to` replaces the first test's sink, and either
/// test's `trace::finish` closes the other's.
static TRACE_SINK: Mutex<()> = Mutex::new(());

fn forum_java_corpus(seed: u64, sessions: usize) -> Vec<(Ctdn, f32)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let cfg = ForumJavaConfig::default();
    let mut out = Vec::with_capacity(sessions * 2);
    for _ in 0..sessions {
        let g = generate_session(&cfg, &mut rng);
        let neg = negative::make_negative(&g, 0.3, &mut rng);
        out.push((g, 1.0));
        out.push((neg, 0.0));
    }
    out
}

/// Test hook: a classifier that corrupts its own training state with NaN at
/// one chosen epoch — the footprint a real numerical blow-up leaves behind —
/// and otherwise delegates to TP-GNN. The corruption goes through the
/// public checkpoint API, so the poisoned state is exactly what the guarded
/// trainer must detect and roll back.
struct NanInjected {
    /// Distinct per test: guard events in a shared trace carry the model
    /// name, and tests run in parallel.
    name: &'static str,
    inner: TpGnn,
    fit_calls: usize,
    inject_at: usize,
    every_time: bool,
}

impl NanInjected {
    fn poison_inner(&mut self) {
        let state = self.inner.save_state().expect("TP-GNN checkpoints");
        let mut lines: Vec<String> = state.lines().map(str::to_string).collect();
        for line in lines.iter_mut() {
            if !line.starts_with("adam")
                && !line.starts_with("checkpoint")
                && !line.starts_with("param")
            {
                let width = line.split_whitespace().count();
                *line = vec!["NaN"; width].join(" ");
                break;
            }
        }
        self.inner.load_state(&(lines.join("\n") + "\n")).expect("poisoned state loads");
    }
}

impl GraphClassifier for NanInjected {
    fn name(&self) -> String {
        self.name.into()
    }
    fn fit_epoch(&mut self, train: &mut [(Ctdn, f32)]) -> f32 {
        self.fit_calls += 1;
        if self.fit_calls == self.inject_at || (self.every_time && self.fit_calls >= self.inject_at)
        {
            self.poison_inner();
        }
        self.inner.fit_epoch(train)
    }
    fn predict_proba(&mut self, g: &mut Ctdn) -> f32 {
        self.inner.predict_proba(g)
    }
    fn set_learning_rate(&mut self, lr: f32) {
        self.inner.set_learning_rate(lr);
    }
    fn learning_rate(&self) -> Option<f32> {
        self.inner.learning_rate()
    }
    fn save_state(&self) -> Option<String> {
        self.inner.save_state()
    }
    fn load_state(&mut self, state: &str) -> Result<(), String> {
        self.inner.load_state(state)
    }
    fn check_finite(&self) -> Result<(), String> {
        self.inner.check_finite()
    }
}

#[test]
fn injected_nan_recovers_and_training_completes() {
    let train = forum_java_corpus(42, 4);
    let mut model = NanInjected {
        name: "nan-injected",
        inner: TpGnn::new(TpGnnConfig::sum(3).with_seed(3)),
        fit_calls: 0,
        inject_at: 3,
        every_time: false,
    };
    model.set_learning_rate(0.01);
    let cfg = TrainConfig { epochs: 5, shuffle_ties: true, seed: 3 };
    let report = train_guarded(&mut model, &train, &cfg, &GuardConfig::default());

    assert!(!report.aborted, "a single transient NaN must not kill the run");
    assert_eq!(report.epoch_losses.len(), 5, "all epochs must complete");
    assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    assert_eq!(report.recoveries.len(), 1, "recoveries: {:?}", report.recoveries);
    let ev = &report.recoveries[0];
    assert_eq!(ev.epoch, 2, "third fit call = epoch index 2");
    assert_eq!(ev.rolled_back_to, Some(1), "rollback to the last good epoch");
    assert_eq!(ev.lr_before, Some(0.01));
    assert_eq!(ev.lr_after, Some(0.005), "learning rate must be halved");
    assert!(!ev.abandoned);
    // With tape scanning on, the fault is attributed at op level (the
    // poisoned parameter enters the tape through a `param`/`input` op).
    if let DivergenceReason::ModelFault { detail } = &ev.reason {
        assert!(detail.contains("non-finite"), "attribution: {detail}");
    }
    // After recovery the model must be trainable and clean.
    assert!(model.check_finite().is_ok());
    let p = model.predict_proba(&mut forum_java_corpus(43, 1)[0].0.clone());
    assert!((0.0..=1.0).contains(&p) && p.is_finite());
}

#[test]
fn injected_nan_rollback_is_traced_with_matching_epoch() {
    use tpgnn_obs::{reader, trace};

    let _sink = TRACE_SINK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("tpgnn-guardrails-trace-{}", std::process::id()));
    let path = dir.join("trace-guardrails-test.jsonl");
    trace::init_to("guardrails-test", &path);

    let train = forum_java_corpus(42, 4);
    let mut model = NanInjected {
        name: "nan-injected-traced",
        inner: TpGnn::new(TpGnnConfig::sum(3).with_seed(3)),
        fit_calls: 0,
        inject_at: 3,
        every_time: false,
    };
    model.set_learning_rate(0.01);
    let cfg = TrainConfig { epochs: 5, shuffle_ties: true, seed: 3 };
    let report = train_guarded(&mut model, &train, &cfg, &GuardConfig::default());
    // A forced 2-wide pool puts the pool.* series in the sidecar even on a
    // single-core host.
    let pooled = tpgnn_par::with_thread_override(2, || {
        tpgnn_par::map_indexed(&[10usize, 20, 30, 40], |i, &x| x + i)
    });
    assert_eq!(pooled, vec![10, 21, 32, 43], "pool results out of order");
    trace::finish();

    assert!(!report.aborted);
    assert_eq!(report.recoveries.len(), 1);
    let recovery = &report.recoveries[0];

    let records = reader::read_trace(&path).expect("trace parses back");
    let sidecar = std::fs::read_to_string(dir.join("metrics-guardrails-test.json"))
        .expect("metrics sidecar next to the trace");
    std::fs::remove_dir_all(&dir).ok();
    for series in ["pool.tasks", "pool.workers", "pool.queue_depth", "pool.task_ms"] {
        assert!(sidecar.contains(series), "metrics sidecar is missing the {series} series");
    }
    let of_model = |kind: &str, name: &str| {
        records
            .iter()
            .filter(|r| r.kind == kind && r.name == name)
            .filter(|r| r.field("model").and_then(|j| j.as_str()) == Some("nan-injected-traced"))
            .count()
    };
    assert_eq!(of_model("span", "train.run"), 1, "one train.run span for the guarded run");
    assert!(of_model("event", "tape.profile") > 0, "missing the tape per-op profile snapshot");
    // The rollback must surface as a `warn` event attributed to this model,
    // at the same epoch the TrainReport records.
    let rollbacks: Vec<_> = records
        .iter()
        .filter(|r| r.kind == "event" && r.name == "guard.rollback")
        .filter(|r| r.field("model").and_then(|j| j.as_str()) == Some("nan-injected-traced"))
        .collect();
    assert_eq!(rollbacks.len(), 1, "exactly one traced rollback: {rollbacks:?}");
    let ev = rollbacks[0];
    assert_eq!(ev.level, "warn");
    assert_eq!(
        ev.field("epoch").and_then(|j| j.as_i64()),
        Some(recovery.epoch as i64),
        "trace epoch must match the RecoveryEvent epoch"
    );
    assert_eq!(
        ev.field("rolled_back_to").and_then(|j| j.as_i64()),
        recovery.rolled_back_to.map(|e| e as i64)
    );
    // The run's epoch spans bracket the rollback: epochs that completed have
    // spans, and the checkpoint events confirm accepted epochs.
    let epoch_spans = of_model("span", "train.epoch");
    assert!(epoch_spans >= cfg.epochs, "every attempt gets a span ({epoch_spans})");
    let checkpoints = of_model("event", "train.checkpoint");
    assert_eq!(checkpoints, report.epoch_losses.len(), "one checkpoint per accepted epoch");
}

#[test]
fn persistent_poison_is_abandoned_not_panicked() {
    let train = forum_java_corpus(7, 3);
    let mut model = NanInjected {
        name: "nan-injected-persistent",
        inner: TpGnn::new(TpGnnConfig::sum(3).with_seed(5)),
        fit_calls: 0,
        inject_at: 2,
        every_time: true, // re-poison on every retry: recovery can't win
    };
    model.set_learning_rate(0.01);
    let guard = GuardConfig { max_recoveries: 2, ..GuardConfig::default() };
    let report =
        train_guarded(&mut model, &train, &TrainConfig::default(), &guard);

    assert!(report.aborted, "budget exhausted must abandon, not loop forever");
    assert_eq!(report.epoch_losses.len(), 1, "only the first epoch was healthy");
    assert_eq!(report.recoveries.len(), 3, "2 recoveries + the abandonment record");
    assert!(report.recoveries.last().unwrap().abandoned);
    assert_eq!(report.final_loss(), report.epoch_losses.first().copied());
}

/// A classifier whose epochs stall — the hung-training scenario the
/// epoch-time budget exists for.
struct Sleepy {
    inner: TpGnn,
    sleep: std::time::Duration,
}

impl GraphClassifier for Sleepy {
    fn name(&self) -> String {
        "sleepy".into()
    }
    fn fit_epoch(&mut self, train: &mut [(Ctdn, f32)]) -> f32 {
        std::thread::sleep(self.sleep);
        self.inner.fit_epoch(train)
    }
    fn predict_proba(&mut self, g: &mut Ctdn) -> f32 {
        self.inner.predict_proba(g)
    }
    fn learning_rate(&self) -> Option<f32> {
        self.inner.learning_rate()
    }
}

#[test]
fn epoch_time_budget_abandons_hung_training_with_timeout_trace() {
    use tpgnn_obs::{reader, trace};

    let _sink = TRACE_SINK.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join(format!("tpgnn-guard-timeout-{}", std::process::id()));
    let path = dir.join("trace-guard-timeout-test.jsonl");
    trace::init_to("guard-timeout-test", &path);

    let train = forum_java_corpus(11, 2);
    let mut model =
        Sleepy { inner: TpGnn::new(TpGnnConfig::sum(3).with_seed(1)), sleep: std::time::Duration::from_millis(40) };
    let guard = GuardConfig { max_epoch_ms: Some(5), ..GuardConfig::default() };
    let report = train_guarded(&mut model, &train, &TrainConfig::default(), &guard);
    trace::finish();

    assert!(report.aborted, "over-budget epoch must abandon the run");
    assert!(report.epoch_losses.is_empty(), "the first epoch already blew the budget");
    assert_eq!(report.recoveries.len(), 1);
    let ev = &report.recoveries[0];
    assert!(ev.abandoned, "timeout goes straight to abandonment, no retry");
    assert!(
        matches!(ev.reason, DivergenceReason::EpochTimeout { budget_ms: 5, .. }),
        "reason: {:?}",
        ev.reason
    );

    let records = reader::read_trace(&path).expect("trace parses back");
    std::fs::remove_dir_all(&dir).ok();
    let timeouts: Vec<_> = records
        .iter()
        .filter(|r| r.kind == "event" && r.name == "guard.timeout")
        .filter(|r| r.field("model").and_then(|j| j.as_str()) == Some("sleepy"))
        .collect();
    assert_eq!(timeouts.len(), 1, "exactly one traced timeout: {timeouts:?}");
    assert_eq!(timeouts[0].level, "warn");
    assert_eq!(timeouts[0].field("budget_ms").and_then(|j| j.as_i64()), Some(5));
    assert!(
        timeouts[0].field("elapsed_ms").and_then(|j| j.as_i64()).unwrap_or(0) > 5,
        "elapsed must exceed the budget"
    );
}

#[test]
fn generous_epoch_budget_is_an_observer() {
    // With a budget no realistic epoch exceeds, training must be unaffected.
    let train = forum_java_corpus(13, 2);
    let mut model = TpGnn::new(TpGnnConfig::sum(3).with_seed(2));
    model.set_learning_rate(0.01);
    let cfg = TrainConfig { epochs: 3, shuffle_ties: true, seed: 2 };
    let guard = GuardConfig { max_epoch_ms: Some(600_000), ..GuardConfig::default() };
    let report = train_guarded(&mut model, &train, &cfg, &guard);
    assert!(!report.aborted);
    assert_eq!(report.epoch_losses.len(), 3);
    assert!(report.recoveries.is_empty());
}

#[test]
fn corrupt_dataset_files_report_line_numbers() {
    let dir = std::env::temp_dir().join("tpgnn_guardrails_test");
    std::fs::create_dir_all(&dir).expect("mkdir");

    // A valid file, then three corruptions: truncation, a NaN feature, and
    // an out-of-bounds edge.
    let good = "dataset d 1\ngraph 1 2 1 1\nnode 0.5\nnode 0.25\nedge 0 1 2.0\n";
    let cases = [
        ("truncated.ds", &good[..good.len() - 10], "expected `edge`"),
        ("cut_mid_section.ds", "dataset d 1\ngraph 1 2 1 1\nnode 0.5\n", "unexpected end"),
        ("nan_feature.ds", "dataset d 1\ngraph 1 1 1 0\nnode NaN\n", "non-finite"),
        (
            "bad_edge.ds",
            "dataset d 1\ngraph 1 2 1 1\nnode 0.5\nnode 0.25\nedge 0 9 2.0\n",
            "out of bounds",
        ),
    ];
    for (fname, text, expect) in cases {
        let path = dir.join(fname);
        std::fs::write(&path, text).expect("write");
        let err = io::load(&path).expect_err("corrupt file must not parse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("line "), "{fname}: no line number in `{msg}`");
        assert!(msg.contains(expect), "{fname}: `{msg}` missing `{expect}`");
        std::fs::remove_file(path).ok();
    }

    // And the good file parses.
    let path = dir.join("good.ds");
    std::fs::write(&path, good).expect("write");
    assert_eq!(io::load(&path).expect("valid file").len(), 1);
    std::fs::remove_file(path).ok();
}
