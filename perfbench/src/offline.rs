//! `offline_brightkite`: train TP-GNN-GRU for one epoch on the first 30%
//! of a Brightkite-like dataset and classify the other 70% — batched with
//! `predict_all` (the pool fan-out) and one graph at a time (the
//! single-graph latency a caller sees). The timed work runs in interleaved
//! rounds; F1 comes from the trained model. Serving and storage do no work.

use std::time::Instant;

use tpgnn_core::{
    predict_all, GlobalExtractor, GraphClassifier, TemporalPropagation, TpGnn, TpGnnConfig,
    GRAD_CLIP,
};
use tpgnn_data::{DatasetKind, GraphDataset};
use tpgnn_eval::metrics::Metrics;
use tpgnn_graph::Ctdn;
use tpgnn_nn::Linear;
use tpgnn_rng::rngs::StdRng;
use tpgnn_rng::SeedableRng;
use tpgnn_tensor::{profile, ParamStore, Tape};
use tpgnn_tensor::{Adam, Optimizer};

use crate::stats::{chunked_rate, median, percentile, segmented_p99};
use crate::trace::TapeProfile;
use crate::{setup_reps, Checks, Outcome};

/// Graphs per `predict_all` request; one request per round.
const INFER_CHUNK: usize = 16;
/// Single-graph passes over each request's graphs: two, so the latency
/// percentiles rest on more than 2,000 calls.
const SINGLE_PASSES: usize = 2;
/// Graphs the replica layers are timed on in the traced run.
const LAYER_SAMPLE: usize = 48;

fn model_config(seed: u64) -> TpGnnConfig {
    TpGnnConfig::gru(3).with_seed(seed ^ 0x6d6f_64656c)
}

/// Dataset size for a run of `seconds`: about 14 ms of work per graph on
/// a 2-core x86-64 host, and at least 1,000 test graphs so one pass of
/// single-graph calls alone holds the 1,000 samples a p99 needs.
fn num_graphs(seconds: f64) -> usize {
    ((seconds * 72.0) as usize).max(1450)
}

struct Data {
    train: Vec<(Ctdn, f32)>,
    test: Vec<(Ctdn, f32)>,
}

fn split(ds: &GraphDataset) -> Data {
    let (tr, te) = ds.split(0.3);
    let pairs = |s: &[tpgnn_data::LabeledGraph]| {
        s.iter()
            .map(|g| (g.graph.clone(), g.target()))
            .collect::<Vec<_>>()
    };
    Data {
        train: pairs(tr),
        test: pairs(te),
    }
}

/// What one pass measured and produced.
struct Pass {
    /// Per round: training steps taken and their busy time.
    train_steps: Vec<f64>,
    train_s: Vec<f64>,
    /// Per round: graphs in the `predict_all` request and its time.
    request_graphs: Vec<f64>,
    request_s: Vec<f64>,
    /// Per single-graph call: busy time.
    single_s: Vec<f64>,
    /// Single-graph calls whose probability differed from the batch one.
    mismatches: usize,
    /// F1 of the trained model on the test split.
    f1: f64,
    final_probs: Vec<f32>,
    weights: String,
    /// Wall time of the rounds and the time inside timed calls.
    wall_s: f64,
    covered_s: f64,
}

/// Train one epoch on the training split and classify the test split, in
/// interleaved rounds: a slice of training steps, one `predict_all`
/// request of [`INFER_CHUNK`] test graphs, then [`SINGLE_PASSES`] passes of
/// `predict_proba` over those graphs (checked against the request
/// bitwise). Every measurement is spread over the whole run, so a slow
/// phase of the shared host hits all of them alike. The trained model then classifies the whole test
/// split once more for F1. `profile_training` turns the tape profiler on
/// around the training steps only.
fn run_pass(model: &mut TpGnn, data: &mut Data, profile_training: bool) -> Pass {
    let rounds = data.test.len().div_ceil(INFER_CHUNK);
    let (n_train, n_test) = (data.train.len(), data.test.len());
    let mut p = Pass {
        train_steps: Vec::with_capacity(rounds),
        train_s: Vec::with_capacity(rounds),
        request_graphs: Vec::with_capacity(rounds),
        request_s: Vec::with_capacity(rounds),
        single_s: Vec::with_capacity(SINGLE_PASSES * data.test.len()),
        mismatches: 0,
        f1: 0.0,
        final_probs: Vec::new(),
        weights: String::new(),
        wall_s: 0.0,
        covered_s: 0.0,
    };
    let t_phase = Instant::now();
    for r in 0..rounds {
        profile::set_enabled(profile_training);
        let t = Instant::now();
        let steps = &mut data.train[r * n_train / rounds..(r + 1) * n_train / rounds];
        for (g, y) in steps.iter_mut() {
            model.train_on(g, *y);
        }
        p.train_s.push(t.elapsed().as_secs_f64());
        p.train_steps.push(steps.len() as f64);
        profile::set_enabled(false);

        let request = &mut data.test[r * INFER_CHUNK..((r + 1) * INFER_CHUNK).min(n_test)];
        let t = Instant::now();
        let batch = predict_all(model, request);
        p.request_s.push(t.elapsed().as_secs_f64());
        p.request_graphs.push(request.len() as f64);
        for _ in 0..SINGLE_PASSES {
            for ((g, _), (want, _)) in request.iter_mut().zip(&batch) {
                let t = Instant::now();
                let got = model.predict_proba(g);
                p.single_s.push(t.elapsed().as_secs_f64());
                p.mismatches += usize::from(got.to_bits() != want.to_bits());
            }
        }
    }
    p.wall_s = t_phase.elapsed().as_secs_f64();
    p.covered_s = p
        .train_s
        .iter()
        .chain(&p.request_s)
        .chain(&p.single_s)
        .sum();
    let preds = predict_all(model, &data.test);
    p.f1 = Metrics::from_predictions(&preds, 0.5).f1;
    p.final_probs = preds.iter().map(|q| q.0).collect();
    p.weights = model.save_weights();
    p
}

/// TP-GNN's three layers rebuilt through their public constructors in the
/// same order and from the same seed as [`TpGnn::new`], so a checkpoint of
/// the model loads into them.
struct Layers {
    store: ParamStore,
    prop: TemporalPropagation,
    extractor: GlobalExtractor,
    classifier: Linear,
}

impl Layers {
    fn new(cfg: &TpGnnConfig) -> Self {
        let mut store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let prop = TemporalPropagation::new(&mut store, cfg, &mut rng);
        let extractor = GlobalExtractor::new(&mut store, cfg, cfg.node_embed_dim(), &mut rng);
        let classifier = Linear::new(&mut store, "clf", extractor.out_dim(), 1, &mut rng);
        Self {
            store,
            prop,
            extractor,
            classifier,
        }
    }
}

/// Mean per-graph time (µs) of each layer entry point on the replica.
struct LayerTimes {
    prop_us: f64,
    extractor_us: f64,
    classifier_us: f64,
    backward_us: f64,
    optim_us: f64,
    coverage: f64,
}

/// Time the replica's layers on `graphs`: a forward-only pass checked
/// bitwise against the trained model's probabilities, then training steps
/// (forward, loss + backward, clip + Adam step).
fn time_layers(
    layers: &mut Layers,
    graphs: &mut [(Ctdn, f32)],
    expect: &[f32],
    checks: &mut Checks,
) -> LayerTimes {
    let mut tape = Tape::new();
    let mut opt = Adam::new(1e-3);
    let (mut fwd, mut bwd, mut opt_ns) = ([0f64; 3], 0f64, 0f64);
    let mut mismatches = 0usize;
    let t_phase = Instant::now();
    for train in [false, true] {
        for (i, (g, y)) in graphs.iter_mut().enumerate() {
            tape.reset();
            let t0 = Instant::now();
            let nodes = layers.prop.forward(&mut tape, &layers.store, g);
            let t1 = Instant::now();
            let edges = g.edges_chronological().to_vec();
            let emb = layers
                .extractor
                .forward(&mut tape, &layers.store, &nodes, &edges);
            let t2 = Instant::now();
            let logit = layers.classifier.forward(&mut tape, &layers.store, emb);
            let t3 = Instant::now();
            fwd[0] += (t1 - t0).as_secs_f64();
            fwd[1] += (t2 - t1).as_secs_f64();
            fwd[2] += (t3 - t2).as_secs_f64();
            if !train {
                let z = tape.value(logit).item();
                let p = 1.0 / (1.0 + (-z).exp());
                mismatches += usize::from(p.to_bits() != expect[i].to_bits());
                continue;
            }
            let loss = tape.bce_with_logits(logit, *y);
            let grads = tape.backward(loss);
            tape.flush_grads(&grads, &mut layers.store);
            tape.absorb(grads);
            let t4 = Instant::now();
            layers.store.clip_grad_norm(GRAD_CLIP);
            opt.step(&mut layers.store);
            let t5 = Instant::now();
            bwd += (t4 - t3).as_secs_f64();
            opt_ns += (t5 - t4).as_secs_f64();
        }
    }
    let wall = t_phase.elapsed().as_secs_f64();
    checks.check(
        mismatches == 0,
        format!(
            "replica layers reproduce predict_proba bitwise ({mismatches} of {} differ)",
            graphs.len()
        ),
    );
    let n = graphs.len().max(1) as f64;
    // Both sweeps ran the forward layers, so per-graph forward time halves.
    LayerTimes {
        prop_us: fwd[0] / (2.0 * n) * 1e6,
        extractor_us: fwd[1] / (2.0 * n) * 1e6,
        classifier_us: fwd[2] / (2.0 * n) * 1e6,
        backward_us: bwd / n * 1e6,
        optim_us: opt_ns / n * 1e6,
        coverage: (fwd.iter().sum::<f64>() + bwd + opt_ns) / wall,
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut checks = Checks::default();
    let mut out = Outcome::default();
    let n = num_graphs(seconds);
    let cfg = model_config(seed);

    let mut gen_s = Vec::new();
    let (setup_s, (mut data, mut model)) = setup_reps(|| {
        let t = Instant::now();
        let ds = DatasetKind::Brightkite.generate(n, seed);
        gen_s.push(t.elapsed().as_secs_f64());
        let mut data = split(&ds);
        let mut model = TpGnn::new(cfg.clone());
        let mut warm: Vec<Ctdn> = data
            .test
            .iter_mut()
            .take(4)
            .map(|(g, _)| g.clone())
            .collect();
        std::hint::black_box(model.predict_proba_batch(&mut warm));
        (data, model)
    });

    let base = run_pass(&mut model, &mut data, false);
    out.attempted = (data.train.len() + (1 + SINGLE_PASSES) * data.test.len()) as u64;
    checks.check(
        base.mismatches == 0,
        format!(
            "predict_proba_batch equals the sequential predict_proba loop bitwise ({} of {} differ)",
            base.mismatches,
            base.single_s.len()
        ),
    );
    checks.check(
        base.f1.is_finite() && base.f1 > 0.0,
        format!("test F1 {} is positive", base.f1),
    );

    let single_ms: Vec<f64> = base.single_s.iter().map(|s| s * 1e3).collect();
    match (
        chunked_rate(&base.train_steps, &base.train_s, 1),
        chunked_rate(&base.request_graphs, &base.request_s, 1),
        percentile(&single_ms, 50.0),
        segmented_p99(&single_ms),
    ) {
        (Ok(tr), Ok(ir), Ok(p50), Ok(tail)) => {
            let (steps, tests) = (data.train.len() as f64, data.test.len() as f64);
            // Job time rebuilt from the chunk-median rates: the time the
            // train-then-classify job takes when no chunk is slowed.
            out.set(
                "throughput_per_s",
                (steps + tests) / (steps / tr + tests / ir),
            );
            out.set("latency_p50_ms", p50);
            out.set("latency_p99_ms", tail);
        }
        (a, b, c, d) => {
            for e in [a.err(), b.err(), c.err(), d.err()].into_iter().flatten() {
                checks.check(false, e);
            }
        }
    }
    out.set("quality_share", base.f1);
    out.set("setup_s", setup_s);

    if traced {
        // The same job from the same seed, with the tape profiler on during
        // training and every layer entry point timed.
        let (mut data, mut model) = {
            let ds = DatasetKind::Brightkite.generate(n, seed);
            (split(&ds), TpGnn::new(cfg.clone()))
        };
        profile::reset();
        let tp = run_pass(&mut model, &mut data, true);
        let prof = TapeProfile::of(&profile::snapshot(), data.train.len());
        profile::reset();

        checks.check(
            tp.weights == base.weights,
            "traced training reproduces the untraced weights bitwise",
        );
        checks.check(
            tp.f1.to_bits() == base.f1.to_bits(),
            format!("traced F1 {} equals untraced F1 {}", tp.f1, base.f1),
        );
        checks.check(
            tp.final_probs
                .iter()
                .map(|p| p.to_bits())
                .eq(base.final_probs.iter().map(|p| p.to_bits())),
            "traced predict_all equals untraced predict_all bitwise",
        );

        let mut layers = Layers::new(&cfg);
        if let Err(e) = layers.store.load_checkpoint(&model.save_weights()) {
            checks.check(
                false,
                format!("replica layers load the model checkpoint: {e}"),
            );
        }
        let mut sample: Vec<(Ctdn, f32)> = data.train.iter().take(LAYER_SAMPLE).cloned().collect();
        let expect: Vec<f32> = sample
            .iter_mut()
            .map(|(g, _)| model.predict_proba(g))
            .collect();
        let lt = time_layers(&mut layers, &mut sample, &expect, &mut checks);

        let coverage = (tp.covered_s / tp.wall_s).min(lt.coverage);
        checks.check(
            coverage >= 0.95,
            format!("timed calls cover {coverage:.4} of each traced phase (need 0.95)"),
        );
        let train_s: f64 = tp.train_s.iter().sum();
        let request_s: f64 = tp.request_s.iter().sum();

        out.set("data.generate_s", median(&gen_s));
        out.set(
            "core.train_on_us",
            train_s / data.train.len().max(1) as f64 * 1e6,
        );
        out.set(
            "core.predict_all_us",
            request_s / data.test.len().max(1) as f64 * 1e6,
        );
        out.set("core.propagation_fwd_us", lt.prop_us);
        out.set("core.extractor_fwd_us", lt.extractor_us);
        out.set("nn.classifier_fwd_us", lt.classifier_us);
        out.set("tensor.backward_us", lt.backward_us);
        out.set("tensor.optim_step_us", lt.optim_us);
        out.set("tensor.param_elems_per_graph", prof.param_elems);
        out.set("tensor.tape_nodes_per_graph", prof.tape_nodes);
        out.set("tensor.param_time_share", prof.param_share);
        out.set("tensor.matmul_time_share", prof.matmul_share);
        out.set(
            "par.infer_batch_speedup",
            tp.single_s.iter().sum::<f64>() / SINGLE_PASSES as f64 / request_s,
        );
        out.set("trace.overhead_share", tp.wall_s / base.wall_s - 1.0);
        out.set("trace.coverage_share", coverage);
        out.trace_rows = (0..tp.train_s.len())
            .map(|r| {
                format!(
                    "{{\"round\":{r},\"core.train_on_us\":{},\"core.predict_all_us\":{}}}",
                    tp.train_s[r] * 1e6,
                    tp.request_s[r] * 1e6
                )
            })
            .collect();
    }
    out.checks = checks;
    out
}
