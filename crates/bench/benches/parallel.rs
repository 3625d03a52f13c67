//! Parallel execution layer benchmark: the same workloads at
//! `TPGNN_THREADS=1` (pure sequential — no worker threads are spawned)
//! vs the configured pool width, so `results/bench_parallel.json` records
//! the measured speedup next to the thread and core counts.
//!
//! On a single-core machine the pool width defaults to 1 and both sides
//! of each pair time the same sequential path (speedup ≈ 1.0) — the JSON's
//! `threads` / `cores` metadata makes that visible instead of hiding it.
//! Determinism is benchmarked elsewhere; here we only check wall-clock.

use tpgnn_bench::timing::{black_box, Suite};
use tpgnn_core::{GraphClassifier, TpGnn, TpGnnConfig};
use tpgnn_data::DatasetKind;
use tpgnn_eval::{run_cells, CellSpec, ExperimentConfig};

/// Benchmark `f` under 1 thread and under `width` threads, and annotate the
/// suite with `label_speedup` = median(1 thread) / median(width threads).
fn bench_pair(suite: &mut Suite, label: &str, width: usize, mut f: impl FnMut()) {
    let seq_name = format!("{label}/threads=1");
    let par_name = format!("{label}/threads={width}");
    suite.bench(&seq_name, || tpgnn_par::with_thread_override(1, &mut f));
    suite.bench(&par_name, || tpgnn_par::with_thread_override(width, &mut f));
    if let (Some(seq), Some(par)) = (suite.median_ns(&seq_name), suite.median_ns(&par_name)) {
        let speedup = seq as f64 / par.max(1) as f64;
        println!("  {label}: speedup {speedup:.2}x at {width} threads");
        suite.annotate(&format!("{label}_speedup"), speedup);
    }
}

fn main() {
    let mut suite = Suite::from_args("parallel");
    suite.set_seed(3);
    // Width the pool would actually use (override-free); the pair below
    // compares against forced-sequential execution of the same work.
    let width = tpgnn_par::configured_threads().max(2);

    // The headline path: a small eval grid — every (cell × run) one pool
    // task, exactly what table2/table3/ablations execute at scale.
    let cfg = ExperimentConfig {
        num_graphs: if suite.is_smoke() { 8 } else { 24 },
        runs: 2,
        epochs: 1,
        train_frac: 0.5,
        learning_rate: 3e-3,
        base_seed: 3,
    };
    bench_pair(&mut suite, "eval_grid", width, || {
        let specs = [
            CellSpec::zoo("TP-GNN-SUM", DatasetKind::ForumJava),
            CellSpec::zoo("GCN", DatasetKind::ForumJava),
        ];
        black_box(run_cells(&specs, &cfg));
    });

    // Test-set inference: predict_proba fanned out per graph.
    let ds = DatasetKind::ForumJava.generate(if suite.is_smoke() { 16 } else { 64 }, 3);
    let mut model = TpGnn::new(TpGnnConfig::sum(
        ds.graphs.first().map_or(3, |g| g.graph.feature_dim()),
    ));
    let graphs: Vec<_> = ds.graphs.iter().map(|lg| lg.graph.clone()).collect();
    bench_pair(&mut suite, "predict_batch", width, || {
        let mut batch = graphs.clone();
        black_box(model.predict_proba_batch(&mut batch));
    });

    suite.finish();
}
