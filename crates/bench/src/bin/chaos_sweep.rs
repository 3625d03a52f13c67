//! Degradation sweep: TP-GNN classification quality as the streaming
//! ingestion path is fed increasingly corrupted feeds
//! (`FaultPlan::mixed` at each rate). Companion to `tests/chaos.rs`: where
//! the tests assert the ingestion *accounting* is exact, this sweep shows
//! what the surviving (post-quarantine) data is still worth for
//! classification.
//!
//! Scale via `TPGNN_GRAPHS` / `TPGNN_RUNS` / `TPGNN_EPOCHS`; dataset filter
//! via `TPGNN_DATASETS`.

use tpgnn_eval::table::render_degradation;
use tpgnn_eval::{run_degradation, ExperimentConfig};

const MODEL: &str = "TP-GNN-SUM";
const RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.4];

fn main() {
    let _trace = tpgnn_bench::init_trace("chaos-sweep");
    let cfg = ExperimentConfig::default();
    tpgnn_bench::banner("Degradation sweep: quality under injected stream faults", &cfg);
    println!(
        "fault plan: FaultPlan::mixed(rate) — window shuffles, duplication,\n\
         corruption, and burst drops scaled together (see DESIGN.md §7)\n"
    );
    for kind in tpgnn_bench::selected_datasets() {
        let rows = run_degradation(MODEL, kind, &RATES, &cfg);
        println!("{}", render_degradation(kind.name(), MODEL, &rows));
    }
}
