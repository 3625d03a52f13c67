#!/usr/bin/env bash
# Hermetic CI for the TP-GNN reproduction: build, test, and smoke-bench the
# whole workspace with ZERO network access. Everything must resolve from
# in-repo path dependencies alone — no crates.io, no vendored registry.
#
# Policy (see README.md "Hermetic build"): no external registry
# dependencies may be added to any Cargo.toml. RNG lives in crates/rng,
# property testing in tpgnn_rng::check, bench timing in tpgnn_bench::timing.
set -euo pipefail
cd "$(dirname "$0")/.."

# --offline makes any accidental registry dependency a hard failure here,
# even on machines that do have network access.
export CARGO_NET_OFFLINE=true

echo "== cargo build --release (offline) =="
cargo build --release --workspace --offline

echo
echo "== cargo test -q (offline) =="
cargo test -q --workspace --offline

echo
echo "== cross-thread-count determinism (TPGNN_THREADS=1, 2 and 4) =="
# The parallel execution layer guarantees bitwise-identical results at any
# pool width; run the determinism suite under a forced-sequential, a 2-wide
# and a 4-wide pool so a violation fails CI on any machine.
TPGNN_THREADS=1 cargo test -q --offline --test determinism
TPGNN_THREADS=2 cargo test -q --offline --test determinism
TPGNN_THREADS=4 cargo test -q --offline --test determinism

echo
echo "== cargo clippy -D warnings (offline) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo
echo "== cargo bench -- --smoke (offline) =="
cargo bench --workspace --offline -- --smoke

echo
echo "== benchmark regression gate (bench_compare vs committed baselines) =="
# The smoke bench step above rewrote results/bench_*.json; recover the
# committed copies offline via `git show` and fail on median regressions
# past a noise-aware allowance on the named hot rows. The training_smoke
# row is pinned at 5%: that is the telemetry-disabled overhead budget —
# tracing off must stay within noise of the pre-telemetry baseline.
# bench_capacity's committed baseline is a full (non-smoke) run, so its
# comparison self-skips on the smoke-flag mismatch.
compare_baseline_dir=$(mktemp -d)
trap 'rm -rf "$compare_baseline_dir"' EXIT
for suite in bench_models bench_serve bench_capacity; do
  if ! git show "HEAD:results/${suite}.json" > "$compare_baseline_dir/${suite}.json" 2>/dev/null; then
    echo "CI WARN: no committed baseline for results/${suite}.json; skipping its gate" >&2
    continue
  fi
  case "$suite" in
    bench_models) rows=(--row "training_smoke/TP-GNN-SUM/forum_java=0.05") ;;
    bench_serve)  rows=(--row "serve/loadgen" --row "serve/run_mixed_traffic") ;;
    *)            rows=() ;;
  esac
  cargo run --release --offline -p tpgnn-bench --bin bench_compare -- \
    --baseline "$compare_baseline_dir/${suite}.json" \
    --fresh "results/${suite}.json" \
    "${rows[@]}"
done

echo
echo "CI OK: hermetic build, full test suite, cross-width determinism, clippy, smoke benchmarks, bench regression gate."
