//! # tpgnn-par
//!
//! Deterministic scoped worker pool for the TP-GNN reproduction.
//!
//! The whole workspace is built around bitwise reproducibility (same seed ⇒
//! same bits, see `tests/determinism.rs`), so this pool makes determinism a
//! structural property rather than a hope:
//!
//! * **Input-order reduction** — [`map_indexed`] / [`map_with`] /
//!   [`map_mut`] always return results in input order, regardless of which
//!   worker finished first. Scheduling order can never leak into output
//!   order.
//! * **Task-index identity** — closures receive the *item index*, never a
//!   worker id, so any per-task seeding ([`task_seed`]) depends only on the
//!   task's position in the input.
//! * **No nested fan-out** — a `map_*` call issued from inside a worker task
//!   runs sequentially inline, so parallelizing an outer loop cannot change
//!   how inner loops reduce (and thread counts stay bounded).
//!
//! Together these make every `map_*` result bitwise-identical at any thread
//! count: the same closures run on the same items with the same per-item
//! state, and the reduction order is the input order.
//!
//! Thread count: `TPGNN_THREADS` (a value of `1` forces the sequential
//! no-thread path), defaulting to [`std::thread::available_parallelism`].
//! Tests pin the width with [`with_thread_override`] instead of mutating the
//! environment.
//!
//! Workers are scoped ([`std::thread::scope`]): they borrow the caller's
//! stack, and a panicking task propagates to the caller when the scope
//! closes — no poisoned global pool, no deadlock.
//!
//! Pool utilization is exported through `tpgnn-obs`: `pool.tasks`,
//! `pool.workers`, `pool.queue_depth`, and a `pool.task_ms` histogram.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};
use std::time::Instant;

use tpgnn_obs::metrics::{self, Counter, Gauge, Histogram};

fn pool_tasks() -> &'static Counter {
    static C: OnceLock<&'static Counter> = OnceLock::new();
    C.get_or_init(|| metrics::counter("pool.tasks"))
}

fn pool_workers() -> &'static Gauge {
    static G: OnceLock<&'static Gauge> = OnceLock::new();
    G.get_or_init(|| metrics::gauge("pool.workers"))
}

fn pool_queue_depth() -> &'static Gauge {
    static G: OnceLock<&'static Gauge> = OnceLock::new();
    G.get_or_init(|| metrics::gauge("pool.queue_depth"))
}

fn pool_task_ms() -> &'static Histogram {
    static H: OnceLock<&'static Histogram> = OnceLock::new();
    H.get_or_init(|| {
        metrics::histogram("pool.task_ms", &metrics::exponential_buckets(0.25, 4.0, 12))
    })
}

thread_local! {
    /// Set while the current thread is executing a pool task; nested maps
    /// take the sequential path.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Test hook: overrides the configured thread count on this thread.
    static THREAD_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Whether the current thread is executing inside a pool worker task.
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Restores the previous override even on unwind.
struct OverrideScope {
    prev: Option<usize>,
}

impl Drop for OverrideScope {
    fn drop(&mut self) {
        THREAD_OVERRIDE.with(|o| o.set(self.prev));
    }
}

/// Run `f` with the pool width pinned to `n` on this thread (and any
/// top-level `map_*` it issues). Intended for tests that prove bitwise
/// identity across thread counts without mutating `TPGNN_THREADS`.
pub fn with_thread_override<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREAD_OVERRIDE.with(|o| o.replace(Some(n.max(1))));
    let _scope = OverrideScope { prev };
    f()
}

/// The configured pool width: the per-thread test override, else
/// `TPGNN_THREADS`, else [`std::thread::available_parallelism`].
///
/// A width of `1` means "never spawn": every `map_*` call runs inline on the
/// calling thread.
pub fn configured_threads() -> usize {
    if let Some(n) = THREAD_OVERRIDE.with(Cell::get) {
        return n;
    }
    if let Ok(v) = std::env::var("TPGNN_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Width actually used for a job of `n` tasks: 1 when sequential execution
/// is forced (single task, width 1, or already inside a worker).
fn effective_width(n: usize) -> usize {
    if n <= 1 || in_worker() {
        return 1;
    }
    configured_threads().min(n)
}

/// Mix `base` and a task index into a decorrelated 64-bit seed
/// (SplitMix64 finalizer). Depends only on the inputs — never on
/// scheduling — so seeded per-task RNG streams are reproducible at any
/// thread count.
pub fn task_seed(base: u64, index: u64) -> u64 {
    let mut z = base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Parallel map collecting results **in input order**: `f(i, &items[i])`
/// for every `i`, with tasks distributed over [`configured_threads`]
/// workers. Bitwise-equivalent to the sequential loop at any thread count.
///
/// A panic in any task propagates to the caller after the remaining workers
/// drain (no deadlock, no partial result).
pub fn map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_with(items, || (), |(), i, t| f(i, t))
}

/// [`map_indexed`] with worker-local scratch state: each worker builds one
/// `S` via `mk_state` and threads it through every task it executes (e.g. a
/// reusable [`Tape`](../tpgnn_tensor/struct.Tape.html)).
///
/// Determinism contract: `S` is *scratch* — `f` must produce the same `R`
/// for a given `(i, item)` regardless of which tasks previously used the
/// state (reset it, or only reuse allocations).
pub fn map_with<S, T, R, MS, F>(items: &[T], mk_state: MS, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let n = items.len();
    let width = effective_width(n);
    pool_tasks().add(n as u64);
    if width <= 1 {
        let mut state = mk_state();
        return items.iter().enumerate().map(|(i, t)| f(&mut state, i, t)).collect();
    }
    pool_workers().set(width as f64);

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = std::thread::scope(|scope| {
        for _ in 0..width {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            let mk_state = &mk_state;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                let mut state = mk_state();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    pool_queue_depth().set(n.saturating_sub(i + 1) as f64);
                    let t0 = Instant::now();
                    let r = f(&mut state, i, &items[i]);
                    pool_task_ms().record(t0.elapsed().as_secs_f64() * 1e3);
                    if tx.send((i, r)).is_err() {
                        break;
                    }
                }
                // Scoped: IN_WORKER dies with the thread; no reset needed.
            });
        }
        drop(tx);
        let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
        // Ends when every worker has dropped its sender — including by
        // panic unwinding, so a failed task cannot deadlock the collector.
        for (i, r) in rx {
            out[i] = Some(r);
        }
        out
        // `scope` joins here and re-raises any worker panic.
    });
    pool_queue_depth().set(0.0);
    if out.iter().any(Option::is_none) {
        // Only reachable if a worker died without panicking the scope,
        // which std::thread::scope does not allow — defensive.
        panic!("pool: worker exited without completing its tasks");
    }
    out.iter_mut().map(|slot| slot.take().expect("checked above")).collect()
}

/// Parallel map over **mutable** items, collecting results in input order.
///
/// Items are split into one contiguous chunk per worker (deterministic
/// partition: a function of `len` and width only), so each task owns
/// disjoint `&mut` slices without any locking. Like [`map_with`], each
/// worker gets one `mk_state` scratch value.
pub fn map_mut<S, T, R, MS, F>(items: &mut [T], mk_state: MS, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    MS: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &mut T) -> R + Sync,
{
    let n = items.len();
    let width = effective_width(n);
    pool_tasks().add(n as u64);
    if width <= 1 {
        let mut state = mk_state();
        return items.iter_mut().enumerate().map(|(i, t)| f(&mut state, i, t)).collect();
    }
    pool_workers().set(width as f64);

    let chunk_len = n.div_ceil(width);
    let (tx, rx) = mpsc::channel::<(usize, Vec<R>)>();
    let mut gathered: Vec<Option<Vec<R>>> = std::thread::scope(|scope| {
        let mut num_chunks = 0;
        for (chunk_idx, chunk) in items.chunks_mut(chunk_len).enumerate() {
            num_chunks += 1;
            let tx = tx.clone();
            let f = &f;
            let mk_state = &mk_state;
            scope.spawn(move || {
                IN_WORKER.with(|w| w.set(true));
                let mut state = mk_state();
                let base = chunk_idx * chunk_len;
                let mut results = Vec::with_capacity(chunk.len());
                for (off, item) in chunk.iter_mut().enumerate() {
                    let t0 = Instant::now();
                    results.push(f(&mut state, base + off, item));
                    pool_task_ms().record(t0.elapsed().as_secs_f64() * 1e3);
                }
                let _ = tx.send((chunk_idx, results));
            });
        }
        drop(tx);
        let mut gathered: Vec<Option<Vec<R>>> = (0..num_chunks).map(|_| None).collect();
        for (idx, rs) in rx {
            gathered[idx] = Some(rs);
        }
        gathered
    });
    let mut out = Vec::with_capacity(n);
    for slot in gathered.iter_mut() {
        out.extend(slot.take().expect("scope propagates worker panics"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_seed_is_pure_and_spread() {
        assert_eq!(task_seed(42, 3), task_seed(42, 3));
        assert_ne!(task_seed(42, 3), task_seed(42, 4));
        assert_ne!(task_seed(42, 3), task_seed(43, 3));
    }

    #[test]
    fn effective_width_respects_override() {
        with_thread_override(7, || {
            assert_eq!(configured_threads(), 7);
            assert_eq!(effective_width(100), 7);
            assert_eq!(effective_width(3), 3);
            assert_eq!(effective_width(1), 1);
        });
        with_thread_override(1, || {
            assert_eq!(effective_width(100), 1);
        });
    }

    #[test]
    fn override_restores_on_unwind() {
        let before = configured_threads();
        let _ = std::panic::catch_unwind(|| {
            with_thread_override(5, || panic!("boom"));
        });
        assert_eq!(configured_threads(), before);
    }
}
