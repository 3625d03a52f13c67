//! Contract tests for the deterministic pool: input-order results under
//! adversarial task durations, panic propagation without deadlock, and the
//! forced-sequential (`TPGNN_THREADS=1`) path.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::ThreadId;
use std::time::Duration;

use tpgnn_par as par;

/// Results come back in input order even when early tasks are the slowest.
#[test]
fn map_indexed_preserves_input_order_under_adversarial_durations() {
    let items: Vec<usize> = (0..64).collect();
    let out = par::with_thread_override(4, || {
        par::map_indexed(&items, |i, &x| {
            // Earlier tasks sleep longer, so completion order is roughly the
            // reverse of input order on a real multi-core box.
            if i < 8 {
                std::thread::sleep(Duration::from_millis((8 - i as u64) * 3));
            }
            x * 10 + 1
        })
    });
    let expect: Vec<usize> = items.iter().map(|&x| x * 10 + 1).collect();
    assert_eq!(out, expect);
}

/// Parallel output is element-for-element identical to the sequential path.
#[test]
fn parallel_matches_sequential_bitwise() {
    let items: Vec<f32> = (0..200).map(|i| i as f32 * 0.37 - 5.0).collect();
    let f = |i: usize, x: &f32| (x.sin() * (i as f32 + 1.0).sqrt()).to_bits();
    let seq = par::with_thread_override(1, || par::map_indexed(&items, f));
    let par4 = par::with_thread_override(4, || par::map_indexed(&items, f));
    let par9 = par::with_thread_override(9, || par::map_indexed(&items, f));
    assert_eq!(seq, par4);
    assert_eq!(seq, par9);
}

/// A panicking task propagates to the caller instead of deadlocking the
/// collector, and the remaining workers wind down cleanly.
#[test]
fn worker_panic_propagates_without_deadlock() {
    let items: Vec<usize> = (0..32).collect();
    let result = std::panic::catch_unwind(|| {
        par::with_thread_override(4, || {
            par::map_indexed(&items, |i, _| {
                if i == 13 {
                    panic!("task 13 failed");
                }
                std::thread::sleep(Duration::from_millis(1));
                i
            })
        })
    });
    assert!(result.is_err(), "worker panic must reach the caller");
}

/// Width 1 never spawns: every task runs on the calling thread.
#[test]
fn width_one_takes_the_no_thread_path() {
    let caller = std::thread::current().id();
    let items: Vec<usize> = (0..16).collect();
    let ids: Vec<ThreadId> = par::with_thread_override(1, || {
        par::map_indexed(&items, |_, _| std::thread::current().id())
    });
    assert!(ids.iter().all(|&id| id == caller), "TPGNN_THREADS=1 must not spawn");
    // And the inline path is not flagged as a worker context.
    par::with_thread_override(1, || {
        par::map_indexed(&[0usize], |_, _| assert!(!par::in_worker()));
    });
}

/// With width > 1, tasks do run on spawned worker threads.
#[test]
fn wide_pool_uses_worker_threads() {
    let caller = std::thread::current().id();
    let items: Vec<usize> = (0..16).collect();
    let ids: Vec<ThreadId> = par::with_thread_override(4, || {
        par::map_indexed(&items, |_, _| {
            std::thread::sleep(Duration::from_millis(1));
            assert!(par::in_worker());
            std::thread::current().id()
        })
    });
    assert!(ids.iter().all(|&id| id != caller), "tasks must run on pool workers");
}

/// A map issued from inside a worker task runs sequentially inline — no
/// nested fan-out, so thread count stays bounded by the outer pool.
#[test]
fn nested_map_runs_inline_on_the_worker() {
    let outer: Vec<usize> = (0..4).collect();
    let nested_ids = par::with_thread_override(4, || {
        par::map_indexed(&outer, |_, _| {
            let me = std::thread::current().id();
            let inner: Vec<usize> = (0..8).collect();
            let ids = par::map_indexed(&inner, |_, _| std::thread::current().id());
            ids.into_iter().all(|id| id == me)
        })
    });
    assert!(nested_ids.into_iter().all(|ok| ok), "nested maps must stay on their worker");
}

/// `map_with` builds one state per worker and reuses it across that
/// worker's tasks.
#[test]
fn map_with_reuses_worker_local_state() {
    static STATES_BUILT: AtomicUsize = AtomicUsize::new(0);
    let items: Vec<usize> = (0..64).collect();
    STATES_BUILT.store(0, Ordering::SeqCst);
    let out = par::with_thread_override(4, || {
        par::map_with(
            &items,
            || {
                STATES_BUILT.fetch_add(1, Ordering::SeqCst);
                Vec::<usize>::new()
            },
            |scratch, i, &x| {
                scratch.push(i);
                x + scratch.len()
            },
        )
    });
    assert_eq!(out.len(), 64);
    let built = STATES_BUILT.load(Ordering::SeqCst);
    assert!(built <= 4, "at most one state per worker, got {built}");
    assert!(built >= 1);
}

/// `map_mut` mutates every item exactly once and returns input-order results.
#[test]
fn map_mut_covers_all_items_in_order() {
    let mut items: Vec<u64> = (0..37).collect();
    let out = par::with_thread_override(4, || {
        par::map_mut(
            &mut items,
            || (),
            |(), i, x| {
                *x += 100;
                (i as u64, *x)
            },
        )
    });
    assert_eq!(items, (100u64..137).collect::<Vec<_>>());
    assert_eq!(out, (0u64..37).map(|i| (i, i + 100)).collect::<Vec<_>>());
}

/// Task seeds depend on (base, index) only — never on scheduling — so the
/// seed stream is identical at any width.
#[test]
fn task_seeds_are_schedule_independent() {
    let items: Vec<u64> = (0..50).collect();
    let f = |i: usize, _: &u64| par::task_seed(42, i as u64);
    let seq = par::with_thread_override(1, || par::map_indexed(&items, f));
    let wide = par::with_thread_override(8, || par::map_indexed(&items, f));
    assert_eq!(seq, wide);
    let distinct: HashSet<u64> = seq.iter().copied().collect();
    assert_eq!(distinct.len(), items.len(), "seeds must be decorrelated");
}
