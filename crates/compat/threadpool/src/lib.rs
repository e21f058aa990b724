//! Offline scoped-thread work pool for the deterministic sweep runner.
//!
//! The build environment has no network access to crates.io, so this
//! crate stands in for an external pool (see `crates/compat/README.md`).
//! It deliberately exposes a *narrower* API than the crates.io
//! `threadpool`: one function, [`par_map`], built on `std::thread::scope`,
//! because the workspace's only parallelism need is "run the independent
//! items of an experiment sweep on a few host threads and give me the
//! results **in input order**".
//!
//! Determinism contract: `par_map(jobs, items, f)` returns exactly what
//! `items.iter().enumerate().map(|(i, t)| f(i, t)).collect()` returns, for
//! every `jobs`, provided `f` is a pure function of its arguments. Workers
//! race only for *which item to claim next* (an atomic counter); each
//! result lands in its item's own slot, so completion order never leaks
//! into the output. Simulations themselves stay single-threaded — each
//! `f` call builds its own `Machine` — which is what keeps virtual-time
//! results byte-identical whether `jobs` is 1 or 16.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Map `f` over `items` on up to `jobs` host threads, preserving input
/// order in the returned vector.
///
/// `jobs <= 1` (or a single item) runs inline on the caller's thread with
/// no pool at all — the sequential path is the parallel path's semantics,
/// not a separate implementation to keep in sync. A panic in any `f` call
/// propagates to the caller once the scope joins.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    // Clamp to the cores actually available: `--jobs` above the
    // container's CPU count would only add scheduling churn (measured as
    // a ~10% wall-clock regression on a 1-CPU host), never throughput.
    let workers = jobs.max(1).min(items.len()).min(available_parallelism());
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // One slot per item: workers claim indices from the shared counter and
    // write results into their own slots, so output order is input order.
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(i, &items[i]);
                *slots[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("scope joined with an unfilled slot")
        })
        .collect()
}

/// [`par_map`] for sweeps whose items may be too cheap to amortise thread
/// startup: the sweep stays sequential unless the summed per-item work
/// estimate reaches `min_parallel_work`.
///
/// Small sweeps (e.g. a four-item quick sweep taking tens of
/// milliseconds) run *slower* under a pool — spawn/join and slot
/// synchronisation outweigh the work — so callers pass a cheap work
/// estimator (`pages`, matrix cells, ...) and the threshold their sweep
/// needs. Work units are caller-defined; only the comparison matters.
/// Output is identical to [`par_map`] for any `jobs` either way: the gate
/// picks *how* the items run, never *what* they return.
pub fn par_map_weighted<T, R, F, W>(
    jobs: usize,
    items: &[T],
    work: W,
    min_parallel_work: u64,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
    W: Fn(&T) -> u64,
{
    let total: u64 = items.iter().map(work).sum();
    let jobs = if total < min_parallel_work { 1 } else { jobs };
    par_map(jobs, items, f)
}

/// The host's available hardware parallelism (1 when the runtime cannot
/// tell). [`par_map`]/[`par_map_weighted`] never spawn more workers than
/// this, whatever `jobs` asks for: extra workers on a saturated host are
/// pure context-switch overhead, and the output is `jobs`-independent by
/// contract anyway.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(8, &items, |i, &v| {
            // Skew completion order: later items finish first.
            std::thread::sleep(std::time::Duration::from_micros(100 - v));
            (i, v * 2)
        });
        for (i, (idx, doubled)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*doubled, items[i] * 2);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let items: Vec<u64> = (0..37).collect();
        let f = |i: usize, v: &u64| i as u64 * 1000 + v * v;
        let seq = par_map(1, &items, f);
        let par = par_map(4, &items, f);
        assert_eq!(seq, par);
    }

    #[test]
    fn more_jobs_than_items() {
        let items = [1u32, 2, 3];
        assert_eq!(par_map(64, &items, |_, &v| v + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_and_single() {
        let none: [u32; 0] = [];
        assert!(par_map(4, &none, |_, &v| v).is_empty());
        assert_eq!(par_map(4, &[9u32], |i, &v| (i, v)), vec![(0, 9)]);
    }

    #[test]
    fn worker_clamp_keeps_output_identical() {
        // On any host, asking for absurd parallelism must change neither
        // results nor order — only how many threads actually spawn.
        let items: Vec<u64> = (0..23).collect();
        let f = |i: usize, v: &u64| i as u64 + v * 7;
        assert_eq!(par_map(4096, &items, f), par_map(1, &items, f));
        assert!(available_parallelism() >= 1);
    }

    #[test]
    fn weighted_small_sweep_stays_on_caller_thread() {
        let items: Vec<u64> = (0..8).collect();
        let me = std::thread::current().id();
        let out = par_map_weighted(
            4,
            &items,
            |&v| v,
            1_000,
            |_, &v| {
                assert_eq!(
                    std::thread::current().id(),
                    me,
                    "below-threshold sweep must not spawn workers"
                );
                v * 2
            },
        );
        assert_eq!(out, items.iter().map(|v| v * 2).collect::<Vec<u64>>());
    }

    #[test]
    fn weighted_large_sweep_matches_sequential() {
        let items: Vec<u64> = (0..40).collect();
        let f = |i: usize, v: &u64| i as u64 * 100 + v * 3;
        let gated = par_map_weighted(4, &items, |&v| v, 10, f);
        let seq = par_map(1, &items, f);
        assert_eq!(gated, seq);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panic_propagates() {
        let items = [1u32, 2, 3, 4];
        par_map(2, &items, |_, &v| {
            if v == 3 {
                panic!("boom");
            }
            v
        });
    }
}
