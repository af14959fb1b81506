//! Deterministic data parallelism over slices, built on
//! `std::thread::scope` and an atomic work index — no external
//! dependencies, no unsafe.
//!
//! The customization pipeline is dominated by embarrassingly parallel
//! loops: per-DFG candidate exploration, pairwise subsumption and
//! wildcard checks, and per-block pattern matching. [`par_map`] and
//! [`par_map_indexed`] fan those loops out across threads while keeping
//! the *result order identical to the serial loop*: every item's result
//! is stored at its input index, so callers observe byte-identical
//! output regardless of thread count or scheduling.
//!
//! The thread count comes from, in order:
//!
//! 1. a per-process override installed with [`set_thread_override`]
//!    (used by determinism tests to pin both sides of a comparison),
//! 2. the `ISAX_THREADS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! A count of 1 (or a work list of one item) runs the closure inline on
//! the calling thread with no pool at all, so `ISAX_THREADS=1` is the
//! exact serial code path, not a one-thread simulation of it.
//!
//! Calls are *flat*: a `par_map` issued from inside another `par_map`
//! worker runs serially on that worker. Only the outermost call fans
//! out, so the process never runs more than `thread_count()` workers no
//! matter how deeply parallel stages compose.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Process-wide thread-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True while this thread is a `par_map` worker. Nested calls run
    /// serially instead of multiplying threads: a fan-out over N
    /// benchmarks each fanning out over M blocks would otherwise spawn
    /// N×M threads and lose more to oversubscription than it gains.
    static IN_PAR_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Pins the pipeline-wide thread count, overriding `ISAX_THREADS` and
/// the detected parallelism. `None` removes the override.
///
/// Intended for tests that compare parallel against serial output from
/// inside one process; production callers should set `ISAX_THREADS`
/// instead.
pub fn set_thread_override(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.unwrap_or(0), Ordering::SeqCst);
}

/// The number of worker threads parallel pipeline stages will use.
pub fn thread_count() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("ISAX_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// Semantically identical to `items.iter().map(f).collect()` for any
/// `f` without side effects; the parallel path only changes wall-clock
/// time, never the result. Panics in `f` propagate to the caller.
///
/// # Example
///
/// ```
/// use isax_graph::par::par_map;
/// let squares = par_map(&[1u64, 2, 3, 4], |&x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Maps `f` over `0..n` in parallel, returning results in index order.
///
/// The work-stealing is a single shared atomic counter: each worker
/// claims the next unprocessed index, computes, and stores the result
/// tagged with its index. Slot `i` of the returned vector always holds
/// `f(i)`. This is [`par_try_map_indexed`] with the first panic
/// re-raised on the calling thread once the fan-out has joined.
pub fn par_map_indexed<U: Send>(n: usize, f: impl Fn(usize) -> U + Sync) -> Vec<U> {
    let results = par_try_map_indexed(n, f);
    // Cancellations only ever follow a panic, so a failed fan-out always
    // holds a non-cancelled error to re-raise.
    if let Some(e) = results
        .iter()
        .find_map(|r| r.as_ref().err().filter(|e| !e.cancelled))
    {
        std::panic::resume_unwind(Box::new(e.message.clone()));
    }
    results
        .into_iter()
        .map(|r| r.expect("no item panicked, so none was cancelled"))
        .collect()
}

/// Why one item of a [`par_try_map_indexed`] fan-out failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParError {
    /// The input index whose closure failed or was skipped.
    pub index: usize,
    /// The panic payload rendered to text, or a cancellation notice.
    pub message: String,
    /// True when the item never ran: the queue was cooperatively
    /// cancelled after a sibling panicked.
    pub cancelled: bool,
}

/// Best-effort text of a panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

fn cancelled_error(index: usize) -> ParError {
    ParError {
        index,
        message: "fan-out cancelled after an earlier item panicked".to_string(),
        cancelled: true,
    }
}

/// Panic-isolating variant of [`par_map_indexed`], behind every pipeline
/// stage's governed fan-out (`isax_guard::Guard::fan_out`).
///
/// Each worker closure runs under [`catch_unwind`]; a panicking item
/// becomes a per-item [`ParError`] at the join point instead of
/// aborting the whole fan-out. The first panic also cooperatively
/// cancels the remaining queue: workers stop claiming new indices, and
/// unclaimed items come back as [`ParError`]s with `cancelled` set.
/// Items already in flight on other workers run to completion, so every
/// slot of the result is either the item's value, its own panic, or a
/// cancellation — in input order, like [`par_map_indexed`].
///
/// Which items were still queued when the panic landed depends on
/// scheduling, so cancellations are *not* deterministic across thread
/// counts (the serial inline path cancels everything after the panicking
/// index). Callers record them as non-reproducible degradations.
pub fn par_try_map_indexed<U: Send>(
    n: usize,
    f: impl Fn(usize) -> U + Sync,
) -> Vec<Result<U, ParError>> {
    let threads = thread_count().min(n.max(1));
    if threads <= 1 || n <= 1 || IN_PAR_WORKER.with(Cell::get) {
        let mut out = Vec::with_capacity(n);
        let mut cancelled = false;
        for i in 0..n {
            if cancelled {
                out.push(Err(cancelled_error(i)));
                continue;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => out.push(Ok(v)),
                Err(payload) => {
                    cancelled = true;
                    out.push(Err(ParError {
                        index: i,
                        message: panic_text(payload.as_ref()),
                        cancelled: false,
                    }));
                }
            }
        }
        return out;
    }
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    isax_trace::counter("par.fanouts", 1);
    isax_trace::counter("par.items", n as u64);
    isax_trace::counter("par.workers_spawned", threads as u64);
    let f = &f;
    let next = &next;
    let stop = &stop;
    // Workers inherit the spawning thread's request tag so per-request
    // attribution survives the fan-out.
    let req = isax_trace::current_request();
    let buckets: Vec<Vec<(usize, Result<U, ParError>)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|worker| {
                scope.spawn(move || {
                    IN_PAR_WORKER.with(|flag| flag.set(true));
                    // Tag this worker's trace events with its own track
                    // so each lane renders separately in the Chrome
                    // export (track 0 stays the calling thread).
                    isax_trace::set_track(worker as u32 + 1);
                    isax_trace::set_request(req);
                    let _span = isax_trace::span("par.worker");
                    let mut local = Vec::new();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        match catch_unwind(AssertUnwindSafe(|| f(i))) {
                            Ok(v) => local.push((i, Ok(v))),
                            Err(payload) => {
                                stop.store(true, Ordering::Relaxed);
                                local.push((
                                    i,
                                    Err(ParError {
                                        index: i,
                                        message: panic_text(payload.as_ref()),
                                        cancelled: false,
                                    }),
                                ));
                            }
                        }
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker bodies are panic-contained"))
            .collect()
    });
    let mut slots: Vec<Option<Result<U, ParError>>> = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    for (i, v) in buckets.into_iter().flatten() {
        slots[i] = Some(v);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| Err(cancelled_error(i))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_input_order() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(&items, |&x| x * 2);
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn indexed_matches_serial_for_every_size() {
        for n in [0usize, 1, 2, 3, 7, 64, 257] {
            let out = par_map_indexed(n, |i| i as u64 + 1);
            assert_eq!(out, (0..n).map(|i| i as u64 + 1).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = par_map_indexed(500, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn override_pins_thread_count() {
        set_thread_override(Some(3));
        assert_eq!(thread_count(), 3);
        set_thread_override(Some(1));
        assert_eq!(thread_count(), 1);
        // Serial path still computes correctly.
        assert_eq!(par_map(&[5u32, 6], |&x| x + 1), vec![6, 7]);
        set_thread_override(None);
        assert!(thread_count() >= 1);
    }

    #[test]
    fn nested_calls_serialize_on_the_worker() {
        set_thread_override(Some(4));
        let out = par_map_indexed(6, |i| par_map_indexed(6, move |j| i * 6 + j));
        set_thread_override(None);
        let expect: Vec<Vec<usize>> = (0..6)
            .map(|i| (0..6).map(|j| i * 6 + j).collect())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn try_map_matches_serial_when_nothing_panics() {
        let items: Vec<usize> = (0..200).collect();
        let out = par_try_map_indexed(items.len(), |i| items[i] * 3);
        let vals: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(vals, (0..200).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn try_map_contains_a_panic_as_a_per_item_error() {
        set_thread_override(Some(4));
        let out = par_try_map_indexed(64, |i| {
            if i == 13 {
                panic!("boom at 13");
            }
            i
        });
        set_thread_override(None);
        assert_eq!(out.len(), 64);
        let err = out[13].as_ref().unwrap_err();
        assert_eq!(err.index, 13);
        assert!(!err.cancelled);
        assert!(err.message.contains("boom at 13"));
        // Everything the workers completed is correct; everything else
        // is a cancellation, never a wrong value.
        for (i, r) in out.iter().enumerate() {
            match r {
                Ok(v) => assert_eq!(*v, i),
                Err(e) => assert!(e.index == i && (e.cancelled || i == 13)),
            }
        }
    }

    #[test]
    fn try_map_serial_path_cancels_everything_after_the_panic() {
        set_thread_override(Some(1));
        let out = par_try_map_indexed(6, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
        set_thread_override(None);
        assert_eq!(out[0], Ok(0));
        assert_eq!(out[1], Ok(1));
        let err = out[2].as_ref().unwrap_err();
        assert!(!err.cancelled && err.message.contains("boom"));
        for (i, r) in out.iter().enumerate().skip(3) {
            let e = r.as_ref().unwrap_err();
            assert!(e.cancelled, "item {i} should be cancelled");
        }
    }

    #[test]
    fn try_map_processes_every_item_exactly_once_without_faults() {
        let calls = AtomicU64::new(0);
        let out = par_try_map_indexed(300, |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 300);
        assert!(out.iter().all(|r| r.is_ok()));
    }

    #[test]
    fn worker_panics_propagate() {
        set_thread_override(Some(4));
        let r = std::panic::catch_unwind(|| {
            par_map_indexed(64, |i| {
                if i == 13 {
                    panic!("boom at 13");
                }
                i
            })
        });
        set_thread_override(None);
        assert!(r.is_err());
    }
}
