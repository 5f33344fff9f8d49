//! Deterministic parallel mapping for pure per-item computations.
//!
//! The capacity invariant solves one max-flow per sampled ToR pair —
//! thousands of mutually independent sub-problems. This module fans such
//! maps out across scoped threads while keeping the result bit-identical
//! to the serial map: items are split into contiguous chunks whose
//! boundaries depend only on the item count, each chunk is mapped in
//! place, and the outputs are concatenated in chunk order. Nothing about
//! scheduling can leak into the result as long as `f` is pure.
//!
//! Spawning and joining scoped threads costs tens of microseconds, more
//! than a dozen pair solves. A map therefore fans out only when every
//! worker gets at least [`GRAIN`] items; smaller maps (a checker
//! candidate's handful of touched pairs) run on the caller's thread.

use std::num::NonZeroUsize;

/// Fewest items a worker is given: below `2 * GRAIN` items a map runs on
/// the caller's thread, and it never uses more than `items / GRAIN`
/// workers.
pub const GRAIN: usize = 64;

/// The process-wide worker-thread count for pure parallel stages:
/// `STATESMAN_WORKER_THREADS` when set to a positive integer, else the
/// host's available parallelism, else 1.
pub fn worker_threads() -> usize {
    if let Ok(raw) = std::env::var("STATESMAN_WORKER_THREADS") {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Map `f` over `items` on up to `threads` scoped workers (at most one
/// per [`GRAIN`] items), returning results in item order. `f` must be
/// pure for the output to be independent of the thread count (that
/// independence is this function's whole contract).
pub fn ordered_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.min(items.len() / GRAIN);
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut parts: Vec<(usize, Vec<R>)> = Vec::with_capacity(workers);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for (ci, c) in items.chunks(chunk).enumerate() {
            let f = &f;
            handles.push(scope.spawn(move || (ci, c.iter().map(f).collect::<Vec<R>>())));
        }
        for h in handles {
            parts.push(h.join().expect("parallel map worker panicked"));
        }
    });
    parts.sort_by_key(|(ci, _)| *ci);
    parts.into_iter().flat_map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_map_matches_serial_at_any_thread_count() {
        let items: Vec<i64> = (0..1003).collect();
        let serial: Vec<i64> = items.iter().map(|x| x * x - 7).collect();
        for threads in [1, 2, 3, 8, 31] {
            assert_eq!(
                ordered_map(threads, &items, |x| x * x - 7),
                serial,
                "threads={threads}"
            );
        }
    }

    #[test]
    fn small_maps_stay_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let items = vec![0u8; 2 * GRAIN - 1];
        let ids = ordered_map(8, &items, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
        let items = vec![0u8; 2 * GRAIN];
        let ids = ordered_map(8, &items, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id != caller));
    }

    #[test]
    fn handles_empty_input() {
        let none: Vec<u8> = Vec::new();
        assert!(ordered_map(8, &none, |x| *x).is_empty());
    }
}
