//! Deterministic fork-join worker pool for the round engine.
//!
//! Every *pure* stage of the round (command rendering, invariant
//! evaluation, partition diffing, health projection) may fan out across
//! this pool; every *effectful* stage (command issue, RNG draws, sim
//! clock stepping, storage submits) stays single-threaded. The pool
//! guarantees that for a pure `f`, `run(items, f)` returns exactly
//! `items.iter().enumerate().map(f).collect()` regardless of worker
//! count: items are partitioned by stride, each worker tags results
//! with the item index, and the merge reorders by index. No
//! work-stealing, no shared mutable state, no scheduling dependence.
//!
//! Worker count resolution (first match wins):
//! 1. explicit `WorkerPool::new(n)` with `n >= 1`
//! 2. `STATESMAN_WORKER_THREADS` env var
//! 3. `std::thread::available_parallelism()`

/// Fixed-size deterministic fork-join pool. Cheap to construct (holds
/// only the thread count); threads are scoped per `run` call so the
/// pool is trivially `Send + Sync` and never leaks OS threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    threads: usize,
}

/// Resolve the default worker count: `STATESMAN_WORKER_THREADS` if set
/// and parseable, else the host's available parallelism, else 1.
pub fn default_worker_threads() -> usize {
    statesman_topology::par::worker_threads()
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new(default_worker_threads())
    }
}

impl WorkerPool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// A serial pool: `run` degenerates to a plain map on the caller's
    /// thread. Useful as the bit-equality reference in tests.
    pub fn serial() -> Self {
        WorkerPool::new(1)
    }

    /// The configured worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Map `f` over `items`, returning results in item order.
    ///
    /// `f` must be pure (its output a function of the index and item
    /// alone) for the determinism guarantee to mean anything; the pool
    /// only guarantees *ordering*, purity is the caller's contract.
    pub fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let mut tagged: Vec<(usize, R)> = Vec::with_capacity(items.len());
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers);
            for w in 0..workers {
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut out = Vec::with_capacity(items.len() / workers + 1);
                    let mut i = w;
                    while i < items.len() {
                        out.push((i, f(i, &items[i])));
                        i += workers;
                    }
                    out
                }));
            }
            for h in handles {
                tagged.extend(h.join().expect("worker panicked"));
            }
        });
        tagged.sort_by_key(|(i, _)| *i);
        tagged.into_iter().map(|(_, r)| r).collect()
    }
}

/// Evaluate a list of invariants against one context and return the
/// first violation **in invariant order** — bit-identical to the serial
/// loop `for inv in invariants { if let Err(v) = inv.check(ctx) { return
/// Some(v) } }`, but with order-insensitive (pure) invariants fanned out
/// across `pool`.
///
/// Order-sensitive invariants (those whose `check` mutates caches that
/// later checks observe) are evaluated serially, in order, and *only*
/// when no earlier-indexed invariant has already failed — exactly the
/// set of evaluations the serial loop performs, so their cache
/// trajectories are preserved. Pure invariants may be evaluated
/// speculatively past the first failure; by definition that is
/// unobservable.
pub fn first_violation(
    pool: &WorkerPool,
    invariants: &[&dyn crate::invariants::Invariant],
    ctx: &crate::invariants::InvariantContext<'_>,
) -> Option<crate::invariants::Violation> {
    if invariants.is_empty() {
        return None;
    }
    let pure_idx: Vec<usize> = (0..invariants.len())
        .filter(|&i| !invariants[i].order_sensitive())
        .collect();
    let mut first: Option<(usize, crate::invariants::Violation)> = None;
    fn note(
        first: &mut Option<(usize, crate::invariants::Violation)>,
        i: usize,
        v: crate::invariants::Violation,
    ) {
        if first.as_ref().map(|(fi, _)| i < *fi).unwrap_or(true) {
            *first = Some((i, v));
        }
    }
    if pure_idx.len() == invariants.len() && pool.threads() <= 1 {
        // All pure, one thread: plain serial loop with early exit.
        for (i, inv) in invariants.iter().enumerate() {
            if let Err(v) = inv.check(ctx) {
                return Some(v);
            }
            let _ = i;
        }
        return None;
    }
    let pure_errs = pool.run(&pure_idx, |_, &i| invariants[i].check(ctx).err());
    for (&i, err) in pure_idx.iter().zip(pure_errs) {
        if let Some(v) = err {
            note(&mut first, i, v);
        }
    }
    for (i, inv) in invariants.iter().enumerate() {
        if !inv.order_sensitive() {
            continue;
        }
        // The serial loop evaluates invariant i iff none of 0..i failed.
        if first.as_ref().map(|(fi, _)| *fi < i).unwrap_or(false) {
            continue;
        }
        if let Err(v) = inv.check(ctx) {
            note(&mut first, i, v);
        }
    }
    first.map(|(_, v)| v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_preserves_item_order_across_thread_counts() {
        let items: Vec<u64> = (0..257).collect();
        let reference: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let pool = WorkerPool::new(threads);
            let got = pool.run(&items, |_, x| x * 3 + 1);
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let pool = WorkerPool::new(8);
        let empty: Vec<u8> = vec![];
        assert!(pool.run(&empty, |_, x| *x).is_empty());
        assert_eq!(pool.run(&[42u8], |_, x| *x), vec![42]);
    }
}
