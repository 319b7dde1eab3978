//! The one worker pool: [`ExecutionContext::map`] evaluates independent
//! work items, such as the points of an accuracy sweep, on up to `threads`
//! workers and returns the results in item order. It is the only place in
//! the workspace that spawns threads; the kernels themselves (the blocked
//! GEMM in [`Matrix::matmul`](crate::tensor::Matrix::matmul) included) run
//! on the calling thread.
//!
//! The calling thread is one of the workers, so `threads` workers spawn
//! `threads - 1` extra threads, and a one-worker context (or an input of at
//! most one item) spawns none and runs every item on the caller in order.
//! Workers claim the next unclaimed item from a shared counter, so items of
//! uneven cost balance. Each result depends only on its item, so the output
//! is bit-identical at every thread count.

use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count behind [`ExecutionContext::map`].
///
/// ```
/// use mugi_numerics::exec::ExecutionContext;
/// let ctx = ExecutionContext::with_threads(4);
/// assert_eq!(ctx.threads(), 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ExecutionContext {
    threads: usize,
}

impl ExecutionContext {
    /// A context with one worker: the calling thread.
    pub fn single_threaded() -> Self {
        ExecutionContext::with_threads(1)
    }

    /// A context with `threads` workers.
    ///
    /// # Panics
    /// Panics if `threads` is zero.
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0, "threads must be non-zero");
        ExecutionContext { threads }
    }

    /// A context sized to the host: one worker per available hardware thread
    /// (falling back to one when the parallelism cannot be queried).
    pub fn host_parallel() -> Self {
        let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ExecutionContext::with_threads(threads)
    }

    /// Number of workers [`map`](Self::map) may use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item on up to [`threads`](Self::threads)
    /// workers, the calling thread among them, and returns the results in
    /// item order. A panic in `f` propagates to the caller once every
    /// worker has stopped.
    ///
    /// ```
    /// use mugi_numerics::exec::ExecutionContext;
    /// let squares = ExecutionContext::with_threads(2).map(&[1, 2, 3], |&x| x * x);
    /// assert_eq!(squares, vec![1, 4, 9]);
    /// ```
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let workers = self.threads.min(items.len());
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                // The counter publishes no data, only distinct indices;
                // results reach the caller through the joins.
                let index = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(index) else { return done };
                done.push((index, f(item)));
            }
        };
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(items.len()).collect();
        #[expect(
            clippy::disallowed_methods,
            reason = "the workspace's one worker pool: results return in item order, each computed from its item alone"
        )]
        std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..workers)
                .map(|_| {
                    #[cfg(test)]
                    tests::SPAWNED.with(|n| n.set(n.get() + 1));
                    scope.spawn(work)
                })
                .collect();
            let mut store = |done: Vec<(usize, R)>| {
                for (index, result) in done {
                    slots[index] = Some(result);
                }
            };
            store(work());
            for helper in helpers {
                match helper.join() {
                    Ok(done) => store(done),
                    Err(payload) => std::panic::resume_unwind(payload),
                }
            }
        });
        slots.into_iter().map(|r| r.expect("every item is claimed exactly once")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// Threads `map` has spawned from this thread.
        pub(super) static SPAWNED: Cell<usize> = const { Cell::new(0) };
    }

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(ExecutionContext::with_threads(3).threads(), 3);
        assert_eq!(ExecutionContext::single_threaded().threads(), 1);
        assert!(ExecutionContext::host_parallel().threads() >= 1);
    }

    /// Work whose cost varies by item, so workers finish out of order.
    fn uneven(x: &u64) -> f64 {
        let mut acc = *x as f64;
        for i in 0..(x % 7) * 2_000 {
            acc = (acc * 1.000_001 + i as f64).sqrt() + 1.0 / (1.0 + acc);
        }
        acc
    }

    #[test]
    fn map_keeps_item_order_and_bits_at_every_thread_count() {
        let items: Vec<u64> = (0..61).map(|i| i * 37 % 101).collect();
        let expected: Vec<u64> = items.iter().map(|x| uneven(x).to_bits()).collect();
        for threads in [1, 2, 3, 16] {
            let got = ExecutionContext::with_threads(threads).map(&items, uneven);
            let bits: Vec<u64> = got.iter().map(|r| r.to_bits()).collect();
            assert_eq!(bits, expected, "threads = {threads}");
        }
    }

    #[test]
    fn map_spreads_items_over_workers() {
        use std::sync::atomic::AtomicBool;
        let caller = std::thread::current().id();
        let (caller_took, helper_took) = (AtomicBool::new(false), AtomicBool::new(false));
        let items: Vec<u64> = (0..8).collect();
        let spawned = SPAWNED.get();
        let ids = ExecutionContext::with_threads(2).map(&items, |_| {
            // Each worker holds its first item until the other has one too.
            let id = std::thread::current().id();
            let (mine, other) = if id == caller {
                (&caller_took, &helper_took)
            } else {
                (&helper_took, &caller_took)
            };
            mine.store(true, Ordering::Release);
            while !other.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            id
        });
        assert!(ids.contains(&caller), "the calling thread is a worker");
        assert!(ids.iter().any(|&id| id != caller), "a second worker took items");
        assert_eq!(SPAWNED.get() - spawned, 1, "two workers are the caller and one thread");
    }

    #[test]
    fn map_of_at_most_one_item_runs_on_the_caller() {
        let ctx = ExecutionContext::with_threads(16);
        let spawned = SPAWNED.get();
        let none: Vec<std::thread::ThreadId> =
            ctx.map(&[] as &[u8], |_| std::thread::current().id());
        assert!(none.is_empty());
        let one = ctx.map(&[7u8], |_| std::thread::current().id());
        assert_eq!(one, vec![std::thread::current().id()]);
        assert_eq!(SPAWNED.get(), spawned, "no thread was spawned");
    }

    #[test]
    fn map_with_one_worker_runs_every_item_on_the_caller() {
        let items: Vec<u64> = (0..9).collect();
        let spawned = SPAWNED.get();
        let ids = ExecutionContext::single_threaded().map(&items, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == std::thread::current().id()));
        assert_eq!(SPAWNED.get(), spawned, "no thread was spawned");
    }

    #[test]
    #[should_panic(expected = "item 5 failed")]
    fn map_propagates_a_panicking_item() {
        let items: Vec<u32> = (0..12).collect();
        ExecutionContext::with_threads(3).map(&items, |&x| {
            assert!(x != 5, "item {x} failed");
            x
        });
    }

    #[test]
    #[should_panic(expected = "threads must be non-zero")]
    fn zero_threads_rejected() {
        ExecutionContext::with_threads(0);
    }
}
