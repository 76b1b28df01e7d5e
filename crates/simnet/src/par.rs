//! Deterministic parallel runtime: a scoped worker pool whose results are
//! bit-identical for a given seed **regardless of thread count**.
//!
//! The contract that makes this safe to drop into a reproducible pipeline:
//!
//! 1. **Fixed chunking by index.** Work is split into chunks whose
//!    boundaries depend only on the input length (and an explicit chunk
//!    size), never on how many workers exist. A 1-thread run and an
//!    8-thread run process the exact same chunks.
//! 2. **Chunk-local state.** Each chunk's computation sees only its items
//!    (plus read-only shared state). Callers that need randomness derive a
//!    per-chunk stream with [`crate::rng::Rng::fork`] keyed by the chunk
//!    index — never by a worker id.
//! 3. **Ordered merge.** Chunk results are merged in ascending chunk
//!    order on the calling thread, so floating-point accumulation order —
//!    and therefore every bit of the output — is scheduling-independent.
//!
//! Threads only decide *when* a chunk runs, never *what* it computes or
//! *where* its result lands. `threads == 1` short-circuits to an inline
//! loop over the same chunks, producing the identical merge sequence.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Upper bound on chunks produced by the default chunking, keeping
/// per-chunk scheduling overhead negligible for large inputs.
const MAX_DEFAULT_CHUNKS: usize = 64;

/// Smallest default chunk worth scheduling as a unit.
const MIN_DEFAULT_CHUNK: usize = 16;

/// Default chunk size for `len` items: a pure function of the input
/// length (never of thread count), so chunk boundaries are reproducible.
pub fn default_chunk_size(len: usize) -> usize {
    len.div_ceil(MAX_DEFAULT_CHUNKS).max(MIN_DEFAULT_CHUNK)
}

/// A deterministic worker pool. Cheap to construct; spawns scoped threads
/// per call (no idle workers linger between calls).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    fn default() -> Self {
        Pool::new(1)
    }
}

impl Pool {
    /// A pool running work on `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Number of worker threads this pool uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `work(0..n_tasks)` across the pool and returns results in task
    /// order. The scheduling backbone of every other method: tasks are
    /// claimed from a shared counter, results are reassembled by task
    /// index, so output order never depends on which worker ran what.
    pub fn run_tasks<R, W>(&self, n_tasks: usize, work: W) -> Vec<R>
    where
        R: Send,
        W: Fn(usize) -> R + Sync,
    {
        if self.threads == 1 || n_tasks <= 1 {
            return (0..n_tasks).map(work).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_tasks));
        crossbeam::scope(|scope| {
            for _ in 0..self.threads.min(n_tasks) {
                scope.spawn(|_| loop {
                    let task = next.fetch_add(1, Ordering::Relaxed);
                    if task >= n_tasks {
                        break;
                    }
                    let result = work(task);
                    slots.lock().push((task, result));
                });
            }
        })
        .expect("par worker panicked");
        let mut ordered = slots.into_inner();
        ordered.sort_by_key(|(task, _)| *task);
        ordered.into_iter().map(|(_, r)| r).collect()
    }

    /// Maps `f` over `items` in parallel; equivalent to
    /// `items.iter().map(f).collect()` bit-for-bit, at any thread count.
    ///
    /// The item lifetime `'i` is explicit so results may borrow from the
    /// input slice (the workers run under a scope that `items` outlives).
    pub fn par_map<'i, T, U, F>(&self, items: &'i [T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&'i T) -> U + Sync,
    {
        self.par_map_chunked(default_chunk_size(items.len()), items, f)
    }

    /// [`Pool::par_map`] with an explicit chunk size (must be nonzero).
    /// Chunk `c` covers items `[c*chunk_size, (c+1)*chunk_size)`.
    pub fn par_map_chunked<'i, T, U, F>(&self, chunk_size: usize, items: &'i [T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&'i T) -> U + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be nonzero");
        let n_chunks = items.len().div_ceil(chunk_size);
        let per_chunk: Vec<Vec<U>> = self.run_tasks(n_chunks, |c| {
            let lo = c * chunk_size;
            let hi = (lo + chunk_size).min(items.len());
            items[lo..hi].iter().map(&f).collect()
        });
        per_chunk.into_iter().flatten().collect()
    }

    /// Runs `f` over disjoint mutable chunks of `items` (chunk `c` covers
    /// `[c*chunk_size, (c+1)*chunk_size)`), returning per-chunk results in
    /// chunk order. The mutable analogue of [`Pool::par_map_chunked`] for
    /// algorithms that update chunk-local state in place (e.g. Gibbs
    /// sweeps mutating per-document topic assignments).
    pub fn par_chunks_mut<T, R, F>(&self, chunk_size: usize, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut [T]) -> R + Sync,
    {
        assert!(chunk_size > 0, "chunk_size must be nonzero");
        let n_chunks = items.len().div_ceil(chunk_size);
        if self.threads == 1 || n_chunks <= 1 {
            return items
                .chunks_mut(chunk_size)
                .enumerate()
                .map(|(c, chunk)| f(c, chunk))
                .collect();
        }
        // Hand each worker exclusive ownership of its claimed chunk by
        // taking the `&mut` slice out of a shared slot table.
        let slots: Mutex<Vec<Option<&mut [T]>>> =
            Mutex::new(items.chunks_mut(chunk_size).map(Some).collect());
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n_chunks));
        crossbeam::scope(|scope| {
            for _ in 0..self.threads.min(n_chunks) {
                scope.spawn(|_| loop {
                    let task = next.fetch_add(1, Ordering::Relaxed);
                    if task >= n_chunks {
                        break;
                    }
                    let chunk = slots.lock()[task].take().expect("chunk claimed once");
                    let result = f(task, chunk);
                    results.lock().push((task, result));
                });
            }
        })
        .expect("par worker panicked");
        let mut ordered = results.into_inner();
        ordered.sort_by_key(|(task, _)| *task);
        ordered.into_iter().map(|(_, r)| r).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_matches_serial_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            assert_eq!(
                pool.par_map(&items, |x| x * x + 1),
                serial,
                "{threads} threads"
            );
        }
    }

    #[test]
    fn chunk_boundaries_do_not_depend_on_threads() {
        let items: Vec<usize> = (0..100).collect();
        // f records its item; order of output must be input order always.
        for chunk in [1, 7, 16, 100, 1000] {
            for threads in [1, 2, 8] {
                let out = Pool::new(threads).par_map_chunked(chunk, &items, |&x| x);
                assert_eq!(out, items, "chunk={chunk} threads={threads}");
            }
        }
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let pool = Pool::new(4);
        let out: Vec<u32> = pool.par_map(&[] as &[u32], |x| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn par_chunks_mut_mutates_every_chunk_once() {
        let reference: Vec<u64> = (0..200u64).map(|x| x + 1000).collect();
        for threads in [1, 2, 8] {
            let mut items: Vec<u64> = (0..200).collect();
            let chunk_ids = Pool::new(threads).par_chunks_mut(32, &mut items, |c, chunk| {
                for x in chunk.iter_mut() {
                    *x += 1000;
                }
                c
            });
            assert_eq!(items, reference, "{threads} threads");
            assert_eq!(chunk_ids, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_tasks_returns_in_task_order() {
        let pool = Pool::new(8);
        let out = pool.run_tasks(50, |t| t * 2);
        assert_eq!(out, (0..50).map(|t| t * 2).collect::<Vec<_>>());
    }

    #[test]
    fn pool_clamps_zero_threads() {
        assert_eq!(Pool::new(0).threads(), 1);
    }
}
