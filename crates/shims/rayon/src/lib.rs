//! Dependency-free stand-in for the subset of the `rayon` API this
//! workspace uses, built on `std::thread::scope`.
//!
//! The container this repo builds in has no registry access, so the real
//! rayon cannot be vendored. This shim keeps the call sites untouched:
//! `par_iter`, `par_iter_mut`, `par_chunks`, `par_chunks_mut`,
//! `into_par_iter` (ranges and vectors), the `map`/`enumerate`/`for_each`
//! /`collect`/`reduce` adapters, plus `ThreadPoolBuilder::install` and
//! `current_num_threads`.
//!
//! Parallelism is real (scoped OS threads over contiguous splits), ordered
//! (results are concatenated in input order, matching rayon's indexed
//! collect), and non-nested: work started from inside a worker thread runs
//! serially, so recursive fan-out cannot explode the thread count.

use std::cell::Cell;
use std::ops::Range;

pub mod prelude {
    pub use crate::{IntoParallelIterator, ParallelIterator, ParallelSlice, ParallelSliceMut};
}

thread_local! {
    /// True inside a shim worker thread (forces nested work serial).
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Thread-count override installed by [`ThreadPool::install`].
    static POOL_THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Number of threads parallel work may use from the current context.
pub fn current_num_threads() -> usize {
    let installed = POOL_THREADS.with(Cell::get);
    if installed > 0 {
        return installed;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn effective_threads(n_items: usize) -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    current_num_threads().min(n_items).max(1)
}

// ---------------------------------------------------------------------------
// Thread pool facade

/// Builder mirroring `rayon::ThreadPoolBuilder` (thread count only).
#[derive(Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Error type for [`ThreadPoolBuilder::build`] (construction never fails).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// New builder with the default thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the number of worker threads (0 = default).
    #[must_use]
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool.
    ///
    /// # Errors
    /// Never fails; the `Result` mirrors rayon's signature.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: if self.num_threads == 0 {
                std::thread::available_parallelism().map_or(1, |n| n.get())
            } else {
                self.num_threads
            },
        })
    }
}

/// A scoped thread-count override; `install` runs the closure with the
/// pool's thread budget visible to all shim entry points underneath.
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `f` with this pool's thread count installed. The previous
    /// budget is restored when `f` returns *or unwinds*: callers that
    /// catch a panic and keep the thread (the service's chunk retry and
    /// its worker loop) must not inherit a stale override.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                // `try_with`: a drop must not panic, even during thread
                // teardown when the slot is already gone.
                let _ = POOL_THREADS.try_with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(POOL_THREADS.with(|c| c.replace(self.num_threads)));
        f()
    }

    /// The pool's thread budget.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }
}

// ---------------------------------------------------------------------------
// Core parallel-iterator machinery

/// Internal-iteration parallel iterator: `drive` applies an index-aware
/// callback to every item (possibly across threads) and returns the
/// results in input order.
pub trait ParallelIterator: Sized + Send {
    /// Item yielded to adapters.
    type Item: Send;

    /// Apply `f(global_index, item)` to every item, in parallel when the
    /// context allows, returning results in input order.
    fn drive<R, F>(self, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Self::Item) -> R + Sync;

    /// Map each item through `f`.
    fn map<F, R>(self, f: F) -> Map<Self, F>
    where
        F: Fn(Self::Item) -> R + Sync + Send,
        R: Send,
    {
        Map { base: self, f }
    }

    /// Pair each item with its input-order index.
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Run `f` on every item.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync + Send,
    {
        self.drive(&|_, item| f(item));
    }

    /// Collect items in input order.
    fn collect<C>(self) -> C
    where
        C: FromIterator<Self::Item>,
    {
        self.drive(&|_, item| item).into_iter().collect()
    }

    /// Rayon-style reduce with an identity constructor.
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync + Send,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync + Send,
    {
        self.drive(&|_, item| item).into_iter().fold(identity(), op)
    }

    /// Sum the items.
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.drive(&|_, item| item).into_iter().sum()
    }
}

/// `map` adapter.
pub struct Map<P, F> {
    base: P,
    f: F,
}

impl<P, F, R> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    F: Fn(P::Item) -> R + Sync + Send,
    R: Send,
{
    type Item = R;

    fn drive<R2, G>(self, g: &G) -> Vec<R2>
    where
        R2: Send,
        G: Fn(usize, Self::Item) -> R2 + Sync,
    {
        let f = self.f;
        self.base.drive(&move |i, item| g(i, f(item)))
    }
}

/// `enumerate` adapter.
pub struct Enumerate<P> {
    base: P,
}

impl<P> ParallelIterator for Enumerate<P>
where
    P: ParallelIterator,
{
    type Item = (usize, P::Item);

    fn drive<R2, G>(self, g: &G) -> Vec<R2>
    where
        R2: Send,
        G: Fn(usize, Self::Item) -> R2 + Sync,
    {
        self.base.drive(&move |i, item| g(i, (i, item)))
    }
}

/// Split `n` items into per-thread `(start, end)` ranges and run `work`
/// on each range in a scoped thread; concatenate results in order.
fn run_ranges<R, W>(n_items: usize, threads: usize, work: W) -> Vec<R>
where
    R: Send,
    W: Fn(Range<usize>) -> Vec<R> + Sync,
{
    if threads <= 1 || n_items <= 1 {
        return work(0..n_items);
    }
    let per = n_items.div_ceil(threads);
    let ranges: Vec<Range<usize>> = (0..threads)
        .map(|t| (t * per).min(n_items)..((t + 1) * per).min(n_items))
        .filter(|r| !r.is_empty())
        .collect();
    let mut pieces: Vec<Vec<R>> = Vec::with_capacity(ranges.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = ranges
            .into_iter()
            .map(|r| {
                let work = &work;
                scope.spawn(move || {
                    IN_WORKER.with(|c| c.set(true));
                    work(r)
                })
            })
            .collect();
        for h in handles {
            pieces.push(h.join().expect("parallel worker panicked"));
        }
    });
    let mut out = Vec::with_capacity(n_items);
    for p in pieces {
        out.extend(p);
    }
    out
}

// ---------------------------------------------------------------------------
// Sources

/// Parallel shared-slice iterator.
pub struct ParSliceIter<'a, T> {
    slice: &'a [T],
}

impl<'a, T: Sync> ParallelIterator for ParSliceIter<'a, T> {
    type Item = &'a T;

    fn drive<R, F>(self, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Self::Item) -> R + Sync,
    {
        let slice = self.slice;
        run_ranges(slice.len(), effective_threads(slice.len()), |r| {
            slice[r.clone()]
                .iter()
                .enumerate()
                .map(|(j, item)| f(r.start + j, item))
                .collect()
        })
    }
}

/// Parallel shared-chunks iterator.
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> ParallelIterator for ParChunks<'a, T> {
    type Item = &'a [T];

    fn drive<R, F>(self, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Self::Item) -> R + Sync,
    {
        let (slice, size) = (self.slice, self.size);
        let n_chunks = slice.len().div_ceil(size);
        run_ranges(n_chunks, effective_threads(n_chunks), |r| {
            r.clone()
                .map(|c| {
                    let chunk = &slice[c * size..((c + 1) * size).min(slice.len())];
                    f(c, chunk)
                })
                .collect()
        })
    }
}

/// Parallel exclusive-item iterator (split into contiguous pieces).
pub struct ParSliceIterMut<'a, T> {
    slice: &'a mut [T],
}

impl<'a, T: Send> ParallelIterator for ParSliceIterMut<'a, T> {
    type Item = &'a mut T;

    fn drive<R, F>(self, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Self::Item) -> R + Sync,
    {
        let slice = self.slice;
        let n = slice.len();
        let threads = effective_threads(n);
        if threads <= 1 {
            return slice
                .iter_mut()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let per = n.div_ceil(threads);
        let mut pieces: Vec<(usize, &mut [T])> = Vec::with_capacity(threads);
        let mut rest = slice;
        let mut base = 0usize;
        while !rest.is_empty() {
            let take = per.min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            pieces.push((base, head));
            base += take;
            rest = tail;
        }
        let mut results: Vec<Vec<R>> = Vec::with_capacity(pieces.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = pieces
                .into_iter()
                .map(|(off, piece)| {
                    scope.spawn(move || {
                        IN_WORKER.with(|c| c.set(true));
                        piece
                            .iter_mut()
                            .enumerate()
                            .map(|(j, item)| f(off + j, item))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("parallel worker panicked"));
            }
        });
        let mut out = Vec::with_capacity(n);
        for p in results {
            out.extend(p);
        }
        out
    }
}

/// Parallel exclusive-chunks iterator.
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> ParallelIterator for ParChunksMut<'a, T> {
    type Item = &'a mut [T];

    fn drive<R, F>(self, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Self::Item) -> R + Sync,
    {
        let size = self.size;
        let slice = self.slice;
        let n_chunks = slice.len().div_ceil(size);
        let threads = effective_threads(n_chunks);
        if threads <= 1 {
            return slice
                .chunks_mut(size)
                .enumerate()
                .map(|(i, chunk)| f(i, chunk))
                .collect();
        }
        // Split at chunk-aligned boundaries so every worker owns whole
        // chunks.
        let per = n_chunks.div_ceil(threads);
        let mut pieces: Vec<(usize, &mut [T])> = Vec::with_capacity(threads);
        let mut rest = slice;
        let mut chunk_base = 0usize;
        while !rest.is_empty() {
            let take = (per * size).min(rest.len());
            let (head, tail) = rest.split_at_mut(take);
            pieces.push((chunk_base, head));
            chunk_base += per;
            rest = tail;
        }
        let mut results: Vec<Vec<R>> = Vec::with_capacity(pieces.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = pieces
                .into_iter()
                .map(|(base, piece)| {
                    scope.spawn(move || {
                        IN_WORKER.with(|c| c.set(true));
                        piece
                            .chunks_mut(size)
                            .enumerate()
                            .map(|(j, chunk)| f(base + j, chunk))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("parallel worker panicked"));
            }
        });
        let mut out = Vec::with_capacity(n_chunks);
        for p in results {
            out.extend(p);
        }
        out
    }
}

/// Parallel range iterator.
pub struct ParRange {
    range: Range<usize>,
}

impl ParallelIterator for ParRange {
    type Item = usize;

    fn drive<R, F>(self, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Self::Item) -> R + Sync,
    {
        let start = self.range.start;
        let n = self.range.len();
        run_ranges(n, effective_threads(n), |r| {
            r.clone().map(|i| f(i, start + i)).collect()
        })
    }
}

/// Parallel owning iterator over a vector.
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParVec<T> {
    type Item = T;

    fn drive<R, F>(mut self, f: &F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize, Self::Item) -> R + Sync,
    {
        let n = self.items.len();
        let threads = effective_threads(n);
        if threads <= 1 {
            return self
                .items
                .into_iter()
                .enumerate()
                .map(|(i, item)| f(i, item))
                .collect();
        }
        let per = n.div_ceil(threads);
        let mut pieces: Vec<(usize, Vec<T>)> = Vec::with_capacity(threads);
        let mut base = 0usize;
        let mut drain = self.items.drain(..);
        while base < n {
            let take = per.min(n - base);
            let piece: Vec<T> = drain.by_ref().take(take).collect();
            pieces.push((base, piece));
            base += take;
        }
        drop(drain);
        let mut results: Vec<Vec<R>> = Vec::with_capacity(pieces.len());
        std::thread::scope(|scope| {
            let handles: Vec<_> = pieces
                .into_iter()
                .map(|(off, piece)| {
                    scope.spawn(move || {
                        IN_WORKER.with(|c| c.set(true));
                        piece
                            .into_iter()
                            .enumerate()
                            .map(|(j, item)| f(off + j, item))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            for h in handles {
                results.push(h.join().expect("parallel worker panicked"));
            }
        });
        let mut out = Vec::with_capacity(n);
        for p in results {
            out.extend(p);
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Entry-point traits

/// `into_par_iter` for owning/value sources.
pub trait IntoParallelIterator {
    /// The parallel iterator produced.
    type Iter: ParallelIterator;
    /// Convert into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

/// `par_iter` / `par_chunks` on shared slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over shared references.
    fn par_iter(&self) -> ParSliceIter<'_, T>;
    /// Parallel iterator over `size`-sized chunks.
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParSliceIter<'_, T> {
        ParSliceIter { slice: self }
    }
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunks { slice: self, size }
    }
}

/// `par_iter_mut` / `par_chunks_mut` on exclusive slices.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over exclusive references.
    fn par_iter_mut(&mut self) -> ParSliceIterMut<'_, T>;
    /// Parallel iterator over exclusive `size`-sized chunks.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_iter_mut(&mut self) -> ParSliceIterMut<'_, T> {
        ParSliceIterMut { slice: self }
    }
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be positive");
        ParChunksMut { slice: self, size }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..10_000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..10_000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_map_reduce() {
        let v = vec![1u64; 1000];
        let total = v
            .par_iter()
            .enumerate()
            .map(|(i, &x)| i as u64 + x)
            .reduce(|| 0, |a, b| a + b);
        assert_eq!(total, (0..1000u64).sum::<u64>() + 1000);
    }

    #[test]
    fn chunks_mut_for_each_touches_every_chunk_once() {
        let mut v = vec![0u32; 1003];
        v.par_chunks_mut(10).enumerate().for_each(|(i, c)| {
            for x in c {
                *x += i as u32 + 1;
            }
        });
        assert!(v.iter().all(|&x| x > 0));
        assert_eq!(v[0], 1);
        assert_eq!(v[1000], 101);
    }

    #[test]
    fn range_into_par_iter_collects_in_order() {
        let out: Vec<usize> = (0..5000).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out.len(), 5000);
        assert_eq!(out[0], 1);
        assert_eq!(out[4999], 5000);
    }

    #[test]
    fn vec_into_par_iter_moves_items() {
        let v: Vec<String> = (0..100).map(|i| i.to_string()).collect();
        let out: Vec<usize> = v.into_par_iter().map(|s| s.len()).collect();
        assert_eq!(out.len(), 100);
        assert_eq!(out[0], 1);
        assert_eq!(out[99], 2);
    }

    #[test]
    fn iter_mut_parallel_updates_all() {
        let mut v = vec![1.0f64; 4096];
        v.par_iter_mut().for_each(|x| *x *= 2.0);
        assert!(v.iter().all(|&x| (x - 2.0).abs() < 1e-12));
    }

    #[test]
    fn install_caps_thread_count() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            assert_eq!(current_num_threads(), 2);
        });
    }

    #[test]
    fn install_restores_budget_across_panic() {
        let outer = ThreadPoolBuilder::new().num_threads(3).build().unwrap();
        let one = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        outer.install(|| {
            let caught = std::panic::catch_unwind(|| one.install(|| panic!("inside install")));
            assert!(caught.is_err());
            assert_eq!(current_num_threads(), 3);
        });
    }

    #[test]
    fn nested_parallelism_stays_serial() {
        let outer: Vec<usize> = (0..8)
            .into_par_iter()
            .map(|i| {
                // Inner parallel call runs serially inside a worker.
                let inner: Vec<usize> = (0..100).into_par_iter().map(|j| j).collect();
                inner.len() + i
            })
            .collect();
        assert_eq!(outer.len(), 8);
        assert_eq!(outer[0], 100);
    }
}
