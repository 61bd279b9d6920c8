//! Offline stand-in for `rayon` with **real** data parallelism on a
//! **persistent work-stealing pool**.
//!
//! Earlier generations of this shim degraded `par_*` to sequential
//! iterators, then to scoped `std::thread` workers spawned per region
//! (~tens of µs of spawn cost every time, with nested regions forced
//! inline). This version keeps a process-global pool alive across
//! regions:
//!
//! * **Lazy global workers** — the first parallel region spawns
//!   `current_num_threads() - 1` daemon workers (the calling thread is
//!   always the remaining lane); later regions reuse them, so a region's
//!   fixed cost is two atomic loads and a queue push, not a `clone(2)`.
//!   Raising the width later (e.g. [`set_num_threads`]) spawns the
//!   difference on demand, up to [`MAX_POOL_WORKERS`].
//! * **Per-worker deques with stealing** — each worker owns a deque;
//!   submissions from a worker push to its own deque (popped LIFO for
//!   locality), external submissions go to a shared injector, and idle
//!   workers steal FIFO from the injector and from each other. Regions
//!   oversplit their items into strips ([`STRIP_FACTOR`] per lane) so
//!   stealing can rebalance a skewed workload.
//! * **Width-shared nested regions** — a parallel region started *from*
//!   a pool worker submits to the same deques and helps drain them while
//!   it waits, so nested parallelism shares the fixed pool width instead
//!   of running inline (the old shim) or multiplying threads (the shim
//!   before that). Total live threads never exceed pool + callers.
//! * **Bit-determinism contract** — every adaptor remains
//!   **order-preserving**: strips are merged in input order, so
//!   `par_iter().map(f).collect()` yields exactly the sequential result
//!   at any thread count, any steal interleaving, nested or not. (The
//!   per-item closures must be pure functions of their item, which every
//!   caller in this workspace already guarantees.)
//!
//! Pool sizing follows `std::thread::available_parallelism`, overridable
//! with `KARMA_NUM_THREADS` / `RAYON_NUM_THREADS` (checked in that order)
//! or at runtime via [`set_num_threads`] (the shim's substitute for
//! `ThreadPoolBuilder::build_global`). Width `1` forces inline sequential
//! execution everywhere and never touches the pool.
//!
//! The trait surface of the real crate that the workspace consumes is kept
//! intact (`par_chunks[_mut]`, `par_iter[_mut]`, `into_par_iter` on `Vec`
//! and ranges, `map`/`enumerate`/`for_each`/`collect`/`sum`, `join`,
//! `ThreadPoolBuilder::new().num_threads(k).build()` and
//! `ThreadPool::install`), so no call site changes when swapping in the
//! real `rayon`.
//!
//! **`install` differs from the real crate's.** Real rayon runs the
//! closure on one of the private pool's own `k` threads. The shim has one
//! global pool, so [`ThreadPool::install`] runs the closure on the
//! *calling* thread with a thread-local cap of `k` on region width:
//! [`current_num_threads`] reports `k` inside, every region is sized to
//! `k` lanes, and at `k = 1` regions run inline without touching the pool.
//! The cap is restored on return and on unwind, and nested installs take
//! the inner width. Data-parallel workers use it to give each replica its
//! own share of the cores, one compute device per worker. Under the real
//! crate each `build` spawns the pool's threads, so callers build one
//! pool per width and reuse it.
//!
//! One deliberate extension beyond the real crate: [`io`], a pool of
//! strict-FIFO I/O lanes (dedicated daemon threads) used by
//! `karma-runtime`'s asynchronous swap engine — ordering-sensitive
//! transfer jobs are exactly what a work-*stealing* executor must not
//! reorder, so they get their own lanes instead of riding the compute
//! pool.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

pub mod io;
mod pool;
mod thread_pool;

pub use pool::{pool_workers_spawned, MAX_POOL_WORKERS, STRIP_FACTOR};
pub use thread_pool::{ThreadPool, ThreadPoolBuildError, ThreadPoolBuilder};

// --------------------------------------------------------------- pool size

/// Runtime override installed by [`set_num_threads`]; `0` means "auto".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

fn auto_threads() -> usize {
    static AUTO: OnceLock<usize> = OnceLock::new();
    *AUTO.get_or_init(|| {
        for var in ["KARMA_NUM_THREADS", "RAYON_NUM_THREADS"] {
            if let Ok(v) = std::env::var(var) {
                if let Ok(n) = v.trim().parse::<usize>() {
                    if n >= 1 {
                        return n;
                    }
                }
            }
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// Override the worker count for every subsequent parallel region
/// (`0` restores the environment/auto default). Process-global, like
/// rayon's global pool. Already-spawned pool workers are never torn down;
/// shrinking the width just leaves the surplus parked.
///
/// ```
/// rayon::set_num_threads(1); // force sequential execution
/// assert_eq!(rayon::current_num_threads(), 1);
/// rayon::set_num_threads(0); // restore the environment/auto default
/// assert!(rayon::current_num_threads() >= 1);
/// ```
pub fn set_num_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count parallel regions on this thread are currently sized
/// to: the width of the innermost [`ThreadPool::install`] this thread is
/// inside, else the process-global width.
///
/// ```
/// // Always at least one lane (the calling thread itself).
/// assert!(rayon::current_num_threads() >= 1);
/// ```
pub fn current_num_threads() -> usize {
    match thread_pool::width_cap() {
        0 => match THREAD_OVERRIDE.load(Ordering::SeqCst) {
            0 => auto_threads(),
            n => n,
        },
        cap => cap,
    }
}

// --------------------------------------------------------------- executor

/// Lane count for a new parallel region: the configured width (capped by
/// an enclosing [`ThreadPool::install`]), whether the caller is a
/// top-level thread or a pool worker — nested regions width-share the
/// persistent pool rather than running inline (the pool is fixed-size, so
/// nesting cannot multiply threads).
fn region_threads() -> usize {
    current_num_threads()
}

/// Apply `f` to every item across `threads` pool lanes, preserving input
/// order in the output (`threads` is further limited by the item count).
///
/// Items are oversplit into contiguous strips ([`STRIP_FACTOR`] per lane)
/// and merged back in strip order, so the result is identical to the
/// sequential map at any width and any steal schedule. Each strip runs
/// under the caller's width cap, whichever thread picks it up.
fn par_map_vec<T, R, F>(items: Vec<T>, threads: usize, f: &F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Contiguous strips, several per lane so stealing can rebalance,
    // merged in strip order.
    let strips = (threads * STRIP_FACTOR).min(n);
    let chunk = n.div_ceil(strips);
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(strips);
    let mut rest = items;
    while rest.len() > chunk {
        let tail = rest.split_off(chunk);
        chunks.push(std::mem::replace(&mut rest, tail));
    }
    chunks.push(rest);

    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::with_capacity(chunks.len()));
    let cap = thread_pool::width_cap();
    {
        let tasks: Vec<pool::Task<'_>> = chunks
            .into_iter()
            .enumerate()
            .map(|(i, c)| {
                let parts = &parts;
                Box::new(move || {
                    let out: Vec<R> = thread_pool::with_cap(cap, || c.into_iter().map(f).collect());
                    parts.lock().unwrap().push((i, out));
                }) as pool::Task<'_>
            })
            .collect();
        pool::run_region(tasks, threads);
    }
    let mut parts = parts.into_inner().unwrap();
    parts.sort_unstable_by_key(|&(i, _)| i);
    let mut out = Vec::with_capacity(n);
    for (_, part) in parts {
        out.extend(part);
    }
    out
}

/// Run two closures, potentially in parallel, and return both results —
/// the shim's version of `rayon::join`. `fa` is submitted to the pool
/// while `fb` runs on the calling thread, which then helps drain the pool
/// until `fa` completes (sequential `fa`-then-`fb` when the width is 1);
/// `fa` runs under the caller's width cap wherever it lands.
///
/// ```
/// let (a, b) = rayon::join(|| (0..100u64).sum::<u64>(), || "right");
/// assert_eq!((a, b), (4950, "right"));
/// ```
pub fn join<A, B, FA, FB>(fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if region_threads() <= 1 {
        let a = fa();
        let b = fb();
        return (a, b);
    }
    let a_slot: Mutex<Option<A>> = Mutex::new(None);
    let cap = thread_pool::width_cap();
    let b = {
        let a_slot = &a_slot;
        let task: pool::Task<'_> = Box::new(move || {
            *a_slot.lock().unwrap() = Some(thread_pool::with_cap(cap, fa));
        });
        let handle = pool::submit_region(vec![task], 2);
        let b = std::panic::catch_unwind(std::panic::AssertUnwindSafe(fb));
        handle.wait(); // propagates fa's panic once the borrow ends
        match b {
            Ok(b) => b,
            Err(payload) => std::panic::resume_unwind(payload),
        }
    };
    (a_slot.into_inner().unwrap().expect("join task ran"), b)
}

// ------------------------------------------------------ parallel iterators

/// The adaptor/terminal surface shared by every parallel iterator here.
///
/// Execution model: terminal operations ([`for_each`](Self::for_each),
/// [`collect`](Self::collect), [`sum`](Self::sum)) materialize the base
/// items and drive the composed per-item closure on the pool; lazy
/// adaptors ([`map`](Self::map)) only compose closures.
///
/// ```
/// use rayon::prelude::*;
/// let doubled: Vec<i32> = vec![1, 2, 3].par_iter().map(|&x| x * 2).collect();
/// assert_eq!(doubled, [2, 4, 6]);
/// ```
pub trait ParallelIterator: Sized {
    /// Item produced by this iterator stage.
    type Item: Send;

    /// Materialize all items in input order, running mapped stages on the
    /// pool.
    fn into_vec(self) -> Vec<Self::Item>;

    /// Run `f` over every item on the pool, collecting results in input
    /// order — the driver behind every terminal operation.
    fn par_apply<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync;

    /// Lazily map each item (executed on the pool by the terminal op).
    ///
    /// ```
    /// use rayon::prelude::*;
    /// let squares: Vec<u64> = (0..4u64).into_par_iter().map(|x| x * x).collect();
    /// assert_eq!(squares, [0, 1, 4, 9]);
    /// ```
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Pair each item with its input-order index.
    ///
    /// ```
    /// use rayon::prelude::*;
    /// let tagged: Vec<(usize, char)> = vec!['a', 'b'].into_par_iter().enumerate().collect();
    /// assert_eq!(tagged, [(0, 'a'), (1, 'b')]);
    /// ```
    fn enumerate(self) -> Enumerate<Self> {
        Enumerate { base: self }
    }

    /// Consume every item in parallel.
    ///
    /// ```
    /// use rayon::prelude::*;
    /// use std::sync::atomic::{AtomicUsize, Ordering};
    /// let count = AtomicUsize::new(0);
    /// (0..8usize).into_par_iter().for_each(|_| {
    ///     count.fetch_add(1, Ordering::SeqCst);
    /// });
    /// assert_eq!(count.into_inner(), 8);
    /// ```
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        self.par_apply(|x| {
            f(x);
        });
    }

    /// Collect into a container, preserving input order.
    ///
    /// ```
    /// use rayon::prelude::*;
    /// let v: Vec<usize> = (0..5usize).into_par_iter().collect();
    /// assert_eq!(v, [0, 1, 2, 3, 4]);
    /// ```
    fn collect<C>(self) -> C
    where
        C: FromParallelIterator<Self::Item>,
    {
        C::from_par_vec(self.into_vec())
    }

    /// Sum the items (reduction itself is sequential; producing the items
    /// is parallel).
    ///
    /// ```
    /// use rayon::prelude::*;
    /// let s: u64 = (1..11u64).into_par_iter().sum();
    /// assert_eq!(s, 55);
    /// ```
    fn sum<S>(self) -> S
    where
        S: std::iter::Sum<Self::Item>,
    {
        self.into_vec().into_iter().sum()
    }
}

/// Containers a parallel iterator can [`collect`](ParallelIterator::collect)
/// into.
///
/// ```
/// use rayon::FromParallelIterator;
/// let v: Vec<u8> = Vec::from_par_vec(vec![1, 2, 3]);
/// assert_eq!(v, [1, 2, 3]);
/// ```
pub trait FromParallelIterator<T> {
    /// Build the container from the already-ordered item vector.
    fn from_par_vec(v: Vec<T>) -> Self;
}

impl<T> FromParallelIterator<T> for Vec<T> {
    fn from_par_vec(v: Vec<T>) -> Self {
        v
    }
}

/// Base parallel iterator over an owned, already-materialized item vector.
/// Every entry point (`par_iter`, `par_chunks_mut`, `into_par_iter`, …)
/// lowers to this.
///
/// ```
/// use rayon::prelude::*;
/// let v = vec![3, 1, 2];
/// let same: Vec<i32> = v.clone().into_par_iter().collect(); // ParVec underneath
/// assert_eq!(same, v);
/// ```
pub struct ParVec<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for ParVec<T> {
    type Item = T;

    fn into_vec(self) -> Vec<T> {
        self.items
    }

    fn par_apply<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        par_map_vec(self.items, region_threads(), &f)
    }
}

/// Lazy mapping stage (see [`ParallelIterator::map`]).
///
/// ```
/// use rayon::prelude::*;
/// let m = vec![1, 2].into_par_iter().map(|x| x + 1); // a Map stage, not yet run
/// assert_eq!(m.into_vec(), [2, 3]);
/// ```
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;

    fn into_vec(self) -> Vec<R> {
        self.base.par_apply(self.f)
    }

    fn par_apply<R2, G>(self, g: G) -> Vec<R2>
    where
        R2: Send,
        G: Fn(R) -> R2 + Sync,
    {
        let f = self.f;
        self.base.par_apply(move |x| g(f(x)))
    }
}

/// Index-pairing stage (see [`ParallelIterator::enumerate`]).
///
/// ```
/// use rayon::prelude::*;
/// let e = vec!["a"].into_par_iter().enumerate();
/// assert_eq!(e.into_vec(), [(0, "a")]);
/// ```
pub struct Enumerate<B> {
    base: B,
}

impl<B> ParallelIterator for Enumerate<B>
where
    B: ParallelIterator,
{
    type Item = (usize, B::Item);

    fn into_vec(self) -> Vec<Self::Item> {
        self.base.into_vec().into_iter().enumerate().collect()
    }

    fn par_apply<R, F>(self, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        // Indices refer to this stage's input order, so attach them after
        // materializing the base (itself parallel for mapped stages).
        let indexed: Vec<(usize, B::Item)> = self.base.into_vec().into_iter().enumerate().collect();
        par_map_vec(indexed, region_threads(), &f)
    }
}

// ----------------------------------------------------------- entry points

/// `par_chunks_mut` on slices (and anything derefing to one).
///
/// ```
/// use rayon::prelude::*;
/// let mut v = [0u8; 4];
/// v.par_chunks_mut(2).enumerate().for_each(|(i, c)| c.fill(i as u8));
/// assert_eq!(v, [0, 0, 1, 1]);
/// ```
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks.
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParVec<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, chunk_size: usize) -> ParVec<&mut [T]> {
        ParVec {
            items: self.chunks_mut(chunk_size).collect(),
        }
    }
}

/// `par_chunks` on slices.
///
/// ```
/// use rayon::prelude::*;
/// let sums: Vec<u32> = [1u32, 2, 3, 4].par_chunks(2).map(|c| c.iter().sum()).collect();
/// assert_eq!(sums, [3, 7]);
/// ```
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over non-overlapping shared chunks.
    fn par_chunks(&self, chunk_size: usize) -> ParVec<&[T]>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, chunk_size: usize) -> ParVec<&[T]> {
        ParVec {
            items: self.chunks(chunk_size).collect(),
        }
    }
}

/// `par_iter` on slices.
///
/// ```
/// use rayon::prelude::*;
/// let doubled: Vec<i64> = [1i64, 2].par_iter().map(|&x| x * 2).collect();
/// assert_eq!(doubled, [2, 4]);
/// ```
pub trait IntoParallelRefIterator<'a, T: 'a> {
    /// Parallel iterator over shared references.
    fn par_iter(&'a self) -> ParVec<&'a T>;
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a, T> for [T] {
    fn par_iter(&'a self) -> ParVec<&'a T> {
        ParVec {
            items: self.iter().collect(),
        }
    }
}

/// `par_iter_mut` on slices.
///
/// ```
/// use rayon::prelude::*;
/// let mut v = vec![1u32, 2];
/// v.par_iter_mut().for_each(|x| *x += 10);
/// assert_eq!(v, [11, 12]);
/// ```
pub trait IntoParallelRefMutIterator<'a, T: 'a> {
    /// Parallel iterator over mutable references.
    fn par_iter_mut(&'a mut self) -> ParVec<&'a mut T>;
}

impl<'a, T: Send + 'a> IntoParallelRefMutIterator<'a, T> for [T] {
    fn par_iter_mut(&'a mut self) -> ParVec<&'a mut T> {
        ParVec {
            items: self.iter_mut().collect(),
        }
    }
}

/// By-value parallel iteration (`Vec`, ranges).
///
/// ```
/// use rayon::prelude::*;
/// let v: Vec<usize> = (0..3usize).into_par_iter().map(|i| i + 1).collect();
/// assert_eq!(v, [1, 2, 3]);
/// ```
pub trait IntoParallelIterator {
    /// Item produced by the iterator.
    type Item: Send;
    /// Consume `self` into a parallel iterator.
    fn into_par_iter(self) -> ParVec<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

impl<T: Send> IntoParallelIterator for Range<T>
where
    Range<T>: Iterator<Item = T>,
{
    type Item = T;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec {
            items: self.collect(),
        }
    }
}

pub mod prelude {
    //! One-stop import of every parallel-iterator trait, mirroring
    //! `rayon::prelude`.
    //!
    //! ```
    //! use rayon::prelude::*;
    //! let v: Vec<u8> = vec![1, 2, 3].into_par_iter().collect();
    //! assert_eq!(v, [1, 2, 3]);
    //! ```
    pub use crate::{
        FromParallelIterator, IntoParallelIterator, IntoParallelRefIterator,
        IntoParallelRefMutIterator, ParallelIterator, ParallelSlice, ParallelSliceMut,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn par_chunks_mut_behaves_like_chunks_mut() {
        let mut v = vec![0u32; 10];
        v.par_chunks_mut(3).enumerate().for_each(|(i, chunk)| {
            for x in chunk {
                *x = i as u32;
            }
        });
        assert_eq!(v, [0, 0, 0, 1, 1, 1, 2, 2, 2, 3]);
    }

    #[test]
    fn map_collect_matches_sequential_order() {
        let input: Vec<u64> = (0..1000).collect();
        let seq: Vec<u64> = input.iter().map(|&x| x * x + 1).collect();
        let par: Vec<u64> = input.par_iter().map(|&x| x * x + 1).collect();
        assert_eq!(par, seq);
        let owned: Vec<u64> = input.into_par_iter().map(|x| x * x + 1).collect();
        assert_eq!(owned, seq);
    }

    #[test]
    fn range_into_par_iter_preserves_order() {
        let par: Vec<usize> = (0..257usize).into_par_iter().map(|i| i * 3).collect();
        let seq: Vec<usize> = (0..257usize).map(|i| i * 3).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn chained_maps_compose() {
        let v: Vec<i64> = (0..100i64).collect();
        let got: Vec<i64> = v.into_par_iter().map(|x| x + 1).map(|x| x * 2).collect();
        let want: Vec<i64> = (0..100i64).map(|x| (x + 1) * 2).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn executor_uses_multiple_threads_when_asked() {
        // Drive the executor directly with a forced width so the test is
        // independent of the host's core count.
        let items: Vec<usize> = (0..256).collect();
        let ids = Mutex::new(HashSet::new());
        let out = par_map_vec(items, 4, &|x| {
            ids.lock().unwrap().insert(std::thread::current().id());
            // Give the steal loop a moment to engage other workers.
            std::thread::sleep(std::time::Duration::from_micros(200));
            x + 1
        });
        assert_eq!(out, (1..=256).collect::<Vec<_>>());
        assert!(
            ids.lock().unwrap().len() > 1,
            "expected >1 worker thread, got {:?}",
            ids.lock().unwrap().len()
        );
    }

    #[test]
    fn pool_workers_persist_across_regions() {
        // Two successive regions at width 4 must reuse the same daemon
        // workers rather than spawning a fresh set per region.
        let _ = par_map_vec((0..64).collect::<Vec<usize>>(), 4, &|x| x);
        let after_first = pool_workers_spawned();
        assert!(after_first >= 1, "width-4 region must spawn pool workers");
        let _ = par_map_vec((0..64).collect::<Vec<usize>>(), 4, &|x| x);
        assert_eq!(
            pool_workers_spawned(),
            after_first,
            "second region must not grow the pool"
        );
    }

    #[test]
    fn sum_matches_sequential() {
        let v: Vec<u64> = (0..500).collect();
        let s: u64 = v.par_iter().map(|&x| x * 2).sum();
        assert_eq!(s, (0..500u64).map(|x| x * 2).sum());
    }

    #[test]
    fn par_iter_mut_updates_in_place() {
        let mut v: Vec<u64> = (0..100).collect();
        v.par_iter_mut().for_each(|x| *x *= 10);
        assert_eq!(v, (0..100u64).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_regions_width_share_the_pool() {
        // A region launched from inside a pool worker fans out on the same
        // persistent pool (width-sharing) instead of running inline — and
        // its merged output stays bit-identical to the inline result.
        let items: Vec<usize> = (0..8).collect();
        let nested_widths: Vec<usize> = par_map_vec(items, 4, &|_| super::region_threads());
        let configured = current_num_threads();
        assert!(
            nested_widths.iter().all(|&w| w == configured),
            "nested regions should width-share at {configured}, got {nested_widths:?}"
        );

        // Inline reference: the exact computation a nested region runs,
        // evaluated sequentially.
        let inline: Vec<Vec<u64>> = (0..6u64)
            .map(|i| (0..40u64).map(|j| (i * 1_000 + j) * 7 + 1).collect())
            .collect();
        let nested: Vec<Vec<u64>> = par_map_vec((0..6u64).collect(), 4, &|i| {
            // Nested region: runs on a pool worker, shares the pool width.
            (0..40u64)
                .collect::<Vec<u64>>()
                .into_par_iter()
                .map(|j| (i * 1_000 + j) * 7 + 1)
                .collect()
        });
        assert_eq!(nested, inline, "width-shared nesting must be bit-identical");
    }

    #[test]
    fn deeply_nested_regions_terminate_and_preserve_order() {
        // Three levels of nesting all funnel into one fixed pool; the
        // help-while-waiting protocol must drain them without deadlock.
        let out: Vec<u64> = par_map_vec((0..4u64).collect(), 4, &|a| {
            let inner: Vec<u64> = par_map_vec((0..4u64).collect(), 4, &|b| {
                par_map_vec((0..4u64).collect(), 4, &|c| a * 100 + b * 10 + c)
                    .into_iter()
                    .sum()
            });
            inner.into_iter().sum()
        });
        let want: Vec<u64> = (0..4u64)
            .map(|a| {
                (0..4u64)
                    .map(|b| (0..4u64).map(|c| a * 100 + b * 10 + c).sum::<u64>())
                    .sum()
            })
            .collect();
        assert_eq!(out, want);
    }

    #[test]
    fn join_returns_both_results() {
        let (a, b) = crate::join(|| (0..100u64).sum::<u64>(), || "right".to_string());
        assert_eq!(a, 4950);
        assert_eq!(b, "right");
    }

    #[test]
    fn worker_panic_propagates() {
        let items: Vec<usize> = (0..16).collect();
        let r = std::panic::catch_unwind(|| {
            par_map_vec(items, 4, &|x| {
                if x == 7 {
                    panic!("boom at {x}");
                }
                x
            })
        });
        assert!(r.is_err());
    }

    fn device(k: usize) -> ThreadPool {
        ThreadPoolBuilder::new().num_threads(k).build().unwrap()
    }

    #[test]
    fn install_one_runs_every_item_on_the_calling_thread() {
        let me = std::thread::current().id();
        let ids = Mutex::new(HashSet::new());
        let record = || {
            ids.lock().unwrap().insert(std::thread::current().id());
        };
        device(1).install(|| {
            let items: Vec<u64> = (0..256).collect();
            items.par_iter().for_each(|_| record());
            let mut buf = vec![0u8; 256];
            buf.par_chunks_mut(7).for_each(|_| record());
            crate::join(record, record);
        });
        assert_eq!(*ids.lock().unwrap(), HashSet::from([me]));
    }

    #[test]
    fn install_reports_and_nests_its_cap() {
        let outside = current_num_threads();
        let (two, one, back) = device(2).install(|| {
            let one = device(1).install(current_num_threads);
            (current_num_threads(), one, current_num_threads())
        });
        assert_eq!(
            (two, one, back),
            (2, 1, 2),
            "nested installs take the inner cap"
        );
        assert_eq!(current_num_threads(), outside, "cap restored on return");
        // Strips handed to pool workers carry the cap into nested regions.
        let nested: Vec<usize> = device(3)
            .install(|| par_map_vec((0..16usize).collect(), 3, &|_| super::region_threads()));
        assert!(nested.iter().all(|&w| w == 3), "got {nested:?}");
    }

    #[test]
    fn install_restores_the_cap_after_a_panic() {
        let outside = current_num_threads();
        let r = std::panic::catch_unwind(|| {
            device(1).install(|| {
                assert_eq!(current_num_threads(), 1);
                panic!("inside install");
            })
        });
        assert!(r.is_err());
        assert_eq!(current_num_threads(), outside);
        assert_eq!(device(2).install(current_num_threads), 2);
    }

    #[test]
    fn capped_results_are_bit_equal_to_uncapped() {
        let input: Vec<f32> = (0..4096).map(|i| (i as f32 * 0.37).sin()).collect();
        let run = || {
            let mapped: Vec<f32> = input.par_iter().map(|&x| x * 1.5 - 0.25).collect();
            let sums: Vec<f32> = input.par_chunks(97).map(|c| c.iter().sum()).collect();
            let mut scaled = input.clone();
            scaled
                .par_chunks_mut(61)
                .for_each(|c| c.iter_mut().for_each(|x| *x *= 3.0));
            let (a, b) = crate::join(|| mapped.iter().sum::<f32>(), || sums.iter().sum::<f32>());
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            (
                bits(&mapped),
                bits(&sums),
                bits(&scaled),
                a.to_bits(),
                b.to_bits(),
            )
        };
        let uncapped = run();
        for k in [1, 2, 4] {
            assert_eq!(device(k).install(run), uncapped, "width {k} changed bits");
        }
    }

    #[test]
    fn join_panic_in_either_arm_propagates() {
        let left = std::panic::catch_unwind(|| {
            crate::join(|| panic!("left"), || 1);
        });
        assert!(left.is_err());
        let right = std::panic::catch_unwind(|| {
            crate::join(|| 1, || panic!("right"));
        });
        assert!(right.is_err());
    }
}
