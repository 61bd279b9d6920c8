//! The real crate's `ThreadPoolBuilder` / `ThreadPool::install` surface,
//! mapped onto a per-thread cap on region width.
//!
//! Real rayon builds a private pool of `k` threads and runs `install`'s
//! closure on one of them. The shim keeps one process-global pool, so
//! `install` instead runs the closure **on the calling thread** with a
//! thread-local cap of `k` on region width: every parallel region (and
//! `join`) started inside it is sized to `k` lanes,
//! [`current_num_threads`](crate::current_num_threads) reports `k`, and at
//! `k = 1` the regions run inline and never touch the pool. Strips a
//! capped region hands to pool workers carry the cap with them, so nested
//! regions inside those strips are capped too. Call sites therefore
//! compile unchanged against real rayon, where the same code gets a
//! dedicated pool of `k` threads instead. Building a pool is free here but
//! spawns `k` threads under the real crate, so callers build one per width
//! and reuse it.
//!
//! ```
//! let device = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
//! let (lanes, caller) = device.install(|| {
//!     (rayon::current_num_threads(), std::thread::current().id())
//! });
//! assert_eq!(lanes, 1);
//! assert_eq!(caller, std::thread::current().id()); // ran on this thread
//! ```

use std::cell::Cell;
use std::fmt;

thread_local! {
    /// Region-width cap installed on this thread; `0` means uncapped.
    static WIDTH_CAP: Cell<usize> = const { Cell::new(0) };
}

/// The cap in force on this thread (`0` = uncapped).
pub(crate) fn width_cap() -> usize {
    WIDTH_CAP.with(Cell::get)
}

/// Run `f` with this thread's cap set to `cap`, restoring the previous
/// cap on return and on unwind.
pub(crate) fn with_cap<R>(cap: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            WIDTH_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(WIDTH_CAP.with(|c| c.replace(cap)));
    f()
}

/// Configures a [`ThreadPool`], like `rayon::ThreadPoolBuilder`.
///
/// ```
/// let pool = rayon::ThreadPoolBuilder::new().num_threads(3).build().unwrap();
/// assert_eq!(pool.install(rayon::current_num_threads), 3);
/// ```
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder whose pool leaves the width uncapped until
    /// [`num_threads`](Self::num_threads) sets it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Lanes the pool runs regions at; `0` (the default) leaves them at
    /// the process-global width.
    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    /// Build the pool. The shim spawns nothing here, so it never fails;
    /// the `Result` keeps call sites portable to the real crate.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        Ok(ThreadPool {
            num_threads: self.num_threads,
        })
    }
}

/// A width-`k` compute device, like `rayon::ThreadPool`; see the module
/// docs for how the shim's [`install`](Self::install) differs from the
/// real crate's.
#[derive(Debug)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// Run `op` on the calling thread with every parallel region inside
    /// it capped at this pool's width; nested installs take the inner
    /// width. The previous cap is restored on return and on unwind.
    ///
    /// ```
    /// use rayon::prelude::*;
    /// let two = rayon::ThreadPoolBuilder::new().num_threads(2).build().unwrap();
    /// let one = rayon::ThreadPoolBuilder::new().num_threads(1).build().unwrap();
    /// let widths = two.install(|| {
    ///     let inner = one.install(rayon::current_num_threads);
    ///     (rayon::current_num_threads(), inner)
    /// });
    /// assert_eq!(widths, (2, 1));
    /// let v: Vec<u32> = one.install(|| (0..4u32).into_par_iter().map(|x| x * 2).collect());
    /// assert_eq!(v, [0, 2, 4, 6]);
    /// ```
    pub fn install<OP, R>(&self, op: OP) -> R
    where
        OP: FnOnce() -> R + Send,
        R: Send,
    {
        with_cap(self.num_threads, op)
    }
}

/// Error type of [`ThreadPoolBuilder::build`] (never produced by the
/// shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("failed to build the thread pool")
    }
}

impl std::error::Error for ThreadPoolBuildError {}
