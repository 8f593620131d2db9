//! A minimal scoped-thread worker pool and the [`Parallelism`] configuration
//! that controls it.
//!
//! The build environment has no crates.io access (no `rayon`), so this module
//! hand-rolls the one parallel primitive the kernels need: split a mutable
//! output buffer into contiguous per-thread chunks of whole rows and fill
//! each chunk on its own [`std::thread::scope`] thread
//! ([`for_each_row_chunk`]).
//!
//! ## Determinism
//!
//! Every parallel kernel in this crate partitions its *output*: each output
//! row is computed start-to-finish by exactly one thread, with the same
//! arithmetic in the same order regardless of which thread runs it, and no
//! cross-thread reductions exist. Results are therefore bit-for-bit identical
//! across runs — and even across *different* thread counts — which keeps
//! seeded experiments reproducible on any machine.
//!
//! ## Configuration
//!
//! The effective worker count is a process-wide setting
//! ([`set_parallelism`]) because tensors are `Rc`-based (not `Send`):
//! parallelism lives entirely inside raw `f32` kernels, beneath the autograd
//! graph, so a single knob governs every op. `akg-core`'s `SystemConfig`
//! plumbs its `parallelism` field here when a system is built.
//!
//! ## Nested parallelism (the shards × threads rule)
//!
//! A serving layer that shards work across its *own* worker threads (the
//! sharded runtime in `akg-runtime`) nests two levels of parallelism: `S`
//! shard workers, each issuing kernel calls that would *each* resolve the
//! process-wide setting and spawn up to that many inner row-pool threads —
//! `S × effective_threads()` runnable threads on hardware that has only
//! `effective_threads()` cores. [`set_thread_cap`] is the per-thread brake:
//! a shard worker caps its own kernels at `max(1, effective/S)` so the
//! product `shards × inner-threads` never exceeds the machine, while
//! unrelated threads (training on the main thread, other shards) keep their
//! own caps. The cap is thread-local, composes with the global setting by
//! `min`, and never affects numerics (results are bit-identical at any
//! thread count).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// How many worker threads the raw kernels may use.
///
/// # Examples
///
/// ```
/// use akg_tensor::par::{set_parallelism, effective_threads, Parallelism};
///
/// set_parallelism(Parallelism::Sequential);
/// assert_eq!(effective_threads(), 1);
///
/// set_parallelism(Parallelism::Threads(3));
/// assert_eq!(effective_threads(), 3);
///
/// // `Auto` resolves to the machine's available parallelism (>= 1).
/// set_parallelism(Parallelism::Auto);
/// assert!(effective_threads() >= 1);
/// # set_parallelism(Parallelism::Auto); // leave the default behind
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Single-threaded: kernels run inline on the calling thread.
    Sequential,
    /// Use [`std::thread::available_parallelism`] (the default).
    Auto,
    /// Use exactly this many threads (clamped to at least 1).
    Threads(usize),
}

/// Sentinel meaning "resolve via `available_parallelism` at call time".
const AUTO: usize = 0;

static THREADS: AtomicUsize = AtomicUsize::new(AUTO);

/// Sets the process-wide parallelism policy for all raw kernels.
pub fn set_parallelism(p: Parallelism) {
    let v = match p {
        Parallelism::Sequential => 1,
        Parallelism::Auto => AUTO,
        Parallelism::Threads(n) => n.max(1),
    };
    THREADS.store(v, Ordering::Relaxed);
}

thread_local! {
    /// Per-thread ceiling on kernel workers; `usize::MAX` = uncapped.
    static THREAD_CAP: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Caps the number of kernel worker threads **on the calling thread only**
/// (clamped to at least 1). The effective count becomes
/// `min(process-wide setting, cap)`; other threads are unaffected.
///
/// This is how a sharding layer avoids oversubscription: with `S` shard
/// workers on a machine whose global setting resolves to `T` threads, each
/// worker sets its cap to `max(1, T / S)` so the nested product
/// `shards × inner-threads` stays ≤ `T` (see the module docs). Pass
/// `usize::MAX` to lift the cap.
///
/// # Examples
///
/// ```
/// use akg_tensor::par::{effective_threads, set_parallelism, set_thread_cap, Parallelism};
///
/// set_parallelism(Parallelism::Threads(8));
/// set_thread_cap(2);
/// assert_eq!(effective_threads(), 2); // capped on this thread
/// set_thread_cap(usize::MAX);
/// assert_eq!(effective_threads(), 8); // cap lifted
/// # set_parallelism(Parallelism::Auto);
/// ```
pub fn set_thread_cap(cap: usize) {
    THREAD_CAP.with(|c| c.set(cap.max(1)));
}

/// The calling thread's kernel-worker cap (`usize::MAX` when uncapped). See
/// [`set_thread_cap`].
pub fn thread_cap() -> usize {
    THREAD_CAP.with(Cell::get)
}

/// The number of worker threads kernels will currently use on the calling
/// thread (>= 1): the process-wide policy, clamped by the thread-local
/// [`set_thread_cap`].
///
/// The `Auto` resolution is detected once and cached: every raw kernel call
/// consults this function, and `std::thread::available_parallelism` probes
/// the OS (and allocates) on each call — which used to put one allocation
/// under *every* chunked kernel invocation, breaking the inference data
/// plane's zero-steady-state-allocation property under the default policy.
pub fn effective_threads() -> usize {
    let global = match THREADS.load(Ordering::Relaxed) {
        AUTO => {
            static DETECTED: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
            *DETECTED
                .get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
        }
        n => n,
    };
    global.min(THREAD_CAP.with(Cell::get)).max(1)
}

/// Minimum work per worker thread, in multiply-adds: below this, the scoped
/// thread spawn (10–20 µs) costs about as much as the arithmetic it
/// parallelizes. A kernel with `rows` output rows of `work_per_row`
/// multiply-adds each runs on at most `rows · work_per_row /
/// MIN_WORK_PER_THREAD` threads, so a `[1008, 32]` output with a dot length
/// of 8 (258k multiply-adds) stays on one thread while a 256³ matmul
/// splits.
pub const MIN_WORK_PER_THREAD: usize = 1 << 18;

/// Splits `out` into contiguous chunks of whole rows (`row_len` elements
/// each) and calls `fill(first_row, chunk)` for every chunk, using up to
/// [`effective_threads`] scoped threads. `fill` must compute each row of its
/// chunk independently of the others; chunks never overlap, so no
/// synchronization is needed and results are deterministic.
///
/// `work_per_row` is the cost of one row in multiply-adds (or an estimate
/// in the same unit). Falls back to a single inline call when one thread is
/// configured or the call's total work does not give every thread
/// [`MIN_WORK_PER_THREAD`].
///
/// # Panics
///
/// Panics if `out.len()` is not `rows * row_len`.
///
/// # Examples
///
/// ```
/// use akg_tensor::par::for_each_row_chunk;
///
/// let mut out = vec![0.0f32; 6];
/// // rows of length 2; row r becomes [r, r]
/// for_each_row_chunk(&mut out, 3, 2, 0, |first_row, chunk| {
///     for (i, row) in chunk.chunks_mut(2).enumerate() {
///         row.fill((first_row + i) as f32);
///     }
/// });
/// assert_eq!(out, vec![0.0, 0.0, 1.0, 1.0, 2.0, 2.0]);
/// ```
pub fn for_each_row_chunk<F>(
    out: &mut [f32],
    rows: usize,
    row_len: usize,
    work_per_row: usize,
    fill: F,
) where
    F: Fn(usize, &mut [f32]) + Sync,
{
    assert_eq!(out.len(), rows * row_len, "for_each_row_chunk: buffer is not rows * row_len");
    let threads = effective_threads().min(rows * work_per_row / MIN_WORK_PER_THREAD).max(1);
    if threads == 1 || rows == 0 {
        fill(0, out);
        return;
    }
    // Ceil-divide rows over threads so chunk boundaries are deterministic.
    let rows_per_chunk = rows.div_ceil(threads);
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut first_row = 0;
        let mut handles = Vec::new();
        while first_row < rows {
            let take = rows_per_chunk.min(rows - first_row);
            let (chunk, tail) = rest.split_at_mut(take * row_len);
            rest = tail;
            let row0 = first_row;
            first_row += take;
            if first_row < rows {
                handles.push(scope.spawn({
                    let fill = &fill;
                    move || fill(row0, chunk)
                }));
            } else {
                // Run the last chunk on the calling thread.
                fill(row0, chunk);
            }
        }
        for h in handles {
            h.join().expect("kernel worker thread panicked");
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that mutate the process-wide parallelism setting (or
    /// assert values derived from it) — the in-crate analogue of the
    /// `BACKEND_LOCK` discipline.
    fn par_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// How many `fill` calls (chunks) one `for_each_row_chunk` call makes.
    fn chunk_count(rows: usize, row_len: usize, work_per_row: usize) -> usize {
        let calls = AtomicUsize::new(0);
        let mut out = vec![0.0f32; rows * row_len];
        for_each_row_chunk(&mut out, rows, row_len, work_per_row, |_, _| {
            calls.fetch_add(1, Ordering::Relaxed);
        });
        calls.into_inner()
    }

    #[test]
    fn sequential_runs_inline() {
        let _guard = par_lock();
        set_parallelism(Parallelism::Sequential);
        let mut out = vec![0.0f32; 8];
        for_each_row_chunk(&mut out, 4, 2, 0, |first, chunk| {
            for (i, row) in chunk.chunks_mut(2).enumerate() {
                row.fill((first + i) as f32 + 1.0);
            }
        });
        assert_eq!(out, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0]);
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    fn more_threads_than_rows_is_fine() {
        let _guard = par_lock();
        set_parallelism(Parallelism::Threads(16));
        let mut out = vec![0.0f32; 3];
        for_each_row_chunk(&mut out, 3, 1, MIN_WORK_PER_THREAD, |first, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = (first + i) as f32;
            }
        });
        assert_eq!(out, vec![0.0, 1.0, 2.0]);
        assert_eq!(chunk_count(3, 1, MIN_WORK_PER_THREAD), 3, "expected one chunk per row");
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    fn results_independent_of_thread_count() {
        let _guard = par_lock();
        let run = |threads: usize| {
            set_parallelism(Parallelism::Threads(threads));
            let mut out = vec![0.0f32; 64 * 3];
            for_each_row_chunk(&mut out, 64, 3, MIN_WORK_PER_THREAD, |first, chunk| {
                for (i, row) in chunk.chunks_mut(3).enumerate() {
                    let r = (first + i) as f32;
                    row.copy_from_slice(&[r, r * 0.5, r * r]);
                }
            });
            out
        };
        let one = run(1);
        for t in [2, 3, 5, 8] {
            assert_eq!(one, run(t), "thread count {t} changed the result");
        }
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    fn small_total_work_runs_inline() {
        let _guard = par_lock();
        set_parallelism(Parallelism::Threads(8));
        // 4 rows holding one thread's work in total -> 1 chunk; twice that -> 2.
        let mut out = vec![0.0f32; 4];
        for_each_row_chunk(&mut out, 4, 1, MIN_WORK_PER_THREAD / 4, |first, chunk| {
            assert_eq!((first, chunk.len()), (0, 4), "the call was split");
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = i as f32;
            }
        });
        assert_eq!(out, vec![0.0, 1.0, 2.0, 3.0]);
        assert_eq!(chunk_count(4, 1, MIN_WORK_PER_THREAD / 2), 2);
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    fn split_is_gated_on_work_per_thread() {
        let _guard = par_lock();
        set_parallelism(Parallelism::Threads(2));
        // `matmul_nt` at 1008×8×32: many rows, but 8·32 multiply-adds each.
        assert_eq!(chunk_count(1008, 32, 8 * 32), 1, "a short-dot call was split");
        // A 256³ matmul: 256·256 multiply-adds per row.
        assert_eq!(chunk_count(256, 256, 256 * 256), 2, "a 256³ matmul ran on one thread");
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    #[should_panic(expected = "rows * row_len")]
    fn rejects_bad_buffer_size() {
        for_each_row_chunk(&mut [0.0f32; 5], 2, 3, 0, |_, _| {});
    }

    #[test]
    fn thread_cap_clamps_the_global_setting() {
        let _guard = par_lock();
        set_parallelism(Parallelism::Threads(8));
        assert_eq!(effective_threads(), 8);
        set_thread_cap(2);
        assert_eq!(effective_threads(), 2);
        // a cap above the global setting does not raise it
        set_thread_cap(64);
        assert_eq!(effective_threads(), 8);
        // zero clamps to one, never zero
        set_thread_cap(0);
        assert_eq!(thread_cap(), 1);
        assert_eq!(effective_threads(), 1);
        set_thread_cap(usize::MAX);
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    fn thread_cap_is_thread_local() {
        let _guard = par_lock();
        set_parallelism(Parallelism::Threads(6));
        set_thread_cap(usize::MAX);
        // a capped spawned thread (a "shard worker") must not affect this one
        let inner = std::thread::spawn(|| {
            set_thread_cap(1);
            effective_threads()
        })
        .join()
        .expect("worker");
        assert_eq!(inner, 1);
        assert_eq!(effective_threads(), 6, "worker's cap leaked to the spawning thread");
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    fn capped_thread_still_computes_correctly() {
        let _guard = par_lock();
        set_parallelism(Parallelism::Threads(8));
        let out = std::thread::spawn(|| {
            set_thread_cap(2);
            let mut out = vec![0.0f32; 64 * 3];
            for_each_row_chunk(&mut out, 64, 3, MIN_WORK_PER_THREAD, |first, chunk| {
                for (i, row) in chunk.chunks_mut(3).enumerate() {
                    let r = (first + i) as f32;
                    row.copy_from_slice(&[r, r * 0.5, r * r]);
                }
            });
            out
        })
        .join()
        .expect("worker");
        set_parallelism(Parallelism::Sequential);
        let mut expect = vec![0.0f32; 64 * 3];
        for_each_row_chunk(&mut expect, 64, 3, MIN_WORK_PER_THREAD, |first, chunk| {
            for (i, row) in chunk.chunks_mut(3).enumerate() {
                let r = (first + i) as f32;
                row.copy_from_slice(&[r, r * 0.5, r * r]);
            }
        });
        assert_eq!(out, expect, "thread cap changed results");
        set_parallelism(Parallelism::Auto);
    }
}
