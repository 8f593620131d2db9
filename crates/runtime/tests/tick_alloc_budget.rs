//! The tick body's allocation budget: in the steady state, a `static` tick of
//! `MultiStreamRuntime::tick_frames` over 16 streams — ingest validation,
//! frame embedding, the rolling buffer, scoring and completion — spends at
//! most [`ALLOC_BUDGET_PER_FRAME`] heap allocations per served frame, under
//! both compute backends.
//!
//! A counting `#[global_allocator]` sees every allocation in the process,
//! so this file holds exactly one `#[test]`: no other test thread of the
//! harness can allocate inside the measured region.

use akg_core::adapt::AdaptConfig;
use akg_core::engine::Engine;
use akg_core::pipeline::SystemConfig;
use akg_data::{AdaptationStream, DatasetConfig, Frame, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_runtime::{IdleSource, MultiStreamRuntime, RuntimeConfig, StreamPlan};
use akg_tensor::backend::Backend;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Counts every `alloc`/`alloc_zeroed`/`realloc` and delegates to the
/// system allocator.
struct CountingAllocator;

static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation verbatim to `System`; the counter
// update has no safety implications.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_COUNT.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAllocator = CountingAllocator;

/// Allocations per served frame of a steady-state `static` tick.
/// Each frame's ontology, normal-activity and generic concepts embed from
/// the space's concept table without allocating; its per-video scene
/// background is off the table, and `embed_text` of it allocates twice
/// (the mean vector and the word's hash-noise vector). Every rolling
/// buffer is full, so ingest embeds into the row it evicts. The rest is a
/// few per-tick and per-dispatch vectors, half an allocation per frame at
/// 16 streams. The budget is the measured 2.500 under both backends,
/// rounded up by 0.01.
const ALLOC_BUDGET_PER_FRAME: f64 = 2.51;

/// Streams served per tick: one full runtime batch.
const STREAMS: usize = 16;

/// Ticks before measuring: past `AdaptConfig::default().n_window` (64), so
/// every rolling buffer is full and every workspace shape has been seen.
const WARM_TICKS: usize = 72;

/// Measured ticks per backend.
const TICKS: usize = 24;

/// Allocations per served frame over [`TICKS`] warm `static` ticks, with the
/// engine built under `b` (`Engine::build` applies its backend
/// process-wide).
fn allocs_per_frame(b: Backend) -> f64 {
    let config = SystemConfig { backend: b, ..SystemConfig::default() };
    assert!(WARM_TICKS > AdaptConfig::default().n_window, "warm-up must fill the rolling buffers");
    let engine = Engine::build(&[AnomalyClass::Stealing], &config);
    let mut rt = MultiStreamRuntime::new(engine, RuntimeConfig::default());
    for s in 0..STREAMS {
        rt.add_stream(IdleSource, s as u64, AdaptConfig::default());
    }
    let ds = SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.01).with_classes(&[AnomalyClass::Stealing]).with_seed(3),
    );
    let mut feeds: Vec<AdaptationStream<'_>> = (0..STREAMS)
        .map(|s| AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 40 + s as u64))
        .collect();
    // Every tick's frames are drawn before the measured region.
    let ticks: Vec<Vec<Frame>> = (0..WARM_TICKS + TICKS)
        .map(|_| feeds.iter_mut().map(|feed| feed.next_frame().0).collect())
        .collect();
    let plans = vec![StreamPlan { ingest: 1, score: true, adapt: false }; STREAMS];
    for frames in &ticks[..WARM_TICKS] {
        black_box(rt.tick_frames(frames, &plans));
    }
    let before = ALLOC_COUNT.load(Relaxed);
    for frames in &ticks[WARM_TICKS..] {
        let scores = rt.tick_frames(frames, &plans);
        black_box(scores.first().copied());
    }
    let after = ALLOC_COUNT.load(Relaxed);
    assert_eq!(rt.counters().frames, STREAMS * (WARM_TICKS + TICKS));
    (after - before) as f64 / (STREAMS * TICKS) as f64
}

#[test]
fn warm_static_tick_stays_within_alloc_budget() {
    for b in [Backend::Scalar, Backend::Simd] {
        let per_frame = allocs_per_frame(b);
        println!("{b:?}: {per_frame:.3} allocs/frame");
        assert!(
            per_frame <= ALLOC_BUDGET_PER_FRAME,
            "{b:?}: the tick body spends {per_frame:.3} allocs/frame, budget is \
             {ALLOC_BUDGET_PER_FRAME:.2}"
        );
    }
}
