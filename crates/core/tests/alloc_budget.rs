//! The serving allocation budget: once its workspace is warm, the batched
//! inference data plane (`Engine::score_windows_batch_refs`) spends at most
//! [`ALLOC_BUDGET_PER_FRAME`] heap allocations per scored frame, under both
//! compute backends.
//!
//! A counting `#[global_allocator]` sees every allocation in the process,
//! so this file holds exactly one `#[test]`: no other test thread of the
//! harness can allocate inside the measured region.

use akg_core::engine::{Engine, Session};
use akg_core::pipeline::SystemConfig;
use akg_kg::AnomalyClass;
use akg_tensor::backend::Backend;
use akg_tensor::Workspace;
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

/// Steady-state allocations per scored frame on the batched inference data
/// plane. The plane itself allocates nothing once the workspace is warm;
/// the budget admits the per-dispatch batch assembly (two allocations per
/// batch, 0.125 per frame at 16 sessions) but not one allocation per
/// scored window.
const ALLOC_BUDGET_PER_FRAME: f64 = 1.0;

/// Overlay sessions scored per dispatch: one full runtime batch.
const STREAMS: usize = 16;

/// Measured dispatches per backend.
const ITERS: usize = 25;

/// Allocations per scored frame over [`ITERS`] warm dispatches of one
/// 16-session batch, with the engine built under `b` (`Engine::build`
/// applies its backend process-wide).
fn allocs_per_frame(b: Backend) -> f64 {
    let config = SystemConfig { backend: b, ..SystemConfig::default() };
    let engine = Engine::build(&[AnomalyClass::Stealing], &config);
    let window_len = engine.model.config().window;
    let dim = engine.model.config().embed_dim;
    let sessions: Vec<Session> = (0..STREAMS).map(|s| engine.new_session(s as u64)).collect();
    // Fixed pre-built windows: the measurement isolates the scoring plane
    // from frame ingest, which allocates one embedding per frame.
    let frames: Vec<Vec<f32>> = (0..STREAMS * window_len)
        .map(|i| (0..dim).map(|c| ((i * 31 + c * 7) % 17) as f32 * 0.04 - 0.3).collect())
        .collect();
    let windows: Vec<Vec<&[f32]>> = (0..STREAMS)
        .map(|s| (0..window_len).map(|t| frames[s * window_len + t].as_slice()).collect())
        .collect();
    let batch: Vec<(&Session, &[&[f32]])> =
        sessions.iter().zip(&windows).map(|(s, w)| (s, w.as_slice())).collect();
    let mut ws = Workspace::new();
    let mut scores = Vec::new();
    // The first dispatch allocates every workspace shape once.
    for _ in 0..3 {
        engine.score_windows_batch_refs(&batch, &mut ws, &mut scores);
    }
    let before = ALLOC_COUNT.load(Relaxed);
    for _ in 0..ITERS {
        engine.score_windows_batch_refs(&batch, &mut ws, &mut scores);
        black_box(scores.first().copied());
    }
    let after = ALLOC_COUNT.load(Relaxed);
    assert_eq!(scores.len(), STREAMS);
    (after - before) as f64 / (STREAMS * ITERS) as f64
}

#[test]
fn warm_batched_scoring_stays_within_alloc_budget() {
    for b in [Backend::Scalar, Backend::Simd] {
        let per_frame = allocs_per_frame(b);
        println!("{b:?}: {per_frame:.3} allocs/frame");
        assert!(
            per_frame <= ALLOC_BUDGET_PER_FRAME,
            "{b:?}: scoring plane spends {per_frame:.3} allocs/frame, budget is \
             {ALLOC_BUDGET_PER_FRAME:.1}"
        );
    }
}
