//! Per-layer clocks and counts of a traced phase. Each field is filled from
//! timers and counters around one public call of the program, never from
//! inside it.

use std::time::Instant;

/// Times one call, returning its result and its duration in ns.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_nanos() as u64)
}

/// Everything a traced phase attributes to layers.
#[derive(Debug, Default)]
pub struct Layers {
    /// Σ wall time of the traced serve steps (ticks or serve calls), ns.
    pub wall_ns: u128,

    /// Frames ingested by the runtime loop.
    pub runtime_frames: usize,
    /// Scoring dispatches.
    pub runtime_dispatches: usize,

    /// `ContinuousAdapter::ingest_frame` durations, ns.
    pub embed_ns: Vec<u64>,

    /// Σ `Engine::score_windows_batch_refs` time, ns.
    pub score_ns: u128,
    /// Windows scored.
    pub score_windows: usize,

    /// Σ `complete_frame` / `complete_frame_skip_adapt` time, ns.
    pub adapt_ns: u128,
    /// `complete_frame` calls that ran the adaptation check.
    pub adapt_checks: usize,
    /// Token updates appended by those calls.
    pub adapt_token_updates: usize,
    /// Node replacements appended by those calls.
    pub adapt_replacements: usize,
    /// Durations of `complete_frame` calls that appended a token update, ns.
    pub adapt_update_ns: Vec<u64>,
    /// Per episode, Σ over streams of `Session::state_bytes` growth.
    pub overlay_growth: Vec<usize>,

    /// Σ tier `serve_frame` time, ns.
    pub tier_ns: u128,
    /// Serve calls that found the session resident.
    pub tier_hit_ns: Vec<u64>,
    /// Serve calls that cold-started or rehydrated the session.
    pub tier_miss_ns: Vec<u64>,
    /// Of the misses, those that cold-started.
    pub tier_cold_starts: usize,
    /// Residents evicted.
    pub tier_evictions: usize,
    /// Rehydrations that failed.
    pub tier_rehydration_failures: usize,
    /// Mean spooled checkpoint size over the sessions sampled at the end.
    pub tier_checkpoint_bytes_mean: f64,
}
