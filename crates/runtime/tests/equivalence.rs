//! The batching analogue of the tensor crate's thread-count determinism
//! property: serving `N` streams through the batched multi-stream runtime
//! must produce **bit-identical** per-stream score sequences — and identical
//! final adaptive state — to running each stream alone through a standalone
//! overlay session (`Engine::new_session` + `ContinuousAdapter::observe`),
//! at batch sizes B ∈ {1, 4, 16}.
//!
//! The streams carry a mid-run trend shift so the continuous-adaptation
//! loop actually fires (token updates, possibly restructures) during the
//! comparison — per-stream isolation is load-bearing, not vacuous.
//!
//! The sharded legs extend the same chain one layer up: `ShardedRuntime` at
//! shard counts {1, 2, 4} must be bit-identical per stream — scores, final
//! adapted token tables, replacement counts — to the single-threaded
//! `MultiStreamRuntime` (itself proven ≡ the standalone path above), under both
//! forced-Scalar and forced-SIMD backends, across the same mid-run trend
//! shift, with the pipelined `run()` path exercised.

use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
use akg_core::engine::Engine;
use akg_core::pipeline::SystemConfig;
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_runtime::{EngineSpec, MultiStreamRuntime, RuntimeConfig, ShardedConfig, ShardedRuntime};
use akg_tensor::{Backend, Precision};
use std::sync::{Arc, Mutex, MutexGuard};

const FRAMES_PER_STREAM: usize = 48;
const SHIFT_AT: usize = 24;

/// `Engine::build` applies its config's backend process-wide, and the
/// suite now runs under both `Auto` and forced-`Scalar` — serialize the
/// tests so a concurrent build can never flip the backend mid-comparison
/// (the `BACKEND_LOCK` discipline of `tensor/tests/proptest_kernels.rs`).
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock_backend() -> MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn dataset() -> Arc<SyntheticUcfCrime> {
    Arc::new(SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
            .with_seed(77),
    ))
}

fn adapt_cfg(stream: usize) -> AdaptConfig {
    AdaptConfig {
        n_window: 16,
        interval: 8,
        min_k: 1,
        max_k: 4,
        seed: stream as u64,
        ..AdaptConfig::default()
    }
}

fn system_cfg(backend: Backend, precision: Precision) -> SystemConfig {
    SystemConfig { seed: 5, backend, precision, ..SystemConfig::default() }
}

fn frame_seed(stream: usize) -> u64 {
    0xBEEF ^ (stream as u64 * 101)
}

fn stream_seed(stream: usize) -> u64 {
    1000 + stream as u64
}

/// The oracle: one standalone overlay session per stream, seeded as the
/// runtime seeds it, frames observed one at a time.
fn run_standalone(
    ds: &Arc<SyntheticUcfCrime>,
    stream: usize,
    backend: Backend,
    precision: Precision,
) -> (Vec<f32>, Vec<f32>, usize) {
    let engine = Engine::build(&[AnomalyClass::Stealing], &system_cfg(backend, precision));
    let mut session = engine.new_session(frame_seed(stream));
    let mut adapter = ContinuousAdapter::attach(&engine, &mut session, adapt_cfg(stream));
    let mut source =
        AdaptationStream::new(ds.as_ref(), AnomalyClass::Stealing, 0.5, stream_seed(stream));
    let mut scores = Vec::with_capacity(FRAMES_PER_STREAM);
    for i in 0..FRAMES_PER_STREAM {
        if i == SHIFT_AT {
            source.shift_to(AnomalyClass::Robbery);
        }
        let (frame, _) = source.next_frame();
        scores.push(adapter.observe(&engine, &mut session, &frame));
    }
    (scores, session.table.to_dense_vec(), adapter.replacements())
}

struct RuntimeOutcome {
    scores: Vec<Vec<Option<f32>>>,
    tables: Vec<Vec<f32>>,
    replacements: Vec<usize>,
}

fn run_runtime(
    ds: &Arc<SyntheticUcfCrime>,
    n_streams: usize,
    max_batch: usize,
    backend: Backend,
    precision: Precision,
) -> RuntimeOutcome {
    let engine = Engine::build(&[AnomalyClass::Stealing], &system_cfg(backend, precision));
    let mut rt = MultiStreamRuntime::new(engine, RuntimeConfig { max_batch });
    for s in 0..n_streams {
        let source =
            AdaptationStream::owned(Arc::clone(ds), AnomalyClass::Stealing, 0.5, stream_seed(s));
        rt.add_stream(source, frame_seed(s), adapt_cfg(s));
    }
    let mut scores = vec![Vec::with_capacity(FRAMES_PER_STREAM); n_streams];
    for tick in 0..FRAMES_PER_STREAM {
        if tick == SHIFT_AT {
            for s in 0..n_streams {
                rt.source_mut(s).shift_to(AnomalyClass::Robbery);
            }
        }
        for (s, score) in rt.tick().into_iter().enumerate() {
            scores[s].push(score);
        }
    }
    let tables = (0..n_streams).map(|s| rt.session(s).table.to_dense_vec()).collect();
    let replacements = (0..n_streams).map(|s| rt.stream_event_totals(s).1).collect();
    RuntimeOutcome { scores, tables, replacements }
}

fn check_equivalence(n_streams: usize, max_batch: usize, backend: Backend) {
    let precision = Precision::F32;
    let _guard = lock_backend();
    let ds = dataset();
    let batched = run_runtime(&ds, n_streams, max_batch, backend, precision);
    let pristine_table = Engine::build(&[AnomalyClass::Stealing], &system_cfg(backend, precision))
        .table
        .to_dense_vec();
    let mut any_adapted = false;
    for s in 0..n_streams {
        let (solo_scores, solo_table, solo_replacements) =
            run_standalone(&ds, s, backend, precision);
        assert_eq!(
            batched.scores[s],
            solo_scores.into_iter().map(Some).collect::<Vec<_>>(),
            "stream {s}/{n_streams}: batched scores diverged from the standalone path"
        );
        assert_eq!(
            batched.tables[s], solo_table,
            "stream {s}/{n_streams}: final adapted token table diverged"
        );
        assert_eq!(
            batched.replacements[s], solo_replacements,
            "stream {s}: replacement counts diverged"
        );
        any_adapted |= solo_table != pristine_table;
    }
    assert!(any_adapted, "no stream adapted — the equivalence check was vacuous");
}

/// The sharded path: same streams, partitioned across `shards` worker
/// threads, with the pipelined `run()` entry point (the trend shift lands on
/// the tick boundary between the two `run` calls, exactly where the
/// single-threaded loop applies it).
fn run_sharded(
    ds: &Arc<SyntheticUcfCrime>,
    n_streams: usize,
    shards: usize,
    backend: Backend,
    precision: Precision,
) -> RuntimeOutcome {
    let spec = EngineSpec::new(&[AnomalyClass::Stealing], system_cfg(backend, precision));
    let mut rt = ShardedRuntime::new(
        spec,
        ShardedConfig { shards, max_batch: 16, queue_depth: 2, ..ShardedConfig::default() },
    );
    for s in 0..n_streams {
        let source =
            AdaptationStream::owned(Arc::clone(ds), AnomalyClass::Stealing, 0.5, stream_seed(s));
        rt.add_stream(source, frame_seed(s), adapt_cfg(s));
    }
    let mut scores = rt.run(SHIFT_AT);
    for s in 0..n_streams {
        rt.source_mut(s).shift_to(AnomalyClass::Robbery);
    }
    for (s, tail) in rt.run(FRAMES_PER_STREAM - SHIFT_AT).into_iter().enumerate() {
        scores[s].extend(tail);
    }
    let snapshots = rt.stream_snapshots();
    RuntimeOutcome {
        scores,
        tables: snapshots.iter().map(|s| s.table.clone()).collect(),
        replacements: snapshots.iter().map(|s| s.replacements).collect(),
    }
}

/// The shard-equivalence contract: serving at shard counts {1, 2, 4} is
/// bit-identical per stream to the single-threaded multi-stream runtime
/// (which the legs above prove bit-identical to the standalone
/// single-stream path — so the whole chain holds by transitivity).
fn check_shard_equivalence(n_streams: usize, backend: Backend, precision: Precision) {
    let _guard = lock_backend();
    let ds = dataset();
    let reference = run_runtime(&ds, n_streams, 16, backend, precision);
    let pristine_table = Engine::build(&[AnomalyClass::Stealing], &system_cfg(backend, precision))
        .table
        .to_dense_vec();
    let mut any_adapted = false;
    for shards in [1usize, 2, 4] {
        let sharded = run_sharded(&ds, n_streams, shards, backend, precision);
        for s in 0..n_streams {
            assert_eq!(
                sharded.scores[s], reference.scores[s],
                "stream {s}/{n_streams} at {shards} shards: scores diverged from single-shard"
            );
            assert_eq!(
                sharded.tables[s], reference.tables[s],
                "stream {s}/{n_streams} at {shards} shards: adapted token table diverged"
            );
            assert_eq!(
                sharded.replacements[s], reference.replacements[s],
                "stream {s} at {shards} shards: replacement counts diverged"
            );
            any_adapted |= sharded.tables[s] != pristine_table;
        }
    }
    assert!(any_adapted, "no stream adapted — the shard-equivalence check was vacuous");
}

#[test]
fn one_stream_matches_legacy_path() {
    check_equivalence(1, 16, Backend::Auto);
}

#[test]
fn four_streams_match_legacy_path() {
    check_equivalence(4, 16, Backend::Auto);
}

#[test]
fn sixteen_streams_match_legacy_path_with_chunked_batches() {
    // max_batch 8 forces ⌈16/8⌉ = 2 dispatches per tick — chunking must not
    // change a single bit either.
    check_equivalence(16, 8, Backend::Auto);
}

#[test]
fn four_streams_match_legacy_path_forced_scalar() {
    // The forced-scalar leg: the equivalence must hold on the portable
    // kernels too (and on AVX2 hosts this is a genuinely different backend
    // than the `Auto` runs above).
    check_equivalence(4, 16, Backend::Scalar);
}

#[test]
fn sharded_serving_is_bit_identical_to_single_shard_scalar() {
    check_shard_equivalence(16, Backend::Scalar, Precision::F32);
}

#[test]
fn sharded_serving_is_bit_identical_to_single_shard_simd() {
    // On non-AVX2 hosts `Backend::Simd` resolves to the scalar kernels, so
    // this leg never crashes anywhere but is a genuinely different backend
    // wherever the SIMD path exists.
    check_shard_equivalence(16, Backend::Simd, Precision::F32);
}

#[test]
fn sharded_serving_is_bit_identical_to_single_shard_int8_scalar() {
    // The int8 plane's sharded contract: quantized codes are derived once
    // at engine build and integer accumulation is exact, so partitioning
    // streams across shards must not move a single bit — same chain as the
    // f32 legs, now with the quantized serving plane engaged.
    check_shard_equivalence(16, Backend::Scalar, Precision::Int8);
}

#[test]
fn sharded_serving_is_bit_identical_to_single_shard_int8_simd() {
    check_shard_equivalence(16, Backend::Simd, Precision::Int8);
}
