//! The checkpoint-continuation contract: a session checkpointed mid-stream
//! (`persist::checkpoint_session`), round-tripped through `serde_json`,
//! restored into a fresh session opened with the *wrong* frame seed
//! (`persist::restore_session`), and continued must behave
//! **bit-identically** to the run that was never interrupted: per-frame
//! scores, the final resolved table, lifetime token-update and replacement
//! counts and the spare-row cursor — under Scalar AND Simd, f32 and int8, four fixed
//! streams and fuzzed schedules that also draw the checkpoint frame. The
//! checkpoint is the table's adapted-row delta, so it must also be much
//! smaller than the full table.
//!
//! Tests here flip the process-wide compute backend, so they follow the
//! `BACKEND_LOCK` discipline of `tensor/tests/proptest_kernels.rs`.

use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
use akg_core::engine::Engine;
use akg_core::persist::{checkpoint_session, restore_session, SessionCheckpoint};
use akg_core::pipeline::SystemConfig;
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_tensor::backend::{backend, set_backend, Backend};
use akg_tensor::Precision;
use proptest::prelude::*;
use proptest::{run_property, ProptestConfig};
use std::sync::{Mutex, MutexGuard};

/// Serializes every test that changes (or depends bitwise on) the
/// process-wide backend setting.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock_backend() -> MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` under the given backend, restoring the previous policy after.
/// Callers must hold [`BACKEND_LOCK`].
fn with_backend<R>(b: Backend, f: impl FnOnce() -> R) -> R {
    let prev = backend();
    set_backend(b);
    let r = f();
    set_backend(prev);
    r
}

/// Both serving backends. `Simd` resolves to scalar on hosts without
/// AVX2+FMA, so this is safe (and still meaningful) everywhere.
const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Simd];

/// Same engine recipe as `runtime/tests/equivalence.rs` (seed 5), whose
/// scores demonstrably trip the anomaly trigger on the dataset below — so
/// adaptation actually fires.
fn build_engine(b: Backend, precision: Precision) -> Engine {
    Engine::build(
        &[AnomalyClass::Stealing],
        &SystemConfig { seed: 5, backend: b, precision, ..Default::default() },
    )
}

/// Same dataset recipe as `runtime/tests/equivalence.rs`, whose suite proves
/// this schedule actually drives token updates (non-vacuous adaptation).
fn dataset() -> SyntheticUcfCrime {
    SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
            .with_seed(77),
    )
}

fn frame_seed(stream: usize) -> u64 {
    0xBEEF ^ (stream as u64 * 101)
}

fn stream_seed(stream: usize) -> u64 {
    1000 + stream as u64
}

/// One run's observable fingerprint, everything the contract compares.
#[derive(Debug, PartialEq)]
struct Outcome {
    score_bits: Vec<u32>,
    table_bits: Vec<u32>,
    token_updates: usize,
    replacements: usize,
    next_spare: usize,
}

/// What the checkpoint taken mid-run looked like.
struct Capture {
    delta_rows: usize,
    token_updates: usize,
    json_bytes: usize,
    full_table_json_bytes: usize,
}

/// Drives one session through `frames` frames of the given stream,
/// shifting the trend at `shift_at`. With `checkpoint_at`, the session is
/// checkpointed before that frame, serialized, parsed back and restored
/// into a fresh session opened with a wrong frame seed, which serves the
/// rest of the stream. The lifetime token-update and replacement counts
/// ride in the checkpoint, so an interrupted run must report the same
/// totals as the uninterrupted one.
#[allow(clippy::too_many_arguments)]
fn run_session(
    engine: &Engine,
    ds: &SyntheticUcfCrime,
    cfg: AdaptConfig,
    frame_seed: u64,
    stream_seed: u64,
    frames: usize,
    shift_at: usize,
    checkpoint_at: Option<usize>,
) -> (Outcome, Option<Capture>) {
    let mut session = engine.new_session(frame_seed);
    let mut adapter = ContinuousAdapter::attach(engine, &mut session, cfg);
    let mut stream = AdaptationStream::new(ds, AnomalyClass::Stealing, 0.5, stream_seed);
    let mut score_bits = Vec::with_capacity(frames);
    let mut capture = None;
    for i in 0..frames {
        if checkpoint_at == Some(i) {
            let json = serde_json::to_string(&checkpoint_session(&session, &adapter)).unwrap();
            let cp: SessionCheckpoint = serde_json::from_str(&json).unwrap();
            capture = Some(Capture {
                delta_rows: cp.table_delta.len(),
                token_updates: cp.adapter.token_updates,
                json_bytes: json.len(),
                full_table_json_bytes: serde_json::to_string(&session.table.to_dense_vec())
                    .unwrap()
                    .len(),
            });
            session = engine.new_session(frame_seed ^ 0xDEAD);
            adapter = restore_session(engine, &mut session, cfg, &cp).unwrap();
        }
        if i == shift_at {
            stream.shift_to(AnomalyClass::Robbery);
        }
        let (frame, _) = stream.next_frame();
        score_bits.push(adapter.observe(engine, &mut session, &frame).to_bits());
    }
    let outcome = Outcome {
        score_bits,
        table_bits: session.table.to_dense_vec().iter().map(|v| v.to_bits()).collect(),
        token_updates: adapter.token_updates(),
        replacements: adapter.replacements(),
        next_spare: session.table.next_spare(),
    };
    (outcome, capture)
}

/// Checkpoints each of four independent streams (the same per-stream
/// seeding as `runtime/tests/equivalence.rs`) after the trend shift,
/// compares the continuation with the uninterrupted run and returns each
/// stream's checkpoint capture. At least one checkpoint must carry a
/// non-empty delta and a token update made before the checkpoint (so the
/// lifetime counts are checked across the restore).
fn check_streams(engine: &Engine, ds: &SyntheticUcfCrime, label: &str) -> Vec<Capture> {
    let captures: Vec<Capture> = (0..4)
        .map(|s| {
            let run = |at| {
                run_session(engine, ds, adapt_cfg(s), frame_seed(s), stream_seed(s), 64, 24, at)
            };
            let (want, _) = run(None);
            let (got, capture) = run(Some(40));
            assert_eq!(got, want, "{label}/stream {s}: checkpoint continuation diverged");
            capture.expect("checkpoint taken")
        })
        .collect();
    assert!(
        captures.iter().any(|c| c.delta_rows > 0),
        "{label}: every checkpoint had an empty delta — vacuous continuation"
    );
    assert!(
        captures.iter().any(|c| c.token_updates > 0),
        "{label}: no token update before any checkpoint — lifetime counts unchecked"
    );
    captures
}

fn adapt_cfg(stream: usize) -> AdaptConfig {
    AdaptConfig {
        n_window: 16,
        lag: 8,
        interval: 8,
        min_k: 1,
        max_k: 4,
        seed: stream as u64,
        ..Default::default()
    }
}

#[test]
fn checkpoint_continuation_equals_uninterrupted_run_f32() {
    let _guard = lock_backend();
    let ds = dataset();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b, Precision::F32);
            check_streams(&engine, &ds, &format!("f32/{b:?}"));
        });
    }
}

/// The checkpoint is the adapted-row delta, not the table: every non-empty
/// delta checkpoint that round-trips and continues bit-identically above
/// must serialize at least 5× smaller than the full table.
#[test]
fn delta_checkpoint_roundtrips_and_shrinks() {
    let _guard = lock_backend();
    let ds = dataset();
    with_backend(Backend::Scalar, || {
        let engine = build_engine(Backend::Scalar, Precision::F32);
        for (s, capture) in check_streams(&engine, &ds, "shrink").iter().enumerate() {
            if capture.delta_rows > 0 {
                assert!(
                    capture.json_bytes * 5 <= capture.full_table_json_bytes,
                    "stream {s}: delta checkpoint ({} B) not ≥5× smaller than the full table \
                     ({} B)",
                    capture.json_bytes,
                    capture.full_table_json_bytes
                );
            }
        }
    });
}

#[test]
fn checkpoint_continuation_equals_uninterrupted_run_int8() {
    let _guard = lock_backend();
    let ds = dataset();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b, Precision::Int8);
            assert_eq!(engine.precision(), Precision::Int8);
            check_streams(&engine, &ds, &format!("int8/{b:?}"));
        });
    }
}

/// Fuzzed adapt schedules and checkpoint frames: wherever a stream is
/// checkpointed, the continuation must match the uninterrupted run.
#[test]
fn random_checkpoint_schedules_property_continuation_equals_uninterrupted() {
    let _guard = lock_backend();
    let ds = dataset();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b, Precision::F32);
            run_property(
                &format!("checkpoint_continuation_{b:?}"),
                &ProptestConfig::with_cases(4),
                |rng, _case| {
                    let interval = (4usize..=10).generate(rng);
                    let n_window = (12usize..=24).generate(rng);
                    let frames = (36usize..=56).generate(rng);
                    let shift_at = (8usize..frames).generate(rng);
                    let checkpoint_at = (1usize..frames).generate(rng);
                    let stream_seed = (0u64..1000).generate(rng);
                    let cfg = AdaptConfig {
                        n_window,
                        lag: n_window / 2,
                        interval,
                        min_k: 1,
                        ..Default::default()
                    };
                    let run =
                        |at| run_session(&engine, &ds, cfg, 7, stream_seed, frames, shift_at, at);
                    let (want, _) = run(None);
                    let (got, _) = run(Some(checkpoint_at));
                    prop_assert_eq!(&got, &want);
                    Ok(())
                },
            );
        });
    }
}
