//! The copy-on-write session contract: an **overlay** session (sparse
//! adapted-row map over the engine's shared table, KGs shared until first
//! structural edit — `Engine::new_session`) must behave **bit-identically**
//! to a **dense-fork** session (`Engine::new_session_dense`) through real
//! adaptation: per-frame scores, the final resolved table, replacements,
//! spare-row cursors, and adaptation events — under Scalar AND Simd, f32 and
//! int8, fixed and fuzzed adapt schedules.
//!
//! Tests here flip the process-wide compute backend, so they follow the
//! `BACKEND_LOCK` discipline of `tensor/tests/proptest_kernels.rs`.

use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
use akg_core::engine::Engine;
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
    replacements: usize,
    events: usize,
    next_spare: usize,
}

/// Drives one session (overlay or dense) through `frames` frames of the
/// given stream, shifting the trend at `shift_at`.
#[allow(clippy::too_many_arguments)]
fn run_session(
    engine: &Engine,
    ds: &SyntheticUcfCrime,
    dense: bool,
    cfg: AdaptConfig,
    frame_seed: u64,
    stream_seed: u64,
    frames: usize,
    shift_at: usize,
) -> Outcome {
    let mut session =
        if dense { engine.new_session_dense(frame_seed) } else { engine.new_session(frame_seed) };
    assert_eq!(session.table.is_overlay(), !dense);
    let mut adapter = ContinuousAdapter::attach(engine, &mut session, cfg);
    let mut stream = AdaptationStream::new(ds, AnomalyClass::Stealing, 0.5, stream_seed);
    let mut score_bits = Vec::with_capacity(frames);
    for i in 0..frames {
        if i == shift_at {
            stream.shift_to(AnomalyClass::Robbery);
        }
        let (frame, _) = stream.next_frame();
        score_bits.push(adapter.observe(engine, &mut session, &frame).to_bits());
    }
    Outcome {
        score_bits,
        table_bits: session.table.to_dense_vec().iter().map(|v| v.to_bits()).collect(),
        replacements: adapter.replacements(),
        events: adapter.events().len(),
        next_spare: session.table.next_spare(),
    }
}

/// Runs the overlay-vs-dense comparison across four independent streams
/// (the same per-stream seeding as `runtime/tests/equivalence.rs`) and
/// requires at least one stream to have actually changed its table.
fn check_pairs(engine: &Engine, ds: &SyntheticUcfCrime, label: &str) {
    let base_bits: Vec<u32> = engine.table_base().iter().map(|v| v.to_bits()).collect();
    let mut any_adapted = false;
    for s in 0..4 {
        let cfg = adapt_cfg(s);
        let overlay = run_session(engine, ds, false, cfg, frame_seed(s), stream_seed(s), 48, 24);
        let dense = run_session(engine, ds, true, cfg, frame_seed(s), stream_seed(s), 48, 24);
        assert_eq!(overlay, dense, "{label}/stream {s}: overlay diverged from dense fork");
        any_adapted |= dense.table_bits != base_bits;
    }
    assert!(any_adapted, "{label}: no stream adapted its table — vacuous equivalence");
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
fn overlay_equals_dense_fork_through_adaptation_f32() {
    let _guard = lock_backend();
    let ds = dataset();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b, Precision::F32);
            check_pairs(&engine, &ds, &format!("f32/{b:?}"));
        });
    }
}

#[test]
fn overlay_equals_dense_fork_through_adaptation_int8() {
    let _guard = lock_backend();
    let ds = dataset();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b, Precision::Int8);
            assert_eq!(engine.precision(), Precision::Int8);
            check_pairs(&engine, &ds, &format!("int8/{b:?}"));
        });
    }
}

/// Fuzzed adapt schedules: random interval/window/shift/stream positions
/// must never open a gap between the overlay and dense paths.
#[test]
fn random_adapt_schedules_property_overlay_equals_dense() {
    let _guard = lock_backend();
    let ds = dataset();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b, Precision::F32);
            run_property(
                &format!("overlay_equals_dense_{b:?}"),
                &ProptestConfig::with_cases(4),
                |rng, _case| {
                    let interval = (4usize..=10).generate(rng);
                    let n_window = (12usize..=24).generate(rng);
                    let frames = (36usize..=56).generate(rng);
                    let shift_at = (8usize..frames).generate(rng);
                    let stream_seed = (0u64..1000).generate(rng);
                    let cfg = AdaptConfig {
                        n_window,
                        lag: n_window / 2,
                        interval,
                        min_k: 1,
                        ..Default::default()
                    };
                    let overlay =
                        run_session(&engine, &ds, false, cfg, 7, stream_seed, frames, shift_at);
                    let dense =
                        run_session(&engine, &ds, true, cfg, 7, stream_seed, frames, shift_at);
                    prop_assert_eq!(&overlay, &dense);
                    Ok(())
                },
            );
        });
    }
}

/// The overlay checkpoint (adapted-row delta) must round-trip: capture an
/// adapted overlay session, restore into a fresh overlay session of the same
/// engine, and both continue identically — and the delta checkpoint must be
/// dramatically smaller than the dense full-table form.
#[test]
fn overlay_checkpoint_roundtrips_and_shrinks() {
    use akg_core::persist::{checkpoint_session, restore_session};
    let _guard = lock_backend();
    let ds = dataset();
    with_backend(Backend::Scalar, || {
        let engine = build_engine(Backend::Scalar, Precision::F32);
        // sweep the four streams and keep the first whose overlay actually
        // materialized rows — the round-trip must not be vacuous
        let mut adapted = None;
        for s in 0..4 {
            let cfg = adapt_cfg(s);
            let mut session = engine.new_session(frame_seed(s));
            let mut adapter = ContinuousAdapter::attach(&engine, &mut session, cfg);
            let mut stream =
                AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, stream_seed(s));
            for i in 0..48 {
                if i == 24 {
                    stream.shift_to(AnomalyClass::Robbery);
                }
                let (frame, _) = stream.next_frame();
                adapter.observe(&engine, &mut session, &frame);
            }
            if !session.table.overlay_delta().is_empty() {
                adapted = Some((s, session, adapter, stream));
                break;
            }
        }
        let (s, mut session, mut adapter, mut stream) =
            adapted.expect("no stream adapted — vacuous round-trip");
        let cfg = adapt_cfg(s);

        let cp = checkpoint_session(&session, &adapter);
        assert!(cp.table_overlay);
        assert!(cp.token_table.is_empty(), "overlay checkpoint must not carry the dense table");
        assert!(!cp.table_delta.is_empty());
        let overlay_bytes = serde_json::to_string(&cp).unwrap().len();

        // dense baseline for the same adapted state
        let mut dense = engine.new_session_dense(frame_seed(s));
        let mut dense_adapter = ContinuousAdapter::attach(&engine, &mut dense, cfg);
        let mut dense_stream =
            AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, stream_seed(s));
        for i in 0..48 {
            if i == 24 {
                dense_stream.shift_to(AnomalyClass::Robbery);
            }
            let (frame, _) = dense_stream.next_frame();
            dense_adapter.observe(&engine, &mut dense, &frame);
        }
        let dense_bytes =
            serde_json::to_string(&checkpoint_session(&dense, &dense_adapter)).unwrap().len();
        assert!(
            overlay_bytes * 5 <= dense_bytes,
            "overlay checkpoint ({overlay_bytes} B) not much smaller than dense ({dense_bytes} B)"
        );

        // restore and continue bit-identically against the uninterrupted run
        let mut twin = engine.new_session(99); // deliberately wrong seed: restore must fix it
        let mut twin_adapter = restore_session(&engine, &mut twin, cfg, &cp).unwrap();
        for _ in 0..24 {
            let (f1, _) = stream.next_frame();
            let s1 = adapter.observe(&engine, &mut session, &f1);
            let s2 = twin_adapter.observe(&engine, &mut twin, &f1);
            assert_eq!(s1.to_bits(), s2.to_bits(), "restored overlay session diverged");
        }
        assert_eq!(
            session.table.to_dense_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            twin.table.to_dense_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        );
        assert_eq!(adapter.replacements(), twin_adapter.replacements());
    });
}
