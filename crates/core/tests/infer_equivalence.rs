//! The data-plane/training-plane split's load-bearing contract: the
//! inference plane (`DecisionModel::*_infer`, raw slices + workspace
//! buffers, what `Engine::score_window` / `score_windows_batch_refs` serve
//! through) must be **bit-identical** to the autograd plane's single-window
//! path (`DecisionModel::predict` / `anomaly_score`) — batched ≡ single ≡
//! autograd, per backend, at every batch size and over ragged batches. The
//! autograd single-window path runs the full-row temporal encoder, so these
//! suites also pin the serving plane's last-step tail to it.
//!
//! Tests here flip the process-wide compute backend, so they follow the
//! `BACKEND_LOCK` discipline of `tensor/tests/proptest_kernels.rs`: every
//! test that changes (or depends bitwise on) the backend holds the lock,
//! and the backend is restored before releasing it.

use akg_core::engine::{Engine, Session};
use akg_core::pipeline::SystemConfig;
use akg_kg::AnomalyClass;
use akg_tensor::backend::{backend, set_backend, Backend};
use akg_tensor::nn::Module;
use akg_tensor::Workspace;
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

fn build_engine(b: Backend) -> Engine {
    // `Engine::build` applies its config's backend process-wide, which is
    // exactly what we want inside the lock.
    let engine = Engine::build(
        &[AnomalyClass::Stealing],
        &SystemConfig { backend: b, ..Default::default() },
    );
    engine.model.set_frozen(true);
    engine
}

/// A deterministic window of `window_len` frame embeddings.
fn make_window(engine: &Engine, salt: usize) -> Vec<Vec<f32>> {
    let dim = engine.config().embed_dim;
    let w = engine.config().window;
    (0..w)
        .map(|t| (0..dim).map(|c| ((salt * 31 + t * 7 + c) % 13) as f32 * 0.05 - 0.2).collect())
        .collect()
}

/// `Engine::score_windows_batch_refs` over owned windows.
fn score_batch(engine: &Engine, batch: &[(&Session, &[Vec<f32>])]) -> Vec<f32> {
    let refs: Vec<Vec<&[f32]>> =
        batch.iter().map(|(_, window)| window.iter().map(Vec::as_slice).collect()).collect();
    let ref_batch: Vec<(&Session, &[&[f32]])> =
        batch.iter().zip(&refs).map(|(&(session, _), refs)| (session, refs.as_slice())).collect();
    let mut out = Vec::new();
    engine.score_windows_batch_refs(&ref_batch, &mut Workspace::new(), &mut out);
    out
}

/// `Engine::predict_windows_refs` over one owned window.
fn predict_one(engine: &Engine, session: &Session, window: &[Vec<f32>]) -> Vec<f32> {
    let mut out = Vec::new();
    engine.predict_windows_refs(session, &[window.iter().map(Vec::as_slice).collect()], &mut out);
    out
}

/// The autograd plane's single-window score (the pre-split serving path).
fn autograd_score(engine: &Engine, session: &Session, window: &[Vec<f32>]) -> f32 {
    let kgs: Vec<_> = session.kgs.iter().collect();
    let layouts: Vec<_> = session.layouts.iter().collect();
    let rows = session.table.view_rows(session.referenced_rows());
    engine.model.anomaly_score(&kgs, &layouts, &rows, window)
}

#[test]
fn inference_plane_matches_autograd_plane_bitwise_at_batch_1_4_16() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b);
            for n_streams in [1usize, 4, 16] {
                let sessions: Vec<Session> =
                    (0..n_streams).map(|i| engine.new_session(i as u64)).collect();
                let windows: Vec<Vec<Vec<f32>>> =
                    (0..n_streams).map(|s| make_window(&engine, s)).collect();
                let batch: Vec<(&Session, &[Vec<f32>])> =
                    sessions.iter().zip(&windows).map(|(s, w)| (s, w.as_slice())).collect();
                // Inference plane: the serving entry point.
                let infer_batched = score_batch(&engine, &batch);
                for (i, (session, window)) in batch.iter().enumerate() {
                    let infer_single = engine.score_window(session, window);
                    let auto_single = autograd_score(&engine, session, window);
                    assert_eq!(
                        infer_single, auto_single,
                        "single-window inference diverged at item {i} under {b:?}"
                    );
                    assert_eq!(
                        infer_batched[i], infer_single,
                        "batched vs single inference diverged at item {i} under {b:?}"
                    );
                }
            }
        });
    }
}

#[test]
fn predict_window_matches_autograd_predict_bitwise() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b);
            let session = engine.new_session(3);
            let window = make_window(&engine, 7);
            let infer = predict_one(&engine, &session, &window);
            let kgs: Vec<_> = session.kgs.iter().collect();
            let layouts: Vec<_> = session.layouts.iter().collect();
            let rows = session.table.view_rows(session.referenced_rows());
            let auto = engine.model.predict(&kgs, &layouts, &rows, &window);
            assert_eq!(
                infer, auto,
                "predict_windows_refs diverged from autograd predict under {b:?}"
            );
            // The batched form adaptation labels through: each row is
            // bitwise the window scored alone.
            let windows: Vec<Vec<Vec<f32>>> = (0..5).map(|s| make_window(&engine, s)).collect();
            let refs: Vec<Vec<&[f32]>> =
                windows.iter().map(|w| w.iter().map(Vec::as_slice).collect()).collect();
            let mut batched = Vec::new();
            engine.predict_windows_refs(&session, &refs, &mut batched);
            let c = engine.model.n_classes();
            for (i, window) in windows.iter().enumerate() {
                let alone = predict_one(&engine, &session, window);
                assert_eq!(&batched[i * c..(i + 1) * c], &alone[..], "row {i} under {b:?}");
            }
        });
    }
}

#[test]
fn random_windows_property_inference_equals_autograd_bitwise() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b);
            let dim = engine.config().embed_dim;
            let w = engine.config().window;
            let sessions: Vec<Session> = (0..4).map(|i| engine.new_session(40 + i)).collect();
            let frame = proptest::collection::vec(-2.0f32..2.0, dim);
            run_property(
                &format!("infer_equals_autograd_{b:?}"),
                &ProptestConfig::with_cases(12),
                |rng, _case| {
                    let windows: Vec<Vec<Vec<f32>>> =
                        (0..4).map(|_| (0..w).map(|_| frame.generate(rng)).collect()).collect();
                    let batch: Vec<(&Session, &[Vec<f32>])> =
                        sessions.iter().zip(&windows).map(|(s, w)| (s, w.as_slice())).collect();
                    let infer = score_batch(&engine, &batch);
                    for (i, (session, window)) in batch.iter().enumerate() {
                        prop_assert_eq!(infer[i], engine.score_window(session, window));
                        prop_assert_eq!(infer[i], autograd_score(&engine, session, window));
                    }
                    Ok(())
                },
            );
        });
    }
}

/// Windows of every length from `T` down to 1 (a warming-up stream's are
/// short) scored in one batch: the temporal model runs once over the ragged
/// batch with its last-step tail, and each item is bitwise the window scored
/// alone and the autograd plane's full-row oracle.
#[test]
fn ragged_batch_matches_per_window_full_row_oracle_bitwise() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b);
            let w = engine.config().window;
            let sessions: Vec<Session> =
                (0..2 * w).map(|i| engine.new_session(60 + i as u64)).collect();
            let windows: Vec<Vec<Vec<f32>>> =
                (0..2 * w).map(|s| make_window(&engine, s).split_off(s % w)).collect();
            assert!(windows.iter().any(|win| win.len() == 1), "no single-frame window");
            let batch: Vec<(&Session, &[Vec<f32>])> =
                sessions.iter().zip(&windows).map(|(s, w)| (s, w.as_slice())).collect();
            let infer = score_batch(&engine, &batch);
            for (i, (session, window)) in batch.iter().enumerate() {
                let alone = engine.score_window(session, window);
                assert_eq!(
                    infer[i],
                    alone,
                    "item {i} (len {}) batched vs alone, {b:?}",
                    window.len()
                );
                let auto = autograd_score(&engine, session, window);
                assert_eq!(infer[i], auto, "item {i} (len {}) vs autograd, {b:?}", window.len());
            }
        });
    }
}

/// Adapted state must not break the equivalence: after real token updates
/// and possible restructures, the session's fork differs from the engine's
/// template — the planes must still agree bit-for-bit.
#[test]
fn equivalence_holds_on_adapted_sessions() {
    use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
    use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
    let _guard = lock_backend();
    let ds = SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.01)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
            .with_seed(9),
    );
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b);
            let mut session = engine.new_session(11);
            let mut adapter = ContinuousAdapter::attach(
                &engine,
                &mut session,
                AdaptConfig { n_window: 16, interval: 8, min_k: 1, ..Default::default() },
            );
            let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 21);
            for i in 0..48 {
                if i == 24 {
                    stream.shift_to(AnomalyClass::Robbery);
                }
                let (frame, _) = stream.next_frame();
                adapter.observe(&engine, &mut session, &frame);
            }
            let window = make_window(&engine, 5);
            assert_eq!(
                engine.score_window(&session, &window),
                autograd_score(&engine, &session, &window),
                "planes diverged on an adapted session under {b:?}"
            );
        });
    }
}
