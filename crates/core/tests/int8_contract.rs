//! The int8 serving plane's bounded-divergence contract against the f32
//! oracle.
//!
//! [`akg_tensor::Precision::Int8`] swaps the engine's dense weight matrices
//! for per-row-scaled int8 twins; the autograd plane (training, adaptation)
//! keeps reading the f32 masters. This suite pins down the three properties
//! the swap must preserve:
//!
//! 1. **Bounded score divergence** — int8 and f32 engines built from the
//!    same seed score any window within a small bound of each other
//!    (property-tested over random windows, both backends).
//! 2. **Reversibility** — flipping the model back to f32 restores *bitwise*
//!    equality with an all-f32 engine: quantization is a serving-plane
//!    overlay, never a weight mutation.
//! 3. **AUC regression gate** — on the Fig. 5 evaluation protocol (train,
//!    then frame-level ROC-AUC on the held-out mission subset), the int8
//!    plane's AUC stays within 0.01 of f32 on the same seeds.
//!
//! Tests here flip the process-wide compute backend, so they follow the
//! `BACKEND_LOCK` discipline of `tests/infer_equivalence.rs`.

use akg_core::engine::{Engine, Session};
use akg_core::pipeline::{MissionSystem, SystemConfig};
use akg_core::train::train_decision_model;
use akg_core::TrainConfig;
use akg_data::{DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_tensor::backend::{backend, set_backend, Backend};
use akg_tensor::nn::Module;
use akg_tensor::{Precision, Workspace};
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

/// Both serving backends (`Simd` resolves to scalar on non-AVX2 hosts).
const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Simd];

/// Maximum |int8 − f32| anomaly-score divergence we accept. Scores are
/// probabilities in [0, 1]; per-element weight error is ≤ scale/2 and
/// activations are dynamically quantized, so end-to-end drift through the
/// small paper model stays well inside this.
const SCORE_BOUND: f32 = 0.05;

fn build_engine(b: Backend, precision: Precision) -> Engine {
    let engine = Engine::build(
        &[AnomalyClass::Stealing],
        &SystemConfig { backend: b, precision, ..Default::default() },
    );
    engine.model.set_frozen(true);
    engine
}

/// A deterministic window of `window` frame embeddings.
fn make_window(engine: &Engine, salt: usize) -> Vec<Vec<f32>> {
    let dim = engine.config().embed_dim;
    let w = engine.config().window;
    (0..w)
        .map(|t| (0..dim).map(|c| ((salt * 31 + t * 7 + c) % 13) as f32 * 0.05 - 0.2).collect())
        .collect()
}

#[test]
fn int8_engine_reports_precision_and_quarter_footprint() {
    let _guard = lock_backend();
    with_backend(Backend::Scalar, || {
        let f32_engine = build_engine(Backend::Scalar, Precision::F32);
        let int8_engine = build_engine(Backend::Scalar, Precision::Int8);
        assert_eq!(f32_engine.precision(), Precision::F32);
        assert_eq!(int8_engine.precision(), Precision::Int8);
        let f32_bytes = f32_engine.model_bytes();
        let int8_bytes = int8_engine.model_bytes();
        assert_eq!(f32_bytes, f32_engine.model.weight_matrix_bytes_f32());
        assert_eq!(int8_bytes, int8_engine.model.weight_matrix_bytes_int8());
        assert_eq!(f32_bytes, int8_engine.model.weight_matrix_bytes_f32());
        // The asymptotic shrink is 4x; per-row f32 scales cost 4/k of that
        // on a [k, n] matrix, and the paper model's width-8 GNN layers sit
        // at 4·8/(8+4) ≈ 2.67x — so the whole-model ratio lands near 3x.
        let ratio = f32_bytes as f64 / int8_bytes as f64;
        assert!(
            ratio > 2.5,
            "int8 footprint shrink too small: {f32_bytes} vs {int8_bytes} ({ratio:.2}x)"
        );
    });
}

#[test]
fn int8_scores_track_f32_within_bound_on_random_windows() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || {
            let f32_engine = build_engine(b, Precision::F32);
            let int8_engine = build_engine(b, Precision::Int8);
            let dim = f32_engine.config().embed_dim;
            let w = f32_engine.config().window;
            let f32_session = f32_engine.new_session(7);
            let int8_session = int8_engine.new_session(7);
            let frame = proptest::collection::vec(-2.0f32..2.0, dim);
            run_property(
                &format!("int8_divergence_{b:?}"),
                &ProptestConfig::with_cases(16),
                |rng, _case| {
                    let window: Vec<Vec<f32>> = (0..w).map(|_| frame.generate(rng)).collect();
                    let s32 = f32_engine.score_window(&f32_session, &window);
                    let s8 = int8_engine.score_window(&int8_session, &window);
                    prop_assert!((0.0..=1.0).contains(&s8));
                    prop_assert!(
                        (s8 - s32).abs() <= SCORE_BOUND,
                        "int8 score {} diverged from f32 {} beyond {} under {:?}",
                        s8,
                        s32,
                        SCORE_BOUND,
                        b
                    );
                    Ok(())
                },
            );
        });
    }
}

/// Batched int8 serving must stay bit-identical to single-window int8
/// serving — the PR 3 batching contract holds *within* the quantized plane
/// too (quantized codes and i32 accumulation are row-independent).
#[test]
fn int8_batched_scoring_matches_single_bitwise() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || {
            let engine = build_engine(b, Precision::Int8);
            let sessions: Vec<Session> = (0..4).map(|i| engine.new_session(i as u64)).collect();
            let windows: Vec<Vec<Vec<f32>>> = (0..4).map(|s| make_window(&engine, s)).collect();
            let refs: Vec<Vec<&[f32]>> =
                windows.iter().map(|w| w.iter().map(Vec::as_slice).collect()).collect();
            let batch: Vec<(&Session, &[&[f32]])> =
                sessions.iter().zip(&refs).map(|(s, w)| (s, w.as_slice())).collect();
            let mut batched = Vec::new();
            engine.score_windows_batch_refs(&batch, &mut Workspace::new(), &mut batched);
            for (i, (session, window)) in sessions.iter().zip(&windows).enumerate() {
                let single = engine.score_window(session, window);
                assert_eq!(
                    batched[i], single,
                    "int8 batched vs single diverged at item {i} under {b:?}"
                );
            }
        });
    }
}

/// Quantization is an overlay, not a mutation: dropping back to f32
/// restores bitwise equality with an engine that was never quantized.
#[test]
fn clearing_int8_restores_bitwise_f32_scores() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || {
            let f32_engine = build_engine(b, Precision::F32);
            let mut int8_engine = build_engine(b, Precision::Int8);
            let window = make_window(&f32_engine, 3);
            let f32_session = f32_engine.new_session(5);
            let int8_session = int8_engine.new_session(5);
            let s8 = int8_engine.score_window(&int8_session, &window);
            int8_engine.model.set_precision(Precision::F32);
            assert_eq!(int8_engine.precision(), Precision::F32);
            let restored = int8_engine.score_window(&int8_session, &window);
            let oracle = f32_engine.score_window(&f32_session, &window);
            assert_eq!(restored, oracle, "f32 restore not bitwise under {b:?}");
            // And the quantized score was a genuinely different plane
            // (otherwise this test proves nothing).
            assert_ne!(s8, oracle, "int8 plane never engaged under {b:?}");
        });
    }
}

/// The Fig. 5 harness gate: train once (training is f32 either way), then
/// evaluate the held-out mission subset at both precisions — frame-level
/// ROC-AUC must agree within 0.01. Flipping the precision on one trained
/// system is exactly "same seeds" with half the cost of training twice.
#[test]
fn int8_auc_within_one_point_of_f32_on_fig5_protocol() {
    let _guard = lock_backend();
    with_backend(Backend::Auto, || {
        let mut sys = MissionSystem::build(&[AnomalyClass::Stealing], &SystemConfig::default());
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.015)
                .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
                .with_seed(11),
        );
        let videos: Vec<&akg_data::Video> = ds.train.iter().collect();
        let cfg = TrainConfig { steps: 100, batch_size: 12, ..TrainConfig::fast() };
        train_decision_model(&mut sys, &videos, &cfg);
        let subset = ds.test_subset(AnomalyClass::Stealing);
        let auc_f32 = sys.engine.evaluate_auc(&sys.session, &subset);
        sys.engine.model.set_precision(Precision::Int8);
        let auc_int8 = sys.engine.evaluate_auc(&sys.session, &subset);
        assert!(auc_f32 > 0.7, "f32 baseline AUC too low: {auc_f32}");
        assert!(
            (auc_int8 - auc_f32).abs() <= 0.01,
            "int8 AUC regressed: f32 {auc_f32} vs int8 {auc_int8}"
        );
    });
}

/// Training after an int8 build must re-derive the codes: the engine never
/// serves a quantization of the *initial* weights once training has moved
/// the masters.
#[test]
fn training_refreshes_stale_int8_codes() {
    let _guard = lock_backend();
    with_backend(Backend::Scalar, || {
        let config = SystemConfig {
            backend: Backend::Scalar,
            precision: Precision::Int8,
            ..Default::default()
        };
        let mut sys = MissionSystem::build(&[AnomalyClass::Stealing], &config);
        let window = make_window(&sys.engine, 1);
        let before = sys.engine.score_window(&sys.session, &window);
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.015)
                .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
                .with_seed(11),
        );
        let videos: Vec<&akg_data::Video> = ds.train.iter().collect();
        let cfg = TrainConfig { steps: 20, batch_size: 4, ..TrainConfig::fast() };
        train_decision_model(&mut sys, &videos, &cfg);
        assert_eq!(sys.engine.precision(), Precision::Int8);
        let after = sys.engine.score_window(&sys.session, &window);
        assert_ne!(before, after, "trained int8 engine still serves pre-training codes");
        // The refreshed codes must equal quantizing the current masters
        // from scratch: re-deriving in place is idempotent.
        let served = sys.engine.score_window(&sys.session, &window);
        sys.engine.model.refresh_quantized();
        assert_eq!(
            sys.engine.score_window(&sys.session, &window),
            served,
            "refresh_quantized not idempotent"
        );
    });
}
