//! The gradient oracle for the token update: the deduplicated node-block
//! forward adaptation trains through (`DecisionModel::windows_logits` over a
//! compact `TableRows` leaf, each distinct frame through the GNNs once) must
//! give logits **bitwise** equal to stacking `Engine::window_logits` per
//! window, and a table gradient equal to that per-window oracle's — row by
//! row within 1e-5 relative on the rows the KGs reference, exactly zero on
//! every other row — under Scalar and Simd.
//!
//! Tests here flip the process-wide compute backend, so they follow the
//! `BACKEND_LOCK` discipline of `tensor/tests/proptest_kernels.rs`.

use akg_core::loss::decision_loss_smoothed;
use akg_core::pipeline::{MissionSystem, SystemConfig};
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_tensor::backend::{backend, set_backend, Backend};
use akg_tensor::Tensor;
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

const BACKENDS: [Backend; 2] = [Backend::Scalar, Backend::Simd];

/// Overlapping windows over a pool of 10 frames, oldest first: front-padded
/// partial windows, shared frames, and one window selected twice (as an
/// anomaly and as a normal can be).
fn windows() -> Vec<Vec<usize>> {
    vec![
        vec![0, 0, 1, 2],
        vec![0, 1, 2, 3],
        vec![2, 3, 4, 5],
        vec![3, 4, 5, 6],
        vec![3, 4, 5, 6],
        vec![6, 7, 8, 9],
    ]
}

fn targets() -> Vec<usize> {
    vec![1, 1, 0, 0, 1, 0]
}

fn loss(logits: &Tensor, sys: &MissionSystem) -> Tensor {
    let cfg = sys.engine.model.config();
    decision_loss_smoothed(logits, &targets(), cfg.label_smoothing, cfg.lambda_spa, cfg.lambda_smt)
}

fn check(b: Backend) {
    let mut sys = MissionSystem::build(
        &[AnomalyClass::Stealing],
        &SystemConfig { seed: 5, backend: b, ..Default::default() },
    );
    sys.set_adaptation_mode(true);
    let ds = SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
            .with_seed(77),
    );
    let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 3);
    let pool: Vec<Vec<f32>> = (0..10).map(|_| sys.embed_frame(&stream.next_frame().0)).collect();
    let frames: Vec<&[f32]> = pool.iter().map(Vec::as_slice).collect();
    let windows = windows();

    // the oracle: one window at a time, gradients into the full table
    let per_window: Vec<Tensor> = windows
        .iter()
        .map(|w| {
            let window: Vec<Vec<f32>> = w.iter().map(|&i| pool[i].clone()).collect();
            sys.window_logits(&window)
        })
        .collect();
    let oracle_logits = Tensor::concat_rows(&per_window);
    loss(&oracle_logits, &sys).backward();
    let oracle_grad = sys.session.table.param().grad().expect("oracle table got no gradient");

    // the token update's path: one compact leaf, each frame once
    let session = &sys.session;
    let rows = session.table.leaf_rows(session.referenced_rows());
    let logits =
        sys.engine.model.windows_logits(&session.kgs, &session.layouts, &rows, &frames, &windows);
    let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&logits), bits(&oracle_logits), "{b:?}: logits not bitwise equal");
    loss(&logits, &sys).backward();
    let grad = rows.values().grad().expect("compact leaf got no gradient");

    let dim = session.table.dim();
    let ids = rows.ids();
    let mut nonzero_rows = 0;
    for (r, oracle_row) in oracle_grad.chunks_exact(dim).enumerate() {
        match ids.binary_search(&r) {
            Ok(i) => {
                let row = &grad[i * dim..(i + 1) * dim];
                let diff = row.iter().zip(oracle_row).map(|(a, b)| (a - b) * (a - b)).sum::<f32>();
                let norm = oracle_row.iter().map(|g| g * g).sum::<f32>();
                assert!(
                    diff.sqrt() <= 1e-5 * norm.sqrt() + f32::MIN_POSITIVE,
                    "{b:?}: row {r} gradient off by {} (norm {})",
                    diff.sqrt(),
                    norm.sqrt()
                );
                nonzero_rows += usize::from(norm > 0.0);
            }
            Err(_) => assert!(
                oracle_row.iter().all(|g| *g == 0.0),
                "{b:?}: untouched row {r} has an oracle gradient"
            ),
        }
    }
    assert!(nonzero_rows > 0, "{b:?}: every touched row had a zero gradient — vacuous");
}

#[test]
fn deduplicated_node_block_forward_matches_per_window_oracle() {
    let _guard = lock_backend();
    for b in BACKENDS {
        with_backend(b, || check(b));
    }
}
