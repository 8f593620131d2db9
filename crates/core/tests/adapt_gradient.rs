//! The gradient oracle for the token update: the stacked forward adaptation
//! and training run through (`DecisionModel::windows_logits` over a compact
//! `TableRows` leaf — one stacked GNN pass per KG over the distinct frames,
//! one temporal pass over all windows) must give logits **bitwise** equal to
//! the per-frame composed path (`DecisionModel::reasoning_embedding` per
//! frame, then `temporal_embedding` — the full-row encoder, where the
//! stacked forward runs the last-step tail — and `logits` per window, over a
//! trainable leaf of every table row), and a table gradient equal to that
//! oracle's —
//! row by row within 1e-5 relative on the rows the KGs reference, exactly
//! zero on every other row — under Scalar and Simd.
//!
//! Tests here flip the process-wide compute backend, so they follow the
//! `BACKEND_LOCK` discipline of `tensor/tests/proptest_kernels.rs`.

use akg_core::engine::{Engine, Session};
use akg_core::loss::{decision_loss_smoothed, LABEL_SMOOTHING, LAMBDA_SMT, LAMBDA_SPA};
use akg_core::model::{KgLayout, GNN_DIM};
use akg_core::pipeline::SystemConfig;
use akg_core::tokenize::{TableRows, TokenizedKg};
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_tensor::backend::{backend, set_backend, Backend};
use akg_tensor::nn::Module;
use akg_tensor::ops::kernels::BLOCKED_DISPATCH_THRESHOLD;
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
fn overlapping_windows() -> Vec<Vec<usize>> {
    vec![
        vec![0, 0, 1, 2],
        vec![0, 1, 2, 3],
        vec![2, 3, 4, 5],
        vec![3, 4, 5, 6],
        vec![3, 4, 5, 6],
        vec![6, 7, 8, 9],
    ]
}

/// Enough distinct frames that the stacked input layer's matmul
/// (`F·|V| × embed_dim × gnn_dim` flops) reaches the blocked-kernel
/// dispatch threshold, so the blocked ≡ in-order kernel claim is exercised
/// through autograd; one window per run of `window` frames, plus windows
/// that straddle two runs.
fn threshold_crossing_windows(engine: &Engine, session: &Session) -> Vec<Vec<usize>> {
    let cfg = engine.model.config();
    let v = session.layouts[0].node_count();
    let frames = BLOCKED_DISPATCH_THRESHOLD.div_ceil(v * cfg.embed_dim * GNN_DIM);
    let t = cfg.window;
    let runs = frames.div_ceil(t);
    assert!(runs * t * v * cfg.embed_dim * GNN_DIM >= BLOCKED_DISPATCH_THRESHOLD);
    let mut windows: Vec<Vec<usize>> = (0..runs).map(|r| (r * t..(r + 1) * t).collect()).collect();
    windows.extend((0..runs - 1).step_by(7).map(|r| (r * t + t / 2..r * t + t / 2 + t).collect()));
    windows
}

fn targets(n: usize) -> Vec<usize> {
    (0..n).map(|i| [1, 1, 0, 0, 1, 0][i % 6]).collect()
}

fn loss(logits: &Tensor) -> Tensor {
    let targets = targets(logits.shape()[0]);
    decision_loss_smoothed(logits, &targets, LABEL_SMOOTHING, LAMBDA_SPA, LAMBDA_SMT)
}

/// The per-frame composed path: every frame of every window through the
/// GNNs on its own (gradients into `table`, a leaf of every table row), then
/// the temporal model and head per window.
fn oracle_logits(
    engine: &Engine,
    session: &Session,
    table: &TableRows,
    pool: &[Vec<f32>],
    windows: &[Vec<usize>],
) -> Tensor {
    let model = &engine.model;
    let kgs: Vec<&TokenizedKg> = session.kgs.iter().collect();
    let layouts: Vec<&KgLayout> = session.layouts.iter().collect();
    let rows: Vec<Tensor> = windows
        .iter()
        .map(|w| {
            let seq: Vec<Tensor> = w
                .iter()
                .map(|&i| model.reasoning_embedding(&kgs, &layouts, table, &pool[i]))
                .collect();
            model.logits(&model.temporal_embedding(&seq))
        })
        .collect();
    Tensor::concat_rows(&rows)
}

fn check(
    b: Backend,
    engine: &Engine,
    session: &Session,
    pool: &[Vec<f32>],
    windows: &[Vec<usize>],
) {
    let table = session.table.leaf_rows((0..session.table.capacity()).collect());
    let oracle = oracle_logits(engine, session, &table, pool, windows);
    loss(&oracle).backward();
    let oracle_grad = table.values().grad().expect("oracle table got no gradient");

    // the token update's path: one compact leaf, each frame once
    let rows = session.table.leaf_rows(session.referenced_rows());
    let used = windows.iter().flatten().max().map_or(0, |&i| i + 1);
    let frames: Vec<&[f32]> = pool[..used].iter().map(Vec::as_slice).collect();
    let logits =
        engine.model.windows_logits(&session.kgs, &session.layouts, &rows, &frames, windows);
    let bits = |t: &Tensor| t.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&logits), bits(&oracle), "{b:?}: logits not bitwise equal");
    loss(&logits).backward();
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
    let ds = SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
            .with_seed(77),
    );
    for b in BACKENDS {
        with_backend(b, || {
            let engine = Engine::build(
                &[AnomalyClass::Stealing],
                &SystemConfig { seed: 5, backend: b, ..Default::default() },
            );
            let mut session = engine.new_session(5 ^ 0xF0F0);
            engine.model.set_frozen(true);
            let large = threshold_crossing_windows(&engine, &session);
            let pool_len = large.iter().flatten().max().unwrap() + 1;
            let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 3);
            let pool: Vec<Vec<f32>> = (0..pool_len)
                .map(|_| engine.embed_frame(&mut session, &stream.next_frame().0))
                .collect();
            check(b, &engine, &session, &pool, &overlapping_windows());
            check(b, &engine, &session, &pool, &large);
        });
    }
}
