//! Property-based verification of the hot-path kernels: the blocked /
//! transposed-input / parallel matmuls and the fused softmax and layernorm
//! ops must match their naive reference formulations within 1e-5 on random
//! inputs, stay bit-for-bit deterministic across thread counts, and pass
//! finite-difference gradient checks.
//!
//! The SIMD-vs-scalar section at the bottom pins the backend contract:
//! AVX2+FMA results agree with the scalar kernels within 1e-4 (matmul
//! family, fused softmax/layernorm, scatter/gather, reductions), gradients
//! still pass finite-difference checks under `Backend::Auto`, and forcing
//! `Backend::Scalar` keeps the bit-exact identities the equivalence suites
//! rely on. Tests that flip the process-wide backend hold `BACKEND_LOCK` so
//! concurrent test threads never observe a mid-computation switch.
//!
//! The row-independence section pins what the temporal encoder's last-step
//! tail rests on: every row-wise inference kernel gives row `r` of an
//! `[m, k]` call the same bits as the `[1, k]` call on that row alone, under
//! Scalar and Simd, across every matmul dispatch path.

use akg_tensor::backend::{backend, set_backend, simd_available, Backend};
use akg_tensor::ops::kernels::BLOCKED_DISPATCH_THRESHOLD;
use akg_tensor::ops::kernels::{matmul_blocked, matmul_ikj, matmul_naive, matmul_nt, matmul_tn};
use akg_tensor::par::{set_parallelism, Parallelism, MIN_WORK_PER_THREAD};
use akg_tensor::{gradcheck, inference, QuantizedMatrix, Tensor, Workspace};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Enough random elements for the largest `m*k` / `k*n` drawn below.
const POOL: usize = 24 * 40;

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

fn pool_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, POOL)
}

fn assert_close(fast: &[f32], reference: &[f32], tol: f32) -> Result<(), String> {
    for (i, (f, r)) in fast.iter().zip(reference).enumerate() {
        let scale = f.abs().max(r.abs()).max(1.0);
        if (f - r).abs() > tol * scale {
            return Err(format!("[{i}] {f} vs {r}"));
        }
    }
    Ok(())
}

/// Reference `B` (shape `[k, n]`) from its transposed storage `[n, k]`.
fn untranspose(bt: &[f32], n: usize, k: usize) -> Vec<f32> {
    let mut b = vec![0.0f32; k * n];
    for j in 0..n {
        for p in 0..k {
            b[p * n + j] = bt[j * k + p];
        }
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn blocked_matches_naive(
        m in 1usize..24, k in 1usize..40, n in 1usize..24,
        a in pool_strategy(), b in pool_strategy(),
    ) {
        let (a, b) = (&a[..m * k], &b[..k * n]);
        let reference = matmul_naive(a, b, m, k, n);
        prop_assert!(assert_close(&matmul_blocked(a, b, m, k, n), &reference, 1e-5).is_ok());
    }

    #[test]
    fn nt_and_tn_match_naive(
        m in 1usize..24, k in 1usize..40, n in 1usize..24,
        a in pool_strategy(), b in pool_strategy(),
    ) {
        // A·Bᵀ with B stored [n, k]:
        let (a_s, bt) = (&a[..m * k], &b[..n * k]);
        let reference = matmul_naive(a_s, &untranspose(bt, n, k), m, k, n);
        prop_assert!(assert_close(&matmul_nt(a_s, bt, m, k, n), &reference, 1e-5).is_ok());
        // Aᵀ·G with A [m, k], G [m, n]:
        let g = &b[..m * n];
        let at = untranspose(a_s, m, k);
        let reference = matmul_naive(&at, g, k, m, n);
        prop_assert!(assert_close(&matmul_tn(a_s, g, m, k, n), &reference, 1e-5).is_ok());
    }

    #[test]
    fn blocked_bit_identical_across_thread_counts(
        m in 1usize..24, k in 1usize..40, n in 1usize..24,
        a in pool_strategy(), b in pool_strategy(),
    ) {
        let _guard = lock_backend();
        // The drawn shapes are far below `2 · MIN_WORK_PER_THREAD`
        // multiply-adds, so they always run on one thread; the fixed
        // 128×64×128 case, filled by cycling the same draws, splits into
        // 2, 3 and 4 row chunks at `Threads(2)`, `Threads(3)` and `Threads(8)`.
        let (sm, sk, sn) = (128, 64, 128);
        assert!(sm * sk * sn >= 4 * MIN_WORK_PER_THREAD, "the fixed case must split");
        let split_a: Vec<f32> = a.iter().cycle().take(sm * sk).copied().collect();
        let split_b: Vec<f32> = b.iter().cycle().skip(7).take(sk * sn).copied().collect();
        let cases = [(&a[..m * k], &b[..k * n], m, k, n), (&split_a[..], &split_b[..], sm, sk, sn)];
        for (a, b, m, k, n) in cases {
            set_parallelism(Parallelism::Threads(1));
            let one = matmul_blocked(a, b, m, k, n);
            for t in [2usize, 3, 8] {
                set_parallelism(Parallelism::Threads(t));
                prop_assert_eq!(&one, &matmul_blocked(a, b, m, k, n));
            }
        }
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    fn fused_softmax_matches_composed(
        m in 1usize..10, n in 1usize..12, scale in 0.05f32..2.0,
        x in proptest::collection::vec(-3.0f32..3.0, 10 * 12),
        mask_bits in proptest::collection::vec(0u8..2, 10 * 12),
    ) {
        let data = x[..m * n].to_vec();
        let mask: Vec<f32> =
            mask_bits[..m * n].iter().enumerate().map(|(i, &b)| {
                // never mask out a whole row (softmax of all -1e9 is fine
                // numerically but compares garbage to garbage)
                if b == 1 && i % n != 0 { -1e9 } else { 0.0 }
            }).collect();
        let t = Tensor::from_vec(data.clone(), &[m, n]);
        let fused = t.softmax_rows_scaled_masked(scale, Some(&mask)).to_vec();
        let composed =
            t.mul_scalar(scale).add_const(&mask).softmax_rows().to_vec();
        prop_assert!(assert_close(&fused, &composed, 1e-5).is_ok());
    }

    #[test]
    fn fused_softmax_grads_match_fd(
        scale in 0.2f32..1.5,
        x in proptest::collection::vec(-2.0f32..2.0, 6),
    ) {
        let t = Tensor::from_vec(x, &[2, 3]).requires_grad(true);
        let mask = vec![0.0, -1e9, 0.0, 0.0, 0.0, -1e9];
        let report = gradcheck(
            &[t],
            |ls| ls[0].softmax_rows_scaled_masked(scale, Some(&mask)).square().sum_all(),
            1e-2,
        );
        prop_assert!(report.passes(3e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn fused_layernorm_matches_composed(
        m in 1usize..8, n in 2usize..16,
        x in proptest::collection::vec(-3.0f32..3.0, 8 * 16),
        gamma in proptest::collection::vec(-1.5f32..1.5, 16),
        beta in proptest::collection::vec(-1.0f32..1.0, 16),
    ) {
        let t = Tensor::from_vec(x[..m * n].to_vec(), &[m, n]);
        let g = Tensor::from_vec(gamma[..n].to_vec(), &[n]);
        let b = Tensor::from_vec(beta[..n].to_vec(), &[n]);
        let fused = t.layer_norm(&g, &b, 1e-5).to_vec();
        let mean = t.mean_axis1();
        let centered = t.add_col(&mean.neg());
        let var = centered.square().mean_axis1();
        let inv_std = var.add_scalar(1e-5).sqrt().recip();
        let composed = centered.mul_col(&inv_std).mul_bias(&g).add_bias(&b).to_vec();
        prop_assert!(assert_close(&fused, &composed, 1e-5).is_ok());
    }

    #[test]
    fn fused_layernorm_grads_match_fd(
        x in proptest::collection::vec(-2.0f32..2.0, 6),
        gamma in proptest::collection::vec(0.5f32..1.5, 3),
    ) {
        let t = Tensor::from_vec(x, &[2, 3]).requires_grad(true);
        let g = Tensor::from_vec(gamma, &[3]).requires_grad(true);
        let b = Tensor::zeros(&[3]).requires_grad(true);
        let report = gradcheck(
            &[t, g, b],
            |ls| ls[0].layer_norm(&ls[1], &ls[2], 1e-5).square().sum_all(),
            1e-2,
        );
        prop_assert!(report.passes(3e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose(
        m in 1usize..8, k in 1usize..12, n in 1usize..8,
        a in proptest::collection::vec(-2.0f32..2.0, 8 * 12),
        b in proptest::collection::vec(-2.0f32..2.0, 8 * 12),
    ) {
        let q = Tensor::from_vec(a[..m * k].to_vec(), &[m, k]);
        let kt = Tensor::from_vec(b[..n * k].to_vec(), &[n, k]);
        let fast = q.matmul_t(&kt).to_vec();
        let slow = q.matmul(&kt.transpose()).to_vec();
        prop_assert!(assert_close(&fast, &slow, 1e-5).is_ok());
    }
}

// ---------------------------------------------------------------------------
// SIMD backend contract
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The whole matmul family agrees across backends within 1e-4 (the
    /// documented FMA/accumulation-order tolerance). On hosts without
    /// AVX2+FMA both runs take the scalar path and the check is trivially
    /// exact.
    #[test]
    fn simd_matmul_family_matches_scalar(
        m in 1usize..24, k in 1usize..40, n in 1usize..24,
        a in pool_strategy(), b in pool_strategy(),
    ) {
        let _guard = lock_backend();
        let (a_mk, b_kn) = (&a[..m * k], &b[..k * n]);
        let (bt_nk, g_mn) = (&b[..n * k], &b[..m * n]);
        type Run = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);
        let run = |backend| {
            with_backend(backend, || -> Run {
                (
                    matmul_ikj(a_mk, b_kn, m, k, n),
                    matmul_blocked(a_mk, b_kn, m, k, n),
                    matmul_nt(a_mk, bt_nk, m, k, n),
                    matmul_tn(a_mk, g_mn, m, k, n),
                )
            })
        };
        let scalar = run(Backend::Scalar);
        let simd = run(Backend::Simd);
        for (which, (s, v)) in [
            ("ikj", (&scalar.0, &simd.0)),
            ("blocked", (&scalar.1, &simd.1)),
            ("nt", (&scalar.2, &simd.2)),
            ("tn", (&scalar.3, &simd.3)),
        ] {
            prop_assert!(assert_close(v, s, 1e-4).is_ok(), "{} diverged", which);
        }
    }

    /// The fused softmax forward is *bit-identical* across backends: its
    /// scale/mask/max/normalize steps are per-lane-exact and the exp+sum
    /// pass is scalar on both.
    #[test]
    fn simd_fused_softmax_is_bitwise_backend_stable(
        m in 1usize..10, n in 1usize..12, scale in 0.05f32..2.0,
        x in proptest::collection::vec(-3.0f32..3.0, 10 * 12),
        mask_bits in proptest::collection::vec(0u8..2, 10 * 12),
    ) {
        let _guard = lock_backend();
        let data = x[..m * n].to_vec();
        let mask: Vec<f32> = mask_bits[..m * n]
            .iter()
            .enumerate()
            .map(|(i, &b)| if b == 1 && i % n != 0 { -1e9 } else { 0.0 })
            .collect();
        let run = |backend| {
            with_backend(backend, || {
                Tensor::from_vec(data.clone(), &[m, n])
                    .softmax_rows_scaled_masked(scale, Some(&mask))
                    .to_vec()
            })
        };
        prop_assert_eq!(run(Backend::Scalar), run(Backend::Simd));
    }

    /// Fused layer-norm forward and all three gradients agree across
    /// backends within 1e-4 (the row reductions reorder under SIMD).
    #[test]
    fn simd_layernorm_fwd_bwd_matches_scalar(
        m in 1usize..8, n in 2usize..16,
        x in proptest::collection::vec(-3.0f32..3.0, 8 * 16),
        gamma in proptest::collection::vec(-1.5f32..1.5, 16),
        beta in proptest::collection::vec(-1.0f32..1.0, 16),
    ) {
        let _guard = lock_backend();
        type Run = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);
        let run = |backend| {
            with_backend(backend, || -> Run {
                let t = Tensor::from_vec(x[..m * n].to_vec(), &[m, n]).requires_grad(true);
                let g = Tensor::from_vec(gamma[..n].to_vec(), &[n]).requires_grad(true);
                let b = Tensor::from_vec(beta[..n].to_vec(), &[n]).requires_grad(true);
                let y = t.layer_norm(&g, &b, 1e-5);
                y.square().sum_all().backward();
                (y.to_vec(), t.grad().unwrap(), g.grad().unwrap(), b.grad().unwrap())
            })
        };
        let scalar = run(Backend::Scalar);
        let simd = run(Backend::Simd);
        for (which, (s, v)) in [
            ("forward", (&scalar.0, &simd.0)),
            ("dx", (&scalar.1, &simd.1)),
            ("dgamma", (&scalar.2, &simd.2)),
            ("dbeta", (&scalar.3, &simd.3)),
        ] {
            prop_assert!(assert_close(v, s, 1e-4).is_ok(), "{} diverged", which);
        }
    }

    /// Scatter-add, gather, and their gradients are bit-identical across
    /// backends: the SIMD side only adds whole rows lane-exactly, in the
    /// same source order as the scalar loops.
    #[test]
    fn simd_scatter_gather_bitwise_backend_stable(
        rows in 2usize..12, n in 1usize..10,
        x in proptest::collection::vec(-2.0f32..2.0, 12 * 10),
        picks in proptest::collection::vec(0usize..12, 18),
    ) {
        let _guard = lock_backend();
        let data = x[..rows * n].to_vec();
        let idx: Vec<usize> = picks.iter().map(|&p| p % rows).collect();
        type Run = (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>);
        let run = |backend| {
            with_backend(backend, || -> Run {
                let t = Tensor::from_vec(data.clone(), &[rows, n]).requires_grad(true);
                let gathered = t.index_select_rows(&idx);
                gathered.sum_all().backward();
                let src =
                    Tensor::from_vec(data[..idx.len().min(rows) * n].to_vec(), &[idx.len().min(rows), n])
                        .requires_grad(true);
                let scattered = src.scatter_add_rows(&idx[..src.shape()[0]], rows);
                scattered.square().sum_all().backward();
                (gathered.to_vec(), t.grad().unwrap(), scattered.to_vec(), src.grad().unwrap())
            })
        };
        let scalar = run(Backend::Scalar);
        let simd = run(Backend::Simd);
        prop_assert_eq!(scalar, simd);
    }

    /// Reductions: `sum_axis0` is bit-stable across backends (row-ascending
    /// per column either way); `sum_all` / `sum_axis1` reorder under SIMD
    /// and must stay within 1e-4.
    #[test]
    fn simd_reductions_match_scalar(
        m in 1usize..10, n in 1usize..40,
        x in proptest::collection::vec(-2.0f32..2.0, 10 * 40),
    ) {
        let _guard = lock_backend();
        let data = x[..m * n].to_vec();
        type Run = (Vec<f32>, Vec<f32>, Vec<f32>);
        let run = |backend| {
            with_backend(backend, || -> Run {
                let t = Tensor::from_vec(data.clone(), &[m, n]);
                (t.sum_all().to_vec(), t.sum_axis0().to_vec(), t.sum_axis1().to_vec())
            })
        };
        let scalar = run(Backend::Scalar);
        let simd = run(Backend::Simd);
        // sum_axis0 must be bit-stable across backends.
        prop_assert_eq!(&scalar.1, &simd.1);
        prop_assert!(assert_close(&simd.0, &scalar.0, 1e-4).is_ok(), "sum_all diverged");
        prop_assert!(assert_close(&simd.2, &scalar.2, 1e-4).is_ok(), "sum_axis1 diverged");
    }
}

/// Finite-difference gradient checks pass under `Backend::Auto` — i.e. with
/// SIMD kernels live wherever this host supports them.
#[test]
fn gradchecks_pass_under_auto_backend() {
    let _guard = lock_backend();
    with_backend(Backend::Auto, || {
        let a =
            Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.25, -0.75], &[2, 3]).requires_grad(true);
        let b = Tensor::from_vec(vec![0.3, 1.2, -0.6, 0.8, 1.1, -0.4], &[3, 2]).requires_grad(true);
        let report = gradcheck(&[a, b], |ls| ls[0].matmul(&ls[1]).square().sum_all(), 1e-2);
        assert!(report.passes(2e-2), "matmul gradcheck: {}", report.max_rel_error);

        let x =
            Tensor::from_vec(vec![0.5, -1.0, 2.0, 1.5, 0.25, -0.75], &[2, 3]).requires_grad(true);
        let gamma = Tensor::from_vec(vec![1.2, 0.8, -0.5], &[3]).requires_grad(true);
        let beta = Tensor::from_vec(vec![0.0, 0.1, -0.1], &[3]).requires_grad(true);
        let report = gradcheck(
            &[x, gamma, beta],
            |ls| ls[0].layer_norm(&ls[1], &ls[2], 1e-5).square().sum_all(),
            1e-2,
        );
        assert!(report.passes(2e-2), "layernorm gradcheck: {}", report.max_rel_error);

        let s = Tensor::from_vec(vec![0.4, -0.9, 1.3, 0.2, -0.5, 0.7], &[2, 3]).requires_grad(true);
        let report = gradcheck(
            &[s],
            |ls| ls[0].softmax_rows_scaled_masked(0.7, None).square().sum_all(),
            1e-2,
        );
        assert!(report.passes(3e-2), "softmax gradcheck: {}", report.max_rel_error);
    });
}

/// Forcing `Backend::Scalar` preserves the bit-exact identities the PR 3
/// equivalence and persistence suites are built on: blocked ≡ ikj across the
/// dispatch threshold, fused softmax ≡ the composed chain, and repeated runs
/// are deterministic.
#[test]
fn forced_scalar_keeps_dispatch_and_fusion_bit_exact() {
    let _guard = lock_backend();
    with_backend(Backend::Scalar, || {
        let (m, k, n) = (33, 48, 29);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 31 % 23) as f32 - 11.0) * 0.07).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 29 % 19) as f32 - 9.0) * 0.09).collect();
        assert_eq!(matmul_blocked(&a, &b, m, k, n), matmul_ikj(&a, &b, m, k, n));
        assert_eq!(matmul_blocked(&a, &b, m, k, n), matmul_blocked(&a, &b, m, k, n));

        let x = Tensor::from_vec(b[..6 * n].to_vec(), &[6, n]);
        let mask: Vec<f32> =
            (0..6 * n).map(|i| if i % 5 == 3 && i % n != 0 { -1e9 } else { 0.0 }).collect();
        let fused = x.softmax_rows_scaled_masked(0.25, Some(&mask)).to_vec();
        let composed = x.mul_scalar(0.25).add_const(&mask).softmax_rows().to_vec();
        assert_eq!(fused, composed);
    });
}

/// Under the SIMD backend, blocked and ikj still agree bit-for-bit — the
/// invariant that makes the size-dispatch threshold numerically invisible
/// (and keeps batched serving ≡ single-stream scoring).
#[test]
fn simd_backend_keeps_dispatch_bit_exact() {
    let _guard = lock_backend();
    if !simd_available() {
        return;
    }
    with_backend(Backend::Simd, || {
        for (m, k, n) in [(7, 33, 25), (65, 130, 195), (12, 200, 17)] {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.11).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 23 % 17) as f32 - 8.0) * 0.13).collect();
            assert_eq!(
                matmul_blocked(&a, &b, m, k, n),
                matmul_ikj(&a, &b, m, k, n),
                "blocked != ikj at {m}x{k}x{n}"
            );
        }
    });
}

// ---------------------------------------------------------------------------
// Row independence: a row's result does not depend on the call's row count
// ---------------------------------------------------------------------------

/// Runs the row-wise kernel `f(x_rows, row0, rows, out)` over all `m` rows of
/// `x` (`in_w` wide) at once, then over each row alone, and compares the
/// `out_w`-wide output rows bitwise.
fn rows_match_single_row_calls(
    what: &str,
    x: &[f32],
    m: usize,
    in_w: usize,
    out_w: usize,
    mut f: impl FnMut(&[f32], usize, usize, &mut [f32]),
) -> Result<(), String> {
    let mut all = vec![0.0f32; m * out_w];
    f(x, 0, m, &mut all);
    for r in 0..m {
        let mut one = vec![0.0f32; out_w];
        f(&x[r * in_w..(r + 1) * in_w], r, 1, &mut one);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        if bits(&all[r * out_w..(r + 1) * out_w]) != bits(&one) {
            return Err(format!("{what}: row {r} of {m} differs from the 1-row call"));
        }
    }
    Ok(())
}

/// Every row-wise kernel of the inference plane over `m` rows of `a`:
/// `matmul_into` at width `n` (plain `ikj`, or the narrow register-resident
/// `ikj` at n ∈ {8, 16, 24, 32}), `matmul_t_into`, `matmul_q8_into`,
/// `layer_norm_rows_inplace` and `softmax_rows_scaled_masked_inplace`.
#[allow(clippy::too_many_arguments)]
fn check_row_wise_kernels(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    scale: f32,
    mask: &[f32],
    gamma: &[f32],
    beta: &[f32],
) -> Result<(), String> {
    let (b_kn, bt_nk) = (&b[..k * n], &b[..n * k]);
    let qb = QuantizedMatrix::from_row_major(b_kn, k, n);
    let mut ws = Workspace::new();
    rows_match_single_row_calls("matmul_into", a, m, k, n, |x, _, rows, out| {
        inference::matmul_into(out, x, b_kn, rows, k, n)
    })?;
    rows_match_single_row_calls("matmul_t_into", a, m, k, n, |x, _, rows, out| {
        inference::matmul_t_into(out, x, bt_nk, rows, k, n)
    })?;
    rows_match_single_row_calls("matmul_q8_into", a, m, k, n, |x, _, rows, out| {
        inference::matmul_q8_into(out, x, &qb, rows, &mut ws)
    })?;
    rows_match_single_row_calls("layer_norm_rows_inplace", a, m, k, k, |x, _, _, out| {
        out.copy_from_slice(x);
        inference::layer_norm_rows_inplace(out, k, &gamma[..k], &beta[..k], 1e-5);
    })?;
    rows_match_single_row_calls("softmax (masked)", a, m, k, k, |x, r0, rows, out| {
        out.copy_from_slice(x);
        let mask = &mask[r0 * k..(r0 + rows) * k];
        inference::softmax_rows_scaled_masked_inplace(out, rows, k, scale, Some(mask));
    })?;
    rows_match_single_row_calls("softmax (unmasked)", a, m, k, k, |x, _, rows, out| {
        out.copy_from_slice(x);
        inference::softmax_rows_scaled_masked_inplace(out, rows, k, scale, None);
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Row `r` of an `[m, k]` call equals the `[1, k]` call on that row,
    /// bitwise, under Scalar and Simd. The widths include the narrow `ikj`
    /// widths (8, 16, 24, 32: row blocks of 8, 4, 2, 2, so most `m` leave a
    /// remainder), 64 (the general SIMD `ikj`) and odd widths.
    #[test]
    fn row_wise_kernels_give_a_row_the_same_bits_at_any_row_count(
        m in 2usize..24, k in 2usize..40, n_pick in 0usize..7, scale in 0.05f32..2.0,
        a in pool_strategy(),
        b in proptest::collection::vec(-2.0f32..2.0, 40 * 64),
        mask_bits in proptest::collection::vec(0u8..2, 24 * 40),
        gamma in proptest::collection::vec(-1.5f32..1.5, 40),
        beta in proptest::collection::vec(-1.0f32..1.0, 40),
    ) {
        let _guard = lock_backend();
        let n = [8, 16, 24, 32, 64, 5, 13][n_pick];
        let a = &a[..m * k];
        let mask: Vec<f32> = mask_bits[..m * k]
            .iter()
            .enumerate()
            .map(|(i, &bit)| if bit == 1 && i % k != 0 { -1e9 } else { 0.0 })
            .collect();
        for backend in [Backend::Scalar, Backend::Simd] {
            let res = with_backend(backend, || {
                check_row_wise_kernels(a, &b, m, k, n, scale, &mask, &gamma, &beta)
            });
            prop_assert!(res.is_ok(), "{:?}: {}", backend, res.unwrap_err());
        }
    }
}

/// Above [`BLOCKED_DISPATCH_THRESHOLD`] `matmul_into` runs the blocked,
/// threaded kernel while a single row stays on `ikj`: each row of the
/// blocked product still equals its 1-row call bitwise, under both backends.
#[test]
fn blocked_matmul_rows_match_single_row_calls() {
    let _guard = lock_backend();
    let (k, n) = (96, 96);
    let m = BLOCKED_DISPATCH_THRESHOLD.div_ceil(k * n) + 3;
    assert!(m * k * n >= BLOCKED_DISPATCH_THRESHOLD && k * n < BLOCKED_DISPATCH_THRESHOLD);
    let a: Vec<f32> = (0..m * k).map(|i| ((i * 37 % 19) as f32 - 9.0) * 0.11).collect();
    let b: Vec<f32> = (0..k * n).map(|i| ((i * 23 % 17) as f32 - 8.0) * 0.13).collect();
    for backend in [Backend::Scalar, Backend::Simd] {
        with_backend(backend, || {
            let res = rows_match_single_row_calls("blocked", &a, m, k, n, |x, _, rows, out| {
                inference::matmul_into(out, x, &b, rows, k, n)
            });
            assert!(res.is_ok(), "{backend:?}: {}", res.unwrap_err());
        });
    }
}
