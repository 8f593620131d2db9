//! The inference data plane: raw-slice forward ops for serving.
//!
//! Every scored frame used to walk the full reverse-mode [`Tensor`](crate::Tensor)
//! machinery — an `Rc<RefCell<_>>` per graph node, a freshly heap-allocated
//! `Vec<f32>` per op, parent lists and tracked-flag bookkeeping — despite
//! scoring never calling `backward`. This module is the layer that makes all
//! of that disappear: plain functions over `&[f32]`/`&mut [f32]` that write
//! into caller-provided (typically [`Workspace`](crate::workspace::Workspace)
//! -leased) buffers, with **zero** `Rc`, zero `RefCell`, and zero
//! steady-state allocation.
//!
//! ## Numerics contract (load-bearing)
//!
//! Per backend, every function here is **bit-identical** to the autograd op
//! it mirrors, because it either *is* the same code (the matmuls call the
//! same dispatching kernels in [`crate::ops::kernels`]; the grouped
//! batch-norm body is shared with `nn::norm`) or replicates the op's exact
//! arithmetic: the same `ops::simd` primitives in the same order,
//! so backend-sensitive reductions (`row_sum`, `row_dot_nofma`, the matmul
//! accumulation chains) round identically, and everything else is
//! per-lane-exact. The autograd plane remains the training/adaptation path
//! *and* the equivalence oracle — `akg-core`'s inference-vs-autograd
//! property suites assert bitwise equality under both backends.
//!
//! Convention: output buffers are zeroed by the ops that need it (matmul
//! accumulators, scatter-adds); "into" ops overwrite every element;
//! "inplace" ops transform their argument.

use crate::ops::kernels::{
    matmul_blocked_into, matmul_ikj_into, matmul_nt_into, BLOCKED_DISPATCH_THRESHOLD,
};
use crate::ops::simd;
use crate::ops::unary::{elu_scalar, gelu_scalar};

/// Matrix product `[m,k] × [k,n] → [m,n]` into `out`, with the same
/// problem-size dispatch as [`Tensor::matmul`](crate::Tensor::matmul)
/// (in-order `ikj` below [`BLOCKED_DISPATCH_THRESHOLD`] flops, the blocked
/// threaded kernel above it) — bit-identical to the autograd op per backend.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
///
/// # Examples
///
/// ```
/// use akg_tensor::inference::matmul_into;
/// let mut out = [0.0f32; 4];
/// matmul_into(&mut out, &[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
/// assert_eq!(out, [19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    if m * k * n >= BLOCKED_DISPATCH_THRESHOLD {
        matmul_blocked_into(out, a, b, m, k, n);
    } else {
        matmul_ikj_into(out, a, b, m, k, n);
    }
}

/// Transposed-RHS product `A[m,k] × Bᵀ → [m,n]` (with `b` stored `[n, k]`)
/// into `out` — the inference form of
/// [`Tensor::matmul_t`](crate::Tensor::matmul_t), used by attention's
/// `Q·Kᵀ`. Overwrites every element of `out`.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn matmul_t_into(out: &mut [f32], a: &[f32], bt: &[f32], m: usize, k: usize, n: usize) {
    matmul_nt_into(out, a, bt, m, k, n);
}

/// Int8 serving matmul `[m,k] × [k,n] → [m,n]` against a pre-quantized
/// weight: dynamically quantizes the activation rows of `a` into
/// [`Workspace`](crate::workspace::Workspace)-leased scratch (no steady-
/// state allocation — the i8/scale buffers come from the pools), then runs
/// the exact-i32 [`matmul_q8_nt_into`](crate::ops::kernels::matmul_q8_nt_into)
/// kernel. Unlike the f32 matmuls' per-backend bit-identity to autograd,
/// this path is **bit-identical across backends** but deliberately diverges
/// from f32 by the quantization error bounded in [`crate::quant`].
///
/// # Panics
///
/// Panics if `a.len() != m * qb.k()` or `out.len() != m * qb.n()`.
pub fn matmul_q8_into(
    out: &mut [f32],
    a: &[f32],
    qb: &crate::quant::QuantizedMatrix,
    m: usize,
    ws: &mut crate::workspace::Workspace,
) {
    let (k, n) = (qb.k(), qb.n());
    let mut qa = ws.lease_i8(m * k);
    let mut a_scales = ws.lease(m);
    crate::ops::kernels::matmul_q8_into(
        out,
        a,
        qb.data(),
        qb.scales(),
        m,
        k,
        n,
        &mut qa,
        &mut a_scales,
    );
    ws.release_i8(qa);
    ws.release(a_scales);
}

/// Adds a length-`n` bias vector to every row of the `[rows, n]` matrix in
/// `x` — the forward of [`Tensor::add_bias`](crate::Tensor::add_bias), same
/// per-element arithmetic.
///
/// # Panics
///
/// Panics if `x.len()` is not a multiple of `n` or `bias.len() != n`.
pub fn add_bias_rows(x: &mut [f32], bias: &[f32], n: usize) {
    assert_eq!(bias.len(), n, "add_bias_rows: bias must be [n]");
    assert!(x.len().is_multiple_of(n.max(1)), "add_bias_rows: x is not rows × n");
    for row in x.chunks_exact_mut(n) {
        for (o, b) in row.iter_mut().zip(bias) {
            *o += b;
        }
    }
}

/// Scales row `r` of the `[rows, n]` matrix in `x` by `factors[r]` — the
/// forward of [`Tensor::scale_rows`](crate::Tensor::scale_rows).
///
/// # Panics
///
/// Panics if `x.len() != factors.len() * n`.
pub fn scale_rows_inplace(x: &mut [f32], factors: &[f32], n: usize) {
    assert_eq!(x.len(), factors.len() * n, "scale_rows_inplace: x is not factors.len() × n");
    for (row, &f) in x.chunks_exact_mut(n).zip(factors) {
        for v in row.iter_mut() {
            *v *= f;
        }
    }
}

/// `out += x` elementwise (lane-exact under both backends) — the forward of
/// [`Tensor::add`](crate::Tensor::add) with the sum landing in `out`.
///
/// # Panics
///
/// Panics (debug) on length mismatch.
pub fn add_assign(out: &mut [f32], x: &[f32]) {
    simd::vadd_assign(out, x);
}

/// `dst = a ⊙ b` elementwise (lane-exact) — the forward of
/// [`Tensor::mul`](crate::Tensor::mul) into a provided buffer.
///
/// # Panics
///
/// Panics (debug) on length mismatch.
pub fn hadamard_into(dst: &mut [f32], a: &[f32], b: &[f32]) {
    simd::vmul_into(dst, a, b);
}

/// Gathers rows of the `[_, n]` matrix `x` by index into `out` — the
/// forward of [`Tensor::index_select_rows`](crate::Tensor::index_select_rows).
///
/// # Panics
///
/// Panics if `out.len() != indices.len() * n` or an index row is out of
/// bounds of `x`.
pub fn gather_rows_into(out: &mut [f32], x: &[f32], n: usize, indices: &[usize]) {
    assert_eq!(out.len(), indices.len() * n, "gather_rows_into: out is not indices × n");
    for (o, &idx) in out.chunks_exact_mut(n).zip(indices) {
        o.copy_from_slice(&x[idx * n..(idx + 1) * n]);
    }
}

/// Scatter-adds the rows of the `[e, n]` matrix `src` into `out`
/// (`out[dst[i]] += src[i]`, source order) — the forward of
/// [`Tensor::scatter_add_rows`](crate::Tensor::scatter_add_rows). Zeroes
/// `out` first.
///
/// # Panics
///
/// Panics if `src.len() != dst.len() * n` or a destination row is out of
/// bounds of `out`.
pub fn scatter_add_rows_into(out: &mut [f32], src: &[f32], n: usize, dst: &[usize]) {
    assert_eq!(src.len(), dst.len() * n, "scatter_add_rows_into: src is not dst × n");
    out.fill(0.0);
    for (row, &d) in src.chunks_exact(n).zip(dst) {
        simd::vadd_assign(&mut out[d * n..(d + 1) * n], row);
    }
}

/// Applies ELU (`alpha = 1`) in place — the forward map of
/// [`Tensor::elu`](crate::Tensor::elu), shared scalar function.
pub fn elu_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = elu_scalar(*v, 1.0);
    }
}

/// Applies the tanh-approximated GELU in place — the forward map of
/// [`Tensor::gelu`](crate::Tensor::gelu), shared scalar function.
pub fn gelu_inplace(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = gelu_scalar(*v);
    }
}

/// Fused `softmax(x · scale + mask)` over each row of the `[m, n]` matrix in
/// `x`, in place — the forward of
/// [`Tensor::softmax_rows_scaled_masked`](crate::Tensor::softmax_rows_scaled_masked),
/// replicated primitive-for-primitive (scale and mask-add lane-exact, max
/// exact, sequential scalar exp+sum, lane-exact divide), so it is
/// bit-identical per backend.
///
/// # Panics
///
/// Panics if `x.len() != m * n` or a provided mask's length mismatches.
pub fn softmax_rows_scaled_masked_inplace(
    x: &mut [f32],
    m: usize,
    n: usize,
    scale: f32,
    mask: Option<&[f32]>,
) {
    assert_eq!(x.len(), m * n, "softmax_rows_scaled_masked_inplace: x is not m × n");
    if let Some(mk) = mask {
        assert_eq!(mk.len(), m * n, "softmax_rows_scaled_masked_inplace: mask must have m*n");
    }
    for r in 0..m {
        let row = &mut x[r * n..(r + 1) * n];
        if scale != 1.0 {
            simd::inplace_scale(row, scale);
        }
        if let Some(mk) = mask {
            simd::inplace_add(row, &mk[r * n..(r + 1) * n]);
        }
        let max = simd::row_max(row);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        simd::inplace_div_scalar(row, sum);
    }
}

/// Fused layer normalization over each `n`-wide row of `x`, in place — the
/// forward of [`Tensor::layer_norm`](crate::Tensor::layer_norm), replicated
/// primitive-for-primitive (the same canonical `row_sum`/`row_dot_nofma`
/// reductions), so it is bit-identical per backend.
///
/// # Panics
///
/// Panics if `x.len()` is not a multiple of `n`, or `gamma`/`beta` are not
/// length `n`.
pub fn layer_norm_rows_inplace(x: &mut [f32], n: usize, gamma: &[f32], beta: &[f32], eps: f32) {
    assert!(n > 0, "layer_norm_rows_inplace: rows must be non-empty");
    assert!(x.len().is_multiple_of(n), "layer_norm_rows_inplace: x is not rows × n");
    assert_eq!(gamma.len(), n, "layer_norm_rows_inplace: gamma must be [n]");
    assert_eq!(beta.len(), n, "layer_norm_rows_inplace: beta must be [n]");
    let inv_n = 1.0 / n as f32;
    for row in x.chunks_exact_mut(n) {
        let mean = simd::row_sum(row) * inv_n;
        simd::inplace_add_scalar(row, -mean);
        let var = simd::row_dot_nofma(row, row) * inv_n;
        let inv_std = 1.0 / (var + eps).sqrt();
        for (c, v) in row.iter_mut().enumerate() {
            *v = (*v * inv_std) * gamma[c] + beta[c];
        }
    }
}

/// Grouped instance normalization into `out`: the `[groups · rows, n]`
/// matrix `x` is `groups` independent row blocks, each normalized with its
/// own batch statistics. This is the *shared body* of
/// [`BatchNorm1d::forward_instance_grouped`](crate::nn::norm::BatchNorm1d::forward_instance_grouped)
/// — the autograd op delegates here, so the two planes cannot drift.
/// `mean`/`var`/`inv_std` are length-`n` scratch rows (contents ignored).
///
/// # Panics
///
/// Panics if shapes disagree, the row count is not divisible by `groups`,
/// or any block has fewer than two rows.
#[allow(clippy::too_many_arguments)]
pub fn instance_norm_grouped_into(
    out: &mut [f32],
    x: &[f32],
    groups: usize,
    n: usize,
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
    mean: &mut [f32],
    var: &mut [f32],
    inv_std: &mut [f32],
) {
    assert_eq!(out.len(), x.len(), "instance_norm_grouped_into: out/x length mismatch");
    assert!(groups > 0, "instance_norm_grouped_into: need at least one group");
    assert!(x.len().is_multiple_of(n.max(1)), "instance_norm_grouped_into: x is not rows × n");
    let rows = x.len() / n;
    assert!(
        rows.is_multiple_of(groups),
        "instance_norm_grouped_into: {rows} rows not divisible into {groups} groups"
    );
    let m = rows / groups;
    assert!(m > 1, "instance_norm_grouped_into: batch must have >1 rows");
    assert_eq!(gamma.len(), n, "instance_norm_grouped_into: gamma must be [n]");
    assert_eq!(beta.len(), n, "instance_norm_grouped_into: beta must be [n]");
    assert_eq!(mean.len(), n, "instance_norm_grouped_into: mean scratch must be [n]");
    assert_eq!(var.len(), n, "instance_norm_grouped_into: var scratch must be [n]");
    assert_eq!(inv_std.len(), n, "instance_norm_grouped_into: inv_std scratch must be [n]");
    let inv_m = 1.0 / m as f32;
    for g in 0..groups {
        let block = &x[g * m * n..(g + 1) * m * n];
        // mean: rows ascending, then scale by the reciprocal — exactly
        // `sum_axis0().mul_scalar(1/m)` under either backend (the
        // lane-parallel add keeps each column's row-ascending order).
        mean.fill(0.0);
        for r in 0..m {
            simd::vadd_assign(mean, &block[r * n..(r + 1) * n]);
        }
        simd::inplace_scale(mean, inv_m);
        // biased variance of the centered block, same op order.
        var.fill(0.0);
        for r in 0..m {
            simd::batchnorm_var_accum_row(var, &block[r * n..(r + 1) * n], mean);
        }
        simd::inplace_scale(var, inv_m);
        for (is, v) in inv_std.iter_mut().zip(var.iter()) {
            *is = 1.0 / (v + eps).sqrt();
        }
        let oblock = &mut out[g * m * n..(g + 1) * m * n];
        for r in 0..m {
            simd::batchnorm_apply_row(
                &mut oblock[r * n..(r + 1) * n],
                &block[r * n..(r + 1) * n],
                mean,
                inv_std,
                gamma,
                beta,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    fn filled(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    #[test]
    fn matmul_into_is_bit_identical_to_tensor_matmul() {
        let _guard = crate::backend::test_lock();
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (17, 33, 9), (40, 64, 96)] {
            let a = filled(m * k, |i| ((i * 37 % 19) as f32 - 9.0) * 0.11);
            let b = filled(k * n, |i| ((i * 23 % 17) as f32 - 8.0) * 0.13);
            let reference = Tensor::from_vec(a.clone(), &[m, k])
                .matmul(&Tensor::from_vec(b.clone(), &[k, n]))
                .to_vec();
            let mut out = vec![7.0f32; m * n]; // stale garbage must be cleared
            matmul_into(&mut out, &a, &b, m, k, n);
            assert_eq!(out, reference, "{m}x{k}x{n}");
        }
    }

    #[test]
    fn matmul_t_into_matches_tensor_matmul_t() {
        let _guard = crate::backend::test_lock();
        let (m, k, n) = (5, 12, 7);
        let a = filled(m * k, |i| (i as f32 * 0.3).sin());
        let bt = filled(n * k, |i| (i as f32 * 0.7).cos());
        let reference = Tensor::from_vec(a.clone(), &[m, k])
            .matmul_t(&Tensor::from_vec(bt.clone(), &[n, k]))
            .to_vec();
        let mut out = vec![0.0f32; m * n];
        matmul_t_into(&mut out, &a, &bt, m, k, n);
        assert_eq!(out, reference);
    }

    #[test]
    fn matmul_q8_into_reuses_workspace_scratch() {
        let _guard = crate::backend::test_lock();
        let (m, k, n) = (6, 24, 10);
        let a = filled(m * k, |i| ((i * 37 % 19) as f32 - 9.0) * 0.11);
        let b = filled(k * n, |i| ((i * 23 % 17) as f32 - 8.0) * 0.13);
        let qb = crate::quant::QuantizedMatrix::from_row_major(&b, k, n);
        let mut ws = crate::workspace::Workspace::new();
        let mut out = vec![0.0f32; m * n];
        matmul_q8_into(&mut out, &a, &qb, m, &mut ws);
        // Reference through the raw kernel with its own scratch.
        let mut qa = vec![0i8; m * k];
        let mut a_scales = vec![0.0f32; m];
        let mut reference = vec![0.0f32; m * n];
        crate::ops::kernels::matmul_q8_into(
            &mut reference,
            &a,
            qb.data(),
            qb.scales(),
            m,
            k,
            n,
            &mut qa,
            &mut a_scales,
        );
        assert_eq!(out, reference);
        // Steady state: repeated calls lease from the pools, never allocate.
        let created = ws.stats().buffers_created;
        for _ in 0..5 {
            matmul_q8_into(&mut out, &a, &qb, m, &mut ws);
        }
        assert_eq!(ws.stats().buffers_created, created, "q8 scratch not reused");
    }

    #[test]
    fn softmax_inplace_matches_fused_op_bitwise() {
        let _guard = crate::backend::test_lock();
        let (m, n) = (4, 9);
        let x = filled(m * n, |i| ((i * 13 % 23) as f32 - 11.0) * 0.21);
        let mask: Vec<f32> = (0..m * n).map(|i| if i % n > i / n { -1e9 } else { 0.0 }).collect();
        let reference = Tensor::from_vec(x.clone(), &[m, n])
            .softmax_rows_scaled_masked(0.37, Some(&mask))
            .to_vec();
        let mut raw = x;
        softmax_rows_scaled_masked_inplace(&mut raw, m, n, 0.37, Some(&mask));
        assert_eq!(raw, reference);
    }

    #[test]
    fn layer_norm_inplace_matches_fused_op_bitwise() {
        let _guard = crate::backend::test_lock();
        let (m, n) = (6, 11);
        let x = filled(m * n, |i| ((i * 7 % 31) as f32 - 15.0) * 0.13);
        let gamma = filled(n, |i| 0.5 + 0.1 * i as f32);
        let beta = filled(n, |i| -0.2 + 0.05 * i as f32);
        let reference = Tensor::from_vec(x.clone(), &[m, n])
            .layer_norm(
                &Tensor::from_vec(gamma.clone(), &[n]),
                &Tensor::from_vec(beta.clone(), &[n]),
                1e-5,
            )
            .to_vec();
        let mut raw = x;
        layer_norm_rows_inplace(&mut raw, n, &gamma, &beta, 1e-5);
        assert_eq!(raw, reference);
    }

    #[test]
    fn gather_scatter_match_tensor_ops_bitwise() {
        let _guard = crate::backend::test_lock();
        let (rows, n) = (7, 5);
        let x = filled(rows * n, |i| (i as f32 * 0.11).sin());
        let idx = [3usize, 0, 3, 6, 2];
        let t = Tensor::from_vec(x.clone(), &[rows, n]);
        let mut gathered = vec![0.0f32; idx.len() * n];
        gather_rows_into(&mut gathered, &x, n, &idx);
        assert_eq!(gathered, t.index_select_rows(&idx).to_vec());
        let dst = [1usize, 4, 1, 0, 2];
        let mut scattered = vec![9.0f32; rows * n];
        scatter_add_rows_into(&mut scattered, &gathered, n, &dst);
        let tg = Tensor::from_vec(gathered, &[idx.len(), n]);
        assert_eq!(scattered, tg.scatter_add_rows(&dst, rows).to_vec());
    }

    #[test]
    fn elementwise_helpers_match_tensor_ops_bitwise() {
        let _guard = crate::backend::test_lock();
        let n = 13;
        let a = filled(n, |i| ((i * 5 % 17) as f32 - 8.0) * 0.19);
        let b = filled(n, |i| ((i * 11 % 13) as f32 - 6.0) * 0.23);
        let ta = Tensor::from_vec(a.clone(), &[n]);
        let tb = Tensor::from_vec(b.clone(), &[n]);
        let mut sum = a.clone();
        add_assign(&mut sum, &b);
        assert_eq!(sum, ta.add(&tb).to_vec());
        let mut prod = vec![0.0f32; n];
        hadamard_into(&mut prod, &a, &b);
        assert_eq!(prod, ta.mul(&tb).to_vec());
        let mut e = a.clone();
        elu_inplace(&mut e);
        assert_eq!(e, ta.elu().to_vec());
        let mut g = a.clone();
        gelu_inplace(&mut g);
        assert_eq!(g, ta.gelu().to_vec());
        let m2 = Tensor::from_vec(a.clone(), &[1, n]);
        let mut biased = a.clone();
        add_bias_rows(&mut biased, &b, n);
        assert_eq!(biased, m2.add_bias(&tb).to_vec());
    }
}
