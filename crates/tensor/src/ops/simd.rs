//! AVX2+FMA implementations of the hot-path kernels, plus the safe dispatch
//! wrappers the portable ops call.
//!
//! This module is the SIMD half of the backend split described in
//! [`crate::backend`]: every function here is a *drop-in* for a scalar loop
//! somewhere in `ops/` or `nn/`, selected at runtime via
//! [`crate::backend::simd_active`]. The wrappers in the top half of the file
//! are safe and portable (they carry the scalar fallback inline, duplicated
//! from the call sites they serve so the scalar backend stays byte-identical
//! to the pre-SIMD code); the `avx` submodule at the bottom holds the
//! `unsafe` `#[target_feature(enable = "avx2,fma")]` kernels and only exists
//! on `x86_64`.
//!
//! ## Accumulation-order contract
//!
//! The SAXPY-family matmuls (`ikj`, `blocked`, `tn`) all update each output
//! element through a single fused-multiply-add chain with `k` ascending —
//! including the register-tiled microkernel inside the blocked fill and
//! every scalar tail (tails use [`f32::mul_add`], which compiles to the same
//! `vfmadd` under the `fma` target feature). That keeps
//! `matmul_blocked ≡ matmul_ikj` *bit-for-bit* under the SIMD backend, which
//! the size-dispatch in [`super::matmul`] and the batched-serving
//! equivalence suite both rely on. The SIMD SAXPY path drops the scalar
//! kernels' `a == 0.0` skip: with finite inputs `fma(0, b, acc) == acc`
//! exactly, so results agree; only non-finite propagation (documented out of
//! scope in [`super::kernels`]) differs.
//!
//! Row reductions ([`row_sum`], [`row_dot_nofma`], [`dot`]) use a fixed
//! four-lane-group accumulator pattern — deterministic, but a different
//! summation order than the sequential scalar fold, which is exactly the
//! ≤ 1e-4 SIMD-vs-scalar divergence the property suite bounds. All ops that
//! must stay bit-identical to a composed formulation under *both* backends
//! (fused softmax vs. scale→mask→softmax, grouped batch-norm vs. per-block
//! instance norm, fused layer-norm vs. its op chain) either share one
//! canonical reduction function or use only per-lane-exact operations
//! (add/sub/mul/div/max are IEEE-identical lane-wise to their scalar
//! forms).
//!
//! The layer kernels ([`try_instance_norm_grouped`] and its backward,
//! [`try_elu`]) are dispatched once per call, not once per row: the whole
//! group loop runs inside one `#[target_feature]` function. The grouped
//! norm keeps the scalar body's per-element operation sequence, all
//! lane-exact, so it is bitwise the scalar result. ELU's `eˣ` is the one
//! place SIMD swaps an algorithm: a range-reduction-plus-polynomial
//! `exp` within 1 ULP of libm on `x ≤ 0` (the tests sweep every
//! non-positive `f32`).
//!
//! The **int8 plane** ([`try_q8_nt_fill`]) is stricter still: its dot
//! products accumulate in i32, where every grouping is exact, and the final
//! f32 rescale is one identical left-to-right expression on both paths — so
//! scalar ↔ SIMD is *bit-identity*, not a bounded divergence. The AVX2
//! ladder avoids i16 saturation with a sign trick:
//! `maddubs(|x|, y·sgn(x))` keeps every 2-term pair sum within
//! `±2·127·127 = ±32258 < i16::MAX`, then `madd(·, 1)` widens to i32.

use crate::backend::simd_active;

// ---------------------------------------------------------------------------
// Matmul fills
// ---------------------------------------------------------------------------

/// SIMD whole-kernel `ikj` fill over a zeroed output. Returns `false` when
/// the SIMD backend is inactive and the caller must run the scalar fill.
pub(crate) fn try_ikj_fill(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        unsafe { avx::ikj_fill_fma(out, a, b, m, k, n) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (out, a, b, m, k, n);
    false
}

/// SIMD fill of one row-chunk of the blocked matmul (packed panel +
/// register-tiled microkernel). Returns `false` when `active` is false and
/// the caller must run the scalar fill.
///
/// `active` is the caller's *one* [`simd_active`] resolution for the whole
/// kernel invocation: the chunked kernels run this fill once per row chunk,
/// and re-reading the global here would let a concurrent `set_backend` mix
/// SIMD and scalar chunks inside a single matmul. `active` may only be true
/// when [`simd_active`] returned true (it never returns true off x86_64).
pub(crate) fn try_blocked_fill(
    active: bool,
    a: &[f32],
    b: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    chunk: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active {
        // SAFETY: `active` comes from `simd_active`, which implies AVX2+FMA
        // were detected at runtime.
        unsafe { avx::blocked_fill_fma(a, b, k, n, row0, chunk) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (active, a, b, k, n, row0, chunk);
    false
}

/// SIMD fill of one row-chunk of `matmul_nt` (dot products of contiguous
/// rows). Returns `false` when `active` is false. See [`try_blocked_fill`]
/// for the `active` contract.
pub(crate) fn try_nt_fill(
    active: bool,
    a: &[f32],
    bt: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    chunk: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active {
        // SAFETY: `active` comes from `simd_active`, which implies AVX2+FMA
        // were detected at runtime.
        unsafe { avx::nt_fill_fma(a, bt, k, n, row0, chunk) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (active, a, bt, k, n, row0, chunk);
    false
}

/// SIMD fill of one row-chunk of `matmul_q8_nt_into` (exact i32 dots of
/// contiguous int8 rows + one f32 rescale). Returns `false` when `active`
/// is false. See [`try_blocked_fill`] for the `active` contract; unlike the
/// f32 fills, this path is bit-identical to its scalar fallback (see the
/// module docs).
///
/// On CPUs with AVX-VNNI the fill runs the `vpdpbusd` microkernel instead
/// of the maddubs/madd ladder — still exact i32 accumulation, so the choice
/// is invisible to results (detection is cached by
/// `is_x86_feature_detected!`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_q8_nt_fill(
    active: bool,
    qa: &[i8],
    a_scales: &[f32],
    qbt: &[i8],
    b_scales: &[f32],
    k: usize,
    n: usize,
    row0: usize,
    chunk: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active {
        // SAFETY: `active` comes from `simd_active`, which implies AVX2+FMA
        // were detected at runtime; the VNNI leg additionally checks its own
        // feature bit.
        unsafe {
            if std::arch::is_x86_feature_detected!("avxvnni") {
                avx::q8_nt_fill_vnni(qa, a_scales, qbt, b_scales, k, n, row0, chunk);
            } else {
                avx::q8_nt_fill(qa, a_scales, qbt, b_scales, k, n, row0, chunk);
            }
        }
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (active, qa, a_scales, qbt, b_scales, k, n, row0, chunk);
    false
}

/// SIMD fill of one output row-chunk of `matmul_tn` (`Aᵀ·B` SAXPY rows).
/// Returns `false` when `active` is false. See [`try_blocked_fill`] for the
/// `active` contract.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_tn_fill(
    active: bool,
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    p0: usize,
    chunk: &mut [f32],
) -> bool {
    #[cfg(target_arch = "x86_64")]
    if active {
        // SAFETY: `active` comes from `simd_active`, which implies AVX2+FMA
        // were detected at runtime.
        unsafe { avx::tn_fill_fma(a, b, m, k, n, p0, chunk) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (active, a, b, m, k, n, p0, chunk);
    false
}

// ---------------------------------------------------------------------------
// Elementwise maps (per-lane-exact: identical results on both backends)
// ---------------------------------------------------------------------------

macro_rules! vbin {
    ($name:ident, $avx:ident, $op:tt) => {
        /// Elementwise binary map (lane-exact; slices must have equal length).
        pub(crate) fn $name(a: &[f32], b: &[f32]) -> Vec<f32> {
            debug_assert_eq!(a.len(), b.len());
            #[cfg(target_arch = "x86_64")]
            if simd_active() {
                // SAFETY: `simd_active` implies AVX2+FMA were detected.
                return unsafe { avx::$avx(a, b) };
            }
            a.iter().zip(b).map(|(x, y)| x $op y).collect()
        }
    };
}

vbin!(vadd, vadd_fma, +);
vbin!(vsub, vsub_fma, -);
vbin!(vmul, vmul_fma, *);

/// `x + s` elementwise (lane-exact).
pub(crate) fn vadd_scalar(x: &[f32], s: f32) -> Vec<f32> {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        return unsafe { avx::vadd_scalar_fma(x, s) };
    }
    x.iter().map(|v| v + s).collect()
}

/// `x * s` elementwise (lane-exact).
pub(crate) fn vmul_scalar(x: &[f32], s: f32) -> Vec<f32> {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        return unsafe { avx::vmul_scalar_fma(x, s) };
    }
    x.iter().map(|v| v * s).collect()
}

/// `|x|` elementwise (lane-exact).
pub(crate) fn vabs(x: &[f32]) -> Vec<f32> {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        return unsafe { avx::vabs_fma(x) };
    }
    x.iter().map(|v| v.abs()).collect()
}

/// `out += x` elementwise (lane-exact) — the scatter-add row primitive.
pub(crate) fn vadd_assign(out: &mut [f32], x: &[f32]) {
    debug_assert_eq!(out.len(), x.len());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        unsafe { avx::vadd_assign_fma(out, x) };
        return;
    }
    for (o, v) in out.iter_mut().zip(x) {
        *o += v;
    }
}

/// `out += a * b` elementwise, multiply-then-add without FMA contraction so
/// both backends round each product before accumulating (bit-stable vs. the
/// scalar form).
pub(crate) fn add_prod_assign(out: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(out.len(), a.len());
    debug_assert_eq!(out.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        unsafe { avx::add_prod_assign_fma(out, a, b) };
        return;
    }
    for (o, (x, y)) in out.iter_mut().zip(a.iter().zip(b)) {
        *o += x * y;
    }
}

/// `dst = a * b` elementwise into a caller-provided buffer (lane-exact).
pub(crate) fn vmul_into(dst: &mut [f32], a: &[f32], b: &[f32]) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        unsafe { avx::vmul_into_fma(dst, a, b) };
        return;
    }
    for (d, (x, y)) in dst.iter_mut().zip(a.iter().zip(b)) {
        *d = x * y;
    }
}

/// `row *= s` in place (lane-exact).
pub(crate) fn inplace_scale(row: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        unsafe { avx::inplace_scale_fma(row, s) };
        return;
    }
    for v in row.iter_mut() {
        *v *= s;
    }
}

/// `row += s` in place (lane-exact; pass `-mean` to center a row, which is
/// bitwise the same as subtracting).
pub(crate) fn inplace_add_scalar(row: &mut [f32], s: f32) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        unsafe { avx::inplace_add_scalar_fma(row, s) };
        return;
    }
    for v in row.iter_mut() {
        *v += s;
    }
}

/// `row += other` in place (lane-exact).
pub(crate) fn inplace_add(row: &mut [f32], other: &[f32]) {
    vadd_assign(row, other);
}

/// `row /= d` in place (lane-exact — IEEE division per lane rounds exactly
/// like the scalar division).
pub(crate) fn inplace_div_scalar(row: &mut [f32], d: f32) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        unsafe { avx::inplace_div_scalar_fma(row, d) };
        return;
    }
    for v in row.iter_mut() {
        *v /= d;
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Sum of a row. The canonical row reduction: every per-row sum in the crate
/// (`sum_axis1`, the fused layer-norm means) calls this one function, so ops
/// that must agree bit-for-bit with each other do, under either backend.
pub(crate) fn row_sum(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        return unsafe { avx::vsum_fma(x) };
    }
    x.iter().sum()
}

/// Dot product accumulated as round(x·y) then add — no FMA contraction — in
/// the same lane pattern as [`row_sum`], so `row_dot_nofma(x, y)` is bitwise
/// `row_sum` of the elementwise products under either backend.
pub(crate) fn row_dot_nofma(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        return unsafe { avx::vdot_nofma(x, y) };
    }
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Maximum of a row (exact under any evaluation order for finite input).
pub(crate) fn row_max(x: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        return unsafe { avx::vmax_fma(x) };
    }
    x.iter().cloned().fold(f32::NEG_INFINITY, f32::max)
}

// ---------------------------------------------------------------------------
// Fused-op bodies (softmax backward, layer-norm backward, batch-norm apply)
// ---------------------------------------------------------------------------

/// One row of the fused-softmax backward: `dx = scale · y · (g − dot)`,
/// evaluated with the scalar path's exact operation order per element.
pub(crate) fn softmax_bwd_row(dx: &mut [f32], y: &[f32], g: &[f32], dot: f32, scale: f32) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        unsafe { avx::softmax_bwd_row_fma(dx, y, g, dot, scale) };
        return;
    }
    for (d, (yv, gv)) in dx.iter_mut().zip(y.iter().zip(g)) {
        *d = scale * (yv * (gv - dot));
    }
}

/// One row of the fused layer-norm backward input gradient:
/// `dx = inv_std · (dh − mean_dh − x̂ · mean_dh_xhat)`, evaluated with the
/// scalar path's exact operation order per element.
pub(crate) fn layernorm_bwd_dx_row(
    dx: &mut [f32],
    dh: &[f32],
    xhat: &[f32],
    mean_dh: f32,
    mean_dh_xhat: f32,
    inv_std: f32,
) {
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime.
        unsafe { avx::layernorm_bwd_dx_row_fma(dx, dh, xhat, mean_dh, mean_dh_xhat, inv_std) };
        return;
    }
    for (d, (h, x)) in dx.iter_mut().zip(dh.iter().zip(xhat)) {
        *d = inv_std * (h - mean_dh - x * mean_dh_xhat);
    }
}

// ---------------------------------------------------------------------------
// Whole-call layer kernels (one dispatch per call, not per row)
// ---------------------------------------------------------------------------

/// SIMD grouped instance normalization (the body of
/// [`crate::inference::instance_norm_grouped_into`], whose shape checks the
/// caller has run). Returns `false` when the SIMD backend is inactive.
///
/// Every element sees the scalar body's exact operation sequence — column
/// sums over rows ascending, `· (1/m)`, multiply-then-add variance,
/// `1 / sqrt(var + eps)`, `((x − mean) · inv_std) · gamma + beta` — and
/// every one of those operations is per-lane exact, so the result is
/// bitwise the scalar body's. `mean`/`var`/`inv_std` receive the last
/// group's statistics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_instance_norm_grouped(
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
) -> bool {
    assert!(groups > 0 && n > 0 && x.len().is_multiple_of(groups * n), "grouped norm: x shape");
    assert_eq!(out.len(), x.len(), "grouped norm: out/x length mismatch");
    for v in [gamma, beta, &*mean, &*var, &*inv_std] {
        assert_eq!(v.len(), n, "grouped norm: per-feature vectors must be [n]");
    }
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime,
        // and the asserts above are the kernel's length contract.
        unsafe {
            avx::instance_norm_grouped_fma(out, x, groups, n, gamma, beta, eps, mean, var, inv_std)
        };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (out, x, groups, n, gamma, beta, eps, mean, var, inv_std);
    false
}

/// SIMD backward of the grouped instance normalization: fills `dx`
/// (`x.len()`) and accumulates into the zeroed `dgamma`/`dbeta` (`n`) from
/// the upstream gradient `g`, with the scalar backward's per-element
/// operation order (see `nn::norm`). Returns `false` when the SIMD backend
/// is inactive.
#[allow(clippy::too_many_arguments)]
pub(crate) fn try_instance_norm_grouped_backward(
    dx: &mut [f32],
    dgamma: &mut [f32],
    dbeta: &mut [f32],
    g: &[f32],
    x: &[f32],
    groups: usize,
    n: usize,
    gamma: &[f32],
    eps: f32,
) -> bool {
    assert!(groups > 0 && n > 0 && x.len().is_multiple_of(groups * n), "grouped norm: x shape");
    assert!(g.len() == x.len() && dx.len() == x.len(), "grouped norm: gradient length mismatch");
    for v in [&*dgamma, &*dbeta, gamma] {
        assert_eq!(v.len(), n, "grouped norm: per-feature vectors must be [n]");
    }
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime,
        // and the asserts above are the kernel's length contract.
        unsafe {
            avx::instance_norm_grouped_backward_fma(dx, dgamma, dbeta, g, x, groups, n, gamma, eps)
        };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (dx, dgamma, dbeta, g, x, groups, n, gamma, eps);
    false
}

/// SIMD ELU over a slice in place: `x` for `x > 0`, `alpha · (eˣ − 1)`
/// otherwise, with `eˣ` from the vector `avx::exp_nonpos` instead of
/// libm. When `deriv` is given it receives the derivative (`1`, or
/// `alpha · eˣ` from the same `eˣ`). Returns `false` when the SIMD backend
/// is inactive.
///
/// Each element's result depends only on its own value, never on its
/// position or the slice length: a ragged tail runs through the same
/// 8-lane body on a padded copy.
pub(crate) fn try_elu(x: &mut [f32], alpha: f32, deriv: Option<&mut [f32]>) -> bool {
    if let Some(d) = deriv.as_deref() {
        assert_eq!(d.len(), x.len(), "elu: derivative buffer length mismatch");
    }
    #[cfg(target_arch = "x86_64")]
    if simd_active() {
        // SAFETY: `simd_active` implies AVX2+FMA were detected at runtime,
        // and `deriv` is as long as `x` (asserted above).
        unsafe { avx::elu_fma(x, alpha, deriv) };
        return true;
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (x, alpha, deriv);
    false
}

// ---------------------------------------------------------------------------
// AVX2+FMA kernels (x86_64 only)
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod avx {
    use crate::ops::kernels::{KC, NC};
    use core::arch::x86_64::*;

    /// Microkernel row count: 6 rows × 2 YMM columns = 12 accumulator
    /// registers, plus two panel vectors and one broadcast — 15 of 16 YMM.
    const MR: usize = 6;

    /// Fixed-order horizontal sum of one YMM register: low128 + high128,
    /// then the SSE pairwise tree.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn hsum256(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let q = _mm_add_ps(lo, hi);
        let sh = _mm_movehl_ps(q, q);
        let s2 = _mm_add_ps(q, sh);
        let s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
        _mm_cvtss_f32(s1)
    }

    /// Horizontal max of one YMM register (exact for finite lanes).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn hmax256(v: __m256) -> f32 {
        let hi = _mm256_extractf128_ps(v, 1);
        let lo = _mm256_castps256_ps128(v);
        let q = _mm_max_ps(lo, hi);
        let sh = _mm_movehl_ps(q, q);
        let s2 = _mm_max_ps(q, sh);
        let s1 = _mm_max_ss(s2, _mm_shuffle_ps(s2, s2, 1));
        _mm_cvtss_f32(s1)
    }

    /// `out[j] = fma(a, x[j], out[j])` — one SAXPY step of the k-ascending
    /// accumulation chain. Tail lanes use `f32::mul_add`, which lowers to
    /// the same `vfmadd` under this function's `fma` feature, so an
    /// element's result never depends on whether it fell in a vector body
    /// or a tail.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub(super) unsafe fn axpy_fma(out: &mut [f32], a: f32, x: &[f32]) {
        debug_assert_eq!(out.len(), x.len());
        let n = out.len();
        let va = _mm256_set1_ps(a);
        let op = out.as_mut_ptr();
        let xp = x.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let o = _mm256_loadu_ps(op.add(j));
            let xv = _mm256_loadu_ps(xp.add(j));
            _mm256_storeu_ps(op.add(j), _mm256_fmadd_ps(va, xv, o));
            j += 8;
        }
        while j < n {
            *op.add(j) = a.mul_add(*xp.add(j), *op.add(j));
            j += 1;
        }
    }

    /// Dot product: four 8-lane FMA accumulators over 32-element chunks, one
    /// 8-lane accumulator for the 8-element remainder, fixed-order combine,
    /// then a sequential FMA tail. For rows shorter than 8 this degenerates
    /// to the exact single FMA chain the SAXPY kernels produce.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub(super) unsafe fn dot_fma(x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut j = 0;
        while j + 32 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(j)), _mm256_loadu_ps(yp.add(j)), acc0);
            acc1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(j + 8)),
                _mm256_loadu_ps(yp.add(j + 8)),
                acc1,
            );
            acc2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(j + 16)),
                _mm256_loadu_ps(yp.add(j + 16)),
                acc2,
            );
            acc3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(j + 24)),
                _mm256_loadu_ps(yp.add(j + 24)),
                acc3,
            );
            j += 32;
        }
        while j + 8 <= n {
            acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(j)), _mm256_loadu_ps(yp.add(j)), acc0);
            j += 8;
        }
        let combined = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let mut s = hsum256(combined);
        while j < n {
            s = (*xp.add(j)).mul_add(*yp.add(j), s);
            j += 1;
        }
        s
    }

    /// Whole-kernel `ikj` fill over a zeroed output: k-ascending SAXPY rows
    /// via [`axpy_fma`], no zero-coefficient skip (see the module docs).
    /// Narrow outputs (`n` ∈ {8, 16, 24, 32}, the served GNN widths) run
    /// [`ikj_narrow`] instead, which keeps each output row in registers
    /// across `k` with the same per-element FMA chain.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn ikj_fill_fma(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        match n {
            8 => ikj_narrow::<1, 8>(out, a, b, m, k),
            16 => ikj_narrow::<2, 4>(out, a, b, m, k),
            24 => ikj_narrow::<3, 2>(out, a, b, m, k),
            32 => ikj_narrow::<4, 2>(out, a, b, m, k),
            _ => ikj_fill_axpy(out, a, b, m, k, n),
        }
    }

    /// The general `ikj` fill: one [`axpy_fma`] per `(i, p)`, the output row
    /// round-tripping through memory between steps.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn ikj_fill_axpy(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        for i in 0..m {
            let orow = &mut out[i * n..(i + 1) * n];
            for p in 0..k {
                axpy_fma(orow, a[i * k + p], &b[p * n..(p + 1) * n]);
            }
        }
    }

    /// `ikj` for `n = 8·NV`: blocks of `R` output rows, each row's `NV`
    /// vectors held in YMM accumulators (loaded from `out`, so the fill
    /// still accumulates) across the whole `k` loop. Per element this is
    /// the [`ikj_fill_axpy`] chain `o = fma(a[i,p], b[p,j], o)` with `p`
    /// ascending, so the two are bitwise equal; only the loads and stores
    /// of `o` between steps are gone. `R · NV ≤ 8` leaves registers for
    /// the `NV` rhs vectors and the broadcast.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available (the lengths are asserted).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn ikj_narrow<const NV: usize, const R: usize>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
    ) {
        assert!(out.len() == m * 8 * NV && a.len() == m * k && b.len() == k * 8 * NV);
        let mut i = 0;
        while i + R <= m {
            ikj_narrow_rows::<NV, R>(out, a, b, i, k);
            i += R;
        }
        while i < m {
            ikj_narrow_rows::<NV, 1>(out, a, b, i, k);
            i += 1;
        }
    }

    /// Output rows `i0 .. i0 + R` of [`ikj_narrow`].
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available, `i0 + R ≤ m`, and the slices hold
    /// [`ikj_narrow`]'s asserted lengths.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn ikj_narrow_rows<const NV: usize, const R: usize>(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        i0: usize,
        k: usize,
    ) {
        let n = 8 * NV;
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut acc = [[_mm256_setzero_ps(); NV]; R];
        for (r, row) in acc.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(op.add((i0 + r) * n + 8 * j));
            }
        }
        for p in 0..k {
            let mut bv = [_mm256_setzero_ps(); NV];
            for (j, v) in bv.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(bp.add(p * n + 8 * j));
            }
            for (r, row) in acc.iter_mut().enumerate() {
                let va = _mm256_set1_ps(*ap.add((i0 + r) * k + p));
                for (v, bj) in row.iter_mut().zip(&bv) {
                    *v = _mm256_fmadd_ps(va, *bj, *v);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            for (j, v) in row.iter().enumerate() {
                _mm256_storeu_ps(op.add((i0 + r) * n + 8 * j), *v);
            }
        }
    }

    /// Fills one row-chunk of the blocked matmul: the same packed-panel
    /// block structure as the scalar fill, with the inner SAXPY replaced by
    /// a 6×16 register-tiled FMA microkernel (accumulators live in YMM
    /// across the whole `kc` loop — one C load/store per block instead of
    /// one per `p`).
    pub(super) unsafe fn blocked_fill_fma(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        chunk: &mut [f32],
    ) {
        // The packing panel comes from the thread-local pool so the blocked
        // kernel allocates nothing in steady state on its calling thread.
        crate::ops::kernels::with_panel(KC.min(k) * NC.min(n), |panel| {
            // SAFETY: only called with `blocked_fill_fma`'s own contract —
            // the caller detected AVX2+FMA at runtime.
            unsafe { blocked_fill_fma_panel(a, b, k, n, row0, chunk, panel) }
        });
    }

    /// The blocked fill body over a caller-provided packing panel.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn blocked_fill_fma_panel(
        a: &[f32],
        b: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        chunk: &mut [f32],
        panel: &mut [f32],
    ) {
        let rows = chunk.len() / n;
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            for jc in (0..n).step_by(NC) {
                let nc = NC.min(n - jc);
                for p in 0..kc {
                    let src = &b[(pc + p) * n + jc..(pc + p) * n + jc + nc];
                    panel[p * nc..(p + 1) * nc].copy_from_slice(src);
                }
                let mut jr = 0;
                while jr + 16 <= nc {
                    let mut ii = 0;
                    while ii + MR <= rows {
                        micro_6x16(a, chunk, k, n, row0, ii, pc, kc, jc + jr, &*panel, nc, jr);
                        ii += MR;
                    }
                    while ii < rows {
                        micro_1x16(a, chunk, k, n, row0, ii, pc, kc, jc + jr, &*panel, nc, jr);
                        ii += 1;
                    }
                    jr += 16;
                }
                while jr + 8 <= nc {
                    for ii in 0..rows {
                        micro_1x8(a, chunk, k, n, row0, ii, pc, kc, jc + jr, &*panel, nc, jr);
                    }
                    jr += 8;
                }
                if jr < nc {
                    // Scalar FMA tail columns: p-ascending per element, same
                    // chain as every vector path.
                    for ii in 0..rows {
                        let arow = &a[(row0 + ii) * k + pc..(row0 + ii) * k + pc + kc];
                        let orow = &mut chunk[ii * n + jc + jr..ii * n + jc + nc];
                        for (p, &aip) in arow.iter().enumerate() {
                            let prow = &panel[p * nc + jr..(p + 1) * nc];
                            for (o, &bv) in orow.iter_mut().zip(prow) {
                                *o = aip.mul_add(bv, *o);
                            }
                        }
                    }
                }
            }
        }
    }

    /// 6-row × 16-column microkernel tile: 12 YMM accumulators carried
    /// through the `kc` loop.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn micro_6x16(
        a: &[f32],
        chunk: &mut [f32],
        k: usize,
        n: usize,
        row0: usize,
        ii: usize,
        pc: usize,
        kc: usize,
        col: usize,
        panel: &[f32],
        nc: usize,
        jr: usize,
    ) {
        let cp = chunk.as_mut_ptr();
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        let mut acc = [[_mm256_setzero_ps(); 2]; MR];
        for (r, accr) in acc.iter_mut().enumerate() {
            let base = cp.add((ii + r) * n + col);
            accr[0] = _mm256_loadu_ps(base);
            accr[1] = _mm256_loadu_ps(base.add(8));
        }
        for p in 0..kc {
            let b0 = _mm256_loadu_ps(pp.add(p * nc + jr));
            let b1 = _mm256_loadu_ps(pp.add(p * nc + jr + 8));
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_ps(*ap.add((row0 + ii + r) * k + pc + p));
                accr[0] = _mm256_fmadd_ps(av, b0, accr[0]);
                accr[1] = _mm256_fmadd_ps(av, b1, accr[1]);
            }
        }
        for (r, accr) in acc.iter().enumerate() {
            let base = cp.add((ii + r) * n + col);
            _mm256_storeu_ps(base, accr[0]);
            _mm256_storeu_ps(base.add(8), accr[1]);
        }
    }

    /// 1-row × 16-column microkernel tile (row remainder of the 6×16 sweep).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn micro_1x16(
        a: &[f32],
        chunk: &mut [f32],
        k: usize,
        n: usize,
        row0: usize,
        ii: usize,
        pc: usize,
        kc: usize,
        col: usize,
        panel: &[f32],
        nc: usize,
        jr: usize,
    ) {
        let base = chunk.as_mut_ptr().add(ii * n + col);
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        let mut acc0 = _mm256_loadu_ps(base);
        let mut acc1 = _mm256_loadu_ps(base.add(8));
        for p in 0..kc {
            let av = _mm256_set1_ps(*ap.add((row0 + ii) * k + pc + p));
            acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pp.add(p * nc + jr)), acc0);
            acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(pp.add(p * nc + jr + 8)), acc1);
        }
        _mm256_storeu_ps(base, acc0);
        _mm256_storeu_ps(base.add(8), acc1);
    }

    /// 1-row × 8-column microkernel tile (column remainder strip).
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn micro_1x8(
        a: &[f32],
        chunk: &mut [f32],
        k: usize,
        n: usize,
        row0: usize,
        ii: usize,
        pc: usize,
        kc: usize,
        col: usize,
        panel: &[f32],
        nc: usize,
        jr: usize,
    ) {
        let base = chunk.as_mut_ptr().add(ii * n + col);
        let ap = a.as_ptr();
        let pp = panel.as_ptr();
        let mut acc = _mm256_loadu_ps(base);
        for p in 0..kc {
            let av = _mm256_set1_ps(*ap.add((row0 + ii) * k + pc + p));
            acc = _mm256_fmadd_ps(av, _mm256_loadu_ps(pp.add(p * nc + jr)), acc);
        }
        _mm256_storeu_ps(base, acc);
    }

    /// Fills one row-chunk of `matmul_nt`: each element is [`dot_fma`] of
    /// two contiguous rows. A dot length of 8 (the GNN `Linear` backward's
    /// `G·Bᵀ` at `gnn_dim` 8, and attention's `Q·Kᵀ` over all rows at `d_k`
    /// = 8) runs [`nt_narrow8`], eight outputs per vector, bitwise the same. A
    /// single row (the last-step query) keeps the per-element dots: there
    /// is nothing to spread the narrow kernel's transpose over.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn nt_fill_fma(
        a: &[f32],
        bt: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        chunk: &mut [f32],
    ) {
        if k == 8 && chunk.len() > n {
            return nt_narrow8(a, bt, n, row0, chunk);
        }
        let rows = chunk.len() / n;
        for ii in 0..rows {
            let arow = &a[(row0 + ii) * k..(row0 + ii + 1) * k];
            let orow = &mut chunk[ii * n..(ii + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot_fma(arow, &bt[j * k..(j + 1) * k]);
            }
        }
    }

    /// `matmul_nt` row-chunk for a dot length of 8, eight outputs per
    /// vector. Each block of eight `Bᵀ` rows is transposed into registers
    /// once ([`transpose8`]: `panel[l]` lane `jj` holds element `l` of row
    /// `j0 + jj`, zero past `n`), then each `A` row broadcasts its elements
    /// against it. Lane `jj` replays [`dot_fma`] of the two rows exactly:
    /// `c[l]` is its accumulator lane `l` (one FMA from zero), plus the
    /// `+0` the three empty accumulators add, summed in [`hsum256`]'s tree
    /// `((c0+c4)+(c2+c6))+((c1+c5)+(c3+c7))`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available (the lengths are asserted).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn nt_narrow8(a: &[f32], bt: &[f32], n: usize, row0: usize, chunk: &mut [f32]) {
        let k = 8;
        let rows = chunk.len() / n;
        assert!(a.len() >= (row0 + rows) * k && bt.len() == n * k && chunk.len() == rows * n);
        let zero = _mm256_setzero_ps();
        let mut j0 = 0;
        while j0 < n {
            let w = (n - j0).min(8);
            let mut panel = [zero; 8];
            for (jj, row) in panel[..w].iter_mut().enumerate() {
                *row = _mm256_loadu_ps(bt.as_ptr().add((j0 + jj) * k));
            }
            let panel = transpose8(panel);
            // Lanes `0..w` of a store: the block's columns inside `n`.
            let keep = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(w as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            for ii in 0..rows {
                let ap = a.as_ptr().add((row0 + ii) * k);
                let mut c = [zero; 8];
                for (l, cl) in c.iter_mut().enumerate() {
                    let acc = _mm256_fmadd_ps(_mm256_set1_ps(*ap.add(l)), panel[l], zero);
                    // `dot_fma`'s `(acc0 + acc1) + (acc2 + acc3)`, with
                    // `acc1..acc3` still zero.
                    *cl = _mm256_add_ps(_mm256_add_ps(acc, zero), _mm256_add_ps(zero, zero));
                }
                let s = _mm256_add_ps(
                    _mm256_add_ps(_mm256_add_ps(c[0], c[4]), _mm256_add_ps(c[2], c[6])),
                    _mm256_add_ps(_mm256_add_ps(c[1], c[5]), _mm256_add_ps(c[3], c[7])),
                );
                let dst = chunk[ii * n + j0..ii * n + j0 + w].as_mut_ptr();
                if w == 8 {
                    _mm256_storeu_ps(dst, s);
                } else {
                    // Masked-off lanes are neither written nor faulted on.
                    _mm256_maskstore_ps(dst, keep, s);
                }
            }
            j0 += 8;
        }
    }

    /// The 8×8 transpose of eight row vectors: lane `j` of output `l` is
    /// lane `l` of input `j`. Shuffles only, so every value moves exactly.
    ///
    /// # Safety
    ///
    /// AVX must be available.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t = [
            _mm256_unpacklo_ps(r[0], r[1]),
            _mm256_unpackhi_ps(r[0], r[1]),
            _mm256_unpacklo_ps(r[2], r[3]),
            _mm256_unpackhi_ps(r[2], r[3]),
            _mm256_unpacklo_ps(r[4], r[5]),
            _mm256_unpackhi_ps(r[4], r[5]),
            _mm256_unpacklo_ps(r[6], r[7]),
            _mm256_unpackhi_ps(r[6], r[7]),
        ];
        // Columns 0–3 of rows 0–3 (and, in the high half, columns 4–7).
        let lo = [
            _mm256_shuffle_ps::<0x44>(t[0], t[2]),
            _mm256_shuffle_ps::<0xEE>(t[0], t[2]),
            _mm256_shuffle_ps::<0x44>(t[1], t[3]),
            _mm256_shuffle_ps::<0xEE>(t[1], t[3]),
        ];
        // The same for rows 4–7.
        let hi = [
            _mm256_shuffle_ps::<0x44>(t[4], t[6]),
            _mm256_shuffle_ps::<0xEE>(t[4], t[6]),
            _mm256_shuffle_ps::<0x44>(t[5], t[7]),
            _mm256_shuffle_ps::<0xEE>(t[5], t[7]),
        ];
        [
            _mm256_permute2f128_ps::<0x20>(lo[0], hi[0]),
            _mm256_permute2f128_ps::<0x20>(lo[1], hi[1]),
            _mm256_permute2f128_ps::<0x20>(lo[2], hi[2]),
            _mm256_permute2f128_ps::<0x20>(lo[3], hi[3]),
            _mm256_permute2f128_ps::<0x31>(lo[0], hi[0]),
            _mm256_permute2f128_ps::<0x31>(lo[1], hi[1]),
            _mm256_permute2f128_ps::<0x31>(lo[2], hi[2]),
            _mm256_permute2f128_ps::<0x31>(lo[3], hi[3]),
        ]
    }

    /// Fixed-order horizontal sum of eight i32 lanes — exact under any
    /// order, the fixed tree is just for clarity.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn hsum256_epi32(v: __m256i) -> i32 {
        let hi = _mm256_extracti128_si256(v, 1);
        let lo = _mm256_castsi256_si128(v);
        let q = _mm_add_epi32(lo, hi);
        let s2 = _mm_add_epi32(q, _mm_shuffle_epi32(q, 0b00_00_11_10));
        let s1 = _mm_add_epi32(s2, _mm_shuffle_epi32(s2, 0b00_00_00_01));
        _mm_cvtsi128_si32(s1)
    }

    /// Int8 dot product with exact i32 accumulation — bit-identical to
    /// [`crate::ops::kernels::dot_i8`] because integer addition is
    /// associative.
    ///
    /// The 32-byte step runs the maddubs/madd ladder with the sign trick
    /// from the module docs: `|x|` as u8 (codes are ≥ −127, so `|x| ≤ 127`)
    /// times `y·sgn(x)` as i8 keeps each i16 pair sum within ±32258, then
    /// `madd(·, 1)` widens pairs into the i32 accumulator.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub(super) unsafe fn dot_q8(x: &[i8], y: &[i8]) -> i32 {
        debug_assert_eq!(x.len(), y.len());
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let ones = _mm256_set1_epi16(1);
        let mut acc = _mm256_setzero_si256();
        let mut j = 0;
        while j + 32 <= n {
            let qx = _mm256_loadu_si256(xp.add(j) as *const __m256i);
            let qy = _mm256_loadu_si256(yp.add(j) as *const __m256i);
            let ax = _mm256_sign_epi8(qx, qx);
            let sy = _mm256_sign_epi8(qy, qx);
            let pairs = _mm256_maddubs_epi16(ax, sy);
            acc = _mm256_add_epi32(acc, _mm256_madd_epi16(pairs, ones));
            j += 32;
        }
        let mut s = hsum256_epi32(acc);
        while j < n {
            s += *xp.add(j) as i32 * *yp.add(j) as i32;
            j += 1;
        }
        s
    }

    /// Output-channel block width of the ladder q8 microkernel: enough i32
    /// accumulators to amortize the lhs-chunk load (and its `|x|`
    /// derivation) across several rhs rows, small enough to stay in YMM
    /// registers alongside the shared operands.
    const Q8_NR: usize = 4;

    /// Output-channel block width of the VNNI q8 microkernel. Wider than
    /// [`Q8_NR`] because the VNNI kernel is bound by the `vpdpbusd`
    /// accumulation chain's latency, not by instruction count: eight
    /// independent accumulator chains keep the pipeline full, and eight
    /// accumulators plus the shared lhs chunk still fit the YMM file.
    const Q8_NR_VNNI: usize = 8;

    /// Rhs-row tile footprint for the q8 fills. One lhs row sweeping all
    /// `n·k` rhs bytes evicts L1 whenever the rhs outgrows it (64 KiB at
    /// 256×256), turning every inner load into an L2 hit; at int8 arithmetic
    /// density that L2 stream — not the ALUs — becomes the bound. Tiling the
    /// rhs rows to this budget and sweeping *all* lhs rows over each tile
    /// keeps the tile L1-resident (48 KiB L1d, leaving room for the lhs row
    /// and outputs). Loop interchange only regroups exactly-accumulated
    /// integer dots, so tiling is invisible to results.
    const Q8_JC_BYTES: usize = 16 * 1024;

    /// Horizontally sums eight i32 accumulators into one vector whose lane
    /// `r` is the full sum of `acc[r]` — a `hadd` tree (4+2 hadds, one
    /// cross-lane unshuffle) replacing eight scalar [`hsum256_epi32`] calls
    /// in the q8 VNNI epilogue. Integer addition is associative, so the tree
    /// regrouping is exact.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn hsum8x256_epi32(acc: [__m256i; 8]) -> __m256i {
        let s01 = _mm256_hadd_epi32(acc[0], acc[1]);
        let s23 = _mm256_hadd_epi32(acc[2], acc[3]);
        let s45 = _mm256_hadd_epi32(acc[4], acc[5]);
        let s67 = _mm256_hadd_epi32(acc[6], acc[7]);
        let s0123 = _mm256_hadd_epi32(s01, s23);
        let s4567 = _mm256_hadd_epi32(s45, s67);
        // hadd interleaves 128-bit halves: lane r's partial sums sit in the
        // low half of one permute and the high half of the other.
        let lo = _mm256_permute2x128_si256(s0123, s4567, 0x20);
        let hi = _mm256_permute2x128_si256(s0123, s4567, 0x31);
        _mm256_add_epi32(lo, hi)
    }

    /// Fills one row-chunk of `matmul_q8_nt_into` with the maddubs/madd
    /// ladder, register-blocked [`Q8_NR`] output channels at a time so each
    /// 32-byte lhs chunk (and its `|x|` form) is loaded once per block
    /// instead of once per output, and rhs-row tiled to [`Q8_JC_BYTES`] so
    /// the streamed rhs stays L1-resident. Integer accumulation is exact, so
    /// any such regrouping stays bit-identical to [`dot_q8`] and to the
    /// scalar kernel; the final rescale is the *same* left-to-right f32
    /// expression as the scalar fill.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn q8_nt_fill(
        qa: &[i8],
        a_scales: &[f32],
        qbt: &[i8],
        b_scales: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        chunk: &mut [f32],
    ) {
        let rows = chunk.len() / n;
        let kv = k & !31;
        let ones = _mm256_set1_epi16(1);
        let bp = qbt.as_ptr();
        let jc_rows = (Q8_JC_BYTES / k.max(1)).max(Q8_NR) & !(Q8_NR - 1);
        let mut jc = 0;
        while jc < n {
            let jend = (jc + jc_rows).min(n);
            for ii in 0..rows {
                let i = row0 + ii;
                let arow = &qa[i * k..(i + 1) * k];
                let ap = arow.as_ptr();
                let ascale = a_scales[i];
                let orow = &mut chunk[ii * n..(ii + 1) * n];
                let mut j = jc;
                while j + Q8_NR <= jend {
                    let mut acc = [_mm256_setzero_si256(); Q8_NR];
                    let mut p = 0;
                    while p + 32 <= k {
                        let qx = _mm256_loadu_si256(ap.add(p) as *const __m256i);
                        let ax = _mm256_sign_epi8(qx, qx);
                        for (r, accr) in acc.iter_mut().enumerate() {
                            let qy = _mm256_loadu_si256(bp.add((j + r) * k + p) as *const __m256i);
                            let sy = _mm256_sign_epi8(qy, qx);
                            let pairs = _mm256_maddubs_epi16(ax, sy);
                            *accr = _mm256_add_epi32(*accr, _mm256_madd_epi16(pairs, ones));
                        }
                        p += 32;
                    }
                    for (r, accr) in acc.iter().enumerate() {
                        let mut d = hsum256_epi32(*accr);
                        for (p, &av) in arow.iter().enumerate().skip(kv) {
                            d += av as i32 * *bp.add((j + r) * k + p) as i32;
                        }
                        orow[j + r] = d as f32 * ascale * b_scales[j + r];
                    }
                    j += Q8_NR;
                }
                while j < jend {
                    let d = dot_q8(arow, &qbt[j * k..(j + 1) * k]);
                    orow[j] = d as f32 * ascale * b_scales[j];
                    j += 1;
                }
            }
            jc = jend;
        }
    }

    std::thread_local! {
        /// Per-thread scratch holding `Σ_p qbt[j, p]` over the vectorized
        /// prefix of `k`, for the VNNI fill's bias correction. Fully
        /// rewritten by every fill call before being read, so pooling it
        /// (like `kernels::with_panel`) keeps the serving hot path
        /// allocation-free after warm-up.
        static Q8_ROWSUM: std::cell::RefCell<Vec<i32>> =
            const { std::cell::RefCell::new(Vec::new()) };
    }

    /// [`q8_nt_fill`] on AVX-VNNI hardware: `vpdpbusd` fuses the whole
    /// maddubs/madd/add ladder into one u8×i8→i32 dot-accumulate.
    ///
    /// `vpdpbusd`'s first operand is *unsigned*, so instead of the sign
    /// trick this kernel biases the lhs codes: `u = x + 128` (one XOR with
    /// 0x80, shared across the whole output-channel block), giving
    /// `Σ u·y = Σ x·y + 128·Σ y`. The correction term `Σ y` per output
    /// channel is independent of the lhs, computed once per fill into
    /// [`Q8_ROWSUM`] — also with `vpdpbusd`, against an all-ones unsigned
    /// operand. Every quantity is an exactly-accumulated integer (lane
    /// peaks stay below `k·2¹²` and dots below `k·2¹⁵`, so i32 holds any
    /// realistic `k`), hence this path is bit-identical to [`dot_q8`], the
    /// ladder fill, and the scalar kernel; the rescale expression is again
    /// identical. Like the ladder, the rhs rows are tiled to
    /// [`Q8_JC_BYTES`], and when `k` has no 32-byte tail the eight
    /// accumulators drain through [`hsum8x256_epi32`] into one vectorized
    /// rescale/store.
    #[target_feature(enable = "avx2", enable = "fma", enable = "avxvnni")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn q8_nt_fill_vnni(
        qa: &[i8],
        a_scales: &[f32],
        qbt: &[i8],
        b_scales: &[f32],
        k: usize,
        n: usize,
        row0: usize,
        chunk: &mut [f32],
    ) {
        let rows = chunk.len() / n;
        let kv = k & !31;
        let bp = qbt.as_ptr();
        Q8_ROWSUM.with(|cell| {
            let mut buf = cell.borrow_mut();
            if buf.len() < n {
                buf.resize(n, 0);
            }
            let rowsum = &mut buf[..n];
            let ones_u8 = _mm256_set1_epi8(1);
            for (j, rs) in rowsum.iter_mut().enumerate() {
                let mut acc = _mm256_setzero_si256();
                let mut p = 0;
                while p + 32 <= kv {
                    let qy = _mm256_loadu_si256(bp.add(j * k + p) as *const __m256i);
                    acc = _mm256_dpbusd_avx_epi32(acc, ones_u8, qy);
                    p += 32;
                }
                *rs = hsum256_epi32(acc);
            }
            let bias = _mm256_set1_epi8(-128);
            let jc_rows = (Q8_JC_BYTES / k.max(1)).max(Q8_NR_VNNI) & !(Q8_NR_VNNI - 1);
            let mut jc = 0;
            while jc < n {
                let jend = (jc + jc_rows).min(n);
                for ii in 0..rows {
                    let i = row0 + ii;
                    let arow = &qa[i * k..(i + 1) * k];
                    let ap = arow.as_ptr();
                    let ascale = a_scales[i];
                    let orow = &mut chunk[ii * n..(ii + 1) * n];
                    let mut j = jc;
                    while j + Q8_NR_VNNI <= jend {
                        let mut acc = [_mm256_setzero_si256(); Q8_NR_VNNI];
                        let mut p = 0;
                        while p + 32 <= k {
                            let qx = _mm256_loadu_si256(ap.add(p) as *const __m256i);
                            // x + 128 as u8 == flip the sign bit.
                            let ux = _mm256_xor_si256(qx, bias);
                            for (r, accr) in acc.iter_mut().enumerate() {
                                let qy =
                                    _mm256_loadu_si256(bp.add((j + r) * k + p) as *const __m256i);
                                *accr = _mm256_dpbusd_avx_epi32(*accr, ux, qy);
                            }
                            p += 32;
                        }
                        if kv == k {
                            // No k-tail: sum all eight accumulators with the
                            // hadd tree and rescale vectorized. `cvtepi32_ps`
                            // rounds exactly like `as f32` and the two `mul`s
                            // keep the scalar epilogue's left-to-right order,
                            // so the lanes are bit-identical to it.
                            let sums = hsum8x256_epi32(acc);
                            let rs = _mm256_loadu_si256(rowsum.as_ptr().add(j) as *const __m256i);
                            let d = _mm256_sub_epi32(sums, _mm256_slli_epi32(rs, 7));
                            let o = _mm256_mul_ps(
                                _mm256_mul_ps(_mm256_cvtepi32_ps(d), _mm256_set1_ps(ascale)),
                                _mm256_loadu_ps(b_scales.as_ptr().add(j)),
                            );
                            _mm256_storeu_ps(orow.as_mut_ptr().add(j), o);
                        } else {
                            for (r, accr) in acc.iter().enumerate() {
                                let mut d = hsum256_epi32(*accr) - 128 * rowsum[j + r];
                                for (p, &av) in arow.iter().enumerate().skip(kv) {
                                    d += av as i32 * *bp.add((j + r) * k + p) as i32;
                                }
                                orow[j + r] = d as f32 * ascale * b_scales[j + r];
                            }
                        }
                        j += Q8_NR_VNNI;
                    }
                    while j < jend {
                        let d = dot_q8(arow, &qbt[j * k..(j + 1) * k]);
                        orow[j] = d as f32 * ascale * b_scales[j];
                        j += 1;
                    }
                }
                jc = jend;
            }
        });
    }

    /// Fills one output row-chunk of `matmul_tn` with SAXPY rows (the same
    /// i-ascending accumulation as the scalar fill, minus the zero skip).
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn tn_fill_fma(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        p0: usize,
        chunk: &mut [f32],
    ) {
        let prows = chunk.len() / n;
        for i in 0..m {
            let aseg = &a[i * k + p0..i * k + p0 + prows];
            let brow = &b[i * n..(i + 1) * n];
            for (pp, &aip) in aseg.iter().enumerate() {
                axpy_fma(&mut chunk[pp * n..(pp + 1) * n], aip, brow);
            }
        }
    }

    macro_rules! avx_bin {
        ($name:ident, $lane:ident, $op:tt) => {
            #[target_feature(enable = "avx2", enable = "fma")]
            pub(super) unsafe fn $name(a: &[f32], b: &[f32]) -> Vec<f32> {
                let n = a.len();
                let mut out = vec![0.0f32; n];
                let (ap, bp, op) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
                let mut j = 0;
                while j + 8 <= n {
                    let v = $lane(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)));
                    _mm256_storeu_ps(op.add(j), v);
                    j += 8;
                }
                while j < n {
                    *op.add(j) = *ap.add(j) $op *bp.add(j);
                    j += 1;
                }
                out
            }
        };
    }

    avx_bin!(vadd_fma, _mm256_add_ps, +);
    avx_bin!(vsub_fma, _mm256_sub_ps, -);
    avx_bin!(vmul_fma, _mm256_mul_ps, *);

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn vadd_scalar_fma(x: &[f32], s: f32) -> Vec<f32> {
        let n = x.len();
        let mut out = vec![0.0f32; n];
        let vs = _mm256_set1_ps(s);
        let (xp, op) = (x.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(op.add(j), _mm256_add_ps(_mm256_loadu_ps(xp.add(j)), vs));
            j += 8;
        }
        while j < n {
            *op.add(j) = *xp.add(j) + s;
            j += 1;
        }
        out
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn vmul_scalar_fma(x: &[f32], s: f32) -> Vec<f32> {
        let n = x.len();
        let mut out = vec![0.0f32; n];
        let vs = _mm256_set1_ps(s);
        let (xp, op) = (x.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(op.add(j), _mm256_mul_ps(_mm256_loadu_ps(xp.add(j)), vs));
            j += 8;
        }
        while j < n {
            *op.add(j) = *xp.add(j) * s;
            j += 1;
        }
        out
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn vabs_fma(x: &[f32]) -> Vec<f32> {
        let n = x.len();
        let mut out = vec![0.0f32; n];
        let mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fff_ffff));
        let (xp, op) = (x.as_ptr(), out.as_mut_ptr());
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(op.add(j), _mm256_and_ps(_mm256_loadu_ps(xp.add(j)), mask));
            j += 8;
        }
        while j < n {
            *op.add(j) = (*xp.add(j)).abs();
            j += 1;
        }
        out
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn vadd_assign_fma(out: &mut [f32], x: &[f32]) {
        let n = out.len();
        let (op, xp) = (out.as_mut_ptr(), x.as_ptr());
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(op.add(j)), _mm256_loadu_ps(xp.add(j)));
            _mm256_storeu_ps(op.add(j), v);
            j += 8;
        }
        while j < n {
            *op.add(j) += *xp.add(j);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn add_prod_assign_fma(out: &mut [f32], a: &[f32], b: &[f32]) {
        let n = out.len();
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut j = 0;
        while j + 8 <= n {
            let prod = _mm256_mul_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)));
            _mm256_storeu_ps(op.add(j), _mm256_add_ps(_mm256_loadu_ps(op.add(j)), prod));
            j += 8;
        }
        while j < n {
            *op.add(j) += *ap.add(j) * *bp.add(j);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn vmul_into_fma(dst: &mut [f32], a: &[f32], b: &[f32]) {
        let n = dst.len();
        let (dp, ap, bp) = (dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_mul_ps(_mm256_loadu_ps(ap.add(j)), _mm256_loadu_ps(bp.add(j)));
            _mm256_storeu_ps(dp.add(j), v);
            j += 8;
        }
        while j < n {
            *dp.add(j) = *ap.add(j) * *bp.add(j);
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn inplace_scale_fma(row: &mut [f32], s: f32) {
        let n = row.len();
        let vs = _mm256_set1_ps(s);
        let rp = row.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(rp.add(j), _mm256_mul_ps(_mm256_loadu_ps(rp.add(j)), vs));
            j += 8;
        }
        while j < n {
            *rp.add(j) *= s;
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn inplace_add_scalar_fma(row: &mut [f32], s: f32) {
        let n = row.len();
        let vs = _mm256_set1_ps(s);
        let rp = row.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(rp.add(j), _mm256_add_ps(_mm256_loadu_ps(rp.add(j)), vs));
            j += 8;
        }
        while j < n {
            *rp.add(j) += s;
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn inplace_div_scalar_fma(row: &mut [f32], d: f32) {
        let n = row.len();
        let vd = _mm256_set1_ps(d);
        let rp = row.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            _mm256_storeu_ps(rp.add(j), _mm256_div_ps(_mm256_loadu_ps(rp.add(j)), vd));
            j += 8;
        }
        while j < n {
            *rp.add(j) /= d;
            j += 1;
        }
    }

    /// The canonical SIMD row sum: four 8-lane accumulators over 32-element
    /// chunks, one 8-lane accumulator for the 8-element remainder,
    /// fixed-order combine, sequential tail.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub(super) unsafe fn vsum_fma(x: &[f32]) -> f32 {
        let n = x.len();
        let xp = x.as_ptr();
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut j = 0;
        while j + 32 <= n {
            acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(xp.add(j)));
            acc1 = _mm256_add_ps(acc1, _mm256_loadu_ps(xp.add(j + 8)));
            acc2 = _mm256_add_ps(acc2, _mm256_loadu_ps(xp.add(j + 16)));
            acc3 = _mm256_add_ps(acc3, _mm256_loadu_ps(xp.add(j + 24)));
            j += 32;
        }
        while j + 8 <= n {
            acc0 = _mm256_add_ps(acc0, _mm256_loadu_ps(xp.add(j)));
            j += 8;
        }
        let combined = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let mut s = hsum256(combined);
        while j < n {
            s += *xp.add(j);
            j += 1;
        }
        s
    }

    /// Multiply-then-add dot in exactly [`vsum_fma`]'s lane pattern: bitwise
    /// equal to `vsum_fma` over the pre-rounded elementwise products.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    pub(super) unsafe fn vdot_nofma(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let (xp, yp) = (x.as_ptr(), y.as_ptr());
        let mut acc0 = _mm256_setzero_ps();
        let mut acc1 = _mm256_setzero_ps();
        let mut acc2 = _mm256_setzero_ps();
        let mut acc3 = _mm256_setzero_ps();
        let mut j = 0;
        while j + 32 <= n {
            let p0 = _mm256_mul_ps(_mm256_loadu_ps(xp.add(j)), _mm256_loadu_ps(yp.add(j)));
            let p1 = _mm256_mul_ps(_mm256_loadu_ps(xp.add(j + 8)), _mm256_loadu_ps(yp.add(j + 8)));
            let p2 =
                _mm256_mul_ps(_mm256_loadu_ps(xp.add(j + 16)), _mm256_loadu_ps(yp.add(j + 16)));
            let p3 =
                _mm256_mul_ps(_mm256_loadu_ps(xp.add(j + 24)), _mm256_loadu_ps(yp.add(j + 24)));
            acc0 = _mm256_add_ps(acc0, p0);
            acc1 = _mm256_add_ps(acc1, p1);
            acc2 = _mm256_add_ps(acc2, p2);
            acc3 = _mm256_add_ps(acc3, p3);
            j += 32;
        }
        while j + 8 <= n {
            let p = _mm256_mul_ps(_mm256_loadu_ps(xp.add(j)), _mm256_loadu_ps(yp.add(j)));
            acc0 = _mm256_add_ps(acc0, p);
            j += 8;
        }
        let combined = _mm256_add_ps(_mm256_add_ps(acc0, acc1), _mm256_add_ps(acc2, acc3));
        let mut s = hsum256(combined);
        while j < n {
            s += *xp.add(j) * *yp.add(j);
            j += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn vmax_fma(x: &[f32]) -> f32 {
        let n = x.len();
        let xp = x.as_ptr();
        let mut acc = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut j = 0;
        while j + 8 <= n {
            acc = _mm256_max_ps(acc, _mm256_loadu_ps(xp.add(j)));
            j += 8;
        }
        let mut s = hmax256(acc);
        while j < n {
            s = s.max(*xp.add(j));
            j += 1;
        }
        s
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn softmax_bwd_row_fma(
        dx: &mut [f32],
        y: &[f32],
        g: &[f32],
        dot: f32,
        scale: f32,
    ) {
        let n = dx.len();
        let (dp, yp, gp) = (dx.as_mut_ptr(), y.as_ptr(), g.as_ptr());
        let vdot = _mm256_set1_ps(dot);
        let vscale = _mm256_set1_ps(scale);
        let mut j = 0;
        while j + 8 <= n {
            let inner = _mm256_sub_ps(_mm256_loadu_ps(gp.add(j)), vdot);
            let v = _mm256_mul_ps(vscale, _mm256_mul_ps(_mm256_loadu_ps(yp.add(j)), inner));
            _mm256_storeu_ps(dp.add(j), v);
            j += 8;
        }
        while j < n {
            *dp.add(j) = scale * (*yp.add(j) * (*gp.add(j) - dot));
            j += 1;
        }
    }

    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn layernorm_bwd_dx_row_fma(
        dx: &mut [f32],
        dh: &[f32],
        xhat: &[f32],
        mean_dh: f32,
        mean_dh_xhat: f32,
        inv_std: f32,
    ) {
        let n = dx.len();
        let (dp, hp, xp) = (dx.as_mut_ptr(), dh.as_ptr(), xhat.as_ptr());
        let vmean = _mm256_set1_ps(mean_dh);
        let vmx = _mm256_set1_ps(mean_dh_xhat);
        let vis = _mm256_set1_ps(inv_std);
        let mut j = 0;
        while j + 8 <= n {
            let centered = _mm256_sub_ps(_mm256_loadu_ps(hp.add(j)), vmean);
            let xterm = _mm256_mul_ps(_mm256_loadu_ps(xp.add(j)), vmx);
            let v = _mm256_mul_ps(vis, _mm256_sub_ps(centered, xterm));
            _mm256_storeu_ps(dp.add(j), v);
            j += 8;
        }
        while j < n {
            *dp.add(j) = inv_std * (*hp.add(j) - mean_dh - *xp.add(j) * mean_dh_xhat);
            j += 1;
        }
    }

    /// Column statistics of the 8 columns at `c` over the `m` rows of `n`
    /// values at `xb`: `(mean, var, 1/sqrt(var + eps))`, with the mean and
    /// biased variance summed over rows ascending (multiply-then-add) and
    /// scaled by `inv_m`, as the scalar grouped-norm body computes them.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; `xb` points at `m · n` readable
    /// values and `c + 8 ≤ n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn col_stats8(
        xb: *const f32,
        m: usize,
        n: usize,
        c: usize,
        inv_m: f32,
        eps: f32,
    ) -> (__m256, __m256, __m256) {
        let vinv_m = _mm256_set1_ps(inv_m);
        let mut sum = _mm256_setzero_ps();
        for r in 0..m {
            sum = _mm256_add_ps(sum, _mm256_loadu_ps(xb.add(r * n + c)));
        }
        let mu = _mm256_mul_ps(sum, vinv_m);
        let mut sq = _mm256_setzero_ps();
        for r in 0..m {
            let centered = _mm256_sub_ps(_mm256_loadu_ps(xb.add(r * n + c)), mu);
            sq = _mm256_add_ps(sq, _mm256_mul_ps(centered, centered));
        }
        let va = _mm256_mul_ps(sq, vinv_m);
        let sd = _mm256_sqrt_ps(_mm256_add_ps(va, _mm256_set1_ps(eps)));
        (mu, va, _mm256_div_ps(_mm256_set1_ps(1.0), sd))
    }

    /// [`col_stats8`] for the single column `c` (the ragged `n % 8` tail).
    ///
    /// # Safety
    ///
    /// `xb` points at `m · n` readable values and `c < n`.
    #[inline]
    unsafe fn col_stats1(
        xb: *const f32,
        m: usize,
        n: usize,
        c: usize,
        inv_m: f32,
        eps: f32,
    ) -> (f32, f32, f32) {
        let mut sum = 0.0f32;
        for r in 0..m {
            sum += *xb.add(r * n + c);
        }
        let mu = sum * inv_m;
        let mut sq = 0.0f32;
        for r in 0..m {
            let centered = *xb.add(r * n + c) - mu;
            sq += centered * centered;
        }
        let va = sq * inv_m;
        (mu, va, 1.0 / (va + eps).sqrt())
    }

    /// The grouped instance-norm forward, one call for all groups: per
    /// 8-column chunk the column sums, variance and normalization run with
    /// the statistics in YMM registers; ragged columns (`n % 8`) run the
    /// same expressions in scalar. Row order and every operation match the
    /// scalar body (see [`super::try_instance_norm_grouped`]).
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; `x` and `out` hold `groups · m · n`
    /// values for some `m ≥ 1`, and `gamma`, `beta`, `mean`, `var` and
    /// `inv_std` hold `n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn instance_norm_grouped_fma(
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
        let m = x.len() / (groups * n);
        let inv_m = 1.0 / m as f32;
        for g in 0..groups {
            let xb = x.as_ptr().add(g * m * n);
            let ob = out.as_mut_ptr().add(g * m * n);
            let mut c = 0;
            while c + 8 <= n {
                let (mu, va, is) = col_stats8(xb, m, n, c, inv_m, eps);
                let (ga, be) =
                    (_mm256_loadu_ps(gamma.as_ptr().add(c)), _mm256_loadu_ps(beta.as_ptr().add(c)));
                for r in 0..m {
                    let centered = _mm256_sub_ps(_mm256_loadu_ps(xb.add(r * n + c)), mu);
                    let scaled = _mm256_mul_ps(_mm256_mul_ps(centered, is), ga);
                    _mm256_storeu_ps(ob.add(r * n + c), _mm256_add_ps(scaled, be));
                }
                _mm256_storeu_ps(mean.as_mut_ptr().add(c), mu);
                _mm256_storeu_ps(var.as_mut_ptr().add(c), va);
                _mm256_storeu_ps(inv_std.as_mut_ptr().add(c), is);
                c += 8;
            }
            while c < n {
                let (mu, va, is) = col_stats1(xb, m, n, c, inv_m, eps);
                for r in 0..m {
                    let centered = *xb.add(r * n + c) - mu;
                    *ob.add(r * n + c) = ((centered * is) * gamma[c]) + beta[c];
                }
                (mean[c], var[c], inv_std[c]) = (mu, va, is);
                c += 1;
            }
        }
    }

    /// The grouped instance-norm backward, one call for all groups. Per
    /// block and 8-column chunk it recomputes the forward statistics and
    /// `x̂ = ((x − mean) · inv_std) · 1 + 0` exactly as the scalar backward
    /// obtains them (the forward body with unit scale and zero shift),
    /// accumulates `s_g = Σ g` and `s_gx = Σ g·x̂` over rows ascending
    /// (multiply-then-add), adds them into `dbeta`/`dgamma` in block order,
    /// and writes `dx = (gamma · inv_std) · ((g − s_g·(1/m)) − (x̂·s_gx)·(1/m))`.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available; `x`, `g` and `dx` hold
    /// `groups · m · n` values for some `m ≥ 1`, and `dgamma`, `dbeta` and
    /// `gamma` hold `n`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(super) unsafe fn instance_norm_grouped_backward_fma(
        dx: &mut [f32],
        dgamma: &mut [f32],
        dbeta: &mut [f32],
        g: &[f32],
        x: &[f32],
        groups: usize,
        n: usize,
        gamma: &[f32],
        eps: f32,
    ) {
        let m = x.len() / (groups * n);
        let inv_m = 1.0 / m as f32;
        let (vinv_m, one, zero) = (_mm256_set1_ps(inv_m), _mm256_set1_ps(1.0), _mm256_setzero_ps());
        for b in 0..groups {
            let xb = x.as_ptr().add(b * m * n);
            let gb = g.as_ptr().add(b * m * n);
            let db = dx.as_mut_ptr().add(b * m * n);
            let mut c = 0;
            while c + 8 <= n {
                let (mu, _, is) = col_stats8(xb, m, n, c, inv_m, eps);
                let xhat = |r: usize| {
                    let centered = _mm256_sub_ps(_mm256_loadu_ps(xb.add(r * n + c)), mu);
                    _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(centered, is), one), zero)
                };
                let (mut sg, mut sgx) = (zero, zero);
                for r in 0..m {
                    let gr = _mm256_loadu_ps(gb.add(r * n + c));
                    sg = _mm256_add_ps(sg, gr);
                    sgx = _mm256_add_ps(sgx, _mm256_mul_ps(gr, xhat(r)));
                }
                let pb = dbeta.as_mut_ptr().add(c);
                _mm256_storeu_ps(pb, _mm256_add_ps(_mm256_loadu_ps(pb), sg));
                let pg = dgamma.as_mut_ptr().add(c);
                _mm256_storeu_ps(pg, _mm256_add_ps(_mm256_loadu_ps(pg), sgx));
                let scale = _mm256_mul_ps(_mm256_loadu_ps(gamma.as_ptr().add(c)), is);
                let sg_m = _mm256_mul_ps(sg, vinv_m);
                for r in 0..m {
                    let gr = _mm256_loadu_ps(gb.add(r * n + c));
                    let xterm = _mm256_mul_ps(_mm256_mul_ps(xhat(r), sgx), vinv_m);
                    let centered = _mm256_sub_ps(_mm256_sub_ps(gr, sg_m), xterm);
                    _mm256_storeu_ps(db.add(r * n + c), _mm256_mul_ps(scale, centered));
                }
                c += 8;
            }
            while c < n {
                let (mu, _, is) = col_stats1(xb, m, n, c, inv_m, eps);
                let xhat = |r: usize| ((*xb.add(r * n + c) - mu) * is) * 1.0 + 0.0;
                let (mut sg, mut sgx) = (0.0f32, 0.0f32);
                for r in 0..m {
                    let gr = *gb.add(r * n + c);
                    sg += gr;
                    sgx += gr * xhat(r);
                }
                dbeta[c] += sg;
                dgamma[c] += sgx;
                for r in 0..m {
                    let centered = *gb.add(r * n + c) - sg * inv_m - xhat(r) * sgx * inv_m;
                    *db.add(r * n + c) = gamma[c] * is * centered;
                }
                c += 1;
            }
        }
    }

    /// Vector `eˣ` on the non-positive half-line (lanes above `0` are
    /// clamped to `0`; their results are discarded by the caller): round
    /// `x·log2(e)` to `k`, reduce `r = x − k·ln2` with a two-constant FMA
    /// Cody–Waite split, evaluate Cephes' degree-5 `expf` polynomial, and
    /// scale by `2ᵏ` in two exact power-of-two factors so that results in
    /// the subnormal range round once. Below `EXP_LO` (where `eˣ` rounds to
    /// `0`, including `−∞`) the clamp gives `0`. The clamps put the input
    /// second in `max`/`min`, which return their second operand when either
    /// is NaN, so NaN lanes stay NaN through every step.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn exp_nonpos(x: __m256) -> __m256 {
        /// `e^EXP_LO` is below half the smallest subnormal, so it rounds
        /// to `0` (the reduction keeps `k ≥ −150`).
        const EXP_LO: f32 = -104.0;
        const LN2_HI: f32 = 0.693_359_4;
        const LN2_LO: f32 = -2.121_944_4e-4;
        const P: [f32; 6] =
            [1.987_569_1e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 0.166_666_65, 0.5];
        let x = _mm256_min_ps(_mm256_setzero_ps(), _mm256_max_ps(_mm256_set1_ps(EXP_LO), x));
        let k = _mm256_round_ps(
            _mm256_mul_ps(x, _mm256_set1_ps(std::f32::consts::LOG2_E)),
            _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC,
        );
        let r = _mm256_fnmadd_ps(k, _mm256_set1_ps(LN2_HI), x);
        let r = _mm256_fnmadd_ps(k, _mm256_set1_ps(LN2_LO), r);
        let mut p = _mm256_set1_ps(P[0]);
        for &coef in &P[1..] {
            p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(coef));
        }
        let y = _mm256_add_ps(_mm256_fmadd_ps(p, _mm256_mul_ps(r, r), r), _mm256_set1_ps(1.0));
        // 2ᵏ = 2^k1 · 2^k2 with k1 = ⌊k/2⌋: both factors are normal for
        // k ∈ [−150, 0], and `y · 2^k1` is exact.
        let ki = _mm256_cvtps_epi32(k);
        let k1 = _mm256_srai_epi32(ki, 1);
        let k2 = _mm256_sub_epi32(ki, k1);
        let bias = _mm256_set1_epi32(127);
        let s1 = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(k1, bias), 23));
        let s2 = _mm256_castsi256_ps(_mm256_slli_epi32(_mm256_add_epi32(k2, bias), 23));
        _mm256_mul_ps(_mm256_mul_ps(y, s1), s2)
    }

    /// `eˣ` over a slice into `out` through [`exp_nonpos`] (padded tail) —
    /// the kernel the ULP tests sweep against libm.
    #[cfg(test)]
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn exp_nonpos_slice(out: &mut [f32], x: &[f32]) {
        for (o, xs) in out.chunks_mut(8).zip(x.chunks(8)) {
            let mut lane = [0.0f32; 8];
            lane[..xs.len()].copy_from_slice(xs);
            _mm256_storeu_ps(lane.as_mut_ptr(), exp_nonpos(_mm256_loadu_ps(lane.as_ptr())));
            o.copy_from_slice(&lane[..o.len()]);
        }
    }

    /// One 8-lane ELU step: returns `(y, dy/dx)` with `y = x` where
    /// `x > 0` (an ordered compare, so NaN takes the `eˣ` branch and stays
    /// NaN) and `alpha · (eˣ − 1)` elsewhere; the derivative is `1` or
    /// `alpha · eˣ`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[inline]
    unsafe fn elu8(x: __m256, alpha: __m256) -> (__m256, __m256) {
        let one = _mm256_set1_ps(1.0);
        let e = exp_nonpos(x);
        let pos = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_setzero_ps());
        let y = _mm256_blendv_ps(_mm256_mul_ps(alpha, _mm256_sub_ps(e, one)), x, pos);
        let d = _mm256_blendv_ps(_mm256_mul_ps(alpha, e), one, pos);
        (y, d)
    }

    /// ELU over a slice in place (see [`super::try_elu`]); the ragged tail
    /// runs through [`elu8`] on a zero-padded copy.
    ///
    /// # Safety
    ///
    /// AVX2 and FMA must be available, and `deriv`, if given, holds at
    /// least `x.len()` values.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(super) unsafe fn elu_fma(x: &mut [f32], alpha: f32, mut deriv: Option<&mut [f32]>) {
        let va = _mm256_set1_ps(alpha);
        let n = x.len();
        let xp = x.as_mut_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let (y, d) = elu8(_mm256_loadu_ps(xp.add(j)), va);
            _mm256_storeu_ps(xp.add(j), y);
            if let Some(dv) = deriv.as_deref_mut() {
                _mm256_storeu_ps(dv.as_mut_ptr().add(j), d);
            }
            j += 8;
        }
        if j < n {
            let mut lane = [0.0f32; 8];
            lane[..n - j].copy_from_slice(&x[j..]);
            let (y, d) = elu8(_mm256_loadu_ps(lane.as_ptr()), va);
            _mm256_storeu_ps(lane.as_mut_ptr(), y);
            x[j..].copy_from_slice(&lane[..n - j]);
            if let Some(dv) = deriv {
                _mm256_storeu_ps(lane.as_mut_ptr(), d);
                dv[j..].copy_from_slice(&lane[..n - j]);
            }
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::backend::simd_available;

    fn filled(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    #[test]
    fn avx_primitives_match_scalar_within_tolerance() {
        if !simd_available() {
            return;
        }
        for len in [1usize, 5, 8, 15, 31, 32, 33, 100] {
            let x = filled(len, |i| ((i * 7 % 13) as f32 - 6.0) * 0.21);
            let y = filled(len, |i| ((i * 5 % 11) as f32 - 5.0) * 0.17);
            // SAFETY: guarded by `simd_available`.
            unsafe {
                let s: f32 = x.iter().sum();
                assert!((avx::vsum_fma(&x) - s).abs() <= 1e-4 * s.abs().max(1.0), "sum len {len}");
                let d: f32 = x.iter().zip(&y).map(|(a, b)| a * b).sum();
                assert!((avx::dot_fma(&x, &y) - d).abs() <= 1e-4 * d.abs().max(1.0));
                assert!((avx::vdot_nofma(&x, &y) - d).abs() <= 1e-4 * d.abs().max(1.0));
                let mx = x.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
                assert_eq!(avx::vmax_fma(&x), mx, "max len {len}");
                let mut out = y.clone();
                avx::axpy_fma(&mut out, 0.37, &x);
                for (i, (o, (yy, xx))) in out.iter().zip(y.iter().zip(&x)).enumerate() {
                    let expect = 0.37f32.mul_add(*xx, *yy);
                    assert_eq!(*o, expect, "axpy lane {i} len {len}");
                }
            }
        }
    }

    #[test]
    fn avx_ikj_matches_scalar_reference() {
        if !simd_available() {
            return;
        }
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (9, 16, 24), (13, 40, 21)] {
            let a = filled(m * k, |i| ((i * 37 % 19) as f32 - 9.0) * 0.11);
            let b = filled(k * n, |i| ((i * 23 % 17) as f32 - 8.0) * 0.13);
            let mut fast = vec![0.0f32; m * n];
            // SAFETY: guarded by `simd_available`.
            unsafe { avx::ikj_fill_fma(&mut fast, &a, &b, m, k, n) };
            let reference = crate::ops::kernels::matmul_naive(&a, &b, m, k, n);
            for (i, (f, r)) in fast.iter().zip(&reference).enumerate() {
                assert!(
                    (f - r).abs() <= 1e-4 * r.abs().max(1.0),
                    "[{i}] {f} vs {r} at {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn avx_q8_dot_is_exactly_the_scalar_i32_dot() {
        if !simd_available() {
            return;
        }
        // Integer accumulation is exact, so the AVX2 maddubs/madd ladder
        // must equal the scalar dot *as integers* — including at the
        // saturation-hazard extremes (±127 everywhere).
        for len in [0usize, 1, 5, 31, 32, 33, 64, 100, 130] {
            let x: Vec<i8> = (0..len).map(|i| (((i * 37 + 11) % 255) as i32 - 127) as i8).collect();
            let y: Vec<i8> = (0..len).map(|i| (((i * 53 + 7) % 255) as i32 - 127) as i8).collect();
            // SAFETY: guarded by `simd_available`.
            let fast = unsafe { avx::dot_q8(&x, &y) };
            assert_eq!(fast, crate::ops::kernels::dot_i8(&x, &y), "len {len}");
            let worst_x = vec![127i8; len.max(1)];
            let worst_y = vec![-127i8; len.max(1)];
            // SAFETY: guarded by `simd_available`.
            let fast = unsafe { avx::dot_q8(&worst_x, &worst_y) };
            assert_eq!(fast, -(127i32 * 127) * len.max(1) as i32, "worst-case len {len}");
        }
    }

    /// Shapes that between them exercise every q8 fill path: k-tails
    /// (`k % 32 != 0`), the tail-free vectorized epilogue, output-channel
    /// block tails (`n % Q8_NR != 0`), and rhs tiles smaller than `n`
    /// (`512 × 67 > Q8_JC_BYTES` splits `n = 67` into multiple tiles).
    const Q8_FILL_SHAPES: [(usize, usize, usize); 4] =
        [(9, 67, 13), (4, 64, 32), (5, 512, 67), (1, 33, 8)];

    /// The q8 fill kernels' shared signature (lhs codes/scales, rhs
    /// codes/scales, `k`, `n`, `row0`, output chunk).
    type Q8Fill = unsafe fn(&[i8], &[f32], &[i8], &[f32], usize, usize, usize, &mut [f32]);

    /// Quantizes deterministic data and runs `fill` against the scalar
    /// kernel's per-element expression, asserting bitwise equality.
    fn assert_q8_fill_bit_identical(fill: Q8Fill, label: &str) {
        for (m, k, n) in Q8_FILL_SHAPES {
            let a: Vec<f32> = (0..m * k).map(|i| ((i * 41 % 29) as f32 - 14.0) * 0.05).collect();
            let b: Vec<f32> = (0..k * n).map(|i| ((i * 31 % 37) as f32 - 18.0) * 0.04).collect();
            let qb = crate::quant::QuantizedMatrix::from_row_major(&b, k, n);
            let mut qa = vec![0i8; m * k];
            let mut a_scales = vec![0.0f32; m];
            crate::quant::quantize_rows_i8(&a, m, k, &mut qa, &mut a_scales);
            let mut fast = vec![0.0f32; m * n];
            // SAFETY: callers guard on the features their `fill` needs.
            unsafe { fill(&qa, &a_scales, qb.data(), qb.scales(), k, n, 0, &mut fast) };
            let mut scalar = vec![0.0f32; m * n];
            for i in 0..m {
                for j in 0..n {
                    let d = crate::ops::kernels::dot_i8(
                        &qa[i * k..(i + 1) * k],
                        &qb.data()[j * k..(j + 1) * k],
                    );
                    scalar[i * n + j] = d as f32 * a_scales[i] * qb.scales()[j];
                }
            }
            assert_eq!(fast, scalar, "{label} diverged from scalar at {m}x{k}x{n}");
        }
    }

    #[test]
    fn avx_q8_fill_is_bit_identical_to_scalar_kernel() {
        if !simd_available() {
            return;
        }
        assert_q8_fill_bit_identical(avx::q8_nt_fill, "int8 ladder fill");
    }

    #[test]
    fn avx_q8_vnni_fill_is_bit_identical_to_scalar_kernel() {
        if !simd_available() || !std::arch::is_x86_feature_detected!("avxvnni") {
            return;
        }
        assert_q8_fill_bit_identical(avx::q8_nt_fill_vnni, "int8 VNNI fill");
    }

    #[test]
    fn narrow_ikj_is_bit_identical_to_the_axpy_chain() {
        if !simd_available() {
            return;
        }
        // The register-resident kernel must reproduce the per-(i, p)
        // `axpy_fma` chain bit for bit at every served width, for row
        // counts on and off its row-block size, and keep accumulating into
        // a non-zero output; odd widths take the axpy path itself.
        for n in [8usize, 16, 24, 32, 1, 7, 9, 13, 33] {
            for (m, k) in [(1, 1), (3, 5), (8, 32), (9, 8), (17, 130), (4, 0)] {
                let a = filled(m * k, |i| ((i * 31 % 23) as f32 - 11.0) * 0.07);
                let b = filled(k * n, |i| ((i * 29 % 19) as f32 - 9.0) * 0.09);
                let start = filled(m * n, |i| ((i * 7 % 5) as f32 - 2.0) * 0.5);
                let (mut fast, mut chain) = (start.clone(), start.clone());
                // SAFETY: guarded by `simd_available`.
                unsafe {
                    avx::ikj_fill_fma(&mut fast, &a, &b, m, k, n);
                    avx::ikj_fill_axpy(&mut chain, &a, &b, m, k, n);
                }
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&fast), bits(&chain), "narrow ikj diverged at {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn narrow_nt_is_bitwise_dot_fma_per_element() {
        if !simd_available() {
            return;
        }
        // Every output of the narrow kernel (dot length 8) must be `dot_fma`
        // of its two rows bit for bit: odd and block-multiple row and
        // column counts (a single row takes the per-element path itself),
        // chunks that start past row 0, and operands salted with ±0,
        // subnormals (products that round to −0 before the `+0`), ±inf and
        // the NaNs their products make.
        let special = [0.0, -0.0, 1e-40, -1e-40, 1e-30, -1e-30, f32::INFINITY, f32::NEG_INFINITY];
        let salted = |len: usize, salt: usize| {
            filled(len, |i| {
                if (i * 7 + salt).is_multiple_of(5) {
                    special[(i * 3 + salt) % special.len()]
                } else {
                    ((i * 31 + salt) % 23) as f32 * 0.07 - 0.8
                }
            })
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let k = 8;
        for (m, n) in [(1, 1), (3, 7), (8, 8), (9, 17), (5, 32), (17, 13)] {
            for row0 in [0, 1] {
                let a = salted((m + row0) * k, k + n);
                let bt = salted(n * k, m);
                let mut fast = vec![f32::NAN; m * n];
                // SAFETY: guarded by `simd_available`.
                unsafe { avx::nt_fill_fma(&a, &bt, k, n, row0, &mut fast) };
                let oracle: Vec<f32> = (0..m * n)
                    .map(|e| {
                        let (i, j) = (row0 + e / n, e % n);
                        // SAFETY: guarded by `simd_available`.
                        unsafe { avx::dot_fma(&a[i * k..(i + 1) * k], &bt[j * k..(j + 1) * k]) }
                    })
                    .collect();
                assert_eq!(
                    bits(&fast),
                    bits(&oracle),
                    "narrow nt diverged at m {m}, k {k}, n {n}, row0 {row0}"
                );
            }
        }
        // Every product underflows to −0: only `dot_fma`'s `+0` makes the
        // sum +0.
        let (a, bt) = (vec![-1e-30f32; 3 * k], vec![1e-30f32; 9 * k]);
        let mut fast = vec![f32::NAN; 3 * 9];
        // SAFETY: guarded by `simd_available`.
        unsafe { avx::nt_fill_fma(&a, &bt, k, 9, 0, &mut fast) };
        // SAFETY: guarded by `simd_available`.
        let oracle = unsafe { avx::dot_fma(&a[..k], &bt[..k]) };
        assert_eq!(oracle.to_bits(), 0, "dot_fma of underflowing products is +0");
        assert_eq!(bits(&fast), vec![0u32; 3 * 9], "narrow nt lost the +0");
    }

    /// ULP distance between two non-negative floats (their bit patterns
    /// order like their values).
    fn ulps(a: f32, b: f32) -> u32 {
        a.to_bits().abs_diff(b.to_bits())
    }

    /// The most the vector `exp` may differ from libm on `x ≤ 0`, in ULPs
    /// of the result (the exhaustive sweep below measures the actual
    /// maximum).
    const EXP_MAX_ULPS: u32 = 1;

    /// The worst ULP gap between the vector `exp` and libm over `xs`
    /// (all `≤ 0` or NaN), or the first violation: a gap above
    /// [`EXP_MAX_ULPS`], or a NaN input that does not come out NaN.
    fn exp_gap(xs: &[f32]) -> Result<u32, String> {
        let mut out = vec![0.0f32; xs.len()];
        // SAFETY: callers guard on `simd_available`.
        unsafe { avx::exp_nonpos_slice(&mut out, xs) };
        let mut worst = 0;
        for (x, e) in xs.iter().zip(&out) {
            if x.is_nan() {
                if !e.is_nan() {
                    return Err(format!("exp(NaN) = {e:e}"));
                }
                continue;
            }
            let gap = ulps(*e, x.exp());
            if gap > EXP_MAX_ULPS {
                return Err(format!("exp({x:e}) = {e:e}, libm {:e}: {gap} ulps", x.exp()));
            }
            worst = worst.max(gap);
        }
        Ok(worst)
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Bit patterns uniform over `[−0, −∞]` (tiny, subnormal, huge and
        /// clamped magnitudes alike) and values uniform over the range
        /// where `eˣ` is representable.
        #[test]
        fn simd_exp_within_ulps_of_libm_for_nonpositive(
            bits in proptest::collection::vec(0x8000_0000u32..=0xFF80_0000, 64),
            values in proptest::collection::vec(-104.0f32..=0.0, 64),
        ) {
            if !simd_available() {
                return Ok(());
            }
            let xs: Vec<f32> = bits.iter().map(|b| f32::from_bits(*b)).collect();
            let gap = exp_gap(&xs).and_then(|_| exp_gap(&values));
            proptest::prop_assert!(gap.is_ok(), "{}", gap.unwrap_err());
        }
    }

    #[test]
    fn simd_exp_edge_cases() {
        if !simd_available() {
            return;
        }
        let xs = [
            0.0,
            -0.0,
            -f32::from_bits(1),
            -f32::MIN_POSITIVE,
            -1e-30,
            -87.5,
            -103.9,
            -104.0,
            -1e30,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        let mut out = [0.0f32; 12];
        // SAFETY: guarded by `simd_available`.
        unsafe { avx::exp_nonpos_slice(&mut out, &xs) };
        assert_eq!(&out[..4], &[1.0; 4], "exp of ±0 and subnormals must be exactly 1");
        assert_eq!(out[8].to_bits(), 0, "exp(−1e30) must be +0");
        assert_eq!(out[9].to_bits(), 0, "exp(−∞) must be +0");
        assert!(out[10].is_nan() && out[11].is_nan(), "NaN must stay NaN: {out:?}");
        assert!(exp_gap(&xs).is_ok(), "{}", exp_gap(&xs).unwrap_err());
    }

    #[test]
    #[ignore = "sweeps all 2^31 non-positive f32 bit patterns against libm; run in release"]
    fn simd_exp_exhaustive_nonpositive_sweep() {
        if !simd_available() {
            return;
        }
        let mut xs = vec![0.0f32; 1 << 16];
        let mut worst = 0;
        for hi in 0x8000u32..=0xFFFF {
            for (lo, x) in xs.iter_mut().enumerate() {
                *x = f32::from_bits(hi << 16 | lo as u32);
            }
            worst = worst.max(exp_gap(&xs).unwrap_or_else(|e| panic!("{e}")));
        }
        eprintln!("vector exp vs libm on x ≤ 0: worst gap {worst} ulps");
    }

    #[test]
    fn avx_blocked_fill_is_bit_identical_to_avx_ikj() {
        if !simd_available() {
            return;
        }
        // The invariant the size dispatch and the batched-serving
        // equivalence rest on: under SIMD, the blocked microkernel and the
        // SAXPY ikj kernel produce the same bits.
        for (m, k, n) in [(7, 33, 25), (65, 130, 195), (12, 200, 17), (70, 64, 256)] {
            let a = filled(m * k, |i| ((i * 31 % 23) as f32 - 11.0) * 0.07);
            let b = filled(k * n, |i| ((i * 29 % 19) as f32 - 9.0) * 0.09);
            let mut blocked = vec![0.0f32; m * n];
            let mut ikj = vec![0.0f32; m * n];
            // SAFETY: guarded by `simd_available`.
            unsafe {
                avx::blocked_fill_fma(&a, &b, k, n, 0, &mut blocked);
                avx::ikj_fill_fma(&mut ikj, &a, &b, m, k, n);
            }
            assert_eq!(blocked, ikj, "microkernel diverged at {m}x{k}x{n}");
        }
    }
}
