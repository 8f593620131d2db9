//! Raw matrix-multiplication kernels: the naive reference, the seed's
//! cache-aware loop ordering, and the cache-blocked, panel-packed,
//! multi-threaded kernel that [`Tensor::matmul`](crate::Tensor::matmul)
//! dispatches to for large operands.
//!
//! Every kernel has two implementations behind the process-wide
//! [`Backend`](crate::backend::Backend) switch: the portable scalar loops in
//! this file (slice-to-slice SAXPY updates that LLVM auto-vectorizes for the
//! baseline target) and, on AVX2+FMA hardware, the explicit
//! `std::arch` kernels in the private `ops::simd` module — an 8-wide FMA SAXPY for the
//! `ikj`/`tn` family (with the output rows held in registers across `k`
//! when `n` is 8, 16, 24 or 32, the served GNN widths), a 6×16
//! register-tiled microkernel inside the blocked fill, and an `nt` kernel
//! that computes eight outputs per vector when the dot length is 8
//! (bitwise the per-element dot product it replaces). Dispatch is a
//! single runtime check per kernel call; see `docs/PERFORMANCE.md` for the
//! design and the measured effect.
//!
//! ## Determinism and accuracy
//!
//! Each output element is accumulated by exactly one thread with a fixed
//! arithmetic order, so every kernel here is bit-for-bit deterministic
//! across runs *and* across thread counts, under either backend.
//! [`matmul_blocked`] accumulates the `k` dimension in the same ascending
//! order as the reference kernels — per backend it is *bit-identical* to
//! [`matmul_ikj`] (the SIMD microkernel keeps the same single FMA chain per
//! element), so results never change when a product crosses the
//! size-dispatch threshold. Against [`matmul_naive`] the scalar kernels
//! agree to within a few ULPs; the SIMD kernels contract multiply-add pairs
//! with FMA and reorder dot-product reductions deterministically, staying
//! inside the 1e-4 property-tested tolerance for normalized network
//! activations (`tests/proptest_kernels.rs`).
//!
//! All kernels assume *finite* inputs. The scalar SAXPY kernels
//! ([`matmul_ikj`], [`matmul_blocked`], [`matmul_tn`]) skip zero-coefficient
//! updates — the seed kernel's convention — which drops `0·Inf` / `0·NaN`
//! terms; the dot-product path [`matmul_nt`] and all SIMD paths include
//! every term (for finite inputs `fma(0, b, acc) == acc`, so the skip is
//! unobservable there), so they propagate NaN from such products.

use crate::ops::simd;
use crate::par::for_each_row_chunk;

/// Rows per k-dimension panel: 128 rows × 4 B × NC cols keeps one packed
/// panel (≤ 96 KiB) inside a typical 256 KiB-per-core L2 slice with room
/// for the A rows and output rows streaming through.
pub(crate) const KC: usize = 128;
/// Columns per packed panel (192 cols × 4 B = 768 B per panel row — three
/// quarters of a 1 KiB stride, chosen so panel rows never alias the same L1
/// set as the output row being accumulated; also a multiple of the SIMD
/// microkernel's 16-column tile).
pub(crate) const NC: usize = 192;
/// Flop-count threshold (`m·k·n`) at or above which
/// [`crate::Tensor::matmul`] switches from the in-order `ikj` kernel to the
/// blocked, threaded kernel.
///
/// Originally `64³`, which `BENCH_tensor.json` showed was a regression at
/// the boundary: at exactly 64³ the blocked kernel's panel packing and
/// threading scaffolding cost ~1.6× over `ikj` (whose whole `b` operand
/// still fits in L1/L2 at that size). Raised to `96³` so every size ≤ 64³
/// routes to `ikj` while the shapes that actually benefit from packing
/// (≥ 128³, and the batched-serving stacks) keep the blocked path. Moving
/// the threshold is numerically free: per backend, [`matmul_blocked`] is
/// bit-identical to [`matmul_ikj`], so dispatch never changes results.
pub const BLOCKED_DISPATCH_THRESHOLD: usize = 96 * 96 * 96;

pub(crate) fn check_dims(a: &[f32], b: &[f32], m: usize, k: usize, n: usize, who: &str) {
    assert_eq!(a.len(), m * k, "{who}: lhs has {} elements, expected m*k = {}", a.len(), m * k);
    assert_eq!(b.len(), k * n, "{who}: rhs has {} elements, expected k*n = {}", b.len(), k * n);
}

fn check_out(out: &[f32], m: usize, n: usize, who: &str) {
    assert_eq!(out.len(), m * n, "{who}: out has {} elements, expected m*n = {}", out.len(), m * n);
}

std::thread_local! {
    /// Per-thread reusable packing panel for the blocked kernel. The panel
    /// is scratch whose packed region is fully overwritten before every
    /// read, so reuse is invisible to the numerics; pooling it removes the
    /// last steady-state allocation from the blocked matmul on its calling
    /// thread (worker threads spawned by [`crate::par::for_each_row_chunk`]
    /// are short-lived and still allocate one panel per spawn).
    static PACK_PANEL: std::cell::RefCell<Vec<f32>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Runs `f` over this thread's reusable packing panel, grown to at least
/// `len` elements. Not reentrant (the kernels never nest matmuls).
pub(crate) fn with_panel<R>(len: usize, f: impl FnOnce(&mut [f32]) -> R) -> R {
    PACK_PANEL.with(|cell| {
        let mut buf = cell.borrow_mut();
        if buf.len() < len {
            buf.resize(len, 0.0);
        }
        f(&mut buf[..len])
    })
}

/// Textbook triple-loop matrix product `[m,k] × [k,n] → [m,n]`: one dot
/// product per output element, walking a column of `b` with stride `n`.
///
/// This is the *reference* kernel — the baseline every optimized kernel is
/// benchmarked against and property-tested to match. Its strided access to
/// `b` misses cache on every inner-loop iteration once `b` outgrows L1,
/// which is exactly what [`matmul_blocked`] fixes.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
///
/// # Examples
///
/// ```
/// use akg_tensor::ops::kernels::matmul_naive;
/// let c = matmul_naive(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0], 2, 2, 2);
/// assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
/// ```
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    check_dims(a, b, m, k, n, "matmul_naive");
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            out[i * n + j] = acc;
        }
    }
    out
}

/// The seed repository's kernel: `i, p, j` loop order, accumulating
/// `a[i][p] × row_p(b)` into `row_i(out)` as a SAXPY. Streams `b` row-major
/// (cache-friendly, auto-vectorizable) but re-reads all of `b` for every
/// output row, so it degrades once `b` exceeds L2.
///
/// Kept public as a measurement baseline: `BENCH_tensor.json` records all
/// three kernels so the trajectory from naive → ikj → blocked stays visible.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
///
/// # Examples
///
/// ```
/// use akg_tensor::ops::kernels::{matmul_ikj, matmul_naive};
/// let (a, b) = ([1.0, -2.0, 0.5, 3.0], [2.0, 1.0, -1.0, 4.0]);
/// assert_eq!(matmul_ikj(&a, &b, 2, 2, 2), matmul_naive(&a, &b, 2, 2, 2));
/// ```
pub fn matmul_ikj(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    check_dims(a, b, m, k, n, "matmul_ikj");
    let mut out = vec![0.0f32; m * n];
    ikj_fill(&mut out, a, b, m, k, n);
    out
}

/// [`matmul_ikj`] writing into a caller-provided buffer (zeroed here) — the
/// allocation-free form the inference data plane uses. Bit-identical to the
/// allocating form under either backend.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn matmul_ikj_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, m, k, n, "matmul_ikj_into");
    check_out(out, m, n, "matmul_ikj_into");
    out.fill(0.0);
    ikj_fill(out, a, b, m, k, n);
}

/// The shared `ikj` kernel body over a zeroed output buffer.
fn ikj_fill(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    if simd::try_ikj_fill(out, a, b, m, k, n) {
        return;
    }
    for i in 0..m {
        let orow = &mut out[i * n..(i + 1) * n];
        for p in 0..k {
            let aip = a[i * k + p];
            if aip == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, bv) in orow.iter_mut().zip(brow) {
                *o += aip * bv;
            }
        }
    }
}

/// Cache-blocked, panel-packed, row-parallel matrix product
/// `[m,k] × [k,n] → [m,n]` — the hot-path kernel behind
/// [`Tensor::matmul`](crate::Tensor::matmul) for large operands.
///
/// For each `KC × NC` block of `b`, the block is packed into a contiguous
/// per-thread panel once and then reused across a whole strip of output
/// rows, turning the inner loop into a SAXPY over two L1-resident slices.
/// Output rows are split into contiguous strips across the configured
/// [`Parallelism`](crate::par::Parallelism) worker threads; each element is
/// accumulated over `k` in ascending order by exactly one thread, so the
/// result is bit-for-bit deterministic at any thread count.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
///
/// # Examples
///
/// ```
/// use akg_tensor::ops::kernels::{matmul_blocked, matmul_naive};
/// let a: Vec<f32> = (0..6).map(|v| v as f32 * 0.25).collect();
/// let b: Vec<f32> = (0..12).map(|v| 1.0 - v as f32 * 0.125).collect();
/// let fast = matmul_blocked(&a, &b, 2, 3, 4);
/// let slow = matmul_naive(&a, &b, 2, 3, 4);
/// for (f, s) in fast.iter().zip(&slow) {
///     assert!((f - s).abs() < 1e-6);
/// }
/// ```
pub fn matmul_blocked(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    check_dims(a, b, m, k, n, "matmul_blocked");
    let mut out = vec![0.0f32; m * n];
    blocked_fill(&mut out, a, b, m, k, n);
    out
}

/// [`matmul_blocked`] writing into a caller-provided buffer (zeroed here) —
/// the allocation-free form the inference data plane uses. Bit-identical to
/// the allocating form under either backend.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
pub fn matmul_blocked_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, m, k, n, "matmul_blocked_into");
    check_out(out, m, n, "matmul_blocked_into");
    out.fill(0.0);
    blocked_fill(out, a, b, m, k, n);
}

/// The shared blocked-kernel body over a zeroed output buffer.
fn blocked_fill(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Resolve the backend once for the whole kernel call: chunks of one
    // matmul must never mix SIMD and scalar arithmetic, even if another
    // thread re-configures the backend mid-call.
    let use_simd = crate::backend::simd_active();
    for_each_row_chunk(out, m, n, k * n, |row0, chunk| {
        if simd::try_blocked_fill(use_simd, a, b, k, n, row0, chunk) {
            return;
        }
        let rows = chunk.len() / n;
        with_panel(KC.min(k) * NC.min(n), |panel| {
            // k-blocks ascending on the outside keeps the per-element
            // accumulation order identical to the reference kernels.
            for pc in (0..k).step_by(KC) {
                let kc = KC.min(k - pc);
                for jc in (0..n).step_by(NC) {
                    let nc = NC.min(n - jc);
                    // Pack the KC×NC block of b into a contiguous panel.
                    for p in 0..kc {
                        let src = &b[(pc + p) * n + jc..(pc + p) * n + jc + nc];
                        panel[p * nc..(p + 1) * nc].copy_from_slice(src);
                    }
                    for ii in 0..rows {
                        let arow = &a[(row0 + ii) * k + pc..(row0 + ii) * k + pc + kc];
                        let orow = &mut chunk[ii * n + jc..ii * n + jc + nc];
                        for (p, &aip) in arow.iter().enumerate() {
                            // Zero-coefficient SAXPYs are skipped, matching
                            // `matmul_ikj` exactly — the forward result must not
                            // change when a product crosses the dispatch
                            // threshold (the skip is also where they differ on
                            // non-finite inputs: 0·Inf terms are dropped).
                            if aip == 0.0 {
                                continue;
                            }
                            let prow = &panel[p * nc..(p + 1) * nc];
                            for (o, bv) in orow.iter_mut().zip(prow) {
                                *o += aip * bv;
                            }
                        }
                    }
                }
            }
        });
    });
}

/// Unrolled dot product with four deterministic partial accumulators
/// (combined low-to-high), letting LLVM keep four independent FMA chains in
/// flight.
#[inline]
fn dot_unrolled(x: &[f32], y: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let xs = &x[c * 4..c * 4 + 4];
        let ys = &y[c * 4..c * 4 + 4];
        for l in 0..4 {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (xv, yv) in x[chunks * 4..].iter().zip(&y[chunks * 4..]) {
        tail += xv * yv;
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
}

/// Transposed-input fast path `A[m,k] × Bᵀ → [m,n]` where `b` holds `B`
/// row-major with shape `[n, k]` — every output element is a dot product of
/// two *contiguous* rows, so no transpose is ever materialized.
///
/// This is the backward pass's `dA = G × Bᵀ` (and attention's `Q × Kᵀ`)
/// without the `transpose_raw` copy the seed performed. Row-parallel and
/// deterministic like [`matmul_blocked`].
///
/// # Panics
///
/// Panics if `a.len() != m*k` or `b.len() != n*k`.
///
/// # Examples
///
/// ```
/// use akg_tensor::ops::kernels::{matmul_naive, matmul_nt};
/// // B = [[1, 2], [3, 4]] stored row-major; B^T = [[1, 3], [2, 4]].
/// let c = matmul_nt(&[1.0, 0.0, 0.0, 1.0], &[1.0, 2.0, 3.0, 4.0], 2, 2, 2);
/// assert_eq!(c, matmul_naive(&[1.0, 0.0, 0.0, 1.0], &[1.0, 3.0, 2.0, 4.0], 2, 2, 2));
/// ```
pub fn matmul_nt(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "matmul_nt: lhs has {} elements, expected m*k = {}", a.len(), m * k);
    assert_eq!(b.len(), n * k, "matmul_nt: rhs has {} elements, expected n*k = {}", b.len(), n * k);
    let mut out = vec![0.0f32; m * n];
    nt_fill(&mut out, a, b, m, k, n);
    out
}

/// [`matmul_nt`] writing into a caller-provided buffer — the
/// allocation-free form the inference data plane's attention path uses.
/// Every element is overwritten (dot-product fill), so the buffer need not
/// be zeroed. Bit-identical to the allocating form under either backend.
///
/// # Panics
///
/// Panics if `a.len() != m*k`, `b.len() != n*k`, or `out.len() != m*n`.
pub fn matmul_nt_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_nt_into: lhs has {} elements, expected m*k", a.len());
    assert_eq!(b.len(), n * k, "matmul_nt_into: rhs has {} elements, expected n*k", b.len());
    check_out(out, m, n, "matmul_nt_into");
    nt_fill(out, a, b, m, k, n);
}

/// The shared `nt` kernel body (overwrites every output element).
fn nt_fill(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    // One backend resolution per call — see `matmul_blocked`.
    let use_simd = crate::backend::simd_active();
    for_each_row_chunk(out, m, n, k * n, |row0, chunk| {
        if simd::try_nt_fill(use_simd, a, b, k, n, row0, chunk) {
            return;
        }
        let rows = chunk.len() / n;
        for ii in 0..rows {
            let arow = &a[(row0 + ii) * k..(row0 + ii + 1) * k];
            let orow = &mut chunk[ii * n..(ii + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                *o = dot_unrolled(arow, &b[j * k..(j + 1) * k]);
            }
        }
    });
}

/// Unrolled int8 dot product with four i32 partial accumulators. Integer
/// accumulation is *exact*, so any regrouping (this unroll, the AVX2 ladder
/// in [`super::simd`], a plain fold) produces the same i32 — which is why
/// the int8 plane's scalar ↔ SIMD contract is bit-identity rather than a
/// bounded divergence.
#[inline]
pub(crate) fn dot_i8(x: &[i8], y: &[i8]) -> i32 {
    debug_assert_eq!(x.len(), y.len());
    let mut acc = [0i32; 4];
    let chunks = x.len() / 4;
    for c in 0..chunks {
        let xs = &x[c * 4..c * 4 + 4];
        let ys = &y[c * 4..c * 4 + 4];
        for l in 0..4 {
            acc[l] += xs[l] as i32 * ys[l] as i32;
        }
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for (xv, yv) in x[chunks * 4..].iter().zip(&y[chunks * 4..]) {
        s += *xv as i32 * *yv as i32;
    }
    s
}

/// Int8 transposed-input matmul: `qa` holds quantized `A` rows (`[m,k]`
/// int8 codes with one scale per row) and `qbt` holds quantized `Bᵀ`
/// (`[n,k]` codes with one scale per stored row — i.e. per output channel,
/// the layout [`crate::quant::QuantizedMatrix`] produces). Every output
/// element is an exact i32 dot of two contiguous int8 rows, rescaled once:
/// `out[i,j] = dot · a_scale[i] · b_scale[j]`.
///
/// Row-parallel and deterministic like [`matmul_nt`]; additionally the
/// scalar and AVX2 paths are **bit-identical** (exact integer accumulation,
/// one identical f32 rescale expression), so the int8 plane carries a
/// stronger scalar ↔ SIMD contract than the f32 kernels.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_q8_nt_into(
    out: &mut [f32],
    qa: &[i8],
    a_scales: &[f32],
    qbt: &[i8],
    b_scales: &[f32],
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(qa.len(), m * k, "matmul_q8_nt_into: lhs has {} codes, expected m*k", qa.len());
    assert_eq!(qbt.len(), n * k, "matmul_q8_nt_into: rhs has {} codes, expected n*k", qbt.len());
    assert_eq!(a_scales.len(), m, "matmul_q8_nt_into: lhs scales len != m");
    assert_eq!(b_scales.len(), n, "matmul_q8_nt_into: rhs scales len != n");
    check_out(out, m, n, "matmul_q8_nt_into");
    if m == 0 || n == 0 {
        return;
    }
    // One backend resolution per call — see `matmul_blocked`.
    let use_simd = crate::backend::simd_active();
    for_each_row_chunk(out, m, n, k * n, |row0, chunk| {
        if simd::try_q8_nt_fill(use_simd, qa, a_scales, qbt, b_scales, k, n, row0, chunk) {
            return;
        }
        let rows = chunk.len() / n;
        for ii in 0..rows {
            let i = row0 + ii;
            let arow = &qa[i * k..(i + 1) * k];
            let ascale = a_scales[i];
            let orow = &mut chunk[ii * n..(ii + 1) * n];
            for (j, o) in orow.iter_mut().enumerate() {
                let d = dot_i8(arow, &qbt[j * k..(j + 1) * k]);
                // Left-to-right, written identically in the AVX2 fill: the
                // rescale must round the same way on both backends.
                *o = d as f32 * ascale * b_scales[j];
            }
        }
    });
}

/// The int8 serving matmul: dynamically quantizes the f32 activation rows
/// `a` (symmetric per-row scales, see [`crate::quant::quantize_rows_i8`])
/// into caller-provided scratch, then runs [`matmul_q8_nt_into`] against a
/// pre-quantized weight. The scratch buffers come from the caller so the
/// hot path allocates nothing (lease them from a
/// [`Workspace`](crate::workspace::Workspace)).
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`, `k`, `n`.
#[allow(clippy::too_many_arguments)]
pub fn matmul_q8_into(
    out: &mut [f32],
    a: &[f32],
    qbt: &[i8],
    b_scales: &[f32],
    m: usize,
    k: usize,
    n: usize,
    qa_scratch: &mut [i8],
    a_scales_scratch: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "matmul_q8_into: lhs has {} elements, expected m*k", a.len());
    crate::quant::quantize_rows_i8(a, m, k, qa_scratch, a_scales_scratch);
    matmul_q8_nt_into(out, qa_scratch, a_scales_scratch, qbt, b_scales, m, k, n);
}

/// Transposed-input fast path `Aᵀ × B → [k,n]` where `a` is `[m,k]` and `b`
/// is `[m,n]`, both row-major — the backward pass's `dB = Aᵀ × G` without
/// materializing `Aᵀ`.
///
/// Row `p` of the output accumulates `a[i][p] · row_i(b)` over `i` in
/// ascending order; work is split across threads by output rows, so the
/// result is deterministic at any thread count.
///
/// # Panics
///
/// Panics if `a.len() != m*k` or `b.len() != m*n`.
///
/// # Examples
///
/// ```
/// use akg_tensor::ops::kernels::{matmul_naive, matmul_tn};
/// // A = [[1, 2]], so A^T = [[1], [2]].
/// let c = matmul_tn(&[1.0, 2.0], &[3.0, 4.0], 1, 2, 2);
/// assert_eq!(c, matmul_naive(&[1.0, 2.0], &[3.0, 4.0], 2, 1, 2));
/// ```
pub fn matmul_tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "matmul_tn: lhs has {} elements, expected m*k = {}", a.len(), m * k);
    assert_eq!(b.len(), m * n, "matmul_tn: rhs has {} elements, expected m*n = {}", b.len(), m * n);
    let mut out = vec![0.0f32; k * n];
    tn_fill(&mut out, a, b, m, k, n);
    out
}

/// [`matmul_tn`] writing into a caller-provided `[k, n]` buffer (zeroed
/// here) — the allocation-free form the attention node's backward uses.
/// Bit-identical to the allocating form under either backend.
///
/// # Panics
///
/// Panics if `a.len() != m*k`, `b.len() != m*n`, or `out.len() != k*n`.
pub(crate) fn matmul_tn_into(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_tn_into: lhs has {} elements, expected m*k", a.len());
    assert_eq!(b.len(), m * n, "matmul_tn_into: rhs has {} elements, expected m*n", b.len());
    check_out(out, k, n, "matmul_tn_into");
    out.fill(0.0);
    tn_fill(out, a, b, m, k, n);
}

/// The shared `tn` kernel body over a zeroed `[k, n]` output buffer.
fn tn_fill(out: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    if k == 0 || n == 0 {
        return;
    }
    // One backend resolution per call — see `matmul_blocked`.
    let use_simd = crate::backend::simd_active();
    for_each_row_chunk(out, k, n, m * n, |p0, chunk| {
        if simd::try_tn_fill(use_simd, a, b, m, k, n, p0, chunk) {
            return;
        }
        let prows = chunk.len() / n;
        for i in 0..m {
            // a[i][p0..p0+prows] is a contiguous row segment of A.
            let aseg = &a[i * k + p0..i * k + p0 + prows];
            let brow = &b[i * n..(i + 1) * n];
            for (pp, &aip) in aseg.iter().enumerate() {
                if aip == 0.0 {
                    continue;
                }
                let orow = &mut chunk[pp * n..(pp + 1) * n];
                for (o, bv) in orow.iter_mut().zip(brow) {
                    *o += aip * bv;
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    fn assert_close(x: &[f32], y: &[f32], tol: f32) {
        assert_eq!(x.len(), y.len());
        for (i, (a, b)) in x.iter().zip(y).enumerate() {
            assert!((a - b).abs() <= tol * a.abs().max(b.abs()).max(1.0), "[{i}] {a} vs {b}");
        }
    }

    #[test]
    fn all_kernels_agree_on_odd_sizes() {
        // Deliberately awkward dims: not multiples of any block size. The
        // 1e-5 tolerance is the documented kernel contract: under the SIMD
        // backend the FMA contraction diverges from the naive reference by
        // more than strict ULP equality but stays well inside 1e-5.
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (17, 33, 9), (65, 130, 195), (2, 200, 3)] {
            let a = filled(m * k, |i| ((i * 37 % 19) as f32 - 9.0) * 0.11);
            let b = filled(k * n, |i| ((i * 23 % 17) as f32 - 8.0) * 0.13);
            let reference = matmul_naive(&a, &b, m, k, n);
            assert_close(&matmul_ikj(&a, &b, m, k, n), &reference, 1e-5);
            assert_close(&matmul_blocked(&a, &b, m, k, n), &reference, 1e-5);
        }
    }

    #[test]
    fn blocked_is_bit_identical_to_ikj_under_active_backend() {
        // The dispatch invariant: whatever backend is active, crossing the
        // size threshold must not change a single bit. (Lock out concurrent
        // tests that flip the backend mid-comparison.)
        let _guard = crate::backend::test_lock();
        for (m, k, n) in [(3, 5, 7), (17, 33, 9), (65, 130, 195), (40, 64, 96)] {
            let a = filled(m * k, |i| ((i * 37 % 19) as f32 - 9.0) * 0.11);
            let b = filled(k * n, |i| ((i * 23 % 17) as f32 - 8.0) * 0.13);
            assert_eq!(matmul_blocked(&a, &b, m, k, n), matmul_ikj(&a, &b, m, k, n));
        }
    }

    #[test]
    fn nt_matches_naive_on_pretransposed_input() {
        let (m, k, n) = (9, 31, 14);
        let a = filled(m * k, |i| (i as f32).sin());
        let bt = filled(n * k, |i| (i as f32 * 0.3).cos());
        // Build B = (Bᵀ)ᵀ explicitly for the reference.
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        assert_close(&matmul_nt(&a, &bt, m, k, n), &matmul_naive(&a, &b, m, k, n), 1e-5);
    }

    #[test]
    fn tn_matches_naive_on_pretransposed_input() {
        let (m, k, n) = (13, 8, 21);
        let a = filled(m * k, |i| (i as f32 * 0.7).sin());
        let g = filled(m * n, |i| (i as f32 * 0.2).cos());
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        assert_close(&matmul_tn(&a, &g, m, k, n), &matmul_naive(&at, &g, k, m, n), 1e-5);
    }

    /// `m × k × n` for the thread-determinism tests: the kernels under test
    /// charge `k · n` multiply-adds per output row, and `m · k · n` is at
    /// least `7 · MIN_WORK_PER_THREAD`, so every thread count tried (2, 4, 7)
    /// really splits the `m` rows into that many chunks.
    const SPLIT_SHAPE: (usize, usize, usize) = (70, 160, 200);
    const _: () = assert!(
        SPLIT_SHAPE.0 * SPLIT_SHAPE.1 * SPLIT_SHAPE.2 >= 7 * crate::par::MIN_WORK_PER_THREAD
    );

    #[test]
    fn blocked_is_deterministic_across_thread_counts() {
        use crate::par::{set_parallelism, Parallelism};
        let _guard = crate::backend::test_lock();
        let (m, k, n) = SPLIT_SHAPE;
        let a = filled(m * k, |i| ((i % 11) as f32 - 5.0) * 0.17);
        let b = filled(k * n, |i| ((i % 7) as f32 - 3.0) * 0.23);
        set_parallelism(Parallelism::Threads(1));
        let one = matmul_blocked(&a, &b, m, k, n);
        let one_nt = matmul_nt(&a, &b, m, k, n);
        for t in [2, 4, 7] {
            set_parallelism(Parallelism::Threads(t));
            assert_eq!(one, matmul_blocked(&a, &b, m, k, n), "threads={t}");
            assert_eq!(one_nt, matmul_nt(&a, &b, m, k, n), "nt threads={t}");
        }
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    fn q8_nt_matches_dequantized_f32_product_exactly() {
        // The int8 kernel must equal the f32 product of the *decoded*
        // operands: quantization is the only approximation, the integer
        // matmul itself is exact (i32 dots, one f32 rescale).
        let _guard = crate::backend::test_lock();
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (9, 33, 14), (17, 130, 21)] {
            let a = filled(m * k, |i| ((i * 37 % 19) as f32 - 9.0) * 0.11);
            let b = filled(k * n, |i| ((i * 23 % 17) as f32 - 8.0) * 0.13);
            let qb = crate::quant::QuantizedMatrix::from_row_major(&b, k, n);
            let mut qa = vec![0i8; m * k];
            let mut a_scales = vec![0.0f32; m];
            let mut out = vec![0.0f32; m * n];
            matmul_q8_into(&mut out, &a, qb.data(), qb.scales(), m, k, n, &mut qa, &mut a_scales);
            // Reference: exact integer dot, rescaled the same way.
            for i in 0..m {
                for j in 0..n {
                    let d = dot_i8(&qa[i * k..(i + 1) * k], &qb.data()[j * k..(j + 1) * k]);
                    let expect = d as f32 * a_scales[i] * qb.scales()[j];
                    assert_eq!(out[i * n + j], expect, "[{i},{j}] at {m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn q8_approximates_f32_matmul_within_quantization_error() {
        let _guard = crate::backend::test_lock();
        let (m, k, n) = (11, 64, 23);
        let a = filled(m * k, |i| ((i * 41 % 29) as f32 - 14.0) * 0.05);
        let b = filled(k * n, |i| ((i * 31 % 37) as f32 - 18.0) * 0.04);
        let qb = crate::quant::QuantizedMatrix::from_row_major(&b, k, n);
        let mut qa = vec![0i8; m * k];
        let mut a_scales = vec![0.0f32; m];
        let mut out = vec![0.0f32; m * n];
        matmul_q8_into(&mut out, &a, qb.data(), qb.scales(), m, k, n, &mut qa, &mut a_scales);
        let reference = matmul_naive(&a, &b, m, k, n);
        // Worst-case error per element: each of the k terms carries at most
        // (|a|·sb/2 + |b|·sa/2 + sa·sb/4) rounding error. Bound it loosely
        // with the operands' max magnitudes.
        let amax = a.iter().fold(0.0f32, |s, v| s.max(v.abs()));
        let bmax = b.iter().fold(0.0f32, |s, v| s.max(v.abs()));
        let per_term =
            amax * (bmax / 254.0) + bmax * (amax / 254.0) + amax * bmax / (127.0 * 254.0);
        let bound = k as f32 * per_term * 1.01;
        for (i, (q8, f)) in out.iter().zip(&reference).enumerate() {
            assert!((q8 - f).abs() <= bound, "[{i}] int8 {q8} vs f32 {f}, bound {bound}");
        }
    }

    #[test]
    fn q8_nt_is_deterministic_across_thread_counts() {
        use crate::par::{set_parallelism, Parallelism};
        let _guard = crate::backend::test_lock();
        let (m, k, n) = SPLIT_SHAPE;
        let a = filled(m * k, |i| ((i % 11) as f32 - 5.0) * 0.17);
        let b = filled(k * n, |i| ((i % 7) as f32 - 3.0) * 0.23);
        let qb = crate::quant::QuantizedMatrix::from_row_major(&b, k, n);
        let mut qa = vec![0i8; m * k];
        let mut a_scales = vec![0.0f32; m];
        crate::quant::quantize_rows_i8(&a, m, k, &mut qa, &mut a_scales);
        set_parallelism(Parallelism::Threads(1));
        let mut one = vec![0.0f32; m * n];
        matmul_q8_nt_into(&mut one, &qa, &a_scales, qb.data(), qb.scales(), m, k, n);
        for t in [2, 4, 7] {
            set_parallelism(Parallelism::Threads(t));
            let mut many = vec![0.0f32; m * n];
            matmul_q8_nt_into(&mut many, &qa, &a_scales, qb.data(), qb.scales(), m, k, n);
            assert_eq!(one, many, "threads={t}");
        }
        set_parallelism(Parallelism::Auto);
    }

    #[test]
    fn q8_zero_dims_are_noops() {
        let mut out: Vec<f32> = Vec::new();
        matmul_q8_nt_into(&mut out, &[], &[], &[], &[], 0, 3, 0);
        // k == 0: dots are empty, output all zeros (0 · scales).
        let mut out = vec![7.0f32; 4];
        matmul_q8_nt_into(&mut out, &[], &[1.0, 1.0], &[], &[1.0, 1.0], 2, 0, 2);
        assert_eq!(out, vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "expected m*k")]
    fn q8_rejects_bad_lhs() {
        let mut out = vec![0.0f32; 4];
        matmul_q8_nt_into(&mut out, &[0i8; 5], &[1.0; 2], &[0i8; 6], &[1.0; 2], 2, 3, 2);
    }

    #[test]
    fn zero_dims_produce_empty_or_zero() {
        assert!(matmul_blocked(&[], &[0.0; 12], 0, 3, 4).is_empty());
        assert_eq!(matmul_blocked(&[0.0; 6], &[], 2, 3, 0), Vec::<f32>::new());
        // k == 0: inner dim empty, output is all zeros.
        assert_eq!(matmul_blocked(&[], &[], 2, 0, 2), vec![0.0; 4]);
        assert_eq!(matmul_naive(&[], &[], 2, 0, 2), vec![0.0; 4]);
    }

    #[test]
    #[should_panic(expected = "expected m*k")]
    fn blocked_rejects_bad_lhs() {
        let _ = matmul_blocked(&[1.0; 5], &[1.0; 6], 2, 3, 2);
    }

    #[test]
    #[should_panic(expected = "expected k*n")]
    fn naive_rejects_bad_rhs() {
        let _ = matmul_naive(&[1.0; 6], &[1.0; 5], 2, 3, 2);
    }
}
