//! Symmetric per-row int8 quantization for the inference plane.
//!
//! The serving path never backprops, so it can tolerate precision the
//! training plane can't: a [`QuantizedMatrix`] stores a linear layer's
//! weight as int8 codes plus one `f32` scale per *output channel*, cutting
//! the weight footprint ~4× and letting the matmul run on integer SIMD
//! (`_mm256_maddubs_epi16` / `_mm256_madd_epi16` — see
//! [`crate::ops::kernels::matmul_q8_nt_into`]).
//!
//! ## Scheme and error bound
//!
//! Quantization is **symmetric** (no zero-point): for a row `w` with
//! `s = max|w| / 127`, each element is coded as
//! `q = clamp(round(w / s), -127, 127)` and decodes as `q · s`. Because
//! `|w / s| ≤ 127` by construction, the clamp never bites in exact
//! arithmetic and the round is the only loss, so the round-trip error obeys
//!
//! ```text
//! |w − q·s| ≤ s / 2 = max|w| / 254
//! ```
//!
//! per element — a proven, testable bound (≤ 0.2 % of the row's dynamic
//! range, verified in this module's tests). All-zero rows take `s = 1` and
//! code exactly.
//!
//! Weights are quantized **once** (at engine build, per output channel);
//! activations are quantized **dynamically** per call with
//! [`quantize_rows_i8`] because their dynamic range shifts with every
//! frame, stream, and adaptation step — a static activation scale would
//! either clip trend-shifted inputs or waste the int8 range on quiet ones.
//! The quantization step itself is deliberately one portable code path on
//! every backend (compiler-vectorized for the baseline target, no
//! `std::arch` dispatch): it costs `O(m·k)` against the matmul's
//! `O(m·k·n)`, and keeping it backend-independent means the int8 plane's
//! scalar ↔ SIMD contract is *bit-identity* (integer dot products are
//! exact; see the private `ops::simd` module).

/// Numeric plane the serving stack runs on. Training and adaptation always
/// stay [`Precision::F32`]; the knob only re-codes the *frozen* engine
/// weights (see `akg-core`'s `SystemConfig`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Precision {
    /// Full-precision f32 serving (the equivalence oracle).
    #[default]
    F32,
    /// Int8 serving: per-row-scaled int8 weights, dynamic int8 activations.
    Int8,
}

impl Precision {
    /// Stable lower-case name (`"f32"` / `"int8"`), for reports and flags.
    pub fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

/// A weight matrix quantized to int8 with one `f32` scale per output
/// channel.
///
/// The source is a row-major `[k, n]` matrix (the layout
/// [`crate::Tensor::matmul`] consumes, `n` output channels of width `k`);
/// storage is **transposed** to `[n, k]` so the integer kernel reads each
/// output channel as one contiguous int8 row — the same trick as
/// [`crate::ops::kernels::matmul_nt`].
#[derive(Debug, Clone)]
pub struct QuantizedMatrix {
    /// Int8 codes, `[n, k]` row-major (stored row `j` = output channel `j`).
    data: Vec<i8>,
    /// Per-output-channel scales, length `n`.
    scales: Vec<f32>,
    k: usize,
    n: usize,
}

impl QuantizedMatrix {
    /// Quantizes a row-major `[k, n]` matrix, one symmetric scale per
    /// column (output channel).
    ///
    /// # Panics
    ///
    /// Panics if `w.len() != k * n`.
    pub fn from_row_major(w: &[f32], k: usize, n: usize) -> Self {
        assert_eq!(w.len(), k * n, "QuantizedMatrix: weight is not k × n");
        let mut data = vec![0i8; n * k];
        let mut scales = vec![0.0f32; n];
        let mut column = vec![0.0f32; k];
        for j in 0..n {
            for p in 0..k {
                column[p] = w[p * n + j];
            }
            scales[j] = quantize_row_i8(&column, &mut data[j * k..(j + 1) * k]);
        }
        QuantizedMatrix { data, scales, k, n }
    }

    /// Input width `k` (length of each stored row).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output channel count `n` (number of stored rows / scales).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The int8 codes, `[n, k]` row-major.
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The per-output-channel scales, length `n`.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Storage footprint in bytes: one byte per code plus four per scale.
    pub fn bytes(&self) -> usize {
        self.data.len() + self.scales.len() * std::mem::size_of::<f32>()
    }

    /// Decodes back to the row-major `[k, n]` layout of the source. Each
    /// element differs from the source by at most half its channel's scale
    /// (see the module docs).
    pub fn dequantize(&self) -> Vec<f32> {
        let mut w = vec![0.0f32; self.k * self.n];
        for j in 0..self.n {
            let s = self.scales[j];
            for p in 0..self.k {
                w[p * self.n + j] = self.data[j * self.k + p] as f32 * s;
            }
        }
        w
    }
}

/// Symmetrically quantizes one row into `q`, returning the scale
/// `max|row| / 127` (or `1.0` for an all-zero row, which codes exactly).
///
/// Deterministic scalar code on every backend — see the module docs for why
/// activation quantization deliberately never takes a SIMD path.
///
/// # Panics
///
/// Panics if `q.len() != row.len()`.
pub fn quantize_row_i8(row: &[f32], q: &mut [i8]) -> f32 {
    assert_eq!(q.len(), row.len(), "quantize_row_i8: output length mismatch");
    // Eight-lane max-abs reduction: max is exact under any grouping (finite
    // inputs), so this matches the sequential fold bit-for-bit while letting
    // LLVM keep it in vector registers.
    let mut mx = [0.0f32; 8];
    let chunks = row.len() / 8;
    for c in 0..chunks {
        let xs = &row[c * 8..c * 8 + 8];
        for l in 0..8 {
            mx[l] = mx[l].max(xs[l].abs());
        }
    }
    let mut max_abs = mx.iter().fold(0.0f32, |m, v| m.max(*v));
    for v in &row[chunks * 8..] {
        max_abs = max_abs.max(v.abs());
    }
    if max_abs == 0.0 {
        q.fill(0);
        return 1.0;
    }
    let scale = max_abs / 127.0;
    let inv = 127.0 / max_abs;
    for (code, &v) in q.iter_mut().zip(row) {
        // Round-half-away-from-zero via add-half-then-truncate: `as i8`
        // truncates toward zero and saturates, so the ±127.5-ε extremes stay
        // inside [-127, 127] (never -128). Spelled without `f32::round`,
        // which is a libm call on the baseline target and an order of
        // magnitude slower than this vectorizable form — this loop sits on
        // the per-call activation path of every int8 matmul.
        let t = v * inv;
        *code = (t + 0.5f32.copysign(t)) as i8;
    }
    scale
}

/// Dynamically quantizes `rows` activation rows of width `k` (row-major
/// `a`), writing codes into `q` and one scale per row into `scales`.
///
/// # Panics
///
/// Panics if buffer lengths disagree with `rows` × `k`.
pub fn quantize_rows_i8(a: &[f32], rows: usize, k: usize, q: &mut [i8], scales: &mut [f32]) {
    assert_eq!(a.len(), rows * k, "quantize_rows_i8: input is not rows × k");
    assert_eq!(q.len(), rows * k, "quantize_rows_i8: q is not rows × k");
    assert_eq!(scales.len(), rows, "quantize_rows_i8: scales is not rows");
    for i in 0..rows {
        scales[i] = quantize_row_i8(&a[i * k..(i + 1) * k], &mut q[i * k..(i + 1) * k]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(len: usize, f: impl Fn(usize) -> f32) -> Vec<f32> {
        (0..len).map(f).collect()
    }

    #[test]
    fn round_trip_error_within_half_scale() {
        let (k, n) = (37, 11);
        let w = filled(k * n, |i| ((i * 31 % 29) as f32 - 14.0) * 0.173);
        let q = QuantizedMatrix::from_row_major(&w, k, n);
        let back = q.dequantize();
        for j in 0..n {
            let bound = q.scales()[j] * 0.5 * (1.0 + 1e-5);
            for p in 0..k {
                let err = (w[p * n + j] - back[p * n + j]).abs();
                assert!(err <= bound, "[{p},{j}] err {err} > scale/2 {bound}");
            }
        }
    }

    #[test]
    fn scales_are_max_abs_over_127() {
        let (k, n) = (8, 3);
        let w = filled(k * n, |i| (i as f32 - 10.0) * 0.5);
        let q = QuantizedMatrix::from_row_major(&w, k, n);
        for j in 0..n {
            let max_abs = (0..k).map(|p| w[p * n + j].abs()).fold(0.0f32, f32::max);
            assert_eq!(q.scales()[j], max_abs / 127.0, "channel {j}");
        }
    }

    #[test]
    fn zero_rows_code_exactly() {
        let (k, n) = (5, 2);
        let mut w = vec![0.0f32; k * n];
        // channel 1 non-zero, channel 0 all zeros
        for p in 0..k {
            w[p * n + 1] = p as f32;
        }
        let q = QuantizedMatrix::from_row_major(&w, k, n);
        assert_eq!(q.scales()[0], 1.0);
        let back = q.dequantize();
        for p in 0..k {
            assert_eq!(back[p * n], 0.0);
        }
    }

    #[test]
    fn extremes_hit_plus_minus_127() {
        let mut q = [0i8; 3];
        let s = quantize_row_i8(&[-2.0, 0.0, 2.0], &mut q);
        assert_eq!(s, 2.0 / 127.0);
        assert_eq!(q, [-127, 0, 127]);
    }

    #[test]
    fn bytes_are_about_quarter_of_f32() {
        let (k, n) = (128, 64);
        let w = filled(k * n, |i| (i as f32 * 0.7).sin());
        let q = QuantizedMatrix::from_row_major(&w, k, n);
        assert_eq!(q.bytes(), k * n + n * 4);
        let f32_bytes = k * n * 4;
        let ratio = f32_bytes as f64 / q.bytes() as f64;
        assert!(ratio > 3.8, "ratio {ratio}");
    }

    #[test]
    fn quantize_rows_matches_per_row() {
        let (rows, k) = (4, 9);
        let a = filled(rows * k, |i| ((i * 13 % 7) as f32 - 3.0) * 0.21);
        let mut q = vec![0i8; rows * k];
        let mut scales = vec![0.0f32; rows];
        quantize_rows_i8(&a, rows, k, &mut q, &mut scales);
        for i in 0..rows {
            let mut qr = vec![0i8; k];
            let s = quantize_row_i8(&a[i * k..(i + 1) * k], &mut qr);
            assert_eq!(s, scales[i]);
            assert_eq!(qr, q[i * k..(i + 1) * k]);
        }
    }

    #[test]
    #[should_panic(expected = "weight is not k × n")]
    fn rejects_bad_shape() {
        let _ = QuantizedMatrix::from_row_major(&[1.0; 5], 2, 3);
    }
}
