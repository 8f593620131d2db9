//! Multi-head self-attention and the transformer encoder used as the paper's
//! short-term temporal model `T : R^{T×D} → R^D` (inner dimensionality 128,
//! 8 heads in the paper's configuration).
//!
//! The encoder is one pre-norm layer. The model keeps only the last time
//! step (`f'_t = T(F_t)`), so the encoder **computes only each sequence's
//! last row**: LN1, K and V still run over every row (the last step attends
//! to all of them), but the query, one attention row per head, the output
//! projection, the residual, LN2 and the feed-forward block run on one row
//! per sequence. Every row-wise kernel gives a row the same bits at any row
//! count, and the causal mask's last row is all zeros, so the tail is
//! bitwise equal to the full-row encoder's last row — on both planes, per
//! backend. The full-row forms (the autograd
//! [`TransformerEncoder::forward`] and its inference twin) stay as the
//! oracles.
//!
//! Attention itself, per sequence and per head, is one function over plain
//! slices (`attend`): the head's column slices, `Q·Kᵀ`, the fused scaled
//! and masked softmax, `A·V`, and the head's columns of the output. The
//! serving plane calls it on workspace buffers; the autograd plane calls it
//! inside **one graph node** for all sequences and heads
//! ([`grouped_attention`]), which keeps the softmax rows and runs the
//! backward per sequence and head with the kernels the composed
//! slice/`matmul_t`/softmax/`matmul`/concat chain ran, in its order. So a
//! token update's encoder graph has the same few nodes at any window count,
//! and its outputs and gradients are bitwise the composed chain's
//! (`tests/attention_node.rs`).

use crate::inference as inf;
use crate::nn::norm::LayerNorm;
use crate::nn::{FeedForward, Linear, Module};
use crate::ops::kernels::{matmul_nt_into, matmul_tn_into};
use crate::ops::simd;
use crate::tensor::Tensor;
use crate::workspace::Workspace;
use rand::rngs::StdRng;
use std::ops::Range;

/// Multi-head scaled-dot-product self-attention over a `[T, D]` sequence,
/// always causal: frame `t` may not attend to the future.
#[derive(Debug)]
pub struct MultiHeadAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
    inner_dim: usize,
}

impl MultiHeadAttention {
    /// Creates an attention block mapping `model_dim -> inner_dim ->
    /// model_dim` with `heads` heads.
    ///
    /// # Panics
    ///
    /// Panics if `inner_dim` is not divisible by `heads`.
    pub fn new(model_dim: usize, inner_dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        assert_eq!(inner_dim % heads, 0, "inner_dim {inner_dim} not divisible by heads {heads}");
        MultiHeadAttention {
            wq: Linear::new(model_dim, inner_dim, rng),
            wk: Linear::new(model_dim, inner_dim, rng),
            wv: Linear::new(model_dim, inner_dim, rng),
            wo: Linear::new(inner_dim, model_dim, rng),
            heads,
            inner_dim,
        }
    }

    /// Applies self-attention to a `[T, D]` sequence: the four projections,
    /// with attention over all heads as one [`grouped_attention`] node.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 2-D.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.grouped(x, 1, false)
    }

    /// Self-attention over `windows` equal-length sequences stacked into one
    /// `[windows · T, D]` matrix (sequence `w` in rows `w·T .. (w+1)·T`),
    /// over all rows, or (`last_only`) only each sequence's last row. The
    /// projections run once over all rows; attention runs per sequence, so
    /// rows of different sequences never attend to each other. With
    /// `last_only` the query projection runs on the last rows alone,
    /// each attends once per head to its whole sequence with no mask (the
    /// causal mask's last row is all zeros), and the output is
    /// `[windows, D]`. Attention itself is one graph node,
    /// [`grouped_attention`].
    fn grouped(&self, x: &Tensor, windows: usize, last_only: bool) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 2, "MultiHeadAttention: expected [T, D] input");
        assert!(
            windows > 0 && s[0].is_multiple_of(windows),
            "MultiHeadAttention: {} rows do not split into {windows} sequences",
            s[0]
        );
        let q = if last_only {
            self.wq.forward(&x.index_select_rows(&last_rows(windows, s[0] / windows)))
        } else {
            self.wq.forward(x)
        };
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        self.wo.forward(&grouped_attention(&q, &k, &v, windows, self.heads, last_only))
    }

    /// Inference-plane form of [`MultiHeadAttention::grouped`] over a
    /// ragged batch: `x` is `[Σ lens, d_model]` (sequence `s` has
    /// `lens[s]` rows), `out` is `[Σ lens, d_model]`, or `[lens.len(),
    /// d_model]` when `last_only`. Workspace-leased buffers only — no graph
    /// nodes, no steady-state allocation. The projections are the autograd
    /// op's kernels and attention is the same [`attend`] core, so it is
    /// bit-identical per backend.
    fn infer(
        &self,
        x: &[f32],
        lens: &[usize],
        last_only: bool,
        out: &mut [f32],
        ws: &mut Workspace,
    ) {
        let rows: usize = lens.iter().sum();
        let b = lens.len();
        let inner = self.inner_dim;
        let q_rows = if last_only { b } else { rows };
        let mut q = ws.lease(q_rows * inner);
        let mut k = ws.lease(rows * inner);
        let mut v = ws.lease(rows * inner);
        if last_only {
            let mut last = ws.lease(b * self.wq.in_features());
            gather_last_rows(&mut last, x, self.wq.in_features(), lens);
            self.wq.forward_infer(&last, b, &mut q, ws);
            ws.release(last);
        } else {
            self.wq.forward_infer(x, rows, &mut q, ws);
        }
        self.wk.forward_infer(x, rows, &mut k, ws);
        self.wv.forward_infer(x, rows, &mut v, ws);
        let mut joined = ws.lease(q_rows * inner);
        let input = AttnInput { q: &q, k: &k, v: &v, lens, inner, last_only, heads: self.heads };
        attend(&input, &mut joined, None, ws);
        self.wo.forward_infer(&joined, q_rows, out, ws);
        for buf in [q, k, v, joined] {
            ws.release(buf);
        }
    }

    /// Visits the four projection layers (shared), in a stable order.
    pub fn visit_linears(&self, f: &mut dyn FnMut(&Linear)) {
        f(&self.wq);
        f(&self.wk);
        f(&self.wv);
        f(&self.wo);
    }

    /// Visits the four projection layers (mutable), in a stable order —
    /// how the int8 plane reaches every weight matrix for
    /// (re-)quantization.
    pub fn visit_linears_mut(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        f(&mut self.wq);
        f(&mut self.wk);
        f(&mut self.wv);
        f(&mut self.wo);
    }
}

/// Multi-head scaled-dot-product attention of `windows` equal-length
/// sequences, as **one** autograd node. `k` and `v` are the sequences'
/// projected keys and values, `[windows · T, inner]` (sequence `w` in rows
/// `w·T .. (w+1)·T`); `q` holds their queries, `[windows · T, inner]`, or
/// `[windows, inner]` with `last_only` (each sequence's last step alone).
/// Head `h` owns columns `h·d_k .. (h+1)·d_k`, `d_k = inner / heads`. The
/// full-row form is causal; the last-only form needs no mask (the causal
/// mask's last row is all zeros). The output has `q`'s shape.
///
/// The forward is the core the serving plane runs (see the module docs).
/// The node keeps the softmax rows and, like [`Tensor::matmul`], a copy of
/// each operand a tracked parent's gradient reads (`v` for `dQ` and `dK`,
/// `k` for `dQ`, `q` for `dK`), so writing an operand's data after the
/// forward cannot change the gradients. Its backward runs, per sequence
/// and head, the kernels of the composed chain
/// (`slice_rows`, `slice_cols`, [`Tensor::matmul_t`],
/// [`Tensor::softmax_rows_scaled_masked`], [`Tensor::matmul`],
/// `concat_cols`, `concat_rows`) in the same order, so outputs and
/// gradients are bitwise that chain's per backend
/// (`tests/attention_node.rs`).
///
/// # Panics
///
/// Panics if an operand is not 2-D, the sequences are empty, `heads` does
/// not divide `inner`, or the shapes disagree.
pub fn grouped_attention(
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    windows: usize,
    heads: usize,
    last_only: bool,
) -> Tensor {
    let (ks, qs) = (k.shape(), q.shape());
    assert!(ks.len() == 2 && qs.len() == 2, "grouped_attention: operands must be 2-D");
    let (rows, inner) = (ks[0], ks[1]);
    assert!(
        rows > 0 && windows > 0 && rows.is_multiple_of(windows),
        "grouped_attention: {rows} rows do not split into {windows} non-empty sequences"
    );
    assert!(heads > 0 && inner.is_multiple_of(heads), "grouped_attention: bad head count {heads}");
    let q_rows = if last_only { windows } else { rows };
    assert_eq!(qs, [q_rows, inner], "grouped_attention: q has the wrong shape");
    assert_eq!(v.shape(), ks, "grouped_attention: v and k disagree");
    let t = rows / windows;
    let lens = vec![t; windows];
    let tracked = [q, k, v].map(Tensor::is_tracked);
    let [need_q, need_k, _] = tracked;
    let mut out = vec![0.0f32; q_rows * inner];
    let mut probs = vec![0.0f32; if tracked.contains(&true) { heads * q_rows * t } else { 0 }];
    let keep = (!probs.is_empty()).then_some(&mut probs[..]);
    let mut ws = Workspace::new();
    q.with_data(|qd| {
        k.with_data(|kd| {
            v.with_data(|vd| {
                let input = AttnInput { q: qd, k: kd, v: vd, lens: &lens, inner, last_only, heads };
                attend(&input, &mut out, keep, &mut ws);
            })
        })
    });
    let copy = |x: &Tensor, needed: bool| if needed { x.to_vec() } else { Vec::new() };
    let (qc, kc, vc) = (copy(q, need_k), copy(k, need_q), copy(v, need_q || need_k));
    Tensor::from_op(
        out,
        &[q_rows, inner],
        vec![q.clone(), k.clone(), v.clone()],
        Box::new(move |g| {
            let input = AttnInput { q: &qc, k: &kc, v: &vc, lens: &lens, inner, last_only, heads };
            attend_backward(&input, &probs, g, tracked).into()
        }),
    )
}

/// One attention call's operands: the projected queries, keys and values
/// of a ragged batch of sequences (`lens`), and how many heads split their
/// `inner` columns. `k` and `v` are `[Σ lens, inner]`; `q` is `[Σ lens,
/// inner]`, or `[lens.len(), inner]` when `last_only` (each sequence's last
/// step alone). In the backward, an operand no needed gradient reads may
/// be empty.
struct AttnInput<'a> {
    q: &'a [f32],
    k: &'a [f32],
    v: &'a [f32],
    lens: &'a [usize],
    inner: usize,
    last_only: bool,
    heads: usize,
}

/// The per-sequence, per-head attention core both planes run. For each
/// sequence and each head: the head's column slices of `q`, `k` and `v`,
/// `Q_h·K_hᵀ` ([`inf::matmul_t_into`]), the fused scaled (and, over all
/// rows, causally masked) softmax, `A·V_h` ([`inf::matmul_into`]), and the
/// result into the head's columns of `out` (`q`'s shape). With `probs`,
/// each (sequence, head)'s softmax rows are kept there, sequence-major
/// (the autograd node's saved state).
fn attend(input: &AttnInput, out: &mut [f32], mut probs: Option<&mut [f32]>, ws: &mut Workspace) {
    let AttnInput { q, k, v, lens, inner, last_only, heads } = *input;
    let dk = inner / heads;
    let scale = 1.0 / (dk as f32).sqrt();
    let t_max = lens.iter().copied().max().unwrap_or(0);
    let mut causal = ws.lease(if last_only { 0 } else { t_max * t_max });
    let mut qh = ws.lease(t_max * dk);
    let mut kh = ws.lease(t_max * dk);
    let mut vh = ws.lease(t_max * dk);
    let mut attn = ws.lease(if probs.is_some() { 0 } else { t_max * t_max });
    let mut head = ws.lease(t_max * dk);
    let (mut r0, mut p0) = (0usize, 0usize); // the sequence's first key row; kept rows so far
    for (s, &t) in lens.iter().enumerate() {
        // The sequence's query rows: all `t`, or its last row alone.
        let (q0, nq) = if last_only { (s, 1) } else { (r0, t) };
        let mask = (!last_only).then(|| {
            let m = &mut causal[..t * t];
            fill_causal_mask(m, t);
            &*m
        });
        for h in 0..heads {
            let cols = h * dk..(h + 1) * dk;
            gather_cols(&mut qh[..nq * dk], q, inner, q0, cols.clone());
            gather_cols(&mut kh[..t * dk], k, inner, r0, cols.clone());
            gather_cols(&mut vh[..t * dk], v, inner, r0, cols.clone());
            let scores = match probs.as_deref_mut() {
                Some(kept) => {
                    p0 += nq * t;
                    &mut kept[p0 - nq * t..p0]
                }
                None => &mut attn[..nq * t],
            };
            inf::matmul_t_into(scores, &qh[..nq * dk], &kh[..t * dk], nq, dk, t);
            inf::softmax_rows_scaled_masked_inplace(scores, nq, t, scale, mask);
            inf::matmul_into(&mut head[..nq * dk], scores, &vh[..t * dk], nq, t, dk);
            scatter_cols(out, &head[..nq * dk], inner, q0, cols, false);
        }
        r0 += t;
    }
    for buf in [causal, qh, kh, vh, attn, head] {
        ws.release(buf);
    }
}

/// Fills the `[t, t]` additive causal mask: 0 on/below the diagonal, a
/// large negative value above it.
fn fill_causal_mask(mask: &mut [f32], t: usize) {
    mask.fill(0.0);
    for r in 0..t {
        mask[r * t + r + 1..(r + 1) * t].fill(-1e9);
    }
}

/// The backward of [`grouped_attention`]: given the output gradient `g`
/// and the kept softmax rows, `[dQ, dK, dV]`, each empty for an operand
/// that was untracked when the node was built. Per sequence and head it
/// runs the composed chain's kernels in its order: `dA = G_h·V_hᵀ`
/// ([`matmul_nt_into`]), `dV_h = Aᵀ·G_h` ([`matmul_tn_into`]), the fused
/// softmax's row formula, `dQ_h = dS·K_h` ([`inf::matmul_into`], the
/// dispatch of `Tensor::matmul_t`'s backward) and `dK_h = dSᵀ·Q_h`
/// ([`matmul_tn_into`]).
///
/// The composed chain summed each operand's gradient from one zero-padded
/// slice per (sequence, head); every element is then `0 + x`, which turns
/// a `−0` into `+0`, unless there was a single slice. Accumulating into
/// zeroed buffers, or copying when there is one (sequence, head) pair,
/// gives the same bits.
fn attend_backward(
    input: &AttnInput,
    probs: &[f32],
    g: &[f32],
    tracked: [bool; 3],
) -> [Vec<f32>; 3] {
    let AttnInput { q, k, v, lens, inner, last_only, heads } = *input;
    let [need_q, need_k, need_v] = tracked;
    let rows: usize = lens.iter().sum();
    let dk = inner / heads;
    let scale = 1.0 / (dk as f32).sqrt();
    let t_max = lens.iter().copied().max().unwrap_or(0);
    let add = lens.len() * heads > 1;
    let zeroed = |need: bool, len: usize| if need { vec![0.0f32; len] } else { Vec::new() };
    let (mut dq, mut dkv, mut dv) =
        (zeroed(need_q, g.len()), zeroed(need_k, rows * inner), zeroed(need_v, rows * inner));
    let [mut qh, mut kh, mut vh, mut gh, mut dh] = [(); 5].map(|_| vec![0.0f32; t_max * dk]);
    let [mut da, mut ds] = [(); 2].map(|_| vec![0.0f32; t_max * t_max]);
    let (mut r0, mut p0) = (0usize, 0usize);
    for (s, &t) in lens.iter().enumerate() {
        let (q0, nq) = if last_only { (s, 1) } else { (r0, t) };
        for h in 0..heads {
            let cols = h * dk..(h + 1) * dk;
            let a = &probs[p0..p0 + nq * t];
            p0 += nq * t;
            let gh = &mut gh[..nq * dk];
            gather_cols(gh, g, inner, q0, cols.clone());
            if need_q || need_k {
                let (da, ds) = (&mut da[..nq * t], &mut ds[..nq * t]);
                gather_cols(&mut vh[..t * dk], v, inner, r0, cols.clone());
                matmul_nt_into(da, gh, &vh[..t * dk], nq, dk, t);
                for ((dsr, ar), dar) in
                    ds.chunks_exact_mut(t).zip(a.chunks_exact(t)).zip(da.chunks_exact(t))
                {
                    let dot = simd::row_dot_nofma(dar, ar);
                    simd::softmax_bwd_row(dsr, ar, dar, dot, scale);
                }
                if need_q {
                    gather_cols(&mut kh[..t * dk], k, inner, r0, cols.clone());
                    inf::matmul_into(&mut dh[..nq * dk], ds, &kh[..t * dk], nq, t, dk);
                    scatter_cols(&mut dq, &dh[..nq * dk], inner, q0, cols.clone(), add);
                }
                if need_k {
                    gather_cols(&mut qh[..nq * dk], q, inner, q0, cols.clone());
                    matmul_tn_into(&mut dh[..t * dk], ds, &qh[..nq * dk], nq, t, dk);
                    scatter_cols(&mut dkv, &dh[..t * dk], inner, r0, cols.clone(), add);
                }
            }
            if need_v {
                matmul_tn_into(&mut dh[..t * dk], a, gh, nq, t, dk);
                scatter_cols(&mut dv, &dh[..t * dk], inner, r0, cols, add);
            }
        }
        r0 += t;
    }
    [dq, dkv, dv]
}

/// Copies columns `cols` of rows `row0 ..` of the `inner`-wide matrix
/// `src` into the contiguous `[rows, cols.len()]` block `dst`.
fn gather_cols(dst: &mut [f32], src: &[f32], inner: usize, row0: usize, cols: Range<usize>) {
    for (r, row) in dst.chunks_exact_mut(cols.len()).enumerate() {
        let at = (row0 + r) * inner;
        row.copy_from_slice(&src[at + cols.start..at + cols.end]);
    }
}

/// Writes the contiguous `[rows, cols.len()]` block `src` into columns
/// `cols` of rows `row0 ..` of the `inner`-wide matrix `dst`, adding to
/// what is there when `add`.
fn scatter_cols(
    dst: &mut [f32],
    src: &[f32],
    inner: usize,
    row0: usize,
    cols: Range<usize>,
    add: bool,
) {
    for (r, row) in src.chunks_exact(cols.len()).enumerate() {
        let at = (row0 + r) * inner;
        let out = &mut dst[at + cols.start..at + cols.end];
        if add {
            out.iter_mut().zip(row).for_each(|(o, x)| *o += x);
        } else {
            out.copy_from_slice(row);
        }
    }
}

/// The row of each sequence's last step in `windows` equal-length
/// sequences of `t` rows stacked into one matrix.
fn last_rows(windows: usize, t: usize) -> Vec<usize> {
    (1..=windows).map(|w| w * t - 1).collect()
}

/// Copies each ragged sequence's last row of the `[Σ lens, n]` matrix `x`
/// into row `s` of `out` (`[lens.len(), n]`).
fn gather_last_rows(out: &mut [f32], x: &[f32], n: usize, lens: &[usize]) {
    let mut end = 0usize;
    for (row, &t) in out.chunks_exact_mut(n).zip(lens) {
        end += t;
        row.copy_from_slice(&x[(end - 1) * n..end * n]);
    }
}

impl Module for MultiHeadAttention {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.wq.params();
        p.extend(self.wk.params());
        p.extend(self.wv.params());
        p.extend(self.wo.params());
        p
    }
}

/// The short-term temporal model: one pre-norm transformer encoder layer,
/// `x + MHA(LN(x))`, then `x + FFN(LN(x))`. The production entry points
/// return only the final time step's embedding, matching the paper's
/// `f'_t = T(F_t)` which keeps the output aligned with the last input frame:
/// [`TransformerEncoder::forward_last_grouped`] (autograd: adaptation and
/// training) and [`TransformerEncoder::forward_last_batch_infer`] (serving:
/// one call over a whole ragged batch). Both run the last-step tail (see the
/// module docs); the full-row forms are their oracles.
#[derive(Debug)]
pub struct TransformerEncoder {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl TransformerEncoder {
    /// Creates the encoder. Its weights are drawn from `rng` in the order
    /// q, k, v, o, then the feed-forward pair.
    pub fn new(model_dim: usize, inner_dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        TransformerEncoder {
            attn: MultiHeadAttention::new(model_dim, inner_dim, heads, rng),
            ffn: FeedForward::new(model_dim, 2 * inner_dim, rng),
            ln1: LayerNorm::new(model_dim),
            ln2: LayerNorm::new(model_dim),
        }
    }

    /// Full sequence output `[T, D]`: every row, the oracle of
    /// [`TransformerEncoder::forward_last_grouped`].
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.grouped(x, 1, false)
    }

    /// The forward over `windows` equal-length sequences stacked into
    /// `[windows · T, D]`: all rows, or (`last_only`) the last-step tail —
    /// LN1 over all rows (keys and values need them), then attention, the
    /// residual, LN2 and the feed-forward block on each sequence's last row
    /// alone, giving `[windows, D]`. Layer norms, projections and the
    /// feed-forward run once over all rows, attention per sequence.
    fn grouped(&self, x: &Tensor, windows: usize, last_only: bool) -> Tensor {
        let attn = self.attn.grouped(&self.ln1.forward(x), windows, last_only);
        let residual = if last_only {
            x.index_select_rows(&last_rows(windows, x.shape()[0] / windows))
        } else {
            x.clone()
        };
        let h = residual.add(&attn);
        h.add(&self.ffn.forward(&self.ln2.forward(&h)))
    }

    /// Inference-plane form of [`TransformerEncoder::grouped`] over a ragged
    /// batch: `out` is `[Σ lens, model_dim]`, or `[lens.len(), model_dim]`
    /// when `last_only`, through the same pre-norm residual structure. The
    /// full-row form is the tail's oracle and is bit-identical per backend
    /// to [`TransformerEncoder::forward`] per sequence (f32 weights).
    fn infer(
        &self,
        x: &[f32],
        lens: &[usize],
        last_only: bool,
        out: &mut [f32],
        ws: &mut Workspace,
    ) {
        let d = self.model_dim();
        assert!(!lens.is_empty(), "TransformerEncoder: empty batch");
        assert!(lens.iter().all(|&t| t > 0), "TransformerEncoder: empty sequence");
        let rows: usize = lens.iter().sum();
        assert_eq!(x.len(), rows * d, "TransformerEncoder: x is not Σ lens × model_dim");
        let out_rows = if last_only { lens.len() } else { rows };
        assert_eq!(out.len(), out_rows * d, "TransformerEncoder: out has the wrong length");
        // out = x (all rows, or each sequence's last) + MHA(LN1(x))
        let mut normed = ws.lease(x.len());
        normed.copy_from_slice(x);
        self.ln1.forward_infer(&mut normed);
        let mut sub_out = ws.lease(out.len());
        self.attn.infer(&normed, lens, last_only, &mut sub_out, ws);
        ws.release(normed);
        if last_only {
            gather_last_rows(out, x, d, lens);
        } else {
            out.copy_from_slice(x);
        }
        inf::add_assign(out, &sub_out);
        // out += FFN(LN2(out))
        let mut normed = ws.lease(out.len());
        normed.copy_from_slice(out);
        self.ln2.forward_infer(&mut normed);
        self.ffn.forward_infer(&normed, out_rows, &mut sub_out, ws);
        inf::add_assign(out, &sub_out);
        ws.release(normed);
        ws.release(sub_out);
    }

    /// The last time step of each of `windows` equal-length sequences
    /// stacked into `[windows · T, D]`, as a `[windows, D]` matrix. LN1, K
    /// and V run over all rows; the query, attention row, output
    /// projection, residual, LN2 and feed-forward block (and their
    /// backward) cost one row per sequence. Row `w` is bit-identical to the
    /// last row of sequence `w` through the full-row encoder
    /// ([`TransformerEncoder::forward`]), and to this call on sequence `w`
    /// alone.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 2-D, is empty, or its rows do not split into
    /// `windows` sequences.
    pub fn forward_last_grouped(&self, x: &Tensor, windows: usize) -> Tensor {
        let rows = x.shape()[0];
        assert!(rows > 0, "TransformerEncoder: empty sequence");
        assert!(
            windows > 0 && rows.is_multiple_of(windows),
            "TransformerEncoder: {rows} rows do not split into {windows} sequences"
        );
        self.grouped(x, windows, true)
    }

    /// The serving entry point: the last time step of every sequence of a
    /// ragged batch, in one call. `x` is `[Σ lens, model_dim]` (sequence `s`
    /// in the `lens[s]` rows after the sequences before it, oldest first);
    /// `out` receives `[lens.len(), model_dim]`. Row-wise ops run once over
    /// all rows of the batch, attention per sequence, and the tail runs on
    /// the last step alone. Workspace-leased buffers only.
    ///
    /// Row `s` is bit-identical per backend to the last row of sequence `s`
    /// through the full-row inference form (its oracle, which the int8
    /// tests use), and — without int8 weights — to the autograd
    /// [`TransformerEncoder::forward_last_grouped`] on that sequence alone.
    ///
    /// # Panics
    ///
    /// Panics if `lens` is empty or holds a zero, or `x`/`out` lengths
    /// mismatch.
    pub fn forward_last_batch_infer(
        &self,
        x: &[f32],
        lens: &[usize],
        out: &mut [f32],
        ws: &mut Workspace,
    ) {
        self.infer(x, lens, true, out, ws);
    }

    /// Model dimensionality.
    pub fn model_dim(&self) -> usize {
        self.attn.wq.in_features()
    }

    /// Visits every linear layer (attention projections, then the
    /// feed-forward pair), in a stable order.
    pub fn visit_linears(&self, f: &mut dyn FnMut(&Linear)) {
        self.attn.visit_linears(f);
        self.ffn.visit_linears(f);
    }

    /// Mutable form of [`TransformerEncoder::visit_linears`].
    pub fn visit_linears_mut(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        self.attn.visit_linears_mut(f);
        self.ffn.visit_linears_mut(f);
    }
}

impl Module for TransformerEncoder {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.attn.params();
        p.extend(self.ffn.params());
        p.extend(self.ln1.params());
        p.extend(self.ln2.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn attention_output_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mha = MultiHeadAttention::new(8, 16, 4, &mut rng);
        let x = Tensor::zeros(&[5, 8]);
        assert_eq!(mha.forward(&x).shape(), vec![5, 8]);
    }

    #[test]
    #[allow(clippy::erasing_op, clippy::identity_op)] // row * cols + col index arithmetic
    fn causal_mask_blocks_future() {
        let mut m = [0.5f32; 9];
        fill_causal_mask(&mut m, 3);
        assert_eq!(m[0 * 3 + 0], 0.0);
        assert_eq!(m[0 * 3 + 2], -1e9);
        assert_eq!(m[2 * 3 + 0], 0.0);
    }

    #[test]
    fn causal_attention_first_step_ignores_rest() {
        // With a causal mask, changing later frames must not change step 0.
        let mut rng = StdRng::seed_from_u64(1);
        let mha = MultiHeadAttention::new(4, 8, 2, &mut rng);
        let a = Tensor::from_vec(vec![1.0; 8], &[2, 4]);
        let mut b_data = vec![1.0; 8];
        for v in b_data[4..].iter_mut() {
            *v = 9.0;
        }
        let b = Tensor::from_vec(b_data, &[2, 4]);
        let ya = mha.forward(&a).to_vec();
        let yb = mha.forward(&b).to_vec();
        for c in 0..4 {
            assert!((ya[c] - yb[c]).abs() < 1e-5, "step 0 leaked future info");
        }
    }

    #[test]
    fn encoder_last_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let enc = TransformerEncoder::new(8, 16, 4, &mut rng);
        let x = Tensor::zeros(&[6, 8]);
        let last = enc.forward_last_grouped(&x, 2);
        assert_eq!(last.shape(), vec![2, 8]);
    }

    #[test]
    fn encoder_grads_flow_to_all_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let enc = TransformerEncoder::new(4, 8, 2, &mut rng);
        let x = Tensor::from_vec((0..12).map(|i| i as f32 * 0.1).collect(), &[3, 4])
            .requires_grad(true);
        enc.forward_last_grouped(&x, 1).sum_all().backward();
        for p in enc.params() {
            assert!(p.grad().is_some(), "param missing grad");
        }
        assert!(x.grad().is_some());
    }

    fn filled(len: usize, salt: usize) -> Vec<f32> {
        (0..len).map(|i| (((i + salt) * 13 % 29) as f32 - 14.0) * 0.07).collect()
    }

    /// Runs `f` under Scalar, then Simd, restoring the previous backend.
    /// Callers must hold [`crate::backend::test_lock`].
    fn for_each_backend(mut f: impl FnMut(crate::backend::Backend)) {
        use crate::backend::{backend, set_backend, Backend};
        let prev = backend();
        for b in [Backend::Scalar, Backend::Simd] {
            set_backend(b);
            f(b);
        }
        set_backend(prev);
    }

    /// Ragged lengths: full windows, single-row and partial ones, as a
    /// warming-up stream's windows are.
    const RAGGED: [usize; 7] = [4, 1, 3, 4, 2, 4, 4];

    #[test]
    fn grouped_encoder_matches_per_sequence_bitwise() {
        let _guard = crate::backend::test_lock();
        let mut rng = StdRng::seed_from_u64(7);
        let (w, t, d) = (3, 4, 8);
        let enc = TransformerEncoder::new(d, 16, 4, &mut rng);
        let data: Vec<f32> = (0..w * t * d).map(|i| ((i * 11 % 29) as f32 - 14.0) * 0.05).collect();
        let grouped = enc.forward_last_grouped(&Tensor::from_vec(data.clone(), &[w * t, d]), w);
        assert_eq!(grouped.shape(), vec![w, d]);
        let grouped = grouped.to_vec();
        for (i, seq) in data.chunks_exact(t * d).enumerate() {
            let seq = Tensor::from_vec(seq.to_vec(), &[t, d]);
            let solo = enc.forward_last_grouped(&seq, 1).to_vec();
            assert_eq!(&grouped[i * d..(i + 1) * d], &solo[..], "sequence {i} diverged");
        }
    }

    #[test]
    fn encoder_infer_matches_autograd_bitwise() {
        let _guard = crate::backend::test_lock();
        let mut rng = StdRng::seed_from_u64(5);
        let (t, d) = (5, 8);
        let enc = TransformerEncoder::new(d, 16, 4, &mut rng);
        let data = filled(t * d, 0);
        let seq = Tensor::from_vec(data.clone(), &[t, d]);
        let mut ws = Workspace::new();
        let mut full = vec![0.0f32; t * d];
        enc.infer(&data, &[t], false, &mut full, &mut ws);
        assert_eq!(full, enc.forward(&seq).to_vec(), "full-row inference diverged from autograd");
        let mut out = vec![0.0f32; d];
        enc.forward_last_batch_infer(&data, &[t], &mut out, &mut ws);
        assert_eq!(
            out,
            enc.forward_last_grouped(&seq, 1).to_vec(),
            "inference tail diverged from autograd"
        );
        // Steady state: a second identical forward leases only pooled
        // buffers.
        let created = ws.stats().buffers_created;
        enc.forward_last_batch_infer(&filled(t * d, 3), &[t], &mut out, &mut ws);
        assert_eq!(ws.stats().buffers_created, created, "second forward allocated new buffers");
    }

    #[test]
    fn attention_infer_matches_autograd_bitwise() {
        let _guard = crate::backend::test_lock();
        let mut rng = StdRng::seed_from_u64(6);
        let (t, d) = (4, 6);
        let mha = MultiHeadAttention::new(d, 8, 2, &mut rng);
        let data = filled(t * d, 1);
        let x = Tensor::from_vec(data.clone(), &[t, d]);
        let mut ws = Workspace::new();
        let mut out = vec![0.0f32; t * d];
        mha.infer(&data, &[t], false, &mut out, &mut ws);
        assert_eq!(out, mha.forward(&x).to_vec(), "inference attention diverged from autograd");
        let mut last = vec![0.0f32; d];
        mha.infer(&data, &[t], true, &mut last, &mut ws);
        assert_eq!(
            last,
            mha.grouped(&x, 1, true).to_vec(),
            "inference tail diverged from autograd"
        );
        assert_eq!(last, out[(t - 1) * d..], "attention tail is not the full output's last row");
    }

    /// The serving tail over a ragged batch equals its full-row oracle's
    /// last rows, bitwise: Scalar and Simd, f32 and int8 weights. Each row
    /// also equals the sequence scored alone, and (f32) the autograd encoder
    /// on it.
    #[test]
    fn ragged_inference_tail_matches_full_row_oracle_bitwise() {
        let _guard = crate::backend::test_lock();
        let d = 8;
        let rows: usize = RAGGED.iter().sum();
        let x = filled(rows * d, 2);
        for_each_backend(|b| {
            for int8 in [false, true] {
                let mut enc = TransformerEncoder::new(d, 32, 4, &mut StdRng::seed_from_u64(9));
                if int8 {
                    enc.visit_linears_mut(&mut |l| l.quantize_int8());
                }
                let what = format!("{b:?}, int8 {int8}");
                let mut ws = Workspace::new();
                let mut tail = vec![0.0f32; RAGGED.len() * d];
                enc.forward_last_batch_infer(&x, &RAGGED, &mut tail, &mut ws);
                let mut full = vec![0.0f32; rows * d];
                enc.infer(&x, &RAGGED, false, &mut full, &mut ws);
                let mut oracle = vec![0.0f32; RAGGED.len() * d];
                gather_last_rows(&mut oracle, &full, d, &RAGGED);
                assert_eq!(tail, oracle, "{what}: tail diverged from the full-row oracle");
                let mut r0 = 0;
                for (s, &t) in RAGGED.iter().enumerate() {
                    let seq = &x[r0 * d..(r0 + t) * d];
                    let mut alone = vec![0.0f32; d];
                    enc.forward_last_batch_infer(seq, &[t], &mut alone, &mut ws);
                    let row = &tail[s * d..(s + 1) * d];
                    assert_eq!(row, &alone[..], "{what}: sequence {s} batched vs alone");
                    if !int8 {
                        let auto =
                            enc.forward_last_grouped(&Tensor::from_vec(seq.to_vec(), &[t, d]), 1);
                        assert_eq!(row, &auto.to_vec()[..], "{what}: sequence {s} vs autograd");
                    }
                    r0 += t;
                }
            }
        });
    }

    /// The autograd tail equals the full-row encoder's last rows bitwise,
    /// Scalar and Simd, one and several windows.
    #[test]
    fn autograd_tail_matches_full_row_oracle_bitwise() {
        let _guard = crate::backend::test_lock();
        let (t, d) = (4, 8);
        for_each_backend(|b| {
            let enc = TransformerEncoder::new(d, 32, 4, &mut StdRng::seed_from_u64(21));
            for windows in [1, 5] {
                let x = Tensor::from_vec(filled(windows * t * d, windows), &[windows * t, d]);
                let tail = enc.forward_last_grouped(&x, windows);
                assert_eq!(tail.shape(), vec![windows, d]);
                let oracle =
                    enc.grouped(&x, windows, false).index_select_rows(&last_rows(windows, t));
                assert_eq!(tail.to_vec(), oracle.to_vec(), "{b:?}, {windows} window(s)");
            }
        });
    }
}
