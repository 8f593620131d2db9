//! Multi-head self-attention and the transformer encoder used as the paper's
//! short-term temporal model `T : R^{T×D} → R^D` (inner dimensionality 128,
//! 8 heads in the paper's configuration).

use crate::nn::norm::LayerNorm;
use crate::nn::{FeedForward, Linear, Module};
use crate::tensor::Tensor;
use rand::rngs::StdRng;

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

    /// Applies self-attention to a `[T, D]` sequence.
    ///
    /// Per head, `Q·Kᵀ` runs through the transposed-input fast path
    /// ([`Tensor::matmul_t`], no `Kᵀ` materialized) and the
    /// scale-mask-normalize sequence is the single fused
    /// [`Tensor::softmax_rows_scaled_masked`] node — together four fewer
    /// graph nodes and four fewer `[T, T]`/`[T, d_k]` allocations per head
    /// per forward than the composed formulation.
    ///
    /// # Panics
    ///
    /// Panics if the input is not 2-D.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_grouped(x, 1)
    }

    /// Self-attention over `windows` equal-length sequences stacked into one
    /// `[windows · T, D]` matrix (sequence `w` in rows `w·T .. (w+1)·T`).
    /// The Q/K/V and output projections each run once over all rows;
    /// attention runs per sequence, so rows of different sequences never
    /// attend to each other. Each sequence's rows are bit-identical to
    /// [`MultiHeadAttention::forward`] on that sequence alone (projection
    /// rows are independent).
    ///
    /// # Panics
    ///
    /// Panics if the input is not 2-D or its rows do not split into
    /// `windows` sequences.
    pub fn forward_grouped(&self, x: &Tensor, windows: usize) -> Tensor {
        let s = x.shape();
        assert_eq!(s.len(), 2, "MultiHeadAttention: expected [T, D] input");
        assert!(
            windows > 0 && s[0].is_multiple_of(windows),
            "MultiHeadAttention: {} rows do not split into {windows} sequences",
            s[0]
        );
        let t = s[0] / windows;
        let q = self.wq.forward(x);
        let k = self.wk.forward(x);
        let v = self.wv.forward(x);
        let mask = causal_mask(t);
        let parts: Vec<Tensor> = (0..windows)
            .map(|w| {
                let (lo, hi) = (w * t, (w + 1) * t);
                self.attend(
                    &q.slice_rows(lo, hi),
                    &k.slice_rows(lo, hi),
                    &v.slice_rows(lo, hi),
                    &mask,
                )
            })
            .collect();
        self.wo.forward(&Tensor::concat_rows(&parts))
    }

    /// Multi-head attention of one sequence's projected `[T, inner]`
    /// queries, keys and values; heads joined column-wise.
    fn attend(&self, q: &Tensor, k: &Tensor, v: &Tensor, mask: &[f32]) -> Tensor {
        let dk = self.inner_dim / self.heads;
        let scale = 1.0 / (dk as f32).sqrt();
        let head_outputs: Vec<Tensor> = (0..self.heads)
            .map(|h| {
                let (lo, hi) = (h * dk, (h + 1) * dk);
                let attn = q
                    .slice_cols(lo, hi)
                    .matmul_t(&k.slice_cols(lo, hi))
                    .softmax_rows_scaled_masked(scale, Some(mask));
                attn.matmul(&v.slice_cols(lo, hi))
            })
            .collect();
        Tensor::concat_cols(&head_outputs)
    }

    /// Inference-plane forward: self-attention over the raw `[t, d_model]`
    /// matrix `x` into `out`, using only workspace-leased buffers — no graph
    /// nodes, no allocation. Replicates [`MultiHeadAttention::forward`]
    /// op-for-op (same dispatching `Q·Kᵀ` kernel, same fused softmax, same
    /// per-head column slicing and concatenation), so it is bit-identical
    /// per backend.
    ///
    /// # Panics
    ///
    /// Panics if `x`/`out` lengths are not `t × d_model`.
    pub fn forward_infer(
        &self,
        x: &[f32],
        t: usize,
        out: &mut [f32],
        ws: &mut crate::workspace::Workspace,
    ) {
        use crate::inference as inf;
        let d_model = self.wq.in_features();
        assert_eq!(x.len(), t * d_model, "MultiHeadAttention::forward_infer: x is not t × d");
        assert_eq!(out.len(), t * d_model, "MultiHeadAttention::forward_infer: out is not t × d");
        let inner = self.inner_dim;
        let dk = inner / self.heads;
        let mut q = ws.lease(t * inner);
        let mut k = ws.lease(t * inner);
        let mut v = ws.lease(t * inner);
        self.wq.forward_infer(x, t, &mut q, ws);
        self.wk.forward_infer(x, t, &mut k, ws);
        self.wv.forward_infer(x, t, &mut v, ws);
        let scale = 1.0 / (dk as f32).sqrt();
        let mut mask = ws.lease(t * t); // zeroed: on/below diagonal stays 0
        for r in 0..t {
            mask[r * t + r + 1..(r + 1) * t].fill(-1e9);
        }
        let mut qh = ws.lease(t * dk);
        let mut kh = ws.lease(t * dk);
        let mut vh = ws.lease(t * dk);
        let mut attn = ws.lease(t * t);
        let mut head = ws.lease(t * dk);
        let mut joined = ws.lease(t * inner);
        for h in 0..self.heads {
            let lo = h * dk;
            // Column slices of q/k/v, exactly `slice_cols(lo, lo + dk)`.
            for r in 0..t {
                qh[r * dk..(r + 1) * dk].copy_from_slice(&q[r * inner + lo..r * inner + lo + dk]);
                kh[r * dk..(r + 1) * dk].copy_from_slice(&k[r * inner + lo..r * inner + lo + dk]);
                vh[r * dk..(r + 1) * dk].copy_from_slice(&v[r * inner + lo..r * inner + lo + dk]);
            }
            inf::matmul_t_into(&mut attn, &qh, &kh, t, dk, t);
            inf::softmax_rows_scaled_masked_inplace(&mut attn, t, t, scale, Some(&mask));
            inf::matmul_into(&mut head, &attn, &vh, t, t, dk);
            // concat_cols: head h occupies columns lo..lo+dk of `joined`.
            for r in 0..t {
                joined[r * inner + lo..r * inner + lo + dk]
                    .copy_from_slice(&head[r * dk..(r + 1) * dk]);
            }
        }
        self.wo.forward_infer(&joined, t, out, ws);
        ws.release(q);
        ws.release(k);
        ws.release(v);
        ws.release(mask);
        ws.release(qh);
        ws.release(kh);
        ws.release(vh);
        ws.release(attn);
        ws.release(head);
        ws.release(joined);
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

/// Additive causal mask: 0 on/below the diagonal, a large negative value
/// above it.
fn causal_mask(t: usize) -> Vec<f32> {
    let mut mask = vec![0.0f32; t * t];
    for r in 0..t {
        for c in (r + 1)..t {
            mask[r * t + c] = -1e9;
        }
    }
    mask
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

/// One pre-norm transformer encoder layer: `x + MHA(LN(x))`, then
/// `x + FFN(LN(x))`.
#[derive(Debug)]
pub struct TransformerEncoderLayer {
    attn: MultiHeadAttention,
    ffn: FeedForward,
    ln1: LayerNorm,
    ln2: LayerNorm,
}

impl TransformerEncoderLayer {
    /// Creates one encoder layer.
    pub fn new(model_dim: usize, inner_dim: usize, heads: usize, rng: &mut StdRng) -> Self {
        TransformerEncoderLayer {
            attn: MultiHeadAttention::new(model_dim, inner_dim, heads, rng),
            ffn: FeedForward::new(model_dim, 2 * inner_dim, rng),
            ln1: LayerNorm::new(model_dim),
            ln2: LayerNorm::new(model_dim),
        }
    }

    /// Applies the layer to `[T, D]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_grouped(x, 1)
    }

    /// Applies the layer to `windows` equal-length sequences stacked into
    /// `[windows · T, D]`: the layer norms, projections and feed-forward run
    /// once over all rows, attention per sequence
    /// ([`MultiHeadAttention::forward_grouped`]). Bit-identical per sequence
    /// to [`TransformerEncoderLayer::forward`].
    pub fn forward_grouped(&self, x: &Tensor, windows: usize) -> Tensor {
        let h = x.add(&self.attn.forward_grouped(&self.ln1.forward(x), windows));
        h.add(&self.ffn.forward(&self.ln2.forward(&h)))
    }

    /// Inference-plane forward: transforms the raw `[t, d]` sequence in
    /// place through the same pre-norm residual structure as
    /// [`TransformerEncoderLayer::forward`], bit-identical per backend.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not a multiple of `t`.
    pub fn forward_infer(&self, x: &mut [f32], t: usize, ws: &mut crate::workspace::Workspace) {
        let mut normed = ws.lease(x.len());
        let mut sub_out = ws.lease(x.len());
        // x += MHA(LN1(x))
        normed.copy_from_slice(x);
        self.ln1.forward_infer(&mut normed);
        self.attn.forward_infer(&normed, t, &mut sub_out, ws);
        crate::inference::add_assign(x, &sub_out);
        // x += FFN(LN2(x))
        normed.copy_from_slice(x);
        self.ln2.forward_infer(&mut normed);
        self.ffn.forward_infer(&normed, t, &mut sub_out, ws);
        crate::inference::add_assign(x, &sub_out);
        ws.release(normed);
        ws.release(sub_out);
    }

    /// Visits every linear layer in the block (attention projections, then
    /// the feed-forward pair), in a stable order.
    pub fn visit_linears(&self, f: &mut dyn FnMut(&Linear)) {
        self.attn.visit_linears(f);
        self.ffn.visit_linears(f);
    }

    /// Mutable form of [`TransformerEncoderLayer::visit_linears`].
    pub fn visit_linears_mut(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        self.attn.visit_linears_mut(f);
        self.ffn.visit_linears_mut(f);
    }
}

impl Module for TransformerEncoderLayer {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.attn.params();
        p.extend(self.ffn.params());
        p.extend(self.ln1.params());
        p.extend(self.ln2.params());
        p
    }
}

/// A stack of encoder layers; [`TransformerEncoder::forward_last`] returns
/// only the final time step's embedding, matching the paper's
/// `f'_t = T(F_t)` which keeps the output aligned with the last input frame.
#[derive(Debug)]
pub struct TransformerEncoder {
    layers: Vec<TransformerEncoderLayer>,
    model_dim: usize,
}

impl TransformerEncoder {
    /// Creates `n_layers` encoder layers.
    pub fn new(
        model_dim: usize,
        inner_dim: usize,
        heads: usize,
        n_layers: usize,
        rng: &mut StdRng,
    ) -> Self {
        let layers = (0..n_layers)
            .map(|_| TransformerEncoderLayer::new(model_dim, inner_dim, heads, rng))
            .collect();
        TransformerEncoder { layers, model_dim }
    }

    /// Full sequence output `[T, D]`.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        self.forward_grouped(x, 1)
    }

    /// Full output for `windows` equal-length sequences stacked into
    /// `[windows · T, D]` (see [`TransformerEncoderLayer::forward_grouped`]).
    fn forward_grouped(&self, x: &Tensor, windows: usize) -> Tensor {
        let mut h = x.clone();
        for layer in &self.layers {
            h = layer.forward_grouped(&h, windows);
        }
        h
    }

    /// The last time step's output as a 1-D `[D]` vector.
    pub fn forward_last(&self, x: &Tensor) -> Tensor {
        self.forward_last_grouped(x, 1).flatten()
    }

    /// The last time step of each of `windows` equal-length sequences
    /// stacked into `[windows · T, D]`, as a `[windows, D]` matrix. Row `w`
    /// is bit-identical to [`TransformerEncoder::forward_last`] on sequence
    /// `w` alone: every row-wise op runs once over all `windows · T` rows,
    /// attention per sequence.
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
        let t = rows / windows;
        let last: Vec<usize> = (1..=windows).map(|w| w * t - 1).collect();
        self.forward_grouped(x, windows).index_select_rows(&last)
    }

    /// Inference-plane form of [`TransformerEncoder::forward_last`]: runs
    /// the layer stack over the raw `[t, model_dim]` sequence in `seq` (in
    /// place) and copies the final time step into `out`. Bit-identical per
    /// backend to the autograd path.
    ///
    /// # Panics
    ///
    /// Panics if `seq.len() != t * model_dim`, `out.len() != model_dim`, or
    /// `t == 0`.
    pub fn forward_last_infer(
        &self,
        seq: &mut [f32],
        t: usize,
        out: &mut [f32],
        ws: &mut crate::workspace::Workspace,
    ) {
        assert!(t > 0, "TransformerEncoder::forward_last_infer: empty sequence");
        assert_eq!(
            seq.len(),
            t * self.model_dim,
            "TransformerEncoder::forward_last_infer: seq is not t × model_dim"
        );
        assert_eq!(
            out.len(),
            self.model_dim,
            "TransformerEncoder::forward_last_infer: out is not model_dim"
        );
        for layer in &self.layers {
            layer.forward_infer(seq, t, ws);
        }
        out.copy_from_slice(&seq[(t - 1) * self.model_dim..t * self.model_dim]);
    }

    /// Model dimensionality.
    pub fn model_dim(&self) -> usize {
        self.model_dim
    }

    /// Visits every linear layer in the stack, in a stable order.
    pub fn visit_linears(&self, f: &mut dyn FnMut(&Linear)) {
        for layer in &self.layers {
            layer.visit_linears(f);
        }
    }

    /// Mutable form of [`TransformerEncoder::visit_linears`].
    pub fn visit_linears_mut(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        for layer in &mut self.layers {
            layer.visit_linears_mut(f);
        }
    }
}

impl Module for TransformerEncoder {
    fn params(&self) -> Vec<Tensor> {
        self.layers.iter().flat_map(Module::params).collect()
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
        let m = causal_mask(3);
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
        let enc = TransformerEncoder::new(8, 16, 4, 2, &mut rng);
        let x = Tensor::zeros(&[6, 8]);
        let last = enc.forward_last(&x);
        assert_eq!(last.shape(), vec![8]);
    }

    #[test]
    fn encoder_grads_flow_to_all_params() {
        let mut rng = StdRng::seed_from_u64(3);
        let enc = TransformerEncoder::new(4, 8, 2, 1, &mut rng);
        let x = Tensor::from_vec((0..12).map(|i| i as f32 * 0.1).collect(), &[3, 4])
            .requires_grad(true);
        enc.forward_last(&x).sum_all().backward();
        for p in enc.params() {
            assert!(p.grad().is_some(), "param missing grad");
        }
        assert!(x.grad().is_some());
    }

    #[test]
    fn encoder_infer_matches_autograd_bitwise() {
        let _guard = crate::backend::test_lock();
        let mut rng = StdRng::seed_from_u64(5);
        let (t, d) = (5, 8);
        let enc = TransformerEncoder::new(d, 16, 4, 2, &mut rng);
        let data: Vec<f32> = (0..t * d).map(|i| ((i * 13 % 23) as f32 - 11.0) * 0.07).collect();
        let reference = enc.forward_last(&Tensor::from_vec(data.clone(), &[t, d])).to_vec();
        let mut ws = crate::workspace::Workspace::new();
        let mut seq = data;
        let mut out = vec![0.0f32; d];
        enc.forward_last_infer(&mut seq, t, &mut out, &mut ws);
        assert_eq!(out, reference, "inference encoder diverged from the autograd encoder");
        // Steady state: a second identical forward leases only pooled
        // buffers.
        let created = ws.stats().buffers_created;
        let mut seq2: Vec<f32> = (0..t * d).map(|i| (i as f32 * 0.11).sin()).collect();
        enc.forward_last_infer(&mut seq2, t, &mut out, &mut ws);
        assert_eq!(ws.stats().buffers_created, created, "second forward allocated new buffers");
    }

    #[test]
    fn attention_infer_matches_autograd_bitwise() {
        let _guard = crate::backend::test_lock();
        let mut rng = StdRng::seed_from_u64(6);
        let (t, d) = (4, 6);
        let mha = MultiHeadAttention::new(d, 8, 2, &mut rng);
        let data: Vec<f32> = (0..t * d).map(|i| ((i * 7 % 19) as f32 - 9.0) * 0.13).collect();
        let reference = mha.forward(&Tensor::from_vec(data.clone(), &[t, d])).to_vec();
        let mut ws = crate::workspace::Workspace::new();
        let mut out = vec![0.0f32; t * d];
        mha.forward_infer(&data, t, &mut out, &mut ws);
        assert_eq!(out, reference, "inference attention diverged from the autograd attention");
    }

    #[test]
    fn grouped_encoder_matches_per_sequence_bitwise() {
        let _guard = crate::backend::test_lock();
        let mut rng = StdRng::seed_from_u64(7);
        let (w, t, d) = (3, 4, 8);
        let enc = TransformerEncoder::new(d, 16, 4, 2, &mut rng);
        let data: Vec<f32> = (0..w * t * d).map(|i| ((i * 11 % 29) as f32 - 14.0) * 0.05).collect();
        let grouped = enc.forward_last_grouped(&Tensor::from_vec(data.clone(), &[w * t, d]), w);
        assert_eq!(grouped.shape(), vec![w, d]);
        let grouped = grouped.to_vec();
        for (i, seq) in data.chunks_exact(t * d).enumerate() {
            let solo = enc.forward_last(&Tensor::from_vec(seq.to_vec(), &[t, d])).to_vec();
            assert_eq!(&grouped[i * d..(i + 1) * d], &solo[..], "sequence {i} diverged");
        }
    }

    #[test]
    fn encoder_param_count_scales_with_layers() {
        let mut rng = StdRng::seed_from_u64(4);
        let e1 = TransformerEncoder::new(8, 16, 4, 1, &mut rng);
        let e2 = TransformerEncoder::new(8, 16, 4, 2, &mut rng);
        assert_eq!(e2.param_count(), 2 * e1.param_count());
    }
}
