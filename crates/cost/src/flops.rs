//! Analytic FLOP accounting for every component of the deployed system —
//! the measured side of the paper's Table I.
//!
//! Counts follow the usual convention: a multiply–accumulate is 2 FLOPs; a
//! transcendental (exp/tanh/sqrt) is counted as 4.

use serde::{Deserialize, Serialize};

const TRANSCENDENTAL: u64 = 4;

/// Shape summary of one mission-specific KG as seen by the GNN.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct KgDims {
    /// Live node count |V| (including sensor and embedding nodes).
    pub nodes: usize,
    /// Edge count |E|.
    pub edges: usize,
    /// Hierarchy levels d + 2.
    pub levels: usize,
}

/// Shape summary of the full decision model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ModelDims {
    /// Number of mission KGs `n`.
    pub kgs: usize,
    /// Per-KG shape (assumed homogeneous; use the max over KGs otherwise).
    pub kg: KgDims,
    /// Joint-embedding dimensionality feeding the sensor node.
    pub embed_dim: usize,
    /// GNN layer width `D_l` (the paper uses 8 at every layer).
    pub gnn_dim: usize,
    /// Temporal window `T`.
    pub window: usize,
    /// Temporal model inner dimensionality (paper: 128).
    pub temporal_inner: usize,
    /// Attention heads (paper: 8).
    pub heads: usize,
    /// Transformer encoder layers.
    pub temporal_layers: usize,
    /// Decision classes `n + 1`.
    pub classes: usize,
}

impl ModelDims {
    /// FLOPs of one dense sub-layer application at layer width `d_in ->
    /// d_out` over all |V| nodes (Eq. 1).
    pub fn dense_flops(&self, d_in: usize, d_out: usize) -> u64 {
        (2 * d_in * d_out * self.kg.nodes + d_out * self.kg.nodes) as u64
    }

    /// FLOPs of hierarchical message passing (Eq. 2): one elementwise
    /// product per edge.
    pub fn message_flops(&self) -> u64 {
        (self.kg.edges * self.gnn_dim) as u64
    }

    /// FLOPs of the hierarchical aggregation (Eq. 3): one add per edge plus
    /// one divide per receiving node.
    pub fn aggregate_flops(&self) -> u64 {
        ((self.kg.edges + self.kg.nodes) * self.gnn_dim) as u64
    }

    /// FLOPs of batch-norm + ELU over all nodes (Eq. 4).
    pub fn norm_act_flops(&self) -> u64 {
        // normalize (4 ops/element) + ELU (counted transcendental)
        ((4 + TRANSCENDENTAL as usize) * self.kg.nodes * self.gnn_dim) as u64
    }

    /// FLOPs of one full GNN layer.
    pub fn gnn_layer_flops(&self, d_in: usize) -> u64 {
        self.dense_flops(d_in, self.gnn_dim)
            + self.message_flops()
            + self.aggregate_flops()
            + self.norm_act_flops()
    }

    /// FLOPs of one hierarchical-GNN forward over all `n` KGs for a single
    /// frame: the first layer maps `embed_dim -> gnn_dim`, the remaining
    /// `levels - 1` layers map `gnn_dim -> gnn_dim`.
    pub fn gnn_forward_flops(&self) -> u64 {
        let first = self.gnn_layer_flops(self.embed_dim);
        let rest = (self.kg.levels.saturating_sub(1)) as u64 * self.gnn_layer_flops(self.gnn_dim);
        (first + rest) * self.kgs as u64
    }

    /// Reasoning embedding width `D = n * gnn_dim`.
    pub fn reasoning_dim(&self) -> usize {
        self.kgs * self.gnn_dim
    }

    /// FLOPs of one temporal-transformer forward over a `T x D` window.
    pub fn temporal_forward_flops(&self) -> u64 {
        let t = self.window as u64;
        let d = self.reasoning_dim() as u64;
        let inner = self.temporal_inner as u64;
        let qkv = 3 * 2 * t * d * inner;
        let attn = 2 * 2 * t * t * inner; // scores + weighted sum
        let softmax = TRANSCENDENTAL * t * t;
        let proj = 2 * t * inner * d;
        let ffn = 2 * 2 * t * d * (2 * inner) + TRANSCENDENTAL * t * 2 * inner;
        let norms = 2 * 8 * t * d;
        self.temporal_layers as u64 * (qkv + attn + softmax + proj + ffn + norms)
    }

    /// FLOPs of the decision head (Eq. 5) for one window.
    pub fn decision_flops(&self) -> u64 {
        let d = self.reasoning_dim() as u64;
        let c = self.classes as u64;
        2 * d * c + TRANSCENDENTAL * c
    }

    /// FLOPs of scoring one frame end to end (GNN + temporal + head).
    pub fn inference_flops(&self) -> u64 {
        self.gnn_forward_flops() + self.temporal_forward_flops() + self.decision_flops()
    }

    /// FLOPs of one token-update SGD step (one epoch of a trigger) as the
    /// adapter runs it. The stacked forward runs each of the
    /// `distinct_frames` buffered frames through the GNNs once, and the
    /// temporal model and head once per pseudo-labelled window; the
    /// backward costs ≈ 2× the forward. The update is plain SGD with
    /// gradient-norm clipping on the `sgd_entries` (= `r × dim`) entries of
    /// the `r` token rows the KGs reference; no other table row is touched.
    pub fn adaptation_step_flops(
        &self,
        distinct_frames: usize,
        windows: usize,
        sgd_entries: usize,
    ) -> u64 {
        let fw = self.gnn_forward_flops() * distinct_frames as u64
            + (self.temporal_forward_flops() + self.decision_flops()) * windows as u64;
        let bw = 2 * fw;
        // clip: square + accumulate + rescale; SGD: scale + subtract
        let update = 5 * sgd_entries as u64;
        fw + bw + update
    }

    /// Rough parameter count of the decision model.
    pub fn param_count(&self) -> u64 {
        let gnn = self.kgs
            * (self.embed_dim * self.gnn_dim
                + self.kg.levels.saturating_sub(1) * self.gnn_dim * self.gnn_dim);
        let d = self.reasoning_dim();
        let temporal = self.temporal_layers
            * (4 * d * self.temporal_inner + 2 * d * 2 * self.temporal_inner + 4 * d);
        let head = d * self.classes + self.classes;
        (gnn + temporal + head) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> ModelDims {
        ModelDims {
            kgs: 1,
            kg: KgDims { nodes: 20, edges: 40, levels: 5 },
            embed_dim: 64,
            gnn_dim: 8,
            window: 8,
            temporal_inner: 32,
            heads: 4,
            temporal_layers: 1,
            classes: 2,
        }
    }

    #[test]
    fn inference_flops_positive_and_composed() {
        let d = dims();
        assert_eq!(
            d.inference_flops(),
            d.gnn_forward_flops() + d.temporal_forward_flops() + d.decision_flops()
        );
        assert!(d.inference_flops() > 0);
    }

    #[test]
    fn flops_scale_with_kg_count() {
        let one = dims();
        let two = ModelDims { kgs: 2, ..dims() };
        assert_eq!(two.gnn_forward_flops(), 2 * one.gnn_forward_flops());
        assert!(two.inference_flops() > one.inference_flops());
    }

    #[test]
    fn adaptation_dominated_by_backward() {
        let d = dims();
        let forward =
            10 * d.gnn_forward_flops() + 4 * (d.temporal_forward_flops() + d.decision_flops());
        assert!(d.adaptation_step_flops(10, 4, 96) >= 3 * forward);
    }

    #[test]
    fn adaptation_terms_scale_with_their_own_input() {
        let d = dims();
        let base = d.adaptation_step_flops(10, 4, 96);
        // GNN work per distinct frame, temporal + head per window, SGD per
        // referenced entry — each forward term paid once more by backward
        assert_eq!(d.adaptation_step_flops(11, 4, 96) - base, 3 * d.gnn_forward_flops());
        assert_eq!(
            d.adaptation_step_flops(10, 5, 96) - base,
            3 * (d.temporal_forward_flops() + d.decision_flops())
        );
        assert_eq!(d.adaptation_step_flops(10, 4, 97) - base, 5);
    }

    #[test]
    fn edge_scale_is_modest() {
        // the headline claim: daily edge adaptation ~1e9 FLOPs, i.e. far
        // below one cloud KG regeneration at 1e15
        let d = dims();
        let daily = 2 * d.adaptation_step_flops(64, 18, 12 * 64);
        assert!(daily < 1_000_000_000_000, "daily adaptation {daily} FLOPs");
    }

    #[test]
    fn param_count_reasonable() {
        let d = dims();
        let p = d.param_count();
        assert!(p > 100 && p < 10_000_000, "params {p}");
    }
}
