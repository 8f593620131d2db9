//! Model and training configuration, with the paper's published
//! hyperparameters as the default profile and a scaled-down profile for
//! tests and quick benches.

use serde::{Deserialize, Serialize};

/// Dimensions and hyperparameters of the GNN-based decision model.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Joint-embedding dimensionality (ImageBind-Huge uses 1024; our
    /// synthetic joint space defaults to 64, preserving the geometry while
    /// staying laptop-fast).
    pub embed_dim: usize,
    /// Short-term temporal window `T` (frames per transformer input).
    pub window: usize,
    /// Temporal model inner dimensionality. Paper: 128.
    pub temporal_inner: usize,
    /// Attention heads. Paper: 8.
    pub heads: usize,
    /// RNG seed for parameter initialization.
    pub seed: u64,
}

impl ModelConfig {
    /// The paper's configuration (Sec. IV-A), with our joint space's
    /// 64-dimensional embeddings.
    pub fn paper() -> Self {
        ModelConfig { embed_dim: 64, window: 8, temporal_inner: 128, heads: 8, seed: 0 }
    }

    /// A scaled-down profile for unit tests and fast experiment smoke runs:
    /// same architecture, smaller widths and window.
    pub fn fast() -> Self {
        ModelConfig {
            embed_dim: 32,
            window: 4,
            temporal_inner: 32,
            heads: 4,
            ..ModelConfig::paper()
        }
    }

    /// Sets the parameter-initialization seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig::paper()
    }
}

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainConfig {
    /// AdamW learning rate. Paper: 1e-5 (our smaller synthetic problem
    /// trains well at 1e-3; profiles set this).
    pub lr: f32,
    /// Decoupled weight decay. Paper: 1.0.
    pub weight_decay: f32,
    /// Mini-batch size (windows per step). Paper: 128.
    pub batch_size: usize,
    /// Training steps. Paper: 3 000.
    pub steps: usize,
    /// Use weak (video-level) supervision with the decaying-threshold
    /// pseudo-labelling instead of frame labels.
    pub weakly_supervised: bool,
    /// Data-sampling seed.
    pub seed: u64,
}

impl TrainConfig {
    /// The paper's published recipe.
    pub fn paper() -> Self {
        TrainConfig {
            lr: 1e-5,
            weight_decay: 1.0,
            batch_size: 128,
            steps: 3000,
            weakly_supervised: false,
            seed: 0,
        }
    }

    /// A fast recipe for tests and smoke runs: higher lr, tiny weight
    /// decay, small batches, few steps — enough to separate the synthetic
    /// classes.
    pub fn fast() -> Self {
        TrainConfig {
            lr: 3e-3,
            weight_decay: 1e-4,
            batch_size: 16,
            steps: 240,
            weakly_supervised: false,
            seed: 0,
        }
    }

    /// Sets the data-sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_publication() {
        let m = ModelConfig::paper();
        assert_eq!(crate::model::GNN_DIM, 8);
        assert_eq!(m.temporal_inner, 128);
        assert_eq!(m.heads, 8);
        assert_eq!(crate::loss::LAMBDA_SPA, 0.001);
        assert_eq!(crate::loss::LAMBDA_SMT, 0.001);
        assert_eq!(crate::train::DECAY_THRESHOLD, 0.9999);
        let t = TrainConfig::paper();
        assert_eq!(t.lr, 1e-5);
        assert_eq!(t.weight_decay, 1.0);
        assert_eq!(t.batch_size, 128);
        assert_eq!(t.steps, 3000);
    }

    #[test]
    fn fast_profile_is_smaller() {
        let fast = ModelConfig::fast();
        let paper = ModelConfig::paper();
        assert!(fast.embed_dim <= paper.embed_dim);
        assert!(fast.window <= paper.window);
        assert!(TrainConfig::fast().steps < TrainConfig::paper().steps);
    }

    #[test]
    fn inner_dim_divisible_by_heads() {
        for cfg in [ModelConfig::paper(), ModelConfig::fast()] {
            assert_eq!(cfg.temporal_inner % cfg.heads, 0);
        }
    }
}
