//! End-to-end wiring of the three pipeline stages (paper Fig. 2): KG
//! generation (A), decision-model training (B) — and the deployment target
//! that stage (C), continuous adaptation, operates on.
//!
//! [`SystemConfig`] is the build recipe [`Engine::build`] consumes. A
//! [`MissionSystem`] pairs an engine with one [`Session`], the unit initial
//! training ([`crate::train::train_decision_model`]) runs on; every scoring,
//! adaptation and persistence entry point takes the engine and a session
//! directly (see [`crate::engine`] and the `akg-runtime` crate).

use crate::config::ModelConfig;
use crate::engine::{Engine, Session};
use akg_kg::AnomalyClass;

/// Observation-noise standard deviation of the synthetic frame encoder.
pub const FRAME_NOISE_STD: f32 = 0.02;

/// A trainable mission system: an [`Engine`] plus the one [`Session`]
/// initial training embeds its frames through.
#[derive(Debug)]
pub struct MissionSystem {
    /// The shared, immutable-after-build half: tokenizer, joint space,
    /// trained token table, KG templates, layouts, decision model.
    pub engine: Engine,
    /// The single stream's adaptive state: table overlay, KG copies,
    /// layouts, frame RNG.
    pub session: Session,
}

/// Builder inputs for [`MissionSystem::build`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Model dimensions.
    pub model: ModelConfig,
    /// Kernel thread-pool policy. Applied process-wide when the system is
    /// built (tensors are `Rc`-based, so parallelism lives inside the raw
    /// kernels — see [`akg_tensor::par`]); every matmul in the training,
    /// scoring, and adaptation loops, and every batched embedding lookup,
    /// runs under this setting. Results are bit-for-bit identical at any
    /// thread count.
    pub parallelism: akg_tensor::Parallelism,
    /// Kernel compute-backend policy (scalar vs. AVX2+FMA SIMD), applied
    /// process-wide alongside `parallelism` when the system is built — see
    /// [`akg_tensor::backend`]. The default `Auto` uses SIMD wherever the
    /// CPU supports it; force [`akg_tensor::Backend::Scalar`] for bit-exact
    /// reproducibility against non-SIMD hosts or the pre-SIMD history.
    pub backend: akg_tensor::Backend,
    /// Serving-plane numeric precision. [`akg_tensor::Precision::Int8`]
    /// pre-quantizes the frozen decision-model weights once at
    /// [`Engine::build`] (per-row-scaled symmetric int8, see
    /// [`akg_tensor::quant`]); sessions, training, and adaptation stay f32
    /// — only the immutable engine weights change representation. Unlike
    /// `backend`, this is per-engine state, not a process-wide switch.
    pub precision: akg_tensor::Precision,
    /// Master seed.
    pub seed: u64,
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig {
            model: ModelConfig::fast(),
            parallelism: akg_tensor::Parallelism::Auto,
            backend: akg_tensor::Backend::Auto,
            precision: akg_tensor::Precision::F32,
            seed: 0,
        }
    }
}

impl MissionSystem {
    /// Builds the system for the given missions: an [`Engine::build`] plus
    /// one session seeded exactly as the pre-split monolith seeded its frame
    /// RNG, so single-tenant behaviour is unchanged.
    pub fn build(missions: &[AnomalyClass], config: &SystemConfig) -> Self {
        let engine = Engine::build(missions, config);
        let session = engine.new_session(config.seed ^ 0xF0F0);
        MissionSystem { engine, session }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use akg_data::{DatasetConfig, Frame, SyntheticUcfCrime};
    use akg_tensor::nn::Module;

    fn system() -> MissionSystem {
        MissionSystem::build(&[AnomalyClass::Stealing], &SystemConfig::default())
    }

    #[test]
    fn build_wires_all_components() {
        let sys = system();
        assert_eq!(sys.session.kgs.len(), 1);
        assert_eq!(sys.session.layouts.len(), 1);
        assert!(sys.session.kgs[0].kg.validate().is_empty());
        assert_eq!(sys.engine.model.n_classes(), 2);
        assert!(sys.session.table.spare_remaining() > 0);
    }

    #[test]
    fn embed_frame_produces_model_dim() {
        let MissionSystem { engine, mut session } = system();
        let frame = Frame { concepts: vec![("walking".into(), 1.0)], label: None };
        let emb = engine.embed_frame(&mut session, &frame);
        assert_eq!(emb.len(), engine.model.config().embed_dim);
    }

    #[test]
    fn score_window_in_unit_interval() {
        let MissionSystem { engine, mut session } = system();
        let w = engine.model.config().window;
        let frame = Frame { concepts: vec![("walking".into(), 1.0)], label: None };
        let emb = engine.embed_frame(&mut session, &frame);
        let score = engine.score_window(&session, &vec![emb; w]);
        assert!((0.0..=1.0).contains(&score), "score {score}");
    }

    #[test]
    fn score_video_aligns_labels() {
        let sys = system();
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.01).with_classes(&[AnomalyClass::Stealing]).with_seed(1),
        );
        let video = ds.train_videos_of(AnomalyClass::Stealing)[0];
        let (scores, labels) = sys.engine.score_video(&sys.session, video);
        assert_eq!(scores.len(), video.len());
        assert_eq!(labels.len(), video.len());
        let (start, end) = video.anomaly_range.unwrap();
        assert!(labels[start] && labels[end - 1]);
    }

    #[test]
    fn adaptation_mode_toggles_freezing() {
        // Attaching an adapter freezes the shared model; initial training
        // makes it trainable again.
        let mut sys = system();
        let _adapter = crate::adapt::ContinuousAdapter::attach(
            &sys.engine,
            &mut sys.session,
            crate::adapt::AdaptConfig::default(),
        );
        assert!(!sys.engine.model.params()[0].requires_grad_flag());
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.01).with_classes(&[AnomalyClass::Stealing]).with_seed(3),
        );
        let videos: Vec<&akg_data::Video> = ds.train.iter().collect();
        let cfg = crate::config::TrainConfig { steps: 0, ..crate::config::TrainConfig::fast() };
        crate::train::train_decision_model(&mut sys, &videos, &cfg);
        assert!(sys.engine.model.params()[0].requires_grad_flag());
    }

    #[test]
    fn untrained_auc_near_chance() {
        let sys = system();
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.01).with_classes(&[AnomalyClass::Stealing]).with_seed(2),
        );
        let subset = ds.test_subset(AnomalyClass::Stealing);
        let auc = sys.engine.evaluate_auc(&sys.session, &subset);
        assert!((0.0..=1.0).contains(&auc));
    }

    #[test]
    fn cost_dims_populated() {
        let sys = system();
        let dims = sys.engine.cost_dims(&sys.session);
        assert!(dims.kg.nodes > 0);
        assert!(dims.kg.edges > 0);
        assert_eq!(dims.kgs, 1);
        assert!(sys.session.adapted_token_entries() > 0);
    }
}
