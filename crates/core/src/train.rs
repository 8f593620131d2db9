//! Stage (B): training the lightweight GNN-based decision model on a
//! mission's videos. The token table stays frozen (node embeddings are the
//! joint-embedding model's knowledge); the GNN, temporal model and head
//! train with AdamW, cross-entropy, and the λ_spa/λ_smt regularizers.

use crate::config::TrainConfig;
use crate::loss::{decision_loss_smoothed, LABEL_SMOOTHING, LAMBDA_SMT, LAMBDA_SPA};
use crate::pipeline::MissionSystem;
use akg_data::Video;
use akg_kg::AnomalyClass;
use akg_tensor::nn::Module;
use akg_tensor::optim::{AdamW, AdamWConfig, Optimizer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Decaying threshold α_d of weakly-supervised pseudo-labelling: the
/// threshold is multiplied by it every step. Paper: 0.9999.
pub(crate) const DECAY_THRESHOLD: f32 = 0.9999;

/// Outcome of a training run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainReport {
    /// Loss after each step.
    pub loss_history: Vec<f32>,
    /// Steps executed.
    pub steps: usize,
    /// Final decaying threshold (weakly-supervised mode only).
    pub final_threshold: f32,
}

/// One sampled training window.
struct WindowSample {
    embeddings: Vec<Vec<f32>>,
    /// Class target: 0 = normal, `1 + mission index` = that anomaly.
    target: usize,
    /// Video-level label (for weak supervision).
    video_class: Option<AnomalyClass>,
}

/// Trains the system's decision model on the given videos (normal videos
/// plus videos of the deployed missions' classes).
///
/// In the default (frame-supervised) mode the synthetic generator's
/// frame-level labels supervise directly. In `weakly_supervised` mode only
/// video-level labels are used: frames of anomalous videos are
/// pseudo-labelled anomalous when their current anomaly score exceeds a
/// threshold that decays by α_d each step — our rendering of the paper's
/// decaying threshold.
///
/// # Panics
///
/// Panics if `videos` contains no normal video or no video of a deployed
/// mission class.
pub fn train_decision_model(
    sys: &mut MissionSystem,
    videos: &[&Video],
    cfg: &TrainConfig,
) -> TrainReport {
    let window_len = sys.engine.model.config().window;
    let missions = sys.engine.missions.clone();
    let normals: Vec<&Video> = videos.iter().copied().filter(|v| v.class.is_none()).collect();
    let anomalous: Vec<&Video> = videos
        .iter()
        .copied()
        .filter(|v| v.class.map(|c| missions.contains(&c)).unwrap_or(false))
        .collect();
    assert!(!normals.is_empty(), "training requires normal videos");
    assert!(!anomalous.is_empty(), "training requires mission-class videos");

    sys.engine.model.set_frozen(false); // the table is never differentiated
    let params = sys.engine.model.params();
    let mut opt = AdamW::new(params, AdamWConfig { lr: cfg.lr, weight_decay: cfg.weight_decay });
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut loss_history = Vec::with_capacity(cfg.steps);
    let mut threshold = 1.0f32;

    for _ in 0..cfg.steps {
        let mut batch: Vec<WindowSample> = Vec::with_capacity(cfg.batch_size);
        for b in 0..cfg.batch_size {
            // alternate normal / anomalous windows for balance
            let want_anomalous = b % 2 == 1;
            let sample = sample_window(
                sys,
                if want_anomalous { &anomalous } else { &normals },
                want_anomalous,
                &missions,
                window_len,
                &mut rng,
            );
            batch.push(sample);
        }

        if cfg.weakly_supervised {
            threshold *= DECAY_THRESHOLD;
            relabel_weakly(sys, &mut batch, threshold, &missions);
        }

        // One stacked forward for the whole step.
        let windows: Vec<&[Vec<f32>]> = batch.iter().map(|s| s.embeddings.as_slice()).collect();
        let targets: Vec<usize> = batch.iter().map(|s| s.target).collect();
        let logits = sys.engine.windows_logits(&sys.session, &windows);
        let loss =
            decision_loss_smoothed(&logits, &targets, LABEL_SMOOTHING, LAMBDA_SPA, LAMBDA_SMT);
        opt.zero_grad();
        loss.backward();
        opt.step();
        loss_history.push(loss.item());
    }

    // Training mutated the f32 masters; re-derive the int8 serving codes
    // (no-op at f32 precision) so the inference plane never serves stale
    // quantizations.
    sys.engine.model.refresh_quantized();
    TrainReport { steps: cfg.steps, loss_history, final_threshold: threshold }
}

/// Samples one training window ending at a random frame; when
/// `want_anomalous`, the end frame is drawn inside the anomaly segment.
fn sample_window(
    sys: &mut MissionSystem,
    pool: &[&Video],
    want_anomalous: bool,
    missions: &[AnomalyClass],
    window_len: usize,
    rng: &mut StdRng,
) -> WindowSample {
    let video = pool[rng.gen_range(0..pool.len())];
    let end = if want_anomalous {
        let (s, e) = video.anomaly_range.expect("anomalous pool video has a segment");
        rng.gen_range(s..e)
    } else {
        rng.gen_range(0..video.len())
    };
    let start = end.saturating_sub(window_len - 1);
    let mut embeddings: Vec<Vec<f32>> = video.frames[start..=end]
        .iter()
        .map(|f| sys.engine.embed_frame(&mut sys.session, f))
        .collect();
    while embeddings.len() < window_len {
        embeddings.insert(0, embeddings[0].clone());
    }
    let target = match video.frames[end].label {
        Some(class) => missions.iter().position(|m| *m == class).map(|i| i + 1).unwrap_or(0),
        None => 0,
    };
    WindowSample { embeddings, target, video_class: video.class }
}

/// Weak supervision: ignore frame labels; pseudo-label windows from
/// anomalous videos as anomalous only when the model's current score clears
/// the decaying threshold.
fn relabel_weakly(
    sys: &MissionSystem,
    batch: &mut [WindowSample],
    threshold: f32,
    missions: &[AnomalyClass],
) {
    for sample in batch.iter_mut() {
        match sample.video_class {
            None => sample.target = 0,
            Some(class) => {
                let score = sys.engine.score_window(&sys.session, &sample.embeddings);
                if score >= threshold.min(0.99) {
                    sample.target =
                        missions.iter().position(|m| *m == class).map(|i| i + 1).unwrap_or(0);
                } else {
                    sample.target = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SystemConfig;
    use akg_data::{DatasetConfig, SyntheticUcfCrime};

    fn quick_setup() -> (MissionSystem, SyntheticUcfCrime) {
        let sys = MissionSystem::build(&[AnomalyClass::Stealing], &SystemConfig::default());
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.015)
                .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
                .with_seed(11),
        );
        (sys, ds)
    }

    #[test]
    fn training_reduces_loss() {
        let (mut sys, ds) = quick_setup();
        let videos: Vec<&Video> = ds.train.iter().collect();
        let cfg = TrainConfig { steps: 40, batch_size: 8, ..TrainConfig::fast() };
        let report = train_decision_model(&mut sys, &videos, &cfg);
        assert_eq!(report.steps, 40);
        let first: f32 = report.loss_history[..5].iter().sum::<f32>() / 5.0;
        let last: f32 = report.loss_history[report.steps - 5..].iter().sum::<f32>() / 5.0;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn trained_model_separates_classes() {
        let (mut sys, ds) = quick_setup();
        let videos: Vec<&Video> = ds.train.iter().collect();
        let cfg = TrainConfig { steps: 100, batch_size: 12, ..TrainConfig::fast() };
        train_decision_model(&mut sys, &videos, &cfg);
        let subset = ds.test_subset(AnomalyClass::Stealing);
        let auc = sys.engine.evaluate_auc(&sys.session, &subset);
        assert!(auc > 0.7, "trained AUC too low: {auc}");
    }

    #[test]
    fn weakly_supervised_mode_runs_and_decays_threshold() {
        let (mut sys, ds) = quick_setup();
        let videos: Vec<&Video> = ds.train.iter().collect();
        let cfg = TrainConfig {
            steps: 10,
            batch_size: 4,
            weakly_supervised: true,
            ..TrainConfig::fast()
        };
        let report = train_decision_model(&mut sys, &videos, &cfg);
        assert!(report.final_threshold < 1.0);
        assert!(report.final_threshold > 0.9);
    }

    #[test]
    #[should_panic(expected = "requires normal videos")]
    fn training_rejects_missing_normals() {
        let (mut sys, ds) = quick_setup();
        let videos: Vec<&Video> = ds.train.iter().filter(|v| v.class.is_some()).collect();
        train_decision_model(&mut sys, &videos, &TrainConfig::fast());
    }
}
