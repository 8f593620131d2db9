//! Experiment protocols of the paper's evaluation section, shared by the
//! bench harness, the examples and the integration tests:
//!
//! - [`run_trend_shift`] — Fig. 5: test AUC across an anomaly-trend shift,
//!   with vs without continuous KG adaptive learning.
//! - [`run_retrieval_drift`] — Fig. 6: token-embedding drift decoded via
//!   interpretable retrieval.

use crate::adapt::{AdaptConfig, ContinuousAdapter};
use crate::config::TrainConfig;
use crate::pipeline::{MissionSystem, SystemConfig};
use crate::retrieval::InterpretableRetrieval;
use crate::train::train_decision_model;
use akg_data::{AdaptationStream, SyntheticUcfCrime};
use akg_embed::Similarity;
use akg_kg::AnomalyClass;
use serde::{Deserialize, Serialize};

/// Parameters of a Fig. 5-style trend-shift run.
#[derive(Debug, Clone)]
pub struct TrendShiftParams {
    /// The initially trained anomaly class.
    pub initial: AnomalyClass,
    /// The class the trend shifts to.
    pub shifted: AnomalyClass,
    /// Measurement steps before the shift.
    pub steps_before: usize,
    /// Measurement steps after the shift.
    pub steps_after: usize,
    /// Deployed frames streamed between consecutive measurements.
    pub frames_per_step: usize,
    /// Fraction of anomalous frames in the deployment stream.
    pub anomaly_ratio: f64,
    /// System construction settings.
    pub system: SystemConfig,
    /// Initial-training settings.
    pub train: TrainConfig,
    /// Adaptation settings.
    pub adapt: AdaptConfig,
    /// Stream seed.
    pub seed: u64,
}

impl TrendShiftParams {
    /// A laptop-fast default for the given scenario.
    pub fn quick(initial: AnomalyClass, shifted: AnomalyClass) -> Self {
        TrendShiftParams {
            initial,
            shifted,
            steps_before: 2,
            steps_after: 4,
            frames_per_step: 256,
            anomaly_ratio: 0.5,
            system: SystemConfig::default(),
            train: TrainConfig::fast(),
            adapt: AdaptConfig::default(),
            seed: 0,
        }
    }
}

/// One measurement point of a trend-shift run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendShiftPoint {
    /// Continuous-learning step index (0 = right after initial training).
    pub step: usize,
    /// Whether the shift has happened at this step.
    pub after_shift: bool,
    /// Test AUC against the currently active anomaly class.
    pub auc: f32,
    /// Mean shift Δm at measurement time (adaptive runs only).
    pub delta_m: f32,
    /// Cumulative structural replacements (adaptive runs only).
    pub replacements: usize,
}

/// Result of one trend-shift run (one curve of Fig. 5).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendShiftCurve {
    /// Whether continuous KG adaptive learning was enabled.
    pub adaptive: bool,
    /// The measurement series.
    pub points: Vec<TrendShiftPoint>,
}

impl TrendShiftCurve {
    /// Mean AUC over the post-shift steps.
    pub fn post_shift_mean_auc(&self) -> f32 {
        let post: Vec<f32> = self.points.iter().filter(|p| p.after_shift).map(|p| p.auc).collect();
        if post.is_empty() {
            return 0.0;
        }
        post.iter().sum::<f32>() / post.len() as f32
    }

    /// Mean AUC over all steps (the Table I "Average AUC" entry).
    pub fn mean_auc(&self) -> f32 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|p| p.auc).sum::<f32>() / self.points.len() as f32
    }
}

/// Both curves of one Fig. 5 panel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrendShiftResult {
    /// With continuous KG adaptive learning.
    pub adaptive: TrendShiftCurve,
    /// Without (static KG).
    pub static_kg: TrendShiftCurve,
    /// AUC right after initial training, before deployment.
    pub initial_auc: f32,
}

/// Runs one Fig. 5 panel: trains on the initial class, deploys, streams
/// frames whose anomaly class shifts mid-run, and measures test AUC at every
/// step — once with adaptation enabled and once with a static KG
/// (deterministic seeds make the two runs directly comparable).
pub fn run_trend_shift(dataset: &SyntheticUcfCrime, params: &TrendShiftParams) -> TrendShiftResult {
    let adaptive = run_single(dataset, params, true);
    let static_kg = run_single(dataset, params, false);
    TrendShiftResult { initial_auc: adaptive.0, adaptive: adaptive.1, static_kg: static_kg.1 }
}

fn run_single(
    dataset: &SyntheticUcfCrime,
    params: &TrendShiftParams,
    adaptive: bool,
) -> (f32, TrendShiftCurve) {
    let mut sys = MissionSystem::build(&[params.initial], &params.system);
    let train_videos: Vec<&akg_data::Video> = dataset
        .train
        .iter()
        .filter(|v| v.class.is_none() || v.class == Some(params.initial))
        .collect();
    train_decision_model(&mut sys, &train_videos, &params.train);
    let initial_auc = {
        let subset = dataset.test_subset(params.initial);
        sys.engine.evaluate_auc(&sys.session, &subset)
    };

    // The static run attaches too (freezing the model) but never observes
    // through the adapter, so its KG never adapts.
    let MissionSystem { engine, mut session } = sys;
    let mut adapter = ContinuousAdapter::attach(&engine, &mut session, params.adapt);
    let mut stream =
        AdaptationStream::new(dataset, params.initial, params.anomaly_ratio, params.seed);
    let mut points = Vec::new();
    let total_steps = params.steps_before + params.steps_after;
    for step in 0..total_steps {
        let after_shift = step >= params.steps_before;
        if step == params.steps_before {
            stream.shift_to(params.shifted);
        }
        for _ in 0..params.frames_per_step {
            let (frame, _) = stream.next_frame();
            if adaptive {
                adapter.observe(&engine, &mut session, &frame);
            } else {
                // static run keeps consuming the stream (embedding advances
                // the same frame RNG as the adaptive run) but never adapts;
                // its AUC comes from evaluate_auc on the test subset below
                let _ = engine.embed_frame(&mut session, &frame);
            }
        }
        let active = if after_shift { params.shifted } else { params.initial };
        let subset = dataset.test_subset(active);
        let auc = engine.evaluate_auc(&session, &subset);
        points.push(TrendShiftPoint {
            step,
            after_shift,
            auc,
            delta_m: if adaptive { adapter.delta_m() } else { 0.0 },
            replacements: if adaptive { adapter.replacements() } else { 0 },
        });
    }
    (initial_auc, TrendShiftCurve { adaptive, points })
}

/// Parameters of a Fig. 6-style retrieval-drift run.
#[derive(Debug, Clone)]
pub struct RetrievalDriftParams {
    /// Trend-shift protocol driving the adaptation.
    pub shift: TrendShiftParams,
    /// Record the node-embedding snapshot every this many adaptation frames.
    pub snapshot_every: usize,
    /// Words considered "initial" concepts (distance axis 1 of Fig. 6).
    pub initial_words: Vec<String>,
    /// Words considered "other/new" concepts (distance axis 2).
    pub target_words: Vec<String>,
    /// Top-K for word retrieval.
    pub top_k: usize,
    /// Retrieval metric (the paper uses Euclidean).
    pub metric: Similarity,
}

/// One snapshot of the drift trajectory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftSnapshot {
    /// Adaptation frame count at snapshot time.
    pub iteration: usize,
    /// Mean distance of tracked node embeddings to the initial words.
    pub distance_to_initial: f32,
    /// Mean distance to the target words.
    pub distance_to_target: f32,
    /// Top retrieved words across tracked nodes (deduplicated, most common
    /// first).
    pub retrieved: Vec<String>,
}

/// Result of a Fig. 6 run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RetrievalDriftResult {
    /// The trajectory snapshots.
    pub snapshots: Vec<DriftSnapshot>,
}

impl RetrievalDriftResult {
    /// Whether the trajectory net-moved toward the target concepts.
    pub fn moved_toward_target(&self) -> bool {
        match (self.snapshots.first(), self.snapshots.last()) {
            (Some(first), Some(last)) => {
                let start_gap = first.distance_to_target - first.distance_to_initial;
                let end_gap = last.distance_to_target - last.distance_to_initial;
                end_gap < start_gap
            }
            _ => false,
        }
    }
}

/// Runs the Fig. 6 protocol: adapts through a trend shift while recording
/// node-embedding snapshots and their interpretable retrievals.
pub fn run_retrieval_drift(
    dataset: &SyntheticUcfCrime,
    params: &RetrievalDriftParams,
) -> RetrievalDriftResult {
    let sp = &params.shift;
    let mut sys = MissionSystem::build(&[sp.initial], &sp.system);
    let train_videos: Vec<&akg_data::Video> =
        dataset.train.iter().filter(|v| v.class.is_none() || v.class == Some(sp.initial)).collect();
    train_decision_model(&mut sys, &train_videos, &sp.train);
    let MissionSystem { engine, mut session } = sys;
    let retrieval = InterpretableRetrieval::new(&engine.tokenizer, &engine.space);
    let mut adapter = ContinuousAdapter::attach(&engine, &mut session, sp.adapt);
    let mut stream = AdaptationStream::new(dataset, sp.shifted, sp.anomaly_ratio, sp.seed);

    let initial_words: Vec<&str> = params.initial_words.iter().map(String::as_str).collect();
    let target_words: Vec<&str> = params.target_words.iter().map(String::as_str).collect();
    let total = (sp.steps_before + sp.steps_after) * sp.frames_per_step;
    let mut snapshots = Vec::new();
    for i in 0..total {
        let (frame, _) = stream.next_frame();
        adapter.observe(&engine, &mut session, &frame);
        if i % params.snapshot_every == 0 || i + 1 == total {
            let embeddings = adapter.node_embeddings(&session);
            let mut d_init = 0.0f32;
            let mut d_target = 0.0f32;
            let mut words: Vec<String> = Vec::new();
            for emb in embeddings.values() {
                d_init += retrieval.distance_to_words(emb, &initial_words);
                d_target += retrieval.distance_to_words(emb, &target_words);
                for hit in retrieval.nearest_words(emb, params.top_k, params.metric) {
                    if !words.contains(&hit.word) {
                        words.push(hit.word);
                    }
                }
            }
            let n = embeddings.len().max(1) as f32;
            snapshots.push(DriftSnapshot {
                iteration: i,
                distance_to_initial: d_init / n,
                distance_to_target: d_target / n,
                retrieved: words,
            });
        }
    }
    RetrievalDriftResult { snapshots }
}
