//! The synthetic UCF-Crime-like benchmark: split sizes match the paper's
//! description (training: 800 normal + 810 anomalous videos; testing: 150
//! normal + 140 anomalous; 13 anomaly classes), with a scale knob so unit
//! tests stay fast.

use crate::video::{generate_anomalous_video, generate_normal_video, Video};
use akg_kg::ontology::{AnomalyClass, Ontology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Split sizes and generation parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DatasetConfig {
    /// Normal videos in the training split.
    pub train_normal: usize,
    /// Anomalous videos in the training split.
    pub train_anomalous: usize,
    /// Normal videos in the test split.
    pub test_normal: usize,
    /// Anomalous videos in the test split.
    pub test_anomalous: usize,
    /// Anomaly classes present (defaults to all 13).
    pub classes: Vec<AnomalyClass>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DatasetConfig {
    /// The paper's UCF-Crime split: 800/810 train, 150/140 test.
    fn default() -> Self {
        DatasetConfig {
            train_normal: 800,
            train_anomalous: 810,
            test_normal: 150,
            test_anomalous: 140,
            classes: AnomalyClass::ALL.to_vec(),
            seed: 0,
        }
    }
}

impl DatasetConfig {
    /// A proportionally scaled-down config (for tests/benches). `factor`
    /// in `(0, 1]`; every split keeps at least one video.
    pub fn scaled(factor: f64) -> Self {
        let full = DatasetConfig::default();
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        DatasetConfig {
            train_normal: scale(full.train_normal),
            train_anomalous: scale(full.train_anomalous),
            test_normal: scale(full.test_normal),
            test_anomalous: scale(full.test_anomalous),
            ..full
        }
    }

    /// Restricts anomalies to the given classes.
    pub fn with_classes(mut self, classes: &[AnomalyClass]) -> Self {
        self.classes = classes.to_vec();
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The generated dataset.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SyntheticUcfCrime {
    /// Training split (normal + anomalous, shuffled by id).
    pub train: Vec<Video>,
    /// Test split.
    pub test: Vec<Video>,
    config: DatasetConfig,
}

impl SyntheticUcfCrime {
    /// Generates the dataset.
    pub fn generate(config: DatasetConfig) -> Self {
        let ontology = Ontology::new();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut next_id = 0usize;
        let mut make = |count_normal: usize, count_anomalous: usize, rng: &mut StdRng| {
            let mut videos = Vec::with_capacity(count_normal + count_anomalous);
            for _ in 0..count_normal {
                videos.push(generate_normal_video(next_id, rng));
                next_id += 1;
            }
            for i in 0..count_anomalous {
                let class = config.classes[i % config.classes.len()];
                videos.push(generate_anomalous_video(next_id, class, &ontology, rng));
                next_id += 1;
            }
            videos
        };
        let train = make(config.train_normal, config.train_anomalous, &mut rng);
        let test = make(config.test_normal, config.test_anomalous, &mut rng);
        SyntheticUcfCrime { train, test, config }
    }

    /// The configuration this dataset was generated with.
    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    /// Training videos of a specific anomaly class.
    pub fn train_videos_of(&self, class: AnomalyClass) -> Vec<&Video> {
        self.train.iter().filter(|v| v.class == Some(class)).collect()
    }

    /// Normal training videos.
    pub fn train_normal_videos(&self) -> Vec<&Video> {
        self.train.iter().filter(|v| v.class.is_none()).collect()
    }

    /// Test videos relevant to a mission: all normal videos plus the
    /// anomalous videos of `class` (the per-mission test protocol used for
    /// the paper's AUC curves).
    pub fn test_subset(&self, class: AnomalyClass) -> Vec<&Video> {
        self.test.iter().filter(|v| v.class.is_none() || v.class == Some(class)).collect()
    }
}

/// Samples a random frame (frame, is_anomalous) from a video set, weighting
/// every frame equally.
pub fn sample_frame<'a>(
    videos: &[&'a Video],
    rng: &mut StdRng,
) -> Option<(&'a crate::video::Frame, bool)> {
    let total: usize = videos.iter().map(|v| v.len()).sum();
    if total == 0 {
        return None;
    }
    let mut target = rng.gen_range(0..total);
    for v in videos {
        if target < v.len() {
            let f = &v.frames[target];
            return Some((f, f.is_anomalous()));
        }
        target -= v.len();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SyntheticUcfCrime {
        SyntheticUcfCrime::generate(DatasetConfig::scaled(0.02).with_seed(3))
    }

    #[test]
    fn default_matches_paper_split() {
        let cfg = DatasetConfig::default();
        assert_eq!(cfg.train_normal, 800);
        assert_eq!(cfg.train_anomalous, 810);
        assert_eq!(cfg.test_normal, 150);
        assert_eq!(cfg.test_anomalous, 140);
        assert_eq!(cfg.classes.len(), 13);
    }

    #[test]
    fn split_counts_respected() {
        let ds = small();
        let cfg = ds.config();
        assert_eq!(ds.train.len(), cfg.train_normal + cfg.train_anomalous);
        assert_eq!(ds.test.len(), cfg.test_normal + cfg.test_anomalous);
        assert_eq!(ds.train_normal_videos().len(), cfg.train_normal);
    }

    #[test]
    fn classes_round_robin_covers_all() {
        let ds = SyntheticUcfCrime::generate(DatasetConfig::scaled(0.05).with_seed(1));
        for class in AnomalyClass::ALL {
            assert!(!ds.train_videos_of(class).is_empty(), "no training videos for {class:?}");
        }
    }

    #[test]
    fn test_subset_filters_other_classes() {
        let ds = small();
        let subset = ds.test_subset(AnomalyClass::Stealing);
        for v in &subset {
            assert!(v.class.is_none() || v.class == Some(AnomalyClass::Stealing));
        }
    }

    #[test]
    fn unique_video_ids() {
        let ds = small();
        let mut ids: Vec<usize> = ds.train.iter().chain(ds.test.iter()).map(|v| v.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }

    #[test]
    fn deterministic_generation() {
        let a = SyntheticUcfCrime::generate(DatasetConfig::scaled(0.02).with_seed(7));
        let b = SyntheticUcfCrime::generate(DatasetConfig::scaled(0.02).with_seed(7));
        assert_eq!(a.train.len(), b.train.len());
        assert_eq!(a.train[0].frames, b.train[0].frames);
    }

    #[test]
    fn sample_frame_draws_from_given_videos() {
        let ds = small();
        let videos = ds.train_videos_of(AnomalyClass::Robbery);
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let (_, _) = sample_frame(&videos, &mut rng).unwrap();
        }
        assert!(sample_frame(&[], &mut rng).is_none());
    }
}
