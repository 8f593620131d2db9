//! Trend-shift frame streams: the deployment-time data feed whose anomaly
//! class changes mid-stream, driving the paper's Fig. 5 evaluation.

use crate::dataset::{sample_frame, SyntheticUcfCrime};
use crate::video::Frame;
use akg_kg::ontology::AnomalyClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A named shift scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShiftScenario {
    /// The anomaly class the model was initially trained for.
    pub initial: AnomalyClass,
    /// The class the trend shifts to.
    pub shifted: AnomalyClass,
}

impl ShiftScenario {
    /// Fig. 5(A) first panel: Stealing → Robbery (weak shift: the classes
    /// share concepts).
    pub fn weak_stealing_to_robbery() -> Self {
        ShiftScenario { initial: AnomalyClass::Stealing, shifted: AnomalyClass::Robbery }
    }

    /// Fig. 5(B): Stealing → Explosion (strong shift: disjoint concepts).
    pub fn strong_stealing_to_explosion() -> Self {
        ShiftScenario { initial: AnomalyClass::Stealing, shifted: AnomalyClass::Explosion }
    }

    /// Concept overlap between the two classes (weak shifts score higher).
    pub fn overlap(&self) -> f32 {
        akg_kg::Ontology::new().concept_overlap(self.initial, self.shifted)
    }
}

/// How an [`AdaptationStream`] holds its dataset: borrowed (the original,
/// zero-cost form) or shared ownership via [`Arc`] (so streams can be handed
/// to a long-lived serving runtime without lifetime gymnastics — many owned
/// streams typically share one `Arc`'d dataset).
#[derive(Debug)]
enum DatasetHandle<'d> {
    Borrowed(&'d SyntheticUcfCrime),
    Owned(Arc<SyntheticUcfCrime>),
}

impl DatasetHandle<'_> {
    fn get(&self) -> &SyntheticUcfCrime {
        match self {
            DatasetHandle::Borrowed(d) => d,
            DatasetHandle::Owned(d) => d,
        }
    }
}

/// A deployment-time frame stream that samples the training split: frames
/// of the currently active anomaly class mixed with normal frames. The
/// paper's protocol keeps the non-anomalous samples fixed and swaps the
/// anomaly type at the shift point; [`AdaptationStream::shift_to`] does
/// exactly that.
#[derive(Debug)]
pub struct AdaptationStream<'d> {
    dataset: DatasetHandle<'d>,
    active: AnomalyClass,
    anomaly_ratio: f64,
    rng: StdRng,
    emitted: usize,
}

/// An [`AdaptationStream`] that owns (a share of) its dataset — `'static`,
/// so it can move into a serving runtime, another thread, or a `Vec` of
/// streams outliving the scope that built the dataset.
pub type OwnedAdaptationStream = AdaptationStream<'static>;

impl<'d> AdaptationStream<'d> {
    /// Creates a stream over the dataset's training split with the given
    /// active anomaly class. `anomaly_ratio` is the probability that a step
    /// emits an anomalous frame.
    ///
    /// # Panics
    ///
    /// Panics if `anomaly_ratio` is outside `[0, 1]`.
    pub fn new(
        dataset: &'d SyntheticUcfCrime,
        active: AnomalyClass,
        anomaly_ratio: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&anomaly_ratio), "anomaly_ratio must be in [0,1]");
        AdaptationStream {
            dataset: DatasetHandle::Borrowed(dataset),
            active,
            anomaly_ratio,
            rng: StdRng::seed_from_u64(seed),
            emitted: 0,
        }
    }

    /// Creates an owning stream over a shared dataset handle. Behaviour is
    /// identical to [`AdaptationStream::new`] with the same seed — only the
    /// ownership story differs.
    ///
    /// # Panics
    ///
    /// Panics if `anomaly_ratio` is outside `[0, 1]`.
    pub fn owned(
        dataset: Arc<SyntheticUcfCrime>,
        active: AnomalyClass,
        anomaly_ratio: f64,
        seed: u64,
    ) -> OwnedAdaptationStream {
        assert!((0.0..=1.0).contains(&anomaly_ratio), "anomaly_ratio must be in [0,1]");
        AdaptationStream {
            dataset: DatasetHandle::Owned(dataset),
            active,
            anomaly_ratio,
            rng: StdRng::seed_from_u64(seed),
            emitted: 0,
        }
    }

    /// Number of frames emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Shifts the anomaly trend to a new class (normal samples unchanged).
    pub fn shift_to(&mut self, class: AnomalyClass) {
        self.active = class;
    }

    /// Emits the next `(frame, is_anomalous)` pair. Frames are cloned out of
    /// the dataset so the stream can outlive borrows at call sites.
    pub fn next_frame(&mut self) -> (Frame, bool) {
        self.emitted += 1;
        if self.rng.gen_bool(self.anomaly_ratio) {
            let videos = self.dataset.get().train_videos_of(self.active);
            if let Some((frame, _)) = sample_frame(&videos, &mut self.rng) {
                // sample only from within the anomaly segment
                if frame.is_anomalous() {
                    return (frame.clone(), true);
                }
                // fall through to an anomalous frame search
                for v in &videos {
                    if let Some((s, _e)) = v.anomaly_range {
                        return (v.frames[s].clone(), true);
                    }
                }
            }
        }
        let normals = self.dataset.get().train_normal_videos();
        let (frame, _) =
            sample_frame(&normals, &mut self.rng).expect("dataset must contain normal videos");
        (frame.clone(), false)
    }

    /// Emits a batch of frames.
    pub fn next_batch(&mut self, n: usize) -> Vec<(Frame, bool)> {
        (0..n).map(|_| self.next_frame()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetConfig;

    fn dataset() -> SyntheticUcfCrime {
        SyntheticUcfCrime::generate(DatasetConfig::scaled(0.03).with_seed(5))
    }

    #[test]
    fn scenario_overlaps_ordered() {
        let weak = ShiftScenario::weak_stealing_to_robbery().overlap();
        let strong = ShiftScenario::strong_stealing_to_explosion().overlap();
        assert!(weak > strong);
        assert_eq!(strong, 0.0);
    }

    #[test]
    fn stream_respects_anomaly_ratio_roughly() {
        let ds = dataset();
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.3, 1);
        let batch = stream.next_batch(600);
        let anomalous = batch.iter().filter(|(_, a)| *a).count();
        let ratio = anomalous as f64 / batch.len() as f64;
        assert!((0.18..0.45).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn zero_ratio_streams_only_normal() {
        let ds = dataset();
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Robbery, 0.0, 2);
        for (_, anomalous) in stream.next_batch(100) {
            assert!(!anomalous);
        }
    }

    #[test]
    fn shift_changes_emitted_vocabulary() {
        let ds = dataset();
        let ont = akg_kg::Ontology::new();
        // generic entities ("vehicle", "person", ...) appear in any footage
        // by design, so only the discriminative explosion words count
        let explosion_vocab: std::collections::HashSet<&str> = ont
            .all_concepts(AnomalyClass::Explosion)
            .into_iter()
            .filter(|c| !crate::video::GENERIC_CONCEPTS.contains(c))
            .collect();
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 1.0, 3);
        // pre-shift: no explosion concepts
        for (frame, _) in stream.next_batch(50) {
            assert!(!frame.concepts.iter().any(|(c, _)| explosion_vocab.contains(c.as_str())));
        }
        stream.shift_to(AnomalyClass::Explosion);
        let post = stream.next_batch(50);
        assert!(post
            .iter()
            .any(|(f, _)| f.concepts.iter().any(|(c, _)| explosion_vocab.contains(c.as_str()))));
    }

    #[test]
    fn anomalous_frames_are_labelled() {
        let ds = dataset();
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 1.0, 4);
        let batch = stream.next_batch(30);
        for (frame, anomalous) in batch {
            assert_eq!(frame.is_anomalous(), anomalous);
        }
    }

    #[test]
    fn owned_stream_matches_borrowed_and_is_static() {
        let ds = Arc::new(dataset());
        let mut borrowed = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 11);
        let mut owned: OwnedAdaptationStream =
            AdaptationStream::owned(Arc::clone(&ds), AnomalyClass::Stealing, 0.5, 11);
        for _ in 0..30 {
            assert_eq!(borrowed.next_frame(), owned.next_frame());
        }
        // an owned stream can be moved into a 'static container
        fn takes_static(_: Vec<OwnedAdaptationStream>) {}
        takes_static(vec![owned]);
    }

    #[test]
    fn stream_is_deterministic() {
        let ds = dataset();
        let run = |seed| {
            let mut s = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, seed);
            s.next_batch(20).into_iter().map(|(f, _)| f.concepts).collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
    }
}
