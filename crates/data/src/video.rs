//! Synthetic untrimmed surveillance videos.
//!
//! A frame is a sparse *concept activation*: a weighted bag of concept words
//! drawn from the normal-activity vocabulary and (inside anomaly segments)
//! from the anomaly class's ontology concepts. The joint embedding space
//! turns activations into frame embeddings, so frames genuinely live near
//! the text concepts that describe them — the property the paper's KG
//! reasoning exploits.

use akg_kg::ontology::{AnomalyClass, Ontology};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Concept words for unremarkable surveillance footage, deliberately
/// disjoint from every anomaly class's vocabulary. The pool is broad so
/// normal footage is directionally diverse in the joint space — one-class
/// "anything unusual" shortcuts must not work.
pub const NORMAL_CONCEPTS: &[&str] = &[
    "walking",
    "standing",
    "talking",
    "waiting",
    "strolling",
    "commuting",
    "queueing",
    "shopping",
    "driving",
    "jogging",
    "sitting",
    "passing",
    "entering",
    "exiting",
    "reading",
    "cleaning",
    "sweeping",
    "delivering",
    "unloading",
    "greeting",
    "resting",
    "chatting",
    "cycling",
    "skating",
    "stretching",
    "photographing",
    "pointing",
    "gathering",
];

/// Generic entities that appear in normal *and* anomalous footage (a person
/// in frame is not evidence of crime). Sampling these into normal scenes
/// keeps shared subject words non-discriminative, as in real surveillance
/// video.
pub const GENERIC_CONCEPTS: &[&str] = &["person", "street", "vehicle", "hand", "crowd", "group"];

/// One video frame as a weighted concept activation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Active concepts with strengths.
    pub concepts: Vec<(String, f32)>,
    /// Frame-level ground truth: `Some(class)` inside an anomaly segment.
    pub label: Option<AnomalyClass>,
}

/// Why a frame failed [`Frame::validate`] — the typed reason the serving
/// layer folds into its per-stream `rejected` accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FrameError {
    /// A concept weight is NaN or infinite; ingesting it would poison the
    /// session's adapted token table irreversibly (NaN propagates through
    /// every subsequent gradient step).
    NonFiniteWeight {
        /// The offending concept name.
        concept: String,
    },
    /// A concept weight is finite but outside the plausible sensor range
    /// (|w| > [`Frame::MAX_ACTIVATION`]) — a corrupt upstream encoder, not
    /// a real activation.
    OutOfRangeWeight {
        /// The offending concept name.
        concept: String,
        /// The rejected magnitude.
        weight: f32,
    },
    /// A concept name is empty — the tokenizer has nothing to hash.
    EmptyConcept,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::NonFiniteWeight { concept } => {
                write!(f, "frame has a non-finite weight on concept {concept:?}")
            }
            FrameError::OutOfRangeWeight { concept, weight } => {
                write!(f, "frame weight {weight} on concept {concept:?} exceeds the sensor range")
            }
            FrameError::EmptyConcept => write!(f, "frame has an empty concept name"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// Largest plausible concept activation magnitude. Real encoder outputs
    /// in this corpus sit in single digits; the bound is deliberately
    /// generous so it only ever trips on corruption, never on a legitimate
    /// hot activation.
    pub const MAX_ACTIVATION: f32 = 1.0e4;

    /// Checks the frame against the ingest contract: every concept named,
    /// every weight finite and within `±`[`Frame::MAX_ACTIVATION`].
    ///
    /// The serving runtime calls this at ingest admission and rejects (with
    /// accounting) rather than letting a NaN walk into a session's adapted
    /// `TokenTable`, where it would corrupt the fork forever.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in concept order.
    pub fn validate(&self) -> Result<(), FrameError> {
        for (concept, weight) in &self.concepts {
            if concept.is_empty() {
                return Err(FrameError::EmptyConcept);
            }
            if !weight.is_finite() {
                return Err(FrameError::NonFiniteWeight { concept: concept.clone() });
            }
            if weight.abs() > Self::MAX_ACTIVATION {
                return Err(FrameError::OutOfRangeWeight {
                    concept: concept.clone(),
                    weight: *weight,
                });
            }
        }
        Ok(())
    }

    /// Whether this frame is inside an anomaly segment.
    pub fn is_anomalous(&self) -> bool {
        self.label.is_some()
    }
}

/// An untrimmed video: a frame sequence, possibly containing one anomaly
/// segment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Video {
    /// Dataset-unique id.
    pub id: usize,
    /// The anomaly present in this video, if any (video-level label, as in
    /// UCF-Crime's weak supervision).
    pub class: Option<AnomalyClass>,
    /// The frames.
    pub frames: Vec<Frame>,
    /// The anomalous frame range `[start, end)`, if any.
    pub anomaly_range: Option<(usize, usize)>,
}

impl Video {
    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the video has no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }
}

/// Fewest frames per video.
const MIN_FRAMES: usize = 48;
/// Most frames per video.
const MAX_FRAMES: usize = 96;
/// Fraction of an anomalous video covered by the anomaly segment.
const ANOMALY_FRACTION: f32 = 0.3;
/// How many anomaly concepts activate per anomalous frame.
const ANOMALY_CONCEPTS_PER_FRAME: usize = 3;
/// How many normal concepts activate per frame.
const NORMAL_CONCEPTS_PER_FRAME: usize = 2;
/// Strength of anomaly concept activations relative to normal ones.
const ANOMALY_STRENGTH: f32 = 1.2;
/// Frames between resamples of the ongoing activity (temporal coherence of
/// the footage).
const ACTIVITY_PERIOD: usize = 8;
/// Range of the per-video anomaly intensity multiplier (low-intensity
/// anomalies are genuinely ambiguous, keeping score distributions spread out
/// as in real footage).
const MIN_INTENSITY: f32 = 0.5;
const MAX_INTENSITY: f32 = 1.25;

/// Generates one normal (anomaly-free) video.
///
/// Videos are *temporally coherent*, like real footage: the scene background
/// persists for the whole video and the ongoing activity persists for eight
/// frames, with per-frame weight jitter.
/// Without this coherence, anomaly segments would be the only temporally
/// stable content and a detector could key on stability alone, defeating
/// mission-specificity.
pub fn generate_normal_video(id: usize, rng: &mut StdRng) -> Video {
    let n = rng.gen_range(MIN_FRAMES..=MAX_FRAMES);
    let background = scene_background(rng);
    let mut activity = sample_activity(rng);
    let mut frames = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && i % ACTIVITY_PERIOD == 0 {
            activity = sample_activity(rng);
        }
        frames.push(compose_frame(&background, &activity, &[], None, rng));
    }
    Video { id, class: None, frames, anomaly_range: None }
}

/// Generates one untrimmed anomalous video with a contiguous anomaly
/// segment of `class` concepts, temporally coherent like
/// [`generate_normal_video`].
pub fn generate_anomalous_video(
    id: usize,
    class: AnomalyClass,
    ontology: &Ontology,
    rng: &mut StdRng,
) -> Video {
    let n = rng.gen_range(MIN_FRAMES..=MAX_FRAMES);
    let seg_len = ((n as f32 * ANOMALY_FRACTION) as usize).clamp(1, n);
    let start = rng.gen_range(0..=n - seg_len);
    let end = start + seg_len;
    let vocabulary: Vec<&str> = ontology.all_concepts(class);
    let background = scene_background(rng);
    let mut activity = sample_activity(rng);
    let mut anomaly_concepts = sample_anomaly_concepts(&vocabulary, rng);
    let intensity = rng.gen_range(MIN_INTENSITY..=MAX_INTENSITY);
    let ramp = ((seg_len as f32 * 0.25) as usize).max(1);
    let mut frames = Vec::with_capacity(n);
    for i in 0..n {
        if i > 0 && i % ACTIVITY_PERIOD == 0 {
            activity = sample_activity(rng);
            anomaly_concepts = sample_anomaly_concepts(&vocabulary, rng);
        }
        if (start..end).contains(&i) {
            // onset/offset ramps: anomalies build up and fade like real events
            let into = (i - start + 1).min(end - i);
            let ramp_scale = (into as f32 / ramp as f32).min(1.0);
            let scaled: Vec<(String, f32)> = anomaly_concepts
                .iter()
                .map(|(c, w)| (c.clone(), w * intensity * ramp_scale))
                .collect();
            frames.push(compose_frame(&background, &activity, &scaled, Some(class), rng));
        } else {
            frames.push(compose_frame(&background, &activity, &[], None, rng));
        }
    }
    Video { id, class: Some(class), frames, anomaly_range: Some((start, end)) }
}

/// The persistent normal-activity concept set of one scene stretch: normal
/// activity words plus, usually, a generic entity (people and vehicles are
/// everywhere in surveillance footage).
fn sample_activity(rng: &mut StdRng) -> Vec<String> {
    let mut activity: Vec<String> = (0..NORMAL_CONCEPTS_PER_FRAME)
        .map(|_| NORMAL_CONCEPTS[rng.gen_range(0..NORMAL_CONCEPTS.len())].to_string())
        .collect();
    if rng.gen_bool(0.7) {
        activity.push(GENERIC_CONCEPTS[rng.gen_range(0..GENERIC_CONCEPTS.len())].to_string());
    }
    activity
}

/// The persistent anomaly concept set of one segment stretch
/// (salience-weighted picks with their base strengths).
fn sample_anomaly_concepts(vocabulary: &[&str], rng: &mut StdRng) -> Vec<(String, f32)> {
    (0..ANOMALY_CONCEPTS_PER_FRAME)
        .map(|_| {
            let idx = salience_pick(vocabulary.len(), rng);
            (vocabulary[idx].to_string(), ANOMALY_STRENGTH)
        })
        .collect()
}

/// One frame from the persistent scene state, with per-frame weight jitter.
///
/// Normal and anomalous frames are composed *identically* — same activity,
/// generic-entity and background weights — with the anomaly concepts purely
/// additive. Any systematic compositional difference (weaker activity,
/// dimmer background, missing people) would hand detectors a
/// mission-agnostic shortcut that real footage does not provide.
fn compose_frame(
    background: &str,
    activity: &[String],
    anomaly: &[(String, f32)],
    label: Option<AnomalyClass>,
    rng: &mut StdRng,
) -> Frame {
    let mut concepts = Vec::with_capacity(activity.len() + anomaly.len() + 1);
    for a in activity {
        concepts.push((a.clone(), rng.gen_range(0.5..1.0)));
    }
    for (c, strength) in anomaly {
        concepts.push((c.clone(), strength * rng.gen_range(0.7..1.1)));
    }
    concepts.push((background.to_string(), 0.8 * rng.gen_range(0.75..1.25)));
    Frame { concepts, label }
}

/// A unique scene-background pseudo-concept (hash-noise direction in the
/// joint space): real normal footage has unbounded visual diversity, so a
/// detector cannot memorize the finite normal vocabulary and flag
/// "everything else" as anomalous.
fn scene_background(rng: &mut StdRng) -> String {
    format!("scene-{:08x}", rng.gen::<u32>())
}

/// Geometric-ish pick favouring low indices (salient concepts).
fn salience_pick(len: usize, rng: &mut StdRng) -> usize {
    debug_assert!(len > 0);
    let mut idx = 0usize;
    while idx + 1 < len && rng.gen_bool(0.55) {
        idx += 1;
    }
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn normal_video_has_no_labels() {
        let mut rng = StdRng::seed_from_u64(0);
        let v = generate_normal_video(0, &mut rng);
        assert!(v.class.is_none());
        assert!(v.frames.iter().all(|f| !f.is_anomalous()));
        assert!(v.len() >= MIN_FRAMES);
    }

    #[test]
    fn anomalous_video_has_contiguous_segment() {
        let mut rng = StdRng::seed_from_u64(1);
        let ont = Ontology::new();
        let v = generate_anomalous_video(1, AnomalyClass::Stealing, &ont, &mut rng);
        let (start, end) = v.anomaly_range.unwrap();
        assert!(start < end && end <= v.len());
        for (i, f) in v.frames.iter().enumerate() {
            assert_eq!(f.is_anomalous(), (start..end).contains(&i), "frame {i}");
        }
    }

    #[test]
    fn anomalous_frames_use_class_vocabulary() {
        let mut rng = StdRng::seed_from_u64(2);
        let ont = Ontology::new();
        let v = generate_anomalous_video(2, AnomalyClass::Explosion, &ont, &mut rng);
        let vocab: std::collections::HashSet<&str> =
            ont.all_concepts(AnomalyClass::Explosion).into_iter().collect();
        let anom = v.frames.iter().find(|f| f.is_anomalous()).unwrap();
        assert!(anom.concepts.iter().any(|(c, _)| vocab.contains(c.as_str())));
    }

    #[test]
    fn normal_vocab_disjoint_from_anomaly_vocab() {
        let ont = Ontology::new();
        for class in AnomalyClass::ALL {
            for w in ont.all_concepts(class) {
                assert!(!NORMAL_CONCEPTS.contains(&w), "{w} is both normal and {class:?}");
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let ont = Ontology::new();
        let gen = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            generate_anomalous_video(0, AnomalyClass::Robbery, &ont, &mut rng)
        };
        assert_eq!(gen(9).frames, gen(9).frames);
    }

    #[test]
    fn salience_pick_prefers_head() {
        let mut rng = StdRng::seed_from_u64(3);
        let picks: Vec<usize> = (0..1000).map(|_| salience_pick(10, &mut rng)).collect();
        let head = picks.iter().filter(|&&p| p == 0).count();
        let tail = picks.iter().filter(|&&p| p == 9).count();
        assert!(head > tail, "head {head} tail {tail}");
    }
}
