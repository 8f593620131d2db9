//! Integration tests of the experiment protocols (the machinery behind the
//! Fig. 5 / Fig. 6 regenerators), at reduced scale so CI stays fast.

use adaptive_kg::core::experiment::{
    run_retrieval_drift, run_trend_shift, RetrievalDriftParams, TrendShiftParams,
};
use akg_data::{DatasetConfig, SyntheticUcfCrime};
use akg_embed::Similarity;
use akg_kg::{AnomalyClass, Ontology};

fn tiny_params(initial: AnomalyClass, shifted: AnomalyClass, seed: u64) -> TrendShiftParams {
    let mut p = TrendShiftParams::quick(initial, shifted);
    p.steps_before = 1;
    p.steps_after = 1;
    p.frames_per_step = 96;
    p.seed = seed;
    p.system.seed = seed;
    p.train.steps = 60;
    p.train.batch_size = 8;
    p
}

fn tiny_dataset(classes: &[AnomalyClass], seed: u64) -> SyntheticUcfCrime {
    let mut cfg = DatasetConfig::scaled(0.015).with_classes(classes).with_seed(seed);
    cfg.test_normal = 10;
    cfg.test_anomalous = 10;
    SyntheticUcfCrime::generate(cfg)
}

#[test]
fn trend_shift_produces_both_curves() {
    let ds = tiny_dataset(&[AnomalyClass::Stealing, AnomalyClass::Robbery], 3);
    let params = tiny_params(AnomalyClass::Stealing, AnomalyClass::Robbery, 3);
    let result = run_trend_shift(&ds, &params);
    assert_eq!(result.adaptive.points.len(), 2);
    assert_eq!(result.static_kg.points.len(), 2);
    assert!(result.initial_auc > 0.5, "initial AUC {}", result.initial_auc);
    // pre-shift point is measured against the initial class and must be
    // decent; post-shift points are flagged
    assert!(!result.adaptive.points[0].after_shift);
    assert!(result.adaptive.points[1].after_shift);
    for p in result.adaptive.points.iter().chain(&result.static_kg.points) {
        assert!((0.0..=1.0).contains(&p.auc));
    }
}

#[test]
fn strong_shift_drops_static_auc() {
    let ds = tiny_dataset(&[AnomalyClass::Stealing, AnomalyClass::Explosion], 43);
    let params = tiny_params(AnomalyClass::Stealing, AnomalyClass::Explosion, 43);
    let result = run_trend_shift(&ds, &params);
    let pre = result.static_kg.points[0].auc;
    let post = result.static_kg.points[1].auc;
    assert!(post < pre - 0.1, "static KG should drop on a strong shift: {pre} -> {post}");
}

fn drift_params(seed: u64) -> RetrievalDriftParams {
    let ontology = Ontology::new();
    let words = |class: AnomalyClass| -> Vec<String> {
        ontology.all_concepts(class).iter().map(|s| s.to_string()).collect()
    };
    RetrievalDriftParams {
        shift: tiny_params(AnomalyClass::Stealing, AnomalyClass::Robbery, seed),
        snapshot_every: 48,
        initial_words: words(AnomalyClass::Stealing),
        target_words: words(AnomalyClass::Robbery),
        top_k: 3,
        metric: Similarity::Euclidean,
    }
}

#[test]
fn retrieval_drift_records_snapshots() {
    let ds = tiny_dataset(&[AnomalyClass::Stealing, AnomalyClass::Robbery], 4);
    let result = run_retrieval_drift(&ds, &drift_params(4));
    assert!(result.snapshots.len() >= 2);
    for snap in &result.snapshots {
        assert!(snap.distance_to_initial.is_finite());
        assert!(snap.distance_to_target.is_finite());
        assert!(!snap.retrieved.is_empty());
    }
}

/// A seeded Fig. 6 run is a pure function of its parameters: the retrieved
/// words (order included) and the distances repeat bit for bit.
#[test]
fn retrieval_drift_is_repeatable() {
    let ds = tiny_dataset(&[AnomalyClass::Stealing, AnomalyClass::Robbery], 4);
    let params = drift_params(4);
    let a = run_retrieval_drift(&ds, &params);
    let b = run_retrieval_drift(&ds, &params);
    assert_eq!(a.snapshots.len(), b.snapshots.len());
    for (x, y) in a.snapshots.iter().zip(&b.snapshots) {
        assert_eq!(x.retrieved, y.retrieved, "iteration {}", x.iteration);
        assert_eq!(x.distance_to_initial.to_bits(), y.distance_to_initial.to_bits());
        assert_eq!(x.distance_to_target.to_bits(), y.distance_to_target.to_bits());
    }
}

#[test]
fn weak_overlap_exceeds_strong_in_ontology_and_space() {
    let ontology = Ontology::new();
    let weak = ontology.concept_overlap(AnomalyClass::Stealing, AnomalyClass::Robbery);
    let strong = ontology.concept_overlap(AnomalyClass::Stealing, AnomalyClass::Explosion);
    assert!(weak > strong);
    let weak_rel = ontology.class_relatedness(AnomalyClass::Stealing, AnomalyClass::Robbery);
    let strong_rel = ontology.class_relatedness(AnomalyClass::Stealing, AnomalyClass::Explosion);
    assert!(weak_rel > strong_rel);
    assert_eq!(strong_rel, 0.0);
}
