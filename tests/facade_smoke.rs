//! Smoke test for the `adaptive-kg` facade crate: the paper's end-to-end
//! deployment path (build an engine, open a session, embed a frame, score a
//! window) must work through the re-exported module names alone.

use adaptive_kg::core::engine::Engine;
use adaptive_kg::core::pipeline::SystemConfig;
use adaptive_kg::data::Frame;
use adaptive_kg::kg::AnomalyClass;

#[test]
fn facade_reexports_build_and_score() {
    let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
    let mut session = engine.new_session(0);

    let frame =
        Frame { concepts: vec![("walking".into(), 1.0), ("person".into(), 0.6)], label: None };
    let embedding = engine.embed_frame(&mut session, &frame);
    let window = vec![embedding; engine.config().window];

    let score = engine.score_window(&session, &window);
    assert!((0.0..=1.0).contains(&score), "score must be a probability, got {score}");
}

#[test]
fn facade_exposes_all_member_crates() {
    // one cheap touch per re-exported crate, so a dropped re-export fails here
    let _ = adaptive_kg::eval::roc_auc(&[0.9, 0.1], &[true, false]);
    let _ = adaptive_kg::cost::KgDims { nodes: 1, edges: 1, levels: 3 };
    let _ = adaptive_kg::embed::Similarity::Euclidean;
    let _ = adaptive_kg::kg::Ontology::new();
    let _ = adaptive_kg::tensor::Tensor::from_vec(vec![1.0], &[1]);
    let _ = adaptive_kg::data::DatasetConfig::scaled(0.01);
    let _ = adaptive_kg::core::AdaptConfig::default();
}
