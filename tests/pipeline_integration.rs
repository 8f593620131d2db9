//! Integration tests spanning the whole workspace: pipeline stages A→B→C
//! wired together, determinism, and the adaptation mechanism's end-to-end
//! behaviour on a small scenario.

use adaptive_kg::core::adapt::{AdaptConfig, ContinuousAdapter};
use adaptive_kg::core::engine::{Engine, Session};
use adaptive_kg::core::pipeline::{MissionSystem, SystemConfig};
use adaptive_kg::core::train::train_decision_model;
use adaptive_kg::core::TrainConfig;
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_tensor::nn::Module;

fn small_dataset(classes: &[AnomalyClass], seed: u64) -> SyntheticUcfCrime {
    SyntheticUcfCrime::generate(DatasetConfig::scaled(0.015).with_classes(classes).with_seed(seed))
}

fn quick_train(mission: AnomalyClass, seed: u64) -> (Engine, Session, SyntheticUcfCrime) {
    let mut sys =
        MissionSystem::build(&[mission], &SystemConfig { seed, ..SystemConfig::default() });
    let ds = small_dataset(&[mission, AnomalyClass::Robbery], seed);
    let videos: Vec<&akg_data::Video> = ds.train.iter().collect();
    let cfg = TrainConfig { steps: 80, batch_size: 12, ..TrainConfig::fast() }.with_seed(seed);
    train_decision_model(&mut sys, &videos, &cfg);
    (sys.engine, sys.session, ds)
}

#[test]
fn full_pipeline_trains_to_useful_auc() {
    let (engine, session, ds) = quick_train(AnomalyClass::Stealing, 5);
    let auc = engine.evaluate_auc(&session, &ds.test_subset(AnomalyClass::Stealing));
    assert!(auc > 0.65, "pipeline AUC too low: {auc}");
}

#[test]
fn generated_kg_remains_valid_through_adaptation() {
    let (engine, mut session, ds) = quick_train(AnomalyClass::Stealing, 6);
    let cfg = AdaptConfig {
        n_window: 24,
        interval: 8,
        min_k: 1,
        divergence_patience: 1,
        movement_epsilon: 0.0,
        ..AdaptConfig::default()
    };
    let mut adapter = ContinuousAdapter::attach(&engine, &mut session, cfg);
    let mut stream = AdaptationStream::new(&ds, AnomalyClass::Robbery, 0.5, 1);
    for _ in 0..120 {
        let (frame, _) = stream.next_frame();
        adapter.observe(&engine, &mut session, &frame);
    }
    // whatever structural changes happened, every KG invariant must hold
    for tkg in session.kgs.iter() {
        assert!(tkg.kg.validate().is_empty(), "{:?}", tkg.kg.validate());
    }
    // and every live reasoning node must still have token rows
    for tkg in session.kgs.iter() {
        for node in tkg.kg.nodes() {
            if node.kind == akg_kg::NodeKind::Reasoning {
                assert!(tkg.tokens_of(node.id).is_some(), "node {} lost tokens", node.id);
            }
        }
    }
}

#[test]
fn adaptation_only_touches_token_table() {
    let (engine, mut session, ds) = quick_train(AnomalyClass::Stealing, 7);
    let model_params: Vec<Vec<f32>> = engine.model.params().iter().map(|p| p.to_vec()).collect();
    let cfg = AdaptConfig { n_window: 24, interval: 8, min_k: 1, ..AdaptConfig::default() };
    let mut adapter = ContinuousAdapter::attach(&engine, &mut session, cfg);
    let mut stream = AdaptationStream::new(&ds, AnomalyClass::Robbery, 0.6, 2);
    for _ in 0..96 {
        let (frame, _) = stream.next_frame();
        adapter.observe(&engine, &mut session, &frame);
    }
    let after: Vec<Vec<f32>> = engine.model.params().iter().map(|p| p.to_vec()).collect();
    assert_eq!(model_params, after, "frozen decision model changed during adaptation");
}

#[test]
fn deterministic_end_to_end() {
    let run = |seed: u64| {
        let (engine, session, ds) = quick_train(AnomalyClass::Stealing, seed);
        engine.evaluate_auc(&session, &ds.test_subset(AnomalyClass::Stealing))
    };
    assert_eq!(run(11), run(11), "same seed must give identical results");
}

#[test]
fn multi_mission_system_scores_all_classes() {
    let missions = [AnomalyClass::Stealing, AnomalyClass::Explosion];
    let engine = Engine::build(&missions, &SystemConfig::default());
    let mut session = engine.new_session(0);
    assert_eq!(engine.model.n_classes(), 3);
    let frame = akg_data::Frame { concepts: vec![("walking".into(), 1.0)], label: None };
    let emb = engine.embed_frame(&mut session, &frame);
    let mut probs = Vec::new();
    engine.predict_windows_refs(&session, &[vec![&emb[..]; engine.config().window]], &mut probs);
    assert_eq!(probs.len(), 3);
    assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
}

#[test]
fn anomaly_scores_separate_after_training() {
    let (engine, session, ds) = quick_train(AnomalyClass::Stealing, 9);
    let videos = ds.train_videos_of(AnomalyClass::Stealing);
    let (scores, labels) = engine.score_video(&session, videos[0]);
    let anom: Vec<f32> = scores.iter().zip(&labels).filter(|(_, l)| **l).map(|(s, _)| *s).collect();
    let norm: Vec<f32> =
        scores.iter().zip(&labels).filter(|(_, l)| !**l).map(|(s, _)| *s).collect();
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
    assert!(
        mean(&anom) > mean(&norm),
        "anomalous frames should outscore normal ones: {} vs {}",
        mean(&anom),
        mean(&norm)
    );
}
