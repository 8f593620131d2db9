//! Quickstart: the full pipeline of the paper in one file — generate a
//! mission-specific knowledge graph, train the lightweight GNN decision
//! model, score a few frames, and run one continuous-adaptation step.
//!
//! Run with: `cargo run --release --example quickstart`

use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
use akg_core::pipeline::{MissionSystem, SystemConfig};
use akg_core::train::train_decision_model;
use akg_core::TrainConfig;
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;

fn main() {
    // (A) Build the system: BPE tokenizer, joint embedding space, one
    //     mission-specific KG (generated by the synthetic concept oracle),
    //     and the hierarchical-GNN decision model.
    let mission = AnomalyClass::Stealing;
    let mut system = MissionSystem::build(&[mission], &SystemConfig::default());
    let kg = &system.session.kgs[0].kg;
    println!("mission-specific KG for '{mission}':");
    println!(
        "  {} nodes, {} edges, {} reasoning levels",
        kg.node_count(),
        kg.edge_count(),
        kg.depth()
    );
    for level in 1..=kg.depth() {
        let concepts: Vec<&str> = kg
            .node_ids_at_level(level)
            .into_iter()
            .map(|id| kg.node(id).expect("live node").concept.as_str())
            .collect();
        println!("  level {level}: {}", concepts.join(", "));
    }

    // (B) Train the decision model on synthetic UCF-Crime-like videos.
    let dataset = SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.02).with_classes(&[mission]).with_seed(7),
    );
    let videos: Vec<&akg_data::Video> = dataset.train.iter().collect();
    println!("\ntraining on {} videos ...", videos.len());
    let report = train_decision_model(&mut system, &videos, &TrainConfig::fast());
    println!(
        "  loss {:.3} -> {:.3} over {} steps",
        report.loss_history.first().copied().unwrap_or(f32::NAN),
        report.loss_history.last().copied().unwrap_or(f32::NAN),
        report.steps
    );
    let MissionSystem { engine, mut session } = system;
    let auc = engine.evaluate_auc(&session, &dataset.test_subset(mission));
    println!("  test AUC: {auc:.3}");

    // (C) Deploy: score streamed frames and run continuous KG adaptation.
    let mut adapter = ContinuousAdapter::attach(&engine, &mut session, AdaptConfig::default());
    let mut stream = AdaptationStream::new(&dataset, mission, 0.4, 1);
    println!("\ndeployed; scoring 64 streamed frames:");
    let mut anomaly_scores = Vec::new();
    let mut normal_scores = Vec::new();
    for _ in 0..64 {
        let (frame, is_anomalous) = stream.next_frame();
        let score = adapter.observe(&engine, &mut session, &frame);
        if is_anomalous {
            anomaly_scores.push(score);
        } else {
            normal_scores.push(score);
        }
    }
    let mean = |v: &[f32]| v.iter().sum::<f32>() / v.len().max(1) as f32;
    println!("  mean anomaly score on anomalous frames: {:.3}", mean(&anomaly_scores));
    println!("  mean anomaly score on normal frames:    {:.3}", mean(&normal_scores));
    println!("  adaptation events so far: {}", adapter.events().len());
}
