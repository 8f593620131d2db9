//! Workspace-level property tests: system invariants that must hold for any
//! seed — scores stay probabilities, adaptation never corrupts the KG, the
//! cost model stays monotone.

use adaptive_kg::core::adapt::{AdaptConfig, ContinuousAdapter};
use adaptive_kg::core::engine::Engine;
use adaptive_kg::core::pipeline::SystemConfig;
use akg_cost::{KgDims, ModelDims};
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn scores_are_probabilities_for_any_seed(seed in 0u64..500) {
        let engine =
            Engine::build(&[AnomalyClass::Stealing], &SystemConfig { seed, ..SystemConfig::default() });
        let mut session = engine.new_session(seed ^ 0xF0F0);
        let frame = akg_data::Frame {
            concepts: vec![("walking".into(), 1.0), ("person".into(), 0.5)],
            label: None,
        };
        let emb = engine.embed_frame(&mut session, &frame);
        let w = engine.config().window;
        let score = engine.score_window(&session, &vec![emb; w]);
        prop_assert!((0.0..=1.0).contains(&score), "score {score}");
        let emb2 = engine.embed_frame(&mut session, &frame);
        let mut probs = Vec::new();
        engine.predict_windows_refs(&session, &[vec![&emb2[..]; w]], &mut probs);
        let sum: f32 = probs.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-3, "probs sum {sum}");
    }

    #[test]
    fn adaptation_preserves_kg_invariants_for_any_seed(seed in 0u64..200) {
        let engine =
            Engine::build(&[AnomalyClass::Stealing], &SystemConfig { seed, ..SystemConfig::default() });
        let mut session = engine.new_session(seed ^ 0xF0F0);
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.01)
                .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
                .with_seed(seed),
        );
        let cfg = AdaptConfig {
            n_window: 16,
            interval: 4,
            min_k: 1,
            divergence_patience: 1,
            movement_epsilon: 0.0,
            seed,
            ..AdaptConfig::default()
        };
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, cfg);
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Robbery, 0.5, seed);
        for _ in 0..48 {
            let (frame, _) = stream.next_frame();
            let score = adapter.observe(&engine, &mut session, &frame);
            prop_assert!((0.0..=1.0).contains(&score));
        }
        for tkg in &session.kgs {
            let errors = tkg.kg.validate();
            prop_assert!(errors.is_empty(), "seed {seed}: {errors:?}");
        }
        // layouts must agree with the (possibly restructured) graphs
        for (tkg, layout) in session.kgs.iter().zip(&session.layouts) {
            prop_assert_eq!(layout.node_count(), tkg.kg.node_count());
        }
    }

    #[test]
    fn cost_model_monotone_in_size(nodes in 5usize..40, edges in 5usize..80, kgs in 1usize..4) {
        let dims = |n: usize, e: usize, k: usize| ModelDims {
            kgs: k,
            kg: KgDims { nodes: n, edges: e, levels: 5 },
            embed_dim: 32,
            gnn_dim: 8,
            window: 4,
            temporal_inner: 32,
            heads: 4,
            temporal_layers: 1,
            classes: k + 1,
        };
        let base = dims(nodes, edges, kgs).inference_flops();
        prop_assert!(dims(nodes + 1, edges, kgs).inference_flops() >= base);
        prop_assert!(dims(nodes, edges + 1, kgs).inference_flops() >= base);
        prop_assert!(dims(nodes, edges, kgs + 1).inference_flops() > base);
    }

    #[test]
    fn dataset_stream_scores_any_class(class_idx in 0usize..13, seed in 0u64..200) {
        let class = AnomalyClass::ALL[class_idx];
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.01).with_classes(&[class]).with_seed(seed),
        );
        let mut stream = AdaptationStream::new(&ds, class, 0.5, seed);
        let batch = stream.next_batch(16);
        prop_assert_eq!(batch.len(), 16);
        for (frame, labelled) in batch {
            prop_assert_eq!(frame.is_anomalous(), labelled);
        }
    }
}
