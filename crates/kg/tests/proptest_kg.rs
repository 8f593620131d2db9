//! Property tests: generated KGs always satisfy the hierarchical invariants,
//! regardless of oracle error profile or seed; modification ops preserve
//! them.

use akg_kg::generate::{generate_kg, GeneratorConfig};
use akg_kg::modify::create_node;
use akg_kg::synthetic::{ErrorProfile, SyntheticOracle};
use akg_kg::{AnomalyClass, NodeKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn profile_strategy() -> impl Strategy<Value = ErrorProfile> {
    (0.0f64..0.4, 0.0f64..0.4, 0.0f64..0.3, 0.3f64..1.0).prop_map(
        |(duplicate_rate, invalid_edge_rate, missing_edge_rate, fix_success_rate)| ErrorProfile {
            duplicate_rate,
            invalid_edge_rate,
            missing_edge_rate,
            fix_success_rate,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn generated_kgs_always_validate(
        seed in 0u64..10_000,
        profile in profile_strategy(),
        depth in 2usize..5,
        width in 2usize..6,
        class_idx in 0usize..13,
    ) {
        let mission = AnomalyClass::ALL[class_idx].name();
        let mut oracle = SyntheticOracle::new(profile, seed);
        let cfg = GeneratorConfig { depth, nodes_per_level: width, max_correction_iters: 5 };
        let report = generate_kg(mission, &cfg, &mut oracle);
        let errors = report.kg.validate();
        prop_assert!(errors.is_empty(), "seed {seed}: {errors:?}");
        // terminals always present
        prop_assert!(report.kg.sensor().is_some());
        prop_assert!(report.kg.embedding_node().is_some());
        // every edge connects adjacent levels
        for &(s, d) in report.kg.edges() {
            let ls = report.kg.node(s).unwrap().level;
            let ld = report.kg.node(d).unwrap().level;
            prop_assert_eq!(ls + 1, ld);
        }
    }

    #[test]
    fn create_node_preserves_validity(seed in 0u64..5_000, level in 1usize..4) {
        let mut oracle = SyntheticOracle::perfect(seed);
        let cfg = GeneratorConfig { depth: 3, nodes_per_level: 4, max_correction_iters: 5 };
        let mut kg = generate_kg("robbery", &cfg, &mut oracle).kg;
        let mut rng = StdRng::seed_from_u64(seed);
        let id = create_node(&mut kg, format!("new-{seed}"), level, &mut rng).unwrap();
        prop_assert!(kg.validate().is_empty(), "{:?}", kg.validate());
        prop_assert_eq!(kg.node(id).unwrap().kind, NodeKind::Reasoning);
    }

    #[test]
    fn replace_node_keeps_level_population(seed in 0u64..5_000) {
        let mut oracle = SyntheticOracle::perfect(seed);
        let cfg = GeneratorConfig { depth: 3, nodes_per_level: 4, max_correction_iters: 5 };
        let mut kg = generate_kg("stealing", &cfg, &mut oracle).kg;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
        let level = 2usize;
        let victims = kg.node_ids_at_level(level);
        let before = victims.len();
        kg.prune_node(victims[0]).unwrap();
        create_node(&mut kg, "fresh", level, &mut rng).unwrap();
        prop_assert_eq!(kg.node_ids_at_level(level).len(), before);
    }

    #[test]
    fn json_round_trip_preserves_structure(seed in 0u64..5_000) {
        let mut oracle = SyntheticOracle::new(ErrorProfile::realistic(), seed);
        let kg = generate_kg("burglary", &GeneratorConfig::default(), &mut oracle).kg;
        let json = kg.to_json().unwrap();
        let back = akg_kg::KnowledgeGraph::from_json(&json).unwrap();
        prop_assert_eq!(back.node_count(), kg.node_count());
        prop_assert_eq!(back.edge_count(), kg.edge_count());
        prop_assert!(back.validate().is_empty());
    }
}
