//! Frame embedding from the concept table ≡ the `embed_text` oracle,
//! bitwise: `Engine::embed_frame` reads table rows for known concepts and
//! recomputes only the rest, and must produce exactly the embedding (and
//! leave the session's RNG in exactly the state) of a bag encoder that
//! embeds every concept through the public `JointSpace::embed_text`.

use akg_core::engine::Engine;
use akg_core::pipeline::{SystemConfig, FRAME_NOISE_STD};
use akg_data::{DatasetConfig, Frame, SyntheticUcfCrime, GENERIC_CONCEPTS, NORMAL_CONCEPTS};
use akg_embed::JointSpace;
use akg_kg::{AnomalyClass, Ontology};
use akg_tensor::backend::Backend;
use rand::rngs::StdRng;
use std::collections::HashSet;

/// The frame encoder with no concept table: every concept embedded through
/// `embed_text`, weighted, averaged, noised and normalized.
fn oracle(space: &JointSpace, frame: &Frame, rng: &mut StdRng) -> Vec<f32> {
    let mut v = vec![0.0f32; space.dim()];
    let mut total = 0.0f32;
    for (text, weight) in &frame.concepts {
        total += weight;
        let wv = space.embed_text(text);
        for (vi, wi) in v.iter_mut().zip(wv) {
            *vi += weight * wi;
        }
    }
    if total > 0.0 {
        for vi in &mut v {
            *vi /= total;
        }
    }
    for vi in &mut v {
        *vi += FRAME_NOISE_STD * akg_embed::gaussian(rng);
    }
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
}

fn frame(concepts: &[(&str, f32)]) -> Frame {
    Frame { concepts: concepts.iter().map(|&(c, w)| (c.to_owned(), w)).collect(), label: None }
}

/// Frames the dataset never produces: off-table spellings and texts, and
/// degenerate weights.
fn edge_frames() -> Vec<Frame> {
    vec![
        frame(&[("Thief", 1.0), ("person", 0.5)]),
        frame(&[("zyzzyva", 0.8), ("walking", 0.4)]),
        frame(&[("masked thief climbing", 1.0), ("street", 0.3)]),
        frame(&[("", 1.0), ("thief", 0.7)]),
        frame(&[]),
        frame(&[("thief", 0.0), ("walking", 0.0)]),
        frame(&[("thief", 1.0), ("walking", -0.6), ("scene-0000abcd", 0.2)]),
    ]
}

/// Every frame of a dataset covering all 13 anomaly classes.
fn dataset() -> SyntheticUcfCrime {
    let ds = SyntheticUcfCrime::generate(DatasetConfig::scaled(0.02).with_seed(5));
    let classes: HashSet<AnomalyClass> = ds.train.iter().filter_map(|v| v.class).collect();
    assert_eq!(classes.len(), AnomalyClass::ALL.len(), "the dataset must cover every class");
    ds
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn embed_frame_matches_the_embed_text_oracle_bitwise() {
    let ds = dataset();
    let edges = edge_frames();
    let frames: Vec<&Frame> =
        ds.train.iter().chain(&ds.test).flat_map(|v| &v.frames).chain(&edges).collect();
    assert!(edges.iter().any(|f| f.concepts.iter().any(|(c, _)| c == "Thief")));
    for backend in [Backend::Scalar, Backend::Simd] {
        let config = SystemConfig { backend, ..SystemConfig::default() };
        let engine = Engine::build(&[AnomalyClass::Stealing], &config);
        assert!(engine.space.precomputed("thief").is_some());
        assert!(engine.space.precomputed("Thief").is_none(), "table keys are verbatim");
        let mut session = engine.new_session(17);
        let mut oracle_rng = session.frame_rng.clone();
        // A recycled buffer holding a stale embedding, as the rolling
        // buffer hands back its evicted row.
        let mut recycled = vec![f32::NAN; engine.space.dim()];
        for (i, frame) in frames.iter().enumerate() {
            let want = oracle(&engine.space, frame, &mut oracle_rng);
            let got = if i % 2 == 0 {
                engine.embed_frame(&mut session, frame)
            } else {
                engine.embed_frame_into(&mut session, frame, &mut recycled);
                recycled.clone()
            };
            assert_eq!(bits(&got), bits(&want), "{backend:?}: frame {i} {:?}", frame.concepts);
            assert_eq!(session.frame_rng, oracle_rng, "{backend:?}: RNG diverged at frame {i}");
        }
    }
}

#[test]
fn every_fixed_concept_is_a_table_hit() {
    let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
    let ontology = Ontology::new();
    let fixed: Vec<&str> = AnomalyClass::ALL
        .into_iter()
        .flat_map(|class| ontology.all_concepts(class))
        .chain(NORMAL_CONCEPTS.iter().copied())
        .chain(GENERIC_CONCEPTS.iter().copied())
        .collect();
    for text in &fixed {
        let row = engine.space.precomputed(text);
        let row = row.unwrap_or_else(|| panic!("{text:?} is not in the concept table"));
        assert_eq!(bits(row), bits(&engine.space.embed_text(text)), "{text:?}");
    }
    // Only per-video scene backgrounds miss the table on generated footage.
    let ds = dataset();
    for (text, _) in
        ds.train.iter().chain(&ds.test).flat_map(|v| &v.frames).flat_map(|f| f.concepts.iter())
    {
        assert!(
            text.starts_with("scene-") || engine.space.precomputed(text).is_some(),
            "frame concept {text:?} misses the concept table"
        );
    }
}
