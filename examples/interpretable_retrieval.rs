//! Interpretable KG retrieval (paper Sec. III-E / Fig. 6): decode adapted
//! token embeddings back into human-readable words and watch a node drift
//! from the old mission's vocabulary toward the new one.
//!
//! Run with: `cargo run --release --example interpretable_retrieval`

use akg_core::engine::Engine;
use akg_core::pipeline::SystemConfig;
use akg_core::retrieval::InterpretableRetrieval;
use akg_embed::Similarity;
use akg_kg::AnomalyClass;

fn main() {
    let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
    let retrieval = InterpretableRetrieval::new(&engine.tokenizer, &engine.space);
    println!("reference vocabulary: {} decodable tokens\n", retrieval.len());

    // 1. Retrieval finds a concept's own word first.
    let sneaky = engine.space.word_vector("sneaky");
    println!("nearest words to the 'sneaky' embedding (Euclidean, as in the paper):");
    for hit in retrieval.nearest_words(&sneaky, 5, Similarity::Euclidean) {
        println!("  {:<12} closeness {:+.4}", hit.word, hit.closeness);
    }

    // 2. Emulate the Fig. 6 drift: interpolate a learned embedding from
    //    'sneaky' (Stealing) toward 'firearm' (Robbery) and decode it at
    //    each step — the retrieved word flips once the embedding crosses
    //    the midpoint, exactly the "Sneaky -> Firearm" transition the
    //    paper reports.
    let firearm = engine.space.word_vector("firearm");
    println!("\nembedding drift 'sneaky' -> 'firearm' (iterations of adaptation):");
    println!("  mix | dist(sneaky) | dist(firearm) | top word");
    for step in 0..=8 {
        let alpha = step as f32 / 8.0;
        let drifted: Vec<f32> =
            sneaky.iter().zip(&firearm).map(|(s, f)| (1.0 - alpha) * s + alpha * f).collect();
        let d_init = retrieval.distance_to_words(&drifted, &["sneaky"]);
        let d_target = retrieval.distance_to_words(&drifted, &["firearm"]);
        let top = retrieval.nearest_words(&drifted, 1, Similarity::Euclidean);
        println!(
            " {:.2} |    {:.4}    |    {:.4}     | {}",
            alpha,
            d_init,
            d_target,
            top.first().map(|h| h.word.as_str()).unwrap_or("-")
        );
    }

    // 3. Metric comparison (the paper tested dot product and cosine too).
    println!("\nmetric comparison for the halfway embedding:");
    let halfway: Vec<f32> = sneaky.iter().zip(&firearm).map(|(s, f)| 0.5 * s + 0.5 * f).collect();
    for metric in [Similarity::Euclidean, Similarity::Cosine, Similarity::Dot] {
        let words: Vec<String> =
            retrieval.nearest_words(&halfway, 3, metric).into_iter().map(|h| h.word).collect();
        println!("  {:?}: {}", metric, words.join(", "));
    }
}
