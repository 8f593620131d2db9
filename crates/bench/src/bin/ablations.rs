//! Ablations of the adaptation mechanism's design choices, seed 43. Each
//! prints one `[ablate_*]` line per variant:
//!
//! 1. K rule — paper's `K = |Δm|·N` vs fixed K (post-shift mean AUC).
//! 2. Prune/create trigger — divergence rule vs never-prune (post-shift
//!    mean AUC).
//! 3. Retrieval metric — Euclidean vs cosine vs dot (quality proxy:
//!    self-retrieval accuracy over domain words).
//! 4. Token-only updates — adaptation lr sensitivity (token updates remain
//!    the only trainable path, as in the paper).
//!
//! Usage: `ablations` (no flags).

use akg_bench::experiment_dataset;
use akg_core::adapt::AdaptConfig;
use akg_core::engine::Engine;
use akg_core::experiment::{run_trend_shift, TrendShiftParams};
use akg_core::pipeline::SystemConfig;
use akg_core::retrieval::InterpretableRetrieval;
use akg_embed::Similarity;
use akg_kg::{AnomalyClass, Ontology};

const SEED: u64 = 43;

fn main() {
    ablate_k_rule();
    ablate_prune_rule();
    ablate_retrieval_metric();
    ablate_adaptation_lr();
}

/// The trend-shift protocol, shortened so four ablations run in minutes.
fn shift_params(seed: u64) -> TrendShiftParams {
    let mut p = TrendShiftParams::quick(AnomalyClass::Stealing, AnomalyClass::Robbery);
    p.steps_before = 1;
    p.steps_after = 2;
    p.frames_per_step = 128;
    p.seed = seed;
    p.system.seed = seed;
    p.train = p.train.with_seed(seed);
    p
}

fn shift_dataset() -> akg_data::SyntheticUcfCrime {
    experiment_dataset(&[AnomalyClass::Stealing, AnomalyClass::Robbery], SEED)
}

fn ablate_k_rule() {
    let ds = shift_dataset();
    let mut paper = shift_params(SEED);
    paper.adapt = AdaptConfig::default();
    let paper_result = run_trend_shift(&ds, &paper);
    let mut fixed = shift_params(SEED);
    // fixed-K: ignore Δm scaling by pinning min_k == max_k
    fixed.adapt = AdaptConfig { min_k: 4, max_k: 4, ..AdaptConfig::default() };
    let fixed_result = run_trend_shift(&ds, &fixed);
    println!(
        "[ablate_k_rule] post-shift AUC: paper K=|dm|N {:.3} | fixed K=4 {:.3} | static {:.3}",
        paper_result.adaptive.post_shift_mean_auc(),
        fixed_result.adaptive.post_shift_mean_auc(),
        paper_result.static_kg.post_shift_mean_auc(),
    );
}

fn ablate_prune_rule() {
    let ds = shift_dataset();
    let mut with_prune = shift_params(SEED);
    with_prune.adapt = AdaptConfig { divergence_patience: 3, ..AdaptConfig::default() };
    let with_result = run_trend_shift(&ds, &with_prune);
    let mut no_prune = shift_params(SEED);
    no_prune.adapt = AdaptConfig { max_replacements: 0, ..AdaptConfig::default() };
    let no_result = run_trend_shift(&ds, &no_prune);
    println!(
        "[ablate_prune] post-shift AUC: divergence prune/create {:.3} | never prune {:.3}",
        with_result.adaptive.post_shift_mean_auc(),
        no_result.adaptive.post_shift_mean_auc(),
    );
}

fn ablate_retrieval_metric() {
    let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
    let retrieval = InterpretableRetrieval::new(&engine.tokenizer, &engine.space);
    let ontology = Ontology::new();
    let words: Vec<&str> = ontology.all_concepts(AnomalyClass::Stealing);
    // quality: does the metric retrieve the word itself from its own vector?
    for metric in [Similarity::Euclidean, Similarity::Cosine, Similarity::Dot] {
        let hits = words
            .iter()
            .filter(|w| {
                let q = engine.space.word_vector(w);
                retrieval
                    .nearest_words(&q, 1, metric)
                    .first()
                    .map(|h| h.word == **w)
                    .unwrap_or(false)
            })
            .count();
        println!(
            "[ablate_metric] {:?}: self-retrieval {}/{} domain words",
            metric,
            hits,
            words.len()
        );
    }
}

fn ablate_adaptation_lr() {
    let ds = shift_dataset();
    for lr in [0.002f32, 0.01, 0.05] {
        let mut p = shift_params(SEED);
        p.adapt = AdaptConfig { lr, ..AdaptConfig::default() };
        let r = run_trend_shift(&ds, &p);
        println!(
            "[ablate_lr] token-update lr {lr}: post-shift AUC {:.3} (static {:.3})",
            r.adaptive.post_shift_mean_auc(),
            r.static_kg.post_shift_mean_auc(),
        );
    }
}
