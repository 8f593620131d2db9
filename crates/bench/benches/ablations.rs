//! Ablation benches for the design choices DESIGN.md calls out. Each bench
//! measures post-shift mean AUC under a variant of the adaptation mechanism
//! (criterion measures wall-clock; the AUC outcome is printed once per
//! variant so `cargo bench` output records both).
//!
//! 1. K rule — paper's `K = |Δm|·N` vs fixed K.
//! 2. Prune/create trigger — divergence rule vs never-prune.
//! 3. Retrieval metric — Euclidean vs cosine vs dot (quality proxy:
//!    self-retrieval accuracy over domain words).
//! 4. Token-only updates — adaptation lr sensitivity (token updates remain
//!    the only trainable path, as in the paper).

use akg_bench::experiment_dataset;
use akg_core::adapt::AdaptConfig;
use akg_core::engine::Engine;
use akg_core::experiment::{run_trend_shift, TrendShiftParams};
use akg_core::pipeline::SystemConfig;
use akg_core::retrieval::InterpretableRetrieval;
use akg_embed::Similarity;
use akg_kg::{AnomalyClass, Ontology};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Once;

fn shift_params(seed: u64) -> TrendShiftParams {
    let mut p = TrendShiftParams::quick(AnomalyClass::Stealing, AnomalyClass::Robbery);
    // ablations use a shorter protocol to keep bench times reasonable
    p.steps_before = 1;
    p.steps_after = 2;
    p.frames_per_step = 128;
    p.seed = seed;
    p.system.seed = seed;
    p.train = p.train.with_seed(seed);
    p
}

static PRINT_K_RULE: Once = Once::new();

fn ablate_k_rule(c: &mut Criterion) {
    PRINT_K_RULE.call_once(|| {
        let ds = experiment_dataset(&[AnomalyClass::Stealing, AnomalyClass::Robbery], 43);
        let mut paper = shift_params(43);
        paper.adapt = AdaptConfig::default();
        let paper_result = run_trend_shift(&ds, &paper);
        let mut fixed = shift_params(43);
        // fixed-K: ignore Δm scaling by pinning min_k == max_k
        fixed.adapt = AdaptConfig { min_k: 4, max_k: 4, ..AdaptConfig::default() };
        let fixed_result = run_trend_shift(&ds, &fixed);
        println!(
            "[ablate_k_rule] post-shift AUC: paper K=|dm|N {:.3} | fixed K=4 {:.3} | static {:.3}",
            paper_result.adaptive.post_shift_mean_auc(),
            fixed_result.adaptive.post_shift_mean_auc(),
            paper_result.static_kg.post_shift_mean_auc(),
        );
    });
    // measured quantity: the trigger computation itself (K = |Δm|·N over a
    // full window) — the per-frame cost the rule adds on the edge device
    c.bench_function("k_rule_trigger_computation", |b| {
        let mut tracker = akg_eval::MeanShiftTracker::anchored(64);
        for i in 0..128 {
            tracker.push(0.5 + 0.3 * ((i % 7) as f32 / 7.0));
        }
        b.iter(|| black_box(tracker.adaptation_k()))
    });
}

static PRINT_PRUNE: Once = Once::new();

fn ablate_prune_rule(c: &mut Criterion) {
    PRINT_PRUNE.call_once(|| {
        let ds = experiment_dataset(&[AnomalyClass::Stealing, AnomalyClass::Robbery], 43);
        let mut with_prune = shift_params(43);
        with_prune.adapt = AdaptConfig { divergence_patience: 3, ..AdaptConfig::default() };
        let with_result = run_trend_shift(&ds, &with_prune);
        let mut no_prune = shift_params(43);
        no_prune.adapt = AdaptConfig { max_replacements: 0, ..AdaptConfig::default() };
        let no_result = run_trend_shift(&ds, &no_prune);
        println!(
            "[ablate_prune] post-shift AUC: divergence prune/create {:.3} | never prune {:.3}",
            with_result.adaptive.post_shift_mean_auc(),
            no_result.adaptive.post_shift_mean_auc(),
        );
    });
    c.bench_function("ablate_prune_noop", |b| b.iter(|| black_box(1 + 1)));
}

fn ablate_retrieval_metric(c: &mut Criterion) {
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
    let query = engine.space.word_vector("sneaky");
    c.bench_function("retrieval_euclidean_top5", |b| {
        b.iter(|| black_box(retrieval.nearest_words(black_box(&query), 5, Similarity::Euclidean)))
    });
    c.bench_function("retrieval_cosine_top5", |b| {
        b.iter(|| black_box(retrieval.nearest_words(black_box(&query), 5, Similarity::Cosine)))
    });
}

static PRINT_FREEZE: Once = Once::new();

fn ablate_adaptation_lr(c: &mut Criterion) {
    PRINT_FREEZE.call_once(|| {
        let ds = experiment_dataset(&[AnomalyClass::Stealing, AnomalyClass::Robbery], 43);
        for lr in [0.002f32, 0.01, 0.05] {
            let mut p = shift_params(43);
            p.adapt = AdaptConfig { lr, ..AdaptConfig::default() };
            let r = run_trend_shift(&ds, &p);
            println!(
                "[ablate_lr] token-update lr {lr}: post-shift AUC {:.3} (static {:.3})",
                r.adaptive.post_shift_mean_auc(),
                r.static_kg.post_shift_mean_auc(),
            );
        }
    });
    c.bench_function("ablate_lr_noop", |b| b.iter(|| black_box(1 + 1)));
}

criterion_group!(
    name = ablations;
    config = Criterion::default().sample_size(10);
    targets = ablate_k_rule, ablate_prune_rule, ablate_retrieval_metric, ablate_adaptation_lr
);
criterion_main!(ablations);
