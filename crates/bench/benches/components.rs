//! Criterion micro-benchmarks of the deployed system's components — the
//! latency claims behind Table I's "Low (Real-time)" row: GNN forward,
//! full-frame scoring, one adaptation trigger, KG generation, tokenizer
//! throughput.

use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
use akg_core::engine::Engine;
use akg_core::pipeline::SystemConfig;
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_embed::BpeTokenizer;
use akg_kg::{generate_kg, AnomalyClass, GeneratorConfig, Ontology, SyntheticOracle};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_frame_scoring(c: &mut Criterion) {
    let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
    let mut session = engine.new_session(0);
    let frame = akg_data::Frame {
        concepts: vec![("walking".into(), 1.0), ("person".into(), 0.7)],
        label: None,
    };
    let emb = engine.embed_frame(&mut session, &frame);
    let window = vec![emb; engine.config().window];
    c.bench_function("score_one_frame_window", |b| {
        b.iter(|| black_box(engine.score_window(&session, black_box(&window))))
    });
}

fn bench_adaptation_trigger(c: &mut Criterion) {
    let ds = SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.01).with_classes(&[AnomalyClass::Stealing]).with_seed(7),
    );
    let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
    let mut session = engine.new_session(0);
    let cfg = AdaptConfig { interval: usize::MAX, ..AdaptConfig::default() };
    let mut adapter = ContinuousAdapter::attach(&engine, &mut session, cfg);
    let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 1);
    for _ in 0..cfg.n_window {
        let (frame, _) = stream.next_frame();
        adapter.observe(&engine, &mut session, &frame);
    }
    c.bench_function("adaptation_trigger_check", |b| {
        b.iter(|| black_box(adapter.adapt_now(&engine, &mut session)))
    });
}

fn bench_kg_generation(c: &mut Criterion) {
    c.bench_function("kg_generation_realistic_oracle", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            let mut oracle = SyntheticOracle::new(akg_kg::ErrorProfile::realistic(), seed);
            black_box(generate_kg("stealing", &GeneratorConfig::default(), &mut oracle))
        })
    });
}

fn bench_tokenizer(c: &mut Criterion) {
    let corpus = Ontology::new().corpus();
    let tokenizer = BpeTokenizer::train(corpus.iter().map(String::as_str), 700);
    c.bench_function("bpe_encode_concept", |b| {
        b.iter(|| black_box(tokenizer.encode(black_box("person stealing a bag at night"))))
    });
    c.bench_function("bpe_train_domain_corpus", |b| {
        b.iter(|| black_box(BpeTokenizer::train(corpus.iter().map(String::as_str), 700)))
    });
}

fn bench_frame_embedding(c: &mut Criterion) {
    let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
    let mut session = engine.new_session(0);
    let frame = akg_data::Frame {
        concepts: vec![("grab".into(), 1.2), ("person".into(), 0.8), ("walking".into(), 0.6)],
        label: Some(AnomalyClass::Stealing),
    };
    c.bench_function("embed_frame", |b| {
        b.iter(|| black_box(engine.embed_frame(&mut session, black_box(&frame))))
    });
}

criterion_group!(
    name = components;
    config = Criterion::default().sample_size(20);
    targets = bench_frame_scoring,
        bench_adaptation_trigger,
        bench_kg_generation,
        bench_tokenizer,
        bench_frame_embedding
);
criterion_main!(components);
