//! No frame byte panics the serving path, fuzzed: arbitrary frames — NaN,
//! ±inf, ±`Frame::MAX_ACTIVATION` and just past it, subnormal and
//! cancelling weights, empty concept lists, empty and unknown concept names
//! — under arbitrary `StreamPlan`s go through
//! `MultiStreamRuntime::tick_frames` and `ShardedRuntime::tick_planned` at 2
//! shards. Neither panics, no score is NaN, and both reject the same frames
//! and serve the same scores bit for bit. Every run opens with a rejected
//! frame on stream 0, so that stream starts with no window.

use akg_core::adapt::AdaptConfig;
use akg_core::engine::Engine;
use akg_core::pipeline::SystemConfig;
use akg_data::Frame;
use akg_kg::AnomalyClass;
use akg_runtime::{
    EngineSpec, IdleSource, MultiStreamRuntime, RuntimeConfig, ShardedConfig, ShardedRuntime,
    StreamPlan,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MISSIONS: [AnomalyClass; 1] = [AnomalyClass::Stealing];

/// Concept names: normal and mission words the engine knows, a word it has
/// never seen, and the empty name `Frame::validate` rejects.
const CONCEPTS: [&str; 7] =
    ["walking", "person", "stealing", "sneaking", "vehicle", "qzx-unseen", ""];

/// One weight, hostile about half the time.
fn weight(rng: &mut StdRng) -> f32 {
    let max = Frame::MAX_ACTIVATION;
    match rng.gen_range(0..12) {
        0 => f32::NAN,
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => max,
        4 => -max,
        5 => f32::from_bits(max.to_bits() + 1),
        6 => 1e-40,
        7 => -f32::MIN_POSITIVE,
        8 => 0.0,
        _ => rng.gen_range(-2.0..2.0),
    }
}

/// A frame of zero to four concepts; a third of the non-empty ones open on
/// a pair of weights that cancel exactly, so the weights after it set the
/// total alone (a subnormal one among them).
fn frame(rng: &mut StdRng) -> Frame {
    let n = rng.gen_range(0..5);
    let mut concepts: Vec<(String, f32)> = Vec::with_capacity(n + 2);
    if n > 0 && rng.gen_range(0..3) == 0 {
        let w = rng.gen_range(0.0..Frame::MAX_ACTIVATION);
        concepts.push(("walking".into(), w));
        concepts.push(("running".into(), -w));
    }
    concepts.extend(
        (0..n).map(|_| (CONCEPTS[rng.gen_range(0..CONCEPTS.len())].to_string(), weight(rng))),
    );
    Frame { concepts, label: None }
}

fn plan(rng: &mut StdRng) -> StreamPlan {
    StreamPlan { ingest: rng.gen_range(0..3), score: rng.gen_bool(0.8), adapt: rng.gen_bool(0.8) }
}

/// Small windows so adaptation checks run inside a short fuzzed run.
fn adapt_cfg(stream: usize) -> AdaptConfig {
    AdaptConfig {
        n_window: 8,
        interval: 4,
        min_k: 1,
        max_k: 4,
        seed: stream as u64,
        ..AdaptConfig::default()
    }
}

fn bits(scores: &[Option<f32>]) -> Vec<Option<u32>> {
    scores.iter().map(|s| s.map(f32::to_bits)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn hostile_frames_serve_alike_on_both_runtimes_without_nan(
        streams in 1usize..5,
        ticks in 6usize..20,
        max_batch in 1usize..4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut schedule: Vec<(Vec<Frame>, Vec<StreamPlan>)> = Vec::with_capacity(ticks);
        for tick in 0..ticks {
            let mut plans: Vec<StreamPlan> = (0..streams).map(|_| plan(&mut rng)).collect();
            let mut frames = Vec::new();
            for (s, p) in plans.iter_mut().enumerate() {
                if tick == 0 && s == 0 {
                    p.ingest = 1;
                    frames.push(Frame { concepts: vec![("walking".into(), f32::NAN)], label: None });
                    continue;
                }
                frames.extend((0..p.ingest).map(|_| frame(&mut rng)));
            }
            schedule.push((frames, plans));
        }
        let expected_rejected = schedule
            .iter()
            .flat_map(|(frames, _)| frames)
            .filter(|f| f.validate().is_err())
            .count();

        let config = SystemConfig::default();
        let mut single = MultiStreamRuntime::new(
            Engine::build(&MISSIONS, &config),
            RuntimeConfig { max_batch },
        );
        let mut sharded: ShardedRuntime<IdleSource> = ShardedRuntime::new(
            EngineSpec::new(&MISSIONS, config),
            ShardedConfig { shards: 2, max_batch, inner_threads: Some(1), ..ShardedConfig::default() },
        );
        for s in 0..streams {
            single.add_stream(IdleSource, s as u64, adapt_cfg(s));
            sharded.add_stream(IdleSource, s as u64, adapt_cfg(s));
        }
        for (tick, (frames, plans)) in schedule.iter().enumerate() {
            let a = single.tick_frames(frames, plans);
            let b = sharded.tick_planned(frames, plans);
            if tick == 0 {
                prop_assert_eq!(a[0], None);
            }
            for score in a.iter().flatten() {
                prop_assert!(!score.is_nan(), "tick {}: NaN score", tick);
            }
            let (a, b) = (bits(&a), bits(&b));
            prop_assert!(a == b, "tick {}: single {:?}, sharded {:?}", tick, a, b);
        }
        prop_assert_eq!(single.counters().rejected, expected_rejected);
        prop_assert_eq!(sharded.counters().rejected, expected_rejected);
    }
}
