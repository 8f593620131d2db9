//! The recovery-equivalence contract, fuzzed: for any shard count, queue
//! depth, checkpoint interval, crash style (clean exit vs panic), victim
//! shard, and crash tick, a run that loses a worker mid-flight produces
//! **bit-identical** scores, adapted state, and serve counters to the same
//! run with no faults at all — under both forced-Scalar and forced-SIMD
//! backends. The fixed-scenario legs live in `tests/recovery.rs`; this file
//! is the adversary that picks the crash coordinates.

use akg_core::adapt::AdaptConfig;
use akg_core::pipeline::SystemConfig;
use akg_data::Frame;
use akg_kg::AnomalyClass;
use akg_runtime::{
    EngineSpec, FaultPlan, FnSource, RecoveryStats, ServeCounters, ShardedConfig, ShardedRuntime,
    StreamSnapshot,
};
use akg_tensor::Backend;
use proptest::prelude::*;

/// Deterministic per-stream frames whose content depends on the stream and
/// its own frame counter — any replayed-twice, dropped, or cross-delivered
/// frame shifts that stream's scores.
fn counted_source(stream: usize) -> FnSource<impl FnMut() -> (Frame, bool)> {
    let mut t = 0usize;
    FnSource(move || {
        t += 1;
        let salt = stream * 31 + t * 7;
        let concepts = match salt % 3 {
            0 => vec![("walking".into(), 1.0)],
            1 => vec![("person".into(), 0.8), ("vehicle".into(), 0.4)],
            _ => vec![("running".into(), 0.6), ("person".into(), 0.3)],
        };
        (Frame { concepts, label: None }, false)
    })
}

/// Small windows so the adaptive loop has a chance to touch per-stream
/// state inside short fuzzed runs — recovery must restore that state too,
/// not just the score pipeline.
fn adapt_cfg(stream: usize) -> AdaptConfig {
    AdaptConfig {
        n_window: 8,
        lag: 4,
        interval: 4,
        min_k: 1,
        max_k: 4,
        seed: stream as u64,
        ..AdaptConfig::default()
    }
}

struct Outcome {
    scores: Vec<Vec<f32>>,
    snapshots: Vec<StreamSnapshot>,
    counters: ServeCounters,
    recovery: RecoveryStats,
}

fn serve(
    streams: usize,
    ticks: usize,
    backend: Backend,
    config: ShardedConfig,
    faults: FaultPlan,
) -> Outcome {
    let spec = EngineSpec::new(
        &[AnomalyClass::Stealing],
        SystemConfig { backend, ..SystemConfig::default() },
    );
    let mut rt = ShardedRuntime::with_faults(spec, config, faults);
    for s in 0..streams {
        rt.add_stream(counted_source(s), s as u64, adapt_cfg(s));
    }
    let scores = rt.run(ticks);
    Outcome {
        scores,
        snapshots: rt.stream_snapshots(),
        counters: rt.counters(),
        recovery: rt.recovery_stats(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn crash_at_any_tick_recovers_bit_identically(
        streams in 2usize..6,
        shards in 2usize..5,
        queue_depth in 1usize..4,
        checkpoint_interval in 1usize..8,
        ticks in 10usize..32,
        victim_raw in 0usize..16,
        crash_raw in 0usize..64,
        panics_raw in 0usize..2,
        simd_raw in 0usize..2,
    ) {
        let victim = victim_raw % shards;
        // Worker-local crash ticks are 1-based; every shard receives every
        // global tick, so any tick in [1, ticks] is a live crash site —
        // including tick 1 (genesis replay) and checkpoint boundaries.
        let crash_tick = 1 + crash_raw % ticks;
        let backend = if simd_raw == 1 { Backend::Simd } else { Backend::Scalar };
        let faults = if panics_raw == 1 {
            FaultPlan::panic_at(victim, crash_tick)
        } else {
            FaultPlan::crash_at(victim, crash_tick)
        };
        let config = ShardedConfig {
            shards,
            max_batch: 4,
            queue_depth,
            checkpoint_interval,
            inner_threads: Some(1),
        };

        let clean = serve(streams, ticks, backend, config, FaultPlan::none());
        let faulted = serve(streams, ticks, backend, config, faults);

        // Clean run must not recover; faulted run sees exactly the one
        // injected crash and replays at least one tick to heal it.
        prop_assert_eq!(clean.recovery.recoveries, 0);
        prop_assert_eq!(faulted.recovery.recoveries, 1);
        prop_assert!(faulted.recovery.replayed_ticks >= 1);

        // The contract: a crash at ANY tick is invisible in the output.
        prop_assert_eq!(&faulted.scores, &clean.scores);
        prop_assert_eq!(&faulted.counters, &clean.counters);
        for (f, c) in faulted.snapshots.iter().zip(&clean.snapshots) {
            prop_assert_eq!(&f.table, &c.table);
            prop_assert_eq!(f.replacements, c.replacements);
            prop_assert_eq!(f.token_updates, c.token_updates);
        }
    }
}
