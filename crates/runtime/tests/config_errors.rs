//! Error-path tests for runtime misconfiguration: the documented panics of
//! `ShardedRuntime::new`, the degenerate-topology behaviors (fewer streams
//! than shards), and the degrade-ladder policy's ordering invariants. Every
//! panic asserted here is part of the public contract (documented on the
//! constructor), not incidental.

use akg_core::adapt::AdaptConfig;
use akg_core::pipeline::SystemConfig;
use akg_data::Frame;
use akg_kg::AnomalyClass;
use akg_runtime::{
    DegradePolicy, EngineSpec, FnSource, LoadConfig, LoadedRuntime, ShardedConfig, ShardedRuntime,
};

type TestSource = FnSource<Box<dyn FnMut() -> (Frame, bool)>>;

fn spec() -> EngineSpec {
    EngineSpec::new(&[AnomalyClass::Stealing], SystemConfig::default())
}

fn source(stream: usize) -> TestSource {
    let mut t = 0usize;
    FnSource(Box::new(move || {
        t += 1;
        let concepts = if (stream + t).is_multiple_of(2) {
            vec![("walking".into(), 1.0)]
        } else {
            vec![("person".into(), 0.8)]
        };
        (Frame { concepts, label: None }, false)
    }))
}

#[test]
#[should_panic(expected = "shards must be positive")]
fn sharded_runtime_rejects_zero_shards() {
    let _: ShardedRuntime<TestSource> =
        ShardedRuntime::new(spec(), ShardedConfig { shards: 0, ..ShardedConfig::default() });
}

#[test]
#[should_panic(expected = "queue_depth must be positive")]
fn sharded_runtime_rejects_zero_queue_depth() {
    let _: ShardedRuntime<TestSource> = ShardedRuntime::new(
        spec(),
        ShardedConfig { queue_depth: 0, ..ShardedConfig::with_shards(1) },
    );
}

#[test]
#[should_panic(expected = "max_batch must be positive")]
fn sharded_runtime_rejects_zero_max_batch() {
    let _: ShardedRuntime<TestSource> = ShardedRuntime::new(
        spec(),
        ShardedConfig { max_batch: 0, ..ShardedConfig::with_shards(1) },
    );
}

/// Fewer streams than shards is a *documented-working* degenerate topology,
/// not an error: surplus workers idle-acknowledge every round and the
/// results match the fully-populated layout bit-for-bit.
#[test]
fn fewer_streams_than_shards_serves_correctly() {
    let mut wide = ShardedRuntime::new(spec(), ShardedConfig::with_shards(4));
    let mut narrow = ShardedRuntime::new(spec(), ShardedConfig::with_shards(1));
    for s in 0..2usize {
        wide.add_stream(source(s), s as u64, AdaptConfig::default());
        narrow.add_stream(source(s), s as u64, AdaptConfig::default());
    }
    let wide_scores = wide.run(5);
    let narrow_scores = narrow.run(5);
    assert_eq!(wide_scores, narrow_scores, "surplus shards changed results");
    assert_eq!(wide.counters().frames, 10);
    assert_eq!(wide.counters().frames, narrow.counters().frames);
}

#[test]
#[should_panic(expected = "no streams registered")]
fn sharded_tick_with_zero_streams_panics() {
    let mut rt: ShardedRuntime<TestSource> =
        ShardedRuntime::new(spec(), ShardedConfig::with_shards(2));
    let _ = rt.tick();
}

#[test]
#[should_panic(expected = "skip_adapt_depth must be ≥ 1")]
fn policy_rejects_zero_skip_adapt_depth() {
    DegradePolicy { skip_adapt_depth: 0, ..DegradePolicy::default() }.validate();
}

#[test]
#[should_panic(expected = "skip_adapt_depth must not exceed coalesce_depth")]
fn policy_rejects_inverted_skip_and_coalesce() {
    DegradePolicy { skip_adapt_depth: 9, coalesce_depth: 8, ..DegradePolicy::default() }.validate();
}

#[test]
#[should_panic(expected = "coalesce_depth must not exceed shed_depth")]
fn policy_rejects_inverted_coalesce_and_shed() {
    DegradePolicy { coalesce_depth: 17, shed_depth: 16, ..DegradePolicy::default() }.validate();
}

#[test]
#[should_panic(expected = "shed_depth must not exceed queue_capacity")]
fn policy_rejects_shed_depth_beyond_capacity() {
    DegradePolicy { shed_depth: 33, queue_capacity: 32, shed_keep: 8, ..DegradePolicy::default() }
        .validate();
}

#[test]
#[should_panic(expected = "coalesce_max must be ≥ 1")]
fn policy_rejects_zero_coalesce_max() {
    DegradePolicy { coalesce_max: 0, ..DegradePolicy::default() }.validate();
}

#[test]
#[should_panic(expected = "shed_keep must be < shed_depth")]
fn loaded_runtime_validates_policy_at_construction() {
    let cfg = LoadConfig {
        policy: DegradePolicy { shed_keep: 20, shed_depth: 16, ..DegradePolicy::default() },
        ..LoadConfig::default()
    };
    let _: LoadedRuntime<TestSource> = LoadedRuntime::new(spec(), cfg);
}

#[test]
#[should_panic(expected = "shards must be positive")]
fn loaded_runtime_rejects_zero_shards() {
    let _: LoadedRuntime<TestSource> = LoadedRuntime::sharded(spec(), LoadConfig::default(), 0);
}

#[test]
#[should_panic(expected = "no streams registered")]
fn loaded_tick_with_zero_streams_panics() {
    let mut rt: LoadedRuntime<TestSource> = LoadedRuntime::new(spec(), LoadConfig::default());
    let _ = rt.tick();
}
