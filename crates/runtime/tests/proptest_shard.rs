//! Property tests for the sharded runtime's scheduling invariants: for any
//! stream count, shard count, queue depth, and frame-arrival interleaving
//! (mixes of pipelined `run()` bursts and synchronous `tick()`s), shard
//! assignment is stable, no frame is dropped or double-scored, and every
//! stream's score sequence is bit-identical to the single-shard,
//! unpipelined schedule.

use akg_core::adapt::AdaptConfig;
use akg_core::pipeline::SystemConfig;
use akg_data::Frame;
use akg_kg::AnomalyClass;
use akg_runtime::{EngineSpec, FnSource, ShardedConfig, ShardedRuntime};
use proptest::prelude::*;

/// A deterministic per-stream frame sequence: frame content depends on both
/// the stream and its own frame counter, so any dropped, duplicated, or
/// cross-delivered frame shifts that stream's scores.
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

/// Serves `chunks` bursts (each `run(chunk)`, interleaved with single
/// `tick()`s when a chunk is 1) and returns per-stream score sequences plus
/// the final counters — asserting assignment stability along the way.
fn serve(
    streams: usize,
    shards: usize,
    queue_depth: usize,
    max_batch: usize,
    chunks: &[usize],
) -> (Vec<Vec<Option<f32>>>, akg_runtime::ServeCounters) {
    let spec = EngineSpec::new(&[AnomalyClass::Stealing], SystemConfig::default());
    let mut rt = ShardedRuntime::new(
        spec,
        ShardedConfig {
            shards,
            max_batch,
            queue_depth,
            inner_threads: Some(1),
            ..ShardedConfig::default()
        },
    );
    for s in 0..streams {
        let id = rt.add_stream(counted_source(s), s as u64, AdaptConfig::default());
        assert_eq!(id, s);
        assert_eq!(rt.shard_of(id), id % shards, "assignment must be stream_id % shards");
    }
    let mut scores = vec![Vec::new(); streams];
    for &chunk in chunks {
        let burst = if chunk == 1 { vec![rt.tick()] } else { transpose(rt.run(chunk), chunk) };
        for tick_scores in burst {
            for (s, score) in tick_scores.into_iter().enumerate() {
                scores[s].push(score);
            }
        }
        for id in 0..streams {
            assert_eq!(rt.shard_of(id), id % shards, "assignment drifted mid-run");
        }
    }
    (scores, rt.counters())
}

/// `run()` returns `[stream][tick]`; flip to `[tick][stream]` so bursts and
/// single ticks accumulate identically.
fn transpose(by_stream: Vec<Vec<Option<f32>>>, ticks: usize) -> Vec<Vec<Option<f32>>> {
    (0..ticks).map(|t| by_stream.iter().map(|s| s[t]).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sharding_drops_nothing_and_matches_single_shard(
        streams in 1usize..6,
        shards in 1usize..5,
        queue_depth in 1usize..4,
        max_batch in 1usize..5,
        chunks in proptest::collection::vec(1usize..5, 1..4),
    ) {
        let ticks: usize = chunks.iter().sum();
        // Reference schedule: one shard, no pipelining, one burst.
        let (reference, ref_counters) = serve(streams, 1, 1, max_batch, &[ticks]);
        let (scores, counters) = serve(streams, shards, queue_depth, max_batch, &chunks);

        // Conservation: every frame scored exactly once, none invented.
        prop_assert_eq!(counters.frames, streams * ticks);
        prop_assert_eq!(counters.ticks, ticks);
        prop_assert_eq!(ref_counters.frames, counters.frames);
        for seq in &scores {
            prop_assert_eq!(seq.len(), ticks);
        }

        // The shard-equivalence contract, fuzzed: any shard count, depth,
        // and burst interleaving yields the single-shard scores bit-for-bit.
        prop_assert_eq!(scores, reference);
    }
}
