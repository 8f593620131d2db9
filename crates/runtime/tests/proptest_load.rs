//! The shed ladder as a pure function, fuzzed: identical `(seed, arrival
//! pattern, policy, stream count, priorities)` must yield **bit-identical**
//! shed/degrade decision logs, exact accounting, deterministic wait-tick
//! histograms, final scores, and final adapted tables — across repeated
//! runs, across shard counts (the loaded extension of the PR 6
//! shard-equivalence contract), and under both the Scalar and SIMD
//! backends (`BACKEND_LOCK` held, same discipline as `equivalence.rs`).

use akg_core::adapt::AdaptConfig;
use akg_core::pipeline::SystemConfig;
use akg_data::Frame;
use akg_kg::AnomalyClass;
use akg_runtime::{
    ArrivalPattern, DegradePolicy, EngineSpec, FnSource, LoadConfig, LoadCounters, LoadedRuntime,
    StreamLoadStats, TickDecision,
};
use akg_tensor::Backend;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// Engine builds apply their config's backend process-wide; serialize the
/// loaded comparisons so nothing flips the backend mid-run.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock_backend() -> MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic per-stream frame sequence (content depends on stream and
/// frame counter, so any reordered/dropped/extra pull shifts the scores).
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

fn adapt_cfg(stream: usize) -> AdaptConfig {
    AdaptConfig {
        n_window: 16,
        lag: 8,
        interval: 8,
        min_k: 1,
        max_k: 4,
        seed: stream as u64,
        ..AdaptConfig::default()
    }
}

/// Everything a loaded run exposes that the determinism contract covers.
#[derive(Debug, PartialEq)]
struct RunFingerprint {
    scores: Vec<Vec<Option<f32>>>,
    decisions: Vec<TickDecision>,
    counters: LoadCounters,
    per_stream: Vec<StreamLoadStats>,
    wait_p50: u64,
    wait_p99: u64,
    wait_max: u64,
    wait_count: u64,
    tables: Vec<Vec<f32>>,
}

fn run_loaded(
    backend: Backend,
    pattern: ArrivalPattern,
    seed: u64,
    streams: usize,
    priorities: &[u8],
    shards: usize,
    ticks: usize,
) -> RunFingerprint {
    let spec = EngineSpec::new(
        &[AnomalyClass::Stealing],
        SystemConfig { seed: 5, backend, ..SystemConfig::default() },
    );
    let cfg = LoadConfig {
        pattern,
        seed,
        policy: DegradePolicy {
            queue_capacity: 16,
            skip_adapt_depth: 2,
            coalesce_depth: 4,
            shed_depth: 8,
            shed_keep: 4,
            coalesce_max: 3,
        },
        max_batch: 4,
    };
    let mut rt = if shards == 1 {
        LoadedRuntime::new(spec, cfg)
    } else {
        LoadedRuntime::sharded(spec, cfg, shards)
    };
    for (s, &priority) in priorities.iter().enumerate().take(streams) {
        rt.add_stream(counted_source(s), 0xBEEF ^ (s as u64 * 101), adapt_cfg(s), priority);
    }
    let scores = rt.run(ticks);
    let wait = rt.wait_ticks().clone();
    RunFingerprint {
        scores,
        decisions: rt.decisions().to_vec(),
        counters: rt.counters(),
        per_stream: rt.stream_stats().to_vec(),
        wait_p50: wait.percentile(0.50),
        wait_p99: wait.percentile(0.99),
        wait_max: wait.max(),
        wait_count: wait.count(),
        tables: rt.stream_snapshots().into_iter().map(|s| s.table).collect(),
    }
}

/// The decision log must re-derive the counters exactly — the log *is* the
/// accounting, not a parallel estimate of it.
fn assert_log_matches_counters(fp: &RunFingerprint, ticks: usize) {
    assert_eq!(fp.decisions.len(), ticks);
    let served: u32 = fp.decisions.iter().map(|d| d.served).sum();
    let coalesced: u32 = fp.decisions.iter().map(|d| d.coalesced).sum();
    let shed: u32 = fp.decisions.iter().map(|d| d.shed).sum();
    assert_eq!(served as usize, fp.counters.served_full + fp.counters.served_degraded);
    assert_eq!(coalesced as usize, fp.counters.coalesced);
    assert_eq!(shed as usize, fp.counters.shed);
    assert!(fp.counters.balanced(), "accounting unbalanced: {:?}", fp.counters);
    // Per-stream accounting re-sums to the global counters.
    let offered: usize = fp.per_stream.iter().map(|s| s.offered).sum();
    assert_eq!(offered, fp.counters.offered);
    let stream_shed: usize = fp.per_stream.iter().map(|s| s.shed).sum();
    assert_eq!(stream_shed, fp.counters.shed);
    // Every drained frame's wait was recorded, and the load drained some.
    assert_eq!(fp.wait_count as usize, fp.counters.drained());
    assert!(fp.wait_count > 0, "the wait histogram is empty after {ticks} loaded ticks");
}

fn pattern_for(index: usize) -> ArrivalPattern {
    match index {
        0 => ArrivalPattern::Poisson { rate: 1.4 },
        1 => ArrivalPattern::Bursty { on_ticks: 6, off_ticks: 10, burst_rate: 3.0, base_rate: 0.2 },
        _ => ArrivalPattern::Ramp { base_rate: 0.2, slope: 0.08, peak_rate: 3.0 },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn shed_ladder_is_pure_across_runs_shards_and_backends(
        pattern_index in 0usize..3,
        seed in 0u64..u64::MAX,
        streams in 1usize..5,
        shards in 2usize..4,
        priority_salt in 0u8..4,
        ticks in 40usize..70,
    ) {
        let _guard = lock_backend();
        let pattern = pattern_for(pattern_index);
        let priorities: Vec<u8> =
            (0..streams).map(|s| (s as u8 + priority_salt) % 3).collect();

        for backend in [Backend::Scalar, Backend::Simd] {
            let single = run_loaded(backend, pattern, seed, streams, &priorities, 1, ticks);
            let replay = run_loaded(backend, pattern, seed, streams, &priorities, 1, ticks);
            let sharded = run_loaded(backend, pattern, seed, streams, &priorities, shards, ticks);

            assert_log_matches_counters(&single, ticks);

            // Re-running the identical configuration replays the run
            // bit-for-bit: decisions, accounting, scores, tables.
            prop_assert_eq!(&single, &replay);

            // The loaded shard-equivalence contract: a sharded node makes
            // the same degrade decisions AND produces the same scores and
            // final adapted state as the single node, bit-for-bit.
            prop_assert_eq!(&single, &sharded);
        }
    }
}
