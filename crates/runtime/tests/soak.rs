//! Long-run serving soak: a multi-stream deployment must reach a **fixed
//! memory high-water mark**. The inference data plane leases every scratch
//! buffer from the runtime's workspace; since a deployed model's shapes are
//! fixed (windows are always padded to the model window, structural
//! adaptation replaces nodes one-for-one), the pool stops growing after the
//! first few ticks — even across a mid-run trend shift that drives real
//! token updates and restructures.

use akg_core::adapt::AdaptConfig;
use akg_core::pipeline::{MissionSystem, SystemConfig};
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_runtime::{
    ArrivalPattern, DegradeLevel, EngineSpec, LoadConfig, LoadCounters, LoadedRuntime,
    MultiStreamRuntime, OwnedShardedRuntime, RuntimeConfig, ServeCounters, ShardedConfig,
    ShardedRuntime, StreamLoadStats, TickDecision,
};
use std::sync::Arc;

const STREAMS: usize = 3;
const TICKS: usize = 520;
const WARMUP_TICKS: usize = 100;
const SHIFT_AT: usize = 260;

fn soak_dataset() -> Arc<SyntheticUcfCrime> {
    Arc::new(SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
            .with_seed(31),
    ))
}

fn soak_adapt_cfg() -> AdaptConfig {
    AdaptConfig { n_window: 32, lag: 16, interval: 16, min_k: 1, ..Default::default() }
}

fn add_soak_streams<F: FnMut(akg_data::OwnedAdaptationStream, u64, AdaptConfig)>(
    ds: &Arc<SyntheticUcfCrime>,
    mut add: F,
) {
    for s in 0..STREAMS {
        let source =
            AdaptationStream::owned(Arc::clone(ds), AnomalyClass::Stealing, 0.4, 500 + s as u64);
        add(source, 0x50A ^ s as u64, soak_adapt_cfg());
    }
}

/// The single-runtime 520-tick soak body, shared by the f32 and int8 legs:
/// warm up, checkpoint the workspace stats, run across the trend shift, and
/// assert every pool froze.
fn run_single_runtime_soak(config: &SystemConfig) {
    let ds = soak_dataset();
    let sys = MissionSystem::build(&[AnomalyClass::Stealing], config);
    let mut rt = MultiStreamRuntime::new(sys.engine, RuntimeConfig::default());
    add_soak_streams(&ds, |source, seed, cfg| {
        rt.add_stream(source, seed, cfg);
    });

    for tick in 0..WARMUP_TICKS {
        if tick == SHIFT_AT {
            unreachable!();
        }
        let scores = rt.tick();
        assert!(scores.iter().all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
    }
    let warm = rt.workspace_stats();
    assert!(warm.high_water_bytes() > 0, "workspace never used — soak is vacuous");

    // Session workspaces serve the adaptation loop's pseudo-label forwards,
    // which first run when a stream's adaptation first *triggers* — so
    // checkpoint them only after the trend shift has driven adaptation on
    // every stream (growth must stop; it need not stop before first use).
    let mut warm_sessions: Vec<usize> = Vec::new();
    const SESSION_CHECKPOINT: usize = 400;
    for tick in WARMUP_TICKS..TICKS {
        if tick == SHIFT_AT {
            for s in 0..STREAMS {
                rt.source_mut(s).shift_to(AnomalyClass::Robbery);
            }
        }
        if tick == SESSION_CHECKPOINT {
            warm_sessions =
                (0..STREAMS).map(|s| rt.session(s).workspace_stats().high_water_bytes()).collect();
        }
        let scores = rt.tick();
        assert!(scores.iter().all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
    }

    let end = rt.workspace_stats();
    assert_eq!(
        end.high_water_bytes(),
        warm.high_water_bytes(),
        "runtime workspace high-water grew after warmup: {} -> {} bytes",
        warm.high_water_bytes(),
        end.high_water_bytes()
    );
    assert_eq!(
        end.buffers_created, warm.buffers_created,
        "runtime workspace allocated new buffers after warmup"
    );
    for (s, &warm_bytes) in warm_sessions.iter().enumerate() {
        let after = rt.session(s).workspace_stats().high_water_bytes();
        assert_eq!(after, warm_bytes, "stream {s}: session workspace high-water grew after warmup");
    }

    let c = rt.counters();
    assert_eq!(c.frames, STREAMS * TICKS);
    assert_eq!(c.ticks, TICKS);
    assert!(
        c.token_updates > 0,
        "no adaptation fired across the trend shift — the soak exercised nothing"
    );
}

#[test]
fn workspace_high_water_stabilizes_over_500_ticks_with_trend_shift() {
    run_single_runtime_soak(&SystemConfig::default());
}

/// The int8 leg: quantized serving leases `i8` activation scratch from the
/// same workspaces the f32 plane uses (adaptation's forwards stay f32, so
/// every tick mixes both pools) — the high-water mark must still freeze.
#[test]
fn workspace_high_water_stabilizes_at_int8_precision() {
    run_single_runtime_soak(&SystemConfig {
        precision: akg_tensor::Precision::Int8,
        ..SystemConfig::default()
    });
}

/// One 520-tick sharded soak run: returns the final aggregate counters after
/// asserting every shard's serving workspace and every stream's session
/// workspace froze (no growth, no new buffers) between the checkpoint and
/// the end of the run.
fn run_sharded_soak(ds: &Arc<SyntheticUcfCrime>, shards: usize) -> ServeCounters {
    const SESSION_CHECKPOINT: usize = 400;
    let spec = EngineSpec::new(&[AnomalyClass::Stealing], SystemConfig::default());
    let mut rt: OwnedShardedRuntime = ShardedRuntime::new(spec, ShardedConfig::with_shards(shards));
    add_soak_streams(ds, |source, seed, cfg| {
        rt.add_stream(source, seed, cfg);
    });

    // Shard workspaces first lease buffers during the first scored tick, but
    // session workspaces (pseudo-label forwards) first run when adaptation
    // first triggers — checkpoint everything after the trend shift has
    // driven adaptation, like the single-shard soak above.
    let mut checkpoint = Vec::new();
    for tick in 0..TICKS {
        if tick == SHIFT_AT {
            for s in 0..STREAMS {
                rt.source_mut(s).shift_to(AnomalyClass::Robbery);
            }
        }
        if tick == SESSION_CHECKPOINT {
            checkpoint = rt.shard_snapshots();
        }
        let scores = rt.tick();
        assert!(scores.iter().all(|s| s.is_finite() && (0.0..=1.0).contains(s)));
    }

    let end = rt.shard_snapshots();
    for (shard, (warm, after)) in checkpoint.iter().zip(&end).enumerate() {
        assert!(
            after.streams.is_empty() || after.workspace.high_water_bytes() > 0,
            "shard {shard}: workspace never used — soak is vacuous"
        );
        assert_eq!(
            after.workspace.high_water_bytes(),
            warm.workspace.high_water_bytes(),
            "shard {shard}: serving workspace high-water grew after warmup"
        );
        assert_eq!(
            after.workspace.buffers_created, warm.workspace.buffers_created,
            "shard {shard}: serving workspace allocated new buffers after warmup"
        );
        for (local, (w, a)) in warm.streams.iter().zip(&after.streams).enumerate() {
            assert_eq!(
                a.workspace.high_water_bytes(),
                w.workspace.high_water_bytes(),
                "shard {shard} local stream {local}: session workspace high-water grew"
            );
        }
    }
    rt.counters()
}

/// The sharded 520-tick soak: every shard's memory high-water freezes, and
/// the aggregate **semantic** counters of a 2-shard run match the 1-shard
/// run exactly. (`dispatches` legitimately depends on the shard layout —
/// each shard chunks its own streams by `max_batch` — so it is checked
/// against the layout formula instead of cross-run equality.)
#[test]
fn sharded_soak_freezes_workspaces_and_preserves_aggregate_counters() {
    let ds = soak_dataset();
    let single = run_sharded_soak(&ds, 1);
    let sharded = run_sharded_soak(&ds, 2);

    assert_eq!(sharded.frames, single.frames, "aggregate frames diverged across shard counts");
    assert_eq!(sharded.ticks, single.ticks, "tick counts diverged across shard counts");
    assert_eq!(
        sharded.token_updates, single.token_updates,
        "aggregate token updates diverged across shard counts"
    );
    assert_eq!(
        sharded.node_replacements, single.node_replacements,
        "aggregate node replacements diverged across shard counts"
    );
    assert_eq!(single.frames, STREAMS * TICKS);
    assert_eq!(single.ticks, TICKS);
    assert!(
        single.token_updates > 0,
        "no adaptation fired across the trend shift — the sharded soak exercised nothing"
    );

    // Dispatch layout: 3 streams in one shard is one ≤16 batch per tick;
    // split 2 + 1 across two shards it is two batches per tick.
    assert_eq!(single.dispatches, TICKS);
    assert_eq!(sharded.dispatches, 2 * TICKS);
    assert_eq!(single.max_batch_seen, STREAMS);
    assert_eq!(sharded.max_batch_seen, STREAMS.div_ceil(2));
}

/// The complete observable state of one loaded soak run — everything the
/// loaded shard-equivalence contract says must be bit-identical across
/// shard counts, including *which* frames degraded.
struct LoadedFingerprint {
    scores: Vec<Vec<Option<f32>>>,
    decisions: Vec<TickDecision>,
    counters: LoadCounters,
    per_stream: Vec<StreamLoadStats>,
    wait_p50: u64,
    wait_p99: u64,
    wait_p999: u64,
    wait_max: u64,
    wait_count: u64,
    serve: ServeCounters,
    tables: Vec<Vec<f32>>,
}

/// The loaded soak's dataset carries the *strong* shift pair (Stealing →
/// Explosion, disjoint concepts — the paper's Fig. 5(B) scenario). Under
/// load the tracker sees a subsampled score sequence (coalesced frames are
/// ingested but not individually scored), which smears weak-shift
/// transients below the drift trigger's resolution; the strong shift
/// produces a genuine sustained mean drop that survives the subsampling.
fn loaded_soak_dataset() -> Arc<SyntheticUcfCrime> {
    Arc::new(SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Explosion])
            .with_seed(31),
    ))
}

/// A bursty arrival shape hot enough to walk the full degrade ladder every
/// burst (arrivals outrun the coalesce quota, so depth climbs through
/// skip-adapt, coalesce, and shed) and quiet enough between bursts for the
/// queues to drain back to Normal — where the streams serve steadily
/// (offered load ~0.7 of the Normal-rung service rate) so the adaptation
/// loop's interval boundaries land on fully-completed frames and adaptation
/// actually runs between bursts.
fn soak_load_cfg() -> LoadConfig {
    LoadConfig {
        pattern: ArrivalPattern::Bursty {
            on_ticks: 24,
            off_ticks: 72,
            burst_rate: 6.0,
            base_rate: 0.7,
        },
        seed: 0xB025_7A11,
        ..LoadConfig::default()
    }
}

/// One 520-tick loaded bursty soak across the mid-run trend shift,
/// asserting exact accounting after every single tick.
fn run_loaded_soak(ds: &Arc<SyntheticUcfCrime>, shards: usize) -> LoadedFingerprint {
    let spec = EngineSpec::new(&[AnomalyClass::Stealing], SystemConfig::default());
    let cfg = soak_load_cfg();
    let mut rt: LoadedRuntime<akg_data::OwnedAdaptationStream> = if shards == 1 {
        LoadedRuntime::new(spec, cfg)
    } else {
        LoadedRuntime::sharded(spec, cfg, shards)
    };
    // Priorities 0 < 1 < 2: stream 0 sheds first, stream 2 is protected
    // until trimming the lower classes no longer clears the shed threshold.
    let mut priority = 0u8;
    add_soak_streams(ds, |source, seed, adapt| {
        rt.add_stream(source, seed, adapt, priority);
        priority += 1;
    });

    let mut scores: Vec<Vec<Option<f32>>> =
        std::iter::repeat_with(|| Vec::with_capacity(TICKS)).take(STREAMS).collect();
    for tick in 0..TICKS {
        if tick == SHIFT_AT {
            for s in 0..STREAMS {
                rt.source_mut(s).shift_to(AnomalyClass::Explosion);
            }
        }
        for (s, score) in rt.tick().into_iter().enumerate() {
            if let Some(v) = score {
                assert!(v.is_finite() && (0.0..=1.0).contains(&v), "tick {tick}: bad score {v}");
            }
            scores[s].push(score);
        }
        // Exact accounting is a per-tick invariant, not an end-state one:
        // no frame may be unaccounted for even transiently.
        assert!(rt.counters().balanced(), "tick {tick}: accounting unbalanced {:?}", rt.counters());
    }

    let wait = rt.wait_ticks().clone();
    LoadedFingerprint {
        scores,
        decisions: rt.decisions().to_vec(),
        counters: rt.counters(),
        per_stream: rt.stream_stats().to_vec(),
        wait_p50: wait.percentile(0.50),
        wait_p99: wait.percentile(0.99),
        wait_p999: wait.percentile(0.999),
        wait_max: wait.max(),
        wait_count: wait.count(),
        serve: rt.serve_counters(),
        tables: rt.stream_snapshots().into_iter().map(|s| s.table).collect(),
    }
}

/// The 520-tick loaded bursty soak across the trend shift: the latency SLO
/// holds (p99 queueing delay within the shed threshold), every degrade
/// rung fired and was counted exactly (the decision log re-derives the
/// counters), no frame was silently dropped, adaptation still ran in the
/// quiet phases — and the whole thing is bit-identical at 2 shards,
/// decision-for-decision.
#[test]
fn loaded_bursty_soak_holds_slo_with_exact_degrade_accounting() {
    let ds = loaded_soak_dataset();
    let single = run_loaded_soak(&ds, 1);
    let sharded = run_loaded_soak(&ds, 2);

    // --- The SLO: bounded queueing delay in deterministic tick units. ---
    // The shed rung caps queue depth at shed_depth and serving drains from
    // the front, so p99 wait must stay within one shed threshold and even
    // the worst frame within the queue capacity.
    let policy = soak_load_cfg().policy;
    assert!(
        single.wait_p99 <= policy.shed_depth as u64,
        "SLO violated: p99 wait {} ticks exceeds shed_depth {}",
        single.wait_p99,
        policy.shed_depth
    );
    assert!(
        single.wait_max <= policy.queue_capacity as u64,
        "worst-case wait {} ticks exceeds queue capacity {}",
        single.wait_max,
        policy.queue_capacity
    );
    assert!(single.wait_p50 <= single.wait_p99 && single.wait_p99 <= single.wait_p999);
    assert!(single.wait_count > 0, "the wait histogram is empty after {TICKS} loaded ticks");

    // --- Exact accounting: the ledger balances and the log re-derives it. ---
    let c = single.counters;
    assert!(c.balanced(), "final accounting unbalanced: {c:?}");
    assert_eq!(c.ticks, TICKS);
    assert_eq!(
        c.offered,
        c.served_full + c.served_degraded + c.coalesced + c.shed + c.overflow_dropped + c.queued,
        "a frame was silently dropped"
    );
    let log_served: u32 = single.decisions.iter().map(|d| d.served).sum();
    let log_coalesced: u32 = single.decisions.iter().map(|d| d.coalesced).sum();
    let log_shed: u32 = single.decisions.iter().map(|d| d.shed).sum();
    assert_eq!(log_served as usize, c.served_full + c.served_degraded);
    assert_eq!(log_coalesced as usize, c.coalesced);
    assert_eq!(log_shed as usize, c.shed);
    let stream_totals: usize = single.per_stream.iter().map(|s| s.offered).sum();
    assert_eq!(stream_totals, c.offered);

    // --- The ladder actually walked: every rung saw ticks and frames. ---
    for level in DegradeLevel::ALL {
        assert!(
            c.ticks_at_level[level.index()] > 0,
            "degrade rung {} never fired — the bursty soak exercised nothing",
            level.name()
        );
    }
    assert!(c.served_full > 0 && c.served_degraded > 0 && c.coalesced > 0 && c.shed > 0);
    // Priorities ordered the shedding: the lowest class sheds at least as
    // much as the most protected one.
    assert!(
        single.per_stream[0].shed >= single.per_stream[STREAMS - 1].shed,
        "priority ordering inverted: low-priority shed {} < high-priority shed {}",
        single.per_stream[0].shed,
        single.per_stream[STREAMS - 1].shed
    );
    // Adaptation still ran (in the quiet phases) across the strong trend
    // shift — degradation must not starve the adapt loop.
    assert!(
        single.serve.token_updates > 0,
        "no adaptation fired across the trend shift — degradation starved the adapt loop"
    );

    // --- Loaded shard equivalence, bit-for-bit. ---
    assert_eq!(single.decisions, sharded.decisions, "degrade decisions diverged across shards");
    assert_eq!(single.counters, sharded.counters, "load accounting diverged across shards");
    assert_eq!(single.per_stream, sharded.per_stream, "per-stream stats diverged across shards");
    assert_eq!(
        (single.wait_p50, single.wait_p99, single.wait_p999, single.wait_max),
        (sharded.wait_p50, sharded.wait_p99, sharded.wait_p999, sharded.wait_max),
        "wait-tick histograms diverged across shards"
    );
    assert_eq!(single.scores, sharded.scores, "scores diverged across shards");
    assert_eq!(single.tables, sharded.tables, "adapted tables diverged across shards");
    assert_eq!(single.serve.frames, sharded.serve.frames);
    assert_eq!(single.serve.token_updates, sharded.serve.token_updates);
    assert_eq!(single.serve.node_replacements, sharded.serve.node_replacements);
}
