//! The recovery-equivalence contract: a shard worker killed at **any** tick
//! must leave no trace — after checkpoint-restore and deterministic replay,
//! the run's scores, adapted token tables, replacement counts, and serve
//! counters are bit-identical to a run where no worker ever died, under
//! both the Scalar and SIMD backends.
//!
//! The argument is layered on the shard-equivalence contract
//! (`tests/equivalence.rs`): engines rebuild bit-identically from their
//! `EngineSpec`, sessions restore bit-identically from a
//! `SessionCheckpoint` (proven in `akg-core`'s persist tests), and every
//! tick is a pure function of restored state + replayed inputs — so the
//! respawned worker's regenerated replies are byte-copies of the ones the
//! dead worker would have sent.
//!
//! The chaos soak at the bottom drives 520 ticks of bursty load + a strong
//! trend shift through seeded crash *and* corruption faults, asserting the
//! exact-accounting identity (now with the `rejected` term) after every
//! tick and bit-equality against the fault-free single-node baseline at
//! the end — zero silent frame loss, with recoveries actually happening.

use akg_core::adapt::AdaptConfig;
use akg_core::pipeline::SystemConfig;
use akg_data::{AdaptationStream, DatasetConfig, Frame, OwnedAdaptationStream, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_runtime::{
    corrupt_frame, ArrivalPattern, ChaosConfig, CorruptionKind, EngineSpec, FaultPlan, FrameSource,
    LoadConfig, LoadCounters, LoadedRuntime, MultiStreamRuntime, RecoveryStats, RuntimeConfig,
    ScriptedFault, ServeCounters, ShardedConfig, ShardedRuntime, StreamLoadStats, TickDecision,
};
use akg_tensor::{Backend, Precision};
use std::sync::{Arc, Mutex, MutexGuard};

const TICKS: usize = 48;
const SHIFT_AT: usize = 24;

/// Backend-flipping tests serialize on one lock (the `BACKEND_LOCK`
/// discipline of `tests/equivalence.rs`).
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock_backend() -> MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn dataset() -> Arc<SyntheticUcfCrime> {
    Arc::new(SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
            .with_seed(77),
    ))
}

fn adapt_cfg(stream: usize) -> AdaptConfig {
    AdaptConfig {
        n_window: 16,
        interval: 8,
        min_k: 1,
        max_k: 4,
        seed: stream as u64,
        ..AdaptConfig::default()
    }
}

fn system_cfg(backend: Backend) -> SystemConfig {
    SystemConfig { seed: 5, backend, precision: Precision::F32, ..SystemConfig::default() }
}

/// Everything observable about a sharded run — what must not change when a
/// worker dies and recovers.
struct Fingerprint {
    scores: Vec<Vec<Option<f32>>>,
    tables: Vec<Vec<f32>>,
    replacements: Vec<usize>,
    counters: ServeCounters,
    recovery: RecoveryStats,
}

fn run_sharded(
    ds: &Arc<SyntheticUcfCrime>,
    n_streams: usize,
    shards: usize,
    backend: Backend,
    checkpoint_interval: usize,
    faults: FaultPlan,
) -> Fingerprint {
    let spec = EngineSpec::new(&[AnomalyClass::Stealing], system_cfg(backend));
    let config = ShardedConfig {
        shards,
        checkpoint_interval,
        inner_threads: Some(1),
        ..ShardedConfig::default()
    };
    let mut rt = ShardedRuntime::with_faults(spec, config, faults);
    for s in 0..n_streams {
        let source =
            AdaptationStream::owned(Arc::clone(ds), AnomalyClass::Stealing, 0.5, 1000 + s as u64);
        rt.add_stream(source, 0xBEEF ^ (s as u64 * 101), adapt_cfg(s));
    }
    let mut scores = rt.run(SHIFT_AT);
    for s in 0..n_streams {
        rt.source_mut(s).shift_to(AnomalyClass::Robbery);
    }
    for (s, tail) in rt.run(TICKS - SHIFT_AT).into_iter().enumerate() {
        scores[s].extend(tail);
    }
    let snapshots = rt.stream_snapshots();
    Fingerprint {
        scores,
        tables: snapshots.iter().map(|s| s.table.clone()).collect(),
        replacements: snapshots.iter().map(|s| s.replacements).collect(),
        counters: rt.counters(),
        recovery: rt.recovery_stats(),
    }
}

fn assert_bit_identical(faulted: &Fingerprint, clean: &Fingerprint, label: &str) {
    assert_eq!(faulted.scores, clean.scores, "{label}: scores diverged after recovery");
    assert_eq!(faulted.tables, clean.tables, "{label}: adapted token tables diverged");
    assert_eq!(faulted.replacements, clean.replacements, "{label}: replacement counts diverged");
    assert_eq!(faulted.counters, clean.counters, "{label}: serve counters diverged");
}

/// The headline contract, one backend at a time: kill a worker early (tick
/// 3, before any checkpoint → genesis replay) and late (tick 17, after a
/// checkpoint → checkpoint + replay), at 2 and 4 shards, across a mid-run
/// trend shift so adaptation state is live when the crash lands. Every
/// fingerprint must match the undisturbed run bit for bit.
fn check_recovery_equivalence(backend: Backend) {
    let _guard = lock_backend();
    let ds = dataset();
    let n_streams = 8;
    for shards in [2usize, 4] {
        let clean = run_sharded(&ds, n_streams, shards, backend, 8, FaultPlan::none());
        assert_eq!(clean.recovery.recoveries, 0);
        assert!(
            clean.counters.node_replacements > 0 || clean.counters.token_updates > 0,
            "no adaptation fired — the recovery check would be vacuous"
        );
        for crash_tick in [3usize, 17] {
            for shard in 0..shards {
                let faults = FaultPlan::crash_at(shard, crash_tick);
                let faulted = run_sharded(&ds, n_streams, shards, backend, 8, faults);
                let label = format!(
                    "{shards} shards, worker {shard} killed at tick {crash_tick}, {backend:?}"
                );
                assert_eq!(faulted.recovery.recoveries, 1, "{label}: no recovery happened");
                if crash_tick > 8 {
                    assert_eq!(
                        faulted.recovery.from_checkpoint, 1,
                        "{label}: should have restored from the tick-8/16 checkpoint"
                    );
                } else {
                    assert_eq!(
                        faulted.recovery.from_checkpoint, 0,
                        "{label}: crash before the first checkpoint must replay from genesis"
                    );
                }
                assert!(faulted.recovery.replayed_ticks >= 1, "{label}: nothing was replayed");
                assert_bit_identical(&faulted, &clean, &label);
            }
        }
    }
}

#[test]
fn recovered_run_is_bit_identical_to_fault_free_scalar() {
    check_recovery_equivalence(Backend::Scalar);
}

#[test]
fn recovered_run_is_bit_identical_to_fault_free_simd() {
    // On non-AVX2 hosts `Backend::Simd` resolves to the scalar kernels, so
    // this leg never crashes anywhere but is a genuinely different backend
    // wherever the SIMD path exists.
    check_recovery_equivalence(Backend::Simd);
}

/// A panicking worker (vs a cleanly exiting one) must recover identically —
/// the supervisor only ever sees a disconnect.
#[test]
fn panicking_worker_recovers_like_an_exiting_one() {
    let _guard = lock_backend();
    let ds = dataset();
    let clean = run_sharded(&ds, 4, 2, Backend::Auto, 8, FaultPlan::none());
    let exited = run_sharded(&ds, 4, 2, Backend::Auto, 8, FaultPlan::crash_at(1, 11));
    let panicked = run_sharded(&ds, 4, 2, Backend::Auto, 8, FaultPlan::panic_at(1, 11));
    assert_eq!(exited.recovery.recoveries, 1);
    assert_eq!(panicked.recovery.recoveries, 1);
    assert_bit_identical(&exited, &clean, "worker exit at tick 11");
    assert_bit_identical(&panicked, &clean, "worker panic at tick 11");
}

/// Repeated deaths of the *same* shard across generations: the
/// generation-aware fault plan kills generation 0 at tick 5 and generation
/// 1 at tick 20, so recovery itself gets recovered from.
#[test]
fn repeated_crashes_of_one_shard_all_recover() {
    let _guard = lock_backend();
    let ds = dataset();
    let clean = run_sharded(&ds, 4, 2, Backend::Auto, 8, FaultPlan::none());
    let faults = FaultPlan::crash_at(0, 5)
        .with(akg_runtime::ScriptedFault::WorkerCrash { shard: 0, tick: 20 });
    let faulted = run_sharded(&ds, 4, 2, Backend::Auto, 8, faults);
    assert_eq!(faulted.recovery.recoveries, 2, "both scheduled crashes must trigger recovery");
    assert_bit_identical(&faulted, &clean, "two crashes of shard 0");
}

/// Crashing two *different* shards in one run: recoveries are independent
/// (separate replay buffers, separate generations).
#[test]
fn concurrent_faults_on_distinct_shards_recover_independently() {
    let _guard = lock_backend();
    let ds = dataset();
    let clean = run_sharded(&ds, 8, 4, Backend::Auto, 8, FaultPlan::none());
    let faults = FaultPlan::crash_at(1, 7)
        .with(akg_runtime::ScriptedFault::WorkerPanic { shard: 3, tick: 13 });
    let faulted = run_sharded(&ds, 8, 4, Backend::Auto, 8, faults);
    assert_eq!(faulted.recovery.recoveries, 2);
    assert_bit_identical(&faulted, &clean, "shard 1 exit + shard 3 panic");
}

/// A stalled worker is not a fault: detection is disconnect-based, so the
/// stall just applies backpressure and no output bit moves.
#[test]
fn stalled_worker_changes_no_output_bit() {
    let _guard = lock_backend();
    let ds = dataset();
    let clean = run_sharded(&ds, 4, 2, Backend::Auto, 8, FaultPlan::none());
    let faults = FaultPlan::none()
        .with(akg_runtime::ScriptedFault::StallWorker { shard: 0, tick: 6, millis: 40 })
        .with(akg_runtime::ScriptedFault::StallWorker { shard: 1, tick: 19, millis: 40 });
    let stalled = run_sharded(&ds, 4, 2, Backend::Auto, 8, faults);
    assert_eq!(stalled.recovery.recoveries, 0, "a stall must never trigger recovery");
    assert_bit_identical(&stalled, &clean, "stalled workers");
}

/// Corrupted frames (NaN / inf / out-of-range weights) are rejected in the
/// shard workers' tick bodies — identically by a 1-shard and a 2-shard
/// `ShardedRuntime` — and counted, never silently lost and never allowed to
/// poison adapted state.
#[test]
fn corrupt_frames_are_rejected_identically_across_topologies() {
    let _guard = lock_backend();
    let ds = dataset();
    // Corrupt stream 1's frame on a handful of scripted ticks (past the
    // warmup so every stream has a window to keep scoring from).
    let corrupt_ticks: [u64; 3] = [20, 29, 38];
    let make_plan = || {
        let mut plan = FaultPlan::none();
        for (i, &tick) in corrupt_ticks.iter().enumerate() {
            let kind = match i % 3 {
                0 => akg_runtime::CorruptionKind::NanWeight,
                1 => akg_runtime::CorruptionKind::InfWeight,
                _ => akg_runtime::CorruptionKind::OutOfRange,
            };
            plan = plan.with(akg_runtime::ScriptedFault::CorruptFrame { stream: 1, tick, kind });
        }
        plan
    };
    let clean = run_sharded(&ds, 4, 2, Backend::Auto, 8, FaultPlan::none());
    let single = run_sharded(&ds, 4, 1, Backend::Auto, 8, make_plan());
    let sharded = run_sharded(&ds, 4, 2, Backend::Auto, 8, make_plan());
    // Same rejections, same scores, same tables at 1 and 2 shards.
    assert_eq!(single.counters.rejected, corrupt_ticks.len());
    assert_eq!(sharded.counters.rejected, corrupt_ticks.len());
    assert_eq!(single.scores, sharded.scores, "rejection handling diverged across shard counts");
    assert_eq!(single.tables, sharded.tables, "rejection handling diverged across shard counts");
    // Rejection is not a no-op relative to the clean run (the stream missed
    // real frames), but untouched streams must be unaffected.
    assert_eq!(sharded.tables[0], clean.tables[0], "corruption of stream 1 leaked into stream 0");
    assert_eq!(sharded.tables[2], clean.tables[2], "corruption of stream 1 leaked into stream 2");
    // All scores — including the rejected stream's — stay finite and in range.
    for (s, seq) in sharded.scores.iter().enumerate() {
        assert!(
            seq.iter().all(|v| v.is_some_and(|p| p.is_finite() && (0.0..=1.0).contains(&p))),
            "stream {s}: a rejected frame leaked a non-finite score"
        );
    }
}

/// A dataset stream whose frames are corrupted where a fault plan says: the
/// `n`-th pull is front-end tick `n`, so a single-threaded runtime over these
/// sources sees exactly the bytes a `ShardedRuntime` with the same plan
/// ships to its workers.
struct CorruptingStream {
    stream: OwnedAdaptationStream,
    id: u64,
    tick: u64,
    faults: FaultPlan,
}

impl FrameSource for CorruptingStream {
    fn next_frame(&mut self) -> (Frame, bool) {
        let (mut frame, label) = self.stream.next_frame();
        if let Some(kind) = self.faults.corruption(self.tick, self.id) {
            corrupt_frame(&mut frame, kind);
        }
        self.tick += 1;
        (frame, label)
    }
}

/// One validation point: the single-threaded `MultiStreamRuntime` and the
/// shard workers run the same tick body, so corrupted frames are rejected
/// identically — same rejection count, scores and adapted tables as a
/// `ShardedRuntime` running the same fault plan at 1 and 2 shards.
#[test]
fn single_threaded_and_sharded_runtimes_reject_identically() {
    let _guard = lock_backend();
    let ds = dataset();
    let n_streams = 4;
    // Every stream, every shape, both shards of the 2-shard layout, back to
    // back on one stream, and on both sides of the trend shift (a rejected
    // first frame has its own test below).
    let corruptions = [
        (0, 3, CorruptionKind::NanWeight),
        (1, 20, CorruptionKind::InfWeight),
        (1, 21, CorruptionKind::OutOfRange),
        (2, 29, CorruptionKind::NanWeight),
        (3, 38, CorruptionKind::InfWeight),
        (0, 47, CorruptionKind::OutOfRange),
    ];
    let plan = corruptions.iter().fold(FaultPlan::none(), |plan, &(stream, tick, kind)| {
        plan.with(ScriptedFault::CorruptFrame { stream, tick, kind })
    });

    let single = run_single_threaded(&ds, n_streams, &plan);
    assert_eq!(single.counters.rejected, corruptions.len(), "single-threaded rejection count");
    assert_eq!(single.counters.frames, n_streams * TICKS - corruptions.len());
    assert_sharded_matches(&ds, &single, &plan);
}

/// A stream whose first frames all fail validation has no window to score:
/// both runtimes report `None` for it on those ticks (no panic), score it
/// once a valid frame arrives, and agree bit for bit at 1 and 2 shards.
#[test]
fn rejected_first_frames_leave_the_stream_unscored_on_both_runtimes() {
    let _guard = lock_backend();
    let ds = dataset();
    let n_streams = 2;
    let plan = FaultPlan::none()
        .with(ScriptedFault::CorruptFrame { stream: 1, tick: 0, kind: CorruptionKind::NanWeight })
        .with(ScriptedFault::CorruptFrame { stream: 1, tick: 1, kind: CorruptionKind::InfWeight });
    let single = run_single_threaded(&ds, n_streams, &plan);
    assert_eq!(single.counters.rejected, 2);
    assert!(single.scores[0].iter().all(Option::is_some), "the clean stream missed a score");
    assert_eq!(single.scores[1][..2], [None, None], "a stream with no window was scored");
    assert!(single.scores[1][2..].iter().all(Option::is_some), "the stream never recovered");
    assert_sharded_matches(&ds, &single, &plan);
}

/// Scores, adapted tables and serve counters of a run.
struct Outcome {
    scores: Vec<Vec<Option<f32>>>,
    tables: Vec<Vec<f32>>,
    counters: ServeCounters,
}

/// The single-threaded runtime over [`CorruptingStream`]s, through the
/// trend shift [`run_sharded`] applies.
fn run_single_threaded(ds: &Arc<SyntheticUcfCrime>, n_streams: usize, plan: &FaultPlan) -> Outcome {
    let spec = EngineSpec::new(&[AnomalyClass::Stealing], system_cfg(Backend::Auto));
    let mut rt = MultiStreamRuntime::new(spec.build(), RuntimeConfig::default());
    for s in 0..n_streams {
        let stream =
            AdaptationStream::owned(Arc::clone(ds), AnomalyClass::Stealing, 0.5, 1000 + s as u64);
        let source = CorruptingStream { stream, id: s as u64, tick: 0, faults: plan.clone() };
        rt.add_stream(source, 0xBEEF ^ (s as u64 * 101), adapt_cfg(s));
    }
    let mut scores = rt.run(SHIFT_AT);
    for s in 0..n_streams {
        rt.source_mut(s).stream.shift_to(AnomalyClass::Robbery);
    }
    for (s, tail) in rt.run(TICKS - SHIFT_AT).into_iter().enumerate() {
        scores[s].extend(tail);
    }
    let tables = (0..n_streams).map(|s| rt.stream_snapshot(s).table).collect();
    Outcome { scores, tables, counters: rt.counters() }
}

/// A `ShardedRuntime` running `plan` at 1 and 2 shards rejects, scores and
/// adapts exactly as the single-threaded run did.
fn assert_sharded_matches(ds: &Arc<SyntheticUcfCrime>, single: &Outcome, plan: &FaultPlan) {
    for shards in [1usize, 2] {
        let sharded = run_sharded(ds, single.scores.len(), shards, Backend::Auto, 8, plan.clone());
        let label = format!("{shards} shard(s) vs the single-threaded runtime");
        assert_eq!(
            sharded.counters.rejected, single.counters.rejected,
            "{label}: rejection counts"
        );
        assert_eq!(sharded.counters.frames, single.counters.frames, "{label}: ingested frames");
        assert_eq!(sharded.scores, single.scores, "{label}: scores diverged");
        assert_eq!(sharded.tables, single.tables, "{label}: adapted tables diverged");
    }
}

// ---------------------------------------------------------------------------
// The 520-tick chaos soak: crashes + corruption + bursty load + trend shift.
// ---------------------------------------------------------------------------

const SOAK_STREAMS: usize = 3;
const SOAK_TICKS: usize = 520;
const SOAK_SHIFT_AT: usize = 260;

fn soak_dataset() -> Arc<SyntheticUcfCrime> {
    Arc::new(SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Explosion])
            .with_seed(31),
    ))
}

fn soak_adapt_cfg() -> AdaptConfig {
    AdaptConfig { n_window: 32, interval: 16, min_k: 1, ..Default::default() }
}

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

/// Seeded chaos: ~1% crash probability per shard per tick, ~0.5% corruption
/// per stream per tick. Over 520 ticks × 2 shards that is ~10 expected
/// crashes and ~8 expected rejections — enough to exercise every recovery
/// path repeatedly while leaving the Normal-rung completion cadence intact
/// (heavier corruption starves the `observed % interval` adaptation trigger
/// and the soak's vacuity guard would fire).
fn chaos_plan() -> FaultPlan {
    FaultPlan::chaos(
        0xC0A5_0117,
        ChaosConfig { crash_rate: 0.01, corrupt_rate: 0.005, ..ChaosConfig::default() },
    )
}

struct ChaosFingerprint {
    scores: Vec<Vec<Option<f32>>>,
    decisions: Vec<TickDecision>,
    counters: LoadCounters,
    per_stream: Vec<StreamLoadStats>,
    serve: ServeCounters,
    tables: Vec<Vec<f32>>,
    recovery: RecoveryStats,
    /// Serialized session bytes across every shard's newest retained
    /// checkpoint (0 on a single node, which keeps none).
    checkpoint_bytes: usize,
}

fn run_chaos_soak(
    ds: &Arc<SyntheticUcfCrime>,
    shards: usize,
    faults: FaultPlan,
) -> ChaosFingerprint {
    let spec = EngineSpec::new(&[AnomalyClass::Stealing], SystemConfig::default());
    let cfg = soak_load_cfg();
    let mut rt: LoadedRuntime<akg_data::OwnedAdaptationStream> = if shards == 1 {
        LoadedRuntime::new_with_faults(spec, cfg, faults)
    } else {
        LoadedRuntime::sharded_with_faults(spec, cfg, shards, faults)
    };
    for s in 0..SOAK_STREAMS {
        let source =
            AdaptationStream::owned(Arc::clone(ds), AnomalyClass::Stealing, 0.4, 500 + s as u64);
        rt.add_stream(source, 0x50A ^ s as u64, soak_adapt_cfg(), s as u8);
    }
    let mut scores: Vec<Vec<Option<f32>>> =
        std::iter::repeat_with(|| Vec::with_capacity(SOAK_TICKS)).take(SOAK_STREAMS).collect();
    for tick in 0..SOAK_TICKS {
        if tick == SOAK_SHIFT_AT {
            for s in 0..SOAK_STREAMS {
                rt.source_mut(s).shift_to(AnomalyClass::Explosion);
            }
        }
        for (s, score) in rt.tick().into_iter().enumerate() {
            if let Some(v) = score {
                assert!(v.is_finite() && (0.0..=1.0).contains(&v), "tick {tick}: bad score {v}");
            }
            scores[s].push(score);
        }
        // Exact accounting — including the rejected term — is a per-tick
        // invariant even while workers are dying and being replayed.
        assert!(
            rt.counters().balanced(),
            "tick {tick}: accounting unbalanced under chaos {:?}",
            rt.counters()
        );
    }
    let checkpoint_bytes = rt
        .latest_checkpoints()
        .into_iter()
        .flatten()
        .flat_map(|cp| &cp.streams)
        .map(|stream| serde_json::to_string(stream).expect("serialize checkpoint").len())
        .sum();
    ChaosFingerprint {
        scores,
        decisions: rt.decisions().to_vec(),
        counters: rt.counters(),
        per_stream: rt.stream_stats().to_vec(),
        serve: rt.serve_counters(),
        tables: rt.stream_snapshots().into_iter().map(|s| s.table).collect(),
        recovery: rt.recovery_stats(),
        checkpoint_bytes,
    }
}

/// 520 ticks of bursty load, a strong mid-run trend shift, seeded worker
/// crashes, and seeded frame corruption — and the sharded run must still be
/// bit-identical to the fault-free-worker single-node baseline (the same
/// corruptions hit both, so rejections match; crashes hit only the sharded
/// node, and recovery must erase them). Zero silent frame loss: every
/// offered frame lands in exactly one ledger bucket.
#[test]
fn chaos_soak_recovers_to_bit_identical_serving_with_zero_silent_loss() {
    let _guard = lock_backend();
    let ds = soak_dataset();
    // Baseline: single node — crash faults are structurally inert there
    // (no workers), corruption faults identical.
    let baseline = run_chaos_soak(&ds, 1, chaos_plan());
    assert_eq!(baseline.recovery.recoveries, 0);
    let chaotic = run_chaos_soak(&ds, 2, chaos_plan());

    // The chaos actually happened.
    assert!(
        chaotic.recovery.recoveries > 0,
        "chaos crash rate produced zero worker deaths over 520 ticks — vacuous soak"
    );
    assert!(chaotic.recovery.replayed_ticks >= chaotic.recovery.recoveries);
    assert!(chaotic.checkpoint_bytes > 0, "no shard ever captured a stream checkpoint");
    assert!(
        chaotic.counters.rejected > 0,
        "chaos corruption rate produced zero rejections over 520 ticks — vacuous soak"
    );
    assert!(
        chaotic.serve.token_updates > 0,
        "no adaptation fired across the trend shift — chaos starved the adapt loop: serve {:?} counters {:?} recovery {:?}",
        chaotic.serve,
        chaotic.counters,
        chaotic.recovery,
    );

    // Zero silent loss: the full identity, rejected term included.
    let c = chaotic.counters;
    assert!(c.balanced(), "final chaos accounting unbalanced: {c:?}");
    assert_eq!(
        c.offered,
        c.served_full
            + c.served_degraded
            + c.coalesced
            + c.shed
            + c.overflow_dropped
            + c.queued
            + c.rejected,
        "a frame was silently lost under chaos"
    );
    let stream_rejected: usize = chaotic.per_stream.iter().map(|s| s.rejected).sum();
    assert_eq!(stream_rejected, c.rejected, "per-stream rejection ledger disagrees");

    // Recovery-equivalence, end to end: scores, degrade decisions, ledgers,
    // per-stream stats, and adapted tables all match the baseline bit for
    // bit — a crashed-and-recovered worker is externally unobservable.
    assert_eq!(chaotic.decisions, baseline.decisions, "degrade decisions diverged under chaos");
    assert_eq!(chaotic.counters, baseline.counters, "load accounting diverged under chaos");
    assert_eq!(chaotic.per_stream, baseline.per_stream, "per-stream stats diverged under chaos");
    assert_eq!(chaotic.scores, baseline.scores, "scores diverged under chaos");
    assert_eq!(chaotic.tables, baseline.tables, "adapted tables diverged under chaos");
    assert_eq!(chaotic.serve.frames, baseline.serve.frames);
    assert_eq!(chaotic.serve.token_updates, baseline.serve.token_updates);
    assert_eq!(chaotic.serve.node_replacements, baseline.serve.node_replacements);
    assert_eq!(chaotic.serve.rejected, baseline.serve.rejected);
}
