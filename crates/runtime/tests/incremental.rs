//! Incremental scoring ≡ the uncached oracle, bitwise.
//!
//! The runtime's tick body scores through each adapter's ring of per-frame
//! GNN rows (`ContinuousAdapter::score_windows`): a frame runs through the
//! GNNs once, and the ring is dropped whenever the session's state stamp
//! moves. The oracle here recomputes every window from scratch through
//! `Engine::score_windows_batch_refs`, call by call as the tick body makes
//! them (ingest, window, score, complete).
//!
//! The run spans a trend shift with token updates and node replacements, a
//! mid-run restore of every stream to an earlier checkpoint, padded
//! warm-up windows, and plans that ingest two frames, ingest none, skip
//! scoring or skip adaptation — under Scalar/Simd × f32/int8, on the
//! single-threaded runtime and on `ShardedRuntime` at shards {1, 2} (whose
//! crashed worker is rebuilt from a checkpoint). A second test holds
//! `ContinuousAdapter::observe` to `Engine::score_window_refs` across
//! writes made from outside the adapter, and a third counts the GNN rows a
//! tick computes.

use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
use akg_core::engine::{Engine, Session};
use akg_core::persist::{checkpoint_session, restore_session};
use akg_core::pipeline::SystemConfig;
use akg_core::SessionCheckpoint;
use akg_data::{AdaptationStream, DatasetConfig, Frame, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_runtime::{
    EngineSpec, FaultPlan, IdleSource, MultiStreamRuntime, RuntimeConfig, ScriptedFault,
    ShardedConfig, ShardedRuntime, StreamPlan,
};
use akg_tensor::{Backend, Precision, Workspace};
use std::sync::{Mutex, MutexGuard};

const STREAMS: usize = 3;
const TICKS: usize = 64;
const SHIFT_AT: usize = 20;
const CHECKPOINT_AT: usize = 30;
const RESTORE_AT: usize = 44;

/// `Engine::build` applies its backend process-wide: serialize the tests so
/// a concurrent build cannot flip it mid-comparison.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock_backend() -> MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn system_cfg(backend: Backend, precision: Precision) -> SystemConfig {
    SystemConfig { seed: 5, backend, precision, ..SystemConfig::default() }
}

/// Small windows so adaptation fires within the run. Stream 0's divergence
/// patience of 1 follows its token updates with node replacements; the
/// others' longer patience leaves token updates that change only the table.
fn adapt_cfg(stream: usize) -> AdaptConfig {
    AdaptConfig {
        n_window: 16,
        interval: 8,
        min_k: 1,
        max_k: 4,
        divergence_patience: 1 + 2 * stream,
        seed: stream as u64,
        ..AdaptConfig::default()
    }
}

fn frame_seed(stream: usize) -> u64 {
    0xC0DE ^ (stream as u64 * 31)
}

/// Stream `s`'s plan at `tick`: mostly one frame in, scored and adapted,
/// with two-frame ingests, idle rounds, unscored rounds and skipped
/// adaptation mixed in.
fn plan(tick: usize, s: usize) -> StreamPlan {
    let mut plan = StreamPlan::default();
    match s {
        0 => {
            if tick % 5 == 3 {
                plan.ingest = 2;
            }
            if tick % 7 == 4 {
                plan.score = false;
            }
        }
        1 => {
            if tick % 3 == 1 {
                plan.ingest = 2;
            }
            if tick.is_multiple_of(4) {
                plan.adapt = false;
            }
        }
        _ => {
            if tick % 6 == 5 {
                plan.ingest = 0;
            }
            if tick % 5 == 2 {
                plan.score = false;
            }
        }
    }
    plan
}

/// The dataset every feed draws from.
fn dataset() -> SyntheticUcfCrime {
    SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
            .with_seed(77),
    )
}

/// Every tick's frames (flat, in stream order) for the given plans, from one
/// feed per stream whose anomalies shift from Stealing to Robbery at
/// `SHIFT_AT`.
fn feed(plans: &[Vec<StreamPlan>]) -> Vec<Vec<Frame>> {
    let ds = dataset();
    let mut feeds: Vec<AdaptationStream<'_>> = (0..STREAMS)
        .map(|s| AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 500 + s as u64))
        .collect();
    let mut frames = Vec::with_capacity(plans.len());
    for (tick, tick_plans) in plans.iter().enumerate() {
        if tick == SHIFT_AT {
            feeds.iter_mut().for_each(|f| f.shift_to(AnomalyClass::Robbery));
        }
        let mut tick_frames = Vec::new();
        for (feed, p) in feeds.iter_mut().zip(tick_plans) {
            tick_frames.extend((0..p.ingest).map(|_| feed.next_frame().0));
        }
        frames.push(tick_frames);
    }
    frames
}

/// The mixed plans of [`plan`] for every tick, and their frames.
fn schedule() -> (Vec<Vec<Frame>>, Vec<Vec<StreamPlan>>) {
    let plans: Vec<Vec<StreamPlan>> =
        (0..TICKS).map(|tick| (0..STREAMS).map(|s| plan(tick, s)).collect()).collect();
    (feed(&plans), plans)
}

/// Per-stream score bits per tick (`None` = not scored).
type Scores = Vec<Vec<Option<u32>>>;

struct Outcome {
    scores: Scores,
    tables: Vec<Vec<u32>>,
    token_updates: usize,
    replacements: usize,
}

fn table_bits(session: &Session) -> Vec<u32> {
    session.table.to_dense_vec().iter().map(|v| v.to_bits()).collect()
}

/// The uncached oracle: every stream alone, each scored window recomputed
/// from its frames through `Engine::score_windows_batch_refs`. With
/// `restore`, every stream is restored at `RESTORE_AT` to its checkpoint
/// from `CHECKPOINT_AT`.
fn oracle(
    engine: &Engine,
    frames: &[Vec<Frame>],
    plans: &[Vec<StreamPlan>],
    restore: bool,
) -> Outcome {
    let mut sessions: Vec<Session> =
        (0..STREAMS).map(|s| engine.new_session(frame_seed(s))).collect();
    let mut adapters: Vec<ContinuousAdapter> = sessions
        .iter_mut()
        .enumerate()
        .map(|(s, session)| ContinuousAdapter::attach(engine, session, adapt_cfg(s)))
        .collect();
    let mut checkpoints: Vec<SessionCheckpoint> = Vec::new();
    let mut scores: Scores = vec![Vec::new(); STREAMS];
    let (mut ws, mut out) = (Workspace::new(), Vec::new());
    for (tick, (tick_frames, tick_plans)) in frames.iter().zip(plans).enumerate() {
        if restore && tick == CHECKPOINT_AT {
            checkpoints = (0..STREAMS)
                .map(|s| checkpoint_session(engine, &sessions[s], &adapters[s]))
                .collect();
        }
        if restore && tick == RESTORE_AT {
            for s in 0..STREAMS {
                adapters[s] =
                    restore_session(engine, &mut sessions[s], adapt_cfg(s), &checkpoints[s])
                        .expect("checkpoint restores");
            }
        }
        let mut next = tick_frames.iter();
        for s in 0..STREAMS {
            let (session, adapter, plan) = (&mut sessions[s], &mut adapters[s], tick_plans[s]);
            for frame in next.by_ref().take(plan.ingest) {
                if frame.validate().is_ok() {
                    adapter.ingest_frame(engine, session, frame);
                }
            }
            if !(plan.score && adapter.has_window()) {
                scores[s].push(None);
                continue;
            }
            let mut window = Vec::new();
            adapter.fill_window_refs(engine, &mut window);
            engine.score_windows_batch_refs(&[(&*session, window.as_slice())], &mut ws, &mut out);
            let score = out[0];
            if plan.adapt {
                adapter.complete_frame(engine, session, score);
            } else {
                adapter.complete_frame_skip_adapt(score);
            }
            scores[s].push(Some(score.to_bits()));
        }
    }
    Outcome {
        scores,
        tables: sessions.iter().map(table_bits).collect(),
        token_updates: adapters.iter().map(ContinuousAdapter::token_updates).sum(),
        replacements: adapters.iter().map(ContinuousAdapter::replacements).sum(),
    }
}

fn bits(scores: Vec<Option<f32>>) -> Vec<Option<u32>> {
    scores.into_iter().map(|v| v.map(f32::to_bits)).collect()
}

/// Transposes per-tick score rows into per-stream sequences.
fn per_stream(ticks: Vec<Vec<Option<u32>>>) -> Scores {
    (0..STREAMS).map(|s| ticks.iter().map(|row| row[s]).collect()).collect()
}

/// The single-threaded runtime (two streams per dispatch), restoring every
/// stream at `RESTORE_AT` through `restore_stream_state`.
fn runtime(engine: Engine, frames: &[Vec<Frame>], plans: &[Vec<StreamPlan>]) -> Outcome {
    let mut rt = MultiStreamRuntime::new(engine, RuntimeConfig { max_batch: 2 });
    for s in 0..STREAMS {
        rt.add_stream(IdleSource, frame_seed(s), adapt_cfg(s));
    }
    let mut checkpoints: Vec<SessionCheckpoint> = Vec::new();
    let mut ticks = Vec::with_capacity(TICKS);
    for (tick, (tick_frames, tick_plans)) in frames.iter().zip(plans).enumerate() {
        if tick == CHECKPOINT_AT {
            checkpoints = (0..STREAMS).map(|s| rt.checkpoint_stream(s)).collect();
        }
        if tick == RESTORE_AT {
            for (s, cp) in checkpoints.iter().enumerate() {
                rt.restore_stream_state(s, cp).expect("checkpoint restores");
            }
        }
        ticks.push(bits(rt.tick_frames(tick_frames, tick_plans)));
    }
    let totals: Vec<(usize, usize)> = (0..STREAMS).map(|s| rt.stream_event_totals(s)).collect();
    Outcome {
        scores: per_stream(ticks),
        tables: (0..STREAMS).map(|s| table_bits(rt.session(s))).collect(),
        token_updates: totals.iter().map(|t| t.0).sum(),
        replacements: totals.iter().map(|t| t.1).sum(),
    }
}

/// `ShardedRuntime` at `shards` workers, shard 0's worker crashing mid-run
/// and recovering from its latest checkpoint.
fn sharded(
    spec: EngineSpec,
    shards: usize,
    frames: &[Vec<Frame>],
    plans: &[Vec<StreamPlan>],
) -> Outcome {
    let faults = FaultPlan {
        scripted: vec![ScriptedFault::WorkerCrash { shard: 0, tick: 37 }],
        ..FaultPlan::default()
    };
    let config = ShardedConfig {
        shards,
        max_batch: 2,
        queue_depth: 2,
        checkpoint_interval: 8,
        ..ShardedConfig::default()
    };
    let mut rt: ShardedRuntime<IdleSource> = ShardedRuntime::with_faults(spec, config, faults);
    for s in 0..STREAMS {
        rt.add_stream(IdleSource, frame_seed(s), adapt_cfg(s));
    }
    let ticks: Vec<Vec<Option<u32>>> = frames
        .iter()
        .zip(plans)
        .map(|(tick_frames, tick_plans)| bits(rt.tick_planned(tick_frames, tick_plans)))
        .collect();
    assert!(rt.recovery_stats().recoveries >= 1, "shards {shards}: the worker never crashed");
    let snapshots = rt.stream_snapshots();
    Outcome {
        scores: per_stream(ticks),
        tables: snapshots
            .iter()
            .map(|snap| snap.table.iter().map(|v| v.to_bits()).collect())
            .collect(),
        token_updates: snapshots.iter().map(|snap| snap.token_updates).sum(),
        replacements: snapshots.iter().map(|snap| snap.replacements).sum(),
    }
}

fn assert_same(what: &str, subject: &Outcome, oracle: &Outcome) {
    for s in 0..STREAMS {
        for (tick, (a, b)) in subject.scores[s].iter().zip(&oracle.scores[s]).enumerate() {
            assert_eq!(a, b, "{what}: stream {s} diverged from the uncached oracle at tick {tick}");
        }
        assert_eq!(subject.tables[s], oracle.tables[s], "{what}: stream {s}'s table diverged");
    }
    assert_eq!(subject.token_updates, oracle.token_updates, "{what}: token updates");
    assert_eq!(subject.replacements, oracle.replacements, "{what}: replacements");
}

#[test]
fn incremental_scoring_matches_uncached_oracle_bitwise() {
    let _guard = lock_backend();
    let (frames, plans) = schedule();
    assert!(plans.iter().flatten().any(|p| p.ingest == 2), "no two-frame ingest");
    assert!(plans.iter().flatten().any(|p| p.ingest == 1 && !p.score), "no unscored ingest");
    for backend in [Backend::Scalar, Backend::Simd] {
        for precision in [Precision::F32, Precision::Int8] {
            let what = format!("{backend:?}/{precision:?}");
            let cfg = system_cfg(backend, precision);
            let engine = Engine::build(&[AnomalyClass::Stealing], &cfg);
            let restored = oracle(&engine, &frames, &plans, true);
            let straight = oracle(&engine, &frames, &plans, false);
            assert!(straight.token_updates >= 1, "{what}: no token update — the check is vacuous");
            assert!(straight.replacements >= 1, "{what}: no node replacement");
            assert!(restored.token_updates >= 1 && restored.replacements >= 1, "{what}");
            // The restore rewinds the streams, so it changes what follows.
            assert_ne!(restored.scores, straight.scores, "{what}: the restore changed nothing");
            // The first scored window of each stream is a padded warm-up one.
            assert!(restored.scores.iter().all(|s| s[0].is_some()), "{what}: no warm-up score");

            let single = runtime(Engine::build(&[AnomalyClass::Stealing], &cfg), &frames, &plans);
            assert_same(&format!("{what} runtime"), &single, &restored);
            for shards in [1, 2] {
                let spec = EngineSpec::new(&[AnomalyClass::Stealing], cfg.clone());
                let outcome = sharded(spec, shards, &frames, &plans);
                assert_same(&format!("{what} shards {shards}"), &outcome, &straight);
            }
        }
    }
}

/// `observe` ≡ ingest + `Engine::score_window_refs` + complete, through
/// adaptation and through writes that bypass the adapter: token rows
/// rewritten, a mission embedding edited, a layout rebuilt.
#[test]
fn observe_matches_score_window_refs_across_outside_writes() {
    let _guard = lock_backend();
    let (frames, _) = schedule();
    let frames: Vec<&Frame> = frames.iter().flatten().collect();
    for backend in [Backend::Scalar, Backend::Simd] {
        let engine = Engine::build(&[AnomalyClass::Stealing], &system_cfg(backend, Precision::F32));
        let mut cached = engine.new_session(9);
        let mut uncached = engine.new_session(9);
        let mut a = ContinuousAdapter::attach(&engine, &mut cached, adapt_cfg(0));
        let mut b = ContinuousAdapter::attach(&engine, &mut uncached, adapt_cfg(0));
        for (i, frame) in frames.iter().take(96).enumerate() {
            for session in [&mut cached, &mut uncached] {
                match i {
                    20 => {
                        let rows = session.referenced_rows();
                        let leaf = session.table.leaf_rows(rows[..4].to_vec());
                        leaf.values().update_data(|v| v.iter_mut().for_each(|x| *x += 0.25));
                        session.table.write_rows(&leaf);
                    }
                    30 => session.kgs[0].mission_embedding[0] += 0.5,
                    40 => session.rebuild_layout(0),
                    _ => {}
                }
            }
            let got = a.observe(&engine, &mut cached, frame);
            b.ingest_frame(&engine, &mut uncached, frame);
            let mut window = Vec::new();
            b.fill_window_refs(&engine, &mut window);
            let want = engine.score_window_refs(&uncached, &window);
            b.complete_frame(&engine, &mut uncached, want);
            assert_eq!(got.to_bits(), want.to_bits(), "{backend:?}: observe diverged at frame {i}");
        }
        assert!(a.token_updates() >= 1, "{backend:?}: no token update");
        assert_eq!(table_bits(&cached), table_bits(&uncached), "{backend:?}: tables diverged");
    }
}

/// A warm `static` tick runs exactly one frame per scored stream through the
/// GNN stage. Once a stream's session changes (a token update or a node
/// replacement, applied after the tick's scoring), its next tick recomputes
/// its window's rows: at most `T`, and more than one.
#[test]
fn warm_ticks_run_one_gnn_frame_per_stream() {
    let _guard = lock_backend();
    for adapt in [false, true] {
        let plans = vec![vec![StreamPlan { ingest: 1, score: true, adapt }; STREAMS]; TICKS];
        let frames = feed(&plans);
        let engine =
            Engine::build(&[AnomalyClass::Stealing], &system_cfg(Backend::Simd, Precision::F32));
        let t = engine.config().window as u64;
        let mut rt = MultiStreamRuntime::new(engine, RuntimeConfig::default());
        for s in 0..STREAMS {
            rt.add_stream(IdleSource, frame_seed(s), adapt_cfg(s));
        }
        let stamp = |rt: &MultiStreamRuntime<IdleSource>, s| rt.session(s).state_stamp();
        let mut last_stamps: Vec<u64> = (0..STREAMS).map(|s| stamp(&rt, s)).collect();
        let mut recomputed = 0;
        for (tick, (tick_frames, tick_plans)) in frames.iter().zip(&plans).enumerate() {
            let stamps: Vec<u64> = (0..STREAMS).map(|s| stamp(&rt, s)).collect();
            let before: Vec<u64> = (0..STREAMS).map(|s| rt.stream_gnn_frames(s)).collect();
            rt.tick_frames(tick_frames, tick_plans);
            for s in 0..STREAMS {
                let ran = rt.stream_gnn_frames(s) - before[s];
                if tick == 0 || stamps[s] == last_stamps[s] {
                    assert_eq!(ran, 1, "stream {s} tick {tick}: an unchanged session ran {ran}");
                } else {
                    assert!((2..=t).contains(&ran), "stream {s} tick {tick}: ran {ran} rows");
                    recomputed += 1;
                }
            }
            last_stamps = stamps;
        }
        let updates: usize = (0..STREAMS).map(|s| rt.stream_event_totals(s).0).sum();
        if adapt {
            assert!(updates >= 1 && recomputed >= 1, "no session change dropped the rows");
        } else {
            assert_eq!((updates, recomputed), (0, 0), "a static run changed a session");
        }
    }
}
