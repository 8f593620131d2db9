//! # akg-runtime
//!
//! Multi-stream batched serving for the deployed anomaly detector: one
//! shared, immutable [`Engine`] scores `N` independent frame streams, each
//! with its own isolated [`Session`] and continuous-adaptation loop.
//!
//! The paper's deployment stage (Fig. 2 C) is continuous scoring of *live*
//! streams on an edge device; a real installation has many cameras per
//! device. Each tick this runtime takes one frame per stream — pulled
//! round-robin from the streams' [`FrameSource`]s, or handed over by a caller
//! that already holds them ([`MultiStreamRuntime::tick_frames`]) — forms
//! cross-stream batches of score windows (up to
//! [`RuntimeConfig::max_batch`]), dispatches them through the batched
//! forward — one matmul per GNN layer for the whole batch instead of one per
//! window, over only the frames no earlier tick has run through the GNNs
//! (each adapter keeps its newest frames' GNN rows) — and routes each score
//! back into its stream's adaptation loop. That tick body is the one serving
//! loop: shard workers and the load harness call it directly with the frames
//! they were given.
//!
//! ## Isolation model (session-local deltas)
//!
//! Per-stream KG adaptation must not leak across streams. Of the two
//! admissible designs — (a) session-local token-table deltas, (b) a
//! serialized shared-write step — this runtime implements **(a)**, made
//! literal since the copy-on-write refactor: every session holds a sparse
//! overlay of adapted rows over the engine's immutable trained table and
//! shares the engine's tokenized KGs until its first structural edit. A
//! stream's pseudo-anomaly updates and prune/create restructurings
//! materialize and touch only its own rows/copies; the engine's artifacts
//! are never written after build. There is no shared *mutable* state between
//! streams at all, so scheduling order cannot change results, and batched
//! serving is **bit-identical** to running every stream alone through
//! [`ContinuousAdapter::observe`](akg_core::adapt::ContinuousAdapter::observe)
//! (`tests/equivalence.rs` proves this at batch
//! sizes 1, 4, and 16; `tests/checkpoint_equivalence.rs` in `akg-core`
//! proves checkpoint → restore → continue ≡ uninterrupted). For serving more *registered* sessions than fit in
//! RAM, the [`tier`] module bounds residency with LRU eviction to a disk
//! spool.
//!
//! ## Quick start
//!
//! ```
//! use akg_core::adapt::AdaptConfig;
//! use akg_core::engine::Engine;
//! use akg_core::pipeline::SystemConfig;
//! use akg_kg::AnomalyClass;
//! use akg_runtime::{FnSource, MultiStreamRuntime, RuntimeConfig};
//!
//! let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
//! let mut runtime = MultiStreamRuntime::new(engine, RuntimeConfig::default());
//! // Two synthetic one-frame-per-tick sources:
//! let frame = akg_data::Frame { concepts: vec![("walking".into(), 1.0)], label: None };
//! for i in 0..2 {
//!     let f = frame.clone();
//!     runtime.add_stream(FnSource(move || (f.clone(), false)), i, AdaptConfig::default());
//! }
//! let scores = runtime.tick();
//! assert_eq!(scores.len(), 2);
//! assert!(scores.iter().all(|s| s.is_some_and(|p| (0.0..=1.0).contains(&p))));
//! ```
//!
//! ## Scaling out: the sharded runtime
//!
//! [`MultiStreamRuntime`] is single-core by design (tensors are `Rc`-based).
//! [`ShardedRuntime`] (the [`shard`] module) partitions the streams across N
//! worker threads — each running its own `MultiStreamRuntime` over its
//! shard — wired by bounded `std::sync::mpsc` channels, with a test-enforced contract
//! that sharding never changes any stream's results bit-for-bit.

#![warn(missing_docs)]

pub mod checkpoint;
pub mod fault;
pub mod load;
pub mod shard;
pub mod slo;
pub mod tier;

/// One stream's recovery record is its session checkpoint (the name the
/// runtime's callers use for it).
pub use akg_core::persist::SessionCheckpoint as StreamCheckpoint;
pub use checkpoint::{RecoveryStats, ShardCheckpoint};
pub use fault::{corrupt_frame, ChaosConfig, CorruptionKind, CrashStyle, FaultPlan, ScriptedFault};
pub use load::{ArrivalPattern, LoadConfig, LoadGenerator, LoadedRuntime};
pub use shard::{
    EngineSpec, OwnedShardedRuntime, ShardSnapshot, ShardedConfig, ShardedRuntime, StreamSnapshot,
};
pub use slo::{
    DegradeLevel, DegradePolicy, LatencyHistogram, LoadCounters, StreamLoadStats, TickDecision,
};
pub use tier::{SessionTier, TierConfig, TierCounters};

use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
use akg_core::engine::{Engine, Session};
use akg_core::persist::{checkpoint_session, restore_session, SessionCheckpoint};
use akg_data::{AdaptationStream, Frame};
use akg_tensor::{Workspace, WorkspaceStats};
use serde::Serialize;

/// A source of deployment frames: anything that can hand the runtime one
/// `(frame, is_anomalous)` pair per tick. The label rides along for
/// evaluation harnesses; the serving path drops it right after the pull.
/// Callers that already hold their frames skip sources altogether and hand
/// them to [`MultiStreamRuntime::tick_frames`] (their streams are registered
/// with [`IdleSource`]).
pub trait FrameSource {
    /// Produces the stream's next frame.
    fn next_frame(&mut self) -> (Frame, bool);
}

impl FrameSource for AdaptationStream<'_> {
    fn next_frame(&mut self) -> (Frame, bool) {
        AdaptationStream::next_frame(self)
    }
}

/// Adapts a closure into a [`FrameSource`] (handy for tests and synthetic
/// feeds).
#[derive(Debug)]
pub struct FnSource<F>(pub F);

impl<F: FnMut() -> (Frame, bool)> FrameSource for FnSource<F> {
    fn next_frame(&mut self) -> (Frame, bool) {
        (self.0)()
    }
}

impl FrameSource for Box<dyn FrameSource> {
    fn next_frame(&mut self) -> (Frame, bool) {
        self.as_mut().next_frame()
    }
}

/// A [`FrameSource`] that must never be pulled: the placeholder source of a
/// runtime that is handed every frame, through
/// [`MultiStreamRuntime::tick_frames`] or [`ShardedRuntime::tick_planned`]
/// (shard workers and the load harness's nodes).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdleSource;

impl FrameSource for IdleSource {
    fn next_frame(&mut self) -> (Frame, bool) {
        unreachable!("IdleSource pulled: this runtime is handed its frames by tick_frames")
    }
}

/// Runtime scheduling knobs.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Largest cross-stream batch one dispatch may carry; a tick over more
    /// streams splits into ⌈N / max_batch⌉ dispatches.
    pub max_batch: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig { max_batch: 16 }
    }
}

/// Monotonic throughput counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ServeCounters {
    /// Frames pulled, scored, and routed back (across all streams).
    pub frames: usize,
    /// Scheduler rounds completed.
    pub ticks: usize,
    /// Scoring dispatches issued (one per cross-stream batch).
    pub dispatches: usize,
    /// Largest batch actually dispatched.
    pub max_batch_seen: usize,
    /// Token-update adaptation events across all streams.
    pub token_updates: usize,
    /// Structural node replacements across all streams.
    pub node_replacements: usize,
    /// Frames rejected at ingest because they failed
    /// [`akg_data::Frame::validate`] (non-finite or out-of-range weights) —
    /// counted instead of ingested, so corrupt input can never poison a
    /// session's adapted table.
    pub rejected: usize,
}

/// Identifier of a stream registered with [`MultiStreamRuntime::add_stream`]
/// (its index, stable for the runtime's lifetime).
pub type StreamId = usize;

/// Per-stream directive for one [`MultiStreamRuntime::tick_frames`] (or
/// [`MultiStreamRuntime::tick_with_plan`]) round — the execution mechanism
/// under the latency-SLO load harness's
/// degrade ladder ([`load`]): a pressured tick may ingest several queued
/// frames for a stream at once (batch-coalescing), score only the streams
/// that actually received work, and suppress the adaptation check while
/// keeping drift statistics live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamPlan {
    /// Frames the stream takes this tick (0 = the stream is idle this
    /// round): its run in [`MultiStreamRuntime::tick_frames`]'s flat list,
    /// or pulls from its source under
    /// [`MultiStreamRuntime::tick_with_plan`]. Each frame is validated, then
    /// ingested into the rolling window; a frame that fails
    /// [`Frame::validate`] is counted as rejected instead.
    pub ingest: usize,
    /// Whether to score the stream's rolling window after ingest. A stream
    /// that has never ingested a valid frame has no window yet and is
    /// skipped (`None`) even when this is set.
    pub score: bool,
    /// Whether the score feeds the full adaptation check
    /// ([`ContinuousAdapter::complete_frame`]) or only the drift tracker
    /// ([`ContinuousAdapter::complete_frame_skip_adapt`] — the "skip
    /// adaptation" degrade rung).
    pub adapt: bool,
}

impl Default for StreamPlan {
    /// The unloaded steady-state plan: one frame in, one score out, full
    /// adaptation — exactly what [`MultiStreamRuntime::tick`] executes for
    /// every stream.
    fn default() -> Self {
        StreamPlan { ingest: 1, score: true, adapt: true }
    }
}

/// A runtime over owned dataset-backed streams
/// ([`akg_data::OwnedAdaptationStream`]) — the common deployment shape: the
/// runtime owns its feeds outright.
pub type OwnedStreamRuntime = MultiStreamRuntime<akg_data::OwnedAdaptationStream>;

struct StreamSlot<S> {
    source: S,
    session: Session,
    adapter: ContinuousAdapter,
}

/// The multi-stream serving loop: a shared [`Engine`], one isolated
/// session and adaptation loop per stream, and a round-robin batching
/// scheduler.
pub struct MultiStreamRuntime<S: FrameSource> {
    engine: Engine,
    slots: Vec<StreamSlot<S>>,
    config: RuntimeConfig,
    counters: ServeCounters,
    /// One inference workspace per runtime, leased across every batch of
    /// every tick: batched scoring runs on the inference data plane with a
    /// fixed steady-state memory high-water mark and no per-frame
    /// allocation.
    workspace: Workspace,
    /// Reused per-dispatch score output (cleared per batch).
    score_scratch: Vec<f32>,
    /// Reused per-tick buffer of the frames
    /// [`MultiStreamRuntime::tick_with_plan`] pulls (cleared per tick).
    pulled: Vec<Frame>,
}

impl<S: FrameSource> MultiStreamRuntime<S> {
    /// Creates an empty runtime around a built (and typically trained)
    /// engine.
    ///
    /// # Panics
    ///
    /// Panics if `config.max_batch == 0`.
    pub fn new(engine: Engine, config: RuntimeConfig) -> Self {
        assert!(config.max_batch > 0, "RuntimeConfig::max_batch must be positive");
        MultiStreamRuntime {
            engine,
            slots: Vec::new(),
            config,
            counters: ServeCounters::default(),
            workspace: Workspace::new(),
            score_scratch: Vec::new(),
            pulled: Vec::new(),
        }
    }

    /// Registers a stream: forks a fresh session off the engine (seeded with
    /// `frame_seed`, so the stream's embedding noise is reproducible) and
    /// attaches its private continuous-adaptation loop. Returns the stream's
    /// id.
    pub fn add_stream(&mut self, source: S, frame_seed: u64, adapt: AdaptConfig) -> StreamId {
        let mut session = self.engine.new_session(frame_seed);
        let adapter = ContinuousAdapter::attach(&self.engine, &mut session, adapt);
        self.slots.push(StreamSlot { source, session, adapter });
        self.slots.len() - 1
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.slots.len()
    }

    /// The shared engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// A stream's session (its private adaptive state).
    pub fn session(&self, id: StreamId) -> &Session {
        &self.slots[id].session
    }

    /// Mutable access to a stream's frame source (e.g. to trigger a trend
    /// shift mid-run).
    pub fn source_mut(&mut self, id: StreamId) -> &mut S {
        &mut self.slots[id].source
    }

    /// Throughput counters since construction.
    pub fn counters(&self) -> ServeCounters {
        self.counters
    }

    /// Lifetime `(token_updates, node_replacements)` totals for one stream,
    /// including counts that predate a checkpoint restore.
    pub fn stream_event_totals(&self, id: StreamId) -> (usize, usize) {
        let adapter = &self.slots[id].adapter;
        (adapter.token_updates(), adapter.replacements())
    }

    /// Frames stream `id` has run through the GNN stage since it was
    /// registered or last restored: a probe for tests of incremental
    /// scoring, kept out of [`ServeCounters`] because recovery compares
    /// those bitwise and a recovered stream recomputes its rows.
    #[doc(hidden)]
    pub fn stream_gnn_frames(&self, id: StreamId) -> u64 {
        self.slots[id].adapter.gnn_frames()
    }

    /// A point-in-time view of one stream's adaptive state.
    pub fn stream_snapshot(&self, id: StreamId) -> StreamSnapshot {
        let slot = &self.slots[id];
        StreamSnapshot {
            table: slot.session.table.to_dense_vec(),
            replacements: slot.adapter.replacements(),
            token_updates: slot.adapter.token_updates(),
            workspace: slot.session.workspace_stats(),
        }
    }

    /// Captures one stream's recovery record: session state and adapter
    /// state, lifetime event counts included.
    pub fn checkpoint_stream(&self, id: StreamId) -> SessionCheckpoint {
        let slot = &self.slots[id];
        checkpoint_session(&self.engine, &slot.session, &slot.adapter)
    }

    /// Restores a stream's session and adapter from a checkpoint captured
    /// by [`MultiStreamRuntime::checkpoint_stream`] (on this runtime or a
    /// bit-identical replica), with the [`AdaptConfig`] the stream was
    /// registered with. The stream must already be registered — this
    /// overwrites its adaptive state, not its source.
    ///
    /// # Errors
    ///
    /// Returns a message if the checkpoint fails validation against the
    /// stream's session; the session is left untouched in that case.
    pub fn restore_stream_state(
        &mut self,
        id: StreamId,
        cp: &SessionCheckpoint,
    ) -> Result<(), String> {
        let slot = &mut self.slots[id];
        let cfg = *slot.adapter.config();
        slot.adapter = restore_session(&self.engine, &mut slot.session, cfg, cp)?;
        Ok(())
    }

    /// Overwrites the runtime's aggregate counters — the recovery path sets
    /// them back to the checkpoint boundary before replay re-increments
    /// them, so a recovered worker's counters match the undisturbed run.
    pub(crate) fn restore_counters(&mut self, counters: ServeCounters) {
        self.counters = counters;
    }

    /// Allocation counters of the runtime's shared inference workspace.
    /// The high-water mark ([`WorkspaceStats::high_water_bytes`])
    /// stabilizes once every serving shape has been seen — the fixed-memory
    /// property the soak test asserts.
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.stats()
    }

    /// One scheduler round: pulls one frame from every stream (round-robin),
    /// embeds each through its own session, scores all windows — batched
    /// across streams up to `max_batch` — and routes every score back into
    /// its stream's adaptation loop. Returns the per-stream scores, indexed
    /// by [`StreamId`]: `None` for a stream that has no window yet, because
    /// every frame it has sent so far failed [`Frame::validate`] (a stream
    /// whose rejected frame follows a served one rescores its last window).
    ///
    /// Adaptation runs strictly per stream against session-local state (see
    /// the crate docs' isolation model), so the batch composition never
    /// influences any stream's results.
    ///
    /// # Panics
    ///
    /// Panics if no streams are registered.
    pub fn tick(&mut self) -> Vec<Option<f32>> {
        let plans = vec![StreamPlan::default(); self.slots.len()];
        self.tick_with_plan(&plans)
    }

    /// The plan-driven generalization of [`MultiStreamRuntime::tick`]: one
    /// scheduler round where every stream follows its own [`StreamPlan`] —
    /// ingest 0..k frames, optionally score, optionally suppress the
    /// adaptation check. [`MultiStreamRuntime::tick`] is exactly this with
    /// [`StreamPlan::default`] for every stream.
    ///
    /// Pulls `plans[i].ingest` frames from each stream's source, in stream-id
    /// order, into a buffer the runtime reuses every tick, then serves them
    /// through [`MultiStreamRuntime::tick_frames`]; the results are that
    /// call's.
    ///
    /// # Panics
    ///
    /// Panics if no streams are registered or if `plans.len()` differs from
    /// the stream count.
    pub fn tick_with_plan(&mut self, plans: &[StreamPlan]) -> Vec<Option<f32>> {
        let mut frames = std::mem::take(&mut self.pulled);
        for (slot, plan) in self.slots.iter_mut().zip(plans) {
            frames.extend((0..plan.ingest).map(|_| slot.source.next_frame().0));
        }
        let scores = self.tick_frames(&frames, plans);
        frames.clear();
        self.pulled = frames;
        scores
    }

    /// One scheduler round over frames the caller hands in: `frames` is one
    /// flat list in stream-id order, `plans[i].ingest` frames for stream
    /// `i`, and `plans[i]` is that stream's directive for the round. The
    /// streams' sources are not pulled. This is the tick body every serving
    /// path runs: [`MultiStreamRuntime::tick_with_plan`] after its pull, each
    /// shard worker on each tick message, and the load harness's single node
    /// ([`load::LoadedRuntime`]), whose plans are a deterministic pure
    /// function of queue state (see [`slo::DegradePolicy`]).
    ///
    /// Each frame is validated, then ingested; a frame that fails
    /// [`Frame::validate`] is counted in [`ServeCounters::rejected`] and
    /// never embedded, so the stream is served as if its plan had ingested
    /// one frame fewer.
    ///
    /// Returns per-stream scores indexed by [`StreamId`]; `None` marks a
    /// stream whose plan did not score this round — or one that has never
    /// ingested a valid frame (there is no window to score yet).
    ///
    /// # Panics
    ///
    /// Panics if no streams are registered, if `plans.len()` differs from
    /// the stream count, or if `frames.len()` differs from the plans' total
    /// `ingest`.
    pub fn tick_frames(&mut self, frames: &[Frame], plans: &[StreamPlan]) -> Vec<Option<f32>> {
        assert!(!self.slots.is_empty(), "tick: no streams registered");
        assert_eq!(plans.len(), self.slots.len(), "tick: one plan per stream");
        assert_eq!(
            frames.len(),
            plans.iter().map(|plan| plan.ingest).sum::<usize>(),
            "tick: the frames do not match the plans' ingest counts"
        );
        let n = self.slots.len();
        // Phase 1 — ingest: `plan.ingest` frames per stream, embedded
        // through the stream's own RNG into its rolling buffer. No windows
        // are materialized: scoring borrows the buffers in place (phase 2),
        // so the per-frame window clones of the pre-data-plane runtime are
        // gone and the tick's footprint is fixed.
        let mut ingested = 0usize;
        let mut rejected = 0usize;
        let mut frames = frames.iter();
        for (slot, plan) in self.slots.iter_mut().zip(plans) {
            for frame in frames.by_ref().take(plan.ingest) {
                // Ingest admission: a frame with a NaN/inf/out-of-range
                // weight is rejected and *counted* — never embedded, so it
                // cannot poison the session's adapted table. Every serving
                // loop runs this one check, so single-node and sharded
                // serving reject identically.
                if frame.validate().is_err() {
                    rejected += 1;
                    continue;
                }
                slot.adapter.ingest_frame(&self.engine, &mut slot.session, frame);
                ingested += 1;
            }
        }
        // Phase 2 — score the planned streams: cross-stream batches through
        // the inference data plane with the runtime's shared workspace,
        // incrementally — each adapter keeps its newest frames' GNN rows,
        // so one GNN-stage call runs only the chunk's missing rows (one per
        // stream when warm) and the temporal stage runs once over the
        // chunk's windows (see `ContinuousAdapter::score_windows`).
        // A stream whose frames have all been rejected has no window yet —
        // it is skipped (`None`), not scored against nothing.
        let active: Vec<StreamId> =
            (0..n).filter(|&i| plans[i].score && self.slots[i].adapter.has_window()).collect();
        let mut scores: Vec<Option<f32>> = vec![None; n];
        for chunk in active.chunks(self.config.max_batch) {
            let (first, last) = (chunk[0], chunk[chunk.len() - 1]);
            let mut wanted = chunk.iter().peekable();
            let mut streams: Vec<(&mut ContinuousAdapter, &Session)> =
                Vec::with_capacity(chunk.len());
            for (i, slot) in (first..=last).zip(&mut self.slots[first..=last]) {
                if wanted.next_if_eq(&&i).is_some() {
                    streams.push((&mut slot.adapter, &slot.session));
                }
            }
            ContinuousAdapter::score_windows(
                &self.engine,
                &mut streams,
                &mut self.workspace,
                &mut self.score_scratch,
            );
            for (j, &i) in chunk.iter().enumerate() {
                scores[i] = Some(self.score_scratch[j]);
            }
            self.counters.dispatches += 1;
            self.counters.max_batch_seen = self.counters.max_batch_seen.max(chunk.len());
        }
        // Phase 3 — complete: scores feed each scored stream's tracker; a
        // plan with `adapt` runs the full check (any triggered token update
        // / restructure touches only that stream's session), one without it
        // takes the degraded skip-adapt path. The counters advance by the
        // change in the adapter's lifetime counts across the call.
        for &i in &active {
            let score = scores[i].expect("active stream was scored");
            let slot = &mut self.slots[i];
            if plans[i].adapt {
                let (updates, replaces) =
                    (slot.adapter.token_updates(), slot.adapter.replacements());
                slot.adapter.complete_frame(&self.engine, &mut slot.session, score);
                self.counters.token_updates += slot.adapter.token_updates() - updates;
                self.counters.node_replacements += slot.adapter.replacements() - replaces;
            } else {
                slot.adapter.complete_frame_skip_adapt(score);
            }
        }
        self.counters.frames += ingested;
        self.counters.rejected += rejected;
        self.counters.ticks += 1;
        scores
    }

    /// Runs `ticks` scheduler rounds, returning the per-stream score
    /// sequences (`result[stream][tick]`; `None` as in
    /// [`MultiStreamRuntime::tick`]).
    pub fn run(&mut self, ticks: usize) -> Vec<Vec<Option<f32>>> {
        let mut out = vec![Vec::with_capacity(ticks); self.slots.len()];
        for _ in 0..ticks {
            for (stream, score) in self.tick().into_iter().enumerate() {
                out[stream].push(score);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use akg_core::pipeline::SystemConfig;
    use akg_kg::AnomalyClass;

    fn frame(salt: usize) -> Frame {
        let concepts = if salt.is_multiple_of(3) {
            vec![("walking".into(), 1.0)]
        } else {
            vec![("person".into(), 0.8), ("vehicle".into(), 0.4)]
        };
        Frame { concepts, label: None }
    }

    fn runtime(config: RuntimeConfig) -> MultiStreamRuntime<Box<dyn FrameSource>> {
        let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
        MultiStreamRuntime::new(engine, config)
    }

    #[test]
    fn counters_track_ticks_and_batches() {
        let mut rt = runtime(RuntimeConfig { max_batch: 2 });
        for i in 0..5usize {
            let mut k = i;
            rt.add_stream(
                Box::new(FnSource(move || {
                    k += 1;
                    (frame(k), false)
                })) as Box<dyn FrameSource>,
                i as u64,
                AdaptConfig::default(),
            );
        }
        let scores = rt.run(3);
        assert_eq!(scores.len(), 5);
        assert!(scores.iter().all(|s| s.len() == 3));
        let c = rt.counters();
        assert_eq!(c.frames, 15);
        assert_eq!(c.ticks, 3);
        // 5 streams at max_batch 2 -> 3 dispatches per tick
        assert_eq!(c.dispatches, 9);
        assert_eq!(c.max_batch_seen, 2);
    }

    /// Batched runtime ticks ≡ scoring every stream alone, one window at a
    /// time, through `Engine::score_window_refs` — bitwise.
    #[test]
    fn per_frame_mode_matches_batched_mode() {
        let source = |i: usize| {
            let mut k = 7 * i;
            move || {
                k += 1;
                frame(k)
            }
        };
        let mut rt = runtime(RuntimeConfig { max_batch: 4 });
        for i in 0..3usize {
            let mut next = source(i);
            rt.add_stream(
                Box::new(FnSource(move || (next(), false))) as Box<dyn FrameSource>,
                i as u64,
                AdaptConfig::default(),
            );
        }
        let batched = rt.run(4);

        let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
        let per_frame: Vec<Vec<Option<f32>>> = (0..3usize)
            .map(|i| {
                let mut next = source(i);
                let mut session = engine.new_session(i as u64);
                let mut adapter =
                    ContinuousAdapter::attach(&engine, &mut session, AdaptConfig::default());
                (0..4)
                    .map(|_| {
                        adapter.ingest_frame(&engine, &mut session, &next());
                        let mut window = Vec::new();
                        adapter.fill_window_refs(&engine, &mut window);
                        let score = engine.score_window_refs(&session, &window);
                        adapter.complete_frame(&engine, &mut session, score);
                        Some(score)
                    })
                    .collect()
            })
            .collect();
        let bits = |scores: &[Vec<Option<f32>>]| -> Vec<Vec<Option<u32>>> {
            scores.iter().map(|s| s.iter().map(|v| v.map(f32::to_bits)).collect()).collect()
        };
        assert_eq!(bits(&batched), bits(&per_frame), "batched and per-frame scores diverged");
    }

    /// A stream checkpointed on runtime A after a token update and restored
    /// into a freshly registered stream of runtime B (opened with another
    /// frame seed) continues exactly as A does: bit-identical scores and
    /// tables, and the same lifetime event totals.
    #[test]
    fn restored_stream_continues_with_lifetime_totals() {
        use akg_data::{DatasetConfig, OwnedAdaptationStream, SyntheticUcfCrime};
        use std::sync::Arc;

        const STREAMS: usize = 2;
        const SHIFT_AT: usize = 24;
        const CHECKPOINT_AT: usize = 40;
        const FRAMES: usize = 56;
        let ds = Arc::new(SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.015)
                .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
                .with_seed(77),
        ));
        let adapt = |s: usize| AdaptConfig {
            n_window: 16,
            interval: 8,
            min_k: 1,
            max_k: 4,
            seed: s as u64,
            ..AdaptConfig::default()
        };
        let new_runtime = |frame_seed: u64| {
            let cfg = SystemConfig { seed: 5, ..SystemConfig::default() };
            let engine = Engine::build(&[AnomalyClass::Stealing], &cfg);
            let mut rt: OwnedStreamRuntime =
                MultiStreamRuntime::new(engine, RuntimeConfig::default());
            for s in 0..STREAMS {
                let source = OwnedAdaptationStream::owned(
                    Arc::clone(&ds),
                    AnomalyClass::Stealing,
                    0.5,
                    1000 + s as u64,
                );
                rt.add_stream(source, frame_seed ^ s as u64, adapt(s));
            }
            rt
        };
        let step = |rt: &mut OwnedStreamRuntime, tick: usize| {
            if tick == SHIFT_AT {
                (0..STREAMS).for_each(|s| rt.source_mut(s).shift_to(AnomalyClass::Robbery));
            }
            rt.tick().iter().map(|v| v.map(f32::to_bits)).collect::<Vec<_>>()
        };

        let mut a = new_runtime(0xBEEF);
        for tick in 0..CHECKPOINT_AT {
            step(&mut a, tick);
        }
        assert!(
            (0..STREAMS).any(|s| a.stream_event_totals(s).0 > 0),
            "no token update before the checkpoint — the restore would carry nothing"
        );
        let checkpoints: Vec<SessionCheckpoint> =
            (0..STREAMS).map(|s| a.checkpoint_stream(s)).collect();

        let mut b = new_runtime(0xDEAD);
        for (s, cp) in checkpoints.iter().enumerate() {
            // B's sources serve the frames A's sources serve from here on.
            for tick in 0..CHECKPOINT_AT {
                if tick == SHIFT_AT {
                    b.source_mut(s).shift_to(AnomalyClass::Robbery);
                }
                let _ = b.source_mut(s).next_frame();
            }
            b.restore_stream_state(s, cp).expect("checkpoint restores");
            assert_eq!(b.stream_event_totals(s), a.stream_event_totals(s), "stream {s}");
        }
        for tick in CHECKPOINT_AT..FRAMES {
            assert_eq!(step(&mut a, tick), step(&mut b, tick), "scores diverged at tick {tick}");
        }
        for s in 0..STREAMS {
            assert_eq!(b.stream_event_totals(s), a.stream_event_totals(s), "stream {s}");
            assert_eq!(b.stream_snapshot(s).table, a.stream_snapshot(s).table, "stream {s}");
        }
    }

    #[test]
    #[should_panic(expected = "no streams registered")]
    fn tick_requires_streams() {
        let mut rt = runtime(RuntimeConfig::default());
        let _ = rt.tick();
    }
}
