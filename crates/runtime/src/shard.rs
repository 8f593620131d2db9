//! Sharded multi-core serving: N worker threads, each owning an isolated
//! shard of the deployment's streams, wired to an ingest front-end by
//! bounded [`sync_channel`]s.
//!
//! ## Topology
//!
//! ```text
//!             ┌────────────── ShardedRuntime (caller thread) ──────────────┐
//!             │  sources (FrameSource per stream)       counters, drain    │
//!             └──┬─────────────────┬─────────────────────▲────────▲────────┘
//!  frames, plans │                 │                     │ scores │
//!     (bounded   ▼                 ▼                     │ (bounded
//!    channel) ┌──────┐          ┌──────┐                 │  channel per shard)
//!             │shard0│          │shard1│  … one OS thread per shard,
//!             │worker│          │worker│    each a MultiStreamRuntime
//!             └──────┘          └──────┘    calling tick_frames: its own
//!                                           Engine replica, its streams'
//!                                           Sessions + adapters, one Workspace
//! ```
//!
//! The front-end owns every [`FrameSource`], pulls one frame per stream per
//! tick (or is handed the tick's frames by [`ShardedRuntime::tick_planned`])
//! and splits the flat list by shard; each shard's frames and plans cross to
//! it over a bounded channel (one message per shard per tick, so queue
//! traffic is O(shards), not O(frames)). The front-end does not validate
//! frames. Each worker passes its message straight to
//! [`MultiStreamRuntime::tick_frames`] over its subset of streams — a shard
//! *is* a `MultiStreamRuntime`, running the same tick body, validation
//! included — and sends the scores back over its result queue, where the
//! drain path reassembles the per-stream score vector and aggregates
//! [`ServeCounters`].
//!
//! ## Why each worker builds its own engine
//!
//! Tensors are `Rc`-based (not `Send`), so an [`Engine`] cannot be shared
//! across threads or even moved to one. Instead every worker *builds* its
//! own engine replica on its own thread from the same [`EngineSpec`];
//! [`Engine::build`] is fully deterministic given a config (every RNG is
//! seeded), so all replicas are bit-identical — unit-tested here. Sessions
//! and adapters are created worker-side too, seeded by the same
//! `(frame_seed, AdaptConfig)` the single-threaded runtime would use.
//!
//! ## The shard-equivalence contract
//!
//! Serving at **any** shard count is bit-identical per stream — scores,
//! adapted token tables, replacement counts — to single-shard (and to the
//! pre-sharding [`MultiStreamRuntime`], and to a standalone single-stream
//! path). The argument is structural:
//!
//! 1. shard engines are bit-identical replicas (deterministic build);
//! 2. streams are share-nothing: a session's adaptation touches only its
//!    own table fork and KG copies, so co-residence on a worker is
//!    unobservable;
//! 3. batch composition never changes results: serving scores through
//!    each adapter's incremental path
//!    ([`akg_core::adapt::ContinuousAdapter::score_windows`]), and
//!    `tests/incremental.rs` holds its two-stream dispatches bitwise equal
//!    to one window scored at a time, so how a shard's streams chunk into
//!    dispatches is unobservable;
//! 4. per-stream frame order is preserved end-to-end: assignment is stable
//!    (stream id → shard, fixed at [`ShardedRuntime::add_stream`]), and the
//!    channels are FIFO.
//!
//! `tests/equivalence.rs` enforces the contract at shard counts {1, 2, 4}
//! under both Scalar and SIMD backends across a mid-run trend shift;
//! `tests/proptest_shard.rs` fuzzes stream/shard counts and arrival
//! interleavings.
//!
//! ## Oversubscription (the shards × threads rule)
//!
//! Every kernel call resolves the process-wide thread-pool setting, so `S`
//! shard workers would otherwise *each* spawn the full-width inner row pool:
//! `S × threads` runnable threads on `threads` cores. Each worker therefore
//! caps its own kernels via [`akg_tensor::par::set_thread_cap`] at
//! `max(1, effective_threads() / shards)` (overridable through
//! [`ShardedConfig::inner_threads`]), keeping `shards × inner-threads` at or
//! below the machine width. The cap is thread-local: the training plane and
//! other threads are unaffected.
//!
//! ## Worker supervision and recovery
//!
//! A worker thread dying (panic or clean exit — e.g. an injected
//! [`crate::fault`] crash) used to panic the whole process. Now the
//! front-end is a supervisor: death surfaces as a channel disconnect
//! ([`RecvError`] / [`std::sync::mpsc::SendError`]), and the supervisor
//!
//! 1. joins the dead thread and respawns the worker (generation + 1) — the
//!    replica engine rebuilds deterministically from the same [`EngineSpec`];
//! 2. re-registers the shard's streams from their recorded
//!    `(frame_seed, AdaptConfig)` — the same path as
//!    [`ShardedRuntime::add_stream`];
//! 3. if a [`ShardCheckpoint`] has landed (the dead worker piggybacks one on
//!    every [`ShardedConfig::checkpoint_interval`]-th tick reply and the
//!    front-end keeps the newest), restores it over those streams;
//! 4. replays the buffered tick inputs sent since that checkpoint (or since
//!    genesis) and re-harvests their replies (replies the caller already
//!    consumed are absorbed and discarded; the rest are held for the normal
//!    drain).
//!
//! Because every stage of a tick is deterministic, the recovered worker is
//! **bit-identical** to one that never died — scores, adapted tables,
//! replacement counts, even the serve counters. `tests/recovery.rs` and
//! `tests/proptest_fault.rs` enforce this recovery-equivalence contract
//! (crash tick fuzzed, Scalar and SIMD, plus a 520-tick chaos soak);
//! [`ShardedRuntime::recovery_stats`] reports what recovery did. Stalled
//! workers are *not* faults: detection is disconnect-based, never
//! timeout-based, so a slow worker just applies backpressure and changes no
//! output bit.

use crate::checkpoint::{RecoveryStats, ShardCheckpoint};
use crate::fault::{corrupt_frame, CrashStyle, FaultPlan};
use crate::{
    FrameSource, IdleSource, MultiStreamRuntime, RuntimeConfig, ServeCounters, StreamId, StreamPlan,
};
use akg_core::adapt::AdaptConfig;
use akg_core::engine::Engine;
use akg_core::pipeline::SystemConfig;
use akg_data::Frame;
use akg_kg::AnomalyClass;
use akg_tensor::WorkspaceStats;
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver, RecvError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Hard cap on consecutive respawn attempts for one recovery — a backstop
/// against a pathological fault plan that kills every generation (the
/// generation-aware scheduling in [`crate::fault`] makes this unreachable
/// for scripted plans and vanishingly unlikely for sane chaos rates).
const MAX_RECOVERY_ATTEMPTS: usize = 64;

/// Everything a shard worker needs to rebuild the deployment's engine on its
/// own thread: the mission list and the full system configuration.
/// [`Engine::build`] is deterministic, so every worker's replica is
/// bit-identical to every other's (and to one built by the caller).
#[derive(Debug, Clone)]
pub struct EngineSpec {
    /// The deployed missions (one KG each).
    pub missions: Vec<AnomalyClass>,
    /// The system configuration (model dims, seeds, backend, parallelism).
    pub config: SystemConfig,
}

impl EngineSpec {
    /// Bundles missions and configuration into a spec.
    pub fn new(missions: &[AnomalyClass], config: SystemConfig) -> Self {
        EngineSpec { missions: missions.to_vec(), config }
    }

    /// Builds one engine replica from this spec (what every shard worker
    /// does at startup).
    pub fn build(&self) -> Engine {
        Engine::build(&self.missions, &self.config)
    }
}

/// Sharded-runtime knobs.
#[derive(Debug, Clone, Copy)]
pub struct ShardedConfig {
    /// Worker threads to partition the streams across (≥ 1).
    pub shards: usize,
    /// Largest cross-stream batch one dispatch may carry *within* a shard
    /// (the [`RuntimeConfig::max_batch`] of each worker's inner runtime).
    pub max_batch: usize,
    /// Bounded depth of each shard's frame queue, in ticks.
    /// [`ShardedRuntime::tick`] always drains synchronously;
    /// [`ShardedRuntime::run`] pipelines up to this many ticks ahead of the
    /// slowest shard before blocking (backpressure instead of unbounded
    /// backlog).
    pub queue_depth: usize,
    /// Per-worker cap on the inner kernel thread pool. `None` applies the
    /// oversubscription rule `max(1, effective_threads() / shards)` (see
    /// the module docs).
    pub inner_threads: Option<usize>,
    /// Workers piggyback a full [`ShardCheckpoint`] on every
    /// `checkpoint_interval`-th tick reply (≥ 1). This bounds the recovery
    /// replay window — and the front-end's replay buffer — to
    /// `checkpoint_interval + queue_depth` ticks once the first checkpoint
    /// lands (before that, recovery replays from genesis). Smaller values
    /// mean faster recovery but more capture overhead per tick.
    pub checkpoint_interval: usize,
}

impl Default for ShardedConfig {
    fn default() -> Self {
        ShardedConfig {
            shards: akg_tensor::par::effective_threads().max(1),
            max_batch: 16,
            queue_depth: 2,
            inner_threads: None,
            checkpoint_interval: 16,
        }
    }
}

impl ShardedConfig {
    /// A config with exactly `shards` workers and the other knobs at their
    /// defaults.
    pub fn with_shards(shards: usize) -> Self {
        ShardedConfig { shards, ..ShardedConfig::default() }
    }
}

/// Commands the front-end sends a shard worker (FIFO per shard).
enum ToShard {
    /// Register a stream (worker creates the session + adapter).
    AddStream {
        frame_seed: u64,
        adapt: AdaptConfig,
    },
    /// One tick's inputs, shared with the supervisor's replay buffer so
    /// shipping a tick copies no frame.
    Tick(Arc<TickRecord>),
    /// Overwrite the state of every stream of a freshly respawned worker
    /// from a checkpoint (sent after the streams are re-registered and
    /// before any `Tick`; the replayed ticks follow).
    Restore(Box<ShardCheckpoint>),
    Query,
}

/// Worker → drain messages.
enum FromShard {
    /// One processed tick: per-local-stream scores (`None` = the stream's
    /// plan did not score this round) plus the worker's cumulative
    /// counters, and — every `checkpoint_interval` ticks — a piggybacked
    /// recovery checkpoint (no drain barrier, no extra round-trip).
    Tick {
        scores: Vec<Option<f32>>,
        counters: ServeCounters,
        checkpoint: Option<Box<ShardCheckpoint>>,
    },
    Snapshot(ShardSnapshot),
}

/// A point-in-time view of one shard's state, taken on the worker thread.
#[derive(Debug, Clone)]
pub struct ShardSnapshot {
    /// The shard's serving-workspace counters (scoring scratch high-water).
    pub workspace: WorkspaceStats,
    /// Per-stream state, in the shard's local registration order.
    pub streams: Vec<StreamSnapshot>,
}

/// A point-in-time view of one stream's adaptive state.
#[derive(Debug, Clone)]
pub struct StreamSnapshot {
    /// The stream's adapted token table (full parameter data).
    pub table: Vec<f32>,
    /// Structural node replacements performed so far.
    pub replacements: usize,
    /// Token-update adaptation events so far.
    pub token_updates: usize,
    /// The session's inference-workspace counters.
    pub workspace: WorkspaceStats,
}

/// One tick's inputs for one shard, retained by the supervisor until a
/// checkpoint covering it arrives — the recovery replay unit.
struct TickRecord {
    /// 1-based per-shard tick sequence number (equals the worker's own tick
    /// counter, since every shard sees every round).
    seq: usize,
    /// The concatenation, stream by stream in local registration order, of
    /// exactly `plans[local].ingest` frames each — the shape
    /// [`MultiStreamRuntime::tick_frames`] takes.
    frames: Vec<Frame>,
    /// Per-stream plans. A default plan for every stream (one frame in,
    /// score, adapt) is the classic unloaded tick; the loaded front-end
    /// ships non-default plans.
    plans: Vec<StreamPlan>,
}

struct ShardHandle {
    /// `Some` until drop; dropping the sender is the shutdown signal.
    commands: Option<SyncSender<ToShard>>,
    results: Receiver<FromShard>,
    thread: Option<JoinHandle<()>>,
    /// Global [`StreamId`]s in this shard's local registration order.
    locals: Vec<StreamId>,
    /// Cumulative counters as of the last drained tick.
    counters: ServeCounters,
    /// `(frame_seed, adapt)` per local stream — what recovery re-registers
    /// every stream of a respawned worker from.
    stream_meta: Vec<(u64, AdaptConfig)>,
    /// The newest piggybacked checkpoint.
    checkpoint: Option<ShardCheckpoint>,
    /// Tick inputs sent since the newest checkpoint (plus any in flight) —
    /// what recovery replays. Pruned whenever a checkpoint lands.
    replay: VecDeque<Arc<TickRecord>>,
    /// Replies regenerated during recovery that the caller has not drained
    /// yet; `drain_tick` consumes these before touching the queue.
    pending: VecDeque<FromShard>,
    /// Ticks sent to this shard so far (1-based sequence of the last send).
    sent: usize,
    /// Ticks whose replies the caller has consumed.
    acked: usize,
    /// Worker generation: 0 at startup, +1 per respawn. Fault plans are
    /// generation-aware so a replayed tick does not re-kill every respawn.
    generation: usize,
}

impl ShardHandle {
    /// Absorbs a checkpoint that arrived with a tick reply: retains it for
    /// recovery and drops replay records it supersedes.
    fn absorb_checkpoint(&mut self, cp: ShardCheckpoint) {
        debug_assert!(
            self.checkpoint.as_ref().is_none_or(|prev| prev.tick < cp.tick),
            "checkpoints must arrive in increasing tick order"
        );
        while self.replay.front().is_some_and(|rec| rec.seq <= cp.tick) {
            self.replay.pop_front();
        }
        self.checkpoint = Some(cp);
    }
}

/// The sharded multi-core serving runtime: stream sources and shard workers
/// wired by bounded channels (see the module docs for the topology and
/// the shard-equivalence contract).
///
/// # Examples
///
/// ```
/// use akg_core::adapt::AdaptConfig;
/// use akg_core::pipeline::SystemConfig;
/// use akg_kg::AnomalyClass;
/// use akg_runtime::{EngineSpec, FnSource, ShardedConfig, ShardedRuntime};
///
/// let spec = EngineSpec::new(&[AnomalyClass::Stealing], SystemConfig::default());
/// let mut rt = ShardedRuntime::new(spec, ShardedConfig::with_shards(2));
/// let frame = akg_data::Frame { concepts: vec![("walking".into(), 1.0)], label: None };
/// for i in 0..4 {
///     let f = frame.clone();
///     rt.add_stream(FnSource(move || (f.clone(), false)), i, AdaptConfig::default());
/// }
/// let scores = rt.tick();
/// assert_eq!(scores.len(), 4);
/// assert!(scores.iter().all(|s| s.is_some_and(|p| (0.0..=1.0).contains(&p))));
/// ```
pub struct ShardedRuntime<S: FrameSource> {
    sources: Vec<S>,
    /// `assignment[stream] = (shard, local index within the shard)` — fixed
    /// at registration, never rebalanced (stability is part of the
    /// contract: a stream's frames always flow through one FIFO).
    assignment: Vec<(usize, usize)>,
    shards: Vec<ShardHandle>,
    ticks: usize,
    /// Ticks pushed but not yet drained ([`ShardedRuntime::run`] pipelining).
    in_flight: usize,
    config: ShardedConfig,
    /// Kept past construction so the supervisor can rebuild dead workers'
    /// engine replicas.
    spec: EngineSpec,
    /// The resolved per-worker kernel-thread cap (respawns reuse it).
    inner_threads: usize,
    /// The deterministic fault plan (empty in production).
    faults: FaultPlan,
    recovery: RecoveryStats,
}

/// A sharded runtime over owned dataset-backed streams — the common
/// deployment shape (mirrors [`crate::OwnedStreamRuntime`]).
pub type OwnedShardedRuntime = ShardedRuntime<akg_data::OwnedAdaptationStream>;

impl<S: FrameSource> ShardedRuntime<S> {
    /// Spawns `config.shards` workers, each building its own engine replica
    /// from `spec` (see the module docs for why engines are replicated
    /// rather than shared).
    ///
    /// The process-global kernel policies (thread pool, compute backend) are
    /// applied and hardware-resolved **once, here, on the calling thread**
    /// before any worker starts: workers re-apply the same values when they
    /// build (idempotent atomic stores), so no worker ever observes a
    /// half-resolved backend, and the one-time SIMD/`available_parallelism`
    /// detections are already cached when they first score.
    ///
    /// # Panics
    ///
    /// Panics if `config.shards == 0`, `config.max_batch == 0`,
    /// `config.queue_depth == 0`, or `config.checkpoint_interval == 0`.
    pub fn new(spec: EngineSpec, config: ShardedConfig) -> Self {
        Self::with_faults(spec, config, FaultPlan::none())
    }

    /// Like [`ShardedRuntime::new`], but with a deterministic [`FaultPlan`]
    /// injected: scripted or seeded worker crashes, stalls, and frame
    /// corruptions fire exactly where the plan says, and the supervisor
    /// recovers through them (see the module docs). Production callers use
    /// [`ShardedRuntime::new`], which passes [`FaultPlan::none`].
    ///
    /// # Examples
    ///
    /// ```
    /// use akg_core::adapt::AdaptConfig;
    /// use akg_core::pipeline::SystemConfig;
    /// use akg_kg::AnomalyClass;
    /// use akg_runtime::{EngineSpec, FaultPlan, FnSource, ShardedConfig, ShardedRuntime};
    ///
    /// let spec = EngineSpec::new(&[AnomalyClass::Stealing], SystemConfig::default());
    /// // Worker 0 is killed right before it would process its 2nd tick…
    /// let faults = FaultPlan::crash_at(0, 2);
    /// let mut rt = ShardedRuntime::with_faults(spec, ShardedConfig::with_shards(2), faults);
    /// let frame = akg_data::Frame { concepts: vec![("walking".into(), 1.0)], label: None };
    /// for i in 0..2 {
    ///     let f = frame.clone();
    ///     rt.add_stream(FnSource(move || (f.clone(), false)), i, AdaptConfig::default());
    /// }
    /// // …yet four ticks of scores flow, bit-identical to a fault-free run.
    /// for _ in 0..4 {
    ///     assert_eq!(rt.tick().len(), 2);
    /// }
    /// assert_eq!(rt.recovery_stats().recoveries, 1);
    /// ```
    pub fn with_faults(spec: EngineSpec, config: ShardedConfig, faults: FaultPlan) -> Self {
        assert!(config.shards > 0, "ShardedConfig::shards must be positive");
        assert!(config.max_batch > 0, "ShardedConfig::max_batch must be positive");
        assert!(config.queue_depth > 0, "ShardedConfig::queue_depth must be positive");
        assert!(
            config.checkpoint_interval > 0,
            "ShardedConfig::checkpoint_interval must be positive"
        );
        // Resolve the global knobs once, before any worker can race the
        // first-use detection paths.
        akg_tensor::par::set_parallelism(spec.config.parallelism);
        akg_tensor::backend::set_backend(spec.config.backend);
        let _ = akg_tensor::backend::effective_backend();
        let width = akg_tensor::par::effective_threads();
        // The oversubscription rule: shards × inner-threads ≤ machine width.
        let inner = config.inner_threads.unwrap_or_else(|| (width / config.shards).max(1));
        let shards = (0..config.shards)
            .map(|shard_idx| {
                let (cmd_tx, res_rx, thread) =
                    spawn_shard_worker(&spec, config, inner, shard_idx, 0, &faults);
                ShardHandle {
                    commands: Some(cmd_tx),
                    results: res_rx,
                    thread: Some(thread),
                    locals: Vec::new(),
                    counters: ServeCounters::default(),
                    stream_meta: Vec::new(),
                    checkpoint: None,
                    replay: VecDeque::new(),
                    pending: VecDeque::new(),
                    sent: 0,
                    acked: 0,
                    generation: 0,
                }
            })
            .collect();
        ShardedRuntime {
            sources: Vec::new(),
            assignment: Vec::new(),
            shards,
            ticks: 0,
            in_flight: 0,
            config,
            spec,
            inner_threads: inner,
            faults,
            recovery: RecoveryStats::default(),
        }
    }

    /// Registers a stream: assigns it to shard `stream_id % shards` (stable
    /// for the runtime's lifetime) and has that worker fork a session seeded
    /// with `frame_seed` and attach its continuous-adaptation loop — exactly
    /// as [`MultiStreamRuntime::add_stream`] would. Returns the stream's id.
    ///
    /// # Panics
    ///
    /// Panics if any tick has already been pushed: the stream set must be
    /// fixed before serving starts, because recovery replays recorded tick
    /// inputs whose per-stream plan alignment assumes a stable set.
    pub fn add_stream(&mut self, source: S, frame_seed: u64, adapt: AdaptConfig) -> StreamId {
        assert_eq!(
            self.ticks + self.in_flight,
            0,
            "add_stream: register every stream before the first tick"
        );
        let id = self.sources.len();
        let shard = id % self.shards.len();
        let local = self.shards[shard].locals.len();
        self.sources.push(source);
        self.assignment.push((shard, local));
        self.shards[shard].locals.push(id);
        self.shards[shard].stream_meta.push((frame_seed, adapt));
        let sent = self.shards[shard]
            .commands
            .as_ref()
            .expect("command sender live until drop")
            .send(ToShard::AddStream { frame_seed, adapt })
            .is_ok();
        if !sent {
            // Recovery re-registers every stream recorded in `stream_meta`.
            self.recover_shard(shard);
        }
        id
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of shard workers.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard a stream is assigned to (stable: `stream_id % shards`).
    pub fn shard_of(&self, id: StreamId) -> usize {
        self.assignment[id].0
    }

    /// Mutable access to a stream's frame source (e.g. to trigger a trend
    /// shift mid-run). Sources live on the caller thread, never cross to
    /// workers.
    pub fn source_mut(&mut self, id: StreamId) -> &mut S {
        &mut self.sources[id]
    }

    /// Aggregate throughput counters across all shards: `frames`,
    /// `dispatches`, `token_updates`, `node_replacements` and `rejected`
    /// (frames the workers' tick bodies failed validation on) are summed,
    /// `max_batch_seen` is the max, and `ticks` counts full cross-shard
    /// scheduler rounds. Note `dispatches` depends on the shard layout
    /// (each shard chunks its own streams by `max_batch`), so it is *not*
    /// invariant across shard counts the way the semantic counters are.
    pub fn counters(&self) -> ServeCounters {
        let mut agg = ServeCounters { ticks: self.ticks, ..ServeCounters::default() };
        for shard in &self.shards {
            agg.frames += shard.counters.frames;
            agg.dispatches += shard.counters.dispatches;
            agg.max_batch_seen = agg.max_batch_seen.max(shard.counters.max_batch_seen);
            agg.token_updates += shard.counters.token_updates;
            agg.node_replacements += shard.counters.node_replacements;
            agg.rejected += shard.counters.rejected;
        }
        agg
    }

    /// What recovery has done so far: respawn count, replay window sizes,
    /// checkpoint-vs-genesis split, and the wall time spent recovering. The
    /// deterministic fields are bit-identical across backends for a given
    /// fault plan.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.recovery
    }

    /// The newest checkpoint per shard (`None` until a shard's
    /// first `checkpoint_interval`-th tick reply lands). Exposed so the
    /// bench harness can measure checkpoint size without re-capturing.
    pub fn latest_checkpoints(&self) -> Vec<Option<&ShardCheckpoint>> {
        self.shards.iter().map(|shard| shard.checkpoint.as_ref()).collect()
    }

    /// One scheduler round: pulls one frame per stream from its source,
    /// ships each shard its frames (one message per shard), waits for every
    /// shard's scores, and returns them indexed by [`StreamId`] — the
    /// sharded analogue of [`MultiStreamRuntime::tick`], bit-identical to it
    /// per stream at any shard count, including its `None` for a stream
    /// whose frames have all been rejected so far.
    ///
    /// # Panics
    ///
    /// Panics if no streams are registered.
    pub fn tick(&mut self) -> Vec<Option<f32>> {
        self.push_tick();
        self.drain_tick()
    }

    /// Runs `ticks` scheduler rounds, returning per-stream score sequences
    /// (`result[stream][tick]`). Unlike [`ShardedRuntime::tick`], rounds are
    /// **pipelined**: the front-end keeps up to
    /// [`ShardedConfig::queue_depth`] ticks in flight, pulling source frames
    /// that far ahead of the slowest shard, so workers never idle between
    /// rounds. Results are identical to calling `tick` in a loop (frame
    /// content never depends on scores).
    pub fn run(&mut self, ticks: usize) -> Vec<Vec<Option<f32>>> {
        let mut out = vec![Vec::with_capacity(ticks); self.sources.len()];
        let depth = self.config.queue_depth;
        let mut pushed = 0usize;
        let mut drained = 0usize;
        while drained < ticks {
            while pushed < ticks && pushed - drained < depth {
                self.push_tick();
                pushed += 1;
            }
            for (stream, score) in self.drain_tick().into_iter().enumerate() {
                out[stream].push(score);
            }
            drained += 1;
        }
        out
    }

    /// One planned scheduler round driven by an external ingest layer (the
    /// latency-SLO load harness, [`crate::load::LoadedRuntime`]): `frames`
    /// is one flat list in stream-id order, `plans[id].ingest` frames for
    /// stream `id` — the shape [`MultiStreamRuntime::tick_frames`] takes —
    /// and `plans[id]` is that stream's degrade directive. The runtime's own
    /// [`FrameSource`]s are **not** pulled. Returns per-stream scores
    /// indexed by [`StreamId`] (`None` = not scored this round).
    ///
    /// Because every plan is computed by the front-end from global queue
    /// state and workers only execute, the shard-equivalence contract
    /// extends to loaded serving: any shard count yields bit-identical
    /// scores *and* bit-identical degrade decisions to a single-node run.
    ///
    /// # Panics
    ///
    /// Panics if no streams are registered, if `plans.len()` differs from
    /// the stream count, or if `frames.len()` differs from the plans' total
    /// `ingest`.
    pub fn tick_planned(&mut self, frames: &[Frame], plans: &[StreamPlan]) -> Vec<Option<f32>> {
        self.ship(frames.to_vec(), plans);
        self.drain_tick()
    }

    /// Pulls one frame per stream, applies any planned corruption, and
    /// ships the round with the default plan (one frame in, score, adapt)
    /// for every stream. The front-end does not validate: a corrupted frame
    /// is rejected and counted by its worker's tick body, which then serves
    /// the stream as a plan with `ingest: 0` — scoring the existing window
    /// and running the adaptation bookkeeping — exactly as the single-node
    /// runtime treats a rejected frame.
    fn push_tick(&mut self) {
        // 0-based index of the tick being pushed (drained + in flight).
        let tick_coord = (self.ticks + self.in_flight) as u64;
        let frames: Vec<Frame> = self
            .sources
            .iter_mut()
            .enumerate()
            .map(|(id, source)| {
                let (mut frame, _label) = source.next_frame();
                if let Some(kind) = self.faults.corruption(tick_coord, id as u64) {
                    corrupt_frame(&mut frame, kind);
                }
                frame
            })
            .collect();
        self.ship(frames, &vec![StreamPlan::default(); self.sources.len()]);
    }

    /// Splits one round's flat frame list (stream-id order,
    /// `plans[id].ingest` frames per stream) into one message per shard and
    /// ships them.
    fn ship(&mut self, frames: Vec<Frame>, plans: &[StreamPlan]) {
        let n = self.assignment.len();
        assert!(n > 0, "tick: no streams registered");
        assert_eq!(plans.len(), n, "tick: one plan per stream");
        assert_eq!(
            frames.len(),
            plans.iter().map(|plan| plan.ingest).sum::<usize>(),
            "tick: the frames do not match the plans' ingest counts"
        );
        let mut per_shard_frames: Vec<Vec<Frame>> =
            self.shards.iter().map(|shard| Vec::with_capacity(shard.locals.len())).collect();
        let mut per_shard_plans: Vec<Vec<StreamPlan>> =
            self.shards.iter().map(|shard| Vec::with_capacity(shard.locals.len())).collect();
        // Iterate streams in id order; within a shard this is exactly the
        // local registration order the worker's slots use.
        let mut frames = frames.into_iter();
        for (id, plan) in plans.iter().enumerate() {
            let shard = self.assignment[id].0;
            per_shard_frames[shard].extend(frames.by_ref().take(plan.ingest));
            per_shard_plans[shard].push(*plan);
        }
        for (idx, (frames, plans)) in per_shard_frames.into_iter().zip(per_shard_plans).enumerate()
        {
            self.send_tick(idx, frames, plans);
        }
        self.in_flight += 1;
    }

    /// Records one shard's tick inputs in its replay buffer, then ships
    /// them; a send that fails (worker died) triggers recovery, which
    /// replays the buffer — including the record just pushed.
    fn send_tick(&mut self, idx: usize, frames: Vec<Frame>, plans: Vec<StreamPlan>) {
        let delivered = {
            let shard = &mut self.shards[idx];
            shard.sent += 1;
            let rec = Arc::new(TickRecord { seq: shard.sent, frames, plans });
            shard.replay.push_back(Arc::clone(&rec));
            let msg = ToShard::Tick(rec);
            shard.commands.as_ref().expect("command sender live until drop").send(msg).is_ok()
        };
        if !delivered {
            self.recover_shard(idx);
        }
    }

    /// Receives one processed tick from every shard and reassembles the
    /// per-stream score vector (`None` = that stream's plan skipped
    /// scoring). A disconnected result queue means the worker died:
    /// recovery regenerates the missing replies (they land in `pending`)
    /// and the drain proceeds as if nothing happened.
    fn drain_tick(&mut self) -> Vec<Option<f32>> {
        debug_assert!(self.in_flight > 0, "drain_tick without a pushed tick");
        let mut scores = vec![None; self.assignment.len()];
        for idx in 0..self.shards.len() {
            let msg = loop {
                if let Some(msg) = self.shards[idx].pending.pop_front() {
                    break msg;
                }
                match self.shards[idx].results.recv() {
                    Ok(msg) => break msg,
                    Err(RecvError) => self.recover_shard(idx),
                }
            };
            match msg {
                FromShard::Tick { scores: shard_scores, counters, checkpoint } => {
                    let shard = &mut self.shards[idx];
                    assert_eq!(
                        shard_scores.len(),
                        shard.locals.len(),
                        "shard returned a partial tick"
                    );
                    for (local, score) in shard_scores.into_iter().enumerate() {
                        scores[shard.locals[local]] = score;
                    }
                    shard.counters = counters;
                    shard.acked += 1;
                    if let Some(cp) = checkpoint {
                        shard.absorb_checkpoint(*cp);
                    }
                }
                FromShard::Snapshot(_) => unreachable!("snapshot reply during tick drain"),
            }
        }
        self.in_flight -= 1;
        self.ticks += 1;
        scores
    }

    /// Supervises one dead shard back to life: respawn, restore, replay —
    /// retrying (bounded) if the fresh generation dies during replay.
    fn recover_shard(&mut self, idx: usize) {
        let started = std::time::Instant::now();
        let mut attempts = 0usize;
        let (replayed_ticks, replayed_frames, from_checkpoint) = loop {
            attempts += 1;
            assert!(
                attempts <= MAX_RECOVERY_ATTEMPTS,
                "shard {idx}: still dying after {MAX_RECOVERY_ATTEMPTS} respawns — \
                 the fault plan kills every generation"
            );
            if let Some(outcome) = self.try_recover(idx) {
                break outcome;
            }
        };
        self.recovery.recoveries += 1;
        self.recovery.replayed_ticks += replayed_ticks;
        self.recovery.replayed_frames += replayed_frames;
        self.recovery.max_replay_ticks = self.recovery.max_replay_ticks.max(replayed_ticks);
        if from_checkpoint {
            self.recovery.from_checkpoint += 1;
        }
        self.recovery.recovery_wall_nanos += started.elapsed().as_nanos() as u64;
    }

    /// One recovery attempt. Returns `Some((replayed_ticks, replayed_frames,
    /// from_checkpoint))` on success, `None` if the respawned worker died
    /// again mid-recovery (the caller retries with the next generation).
    fn try_recover(&mut self, idx: usize) -> Option<(usize, usize, bool)> {
        let spec = self.spec.clone();
        let config = self.config;
        let inner = self.inner_threads;
        let faults = self.faults.clone();
        let shard = &mut self.shards[idx];
        // Tear down the dead generation. Dropping the sender lets a worker
        // that is somehow still draining exit; join reaps the thread (a
        // panicked join is expected — that's how injected panics die).
        shard.commands = None;
        if let Some(thread) = shard.thread.take() {
            let _ = thread.join();
        }
        // Replies stranded in the dead generation's queue (or stashed by an
        // earlier recovery) are regenerated below, bit-identically.
        shard.pending.clear();
        shard.generation += 1;
        let (cmd_tx, res_rx, thread) =
            spawn_shard_worker(&spec, config, inner, idx, shard.generation, &faults);
        shard.commands = Some(cmd_tx);
        shard.results = res_rx;
        shard.thread = Some(thread);
        let tx = shard.commands.as_ref().expect("sender just installed");
        // Re-register every stream, then overwrite their state with the
        // newest checkpoint if one landed (else replay from genesis).
        for &(frame_seed, adapt) in &shard.stream_meta {
            if tx.send(ToShard::AddStream { frame_seed, adapt }).is_err() {
                return None;
            }
        }
        let (base_tick, from_checkpoint) = match &shard.checkpoint {
            Some(cp) => {
                if tx.send(ToShard::Restore(Box::new(cp.clone()))).is_err() {
                    return None;
                }
                (cp.tick, true)
            }
            None => (0, false),
        };
        debug_assert!(
            shard.replay.front().map_or(shard.sent == base_tick, |rec| rec.seq == base_tick + 1),
            "replay buffer must start right after the restore point"
        );
        // Replay every recorded tick, harvesting replies as we go so the
        // result queue never fills: at most queue_depth sends are ever
        // outstanding, and the channels hold queue_depth + 1.
        let mut replies: Vec<FromShard> = Vec::with_capacity(shard.replay.len());
        let mut outstanding = 0usize;
        let mut replayed_frames = 0usize;
        for rec in &shard.replay {
            while outstanding >= config.queue_depth {
                match shard.results.recv() {
                    Ok(msg) => {
                        replies.push(msg);
                        outstanding -= 1;
                    }
                    Err(RecvError) => return None,
                }
            }
            replayed_frames += rec.frames.len();
            if tx.send(ToShard::Tick(Arc::clone(rec))).is_err() {
                return None;
            }
            outstanding += 1;
        }
        while outstanding > 0 {
            match shard.results.recv() {
                Ok(msg) => {
                    replies.push(msg);
                    outstanding -= 1;
                }
                Err(RecvError) => return None,
            }
        }
        let replayed_ticks = shard.replay.len();
        // The first (acked − base_tick) replies re-execute ticks the caller
        // already consumed: absorb their counters and checkpoints, discard
        // their scores (determinism makes them byte-copies of what the dead
        // worker already delivered). The rest are still owed to drain_tick.
        let discard = shard.acked - base_tick;
        for (i, msg) in replies.into_iter().enumerate() {
            if i < discard {
                match msg {
                    FromShard::Tick { counters, checkpoint, .. } => {
                        shard.counters = counters;
                        if let Some(cp) = checkpoint {
                            shard.absorb_checkpoint(*cp);
                        }
                    }
                    FromShard::Snapshot(_) => unreachable!("snapshot reply during replay"),
                }
            } else {
                shard.pending.push_back(msg);
            }
        }
        Some((replayed_ticks, replayed_frames, from_checkpoint))
    }

    /// Point-in-time state of every shard (workspace counters plus each
    /// stream's adapted table, event counts, and session workspace), taken
    /// on the worker threads. Only callable between ticks — `tick` and `run`
    /// always drain fully, so this never interleaves with tick replies.
    pub fn shard_snapshots(&mut self) -> Vec<ShardSnapshot> {
        debug_assert_eq!(self.in_flight, 0, "snapshot with ticks in flight");
        (0..self.shards.len())
            .map(|idx| loop {
                let sent = self.shards[idx]
                    .commands
                    .as_ref()
                    .expect("command sender live until drop")
                    .send(ToShard::Query)
                    .is_ok();
                if !sent {
                    self.recover_shard(idx);
                    continue;
                }
                match self.shards[idx].results.recv() {
                    Ok(FromShard::Snapshot(snap)) => break snap,
                    Ok(FromShard::Tick { .. }) => unreachable!("tick reply during snapshot"),
                    Err(RecvError) => self.recover_shard(idx),
                }
            })
            .collect()
    }

    /// Per-stream state snapshots indexed by [`StreamId`] (reassembled from
    /// [`ShardedRuntime::shard_snapshots`]).
    pub fn stream_snapshots(&mut self) -> Vec<StreamSnapshot> {
        let per_shard = self.shard_snapshots();
        let mut out: Vec<Option<StreamSnapshot>> = vec![None; self.sources.len()];
        for (shard, snap) in self.shards.iter().zip(per_shard) {
            for (local, stream) in snap.streams.into_iter().enumerate() {
                out[shard.locals[local]] = Some(stream);
            }
        }
        out.into_iter().map(|s| s.expect("stream missing from shard snapshot")).collect()
    }
}

impl<S: FrameSource> Drop for ShardedRuntime<S> {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            // Dropping the command sender is the shutdown signal; the worker
            // drains its queue and exits.
            shard.commands = None;
            if let Some(thread) = shard.thread.take() {
                // Don't double-panic during unwinding; worker panics already
                // surfaced as recv() failures while the runtime was live.
                let _ = thread.join();
            }
        }
    }
}

/// Everything a worker thread is configured with, bundled for spawning.
struct WorkerSetup {
    spec: EngineSpec,
    max_batch: usize,
    inner_threads: usize,
    /// This worker's shard index (fault-plan coordinate).
    shard_idx: usize,
    /// 0 at startup, +1 per respawn — fault plans are generation-aware.
    generation: usize,
    checkpoint_interval: usize,
    faults: FaultPlan,
}

/// Spawns one shard worker (generation-tagged) and returns its queue
/// endpoints and join handle. Used at construction and by recovery.
fn spawn_shard_worker(
    spec: &EngineSpec,
    config: ShardedConfig,
    inner_threads: usize,
    shard_idx: usize,
    generation: usize,
    faults: &FaultPlan,
) -> (SyncSender<ToShard>, Receiver<FromShard>, JoinHandle<()>) {
    // queue_depth ticks may be in flight, plus one slot of slack so a
    // control message never waits on a full tick pipeline.
    let (cmd_tx, cmd_rx) = sync_channel::<ToShard>(config.queue_depth + 1);
    let (res_tx, res_rx) = sync_channel::<FromShard>(config.queue_depth + 1);
    let setup = WorkerSetup {
        spec: spec.clone(),
        max_batch: config.max_batch,
        inner_threads,
        shard_idx,
        generation,
        checkpoint_interval: config.checkpoint_interval,
        faults: faults.clone(),
    };
    let thread = std::thread::spawn(move || shard_worker(setup, cmd_rx, res_tx));
    (cmd_tx, res_rx, thread)
}

/// The worker body: builds this shard's engine replica (under the inner
/// thread cap), then serves its streams through a private
/// [`MultiStreamRuntime`], handing each tick message's frames to
/// [`MultiStreamRuntime::tick_frames`], until the front-end disconnects.
/// Injected faults fire *before* a tick is processed, so a killed worker
/// loses that tick and everything queued behind it — all of which the
/// supervisor's replay buffer still holds.
fn shard_worker(setup: WorkerSetup, commands: Receiver<ToShard>, results: SyncSender<FromShard>) {
    // Cap this thread's kernel pool *before* the engine build so even
    // build-time matmuls obey the shards × threads rule.
    akg_tensor::par::set_thread_cap(setup.inner_threads);
    let engine = setup.spec.build();
    let mut rt: MultiStreamRuntime<IdleSource> =
        MultiStreamRuntime::new(engine, RuntimeConfig { max_batch: setup.max_batch });
    // Worker-local 1-based tick counter; survives recovery because Restore
    // rewinds it to the checkpoint tick and replay re-advances it.
    let mut tick_no = 0usize;
    while let Ok(msg) = commands.recv() {
        match msg {
            ToShard::AddStream { frame_seed, adapt } => {
                rt.add_stream(IdleSource, frame_seed, adapt);
            }
            ToShard::Restore(cp) => {
                assert_eq!(
                    rt.stream_count(),
                    cp.streams.len(),
                    "Restore must follow the re-registration of every stream"
                );
                for (local, stream_cp) in cp.streams.iter().enumerate() {
                    rt.restore_stream_state(local, stream_cp)
                        .expect("in-memory checkpoint restores cleanly");
                }
                rt.restore_counters(cp.counters);
                tick_no = cp.tick;
            }
            ToShard::Tick(rec) => {
                tick_no += 1;
                match setup.faults.worker_crash(setup.shard_idx, tick_no, setup.generation) {
                    Some(CrashStyle::Exit) => return,
                    Some(CrashStyle::Panic) => {
                        panic!("injected worker panic (deterministic fault)")
                    }
                    None => {}
                }
                if let Some(millis) =
                    setup.faults.stall_millis(setup.shard_idx, tick_no, setup.generation)
                {
                    // A stall is not a failure: the front-end waits on the
                    // reply and no output bit changes.
                    std::thread::sleep(std::time::Duration::from_millis(millis));
                }
                // A shard with no streams still acknowledges the round so
                // the drain barrier stays uniform.
                let idle = rt.stream_count() == 0;
                let scores =
                    if idle { Vec::new() } else { rt.tick_frames(&rec.frames, &rec.plans) };
                let checkpoint = if tick_no.is_multiple_of(setup.checkpoint_interval) && !idle {
                    let streams =
                        (0..rt.stream_count()).map(|local| rt.checkpoint_stream(local)).collect();
                    Some(Box::new(ShardCheckpoint {
                        tick: tick_no,
                        counters: rt.counters(),
                        streams,
                    }))
                } else {
                    None
                };
                let reply = FromShard::Tick { scores, counters: rt.counters(), checkpoint };
                if results.send(reply).is_err() {
                    return; // front-end gone
                }
            }
            ToShard::Query => {
                let streams =
                    (0..rt.stream_count()).map(|local| rt.stream_snapshot(local)).collect();
                let snap = ShardSnapshot { workspace: rt.workspace_stats(), streams };
                if results.send(FromShard::Snapshot(snap)).is_err() {
                    return;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnSource;

    fn frame(salt: usize) -> Frame {
        let concepts = if salt.is_multiple_of(3) {
            vec![("walking".into(), 1.0)]
        } else {
            vec![("person".into(), 0.8), ("vehicle".into(), 0.4)]
        };
        Frame { concepts, label: None }
    }

    fn spec() -> EngineSpec {
        EngineSpec::new(&[AnomalyClass::Stealing], SystemConfig::default())
    }

    fn counting_source(stream: usize) -> FnSource<impl FnMut() -> (Frame, bool)> {
        let mut k = 7 * stream;
        FnSource(move || {
            k += 1;
            (frame(k), false)
        })
    }

    #[test]
    fn engine_builds_are_bit_identical_replicas() {
        // The keystone of the shard-equivalence contract: two builds from
        // one spec must agree on every trained parameter.
        let spec = spec();
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.table.to_dense_vec(), b.table.to_dense_vec(), "token tables diverged");
        assert_eq!(a.kgs.len(), b.kgs.len());
    }

    #[test]
    fn assignment_is_stable_round_robin() {
        let mut rt = ShardedRuntime::new(spec(), ShardedConfig::with_shards(3));
        for i in 0..7usize {
            let id = rt.add_stream(counting_source(i), i as u64, AdaptConfig::default());
            assert_eq!(id, i);
        }
        for i in 0..7 {
            assert_eq!(rt.shard_of(i), i % 3);
        }
        assert_eq!(rt.stream_count(), 7);
        assert_eq!(rt.shard_count(), 3);
    }

    #[test]
    fn counters_aggregate_across_shards() {
        let mut rt = ShardedRuntime::new(
            spec(),
            ShardedConfig {
                shards: 2,
                max_batch: 2,
                queue_depth: 2,
                inner_threads: Some(1),
                ..ShardedConfig::default()
            },
        );
        for i in 0..5usize {
            rt.add_stream(counting_source(i), i as u64, AdaptConfig::default());
        }
        let scores = rt.run(3);
        assert_eq!(scores.len(), 5);
        assert!(scores.iter().all(|s| s.len() == 3));
        let c = rt.counters();
        assert_eq!(c.frames, 15);
        assert_eq!(c.ticks, 3);
        // shard 0 has 3 streams (⌈3/2⌉ = 2 dispatches), shard 1 has 2 (1)
        assert_eq!(c.dispatches, 9);
        assert_eq!(c.max_batch_seen, 2);
    }

    #[test]
    fn empty_shards_are_tolerated() {
        // 4 shards, 2 streams: two workers serve, two idle-acknowledge.
        let mut rt = ShardedRuntime::new(spec(), ShardedConfig::with_shards(4));
        for i in 0..2usize {
            rt.add_stream(counting_source(i), i as u64, AdaptConfig::default());
        }
        let scores = rt.tick();
        assert_eq!(scores.len(), 2);
        assert!(scores.iter().all(|s| s.is_some_and(|p| (0.0..=1.0).contains(&p))));
        assert_eq!(rt.counters().frames, 2);
    }

    type EmptySource = FnSource<fn() -> (Frame, bool)>;

    #[test]
    #[should_panic(expected = "no streams registered")]
    fn tick_requires_streams() {
        let mut rt: ShardedRuntime<EmptySource> =
            ShardedRuntime::new(spec(), ShardedConfig::with_shards(1));
        let _ = rt.tick();
    }

    #[test]
    fn snapshots_cover_every_stream() {
        let mut rt = ShardedRuntime::new(spec(), ShardedConfig::with_shards(2));
        for i in 0..3usize {
            rt.add_stream(counting_source(i), i as u64, AdaptConfig::default());
        }
        let _ = rt.tick();
        let snaps = rt.stream_snapshots();
        assert_eq!(snaps.len(), 3);
        assert!(snaps.iter().all(|s| !s.table.is_empty()));
        let shard_snaps = rt.shard_snapshots();
        assert_eq!(shard_snaps.len(), 2);
        assert_eq!(shard_snaps.iter().map(|s| s.streams.len()).sum::<usize>(), 3);
    }

    #[test]
    #[should_panic(expected = "register every stream before the first tick")]
    fn add_stream_after_first_tick_is_rejected() {
        let mut rt = ShardedRuntime::new(spec(), ShardedConfig::with_shards(1));
        rt.add_stream(counting_source(0), 0, AdaptConfig::default());
        let _ = rt.tick();
        rt.add_stream(counting_source(1), 1, AdaptConfig::default());
    }

    #[test]
    fn dropping_with_dead_worker_during_unwind_does_not_abort() {
        // Regression shape for the drop path: the caller panics while a
        // worker has *also* panicked with a tick in flight. Drop must join
        // the dead thread without propagating its panic — a double panic
        // here would abort the process and no assertion could ever run.
        let caller = std::panic::catch_unwind(|| {
            let mut rt = ShardedRuntime::with_faults(
                spec(),
                ShardedConfig { shards: 1, inner_threads: Some(1), ..ShardedConfig::default() },
                FaultPlan::panic_at(0, 1),
            );
            for i in 0..2usize {
                rt.add_stream(counting_source(i), i as u64, AdaptConfig::default());
            }
            // Push without draining so the worker's injected panic happens
            // while the tick is still in flight, then unwind the caller.
            rt.push_tick();
            std::thread::sleep(std::time::Duration::from_millis(50));
            panic!("caller unwinds with a dead worker and an undrained tick");
        });
        // The caller's own panic surfaced; the process survived the drop.
        assert!(caller.is_err());
    }

    #[test]
    fn supervisor_restarts_worker_mid_run_pipelining() {
        // Kill a worker while run() has queue_depth ticks in flight: the
        // supervisor must recover mid-pipeline and the output must match a
        // fault-free run bit for bit.
        let config = ShardedConfig {
            shards: 2,
            queue_depth: 3,
            checkpoint_interval: 4,
            inner_threads: Some(1),
            ..ShardedConfig::default()
        };
        let run = |faults: FaultPlan| {
            let mut rt = ShardedRuntime::with_faults(spec(), config, faults);
            for i in 0..4usize {
                rt.add_stream(counting_source(i), i as u64, AdaptConfig::default());
            }
            let scores = rt.run(12);
            (scores, rt.counters(), rt.recovery_stats())
        };
        let (clean_scores, clean_counters, clean_recovery) = run(FaultPlan::none());
        assert_eq!(clean_recovery.recoveries, 0);
        let (scores, counters, recovery) = run(FaultPlan::crash_at(1, 6));
        assert_eq!(recovery.recoveries, 1, "the injected crash must trigger recovery");
        assert_eq!(recovery.from_checkpoint, 1, "a checkpoint landed at tick 4 < crash tick 6");
        assert!(recovery.max_replay_ticks >= 2, "ticks 5.. must replay");
        assert_eq!(scores, clean_scores, "recovered scores diverged from the fault-free run");
        assert_eq!(counters, clean_counters, "recovered counters diverged");
    }
}
