//! In-memory checkpointing for shard-worker recovery.
//!
//! The sharded runtime's workers periodically capture their streams' full
//! session state — one [`SessionCheckpoint`] per stream (adapted KGs,
//! token-table delta, RNG positions, adaptation-loop state and its lifetime
//! event counts), the same record the session tier spools on eviction —
//! and piggyback the capture on their normal tick reply. The front-end
//! keeps only the newest [`ShardCheckpoint`] per shard, alongside a replay
//! buffer of the tick inputs sent since. When a worker dies, the supervisor
//! rebuilds the replica engine from its `EngineSpec`, re-registers the
//! shard's streams, restores the newest checkpoint over them, and replays
//! the buffered ticks — deterministic replay makes the recovered worker
//! bit-identical to one that never died (the recovery-equivalence contract
//! in `tests/recovery.rs`).
//!
//! Everything here is plain owned data (`Send`), sized by the checkpoint
//! interval: the replay buffer never holds more than `checkpoint_interval`
//! ticks of frames once the first checkpoint lands, so memory stays bounded
//! on an edge box no matter how long the run.

use crate::ServeCounters;
use akg_core::persist::SessionCheckpoint;
use serde::Serialize;

/// One shard's recovery record: all its streams at a consistent tick
/// boundary, plus the worker's counters at that boundary.
#[derive(Debug, Clone)]
pub struct ShardCheckpoint {
    /// The worker-local (1-based) tick count this capture is consistent at.
    pub tick: usize,
    /// The worker's serve counters at that boundary.
    pub counters: ServeCounters,
    /// Per-local-stream records, in the shard's local registration order.
    pub streams: Vec<SessionCheckpoint>,
}

/// Aggregate recovery metrics for one sharded runtime. The deterministic
/// fields (`recoveries`, `replayed_*`) are part of the recovery-equivalence
/// fingerprint; `recovery_wall_nanos` is wall-clock and reported for
/// operators only (never compared).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryStats {
    /// Successful worker recoveries (respawn + restore + replay).
    pub recoveries: usize,
    /// Ticks re-executed across all recoveries.
    pub replayed_ticks: usize,
    /// Frames re-shipped inside those replayed ticks.
    pub replayed_frames: usize,
    /// Longest single recovery's replay window, in ticks — bounded by the
    /// checkpoint interval plus the pipeline depth once checkpoints flow.
    pub max_replay_ticks: usize,
    /// Recoveries that restored from a checkpoint (vs genesis replay).
    pub from_checkpoint: usize,
    /// Total wall-clock nanoseconds spent inside recovery (respawn through
    /// replay drain). Reporting only — not deterministic.
    pub recovery_wall_nanos: u64,
}
