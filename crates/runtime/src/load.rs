//! The latency-SLO load harness: a deterministic seeded arrival generator
//! (Poisson, bursty on/off, adversarial ramp) driving the serving runtimes
//! with tick-stamped frames through a bounded-ingest backpressure layer that
//! applies the [`slo`](crate::slo) degrade ladder.
//!
//! ## Determinism is the design
//!
//! Everything that decides *what happens to a frame* is a pure function of
//! `(seed, pattern, tick, stream id, queue depths, priorities, policy)`:
//!
//! * arrivals come from counter-mode splitmix64 hashing —
//!   [`LoadGenerator::arrivals`] takes `(tick, stream)` by value and keeps
//!   no state, so arrival sequences are order-independent and replayable
//!   from any tick;
//! * the degrade rung is [`DegradePolicy::level`] of the post-arrival
//!   deepest queue; shedding trims lowest-priority streams in (priority,
//!   stream id) order by [`DegradePolicy::shed_excess`]; serve quotas are
//!   [`DegradePolicy::serve_quota`]. No wall clock, no RNG, no thread
//!   timing touches any of it.
//!
//! Latency is measured in ticks only: the queueing-delay histogram
//! ([`LoadedRuntime::wait_ticks`]) is deterministic, and tests assert on it.
//!
//! ## Loaded shard equivalence
//!
//! [`LoadedRuntime`] holds the whole decision loop on the front-end and
//! hands its node nothing but one flat frame list and the [`StreamPlan`]s —
//! [`MultiStreamRuntime::tick_frames`] on a single node,
//! [`ShardedRuntime::tick_planned`] on a sharded one, both with the same
//! arguments — so the shard-equivalence contract extends to loaded serving
//! structurally: a sharded node executes the *same* plans the single node
//! would, and
//! `tests/soak.rs` + `tests/proptest_load.rs` assert bit-identical scores,
//! shed/degrade decision logs, per-stream accounting, and wait-tick
//! histograms across shard counts, under both backends.

use crate::checkpoint::{RecoveryStats, ShardCheckpoint};
use crate::fault::{corrupt_frame, FaultPlan};
use crate::shard::{EngineSpec, ShardedConfig, ShardedRuntime, StreamSnapshot};
use crate::slo::{
    DegradeLevel, DegradePolicy, LatencyHistogram, LoadCounters, StreamLoadStats, TickDecision,
};
use crate::{
    FrameSource, IdleSource, MultiStreamRuntime, RuntimeConfig, ServeCounters, StreamId, StreamPlan,
};
use akg_core::adapt::AdaptConfig;
use akg_data::Frame;
use std::collections::VecDeque;

/// splitmix64's output mixer: the standard finalizer with full avalanche,
/// used here in counter mode (hash of a value, not an advancing state) so
/// arrival draws are pure functions of their coordinates.
pub(crate) fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The top 53 bits as a uniform in `[0, 1)`.
pub(crate) fn unit_uniform(v: u64) -> f64 {
    (v >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Deterministic arrival-rate shapes for the load generator. Rates are in
/// frames per tick per stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalPattern {
    /// Stationary Poisson arrivals at `rate`.
    Poisson {
        /// Mean arrivals per tick per stream.
        rate: f64,
    },
    /// On/off bursts: `burst_rate` for `on_ticks`, then `base_rate` for
    /// `off_ticks`, repeating. The shape that exercises the whole degrade
    /// ladder: queues build through every rung during a burst and drain
    /// back to [`DegradeLevel::Normal`] in the quiet phase.
    Bursty {
        /// Ticks per burst phase.
        on_ticks: u64,
        /// Ticks per quiet phase.
        off_ticks: u64,
        /// Mean arrivals per tick during a burst.
        burst_rate: f64,
        /// Mean arrivals per tick between bursts.
        base_rate: f64,
    },
    /// Adversarial ramp: rate grows linearly from `base_rate` by `slope`
    /// per tick until `peak_rate` — the overload endgame where shedding
    /// and overflow become steady-state.
    Ramp {
        /// Starting rate.
        base_rate: f64,
        /// Rate increase per tick.
        slope: f64,
        /// Rate ceiling.
        peak_rate: f64,
    },
}

impl ArrivalPattern {
    /// The named presets (`"poisson"`, `"bursty"`, `"ramp"`).
    pub fn preset(name: &str) -> Option<ArrivalPattern> {
        match name {
            "poisson" => Some(ArrivalPattern::Poisson { rate: 0.9 }),
            "bursty" => Some(ArrivalPattern::Bursty {
                on_ticks: 24,
                off_ticks: 72,
                burst_rate: 3.0,
                base_rate: 0.15,
            }),
            "ramp" => Some(ArrivalPattern::Ramp { base_rate: 0.1, slope: 0.02, peak_rate: 5.0 }),
            _ => None,
        }
    }

    /// The pattern's stable preset name.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalPattern::Poisson { .. } => "poisson",
            ArrivalPattern::Bursty { .. } => "bursty",
            ArrivalPattern::Ramp { .. } => "ramp",
        }
    }

    /// The mean arrival rate at `tick` — a pure function of the tick index.
    pub fn rate_at(&self, tick: u64) -> f64 {
        match *self {
            ArrivalPattern::Poisson { rate } => rate,
            ArrivalPattern::Bursty { on_ticks, off_ticks, burst_rate, base_rate } => {
                let period = on_ticks + off_ticks;
                if period == 0 || tick % period < on_ticks {
                    burst_rate
                } else {
                    base_rate
                }
            }
            ArrivalPattern::Ramp { base_rate, slope, peak_rate } => {
                (base_rate + slope * tick as f64).min(peak_rate)
            }
        }
    }
}

/// The seeded, stateless arrival generator: Poisson draws in counter mode.
/// [`LoadGenerator::arrivals`] is a pure function of `(seed, pattern, tick,
/// stream)` — no internal state advances — so any `(tick, stream)` cell can
/// be queried in any order and always answers the same.
#[derive(Debug, Clone, Copy)]
pub struct LoadGenerator {
    /// The arrival-rate shape.
    pub pattern: ArrivalPattern,
    /// The seed; together with the pattern it fixes every arrival.
    pub seed: u64,
}

impl LoadGenerator {
    /// Arrivals for stream `stream` at tick `tick`: a Poisson draw
    /// (Knuth's product method) at [`ArrivalPattern::rate_at`]`(tick)`,
    /// capped at 64 per cell as a tail guard.
    pub fn arrivals(&self, tick: u64, stream: u64) -> u32 {
        let rate = self.pattern.rate_at(tick);
        if rate <= 0.0 {
            return 0;
        }
        let cell = splitmix64(splitmix64(splitmix64(self.seed) ^ tick) ^ stream);
        let threshold = (-rate).exp();
        let mut k = 0u32;
        let mut product = 1.0f64;
        for draw in 1..=64u64 {
            product *= unit_uniform(splitmix64(cell.wrapping_add(draw)));
            if product <= threshold {
                return k;
            }
            k += 1;
        }
        k
    }
}

/// Configuration of a [`LoadedRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// The arrival-rate shape.
    pub pattern: ArrivalPattern,
    /// Seed for the arrival generator.
    pub seed: u64,
    /// The degrade ladder (validated at construction).
    pub policy: DegradePolicy,
    /// Largest cross-stream batch one scoring dispatch may carry (the inner
    /// runtime's [`RuntimeConfig::max_batch`]).
    pub max_batch: usize,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            pattern: ArrivalPattern::preset("poisson").unwrap(),
            seed: 0x51_0AD,
            policy: DegradePolicy::default(),
            max_batch: 16,
        }
    }
}

/// A frame waiting in a bounded ingest queue, stamped with its arrival
/// tick (the deterministic latency unit).
struct TimedFrame {
    frame: Frame,
    arrived_tick: u64,
}

/// The execution node under the load harness: the same decision loop
/// drives either shape, which is what makes loaded shard equivalence
/// structural rather than coincidental.
enum Node {
    Single(Box<MultiStreamRuntime<IdleSource>>),
    Sharded(Box<ShardedRuntime<IdleSource>>),
}

/// The loaded serving harness: seeded arrivals → bounded per-stream ingest
/// queues → deterministic degrade ladder → planned execution on a single
/// or sharded node, with exact accounting ([`LoadCounters::balanced`]) and
/// per-frame queueing delay in ticks. See the module docs.
pub struct LoadedRuntime<S: FrameSource> {
    sources: Vec<S>,
    priorities: Vec<u8>,
    queues: Vec<VecDeque<TimedFrame>>,
    node: Node,
    generator: LoadGenerator,
    policy: DegradePolicy,
    tick: u64,
    counters: LoadCounters,
    per_stream: Vec<StreamLoadStats>,
    decisions: Vec<TickDecision>,
    wait_ticks: LatencyHistogram,
    /// Reused per-tick plan buffer (no per-tick allocation once sized).
    plans: Vec<StreamPlan>,
    /// Reused per-tick buffer of the drained frames, in stream-id order.
    frames: Vec<Frame>,
    /// Deterministic fault plan. Frame corruptions fire here at the ingest
    /// boundary (identically for both node shapes); worker crashes and
    /// stalls fire inside the sharded node, which recovers through them —
    /// a single node has no workers to kill, so crash faults are inert
    /// there by design (that *is* the recovery-equivalence baseline).
    faults: FaultPlan,
}

impl<S: FrameSource> LoadedRuntime<S> {
    /// A loaded harness over a single-node [`MultiStreamRuntime`] built
    /// from `spec`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.policy` violates its ordering invariants
    /// ([`DegradePolicy::validate`]) or `cfg.max_batch == 0`.
    pub fn new(spec: EngineSpec, cfg: LoadConfig) -> Self {
        Self::new_with_faults(spec, cfg, FaultPlan::none())
    }

    /// Like [`LoadedRuntime::new`], but with a deterministic [`FaultPlan`]:
    /// frame corruptions fire at the ingest boundary and are rejected
    /// (counted, never served). Worker-crash and stall faults are inert on
    /// a single node — there is no worker to kill — which makes this the
    /// fault-free baseline the chaos soak compares the sharded node
    /// against.
    pub fn new_with_faults(spec: EngineSpec, cfg: LoadConfig, faults: FaultPlan) -> Self {
        cfg.policy.validate();
        let rt = MultiStreamRuntime::new(spec.build(), RuntimeConfig { max_batch: cfg.max_batch });
        Self::with_node(Node::Single(Box::new(rt)), cfg, faults)
    }

    /// A loaded harness over a [`ShardedRuntime`] with `shards` workers.
    /// Every degrade decision is still taken here on the front-end, so the
    /// run is bit-identical to [`LoadedRuntime::new`] with the same config.
    ///
    /// # Panics
    ///
    /// Panics if the policy is invalid, `cfg.max_batch == 0`, or
    /// `shards == 0`.
    pub fn sharded(spec: EngineSpec, cfg: LoadConfig, shards: usize) -> Self {
        Self::sharded_with_faults(spec, cfg, shards, FaultPlan::none())
    }

    /// Like [`LoadedRuntime::sharded`], but with a deterministic
    /// [`FaultPlan`]: corruptions fire at the front-end ingest boundary
    /// (exactly as on a single node), while crashes and stalls fire inside
    /// the shard workers, where the supervisor recovers through them. The
    /// recovery-equivalence contract says the result is still bit-identical
    /// to the fault-free baseline modulo rejected frames — which the same
    /// plan rejects identically on both node shapes.
    pub fn sharded_with_faults(
        spec: EngineSpec,
        cfg: LoadConfig,
        shards: usize,
        faults: FaultPlan,
    ) -> Self {
        cfg.policy.validate();
        let sharded = ShardedRuntime::with_faults(
            spec,
            ShardedConfig { max_batch: cfg.max_batch, ..ShardedConfig::with_shards(shards) },
            faults.clone(),
        );
        Self::with_node(Node::Sharded(Box::new(sharded)), cfg, faults)
    }

    fn with_node(node: Node, cfg: LoadConfig, faults: FaultPlan) -> Self {
        LoadedRuntime {
            sources: Vec::new(),
            priorities: Vec::new(),
            queues: Vec::new(),
            node,
            generator: LoadGenerator { pattern: cfg.pattern, seed: cfg.seed },
            policy: cfg.policy,
            tick: 0,
            counters: LoadCounters::default(),
            per_stream: Vec::new(),
            decisions: Vec::new(),
            wait_ticks: LatencyHistogram::new(),
            plans: Vec::new(),
            frames: Vec::new(),
            faults,
        }
    }

    /// Registers a stream with its shed priority (**higher = more
    /// important**; the shed rung drops from the lowest priority class
    /// first). The source stays on the front-end; the execution node
    /// registers the stream with an [`IdleSource`], seeded exactly as
    /// [`MultiStreamRuntime::add_stream`] would. Returns the stream's id.
    pub fn add_stream(
        &mut self,
        source: S,
        frame_seed: u64,
        adapt: AdaptConfig,
        priority: u8,
    ) -> StreamId {
        match &mut self.node {
            Node::Single(rt) => rt.add_stream(IdleSource, frame_seed, adapt),
            Node::Sharded(rt) => rt.add_stream(IdleSource, frame_seed, adapt),
        };
        self.sources.push(source);
        self.priorities.push(priority);
        self.queues.push(VecDeque::new());
        self.per_stream.push(StreamLoadStats::default());
        self.sources.len() - 1
    }

    /// Number of registered streams.
    pub fn stream_count(&self) -> usize {
        self.sources.len()
    }

    /// Mutable access to a stream's frame source (e.g. to trigger a trend
    /// shift mid-run). Sources always live on the front-end, for both node
    /// shapes.
    pub fn source_mut(&mut self, id: StreamId) -> &mut S {
        &mut self.sources[id]
    }

    /// Exact-accounting counters so far.
    pub fn counters(&self) -> LoadCounters {
        self.counters
    }

    /// Per-stream accounting, indexed by [`StreamId`].
    pub fn stream_stats(&self) -> &[StreamLoadStats] {
        &self.per_stream
    }

    /// The degrade decision log, one entry per tick — what determinism
    /// tests compare bit-for-bit across runs and shard counts.
    pub fn decisions(&self) -> &[TickDecision] {
        &self.decisions
    }

    /// Queueing-delay histogram in **ticks** (deterministic; recorded for
    /// every frame that drains into the engine, scored or coalesced).
    pub fn wait_ticks(&self) -> &LatencyHistogram {
        &self.wait_ticks
    }

    /// A stream's current ingest-queue depth.
    pub fn queue_depth(&self, id: StreamId) -> usize {
        self.queues[id].len()
    }

    /// The execution node's throughput counters.
    pub fn serve_counters(&self) -> ServeCounters {
        match &self.node {
            Node::Single(rt) => rt.counters(),
            Node::Sharded(rt) => rt.counters(),
        }
    }

    /// The sharded node's recovery metrics (all-zero for a single node,
    /// which has no workers to lose).
    pub fn recovery_stats(&self) -> RecoveryStats {
        match &self.node {
            Node::Single(_) => RecoveryStats::default(),
            Node::Sharded(rt) => rt.recovery_stats(),
        }
    }

    /// The sharded node's newest checkpoint per shard (empty for
    /// a single node). The bench harness uses this to report checkpoint
    /// size without re-capturing state.
    pub fn latest_checkpoints(&self) -> Vec<Option<&ShardCheckpoint>> {
        match &self.node {
            Node::Single(_) => Vec::new(),
            Node::Sharded(rt) => rt.latest_checkpoints(),
        }
    }

    /// Per-stream adapted-state snapshots, indexed by [`StreamId`] — the
    /// same shape for both node types, so loaded equivalence tests compare
    /// them directly.
    pub fn stream_snapshots(&mut self) -> Vec<StreamSnapshot> {
        match &mut self.node {
            Node::Single(rt) => (0..rt.stream_count()).map(|id| rt.stream_snapshot(id)).collect(),
            Node::Sharded(rt) => rt.stream_snapshots(),
        }
    }

    /// One loaded scheduler round:
    ///
    /// 1. **arrivals** — each stream draws [`LoadGenerator::arrivals`]
    ///    frames from its source into its bounded queue (full queue ⇒
    ///    tail-drop, counted; the source advances regardless, so stream
    ///    content never depends on backpressure);
    /// 2. **ladder** — the degrade rung is chosen from the post-arrival
    ///    deepest queue;
    /// 3. **shed** — at the shed rung, lowest-priority classes drop their
    ///    oldest frames down to `shed_keep`, class by class, until the
    ///    deepest queue is below `shed_depth`;
    /// 4. **plan & execute** — each stream drains up to the rung's quota
    ///    (oldest first) into a [`StreamPlan`], recording each drained
    ///    frame's wait in ticks; the node executes all plans in one planned
    ///    tick;
    /// 5. **account** — the decision logged, and
    ///    [`LoadCounters::balanced`] holds.
    ///
    /// Returns per-stream scores (`None` = the stream had no frame served
    /// this tick).
    ///
    /// # Panics
    ///
    /// Panics if no streams are registered.
    pub fn tick(&mut self) -> Vec<Option<f32>> {
        let n = self.sources.len();
        assert!(n > 0, "tick: no streams registered");
        let now = self.tick;

        // Phase 1 — arrivals into bounded queues, validated at the ingest
        // boundary: a malformed frame (planned corruption, or a hostile
        // source) is rejected and counted — never enqueued, never served,
        // never silently lost. The source advances regardless, so stream
        // content stays independent of the fault plan's timing.
        for (id, source) in self.sources.iter_mut().enumerate() {
            let k = self.generator.arrivals(now, id as u64);
            for j in 0..k {
                let (mut frame, _label) = source.next_frame();
                self.counters.offered += 1;
                self.per_stream[id].offered += 1;
                if j == 0 {
                    if let Some(kind) = self.faults.corruption(now, id as u64) {
                        corrupt_frame(&mut frame, kind);
                    }
                }
                if frame.validate().is_err() {
                    self.counters.rejected += 1;
                    self.per_stream[id].rejected += 1;
                } else if self.queues[id].len() >= self.policy.queue_capacity {
                    self.counters.overflow_dropped += 1;
                    self.per_stream[id].overflow_dropped += 1;
                } else {
                    self.queues[id].push_back(TimedFrame { frame, arrived_tick: now });
                }
            }
        }

        // Phase 2 — pick the ladder rung from the deepest queue.
        let max_depth = self.queues.iter().map(|q| q.len()).max().unwrap_or(0);
        self.counters.max_queue_depth = self.counters.max_queue_depth.max(max_depth);
        let level = self.policy.level(max_depth);
        self.counters.ticks_at_level[level.index()] += 1;

        // Phase 3 — shed: lowest priority class first, stream id order
        // within a class, oldest frames first, until below shed_depth.
        let mut shed_this_tick = 0u32;
        if level == DegradeLevel::Shed {
            let mut classes: Vec<u8> = self.priorities.clone();
            classes.sort_unstable();
            classes.dedup();
            for class in classes {
                for id in 0..n {
                    if self.priorities[id] != class {
                        continue;
                    }
                    let excess = self.policy.shed_excess(self.queues[id].len());
                    for _ in 0..excess {
                        self.queues[id].pop_front();
                        self.counters.shed += 1;
                        self.per_stream[id].shed += 1;
                        shed_this_tick += 1;
                    }
                }
                let deepest = self.queues.iter().map(|q| q.len()).max().unwrap_or(0);
                if deepest < self.policy.shed_depth {
                    break;
                }
            }
        }

        // Phase 4 — plan each stream's drain and execute on the node. The
        // newest drained frame is the scored representative; older ones
        // coalesce into the rolling window without an individual score.
        let quota = self.policy.serve_quota(level);
        let adapt = level == DegradeLevel::Normal;
        self.plans.clear();
        self.frames.clear();
        let mut served_this_tick = 0u32;
        let mut coalesced_this_tick = 0u32;
        for id in 0..n {
            let take = self.queues[id].len().min(quota);
            for j in 0..take {
                let timed = self.queues[id].pop_front().expect("planned drain underflow");
                self.wait_ticks.record(now - timed.arrived_tick);
                if j + 1 == take {
                    served_this_tick += 1;
                    if adapt {
                        self.counters.served_full += 1;
                        self.per_stream[id].served_full += 1;
                    } else {
                        self.counters.served_degraded += 1;
                        self.per_stream[id].served_degraded += 1;
                    }
                } else {
                    coalesced_this_tick += 1;
                    self.counters.coalesced += 1;
                    self.per_stream[id].coalesced += 1;
                }
                self.frames.push(timed.frame);
            }
            self.plans.push(StreamPlan { ingest: take, score: take > 0, adapt: adapt && take > 0 });
        }
        let scores = match &mut self.node {
            Node::Single(rt) => rt.tick_frames(&self.frames, &self.plans),
            Node::Sharded(rt) => rt.tick_planned(&self.frames, &self.plans),
        };

        // Phase 5 — account: decision log, point-in-time queue level. The
        // balance identity holds here and after every future tick.
        self.counters.queued = self.queues.iter().map(|q| q.len()).sum();
        self.counters.ticks += 1;
        self.decisions.push(TickDecision {
            tick: now,
            level,
            max_depth: max_depth as u32,
            served: served_this_tick,
            coalesced: coalesced_this_tick,
            shed: shed_this_tick,
        });
        debug_assert!(self.counters.balanced(), "load accounting unbalanced at tick {now}");
        self.tick += 1;
        scores
    }

    /// Runs `ticks` loaded rounds, returning per-stream score sequences
    /// (`result[stream][tick]`; `None` = nothing served that tick).
    pub fn run(&mut self, ticks: usize) -> Vec<Vec<Option<f32>>> {
        let mut out = vec![Vec::with_capacity(ticks); self.sources.len()];
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

    #[test]
    fn arrivals_are_pure_and_order_independent() {
        let generator = LoadGenerator { pattern: ArrivalPattern::Poisson { rate: 1.3 }, seed: 42 };
        // Query cells in two different orders; every cell answers the same.
        let mut forward = Vec::new();
        for tick in 0..50u64 {
            for stream in 0..4u64 {
                forward.push(generator.arrivals(tick, stream));
            }
        }
        let mut backward = Vec::new();
        for tick in (0..50u64).rev() {
            for stream in (0..4u64).rev() {
                backward.push(generator.arrivals(tick, stream));
            }
        }
        backward.reverse();
        assert_eq!(forward, backward);
        assert_ne!(
            forward,
            vec![0; forward.len()],
            "rate 1.3 over 200 cells should produce arrivals"
        );
    }

    #[test]
    fn poisson_mean_is_roughly_rate() {
        let generator = LoadGenerator { pattern: ArrivalPattern::Poisson { rate: 2.0 }, seed: 7 };
        let total: u32 = (0..2000u64).map(|t| generator.arrivals(t, 0)).sum();
        let mean = total as f64 / 2000.0;
        assert!((1.8..2.2).contains(&mean), "poisson mean {mean} far from rate 2.0");
    }

    #[test]
    fn bursty_rate_alternates() {
        let p =
            ArrivalPattern::Bursty { on_ticks: 3, off_ticks: 5, burst_rate: 4.0, base_rate: 0.5 };
        for period in 0..3u64 {
            let base = period * 8;
            for t in 0..3 {
                assert_eq!(p.rate_at(base + t), 4.0);
            }
            for t in 3..8 {
                assert_eq!(p.rate_at(base + t), 0.5);
            }
        }
    }

    #[test]
    fn ramp_is_monotone_and_capped() {
        let p = ArrivalPattern::Ramp { base_rate: 0.2, slope: 0.1, peak_rate: 1.0 };
        let mut prev = 0.0;
        for t in 0..30u64 {
            let r = p.rate_at(t);
            assert!(r >= prev, "ramp regressed at tick {t}");
            assert!(r <= 1.0 + 1e-12, "ramp exceeded its peak at tick {t}");
            prev = r;
        }
        assert_eq!(p.rate_at(1000), 1.0);
    }

    #[test]
    fn presets_round_trip_names() {
        for name in ["poisson", "bursty", "ramp"] {
            let p = ArrivalPattern::preset(name).expect("known preset");
            assert_eq!(p.name(), name);
        }
        assert!(ArrivalPattern::preset("tsunami").is_none());
    }
}
