//! The runtime workloads (`static`, `adaptive`): `streams` camera streams
//! served by one `MultiStreamRuntime` in repeated deployment episodes.
//!
//! An episode deploys every stream fresh at tick 0 (so all of them reach
//! their adaptation checks on the same ticks) and serves `ticks` ticks of
//! one seeded feed whose anomaly trend shifts from the trained class to
//! another halfway through. Episode `e` draws its feed from its own sub-seed,
//! so a run averages the adaptation work of several independent feeds; the
//! episode count follows from `--seconds` (see [`RuntimeShape::episodes`]). Episode 0 is the run's deterministic prefix
//! (digest and AUC).
//!
//! The traced form replays `MultiStreamRuntime::tick_with_plan` call for
//! call through the public pieces it is made of, with a clock around each.
//! It deploys fresh sessions where the runtime restores its streams to
//! their registration checkpoints, so equal per-episode digests also show
//! that restore ≡ fresh registration.

use crate::feed::{mix, TickFeed};
use crate::stats::Digest;
use crate::trace::{timed, Layers};
use crate::{Budget, Phase};
use akg_core::adapt::{AdaptConfig, AdaptEvent, ContinuousAdapter};
use akg_core::engine::{Engine, Session};
use akg_data::{Frame, SyntheticUcfCrime};
use akg_runtime::{
    FrameSource, MultiStreamRuntime, RuntimeConfig, StreamCheckpoint, StreamId, StreamPlan,
};
use akg_tensor::Workspace;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Size and mode of a runtime workload.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeShape {
    /// Streams served each tick.
    pub streams: usize,
    /// Ticks per deployment episode (the trend shifts at `ticks / 2`).
    pub ticks: usize,
    /// Whether the streams adapt (`false` is the static-KG baseline).
    pub adapt: bool,
    /// Seconds one episode takes on the reference host (2-vCPU VM); sizes
    /// the episode count so that a run lasts about `--seconds` there.
    pub nominal_episode_s: f64,
}

impl RuntimeShape {
    /// Episodes a run serves: as many as fit in `budget.seconds` at the
    /// nominal episode length, and enough for `budget.min_samples` ticks.
    /// The count does not depend on how fast the host runs, so every run of
    /// a seed serves the same work: with a time-based stop a fast host fitted
    /// one more episode, with its own adaptation work, than a slow one.
    pub fn episodes(&self, budget: Budget) -> usize {
        let for_samples = budget.min_samples.div_ceil(self.ticks);
        ((budget.seconds / self.nominal_episode_s) as usize).max(for_samples).max(1)
    }

    /// Each stream's plan for every tick.
    fn plan(&self) -> StreamPlan {
        StreamPlan { ingest: 1, score: true, adapt: self.adapt }
    }
}

/// Frame-noise seed of stream `s`.
pub fn frame_seed(seed: u64, s: usize) -> u64 {
    mix(seed, 0x5EED_0000 + s as u64)
}

/// Adaptation settings of stream `s`: the defaults with a divergence
/// patience of 2, so prune/create fire as well as token updates (at the
/// prune ablation's 3, most seeds replace no node within an episode on this
/// feed; the default 5 is stricter still).
pub fn adapt_config(seed: u64, s: usize) -> AdaptConfig {
    AdaptConfig {
        divergence_patience: 2,
        seed: mix(seed, 0xADA0_0000 + s as u64),
        ..AdaptConfig::default()
    }
}

/// A stream's source inside the runtime: it hands over the frame the feed
/// placed in the stream's inbox slot before the tick.
pub struct Inbox {
    slots: Rc<RefCell<Vec<Option<Frame>>>>,
    stream: usize,
}

impl FrameSource for Inbox {
    fn next_frame(&mut self) -> (Frame, bool) {
        let frame = self.slots.borrow_mut()[self.stream]
            .take()
            .expect("the feed fills every inbox before a tick");
        (frame, false)
    }
}

/// One served tick as the episode loop sees it.
struct TickOut {
    scores: Vec<Option<f32>>,
    ingested: usize,
    rejected: usize,
    ns: u64,
}

/// Something that serves one tick of frames and can start a fresh episode.
trait TickTarget {
    fn begin_episode(&mut self);
    fn serve(&mut self, frames: &mut Vec<Frame>) -> TickOut;
    fn end_episode(&mut self) {}
    /// Lifetime `(token updates, node replacements)`.
    fn events(&self) -> (usize, usize);
}

/// The untraced target: the runtime itself, driven by `tick_with_plan`.
pub struct RuntimeTarget {
    rt: MultiStreamRuntime<Inbox>,
    inbox: Rc<RefCell<Vec<Option<Frame>>>>,
    fresh: Vec<StreamCheckpoint>,
    plans: Vec<StreamPlan>,
    episodes: usize,
}

impl RuntimeTarget {
    /// Moves `engine` into a runtime (one full `max_batch` dispatch per
    /// tick at 16 streams) and registers the workload's streams.
    pub fn register(engine: Engine, shape: RuntimeShape, seed: u64) -> Self {
        let mut rt = MultiStreamRuntime::new(engine, RuntimeConfig::default());
        let inbox = Rc::new(RefCell::new(vec![None; shape.streams]));
        for s in 0..shape.streams {
            let source = Inbox { slots: Rc::clone(&inbox), stream: s };
            rt.add_stream(source, frame_seed(seed, s), adapt_config(seed, s));
        }
        let fresh = (0..shape.streams).map(|s| rt.checkpoint_stream(s)).collect();
        RuntimeTarget { rt, inbox, fresh, plans: vec![shape.plan(); shape.streams], episodes: 0 }
    }

    /// The runtime's engine (the traced replay serves through it too).
    pub fn engine(&self) -> &Engine {
        self.rt.engine()
    }
}

impl TickTarget for RuntimeTarget {
    fn begin_episode(&mut self) {
        // The first episode serves the streams as registered; later ones
        // restore each stream to its registration-time checkpoint.
        if self.episodes > 0 {
            for (s, cp) in self.fresh.iter().enumerate() {
                self.rt.restore_stream_state(s, cp).expect("a fresh-stream checkpoint restores");
            }
        }
        self.episodes += 1;
    }

    fn serve(&mut self, frames: &mut Vec<Frame>) -> TickOut {
        {
            let mut inbox = self.inbox.borrow_mut();
            for (slot, frame) in inbox.iter_mut().zip(frames.drain(..)) {
                *slot = Some(frame);
            }
        }
        let before = self.rt.counters();
        let (scores, ns) = timed(|| self.rt.tick_with_plan(&self.plans));
        let after = self.rt.counters();
        TickOut {
            scores,
            ingested: after.frames - before.frames,
            rejected: after.rejected - before.rejected,
            ns,
        }
    }

    fn events(&self) -> (usize, usize) {
        let c = self.rt.counters();
        (c.token_updates, c.node_replacements)
    }
}

/// The traced target: the same calls `tick_with_plan` makes, in the same
/// order, each behind a clock.
pub struct TracedTarget<'e> {
    engine: &'e Engine,
    shape: RuntimeShape,
    seed: u64,
    max_batch: usize,
    sessions: Vec<Session>,
    adapters: Vec<ContinuousAdapter>,
    bytes_at_start: usize,
    workspace: Workspace,
    out: Vec<f32>,
    /// The attributed layer times and counts.
    pub layers: Layers,
}

impl<'e> TracedTarget<'e> {
    /// A replay over `engine` (which must be the runtime's engine).
    pub fn new(engine: &'e Engine, shape: RuntimeShape, seed: u64) -> Self {
        TracedTarget {
            engine,
            shape,
            seed,
            max_batch: RuntimeConfig::default().max_batch,
            sessions: Vec::new(),
            adapters: Vec::new(),
            bytes_at_start: 0,
            workspace: Workspace::new(),
            out: Vec::new(),
            layers: Layers::default(),
        }
    }

    fn state_bytes(&self) -> usize {
        self.sessions.iter().map(Session::state_bytes).sum()
    }
}

impl TickTarget for TracedTarget<'_> {
    fn begin_episode(&mut self) {
        // What `MultiStreamRuntime::add_stream` does for each stream.
        self.sessions.clear();
        self.adapters.clear();
        for s in 0..self.shape.streams {
            let mut session = self.engine.new_session(frame_seed(self.seed, s));
            let adapter =
                ContinuousAdapter::attach(self.engine, &mut session, adapt_config(self.seed, s));
            self.sessions.push(session);
            self.adapters.push(adapter);
        }
        self.bytes_at_start = self.state_bytes();
    }

    fn end_episode(&mut self) {
        let growth = self.state_bytes().saturating_sub(self.bytes_at_start);
        self.layers.overlay_growth.push(growth);
    }

    fn events(&self) -> (usize, usize) {
        (self.layers.adapt_token_updates, self.layers.adapt_replacements)
    }

    fn serve(&mut self, frames: &mut Vec<Frame>) -> TickOut {
        let engine = self.engine;
        let plan = self.shape.plan();
        let n = self.shape.streams;
        let window_len = engine.model.config().window;
        let layers = &mut self.layers;
        let tick_start = Instant::now();

        // Phase 1 — ingest.
        let (mut ingested, mut rejected) = (0usize, 0usize);
        for ((adapter, session), frame) in
            self.adapters.iter_mut().zip(self.sessions.iter_mut()).zip(frames.iter())
        {
            if frame.validate().is_err() {
                rejected += 1;
                continue;
            }
            let ((), ns) = timed(|| adapter.ingest_frame(engine, session, frame));
            layers.embed_ns.push(ns);
            ingested += 1;
        }

        // Phase 2 — score the planned streams in `max_batch` chunks.
        let active: Vec<StreamId> =
            (0..n).filter(|&i| plan.score && self.adapters[i].has_window()).collect();
        let mut scores: Vec<Option<f32>> = vec![None; n];
        for chunk in active.chunks(self.max_batch) {
            let mut flat_refs: Vec<&[f32]> = Vec::with_capacity(chunk.len() * window_len);
            let mut one: Vec<&[f32]> = Vec::with_capacity(window_len);
            for &i in chunk {
                self.adapters[i].fill_window_refs(engine, &mut one);
                flat_refs.extend_from_slice(&one);
            }
            let batch: Vec<(&Session, &[&[f32]])> = chunk
                .iter()
                .enumerate()
                .map(|(j, &i)| {
                    (&self.sessions[i], &flat_refs[j * window_len..(j + 1) * window_len])
                })
                .collect();
            let (workspace, out) = (&mut self.workspace, &mut self.out);
            let ((), ns) = timed(|| engine.score_windows_batch_refs(&batch, workspace, out));
            layers.score_ns += u128::from(ns);
            layers.score_windows += chunk.len();
            layers.runtime_dispatches += 1;
            for (j, &i) in chunk.iter().enumerate() {
                scores[i] = Some(self.out[j]);
            }
        }

        // Phase 3 — complete: classify each call by what it appended.
        for &i in &active {
            let score = scores[i].expect("active stream was scored");
            let (adapter, session) = (&mut self.adapters[i], &mut self.sessions[i]);
            if plan.adapt {
                let events_before = adapter.events().len();
                let ((), ns) = timed(|| adapter.complete_frame(engine, session, score));
                layers.adapt_ns += u128::from(ns);
                if adapter.observed().is_multiple_of(adapter.config().interval) {
                    layers.adapt_checks += 1;
                }
                let mut updated = false;
                for event in &adapter.events()[events_before..] {
                    match event {
                        AdaptEvent::TokenUpdate { .. } => {
                            layers.adapt_token_updates += 1;
                            updated = true;
                        }
                        AdaptEvent::NodeReplaced { .. } => layers.adapt_replacements += 1,
                    }
                }
                if updated {
                    layers.adapt_update_ns.push(ns);
                }
            } else {
                let ((), ns) = timed(|| adapter.complete_frame_skip_adapt(score));
                layers.adapt_ns += u128::from(ns);
            }
        }
        let ns = tick_start.elapsed().as_nanos() as u64;
        layers.wall_ns += u128::from(ns);
        layers.runtime_frames += ingested;
        TickOut { scores, ingested, rejected, ns }
    }
}

/// Serves the shape's episode count for `budget`.
fn run_episodes(
    target: &mut impl TickTarget,
    ds: &Arc<SyntheticUcfCrime>,
    shape: RuntimeShape,
    seed: u64,
    budget: Budget,
) -> Phase {
    let mut phase = Phase::start();
    let mut frames: Vec<Frame> = Vec::with_capacity(shape.streams);
    let mut labels: Vec<bool> = Vec::with_capacity(shape.streams);
    let events_at_start = target.events();
    for _ in 0..shape.episodes(budget) {
        target.begin_episode();
        let events_before = target.events();
        let episode_seed = mix(seed, 0xE915_0DE0 + phase.episodes.len() as u64);
        let mut feed = TickFeed::new(ds, shape.streams, episode_seed, shape.ticks / 2);
        let mut digest = Digest::default();
        for _ in 0..shape.ticks {
            feed.next_tick(&mut frames, &mut labels);
            let out = target.serve(&mut frames);
            phase.ledger.attempted += shape.streams;
            phase.ledger.scored += out.ingested;
            phase.ledger.failed += out.rejected;
            phase.serve_ns += u128::from(out.ns);
            phase.latencies_ns.push(out.ns);
            for (score, &label) in out.scores.iter().zip(&labels) {
                let Some(score) = *score else { continue };
                phase.ledger.check_score(score);
                digest.push(score);
                if phase.episodes.is_empty() {
                    phase.prefix_scores.push(score);
                    phase.prefix_labels.push(label);
                }
            }
        }
        target.end_episode();
        let events = target.events();
        phase.episodes.push((digest, events.0 - events_before.0, events.1 - events_before.1));
    }
    let events = target.events();
    phase.token_updates = events.0 - events_at_start.0;
    phase.replacements = events.1 - events_at_start.1;
    phase.finish();
    phase
}

/// Measures the untraced runtime.
pub fn measure(
    target: &mut RuntimeTarget,
    ds: &Arc<SyntheticUcfCrime>,
    shape: RuntimeShape,
    seed: u64,
    budget: Budget,
) -> Phase {
    run_episodes(target, ds, shape, seed, budget)
}

/// Measures the traced replay over the runtime's engine.
pub fn measure_traced(
    engine: &Engine,
    ds: &Arc<SyntheticUcfCrime>,
    shape: RuntimeShape,
    seed: u64,
    budget: Budget,
) -> Phase {
    let mut target = TracedTarget::new(engine, shape, seed);
    let mut phase = run_episodes(&mut target, ds, shape, seed, budget);
    phase.layers = Some(target.layers);
    phase
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_seeds_are_distinct() {
        assert_ne!(frame_seed(1, 0), frame_seed(1, 1));
        assert_ne!(adapt_config(1, 0).seed, adapt_config(1, 1).seed);
        assert_eq!(adapt_config(1, 0).divergence_patience, 2);
    }
}
