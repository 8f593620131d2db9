//! Stage (C): continuous KG adaptive learning on the edge (paper Sec. III-D
//! and Fig. 4).
//!
//! The deployed system monitors the anomaly-score distribution. When the
//! windowed mean drops (`Δm = m_t − m_{t'} < 0`), the `K = |Δm| · N`
//! highest-scoring of the last `N` frames are taken as pseudo-anomalies and
//! backpropagated — updating **only** the KG token embeddings. Per-node
//! embedding movement is tracked: nodes whose step-to-step L2 movement keeps
//! *increasing* are diverging and get pruned and replaced by a fresh node
//! with a random token embedding and random edges at the same level.
//!
//! One [`ContinuousAdapter`] serves one stream: it owns the stream's score
//! tracker, embedding buffer, and drift state, and operates on the stream's
//! [`Session`] through a shared [`Engine`] — all its updates land in the
//! session's private table and KG copies, so concurrent streams adapt in
//! full isolation. [`ContinuousAdapter::observe`] is the single-stream
//! entry point; a batching runtime drives the same steps itself
//! ([`ContinuousAdapter::ingest_frame`], then a batched score, then
//! [`ContinuousAdapter::complete_frame`]).
//!
//! Scoring is incremental: a frame's reasoning embedding `f_t` depends only
//! on the frame and the session's KGs, layouts and table, so the adapter
//! keeps the rows of its newest `T` frames and runs each frame through the
//! GNNs once, not once per window it falls in
//! ([`ContinuousAdapter::score_windows`]). The rows are dropped whenever
//! [`Session::state_stamp`] moves.
//!
//! A token update's work scales with the KGs and the distinct buffered
//! frames, not with the table: SGD runs on one compact `[r, dim]` leaf of
//! the `r` token rows the session's KGs reference
//! ([`TableRows`](crate::tokenize::TableRows)). Each SGD epoch builds every
//! KG's node rows once from that leaf and runs all distinct buffered frames
//! through each KG's GNN in one stacked pass (one matmul per layer); the
//! pseudo-labelled windows share those per-frame embeddings and run through
//! the temporal model and head in one pass
//! ([`DecisionModel::windows_logits`](crate::model::DecisionModel::windows_logits)).
//! The trained rows are written back into the session's table overlay.

use crate::engine::{next_row, Engine, Session};
use crate::loss::{decision_loss_smoothed, LABEL_SMOOTHING, LAMBDA_SMT, LAMBDA_SPA};
use crate::model::{FrameGroup, NodeTemplate};
use akg_eval::MeanShiftTracker;
use akg_kg::modify::{create_node, repair_connectivity};
use akg_kg::NodeId;
use akg_tensor::nn::Module;
use akg_tensor::optim::{Optimizer, Sgd};
use akg_tensor::Workspace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;

/// SGD passes over the selected batch per trigger (the paper performs a full
/// backpropagation loop per adaptation).
pub const EPOCHS_PER_TRIGGER: usize = 2;

/// L2 clip on the token-table gradient per update (bounds per-update
/// embedding movement regardless of batch-norm amplification).
const MAX_GRAD_NORM: f32 = 1.0;

/// Adaptation hyperparameters. `n_window` is the paper's `N`; its reference
/// time `t'` is anchored at deployment (see [`MeanShiftTracker`]). The
/// divergence patience controls how many consecutive movement increases
/// count as divergence.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AdaptConfig {
    /// Sliding-window size `N` over recent anomaly scores.
    pub n_window: usize,
    /// Token-embedding learning rate.
    pub lr: f32,
    /// Run the adaptation check every this many observed frames.
    pub interval: usize,
    /// Minimum `K` that actually triggers an update.
    pub min_k: usize,
    /// Cap on `K` per adaptation (bounds edge compute per loop).
    pub max_k: usize,
    /// Consecutive movement increases before a node is declared divergent.
    pub divergence_patience: usize,
    /// Ignore movements below this threshold when judging divergence.
    pub movement_epsilon: f32,
    /// Cap on structural replacements over the deployment's lifetime
    /// (bounded by the token table's spare rows anyway).
    pub max_replacements: usize,
    /// RNG seed (node creation wiring).
    pub seed: u64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            n_window: 64,
            lr: 0.01,
            interval: 32,
            min_k: 2,
            max_k: 6,
            divergence_patience: 5,
            movement_epsilon: 2e-3,
            max_replacements: 4,
            seed: 0,
        }
    }
}

/// A notable event during adaptation, for experiment logging.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AdaptEvent {
    /// Token embeddings were updated from `k` pseudo-anomalies.
    TokenUpdate {
        /// Number of pseudo-anomaly windows used.
        k: usize,
        /// Adaptation loss value.
        loss: f32,
        /// Mean shift Δm that triggered the update.
        delta_m: f32,
    },
    /// A divergent node was pruned and replaced (Fig. 4 B→C).
    NodeReplaced {
        /// Which mission KG.
        kg: usize,
        /// The pruned node.
        pruned: NodeId,
        /// The pruned node's concept text.
        concept: String,
        /// The created node.
        created: NodeId,
        /// The level the replacement lives at.
        level: usize,
    },
}

#[derive(Debug, Clone)]
struct DriftState {
    last_embedding: Vec<f32>,
    last_movement: f32,
    rising_streak: usize,
}

/// One node's persisted drift-tracking entry (see [`AdaptSnapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftEntry {
    /// Mission-KG index.
    pub kg: usize,
    /// Node id (raw).
    pub node: usize,
    /// Last observed mean token embedding.
    pub last_embedding: Vec<f32>,
    /// Last step-to-step L2 movement.
    pub last_movement: f32,
    /// Consecutive movement increases so far.
    pub rising_streak: usize,
}

/// The persistable half of a [`ContinuousAdapter`]: everything needed to
/// resume the adaptation loop mid-stream with identical behaviour (score
/// tracker, embedding buffer, drift states, wiring RNG) plus the lifetime
/// token-update and replacement counts, so a restored stream reports the
/// same totals as one that never stopped. The event log
/// ([`ContinuousAdapter::events`]) is logging-only and not persisted.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AdaptSnapshot {
    /// The mean-shift tracker (score window, reference state).
    pub tracker: MeanShiftTracker,
    /// Recent frame embeddings, oldest first.
    pub buffer: Vec<Vec<f32>>,
    /// Per-node drift-tracking states.
    pub drift: Vec<DriftEntry>,
    /// Node-creation wiring RNG state (xoshiro256++ words).
    pub rng: Vec<u64>,
    /// Token updates performed over the stream's lifetime.
    pub token_updates: usize,
    /// Structural replacements performed over the stream's lifetime.
    pub replacements: usize,
    /// Frames observed so far.
    pub observed: usize,
    /// Created-node naming counter.
    pub adapted_node_counter: usize,
}

/// The continuous KG adaptive learner deployed alongside one stream.
#[derive(Debug)]
pub struct ContinuousAdapter {
    cfg: AdaptConfig,
    tracker: MeanShiftTracker,
    /// Recent frame embeddings, oldest first (capacity `n_window`).
    buffer: VecDeque<Vec<f32>>,
    drift: HashMap<(usize, NodeId), DriftState>,
    rng: StdRng,
    token_updates: usize,
    replacements: usize,
    observed: usize,
    events: Vec<AdaptEvent>,
    adapted_node_counter: usize,
    /// Frames ingested since attach or restore: buffered frame `b` is
    /// ingest number `ingested − buffer.len() + b`.
    ingested: u64,
    ring: RowRing,
}

/// The reasoning rows `f_t` of the newest `T` buffered frames, slot
/// `seq mod T` holding ingest number `seq`. A row depends on its frame
/// (fixed once buffered), the engine (whose weights and backend stay fixed
/// while adapters serve) and the session's table, KGs and layouts — so the
/// ring records the [`Session::state_stamp`] its rows and node templates
/// were computed against and drops them all when the stamp moves. Rows are
/// filled lazily, when a window that needs them is scored. The ring is
/// never checkpointed: a restored adapter starts empty.
#[derive(Debug)]
struct RowRing {
    /// The session stamp the rows and templates belong to (0: none yet).
    stamp: u64,
    /// Per slot, its row's ingest number + 1 (0: empty).
    tags: Vec<u64>,
    /// `[T, D]` rows.
    rows: Vec<f32>,
    /// One node template per mission KG.
    templates: Vec<NodeTemplate>,
    /// Frames run through the GNN stage over the adapter's lifetime.
    computed: u64,
}

impl RowRing {
    fn new(engine: &Engine) -> Self {
        let t = engine.model.config().window;
        RowRing {
            stamp: 0,
            tags: vec![0; t],
            rows: vec![0.0; t * engine.model.reasoning_dim()],
            templates: Vec::new(),
            computed: 0,
        }
    }

    fn slot(&self, seq: u64) -> usize {
        (seq % self.tags.len() as u64) as usize
    }

    fn holds(&self, seq: u64) -> bool {
        self.tags[self.slot(seq)] == seq + 1
    }
}

impl ContinuousAdapter {
    /// Creates the adapter for one stream's session. Freezes the shared
    /// model (adaptation trains only the session's token rows) and snapshots
    /// the session's node embeddings for drift tracking.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.interval == 0` (the adaptation check would never run).
    pub fn attach(engine: &Engine, session: &mut Session, cfg: AdaptConfig) -> Self {
        assert!(cfg.interval > 0, "AdaptConfig::interval must be positive");
        engine.model.set_frozen(true);
        let mut adapter = ContinuousAdapter {
            tracker: MeanShiftTracker::new(cfg.n_window),
            buffer: VecDeque::with_capacity(cfg.n_window),
            drift: HashMap::new(),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0xADA7),
            token_updates: 0,
            replacements: 0,
            observed: 0,
            events: Vec::new(),
            adapted_node_counter: 0,
            ingested: 0,
            ring: RowRing::new(engine),
            cfg,
        };
        adapter.snapshot_drift(session);
        adapter
    }

    fn snapshot_drift(&mut self, session: &Session) {
        for (ki, tkg) in session.kgs.iter().enumerate() {
            for (id, tokens) in &tkg.node_tokens {
                self.drift.entry((ki, *id)).or_insert_with(|| DriftState {
                    last_embedding: session.table.node_embedding_data(tokens),
                    last_movement: 0.0,
                    rising_streak: 0,
                });
            }
        }
    }

    /// The adaptation configuration.
    pub fn config(&self) -> &AdaptConfig {
        &self.cfg
    }

    /// Events recorded since the adapter was attached or restored (the log
    /// is not checkpointed; the lifetime counts are
    /// [`ContinuousAdapter::token_updates`] and
    /// [`ContinuousAdapter::replacements`]).
    pub fn events(&self) -> &[AdaptEvent] {
        &self.events
    }

    /// Token updates performed over the stream's lifetime, including those
    /// before a restore.
    pub fn token_updates(&self) -> usize {
        self.token_updates
    }

    /// Structural replacements performed over the stream's lifetime,
    /// including those before a restore.
    pub fn replacements(&self) -> usize {
        self.replacements
    }

    /// Frames observed so far.
    pub fn observed(&self) -> usize {
        self.observed
    }

    /// Whether at least one frame has been ingested — i.e. whether the
    /// window buffer can back a scoring pass. The serving runtime checks
    /// this before scoring a stream whose frames have all been rejected at
    /// ingest validation.
    pub fn has_window(&self) -> bool {
        !self.buffer.is_empty()
    }

    /// The current mean shift Δm.
    pub fn delta_m(&self) -> f32 {
        self.tracker.delta_m()
    }

    /// Observes one deployed frame: embeds and buffers it, scores its
    /// rolling window against the session, and — every `interval` frames —
    /// runs the adaptation check. Returns the anomaly score. This is exactly
    /// the runtime's per-stream sequence ([`ContinuousAdapter::ingest_frame`],
    /// [`ContinuousAdapter::score_windows`], then
    /// [`ContinuousAdapter::complete_frame`]) with a batch of one, and its
    /// score is bitwise [`Engine::score_window_refs`] over
    /// [`ContinuousAdapter::fill_window_refs`]'s window.
    pub fn observe(
        &mut self,
        engine: &Engine,
        session: &mut Session,
        frame: &akg_data::Frame,
    ) -> f32 {
        self.ingest_frame(engine, session, frame);
        let score = {
            let session = &*session;
            let mut ws = session.workspace();
            let mut out = ws.lease_vec();
            Self::score_windows(engine, &mut [(&mut *self, session)], &mut ws, &mut out);
            let score = out[0];
            ws.release_vec(out);
            score
        };
        self.complete_frame(engine, session, score);
        score
    }

    /// Scores the current window of every `(adapter, session)` pair in one
    /// dispatch, appending one anomaly score per pair to `out` (cleared
    /// first): the incremental form of [`Engine::score_windows_batch_refs`]
    /// over the windows [`ContinuousAdapter::fill_window_refs`] returns, and
    /// bitwise equal to it.
    ///
    /// Each adapter first drops its rows if its session's
    /// [`Session::state_stamp`] moved. The frames whose rows are missing —
    /// one per stream on a warm tick, at most `T` after the session changed
    /// — run through one GNN-stage call
    /// ([`crate::model::DecisionModel::reasoning_rows_batch_infer`]) and
    /// land in their adapters' rings. The windows are then assembled from
    /// the rings and run through the temporal + head stage once
    /// ([`crate::model::DecisionModel::temporal_probs_batch_infer`]).
    ///
    /// # Panics
    ///
    /// Panics if `streams` is empty or an adapter has no window yet (see
    /// [`ContinuousAdapter::has_window`]).
    pub fn score_windows(
        engine: &Engine,
        streams: &mut [(&mut ContinuousAdapter, &Session)],
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) {
        assert!(!streams.is_empty(), "score_windows: empty batch");
        let model = &engine.model;
        let (t, d) = (model.config().window, model.reasoning_dim());
        let mut missing = 0usize;
        for (adapter, session) in streams.iter_mut() {
            assert!(adapter.has_window(), "score_windows: no frame ingested");
            missing += adapter.prepare_rows(engine, session);
        }
        if missing > 0 {
            let mut frames: Vec<&[f32]> = Vec::with_capacity(missing);
            let mut counts = ws.lease_idx();
            for (adapter, _) in streams.iter() {
                let before = frames.len();
                frames.extend(adapter.missing_frames(engine).map(|b| adapter.buffer[b].as_slice()));
                counts.push(frames.len() - before);
            }
            let mut groups: Vec<FrameGroup<'_>> = Vec::with_capacity(streams.len());
            let mut next = 0usize;
            for ((adapter, session), &count) in streams.iter().zip(counts.iter()) {
                if count > 0 {
                    groups.push(FrameGroup {
                        layouts: &session.layouts,
                        templates: &adapter.ring.templates,
                        frames: &frames[next..next + count],
                    });
                    next += count;
                }
            }
            // At most one frame per stream is the steady shape, and the
            // caller's workspace keeps its buffers. Any other count (a
            // session that just changed, a multi-frame ingest) runs on
            // scratch dropped on return: exact-size pools would otherwise
            // keep a buffer set for every count ever served.
            let mut scratch = Workspace::new();
            let gnn_ws =
                if counts.iter().all(|&count| count <= 1) { &mut *ws } else { &mut scratch };
            let mut rows = gnn_ws.lease(missing * d);
            model.reasoning_rows_batch_infer(&groups, &mut rows, gnn_ws);
            drop(groups);
            drop(frames);
            let mut next = 0usize;
            for ((adapter, _), &count) in streams.iter_mut().zip(counts.iter()) {
                adapter.store_rows(engine, &rows[next * d..(next + count) * d]);
                next += count;
            }
            gnn_ws.release(rows);
            ws.release_idx(counts);
        }
        let mut seq = ws.lease(streams.len() * t * d);
        for ((adapter, _), window) in streams.iter().zip(seq.chunks_exact_mut(t * d)) {
            adapter.fill_window_rows(engine, window);
        }
        let mut lens = ws.lease_idx();
        lens.resize(streams.len(), t);
        let mut probs = ws.lease_vec();
        model.temporal_probs_batch_infer(&seq, &lens, ws, &mut probs);
        out.clear();
        out.extend(probs.chunks_exact(model.n_classes()).map(|p| 1.0 - p[0]));
        ws.release_vec(probs);
        ws.release_idx(lens);
        ws.release(seq);
    }

    /// Frames this adapter has run through the GNN stage since attach or
    /// restore — a probe for tests of the row ring, not a serving counter.
    #[doc(hidden)]
    pub fn gnn_frames(&self) -> u64 {
        self.ring.computed
    }

    /// Ingest number of buffered frame `b`.
    fn seq_of(&self, b: usize) -> u64 {
        self.ingested - self.buffer.len() as u64 + b as u64
    }

    /// Buffer indices of the current window's distinct frames, oldest
    /// first (the window repeats the first of them while warming up).
    fn window_frames(&self, engine: &Engine) -> Range<usize> {
        let window_len = engine.model.config().window;
        self.buffer.len().saturating_sub(window_len)..self.buffer.len()
    }

    /// Buffer indices of the current window's frames the ring lacks.
    fn missing_frames<'a>(&'a self, engine: &Engine) -> impl Iterator<Item = usize> + 'a {
        self.window_frames(engine).filter(|&b| !self.ring.holds(self.seq_of(b)))
    }

    /// If the session's stamp moved, drops every row and rebuilds the node
    /// templates (the whole window is then missing, so they are needed).
    /// Returns how many of the window's rows are missing.
    fn prepare_rows(&mut self, engine: &Engine, session: &Session) -> usize {
        let stamp = session.state_stamp();
        if self.ring.stamp != stamp {
            let ring = &mut self.ring;
            ring.stamp = stamp;
            ring.tags.fill(0);
            ring.templates.resize_with(session.kgs.len(), NodeTemplate::default);
            for ((tkg, layout), template) in
                session.kgs.iter().zip(session.layouts.iter()).zip(&mut ring.templates)
            {
                engine.model.node_template_into(tkg, layout, &session.table, template);
            }
        }
        self.missing_frames(engine).count()
    }

    /// Stores freshly computed rows for the window's missing frames, in
    /// [`ContinuousAdapter::missing_frames`] order.
    fn store_rows(&mut self, engine: &Engine, rows: &[f32]) {
        let d = engine.model.reasoning_dim();
        let mut fresh = rows.chunks_exact(d);
        for b in self.window_frames(engine) {
            let seq = self.seq_of(b);
            if self.ring.holds(seq) {
                continue;
            }
            let row = fresh.next().expect("store_rows: one row per missing frame");
            let slot = self.ring.slot(seq);
            self.ring.rows[slot * d..(slot + 1) * d].copy_from_slice(row);
            self.ring.tags[slot] = seq + 1;
            self.ring.computed += 1;
        }
        assert!(fresh.next().is_none(), "store_rows: more rows than missing frames");
    }

    /// Writes the current window's `[T, D]` rows from the ring into `out`,
    /// padded as [`ContinuousAdapter::fill_window_refs`] pads frames.
    fn fill_window_rows(&self, engine: &Engine, out: &mut [f32]) {
        let d = engine.model.reasoning_dim();
        for (b, dst) in window_span(engine, self.buffer.len() - 1).zip(out.chunks_exact_mut(d)) {
            let slot = self.ring.slot(self.seq_of(b));
            dst.copy_from_slice(&self.ring.rows[slot * d..(slot + 1) * d]);
        }
    }

    /// First step of one observation: embeds the frame through the
    /// session's RNG and pushes it into the stream's rolling buffer. The
    /// window to score is then read with
    /// [`ContinuousAdapter::fill_window_refs`], and its score handed back
    /// through [`ContinuousAdapter::complete_frame`].
    pub fn ingest_frame(
        &mut self,
        engine: &Engine,
        session: &mut Session,
        frame: &akg_data::Frame,
    ) {
        let mut embedding = next_row(&mut self.buffer, self.cfg.n_window, engine.space.dim());
        engine.embed_frame_into(session, frame, &mut embedding);
        self.buffer.push_back(embedding);
        self.ingested += 1;
    }

    /// Appends the current rolling score window (ending at the newest
    /// ingested frame, front-padded to the model's window length by
    /// borrowing the oldest in-window frame) to `out` as borrowed slices —
    /// zero embedding copies. `out` is cleared first so a caller-reused
    /// buffer always carries exactly one window.
    ///
    /// # Panics
    ///
    /// Panics if no frame has been ingested yet.
    pub fn fill_window_refs<'a>(&'a self, engine: &Engine, out: &mut Vec<&'a [f32]>) {
        assert!(!self.buffer.is_empty(), "fill_window_refs: no frame ingested");
        out.clear();
        out.extend(window_span(engine, self.buffer.len() - 1).map(|i| self.buffer[i].as_slice()));
    }

    /// Last step of one observation: records the score produced for the
    /// window [`ContinuousAdapter::fill_window_refs`] returned and — every
    /// `interval` frames — runs the adaptation check against the session.
    pub fn complete_frame(&mut self, engine: &Engine, session: &mut Session, score: f32) {
        self.complete_frame_skip_adapt(score);
        if self.observed.is_multiple_of(self.cfg.interval) {
            self.adapt_now(engine, session);
        }
    }

    /// The degraded second half of one observation: records the score into
    /// the drift tracker (so trend statistics stay live) and counts the
    /// frame as observed, but never runs the adaptation check — no
    /// pseudo-label backprop, no prune/create restructuring. The serving
    /// runtime's "skip adaptation" degrade rung completes frames through
    /// this under ingest pressure; once pressure clears and frames complete
    /// through [`ContinuousAdapter::complete_frame`] again, the next
    /// `interval` boundary that lands on a fully-completed frame triggers
    /// the check as usual.
    pub fn complete_frame_skip_adapt(&mut self, score: f32) {
        self.tracker.push(score);
        self.observed += 1;
    }

    /// Runs one adaptation check immediately: computes `K = |Δm| · N`,
    /// updates the session's token embeddings from the top-K recent frames
    /// if the trigger fires, then applies the drift-based prune/create rule.
    /// Returns the number of pseudo-anomalies used (0 when the trigger did
    /// not fire).
    pub fn adapt_now(&mut self, engine: &Engine, session: &mut Session) -> usize {
        let k = self.tracker.adaptation_k().min(self.cfg.max_k);
        if k < self.cfg.min_k || self.buffer.len() < self.cfg.n_window / 2 {
            return 0;
        }
        let delta_m = self.tracker.delta_m();
        let loss = self.token_update(engine, session, k);
        self.token_updates += 1;
        self.events.push(AdaptEvent::TokenUpdate { k, loss, delta_m });
        self.update_drift_and_restructure(session);
        k
    }

    /// One token-embedding update from the top-K scored recent frames
    /// (pseudo-anomalies) balanced with the K lowest-scored (pseudo-normal)
    /// frames.
    fn token_update(&mut self, engine: &Engine, session: &mut Session, k: usize) -> f32 {
        let scores = self.tracker.window().scores();
        let offset = self.buffer.len().saturating_sub(scores.len());
        let mut order: Vec<usize> = (0..scores.len()).collect();
        // Highest first, by `total_cmp`: a total order even with NaN scores
        // (a comparator that calls NaN equal to everything may panic the
        // sort), and for finite scores the `partial_cmp` order, since a
        // score `1 − p` is never −0.
        order.sort_by(|&a, &b| scores[b].total_cmp(&scores[a]));
        // Confidence floor: a pseudo-anomaly must stand out from the current
        // score distribution (mean + ½σ). Right after a strong shift the
        // top-K is only weakly enriched in true anomalies; training on
        // barely-above-average frames reinforces noise and can invert the
        // detector.
        let floor = self.tracker.current_mean() + 0.5 * self.tracker.window().std();
        let anomalies: Vec<usize> =
            order.iter().copied().filter(|&i| scores[i] >= floor).take(k).collect();
        if anomalies.is_empty() {
            return 0.0;
        }
        // Twice as many pseudo-normals as pseudo-anomalies: contaminated
        // positive selections otherwise inflate normal scores in lockstep.
        let normals: Vec<usize> = order.iter().rev().copied().take(2 * anomalies.len()).collect();
        let buffered = |idx: usize| idx.checked_add(offset).filter(|&b| b < self.buffer.len());

        // Pseudo-labels: each anomaly window gets the mission class with
        // the highest current conditional probability. All of them are
        // scored in one batched forward over borrowed frames; each row is
        // bitwise what scoring that window alone gives.
        let labelled: Vec<(usize, usize)> =
            anomalies.iter().filter_map(|&i| buffered(i).map(|end| (i, end))).collect();
        let mut labels: Vec<usize> = Vec::with_capacity(labelled.len());
        if !labelled.is_empty() {
            let label_windows: Vec<Vec<&[f32]>> = labelled
                .iter()
                .map(|&(_, end)| {
                    window_span(engine, end).map(|b| self.buffer[b].as_slice()).collect()
                })
                .collect();
            let mut probs = Vec::new();
            engine.predict_windows_refs(session, &label_windows, &mut probs);
            labels.extend(probs.chunks_exact(engine.model.n_classes()).map(|p| {
                1 + p[1..]
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            }));
        }

        // Each selected window as positions into `frames`, the distinct
        // buffered frames the windows draw on (keyed by buffer index), so
        // every frame runs through the GNNs once per epoch however many
        // windows share it.
        let mut slot_of: Vec<Option<usize>> = vec![None; self.buffer.len()];
        let mut frames: Vec<&[f32]> = Vec::new();
        let mut windows: Vec<Vec<usize>> = Vec::with_capacity(3 * anomalies.len());
        let mut targets: Vec<usize> = Vec::with_capacity(3 * anomalies.len());
        for &idx in anomalies.iter().chain(&normals) {
            let Some(buf_idx) = buffered(idx) else { continue };
            // anomalies take their pseudo-label; normals class 0
            let target = labelled.iter().position(|&(i, _)| i == idx).map_or(0, |pos| labels[pos]);
            let window = window_span(engine, buf_idx)
                .map(|b| {
                    *slot_of[b].get_or_insert_with(|| {
                        frames.push(&self.buffer[b]);
                        frames.len() - 1
                    })
                })
                .collect();
            windows.push(window);
            targets.push(target);
        }
        if windows.is_empty() {
            return 0.0;
        }

        // SGD on one compact leaf of the rows the session's KGs reference,
        // loaded from (and written back to) the session table. Untouched rows
        // would only contribute exact zeros,
        // so clipping the compact gradient (summed in ascending row order)
        // equals clipping the full-capacity one. Plain SGD, deliberately:
        // scale-free optimizers (Adam family) move noise coordinates exactly
        // as fast as signal coordinates, so contaminated pseudo-labels would
        // drift the tokens as strongly as true anomaly signal. With SGD the
        // update magnitude is proportional to gradient consistency and
        // selection noise self-cancels. Momentum is zero, so a fresh
        // optimizer per trigger carries no lost state.
        let rows = session.table.leaf_rows(session.referenced_rows());
        let mut optimizer = Sgd::new(vec![rows.values().clone()], self.cfg.lr);
        let mut last_loss = 0.0;
        for _ in 0..EPOCHS_PER_TRIGGER {
            let logits = engine.model.windows_logits(
                &session.kgs,
                &session.layouts,
                &rows,
                &frames,
                &windows,
            );
            let loss =
                decision_loss_smoothed(&logits, &targets, LABEL_SMOOTHING, LAMBDA_SPA, LAMBDA_SMT);
            optimizer.zero_grad();
            loss.backward();
            rows.values().clip_grad_norm(MAX_GRAD_NORM);
            optimizer.step();
            last_loss = loss.item();
        }
        session.table.write_rows(&rows);
        last_loss
    }

    /// Fig. 4: after a token update, measure each node's embedding movement;
    /// non-increasing movement = converging (keep), increasing = diverging
    /// (prune + create a random-embedding replacement at the same level).
    fn update_drift_and_restructure(&mut self, session: &mut Session) {
        let mut to_replace: Vec<(usize, NodeId, usize)> = Vec::new();
        for (ki, tkg) in session.kgs.iter().enumerate() {
            for (id, tokens) in &tkg.node_tokens {
                let current = session.table.node_embedding_data(tokens);
                let state = self.drift.entry((ki, *id)).or_insert_with(|| DriftState {
                    last_embedding: current.clone(),
                    last_movement: 0.0,
                    rising_streak: 0,
                });
                let movement = l2(&current, &state.last_embedding);
                if movement > state.last_movement + self.cfg.movement_epsilon {
                    state.rising_streak += 1;
                } else {
                    state.rising_streak = 0;
                }
                let diverged = state.rising_streak >= self.cfg.divergence_patience;
                let streak = state.rising_streak;
                state.last_embedding = current;
                state.last_movement = movement;
                if diverged {
                    to_replace.push((ki, *id, streak));
                }
            }
        }
        // Replace at most one node per adaptation cycle (the most divergent
        // one): mass replacements would destroy the KG's learned reasoning
        // in a single step. Ties go to the lowest (kg, node id), never to
        // the hash order the candidates were collected in.
        to_replace.sort_unstable_by_key(|&(ki, id, streak)| (std::cmp::Reverse(streak), ki, id));
        if let Some(&(ki, id, _)) = to_replace.first() {
            if self.replacements < self.cfg.max_replacements && session.table.spare_remaining() > 0
            {
                self.replace_node(session, ki, id);
            }
        }
    }

    /// Prune + create: the structural half of the adaptation mechanism.
    fn replace_node(&mut self, session: &mut Session, ki: usize, id: NodeId) {
        let Some(node) = session.kgs[ki].kg.node(id).cloned() else { return };
        // keep at least 2 nodes per level so the KG stays connected
        if session.kgs[ki].kg.node_ids_at_level(node.level).len() < 2 {
            return;
        }
        if session.kgs[ki].kg.prune_node(id).is_err() {
            return;
        }
        session.kgs[ki].unregister_node(id);
        self.drift.remove(&(ki, id));
        self.adapted_node_counter += 1;
        let concept = format!("<adapted-{}>", self.adapted_node_counter);
        let Ok(new_id) =
            create_node(&mut session.kgs[ki].kg, concept.clone(), node.level, &mut self.rng)
        else {
            session.rebuild_layout(ki);
            return;
        };
        let Ok(row) = session.table.allocate_random_row(&mut self.rng) else {
            // no spare capacity: keep the structural change, tokens default
            session.kgs[ki].register_node(new_id, vec![0]);
            session.rebuild_layout(ki);
            return;
        };
        session.kgs[ki].register_node(new_id, vec![row]);
        self.drift.insert(
            (ki, new_id),
            DriftState {
                last_embedding: session.table.row_data(row),
                last_movement: 0.0,
                rising_streak: 0,
            },
        );
        repair_connectivity(&mut session.kgs[ki].kg, &mut self.rng);
        session.rebuild_layout(ki);
        self.replacements += 1;
        self.events.push(AdaptEvent::NodeReplaced {
            kg: ki,
            pruned: id,
            concept: node.concept,
            created: new_id,
            level: node.level,
        });
    }

    /// Current embedding of every node of the session's KGs, keyed and
    /// ordered by `(kg, node)` so callers that fold over it (interpretable
    /// retrieval, Fig. 6 trajectories) are deterministic.
    pub fn node_embeddings(&self, session: &Session) -> BTreeMap<(usize, NodeId), Vec<f32>> {
        let mut out = BTreeMap::new();
        for (ki, tkg) in session.kgs.iter().enumerate() {
            for (id, tokens) in &tkg.node_tokens {
                out.insert((ki, *id), session.table.node_embedding_data(tokens));
            }
        }
        out
    }

    /// Captures the adapter's resumable state (see [`AdaptSnapshot`]).
    pub fn snapshot(&self) -> AdaptSnapshot {
        let mut drift: Vec<DriftEntry> = self
            .drift
            .iter()
            .map(|(&(kg, id), s)| DriftEntry {
                kg,
                node: id.0,
                last_embedding: s.last_embedding.clone(),
                last_movement: s.last_movement,
                rising_streak: s.rising_streak,
            })
            .collect();
        drift.sort_by_key(|e| (e.kg, e.node));
        AdaptSnapshot {
            tracker: self.tracker.clone(),
            buffer: self.buffer.iter().cloned().collect(),
            drift,
            rng: self.rng.export_state().to_vec(),
            token_updates: self.token_updates,
            replacements: self.replacements,
            observed: self.observed,
            adapted_node_counter: self.adapted_node_counter,
        }
    }

    /// Rebuilds an adapter mid-stream from a snapshot: the restored adapter
    /// continues the adaptation loop exactly where the saved one stopped
    /// (same tracker, buffer, drift streaks, wiring RNG, counters).
    ///
    /// # Panics
    ///
    /// Panics if `cfg.interval == 0` or the snapshot's RNG state is
    /// malformed.
    pub fn restore(
        engine: &Engine,
        session: &mut Session,
        cfg: AdaptConfig,
        snapshot: &AdaptSnapshot,
    ) -> Self {
        let mut adapter = Self::attach(engine, session, cfg);
        adapter.tracker = snapshot.tracker.clone();
        adapter.buffer = snapshot.buffer.iter().cloned().collect();
        adapter.ingested = adapter.buffer.len() as u64;
        adapter.drift = snapshot
            .drift
            .iter()
            .map(|e| {
                (
                    (e.kg, NodeId(e.node)),
                    DriftState {
                        last_embedding: e.last_embedding.clone(),
                        last_movement: e.last_movement,
                        rising_streak: e.rising_streak,
                    },
                )
            })
            .collect();
        let rng_words: [u64; 4] =
            snapshot.rng.as_slice().try_into().expect("AdaptSnapshot: rng must hold 4 words");
        adapter.rng = StdRng::restore_state(rng_words);
        adapter.token_updates = snapshot.token_updates;
        adapter.replacements = snapshot.replacements;
        adapter.observed = snapshot.observed;
        adapter.adapted_node_counter = snapshot.adapted_node_counter;
        adapter
    }
}

/// Buffer indices of the rolling window (length = model window) ending at
/// buffer index `end`, front-padded by repeating the oldest in-window frame.
fn window_span(engine: &Engine, end: usize) -> impl Iterator<Item = usize> {
    let window_len = engine.model.config().window;
    let start = end.saturating_sub(window_len - 1);
    std::iter::repeat_n(start, window_len - (end - start + 1)).chain(start..=end)
}

fn l2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f32>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SystemConfig;
    use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
    use akg_kg::AnomalyClass;

    /// The engine plus one session.
    fn setup() -> (Engine, Session, SyntheticUcfCrime) {
        let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
        let session = engine.new_session(0xF0F0);
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.015)
                .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
                .with_seed(21),
        );
        (engine, session, ds)
    }

    fn small_cfg() -> AdaptConfig {
        AdaptConfig { n_window: 24, interval: 8, min_k: 1, max_k: 4, ..AdaptConfig::default() }
    }

    /// Adds `bump` to every value of the given token rows, through the same
    /// leaf → write-back path a token update takes.
    fn bump_rows(session: &mut Session, mut rows: Vec<usize>, bump: f32) {
        rows.sort_unstable();
        rows.dedup();
        let leaf = session.table.leaf_rows(rows);
        leaf.values().update_data(|data| data.iter_mut().for_each(|v| *v += bump));
        session.table.write_rows(&leaf);
    }

    /// A frame that passes `Frame::validate` but whose weights cancel to a
    /// subnormal total embeds to a finite unit vector, and observing it
    /// leaves the stream's Δm finite (one NaN score would poison the score
    /// window's running sum and stop the stream adapting for good).
    #[test]
    fn cancelling_weights_embed_finite_and_keep_delta_m_finite() {
        let (engine, mut session, ds) = setup();
        let frame = akg_data::Frame {
            concepts: vec![
                ("walking".into(), 1e4),
                ("running".into(), -1e4),
                ("sitting".into(), 1e-40),
            ],
            label: None,
        };
        assert!(frame.validate().is_ok());
        let emb = engine.embed_frame(&mut session, &frame);
        assert!(emb.iter().all(|v| v.is_finite()), "embedding {emb:?}");
        let norm = emb.iter().map(|v| v * v).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5, "norm {norm}");
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, AdaptConfig::default());
        adapter.observe(&engine, &mut session, &frame);
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.0, 2);
        for _ in 0..64 {
            let (normal, _) = stream.next_frame();
            adapter.observe(&engine, &mut session, &normal);
        }
        assert!(adapter.delta_m().is_finite(), "delta_m {}", adapter.delta_m());
    }

    #[test]
    fn observe_returns_scores_in_unit_interval() {
        let (engine, mut session, ds) = setup();
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, small_cfg());
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.3, 1);
        for _ in 0..30 {
            let (frame, _) = stream.next_frame();
            let score = adapter.observe(&engine, &mut session, &frame);
            assert!((0.0..=1.0).contains(&score), "score {score}");
        }
        assert_eq!(adapter.observed(), 30);
    }

    #[test]
    fn adaptation_mode_enforced() {
        let (engine, mut session, _) = setup();
        let _adapter = ContinuousAdapter::attach(&engine, &mut session, small_cfg());
        assert!(!engine.model.params()[0].requires_grad_flag());
    }

    #[test]
    fn token_update_changes_only_token_table() {
        let (engine, mut session, ds) = setup();
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, small_cfg());
        let model_before: Vec<Vec<f32>> =
            engine.model.params().iter().map(|p| p.to_vec()).collect();
        let table_before = session.table.to_dense_vec();
        // feed high-score anomalous frames then normals to force a mean drop
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 1.0, 2);
        for _ in 0..16 {
            let (f, _) = stream.next_frame();
            adapter.observe(&engine, &mut session, &f);
        }
        let mut normal_stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.0, 3);
        for _ in 0..24 {
            let (f, _) = normal_stream.next_frame();
            adapter.observe(&engine, &mut session, &f);
        }
        // force an update regardless of trigger state
        adapter.tracker = {
            let mut t = MeanShiftTracker::new(24);
            for _ in 0..24 {
                t.push(0.9);
            }
            for _ in 0..12 {
                t.push(0.1);
            }
            t
        };
        let k = adapter.adapt_now(&engine, &mut session);
        assert!(k >= 1, "adaptation did not trigger");
        let model_after: Vec<Vec<f32>> = engine.model.params().iter().map(|p| p.to_vec()).collect();
        assert_eq!(model_before, model_after, "frozen model changed");
        assert_ne!(table_before, session.table.to_dense_vec(), "token table unchanged");
        // the engine's template table is untouched by session adaptation
        assert_eq!(engine.table.to_dense_vec(), table_before);
    }

    /// A NaN score in the tracker window must not panic the token update:
    /// `sort_by` with a comparator that calls NaN equal to everything is
    /// not a total order, and the standard sort may panic on it.
    #[test]
    fn token_update_survives_nan_scores() {
        let (engine, mut session, ds) = setup();
        let cfg = AdaptConfig { n_window: 64, ..small_cfg() };
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, cfg);
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 5);
        for _ in 0..64 {
            let (f, _) = stream.next_frame();
            adapter.ingest_frame(&engine, &mut session, &f);
        }
        adapter.tracker = {
            let mut t = MeanShiftTracker::new(64);
            for i in 0..64 {
                t.push(if i % 3 == 0 { f32::NAN } else { (i * 37 % 64) as f32 / 64.0 });
            }
            t
        };
        adapter.token_update(&engine, &mut session, 4);
    }

    #[test]
    fn adaptation_never_touches_engine_template() {
        let (engine, mut session, ds) = setup();
        let engine_table_before = engine.table.to_dense_vec();
        let engine_kg_json = engine.kgs[0].kg.to_json().unwrap();
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, small_cfg());
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 7);
        for _ in 0..40 {
            let (f, _) = stream.next_frame();
            adapter.observe(&engine, &mut session, &f);
        }
        assert_eq!(engine.table.to_dense_vec(), engine_table_before);
        assert_eq!(engine.kgs[0].kg.to_json().unwrap(), engine_kg_json);
    }

    #[test]
    fn divergent_nodes_get_replaced() {
        let (engine, mut session, _) = setup();
        let cfg = AdaptConfig { divergence_patience: 1, ..small_cfg() };
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, cfg);
        // manufacture divergence: keep increasing one node's token embedding
        let (victim_id, rows) = {
            let tkg = &session.kgs[0];
            let (&id, tokens) = tkg.node_tokens.iter().next().unwrap();
            (id, tokens.clone())
        };
        let node_count_before = session.kgs[0].kg.node_count();
        for step in 1..=4 {
            bump_rows(&mut session, rows.clone(), step as f32 * 0.5); // growing movement
            adapter.update_drift_and_restructure(&mut session);
            if adapter.replacements() > 0 {
                break;
            }
        }
        assert!(adapter.replacements() > 0, "no replacement happened");
        assert!(session.kgs[0].kg.node(victim_id).is_none(), "victim not pruned");
        assert_eq!(session.kgs[0].kg.node_count(), node_count_before);
        let errors = session.kgs[0].kg.validate();
        assert!(errors.is_empty(), "{errors:?}");
        assert!(adapter.events().iter().any(|e| matches!(e, AdaptEvent::NodeReplaced { .. })));
    }

    #[test]
    fn tied_streaks_prune_the_lowest_node_id() {
        let (engine, mut session, _) = setup();
        let cfg = AdaptConfig { divergence_patience: 1, ..small_cfg() };
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, cfg);
        let tkg = &session.kgs[0];
        let mut row_users: HashMap<usize, usize> = HashMap::new();
        for rows in tkg.node_tokens.values() {
            for &r in rows {
                *row_users.entry(r).or_default() += 1;
            }
        }
        // Prunable candidates whose token rows no other node reads, in the
        // map's iteration order (the order the streaks are collected in).
        let candidates: Vec<NodeId> = tkg
            .node_tokens
            .iter()
            .filter(|(id, rows)| {
                let level = tkg.kg.node(**id).unwrap().level;
                tkg.kg.node_ids_at_level(level).len() >= 2 && rows.iter().all(|r| row_users[r] == 1)
            })
            .map(|(id, _)| *id)
            .collect();
        assert!(candidates.len() >= 2, "need two prunable nodes with private rows");
        // Prefer a pair the iteration order visits higher id first, so a
        // hash-order tie-break would prune the wrong one.
        let (first, second) = candidates
            .windows(2)
            .find(|w| w[0] > w[1])
            .map_or((candidates[0], candidates[1]), |w| (w[0], w[1]));
        let bumped: Vec<usize> = [first, second]
            .iter()
            .flat_map(|id| session.kgs[0].tokens_of(*id).unwrap().to_vec())
            .collect();
        bump_rows(&mut session, bumped, 0.5);
        adapter.update_drift_and_restructure(&mut session);
        assert_eq!(adapter.replacements(), 1);
        let (low, high) = (first.min(second), first.max(second));
        assert!(session.kgs[0].kg.node(low).is_none(), "lower id {low} not pruned");
        assert!(session.kgs[0].kg.node(high).is_some(), "higher id {high} pruned");
    }

    #[test]
    fn stable_embeddings_are_not_replaced() {
        let (engine, mut session, _) = setup();
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, small_cfg());
        for _ in 0..5 {
            adapter.update_drift_and_restructure(&mut session);
        }
        assert_eq!(adapter.replacements(), 0);
    }

    #[test]
    fn no_trigger_without_mean_drop() {
        let (engine, mut session, ds) = setup();
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, small_cfg());
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.2, 5);
        for _ in 0..60 {
            let (f, _) = stream.next_frame();
            adapter.observe(&engine, &mut session, &f);
        }
        // scores fluctuate but without an engineered drop most checks no-op;
        // the system must stay healthy either way
        assert!(session.kgs[0].kg.validate().is_empty());
    }

    #[test]
    fn snapshot_restore_round_trips() {
        let (engine, _, ds) = setup();
        let mut session = engine.new_session(55);
        let mut adapter = ContinuousAdapter::attach(&engine, &mut session, small_cfg());
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 9);
        for _ in 0..30 {
            let (f, _) = stream.next_frame();
            adapter.observe(&engine, &mut session, &f);
        }
        let snap = adapter.snapshot();
        let restored = ContinuousAdapter::restore(&engine, &mut session, small_cfg(), &snap);
        assert_eq!(restored.observed(), adapter.observed());
        assert_eq!(restored.token_updates(), adapter.token_updates());
        assert_eq!(restored.replacements(), adapter.replacements());
        assert_eq!(restored.delta_m(), adapter.delta_m());
        let resnap = restored.snapshot();
        assert_eq!(resnap.rng, snap.rng);
        assert_eq!(resnap.buffer, snap.buffer);
        assert_eq!(resnap.drift.len(), snap.drift.len());
        // (the full checkpoint → restore → continue-identically regression
        // lives in `persist::tests::session_checkpoint_resumes_bit_identically`)
    }
}
