//! The serving split of the deployed system: one immutable-after-build
//! [`Engine`] holding everything N concurrent streams can share (tokenizer,
//! joint space, trained token table, tokenized mission KGs, execution
//! layouts, decision model), and one small [`Session`] per stream holding
//! everything continuous adaptation mutates (a copy-on-write overlay of the
//! token table, KG copies and layouts, the frame-embedding RNG).
//!
//! The paper's deployment story (Fig. 2 stage C) is *continuous* scoring of
//! live streams on edge devices; this module is what lets one set of trained
//! weights serve many cameras at once. Per-stream isolation is by
//! construction: a session's pseudo-anomaly updates touch only its own table
//! fork and KG copies, never the engine's artifacts — so stream A's
//! adaptation can never perturb stream B's scores, and batched serving is
//! bit-identical to running each stream alone (property-tested in
//! `akg-runtime`).

use crate::config::ModelConfig;
use crate::model::{DecisionModel, InferWindowItem, KgLayout};
use crate::pipeline::akg_cost_dims::ModelDimsLike;
use crate::pipeline::{SystemConfig, FRAME_NOISE_STD};
use crate::tokenize::{TableRows, TokenTable, TokenizedKg};
use akg_data::Frame;
use akg_embed::{BpeTokenizer, JointSpace, JointSpaceBuilder};
use akg_kg::{generate_kg, AnomalyClass, Ontology, SyntheticOracle};
use akg_tensor::{Workspace, WorkspaceStats};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A copy-on-write vector: shared (an `Arc` into the engine's immutable
/// template) until first mutable access, at which point it silently
/// materializes a private owned copy. `Deref`/`DerefMut` make it a drop-in
/// replacement for `Vec` at every existing call site — reads never copy,
/// and `session.kgs[i].kg = …`-style writes trigger the materialization.
#[derive(Debug, Clone)]
pub struct CowVec<T: Clone> {
    repr: CowRepr<T>,
}

#[derive(Debug, Clone)]
enum CowRepr<T> {
    Shared(Arc<Vec<T>>),
    Owned(Vec<T>),
}

impl<T: Clone> CowVec<T> {
    /// A shared view of the given template (zero-copy).
    pub fn shared(data: Arc<Vec<T>>) -> Self {
        CowVec { repr: CowRepr::Shared(data) }
    }

    /// Whether the contents are still the shared template (no private copy
    /// has been materialized). Checkpoints use this to skip serializing
    /// state the engine can reconstruct.
    pub fn is_shared(&self) -> bool {
        matches!(self.repr, CowRepr::Shared(_))
    }
}

impl<T: Clone> Deref for CowVec<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        match &self.repr {
            CowRepr::Shared(arc) => arc,
            CowRepr::Owned(v) => v,
        }
    }
}

impl<T: Clone> DerefMut for CowVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        if let CowRepr::Shared(arc) = &self.repr {
            self.repr = CowRepr::Owned(arc.as_ref().clone());
        }
        match &mut self.repr {
            CowRepr::Owned(v) => v,
            CowRepr::Shared(_) => unreachable!("CowVec materialized above"),
        }
    }
}

impl<'a, T: Clone> IntoIterator for &'a CowVec<T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// The shareable, immutable-after-build half of a deployed system.
///
/// Everything here is fixed once [`Engine::build`] (plus initial training)
/// completes: model *parameters* live in interior-mutable tensors so the
/// training phase can update them, but the serving path never writes —
/// every scoring entry point takes `&self` and threads per-stream mutable
/// state through an explicit [`Session`].
#[derive(Debug)]
pub struct Engine {
    /// The deployed missions (one KG each).
    pub missions: Vec<AnomalyClass>,
    /// The BPE tokenizer (trained on the domain corpus).
    pub tokenizer: BpeTokenizer,
    /// The joint text/frame embedding space (ImageBind substitute).
    pub space: JointSpace,
    /// The token-embedding table — the *template* every session forks its
    /// copy-on-write overlay from. It has no written rows and is never
    /// written after build (test-enforced by
    /// `adaptation_never_touches_engine_template`), so its base is valid for
    /// the engine's lifetime.
    pub table: TokenTable,
    /// Tokenized mission KGs (session templates), `Arc`'d so overlay
    /// sessions can share them without copying.
    pub kgs: Arc<Vec<TokenizedKg>>,
    /// Execution layouts matching [`Engine::kgs`].
    pub layouts: Arc<Vec<KgLayout>>,
    /// The GNN + temporal + head decision model (shared by all sessions).
    pub model: DecisionModel,
    seed: u64,
}

/// Per-stream serving state: everything continuous adaptation mutates.
///
/// Sessions are cheap relative to the engine and fully isolated from each
/// other — the "session-local token-table delta" design made literal: a
/// session holds a *sparse copy-on-write overlay* over the engine's table
/// (adapted rows only) and shares the engine's KGs/layouts until the first
/// structural edit, so an unadapted session is a few hundred bytes, not a
/// full model copy. Checkpointing one captures exactly that delta; restoring
/// it and continuing is bit-identical to never stopping
/// (`tests/checkpoint_equivalence.rs`).
#[derive(Debug)]
pub struct Session {
    /// The stream's adaptive token table: an overlay over the engine's.
    pub table: TokenTable,
    /// The stream's KG copies — shared with the engine until structural
    /// adaptation first edits them.
    pub kgs: CowVec<TokenizedKg>,
    /// Execution layouts matching [`Session::kgs`].
    pub layouts: CowVec<KgLayout>,
    /// The stream's frame-embedding noise generator. Per-stream, so scoring
    /// one stream never perturbs another stream's embedding sequence.
    pub frame_rng: StdRng,
    /// The stream's reusable inference workspace: scratch buffers for the
    /// single-stream scoring paths, pooled so steady-state serving
    /// allocates nothing. Interior-mutable because scratch is not semantic
    /// session state — scoring stays `&self` / `&Session` everywhere.
    workspace: RefCell<Workspace>,
}

impl Session {
    /// Rebuilds the execution layout of KG `i` after structural change.
    pub fn rebuild_layout(&mut self, i: usize) {
        self.layouts[i] = KgLayout::new(&self.kgs[i]);
    }

    /// The sorted, de-duplicated token-table rows the session's KGs
    /// reference (see [`TableRows::referenced`]).
    pub fn referenced_rows(&self) -> Vec<usize> {
        TableRows::referenced(self.kgs.iter().zip(self.layouts.iter()))
    }

    /// Allocation counters of the session's inference workspace (the
    /// high-water mark stabilizes once every serving shape has been seen).
    pub fn workspace_stats(&self) -> WorkspaceStats {
        self.workspace.borrow().stats()
    }

    /// Estimated resident heap bytes this session *privately* owns: the
    /// table's written rows, plus KG/layout copies when materialized
    /// (shared templates count as pointer-sized). The session-tier bench
    /// reports this as bytes/session; it deliberately excludes the engine's
    /// shared artifacts and the transient workspace pools.
    pub fn state_bytes(&self) -> usize {
        let mut bytes = self.table.state_bytes();
        if self.kgs.is_shared() {
            bytes += std::mem::size_of::<Arc<Vec<TokenizedKg>>>();
        } else {
            for tkg in self.kgs.iter() {
                bytes += tokenized_kg_bytes(tkg);
            }
        }
        if self.layouts.is_shared() {
            bytes += std::mem::size_of::<Arc<Vec<KgLayout>>>();
        } else {
            for layout in self.layouts.iter() {
                bytes += layout_bytes(layout);
            }
        }
        bytes
    }
}

/// Estimated heap bytes of one tokenized KG copy (graph + token map +
/// mission embedding).
fn tokenized_kg_bytes(tkg: &TokenizedKg) -> usize {
    let node_bytes = tkg.kg.node_count() * (std::mem::size_of::<akg_kg::KgNode>() + 16);
    let edge_bytes = tkg.kg.edge_count() * std::mem::size_of::<(akg_kg::NodeId, akg_kg::NodeId)>();
    let token_bytes: usize = tkg
        .node_tokens
        .values()
        .map(|t| t.len() * std::mem::size_of::<usize>() + 2 * std::mem::size_of::<usize>())
        .sum();
    node_bytes + edge_bytes + token_bytes + tkg.mission_embedding.len() * 4
}

/// Estimated heap bytes of one execution layout copy.
fn layout_bytes(layout: &KgLayout) -> usize {
    let mut bytes = layout.rows.len() * std::mem::size_of::<akg_kg::NodeId>()
        + layout.row_of.len() * 3 * std::mem::size_of::<usize>();
    for level in &layout.levels {
        bytes += (level.srcs.len() + level.dsts.len()) * std::mem::size_of::<usize>()
            + (level.inv_counts.len() + level.keep_mask.len()) * 4;
    }
    bytes
}

impl Engine {
    /// Builds the engine for the given missions: trains the BPE tokenizer on
    /// the domain corpus, constructs the joint space with one cluster per
    /// anomaly class (anchoring every ontology concept), generates one
    /// mission-specific KG per mission, tokenizes them, and initializes the
    /// decision model.
    pub fn build(missions: &[AnomalyClass], config: &SystemConfig) -> Self {
        akg_tensor::par::set_parallelism(config.parallelism);
        akg_tensor::backend::set_backend(config.backend);
        let ontology = Ontology::new();
        let corpus = ontology.corpus();
        let tokenizer = BpeTokenizer::train(corpus.iter().map(String::as_str), config.vocab_budget);

        // One cluster per anomaly class. Normal-activity words are left
        // *unanchored*: their embeddings are scattered hash-noise
        // directions, so normal footage is directionally diverse — exactly
        // why a mission-trained detector cannot carve a "normal vs
        // everything else" one-class boundary and stays mission-specific
        // (the property Fig. 5's post-shift performance drop rests on).
        let mut space_builder =
            JointSpaceBuilder::new(config.model.embed_dim, AnomalyClass::ALL.len(), config.seed);
        for &(a, b, cos) in ontology.related_classes() {
            space_builder = space_builder.correlate(a.index(), b.index(), cos);
        }
        for class in AnomalyClass::ALL {
            let concepts = ontology.all_concepts(class);
            for (rank, word) in concepts.iter().enumerate() {
                // salient concepts anchor tighter to the class center
                let affinity = 0.85 - 0.3 * (rank as f32 / concepts.len().max(1) as f32);
                space_builder = space_builder.anchor(word, class.index(), affinity);
            }
        }
        let space = space_builder.build();

        let table = TokenTable::new(&tokenizer, &space, config.spare_rows);

        let mut kgs = Vec::with_capacity(missions.len());
        for (i, mission) in missions.iter().enumerate() {
            let mut oracle = SyntheticOracle::new(config.oracle, config.seed ^ (i as u64 + 1));
            let report = generate_kg(mission.name(), &config.generator, &mut oracle);
            let mission_embedding = space.embed_text(mission.name());
            kgs.push(TokenizedKg::new(report.kg, &tokenizer, mission_embedding));
        }
        let layouts: Vec<KgLayout> = kgs.iter().map(KgLayout::new).collect();
        let depths: Vec<usize> = kgs.iter().map(|t| t.kg.depth()).collect();
        let mut model = DecisionModel::new(&depths, &config.model.with_seed(config.seed));
        // Serving-plane precision is engine state: quantize the frozen
        // weight matrices once here (training later re-derives the codes
        // via `DecisionModel::refresh_quantized`). Sessions fork nothing
        // model-related, so adaptation stays f32 automatically.
        model.set_precision(config.precision);

        Engine {
            missions: missions.to_vec(),
            tokenizer,
            space,
            table,
            kgs: Arc::new(kgs),
            layouts: Arc::new(layouts),
            model,
            seed: config.seed,
        }
    }

    /// The master seed the engine was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The serving-plane precision the engine's model weights are held in.
    pub fn precision(&self) -> akg_tensor::Precision {
        self.model.precision()
    }

    /// Bytes the decision model's dense weight matrices occupy at the
    /// engine's precision (the footprint the paper's edge-deployment story
    /// cares about; ≈4× smaller under [`akg_tensor::Precision::Int8`]).
    pub fn model_bytes(&self) -> usize {
        self.model.weight_matrix_bytes()
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        self.model.config()
    }

    /// Creates a fresh per-stream session: a sparse copy-on-write fork of
    /// the engine's table, shared KG/layout templates (copied only on first
    /// structural edit), and a frame-embedding RNG seeded with `frame_seed`.
    /// The resident footprint is proportional to what adaptation actually
    /// touched.
    pub fn new_session(&self, frame_seed: u64) -> Session {
        Session {
            table: self.table.fork(),
            kgs: CowVec::shared(Arc::clone(&self.kgs)),
            layouts: CowVec::shared(Arc::clone(&self.layouts)),
            frame_rng: StdRng::seed_from_u64(frame_seed),
            workspace: RefCell::new(Workspace::new()),
        }
    }

    /// Encodes a frame into the joint space through the session's private
    /// noise RNG (the `E_I(F_t)` of the paper for our synthetic frames).
    pub fn embed_frame(&self, session: &mut Session, frame: &Frame) -> Vec<f32> {
        let activation = frame.activation();
        self.space.embed_bag(&activation, FRAME_NOISE_STD, &mut session.frame_rng)
    }

    /// Scores one window of frame embeddings against a session's adaptive
    /// state (anomaly score `p_A` of the last frame).
    ///
    /// Serving runs on the inference data plane (raw-slice forwards over
    /// the session's pooled workspace — no autograd, no steady-state
    /// allocation), bit-identical per backend to the autograd plane that
    /// training and adaptation still use.
    pub fn score_window(&self, session: &Session, window: &[Vec<f32>]) -> f32 {
        let refs: Vec<&[f32]> = window.iter().map(Vec::as_slice).collect();
        self.score_window_refs(session, &refs)
    }

    /// [`Engine::score_window`] over borrowed frame slices — the rolling
    /// window / pre-pad callers use this to score without cloning a single
    /// embedding buffer.
    pub fn score_window_refs(&self, session: &Session, window: &[&[f32]]) -> f32 {
        let mut ws = session.workspace.borrow_mut();
        self.model.anomaly_score_infer(
            &session.kgs,
            &session.layouts,
            &session.table,
            window,
            &mut ws,
        )
    }

    /// Class-probability prediction for one window (inference plane; see
    /// [`Engine::score_window`]).
    pub fn predict_window(&self, session: &Session, window: &[Vec<f32>]) -> Vec<f32> {
        let refs: Vec<&[f32]> = window.iter().map(Vec::as_slice).collect();
        let mut ws = session.workspace.borrow_mut();
        let mut out = Vec::new();
        self.model.predict_infer(
            &session.kgs,
            &session.layouts,
            &session.table,
            &refs,
            &mut ws,
            &mut out,
        );
        out
    }

    /// Differentiable logits `[windows.len(), n + 1]` for equal-length
    /// windows, one row per window, in one stacked forward over a constant
    /// view of the session's table (a training step runs through this;
    /// gradients reach the model while it is trainable). It is the same
    /// [`DecisionModel::windows_logits`] that adaptation trains through.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or the windows differ in length.
    pub fn windows_logits(&self, session: &Session, windows: &[&[Vec<f32>]]) -> akg_tensor::Tensor {
        let rows = session.table.view_rows(session.referenced_rows());
        let frames: Vec<&[f32]> =
            windows.iter().flat_map(|w| w.iter().map(Vec::as_slice)).collect();
        let mut next = 0;
        let positions: Vec<Vec<usize>> = windows
            .iter()
            .map(|w| {
                next += w.len();
                (next - w.len()..next).collect()
            })
            .collect();
        self.model.windows_logits(&session.kgs, &session.layouts, &rows, &frames, &positions)
    }

    /// Scores a cross-stream batch — `(session, window)` pairs from up to
    /// `max_batch` different streams — in **one** batched forward: one
    /// matmul per GNN layer over all windows and frames, one head matmul
    /// over all windows. Returns one anomaly score per pair, bit-identical
    /// to calling [`Engine::score_window`] on each pair alone.
    ///
    /// Runs on the inference data plane, scratch coming from the *first*
    /// session's workspace (workspace contents never affect results).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty or any window is empty.
    pub fn score_windows_batch(&self, batch: &[(&Session, &[Vec<f32>])]) -> Vec<f32> {
        assert!(!batch.is_empty(), "score_windows_batch: empty batch");
        let ref_windows: Vec<Vec<&[f32]>> =
            batch.iter().map(|(_, window)| window.iter().map(Vec::as_slice).collect()).collect();
        let ref_batch: Vec<(&Session, &[&[f32]])> = batch
            .iter()
            .zip(&ref_windows)
            .map(|(&(session, _), refs)| (session, refs.as_slice()))
            .collect();
        let mut ws = batch[0].0.workspace.borrow_mut();
        let mut out = Vec::with_capacity(batch.len());
        self.score_windows_batch_refs(&ref_batch, &mut ws, &mut out);
        out
    }

    /// The allocation-free core of [`Engine::score_windows_batch`]:
    /// borrowed frame slices in, scores appended to a caller-reused `out`
    /// (cleared first), scratch from a caller-held [`Workspace`]. This is
    /// the entry point the multi-stream runtime serves through.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is empty or any window is empty.
    pub fn score_windows_batch_refs(
        &self,
        batch: &[(&Session, &[&[f32]])],
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) {
        let items: Vec<InferWindowItem<'_>> = batch
            .iter()
            .map(|(session, window)| InferWindowItem {
                kgs: &session.kgs,
                layouts: &session.layouts,
                table: &session.table,
                window,
            })
            .collect();
        self.model.anomaly_scores_batch_infer(&items, ws, out);
    }

    /// Scores every frame of a video with a rolling window, returning
    /// `(scores, labels)` aligned per frame. The first `window − 1` frames
    /// reuse the partial window (padded by repeating the first frame).
    ///
    /// Evaluation runs through its own RNG (derived from the engine seed),
    /// *not* the session's stream RNG: scoring a test video must never
    /// perturb the live stream's embedding sequence, and repeated
    /// evaluations of one video are identical.
    pub fn score_video(&self, session: &Session, video: &akg_data::Video) -> (Vec<f32>, Vec<bool>) {
        let mut eval_rng = StdRng::seed_from_u64(self.seed ^ 0xE7A1);
        let window_len = self.model.config().window;
        let mut scores = Vec::with_capacity(video.len());
        let mut labels = Vec::with_capacity(video.len());
        let mut window: VecDeque<Vec<f32>> = VecDeque::with_capacity(window_len);
        for frame in &video.frames {
            let emb = self.space.embed_bag(&frame.activation(), FRAME_NOISE_STD, &mut eval_rng);
            if window.len() == window_len {
                window.pop_front();
            }
            window.push_back(emb);
            // Rolling pre-pad without data movement: the partial window is
            // front-padded by *borrowing* the oldest frame — no per-frame
            // embedding clones, no O(window) front-insert shifts (the old
            // `padded.insert(0, …)` repeated both every frame).
            let oldest = window.front().expect("window is non-empty").as_slice();
            let mut refs: Vec<&[f32]> = Vec::with_capacity(window_len);
            refs.resize(window_len - window.len(), oldest);
            refs.extend(window.iter().map(Vec::as_slice));
            scores.push(self.score_window_refs(session, &refs));
            labels.push(frame.is_anomalous());
        }
        (scores, labels)
    }

    /// Frame-level ROC-AUC over a set of videos (the paper's test metric).
    pub fn evaluate_auc(&self, session: &Session, videos: &[&akg_data::Video]) -> f32 {
        let mut all_scores = Vec::new();
        let mut all_labels = Vec::new();
        for v in videos {
            let (s, l) = self.score_video(session, v);
            all_scores.extend(s);
            all_labels.extend(l);
        }
        akg_eval::roc_auc(&all_scores, &all_labels)
    }

    /// Cost-model dimensions of the engine serving `session` (for Table I).
    pub fn cost_dims(&self, session: &Session) -> ModelDimsLike {
        let kgs = &session.kgs;
        let nodes = kgs.iter().map(|t| t.kg.node_count()).max().unwrap_or(0);
        let edges = kgs.iter().map(|t| t.kg.edge_count()).max().unwrap_or(0);
        let levels = kgs.iter().map(|t| t.kg.total_levels()).max().unwrap_or(0);
        let config = self.model.config();
        ModelDimsLike {
            kgs: kgs.len(),
            nodes,
            edges,
            levels,
            embed_dim: config.embed_dim,
            gnn_dim: config.gnn_dim,
            window: config.window,
            temporal_inner: config.temporal_inner,
            heads: config.heads,
            temporal_layers: config.temporal_layers,
            classes: self.model.n_classes(),
            adapted_token_entries: session.referenced_rows().len() * session.table.dim(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use akg_tensor::nn::Module;

    fn engine() -> Engine {
        Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default())
    }

    #[test]
    fn sessions_are_isolated_forks() {
        let engine = engine();
        let mut a = engine.new_session(1);
        let b = engine.new_session(2);
        let before_b = b.table.to_dense_vec();
        let before_engine = engine.table.to_dense_vec();
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let row = a.table.allocate_random_row(&mut rng).unwrap();
        assert!(a.table.row_data(row).iter().any(|v| *v != 0.0));
        assert_eq!(b.table.to_dense_vec(), before_b, "session B saw session A's update");
        assert_eq!(engine.table.to_dense_vec(), before_engine, "engine table mutated");
    }

    #[test]
    fn overlay_sessions_share_until_first_edit() {
        let engine = engine();
        let mut s = engine.new_session(3);
        assert!(s.kgs.is_shared());
        assert!(s.layouts.is_shared());
        let shared_bytes = s.state_bytes();
        let table_bytes = s.table.capacity() * s.table.dim() * std::mem::size_of::<f32>();
        assert!(
            shared_bytes * 10 <= table_bytes,
            "overlay session ({shared_bytes} B) not >=10x smaller than the table ({table_bytes} B)"
        );
        // Structural edit materializes a private copy; the engine template
        // stays untouched.
        let engine_nodes = engine.kgs[0].kg.node_count();
        let id = s.kgs[0].kg.node_ids_at_level(1)[0];
        let _ = s.kgs[0].kg.prune_node(id);
        s.rebuild_layout(0);
        assert!(!s.kgs.is_shared());
        assert!(!s.layouts.is_shared());
        assert_eq!(engine.kgs[0].kg.node_count(), engine_nodes, "engine template mutated");
        assert!(s.kgs[0].kg.node_count() < engine_nodes);
    }

    #[test]
    fn batched_scoring_matches_single_bitwise() {
        let engine = engine();
        engine.model.set_frozen(true);
        let w = engine.config().window;
        let dim = engine.config().embed_dim;
        let sessions: Vec<Session> = (0..3).map(|i| engine.new_session(i)).collect();
        let windows: Vec<Vec<Vec<f32>>> = (0..3)
            .map(|s| {
                (0..w)
                    .map(|t| (0..dim).map(|c| ((s * 31 + t * 7 + c) % 13) as f32 * 0.05).collect())
                    .collect()
            })
            .collect();
        let batch: Vec<(&Session, &[Vec<f32>])> =
            sessions.iter().zip(&windows).map(|(s, w)| (s, w.as_slice())).collect();
        let batched = engine.score_windows_batch(&batch);
        for (i, (session, window)) in batch.iter().enumerate() {
            let single = engine.score_window(session, window);
            assert_eq!(batched[i], single, "item {i} not bit-identical");
        }
    }

    #[test]
    fn score_video_does_not_advance_stream_rng() {
        let engine = engine();
        let mut session = engine.new_session(9);
        let ds = akg_data::SyntheticUcfCrime::generate(
            akg_data::DatasetConfig::scaled(0.01)
                .with_classes(&[AnomalyClass::Stealing])
                .with_seed(3),
        );
        let video = ds.test_subset(AnomalyClass::Stealing)[0];
        let frame = Frame { concepts: vec![("walking".into(), 1.0)], label: None };
        let mut twin = engine.new_session(9);
        let _ = engine.score_video(&session, video);
        let after_eval = engine.embed_frame(&mut session, &frame);
        let without_eval = engine.embed_frame(&mut twin, &frame);
        assert_eq!(after_eval, without_eval, "evaluation perturbed the stream RNG");
    }

    #[test]
    fn score_video_is_repeatable() {
        let engine = engine();
        let session = engine.new_session(4);
        let ds = akg_data::SyntheticUcfCrime::generate(
            akg_data::DatasetConfig::scaled(0.01)
                .with_classes(&[AnomalyClass::Stealing])
                .with_seed(5),
        );
        let video = ds.test_subset(AnomalyClass::Stealing)[0];
        let (s1, _) = engine.score_video(&session, video);
        let (s2, _) = engine.score_video(&session, video);
        assert_eq!(s1, s2);
    }
}
