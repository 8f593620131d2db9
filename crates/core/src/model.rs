//! The lightweight GNN-based decision model (paper Sec. III-C): per-KG
//! hierarchical GNN (Eqs. 1–4), concatenated reasoning embeddings, the
//! short-term temporal transformer, and the linear+softmax decision head
//! (Eq. 5).

use crate::config::ModelConfig;
use crate::tokenize::{TableRows, TokenTable, TokenizedKg};
use akg_kg::{NodeId, NodeKind};
use akg_tensor::inference as inf;
use akg_tensor::nn::attention::TransformerEncoder;
use akg_tensor::nn::norm::BatchNorm1d;
use akg_tensor::nn::{Linear, Module};
use akg_tensor::{Precision, Tensor, Workspace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

/// A row-indexed execution plan for one KG: node-id → row mapping and the
/// per-level gather/scatter indices the GNN layers need. Rebuilt whenever
/// adaptation changes the KG structure.
#[derive(Debug, Clone)]
pub struct KgLayout {
    /// Row order (row index → node id).
    pub rows: Vec<NodeId>,
    /// Inverse mapping.
    pub row_of: HashMap<NodeId, usize>,
    /// Sensor node's row.
    pub sensor_row: usize,
    /// Embedding node's row.
    pub embedding_row: usize,
    /// One plan per hierarchical message-passing step (level 1..=d+1).
    pub levels: Vec<LevelPlan>,
}

/// Gather/scatter plan for the edges into one level.
#[derive(Debug, Clone)]
pub struct LevelPlan {
    /// Destination level.
    pub level: usize,
    /// Edge source rows.
    pub srcs: Vec<usize>,
    /// Edge destination rows.
    pub dsts: Vec<usize>,
    /// Per-row `1 / indegree` for rows at this level (0 elsewhere) — the
    /// mean-aggregation denominator of Eq. 3.
    pub inv_counts: Vec<f32>,
    /// Per-row passthrough mask: 1 for rows *not* at this level (their
    /// embeddings are preserved), 0 for receiving rows.
    pub keep_mask: Vec<f32>,
}

impl KgLayout {
    /// Builds the plan from a tokenized KG.
    ///
    /// # Panics
    ///
    /// Panics if the KG has no sensor/embedding node (call
    /// `attach_terminals` first).
    pub fn new(tkg: &TokenizedKg) -> Self {
        let kg = &tkg.kg;
        let sensor = kg.sensor().expect("KG must have a sensor node");
        let embedding = kg.embedding_node().expect("KG must have an embedding node");
        let mut rows: Vec<NodeId> = kg.nodes().map(|n| n.id).collect();
        rows.sort();
        let row_of: HashMap<NodeId, usize> =
            rows.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        let n_rows = rows.len();
        let mut levels = Vec::new();
        for level in 1..=kg.depth() + 1 {
            let edges = kg.edges_into_level(level);
            let mut srcs = Vec::with_capacity(edges.len());
            let mut dsts = Vec::with_capacity(edges.len());
            let mut counts = vec![0usize; n_rows];
            for (s, d) in edges {
                srcs.push(row_of[&s]);
                dsts.push(row_of[&d]);
                counts[row_of[&d]] += 1;
            }
            let mut inv_counts = vec![0.0f32; n_rows];
            let mut keep_mask = vec![1.0f32; n_rows];
            for id in kg.node_ids_at_level(level) {
                let r = row_of[&id];
                keep_mask[r] = 0.0;
                if counts[r] > 0 {
                    inv_counts[r] = 1.0 / counts[r] as f32;
                }
            }
            levels.push(LevelPlan { level, srcs, dsts, inv_counts, keep_mask });
        }
        KgLayout {
            sensor_row: row_of[&sensor],
            embedding_row: row_of[&embedding],
            rows,
            row_of,
            levels,
        }
    }

    /// Number of node rows.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// Total edge count across level plans.
    pub fn edge_count(&self) -> usize {
        self.levels.iter().map(|l| l.srcs.len()).sum()
    }
}

/// One hierarchical GNN layer's parameters: the dense sub-layer (Eq. 1) and
/// batch normalization (Eq. 4). Message passing and aggregation (Eqs. 2–3)
/// are parameter-free index operations.
#[derive(Debug)]
struct GnnLayer {
    dense: Linear,
    norm: BatchNorm1d,
}

/// GNN layer width `D_l`. The paper uses 8 at every layer.
pub const GNN_DIM: usize = 8;

/// The hierarchical GNN over one mission-specific KG.
///
/// Layer 0 refines the raw joint-space embeddings into the GNN width; layers
/// `1..=d+1` propagate reasoning along the hierarchy — `d + 2` parametrized
/// layers in total, as in the paper.
#[derive(Debug)]
pub struct HierarchicalGnn {
    input_layer: GnnLayer,
    message_layers: Vec<GnnLayer>,
}

/// The shared message-passing combine of Eqs. 2–3: gather source/destination
/// rows of `h`, multiply them into edge messages, scatter-add the messages
/// onto their destination rows (the one tensor-level
/// [`Tensor::scatter_add_rows`] entry point both the single-window and the
/// batched forward go through — so one kernel serves both), average by
/// in-degree, and blend with the passthrough rows.
///
/// `srcs`/`dsts` index rows of `h`; `inv_counts`/`keep_mask` are per-row
/// coefficients over all `out_rows` rows (the batched caller passes the
/// block-diagonal concatenation of its replicas' plans).
fn propagate_messages(
    h: &Tensor,
    srcs: &[usize],
    dsts: &[usize],
    inv_counts: &[f32],
    keep_mask: &[f32],
    out_rows: usize,
) -> Tensor {
    let src = h.index_select_rows(srcs);
    let dst = h.index_select_rows(dsts);
    let messages = src.mul(&dst); // Eq. 2: X_s ⊙ X_d
    let summed = messages.scatter_add_rows(dsts, out_rows);
    let averaged = summed.scale_rows(inv_counts); // Eq. 3 mean
    let kept = h.scale_rows(keep_mask); // passthrough 1(d ∉ V(l))
    kept.add(&averaged)
}

/// Stacks level `li` of every replica's plan into one block-diagonal plan
/// over `B·|V|` rows, the message plan both batched forwards run: replica
/// `b`'s edge endpoints, offset by `b·|V|`, replace the contents of
/// `srcs`/`dsts`, and its per-row averages and passthrough keeps fill rows
/// `b·|V| .. (b+1)·|V|` of `inv_counts`/`keep_mask`. An edgeless level
/// passes `h` through unchanged on the single-graph path; all-ones keeps and
/// zero averages reproduce that for the replica's rows.
fn stack_level_plan(
    layouts: &[&KgLayout],
    li: usize,
    srcs: &mut Vec<usize>,
    dsts: &mut Vec<usize>,
    inv_counts: &mut [f32],
    keep_mask: &mut [f32],
) {
    srcs.clear();
    dsts.clear();
    let v = layouts[0].node_count();
    for (bi, layout) in layouts.iter().enumerate() {
        let plan = &layout.levels[li];
        let off = bi * v;
        if plan.srcs.is_empty() {
            inv_counts[off..off + v].fill(0.0);
            keep_mask[off..off + v].fill(1.0);
        } else {
            srcs.extend(plan.srcs.iter().map(|&s| s + off));
            dsts.extend(plan.dsts.iter().map(|&d| d + off));
            inv_counts[off..off + v].copy_from_slice(&plan.inv_counts);
            keep_mask[off..off + v].copy_from_slice(&plan.keep_mask);
        }
    }
}

impl HierarchicalGnn {
    /// Creates the GNN for a KG of `depth` reasoning levels.
    ///
    /// The per-layer BatchNorm normalizes across the graph's node rows with
    /// per-graph (instance) statistics: each forward pass is one graph.
    pub fn new(depth: usize, embed_dim: usize, rng: &mut StdRng) -> Self {
        let input_layer = GnnLayer {
            dense: Linear::new(embed_dim, GNN_DIM, rng),
            norm: BatchNorm1d::new(GNN_DIM),
        };
        let message_layers = (0..=depth)
            .map(|_| GnnLayer {
                dense: Linear::new(GNN_DIM, GNN_DIM, rng),
                norm: BatchNorm1d::new(GNN_DIM),
            })
            .collect();
        HierarchicalGnn { input_layer, message_layers }
    }

    /// Number of parametrized layers (`d + 2`).
    pub fn layer_count(&self) -> usize {
        1 + self.message_layers.len()
    }

    /// Visits every dense sub-layer: the input layer first, then the
    /// message layers in order.
    fn visit_linears(&self, f: &mut dyn FnMut(&Linear)) {
        f(&self.input_layer.dense);
        for l in &self.message_layers {
            f(&l.dense);
        }
    }

    /// Mutable form of [`HierarchicalGnn::visit_linears`], same order.
    fn visit_linears_mut(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        f(&mut self.input_layer.dense);
        for l in &mut self.message_layers {
            f(&mut l.dense);
        }
    }

    /// Checks that `layouts` can run as one stacked batch through this
    /// model — at least one replica, equal node counts, one level plan per
    /// message layer — and returns `(B, |V|)`.
    fn check_replicas(&self, layouts: &[&KgLayout], op: &str) -> (usize, usize) {
        assert!(!layouts.is_empty(), "{op}: no replicas");
        let v = layouts[0].node_count();
        for layout in layouts {
            assert_eq!(layout.node_count(), v, "{op}: node-count mismatch");
            assert_eq!(
                layout.levels.len(),
                self.message_layers.len(),
                "layout depth {} != model depth {}",
                layout.levels.len(),
                self.message_layers.len()
            );
        }
        (layouts.len(), v)
    }

    /// Runs the hierarchical forward pass: `x0` is the `[|V|, embed_dim]`
    /// node-feature matrix (sensor row = frame embedding); returns the
    /// embedding node's final vector `[gnn_dim]`.
    ///
    /// Takes `&self`: the per-layer batch norms always normalize with the
    /// current graph's node statistics (instance mode — see
    /// [`HierarchicalGnn::new`]), so no layer state is ever read *or*
    /// written, and one trained GNN can serve any number of streams.
    ///
    /// # Panics
    ///
    /// Panics if the layout's level-plan count mismatches the layer count.
    pub fn forward(&self, layout: &KgLayout, x0: &Tensor) -> Tensor {
        assert_eq!(
            layout.levels.len(),
            self.message_layers.len(),
            "layout depth {} != model depth {}",
            layout.levels.len(),
            self.message_layers.len()
        );
        // layer 0: dense + norm + activation on every node
        let mut x = {
            let h = self.input_layer.dense.forward(x0);
            self.input_layer.norm.forward_instance(&h).elu()
        };
        // layers 1..=d+1: hierarchical message passing
        for (layer, plan) in self.message_layers.iter().zip(&layout.levels) {
            let h = layer.dense.forward(&x); // Eq. 1
            let combined = if plan.srcs.is_empty() {
                h
            } else {
                propagate_messages(
                    &h,
                    &plan.srcs,
                    &plan.dsts,
                    &plan.inv_counts,
                    &plan.keep_mask,
                    layout.node_count(),
                )
            };
            x = layer.norm.forward_instance(&combined).elu(); // Eq. 4
        }
        x.slice_rows(layout.embedding_row, layout.embedding_row + 1).flatten()
    }

    /// Batched forward over `layouts.len()` independent graph replicas
    /// stacked into one `[B·|V|, embed_dim]` node-feature matrix (replica
    /// `b` occupies rows `b·|V| .. (b+1)·|V|`). Every dense sub-layer runs
    /// as **one** matmul over all replicas instead of `B` small ones; batch
    /// normalization uses per-replica statistics
    /// ([`akg_tensor::nn::norm::BatchNorm1d::forward_instance_grouped`]), so
    /// each replica's output is bit-identical to running
    /// [`HierarchicalGnn::forward`] on it alone. Returns the `[B, gnn_dim]`
    /// matrix of embedding-node outputs.
    ///
    /// Replicas may carry *different* layouts (streams whose KGs have
    /// structurally adapted apart) as long as node counts and level counts
    /// agree — always true for sessions of one engine, since structural
    /// adaptation replaces nodes one-for-one.
    ///
    /// Differentiable: adaptation and training run through this
    /// ([`DecisionModel::windows_logits`] stacks every distinct frame of an
    /// SGD epoch or training step), and gradients reach `x0` and the layer
    /// parameters. Per replica they equal the single-graph path's up to
    /// summation order. [`HierarchicalGnn::forward`] stays the per-graph
    /// oracle; [`HierarchicalGnn::forward_batch_infer`] is the serving
    /// form.
    ///
    /// # Panics
    ///
    /// Panics if `layouts` is empty, node/level counts disagree across
    /// replicas or with the model, or `x0` is not `[B·|V|, _]`.
    pub fn forward_batch(&self, layouts: &[&KgLayout], x0: &Tensor) -> Tensor {
        let (b, v) = self.check_replicas(layouts, "forward_batch");
        assert_eq!(x0.shape()[0], b * v, "forward_batch: x0 must have B·|V| rows");
        let mut x = {
            let h = self.input_layer.dense.forward(x0);
            self.input_layer.norm.forward_instance_grouped(&h, b).elu()
        };
        let mut srcs: Vec<usize> = Vec::new();
        let mut dsts: Vec<usize> = Vec::new();
        let mut inv_counts = vec![0.0f32; b * v];
        let mut keep_mask = vec![0.0f32; b * v];
        for (li, layer) in self.message_layers.iter().enumerate() {
            let h = layer.dense.forward(&x);
            stack_level_plan(layouts, li, &mut srcs, &mut dsts, &mut inv_counts, &mut keep_mask);
            let combined = if srcs.is_empty() {
                h
            } else {
                propagate_messages(&h, &srcs, &dsts, &inv_counts, &keep_mask, b * v)
            };
            x = layer.norm.forward_instance_grouped(&combined, b).elu();
        }
        let embedding_rows: Vec<usize> =
            layouts.iter().enumerate().map(|(bi, l)| bi * v + l.embedding_row).collect();
        x.index_select_rows(&embedding_rows)
    }

    /// Inference-plane form of [`HierarchicalGnn::forward_batch`]: the same
    /// stacked forward over raw slices and workspace-leased buffers — one
    /// dense matmul per layer across all replicas, per-replica grouped
    /// normalization, the same gather ⊙ gather → scatter-add → average →
    /// passthrough message combine — with zero `Rc`/`RefCell` and zero
    /// steady-state allocation. **Bit-identical per backend** to the
    /// autograd path: every op either shares the autograd op's kernel or
    /// replicates its exact accumulation order (property-tested in
    /// `tests/infer_equivalence.rs`).
    ///
    /// `x0` is the stacked `[B·|V|, embed_dim]` node-feature matrix; `out`
    /// receives the `[B, gnn_dim]` embedding-node outputs.
    ///
    /// # Panics
    ///
    /// Panics under [`HierarchicalGnn::forward_batch`]'s conditions, or if
    /// `out` is not `B × gnn_dim`.
    pub fn forward_batch_infer(
        &self,
        layouts: &[&KgLayout],
        x0: &[f32],
        out: &mut [f32],
        ws: &mut Workspace,
    ) {
        let (b, v) = self.check_replicas(layouts, "forward_batch_infer");
        let rows = b * v;
        let gd = GNN_DIM;
        assert_eq!(
            x0.len(),
            rows * self.input_layer.dense.in_features(),
            "forward_batch_infer: x0 must be B·|V| × embed_dim"
        );
        assert_eq!(out.len(), b * gd, "forward_batch_infer: out must be B × gnn_dim");
        let mut h = ws.lease(rows * gd);
        let mut x = ws.lease(rows * gd);
        self.input_layer.dense.forward_infer(x0, rows, &mut h, ws);
        self.input_layer.norm.forward_instance_grouped_infer(&h, b, &mut x, ws);
        inf::elu_inplace(&mut x);
        let mut srcs = ws.lease_idx();
        let mut dsts = ws.lease_idx();
        let mut inv_counts = ws.lease(rows);
        let mut keep_mask = ws.lease(rows);
        for (li, layer) in self.message_layers.iter().enumerate() {
            layer.dense.forward_infer(&x, rows, &mut h, ws); // Eq. 1
            stack_level_plan(layouts, li, &mut srcs, &mut dsts, &mut inv_counts, &mut keep_mask);
            if !srcs.is_empty() {
                // The raw `propagate_messages`: gather both endpoints,
                // multiply into edge messages, scatter-add, average, blend
                // with the passthrough rows — the combined result lands in
                // `h`, exactly where the autograd path's `combined` goes.
                let e = srcs.len();
                let mut src_rows = ws.lease(e * gd);
                let mut dst_rows = ws.lease(e * gd);
                let mut messages = ws.lease(e * gd);
                inf::gather_rows_into(&mut src_rows, &h, gd, &srcs);
                inf::gather_rows_into(&mut dst_rows, &h, gd, &dsts);
                inf::hadamard_into(&mut messages, &src_rows, &dst_rows); // Eq. 2
                let mut summed = ws.lease(rows * gd);
                inf::scatter_add_rows_into(&mut summed, &messages, gd, &dsts);
                inf::scale_rows_inplace(&mut summed, &inv_counts, gd); // Eq. 3 mean
                inf::scale_rows_inplace(&mut h, &keep_mask, gd); // passthrough
                inf::add_assign(&mut h, &summed);
                ws.release(src_rows);
                ws.release(dst_rows);
                ws.release(messages);
                ws.release(summed);
            }
            layer.norm.forward_instance_grouped_infer(&h, b, &mut x, ws); // Eq. 4
            inf::elu_inplace(&mut x);
        }
        for (bi, layout) in layouts.iter().enumerate() {
            let r = bi * v + layout.embedding_row;
            out[bi * gd..(bi + 1) * gd].copy_from_slice(&x[r * gd..(r + 1) * gd]);
        }
        ws.release(h);
        ws.release(x);
        ws.release(inv_counts);
        ws.release(keep_mask);
        ws.release_idx(srcs);
        ws.release_idx(dsts);
    }
}

impl Module for HierarchicalGnn {
    fn params(&self) -> Vec<Tensor> {
        let mut p = self.input_layer.dense.params();
        p.extend(self.input_layer.norm.params());
        for l in &self.message_layers {
            p.extend(l.dense.params());
            p.extend(l.norm.params());
        }
        p
    }
}

/// The full decision model: one hierarchical GNN per mission KG, the
/// temporal transformer, and the decision head.
#[derive(Debug)]
pub struct DecisionModel {
    gnns: Vec<HierarchicalGnn>,
    temporal: TransformerEncoder,
    head: Linear,
    config: ModelConfig,
    n_missions: usize,
    precision: Precision,
}

impl DecisionModel {
    /// Builds the model for `depths[i]`-level mission KGs.
    ///
    /// # Panics
    ///
    /// Panics if `depths` is empty.
    pub fn new(depths: &[usize], config: &ModelConfig) -> Self {
        assert!(!depths.is_empty(), "DecisionModel: need at least one mission KG");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let gnns: Vec<HierarchicalGnn> =
            depths.iter().map(|&d| HierarchicalGnn::new(d, config.embed_dim, &mut rng)).collect();
        let d = depths.len() * GNN_DIM;
        let temporal = TransformerEncoder::new(d, config.temporal_inner, config.heads, &mut rng);
        let head = Linear::new(d, depths.len() + 1, &mut rng);
        DecisionModel {
            gnns,
            temporal,
            head,
            config: *config,
            n_missions: depths.len(),
            precision: Precision::F32,
        }
    }

    /// The serving-plane precision the model's weights are currently held
    /// in. [`Precision::Int8`] means every dense weight matrix (GNN dense
    /// sub-layers, transformer projections, decision head) carries a
    /// pre-quantized int8 twin that the inference plane dispatches to;
    /// biases, norms, and the autograd plane stay f32 either way.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Switches the serving-plane precision and (re)builds or clears the
    /// quantized weight twins accordingly. The autograd plane is untouched
    /// — training and adaptation always read the f32 masters.
    pub fn set_precision(&mut self, precision: Precision) {
        self.precision = precision;
        self.refresh_quantized();
    }

    /// Re-derives the quantized weight twins from the current f32 masters
    /// (or drops them under [`Precision::F32`]). Call after any pass that
    /// mutates model weights — e.g. at the end of offline training — so the
    /// int8 plane never serves stale codes.
    pub fn refresh_quantized(&mut self) {
        let quantize = self.precision == Precision::Int8;
        self.visit_linears_mut(&mut |lin: &mut Linear| {
            if quantize {
                lin.quantize_int8();
            } else {
                lin.clear_int8();
            }
        });
    }

    /// Visits every dense layer of the model: each GNN's layers in mission
    /// order, then the temporal transformer's projections, then the head.
    fn visit_linears(&self, f: &mut dyn FnMut(&Linear)) {
        for g in &self.gnns {
            g.visit_linears(f);
        }
        self.temporal.visit_linears(f);
        f(&self.head);
    }

    /// Mutable form of [`DecisionModel::visit_linears`], same order.
    fn visit_linears_mut(&mut self, f: &mut dyn FnMut(&mut Linear)) {
        for g in &mut self.gnns {
            g.visit_linears_mut(f);
        }
        self.temporal.visit_linears_mut(f);
        f(&mut self.head);
    }

    /// Bytes the serving plane's dense weight matrices occupy at the current
    /// precision (int8 codes + per-row scales when quantized, f32 otherwise).
    /// Biases and norm parameters are excluded — they are identical across
    /// precisions.
    pub fn weight_matrix_bytes(&self) -> usize {
        let mut total = 0usize;
        self.visit_linears(&mut |lin: &Linear| total += lin.weight_matrix_bytes());
        total
    }

    /// [`DecisionModel::weight_matrix_bytes`] as it would be at f32.
    pub fn weight_matrix_bytes_f32(&self) -> usize {
        let mut total = 0usize;
        self.visit_linears(&mut |lin: &Linear| total += lin.weight_matrix_bytes_f32());
        total
    }

    /// [`DecisionModel::weight_matrix_bytes`] as it would be at int8.
    pub fn weight_matrix_bytes_int8(&self) -> usize {
        let mut total = 0usize;
        self.visit_linears(&mut |lin: &Linear| total += lin.weight_matrix_bytes_int8());
        total
    }

    /// Number of mission KGs `n`.
    pub fn n_missions(&self) -> usize {
        self.n_missions
    }

    /// Reasoning embedding width `D = n · gnn_dim`.
    pub fn reasoning_dim(&self) -> usize {
        self.n_missions * GNN_DIM
    }

    /// Decision classes (`n + 1`: normal + one per mission anomaly).
    pub fn n_classes(&self) -> usize {
        self.n_missions + 1
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The frame-independent rows of one KG's `[|V|, embed_dim]` node-feature
    /// matrix: reasoning rows as the mean of their token rows in `rows`, the
    /// embedding-node row as the mission embedding. Built once per table
    /// state and shared by every frame ([`NodeBlock::stacked`] supplies the
    /// sensor rows).
    ///
    /// # Panics
    ///
    /// Panics if a layout row refers to a dead node, the KG has a second
    /// sensor node, or `rows` lacks a reasoning node's token row.
    pub fn node_block(&self, tkg: &TokenizedKg, layout: &KgLayout, rows: &TableRows) -> NodeBlock {
        let dim = self.config.embed_dim;
        let shared: Vec<Tensor> = layout
            .rows
            .iter()
            .enumerate()
            .filter(|&(r, _)| r != layout.sensor_row)
            .map(|(_, &id)| {
                let node = tkg.kg.node(id).expect("layout row refers to live node");
                match node.kind {
                    NodeKind::Sensor => panic!("node_block: KG has more than one sensor node"),
                    NodeKind::Embedding => {
                        Tensor::from_vec(tkg.mission_embedding.clone(), &[1, dim])
                    }
                    NodeKind::Reasoning => {
                        rows.mean_of(tkg.tokens_of(id).expect("reasoning node tokenized"))
                    }
                }
            })
            .collect();
        NodeBlock { shared: Tensor::concat_rows(&shared), sensor_row: layout.sensor_row }
    }

    /// Computes the per-frame reasoning embedding `f_t` (concatenation of
    /// every KG's embedding-node output) for one frame embedding, reading
    /// token rows from `rows` (a view or a trainable leaf holding at least
    /// every row the KGs reference).
    ///
    /// # Panics
    ///
    /// Panics if the number of KGs mismatches the model or `rows` lacks a
    /// referenced row.
    pub fn reasoning_embedding(
        &self,
        kgs: &[&TokenizedKg],
        layouts: &[&KgLayout],
        rows: &TableRows,
        frame_embedding: &[f32],
    ) -> Tensor {
        self.window_reasoning(kgs, layouts, rows, &[frame_embedding]).remove(0)
    }

    /// [`DecisionModel::reasoning_embedding`] for every frame of a window,
    /// over one node block per KG: each KG's GNN runs once per frame with
    /// the frame in the sensor row, outputs concatenated in mission order.
    fn window_reasoning(
        &self,
        kgs: &[&TokenizedKg],
        layouts: &[&KgLayout],
        rows: &TableRows,
        frames: &[&[f32]],
    ) -> Vec<Tensor> {
        assert_eq!(kgs.len(), self.gnns.len(), "KG count mismatch");
        assert_eq!(layouts.len(), self.gnns.len(), "layout count mismatch");
        let blocks: Vec<NodeBlock> = kgs
            .iter()
            .zip(layouts)
            .map(|(tkg, layout)| self.node_block(tkg, layout, rows))
            .collect();
        frames
            .iter()
            .map(|f| {
                let parts: Vec<Tensor> = self
                    .gnns
                    .iter()
                    .zip(&blocks)
                    .zip(layouts)
                    .map(|((gnn, block), layout)| gnn.forward(layout, &block.with_frame(f)))
                    .collect();
                Tensor::concat_vecs(&parts)
            })
            .collect()
    }

    /// Applies the temporal model to a window of per-frame reasoning
    /// embeddings (each `[D]`), returning `f'_t` `[D]` for the last frame.
    ///
    /// Runs the full-row encoder ([`TransformerEncoder::forward`]) and picks
    /// the last row: this per-window path is the oracle the production
    /// forms ([`DecisionModel::windows_logits`],
    /// [`DecisionModel::predict_probs_batch_infer`]) are checked against,
    /// so it does not share their last-step tail.
    ///
    /// # Panics
    ///
    /// Panics if `window` is empty.
    pub fn temporal_embedding(&self, window: &[Tensor]) -> Tensor {
        assert!(!window.is_empty(), "temporal_embedding: empty window");
        let d = self.reasoning_dim();
        let rows: Vec<Tensor> = window.iter().map(|f| f.reshape(&[1, d])).collect();
        let t = rows.len();
        self.temporal.forward(&Tensor::concat_rows(&rows)).slice_rows(t - 1, t).flatten()
    }

    /// Decision logits `[1, n + 1]` from `f'_t` (Eq. 5 without the softmax;
    /// apply [`Tensor::softmax_rows`] for probabilities).
    pub fn logits(&self, temporal_embedding: &Tensor) -> Tensor {
        let d = self.reasoning_dim();
        self.head.forward(&temporal_embedding.reshape(&[1, d]))
    }

    /// Full forward for one window: probabilities `[n + 1]` for the last
    /// frame of the window.
    pub fn predict(
        &self,
        kgs: &[&TokenizedKg],
        layouts: &[&KgLayout],
        rows: &TableRows,
        frame_window: &[Vec<f32>],
    ) -> Vec<f32> {
        let frames: Vec<&[f32]> = frame_window.iter().map(Vec::as_slice).collect();
        let embeddings = self.window_reasoning(kgs, layouts, rows, &frames);
        let temporal = self.temporal_embedding(&embeddings);
        self.logits(&temporal).softmax_rows().to_vec()
    }

    /// The anomaly score `p_A = 1 − p_N` for one window.
    pub fn anomaly_score(
        &self,
        kgs: &[&TokenizedKg],
        layouts: &[&KgLayout],
        rows: &TableRows,
        frame_window: &[Vec<f32>],
    ) -> f32 {
        1.0 - self.predict(kgs, layouts, rows, frame_window)[0]
    }

    // ----------------------------------------------------------------
    // Stacked autograd path: adaptation and training. Every window of an
    // SGD epoch or a training step runs through one forward per layer —
    // one stacked GNN pass per KG over the distinct frames, one temporal
    // pass over all windows — and each logits row is bit-identical to the
    // per-frame, per-window composition above (`reasoning_embedding` →
    // `temporal_embedding` → `logits`, the oracle of
    // tests/adapt_gradient.rs). Only gradient summation order differs.
    // ----------------------------------------------------------------

    /// Differentiable decision logits `[windows.len(), n + 1]` for windows
    /// drawn from a pool of distinct frames. Each KG's node block is built
    /// once from `rows` and stacked under all `frames` as one
    /// `[F·|V|, embed_dim]` matrix ([`NodeBlock::stacked`]), which runs
    /// through [`HierarchicalGnn::forward_batch`] once; the per-frame
    /// reasoning embeddings are gathered into the windows `windows[w]`
    /// indexes (oldest first) and the temporal model and head run once over
    /// all of them ([`TransformerEncoder::forward_last_grouped`], whose last
    /// layer computes — and back-propagates through — only each window's
    /// last step).
    ///
    /// Row `w` is bit-identical to [`DecisionModel::logits`] over that
    /// window's [`DecisionModel::reasoning_embedding`]s alone. A frame
    /// shared by several windows runs through the GNNs once, and its
    /// gradient is summed before it flows back.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty, the windows are empty or of unequal
    /// length, a window indexes past `frames`, a frame is not `embed_dim`
    /// wide, or the KG/layout counts mismatch the model.
    pub fn windows_logits(
        &self,
        kgs: &[TokenizedKg],
        layouts: &[KgLayout],
        rows: &TableRows,
        frames: &[&[f32]],
        windows: &[Vec<usize>],
    ) -> Tensor {
        assert_eq!(kgs.len(), self.gnns.len(), "KG count mismatch");
        assert_eq!(layouts.len(), self.gnns.len(), "layout count mismatch");
        assert!(!windows.is_empty(), "windows_logits: no windows");
        let t = windows[0].len();
        assert!(t > 0, "windows_logits: empty window");
        assert!(windows.iter().all(|w| w.len() == t), "windows_logits: unequal window lengths");
        let dim = self.config.embed_dim;
        assert!(frames.iter().all(|f| f.len() == dim), "windows_logits: frame dim mismatch");
        let frame_matrix = Tensor::from_vec(frames.concat(), &[frames.len(), dim]);
        let per_kg: Vec<Tensor> = self
            .gnns
            .iter()
            .zip(kgs.iter().zip(layouts))
            .map(|(gnn, (tkg, layout))| {
                let x0 = self.node_block(tkg, layout, rows).stacked(&frame_matrix);
                gnn.forward_batch(&vec![layout; frames.len()], &x0)
            })
            .collect();
        let reasoning = Tensor::concat_cols(&per_kg); // [F, D]
        let positions: Vec<usize> = windows.iter().flatten().copied().collect();
        let seq = reasoning.index_select_rows(&positions); // [W·T, D]
        self.head.forward(&self.temporal.forward_last_grouped(&seq, windows.len()))
    }

    // ----------------------------------------------------------------
    // Inference data plane: the serving path. No autograd, no Rc/RefCell,
    // zero steady-state allocation — and bit-identical per backend to the
    // autograd plane above, which remains the training/adaptation path and
    // the equivalence oracle (tests/infer_equivalence.rs).
    // ----------------------------------------------------------------

    /// Writes one KG's frame-independent node rows into `template`: the
    /// inference-plane form of [`DecisionModel::node_block`]. Reasoning rows
    /// are the mean of their token rows
    /// ([`TokenTable::node_embedding_mean_into`], the same arithmetic as
    /// the autograd path), the embedding-node row is the mission embedding,
    /// and sensor rows stay zero until [`NodeTemplate::stack_into`] puts a
    /// frame there. Reuses the template's buffers.
    ///
    /// # Panics
    ///
    /// Panics if a layout row refers to a dead node or a reasoning node has
    /// no token rows.
    pub fn node_template_into(
        &self,
        tkg: &TokenizedKg,
        layout: &KgLayout,
        table: &TokenTable,
        template: &mut NodeTemplate,
    ) {
        let dim = self.config.embed_dim;
        let v = layout.node_count();
        template.dim = dim;
        template.rows.clear();
        template.rows.resize(v * dim, 0.0);
        template.sensor_rows.clear();
        for (r, &id) in layout.rows.iter().enumerate() {
            let node = tkg.kg.node(id).expect("layout row refers to live node");
            let slot = &mut template.rows[r * dim..(r + 1) * dim];
            match node.kind {
                NodeKind::Sensor => template.sensor_rows.push(r),
                NodeKind::Embedding => slot.copy_from_slice(&tkg.mission_embedding),
                NodeKind::Reasoning => {
                    let tokens = tkg.tokens_of(id).expect("reasoning node tokenized");
                    table.node_embedding_mean_into(tokens, slot);
                }
            }
        }
    }

    /// The GNN stage of the inference plane: the per-frame reasoning
    /// embeddings `f_t` (each KG's embedding-node output, column-concatenated
    /// in mission order) of every frame of every group, written as
    /// `[Σ frames, D]` rows into `out` in group-then-frame order. Each KG
    /// runs one stacked [`HierarchicalGnn::forward_batch_infer`] over all
    /// frames. A frame's row depends only on the frame and its group's
    /// layouts and templates, never on the other frames of the call (the
    /// kernels are row-independent and the norms per replica), so a row
    /// computed here is bitwise the row any other batch would give it.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `Σ frames × D`, a group's layout or template
    /// count mismatches the model, a frame is not `embed_dim` wide, or the
    /// replicas' node counts disagree.
    pub fn reasoning_rows_batch_infer(
        &self,
        groups: &[FrameGroup<'_>],
        out: &mut [f32],
        ws: &mut Workspace,
    ) {
        let total: usize = groups.iter().map(|g| g.frames.len()).sum();
        let d = self.reasoning_dim();
        assert_eq!(out.len(), total * d, "reasoning_rows_batch_infer: out must be Σ frames × D");
        for group in groups {
            assert_eq!(group.layouts.len(), self.gnns.len(), "layout count mismatch");
            assert_eq!(group.templates.len(), self.gnns.len(), "template count mismatch");
        }
        if total == 0 {
            return;
        }
        let gd = GNN_DIM;
        let dim = self.config.embed_dim;
        for i in 0..self.gnns.len() {
            let v = groups[0].layouts[i].node_count();
            let mut x0 = ws.lease(total * v * dim);
            let mut layout_refs: Vec<&KgLayout> = Vec::with_capacity(total);
            let mut row0 = 0usize;
            for group in groups {
                let f = group.frames.len();
                group.templates[i]
                    .stack_into(group.frames, &mut x0[row0 * v * dim..(row0 + f) * v * dim]);
                layout_refs.extend(std::iter::repeat_n(&group.layouts[i], f));
                row0 += f;
            }
            let mut gout = ws.lease(total * gd);
            self.gnns[i].forward_batch_infer(&layout_refs, &x0, &mut gout, ws);
            for r in 0..total {
                out[r * d + i * gd..r * d + (i + 1) * gd]
                    .copy_from_slice(&gout[r * gd..(r + 1) * gd]);
            }
            ws.release(x0);
            ws.release(gout);
        }
    }

    /// The temporal + head stage of the inference plane: class
    /// probabilities `[lens.len() · (n + 1)]` into `out` (cleared first)
    /// from `[Σ lens, D]` reasoning rows, window `w` being the next
    /// `lens[w]` rows (oldest first). One temporal call over the whole
    /// ragged batch whose last layer computes only each window's last step
    /// ([`TransformerEncoder::forward_last_batch_infer`]; attention never
    /// crosses windows), one head matmul, a fused row softmax.
    ///
    /// # Panics
    ///
    /// Panics if `lens` is empty, a length is 0, or `rows` is not
    /// `Σ lens × D`.
    pub fn temporal_probs_batch_infer(
        &self,
        rows: &[f32],
        lens: &[usize],
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) {
        let b = lens.len();
        let d = self.reasoning_dim();
        let mut tstack = ws.lease(b * d);
        self.temporal.forward_last_batch_infer(rows, lens, &mut tstack, ws);
        // Head + softmax: one matmul over the whole batch, fused row
        // softmax (scale 1, no mask) — exactly the head's `forward` +
        // `softmax_rows`.
        let c = self.n_classes();
        let mut logits = ws.lease(b * c);
        self.head.forward_infer(&tstack, b, &mut logits, ws);
        inf::softmax_rows_scaled_masked_inplace(&mut logits, b, c, 1.0, None);
        out.clear();
        out.extend_from_slice(&logits);
        ws.release(tstack);
        ws.release(logits);
    }

    /// Inference-plane batched full forward: class probabilities for the
    /// last frame of each item's window, flattened `[B · (n + 1)]` into
    /// `out` (cleared first). It is exactly the two stages in sequence:
    /// every item's node templates, the GNN stage over every frame of every
    /// window ([`DecisionModel::reasoning_rows_batch_infer`]), then the
    /// temporal + head stage over those rows
    /// ([`DecisionModel::temporal_probs_batch_infer`]). Nothing is cached,
    /// so this is the oracle incremental scoring is checked against.
    /// Windows may differ in length (a warming-up stream's is short). Each
    /// item's row is **bit-identical per backend** to
    /// [`DecisionModel::predict`] on that window alone.
    ///
    /// # Panics
    ///
    /// Panics if `items` is empty, any window is empty, or shapes mismatch
    /// the model.
    pub fn predict_probs_batch_infer(
        &self,
        items: &[InferWindowItem<'_>],
        ws: &mut Workspace,
        out: &mut Vec<f32>,
    ) {
        assert!(!items.is_empty(), "predict_probs_batch_infer: empty batch");
        let n = self.gnns.len();
        for item in items {
            assert_eq!(item.kgs.len(), n, "KG count mismatch");
            assert_eq!(item.layouts.len(), n, "layout count mismatch");
            assert!(!item.window.is_empty(), "predict_probs_batch_infer: empty window");
        }
        let mut templates: Vec<NodeTemplate> = Vec::with_capacity(items.len() * n);
        for item in items {
            for (tkg, layout) in item.kgs.iter().zip(item.layouts) {
                let mut template = NodeTemplate::lease(ws);
                self.node_template_into(tkg, layout, item.table, &mut template);
                templates.push(template);
            }
        }
        let groups: Vec<FrameGroup<'_>> = items
            .iter()
            .zip(templates.chunks_exact(n))
            .map(|(item, templates)| FrameGroup {
                layouts: item.layouts,
                templates,
                frames: item.window,
            })
            .collect();
        let total: usize = items.iter().map(|i| i.window.len()).sum();
        let mut joined = ws.lease(total * self.reasoning_dim());
        self.reasoning_rows_batch_infer(&groups, &mut joined, ws);
        drop(groups);
        for template in templates {
            template.release(ws);
        }
        let mut lens = ws.lease_idx();
        lens.extend(items.iter().map(|item| item.window.len()));
        self.temporal_probs_batch_infer(&joined, &lens, ws, out);
        ws.release_idx(lens);
        ws.release(joined);
    }
}

/// The frame-independent rows of one KG's node-feature matrix (see
/// [`DecisionModel::node_block`]): every row but the sensor row, in layout
/// order.
#[derive(Debug, Clone)]
pub struct NodeBlock {
    /// The non-sensor rows `[|V| − 1, embed_dim]`, in layout order.
    shared: Tensor,
    /// Where the frame goes in each replica.
    sensor_row: usize,
}

impl NodeBlock {
    /// The `[|V|, embed_dim]` node-feature matrix `x0` for one frame: the
    /// shared rows with the frame embedding in the sensor row.
    pub fn with_frame(&self, frame: &[f32]) -> Tensor {
        self.stacked(&Tensor::from_vec(frame.to_vec(), &[1, frame.len()]))
    }

    /// The stacked `[F·|V|, embed_dim]` node features of `F` replicas, one
    /// per row of the `[F, embed_dim]` frame matrix (replica `f` in rows
    /// `f·|V| .. (f+1)·|V|`): one row gather over the shared rows and the
    /// frames, so gradients reach both through a single op.
    pub fn stacked(&self, frames: &Tensor) -> Tensor {
        let s = self.shared.shape()[0];
        let sensor = self.sensor_row;
        let index: Vec<usize> = (0..frames.shape()[0])
            .flat_map(|f| {
                (0..=s).map(move |r| match r.cmp(&sensor) {
                    std::cmp::Ordering::Less => r,
                    std::cmp::Ordering::Equal => s + f,
                    std::cmp::Ordering::Greater => r - 1,
                })
            })
            .collect();
        Tensor::concat_rows(&[self.shared.clone(), frames.clone()]).index_select_rows(&index)
    }
}

/// One KG's frame-independent node-feature rows on the inference plane
/// (built by [`DecisionModel::node_template_into`]): `[|V|, embed_dim]` in
/// layout order, with zero sensor rows that each frame fills.
#[derive(Debug, Clone, Default)]
pub struct NodeTemplate {
    rows: Vec<f32>,
    sensor_rows: Vec<usize>,
    dim: usize,
}

impl NodeTemplate {
    /// An empty template over workspace-leased buffers (return them with
    /// [`NodeTemplate::release`]).
    fn lease(ws: &mut Workspace) -> Self {
        NodeTemplate { rows: ws.lease_vec(), sensor_rows: ws.lease_idx(), dim: 0 }
    }

    /// Hands a [`NodeTemplate::lease`]d template's buffers back.
    fn release(self, ws: &mut Workspace) {
        ws.release_vec(self.rows);
        ws.release_idx(self.sensor_rows);
    }

    /// The stacked `[F·|V|, embed_dim]` node features of `frames.len()`
    /// replicas, written into `out`: the template per replica with the
    /// frame in its sensor rows.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not `F·|V|·embed_dim` long or a frame is not
    /// `embed_dim` wide.
    pub fn stack_into(&self, frames: &[&[f32]], out: &mut [f32]) {
        let (dim, block) = (self.dim, self.rows.len());
        assert_eq!(out.len(), frames.len() * block, "NodeTemplate::stack_into: out size");
        for (frame, replica) in frames.iter().zip(out.chunks_exact_mut(block)) {
            assert_eq!(frame.len(), dim, "NodeTemplate::stack_into: frame dim mismatch");
            replica.copy_from_slice(&self.rows);
            for &r in &self.sensor_rows {
                replica[r * dim..(r + 1) * dim].copy_from_slice(frame);
            }
        }
    }
}

/// One stream's frames for the GNN stage
/// ([`DecisionModel::reasoning_rows_batch_infer`]): the stream's layouts
/// and node templates, one per mission KG, and the frames to run.
#[derive(Debug, Clone, Copy)]
pub struct FrameGroup<'a> {
    /// The stream's execution layouts, in mission order.
    pub layouts: &'a [KgLayout],
    /// The matching node templates, built from the stream's KGs and table.
    pub templates: &'a [NodeTemplate],
    /// The frame embeddings whose reasoning rows are wanted.
    pub frames: &'a [&'a [f32]],
}

/// One window of a cross-stream *inference-plane* serving batch: the
/// stream's adaptive state (its KGs, layouts, and token table — typically a
/// session's) plus the window as borrowed frame slices, so callers (rolling
/// windows, pre-pad paths) never clone embedding buffers just to score
/// them.
#[derive(Debug, Clone, Copy)]
pub struct InferWindowItem<'a> {
    /// The stream's tokenized mission KGs.
    pub kgs: &'a [TokenizedKg],
    /// The stream's execution layouts (aligned with `kgs`).
    pub layouts: &'a [KgLayout],
    /// The stream's token-embedding table.
    pub table: &'a TokenTable,
    /// The window of frame embeddings, oldest first.
    pub window: &'a [&'a [f32]],
}

impl Module for DecisionModel {
    fn params(&self) -> Vec<Tensor> {
        let mut p: Vec<Tensor> = self.gnns.iter().flat_map(Module::params).collect();
        p.extend(self.temporal.params());
        p.extend(self.head.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use akg_embed::{BpeTokenizer, JointSpaceBuilder};
    use akg_kg::{generate_kg, GeneratorConfig, SyntheticOracle};

    fn fixture() -> (TokenizedKg, KgLayout, TableRows, ModelConfig) {
        let ont = akg_kg::Ontology::new();
        let corpus = ont.corpus();
        let tokenizer = BpeTokenizer::train(corpus.iter().map(String::as_str), 600);
        let config = ModelConfig::fast();
        let space = JointSpaceBuilder::new(config.embed_dim, 13, 3).build();
        let mut oracle = SyntheticOracle::perfect(1);
        let kg = generate_kg("stealing", &GeneratorConfig::default(), &mut oracle).kg;
        let tkg = TokenizedKg::new(kg, &tokenizer, space.embed_text("stealing"));
        let layout = KgLayout::new(&tkg);
        let table = TokenTable::new(&tokenizer, &space, 8);
        let rows = table.leaf_rows(TableRows::referenced([(&tkg, &layout)]));
        (tkg, layout, rows, config)
    }

    #[test]
    fn layout_rows_cover_graph() {
        let (tkg, layout, _, _) = fixture();
        assert_eq!(layout.node_count(), tkg.kg.node_count());
        assert_eq!(layout.edge_count(), tkg.kg.edge_count());
        assert_eq!(layout.levels.len(), tkg.kg.depth() + 1);
    }

    #[test]
    fn layout_masks_consistent() {
        let (tkg, layout, _, _) = fixture();
        for plan in &layout.levels {
            for (r, (&inv, &keep)) in plan.inv_counts.iter().zip(&plan.keep_mask).enumerate() {
                let id = layout.rows[r];
                let at_level = tkg.kg.node(id).unwrap().level == plan.level;
                assert_eq!(keep == 0.0, at_level, "row {r} keep mask wrong");
                if inv > 0.0 {
                    assert!(at_level);
                }
            }
        }
    }

    #[test]
    fn gnn_layer_count_is_depth_plus_two() {
        let (tkg, _, _, config) = fixture();
        let mut rng = StdRng::seed_from_u64(0);
        let gnn = HierarchicalGnn::new(tkg.kg.depth(), config.embed_dim, &mut rng);
        assert_eq!(gnn.layer_count(), tkg.kg.depth() + 2);
    }

    #[test]
    fn forward_produces_gnn_dim_vector() {
        let (tkg, layout, rows, config) = fixture();
        let model = DecisionModel::new(&[tkg.kg.depth()], &config);
        let frame = vec![0.1f32; config.embed_dim];
        let r = model.reasoning_embedding(&[&tkg], &[&layout], &rows, &frame);
        assert_eq!(r.shape(), vec![GNN_DIM]);
    }

    #[test]
    fn predict_outputs_distribution() {
        let (tkg, layout, rows, config) = fixture();
        let model = DecisionModel::new(&[tkg.kg.depth()], &config);
        let window: Vec<Vec<f32>> =
            (0..config.window).map(|i| vec![0.05 * i as f32; config.embed_dim]).collect();
        let probs = model.predict(&[&tkg], &[&layout], &rows, &window);
        assert_eq!(probs.len(), 2);
        let sum: f32 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4);
        assert!(probs.iter().all(|p| (0.0..=1.0).contains(p)));
    }

    #[test]
    fn gradients_flow_to_token_table_through_frozen_model() {
        let (tkg, layout, rows, config) = fixture();
        let model = DecisionModel::new(&[tkg.kg.depth()], &config);
        model.set_frozen(true);
        let frame = vec![0.2f32; config.embed_dim];
        let r = model.reasoning_embedding(&[&tkg], &[&layout], &rows, &frame);
        let t = model.temporal_embedding(&[r.clone(), r]);
        let logits = model.logits(&t);
        logits.cross_entropy(&[1]).backward();
        assert!(rows.values().grad().is_some(), "token rows got no gradient");
        for p in model.params() {
            assert!(p.grad().is_none(), "frozen model retained gradient");
        }
    }

    #[test]
    fn different_frames_give_different_scores() {
        let (tkg, layout, rows, config) = fixture();
        let model = DecisionModel::new(&[tkg.kg.depth()], &config);
        let w1: Vec<Vec<f32>> = vec![vec![0.5; config.embed_dim]; config.window];
        let w2: Vec<Vec<f32>> = vec![vec![-0.5; config.embed_dim]; config.window];
        let s1 = model.anomaly_score(&[&tkg], &[&layout], &rows, &w1);
        let s2 = model.anomaly_score(&[&tkg], &[&layout], &rows, &w2);
        assert!((s1 - s2).abs() > 1e-6, "model is constant");
    }

    #[test]
    fn multi_kg_concatenates() {
        let ont = akg_kg::Ontology::new();
        let corpus = ont.corpus();
        let tokenizer = BpeTokenizer::train(corpus.iter().map(String::as_str), 600);
        let config = ModelConfig::fast();
        let space = JointSpaceBuilder::new(config.embed_dim, 13, 3).build();
        let table = TokenTable::new(&tokenizer, &space, 0);
        let mut o1 = SyntheticOracle::perfect(1);
        let mut o2 = SyntheticOracle::perfect(2);
        let kg1 = generate_kg("stealing", &GeneratorConfig::default(), &mut o1).kg;
        let kg2 = generate_kg("robbery", &GeneratorConfig::default(), &mut o2).kg;
        let t1 = TokenizedKg::new(kg1, &tokenizer, space.embed_text("stealing"));
        let t2 = TokenizedKg::new(kg2, &tokenizer, space.embed_text("robbery"));
        let (l1, l2) = (KgLayout::new(&t1), KgLayout::new(&t2));
        let model = DecisionModel::new(&[t1.kg.depth(), t2.kg.depth()], &config);
        assert_eq!(model.reasoning_dim(), 2 * GNN_DIM);
        assert_eq!(model.n_classes(), 3);
        let frame = vec![0.1f32; config.embed_dim];
        let rows = table.view_rows(TableRows::referenced([(&t1, &l1), (&t2, &l2)]));
        let r = model.reasoning_embedding(&[&t1, &t2], &[&l1, &l2], &rows, &frame);
        assert_eq!(r.shape(), vec![2 * GNN_DIM]);
    }
}
