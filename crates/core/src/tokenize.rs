//! KG tokenization and the trainable token-embedding table.
//!
//! Every reasoning node's input embedding is the mean of its concept's BPE
//! token embeddings. The table is the *only* parameter set the continuous
//! adaptation phase updates; spare rows are pre-allocated so freshly created
//! nodes can receive a random token embedding without reallocating (which
//! would invalidate optimizer state).
//!
//! A table comes in two storage flavours behind one type: **dense** (a full
//! trainable [`Embedding`] — the engine template and single-tenant systems)
//! and **overlay** (a sparse copy-on-write map of adapted rows over a shared
//! `Arc`'d base — the per-session form, whose resident size is proportional
//! to the rows adaptation actually touched, not the vocabulary). Every read
//! path resolves base-or-overlay per row with arithmetic bit-identical to the
//! dense path, which is what lets the overlay ≡ dense-fork equivalence
//! contract hold bit-for-bit.
//!
//! Forward passes and adaptation never differentiate the full table: they
//! read a [`TableRows`] — the sorted, de-duplicated rows a session's KGs
//! reference, as one `[r, dim]` tensor. Adaptation trains such a compact
//! leaf and writes it back with [`TokenTable::write_rows`], through the same
//! code for both storage flavours.

use crate::model::KgLayout;
use akg_embed::{BpeTokenizer, JointSpace};
use akg_kg::{KnowledgeGraph, NodeId, NodeKind};
use akg_tensor::nn::{Embedding, Module};
use akg_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Backing storage of a [`TokenTable`].
#[derive(Debug)]
enum Storage {
    /// Full-capacity trainable embedding.
    Dense(Embedding),
    /// Sparse copy-on-write overlay: rows materialize into `rows` on first
    /// write; everything else reads through to the shared immutable `base`.
    /// A `BTreeMap` keeps iteration (and therefore serialized deltas)
    /// deterministic.
    Overlay { base: Arc<Vec<f32>>, rows: BTreeMap<usize, Vec<f32>> },
}

/// The trainable token-embedding table: BPE vocabulary rows initialized from
/// the joint space, plus spare rows for adaptation-created nodes.
#[derive(Debug)]
pub struct TokenTable {
    storage: Storage,
    vocab_len: usize,
    capacity: usize,
    dim: usize,
    next_spare: usize,
}

impl TokenTable {
    /// Builds the table from a tokenizer's vocabulary and the joint space,
    /// reserving `spare_rows` rows for adaptation-created nodes.
    pub fn new(tokenizer: &BpeTokenizer, space: &JointSpace, spare_rows: usize) -> Self {
        let vocab = tokenizer.vocab();
        let dim = space.dim();
        let mut weights = space.token_table(vocab);
        weights.extend(std::iter::repeat_n(0.0, spare_rows * dim));
        let capacity = vocab.len() + spare_rows;
        TokenTable {
            storage: Storage::Dense(Embedding::from_weights(weights, capacity, dim)),
            vocab_len: vocab.len(),
            capacity,
            dim,
            next_spare: vocab.len(),
        }
    }

    /// Deep-copies the table into an independent *dense* twin: fresh tensor
    /// storage (no shared autograd state with `self`), same resolved weights,
    /// same spare-row cursor. Works from either storage flavour — forking an
    /// overlay densifies it.
    pub fn fork(&self) -> TokenTable {
        let weights = self.to_dense_vec();
        TokenTable {
            storage: Storage::Dense(Embedding::from_weights(weights, self.capacity, self.dim)),
            vocab_len: self.vocab_len,
            capacity: self.capacity,
            dim: self.dim,
            next_spare: self.next_spare,
        }
    }

    /// A sparse copy-on-write fork over `base` (a flat `[capacity * dim]`
    /// snapshot of this table's resolved weights, shared across sessions).
    /// Starts with zero materialized rows, so its resident footprint is a
    /// cursor and an empty map until adaptation first writes.
    ///
    /// # Panics
    ///
    /// Panics if `base` does not match this table's `capacity * dim`.
    pub fn fork_overlay(&self, base: &Arc<Vec<f32>>) -> TokenTable {
        assert_eq!(
            base.len(),
            self.capacity * self.dim,
            "fork_overlay: base length must be capacity * dim"
        );
        TokenTable {
            storage: Storage::Overlay { base: Arc::clone(base), rows: BTreeMap::new() },
            vocab_len: self.vocab_len,
            capacity: self.capacity,
            dim: self.dim,
            next_spare: self.next_spare,
        }
    }

    /// The spare-row cursor: the next row [`TokenTable::allocate_random_row`]
    /// would hand out. Persisted with deployment state so a restored system
    /// keeps allocating from where it left off.
    pub fn next_spare(&self) -> usize {
        self.next_spare
    }

    /// Restores a persisted spare-row cursor.
    ///
    /// # Panics
    ///
    /// Panics if the cursor lies outside `[vocab_len, capacity]` (it must
    /// point into the spare region or one past its end).
    pub fn restore_spare_cursor(&mut self, next_spare: usize) {
        assert!(
            (self.vocab_len..=self.capacity).contains(&next_spare),
            "spare cursor {next_spare} outside [{}, {}]",
            self.vocab_len,
            self.capacity
        );
        self.next_spare = next_spare;
    }

    /// Non-differentiable mean embedding of the given rows with the *same*
    /// arithmetic as the differentiable [`TokenTable::node_embedding`]
    /// (rows summed in order, then scaled by the reciprocal count) — the
    /// batched serving path uses this to fill node-feature rows without
    /// creating graph nodes while staying bit-identical to the per-window
    /// path.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or any row is out of bounds.
    pub fn node_embedding_mean(&self, rows: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim()];
        self.node_embedding_mean_into(rows, &mut out);
        out
    }

    /// [`TokenTable::node_embedding_mean`] into a caller-provided buffer —
    /// the allocation-free form the inference data plane's node-feature
    /// assembly uses. Same arithmetic, same accumulation order.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, `out` is not `dim` long, or any row is out
    /// of bounds.
    pub fn node_embedding_mean_into(&self, rows: &[usize], out: &mut [f32]) {
        assert!(!rows.is_empty(), "node_embedding_mean: empty row list");
        let dim = self.dim;
        assert_eq!(out.len(), dim, "node_embedding_mean_into: out must be [dim]");
        let inv = 1.0 / rows.len() as f32;
        match &self.storage {
            Storage::Dense(emb) => emb.weight().with_data(|w| {
                out.fill(0.0);
                for &r in rows {
                    let row = &w[r * dim..(r + 1) * dim];
                    for (o, v) in out.iter_mut().zip(row) {
                        *o += v;
                    }
                }
                for o in out.iter_mut() {
                    *o *= inv;
                }
            }),
            Storage::Overlay { base, rows: adapted } => {
                out.fill(0.0);
                for &r in rows {
                    let row = resolve_row(base, adapted, dim, r);
                    for (o, v) in out.iter_mut().zip(row) {
                        *o += v;
                    }
                }
                for o in out.iter_mut() {
                    *o *= inv;
                }
            }
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows belonging to the base BPE vocabulary.
    pub fn vocab_len(&self) -> usize {
        self.vocab_len
    }

    /// Remaining spare rows.
    pub fn spare_remaining(&self) -> usize {
        self.capacity - self.next_spare
    }

    /// Allocates a spare row initialized with a random unit-scaled embedding
    /// (the paper's "new node with a random token embedding"). Returns the
    /// row index.
    ///
    /// # Errors
    ///
    /// Returns `Err` with a message when the spare pool is exhausted.
    pub fn allocate_random_row(&mut self, rng: &mut StdRng) -> Result<usize, String> {
        if self.next_spare >= self.capacity {
            return Err("token table spare rows exhausted".to_string());
        }
        let row = self.next_spare;
        self.next_spare += 1;
        let dim = self.dim;
        let scale = 1.0 / (dim as f32).sqrt();
        let noise: Vec<f32> = (0..dim).map(|_| rng.gen_range(-scale..scale)).collect();
        match &mut self.storage {
            Storage::Dense(emb) => emb.weight().update_data(|data| {
                data[row * dim..(row + 1) * dim].copy_from_slice(&noise);
            }),
            Storage::Overlay { rows, .. } => {
                rows.insert(row, noise);
            }
        }
        Ok(row)
    }

    /// Differentiable mean embedding of the given rows, shape `[1, dim]`.
    ///
    /// On an overlay table the result is a *constant* tensor (gradients never
    /// flow into an overlay — adaptation trains a compact [`TableRows`] leaf
    /// and writes it back), built with the same summed-in-order,
    /// reciprocal-scaled arithmetic so forward values stay bit-identical to
    /// the dense path.
    pub fn node_embedding(&self, rows: &[usize]) -> Tensor {
        match &self.storage {
            Storage::Dense(emb) => emb.mean_of(rows),
            Storage::Overlay { .. } => {
                Tensor::from_vec(self.node_embedding_mean(rows), &[1, self.dim])
            }
        }
    }

    /// Non-differentiable snapshot of a node's mean embedding.
    pub fn node_embedding_data(&self, rows: &[usize]) -> Vec<f32> {
        let dim = self.dim;
        let mut out = vec![0.0f32; dim];
        match &self.storage {
            Storage::Dense(emb) => emb.weight().with_data(|w| {
                for &r in rows {
                    for c in 0..dim {
                        out[c] += w[r * dim + c];
                    }
                }
            }),
            Storage::Overlay { base, rows: adapted } => {
                for &r in rows {
                    let row = resolve_row(base, adapted, dim, r);
                    for c in 0..dim {
                        out[c] += row[c];
                    }
                }
            }
        }
        for v in &mut out {
            *v /= rows.len().max(1) as f32;
        }
        out
    }

    /// A raw row of the table.
    pub fn row_data(&self, row: usize) -> Vec<f32> {
        let dim = self.dim;
        match &self.storage {
            Storage::Dense(emb) => {
                emb.weight().with_data(|w| w[row * dim..(row + 1) * dim].to_vec())
            }
            Storage::Overlay { base, rows } => resolve_row(base, rows, dim, row).to_vec(),
        }
    }

    /// The single trainable parameter (the table itself).
    ///
    /// # Panics
    ///
    /// Panics on an overlay table — overlays have no parameter tensor (no
    /// path differentiates one: adaptation trains a compact leaf from
    /// [`TokenTable::leaf_rows`]).
    pub fn param(&self) -> Tensor {
        match &self.storage {
            Storage::Dense(emb) => emb.weight().clone(),
            Storage::Overlay { .. } => {
                panic!("TokenTable::param: overlay tables have no parameter tensor")
            }
        }
    }

    /// Freezes/unfreezes the table (frozen during initial decision-model
    /// training, the *only* unfrozen parameter during adaptation). No-op on
    /// an overlay table, which is never differentiated.
    pub fn set_frozen(&self, frozen: bool) {
        match &self.storage {
            Storage::Dense(emb) => emb.set_frozen(frozen),
            Storage::Overlay { .. } => {}
        }
    }

    /// Total row capacity (vocabulary plus spare region).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether this table is a sparse copy-on-write overlay.
    pub fn is_overlay(&self) -> bool {
        matches!(self.storage, Storage::Overlay { .. })
    }

    /// Number of rows materialized in the overlay (0 for dense tables).
    pub fn overlay_rows(&self) -> usize {
        match &self.storage {
            Storage::Dense(_) => 0,
            Storage::Overlay { rows, .. } => rows.len(),
        }
    }

    /// The fully resolved weights, flat `[capacity * dim]`, regardless of
    /// storage flavour. The engine uses this to snapshot its trained template
    /// as the shared overlay base; persistence uses it to densify.
    pub fn to_dense_vec(&self) -> Vec<f32> {
        match &self.storage {
            Storage::Dense(emb) => emb.weight().to_vec(),
            Storage::Overlay { base, rows } => {
                let mut out = base.as_ref().clone();
                let dim = self.dim;
                for (r, row) in rows {
                    out[r * dim..(r + 1) * dim].copy_from_slice(row);
                }
                out
            }
        }
    }

    /// A forward view of the given rows (sorted, de-duplicated, e.g. from
    /// [`TableRows::referenced`]). On a dense table it is a differentiable
    /// gather, so gradients reach the table while it is unfrozen; on an
    /// overlay it is a constant of the resolved rows.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is not strictly ascending or a row is out of bounds.
    pub fn view_rows(&self, ids: Vec<usize>) -> TableRows {
        let values = match &self.storage {
            Storage::Dense(emb) => emb.weight().index_select_rows(&ids),
            Storage::Overlay { .. } => self.gather_rows(&ids),
        };
        TableRows::new(ids, values)
    }

    /// A trainable copy of the given rows: a fresh `[r, dim]` autograd leaf
    /// holding the resolved values, sharing no storage with the table. Write
    /// it back with [`TokenTable::write_rows`].
    ///
    /// # Panics
    ///
    /// Panics if `ids` is not strictly ascending or a row is out of bounds.
    pub fn leaf_rows(&self, ids: Vec<usize>) -> TableRows {
        let values = self.gather_rows(&ids).requires_grad(true);
        TableRows::new(ids, values)
    }

    /// The resolved rows as a constant `[ids.len(), dim]` tensor.
    fn gather_rows(&self, ids: &[usize]) -> Tensor {
        let dim = self.dim;
        let mut data = Vec::with_capacity(ids.len() * dim);
        match &self.storage {
            Storage::Dense(emb) => emb.weight().with_data(|w| {
                for &r in ids {
                    data.extend_from_slice(&w[r * dim..(r + 1) * dim]);
                }
            }),
            Storage::Overlay { base, rows } => {
                for &r in ids {
                    data.extend_from_slice(resolve_row(base, rows, dim, r));
                }
            }
        }
        Tensor::from_vec(data, &[ids.len(), dim])
    }

    /// Writes a compact row set back into the table. Dense tables copy the
    /// rows; overlays refresh rows already materialized and materialize the
    /// others only where their bits differ from the base, so an overlay
    /// stays sparse and resolves bit-identically to a dense table given the
    /// same write.
    ///
    /// # Panics
    ///
    /// Panics if the rows' width differs from the table's or a row is out of
    /// bounds.
    pub fn write_rows(&mut self, rows: &TableRows) {
        let dim = self.dim;
        assert_eq!(rows.values.shape()[1], dim, "write_rows: dim mismatch");
        rows.values.with_data(|values| match &mut self.storage {
            Storage::Dense(emb) => emb.weight().update_data(|w| {
                for (&r, fresh) in rows.ids.iter().zip(values.chunks_exact(dim)) {
                    w[r * dim..(r + 1) * dim].copy_from_slice(fresh);
                }
            }),
            Storage::Overlay { base, rows: adapted } => {
                for (&r, fresh) in rows.ids.iter().zip(values.chunks_exact(dim)) {
                    if let Some(existing) = adapted.get_mut(&r) {
                        existing.copy_from_slice(fresh);
                    } else {
                        let b = &base[r * dim..(r + 1) * dim];
                        if fresh.iter().zip(b).any(|(f, b)| f.to_bits() != b.to_bits()) {
                            adapted.insert(r, fresh.to_vec());
                        }
                    }
                }
            }
        });
    }

    /// The overlay's materialized rows as a sorted `(row, values)` delta —
    /// the compact checkpoint form. Empty for dense tables.
    pub fn overlay_delta(&self) -> Vec<(usize, Vec<f32>)> {
        match &self.storage {
            Storage::Dense(_) => Vec::new(),
            Storage::Overlay { rows, .. } => rows.iter().map(|(r, v)| (*r, v.clone())).collect(),
        }
    }

    /// Replaces the overlay's materialized rows wholesale from a checkpoint
    /// delta (the inverse of [`TokenTable::overlay_delta`]).
    ///
    /// # Panics
    ///
    /// Panics on a dense table, or if a delta row is out of bounds or not
    /// `dim` long — callers validate deltas before applying.
    pub fn apply_overlay_delta(&mut self, delta: &[(usize, Vec<f32>)]) {
        let (capacity, dim) = (self.capacity, self.dim);
        match &mut self.storage {
            Storage::Dense(_) => {
                panic!("apply_overlay_delta: table is dense")
            }
            Storage::Overlay { rows, .. } => {
                rows.clear();
                for (r, v) in delta {
                    assert!(*r < capacity, "apply_overlay_delta: row {r} out of bounds");
                    assert_eq!(v.len(), dim, "apply_overlay_delta: row {r} has wrong dim");
                    rows.insert(*r, v.clone());
                }
            }
        }
    }

    /// Resident heap bytes attributable to this table. Dense tables own the
    /// full weight matrix; overlays own only the materialized rows (plus a
    /// small per-entry map overhead) — the shared base is counted once at the
    /// engine, not per session.
    pub fn state_bytes(&self) -> usize {
        match &self.storage {
            Storage::Dense(_) => self.capacity * self.dim * std::mem::size_of::<f32>(),
            Storage::Overlay { rows, .. } => {
                let per_row = self.dim * std::mem::size_of::<f32>()
                    + std::mem::size_of::<usize>()
                    + std::mem::size_of::<Vec<f32>>();
                rows.len() * per_row
            }
        }
    }
}

/// Resolves a row against an overlay: the materialized copy if present,
/// otherwise the shared base slice.
fn resolve_row<'a>(
    base: &'a [f32],
    rows: &'a BTreeMap<usize, Vec<f32>>,
    dim: usize,
    r: usize,
) -> &'a [f32] {
    match rows.get(&r) {
        Some(v) => v,
        None => &base[r * dim..(r + 1) * dim],
    }
}

/// The token-table rows a set of KGs reads, as one compact `[r, dim]` tensor:
/// row `i` of [`TableRows::values`] is table row [`TableRows::ids`]`[i]`, ids
/// ascending and unique. Built by [`TokenTable::view_rows`] (a forward view)
/// or [`TokenTable::leaf_rows`] (a trainable leaf).
#[derive(Debug, Clone)]
pub struct TableRows {
    ids: Vec<usize>,
    values: Tensor,
}

impl TableRows {
    /// `mean_of` looks rows up by binary search and `write_rows` writes each
    /// row once, so the ids must be strictly ascending.
    fn new(ids: Vec<usize>, values: Tensor) -> Self {
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "TableRows: ids must be strictly ascending");
        TableRows { ids, values }
    }

    /// The sorted, de-duplicated table rows the KGs' reasoning nodes
    /// reference, collected in each layout's row order.
    pub fn referenced<'a>(
        kgs: impl IntoIterator<Item = (&'a TokenizedKg, &'a KgLayout)>,
    ) -> Vec<usize> {
        let mut ids: Vec<usize> = Vec::new();
        for (tkg, layout) in kgs {
            for &id in &layout.rows {
                ids.extend(tkg.tokens_of(id).unwrap_or(&[]));
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The table rows held, ascending.
    pub fn ids(&self) -> &[usize] {
        &self.ids
    }

    /// The `[r, dim]` row values.
    pub fn values(&self) -> &Tensor {
        &self.values
    }

    /// Differentiable mean of the given *table* rows, `[1, dim]`: the same
    /// gather-then-mean arithmetic as [`TokenTable::node_embedding`], so the
    /// forward values are bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or names a row this set does not hold.
    pub fn mean_of(&self, rows: &[usize]) -> Tensor {
        let local: Vec<usize> = rows
            .iter()
            .map(|r| self.ids.binary_search(r).expect("TableRows::mean_of: row not held"))
            .collect();
        self.values.mean_rows(&local)
    }
}

/// A KG plus the token rows backing each node and the mission's own text
/// embedding (held by the embedding node, so the hierarchical messages
/// `X_s ⊙ X_d` into it compare propagated reasoning against the mission —
/// a zero embedding node would silence Eq. 2 entirely).
#[derive(Debug, Clone)]
pub struct TokenizedKg {
    /// The graph structure.
    pub kg: KnowledgeGraph,
    /// Token rows (into the [`TokenTable`]) per reasoning node.
    pub node_tokens: HashMap<NodeId, Vec<usize>>,
    /// The mission text's joint-space embedding (embedding-node input).
    pub mission_embedding: Vec<f32>,
}

impl TokenizedKg {
    /// Tokenizes every reasoning node's concept text. `mission_embedding`
    /// is the joint-space embedding of the mission text (see
    /// [`akg_embed::JointSpace::embed_text`]).
    ///
    /// # Panics
    ///
    /// Panics if `mission_embedding` is all zeros (it would block every
    /// hierarchical message into the embedding node).
    pub fn new(kg: KnowledgeGraph, tokenizer: &BpeTokenizer, mission_embedding: Vec<f32>) -> Self {
        assert!(mission_embedding.iter().any(|v| *v != 0.0), "mission embedding must be non-zero");
        let mut node_tokens = HashMap::new();
        for node in kg.nodes() {
            if node.kind == NodeKind::Reasoning {
                let ids: Vec<usize> =
                    tokenizer.encode(&node.concept).into_iter().map(usize::from).collect();
                let ids = if ids.is_empty() { vec![0] } else { ids };
                node_tokens.insert(node.id, ids);
            }
        }
        TokenizedKg { kg, node_tokens, mission_embedding }
    }

    /// Registers a freshly created node backed by the given table rows.
    pub fn register_node(&mut self, id: NodeId, rows: Vec<usize>) {
        self.node_tokens.insert(id, rows);
    }

    /// Forgets a pruned node's token assignment.
    pub fn unregister_node(&mut self, id: NodeId) {
        self.node_tokens.remove(&id);
    }

    /// Token rows of a node.
    pub fn tokens_of(&self, id: NodeId) -> Option<&[usize]> {
        self.node_tokens.get(&id).map(Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use akg_kg::{generate_kg, GeneratorConfig, SyntheticOracle};
    use rand::SeedableRng;

    fn fixture() -> (BpeTokenizer, JointSpace, KnowledgeGraph) {
        let ont = akg_kg::Ontology::new();
        let corpus = ont.corpus();
        let tokenizer = BpeTokenizer::train(corpus.iter().map(String::as_str), 600);
        let space = akg_embed::JointSpaceBuilder::new(16, 13, 3).build();
        let mut oracle = SyntheticOracle::perfect(1);
        let kg = generate_kg("stealing", &GeneratorConfig::default(), &mut oracle).kg;
        (tokenizer, space, kg)
    }

    #[test]
    fn table_dimensions() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 8);
        assert_eq!(table.dim(), 16);
        assert_eq!(table.vocab_len(), tok.vocab().len());
        assert_eq!(table.spare_remaining(), 8);
    }

    #[test]
    fn spare_rows_allocate_until_exhausted() {
        let (tok, space, _) = fixture();
        let mut table = TokenTable::new(&tok, &space, 2);
        let mut rng = StdRng::seed_from_u64(0);
        let r1 = table.allocate_random_row(&mut rng).unwrap();
        let r2 = table.allocate_random_row(&mut rng).unwrap();
        assert_eq!(r2, r1 + 1);
        assert!(table.allocate_random_row(&mut rng).is_err());
        // allocated rows are non-zero
        assert!(table.row_data(r1).iter().any(|v| *v != 0.0));
    }

    #[test]
    fn tokenized_kg_covers_all_reasoning_nodes() {
        let (tok, space, kg) = fixture();
        let reasoning: Vec<NodeId> =
            kg.nodes().filter(|n| n.kind == NodeKind::Reasoning).map(|n| n.id).collect();
        let tkg = TokenizedKg::new(kg, &tok, space.embed_text("stealing"));
        for id in reasoning {
            assert!(tkg.tokens_of(id).is_some(), "node {id} untokenized");
            assert!(!tkg.tokens_of(id).unwrap().is_empty());
        }
    }

    #[test]
    fn node_embedding_matches_manual_mean() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 0);
        let rows = vec![1, 2];
        let t = table.node_embedding(&rows);
        let manual = table.node_embedding_data(&rows);
        for (a, b) in t.to_vec().iter().zip(&manual) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_reach_only_used_rows() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 0);
        table.set_frozen(false);
        let emb = table.node_embedding(&[3]);
        emb.sum_all().backward();
        let grad = table.param().grad().unwrap();
        let dim = table.dim();
        assert!(grad[3 * dim..4 * dim].iter().any(|g| *g != 0.0));
        assert!(grad[..3 * dim].iter().all(|g| *g == 0.0));
    }

    #[test]
    fn frozen_table_retains_no_grad() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 0);
        table.set_frozen(true);
        table.node_embedding(&[0]).sum_all().backward();
        assert!(table.param().grad().is_none());
    }

    #[test]
    fn overlay_reads_are_bit_identical_to_dense() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 4);
        let base = Arc::new(table.to_dense_vec());
        let overlay = table.fork_overlay(&base);
        assert!(overlay.is_overlay());
        assert_eq!(overlay.overlay_rows(), 0);
        let rows = vec![1, 3, 5];
        let mut dense_out = vec![0.0f32; table.dim()];
        let mut overlay_out = vec![0.0f32; table.dim()];
        table.node_embedding_mean_into(&rows, &mut dense_out);
        overlay.node_embedding_mean_into(&rows, &mut overlay_out);
        assert_eq!(
            dense_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            overlay_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(table.node_embedding_data(&rows), overlay.node_embedding_data(&rows));
        assert_eq!(table.node_embedding(&rows).to_vec(), overlay.node_embedding(&rows).to_vec());
        assert_eq!(table.row_data(2), overlay.row_data(2));
        assert_eq!(table.to_dense_vec(), overlay.to_dense_vec());
    }

    #[test]
    fn overlay_allocation_matches_dense_and_stays_sparse() {
        let (tok, space, _) = fixture();
        let mut dense = TokenTable::new(&tok, &space, 2);
        let base = Arc::new(dense.to_dense_vec());
        let mut overlay = dense.fork_overlay(&base);
        let mut rng_a = StdRng::seed_from_u64(7);
        let mut rng_b = StdRng::seed_from_u64(7);
        let rd = dense.allocate_random_row(&mut rng_a).unwrap();
        let ro = overlay.allocate_random_row(&mut rng_b).unwrap();
        assert_eq!(rd, ro);
        assert_eq!(dense.row_data(rd), overlay.row_data(ro));
        assert_eq!(overlay.overlay_rows(), 1);
        assert_eq!(dense.next_spare(), overlay.next_spare());
        assert!(overlay.state_bytes() < dense.state_bytes());
    }

    #[test]
    fn write_rows_materializes_only_changed_rows() {
        let (tok, space, _) = fixture();
        let mut dense = TokenTable::new(&tok, &space, 2);
        let base = Arc::new(dense.to_dense_vec());
        let mut overlay = dense.fork_overlay(&base);
        let dim = dense.dim();
        let rows = overlay.leaf_rows(vec![3, 5]);
        assert_eq!(rows.values().to_vec(), dense.leaf_rows(vec![3, 5]).values().to_vec());
        rows.values().update_data(|d| {
            for v in &mut d[..dim] {
                *v += 1.0;
            }
        });
        overlay.write_rows(&rows);
        dense.write_rows(&rows);
        assert_eq!(overlay.overlay_rows(), 1, "unchanged row 5 was materialized");
        assert_eq!(overlay.to_dense_vec(), dense.to_dense_vec());
        let delta = overlay.overlay_delta();
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].0, 3);
        let mut restored = dense.fork_overlay(&base);
        restored.apply_overlay_delta(&delta);
        assert_eq!(restored.to_dense_vec(), overlay.to_dense_vec());
    }

    #[test]
    fn table_rows_mean_matches_node_embedding() {
        let (tok, space, kg) = fixture();
        let table = TokenTable::new(&tok, &space, 0);
        let tkg = TokenizedKg::new(kg, &tok, space.embed_text("stealing"));
        let layout = KgLayout::new(&tkg);
        let ids = TableRows::referenced([(&tkg, &layout)]);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids not sorted and unique");
        let view = table.view_rows(ids.clone());
        let leaf = table.leaf_rows(ids);
        for tokens in tkg.node_tokens.values() {
            let want = table.node_embedding(tokens).to_vec();
            assert_eq!(view.mean_of(tokens).to_vec(), want);
            assert_eq!(leaf.mean_of(tokens).to_vec(), want);
        }
    }
}
