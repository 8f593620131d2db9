//! KG tokenization and the trainable token-embedding table.
//!
//! Every reasoning node's input embedding is the mean of its concept's BPE
//! token embeddings. The table is the *only* parameter set the continuous
//! adaptation phase updates; spare rows are pre-allocated so freshly created
//! nodes can receive a random token embedding without reallocating (which
//! would invalidate optimizer state).
//!
//! A table is a sparse copy-on-write overlay over a shared, immutable
//! `Arc`'d base: [`TokenTable::new`] builds the base (the engine's template,
//! which never writes), and [`TokenTable::fork`] hands each session an
//! overlay over the same base whose resident size is proportional to the
//! rows adaptation actually touched, not the vocabulary. Every read resolves
//! base-or-overlay per row.
//!
//! Forward passes and adaptation never differentiate the table: they read a
//! [`TableRows`] — the sorted, de-duplicated rows a session's KGs reference,
//! as one `[r, dim]` tensor. Adaptation trains such a compact leaf and writes
//! it back with [`TokenTable::write_rows`].

use crate::engine::next_state_stamp;
use crate::model::KgLayout;
use akg_embed::{BpeTokenizer, JointSpace};
use akg_kg::{KnowledgeGraph, NodeId, NodeKind};
use akg_tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The token-embedding table: BPE vocabulary rows initialized from the joint
/// space, plus spare rows for adaptation-created nodes, stored as written
/// rows over a shared base.
#[derive(Debug)]
pub struct TokenTable {
    /// The resolved weights every fork of one template shares, flat
    /// `[capacity * dim]`.
    base: Arc<Vec<f32>>,
    /// Rows written since the fork, materialized on first write; every other
    /// row reads through to `base`. A `BTreeMap` keeps iteration (and
    /// therefore serialized deltas) deterministic.
    rows: BTreeMap<usize, Vec<f32>>,
    vocab_len: usize,
    capacity: usize,
    dim: usize,
    next_spare: usize,
    /// Fresh at construction and advanced by every `&mut self` method (see
    /// [`TokenTable::stamp`]).
    stamp: u64,
}

impl TokenTable {
    /// Builds the table from a tokenizer's vocabulary and the joint space,
    /// reserving `spare_rows` rows for adaptation-created nodes.
    pub fn new(tokenizer: &BpeTokenizer, space: &JointSpace, spare_rows: usize) -> Self {
        let vocab = tokenizer.vocab();
        let dim = space.dim();
        let mut weights = space.token_table(vocab);
        weights.extend(std::iter::repeat_n(0.0, spare_rows * dim));
        TokenTable {
            base: Arc::new(weights),
            rows: BTreeMap::new(),
            vocab_len: vocab.len(),
            capacity: vocab.len() + spare_rows,
            dim,
            next_spare: vocab.len(),
            stamp: next_state_stamp(),
        }
    }

    /// A copy-on-write fork sharing this table's base, with no written rows
    /// and the same spare-row cursor: its resident footprint is a cursor and
    /// an empty map until adaptation first writes.
    ///
    /// # Panics
    ///
    /// Panics if this table has written rows (the fork would silently drop
    /// them); forks are taken from the engine's unwritten template.
    pub fn fork(&self) -> TokenTable {
        assert!(self.rows.is_empty(), "TokenTable::fork: table has written rows");
        TokenTable {
            base: Arc::clone(&self.base),
            rows: BTreeMap::new(),
            vocab_len: self.vocab_len,
            capacity: self.capacity,
            dim: self.dim,
            next_spare: self.next_spare,
            stamp: next_state_stamp(),
        }
    }

    /// The table's state stamp: a value from the process-wide counter
    /// behind [`Session::state_stamp`](crate::engine::Session::state_stamp),
    /// taken afresh at construction and by every method that takes
    /// `&mut self`.
    pub fn stamp(&self) -> u64 {
        self.stamp
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
        self.stamp = next_state_stamp();
        self.next_spare = next_spare;
    }

    /// Non-differentiable mean embedding of the given rows into a
    /// caller-provided buffer, with the *same* arithmetic as
    /// [`TableRows::mean_of`] (rows summed in order, then scaled by the
    /// reciprocal count) — the inference data plane's node-feature assembly
    /// uses this to stay bit-identical to the autograd plane without
    /// allocating.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty, `out` is not `dim` long, or any row is out
    /// of bounds.
    pub fn node_embedding_mean_into(&self, rows: &[usize], out: &mut [f32]) {
        assert!(!rows.is_empty(), "node_embedding_mean_into: empty row list");
        assert_eq!(out.len(), self.dim, "node_embedding_mean_into: out must be [dim]");
        let inv = 1.0 / rows.len() as f32;
        out.fill(0.0);
        for &r in rows {
            for (o, v) in out.iter_mut().zip(self.resolve(r)) {
                *o += v;
            }
        }
        for o in out.iter_mut() {
            *o *= inv;
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The shared base every fork of this table reads through to, flat
    /// `[capacity * dim]` (written rows excluded).
    pub(crate) fn base_values(&self) -> &[f32] {
        &self.base
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
        self.stamp = next_state_stamp();
        let row = self.next_spare;
        self.next_spare += 1;
        let scale = 1.0 / (self.dim as f32).sqrt();
        let noise: Vec<f32> = (0..self.dim).map(|_| rng.gen_range(-scale..scale)).collect();
        self.rows.insert(row, noise);
        Ok(row)
    }

    /// Non-differentiable snapshot of a node's mean embedding.
    pub fn node_embedding_data(&self, rows: &[usize]) -> Vec<f32> {
        let mut out = vec![0.0f32; self.dim];
        for &r in rows {
            for (o, v) in out.iter_mut().zip(self.resolve(r)) {
                *o += v;
            }
        }
        for v in &mut out {
            *v /= rows.len().max(1) as f32;
        }
        out
    }

    /// A raw row of the table.
    pub fn row_data(&self, row: usize) -> Vec<f32> {
        self.resolve(row).to_vec()
    }

    /// Total row capacity (vocabulary plus spare region).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The fully resolved weights, flat `[capacity * dim]`.
    pub fn to_dense_vec(&self) -> Vec<f32> {
        let mut out = self.base.as_ref().clone();
        for (r, row) in &self.rows {
            out[r * self.dim..(r + 1) * self.dim].copy_from_slice(row);
        }
        out
    }

    /// A constant forward view of the given rows (sorted, de-duplicated,
    /// e.g. from [`TableRows::referenced`]).
    ///
    /// # Panics
    ///
    /// Panics if `ids` is not strictly ascending or a row is out of bounds.
    pub fn view_rows(&self, ids: Vec<usize>) -> TableRows {
        let values = self.gather_rows(&ids);
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
        let mut data = Vec::with_capacity(ids.len() * self.dim);
        for &r in ids {
            data.extend_from_slice(self.resolve(r));
        }
        Tensor::from_vec(data, &[ids.len(), self.dim])
    }

    /// Writes a compact row set back into the table: rows already
    /// materialized are refreshed, the others materialize only where their
    /// bits differ from the base, so the overlay stays sparse.
    ///
    /// # Panics
    ///
    /// Panics if the rows' width differs from the table's or a row is out of
    /// bounds.
    pub fn write_rows(&mut self, rows: &TableRows) {
        let dim = self.dim;
        assert_eq!(rows.values.shape()[1], dim, "write_rows: dim mismatch");
        self.stamp = next_state_stamp();
        rows.values.with_data(|values| {
            for (&r, fresh) in rows.ids.iter().zip(values.chunks_exact(dim)) {
                if let Some(existing) = self.rows.get_mut(&r) {
                    existing.copy_from_slice(fresh);
                } else {
                    let b = &self.base[r * dim..(r + 1) * dim];
                    if fresh.iter().zip(b).any(|(f, b)| f.to_bits() != b.to_bits()) {
                        self.rows.insert(r, fresh.to_vec());
                    }
                }
            }
        });
    }

    /// The materialized rows as a sorted `(row, values)` delta — the compact
    /// checkpoint form.
    pub fn overlay_delta(&self) -> Vec<(usize, Vec<f32>)> {
        self.rows.iter().map(|(r, v)| (*r, v.clone())).collect()
    }

    /// Replaces the materialized rows wholesale from a checkpoint delta (the
    /// inverse of [`TokenTable::overlay_delta`]).
    ///
    /// # Panics
    ///
    /// Panics if a delta row is out of bounds or not `dim` long — callers
    /// validate deltas before applying.
    pub fn apply_overlay_delta(&mut self, delta: &[(usize, Vec<f32>)]) {
        self.stamp = next_state_stamp();
        self.rows.clear();
        for (r, v) in delta {
            assert!(*r < self.capacity, "apply_overlay_delta: row {r} out of bounds");
            assert_eq!(v.len(), self.dim, "apply_overlay_delta: row {r} has wrong dim");
            self.rows.insert(*r, v.clone());
        }
    }

    /// Resident heap bytes this table privately owns: the materialized rows
    /// plus a small per-entry map overhead. The shared base is counted once
    /// at the engine, not per session.
    pub fn state_bytes(&self) -> usize {
        let per_row = self.dim * std::mem::size_of::<f32>()
            + std::mem::size_of::<usize>()
            + std::mem::size_of::<Vec<f32>>();
        self.rows.len() * per_row
    }

    /// Row `r`: the materialized copy if present, otherwise the base slice.
    fn resolve(&self, r: usize) -> &[f32] {
        match self.rows.get(&r) {
            Some(v) => v,
            None => &self.base[r * self.dim..(r + 1) * self.dim],
        }
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
    /// summed-in-order, reciprocal-scaled arithmetic as
    /// [`TokenTable::node_embedding_mean_into`], so the forward values are
    /// bit-identical to it.
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
        let mut mean = vec![0.0f32; table.dim()];
        table.node_embedding_mean_into(&rows, &mut mean);
        let manual = table.node_embedding_data(&rows);
        for (a, b) in mean.iter().zip(&manual) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn gradients_reach_only_used_rows() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 0);
        let leaf = table.leaf_rows(vec![1, 3, 5]);
        leaf.mean_of(&[3]).sum_all().backward();
        let grad = leaf.values().grad().unwrap();
        let dim = table.dim();
        assert!(grad[dim..2 * dim].iter().any(|g| *g != 0.0));
        assert!(grad[..dim].iter().chain(&grad[2 * dim..]).all(|g| *g == 0.0));
    }

    #[test]
    fn frozen_table_retains_no_grad() {
        let (tok, space, _) = fixture();
        let table = TokenTable::new(&tok, &space, 0);
        let view = table.view_rows(vec![0]);
        view.mean_of(&[0]).sum_all().backward();
        assert!(view.values().grad().is_none());
    }

    #[test]
    fn fork_reads_are_bit_identical_to_template() {
        let (tok, space, _) = fixture();
        let template = TokenTable::new(&tok, &space, 4);
        let fork = template.fork();
        assert_eq!(fork.state_bytes(), 0);
        let rows = vec![1, 3, 5];
        let mut template_out = vec![0.0f32; template.dim()];
        let mut fork_out = vec![0.0f32; template.dim()];
        template.node_embedding_mean_into(&rows, &mut template_out);
        fork.node_embedding_mean_into(&rows, &mut fork_out);
        assert_eq!(
            template_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            fork_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(template.node_embedding_data(&rows), fork.node_embedding_data(&rows));
        assert_eq!(template.row_data(2), fork.row_data(2));
        assert_eq!(template.to_dense_vec(), fork.to_dense_vec());
    }

    #[test]
    fn fork_allocation_stays_sparse() {
        let (tok, space, _) = fixture();
        let template = TokenTable::new(&tok, &space, 2);
        let pristine = template.to_dense_vec();
        let (mut a, mut b) = (template.fork(), template.fork());
        let ra = a.allocate_random_row(&mut StdRng::seed_from_u64(7)).unwrap();
        let rb = b.allocate_random_row(&mut StdRng::seed_from_u64(7)).unwrap();
        assert_eq!(ra, rb);
        assert_eq!(a.row_data(ra), b.row_data(rb));
        assert_eq!(a.overlay_delta().len(), 1);
        assert_eq!(a.next_spare(), template.next_spare() + 1);
        assert!(a.state_bytes() * 10 < a.capacity() * a.dim() * std::mem::size_of::<f32>());
        assert_eq!(template.to_dense_vec(), pristine, "allocation leaked into the template");
    }

    #[test]
    fn write_rows_materializes_only_changed_rows() {
        let (tok, space, _) = fixture();
        let template = TokenTable::new(&tok, &space, 2);
        let mut table = template.fork();
        let dim = table.dim();
        let rows = table.leaf_rows(vec![3, 5]);
        rows.values().update_data(|d| {
            for v in &mut d[..dim] {
                *v += 1.0;
            }
        });
        table.write_rows(&rows);
        let delta = table.overlay_delta();
        assert_eq!(delta.len(), 1, "unchanged row 5 was materialized");
        assert_eq!(delta[0].0, 3);
        let mut want = template.to_dense_vec();
        for v in &mut want[3 * dim..4 * dim] {
            *v += 1.0;
        }
        assert_eq!(table.to_dense_vec(), want);
        let mut restored = template.fork();
        restored.apply_overlay_delta(&delta);
        assert_eq!(restored.to_dense_vec(), table.to_dense_vec());
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
        let mut want = vec![0.0f32; table.dim()];
        for tokens in tkg.node_tokens.values() {
            table.node_embedding_mean_into(tokens, &mut want);
            assert_eq!(view.mean_of(tokens).to_vec(), want);
            assert_eq!(leaf.mean_of(tokens).to_vec(), want);
        }
    }
}
