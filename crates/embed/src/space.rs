//! The joint text/frame embedding space — our deterministic stand-in for
//! ImageBind-Huge.
//!
//! The space is organised around `n_classes` anomaly-class *centers* (random
//! unit vectors). Domain words registered as *anchors* embed near their
//! class centers with a configurable affinity; all other words embed at a
//! deterministic hash-noise position. Synthetic video frames are generated
//! from concept activations, and [`JointSpace::embed_bag`] maps an
//! activation set into the same space — so frame embeddings land near the
//! text concepts they depict, the one property of ImageBind the paper's
//! mechanism actually relies on.
//!
//! A concept's text embedding is a constant of the space, as it is under
//! the paper's frozen encoder, so [`JointSpaceBuilder::build`] computes it
//! once into a *concept table*: one row, exactly [`JointSpace::embed_text`]
//! of the key, for every anchor word and every text registered through
//! [`JointSpaceBuilder::precompute`]. [`JointSpace::embed_bag`] reads a
//! table hit as a borrowed row and embeds any other text (mixed-case
//! spellings, multi-word phrases, per-video scene backgrounds, foreign
//! words) through `embed_text` as before, so a bag embeds bitwise the same
//! either way. Scene backgrounds stay on the slow path on purpose: they are
//! unbounded in real footage, and the table holds only what the space is
//! built with.

use crate::vocab::Vocab;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

/// Builder-configured joint embedding space.
#[derive(Debug, Clone)]
pub struct JointSpace {
    dim: usize,
    seed: u64,
    class_centers: Vec<Vec<f32>>,
    /// word -> (per-class weight, affinity)
    anchors: HashMap<String, Anchor>,
    noise_scale: f32,
    /// The concept table: text -> row index into `concept_rows`.
    concept_index: HashMap<String, usize>,
    /// Row-major `[concept_index.len() * dim]`; row `i` is `embed_text` of
    /// its key.
    concept_rows: Vec<f32>,
}

#[derive(Debug, Clone)]
struct Anchor {
    class_weights: Vec<(usize, f32)>,
    affinity: f32,
}

/// Builder for [`JointSpace`].
#[derive(Debug)]
pub struct JointSpaceBuilder {
    dim: usize,
    n_classes: usize,
    seed: u64,
    anchors: HashMap<String, Anchor>,
    noise_scale: f32,
    correlations: Vec<(usize, usize, f32)>,
    precomputed: BTreeSet<String>,
}

impl JointSpaceBuilder {
    /// Starts a builder for a `dim`-dimensional space with `n_classes`
    /// semantic clusters.
    pub fn new(dim: usize, n_classes: usize, seed: u64) -> Self {
        JointSpaceBuilder {
            dim,
            n_classes,
            seed,
            anchors: HashMap::new(),
            noise_scale: 0.35,
            correlations: Vec::new(),
            precomputed: BTreeSet::new(),
        }
    }

    /// Requests that two class centers have (approximately) the given cosine
    /// similarity — semantically related anomaly classes embed nearby, as a
    /// real joint embedding model would place them.
    ///
    /// # Panics
    ///
    /// Panics if a class is out of range or `cos` is outside `[0, 1)`.
    pub fn correlate(mut self, a: usize, b: usize, cos: f32) -> Self {
        assert!(a < self.n_classes && b < self.n_classes, "class out of range");
        assert!((0.0..1.0).contains(&cos), "cos must be in [0, 1)");
        self.correlations.push((a, b, cos));
        self
    }

    /// Registers `word` as an anchor of `class` with the given affinity in
    /// `[0, 1]` (1 = exactly at the class center). Registering the same word
    /// for several classes averages the centers.
    ///
    /// # Panics
    ///
    /// Panics if `class >= n_classes` or `affinity` is outside `[0, 1]`.
    pub fn anchor(mut self, word: &str, class: usize, affinity: f32) -> Self {
        assert!(class < self.n_classes, "class {class} out of range");
        assert!((0.0..=1.0).contains(&affinity), "affinity must be in [0,1]");
        let entry = self
            .anchors
            .entry(word.to_lowercase())
            .or_insert(Anchor { class_weights: Vec::new(), affinity });
        entry.class_weights.push((class, 1.0));
        entry.affinity = entry.affinity.max(affinity);
        self
    }

    /// Sets the hash-noise scale mixed into every word vector.
    pub fn noise_scale(mut self, scale: f32) -> Self {
        self.noise_scale = scale;
        self
    }

    /// Adds `texts` to the concept table without anchoring them: their
    /// embeddings stay where [`JointSpace::embed_text`] puts them, and
    /// [`JointSpace::embed_bag`] reads them from the table instead of
    /// recomputing them. Meant for a fixed vocabulary every frame draws on;
    /// anchor words are in the table already.
    pub fn precompute<'a>(mut self, texts: impl IntoIterator<Item = &'a str>) -> Self {
        self.precomputed.extend(texts.into_iter().map(str::to_owned));
        self
    }

    /// Builds the space, sampling the class centers and applying requested
    /// correlations (each center is mixed toward its correlated peers, then
    /// renormalized — pairwise cosines approximate the requested values),
    /// then fills the concept table.
    pub fn build(self) -> JointSpace {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut class_centers: Vec<Vec<f32>> =
            (0..self.n_classes).map(|_| random_unit(self.dim, &mut rng)).collect();
        for &(a, b, cos) in &self.correlations {
            // pull the later class toward the earlier one
            let (keep, adjust) = if a < b { (a, b) } else { (b, a) };
            let base = class_centers[keep].clone();
            let residual = (1.0 - cos * cos).sqrt();
            let adjusted: Vec<f32> = class_centers[adjust]
                .iter()
                .zip(&base)
                .map(|(x, k)| cos * k + residual * x)
                .collect();
            class_centers[adjust] = normalize(adjusted);
        }
        let mut space = JointSpace {
            dim: self.dim,
            seed: self.seed,
            class_centers,
            anchors: self.anchors,
            noise_scale: self.noise_scale,
            concept_index: HashMap::new(),
            concept_rows: Vec::new(),
        };
        let mut keys = self.precomputed;
        keys.extend(space.anchors.keys().cloned());
        let mut rows = Vec::with_capacity(keys.len() * space.dim);
        for key in &keys {
            rows.extend(space.embed_text(key));
        }
        space.concept_index = keys.into_iter().enumerate().map(|(i, key)| (key, i)).collect();
        space.concept_rows = rows;
        space
    }
}

impl JointSpace {
    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of class clusters.
    pub fn n_classes(&self) -> usize {
        self.class_centers.len()
    }

    /// The center of a class cluster.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    pub fn class_center(&self, class: usize) -> &[f32] {
        &self.class_centers[class]
    }

    /// Deterministic embedding of a single word. Anchored words sit near
    /// their class centers; unknown words at hash-noise positions.
    pub fn word_vector(&self, word: &str) -> Vec<f32> {
        // Lower-case ASCII (every concept and token) is its own lowercase.
        let word: Cow<'_, str> = if word.bytes().any(|b| !b.is_ascii() || b.is_ascii_uppercase()) {
            Cow::Owned(word.to_lowercase())
        } else {
            Cow::Borrowed(word)
        };
        let noise = hash_noise(&word, self.seed, self.dim);
        match self.anchors.get(word.as_ref()) {
            Some(anchor) => {
                let mut v = vec![0.0f32; self.dim];
                let total: f32 = anchor.class_weights.iter().map(|(_, w)| w).sum();
                for (class, w) in &anchor.class_weights {
                    for (vi, ci) in v.iter_mut().zip(&self.class_centers[*class]) {
                        *vi += ci * w / total;
                    }
                }
                let a = anchor.affinity;
                for (vi, ni) in v.iter_mut().zip(&noise) {
                    *vi = a * *vi + (1.0 - a) * self.noise_scale * ni;
                }
                normalize(v)
            }
            None => normalize(noise.into_iter().map(|n| n * self.noise_scale).collect()),
        }
    }

    /// Embedding of a token string from the BPE vocabulary: the end-of-word
    /// marker is stripped, then the word embedding (or hash noise for
    /// sub-word fragments) is used.
    pub fn token_vector(&self, token: &str) -> Vec<f32> {
        let stripped = token.strip_suffix(crate::bpe::END_OF_WORD).unwrap_or(token);
        self.word_vector(stripped)
    }

    /// The concept table's row for `text` (exactly [`JointSpace::embed_text`]
    /// of it), or `None` when the table does not hold `text` verbatim.
    pub fn precomputed(&self, text: &str) -> Option<&[f32]> {
        let row = *self.concept_index.get(text)?;
        Some(&self.concept_rows[row * self.dim..(row + 1) * self.dim])
    }

    /// Mean embedding of whitespace-separated text (a concept phrase).
    pub fn embed_text(&self, text: &str) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        let mut words = 0usize;
        for w in text.split_whitespace() {
            words += 1;
            for (vi, wi) in v.iter_mut().zip(self.word_vector(w)) {
                *vi += wi;
            }
        }
        if words > 0 {
            for vi in &mut v {
                *vi /= words as f32;
            }
        }
        v
    }

    /// Frame encoder: embeds a weighted bag of active concepts plus Gaussian
    /// observation noise, normalized to unit length. This is the `E_I(F_t)`
    /// of the paper for our synthetic frames.
    ///
    /// The final normalization matters: without it, frames whose concepts
    /// cluster (anomalies) would have systematically larger norms than
    /// frames mixing scattered concepts (normal footage), handing detectors
    /// a mission-agnostic concentration shortcut that real video encoders do
    /// not provide.
    pub fn embed_bag(&self, items: &[(&str, f32)], noise_std: f32, rng: &mut StdRng) -> Vec<f32> {
        let mut v = vec![0.0f32; self.dim];
        self.embed_bag_into(items.iter().copied(), noise_std, rng, &mut v);
        v
    }

    /// [`JointSpace::embed_bag`] written into `out` (a reused buffer), over
    /// any iterator of `(text, weight)` items. Concept-table hits are read
    /// as borrowed rows; any other text is embedded on the spot.
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` is not the space's dimensionality.
    pub fn embed_bag_into<'a>(
        &self,
        items: impl IntoIterator<Item = (&'a str, f32)>,
        noise_std: f32,
        rng: &mut StdRng,
        out: &mut [f32],
    ) {
        assert_eq!(out.len(), self.dim, "embed_bag_into: buffer is not {} wide", self.dim);
        out.fill(0.0);
        let mut total = 0.0f32;
        for (text, weight) in items {
            total += weight;
            match self.precomputed(text) {
                Some(row) => add_scaled(out, weight, row),
                None => add_scaled(out, weight, &self.embed_text(text)),
            }
        }
        // A positive total below 1 (weights that nearly cancel, or a
        // subnormal sum) can overflow the quotient: the bag is then kept
        // undivided, as for a non-positive total, so the embedding stays
        // finite. At or above 1 no quotient outgrows the undivided sum, and
        // every frame divides exactly as it always has.
        let sum_sq = |d: f32| out.iter().map(|&vi| (vi / d) * (vi / d)).sum::<f32>();
        if total >= 1.0 || (total > 0.0 && sum_sq(total).is_finite()) {
            for vi in out.iter_mut() {
                *vi /= total;
            }
        }
        for vi in out.iter_mut() {
            *vi += noise_std * crate::gaussian(rng);
        }
        normalize_in_place(out);
    }

    /// The initial token-embedding table for a vocabulary, row-major
    /// `[vocab.len() * dim]`. This is what the adaptation phase fine-tunes.
    ///
    /// Rows are independent deterministic lookups, so the batch is split
    /// across the configured [`akg_tensor::Parallelism`] worker threads —
    /// the result is identical at any thread count.
    pub fn token_table(&self, vocab: &Vocab) -> Vec<f32> {
        let tokens: Vec<&str> = vocab.iter().map(|(_, token)| token).collect();
        let mut table = vec![0.0f32; tokens.len() * self.dim];
        // ≥ 64 rows per thread: one row is a few µs of hashing + mixing, so
        // smaller batches don't amortize the scoped-thread spawn. A row is
        // not a multiply-add count, so rather than estimate one, each row is
        // charged 1/64 of `MIN_WORK_PER_THREAD`: that pins 64 rows per thread
        // whatever the constant's value.
        akg_tensor::par::for_each_row_chunk(
            &mut table,
            tokens.len(),
            self.dim,
            akg_tensor::par::MIN_WORK_PER_THREAD / 64,
            |first, chunk| {
                for (i, row) in chunk.chunks_mut(self.dim).enumerate() {
                    row.copy_from_slice(&self.token_vector(tokens[first + i]));
                }
            },
        );
        table
    }
}

/// `acc += weight · v`, element-wise.
fn add_scaled(acc: &mut [f32], weight: f32, v: &[f32]) {
    for (a, x) in acc.iter_mut().zip(v) {
        *a += weight * x;
    }
}

fn normalize(mut v: Vec<f32>) -> Vec<f32> {
    normalize_in_place(&mut v);
    v
}

fn normalize_in_place(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 1e-12 {
        for x in v {
            *x /= norm;
        }
    }
}

fn random_unit(dim: usize, rng: &mut StdRng) -> Vec<f32> {
    normalize((0..dim).map(|_| crate::gaussian(rng)).collect())
}

/// Deterministic pseudo-random vector for a string (FNV-1a seeded RNG).
fn hash_noise(s: &str, seed: u64, dim: usize) -> Vec<f32> {
    let mut h: u64 = 0xcbf29ce484222325 ^ seed;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    let mut rng = StdRng::seed_from_u64(h);
    normalize((0..dim).map(|_| crate::gaussian(&mut rng)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::{cosine, euclidean};

    fn space() -> JointSpace {
        JointSpaceBuilder::new(32, 3, 42)
            .anchor("stealing", 0, 0.9)
            .anchor("sneaky", 0, 0.8)
            .anchor("robbery", 1, 0.9)
            .anchor("firearm", 1, 0.8)
            .anchor("explosion", 2, 0.9)
            .anchor("person", 0, 0.4)
            .anchor("person", 1, 0.4)
            .build()
    }

    #[test]
    fn word_vectors_are_deterministic() {
        let s = space();
        assert_eq!(s.word_vector("stealing"), s.word_vector("Stealing"));
        assert_eq!(s.word_vector("mystery"), s.word_vector("mystery"));
    }

    #[test]
    fn same_class_anchors_cluster() {
        let s = space();
        let steal = s.word_vector("stealing");
        let sneaky = s.word_vector("sneaky");
        let expl = s.word_vector("explosion");
        assert!(cosine(&steal, &sneaky) > cosine(&steal, &expl));
    }

    #[test]
    fn shared_anchor_sits_between_classes() {
        let s = space();
        let person = s.word_vector("person");
        let c0 = cosine(&person, s.class_center(0));
        let c1 = cosine(&person, s.class_center(1));
        let c2 = cosine(&person, s.class_center(2));
        assert!(c0 > c2 && c1 > c2, "{c0} {c1} {c2}");
    }

    #[test]
    fn embed_bag_lands_near_active_concepts() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(1);
        let frame = s.embed_bag(&[("stealing", 1.0), ("sneaky", 0.5)], 0.01, &mut rng);
        let steal = s.word_vector("stealing");
        let expl = s.word_vector("explosion");
        assert!(euclidean(&frame, &steal) < euclidean(&frame, &expl));
    }

    #[test]
    fn token_vector_strips_end_of_word() {
        let s = space();
        assert_eq!(s.token_vector("stealing</w>"), s.word_vector("stealing"));
    }

    #[test]
    fn token_table_has_right_size() {
        let s = space();
        let mut v = Vocab::new();
        v.push("a".into());
        v.push("b</w>".into());
        assert_eq!(s.token_table(&v).len(), 2 * s.dim());
    }

    #[test]
    fn embed_text_averages_words() {
        let s = space();
        let a = s.embed_text("stealing");
        let b = s.embed_text("stealing stealing");
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn word_vector_lowercases_non_ascii() {
        let s = space();
        assert_eq!(s.word_vector("ÉCLAIR"), s.word_vector("éclair"));
    }

    #[test]
    fn concept_table_holds_anchors_and_precomputed_texts_verbatim() {
        let s = JointSpaceBuilder::new(32, 3, 42)
            .anchor("Stealing", 0, 0.9)
            .precompute(["walking", "quiet street"])
            .build();
        for key in ["stealing", "walking", "quiet street"] {
            assert_eq!(s.precomputed(key), Some(s.embed_text(key).as_slice()), "{key}");
        }
        assert_eq!(s.precomputed("Stealing"), None);
        assert_eq!(s.precomputed("street"), None);
    }

    #[test]
    fn precompute_changes_no_embedding() {
        let plain = space();
        let cached = JointSpaceBuilder::new(32, 3, 42)
            .anchor("stealing", 0, 0.9)
            .anchor("sneaky", 0, 0.8)
            .anchor("robbery", 1, 0.9)
            .anchor("firearm", 1, 0.8)
            .anchor("explosion", 2, 0.9)
            .anchor("person", 0, 0.4)
            .anchor("person", 1, 0.4)
            .precompute(["walking", "mystery"])
            .build();
        let bag = [("walking", 0.7), ("mystery", 0.2), ("stealing", 1.0), ("Walking", 0.1)];
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(3), StdRng::seed_from_u64(3));
        assert_eq!(
            plain.embed_bag(&bag, 0.05, &mut rng_a),
            cached.embed_bag(&bag, 0.05, &mut rng_b)
        );
        assert_eq!(rng_a, rng_b);
        assert_eq!(plain.word_vector("walking"), cached.word_vector("walking"));
    }

    #[test]
    fn embed_bag_into_overwrites_a_stale_buffer() {
        let s = space();
        let bag = [("stealing", 1.0), ("mystery", 0.5)];
        let mut out = vec![f32::NAN; s.dim()];
        s.embed_bag_into(bag, 0.05, &mut StdRng::seed_from_u64(9), &mut out);
        assert_eq!(out, s.embed_bag(&bag, 0.05, &mut StdRng::seed_from_u64(9)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_class() {
        let _ = JointSpaceBuilder::new(8, 2, 0).anchor("x", 5, 0.5);
    }
}
