//! Deployment-state persistence: a [`SessionCheckpoint`] captures one live
//! serving stream — its adapted KG structures, node-token assignments,
//! token-table delta (the overlay's adapted rows), frame-RNG position,
//! spare-row cursor and full adaptation-loop state — so it can be
//! checkpointed mid-stream and resumed elsewhere with bit-identical
//! behaviour: the "Model Deploy" arrow of the paper's Fig. 2, extended to
//! warm hand-off, crash recovery and session eviction.
//!
//! `SessionCheckpoint` is the one per-stream record for both eviction (the
//! session tier's spool) and recovery (the sharded runtime's shard
//! checkpoints). It carries the adapter's lifetime token-update and
//! replacement counts, so a restored stream's totals continue rather than
//! restart.
//!
//! The engine is *not* serialized: it is rebuilt deterministically from its
//! configuration, and [`restore_session`] validates that the checkpoint fits
//! the receiving session before it changes anything. This matches the
//! paper's deployment model, where the code image and trained weights are
//! fixed and only per-stream learned state moves.

use crate::adapt::{AdaptConfig, AdaptSnapshot, ContinuousAdapter};
use crate::engine::{CowVec, Engine, Session};
use akg_kg::{KnowledgeGraph, NodeId, NodeKind};
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::sync::Arc;

/// The [`SessionCheckpoint`] layout [`checkpoint_session`] writes and
/// [`restore_session`] accepts. Bump it whenever a field's meaning changes.
/// (Version 0 is a checkpoint written before the field existed; version 2
/// dropped the mean-shift tracker's lagged-reference state and
/// `AdaptConfig`'s `lag` and `anchored_reference`.)
pub const SESSION_CHECKPOINT_FORMAT: u32 = 2;

/// A session-granular checkpoint: everything that distinguishes one live
/// serving stream from a freshly opened one against the *same immutable
/// engine* — the KG structures and token assignments the stream has adapted,
/// its token-table delta, its RNG positions, and its full adaptation-loop
/// state.
///
/// The shared `Engine` (decision model, tokenizer, concept space) never
/// mutates per stream, so a crashed shard worker or an evicted session only
/// needs its `SessionCheckpoint` plus the deterministic engine rebuild to
/// resume bit-identically. Node-token maps are stored sorted by node id
/// so serialized checkpoints are byte-deterministic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// The layout version ([`SESSION_CHECKPOINT_FORMAT`] when written by
    /// this build). [`restore_session`] refuses any other.
    pub format_version: u32,
    /// [`Engine::fingerprint`] of the engine the session was captured
    /// against; [`restore_session`] refuses any other engine.
    pub engine_fingerprint: u64,
    /// Whether the session's KGs/layouts were still the engine's shared
    /// templates at capture (no structural adaptation yet). When true, the
    /// three per-KG arrays are left empty and restore re-points the session
    /// at the engine's templates — the engine reconstructs them
    /// deterministically, so serializing them would be redundant bytes.
    pub kgs_shared: bool,
    /// KG structures, one JSON document per mission (empty when
    /// `kgs_shared`).
    pub kgs: Vec<String>,
    /// Node-token assignments per KG, sorted by node id (empty when
    /// `kgs_shared`).
    pub node_tokens: Vec<Vec<(usize, Vec<usize>)>>,
    /// Per-KG mission embeddings (empty when `kgs_shared`).
    pub mission_embeddings: Vec<Vec<f32>>,
    /// The table's adapted rows, sorted by row index. This is what collapses
    /// a checkpoint from the full-table hundreds of KB to a delta
    /// proportional to the rows adaptation actually touched.
    pub table_delta: Vec<(usize, Vec<f32>)>,
    /// The token table's spare-row cursor.
    pub next_spare: usize,
    /// Frame-embedding RNG state (xoshiro256++ words).
    pub frame_rng: Vec<u64>,
    /// The adaptation loop's resumable state.
    pub adapter: AdaptSnapshot,
}

/// Captures a live session of `engine` and its adaptation loop into a
/// [`SessionCheckpoint`]: the engine's fingerprint, the table's
/// adapted-row delta, and KG bodies only once the session no longer shares
/// the engine's templates.
pub fn checkpoint_session(
    engine: &Engine,
    session: &Session,
    adapter: &ContinuousAdapter,
) -> SessionCheckpoint {
    let kgs_shared = session.kgs.is_shared() && session.layouts.is_shared();
    let (kgs, node_tokens, mission_embeddings) = if kgs_shared {
        (Vec::new(), Vec::new(), Vec::new())
    } else {
        (
            session.kgs.iter().map(|t| t.kg.to_json().expect("KG serializes")).collect(),
            session
                .kgs
                .iter()
                .map(|t| {
                    let mut rows: Vec<(usize, Vec<usize>)> =
                        t.node_tokens.iter().map(|(id, rows)| (id.0, rows.clone())).collect();
                    rows.sort_unstable_by_key(|(id, _)| *id);
                    rows
                })
                .collect(),
            session.kgs.iter().map(|t| t.mission_embedding.clone()).collect(),
        )
    };
    SessionCheckpoint {
        format_version: SESSION_CHECKPOINT_FORMAT,
        engine_fingerprint: engine.fingerprint(),
        kgs_shared,
        kgs,
        node_tokens,
        mission_embeddings,
        table_delta: session.table.overlay_delta(),
        next_spare: session.table.next_spare(),
        frame_rng: session.frame_rng.export_state().to_vec(),
        adapter: adapter.snapshot(),
    }
}

/// Restores a [`SessionCheckpoint`] into a freshly opened session of the
/// same engine, returning the re-attached adaptation loop. Validates
/// everything first and mutates only after every check has passed, so a
/// corrupt checkpoint leaves the session untouched.
///
/// # Errors
///
/// Returns a message if the checkpoint has another
/// [`SessionCheckpoint::format_version`] than [`SESSION_CHECKPOINT_FORMAT`],
/// was captured against another engine (its fingerprint differs from
/// [`Engine::fingerprint`]), or if KG counts, delta rows (index, width,
/// order, or a non-finite value), the adapter's frame buffer (more than
/// `cfg.n_window` rows, a row that is not `embed_dim` wide, or a non-finite
/// value), or RNG states disagree with the receiving session; if a stored
/// KG fails to parse or validate, or its node count or depth differs from
/// the engine's KG; if a node-token entry names no live node
/// of its KG, a reasoning node has no token rows, or a token row lies at or
/// past the checkpoint's spare cursor; or if a mission embedding is not
/// `embed_dim` wide or holds a non-finite value.
pub fn restore_session(
    engine: &Engine,
    session: &mut Session,
    cfg: AdaptConfig,
    cp: &SessionCheckpoint,
) -> Result<ContinuousAdapter, String> {
    if cp.format_version != SESSION_CHECKPOINT_FORMAT {
        return Err(format!(
            "checkpoint format version {} is not this build's {SESSION_CHECKPOINT_FORMAT}",
            cp.format_version
        ));
    }
    if cp.engine_fingerprint != engine.fingerprint() {
        return Err(format!(
            "checkpoint was captured against engine {:016x}, not this engine {:016x}",
            cp.engine_fingerprint,
            engine.fingerprint()
        ));
    }
    if cp.kgs_shared {
        if !cp.kgs.is_empty() || !cp.node_tokens.is_empty() || !cp.mission_embeddings.is_empty() {
            return Err("shared-KG checkpoint carries KG bodies".to_string());
        }
    } else {
        if cp.kgs.len() != session.kgs.len() {
            return Err(format!(
                "checkpoint KG count mismatch: {} vs session {}",
                cp.kgs.len(),
                session.kgs.len()
            ));
        }
        if cp.node_tokens.len() != cp.kgs.len() || cp.mission_embeddings.len() != cp.kgs.len() {
            return Err("checkpoint per-KG arrays disagree in length".to_string());
        }
    }
    let (capacity, dim) = (session.table.capacity(), session.table.dim());
    let mut prev: Option<usize> = None;
    for (r, v) in &cp.table_delta {
        if *r >= capacity {
            return Err(format!("checkpoint delta row {r} out of bounds ({capacity})"));
        }
        if v.len() != dim {
            return Err(format!("checkpoint delta row {r} has {} values, want {dim}", v.len()));
        }
        if prev.is_some_and(|p| p >= *r) {
            return Err("checkpoint delta rows must be sorted and unique".to_string());
        }
        if !v.iter().all(|x| x.is_finite()) {
            return Err(format!("checkpoint delta row {r} holds a non-finite value"));
        }
        prev = Some(*r);
    }
    let buffer = &cp.adapter.buffer;
    if buffer.len() > cfg.n_window {
        return Err(format!(
            "checkpoint adapter buffer holds {} frames, window is {}",
            buffer.len(),
            cfg.n_window
        ));
    }
    let embed_dim = engine.config().embed_dim;
    for (i, frame) in buffer.iter().enumerate() {
        if frame.len() != embed_dim {
            return Err(format!(
                "checkpoint buffered frame {i} has {} values, want {embed_dim}",
                frame.len()
            ));
        }
        if !frame.iter().all(|x| x.is_finite()) {
            return Err(format!("checkpoint buffered frame {i} holds a non-finite value"));
        }
    }
    if !(session.table.vocab_len()..=capacity).contains(&cp.next_spare) {
        return Err(format!(
            "checkpoint spare cursor {} outside [{}, {capacity}]",
            cp.next_spare,
            session.table.vocab_len()
        ));
    }
    let frame_rng: [u64; 4] = cp
        .frame_rng
        .as_slice()
        .try_into()
        .map_err(|_| "checkpoint frame RNG state must hold 4 words".to_string())?;
    if frame_rng == [0; 4] {
        return Err("checkpoint frame RNG state is all-zero".to_string());
    }
    let adapter_rng: Result<[u64; 4], _> = cp.adapter.rng.as_slice().try_into();
    match adapter_rng {
        Err(_) => return Err("checkpoint adapter RNG state must hold 4 words".to_string()),
        Ok(words) if words == [0; 4] => {
            return Err("checkpoint adapter RNG state is all-zero".to_string())
        }
        Ok(_) => {}
    }
    // Parse and structurally validate every KG before touching the session.
    // Adaptation replaces nodes one for one, so a KG keeps the engine's
    // node count and depth — which the batched GNN forward relies on.
    let mut kgs = Vec::with_capacity(cp.kgs.len());
    for (i, kg_json) in cp.kgs.iter().enumerate() {
        let kg = KnowledgeGraph::from_json(kg_json)?;
        let errors = kg.validate();
        if !errors.is_empty() {
            return Err(format!("checkpoint KG {i} invalid: {errors:?}"));
        }
        let template = &engine.kgs[i].kg;
        if (kg.node_count(), kg.depth()) != (template.node_count(), template.depth()) {
            return Err(format!(
                "checkpoint KG {i} has {} nodes at depth {}, the engine's {} at depth {}",
                kg.node_count(),
                kg.depth(),
                template.node_count(),
                template.depth()
            ));
        }
        kgs.push(kg);
    }
    // Every row the KGs read must exist in the restored table, and every
    // reasoning node must read at least one — the scoring path indexes
    // both without checking.
    for (i, (kg, tokens)) in kgs.iter().zip(&cp.node_tokens).enumerate() {
        let mut tokenized = HashSet::with_capacity(tokens.len());
        for (id, rows) in tokens {
            if kg.node(NodeId(*id)).is_none() {
                return Err(format!("checkpoint KG {i}: node-token entry for dead node {id}"));
            }
            if let Some(&row) = rows.iter().find(|&&r| r >= cp.next_spare) {
                return Err(format!(
                    "checkpoint KG {i}: node {id} reads row {row}, past the spare cursor {}",
                    cp.next_spare
                ));
            }
            if !rows.is_empty() {
                tokenized.insert(NodeId(*id));
            }
        }
        if let Some(node) =
            kg.nodes().find(|n| n.kind == NodeKind::Reasoning && !tokenized.contains(&n.id))
        {
            return Err(format!(
                "checkpoint KG {i}: reasoning node {} has no token rows",
                node.id.0
            ));
        }
    }
    for (i, embedding) in cp.mission_embeddings.iter().enumerate() {
        if embedding.len() != embed_dim {
            return Err(format!(
                "checkpoint mission embedding {i} has {} values, want {embed_dim}",
                embedding.len()
            ));
        }
        if !embedding.iter().all(|x| x.is_finite()) {
            return Err(format!("checkpoint mission embedding {i} holds a non-finite value"));
        }
    }

    // all checks passed; apply
    if cp.kgs_shared {
        // The engine's templates ARE the checkpointed state — re-point the
        // session at them (dropping any private copies a previous restore
        // may have left behind).
        session.kgs = CowVec::shared(Arc::clone(&engine.kgs));
        session.layouts = CowVec::shared(Arc::clone(&engine.layouts));
    } else {
        for (i, kg) in kgs.into_iter().enumerate() {
            session.kgs[i].kg = kg;
            session.kgs[i].node_tokens =
                cp.node_tokens[i].iter().map(|(id, rows)| (NodeId(*id), rows.clone())).collect();
            session.kgs[i].mission_embedding = cp.mission_embeddings[i].clone();
            session.rebuild_layout(i);
        }
    }
    session.table.apply_overlay_delta(&cp.table_delta);
    session.table.restore_spare_cursor(cp.next_spare);
    session.frame_rng = StdRng::restore_state(frame_rng);
    Ok(ContinuousAdapter::restore(engine, session, cfg, &cp.adapter))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::SystemConfig;
    use akg_data::{AdaptationStream, DatasetConfig, Frame, SyntheticUcfCrime};
    use akg_kg::AnomalyClass;
    use rand::SeedableRng;

    fn engine(missions: &[AnomalyClass], seed: u64) -> Engine {
        Engine::build(missions, &SystemConfig { seed, ..SystemConfig::default() })
    }

    fn adapt_cfg() -> AdaptConfig {
        AdaptConfig { n_window: 24, interval: 8, min_k: 1, max_k: 4, ..AdaptConfig::default() }
    }

    #[test]
    fn restored_rng_continues_not_restarts() {
        // An unadapted overlay session checkpoints only its RNG positions
        // and adapter state (KGs stay shared); the restored twin's next
        // frame embedding must continue the stream, not restart it.
        let engine = engine(&[AnomalyClass::Stealing], 7);
        let frame =
            Frame { concepts: vec![("grab".into(), 1.0), ("person".into(), 0.6)], label: None };
        let mut session = engine.new_session(70);
        let adapter = ContinuousAdapter::attach(&engine, &mut session, AdaptConfig::default());
        let first = engine.embed_frame(&mut session, &frame);
        let cp = checkpoint_session(&engine, &session, &adapter);
        assert!(cp.kgs_shared && cp.kgs.is_empty());
        let next_original = engine.embed_frame(&mut session, &frame);
        let mut twin = engine.new_session(70);
        restore_session(&engine, &mut twin, AdaptConfig::default(), &cp).unwrap();
        let next_restored = engine.embed_frame(&mut twin, &frame);
        assert_eq!(next_original, next_restored, "restored frame RNG did not continue the stream");
        assert_ne!(first, next_restored, "restored frame RNG restarted the stream");
    }

    #[test]
    fn session_checkpoint_resumes_bit_identically() {
        // The recovery primitive the sharded supervisor rests on: checkpoint
        // a mid-adaptation session, serialize it, restore the parsed copy
        // into a fresh session of an identically built engine, and the
        // continuation must match the uninterrupted run bit for bit.
        let ds = SyntheticUcfCrime::generate(
            DatasetConfig::scaled(0.015)
                .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
                .with_seed(31),
        );
        let cfg = adapt_cfg();
        let engine_a = engine(&[AnomalyClass::Stealing], 11);
        let mut session = engine_a.new_session(11);
        let mut adapter = ContinuousAdapter::attach(&engine_a, &mut session, cfg);
        let mut stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 13);
        for _ in 0..40 {
            let (f, _) = stream.next_frame();
            adapter.observe(&engine_a, &mut session, &f);
        }
        let cp = checkpoint_session(&engine_a, &session, &adapter);
        // Serialized bytes must be deterministic (node-token maps sorted) —
        // two captures of the same state are byte-identical.
        let json = serde_json::to_string(&cp).unwrap();
        assert_eq!(
            json,
            serde_json::to_string(&checkpoint_session(&engine_a, &session, &adapter)).unwrap(),
            "session checkpoint serialization is not byte-deterministic"
        );
        let cp: SessionCheckpoint = serde_json::from_str(&json).unwrap();

        let engine_b = engine(&[AnomalyClass::Stealing], 11);
        let mut twin = engine_b.new_session(11);
        let mut twin_adapter = restore_session(&engine_b, &mut twin, cfg, &cp).unwrap();
        assert_eq!(twin_adapter.observed(), adapter.observed());

        let mut twin_stream = AdaptationStream::new(&ds, AnomalyClass::Stealing, 0.5, 13);
        let _ = twin_stream.next_batch(40); // fast-forward past the checkpoint
        for i in 0..40 {
            let (f1, _) = stream.next_frame();
            let (f2, _) = twin_stream.next_frame();
            assert_eq!(f1, f2, "streams out of sync at {i}");
            let s1 = adapter.observe(&engine_a, &mut session, &f1);
            let s2 = twin_adapter.observe(&engine_b, &mut twin, &f2);
            assert_eq!(s1, s2, "restored session diverged at frame {i}");
        }
        assert_eq!(adapter.replacements(), twin_adapter.replacements());
        assert_eq!(
            session.table.to_dense_vec(),
            twin.table.to_dense_vec(),
            "restored session table diverged after continuation"
        );
    }

    #[test]
    fn restore_session_rejects_corrupt_checkpoint_without_mutating() {
        let engine = engine(&[AnomalyClass::Stealing], 12);
        let mut session = engine.new_session(12);
        let adapter = ContinuousAdapter::attach(&engine, &mut session, AdaptConfig::default());
        // a structural edit makes the checkpoint carry its KG bodies
        session.rebuild_layout(0);
        let cp = checkpoint_session(&engine, &session, &adapter);
        assert!(!cp.kgs_shared);
        let cfg = *adapter.config();

        let mut twin = engine.new_session(12);
        let row = twin.table.allocate_random_row(&mut StdRng::seed_from_u64(3)).unwrap();
        let bits = |s: &Session| s.table.to_dense_vec().iter().map(|v| v.to_bits()).collect();
        let untouched: Vec<u32> = bits(&twin);
        let (dim, capacity) = (twin.table.dim(), twin.table.capacity());
        let fine = vec![0.25f32; dim];

        let mut bad = cp.clone();
        bad.frame_rng = vec![1, 2, 3];
        assert!(restore_session(&engine, &mut twin, cfg, &bad).is_err());

        let mut bad = cp.clone();
        bad.frame_rng = vec![0, 0, 0, 0];
        assert!(restore_session(&engine, &mut twin, cfg, &bad).is_err());

        let mut bad = cp.clone();
        bad.adapter.rng = vec![7];
        assert!(restore_session(&engine, &mut twin, cfg, &bad).is_err(), "short adapter RNG");

        let mut bad = cp.clone();
        bad.adapter.rng = vec![0, 0, 0, 0];
        assert!(restore_session(&engine, &mut twin, cfg, &bad).is_err(), "all-zero adapter RNG");

        let mut inf = fine.clone();
        inf[0] = f32::INFINITY;
        let deltas = [
            ("NaN row", vec![(row, fine.clone()), (row + 1, vec![f32::NAN; dim])]),
            ("+inf row", vec![(row, inf)]),
            ("row out of bounds", vec![(capacity, fine.clone())]),
            ("wrong width", vec![(row, vec![0.25; dim - 1])]),
            ("unsorted rows", vec![(row + 1, fine.clone()), (row, fine.clone())]),
        ];
        for (what, delta) in deltas {
            let mut bad = cp.clone();
            bad.table_delta = delta;
            assert!(restore_session(&engine, &mut twin, cfg, &bad).is_err(), "{what} accepted");
        }

        // Each buffer would restore into a panic or unbounded growth: a
        // short row fails the first scoring pass, and `ingest_frame` only
        // pops once the buffer is exactly `n_window` long.
        let embed_dim = engine.config().embed_dim;
        let mut nan_frame = vec![0.25f32; embed_dim];
        nan_frame[1] = f32::NAN;
        let buffers = [
            ("short buffered frame", vec![vec![0.25; embed_dim], vec![0.25; 3]]),
            ("buffer longer than n_window", vec![vec![0.25; embed_dim]; cfg.n_window + 1]),
            ("NaN buffered frame", vec![nan_frame]),
        ];
        for (what, buffer) in buffers {
            let mut bad = cp.clone();
            bad.adapter.buffer = buffer;
            assert!(restore_session(&engine, &mut twin, cfg, &bad).is_err(), "{what} accepted");
        }

        let mut bad = cp.clone();
        bad.kgs[0] = "{broken".to_string();
        assert!(restore_session(&engine, &mut twin, cfg, &bad).is_err());

        // Token assignments and mission embeddings that would restore into
        // a panic inside `restore_session` itself, a panic on the next
        // score, or NaN scores.
        let (node, _) = cp.node_tokens[0][0].clone();
        type NodeTokens = Vec<(usize, Vec<usize>)>;
        let tokens = |edit: &dyn Fn(&mut NodeTokens)| {
            let mut bad = cp.clone();
            edit(&mut bad.node_tokens[0]);
            bad
        };
        let mut nan_mission = cp.clone();
        nan_mission.mission_embeddings[0][1] = f32::NAN;
        let mut narrow_mission = cp.clone();
        narrow_mission.mission_embeddings[0] = vec![0.5; 3];
        // A valid KG one node short scores alone but not batched with the
        // engine's other sessions.
        let mut smaller = cp.clone();
        let mut kg = KnowledgeGraph::from_json(&cp.kgs[0]).unwrap();
        let victim = kg.node_ids_at_level(1)[0];
        kg.prune_node(victim).unwrap();
        akg_kg::modify::repair_connectivity(&mut kg, &mut StdRng::seed_from_u64(5));
        assert!(kg.validate().is_empty());
        smaller.kgs[0] = kg.to_json().unwrap();
        smaller.node_tokens[0].retain(|(id, _)| *id != victim.0);
        let corrupt = [
            ("token row past capacity", tokens(&|t| t[0].1 = vec![capacity + 32_000])),
            ("token row past the spare cursor", tokens(&|t| t[0].1 = vec![cp.next_spare])),
            ("empty token list", tokens(&|t| t[0].1.clear())),
            ("reasoning node without tokens", tokens(&|t| t.retain(|(id, _)| *id != node))),
            ("tokens for a dead node", tokens(&|t| t.push((usize::MAX / 2, vec![1])))),
            ("3-wide mission embedding", narrow_mission),
            ("NaN mission embedding", nan_mission),
            ("KG one node short", smaller),
        ];
        for (what, bad) in corrupt {
            assert!(restore_session(&engine, &mut twin, cfg, &bad).is_err(), "{what} accepted");
        }

        // A checkpoint of another engine — another mission at another
        // seed — is refused before anything changes, whether it carries
        // KG bodies or (the case nothing else would catch) shares the
        // engine's templates.
        let mut fresh = engine.new_session(12);
        let fresh_adapter = ContinuousAdapter::attach(&engine, &mut fresh, cfg);
        let shared_cp = checkpoint_session(&engine, &fresh, &fresh_adapter);
        assert!(shared_cp.kgs_shared);
        let foreign = self::engine(&[AnomalyClass::Explosion], 13);
        let mut stranger = foreign.new_session(12);
        let stranger_bits: Vec<u32> = bits(&stranger);
        for (what, foreign_cp) in [("KG bodies", &cp), ("shared KGs", &shared_cp)] {
            let refused = restore_session(&foreign, &mut stranger, cfg, foreign_cp);
            assert!(refused.is_err(), "{what}: foreign-engine checkpoint accepted");
        }
        assert_eq!(bits(&stranger), stranger_bits, "a foreign checkpoint mutated the session");
        assert!(stranger.kgs.is_shared() && stranger.layouts.is_shared());
        // The mission alone or the seed alone changes the fingerprint; a
        // deterministic rebuild (shard recovery) reproduces it.
        assert_ne!(self::engine(&[AnomalyClass::Stealing], 13).fingerprint(), engine.fingerprint());
        assert_ne!(
            self::engine(&[AnomalyClass::Explosion], 12).fingerprint(),
            engine.fingerprint()
        );
        assert_eq!(self::engine(&[AnomalyClass::Stealing], 12).fingerprint(), engine.fingerprint());

        assert_eq!(
            bits(&twin),
            untouched,
            "a rejected checkpoint must leave the session untouched"
        );
        assert!(twin.kgs.is_shared() && twin.layouts.is_shared());
        // and the pristine checkpoint still restores fine afterwards
        assert!(restore_session(&engine, &mut twin, cfg, &cp).is_ok());
    }

    #[test]
    fn restore_session_refuses_other_format_versions_without_mutating() {
        let engine = engine(&[AnomalyClass::Stealing], 14);
        let mut session = engine.new_session(14);
        let adapter = ContinuousAdapter::attach(&engine, &mut session, AdaptConfig::default());
        session.rebuild_layout(0);
        let cp = checkpoint_session(&engine, &session, &adapter);
        assert_eq!(cp.format_version, SESSION_CHECKPOINT_FORMAT);
        let cfg = *adapter.config();

        let mut twin = engine.new_session(15);
        twin.table.allocate_random_row(&mut StdRng::seed_from_u64(4)).unwrap();
        let untouched = twin.table.to_dense_vec();
        let (stamp, next_spare) = (twin.state_stamp(), twin.table.next_spare());
        // A checkpoint written before the field existed does not parse.
        let json = serde_json::to_string(&cp).unwrap();
        let field = format!("\"format_version\":{SESSION_CHECKPOINT_FORMAT},");
        assert!(json.contains(&field));
        assert!(serde_json::from_str::<SessionCheckpoint>(&json.replace(&field, "")).is_err());
        for version in [0, SESSION_CHECKPOINT_FORMAT + 1] {
            let bad = SessionCheckpoint { format_version: version, ..cp.clone() };
            let refused = restore_session(&engine, &mut twin, cfg, &bad);
            assert!(refused.unwrap_err().contains("format version"), "version {version}");
        }
        assert_eq!(twin.table.to_dense_vec(), untouched, "a refused version changed the table");
        assert_eq!(twin.table.next_spare(), next_spare);
        assert_eq!(twin.state_stamp(), stamp, "a refused version wrote the session");
        assert!(twin.kgs.is_shared() && twin.layouts.is_shared());
        assert!(restore_session(&engine, &mut twin, cfg, &cp).is_ok());
    }

    #[test]
    fn load_rejects_mission_mismatch() {
        // A checkpoint carrying one mission's KG cannot restore into a
        // session of an engine deployed for two.
        let one = engine(&[AnomalyClass::Stealing], 5);
        let mut session = one.new_session(5);
        let adapter = ContinuousAdapter::attach(&one, &mut session, AdaptConfig::default());
        session.rebuild_layout(0);
        let cp = checkpoint_session(&one, &session, &adapter);
        assert!(!cp.kgs_shared);
        let two = engine(&[AnomalyClass::Stealing, AnomalyClass::Robbery], 5);
        let mut other = two.new_session(5);
        let untouched = other.table.to_dense_vec();
        assert!(restore_session(&two, &mut other, *adapter.config(), &cp).is_err());
        assert_eq!(other.table.to_dense_vec(), untouched);
        assert!(other.kgs.is_shared());
    }
}
