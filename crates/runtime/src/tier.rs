//! The session tier: serve far more *registered* streams than fit in RAM.
//!
//! [`MultiStreamRuntime`](crate::MultiStreamRuntime) keeps every stream's
//! session resident, which is right for a camera rack but wrong for the
//! ROADMAP's "millions of users": most registered sessions are idle at any
//! instant. [`SessionTier`] keeps only a bounded LRU working set of live
//! `(Session, ContinuousAdapter)` pairs resident; everything beyond the cap
//! is serialized to a disk spool via the delta checkpoints of
//! [`akg_core::persist`] (an overlay session's checkpoint is its adapted-row
//! delta plus adapter state — a few KB, not the full table) and rehydrated on
//! the session's next frame. Registration itself is lazy: a registered-but-
//! never-served session costs one registry entry and zero engine state.
//!
//! The recovery contract carries over from the persistence layer:
//! evict → rehydrate → continue is bit-identical to never evicting
//! (`tests/tier.rs` enforces this under both backends), so the tier is
//! purely a memory/latency trade — resume latency is measured per
//! rehydration into a [`LatencyHistogram`].

use crate::slo::LatencyHistogram;
use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
use akg_core::engine::{Engine, Session};
use akg_core::persist::{self, SessionCheckpoint};
use akg_data::Frame;
use serde::Serialize;
use std::collections::VecDeque;
use std::path::PathBuf;
use std::time::Instant;

/// Identifies a registered session within its tier (dense, 0-based).
pub type SessionId = usize;

/// Session-tier sizing and spool placement.
#[derive(Debug, Clone)]
pub struct TierConfig {
    /// Maximum number of sessions kept resident (the live working set).
    /// Serving a session while the set is full evicts the least recently
    /// used resident to the spool first.
    pub max_resident: usize,
    /// Directory the tier spools cold sessions into (one JSON checkpoint
    /// per evicted session). Created on construction.
    pub spool_dir: PathBuf,
}

/// Lifetime counters of one tier (all deterministic given the serve order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct TierCounters {
    /// Sessions served for the first time (lazy materialization).
    pub cold_starts: usize,
    /// Residents serialized to the spool to make room.
    pub evictions: usize,
    /// Spooled sessions read back and restored on a frame's arrival.
    pub rehydrations: usize,
    /// Rehydration attempts that failed validation or I/O. The acceptance
    /// gate for the session bench is that this stays zero.
    pub rehydration_failures: usize,
}

/// One registered session's tier-side state.
#[derive(Debug)]
enum SlotState {
    /// Registered, never served: no engine state exists yet.
    Fresh,
    /// Live in the working set.
    Resident(Box<ResidentSession>),
    /// Serialized to the spool file for this id.
    Spooled,
}

#[derive(Debug)]
struct ResidentSession {
    session: Session,
    adapter: ContinuousAdapter,
}

#[derive(Debug)]
struct Slot {
    frame_seed: u64,
    adapt: AdaptConfig,
    state: SlotState,
}

/// An LRU-evicting tier of serving sessions over one shared [`Engine`].
#[derive(Debug)]
pub struct SessionTier {
    engine: Engine,
    cfg: TierConfig,
    slots: Vec<Slot>,
    /// Resident ids, least recently used first.
    lru: VecDeque<SessionId>,
    counters: TierCounters,
    resume_latency: LatencyHistogram,
}

impl SessionTier {
    /// Creates an empty tier around `engine`.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.max_resident == 0` (nothing could ever be served) or
    /// the spool directory cannot be created.
    pub fn new(engine: Engine, cfg: TierConfig) -> Self {
        assert!(cfg.max_resident > 0, "SessionTier: max_resident must be positive");
        std::fs::create_dir_all(&cfg.spool_dir).expect("SessionTier: create spool dir");
        SessionTier {
            engine,
            cfg,
            slots: Vec::new(),
            lru: VecDeque::new(),
            counters: TierCounters::default(),
            resume_latency: LatencyHistogram::new(),
        }
    }

    /// Registers a session (lazily — no engine state is built until its
    /// first frame) and returns its id.
    pub fn register(&mut self, frame_seed: u64, adapt: AdaptConfig) -> SessionId {
        let id = self.slots.len();
        self.slots.push(Slot { frame_seed, adapt, state: SlotState::Fresh });
        id
    }

    /// Serves one frame to session `id`: materializes or rehydrates the
    /// session if it is not resident (evicting the LRU resident beyond the
    /// cap), scores the frame, and runs the session's adaptation loop —
    /// exactly the per-frame path a permanently resident stream takes, so
    /// scores are unaffected by tier churn.
    ///
    /// # Errors
    ///
    /// Returns a message when `id` is unknown, the frame fails validation,
    /// the LRU resident cannot be written to the spool (it then stays
    /// resident), or a spooled checkpoint cannot be read back (counted in
    /// [`TierCounters::rehydration_failures`]).
    pub fn serve_frame(&mut self, id: SessionId, frame: &Frame) -> Result<f32, String> {
        if id >= self.slots.len() {
            return Err(format!("SessionTier: unknown session {id}"));
        }
        frame.validate().map_err(|e| format!("SessionTier: invalid frame: {e:?}"))?;
        self.ensure_resident(id)?;
        self.touch(id);
        let slot = &mut self.slots[id];
        let SlotState::Resident(resident) = &mut slot.state else {
            unreachable!("ensure_resident left session {id} non-resident");
        };
        Ok(resident.adapter.observe(&self.engine, &mut resident.session, frame))
    }

    /// Makes `id` resident (cold start or rehydration), evicting beyond the
    /// cap first so peak residency never exceeds `max_resident`.
    fn ensure_resident(&mut self, id: SessionId) -> Result<(), String> {
        if matches!(self.slots[id].state, SlotState::Resident(_)) {
            return Ok(());
        }
        while self.lru.len() >= self.cfg.max_resident {
            // the victim leaves the LRU order only once it is safely spooled
            self.evict(self.lru[0])?;
            self.lru.pop_front();
        }
        let (frame_seed, adapt) = (self.slots[id].frame_seed, self.slots[id].adapt);
        let resident = match self.slots[id].state {
            SlotState::Fresh => {
                self.counters.cold_starts += 1;
                let mut session = self.engine.new_session(frame_seed);
                let adapter = ContinuousAdapter::attach(&self.engine, &mut session, adapt);
                ResidentSession { session, adapter }
            }
            SlotState::Spooled => {
                let start = Instant::now();
                let restored = self.rehydrate(id, frame_seed, adapt);
                match restored {
                    Ok(resident) => {
                        self.counters.rehydrations += 1;
                        self.resume_latency.record(start.elapsed().as_nanos() as u64);
                        resident
                    }
                    Err(e) => {
                        self.counters.rehydration_failures += 1;
                        return Err(e);
                    }
                }
            }
            SlotState::Resident(_) => unreachable!("checked above"),
        };
        self.slots[id].state = SlotState::Resident(Box::new(resident));
        self.lru.push_back(id);
        Ok(())
    }

    /// Reads a spooled checkpoint back into a fresh overlay session.
    fn rehydrate(
        &self,
        id: SessionId,
        frame_seed: u64,
        adapt: AdaptConfig,
    ) -> Result<ResidentSession, String> {
        let path = self.spool_path(id);
        let json = std::fs::read_to_string(&path)
            .map_err(|e| format!("SessionTier: read {}: {e}", path.display()))?;
        let cp: SessionCheckpoint = serde_json::from_str(&json)
            .map_err(|e| format!("SessionTier: parse {}: {e}", path.display()))?;
        let mut session = self.engine.new_session(frame_seed);
        let adapter = persist::restore_session(&self.engine, &mut session, adapt, &cp)?;
        Ok(ResidentSession { session, adapter })
    }

    /// Serializes a resident session to its spool file and drops it. The
    /// checkpoint is written to a temporary file and renamed into place, so
    /// the spool never holds a torn checkpoint. On an I/O error the session
    /// stays resident and untouched.
    fn evict(&mut self, id: SessionId) -> Result<(), String> {
        let SlotState::Resident(resident) = &self.slots[id].state else {
            unreachable!("evicting non-resident session {id}");
        };
        let cp = persist::checkpoint_session(&self.engine, &resident.session, &resident.adapter);
        let json = serde_json::to_string(&cp).expect("session checkpoint serializes");
        let path = self.spool_path(id);
        let tmp = path.with_extension("json.tmp");
        std::fs::write(&tmp, json).and_then(|()| std::fs::rename(&tmp, &path)).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("SessionTier: spool session {id} to {}: {e}", path.display())
        })?;
        self.slots[id].state = SlotState::Spooled;
        self.counters.evictions += 1;
        Ok(())
    }

    /// Moves `id` to the most-recently-used end of the LRU order.
    fn touch(&mut self, id: SessionId) {
        if self.lru.back() == Some(&id) {
            return;
        }
        if let Some(pos) = self.lru.iter().position(|&r| r == id) {
            self.lru.remove(pos);
            self.lru.push_back(id);
        }
    }

    fn spool_path(&self, id: SessionId) -> PathBuf {
        self.cfg.spool_dir.join(format!("session-{id}.json"))
    }

    /// Total sessions registered (resident + spooled + never served).
    pub fn registered_count(&self) -> usize {
        self.slots.len()
    }

    /// Sessions currently resident (bounded by `max_resident`).
    pub fn resident_count(&self) -> usize {
        self.lru.len()
    }

    /// Lifetime tier counters.
    pub fn counters(&self) -> TierCounters {
        self.counters
    }

    /// Wall-clock rehydration latencies, one sample per rehydration.
    pub fn resume_latency(&self) -> &LatencyHistogram {
        &self.resume_latency
    }

    /// Estimated private heap bytes of all resident sessions (see
    /// [`Session::state_bytes`]) — the tier's per-session RAM cost; the
    /// engine and spool are excluded.
    pub fn resident_bytes(&self) -> usize {
        self.slots
            .iter()
            .filter_map(|s| match &s.state {
                SlotState::Resident(r) => Some(r.session.state_bytes()),
                _ => None,
            })
            .sum()
    }

    /// The serialized size of session `id`'s current state in bytes (its
    /// spool-file size if spooled, a fresh capture if resident, `None` if
    /// never served).
    pub fn checkpoint_bytes(&self, id: SessionId) -> Option<usize> {
        match &self.slots.get(id)?.state {
            SlotState::Fresh => None,
            SlotState::Resident(r) => {
                let cp = persist::checkpoint_session(&self.engine, &r.session, &r.adapter);
                Some(serde_json::to_string(&cp).expect("session checkpoint serializes").len())
            }
            SlotState::Spooled => {
                std::fs::metadata(self.spool_path(id)).ok().map(|m| m.len() as usize)
            }
        }
    }

    /// The shared engine.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Removes the tier's spool directory (best-effort; benches call this
    /// so repeated runs do not accumulate spool files).
    pub fn clear_spool(&self) {
        let _ = std::fs::remove_dir_all(&self.cfg.spool_dir);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use akg_core::pipeline::SystemConfig;
    use akg_kg::AnomalyClass;

    /// A flat per-process, per-test spool directory, so `clear_spool`
    /// removes everything the test made.
    fn spool_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("akg-session-tier-{}-unit-{tag}", std::process::id()))
    }

    fn tier(max_resident: usize, tag: &str) -> SessionTier {
        let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
        SessionTier::new(engine, TierConfig { max_resident, spool_dir: spool_dir(tag) })
    }

    fn frame() -> Frame {
        Frame { concepts: vec![("walking".into(), 1.0)], label: None }
    }

    #[test]
    fn residency_stays_bounded_and_counters_track() {
        let mut t = tier(2, "residency");
        let ids: Vec<_> = (0..4).map(|i| t.register(i as u64, AdaptConfig::default())).collect();
        assert_eq!(t.registered_count(), 4);
        assert_eq!(t.resident_count(), 0, "registration must be lazy");
        for &id in &ids {
            t.serve_frame(id, &frame()).unwrap();
            assert!(t.resident_count() <= 2);
        }
        let c = t.counters();
        assert_eq!(c.cold_starts, 4);
        assert_eq!(c.evictions, 2);
        assert_eq!(c.rehydration_failures, 0);
        // returning to an evicted session rehydrates it
        t.serve_frame(ids[0], &frame()).unwrap();
        assert_eq!(t.counters().rehydrations, 1);
        assert_eq!(t.resume_latency().count(), 1);
        t.clear_spool();
    }

    #[test]
    fn unknown_session_and_invalid_frame_are_rejected() {
        let mut t = tier(1, "rejects");
        assert!(t.serve_frame(0, &frame()).is_err());
        let id = t.register(0, AdaptConfig::default());
        let bad = Frame { concepts: vec![("".into(), 1.0)], label: None };
        assert!(t.serve_frame(id, &bad).is_err());
        assert_eq!(t.counters(), TierCounters::default());
        t.clear_spool();
    }

    #[test]
    fn spool_write_failure_keeps_the_victim_resident() {
        let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
        let spool_dir = spool_dir("spool-failure");
        let mut t =
            SessionTier::new(engine, TierConfig { max_resident: 1, spool_dir: spool_dir.clone() });
        let victim = t.register(0, AdaptConfig::default());
        let next = t.register(1, AdaptConfig::default());
        t.serve_frame(victim, &frame()).unwrap();
        // a regular file where the spool directory was: every write fails
        std::fs::remove_dir_all(&spool_dir).unwrap();
        std::fs::write(&spool_dir, b"not a directory").unwrap();
        assert!(t.serve_frame(next, &frame()).is_err(), "failed spool write must be an Err");
        assert_eq!(t.counters().evictions, 0);
        assert_eq!(t.resident_count(), 1);
        assert!(t.serve_frame(victim, &frame()).is_ok(), "the victim must still be servable");
        assert_eq!(t.counters().cold_starts, 1);
        std::fs::remove_file(&spool_dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "max_resident must be positive")]
    fn zero_capacity_is_rejected() {
        let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
        let _ =
            SessionTier::new(engine, TierConfig { max_resident: 0, spool_dir: spool_dir("zero") });
    }
}
