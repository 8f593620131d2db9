//! The benchmark's one contact with the session tier. Everything that names
//! `SessionTier` lives in this file, so a change to how sessions are tiered
//! (for example folding residency into the multi-stream runtime) touches
//! the benchmark here and nowhere else.

use crate::trace::timed;
use akg_core::adapt::AdaptConfig;
use akg_core::engine::Engine;
use akg_data::Frame;
use akg_runtime::tier::{SessionTier, TierConfig, TierCounters};
use std::path::PathBuf;

/// How a served frame found its session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Already resident.
    Hit,
    /// Materialized for the first time.
    ColdStart,
    /// Read back from the spool.
    Rehydrated,
}

/// One `serve_frame` call as seen from outside.
#[derive(Debug)]
pub struct Served {
    /// The score, or the tier's error.
    pub score: Result<f32, String>,
    /// Duration of the call, ns.
    pub ns: u64,
    /// Classification by the counters the call advanced; `None` for a
    /// failed call or counters that moved in a way no single call can.
    pub residency: Option<Residency>,
    /// Residents the call evicted.
    pub evictions: usize,
}

/// A session tier over a moved-in engine.
pub struct TierPort {
    tier: SessionTier,
}

impl TierPort {
    /// Opens a tier spooling into `spool_dir` and lazily registers
    /// `sessions` sessions, `configure(id)` giving each its frame seed and
    /// adaptation settings.
    pub fn open(
        engine: Engine,
        max_resident: usize,
        spool_dir: PathBuf,
        sessions: usize,
        configure: impl Fn(usize) -> (u64, AdaptConfig),
    ) -> Self {
        let mut tier = SessionTier::new(engine, TierConfig { max_resident, spool_dir });
        for id in 0..sessions {
            let (frame_seed, adapt) = configure(id);
            tier.register(frame_seed, adapt);
        }
        TierPort { tier }
    }

    /// Serves one frame to session `id`, timing the call and classifying
    /// it by the counters it advanced.
    pub fn serve(&mut self, id: usize, frame: &Frame) -> Served {
        let before = self.tier.counters();
        let (score, ns) = timed(|| self.tier.serve_frame(id, frame));
        let after = self.tier.counters();
        let cold = after.cold_starts - before.cold_starts;
        let rehydrated = after.rehydrations - before.rehydrations;
        let residency = match (cold, rehydrated, score.is_ok()) {
            (0, 0, true) => Some(Residency::Hit),
            (1, 0, true) => Some(Residency::ColdStart),
            (0, 1, true) => Some(Residency::Rehydrated),
            _ => None,
        };
        Served { score, ns, residency, evictions: after.evictions - before.evictions }
    }

    /// Lifetime tier counters.
    pub fn counters(&self) -> TierCounters {
        self.tier.counters()
    }

    /// Sessions resident now.
    pub fn resident(&self) -> usize {
        self.tier.resident_count()
    }

    /// Mean serialized size of the sessions among `ids` that have state.
    pub fn checkpoint_bytes_mean(&self, ids: impl Iterator<Item = usize>) -> f64 {
        let sizes: Vec<usize> = ids.filter_map(|id| self.tier.checkpoint_bytes(id)).collect();
        sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64
    }
}

impl Drop for TierPort {
    fn drop(&mut self) {
        self.tier.clear_spool();
    }
}
