//! The `churn` workload: thousands of registered sessions behind a small
//! resident cap, with Zipf-popular sessions, so most frames miss and each
//! miss pairs a checkpoint write (evict) with a read and restore
//! (rehydrate). The only workload that exercises the tier and the
//! persistence layer. It is not listed in `BENCHMARK.json`: its spool lives
//! in the working directory, and on the reference host's disk the spool
//! writes made its timings drift from run to run (see `README.md`).

use crate::feed::{mix, ChurnFeed};
use crate::stats::Ledger;
use crate::tier_port::{Residency, TierPort};
use crate::trace::Layers;
use crate::{Budget, Phase};
use akg_core::adapt::AdaptConfig;
use akg_core::engine::Engine;
use akg_data::SyntheticUcfCrime;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// Size of the churn workload.
#[derive(Debug, Clone, Copy)]
pub struct ChurnShape {
    /// Registered sessions.
    pub sessions: usize,
    /// Resident cap of the tier.
    pub max_resident: usize,
    /// Zipf exponent of session popularity.
    pub zipf_s: f64,
    /// Leading serve calls whose scores form the deterministic prefix
    /// (digest and AUC).
    pub prefix: usize,
    /// Serve calls per second on the reference host (2-vCPU VM); sizes the
    /// call count so that a run lasts about `--seconds` there.
    pub nominal_calls_per_s: f64,
}

impl ChurnShape {
    /// Serve calls a run makes: as many as fit in `budget.seconds` at the
    /// nominal rate, and at least the prefix and `budget.min_samples`. The
    /// count does not depend on how fast the host runs: the share of cold
    /// starts falls as a run goes on, so a time-based stop made the call mix
    /// (and p50) depend on host speed.
    pub fn calls(&self, budget: Budget) -> usize {
        ((budget.seconds * self.nominal_calls_per_s) as usize)
            .max(self.prefix)
            .max(budget.min_samples)
    }
}

/// Frame seed and adaptation settings of session `id`: the default
/// adaptation settings. Sessions here exist to be evicted and rehydrated;
/// which node a prune replaces can depend on an engine's hash-map order, and
/// the traced churn phase serves from a second, identically built engine.
pub fn session_config(seed: u64, id: usize) -> (u64, AdaptConfig) {
    let adapt = AdaptConfig { seed: mix(seed, 0xADA0_0000 + id as u64), ..AdaptConfig::default() };
    (mix(seed, 0x7E55_0000 + id as u64), adapt)
}

/// Moves `engine` into a tier spooling under `spool_dir` and registers the
/// workload's sessions.
pub fn open(engine: Engine, shape: ChurnShape, seed: u64, spool_dir: PathBuf) -> TierPort {
    TierPort::open(engine, shape.max_resident, spool_dir, shape.sessions, |id| {
        session_config(seed, id)
    })
}

/// Served-frame classification of a churn phase, for the tier identities.
#[derive(Debug, Default, Clone, Copy)]
pub struct TierTally {
    /// Calls that found their session resident.
    pub hits: usize,
    /// Calls that cold-started their session.
    pub cold_starts: usize,
    /// Calls that rehydrated their session.
    pub rehydrations: usize,
    /// Residents evicted.
    pub evictions: usize,
    /// Sessions resident at the end.
    pub resident: usize,
}

impl TierTally {
    /// Checks the tier identities against the tier's own lifetime counters
    /// (the tier was opened fresh for this phase).
    fn check(&self, port: &TierPort, frames: usize, ledger: &mut Ledger) {
        let c = port.counters();
        ledger.require_eq("tier cold starts (tier vs calls)", c.cold_starts, self.cold_starts);
        ledger.require_eq("tier rehydrations (tier vs calls)", c.rehydrations, self.rehydrations);
        ledger.require_eq(
            "tier cold starts + rehydrations + hits vs frames",
            c.cold_starts + c.rehydrations + self.hits,
            frames,
        );
        ledger.require_eq(
            "tier evictions vs cold starts + rehydrations - resident",
            c.evictions,
            (c.cold_starts + c.rehydrations).saturating_sub(self.resident),
        );
        ledger.require_eq("tier rehydration failures", c.rehydration_failures, 0);
    }
}

/// Serves the shape's call count for `budget` to Zipf-chosen sessions.
/// With `traced`, each call's time is also attributed to the tier layer by
/// residency.
pub fn measure(
    port: &mut TierPort,
    ds: &Arc<SyntheticUcfCrime>,
    shape: ChurnShape,
    seed: u64,
    budget: Budget,
    traced: bool,
) -> Phase {
    let mut phase = Phase::start();
    let mut feed = ChurnFeed::new(ds, shape.sessions, shape.zipf_s, seed);
    let mut tally = TierTally::default();
    let mut layers = Layers::default();
    for _ in 0..shape.calls(budget) {
        let (id, frame, label) = feed.next_request();
        let call_start = Instant::now();
        let served = port.serve(id, &frame);
        let call_ns = call_start.elapsed().as_nanos();
        phase.ledger.attempted += 1;
        phase.serve_ns += u128::from(served.ns);
        phase.latencies_ns.push(served.ns);
        tally.evictions += served.evictions;
        match served.score {
            Ok(score) => {
                phase.ledger.scored += 1;
                phase.ledger.check_score(score);
                if phase.prefix_scores.len() < shape.prefix {
                    phase.prefix_scores.push(score);
                    phase.prefix_labels.push(label);
                }
            }
            Err(_) => phase.ledger.failed += 1,
        }
        match served.residency {
            Some(Residency::Hit) => tally.hits += 1,
            Some(Residency::ColdStart) => tally.cold_starts += 1,
            Some(Residency::Rehydrated) => tally.rehydrations += 1,
            None => {}
        }
        if traced {
            layers.wall_ns += call_ns;
            layers.tier_ns += u128::from(served.ns);
            match served.residency {
                Some(Residency::Hit) => layers.tier_hit_ns.push(served.ns),
                Some(_) => layers.tier_miss_ns.push(served.ns),
                None => {}
            }
        }
    }
    tally.resident = port.resident();
    tally.check(port, phase.ledger.scored, &mut phase.ledger);
    phase.finish();
    if traced {
        layers.tier_cold_starts = tally.cold_starts;
        layers.tier_evictions = tally.evictions;
        layers.tier_rehydration_failures = port.counters().rehydration_failures;
        layers.tier_checkpoint_bytes_mean = port.checkpoint_bytes_mean(0..shape.sessions.min(256));
        phase.layers = Some(layers);
    }
    phase.tier = Some(tally);
    phase
}
