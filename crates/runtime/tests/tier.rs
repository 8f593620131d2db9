//! The session-tier recovery contract: serving interleaved streams through a
//! [`SessionTier`] whose working set is too small to hold them — so every
//! frame forces an evict → spool → rehydrate cycle — must produce
//! **bit-identical** per-frame scores to a tier large enough to never evict,
//! under both the Scalar and Simd backends. The tier is purely a
//! memory/latency trade; it must never move a score bit.

use akg_core::adapt::AdaptConfig;
use akg_core::engine::Engine;
use akg_core::pipeline::SystemConfig;
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_runtime::{SessionTier, TierConfig};
use akg_tensor::{Backend, Precision};
use std::sync::{Mutex, MutexGuard};

const N_SESSIONS: usize = 4;
const FRAMES_PER_SESSION: usize = 48;
const SHIFT_AT: usize = 24;

/// `Engine::build` applies its config's backend process-wide —
/// serialize, as in `tests/equivalence.rs`.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock_backend() -> MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn dataset() -> SyntheticUcfCrime {
    SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.015)
            .with_classes(&[AnomalyClass::Stealing, AnomalyClass::Robbery])
            .with_seed(77),
    )
}

fn adapt_cfg(stream: usize) -> AdaptConfig {
    AdaptConfig {
        n_window: 16,
        interval: 8,
        min_k: 1,
        max_k: 4,
        seed: stream as u64,
        ..AdaptConfig::default()
    }
}

fn build_tier(backend: Backend, max_resident: usize, tag: &str) -> SessionTier {
    let engine = Engine::build(
        &[AnomalyClass::Stealing],
        &SystemConfig { seed: 5, backend, precision: Precision::F32, ..SystemConfig::default() },
    );
    // a flat spool per (process, test, backend), so parallel tests never
    // collide and `clear_spool` removes everything the test made
    let spool_dir = std::env::temp_dir()
        .join(format!("akg-session-tier-{}-{tag}-{backend:?}-{max_resident}", std::process::id()));
    SessionTier::new(engine, TierConfig { max_resident, spool_dir })
}

/// Round-robin serves every session through the tier and returns the
/// per-session score sequences.
fn serve_all(tier: &mut SessionTier, ds: &SyntheticUcfCrime) -> Vec<Vec<u32>> {
    let ids: Vec<_> =
        (0..N_SESSIONS).map(|s| tier.register(0xBEEF ^ (s as u64 * 101), adapt_cfg(s))).collect();
    let mut sources: Vec<_> = (0..N_SESSIONS)
        .map(|s| AdaptationStream::new(ds, AnomalyClass::Stealing, 0.5, 1000 + s as u64))
        .collect();
    let mut scores: Vec<Vec<u32>> =
        (0..N_SESSIONS).map(|_| Vec::with_capacity(FRAMES_PER_SESSION)).collect();
    for tick in 0..FRAMES_PER_SESSION {
        for s in 0..N_SESSIONS {
            if tick == SHIFT_AT {
                sources[s].shift_to(AnomalyClass::Robbery);
            }
            let (frame, _) = sources[s].next_frame();
            let score = tier.serve_frame(ids[s], &frame).expect("tier serve");
            scores[s].push(score.to_bits());
        }
    }
    scores
}

fn check_churned_tier_matches_resident_tier(backend: Backend) {
    let _guard = lock_backend();
    let ds = dataset();

    // reference: working set big enough that nothing is ever evicted
    let mut all_resident = build_tier(backend, N_SESSIONS, "ref");
    let want = serve_all(&mut all_resident, &ds);
    assert_eq!(all_resident.counters().evictions, 0, "reference tier must never evict");

    // churned: a one-session working set forces an evict + rehydrate on
    // every single session switch
    let mut churned = build_tier(backend, 1, "churn");
    let got = serve_all(&mut churned, &ds);

    for s in 0..N_SESSIONS {
        assert_eq!(
            got[s], want[s],
            "session {s} under {backend:?}: evict→rehydrate→continue changed the scores"
        );
    }
    let c = churned.counters();
    assert_eq!(c.cold_starts, N_SESSIONS);
    assert_eq!(c.rehydration_failures, 0, "every rehydration must validate");
    // round-robin at cap 1: all but the very first serve of each revisit
    // cycle rehydrates — the counters must show real churn, not a silent
    // cache-everything fallback
    assert_eq!(c.rehydrations, N_SESSIONS * FRAMES_PER_SESSION - N_SESSIONS);
    assert_eq!(c.evictions, c.rehydrations + N_SESSIONS - 1);
    assert_eq!(churned.resident_count(), 1);
    assert_eq!(churned.resume_latency().count() as usize, c.rehydrations);

    // the adaptation must not have been vacuous: at least one session's
    // overlay materialized rows (its checkpoint carries a non-empty delta,
    // well under the full table's serialized size)
    let adapted = (0..N_SESSIONS).filter_map(|s| churned.checkpoint_bytes(s)).max();
    assert!(adapted.is_some(), "no session ever produced a checkpoint");

    all_resident.clear_spool();
    churned.clear_spool();
}

#[test]
fn evict_rehydrate_continue_is_bit_identical_scalar() {
    check_churned_tier_matches_resident_tier(Backend::Scalar);
}

#[test]
fn evict_rehydrate_continue_is_bit_identical_simd() {
    // resolves to the scalar kernels on hosts without AVX2+FMA, so this leg
    // is safe everywhere and a genuinely different backend where SIMD exists
    check_churned_tier_matches_resident_tier(Backend::Simd);
}

/// Overlay sessions are why the tier scales: a served session's private
/// state must be at least 10× smaller than a full copy of the engine's
/// token table.
#[test]
fn overlay_resident_bytes_are_a_fraction_of_dense() {
    let _guard = lock_backend();
    let ds = dataset();
    let mut tier = build_tier(Backend::Scalar, N_SESSIONS, "bytes");
    serve_all(&mut tier, &ds);
    let overlay_per_session = tier.resident_bytes() / tier.resident_count();
    let table = &tier.engine().table;
    let table_bytes = table.capacity() * table.dim() * std::mem::size_of::<f32>();
    assert!(
        overlay_per_session * 10 <= table_bytes,
        "overlay session ({overlay_per_session} B) not ≥10× smaller than the full table \
         ({table_bytes} B)"
    );
    tier.clear_spool();
}
