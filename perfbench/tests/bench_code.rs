//! Tests of the benchmark's own code on tiny configurations: seeded inputs
//! repeat, the frame ledger and tier identities hold, the traced replay
//! serves what the runtime serves, and the tier is reached through one port.

use akg_core::engine::Engine;
use akg_core::pipeline::SystemConfig;
use akg_data::{DatasetConfig, Frame, SyntheticUcfCrime};
use perfbench::churn::{self, ChurnShape};
use perfbench::feed::{ChurnFeed, TickFeed, Zipf, SHIFTED_CLASS, TRAINED_CLASS};
use perfbench::serve::{self, RuntimeShape, RuntimeTarget};
use perfbench::{Args, Budget, Workload};
use std::sync::Arc;

fn dataset() -> Arc<SyntheticUcfCrime> {
    Arc::new(SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.004).with_classes(&[TRAINED_CLASS, SHIFTED_CLASS]).with_seed(3),
    ))
}

fn engine() -> Engine {
    Engine::build(&[TRAINED_CLASS], &SystemConfig::default())
}

/// A budget sized only by its latency-sample floor.
fn samples(samples: usize) -> Budget {
    Budget { seconds: 0.0, min_samples: samples }
}

fn ticks(ds: &Arc<SyntheticUcfCrime>, seed: u64, n: usize) -> Vec<(Vec<Frame>, Vec<bool>)> {
    let mut feed = TickFeed::new(ds, 4, seed, n / 2);
    (0..n)
        .map(|_| {
            let (mut frames, mut labels) = (Vec::new(), Vec::new());
            feed.next_tick(&mut frames, &mut labels);
            (frames, labels)
        })
        .collect()
}

#[test]
fn same_seed_gives_same_frames_and_sessions() {
    let ds = dataset();
    assert_eq!(ticks(&ds, 9, 40), ticks(&ds, 9, 40));
    assert_ne!(ticks(&ds, 9, 40), ticks(&ds, 10, 40));

    let draw = |seed| {
        let mut feed = ChurnFeed::new(&ds, 100, 1.0, seed);
        (0..200).map(|_| feed.next_request()).collect::<Vec<_>>()
    };
    assert_eq!(draw(4), draw(4));
    assert_ne!(draw(4), draw(5));
}

#[test]
fn zipf_favours_popular_sessions() {
    let mut zipf = Zipf::new(1000, 1.0, 1);
    let mut counts = vec![0usize; 1000];
    for _ in 0..20_000 {
        counts[zipf.next_id()] += 1;
    }
    assert!(counts[0] > 5 * counts[99], "id 0: {}, id 99: {}", counts[0], counts[99]);
    assert!(counts.iter().filter(|&&c| c > 0).count() > 100, "the tail is never drawn");
}

#[test]
fn runtime_ledger_holds_and_traced_replay_matches() {
    let ds = dataset();
    let shape = RuntimeShape { streams: 3, ticks: 6, adapt: true, nominal_episode_s: 1.0 };
    let mut target = RuntimeTarget::register(engine(), shape, 5);
    // two episodes: the second restores every stream to its fresh state
    let untraced = serve::measure(&mut target, &ds, shape, 5, samples(2 * shape.ticks));
    assert_eq!(untraced.repeats(), 2);
    assert!(untraced.ledger.violations.is_empty(), "{:?}", untraced.ledger.violations);
    assert_eq!(untraced.ledger.attempted, 2 * shape.streams * shape.ticks);
    assert_eq!(untraced.ledger.scored + untraced.ledger.failed, untraced.ledger.attempted);
    assert_eq!(untraced.prefix_scores.len(), shape.streams * shape.ticks);

    let traced = serve::measure_traced(target.engine(), &ds, shape, 5, samples(shape.ticks));
    assert!(traced.ledger.violations.is_empty(), "{:?}", traced.ledger.violations);
    assert_eq!(traced.repeats(), 1);
    assert_eq!(traced.digest(), untraced.digest(), "traced replay served other scores");
    assert_eq!(traced.episodes[0], untraced.episodes[0]);
    let layers = traced.layers.expect("a traced phase carries layers");
    assert_eq!(layers.embed_ns.len(), shape.streams * shape.ticks);
    assert_eq!(layers.score_windows, shape.streams * shape.ticks);
    assert_eq!(layers.runtime_dispatches, shape.ticks);
}

#[test]
fn tier_identities_hold() {
    let ds = dataset();
    let shape = ChurnShape {
        sessions: 12,
        max_resident: 2,
        zipf_s: 0.5,
        prefix: 60,
        nominal_calls_per_s: 1.0,
    };
    let spool = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-tier-test");
    let mut port = churn::open(engine(), shape, 2, spool);
    let phase = churn::measure(&mut port, &ds, shape, 2, samples(0), true);
    assert!(phase.ledger.violations.is_empty(), "{:?}", phase.ledger.violations);
    let t = phase.tier.expect("a churn phase carries its tally");
    assert_eq!(t.hits + t.cold_starts + t.rehydrations, 60);
    assert_eq!(t.evictions, t.cold_starts + t.rehydrations - t.resident);
    assert!(t.rehydrations > 0 && t.evictions > 0);
    let layers = phase.layers.expect("traced");
    assert_eq!(layers.tier_hit_ns.len(), t.hits);
    assert_eq!(layers.tier_miss_ns.len(), t.cold_starts + t.rehydrations);
}

#[test]
fn the_tier_is_reached_only_through_its_port() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    for entry in std::fs::read_dir(&src).expect("src dir") {
        let path = entry.expect("dir entry").path();
        if path.file_name().is_some_and(|n| n == "tier_port.rs") {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("source file");
        for needle in ["SessionTier", "TierConfig", "runtime::tier"] {
            assert!(!text.contains(needle), "{} names {needle}", path.display());
        }
    }
    let port = std::fs::read_to_string(src.join("tier_port.rs")).expect("tier_port.rs");
    assert_eq!(port.matches(".serve_frame(").count(), 1, "one adapter function serves frames");
}

#[test]
fn episode_count_follows_the_budget_not_the_host() {
    let shape = RuntimeShape { streams: 16, ticks: 512, adapt: true, nominal_episode_s: 7.5 };
    let budget = |seconds| Budget { seconds, min_samples: 1000 };
    assert_eq!(shape.episodes(budget(15.0)), 2);
    assert_eq!(shape.episodes(budget(1.0)), 2, "1000 ticks need two episodes");
    assert_eq!(shape.episodes(budget(30.0)), 4);
    let churn = perfbench::CHURN_SHAPE;
    assert_eq!(churn.calls(budget(15.0)), 15_000);
    assert_eq!(churn.calls(budget(1.0)), churn.prefix);
}

#[test]
fn arguments_parse_strictly() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = Args::parse(&argv("--workload churn --seed 3 --seconds 10 --trace 1")).unwrap();
    assert_eq!(a.workload, Workload::Churn);
    assert!(a.trace && a.seed == 3 && a.seconds == 10.0);
    assert!(Args::parse(&argv("--workload burst --seed 3 --seconds 10 --trace 0")).is_err());
    assert!(Args::parse(&argv("--workload static --seed 3 --seconds 10")).is_err());
    assert!(Args::parse(&argv("--workload static --seed 3 --seconds 10 --trace 2")).is_err());
}
