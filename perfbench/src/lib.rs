//! Serving benchmark of the trained adaptive-KG anomaly detector.
//!
//! One run builds and trains the detector, serves one named workload (an
//! amount of work sized by `--seconds`) through the program's public entry
//! points, checks the outputs, and reports either the end-to-end metrics
//! (untraced) or the per-layer metrics (traced, which also runs the
//! untraced phase first to compare against). See `README.md` for the
//! metric and workload map.

pub mod churn;
pub mod feed;
pub mod procfs;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod tier_port;
pub mod trace;

use churn::{ChurnShape, TierTally};
use procfs::ProcSample;
use report::Report;
use serve::{RuntimeShape, RuntimeTarget};
use setup::{SetupTimes, TrainSize};
use stats::Ledger;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;
use tier_port::TierPort;

/// The workloads, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 16 streams, adaptation off: the paper's static-KG baseline.
    Static,
    /// 16 streams, full continuous adaptation.
    Adaptive,
    /// Thousands of tiered sessions behind a small resident cap.
    Churn,
}

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "static" => Some(Workload::Static),
            "adaptive" => Some(Workload::Adaptive),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Static => "static",
            Workload::Adaptive => "adaptive",
            Workload::Churn => "churn",
        }
    }

    /// The runtime shape of a runtime workload.
    pub fn runtime_shape(self) -> Option<RuntimeShape> {
        match self {
            Workload::Static => {
                Some(RuntimeShape { streams: 16, ticks: 512, adapt: false, nominal_episode_s: 0.6 })
            }
            Workload::Adaptive => {
                Some(RuntimeShape { streams: 16, ticks: 512, adapt: true, nominal_episode_s: 7.5 })
            }
            Workload::Churn => None,
        }
    }
}

/// The churn workload's shape.
pub const CHURN_SHAPE: ChurnShape = ChurnShape {
    sessions: 4096,
    max_resident: 32,
    zipf_s: 1.0,
    prefix: 4096,
    nominal_calls_per_s: 1000.0,
};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Latency samples a phase collects at least, so that p99 has ten samples
/// beyond it.
pub const MIN_LATENCY_SAMPLES: usize = 1000;

/// Online AUC the runtime workloads must reach: an untrained engine serves
/// at about chance.
pub const AUC_FLOOR: f64 = 0.7;

/// How much a measured phase serves: about `seconds` of work on the
/// reference host, and at least `min_samples` latency samples.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Seconds of work to size the phase for.
    pub seconds: f64,
    /// Latency samples to collect at least.
    pub min_samples: usize,
}

/// Everything one measured phase produced.
#[derive(Debug)]
pub struct Phase {
    started: Instant,
    proc_start: ProcSample,
    /// Frame accounting and gate violations.
    pub ledger: Ledger,
    /// Σ duration of the timed serve calls, ns.
    pub serve_ns: u128,
    /// One sample per tick (runtime) or serve call (churn), ns.
    pub latencies_ns: Vec<u64>,
    /// Scores of the deterministic prefix, in serve order.
    pub prefix_scores: Vec<f32>,
    /// Generator labels of the prefix frames.
    pub prefix_labels: Vec<bool>,
    /// Per runtime episode: score digest, token updates, node replacements.
    pub episodes: Vec<(stats::Digest, usize, usize)>,
    /// Token updates over the phase.
    pub token_updates: usize,
    /// Node replacements over the phase.
    pub replacements: usize,
    /// Churn classification, for churn phases.
    pub tier: Option<TierTally>,
    /// Wall time of the whole phase (feed included), ns.
    pub wall_ns: u128,
    /// `/proc` counter growth over the phase.
    pub proc: ProcSample,
    /// Layer attribution, for traced phases.
    pub layers: Option<trace::Layers>,
}

impl Phase {
    fn start() -> Self {
        Phase {
            started: Instant::now(),
            proc_start: ProcSample::now(),
            ledger: Ledger::default(),
            serve_ns: 0,
            latencies_ns: Vec::new(),
            prefix_scores: Vec::new(),
            prefix_labels: Vec::new(),
            episodes: Vec::new(),
            token_updates: 0,
            replacements: 0,
            tier: None,
            wall_ns: 0,
            proc: ProcSample::default(),
            layers: None,
        }
    }

    fn finish(&mut self) {
        self.wall_ns = self.started.elapsed().as_nanos();
        self.proc = ProcSample::now().since(&self.proc_start);
        self.ledger.close();
    }

    /// Episodes served (1 for a churn phase, which has none).
    pub fn repeats(&self) -> usize {
        self.episodes.len().max(1)
    }

    /// Frames scored per second of timed serving.
    pub fn throughput_fps(&self) -> f64 {
        procfs::ratio(self.ledger.scored as f64, self.serve_ns as f64 / 1e9)
    }

    /// Digest of the prefix scores.
    pub fn digest(&self) -> stats::Digest {
        stats::Digest::of(&self.prefix_scores)
    }

    /// ROC-AUC of the prefix scores against the generator's labels.
    pub fn online_auc(&self) -> f64 {
        f64::from(akg_eval::roc_auc(&self.prefix_scores, &self.prefix_labels))
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds each measured phase lasts.
    pub seconds: f64,
    /// Whether to run the traced phase and report per-layer metrics.
    pub trace: bool,
}

/// Usage text.
pub const USAGE: &str =
    "usage: perfbench --workload static|adaptive|churn --seed N --seconds S --trace 0|1";

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    ///
    /// # Errors
    ///
    /// Returns a message for a missing, unknown or malformed option.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(bad());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown option {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// A deployed serving target and what it took to set up.
struct Deployed {
    target: Target,
    ds: Arc<akg_data::SyntheticUcfCrime>,
    times: SetupTimes,
}

enum Target {
    Runtime(Box<RuntimeTarget>),
    Churn(Box<TierPort>),
}

/// Where churn tiers spool: inside the working directory, one directory
/// per process and tier.
fn spool_dir(tag: &str) -> PathBuf {
    PathBuf::from(SPOOL_ROOT).join(format!("{}-{tag}", std::process::id()))
}

/// Parent of every spool directory (removed when empty).
pub const SPOOL_ROOT: &str = ".perfbench_spool";

fn deploy(workload: Workload, seed: u64, tag: &str) -> Deployed {
    let mut times = SetupTimes::default();
    let (engine, ds) = setup::trained_engine(TrainSize::BENCH, &mut times);
    let t = Instant::now();
    let target = match workload.runtime_shape() {
        Some(shape) => Target::Runtime(Box::new(RuntimeTarget::register(engine, shape, seed))),
        None => Target::Churn(Box::new(churn::open(engine, CHURN_SHAPE, seed, spool_dir(tag)))),
    };
    times.register_s = t.elapsed().as_secs_f64();
    Deployed { target, ds, times }
}

fn measure(d: &mut Deployed, args: &Args, budget: Budget) -> Phase {
    match (&mut d.target, args.workload.runtime_shape()) {
        (Target::Runtime(t), Some(shape)) => serve::measure(t, &d.ds, shape, args.seed, budget),
        (Target::Churn(port), _) => {
            churn::measure(port, &d.ds, CHURN_SHAPE, args.seed, budget, false)
        }
        (Target::Runtime(_), None) => unreachable!("runtime target for a churn workload"),
    }
}

/// Runs the benchmark: set-up (repeated when untraced), the untraced
/// phase, and with `--trace 1` the traced phase.
pub fn run(args: &Args, process_start: Instant) -> Report {
    let budget = Budget { seconds: args.seconds, min_samples: MIN_LATENCY_SAMPLES };
    let repeats = if args.trace { 1 } else { SETUP_REPEATS };
    let mut setup_s = Vec::with_capacity(repeats);
    let mut deployed: Option<Deployed> = None;
    let mut first_times = SetupTimes::default();
    for r in 0..repeats {
        // the previous deployment is released before the next is built
        drop(deployed.take());
        let t0 = if r == 0 { process_start } else { Instant::now() };
        let d = deploy(args.workload, args.seed, &format!("setup{r}"));
        setup_s.push(t0.elapsed().as_secs_f64());
        if r == 0 {
            first_times = d.times;
        }
        deployed = Some(d);
    }
    let mut d = deployed.expect("at least one set-up");
    let untraced = measure(&mut d, args, budget);
    let peak_rss_mb = procfs::peak_rss_mb();

    let traced = args.trace.then(|| match (&d.target, args.workload.runtime_shape()) {
        (Target::Runtime(t), Some(shape)) => {
            serve::measure_traced(t.engine(), &d.ds, shape, args.seed, budget)
        }
        _ => {
            // the churn tier is stateful: replay the same requests on a
            // second, identically built tier
            let mut twin = deploy(args.workload, args.seed, "traced");
            let Target::Churn(port) = &mut twin.target else { unreachable!("churn twin") };
            churn::measure(port, &twin.ds, CHURN_SHAPE, args.seed, budget, true)
        }
    });
    drop(d);
    let _ = std::fs::remove_dir(SPOOL_ROOT);
    Report::new(args, &setup_s, first_times, peak_rss_mb, untraced, traced)
}
