//! Seeded input generators. Everything the program receives is made here,
//! one tick (or one serve call) at a time and outside the timed regions, so
//! the same `--seed` always yields the same frames in the same order.
//!
//! Frames are drawn from the dataset's training split with a stratified
//! schedule: every block of [`BLOCK`] frames of a stream holds exactly
//! [`ANOMALIES_PER_BLOCK`] anomalous ones, at seeded positions. A stream's
//! anomaly share is then the same under every seed, which keeps the amount
//! of adaptation a seed triggers (and so the work it measures) steady.

use akg_data::{Frame, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use std::sync::Arc;

/// Frames per stratification block.
pub const BLOCK: usize = 10;

/// Anomalous frames per block (an anomaly share of 0.5, as in the
/// repository's trend-shift experiments).
pub const ANOMALIES_PER_BLOCK: usize = 5;

/// The class the engine is trained on.
pub const TRAINED_CLASS: AnomalyClass = AnomalyClass::Stealing;

/// The class the runtime feed's trend shifts to mid-episode.
pub const SHIFTED_CLASS: AnomalyClass = AnomalyClass::Robbery;

/// SplitMix64 finalizer: derives independent sub-seeds from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A SplitMix64 stream.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0, 0)
    }

    /// Uniform in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `(video, frame)` positions in the training split, by kind.
struct Pools {
    ds: Arc<SyntheticUcfCrime>,
    normal: Vec<(usize, usize)>,
    trained: Vec<(usize, usize)>,
    shifted: Vec<(usize, usize)>,
}

impl Pools {
    fn new(ds: &Arc<SyntheticUcfCrime>) -> Arc<Self> {
        let collect = |keep: &dyn Fn(&akg_data::Video, &Frame) -> bool| -> Vec<(usize, usize)> {
            let mut at = Vec::new();
            for (v, video) in ds.train.iter().enumerate() {
                for (f, frame) in video.frames.iter().enumerate() {
                    if keep(video, frame) {
                        at.push((v, f));
                    }
                }
            }
            assert!(!at.is_empty(), "the dataset lacks a frame kind the feed draws");
            at
        };
        let anomalous = |class| {
            move |v: &akg_data::Video, f: &Frame| v.class == Some(class) && f.is_anomalous()
        };
        Arc::new(Pools {
            normal: collect(&|v, _| v.class.is_none()),
            trained: collect(&anomalous(TRAINED_CLASS)),
            shifted: collect(&anomalous(SHIFTED_CLASS)),
            ds: Arc::clone(ds),
        })
    }
}

/// One stratified frame stream.
struct Stream {
    pools: Arc<Pools>,
    rng: SplitMix,
    /// Anomalous positions of the current block, one bit each.
    block: u32,
    emitted: usize,
    shifted: bool,
}

impl Stream {
    fn new(pools: &Arc<Pools>, seed: u64) -> Self {
        Stream {
            pools: Arc::clone(pools),
            rng: SplitMix(seed),
            block: 0,
            emitted: 0,
            shifted: false,
        }
    }

    fn next_frame(&mut self) -> (Frame, bool) {
        let pos = self.emitted % BLOCK;
        if pos == 0 {
            // choose ANOMALIES_PER_BLOCK of the BLOCK positions
            let mut order: Vec<usize> = (0..BLOCK).collect();
            for i in 0..ANOMALIES_PER_BLOCK {
                let j = i + self.rng.below(BLOCK - i);
                order.swap(i, j);
            }
            self.block = order[..ANOMALIES_PER_BLOCK].iter().map(|&p| 1u32 << p).sum();
        }
        self.emitted += 1;
        let anomalous = self.block & (1 << pos) != 0;
        let pool = match (anomalous, self.shifted) {
            (false, _) => &self.pools.normal,
            (true, false) => &self.pools.trained,
            (true, true) => &self.pools.shifted,
        };
        let (v, f) = pool[self.rng.below(pool.len())];
        (self.pools.ds.train[v].frames[f].clone(), anomalous)
    }
}

/// One frame per stream per tick for the runtime workloads: every stream
/// draws from the shared dataset through its own seeded schedule, and all of
/// them shift from the trained class to [`SHIFTED_CLASS`] at `shift_at`.
pub struct TickFeed {
    streams: Vec<Stream>,
    shift_at: usize,
    tick: usize,
}

impl TickFeed {
    /// A feed of `streams` streams whose trend shifts before tick `shift_at`.
    pub fn new(ds: &Arc<SyntheticUcfCrime>, streams: usize, seed: u64, shift_at: usize) -> Self {
        let pools = Pools::new(ds);
        let streams = (0..streams as u64).map(|s| Stream::new(&pools, mix(seed, s))).collect();
        TickFeed { streams, shift_at, tick: 0 }
    }

    /// Generates the next tick: `frames[s]` and `labels[s]` for stream `s`
    /// (both cleared first).
    pub fn next_tick(&mut self, frames: &mut Vec<Frame>, labels: &mut Vec<bool>) {
        if self.tick == self.shift_at {
            for s in &mut self.streams {
                s.shifted = true;
            }
        }
        self.tick += 1;
        frames.clear();
        labels.clear();
        for s in &mut self.streams {
            let (frame, label) = s.next_frame();
            frames.push(frame);
            labels.push(label);
        }
    }
}

/// Zipf-distributed session ids over `0..n` (id 0 most popular), drawn
/// from a SplitMix64 stream by inverse-CDF lookup.
pub struct Zipf {
    cdf: Vec<f64>,
    rng: SplitMix,
}

impl Zipf {
    /// A sampler over `n` ids with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "Zipf over an empty id range");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf, rng: SplitMix(seed) }
    }

    /// The next id.
    pub fn next_id(&mut self) -> usize {
        let u = self.rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// The churn feed: one stratified frame stream (trained class only) whose
/// frames go to Zipf-popular sessions.
pub struct ChurnFeed {
    frames: Stream,
    ids: Zipf,
}

impl ChurnFeed {
    /// A feed over `sessions` registered sessions with Zipf exponent `s`.
    pub fn new(ds: &Arc<SyntheticUcfCrime>, sessions: usize, s: f64, seed: u64) -> Self {
        ChurnFeed {
            frames: Stream::new(&Pools::new(ds), mix(seed, 0xC4)),
            ids: Zipf::new(sessions, s, mix(seed, 0x21F)),
        }
    }

    /// The next `(session, frame, label)`.
    pub fn next_request(&mut self) -> (usize, Frame, bool) {
        let id = self.ids.next_id();
        let (frame, label) = self.frames.next_frame();
        (id, frame, label)
    }
}
