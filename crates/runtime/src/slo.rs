//! SLO instrumentation for loaded serving: fixed-bucket log-scale latency
//! histograms (p50/p99/p999 with **zero allocations per recorded frame**)
//! and the deterministic degrade ladder the bounded-ingest layer applies
//! under pressure.
//!
//! ## The degrade ladder
//!
//! A production edge deployment is judged on tail latency under bursty
//! arrivals, and when arrivals outrun the engine something must give. This
//! module makes the "something" explicit, ordered, and *deterministic*:
//!
//! | rung | trigger (deepest ingest queue) | what degrades |
//! |------|--------------------------------|---------------|
//! | [`DegradeLevel::Normal`]    | `< skip_adapt_depth` | nothing |
//! | [`DegradeLevel::SkipAdapt`] | `≥ skip_adapt_depth` | adaptation checks suppressed (scores still feed drift tracking) |
//! | [`DegradeLevel::Coalesce`]  | `≥ coalesce_depth`   | up to `coalesce_max` queued frames per stream drain into the rolling window per tick; only the newest is individually scored |
//! | [`DegradeLevel::Shed`]      | `≥ shed_depth`       | lowest-priority streams drop their oldest queued frames down to `shed_keep` |
//!
//! Every decision is a **pure function** of the observable queue state
//! (per-stream depths, stream ids, priorities) and the policy constants —
//! no wall clock, no RNG — so a loaded run is bit-reproducible and the
//! sharded runtime's equivalence contract extends to loaded serving:
//! sharded-under-load ≡ single-node-under-load including *which* frames
//! degrade ([`crate::load`] holds the whole decision loop on the
//! front-end; workers only execute).
//!
//! Accounting is exact: every offered frame ends in exactly one terminal
//! state ([`LoadCounters::balanced`]), so nothing is ever shed silently.

use serde::Serialize;

/// Number of exact low-value buckets (values `0..LINEAR_CUTOFF` map 1:1).
const LINEAR_CUTOFF: u64 = 16;
/// Sub-buckets per power-of-two octave above the linear range.
const SUB_BUCKETS: usize = 16;
/// Octaves tracked above the linear range: values up to `2^32 - 1` land in
/// a sized bucket, anything larger saturates into the last one (4.29 s in
/// nanoseconds — far beyond any latency this runtime can produce without a
/// bug, and the percentile clamp to the observed max keeps even that case
/// honest).
const OCTAVES: usize = 28;
const NUM_BUCKETS: usize = LINEAR_CUTOFF as usize + OCTAVES * SUB_BUCKETS;

/// A fixed-bucket log-scale latency histogram: values `0..16` are exact,
/// larger values land in one of 16 sub-buckets per power-of-two octave
/// (relative quantization error ≤ 1/16 ≈ 6.25%). Recording is two array
/// index computations and an increment — **no allocation, no branch on
/// history** — so it sits directly on the per-frame serving hot path.
///
/// The histogram is unit-agnostic: the loaded runtime keeps one in ticks
/// (deterministic, asserted bit-equal across shard counts) and one in
/// nanoseconds (wall-clock, reporting only).
#[derive(Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    buckets: [u64; NUM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("p50", &self.percentile(0.50))
            .field("p99", &self.percentile(0.99))
            .field("p999", &self.percentile(0.999))
            .finish()
    }
}

impl LatencyHistogram {
    /// An empty histogram (all buckets zero).
    pub fn new() -> Self {
        LatencyHistogram { buckets: [0; NUM_BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Records one value. Allocation-free.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Values recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` until the first [`LatencyHistogram::record`].
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Exact largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `p` (clamped to `[0, 1]`): the upper bound of
    /// the bucket holding the `⌈p·count⌉`-th smallest recorded value,
    /// clamped to the exact observed max — so `percentile(1.0) == max()`,
    /// values below 16 are exact, and larger values are overestimated by at
    /// most 6.25%. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Self::bucket_upper(idx).min(self.max);
            }
        }
        self.max
    }

    fn bucket_index(value: u64) -> usize {
        if value < LINEAR_CUTOFF {
            return value as usize;
        }
        // value ≥ 16 ⇒ octave ≥ 4; the top bit selects the octave, the next
        // four bits the sub-bucket within it.
        let octave = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (octave - 4)) & 0xF) as usize;
        (LINEAR_CUTOFF as usize + (octave - 4) * SUB_BUCKETS + sub).min(NUM_BUCKETS - 1)
    }

    /// Largest value mapping to bucket `idx` (inclusive).
    fn bucket_upper(idx: usize) -> u64 {
        if idx < LINEAR_CUTOFF as usize {
            return idx as u64;
        }
        if idx == NUM_BUCKETS - 1 {
            return u64::MAX; // saturation bucket; callers clamp to max()
        }
        let octave = 4 + (idx - LINEAR_CUTOFF as usize) / SUB_BUCKETS;
        let sub = ((idx - LINEAR_CUTOFF as usize) % SUB_BUCKETS) as u64;
        (1u64 << octave) + ((sub + 1) << (octave - 4)) - 1
    }
}

/// Percentile summary of one [`LatencyHistogram`], in the histogram's unit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LatencySummary {
    /// Values recorded.
    pub count: u64,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile (needs ≥ 10k samples to resolve beyond p99 — see
    /// `docs/PERFORMANCE.md`).
    pub p999: u64,
    /// Exact observed maximum.
    pub max: u64,
    /// Mean.
    pub mean: f64,
}

impl LatencySummary {
    /// Summarizes a histogram.
    pub fn of(hist: &LatencyHistogram) -> Self {
        LatencySummary {
            count: hist.count(),
            p50: hist.percentile(0.50),
            p99: hist.percentile(0.99),
            p999: hist.percentile(0.999),
            max: hist.max(),
            mean: hist.mean(),
        }
    }
}

/// The rungs of the degrade ladder, in escalation order (derives `Ord`:
/// `Normal < SkipAdapt < Coalesce < Shed`). See the module docs for what
/// each rung degrades.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradeLevel {
    /// No pressure: full scoring and adaptation.
    Normal,
    /// Adaptation checks suppressed; every frame still scored.
    SkipAdapt,
    /// Multiple queued frames drain per stream per tick; only the newest is
    /// individually scored (adaptation stays suppressed).
    Coalesce,
    /// Lowest-priority streams drop oldest queued frames (coalescing and
    /// adaptation suppression stay active).
    Shed,
}

impl DegradeLevel {
    /// All rungs in escalation order.
    pub const ALL: [DegradeLevel; 4] =
        [DegradeLevel::Normal, DegradeLevel::SkipAdapt, DegradeLevel::Coalesce, DegradeLevel::Shed];

    /// Index into per-level counter arrays (escalation order).
    pub fn index(self) -> usize {
        match self {
            DegradeLevel::Normal => 0,
            DegradeLevel::SkipAdapt => 1,
            DegradeLevel::Coalesce => 2,
            DegradeLevel::Shed => 3,
        }
    }

    /// Stable lower-case name (`"normal"`, `"skip_adapt"`, `"coalesce"`,
    /// `"shed"`).
    pub fn name(self) -> &'static str {
        match self {
            DegradeLevel::Normal => "normal",
            DegradeLevel::SkipAdapt => "skip_adapt",
            DegradeLevel::Coalesce => "coalesce",
            DegradeLevel::Shed => "shed",
        }
    }
}

/// The deterministic shed/degrade policy: queue bounds and ladder
/// thresholds. All decisions derived from it are pure functions of queue
/// state (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradePolicy {
    /// Hard per-stream ingest bound: an arrival to a full queue is
    /// tail-dropped (counted in [`LoadCounters::overflow_dropped`] — the
    /// backstop the shed rung exists to keep cold).
    pub queue_capacity: usize,
    /// Deepest-queue depth at which adaptation checks are suppressed.
    pub skip_adapt_depth: usize,
    /// Deepest-queue depth at which queued frames start batch-coalescing.
    pub coalesce_depth: usize,
    /// Deepest-queue depth at which the shed rung fires.
    pub shed_depth: usize,
    /// Depth a shedding stream is trimmed down to (oldest frames first).
    pub shed_keep: usize,
    /// Most queued frames one stream may drain per coalesced tick.
    pub coalesce_max: usize,
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy {
            queue_capacity: 32,
            skip_adapt_depth: 4,
            coalesce_depth: 8,
            shed_depth: 16,
            shed_keep: 8,
            coalesce_max: 4,
        }
    }
}

impl DegradePolicy {
    /// Checks the policy's internal ordering invariants.
    ///
    /// # Panics
    ///
    /// Panics unless
    /// `1 ≤ skip_adapt_depth ≤ coalesce_depth ≤ shed_depth ≤ queue_capacity`,
    /// `shed_keep < shed_depth`, and `coalesce_max ≥ 1`.
    pub fn validate(&self) {
        assert!(self.skip_adapt_depth >= 1, "DegradePolicy: skip_adapt_depth must be ≥ 1");
        assert!(
            self.skip_adapt_depth <= self.coalesce_depth,
            "DegradePolicy: skip_adapt_depth must not exceed coalesce_depth"
        );
        assert!(
            self.coalesce_depth <= self.shed_depth,
            "DegradePolicy: coalesce_depth must not exceed shed_depth"
        );
        assert!(
            self.shed_depth <= self.queue_capacity,
            "DegradePolicy: shed_depth must not exceed queue_capacity"
        );
        assert!(self.shed_keep < self.shed_depth, "DegradePolicy: shed_keep must be < shed_depth");
        assert!(self.coalesce_max >= 1, "DegradePolicy: coalesce_max must be ≥ 1");
    }

    /// The ladder rung for a given deepest-queue depth — a pure,
    /// monotonically non-decreasing function of `max_depth`.
    pub fn level(&self, max_depth: usize) -> DegradeLevel {
        if max_depth >= self.shed_depth {
            DegradeLevel::Shed
        } else if max_depth >= self.coalesce_depth {
            DegradeLevel::Coalesce
        } else if max_depth >= self.skip_adapt_depth {
            DegradeLevel::SkipAdapt
        } else {
            DegradeLevel::Normal
        }
    }

    /// Frames one stream may drain this tick at `level` (1 below the
    /// coalesce rung, `coalesce_max` at or above it).
    pub fn serve_quota(&self, level: DegradeLevel) -> usize {
        if level >= DegradeLevel::Coalesce {
            self.coalesce_max
        } else {
            1
        }
    }

    /// Frames a shedding stream at `depth` must drop to reach `shed_keep` —
    /// the per-stream pure function behind the shed rung.
    pub fn shed_excess(&self, depth: usize) -> usize {
        depth.saturating_sub(self.shed_keep)
    }
}

/// Exact-accounting counters for one loaded run. Monotonic except
/// [`LoadCounters::queued`] (a point-in-time level) and
/// [`LoadCounters::max_queue_depth`] (a high-water mark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct LoadCounters {
    /// Load-harness ticks completed.
    pub ticks: usize,
    /// Frames the arrival pattern generated (every one is accounted for:
    /// see [`LoadCounters::balanced`]).
    pub offered: usize,
    /// Frames individually scored with full adaptation (the undergraded
    /// path).
    pub served_full: usize,
    /// Frames individually scored while adaptation was suppressed (the
    /// skip-adapt rung; also the scored representative of each coalesced
    /// batch).
    pub served_degraded: usize,
    /// Frames drained into a rolling window inside a coalesced batch
    /// without an individual score.
    pub coalesced: usize,
    /// Frames dropped by the shed rung (lowest-priority streams, oldest
    /// first).
    pub shed: usize,
    /// Frames tail-dropped on arrival because a stream's bounded queue was
    /// full — the backstop behind the shed rung.
    pub overflow_dropped: usize,
    /// Frames still waiting in ingest queues after the last tick.
    pub queued: usize,
    /// Frames rejected at ingest admission because they failed validation
    /// (non-finite or out-of-range concept weights) — a terminal state, so
    /// corrupt sensor frames are accounted for, never silently dropped and
    /// never allowed to poison a session's adapted table.
    pub rejected: usize,
    /// Deepest any stream's queue ever got (post-arrival, pre-shed).
    pub max_queue_depth: usize,
    /// Ticks spent at each ladder rung, indexed by [`DegradeLevel::index`].
    pub ticks_at_level: [usize; 4],
}

impl LoadCounters {
    /// The exact-accounting identity: every offered frame is in exactly one
    /// terminal state (scored, coalesced, shed, overflow-dropped, or still
    /// queued). The soak asserts this after **every** tick — "no frame is
    /// silently dropped" is this identity, test- and CI-enforced.
    pub fn balanced(&self) -> bool {
        self.offered
            == self.served_full
                + self.served_degraded
                + self.coalesced
                + self.shed
                + self.overflow_dropped
                + self.queued
                + self.rejected
    }

    /// Frames that left the queue through serving (scored or coalesced).
    pub fn drained(&self) -> usize {
        self.served_full + self.served_degraded + self.coalesced
    }
}

/// Per-stream slice of the exact accounting (same terminal states as
/// [`LoadCounters`]) — what the loaded equivalence tests compare across
/// shard counts to prove *which* frames degrade is topology-invariant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct StreamLoadStats {
    /// Frames the arrival pattern generated for this stream.
    pub offered: usize,
    /// Individually scored with full adaptation.
    pub served_full: usize,
    /// Individually scored with adaptation suppressed.
    pub served_degraded: usize,
    /// Drained inside a coalesced batch without an individual score.
    pub coalesced: usize,
    /// Dropped by the shed rung.
    pub shed: usize,
    /// Tail-dropped on a full queue.
    pub overflow_dropped: usize,
    /// Rejected at ingest admission (failed [`akg_data::Frame::validate`]).
    pub rejected: usize,
}

/// One tick's degrade decision record — the compact log the determinism
/// property tests compare bit-for-bit across runs and shard counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickDecision {
    /// The tick this decision was taken at.
    pub tick: u64,
    /// The ladder rung chosen (from post-arrival queue depths).
    pub level: DegradeLevel,
    /// Deepest queue observed when choosing the rung (post-arrival,
    /// pre-shed).
    pub max_depth: u32,
    /// Frames individually scored this tick.
    pub served: u32,
    /// Frames coalesced this tick.
    pub coalesced: u32,
    /// Frames shed this tick (ladder rung only, not overflow).
    pub shed: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 16);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        // 16 samples: p at rank k returns exactly k-1 for the linear range
        assert_eq!(h.percentile(0.5), 7);
        assert_eq!(h.percentile(1.0), 15);
        assert_eq!(h.percentile(0.0), 0);
    }

    #[test]
    fn quantization_error_is_bounded() {
        // Every value below 2^32 (the sized-bucket range; larger values
        // saturate) maps to a bucket whose upper bound overestimates it by
        // at most 1/16 of its magnitude.
        for shift in 4..32u64 {
            for salt in [0u64, 1, 7, 13] {
                let v = (1u64 << shift) + salt * ((1u64 << shift) / 16);
                let idx = LatencyHistogram::bucket_index(v);
                let upper = LatencyHistogram::bucket_upper(idx);
                assert!(upper >= v, "upper bound below value: {v} -> {upper}");
                assert!(
                    upper - v <= v / 16,
                    "quantization error too large: {v} -> {upper} (err {})",
                    upper - v
                );
            }
        }
    }

    #[test]
    fn bucket_bounds_are_monotone_and_consistent() {
        let mut prev = 0u64;
        for idx in 0..NUM_BUCKETS - 1 {
            let upper = LatencyHistogram::bucket_upper(idx);
            assert!(idx == 0 || upper > prev, "bucket {idx} upper bound not increasing");
            // The upper bound itself must land in its own bucket.
            assert_eq!(LatencyHistogram::bucket_index(upper), idx, "upper bound escapes bucket");
            // One past it must land in the next.
            assert_eq!(LatencyHistogram::bucket_index(upper + 1), idx + 1);
            prev = upper;
        }
    }

    #[test]
    fn percentiles_clamp_to_observed_max() {
        let mut h = LatencyHistogram::new();
        h.record(1_000_003);
        assert_eq!(h.percentile(0.5), 1_000_003);
        assert_eq!(h.percentile(0.999), 1_000_003);
        assert_eq!(h.max(), 1_000_003);
        assert_eq!(LatencySummary::of(&h).p999, 1_000_003);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn ladder_level_is_monotone_in_depth() {
        let p = DegradePolicy::default();
        p.validate();
        let mut prev = DegradeLevel::Normal;
        for depth in 0..=p.queue_capacity + 4 {
            let level = p.level(depth);
            assert!(level >= prev, "ladder regressed at depth {depth}");
            prev = level;
        }
        assert_eq!(p.level(0), DegradeLevel::Normal);
        assert_eq!(p.level(p.skip_adapt_depth), DegradeLevel::SkipAdapt);
        assert_eq!(p.level(p.coalesce_depth), DegradeLevel::Coalesce);
        assert_eq!(p.level(p.shed_depth), DegradeLevel::Shed);
    }

    #[test]
    fn shed_excess_trims_to_keep() {
        let p = DegradePolicy::default();
        assert_eq!(p.shed_excess(p.shed_keep), 0);
        assert_eq!(p.shed_excess(p.shed_keep + 5), 5);
        assert_eq!(p.shed_excess(0), 0);
    }

    #[test]
    fn counters_balance_identity() {
        let c = LoadCounters {
            offered: 100,
            served_full: 40,
            served_degraded: 20,
            coalesced: 25,
            shed: 10,
            overflow_dropped: 2,
            queued: 2,
            rejected: 1,
            ..LoadCounters::default()
        };
        assert!(c.balanced());
        assert_eq!(c.drained(), 85);
        let broken = LoadCounters { queued: 3, ..c };
        assert!(!broken.balanced());
        let broken = LoadCounters { rejected: 0, ..c };
        assert!(!broken.balanced(), "rejected frames must be part of the identity");
    }

    #[test]
    #[should_panic(expected = "shed_keep must be < shed_depth")]
    fn policy_rejects_shed_keep_at_depth() {
        DegradePolicy { shed_keep: 16, shed_depth: 16, ..DegradePolicy::default() }.validate();
    }
}
