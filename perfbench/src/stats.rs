//! Order statistics, the score digest and the correctness gate's ledger.

/// Nearest-rank percentile `q` (0..=1) of `samples`; 0 for no samples.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of `values`; 0 for none.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// FNV-1a over the bit patterns of a score sequence: equal digests mean
/// bit-identical scores in the same order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one score in.
    pub fn push(&mut self, score: f32) {
        for b in score.to_bits().to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    /// The digest of a whole sequence.
    pub fn of(scores: &[f32]) -> Self {
        let mut d = Digest::default();
        scores.iter().for_each(|&s| d.push(s));
        d
    }

    /// Hex rendering for the detail line.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Served-frame accounting of one measured phase plus every violation the
/// correctness gate found in it.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Frames offered to the program.
    pub attempted: usize,
    /// Frames that came back with a score.
    pub scored: usize,
    /// Frames the program refused (validation rejects, serve errors).
    pub failed: usize,
    /// Gate violations, in the order found.
    pub violations: Vec<String>,
}

impl Ledger {
    /// Checks one served score: finite and inside `[0, 1]`.
    pub fn check_score(&mut self, score: f32) {
        if !(score.is_finite() && (0.0..=1.0).contains(&score)) {
            self.violate(format!("score {score} is not a probability"));
        }
    }

    /// Records a gate violation (the first few are kept verbatim).
    pub fn violate(&mut self, what: String) {
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    /// Checks an exact equality the gate requires.
    pub fn require_eq(&mut self, what: &str, got: usize, want: usize) {
        if got != want {
            self.violate(format!("{what}: {got} != {want}"));
        }
    }

    /// The ledger identity: every attempted frame was scored or refused.
    pub fn close(&mut self) {
        let (scored, failed, attempted) = (self.scored, self.failed, self.attempted);
        self.require_eq("frames scored + refused vs attempted", scored + failed, attempted);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.5), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_is_order_and_bit_sensitive() {
        assert_eq!(Digest::of(&[0.1, 0.2]), Digest::of(&[0.1, 0.2]));
        assert_ne!(Digest::of(&[0.1, 0.2]), Digest::of(&[0.2, 0.1]));
        assert_ne!(Digest::of(&[0.0]), Digest::of(&[-0.0]));
    }

    #[test]
    fn ledger_flags_bad_scores_and_lost_frames() {
        let mut l = Ledger { attempted: 3, scored: 2, ..Ledger::default() };
        l.check_score(0.5);
        l.check_score(f32::NAN);
        l.close();
        assert_eq!(l.violations.len(), 2);
    }
}
