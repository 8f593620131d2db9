//! Score-distribution monitoring: the sliding window, mean-shift tracking
//! and top-K selection that drive the paper's adaptation trigger
//! (`K = |Δm| · N` over the most recent `N` scores, Sec. III-D).

use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A bounded sliding window over anomaly scores with cheap mean queries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScoreWindow {
    capacity: usize,
    scores: VecDeque<f32>,
    sum: f64,
}

impl ScoreWindow {
    /// Creates a window holding the most recent `capacity` scores.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ScoreWindow: capacity must be positive");
        ScoreWindow { capacity, scores: VecDeque::with_capacity(capacity), sum: 0.0 }
    }

    /// Pushes a score, evicting the oldest when full.
    pub fn push(&mut self, score: f32) {
        if self.scores.len() == self.capacity {
            if let Some(old) = self.scores.pop_front() {
                self.sum -= old as f64;
            }
        }
        self.scores.push_back(score);
        self.sum += score as f64;
    }

    /// Number of stored scores.
    pub fn len(&self) -> usize {
        self.scores.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.scores.is_empty()
    }

    /// Whether the window has reached capacity.
    pub fn is_full(&self) -> bool {
        self.scores.len() == self.capacity
    }

    /// Window capacity `N`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Mean of the stored scores (0 when empty).
    pub fn mean(&self) -> f32 {
        if self.scores.is_empty() {
            0.0
        } else {
            (self.sum / self.scores.len() as f64) as f32
        }
    }

    /// Standard deviation of the stored scores.
    pub fn std(&self) -> f32 {
        if self.scores.len() < 2 {
            return 0.0;
        }
        let mean = self.mean() as f64;
        let var = self.scores.iter().map(|&s| (s as f64 - mean) * (s as f64 - mean)).sum::<f64>()
            / self.scores.len() as f64;
        var.sqrt() as f32
    }

    /// Indices (into the window, oldest = 0) of the `k` highest scores,
    /// highest first.
    pub fn top_k_indices(&self, k: usize) -> Vec<usize> {
        let mut indexed: Vec<(usize, f32)> = self.scores.iter().copied().enumerate().collect();
        indexed.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        indexed.into_iter().take(k).map(|(i, _)| i).collect()
    }

    /// The stored scores, oldest first.
    pub fn scores(&self) -> Vec<f32> {
        self.scores.iter().copied().collect()
    }
}

/// Tracks the anomaly-score mean over time and computes the paper's
/// adaptation budget `K = |Δm| · N` where `Δm = m_t − m_{t'} < 0`.
///
/// The reference `t'` is a validation-tuned hyperparameter in the paper;
/// here it is anchored at deployment: `m_{t'}` freezes at the mean of the
/// first full window (the "healthy" post-training score distribution).
/// `Δm` then stays negative for as long as detection is depressed, which
/// sustains adaptation until recovery.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MeanShiftTracker {
    window: ScoreWindow,
    anchor: Option<f32>,
}

impl MeanShiftTracker {
    /// Creates a tracker over a window of `n` scores whose reference mean
    /// freezes once the first window fills.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        MeanShiftTracker { window: ScoreWindow::new(n), anchor: None }
    }

    /// Pushes a score, anchoring the reference mean when the first window
    /// fills.
    pub fn push(&mut self, score: f32) {
        self.window.push(score);
        if self.anchor.is_none() && self.window.is_full() {
            self.anchor = Some(self.window.mean());
        }
    }

    /// The current mean `m_t`.
    pub fn current_mean(&self) -> f32 {
        self.window.mean()
    }

    /// The reference mean `m_{t'}` (the current mean until the first window
    /// fills).
    pub fn reference_mean(&self) -> f32 {
        self.anchor.unwrap_or_else(|| self.window.mean())
    }

    /// `Δm = m_t − m_{t'}`.
    pub fn delta_m(&self) -> f32 {
        self.current_mean() - self.reference_mean()
    }

    /// The paper's `K = |Δm| · N`, rounded down, only when the mean has
    /// *dropped* (`Δm < 0` signals that the deployed detector has stopped
    /// firing, i.e. the anomaly trend moved away from the trained target).
    /// Returns 0 otherwise.
    pub fn adaptation_k(&self) -> usize {
        let dm = self.delta_m();
        if dm < 0.0 {
            (dm.abs() * self.window.capacity() as f32).floor() as usize
        } else {
            0
        }
    }

    /// The underlying score window.
    pub fn window(&self) -> &ScoreWindow {
        &self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_mean_tracks_eviction() {
        let mut w = ScoreWindow::new(3);
        for s in [1.0, 2.0, 3.0] {
            w.push(s);
        }
        assert!((w.mean() - 2.0).abs() < 1e-6);
        w.push(6.0); // evicts 1.0 -> [2,3,6]
        assert!((w.mean() - 11.0 / 3.0).abs() < 1e-6);
        assert!(w.is_full());
    }

    #[test]
    fn top_k_orders_descending() {
        let mut w = ScoreWindow::new(5);
        for s in [0.1, 0.9, 0.5, 0.7, 0.3] {
            w.push(s);
        }
        assert_eq!(w.top_k_indices(2), vec![1, 3]);
    }

    #[test]
    fn top_k_larger_than_len_returns_all() {
        let mut w = ScoreWindow::new(5);
        w.push(0.4);
        assert_eq!(w.top_k_indices(10).len(), 1);
    }

    #[test]
    fn std_of_constant_is_zero() {
        let mut w = ScoreWindow::new(4);
        for _ in 0..4 {
            w.push(0.7);
        }
        assert_eq!(w.std(), 0.0);
    }

    #[test]
    fn k_zero_when_mean_rises() {
        let mut t = MeanShiftTracker::new(10);
        for i in 0..20 {
            t.push(i as f32 / 20.0); // rising scores
        }
        assert!(t.delta_m() > 0.0);
        assert_eq!(t.adaptation_k(), 0);
    }

    #[test]
    fn k_grows_with_mean_drop() {
        let mut t = MeanShiftTracker::new(10);
        for _ in 0..10 {
            t.push(0.9);
        }
        for _ in 0..10 {
            t.push(0.1); // trend shift: detector stops firing
        }
        assert!(t.delta_m() < 0.0);
        let k = t.adaptation_k();
        assert!(k > 0, "expected positive K, got {k}");
        assert!(k <= 10);
    }

    #[test]
    fn k_formula_matches_paper() {
        // engineered drop: window N=10 full of 1.0, then 10 zeros =>
        // m_t = 0.0; the anchored reference is 1.0 => K = |−1.0|·10 = 10
        let mut t = MeanShiftTracker::new(10);
        for _ in 0..10 {
            t.push(1.0);
        }
        for _ in 0..10 {
            t.push(0.0);
        }
        assert_eq!(t.adaptation_k(), 10);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = ScoreWindow::new(0);
    }
}
