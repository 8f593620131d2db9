//! # akg-eval
//!
//! Evaluation metrics for the `adaptive-kg` reproduction: frame-level
//! ROC-AUC (the paper's headline metric), score-distribution monitoring with
//! the adaptation trigger `K = |Δm| · N`, and threshold-based confusion
//! rates.
//!
//! ## Modules
//!
//! - [`auc`] — rank-based ROC-AUC, full ROC curves, and average precision
//!   over per-frame anomaly scores. Fig. 5's y-axis is [`roc_auc`] computed
//!   on a held-out test stream after every adaptation step.
//! - [`stats`] — [`ScoreWindow`], a fixed-capacity rolling window of recent
//!   anomaly scores, and [`MeanShiftTracker`], which maintains the paper's
//!   mean-shift statistic `Δm = m_t − m_{t'}` and converts it into the
//!   adaptation budget `K = |Δm| · N` (Sec. III-C), with the reference
//!   time `t'` anchored at deployment (the first full window).
//! - [`confusion`] — threshold-based [`Confusion`] counts (TPR/FPR/precision)
//!   for operating-point analysis beyond the threshold-free AUC.
//!
//! This crate is dependency-free within the workspace (only `serde` for
//! snapshot serialization) so that the decision-model crates can report
//! metrics without cycles.
//!
//! ## Example
//!
//! ```
//! use akg_eval::auc::roc_auc;
//! let auc = roc_auc(&[0.9, 0.2, 0.8, 0.4], &[true, false, true, false]);
//! assert_eq!(auc, 1.0);
//! ```
//!
//! Tracking a score drop and sizing the adaptation budget:
//!
//! ```
//! use akg_eval::MeanShiftTracker;
//! let mut tracker = MeanShiftTracker::new(4);
//! for s in [0.9, 0.9, 0.9, 0.9] { tracker.push(s); }   // healthy reference
//! for s in [0.4, 0.4, 0.4, 0.4] { tracker.push(s); }   // trend shift hits
//! assert!(tracker.delta_m() < 0.0);
//! assert!(tracker.adaptation_k() > 0);
//! ```

#![warn(missing_docs)]

pub mod auc;
pub mod confusion;
pub mod stats;

pub use auc::{average_precision, roc_auc, roc_curve, RocPoint};
pub use confusion::Confusion;
pub use stats::{MeanShiftTracker, ScoreWindow};
