//! # akg-bench
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation section:
//!
//! - `fig5_trend_shift` (binary) — Fig. 5(A)/(B): test AUC across anomaly
//!   trend shifts, with vs without continuous KG adaptive learning.
//! - `fig6_retrieval` (binary) — Fig. 6: interpretable-retrieval drift of
//!   the adapted token embeddings.
//! - `table1_cost` (binary) — Table I: cloud-baseline vs edge-adaptation
//!   cost accounting with measured edge numbers.
//! - `perf` (binary) — the kernel perf harness: op-level timings of the
//!   hot-path kernels, emitted as `BENCH_tensor.json` (see
//!   `docs/PERFORMANCE.md`). End-to-end serving is measured by `perfbench/`.
//! - Criterion micro-benches (`benches/`) — component latencies and the
//!   ablations called out in DESIGN.md.
//!
//! ## Reproducing the paper's evaluation
//!
//! ```sh
//! cargo run --release --bin fig5_trend_shift -- --seeds 3 --scenario all
//! cargo run --release --bin fig6_retrieval -- --seed 43
//! cargo run --release --bin table1_cost -- --seed 43
//! cargo bench --bench components   # Table I "Low (Real-time)" latencies
//! cargo bench --bench ablations    # design-choice ablations + AUC printouts
//! cargo bench --bench tensor_ops   # hot-path kernels: naive vs ikj vs blocked
//! cargo run --release --bin perf   # kernel timings -> BENCH_tensor.json
//! ```
//!
//! Every run is seeded and deterministic: the binaries accept `--seed`
//! (or `--seeds N` for multi-seed averaging in Fig. 5) so that reported
//! curves can be regenerated exactly.
//!
//! The library part of this crate holds the small amount of shared harness
//! code: the experiment-scale dataset ([`experiment_dataset`]), multi-seed
//! scenario running ([`run_scenario_seeds`]), per-step curve averaging
//! ([`mean_curve`]), and the ASCII panel renderer ([`render_panel`]) used
//! for Fig. 5 output.

#![warn(missing_docs)]

use akg_core::experiment::{run_trend_shift, TrendShiftParams, TrendShiftResult};
use akg_data::{DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;

/// The dataset scale used by the experiment harness: small enough to run on
/// a laptop in minutes, large enough for stable frame-level AUC.
pub fn experiment_dataset(classes: &[AnomalyClass], seed: u64) -> SyntheticUcfCrime {
    let mut cfg = DatasetConfig::scaled(0.03).with_classes(classes).with_seed(seed);
    cfg.test_normal = 25;
    cfg.test_anomalous = 30;
    SyntheticUcfCrime::generate(cfg)
}

/// One Fig. 5 scenario averaged over `seeds`, returning per-seed results.
pub fn run_scenario_seeds(
    initial: AnomalyClass,
    shifted: AnomalyClass,
    seeds: &[u64],
) -> Vec<TrendShiftResult> {
    seeds
        .iter()
        .map(|&seed| {
            let ds = experiment_dataset(&[initial, shifted], seed);
            let mut params = TrendShiftParams::quick(initial, shifted);
            params.seed = seed;
            params.system.seed = seed;
            params.train = params.train.with_seed(seed);
            run_trend_shift(&ds, &params)
        })
        .collect()
}

/// Mean AUC per step across seed runs for the adaptive (or static) curve.
pub fn mean_curve(results: &[TrendShiftResult], adaptive: bool) -> Vec<f32> {
    if results.is_empty() {
        return Vec::new();
    }
    let steps = results[0].adaptive.points.len();
    (0..steps)
        .map(|i| {
            results
                .iter()
                .map(|r| {
                    let curve = if adaptive { &r.adaptive } else { &r.static_kg };
                    curve.points[i].auc
                })
                .sum::<f32>()
                / results.len() as f32
        })
        .collect()
}

/// Renders one Fig. 5 panel as an ASCII chart (steps on x, AUC on y).
pub fn render_panel(title: &str, adaptive: &[f32], static_kg: &[f32], shift_at: usize) -> String {
    let mut out = format!("{title}\n  step | adaptive | static  | phase\n");
    for (i, (a, s)) in adaptive.iter().zip(static_kg).enumerate() {
        let phase = if i < shift_at { "initial trend" } else { "SHIFTED trend" };
        out.push_str(&format!("  {i:>4} |   {a:.3}  |  {s:.3}  | {phase}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_dataset_has_requested_sizes() {
        let ds = experiment_dataset(&[AnomalyClass::Stealing, AnomalyClass::Robbery], 1);
        assert_eq!(ds.config().test_normal, 25);
        assert_eq!(ds.config().test_anomalous, 30);
        assert!(!ds.test_subset(AnomalyClass::Robbery).is_empty());
    }

    #[test]
    fn render_panel_includes_all_steps() {
        let text = render_panel("t", &[0.9, 0.8], &[0.9, 0.7], 1);
        assert!(text.contains("0.900"));
        assert!(text.contains("SHIFTED"));
    }
}
