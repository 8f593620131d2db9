//! The training objective: cross-entropy plus the MissionGNN-style sparsity
//! (λ_spa) and temporal-smoothness (λ_smt) regularizers on the anomaly
//! score, both set to 0.001 in the paper.

use akg_tensor::Tensor;

/// Sparsity loss coefficient λ_spa. Paper: 0.001.
pub const LAMBDA_SPA: f32 = 0.001;
/// Smoothness loss coefficient λ_smt. Paper: 0.001.
pub const LAMBDA_SMT: f32 = 0.001;
/// Label smoothing ε of the training and adaptation objective. Keeps scores
/// calibrated; saturated scores would turn the adaptation trigger's top-K
/// selection into noise.
pub const LABEL_SMOOTHING: f32 = 0.1;

/// Differentiable anomaly scores `p_A = 1 − p_N` from a batch of logits
/// `[m, n + 1]`, shape `[m, 1]`.
pub fn anomaly_scores(logits: &Tensor) -> Tensor {
    let probs = logits.softmax_rows();
    probs.slice_cols(0, 1).neg().add_scalar(1.0)
}

/// Sparsity regularizer: the mean anomaly score over the batch. Penalizing
/// it encodes the prior that anomalies are rare.
pub fn sparsity_loss(logits: &Tensor) -> Tensor {
    anomaly_scores(logits).mean_all()
}

/// Temporal smoothness regularizer: the mean squared difference between
/// consecutive anomaly scores, assuming the batch rows are consecutive
/// frames of one sequence. Returns zero for batches shorter than 2.
pub fn smoothness_loss(logits: &Tensor) -> Tensor {
    let scores = anomaly_scores(logits);
    let m = scores.shape()[0];
    if m < 2 {
        return Tensor::scalar(0.0);
    }
    let current = scores.slice_rows(1, m);
    let previous = scores.slice_rows(0, m - 1);
    current.sub(&previous).square().mean_all()
}

/// The full objective `CE + λ_spa · L_spa + λ_smt · L_smt`, with label
/// smoothing: the true class gets probability `1 − ε`, the rest share `ε`
/// (`ε = 0` is plain cross-entropy). Smoothing keeps the model's scores
/// calibrated instead of saturating at 0/1 — saturated scores would make
/// the adaptation trigger's top-K selection pure noise.
///
/// # Panics
///
/// Panics if `targets.len()` mismatches the batch size, a target is out of
/// range, or `smoothing` is outside `[0, 1)`.
pub fn decision_loss_smoothed(
    logits: &Tensor,
    targets: &[usize],
    smoothing: f32,
    lambda_spa: f32,
    lambda_smt: f32,
) -> Tensor {
    assert!((0.0..1.0).contains(&smoothing), "smoothing must be in [0, 1)");
    let shape = logits.shape();
    let (m, c) = (shape[0], shape[1]);
    assert_eq!(targets.len(), m, "decision_loss_smoothed: need one target per row");
    let ce = if smoothing == 0.0 {
        logits.cross_entropy(targets)
    } else {
        let off = smoothing / (c - 1).max(1) as f32;
        let mut soft = vec![off; m * c];
        for (r, &t) in targets.iter().enumerate() {
            assert!(t < c, "decision_loss_smoothed: target {t} out of range");
            soft[r * c + t] = 1.0 - smoothing;
        }
        logits.cross_entropy_soft(&Tensor::from_vec(soft, &[m, c]))
    };
    let spa = sparsity_loss(logits).mul_scalar(lambda_spa);
    let smt = smoothness_loss(logits).mul_scalar(lambda_smt);
    ce.add(&spa).add(&smt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anomaly_scores_complement_normal_prob() {
        let logits = Tensor::from_vec(vec![2.0, 0.0, 0.0, 0.0, 2.0, 0.0], &[2, 3]);
        let probs = logits.softmax_rows().to_vec();
        let scores = anomaly_scores(&logits).to_vec();
        assert!((scores[0] - (1.0 - probs[0])).abs() < 1e-6);
        assert!((scores[1] - (1.0 - probs[3])).abs() < 1e-6);
    }

    #[test]
    fn sparsity_penalizes_high_anomaly_scores() {
        let anomalous = Tensor::from_vec(vec![-5.0, 5.0], &[1, 2]);
        let normal = Tensor::from_vec(vec![5.0, -5.0], &[1, 2]);
        assert!(sparsity_loss(&anomalous).item() > sparsity_loss(&normal).item());
    }

    #[test]
    fn smoothness_zero_for_constant_scores() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 1.0, 0.0, 1.0, 0.0], &[3, 2]);
        assert!(smoothness_loss(&logits).item() < 1e-8);
    }

    #[test]
    fn smoothness_positive_for_oscillation() {
        let logits = Tensor::from_vec(vec![5.0, -5.0, -5.0, 5.0, 5.0, -5.0], &[3, 2]);
        assert!(smoothness_loss(&logits).item() > 0.1);
    }

    #[test]
    fn smoothness_of_single_row_is_zero() {
        let logits = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]);
        assert_eq!(smoothness_loss(&logits).item(), 0.0);
    }

    #[test]
    fn full_loss_reduces_to_ce_with_zero_lambdas() {
        let logits = Tensor::from_vec(vec![0.3, 0.7, 0.1, 0.9], &[2, 2]);
        let full = decision_loss_smoothed(&logits, &[0, 1], 0.0, 0.0, 0.0);
        let ce = logits.cross_entropy(&[0, 1]);
        assert!((full.item() - ce.item()).abs() < 1e-6);
    }

    #[test]
    fn loss_differentiable() {
        let logits = Tensor::from_vec(vec![0.1, -0.1, 0.2, 0.0], &[2, 2]).requires_grad(true);
        decision_loss_smoothed(&logits, &[0, 1], 0.0, 0.001, 0.001).backward();
        assert!(logits.grad().is_some());
    }
}
