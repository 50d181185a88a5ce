//! Softmax cross-entropy loss.

use crate::tensor::Tensor2;
use crate::workspace::Workspace;

/// Output of [`cross_entropy_ws`].
#[derive(Debug, Clone)]
pub struct CrossEntropyOutput {
    /// Mean loss over the batch.
    pub loss: f32,
    /// Gradient with respect to the logits (already divided by batch size).
    pub dlogits: Tensor2,
    /// Softmax probabilities (row per sample).
    pub probs: Tensor2,
    /// Number of argmax-correct predictions.
    pub correct: usize,
}

/// Numerically stable softmax cross-entropy with integer class labels,
/// drawing `probs` and `dlogits` from `ws`; recycle them with
/// [`Workspace::give2`] when done. Every element of both
/// matrices is overwritten, so scratch reuse cannot change results.
pub fn cross_entropy_ws(
    logits: &Tensor2,
    labels: &[usize],
    ws: &mut Workspace,
) -> CrossEntropyOutput {
    assert_eq!(logits.rows, labels.len(), "one label per row required");
    let n = logits.rows.max(1);
    let mut probs = ws.t2_scratch(logits.rows, logits.cols);
    let mut dlogits = ws.t2_scratch(logits.rows, logits.cols);
    let mut loss = 0.0f64;
    let mut correct = 0usize;
    for (r, &label) in labels.iter().enumerate() {
        let row = logits.row(r);
        assert!(label < logits.cols, "label {label} out of range");
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for (c, &v) in row.iter().enumerate() {
            let e = (v - max).exp();
            probs.set(r, c, e);
            denom += e;
        }
        let mut argmax = 0;
        let mut best = f32::NEG_INFINITY;
        for c in 0..logits.cols {
            let p = probs.get(r, c) / denom;
            probs.set(r, c, p);
            let delta = if c == label { 1.0 } else { 0.0 };
            dlogits.set(r, c, (p - delta) / n as f32);
            if p > best {
                best = p;
                argmax = c;
            }
        }
        if argmax == label {
            correct += 1;
        }
        loss -= f64::from(probs.get(r, label).max(1e-12).ln());
    }
    CrossEntropyOutput {
        loss: (loss / n as f64) as f32,
        dlogits,
        probs,
        correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_logits_give_ln_k_loss() {
        let logits = Tensor2::zeros(4, 3);
        let out = cross_entropy_ws(&logits, &[0, 1, 2, 0], &mut Workspace::new());
        assert!((out.loss - 3.0f32.ln()).abs() < 1e-5);
        // Uniform probabilities.
        for r in 0..4 {
            for c in 0..3 {
                assert!((out.probs.get(r, c) - 1.0 / 3.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let logits = Tensor2::from_vec(1, 2, vec![10.0, -10.0]);
        let out = cross_entropy_ws(&logits, &[0], &mut Workspace::new());
        assert!(out.loss < 1e-4);
        assert_eq!(out.correct, 1);
    }

    #[test]
    fn confident_wrong_prediction_has_high_loss() {
        let logits = Tensor2::from_vec(1, 2, vec![10.0, -10.0]);
        let out = cross_entropy_ws(&logits, &[1], &mut Workspace::new());
        assert!(out.loss > 5.0);
        assert_eq!(out.correct, 0);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let logits = Tensor2::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]);
        let out = cross_entropy_ws(&logits, &[2, 0], &mut Workspace::new());
        for r in 0..2 {
            let s: f32 = out.dlogits.row(r).iter().sum();
            assert!(s.abs() < 1e-6, "row {r} sums to {s}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let base = vec![0.3f32, -0.7, 1.2];
        let labels = [1usize];
        let mut ws = Workspace::new();
        let out = cross_entropy_ws(&Tensor2::from_vec(1, 3, base.clone()), &labels, &mut ws);
        let h = 1e-3f32;
        for i in 0..3 {
            let mut plus = base.clone();
            let mut minus = base.clone();
            plus[i] += h;
            minus[i] -= h;
            let lp = cross_entropy_ws(&Tensor2::from_vec(1, 3, plus), &labels, &mut ws).loss;
            let lm = cross_entropy_ws(&Tensor2::from_vec(1, 3, minus), &labels, &mut ws).loss;
            let numeric = (lp - lm) / (2.0 * h);
            assert!(
                (numeric - out.dlogits.get(0, i)).abs() < 1e-3,
                "logit {i}: numeric {numeric} vs {}",
                out.dlogits.get(0, i)
            );
        }
    }

    #[test]
    fn extreme_logits_do_not_overflow() {
        let logits = Tensor2::from_vec(1, 2, vec![1e4, -1e4]);
        let out = cross_entropy_ws(&logits, &[0], &mut Workspace::new());
        assert!(out.loss.is_finite());
        assert!(out.dlogits.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_label_panics() {
        let logits = Tensor2::zeros(1, 2);
        let _ = cross_entropy_ws(&logits, &[5], &mut Workspace::new());
    }
}
