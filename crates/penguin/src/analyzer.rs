//! The prediction analyzer (§2.1.2): decides whether the sequence of
//! fitness predictions has converged to a stable, in-bounds value.
//!
//! The analyzer first checks that the most recent `N` predictions are valid
//! fitness values (the engine uses validation accuracy, so predictions must
//! lie in `[0, 100]`); any out-of-bounds prediction vetoes convergence.
//! It then checks stability: the window's range `max − min` must not
//! exceed the tolerance `r` (the paper uses `N = 3`, `r = 0.5`).

use serde::{Deserialize, Serialize};

/// Stateless convergence test over a prediction history.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PredictionAnalyzer {
    /// Number of trailing predictions that must agree (`N`, paper: 3).
    pub window: usize,
    /// Allowed range `max − min` of the window, `r` (paper: 0.5).
    pub tolerance: f64,
    /// Inclusive fitness bounds; validation accuracy ⇒ `[0, 100]`.
    pub bounds: (f64, f64),
}

impl Default for PredictionAnalyzer {
    fn default() -> Self {
        PredictionAnalyzer {
            window: 3,
            tolerance: 0.5,
            bounds: (0.0, 100.0),
        }
    }
}

impl PredictionAnalyzer {
    /// Create an analyzer with the paper's settings (`N = 3`, `r = 0.5`,
    /// bounds `[0, 100]`).
    pub fn paper_defaults() -> Self {
        Self::default()
    }

    /// Whether a single prediction is a valid fitness value.
    #[inline]
    pub fn in_bounds(&self, prediction: f64) -> bool {
        prediction.is_finite() && prediction >= self.bounds.0 && prediction <= self.bounds.1
    }

    /// Decide convergence over the full prediction history. Only the last
    /// [`window`](Self::window) entries are inspected; `None` entries
    /// (epochs where the fit failed or too few points were available)
    /// inside the window veto convergence, as do out-of-bounds values.
    pub fn converged(&self, predictions: &[Option<f64>]) -> bool {
        if self.window == 0 || predictions.len() < self.window {
            return false;
        }
        let tail = &predictions[predictions.len() - self.window..];
        if !tail.iter().all(|p| p.is_some_and(|v| self.in_bounds(v))) {
            return false;
        }
        let values = || tail.iter().flatten().copied();
        let max = values().fold(f64::NEG_INFINITY, f64::max);
        let min = values().fold(f64::INFINITY, f64::min);
        max - min <= self.tolerance
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn some(vals: &[f64]) -> Vec<Option<f64>> {
        vals.iter().map(|&v| Some(v)).collect()
    }

    #[test]
    fn converges_when_last_n_within_range() {
        let a = PredictionAnalyzer::paper_defaults();
        assert!(a.converged(&some(&[40.0, 80.0, 95.0, 95.2, 95.4])));
    }

    #[test]
    fn does_not_converge_when_spread_exceeds_r() {
        let a = PredictionAnalyzer::paper_defaults();
        assert!(!a.converged(&some(&[95.0, 95.2, 95.8])));
    }

    #[test]
    fn boundary_spread_exactly_r_converges() {
        let a = PredictionAnalyzer::paper_defaults();
        assert!(a.converged(&some(&[95.0, 95.25, 95.5])));
    }

    #[test]
    fn out_of_bounds_prediction_vetoes() {
        let a = PredictionAnalyzer::paper_defaults();
        // 104 > 100: invalid fitness, per §2.1.2.
        assert!(!a.converged(&some(&[104.0, 104.1, 104.2])));
        assert!(!a.converged(&some(&[-1.0, -1.0, -1.0])));
    }

    #[test]
    fn nan_and_missing_predictions_veto() {
        let a = PredictionAnalyzer::paper_defaults();
        assert!(!a.converged(&[Some(95.0), None, Some(95.1)]));
        assert!(!a.converged(&some(&[95.0, f64::NAN, 95.1])));
    }

    #[test]
    fn too_short_history_does_not_converge() {
        let a = PredictionAnalyzer::paper_defaults();
        assert!(!a.converged(&some(&[95.0, 95.1])));
        assert!(!a.converged(&[]));
    }

    #[test]
    fn only_the_trailing_window_matters() {
        let a = PredictionAnalyzer::paper_defaults();
        // Early garbage followed by a stable tail converges.
        assert!(a.converged(&some(&[10.0, 200.0, 95.0, 95.1, 95.2])));
    }

    #[test]
    fn zero_window_never_converges() {
        let a = PredictionAnalyzer {
            window: 0,
            ..Default::default()
        };
        assert!(!a.converged(&some(&[95.0, 95.0, 95.0])));
    }

    #[test]
    fn custom_bounds_apply() {
        // Loss-style fitness in [0, 1].
        let a = PredictionAnalyzer {
            bounds: (0.0, 1.0),
            tolerance: 0.01,
            ..Default::default()
        };
        assert!(a.converged(&some(&[0.90, 0.904, 0.908])));
        assert!(!a.converged(&some(&[1.5, 1.5, 1.5])));
    }
}
