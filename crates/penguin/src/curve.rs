//! Parametric curve families used to model NN fitness learning curves.
//!
//! The paper's engine uses the concave function `F(x) = a − b^(c−x)`
//! ([`CurveFamily::ExpBase`]). The conclusions ask *"Which parametric
//! functions are best able to predict neural architecture fitness?"* — to
//! support that ablation this module ships several additional families from
//! the learning-curve literature (Domhan et al., IJCAI 2015; Viering &
//! Loog, 2021). Each family knows how to evaluate itself, compute the
//! analytic Jacobian of its residuals, and produce data-driven initial
//! parameter guesses for the nonlinear least-squares fitter.

use serde::{Deserialize, Serialize};

/// The built-in parametric learning-curve families `F(x; θ)`.
///
/// `x` is the (1-based) training epoch; `F` is the fitness (validation
/// accuracy in percent in the A4NN use case). Each family provides the
/// function value alone, and the values together with the partial
/// derivatives with respect to each parameter over a whole curve, which
/// is what the Levenberg–Marquardt fitter consumes.
///
/// `ExpBase` is the function used throughout the paper's evaluation
/// (Table 1). The others exist for the parametric-function ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CurveFamily {
    /// `F(x) = a − b^(c−x)` — the paper's concave saturating curve.
    #[default]
    ExpBase,
    /// `F(x) = a − b·x^(−c)` — the pow3 family.
    Pow3,
    /// `F(x) = a − b / ln(x + c)` — logarithmic saturation.
    Log3,
    /// `F(x) = exp(a + b/x + c·ln x)` — vapor-pressure curve.
    Vap3,
    /// `F(x) = a − b·exp(−c·x^d)` — Weibull-style, 4 parameters.
    Weibull4,
    /// `F(x) = a − (a − b)·exp(−c·x)` — Janoschek-style exponential
    /// saturation with explicit starting fitness `b`.
    Janoschek3,
}

impl CurveFamily {
    /// All built-in families, in a stable order (used by the ablation
    /// harness).
    pub const ALL: [CurveFamily; 6] = [
        CurveFamily::ExpBase,
        CurveFamily::Pow3,
        CurveFamily::Log3,
        CurveFamily::Vap3,
        CurveFamily::Weibull4,
        CurveFamily::Janoschek3,
    ];

    /// Human-readable name (e.g. `"exp-base"` for `a − b^(c−x)`).
    pub fn name(&self) -> &'static str {
        match self {
            CurveFamily::ExpBase => "exp-base",
            CurveFamily::Pow3 => "pow3",
            CurveFamily::Log3 => "log3",
            CurveFamily::Vap3 => "vap3",
            CurveFamily::Weibull4 => "weibull4",
            CurveFamily::Janoschek3 => "janoschek3",
        }
    }

    /// Number of free parameters `θ`.
    pub fn n_params(&self) -> usize {
        match self {
            CurveFamily::Weibull4 => 4,
            _ => 3,
        }
    }

    /// Evaluate `F(x; θ)`.
    pub fn eval(&self, p: &[f64], x: f64) -> f64 {
        match self {
            // a − b^(c−x), b > 0. Written via exp/ln for numerical control.
            CurveFamily::ExpBase => p[0] - (p[1].ln() * (p[2] - x)).exp(),
            CurveFamily::Pow3 => p[0] - p[1] * x.powf(-p[2]),
            CurveFamily::Log3 => p[0] - p[1] / (x + p[2]).ln(),
            CurveFamily::Vap3 => (p[0] + p[1] / x + p[2] * x.ln()).exp(),
            CurveFamily::Weibull4 => p[0] - p[1] * (-p[2] * x.powf(p[3])).exp(),
            CurveFamily::Janoschek3 => p[0] - (p[0] - p[1]) * (-p[2] * x).exp(),
        }
    }

    /// Evaluate `F` and its partial derivatives `∂F/∂θ_i` at every `x`
    /// in one pass: `vals[j] = F(xs[j]; θ)`, bit for bit what
    /// [`eval`](Self::eval) returns, and row `j` of the row-major
    /// Jacobian `jac` (`xs.len() × n_params`) holds the derivatives at
    /// `xs[j]`. Terms shared by the value and the derivatives are
    /// computed once.
    pub fn eval_grad(&self, p: &[f64], xs: &[f64], vals: &mut [f64], jac: &mut [f64]) {
        debug_assert_eq!(vals.len(), xs.len());
        debug_assert_eq!(jac.len(), xs.len() * self.n_params());
        let rows = xs
            .iter()
            .zip(vals.iter_mut())
            .zip(jac.chunks_exact_mut(self.n_params()));
        match self {
            CurveFamily::ExpBase => {
                // F = a − exp(L(c−x)) with L = ln b.
                let l = p[1].ln();
                for ((&x, v), g) in rows {
                    let t = (l * (p[2] - x)).exp();
                    *v = p[0] - t;
                    g[0] = 1.0;
                    // ∂F/∂b = −(c−x)·b^(c−x−1) = −(c−x)·t/b
                    g[1] = -(p[2] - x) * t / p[1];
                    // ∂F/∂c = −ln(b)·t
                    g[2] = -l * t;
                }
            }
            CurveFamily::Pow3 => {
                for ((&x, v), g) in rows {
                    let t = x.powf(-p[2]);
                    let bt = p[1] * t;
                    *v = p[0] - bt;
                    g[0] = 1.0;
                    g[1] = -t;
                    g[2] = bt * x.ln();
                }
            }
            CurveFamily::Log3 => {
                for ((&x, v), g) in rows {
                    let xc = x + p[2];
                    let lx = xc.ln();
                    *v = p[0] - p[1] / lx;
                    g[0] = 1.0;
                    g[1] = -1.0 / lx;
                    g[2] = p[1] / (lx * lx * xc);
                }
            }
            CurveFamily::Vap3 => {
                for ((&x, v), g) in rows {
                    let lnx = x.ln();
                    let f = (p[0] + p[1] / x + p[2] * lnx).exp();
                    *v = f;
                    g[0] = f;
                    g[1] = f / x;
                    g[2] = f * lnx;
                }
            }
            CurveFamily::Weibull4 => {
                for ((&x, v), g) in rows {
                    let xp = x.powf(p[3]);
                    let e = (-p[2] * xp).exp();
                    *v = p[0] - p[1] * e;
                    g[0] = 1.0;
                    g[1] = -e;
                    g[2] = p[1] * xp * e;
                    g[3] = p[1] * p[2] * xp * x.ln() * e;
                }
            }
            CurveFamily::Janoschek3 => {
                let d = p[0] - p[1];
                for ((&x, v), g) in rows {
                    let e = (-p[2] * x).exp();
                    *v = p[0] - d * e;
                    g[0] = 1.0 - e;
                    g[1] = e;
                    g[2] = d * x * e;
                }
            }
        }
    }

    /// Data-driven initial guesses. `xs`/`ys` are the observed partial
    /// learning curve. Returns one or more starting points; the fitter
    /// tries each and keeps the best fit.
    pub fn initial_guesses(&self, xs: &[f64], ys: &[f64]) -> Vec<Vec<f64>> {
        let (y_first, y_last, y_max) = curve_stats(xs, ys);
        let asymptote = (y_max + 2.0).min(100.0).max(y_last);
        let gap = (asymptote - y_first).max(1.0);
        match self {
            CurveFamily::ExpBase => {
                // a − b^(c−x): choose b in (1, ∞) so the curve rises; c
                // shifts where the knee sits. b^c ≈ gap at x=0.
                let mut guesses = Vec::with_capacity(3);
                for &b in &[1.3f64, 1.6, 2.2] {
                    let c = gap.ln() / b.ln();
                    guesses.push(vec![asymptote, b, c]);
                }
                guesses
            }
            CurveFamily::Pow3 => vec![
                vec![asymptote, gap, 0.5],
                vec![asymptote, gap, 1.0],
                vec![asymptote, gap * 2.0, 1.5],
            ],
            CurveFamily::Log3 => vec![vec![asymptote, gap, 1.0], vec![asymptote, gap * 0.5, 2.0]],
            CurveFamily::Vap3 => {
                let la = asymptote.max(1.0).ln();
                vec![vec![la, -1.0, 0.05], vec![la, -0.5, 0.01]]
            }
            CurveFamily::Weibull4 => vec![
                vec![asymptote, gap, 0.3, 1.0],
                vec![asymptote, gap, 0.1, 1.5],
            ],
            CurveFamily::Janoschek3 => {
                vec![vec![asymptote, y_first, 0.2], vec![asymptote, y_first, 0.5]]
            }
        }
    }

    /// Whether a parameter vector is inside the family's valid domain
    /// (e.g. a positive base for `b^(c−x)`). Invalid vectors are rejected
    /// during fitting.
    pub fn params_valid(&self, p: &[f64]) -> bool {
        if p.iter().any(|v| !v.is_finite()) {
            return false;
        }
        match self {
            // base must be > 1 for an increasing saturating curve, and the
            // asymptote must be a plausible fitness.
            CurveFamily::ExpBase => p[1] > 1.0 + 1e-9 && p[0] > -50.0 && p[0] < 250.0,
            CurveFamily::Pow3 => p[2] > 0.0,
            CurveFamily::Log3 => p[2] > 1.0 - f64::EPSILON, // ln(x+c) defined & positive for x ≥ 1
            CurveFamily::Vap3 => true,
            CurveFamily::Weibull4 => p[2] > 0.0 && p[3] > 0.0,
            CurveFamily::Janoschek3 => p[2] > 0.0,
        }
    }
}

#[inline]
fn curve_stats(xs: &[f64], ys: &[f64]) -> (f64, f64, f64) {
    debug_assert_eq!(xs.len(), ys.len());
    let y_first = *ys.first().unwrap_or(&0.0);
    let y_last = *ys.last().unwrap_or(&1.0);
    let y_max = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (y_first, y_last, y_max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_base_matches_paper_form() {
        // F(x) = a − b^(c−x) evaluated directly.
        let (a, b, c) = (97.0f64, 1.7f64, 9.0f64);
        let p = [a, b, c];
        for x in [1.0, 5.0, 12.0, 25.0] {
            let direct = a - b.powf(c - x);
            assert!((CurveFamily::ExpBase.eval(&p, x) - direct).abs() < 1e-10);
        }
    }

    #[test]
    fn exp_base_is_increasing_and_concave_for_b_gt_1() {
        let p = [95.0, 1.6, 7.0];
        let f = |x: f64| CurveFamily::ExpBase.eval(&p, x);
        let mut prev = f(1.0);
        let mut prev_delta = f64::INFINITY;
        for e in 2..=25 {
            let cur = f(e as f64);
            let delta = cur - prev;
            assert!(delta > 0.0, "curve must increase");
            assert!(delta < prev_delta, "increments must shrink (concave)");
            prev = cur;
            prev_delta = delta;
        }
    }

    #[test]
    fn initial_guesses_are_valid() {
        let xs: Vec<f64> = (1..=6).map(|e| e as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 90.0 - 50.0 * 0.7f64.powf(x)).collect();
        for family in CurveFamily::ALL {
            let guesses = family.initial_guesses(&xs, &ys);
            assert!(!guesses.is_empty(), "{}", family.name());
            for g in guesses {
                assert_eq!(g.len(), family.n_params());
                assert!(family.params_valid(&g), "{} guess {g:?}", family.name());
            }
        }
    }

    #[test]
    fn invalid_params_are_rejected() {
        assert!(!CurveFamily::ExpBase.params_valid(&[95.0, 0.9, 5.0]));
        assert!(!CurveFamily::ExpBase.params_valid(&[f64::NAN, 1.5, 5.0]));
        assert!(!CurveFamily::Pow3.params_valid(&[95.0, 40.0, -0.5]));
        assert!(!CurveFamily::Weibull4.params_valid(&[95.0, 40.0, 0.5, -1.0]));
    }
}
