//! Nonlinear least-squares fitting of parametric learning curves.
//!
//! The paper attains curve parameters "using the least squares regression
//! of the fitting" (§2.1.1). We implement a dense Levenberg–Marquardt
//! solver from scratch: the parameter counts are tiny (3–4), so the normal
//! equations are solved directly with a small Gaussian-elimination routine.
//! Multiple data-driven initial guesses are tried and the best (lowest
//! residual) fit wins, which makes the fitter robust against the noisy,
//! sometimes pathological curves that NAS candidates produce.
//!
//! Every observation weighs the same (plain least squares). Each trial
//! step evaluates the curve's values and Jacobian in one pass
//! ([`CurveFamily::eval_grad`]); an accepted step keeps both, so the
//! next iteration builds `JᵀJ` and `Jᵀr` without evaluating the curve
//! again. A fit allocates its buffers once and reuses them across starts
//! and iterations.

use crate::curve::CurveFamily;

/// Configuration for the Levenberg–Marquardt fitter.
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Maximum LM iterations per starting point.
    pub max_iters: usize,
    /// Initial damping factor λ.
    pub lambda_init: f64,
    /// Multiplicative update applied to λ on rejected / accepted steps.
    pub lambda_factor: f64,
    /// Convergence threshold on the relative decrease of the cost.
    pub tol: f64,
}

impl Default for FitConfig {
    fn default() -> Self {
        FitConfig {
            max_iters: 60,
            lambda_init: 1e-2,
            lambda_factor: 8.0,
            tol: 1e-10,
        }
    }
}

/// A successful curve fit.
#[derive(Debug, Clone)]
pub struct FitResult {
    /// Fitted parameter vector θ.
    pub params: Vec<f64>,
    /// Sum of squared residuals at θ.
    pub sse: f64,
    /// Number of LM iterations consumed by the winning start.
    pub iterations: usize,
}

/// Why a fit could not be produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FitError {
    /// Fewer observations than parameters.
    TooFewPoints { have: usize, need: usize },
    /// Mismatched `xs`/`ys` lengths.
    LengthMismatch,
    /// Every starting point diverged or produced invalid parameters.
    DidNotConverge,
}

impl std::fmt::Display for FitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FitError::TooFewPoints { have, need } => {
                write!(f, "too few points for fit: have {have}, need {need}")
            }
            FitError::LengthMismatch => write!(f, "xs and ys have different lengths"),
            FitError::DidNotConverge => write!(f, "no starting point converged"),
        }
    }
}

impl std::error::Error for FitError {}

/// Solve the dense linear system `A x = b` (A is `n×n`, row-major),
/// overwriting `a` and `b` and writing the solution into `x`. Returns
/// `false` for singular systems and non-finite solutions. Partial pivoting
/// keeps the tiny systems we solve here stable.
fn solve_dense(a: &mut [f64], b: &mut [f64], n: usize, x: &mut [f64]) -> bool {
    for col in 0..n {
        // Pivot.
        let mut pivot_row = col;
        let mut pivot_val = a[col * n + col].abs();
        for row in (col + 1)..n {
            let v = a[row * n + col].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = row;
            }
        }
        if pivot_val < 1e-300 {
            return false;
        }
        if pivot_row != col {
            for k in 0..n {
                a.swap(col * n + k, pivot_row * n + k);
            }
            b.swap(col, pivot_row);
        }
        // Eliminate below.
        let diag = a[col * n + col];
        for row in (col + 1)..n {
            let factor = a[row * n + col] / diag;
            if factor == 0.0 {
                continue;
            }
            for k in col..n {
                a[row * n + k] -= factor * a[col * n + k];
            }
            b[row] -= factor * b[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = b[col];
        for k in (col + 1)..n {
            acc -= a[col * n + k] * x[k];
        }
        x[col] = acc / a[col * n + col];
    }
    x[..n].iter().all(|v| v.is_finite())
}

/// Sum of squared residuals of the curve values `vals` against `ys`.
fn sse_of(vals: &[f64], ys: &[f64]) -> f64 {
    ys.iter()
        .zip(vals)
        .map(|(&y, &v)| {
            let r = y - v;
            r * r
        })
        .sum()
}

/// The buffers of one fit, sized for `n_params` parameters and
/// `n_points` observations and shared by all its starts.
struct Scratch {
    /// The current point θ, its curve values and its Jacobian.
    params: Vec<f64>,
    vals: Vec<f64>,
    jac: Vec<f64>,
    /// The trial point θ + δ, its values and its Jacobian; swapped with
    /// the current ones when the step is accepted.
    trial: Vec<f64>,
    trial_vals: Vec<f64>,
    trial_jac: Vec<f64>,
    /// The normal equations `JᵀJ`, `Jᵀr`, their damped copies and the
    /// step δ solving them.
    jtj: Vec<f64>,
    jtr: Vec<f64>,
    a: Vec<f64>,
    b: Vec<f64>,
    step: Vec<f64>,
}

impl Scratch {
    fn new(n_params: usize, n_points: usize) -> Self {
        Scratch {
            params: vec![0.0; n_params],
            vals: vec![0.0; n_points],
            jac: vec![0.0; n_points * n_params],
            trial: vec![0.0; n_params],
            trial_vals: vec![0.0; n_points],
            trial_jac: vec![0.0; n_points * n_params],
            jtj: vec![0.0; n_params * n_params],
            jtr: vec![0.0; n_params],
            a: vec![0.0; n_params * n_params],
            b: vec![0.0; n_params],
            step: vec![0.0; n_params],
        }
    }
}

/// One Levenberg–Marquardt descent from `start`, leaving the refined
/// parameters in `s.params`. Returns their SSE and the iterations used,
/// or `None` if the descent left the valid parameter domain.
fn lm_from_start(
    curve: &CurveFamily,
    xs: &[f64],
    ys: &[f64],
    start: &[f64],
    cfg: &FitConfig,
    s: &mut Scratch,
) -> Option<(f64, usize)> {
    let n_params = curve.n_params();
    if !curve.params_valid(start) {
        return None;
    }
    s.params.copy_from_slice(start);
    curve.eval_grad(&s.params, xs, &mut s.vals, &mut s.jac);
    let mut cost = sse_of(&s.vals, ys);
    if !cost.is_finite() {
        return None;
    }
    let mut lambda = cfg.lambda_init;
    let mut iterations = 0;

    for iter in 0..cfg.max_iters {
        iterations = iter + 1;
        // Build JᵀJ and Jᵀr from the current point's values and Jacobian.
        s.jtj.fill(0.0);
        s.jtr.fill(0.0);
        for ((&y, &v), g) in ys.iter().zip(&s.vals).zip(s.jac.chunks_exact(n_params)) {
            let r = y - v;
            if g.iter().any(|g| !g.is_finite()) || !r.is_finite() {
                return None;
            }
            for a in 0..n_params {
                s.jtr[a] += g[a] * r;
                for b in a..n_params {
                    s.jtj[a * n_params + b] += g[a] * g[b];
                }
            }
        }
        // Mirror the upper triangle.
        for a in 0..n_params {
            for b in 0..a {
                s.jtj[a * n_params + b] = s.jtj[b * n_params + a];
            }
        }

        // Try damped steps, increasing λ until one is accepted.
        let mut accepted = false;
        for _ in 0..12 {
            s.a.copy_from_slice(&s.jtj);
            for d in 0..n_params {
                s.a[d * n_params + d] += lambda * (1.0 + s.jtj[d * n_params + d]);
            }
            s.b.copy_from_slice(&s.jtr);
            if solve_dense(&mut s.a, &mut s.b, n_params, &mut s.step) {
                for ((t, p), d) in s.trial.iter_mut().zip(&s.params).zip(&s.step) {
                    *t = p + d;
                }
                if curve.params_valid(&s.trial) {
                    curve.eval_grad(&s.trial, xs, &mut s.trial_vals, &mut s.trial_jac);
                    let c = sse_of(&s.trial_vals, ys);
                    if c.is_finite() && c < cost {
                        let rel = (cost - c) / cost.max(1e-300);
                        std::mem::swap(&mut s.params, &mut s.trial);
                        std::mem::swap(&mut s.vals, &mut s.trial_vals);
                        std::mem::swap(&mut s.jac, &mut s.trial_jac);
                        cost = c;
                        lambda = (lambda / cfg.lambda_factor).max(1e-12);
                        accepted = true;
                        if rel < cfg.tol {
                            return Some((cost, iterations));
                        }
                        break;
                    }
                }
            }
            lambda *= cfg.lambda_factor;
            if lambda > 1e12 {
                break;
            }
        }
        if !accepted {
            break;
        }
    }
    Some((cost, iterations))
}

/// Fit `curve` to the observed learning curve `(xs, ys)` with
/// Levenberg–Marquardt, trying every data-driven initial guess and keeping
/// the best fit.
///
/// # Errors
///
/// Returns [`FitError::TooFewPoints`] when there are fewer observations
/// than parameters, and [`FitError::DidNotConverge`] when every starting
/// point diverges (e.g. a constant-zero curve from a network that never
/// learns can still be fitted, but NaN-laden data cannot).
pub fn fit_curve(
    curve: &CurveFamily,
    xs: &[f64],
    ys: &[f64],
    cfg: &FitConfig,
) -> Result<FitResult, FitError> {
    if xs.len() != ys.len() {
        return Err(FitError::LengthMismatch);
    }
    let n_params = curve.n_params();
    if xs.len() < n_params {
        return Err(FitError::TooFewPoints {
            have: xs.len(),
            need: n_params,
        });
    }
    let mut s = Scratch::new(n_params, xs.len());
    let mut params = vec![0.0; n_params];
    let mut best: Option<(f64, usize)> = None;
    for start in curve.initial_guesses(xs, ys) {
        if let Some((c, it)) = lm_from_start(curve, xs, ys, &start, cfg, &mut s) {
            if best.is_none_or(|(bc, _)| c < bc) {
                best = Some((c, it));
                params.copy_from_slice(&s.params);
            }
        }
    }
    best.map(|(sse, iterations)| FitResult {
        params,
        sse,
        iterations,
    })
    .ok_or(FitError::DidNotConverge)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(a: f64, b: f64, c: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let xs: Vec<f64> = (1..=n).map(|e| e as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| a - b.powf(c - x)).collect();
        (xs, ys)
    }

    #[test]
    fn recovers_exact_exp_base_curve() {
        let (xs, ys) = synth(96.0, 1.6, 8.0, 10);
        let fit = fit_curve(&CurveFamily::ExpBase, &xs, &ys, &FitConfig::default()).unwrap();
        // Prediction at epoch 25 must match the generating curve closely.
        let truth = 96.0 - 1.6f64.powf(8.0 - 25.0);
        let pred = CurveFamily::ExpBase.eval(&fit.params, 25.0);
        assert!((pred - truth).abs() < 0.1, "pred {pred} vs {truth}");
        assert!(fit.sse < 1e-6, "sse {}", fit.sse);
    }

    #[test]
    fn recovers_noisy_curve_asymptote() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (xs, mut ys) = synth(93.0, 1.8, 6.0, 12);
        for y in &mut ys {
            *y += rng.gen_range(-0.4..0.4);
        }
        let fit = fit_curve(&CurveFamily::ExpBase, &xs, &ys, &FitConfig::default()).unwrap();
        let pred = CurveFamily::ExpBase.eval(&fit.params, 25.0);
        assert!((pred - 93.0).abs() < 1.5, "pred {pred}");
    }

    #[test]
    fn too_few_points_is_an_error() {
        let err = fit_curve(
            &CurveFamily::ExpBase,
            &[1.0, 2.0],
            &[10.0, 20.0],
            &FitConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, FitError::TooFewPoints { have: 2, need: 3 });
    }

    #[test]
    fn length_mismatch_is_an_error() {
        let err = fit_curve(
            &CurveFamily::ExpBase,
            &[1.0, 2.0, 3.0],
            &[10.0, 20.0],
            &FitConfig::default(),
        )
        .unwrap_err();
        assert_eq!(err, FitError::LengthMismatch);
    }

    #[test]
    fn nan_data_does_not_converge() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [f64::NAN, 1.0, 2.0, 3.0];
        let err = fit_curve(&CurveFamily::ExpBase, &xs, &ys, &FitConfig::default()).unwrap_err();
        assert_eq!(err, FitError::DidNotConverge);
    }

    #[test]
    fn fits_flat_non_learner_curve() {
        // ~50% accuracy forever (binary non-learner): the fit should track
        // the flat level rather than blow up.
        let xs: Vec<f64> = (1..=8).map(|e| e as f64).collect();
        let ys = vec![50.1, 49.9, 50.0, 50.2, 49.8, 50.0, 50.1, 49.9];
        let fit = fit_curve(&CurveFamily::ExpBase, &xs, &ys, &FitConfig::default()).unwrap();
        let pred = CurveFamily::ExpBase.eval(&fit.params, 25.0);
        assert!((pred - 50.0).abs() < 3.0, "pred {pred}");
    }

    #[test]
    fn solve_dense_solves_known_system() {
        // [2 1; 1 3] x = [3; 5] → x = [4/5, 7/5]
        let mut a = vec![2.0, 1.0, 1.0, 3.0];
        let mut b = vec![3.0, 5.0];
        let mut x = vec![0.0; 2];
        assert!(solve_dense(&mut a, &mut b, 2, &mut x));
        assert!((x[0] - 0.8).abs() < 1e-12);
        assert!((x[1] - 1.4).abs() < 1e-12);
    }

    #[test]
    fn solve_dense_rejects_singular() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        let mut x = vec![0.0; 2];
        assert!(!solve_dense(&mut a, &mut b, 2, &mut x));
    }

    #[test]
    fn all_families_fit_well_behaved_curve() {
        let (xs, ys) = synth(95.0, 1.5, 7.0, 15);
        for family in CurveFamily::ALL {
            let fit = fit_curve(&family, &xs, &ys, &FitConfig::default());
            assert!(fit.is_ok(), "{} failed: {:?}", family.name(), fit.err());
            let pred = family.eval(&fit.unwrap().params, 25.0);
            // Families differ in extrapolation quality; just require sanity.
            assert!(pred.is_finite(), "{}", family.name());
        }
    }
}
