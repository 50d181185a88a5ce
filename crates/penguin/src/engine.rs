//! The prediction engine proper: the iterative *parametric modeling* →
//! *prediction analysis* loop of §2.1, matching Algorithm 1's
//! `pred_eng(e_pred, F, C_min, r)` interface.

use crate::analyzer::PredictionAnalyzer;
use crate::curve::CurveFamily;
use crate::fit::{fit_curve, FitConfig};
use serde::{Deserialize, Serialize};

/// User-facing engine configuration (paper Table 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Parametric function `F` used to model fitness (Table 1 row 1).
    pub family: CurveFamily,
    /// Minimum number of fitness points before making a prediction
    /// (`C_min`, paper: 3).
    pub c_min: usize,
    /// Epoch for which final fitness is predicted (`e_pred`, paper: 25).
    pub e_pred: u32,
    /// Number of trailing predictions considered for convergence
    /// (`N`, paper: 3).
    pub n_converge: usize,
    /// Allowed spread of those predictions (`r`, paper: 0.5).
    pub r: f64,
    /// Inclusive fitness bounds (validation accuracy ⇒ `[0, 100]`).
    pub bounds: (f64, f64),
    /// Least-squares solver settings.
    #[serde(skip)]
    pub fit: FitConfig,
}

impl EngineConfig {
    /// The exact configuration of the paper's evaluation (Table 1):
    /// `F(x) = a − b^(c−x)`, `C_min = 3`, `e_pred = 25`, `N = 3`, `r = 0.5`.
    pub fn paper_defaults() -> Self {
        EngineConfig {
            family: CurveFamily::ExpBase,
            c_min: 3,
            e_pred: 25,
            n_converge: 3,
            r: 0.5,
            bounds: (0.0, 100.0),
            fit: FitConfig::default(),
        }
    }

    fn analyzer(&self) -> PredictionAnalyzer {
        PredictionAnalyzer {
            window: self.n_converge,
            tolerance: self.r,
            bounds: self.bounds,
        }
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// What one per-epoch interaction ([`PredictionEngine::interact`]) tells
/// the trainer. The default is "no prediction, keep training" — also
/// what a trainer whose engine is gone acts on.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Verdict {
    /// This epoch's prediction of the fitness at `e_pred`, once `C_min`
    /// points allow a fit.
    pub prediction: Option<f64>,
    /// The converged final fitness `P[-1]` when training should stop.
    pub converged: Option<f64>,
}

/// Aggregate counters for overhead accounting (§4.3.1 reports ~28 ms per
/// engine interaction and ~52 s added per 100-model test).
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Number of `observe` + `step` interactions performed.
    pub interactions: u64,
    /// Number of successful curve fits.
    pub fits: u64,
    /// Number of failed fits (too few points or divergence).
    pub fit_failures: u64,
    /// Total wall time spent inside the engine, in seconds.
    pub total_seconds: f64,
}

/// The in-situ prediction engine attached to one network's training loop.
///
/// Mirrors Algorithm 1: after each training epoch, call
/// [`observe`](Self::observe) with the measured validation fitness, then
/// [`step`](Self::step); a `Some(prediction)` return means the analyzer
/// converged and training should be terminated with that predicted final
/// fitness.
#[derive(Debug, Clone)]
pub struct PredictionEngine {
    config: EngineConfig,
    analyzer: PredictionAnalyzer,
    /// Fitness history `H`: the epochs and their measured fitness, kept
    /// as the two series the fitter reads.
    epochs: Vec<f64>,
    fitness: Vec<f64>,
    /// Prediction history `P`: one entry per epoch observed after `C_min`.
    predictions: Vec<Option<f64>>,
    stats: EngineStats,
}

impl PredictionEngine {
    /// Build an engine from a configuration.
    pub fn new(config: EngineConfig) -> Self {
        let analyzer = config.analyzer();
        PredictionEngine {
            config,
            analyzer,
            epochs: Vec::with_capacity(32),
            fitness: Vec::with_capacity(32),
            predictions: Vec::with_capacity(32),
            stats: EngineStats::default(),
        }
    }

    /// Append one measured `(epoch, fitness)` point to the fitness history
    /// `H`.
    pub fn observe(&mut self, epoch: u32, fitness: f64) {
        self.epochs.push(f64::from(epoch));
        self.fitness.push(fitness);
    }

    /// Run one iteration of the modeling → analysis loop:
    /// fit the parametric curve to `H`, extrapolate fitness at `e_pred`,
    /// append to `P`, and test convergence. Returns the final converged
    /// prediction, or `None` if training should continue.
    pub fn step(&mut self) -> Option<f64> {
        let t0 = std::time::Instant::now();
        let prediction = self.predict_once();
        self.predictions.push(prediction);
        self.stats.interactions += 1;
        let converged = self.analyzer.converged(&self.predictions);
        self.stats.total_seconds += t0.elapsed().as_secs_f64();
        if converged {
            // P[-1] — guaranteed Some by the analyzer.
            self.predictions.last().copied().flatten()
        } else {
            None
        }
    }

    /// One per-epoch interaction of Algorithm 1:
    /// [`observe`](Self::observe) the epoch's measured fitness, run one
    /// [`step`](Self::step), and report the step's prediction `P[-1]`
    /// beside its convergence verdict. Every caller that couples a
    /// trainer to the engine goes through this, so verdicts are
    /// bit-identical wherever the engine runs.
    pub fn interact(&mut self, epoch: u32, fitness: f64) -> Verdict {
        self.observe(epoch, fitness);
        let converged = self.step();
        Verdict {
            prediction: self.predictions.last().copied().flatten(),
            converged,
        }
    }

    fn predict_once(&mut self) -> Option<f64> {
        if self.epochs.len() < self.config.c_min.max(self.config.family.n_params()) {
            self.stats.fit_failures += 1;
            return None;
        }
        match fit_curve(
            &self.config.family,
            &self.epochs,
            &self.fitness,
            &self.config.fit,
        ) {
            Ok(fit) => {
                self.stats.fits += 1;
                Some(
                    self.config
                        .family
                        .eval(&fit.params, f64::from(self.config.e_pred)),
                )
            }
            Err(_) => {
                self.stats.fit_failures += 1;
                None
            }
        }
    }

    /// The prediction history `P` (one entry per `step`).
    pub fn predictions(&self) -> &[Option<f64>] {
        &self.predictions
    }

    /// Overhead counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }
}

/// The engine's verdicts over one recorded learning curve, as [`replay`]
/// returns them.
#[derive(Debug, Clone)]
pub struct Replay {
    /// The converged prediction `P[-1]`, when the engine stopped the curve.
    pub converged: Option<f64>,
    /// The prediction history `P`: one entry per curve point consumed.
    pub predictions: Vec<Option<f64>>,
}

impl Replay {
    /// Curve points consumed: through the stop, or the whole curve.
    pub fn epochs(&self) -> usize {
        self.predictions.len()
    }
}

/// Drive the engine over a recorded learning curve `[(epoch, fitness)]`
/// as a trainer coupled to it would: one
/// [`interact`](PredictionEngine::interact) per point, until the analyzer
/// converges or the curve ends. The engine is a pure function of the
/// curve, so replaying a model's recorded trail gives its live verdicts
/// bit for bit, and replaying a complete curve also knows the truth at
/// `e_pred` for a model the engine would have stopped.
pub fn replay(config: &EngineConfig, curve: &[(u32, f64)]) -> Replay {
    let mut engine = PredictionEngine::new(config.clone());
    let converged = curve
        .iter()
        .find_map(|&(epoch, fitness)| engine.interact(epoch, fitness).converged);
    Replay {
        converged,
        predictions: engine.predictions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Epochs `1..=epochs` of `f` as a recorded curve.
    fn points(epochs: u32, f: impl Fn(u32) -> f64) -> Vec<(u32, f64)> {
        (1..=epochs).map(|e| (e, f(e))).collect()
    }

    fn curve(a: f64, rho: f64, scale: f64) -> impl Fn(u32) -> f64 {
        move |e: u32| a - scale * rho.powi(e as i32)
    }

    fn paper_replay(epochs: u32, f: impl Fn(u32) -> f64) -> Replay {
        replay(&EngineConfig::paper_defaults(), &points(epochs, f))
    }

    #[test]
    fn well_behaved_curve_terminates_early() {
        let run = paper_replay(25, curve(96.0, 0.65, 55.0));
        let fitness = run.converged.expect("should converge");
        let epochs = run.epochs();
        assert!(epochs < 25, "should save epochs, got {epochs}");
        assert!((fitness - 96.0).abs() < 1.5, "fitness {fitness}");
    }

    #[test]
    fn prediction_matches_final_training_within_tolerance() {
        let f = curve(92.0, 0.7, 40.0);
        let run = paper_replay(25, &f);
        // Algorithm 1 falls back to the last measured fitness.
        let fitness = run.converged.unwrap_or(f(run.epochs() as u32));
        assert!((fitness - f(25)).abs() < 2.0);
    }

    #[test]
    fn erratic_curve_trains_to_budget() {
        // A convex, accelerating curve keeps dragging the fitted asymptote
        // upward, so the prediction window never stabilizes within r.
        let run = paper_replay(25, |e| 0.15 * f64::from(e) * f64::from(e));
        assert_eq!(run.converged, None);
        assert_eq!(run.epochs(), 25);
    }

    #[test]
    fn no_prediction_before_c_min_points() {
        let mut engine = PredictionEngine::new(EngineConfig::paper_defaults());
        engine.observe(1, 30.0);
        assert!(engine.step().is_none());
        engine.observe(2, 40.0);
        assert!(engine.step().is_none());
        // First prediction possible only at C_min = 3 points, and
        // convergence needs N = 3 predictions, so earliest stop is epoch 5.
        assert_eq!(engine.predictions().len(), 2);
        assert!(engine.predictions().iter().all(Option::is_none));
    }

    #[test]
    fn earliest_possible_termination_epoch_is_cmin_plus_n_minus_1() {
        // Perfectly flat-converging curve terminates as early as possible.
        let run = paper_replay(25, curve(95.0, 0.2, 60.0));
        assert!(run.converged.is_some(), "must converge");
        let epoch = run.epochs();
        assert!(epoch >= 5, "needs C_min + N − 1 = 5 epochs, got {epoch}");
        assert!(epoch <= 8, "fast curve should stop quickly, got {epoch}");
    }

    #[test]
    fn stats_count_interactions() {
        let mut engine = PredictionEngine::new(EngineConfig::paper_defaults());
        let f = curve(96.0, 0.65, 55.0);
        let epochs = (1..=25)
            .find(|&e| engine.interact(e, f(e)).converged.is_some())
            .unwrap_or(25);
        let stats = engine.stats();
        assert_eq!(stats.interactions, u64::from(epochs));
        assert!(stats.fits >= 3);
        assert!(stats.total_seconds >= 0.0);
    }

    #[test]
    fn fig2_style_trace_converges_midtraining() {
        // Reproduce the Figure 2 situation: prediction of fitness@25
        // converging around epoch ~12 for a moderately fast learner.
        let f = |e: u32| 90.0 - 52.0 * 0.8f64.powi(e as i32);
        let run = paper_replay(25, f);
        let fitness = run.converged.expect("fig2-style curve must converge");
        assert!((6..=18).contains(&run.epochs()), "epoch {}", run.epochs());
        assert!((fitness - f(25)).abs() < 2.0);
    }
}
