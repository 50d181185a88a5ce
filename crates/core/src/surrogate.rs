//! The surrogate trainer: a calibrated learning-curve simulator standing
//! in for the paper's GPU fleet.
//!
//! The workflow, prediction engine, scheduler, and lineage tracker consume
//! only `(epoch, fitness, duration)` streams, so a trainer that emits
//! streams with the right *shape* exercises every code path of the
//! evaluation. Per model the surrogate draws one of five curve kinds whose
//! mixture is calibrated per beam intensity against the paper's Figures 7
//! and 8 (epoch savings, convergence percentage, e_t distribution):
//!
//! - **stable learners** — concave saturating curves
//!   `a − b·ρᵉ + N(0, σ)`; the engine converges on them, later for the
//!   noisy low beam than for the clean high beam;
//! - **non-learners** — flat near 50% (Johnston et al. observe most early
//!   NAS candidates fail to learn); the engine kills them very early;
//! - **late bloomers** — convex accelerating curves `start + k·e^p`; the
//!   fitted asymptote keeps rising, so predictions rarely stabilize and
//!   these mostly train the full budget;
//! - **ceiling huggers** — curves saturating against 100% accuracy; the
//!   parametric fit extrapolates slightly above 100, the analyzer vetoes
//!   out-of-bounds predictions (§2.1.2), and training runs to budget —
//!   the mechanism behind the paper's high-beam models that never
//!   terminate early despite clean data;
//! - **unstable models** — a random-walk fitness level (optimizer
//!   instability), converging late or not at all.
//!
//! Epoch durations are FLOPs-proportional around the ~72 s/epoch implied
//! by the paper's 2,500-epoch ≈ 50 h standalone runs.

use crate::config::WorkflowConfig;
use crate::objectives::ModelCost;
use crate::trainer::{EpochResult, Trainer, TrainerFactory};
use a4nn_genome::{
    estimate_macs, estimate_mflops, estimate_params_bytes, estimate_peak_ws_bytes, Genome,
    SearchSpace,
};
use a4nn_xfel::BeamIntensity;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Spatial size assumed for the surrogate's FLOPs objective (the paper's
/// diffraction images are full-resolution, so this is larger than the
/// reduced real-training detector).
pub const SURROGATE_INPUT_HW: (usize, usize) = (128, 128);

/// Mean cost of a random architecture, used as the FLOPs normalization of
/// the epoch-duration model.
const REFERENCE_MFLOPS: f64 = 150.0;

/// Calibration of the surrogate's curve mixture for one beam intensity.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SurrogateParams {
    /// Mean asymptotic validation accuracy of stable learners.
    pub asymptote_mean: f64,
    /// Spread of the asymptote across models.
    pub asymptote_spread: f64,
    /// Extra asymptote for the densest architectures.
    pub capacity_bonus: f64,
    /// Range of the geometric learning rate ρ (larger = slower learning).
    pub rate_range: (f64, f64),
    /// Per-epoch Gaussian fitness noise (data SNR).
    pub noise_sigma: f64,
    /// Probability a model never learns (flat near 50%).
    pub non_learner_prob: f64,
    /// Probability of a convex late-bloomer curve.
    pub late_bloomer_prob: f64,
    /// Probability of a ceiling-hugging curve (saturates against 100%).
    pub ceiling_prob: f64,
    /// Probability of an unstable (random-walk) model.
    pub walk_prob: f64,
    /// Random-walk step size for unstable models.
    pub walk_sigma: f64,
    /// Exponent range of late-bloomer curves (`e^p`).
    pub bloom_power_range: (f64, f64),
    /// Mean seconds per epoch for a reference-cost model.
    pub epoch_seconds_base: f64,
}

impl SurrogateParams {
    /// Calibrated parameters per beam intensity. The resulting epoch
    /// savings, convergence rates, and e_t means were tuned against the
    /// paper's Figures 7 and 8; `a4nn reproduce` reports them (`fig7.*`,
    /// `fig8.*`).
    pub fn for_beam(beam: BeamIntensity) -> Self {
        match beam {
            BeamIntensity::Low => SurrogateParams {
                asymptote_mean: 95.5,
                asymptote_spread: 2.0,
                capacity_bonus: 2.0,
                rate_range: (0.89, 0.97),
                noise_sigma: 2.2,
                non_learner_prob: 0.08,
                late_bloomer_prob: 0.42,
                ceiling_prob: 0.0,
                walk_prob: 0.06,
                walk_sigma: 2.5,
                bloom_power_range: (1.6, 2.2),
                epoch_seconds_base: 72.0,
            },
            BeamIntensity::Medium => SurrogateParams {
                asymptote_mean: 98.2,
                asymptote_spread: 1.2,
                capacity_bonus: 1.5,
                rate_range: (0.72, 0.90),
                noise_sigma: 0.5,
                non_learner_prob: 0.08,
                late_bloomer_prob: 0.28,
                ceiling_prob: 0.04,
                walk_prob: 0.05,
                walk_sigma: 2.5,
                bloom_power_range: (1.6, 2.2),
                epoch_seconds_base: 74.0,
            },
            BeamIntensity::High => SurrogateParams {
                asymptote_mean: 99.0,
                asymptote_spread: 0.7,
                capacity_bonus: 0.9,
                rate_range: (0.50, 0.72),
                noise_sigma: 0.25,
                non_learner_prob: 0.06,
                late_bloomer_prob: 0.12,
                ceiling_prob: 0.32,
                walk_prob: 0.06,
                walk_sigma: 2.5,
                bloom_power_range: (1.5, 2.0),
                epoch_seconds_base: 70.0,
            },
        }
    }
}

/// The shape family of one sampled curve.
#[derive(Debug, Clone, Copy, PartialEq)]
enum CurveKind {
    Stable,
    NonLearner,
    LateBloomer,
    Ceiling,
    Walk,
}

/// One model's sampled curve.
#[derive(Debug, Clone)]
pub struct SurrogateTrainer {
    kind: CurveKind,
    asymptote: f64,
    scale: f64,
    rate: f64,
    bloom_start: f64,
    bloom_coeff: f64,
    bloom_power: f64,
    walk_sigma: f64,
    walk_level: f64,
    sigma: f64,
    cost: ModelCost,
    epoch_seconds: f64,
    rng: rand::rngs::StdRng,
}

impl Trainer for SurrogateTrainer {
    fn train_epoch(&mut self, epoch: u32) -> EpochResult {
        let e = f64::from(epoch);
        let clean = match self.kind {
            CurveKind::Stable | CurveKind::Ceiling => {
                self.asymptote - self.scale * self.rate.powf(e)
            }
            CurveKind::NonLearner => self.asymptote,
            CurveKind::LateBloomer => {
                self.bloom_start + self.bloom_coeff * e.powf(self.bloom_power)
            }
            CurveKind::Walk => {
                self.walk_level += self.gauss() * self.walk_sigma;
                self.asymptote - self.scale * self.rate.powf(e) + self.walk_level
            }
        };
        let val = (clean + self.gauss() * self.sigma).clamp(0.0, 100.0);
        let train = (val + 1.5 + self.gauss().abs() * 0.5).clamp(0.0, 100.0);
        let jitter = 1.0 + 0.05 * self.gauss();
        EpochResult {
            train_acc: train,
            val_acc: val,
            duration_s: (self.epoch_seconds * jitter).max(0.1),
        }
    }

    fn cost(&self) -> ModelCost {
        self.cost
    }
}

impl SurrogateTrainer {
    fn gauss(&mut self) -> f64 {
        let u1: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = self.rng.gen_range(0.0..std::f64::consts::TAU);
        (-2.0 * u1.ln()).sqrt() * u2.cos()
    }
}

/// Factory sampling a [`SurrogateTrainer`] per genome.
#[derive(Debug, Clone)]
pub struct SurrogateFactory {
    params: SurrogateParams,
    space: SearchSpace,
    max_nodes: usize,
}

impl SurrogateFactory {
    /// Build a factory for a workflow configuration.
    pub fn new(config: &WorkflowConfig, params: SurrogateParams) -> Self {
        let space = config.search_space();
        let max_nodes = space.nodes_per_phase * space.phases();
        SurrogateFactory {
            params,
            space,
            max_nodes,
        }
    }

    /// The calibration in use.
    pub fn params(&self) -> &SurrogateParams {
        &self.params
    }
}

impl TrainerFactory for SurrogateFactory {
    fn make(&self, genome: &Genome, model_id: u64, seed: u64) -> Box<dyn Trainer> {
        let p = &self.params;
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(seed ^ model_id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let arch = self.space.decode(genome);
        // Every cost component is genome-derived and closed-form, so
        // direct, bus, and socket evaluation agree exactly.
        let cost = ModelCost {
            flops: estimate_mflops(&arch, SURROGATE_INPUT_HW),
            params_bytes: estimate_params_bytes(&arch),
            macs: estimate_macs(&arch, SURROGATE_INPUT_HW),
            peak_ws_bytes: estimate_peak_ws_bytes(&arch, SURROGATE_INPUT_HW),
        };
        let flops_mflops = cost.flops;
        let active: usize = arch.phases.iter().map(|ph| ph.active_nodes()).sum();
        let capacity = active as f64 / self.max_nodes as f64;

        // Draw the curve kind from the calibrated mixture.
        let roll: f64 = rng.gen_range(0.0..1.0);
        let t_non_learner = p.non_learner_prob;
        let t_bloomer = t_non_learner + p.late_bloomer_prob;
        let t_ceiling = t_bloomer + p.ceiling_prob;
        let t_walk = t_ceiling + p.walk_prob;
        let kind = if roll < t_non_learner {
            CurveKind::NonLearner
        } else if roll < t_bloomer {
            CurveKind::LateBloomer
        } else if roll < t_ceiling {
            CurveKind::Ceiling
        } else if roll < t_walk {
            CurveKind::Walk
        } else {
            CurveKind::Stable
        };

        let gauss = |rng: &mut rand::rngs::StdRng| {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
            (-2.0 * u1.ln()).sqrt() * u2.cos()
        };
        let learner_asymptote =
            (p.asymptote_mean + capacity * p.capacity_bonus + gauss(&mut rng) * p.asymptote_spread)
                .min(99.95);
        let rate = rng.gen_range(p.rate_range.0..p.rate_range.1);
        let start = rng.gen_range(45.0..60.0);
        let epoch_seconds = p.epoch_seconds_base * (0.5 + 0.5 * flops_mflops / REFERENCE_MFLOPS);

        let mut trainer = SurrogateTrainer {
            kind,
            asymptote: learner_asymptote,
            scale: (learner_asymptote - start).max(5.0) / rate,
            rate,
            bloom_start: 0.0,
            bloom_coeff: 0.0,
            bloom_power: 1.0,
            walk_sigma: 0.0,
            walk_level: 0.0,
            sigma: p.noise_sigma,
            cost,
            epoch_seconds,
            rng,
        };
        match kind {
            CurveKind::NonLearner => {
                let offset = trainer.gauss();
                trainer.asymptote = 50.0 + offset;
            }
            CurveKind::LateBloomer => {
                let drop = trainer.rng.gen_range(2.0..10.0);
                let target = (learner_asymptote - drop).clamp(70.0, 97.0);
                trainer.bloom_start = trainer.rng.gen_range(46.0..55.0);
                trainer.bloom_power = trainer
                    .rng
                    .gen_range(p.bloom_power_range.0..p.bloom_power_range.1);
                trainer.bloom_coeff =
                    (target - trainer.bloom_start) / 25f64.powf(trainer.bloom_power);
            }
            CurveKind::Ceiling => {
                // Saturates just above 100: measured accuracy clamps at
                // 100 but the fitted curve extrapolates out of bounds.
                trainer.asymptote = trainer.rng.gen_range(100.8..102.0);
                trainer.scale = (trainer.asymptote - start).max(5.0) / rate;
                trainer.sigma = p.noise_sigma * 0.8;
            }
            CurveKind::Walk => {
                trainer.walk_sigma = p.walk_sigma;
            }
            CurveKind::Stable => {}
        }
        Box::new(trainer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4nn_xfel::BeamIntensity;
    use rand::SeedableRng;

    fn factory(beam: BeamIntensity) -> SurrogateFactory {
        let config = WorkflowConfig::a4nn(beam, 1, 7);
        SurrogateFactory::new(&config, SurrogateParams::for_beam(beam))
    }

    fn sample_genome(seed: u64) -> Genome {
        let space = SearchSpace::paper_defaults();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        space.random_genome(&mut rng)
    }

    #[test]
    fn curves_are_bounded() {
        let f = factory(BeamIntensity::Medium);
        for m in 0..32u64 {
            let mut t = f.make(&sample_genome(m), m, 1);
            for e in 1..=25 {
                let r = t.train_epoch(e);
                assert!((0.0..=100.0).contains(&r.val_acc));
                assert!((0.0..=100.0).contains(&r.train_acc));
                assert!(r.duration_s > 0.0);
            }
        }
    }

    #[test]
    fn stable_curves_mostly_increase() {
        let f = factory(BeamIntensity::High);
        let mut checked = 0;
        for m in 0..64u64 {
            let mut t = f.make(&sample_genome(m), m, 1);
            let vals: Vec<f64> = (1..=25).map(|e| t.train_epoch(e).val_acc).collect();
            // Only assess models that clearly learned and never suffered a
            // large dip (excludes non-learners and random-walk models).
            let dipped = vals.windows(2).any(|w| w[1] < w[0] - 4.0);
            if vals[24] > 90.0 && !dipped {
                checked += 1;
                let increases = vals.windows(2).filter(|w| w[1] >= w[0] - 0.5).count();
                assert!(increases >= 17, "model {m}: {increases}/24 non-decreasing");
            }
        }
        assert!(checked > 20, "sample contained only {checked} learners");
    }

    #[test]
    fn deterministic_per_model_id_and_seed() {
        let f = factory(BeamIntensity::Low);
        let g = sample_genome(3);
        let run = |f: &SurrogateFactory| {
            let mut t = f.make(&g, 5, 11);
            (1..=10)
                .map(|e| t.train_epoch(e).val_acc)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(&f), run(&f));
        let mut t2 = f.make(&g, 6, 11);
        let other: Vec<f64> = (1..=10).map(|e| t2.train_epoch(e).val_acc).collect();
        assert_ne!(run(&f), other);
    }

    #[test]
    fn flops_tracks_genome_density() {
        let f = factory(BeamIntensity::Medium);
        let space = SearchSpace::paper_defaults();
        let sparse = Genome::from_compact_string("0000000-0000000-0000000").unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let dense_space = SearchSpace {
            init_density: 0.98,
            ..space
        };
        let dense = dense_space.random_genome(&mut rng);
        assert!(f.make(&dense, 0, 0).cost().flops > f.make(&sparse, 1, 0).cost().flops);
    }

    #[test]
    fn cost_vector_is_deterministic_and_complete() {
        let f = factory(BeamIntensity::Medium);
        let g = sample_genome(12);
        let a = f.make(&g, 4, 9).cost();
        let b = f.make(&g, 4, 9).cost();
        assert_eq!(a, b, "cost must be a pure function of the genome");
        assert!(a.flops > 0.0);
        assert!(a.params_bytes > 0.0);
        assert!(a.macs > 0.0);
        assert!(a.peak_ws_bytes > 0.0);
        // Training must not perturb the reported cost.
        let mut t = f.make(&g, 4, 9);
        let before = t.cost();
        for e in 1..=5 {
            t.train_epoch(e);
        }
        assert_eq!(t.cost(), before);
    }

    #[test]
    fn beam_noise_ordering() {
        // Late-epoch jitter of clear learners falls with beam intensity.
        let spread = |beam: BeamIntensity| {
            let f = factory(beam);
            let mut acc = 0.0;
            let mut count = 0u32;
            for m in 0..48u64 {
                let mut t = f.make(&sample_genome(m + 100), m, 2);
                let vals: Vec<f64> = (1..=25).map(|e| t.train_epoch(e).val_acc).collect();
                if vals[24] < 85.0 || vals[24] >= 99.9 {
                    continue; // skip non-learners, walkers, clamped ceilings
                }
                for w in vals[15..].windows(2) {
                    acc += (w[1] - w[0]).abs();
                    count += 1;
                }
            }
            acc / f64::from(count)
        };
        let low = spread(BeamIntensity::Low);
        let high = spread(BeamIntensity::High);
        assert!(low > high, "low-beam jitter {low} vs high {high}");
    }

    #[test]
    fn non_learners_exist_at_documented_rate() {
        let f = factory(BeamIntensity::Medium);
        let mut flat = 0;
        let n = 300;
        for m in 0..n {
            let mut t = f.make(&sample_genome(m + 500), m, 3);
            let last = (1..=25).map(|e| t.train_epoch(e).val_acc).last().unwrap();
            if last < 60.0 {
                flat += 1;
            }
        }
        let rate = f64::from(flat) / f64::from(n as u32);
        let expect = f.params().non_learner_prob;
        assert!(
            (rate - expect).abs() < 0.06,
            "non-learner rate {rate} vs configured {expect}"
        );
    }

    #[test]
    fn ceiling_models_reach_full_accuracy() {
        // High beam draws ~30% ceiling huggers; their curves must clamp at
        // exactly 100 late in training.
        let f = factory(BeamIntensity::High);
        let mut saw_ceiling = false;
        for m in 0..64u64 {
            let mut t = f.make(&sample_genome(m + 900), m, 4);
            let vals: Vec<f64> = (1..=25).map(|e| t.train_epoch(e).val_acc).collect();
            if vals[20..].iter().filter(|&&v| v >= 99.999).count() >= 3 {
                saw_ceiling = true;
                break;
            }
        }
        assert!(saw_ceiling, "no ceiling-hugging curve in 64 samples");
    }
}
