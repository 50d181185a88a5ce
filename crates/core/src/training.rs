//! Algorithm 1: the training loop with the in-situ prediction engine.
//!
//! After every epoch the measured validation fitness `h_e` is appended to
//! the fitness history `H` and handed to the engine, which fits the
//! parametric curve, extrapolates the fitness at `e_pred`, appends to the
//! prediction history `P`, and checks convergence. On convergence the loop
//! breaks and `P[-1]` becomes the network's fitness; otherwise training
//! runs to the epoch budget and the last measured `h_e` is used.
//!
//! [`train_model`] is that loop and its retries in one function, which
//! every transport runs for every model.

use crate::config::WorkflowConfig;
use crate::fault::FaultTolerance;
use crate::objectives::ModelCost;
use crate::trainer::{EpochResult, TrainerFactory};
use a4nn_error::A4nnError;
use a4nn_faults::FaultPlan;
use a4nn_genome::Genome;
use a4nn_lineage::{EpochRecord, Terminated};
use a4nn_penguin::{EngineConfig, PredictionEngine, Verdict};
use serde::{Deserialize, Serialize};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Everything Algorithm 1 produces for one network.
///
/// Serializable so a remote worker can ship the outcome back to the
/// coordinator over the wire (`a4nn-net`) byte-for-byte intact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainingOutcome {
    /// Per-epoch records (fitness history + prediction history merged).
    pub epochs: Vec<EpochRecord>,
    /// The fitness the NAS uses: `P[-1]` if converged, else the last
    /// measured `h_e`.
    pub final_fitness: f64,
    /// The converged prediction, when training stopped early.
    pub predicted_fitness: Option<f64>,
    /// Whether the engine terminated training early.
    pub terminated_early: bool,
    /// Whether the model exhausted its retry budget; `epochs` then holds
    /// the final attempt's partial trail and `final_fitness` is 0.
    pub failed: bool,
    /// Training attempts consumed (1 = no retries were needed).
    pub attempts: u32,
    /// Simulated seconds of every attempt before the final one, in
    /// order — what the retry-aware scheduler charges to the GPUs.
    pub failed_attempt_seconds: Vec<f64>,
    /// Sum of epoch durations of the final attempt (training cost in
    /// seconds).
    pub train_seconds: f64,
    /// Wall seconds spent inside the prediction engine (its overhead,
    /// §4.3.1).
    pub engine_seconds: f64,
    /// Engine interactions performed (one per trained epoch).
    pub engine_interactions: u64,
}

impl TrainingOutcome {
    /// Epochs actually trained.
    pub fn epochs_trained(&self) -> u32 {
        self.epochs.len() as u32
    }

    /// How this training ended, as the lineage record trail reports it.
    pub fn termination(&self) -> Terminated {
        if self.failed {
            Terminated::Failed
        } else if self.terminated_early {
            Terminated::Early
        } else {
            Terminated::Completed
        }
    }
}

/// Algorithm 1's per-epoch hand-off between a trainer and the prediction
/// engine, wherever the engine runs: [`InlineEngine`] in the trainer's own
/// thread (Direct and socket transports) or a link to the engine service
/// behind a bus topic (`pipeline`'s Bus transport), which hosts the same
/// [`InlineEngine`] per model. [`train_model`] sees only this seam, so
/// every transport records the same trails. Every attempt
/// starts at epoch 1, and a link starts the attempt's engine state afresh
/// there.
pub trait EngineLink {
    /// Hand epoch `epoch`'s measurements to the engine and return its
    /// verdict. A link whose engine is gone (disabled or crashed) answers
    /// [`Verdict::default`]. `Err` only when the link's own machinery
    /// broke (a closed bus).
    fn observe(&mut self, epoch: u32, result: &EpochResult) -> Result<Verdict, A4nnError>;

    /// `(engine_seconds, engine_interactions)` of the current attempt —
    /// frozen at the crash point if the engine died under it.
    fn stats(&self) -> (f64, u64);
}

/// The prediction engine running inline in the trainer's thread.
///
/// An engine crash — injected through the fault plan's `EngineDrop`
/// sites, or organic — is caught here: the engine stops answering with
/// its stats frozen at the crash and the rest of the attempt trains to
/// completion. This is the one crash protocol: the Bus transport's
/// engine service hosts one of these per model.
pub struct InlineEngine<'a> {
    config: Option<&'a EngineConfig>,
    plan: &'a FaultPlan,
    model_id: u64,
    engine: Option<PredictionEngine>,
    crashed: bool,
}

impl<'a> InlineEngine<'a> {
    /// An engine built from `config` (`None` is the standalone NAS: no
    /// engine, always the full epoch budget). `plan`'s engine-crash sites
    /// for `model_id` are armed.
    pub fn new(config: Option<&'a EngineConfig>, plan: &'a FaultPlan, model_id: u64) -> Self {
        InlineEngine {
            config,
            plan,
            model_id,
            engine: None,
            crashed: false,
        }
    }
}

impl EngineLink for InlineEngine<'_> {
    fn observe(&mut self, epoch: u32, result: &EpochResult) -> Result<Verdict, A4nnError> {
        if epoch == 1 {
            self.engine = self.config.map(|cfg| PredictionEngine::new(cfg.clone()));
            self.crashed = false;
        }
        let Some(engine) = self.engine.as_mut().filter(|_| !self.crashed) else {
            return Ok(Verdict::default());
        };
        let crash = self.plan.engine_dropped(self.model_id, epoch);
        let interaction = catch_unwind(AssertUnwindSafe(|| {
            assert!(!crash, "injected engine fault");
            engine.interact(epoch, result.val_acc)
        }));
        self.crashed = interaction.is_err();
        Ok(interaction.unwrap_or_default())
    }

    fn stats(&self) -> (f64, u64) {
        self.engine.as_ref().map_or((0.0, 0), |e| {
            let stats = e.stats();
            (stats.total_seconds, stats.interactions)
        })
    }
}

/// Train one model: Algorithm 1 over at most `cfg.nas.epochs` epochs,
/// coupled to the prediction engine through `engine`, with retries — the
/// one training function of every transport.
///
/// Each attempt runs under `catch_unwind` with a fresh trainer
/// (deterministic replay of the same stochastic stream), and `engine`
/// starts afresh at each attempt's epoch 1. `ft.plan`'s trainer
/// injection sites are armed for `(model_id, epoch, attempt)`; an empty
/// plan runs the plain loop. A model that exhausts `ft.retry`'s budget
/// returns a `failed` outcome carrying the final attempt's partial trail
/// instead of poisoning the generation. `factory.make` runs outside the
/// attempt: a factory that panics is broken machinery, not a trainer
/// crash. The returned cost is read after the last attempt, whether it
/// finished or panicked. `Err` only when the engine link broke (a closed
/// bus); that is returned, not retried.
///
/// The `a4nn-net` worker runs exactly this function for each job it
/// receives — remote training is the same deterministic computation,
/// just dispatched over TCP, which is what makes the socket transport
/// byte-identical to the in-process ones.
pub fn train_model(
    cfg: &WorkflowConfig,
    factory: &dyn TrainerFactory,
    genome: &Genome,
    model_id: u64,
    ft: &FaultTolerance,
    engine: &mut dyn EngineLink,
) -> Result<(TrainingOutcome, ModelCost), A4nnError> {
    let plan = &ft.plan;
    let max_attempts = ft.retry.max_attempts.max(1);
    let mut failed_attempt_seconds = Vec::new();
    let mut attempt = 1u32;
    loop {
        let mut trainer = factory.make(genome, model_id, cfg.seed);
        // Outside the unwind boundary, so a panicking attempt leaves its
        // partial trail and simulated seconds behind.
        let mut epochs = Vec::new();
        let mut train_seconds = 0.0;
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut final_fitness = 0.0;
            let mut predicted_fitness = None;
            for e in 1..=cfg.nas.epochs {
                let stall = plan.stall_millis(model_id, e);
                if stall > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(stall));
                }
                if plan.panic_due(model_id, e, attempt) {
                    panic!("injected trainer fault: model {model_id} epoch {e} attempt {attempt}");
                }
                let result = trainer.train_epoch(e);
                train_seconds += result.duration_s;
                final_fitness = result.val_acc;
                let verdict = engine.observe(e, &result)?;
                epochs.push(EpochRecord {
                    epoch: e,
                    train_acc: result.train_acc,
                    val_acc: result.val_acc,
                    duration_s: result.duration_s,
                    prediction: verdict.prediction,
                });
                if let Some(p) = verdict.converged {
                    final_fitness = p;
                    predicted_fitness = Some(p);
                    break;
                }
            }
            Ok::<_, A4nnError>((final_fitness, predicted_fitness))
        }));
        // Read after training (or after the attempt's panic unwound):
        // the workspace peak is a high-water mark over the epochs run.
        let cost = trainer.cost();
        let outcome = match result {
            Ok(result) => {
                let (final_fitness, predicted_fitness) = result?;
                let (engine_seconds, engine_interactions) = engine.stats();
                TrainingOutcome {
                    epochs,
                    final_fitness,
                    predicted_fitness,
                    terminated_early: predicted_fitness.is_some(),
                    // A training that produced a NaN fitness (diverged
                    // loss, bad engine extrapolation) is a failure: the
                    // record keeps the NaN so the selection layer can
                    // exercise its NaN-worst ordering, but the trail
                    // reports `Terminated::Failed`.
                    failed: final_fitness.is_nan(),
                    attempts: attempt,
                    failed_attempt_seconds,
                    train_seconds,
                    engine_seconds,
                    engine_interactions,
                }
            }
            Err(_) if attempt < max_attempts => {
                failed_attempt_seconds.push(train_seconds);
                attempt += 1;
                continue;
            }
            // Retry budget exhausted: surface the partial trail as a
            // Terminated::Failed record with fitness 0, which NSGA-II
            // treats as dominated.
            Err(_) => TrainingOutcome {
                epochs,
                final_fitness: 0.0,
                predicted_fitness: None,
                terminated_early: false,
                failed: true,
                attempts: attempt,
                failed_attempt_seconds,
                train_seconds,
                engine_seconds: 0.0,
                engine_interactions: 0,
            },
        };
        return Ok((outcome, cost));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trainer::Trainer;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// Algorithm 1 with the inline engine and no faults.
    fn train_inline(
        factory: &CurveTrainer,
        engine: Option<&EngineConfig>,
        max_epochs: u32,
    ) -> TrainingOutcome {
        let mut cfg = WorkflowConfig::a4nn(a4nn_xfel::BeamIntensity::Medium, 1, 0);
        cfg.nas.epochs = max_epochs;
        let genome = cfg
            .search_space()
            .random_genome(&mut rand::rngs::StdRng::seed_from_u64(0));
        let ft = FaultTolerance::none();
        let mut link = InlineEngine::new(engine, &ft.plan, 0);
        train_model(&cfg, factory, &genome, 0, &ft, &mut link)
            .unwrap()
            .0
    }

    /// A trainer replaying a fixed learning curve, and the factory of its
    /// copies.
    #[derive(Clone)]
    struct CurveTrainer {
        curve: Arc<dyn Fn(u32) -> f64 + Send + Sync>,
    }

    impl Trainer for CurveTrainer {
        fn train_epoch(&mut self, epoch: u32) -> EpochResult {
            let v = (self.curve)(epoch);
            EpochResult {
                train_acc: (v + 2.0).min(100.0),
                val_acc: v,
                duration_s: 10.0,
            }
        }
        fn cost(&self) -> ModelCost {
            ModelCost::from_flops(100.0)
        }
    }

    impl TrainerFactory for CurveTrainer {
        fn make(&self, _: &Genome, _: u64, _: u64) -> Box<dyn Trainer> {
            Box::new(self.clone())
        }
    }

    fn saturating(a: f64, rho: f64, scale: f64) -> CurveTrainer {
        CurveTrainer {
            curve: Arc::new(move |e| a - scale * rho.powi(e as i32)),
        }
    }

    #[test]
    fn engine_terminates_well_behaved_curve_early() {
        let t = saturating(95.0, 0.65, 50.0);
        let out = train_inline(&t, Some(&EngineConfig::paper_defaults()), 25);
        assert!(out.terminated_early);
        assert!(out.epochs_trained() < 25);
        assert!((out.final_fitness - 95.0).abs() < 1.5);
        assert_eq!(out.predicted_fitness, Some(out.final_fitness));
        assert_eq!(out.engine_interactions, u64::from(out.epochs_trained()));
        assert!((out.train_seconds - 10.0 * f64::from(out.epochs_trained())).abs() < 1e-9);
    }

    #[test]
    fn standalone_trains_full_budget() {
        let t = saturating(95.0, 0.65, 50.0);
        let out = train_inline(&t, None, 25);
        assert!(!out.terminated_early);
        assert_eq!(out.epochs_trained(), 25);
        assert!(out.predicted_fitness.is_none());
        assert_eq!(out.engine_interactions, 0);
        assert_eq!(out.engine_seconds, 0.0);
        // Final fitness is the measured h_25.
        assert!((out.final_fitness - (95.0 - 50.0 * 0.65f64.powi(25))).abs() < 1e-9);
    }

    #[test]
    fn non_converging_curve_exhausts_budget_with_engine() {
        let t = CurveTrainer {
            curve: Arc::new(|e| 0.14 * f64::from(e) * f64::from(e)),
        };
        let out = train_inline(&t, Some(&EngineConfig::paper_defaults()), 25);
        assert!(!out.terminated_early);
        assert_eq!(out.epochs_trained(), 25);
    }

    #[test]
    fn epoch_records_carry_predictions_once_available() {
        let t = saturating(92.0, 0.7, 45.0);
        let out = train_inline(&t, Some(&EngineConfig::paper_defaults()), 25);
        // Before C_min = 3 points: no predictions.
        assert!(out.epochs[0].prediction.is_none());
        assert!(out.epochs[1].prediction.is_none());
        // After: predictions recorded.
        assert!(out.epochs.last().unwrap().prediction.is_some());
    }

    #[test]
    fn zero_epoch_budget_is_degenerate_but_safe() {
        let t = saturating(95.0, 0.65, 50.0);
        let out = train_inline(&t, Some(&EngineConfig::paper_defaults()), 0);
        assert_eq!(out.epochs_trained(), 0);
        assert!(!out.terminated_early);
        assert_eq!(out.final_fitness, 0.0);
    }
}
