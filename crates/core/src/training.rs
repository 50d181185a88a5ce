//! Algorithm 1: the training loop with the in-situ prediction engine.
//!
//! After every epoch the measured validation fitness `h_e` is appended to
//! the fitness history `H` and handed to the engine, which fits the
//! parametric curve, extrapolates the fitness at `e_pred`, appends to the
//! prediction history `P`, and checks convergence. On convergence the loop
//! breaks and `P[-1]` becomes the network's fitness; otherwise training
//! runs to the epoch budget and the last measured `h_e` is used.

use crate::checkpoint::CheckpointStore;
use crate::trainer::{EpochResult, Trainer};
use a4nn_error::A4nnError;
use a4nn_faults::FaultPlan;
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

/// Mutable progress of one training attempt, owned by the caller so a
/// caught panic leaves the partial epoch trail and its accumulated
/// simulated seconds behind for the retry/failure bookkeeping.
#[derive(Debug, Default)]
pub struct AttemptProgress {
    /// Epoch records completed before the attempt ended (or died).
    pub epochs: Vec<EpochRecord>,
    /// Simulated seconds accumulated by those epochs.
    pub train_seconds: f64,
}

/// Algorithm 1's per-epoch hand-off between a trainer and the prediction
/// engine, wherever the engine runs: [`InlineEngine`] in the trainer's own
/// thread (Direct and socket transports) or a link to the engine service
/// behind a bus topic (`pipeline`'s Bus transport), which hosts the same
/// [`InlineEngine`] per model. The training and retry loops see only this
/// seam, so every transport records the same trails. Every attempt
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

/// One fallible attempt of Algorithm 1 over `trainer` for at most
/// `max_epochs` epochs, coupled to the prediction engine through
/// `engine`.
///
/// `checkpoints = Some((store, model_id))` writes the trainer's per-epoch
/// state into the store (§2.2.2); trainers that cannot snapshot (the
/// surrogate) simply contribute nothing.
/// `faults = (plan, model_id, attempt)` arms the plan's trainer
/// injection sites for this model/attempt; an empty plan runs the plain
/// loop. An injected trainer fault panics out of this
/// function after `progress` has been updated, so the caller's
/// `catch_unwind` still sees the partial trail. `Err` only when the
/// engine link broke.
pub fn train_with_engine_fallible(
    trainer: &mut dyn Trainer,
    engine: &mut dyn EngineLink,
    max_epochs: u32,
    checkpoints: Option<(&CheckpointStore, u64)>,
    faults: (&FaultPlan, u64, u32),
    progress: &mut AttemptProgress,
) -> Result<TrainingOutcome, A4nnError> {
    let mut final_fitness = 0.0;
    let mut predicted_fitness = None;
    let mut terminated_early = false;

    let (plan, model_id, attempt) = faults;
    for e in 1..=max_epochs {
        let stall = plan.stall_millis(model_id, e);
        if stall > 0 {
            std::thread::sleep(std::time::Duration::from_millis(stall));
        }
        if plan.panic_due(model_id, e, attempt) {
            panic!("injected trainer fault: model {model_id} epoch {e} attempt {attempt}");
        }
        let result = trainer.train_epoch(e);
        if let Some((store, model_id)) = checkpoints {
            if let Some(state) = trainer.snapshot(e) {
                store.put(model_id, e, state);
            }
        }
        progress.train_seconds += result.duration_s;
        final_fitness = result.val_acc;
        let verdict = engine.observe(e, &result)?;
        progress.epochs.push(EpochRecord {
            epoch: e,
            train_acc: result.train_acc,
            val_acc: result.val_acc,
            duration_s: result.duration_s,
            prediction: verdict.prediction,
        });
        if let Some(p) = verdict.converged {
            final_fitness = p;
            predicted_fitness = Some(p);
            terminated_early = true;
            break;
        }
    }
    let (engine_seconds, engine_interactions) = engine.stats();
    Ok(TrainingOutcome {
        epochs: std::mem::take(&mut progress.epochs),
        final_fitness,
        predicted_fitness,
        terminated_early,
        // A training that produced a NaN fitness (diverged loss, bad
        // engine extrapolation) is a failure: the record keeps the NaN
        // so the selection layer can exercise its NaN-worst ordering,
        // but the trail reports `Terminated::Failed`.
        failed: final_fitness.is_nan(),
        attempts: 1,
        failed_attempt_seconds: Vec::new(),
        train_seconds: progress.train_seconds,
        engine_seconds,
        engine_interactions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Algorithm 1 with the inline engine and no faults.
    fn train_inline(
        trainer: &mut dyn Trainer,
        engine: Option<&EngineConfig>,
        max_epochs: u32,
    ) -> TrainingOutcome {
        let plan = FaultPlan::none();
        train_with_engine_fallible(
            trainer,
            &mut InlineEngine::new(engine, &plan, 0),
            max_epochs,
            None,
            (&plan, 0, 1),
            &mut AttemptProgress::default(),
        )
        .unwrap()
    }

    /// A trainer replaying a fixed learning curve.
    struct CurveTrainer {
        curve: Box<dyn Fn(u32) -> f64 + Send>,
        flops: f64,
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
        fn flops(&self) -> f64 {
            self.flops
        }
    }

    fn saturating(a: f64, rho: f64, scale: f64) -> CurveTrainer {
        CurveTrainer {
            curve: Box::new(move |e| a - scale * rho.powi(e as i32)),
            flops: 100.0,
        }
    }

    #[test]
    fn engine_terminates_well_behaved_curve_early() {
        let mut t = saturating(95.0, 0.65, 50.0);
        let out = train_inline(&mut t, Some(&EngineConfig::paper_defaults()), 25);
        assert!(out.terminated_early);
        assert!(out.epochs_trained() < 25);
        assert!((out.final_fitness - 95.0).abs() < 1.5);
        assert_eq!(out.predicted_fitness, Some(out.final_fitness));
        assert_eq!(out.engine_interactions, u64::from(out.epochs_trained()));
        assert!((out.train_seconds - 10.0 * f64::from(out.epochs_trained())).abs() < 1e-9);
    }

    #[test]
    fn standalone_trains_full_budget() {
        let mut t = saturating(95.0, 0.65, 50.0);
        let out = train_inline(&mut t, None, 25);
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
        let mut t = CurveTrainer {
            curve: Box::new(|e| 0.14 * f64::from(e) * f64::from(e)),
            flops: 1.0,
        };
        let out = train_inline(&mut t, Some(&EngineConfig::paper_defaults()), 25);
        assert!(!out.terminated_early);
        assert_eq!(out.epochs_trained(), 25);
    }

    #[test]
    fn epoch_records_carry_predictions_once_available() {
        let mut t = saturating(92.0, 0.7, 45.0);
        let out = train_inline(&mut t, Some(&EngineConfig::paper_defaults()), 25);
        // Before C_min = 3 points: no predictions.
        assert!(out.epochs[0].prediction.is_none());
        assert!(out.epochs[1].prediction.is_none());
        // After: predictions recorded.
        assert!(out.epochs.last().unwrap().prediction.is_some());
    }

    #[test]
    fn zero_epoch_budget_is_degenerate_but_safe() {
        let mut t = saturating(95.0, 0.65, 50.0);
        let out = train_inline(&mut t, Some(&EngineConfig::paper_defaults()), 0);
        assert_eq!(out.epochs_trained(), 0);
        assert!(!out.terminated_early);
        assert_eq!(out.final_fitness, 0.0);
    }
}
