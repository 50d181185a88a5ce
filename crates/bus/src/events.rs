//! The event vocabulary of the A4NN bus.
//!
//! One [`Event`] enum flows on a single `Topic<Event>`; subscribers
//! select the variants they care about with
//! [`subscribe_filtered`](crate::Topic::subscribe_filtered). The
//! variants are Algorithm 1's trainer–engine hand-off and nothing else:
//! trainers emit per-epoch fitness, the prediction engine answers each
//! epoch with a verdict, and a dead training attempt is announced so
//! the engine drops its state before any retry.

/// A trainer finished one epoch of one model (Algorithm 1's per-epoch
/// fitness hand-off to the engine).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochCompleted {
    /// Globally unique model id within the run.
    pub model_id: u64,
    /// Generation the model belongs to.
    pub generation: usize,
    /// 1-based epoch number.
    pub epoch: u32,
    /// Training accuracy (%) after this epoch.
    pub train_acc: f64,
    /// Validation accuracy (%) — the fitness the engine consumes.
    pub val_acc: f64,
    /// Seconds the epoch took.
    pub duration_s: f64,
}

/// The prediction engine's response to one [`EpochCompleted`].
#[derive(Debug, Clone, PartialEq)]
pub struct EngineVerdict {
    /// Model the verdict is for.
    pub model_id: u64,
    /// Epoch the verdict follows.
    pub epoch: u32,
    /// Latest extrapolated fitness at `e_pred`, if a fit succeeded.
    pub prediction: Option<f64>,
    /// `Some(predicted_fitness)` when the analyzer converged and
    /// training should terminate early.
    pub converged: Option<f64>,
    /// Running total of engine wall time for this model, in seconds.
    pub engine_seconds: f64,
    /// Running total of engine interactions for this model.
    pub engine_interactions: u64,
    /// The engine crashed for this model and will answer no further
    /// epochs; stats above are frozen at the crash point. The trainer
    /// must degrade to run-to-completion training.
    pub retired: bool,
}

/// One training attempt of one model died (the retry loop caught a
/// trainer panic). Published before any retry starts, so the engine
/// service drops the attempt's state ahead of the retry's epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingFailed {
    /// Model whose attempt failed.
    pub model_id: u64,
    /// Generation the model belongs to.
    pub generation: usize,
    /// Last epoch the attempt finished before dying (0 = died before
    /// completing any).
    pub epoch_reached: u32,
    /// 1-based attempt number that failed.
    pub attempt: u32,
    /// Whether the retry policy grants another attempt.
    pub will_retry: bool,
}

/// Everything that flows on the A4NN bus.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A trainer finished an epoch.
    EpochCompleted(EpochCompleted),
    /// The prediction engine answered an epoch.
    EngineVerdict(EngineVerdict),
    /// One training attempt of a model died.
    TrainingFailed(TrainingFailed),
}
