//! The trainer abstraction the workflow orchestrates.
//!
//! Decoupling the training substrate behind this trait is what lets the
//! same workflow run on the real CPU substrate ([`crate::real`]) and on
//! the calibrated surrogate ([`crate::surrogate`]) — and would let it run
//! on actual GPUs, were any attached.

use crate::objectives::ModelCost;
use a4nn_genome::Genome;
use a4nn_xfel::XfelConfig;
use serde::{Deserialize, Serialize};

/// Measurements produced by training one epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochResult {
    /// Training accuracy (%) after the epoch.
    pub train_acc: f64,
    /// Validation accuracy (%) — the fitness the engine models.
    pub val_acc: f64,
    /// Seconds the epoch took (measured for real trainers, drawn from the
    /// cost model for the surrogate).
    pub duration_s: f64,
}

/// Trains one network, one epoch at a time.
pub trait Trainer: Send {
    /// Train epoch `epoch` (1-based) and return its measurements.
    fn train_epoch(&mut self, epoch: u32) -> EpochResult;

    /// The network's hardware-cost vector for the objective registry;
    /// its `flops` are the NAS's second objective. Read *after*
    /// training: `peak_ws_bytes` is a lifetime high-water mark.
    fn cost(&self) -> ModelCost;
}

/// Creates trainers for genomes. Shared across worker threads, hence
/// `Sync`.
pub trait TrainerFactory: Sync {
    /// Build a trainer for `genome`. `model_id` and `seed` make the
    /// trainer's stochasticity reproducible and unique per model.
    fn make(&self, genome: &Genome, model_id: u64, seed: u64) -> Box<dyn Trainer>;
}

/// Which trainer a run's models train on: part of the run's
/// configuration, so a worker rebuilds the coordinator's trainer and a
/// resumed run the killed one's. Build it with
/// [`WorkflowConfig::trainer_factory`](crate::WorkflowConfig::trainer_factory).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum TrainerSpec {
    /// The calibrated surrogate for the run's beam ([`crate::surrogate`]).
    #[default]
    Surrogate,
    /// Real CPU training ([`crate::real`]) on `images` synthetic
    /// diffraction images per class at the run's beam and seed, split
    /// 80/20 into training and validation.
    Real {
        /// Images per class, at least 2, so both halves of the split
        /// hold some.
        images: usize,
        /// The simulated experiment the images come from.
        xfel: XfelConfig,
    },
}
