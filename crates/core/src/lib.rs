//! # a4nn-core — the A4NN composable workflow
//!
//! This crate assembles the full workflow of the paper (Figure 1):
//!
//! - the **NAS** — NSGA-Net, realized as NSGA-II (`a4nn-nsga`) over the
//!   macro search space (`a4nn-genome`);
//! - the **parametric prediction engine** (`a4nn-penguin`), attached in
//!   situ to every network's training loop (Algorithm 1, [`training`]);
//! - the **workflow orchestrator** ([`workflow`]): one generation loop
//!   for every NAS [`Driver`] (NSGA-Net, aging evolution, random search),
//!   moving fitness histories to the engine and predictions back to the
//!   NAS, while recording every model's trail;
//! - the **evaluation pipeline** ([`pipeline`]): how that loop trains
//!   each generation, generic over a pluggable
//!   [`Transport`] (in-process [`DirectTransport`], or [`BusTransport`],
//!   whose trainers reach an engine service over an `a4nn-bus` topic)
//!   with fault tolerance always on;
//! - the **lineage tracker / data commons** (`a4nn-lineage`);
//! - the **resource manager** (`a4nn-sched`): FIFO dynamic scheduling of
//!   models onto virtual GPUs within each generation;
//! - two **trainers** behind one [`trainer::Trainer`] abstraction: a real
//!   CPU trainer over the `a4nn-nn` substrate and XFEL datasets
//!   ([`real`]), which checkpoints every epoch's model state into a
//!   [`CheckpointStore`] when given one, and a calibrated **surrogate
//!   trainer** ([`surrogate`]) standing in for the paper's GPU fleet (see
//!   DESIGN.md §3 for the substitution argument) so the paper-scale
//!   experiments (100 models × 25 epochs × 3 beams × 2 modes) run in
//!   seconds. The configuration's [`TrainerSpec`] names one, and
//!   [`WorkflowConfig::trainer_factory`] builds it.
//!
//! ## Running a search
//!
//! ```
//! use a4nn_core::prelude::*;
//!
//! let config = WorkflowConfig {
//!     nas: NasSettings { population: 4, offspring: 4, generations: 3, ..NasSettings::paper_defaults() },
//!     engine: Some(EngineConfig::paper_defaults()),
//!     gpus: 2,
//!     beam: BeamIntensity::Medium,
//!     seed: 42,
//!     objectives: ObjectiveSet::default(),
//!     trainer: TrainerSpec::Surrogate,
//! };
//! let factory = config.trainer_factory()?;
//! let output = A4nnWorkflow::new(config).run(factory.as_ref(), RunOptions::default())?;
//! assert_eq!(output.commons.len(), 12); // 4 + 4×2 models evaluated
//! assert!(output.total_epochs() > 0);
//! # Ok::<(), A4nnError>(())
//! ```

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod bridge;
pub mod checkpoint;
pub mod config;
pub mod fault;
pub mod objectives;
pub mod pipeline;
pub mod real;
pub mod resume;
pub mod surrogate;
pub mod trainer;
pub mod training;
pub mod workflow;

pub use a4nn_error::A4nnError;
pub use bridge::netspec_from_arch;
pub use checkpoint::CheckpointStore;
pub use config::{NasSettings, WorkflowConfig};
pub use fault::{FaultStats, FaultTolerance};
pub use objectives::{ModelCost, ObjectiveKind, ObjectiveSet};
pub use pipeline::{
    share_cores, BatchResult, BusTransport, DirectTransport, EvalPipeline, Transport,
    TransportStats,
};
pub use real::{RealTrainerFactory, TrainingHyperparams};
pub use resume::{config_hash, SearchSnapshot, SNAPSHOT_VERSION};
pub use surrogate::{SurrogateFactory, SurrogateParams};
pub use trainer::{EpochResult, Trainer, TrainerFactory, TrainerSpec};
pub use training::{train_model, EngineLink, InlineEngine, TrainingOutcome};
pub use workflow::{A4nnWorkflow, CancelHook, Driver, RunOptions, RunOutput};

/// Convenience re-exports, including the satellite crates' key types.
pub mod prelude {
    pub use crate::{
        netspec_from_arch, A4nnError, A4nnWorkflow, BusTransport, CancelHook, CheckpointStore,
        DirectTransport, Driver, EpochResult, EvalPipeline, FaultStats, FaultTolerance, ModelCost,
        NasSettings, ObjectiveKind, ObjectiveSet, RealTrainerFactory, RunOptions, RunOutput,
        SearchSnapshot, SurrogateFactory, SurrogateParams, Trainer, TrainerFactory, TrainerSpec,
        TrainingHyperparams, TrainingOutcome, Transport, TransportStats, WorkflowConfig,
    };
    pub use a4nn_faults::{ChaosSpec, FaultEvent, FaultPlan};
    pub use a4nn_genome::{Genome, SearchSpace};
    pub use a4nn_lineage::{DataCommons, ModelRecord, Terminated};
    pub use a4nn_metrics::{MetricsRegistry, MetricsSnapshot};
    pub use a4nn_penguin::{CurveFamily, EngineConfig, PredictionEngine};
    pub use a4nn_sched::RetryPolicy;
    pub use a4nn_xfel::{BeamIntensity, XfelConfig};
}
