//! Workflow configuration: the paper's Tables 1 and 2 as data.

use crate::objectives::ObjectiveSet;
use crate::real::{RealTrainerFactory, TrainingHyperparams};
use crate::surrogate::{SurrogateFactory, SurrogateParams};
use crate::trainer::{TrainerFactory, TrainerSpec};
use a4nn_error::A4nnError;
use a4nn_genome::SearchSpace;
use a4nn_penguin::EngineConfig;
use a4nn_xfel::{generate_split, BeamIntensity};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// NSGA-Net settings (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NasSettings {
    /// Size of the starting population.
    pub population: usize,
    /// Number of nodes per phase in the macro search space.
    pub nodes_per_phase: usize,
    /// Offspring produced per generation.
    pub offspring: usize,
    /// Number of generations (the initial population is generation 0).
    pub generations: usize,
    /// Epoch budget per network.
    pub epochs: u32,
}

impl NasSettings {
    /// The paper's Table 2: population 10, 4 nodes/phase, 10 offspring,
    /// 10 generations, 25 epochs — 100 networks per test.
    pub fn paper_defaults() -> Self {
        NasSettings {
            population: 10,
            nodes_per_phase: 4,
            offspring: 10,
            generations: 10,
            epochs: 25,
        }
    }

    /// Total networks a run evaluates.
    pub fn total_models(&self) -> usize {
        self.population + self.offspring * self.generations.saturating_sub(1)
    }
}

impl Default for NasSettings {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

/// Full workflow configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkflowConfig {
    /// NAS settings (Table 2).
    pub nas: NasSettings,
    /// Prediction-engine settings (Table 1); `None` runs the standalone
    /// NAS baseline in which every network trains the full epoch budget.
    pub engine: Option<EngineConfig>,
    /// Virtual GPUs available to the resource manager.
    pub gpus: usize,
    /// Beam intensity of the dataset the run targets (recorded in every
    /// record trail and used by the surrogate's noise model).
    pub beam: BeamIntensity,
    /// Master seed: search, initialization, and surrogate curves all
    /// derive from it.
    pub seed: u64,
    /// The named objective vector the NSGA engine minimizes
    /// ([`ObjectiveSet`]). Defaults to the paper's pair
    /// `(neg_fitness, flops)`; selected on the CLI via `--objectives`.
    /// Part of the resume config fingerprint: a snapshot taken under a
    /// different set is stale (exit 5).
    #[serde(default)]
    pub objectives: ObjectiveSet,
    /// The trainer every model trains on; the surrogate by default.
    /// Shipped to workers and recorded in snapshots, but not part of the
    /// config fingerprint ([`config_hash`](crate::config_hash)): a resumed
    /// run refuses another trainer on its own.
    #[serde(default)]
    pub trainer: TrainerSpec,
}

impl WorkflowConfig {
    /// Paper-defaults A4NN configuration for one beam intensity.
    pub fn a4nn(beam: BeamIntensity, gpus: usize, seed: u64) -> Self {
        WorkflowConfig {
            nas: NasSettings::paper_defaults(),
            engine: Some(EngineConfig::paper_defaults()),
            gpus,
            beam,
            seed,
            objectives: ObjectiveSet::default(),
            trainer: TrainerSpec::Surrogate,
        }
    }

    /// Paper-defaults standalone-NSGA-Net configuration (no engine,
    /// single GPU — the paper's baseline does not support multi-GPU).
    pub fn standalone(beam: BeamIntensity, seed: u64) -> Self {
        WorkflowConfig {
            nas: NasSettings::paper_defaults(),
            engine: None,
            gpus: 1,
            beam,
            seed,
            objectives: ObjectiveSet::default(),
            trainer: TrainerSpec::Surrogate,
        }
    }

    /// The macro search space implied by these settings.
    pub fn search_space(&self) -> SearchSpace {
        SearchSpace {
            nodes_per_phase: self.nas.nodes_per_phase,
            ..SearchSpace::paper_defaults()
        }
    }

    /// The factory of [`trainer`](Self::trainer)'s trainers for this run:
    /// the surrogate calibrated for `beam`, or real training on images
    /// synthesized from `beam` and `seed`. A real trainer with fewer than
    /// 2 images per class leaves half of its split empty and is refused
    /// as [`A4nnError::Config`].
    pub fn trainer_factory(&self) -> Result<Box<dyn TrainerFactory>, A4nnError> {
        match &self.trainer {
            TrainerSpec::Surrogate => Ok(Box::new(SurrogateFactory::new(
                self,
                SurrogateParams::for_beam(self.beam),
            ))),
            &TrainerSpec::Real { images, .. } if images < 2 => Err(A4nnError::Config(format!(
                "{images} image(s) per class: real training needs at least 2"
            ))),
            TrainerSpec::Real { images, xfel } => {
                let (train, val) = generate_split(xfel, self.beam, *images, self.seed);
                Ok(Box::new(RealTrainerFactory::new(
                    self.search_space(),
                    Arc::new(train),
                    Arc::new(val),
                    TrainingHyperparams::default(),
                )))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table_2() {
        let nas = NasSettings::paper_defaults();
        assert_eq!(nas.population, 10);
        assert_eq!(nas.nodes_per_phase, 4);
        assert_eq!(nas.offspring, 10);
        assert_eq!(nas.generations, 10);
        assert_eq!(nas.epochs, 25);
        assert_eq!(nas.total_models(), 100);
    }

    #[test]
    fn engine_defaults_match_table_1() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Low, 1, 0);
        let engine = cfg.engine.unwrap();
        assert_eq!(engine.c_min, 3);
        assert_eq!(engine.e_pred, 25);
        assert_eq!(engine.n_converge, 3);
        assert!((engine.r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn standalone_has_no_engine_and_one_gpu() {
        let cfg = WorkflowConfig::standalone(BeamIntensity::High, 3);
        assert!(cfg.engine.is_none());
        assert_eq!(cfg.gpus, 1);
    }

    #[test]
    fn legacy_config_json_defaults_to_the_paper_pair() {
        // A config serialized before the objective registry existed has
        // no `objectives` key and must load as (neg_fitness, flops); one
        // serialized before configurations named a trainer has no
        // `trainer` key and must load as the surrogate.
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Low, 2, 1);
        let json = serde_json::to_string(&cfg).unwrap();
        let stripped = json.replace(",\"objectives\":[\"neg_fitness\",\"flops\"]", "");
        assert_ne!(json, stripped, "objectives key must serialize");
        let loaded: WorkflowConfig = serde_json::from_str(&stripped).unwrap();
        assert!(loaded.objectives.is_default());
        let stripped = json.replace(",\"trainer\":\"Surrogate\"", "");
        assert_ne!(json, stripped, "trainer key must serialize");
        let loaded: WorkflowConfig = serde_json::from_str(&stripped).unwrap();
        assert_eq!(loaded.trainer, TrainerSpec::Surrogate);
    }

    #[test]
    fn search_space_uses_nodes_per_phase() {
        let mut cfg = WorkflowConfig::a4nn(BeamIntensity::Low, 1, 0);
        cfg.nas.nodes_per_phase = 5;
        assert_eq!(cfg.search_space().nodes_per_phase, 5);
    }
}
