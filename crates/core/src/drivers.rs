//! Alternative NAS drivers behind the same workflow plumbing.
//!
//! The paper's composability claim (§2, §6) is that A4NN "can be
//! generalized to other datasets and NAS implementations than NSGA-Net".
//! This module makes that concrete: two more search drivers — pure
//! **random search** and **regularized (aging) evolution** (Real et al.,
//! 2019) — run against the *same* trainer factories, prediction engine,
//! scheduler, and lineage tracker as the NSGA-Net workflow, producing the
//! same [`RunOutput`]. Nothing in the engine or the orchestration layer
//! changes; only the proposal/selection policy does.

use crate::checkpoint::CheckpointStore;
use crate::config::WorkflowConfig;
use crate::fault::FaultTolerance;
use crate::pipeline::{DirectTransport, EvalPipeline, Transport};
use crate::trainer::TrainerFactory;
use crate::workflow::{RunOutput, SearchTotals};
use a4nn_error::A4nnError;
use a4nn_genome::{Genome, SearchSpace};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// The generation loop both drivers share. `propose` draws generation
/// `g`'s genomes, seeing the previous generation's genomes with their
/// final fitness (empty before generation 0); the pipeline trains them
/// in process and the totals fold into a [`RunOutput`].
fn run_generations(
    cfg: &WorkflowConfig,
    factory: &dyn TrainerFactory,
    checkpoints: Option<&CheckpointStore>,
    mut propose: impl FnMut(usize, &SearchSpace, &mut StdRng, &[(Genome, f64)]) -> Vec<Genome>,
) -> Result<RunOutput, A4nnError> {
    let space = cfg.search_space();
    let ft = FaultTolerance::default();
    let pipeline = EvalPipeline::new(cfg, &space, factory, checkpoints, &ft);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut totals = SearchTotals::with_capacity(cfg);
    let mut next_id = 0u64;
    let mut evaluated: Vec<(Genome, f64)> = Vec::new();
    for generation in 0..cfg.nas.generations {
        let genomes = propose(generation, &space, &mut rng, &evaluated);
        let batch = pipeline.run(&DirectTransport, &genomes, generation, next_id)?;
        let fitness: Vec<f64> = batch
            .outcomes
            .iter()
            .map(|(o, _)| o.final_fitness)
            .collect();
        totals.absorb(batch);
        next_id += genomes.len() as u64;
        evaluated = genomes.into_iter().zip(fitness).collect();
    }
    Ok(totals.into_run_output(&pipeline, DirectTransport.name()))
}

/// Genomes a generation evaluates under the standard budget:
/// `population` first, `offspring` after.
fn generation_size(cfg: &WorkflowConfig, generation: usize) -> usize {
    if generation == 0 {
        cfg.nas.population
    } else {
        cfg.nas.offspring
    }
}

/// Pure random search: every generation is a fresh random batch. The
/// weakest sensible baseline — the engine still saves its epochs.
#[derive(Debug, Clone)]
pub struct RandomSearchWorkflow {
    config: WorkflowConfig,
}

impl RandomSearchWorkflow {
    /// Build a random-search driver.
    pub fn new(config: WorkflowConfig) -> Self {
        assert!(config.gpus > 0, "need at least one GPU");
        assert!(config.nas.population > 0, "population must be positive");
        RandomSearchWorkflow { config }
    }

    /// Run the search; evaluates the same `population +
    /// offspring × (generations − 1)` budget as the NSGA-Net driver,
    /// checkpointing per epoch into `checkpoints` when given. `Err` means
    /// the machinery failed, never a trainer.
    pub fn run(
        &self,
        factory: &dyn TrainerFactory,
        checkpoints: Option<&CheckpointStore>,
    ) -> Result<RunOutput, A4nnError> {
        let cfg = &self.config;
        run_generations(cfg, factory, checkpoints, |generation, space, rng, _| {
            (0..generation_size(cfg, generation))
                .map(|_| space.random_genome(rng))
                .collect()
        })
    }
}

/// Regularized (aging) evolution, Real et al. 2019: a FIFO population
/// queue; each step mutates the fittest member of a random sample and
/// retires the oldest member. Single-objective on validation fitness (the
/// original algorithm's form); FLOPs are still recorded in the trails.
#[derive(Debug, Clone)]
pub struct AgingEvolutionWorkflow {
    config: WorkflowConfig,
    /// Tournament sample size `S` (Real et al. use ~25 at population 100;
    /// scaled down for Table-2-sized populations).
    pub sample_size: usize,
}

impl AgingEvolutionWorkflow {
    /// Build an aging-evolution driver with sample size `S`.
    pub fn new(config: WorkflowConfig, sample_size: usize) -> Self {
        assert!(config.gpus > 0, "need at least one GPU");
        assert!(config.nas.population > 0, "population must be positive");
        assert!(sample_size >= 1, "sample size must be at least 1");
        AgingEvolutionWorkflow {
            config,
            sample_size,
        }
    }

    /// Run the search with the standard budget, checkpointing per epoch
    /// into `checkpoints` when given. `Err` means the machinery failed,
    /// never a trainer.
    pub fn run(
        &self,
        factory: &dyn TrainerFactory,
        checkpoints: Option<&CheckpointStore>,
    ) -> Result<RunOutput, A4nnError> {
        let cfg = &self.config;
        // The aging queue: (genome, fitness), oldest at the front.
        let mut population: VecDeque<(Genome, f64)> = VecDeque::with_capacity(cfg.nas.population);
        run_generations(
            cfg,
            factory,
            checkpoints,
            |generation, space, rng, evaluated| {
                for member in evaluated {
                    // Age out the oldest member once the queue is full.
                    if population.len() == cfg.nas.population {
                        population.pop_front();
                    }
                    population.push_back(member.clone());
                }
                (0..generation_size(cfg, generation))
                    .map(|_| {
                        if generation == 0 {
                            return space.random_genome(rng);
                        }
                        // Tournament: best of S uniform samples.
                        let sample = self.sample_size.min(population.len());
                        let Some(parent) = (0..sample)
                            .map(|_| rng.gen_range(0..population.len()))
                            .max_by(|&a, &b| {
                                a4nn_lineage::fitness_cmp(population[a].1, population[b].1)
                            })
                        else {
                            // `sample_size >= 1` is asserted and the
                            // population is non-empty past generation 0.
                            unreachable!("tournament sample is non-empty")
                        };
                        let mut child = population[parent].0.clone();
                        space.mutate(&mut child, rng);
                        child
                    })
                    .collect()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NasSettings;
    use crate::surrogate::{SurrogateFactory, SurrogateParams};
    use a4nn_lineage::Analyzer;
    use a4nn_penguin::EngineConfig;
    use a4nn_xfel::BeamIntensity;

    fn config(engine: bool, seed: u64) -> WorkflowConfig {
        WorkflowConfig {
            nas: NasSettings {
                population: 8,
                offspring: 8,
                generations: 5,
                ..NasSettings::paper_defaults()
            },
            engine: engine.then(EngineConfig::paper_defaults),
            gpus: 2,
            beam: BeamIntensity::Medium,
            seed,
            objectives: crate::objectives::ObjectiveSet::default(),
        }
    }

    fn factory(cfg: &WorkflowConfig) -> SurrogateFactory {
        SurrogateFactory::new(cfg, SurrogateParams::for_beam(cfg.beam))
    }

    #[test]
    fn random_search_evaluates_full_budget() {
        let cfg = config(true, 3);
        let out = RandomSearchWorkflow::new(cfg.clone())
            .run(&factory(&cfg), None)
            .unwrap();
        assert_eq!(out.commons.len(), cfg.nas.total_models());
        assert!(out.total_epochs() > 0);
        assert!(
            out.epochs_saved_pct() > 0.0,
            "engine must still save epochs"
        );
    }

    #[test]
    fn aging_evolution_evaluates_full_budget_and_improves() {
        let cfg = config(true, 4);
        let out = AgingEvolutionWorkflow::new(cfg.clone(), 3)
            .run(&factory(&cfg), None)
            .unwrap();
        assert_eq!(out.commons.len(), cfg.nas.total_models());
        // Mean fitness of late generations should not be worse than the
        // random initial generation (selection pressure works).
        let mean_of = |gen: usize| {
            let rs: Vec<f64> = out
                .commons
                .records
                .iter()
                .filter(|r| r.generation == gen)
                .map(|r| r.final_fitness)
                .collect();
            rs.iter().sum::<f64>() / rs.len() as f64
        };
        assert!(
            mean_of(4) + 8.0 > mean_of(0),
            "late-generation fitness collapsed: {} vs {}",
            mean_of(4),
            mean_of(0)
        );
    }

    #[test]
    fn drivers_are_deterministic_and_distinct() {
        let cfg = config(true, 5);
        let f = factory(&cfg);
        let r1 = RandomSearchWorkflow::new(cfg.clone())
            .run(&f, None)
            .unwrap();
        let r2 = RandomSearchWorkflow::new(cfg.clone())
            .run(&f, None)
            .unwrap();
        assert_eq!(r1.commons, r2.commons);
        let a1 = AgingEvolutionWorkflow::new(cfg, 3).run(&f, None).unwrap();
        assert_ne!(
            r1.commons, a1.commons,
            "different drivers, different searches"
        );
    }

    #[test]
    fn standalone_drivers_train_full_budget() {
        let cfg = config(false, 6);
        let f = factory(&cfg);
        let out = RandomSearchWorkflow::new(cfg.clone())
            .run(&f, None)
            .unwrap();
        assert_eq!(
            out.total_epochs(),
            u64::from(cfg.nas.epochs) * cfg.nas.total_models() as u64
        );
        let out = AgingEvolutionWorkflow::new(cfg, 3).run(&f, None).unwrap();
        assert_eq!(out.total_epochs(), 25 * 40);
    }

    #[test]
    fn nsga_beats_or_matches_random_search_on_pareto_quality() {
        // The multi-objective search should dominate random search on the
        // FLOPs-efficiency axis at comparable accuracy.
        use crate::workflow::{A4nnWorkflow, RunOptions};
        let cfg = config(true, 7);
        let f = factory(&cfg);
        let nsga = A4nnWorkflow::new(cfg.clone())
            .run(&f, RunOptions::default())
            .unwrap();
        let random = RandomSearchWorkflow::new(cfg).run(&f, None).unwrap();
        let best = |out: &RunOutput| {
            Analyzer::new(&out.commons)
                .best_by_fitness()
                .unwrap()
                .final_fitness
        };
        assert!(best(&nsga) >= best(&random) - 3.0);
    }
}
