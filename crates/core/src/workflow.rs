//! The workflow orchestrator: one generational loop for every NAS
//! [`Driver`] — NSGA-Net by default, aging evolution or random search
//! on request — with the prediction engine in situ, FIFO multi-GPU
//! scheduling per generation, and full lineage recording.
//!
//! The driver only proposes each generation's genomes and picks its
//! survivors: NSGA-Net breeds through `a4nn-nsga`'s generation step
//! (`breed`, then `environmental_selection`). Evaluation, transports,
//! fault tolerance, boundary snapshots and resume are the loop's own, so
//! a whole generation trains concurrently across the virtual GPUs —
//! exactly the Ray-style resource management of §2.5 — whichever driver
//! proposed it.
//!
//! The loop keeps its whole state in one [`SearchSnapshot`]: a fresh
//! search starts from an empty one at generation 0, a resumed search
//! from the snapshot it loaded, and both then run the same code, which
//! appends to the snapshot each generation and saves it in place at
//! each boundary.

use crate::config::WorkflowConfig;
use crate::fault::{FaultStats, FaultTolerance};
use crate::pipeline::{DirectTransport, EvalPipeline, Transport, TransportStats};
use crate::resume::SearchSnapshot;
use crate::trainer::TrainerFactory;
use a4nn_error::A4nnError;
use a4nn_genome::{Genome, SearchSpace};
use a4nn_lineage::{append_dir, fitness_cmp, DataCommons, ModelRecord};
use a4nn_metrics::MetricsSnapshot;
use a4nn_nsga::{breed, environmental_selection, Individual, Objectives};
use a4nn_sched::GenerationSchedule;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// The NAS policy that proposes every generation after the first and
/// picks its survivors. Generation 0 is `population` random genomes
/// under every driver; later generations propose `offspring` genomes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Driver {
    /// NSGA-Net: NSGA-II's `breed` and elitist (μ+λ) environmental
    /// selection over the run's objective set.
    #[default]
    Nsga2,
    /// Regularized (aging) evolution, Real et al. 2019: the survivors are
    /// the newest `population` models (the aging queue), and each child
    /// mutates the fittest of `sample_size` uniform picks from them.
    /// Single-objective on validation fitness, the original algorithm's
    /// form.
    AgingEvolution {
        /// Tournament sample size `S`, at least 1 (Real et al. use ~25 at
        /// population 100).
        sample_size: usize,
    },
    /// Pure random search: every generation is a fresh random batch.
    Random,
}

/// A cancellation hook: see [`RunOptions::cancel`].
pub type CancelHook<'a> = dyn Fn(usize) -> bool + Sync + 'a;

/// Everything [`A4nnWorkflow::run`] can be told beyond the trainer
/// factory. The default is the plain NSGA-Net search: the direct
/// transport, the default retry budget with no injected
/// faults, no snapshots, a fresh start.
pub struct RunOptions<'a> {
    /// The NAS policy proposing genomes and picking survivors.
    pub driver: Driver,
    /// How trainers, prediction engine and lineage are coupled:
    /// [`DirectTransport`] (in-process calls, the default),
    /// [`BusTransport`](crate::BusTransport) (an `a4nn-bus` topic per
    /// generation, §2.2's in-situ task coupling) or one built outside this
    /// crate, such as `a4nn-net`'s `SocketTransport`. Every transport
    /// produces identical record trails per seed.
    pub transport: &'a dyn Transport,
    /// Panicked trainer attempts retry per the policy, injected faults
    /// replay deterministically from the plan, and models exhausting
    /// their budget survive the search as `Terminated::Failed` records.
    /// The default reproduces the fault-free run byte for byte in every
    /// coupling mode.
    pub fault_tolerance: FaultTolerance,
    /// Directory every generation boundary commits its records (the
    /// run's data commons) and its search-state snapshot into; `None`
    /// takes no snapshots.
    pub snapshot_dir: Option<PathBuf>,
    /// Consulted with the number of completed generations after each
    /// boundary commits; `true` stops the search there as
    /// [`A4nnError::Interrupted`], resumable from the committed snapshot
    /// — the in-process analogue of SIGKILL.
    pub cancel: Option<&'a CancelHook<'a>>,
    /// Continue a prior run from the snapshot a previous process
    /// committed before it was interrupted or killed. A resumed run
    /// reproduces the uninterrupted run's commons byte for byte on every
    /// transport.
    pub resume: Option<SearchSnapshot>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        RunOptions {
            driver: Driver::default(),
            transport: &DirectTransport,
            fault_tolerance: FaultTolerance::default(),
            snapshot_dir: None,
            cancel: None,
            resume: None,
        }
    }
}

/// Everything a workflow run produces.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// The data commons: one record trail per evaluated model.
    pub commons: DataCommons,
    /// The simulated cluster schedule (per-generation, with barriers).
    pub schedule: GenerationSchedule,
    /// The configuration that produced this run.
    pub config: WorkflowConfig,
    /// Total seconds spent inside the prediction engine (overhead).
    pub engine_seconds: f64,
    /// Total engine interactions across all models.
    pub engine_interactions: u64,
    /// Dispatch counters of the transport that trained the run: jobs,
    /// retries, round-trip and queue-wait wall times, read from
    /// [`metrics`](Self::metrics) — both halves of a resumed run.
    pub transport_stats: TransportStats,
    /// Failure accounting: retries consumed and models failed/recovered.
    /// Quiet (all zero) on a fault-free run.
    pub fault_stats: FaultStats,
    /// The structured metrics registry's final state: counters and
    /// histograms accumulated across the whole run (both halves, when
    /// the run was interrupted and resumed).
    pub metrics: MetricsSnapshot,
}

impl RunOutput {
    /// Total training epochs consumed (Figure 7's bars).
    pub fn total_epochs(&self) -> u64 {
        self.commons
            .records
            .iter()
            .map(|r| u64::from(r.epochs_trained()))
            .sum()
    }

    /// Simulated wall time of the whole run in seconds (Figure 9's bars).
    pub fn wall_time_s(&self) -> f64 {
        self.schedule.total_wall_time()
    }

    /// Percentage of epochs saved versus the full-budget baseline
    /// (`epochs × models`).
    pub fn epochs_saved_pct(&self) -> f64 {
        let budget = (self.config.nas.epochs as u64 * self.config.nas.total_models() as u64) as f64;
        if budget <= 0.0 {
            return 0.0;
        }
        100.0 * (1.0 - self.total_epochs() as f64 / budget)
    }

    /// Mean engine seconds per interaction (§4.3.1's 28 ms figure).
    pub fn engine_seconds_per_interaction(&self) -> f64 {
        if self.engine_interactions == 0 {
            0.0
        } else {
            self.engine_seconds / self.engine_interactions as f64
        }
    }
}

/// The A4NN workflow.
#[derive(Debug, Clone)]
pub struct A4nnWorkflow {
    config: WorkflowConfig,
    space: SearchSpace,
}

impl A4nnWorkflow {
    /// Build a workflow from its configuration.
    pub fn new(config: WorkflowConfig) -> Self {
        let space = config.search_space();
        A4nnWorkflow { config, space }
    }

    /// Run the complete search using trainers from `factory`.
    ///
    /// Trainer crashes are *not* errors — they flow through the retry
    /// budget into `Terminated::Failed` records; `Err` means the run
    /// itself could not continue (closed bus, crashed service, poisoned
    /// pool, lost workers, a stale snapshot), was misconfigured (zero
    /// GPUs, population, generations or epochs, an aging evolution sample
    /// of 0, an engine whose `n_converge` or `e_pred` is 0 or whose `r` is
    /// negative or not finite),
    /// or was interrupted at a generation boundary by `options.cancel`.
    pub fn run(
        &self,
        factory: &dyn TrainerFactory,
        options: RunOptions<'_>,
    ) -> Result<RunOutput, A4nnError> {
        let RunOptions {
            driver,
            transport,
            fault_tolerance: ft,
            snapshot_dir,
            cancel,
            resume,
        } = options;
        let nas = &self.config.nas;
        let engine = self.config.engine.as_ref();
        for (refused, what) in [
            (self.config.gpus == 0, "a search needs at least one GPU"),
            (
                nas.population == 0,
                "a search needs a population of at least 1",
            ),
            (
                nas.generations == 0,
                "a search needs at least one generation",
            ),
            (nas.epochs == 0, "a search needs at least one epoch"),
            (
                driver == (Driver::AgingEvolution { sample_size: 0 }),
                "aging evolution needs a sample size of at least 1",
            ),
            (
                engine.is_some_and(|e| e.n_converge == 0),
                "the engine needs a convergence window N of at least 1",
            ),
            (
                engine.is_some_and(|e| !(e.r.is_finite() && e.r >= 0.0)),
                "the engine's tolerance r must be finite and at least 0",
            ),
            (
                engine.is_some_and(|e| e.e_pred == 0),
                "the engine needs an e_pred of at least 1",
            ),
        ] {
            if refused {
                return Err(A4nnError::Config(what.into()));
            }
        }
        let pipeline = EvalPipeline::new(&self.config, &self.space, factory, &ft);
        let state = self.run_loop(
            driver,
            &pipeline,
            transport,
            snapshot_dir.as_deref(),
            cancel,
            resume,
        )?;
        Ok(RunOutput {
            fault_stats: FaultStats::from_records(&state.records),
            commons: DataCommons::new(state.records),
            schedule: GenerationSchedule {
                generations: state.schedules,
            },
            config: self.config.clone(),
            engine_seconds: state.engine_seconds,
            engine_interactions: state.engine_interactions,
            transport_stats: pipeline.transport_stats(transport.name()),
            metrics: state.metrics,
        })
    }

    /// The generational loop: `driver` proposes each generation, the
    /// pipeline trains it on `transport`, and `driver` picks the
    /// survivors. Its whole state is one [`SearchSnapshot`], returned at
    /// the end.
    ///
    /// A fresh run starts from [`SearchSnapshot::fresh`]; a resumed one
    /// from its `resume` snapshot, once that passes
    /// [`SearchSnapshot::check_resumes`]. Either way the loop restores
    /// the state's metrics and RNG words, rebuilds the archive (and with
    /// it the next model id and the duplicate filter) from its records,
    /// and runs the generations after its cursor; a resumed trajectory is
    /// bit-exact because nothing outside the snapshot crosses a boundary.
    /// With a `snapshot_dir`, each generation's records are appended to
    /// the commons there and the state is saved (manifest-last) after
    /// every generation, then the cancel hook may stop the run.
    fn run_loop(
        &self,
        driver: Driver,
        pipeline: &EvalPipeline<'_>,
        transport: &dyn Transport,
        snapshot_dir: Option<&Path>,
        cancel: Option<&CancelHook<'_>>,
        resume: Option<SearchSnapshot>,
    ) -> Result<SearchSnapshot, A4nnError> {
        let cfg = &self.config;
        let mut state = match resume {
            Some(snap) => {
                snap.check_resumes(cfg, driver)?;
                snap
            }
            None => SearchSnapshot::fresh(cfg, driver)?,
        };
        pipeline.restore_metrics(state.metrics.clone());
        let mut rng = rand::rngs::StdRng::from_state(state.rng_state);
        let mut archive: Vec<Individual<Genome>> = Vec::with_capacity(cfg.nas.total_models());
        archive.extend(state.records.iter().map(individual));
        // Records already in `snapshot_dir`'s commons: none, on a resumed
        // run too, because the directory it snapshots into need not be
        // the one it resumed from.
        state.models = 0;

        for generation in state.generations_done..cfg.nas.generations {
            let records = &state.records;
            let parents = &state.parents;
            let genomes: Vec<Genome> = match driver {
                _ if generation == 0 => (0..cfg.nas.population)
                    .map(|_| self.space.random_genome(&mut rng))
                    .collect(),
                Driver::Nsga2 => breed(
                    &archive,
                    parents,
                    cfg.nas.offspring,
                    &mut rng,
                    Genome::to_compact_string,
                    |a, b, r| self.space.vary(a, b, r),
                ),
                // Tournament: the best of S uniform picks from the queue,
                // the last drawn winning a tie.
                Driver::AgingEvolution { sample_size } => (0..cfg.nas.offspring)
                    .map(|_| {
                        let fittest = (0..sample_size.min(parents.len()))
                            .map(|_| parents[rng.gen_range(0..parents.len())])
                            .max_by(|&a, &b| {
                                fitness_cmp(records[a].final_fitness, records[b].final_fitness)
                            })?;
                        let mut child = records[fittest].genome.clone();
                        self.space.mutate(&mut child, &mut rng);
                        Some(child)
                    })
                    .collect::<Option<_>>()
                    .ok_or_else(|| A4nnError::Internal("empty aging-evolution queue".into()))?,
                Driver::Random => (0..cfg.nas.offspring)
                    .map(|_| self.space.random_genome(&mut rng))
                    .collect(),
            };

            // Train the whole generation on the configured transport.
            let base_id = archive.len();
            let batch = pipeline.run(transport, &genomes, generation, base_id as u64)?;
            archive.extend(batch.records.iter().map(individual));
            for (outcome, _) in &batch.outcomes {
                state.engine_seconds += outcome.engine_seconds;
                state.engine_interactions += outcome.engine_interactions;
            }
            state.records.extend(batch.records);
            state.schedules.push(batch.schedule);

            // NSGA-II keeps the elitist (μ+λ) selection; every other
            // driver keeps the newest `population` models.
            state.parents = match driver {
                Driver::Nsga2 if generation > 0 => {
                    let mut pool = std::mem::take(&mut state.parents);
                    pool.extend(base_id..archive.len());
                    environmental_selection(&archive, &pool, cfg.nas.population)
                }
                _ => (archive.len().saturating_sub(cfg.nas.population)..archive.len()).collect(),
            };
            state.generations_done = generation + 1;
            state.rng_state = rng.state();
            state.metrics = pipeline.metrics_registry().snapshot();

            // Generation boundary: commit the new records to the
            // commons, then the state naming them, then the resume
            // manifest (see resume.rs), then honor a cancellation
            // request. A kill at any instant leaves either the previous
            // committed boundary or this one.
            if let Some(dir) = snapshot_dir {
                append_dir(dir, &state.records, state.models)?;
                state.models = state.records.len();
                state.save(dir)?;
            }
            if let Some(cancel) = cancel {
                if cancel(state.generations_done) {
                    return Err(A4nnError::Interrupted(format!(
                        "search stopped at the generation-{} boundary ({} of {} done); \
                         resume from the snapshot directory to continue",
                        state.generations_done, state.generations_done, cfg.nas.generations
                    )));
                }
            }
        }
        // A resume whose snapshot was already the last boundary runs no
        // generation, but its records still belong in the commons.
        if let Some(dir) = snapshot_dir {
            if state.models < state.records.len() {
                append_dir(dir, &state.records, state.models)?;
            }
        }

        Ok(state)
    }
}

/// The NSGA-II archive entry of one evaluated model — built the same way
/// after every batch and when a resume rebuilds the archive.
fn individual(record: &ModelRecord) -> Individual<Genome> {
    Individual {
        id: record.model_id,
        generation: record.generation,
        genome: record.genome.clone(),
        objectives: Objectives::new(record.objective_vector()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NasSettings;
    use crate::pipeline::BusTransport;
    use crate::surrogate::{SurrogateFactory, SurrogateParams};
    use a4nn_lineage::Analyzer;
    use a4nn_penguin::EngineConfig;
    use a4nn_xfel::BeamIntensity;

    fn small_config(engine: bool, gpus: usize, seed: u64) -> WorkflowConfig {
        WorkflowConfig {
            nas: NasSettings {
                population: 6,
                offspring: 6,
                generations: 4,
                ..NasSettings::paper_defaults()
            },
            engine: engine.then(EngineConfig::paper_defaults),
            gpus,
            beam: BeamIntensity::Medium,
            seed,
            objectives: crate::objectives::ObjectiveSet::default(),
            trainer: crate::trainer::TrainerSpec::Surrogate,
        }
    }

    /// The §6 drivers' search shape: 8 + 8×4 models on 2 GPUs.
    fn eight_by_five(seed: u64) -> WorkflowConfig {
        WorkflowConfig {
            nas: NasSettings {
                population: 8,
                offspring: 8,
                generations: 5,
                ..NasSettings::paper_defaults()
            },
            ..small_config(true, 2, seed)
        }
    }

    const AGING: Driver = Driver::AgingEvolution { sample_size: 3 };
    const DRIVERS: [Driver; 3] = [Driver::Nsga2, AGING, Driver::Random];

    fn run_with(driver: Driver, config: WorkflowConfig) -> RunOutput {
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
        let options = RunOptions {
            driver,
            ..RunOptions::default()
        };
        A4nnWorkflow::new(config).run(&factory, options).unwrap()
    }

    fn run(engine: bool, gpus: usize, seed: u64) -> RunOutput {
        run_with(Driver::Nsga2, small_config(engine, gpus, seed))
    }

    fn bus() -> RunOptions<'static> {
        RunOptions {
            transport: &BusTransport,
            ..RunOptions::default()
        }
    }

    fn run_bus(engine: bool, gpus: usize, seed: u64) -> RunOutput {
        let config = small_config(engine, gpus, seed);
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
        A4nnWorkflow::new(config).run(&factory, bus()).unwrap()
    }

    #[test]
    fn bus_orchestration_reproduces_direct_commons() {
        let direct = run(true, 2, 11);
        let bus = run_bus(true, 2, 11);
        assert_eq!(direct.commons, bus.commons);
        assert_eq!(direct.engine_interactions, bus.engine_interactions);
        assert_eq!(
            direct.schedule.total_wall_time(),
            bus.schedule.total_wall_time()
        );
    }

    #[test]
    fn bus_without_engine_reproduces_standalone() {
        let direct = run(false, 1, 12);
        let bus = run_bus(false, 1, 12);
        assert_eq!(direct.commons, bus.commons);
        assert_eq!(bus.engine_interactions, 0);
    }

    #[test]
    fn evaluates_expected_model_count() {
        for driver in DRIVERS {
            let out = run_with(driver, small_config(true, 2, 1));
            assert_eq!(out.commons.len(), 6 + 6 * 3, "{driver:?}");
            // Model ids sequential.
            for (k, r) in out.commons.records.iter().enumerate() {
                assert_eq!(r.model_id as usize, k);
            }
            assert_eq!(out.schedule.generations.len(), 4);
        }
    }

    #[test]
    fn engine_saves_epochs_versus_standalone() {
        let with_engine = run(true, 1, 2);
        let standalone = run(false, 1, 2);
        assert_eq!(
            standalone.total_epochs(),
            24 * 25,
            "standalone always trains the full budget"
        );
        assert!(
            with_engine.total_epochs() < standalone.total_epochs(),
            "{} vs {}",
            with_engine.total_epochs(),
            standalone.total_epochs()
        );
        assert!(with_engine.epochs_saved_pct() > 0.0);
        assert!(with_engine.wall_time_s() < standalone.wall_time_s());
    }

    #[test]
    fn multi_gpu_reduces_wall_time_not_epochs_much() {
        let one = run(true, 1, 3);
        let four = run(true, 4, 3);
        // Same seed ⇒ same search ⇒ same epochs.
        assert_eq!(one.total_epochs(), four.total_epochs());
        let speedup = one.wall_time_s() / four.wall_time_s();
        assert!(
            speedup > 2.0,
            "expected near-linear speedup, got {speedup:.2}x"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mut searches: Vec<DataCommons> = Vec::new();
        for driver in DRIVERS {
            let a = run_with(driver, small_config(true, 2, 5));
            let b = run_with(driver, small_config(true, 2, 5));
            assert_eq!(a.commons, b.commons, "{driver:?}");
            assert_eq!(a.total_epochs(), b.total_epochs());
            let c = run_with(driver, small_config(true, 2, 6));
            assert_ne!(a.commons, c.commons, "{driver:?}");
            assert!(
                !searches.contains(&a.commons),
                "different drivers, different searches"
            );
            searches.push(a.commons);
        }
    }

    #[test]
    fn records_carry_engine_params_and_gpu() {
        let out = run(true, 2, 7);
        for r in &out.commons.records {
            let e = r.engine.as_ref().expect("engine attached");
            assert_eq!(e.function, "exp-base");
            assert_eq!(e.e_pred, 25);
            assert!(r.gpu.unwrap() < 2);
            assert_eq!(r.beam, "medium");
            assert!(!r.epochs.is_empty());
        }
        assert!(out.engine_interactions >= out.total_epochs());
    }

    #[test]
    fn standalone_records_have_no_engine_or_predictions() {
        for driver in DRIVERS {
            let out = run_with(driver, small_config(false, 1, 8));
            for r in &out.commons.records {
                assert!(r.engine.is_none());
                assert!(r.predicted_fitness.is_none());
                assert!(!r.terminated_early());
                assert_eq!(r.epochs_trained(), 25);
            }
            assert_eq!(
                out.total_epochs(),
                25 * 24,
                "{driver:?} trains its full budget"
            );
            assert_eq!(out.engine_interactions, 0);
            assert_eq!(out.engine_seconds, 0.0);
        }
    }

    #[test]
    fn aging_evolution_without_a_sample_is_a_config_error() {
        let config = small_config(true, 1, 8);
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
        let options = RunOptions {
            driver: Driver::AgingEvolution { sample_size: 0 },
            ..RunOptions::default()
        };
        let err = A4nnWorkflow::new(config)
            .run(&factory, options)
            .unwrap_err();
        assert!(matches!(err, A4nnError::Config(_)), "got {err}");
        assert_eq!(err.exit_code(), 3);
    }

    #[test]
    fn aging_evolution_evaluates_full_budget_and_improves() {
        let cfg = eight_by_five(4);
        let out = run_with(AGING, cfg.clone());
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
    fn nsga_beats_or_matches_random_search_on_pareto_quality() {
        // The multi-objective search should dominate random search on the
        // FLOPs-efficiency axis at comparable accuracy.
        let cfg = eight_by_five(7);
        let nsga = run_with(Driver::Nsga2, cfg.clone());
        let random = run_with(Driver::Random, cfg);
        let best = |out: &RunOutput| {
            Analyzer::new(&out.commons)
                .best_by_fitness()
                .unwrap()
                .final_fitness
        };
        assert!(best(&nsga) >= best(&random) - 3.0);
    }

    #[test]
    fn search_improves_over_random_initialization() {
        let out = run(true, 2, 9);
        let analyzer = Analyzer::new(&out.commons);
        let gen0_best = out
            .commons
            .records
            .iter()
            .filter(|r| r.generation == 0)
            .map(|r| r.final_fitness)
            .fold(f64::NEG_INFINITY, f64::max);
        let overall_best = analyzer.best_by_fitness().unwrap().final_fitness;
        assert!(overall_best >= gen0_best);
    }

    #[test]
    fn hardware_objectives_thread_into_archive_and_records() {
        let mut config = small_config(true, 2, 13);
        config.objectives =
            crate::objectives::ObjectiveSet::parse("neg_fitness,flops,peak_ws_bytes").unwrap();
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
        let out = A4nnWorkflow::new(config)
            .run(&factory, RunOptions::default())
            .unwrap();
        for r in &out.commons.records {
            assert_eq!(
                r.objective_names,
                vec!["neg_fitness", "flops", "peak_ws_bytes"]
            );
            assert_eq!(r.objective_values.len(), 3);
            assert_eq!(r.objective_values[0], -r.final_fitness);
            assert_eq!(r.objective_values[1], r.flops);
            assert!(r.objective_values[2] > 0.0, "surrogate peak ws is positive");
        }
        // The bus transport reproduces the 3-objective run byte for byte.
        let config3 = {
            let mut c = small_config(true, 2, 13);
            c.objectives =
                crate::objectives::ObjectiveSet::parse("neg_fitness,flops,peak_ws_bytes").unwrap();
            c
        };
        let factory3 = SurrogateFactory::new(&config3, SurrogateParams::for_beam(config3.beam));
        let bus = A4nnWorkflow::new(config3).run(&factory3, bus()).unwrap();
        assert_eq!(out.commons, bus.commons);
    }

    #[test]
    fn engine_overhead_is_small_but_nonzero() {
        let out = run(true, 1, 10);
        assert!(out.engine_seconds > 0.0);
        // Way below one simulated epoch per interaction.
        assert!(out.engine_seconds_per_interaction() < 0.1);
    }
}
