//! The workflow orchestrator: NSGA-Net's generational loop with the
//! prediction engine in situ, FIFO multi-GPU scheduling per generation,
//! and full lineage recording.
//!
//! The loop reuses `a4nn-nsga`'s primitives (non-dominated sort, crowding,
//! tournament, environmental selection) but drives evaluation itself so a
//! whole generation can be trained concurrently across the virtual GPUs —
//! exactly the Ray-style resource management of §2.5.

use crate::checkpoint::CheckpointStore;
use crate::config::WorkflowConfig;
use crate::fault::{FaultStats, FaultTolerance};
use crate::pipeline::{
    BatchResult, BusTransport, DirectTransport, EvalPipeline, Transport, TransportStats,
};
use crate::resume::{config_hash, RunControl, SearchSnapshot, SNAPSHOT_VERSION};
use crate::trainer::TrainerFactory;
use a4nn_bus::{EngineFaultHook, Event, Policy, PredictionEngineService, Topic};
use a4nn_error::A4nnError;
use a4nn_genome::{Genome, SearchSpace};
use a4nn_lineage::{DataCommons, ModelRecord};
use a4nn_metrics::MetricsSnapshot;
use a4nn_nsga::{
    crowding_distance, environmental_selection, fast_non_dominated_sort, ranks_from_fronts,
    tournament_select, Individual, Objectives, RankedIndividual,
};
use a4nn_sched::{GenerationSchedule, RetryEntry, RetryLedger, ScheduleResult};
use rand::SeedableRng;
use std::collections::HashSet;

/// How a run couples trainers, prediction engine, and lineage. Every
/// mode produces identical record trails per seed.
#[derive(Clone, Copy, Default)]
pub enum Orchestration<'a> {
    /// In-process calls: trainers drive their own engine instance (the
    /// seed path).
    #[default]
    Direct,
    /// The a4nn-bus event bus: trainers publish per-epoch fitness and
    /// the prediction engine answers as a subscribed service thread
    /// (§2.2's in-situ task coupling).
    Bus,
    /// A transport constructed outside this crate — `a4nn-net`'s
    /// `SocketTransport`, which shards each generation's jobs across
    /// connected worker processes.
    External(&'a dyn Transport),
}

impl std::fmt::Debug for Orchestration<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Orchestration::Direct => f.write_str("Direct"),
            Orchestration::Bus => f.write_str("Bus"),
            Orchestration::External(transport) => write!(f, "External({})", transport.name()),
        }
    }
}

/// Everything [`A4nnWorkflow::run`] can be told beyond the trainer
/// factory. The default is the plain search: no checkpoints, direct
/// orchestration, the default retry budget with no injected faults, no
/// snapshots, a fresh start.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Checkpoint every model's per-epoch state here when the trainer
    /// supports it (§2.2.2's "model can be loaded and re-evaluated from
    /// any point").
    pub checkpoints: Option<&'a CheckpointStore>,
    /// The coupling mode.
    pub orchestration: Orchestration<'a>,
    /// Panicked trainer attempts retry per the policy, injected faults
    /// replay deterministically from the plan, and models exhausting
    /// their budget survive the search as `Terminated::Failed` records.
    /// The default reproduces the fault-free run byte for byte in every
    /// coupling mode.
    pub fault_tolerance: FaultTolerance,
    /// Commit a full search-state snapshot at every generation boundary
    /// into `control.snapshot_dir`, and optionally stop at a boundary via
    /// `control.cancel` (surfaced as [`A4nnError::Interrupted`]).
    pub control: RunControl<'a>,
    /// Continue a prior run from the snapshot a previous process
    /// committed before it was interrupted or killed. A resumed run
    /// reproduces the uninterrupted run's commons byte for byte on every
    /// transport.
    pub resume: Option<SearchSnapshot>,
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
    /// retries, round-trip and queue-wait wall times.
    pub transport_stats: TransportStats,
    /// Failure accounting: retries consumed, models failed/recovered,
    /// and the injected laggard's delivery counters. Quiet (all zero)
    /// on a fault-free run.
    pub fault_stats: FaultStats,
    /// Durable per-model attempt accounting, carried across resume.
    pub retry_ledger: RetryLedger,
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

/// Retries against the duplicate-architecture filter.
const DUPLICATE_RETRIES: usize = 16;

impl A4nnWorkflow {
    /// Build a workflow from its configuration.
    pub fn new(config: WorkflowConfig) -> Self {
        assert!(config.gpus > 0, "need at least one GPU");
        assert!(config.nas.population > 0, "population must be positive");
        assert!(config.nas.generations > 0, "need at least one generation");
        let space = config.search_space();
        A4nnWorkflow { config, space }
    }

    /// The search space in use.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// Run the complete search using trainers from `factory`.
    ///
    /// Trainer crashes are *not* errors — they flow through the retry
    /// budget into `Terminated::Failed` records; `Err` means the run
    /// itself could not continue (closed bus, crashed service, poisoned
    /// pool, lost workers, a stale snapshot) or was interrupted at a
    /// generation boundary by `options.control`.
    pub fn run(
        &self,
        factory: &dyn TrainerFactory,
        options: RunOptions<'_>,
    ) -> Result<RunOutput, A4nnError> {
        let RunOptions {
            checkpoints,
            orchestration,
            fault_tolerance: ft,
            control,
            resume,
        } = options;
        let pipeline = EvalPipeline::new(&self.config, &self.space, factory, checkpoints, &ft);
        let transport: &dyn Transport = match orchestration {
            Orchestration::Direct => &DirectTransport,
            Orchestration::External(transport) => transport,
            Orchestration::Bus => return self.run_on_bus(&pipeline, &control, resume),
        };
        let totals = self.run_loop(&pipeline, transport, &control, resume)?;
        Ok(totals.into_run_output(&pipeline, transport.name()))
    }

    /// The bus-orchestrated run: spawn the engine service on a fresh
    /// topic, drive the loop through a [`BusTransport`], then drain the
    /// service. The commons is the pipeline's records, as on every
    /// transport.
    fn run_on_bus(
        &self,
        pipeline: &EvalPipeline<'_>,
        control: &RunControl<'_>,
        resume: Option<SearchSnapshot>,
    ) -> Result<RunOutput, A4nnError> {
        let ft = pipeline.fault_tolerance();
        let topic: Topic<Event> = Topic::new("a4nn");
        let engine_service = self.config.engine.clone().map(|engine| {
            // Injected engine crashes ride in through the service's
            // fault hook, driven by the same deterministic plan the
            // direct path consults inline.
            let hook: Option<EngineFaultHook> = ft.plan.has_engine_faults().then(|| {
                let plan = ft.plan.clone();
                Box::new(move |model: u64, epoch: u32| plan.engine_dropped(model, epoch))
                    as EngineFaultHook
            });
            PredictionEngineService::spawn_hooked(&topic, engine, hook)
        });
        // The plan's lagging subscriber: a slow, lossy consumer that
        // exercises backpressure isolation without being able to perturb
        // the run's results.
        let laggard = ft.plan.subscriber_lag().map(|(capacity, delay_millis)| {
            let inbox = topic.subscribe(Policy::DropOldest { capacity });
            std::thread::spawn(move || {
                while inbox.recv().is_ok() {
                    std::thread::sleep(std::time::Duration::from_millis(delay_millis));
                }
                inbox.stats()
            })
        });
        let transport = BusTransport::new(&topic);
        let loop_result = self.run_loop(pipeline, &transport, control, resume);
        // Always close and drain the service — even when the loop failed
        // — so no thread is left blocked; then surface the loop's error
        // ahead of the join error.
        topic.close();
        let engine_join = engine_service.map(|service| service.join()).transpose();
        let totals = loop_result?;
        engine_join?;
        let mut out = totals.into_run_output(pipeline, transport.name());
        out.fault_stats.laggard =
            match laggard {
                Some(handle) => Some(handle.join().map_err(|_| {
                    A4nnError::Internal("laggard subscriber thread panicked".into())
                })?),
                None => None,
            };
        Ok(out)
    }

    /// The NSGA-Net generational loop, training each generation batch
    /// through the pipeline on `transport`.
    ///
    /// With a `resume` snapshot, the loop reconstructs every piece of
    /// state the snapshot's boundary committed — RNG stream, archive,
    /// survivors, duplicate filter, cursors, ledgers — and continues
    /// from the next generation; the remaining trajectory is bit-exact
    /// because nothing outside the snapshot crosses a boundary. With a
    /// `control.snapshot_dir`, the state is committed (manifest-last)
    /// after every generation, then the cancel hook may stop the run.
    fn run_loop(
        &self,
        pipeline: &EvalPipeline<'_>,
        transport: &dyn Transport,
        control: &RunControl<'_>,
        resume: Option<SearchSnapshot>,
    ) -> Result<SearchTotals, A4nnError> {
        let cfg = &self.config;
        let cfg_hash = if control.snapshot_dir.is_some() || resume.is_some() {
            Some(config_hash(cfg)?)
        } else {
            None
        };

        let mut rng;
        let mut totals: SearchTotals;
        let mut archive: Vec<Individual<Genome>>;
        let mut seen: HashSet<String>;
        let mut next_id;
        let mut parents: Vec<usize>;
        let mut genomes: Vec<Genome>;
        let start_generation;

        match resume {
            Some(snap) => {
                // `SearchSnapshot::load` verifies version and config
                // hash; re-check here so directly constructed snapshots
                // cannot silently resume a different search.
                if let Some(expected) = cfg_hash {
                    if snap.config_hash != expected {
                        return Err(A4nnError::Checkpoint(format!(
                            "stale snapshot: state was produced by config {:016x} but this \
                             run's configuration hashes to {:016x}",
                            snap.config_hash, expected
                        )));
                    }
                }
                if snap.generations_done == 0 || snap.generations_done > cfg.nas.generations {
                    return Err(A4nnError::Checkpoint(format!(
                        "snapshot claims {} completed generation(s) of a {}-generation run",
                        snap.generations_done, cfg.nas.generations
                    )));
                }
                // A snapshot from a run searched under different
                // objectives is stale — its archive lives in a different
                // objective space. Pre-registry snapshots carry no names
                // (serde default: empty) and are validated by dimension
                // alone.
                if !snap.objective_names.is_empty() {
                    cfg.objectives
                        .check_snapshot_names(&snap.objective_names, "the snapshot")?;
                }
                if let Some(ind) = snap
                    .archive
                    .iter()
                    .find(|ind| ind.objectives.len() != cfg.objectives.len())
                {
                    return Err(A4nnError::Checkpoint(format!(
                        "stale snapshot: archived model {} carries {} objective value(s) but \
                         this run is configured for {} ({})",
                        ind.id,
                        ind.objectives.len(),
                        cfg.objectives.len(),
                        cfg.objectives
                    )));
                }
                pipeline.restore_metrics(snap.metrics);
                rng = rand::rngs::StdRng::from_state(snap.rng_state);
                totals = SearchTotals {
                    records: snap.records,
                    schedules: snap.schedules,
                    engine_seconds: snap.engine_seconds,
                    engine_interactions: snap.engine_interactions,
                    retry_ledger: snap.retries,
                };
                archive = snap.archive;
                seen = snap.seen.into_iter().collect();
                next_id = snap.next_id;
                parents = snap.parents;
                // Offspring are regenerated from the archive inside the
                // loop; generation 0's pre-drawn population is only
                // needed on a fresh start.
                genomes = Vec::new();
                start_generation = snap.generations_done;
            }
            None => {
                rng = rand::rngs::StdRng::seed_from_u64(cfg.seed);
                totals = SearchTotals::with_capacity(cfg);
                archive = Vec::with_capacity(cfg.nas.total_models());
                seen = HashSet::new();
                next_id = 0u64;
                // Generation 0: random initial population.
                genomes = (0..cfg.nas.population)
                    .map(|_| self.space.random_genome(&mut rng))
                    .collect();
                for g in &genomes {
                    seen.insert(g.to_compact_string());
                }
                parents = Vec::new();
                start_generation = 0;
            }
        }

        for generation in start_generation..cfg.nas.generations {
            if generation > 0 {
                // Rank current parents and vary into offspring.
                let parent_objs: Vec<Objectives> = parents
                    .iter()
                    .map(|&i| archive[i].objectives.clone())
                    .collect();
                let fronts = fast_non_dominated_sort(&parent_objs);
                let ranks = ranks_from_fronts(&fronts, parents.len());
                let mut crowding = vec![0.0f64; parents.len()];
                for front in &fronts {
                    for (&i, &d) in front
                        .iter()
                        .zip(crowding_distance(&parent_objs, front).iter())
                    {
                        crowding[i] = d;
                    }
                }
                let ranked: Vec<RankedIndividual> = ranks
                    .iter()
                    .zip(&crowding)
                    .map(|(&rank, &crowding)| RankedIndividual { rank, crowding })
                    .collect();
                genomes = (0..cfg.nas.offspring)
                    .map(|_| {
                        let pa = &archive[parents[tournament_select(&ranked, &mut rng)]].genome;
                        let pb = &archive[parents[tournament_select(&ranked, &mut rng)]].genome;
                        let mut child = self.space.vary(pa, pb, &mut rng);
                        for _ in 0..DUPLICATE_RETRIES {
                            if !seen.contains(&child.to_compact_string()) {
                                break;
                            }
                            child = self.space.vary(pa, pb, &mut rng);
                        }
                        seen.insert(child.to_compact_string());
                        child
                    })
                    .collect();
            }

            // Train the whole generation on the configured transport.
            let base_id = next_id;
            let batch = pipeline.run(transport, &genomes, generation, base_id)?;
            let mut generation_indices = Vec::with_capacity(genomes.len());
            for (k, (genome, (outcome, cost))) in genomes.iter().zip(&batch.outcomes).enumerate() {
                archive.push(Individual {
                    id: base_id + k as u64,
                    generation,
                    genome: genome.clone(),
                    objectives: cfg.objectives.vector(outcome, cost),
                });
                generation_indices.push(archive.len() - 1);
            }
            totals.absorb(generation, base_id, batch);
            next_id += genomes.len() as u64;

            // Elitist environmental selection (μ+λ).
            if generation == 0 {
                parents = generation_indices;
            } else {
                let mut pool = parents.clone();
                pool.extend_from_slice(&generation_indices);
                parents = environmental_selection(&archive, &pool, cfg.nas.population);
            }

            // Generation boundary: commit the full search state
            // (state file first, manifest last — see resume.rs), then
            // honor a cancellation request. A kill at any instant
            // leaves either the previous committed pair or this one.
            if let Some(dir) = &control.snapshot_dir {
                let mut seen_sorted: Vec<String> = seen.iter().cloned().collect();
                seen_sorted.sort_unstable();
                let snap = SearchSnapshot {
                    version: SNAPSHOT_VERSION,
                    config_hash: cfg_hash.unwrap_or_default(),
                    objective_names: cfg.objectives.names(),
                    generations_done: generation + 1,
                    rng_state: rng.state(),
                    next_id,
                    archive: archive.clone(),
                    parents: parents.clone(),
                    seen: seen_sorted,
                    records: totals.records.clone(),
                    schedules: totals.schedules.clone(),
                    engine_seconds: totals.engine_seconds,
                    engine_interactions: totals.engine_interactions,
                    retries: totals.retry_ledger.clone(),
                    metrics: pipeline.metrics_registry().snapshot(),
                };
                snap.save(dir)?;
            }
            if let Some(cancel) = control.cancel {
                if cancel(generation + 1) {
                    return Err(A4nnError::Interrupted(format!(
                        "search stopped at the generation-{} boundary ({} of {} done); \
                         resume from the snapshot directory to continue",
                        generation + 1,
                        generation + 1,
                        cfg.nas.generations
                    )));
                }
            }
        }

        Ok(totals)
    }
}

/// What a search accumulates generation by generation, whichever driver
/// proposes the genomes: record trails, cluster schedules, engine
/// overhead, and the retry ledger.
pub(crate) struct SearchTotals {
    records: Vec<ModelRecord>,
    schedules: Vec<ScheduleResult>,
    engine_seconds: f64,
    engine_interactions: u64,
    retry_ledger: RetryLedger,
}

impl SearchTotals {
    /// Empty totals sized for `cfg`'s evaluation budget.
    pub(crate) fn with_capacity(cfg: &WorkflowConfig) -> Self {
        SearchTotals {
            records: Vec::with_capacity(cfg.nas.total_models()),
            schedules: Vec::with_capacity(cfg.nas.generations),
            engine_seconds: 0.0,
            engine_interactions: 0,
            retry_ledger: RetryLedger::new(),
        }
    }

    /// Fold one evaluated generation (model ids from `base_id`) in.
    pub(crate) fn absorb(&mut self, generation: usize, base_id: u64, batch: BatchResult) {
        for (k, (outcome, _)) in batch.outcomes.iter().enumerate() {
            self.engine_seconds += outcome.engine_seconds;
            self.engine_interactions += outcome.engine_interactions;
            self.retry_ledger.push(RetryEntry {
                model_id: base_id + k as u64,
                generation,
                attempts: outcome.attempts,
                failed: outcome.failed,
            });
        }
        self.records.extend(batch.records);
        self.schedules.push(batch.schedule);
    }

    /// Close the run: wrap the totals with the pipeline's dispatch
    /// counters (under `transport`'s name) and metrics snapshot.
    pub(crate) fn into_run_output(self, pipeline: &EvalPipeline<'_>, transport: &str) -> RunOutput {
        RunOutput {
            fault_stats: FaultStats::from_records(&self.records),
            commons: DataCommons::new(self.records),
            schedule: GenerationSchedule {
                generations: self.schedules,
            },
            config: pipeline.config().clone(),
            engine_seconds: self.engine_seconds,
            engine_interactions: self.engine_interactions,
            transport_stats: pipeline.transport_stats(transport),
            retry_ledger: self.retry_ledger,
            metrics: pipeline.metrics_registry().snapshot(),
        }
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
        }
    }

    fn run(engine: bool, gpus: usize, seed: u64) -> RunOutput {
        let config = small_config(engine, gpus, seed);
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
        A4nnWorkflow::new(config)
            .run(&factory, RunOptions::default())
            .unwrap()
    }

    fn bus() -> RunOptions<'static> {
        RunOptions {
            orchestration: Orchestration::Bus,
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
        let out = run(true, 2, 1);
        assert_eq!(out.commons.len(), 6 + 6 * 3);
        // Model ids sequential.
        for (k, r) in out.commons.records.iter().enumerate() {
            assert_eq!(r.model_id as usize, k);
        }
        assert_eq!(out.schedule.generations.len(), 4);
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
        let a = run(true, 2, 5);
        let b = run(true, 2, 5);
        assert_eq!(a.commons, b.commons);
        assert_eq!(a.total_epochs(), b.total_epochs());
        let c = run(true, 2, 6);
        assert_ne!(a.commons, c.commons);
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
        let out = run(false, 1, 8);
        for r in &out.commons.records {
            assert!(r.engine.is_none());
            assert!(r.predicted_fitness.is_none());
            assert!(!r.terminated_early());
            assert_eq!(r.epochs_trained(), 25);
        }
        assert_eq!(out.engine_interactions, 0);
        assert_eq!(out.engine_seconds, 0.0);
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
