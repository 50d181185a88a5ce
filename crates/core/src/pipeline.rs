//! The one generation-evaluation loop, generic over a pluggable
//! [`Transport`].
//!
//! Every NAS driver — NSGA-Net, random search, aging evolution — trains
//! its generations through the same [`EvalPipeline`]: set the intra-op
//! thread budget, run every genome through the transport (with the
//! fault-tolerance layer's retries and deterministic injection always
//! on — a zero-fault plan with no retries *is* the plain path), replay
//! the simulated durations on the discrete-event scheduler, and emit
//! record trails.
//!
//! Every transport trains a model the same way: one job per genome,
//! running the one retry loop [`train_resilient_direct`] around the one
//! Algorithm-1 loop (`training::train_with_engine_fallible`). What a
//! transport chooses is only where the job runs and how its trainer
//! reaches the prediction engine — the [`EngineLink`]:
//!
//! - [`DirectTransport`] — jobs on the sched thread pool, each driving
//!   its own engine instance inline ([`InlineEngine`]);
//! - [`BusTransport`] — Direct plus a topic: the same jobs, whose link
//!   publishes per-epoch fitness on the `a4nn-bus` event bus (§2.2's
//!   in-situ task coupling) and blocks on the engine service's verdicts;
//! - `a4nn-net`'s socket transport — the same function with an inline
//!   engine on a worker process.
//!
//! A transport only trains: it hands back one outcome per genome. The
//! pipeline builds every generation's record trails from those outcomes
//! in one place ([`EvalPipeline::run`]), so the run's commons is the
//! same code's output whichever transport trained it.
//!
//! Determinism contract: every transport consults the same
//! [`FaultTolerance`] plan at the same `(model, epoch, attempt)` sites
//! and reproduces identical record trails per seed.
//!
//! Failure taxonomy: trainer panics (injected or organic) are *data* —
//! they flow through retries into `Terminated::Failed` records. An
//! [`A4nnError`] is reserved for the machinery itself breaking: a bus
//! that closed mid-run, a trainer factory that panicked, a poisoned pool,
//! a crashed service thread.

use crate::checkpoint::CheckpointStore;
use crate::config::WorkflowConfig;
use crate::fault::FaultTolerance;
use crate::objectives::ModelCost;
use crate::trainer::{EpochResult, TrainerFactory};
use crate::training::{
    train_with_engine_fallible, AttemptProgress, EngineLink, InlineEngine, TrainingOutcome,
};
use a4nn_bus::{EpochCompleted, Event, Policy, Subscription, Topic, TrainingFailed};
use a4nn_error::A4nnError;
use a4nn_genome::{Genome, SearchSpace};
use a4nn_lineage::{EngineParamsRecord, ModelRecord};
use a4nn_metrics::{MetricsRegistry, MetricsSnapshot};
use a4nn_penguin::{ParametricCurve, Verdict};
use a4nn_sched::{
    schedule_fifo, schedule_fifo_retry, GpuPool, RetryPolicy, RetryTask, ScheduleResult, Task,
    TaskOrdering,
};
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Per-transport dispatch counters for one run — the first slice of the
/// metrics layer. All figures are measured wall time (never simulated
/// seconds), so they report the harness's own cost without perturbing
/// the reproducible results.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TransportStats {
    /// Which transport dispatched the jobs (`direct`, `bus`, `socket`).
    pub transport: String,
    /// Trainer jobs that completed through the transport.
    pub jobs_dispatched: u64,
    /// Extra attempts beyond the first, summed over all jobs — trainer
    /// retries on the in-process transports, dispatch re-queues after a
    /// dead worker on the socket transport.
    pub retries: u64,
    /// Mean wall seconds from dispatching a job to holding its outcome.
    pub round_trip_mean_s: f64,
    /// Worst-case round trip in wall seconds.
    pub round_trip_max_s: f64,
    /// Mean wall seconds a job waited for a free execution slot before
    /// dispatch (zero for in-process transports, which hand jobs
    /// straight to the thread pool).
    pub queue_wait_mean_s: f64,
    /// Worst-case queue wait in wall seconds.
    pub queue_wait_max_s: f64,
}

impl TransportStats {
    /// The CSV header matching [`TransportStats::to_csv`].
    pub const CSV_HEADER: &'static str = "transport,jobs_dispatched,retries,\
         round_trip_mean_s,round_trip_max_s,queue_wait_mean_s,queue_wait_max_s";

    /// One header + one data row, for export beside the commons CSVs.
    pub fn to_csv(&self) -> String {
        format!(
            "{}\n{},{},{},{:.6},{:.6},{:.6},{:.6}\n",
            Self::CSV_HEADER,
            self.transport,
            self.jobs_dispatched,
            self.retries,
            self.round_trip_mean_s,
            self.round_trip_max_s,
            self.queue_wait_mean_s,
            self.queue_wait_max_s,
        )
    }

    /// The one-line summary the CLI prints in its stats block.
    pub fn summary_line(&self) -> String {
        format!(
            "transport {}: {} job(s) dispatched, {} retr{}, round-trip mean {:.3} ms / max {:.3} ms, queue wait mean {:.3} ms / max {:.3} ms",
            self.transport,
            self.jobs_dispatched,
            self.retries,
            if self.retries == 1 { "y" } else { "ies" },
            self.round_trip_mean_s * 1e3,
            self.round_trip_max_s * 1e3,
            self.queue_wait_mean_s * 1e3,
            self.queue_wait_max_s * 1e3,
        )
    }
}

/// The accumulating counters behind [`TransportStats`], shared by every
/// transport through [`EvalPipeline::record_job`].
#[derive(Debug, Default)]
struct MetricsSink {
    jobs: u64,
    retries: u64,
    round_trip_total_s: f64,
    round_trip_max_s: f64,
    queue_wait_total_s: f64,
    queue_wait_max_s: f64,
}

/// Result of evaluating one generation batch.
#[derive(Debug)]
pub struct BatchResult {
    /// Per-genome training outcomes and measured cost vectors, in
    /// submission order.
    pub outcomes: Vec<(TrainingOutcome, ModelCost)>,
    /// The generation's cluster schedule.
    pub schedule: ScheduleResult,
    /// Completed record trails, in submission order.
    pub records: Vec<ModelRecord>,
}

/// The engine-parameters stamp attached to every record trail of a run
/// (Table 1), or `None` for standalone-NAS runs.
fn engine_params_record(cfg: &WorkflowConfig) -> Option<EngineParamsRecord> {
    cfg.engine.as_ref().map(|e| EngineParamsRecord {
        function: e.family.name().to_string(),
        c_min: e.c_min,
        e_pred: e.e_pred,
        n: e.n_converge,
        r: e.r,
    })
}

/// How one generation's trainers are dispatched and coupled to the
/// prediction engine. Implementations must keep the search trajectory
/// bit-identical across transports: same outcomes per `(seed, genome)`,
/// same simulated durations, same fault-plan consultation sites.
pub trait Transport {
    /// Train every genome of the generation, returning
    /// `(outcome, cost)` per genome in submission order. The cost is the
    /// trainer's post-training [`ModelCost`] — the objective registry
    /// derives every non-fitness coordinate from it.
    ///
    /// Trainer panics are absorbed into the outcomes (retries, then a
    /// `failed` outcome); `Err` means the transport's own machinery
    /// broke and the run cannot continue.
    fn run_generation(
        &self,
        pipeline: &EvalPipeline<'_>,
        genomes: &[Genome],
        generation: usize,
        base_id: u64,
    ) -> Result<Vec<(TrainingOutcome, ModelCost)>, A4nnError>;

    /// Short stable name for the metrics layer (`direct`, `bus`,
    /// `socket`).
    fn name(&self) -> &'static str;
}

/// One generation-evaluation pipeline: the shared train → schedule →
/// record sequence every driver and every transport runs through.
pub struct EvalPipeline<'a> {
    cfg: &'a WorkflowConfig,
    space: &'a SearchSpace,
    factory: &'a dyn TrainerFactory,
    checkpoints: Option<&'a CheckpointStore>,
    ft: &'a FaultTolerance,
    metrics: Mutex<MetricsSink>,
    registry: MetricsRegistry,
}

impl<'a> EvalPipeline<'a> {
    /// Assemble a pipeline over the run's shared state. A default
    /// [`FaultTolerance`] (no injected faults, default retry budget)
    /// reproduces a run without the fault layer byte for byte.
    pub fn new(
        cfg: &'a WorkflowConfig,
        space: &'a SearchSpace,
        factory: &'a dyn TrainerFactory,
        checkpoints: Option<&'a CheckpointStore>,
        ft: &'a FaultTolerance,
    ) -> Self {
        EvalPipeline {
            cfg,
            space,
            factory,
            checkpoints,
            ft,
            metrics: Mutex::new(MetricsSink::default()),
            registry: MetricsRegistry::new(),
        }
    }

    /// The structured metrics registry every transport feeds. The
    /// workflow snapshots it at generation boundaries and the CLI
    /// exports it as `metrics.csv`/`metrics.json`.
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Prime the registry from an interrupted run's snapshot so
    /// counters and histograms continue instead of restarting at zero.
    pub fn restore_metrics(&self, snapshot: MetricsSnapshot) {
        self.registry.restore(snapshot);
    }

    /// The run configuration.
    pub fn config(&self) -> &WorkflowConfig {
        self.cfg
    }

    /// The search space genomes decode under.
    pub fn space(&self) -> &SearchSpace {
        self.space
    }

    /// The trainer factory.
    pub fn factory(&self) -> &dyn TrainerFactory {
        self.factory
    }

    /// The per-epoch checkpoint sink, when one is attached.
    pub fn checkpoints(&self) -> Option<&CheckpointStore> {
        self.checkpoints
    }

    /// The retry policy and fault plan in force.
    pub fn fault_tolerance(&self) -> &FaultTolerance {
        self.ft
    }

    /// Record one completed job in the metrics sink: its dispatch→outcome
    /// wall time, the wall time it queued for a free slot, and the extra
    /// attempts it consumed beyond the first. Every transport calls this
    /// once per job it completes.
    pub fn record_job(&self, round_trip_s: f64, queue_wait_s: f64, retries: u64) {
        {
            let mut m = self.metrics.lock();
            m.jobs += 1;
            m.retries += retries;
            m.round_trip_total_s += round_trip_s;
            m.round_trip_max_s = m.round_trip_max_s.max(round_trip_s);
            m.queue_wait_total_s += queue_wait_s;
            m.queue_wait_max_s = m.queue_wait_max_s.max(queue_wait_s);
        }
        self.registry.add(a4nn_metrics::names::JOBS_DISPATCHED, 1);
        self.registry.add(a4nn_metrics::names::RETRIES, retries);
        self.registry
            .observe_duration(a4nn_metrics::names::ROUND_TRIP_US, round_trip_s);
        self.registry
            .observe_duration(a4nn_metrics::names::QUEUE_WAIT_US, queue_wait_s);
    }

    /// Snapshot the accumulated dispatch counters under `transport`'s
    /// name.
    pub fn transport_stats(&self, transport: &str) -> TransportStats {
        let m = self.metrics.lock();
        let mean = |total: f64| {
            if m.jobs == 0 {
                0.0
            } else {
                total / m.jobs as f64
            }
        };
        TransportStats {
            transport: transport.to_string(),
            jobs_dispatched: m.jobs,
            retries: m.retries,
            round_trip_mean_s: mean(m.round_trip_total_s),
            round_trip_max_s: m.round_trip_max_s,
            queue_wait_mean_s: mean(m.queue_wait_total_s),
            queue_wait_max_s: m.queue_wait_max_s,
        }
    }

    /// Evaluate one generation through `transport`: train every genome
    /// (each model's stochasticity keyed to its id, so the parallelism
    /// is deterministic), FIFO-schedule the simulated durations onto
    /// `cfg.gpus` virtual GPUs, and record.
    pub fn run(
        &self,
        transport: &dyn Transport,
        genomes: &[Genome],
        generation: usize,
        base_id: u64,
    ) -> Result<BatchResult, A4nnError> {
        // Divide the cores between the generation's concurrent trainers
        // and each trainer's GEMM kernels: `gpus` models train at once,
        // so each gets `cores / gpus` intra-op threads (results are
        // bitwise independent of this budget; it only affects wall time).
        a4nn_nn::gemm::set_thread_budget(a4nn_sched::intra_op_threads(self.cfg.gpus));
        let outcomes = transport.run_generation(self, genomes, generation, base_id)?;

        // Engine overhead is measured wall time and reported separately
        // (§4.3.1 finds it negligible); folding it into simulated
        // durations would make runs non-reproducible. Failed attempts,
        // on the other hand, are simulated time and are charged to the
        // GPUs.
        let schedule = generation_schedule(self.cfg.gpus, base_id, &outcomes, &self.ft.retry);

        // Outcome-derived metrics are counted here, after the transport
        // returns, so all three transports feed them identically.
        self.registry.add(a4nn_metrics::names::GENERATIONS, 1);
        for (outcome, _) in &outcomes {
            self.registry.add(
                a4nn_metrics::names::EPOCHS_TRAINED,
                outcome.epochs.len() as u64,
            );
            if outcome.terminated_early {
                self.registry
                    .add(a4nn_metrics::names::EARLY_TERMINATIONS, 1);
            }
            if outcome.failed {
                self.registry.add(a4nn_metrics::names::MODELS_FAILED, 1);
            }
        }

        let records = self.assemble_records(genomes, generation, base_id, &outcomes, &schedule);
        Ok(BatchResult {
            outcomes,
            schedule,
            records,
        })
    }

    /// Fold outcomes and placements into one record trail per genome —
    /// the run's commons on every transport, and what boundary snapshots
    /// persist as each generation completes.
    fn assemble_records(
        &self,
        genomes: &[Genome],
        generation: usize,
        base_id: u64,
        outcomes: &[(TrainingOutcome, ModelCost)],
        schedule: &ScheduleResult,
    ) -> Vec<ModelRecord> {
        let engine_record = engine_params_record(self.cfg);
        genomes
            .iter()
            .zip(outcomes)
            .enumerate()
            .map(|(k, (genome, (outcome, cost)))| {
                let model_id = base_id + k as u64;
                // With retries the schedule holds one slot per attempt;
                // the model's placement is its final attempt's GPU.
                let gpu = schedule
                    .assignments
                    .iter()
                    .rev()
                    .find(|a| a.task_id == model_id)
                    .map(|a| a.gpu);
                let arch = self.space.decode(genome);
                ModelRecord {
                    model_id,
                    generation,
                    gpu,
                    genome: genome.clone(),
                    arch_summary: arch.summary(),
                    flops: cost.flops,
                    objective_names: self.cfg.objectives.names(),
                    objective_values: self.cfg.objectives.values(outcome, cost),
                    engine: engine_record.clone(),
                    epochs: outcome.epochs.clone(),
                    final_fitness: outcome.final_fitness,
                    predicted_fitness: outcome.predicted_fitness,
                    termination: outcome.termination(),
                    attempts: outcome.attempts,
                    beam: self.cfg.beam.label().to_string(),
                    wall_time_s: outcome.train_seconds,
                }
            })
            .collect()
    }
}

/// In-process coupling: trainers run as jobs on the sched thread pool
/// ([`GpuPool`]), each driving its own engine instance inline.
pub struct DirectTransport;

impl Transport for DirectTransport {
    fn run_generation(
        &self,
        pipeline: &EvalPipeline<'_>,
        genomes: &[Genome],
        _generation: usize,
        base_id: u64,
    ) -> Result<Vec<(TrainingOutcome, ModelCost)>, A4nnError> {
        let (engine, plan) = (pipeline.cfg.engine.as_ref(), &pipeline.ft.plan);
        train_generation(pipeline, genomes, base_id, |model_id| {
            InlineEngine::new(engine, Some((plan, model_id)))
        })
    }

    fn name(&self) -> &'static str {
        "direct"
    }
}

/// Bus coupling: Direct plus a topic. Trainers run exactly as in
/// [`DirectTransport`] — one job per genome on the sched thread pool,
/// each through [`train_resilient_direct`] — but their engine is a bus
/// link: per-epoch fitness goes out on the topic and the engine
/// service's verdicts come back on it, the same synchronous hand-off as
/// Algorithm 1, routed through communicators. When `cfg.engine` is set,
/// the engine service must already be subscribed.
pub struct BusTransport<'t> {
    topic: &'t Topic<Event>,
}

impl<'t> BusTransport<'t> {
    /// Couple the pipeline to `topic`.
    pub fn new(topic: &'t Topic<Event>) -> Self {
        BusTransport { topic }
    }
}

impl Transport for BusTransport<'_> {
    fn run_generation(
        &self,
        pipeline: &EvalPipeline<'_>,
        genomes: &[Genome],
        generation: usize,
        base_id: u64,
    ) -> Result<Vec<(TrainingOutcome, ModelCost)>, A4nnError> {
        train_generation(pipeline, genomes, base_id, |model_id| BusLink {
            topic: self.topic,
            model_id,
            generation,
            engine_enabled: pipeline.cfg.engine.is_some(),
            verdicts: None,
            stats: (0.0, 0),
        })
    }

    fn name(&self) -> &'static str {
        "bus"
    }
}

/// The generation's discrete-event schedule, retry-aware.
///
/// When no model needed a retry this is exactly the seed's
/// `schedule_fifo` (bitwise happy-path identity); otherwise every
/// attempt — failed ones included — is charged to the virtual GPUs via
/// `schedule_fifo_retry`, with the policy's backoff between attempts.
fn generation_schedule(
    gpus: usize,
    base_id: u64,
    outcomes: &[(TrainingOutcome, ModelCost)],
    policy: &RetryPolicy,
) -> ScheduleResult {
    if outcomes.iter().all(|(o, _)| o.attempts == 1) {
        let tasks: Vec<Task> = outcomes
            .iter()
            .enumerate()
            .map(|(k, (outcome, _))| Task {
                id: base_id + k as u64,
                duration: outcome.train_seconds,
            })
            .collect();
        schedule_fifo(gpus, &tasks, TaskOrdering::Fifo)
    } else {
        let tasks: Vec<RetryTask> = outcomes
            .iter()
            .enumerate()
            .map(|(k, (outcome, _))| RetryTask {
                id: base_id + k as u64,
                attempt_durations: outcome
                    .failed_attempt_seconds
                    .iter()
                    .copied()
                    .chain([outcome.train_seconds])
                    .collect(),
            })
            .collect();
        schedule_fifo_retry(gpus, &tasks, policy)
    }
}

/// Train every genome of a generation as one job on the pool, each
/// through [`train_resilient_direct`] with the engine link `link_for`
/// builds for its model id — the whole of a generation on the
/// in-process transports, which differ only in that link.
fn train_generation<L: EngineLink>(
    pipeline: &EvalPipeline<'_>,
    genomes: &[Genome],
    base_id: u64,
    link_for: impl Fn(u64) -> L + Sync,
) -> Result<Vec<(TrainingOutcome, ModelCost)>, A4nnError> {
    let link_for = &link_for;
    let jobs: Vec<_> = genomes
        .iter()
        .enumerate()
        .map(|(k, genome)| {
            let model_id = base_id + k as u64;
            move |_worker: usize| {
                train_resilient_direct(
                    pipeline.cfg,
                    pipeline.factory,
                    genome,
                    model_id,
                    pipeline.checkpoints,
                    pipeline.ft,
                    &mut link_for(model_id),
                )
            }
        })
        .collect();
    let (outputs, reports) = GpuPool::new(pipeline.cfg.gpus).run_batch(jobs)?;
    outputs
        .into_iter()
        .zip(&reports)
        .enumerate()
        .map(|(k, (output, report))| {
            // Trainer panics are absorbed inside the job; one that
            // reaches the pool came from the machinery around them.
            let (outcome, cost) = output.ok_or_else(|| {
                A4nnError::Internal(format!(
                    "training job for model {} panicked outside its attempts",
                    base_id + k as u64
                ))
            })??;
            pipeline.record_job(
                report.seconds,
                0.0,
                u64::from(outcome.attempts.saturating_sub(1)),
            );
            Ok((outcome, cost))
        })
        .collect()
}

/// Train one model with retries — the one retry loop of every
/// transport. Each attempt runs under `catch_unwind` with a fresh
/// trainer (deterministic replay of the same stochastic stream) and
/// tells `engine` when it dies, injected fault or organic panic alike;
/// a model that exhausts its budget returns a `failed` outcome carrying
/// the final attempt's partial trail instead of poisoning the
/// generation. `factory.make` runs outside the attempt: a factory that
/// panics is broken machinery, not a trainer crash. `Err` only when the
/// engine link broke (a closed bus).
///
/// Public because the `a4nn-net` worker runs exactly this function for
/// each job it receives — remote training is the same deterministic
/// computation, just dispatched over TCP, which is what makes the
/// socket transport byte-identical to the in-process ones.
pub fn train_resilient_direct(
    cfg: &WorkflowConfig,
    factory: &dyn TrainerFactory,
    genome: &Genome,
    model_id: u64,
    checkpoints: Option<&CheckpointStore>,
    ft: &FaultTolerance,
    engine: &mut dyn EngineLink,
) -> Result<(TrainingOutcome, ModelCost), A4nnError> {
    let max_attempts = ft.retry.max_attempts.max(1);
    let mut failed_attempt_seconds = Vec::new();
    let mut attempt = 1u32;
    loop {
        let mut trainer = factory.make(genome, model_id, cfg.seed);
        let mut progress = AttemptProgress::default();
        let result = catch_unwind(AssertUnwindSafe(|| {
            train_with_engine_fallible(
                trainer.as_mut(),
                engine,
                cfg.nas.epochs,
                checkpoints.map(|store| (store, model_id)),
                Some((&ft.plan, model_id, attempt)),
                &mut progress,
            )
        }));
        // Read after training (or after the attempt's panic unwound):
        // the workspace peak is a high-water mark over the epochs run.
        let cost = trainer.cost();
        if let Ok(outcome) = result {
            let mut outcome = outcome?;
            outcome.attempts = attempt;
            outcome.failed_attempt_seconds = failed_attempt_seconds;
            return Ok((outcome, cost));
        }
        let will_retry = attempt < max_attempts;
        engine.attempt_died(attempt, progress.epochs.len() as u32, will_retry)?;
        if will_retry {
            failed_attempt_seconds.push(progress.train_seconds);
            attempt += 1;
            continue;
        }
        // Retry budget exhausted: surface the partial trail as a
        // Terminated::Failed record with fitness 0, which NSGA-II
        // treats as dominated.
        let outcome = TrainingOutcome {
            epochs: progress.epochs,
            final_fitness: 0.0,
            predicted_fitness: None,
            terminated_early: false,
            failed: true,
            attempts: attempt,
            failed_attempt_seconds,
            train_seconds: progress.train_seconds,
            engine_seconds: 0.0,
            engine_interactions: 0,
        };
        return Ok((outcome, cost));
    }
}

/// The engine across the bus: each epoch is published as
/// [`EpochCompleted`] and the trainer blocks on the engine service's
/// [`EngineVerdict`](Event::EngineVerdict) for it. A `retired` verdict
/// (the engine crashed for this model) — or a verdict stream that dies
/// outright — degrades the rest of the attempt to run-to-completion
/// training instead of deadlocking. A dead attempt is announced as
/// [`TrainingFailed`] so the engine service discards its partial state
/// ahead of any retry's epochs.
struct BusLink<'t> {
    topic: &'t Topic<Event>,
    model_id: u64,
    generation: usize,
    engine_enabled: bool,
    verdicts: Option<Subscription<Event>>,
    stats: (f64, u64),
}

impl EngineLink for BusLink<'_> {
    fn observe(&mut self, epoch: u32, result: &EpochResult) -> Result<Verdict, A4nnError> {
        let model_id = self.model_id;
        if epoch == 1 {
            // A fresh attempt: subscribe to this model's verdicts before
            // its first publish, so no reply can be missed. Capacity 1
            // suffices: the hand-off is strictly request/reply.
            self.stats = (0.0, 0);
            self.verdicts = self.engine_enabled.then(|| {
                self.topic.subscribe_filtered(
                    Policy::Block { capacity: 1 },
                    move |event| matches!(event, Event::EngineVerdict(v) if v.model_id == model_id),
                )
            });
        }
        self.topic
            .publish(Event::EpochCompleted(EpochCompleted {
                model_id,
                generation: self.generation,
                epoch,
                train_acc: result.train_acc,
                val_acc: result.val_acc,
                duration_s: result.duration_s,
            }))
            .map_err(|_| {
                A4nnError::BusClosed(format!("publishing epoch {epoch} of model {model_id}"))
            })?;
        let Some(stream) = self.verdicts.take() else {
            return Ok(Verdict::default());
        };
        match stream.recv() {
            Ok(Event::EngineVerdict(v)) => {
                self.stats = (v.engine_seconds, v.engine_interactions);
                if v.retired {
                    // Keep the frozen stats; no more verdicts will come.
                    return Ok(Verdict::default());
                }
                self.verdicts = Some(stream);
                Ok(Verdict {
                    prediction: v.prediction,
                    converged: v.converged,
                })
            }
            // The engine service itself died: degrade to
            // run-to-completion instead of deadlocking.
            _ => Ok(Verdict::default()),
        }
    }

    fn stats(&self) -> (f64, u64) {
        self.stats
    }

    fn attempt_died(
        &mut self,
        attempt: u32,
        epoch_reached: u32,
        will_retry: bool,
    ) -> Result<(), A4nnError> {
        self.topic
            .publish(Event::TrainingFailed(TrainingFailed {
                model_id: self.model_id,
                generation: self.generation,
                epoch_reached,
                attempt,
                will_retry,
            }))
            .map_err(|_| {
                A4nnError::BusClosed(format!(
                    "announcing failed attempt {attempt} of model {}",
                    self.model_id
                ))
            })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::{SurrogateFactory, SurrogateParams};
    use crate::trainer::{EpochResult, Trainer};
    use a4nn_xfel::BeamIntensity;
    use rand::SeedableRng;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn batch_evaluation_is_complete_and_consistent() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        let space = cfg.search_space();
        let factory = SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam));
        let ft = FaultTolerance::default();
        let pipeline = EvalPipeline::new(&cfg, &space, &factory, None, &ft);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let genomes: Vec<_> = (0..5).map(|_| space.random_genome(&mut rng)).collect();
        let batch = pipeline.run(&DirectTransport, &genomes, 3, 10).unwrap();
        assert_eq!(batch.outcomes.len(), 5);
        assert_eq!(batch.records.len(), 5);
        assert_eq!(batch.schedule.assignments.len(), 5);
        for (k, r) in batch.records.iter().enumerate() {
            assert_eq!(r.model_id, 10 + k as u64);
            assert_eq!(r.generation, 3);
            assert!(r.gpu.unwrap() < 2);
            assert!((r.wall_time_s - batch.outcomes[k].0.train_seconds).abs() < 1e-12);
            assert_eq!(r.objective_names, vec!["neg_fitness", "flops"]);
            assert_eq!(
                r.objective_values,
                vec![
                    -batch.outcomes[k].0.final_fitness,
                    batch.outcomes[k].1.flops
                ]
            );
        }
    }

    #[test]
    fn transports_produce_identical_outcomes_and_schedules() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 9);
        let space = cfg.search_space();
        let factory = SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam));
        let ft = FaultTolerance::default();
        let pipeline = EvalPipeline::new(&cfg, &space, &factory, None, &ft);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let genomes: Vec<_> = (0..4).map(|_| space.random_genome(&mut rng)).collect();

        let direct = pipeline.run(&DirectTransport, &genomes, 0, 0).unwrap();

        let topic: Topic<Event> = Topic::new("a4nn");
        let engine = cfg
            .engine
            .clone()
            .map(|e| a4nn_bus::PredictionEngineService::spawn(&topic, e));
        let bus = pipeline
            .run(&BusTransport::new(&topic), &genomes, 0, 0)
            .unwrap();
        topic.close();
        if let Some(service) = engine {
            service.join().unwrap();
        }

        assert_eq!(direct.records, bus.records);
        assert_eq!(direct.schedule.assignments, bus.schedule.assignments);
        for ((d, df), (b, bf)) in direct.outcomes.iter().zip(&bus.outcomes) {
            assert_eq!(df, bf);
            assert_eq!(d.final_fitness, b.final_fitness);
            assert_eq!(d.epochs, b.epochs);
            assert_eq!(d.terminated_early, b.terminated_early);
        }
    }

    /// Trainers that count how many of them are inside `train_epoch` at
    /// once; building the trainer of model `poisoned` panics.
    #[derive(Default)]
    struct ProbeFactory {
        live_and_peak: Arc<(AtomicUsize, AtomicUsize)>,
        poisoned: Option<u64>,
    }

    struct ProbeTrainer(Arc<(AtomicUsize, AtomicUsize)>);

    impl Trainer for ProbeTrainer {
        fn train_epoch(&mut self, epoch: u32) -> EpochResult {
            let (live, peak) = &*self.0;
            peak.fetch_max(live.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            // Long enough that trainers started together overlap.
            std::thread::sleep(std::time::Duration::from_millis(2));
            live.fetch_sub(1, Ordering::SeqCst);
            EpochResult {
                train_acc: 50.0,
                val_acc: 50.0 + f64::from(epoch),
                duration_s: 1.0,
            }
        }

        fn flops(&self) -> f64 {
            1.0
        }
    }

    impl TrainerFactory for ProbeFactory {
        fn make(&self, _genome: &Genome, model_id: u64, _seed: u64) -> Box<dyn Trainer> {
            assert!(Some(model_id) != self.poisoned, "no trainer for {model_id}");
            Box::new(ProbeTrainer(self.live_and_peak.clone()))
        }
    }

    /// Six engine-less models through `transport`. With no engine in
    /// the config, no service needs to answer the bus link.
    fn probe_run(
        gpus: usize,
        factory: &ProbeFactory,
        transport: &dyn Transport,
    ) -> Result<BatchResult, A4nnError> {
        let mut cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, gpus, 7);
        cfg.engine = None;
        cfg.nas.epochs = 3;
        let space = cfg.search_space();
        let ft = FaultTolerance::default();
        let pipeline = EvalPipeline::new(&cfg, &space, factory, None, &ft);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let genomes: Vec<_> = (0..6).map(|_| space.random_genome(&mut rng)).collect();
        pipeline.run(transport, &genomes, 0, 0)
    }

    #[test]
    fn direct_trains_at_most_gpus_models_at_once() {
        for gpus in [1, 2] {
            let factory = ProbeFactory::default();
            let batch = probe_run(gpus, &factory, &DirectTransport).unwrap();
            assert_eq!(batch.outcomes.len(), 6);
            let peak = factory.live_and_peak.1.load(Ordering::SeqCst);
            assert!((1..=gpus).contains(&peak), "peak {peak} with {gpus} gpu(s)");
        }
    }

    #[test]
    fn direct_reports_a_panic_outside_the_attempts_as_internal_error() {
        let topic: Topic<Event> = Topic::new("a4nn");
        let bus = BusTransport::new(&topic);
        for transport in [&DirectTransport as &dyn Transport, &bus] {
            let factory = ProbeFactory {
                poisoned: Some(4),
                ..ProbeFactory::default()
            };
            let err = probe_run(2, &factory, transport).unwrap_err();
            assert!(
                matches!(err, A4nnError::Internal(_)),
                "{}: got {err}",
                transport.name()
            );
        }
    }

    #[test]
    fn bus_transport_errors_when_topic_closed() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 1, 3);
        let space = cfg.search_space();
        let factory = SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam));
        let ft = FaultTolerance::default();
        let pipeline = EvalPipeline::new(&cfg, &space, &factory, None, &ft);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let genomes = vec![space.random_genome(&mut rng)];
        let topic: Topic<Event> = Topic::new("a4nn");
        topic.close();
        let err = pipeline
            .run(&BusTransport::new(&topic), &genomes, 0, 0)
            .unwrap_err();
        assert!(matches!(err, A4nnError::BusClosed(_)), "got {err}");
    }

    #[test]
    fn clean_outcomes_schedule_exactly_like_the_seed() {
        let outcome = |s: f64| TrainingOutcome {
            epochs: Vec::new(),
            final_fitness: 0.0,
            predicted_fitness: None,
            terminated_early: false,
            failed: false,
            attempts: 1,
            failed_attempt_seconds: Vec::new(),
            train_seconds: s,
            engine_seconds: 0.0,
            engine_interactions: 0,
        };
        let outcomes = vec![
            (outcome(30.0), ModelCost::from_flops(1.0)),
            (outcome(10.0), ModelCost::from_flops(1.0)),
        ];
        let tasks = vec![
            Task {
                id: 5,
                duration: 30.0,
            },
            Task {
                id: 6,
                duration: 10.0,
            },
        ];
        let plain = schedule_fifo(2, &tasks, TaskOrdering::Fifo);
        let routed = generation_schedule(2, 5, &outcomes, &RetryPolicy::default());
        assert_eq!(plain.assignments, routed.assignments);
    }

    #[test]
    fn transport_stats_count_jobs_and_retries() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        let space = cfg.search_space();
        let factory = SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam));
        let ft = crate::fault::FaultTolerance::new(
            RetryPolicy::with_retries(2),
            a4nn_faults::FaultPlan::new(vec![a4nn_faults::FaultEvent::PanicAt {
                model: 11,
                epoch: 1,
                failures: 1,
            }]),
        );
        let pipeline = EvalPipeline::new(&cfg, &space, &factory, None, &ft);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let genomes: Vec<_> = (0..3).map(|_| space.random_genome(&mut rng)).collect();
        pipeline.run(&DirectTransport, &genomes, 0, 10).unwrap();
        let stats = pipeline.transport_stats(DirectTransport.name());
        assert_eq!(stats.transport, "direct");
        assert_eq!(stats.jobs_dispatched, 3);
        assert_eq!(stats.retries, 1, "model 11 retried once");
        assert!(stats.round_trip_max_s >= stats.round_trip_mean_s);
        assert!(stats.round_trip_mean_s > 0.0);
        assert_eq!(stats.queue_wait_mean_s, 0.0);
        let csv = stats.to_csv();
        assert!(csv.starts_with(TransportStats::CSV_HEADER));
        assert_eq!(csv.lines().count(), 2);
        assert!(stats.summary_line().contains("transport direct: 3 job(s)"));
    }

    #[test]
    fn retried_outcomes_charge_failed_attempts_to_the_gpus() {
        let retried = TrainingOutcome {
            epochs: Vec::new(),
            final_fitness: 0.0,
            predicted_fitness: None,
            terminated_early: false,
            failed: false,
            attempts: 2,
            failed_attempt_seconds: vec![20.0],
            train_seconds: 50.0,
            engine_seconds: 0.0,
            engine_interactions: 0,
        };
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base_s: 1.0,
            backoff_factor: 2.0,
        };
        let schedule = generation_schedule(1, 0, &[(retried, ModelCost::from_flops(1.0))], &policy);
        // Failed 20 s attempt + 1 s backoff + 50 s success.
        assert_eq!(schedule.assignments.len(), 2);
        assert!((schedule.makespan - 71.0).abs() < 1e-9);
    }
}
