//! The one generation-evaluation loop, generic over a pluggable
//! [`Transport`].
//!
//! Every NAS driver — NSGA-Net, random search, aging evolution — trains
//! its generations through the same [`EvalPipeline`]: run every genome
//! through the transport (with the fault-tolerance layer's retries and
//! deterministic injection always on — a zero-fault plan with no retries
//! *is* the plain path), replay the simulated durations on the
//! discrete-event scheduler, and emit record trails. The `gpus` models of
//! a generation train at once, each on one thread.
//!
//! Every transport trains a model the same way: one job per genome,
//! running [`train_model`] — Algorithm 1 inside its retry loop. What a
//! transport chooses is only where the job runs and how its trainer
//! reaches the prediction engine — the [`EngineLink`]:
//!
//! - [`DirectTransport`] — jobs on the sched thread pool, each driving
//!   its own engine instance inline ([`InlineEngine`]);
//! - [`BusTransport`] — Direct plus a topic: the same jobs, whose link
//!   publishes per-epoch fitness on an `a4nn-bus` topic (§2.2's in-situ
//!   task coupling) and blocks on the verdicts of an engine service
//!   thread that hosts one [`InlineEngine`] per model;
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
//! a crashed engine service thread.

use crate::config::WorkflowConfig;
use crate::fault::FaultTolerance;
use crate::objectives::ModelCost;
use crate::trainer::{EpochResult, TrainerFactory};
use crate::training::{train_model, EngineLink, InlineEngine, TrainingOutcome};
use a4nn_bus::{Policy, Subscription, Topic};
use a4nn_error::A4nnError;
use a4nn_faults::FaultPlan;
use a4nn_genome::{Genome, SearchSpace};
use a4nn_lineage::{EngineParamsRecord, ModelRecord};
use a4nn_metrics::{MetricsRegistry, MetricsSnapshot};
use a4nn_penguin::{EngineConfig, Verdict};
use a4nn_sched::{schedule, GpuPool, RetryPolicy, ScheduleResult, Task, TaskOrdering};
use std::collections::HashMap;

/// Per-transport dispatch counters for one run, read from the metrics
/// registry — so they cover both halves of a resumed run. All times are
/// measured wall time (never simulated seconds), so they report the
/// harness's own cost without perturbing the reproducible results.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TransportStats {
    /// Which transport dispatched the jobs (`direct`, `bus`, `socket`).
    pub transport: String,
    /// Trainer jobs that completed through the transport.
    pub jobs_dispatched: u64,
    /// Extra attempts beyond the first, summed over all jobs — trainer
    /// retries on every transport, plus dispatch re-queues after a dead
    /// worker on the socket transport.
    pub retries: u64,
    /// Mean wall seconds from dispatching a job to holding its outcome.
    pub round_trip_mean_s: f64,
    /// Worst-case round trip in wall seconds.
    pub round_trip_max_s: f64,
    /// Mean wall seconds a job waited for a free execution slot before
    /// dispatch: on the socket transport, from the job becoming ready
    /// (the generation's start, or the loss of the worker holding it) to
    /// its dispatch; zero for the in-process transports, which hand jobs
    /// straight to the thread pool.
    pub queue_wait_mean_s: f64,
    /// Worst-case queue wait in wall seconds, measured as the mean is.
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
    ft: &'a FaultTolerance,
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
        ft: &'a FaultTolerance,
    ) -> Self {
        EvalPipeline {
            cfg,
            space,
            factory,
            ft,
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

    /// Record one completed job in the metrics registry: its
    /// dispatch→outcome wall time, the wall time it queued for a free
    /// slot, and the extra attempts it consumed beyond the first. Every
    /// transport calls this once per job it completes.
    pub fn record_job(&self, round_trip_s: f64, queue_wait_s: f64, retries: u64) {
        self.registry.add(a4nn_metrics::names::JOBS_DISPATCHED, 1);
        self.registry.add(a4nn_metrics::names::RETRIES, retries);
        self.registry
            .observe_duration(a4nn_metrics::names::ROUND_TRIP_US, round_trip_s);
        self.registry
            .observe_duration(a4nn_metrics::names::QUEUE_WAIT_US, queue_wait_s);
    }

    /// The registry's dispatch counters under `transport`'s name; the
    /// times are the µs histograms' mean and max, in seconds.
    pub fn transport_stats(&self, transport: &str) -> TransportStats {
        use a4nn_metrics::names;
        let snapshot = self.registry.snapshot();
        let seconds = |name: &str| {
            snapshot.histogram(name).map_or((0.0, 0.0), |h| {
                let mean = h.mean().unwrap_or(0.0);
                let max = h.max().unwrap_or(0) as f64;
                (mean / 1e6, max / 1e6)
            })
        };
        let (round_trip_mean_s, round_trip_max_s) = seconds(names::ROUND_TRIP_US);
        let (queue_wait_mean_s, queue_wait_max_s) = seconds(names::QUEUE_WAIT_US);
        TransportStats {
            transport: transport.to_string(),
            jobs_dispatched: snapshot.counter(names::JOBS_DISPATCHED),
            retries: snapshot.counter(names::RETRIES),
            round_trip_mean_s,
            round_trip_max_s,
            queue_wait_mean_s,
            queue_wait_max_s,
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
            InlineEngine::new(engine, plan, model_id)
        })
    }

    fn name(&self) -> &'static str {
        "direct"
    }
}

/// Bus coupling: Direct plus a topic. Trainers run exactly as in
/// [`DirectTransport`] — one job per genome on the sched thread pool,
/// each through [`train_model`] — but their engine is a
/// `BusLink`: per-epoch fitness goes out on the generation's topic and
/// the engine service's verdicts come back on it, the same synchronous
/// hand-off as Algorithm 1, routed through communicators.
///
/// Each generation owns a fresh topic and, when `cfg.engine` is set, a
/// scoped service thread running `serve_engines`. The topic closes
/// once the generation's jobs return, on the error path too, so the
/// service always drains and joins.
pub struct BusTransport;

impl Transport for BusTransport {
    fn run_generation(
        &self,
        pipeline: &EvalPipeline<'_>,
        genomes: &[Genome],
        _generation: usize,
        base_id: u64,
    ) -> Result<Vec<(TrainingOutcome, ModelCost)>, A4nnError> {
        let topic: Topic<Event> = Topic::new("a4nn");
        let (engine, plan) = (pipeline.cfg.engine.as_ref(), &pipeline.ft.plan);
        std::thread::scope(|scope| {
            let topic = &topic;
            let service = engine.map(|config| {
                // Subscribed before any trainer publishes, so no epoch
                // is missed; trainers block once the inbox is full.
                let inbox = topic.subscribe_filtered(
                    Policy::Block {
                        capacity: ENGINE_INBOX_CAPACITY,
                    },
                    |event| matches!(event, Event::Epoch { .. }),
                );
                scope.spawn(move || serve_engines(topic, &inbox, config, plan))
            });
            let outcomes = train_generation(pipeline, genomes, base_id, |model_id| {
                BusLink::new(topic, model_id, engine.is_some())
            });
            topic.close();
            if service.is_some_and(|service| service.join().is_err()) {
                return Err(A4nnError::Internal(
                    "prediction engine service panicked".into(),
                ));
            }
            outcomes
        })
    }

    fn name(&self) -> &'static str {
        "bus"
    }
}

/// The generation's FIFO discrete-event schedule, retry-aware: every
/// attempt — failed ones included — is charged to the virtual GPUs,
/// with the policy's backoff between attempts.
fn generation_schedule(
    gpus: usize,
    base_id: u64,
    outcomes: &[(TrainingOutcome, ModelCost)],
    policy: &RetryPolicy,
) -> ScheduleResult {
    let tasks: Vec<Task> = outcomes
        .iter()
        .enumerate()
        .map(|(k, (outcome, _))| Task {
            id: base_id + k as u64,
            attempt_durations: outcome
                .failed_attempt_seconds
                .iter()
                .copied()
                .chain([outcome.train_seconds])
                .collect(),
        })
        .collect();
    schedule(gpus, &tasks, TaskOrdering::Fifo, policy)
}

/// Train every genome of a generation as one job on the pool, each
/// through [`train_model`] with the engine link `link_for`
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
                train_model(
                    pipeline.cfg,
                    pipeline.factory,
                    genome,
                    model_id,
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

/// Queue depth of the engine service's inbox; trainers block (the
/// `Block` policy) once this many epochs are waiting, which is the
/// backpressure path the paper's in-situ coupling implies.
const ENGINE_INBOX_CAPACITY: usize = 1024;

/// What flows on a Bus generation's topic: a trainer's epoch out to the
/// engine service, and the service's answer back.
#[derive(Clone)]
enum Event {
    /// Model `model_id` finished `epoch` with `result`.
    Epoch {
        model_id: u64,
        epoch: u32,
        result: EpochResult,
    },
    /// The engine's verdict on the model's latest epoch, with its
    /// `(engine_seconds, engine_interactions)` after it.
    Verdict {
        model_id: u64,
        verdict: Verdict,
        stats: (f64, u64),
    },
}

/// The Bus transport's engine service: one [`InlineEngine`] per model id,
/// answering every epoch with that engine's verdict and stats until the
/// topic closes. It is the Direct transport's engine, crash handling and
/// retry reset included, only on another thread.
fn serve_engines(
    topic: &Topic<Event>,
    inbox: &Subscription<Event>,
    config: &EngineConfig,
    plan: &FaultPlan,
) {
    let mut engines = HashMap::new();
    while let Ok(Event::Epoch {
        model_id,
        epoch,
        result,
    }) = inbox.recv()
    {
        let engine = engines
            .entry(model_id)
            .or_insert_with(|| InlineEngine::new(Some(config), plan, model_id));
        // An inline engine never errs; a crashed one answers the default.
        let verdict = engine.observe(epoch, &result).unwrap_or_default();
        let stats = engine.stats();
        let reply = Event::Verdict {
            model_id,
            verdict,
            stats,
        };
        if topic.publish(reply).is_err() {
            break; // closed mid-drain; no trainer is waiting
        }
    }
}

/// The engine across the bus: each epoch is published on the topic and,
/// when the run has an engine, the trainer blocks on the service's
/// verdict for it. A topic that closes under the link is an
/// [`A4nnError::BusClosed`].
struct BusLink<'t> {
    topic: &'t Topic<Event>,
    model_id: u64,
    verdicts: Option<Subscription<Event>>,
    stats: (f64, u64),
}

impl<'t> BusLink<'t> {
    /// A link for `model_id`, subscribed to its verdicts when an engine
    /// service answers on `topic`. Capacity 1 suffices: the hand-off is
    /// strictly request/reply.
    fn new(topic: &'t Topic<Event>, model_id: u64, engine: bool) -> Self {
        let verdicts = engine.then(|| {
            topic.subscribe_filtered(
                Policy::Block { capacity: 1 },
                move |event| matches!(event, Event::Verdict { model_id: m, .. } if *m == model_id),
            )
        });
        BusLink {
            topic,
            model_id,
            verdicts,
            stats: (0.0, 0),
        }
    }
}

impl EngineLink for BusLink<'_> {
    fn observe(&mut self, epoch: u32, result: &EpochResult) -> Result<Verdict, A4nnError> {
        let model_id = self.model_id;
        let closed = || A4nnError::BusClosed(format!("epoch {epoch} of model {model_id}"));
        self.topic
            .publish(Event::Epoch {
                model_id,
                epoch,
                result: *result,
            })
            .map_err(|_| closed())?;
        let Some(verdicts) = &self.verdicts else {
            return Ok(Verdict::default());
        };
        match verdicts.recv() {
            Ok(Event::Verdict { verdict, stats, .. }) => {
                self.stats = stats;
                Ok(verdict)
            }
            _ => Err(closed()),
        }
    }

    fn stats(&self) -> (f64, u64) {
        self.stats
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
        let pipeline = EvalPipeline::new(&cfg, &space, &factory, &ft);
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
        let pipeline = EvalPipeline::new(&cfg, &space, &factory, &ft);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let genomes: Vec<_> = (0..4).map(|_| space.random_genome(&mut rng)).collect();

        let direct = pipeline.run(&DirectTransport, &genomes, 0, 0).unwrap();
        let bus = pipeline.run(&BusTransport, &genomes, 0, 0).unwrap();

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

        fn cost(&self) -> ModelCost {
            ModelCost::from_flops(1.0)
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
        let pipeline = EvalPipeline::new(&cfg, &space, factory, &ft);
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
        for transport in [&DirectTransport as &dyn Transport, &BusTransport] {
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
        let genome = space.random_genome(&mut rand::rngs::StdRng::seed_from_u64(3));
        let topic: Topic<Event> = Topic::new("a4nn");
        topic.close();
        let mut link = BusLink::new(&topic, 0, true);
        let ft = FaultTolerance::default();
        let err = train_model(&cfg, &factory, &genome, 0, &ft, &mut link).unwrap_err();
        assert!(matches!(err, A4nnError::BusClosed(_)), "got {err}");
    }

    /// The engine service answers bus links exactly as standalone
    /// [`InlineEngine`]s answer the same inputs: model 7 through an
    /// injected crash at epoch 3, an epoch trained on after it, and a
    /// retry whose epoch 1 starts a fresh engine; model 8, beside it,
    /// unharmed.
    #[test]
    fn engine_service_answers_like_an_inline_engine() {
        let config = EngineConfig::paper_defaults();
        let plan = FaultPlan::new(vec![a4nn_faults::FaultEvent::EngineDrop {
            model: 7,
            epoch: 3,
        }]);
        let topic: Topic<Event> = Topic::new("a4nn");
        let inbox = topic.subscribe_filtered(Policy::Unbounded, |event| {
            matches!(event, Event::Epoch { .. })
        });
        let mut links: HashMap<u64, _> = HashMap::from([7, 8].map(|model| {
            let reference = InlineEngine::new(Some(&config), &plan, model);
            (model, (BusLink::new(&topic, model, true), reference))
        }));
        let inputs = [
            (7, 1, 40.0),
            (8, 1, 40.0),
            (7, 2, 55.0),
            (8, 2, 55.0),
            (7, 3, 63.0), // model 7's engine crashes
            (8, 3, 63.0),
            (7, 4, 68.0),
            (8, 4, 68.0),
            (7, 1, 41.0), // model 7's retry
            (7, 2, 56.0),
        ];
        let mut answers = Vec::new();
        std::thread::scope(|scope| {
            let service = scope.spawn(|| serve_engines(&topic, &inbox, &config, &plan));
            for (model, epoch, val_acc) in inputs {
                let (link, reference) = links.get_mut(&model).unwrap();
                let result = EpochResult {
                    train_acc: val_acc + 1.0,
                    val_acc,
                    duration_s: 2.0,
                };
                let verdict = link.observe(epoch, &result).unwrap();
                assert_eq!(verdict, reference.observe(epoch, &result).unwrap());
                // Seconds are wall time; the interaction count is exact.
                assert_eq!(link.stats().1, reference.stats().1);
                answers.push((model, verdict.prediction.is_some(), link.stats()));
            }
            topic.close();
            service.join().unwrap();
        });
        let trail = |model: u64| -> Vec<(bool, (f64, u64))> {
            let of_model = answers.iter().filter(|a| a.0 == model);
            of_model
                .map(|&(_, predicted, stats)| (predicted, stats))
                .collect()
        };
        let (seven, eight) = (trail(7), trail(8));
        let interactions = |t: &[(bool, (f64, u64))]| t.iter().map(|a| a.1 .1).collect::<Vec<_>>();
        assert_eq!(interactions(&seven), [1, 2, 2, 2, 1, 2]);
        assert_eq!(interactions(&eight), [1, 2, 3, 4]);
        assert!(seven.iter().all(|a| !a.0), "model 7 never reaches a fit");
        assert!(eight[2].0 && eight[3].0, "model 8 predicts from epoch 3");
        // Model 7's stats freeze at the crash, seconds included.
        assert_eq!((seven[2].1, seven[3].1), (seven[1].1, seven[1].1));
    }

    #[test]
    fn clean_outcomes_schedule_one_attempt_each() {
        use a4nn_sched::Assignment;
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
        let routed = generation_schedule(2, 5, &outcomes, &RetryPolicy::default());
        let placed = |task_id, gpu, end| Assignment {
            task_id,
            gpu,
            start: 0.0,
            end,
        };
        assert_eq!(routed.assignments, [placed(5, 0, 30.0), placed(6, 1, 10.0)]);
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
        let pipeline = EvalPipeline::new(&cfg, &space, &factory, &ft);
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
