//! The streaming services that ride on the bus.
//!
//! Each service is one thread with its own filtered subscription,
//! mirroring a Wilkins-style task wired to the workflow through
//! communicators (§2.2): the [`PredictionEngineService`] answers
//! per-epoch fitness with verdicts, the [`LineageRecorderService`]
//! folds the event stream into record trails for the data commons, and
//! the [`RunStatsAggregator`] keeps run-level counters.

use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use a4nn_error::A4nnError;
use a4nn_lineage::{EngineParamsRecord, EpochRecord, ModelRecord, Terminated};
use a4nn_penguin::{EngineConfig, EngineStats, PredictionEngine};

use crate::events::{EngineVerdict, Event, TerminationAdvised};
use crate::topic::{Policy, SubscriberStats, Topic};

/// Fault hook for [`PredictionEngineService::spawn_hooked`]: called with
/// `(model_id, epoch)` before the engine observes the epoch; returning
/// `true` makes the engine panic there (the panic is injected *before*
/// the observation, so frozen stats reflect `epoch - 1`).
pub type EngineFaultHook = Box<dyn Fn(u64, u32) -> bool + Send>;

/// Queue depth of the engine service's inbox; trainers block (the
/// `Block` policy) once this many epochs are waiting, which is the
/// backpressure path the paper's in-situ coupling implies.
pub const ENGINE_INBOX_CAPACITY: usize = 1024;

/// In-situ prediction engine as a bus service.
///
/// Consumes [`Event::EpochCompleted`], maintains one
/// [`PredictionEngine`] per model, and publishes an
/// [`Event::EngineVerdict`] per epoch — plus an
/// [`Event::TerminationAdvised`] when the analyzer converges, after
/// which the model's engine instance is retired.
pub struct PredictionEngineService {
    handle: JoinHandle<EngineStats>,
}

impl PredictionEngineService {
    /// Spawn the service on `topic` with the given engine
    /// configuration (one clone per model).
    pub fn spawn(topic: &Topic<Event>, config: EngineConfig) -> Self {
        Self::spawn_hooked(topic, config, None)
    }

    /// [`spawn`](Self::spawn) with an optional fault hook.
    ///
    /// Every per-epoch engine interaction runs under `catch_unwind`: a
    /// panic (injected by `hook` or organic) retires the crashed model's
    /// engine instead of killing the service. The retired model gets one
    /// final [`EngineVerdict`] with `retired: true` and stats frozen at
    /// the crash point; its later epochs are ignored (no verdicts), so a
    /// degraded trainer must not wait for them. A
    /// [`Event::TrainingFailed`] clears the model's engine *and* its
    /// tombstone, so a retry replays the fault plan from epoch 1.
    pub fn spawn_hooked(
        topic: &Topic<Event>,
        config: EngineConfig,
        hook: Option<EngineFaultHook>,
    ) -> Self {
        let inbox = topic.subscribe_filtered(
            Policy::Block {
                capacity: ENGINE_INBOX_CAPACITY,
            },
            |event| matches!(event, Event::EpochCompleted(_) | Event::TrainingFailed(_)),
        );
        let topic = topic.clone();
        let handle = std::thread::spawn(move || {
            let mut engines: HashMap<u64, PredictionEngine> = HashMap::new();
            // Tombstones of crashed per-model engines, with stats frozen
            // at the crash point. Folded into the totals only at close —
            // a tombstone still present then belongs to a model that
            // completed degraded; a failed attempt's tombstone is
            // dropped (its replayed retry re-counts from scratch), which
            // mirrors the direct path's sum over final outcomes.
            let mut retired: HashMap<u64, EngineStats> = HashMap::new();
            let mut totals = EngineStats::default();
            while let Ok(event) = inbox.recv() {
                let epoch = match event {
                    Event::EpochCompleted(e) => e,
                    Event::TrainingFailed(f) => {
                        // The attempt's engine state is replayed from
                        // scratch on retry; its stats never reached a
                        // completed model, so they don't count.
                        engines.remove(&f.model_id);
                        retired.remove(&f.model_id);
                        continue;
                    }
                    _ => continue,
                };
                if retired.contains_key(&epoch.model_id) {
                    continue; // degraded trainer isn't waiting for a verdict
                }
                let engine = engines
                    .entry(epoch.model_id)
                    .or_insert_with(|| PredictionEngine::new(config.clone()));
                let interaction = catch_unwind(AssertUnwindSafe(|| {
                    if let Some(check) = &hook {
                        assert!(
                            !check(epoch.model_id, epoch.epoch),
                            "injected engine fault: model {} epoch {}",
                            epoch.model_id,
                            epoch.epoch
                        );
                    }
                    engine.interact(epoch.epoch, epoch.val_acc)
                }));
                let verdict = match interaction {
                    Ok(verdict) => {
                        let stats = engine.stats();
                        Event::EngineVerdict(EngineVerdict {
                            model_id: epoch.model_id,
                            epoch: epoch.epoch,
                            prediction: verdict.prediction,
                            converged: verdict.converged,
                            engine_seconds: stats.total_seconds,
                            engine_interactions: stats.interactions,
                            retired: false,
                        })
                    }
                    Err(_) => {
                        // Graceful degradation: retire this model's
                        // engine with stats frozen before the crash
                        // epoch, tell the trainer, keep serving others.
                        let Some(crashed) = engines.remove(&epoch.model_id) else {
                            unreachable!("crashed engine was just inserted")
                        };
                        let frozen = crashed.stats();
                        retired.insert(epoch.model_id, frozen);
                        Event::EngineVerdict(EngineVerdict {
                            model_id: epoch.model_id,
                            epoch: epoch.epoch,
                            prediction: None,
                            converged: None,
                            engine_seconds: frozen.total_seconds,
                            engine_interactions: frozen.interactions,
                            retired: true,
                        })
                    }
                };
                let converged = match &verdict {
                    Event::EngineVerdict(v) => v.converged,
                    _ => unreachable!(),
                };
                if topic.publish(verdict).is_err() {
                    break; // topic closed mid-drain; no trainer is waiting
                }
                if let Some(fitness) = converged {
                    let _ = topic.publish(Event::TerminationAdvised(TerminationAdvised {
                        model_id: epoch.model_id,
                        epoch: epoch.epoch,
                        fitness,
                    }));
                    // Training stops here; retire the per-model engine.
                    if let Some(done) = engines.remove(&epoch.model_id) {
                        accumulate(&mut totals, done.stats());
                    }
                }
            }
            for (_, engine) in engines {
                accumulate(&mut totals, engine.stats());
            }
            for (_, frozen) in retired {
                accumulate(&mut totals, frozen);
            }
            totals
        });
        PredictionEngineService { handle }
    }

    /// Wait for close-and-drain; returns the aggregate engine stats
    /// across every model the service analyzed.
    ///
    /// Errs only if the service thread itself panicked — per-model engine
    /// crashes are absorbed by the degradation path above.
    pub fn join(self) -> Result<EngineStats, A4nnError> {
        self.handle
            .join()
            .map_err(|_| A4nnError::Internal("prediction engine service panicked".into()))
    }
}

fn accumulate(totals: &mut EngineStats, stats: EngineStats) {
    totals.interactions += stats.interactions;
    totals.fits += stats.fits;
    totals.fit_failures += stats.fit_failures;
    totals.total_seconds += stats.total_seconds;
}

/// Streams record trails into the data commons.
///
/// Buffers every event until the topic closes, then folds them into
/// one [`ModelRecord`] per model — identical to what the direct path's
/// batch evaluator constructs, so the bus orchestration reproduces the
/// direct record trails byte for byte.
pub struct LineageRecorderService {
    handle: JoinHandle<Vec<ModelRecord>>,
}

impl LineageRecorderService {
    /// Spawn the recorder. `engine` and `beam` are run-level metadata
    /// stamped onto every record (engine parameters are per-run, not
    /// per-event).
    pub fn spawn(topic: &Topic<Event>, engine: Option<EngineParamsRecord>, beam: String) -> Self {
        // Unbounded: the audit stream must be lossless and must never
        // apply backpressure to trainers.
        let inbox = topic.subscribe(Policy::Unbounded);
        let handle = std::thread::spawn(move || {
            let mut epochs: BTreeMap<u64, Vec<EpochRecord>> = BTreeMap::new();
            let mut predictions: HashMap<(u64, u32), Option<f64>> = HashMap::new();
            let mut gpus: HashMap<u64, usize> = HashMap::new();
            let mut completed: BTreeMap<u64, crate::events::ModelCompleted> = BTreeMap::new();
            while let Ok(event) = inbox.recv() {
                match event {
                    Event::EpochCompleted(e) => {
                        epochs.entry(e.model_id).or_default().push(EpochRecord {
                            epoch: e.epoch,
                            train_acc: e.train_acc,
                            val_acc: e.val_acc,
                            duration_s: e.duration_s,
                            prediction: None,
                        });
                    }
                    Event::EngineVerdict(v) => {
                        predictions.insert((v.model_id, v.epoch), v.prediction);
                    }
                    Event::ModelCompleted(m) => {
                        completed.insert(m.model_id, m);
                    }
                    Event::TrainingFailed(f) => {
                        if f.will_retry {
                            // The retry replays from epoch 1; drop the
                            // dead attempt's partial trail so the record
                            // holds only the surviving attempt's epochs.
                            epochs.remove(&f.model_id);
                            predictions.retain(|(model, _), _| *model != f.model_id);
                        }
                        // No retry left: keep the partial trail — the
                        // Failed record carries it.
                    }
                    Event::GenerationScheduled(g) => {
                        for slot in g.assignments {
                            gpus.insert(slot.model_id, slot.gpu);
                        }
                    }
                    Event::TerminationAdvised(_) => {}
                }
            }
            completed
                .into_values()
                .map(|m| {
                    let mut trail = epochs.remove(&m.model_id).unwrap_or_default();
                    trail.sort_by_key(|e| e.epoch);
                    for entry in &mut trail {
                        if let Some(p) = predictions.get(&(m.model_id, entry.epoch)) {
                            entry.prediction = *p;
                        }
                    }
                    ModelRecord {
                        model_id: m.model_id,
                        generation: m.generation,
                        gpu: gpus.get(&m.model_id).copied(),
                        genome: m.genome,
                        arch_summary: m.arch_summary,
                        flops: m.flops,
                        objective_names: m.objective_names,
                        objective_values: m.objective_values,
                        engine: engine.clone(),
                        epochs: trail,
                        final_fitness: m.final_fitness,
                        predicted_fitness: m.predicted_fitness,
                        termination: if m.failed {
                            Terminated::Failed
                        } else if m.terminated_early {
                            Terminated::Early
                        } else {
                            Terminated::Completed
                        },
                        attempts: m.attempts,
                        beam: beam.clone(),
                        wall_time_s: m.train_seconds,
                    }
                })
                .collect()
        });
        LineageRecorderService { handle }
    }

    /// Wait for close-and-drain; returns the assembled record trails
    /// (sorted by model id). Errs only if the recorder thread panicked.
    pub fn join(self) -> Result<Vec<ModelRecord>, A4nnError> {
        self.handle
            .join()
            .map_err(|_| A4nnError::Internal("lineage recorder service panicked".into()))
    }
}

/// Run-level counters folded from the event stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BusRunStats {
    /// Epochs trained across every model.
    pub epochs_observed: u64,
    /// Engine interactions (one verdict per observed epoch).
    pub engine_interactions: u64,
    /// Early terminations the engine advised.
    pub terminations_advised: u64,
    /// Models whose training completed.
    pub models_completed: u64,
    /// Training attempts that died (caught panics), over all models.
    pub training_failures: u64,
    /// Generations scheduled.
    pub generations_scheduled: u64,
    /// Busy seconds per virtual GPU, summed over the run's schedules.
    pub gpu_busy_seconds: Vec<f64>,
    /// Delivery counters of the aggregator's own subscription.
    pub subscriber: SubscriberStats,
}

/// Folds the full event stream into [`BusRunStats`].
pub struct RunStatsAggregator {
    handle: JoinHandle<BusRunStats>,
}

impl RunStatsAggregator {
    /// Spawn the aggregator on `topic` (lossless audit subscription).
    pub fn spawn(topic: &Topic<Event>) -> Self {
        let inbox = topic.subscribe(Policy::Unbounded);
        let handle = std::thread::spawn(move || {
            let mut stats = BusRunStats::default();
            while let Ok(event) = inbox.recv() {
                match event {
                    Event::EpochCompleted(_) => stats.epochs_observed += 1,
                    Event::EngineVerdict(_) => stats.engine_interactions += 1,
                    Event::TerminationAdvised(_) => stats.terminations_advised += 1,
                    Event::ModelCompleted(_) => stats.models_completed += 1,
                    Event::TrainingFailed(_) => stats.training_failures += 1,
                    Event::GenerationScheduled(g) => {
                        stats.generations_scheduled += 1;
                        for slot in &g.assignments {
                            if stats.gpu_busy_seconds.len() <= slot.gpu {
                                stats.gpu_busy_seconds.resize(slot.gpu + 1, 0.0);
                            }
                            stats.gpu_busy_seconds[slot.gpu] += slot.end_s - slot.start_s;
                        }
                    }
                }
            }
            stats.subscriber = inbox.stats();
            stats
        });
        RunStatsAggregator { handle }
    }

    /// Wait for close-and-drain; returns the folded counters. Errs only
    /// if the aggregator thread panicked.
    pub fn join(self) -> Result<BusRunStats, A4nnError> {
        self.handle
            .join()
            .map_err(|_| A4nnError::Internal("run stats aggregator panicked".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{EpochCompleted, GenerationScheduled, GpuSlot, ModelCompleted};
    use a4nn_genome::Genome;

    fn epoch(model_id: u64, epoch: u32, val_acc: f64) -> Event {
        Event::EpochCompleted(EpochCompleted {
            model_id,
            generation: 0,
            epoch,
            train_acc: val_acc + 1.0,
            val_acc,
            duration_s: 2.0,
        })
    }

    #[test]
    fn engine_service_matches_direct_engine() {
        let topic: Topic<Event> = Topic::new("a4nn");
        let verdicts =
            topic.subscribe_filtered(Policy::Unbounded, |e| matches!(e, Event::EngineVerdict(_)));
        let service = PredictionEngineService::spawn(&topic, EngineConfig::paper_defaults());

        // Drive a reference engine through the same fitness sequence.
        let mut reference = PredictionEngine::new(EngineConfig::paper_defaults());
        let curve = [40.0, 55.0, 63.0, 68.0, 71.0, 73.0, 74.5, 75.5, 76.2, 76.8];
        for (i, &acc) in curve.iter().enumerate() {
            let e = i as u32 + 1;
            topic.publish(epoch(7, e, acc)).unwrap();
            let expect = reference.interact(e, acc);
            let Ok(Event::EngineVerdict(v)) = verdicts.recv() else {
                panic!("expected a verdict");
            };
            assert_eq!(v.model_id, 7);
            assert_eq!(v.epoch, e);
            assert_eq!(v.prediction, expect.prediction);
            assert_eq!(v.converged, expect.converged);
            if expect.converged.is_some() {
                break;
            }
        }
        topic.close();
        let totals = service.join().unwrap();
        assert!(totals.interactions > 0);
    }

    #[test]
    fn recorder_assembles_full_trails() {
        let topic: Topic<Event> = Topic::new("a4nn");
        let recorder = LineageRecorderService::spawn(
            &topic,
            Some(EngineParamsRecord {
                function: "exp-base".into(),
                c_min: 3,
                e_pred: 25,
                n: 3,
                r: 0.5,
            }),
            "medium".into(),
        );
        let genome = Genome::from_compact_string("1011010-0110101-0000001").unwrap();
        for model_id in [2u64, 1u64] {
            for e in 1..=3u32 {
                topic
                    .publish(epoch(model_id, e, 50.0 + f64::from(e)))
                    .unwrap();
            }
            topic
                .publish(Event::EngineVerdict(EngineVerdict {
                    model_id,
                    epoch: 3,
                    prediction: Some(88.0),
                    converged: None,
                    engine_seconds: 0.01,
                    engine_interactions: 3,
                    retired: false,
                }))
                .unwrap();
            topic
                .publish(Event::ModelCompleted(ModelCompleted {
                    model_id,
                    generation: 0,
                    genome: genome.clone(),
                    arch_summary: "3 phases".into(),
                    flops: 500.0,
                    objective_names: vec!["neg_fitness".into(), "flops".into()],
                    objective_values: vec![-53.0, 500.0],
                    final_fitness: 53.0,
                    predicted_fitness: None,
                    terminated_early: false,
                    failed: false,
                    attempts: 1,
                    train_seconds: 6.0,
                }))
                .unwrap();
        }
        topic
            .publish(Event::GenerationScheduled(GenerationScheduled {
                generation: 0,
                assignments: vec![
                    GpuSlot {
                        model_id: 1,
                        gpu: 0,
                        start_s: 0.0,
                        end_s: 6.0,
                    },
                    GpuSlot {
                        model_id: 2,
                        gpu: 1,
                        start_s: 0.0,
                        end_s: 6.0,
                    },
                ],
            }))
            .unwrap();
        topic.close();
        let records = recorder.join().unwrap();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].model_id, 1);
        assert_eq!(records[1].model_id, 2);
        assert_eq!(records[0].gpu, Some(0));
        assert_eq!(records[1].gpu, Some(1));
        assert_eq!(records[0].epochs.len(), 3);
        assert_eq!(records[0].epochs[2].prediction, Some(88.0));
        assert_eq!(records[0].epochs[0].prediction, None);
        assert_eq!(records[0].engine.as_ref().unwrap().function, "exp-base");
        assert_eq!(records[0].beam, "medium");
        // Objective fields ride the completion event into the record.
        assert_eq!(records[0].objective_names, vec!["neg_fitness", "flops"]);
        assert_eq!(records[0].objective_values, vec![-53.0, 500.0]);
    }

    #[test]
    fn engine_service_survives_injected_crash() {
        let topic: Topic<Event> = Topic::new("a4nn");
        let verdicts =
            topic.subscribe_filtered(Policy::Unbounded, |e| matches!(e, Event::EngineVerdict(_)));
        let service = PredictionEngineService::spawn_hooked(
            &topic,
            EngineConfig::paper_defaults(),
            Some(Box::new(|model, epoch| model == 7 && epoch == 3)),
        );

        for e in 1..=2u32 {
            topic.publish(epoch(7, e, 40.0 + f64::from(e))).unwrap();
            let Ok(Event::EngineVerdict(v)) = verdicts.recv() else {
                panic!("expected a verdict");
            };
            assert!(!v.retired);
            assert_eq!(v.engine_interactions, u64::from(e));
        }
        // Epoch 3 crashes the engine: one retired verdict, stats frozen
        // at epoch 2 (the crash fires before the observation).
        topic.publish(epoch(7, 3, 43.0)).unwrap();
        let Ok(Event::EngineVerdict(v)) = verdicts.recv() else {
            panic!("expected the retired verdict");
        };
        assert!(v.retired);
        assert_eq!(v.epoch, 3);
        assert_eq!(v.engine_interactions, 2);
        assert_eq!(v.converged, None);
        // Later epochs of the crashed model get no verdict; other
        // models keep full service.
        topic.publish(epoch(7, 4, 44.0)).unwrap();
        topic.publish(epoch(8, 1, 50.0)).unwrap();
        let Ok(Event::EngineVerdict(v)) = verdicts.recv() else {
            panic!("expected a verdict for the healthy model");
        };
        assert_eq!(v.model_id, 8);
        assert!(!v.retired);
        topic.close();
        // Run totals still include the crashed model's frozen stats
        // (the model completed, degraded) plus model 8's one epoch.
        assert_eq!(service.join().unwrap().interactions, 3);
    }

    #[test]
    fn recorder_handles_retries_and_failures() {
        let topic: Topic<Event> = Topic::new("a4nn");
        let recorder = LineageRecorderService::spawn(&topic, None, "low".into());
        let genome = Genome::from_compact_string("1011010-0110101-0000001").unwrap();

        // Model 5: first attempt dies after 2 epochs, retry completes.
        for e in 1..=2u32 {
            topic.publish(epoch(5, e, 50.0 + f64::from(e))).unwrap();
        }
        topic
            .publish(Event::TrainingFailed(crate::events::TrainingFailed {
                model_id: 5,
                generation: 0,
                epoch_reached: 2,
                attempt: 1,
                will_retry: true,
            }))
            .unwrap();
        for e in 1..=3u32 {
            topic.publish(epoch(5, e, 50.0 + f64::from(e))).unwrap();
        }
        topic
            .publish(Event::ModelCompleted(ModelCompleted {
                model_id: 5,
                generation: 0,
                genome: genome.clone(),
                arch_summary: "3 phases".into(),
                flops: 500.0,
                objective_names: Vec::new(),
                objective_values: Vec::new(),
                final_fitness: 53.0,
                predicted_fitness: None,
                terminated_early: false,
                failed: false,
                attempts: 2,
                train_seconds: 6.0,
            }))
            .unwrap();

        // Model 6: exhausts its retries; the partial trail survives.
        for e in 1..=2u32 {
            topic.publish(epoch(6, e, 40.0 + f64::from(e))).unwrap();
        }
        topic
            .publish(Event::TrainingFailed(crate::events::TrainingFailed {
                model_id: 6,
                generation: 0,
                epoch_reached: 2,
                attempt: 3,
                will_retry: false,
            }))
            .unwrap();
        topic
            .publish(Event::ModelCompleted(ModelCompleted {
                model_id: 6,
                generation: 0,
                genome,
                arch_summary: "3 phases".into(),
                flops: 500.0,
                objective_names: Vec::new(),
                objective_values: Vec::new(),
                final_fitness: 0.0,
                predicted_fitness: None,
                terminated_early: false,
                failed: true,
                attempts: 3,
                train_seconds: 4.0,
            }))
            .unwrap();
        topic.close();

        let records = recorder.join().unwrap();
        assert_eq!(records.len(), 2);
        let recovered = &records[0];
        assert_eq!(recovered.model_id, 5);
        assert_eq!(recovered.epochs.len(), 3, "dead attempt's trail dropped");
        assert_eq!(recovered.termination, Terminated::Completed);
        assert_eq!(recovered.attempts, 2);
        let failed = &records[1];
        assert_eq!(failed.model_id, 6);
        assert_eq!(failed.epochs.len(), 2, "partial trail kept");
        assert_eq!(failed.termination, Terminated::Failed);
        assert!(failed.failed());
        assert_eq!(failed.attempts, 3);
    }

    #[test]
    fn aggregator_counts_every_event_kind() {
        let topic: Topic<Event> = Topic::new("a4nn");
        let aggregator = RunStatsAggregator::spawn(&topic);
        for e in 1..=4u32 {
            topic.publish(epoch(1, e, 60.0)).unwrap();
        }
        topic
            .publish(Event::GenerationScheduled(GenerationScheduled {
                generation: 0,
                assignments: vec![GpuSlot {
                    model_id: 1,
                    gpu: 1,
                    start_s: 0.0,
                    end_s: 8.0,
                }],
            }))
            .unwrap();
        topic.close();
        let stats = aggregator.join().unwrap();
        assert_eq!(stats.epochs_observed, 4);
        assert_eq!(stats.generations_scheduled, 1);
        assert_eq!(stats.gpu_busy_seconds, vec![0.0, 8.0]);
        assert_eq!(stats.subscriber.delivered, 5);
        assert_eq!(stats.subscriber.dropped, 0);
    }
}
