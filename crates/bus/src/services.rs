//! The streaming service that rides on the bus.
//!
//! The [`PredictionEngineService`] is one thread with its own filtered
//! subscription, mirroring a Wilkins-style task wired to the workflow
//! through communicators (§2.2): it answers per-epoch fitness with
//! verdicts. The record trails are built by `a4nn-core`'s pipeline, the
//! same way on every transport.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::thread::JoinHandle;

use a4nn_error::A4nnError;
use a4nn_penguin::{EngineConfig, EngineStats, PredictionEngine};

use crate::events::{EngineVerdict, Event};
use crate::topic::{Policy, Topic};

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
/// [`Event::EngineVerdict`] per epoch. A converged verdict ends the
/// model's training, so its engine instance is retired there.
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
                    Event::EngineVerdict(_) => continue, // filtered out above
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
                        EngineVerdict {
                            model_id: epoch.model_id,
                            epoch: epoch.epoch,
                            prediction: verdict.prediction,
                            converged: verdict.converged,
                            engine_seconds: stats.total_seconds,
                            engine_interactions: stats.interactions,
                            retired: false,
                        }
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
                        EngineVerdict {
                            model_id: epoch.model_id,
                            epoch: epoch.epoch,
                            prediction: None,
                            converged: None,
                            engine_seconds: frozen.total_seconds,
                            engine_interactions: frozen.interactions,
                            retired: true,
                        }
                    }
                };
                let converged = verdict.converged.is_some();
                if topic.publish(Event::EngineVerdict(verdict)).is_err() {
                    break; // topic closed mid-drain; no trainer is waiting
                }
                if converged {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::EpochCompleted;

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
}
