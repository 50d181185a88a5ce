//! The fault-injection harness: both in-process orchestration modes must
//! survive identical deterministic fault plans with identical results.
//!
//! A [`FaultPlan`] is pure data keyed on `(model, epoch, attempt)`, so
//! `Direct` (thread pool + inline engine) and `Bus` (thread pool + an
//! engine service hosting the same inline engine behind a topic) hit
//! exactly the same injection sites.
//! The contract under test, per fault class:
//!
//! - an empty plan reproduces the fault-free run byte for byte;
//! - recoverable panics retry deterministically: the surviving commons
//!   differs from the fault-free run only in retry accounting (and GPU
//!   placement, since failed attempts are charged to the cluster);
//! - exhausted retries surface as `Terminated::Failed` records carrying
//!   the final attempt's partial trail, never poisoning the batch;
//! - an engine crash degrades the affected model to run-to-completion
//!   training (frozen engine stats, no deadlock);
//! - stalls (real wall time) change no recorded byte at all;
//! - organic trainer panics (a real `panic!`, no plan entry) retry and
//!   fail exactly like injected ones, on both transports.

use a4nn_core::prelude::*;
use a4nn_faults::FaultEvent;
use a4nn_lineage::{epochs_csv, models_csv, retries_csv};
use std::sync::atomic::{AtomicU32, Ordering};

fn config(seed: u64, engine: bool) -> WorkflowConfig {
    WorkflowConfig {
        nas: NasSettings {
            population: 6,
            offspring: 6,
            generations: 3,
            epochs: 12,
            ..NasSettings::paper_defaults()
        },
        engine: engine.then(|| EngineConfig {
            e_pred: 12,
            ..EngineConfig::paper_defaults()
        }),
        gpus: 2,
        beam: BeamIntensity::Medium,
        seed,
        objectives: a4nn_core::ObjectiveSet::default(),
    }
}

fn run(seed: u64, engine: bool, transport: &dyn Transport, ft: &FaultTolerance) -> RunOutput {
    let cfg = config(seed, engine);
    let factory = SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam));
    run_with(cfg, &factory, transport, ft)
}

fn run_with(
    cfg: WorkflowConfig,
    factory: &dyn TrainerFactory,
    transport: &dyn Transport,
    ft: &FaultTolerance,
) -> RunOutput {
    A4nnWorkflow::new(cfg)
        .run(
            factory,
            RunOptions {
                transport,
                fault_tolerance: ft.clone(),
                ..RunOptions::default()
            },
        )
        .unwrap()
}

/// Assert the two outputs carry byte-identical commons and exports.
fn assert_equivalent(direct: &RunOutput, bus: &RunOutput, label: &str) {
    assert_eq!(
        models_csv(&direct.commons),
        models_csv(&bus.commons),
        "models.csv diverged: {label}"
    );
    assert_eq!(
        epochs_csv(&direct.commons),
        epochs_csv(&bus.commons),
        "epochs.csv diverged: {label}"
    );
    assert_eq!(direct.commons, bus.commons, "commons diverged: {label}");
    assert_eq!(
        direct.engine_interactions, bus.engine_interactions,
        "engine interactions diverged: {label}"
    );
    assert_eq!(
        direct.schedule.total_wall_time(),
        bus.schedule.total_wall_time(),
        "DES schedule diverged: {label}"
    );
    assert_eq!(
        direct.fault_stats.models_failed, bus.fault_stats.models_failed,
        "failed-model count diverged: {label}"
    );
    assert_eq!(
        direct.fault_stats.retries, bus.fault_stats.retries,
        "retry count diverged: {label}"
    );
}

#[test]
fn zero_fault_plan_reproduces_the_fault_free_run_byte_for_byte() {
    for transport in [&DirectTransport as &dyn Transport, &BusTransport] {
        let plain = run(2023, true, transport, &FaultTolerance::default());
        let armed = run(
            2023,
            true,
            transport,
            &FaultTolerance::new(RetryPolicy::with_retries(5), FaultPlan::none()),
        );
        assert_eq!(plain.commons, armed.commons);
        assert_eq!(models_csv(&plain.commons), models_csv(&armed.commons));
        assert_eq!(epochs_csv(&plain.commons), epochs_csv(&armed.commons));
        assert_eq!(
            plain.schedule.total_wall_time(),
            armed.schedule.total_wall_time()
        );
        assert!(armed.fault_stats.is_quiet());
        for r in &armed.commons.records {
            assert_eq!(r.attempts, 1);
            assert_ne!(r.termination, Terminated::Failed);
        }
    }
}

#[test]
fn recoverable_panics_retry_to_the_same_results() {
    let plan = FaultPlan::new(vec![
        FaultEvent::PanicAt {
            model: 2,
            epoch: 3,
            failures: 2,
        },
        FaultEvent::PanicAt {
            model: 7,
            epoch: 1,
            failures: 1,
        },
    ]);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(2), plan);
    let clean = run(2023, true, &DirectTransport, &FaultTolerance::default());
    let direct = run(2023, true, &DirectTransport, &ft);
    let bus = run(2023, true, &BusTransport, &ft);
    assert_equivalent(&direct, &bus, "recoverable panics");

    // Recovered models replay deterministically, so the epoch trails —
    // and hence epochs.csv — match the fault-free run exactly.
    assert_eq!(epochs_csv(&clean.commons), epochs_csv(&direct.commons));
    assert_eq!(direct.fault_stats.models_failed, 0);
    assert_eq!(direct.fault_stats.models_recovered, 2);
    assert_eq!(direct.fault_stats.retries, 2 + 1);
    for (c, f) in clean.commons.records.iter().zip(&direct.commons.records) {
        // Identical modulo retry accounting and GPU placement (failed
        // attempts occupy cluster slots).
        let mut normalized = f.clone();
        normalized.attempts = c.attempts;
        normalized.gpu = c.gpu;
        assert_eq!(c, &normalized);
    }
    assert_eq!(direct.commons.records[2].attempts, 3);
    assert_eq!(direct.commons.records[7].attempts, 2);
    // Failed attempts are simulated time the cluster actually spends.
    assert!(direct.schedule.total_wall_time() > clean.schedule.total_wall_time());
}

#[test]
fn exhausted_retries_surface_failed_records_with_partial_trails() {
    let plan = FaultPlan::new(vec![FaultEvent::PanicAt {
        model: 4,
        epoch: 5,
        failures: 99,
    }]);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(1), plan);
    let direct = run(2023, true, &DirectTransport, &ft);
    let bus = run(2023, true, &BusTransport, &ft);
    assert_equivalent(&direct, &bus, "exhausted retries");

    let failed = &direct.commons.records[4];
    assert_eq!(failed.termination, Terminated::Failed);
    assert!(failed.failed());
    assert!(!failed.terminated_early());
    assert_eq!(failed.attempts, 2, "both allowed attempts were consumed");
    assert_eq!(failed.final_fitness, 0.0, "failed models are dominated");
    assert!(failed.predicted_fitness.is_none());
    assert_eq!(
        failed.epochs_trained(),
        4,
        "partial trail ends where the final attempt died"
    );
    assert_eq!(direct.fault_stats.models_failed, 1);
    // Every other model is untouched.
    for (k, r) in direct.commons.records.iter().enumerate() {
        if k != 4 {
            assert_ne!(r.termination, Terminated::Failed);
            assert_eq!(r.attempts, 1);
        }
    }
}

#[test]
fn engine_crash_degrades_to_run_to_completion_without_deadlock() {
    let plan = FaultPlan::new(vec![FaultEvent::EngineDrop { model: 3, epoch: 4 }]);
    let ft = FaultTolerance::new(RetryPolicy::default(), plan);
    let direct = run(2023, true, &DirectTransport, &ft);
    let bus = run(2023, true, &BusTransport, &ft);
    assert_equivalent(&direct, &bus, "engine drop");

    let degraded = &direct.commons.records[3];
    assert_eq!(
        degraded.epochs_trained(),
        12,
        "no engine, no early termination: full budget"
    );
    assert!(!degraded.terminated_early());
    assert!(degraded.predicted_fitness.is_none());
    // Epochs from the crash on have no predictions; the trail before the
    // crash keeps whatever the engine produced.
    for e in &degraded.epochs {
        if e.epoch >= 4 {
            assert!(
                e.prediction.is_none(),
                "epoch {} kept a prediction",
                e.epoch
            );
        }
    }
    assert!(direct.fault_stats.is_quiet(), "degradation is not a retry");
}

#[test]
fn stalls_change_no_recorded_byte() {
    let plan = FaultPlan::new(vec![
        FaultEvent::StallFor {
            model: 1,
            epoch: 2,
            millis: 3,
        },
        FaultEvent::StallFor {
            model: 9,
            epoch: 1,
            millis: 2,
        },
    ]);
    let ft = FaultTolerance::new(RetryPolicy::default(), plan);
    let clean = run(2023, true, &DirectTransport, &FaultTolerance::default());
    let direct = run(2023, true, &DirectTransport, &ft);
    let bus = run(2023, true, &BusTransport, &ft);
    assert_equivalent(&direct, &bus, "stalls");
    assert_eq!(clean.commons, direct.commons, "stalls are wall-clock only");
    assert_eq!(
        clean.schedule.total_wall_time(),
        direct.schedule.total_wall_time()
    );
}

#[test]
fn seeded_chaos_plans_keep_both_modes_equivalent() {
    let total_models = 6 + 6 * 2;
    let mut stats_dump = String::from("seed,models_failed,models_recovered,retries\n");
    for seed in [2023u64, 7, 99] {
        let spec = ChaosSpec {
            models: total_models,
            max_epoch: 8,
            max_failures: 3,
            ..ChaosSpec::default()
        };
        let plan = FaultPlan::seeded(seed, &spec);
        assert!(!plan.is_empty(), "chaos plan at seed {seed} is empty");
        // Two retries: plans drawing `failures == 3` produce terminal
        // failures, smaller draws recover — both paths exercised.
        let ft = FaultTolerance::new(RetryPolicy::with_retries(2), plan.clone());
        let direct = run(seed, true, &DirectTransport, &ft);
        let bus = run(seed, true, &BusTransport, &ft);
        assert_equivalent(&direct, &bus, &format!("chaos seed {seed}"));

        // Exact retry accounting: a record's extra attempts must be
        // covered by a PanicAt for that model, and terminally failed
        // records consumed the whole attempt budget.
        for r in &direct.commons.records {
            assert!(r.attempts >= 1 && r.attempts <= 3);
            if r.attempts > 1 {
                let planned = plan.events().iter().any(|e| {
                    matches!(e, FaultEvent::PanicAt { model, failures, .. }
                        if *model == r.model_id && *failures >= r.attempts - 1)
                });
                assert!(
                    planned,
                    "model {} reports {} attempts without a matching fault",
                    r.model_id, r.attempts
                );
            }
            if r.failed() {
                assert_eq!(r.attempts, 3, "failed models exhaust the budget");
                assert_eq!(r.final_fitness, 0.0);
            }
        }
        stats_dump.push_str(&format!(
            "{seed},{},{},{}\n",
            direct.fault_stats.models_failed,
            direct.fault_stats.models_recovered,
            direct.fault_stats.retries,
        ));
    }
    // Leave the accounting behind for CI to attach on failure elsewhere.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("target")
        .join("fault-stats.csv");
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&out, stats_dump).expect("fault stats written");
}

#[test]
fn standalone_runs_survive_trainer_faults_identically() {
    // No engine at all: the fault layer must work without verdicts.
    let plan = FaultPlan::new(vec![
        FaultEvent::PanicAt {
            model: 0,
            epoch: 2,
            failures: 1,
        },
        FaultEvent::PanicAt {
            model: 5,
            epoch: 4,
            failures: 99,
        },
    ]);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(1), plan);
    let direct = run(31, false, &DirectTransport, &ft);
    let bus = run(31, false, &BusTransport, &ft);
    assert_equivalent(&direct, &bus, "standalone faults");
    assert_eq!(direct.commons.records[0].attempts, 2);
    assert_ne!(direct.commons.records[0].termination, Terminated::Failed);
    assert!(direct.commons.records[5].failed());
}

/// The surrogate, except that the first `panicking` trainers it makes
/// for model 3 `panic!` at epoch 2 — an organic crash the fault plan
/// knows nothing about.
struct Model3Panics {
    surrogate: SurrogateFactory,
    panicking: AtomicU32,
}

struct PanicsAtEpoch2(Box<dyn Trainer>);

impl Trainer for PanicsAtEpoch2 {
    fn train_epoch(&mut self, epoch: u32) -> EpochResult {
        if epoch == 2 {
            panic!("organic trainer fault at epoch 2");
        }
        self.0.train_epoch(epoch)
    }

    fn flops(&self) -> f64 {
        self.0.flops()
    }

    fn cost(&self) -> ModelCost {
        self.0.cost()
    }
}

impl TrainerFactory for Model3Panics {
    fn make(&self, genome: &Genome, model_id: u64, seed: u64) -> Box<dyn Trainer> {
        let trainer = self.surrogate.make(genome, model_id, seed);
        let panics = model_id == 3
            && self
                .panicking
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
        if panics {
            Box::new(PanicsAtEpoch2(trainer))
        } else {
            trainer
        }
    }
}

/// Direct and Bus runs (engine on, default retry budget of three
/// attempts) whose model 3 panics organically in its first `panicking`
/// trainers.
fn organic_panic_runs(panicking: u32) -> (RunOutput, RunOutput) {
    let run_on = |transport: &dyn Transport| {
        let cfg = config(2023, true);
        let factory = Model3Panics {
            surrogate: SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam)),
            panicking: AtomicU32::new(panicking),
        };
        run_with(cfg, &factory, transport, &FaultTolerance::default())
    };
    (run_on(&DirectTransport), run_on(&BusTransport))
}

#[test]
fn organic_panic_in_one_attempt_retries_identically_on_both_transports() {
    let (direct, bus) = organic_panic_runs(1);
    assert_equivalent(&direct, &bus, "organic panic, first attempt");
    let clean = run(2023, true, &DirectTransport, &FaultTolerance::default());
    // The retry replays from epoch 1: the dead attempt leaves no epoch
    // behind on either transport.
    assert_eq!(epochs_csv(&clean.commons), epochs_csv(&bus.commons));
    let recovered = &bus.commons.records[3];
    assert_eq!(recovered.attempts, 2);
    assert_ne!(recovered.termination, Terminated::Failed);
    assert_eq!(bus.fault_stats.retries, 1);
}

#[test]
fn organic_panic_in_every_attempt_fails_identically_on_both_transports() {
    let (direct, bus) = organic_panic_runs(u32::MAX);
    assert_equivalent(&direct, &bus, "organic panic, every attempt");
    let failed = &bus.commons.records[3];
    assert!(failed.failed());
    assert_eq!(failed.attempts, 3, "the whole budget was consumed");
    let trail: Vec<u32> = failed.epochs.iter().map(|e| e.epoch).collect();
    assert_eq!(trail, [1], "only the final attempt's partial trail");
}

/// `retries.csv` for chaos seed 7 (recoveries after one and two
/// failures, and models that exhaust the budget) is pinned to a file
/// written before the retry account was derived from the records.
#[test]
fn retries_csv_matches_the_faulted_golden_file() {
    let spec = ChaosSpec {
        models: 6 + 6 * 2,
        max_epoch: 8,
        max_failures: 3,
        ..ChaosSpec::default()
    };
    let ft = FaultTolerance::new(RetryPolicy::with_retries(2), FaultPlan::seeded(7, &spec));
    let golden = include_str!("golden/retries_faulted.csv");
    for transport in [&DirectTransport as &dyn Transport, &BusTransport] {
        let out = run(7, true, transport, &ft);
        assert_eq!(
            retries_csv(&out.commons.records),
            golden,
            "{}",
            transport.name()
        );
    }
}
