//! The socket transport's placement-invariance contract: a distributed
//! run is an *implementation detail*, never an observable one.
//!
//! - At the paper's Table 1/Table 2 configuration, direct, bus, and
//!   socket orchestration produce byte-identical `models.csv` and
//!   `epochs.csv` — for the paper's seed and for a second seed.
//! - A worker that drops its connection mid-generation (the injected
//!   `WorkerDrop` fault) gets its in-flight jobs requeued onto surviving
//!   workers, and the resulting commons is still byte-identical to a
//!   single-worker run and to a direct run.
//! - Worker-side faults never masquerade as trainer failures: only
//!   trainer-retry exhaustion exports `status == failed`.
//! - Losing *every* worker never hangs the coordinator: the heartbeat
//!   deadline detects the loss and the run exits with the `Net` error
//!   class (exit code 9), and a later run on the same transport fails
//!   the same way at once.
//! - Jobs beyond the fleet's slots wait in the coordinator's ready
//!   queue, and the transport counters measure that wait.

use a4nn_core::prelude::*;
use a4nn_core::{SurrogateFactory, SurrogateParams};
use a4nn_faults::FaultEvent;
use a4nn_lineage::{epochs_csv, models_csv};
use a4nn_net::{SocketOptions, SocketTransport, WorkerHandle, WorkerServer};
use std::time::{Duration, Instant};

/// Spawn in-process workers, one session each, advertising `worker_gpus`;
/// returns their handles and addresses.
fn spawn_fleet(worker_gpus: &[usize]) -> (Vec<WorkerHandle>, Vec<String>) {
    let workers: Vec<WorkerHandle> = worker_gpus
        .iter()
        .map(|&gpus| WorkerServer::spawn("127.0.0.1:0", gpus, 1).unwrap())
        .collect();
    let addrs = workers.iter().map(|w| w.addr().to_string()).collect();
    (workers, addrs)
}

/// One search orchestrated over `transport`.
fn search_over(
    config: &WorkflowConfig,
    ft: &FaultTolerance,
    transport: &SocketTransport,
) -> Result<RunOutput, A4nnError> {
    let factory = config.trainer_factory()?;
    A4nnWorkflow::new(config.clone()).run(
        factory.as_ref(),
        RunOptions {
            transport,
            fault_tolerance: ft.clone(),
            ..RunOptions::default()
        },
    )
}

/// Spawn in-process workers, run a socket-orchestrated search against
/// them, and tear the fleet down.
fn socket_run(
    config: &WorkflowConfig,
    ft: &FaultTolerance,
    worker_gpus: &[usize],
    heartbeat_deadline: Duration,
) -> Result<RunOutput, A4nnError> {
    let (workers, addrs) = spawn_fleet(worker_gpus);
    let transport =
        SocketTransport::connect(&addrs, config, ft, SocketOptions { heartbeat_deadline })?;
    let result = search_over(config, ft, &transport);
    drop(transport); // closes every session so the sessions=1 servers exit
    for w in workers {
        let _ = w.join();
    }
    result
}

fn direct_run(config: &WorkflowConfig, ft: &FaultTolerance) -> RunOutput {
    let factory = config.trainer_factory().unwrap();
    A4nnWorkflow::new(config.clone())
        .run(
            factory.as_ref(),
            RunOptions {
                fault_tolerance: ft.clone(),
                ..RunOptions::default()
            },
        )
        .unwrap()
}

fn csvs(out: &RunOutput) -> (String, String) {
    (models_csv(&out.commons), epochs_csv(&out.commons))
}

/// The small fault-suite configuration: quick enough to run several
/// orchestrations per test.
fn micro_config(seed: u64) -> WorkflowConfig {
    WorkflowConfig {
        nas: NasSettings {
            population: 4,
            offspring: 4,
            generations: 2,
            epochs: 8,
            ..NasSettings::paper_defaults()
        },
        engine: Some(EngineConfig {
            e_pred: 8,
            ..EngineConfig::paper_defaults()
        }),
        gpus: 2,
        beam: BeamIntensity::Medium,
        seed,
        objectives: a4nn_core::ObjectiveSet::default(),
        trainer: a4nn_core::TrainerSpec::Surrogate,
    }
}

/// A micro real-training search: 20 images per class, 4 + 4 models of 3
/// epochs, with the measured workspace peak as an objective.
fn real_micro_config(seed: u64) -> WorkflowConfig {
    let mut config = micro_config(seed);
    config.nas.epochs = 3;
    config.engine = Some(EngineConfig {
        e_pred: 3,
        ..EngineConfig::paper_defaults()
    });
    config.objectives = a4nn_core::ObjectiveSet::parse("neg_fitness,flops,peak_ws_bytes").unwrap();
    config.trainer = TrainerSpec::Real {
        images: 20,
        xfel: XfelConfig::default(),
    };
    config
}

/// The records without what real training measures on the wall clock:
/// epoch durations, the model's wall time, and the virtual GPU the
/// scheduler assigns from those times.
fn unmeasured(out: &RunOutput) -> Vec<ModelRecord> {
    let mut records = out.commons.records.clone();
    for r in &mut records {
        r.gpu = None;
        r.wall_time_s = 0.0;
        for e in &mut r.epochs {
            e.duration_s = 0.0;
        }
    }
    records
}

/// `--real` runs over sockets: each worker rebuilds the real trainer,
/// images included, from the shipped configuration, and its records are
/// the direct run's. Every layer trains on its caller's thread, so the
/// two in-process workers (1 and 2 GPUs) train as two separate
/// `a4nn worker` processes would.
#[test]
fn real_training_is_transport_invariant() {
    let config = real_micro_config(7);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(0), FaultPlan::none());
    let direct = unmeasured(&direct_run(&config, &ft));
    assert_eq!(direct.len(), 8);
    let one_gpu = WorkflowConfig {
        gpus: 1,
        ..config.clone()
    };
    assert_eq!(
        direct,
        unmeasured(&direct_run(&one_gpu, &ft)),
        "direct, 1 GPU"
    );
    let socket = socket_run(&config, &ft, &[1, 2], Duration::from_secs(2)).unwrap();
    assert_eq!(direct, unmeasured(&socket), "socket");
}

/// A hardware-aware 3-objective search is transport-invariant too:
/// `neg_fitness,flops,peak_ws_bytes` produces byte-identical commons
/// on the direct, bus, and socket transports, and the export carries
/// the named objective columns. The peak-workspace objective is read
/// from the training substrate itself, so this is the test that proves
/// hardware measurement doesn't leak placement into the search.
#[test]
fn three_objective_search_is_transport_invariant() {
    let mut config = micro_config(2023);
    config.objectives = a4nn_core::ObjectiveSet::parse("neg_fitness,flops,peak_ws_bytes").unwrap();
    let ft = FaultTolerance::new(RetryPolicy::with_retries(0), FaultPlan::none());

    let direct = csvs(&direct_run(&config, &ft));
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
    let bus = csvs(
        &A4nnWorkflow::new(config.clone())
            .run(
                &factory,
                RunOptions {
                    transport: &BusTransport,
                    fault_tolerance: ft.clone(),
                    ..RunOptions::default()
                },
            )
            .unwrap(),
    );
    let socket = csvs(
        &socket_run(&config, &ft, &[2, 2], Duration::from_secs(2))
            .expect("healthy 3-objective socket run succeeds"),
    );

    assert_eq!(direct, bus, "3-objective bus drifted from direct");
    assert_eq!(direct, socket, "3-objective socket drifted from direct");
    let header = direct.0.lines().next().unwrap().to_string();
    assert!(
        header.ends_with("obj_neg_fitness,obj_flops,obj_peak_ws_bytes"),
        "export must carry the named objective columns: {header}"
    );
}

/// Direct == Bus == Socket, byte for byte, at the paper's full Table
/// 1/Table 2 configuration — for the paper's seed and a second seed.
#[test]
fn paper_configuration_is_transport_invariant() {
    for seed in [2023u64, 7] {
        let config = WorkflowConfig::a4nn(BeamIntensity::Medium, 4, seed);
        let ft = FaultTolerance::new(RetryPolicy::with_retries(0), FaultPlan::none());

        let direct = csvs(&direct_run(&config, &ft));
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
        let bus = csvs(
            &A4nnWorkflow::new(config.clone())
                .run(
                    &factory,
                    RunOptions {
                        transport: &BusTransport,
                        fault_tolerance: ft.clone(),
                        ..RunOptions::default()
                    },
                )
                .unwrap(),
        );
        let socket = csvs(
            &socket_run(&config, &ft, &[2, 2], Duration::from_secs(2))
                .expect("healthy socket run succeeds"),
        );

        assert_eq!(direct, bus, "seed {seed}: bus drifted from direct");
        assert_eq!(direct, socket, "seed {seed}: socket drifted from direct");
    }
}

/// A worker that severs its connection mid-generation loses nothing:
/// the coordinator requeues its in-flight jobs onto the survivor, and
/// the commons stays byte-identical to a single-worker run and to a
/// direct run — which also proves worker-side faults are invisible to
/// in-process transports.
#[test]
fn dropped_worker_requeues_without_perturbing_the_commons() {
    let config = micro_config(2023);
    // Drop the connection holding model 5 on its first dispatch; the
    // retry lands on the surviving worker.
    let drop_plan = FaultPlan::new(vec![FaultEvent::WorkerDrop {
        model: 5,
        epoch: 1,
        drops: 1,
    }]);
    let ft_drop = FaultTolerance::new(RetryPolicy::with_retries(0), drop_plan);
    let ft_clean = FaultTolerance::new(RetryPolicy::with_retries(0), FaultPlan::none());

    let faulted = socket_run(&config, &ft_drop, &[2, 2], Duration::from_secs(2))
        .expect("the surviving worker absorbs the requeued jobs");
    let single = socket_run(&config, &ft_clean, &[2], Duration::from_secs(2))
        .expect("single-worker run succeeds");
    let direct = direct_run(&config, &ft_drop);

    assert_eq!(
        csvs(&faulted),
        csvs(&single),
        "requeued jobs drifted from the single-worker commons"
    );
    assert_eq!(
        csvs(&faulted),
        csvs(&direct),
        "worker-side faults must be invisible to the direct transport"
    );
    assert!(
        faulted.transport_stats.retries > 0,
        "the dropped dispatch must be visible in the transport counters"
    );
    assert_eq!(faulted.transport_stats.transport, "socket");
}

/// Failure taxonomy over the wire: a trainer that exhausts its retry
/// budget on a worker comes back as data (`status == failed`), while a
/// dropped connection on another model requeues and completes — and the
/// whole run still matches direct byte for byte.
#[test]
fn trainer_exhaustion_is_data_and_worker_drops_are_not() {
    let config = micro_config(2023);
    let plan = FaultPlan::new(vec![
        FaultEvent::PanicAt {
            model: 2,
            epoch: 3,
            failures: 99,
        },
        FaultEvent::WorkerDrop {
            model: 6,
            epoch: 1,
            drops: 1,
        },
    ]);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(1), plan);

    let socket = socket_run(&config, &ft, &[2, 2], Duration::from_secs(2))
        .expect("trainer panics and one dropped worker are both survivable");
    let direct = direct_run(&config, &ft);
    assert_eq!(csvs(&socket), csvs(&direct));

    let models = models_csv(&socket.commons);
    let status_of = |id: &str| {
        let row = models
            .lines()
            .find(|l| l.starts_with(&format!("{id},")))
            .unwrap_or_else(|| panic!("model {id} exported"));
        row.split(',').nth(12).unwrap().to_string()
    };
    assert_eq!(status_of("2"), "failed", "retry exhaustion is data");
    assert_ne!(
        status_of("6"),
        "failed",
        "a dropped connection must not export as a trainer failure"
    );
}

/// Losing every worker aborts instead of hanging: each dispatch is
/// dropped until the whole fleet is dead, the heartbeat deadline bounds
/// detection, and the run exits with the `Net` class (exit code 9).
#[test]
fn losing_every_worker_exits_with_the_net_error_class() {
    let config = micro_config(2023);
    let plan = FaultPlan::new(vec![FaultEvent::WorkerDrop {
        model: 0,
        epoch: 1,
        drops: 99,
    }]);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(0), plan);

    let started = Instant::now();
    let err = match socket_run(&config, &ft, &[1, 1], Duration::from_millis(500)) {
        Err(e) => e,
        Ok(_) => panic!("a fleet that always drops model 0 cannot finish"),
    };
    assert_eq!(err.exit_code(), 9, "worker loss is Net-class: {err}");
    assert!(
        started.elapsed() < Duration::from_secs(30),
        "coordinator must abort promptly, not hang ({:?})",
        started.elapsed()
    );
}

/// A worker stalling past the heartbeat deadline is declared dead within
/// it — silence, not just disconnection, is detected — and with no
/// survivor to requeue onto, the run aborts with the `Net` class.
#[test]
fn heartbeat_deadline_detects_a_stalled_worker() {
    let config = WorkflowConfig {
        nas: NasSettings {
            population: 3,
            offspring: 3,
            generations: 1,
            epochs: 4,
            ..NasSettings::paper_defaults()
        },
        engine: None,
        gpus: 1,
        beam: BeamIntensity::Medium,
        seed: 2023,
        objectives: a4nn_core::ObjectiveSet::default(),
        trainer: a4nn_core::TrainerSpec::Surrogate,
    };
    // Mute heartbeats for 4 s against a 250 ms deadline; the stall
    // re-fires wherever the job lands, so both workers eventually die.
    let plan = FaultPlan::new(vec![FaultEvent::WorkerStall {
        model: 1,
        epoch: 1,
        millis: 4_000,
    }]);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(0), plan);

    // Not `socket_run`: the elapsed time must cover only the
    // coordinator's abort, not the teardown join that waits out the
    // stalled worker's sleep.
    let (_workers, addrs) = spawn_fleet(&[1, 1]);
    let started = Instant::now();
    let transport = SocketTransport::connect(
        &addrs,
        &config,
        &ft,
        SocketOptions {
            heartbeat_deadline: Duration::from_millis(250),
        },
    )
    .unwrap();
    let err = match search_over(&config, &ft, &transport) {
        Err(e) => e,
        Ok(_) => panic!("a stall that follows the job everywhere exhausts the fleet"),
    };
    let elapsed = started.elapsed();
    assert_eq!(err.exit_code(), 9, "stalled workers are Net-class: {err}");
    // Two sequential detections at ~250 ms each plus slack: far below
    // the 4 s the stall itself would take if the deadline didn't fire.
    assert!(
        elapsed < Duration::from_secs(3),
        "detection must come from the heartbeat deadline, not the stall \
         ending ({elapsed:?})"
    );
}

/// Trainer retries count on the socket transport as on Direct: under a
/// plan of trainer panics alone, the run-level counters agree.
#[test]
fn trainer_retries_count_on_the_socket_transport_as_on_direct() {
    use a4nn_metrics::names;
    let config = micro_config(2023);
    let plan = FaultPlan::new(vec![
        FaultEvent::PanicAt {
            model: 2,
            epoch: 3,
            failures: 2,
        },
        FaultEvent::PanicAt {
            model: 5,
            epoch: 1,
            failures: 1,
        },
    ]);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(2), plan);
    let socket = socket_run(&config, &ft, &[2, 2], Duration::from_secs(2))
        .expect("trainer panics are survivable over sockets");
    let direct = direct_run(&config, &ft);
    for name in [
        names::JOBS_DISPATCHED,
        names::RETRIES,
        names::EPOCHS_TRAINED,
        names::EARLY_TERMINATIONS,
        names::MODELS_FAILED,
        names::GENERATIONS,
    ] {
        assert_eq!(
            socket.metrics.counter(name),
            direct.metrics.counter(name),
            "counter {name} diverged"
        );
    }
    assert_eq!(socket.transport_stats.retries, 3);
}

/// With more jobs per generation than worker slots, jobs wait in the
/// coordinator's ready queue for a free slot, and the transport counters
/// measure that wait: it is nonzero and, on average, no longer than the
/// whole run.
#[test]
fn queue_wait_is_measured_when_jobs_outnumber_worker_slots() {
    let config = micro_config(2023);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(0), FaultPlan::none());
    let started = Instant::now();
    // One slot for the 4 jobs of each generation.
    let out = socket_run(&config, &ft, &[1], Duration::from_secs(2))
        .expect("a single-slot fleet trains every job in turn");
    let wall_s = started.elapsed().as_secs_f64();
    let stats = &out.transport_stats;
    assert!(
        stats.queue_wait_max_s > 0.0,
        "jobs behind a busy slot must show a queue wait: {stats:?}"
    );
    assert!(
        stats.queue_wait_mean_s <= wall_s,
        "mean queue wait {} s exceeds the run's {wall_s} s",
        stats.queue_wait_mean_s
    );
}

/// A run that failed with the `Net` class leaves its transport retired:
/// a second run on it fails `Net` at once instead of waiting on a dead
/// fleet or collecting an answer the first run left behind.
#[test]
fn a_failed_run_leaves_its_transport_failing_fast() {
    let config = micro_config(2023);
    let plan = FaultPlan::new(vec![FaultEvent::WorkerDrop {
        model: 0,
        epoch: 1,
        drops: 99,
    }]);
    let ft = FaultTolerance::new(RetryPolicy::with_retries(0), plan);
    let deadline = Duration::from_millis(500);
    let (workers, addrs) = spawn_fleet(&[1, 1]);
    let transport = SocketTransport::connect(
        &addrs,
        &config,
        &ft,
        SocketOptions {
            heartbeat_deadline: deadline,
        },
    )
    .unwrap();
    let run = || match search_over(&config, &ft, &transport) {
        Err(e) => e,
        Ok(_) => panic!("a fleet that always drops model 0 cannot finish"),
    };
    let first = run();
    assert_eq!(first.exit_code(), 9, "worker loss is Net-class: {first}");
    let started = Instant::now();
    let second = run();
    let elapsed = started.elapsed();
    assert_eq!(
        second.exit_code(),
        9,
        "a retired fleet is Net-class: {second}"
    );
    assert!(
        elapsed < deadline,
        "the second run must fail without waiting on the fleet ({elapsed:?})"
    );
    drop(transport);
    for w in workers {
        let _ = w.join();
    }
}
