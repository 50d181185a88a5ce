//! The crash-determinism contract: interrupting a search at *any*
//! generation boundary and resuming it from the committed snapshot
//! reproduces the uninterrupted run byte for byte.
//!
//! For seeds 2023 (the paper's) and 7, under all three orchestrations
//! (direct, bus, socket), and for aging evolution at seed 2023 over
//! direct and socket, the harness:
//!
//! 1. runs the search once, uninterrupted, to capture the golden
//!    `models.csv` / `epochs.csv` bytes and the deterministic metric
//!    counters;
//! 2. for every boundary `b` in `1..=generations`, runs again with a
//!    cancel hook that stops at `b` (the in-process analogue of SIGKILL
//!    — the snapshot is already committed when the hook fires), asserts
//!    the interruption surfaces as exit code 10 and that the directory
//!    already holds the golden run's committed records as a loadable
//!    commons (and no second copy in the state file), then resumes from
//!    the snapshot directory and diffs the merged output against gold.
//!
//! Boundary `generations` is deliberately included: resuming a search
//! whose last generation already committed must run zero loop
//! iterations and still rebuild identical outputs from restored state.
//!
//! The stale-snapshot path is pinned too: resuming under a different
//! configuration is a `Checkpoint` error (exit 5) naming both hashes, and
//! so is resuming under a different driver.

use a4nn_core::prelude::*;
use a4nn_core::{SurrogateFactory, SurrogateParams};
use a4nn_lineage::{epochs_csv, models_csv, retries_csv, DataCommons};
use a4nn_metrics::names;
use a4nn_net::{SocketOptions, SocketTransport, WorkerHandle, WorkerServer};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Quick-but-nontrivial search: 3 generations so the harness exercises
/// an early, a middle, and the final boundary; the engine is on so
/// early-termination decisions cross boundaries too.
fn micro_config(seed: u64) -> WorkflowConfig {
    WorkflowConfig {
        nas: NasSettings {
            population: 4,
            offspring: 4,
            generations: 3,
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

fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("a4nn-resume-eq-{tag}-{}", std::process::id()))
}

fn csvs(out: &RunOutput) -> (String, String) {
    (models_csv(&out.commons), epochs_csv(&out.commons))
}

/// The metric counters that must be deterministic per seed (wall-time
/// histograms are excluded by design).
const DETERMINISTIC_COUNTERS: &[&str] = &[
    names::JOBS_DISPATCHED,
    names::EPOCHS_TRAINED,
    names::EARLY_TERMINATIONS,
    names::MODELS_FAILED,
    names::GENERATIONS,
];

#[derive(Clone, Copy)]
enum Mode {
    Direct,
    Bus,
    Socket,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Direct => "direct",
            Mode::Bus => "bus",
            Mode::Socket => "socket",
        }
    }
}

/// Run the NSGA-II search in `mode`, snapshotting into `snapshot_dir`
/// under `cancel`, optionally resuming from `snapshot`.
fn run_mode(
    config: &WorkflowConfig,
    mode: Mode,
    snapshot_dir: Option<&Path>,
    cancel: Option<&CancelHook<'_>>,
    snapshot: Option<SearchSnapshot>,
) -> Result<RunOutput, A4nnError> {
    run_driver(config, Driver::Nsga2, mode, snapshot_dir, cancel, snapshot)
}

/// Run `driver`'s search in `mode`, snapshotting into `snapshot_dir`
/// under `cancel`, optionally resuming from `snapshot`. Socket mode spawns a fresh two-worker fleet per call
/// — resume must not depend on transport-side state surviving the kill.
fn run_driver(
    config: &WorkflowConfig,
    driver: Driver,
    mode: Mode,
    snapshot_dir: Option<&Path>,
    cancel: Option<&CancelHook<'_>>,
    snapshot: Option<SearchSnapshot>,
) -> Result<RunOutput, A4nnError> {
    let factory = config.trainer_factory()?;
    let factory = factory.as_ref();
    let workflow = A4nnWorkflow::new(config.clone());
    let options = |transport| RunOptions {
        driver,
        transport,
        snapshot_dir: snapshot_dir.map(Path::to_path_buf),
        cancel,
        resume: snapshot,
        ..RunOptions::default()
    };
    match mode {
        Mode::Direct => workflow.run(factory, options(&DirectTransport as &dyn Transport)),
        Mode::Bus => workflow.run(factory, options(&BusTransport)),
        Mode::Socket => {
            let workers: Vec<WorkerHandle> = (0..2)
                .map(|_| WorkerServer::spawn("127.0.0.1:0", 1, 1).unwrap())
                .collect();
            let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
            let transport = SocketTransport::connect(
                &addrs,
                config,
                &FaultTolerance::default(),
                SocketOptions {
                    heartbeat_deadline: Duration::from_secs(2),
                },
            )?;
            let result = workflow.run(factory, options(&transport));
            drop(transport);
            for w in workers {
                let _ = w.join();
            }
            result
        }
    }
}

/// Interrupt `driver`'s search at every boundary, resume, and diff
/// against gold.
fn assert_resume_equivalent(driver: Driver, mode: Mode, seed: u64) {
    let config = micro_config(seed);
    let golden = run_driver(&config, driver, mode, None, None, None)
        .unwrap_or_else(|e| panic!("{} seed {seed}: golden run failed: {e}", mode.label()));
    let golden_csvs = csvs(&golden);
    let driver_tag = format!("{driver:?}").replace(|c: char| !c.is_alphanumeric(), "");

    for boundary in 1..=config.nas.generations {
        let dir = tmp_dir(&format!("{}-{driver_tag}-{seed}-b{boundary}", mode.label()));
        std::fs::remove_dir_all(&dir).ok();

        // Phase 1: run with a cancel hook that "kills" the process at
        // this boundary. The snapshot commits *before* the hook fires.
        let cancel = move |done: usize| done == boundary;
        let err = match run_driver(&config, driver, mode, Some(&dir), Some(&cancel), None) {
            Err(e) => e,
            Ok(_) => panic!(
                "{} seed {seed}: cancel at boundary {boundary} must interrupt the run",
                mode.label()
            ),
        };
        assert_eq!(
            err.exit_code(),
            10,
            "{} seed {seed} boundary {boundary}: interruption is exit 10: {err}",
            mode.label()
        );

        // The killed run directory is already a committed commons: the
        // golden run's first `n_b` records, stored once, outside the
        // state file.
        let n_b = config.nas.population + (boundary - 1) * config.nas.offspring;
        let on_disk = DataCommons::load_dir(&dir).unwrap_or_else(|e| {
            panic!(
                "{} seed {seed} boundary {boundary}: the killed run's commons loads: {e}",
                mode.label()
            )
        });
        assert_eq!(
            on_disk.records,
            golden.commons.records[..n_b],
            "{} seed {seed} boundary {boundary}: the commons holds the committed records",
            mode.label()
        );
        let state =
            std::fs::read_to_string(dir.join(format!("search_state_g{boundary:04}.json"))).unwrap();
        assert!(
            !state.contains("\"records\""),
            "{} seed {seed} boundary {boundary}: the state file holds no second copy",
            mode.label()
        );

        // Phase 2: a fresh "process" loads the committed snapshot and
        // resumes — still snapshotting, as the CLI would.
        let snap = SearchSnapshot::load(&dir, &config).unwrap_or_else(|e| {
            panic!(
                "{} seed {seed} boundary {boundary}: committed snapshot loads: {e}",
                mode.label()
            )
        });
        assert_eq!(snap.generations_done, boundary);
        let resumed = run_driver(&config, driver, mode, Some(&dir), None, Some(snap))
            .unwrap_or_else(|e| {
                panic!(
                    "{} seed {seed} boundary {boundary}: resume failed: {e}",
                    mode.label()
                )
            });

        assert_eq!(
            golden_csvs,
            csvs(&resumed),
            "{} seed {seed}: resume from boundary {boundary} drifted from the golden run",
            mode.label()
        );
        assert_eq!(
            golden.commons,
            resumed.commons,
            "{} seed {seed} boundary {boundary}: commons differ",
            mode.label()
        );
        for name in DETERMINISTIC_COUNTERS {
            assert_eq!(
                golden.metrics.counter(name),
                resumed.metrics.counter(name),
                "{} seed {seed} boundary {boundary}: counter {name} drifted",
                mode.label()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn direct_resume_is_bit_exact_across_all_boundaries() {
    for seed in [2023u64, 7] {
        assert_resume_equivalent(Driver::Nsga2, Mode::Direct, seed);
    }
}

#[test]
fn bus_resume_is_bit_exact_across_all_boundaries() {
    for seed in [2023u64, 7] {
        assert_resume_equivalent(Driver::Nsga2, Mode::Bus, seed);
    }
}

#[test]
fn socket_resume_is_bit_exact_across_all_boundaries() {
    for seed in [2023u64, 7] {
        assert_resume_equivalent(Driver::Nsga2, Mode::Socket, seed);
    }
}

/// Aging evolution's survivors are its queue, rebuilt from the records on
/// resume: every boundary resumes to the uninterrupted run.
const AGING: Driver = Driver::AgingEvolution { sample_size: 3 };

#[test]
fn aging_evolution_resume_is_equivalent_direct() {
    assert_resume_equivalent(AGING, Mode::Direct, 2023);
}

#[test]
fn aging_evolution_resume_is_equivalent_socket() {
    assert_resume_equivalent(AGING, Mode::Socket, 2023);
}

/// A snapshot searched by aging evolution cannot continue as NSGA-II:
/// the run refuses it as stale, `Checkpoint` class, exit 5.
#[test]
fn resuming_under_a_different_driver_is_refused_with_exit_5() {
    let config = micro_config(2023);
    let dir = tmp_dir("stale-driver");
    std::fs::remove_dir_all(&dir).ok();
    let cancel = |done: usize| done == 1;
    let err = run_driver(
        &config,
        AGING,
        Mode::Direct,
        Some(&dir),
        Some(&cancel),
        None,
    )
    .unwrap_err();
    assert_eq!(err.exit_code(), 10);

    let snap = SearchSnapshot::load(&dir, &config).unwrap();
    assert_eq!(snap.driver, AGING);
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
    let options = RunOptions {
        resume: Some(snap),
        ..RunOptions::default()
    };
    let err = A4nnWorkflow::new(config.clone())
        .run(&factory, options)
        .unwrap_err();
    assert!(matches!(err, A4nnError::Checkpoint(_)), "got {err}");
    assert_eq!(err.exit_code(), 5);
    assert!(err.to_string().contains("stale snapshot"), "got {err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Cross-transport resume: a snapshot committed under one transport
/// resumes under another and still matches gold — the snapshot is the
/// whole state, not a transport-private artifact.
#[test]
fn snapshot_committed_on_bus_resumes_on_direct() {
    let config = micro_config(2023);
    let golden = run_mode(&config, Mode::Direct, None, None, None).unwrap();
    let dir = tmp_dir("cross-transport");
    std::fs::remove_dir_all(&dir).ok();

    let cancel = |done: usize| done == 2;
    let err = run_mode(&config, Mode::Bus, Some(&dir), Some(&cancel), None).unwrap_err();
    assert_eq!(err.exit_code(), 10);

    let snap = SearchSnapshot::load(&dir, &config).unwrap();
    let resumed = run_mode(&config, Mode::Direct, None, None, Some(snap)).unwrap();
    assert_eq!(csvs(&golden), csvs(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

/// Resuming under a different configuration is refused as a stale
/// snapshot: `Checkpoint` class, exit 5, both fingerprints named.
#[test]
fn stale_snapshot_is_refused_with_exit_5() {
    let config = micro_config(2023);
    let dir = tmp_dir("stale");
    std::fs::remove_dir_all(&dir).ok();

    let cancel = |done: usize| done == 1;
    let err = run_mode(&config, Mode::Direct, Some(&dir), Some(&cancel), None).unwrap_err();
    assert_eq!(err.exit_code(), 10);

    let mut other = config.clone();
    other.seed = 7;
    let err = SearchSnapshot::load(&dir, &other).unwrap_err();
    assert_eq!(
        err.exit_code(),
        5,
        "stale snapshot is Checkpoint-class: {err}"
    );
    let msg = err.to_string();
    assert!(
        msg.contains("stale snapshot"),
        "error names the failure mode: {msg}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A 3-objective search survives the kill/resume cycle bit-exactly on
/// every transport: the snapshot carries the objective names and the
/// hardware-objective values, so a resumed search reproduces the same
/// Pareto pressure the killed one was applying.
#[test]
fn three_objective_resume_is_bit_exact_across_transports() {
    let mut config = micro_config(2023);
    config.objectives = a4nn_core::ObjectiveSet::parse("neg_fitness,flops,peak_ws_bytes").unwrap();
    for mode in [Mode::Direct, Mode::Bus, Mode::Socket] {
        let golden = run_mode(&config, mode, None, None, None)
            .unwrap_or_else(|e| panic!("{}: 3-objective golden run failed: {e}", mode.label()));
        let dir = tmp_dir(&format!("3obj-{}", mode.label()));
        std::fs::remove_dir_all(&dir).ok();

        let cancel = |done: usize| done == 2;
        let err = run_mode(&config, mode, Some(&dir), Some(&cancel), None).unwrap_err();
        assert_eq!(err.exit_code(), 10);

        let snap = SearchSnapshot::load(&dir, &config).unwrap();
        let resumed = run_mode(&config, mode, None, None, Some(snap)).unwrap();
        assert_eq!(
            csvs(&golden),
            csvs(&resumed),
            "{}: 3-objective resume drifted from the golden run",
            mode.label()
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A real-training search resumes to its uninterrupted run on the direct
/// and socket transports: no weights cross a boundary, so the resumed
/// half needs only the images, which its `TrainerSpec` regenerates. The
/// fields real training measures on the wall clock are left out of the
/// comparison. A resume that names another image count is refused
/// (exit 5).
#[test]
fn real_training_resume_is_equivalent() {
    let mut config = micro_config(7);
    config.nas.generations = 2;
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
    let unmeasured = |out: &RunOutput| {
        let mut records = out.commons.records.clone();
        for r in &mut records {
            r.gpu = None;
            r.wall_time_s = 0.0;
            for e in &mut r.epochs {
                e.duration_s = 0.0;
            }
        }
        records
    };
    let golden = unmeasured(&run_mode(&config, Mode::Direct, None, None, None).unwrap());
    assert_eq!(golden.len(), 8);
    for mode in [Mode::Direct, Mode::Socket] {
        let dir = tmp_dir(&format!("real-{}", mode.label()));
        std::fs::remove_dir_all(&dir).ok();
        let cancel = |done: usize| done == 1;
        let err = run_mode(&config, mode, Some(&dir), Some(&cancel), None).unwrap_err();
        assert_eq!(err.exit_code(), 10);

        let snap = SearchSnapshot::load(&dir, &config).unwrap();
        assert_eq!(snap.trainer, config.trainer);
        let resumed = run_mode(&config, mode, Some(&dir), None, Some(snap)).unwrap();
        assert_eq!(golden, unmeasured(&resumed), "{}", mode.label());

        // The fingerprint leaves the trainer out; the run refuses it.
        let other = WorkflowConfig {
            trainer: TrainerSpec::Real {
                images: 21,
                xfel: XfelConfig::default(),
            },
            ..config.clone()
        };
        let snap = SearchSnapshot::load(&dir, &other).unwrap();
        let err = run_mode(&other, Mode::Direct, None, None, Some(snap)).unwrap_err();
        assert_eq!(err.exit_code(), 5, "{err}");
        assert!(err.to_string().contains("stale snapshot"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Changing `--objectives` between kill and resume is refused as a
/// stale snapshot (exit 5): the archive's objective vectors are only
/// meaningful under the set that produced them.
#[test]
fn changed_objectives_on_resume_are_refused_with_exit_5() {
    let config = micro_config(2023);
    let dir = tmp_dir("stale-objectives");
    std::fs::remove_dir_all(&dir).ok();

    let cancel = |done: usize| done == 1;
    let err = run_mode(&config, Mode::Direct, Some(&dir), Some(&cancel), None).unwrap_err();
    assert_eq!(err.exit_code(), 10);

    let mut widened = config.clone();
    widened.objectives = a4nn_core::ObjectiveSet::parse("neg_fitness,flops,peak_ws_bytes").unwrap();
    let err = SearchSnapshot::load(&dir, &widened).unwrap_err();
    assert_eq!(
        err.exit_code(),
        5,
        "changed objective set is Checkpoint-class: {err}"
    );
    assert!(
        err.to_string().contains("stale snapshot"),
        "error names the failure mode: {err}"
    );
    // The unchanged set still loads.
    assert!(SearchSnapshot::load(&dir, &config).is_ok());
    std::fs::remove_dir_all(&dir).ok();
}

/// Direct search whose model 1 (generation 0) panics once at epoch 2
/// and retries, snapshotting into `snapshot_dir` under `cancel`,
/// optionally resuming from `snapshot`.
fn run_with_one_retry(
    config: &WorkflowConfig,
    snapshot_dir: Option<&Path>,
    cancel: Option<&CancelHook<'_>>,
    snapshot: Option<SearchSnapshot>,
) -> Result<RunOutput, A4nnError> {
    use a4nn_faults::FaultEvent;
    let plan = FaultPlan::new(vec![FaultEvent::PanicAt {
        model: 1,
        epoch: 2,
        failures: 1,
    }]);
    let factory = SurrogateFactory::new(config, SurrogateParams::for_beam(config.beam));
    A4nnWorkflow::new(config.clone()).run(
        &factory,
        RunOptions {
            fault_tolerance: FaultTolerance::new(RetryPolicy::with_retries(2), plan),
            snapshot_dir: snapshot_dir.map(Path::to_path_buf),
            cancel,
            resume: snapshot,
            ..RunOptions::default()
        },
    )
}

/// Interrupt [`run_with_one_retry`] at boundary 1 and resume it in a
/// fresh directory tagged `tag`: `(golden, resumed)`.
fn golden_and_resumed_from_boundary_1(tag: &str) -> (RunOutput, RunOutput) {
    let config = micro_config(2023);
    let golden = run_with_one_retry(&config, None, None, None).unwrap();
    let dir = tmp_dir(tag);
    std::fs::remove_dir_all(&dir).ok();
    let cancel = |done: usize| done == 1;
    let err = run_with_one_retry(&config, Some(&dir), Some(&cancel), None).unwrap_err();
    assert_eq!(err.exit_code(), 10);

    let snap = SearchSnapshot::load(&dir, &config).unwrap();
    let resumed = run_with_one_retry(&config, None, None, Some(snap)).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    (golden, resumed)
}

/// The retry account survives the boundary: a model that consumed
/// retries before the interruption still reports them after resume.
#[test]
fn retry_account_carries_across_resume() {
    let (golden, resumed) = golden_and_resumed_from_boundary_1("ledger");
    assert!(
        golden.fault_stats.retries > 0,
        "the injected panic must consume a retry"
    );
    assert_eq!(
        retries_csv(&golden.commons.records),
        retries_csv(&resumed.commons.records),
        "the retry ledger must survive the interruption byte for byte"
    );
    assert_eq!(
        golden.metrics.counter(names::RETRIES),
        resumed.metrics.counter(names::RETRIES)
    );
}

/// The transport stats are the metrics registry's counters, so after a
/// resume they cover both halves of the run, like `metrics.csv` does.
#[test]
fn transport_stats_count_both_halves_of_a_resumed_run() {
    let (golden, resumed) = golden_and_resumed_from_boundary_1("stats");
    let stats = &resumed.transport_stats;
    assert_eq!(
        stats.jobs_dispatched,
        resumed.metrics.counter(names::JOBS_DISPATCHED)
    );
    assert_eq!(
        stats.jobs_dispatched,
        golden.transport_stats.jobs_dispatched
    );
    assert_eq!(stats.retries, resumed.metrics.counter(names::RETRIES));
    assert_eq!(stats.retries, golden.transport_stats.retries);
    assert!(stats.retries > 0, "the first half's retry is counted");
}

/// A snapshot written before the retry account moved into the records
/// carries a `retries` key; it still loads and resumes to the golden run.
#[test]
fn snapshot_with_a_retries_key_still_loads() {
    let config = micro_config(2023);
    let golden = run_mode(&config, Mode::Direct, None, None, None).unwrap();
    let dir = tmp_dir("retries-key");
    std::fs::remove_dir_all(&dir).ok();
    let cancel = |done: usize| done == 1;
    let err = run_mode(&config, Mode::Direct, Some(&dir), Some(&cancel), None).unwrap_err();
    assert_eq!(err.exit_code(), 10);

    // The older writer's shape: one entry per model of generation 0.
    let state = dir.join("search_state_g0001.json");
    let json = std::fs::read_to_string(&state).unwrap();
    let entries: Vec<String> = (0..4)
        .map(|id| {
            format!(r#"{{"model_id": {id}, "generation": 0, "attempts": 1, "failed": false}}"#)
        })
        .collect();
    let legacy = json.replacen(
        '{',
        &format!(r#"{{"retries": {{"entries": [{}]}},"#, entries.join(", ")),
        1,
    );
    assert_ne!(legacy, json);
    std::fs::write(&state, legacy).unwrap();

    let snap = SearchSnapshot::load(&dir, &config).expect("a retries key is ignored");
    let resumed = run_mode(&config, Mode::Direct, None, None, Some(snap)).unwrap();
    assert_eq!(csvs(&golden), csvs(&resumed));
    std::fs::remove_dir_all(&dir).ok();
}

/// A snapshot whose survivor indices point past its records (a tampered
/// or torn state file) is refused as a `Checkpoint` error instead of
/// panicking the resumed search.
#[test]
fn survivors_outside_the_records_are_refused_with_exit_5() {
    let config = micro_config(2023);
    let dir = tmp_dir("bad-parents");
    std::fs::remove_dir_all(&dir).ok();
    let cancel = |done: usize| done == 1;
    let err = run_mode(&config, Mode::Direct, Some(&dir), Some(&cancel), None).unwrap_err();
    assert_eq!(err.exit_code(), 10);

    let state = dir.join("search_state_g0001.json");
    let json = std::fs::read_to_string(&state).unwrap();
    let start = json.find("\"parents\": [").unwrap();
    let end = start + json[start..].find(']').unwrap() + 1;
    let tampered = format!("{}\"parents\": [999]{}", &json[..start], &json[end..]);
    std::fs::write(&state, tampered).unwrap();

    let snap = SearchSnapshot::load(&dir, &config).unwrap();
    let err = run_mode(&config, Mode::Direct, None, None, Some(snap)).unwrap_err();
    assert!(matches!(err, A4nnError::Checkpoint(_)), "got {err}");
    assert_eq!(err.exit_code(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

/// A manifest whose `state_file` leaves the run directory — here by
/// absolute path, to a valid state file of the same configuration — is
/// refused: a resume reads only its own run directory.
#[test]
fn state_file_outside_the_run_directory_is_refused_with_exit_5() {
    let config = micro_config(2023);
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_snapshot");
    let foreign = fixture.join("search_state_g0001.json");
    let foreign = serde_json::to_string(&foreign.to_str().unwrap()).unwrap();
    let manifest = std::fs::read_to_string(fixture.join("resume_manifest.json"))
        .unwrap()
        .replace("\"search_state_g0001.json\"", &foreign);
    let dir = tmp_dir("foreign-state");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("resume_manifest.json"), manifest).unwrap();

    let err = SearchSnapshot::load(&dir, &config).unwrap_err();
    assert!(matches!(err, A4nnError::Checkpoint(_)), "got {err}");
    assert_eq!(err.exit_code(), 5);
    std::fs::remove_dir_all(&dir).ok();
}

/// A boundary-1 snapshot of `micro_config(2023)` written before the
/// snapshot stopped storing the archive, the duplicate filter and the id
/// counter: those keys are ignored, the state is rebuilt from the
/// records, and the resumed run equals the uninterrupted one.
#[test]
fn snapshot_written_with_archive_seen_and_next_id_still_resumes() {
    let config = micro_config(2023);
    let fixture = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_snapshot");
    let state = std::fs::read_to_string(fixture.join("search_state_g0001.json")).unwrap();
    for key in ["\"archive\"", "\"seen\"", "\"next_id\""] {
        assert!(state.contains(key), "the fixture carries {key}");
    }
    let golden = run_mode(&config, Mode::Direct, None, None, None).unwrap();
    let snap = SearchSnapshot::load(&fixture, &config).expect("the older keys are ignored");
    let resumed = run_mode(&config, Mode::Direct, None, None, Some(snap)).unwrap();
    assert_eq!(csvs(&golden), csvs(&resumed));
    assert_eq!(golden.commons, resumed.commons);
}

/// Interrupt a direct search of `config` at `boundary`, committing into
/// `dir`.
fn interrupt_at(config: &WorkflowConfig, boundary: usize, dir: &std::path::Path) {
    std::fs::remove_dir_all(dir).ok();
    let cancel = move |done: usize| done == boundary;
    let err = run_mode(config, Mode::Direct, Some(dir), Some(&cancel), None).unwrap_err();
    assert_eq!(err.exit_code(), 10, "{err}");
}

/// A commons damaged under a committed snapshot — a record file deleted,
/// torn, or holding another model — is refused as a `Checkpoint` error
/// (exit 5), by the loader or by the resume's id check, never a panic.
#[test]
fn damaged_committed_model_file_is_refused_with_exit_5() {
    let config = micro_config(2023);
    for tag in ["deleted", "torn", "another-id"] {
        let dir = tmp_dir(&format!("damaged-{tag}"));
        interrupt_at(&config, 1, &dir);
        let model_1 = dir.join("model_00001.json");
        match tag {
            "deleted" => std::fs::remove_file(&model_1).unwrap(),
            "torn" => std::fs::write(&model_1, b"{ torn").unwrap(),
            _ => std::fs::copy(dir.join("model_00002.json"), &model_1)
                .map(drop)
                .unwrap(),
        }
        let err = match SearchSnapshot::load(&dir, &config) {
            Err(e) => e,
            Ok(snap) => run_mode(&config, Mode::Direct, None, None, Some(snap))
                .expect_err("a damaged commons must not resume"),
        };
        assert!(matches!(err, A4nnError::Checkpoint(_)), "{tag}: got {err}");
        assert_eq!(err.exit_code(), 5, "{tag}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A run resumed into a directory other than the one it was interrupted
/// in writes the whole commons there, the loaded records included — also
/// when the snapshot was the last boundary and no generation runs.
#[test]
fn resume_into_another_directory_commits_the_whole_commons() {
    let config = micro_config(2023);
    let golden = run_mode(&config, Mode::Direct, None, None, None).unwrap();
    let gold_dir = tmp_dir("elsewhere-gold");
    std::fs::remove_dir_all(&gold_dir).ok();
    golden.commons.save_dir(&gold_dir).unwrap();
    let commons_files = |dir: &std::path::Path| -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n == "manifest.json" || (n.starts_with("model_") && n.ends_with(".json")))
            .collect();
        names.sort();
        names
    };
    for (boundary, tag) in [(1, "b"), (config.nas.generations, "c")] {
        let from = tmp_dir(&format!("elsewhere-a{boundary}"));
        let into = tmp_dir(&format!("elsewhere-{tag}"));
        interrupt_at(&config, boundary, &from);
        std::fs::remove_dir_all(&into).ok();
        let snap = SearchSnapshot::load(&from, &config).unwrap();
        let resumed = run_mode(&config, Mode::Direct, Some(&into), None, Some(snap)).unwrap();
        assert_eq!(golden.commons, resumed.commons);

        let names = commons_files(&gold_dir);
        assert_eq!(names.len(), golden.commons.len() + 1);
        assert_eq!(
            names,
            commons_files(&into),
            "resumed from boundary {boundary}"
        );
        for name in &names {
            assert_eq!(
                std::fs::read(gold_dir.join(name)).unwrap(),
                std::fs::read(into.join(name)).unwrap(),
                "resumed from boundary {boundary}: {name} differs"
            );
        }
        std::fs::remove_dir_all(&from).ok();
        std::fs::remove_dir_all(&into).ok();
    }
    std::fs::remove_dir_all(&gold_dir).ok();
}
