//! Bus-vs-direct orchestration equivalence.
//!
//! The a4nn-bus event bus is a different task-coupling mechanism, not a
//! different search: per seed, a bus-orchestrated search must produce a
//! data commons — and hence `models.csv` / `epochs.csv` exports —
//! byte-identical to the in-process direct-call path. This pins the
//! paper's in-situ claim: moving data through communicators instead of
//! function calls changes performance characteristics, never results.

use a4nn_core::prelude::*;
use a4nn_lineage::{epochs_csv, models_csv};

/// A paper-shaped run: Table 2 NAS settings, Table 1 engine settings.
fn run(seed: u64, engine: bool, orchestration: Orchestration) -> RunOutput {
    let config = WorkflowConfig {
        nas: NasSettings::paper_defaults(),
        engine: engine.then(EngineConfig::paper_defaults),
        gpus: 4,
        beam: BeamIntensity::Medium,
        seed,
        objectives: a4nn_core::ObjectiveSet::default(),
    };
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
    A4nnWorkflow::new(config)
        .run(
            &factory,
            RunOptions {
                orchestration,
                ..RunOptions::default()
            },
        )
        .unwrap()
}

#[test]
fn bus_and_direct_csv_exports_are_byte_identical_across_seeds() {
    for seed in [2023u64, 7u64] {
        let direct = run(seed, true, Orchestration::Direct);
        let bus = run(seed, true, Orchestration::Bus);
        assert_eq!(
            models_csv(&direct.commons),
            models_csv(&bus.commons),
            "models.csv diverged at seed {seed}"
        );
        assert_eq!(
            epochs_csv(&direct.commons),
            epochs_csv(&bus.commons),
            "epochs.csv diverged at seed {seed}"
        );
        assert_eq!(
            direct.commons, bus.commons,
            "commons diverged at seed {seed}"
        );
        assert_eq!(direct.engine_interactions, bus.engine_interactions);
        assert_eq!(
            direct.schedule.total_wall_time(),
            bus.schedule.total_wall_time(),
            "DES schedule diverged at seed {seed}"
        );
    }
}

#[test]
fn bus_standalone_matches_direct_standalone() {
    let direct = run(11, false, Orchestration::Direct);
    let bus = run(11, false, Orchestration::Bus);
    assert_eq!(models_csv(&direct.commons), models_csv(&bus.commons));
    assert_eq!(epochs_csv(&direct.commons), epochs_csv(&bus.commons));
}

#[test]
fn bus_run_reports_consistent_stream_stats() {
    let bus = run(2023, true, Orchestration::Bus);
    let stats = bus
        .bus_stats
        .clone()
        .expect("bus orchestration reports stats");
    assert_eq!(stats.epochs_observed, bus.total_epochs());
    assert_eq!(stats.engine_interactions, bus.engine_interactions);
    assert_eq!(stats.models_completed as usize, bus.commons.len());
    assert_eq!(
        stats.generations_scheduled as usize,
        bus.schedule.generations.len()
    );
    // Lossless audit stream: the aggregator saw every event.
    assert_eq!(stats.subscriber.dropped, 0);
    assert_eq!(
        stats.subscriber.delivered,
        stats.epochs_observed
            + stats.engine_interactions
            + stats.terminations_advised
            + stats.models_completed
            + stats.generations_scheduled
    );
    // Per-GPU utilization covers the configured cluster.
    assert_eq!(stats.gpu_busy_seconds.len(), 4);
    assert!(stats.gpu_busy_seconds.iter().all(|&s| s > 0.0));
}
