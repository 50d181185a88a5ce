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
fn run(seed: u64, engine: bool, transport: &dyn Transport) -> RunOutput {
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
                transport,
                ..RunOptions::default()
            },
        )
        .unwrap()
}

#[test]
fn bus_and_direct_csv_exports_are_byte_identical_across_seeds() {
    for seed in [2023u64, 7u64] {
        let direct = run(seed, true, &DirectTransport);
        let bus = run(seed, true, &BusTransport);
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
    let direct = run(11, false, &DirectTransport);
    let bus = run(11, false, &BusTransport);
    assert_eq!(models_csv(&direct.commons), models_csv(&bus.commons));
    assert_eq!(epochs_csv(&direct.commons), epochs_csv(&bus.commons));
}

/// The run-level counters every transport feeds into the metrics
/// registry agree between Direct and Bus, and account for the commons
/// they describe.
#[test]
fn direct_and_bus_report_the_same_counters() {
    use a4nn_metrics::names;
    for seed in [2023u64, 7u64] {
        let direct = run(seed, true, &DirectTransport);
        let bus = run(seed, true, &BusTransport);
        for name in [
            names::JOBS_DISPATCHED,
            names::RETRIES,
            names::EPOCHS_TRAINED,
            names::EARLY_TERMINATIONS,
            names::MODELS_FAILED,
            names::GENERATIONS,
        ] {
            assert_eq!(
                direct.metrics.counter(name),
                bus.metrics.counter(name),
                "counter {name} diverged at seed {seed}"
            );
        }
        assert_eq!(direct.engine_interactions, bus.engine_interactions);
        assert_eq!(
            bus.metrics.counter(names::JOBS_DISPATCHED),
            bus.commons.len() as u64
        );
        assert_eq!(
            bus.metrics.counter(names::EPOCHS_TRAINED),
            bus.total_epochs()
        );
        assert_eq!(
            bus.metrics.counter(names::GENERATIONS),
            bus.schedule.generations.len() as u64
        );
        assert!(bus.metrics.counter(names::EARLY_TERMINATIONS) > 0);
        assert!(bus.engine_interactions >= bus.total_epochs());
    }
}
