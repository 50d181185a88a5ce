//! Composability integration tests: the same engine/trainer/scheduler
//! stack and the same generation loop under alternative NAS drivers.

use a4nn::prelude::*;
use a4nn_core::{SurrogateFactory, SurrogateParams};
use a4nn_lineage::{epochs_csv, models_csv, shape_census, CurveShape};
use a4nn_net::{SocketOptions, SocketTransport, WorkerHandle, WorkerServer};
use std::time::Duration;

fn config(seed: u64) -> WorkflowConfig {
    WorkflowConfig {
        nas: NasSettings {
            population: 8,
            offspring: 8,
            generations: 4,
            ..NasSettings::paper_defaults()
        },
        engine: Some(EngineConfig::paper_defaults()),
        gpus: 2,
        beam: BeamIntensity::Medium,
        seed,
        objectives: a4nn_core::ObjectiveSet::default(),
        trainer: a4nn_core::TrainerSpec::Surrogate,
    }
}

const AGING: Driver = Driver::AgingEvolution { sample_size: 3 };

/// `driver`'s search of `cfg` on `transport`.
fn run(cfg: &WorkflowConfig, driver: Driver, transport: &dyn Transport) -> RunOutput {
    let factory = SurrogateFactory::new(cfg, SurrogateParams::for_beam(cfg.beam));
    let options = RunOptions {
        driver,
        transport,
        ..RunOptions::default()
    };
    A4nnWorkflow::new(cfg.clone())
        .run(&factory, options)
        .unwrap()
}

#[test]
fn all_three_drivers_share_the_engines_savings() {
    let cfg = config(21);
    let budget = (cfg.nas.epochs as u64) * cfg.nas.total_models() as u64;
    for driver in [Driver::Nsga2, AGING, Driver::Random] {
        let out = run(&cfg, driver, &DirectTransport);
        assert!(
            out.total_epochs() < budget,
            "{driver:?}: engine saved nothing ({} epochs)",
            out.total_epochs()
        );
        assert_eq!(out.commons.len(), 32, "{driver:?}: wrong budget");
    }
}

#[test]
fn drivers_emit_interchangeable_commons() {
    // A commons from any driver round-trips and analyzes identically.
    let out = run(&config(22), AGING, &DirectTransport);
    let dir = std::env::temp_dir().join(format!("a4nn-compos-{}", std::process::id()));
    out.commons.save_dir(&dir).unwrap();
    let loaded = a4nn_lineage::DataCommons::load_dir(&dir).unwrap();
    assert_eq!(loaded, out.commons);
    assert!(loaded.best_by_fitness().is_some());
    assert!(!loaded.pareto_front().unwrap().is_empty());
    // Shape census covers every record.
    let total: usize = shape_census(&loaded).iter().map(|(_, n, _)| n).sum();
    assert_eq!(total, loaded.len());
    std::fs::remove_dir_all(&dir).ok();
}

/// Aging evolution and random search train through the same loop and
/// transports as NSGA-Net, so their exports over the bus and over a
/// two-worker socket fleet equal the in-process run byte for byte.
#[test]
fn every_driver_is_transport_invariant() {
    let cfg = config(24);
    let csvs = |out: &RunOutput| (models_csv(&out.commons), epochs_csv(&out.commons));
    for driver in [AGING, Driver::Random] {
        let direct = csvs(&run(&cfg, driver, &DirectTransport));
        assert_eq!(
            direct,
            csvs(&run(&cfg, driver, &BusTransport)),
            "{driver:?}: bus"
        );
        let workers: Vec<WorkerHandle> = (0..2)
            .map(|_| WorkerServer::spawn("127.0.0.1:0", 1, 1).unwrap())
            .collect();
        let addrs: Vec<String> = workers.iter().map(|w| w.addr().to_string()).collect();
        let options = SocketOptions {
            heartbeat_deadline: Duration::from_secs(2),
        };
        let transport =
            SocketTransport::connect(&addrs, &cfg, &FaultTolerance::default(), options).unwrap();
        let socket = csvs(&run(&cfg, driver, &transport));
        drop(transport);
        for w in workers {
            let _ = w.join();
        }
        assert_eq!(direct, socket, "{driver:?}: socket");
    }
}

#[test]
fn surrogate_curves_cover_the_shape_taxonomy() {
    // The calibrated mixture should produce saturating, accelerating
    // (late bloomer), and flat (non-learner) curves within 100 models.
    let cfg = WorkflowConfig::a4nn(BeamIntensity::Low, 1, 23);
    let factory = SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam));
    let out = A4nnWorkflow::new(cfg)
        .run(&factory, RunOptions::default())
        .unwrap();
    let shapes: Vec<CurveShape> = shape_census(&out.commons)
        .into_iter()
        .map(|(s, _, _)| s)
        .collect();
    for expected in [CurveShape::Saturating, CurveShape::Accelerating] {
        assert!(
            shapes.contains(&expected),
            "missing {expected:?} in {shapes:?}"
        );
    }
}
