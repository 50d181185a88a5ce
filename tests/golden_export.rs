//! Golden-file regression tests for the data-commons CSV exports.
//!
//! The paper's analysis pipeline consumes `models.csv` and `epochs.csv`
//! downstream, so their headers and row format are a public contract.
//! This pins the byte-exact output of the Table 1/Table 2 configuration
//! at the paper's seed (2023) against committed golden files.
//!
//! To regenerate after an *intentional* format change:
//!
//! ```bash
//! UPDATE_GOLDEN=1 cargo test --test golden_export
//! ```

use a4nn_core::prelude::*;
use a4nn_core::{SurrogateFactory, SurrogateParams};
use a4nn_lineage::{epochs_csv, models_csv};
use std::path::PathBuf;

const MODELS_HEADER: &str = "model_id,generation,gpu,beam,genome,flops_mflops,epochs_trained,\
     final_fitness,predicted_fitness,terminated_early,termination_epoch,wall_time_s,status,attempts,\
     obj_neg_fitness,obj_flops";
const EPOCHS_HEADER: &str = "model_id,epoch,train_acc,val_acc,duration_s,prediction";

fn paper_run() -> RunOutput {
    // Table 2: 100 networks (10 + 10×9), 25-epoch budget; Table 1 engine
    // defaults; medium beam; the paper's seed.
    let config = WorkflowConfig::a4nn(BeamIntensity::Medium, 4, 2023);
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
    A4nnWorkflow::new(config)
        .run(&factory, RunOptions::default())
        .unwrap()
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run UPDATE_GOLDEN=1 cargo test --test golden_export",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden copy; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn csv_headers_are_pinned() {
    let out = paper_run();
    let models = models_csv(&out.commons);
    let epochs = epochs_csv(&out.commons);
    assert_eq!(models.lines().next().unwrap(), MODELS_HEADER);
    assert_eq!(epochs.lines().next().unwrap(), EPOCHS_HEADER);
    // One data row per model; epochs.csv has one row per trained epoch.
    assert_eq!(models.lines().count(), 1 + out.commons.len());
    assert_eq!(epochs.lines().count(), 1 + out.total_epochs() as usize);
}

#[test]
fn paper_configuration_exports_match_golden_files() {
    let out = paper_run();
    check_golden("models_seed2023.csv", &models_csv(&out.commons));
    check_golden("epochs_seed2023.csv", &epochs_csv(&out.commons));
}

/// The unified [`EvalPipeline`] with a zero-fault plan must be invisible:
/// a resilient run that injects nothing and retries nothing is
/// byte-identical to the plain `run()` that produced the golden files.
fn zero_fault_run(transport: &dyn Transport) -> RunOutput {
    let config = WorkflowConfig::a4nn(BeamIntensity::Medium, 4, 2023);
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
    let ft = FaultTolerance::new(RetryPolicy::with_retries(0), FaultPlan::none());
    A4nnWorkflow::new(config)
        .run(
            &factory,
            RunOptions {
                transport,
                fault_tolerance: ft.clone(),
                ..RunOptions::default()
            },
        )
        .unwrap()
}

#[test]
fn zero_fault_pipeline_matches_golden_files_direct() {
    let out = zero_fault_run(&DirectTransport);
    check_golden("models_seed2023.csv", &models_csv(&out.commons));
    check_golden("epochs_seed2023.csv", &epochs_csv(&out.commons));
}

#[test]
fn zero_fault_pipeline_matches_golden_files_bus() {
    let out = zero_fault_run(&BusTransport);
    check_golden("models_seed2023.csv", &models_csv(&out.commons));
    check_golden("epochs_seed2023.csv", &epochs_csv(&out.commons));
}

/// Aging evolution (sample 3) and random search at medium beam, seed
/// 2023, 2 GPUs, 8 + 8×4 models. Their golden files were written by the
/// separate generation loop these drivers had before they moved onto
/// NSGA-Net's, so they pin that the move changed no byte.
#[test]
fn every_driver_matches_its_parent_golden() {
    let config = WorkflowConfig {
        nas: NasSettings {
            population: 8,
            offspring: 8,
            generations: 5,
            ..NasSettings::paper_defaults()
        },
        engine: Some(EngineConfig::paper_defaults()),
        gpus: 2,
        beam: BeamIntensity::Medium,
        seed: 2023,
        objectives: a4nn_core::ObjectiveSet::default(),
        trainer: a4nn_core::TrainerSpec::Surrogate,
    };
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
    for (driver, name) in [
        (Driver::AgingEvolution { sample_size: 3 }, "aging"),
        (Driver::Random, "random"),
    ] {
        let options = RunOptions {
            driver,
            ..RunOptions::default()
        };
        let out = A4nnWorkflow::new(config.clone())
            .run(&factory, options)
            .unwrap();
        check_golden(
            &format!("models_{name}_seed2023.csv"),
            &models_csv(&out.commons),
        );
    }
}

#[test]
fn row_format_survives_a_failed_model() {
    // A terminally failed model must still export a well-formed row:
    // empty prediction, status `failed`, the consumed attempt count.
    let config = WorkflowConfig {
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
        seed: 2023,
        objectives: a4nn_core::ObjectiveSet::default(),
        trainer: a4nn_core::TrainerSpec::Surrogate,
    };
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
    let ft = FaultTolerance::new(
        a4nn_sched::RetryPolicy::with_retries(1),
        FaultPlan::new(vec![a4nn_faults::FaultEvent::PanicAt {
            model: 2,
            epoch: 3,
            failures: 99,
        }]),
    );
    let out = A4nnWorkflow::new(config)
        .run(
            &factory,
            RunOptions {
                fault_tolerance: ft.clone(),
                ..RunOptions::default()
            },
        )
        .unwrap();
    let models = models_csv(&out.commons);
    let row = models
        .lines()
        .find(|l| l.starts_with("2,"))
        .expect("model 2 exported");
    let fields: Vec<&str> = row.split(',').collect();
    assert_eq!(fields.len(), MODELS_HEADER.split(',').count());
    assert_eq!(fields[12], "failed", "status column");
    assert_eq!(fields[13], "2", "attempts column");
    assert_eq!(fields[8], "", "failed models predict nothing");
}
