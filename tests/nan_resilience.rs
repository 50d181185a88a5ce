//! End-to-end resilience to NaN fitness and interrupted persistence.
//!
//! A training run that diverges (NaN loss) used to take the whole search
//! down twice over: `partial_cmp().expect()` panicked inside NSGA's
//! crowding/selection, and even when it didn't, `total_cmp` on the
//! *negated* fitness ranked the failed model best. These tests drive a
//! full search — both orchestration modes — with a
//! trainer that produces NaN fitness for specific models and assert the
//! failed models survive to `models.csv` as `status=failed` without
//! poisoning selection. The persistence tests kill a commons save
//! mid-write and verify the prior snapshot still loads.

use a4nn_core::prelude::*;
use a4nn_core::{EpochResult, SurrogateFactory, SurrogateParams, Trainer, TrainerFactory};
use a4nn_lineage::models_csv;

/// Model ids whose training "diverges": every epoch reports NaN fitness.
const POISONED: &[u64] = &[2, 9];

/// Wraps the surrogate factory but hands poisoned models a diverging
/// trainer. Deterministic: the same ids diverge in every run and mode.
struct DivergingFactory {
    inner: SurrogateFactory,
}

struct DivergingTrainer {
    flops: f64,
}

impl Trainer for DivergingTrainer {
    fn train_epoch(&mut self, _epoch: u32) -> EpochResult {
        EpochResult {
            train_acc: f64::NAN,
            val_acc: f64::NAN,
            duration_s: 1.0,
        }
    }
    fn cost(&self) -> ModelCost {
        ModelCost::from_flops(self.flops)
    }
}

impl TrainerFactory for DivergingFactory {
    fn make(&self, genome: &a4nn_genome::Genome, model_id: u64, seed: u64) -> Box<dyn Trainer> {
        let inner = self.inner.make(genome, model_id, seed);
        if POISONED.contains(&model_id) {
            Box::new(DivergingTrainer {
                flops: inner.cost().flops,
            })
        } else {
            inner
        }
    }
}

fn config(seed: u64) -> WorkflowConfig {
    WorkflowConfig {
        nas: NasSettings {
            population: 6,
            offspring: 6,
            generations: 3,
            epochs: 10,
            ..NasSettings::paper_defaults()
        },
        // No engine: NaN observations would only exercise the curve
        // fitter; the selection layer is what is under test here.
        engine: None,
        gpus: 2,
        beam: BeamIntensity::Medium,
        seed,
        objectives: a4nn_core::ObjectiveSet::default(),
        trainer: a4nn_core::TrainerSpec::Surrogate,
    }
}

fn run(transport: &dyn Transport) -> RunOutput {
    let cfg = config(2023);
    let factory = DivergingFactory {
        inner: SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam)),
    };
    A4nnWorkflow::new(cfg)
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
fn nan_fitness_models_survive_to_models_csv_as_failed() {
    for transport in [&DirectTransport as &dyn Transport, &BusTransport] {
        let out = run(transport);
        assert_eq!(out.commons.len(), 6 + 6 * 2);

        for &id in POISONED {
            let r = out.commons.get(id).expect("poisoned model recorded");
            assert!(
                r.final_fitness.is_nan(),
                "model {id} kept its NaN fitness ({})",
                transport.name()
            );
            assert_eq!(
                r.termination,
                Terminated::Failed,
                "NaN fitness classifies as failed ({})",
                transport.name()
            );
            assert!(r.failed());
        }
        assert!(out.fault_stats.models_failed >= POISONED.len() as u64);

        // The failed models never outrank a healthy one: every healthy
        // model has finite fitness, and the selection layer orders NaN
        // strictly worst, so the analyzer's best model is clean.
        let best = a4nn_lineage::Analyzer::new(&out.commons)
            .best_by_fitness()
            .unwrap();
        assert!(
            best.final_fitness.is_finite(),
            "a NaN model won selection ({})",
            transport.name()
        );

        // The CSV rows survive with an explicit failed status.
        let csv = models_csv(&out.commons);
        for &id in POISONED {
            let row = csv
                .lines()
                .find(|l| l.starts_with(&format!("{id},")))
                .expect("row exported");
            assert!(row.contains(",failed,"), "row lacks failed status: {row}");
            assert!(row.contains("NaN"), "row lacks the NaN fitness: {row}");
        }
    }
}

#[test]
fn direct_and_bus_agree_on_nan_handling() {
    let direct = run(&DirectTransport);
    let bus = run(&BusTransport);
    // NaN != NaN, so compare the rendered CSVs (NaN prints stably).
    assert_eq!(
        models_csv(&direct.commons),
        models_csv(&bus.commons),
        "orchestration modes diverged on NaN-fitness models"
    );
    assert_eq!(
        direct.fault_stats.models_failed,
        bus.fault_stats.models_failed
    );
}

#[test]
fn interrupted_commons_save_leaves_prior_snapshot_loadable() {
    let out = run(&DirectTransport);
    let dir = std::env::temp_dir().join(format!("a4nn-nan-commons-{}", std::process::id()));
    out.commons.save_dir(&dir).unwrap();

    // Simulate a crash midway through a later save: atomic writes stage
    // into `.tmp` first, so the kill leaves torn tmp files next to the
    // intact snapshot — never a torn file under a real name.
    std::fs::write(dir.join("model_00000.json.tmp"), b"{\"model_id\": 0, ").unwrap();
    std::fs::write(dir.join("manifest.json.tmp"), b"{\"model_co").unwrap();

    let reloaded = DataCommons::load_dir(&dir).unwrap();
    assert_eq!(reloaded.len(), out.commons.len());
    // NaN breaks PartialEq on the records; the byte-stable CSV render is
    // the equality that matters downstream.
    assert_eq!(models_csv(&reloaded), models_csv(&out.commons));
    std::fs::remove_dir_all(&dir).ok();
}
