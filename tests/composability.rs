//! Composability integration tests: the same engine/trainer/scheduler
//! stack under alternative NAS drivers.

use a4nn::prelude::*;
use a4nn_core::{AgingEvolutionWorkflow, RandomSearchWorkflow, SurrogateFactory, SurrogateParams};
use a4nn_lineage::{shape_census, Analyzer, CurveShape};

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
    }
}

#[test]
fn all_three_drivers_share_the_engines_savings() {
    let cfg = config(21);
    let factory = SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam));
    let budget = (cfg.nas.epochs as u64) * cfg.nas.total_models() as u64;
    let nsga = A4nnWorkflow::new(cfg.clone())
        .run(&factory, RunOptions::default())
        .unwrap();
    let aging = AgingEvolutionWorkflow::new(cfg.clone(), 3)
        .run(&factory, None)
        .unwrap();
    let random = RandomSearchWorkflow::new(cfg).run(&factory, None).unwrap();
    for (name, out) in [("nsga", &nsga), ("aging", &aging), ("random", &random)] {
        assert!(
            out.total_epochs() < budget,
            "{name}: engine saved nothing ({} epochs)",
            out.total_epochs()
        );
        assert_eq!(out.commons.len(), 32, "{name}: wrong budget");
    }
}

#[test]
fn drivers_emit_interchangeable_commons() {
    // A commons from any driver round-trips and analyzes identically.
    let cfg = config(22);
    let factory = SurrogateFactory::new(&cfg, SurrogateParams::for_beam(cfg.beam));
    let out = AgingEvolutionWorkflow::new(cfg, 3)
        .run(&factory, None)
        .unwrap();
    let dir = std::env::temp_dir().join(format!("a4nn-compos-{}", std::process::id()));
    out.commons.save_dir(&dir).unwrap();
    let loaded = a4nn_lineage::DataCommons::load_dir(&dir).unwrap();
    assert_eq!(loaded, out.commons);
    let analyzer = Analyzer::new(&loaded);
    assert!(analyzer.best_by_fitness().is_some());
    assert!(!analyzer.pareto_front().unwrap().is_empty());
    // Shape census covers every record.
    let total: usize = shape_census(&loaded).iter().map(|(_, n, _)| n).sum();
    assert_eq!(total, loaded.len());
    std::fs::remove_dir_all(&dir).ok();
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
