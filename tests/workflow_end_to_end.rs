//! End-to-end integration tests of the full A4NN workflow on the
//! surrogate cluster, spanning core + nsga + genome + penguin + sched +
//! lineage.

use a4nn::prelude::*;
use a4nn_core::{SurrogateFactory, SurrogateParams};
use a4nn_lineage::Analyzer;

fn run(beam: BeamIntensity, engine: bool, gpus: usize, seed: u64) -> a4nn_core::RunOutput {
    let config = WorkflowConfig {
        nas: NasSettings {
            population: 8,
            offspring: 8,
            generations: 5,
            ..NasSettings::paper_defaults()
        },
        engine: engine.then(EngineConfig::paper_defaults),
        gpus,
        beam,
        seed,
        objectives: a4nn_core::ObjectiveSet::default(),
        trainer: a4nn_core::TrainerSpec::Surrogate,
    };
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(beam));
    A4nnWorkflow::new(config)
        .run(&factory, RunOptions::default())
        .unwrap()
}

#[test]
fn full_paper_scale_run_matches_expected_structure() {
    let config = WorkflowConfig::a4nn(BeamIntensity::Medium, 4, 99);
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
    let out = A4nnWorkflow::new(config)
        .run(&factory, RunOptions::default())
        .unwrap();
    assert_eq!(out.commons.len(), 100, "Table 2: 100 networks per test");
    assert_eq!(out.schedule.generations.len(), 10);
    // Every record is complete.
    for r in &out.commons.records {
        assert!(r.epochs_trained() >= 1 && r.epochs_trained() <= 25);
        assert!(r.flops > 0.0);
        assert!(r.gpu.unwrap() < 4);
        assert!((0.0..=100.0).contains(&r.final_fitness));
        let wall: f64 = r.epochs.iter().map(|e| e.duration_s).sum();
        assert!((wall - r.wall_time_s).abs() < 1e-9);
        if r.terminated_early() {
            assert!(r.predicted_fitness.is_some());
            assert!(r.epochs_trained() < 25);
        } else {
            assert_eq!(r.epochs_trained(), 25);
        }
    }
}

#[test]
fn engine_saves_epochs_on_every_beam() {
    for beam in BeamIntensity::ALL {
        let with = run(beam, true, 1, 5);
        let without = run(beam, false, 1, 5);
        assert!(
            with.total_epochs() < without.total_epochs(),
            "{beam}: {} !< {}",
            with.total_epochs(),
            without.total_epochs()
        );
        assert!(with.wall_time_s() < without.wall_time_s());
        // The engine does not diminish search quality (§4.2.1): the best
        // fitness stays within a few points of the standalone run.
        let best_with = Analyzer::new(&with.commons)
            .best_by_fitness()
            .unwrap()
            .final_fitness;
        let best_without = Analyzer::new(&without.commons)
            .best_by_fitness()
            .unwrap()
            .final_fitness;
        assert!(
            best_with > best_without - 5.0,
            "{beam}: best {best_with} vs standalone {best_without}"
        );
    }
}

#[test]
fn multi_gpu_speedup_is_near_linear_with_identical_search() {
    let one = run(BeamIntensity::High, true, 1, 6);
    let four = run(BeamIntensity::High, true, 4, 6);
    // GPU count must not change the search itself — only the GPU
    // placements differ between cluster sizes.
    let strip = |out: &a4nn_core::RunOutput| {
        out.commons
            .records
            .iter()
            .map(|r| {
                let mut r = r.clone();
                r.gpu = None;
                r
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(
        strip(&one),
        strip(&four),
        "GPU count must not change the search"
    );
    assert_eq!(one.total_epochs(), four.total_epochs());
    let speedup = one.wall_time_s() / four.wall_time_s();
    assert!(
        (2.0..=4.0).contains(&speedup),
        "speedup {speedup:.2} out of range"
    );
}

#[test]
fn pareto_front_is_mutually_non_dominated() {
    let out = run(BeamIntensity::Medium, true, 2, 7);
    let analyzer = Analyzer::new(&out.commons);
    let front = analyzer.pareto_front().unwrap();
    assert!(!front.is_empty());
    for a in &front {
        for b in &front {
            let dominates = b.final_fitness >= a.final_fitness
                && b.flops <= a.flops
                && (b.final_fitness > a.final_fitness || b.flops < a.flops);
            assert!(!dominates, "front member dominated");
        }
    }
}

#[test]
fn commons_roundtrips_through_disk() {
    let out = run(BeamIntensity::Low, true, 2, 8);
    let dir = std::env::temp_dir().join(format!("a4nn-e2e-{}", std::process::id()));
    out.commons.save_dir(&dir).unwrap();
    let loaded = a4nn_lineage::DataCommons::load_dir(&dir).unwrap();
    assert_eq!(loaded, out.commons);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeds_reproduce_entire_runs() {
    let a = run(BeamIntensity::Medium, true, 2, 11);
    let b = run(BeamIntensity::Medium, true, 2, 11);
    assert_eq!(a.commons, b.commons);
    assert_eq!(a.wall_time_s(), b.wall_time_s());
    assert_eq!(a.total_epochs(), b.total_epochs());
}

#[test]
fn generation_structure_is_consistent() {
    let out = run(BeamIntensity::Medium, true, 2, 12);
    // Generation 0 has `population` models; later generations `offspring`.
    let mut per_gen = vec![0usize; 5];
    for r in &out.commons.records {
        per_gen[r.generation] += 1;
    }
    assert_eq!(per_gen, vec![8, 8, 8, 8, 8]);
    // Model ids are assigned in generation order.
    for r in &out.commons.records {
        assert_eq!(r.generation, (r.model_id / 8) as usize);
    }
}
