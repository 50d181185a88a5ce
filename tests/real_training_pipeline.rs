//! Integration tests of the real (non-surrogate) pipeline: XFEL dataset →
//! genome-decoded CNNs trained on the CPU substrate inside the workflow,
//! plus the XPSI baseline on the same data.

use a4nn::prelude::*;
use a4nn_core::{RealTrainerFactory, TrainingHyperparams};
use a4nn_lineage::Analyzer;
use a4nn_xfel::generate_split;
use a4nn_xpsi::{XpsiConfig, XpsiFramework};
use std::sync::Arc;

fn tiny_real_run(engine: bool) -> a4nn_core::RunOutput {
    let (train, test) = generate_split(&XfelConfig::default(), BeamIntensity::High, 100, 3);
    let config = WorkflowConfig {
        nas: NasSettings {
            population: 3,
            offspring: 3,
            generations: 2,
            epochs: 6,
            ..NasSettings::paper_defaults()
        },
        engine: engine.then(|| EngineConfig {
            e_pred: 6,
            ..EngineConfig::paper_defaults()
        }),
        gpus: 2,
        beam: BeamIntensity::High,
        seed: 21,
        objectives: a4nn_core::ObjectiveSet::default(),
    };
    let factory = RealTrainerFactory::new(
        config.search_space(),
        Arc::new(train),
        Arc::new(test),
        TrainingHyperparams::default(),
    );
    A4nnWorkflow::new(config)
        .run(&factory, RunOptions::default())
        .unwrap()
}

#[test]
#[cfg_attr(debug_assertions, ignore = "real CNN training; run with --release")]
fn real_workflow_trains_networks_above_chance() {
    let out = tiny_real_run(false);
    assert_eq!(out.commons.len(), 6);
    let analyzer = Analyzer::new(&out.commons);
    let best = analyzer.best_by_fitness().unwrap();
    assert!(
        best.final_fitness > 62.0,
        "best real-trained model only reached {:.1}%",
        best.final_fitness
    );
    // Real trainers measure real durations.
    for r in &out.commons.records {
        assert!(r.wall_time_s > 0.0);
        for e in &r.epochs {
            assert!(e.duration_s > 0.0);
            assert!((0.0..=100.0).contains(&e.val_acc));
        }
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "real CNN training; run with --release")]
fn real_workflow_with_engine_completes_and_records_predictions() {
    let out = tiny_real_run(true);
    assert_eq!(out.commons.len(), 6);
    // With only 6 epochs the engine may or may not converge, but the
    // machinery must have run on every model.
    assert!(out.engine_interactions > 0);
    for r in &out.commons.records {
        assert!(r.engine.is_some());
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "real CNN training; run with --release")]
fn xpsi_baseline_beats_chance_and_tracks_beam_quality() {
    let cfg = XfelConfig::default();
    let accuracy = |beam| {
        let (train, test) = generate_split(&cfg, beam, 120, 5);
        XpsiFramework::new(XpsiConfig {
            epochs: 8,
            ..Default::default()
        })
        .run(&train, &test)
        .accuracy
    };
    let low = accuracy(BeamIntensity::Low);
    let high = accuracy(BeamIntensity::High);
    assert!(low > 55.0, "low-beam XPSI at {low:.1}%");
    assert!(high > 70.0, "high-beam XPSI at {high:.1}%");
    assert!(
        high >= low - 5.0,
        "cleaner data should not hurt: low {low:.1} vs high {high:.1}"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "real CNN training; run with --release")]
fn checkpointed_workflow_records_every_epoch_state() {
    // §2.2.2: run a tiny real search with a checkpoint store attached and
    // re-evaluate a mid-training model from its stored state.
    use a4nn_core::CheckpointStore;
    let (train, test) = generate_split(&XfelConfig::default(), BeamIntensity::High, 30, 4);
    let config = WorkflowConfig {
        nas: NasSettings {
            population: 2,
            offspring: 2,
            generations: 2,
            epochs: 3,
            ..NasSettings::paper_defaults()
        },
        engine: None,
        gpus: 1,
        beam: BeamIntensity::High,
        seed: 31,
        objectives: a4nn_core::ObjectiveSet::default(),
    };
    let factory = RealTrainerFactory::new(
        config.search_space(),
        Arc::new(train),
        Arc::new(test.clone()),
        TrainingHyperparams::default(),
    );
    let store = CheckpointStore::new();
    let out = A4nnWorkflow::new(config)
        .run(
            &factory,
            RunOptions {
                checkpoints: Some(&store),
                ..RunOptions::default()
            },
        )
        .unwrap();
    // 4 models x 3 epochs, all checkpointed.
    assert_eq!(out.commons.len(), 4);
    assert_eq!(store.len(), 12);
    for r in &out.commons.records {
        assert_eq!(store.epochs_for(r.model_id), vec![1, 2, 3]);
    }
    // A restored epoch-2 model evaluates to a sane accuracy.
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0);
    let mut net = store.get(0, 2).unwrap().restore(&mut rng);
    let (images, labels) = test.as_tensor();
    let acc = net.evaluate(&images, labels);
    assert!((0.0..=100.0).contains(&f64::from(acc)));
}

#[test]
fn decoded_networks_checkpoint_and_restore() {
    // §2.2.2: model state written each epoch must reload exactly.
    use a4nn_nn::{ModelState, Network, Tensor4};
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(8);
    let space = SearchSpace::paper_defaults();
    let genome = space.random_genome(&mut rng);
    let spec = a4nn_core::netspec_from_arch(&space.decode(&genome));
    let mut net = Network::new(&spec, &mut rng);
    let state = ModelState::capture(&mut net, 3);
    let bytes = state.to_bytes();
    let restored = ModelState::from_bytes(&bytes).unwrap();
    let mut net2 = restored.restore(&mut rng);
    let x = Tensor4::zeros(2, 1, 16, 16);
    assert_eq!(
        net.forward(&x, false).data(),
        net2.forward(&x, false).data()
    );
}
