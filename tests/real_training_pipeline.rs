//! Integration tests of the real (non-surrogate) pipeline: XFEL dataset →
//! genome-decoded CNNs trained on the CPU substrate inside the workflow,
//! plus the XPSI baseline on the same data.

use a4nn::prelude::*;
use a4nn_core::{CheckpointStore, RealTrainerFactory, TrainingHyperparams};
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
        trainer: a4nn_core::TrainerSpec::Surrogate,
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
fn real_workflow_trains_networks_above_chance() {
    let out = tiny_real_run(false);
    assert_eq!(out.commons.len(), 6);
    let best = out.commons.best_by_fitness().unwrap();
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
fn checkpointed_workflow_records_every_epoch_state() {
    // §2.2.2: run a tiny real search with a checkpoint store attached and
    // re-evaluate a mid-training model from its stored state.
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
        trainer: a4nn_core::TrainerSpec::Surrogate,
    };
    let store = Arc::new(CheckpointStore::new());
    let factory = RealTrainerFactory::new(
        config.search_space(),
        Arc::new(train),
        Arc::new(test.clone()),
        TrainingHyperparams::default(),
    )
    .with_checkpoints(store.clone());
    let out = A4nnWorkflow::new(config)
        .run(&factory, RunOptions::default())
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
    let acc = net.evaluate_dataset(
        &test,
        a4nn_nn::graph::DEFAULT_EVAL_CHUNK,
        &mut a4nn_nn::Workspace::new(),
    );
    assert!((0.0..=100.0).contains(&f64::from(acc)));
}

#[test]
fn a_retried_model_checkpoints_the_fault_free_states() {
    // Model 0's first attempt puts epoch 1, then panics before epoch 2;
    // the retry trains epochs 1-3 again. The store must end holding the
    // states a fault-free run holds, bit for bit.
    use a4nn_core::{train_model, InlineEngine};
    use rand::SeedableRng;
    let (train, val) = generate_split(&XfelConfig::default(), BeamIntensity::High, 30, 4);
    let (train, val) = (Arc::new(train), Arc::new(val));
    let config = WorkflowConfig {
        nas: NasSettings {
            epochs: 3,
            ..NasSettings::paper_defaults()
        },
        engine: None,
        gpus: 1,
        beam: BeamIntensity::High,
        seed: 31,
        objectives: a4nn_core::ObjectiveSet::default(),
        trainer: a4nn_core::TrainerSpec::Surrogate,
    };
    let genome = config
        .search_space()
        .random_genome(&mut rand::rngs::StdRng::seed_from_u64(6));
    let checkpointed = |plan: FaultPlan| {
        let store = Arc::new(CheckpointStore::new());
        let factory = RealTrainerFactory::new(
            config.search_space(),
            train.clone(),
            val.clone(),
            TrainingHyperparams::default(),
        )
        .with_checkpoints(store.clone());
        let ft = FaultTolerance::new(RetryPolicy::with_retries(1), plan);
        let mut engine = InlineEngine::new(None, &ft.plan, 0);
        let (outcome, _) = train_model(&config, &factory, &genome, 0, &ft, &mut engine).unwrap();
        (outcome.attempts, store)
    };
    let (clean_attempts, clean) = checkpointed(FaultPlan::none());
    let (retried_attempts, retried) = checkpointed(FaultPlan::new(vec![FaultEvent::PanicAt {
        model: 0,
        epoch: 2,
        failures: 1,
    }]));
    assert_eq!((clean_attempts, retried_attempts), (1, 2));
    assert_eq!(retried.epochs_for(0), [1, 2, 3]);
    assert_eq!(retried.len(), 3);
    for epoch in 1..=3 {
        let bytes = |store: &CheckpointStore| store.get(0, epoch).unwrap().to_bytes();
        assert!(
            bytes(&retried) == bytes(&clean),
            "epoch {epoch}: the retried state differs from the fault-free one"
        );
    }
}

#[test]
fn decoded_networks_checkpoint_and_restore() {
    // §2.2.2: model state written each epoch must reload exactly.
    use a4nn_nn::{ModelState, Network, Tensor4, Workspace};
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
    let mut ws = Workspace::new();
    assert_eq!(
        net.forward_ws(&x, false, &mut ws).data(),
        net2.forward_ws(&x, false, &mut ws).data()
    );
}
