//! The real trainer: genome → network → SGD training on an XFEL dataset
//! using the `a4nn-nn` CPU substrate, with measured wall times and, when
//! the factory is given a [`CheckpointStore`], per-epoch model states
//! (§2.2.2).

use crate::bridge::netspec_from_arch;
use crate::checkpoint::CheckpointStore;
use crate::objectives::ModelCost;
use crate::trainer::{EpochResult, Trainer, TrainerFactory};
use a4nn_genome::{estimate_macs, estimate_params_bytes, Genome, SearchSpace};
use a4nn_nn::graph::DEFAULT_EVAL_CHUNK;
use a4nn_nn::{train_epoch_ws, Dataset, ModelState, Network, Sgd, Workspace};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Hyperparameters of the real training loop.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TrainingHyperparams {
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Minibatch size.
    pub batch_size: usize,
}

impl Default for TrainingHyperparams {
    fn default() -> Self {
        TrainingHyperparams {
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            batch_size: 32,
        }
    }
}

/// Trains one network on shared train/validation datasets.
pub struct RealTrainer {
    net: Network,
    opt: Sgd,
    train: Arc<Dataset>,
    val: Arc<Dataset>,
    hyper: TrainingHyperparams,
    /// Genome-derived cost components (flops, params, MACs); the
    /// workspace peak is measured live in [`Trainer::cost`].
    static_cost: ModelCost,
    rng: rand::rngs::StdRng,
    /// Scratch arena shared across this trainer's epochs: after the first
    /// batch, steady-state training and evaluation allocate nothing.
    ws: Workspace,
    /// Where each epoch's state goes, under this model's id.
    checkpoints: Option<(Arc<CheckpointStore>, u64)>,
}

impl Trainer for RealTrainer {
    /// Train and validate one epoch, then put the network's state into
    /// the checkpoint store, if any. A retried model's states overwrite
    /// those its failed attempt put.
    fn train_epoch(&mut self, epoch: u32) -> EpochResult {
        let t0 = Instant::now();
        let (_, train_acc) = train_epoch_ws(
            &mut self.net,
            &mut self.opt,
            &self.train,
            self.hyper.batch_size,
            &mut self.rng,
            &mut self.ws,
        );
        let val_acc = self
            .net
            .evaluate_dataset(&self.val, DEFAULT_EVAL_CHUNK, &mut self.ws);
        let result = EpochResult {
            train_acc: f64::from(train_acc),
            val_acc: f64::from(val_acc),
            duration_s: t0.elapsed().as_secs_f64(),
        };
        if let Some((store, model_id)) = &self.checkpoints {
            store.put(*model_id, epoch, ModelState::capture(&mut self.net, epoch));
        }
        result
    }

    fn cost(&self) -> ModelCost {
        // The workspace pool's lifetime high-water mark is the measured
        // `peak_ws_bytes` objective — read after training completes.
        ModelCost {
            peak_ws_bytes: self.ws.peak_pooled_bytes() as f64,
            ..self.static_cost
        }
    }
}

/// Factory building [`RealTrainer`]s over shared datasets.
pub struct RealTrainerFactory {
    space: SearchSpace,
    train: Arc<Dataset>,
    val: Arc<Dataset>,
    hyper: TrainingHyperparams,
    checkpoints: Option<Arc<CheckpointStore>>,
}

impl RealTrainerFactory {
    /// Build a factory; datasets are shared (not copied) across trainers.
    pub fn new(
        space: SearchSpace,
        train: Arc<Dataset>,
        val: Arc<Dataset>,
        hyper: TrainingHyperparams,
    ) -> Self {
        assert!(!train.is_empty(), "training dataset is empty");
        RealTrainerFactory {
            space,
            train,
            val,
            hyper,
            checkpoints: None,
        }
    }

    /// Hand `store` to every trainer this factory makes: each puts its
    /// network's state after every epoch it trains.
    pub fn with_checkpoints(self, store: Arc<CheckpointStore>) -> Self {
        RealTrainerFactory {
            checkpoints: Some(store),
            ..self
        }
    }
}

impl TrainerFactory for RealTrainerFactory {
    fn make(&self, genome: &Genome, model_id: u64, seed: u64) -> Box<dyn Trainer> {
        let mut rng =
            rand::rngs::StdRng::seed_from_u64(seed ^ model_id.wrapping_mul(0xD134_2543_DE82_EF95));
        let arch = self.space.decode(genome);
        let spec = netspec_from_arch(&arch);
        let net = Network::new(&spec, &mut rng);
        let hw = (self.train.height, self.train.width);
        let static_cost = ModelCost {
            flops: net.flops(hw) / 1e6,
            params_bytes: estimate_params_bytes(&arch),
            macs: estimate_macs(&arch, hw),
            peak_ws_bytes: 0.0,
        };
        Box::new(RealTrainer {
            net,
            opt: Sgd::new(self.hyper.lr, self.hyper.momentum, self.hyper.weight_decay),
            train: self.train.clone(),
            val: self.val.clone(),
            hyper: self.hyper,
            static_cost,
            rng,
            ws: Workspace::new(),
            checkpoints: self.checkpoints.clone().map(|store| (store, model_id)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4nn_xfel::{generate_split, BeamIntensity, XfelConfig};

    fn factory() -> RealTrainerFactory {
        let (train, val) = generate_split(&XfelConfig::default(), BeamIntensity::High, 40, 1);
        RealTrainerFactory::new(
            SearchSpace::paper_defaults(),
            Arc::new(train),
            Arc::new(val),
            TrainingHyperparams::default(),
        )
    }

    fn genome(seed: u64) -> Genome {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        SearchSpace::paper_defaults().random_genome(&mut rng)
    }

    #[test]
    fn real_training_learns_above_chance() {
        let f = factory();
        let mut t = f.make(&genome(2), 0, 9);
        let mut last = EpochResult {
            train_acc: 0.0,
            val_acc: 0.0,
            duration_s: 0.0,
        };
        for e in 1..=4 {
            last = t.train_epoch(e);
            assert!(last.duration_s > 0.0);
        }
        assert!(
            last.train_acc > 55.0,
            "train accuracy after 4 epochs: {}",
            last.train_acc
        );
        let cost = t.cost();
        assert!(cost.flops > 0.0);
        assert!(cost.params_bytes > 0.0);
        assert!(cost.macs > 0.0);
        assert!(
            cost.peak_ws_bytes > 0.0,
            "training must leave a workspace high-water mark"
        );
    }

    #[test]
    fn snapshots_capture_training_progress() {
        let store = Arc::new(CheckpointStore::new());
        let f = factory().with_checkpoints(store.clone());
        let mut t = f.make(&genome(5), 2, 9);
        let _ = t.train_epoch(1);
        let _ = t.train_epoch(2);
        assert_eq!(store.epochs_for(2), [1, 2]);
        let (s1, s2) = (store.get(2, 1).unwrap(), store.get(2, 2).unwrap());
        assert_eq!(s1.epoch, 1);
        assert_eq!(s2.epoch, 2);
        assert_ne!(s1.params, s2.params, "training must change the weights");
    }

    #[test]
    fn trainers_for_same_model_are_deterministic_in_structure() {
        let f = factory();
        let a = f.make(&genome(3), 1, 9).cost().flops;
        let b = f.make(&genome(3), 1, 9).cost().flops;
        assert_eq!(a, b);
    }

    #[test]
    fn hyperparams_written_with_the_kernel_switch_still_load() {
        // Configs saved before the `Naive|Gemm` kernel switch was removed
        // carry its two keys, and the validation chunk size that was once
        // a setting; all are ignored, not rejected. The sample sits in the
        // old-checkpoint fixture, written by the last commit that had the
        // switch.
        #[derive(Deserialize)]
        struct OldCheckpoint {
            hyperparams: TrainingHyperparams,
        }
        let old: OldCheckpoint = serde_json::from_str(include_str!(
            "../../nn/tests/fixtures/network_with_impl_keys.json"
        ))
        .unwrap();
        assert_eq!(old.hyperparams.lr, 0.01);
        assert_eq!(old.hyperparams.batch_size, 16);
    }

    #[test]
    #[should_panic(expected = "training dataset is empty")]
    fn empty_dataset_rejected() {
        let empty = Arc::new(Dataset::empty(1, 16, 16));
        let _ = RealTrainerFactory::new(
            SearchSpace::paper_defaults(),
            empty.clone(),
            empty,
            TrainingHyperparams::default(),
        );
    }
}
