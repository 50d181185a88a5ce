//! Per-epoch model-state checkpointing.
//!
//! §2.2.2: "At the end of each training epoch, the workflow orchestrator
//! writes the partially trained NN's state to memory, such that each model
//! can be loaded and re-evaluated from any point in the training phase."
//! The paper's Dataverse deposit ships 25,790 such per-epoch models.
//!
//! [`CheckpointStore`] is the thread-safe sink the workflow writes into:
//! in memory during the run, with an on-disk binary layout
//! (`model_<id>_epoch_<e>.a4nn`) for persistence. The real CPU trainer
//! puts its network's state at the end of every epoch when its factory
//! was built with
//! [`RealTrainerFactory::with_checkpoints`](crate::RealTrainerFactory::with_checkpoints);
//! the surrogate has no weights to store.

use a4nn_error::A4nnError;
use a4nn_nn::ModelState;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::path::Path;

/// Thread-safe store of per-epoch model states, keyed `(model_id, epoch)`.
#[derive(Debug, Default)]
pub struct CheckpointStore {
    inner: Mutex<BTreeMap<(u64, u32), ModelState>>,
}

impl CheckpointStore {
    /// New empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the state of `model_id` after `epoch`.
    pub fn put(&self, model_id: u64, epoch: u32, state: ModelState) {
        self.inner.lock().insert((model_id, epoch), state);
    }

    /// Fetch one checkpoint.
    pub fn get(&self, model_id: u64, epoch: u32) -> Option<ModelState> {
        self.inner.lock().get(&(model_id, epoch)).cloned()
    }

    /// Number of checkpoints held.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// True when no checkpoints are held.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    /// Epochs checkpointed for one model, ascending.
    pub fn epochs_for(&self, model_id: u64) -> Vec<u32> {
        self.inner
            .lock()
            .range((model_id, 0)..=(model_id, u32::MAX))
            .map(|((_, e), _)| *e)
            .collect()
    }

    /// Write every checkpoint to `dir` in the compact binary format.
    ///
    /// Each file goes through an atomic tmp + rename, so a crash
    /// mid-checkpoint never truncates a previously saved snapshot;
    /// [`load_dir`](Self::load_dir) only considers `.a4nn` names and thus
    /// skips any stale `.tmp` residue from an interrupted save.
    pub fn save_dir(&self, dir: &Path) -> Result<(), A4nnError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| A4nnError::io(format!("creating checkpoint dir {}", dir.display()), e))?;
        for ((model, epoch), state) in self.inner.lock().iter() {
            let path = dir.join(format!("model_{model:05}_epoch_{epoch:03}.a4nn"));
            a4nn_lineage::write_atomic(&path, &state.to_bytes())?;
        }
        Ok(())
    }

    /// Load every `.a4nn` checkpoint from `dir`.
    pub fn load_dir(dir: &Path) -> Result<Self, A4nnError> {
        let store = CheckpointStore::new();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| A4nnError::io(format!("reading checkpoint dir {}", dir.display()), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| {
                A4nnError::io(format!("reading checkpoint dir {}", dir.display()), e)
            })?;
            let path = entry.path();
            let name = match path.file_name().and_then(|n| n.to_str()) {
                Some(n) if n.ends_with(".a4nn") => n.to_string(),
                _ => continue,
            };
            // model_<id>_epoch_<e>.a4nn
            let parts: Vec<&str> = name.trim_end_matches(".a4nn").split('_').collect();
            let (model, epoch) = match parts.as_slice() {
                ["model", id, "epoch", e] => (
                    id.parse::<u64>()
                        .map_err(|_| A4nnError::Checkpoint(format!("bad model id in {name:?}")))?,
                    e.parse::<u32>()
                        .map_err(|_| A4nnError::Checkpoint(format!("bad epoch in {name:?}")))?,
                ),
                _ => continue,
            };
            let bytes = std::fs::read(&path)
                .map_err(|e| A4nnError::io(format!("reading {}", path.display()), e))?;
            let state = ModelState::from_bytes(&bytes)
                .map_err(|e| A4nnError::Checkpoint(format!("decoding {}: {e}", path.display())))?;
            store.put(model, epoch, state);
        }
        Ok(store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4nn_nn::{NetSpec, Network, PhaseNetSpec};
    use rand::SeedableRng;

    fn state(seed: u64, epoch: u32) -> ModelState {
        let spec = NetSpec {
            input_channels: 1,
            phases: vec![PhaseNetSpec::degenerate(4, 3)],
            num_classes: 2,
        };
        let mut net = Network::new(&spec, &mut rand::rngs::StdRng::seed_from_u64(seed));
        ModelState::capture(&mut net, epoch)
    }

    #[test]
    fn put_get_roundtrip() {
        let store = CheckpointStore::new();
        store.put(3, 1, state(1, 1));
        store.put(3, 2, state(1, 2));
        store.put(7, 1, state(2, 1));
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(3, 2).unwrap().epoch, 2);
        assert!(store.get(3, 9).is_none());
        assert_eq!(store.epochs_for(3), vec![1, 2]);
        assert_eq!(store.epochs_for(7), vec![1]);
        assert!(store.epochs_for(42).is_empty());
    }

    #[test]
    fn concurrent_puts_are_safe() {
        let store = std::sync::Arc::new(CheckpointStore::new());
        let mut handles = Vec::new();
        for m in 0..4u64 {
            let s = store.clone();
            handles.push(std::thread::spawn(move || {
                for e in 1..=5u32 {
                    s.put(m, e, state(m, e));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(store.len(), 20);
    }

    #[test]
    fn disk_roundtrip() {
        let store = CheckpointStore::new();
        store.put(0, 1, state(5, 1));
        store.put(0, 2, state(5, 2));
        let dir = std::env::temp_dir().join(format!("a4nn-ckpt-{}", std::process::id()));
        store.save_dir(&dir).unwrap();
        let loaded = CheckpointStore::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 2);
        assert_eq!(loaded.get(0, 2).unwrap(), store.get(0, 2).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_save_leaves_prior_snapshot_loadable() {
        let store = CheckpointStore::new();
        store.put(0, 1, state(5, 1));
        let dir = std::env::temp_dir().join(format!("a4nn-ckpt-torn-{}", std::process::id()));
        store.save_dir(&dir).unwrap();
        // No tmp residue after a clean save.
        assert!(
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(|e| e.ok())
                .all(|e| !e.file_name().to_string_lossy().ends_with(".tmp")),
            "clean save left tmp files behind"
        );
        // Simulate a crash mid-way through a later save: a torn tmp for
        // epoch 2 next to the intact epoch-1 snapshot.
        std::fs::write(dir.join("model_00000_epoch_002.a4nn.tmp"), [0u8; 3]).unwrap();
        let loaded = CheckpointStore::load_dir(&dir).unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded.get(0, 1).unwrap(), store.get(0, 1).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn hostile_tensor_count_is_a_checkpoint_error() {
        // A valid header claiming u32::MAX tensors must surface as a
        // decode error (exit 5), not as a ~100 GB allocation abort.
        let mut bytes = state(5, 1).to_bytes();
        let spec_len = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]) as usize;
        bytes[8 + spec_len..12 + spec_len].copy_from_slice(&u32::MAX.to_le_bytes());
        let dir = std::env::temp_dir().join(format!("a4nn-ckpt-hostile-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("model_00000_epoch_001.a4nn"), &bytes).unwrap();
        let err = CheckpointStore::load_dir(&dir).unwrap_err();
        assert!(matches!(err, A4nnError::Checkpoint(_)), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restored_checkpoint_reproduces_outputs() {
        use a4nn_nn::{Tensor4, Workspace};
        let s = state(9, 4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        let mut original = s.restore(&mut rng);
        let store = CheckpointStore::new();
        store.put(1, 4, s);
        let mut restored = store.get(1, 4).unwrap().restore(&mut rng);
        let x = Tensor4::zeros(1, 1, 8, 8);
        let mut ws = Workspace::new();
        assert_eq!(
            original.forward_ws(&x, false, &mut ws).data(),
            restored.forward_ws(&x, false, &mut ws).data()
        );
    }
}
