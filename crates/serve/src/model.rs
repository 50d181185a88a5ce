//! Loading the Pareto front out of a finished search run.
//!
//! A [`ModelRepo`] is built from a commons directory (the lineage record
//! trails a search writes) and, when present, a `checkpoints/`
//! subdirectory holding [`CheckpointStore`] model states. Every
//! non-failed record on the fitness/FLOPs Pareto front becomes a served
//! model:
//!
//! - with a checkpoint: the highest-epoch [`a4nn_nn::ModelState`] is
//!   restored —
//!   the trained weights the search actually measured;
//! - without: the network is rebuilt deterministically from the genome
//!   (paper-default search space, model-id-seeded init), so a repo
//!   loaded twice — or once in the server and once in a verifier —
//!   yields bitwise-identical weights by construction.
//!
//! The default model is the best-by-fitness Pareto point; clients that
//! don't care about the cost axis get the most accurate answer.

use crate::protocol::ModelInfo;
use a4nn_core::{netspec_from_arch, CheckpointStore};
use a4nn_error::A4nnError;
use a4nn_genome::SearchSpace;
use a4nn_lineage::DataCommons;
use a4nn_nn::Network;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;

/// One servable model: its menu entry plus the network itself.
pub struct ServedModel {
    /// The menu entry advertised to clients.
    pub info: ModelInfo,
    /// The instantiated network (eval-mode forward only).
    pub net: Network,
}

/// The Pareto-front models loaded from one search run.
pub struct ModelRepo {
    models: Vec<ServedModel>,
    default_idx: usize,
}

impl ModelRepo {
    /// Load the Pareto front from `dir` (a commons directory; an optional
    /// `checkpoints/` subdirectory supplies trained weights).
    pub fn load(dir: &Path) -> Result<Self, A4nnError> {
        let commons = DataCommons::load_dir(dir)?;
        let checkpoints = {
            let ckpt_dir = dir.join("checkpoints");
            if ckpt_dir.is_dir() {
                Some(CheckpointStore::load_dir(&ckpt_dir)?)
            } else {
                None
            }
        };
        Self::from_commons(&commons, checkpoints.as_ref())
    }

    /// Build a repo from an in-memory commons (the in-process path used
    /// by tests and the bench sweep).
    pub fn from_commons(
        commons: &DataCommons,
        checkpoints: Option<&CheckpointStore>,
    ) -> Result<Self, A4nnError> {
        let space = SearchSpace::paper_defaults();
        let mut models = Vec::new();
        // The front is computed over each record's full objective
        // vector; legacy commons (no objective columns) fall back to
        // the reconstructed (−fitness, flops) pair inside
        // `objective_vector`, so pre-registry runs serve the same menu
        // they always did. A commons mixing objective dimensions is
        // surfaced as the typed config error instead of a panic.
        for record in commons.pareto_front()? {
            if record.failed() || record.final_fitness.is_nan() {
                continue;
            }
            let checkpoint = checkpoints.and_then(|store| {
                let epoch = store.epochs_for(record.model_id).into_iter().max()?;
                store.get(record.model_id, epoch).map(|s| (epoch, s))
            });
            // The RNG seeds construction; for the checkpoint path every
            // parameter is overwritten, and for the rebuild path the
            // model-id seed makes the init itself reproducible.
            let mut rng = StdRng::seed_from_u64(record.model_id);
            let (net, checkpoint_epoch) = match checkpoint {
                Some((epoch, state)) => (state.restore(&mut rng), Some(epoch)),
                None => {
                    let spec = netspec_from_arch(&space.decode(&record.genome));
                    (Network::new(&spec, &mut rng), None)
                }
            };
            let spec = net.spec();
            models.push(ServedModel {
                info: ModelInfo {
                    model_id: record.model_id,
                    fitness: record.final_fitness,
                    flops: record.flops,
                    objective_names: record.objective_labels(),
                    objective_values: record.objective_vector(),
                    arch_summary: record.arch_summary.clone(),
                    input_channels: spec.input_channels,
                    num_classes: spec.num_classes,
                    checkpoint_epoch,
                    default: false,
                },
                net,
            });
        }
        if models.is_empty() {
            return Err(A4nnError::Config(
                "commons has no servable models: the Pareto front is empty or all failed".into(),
            ));
        }
        // Stable order for reproducible menus and worker assignment.
        models.sort_by_key(|m| m.info.model_id);
        let default_idx = models
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a4nn_lineage::fitness_cmp(a.info.fitness, b.info.fitness))
            .map(|(i, _)| i)
            .unwrap_or(0);
        models[default_idx].info.default = true;
        Ok(ModelRepo {
            models,
            default_idx,
        })
    }

    /// The served models, ascending by model id.
    pub fn models(&self) -> &[ServedModel] {
        &self.models
    }

    /// The Pareto menu advertised to clients.
    pub fn infos(&self) -> Vec<ModelInfo> {
        self.models.iter().map(|m| m.info.clone()).collect()
    }

    /// Index of the default (best-by-fitness) model.
    pub fn default_idx(&self) -> usize {
        self.default_idx
    }

    /// Decompose into (menu, default index, networks) — the batcher takes
    /// ownership of the networks and keeps the menu for validation.
    pub fn into_parts(self) -> (Vec<ModelInfo>, usize, Vec<Network>) {
        let infos = self.infos();
        let default_idx = self.default_idx;
        let nets = self.models.into_iter().map(|m| m.net).collect();
        (infos, default_idx, nets)
    }
}
