//! The data commons: the collection of record trails and the
//! on-disk JSON layout (one file per model plus a manifest), the local
//! stand-in for the paper's Harvard Dataverse deposit.

use crate::record::ModelRecord;
use a4nn_error::A4nnError;
use serde::{Deserialize, Serialize};
use std::fs;
use std::path::{Path, PathBuf};

/// Write `bytes` to `path` atomically: write a `.tmp` sibling first, then
/// rename it over the target. A crash mid-write leaves at worst a stale
/// `.tmp` file next to the previous intact snapshot — never a torn file
/// under the real name. Loaders skip `.tmp` residue by construction
/// (nothing looks up files with that suffix).
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), A4nnError> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, bytes).map_err(|e| A4nnError::io(format!("writing {}", tmp.display()), e))?;
    fs::rename(&tmp, path).map_err(|e| {
        A4nnError::io(
            format!("renaming {} to {}", tmp.display(), path.display()),
            e,
        )
    })
}

/// Manifest stored next to the per-model files.
#[derive(Debug, Serialize, Deserialize)]
struct Manifest {
    model_count: usize,
    model_ids: Vec<u64>,
}

/// An immutable collection of record trails with disk persistence.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DataCommons {
    /// The record trails, sorted by model id.
    pub records: Vec<ModelRecord>,
}

impl DataCommons {
    /// Wrap records (sorted by model id).
    pub fn new(mut records: Vec<ModelRecord>) -> Self {
        records.sort_by_key(|r| r.model_id);
        DataCommons { records }
    }

    /// Number of record trails.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when the commons is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Look up a model by id.
    pub fn get(&self, model_id: u64) -> Option<&ModelRecord> {
        self.records
            .binary_search_by_key(&model_id, |r| r.model_id)
            .ok()
            .map(|i| &self.records[i])
    }

    /// Write the commons to `dir`: `manifest.json` plus
    /// `model_<id>.json` per record — [`append_dir`] from the first
    /// record.
    pub fn save_dir(&self, dir: &Path) -> Result<(), A4nnError> {
        append_dir(dir, &self.records, 0)
    }

    /// Load a commons previously written by [`save_dir`](Self::save_dir)
    /// or [`append_dir`]: the records its manifest lists.
    pub fn load_dir(dir: &Path) -> Result<Self, A4nnError> {
        let manifest_path = dir.join("manifest.json");
        let bytes = fs::read(&manifest_path)
            .map_err(|e| A4nnError::io(format!("reading {}", manifest_path.display()), e))?;
        let manifest: Manifest = serde_json::from_slice(&bytes)
            .map_err(|e| A4nnError::io(format!("parsing {}", manifest_path.display()), e.into()))?;
        Ok(DataCommons::new(read_models(dir, manifest.model_ids)?))
    }
}

/// The file one record trail lives in.
fn model_path(dir: &Path, model_id: u64) -> PathBuf {
    dir.join(format!("model_{model_id:05}.json"))
}

/// Commit `records[from..]` to the commons in `dir`, then a manifest
/// listing every one of `records`.
///
/// A search appends each generation as its boundary commits, so every
/// record is written once. Every file is written atomically (tmp +
/// rename), and the manifest is written last: a crash anywhere in the
/// middle leaves the previous manifest intact, so
/// [`DataCommons::load_dir`] still sees a consistent (if older) prefix.
pub fn append_dir(dir: &Path, records: &[ModelRecord], from: usize) -> Result<(), A4nnError> {
    fs::create_dir_all(dir)
        .map_err(|e| A4nnError::io(format!("creating commons dir {}", dir.display()), e))?;
    for record in records.get(from..).unwrap_or_default() {
        let json = serde_json::to_vec_pretty(record).map_err(|e| {
            A4nnError::Internal(format!("serializing record {}: {e}", record.model_id))
        })?;
        write_atomic(&model_path(dir, record.model_id), &json)?;
    }
    let manifest = Manifest {
        model_count: records.len(),
        model_ids: records.iter().map(|r| r.model_id).collect(),
    };
    let json = serde_json::to_vec_pretty(&manifest)
        .map_err(|e| A4nnError::Internal(format!("serializing manifest: {e}")))?;
    write_atomic(&dir.join("manifest.json"), &json)
}

/// Read the record trail of every model in `ids` from the commons in
/// `dir`, in that order, whatever its manifest lists.
pub fn read_models(
    dir: &Path,
    ids: impl IntoIterator<Item = u64>,
) -> Result<Vec<ModelRecord>, A4nnError> {
    ids.into_iter()
        .map(|id| {
            let path = model_path(dir, id);
            let bytes = fs::read(&path)
                .map_err(|e| A4nnError::io(format!("reading {}", path.display()), e))?;
            serde_json::from_slice(&bytes)
                .map_err(|e| A4nnError::io(format!("parsing {}", path.display()), e.into()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EngineParamsRecord, EpochRecord};
    use a4nn_genome::Genome;

    fn record(id: u64) -> ModelRecord {
        ModelRecord {
            model_id: id,
            generation: 0,
            gpu: None,
            genome: Genome::from_compact_string("0000000").unwrap(),
            arch_summary: "1 phase".into(),
            flops: 100.0,
            objective_names: Vec::new(),
            objective_values: Vec::new(),
            engine: Some(EngineParamsRecord {
                function: "exp-base".into(),
                c_min: 3,
                e_pred: 25,
                n: 3,
                r: 0.5,
            }),
            epochs: vec![EpochRecord {
                epoch: 1,
                train_acc: 60.0,
                val_acc: 58.0,
                duration_s: 1.0,
                prediction: None,
            }],
            final_fitness: 58.0,
            predicted_fitness: None,
            termination: crate::record::Terminated::Completed,
            attempts: 1,
            beam: "low".into(),
            wall_time_s: 1.0,
        }
    }

    #[test]
    fn get_by_id() {
        let commons = DataCommons::new(vec![record(3), record(1)]);
        assert_eq!(commons.get(3).unwrap().model_id, 3);
        assert!(commons.get(42).is_none());
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join(format!("a4nn-commons-{}", std::process::id()));
        let commons = DataCommons::new(vec![record(0), record(1), record(2)]);
        commons.save_dir(&dir).unwrap();
        let loaded = DataCommons::load_dir(&dir).unwrap();
        assert_eq!(commons, loaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn appending_generation_by_generation_writes_the_bytes_of_one_save() {
        let whole = std::env::temp_dir().join(format!("a4nn-commons-whole-{}", std::process::id()));
        let parts = std::env::temp_dir().join(format!("a4nn-commons-parts-{}", std::process::id()));
        let records: Vec<_> = (0..5).map(record).collect();
        DataCommons::new(records.clone()).save_dir(&whole).unwrap();
        append_dir(&parts, &records[..2], 0).unwrap();
        assert_eq!(DataCommons::load_dir(&parts).unwrap().len(), 2);
        append_dir(&parts, &records, 2).unwrap();
        for entry in std::fs::read_dir(&whole).unwrap().flatten() {
            let name = entry.file_name();
            assert_eq!(
                std::fs::read(entry.path()).unwrap(),
                std::fs::read(parts.join(&name)).unwrap(),
                "{name:?}"
            );
        }
        assert_eq!(read_models(&parts, 0..5).unwrap(), records);
        assert!(
            read_models(&parts, 0..6).is_err(),
            "model 5 was never written"
        );
        std::fs::remove_dir_all(&whole).ok();
        std::fs::remove_dir_all(&parts).ok();
    }

    #[test]
    fn save_leaves_no_tmp_residue_and_load_ignores_stale_tmp() {
        let dir = std::env::temp_dir().join(format!("a4nn-commons-atomic-{}", std::process::id()));
        let commons = DataCommons::new(vec![record(0), record(1)]);
        commons.save_dir(&dir).unwrap();
        // A clean save renames every tmp file away.
        let tmps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().is_some_and(|x| x == "tmp"))
            .collect();
        assert!(tmps.is_empty(), "tmp residue after save: {tmps:?}");
        // Simulate a later save that crashed mid-write: torn tmp files
        // next to the intact snapshot must not affect loading.
        std::fs::write(dir.join("model_00000.json.tmp"), b"{ torn").unwrap();
        std::fs::write(dir.join("manifest.json.tmp"), b"{ torn").unwrap();
        let loaded = DataCommons::load_dir(&dir).unwrap();
        assert_eq!(loaded, commons);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_atomic_replaces_existing_file() {
        let dir = std::env::temp_dir().join(format!("a4nn-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("x.json");
        write_atomic(&path, b"one").unwrap();
        write_atomic(&path, b"two").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"two");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_missing_dir_errors() {
        let dir = std::env::temp_dir().join("a4nn-definitely-missing-commons");
        assert!(DataCommons::load_dir(&dir).is_err());
    }
}
