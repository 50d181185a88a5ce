//! Full search-state persistence. [`SearchSnapshot`] is the state the
//! generational loop of [`A4nnWorkflow`] runs on: a fresh search starts
//! from `SearchSnapshot::fresh`, a resumed one from a loaded snapshot
//! that passes `SearchSnapshot::check_resumes`, and the loop saves it in
//! place at each generation boundary, so a killed search continues
//! bit-for-bit from the last committed boundary.
//!
//! [`A4nnWorkflow`]: crate::workflow::A4nnWorkflow
//!
//! ## Crash-consistency protocol (manifest-last)
//!
//! The run directory is also the run's data commons, and every record
//! trail is written to it once, by the boundary that produced it. A
//! boundary commits in this order:
//!
//! 1. the generation's `model_<id>.json` files, then the commons'
//!    `manifest.json` listing every record so far
//!    ([`a4nn_lineage::append_dir`]);
//! 2. `search_state_g<NNNN>.json` — the state after generation `NNNN`
//!    completed, naming the committed records by count (`models`)
//!    instead of holding them, written via `write_atomic` under a *new*
//!    name;
//! 3. `resume_manifest.json` — version, config hash, and the state
//!    file's name, written via `write_atomic` *last*;
//! 4. the prune of superseded state files.
//!
//! The resume manifest is the single commit point. A crash anywhere
//! before step 3's rename leaves the previous manifest intact and
//! pointing at the previous (still present) state file, whose records
//! (ids `0..models`) are all on disk, so a loader always sees a
//! consistent boundary — at worst one generation older than the crash —
//! and the commons' own manifest always lists a loadable prefix. A run
//! that resumes rewrites its loaded records into its snapshot directory
//! once at its first boundary (that directory need not be the one it
//! resumed from), with identical bytes.
//!
//! [`SearchSnapshot::load`] fills `records` from the commons beside the
//! state file. A state file written before the records moved out still
//! holds them inline under a `records` key; `load` reads that key
//! instead, so those snapshots resume unchanged. [`SNAPSHOT_VERSION`]
//! stays 1 for that reason, and because an older binary needs no bump
//! to refuse the new shape: its state struct requires the `records`
//! key, so it rejects a state file without one as a `Checkpoint` error
//! (exit 5) before resuming anything.
//!
//! ## What makes the continuation bit-exact
//!
//! The snapshot carries the raw xoshiro256** state words, so offspring
//! variation resumes mid-stream; the survivor (parent) indices and the
//! generation cursor reconstruct selection exactly; completed records
//! (which carry every model's genome, objective vector and attempt
//! count), schedules, engine counters, and the metrics snapshot restore
//! everything the remaining generations append to. The NSGA-II archive,
//! the duplicate-architecture filter and the next model id are not
//! stored: the loop rebuilds the archive from the records when it starts
//! (none on a fresh run) exactly as it extends it after each generation,
//! and the filter and the id follow from the archive. Under the other
//! drivers the survivors are the newest `population` model ids, so aging
//! evolution's queue needs no state of its own either: its genomes and
//! fitness are read back from the records. The snapshot names its driver
//! and its trainer, and resuming it under another of either is stale;
//! another objective set is another configuration, so its fingerprint
//! already refuses it. No trained weights cross a boundary, so a real
//! trainer's resume needs only its images, which its [`TrainerSpec`]
//! regenerates bit for bit. Because each model trains
//! independently and every stochastic stream is keyed on
//! `(seed, model_id)`, no state outside this struct crosses a generation
//! boundary.

use crate::config::WorkflowConfig;
use crate::trainer::TrainerSpec;
use crate::workflow::Driver;
use a4nn_error::A4nnError;
use a4nn_lineage::{read_models, write_atomic, ModelRecord};
use a4nn_metrics::MetricsSnapshot;
use a4nn_sched::ScheduleResult;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Schema version of [`SearchSnapshot`]; bump on any breaking change so
/// old snapshots fail loudly instead of resuming wrongly. Dropping a
/// field is not breaking: the loader ignores keys it does not know, such
/// as the per-model `retries` account, `archive`, `seen` and `next_id`
/// that older snapshots still carry.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Name of the commit-point manifest inside a run directory.
pub const MANIFEST_FILE: &str = "resume_manifest.json";

/// FNV-1a 64 over the config's canonical JSON without its `trainer`
/// key: the fingerprint that pins a snapshot to the exact configuration
/// that produced it. Leaving the trainer out keeps every fingerprint what
/// it was before configurations named one, so older snapshots still
/// resume; the snapshot records its trainer instead, and
/// `SearchSnapshot::check_resumes` refuses another.
pub fn config_hash(cfg: &WorkflowConfig) -> Result<u64, A4nnError> {
    let mut value = cfg.to_value();
    if let serde_json::Value::Object(fields) = &mut value {
        fields.retain(|(key, _)| key != "trainer");
    }
    let bytes = serde_json::to_vec(&value)
        .map_err(|e| A4nnError::Internal(format!("serializing config for hashing: {e}")))?;
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    Ok(hash)
}

/// The commit-point record: written last, read first.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResumeManifest {
    /// Snapshot schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// [`config_hash`] of the configuration that produced the snapshot.
    pub config_hash: u64,
    /// Generations fully completed at the snapshot boundary.
    pub generations_done: usize,
    /// Name of the committed state file inside the same directory.
    pub state_file: String,
}

/// The generational loop's state: everything it owns at a generation
/// boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchSnapshot {
    /// Snapshot schema version ([`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// [`config_hash`] of the run's configuration.
    pub config_hash: u64,
    /// The NAS driver that searched the records. Snapshots written before
    /// drivers shared the loop carry none and load as NSGA-II.
    #[serde(default)]
    pub driver: Driver,
    /// The trainer that trained the records. Snapshots written before
    /// configurations named one carry none and load as the surrogate.
    #[serde(default)]
    pub trainer: TrainerSpec,
    /// Generations fully completed (the next one to run).
    pub generations_done: usize,
    /// Raw xoshiro256** state words of the search RNG, captured after
    /// the boundary's last draw.
    pub rng_state: [u64; 4],
    /// Indices into `records` of the current survivor population.
    pub parents: Vec<usize>,
    /// Completed record trails, in evaluation order: record `i` is model
    /// `i`. Not part of the state file: each boundary commits them to the
    /// commons beside it first, and [`load`](Self::load) reads them back
    /// from there.
    #[serde(skip)]
    pub records: Vec<ModelRecord>,
    /// How many records the commons held when this boundary committed:
    /// models `0..models`.
    #[serde(default)]
    pub models: usize,
    /// Per-generation cluster schedules.
    pub schedules: Vec<ScheduleResult>,
    /// Accumulated prediction-engine overhead (measured wall seconds).
    pub engine_seconds: f64,
    /// Accumulated engine interactions.
    pub engine_interactions: u64,
    /// The metrics registry's state at the boundary.
    pub metrics: MetricsSnapshot,
}

impl SearchSnapshot {
    /// The state of `cfg`'s search under `driver` before its first
    /// generation: no records, and the RNG seeded from `cfg.seed`.
    pub(crate) fn fresh(cfg: &WorkflowConfig, driver: Driver) -> Result<SearchSnapshot, A4nnError> {
        Ok(SearchSnapshot {
            version: SNAPSHOT_VERSION,
            config_hash: config_hash(cfg)?,
            driver,
            trainer: cfg.trainer.clone(),
            generations_done: 0,
            rng_state: StdRng::seed_from_u64(cfg.seed).state(),
            parents: Vec::new(),
            records: Vec::with_capacity(cfg.nas.total_models()),
            models: 0,
            schedules: Vec::with_capacity(cfg.nas.generations),
            engine_seconds: 0.0,
            engine_interactions: 0,
            metrics: MetricsSnapshot::default(),
        })
    }

    /// Refuse this snapshot unless it continues `cfg`'s search under
    /// `driver`: the same schema version, config fingerprint, driver and
    /// trainer, a cursor inside the run, records numbered `0..n` that the
    /// survivors index into, and objective vectors of the configured
    /// dimension. Every refusal is an [`A4nnError::Checkpoint`] (exit 5).
    pub(crate) fn check_resumes(
        &self,
        cfg: &WorkflowConfig,
        driver: Driver,
    ) -> Result<(), A4nnError> {
        check_fingerprint(self.version, self.config_hash, cfg)?;
        if self.driver != driver {
            return Err(A4nnError::Checkpoint(format!(
                "stale snapshot: state was searched by {:?} but this run drives {:?}",
                self.driver, driver
            )));
        }
        if self.trainer != cfg.trainer {
            return Err(A4nnError::Checkpoint(format!(
                "stale snapshot: state was trained by {:?} but this run trains {:?}",
                self.trainer, cfg.trainer
            )));
        }
        if self.generations_done == 0 || self.generations_done > cfg.nas.generations {
            return Err(A4nnError::Checkpoint(format!(
                "snapshot claims {} completed generation(s) of a {}-generation run",
                self.generations_done, cfg.nas.generations
            )));
        }
        // The archive is rebuilt from the records by position, so their
        // ids must be that position, and the survivors must index into
        // them.
        if let Some((k, record)) = self
            .records
            .iter()
            .enumerate()
            .find(|(k, r)| r.model_id != *k as u64)
        {
            return Err(A4nnError::Checkpoint(format!(
                "corrupt snapshot: record {k} holds model {} (ids must run 0..{})",
                record.model_id,
                self.records.len()
            )));
        }
        if self.parents.is_empty() || self.parents.iter().any(|&i| i >= self.records.len()) {
            return Err(A4nnError::Checkpoint(format!(
                "corrupt snapshot: survivors {:?} do not index its {} record(s)",
                self.parents,
                self.records.len()
            )));
        }
        // The records come from model files, not from the state file the
        // fingerprint vouches for.
        if let Some(record) = self
            .records
            .iter()
            .find(|r| r.objective_vector().len() != cfg.objectives.len())
        {
            return Err(A4nnError::Checkpoint(format!(
                "stale snapshot: model {} carries {} objective value(s) but this run is \
                 configured for {} ({})",
                record.model_id,
                record.objective_vector().len(),
                cfg.objectives.len(),
                cfg.objectives
            )));
        }
        Ok(())
    }

    /// Name of this snapshot's state file.
    fn state_file_name(&self) -> String {
        format!("search_state_g{:04}.json", self.generations_done)
    }

    /// Commit this snapshot's state file and resume manifest into `dir`
    /// (steps 2–4 of the protocol in the module docs), then prune
    /// superseded state files. The records are not written: the
    /// commons in `dir` must already hold models `0..models`.
    pub fn save(&self, dir: &Path) -> Result<(), A4nnError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| A4nnError::io(format!("creating run dir {}", dir.display()), e))?;
        let state_file = self.state_file_name();
        let state_json = serde_json::to_vec_pretty(self)
            .map_err(|e| A4nnError::Internal(format!("serializing search snapshot: {e}")))?;
        write_atomic(&dir.join(&state_file), &state_json)?;
        let manifest = ResumeManifest {
            version: self.version,
            config_hash: self.config_hash,
            generations_done: self.generations_done,
            state_file: state_file.clone(),
        };
        let manifest_json = serde_json::to_vec_pretty(&manifest)
            .map_err(|e| A4nnError::Internal(format!("serializing resume manifest: {e}")))?;
        write_atomic(&dir.join(MANIFEST_FILE), &manifest_json)?;
        // The manifest has committed; older state files are unreachable
        // and a failed unlink is harmless residue, not an error.
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if name.starts_with("search_state_g") && name != state_file {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    /// Load the committed snapshot from `dir` and verify it belongs to
    /// `cfg`: schema version and config hash must both match, otherwise
    /// the snapshot is stale and resuming would silently diverge — that
    /// is an [`A4nnError::Checkpoint`] naming both fingerprints. The run
    /// that resumes it makes the remaining checks.
    ///
    /// The records come from the commons in `dir` (models `0..models`),
    /// or from the state file's inline `records` key when it has one. A
    /// missing or unreadable record file is a `Checkpoint` error too.
    pub fn load(dir: &Path, cfg: &WorkflowConfig) -> Result<SearchSnapshot, A4nnError> {
        let manifest_path = dir.join(MANIFEST_FILE);
        let bytes = std::fs::read(&manifest_path).map_err(|e| {
            A4nnError::Checkpoint(format!(
                "no resumable search in {}: reading {}: {e}",
                dir.display(),
                manifest_path.display()
            ))
        })?;
        let manifest: ResumeManifest = serde_json::from_slice(&bytes).map_err(|e| {
            A4nnError::Checkpoint(format!("parsing {}: {e}", manifest_path.display()))
        })?;
        check_fingerprint(manifest.version, manifest.config_hash, cfg)?;
        // Only the bare name `save` writes: `Path::join` with an absolute
        // or `..` path would leave the run directory.
        if !is_state_file_name(&manifest.state_file) {
            return Err(A4nnError::Checkpoint(format!(
                "{} names state file {:?}; expected search_state_g<NNNN>.json in the run \
                 directory",
                manifest_path.display(),
                manifest.state_file
            )));
        }
        let state_path = dir.join(&manifest.state_file);
        let bytes = std::fs::read(&state_path)
            .map_err(|e| A4nnError::Checkpoint(format!("reading {}: {e}", state_path.display())))?;
        let parse_error = |e: &dyn std::fmt::Display| {
            A4nnError::Checkpoint(format!("parsing {}: {e}", state_path.display()))
        };
        let value: serde_json::Value =
            serde_json::from_slice(&bytes).map_err(|e| parse_error(&e))?;
        let mut state = SearchSnapshot::from_value(&value).map_err(|e| parse_error(&e))?;
        if state.generations_done != manifest.generations_done
            || state.config_hash != manifest.config_hash
        {
            return Err(A4nnError::Checkpoint(format!(
                "torn snapshot: manifest points at generation {} of config {:016x} but {} \
                 holds generation {} of config {:016x}",
                manifest.generations_done,
                manifest.config_hash,
                manifest.state_file,
                state.generations_done,
                state.config_hash
            )));
        }
        state.records = match value.get("records") {
            Some(inline) => Vec::from_value(inline).map_err(|e| parse_error(&e))?,
            None => read_models(dir, 0..state.models as u64).map_err(|e| {
                A4nnError::Checkpoint(format!(
                    "{} names {} committed model(s), but the commons beside it does not \
                     hold them: {e}",
                    manifest.state_file, state.models
                ))
            })?,
        };
        Ok(state)
    }
}

/// Refuse a snapshot of another schema `version` or of a configuration
/// other than `cfg` (by its [`config_hash`]): resuming it would silently
/// diverge.
fn check_fingerprint(version: u32, hash: u64, cfg: &WorkflowConfig) -> Result<(), A4nnError> {
    if version != SNAPSHOT_VERSION {
        return Err(A4nnError::Checkpoint(format!(
            "snapshot schema version {version} does not match this binary's version \
             {SNAPSHOT_VERSION}"
        )));
    }
    let expected = config_hash(cfg)?;
    if hash != expected {
        return Err(A4nnError::Checkpoint(format!(
            "stale snapshot: run directory was produced by config {hash:016x} but the \
             requested configuration hashes to {expected:016x}; rerun with the original \
             flags or start a fresh run directory"
        )));
    }
    Ok(())
}

/// Whether `name` is a bare `search_state_g<digits>.json` file name.
fn is_state_file_name(name: &str) -> bool {
    name.strip_prefix("search_state_g")
        .and_then(|rest| rest.strip_suffix(".json"))
        .is_some_and(|digits| !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4nn_xfel::BeamIntensity;
    use std::path::PathBuf;

    fn snapshot(cfg: &WorkflowConfig, generations_done: usize) -> SearchSnapshot {
        SearchSnapshot {
            version: SNAPSHOT_VERSION,
            config_hash: config_hash(cfg).unwrap(),
            driver: Driver::default(),
            trainer: TrainerSpec::default(),
            generations_done,
            rng_state: [1, 2, 3, 4],
            parents: vec![0, 2],
            records: Vec::new(),
            models: 0,
            schedules: Vec::new(),
            engine_seconds: 0.25,
            engine_interactions: 7,
            metrics: MetricsSnapshot::default(),
        }
    }

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("a4nn-resume-{tag}-{}", std::process::id()))
    }

    #[test]
    fn save_load_roundtrip_preserves_state() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        let dir = tmp("roundtrip");
        let snap = snapshot(&cfg, 3);
        snap.save(&dir).unwrap();
        let loaded = SearchSnapshot::load(&dir, &cfg).unwrap();
        assert_eq!(loaded.generations_done, 3);
        assert_eq!(loaded.rng_state, [1, 2, 3, 4]);
        assert_eq!(loaded.parents, vec![0, 2]);
        assert_eq!(loaded.engine_seconds, 0.25);
        assert_eq!(loaded.engine_interactions, 7);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn superseded_state_files_are_pruned_after_commit() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        let dir = tmp("prune");
        snapshot(&cfg, 1).save(&dir).unwrap();
        snapshot(&cfg, 2).save(&dir).unwrap();
        let states: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with("search_state_g"))
            .collect();
        assert_eq!(states, vec!["search_state_g0002.json".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_mismatch_is_a_checkpoint_error_naming_both_hashes() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        let dir = tmp("mismatch");
        snapshot(&cfg, 1).save(&dir).unwrap();
        let mut other = cfg.clone();
        other.seed = 6;
        let err = SearchSnapshot::load(&dir, &other).unwrap_err();
        assert_eq!(err.exit_code(), 5, "stale snapshots map to exit 5");
        let msg = err.to_string();
        let a = format!("{:016x}", config_hash(&cfg).unwrap());
        let b = format!("{:016x}", config_hash(&other).unwrap());
        assert!(msg.contains(&a) && msg.contains(&b), "got: {msg}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn changed_objectives_make_the_snapshot_stale() {
        // `objectives` is part of the serialized config, so resuming
        // under a different --objectives set fails the fingerprint check
        // — the existing exit-5 stale-snapshot path.
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        let dir = tmp("objset");
        snapshot(&cfg, 1).save(&dir).unwrap();
        let mut other = cfg;
        other.objectives =
            crate::objectives::ObjectiveSet::parse("neg_fitness,flops,peak_ws_bytes").unwrap();
        let err = SearchSnapshot::load(&dir, &other).unwrap_err();
        assert_eq!(err.exit_code(), 5, "changed objectives must exit 5");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_mismatch_rejected() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        let dir = tmp("version");
        let mut snap = snapshot(&cfg, 1);
        snap.version = SNAPSHOT_VERSION + 1;
        snap.save(&dir).unwrap();
        let err = SearchSnapshot::load(&dir, &cfg).unwrap_err();
        assert!(matches!(err, A4nnError::Checkpoint(_)), "got {err}");
        assert!(err.to_string().contains("schema version"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_manifest_is_a_checkpoint_error() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        let dir = tmp("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = SearchSnapshot::load(&dir, &cfg).unwrap_err();
        assert!(matches!(err, A4nnError::Checkpoint(_)), "got {err}");
        assert!(err.to_string().contains("no resumable search"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_state_detected_via_manifest_cross_check() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        let dir = tmp("torn");
        snapshot(&cfg, 2).save(&dir).unwrap();
        // Corrupt the committed state file to claim a different boundary.
        let state_path = dir.join("search_state_g0002.json");
        let mut tampered = snapshot(&cfg, 1);
        tampered.config_hash = config_hash(&cfg).unwrap();
        std::fs::write(&state_path, serde_json::to_vec_pretty(&tampered).unwrap()).unwrap();
        let err = SearchSnapshot::load(&dir, &cfg).unwrap_err();
        assert!(err.to_string().contains("torn snapshot"), "got {err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn config_hash_leaves_the_trainer_out() {
        // Fingerprints written before configurations named a trainer.
        let pinned = [
            (
                WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5),
                0x3dc3_abf7_40e2_47b9,
            ),
            (
                WorkflowConfig::a4nn(BeamIntensity::Low, 1, 2023),
                0xdcac_456e_77b2_6e6b,
            ),
        ];
        for (cfg, hash) in pinned {
            assert_eq!(config_hash(&cfg).unwrap(), hash);
            let real = WorkflowConfig {
                trainer: TrainerSpec::Real {
                    images: 20,
                    xfel: a4nn_xfel::XfelConfig::default(),
                },
                ..cfg
            };
            assert_eq!(config_hash(&real).unwrap(), hash);
        }
    }

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 2, 5);
        assert_eq!(config_hash(&cfg).unwrap(), config_hash(&cfg).unwrap());
        let mut other = cfg.clone();
        other.nas.generations += 1;
        assert_ne!(config_hash(&cfg).unwrap(), config_hash(&other).unwrap());
    }
}
