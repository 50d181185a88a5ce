//! Pre-registry compatibility: a commons written before the objective
//! registry existed (no objective columns, no objective fields in the
//! record trails) must still load, serve the same Pareto menu it always
//! did, and export the same 14-column `models.csv`.
//!
//! The fixtures under `tests/fixtures/` were produced by a pre-refactor
//! build (6+6×1 surrogate run, low beam, seed 2023) and are committed
//! verbatim; they pin the fallback path against drift.

use a4nn_lineage::{models_csv, DataCommons};
use a4nn_serve::ModelRepo;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

#[test]
fn legacy_commons_serves_the_reconstructed_pair() {
    let repo = ModelRepo::load(&fixture("legacy_commons")).expect("legacy commons must load");
    assert!(!repo.models().is_empty(), "fixture front must be non-empty");
    for info in repo.infos() {
        // Pre-registry records carry no objective columns; the menu must
        // fall back to the reconstructed (neg_fitness, flops) pair.
        assert_eq!(info.objective_names, vec!["neg_fitness", "flops"]);
        assert_eq!(info.objective_values.len(), 2);
        assert_eq!(info.objective_values[0], -info.fitness);
        assert_eq!(info.objective_values[1], info.flops);
    }
}

#[test]
fn legacy_commons_menu_matches_the_legacy_front() {
    // The objective-vector front over untagged records must reproduce
    // the historical fitness/FLOPs front exactly: same models, same
    // default pick.
    let commons = DataCommons::load_dir(&fixture("legacy_commons")).unwrap();
    let repo = ModelRepo::from_commons(&commons, None).unwrap();
    // The ids the fitness/FLOPs front picks from the fixture.
    let legacy_front: Vec<u64> = vec![1, 6, 7];
    let served: Vec<u64> = repo.infos().iter().map(|m| m.model_id).collect();
    assert_eq!(served, legacy_front);
}

#[test]
fn legacy_commons_exports_the_14_column_csv_byte_identical() {
    // Loading a pre-refactor commons and re-exporting it must produce
    // the exact CSV the pre-refactor build wrote: headers, column count,
    // and every byte of every row.
    let commons = DataCommons::load_dir(&fixture("legacy_commons")).unwrap();
    let exported = models_csv(&commons);
    let committed = std::fs::read_to_string(fixture("legacy_models.csv")).unwrap();
    assert_eq!(
        exported, committed,
        "legacy commons must round-trip to the committed pre-refactor models.csv"
    );
    let header = exported.lines().next().unwrap();
    assert_eq!(header.split(',').count(), 14, "legacy schema is 14 columns");
    assert!(
        !header.contains("obj_"),
        "no objective columns for legacy runs"
    );
}
