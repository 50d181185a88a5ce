//! # a4nn-lineage — lineage tracker and NN data commons
//!
//! §2.3: A4NN "rigorously record\[s\] neural architecture histories, model
//! states, and metadata to reproduce the search for near-optimal NNs."
//! This crate is that record system:
//!
//! - [`record`] — per-model record trails: genome, architecture summary,
//!   engine parameters, per-epoch fitness/prediction/duration entries,
//!   FLOPs, termination information, and the GPU that trained the model;
//! - [`commons`] — the data commons: the run's record trails in memory,
//!   plus an on-disk JSON layout (one file per model and a manifest)
//!   standing in for the paper's Harvard Dataverse deposit;
//! - [`analyzer`] — the analyzer: query/aggregation methods on
//!   [`DataCommons`] behind the paper's Jupyter-notebook analysis (Pareto
//!   extraction, termination distributions, epoch totals, FLOPs/accuracy
//!   correlation);
//! - [`structure`] — structural analytics: fixed feature vectors over
//!   genomes, feature↔fitness correlations, and success-vs-rest contrasts
//!   (the conclusions' "structural similarities" question);
//! - [`export`] — CSV exports (per-model, per-epoch, and per-model
//!   attempt accounting) matching the paper's "load into a DataFrame"
//!   affordance.

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod analyzer;
pub mod commons;
pub mod curves;
pub mod export;
pub mod record;
pub mod structure;

pub use commons::{append_dir, read_models, write_atomic, DataCommons};
pub use curves::{classify_curve, classify_record, shape_census, CurveShape};
pub use export::{epochs_csv, models_csv, retries_csv};
pub use record::{fitness_cmp, EngineParamsRecord, EpochRecord, ModelRecord, Terminated};
pub use structure::{feature_fitness_correlations, success_contrast, StructuralFeatures};
