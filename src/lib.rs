//! # A4NN — Analytics for Neural Networks, in Rust
//!
//! Umbrella crate of the A4NN workspace: a from-scratch reproduction of
//! *"Composable Workflow for Accelerating Neural Architecture Search Using
//! In Situ Analytics for Protein Classification"* (Channing et al., ICPP
//! 2023). It re-exports each subsystem crate and the common prelude; the
//! runnable entry points live in `examples/` and the `a4nn` binary
//! (`crates/cli`), whose `a4nn reproduce` regenerates the paper's
//! evaluation.
//!
//! | module | crate | subsystem |
//! |---|---|---|
//! | [`core`] | `a4nn-core` | workflow orchestrator, trainers, Algorithm 1 |
//! | [`penguin`] | `a4nn-penguin` | parametric fitness-prediction engine |
//! | [`nsga`] | `a4nn-nsga` | NSGA-II primitives and the generation step |
//! | [`genome`] | `a4nn-genome` | NSGA-Net macro search space |
//! | [`nn`] | `a4nn-nn` | CPU neural-network training substrate |
//! | [`xfel`] | `a4nn-xfel` | synthetic XFEL diffraction dataset |
//! | [`sched`] | `a4nn-sched` | FIFO GPU resource manager (DES + pool) |
//! | [`lineage`] | `a4nn-lineage` | record trails, data commons, analyzer |
//! | [`xpsi`] | `a4nn-xpsi` | XPSI baseline (autoencoder + kNN) |

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub use a4nn_core as core;
pub use a4nn_genome as genome;
pub use a4nn_lineage as lineage;
pub use a4nn_nn as nn;
pub use a4nn_nsga as nsga;
pub use a4nn_penguin as penguin;
pub use a4nn_sched as sched;
pub use a4nn_xfel as xfel;
pub use a4nn_xpsi as xpsi;

/// The cross-crate prelude (same as [`a4nn_core::prelude`]).
pub mod prelude {
    pub use a4nn_core::prelude::*;
}
