//! # a4nn-genome — NSGA-Net macro search space
//!
//! Bit-string genomes over the NSGA-Net *macro* search space (Lu et al.,
//! 2019; derived from Genetic CNN): a network is a sequence of `P` phases,
//! each phase a small directed acyclic graph over `K` computational nodes
//! (conv→BN→ReLU blocks), separated by spatial-reduction (pooling) layers
//! and capped by a classifier head.
//!
//! Each phase is encoded by `K·(K−1)/2 + 1` bits: one bit per possible
//! forward edge `j → i` (`j < i`) in the node DAG plus one *skip* bit that
//! adds a residual connection around the whole phase. The paper's Table 2
//! uses `K = 4` nodes per phase, so a phase costs 7 bits and a 3-phase
//! genome is 21 bits.
//!
//! The crate provides:
//!
//! - [`Genome`]/[`PhaseGenome`] — the encoding, with compact string form,
//! - [`SearchSpace`] — sampling, bit-flip mutation, uniform and one-point
//!   crossover (the variation operators NSGA-Net applies),
//! - [`decode`](SearchSpace::decode) — genome → [`ArchSpec`], the concrete
//!   layer DAG a training substrate can instantiate,
//! - [`flops`] — closed-form FLOPs estimates per architecture (NSGA-Net's
//!   second objective),
//! - [`cost`] — closed-form hardware costs (parameter bytes, MACs, peak
//!   workspace bytes) for the hardware-aware objective providers,
//! - [`viz`] — ASCII and Graphviz-DOT renderings of decoded architectures
//!   (the paper's Figures 3 and 10).

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod arch;
pub mod cost;
pub mod encoding;
pub mod flops;
pub mod space;
pub mod viz;

pub use arch::{ArchSpec, NodeOp, PhaseSpec};
pub use cost::{estimate_macs, estimate_params_bytes, estimate_peak_ws_bytes};
pub use encoding::{Genome, PhaseGenome};
pub use flops::{estimate_flops, estimate_mflops};
pub use space::{SearchSpace, VariationConfig};
