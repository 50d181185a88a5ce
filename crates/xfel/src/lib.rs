//! # a4nn-xfel — synthetic XFEL protein-diffraction dataset
//!
//! The paper's use case classifies two conformations of the EF2 protein
//! (PDB 1n0u / 1n0v) from diffraction patterns produced by *spsim* with
//! beam orientations from *Xmipp* (§3.1). Those simulators and the PDB
//! structures are not available here, so this crate implements the closest
//! synthetic equivalent that preserves the behaviour the workflow is
//! evaluated on:
//!
//! - two rigid **conformers** that differ by a domain rotation around a
//!   single hinge — the physical meaning of a protein conformational
//!   change ([`conformer`]),
//! - uniformly random **beam orientations** via quaternion-sampled
//!   rotation matrices ([`geometry`]),
//! - far-field **diffraction intensities** `I(q) = |Σⱼ exp(i q·rⱼ)|²` on a
//!   square detector ([`diffraction`]),
//! - **Poisson photon noise** whose scale is set by the beam intensity:
//!   the paper's low/medium/high intensities (1e14/1e15/1e16
//!   photons/μm²/pulse) map to mean photon budgets such that low intensity
//!   ⇒ high relative noise, exactly the proxy relationship §3.1 describes
//!   ([`beam`]),
//! - balanced, seeded **dataset generation** with the paper's 80/20
//!   train/test split ([`dataset`]).

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod beam;
pub mod conformer;
pub mod dataset;
pub mod diffraction;
pub mod geometry;

pub use beam::BeamIntensity;
pub use conformer::{Conformer, ConformerPair};
pub use dataset::{generate_dataset, generate_split, XfelConfig};
pub use diffraction::{diffraction_intensity, render_pattern};
pub use geometry::{random_rotation, Rotation};
