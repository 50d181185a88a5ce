//! # a4nn-penguin — decoupled parametric fitness-prediction engine
//!
//! This crate implements the *parametric prediction engine* of the A4NN
//! workflow (Channing et al., ICPP 2023, §2.1), a self-contained,
//! externally-controllable engine in the spirit of PENGUIN (Rorabaugh et
//! al., TPDS 2022). Given the partial learning curve of a neural network
//! (validation fitness per epoch), the engine:
//!
//! 1. fits a **parametric model** of the fitness curve — by default the
//!    paper's concave function `F(x) = a − b^(c−x)` — with nonlinear least
//!    squares ([`fit`]), and
//! 2. extrapolates the fitness the network is expected to attain at a
//!    target epoch `e_pred`, then decides via the **prediction analyzer**
//!    ([`EngineConfig::converged`]) whether the sequence of predictions has converged to a
//!    stable, in-bounds value, in which case training can be terminated
//!    early.
//!
//! The engine is deliberately decoupled from any particular NAS: it
//! consumes only `(epoch, fitness)` pairs and produces predictions, which
//! is what makes the A4NN workflow *composable*.
//!
//! ## Quick example
//!
//! ```
//! use a4nn_penguin::{EngineConfig, PredictionEngine};
//!
//! let mut engine = PredictionEngine::new(EngineConfig::paper_defaults());
//! // Feed a well-behaved concave learning curve.
//! let mut outcome = None;
//! for e in 1..=25u32 {
//!     let fitness = 95.0 - 60.0 * 0.6f64.powi(e as i32);
//!     if let Some(p) = engine.interact(e, fitness).converged {
//!         outcome = Some((e, p));
//!         break;
//!     }
//! }
//! let (terminated_at, predicted) = outcome.expect("curve should converge");
//! assert!(terminated_at < 25);
//! assert!((predicted - 95.0).abs() < 2.0);
//! ```
#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod curve;
pub mod engine;
pub mod fit;

pub use curve::CurveFamily;
pub use engine::{replay, EngineConfig, EngineStats, PredictionEngine, Replay, Verdict};
pub use fit::{fit_curve, FitConfig, FitError, FitResult};
