//! # a4nn-serve — batched Pareto-front inference under load
//!
//! The paper's workflow ends when the search writes its data commons;
//! this crate is what production starts with: a long-running TCP server
//! that loads the run's Pareto-front models and answers classify
//! requests, micro-batching concurrent traffic through shared forward
//! passes.
//!
//! Pipeline, in order:
//!
//! - [`model`] — [`ModelRepo`]: the fitness/FLOPs Pareto front out of a
//!   commons directory, with trained weights from a `checkpoints/`
//!   [`CheckpointStore`](a4nn_core::CheckpointStore) when present and a
//!   deterministic genome rebuild otherwise.
//! - [`batcher`] — [`Batcher`]: a bounded admission queue (full ⇒ typed
//!   [`A4nnError::Saturated`](a4nn_error::A4nnError) rejection, CLI exit
//!   code 11) feeding one batch worker that folds same-model, same-shape
//!   requests into single eval-mode forward passes over a pooled
//!   [`Workspace`](a4nn_nn::Workspace) arena. Its bounds are constants.
//! - [`server`] / [`client`] — the TCP endpoint and its blocking client,
//!   speaking [`protocol`] messages over the `a4nn-net` frame codec
//!   (same magic, version, and typed frame errors as the distributed
//!   search). One epoll event loop, over the crate's own syscall
//!   bindings, multiplexes every connection through one thread and
//!   speaks the protocol itself: a connection with a classification in
//!   flight is not read until the reply is queued, so replies leave in
//!   request order and a pipelining peer waits in its own socket; so
//!   does one that leaves its replies unread past a fixed byte cap. It
//!   is the only I/O model, so off Linux [`ServeServer::bind`] refuses
//!   with a config error.
//!
//! The load-bearing property is the serving restatement of the
//! workspace determinism argument: eval-mode forward treats every sample
//! independently, so micro-batching, buffer reuse, and the JSON wire
//! codec (f32→f64 widening is exact, and the vendored serde_json
//! round-trips f64) all preserve logits *bitwise*. A served answer is
//! the answer a local single-request evaluation would give.

#![warn(clippy::redundant_clone)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod batcher;
pub mod client;
pub mod model;
pub mod protocol;
#[cfg(target_os = "linux")]
mod reactor;
pub mod server;
#[cfg(target_os = "linux")]
mod sys;

pub use batcher::{Batcher, BatcherConfig, Classification};
pub use client::ServeClient;
pub use model::{ModelRepo, ServedModel};
pub use protocol::{ModelInfo, ServeRequest, ServeResponse};
pub use server::{ServeConfig, ServeHandle, ServeServer};

/// Off Linux there is no epoll and so no I/O model to serve on:
/// [`Reactor::new`](reactor::Reactor::new) refuses, so
/// [`ServeServer::bind`] fails before it binds the port or starts the
/// batch worker, and no server is ever built to reach `run`.
#[cfg(not(target_os = "linux"))]
mod reactor {
    use crate::batcher::Batcher;
    use a4nn_error::A4nnError;
    use a4nn_metrics::MetricsRegistry;
    use std::net::TcpListener;
    use std::path::Path;
    use std::sync::Arc;
    use std::time::Duration;

    pub(crate) enum Reactor {}

    impl Reactor {
        pub(crate) fn new(_: Duration, _: Arc<MetricsRegistry>) -> Result<Self, A4nnError> {
            Err(A4nnError::Config("a4nn serve needs epoll (Linux)".into()))
        }

        pub(crate) fn run(
            &self,
            _: &TcpListener,
            _: &Batcher,
            _: Option<&Path>,
            _: usize,
        ) -> Result<(), A4nnError> {
            match *self {}
        }
    }
}
