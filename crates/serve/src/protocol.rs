//! Serve wire protocol: the request/response vocabulary spoken over the
//! `a4nn-net` length-prefixed frame codec.
//!
//! The framing (magic, version, length, JSON payload) is exactly the one
//! the distributed-search worker speaks — [`a4nn_net::frame`] — so the
//! serve endpoint inherits its typed rejection of truncation, corruption,
//! and foreign protocol revisions, plus the incremental payload reader
//! that caps what an untrusted peer's length header can allocate. The
//! frame header is the only place the protocol revision lives: a session
//! opens with its first request, and a frame of another revision closes
//! the connection unanswered.
//!
//! Two request kinds: `Classify` (one image in, logits + argmax class
//! out) and `Models` (the Pareto menu: every served model with its
//! fitness/FLOPs trade-off so a client can pick a point on the front).
//! Saturation is an explicit [`ServeResponse::Rejected`] — a client sees
//! *why* it was refused and can back off, instead of watching a socket
//! time out.

use serde::{Deserialize, Serialize};

/// One request frame from a serve client.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeRequest {
    /// Classify one image.
    Classify {
        /// Which served model to use; `None` picks the server's default
        /// (the best-by-fitness Pareto point).
        model_id: Option<u64>,
        /// Image channels (must match the model's input channels).
        channels: usize,
        /// Image height in pixels.
        height: usize,
        /// Image width in pixels.
        width: usize,
        /// Row-major CHW pixel data, `channels * height * width` long.
        pixels: Vec<f32>,
    },
    /// List the served Pareto-front models.
    Models,
    /// Orderly session close.
    Goodbye,
}

/// One served model as advertised by the model-picker endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelInfo {
    /// Model id within the source search run.
    pub model_id: u64,
    /// Final fitness the search recorded (validation accuracy, %).
    pub fitness: f64,
    /// Estimated forward FLOPs — the cost axis of the Pareto front.
    pub flops: f64,
    /// Names of the objectives the source search minimized, in
    /// objective order. Empty when the commons predates the objective
    /// registry; consumers then assume the legacy
    /// `(neg_fitness, flops)` pair.
    #[serde(default)]
    pub objective_names: Vec<String>,
    /// The record's minimized objective vector, aligned with
    /// `objective_names`.
    #[serde(default)]
    pub objective_values: Vec<f64>,
    /// Human-readable architecture summary from the record trail.
    pub arch_summary: String,
    /// Input channels the model expects.
    pub input_channels: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// Epoch of the checkpoint being served (`None` when the model was
    /// deterministically rebuilt from its genome instead).
    pub checkpoint_epoch: Option<u32>,
    /// Whether this is the server's default model.
    pub default: bool,
}

/// One response frame from the server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServeResponse {
    /// A classify result.
    Classified {
        /// The model that produced this answer (resolves a `None` pick).
        model_id: u64,
        /// Argmax class index.
        class: usize,
        /// Raw logits, one per class. `f32` survives the JSON codec
        /// bit-exactly (f32→f64 widening is exact and the vendored
        /// serde_json round-trips f64), which is what makes the
        /// serve-vs-direct bitwise equivalence checkable over the wire.
        logits: Vec<f32>,
    },
    /// The admission queue was full; back off and retry.
    Rejected {
        /// Human-readable reason (queue capacity).
        reason: String,
    },
    /// The request was invalid (unknown model, wrong pixel count, …).
    Error {
        /// Human-readable reason.
        message: String,
    },
    /// The Pareto menu.
    Models(Vec<ModelInfo>),
}
