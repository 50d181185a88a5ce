//! # a4nn-nn — from-scratch CPU neural-network training substrate
//!
//! The A4NN paper trains its NAS candidates with PyTorch on GPUs. This
//! crate is the substitute substrate: a small, dependency-light,
//! deterministic CPU training library sufficient to instantiate and train
//! every architecture the NSGA-Net macro search space can express:
//!
//! - [`tensor`] — dense `f32` tensors in NCHW layout plus 2-D matrices,
//! - [`layers`] — Conv2d, BatchNorm2d, ReLU, MaxPool2d, global average
//!   pooling, and Dense, each with hand-derived backward passes and exact
//!   FLOPs accounting,
//! - [`graph`] — phase-DAG networks with sum joins and residual skips
//!   (the decoded NSGA-Net macro genome), built from a [`NetSpec`],
//! - [`loss`] — softmax cross-entropy,
//! - [`optim`] — SGD with momentum and weight decay,
//! - [`data`] — minibatch iteration over image datasets,
//! - [`serialize`] — model state (de)serialization so every epoch's weights
//!   can be checkpointed into the data commons, as §2.2.2 requires.
//!
//! Minibatch forward/backward is data-parallel over the batch dimension
//! on scoped threads sized by the intra-op budget ([`gemm`]). All
//! randomness flows through caller-provided seeds.

#![warn(clippy::redundant_clone)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod data;
pub mod gemm;
pub mod graph;
pub mod im2col;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod par;
pub mod serialize;
pub mod tensor;
pub mod workspace;

pub use data::{BatchIter, Dataset};
pub use graph::{NetSpec, Network, PhaseNetSpec};
pub use loss::{cross_entropy_ws, CrossEntropyOutput};
pub use optim::Sgd;
pub use serialize::ModelState;
pub use tensor::{Tensor2, Tensor4};
pub use workspace::Workspace;

/// Train `net` for one epoch over `train` and return `(mean loss,
/// train accuracy %)`, drawing all per-batch buffers — the gathered
/// batch, every activation and gradient, loss scratch — from `ws`.
/// After the first batch warms the pool, the loop performs zero heap
/// allocations per batch (pinned by `tests/alloc_regression.rs`).
pub fn train_epoch_ws(
    net: &mut Network,
    opt: &mut Sgd,
    train: &Dataset,
    batch_size: usize,
    rng: &mut impl rand::Rng,
    ws: &mut Workspace,
) -> (f32, f32) {
    let mut total_loss = 0.0f64;
    let mut correct = 0usize;
    let mut seen = 0usize;
    // Size the gather buffer for a full batch up front so best-fit reuse
    // keeps serving it even after a smaller remainder batch.
    let mut images = {
        let (c, h, w) = (train.channels, train.height, train.width);
        ws.t4_scratch(batch_size.min(train.len().max(1)), c, h, w)
    };
    let mut labels = ws.take_labels();
    let mut iter = train.shuffled_batches(batch_size, rng);
    while iter.next_into(&mut images, &mut labels) {
        let logits = net.forward_ws(&images, true, ws);
        let out = cross_entropy_ws(&logits, &labels, ws);
        ws.give2(logits);
        total_loss += f64::from(out.loss) * labels.len() as f64;
        correct += out.correct;
        seen += labels.len();
        net.backward_ws(&out.dlogits, ws);
        ws.give2(out.dlogits);
        ws.give2(out.probs);
        opt.step(net);
    }
    ws.give4(images);
    ws.give_labels(labels);
    let mean_loss = if seen == 0 {
        0.0
    } else {
        (total_loss / seen as f64) as f32
    };
    let acc = if seen == 0 {
        0.0
    } else {
        100.0 * correct as f32 / seen as f32
    };
    (mean_loss, acc)
}

/// Bit patterns of `values`, for tests that pin results exactly: unlike
/// `f32` equality it tells `-0.0` from `0.0` and compares NaN payloads.
#[cfg(test)]
pub(crate) fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}
