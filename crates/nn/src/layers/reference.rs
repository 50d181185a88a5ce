//! Straight-line reference kernels for [`Dense`]: the direct loop nests
//! its production kernel (`gemm_nn_seq`) is differentially tested
//! against. Nothing trains or serves through these;
//! `tests/dense_equivalence.rs` is the only caller. (The naive
//! convolution loops live in `tests/conv_equivalence.rs`.)
//!
//! Each function is a drop-in for the layer method of the same name: it
//! caches the input on forward and accumulates into the layer's
//! gradient buffers on backward, so a test can run a layer and its
//! clone side by side and compare every output and gradient.

use super::Dense;
use crate::tensor::Tensor2;

/// [`Dense::forward_ws`] as one strictly sequential dot per output element.
pub fn dense_forward(dense: &mut Dense, x: &Tensor2) -> Tensor2 {
    assert_eq!(x.cols, dense.d_in, "dense input width mismatch");
    let mut out = Tensor2::zeros(x.rows, dense.d_out);
    for r in 0..x.rows {
        let xi = x.row(r);
        let or = out.row_mut(r);
        for (o, out_v) in or.iter_mut().enumerate() {
            let wrow = &dense.weight[o * dense.d_in..(o + 1) * dense.d_in];
            let mut acc = dense.bias[o];
            for (a, b) in xi.iter().zip(wrow) {
                acc += a * b;
            }
            *out_v = acc;
        }
    }
    dense.cached_input = Some(x.clone());
    out
}

/// [`Dense::backward_ws`] as plain loops: skips zero output-gradients and
/// accumulates directly into the persistent gradient buffers.
pub fn dense_backward(dense: &mut Dense, grad_out: &Tensor2) -> Tensor2 {
    assert_eq!(grad_out.cols, dense.d_out);
    let Some(x) = dense.cached_input.take() else {
        panic!("backward called before forward")
    };
    let mut grad_in = Tensor2::zeros(x.rows, dense.d_in);
    for r in 0..x.rows {
        let g = grad_out.row(r);
        let xi = x.row(r);
        for (o, &go) in g.iter().enumerate() {
            if go == 0.0 {
                continue;
            }
            dense.bgrad[o] += go;
            let wrow = &dense.weight[o * dense.d_in..(o + 1) * dense.d_in];
            let wgrow = &mut dense.wgrad[o * dense.d_in..(o + 1) * dense.d_in];
            let gi = grad_in.row_mut(r);
            for i in 0..dense.d_in {
                wgrow[i] += xi[i] * go;
                gi[i] += wrow[i] * go;
            }
        }
    }
    grad_in
}
