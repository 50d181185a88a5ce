//! Straight-line reference kernels for [`Conv2d`] and [`Dense`]: the
//! direct loop nests the production kernels (framed-input GEMMs,
//! `gemm_nn_seq`) are differentially tested against. Nothing trains or
//! serves through these; `tests/conv_equivalence.rs` and
//! `tests/dense_equivalence.rs` are the only callers.
//!
//! Each function is a drop-in for the layer method of the same name: it
//! caches the input on forward and accumulates into the layer's
//! gradient buffers on backward, so a test can run a layer and its
//! clone side by side and compare every output and gradient.

use super::{Conv2d, Dense};
use crate::im2col::{frame, ConvGeometry};
use crate::tensor::{Tensor2, Tensor4};

/// [`Conv2d::forward_ws`] as a direct loop nest, one sample at a time.
pub fn conv2d_forward(conv: &mut Conv2d, x: &Tensor4) -> Tensor4 {
    assert_eq!(x.c, conv.c_in, "conv input channel mismatch");
    let (n, _, h, w) = x.shape();
    let k = conv.kernel;
    let pad = k / 2;
    let mut out = Tensor4::zeros(n, conv.c_out, h, w);
    let sample_out = conv.c_out * h * w;
    let weight = &conv.weight;
    let bias = &conv.bias;
    let (c_in, c_out) = (conv.c_in, conv.c_out);
    for (ni, out_s) in out.data_mut().chunks_mut(sample_out).enumerate() {
        let x_s = x.sample(ni);
        for co in 0..c_out {
            let b = bias[co];
            for y in 0..h {
                for xo in 0..w {
                    let mut acc = b;
                    for ci in 0..c_in {
                        let x_base = ci * h * w;
                        let w_base = ((co * c_in + ci) * k) * k;
                        for ky in 0..k {
                            let yy = y as isize + ky as isize - pad as isize;
                            if yy < 0 || yy >= h as isize {
                                continue;
                            }
                            let row = x_base + (yy as usize) * w;
                            let wrow = w_base + ky * k;
                            for kx in 0..k {
                                let xx = xo as isize + kx as isize - pad as isize;
                                if xx < 0 || xx >= w as isize {
                                    continue;
                                }
                                acc += x_s[row + xx as usize] * weight[wrow + kx];
                            }
                        }
                    }
                    out_s[(co * h + y) * w + xo] = acc;
                }
            }
        }
    }
    // The layer keeps its input framed by the zero padding; the reference
    // keeps the same, so either backward can follow either forward.
    let g = ConvGeometry::same(c_in, h, w, k);
    let mut frames = Tensor2::zeros(n, g.framed());
    for ni in 0..n {
        frame(
            x.sample(ni),
            &g,
            &mut frames.data_mut()[ni * g.framed()..(ni + 1) * g.framed()],
        );
    }
    conv.cached_frames = Some(frames);
    out
}

/// [`Conv2d::backward_ws`] as a direct loop nest with per-sample partials
/// reduced in sample order.
pub fn conv2d_backward(conv: &mut Conv2d, grad_out: &Tensor4) -> Tensor4 {
    let Some(frames) = conv.cached_frames.take() else {
        panic!("backward called before forward")
    };
    let k = conv.kernel;
    let pad = k / 2;
    let (n, c_in, h, w) = (grad_out.n, conv.c_in, grad_out.h, grad_out.w);
    let g = ConvGeometry::same(c_in, h, w, k);
    assert_eq!((frames.rows, frames.cols), (n, g.framed()));
    let mut x = Tensor4::zeros(n, c_in, h, w);
    for ni in 0..n {
        for ci in 0..c_in {
            for y in 0..h {
                for xo in 0..w {
                    x.set(ni, ci, y, xo, frames.row(ni)[g.frame_at(ci, y, xo)]);
                }
            }
        }
    }

    // Each sample's gradients are summed on their own and then added to
    // the layer's buffers, in sample order — the reduction order the
    // production kernel reproduces.
    let c_out = conv.c_out;
    let weight = &conv.weight;
    let mut grad_in = Tensor4::zeros(n, c_in, h, w);
    for ni in 0..n {
        let x_s = x.sample(ni);
        let g_s = grad_out.sample(ni);
        let gin = grad_in.sample_mut(ni);
        let mut wg = vec![0.0f32; weight.len()];
        let mut bg = vec![0.0f32; c_out];
        for co in 0..c_out {
            for y in 0..h {
                for xo in 0..w {
                    let g = g_s[(co * h + y) * w + xo];
                    if g == 0.0 {
                        continue;
                    }
                    bg[co] += g;
                    for ci in 0..c_in {
                        let x_base = ci * h * w;
                        let w_base = ((co * c_in + ci) * k) * k;
                        for ky in 0..k {
                            let yy = y as isize + ky as isize - pad as isize;
                            if yy < 0 || yy >= h as isize {
                                continue;
                            }
                            let row = x_base + (yy as usize) * w;
                            let wrow = w_base + ky * k;
                            for kx in 0..k {
                                let xx = xo as isize + kx as isize - pad as isize;
                                if xx < 0 || xx >= w as isize {
                                    continue;
                                }
                                wg[wrow + kx] += x_s[row + xx as usize] * g;
                                gin[row + xx as usize] += weight[wrow + kx] * g;
                            }
                        }
                    }
                }
            }
        }
        for (acc, v) in conv.wgrad.iter_mut().zip(&wg) {
            *acc += v;
        }
        for (acc, v) in conv.bgrad.iter_mut().zip(&bg) {
            *acc += v;
        }
    }
    grad_in
}

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
