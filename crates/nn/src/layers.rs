//! Neural-network layers with hand-derived backward passes.
//!
//! Every layer has one forward and one backward entry point, caches what
//! its backward pass needs during the forward pass, exposes its
//! parameters through [`visit_params`](Conv2d::visit_params) so the
//! optimizer stays layer-agnostic, and reports exact forward FLOPs for
//! the NAS's second objective.

use crate::gemm;
use crate::im2col::{self, ConvGeometry, TapTable};
use crate::init::{he_normal, xavier_normal};
use crate::tensor::{Tensor2, Tensor4};
use crate::workspace::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};

#[doc(hidden)]
pub mod reference;

/// Visitor signature for parameter/gradient pairs.
pub type ParamVisitor<'a> = &'a mut dyn FnMut(&mut [f32], &mut [f32]);

// ---------------------------------------------------------------------------
// Conv2d
// ---------------------------------------------------------------------------

/// 2-D convolution, stride 1, `same` zero padding, square kernel.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    /// Input channels.
    pub c_in: usize,
    /// Output channels.
    pub c_out: usize,
    /// Kernel side (odd).
    pub kernel: usize,
    /// Weights, `[c_out][c_in][k][k]` flattened.
    pub weight: Vec<f32>,
    /// Per-output-channel bias.
    pub bias: Vec<f32>,
    #[serde(skip)]
    wgrad: Vec<f32>,
    #[serde(skip)]
    bgrad: Vec<f32>,
    #[serde(skip)]
    taps: TapTable,
    /// A training forward's input framed by its zero padding, one sample a
    /// row ([`im2col::frame`]): what backward reads the patch matrix from.
    #[serde(skip)]
    cached_frames: Option<Tensor2>,
}

impl Conv2d {
    /// He-initialized convolution.
    pub fn new<R: Rng + ?Sized>(c_in: usize, c_out: usize, kernel: usize, rng: &mut R) -> Self {
        assert!(kernel % 2 == 1, "same-padding conv needs an odd kernel");
        let mut weight = vec![0.0f32; c_out * c_in * kernel * kernel];
        he_normal(rng, c_in * kernel * kernel, &mut weight);
        Conv2d {
            c_in,
            c_out,
            kernel,
            weight,
            bias: vec![0.0; c_out],
            wgrad: vec![0.0; c_out * c_in * kernel * kernel],
            bgrad: vec![0.0; c_out],
            taps: TapTable::default(),
            cached_frames: None,
        }
    }

    /// Forward pass drawing all scratch (output tensor, framed input) from
    /// `ws` instead of the allocator. The framed input is kept for backward
    /// only when `training`.
    ///
    /// Each sample is framed by its zero padding, and the weight matrix is
    /// multiplied by the patch matrix read in place from the frame
    /// ([`im2col`] module docs), one sample after another.
    pub fn forward_ws(&mut self, x: &Tensor4, training: bool, ws: &mut Workspace) -> Tensor4 {
        assert_eq!(x.c, self.c_in, "conv input channel mismatch");
        let (n, _, h, w) = x.shape();
        let g = ConvGeometry::same(self.c_in, h, w, self.kernel);
        // Framing writes every element and the forward seeds every output
        // row with the bias before the GEMM accumulates, so stale scratch
        // contents never leak.
        let mut frames = ws.t2_scratch(n, g.framed());
        let mut out = ws.t4_scratch(n, self.c_out, h, w);
        let taps = self.taps.starts(&g);
        for ((x_s, frame_s), out_s) in x
            .data()
            .chunks(self.c_in * h * w)
            .zip(frames.data_mut().chunks_mut(g.framed()))
            .zip(out.data_mut().chunks_mut(self.c_out * h * w))
        {
            im2col::frame(x_s, &g, frame_s);
            im2col::conv_forward_framed(frame_s, taps, &self.weight, &self.bias, &g, out_s);
        }
        // Recycle a cache left by a training forward that never ran
        // backward, so the pool gets its buffer back.
        if let Some(old) = self.cached_frames.take() {
            ws.give2(old);
        }
        if training {
            self.cached_frames = Some(frames);
        } else {
            ws.give2(frames);
        }
        out
    }

    /// Backward pass: accumulates weight/bias grads and returns the
    /// gradient with respect to the input, drawing all scratch from `ws`;
    /// the framed input kept by forward is recycled back into the pool.
    pub fn backward_ws(&mut self, grad_out: &Tensor4, ws: &mut Workspace) -> Tensor4 {
        let (n, _, h, w) = grad_out.shape();
        // The scatter writes every element.
        let mut grad_in = ws.t4_scratch(n, self.c_in, h, w);
        self.backward(grad_out, Some(&mut grad_in), ws);
        grad_in
    }

    /// [`backward_ws`](Self::backward_ws) for a layer whose input needs no
    /// gradient — a network's first convolution, whose input is the
    /// images: only the weight and bias gradients are accumulated.
    pub(crate) fn backward_params_ws(&mut self, grad_out: &Tensor4, ws: &mut Workspace) {
        self.backward(grad_out, None, ws);
    }

    fn backward(&mut self, grad_out: &Tensor4, grad_in: Option<&mut Tensor4>, ws: &mut Workspace) {
        let Some(frames) = self.cached_frames.take() else {
            panic!("backward called before forward")
        };
        let (n, _, h, w) = grad_out.shape();
        let g = ConvGeometry::same(self.c_in, h, w, self.kernel);
        assert_eq!(
            (frames.rows, frames.cols),
            (n, g.framed()),
            "conv grad-out shape does not match the forward input"
        );
        assert_eq!(grad_out.c, self.c_out, "conv grad-out channel mismatch");
        let (kp, c_out) = (g.patch(), self.c_out);
        // The input gradient's GEMM runs on the transposed weight;
        // transpose overwrites every element, so scratch contents are fine.
        let wt = grad_in.is_some().then(|| {
            let mut wt = ws.take_scratch(kp * c_out);
            gemm::transpose(c_out, kp, &self.weight, &mut wt);
            wt
        });
        // Samples in order, each adding its weight and bias gradients
        // straight onto the layer's. That is bit for bit the sum of
        // zero-seeded per-sample partials: every `gemm_nt` path
        // (`dot_lanes`, `dot_lanes_tile`, `nt_across`, AVX-512 `dot_tap`)
        // gives an output one `c += dot`, and each bias row is one
        // `c += sum`. `sum` starts at `+0.0`, and every `dot` ends by
        // adding a chain that starts at `+0.0` (`+ tail`, `+ z`), so
        // neither is ever `−0.0`, and a partial `0.0 + dot` was `dot`.
        let mut scratch = ws.take_scratch(im2col::backward_scratch(&g, wt.is_some()));
        let (taps, wg, bg) = (self.taps.starts(&g), &mut self.wgrad, &mut self.bgrad);
        let mut gin_samples = grad_in.map(|t| t.data_mut().chunks_mut(self.c_in * h * w));
        for ni in 0..n {
            let (frame, g_s) = (frames.row(ni), grad_out.sample(ni));
            im2col::conv_param_grads(frame, taps, g_s, &g, &mut scratch, wg, bg);
            if let (Some(gin_s), Some(wt)) = (gin_samples.as_mut().and_then(Iterator::next), &wt) {
                im2col::conv_input_grad(g_s, wt, &g, &mut scratch, gin_s);
            }
        }
        ws.give(scratch);
        if let Some(wt) = wt {
            ws.give(wt);
        }
        ws.give2(frames);
    }

    /// Visit `(weight, grad)` pairs.
    pub fn visit_params(&mut self, f: ParamVisitor<'_>) {
        f(&mut self.weight, &mut self.wgrad);
        f(&mut self.bias, &mut self.bgrad);
    }

    /// Restore transient buffers after deserialization.
    pub fn rebuild_buffers(&mut self) {
        self.wgrad = vec![0.0; self.weight.len()];
        self.bgrad = vec![0.0; self.bias.len()];
        self.taps = TapTable::default();
        self.cached_frames = None;
    }

    /// Forward FLOPs for one sample at `h × w`.
    pub fn flops(&self, h: usize, w: usize) -> f64 {
        2.0 * (self.kernel * self.kernel * self.c_in * self.c_out * h * w) as f64
    }
}

// ---------------------------------------------------------------------------
// BatchNormRelu
// ---------------------------------------------------------------------------

/// Per-channel batch normalization with learnable scale/shift and running
/// statistics for inference, followed by a rectified linear unit: the
/// search space builds BatchNorm only ever followed by ReLU, so one pass
/// writes the rectified output. The ReLU is a select, `v > 0.0 ? v : +0.0`:
/// anything not `> 0.0` — negatives, `-0.0`, NaN — becomes `+0.0`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNormRelu {
    /// Channel count.
    pub channels: usize,
    /// Learnable scale γ.
    pub gamma: Vec<f32>,
    /// Learnable shift β.
    pub beta: Vec<f32>,
    /// Running mean (inference).
    pub running_mean: Vec<f32>,
    /// Running variance (inference).
    pub running_var: Vec<f32>,
    /// Exponential-average momentum for running stats.
    pub momentum: f32,
    /// Numerical floor added to variances.
    pub eps: f32,
    #[serde(skip)]
    ggrad: Vec<f32>,
    #[serde(skip)]
    bgrad: Vec<f32>,
    #[serde(skip)]
    cache: Option<BnCache>,
    /// Where a training forward's output was `> 0.0`. Its capacity
    /// persists across calls, so steady state allocates nothing.
    #[serde(skip)]
    mask: Vec<bool>,
}

#[derive(Debug, Clone)]
struct BnCache {
    xhat: Tensor4,
    inv_std: Vec<f32>,
}

/// Channels whose sums advance side by side in [`sum_channels`].
const BN_LANES: usize = 8;

/// `acc[ci] += term(ci, ci·hw + i)` for `i` ascending over one sample's
/// `hw`-element channel planes.
///
/// One channel's sum is a single chain of dependent additions, so a
/// channel at a time the loop waits out the add latency on every element.
/// Channels are independent, though: walking [`BN_LANES`] of them through
/// `i` together keeps that many chains in flight, and no chain's order
/// changes — each channel still adds its own terms in ascending
/// `(n, h, w)` order onto its running value, so the sums are bit-identical
/// to the one-channel-at-a-time loop.
#[inline(always)]
fn sum_channels(acc: &mut [f32], hw: usize, term: impl Fn(usize, usize) -> f32) {
    let (groups, rest) = acc.as_chunks_mut::<BN_LANES>();
    let grouped = groups.len() * BN_LANES;
    for (gi, group) in groups.iter_mut().enumerate() {
        let c0 = gi * BN_LANES;
        let mut sums = *group;
        for i in 0..hw {
            for (l, sum) in sums.iter_mut().enumerate() {
                *sum += term(c0 + l, (c0 + l) * hw + i);
            }
        }
        *group = sums;
    }
    for (l, sum) in rest.iter_mut().enumerate() {
        let ci = grouped + l;
        for i in ci * hw..(ci + 1) * hw {
            *sum += term(ci, i);
        }
    }
}

impl BatchNormRelu {
    /// Identity-initialized batch norm.
    pub fn new(channels: usize) -> Self {
        BatchNormRelu {
            channels,
            gamma: vec![1.0; channels],
            beta: vec![0.0; channels],
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            ggrad: vec![0.0; channels],
            bgrad: vec![0.0; channels],
            cache: None,
            mask: Vec::new(),
        }
    }

    /// Forward pass drawing the output, `x̂` cache and per-channel stat
    /// buffers from `ws`. `training` selects batch statistics (and updates
    /// the running averages and the ReLU mask) versus running statistics.
    pub fn forward_ws(&mut self, x: &Tensor4, training: bool, ws: &mut Workspace) -> Tensor4 {
        assert_eq!(x.c, self.channels, "batchnorm channel mismatch");
        let (n, c, h, w) = x.shape();
        let (hw, per_c) = (h * w, (n * h * w) as f32);
        // Every element of `out` (and `xhat`) is written below.
        let mut out = ws.t4_scratch(n, c, h, w);
        if training {
            let mut mean = ws.take_zeroed(c);
            let mut var = ws.take_zeroed(c);
            for ni in 0..n {
                let s = x.sample(ni);
                sum_channels(&mut mean, hw, |_, i| s[i]);
            }
            mean.iter_mut().for_each(|m| *m /= per_c);
            for ni in 0..n {
                let s = x.sample(ni);
                sum_channels(&mut var, hw, |ci, i| {
                    let d = s[i] - mean[ci];
                    d * d
                });
            }
            var.iter_mut().for_each(|v| *v /= per_c);
            let mut inv_std = ws.take_scratch(c);
            for (is, v) in inv_std.iter_mut().zip(&var) {
                *is = 1.0 / (v + self.eps).sqrt();
            }
            let mut xhat = ws.t4_scratch(n, c, h, w);
            // Every slot is overwritten below; `resize` only fixes the length.
            self.mask.resize(x.len(), false);
            for ni in 0..n {
                let mask_s = &mut self.mask[ni * c * hw..(ni + 1) * c * hw];
                let xs = x.sample(ni);
                let xh = xhat.sample_mut(ni);
                let os = out.sample_mut(ni);
                for ci in 0..c {
                    let (m, is, g, b) = (mean[ci], inv_std[ci], self.gamma[ci], self.beta[ci]);
                    // Zipped: the same loop indexed measured a fifth slower.
                    let plane = ci * hw..(ci + 1) * hw;
                    for (((xv, xh), o), on) in xs[plane.clone()]
                        .iter()
                        .zip(&mut xh[plane.clone()])
                        .zip(&mut os[plane.clone()])
                        .zip(&mut mask_s[plane])
                    {
                        let norm = (xv - m) * is;
                        *xh = norm;
                        let v = g * norm + b;
                        *on = v > 0.0;
                        *o = if *on { v } else { 0.0 };
                    }
                }
            }
            for ci in 0..c {
                self.running_mean[ci] =
                    (1.0 - self.momentum) * self.running_mean[ci] + self.momentum * mean[ci];
                self.running_var[ci] =
                    (1.0 - self.momentum) * self.running_var[ci] + self.momentum * var[ci];
            }
            ws.give(mean);
            ws.give(var);
            // Recycle a cache left by a forward that never ran backward.
            if let Some(old) = self.cache.take() {
                ws.give4(old.xhat);
                ws.give(old.inv_std);
            }
            self.cache = Some(BnCache { xhat, inv_std });
        } else {
            for ni in 0..n {
                let xs = x.sample(ni);
                let os = out.sample_mut(ni);
                for ci in 0..c {
                    let m = self.running_mean[ci];
                    let is = 1.0 / (self.running_var[ci] + self.eps).sqrt();
                    let (g, b) = (self.gamma[ci], self.beta[ci]);
                    let plane = ci * hw..(ci + 1) * hw;
                    for (xv, o) in xs[plane.clone()].iter().zip(&mut os[plane]) {
                        let v = g * (xv - m) * is + b;
                        *o = if v > 0.0 { v } else { 0.0 };
                    }
                }
            }
        }
        out
    }

    /// Backward through the ReLU and the training-mode normalization,
    /// writing the input gradient in place over `grad_out` (each element is
    /// read before its slot is overwritten) and recycling the `x̂` cache.
    pub fn backward_owned(&mut self, mut grad_out: Tensor4, ws: &mut Workspace) -> Tensor4 {
        let Some(cache) = self.cache.take() else {
            panic!("backward before training forward")
        };
        assert_eq!(grad_out.len(), self.mask.len(), "batchnorm backward shape");
        let (n, c, h, w) = grad_out.shape();
        let (hw, per_c) = (h * w, (n * h * w) as f32);
        // Per sample, while it is in cache: the ReLU's gradient, then Σg and
        // Σ(g·xhat) one after the other — walked together, their sixteen
        // accumulators spill out of the registers.
        let mut sum_g = ws.take_zeroed(c);
        let mut sum_gx = ws.take_zeroed(c);
        for ni in 0..n {
            let mask_s = &self.mask[ni * c * hw..(ni + 1) * c * hw];
            let gs = grad_out.sample_mut(ni);
            for (v, &on) in gs.iter_mut().zip(mask_s) {
                *v = if on { *v } else { 0.0 };
            }
            let (gs, xh) = (&*gs, cache.xhat.sample(ni));
            sum_channels(&mut sum_g, hw, |_, i| gs[i]);
            sum_channels(&mut sum_gx, hw, |_, i| gs[i] * xh[i]);
        }
        for ci in 0..c {
            self.bgrad[ci] += sum_g[ci];
            self.ggrad[ci] += sum_gx[ci];
        }
        for ni in 0..n {
            let xh = cache.xhat.sample(ni);
            let gi = grad_out.sample_mut(ni);
            for ci in 0..c {
                let scale = self.gamma[ci] * cache.inv_std[ci] / per_c;
                let (sg, sgx) = (sum_g[ci], sum_gx[ci]);
                for i in ci * hw..(ci + 1) * hw {
                    gi[i] = scale * (per_c * gi[i] - sg - xh[i] * sgx);
                }
            }
        }
        ws.give(sum_g);
        ws.give(sum_gx);
        ws.give4(cache.xhat);
        ws.give(cache.inv_std);
        grad_out
    }

    /// Visit `(param, grad)` pairs (γ then β).
    pub fn visit_params(&mut self, f: ParamVisitor<'_>) {
        f(&mut self.gamma, &mut self.ggrad);
        f(&mut self.beta, &mut self.bgrad);
    }

    /// Restore transient buffers after deserialization.
    pub fn rebuild_buffers(&mut self) {
        self.ggrad = vec![0.0; self.channels];
        self.bgrad = vec![0.0; self.channels];
        self.cache = None;
    }

    /// Forward FLOPs for one sample at `h × w`: scale and shift, then the
    /// ReLU, per element.
    pub fn flops(&self, h: usize, w: usize) -> f64 {
        3.0 * (self.channels * h * w) as f64
    }
}

// ---------------------------------------------------------------------------
// MaxPool2d
// ---------------------------------------------------------------------------

/// 2×2 max pooling with stride 2; odd trailing rows/columns are dropped.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct MaxPool2d {
    #[serde(skip)]
    argmax: Vec<usize>,
    #[serde(skip)]
    in_shape: (usize, usize, usize, usize),
}

impl MaxPool2d {
    /// New pool layer.
    pub fn new() -> Self {
        MaxPool2d::default()
    }

    /// Forward pass drawing the output from `ws`; records argmax indices
    /// for routing gradients. The argmax index buffer persists in the
    /// layer, so steady state allocates nothing.
    pub fn forward_ws(&mut self, x: &Tensor4, ws: &mut Workspace) -> Tensor4 {
        let (n, c, h, w) = x.shape();
        let (oh, ow) = ((h / 2).max(1), (w / 2).max(1));
        // Every output element is written below.
        let mut out = ws.t4_scratch(n, c, oh, ow);
        self.argmax.clear();
        self.argmax.resize(n * c * oh * ow, 0);
        self.in_shape = x.shape();
        let xd = x.data();
        let od = out.data_mut();
        for plane in 0..n * c {
            let (in_base, out_base) = (plane * h * w, plane * oh * ow);
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dy in 0..2 {
                        for dx in 0..2 {
                            let (y, xx) = (oy * 2 + dy, ox * 2 + dx);
                            if y >= h || xx >= w {
                                continue;
                            }
                            let idx = in_base + y * w + xx;
                            let v = xd[idx];
                            if v > best {
                                best = v;
                                best_idx = idx;
                            }
                        }
                    }
                    let oidx = out_base + oy * ow + ox;
                    od[oidx] = best;
                    self.argmax[oidx] = best_idx;
                }
            }
        }
        out
    }

    /// Backward: route each gradient to its argmax location, drawing the
    /// (zero-seeded — most positions receive no gradient) input-gradient
    /// tensor from `ws`.
    pub fn backward_ws(&mut self, grad_out: &Tensor4, ws: &mut Workspace) -> Tensor4 {
        let (n, c, h, w) = self.in_shape;
        let mut grad_in = ws.t4_zeroed(n, c, h, w);
        for (o, &src) in self.argmax.iter().enumerate() {
            grad_in.data_mut()[src] += grad_out.data()[o];
        }
        grad_in
    }

    /// Forward FLOPs (comparisons) for one sample with `c` channels.
    pub fn flops(&self, c: usize, h: usize, w: usize) -> f64 {
        3.0 * (c * (h / 2).max(1) * (w / 2).max(1)) as f64
    }
}

// ---------------------------------------------------------------------------
// GlobalAvgPool
// ---------------------------------------------------------------------------

/// Global average pooling: NCHW → (N, C).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GlobalAvgPool {
    #[serde(skip)]
    in_shape: (usize, usize, usize, usize),
}

impl GlobalAvgPool {
    /// New layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }

    /// Forward pass drawing the pooled matrix from `ws`.
    pub fn forward_ws(&mut self, x: &Tensor4, ws: &mut Workspace) -> Tensor2 {
        let (n, c, h, w) = x.shape();
        self.in_shape = x.shape();
        let scale = 1.0 / (h * w) as f32;
        // Every element is written below.
        let mut out = ws.t2_scratch(n, c);
        for ni in 0..n {
            let s = x.sample(ni);
            let row = out.row_mut(ni);
            for ci in 0..c {
                let sum: f32 = s[ci * h * w..(ci + 1) * h * w].iter().sum();
                row[ci] = sum * scale;
            }
        }
        out
    }

    /// Backward: spread each channel gradient uniformly over `h × w`,
    /// drawing the input-gradient tensor from `ws`.
    pub fn backward_ws(&mut self, grad_out: &Tensor2, ws: &mut Workspace) -> Tensor4 {
        let (n, c, h, w) = self.in_shape;
        let scale = 1.0 / (h * w) as f32;
        // Every element is written below (full channel fill).
        let mut grad_in = ws.t4_scratch(n, c, h, w);
        for ni in 0..n {
            let row = grad_out.row(ni);
            let gi = grad_in.sample_mut(ni);
            for ci in 0..c {
                let g = row[ci] * scale;
                for v in &mut gi[ci * h * w..(ci + 1) * h * w] {
                    *v = g;
                }
            }
        }
        grad_in
    }
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected layer `y = x·Wᵀ + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Input features.
    pub d_in: usize,
    /// Output features.
    pub d_out: usize,
    /// Weights `[d_out][d_in]` flattened.
    pub weight: Vec<f32>,
    /// Bias `[d_out]`.
    pub bias: Vec<f32>,
    #[serde(skip)]
    wgrad: Vec<f32>,
    #[serde(skip)]
    bgrad: Vec<f32>,
    #[serde(skip)]
    cached_input: Option<Tensor2>,
}

impl Dense {
    /// Xavier-initialized dense layer.
    pub fn new<R: Rng + ?Sized>(d_in: usize, d_out: usize, rng: &mut R) -> Self {
        let mut weight = vec![0.0f32; d_out * d_in];
        xavier_normal(rng, d_in, d_out, &mut weight);
        Dense {
            d_in,
            d_out,
            weight,
            bias: vec![0.0; d_out],
            wgrad: vec![0.0; d_out * d_in],
            bgrad: vec![0.0; d_out],
            cached_input: None,
        }
    }

    /// Forward pass drawing the output, the `Wᵀ` panel and the input
    /// cache from `ws`. The input is cached for backward only when
    /// `training`.
    ///
    /// Blocked GEMM, bitwise identical to the sequential reference
    /// loops ([`reference::dense_forward`]): the output is seeded with
    /// the bias and [`gemm::gemm_nn_seq`] extends each element as one
    /// strict ascending-`i` sum `bias + Σ x[i]·w[i]` — exactly the
    /// reference order.
    pub fn forward_ws(&mut self, x: &Tensor2, training: bool, ws: &mut Workspace) -> Tensor2 {
        assert_eq!(x.cols, self.d_in, "dense input width mismatch");
        let rows = x.rows;
        // B = Wᵀ, materialized so the shared axis (d_in) is the GEMM's
        // sequential k axis. transpose overwrites every element.
        let mut wt = ws.take_scratch(self.d_in * self.d_out);
        gemm::transpose(self.d_out, self.d_in, &self.weight, &mut wt);
        let mut out = ws.t2_scratch(rows, self.d_out);
        for r in 0..rows {
            out.row_mut(r).copy_from_slice(&self.bias);
        }
        gemm::gemm_nn_seq(rows, self.d_out, self.d_in, x.data(), &wt, out.data_mut());
        ws.give(wt);
        // Recycle a cache left by a training forward that never ran
        // backward, so the pool gets its buffer back.
        if let Some(old) = self.cached_input.take() {
            ws.give2(old);
        }
        if training {
            self.cached_input = Some(ws.t2_copy(x));
        }
        out
    }

    /// Backward pass drawing all scratch from `ws`; the input cache is
    /// recycled back into the pool.
    ///
    /// Blocked GEMM, bitwise identical to the sequential reference loops
    /// ([`reference::dense_backward`], called "naive" below):
    ///
    /// - `wgrad += gᵀ·x` via [`gemm::gemm_nn_seq`] — per element the
    ///   shared axis is the batch row `r`, walked ascending and seeded
    ///   from the existing `wgrad`, which is the naive `r`-outer loop's
    ///   exact order;
    /// - `grad_in = g·W`, zero-seeded, shared axis `o` ascending — again
    ///   the naive order;
    /// - `bgrad` via the plain column-sum loop.
    ///
    /// The naive path *skips* `go == 0.0` terms; the GEMM adds them. The
    /// added products are `±0.0`, and IEEE-754 addition of `±0.0` onto an
    /// accumulator that is not `-0.0` is the identity — and no accumulator
    /// here can ever reach `-0.0`, because each starts at `+0.0` (or a
    /// prior sum) and `(+0.0) + (−0.0) = +0.0` under round-to-nearest. So
    /// skipping versus adding zeros produces identical bits (pinned by the
    /// dense equivalence tests).
    pub fn backward_ws(&mut self, grad_out: &Tensor2, ws: &mut Workspace) -> Tensor2 {
        assert_eq!(grad_out.cols, self.d_out);
        let Some(x) = self.cached_input.take() else {
            panic!("backward called before forward")
        };
        let rows = x.rows;
        for r in 0..rows {
            for (o, &go) in grad_out.row(r).iter().enumerate() {
                self.bgrad[o] += go;
            }
        }
        // A = gᵀ so the shared axis (rows) is the GEMM's sequential k.
        let mut gt = ws.take_scratch(rows * self.d_out);
        gemm::transpose(rows, self.d_out, grad_out.data(), &mut gt);
        gemm::gemm_nn_seq(self.d_out, self.d_in, rows, &gt, x.data(), &mut self.wgrad);
        ws.give(gt);
        let mut grad_in = ws.t2_zeroed(rows, self.d_in);
        gemm::gemm_nn_seq(
            rows,
            self.d_in,
            self.d_out,
            grad_out.data(),
            &self.weight,
            grad_in.data_mut(),
        );
        ws.give2(x);
        grad_in
    }

    /// Visit `(param, grad)` pairs.
    pub fn visit_params(&mut self, f: ParamVisitor<'_>) {
        f(&mut self.weight, &mut self.wgrad);
        f(&mut self.bias, &mut self.bgrad);
    }

    /// Restore transient buffers after deserialization.
    pub fn rebuild_buffers(&mut self) {
        self.wgrad = vec![0.0; self.weight.len()];
        self.bgrad = vec![0.0; self.bias.len()];
        self.cached_input = None;
    }

    /// Forward FLOPs for one sample.
    pub fn flops(&self) -> f64 {
        2.0 * (self.d_in * self.d_out) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    /// Finite-difference check of a scalar loss `L = Σ out²/2` through a
    /// layer's forward/backward.
    fn conv_numeric_grad_check() -> (f32, f32) {
        let mut r = rng(1);
        let mut conv = Conv2d::new(2, 3, 3, &mut r);
        let x = {
            let mut t = Tensor4::zeros(2, 2, 5, 5);
            let mut vals = vec![0.0f32; t.len()];
            he_normal(&mut r, 8, &mut vals);
            t.data_mut().copy_from_slice(&vals);
            t
        };
        let mut ws = Workspace::new();
        // Analytic gradient of L wrt one weight.
        let out = conv.forward_ws(&x, true, &mut ws);
        let grad_out = out; // dL/dout = out for L = Σout²/2
        let _ = conv.backward_ws(&grad_out, &mut ws);
        let analytic = conv.wgrad[7];
        // Numeric.
        let h = 1e-3f32;
        let loss_with = |conv: &mut Conv2d, delta: f32| {
            conv.weight[7] += delta;
            let o = conv.forward_ws(&x, true, &mut Workspace::new());
            conv.weight[7] -= delta;
            conv.cached_frames = None;
            o.data().iter().map(|&v| v * v * 0.5).sum::<f32>()
        };
        let numeric = (loss_with(&mut conv, h) - loss_with(&mut conv, -h)) / (2.0 * h);
        (analytic, numeric)
    }

    #[test]
    fn conv_weight_gradient_matches_finite_difference() {
        let (analytic, numeric) = conv_numeric_grad_check();
        let scale = numeric.abs().max(1.0);
        assert!(
            (analytic - numeric).abs() / scale < 2e-2,
            "analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn conv_identity_kernel_passes_through() {
        let mut r = rng(2);
        let mut conv = Conv2d::new(1, 1, 3, &mut r);
        conv.weight.iter_mut().for_each(|w| *w = 0.0);
        conv.weight[4] = 1.0; // center tap
        conv.bias[0] = 0.0;
        let x = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let y = conv.forward_ws(&x, true, &mut Workspace::new());
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn conv_input_gradient_shape_and_padding() {
        let mut r = rng(3);
        let mut conv = Conv2d::new(1, 2, 3, &mut r);
        let mut ws = Workspace::new();
        let x = Tensor4::zeros(1, 1, 4, 4);
        let y = conv.forward_ws(&x, true, &mut ws);
        assert_eq!(y.shape(), (1, 2, 4, 4));
        let gi = conv.backward_ws(&Tensor4::zeros(1, 2, 4, 4), &mut ws);
        assert_eq!(gi.shape(), (1, 1, 4, 4));
    }

    #[test]
    fn conv_caches_its_input_only_when_training() {
        let mut r = rng(3);
        let mut conv = Conv2d::new(1, 2, 3, &mut r);
        let mut ws = Workspace::new();
        let x = Tensor4::zeros(2, 1, 4, 4);
        let eval = conv.forward_ws(&x, false, &mut ws);
        assert!(conv.cached_frames.is_none(), "eval forward kept its input");
        let train = conv.forward_ws(&x, true, &mut ws);
        assert!(conv.cached_frames.is_some());
        assert_eq!(bits(eval.data()), bits(train.data()));
        let gi = conv.backward_ws(&Tensor4::zeros(2, 2, 4, 4), &mut ws);
        assert_eq!(gi.shape(), x.shape());
        // An eval forward also hands back a cache that never met a backward.
        let _ = conv.forward_ws(&x, true, &mut ws);
        let _ = conv.forward_ws(&x, false, &mut ws);
        assert!(conv.cached_frames.is_none());
    }

    /// The branchy ReLU: the rectified values and the mask.
    fn branchy_relu(values: &[f32]) -> (Vec<f32>, Vec<bool>) {
        let mut out = values.to_vec();
        let mut mask = Vec::new();
        for v in &mut out {
            let on = *v > 0.0;
            mask.push(on);
            if !on {
                *v = 0.0;
            }
        }
        (out, mask)
    }

    #[test]
    fn batchnorm_normalizes_training_batch() {
        let mut bn = BatchNormRelu::new(2);
        let mut x = Tensor4::zeros(4, 2, 3, 3);
        let mut r = rng(4);
        for v in x.data_mut() {
            *v = r.gen_range(-5.0..5.0);
        }
        let y = bn.forward_ws(&x, true, &mut Workspace::new());
        let xhat = &bn.cache.as_ref().expect("training forward caches").xhat;
        // Per-channel mean ≈ 0, var ≈ 1 before the ReLU.
        let (n, c, h, w) = xhat.shape();
        for ci in 0..c {
            let plane = |ni| xhat.sample(ni)[ci * h * w..(ci + 1) * h * w].to_vec();
            let vals: Vec<f32> = (0..n).flat_map(plane).collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
        // At γ = 1, β = 0 the output is x̂ rectified.
        let (want, want_mask) = branchy_relu(xhat.data());
        assert_eq!(bits(y.data()), bits(&want));
        assert_eq!(bn.mask, want_mask);
    }

    #[test]
    fn batchnorm_backward_zeroes_constant_shift() {
        // dL/dx of BN is invariant to adding a constant per channel:
        // gradient of a constant grad_out distributes to ~0. A shift of
        // β = 10 keeps every output above zero, so the ReLU passes the
        // whole gradient.
        let mut bn = BatchNormRelu::new(1);
        bn.beta[0] = 10.0;
        let mut x = Tensor4::zeros(2, 1, 2, 2);
        let mut r = rng(5);
        for v in x.data_mut() {
            *v = r.gen_range(-1.0..1.0);
        }
        let mut ws = Workspace::new();
        let _ = bn.forward_ws(&x, true, &mut ws);
        assert!(bn.mask.iter().all(|&on| on));
        let mut g = Tensor4::zeros(2, 1, 2, 2);
        g.data_mut().iter_mut().for_each(|v| *v = 3.0);
        let gi = bn.backward_owned(g, &mut ws);
        assert!(gi.data().iter().all(|v| v.abs() < 1e-4), "{:?}", gi.data());
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNormRelu::new(1);
        bn.running_mean[0] = 2.0;
        bn.running_var[0] = 4.0;
        let x = Tensor4::from_vec(1, 1, 1, 3, vec![2.0, 4.0, 0.0]);
        let y = bn.forward_ws(&x, false, &mut Workspace::new());
        assert!((y.data()[0] - 0.0).abs() < 1e-4);
        assert!((y.data()[1] - 1.0).abs() < 1e-2);
        // (0 − 2) / 2 = −1, rectified.
        assert_eq!(y.data()[2].to_bits(), 0.0f32.to_bits());
        assert!(bn.mask.is_empty(), "an eval forward records no mask");
    }

    /// Values on every side of the `> 0.0` test, then ordinary ones so
    /// the tensor is longer than one vector.
    fn relu_edge_values() -> Vec<f32> {
        let mut v = vec![
            f32::NAN,
            -f32::NAN,
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1.0e-45,
            -1.0e-45,
        ];
        v.extend((0..27).map(|i| (i as f32 - 13.0) * 0.37));
        v
    }

    #[test]
    fn relu_select_loops_equal_the_branchy_form_on_edge_values() {
        let input = relu_edge_values();
        let c = input.len();
        // The loops the select-based ones replaced: push a flag per
        // element, zero behind a branch.
        let (want, want_mask) = branchy_relu(&input);
        let mut grad = input.clone();
        // Every edge value meets both mask states.
        grad.rotate_left(3);
        // Σg of one element where the mask passed it, onto a zero gradient.
        let want_bgrad: Vec<f32> = (grad.iter().zip(&want_mask))
            .map(|(g, &on)| if on { 0.0 + (0.0 + g) } else { 0.0 })
            .collect();
        let mut ws = Workspace::new();

        // Eval at γ = 1, β = 0, mean 0 and variance 1 with no floor:
        // `γ·(x − m)·is + β` is `x` (`+0.0` for `−0.0`).
        let mut bn = BatchNormRelu::new(1);
        bn.eps = 0.0;
        let x = Tensor4::from_vec(1, 1, 1, c, input.clone());
        let got = bn.forward_ws(&x, false, &mut ws);
        assert_eq!(bits(got.data()), bits(&want));

        // Training with one element per channel, so every x̂ is 0.0, and
        // the edge values as the shift: `γ·x̂ + β` is `β` (`+0.0` for `−0.0`).
        let mut bn = BatchNormRelu::new(c);
        bn.beta.copy_from_slice(&input);
        // A longer forward first: the mask must shrink to this input.
        let _ = bn.forward_ws(&Tensor4::zeros(4, c, 1, 1), true, &mut ws);
        let got = bn.forward_ws(&Tensor4::zeros(1, c, 1, 1), true, &mut ws);
        assert_eq!(bits(got.data()), bits(&want));
        assert_eq!(bn.mask, want_mask);
        let _ = bn.backward_owned(Tensor4::from_vec(1, c, 1, 1, grad), &mut ws);
        assert_eq!(bits(&bn.bgrad), bits(&want_bgrad));
    }

    #[test]
    fn batchnorm_interleaved_sums_equal_one_channel_at_a_time() {
        // 19 channels: two full BN_LANES groups and a ragged rest.
        let (n, c, h, w) = (3, 2 * BN_LANES + 3, 3, 5);
        let mut r = rng(11);
        let mut x = Tensor4::zeros(n, c, h, w);
        let mut g = Tensor4::zeros(n, c, h, w);
        for v in x.data_mut().iter_mut().chain(g.data_mut()) {
            *v = r.gen_range(-3.0f32..3.0);
        }
        let mut bn = BatchNormRelu::new(c);
        let mut ws = Workspace::new();
        let _ = bn.forward_ws(&x, true, &mut ws);
        let xhat = bn
            .cache
            .as_ref()
            .expect("training forward caches")
            .xhat
            .clone();
        let _ = bn.backward_owned(g.clone(), &mut ws);

        // The four reductions, one channel at a time in (n, h, w) order,
        // on the gradient the ReLU let through (at γ = 1, β = 0 where
        // x̂ > 0).
        let hw = h * w;
        let per_c = (n * hw) as f32;
        let chan =
            |t: &Tensor4, ni: usize, ci: usize| t.sample(ni)[ci * hw..(ci + 1) * hw].to_vec();
        for ci in 0..c {
            let (mut mean, mut var, mut sum_g, mut sum_gx) = (0.0f32, 0.0f32, 0.0f32, 0.0f32);
            for ni in 0..n {
                for v in chan(&x, ni, ci) {
                    mean += v;
                }
            }
            mean /= per_c;
            for ni in 0..n {
                for v in chan(&x, ni, ci) {
                    let d = v - mean;
                    var += d * d;
                }
                for (gv, xh) in chan(&g, ni, ci).into_iter().zip(chan(&xhat, ni, ci)) {
                    let gv = if xh > 0.0 { gv } else { 0.0 };
                    sum_g += gv;
                    sum_gx += gv * xh;
                }
            }
            var /= per_c;
            // The running stats started at (0, 1) and saw this one batch.
            let m = bn.momentum;
            assert_eq!(
                bn.running_mean[ci].to_bits(),
                ((1.0 - m) * 0.0 + m * mean).to_bits()
            );
            assert_eq!(
                bn.running_var[ci].to_bits(),
                ((1.0 - m) * 1.0 + m * var).to_bits()
            );
            assert_eq!(bn.bgrad[ci].to_bits(), sum_g.to_bits(), "Σg, channel {ci}");
            assert_eq!(
                bn.ggrad[ci].to_bits(),
                sum_gx.to_bits(),
                "Σg·x̂, channel {ci}"
            );
        }
    }

    #[test]
    fn maxpool_selects_max_and_routes_gradient() {
        let mut pool = MaxPool2d::new();
        let x = Tensor4::from_vec(
            1,
            1,
            4,
            4,
            vec![
                1.0, 2.0, 3.0, 4.0, //
                5.0, 6.0, 7.0, 8.0, //
                9.0, 10.0, 11.0, 12.0, //
                13.0, 14.0, 15.0, 16.0,
            ],
        );
        let mut ws = Workspace::new();
        let y = pool.forward_ws(&x, &mut ws);
        assert_eq!(y.shape(), (1, 1, 2, 2));
        assert_eq!(y.data(), &[6.0, 8.0, 14.0, 16.0]);
        let g = Tensor4::from_vec(1, 1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let gi = pool.backward_ws(&g, &mut ws);
        assert_eq!(gi.get(0, 0, 1, 1), 1.0);
        assert_eq!(gi.get(0, 0, 1, 3), 2.0);
        assert_eq!(gi.get(0, 0, 3, 1), 3.0);
        assert_eq!(gi.get(0, 0, 3, 3), 4.0);
        assert_eq!(gi.data().iter().filter(|&&v| v != 0.0).count(), 4);
    }

    #[test]
    fn maxpool_handles_odd_sizes() {
        let mut pool = MaxPool2d::new();
        let mut ws = Workspace::new();
        let x = Tensor4::zeros(1, 1, 5, 5);
        let y = pool.forward_ws(&x, &mut ws);
        assert_eq!(y.shape(), (1, 1, 2, 2));
        let gi = pool.backward_ws(&Tensor4::zeros(1, 1, 2, 2), &mut ws);
        assert_eq!(gi.shape(), (1, 1, 5, 5));
    }

    #[test]
    fn gap_averages_and_spreads() {
        let mut gap = GlobalAvgPool::new();
        let x = Tensor4::from_vec(1, 2, 1, 2, vec![1.0, 3.0, 10.0, 30.0]);
        let mut ws = Workspace::new();
        let y = gap.forward_ws(&x, &mut ws);
        assert_eq!(y.row(0), &[2.0, 20.0]);
        let g = Tensor2::from_vec(1, 2, vec![4.0, 8.0]);
        let gi = gap.backward_ws(&g, &mut ws);
        assert_eq!(gi.data(), &[2.0, 2.0, 4.0, 4.0]);
    }

    #[test]
    fn dense_forward_matches_manual() {
        let mut r = rng(6);
        let mut dense = Dense::new(2, 2, &mut r);
        dense.weight = vec![1.0, 2.0, 3.0, 4.0];
        dense.bias = vec![0.5, -0.5];
        let x = Tensor2::from_vec(1, 2, vec![1.0, 1.0]);
        let y = dense.forward_ws(&x, true, &mut Workspace::new());
        assert_eq!(y.row(0), &[3.5, 6.5]);
    }

    #[test]
    fn dense_gradient_matches_finite_difference() {
        let mut r = rng(7);
        let mut dense = Dense::new(3, 2, &mut r);
        let x = Tensor2::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        let mut ws = Workspace::new();
        let out = dense.forward_ws(&x, true, &mut ws);
        let _ = dense.backward_ws(&out, &mut ws);
        let analytic = dense.wgrad[1];
        let h = 1e-3f32;
        let loss = |d: &mut Dense, delta: f32| {
            d.weight[1] += delta;
            let o = d.forward_ws(&x, true, &mut Workspace::new());
            d.weight[1] -= delta;
            d.cached_input = None;
            o.data().iter().map(|&v| v * v * 0.5).sum::<f32>()
        };
        let numeric = (loss(&mut dense, h) - loss(&mut dense, -h)) / (2.0 * h);
        assert!(
            (analytic - numeric).abs() / numeric.abs().max(1.0) < 2e-2,
            "analytic {analytic} numeric {numeric}"
        );
    }

    #[test]
    fn dense_caches_its_input_only_when_training() {
        let mut r = rng(7);
        let mut dense = Dense::new(3, 2, &mut r);
        let mut ws = Workspace::new();
        let x = Tensor2::from_vec(2, 3, vec![0.5, -1.0, 2.0, 1.5, 0.0, -0.5]);
        let eval = dense.forward_ws(&x, false, &mut ws);
        assert!(dense.cached_input.is_none(), "eval forward kept its input");
        let train = dense.forward_ws(&x, true, &mut ws);
        assert!(dense.cached_input.is_some());
        assert_eq!(bits(eval.data()), bits(train.data()));
        let gi = dense.backward_ws(&train, &mut ws);
        assert_eq!((gi.rows, gi.cols), (2, 3));
        let _ = dense.forward_ws(&x, true, &mut ws);
        let _ = dense.forward_ws(&x, false, &mut ws);
        assert!(dense.cached_input.is_none());
    }

    #[test]
    fn flops_formulas() {
        let mut r = rng(8);
        let conv = Conv2d::new(2, 4, 3, &mut r);
        assert_eq!(conv.flops(8, 8), 2.0 * (9 * 2 * 4 * 64) as f64);
        // Scale and shift, then the ReLU: 3·c·h·w.
        assert_eq!(BatchNormRelu::new(4).flops(8, 8), (3 * 4 * 64) as f64);
        let dense = Dense::new(16, 2, &mut r);
        assert_eq!(dense.flops(), 64.0);
        // One block is what the genome's closed form counts for it
        // (`a4nn-genome`'s `conv_block_flops`): 3×3, 1→8 channels on 4×4
        // is conv 2·9·1·8·16 = 2304 plus BN and ReLU 3·8·16 = 384.
        let block = crate::graph::ConvBnRelu::new(1, 8, 3, &mut r);
        assert_eq!(block.flops(4, 4), 2304.0 + 384.0);
    }
}
