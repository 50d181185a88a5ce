//! Neural-network layers with hand-derived backward passes.
//!
//! Every layer has one forward and one backward entry point, caches what
//! its backward pass needs during the forward pass, exposes its
//! parameters through [`visit_params`](Conv2d::visit_params) so the
//! optimizer stays layer-agnostic, and reports exact forward FLOPs for
//! the NAS's second objective.

use crate::gemm;
use crate::im2col::{self, ConvGeometry};
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
    cached_input: Option<Tensor4>,
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
            cached_input: None,
        }
    }

    /// Forward pass drawing all scratch (output tensor, im2col panel,
    /// input cache) from `ws` instead of the allocator. The input is
    /// cached for backward only when `training`.
    ///
    /// im2col + blocked GEMM: each sample's receptive fields are
    /// unrolled and multiplied against the weight matrix. When the batch
    /// is enough work to pay for it ([`gemm::threads_for`]) samples are
    /// distributed in contiguous blocks over scoped threads; every output
    /// element is produced by exactly one thread, so results are
    /// identical for any thread count.
    pub fn forward_ws(&mut self, x: &Tensor4, training: bool, ws: &mut Workspace) -> Tensor4 {
        assert_eq!(x.c, self.c_in, "conv input channel mismatch");
        let (n, _, h, w) = x.shape();
        let g = ConvGeometry::same(self.c_in, h, w, self.kernel);
        // conv_forward_sample seeds every output row with the bias before
        // the GEMM accumulates, so stale scratch contents never leak.
        let mut out = ws.t4_scratch(n, self.c_out, h, w);
        let sample_out = self.c_out * h * w;
        let weight = &self.weight;
        let bias = &self.bias;
        let threads = gemm::threads_for(n, self.c_out * g.patch() * g.pixels());
        if threads <= 1 {
            // im2col overwrites the whole panel per sample.
            let mut col = ws.take_scratch(g.patch() * g.pixels());
            for (ni, out_s) in out.data_mut().chunks_mut(sample_out).enumerate() {
                im2col::conv_forward_sample(x.sample(ni), weight, bias, &g, &mut col, out_s);
            }
            ws.give(col);
        } else {
            let per = n.div_ceil(threads);
            std::thread::scope(|s| {
                for (gi, out_chunk) in out.data_mut().chunks_mut(per * sample_out).enumerate() {
                    s.spawn(move || {
                        let mut col = vec![0.0f32; g.patch() * g.pixels()];
                        for (si, out_s) in out_chunk.chunks_mut(sample_out).enumerate() {
                            let ni = gi * per + si;
                            im2col::conv_forward_sample(
                                x.sample(ni),
                                weight,
                                bias,
                                &g,
                                &mut col,
                                out_s,
                            );
                        }
                    });
                }
            });
        }
        // Recycle a cache left by a training forward that never ran
        // backward, so the pool gets its buffer back.
        if let Some(old) = self.cached_input.take() {
            ws.give4(old);
        }
        if training {
            self.cached_input = Some(ws.t4_copy(x));
        }
        out
    }

    /// Backward pass: accumulates weight/bias grads and returns the
    /// gradient with respect to the input, drawing all scratch from `ws`;
    /// the input cache taken during forward is recycled back into the pool.
    ///
    /// im2col + blocked GEMM. Per-sample partial gradients are computed
    /// on scoped threads (samples in contiguous blocks) and reduced in
    /// sample order, so results do not depend on the thread budget.
    pub fn backward_ws(&mut self, grad_out: &Tensor4, ws: &mut Workspace) -> Tensor4 {
        let Some(x) = self.cached_input.take() else {
            panic!("backward called before forward")
        };
        let (n, _, h, w) = x.shape();
        assert_eq!(grad_out.shape(), (n, self.c_out, h, w));
        let g = ConvGeometry::same(self.c_in, h, w, self.kernel);
        let (kp, c_out) = (g.patch(), self.c_out);
        // transpose overwrites every element, so scratch contents are fine.
        let mut wt_buf = ws.take_scratch(kp * c_out);
        gemm::transpose(c_out, kp, &self.weight, &mut wt_buf);
        let wt = &wt_buf;
        let wlen = self.weight.len();
        let sample_in = self.c_in * h * w;
        // col2im accumulates, so the input gradient must start zeroed.
        let mut grad_in = ws.t4_zeroed(n, self.c_in, h, w);
        // Two GEMMs per sample: the input gradient and the weight gradient.
        let threads = gemm::threads_for(n, 2 * c_out * kp * g.pixels());
        if threads <= 1 {
            // Serial path: the per-sample (wg, bg) partials live in two
            // pooled buffers zeroed per sample and reduced immediately —
            // identical FP order to collecting them first (each partial is
            // an independent zero-seeded sum, and the reduction still runs
            // in ascending sample order), with no per-sample allocation.
            let mut col = ws.take_scratch(kp * g.pixels());
            let mut gcol = ws.take_scratch(kp * g.pixels());
            let mut wg = ws.take_scratch(wlen);
            let mut bg = ws.take_scratch(c_out);
            for (ni, gin_s) in grad_in.data_mut().chunks_mut(sample_in).enumerate() {
                wg.fill(0.0);
                bg.fill(0.0);
                im2col::conv_backward_sample(
                    x.sample(ni),
                    grad_out.sample(ni),
                    wt,
                    &g,
                    &mut col,
                    &mut gcol,
                    gin_s,
                    &mut wg,
                    &mut bg,
                );
                for (acc, v) in self.wgrad.iter_mut().zip(&wg) {
                    *acc += v;
                }
                for (acc, v) in self.bgrad.iter_mut().zip(&bg) {
                    *acc += v;
                }
            }
            ws.give(col);
            ws.give(gcol);
            ws.give(wg);
            ws.give(bg);
        } else {
            // Per-sample (wg, bg) partials in sample order — the
            // reduction order (and thus rounding) is fixed no matter how
            // samples were distributed over threads.
            let mut partials: Vec<(Vec<f32>, Vec<f32>)> = Vec::with_capacity(n);
            let per = n.div_ceil(threads);
            let x = &x;
            std::thread::scope(|s| {
                let mut handles = Vec::new();
                for (gi, gin_chunk) in grad_in.data_mut().chunks_mut(per * sample_in).enumerate() {
                    handles.push(s.spawn(move || {
                        let mut col = vec![0.0f32; kp * g.pixels()];
                        let mut gcol = vec![0.0f32; kp * g.pixels()];
                        let mut group = Vec::new();
                        for (si, gin_s) in gin_chunk.chunks_mut(sample_in).enumerate() {
                            let ni = gi * per + si;
                            let mut wg = vec![0.0f32; wlen];
                            let mut bg = vec![0.0f32; c_out];
                            im2col::conv_backward_sample(
                                x.sample(ni),
                                grad_out.sample(ni),
                                wt,
                                &g,
                                &mut col,
                                &mut gcol,
                                gin_s,
                                &mut wg,
                                &mut bg,
                            );
                            group.push((wg, bg));
                        }
                        group
                    }));
                }
                for handle in handles {
                    match handle.join() {
                        Ok(group) => partials.extend(group),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
            });
            for (wg, bg) in &partials {
                for (acc, v) in self.wgrad.iter_mut().zip(wg) {
                    *acc += v;
                }
                for (acc, v) in self.bgrad.iter_mut().zip(bg) {
                    *acc += v;
                }
            }
        }
        ws.give(wt_buf);
        ws.give4(x);
        grad_in
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
        self.cached_input = None;
    }

    /// Forward FLOPs for one sample at `h × w`.
    pub fn flops(&self, h: usize, w: usize) -> f64 {
        2.0 * (self.kernel * self.kernel * self.c_in * self.c_out * h * w) as f64
    }
}

// ---------------------------------------------------------------------------
// BatchNorm2d
// ---------------------------------------------------------------------------

/// Per-channel batch normalization with learnable scale/shift and running
/// statistics for inference.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm2d {
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

impl BatchNorm2d {
    /// Identity-initialized batch norm.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
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
        }
    }

    /// Forward pass drawing the output, `x̂` cache and per-channel stat
    /// buffers from `ws`. `training` selects batch statistics (and
    /// updates the running averages) versus running statistics.
    pub fn forward_ws(&mut self, x: &Tensor4, training: bool, ws: &mut Workspace) -> Tensor4 {
        assert_eq!(x.c, self.channels, "batchnorm channel mismatch");
        let (n, c, h, w) = x.shape();
        let per_c = (n * h * w) as f32;
        // Every element of `out` (and `xhat`) is written below.
        let mut out = ws.t4_scratch(n, c, h, w);
        if training {
            let mut mean = ws.take_zeroed(c);
            let mut var = ws.take_zeroed(c);
            for ni in 0..n {
                let s = x.sample(ni);
                sum_channels(&mut mean, h * w, |_, i| s[i]);
            }
            mean.iter_mut().for_each(|m| *m /= per_c);
            for ni in 0..n {
                let s = x.sample(ni);
                sum_channels(&mut var, h * w, |ci, i| {
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
            for ni in 0..n {
                let xs = x.sample(ni);
                let xh = xhat.sample_mut(ni);
                let os = out.sample_mut(ni);
                for ci in 0..c {
                    let (m, is, g, b) = (mean[ci], inv_std[ci], self.gamma[ci], self.beta[ci]);
                    for i in ci * h * w..(ci + 1) * h * w {
                        let norm = (xs[i] - m) * is;
                        xh[i] = norm;
                        os[i] = g * norm + b;
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
                    for i in ci * h * w..(ci + 1) * h * w {
                        os[i] = g * (xs[i] - m) * is + b;
                    }
                }
            }
        }
        out
    }

    /// Backward through the training-mode normalization, writing the input
    /// gradient in place over `grad_out` (each element is read exactly
    /// once before its slot is overwritten) and recycling the `x̂` cache.
    pub fn backward_owned(&mut self, mut grad_out: Tensor4, ws: &mut Workspace) -> Tensor4 {
        let Some(cache) = self.cache.take() else {
            panic!("backward before training forward")
        };
        let (n, c, h, w) = grad_out.shape();
        let per_c = (n * h * w) as f32;
        // Channel reductions: Σg, Σ(g·xhat).
        let mut sum_g = ws.take_zeroed(c);
        let mut sum_gx = ws.take_zeroed(c);
        for ni in 0..n {
            let gs = grad_out.sample(ni);
            let xh = cache.xhat.sample(ni);
            sum_channels(&mut sum_g, h * w, |_, i| gs[i]);
            sum_channels(&mut sum_gx, h * w, |_, i| gs[i] * xh[i]);
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
                for i in ci * h * w..(ci + 1) * h * w {
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

    /// Forward FLOPs for one sample at `h × w` (scale + shift).
    pub fn flops(&self, h: usize, w: usize) -> f64 {
        2.0 * (self.channels * h * w) as f64
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Elementwise rectified linear unit.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Relu {
    #[serde(skip)]
    mask: Vec<bool>,
}

impl Relu {
    /// New ReLU.
    pub fn new() -> Self {
        Relu::default()
    }

    /// In-place forward over an owned tensor: rectifies `x` directly and
    /// records the activation mask, with no copy. The mask capacity
    /// persists across calls, so steady state allocates nothing.
    ///
    /// The mask is sized once and both it and `x` are written through a
    /// select, not a `push` behind a branch, so the loop vectorizes.
    /// Anything not `> 0.0` — negatives, `-0.0`, NaN — becomes `+0.0`.
    pub fn forward_owned(&mut self, mut x: Tensor4) -> Tensor4 {
        // Every slot is overwritten below; `resize` only fixes the length.
        self.mask.resize(x.len(), false);
        for (v, on) in x.data_mut().iter_mut().zip(&mut self.mask) {
            *on = *v > 0.0;
            *v = if *on { *v } else { 0.0 };
        }
        x
    }

    /// Backward: zero gradients where the forward input was not `> 0.0`,
    /// in place over an owned gradient tensor.
    pub fn backward_owned(&mut self, mut grad_out: Tensor4) -> Tensor4 {
        assert_eq!(grad_out.len(), self.mask.len(), "relu backward shape");
        for (v, &on) in grad_out.data_mut().iter_mut().zip(&self.mask) {
            *v = if on { *v } else { 0.0 };
        }
        grad_out
    }

    /// Forward FLOPs for one sample with `c` channels at `h × w`.
    pub fn flops(&self, c: usize, h: usize, w: usize) -> f64 {
        (c * h * w) as f64
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
    /// reference order. Rows of the output split across scoped threads
    /// when there is enough work to pay for them ([`gemm::threads_for`]);
    /// each element is produced by one thread, so any budget gives
    /// identical bits.
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
        gemm::gemm_nn_seq(
            rows,
            self.d_out,
            self.d_in,
            x.data(),
            &wt,
            out.data_mut(),
            gemm::threads_for(rows, self.d_in * self.d_out),
        );
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
        gemm::gemm_nn_seq(
            self.d_out,
            self.d_in,
            rows,
            &gt,
            x.data(),
            &mut self.wgrad,
            gemm::threads_for(self.d_out, self.d_in * rows),
        );
        ws.give(gt);
        let mut grad_in = ws.t2_zeroed(rows, self.d_in);
        gemm::gemm_nn_seq(
            rows,
            self.d_in,
            self.d_out,
            grad_out.data(),
            &self.weight,
            grad_in.data_mut(),
            gemm::threads_for(rows, self.d_in * self.d_out),
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
            conv.cached_input = None;
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
        assert!(conv.cached_input.is_none(), "eval forward kept its input");
        let train = conv.forward_ws(&x, true, &mut ws);
        assert!(conv.cached_input.is_some());
        assert_eq!(bits(eval.data()), bits(train.data()));
        let gi = conv.backward_ws(&Tensor4::zeros(2, 2, 4, 4), &mut ws);
        assert_eq!(gi.shape(), x.shape());
        // An eval forward also hands back a cache that never met a backward.
        let _ = conv.forward_ws(&x, true, &mut ws);
        let _ = conv.forward_ws(&x, false, &mut ws);
        assert!(conv.cached_input.is_none());
    }

    #[test]
    fn batchnorm_normalizes_training_batch() {
        let mut bn = BatchNorm2d::new(2);
        let mut x = Tensor4::zeros(4, 2, 3, 3);
        let mut r = rng(4);
        for v in x.data_mut() {
            *v = r.gen_range(-5.0..5.0);
        }
        let y = bn.forward_ws(&x, true, &mut Workspace::new());
        // Per-channel mean ≈ 0, var ≈ 1.
        let (n, c, h, w) = y.shape();
        for ci in 0..c {
            let mut vals = Vec::new();
            for ni in 0..n {
                for hi in 0..h {
                    for wi in 0..w {
                        vals.push(y.get(ni, ci, hi, wi));
                    }
                }
            }
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn batchnorm_backward_zeroes_constant_shift() {
        // dL/dx of BN is invariant to adding a constant per channel:
        // gradient of a constant grad_out distributes to ~0.
        let mut bn = BatchNorm2d::new(1);
        let mut x = Tensor4::zeros(2, 1, 2, 2);
        let mut r = rng(5);
        for v in x.data_mut() {
            *v = r.gen_range(-1.0..1.0);
        }
        let mut ws = Workspace::new();
        let _ = bn.forward_ws(&x, true, &mut ws);
        let mut g = Tensor4::zeros(2, 1, 2, 2);
        g.data_mut().iter_mut().for_each(|v| *v = 3.0);
        let gi = bn.backward_owned(g, &mut ws);
        assert!(gi.data().iter().all(|v| v.abs() < 1e-4), "{:?}", gi.data());
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.running_mean[0] = 2.0;
        bn.running_var[0] = 4.0;
        let x = Tensor4::from_vec(1, 1, 1, 2, vec![2.0, 4.0]);
        let y = bn.forward_ws(&x, false, &mut Workspace::new());
        assert!((y.data()[0] - 0.0).abs() < 1e-4);
        assert!((y.data()[1] - 1.0).abs() < 1e-2);
    }

    #[test]
    fn relu_masks_forward_and_backward() {
        let mut relu = Relu::new();
        let x = Tensor4::from_vec(1, 1, 1, 4, vec![-1.0, 2.0, -3.0, 4.0]);
        let y = relu.forward_owned(x);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let g = Tensor4::from_vec(1, 1, 1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        let gi = relu.backward_owned(g);
        assert_eq!(gi.data(), &[0.0, 1.0, 0.0, 1.0]);
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

    fn row_tensor(values: &[f32]) -> Tensor4 {
        Tensor4::from_vec(1, 1, 1, values.len(), values.to_vec())
    }

    #[test]
    fn relu_select_loops_equal_the_branchy_form_on_edge_values() {
        let input = relu_edge_values();
        // The loops the select-based ones replaced: push a flag per
        // element, zero behind a branch.
        let mut want = input.clone();
        let mut want_mask = Vec::new();
        for v in &mut want {
            let on = *v > 0.0;
            want_mask.push(on);
            if !on {
                *v = 0.0;
            }
        }
        let mut grad = input.clone();
        grad.rotate_left(3); // every edge value meets both mask states
        let mut want_grad = grad.clone();
        for (v, &on) in want_grad.iter_mut().zip(&want_mask) {
            if !on {
                *v = 0.0;
            }
        }

        let mut relu = Relu::new();
        // A longer forward first: the mask must shrink to this input.
        let _ = relu.forward_owned(Tensor4::zeros(1, 1, 8, 8));
        let got = relu.forward_owned(row_tensor(&input));
        assert_eq!(bits(got.data()), bits(&want));
        assert_eq!(relu.mask, want_mask);
        let got_grad = relu.backward_owned(row_tensor(&grad));
        assert_eq!(bits(got_grad.data()), bits(&want_grad));
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
        let mut bn = BatchNorm2d::new(c);
        let mut ws = Workspace::new();
        let _ = bn.forward_ws(&x, true, &mut ws);
        let xhat = bn
            .cache
            .as_ref()
            .expect("training forward caches")
            .xhat
            .clone();
        let _ = bn.backward_owned(g.clone(), &mut ws);

        // The four reductions, one channel at a time in (n, h, w) order.
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
        let dense = Dense::new(16, 2, &mut r);
        assert_eq!(dense.flops(), 64.0);
    }
}
