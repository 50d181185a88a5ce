//! Convolution lowering: convolution as matrix multiplication.
//!
//! Every convolution the network builds is stride 1 with `same` padding
//! ([`ConvGeometry`]). It is a GEMM against the `(c_in·k·k) × (h·w)` patch
//! matrix of its input: row `(ci, ky, kx)` holds, for every output pixel,
//! the input pixel that tap reads, or zero where the tap falls in the
//! padding. Rows are ordered `(ci, ky, kx)`, the order the naive kernel
//! walks. `Conv2d` never writes that matrix out:
//!
//! - `frame` copies each sample once into zero-framed planes, `p` zeros
//!   between rows and `p` zero rows between planes — `(h+p)×(w+p)` per
//!   plane, the zeros shared by neighbours. Every patch-matrix row is then
//!   the input plane as seen from one tap: a `w`-wide window per output
//!   row, starting at the tap's offset in the frame (`TapTable`).
//! - Forward is `W[c_out×K] · patches` (`conv_forward_framed`) and the
//!   weight gradient `g[c_out×P] · patchesᵀ` (`conv_param_grads`), on
//!   `gemm::gemm_nn_planes` and `gemm::gemm_nt_planes`. Those read the
//!   patch matrix from the frame: `gemm_nn_planes` each register tile's
//!   row segments in place, `gemm_nt_planes` four rows at a time gathered
//!   into a panel of scratch that every row of `g` then meets.
//! - The input gradient is `Wᵀ[K×c_out] · g[c_out×P]` scattered back onto
//!   the input (`conv_input_grad`), computed a block of input channels
//!   at a time so the block's rows stay in cache. The scatter is compiled
//!   for the one kernel side the search space builds, 3×3, at widths 16,
//!   8 and 4 (`scatter_rows`); other shapes take the general loop.
//!
//! Each GEMM reads the same values as it would from the written-out
//! matrix and performs the same operations in the same order, so the
//! result is bit for bit what [`im2col`] + `gemm` + [`col2im`] give.
//! Those, with [`conv_forward`] and [`conv_backward`], write the matrix out:
//! they are the oracle the layer is tested against
//! (`tests/conv_lowering.rs`, `tests/conv_equivalence.rs`), and nothing
//! trains or serves through them.

use crate::gemm::{self, array_at, Planes, MR};
use crate::tensor::Tensor4;
use std::ops::Range;

/// Shape of one stride-1 `same` convolution, the only kind the network
/// builds: an odd square kernel, `kernel / 2` zeros of padding on every
/// side, and an output the input's size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Square kernel side (odd).
    pub kernel: usize,
}

impl ConvGeometry {
    /// The geometry of a `c_in`-channel `h×w` input under an odd `kernel`.
    pub fn same(c_in: usize, h: usize, w: usize, kernel: usize) -> Self {
        assert!(kernel % 2 == 1, "same convolution needs an odd kernel");
        ConvGeometry { c_in, h, w, kernel }
    }

    /// Zero padding on every side.
    pub fn pad(&self) -> usize {
        self.kernel / 2
    }

    /// Patch length `c_in·k·k` (rows of the column matrix).
    pub fn patch(&self) -> usize {
        self.c_in * self.kernel * self.kernel
    }

    /// Output pixels per channel (columns of the column matrix).
    pub fn pixels(&self) -> usize {
        self.h * self.w
    }

    /// Distance between the rows of a framed plane: the input's width and
    /// `pad` zeros, which are one row's right padding and the next row's
    /// left padding at once.
    fn frame_stride(&self) -> usize {
        self.w + self.pad()
    }

    /// Elements of one framed plane: the input's rows and `pad` zero rows,
    /// which are this plane's bottom padding and the next plane's top
    /// padding at once.
    fn frame_plane(&self) -> usize {
        (self.h + self.pad()) * self.frame_stride()
    }

    /// Zeros before the first plane: its top padding and the left padding
    /// of its first row.
    fn frame_lead(&self) -> usize {
        self.pad() * self.frame_stride() + self.pad()
    }

    /// Elements of one framed sample.
    pub(crate) fn framed(&self) -> usize {
        self.frame_lead() + self.c_in * self.frame_plane()
    }
}

/// Copy one sample (`c_in·h·w` contiguous) into `dst` framed by its zero
/// padding: `pad` zero rows and `pad` zeros, then per channel the input's
/// rows, each followed by `pad` zeros, and `pad` zero rows. A row's
/// trailing zeros are the next row's leading ones, and a plane's trailing
/// rows the next plane's leading ones, so every pixel a tap reads off the
/// image is a zero. Writes every element of `dst`.
pub(crate) fn frame(src: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    assert_eq!(src.len(), g.c_in * g.h * g.w, "frame: src shape mismatch");
    assert_eq!(dst.len(), g.framed(), "frame: dst shape mismatch");
    let stride = g.frame_stride();
    let (lead, planes) = dst.split_at_mut(g.frame_lead());
    lead.fill(0.0);
    for (plane, fplane) in src
        .chunks_exact(g.h * g.w)
        .zip(planes.chunks_exact_mut(g.frame_plane()))
    {
        let (body, bottom) = fplane.split_at_mut(g.h * stride);
        bottom.fill(0.0);
        for (row, frow) in plane.chunks_exact(g.w).zip(body.chunks_exact_mut(stride)) {
            let (mid, right) = frow.split_at_mut(g.w);
            mid.copy_from_slice(row);
            right.fill(0.0);
        }
    }
}

/// Where each patch-matrix row starts in a framed sample: tap
/// `(ci, ky, kx)` reads output pixel `(oy, ox)` at
/// `ci·plane + (oy + ky)·stride + ox + kx`. Built for one geometry and
/// kept until another arrives, so a layer's steady state allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct TapTable {
    built_for: Option<ConvGeometry>,
    starts: Vec<usize>,
}

impl TapTable {
    /// The row starts for `g`'s frame.
    pub(crate) fn starts(&mut self, g: &ConvGeometry) -> &[usize] {
        if self.built_for != Some(*g) {
            let (stride, plane) = (g.frame_stride(), g.frame_plane());
            self.starts.clear();
            for ci in 0..g.c_in {
                for ky in 0..g.kernel {
                    for kx in 0..g.kernel {
                        self.starts.push(ci * plane + ky * stride + kx);
                    }
                }
            }
            self.built_for = Some(*g);
        }
        &self.starts
    }
}

/// A framed sample as the patch matrix it stands for.
fn patches<'a>(frame_s: &'a [f32], taps: &'a [usize], g: &ConvGeometry) -> Planes<'a> {
    assert_eq!(frame_s.len(), g.framed(), "conv frame shape mismatch");
    Planes {
        data: frame_s,
        starts: taps,
        width: g.w,
        stride: g.frame_stride(),
    }
}

/// Forward for one framed sample: `out_s[c_out×P] = bias ⊕ W·patches`.
pub(crate) fn conv_forward_framed(
    frame_s: &[f32],
    taps: &[usize],
    weight: &[f32],
    bias: &[f32],
    g: &ConvGeometry,
    out_s: &mut [f32],
) {
    let (kp, p) = (g.patch(), g.pixels());
    let c_out = bias.len();
    assert_eq!(weight.len(), c_out * kp, "conv weight shape mismatch");
    assert_eq!(out_s.len(), c_out * p, "conv output shape mismatch");
    for (co, orow) in out_s.chunks_mut(p).enumerate() {
        orow.fill(bias[co]);
    }
    gemm::gemm_nn_planes(c_out, p, kp, weight, patches(frame_s, taps, g), out_s);
}

/// Parameter gradients of one framed sample: accumulates
/// `bg += rowsums(g_s)` and `wg[c_out×K] += g_s · patchesᵀ`. `panel` is
/// scratch of at least [`gemm::nt_panel_len`]`(P)`.
pub(crate) fn conv_param_grads(
    frame_s: &[f32],
    taps: &[usize],
    g_s: &[f32],
    g: &ConvGeometry,
    panel: &mut [f32],
    wg: &mut [f32],
    bg: &mut [f32],
) {
    let (kp, p) = (g.patch(), g.pixels());
    let c_out = bg.len();
    assert_eq!(g_s.len(), c_out * p, "conv grad-out shape mismatch");
    for (co, grow) in g_s.chunks(p).enumerate() {
        let mut sum = 0.0f32;
        for v in grow {
            sum += v;
        }
        bg[co] += sum;
    }
    gemm::gemm_nt_planes(c_out, kp, p, g_s, patches(frame_s, taps, g), panel, wg);
}

/// Scratch one sample's backward needs, one buffer serving both lowered
/// GEMMs in turn: [`conv_param_grads`]'s panel, then, when the input
/// gradient is wanted, [`conv_input_grad`]'s channel block.
pub(crate) fn backward_scratch(g: &ConvGeometry, input_grad: bool) -> usize {
    let block = match input_grad {
        true => grad_block_channels(g) * g.kernel * g.kernel * g.pixels(),
        false => 0,
    };
    block.max(gemm::nt_panel_len(g.pixels()))
}

/// Bytes of patch-matrix rows one [`conv_input_grad`] block aims for, well
/// inside an L1 data cache (one step of [`MR`] channels may exceed it).
const GRAD_BLOCK_BYTES: usize = 16 << 10;

/// Input channels per [`conv_input_grad`] block: a multiple of [`MR`], so
/// the block's `k²`-row channels make whole GEMM register tiles, and as
/// many as keep the block's rows within `GRAD_BLOCK_BYTES`.
fn grad_block_channels(g: &ConvGeometry) -> usize {
    let step_bytes = MR * g.kernel * g.kernel * g.pixels() * std::mem::size_of::<f32>();
    (MR * (GRAD_BLOCK_BYTES / step_bytes.max(1)).max(1)).min(g.c_in)
}

/// Input gradient of one sample, written into `gin_s` (every element):
/// `Wᵀ·g_s` for [`grad_block_channels`] input channels at a time into
/// `block`, each block scattered back before the next. `wt` is the
/// transposed weight (`K×c_out`); `block` is scratch of at least
/// `grad_block_channels(g)·k²·P`.
///
/// Per element this is the patch-matrix path's arithmetic: the GEMM
/// accumulates onto zeros (`0.0 + Σ`), and the scatter adds the taps onto
/// `0.0` in ascending `(ky, kx)`.
pub(crate) fn conv_input_grad(
    g_s: &[f32],
    wt: &[f32],
    g: &ConvGeometry,
    block: &mut [f32],
    gin_s: &mut [f32],
) {
    let (kk, p) = (g.kernel * g.kernel, g.pixels());
    let c_out = g_s.len() / p;
    let cb = grad_block_channels(g);
    assert_eq!(
        wt.len(),
        g.patch() * c_out,
        "conv transposed-weight shape mismatch"
    );
    assert_eq!(
        gin_s.len(),
        g.c_in * g.h * g.w,
        "conv grad-in shape mismatch"
    );
    for (wt_rows, gin_block) in wt
        .chunks(cb * kk * c_out)
        .zip(gin_s.chunks_mut(cb * g.h * g.w))
    {
        let rows = wt_rows.len() / c_out;
        let cols_mat = &mut block[..rows * p];
        cols_mat.fill(0.0);
        gemm::gemm_nn(rows, p, c_out, wt_rows, g_s, cols_mat);
        let block_g = ConvGeometry::same(rows / kk, g.h, g.w, g.kernel);
        match (g.w, g.kernel) {
            (16, 3) => scatter_rows::<16, 3>(cols_mat, &block_g, gin_block),
            (8, 3) => scatter_rows::<8, 3>(cols_mat, &block_g, gin_block),
            (4, 3) => scatter_rows::<4, 3>(cols_mat, &block_g, gin_block),
            _ => scatter_any(cols_mat, &block_g, gin_block),
        }
    }
}

/// The stride-1 `same` scatter for a compile-time input width `W` and
/// kernel side `K`: each input row is accumulated in registers from `0.0`
/// and stored once. `K` is a constant because the search space builds only
/// 3×3 kernels: its tap loops unroll, and the lane masks and tap bounds
/// fold to constants.
///
/// Input element `x` of a row takes, from tap `(ky, kx)`, the patch
/// matrix element `x − (kx − pad)` of that tap's segment — when that lies
/// inside the segment. Reading the `W`-wide window that starts
/// `kx − pad` before the segment and adding only the lanes that map
/// inside it performs exactly the additions [`col2im`] performs onto a
/// zeroed buffer, in the same ascending `(ky, kx)` order per element, so
/// the sums are bit-identical. (The window's masked-out lanes belong to a
/// neighbouring segment or row; they are read, never added.)
fn scatter_rows<const W: usize, const K: usize>(
    cols_mat: &[f32],
    g: &ConvGeometry,
    dst: &mut [f32],
) {
    let (pad, h) = (K / 2, g.h);
    let cols = h * W;
    // Lane mask of tap `kx`: the window `kx − pad` left of the set row.
    let lane_masks = [[0u32; W], [!0u32; W], [0u32; W]];
    let lane_masks = lane_masks.as_flattened();
    for (ci, plane) in dst.chunks_exact_mut(cols).enumerate() {
        let (rows, _) = plane.as_chunks_mut::<W>();
        for (yy, drow) in rows.iter_mut().enumerate() {
            let mut acc = [0.0f32; W];
            // Tap row `ky` reaches this input row from output row
            // `yy + pad − ky`.
            for ky in 0..K.min(yy + pad + 1) {
                let oy = yy + pad - ky;
                if oy >= h {
                    continue;
                }
                let seg_base = (ci * K + ky) * K * cols + oy * W;
                for kx in 0..K {
                    // A tap a full width off either side touches no lane.
                    if kx + W <= pad || kx >= pad + W {
                        continue;
                    }
                    let under_tap: &[u32; W] = array_at(lane_masks, W + pad - kx);
                    let window: &[f32; W] = array_at(cols_mat, seg_base + kx * cols + pad - kx);
                    // `if under_tap { a + v } else { a }` as a bitwise
                    // blend, which stays a vector operation where the
                    // `if` compiles to one branch per lane. It must not
                    // be an added zero: `−0.0 + 0.0` is `+0.0`.
                    for ((a, v), &m) in acc.iter_mut().zip(window).zip(under_tap) {
                        let sum = *a + v;
                        *a = f32::from_bits((sum.to_bits() & m) | (a.to_bits() & !m));
                    }
                }
            }
            *drow = acc;
        }
    }
}

/// [`scatter_rows`] for any other width or kernel: each input row starts
/// at `0.0` and takes, tap by tap in ascending `(ky, kx)`, the slice of
/// the tap's segment that lands inside it.
fn scatter_any(cols_mat: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    let (k, pad, h, w) = (g.kernel, g.pad(), g.h, g.w);
    let cols = h * w;
    for (ci, plane) in dst.chunks_exact_mut(cols).enumerate() {
        for (yy, drow) in plane.chunks_exact_mut(w).enumerate() {
            drow.fill(0.0);
            for ky in 0..k.min(yy + pad + 1) {
                let oy = yy + pad - ky;
                if oy >= h {
                    continue;
                }
                let seg_base = (ci * k + ky) * k * cols + oy * w;
                for kx in 0..k {
                    // Input column `x` takes segment element `x + pad − kx`.
                    let lo = kx.saturating_sub(pad);
                    let hi = (w + kx).saturating_sub(pad).min(w);
                    if lo >= hi {
                        continue;
                    }
                    let seg = seg_base + kx * cols + lo + pad - kx;
                    for (dv, sv) in drow[lo..hi].iter_mut().zip(&cols_mat[seg..seg + hi - lo]) {
                        *dv += sv;
                    }
                }
            }
        }
    }
}

/// The output columns at which tap column `kx` reads a `w`-wide input row,
/// and the input columns it reads there: output column `ox` reads input
/// column `ox + kx − pad`. A tap more than a row's width off the row reads
/// none.
fn tap_columns(kx: usize, pad: usize, w: usize) -> (Range<usize>, Range<usize>) {
    let lo = pad.saturating_sub(kx).min(w);
    let hi = (w + pad).saturating_sub(kx).min(w);
    if lo >= hi {
        return (0..0, 0..0);
    }
    (lo..hi, lo + kx - pad..hi + kx - pad)
}

/// Unroll one sample (`c_in·h·w` contiguous) into the patch matrix
/// `dst[(c_in·k·k) × (h·w)]`, zero-filling out-of-bounds taps: per output
/// row, zero-fill the taps that fall off the input and copy the rest.
#[doc(hidden)]
pub fn im2col(src: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    assert_eq!(src.len(), g.c_in * g.h * g.w, "im2col: src shape mismatch");
    assert_eq!(
        dst.len(),
        g.patch() * g.pixels(),
        "im2col: dst shape mismatch"
    );
    let (k, pad, h, w) = (g.kernel, g.pad(), g.h, g.w);
    let cols = g.pixels();
    let mut row = 0;
    for ci in 0..g.c_in {
        let plane = &src[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let drow = &mut dst[row * cols..(row + 1) * cols];
                let (out, inp) = tap_columns(kx, pad, w);
                for oy in 0..h {
                    let yy = (oy + ky) as isize - pad as isize;
                    let seg = &mut drow[oy * w..(oy + 1) * w];
                    if yy < 0 || yy >= h as isize {
                        seg.fill(0.0);
                        continue;
                    }
                    let srow = &plane[(yy as usize) * w..(yy as usize + 1) * w];
                    seg[..out.start].fill(0.0);
                    seg[out.clone()].copy_from_slice(&srow[inp.clone()]);
                    seg[out.end..].fill(0.0);
                }
                row += 1;
            }
        }
    }
}

/// Scatter-add the patch matrix back onto an input-shaped buffer: the
/// adjoint of [`im2col`]. `dst` accumulates (caller zeroes it), and every
/// input element receives its taps in ascending `(ky, kx)` order.
#[doc(hidden)]
pub fn col2im(cols_mat: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    assert_eq!(dst.len(), g.c_in * g.h * g.w, "col2im: dst shape mismatch");
    assert_eq!(
        cols_mat.len(),
        g.patch() * g.pixels(),
        "col2im: src shape mismatch"
    );
    let (k, pad, h, w) = (g.kernel, g.pad(), g.h, g.w);
    let cols = g.pixels();
    let mut row = 0;
    for ci in 0..g.c_in {
        let plane = &mut dst[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let srow_mat = &cols_mat[row * cols..(row + 1) * cols];
                let (out, inp) = tap_columns(kx, pad, w);
                for oy in 0..h {
                    let yy = (oy + ky) as isize - pad as isize;
                    if yy < 0 || yy >= h as isize {
                        continue;
                    }
                    let seg = &srow_mat[oy * w..(oy + 1) * w];
                    let drow = &mut plane[(yy as usize) * w..(yy as usize + 1) * w];
                    for (dv, sv) in drow[inp.clone()].iter_mut().zip(&seg[out.clone()]) {
                        *dv += sv;
                    }
                }
                row += 1;
            }
        }
    }
}

/// Oracle forward for one sample: `out_s[c_out×P] = bias ⊕ W·col(x_s)`.
fn conv_forward_sample(
    x_s: &[f32],
    weight: &[f32],
    bias: &[f32],
    g: &ConvGeometry,
    col_buf: &mut [f32],
    out_s: &mut [f32],
) {
    let (kp, p) = (g.patch(), g.pixels());
    let c_out = bias.len();
    assert_eq!(weight.len(), c_out * kp, "conv weight shape mismatch");
    assert_eq!(out_s.len(), c_out * p, "conv output shape mismatch");
    im2col(x_s, g, col_buf);
    for (co, orow) in out_s.chunks_mut(p).enumerate() {
        orow.fill(bias[co]);
    }
    gemm::gemm_nn(c_out, p, kp, weight, col_buf, out_s);
}

/// Oracle backward for one sample. Accumulates the weight/bias gradients
/// into `wg`/`bg` and the input gradient into `gin_s`. `wt` is the
/// transposed weight (`K×c_out`); `col_buf`/`gcol_buf` are scratch.
#[allow(clippy::too_many_arguments)]
fn conv_backward_sample(
    x_s: &[f32],
    g_s: &[f32],
    wt: &[f32],
    g: &ConvGeometry,
    col_buf: &mut [f32],
    gcol_buf: &mut [f32],
    gin_s: &mut [f32],
    wg: &mut [f32],
    bg: &mut [f32],
) {
    let (kp, p) = (g.patch(), g.pixels());
    let c_out = bg.len();
    assert_eq!(g_s.len(), c_out * p, "conv grad-out shape mismatch");
    assert_eq!(
        wt.len(),
        kp * c_out,
        "conv transposed-weight shape mismatch"
    );
    im2col(x_s, g, col_buf);
    // Bias gradient: row sums of g_s.
    for (co, grow) in g_s.chunks(p).enumerate() {
        let mut sum = 0.0f32;
        for v in grow {
            sum += v;
        }
        bg[co] += sum;
    }
    // Weight gradient: wg[c_out×K] += g_s · colᵀ.
    gemm::gemm_nt(c_out, kp, p, g_s, col_buf, wg);
    // Input gradient: gcol[K×P] = Wᵀ · g_s, scattered back by col2im.
    gcol_buf.fill(0.0);
    gemm::gemm_nn(kp, p, c_out, wt, g_s, gcol_buf);
    col2im(gcol_buf, g, gin_s);
}

/// Batched oracle forward over a whole tensor: im2col and
/// [`gemm::gemm_nn`], one sample at a time.
#[doc(hidden)]
pub fn conv_forward(x: &Tensor4, weight: &[f32], bias: &[f32], g: &ConvGeometry) -> Tensor4 {
    assert_eq!(x.c, g.c_in, "conv input channel mismatch");
    let c_out = bias.len();
    let mut out = Tensor4::zeros(x.n, c_out, g.h, g.w);
    let mut col_buf = vec![0.0f32; g.patch() * g.pixels()];
    for ni in 0..x.n {
        conv_forward_sample(
            x.sample(ni),
            weight,
            bias,
            g,
            &mut col_buf,
            out.sample_mut(ni),
        );
    }
    out
}

/// Batched oracle backward: returns `(grad_in, weight_grad, bias_grad)`,
/// each sample's gradients summed on their own and then added in sample
/// order, by im2col, [`gemm::gemm_nt`], [`gemm::gemm_nn`] and [`col2im`].
#[doc(hidden)]
pub fn conv_backward(
    x: &Tensor4,
    grad_out: &Tensor4,
    weight: &[f32],
    c_out: usize,
    g: &ConvGeometry,
) -> (Tensor4, Vec<f32>, Vec<f32>) {
    assert_eq!(x.c, g.c_in, "conv input channel mismatch");
    assert_eq!(
        grad_out.shape(),
        (x.n, c_out, g.h, g.w),
        "conv grad-out shape mismatch"
    );
    let kp = g.patch();
    let mut wt = vec![0.0f32; kp * c_out];
    gemm::transpose(c_out, kp, weight, &mut wt);
    let mut grad_in = Tensor4::zeros(x.n, g.c_in, g.h, g.w);
    let mut wg_total = vec![0.0f32; weight.len()];
    let mut bg_total = vec![0.0f32; c_out];
    let mut col_buf = vec![0.0f32; kp * g.pixels()];
    let mut gcol_buf = vec![0.0f32; kp * g.pixels()];
    for ni in 0..x.n {
        let mut wg = vec![0.0f32; weight.len()];
        let mut bg = vec![0.0f32; c_out];
        conv_backward_sample(
            x.sample(ni),
            grad_out.sample(ni),
            &wt,
            g,
            &mut col_buf,
            &mut gcol_buf,
            grad_in.sample_mut(ni),
            &mut wg,
            &mut bg,
        );
        for (acc, v) in wg_total.iter_mut().zip(&wg) {
            *acc += v;
        }
        for (acc, v) in bg_total.iter_mut().zip(&bg) {
            *acc += v;
        }
    }
    (grad_in, wg_total, bg_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_shapes() {
        let g = ConvGeometry::same(3, 8, 10, 5);
        assert_eq!((g.pad(), g.pixels()), (2, 80));
        assert_eq!(g.patch(), 75);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_panics() {
        ConvGeometry::same(1, 4, 4, 2);
    }

    #[test]
    fn im2col_identity_kernel_row_is_the_input() {
        // With k=1 (pad 0) the patch matrix IS the input plane.
        let g = ConvGeometry::same(2, 3, 4, 1);
        let src: Vec<f32> = (0..24).map(|v| v as f32).collect();
        let mut dst = vec![0.0f32; g.patch() * g.pixels()];
        im2col(&src, &g, &mut dst);
        assert_eq!(src, dst);
    }

    #[test]
    fn im2col_pads_with_zeros() {
        // 1×1 input, 3×3 kernel, same padding: only the center tap hits.
        let g = ConvGeometry::same(1, 1, 1, 3);
        let mut dst = vec![7.0f32; 9];
        im2col(&[5.0], &g, &mut dst);
        assert_eq!(dst, vec![0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for any x, y — the defining
        // property of the adjoint, checked on pseudo-random data.
        let g = ConvGeometry::same(2, 4, 5, 3);
        let nx = g.c_in * g.h * g.w;
        let ny = g.patch() * g.pixels();
        let x: Vec<f32> = (0..nx).map(|i| ((i * 37 + 11) % 17) as f32 - 8.0).collect();
        let y: Vec<f32> = (0..ny).map(|i| ((i * 53 + 3) % 13) as f32 - 6.0).collect();
        let mut cx = vec![0.0f32; ny];
        im2col(&x, &g, &mut cx);
        let mut ay = vec![0.0f32; nx];
        col2im(&y, &g, &mut ay);
        let lhs: f64 = cx.iter().zip(&y).map(|(a, b)| f64::from(a * b)).sum();
        let rhs: f64 = x.iter().zip(&ay).map(|(a, b)| f64::from(a * b)).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    /// `pad > w`: some taps lie more than a row's width off the row. The
    /// window loop used to slice the source row at a negative offset.
    #[test]
    fn padding_wider_than_the_image_matches_direct_gather() {
        let g = ConvGeometry::same(1, 3, 5, 13);
        let src: Vec<f32> = (0..15).map(|v| v as f32 + 1.0).collect();
        let mut col = vec![f32::NAN; g.patch() * g.pixels()];
        im2col(&src, &g, &mut col);
        for (row, (ky, kx)) in (0..13)
            .flat_map(|ky| (0..13).map(move |kx| (ky, kx)))
            .enumerate()
        {
            for (px, (oy, ox)) in (0..3)
                .flat_map(|oy| (0..5).map(move |ox| (oy, ox)))
                .enumerate()
            {
                let (yy, xx) = ((oy + ky) as isize - 6, (ox + kx) as isize - 6);
                let want = if (0..3).contains(&yy) && (0..5).contains(&xx) {
                    src[yy as usize * 5 + xx as usize]
                } else {
                    0.0
                };
                assert_eq!(col[row * 15 + px], want, "tap ({ky},{kx}) at ({oy},{ox})");
            }
        }
        // Every pixel lies under exactly one tap of each output position.
        let mut back = vec![0.0f32; 15];
        col2im(&col, &g, &mut back);
        let want_back: Vec<f32> = src.iter().map(|v| v * 15.0).collect();
        assert_eq!(back, want_back);
    }
}
