//! im2col/col2im lowering: convolution as matrix multiplication.
//!
//! [`im2col`] unrolls every receptive field of an input plane stack into a
//! column of a `(c_in·k·k) × (out_h·out_w)` patch matrix, so that
//!
//! - forward is `W[c_out×K] · col[K×P]` ([`conv_forward`]),
//! - the weight gradient is `g[c_out×P] · colᵀ`,
//! - the input gradient is `Wᵀ[K×c_out] · g[c_out×P]` scattered back
//!   through [`col2im`] ([`conv_backward`]),
//!
//! all running on the blocked GEMM kernels in [`crate::gemm`]. The
//! geometry is general (any stride/padding) even though the `Conv2d`
//! layer only uses stride 1 with `same` padding — the equivalence
//! proptests sweep the full space.
//!
//! Patch rows are ordered `(ci, ky, kx)` — the same order the naive
//! kernel walks — so the lowered forward accumulates products in the
//! identical sequence and agrees with the naive path to rounding.

use crate::gemm;
use crate::tensor::Tensor4;

/// Shape parameters of one convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    /// Input channels.
    pub c_in: usize,
    /// Input height.
    pub h: usize,
    /// Input width.
    pub w: usize,
    /// Square kernel side.
    pub kernel: usize,
    /// Stride (both axes).
    pub stride: usize,
    /// Zero padding (both axes).
    pub pad: usize,
}

impl ConvGeometry {
    /// Stride-1 `same` geometry, as used by the `Conv2d` layer.
    pub fn same(c_in: usize, h: usize, w: usize, kernel: usize) -> Self {
        ConvGeometry {
            c_in,
            h,
            w,
            kernel,
            stride: 1,
            pad: kernel / 2,
        }
    }

    /// Output height.
    pub fn out_h(&self) -> usize {
        (self.h + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Output width.
    pub fn out_w(&self) -> usize {
        (self.w + 2 * self.pad - self.kernel) / self.stride + 1
    }

    /// Patch length `c_in·k·k` (rows of the column matrix).
    pub fn patch(&self) -> usize {
        self.c_in * self.kernel * self.kernel
    }

    /// Output pixels per channel (columns of the column matrix).
    pub fn pixels(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Stride 1 with `same` padding under an odd kernel: the output plane
    /// has the input's shape and tap `kx` reads `kx − pad` columns to the
    /// right. What the fixed-width [`im2col`]/[`col2im`] bodies assume.
    fn is_unit_stride_same(&self) -> bool {
        self.stride == 1 && self.kernel == 2 * self.pad + 1
    }

    fn validate(&self) {
        assert!(self.stride >= 1, "stride must be at least 1");
        assert!(
            self.h + 2 * self.pad >= self.kernel && self.w + 2 * self.pad >= self.kernel,
            "kernel {k} exceeds padded input {h}x{w}+{p}",
            k = self.kernel,
            h = self.h,
            w = self.w,
            p = self.pad,
        );
    }
}

/// Unroll one sample (`c_in·h·w` contiguous) into the patch matrix
/// `dst[(c_in·k·k) × (out_h·out_w)]`, zero-filling out-of-bounds taps.
pub fn im2col(src: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    g.validate();
    assert_eq!(src.len(), g.c_in * g.h * g.w, "im2col: src shape mismatch");
    assert_eq!(
        dst.len(),
        g.patch() * g.pixels(),
        "im2col: dst shape mismatch"
    );
    if g.is_unit_stride_same() {
        match g.w {
            16 => return im2col_same::<16>(src, g, dst),
            8 => return im2col_same::<8>(src, g, dst),
            4 => return im2col_same::<4>(src, g, dst),
            _ => {}
        }
    }
    im2col_general(src, g, dst);
}

/// [`im2col`] for any geometry: per output row, zero-fill the taps that
/// fall off the input and copy (stride 1) or gather (strided) the rest.
fn im2col_general(src: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    let (k, s, pad, h, w) = (g.kernel, g.stride, g.pad, g.h, g.w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    let mut row = 0;
    for ci in 0..g.c_in {
        let plane = &src[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let drow = &mut dst[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let yy = (oy * s + ky) as isize - pad as isize;
                    let seg = &mut drow[oy * ow..(oy + 1) * ow];
                    if yy < 0 || yy >= h as isize {
                        seg.fill(0.0);
                        continue;
                    }
                    let srow = &plane[(yy as usize) * w..(yy as usize + 1) * w];
                    if s == 1 {
                        // xx = ox + kx - pad is valid for ox in [lo, hi).
                        let shift = kx as isize - pad as isize;
                        let lo = ((-shift).max(0) as usize).min(ow);
                        let hi = ((w as isize - shift).clamp(0, ow as isize)) as usize;
                        let hi = hi.max(lo);
                        seg[..lo].fill(0.0);
                        // A tap more than a row's width off the row has
                        // lo == hi and no in-range source column at all.
                        if lo < hi {
                            seg[lo..hi].copy_from_slice(
                                &srow[(lo as isize + shift) as usize
                                    ..(hi as isize + shift) as usize],
                            );
                        }
                        seg[hi..].fill(0.0);
                    } else {
                        for (ox, v) in seg.iter_mut().enumerate() {
                            let xx = (ox * s + kx) as isize - pad as isize;
                            *v = if xx < 0 || xx >= w as isize {
                                0.0
                            } else {
                                srow[xx as usize]
                            };
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// Scatter-add the patch matrix back onto an input-shaped buffer: the
/// adjoint of [`im2col`]. `dst` accumulates (caller zeroes it).
pub fn col2im(cols_mat: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    g.validate();
    assert_eq!(dst.len(), g.c_in * g.h * g.w, "col2im: dst shape mismatch");
    assert_eq!(
        cols_mat.len(),
        g.patch() * g.pixels(),
        "col2im: src shape mismatch"
    );
    if g.is_unit_stride_same() {
        match g.w {
            16 => return col2im_same::<16>(cols_mat, g, dst),
            8 => return col2im_same::<8>(cols_mat, g, dst),
            4 => return col2im_same::<4>(cols_mat, g, dst),
            _ => {}
        }
    }
    col2im_general(cols_mat, g, dst);
}

/// [`col2im`] for any geometry. Every input element receives its taps in
/// ascending `(ky, kx)` order — the order [`col2im_same`] must keep.
fn col2im_general(cols_mat: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    let (k, s, pad, h, w) = (g.kernel, g.stride, g.pad, g.h, g.w);
    let (oh, ow) = (g.out_h(), g.out_w());
    let cols = oh * ow;
    let mut row = 0;
    for ci in 0..g.c_in {
        let plane = &mut dst[ci * h * w..(ci + 1) * h * w];
        for ky in 0..k {
            for kx in 0..k {
                let srow_mat = &cols_mat[row * cols..(row + 1) * cols];
                for oy in 0..oh {
                    let yy = (oy * s + ky) as isize - pad as isize;
                    if yy < 0 || yy >= h as isize {
                        continue;
                    }
                    let seg = &srow_mat[oy * ow..(oy + 1) * ow];
                    let drow = &mut plane[(yy as usize) * w..(yy as usize + 1) * w];
                    if s == 1 {
                        let shift = kx as isize - pad as isize;
                        let lo = ((-shift).max(0) as usize).min(ow);
                        let hi = (((w as isize - shift).clamp(0, ow as isize)) as usize).max(lo);
                        if lo < hi {
                            for (dv, sv) in drow
                                [(lo as isize + shift) as usize..(hi as isize + shift) as usize]
                                .iter_mut()
                                .zip(&seg[lo..hi])
                            {
                                *dv += sv;
                            }
                        }
                    } else {
                        for (ox, sv) in seg.iter().enumerate() {
                            let xx = (ox * s + kx) as isize - pad as isize;
                            if xx >= 0 && xx < w as isize {
                                drow[xx as usize] += sv;
                            }
                        }
                    }
                }
                row += 1;
            }
        }
    }
}

/// [`im2col`] for stride 1, `same` padding and a compile-time input
/// width, so every row segment moves as whole vectors instead of a
/// `fill` + `copy_from_slice` + `fill` call triple.
///
/// Each source row is framed by `W` zeros on either side; the segment tap
/// `kx` contributes for that row is then the `W`-wide window `kx − pad`
/// columns right of the row's start, zero padding included. Rows above
/// and below the input are all-zero frames, which yields the vertical
/// padding from the same loop. Pure data movement: bit-identical to
/// [`im2col_general`] by construction.
fn im2col_same<const W: usize>(src: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    let (k, pad, h) = (g.kernel, g.pad, g.h);
    let cols = h * W;
    let mut framed = [[0.0f32; W]; 3];
    for (ci, plane) in src.chunks_exact(cols).enumerate() {
        let (rows, _) = plane.as_chunks::<W>();
        // `yp` is the source row index plus `pad`, so it starts at zero.
        for yp in 0..h + 2 * pad {
            framed[1] = match yp.checked_sub(pad).and_then(|yy| rows.get(yy)) {
                Some(row) => *row,
                None => [0.0; W],
            };
            let frame = framed.as_flattened();
            // Output row `oy` reads source row `oy + ky − pad`.
            for ky in 0..k.min(yp + 1) {
                let oy = yp - ky;
                if oy >= h {
                    continue;
                }
                let seg_base = (ci * k + ky) * k * cols + oy * W;
                for kx in 0..k {
                    // Windows a full width off either side are all zero.
                    let start = (W + kx).saturating_sub(pad).min(2 * W);
                    let window: &[f32; W] = array_at(frame, start);
                    let seg = seg_base + kx * cols;
                    dst[seg..seg + W].copy_from_slice(window);
                }
            }
        }
    }
}

/// [`col2im`] for stride 1, `same` padding and a compile-time input
/// width: each input row is accumulated in registers and stored once.
///
/// Input element `x` of a row takes, from tap `(ky, kx)`, the patch
/// matrix element `x − (kx − pad)` of that tap's segment — when that lies
/// inside the segment. Reading the `W`-wide window that starts
/// `kx − pad` before the segment and adding only the lanes that map
/// inside it performs exactly the additions [`col2im_general`] performs,
/// in the same ascending `(ky, kx)` order per element, so the sums are
/// bit-identical. (The window's masked-out lanes belong to a
/// neighbouring segment or row; they are read, never added.)
fn col2im_same<const W: usize>(cols_mat: &[f32], g: &ConvGeometry, dst: &mut [f32]) {
    let (k, pad, h) = (g.kernel, g.pad, g.h);
    let cols = h * W;
    // Lane mask of tap `kx`: the window `kx − pad` left of the set row.
    let lane_masks = [[0u32; W], [!0u32; W], [0u32; W]];
    let lane_masks = lane_masks.as_flattened();
    for (ci, plane) in dst.chunks_exact_mut(cols).enumerate() {
        let (rows, _) = plane.as_chunks_mut::<W>();
        for (yy, drow) in rows.iter_mut().enumerate() {
            let mut acc = *drow;
            // Tap row `ky` reaches this input row from output row
            // `yy + pad − ky`.
            for ky in 0..k.min(yy + pad + 1) {
                let oy = yy + pad - ky;
                if oy >= h {
                    continue;
                }
                let seg_base = (ci * k + ky) * k * cols + oy * W;
                for kx in 0..k {
                    // A tap a full width off either side touches no lane.
                    if kx + W <= pad || kx >= pad + W {
                        continue;
                    }
                    let under_tap: &[u32; W] = array_at(lane_masks, W + pad - kx);
                    let window: &[f32; W] = array_at(cols_mat, seg_base + kx * cols + pad - kx);
                    // `if under_tap { a + v } else { a }` as a bitwise
                    // blend, which stays a vector operation where the
                    // `if` compiles to one branch per lane.
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

/// The `N` elements of `s` from `start` on, as an array: a fixed-width
/// window at a run-time offset.
#[inline(always)]
fn array_at<T, const N: usize>(s: &[T], start: usize) -> &[T; N] {
    match s[start..].first_chunk() {
        Some(window) => window,
        None => panic!("window {start}..{start}+{N} leaves a slice of {}", s.len()),
    }
}

/// Lowered forward for one sample: `out_s[c_out×P] = bias ⊕ W·col(x_s)`.
/// `col_buf` is a caller-owned scratch of length `patch·pixels` so the
/// per-batch driver can reuse one allocation per thread.
pub fn conv_forward_sample(
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

/// Lowered backward for one sample. Accumulates the weight/bias gradients
/// into `wg`/`bg` and writes the input gradient into `gin_s`. `wt` is the
/// pre-transposed weight (`K×c_out`); `col_buf`/`gcol_buf` are scratch.
#[allow(clippy::too_many_arguments)]
pub fn conv_backward_sample(
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
        let mut lanes = 0.0f32;
        for v in grow {
            lanes += v;
        }
        bg[co] += lanes;
    }
    // Weight gradient: wg[c_out×K] += g_s · colᵀ.
    gemm::gemm_nt(c_out, kp, p, g_s, col_buf, wg);
    // Input gradient: gcol[K×P] = Wᵀ · g_s, scattered back by col2im.
    gcol_buf.fill(0.0);
    gemm::gemm_nn(kp, p, c_out, wt, g_s, gcol_buf);
    col2im(gcol_buf, g, gin_s);
}

/// Batched lowered forward over a whole tensor (serial driver; the layer
/// runs its own thread-budgeted version). Used directly by tests to sweep
/// arbitrary stride/padding geometries.
pub fn conv_forward(x: &Tensor4, weight: &[f32], bias: &[f32], g: &ConvGeometry) -> Tensor4 {
    assert_eq!(x.c, g.c_in, "conv input channel mismatch");
    let c_out = bias.len();
    let mut out = Tensor4::zeros(x.n, c_out, g.out_h(), g.out_w());
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

/// Batched lowered backward (serial driver): returns
/// `(grad_in, weight_grad, bias_grad)` with gradients summed over the
/// batch in sample order.
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
        (x.n, c_out, g.out_h(), g.out_w()),
        "conv grad-out shape mismatch"
    );
    let kp = g.patch();
    let mut wt = vec![0.0f32; kp * c_out];
    gemm::transpose(c_out, kp, weight, &mut wt);
    let mut grad_in = Tensor4::zeros(x.n, g.c_in, g.h, g.w);
    let mut wg = vec![0.0f32; weight.len()];
    let mut bg = vec![0.0f32; c_out];
    let mut col_buf = vec![0.0f32; kp * g.pixels()];
    let mut gcol_buf = vec![0.0f32; kp * g.pixels()];
    for ni in 0..x.n {
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
    }
    (grad_in, wg, bg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;

    #[test]
    fn geometry_shapes() {
        let g = ConvGeometry::same(3, 8, 10, 5);
        assert_eq!((g.out_h(), g.out_w()), (8, 10));
        assert_eq!(g.patch(), 75);
        let strided = ConvGeometry {
            c_in: 1,
            h: 7,
            w: 7,
            kernel: 3,
            stride: 2,
            pad: 0,
        };
        assert_eq!((strided.out_h(), strided.out_w()), (3, 3));
    }

    #[test]
    fn im2col_identity_kernel_row_is_the_input() {
        // With k=1, s=1, pad=0 the patch matrix IS the input plane.
        let g = ConvGeometry {
            c_in: 2,
            h: 3,
            w: 4,
            kernel: 1,
            stride: 1,
            pad: 0,
        };
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
    fn strided_im2col_matches_direct_gather() {
        let g = ConvGeometry {
            c_in: 1,
            h: 5,
            w: 6,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
        let src: Vec<f32> = (0..30).map(|v| v as f32 * 0.25).collect();
        let mut dst = vec![0.0f32; g.patch() * g.pixels()];
        im2col(&src, &g, &mut dst);
        let (oh, ow) = (g.out_h(), g.out_w());
        for ky in 0..3 {
            for kx in 0..3 {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let yy = (oy * 2 + ky) as isize - 1;
                        let xx = (ox * 2 + kx) as isize - 1;
                        let want = if !(0..5).contains(&yy) || !(0..6).contains(&xx) {
                            0.0
                        } else {
                            src[yy as usize * 6 + xx as usize]
                        };
                        let row = ky * 3 + kx;
                        assert_eq!(dst[row * (oh * ow) + oy * ow + ox], want);
                    }
                }
            }
        }
    }

    #[test]
    fn col2im_is_the_adjoint_of_im2col() {
        // <im2col(x), y> == <x, col2im(y)> for any x, y — the defining
        // property of the adjoint, checked on pseudo-random data.
        let g = ConvGeometry {
            c_in: 2,
            h: 4,
            w: 5,
            kernel: 3,
            stride: 2,
            pad: 1,
        };
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
    /// stride-1 loop used to slice the source row at a negative offset.
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

    /// Every geometry the fixed-width bodies take — including kernels
    /// wider than the image, and (at width 4) padding wider than the
    /// image — against the general loop, bit for bit.
    #[test]
    fn fixed_width_bodies_equal_the_general_loop() {
        let shapes = [(4, 4), (8, 8), (16, 16), (5, 8), (3, 16)];
        for c_in in 1..=3 {
            for (h, w) in shapes {
                for kernel in [1, 3, 5, 7, 9, 11] {
                    let g = ConvGeometry::same(c_in, h, w, kernel);
                    assert!(g.is_unit_stride_same());
                    let nx = c_in * h * w;
                    let ny = g.patch() * g.pixels();
                    let x: Vec<f32> = (0..nx)
                        .map(|i| ((i * 37 + 11) % 101) as f32 - 50.5)
                        .collect();
                    let y: Vec<f32> = (0..ny)
                        .map(|i| ((i * 53 + 3) % 89) as f32 * 0.37 - 16.0)
                        .collect();

                    // Stale contents must be overwritten, zeros included.
                    let mut want = vec![7.0f32; ny];
                    im2col_general(&x, &g, &mut want);
                    let mut got = vec![-7.0f32; ny];
                    im2col(&x, &g, &mut got);
                    assert_eq!(bits(&want), bits(&got), "im2col {g:?}");

                    // col2im accumulates onto whatever is there: -0.0 is
                    // the one start value an added +0.0 would disturb.
                    let seed: Vec<f32> = (0..nx)
                        .map(|i| if i % 3 == 0 { -0.0 } else { i as f32 * 0.25 })
                        .collect();
                    let mut want = seed.clone();
                    col2im_general(&y, &g, &mut want);
                    let mut got = seed;
                    col2im(&y, &g, &mut got);
                    assert_eq!(bits(&want), bits(&got), "col2im {g:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds padded input")]
    fn oversized_kernel_panics() {
        let g = ConvGeometry {
            c_in: 1,
            h: 2,
            w: 2,
            kernel: 5,
            stride: 1,
            pad: 0,
        };
        let mut dst = vec![0.0; 25];
        im2col(&[0.0; 4], &g, &mut dst);
    }
}
