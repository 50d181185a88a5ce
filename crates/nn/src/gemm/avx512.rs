//! The [`Isa::Avx512`](super::Isa::Avx512) tier: explicit 16-lane
//! kernels where a 512-bit register pays, and the portable kernels
//! recompiled with AVX-512 codegen everywhere else.
//!
//! Every output keeps the products and sums, in the order, that the
//! portable kernels give it: each step is a separate `_mm512_mul_ps` and
//! `_mm512_add_ps` (never a fused multiply-add, which rounds once where
//! the portable kernels round twice), and every accumulator starts from
//! `0.0` as theirs do, so a sum of `-0.0` products comes out `+0.0` here
//! too. Only which lanes hold which outputs differs.
//!
//! - [`gemm_nn`] runs 8×16 register tiles: eight zmm accumulators, one per
//!   row of `A`, zero-seeded per `KC` panel and added into `C` — the
//!   4×16 tile's arithmetic, twice the rows per `B` load. Ragged edges
//!   stay on the portable 4×16 body.
//! - [`gemm_nt`] puts the weight gradient's outputs along the `c_out`
//!   lanes when there are sixteen of them to a register and the rows are
//!   short ([`lanes_fit`]): each group of sixteen `A` rows is transposed
//!   once, each `B` pixel is broadcast in place, and [`dot_lanes`]'
//!   eight accumulators and [`reduce_lanes`]' tree run as vertical adds
//!   over sixteen outputs at once. Elsewhere it is the AVX2 path,
//!   recompiled.
//!
//! The value intrinsics are safe inside these `#[target_feature]`
//! functions; the one `unsafe` is the load/store pair over `&[f32; 16]`.
//!
//! [`dot_lanes`]: super::dot_lanes
//! [`reduce_lanes`]: super::reduce_lanes

use super::{
    array_at, array_at_mut, gemm_nn_seq_serial_generic, gemm_nt_serial_generic, micro_panel_nn,
    nt_across, Layout, NtRows, Operand, Packed, ACROSS_MAX_K, KC, LANES, MR, NC, NR,
};
use std::arch::x86_64::{
    __m512, __m512i, _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_permutex2var_ps,
    _mm512_set1_ps, _mm512_setr_epi32, _mm512_setzero_ps, _mm512_storeu_ps,
};

/// `A` rows per [`tile_8x16`].
const WIDE_MR: usize = 8;
/// Outputs per register: sixteen `f32` lanes.
const ZMM: usize = 16;
/// Longest `B` row [`gemm_nt_lanes`] takes: its transposed block of `A`
/// (`ZMM` floats a pixel) stays a 4 KiB stack array.
const LANES_MAX_K: usize = 64;

/// The sixteen floats of `src` as one register.
#[target_feature(enable = "avx512f")]
#[inline]
fn load16(src: &[f32; ZMM]) -> __m512 {
    // SAFETY: `src` is sixteen readable, initialised `f32`s, exactly the
    // 64 bytes the unaligned load reads.
    unsafe { _mm512_loadu_ps(src.as_ptr()) }
}

/// Write `v` over the sixteen floats of `dst`.
#[target_feature(enable = "avx512f")]
#[inline]
fn store16(dst: &mut [f32; ZMM], v: __m512) {
    // SAFETY: `dst` is sixteen writable `f32`s, exactly the 64 bytes the
    // unaligned store writes, and the exclusive borrow means nothing else
    // reads them meanwhile.
    unsafe { _mm512_storeu_ps(dst.as_mut_ptr(), v) }
}

/// `acc + x·y` as two roundings, the portable kernels' `acc += x * y`.
#[target_feature(enable = "avx512f")]
#[inline]
fn plus_product(acc: __m512, x: __m512, y: __m512) -> __m512 {
    _mm512_add_ps(acc, _mm512_mul_ps(x, y))
}

/// [`super::gemm_nn_serial_generic`]'s blocking, with every full 8-row,
/// 16-column block of a panel on [`tile_8x16`].
#[target_feature(enable = "avx2,avx512f,avx512vl")]
pub(super) fn gemm_nn<L: Layout, const Q: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Operand<'_, L>,
    c: &mut [f32],
) {
    let mut panel = [0.0f32; KC * NR];
    // Only an in-place panel wider than one strip packs `A`; a gathered
    // strip or a narrower `C` skips zeroing the block.
    let mut block;
    let packed: &mut [[f32; WIDE_MR]] = if Q >= LANES && n > NR {
        block = [[0.0f32; WIDE_MR]; KC];
        &mut block
    } else {
        &mut []
    };
    let mut jb = 0;
    while jb < n {
        let jw = NC.min(n - jb);
        let mut pb = 0;
        while pb < k {
            let pw = KC.min(k - pb);
            if Q < LANES {
                let mut j = jb;
                while j < jb + jw {
                    let u = NR.min(jb + jw - j);
                    let strip = b.gather_strip::<Q>(pb, pw, j, u, &mut panel);
                    panel_rows::<Packed, NR>(m, j, u, pb, pw, n, k, a, strip, packed, c);
                    j += u;
                }
            } else {
                panel_rows::<L, Q>(m, jb, jw, pb, pw, n, k, a, b, packed, c);
            }
            pb += pw;
        }
        jb += jw;
    }
}

/// Columns `jb..jb + jw` of every row of `C` gain one `pw`-deep panel:
/// eight rows at a time on [`tile_8x16`], and the ragged right edge and
/// the last `m mod 8` rows on the portable 4×16 body. An 8-row block of
/// `A` that two or more column strips share is first packed into
/// `packed`, one step's eight values a row, so each step is one
/// contiguous read; a block only one strip reads is read in place, where
/// packing would cost about what the tile does.
#[target_feature(enable = "avx2,avx512f,avx512vl")]
#[inline]
#[allow(clippy::too_many_arguments)] // hot-loop tile coordinates, as in `micro_panel_nn`
fn panel_rows<L: Layout, const Q: usize>(
    m: usize,
    jb: usize,
    jw: usize,
    pb: usize,
    pw: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Operand<'_, L>,
    packed: &mut [[f32; WIDE_MR]],
    c: &mut [f32],
) {
    let jend = jb + jw;
    let wide = jw - jw % NR;
    let mut ib = 0;
    while ib + WIDE_MR <= m {
        let mut arows: [&[f32]; WIDE_MR] = [&[]; WIDE_MR];
        for (r, arow) in arows.iter_mut().enumerate() {
            *arow = &a[(ib + r) * k + pb..][..pw];
        }
        if wide > NR {
            for (r, arow) in arows.iter().enumerate() {
                for (step, v) in packed.iter_mut().zip(*arow) {
                    step[r] = *v;
                }
            }
            for j in (jb..jb + wide).step_by(NR) {
                tile_8x16::<_, L, Q>(&packed[..pw], ib, j, pb, pw, n, b, c);
            }
        } else if wide == NR {
            tile_8x16::<_, L, Q>(arows, ib, jb, pb, pw, n, b, c);
        }
        if wide < jw {
            for half in [ib, ib + MR] {
                micro_panel_nn::<L, Q>(
                    half,
                    MR,
                    jb + wide,
                    jend - jb - wide,
                    pb,
                    pw,
                    n,
                    k,
                    a,
                    b,
                    c,
                );
            }
        }
        ib += WIDE_MR;
    }
    while ib < m {
        let mh = MR.min(m - ib);
        micro_panel_nn::<L, Q>(ib, mh, jb, jw, pb, pw, n, k, a, b, c);
        ib += mh;
    }
}

/// Rows `ib..ib + 8` of `A` over one panel's depth, as a tile reads them.
trait ABlock: Copy {
    /// The eight rows' values at step `p` of the panel.
    fn step(self, p: usize) -> [f32; WIDE_MR];
}

/// In place: the rows themselves, `pw` values each.
impl ABlock for [&[f32]; WIDE_MR] {
    #[inline(always)]
    fn step(self, p: usize) -> [f32; WIDE_MR] {
        let mut values = [0.0f32; WIDE_MR];
        for (v, row) in values.iter_mut().zip(self) {
            *v = row[p];
        }
        values
    }
}

/// Packed: one step's eight values a row.
impl ABlock for &[[f32; WIDE_MR]] {
    #[inline(always)]
    fn step(self, p: usize) -> [f32; WIDE_MR] {
        self[p]
    }
}

/// One 8×16 block of `C` gains the product of `ablock` (rows `ib..ib + 8`
/// of `A`, `pw` steps from `pb` on) and `B`'s columns `j..j + 16`:
/// accumulator `r` holds row `ib + r`'s sixteen sums, each from `0.0` in
/// ascending `p`, and is then added to `C` — what `micro_panel_nn`'s fast
/// path does for four rows.
#[target_feature(enable = "avx2,avx512f,avx512vl")]
#[inline]
#[allow(clippy::too_many_arguments)]
fn tile_8x16<A: ABlock, L: Layout, const Q: usize>(
    ablock: A,
    ib: usize,
    j: usize,
    pb: usize,
    pw: usize,
    n: usize,
    b: Operand<'_, L>,
    c: &mut [f32],
) {
    let mut runs = [0usize; NR];
    for (q, at) in runs.iter_mut().take(NR / Q).enumerate() {
        *at = b.col(j + q * Q);
    }
    let span = runs[NR / Q - 1] + Q;
    let mut acc = [_mm512_setzero_ps(); WIDE_MR];
    for p in 0..pw {
        let row = b.start(pb + p);
        let strip = &b.data[row..row + span];
        let brow = if Q == NR {
            load16(array_at(strip, runs[0]))
        } else {
            let mut brow = [0.0f32; NR];
            for (seg, &at) in brow.as_chunks_mut::<Q>().0.iter_mut().zip(&runs) {
                *seg = *array_at(strip, at);
            }
            load16(&brow)
        };
        for (acc, ar) in acc.iter_mut().zip(ablock.step(p)) {
            *acc = plus_product(*acc, _mm512_set1_ps(ar), brow);
        }
    }
    for (r, acc) in acc.into_iter().enumerate() {
        let crow = array_at_mut(c, (ib + r) * n + j);
        store16(crow, _mm512_add_ps(load16(crow), acc));
    }
}

/// [`super::gemm_nn_seq_serial_generic`] recompiled for this tier.
#[target_feature(enable = "avx2,avx512f,avx512vl")]
pub(super) fn gemm_nn_seq(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nn_seq_serial_generic(m, n, k, a, b, c)
}

/// Whether [`gemm_nt_lanes`] takes a `C` of `m` rows over `B` rows of `k`
/// pixels read in runs of `run`: sixteen-row groups, and short rows of
/// whole eight-pixel chunks whose runs split into fours.
fn lanes_fit(m: usize, k: usize, run: usize) -> bool {
    m.is_multiple_of(ZMM) && k.is_multiple_of(LANES) && k <= LANES_MAX_K && run.is_multiple_of(4)
}

/// The AVX2 weight-gradient path recompiled for this tier, except that
/// what [`lanes_fit`] takes goes to [`gemm_nt_lanes`].
#[target_feature(enable = "avx2,avx512f,avx512vl")]
#[allow(clippy::too_many_arguments)]
pub(super) fn gemm_nt<L: NtRows>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    layout: L,
    b: &[f32],
    panel: &mut [f32],
    c: &mut [f32],
) {
    let (_, run, _) = layout.runs(0, k);
    if lanes_fit(m, k, run) {
        return match run.is_multiple_of(LANES) {
            true => gemm_nt_lanes::<L, LANES>(n, k, a, layout, b, c),
            false => gemm_nt_lanes::<L, 4>(n, k, a, layout, b, c),
        };
    }
    if L::PANEL && k <= ACROSS_MAX_K && k.is_multiple_of(LANES) {
        return gemm_nt_across(n, k, a, layout, b, panel, c);
    }
    gemm_nt_serial_generic(m, n, k, a, layout, b, panel, c)
}

/// `super::gemm_nt_across` recompiled for this tier.
#[target_feature(enable = "avx2,avx512f,avx512vl")]
#[inline(never)]
fn gemm_nt_across<L: NtRows>(
    n: usize,
    k: usize,
    a: &[f32],
    layout: L,
    b: &[f32],
    panel: &mut [f32],
    c: &mut [f32],
) {
    nt_across(n, k, a, layout, b, panel, c)
}

/// The weight gradient with its outputs along the lanes: for each group
/// of sixteen `A` rows (sixteen output channels), `A` is transposed once
/// so pixel `x`'s sixteen values are one register, and each `B` row
/// meets them through [`dot_tap`] — sixteen [`dot_lanes`] sums at once.
/// Sixteen taps' results are transposed in registers ([`transpose16`])
/// and added to `C` a row of sixteen at a time; a last block of fewer
/// taps is added one element at a time.
///
/// [`dot_lanes`]: super::dot_lanes
#[target_feature(enable = "avx2,avx512f,avx512vl")]
#[inline(never)]
fn gemm_nt_lanes<L: NtRows, const Q: usize>(
    n: usize,
    k: usize,
    a: &[f32],
    layout: L,
    b: &[f32],
    c: &mut [f32],
) {
    // Where segment `s` (pixels `s·Q..s·Q + Q`) of a B row lies, from the
    // row's start: runs of `run` pixels `gap` apart, whole segments each.
    let (_, run, gap) = layout.runs(0, k);
    let mut segs = [0usize; LANES_MAX_K / 4];
    for (s, at) in segs.iter_mut().take(k / Q).enumerate() {
        *at = s * Q / run * gap + s * Q % run;
    }
    let segs = &segs[..k / Q];
    let mut transposed = [[0.0f32; ZMM]; LANES_MAX_K];
    let gt = &mut transposed[..k];
    let mut outs = [_mm512_setzero_ps(); ZMM];
    for (arows, crows) in a.chunks_exact(ZMM * k).zip(c.chunks_exact_mut(ZMM * n)) {
        for (l, arow) in arows.chunks_exact(k).enumerate() {
            for (px, v) in gt.iter_mut().zip(arow) {
                px[l] = *v;
            }
        }
        for t0 in (0..n).step_by(ZMM) {
            let taps = ZMM.min(n - t0);
            for (s, out) in outs[..taps].iter_mut().enumerate() {
                let (start, _, _) = layout.runs(t0 + s, k);
                *out = dot_tap::<Q>(gt, &b[start..], segs);
            }
            if taps == ZMM {
                for (crow, sums) in crows.chunks_exact_mut(n).zip(transpose16(outs)) {
                    let cv = array_at_mut(crow, t0);
                    store16(cv, _mm512_add_ps(load16(cv), sums));
                }
            } else {
                let mut block = [[0.0f32; ZMM]; ZMM];
                for (sums, out) in block.iter_mut().zip(&outs[..taps]) {
                    store16(sums, *out);
                }
                for (l, crow) in crows.chunks_exact_mut(n).enumerate() {
                    for (cv, sums) in crow[t0..].iter_mut().zip(&block[..taps]) {
                        *cv += sums[l];
                    }
                }
            }
        }
    }
}

/// The 16×16 transpose of `rows`: lane `i` of result `j` is lane `j` of
/// `rows[i]`. Stage `k` swaps bit `k` of the register index with bit `k`
/// of the lane index, one two-register permute per output register.
#[target_feature(enable = "avx2,avx512f,avx512vl")]
#[inline]
fn transpose16(mut rows: [__m512; ZMM]) -> [__m512; ZMM] {
    for bit in [1, 2, 4, 8] {
        let (low, high) = (swap_index(bit, false), swap_index(bit, true));
        for i in (0..ZMM).filter(|i| i & bit == 0) {
            let (a, b) = (rows[i], rows[i | bit]);
            rows[i] = _mm512_permutex2var_ps(a, low, b);
            rows[i | bit] = _mm512_permutex2var_ps(a, high, b);
        }
    }
    rows
}

/// The permute indices of [`transpose16`]'s stage for `bit`, for the
/// pair's low register (`high == false`) or its high one: lane `c` takes
/// lane `c` with `bit` cleared (low) or set (high), from the pair's first
/// register where `c` has `bit` clear and from its second (indices 16 and
/// up) where set.
#[target_feature(enable = "avx2,avx512f,avx512vl")]
#[inline]
fn swap_index(bit: usize, high: bool) -> __m512i {
    let lane = |c: usize| {
        let from = if c & bit == 0 { 0 } else { ZMM };
        let at = if high { c | bit } else { c & !bit };
        (from + at) as i32
    };
    _mm512_setr_epi32(
        lane(0),
        lane(1),
        lane(2),
        lane(3),
        lane(4),
        lane(5),
        lane(6),
        lane(7),
        lane(8),
        lane(9),
        lane(10),
        lane(11),
        lane(12),
        lane(13),
        lane(14),
        lane(15),
    )
}

/// Sixteen [`dot_lanes`] sums at once: lane `o` of the result is
/// `dot_lanes(A row o, B row)`, with pixel `x`'s `A` values in `gt[x]`
/// and the `B` row's pixels read from `row` at the offsets `segs` gives.
/// Accumulator `l` holds the sixteen lane-`l` partials, the products at
/// pixels `≡ l (mod 8)` in ascending order; [`reduce_lanes`]' tree, its
/// `+ 0.0` tail included, joins them.
///
/// [`dot_lanes`]: super::dot_lanes
/// [`reduce_lanes`]: super::reduce_lanes
#[target_feature(enable = "avx2,avx512f,avx512vl")]
#[inline]
fn dot_tap<const Q: usize>(gt: &[[f32; ZMM]], row: &[f32], segs: &[usize]) -> __m512 {
    let z = _mm512_setzero_ps();
    let mut acc = [z; LANES];
    for (chunk, segs) in gt
        .as_chunks::<LANES>()
        .0
        .iter()
        .zip(segs.chunks_exact(LANES / Q))
    {
        for (s, &at) in segs.iter().enumerate() {
            let pixels: &[f32; Q] = array_at(row, at);
            for (i, &px) in pixels.iter().enumerate() {
                let l = s * Q + i;
                acc[l] = plus_product(acc[l], load16(&chunk[l]), _mm512_set1_ps(px));
            }
        }
    }
    let even = _mm512_add_ps(_mm512_add_ps(acc[0], acc[4]), _mm512_add_ps(acc[2], acc[6]));
    let odd = _mm512_add_ps(_mm512_add_ps(acc[1], acc[5]), _mm512_add_ps(acc[3], acc[7]));
    _mm512_add_ps(_mm512_add_ps(even, odd), z)
}
