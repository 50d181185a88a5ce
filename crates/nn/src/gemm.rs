//! Cache-blocked, register-tiled `f32` GEMM kernels for the conv hot path.
//!
//! Two variants cover everything the lowered convolution needs:
//!
//! - [`gemm_nn`] — `C += A·B` with both operands row-major (the
//!   input-gradient lowering),
//! - [`gemm_nt`] — `C += A·Bᵀ` (the weight-gradient lowering, where both
//!   operands share the long output-pixel axis),
//!
//! each also with `B` read from a convolution's zero-framed input instead
//! of a written-out patch matrix (`Planes`): `gemm_nn_planes` (the
//! forward) and `gemm_nt_planes` (the weight gradient). Every output
//! element gets the same products and sums in the same order either way.
//!
//! All run on the calling thread, and so does every layer that calls
//! them: parallelism comes from models running at once (`--gpus`, serve's
//! `--batch-workers`), never from splitting one layer across threads.
//! [`gemm_nn_seq`] is `Dense`'s kernel.
//!
//! The kernels are deterministic by construction: every output element is
//! accumulated in a fixed order that does not depend on blocking factors
//! landing mid-row or on the instruction set, so results are bitwise
//! reproducible across machines.
//!
//! Each kernel runs on one [`Isa`] tier, detected once per process: the
//! portable tiles compiled for the baseline target, the same source
//! recompiled for AVX2, or on AVX-512 hosts that source recompiled again
//! plus explicit 16-lane kernels (`gemm/avx512.rs`) — 8×16 `gemm_nn`
//! tiles, and a weight gradient with its outputs along the `c_out` lanes
//! for rows of 16 to 64 pixels. Every tier gives every output the same
//! multiplications and additions in the same order, never a fused
//! multiply-add, so which tier ran cannot show in a bit.

use std::sync::OnceLock;

/// Does nothing: every layer runs on its caller's thread. It exists only
/// because the benchmark harness (`benchmark/src/search.rs`,
/// `benchmark/src/probes.rs`) still calls it; ROADMAP's benchmark-scope
/// item ("the Bus goes") deletes it together with those calls.
pub fn set_thread_budget(_: usize) {}

#[cfg(target_arch = "x86_64")]
mod avx512;

/// The instruction-set tier the kernels run on. The portable kernels are
/// plain scalar loops over fixed-size tiles, so the *same* Rust source is
/// compiled per tier — for the baseline target (SSE2 on x86-64), under
/// `#[target_feature(enable = "avx2")]`, and under
/// `avx2,avx512f,avx512vl` — and [`Isa::Avx512`] adds explicit 16-lane
/// kernels where they pay (`gemm/avx512.rs`). Every tier executes each
/// output's f32 multiplications and additions in the same order
/// (vectorization packs independent accumulator chains into wider lanes
/// without reordering any chain, the explicit kernels issue a separate
/// multiply and add per step, and rustc never contracts `a*b + c` into a
/// fused multiply-add), so results are bitwise identical across tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// AVX-512F with AVX-512VL.
    Avx512,
    /// AVX2.
    Avx2,
    /// The target's baseline.
    Base,
}

impl Isa {
    /// Every tier, widest first.
    const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Base];

    /// The widest tier this host runs, detected once per process: the
    /// tier every kernel dispatches to.
    pub fn host() -> Isa {
        static HOST: OnceLock<Isa> = OnceLock::new();
        *HOST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("avx512f") && has!("avx512vl") {
                    return Isa::Avx512;
                }
                if has!("avx2") {
                    return Isa::Avx2;
                }
            }
            Isa::Base
        })
    }

    /// The tiers this host runs: [`Isa::host`] and every narrower one.
    pub(crate) fn on_host() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().skip_while(|&isa| isa != Isa::host())
    }

    /// `self`, after checking that the host runs it: what every dispatch
    /// matches on, so its `unsafe` calls into a tier's
    /// `#[target_feature]` code are sound for any tier a caller passes.
    fn checked(self) -> Isa {
        assert!(
            Isa::on_host().any(|isa| isa == self),
            "{self:?} kernels do not run on this host ({:?})",
            Isa::host()
        );
        self
    }
}

/// View an exactly-`N`-element slice as a fixed-size array reference so
/// the micro-kernels' bounds checks hoist out of the inner loops.
#[inline(always)]
fn as_chunk<const N: usize>(s: &[f32]) -> &[f32; N] {
    match s.try_into() {
        Ok(arr) => arr,
        Err(_) => unreachable!("callers slice exactly {N} elements, got {}", s.len()),
    }
}

/// The `N` elements of `s` from `start` on, as an array: a fixed-width
/// window at a run-time offset.
#[inline(always)]
pub(crate) fn array_at<T, const N: usize>(s: &[T], start: usize) -> &[T; N] {
    match s[start..].first_chunk() {
        Some(window) => window,
        None => panic!("window {start}..{start}+{N} leaves a slice of {}", s.len()),
    }
}

/// [`array_at`], writable.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn array_at_mut<T, const N: usize>(s: &mut [T], start: usize) -> &mut [T; N] {
    let len = s.len();
    match s[start..].first_chunk_mut() {
        Some(window) => window,
        None => panic!("window {start}..{start}+{N} leaves a slice of {len}"),
    }
}

/// Rows per register tile.
pub(crate) const MR: usize = 4;
/// Columns per register tile (two AVX2 lanes worth of `f32`).
const NR: usize = 16;
/// K-panel depth: a `KC×NR` B panel stays resident in L1.
const KC: usize = 256;
/// Column block: a `KC×NC` B panel stays resident in L2.
const NC: usize = 1024;

/// A GEMM operand read in place from image planes instead of from a
/// row-major matrix: row `p` starts at `starts[p]`, and column `j` is
/// pixel `(j / width, j % width)` of an image whose rows lie `stride`
/// elements apart. A convolution's zero-framed input is its patch matrix
/// in this form — one row per tap, one column per output pixel — without
/// the matrix ever being written out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Planes<'a> {
    /// The image planes.
    pub(crate) data: &'a [f32],
    /// Where each row starts in `data`.
    pub(crate) starts: &'a [usize],
    /// Pixels per image row.
    pub(crate) width: usize,
    /// Distance between image rows in `data`.
    pub(crate) stride: usize,
}

/// Where the elements of a GEMM's right operand lie in its slice:
/// element `(p, j)` at `start(p) + col(j)`.
trait Layout: Copy {
    /// Start of row `p`.
    fn start(self, p: usize) -> usize;
    /// Offset of column `j` from the start of a row.
    fn col(self, j: usize) -> usize;
}

/// A row-major matrix with this many columns.
#[derive(Clone, Copy)]
struct RowMajor(usize);

impl Layout for RowMajor {
    #[inline(always)]
    fn start(self, p: usize) -> usize {
        p * self.0
    }

    #[inline(always)]
    fn col(self, j: usize) -> usize {
        j
    }
}

/// [`Planes`] without the data.
#[derive(Clone, Copy)]
struct Framed<'a> {
    starts: &'a [usize],
    width: usize,
    stride: usize,
}

impl Layout for Framed<'_> {
    #[inline(always)]
    fn start(self, p: usize) -> usize {
        self.starts[p]
    }

    #[inline(always)]
    fn col(self, j: usize) -> usize {
        j / self.width * self.stride + j % self.width
    }
}

/// A strip of `B` gathered into a panel: rows `p0..` and columns
/// `j0..j0 + NR`, `NR` elements a row.
#[derive(Clone, Copy)]
struct Packed {
    p0: usize,
    j0: usize,
}

impl Layout for Packed {
    #[inline(always)]
    fn start(self, p: usize) -> usize {
        (p - self.p0) * NR
    }

    #[inline(always)]
    fn col(self, j: usize) -> usize {
        j - self.j0
    }
}

/// A GEMM's right operand: its elements and where they lie.
#[derive(Clone, Copy)]
struct Operand<'a, L> {
    data: &'a [f32],
    layout: L,
}

impl<'a> Operand<'a, RowMajor> {
    fn row_major(data: &'a [f32], cols: usize) -> Self {
        Operand {
            data,
            layout: RowMajor(cols),
        }
    }
}

impl<'a> From<Planes<'a>> for Operand<'a, Framed<'a>> {
    fn from(p: Planes<'a>) -> Self {
        assert!(
            p.width > 0 && p.width <= p.stride,
            "planes: width {} does not fit stride {}",
            p.width,
            p.stride
        );
        Operand {
            data: p.data,
            layout: Framed {
                starts: p.starts,
                width: p.width,
                stride: p.stride,
            },
        }
    }
}

impl<L: Layout> Operand<'_, L> {
    /// Rows `pb..pb + pw` of the `u`-column strip at `j`, copied into
    /// `panel`, `NR` elements a row.
    #[inline(always)]
    fn gather_strip<'p, const Q: usize>(
        &self,
        pb: usize,
        pw: usize,
        j: usize,
        u: usize,
        panel: &'p mut [f32; KC * NR],
    ) -> Operand<'p, Packed> {
        let rows = (pb..pb + pw).zip(panel.as_chunks_mut::<NR>().0);
        if u == NR {
            let mut runs = [0usize; NR];
            for (q, at) in runs.iter_mut().take(NR / Q).enumerate() {
                *at = self.col(j + q * Q);
            }
            let span = runs[NR / Q - 1] + Q;
            for (p, prow) in rows {
                let strip = &self.data[self.start(p)..][..span];
                for (seg, &at) in prow.as_chunks_mut::<Q>().0.iter_mut().zip(&runs) {
                    *seg = *array_at(strip, at);
                }
            }
        } else {
            let mut cols = [0usize; NR];
            for (jj, at) in cols.iter_mut().take(u).enumerate() {
                *at = self.col(j + jj);
            }
            for (p, prow) in rows {
                let row = &self.data[self.start(p)..];
                for (v, &at) in prow.iter_mut().zip(&cols[..u]) {
                    *v = row[at];
                }
            }
        }
        Operand {
            data: panel,
            layout: Packed { p0: pb, j0: j },
        }
    }

    #[inline(always)]
    fn start(&self, p: usize) -> usize {
        self.layout.start(p)
    }

    #[inline(always)]
    fn col(&self, j: usize) -> usize {
        self.layout.col(j)
    }
}

/// The widest run of columns — at most `max`, and `NR`, [`LANES`], 4 or
/// 1 — that starts at a multiple of itself and never straddles two image
/// rows of `width`.
fn run_width(width: usize, max: usize) -> usize {
    [NR, LANES, 4]
        .into_iter()
        .find(|&q| q <= max && width.is_multiple_of(q))
        .unwrap_or(1)
}

/// `C[m×n] += A[m×k] · B[k×n]`, all row-major, on the calling thread.
/// Dispatches to [`Isa::host`]; every tier runs the identical sequence of
/// f32 operations, so the choice is bitwise invisible.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(b.len(), k * n, "gemm_nn: B shape mismatch");
    gemm_nn_in::<_, NR>(Isa::host(), m, n, k, a, Operand::row_major(b, n), c)
}

/// [`gemm_nn`] with `B` read in place from image planes: every element of
/// `C` gets the products and sums `gemm_nn` gives it on the matrix the
/// planes stand for, in the same order.
pub(crate) fn gemm_nn_planes(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Planes<'_>,
    c: &mut [f32],
) {
    gemm_nn_planes_on(Isa::host(), m, n, k, a, b, c)
}

/// [`gemm_nn_planes`] on the kernels of `isa`.
fn gemm_nn_planes_on(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Planes<'_>,
    c: &mut [f32],
) {
    assert_eq!(b.starts.len(), k, "gemm_nn_planes: B row count mismatch");
    let b = Operand::from(b);
    match run_width(b.layout.width, NR) {
        NR => gemm_nn_in::<_, NR>(isa, m, n, k, a, b, c),
        LANES => gemm_nn_in::<_, LANES>(isa, m, n, k, a, b, c),
        4 => gemm_nn_in::<_, 4>(isa, m, n, k, a, b, c),
        _ => gemm_nn_in::<_, 1>(isa, m, n, k, a, b, c),
    }
}

/// The one body behind [`gemm_nn`] and [`gemm_nn_planes`], on the kernels
/// of `isa`: `B`'s full `NR`-column segments are read as runs of `Q`
/// contiguous columns, in place or, for runs narrower than [`LANES`],
/// from a gathered strip.
fn gemm_nn_in<L: Layout, const Q: usize>(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Operand<'_, L>,
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_nn: A shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nn: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match isa.checked() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            // SAFETY: `checked` asserted that the host runs AVX-512F/VL.
            unsafe { avx512::gemm_nn::<L, Q>(m, n, k, a, b, c) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            // SAFETY: `checked` asserted that the host runs AVX2.
            unsafe { gemm_nn_serial_avx2::<L, Q>(m, n, k, a, b, c) }
        }
        _ => gemm_nn_serial_generic::<L, Q>(m, n, k, a, b, c),
    }
}

/// The generic kernel body recompiled with AVX2 codegen enabled; the
/// `#[inline(always)]` bodies inline here and re-vectorize 8-wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nn_serial_avx2<L: Layout, const Q: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Operand<'_, L>,
    c: &mut [f32],
) {
    gemm_nn_serial_generic::<L, Q>(m, n, k, a, b, c)
}

#[inline(always)]
fn gemm_nn_serial_generic<L: Layout, const Q: usize>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Operand<'_, L>,
    c: &mut [f32],
) {
    // Runs narrower than a vector cost every tile a load and an insert
    // each: those strips are gathered once into a panel the row tiles
    // share.
    let mut panel = [0.0f32; KC * NR];
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
                    let mut ib = 0;
                    while ib < m {
                        let mh = MR.min(m - ib);
                        micro_panel_nn::<Packed, NR>(ib, mh, j, u, pb, pw, n, k, a, strip, c);
                        ib += mh;
                    }
                    j += u;
                }
            } else {
                let mut ib = 0;
                while ib < m {
                    let mh = MR.min(m - ib);
                    micro_panel_nn::<L, Q>(ib, mh, jb, jw, pb, pw, n, k, a, b, c);
                    ib += mh;
                }
            }
            pb += pw;
        }
        jb += jw;
    }
}

/// Register-tiled inner panel: an `mh×jw` tile of C gains the `pw`-deep
/// partial product, walked in `NR`-wide column strips with fixed-size
/// accumulators the compiler keeps in vector registers.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // hot-loop tile coordinates; a struct would obscure the blocking
fn micro_panel_nn<L: Layout, const Q: usize>(
    ib: usize,
    mh: usize,
    jb: usize,
    jw: usize,
    pb: usize,
    pw: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Operand<'_, L>,
    c: &mut [f32],
) {
    let jend = jb + jw;
    let mut j = jb;
    while j < jend {
        let u = NR.min(jend - j);
        if u == NR && mh == MR {
            // Fast path: full MR×NR tile. Each B row segment is read as
            // `NR / Q` array-typed runs at offsets fixed for the strip,
            // so the bounds checks hoist and the inner loops vectorize.
            let mut runs = [0usize; NR];
            for (q, at) in runs.iter_mut().take(NR / Q).enumerate() {
                *at = b.col(j + q * Q);
            }
            // Each row's strip is sliced once: the runs' own bounds checks
            // then compare loop-invariant values and leave the loop.
            let span = runs[NR / Q - 1] + Q;
            let arows: [&[f32]; MR] =
                std::array::from_fn(|r| &a[(ib + r) * k + pb..(ib + r) * k + pb + pw]);
            let mut acc = [[0.0f32; NR]; MR];
            let mut ar = [0.0f32; MR];
            for p in 0..pw {
                let row = b.start(pb + p);
                let strip = &b.data[row..row + span];
                let mut brow = [0.0f32; NR];
                for (seg, &at) in brow.as_chunks_mut::<Q>().0.iter_mut().zip(&runs) {
                    *seg = *array_at(strip, at);
                }
                for (v, arow) in ar.iter_mut().zip(&arows) {
                    *v = arow[p];
                }
                for r in 0..MR {
                    let arp = ar[r];
                    for jj in 0..NR {
                        acc[r][jj] += arp * brow[jj];
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                let crow = &mut c[(ib + r) * n + j..(ib + r) * n + j + NR];
                for jj in 0..NR {
                    crow[jj] += accr[jj];
                }
            }
        } else {
            // Remainder path: ragged tile edges, same accumulation order,
            // B read one element at a time.
            let mut cols = [0usize; NR];
            for (jj, at) in cols.iter_mut().take(u).enumerate() {
                *at = b.col(j + jj);
            }
            let mut acc = [[0.0f32; NR]; MR];
            for p in pb..pb + pw {
                let row = b.start(p);
                for r in 0..mh {
                    let arp = a[(ib + r) * k + p];
                    for jj in 0..u {
                        acc[r][jj] += arp * b.data[row + cols[jj]];
                    }
                }
            }
            for r in 0..mh {
                let crow = &mut c[(ib + r) * n + j..(ib + r) * n + j + u];
                for jj in 0..u {
                    crow[jj] += acc[r][jj];
                }
            }
        }
        j += u;
    }
}

/// `C[m×n] ⟵ seq(C, A·B)`: like [`gemm_nn`] but every output element is
/// accumulated *onto its existing value* in strict ascending-`k` order —
/// `c = (((c + a₀b₀) + a₁b₁) + …)` — instead of summing a zero-seeded
/// register tile into `C` afterwards.
///
/// This reproduces, bit for bit, the rounding of a naive sequential dot
/// product seeded from `C` (the order `Dense`'s reference loops use), while
/// still vectorizing: the serial dependency is per *element*, but the
/// `MR×NR` register tile advances all its elements' chains in lockstep, so
/// the adds run 16-wide across independent outputs.
pub fn gemm_nn_seq(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nn_seq: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_nn_seq: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nn_seq: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    gemm_nn_seq_serial(Isa::host(), m, n, k, a, b, c);
}

/// Single-threaded blocked sequential-accumulation GEMM. Identical
/// blocking to [`gemm_nn`]; only the tile epilogue differs (the
/// accumulator is *loaded from* and *stored to* `C`, so chaining the `KC`
/// panels extends one strict sequential sum per element), on the kernels
/// of `isa`, bitwise-invisible for the same reason as [`gemm_nn`]'s.
fn gemm_nn_seq_serial(isa: Isa, m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    match isa.checked() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            // SAFETY: `checked` asserted that the host runs AVX-512F/VL.
            unsafe { avx512::gemm_nn_seq(m, n, k, a, b, c) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            // SAFETY: `checked` asserted that the host runs AVX2.
            unsafe { gemm_nn_seq_serial_avx2(m, n, k, a, b, c) }
        }
        _ => gemm_nn_seq_serial_generic(m, n, k, a, b, c),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nn_seq_serial_avx2(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    gemm_nn_seq_serial_generic(m, n, k, a, b, c)
}

#[inline(always)]
fn gemm_nn_seq_serial_generic(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut jb = 0;
    while jb < n {
        let jw = NC.min(n - jb);
        let mut pb = 0;
        while pb < k {
            let pw = KC.min(k - pb);
            let mut ib = 0;
            while ib < m {
                let mh = MR.min(m - ib);
                micro_panel_nn_seq(ib, mh, jb, jw, pb, pw, n, k, a, b, c);
                ib += mh;
            }
            pb += pw;
        }
        jb += jw;
    }
}

/// Sequential-accumulation twin of [`micro_panel_nn`]: the register tile
/// starts from the current `C` values and is written back verbatim, so the
/// per-element FP order is `c ⊕ a·b` over ascending `p` with no separate
/// tile-sum rounding step.
#[inline(always)]
#[allow(clippy::too_many_arguments)] // hot-loop tile coordinates; a struct would obscure the blocking
fn micro_panel_nn_seq(
    ib: usize,
    mh: usize,
    jb: usize,
    jw: usize,
    pb: usize,
    pw: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
) {
    let jend = jb + jw;
    let mut j = jb;
    while j < jend {
        let u = NR.min(jend - j);
        if u == NR && mh == MR {
            let mut acc = [[0.0f32; NR]; MR];
            for (r, accr) in acc.iter_mut().enumerate() {
                let crow: &[f32; NR] = as_chunk(&c[(ib + r) * n + j..(ib + r) * n + j + NR]);
                *accr = *crow;
            }
            let mut ar = [0.0f32; MR];
            for p in pb..pb + pw {
                let brow: &[f32; NR] = as_chunk(&b[p * n + j..p * n + j + NR]);
                for (r, v) in ar.iter_mut().enumerate() {
                    *v = a[(ib + r) * k + p];
                }
                for r in 0..MR {
                    let arp = ar[r];
                    for jj in 0..NR {
                        acc[r][jj] += arp * brow[jj];
                    }
                }
            }
            for (r, accr) in acc.iter().enumerate() {
                c[(ib + r) * n + j..(ib + r) * n + j + NR].copy_from_slice(accr);
            }
        } else {
            let mut acc = [[0.0f32; NR]; MR];
            for r in 0..mh {
                let crow = &c[(ib + r) * n + j..(ib + r) * n + j + u];
                acc[r][..u].copy_from_slice(crow);
            }
            for p in pb..pb + pw {
                let brow = &b[p * n + j..p * n + j + u];
                for r in 0..mh {
                    let arp = a[(ib + r) * k + p];
                    for jj in 0..u {
                        acc[r][jj] += arp * brow[jj];
                    }
                }
            }
            for r in 0..mh {
                c[(ib + r) * n + j..(ib + r) * n + j + u].copy_from_slice(&acc[r][..u]);
            }
        }
        j += u;
    }
}

/// `C[m×n] += A[m×k] · Bᵀ` where `B` is `n×k` row-major: every output is
/// a dot product of an A row with a B row. Used for the weight gradient,
/// where the shared axis (output pixels) is long and both operands are
/// row-major along it. Runs on the calling thread, ISA dispatch as in
/// [`gemm_nn`].
pub fn gemm_nt(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(b.len(), n * k, "gemm_nt: B shape mismatch");
    gemm_nt_in(Isa::host(), m, n, k, a, RowMajor(k), b, &mut [], c)
}

/// Scratch [`gemm_nt_planes`] gathers `B` rows of `k` pixels into.
pub(crate) fn nt_panel_len(k: usize) -> usize {
    LANES * k
}

/// [`gemm_nt`] with `B`'s `n` rows of `k` pixels read from image planes:
/// each group of four rows is gathered into `panel` (at least
/// [`nt_panel_len`]`(k)` elements of scratch) and every row of `A` is
/// multiplied by it there.
/// Every element of `C` is the [`dot_lanes`] sum `gemm_nt` gives it on the
/// matrix the planes stand for.
pub(crate) fn gemm_nt_planes(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Planes<'_>,
    panel: &mut [f32],
    c: &mut [f32],
) {
    gemm_nt_planes_on(Isa::host(), m, n, k, a, b, panel, c)
}

/// [`gemm_nt_planes`] on the kernels of `isa`.
#[allow(clippy::too_many_arguments)]
fn gemm_nt_planes_on(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: Planes<'_>,
    panel: &mut [f32],
    c: &mut [f32],
) {
    assert_eq!(b.starts.len(), n, "gemm_nt_planes: B row count mismatch");
    let b = Operand::from(b);
    gemm_nt_in(isa, m, n, k, a, b.layout, b.data, panel, c)
}

/// Rows of [`gemm_nt`]'s `B` as contiguous slices.
trait NtRows: Layout {
    /// Whether the caller passes a panel to gather `B` rows into.
    const PANEL: bool;

    /// Row `j` of `B` as runs: `(start, run, gap)`, runs of `run`
    /// elements `gap` apart from `start` on.
    fn runs(self, j: usize, k: usize) -> (usize, usize, usize);

    /// Rows `j..j + rows` of `B`, `k` elements each: read in place, or
    /// gathered into `panel`.
    fn rows<'a>(
        self,
        data: &'a [f32],
        j: usize,
        rows: usize,
        k: usize,
        panel: &'a mut [f32],
    ) -> &'a [f32];
}

impl NtRows for RowMajor {
    const PANEL: bool = false;

    #[inline(always)]
    fn runs(self, j: usize, k: usize) -> (usize, usize, usize) {
        (j * k, k, k)
    }

    #[inline(always)]
    fn rows<'a>(
        self,
        data: &'a [f32],
        j: usize,
        rows: usize,
        k: usize,
        _: &'a mut [f32],
    ) -> &'a [f32] {
        &data[j * k..(j + rows) * k]
    }
}

impl NtRows for Framed<'_> {
    const PANEL: bool = true;

    #[inline(always)]
    fn runs(self, j: usize, _: usize) -> (usize, usize, usize) {
        (self.starts[j], self.width, self.stride)
    }

    #[inline(always)]
    fn rows<'a>(
        self,
        data: &'a [f32],
        j: usize,
        rows: usize,
        k: usize,
        panel: &'a mut [f32],
    ) -> &'a [f32] {
        let panel = &mut panel[..rows * k];
        let starts = &self.starts[j..j + rows];
        match run_width(self.width, NR) {
            NR => self.gather::<NR>(data, starts, panel),
            LANES => self.gather::<LANES>(data, starts, panel),
            4 => self.gather::<4>(data, starts, panel),
            _ => self.gather::<1>(data, starts, panel),
        }
        panel
    }
}

impl Framed<'_> {
    /// Copy the rows starting at `starts` into `dst`, one after another,
    /// one image row at a time in runs of `Q`.
    #[inline(always)]
    fn gather<const Q: usize>(self, data: &[f32], starts: &[usize], dst: &mut [f32]) {
        let k = dst.len() / starts.len().max(1);
        for (&start, drow) in starts.iter().zip(dst.chunks_exact_mut(k)) {
            for (y, dseg) in drow.chunks_exact_mut(self.width).enumerate() {
                let src = &data[start + y * self.stride..][..self.width];
                for (d, s) in dseg
                    .as_chunks_mut::<Q>()
                    .0
                    .iter_mut()
                    .zip(src.as_chunks::<Q>().0)
                {
                    *d = *s;
                }
            }
        }
    }
}

#[allow(clippy::too_many_arguments)] // B's layout, data and panel travel together to the kernel
fn gemm_nt_in<L: NtRows>(
    isa: Isa,
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    layout: L,
    b: &[f32],
    panel: &mut [f32],
    c: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    match isa.checked() {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => {
            // SAFETY: `checked` asserted that the host runs AVX-512F/VL.
            unsafe { avx512::gemm_nt(m, n, k, a, layout, b, panel, c) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => {
            // SAFETY: `checked` asserted that the host runs AVX2.
            unsafe { gemm_nt_serial_avx2(m, n, k, a, layout, b, panel, c) }
        }
        _ => gemm_nt_serial_generic(m, n, k, a, layout, b, panel, c),
    }
}

/// The AVX2 copy of [`gemm_nt_serial_generic`], except that short,
/// tail-free rows read from image planes go to [`gemm_nt_across`]. Both
/// give every element its [`dot_lanes`] sum, so the choice is bitwise
/// invisible.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_nt_serial_avx2<L: NtRows>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    layout: L,
    b: &[f32],
    panel: &mut [f32],
    c: &mut [f32],
) {
    if L::PANEL && k <= ACROSS_MAX_K && k.is_multiple_of(LANES) {
        return gemm_nt_across(n, k, a, layout, b, panel, c);
    }
    gemm_nt_serial_generic(m, n, k, a, layout, b, panel, c)
}

/// Longest `B` row [`gemm_nt_across`] takes: up to here a 2×4 tile spends
/// more on its eight horizontal reductions than on its products, and
/// beyond it the pixel-major gather costs more than the reductions.
#[cfg(target_arch = "x86_64")]
const ACROSS_MAX_K: usize = 32;

/// [`nt_across`] on AVX2. A function of its own: inlined into the GEMM
/// body, the vectorizer leaves it scalar.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
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

/// [`gemm_nt_serial_generic`] for short rows without a scalar tail: eight
/// `B` rows at a time are gathered pixel-major into `panel`, so each
/// pixel's eight values lie along the vector lanes, and every row of `A`
/// meets them through [`dot_lanes_across`].
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn nt_across<L: NtRows>(
    n: usize,
    k: usize,
    a: &[f32],
    layout: L,
    b: &[f32],
    panel: &mut [f32],
    c: &mut [f32],
) {
    let panel = &mut panel[..LANES * k];
    for j in (0..n).step_by(LANES) {
        let rows = LANES.min(n - j);
        if rows < LANES {
            panel.fill(0.0);
        }
        for s in 0..rows {
            let (start, run, gap) = layout.runs(j + s, k);
            for (t0, src) in (0..k).step_by(run).zip(b[start..].chunks(gap)) {
                for (t, v) in (t0..t0 + run).zip(&src[..run]) {
                    panel[t * LANES + s] = *v;
                }
            }
        }
        let (pixels, _) = panel.as_chunks::<LANES>();
        let (groups, _) = pixels.as_chunks::<LANES>();
        for (arow, crow) in a.chunks_exact(k).zip(c.chunks_exact_mut(n)) {
            let out = dot_lanes_across(arow, groups);
            for (cv, o) in crow[j..j + rows].iter_mut().zip(out) {
                *cv += o;
            }
        }
    }
}

/// Eight [`dot_lanes`] sums at once, `x` against the eight rows laid along
/// the lanes of `groups` (eight pixels a group): accumulator `l` is a
/// vector over the eight outputs summing the products at pixels
/// `≡ l (mod 8)` in ascending order, and [`reduce_lanes`]' tree runs
/// across the accumulators — every output's own sum, with no horizontal
/// reduction. Named accumulators and whole-vector steps keep the
/// vectorizer on the output axis; a loop nest over `[l][s]` is vectorized
/// along the pixels instead, with a transpose per step.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn dot_lanes_across(x: &[f32], groups: &[[[f32; LANES]; LANES]]) -> [f32; LANES] {
    #[inline(always)]
    fn add(a: [f32; LANES], b: [f32; LANES]) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        for s in 0..LANES {
            out[s] = a[s] + b[s];
        }
        out
    }
    #[inline(always)]
    fn mul_add(acc: [f32; LANES], x: f32, y: &[f32; LANES]) -> [f32; LANES] {
        let mut out = [0.0f32; LANES];
        for s in 0..LANES {
            out[s] = acc[s] + x * y[s];
        }
        out
    }
    let (xc, _) = x.as_chunks::<LANES>();
    let z = [0.0f32; LANES];
    let [mut l0, mut l1, mut l2, mut l3, mut l4, mut l5, mut l6, mut l7] = [z; LANES];
    for (xs, ys) in xc.iter().zip(groups) {
        l0 = mul_add(l0, xs[0], &ys[0]);
        l1 = mul_add(l1, xs[1], &ys[1]);
        l2 = mul_add(l2, xs[2], &ys[2]);
        l3 = mul_add(l3, xs[3], &ys[3]);
        l4 = mul_add(l4, xs[4], &ys[4]);
        l5 = mul_add(l5, xs[5], &ys[5]);
        l6 = mul_add(l6, xs[6], &ys[6]);
        l7 = mul_add(l7, xs[7], &ys[7]);
    }
    let even = add(add(l0, l4), add(l2, l6));
    let odd = add(add(l1, l5), add(l3, l7));
    add(add(even, odd), z)
}

/// A rows per [`gemm_nt`] register tile.
const NT_MR: usize = 2;
/// B rows per [`gemm_nt`] register tile.
const NT_NR: usize = 4;
/// Lanes of one [`dot_lanes`] accumulator (one AVX2 register of `f32`).
const LANES: usize = 8;

/// `NT_MR×NT_NR` outputs per tile, [`dot_lanes`] for the ragged right and
/// bottom edges. Every element — tiled or not — is one [`dot_lanes`] sum,
/// so where the tile boundaries fall cannot change a bit of the output.
/// Each group of `NT_NR` B rows is fetched once and met by every pair of
/// A rows.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_nt_serial_generic<L: NtRows>(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    layout: L,
    b: &[f32],
    panel: &mut [f32],
    c: &mut [f32],
) {
    let m_tiled = m - m % NT_MR;
    for j in (0..n).step_by(NT_NR) {
        let rows = NT_NR.min(n - j);
        let quad = layout.rows(b, j, rows, k, panel);
        // A tile with a tail loop in it no longer keeps its accumulators
        // in registers (measured 10× slower): rows with a scalar tail,
        // like a last group of fewer than `NT_NR`, go one `dot_lanes` at a
        // time.
        if rows < NT_NR || !k.is_multiple_of(LANES) {
            for (i, arow) in a.chunks_exact(k).enumerate() {
                for (s, brow) in quad.chunks_exact(k).enumerate() {
                    c[i * n + j + s] += dot_lanes(arow, brow);
                }
            }
            continue;
        }
        let (b0, rest) = quad.split_at(k);
        let (b1, rest) = rest.split_at(k);
        let (b2, b3) = rest.split_at(k);
        for (ablock, cblock) in a[..m_tiled * k]
            .chunks_exact(NT_MR * k)
            .zip(c.chunks_exact_mut(NT_MR * n))
        {
            let (a0, a1) = ablock.split_at(k);
            let tile = dot_lanes_tile([a0, a1], [b0, b1, b2, b3]);
            let (c0, c1) = cblock.split_at_mut(n);
            for (crow, trow) in [&mut c0[j..j + NT_NR], &mut c1[j..j + NT_NR]]
                .into_iter()
                .zip(&tile)
            {
                for (cv, tv) in crow.iter_mut().zip(trow) {
                    *cv += tv;
                }
            }
        }
        for i in m_tiled..m {
            let arow = &a[i * k..(i + 1) * k];
            for (s, brow) in [b0, b1, b2, b3].into_iter().enumerate() {
                c[i * n + j + s] += dot_lanes(arow, brow);
            }
        }
    }
}

/// The fixed reduction of one eight-lane accumulator plus its scalar tail.
#[inline(always)]
fn reduce_lanes(lanes: &[f32; LANES], tail: f32) -> f32 {
    let even = (lanes[0] + lanes[4]) + (lanes[2] + lanes[6]);
    let odd = (lanes[1] + lanes[5]) + (lanes[3] + lanes[7]);
    (even + odd) + tail
}

/// Eight-lane strided dot product: vectorizes despite strict FP ordering
/// because the lane structure is fixed, and stays deterministic because it
/// never depends on slice alignment. Lane `l` sums the
/// products at `k ≡ l (mod 8)` in ascending `k`; the leftover `k mod 8`
/// products form one scalar chain; [`reduce_lanes`] joins them.
#[inline(always)]
fn dot_lanes(x: &[f32], y: &[f32]) -> f32 {
    let mut lanes = [0.0f32; LANES];
    let (xc, xt) = x.as_chunks::<LANES>();
    let (yc, yt) = y.as_chunks::<LANES>();
    for (xs, ys) in xc.iter().zip(yc) {
        for l in 0..LANES {
            lanes[l] += xs[l] * ys[l];
        }
    }
    let mut tail = 0.0f32;
    for (xv, yv) in xt.iter().zip(yt) {
        tail += xv * yv;
    }
    reduce_lanes(&lanes, tail)
}

/// `NT_MR×NT_NR` [`dot_lanes`] results at once for rows whose length is a
/// multiple of [`LANES`]: `out[r][s] = dot_lanes(x[r], y[s])`, bit for
/// bit. Each output keeps its own eight-lane accumulator, advanced in the
/// same order as [`dot_lanes`] advances it; the tile only shares the *loads* — six
/// row chunks feed eight multiply-adds, where eight separate dot products
/// load sixteen — and defers the eight horizontal reductions to the end.
#[inline(always)]
fn dot_lanes_tile(x: [&[f32]; NT_MR], y: [&[f32]; NT_NR]) -> [[f32; NT_NR]; NT_MR] {
    let (x0, _) = x[0].as_chunks::<LANES>();
    let (x1, _) = x[1].as_chunks::<LANES>();
    let (y0, _) = y[0].as_chunks::<LANES>();
    let (y1, _) = y[1].as_chunks::<LANES>();
    let (y2, _) = y[2].as_chunks::<LANES>();
    let (y3, _) = y[3].as_chunks::<LANES>();
    let mut lanes = [[[0.0f32; LANES]; NT_NR]; NT_MR];
    // One zipped walk, not six indexed ones: indexing the chunk slices
    // spills the accumulators to the stack (measured 10× slower).
    for (((((xa, xb), ya), yb), yc), yd) in x0.iter().zip(x1).zip(y0).zip(y1).zip(y2).zip(y3) {
        let (xs, ys) = ([xa, xb], [ya, yb, yc, yd]);
        for r in 0..NT_MR {
            for s in 0..NT_NR {
                for l in 0..LANES {
                    lanes[r][s][l] += xs[r][l] * ys[s][l];
                }
            }
        }
    }
    let mut out = [[0.0f32; NT_NR]; NT_MR];
    for r in 0..NT_MR {
        for s in 0..NT_NR {
            out[r][s] = reduce_lanes(&lanes[r][s], 0.0);
        }
    }
    out
}

/// Row-major transpose: `dst[k×m] = src[m×k]ᵀ`.
///
/// Cache-blocked: walking the full matrix in row order makes every write
/// land a whole row-stride apart (a different cache line and, for large
/// matrices, a different page), so the naive loop is bound by cache-line
/// fills rather than bandwidth. Processing `TB×TB` tiles keeps both the
/// reads and the writes inside a small resident set. Pure data movement —
/// element values are untouched, so this is bitwise-neutral by
/// construction.
pub fn transpose(m: usize, k: usize, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), m * k, "transpose: src shape mismatch");
    assert_eq!(dst.len(), m * k, "transpose: dst shape mismatch");
    const TB: usize = 32;
    let mut ib = 0;
    while ib < m {
        let ih = TB.min(m - ib);
        let mut pb = 0;
        while pb < k {
            let pw = TB.min(k - pb);
            for i in ib..ib + ih {
                for p in pb..pb + pw {
                    dst[p * m + i] = src[i * k + p];
                }
            }
            pb += pw;
        }
        ib += ih;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits;

    fn reference_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0f64; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
                }
            }
        }
        c.into_iter().map(|v| v as f32).collect()
    }

    fn pseudo(len: usize, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect()
    }

    #[test]
    fn gemm_nn_matches_reference_on_awkward_shapes() {
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (4, 16, 8), (5, 17, 9), (13, 33, 70)] {
            let a = pseudo(m * k, 1);
            let b = pseudo(k * n, 2);
            let mut c = vec![0.0f32; m * n];
            gemm_nn(m, n, k, &a, &b, &mut c);
            let want = reference_nn(m, n, k, &a, &b);
            for (got, want) in c.iter().zip(&want) {
                assert!(
                    (got - want).abs() < 1e-4,
                    "{got} vs {want} at ({m},{n},{k})"
                );
            }
        }
    }

    #[test]
    fn gemm_nt_matches_reference() {
        let (m, n, k) = (5, 7, 67);
        let a = pseudo(m * k, 3);
        let bt = pseudo(n * k, 4);
        // Reference computes A·B with B = Bᵀ-of-bt materialized.
        let mut b = vec![0.0f32; k * n];
        transpose(n, k, &bt, &mut b);
        let want = reference_nn(m, n, k, &a, &b);
        let mut c = vec![0.0f32; m * n];
        gemm_nt(m, n, k, &a, &bt, &mut c);
        for (got, want) in c.iter().zip(&want) {
            assert!((got - want).abs() < 1e-4, "{got} vs {want}");
        }
    }

    /// The [`dot_lanes`] contract spelled out one scalar at a time: lane
    /// `l` sums the products at `p ≡ l (mod 8)` in ascending `p`, the
    /// `k mod 8` leftovers form one chain, and a fixed tree joins them.
    fn dot_lanes_oracle(x: &[f32], y: &[f32]) -> f32 {
        let full = x.len() / 8 * 8;
        let mut lanes = [0.0f32; 8];
        for p in 0..full {
            lanes[p % 8] += x[p] * y[p];
        }
        let mut tail = 0.0f32;
        for p in full..x.len() {
            tail += x[p] * y[p];
        }
        let even = (lanes[0] + lanes[4]) + (lanes[2] + lanes[6]);
        let odd = (lanes[1] + lanes[5]) + (lanes[3] + lanes[7]);
        (even + odd) + tail
    }

    fn gemm_nt_oracle(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] += dot_lanes_oracle(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// Shapes on every side of the `NT_MR×NT_NR` tile and the eight-lane
    /// chunk: odd and even row counts, column counts with and without a
    /// ragged edge, depths with and without a scalar tail.
    fn nt_ragged_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        const M: [usize; 5] = [1, 2, 3, 5, 8];
        const N: [usize; 6] = [1, 3, 4, 5, 9, 72];
        const K: [usize; 9] = [1, 4, 7, 8, 9, 16, 17, 64, 256];
        M.into_iter()
            .flat_map(|m| N.into_iter().map(move |n| (m, n)))
            .flat_map(|(m, n)| K.into_iter().map(move |k| (m, n, k)))
    }

    #[test]
    fn gemm_nt_is_bitwise_one_dot_lanes_per_element() {
        for (m, n, k) in nt_ragged_shapes() {
            let a = pseudo(m * k, 31);
            let bt = pseudo(n * k, 32);
            let seed = pseudo(m * n, 33);
            let mut want = seed.clone();
            gemm_nt_oracle(m, n, k, &a, &bt, &mut want);
            let mut got = seed;
            gemm_nt(m, n, k, &a, &bt, &mut got);
            assert_eq!(
                bits(&want),
                bits(&got),
                "tiled gemm_nt left the dot_lanes order at ({m},{n},{k})"
            );
        }
    }

    #[test]
    fn gemm_accumulates_into_existing_c() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 4.0];
        let mut c = [10.0f32];
        gemm_nn(1, 1, 2, &a, &b, &mut c);
        assert_eq!(c[0], 10.0 + 3.0 + 8.0);
    }

    /// Strict per-element sequential reference: `c = ((c + a₀b₀) + a₁b₁)…`
    /// in `f32`, ascending `p` — the order the naive `Dense` loops use.
    fn reference_seq(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = c[i * n + j];
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    #[test]
    fn gemm_nn_seq_is_bitwise_sequential() {
        // Shapes straddle every blocking boundary: k over KC (multi-panel
        // chaining), n over NR, ragged edges everywhere.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 16, 8),
            (5, 17, 300),
            (13, 33, 513),
            (2, 16, 257),
        ] {
            let a = pseudo(m * k, 11);
            let b = pseudo(k * n, 12);
            let seed = pseudo(m * n, 13);
            let mut want = seed.clone();
            reference_seq(m, n, k, &a, &b, &mut want);
            let mut got = seed.clone();
            gemm_nn_seq(m, n, k, &a, &b, &mut got);
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                wb, gb,
                "seq gemm diverged from sequential order at ({m},{n},{k})"
            );
        }
    }

    /// Bit patterns, every NaN as one pattern: which of two NaNs an
    /// addition returns depends on its operand order, which the compiler
    /// may commute. Every other bit, a zero's sign included, is compared.
    fn nan_bits(values: &[f32]) -> Vec<u32> {
        let nan = f32::NAN.to_bits();
        values
            .iter()
            .map(|v| if v.is_nan() { nan } else { v.to_bits() })
            .collect()
    }

    /// What an operand is filled with.
    #[derive(Debug, Clone, Copy)]
    enum Fill {
        /// Values in `[-0.5, 0.5)`.
        Plain,
        /// Those, with a `-0.0`, `+∞`, `-∞` and NaN every 97 elements.
        Special,
        /// `-0.0` throughout: a kernel that seeds an accumulator with its
        /// first product instead of adding it to `0.0` keeps the sign.
        NegZero,
    }

    fn fill(len: usize, seed: u32, how: Fill) -> Vec<f32> {
        let special = |(i, v): (usize, f32)| match i % 97 {
            5 => -0.0,
            20 => f32::INFINITY,
            40 => f32::NEG_INFINITY,
            60 => f32::NAN,
            _ => v,
        };
        match how {
            Fill::Plain => pseudo(len, seed),
            Fill::Special => pseudo(len, seed)
                .into_iter()
                .enumerate()
                .map(special)
                .collect(),
            Fill::NegZero => vec![-0.0; len],
        }
    }

    /// `(A, B, C)` fills every tier is compared under.
    const FILLS: [(Fill, Fill, Fill); 4] = [
        (Fill::Plain, Fill::Plain, Fill::Plain),
        (Fill::Special, Fill::Special, Fill::Plain),
        (Fill::NegZero, Fill::Plain, Fill::NegZero),
        (Fill::Plain, Fill::Special, Fill::NegZero),
    ];

    /// `kernel` on every tier the host runs, from the same `C`, gives what
    /// it gives on [`Isa::Base`], bit for bit.
    fn tiers_agree(what: &str, c: &[f32], kernel: impl Fn(Isa, &mut [f32])) {
        let mut base = c.to_vec();
        kernel(Isa::Base, &mut base);
        for isa in Isa::on_host() {
            let mut got = c.to_vec();
            kernel(isa, &mut got);
            assert_eq!(
                nan_bits(&base),
                nan_bits(&got),
                "{isa:?} left the base kernel at {what}"
            );
        }
    }

    /// Shapes of the 16-lane weight gradient: `c_out` in sixteens, rows of
    /// 16, 32 and 64 pixels, tap counts with and without a ragged block.
    fn nt_lane_shapes() -> impl Iterator<Item = (usize, usize, usize)> {
        [16, 32, 48].into_iter().flat_map(|m| {
            [1, 9, 20]
                .into_iter()
                .flat_map(move |n| [16, 32, 64].into_iter().map(move |k| (m, n, k)))
        })
    }

    #[test]
    fn host_tier_is_detected_once_and_runs_here() {
        assert_eq!(Isa::host(), Isa::host());
        assert_eq!(Isa::on_host().next(), Some(Isa::host()));
        assert_eq!(Isa::on_host().last(), Some(Isa::Base));
        eprintln!("gemm kernels dispatch to {:?}", Isa::host());
    }

    /// Each tier the host runs, called on its own, gives the base tier's
    /// bits on every GEMM shape family: the 8-row tile's edges, panels
    /// deeper than `KC` and wider than `NC`, the ragged `gemm_nt` shapes
    /// and the 16-lane weight-gradient shapes, with `-0.0`, ±∞ and NaN.
    #[test]
    fn every_tier_matches_the_base_kernels() {
        for (fa, fb, fc) in FILLS {
            for (m, n, k) in [
                (1, 1, 1),
                (5, 17, 9),
                (8, 16, 8),
                (13, 37, 301),
                (16, 48, 70),
                (24, 1041, 20),
                (36, 64, 16),
            ] {
                let a = fill(m * k, 21, fa);
                let b = fill(k * n, 22, fb);
                let c = fill(m * n, 23, fc);
                let at = format!("gemm_nn ({m},{n},{k}) {fa:?}/{fb:?}/{fc:?}");
                tiers_agree(&at, &c, |isa, c| {
                    gemm_nn_in::<_, NR>(isa, m, n, k, &a, Operand::row_major(&b, n), c)
                });
                let at = format!("gemm_nn_seq ({m},{n},{k}) {fa:?}/{fb:?}/{fc:?}");
                tiers_agree(&at, &c, |isa, c| {
                    gemm_nn_seq_serial(isa, m, n, k, &a, &b, c)
                });
            }
            for (m, n, k) in nt_ragged_shapes().chain(nt_lane_shapes()) {
                let a = fill(m * k, 24, fa);
                let bt = fill(n * k, 25, fb);
                let c = fill(m * n, 26, fc);
                let at = format!("gemm_nt ({m},{n},{k}) {fa:?}/{fb:?}/{fc:?}");
                tiers_agree(&at, &c, |isa, c| {
                    gemm_nt_in(isa, m, n, k, &a, RowMajor(k), &bt, &mut [], c)
                });
            }
        }
    }

    /// Image planes of `rows × width` pixels, `stride` apart, behind `n`
    /// operand rows starting at scattered offsets, and the row-major
    /// matrix they stand for.
    fn planes_and_matrix(
        n: usize,
        rows: usize,
        width: usize,
        seed: u32,
        how: Fill,
    ) -> (Vec<f32>, Vec<usize>, usize, Vec<f32>) {
        let stride = width + 3;
        let starts: Vec<usize> = (0..n).map(|p| (p * 7) % 5 + p * stride).collect();
        let data = fill(starts[n - 1] + rows * stride, seed, how);
        let matrix = starts
            .iter()
            .flat_map(|&s| (0..rows * width).map(move |j| s + j / width * stride + j % width))
            .map(|at| data[at])
            .collect();
        (data, starts, stride, matrix)
    }

    /// `(width, rows, m, p)` of the planes sweep: every run width (16, 8,
    /// 4 and 1 pixels) under ragged shapes on every side, then the 16-lane
    /// weight gradient's shapes — `c_out` in sixteens over rows of 16, 32
    /// and 64 pixels.
    fn planes_sweep() -> impl Iterator<Item = (usize, usize, usize, usize)> {
        let ragged = [16, 8, 4, 12, 5, 1].into_iter().flat_map(|width| {
            [1, 2, 3].into_iter().flat_map(move |rows| {
                [(1, 1), (4, 9), (5, 7), (8, 72), (3, 13), (16, 9)]
                    .into_iter()
                    .map(move |(m, p)| (width, rows, m, p))
            })
        });
        let lanes = [(4, 4), (16, 1), (8, 4), (4, 8), (8, 8), (16, 4)]
            .into_iter()
            .flat_map(|(width, rows)| {
                [(16, 9), (32, 20), (48, 3)]
                    .into_iter()
                    .map(move |(m, p)| (width, rows, m, p))
            });
        ragged.chain(lanes)
    }

    /// Both planes kernels give what the plain kernels give on the matrix
    /// the planes stand for, bit for bit.
    #[test]
    fn planes_kernels_equal_the_matrix_kernels() {
        for (width, rows, m, p) in planes_sweep() {
            let pixels = rows * width;
            let (data, starts, stride, matrix) = planes_and_matrix(p, rows, width, 41, Fill::Plain);
            let planes = Planes {
                data: &data,
                starts: &starts,
                width,
                stride,
            };
            let a = pseudo(m * p, 42);
            let seed = pseudo(m * pixels, 43);
            let mut want = seed.clone();
            gemm_nn(m, pixels, p, &a, &matrix, &mut want);
            let mut got = seed;
            gemm_nn_planes(m, pixels, p, &a, planes, &mut got);
            assert_eq!(
                bits(&want),
                bits(&got),
                "gemm_nn_planes at width {width}, ({m},{pixels},{p})"
            );

            let g = pseudo(m * pixels, 44);
            let seed = pseudo(m * p, 45);
            let mut want = seed.clone();
            gemm_nt(m, p, pixels, &g, &matrix, &mut want);
            let mut got = seed;
            let mut panel = vec![f32::NAN; nt_panel_len(pixels)];
            gemm_nt_planes(m, p, pixels, &g, planes, &mut panel, &mut got);
            assert_eq!(
                bits(&want),
                bits(&got),
                "gemm_nt_planes at width {width}, ({m},{p},{pixels})"
            );
        }
    }

    /// Each tier the host runs, called on its own, gives the base tier's
    /// bits on the planes sweep, with `-0.0`, ±∞ and NaN.
    #[test]
    fn every_tier_matches_the_base_kernels_on_planes() {
        for (fa, fb, fc) in FILLS {
            for (width, rows, m, p) in planes_sweep() {
                let pixels = rows * width;
                let (data, starts, stride, _) = planes_and_matrix(p, rows, width, 51, fb);
                let planes = Planes {
                    data: &data,
                    starts: &starts,
                    width,
                    stride,
                };
                let at = format!("width {width}, ({m},{pixels},{p}) {fa:?}/{fb:?}/{fc:?}");
                let a = fill(m * p, 52, fa);
                let c = fill(m * pixels, 53, fc);
                tiers_agree(&format!("gemm_nn_planes {at}"), &c, |isa, c| {
                    gemm_nn_planes_on(isa, m, pixels, p, &a, planes, c)
                });
                let g = fill(m * pixels, 54, fa);
                let c = fill(m * p, 55, fc);
                tiers_agree(&format!("gemm_nt_planes {at}"), &c, |isa, c| {
                    let mut panel = vec![f32::NAN; nt_panel_len(pixels)];
                    gemm_nt_planes_on(isa, m, p, pixels, &g, planes, &mut panel, c)
                });
            }
        }
    }

    /// GFLOP/s of each tier on the conv shapes a real search runs — 16×16
    /// images through phases of 8, 16 and 32 channels at 16×16, 8×8 and
    /// 4×4 — one thread, inputs warm in cache:
    /// `cargo test --release -p a4nn-nn --lib kernel_throughput -- --ignored --nocapture`.
    #[test]
    #[ignore = "a timing table, not a check"]
    fn kernel_throughput() {
        use std::hint::black_box;
        use std::time::Instant;
        /// Which lowered GEMM a shape is, with its image width.
        #[derive(Clone, Copy)]
        enum Op {
            /// Forward `W·patches` over framed planes.
            Fwd(usize),
            /// Weight gradient `g·patchesᵀ` over framed planes.
            Wgrad(usize),
            /// Input gradient `Wᵀ·g`, row-major.
            Igrad,
        }
        let shapes = [
            ("fwd 16x16", Op::Fwd(16), 8, 256, 72),
            ("fwd 8x8", Op::Fwd(8), 16, 64, 144),
            ("fwd 4x4", Op::Fwd(4), 32, 16, 288),
            ("wgrad 16x16", Op::Wgrad(16), 8, 72, 256),
            ("wgrad 8x8", Op::Wgrad(8), 16, 144, 64),
            ("wgrad 4x4", Op::Wgrad(4), 32, 288, 16),
            ("igrad 16x16", Op::Igrad, 36, 256, 8),
            ("igrad 8x8", Op::Igrad, 36, 64, 16),
            ("igrad 4x4", Op::Igrad, 252, 16, 32),
        ];
        // The best of five rounds of about 0.2 GFLOP each.
        let time = |flops: usize, run: &mut dyn FnMut()| {
            let reps = (200_000_000 / flops).max(1);
            let best = (0..5)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..reps {
                        run();
                    }
                    t0.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min);
            (flops * reps) as f64 / best / 1e9
        };
        for isa in Isa::on_host() {
            for (what, op, m, n, k) in shapes {
                let flops = 2 * m * n * k;
                let a = pseudo(m * k, 61);
                let mut c = pseudo(m * n, 62);
                let (width, taps, pixels) = match op {
                    Op::Fwd(width) => (width, k, n),
                    Op::Wgrad(width) => (width, n, k),
                    Op::Igrad => (1, 1, 1),
                };
                let (data, starts, stride, b) =
                    planes_and_matrix(taps, pixels / width, width, 63, Fill::Plain);
                let planes = Planes {
                    data: &data,
                    starts: &starts,
                    width,
                    stride,
                };
                let mut panel = vec![0.0; nt_panel_len(pixels)];
                let b = match op {
                    Op::Igrad => pseudo(k * n, 64),
                    _ => b,
                };
                let gflops = time(flops, &mut || match op {
                    Op::Fwd(_) => gemm_nn_planes_on(isa, m, n, k, black_box(&a), planes, &mut c),
                    Op::Wgrad(_) => {
                        gemm_nt_planes_on(isa, m, n, k, black_box(&a), planes, &mut panel, &mut c)
                    }
                    Op::Igrad => gemm_nn_in::<_, NR>(
                        isa,
                        m,
                        n,
                        k,
                        black_box(&a),
                        Operand::row_major(&b, n),
                        &mut c,
                    ),
                });
                eprintln!("{isa:?}\t{what}\t({m},{n},{k})\t{gflops:.1} GFLOP/s");
            }
        }
    }

    #[test]
    fn transpose_round_trips() {
        let src = pseudo(6, 9);
        let mut t = vec![0.0f32; 6];
        transpose(2, 3, &src, &mut t);
        let mut back = vec![0.0f32; 6];
        transpose(3, 2, &t, &mut back);
        assert_eq!(src, back);
    }
}
