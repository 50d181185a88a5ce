//! Cache-blocked, register-tiled `f32` GEMM kernels for the conv hot path.
//!
//! Two variants cover everything the im2col-lowered convolution needs:
//!
//! - [`gemm_nn`] — `C += A·B` with both operands row-major (forward and
//!   the input-gradient lowering),
//! - [`gemm_nt`] — `C += A·Bᵀ` (the weight-gradient lowering, where both
//!   operands share the long output-pixel axis).
//!
//! Both run on the calling thread: a convolution already splits its batch
//! over samples, one GEMM per sample. [`gemm_nn_seq`], `Dense`'s and
//! XPSI's kernel, is the one that splits the *rows* of `C` onto scoped
//! threads — each element is still produced by exactly one thread.
//!
//! The kernels are deterministic by construction: every output element is
//! accumulated in a fixed order that does not depend on blocking factors
//! landing mid-row or on how many threads run, so results are bitwise
//! reproducible across machines and thread budgets.
//!
//! The thread budget is a process-wide knob ([`set_thread_budget`]) that
//! whoever owns the process's workers sets from their count — `a4nn
//! search` from `--gpus`, `a4nn serve` from `--batch-workers`, both as
//! `cores / workers` — so intra-op threads and inter-model workers share
//! the machine instead of oversubscribing it. Left at `0` it means every
//! core, and the host is asked how many that is once per process
//! ([`host_parallelism`]): the lookup is a syscall plus cgroup file
//! reads, 11–13 µs on the benchmark host — more than a 16×16 conv layer
//! takes per image.
//!
//! Whether a layer *uses* its budget is [`threads_for`]'s decision: a
//! scoped spawn and join costs tens of microseconds, so an op opens a
//! scope only when every thread gets at least `MIN_MACS_PER_THREAD`
//! multiply-adds. [`gemm_nn_seq`] is mechanism — it splits as many ways as
//! the caller asks, capped by the budget and the row count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide intra-op thread budget; `0` means "auto" (all cores).
static THREAD_BUDGET: AtomicUsize = AtomicUsize::new(0);

/// Work below which a thread is not worth spawning: about the GEMM a
/// core finishes in the time one scoped spawn and join takes.
const MIN_MACS_PER_THREAD: usize = 1 << 20;

/// Set the intra-op thread budget. `0` restores auto (all available
/// cores). Search and serve both call this with `cores / workers` so
/// concurrent trainings or batch workers don't oversubscribe the machine.
pub fn set_thread_budget(n: usize) {
    THREAD_BUDGET.store(n, Ordering::Relaxed);
}

/// The raw configured budget (`0` = auto).
pub fn thread_budget() -> usize {
    THREAD_BUDGET.load(Ordering::Relaxed)
}

/// Cores available to this process, asked of the OS once and cached.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Budget resolved against the host and the amount of splittable work:
/// at least 1, at most `work` and at most the configured budget.
pub fn resolved_threads(work: usize) -> usize {
    let budget = match thread_budget() {
        0 => host_parallelism(),
        n => n,
    };
    budget.min(work).max(1)
}

/// Threads worth opening a scope for, given `items` independent units of
/// `macs_per_item` multiply-adds each: [`resolved_threads`] further capped
/// so that every thread gets at least `MIN_MACS_PER_THREAD` of work.
/// Every site that decides whether an op splits asks this; the answer
/// never changes a result, only who computes it.
pub fn threads_for(items: usize, macs_per_item: usize) -> usize {
    let paid_for = items.saturating_mul(macs_per_item) / MIN_MACS_PER_THREAD;
    resolved_threads(items.min(paid_for))
}

/// Threads [`gemm_nn_seq`] splits its `rows` over: what the caller asked
/// for, capped by the budget and the row count. A serial ask is answered
/// before anything is read.
fn split_over(threads: usize, rows: usize) -> usize {
    if threads <= 1 {
        1
    } else {
        threads.min(resolved_threads(rows))
    }
}

/// Cached runtime AVX2 detection. The kernels are written as plain
/// scalar loops over fixed-size tiles, so the *same* Rust source is
/// compiled twice — once for the baseline target (SSE2 on x86-64) and
/// once under `#[target_feature(enable = "avx2")]` — and the fastest
/// available copy is picked per call. Both copies execute the identical
/// sequence of f32 additions and multiplications (vectorization packs
/// independent accumulator chains into wider lanes without reordering
/// any chain, and rustc never contracts `a*b + c` into a fused
/// multiply-add), so results are bitwise identical across ISAs.
#[cfg(target_arch = "x86_64")]
fn avx2_available() -> bool {
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::arch::is_x86_feature_detected!("avx2"))
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

/// Rows per register tile.
const MR: usize = 4;
/// Columns per register tile (two AVX2 lanes worth of `f32`).
const NR: usize = 16;
/// K-panel depth: a `KC×NR` B panel stays resident in L1.
const KC: usize = 256;
/// Column block: a `KC×NC` B panel stays resident in L2.
const NC: usize = 1024;

/// `C[m×n] += A[m×k] · B[k×n]`, all row-major, on the calling thread.
/// Dispatches to the widest ISA the host supports; both compilations run
/// the identical sequence of f32 operations, so the choice is bitwise
/// invisible.
pub fn gemm_nn(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), m * k, "gemm_nn: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_nn: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nn: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was verified at runtime above.
        unsafe { gemm_nn_serial_avx2(m, n, k, a, b, c) };
        return;
    }
    gemm_nn_serial_generic(m, n, k, a, b, c)
}

/// The generic kernel body recompiled with AVX2 codegen enabled; the
/// `#[inline(always)]` bodies inline here and re-vectorize 8-wide.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nn_serial_avx2(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nn_serial_generic(m, n, k, a, b, c)
}

#[inline(always)]
fn gemm_nn_serial_generic(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut jb = 0;
    while jb < n {
        let jw = NC.min(n - jb);
        let mut pb = 0;
        while pb < k {
            let pw = KC.min(k - pb);
            let mut ib = 0;
            while ib < m {
                let mh = MR.min(m - ib);
                micro_panel_nn(ib, mh, jb, jw, pb, pw, n, k, a, b, c);
                ib += mh;
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
fn micro_panel_nn(
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
            // Fast path: full MR×NR tile with array-typed slices so the
            // bounds checks hoist and the inner loops vectorize.
            let mut acc = [[0.0f32; NR]; MR];
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
                let crow = &mut c[(ib + r) * n + j..(ib + r) * n + j + NR];
                for jj in 0..NR {
                    crow[jj] += accr[jj];
                }
            }
        } else {
            // Remainder path: ragged tile edges, same accumulation order.
            let mut acc = [[0.0f32; NR]; MR];
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
/// the adds run 16-wide across independent outputs. Thread parallelism
/// splits the rows of `C` exactly like [`gemm_nn`], so results are
/// identical for any thread budget.
pub fn gemm_nn_seq(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    threads: usize,
) {
    assert_eq!(a.len(), m * k, "gemm_nn_seq: A shape mismatch");
    assert_eq!(b.len(), k * n, "gemm_nn_seq: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nn_seq: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let t = split_over(threads, m);
    if t <= 1 {
        gemm_nn_seq_serial(m, n, k, a, b, c);
        return;
    }
    let rows_per = m.div_ceil(t);
    std::thread::scope(|s| {
        for (ti, c_chunk) in c.chunks_mut(rows_per * n).enumerate() {
            let mh = c_chunk.len() / n;
            let a_chunk = &a[ti * rows_per * k..ti * rows_per * k + mh * k];
            s.spawn(move || gemm_nn_seq_serial(mh, n, k, a_chunk, b, c_chunk));
        }
    });
}

/// Single-threaded blocked sequential-accumulation GEMM. Identical
/// blocking to [`gemm_nn`]; only the tile epilogue differs (the
/// accumulator is *loaded from* and *stored to* `C`, so chaining the `KC`
/// panels extends one strict sequential sum per element). ISA dispatch
/// mirrors [`gemm_nn`] and is bitwise-invisible for the same
/// reason.
fn gemm_nn_seq_serial(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was verified at runtime above.
        unsafe { gemm_nn_seq_serial_avx2(m, n, k, a, b, c) };
        return;
    }
    gemm_nn_seq_serial_generic(m, n, k, a, b, c)
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
    assert_eq!(a.len(), m * k, "gemm_nt: A shape mismatch");
    assert_eq!(b.len(), n * k, "gemm_nt: B shape mismatch");
    assert_eq!(c.len(), m * n, "gemm_nt: C shape mismatch");
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if avx2_available() {
        // SAFETY: AVX2 presence was verified at runtime above.
        unsafe { gemm_nt_serial_avx2(m, n, k, a, b, c) };
        return;
    }
    gemm_nt_serial_generic(m, n, k, a, b, c)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nt_serial_avx2(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    gemm_nt_serial_generic(m, n, k, a, b, c)
}

/// A rows per [`gemm_nt`] register tile.
const NT_MR: usize = 2;
/// B rows per [`gemm_nt`] register tile.
const NT_NR: usize = 4;
/// Lanes of one [`dot_lanes`] accumulator (one AVX2 register of `f32`).
const LANES: usize = 8;

/// `NT_MR×NT_NR` outputs per tile, [`dot_lanes`] for the ragged right and
/// bottom edges. Every element — tiled or not — is one [`dot_lanes`] sum,
/// so where the tile boundaries fall (and therefore how the rows of `C`
/// were split over threads) cannot change a bit of the output.
#[inline(always)]
fn gemm_nt_serial_generic(m: usize, n: usize, k: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let m_tiled = m - m % NT_MR;
    let n_tiled = n - n % NT_NR;
    for (ablock, cblock) in a[..m_tiled * k]
        .chunks_exact(NT_MR * k)
        .zip(c[..m_tiled * n].chunks_exact_mut(NT_MR * n))
    {
        let (a0, a1) = ablock.split_at(k);
        let (c0, c1) = cblock.split_at_mut(n);
        for (j, bblock) in b[..n_tiled * k].chunks_exact(NT_NR * k).enumerate() {
            let (b0, rest) = bblock.split_at(k);
            let (b1, rest) = rest.split_at(k);
            let (b2, b3) = rest.split_at(k);
            let tile = dot_lanes_tile([a0, a1], [b0, b1, b2, b3]);
            for (crow, trow) in [&mut *c0, &mut *c1].into_iter().zip(&tile) {
                for (cv, tv) in crow[j * NT_NR..(j + 1) * NT_NR].iter_mut().zip(trow) {
                    *cv += tv;
                }
            }
        }
        for j in n_tiled..n {
            let brow = &b[j * k..(j + 1) * k];
            c0[j] += dot_lanes(a0, brow);
            c1[j] += dot_lanes(a1, brow);
        }
    }
    for i in m_tiled..m {
        let arow = &a[i * k..(i + 1) * k];
        let crow = &mut c[i * n..(i + 1) * n];
        for (j, cv) in crow.iter_mut().enumerate() {
            *cv += dot_lanes(arow, &b[j * k..(j + 1) * k]);
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
/// never depends on thread count or slice alignment. Lane `l` sums the
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

/// `NT_MR×NT_NR` [`dot_lanes`] results at once: `out[r][s] =
/// dot_lanes(x[r], y[s])`, bit for bit. Each output keeps its own
/// eight-lane accumulator and its own tail, advanced in the same order as
/// [`dot_lanes`] advances them; the tile only shares the *loads* — six
/// row chunks feed eight multiply-adds, where eight separate dot products
/// load sixteen — and defers the eight horizontal reductions to the end.
#[inline(always)]
fn dot_lanes_tile(x: [&[f32]; NT_MR], y: [&[f32]; NT_NR]) -> [[f32; NT_NR]; NT_MR] {
    let (x0, xt0) = x[0].as_chunks::<LANES>();
    let (x1, xt1) = x[1].as_chunks::<LANES>();
    let (y0, yt0) = y[0].as_chunks::<LANES>();
    let (y1, yt1) = y[1].as_chunks::<LANES>();
    let (y2, yt2) = y[2].as_chunks::<LANES>();
    let (y3, yt3) = y[3].as_chunks::<LANES>();
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
    let (xt, yt) = ([xt0, xt1], [yt0, yt1, yt2, yt3]);
    let mut out = [[0.0f32; NT_NR]; NT_MR];
    for r in 0..NT_MR {
        for s in 0..NT_NR {
            let mut tail = 0.0f32;
            for (xv, yv) in xt[r].iter().zip(yt[s]) {
                tail += xv * yv;
            }
            out[r][s] = reduce_lanes(&lanes[r][s], tail);
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
            gemm_nn_seq(m, n, k, &a, &b, &mut got, 1);
            let wb: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
            let gb: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                wb, gb,
                "seq gemm diverged from sequential order at ({m},{n},{k})"
            );
        }
    }

    #[test]
    fn gemm_nn_seq_thread_count_invariant() {
        let (m, n, k) = (37, 29, 301);
        let a = pseudo(m * k, 14);
        let b = pseudo(k * n, 15);
        let seed = pseudo(m * n, 16);
        let mut serial = seed.clone();
        gemm_nn_seq_serial(m, n, k, &a, &b, &mut serial);
        for threads in [2, 3, 4, 8] {
            let mut par = seed.clone();
            gemm_nn_seq(m, n, k, &a, &b, &mut par, threads);
            assert_eq!(serial, par, "thread count {threads} changed the result");
        }
    }

    /// On AVX2 hosts the dispatchers take the wide path; it must be
    /// bitwise indistinguishable from the baseline-ISA compilation of
    /// the same source. (On non-AVX2 hosts both sides are the generic
    /// kernel and the test is trivially true.)
    #[test]
    fn isa_dispatch_is_bitwise_invisible() {
        let (m, n, k) = (13, 37, 301);
        let a = pseudo(m * k, 21);
        let b = pseudo(k * n, 22);
        let seed = pseudo(m * n, 23);

        let mut dispatched = seed.clone();
        gemm_nn(m, n, k, &a, &b, &mut dispatched);
        let mut generic = seed.clone();
        gemm_nn_serial_generic(m, n, k, &a, &b, &mut generic);
        assert_eq!(dispatched, generic, "gemm_nn ISA paths diverged");

        let mut dispatched = seed.clone();
        gemm_nn_seq_serial(m, n, k, &a, &b, &mut dispatched);
        let mut generic = seed;
        gemm_nn_seq_serial_generic(m, n, k, &a, &b, &mut generic);
        assert_eq!(dispatched, generic, "gemm_nn_seq ISA paths diverged");

        let bt = {
            let mut t = vec![0.0f32; k * n];
            transpose(k, n, &b, &mut t);
            t
        };
        let mut dispatched = vec![0.0f32; m * n];
        gemm_nt(m, n, k, &a, &bt, &mut dispatched);
        let mut generic = vec![0.0f32; m * n];
        gemm_nt_serial_generic(m, n, k, &a, &bt, &mut generic);
        assert_eq!(dispatched, generic, "gemm_nt ISA paths diverged");
        for (m, n, k) in nt_ragged_shapes() {
            let a = pseudo(m * k, 24);
            let bt = pseudo(n * k, 25);
            let mut dispatched = vec![0.0f32; m * n];
            gemm_nt(m, n, k, &a, &bt, &mut dispatched);
            let mut generic = vec![0.0f32; m * n];
            gemm_nt_serial_generic(m, n, k, &a, &bt, &mut generic);
            assert_eq!(
                bits(&dispatched),
                bits(&generic),
                "gemm_nt ISA paths diverged at ({m},{n},{k})"
            );
        }
    }

    #[test]
    fn thread_budget_round_trips() {
        let prev = thread_budget();
        set_thread_budget(3);
        assert_eq!(thread_budget(), 3);
        assert_eq!(resolved_threads(100), 3);
        assert_eq!(resolved_threads(2), 2);
        set_thread_budget(0);
        assert!(resolved_threads(1) == 1);
        set_thread_budget(prev);
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
