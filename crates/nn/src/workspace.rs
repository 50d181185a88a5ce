//! Reusable scratch arena for the training hot path.
//!
//! Every minibatch of the pre-workspace trainer allocated the same set of
//! buffers — batch gather tensor, per-layer activations and gradients,
//! im2col panels, input caches — and freed them again a few microseconds
//! later. A [`Workspace`] turns that churn into pointer swaps: finished
//! tensors hand their backing `Vec<f32>` back to a free list, and the next
//! request of a compatible size takes it over. After the first batch warms
//! the pool, steady-state training performs no heap allocation at all
//! (pinned by the allocation-regression test in
//! `crates/nn/tests/alloc_regression.rs`).
//!
//! # Ownership rules
//!
//! - A buffer is owned by exactly one live tensor *or* the pool, never
//!   both; `take_*` transfers pool → caller, [`give`](Workspace::give) /
//!   [`give4`](Workspace::give4) / [`give2`](Workspace::give2) transfer it
//!   back. Dropping a tensor instead of giving it back is always safe —
//!   the pool just re-allocates later (warmup, not a leak).
//! - The pool never shrinks on its own: once the largest shape of a
//!   training step has passed through, every later request is served
//!   without touching the allocator. Long-running owners with *varied*
//!   request shapes (the inference server) call
//!   [`trim_to`](Workspace::trim_to) at quiet points to bound the parked
//!   bytes; [`pooled_bytes`](Workspace::pooled_bytes) /
//!   [`peak_pooled_bytes`](Workspace::peak_pooled_bytes) make the
//!   high-water mark observable for metrics export.
//! - A `Workspace` is single-threaded by design (`&mut` everywhere).
//!   Parallel code hands plain slices to scoped threads and never shares
//!   the pool across them.
//!
//! # Why determinism survives buffer reuse
//!
//! Reused buffers can carry stale values, so every `take_*` variant states
//! its contract: [`take_zeroed`](Workspace::take_zeroed) (and the zeroed
//! tensor wrappers) clear the buffer for accumulation targets, while
//! [`take_scratch`](Workspace::take_scratch) leaves contents arbitrary and
//! is only used where the consumer provably writes every element before
//! reading it (im2col panels, full-overwrite layer outputs). The FP
//! arithmetic itself never changes — same kernels, same operand order —
//! so outputs are bitwise identical whether a buffer is fresh or reused.

use crate::tensor::{Tensor2, Tensor4};

/// A best-fit free-list pool of `f32` (and label) buffers.
///
/// See the [module docs](self) for the ownership and determinism rules.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Free `f32` buffers; `len` is kept at whatever the last owner used,
    /// capacity is what matters for reuse.
    bufs: Vec<Vec<f32>>,
    /// Free label buffers for batch gathering.
    label_bufs: Vec<Vec<usize>>,
    /// Total number of `f32` buffers ever allocated through this pool
    /// (diagnostic: stops growing once the pool is warm).
    allocations: usize,
    /// Bytes currently parked in the pool (both buffer kinds), maintained
    /// incrementally so the hot path never rescans the free lists.
    pooled_bytes: usize,
    /// High-water mark of `pooled_bytes` over the pool's lifetime;
    /// unaffected by [`trim_to`](Workspace::trim_to).
    peak_pooled_bytes: usize,
}

impl Clone for Workspace {
    /// Cloning a workspace yields a fresh, empty pool: scratch contents
    /// are never part of logical state, and sharing capacity between
    /// clones would alias buffers.
    fn clone(&self) -> Self {
        Workspace::default()
    }
}

impl Workspace {
    /// New empty pool.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Number of buffer allocations this pool has performed. Constant at
    /// steady state; the allocation-regression test asserts it.
    #[inline]
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Number of buffers currently parked in the pool.
    #[inline]
    pub fn free_buffers(&self) -> usize {
        self.bufs.len()
    }

    /// Bytes currently parked in the pool across both buffer kinds.
    /// Buffers checked out to live tensors are *not* counted — this is
    /// idle capacity, the quantity [`trim_to`](Workspace::trim_to) bounds.
    #[inline]
    pub fn pooled_bytes(&self) -> usize {
        self.pooled_bytes
    }

    /// Lifetime high-water mark of [`pooled_bytes`](Workspace::pooled_bytes).
    /// Trimming does not reset it, so a metrics exporter sees the true
    /// peak even when the pool is kept bounded.
    #[inline]
    pub fn peak_pooled_bytes(&self) -> usize {
        self.peak_pooled_bytes
    }

    /// Drop parked buffers, smallest first, until at most `max_bytes`
    /// remain pooled; returns the bytes released. Smallest-first keeps the
    /// large warm buffers that best-fit can truncate down to any future
    /// request, so a trim costs re-warming only the low end of the size
    /// distribution. Checked-out buffers are untouched.
    pub fn trim_to(&mut self, max_bytes: usize) -> usize {
        let before = self.pooled_bytes;
        while self.pooled_bytes > max_bytes {
            let smallest_f32 = self
                .bufs
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, b)| (i, b.capacity() * std::mem::size_of::<f32>()));
            let smallest_label = self
                .label_bufs
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, b)| (i, b.capacity() * std::mem::size_of::<usize>()));
            match (smallest_f32, smallest_label) {
                (Some((fi, fb)), Some((_, lb))) if fb <= lb => {
                    self.bufs.swap_remove(fi);
                    self.pooled_bytes -= fb;
                }
                (_, Some((li, lb))) => {
                    self.label_bufs.swap_remove(li);
                    self.pooled_bytes -= lb;
                }
                (Some((fi, fb)), None) => {
                    self.bufs.swap_remove(fi);
                    self.pooled_bytes -= fb;
                }
                (None, None) => break,
            }
        }
        before - self.pooled_bytes
    }

    /// Take a buffer of exactly `len` elements with **arbitrary contents**
    /// (stale values from a previous owner). Only for consumers that write
    /// every element before reading it.
    pub fn take_scratch(&mut self, len: usize) -> Vec<f32> {
        match self.best_fit(len) {
            Some(mut v) => {
                if v.len() > len {
                    v.truncate(len);
                } else {
                    v.resize(len, 0.0);
                }
                v
            }
            None => {
                self.allocations += 1;
                vec![0.0; len]
            }
        }
    }

    /// Take a zero-filled buffer of `len` elements (for accumulation
    /// targets).
    pub fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.take_scratch(len);
        v.fill(0.0);
        v
    }

    /// Take a buffer initialized as a copy of `src`.
    pub fn take_copy(&mut self, src: &[f32]) -> Vec<f32> {
        let mut v = self.take_scratch(src.len());
        v.copy_from_slice(src);
        v
    }

    /// Return a buffer to the pool. Zero-capacity buffers are dropped —
    /// they are placeholder `Vec`s, not real storage.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.pooled_bytes += buf.capacity() * std::mem::size_of::<f32>();
            self.peak_pooled_bytes = self.peak_pooled_bytes.max(self.pooled_bytes);
            self.bufs.push(buf);
        }
    }

    /// Best-fit lookup: the smallest pooled buffer whose capacity covers
    /// `len`. Linear scan — the pool holds a few dozen buffers at most.
    fn best_fit(&mut self, len: usize) -> Option<Vec<f32>> {
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.bufs.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, bc)| cap < bc) {
                best = Some((i, cap));
            }
        }
        best.map(|(i, cap)| {
            self.pooled_bytes -= cap * std::mem::size_of::<f32>();
            self.bufs.swap_remove(i)
        })
    }

    // --- Tensor wrappers ---------------------------------------------------

    /// Take a 4-D tensor with arbitrary contents (full-overwrite outputs).
    #[inline]
    pub fn t4_scratch(&mut self, n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
        Tensor4::from_vec(n, c, h, w, self.take_scratch(n * c * h * w))
    }

    /// Take a zero-filled 4-D tensor (accumulation targets).
    #[inline]
    pub fn t4_zeroed(&mut self, n: usize, c: usize, h: usize, w: usize) -> Tensor4 {
        Tensor4::from_vec(n, c, h, w, self.take_zeroed(n * c * h * w))
    }

    /// Take a 4-D tensor copying `src` (input caches).
    #[inline]
    pub fn t4_copy(&mut self, src: &Tensor4) -> Tensor4 {
        let (n, c, h, w) = src.shape();
        Tensor4::from_vec(n, c, h, w, self.take_copy(src.data()))
    }

    /// Return a 4-D tensor's storage to the pool.
    #[inline]
    pub fn give4(&mut self, t: Tensor4) {
        self.give(t.into_data());
    }

    /// Take a 2-D matrix with arbitrary contents (full-overwrite outputs).
    #[inline]
    pub fn t2_scratch(&mut self, rows: usize, cols: usize) -> Tensor2 {
        Tensor2::from_vec(rows, cols, self.take_scratch(rows * cols))
    }

    /// Take a zero-filled 2-D matrix (accumulation targets).
    #[inline]
    pub fn t2_zeroed(&mut self, rows: usize, cols: usize) -> Tensor2 {
        Tensor2::from_vec(rows, cols, self.take_zeroed(rows * cols))
    }

    /// Take a 2-D matrix copying `src` (input caches).
    #[inline]
    pub fn t2_copy(&mut self, src: &Tensor2) -> Tensor2 {
        Tensor2::from_vec(src.rows, src.cols, self.take_copy(src.data()))
    }

    /// Return a matrix's storage to the pool.
    #[inline]
    pub fn give2(&mut self, t: Tensor2) {
        self.give(t.into_data());
    }

    // --- Label buffers -----------------------------------------------------

    /// Take a cleared label buffer (contents empty, capacity reused).
    pub fn take_labels(&mut self) -> Vec<usize> {
        let mut v = self.label_bufs.pop().unwrap_or_default();
        self.pooled_bytes -= v.capacity() * std::mem::size_of::<usize>();
        v.clear();
        v
    }

    /// Return a label buffer to the pool.
    pub fn give_labels(&mut self, buf: Vec<usize>) {
        if buf.capacity() > 0 {
            self.pooled_bytes += buf.capacity() * std::mem::size_of::<usize>();
            self.peak_pooled_bytes = self.peak_pooled_bytes.max(self.pooled_bytes);
            self.label_bufs.push(buf);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_give_reuses_storage() {
        let mut ws = Workspace::new();
        let a = ws.take_zeroed(64);
        let ptr = a.as_ptr();
        ws.give(a);
        let b = ws.take_zeroed(64);
        assert_eq!(b.as_ptr(), ptr, "same buffer must come back");
        assert_eq!(ws.allocations(), 1);
    }

    #[test]
    fn best_fit_prefers_smallest_sufficient() {
        let mut ws = Workspace::new();
        let small = ws.take_zeroed(16);
        let big = ws.take_zeroed(1024);
        let (sp, bp) = (small.as_ptr(), big.as_ptr());
        ws.give(big);
        ws.give(small);
        let got = ws.take_zeroed(10);
        assert_eq!(got.as_ptr(), sp, "16-cap buffer fits 10 better than 1024");
        let got_big = ws.take_zeroed(1000);
        assert_eq!(got_big.as_ptr(), bp);
    }

    #[test]
    fn zeroed_clears_stale_contents() {
        let mut ws = Workspace::new();
        let mut a = ws.take_zeroed(8);
        a.fill(7.0);
        ws.give(a);
        let b = ws.take_zeroed(4);
        assert!(b.iter().all(|&v| v == 0.0));
        let c = ws.take_copy(&[1.0, 2.0]);
        assert_eq!(c, vec![1.0, 2.0]);
    }

    #[test]
    fn tensor_round_trip_preserves_shape_discipline() {
        let mut ws = Workspace::new();
        let t = ws.t4_zeroed(2, 3, 4, 5);
        assert_eq!(t.shape(), (2, 3, 4, 5));
        ws.give4(t);
        let m = ws.t2_copy(&Tensor2::from_vec(1, 2, vec![3.0, 4.0]));
        assert_eq!(m.row(0), &[3.0, 4.0]);
        ws.give2(m);
        // The matrix reused the (truncated) 4-D buffer, so only one
        // buffer is parked.
        assert_eq!(ws.free_buffers(), 1);
        assert_eq!(ws.allocations(), 1);
    }

    #[test]
    fn steady_state_allocates_nothing() {
        let mut ws = Workspace::new();
        // Warm up with the exact sizes of the "step".
        for _ in 0..3 {
            let a = ws.take_zeroed(100);
            let b = ws.take_scratch(40);
            let c = ws.t4_zeroed(1, 2, 3, 4);
            ws.give(a);
            ws.give(b);
            ws.give4(c);
        }
        // Three live buffers in flight at once → three allocations on the
        // first pass, none afterwards.
        assert_eq!(ws.allocations(), 3, "warm pool must stop allocating");
    }

    #[test]
    fn empty_placeholders_are_not_pooled() {
        let mut ws = Workspace::new();
        ws.give(Vec::new());
        assert_eq!(ws.free_buffers(), 0);
    }

    #[test]
    fn label_buffers_recycle() {
        let mut ws = Workspace::new();
        let mut l = ws.take_labels();
        l.extend_from_slice(&[1, 2, 3]);
        let cap = l.capacity();
        ws.give_labels(l);
        let l2 = ws.take_labels();
        assert!(l2.is_empty());
        assert_eq!(l2.capacity(), cap);
    }

    #[test]
    fn pooled_bytes_tracks_parked_capacity_and_peak() {
        let mut ws = Workspace::new();
        assert_eq!(ws.pooled_bytes(), 0);
        let a = ws.take_zeroed(100); // 400 bytes
        let b = ws.take_zeroed(50); // 200 bytes
        ws.give(a);
        assert_eq!(ws.pooled_bytes(), 400);
        ws.give(b);
        assert_eq!(ws.pooled_bytes(), 600);
        assert_eq!(ws.peak_pooled_bytes(), 600);

        // Checking a buffer back out reduces pooled, not peak.
        let c = ws.take_scratch(60); // takes the 100-cap buffer (best fit)
        assert_eq!(ws.pooled_bytes(), 200);
        assert_eq!(ws.peak_pooled_bytes(), 600);
        ws.give(c);

        // Label buffers count at usize width.
        let mut l = ws.take_labels();
        l.reserve_exact(8);
        let lbytes = l.capacity() * std::mem::size_of::<usize>();
        ws.give_labels(l);
        assert_eq!(ws.pooled_bytes(), 600 + lbytes);
        let _ = ws.take_labels();
        assert_eq!(ws.pooled_bytes(), 600);
    }

    #[test]
    fn trim_drops_smallest_first_and_preserves_peak() {
        let mut ws = Workspace::new();
        let small = ws.take_zeroed(25); // 100 bytes
        let mid = ws.take_zeroed(100); // 400 bytes
        let big = ws.take_zeroed(250); // 1000 bytes
        let big_ptr = big.as_ptr();
        ws.give(small);
        ws.give(mid);
        ws.give(big);
        assert_eq!(ws.pooled_bytes(), 1500);

        // Trimming to 1400 must shed the 100-byte buffer only.
        assert_eq!(ws.trim_to(1400), 100);
        assert_eq!(ws.pooled_bytes(), 1400);
        // Then to 1000: the 400-byte buffer goes, the big one survives.
        assert_eq!(ws.trim_to(1000), 400);
        assert_eq!(ws.free_buffers(), 1);
        let survivor = ws.take_scratch(250);
        assert_eq!(survivor.as_ptr(), big_ptr, "largest buffer must survive");
        ws.give(survivor);

        // Peak is a lifetime high-water mark, untouched by trims.
        assert_eq!(ws.peak_pooled_bytes(), 1500);
        // Trim to zero empties the pool; further trims are no-ops.
        assert_eq!(ws.trim_to(0), 1000);
        assert_eq!(ws.pooled_bytes(), 0);
        assert_eq!(ws.trim_to(0), 0);
    }

    #[test]
    fn steady_state_with_trim_stays_bounded_and_allocation_free() {
        // The serving pattern: a fixed working set of shapes, a trim after
        // every "batch". Once warm, allocations stop AND the pool never
        // exceeds the cap.
        let mut ws = Workspace::new();
        let cap = 8 * 1024;
        let mut warm_allocs = 0;
        for round in 0..10 {
            let x = ws.t4_scratch(4, 1, 8, 8);
            let y = ws.t2_scratch(4, 3);
            ws.give4(x);
            ws.give2(y);
            ws.trim_to(cap);
            assert!(ws.pooled_bytes() <= cap, "round {round} exceeded cap");
            if round == 0 {
                warm_allocs = ws.allocations();
            }
        }
        assert_eq!(
            ws.allocations(),
            warm_allocs,
            "trim above the working set must not force re-allocation"
        );
    }

    #[test]
    fn clone_is_fresh_and_empty() {
        let mut ws = Workspace::new();
        let a = ws.take_zeroed(8);
        ws.give(a);
        let c = ws.clone();
        assert_eq!(c.free_buffers(), 0);
        assert_eq!(c.allocations(), 0);
    }
}
