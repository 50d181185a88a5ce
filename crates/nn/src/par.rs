//! The workspace's one data-parallel helper: an order-preserving map
//! over an index range on scoped threads. Jobs (whole trainers) run on
//! `a4nn_sched::GpuPool` instead; this is for coarse, independent,
//! equally sized items such as rendering one image or classifying one
//! query.

use crate::gemm::resolved_threads;

/// `(0..n).map(f).collect()`, computed on scoped threads within the
/// intra-op budget ([`resolved_threads`]) with a contiguous block of
/// indices each. Results come back in index order; a panic in `f`
/// resumes on the caller.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = resolved_threads(n);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let block = n.div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .step_by(block)
            .map(|lo| scope.spawn(move || (lo..n.min(lo + block)).map(f).collect::<Vec<T>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_equals_input_order() {
        let cores = crate::gemm::host_parallelism();
        for n in [0, 1, cores - 1, cores + 1, 1000] {
            let expected: Vec<usize> = (0..n).map(|i| i * 3).collect();
            assert_eq!(par_map(n, |i| i * 3), expected, "n = {n}");
        }
    }

    #[test]
    #[should_panic(expected = "item 7 failed")]
    fn a_panicking_closure_propagates() {
        par_map(64, |i| {
            assert!(i != 7, "item 7 failed");
            i
        });
    }
}
