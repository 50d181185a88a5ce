//! The workspace's one data-parallel helper: an order-preserving map
//! over an index range on scoped threads. Jobs (whole trainers) run on
//! `a4nn_sched::GpuPool` instead, and every layer runs on its caller's
//! thread; this is for coarse, independent, equally sized items such as
//! rendering one image or classifying one query.

use std::sync::OnceLock;

/// Cores available to this process, asked of the OS once and cached: the
/// lookup is a syscall plus cgroup file reads, 11–13 µs on the benchmark
/// host.
pub fn host_parallelism() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// `(0..n).map(f).collect()`, computed on one scoped thread per core
/// ([`host_parallelism`]), capped by `n`, with a contiguous block of
/// indices each. Results come back in index order; a panic in `f`
/// resumes on the caller.
pub fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let threads = host_parallelism().min(n).max(1);
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
    use std::time::{Duration, Instant};

    #[test]
    fn output_order_equals_input_order() {
        let cores = host_parallelism();
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

    #[test]
    fn host_parallelism_is_every_core() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(host_parallelism(), cores);
    }

    /// Every `par_map` asks how many cores there are. Asking the OS each
    /// time costs ~11 µs a call (110 ms for this loop on the benchmark
    /// host); the cached answer costs nanoseconds, so the bound has three
    /// orders of magnitude of slack.
    #[test]
    fn asking_for_the_cores_again_asks_the_os_nothing() {
        let started = Instant::now();
        let mut sum = 0usize;
        for _ in 0..10_000 {
            sum += std::hint::black_box(host_parallelism());
        }
        let took = started.elapsed();
        assert!(sum >= 10_000);
        assert!(
            took < Duration::from_millis(10),
            "10 000 host_parallelism() calls took {took:?}"
        );
    }
}
