//! Allocation-regression guard for the prediction engine: a curve fit
//! allocates a fixed number of times however many Levenberg–Marquardt
//! iterations it runs and however many points it fits, that number is
//! pinned for ExpBase, and a warmed convergence test allocates nothing.
//!
//! A counting wrapper around the system allocator is installed as the
//! global allocator for this test binary only (one test per binary, so
//! the counter sees nothing but the calls under measurement).

use a4nn_penguin::{fit_curve, CurveFamily, EngineConfig, FitConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations of one ExpBase fit: the three initial guesses and the
/// list holding them (4), the current and trial points' values and
/// Jacobians (4), and the result's parameters (1). θ, the step and the
/// normal equations live on the stack, so a per-fit parameter `Vec`
/// shows here as one more.
const EXP_BASE_FIT_ALLOCS: usize = 9;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations made by `f`, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCS.load(Ordering::Relaxed) - before, out)
}

/// A convex late-bloomer curve: the fitted asymptote keeps climbing, so
/// `a − b^(c−x)` never meets the tolerance and runs every iteration.
fn late_bloomer(n: usize) -> (Vec<f64>, Vec<f64>) {
    let xs: Vec<f64> = (1..=n).map(|e| e as f64).collect();
    let ys = xs.iter().map(|x| 50.0 + 0.08 * x * x).collect();
    (xs, ys)
}

/// Allocations of one ExpBase fit, and its iteration count.
fn fit_allocations(xs: &[f64], ys: &[f64], max_iters: usize) -> (usize, usize) {
    let cfg = FitConfig {
        max_iters,
        ..FitConfig::default()
    };
    let (n, fit) = allocations(|| fit_curve(&CurveFamily::ExpBase, xs, ys, &cfg));
    (n, fit.expect("a late bloomer fits").iterations)
}

#[test]
fn fits_allocate_per_call_and_convergence_tests_not_at_all() {
    // Per iteration: 2 and 60 iterations of the same 12-point fit.
    let (xs, ys) = late_bloomer(12);
    let (short, short_iters) = fit_allocations(&xs, &ys, 2);
    let (long, long_iters) = fit_allocations(&xs, &ys, 60);
    assert_eq!(
        (short_iters, long_iters),
        (2, 60),
        "the curve must use every iteration"
    );
    assert_eq!(
        short, long,
        "a fit allocated {short} times in 2 iterations and {long} in 60: \
         a per-iteration allocation crept back in"
    );

    assert_eq!(
        long, EXP_BASE_FIT_ALLOCS,
        "an ExpBase fit allocated {long} times, not {EXP_BASE_FIT_ALLOCS}"
    );

    // Per point: 8 and 25 observations.
    let (xs8, ys8) = late_bloomer(8);
    let (xs25, ys25) = late_bloomer(25);
    let (few, _) = fit_allocations(&xs8, &ys8, 60);
    let (many, _) = fit_allocations(&xs25, &ys25, 60);
    assert_eq!(
        few, many,
        "a fit allocated {few} times on 8 points and {many} on 25: \
         a per-point allocation crept back in"
    );

    // The analyzer, converging and not, once warmed.
    let histories: [&[Option<f64>]; 3] = [
        &[None, Some(90.0), Some(95.0), Some(95.2), Some(95.4)],
        &[Some(95.0), Some(104.0), Some(95.1)],
        &[Some(94.0), None, Some(95.0), Some(96.0)],
    ];
    let config = EngineConfig::paper_defaults();
    for preds in histories {
        let warm = config.converged(preds);
        let (n, again) = allocations(|| config.converged(preds));
        assert_eq!(warm, again);
        assert_eq!(n, 0, "convergence test allocated {n} times");
    }
}
