//! The intra-op threading policy: `gemm::threads_for` opens a scope only
//! for work that pays for the spawn, never exceeds the budget or the item
//! count, and resolving the budget costs no syscall.
//!
//! The budget is process-wide, so every test here holds `BUDGET` while it
//! sets one.

use a4nn_nn::gemm::{self, threads_for};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// `gemm`'s private `MIN_MACS_PER_THREAD`, pinned: moving the threshold
/// moves which layers of a served model thread, and should be a decision.
const MIN_MACS_PER_THREAD: usize = 1 << 20;

static BUDGET: Mutex<()> = Mutex::new(());

/// Hold the lock and set `budget`; the previous budget returns on drop.
struct WithBudget {
    prev: usize,
    _held: MutexGuard<'static, ()>,
}

fn with_budget(budget: usize) -> WithBudget {
    // A failed assertion in another test poisons the lock, not the budget.
    let held = BUDGET.lock().unwrap_or_else(|e| e.into_inner());
    let prev = gemm::thread_budget();
    gemm::set_thread_budget(budget);
    WithBudget { prev, _held: held }
}

impl Drop for WithBudget {
    fn drop(&mut self) {
        gemm::set_thread_budget(self.prev);
    }
}

/// `(items, macs_per_item)` pairs on both sides of the threshold,
/// including empty and single-item work.
fn shapes() -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for items in [0usize, 1, 2, 3, 8, 26, 32, 1000] {
        for macs in [0usize, 1, 999, 18_432, 147_456, 1 << 20, 3 << 20, 1 << 28] {
            out.push((items, macs));
        }
    }
    out
}

/// `min(budget, items, work / MIN_MACS_PER_THREAD).max(1)`: serial below
/// two threads' worth of work, and never more threads than the budget,
/// the items, or what the work pays for.
#[test]
fn threads_are_capped_by_budget_items_and_paid_for_work() {
    for budget in [0usize, 1, 2, 3, 8, 64] {
        let _b = with_budget(budget);
        let cap = match budget {
            0 => gemm::host_parallelism(),
            n => n,
        };
        for (items, macs) in shapes() {
            let want = cap
                .min(items)
                .min(items * macs / MIN_MACS_PER_THREAD)
                .max(1);
            assert_eq!(
                threads_for(items, macs),
                want,
                "{items} x {macs} MACs at budget {budget}"
            );
        }
        // The last MAC below the threshold and the first one at it.
        assert_eq!(threads_for(2, MIN_MACS_PER_THREAD - 1), 1);
        assert_eq!(threads_for(2, MIN_MACS_PER_THREAD), cap.min(2));
    }
}

#[test]
fn more_work_never_means_fewer_threads() {
    let _b = with_budget(8);
    for items in [1usize, 2, 8, 32] {
        let mut last = 1;
        for macs in (0..64).map(|i| i * (MIN_MACS_PER_THREAD / 4)) {
            let t = threads_for(items, macs);
            assert!(t >= last, "{items} items: {macs} MACs gave {t} < {last}");
            last = t;
        }
    }
    for macs in [1usize << 16, 1 << 20, 1 << 22] {
        let mut last = 1;
        for items in 0..64 {
            let t = threads_for(items, macs);
            assert!(t >= last, "{macs} MACs: {items} items gave {t} < {last}");
            last = t;
        }
    }
}

#[test]
fn auto_budget_means_every_host_core() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(gemm::host_parallelism(), cores);
    let _b = with_budget(0);
    assert_eq!(gemm::resolved_threads(usize::MAX), cores);
    assert_eq!(threads_for(1 << 20, 1 << 20), cores);
    assert_eq!(threads_for(usize::MAX, usize::MAX), cores);
}

/// `a4nn serve` with default flags runs at budget 0 and resolves it about
/// thirty times per request. Asking the OS each time costs ~11 µs a call
/// (110 ms for this loop on the benchmark host); the cached answer costs
/// nanoseconds, so the bound has three orders of magnitude of slack.
#[test]
fn resolving_the_auto_budget_asks_the_os_nothing() {
    let _b = with_budget(0);
    let started = Instant::now();
    let mut sum = 0usize;
    for _ in 0..10_000 {
        sum += std::hint::black_box(gemm::resolved_threads(std::hint::black_box(8)));
    }
    let took = started.elapsed();
    assert!(sum >= 10_000);
    assert!(
        took < Duration::from_millis(10),
        "10 000 resolved_threads(8) calls took {took:?}"
    );
}
