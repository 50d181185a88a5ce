//! Allocation-regression guard: after the workspace pool warms up, a
//! steady-state training batch must perform **zero** heap allocations,
//! and so must an eval-mode forward (the path `a4nn serve` runs).
//!
//! A counting wrapper around the system allocator is installed as the
//! global allocator for this test binary only (one test per binary, so
//! the counter sees nothing but the training loop under measurement).
//! The thread budget is pinned to 1 because spawning scoped threads
//! allocates stack bookkeeping; single-thread is also the configuration
//! the search-throughput bench measures.

use a4nn_nn::{gemm, Dataset, NetSpec, Network, PhaseNetSpec, Sgd, Tensor4, Workspace};
use rand::{Rng, SeedableRng};
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
        // A realloc that moves (or grows in place) is still allocator
        // traffic the hot path must not generate.
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocation_count() -> usize {
    ALLOCS.load(Ordering::Relaxed)
}

fn spec() -> NetSpec {
    NetSpec {
        input_channels: 1,
        phases: vec![
            PhaseNetSpec {
                out_channels: 4,
                kernel: 3,
                node_inputs: vec![vec![], vec![0]],
                leaves: vec![1],
                skip: true,
            },
            PhaseNetSpec::degenerate(8, 3),
        ],
        num_classes: 3,
    }
}

fn dataset(n: usize) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(99);
    let mut ds = Dataset::empty(1, 8, 8);
    for i in 0..n {
        let pixels: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        ds.push(&pixels, i % 3);
    }
    ds
}

/// One epoch body without the shuffle (the per-epoch shuffle allocates
/// its order vector by design; the guarantee is per *batch*): gather,
/// forward, loss, backward, optimizer step, all through the workspace.
fn train_batches(
    net: &mut Network,
    opt: &mut Sgd,
    ds: &Dataset,
    batch: usize,
    rng: &mut impl Rng,
    ws: &mut Workspace,
) {
    let _ = a4nn_nn::train_epoch_ws(net, opt, ds, batch, rng, ws);
}

#[test]
fn steady_state_training_batch_allocates_nothing() {
    let prev = gemm::thread_budget();
    gemm::set_thread_budget(1);

    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    // 26 samples at batch 8 = three full batches and a remainder of two,
    // so every epoch after the first opens with a full batch right after
    // a short one: buffers sized per batch (the ReLU masks) must keep
    // their capacity across the shrink.
    let ds = dataset(26);
    let mut net = Network::new(&spec(), &mut rng);
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut ws = Workspace::new();

    // Warmup: several epochs so every code path (full batch, remainder
    // batch, optimizer lazy buffers) has allocated whatever it ever will.
    for _ in 0..3 {
        train_batches(&mut net, &mut opt, &ds, 8, &mut rng, &mut ws);
    }

    // The epoch-level shuffle allocates one order vector; measure it so
    // the per-batch assertion below can subtract a known ceiling.
    let pool_before = ws.allocations();
    let before = allocation_count();
    train_batches(&mut net, &mut opt, &ds, 8, &mut rng, &mut ws);
    let epoch_allocs = allocation_count() - before;
    assert_eq!(
        ws.allocations(),
        pool_before,
        "workspace pool allocated at steady state"
    );

    // Four batches per epoch. The shuffle's order vector (and its
    // shuffling scratch) is the only permitted traffic — a small
    // per-EPOCH constant. If any per-BATCH path allocated even once per
    // full batch, the count would be >= 3.
    assert!(
        epoch_allocs < 3,
        "steady-state epoch performed {epoch_allocs} heap allocations \
         (> per-epoch shuffle budget); a per-batch allocation crept back in"
    );

    // Eval-mode forward, the serve path: one pass at a new batch shape
    // warms the pool, the next must not touch the allocator at all.
    let mut images = Tensor4::zeros(0, 0, 0, 0);
    ds.copy_range_into(0, 5, &mut images);
    let warm = net.forward_ws(&images, false, &mut ws);
    ws.give2(warm);
    let before = allocation_count();
    let logits = net.forward_ws(&images, false, &mut ws);
    let eval_allocs = allocation_count() - before;
    ws.give2(logits);
    assert_eq!(
        eval_allocs, 0,
        "a warmed eval-mode forward performed {eval_allocs} heap allocations"
    );

    gemm::set_thread_budget(prev);
}
