//! Chunked-evaluation correctness: `Network::evaluate_chunked` must
//! return identical accuracy to a single whole-set forward for every
//! chunk size, including the empty-set and remainder-chunk edges, and
//! `evaluate_dataset` must agree with evaluating the materialized tensor.

use a4nn_nn::gemm;
use a4nn_nn::{Dataset, NetSpec, Network, PhaseNetSpec, Tensor4, Workspace};
use rand::{Rng, SeedableRng};

fn spec(classes: usize) -> NetSpec {
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
            PhaseNetSpec::degenerate(6, 3),
        ],
        num_classes: classes,
    }
}

fn labeled_images(n: usize, classes: usize, seed: u64) -> (Tensor4, Vec<usize>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut images = Tensor4::zeros(n, 1, 8, 8);
    for v in images.data_mut() {
        *v = rng.gen_range(-1.0f32..1.0);
    }
    let labels = (0..n).map(|i| i % classes).collect();
    (images, labels)
}

/// Whole-set accuracy via one forward, bypassing chunking entirely.
fn whole_set_accuracy(net: &mut Network, images: &Tensor4, labels: &[usize]) -> f32 {
    net.evaluate_chunked(images, labels, labels.len().max(1))
}

#[test]
fn chunk_sizes_agree_including_remainders() {
    let (images, labels) = labeled_images(23, 3, 5);
    let mut net = Network::new(&spec(3), &mut rand::rngs::StdRng::seed_from_u64(1));
    let want = whole_set_accuracy(&mut net, &images, &labels);
    // 1 = per-sample, 7 = remainder chunk (23 = 3·7 + 2), 23 = exact,
    // 64 = chunk larger than the set, 0 = clamped to 1.
    for chunk in [1usize, 7, 23, 64, 0] {
        let got = net.evaluate_chunked(&images, &labels, chunk);
        assert_eq!(got, want, "chunk {chunk}: {got} vs {want}");
    }
    // The default-chunk entry point agrees too.
    assert_eq!(net.evaluate(&images, &labels), want);
}

/// Seventeen 8×8 images are far below `gemm::threads_for`'s work
/// threshold and evaluate on one thread whatever the budget; 160 of them
/// are enough to pay for a second, so that case runs the cloned-network
/// branch.
#[test]
fn chunking_is_thread_budget_invariant() {
    let prev = gemm::thread_budget();
    for (n, chunk, splits) in [(17usize, 4usize, false), (160, 16, true)] {
        let (images, labels) = labeled_images(n, 2, 9);
        let mut net = Network::new(&spec(2), &mut rand::rngs::StdRng::seed_from_u64(2));
        gemm::set_thread_budget(1);
        let want = net.evaluate_chunked(&images, &labels, chunk);
        for budget in [2usize, 3, 8] {
            gemm::set_thread_budget(budget);
            if budget == 2 {
                let macs_per_chunk = chunk * (net.flops((8, 8)) / 2.0) as usize;
                let split = gemm::threads_for(n.div_ceil(chunk), macs_per_chunk) > 1;
                assert_eq!(split, splits, "{n} images in chunks of {chunk}");
            }
            let got = net.evaluate_chunked(&images, &labels, chunk);
            assert_eq!(got, want, "{n} images, budget {budget}");
        }
    }
    gemm::set_thread_budget(prev);
}

#[test]
fn empty_set_is_zero_for_every_chunk_size() {
    let mut net = Network::new(&spec(2), &mut rand::rngs::StdRng::seed_from_u64(3));
    for chunk in [0usize, 1, 8] {
        assert_eq!(
            net.evaluate_chunked(&Tensor4::zeros(0, 1, 8, 8), &[], chunk),
            0.0
        );
    }
    assert_eq!(net.evaluate(&Tensor4::zeros(0, 1, 8, 8), &[]), 0.0);
}

#[test]
fn evaluate_dataset_matches_materialized_tensor() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    let mut ds = Dataset::empty(1, 8, 8);
    for i in 0..19 {
        let pixels: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        ds.push(&pixels, i % 3);
    }
    let mut net = Network::new(&spec(3), &mut rand::rngs::StdRng::seed_from_u64(4));
    let (images, labels) = ds.as_tensor();
    let want = whole_set_accuracy(&mut net, &images, labels);
    let mut ws = Workspace::new();
    for chunk in [1usize, 7, 19, 100] {
        let got = net.evaluate_dataset(&ds, chunk, &mut ws);
        assert_eq!(got, want, "chunk {chunk}");
    }
    // Warm workspace: a repeat evaluation allocates nothing further.
    let _ = net.evaluate_dataset(&ds, 7, &mut ws);
    let warm = ws.allocations();
    let _ = net.evaluate_dataset(&ds, 7, &mut ws);
    assert_eq!(ws.allocations(), warm, "steady-state eval allocated");

    // Empty dataset edge.
    assert_eq!(
        net.evaluate_dataset(&Dataset::empty(1, 8, 8), 7, &mut ws),
        0.0
    );
}
