//! Chunked-evaluation correctness: `Network::evaluate_dataset` must
//! return the accuracy of one whole-set forward for every chunk size,
//! including the clamped zero, remainder chunks and the empty set, and a
//! warm workspace must make a repeat evaluation allocation-free.

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

fn dataset(n: usize, classes: usize, seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ds = Dataset::empty(1, 8, 8);
    for i in 0..n {
        let pixels: Vec<f32> = (0..64).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        ds.push(&pixels, i % classes);
    }
    ds
}

/// The oracle, independent of `evaluate_dataset`: one eval-mode forward
/// over the whole set, argmax per row, correct rows counted.
fn whole_set_accuracy(net: &mut Network, ds: &Dataset) -> f32 {
    let mut images = Tensor4::zeros(0, 0, 0, 0);
    ds.copy_range_into(0, ds.len(), &mut images);
    let labels = &ds.labels;
    let logits = net.forward_ws(&images, false, &mut Workspace::new());
    let correct = labels
        .iter()
        .enumerate()
        .filter(|&(r, &label)| {
            let row = logits.row(r);
            let pred = (0..row.len())
                .max_by(|&a, &b| row[a].total_cmp(&row[b]))
                .expect("logits row is non-empty");
            pred == label
        })
        .count();
    100.0 * correct as f32 / labels.len() as f32
}

#[test]
fn every_chunk_size_matches_one_whole_set_forward() {
    let ds = dataset(23, 3, 5);
    let mut net = Network::new(&spec(3), &mut rand::rngs::StdRng::seed_from_u64(1));
    let want = whole_set_accuracy(&mut net, &ds);
    assert!(
        want > 0.0 && want < 100.0,
        "the oracle must separate right from wrong rows, got {want}"
    );
    let mut ws = Workspace::new();
    // 0 = clamped to 1, 1 = per-sample, 7 = remainder chunk (23 = 3·7 + 2),
    // 19 = remainder of 4, 23 = exact, 64 = chunk larger than the set.
    for chunk in [0usize, 1, 7, 19, 23, 64] {
        let got = net.evaluate_dataset(&ds, chunk, &mut ws);
        assert_eq!(got, want, "chunk {chunk}: {got} vs {want}");
    }
}

#[test]
fn empty_set_is_zero_for_every_chunk_size() {
    let mut net = Network::new(&spec(2), &mut rand::rngs::StdRng::seed_from_u64(3));
    let mut ws = Workspace::new();
    for chunk in [0usize, 1, 8] {
        assert_eq!(
            net.evaluate_dataset(&Dataset::empty(1, 8, 8), chunk, &mut ws),
            0.0
        );
    }
}

#[test]
fn warm_workspace_evaluates_without_allocating() {
    let ds = dataset(19, 3, 13);
    let mut net = Network::new(&spec(3), &mut rand::rngs::StdRng::seed_from_u64(4));
    let mut ws = Workspace::new();
    let _ = net.evaluate_dataset(&ds, 7, &mut ws);
    let warm = ws.allocations();
    let _ = net.evaluate_dataset(&ds, 7, &mut ws);
    assert_eq!(ws.allocations(), warm, "steady-state eval allocated");
}
