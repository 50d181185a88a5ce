//! Real-training golden: pins the numerics of `train_epoch_ws` +
//! `evaluate_dataset` bit for bit, so a kernel rewrite that claims
//! "same results" has something to be held to.
//!
//! `fixtures/train_golden.txt` was written by the commit *before* the
//! conv hot-path kernels were rewritten (register-tiled `gemm_nt`,
//! select-based ReLU, fixed-width im2col/col2im, interleaved BatchNorm
//! sums), by running
//! `cargo test --release -p a4nn-nn --test train_golden -- --ignored --nocapture`
//! there and keeping the lines between the markers. It must only be
//! regenerated by a change that means to alter training results.

use a4nn_nn::{train_epoch_ws, Dataset, NetSpec, Network, PhaseNetSpec, Sgd, Tensor4, Workspace};
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/train_golden.txt");

/// Three phases at 16×16, 8×8 and 4×4 — the widths a 16×16 search sees —
/// with a chain, a diamond join, two leaves and both skip settings.
fn spec() -> NetSpec {
    NetSpec {
        input_channels: 1,
        phases: vec![
            PhaseNetSpec {
                out_channels: 8,
                kernel: 3,
                node_inputs: vec![vec![], vec![0]],
                leaves: vec![1],
                skip: true,
            },
            PhaseNetSpec {
                out_channels: 16,
                kernel: 3,
                node_inputs: vec![vec![], vec![], vec![0, 1]],
                leaves: vec![2],
                skip: false,
            },
            PhaseNetSpec {
                out_channels: 32,
                kernel: 5,
                node_inputs: vec![vec![], vec![0]],
                leaves: vec![0, 1],
                skip: true,
            },
        ],
        num_classes: 2,
    }
}

/// `n` seeded 16×16 images in two classes: noise plus a bright band in
/// the top (class 0) or bottom (class 1) half, so accuracy moves.
fn dataset(n: usize, seed: u64) -> Dataset {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ds = Dataset::empty(1, 16, 16);
    for i in 0..n {
        let label = i % 2;
        let pixels: Vec<f32> = (0..256)
            .map(|p| {
                let bright = (p / 16 < 8) == (label == 0);
                let base = if bright { 0.6 } else { 0.0 };
                base + rng.gen_range(-0.5f32..0.5)
            })
            .collect();
        ds.push(&pixels, label);
    }
    ds
}

/// FNV-1a over the little-endian bit patterns of `values`.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for b in values.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Three epochs at `batch`: one line per epoch, a hash of every
/// parameter's bits and a hash of the eval-mode validation logits. Batch 32 over 26 images is the search's shape (one
/// short batch per epoch); batch 8 adds full batches and a remainder.
fn run(batch: usize, out: &mut String) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2023);
    let train = dataset(26, 11);
    let val = dataset(6, 12);
    let mut net = Network::new(&spec(), &mut rng);
    let mut opt = Sgd::new(0.05, 0.9, 1e-4);
    let mut ws = Workspace::new();
    for epoch in 0..3 {
        let (loss, train_acc) =
            train_epoch_ws(&mut net, &mut opt, &train, batch, &mut rng, &mut ws);
        let val_acc = net.evaluate_dataset(&val, 256, &mut ws);
        writeln!(
            out,
            "batch {batch} epoch {epoch} loss {:08x} train_acc {:08x} val_acc {:08x}",
            loss.to_bits(),
            train_acc.to_bits(),
            val_acc.to_bits()
        )
        .expect("writing to a String cannot fail");
    }
    let mut params = Vec::new();
    net.visit_params(&mut |p, _| params.extend_from_slice(p));
    // Validation accuracy is a count out of six; the eval-mode logits
    // (running BatchNorm statistics included) pin the serve-path forward.
    let mut x = Tensor4::zeros(0, 0, 0, 0);
    val.copy_range_into(0, val.len(), &mut x);
    let logits = net.forward_ws(&x, false, &mut ws);
    writeln!(
        out,
        "batch {batch} params_fnv1a {:016x}\nbatch {batch} val_logits_fnv1a {:016x}",
        fnv1a(&params),
        fnv1a(logits.data())
    )
    .expect("writing to a String cannot fail");
}

fn report() -> String {
    let mut out = String::new();
    run(32, &mut out);
    run(8, &mut out);
    out
}

#[test]
fn training_matches_the_parent_fixture() {
    assert_eq!(report(), FIXTURE, "training numerics moved");
}

/// Prints the fixture body; see the module docs for when to use it.
#[test]
#[ignore = "regenerates fixtures/train_golden.txt; run it on purpose"]
fn print_fixture() {
    print!("--- fixture ---\n{}--- end ---\n", report());
}
