//! Differential tests: the GEMM-backed `Dense` layer must be **bitwise
//! identical** to the naive sequential-loop reference — forward, weight
//! gradient, bias gradient, and input gradient — for every shape.
//! `gemm_nn_seq` reproduces the naive ascending-k accumulation order per
//! element exactly, and the ±0.0 product terms the naive path skips
//! cannot perturb an accumulator, so equality here is exact, not
//! approximate.

use a4nn_nn::layers::{reference, Dense};
use a4nn_nn::{NetSpec, Network, PhaseNetSpec, Tensor2, Tensor4, Workspace};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

fn fill_random(rng: &mut impl Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn assert_bits_eq(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{what}[{i}]: {g} ({:#010x}) vs {w} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Run one forward + backward on the layer and on a clone driven through
/// the reference loops, and compare every output and accumulated gradient
/// bit for bit.
fn check_pair(rows: usize, d_in: usize, d_out: usize, seed: u64, sparse_grad: bool) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut naive = Dense::new(d_in, d_out, &mut rng);
    let mut twin = naive.clone();

    let x = Tensor2::from_vec(rows, d_in, fill_random(&mut rng, rows * d_in));
    let mut ws = Workspace::new();
    let out_naive = reference::dense_forward(&mut naive, &x);
    let out_gemm = twin.forward_ws(&x, true, &mut ws);
    assert_bits_eq(out_gemm.data(), out_naive.data(), "forward");

    // Exercise the naive path's `go == 0.0` skip: ReLU-style gradients
    // are frequently exactly zero.
    let mut gvals = fill_random(&mut rng, rows * d_out);
    if sparse_grad {
        for v in gvals.iter_mut() {
            if *v < 0.3 {
                *v = 0.0;
            }
        }
    }
    let grad = Tensor2::from_vec(rows, d_out, gvals);
    let gin_naive = reference::dense_backward(&mut naive, &grad);
    let gin_gemm = twin.backward_ws(&grad, &mut ws);
    assert_bits_eq(gin_gemm.data(), gin_naive.data(), "input grad");

    let mut naive_grads: Vec<Vec<f32>> = Vec::new();
    naive.visit_params(&mut |_, g| naive_grads.push(g.to_vec()));
    let mut slot = 0;
    twin.visit_params(&mut |_, g| {
        assert_bits_eq(g, &naive_grads[slot], "param grad");
        slot += 1;
    });
    assert_eq!(slot, naive_grads.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random shapes, including ones spanning several GEMM micro-tiles
    /// and the ragged edges below one tile.
    #[test]
    fn dense_backends_agree_bitwise(
        rows in 1usize..34,
        d_in in 1usize..40,
        d_out in 1usize..40,
        sparse in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        check_pair(rows, d_in, d_out, seed, sparse);
    }
}

/// Shapes crossing the blocked-GEMM panel boundaries (KC = 256, NR = 16,
/// MR = 4) where a panel-local accumulation order would diverge from the
/// strict sequential reference, and two wider than the proptest's range.
#[test]
fn panel_boundary_shapes_agree_bitwise() {
    for &(rows, d_in, d_out) in &[
        (1, 1, 1),
        (4, 16, 16),
        (5, 17, 33),
        (3, 300, 10),
        (2, 513, 40),
        (16, 257, 31),
        (23, 48, 37),
        (64, 512, 96),
    ] {
        check_pair(rows, d_in, d_out, 7 + rows as u64, true);
    }
}

/// Reusing a warm workspace (stale scratch contents) must not change a
/// single bit versus throwaway allocation: every scratch consumer fully
/// overwrites its buffer, and accumulation targets are re-zeroed.
#[test]
fn workspace_reuse_is_bitwise_transparent() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(21);
    let mut fresh = Dense::new(30, 19, &mut rng);
    let mut warm = fresh.clone();
    let mut ws = Workspace::new();
    for step in 0..4 {
        let x = Tensor2::from_vec(9, 30, fill_random(&mut rng, 9 * 30));
        let grad = Tensor2::from_vec(9, 19, fill_random(&mut rng, 9 * 19));
        let out_fresh = fresh.forward_ws(&x, true, &mut Workspace::new());
        let out_warm = warm.forward_ws(&x, true, &mut ws);
        assert_bits_eq(
            out_warm.data(),
            out_fresh.data(),
            &format!("step {step} forward"),
        );
        let gin_fresh = fresh.backward_ws(&grad, &mut Workspace::new());
        let gin_warm = warm.backward_ws(&grad, &mut ws);
        assert_bits_eq(
            gin_warm.data(),
            gin_fresh.data(),
            &format!("step {step} grad"),
        );
        ws.give2(out_warm);
        ws.give2(gin_warm);
        drop((out_fresh, gin_fresh));
    }
    // The pool is warm after the first step: nothing allocated since.
    let after_first = ws.allocations();
    let x = Tensor2::from_vec(9, 30, fill_random(&mut rng, 9 * 30));
    let out = warm.forward_ws(&x, true, &mut ws);
    ws.give2(out);
    assert_eq!(ws.allocations(), after_first, "warm pool allocated");
}

fn tiny_spec() -> NetSpec {
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

/// Whole-network check: logits and every parameter gradient are bitwise
/// identical between the network and a clone whose classifier runs the
/// reference loops, after a training step.
#[test]
fn network_level_dense_backends_agree_bitwise() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let mut naive = Network::new(&tiny_spec(), &mut rng);
    let mut twin = naive.clone();

    let x = Tensor4::from_vec(5, 1, 8, 8, fill_random(&mut rng, 5 * 8 * 8));
    let labels = [0usize, 1, 2, 0, 1];
    let logits_naive = naive.forward_reference_dense(&x, true);
    let mut ws = Workspace::new();
    let logits_gemm = twin.forward_ws(&x, true, &mut ws);
    assert_bits_eq(logits_gemm.data(), logits_naive.data(), "network logits");

    let out_naive = a4nn_nn::cross_entropy_ws(&logits_naive, &labels, &mut ws);
    let out_gemm = a4nn_nn::cross_entropy_ws(&logits_gemm, &labels, &mut ws);
    naive.backward_reference_dense(&out_naive.dlogits);
    twin.backward_ws(&out_gemm.dlogits, &mut ws);

    let mut naive_grads: Vec<Vec<f32>> = Vec::new();
    naive.visit_params(&mut |_, g| naive_grads.push(g.to_vec()));
    let mut slot = 0;
    twin.visit_params(&mut |_, g| {
        assert_bits_eq(g, &naive_grads[slot], "network param grad");
        slot += 1;
    });
    assert_eq!(slot, naive_grads.len());
}
