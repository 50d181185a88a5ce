//! Property-based tests of the training substrate.

use a4nn_nn::layers::{Conv2d, Dense};
use a4nn_nn::{cross_entropy_ws, Tensor2, Tensor4, Workspace};
use proptest::prelude::*;
use rand::SeedableRng;

fn arb_image(n: usize, c: usize, h: usize, w: usize) -> impl Strategy<Value = Tensor4> {
    proptest::collection::vec(-2.0f32..2.0, n * c * h * w)
        .prop_map(move |data| Tensor4::from_vec(n, c, h, w, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Convolution (with zero bias) is linear: conv(αx + βy) = α·conv(x) + β·conv(y).
    #[test]
    fn conv_is_linear(
        x in arb_image(1, 1, 6, 6),
        y in arb_image(1, 1, 6, 6),
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut conv = Conv2d::new(1, 2, 3, &mut rng);
        conv.bias.iter_mut().for_each(|b| *b = 0.0);
        let mut combined = Tensor4::zeros(1, 1, 6, 6);
        for i in 0..combined.len() {
            combined.data_mut()[i] = alpha * x.data()[i] + beta * y.data()[i];
        }
        let mut ws = Workspace::new();
        let out_combined = conv.forward_ws(&combined, true, &mut ws);
        let out_x = conv.forward_ws(&x, true, &mut ws);
        let out_y = conv.forward_ws(&y, true, &mut ws);
        for i in 0..out_combined.len() {
            let expect = alpha * out_x.data()[i] + beta * out_y.data()[i];
            prop_assert!(
                (out_combined.data()[i] - expect).abs() < 1e-3,
                "index {}: {} vs {}", i, out_combined.data()[i], expect
            );
        }
    }

    /// Dense forward is affine in its input.
    #[test]
    fn dense_is_affine(
        xv in proptest::collection::vec(-2.0f32..2.0, 5),
        yv in proptest::collection::vec(-2.0f32..2.0, 5),
    ) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut dense = Dense::new(5, 3, &mut rng);
        let x = Tensor2::from_vec(1, 5, xv.clone());
        let y = Tensor2::from_vec(1, 5, yv.clone());
        let mid = Tensor2::from_vec(
            1, 5,
            xv.iter().zip(&yv).map(|(a, b)| (a + b) / 2.0).collect(),
        );
        let mut ws = Workspace::new();
        let fx = dense.forward_ws(&x, true, &mut ws);
        let fy = dense.forward_ws(&y, true, &mut ws);
        let fmid = dense.forward_ws(&mid, true, &mut ws);
        for i in 0..3 {
            let expect = (fx.data()[i] + fy.data()[i]) / 2.0;
            prop_assert!((fmid.data()[i] - expect).abs() < 1e-4);
        }
    }

    /// Cross-entropy loss is non-negative, gradient rows sum to ~0, and
    /// probabilities form a distribution.
    #[test]
    fn cross_entropy_invariants(
        logits in proptest::collection::vec(-20.0f32..20.0, 6),
        label in 0usize..3,
    ) {
        let t = Tensor2::from_vec(2, 3, logits);
        let out = cross_entropy_ws(&t, &[label, (label + 1) % 3], &mut Workspace::new());
        prop_assert!(out.loss >= 0.0);
        prop_assert!(out.loss.is_finite());
        for r in 0..2 {
            let psum: f32 = out.probs.row(r).iter().sum();
            prop_assert!((psum - 1.0).abs() < 1e-4);
            let gsum: f32 = out.dlogits.row(r).iter().sum();
            prop_assert!(gsum.abs() < 1e-5);
        }
    }
}
