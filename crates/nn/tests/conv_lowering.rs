//! Bit-exact lowering: `Conv2d` reads its patch matrix in place from the
//! zero-framed input, and must give, bit for bit, what the written-out
//! lowering gives — `im2col` + `gemm_nn` forward, `gemm_nt` weight
//! gradient, `gemm_nn` + `col2im` input gradient — for every output,
//! weight gradient, bias gradient and input gradient.
//!
//! The shapes walk every width from 1 to 20 with a height that differs
//! from it, kernels 1/3/5/7 (wider than the image included), and channel
//! counts that leave every ragged register-tile edge of both GEMMs. Each shape
//! runs twice: on finite values with `-0.0` and exact zeros sprinkled
//! in, where any change of summation order shows, and with `±∞` and NaN
//! added, which would show a masked lane leaking into a sum.

use a4nn_nn::im2col::{conv_backward, conv_forward, ConvGeometry};
use a4nn_nn::layers::Conv2d;
use a4nn_nn::{Tensor4, Workspace};
use rand::SeedableRng;

/// `len` pseudo-random values in [-2, 2), with `-0.0` and `0.0` at fixed
/// strides and, when `special`, `±∞` and a NaN with a payload of its own.
fn values(len: usize, seed: u32, special: bool) -> Vec<f32> {
    let mut state = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let v = (state >> 8) as f32 / (1u32 << 22) as f32 - 2.0;
            match i {
                _ if i % 13 == 3 => -0.0,
                _ if i % 17 == 5 => 0.0,
                _ if special && i % 29 == 7 => f32::INFINITY,
                _ if special && i % 31 == 9 => f32::NEG_INFINITY,
                _ if special && i % 37 == 11 => f32::from_bits(0x7fc0_1234),
                _ => v,
            }
        })
        .collect()
}

/// Bit patterns, every NaN as one pattern. Which of two NaNs an addition
/// returns depends on its operand order, and the compiler may commute an
/// addition; Rust leaves NaN payloads unspecified. Whether a result is
/// NaN, and every other bit — the sign of a zero included — is compared.
fn bits(values: &[f32]) -> Vec<u32> {
    values
        .iter()
        .map(|v| {
            if v.is_nan() {
                f32::NAN.to_bits()
            } else {
                v.to_bits()
            }
        })
        .collect()
}

/// One layer against the oracle: forward, then backward, every result
/// compared bit for bit. Returns the workspace's pooled peak.
fn check(n: usize, c_in: usize, c_out: usize, h: usize, w: usize, kernel: usize, special: bool) {
    let case = format!("n{n} c{c_in}->{c_out} {h}x{w} k{kernel} special={special}");
    let seed = (n * 7 + c_in * 131 + c_out * 17 + h * 1009 + w * 31 + kernel * 3) as u32;
    let mut rng = rand::rngs::StdRng::seed_from_u64(u64::from(seed));
    let mut conv = Conv2d::new(c_in, c_out, kernel, &mut rng);
    conv.bias = values(c_out, seed ^ 1, false);
    let g = ConvGeometry::same(c_in, h, w, kernel);
    let x = Tensor4::from_vec(n, c_in, h, w, values(n * c_in * h * w, seed ^ 2, special));
    let grad = Tensor4::from_vec(n, c_out, h, w, values(n * c_out * h * w, seed ^ 3, special));

    let mut ws = Workspace::new();
    let out = conv.forward_ws(&x, true, &mut ws);
    let want = conv_forward(&x, &conv.weight, &conv.bias, &g);
    assert_eq!(bits(out.data()), bits(want.data()), "forward, {case}");

    let grad_in = conv.backward_ws(&grad, &mut ws);
    let (want_in, want_wg, want_bg) = conv_backward(&x, &grad, &conv.weight, c_out, &g);
    assert_eq!(
        bits(grad_in.data()),
        bits(want_in.data()),
        "input gradient, {case}"
    );
    let mut grads = Vec::new();
    conv.visit_params(&mut |_, grad| grads.push(grad.to_vec()));
    assert_eq!(bits(&grads[0]), bits(&want_wg), "weight gradient, {case}");
    assert_eq!(bits(&grads[1]), bits(&want_bg), "bias gradient, {case}");
}

#[test]
fn framed_lowering_equals_the_patch_matrix_lowering_bit_for_bit() {
    const KERNELS: [usize; 4] = [1, 3, 5, 7];
    const C_IN: [usize; 4] = [1, 2, 3, 8];
    for w in 1..=20 {
        // A height that differs from the width, from 1 to 7.
        let h = match (w * 5) % 7 + 1 {
            h if h == w => h + 1,
            h => h,
        };
        for (ki, &kernel) in KERNELS.iter().enumerate() {
            let c_in = C_IN[(w + ki) % C_IN.len()];
            let c_out = 1 + (3 * w + ki) % 9;
            for special in [false, true] {
                check(2, c_in, c_out, h, w, kernel, special);
            }
        }
    }
    // A larger shape: three samples of 8→9 channels at 21×20, kernel 7.
    for special in [false, true] {
        check(3, 8, 9, 21, 20, 7, special);
    }
}
