//! Differential tests: the `Conv2d` layer and the im2col + GEMM oracle
//! must each agree with straight-line loops to ≤1e-4 — forward, weight
//! gradient, bias gradient, and input gradient — over random stride-1
//! `same` geometries, odd kernels wider than the image included.

use a4nn_nn::im2col::{conv_backward, conv_forward, ConvGeometry};
use a4nn_nn::layers::Conv2d;
use a4nn_nn::{Tensor4, Workspace};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const TOL: f32 = 1e-4;

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= TOL * (1.0 + a.abs().max(b.abs()))
}

fn assert_all_close(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length mismatch");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(close(*g, *w), "{what}[{i}]: {g} vs {w}");
    }
}

/// Direct 7-deep loop reference.
fn naive_forward(
    x: &Tensor4,
    weight: &[f32],
    bias: &[f32],
    c_out: usize,
    g: &ConvGeometry,
) -> Tensor4 {
    let (oh, ow, k, pad) = (g.h, g.w, g.kernel, g.pad());
    let mut out = Tensor4::zeros(x.n, c_out, oh, ow);
    for ni in 0..x.n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = bias[co];
                    for ci in 0..g.c_in {
                        for ky in 0..k {
                            let yy = (oy + ky) as isize - pad as isize;
                            if yy < 0 || yy >= g.h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let xx = (ox + kx) as isize - pad as isize;
                                if xx < 0 || xx >= g.w as isize {
                                    continue;
                                }
                                acc += x.get(ni, ci, yy as usize, xx as usize)
                                    * weight[((co * g.c_in + ci) * k + ky) * k + kx];
                            }
                        }
                    }
                    out.set(ni, co, oy, ox, acc);
                }
            }
        }
    }
    out
}

/// Direct-loop reference gradients.
#[allow(clippy::needless_range_loop)] // index-form loops mirror the 7-loop conv derivation
fn naive_backward(
    x: &Tensor4,
    grad_out: &Tensor4,
    weight: &[f32],
    c_out: usize,
    g: &ConvGeometry,
) -> (Tensor4, Vec<f32>, Vec<f32>) {
    let (oh, ow, k, pad) = (g.h, g.w, g.kernel, g.pad());
    let mut gin = Tensor4::zeros(x.n, g.c_in, g.h, g.w);
    let mut wg = vec![0.0f32; weight.len()];
    let mut bg = vec![0.0f32; c_out];
    for ni in 0..x.n {
        for co in 0..c_out {
            for oy in 0..oh {
                for ox in 0..ow {
                    let gv = grad_out.get(ni, co, oy, ox);
                    bg[co] += gv;
                    for ci in 0..g.c_in {
                        for ky in 0..k {
                            let yy = (oy + ky) as isize - pad as isize;
                            if yy < 0 || yy >= g.h as isize {
                                continue;
                            }
                            for kx in 0..k {
                                let xx = (ox + kx) as isize - pad as isize;
                                if xx < 0 || xx >= g.w as isize {
                                    continue;
                                }
                                let widx = ((co * g.c_in + ci) * k + ky) * k + kx;
                                wg[widx] += x.get(ni, ci, yy as usize, xx as usize) * gv;
                                let gidx = gin.index(ni, ci, yy as usize, xx as usize);
                                gin.data_mut()[gidx] += weight[widx] * gv;
                            }
                        }
                    }
                }
            }
        }
    }
    (gin, wg, bg)
}

fn fill_random(rng: &mut impl Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The oracle's lowering: forward + both gradients match the direct
    /// loops over random N/C/H/W/kernel.
    #[test]
    fn lowered_conv_matches_naive_reference(
        n in 1usize..3,
        c_in in 1usize..4,
        c_out in 1usize..4,
        h in 1usize..9,
        w in 1usize..9,
        k_half in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let g = ConvGeometry::same(c_in, h, w, 2 * k_half + 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let x = Tensor4::from_vec(n, c_in, h, w, fill_random(&mut rng, n * c_in * h * w));
        let weight = fill_random(&mut rng, c_out * g.patch());
        let bias = fill_random(&mut rng, c_out);
        let grad = Tensor4::from_vec(
            n, c_out, h, w,
            fill_random(&mut rng, n * c_out * g.pixels()),
        );

        let fast = conv_forward(&x, &weight, &bias, &g);
        let slow = naive_forward(&x, &weight, &bias, c_out, &g);
        assert_all_close(fast.data(), slow.data(), "forward");

        let (gin_f, wg_f, bg_f) = conv_backward(&x, &grad, &weight, c_out, &g);
        let (gin_s, wg_s, bg_s) = naive_backward(&x, &grad, &weight, c_out, &g);
        assert_all_close(gin_f.data(), gin_s.data(), "input grad");
        assert_all_close(&wg_f, &wg_s, "weight grad");
        assert_all_close(&bg_f, &bg_s, "bias grad");
    }

    /// Layer-level equivalence: a `Conv2d` produces the activations and
    /// accumulated gradients of the direct loops.
    #[test]
    fn conv2d_backends_agree(
        n in 1usize..5,
        c_in in 1usize..4,
        c_out in 1usize..5,
        h in 2usize..10,
        w in 2usize..10,
        k_half in 0usize..3,
        seed in 0u64..1_000_000,
    ) {
        let kernel = 2 * k_half + 1; // layer requires an odd kernel
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut conv = Conv2d::new(c_in, c_out, kernel, &mut rng);
        let g = ConvGeometry::same(c_in, h, w, kernel);

        let x = Tensor4::from_vec(n, c_in, h, w, fill_random(&mut rng, n * c_in * h * w));
        let mut ws = Workspace::new();
        let out_naive = naive_forward(&x, &conv.weight, &conv.bias, c_out, &g);
        let out_gemm = conv.forward_ws(&x, true, &mut ws);
        assert_all_close(out_gemm.data(), out_naive.data(), "layer forward");

        let grad = Tensor4::from_vec(n, c_out, h, w, fill_random(&mut rng, n * c_out * h * w));
        let (gin_naive, wg_naive, bg_naive) = naive_backward(&x, &grad, &conv.weight, c_out, &g);
        let gin_gemm = conv.backward_ws(&grad, &mut ws);
        assert_all_close(gin_gemm.data(), gin_naive.data(), "layer input grad");

        let naive_grads = [wg_naive, bg_naive];
        let mut slot = 0;
        conv.visit_params(&mut |_, got| {
            assert_all_close(got, &naive_grads[slot], "layer param grad");
            slot += 1;
        });
    }
}

/// The paper's input geometry (128×128 XFEL images) through the layer and
/// the direct loops.
#[test]
fn paper_shape_agrees() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(2023);
    let conv = Conv2d::new(1, 8, 3, &mut rng);
    let x = Tensor4::from_vec(4, 1, 128, 128, fill_random(&mut rng, 4 * 128 * 128));
    let g = ConvGeometry::same(1, 128, 128, 3);
    let want = naive_forward(&x, &conv.weight, &conv.bias, 8, &g);

    let mut fast = conv.clone();
    let out = fast.forward_ws(&x, true, &mut Workspace::new());
    assert_all_close(out.data(), want.data(), "paper-shape forward");
}
