//! Far-field diffraction simulation and photon-noise rendering.
//!
//! For a rigid set of point scatterers at positions `rⱼ` (after the beam
//! orientation rotation), the coherent far-field intensity at detector
//! momentum transfer `q` is `I(q) = |Σⱼ exp(i q·rⱼ)|²` — the physics that
//! makes each orientation of each conformer produce a unique fingerprint
//! (§3.1). The detector is a flat `D × D` grid in the small-angle
//! approximation (only the x/y components of the rotated positions enter
//! the phase). Photon counts per pixel are Poisson with mean proportional
//! to the intensity, scaled so the whole pattern receives the beam's
//! photon budget; images are `log1p`-compressed and max-normalized, the
//! standard preprocessing for diffraction data.

use crate::beam::BeamIntensity;
use crate::conformer::Conformer;
use crate::geometry::Rotation;
use rand::Rng;
use rand_distr::{Distribution, Poisson};

/// Compute the noiseless intensity pattern of `conformer` under beam
/// orientation `orientation` on a `detector × detector` grid.
///
/// `q_step` is the momentum-transfer increment per pixel; the detector is
/// centered on `q = 0`.
pub fn diffraction_intensity(
    conformer: &Conformer,
    orientation: &Rotation,
    detector: usize,
    q_step: f64,
) -> Vec<f64> {
    assert!(detector > 0, "detector must have pixels");
    let rotated: Vec<[f64; 3]> = conformer
        .atoms
        .iter()
        .map(|&a| orientation.apply(a))
        .collect();
    let half = (detector as f64 - 1.0) / 2.0;
    let mut out = vec![0.0f64; detector * detector];
    for py in 0..detector {
        let qy = (py as f64 - half) * q_step;
        for px in 0..detector {
            let qx = (px as f64 - half) * q_step;
            let mut re = 0.0f64;
            let mut im = 0.0f64;
            for r in &rotated {
                let phase = qx * r[0] + qy * r[1];
                let (s, c) = phase.sin_cos();
                re += c;
                im += s;
            }
            out[py * detector + px] = re * re + im * im;
        }
    }
    out
}

/// Render a noisy, normalized detector image from a noiseless intensity
/// pattern.
///
/// The intensity map is scaled so its total equals the beam's photon
/// budget, each pixel is Poisson-sampled, and the counts are
/// `log1p`-compressed and normalized to `[0, 1]`.
pub fn render_pattern<R: Rng + ?Sized>(
    intensity: &[f64],
    beam: BeamIntensity,
    rng: &mut R,
) -> Vec<f32> {
    let total: f64 = intensity.iter().sum();
    let scale = if total > 0.0 {
        beam.photon_budget() / total
    } else {
        0.0
    };
    let mut img: Vec<f32> = intensity
        .iter()
        .map(|&i| {
            let lambda = i * scale;
            let counts = sample_poisson(lambda, rng);
            (counts).ln_1p() as f32
        })
        .collect();
    let max = img.iter().cloned().fold(0.0f32, f32::max);
    if max > 0.0 {
        for v in &mut img {
            *v /= max;
        }
    }
    img
}

/// Poisson sample robust across the full λ range (rand_distr panics on
/// λ = 0 and loses precision for enormous λ, where the normal
/// approximation is exact for our purposes).
fn sample_poisson<R: Rng + ?Sized>(lambda: f64, rng: &mut R) -> f64 {
    if lambda <= 0.0 {
        return 0.0;
    }
    if lambda > 1e6 {
        // Normal approximation N(λ, λ).
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
        let z = (-2.0 * u1.ln()).sqrt() * u2.cos();
        return (lambda + z * lambda.sqrt()).max(0.0);
    }
    // Poisson::new only rejects non-positive or non-finite lambda, both
    // excluded by the guards above.
    let Ok(dist) = Poisson::new(lambda) else {
        unreachable!("lambda {lambda} is positive and finite")
    };
    dist.sample(rng)
}

/// Pearson correlation between two images — used to quantify the
/// signal-to-noise relationship in tests and benches.
pub fn correlation(a: &[f32], b: &[f32]) -> f64 {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    let ma = a.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
    let mb = b.iter().map(|&v| f64::from(v)).sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let dx = f64::from(x) - ma;
        let dy = f64::from(y) - mb;
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conformer::{ConformerPair, ProteinParams};
    use crate::geometry::random_rotation;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn pair() -> ConformerPair {
        ConformerPair::generate(&ProteinParams::default(), 11)
    }

    #[test]
    fn central_pixel_carries_peak_intensity() {
        // At q = 0 all scatterers add in phase: I(0) = N².
        let p = pair();
        let det = 33; // odd so a pixel sits exactly at q = 0
        let img = diffraction_intensity(&p.conf_a, &Rotation::identity(), det, 0.25);
        // detector center: with half = det/2 = 16.5, pixel where q ≈ 0 is
        // index round(16.5) — search the max instead of hardcoding.
        let max = img.iter().cloned().fold(0.0, f64::max);
        let n = p.conf_a.atoms.len() as f64;
        assert!(
            (max - n * n).abs() / (n * n) < 0.05,
            "max {max} vs N² {}",
            n * n
        );
    }

    #[test]
    fn intensity_is_nonnegative() {
        let p = pair();
        let mut r = rng(1);
        let img = diffraction_intensity(&p.conf_b, &random_rotation(&mut r), 16, 0.3);
        assert!(img.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn conformers_produce_different_patterns_at_same_orientation() {
        let p = pair();
        let rot = Rotation::identity();
        let a = diffraction_intensity(&p.conf_a, &rot, 24, 0.3);
        let b = diffraction_intensity(&p.conf_b, &rot, 24, 0.3);
        let fa: Vec<f32> = a.iter().map(|&v| v as f32).collect();
        let fb: Vec<f32> = b.iter().map(|&v| v as f32).collect();
        let corr = correlation(&fa, &fb);
        assert!(corr < 0.995, "patterns too similar: corr {corr}");
    }

    #[test]
    fn higher_beam_intensity_means_higher_snr() {
        let p = pair();
        let clean = diffraction_intensity(&p.conf_a, &Rotation::identity(), 24, 0.3);
        let reference: Vec<f32> = {
            // Noise-free log image as ground truth.
            let max = clean.iter().cloned().fold(0.0, f64::max);
            clean
                .iter()
                .map(|&v| (v / max * 1e6).ln_1p() as f32)
                .collect()
        };
        let mut r = rng(2);
        let mut corr_for = |beam: BeamIntensity| {
            let mut acc = 0.0;
            for _ in 0..8 {
                let noisy = render_pattern(&clean, beam, &mut r);
                acc += correlation(&noisy, &reference);
            }
            acc / 8.0
        };
        let low = corr_for(BeamIntensity::Low);
        let med = corr_for(BeamIntensity::Medium);
        let high = corr_for(BeamIntensity::High);
        assert!(
            low < med && med < high,
            "SNR ordering violated: {low} {med} {high}"
        );
    }

    #[test]
    fn rendered_images_are_normalized() {
        let p = pair();
        let clean = diffraction_intensity(&p.conf_a, &Rotation::identity(), 16, 0.3);
        let img = render_pattern(&clean, BeamIntensity::Medium, &mut rng(3));
        assert_eq!(img.len(), 256);
        assert!(img.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!((img.iter().cloned().fold(0.0f32, f32::max) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn zero_intensity_renders_black() {
        let img = render_pattern(&[0.0; 16], BeamIntensity::High, &mut rng(4));
        assert!(img.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn sample_poisson_mean_tracks_lambda() {
        let mut r = rng(5);
        for &lambda in &[0.5, 20.0, 2e6] {
            let n = 3000;
            let mean: f64 = (0..n).map(|_| sample_poisson(lambda, &mut r)).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.12,
                "lambda {lambda}: mean {mean}"
            );
        }
        assert_eq!(sample_poisson(0.0, &mut r), 0.0);
    }

    #[test]
    fn correlation_bounds() {
        let a = vec![1.0f32, 2.0, 3.0, 4.0];
        let b: Vec<f32> = a.iter().map(|v| v * 2.0 + 1.0).collect();
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-9);
        let c: Vec<f32> = a.iter().map(|v| -v).collect();
        assert!((correlation(&a, &c) + 1.0).abs() < 1e-9);
        assert_eq!(correlation(&a, &[1.0; 4]), 0.0); // degenerate
    }
}
