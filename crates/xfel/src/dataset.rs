//! Dataset generation: balanced, seeded, thread-parallel rendering of
//! labeled diffraction images into an [`a4nn_nn::Dataset`].

use crate::beam::BeamIntensity;
use crate::conformer::{ConformerPair, ProteinParams};
use crate::diffraction::{diffraction_intensity, render_pattern};
use crate::geometry::random_rotation;
use a4nn_nn::par::par_map;
use a4nn_nn::Dataset;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Configuration of the simulated XFEL experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XfelConfig {
    /// Detector side in pixels (images are `detector × detector`).
    pub detector: usize,
    /// Momentum-transfer step per pixel.
    pub q_step: f64,
    /// Synthetic protein geometry.
    pub protein: ProteinParams,
    /// Seed for the conformer pair (the "protein structure").
    pub protein_seed: u64,
}

impl Default for XfelConfig {
    fn default() -> Self {
        XfelConfig {
            detector: 16,
            q_step: 0.10,
            protein: ProteinParams::default(),
            protein_seed: 0xEF2,
        }
    }
}

/// Generate `n_per_class` images per conformation at the given beam
/// intensity. Classes alternate (A, B, A, B, …) so positional splits stay
/// balanced; every image gets an independent orientation and noise stream
/// derived from `seed` and its index, making generation order-independent
/// and reproducible.
pub fn generate_dataset(
    config: &XfelConfig,
    beam: BeamIntensity,
    n_per_class: usize,
    seed: u64,
) -> Dataset {
    let pair = ConformerPair::generate(&config.protein, config.protein_seed);
    let total = n_per_class * 2;
    let det = config.detector;
    let images: Vec<(Vec<f32>, usize)> = par_map(total, |i| {
        let label = i % 2;
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        );
        let orientation = random_rotation(&mut rng);
        let intensity =
            diffraction_intensity(pair.by_label(label), &orientation, det, config.q_step);
        (render_pattern(&intensity, beam, &mut rng), label)
    });
    let mut dataset = Dataset::empty(1, det, det);
    for (pixels, label) in &images {
        dataset.push(pixels, *label);
    }
    dataset
}

/// Generate a dataset and apply the paper's 80/20 train/test split.
pub fn generate_split(
    config: &XfelConfig,
    beam: BeamIntensity,
    n_per_class: usize,
    seed: u64,
) -> (Dataset, Dataset) {
    generate_dataset(config, beam, n_per_class, seed).split(0.2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> XfelConfig {
        XfelConfig::default()
    }

    #[test]
    fn dataset_is_balanced_and_sized() {
        let d = generate_dataset(&cfg(), BeamIntensity::Medium, 8, 1);
        assert_eq!(d.len(), 16);
        assert_eq!(d.class_counts(), vec![8, 8]);
        assert_eq!(d.sample_stride(), 16 * 16);
    }

    #[test]
    fn split_is_80_20_and_balanced() {
        let (train, test) = generate_split(&cfg(), BeamIntensity::High, 20, 2);
        assert_eq!(train.len(), 32);
        assert_eq!(test.len(), 8);
        // Alternating labels keep both splits balanced.
        assert_eq!(train.class_counts(), vec![16, 16]);
        assert_eq!(test.class_counts(), vec![4, 4]);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = generate_dataset(&cfg(), BeamIntensity::Low, 4, 3);
        let b = generate_dataset(&cfg(), BeamIntensity::Low, 4, 3);
        assert_eq!(a.images, b.images);
        let c = generate_dataset(&cfg(), BeamIntensity::Low, 4, 4);
        assert_ne!(a.images, c.images);
    }

    #[test]
    fn generated_bytes_are_pinned() {
        // The images depend on `(config, beam, n, seed)` only, never on
        // how `par_map` splits the range across threads. The config is
        // spelled out, so a change to `XfelConfig::default()` cannot move
        // the checksum unnoticed.
        let config = XfelConfig {
            detector: 16,
            q_step: 0.10,
            protein: ProteinParams {
                atoms_per_domain: 60,
                domain_radius: 4.0,
                domain_separation: 12.0,
                hinge_angle_deg: 90.0,
            },
            protein_seed: 0xEF2,
        };
        let d = generate_dataset(&config, BeamIntensity::Medium, 5, 2023);
        let checksum = d.images.iter().fold(0u64, |h, v| {
            h.wrapping_mul(31).wrapping_add(u64::from(v.to_bits()))
        });
        assert_eq!(checksum, 4_163_222_098_281_871_790);
    }

    #[test]
    fn images_are_normalized() {
        let d = generate_dataset(&cfg(), BeamIntensity::Medium, 4, 5);
        assert!(d.images.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn different_beams_differ_in_noise() {
        // Same seed, different beams ⇒ same orientations, different noise.
        let low = generate_dataset(&cfg(), BeamIntensity::Low, 4, 6);
        let high = generate_dataset(&cfg(), BeamIntensity::High, 4, 6);
        assert_ne!(low.images, high.images);
    }

    #[test]
    fn classes_are_distinguishable_by_mean_pattern() {
        // Average many same-class images: class means should differ more
        // between classes than within a class (signal exists for the NN).
        let d = generate_dataset(&cfg(), BeamIntensity::High, 64, 7);
        let stride = d.sample_stride();
        let mut mean = [vec![0.0f64; stride], vec![0.0f64; stride]];
        let mut count = [0usize; 2];
        for (i, &label) in d.labels.iter().enumerate() {
            count[label] += 1;
            for (m, &v) in mean[label]
                .iter_mut()
                .zip(&d.images[i * stride..(i + 1) * stride])
            {
                *m += f64::from(v);
            }
        }
        for (m, &c) in mean.iter_mut().zip(&count) {
            m.iter_mut().for_each(|v| *v /= c as f64);
        }
        let dist: f64 = mean[0]
            .iter()
            .zip(&mean[1])
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt();
        assert!(dist > 0.05, "class mean separation {dist}");
    }
}
