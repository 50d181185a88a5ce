//! The full XPSI pipeline: autoencoder training → latent encoding → kNN
//! classification, with wall-time measurement for Table 3.

use crate::autoencoder::{Autoencoder, AutoencoderConfig};
use crate::knn::KnnClassifier;
use a4nn_nn::tensor::{Tensor2, Tensor4};
use a4nn_nn::Dataset;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct XpsiConfig {
    /// Autoencoder training epochs.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Neighbors for classification (XPSI uses a small odd k).
    pub k: usize,
    /// RNG seed.
    pub seed: u64,
    /// Autoencoder widths; `None` derives them from the image size.
    pub autoencoder: Option<AutoencoderConfig>,
}

impl Default for XpsiConfig {
    fn default() -> Self {
        XpsiConfig {
            epochs: 20,
            batch_size: 32,
            k: 5,
            seed: 0,
            autoencoder: None,
        }
    }
}

/// Outcome of one XPSI run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XpsiResult {
    /// Test classification accuracy (%).
    pub accuracy: f64,
    /// Training accuracy (%), for overfitting diagnostics.
    pub train_accuracy: f64,
    /// Measured wall seconds for the whole pipeline.
    pub wall_seconds: f64,
    /// Final mean reconstruction error of the autoencoder.
    pub reconstruction_error: f32,
    /// Latent dimensionality used.
    pub latent_dim: usize,
}

/// The framework object.
#[derive(Debug, Clone, Default)]
pub struct XpsiFramework {
    config: XpsiConfig,
}

fn dataset_as_matrix(d: &Dataset) -> Tensor2 {
    Tensor2::from_vec(d.len(), d.sample_stride(), d.images.clone())
}

impl XpsiFramework {
    /// New framework with the given configuration.
    pub fn new(config: XpsiConfig) -> Self {
        XpsiFramework { config }
    }

    /// Train on `train`, evaluate on `test`.
    pub fn run(&self, train: &Dataset, test: &Dataset) -> XpsiResult {
        assert!(!train.is_empty(), "XPSI needs training data");
        let t0 = Instant::now();
        let dim = train.sample_stride();
        let ae_config = self
            .config
            .autoencoder
            .unwrap_or_else(|| AutoencoderConfig::for_input(dim));
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let mut ae = Autoencoder::new(ae_config, &mut rng);

        // Unsupervised feature learning.
        let (mut batch, mut labels) = (Tensor4::zeros(0, 0, 0, 0), Vec::new());
        for _ in 0..self.config.epochs {
            let mut batches = train.shuffled_batches(self.config.batch_size, &mut rng);
            while batches.next_into(&mut batch, &mut labels) {
                let flat = Tensor2::from_vec(batch.n, dim, batch.data().to_vec());
                let _ = ae.train_batch(&flat);
            }
        }
        let train_matrix = dataset_as_matrix(train);
        let reconstruction_error = ae.reconstruction_error(&train_matrix);

        // Encode and classify.
        let train_latent = ae.encode(&train_matrix);
        let knn = KnnClassifier::fit(
            self.config.k,
            ae_config.latent_dim,
            train_latent.data().to_vec(),
            train.labels.clone(),
        );
        let train_accuracy = knn.accuracy(train_latent.data(), &train.labels);
        let accuracy = if test.is_empty() {
            0.0
        } else {
            let test_latent = ae.encode(&dataset_as_matrix(test));
            knn.accuracy(test_latent.data(), &test.labels)
        };
        XpsiResult {
            accuracy,
            train_accuracy,
            wall_seconds: t0.elapsed().as_secs_f64(),
            reconstruction_error,
            latent_dim: ae_config.latent_dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4nn_xfel::{generate_split, BeamIntensity, XfelConfig};

    #[test]
    fn classifies_high_beam_diffraction_accurately() {
        let (train, test) = generate_split(&XfelConfig::default(), BeamIntensity::High, 150, 1);
        let result = XpsiFramework::new(XpsiConfig {
            epochs: 10,
            ..Default::default()
        })
        .run(&train, &test);
        assert!(
            result.accuracy > 72.0,
            "high-beam XPSI accuracy {}",
            result.accuracy
        );
        assert!(result.wall_seconds > 0.0);
        assert!(result.reconstruction_error.is_finite());
    }

    #[test]
    fn low_beam_is_harder_than_high_beam() {
        let cfg = XfelConfig::default();
        let run = |beam| {
            let (train, test) = generate_split(&cfg, beam, 60, 2);
            XpsiFramework::new(XpsiConfig {
                epochs: 10,
                ..Default::default()
            })
            .run(&train, &test)
            .accuracy
        };
        let low = run(BeamIntensity::Low);
        let high = run(BeamIntensity::High);
        assert!(
            low <= high + 5.0,
            "noise should not help kNN: low {low} vs high {high}"
        );
    }

    #[test]
    fn empty_test_set_reports_zero_accuracy() {
        let (train, _) = generate_split(&XfelConfig::default(), BeamIntensity::High, 10, 3);
        let empty = a4nn_nn::Dataset::empty(1, 16, 16);
        let result = XpsiFramework::new(XpsiConfig {
            epochs: 2,
            ..Default::default()
        })
        .run(&train, &empty);
        assert_eq!(result.accuracy, 0.0);
        assert!(result.train_accuracy > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let (train, test) = generate_split(&XfelConfig::default(), BeamIntensity::Medium, 20, 4);
        let cfg = XpsiConfig {
            epochs: 3,
            seed: 9,
            ..Default::default()
        };
        let a = XpsiFramework::new(cfg).run(&train, &test);
        let b = XpsiFramework::new(cfg).run(&train, &test);
        assert_eq!(a.accuracy, b.accuracy);
        assert_eq!(a.reconstruction_error, b.reconstruction_error);
    }
}
