//! Dense autoencoder for feature extraction from diffraction patterns.
//!
//! XPSI compresses each image into a low-dimensional latent code with an
//! autoencoder trained to reconstruct its input; the latent codes feed the
//! kNN classifier. Architecture: `d → hidden → latent → hidden → d` with
//! ReLU on the hidden layers and an MSE reconstruction objective.

use a4nn_nn::layers::Dense;
use a4nn_nn::tensor::Tensor2;
use a4nn_nn::Workspace;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Autoencoder hyperparameters.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AutoencoderConfig {
    /// Input dimensionality (flattened image size).
    pub input_dim: usize,
    /// Hidden width.
    pub hidden_dim: usize,
    /// Latent (feature) width.
    pub latent_dim: usize,
    /// SGD learning rate.
    pub lr: f32,
}

impl AutoencoderConfig {
    /// Defaults scaled for `detector × detector` images.
    pub fn for_input(input_dim: usize) -> Self {
        AutoencoderConfig {
            input_dim,
            hidden_dim: (input_dim / 4).max(16),
            latent_dim: (input_dim / 16).max(8),
            lr: 0.05,
        }
    }
}

/// ReLU on 2-D activations with cached mask (the `a4nn-nn` ReLU is 4-D).
#[derive(Debug, Clone, Default)]
struct Relu2 {
    mask: Vec<bool>,
}

impl Relu2 {
    fn forward(&mut self, x: &Tensor2) -> Tensor2 {
        let mut out = x.clone();
        self.mask.clear();
        self.mask.reserve(out.len());
        for v in out.data_mut() {
            let on = *v > 0.0;
            self.mask.push(on);
            if !on {
                *v = 0.0;
            }
        }
        out
    }

    fn backward(&self, grad: &Tensor2) -> Tensor2 {
        let mut g = grad.clone();
        for (v, &on) in g.data_mut().iter_mut().zip(&self.mask) {
            if !on {
                *v = 0.0;
            }
        }
        g
    }
}

/// The trainable autoencoder.
#[derive(Debug, Clone)]
pub struct Autoencoder {
    config: AutoencoderConfig,
    enc1: Dense,
    enc2: Dense,
    dec1: Dense,
    dec2: Dense,
    relu_e: Relu2,
    relu_d: Relu2,
    /// Scratch for the dense layers; a clone starts with an empty pool.
    ws: Workspace,
}

impl Autoencoder {
    /// Seeded construction.
    pub fn new<R: Rng + ?Sized>(config: AutoencoderConfig, rng: &mut R) -> Self {
        Autoencoder {
            enc1: Dense::new(config.input_dim, config.hidden_dim, rng),
            enc2: Dense::new(config.hidden_dim, config.latent_dim, rng),
            dec1: Dense::new(config.latent_dim, config.hidden_dim, rng),
            dec2: Dense::new(config.hidden_dim, config.input_dim, rng),
            relu_e: Relu2::default(),
            relu_d: Relu2::default(),
            ws: Workspace::new(),
            config,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &AutoencoderConfig {
        &self.config
    }

    /// Encode a batch of flattened images into latent codes (inference:
    /// no caches kept for backward).
    pub fn encode(&mut self, x: &Tensor2) -> Tensor2 {
        self.latent(x, false)
    }

    /// `enc1 → ReLU → enc2`; `training` keeps the caches backward needs.
    fn latent(&mut self, x: &Tensor2, training: bool) -> Tensor2 {
        let a = self.enc1.forward_ws(x, training, &mut self.ws);
        let h = self.relu_e.forward(&a);
        self.ws.give2(a);
        self.enc2.forward_ws(&h, training, &mut self.ws)
    }

    /// Full forward pass returning the reconstruction; `training` keeps
    /// the caches a following [`train_batch`](Self::train_batch) step
    /// needs.
    pub fn forward(&mut self, x: &Tensor2, training: bool) -> Tensor2 {
        let z = self.latent(x, training);
        let a = self.dec1.forward_ws(&z, training, &mut self.ws);
        self.ws.give2(z);
        let h = self.relu_d.forward(&a);
        self.ws.give2(a);
        self.dec2.forward_ws(&h, training, &mut self.ws)
    }

    /// One SGD step on a batch: returns the MSE reconstruction loss.
    pub fn train_batch(&mut self, x: &Tensor2) -> f32 {
        let recon = self.forward(x, true);
        let n = recon.len().max(1) as f32;
        let mut loss = 0.0f32;
        let mut grad = Tensor2::zeros(recon.rows, recon.cols);
        for i in 0..recon.len() {
            let d = recon.data()[i] - x.data()[i];
            loss += d * d;
            grad.data_mut()[i] = 2.0 * d / n;
        }
        loss /= n;
        // Backward through dec2 → ReLU → dec1 → enc2 → ReLU → enc1.
        let ws = &mut self.ws;
        let g = self.dec2.backward_ws(&grad, ws);
        let g = self.relu_d.backward(&g);
        let g = self.dec1.backward_ws(&g, ws);
        let g = self.enc2.backward_ws(&g, ws);
        let g = self.relu_e.backward(&g);
        let g = self.enc1.backward_ws(&g, ws);
        ws.give2(g);
        ws.give2(recon);
        let lr = self.config.lr;
        for layer in [
            &mut self.enc1,
            &mut self.enc2,
            &mut self.dec1,
            &mut self.dec2,
        ] {
            layer.visit_params(&mut |p, g| {
                for (pi, gi) in p.iter_mut().zip(g.iter_mut()) {
                    *pi -= lr * *gi;
                    *gi = 0.0;
                }
            });
        }
        loss
    }

    /// Mean reconstruction error on a batch (no training).
    pub fn reconstruction_error(&mut self, x: &Tensor2) -> f32 {
        let recon = self.forward(x, false);
        let n = recon.len().max(1) as f32;
        recon
            .data()
            .iter()
            .zip(x.data())
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    fn toy_batch(n: usize, d: usize, seed: u64) -> Tensor2 {
        let mut r = rng(seed);
        let mut t = Tensor2::zeros(n, d);
        for v in t.data_mut() {
            *v = r.gen_range(0.0..1.0);
        }
        t
    }

    #[test]
    fn shapes_flow_through() {
        let cfg = AutoencoderConfig {
            input_dim: 64,
            hidden_dim: 16,
            latent_dim: 4,
            lr: 0.01,
        };
        let mut ae = Autoencoder::new(cfg, &mut rng(1));
        let x = toy_batch(5, 64, 2);
        let z = ae.encode(&x);
        assert_eq!((z.rows, z.cols), (5, 4));
        let recon = ae.forward(&x, false);
        assert_eq!((recon.rows, recon.cols), (5, 64));
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let cfg = AutoencoderConfig {
            input_dim: 16,
            hidden_dim: 12,
            latent_dim: 6,
            lr: 0.05,
        };
        let mut ae = Autoencoder::new(cfg, &mut rng(3));
        let x = toy_batch(32, 16, 4);
        let before = ae.reconstruction_error(&x);
        for _ in 0..400 {
            let _ = ae.train_batch(&x);
        }
        let after = ae.reconstruction_error(&x);
        assert!(
            after < before * 0.5,
            "reconstruction error {before} -> {after}"
        );
    }

    #[test]
    fn latent_codes_separate_distinct_clusters() {
        // Two well-separated input clusters should remain separated in
        // latent space after training.
        let cfg = AutoencoderConfig {
            input_dim: 8,
            hidden_dim: 8,
            latent_dim: 2,
            lr: 0.05,
        };
        let mut ae = Autoencoder::new(cfg, &mut rng(5));
        let mut x = Tensor2::zeros(16, 8);
        for i in 0..16 {
            for j in 0..8 {
                let base = if i % 2 == 0 { 0.9 } else { 0.1 };
                x.set(i, j, base + (i + j) as f32 * 1e-3);
            }
        }
        for _ in 0..300 {
            let _ = ae.train_batch(&x);
        }
        let z = ae.encode(&x);
        // Mean latent distance between classes exceeds within-class spread.
        let mut centroid = [vec![0.0f32; 2], vec![0.0f32; 2]];
        for i in 0..16 {
            for (j, c) in centroid[i % 2].iter_mut().enumerate() {
                *c += z.get(i, j) / 8.0;
            }
        }
        let between: f32 = (0..2)
            .map(|j| (centroid[0][j] - centroid[1][j]).powi(2))
            .sum::<f32>()
            .sqrt();
        assert!(between > 1e-3, "between-class latent distance {between}");
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = AutoencoderConfig::for_input(32);
        let mut a = Autoencoder::new(cfg, &mut rng(6));
        let mut b = Autoencoder::new(cfg, &mut rng(6));
        let x = toy_batch(3, 32, 7);
        assert_eq!(a.encode(&x).data(), b.encode(&x).data());
    }

    #[test]
    fn config_defaults_scale_with_input() {
        let c = AutoencoderConfig::for_input(256);
        assert_eq!(c.hidden_dim, 64);
        assert_eq!(c.latent_dim, 16);
        let tiny = AutoencoderConfig::for_input(16);
        assert_eq!(tiny.hidden_dim, 16);
        assert_eq!(tiny.latent_dim, 8);
    }
}
