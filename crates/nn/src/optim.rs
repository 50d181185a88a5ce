//! Optimizers. NSGA-Net trains its candidates with SGD + momentum — the
//! paper's configuration.

use crate::graph::Network;

/// Stochastic gradient descent with classical momentum and decoupled L2
/// weight decay. Velocity buffers are keyed by parameter-visit order,
/// which is stable for a given network.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// L2 weight-decay coefficient (0 disables).
    pub weight_decay: f32,
    velocities: Vec<Vec<f32>>,
}

impl Sgd {
    /// New optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd {
            lr,
            momentum,
            weight_decay,
            velocities: Vec::new(),
        }
    }

    /// Apply one update step using the gradients accumulated in `net`,
    /// then zero the gradients.
    pub fn step(&mut self, net: &mut Network) {
        let mut slot = 0usize;
        let lr = self.lr;
        let momentum = self.momentum;
        let wd = self.weight_decay;
        let velocities = &mut self.velocities;
        net.visit_params(&mut |params, grads| {
            if velocities.len() <= slot {
                velocities.push(vec![0.0; params.len()]);
            }
            let vel = &mut velocities[slot];
            debug_assert_eq!(vel.len(), params.len(), "parameter set changed size");
            for i in 0..params.len() {
                let g = grads[i] + wd * params[i];
                vel[i] = momentum * vel[i] + g;
                params[i] -= lr * vel[i];
                grads[i] = 0.0;
            }
            slot += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{NetSpec, Network, PhaseNetSpec};
    use crate::loss::cross_entropy_ws;
    use crate::tensor::Tensor4;
    use crate::workspace::Workspace;
    use rand::SeedableRng;

    fn net(seed: u64) -> Network {
        let spec = NetSpec {
            input_channels: 1,
            phases: vec![PhaseNetSpec::degenerate(4, 3)],
            num_classes: 2,
        };
        Network::new(&spec, &mut rand::rngs::StdRng::seed_from_u64(seed))
    }

    fn snapshot(net: &mut Network) -> Vec<f32> {
        let mut all = Vec::new();
        net.visit_params(&mut |p, _| all.extend_from_slice(p));
        all
    }

    fn one_step(net: &mut Network, opt: &mut Sgd) {
        let x = Tensor4::from_vec(2, 1, 4, 4, (0..32).map(|i| i as f32 / 31.0).collect());
        let mut ws = Workspace::new();
        let logits = net.forward_ws(&x, true, &mut ws);
        let out = cross_entropy_ws(&logits, &[0, 1], &mut ws);
        net.backward_ws(&out.dlogits, &mut ws);
        opt.step(net);
    }

    #[test]
    fn step_changes_parameters_and_clears_grads() {
        let mut n = net(1);
        let before = snapshot(&mut n);
        let mut opt = Sgd::new(0.1, 0.9, 0.0);
        one_step(&mut n, &mut opt);
        let after = snapshot(&mut n);
        assert_ne!(before, after);
        // Gradients must be zeroed after the step.
        n.visit_params(&mut |_, g| assert!(g.iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn weight_decay_shrinks_weights_without_gradients() {
        let mut n = net(2);
        let before: f32 = snapshot(&mut n).iter().map(|v| v * v).sum();
        // No forward/backward: gradients are zero, decay still applies.
        let mut opt = Sgd::new(0.1, 0.0, 0.1);
        opt.step(&mut n);
        let after: f32 = snapshot(&mut n).iter().map(|v| v * v).sum();
        assert!(after < before);
    }

    #[test]
    fn momentum_accumulates_velocity() {
        // Two identical gradient applications move farther with momentum
        // than without.
        let run = |momentum: f32| {
            let mut n = net(3);
            let start = snapshot(&mut n);
            let mut opt = Sgd::new(0.01, momentum, 0.0);
            for _ in 0..5 {
                one_step(&mut n, &mut opt);
            }
            let end = snapshot(&mut n);
            start
                .iter()
                .zip(end)
                .map(|(a, b)| (a - b).abs() as f64)
                .sum::<f64>()
        };
        assert!(run(0.9) > run(0.0));
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn zero_lr_rejected() {
        let _ = Sgd::new(0.0, 0.9, 0.0);
    }
}
