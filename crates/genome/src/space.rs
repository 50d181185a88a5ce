//! The search space: sampling, mutation, crossover, and decoding.

use crate::arch::{decode_genome, ArchSpec, NodeOp};
use crate::encoding::{Genome, PhaseGenome};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Variation operator settings (NSGA-Net uses bit-flip mutation and
/// crossover on the bit strings).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct VariationConfig {
    /// Per-bit flip probability applied to every offspring.
    pub mutation_rate: f64,
    /// Probability of applying crossover at all (otherwise clone parent A
    /// before mutation).
    pub crossover_rate: f64,
    /// Probability of uniform crossover; otherwise one-point.
    pub uniform_crossover: f64,
}

impl Default for VariationConfig {
    fn default() -> Self {
        VariationConfig {
            mutation_rate: 0.04,
            crossover_rate: 0.9,
            uniform_crossover: 0.5,
        }
    }
}

/// The NSGA-Net macro search space: `P` phases of `K` nodes with fixed
/// per-phase channel widths.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Nodes per phase (`K`), Table 2: 4.
    pub nodes_per_phase: usize,
    /// Channel width of each phase; its length sets the phase count.
    pub channels: Vec<usize>,
    /// Input image channels (1 for diffraction patterns).
    pub input_channels: usize,
    /// Classifier classes (2 conformations).
    pub num_classes: usize,
    /// Node convolution kernel.
    pub kernel: usize,
    /// Probability that a random genome sets each bit (densities near 0.5
    /// reproduce NSGA-Net's random initial populations).
    pub init_density: f64,
    /// Variation operators.
    pub variation: VariationConfig,
}

impl SearchSpace {
    /// The space used in the paper's evaluation: 3 phases of 4 nodes,
    /// widths 8/16/32, grayscale input, 2 classes, 3×3 kernels.
    pub fn paper_defaults() -> Self {
        SearchSpace {
            nodes_per_phase: 4,
            channels: vec![8, 16, 32],
            input_channels: 1,
            num_classes: 2,
            kernel: 3,
            init_density: 0.5,
            variation: VariationConfig::default(),
        }
    }

    /// Number of phases.
    pub fn phases(&self) -> usize {
        self.channels.len()
    }

    /// Sample a random genome.
    pub fn random_genome<R: Rng + ?Sized>(&self, rng: &mut R) -> Genome {
        let phases = (0..self.phases())
            .map(|_| {
                let bits = (0..PhaseGenome::bits_for(self.nodes_per_phase))
                    .map(|_| rng.gen_bool(self.init_density))
                    .collect();
                PhaseGenome::new(self.nodes_per_phase, bits)
            })
            .collect();
        Genome { phases }
    }

    /// Bit-flip mutation in place.
    pub fn mutate<R: Rng + ?Sized>(&self, genome: &mut Genome, rng: &mut R) {
        for phase in &mut genome.phases {
            for bit in &mut phase.bits {
                if rng.gen_bool(self.variation.mutation_rate) {
                    *bit = !*bit;
                }
            }
        }
    }

    /// Uniform crossover: each bit drawn from either parent with equal
    /// probability.
    pub fn crossover_uniform<R: Rng + ?Sized>(
        &self,
        a: &Genome,
        b: &Genome,
        rng: &mut R,
    ) -> Genome {
        let (ab, bb) = (a.to_bits(), b.to_bits());
        assert_eq!(ab.len(), bb.len(), "parents from different spaces");
        let bits: Vec<bool> = ab
            .iter()
            .zip(&bb)
            .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
            .collect();
        self.genome_from_flat(&bits)
    }

    /// One-point crossover on the flattened bit string.
    pub fn crossover_one_point<R: Rng + ?Sized>(
        &self,
        a: &Genome,
        b: &Genome,
        rng: &mut R,
    ) -> Genome {
        let (ab, bb) = (a.to_bits(), b.to_bits());
        assert_eq!(ab.len(), bb.len(), "parents from different spaces");
        let point = rng.gen_range(1..ab.len());
        let bits: Vec<bool> = ab[..point].iter().chain(&bb[point..]).copied().collect();
        self.genome_from_flat(&bits)
    }

    /// NSGA-Net's full variation operator: (maybe) crossover, then bit-flip
    /// mutation.
    pub fn vary<R: Rng + ?Sized>(&self, a: &Genome, b: &Genome, rng: &mut R) -> Genome {
        let mut child = if rng.gen_bool(self.variation.crossover_rate) {
            if rng.gen_bool(self.variation.uniform_crossover) {
                self.crossover_uniform(a, b, rng)
            } else {
                self.crossover_one_point(a, b, rng)
            }
        } else {
            a.clone()
        };
        self.mutate(&mut child, rng);
        child
    }

    /// Decode a genome sampled from this space.
    pub fn decode(&self, genome: &Genome) -> ArchSpec {
        decode_genome(
            genome,
            self.input_channels,
            &self.channels,
            self.num_classes,
            NodeOp::ConvBnRelu {
                kernel: self.kernel,
            },
        )
    }

    fn genome_from_flat(&self, bits: &[bool]) -> Genome {
        let nodes: Vec<usize> = vec![self.nodes_per_phase; self.phases()];
        Genome::from_bits(&nodes, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(seed)
    }

    #[test]
    fn paper_space_shape() {
        let s = SearchSpace::paper_defaults();
        assert_eq!(s.phases(), 3);
    }

    #[test]
    fn random_genomes_fit_the_space() {
        let s = SearchSpace::paper_defaults();
        let mut r = rng(1);
        for _ in 0..32 {
            let g = s.random_genome(&mut r);
            assert_eq!(g.phases.len(), 3);
            assert_eq!(g.bit_len(), 21);
            let arch = s.decode(&g);
            assert_eq!(arch.phases.len(), 3);
        }
    }

    #[test]
    fn mutation_respects_rate_statistically() {
        let s = SearchSpace {
            variation: VariationConfig {
                mutation_rate: 0.5,
                ..Default::default()
            },
            ..SearchSpace::paper_defaults()
        };
        let mut r = rng(2);
        let original = s.random_genome(&mut r);
        let mut flips = 0;
        let trials = 200;
        for _ in 0..trials {
            let mut g = original.clone();
            s.mutate(&mut g, &mut r);
            flips += g
                .to_bits()
                .iter()
                .zip(original.to_bits())
                .filter(|(&a, b)| a != *b)
                .count();
        }
        let rate = flips as f64 / (trials * 21) as f64;
        assert!((rate - 0.5).abs() < 0.05, "empirical flip rate {rate}");
    }

    #[test]
    fn zero_mutation_rate_is_identity() {
        let s = SearchSpace {
            variation: VariationConfig {
                mutation_rate: 0.0,
                ..Default::default()
            },
            ..SearchSpace::paper_defaults()
        };
        let mut r = rng(3);
        let original = s.random_genome(&mut r);
        let mut g = original.clone();
        s.mutate(&mut g, &mut r);
        assert_eq!(g, original);
    }

    #[test]
    fn uniform_crossover_only_mixes_parent_bits() {
        let s = SearchSpace::paper_defaults();
        let mut r = rng(4);
        let a = s.random_genome(&mut r);
        let b = s.random_genome(&mut r);
        let child = s.crossover_uniform(&a, &b, &mut r);
        for ((ca, pa), pb) in child.to_bits().iter().zip(a.to_bits()).zip(b.to_bits()) {
            assert!(*ca == pa || *ca == pb);
        }
    }

    #[test]
    fn one_point_crossover_is_prefix_suffix() {
        let s = SearchSpace::paper_defaults();
        let mut r = rng(5);
        // Parents all-zero and all-one make the cut point visible.
        let zeros = Genome::from_bits(&[4, 4, 4], &[false; 21]);
        let ones = Genome::from_bits(&[4, 4, 4], &[true; 21]);
        let child = s.crossover_one_point(&zeros, &ones, &mut r);
        let bits = child.to_bits();
        let first_one = bits.iter().position(|&b| b).unwrap_or(bits.len());
        assert!(
            bits[first_one..].iter().all(|&b| b),
            "suffix after cut must be all ones: {bits:?}"
        );
        assert!(first_one >= 1, "cut point is at least 1");
    }

    #[test]
    fn vary_produces_space_sized_children() {
        let s = SearchSpace::paper_defaults();
        let mut r = rng(6);
        let a = s.random_genome(&mut r);
        let b = s.random_genome(&mut r);
        for _ in 0..16 {
            let child = s.vary(&a, &b, &mut r);
            assert_eq!(child.bit_len(), 21);
        }
    }

    #[test]
    fn decoding_random_genomes_never_panics_and_keeps_channel_chain() {
        let s = SearchSpace::paper_defaults();
        let mut r = rng(7);
        for _ in 0..64 {
            let arch = s.decode(&s.random_genome(&mut r));
            let mut in_ch = 1;
            for (p, phase) in arch.phases.iter().enumerate() {
                assert_eq!(phase.in_channels, in_ch, "phase {p}");
                in_ch = phase.out_channels;
            }
        }
    }
}
