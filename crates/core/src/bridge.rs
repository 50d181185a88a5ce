//! Decoded-genome → trainable-network bridge.
//!
//! `a4nn-genome` and `a4nn-nn` are deliberately decoupled (the genome
//! crate describes architectures, the NN crate trains them); this module
//! converts an [`ArchSpec`] into the [`NetSpec`] the substrate builds,
//! compacting inactive nodes out of each phase DAG.

use a4nn_genome::{ArchSpec, NodeOp};
use a4nn_nn::{NetSpec, PhaseNetSpec};

/// Convert a decoded architecture into a buildable network spec.
///
/// Inactive genome nodes are dropped and the remaining nodes reindexed;
/// degenerate (all-inactive) phases become a stem + single default conv,
/// matching the decoder's documented semantics.
pub fn netspec_from_arch(arch: &ArchSpec) -> NetSpec {
    let phases = arch
        .phases
        .iter()
        .map(|p| {
            let NodeOp::ConvBnRelu { kernel } = p.op;
            if p.is_degenerate() {
                return PhaseNetSpec::degenerate(p.out_channels, kernel);
            }
            // Reindex active nodes densely.
            let mut dense_index = vec![usize::MAX; p.nodes];
            let mut next = 0usize;
            for (slot, &active) in dense_index.iter_mut().zip(&p.active) {
                if active {
                    *slot = next;
                    next += 1;
                }
            }
            let node_inputs: Vec<Vec<usize>> = (0..p.nodes)
                .filter(|&i| p.active[i])
                .map(|i| p.inputs[i].iter().map(|&j| dense_index[j]).collect())
                .collect();
            let leaves: Vec<usize> = p.leaves.iter().map(|&l| dense_index[l]).collect();
            PhaseNetSpec {
                out_channels: p.out_channels,
                kernel,
                node_inputs,
                leaves,
                skip: p.skip,
            }
        })
        .collect();
    NetSpec {
        input_channels: arch.input_channels,
        phases,
        num_classes: arch.num_classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4nn_genome::{Genome, SearchSpace};
    use a4nn_nn::{Network, Tensor4, Workspace};
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        SearchSpace::paper_defaults()
    }

    #[test]
    fn every_random_genome_builds_and_runs() {
        let s = space();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        for _ in 0..24 {
            let genome = s.random_genome(&mut rng);
            let spec = netspec_from_arch(&s.decode(&genome));
            let mut net = Network::new(&spec, &mut rng);
            let x = Tensor4::zeros(2, 1, 16, 16);
            let logits = net.forward_ws(&x, true, &mut Workspace::new());
            assert_eq!((logits.rows, logits.cols), (2, 2));
        }
    }

    #[test]
    fn all_zero_genome_becomes_degenerate_phases() {
        let s = space();
        let genome = Genome::from_compact_string("0000000-0000000-0000000").unwrap();
        let spec = netspec_from_arch(&s.decode(&genome));
        for p in &spec.phases {
            assert_eq!(p.node_inputs.len(), 1);
            assert_eq!(p.leaves, vec![0]);
            assert!(!p.skip);
        }
    }

    #[test]
    fn compaction_preserves_edge_structure() {
        // Phase with only edge 0→2 active (nodes 1,3 isolated): compacted
        // to nodes [0,2] → dense [0,1], edge 0→1, leaf 1.
        let s = space();
        let mut bits = vec![false; 7];
        bits[a4nn_genome::PhaseGenome::edge_bit_index(0, 2)] = true;
        let genome = Genome {
            phases: vec![
                a4nn_genome::PhaseGenome::new(4, bits),
                a4nn_genome::PhaseGenome::zeros(4),
                a4nn_genome::PhaseGenome::zeros(4),
            ],
        };
        let spec = netspec_from_arch(&s.decode(&genome));
        assert_eq!(spec.phases[0].node_inputs, vec![vec![], vec![0]]);
        assert_eq!(spec.phases[0].leaves, vec![1]);
    }

    #[test]
    fn flops_estimate_tracks_exact_network_flops() {
        // The genome-level estimator and the layer-exact network count
        // agree within the bookkeeping terms (pooling/joins ~ few %).
        let s = space();
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        for _ in 0..8 {
            let genome = s.random_genome(&mut rng);
            let arch = s.decode(&genome);
            let estimate = a4nn_genome::estimate_flops(&arch, (16, 16));
            let net = Network::new(&netspec_from_arch(&arch), &mut rng);
            let exact = net.flops((16, 16));
            let rel = (estimate - exact).abs() / exact;
            assert!(
                rel < 0.05,
                "estimate {estimate} vs exact {exact} (rel {rel})"
            );
        }
    }
}
