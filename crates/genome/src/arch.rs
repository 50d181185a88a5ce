//! Decoded architecture specifications: the concrete phase DAGs a training
//! substrate instantiates from a genome.
//!
//! Decoding follows the Genetic-CNN/NSGA-Net macro rules:
//!
//! - every phase starts with a *stem* convolution that maps the incoming
//!   channel count to the phase's width;
//! - node `i` computes `op(Σ inputs)` where its inputs are the active nodes
//!   `j < i` with edge bit `j → i` set; an active node with no in-edges
//!   reads the stem output;
//! - nodes with no incident edges at all are *inactive* and dropped;
//! - the phase output sums every active node that has no active consumer
//!   (the DAG's leaves); an all-inactive phase degenerates to a single
//!   conv block on the stem output;
//! - the skip bit adds a residual connection from the stem output to the
//!   phase output;
//! - phases are separated by 2×2 max-pooling, and the network ends with
//!   global average pooling and a dense classifier.

use crate::encoding::{Genome, PhaseGenome};
use serde::{Deserialize, Serialize};

/// Operation performed by an active node. The macro space uses uniform
/// conv→BN→ReLU blocks; the kernel size is a search-space constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeOp {
    /// `kernel × kernel` convolution, stride 1, same padding, followed by
    /// batch normalization and ReLU.
    ConvBnRelu {
        /// Square kernel size (3 in NSGA-Net's macro space).
        kernel: usize,
    },
}

/// One decoded phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseSpec {
    /// Number of genome nodes `K` (active or not).
    pub nodes: usize,
    /// Per-node activity flag.
    pub active: Vec<bool>,
    /// Per-node list of active input node ids; empty for active nodes
    /// means "reads the stem output". Entries for inactive nodes are empty.
    pub inputs: Vec<Vec<usize>>,
    /// Active nodes with no active consumers; their sum is the phase
    /// output.
    pub leaves: Vec<usize>,
    /// Residual connection from stem output to phase output.
    pub skip: bool,
    /// Channels entering the phase (before the stem).
    pub in_channels: usize,
    /// Phase width: channels of the stem, every node, and the output.
    pub out_channels: usize,
    /// Node operation.
    pub op: NodeOp,
}

impl PhaseSpec {
    /// Number of active nodes.
    pub fn active_nodes(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Number of realized edges between active nodes.
    pub fn edge_count(&self) -> usize {
        self.inputs.iter().map(Vec::len).sum()
    }

    /// True when the phase decoded from an all-zero genome (single default
    /// conv block).
    pub fn is_degenerate(&self) -> bool {
        self.active_nodes() == 0
    }
}

/// A fully decoded architecture.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchSpec {
    /// The phases, input side first.
    pub phases: Vec<PhaseSpec>,
    /// Channels of the input image (1 for diffraction patterns).
    pub input_channels: usize,
    /// Number of output classes (2 conformations in the use case).
    pub num_classes: usize,
}

impl ArchSpec {
    /// One-line summary, e.g.
    /// `"3 phases | nodes 3/4/2 | edges 4/5/1 | skip 101"`.
    pub fn summary(&self) -> String {
        let nodes: Vec<String> = self
            .phases
            .iter()
            .map(|p| p.active_nodes().to_string())
            .collect();
        let edges: Vec<String> = self
            .phases
            .iter()
            .map(|p| p.edge_count().to_string())
            .collect();
        let skips: String = self
            .phases
            .iter()
            .map(|p| if p.skip { '1' } else { '0' })
            .collect();
        format!(
            "{} phases | nodes {} | edges {} | skip {}",
            self.phases.len(),
            nodes.join("/"),
            edges.join("/"),
            skips
        )
    }
}

/// Decode one phase genome at the given channel widths.
pub(crate) fn decode_phase(
    genome: &PhaseGenome,
    in_channels: usize,
    out_channels: usize,
    op: NodeOp,
) -> PhaseSpec {
    let k = genome.nodes;
    // A node is active iff it touches at least one edge.
    let mut active = vec![false; k];
    for i in 0..k {
        for j in 0..i {
            if genome.edge(j, i) {
                active[i] = true;
                active[j] = true;
            }
        }
    }
    let mut inputs: Vec<Vec<usize>> = vec![Vec::new(); k];
    let mut has_consumer = vec![false; k];
    for i in 0..k {
        if !active[i] {
            continue;
        }
        for j in 0..i {
            if genome.edge(j, i) && active[j] {
                inputs[i].push(j);
                has_consumer[j] = true;
            }
        }
    }
    let leaves: Vec<usize> = (0..k).filter(|&i| active[i] && !has_consumer[i]).collect();
    PhaseSpec {
        nodes: k,
        active,
        inputs,
        leaves,
        skip: genome.skip(),
        in_channels,
        out_channels,
        op,
    }
}

/// Decode a full genome. `channels[p]` is the width of phase `p`; its
/// length must match the number of phases.
pub(crate) fn decode_genome(
    genome: &Genome,
    input_channels: usize,
    channels: &[usize],
    num_classes: usize,
    op: NodeOp,
) -> ArchSpec {
    assert_eq!(
        genome.phases.len(),
        channels.len(),
        "one channel width per phase required"
    );
    let mut phases = Vec::with_capacity(genome.phases.len());
    let mut in_ch = input_channels;
    for (pg, &width) in genome.phases.iter().zip(channels) {
        phases.push(decode_phase(pg, in_ch, width, op));
        in_ch = width;
    }
    ArchSpec {
        phases,
        input_channels,
        num_classes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase_with_edges(edges: &[(usize, usize)], skip: bool) -> PhaseGenome {
        let mut bits = vec![false; PhaseGenome::bits_for(4)];
        for &(j, i) in edges {
            bits[PhaseGenome::edge_bit_index(j, i)] = true;
        }
        let last = bits.len() - 1;
        bits[last] = skip;
        PhaseGenome::new(4, bits)
    }

    #[test]
    fn all_zero_phase_is_degenerate() {
        let spec = decode_phase(
            &PhaseGenome::zeros(4),
            1,
            8,
            NodeOp::ConvBnRelu { kernel: 3 },
        );
        assert!(spec.is_degenerate());
        assert_eq!(spec.active_nodes(), 0);
        assert!(spec.leaves.is_empty());
        assert!(!spec.skip);
    }

    #[test]
    fn chain_topology_decodes() {
        // 0→1→2→3: all active, node 0 reads stem, leaf is node 3.
        let g = phase_with_edges(&[(0, 1), (1, 2), (2, 3)], false);
        let spec = decode_phase(&g, 1, 8, NodeOp::ConvBnRelu { kernel: 3 });
        assert_eq!(spec.active_nodes(), 4);
        assert_eq!(spec.inputs[0], Vec::<usize>::new());
        assert_eq!(spec.inputs[1], vec![0]);
        assert_eq!(spec.inputs[3], vec![2]);
        assert_eq!(spec.leaves, vec![3]);
    }

    #[test]
    fn diamond_topology_has_single_leaf() {
        // 0→1, 0→2, 1→3, 2→3.
        let g = phase_with_edges(&[(0, 1), (0, 2), (1, 3), (2, 3)], true);
        let spec = decode_phase(&g, 8, 16, NodeOp::ConvBnRelu { kernel: 3 });
        assert_eq!(spec.active_nodes(), 4);
        assert_eq!(spec.leaves, vec![3]);
        assert_eq!(spec.inputs[3], vec![1, 2]);
        assert!(spec.skip);
    }

    #[test]
    fn isolated_node_is_inactive() {
        // Only 0→1: nodes 2 and 3 are isolated.
        let g = phase_with_edges(&[(0, 1)], false);
        let spec = decode_phase(&g, 1, 8, NodeOp::ConvBnRelu { kernel: 3 });
        assert_eq!(spec.active_nodes(), 2);
        assert!(!spec.active[2] && !spec.active[3]);
        assert_eq!(spec.leaves, vec![1]);
    }

    #[test]
    fn parallel_branches_all_become_leaves() {
        // 0→1, 0→2, 0→3: three parallel consumers of node 0.
        let g = phase_with_edges(&[(0, 1), (0, 2), (0, 3)], false);
        let spec = decode_phase(&g, 1, 8, NodeOp::ConvBnRelu { kernel: 3 });
        assert_eq!(spec.leaves, vec![1, 2, 3]);
        assert_eq!(spec.edge_count(), 3);
    }

    #[test]
    fn genome_decode_threads_channels() {
        let genome = Genome {
            phases: vec![
                phase_with_edges(&[(0, 1)], false),
                phase_with_edges(&[(0, 1), (1, 2)], true),
                PhaseGenome::zeros(4),
            ],
        };
        let arch = decode_genome(
            &genome,
            1,
            &[8, 16, 32],
            2,
            NodeOp::ConvBnRelu { kernel: 3 },
        );
        assert_eq!(arch.phases[0].in_channels, 1);
        assert_eq!(arch.phases[0].out_channels, 8);
        assert_eq!(arch.phases[1].in_channels, 8);
        assert_eq!(arch.phases[2].in_channels, 16);
        assert_eq!(arch.phases[2].out_channels, 32);
        assert_eq!(arch.num_classes, 2);
    }

    #[test]
    fn summary_is_stable() {
        let genome = Genome {
            phases: vec![
                phase_with_edges(&[(0, 1)], true),
                phase_with_edges(&[(0, 1), (1, 2)], false),
            ],
        };
        let arch = decode_genome(&genome, 1, &[8, 16], 2, NodeOp::ConvBnRelu { kernel: 3 });
        assert_eq!(arch.summary(), "2 phases | nodes 2/3 | edges 1/2 | skip 10");
    }
}
