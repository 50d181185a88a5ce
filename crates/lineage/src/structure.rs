//! Structural analytics over the architectures in a commons — the
//! machinery behind the conclusions' questions *"Are there structural
//! similarities between successful architectures produced by NAS?"* and
//! *"How can we visualize diverse neural architectures to identify
//! patterns in successful architectures?"*.
//!
//! Architectures are summarized into a fixed [`StructuralFeatures`] vector
//! (per-phase node/edge/skip counts plus genome density); the module
//! provides per-feature correlation against fitness and a
//! success-vs-failure contrast report.

use crate::commons::DataCommons;
use crate::record::ModelRecord;
use a4nn_genome::{Genome, PhaseGenome};
use serde::{Deserialize, Serialize};

/// Fixed-length structural description of one genome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructuralFeatures {
    /// Total active nodes across phases.
    pub active_nodes: usize,
    /// Total edges across phases.
    pub edges: usize,
    /// Number of phases with the skip bit set.
    pub skips: usize,
    /// Fraction of genome bits set.
    pub density: f64,
    /// Per-phase active-node counts.
    pub nodes_per_phase: Vec<usize>,
    /// Per-phase edge counts.
    pub edges_per_phase: Vec<usize>,
    /// Longest chain (depth) over all phase DAGs.
    pub max_depth: usize,
}

impl StructuralFeatures {
    /// Extract features from a genome (decoding-free: works directly on
    /// the bit structure so it needs no search-space configuration).
    pub fn of(genome: &Genome) -> Self {
        let mut active_nodes = 0;
        let mut edges = 0;
        let mut skips = 0;
        let mut nodes_per_phase = Vec::with_capacity(genome.phases.len());
        let mut edges_per_phase = Vec::with_capacity(genome.phases.len());
        let mut max_depth = 0;
        let mut set_bits = 0usize;
        for phase in &genome.phases {
            let k = phase.nodes;
            let mut touched = vec![false; k];
            let mut phase_edges = 0;
            // depth[i] = longest path ending at node i (in edges).
            let mut depth = vec![0usize; k];
            for i in 0..k {
                for j in 0..i {
                    if phase.edge(j, i) {
                        touched[i] = true;
                        touched[j] = true;
                        phase_edges += 1;
                        depth[i] = depth[i].max(depth[j] + 1);
                    }
                }
            }
            let phase_nodes = touched.iter().filter(|&&t| t).count();
            active_nodes += phase_nodes;
            edges += phase_edges;
            skips += usize::from(phase.skip());
            max_depth = max_depth.max(depth.iter().copied().max().unwrap_or(0));
            nodes_per_phase.push(phase_nodes);
            edges_per_phase.push(phase_edges);
            set_bits += phase.bits.iter().filter(|&&b| b).count();
        }
        let total_bits: usize = genome
            .phases
            .iter()
            .map(|p| PhaseGenome::bits_for(p.nodes))
            .sum();
        StructuralFeatures {
            active_nodes,
            edges,
            skips,
            density: set_bits as f64 / total_bits.max(1) as f64,
            nodes_per_phase,
            edges_per_phase,
            max_depth,
        }
    }

    /// The scalar feature values with stable names, for correlation
    /// reports.
    pub fn named_scalars(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("active_nodes", self.active_nodes as f64),
            ("edges", self.edges as f64),
            ("skips", self.skips as f64),
            ("density", self.density),
            ("max_depth", self.max_depth as f64),
        ]
    }
}

/// Pearson correlation of each structural feature against final fitness
/// (0 where it is undefined).
pub fn feature_fitness_correlations(commons: &DataCommons) -> Vec<(&'static str, f64)> {
    let rows: Vec<(Vec<(&'static str, f64)>, f64)> = commons
        .records
        .iter()
        .map(|r| {
            (
                StructuralFeatures::of(&r.genome).named_scalars(),
                r.final_fitness,
            )
        })
        .collect();
    if rows.len() < 2 {
        return Vec::new();
    }
    let names: Vec<&'static str> = rows[0].0.iter().map(|(n, _)| *n).collect();
    names
        .into_iter()
        .enumerate()
        .map(|(fi, name)| {
            let xs: Vec<f64> = rows.iter().map(|(f, _)| f[fi].1).collect();
            let ys: Vec<f64> = rows.iter().map(|(_, y)| *y).collect();
            (name, pearson(&xs, &ys).unwrap_or(0.0))
        })
        .collect()
}

/// Mean structural features of the `top_fraction` most fit models versus
/// the rest: the "what do successful architectures share?" contrast.
pub fn success_contrast(
    commons: &DataCommons,
    top_fraction: f64,
) -> Option<(StructuralMeans, StructuralMeans)> {
    assert!((0.0..=1.0).contains(&top_fraction), "fraction in [0,1]");
    if commons.records.len() < 2 {
        return None;
    }
    let mut sorted: Vec<&ModelRecord> = commons.records.iter().collect();
    sorted.sort_by(|a, b| crate::record::fitness_cmp(b.final_fitness, a.final_fitness));
    let cut = ((sorted.len() as f64 * top_fraction).round() as usize).clamp(1, sorted.len() - 1);
    let (top, rest) = sorted.split_at(cut);
    Some((StructuralMeans::of(top), StructuralMeans::of(rest)))
}

/// Mean scalar features over a set of records.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StructuralMeans {
    /// Number of records averaged.
    pub count: usize,
    /// (feature name, mean value) pairs in [`StructuralFeatures::named_scalars`] order.
    pub means: Vec<(String, f64)>,
    /// Mean fitness of the group.
    pub mean_fitness: f64,
}

impl StructuralMeans {
    fn of(records: &[&ModelRecord]) -> Self {
        let n = records.len().max(1) as f64;
        let mut acc: Vec<(String, f64)> = Vec::new();
        let mut fitness = 0.0;
        for r in records {
            fitness += r.final_fitness;
            for (i, (name, v)) in StructuralFeatures::of(&r.genome)
                .named_scalars()
                .into_iter()
                .enumerate()
            {
                if acc.len() <= i {
                    acc.push((name.to_string(), 0.0));
                }
                acc[i].1 += v;
            }
        }
        for (_, v) in &mut acc {
            *v /= n;
        }
        StructuralMeans {
            count: records.len(),
            means: acc,
            mean_fitness: fitness / n,
        }
    }
}

/// Pearson correlation of `xs` against `ys`; `None` for fewer than two
/// points or a constant series.
pub(crate) fn pearson(xs: &[f64], ys: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 0.0 || vy <= 0.0 {
        None
    } else {
        Some(cov / (vx.sqrt() * vy.sqrt()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::EpochRecord;

    fn genome(bits21: &str) -> Genome {
        Genome::from_compact_string(bits21).unwrap()
    }

    fn record(id: u64, genome: Genome, fitness: f64) -> ModelRecord {
        ModelRecord {
            model_id: id,
            generation: 0,
            gpu: None,
            genome,
            arch_summary: String::new(),
            flops: 100.0,
            objective_names: Vec::new(),
            objective_values: Vec::new(),
            engine: None,
            epochs: vec![EpochRecord {
                epoch: 1,
                train_acc: fitness,
                val_acc: fitness,
                duration_s: 1.0,
                prediction: None,
            }],
            final_fitness: fitness,
            predicted_fitness: None,
            termination: crate::record::Terminated::Completed,
            attempts: 1,
            beam: "low".into(),
            wall_time_s: 1.0,
        }
    }

    #[test]
    fn features_of_empty_genome() {
        let f = StructuralFeatures::of(&genome("0000000-0000000-0000000"));
        assert_eq!(f.active_nodes, 0);
        assert_eq!(f.edges, 0);
        assert_eq!(f.skips, 0);
        assert_eq!(f.density, 0.0);
        assert_eq!(f.max_depth, 0);
    }

    #[test]
    fn features_count_chain() {
        // Phase 1: edges (0→1),(1→2),(2→3) = bits 0,2,5 set; skip set.
        let mut bits = vec!['0'; 7];
        bits[PhaseGenome::edge_bit_index(0, 1)] = '1';
        bits[PhaseGenome::edge_bit_index(1, 2)] = '1';
        bits[PhaseGenome::edge_bit_index(2, 3)] = '1';
        bits[6] = '1';
        let s: String = bits.into_iter().collect();
        let f = StructuralFeatures::of(&genome(&format!("{s}-0000000-0000000")));
        assert_eq!(f.active_nodes, 4);
        assert_eq!(f.edges, 3);
        assert_eq!(f.skips, 1);
        assert_eq!(f.max_depth, 3);
        assert!((f.density - 4.0 / 21.0).abs() < 1e-12);
        assert_eq!(f.nodes_per_phase, vec![4, 0, 0]);
        assert_eq!(f.edges_per_phase, vec![3, 0, 0]);
    }

    #[test]
    fn correlations_detect_planted_signal() {
        // Fitness grows with density by construction.
        let gs = [
            "0000000-0000000-0000000",
            "1000000-0000000-0000000",
            "1100000-1000000-0000000",
            "1110000-1100000-1000000",
            "1111100-1111000-1110000",
            "1111111-1111111-1111111",
        ];
        let commons = DataCommons::new(
            gs.iter()
                .enumerate()
                .map(|(i, g)| record(i as u64, genome(g), 50.0 + 8.0 * i as f64))
                .collect(),
        );
        let corr = feature_fitness_correlations(&commons);
        let density = corr.iter().find(|(n, _)| *n == "density").unwrap().1;
        assert!(density > 0.9, "density correlation {density}");
    }

    #[test]
    fn success_contrast_separates_groups() {
        let commons = DataCommons::new(vec![
            record(0, genome("1111111-1111111-1111111"), 99.0),
            record(1, genome("1111110-1111110-1111110"), 98.0),
            record(2, genome("0000000-0000000-0000000"), 55.0),
            record(3, genome("1000000-0000000-0000000"), 52.0),
        ]);
        let (top, rest) = success_contrast(&commons, 0.5).unwrap();
        assert_eq!(top.count, 2);
        assert_eq!(rest.count, 2);
        assert!(top.mean_fitness > rest.mean_fitness);
        let d_top = top.means.iter().find(|(n, _)| n == "density").unwrap().1;
        let d_rest = rest.means.iter().find(|(n, _)| n == "density").unwrap().1;
        assert!(d_top > d_rest);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = DataCommons::default();
        assert!(feature_fitness_correlations(&empty).is_empty());
        assert!(success_contrast(&empty, 0.2).is_none());
        let single = DataCommons::new(vec![record(0, genome("0000000"), 50.0)]);
        assert!(success_contrast(&single, 0.2).is_none());
    }
}
