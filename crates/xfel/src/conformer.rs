//! Synthetic protein conformers.
//!
//! The paper classifies two conformations of eEF2 (PDB 1n0u vs 1n0v),
//! which differ by a rigid-body rearrangement of domain IV. Without the
//! PDB structures, we build an analogous pair: a two-domain point-scatterer
//! model in which conformer B has its second domain rotated around a hinge
//! axis by a configurable angle. The diffraction patterns of the two
//! conformers therefore differ systematically (interference between the
//! domains changes) while each conformer still produces a broad family of
//! orientation-dependent patterns — the same classification problem.

use crate::geometry::Rotation;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A rigid arrangement of point scatterers ("atoms").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conformer {
    /// Atom positions in ångström-like units, centered on the origin.
    pub atoms: Vec<[f64; 3]>,
}

impl Conformer {
    /// Centroid of the atoms.
    pub fn centroid(&self) -> [f64; 3] {
        let n = self.atoms.len().max(1) as f64;
        let mut c = [0.0; 3];
        for a in &self.atoms {
            for i in 0..3 {
                c[i] += a[i] / n;
            }
        }
        c
    }

    /// Radius of gyration (spread of the scatterers).
    pub fn radius_of_gyration(&self) -> f64 {
        let c = self.centroid();
        let n = self.atoms.len().max(1) as f64;
        let sum: f64 = self
            .atoms
            .iter()
            .map(|a| (0..3).map(|i| (a[i] - c[i]) * (a[i] - c[i])).sum::<f64>())
            .sum();
        (sum / n).sqrt()
    }

    /// Return a copy rotated by `r` (about the origin).
    pub fn rotated(&self, r: &Rotation) -> Conformer {
        Conformer {
            atoms: self.atoms.iter().map(|&a| r.apply(a)).collect(),
        }
    }
}

/// The two conformers of the classification problem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConformerPair {
    /// Conformation A (label 0).
    pub conf_a: Conformer,
    /// Conformation B (label 1): domain 2 rotated around the hinge.
    pub conf_b: Conformer,
}

/// Parameters of the synthetic two-domain protein.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProteinParams {
    /// Atoms per domain.
    pub atoms_per_domain: usize,
    /// Gaussian domain radius.
    pub domain_radius: f64,
    /// Distance between the two domain centers.
    pub domain_separation: f64,
    /// Hinge rotation (degrees) distinguishing conformer B from A.
    pub hinge_angle_deg: f64,
}

impl Default for ProteinParams {
    fn default() -> Self {
        ProteinParams {
            atoms_per_domain: 60,
            domain_radius: 4.0,
            domain_separation: 12.0,
            hinge_angle_deg: 90.0,
        }
    }
}

impl ConformerPair {
    /// Build the pair deterministically from a seed.
    pub fn generate(params: &ProteinParams, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let half = params.domain_separation / 2.0;
        let domain = |center: [f64; 3], rng: &mut rand::rngs::StdRng| -> Vec<[f64; 3]> {
            (0..params.atoms_per_domain)
                .map(|_| {
                    // Isotropic Gaussian blob via Box–Muller pairs.
                    let mut g = [0.0f64; 3];
                    for v in &mut g {
                        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                        let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
                        *v = (-2.0 * u1.ln()).sqrt() * u2.cos() * params.domain_radius / 2.0;
                    }
                    [center[0] + g[0], center[1] + g[1], center[2] + g[2]]
                })
                .collect()
        };
        let domain1 = domain([-half, 0.0, 0.0], &mut rng);
        let domain2 = domain([half, 0.0, 0.0], &mut rng);

        let mut atoms_a = domain1.clone();
        atoms_a.extend_from_slice(&domain2);

        // Conformer B: rotate domain 2 around a hinge at the junction
        // (y-axis through the midpoint between domains).
        let hinge = Rotation::around_axis([0.0, 1.0, 0.0], params.hinge_angle_deg.to_radians());
        let mut atoms_b = domain1;
        atoms_b.extend(domain2.iter().map(|&a| hinge.apply(a)));

        ConformerPair {
            conf_a: Conformer { atoms: atoms_a },
            conf_b: Conformer { atoms: atoms_b },
        }
    }

    /// The conformer for a class label (0 = A, 1 = B).
    pub fn by_label(&self, label: usize) -> &Conformer {
        match label {
            0 => &self.conf_a,
            1 => &self.conf_b,
            other => panic!("conformation label must be 0 or 1, got {other}"),
        }
    }

    /// Root-mean-square deviation between the two conformers' atoms.
    pub fn rmsd(&self) -> f64 {
        let n = self.conf_a.atoms.len().max(1) as f64;
        let sum: f64 = self
            .conf_a
            .atoms
            .iter()
            .zip(&self.conf_b.atoms)
            .map(|(a, b)| (0..3).map(|i| (a[i] - b[i]) * (a[i] - b[i])).sum::<f64>())
            .sum();
        (sum / n).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conformers_share_atom_count() {
        let pair = ConformerPair::generate(&ProteinParams::default(), 1);
        assert_eq!(pair.conf_a.atoms.len(), 120);
        assert_eq!(pair.conf_a.atoms.len(), pair.conf_b.atoms.len());
    }

    #[test]
    fn first_domain_is_shared_second_differs() {
        let params = ProteinParams::default();
        let pair = ConformerPair::generate(&params, 2);
        let n = params.atoms_per_domain;
        assert_eq!(&pair.conf_a.atoms[..n], &pair.conf_b.atoms[..n]);
        assert_ne!(&pair.conf_a.atoms[n..], &pair.conf_b.atoms[n..]);
    }

    #[test]
    fn rmsd_grows_with_hinge_angle() {
        let small = ConformerPair::generate(
            &ProteinParams {
                hinge_angle_deg: 5.0,
                ..Default::default()
            },
            3,
        );
        let large = ConformerPair::generate(
            &ProteinParams {
                hinge_angle_deg: 60.0,
                ..Default::default()
            },
            3,
        );
        assert!(large.rmsd() > small.rmsd() * 2.0);
    }

    #[test]
    fn zero_hinge_angle_makes_identical_conformers() {
        let pair = ConformerPair::generate(
            &ProteinParams {
                hinge_angle_deg: 0.0,
                ..Default::default()
            },
            4,
        );
        assert!(pair.rmsd() < 1e-12);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = ConformerPair::generate(&ProteinParams::default(), 7);
        let b = ConformerPair::generate(&ProteinParams::default(), 7);
        assert_eq!(a.conf_a, b.conf_a);
        assert_eq!(a.conf_b, b.conf_b);
        let c = ConformerPair::generate(&ProteinParams::default(), 8);
        assert_ne!(a.conf_a, c.conf_a);
    }

    #[test]
    fn geometry_is_plausible() {
        let params = ProteinParams::default();
        let pair = ConformerPair::generate(&params, 9);
        let rg = pair.conf_a.radius_of_gyration();
        // Two domains separated by 12 with radius 4 ⇒ Rg around 6–8.
        assert!((4.0..12.0).contains(&rg), "radius of gyration {rg}");
    }

    #[test]
    #[should_panic(expected = "label must be 0 or 1")]
    fn bad_label_panics() {
        let pair = ConformerPair::generate(&ProteinParams::default(), 1);
        let _ = pair.by_label(2);
    }
}
