//! Beam intensities and their photon budgets.

use serde::{Deserialize, Serialize};

/// XFEL beam intensity, §3.1: the intensity sets the photon flux and thus
/// the signal-to-noise ratio of the recorded diffraction pattern — low
/// intensity is the paper's proxy for high noise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BeamIntensity {
    /// 1×10¹⁴ photons/μm²/pulse — noisy patterns.
    Low,
    /// 1×10¹⁵ photons/μm²/pulse.
    Medium,
    /// 1×10¹⁶ photons/μm²/pulse — near-noiseless patterns.
    High,
}

impl BeamIntensity {
    /// All intensities in the paper's reporting order.
    pub const ALL: [BeamIntensity; 3] = [
        BeamIntensity::Low,
        BeamIntensity::Medium,
        BeamIntensity::High,
    ];

    /// Mean photon count landing on the detector per image. The absolute
    /// scale is a calibration choice; the decade ratios between levels
    /// mirror the nominal fluxes (1e14/1e15/1e16 photons/μm²/pulse,
    /// §3.1), which is what controls relative Poisson noise
    /// (`SNR ∝ √photons`).
    pub fn photon_budget(&self) -> f64 {
        match self {
            BeamIntensity::Low => 2.0e3,
            BeamIntensity::Medium => 2.0e4,
            BeamIntensity::High => 2.0e5,
        }
    }

    /// Display label used by the benchmark harnesses.
    pub fn label(&self) -> &'static str {
        match self {
            BeamIntensity::Low => "low",
            BeamIntensity::Medium => "medium",
            BeamIntensity::High => "high",
        }
    }
}

impl std::fmt::Display for BeamIntensity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_scale_by_decades() {
        let [low, med, high] = BeamIntensity::ALL;
        assert!((med.photon_budget() / low.photon_budget() - 10.0).abs() < 1e-9);
        assert!((high.photon_budget() / med.photon_budget() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(BeamIntensity::Low.to_string(), "low");
        assert_eq!(BeamIntensity::Medium.to_string(), "medium");
        assert_eq!(BeamIntensity::High.to_string(), "high");
    }
}
