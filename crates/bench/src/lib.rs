//! # a4nn-bench — the experiment harness
//!
//! One binary per table and figure of the paper's evaluation (§4). Every
//! binary prints the paper's reported values next to the measured ones so
//! the comparison in `EXPERIMENTS.md` can be regenerated with a single
//! command each:
//!
//! | target | reproduces |
//! |---|---|
//! | `fig2_prediction_trace` | Figure 2 — prediction convergence trace |
//! | `fig6_pareto` | Figure 6 — accuracy-vs-FLOPs Pareto fronts |
//! | `fig7_epoch_savings` | Figure 7 — epochs required / % saved |
//! | `fig8_termination_dist` | Figure 8 — e_t distribution & % converged |
//! | `fig9_walltime` | Figure 9 — wall times and multi-GPU speedups |
//! | `table3_xpsi` | Table 3 — A4NN vs XPSI |
//! | `fig10_architecture` | Figures 3/10 — architecture visualization |
//! | `overhead_stats` | §4.3.1 — engine overhead statistics |
//! | `ablation_functions` | §6 — parametric-function comparison |
//! | `ablation_engine_params` | §6 — N/r sensitivity sweep |
//! | `ablation_flops_accuracy` | §6 — FLOPs↔accuracy correlation |
//! | `ablation_scheduler` | §2.5 — FIFO vs LPT idle-tail ablation |

#![warn(clippy::redundant_clone)]
use a4nn_core::prelude::*;
use a4nn_lineage::Analyzer;

/// The master seed every harness derives from, fixed so printed tables are
/// reproducible run to run.
pub const HARNESS_SEED: u64 = 0xA4A4_2023;

/// Run A4NN (engine on) for one beam at a GPU count.
pub fn run_a4nn(beam: BeamIntensity, gpus: usize) -> Result<RunOutput, A4nnError> {
    let config = WorkflowConfig::a4nn(beam, gpus, HARNESS_SEED);
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(beam));
    A4nnWorkflow::new(config).run(&factory, RunOptions::default())
}

/// Run the standalone NSGA-Net baseline (no engine, 1 GPU) for one beam.
pub fn run_standalone(beam: BeamIntensity) -> Result<RunOutput, A4nnError> {
    let config = WorkflowConfig::standalone(beam, HARNESS_SEED);
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(beam));
    A4nnWorkflow::new(config).run(&factory, RunOptions::default())
}

/// Seconds → hours.
pub fn hours(seconds: f64) -> f64 {
    seconds / 3600.0
}

/// Print a standard experiment header.
pub fn header(id: &str, what: &str) {
    println!("{}", "=".repeat(72));
    println!("{id}: {what}");
    println!("{}", "=".repeat(72));
}

/// Summary statistics of one run used by several harnesses.
pub struct RunSummary {
    /// Total epochs trained.
    pub epochs: u64,
    /// Percentage saved vs the 2,500-epoch budget.
    pub saved_pct: f64,
    /// Fraction of models terminated early (0–1).
    pub converged: f64,
    /// Mean termination epoch of converged models.
    pub mean_et: Option<f64>,
    /// Simulated wall hours.
    pub wall_h: f64,
    /// Best validation accuracy over the run.
    pub best_acc: f64,
}

/// Summarize a run.
pub fn summarize(out: &RunOutput) -> RunSummary {
    let a = Analyzer::new(&out.commons);
    RunSummary {
        epochs: out.total_epochs(),
        saved_pct: out.epochs_saved_pct(),
        converged: a.early_termination_rate(),
        mean_et: a.mean_termination_epoch(),
        wall_h: hours(out.wall_time_s()),
        best_acc: a.best_by_fitness().map(|r| r.final_fitness).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_are_reproducible() {
        let a = summarize(&run_a4nn(BeamIntensity::Medium, 1).unwrap());
        let b = summarize(&run_a4nn(BeamIntensity::Medium, 1).unwrap());
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.wall_h, b.wall_h);
    }

    #[test]
    fn standalone_uses_exactly_2500_epochs() {
        let s = summarize(&run_standalone(BeamIntensity::Low).unwrap());
        assert_eq!(s.epochs, 2500);
        assert_eq!(s.saved_pct, 0.0);
        assert_eq!(s.converged, 0.0);
    }
}
