//! §6 ablation: "Which parametric functions are best able to predict
//! neural architecture fitness?"
//!
//! Runs the full A4NN search per beam with each built-in curve family as
//! the engine's `F` and reports epochs saved, convergence rate, and the
//! mean absolute error between the converged prediction and the measured
//! fitness at termination.

use a4nn_bench::{header, HARNESS_SEED};
use a4nn_core::prelude::*;
use a4nn_core::{SurrogateFactory, SurrogateParams};
use a4nn_lineage::Analyzer;
use a4nn_penguin::ParametricCurve;

fn main() -> Result<(), A4nnError> {
    header(
        "Ablation",
        "parametric-function comparison for the prediction engine (§6 question)",
    );
    for beam in BeamIntensity::ALL {
        println!("\nbeam {beam}:");
        println!(
            "  {:>12} | {:>10} | {:>10} | {:>10} | {:>12}",
            "function", "epochs", "saved %", "conv %", "pred MAE"
        );
        for family in CurveFamily::ALL {
            let mut config = WorkflowConfig::a4nn(beam, 1, HARNESS_SEED);
            if let Some(engine) = config.engine.as_mut() {
                engine.family = family;
            }
            let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(beam));
            let out = A4nnWorkflow::new(config).run(&factory, RunOptions::default())?;
            let a = Analyzer::new(&out.commons);
            println!(
                "  {:>12} | {:>10} | {:>9.1}% | {:>9.0}% | {:>12}",
                family.name(),
                out.total_epochs(),
                out.epochs_saved_pct(),
                100.0 * a.early_termination_rate(),
                a.mean_prediction_error()
                    .map(|e| format!("{e:.2}"))
                    .unwrap_or_else(|| "-".into()),
            );
        }
    }
    println!();
    println!("the paper uses exp-base (F(x) = a - b^(c-x)) throughout; this ablation");
    println!("answers its conclusions' open question by comparing savings vs accuracy");
    println!("trade-offs across families (lower MAE + higher saved% is better).");
    Ok(())
}
