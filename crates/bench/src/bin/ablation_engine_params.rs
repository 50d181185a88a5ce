//! Engine-parameter sensitivity: how the convergence window `N` and the
//! tolerance `r` (Table 1: N = 3, r = 0.5) trade epoch savings against
//! prediction accuracy.

use a4nn_bench::{header, HARNESS_SEED};
use a4nn_core::prelude::*;
use a4nn_core::{SurrogateFactory, SurrogateParams};
use a4nn_lineage::Analyzer;

fn main() -> Result<(), A4nnError> {
    header(
        "Ablation",
        "prediction-engine parameter sweep (N, r) on medium-beam data",
    );
    let beam = BeamIntensity::Medium;
    println!(
        "{:>3} | {:>5} | {:>10} | {:>10} | {:>10} | {:>12}",
        "N", "r", "epochs", "saved %", "conv %", "pred MAE"
    );
    for n in [2usize, 3, 5] {
        for r in [0.1f64, 0.5, 1.0] {
            let mut config = WorkflowConfig::a4nn(beam, 1, HARNESS_SEED);
            if let Some(engine) = config.engine.as_mut() {
                engine.n_converge = n;
                engine.r = r;
            }
            let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(beam));
            let out = A4nnWorkflow::new(config).run(&factory, RunOptions::default())?;
            let a = Analyzer::new(&out.commons);
            let marker = if n == 3 && (r - 0.5).abs() < 1e-9 {
                "  <- paper (Table 1)"
            } else {
                ""
            };
            println!(
                "{n:>3} | {r:>5.1} | {:>10} | {:>9.1}% | {:>9.0}% | {:>12}{marker}",
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
    println!("expected shape: looser tolerance / shorter window saves more epochs at");
    println!("the cost of larger prediction error; the paper's (3, 0.5) balances both.");
    Ok(())
}
