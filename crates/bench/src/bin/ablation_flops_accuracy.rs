//! §6 question: "Is there a significant correlation between high FLOPS
//! and high validation accuracy?" — computed over every architecture of
//! each run via the analyzer.

use a4nn_bench::{header, run_a4nn, run_standalone};
use a4nn_core::prelude::*;
use a4nn_lineage::Analyzer;

fn main() -> Result<(), A4nnError> {
    header(
        "Ablation",
        "Pearson correlation between FLOPs and validation accuracy (§6 question)",
    );
    println!("{:>7} | {:>12} | {:>12}", "beam", "A4NN", "standalone");
    for beam in BeamIntensity::ALL {
        let a4nn = run_a4nn(beam, 1)?;
        let standalone = run_standalone(beam)?;
        let c_a = Analyzer::new(&a4nn.commons)
            .flops_fitness_correlation()
            .unwrap_or(f64::NAN);
        let c_s = Analyzer::new(&standalone.commons)
            .flops_fitness_correlation()
            .unwrap_or(f64::NAN);
        println!("{:>7} | {:>12.3} | {:>12.3}", beam.label(), c_a, c_s);
    }
    println!();
    println!("interpretation: a weak positive correlation means capacity helps a");
    println!("little, but the Pareto front shows accuracy is attainable at low FLOPs —");
    println!("the premise of NSGA-Net's multi-objective search.");
    Ok(())
}
