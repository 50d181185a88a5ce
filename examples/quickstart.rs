//! Quickstart: a complete (small) A4NN run with real CPU training.
//!
//! Generates a synthetic XFEL diffraction dataset, runs a miniature
//! NSGA-Net search with the prediction engine attached, trains every
//! candidate network for real on the CPU substrate, and prints the Pareto
//! front plus the epoch savings the engine delivered.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use a4nn_core::prelude::*;
use a4nn_core::{RealTrainerFactory, TrainingHyperparams};
use a4nn_lineage::Analyzer;
use a4nn_xfel::generate_split;
use std::sync::Arc;

fn main() -> Result<(), A4nnError> {
    let beam = BeamIntensity::High;
    println!("== A4NN quickstart ==");
    println!("generating synthetic XFEL diffraction data ({beam} beam intensity)...");
    let xfel = XfelConfig::default();
    let (train, test) = generate_split(&xfel, beam, 80, 42);
    println!(
        "  {} training images, {} validation images, {}x{} px",
        train.len(),
        test.len(),
        xfel.detector,
        xfel.detector
    );

    // A miniature Table-2 configuration so the example finishes in about a
    // minute of CPU training.
    let config = WorkflowConfig {
        nas: NasSettings {
            population: 4,
            offspring: 4,
            generations: 3,
            epochs: 8,
            ..NasSettings::paper_defaults()
        },
        engine: Some(EngineConfig {
            e_pred: 8,
            ..EngineConfig::paper_defaults()
        }),
        gpus: 2,
        beam,
        seed: 42,
        objectives: a4nn_core::ObjectiveSet::default(),
    };
    println!(
        "searching {} architectures ({} generations, engine: F(x) = a - b^(c-x))...",
        config.nas.total_models(),
        config.nas.generations
    );
    let factory = RealTrainerFactory::new(
        config.search_space(),
        Arc::new(train),
        Arc::new(test),
        TrainingHyperparams::default(),
    );
    let output = A4nnWorkflow::new(config).run(&factory, RunOptions::default())?;

    let analyzer = Analyzer::new(&output.commons);
    println!("\nresults:");
    println!("  total epochs trained : {}", output.total_epochs());
    println!("  epochs saved         : {:.1}%", output.epochs_saved_pct());
    println!(
        "  early terminations   : {:.0}%",
        100.0 * analyzer.early_termination_rate()
    );
    println!("\nPareto front (validation accuracy vs MFLOPs):");
    let mut front = analyzer.pareto_front()?;
    front.sort_by(|a, b| a.flops.partial_cmp(&b.flops).unwrap());
    for model in front {
        println!(
            "  model {:>2} | {:>6.1} MFLOPs | {:>5.1}% | genome {}",
            model.model_id,
            model.flops,
            model.final_fitness,
            model.genome.to_compact_string()
        );
    }
    let best = analyzer.best_by_fitness().expect("models were trained");
    println!(
        "\nbest model: #{} at {:.1}% validation accuracy",
        best.model_id, best.final_fitness
    );
    Ok(())
}
