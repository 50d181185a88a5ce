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

fn main() -> Result<(), A4nnError> {
    let beam = BeamIntensity::High;
    // A miniature Table-2 configuration so the example finishes in about a
    // minute of CPU training, on 80 images per class.
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
        trainer: TrainerSpec::Real {
            images: 80,
            xfel: XfelConfig::default(),
        },
    };
    println!("== A4NN quickstart ==");
    println!("generating synthetic XFEL diffraction data ({beam} beam intensity)...");
    let factory = config.trainer_factory()?;
    println!(
        "searching {} architectures ({} generations, engine: F(x) = a - b^(c-x))...",
        config.nas.total_models(),
        config.nas.generations
    );
    let output = A4nnWorkflow::new(config).run(factory.as_ref(), RunOptions::default())?;

    println!("\nresults:");
    println!("  total epochs trained : {}", output.total_epochs());
    println!("  epochs saved         : {:.1}%", output.epochs_saved_pct());
    println!(
        "  early terminations   : {:.0}%",
        100.0 * output.commons.early_termination_rate()
    );
    println!("\nPareto front (validation accuracy vs MFLOPs):");
    let mut front = output.commons.pareto_front()?;
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
    let best = output
        .commons
        .best_by_fitness()
        .expect("models were trained");
    println!(
        "\nbest model: #{} at {:.1}% validation accuracy",
        best.model_id, best.final_fitness
    );
    Ok(())
}
