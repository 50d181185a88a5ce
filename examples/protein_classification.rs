//! The paper's full use case at surrogate scale: search 100 architectures
//! per beam intensity with and without the prediction engine, and compare
//! epochs, wall time, and Pareto quality — the experiment behind the
//! paper's headline "up to 38% fewer epochs, up to 37% less training time".
//!
//! ```bash
//! cargo run --release --example protein_classification
//! ```

use a4nn_core::prelude::*;

fn run(beam: BeamIntensity, engine: bool, gpus: usize) -> Result<RunOutput, A4nnError> {
    let config = if engine {
        WorkflowConfig::a4nn(beam, gpus, 2023)
    } else {
        WorkflowConfig::standalone(beam, 2023)
    };
    let factory = config.trainer_factory()?;
    A4nnWorkflow::new(config).run(factory.as_ref(), RunOptions::default())
}

fn main() -> Result<(), A4nnError> {
    println!("== protein-conformation classification: A4NN vs standalone NSGA-Net ==");
    println!("(100 architectures per test; training on the calibrated surrogate cluster)\n");
    for beam in BeamIntensity::ALL {
        let a4nn = run(beam, true, 1)?;
        let standalone = run(beam, false, 1)?;
        let distributed = run(beam, true, 4)?;
        let (a, s) = (&a4nn.commons, &standalone.commons);
        println!("beam intensity {beam}:");
        println!(
            "  standalone : {:>5} epochs, {:>6.1} h, best acc {:>5.2}%",
            standalone.total_epochs(),
            standalone.wall_time_s() / 3600.0,
            s.best_by_fitness().unwrap().final_fitness,
        );
        println!(
            "  A4NN 1 GPU : {:>5} epochs, {:>6.1} h, best acc {:>5.2}%  ({:.1}% epochs saved)",
            a4nn.total_epochs(),
            a4nn.wall_time_s() / 3600.0,
            a.best_by_fitness().unwrap().final_fitness,
            a4nn.epochs_saved_pct(),
        );
        println!(
            "  A4NN 4 GPU : {:>5} epochs, {:>6.1} h  ({:.2}x wall-time speedup)",
            distributed.total_epochs(),
            distributed.wall_time_s() / 3600.0,
            a4nn.wall_time_s() / distributed.wall_time_s(),
        );
        println!(
            "  engine     : {:.0}% of models terminated early, mean e_t {}",
            100.0 * a.early_termination_rate(),
            a.mean_termination_epoch()
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "-".into()),
        );
        println!();
    }
    println!("paper reference: up to 38% fewer epochs and 37% less training time,");
    println!("with no loss of Pareto quality relative to standalone NSGA-Net.");
    Ok(())
}
