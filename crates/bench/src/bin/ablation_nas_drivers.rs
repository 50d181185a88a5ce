//! Composability ablation: the same prediction engine, trainers,
//! scheduler, and lineage tracker driven by three different NAS policies —
//! NSGA-Net (the paper's choice), regularized/aging evolution, and pure
//! random search. This is §6's "generalized to other NAS implementations"
//! made measurable.

use a4nn_bench::{header, hours, HARNESS_SEED};
use a4nn_core::prelude::*;
use a4nn_core::{AgingEvolutionWorkflow, RandomSearchWorkflow, SurrogateFactory, SurrogateParams};
use a4nn_lineage::Analyzer;

fn report(name: &str, out: &a4nn_core::RunOutput) {
    let a = Analyzer::new(&out.commons);
    let pareto = a.pareto_front();
    let best = a.best_by_fitness().unwrap();
    // Cheapest model within 1 point of the best accuracy: the efficiency
    // axis the multi-objective search optimizes explicitly.
    let cheapest_near_best = out
        .commons
        .records
        .iter()
        .filter(|r| r.final_fitness >= best.final_fitness - 1.0)
        .map(|r| r.flops)
        .fold(f64::INFINITY, f64::min);
    println!(
        "  {name:<18} best acc {:>6.2}% | cheapest@-1pt {:>7.1} MFLOPs | pareto {:>2} | epochs {:>5} ({:>4.1}% saved) | {:>6.2} h",
        best.final_fitness,
        cheapest_near_best,
        pareto.len(),
        out.total_epochs(),
        out.epochs_saved_pct(),
        hours(out.wall_time_s()),
    );
}

fn main() -> Result<(), A4nnError> {
    header(
        "Ablation",
        "one engine, three NAS drivers (composability, §6)",
    );
    for beam in BeamIntensity::ALL {
        println!("\nbeam {beam}:");
        let config = WorkflowConfig::a4nn(beam, 1, HARNESS_SEED);
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(beam));
        report(
            "NSGA-Net",
            &A4nnWorkflow::new(config.clone()).run(&factory, RunOptions::default())?,
        );
        report(
            "aging evolution",
            &AgingEvolutionWorkflow::new(config.clone(), 5).run(&factory, None)?,
        );
        report(
            "random search",
            &RandomSearchWorkflow::new(config).run(&factory, None)?,
        );
    }
    println!();
    println!("expected shape: every driver enjoys the engine's epoch savings (the");
    println!("engine is policy-agnostic); NSGA-Net finds the cheapest models near the");
    println!("best accuracy because it is the only driver optimizing FLOPs.");
    Ok(())
}
