//! Figures 3 and 10: structural visualization of a near-optimal NN found
//! by A4NN for low-beam-intensity images (the paper renders "NN Model 51"
//! through its analyzer; we render the best Pareto model of the low-beam
//! run in both ASCII and Graphviz DOT form).

use a4nn_bench::{header, run_a4nn};
use a4nn_core::prelude::*;
use a4nn_genome::viz::{render_ascii, render_dot};
use a4nn_lineage::Analyzer;

fn main() -> Result<(), A4nnError> {
    header(
        "Figures 3 & 10",
        "architecture visualization of a near-optimal low-beam model",
    );
    let out = run_a4nn(BeamIntensity::Low, 1)?;
    let analyzer = Analyzer::new(&out.commons);
    let mut front = analyzer.pareto_front();
    front.sort_by(|a, b| a4nn_lineage::fitness_cmp(b.final_fitness, a.final_fitness));
    let model = front.first().expect("run produced a Pareto front");
    let space = out.config.search_space();
    let arch = space.decode(&model.genome);

    println!(
        "model {} | generation {} | fitness {:.2}% | {:.1} MFLOPs",
        model.model_id, model.generation, model.final_fitness, model.flops
    );
    println!("genome: {}", model.genome.to_compact_string());
    println!("summary: {}\n", arch.summary());
    println!("--- ASCII rendering ---");
    println!("{}", render_ascii(&arch));
    println!("--- Graphviz DOT (pipe into `dot -Tpng`) ---");
    println!(
        "{}",
        render_dot(&arch, &format!("a4nn-model-{}", model.model_id))
    );
    Ok(())
}
