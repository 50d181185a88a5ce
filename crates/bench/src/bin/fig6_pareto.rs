//! Figure 6: accuracy-vs-FLOPs Pareto fronts of the 100 architectures
//! designed per test, A4NN versus standalone NSGA-Net, for the three beam
//! intensities (single GPU, as in the paper).

use a4nn_bench::{header, run_a4nn, run_standalone};
use a4nn_core::prelude::*;
use a4nn_lineage::Analyzer;

fn print_front(label: &str, out: &a4nn_core::RunOutput) {
    let analyzer = Analyzer::new(&out.commons);
    let mut front = analyzer.pareto_front();
    front.sort_by(|a, b| a.flops.partial_cmp(&b.flops).unwrap());
    println!("  {label}: {} Pareto-optimal models", front.len());
    println!(
        "    {:>8} | {:>12} | {:>12}",
        "model", "MFLOPs", "val acc (%)"
    );
    for r in &front {
        println!(
            "    {:>8} | {:>12.1} | {:>12.2}",
            r.model_id, r.flops, r.final_fitness
        );
    }
    let best = front
        .iter()
        .map(|r| r.final_fitness)
        .fold(f64::NEG_INFINITY, f64::max);
    println!("    best accuracy on the front: {best:.2}%");
}

fn main() -> Result<(), A4nnError> {
    header(
        "Figure 6",
        "Pareto fronts (validation accuracy vs FLOPs), A4NN vs standalone NSGA-Net",
    );
    for beam in BeamIntensity::ALL {
        println!("\nbeam intensity: {beam}");
        let a4nn = run_a4nn(beam, 1)?;
        let standalone = run_standalone(beam)?;
        print_front("A4NN      ", &a4nn);
        print_front("standalone", &standalone);
    }
    println!();
    println!("paper: A4NN reaches 99.8% below 650 FLOPs on low beam (standalone 98.1%),");
    println!("       ~100% on medium (standalone <99%), both ~99.9% @ ~450 FLOPs on high;");
    println!("       expected shape: A4NN fronts match or dominate standalone fronts.");
    Ok(())
}
