//! Figure 8: distribution of the termination epoch e_t and the percentage
//! of models whose training was terminated early, per beam intensity.

use a4nn_bench::{header, run_a4nn};
use a4nn_core::prelude::*;
use a4nn_lineage::{shape_census, Analyzer};

fn main() -> Result<(), A4nnError> {
    header(
        "Figure 8",
        "distribution of termination epoch e_t and % of converged models (A4NN, 1 GPU)",
    );
    let paper = [
        ("low", ">60% converged, mean e_t > 18"),
        ("medium", ">70% converged, mean e_t < 12.5"),
        ("high", "55% converged, mean e_t ~ 10, inverted-bell shape"),
    ];
    for (beam, (_, paper_note)) in BeamIntensity::ALL.into_iter().zip(paper) {
        let out = run_a4nn(beam, 1)?;
        let analyzer = Analyzer::new(&out.commons);
        let hist = analyzer.termination_histogram(25);
        let max = hist.iter().copied().max().unwrap_or(1).max(1);
        println!(
            "\nbeam {beam}: {:.0}% of models terminated early, mean e_t = {}",
            100.0 * analyzer.early_termination_rate(),
            analyzer
                .mean_termination_epoch()
                .map(|m| format!("{m:.1}"))
                .unwrap_or_else(|| "-".into()),
        );
        println!("  (paper: {paper_note})");
        for (i, &count) in hist.iter().enumerate() {
            let bar = "#".repeat(count * 40 / max);
            println!("  e_t={:>2} | {:>3} | {bar}", i + 1, count);
        }
        println!("  learning-curve shapes (count, early-terminated):");
        for (shape, n, early) in shape_census(&out.commons) {
            println!(
                "    {:<13} {n:>3} models, {early:>3} terminated early",
                shape.label()
            );
        }
    }
    Ok(())
}
