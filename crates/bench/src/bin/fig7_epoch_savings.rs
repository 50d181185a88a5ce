//! Figure 7: training epochs required to evaluate 100 architectures and
//! the percentage saved by A4NN over the 2,500-epoch standalone baseline,
//! on one and four GPUs.

use a4nn_bench::{header, run_a4nn, run_standalone, summarize};
use a4nn_core::prelude::*;

fn main() -> Result<(), A4nnError> {
    header(
        "Figure 7",
        "epochs required for 100 architectures and % saved over standalone NSGA-Net",
    );
    println!(
        "{:>7} | {:>16} | {:>14} | {:>14} | {:>9} | {:>9}",
        "beam", "standalone", "A4NN (1 GPU)", "A4NN (4 GPU)", "saved@1", "saved@4"
    );
    let paper = [("low", 13.3), ("medium", 34.1), ("high", 30.5)];
    for (beam, (_, paper_saved)) in BeamIntensity::ALL.into_iter().zip(paper) {
        let base = summarize(&run_standalone(beam)?);
        let one = summarize(&run_a4nn(beam, 1)?);
        let four = summarize(&run_a4nn(beam, 4)?);
        println!(
            "{:>7} | {:>16} | {:>14} | {:>14} | {:>8.1}% | {:>8.1}%   (paper saved@1: {paper_saved}%)",
            beam.label(),
            base.epochs,
            one.epochs,
            four.epochs,
            one.saved_pct,
            four.saved_pct,
        );
    }
    println!();
    println!("paper: standalone always trains 2,500 epochs; A4NN saves 13.3% / 34.1% /");
    println!("       30.5% on low/medium/high — expected shape: medium and high save");
    println!("       substantially more than low, all > 0.");
    Ok(())
}
