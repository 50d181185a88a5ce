//! Figure 9: simulated wall times for A4NN and standalone NSGA-Net per
//! beam intensity, on one and four GPUs, plus the multi-GPU speedups
//! discussed in §4.3.2 (paper: 3.8× / 3.9× / 3.4×).

use a4nn_bench::{header, hours, run_a4nn, run_standalone};
use a4nn_core::prelude::*;

fn main() -> Result<(), A4nnError> {
    header(
        "Figure 9",
        "wall times (simulated hours) for A4NN vs standalone, 1 and 4 GPUs",
    );
    println!(
        "{:>7} | {:>12} | {:>12} | {:>12} | {:>10} | {:>8}",
        "beam", "standalone", "A4NN 1 GPU", "A4NN 4 GPU", "saved (h)", "speedup"
    );
    let paper_saved = [3.5, 15.8, 16.3];
    let paper_speedup = [3.8, 3.9, 3.4];
    for (i, beam) in BeamIntensity::ALL.into_iter().enumerate() {
        let base = hours(run_standalone(beam)?.wall_time_s());
        let one = hours(run_a4nn(beam, 1)?.wall_time_s());
        let four = hours(run_a4nn(beam, 4)?.wall_time_s());
        println!(
            "{:>7} | {:>11.2}h | {:>11.2}h | {:>11.2}h | {:>9.2}h | {:>7.2}x   (paper: saved {}h, speedup {}x)",
            beam.label(),
            base,
            one,
            four,
            base - one,
            one / four,
            paper_saved[i],
            paper_speedup[i],
        );
    }
    println!();
    println!("paper: wall-time savings of 3.5 / 15.8 / 16.3 hours vs standalone, and");
    println!("       near-linear 3.8x / 3.9x / 3.4x speedups from 1 to 4 GPUs.");
    println!("expected shape: low saves least; speedups near (but below) 4x.");
    Ok(())
}
