//! §4.3.1: prediction-engine overhead.
//!
//! The paper measures an average of 52.16 s added per 100-model test,
//! 28.07 ms per engine interaction, and 1.12 ms variance of the per-epoch
//! overhead. Our engine is measured the same way: real wall time spent in
//! `observe + step` across a full 100-model A4NN run. (A Rust LM fit over
//! ≤25 points is far cheaper than the paper's Python engine, so expect
//! the same orders of "negligible" rather than the same milliseconds.)

use a4nn_bench::{header, run_a4nn};
use a4nn_core::prelude::*;

fn main() -> Result<(), A4nnError> {
    header(
        "§4.3.1",
        "prediction-engine overhead per test and per interaction",
    );
    println!(
        "{:>7} | {:>14} | {:>18} | {:>14}",
        "beam", "interactions", "total overhead", "per interaction"
    );
    for beam in BeamIntensity::ALL {
        let out = run_a4nn(beam, 1)?;
        println!(
            "{:>7} | {:>14} | {:>16.3}s | {:>12.3}ms",
            beam.label(),
            out.engine_interactions,
            out.engine_seconds,
            1e3 * out.engine_seconds_per_interaction(),
        );
    }
    println!();
    println!("paper: 52.16s per 100-model test, 28.07ms per interaction,");
    println!("       1.12ms variance — i.e. negligible next to ~72s epochs.");
    println!("expected shape: overhead orders of magnitude below the training time.");
    Ok(())
}
