//! §6 question: "Are there structural similarities between successful
//! architectures produced by NAS?" — structural-feature correlations and
//! a top-vs-rest contrast over each beam's 100 architectures.

use a4nn_bench::{header, run_a4nn};
use a4nn_core::prelude::*;
use a4nn_lineage::{feature_fitness_correlations, success_contrast};

fn main() -> Result<(), A4nnError> {
    header(
        "Ablation",
        "structural similarities of successful architectures (§6 question)",
    );
    for beam in BeamIntensity::ALL {
        let out = run_a4nn(beam, 1)?;
        println!("\nbeam {beam}:");
        println!("  feature-fitness Pearson correlations:");
        for (name, corr) in feature_fitness_correlations(&out.commons) {
            println!("    {name:<14} {corr:+.3}");
        }
        if let Some((top, rest)) = success_contrast(&out.commons, 0.2) {
            println!(
                "  top 20% ({} models, mean fitness {:.1}%) vs rest ({} models, {:.1}%):",
                top.count, top.mean_fitness, rest.count, rest.mean_fitness
            );
            for ((name, t), (_, r)) in top.means.iter().zip(&rest.means) {
                println!("    {name:<14} top {t:>6.2}  rest {r:>6.2}");
            }
        }
    }
    println!();
    println!("interpretation: denser genomes (more active nodes/edges) correlate");
    println!("positively but weakly with fitness — structure helps, yet success is");
    println!("attainable across the space, which is why the multi-objective search");
    println!("finds accurate low-FLOPs models (Figure 6).");
    Ok(())
}
