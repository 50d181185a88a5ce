//! The lineage tracker and data commons: record a full search, persist it
//! to disk as the paper's Dataverse-style deposit (one JSON file per
//! model + manifest), reload it, and analyze it — the workflow behind the
//! paper's 54 GB open-access commons and its Jupyter analyzer.
//!
//! ```bash
//! cargo run --release --example data_commons
//! ```

use a4nn_core::prelude::*;
use a4nn_lineage::{
    feature_fitness_correlations, models_csv, success_contrast, Analyzer, DataCommons,
};

fn main() -> Result<(), A4nnError> {
    let beam = BeamIntensity::Medium;
    println!("== building a data commons from an A4NN run ==\n");
    let config = WorkflowConfig::a4nn(beam, 2, 7);
    let factory = config.trainer_factory()?;
    let output = A4nnWorkflow::new(config).run(factory.as_ref(), RunOptions::default())?;
    println!(
        "run complete: {} record trails collected",
        output.commons.len()
    );

    // Persist and reload, Dataverse-style.
    let dir = std::env::temp_dir().join("a4nn-data-commons-example");
    output.commons.save_dir(&dir).expect("commons writes");
    let loaded = DataCommons::load_dir(&dir).expect("commons loads");
    assert_eq!(loaded, output.commons);
    let bytes: u64 = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    println!(
        "persisted to {} ({} files, {:.1} KiB) and reloaded losslessly\n",
        dir.display(),
        loaded.len() + 1,
        bytes as f64 / 1024.0
    );

    // Analyzer queries (the paper's notebook workflows).
    let analyzer = Analyzer::new(&loaded);
    println!("analyzer queries:");
    println!(
        "  mean fitness                : {:.2}%",
        analyzer.mean_fitness()
    );
    println!(
        "  models above 99% fitness    : {}",
        analyzer.find(|r| r.final_fitness > 99.0).len()
    );
    println!(
        "  early-terminated models     : {:.0}%",
        100.0 * analyzer.early_termination_rate()
    );
    println!(
        "  FLOPs-accuracy correlation  : {:+.3}",
        analyzer.flops_fitness_correlation().unwrap_or(f64::NAN)
    );
    println!(
        "  mean stop gap               : {:.2} accuracy points",
        analyzer.mean_stop_gap().unwrap_or(f64::NAN)
    );

    // Inspect one record trail end to end.
    let best = analyzer.best_by_fitness().unwrap();
    println!(
        "\nrecord trail of the best model (#{}, gen {}, gpu {:?}):",
        best.model_id, best.generation, best.gpu
    );
    println!("  genome      : {}", best.genome.to_compact_string());
    println!("  arch        : {}", best.arch_summary);
    println!("  flops       : {:.1} MFLOPs", best.flops);
    if let Some(engine) = &best.engine {
        println!(
            "  engine      : {} (C_min={}, e_pred={}, N={}, r={})",
            engine.function, engine.c_min, engine.e_pred, engine.n, engine.r
        );
    }
    println!("  learning curve (epoch, val acc, prediction):");
    for e in &best.epochs {
        println!(
            "    {:>2}  {:>6.2}%  {}",
            e.epoch,
            e.val_acc,
            e.prediction
                .map(|p| format!("{p:6.2}%"))
                .unwrap_or_else(|| "   -  ".into())
        );
    }
    // Structural analytics: the conclusions' "are there structural
    // similarities between successful architectures?" question.
    println!("\nstructural feature ↔ fitness correlations:");
    for (name, corr) in feature_fitness_correlations(&loaded) {
        println!("  {name:<14} {corr:+.3}");
    }
    if let Some((top, rest)) = success_contrast(&loaded, 0.2) {
        println!(
            "top-20% models average {:.2} active nodes vs {:.2} for the rest",
            top.means[0].1, rest.means[0].1
        );
    }

    // Tabular export for DataFrame-style analysis.
    let csv = models_csv(&loaded);
    println!(
        "\nmodels.csv preview ({} rows):\n{}",
        csv.lines().count() - 1,
        csv.lines().take(3).collect::<Vec<_>>().join("\n")
    );
    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
