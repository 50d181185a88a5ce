use a4nn_core::prelude::*;
use a4nn_lineage::Analyzer;

fn main() -> Result<(), A4nnError> {
    for beam in BeamIntensity::ALL {
        let config = WorkflowConfig::a4nn(beam, 1, 2023);
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(beam));
        let out = A4nnWorkflow::new(config).run(&factory, RunOptions::default())?;
        let a = Analyzer::new(&out.commons);
        println!(
            "{beam:>6}: epochs={} saved={:.1}% converged={:.0}% mean_et={:.1} wall={:.1}h mean_fit={:.1} pred_err={:.2}",
            out.total_epochs(),
            out.epochs_saved_pct(),
            100.0 * a.early_termination_rate(),
            a.mean_termination_epoch().unwrap_or(f64::NAN),
            out.wall_time_s() / 3600.0,
            a.mean_fitness(),
            a.mean_prediction_error().unwrap_or(f64::NAN),
        );
    }
    println!("targets: low saved~13-16% conv~60% et~18 | med saved~34% conv~70% et~12.5 | high saved~30% conv~55% et~10");
    Ok(())
}
