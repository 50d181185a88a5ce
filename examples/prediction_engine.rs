//! Using the prediction engine standalone — the composability story.
//!
//! The engine consumes only `(epoch, fitness)` pairs, so it can augment
//! *any* training loop. This example attaches it to three hand-written
//! learning curves and shows when (and whether) it terminates each one,
//! then demonstrates swapping the parametric function — the knob the
//! paper's conclusions ask about.
//!
//! ```bash
//! cargo run --release --example prediction_engine
//! ```

use a4nn_penguin::{replay, CurveFamily, EngineConfig};

fn demo(name: &str, config: EngineConfig, curve: impl Fn(u32) -> f64) {
    let points: Vec<(u32, f64)> = (1..=25).map(|e| (e, curve(e))).collect();
    let run = replay(&config, &points);
    let truth = curve(25);
    match run.converged {
        Some(fitness) => println!(
            "  {name:<22} terminated at epoch {:>2}: predicted {fitness:6.2}% \
             (true fitness@25 = {truth:6.2}%, error {:4.2})",
            run.epochs(),
            (fitness - truth).abs()
        ),
        None => println!("  {name:<22} trained all 25 epochs (final fitness {truth:6.2}%)"),
    }
}

fn main() {
    println!("== the decoupled prediction engine on three training curves ==\n");
    println!("engine: F(x) = a - b^(c-x), C_min=3, e_pred=25, N=3, r=0.5 (paper Table 1)\n");
    let paper = EngineConfig::paper_defaults();

    demo("fast learner", paper.clone(), |e| {
        96.0 - 55.0 * 0.55f64.powi(e as i32)
    });
    demo("slow learner", paper.clone(), |e| {
        92.0 - 45.0 * 0.88f64.powi(e as i32)
    });
    demo("non-learner", paper.clone(), |e| {
        50.0 + if e % 2 == 0 { 0.3 } else { -0.3 }
    });
    demo("late bloomer (convex)", paper.clone(), |e| {
        50.0 + 40.0 * (f64::from(e) / 25.0).powf(2.0)
    });

    println!("\n== swapping the parametric function (same fast-learner curve) ==\n");
    for family in CurveFamily::ALL {
        let config = EngineConfig {
            family,
            ..EngineConfig::paper_defaults()
        };
        demo(family.name(), config, |e| {
            96.0 - 55.0 * 0.55f64.powi(e as i32)
        });
    }

    println!("\nthe engine returns P[-1] as the fitness the NAS should use (Alg. 1);");
    println!("curves that never stabilize simply train their full budget.");
}
