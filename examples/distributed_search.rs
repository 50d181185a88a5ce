//! Distributed training across virtual GPUs — §2.5's resource manager on
//! both of its implementations:
//!
//! 1. the **discrete-event simulator** scales the full paper configuration
//!    from 1 to 8 GPUs and reports the per-generation idle tails FIFO
//!    scheduling leaves behind, and
//! 2. the **real thread pool** trains a small generation of networks
//!    concurrently, showing measured (not simulated) speedup.
//!
//! ```bash
//! cargo run --release --example distributed_search
//! ```

use a4nn_core::prelude::*;
use a4nn_core::{SurrogateFactory, SurrogateParams};
use a4nn_sched::GpuPool;
use a4nn_xfel::generate_split;
use std::time::Instant;

fn main() -> Result<(), A4nnError> {
    let beam = BeamIntensity::Medium;

    println!("== part 1: simulated cluster scaling (paper configuration) ==\n");
    println!(
        "{:>5} | {:>12} | {:>10} | {:>12}",
        "GPUs", "wall time", "speedup", "idle tail"
    );
    let mut base = None;
    for gpus in [1usize, 2, 4, 8] {
        let config = WorkflowConfig::a4nn(beam, gpus, 2023);
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(beam));
        let out = A4nnWorkflow::new(config).run(&factory, RunOptions::default())?;
        let hours = out.wall_time_s() / 3600.0;
        let baseline = *base.get_or_insert(hours);
        println!(
            "{gpus:>5} | {hours:>11.2}h | {:>9.2}x | {:>11.2}h",
            baseline / hours,
            out.schedule.total_idle_tail() / 3600.0,
        );
    }
    println!("\n(the idle tail grows with GPU count because 10 models per generation");
    println!(" do not divide evenly — the §2.5 observation)\n");

    println!("== part 2: real thread-pool training of one generation ==\n");
    let (train, test) = generate_split(&XfelConfig::default(), BeamIntensity::High, 40, 9);
    let train = std::sync::Arc::new(train);
    let test = std::sync::Arc::new(test);
    let space = SearchSpace::paper_defaults();
    let factory = a4nn_core::RealTrainerFactory::new(
        space.clone(),
        train,
        test,
        a4nn_core::TrainingHyperparams::default(),
    );
    use a4nn_core::trainer::TrainerFactory;
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let genomes: Vec<_> = (0..6).map(|_| space.random_genome(&mut rng)).collect();

    for workers in [1usize, 3] {
        let pool = GpuPool::new(workers);
        let t0 = Instant::now();
        let jobs: Vec<_> = genomes
            .iter()
            .enumerate()
            .map(|(i, genome)| {
                let factory = &factory;
                move |_gpu: usize| {
                    let mut trainer = factory.make(genome, i as u64, 5);
                    let mut acc = 0.0;
                    for e in 1..=2 {
                        acc = trainer.train_epoch(e).val_acc;
                    }
                    acc
                }
            })
            .collect();
        let (accs, reports) = pool.run_batch(jobs).expect("pool machinery is healthy");
        let elapsed = t0.elapsed().as_secs_f64();
        let workers_used: std::collections::HashSet<usize> =
            reports.iter().map(|r| r.worker).collect();
        println!(
            "  {workers} worker(s): trained {} models in {elapsed:.1}s on {} virtual GPU(s); \
             val accs {:?}",
            accs.len(),
            workers_used.len(),
            accs.iter()
                .flatten()
                .map(|a| format!("{a:.0}"))
                .collect::<Vec<_>>()
        );
    }
    println!("\nFIFO dynamic scheduling: each free worker takes the next untrained model,");
    println!("exactly Ray's policy in the paper's deployment.");
    Ok(())
}
