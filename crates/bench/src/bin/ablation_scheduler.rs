//! §2.5 ablation: FIFO versus LPT scheduling of the generation batches.
//!
//! The paper notes that Ray's FIFO dynamic scheduling leaves GPU downtime
//! at the end of each generation when the generation size is not divisible
//! by the GPU count. This harness replays the per-model durations of a
//! medium-beam A4NN run under both orderings and quantifies the idle tail.

use a4nn_bench::{header, hours, run_a4nn};
use a4nn_core::prelude::*;
use a4nn_sched::{schedule_generations, Task, TaskOrdering};

fn main() -> Result<(), A4nnError> {
    header(
        "Ablation",
        "FIFO vs LPT ordering on the simulated GPU cluster (idle-tail study)",
    );
    let out = run_a4nn(BeamIntensity::Medium, 1)?;
    // Rebuild the per-generation task lists from the commons.
    let n_generations = out.config.nas.generations;
    let mut generations: Vec<Vec<Task>> = vec![Vec::new(); n_generations];
    for r in &out.commons.records {
        generations[r.generation].push(Task {
            id: r.model_id,
            duration: r.wall_time_s,
        });
    }
    println!(
        "{:>5} | {:>12} | {:>12} | {:>14} | {:>14} | {:>12}",
        "GPUs", "FIFO (h)", "LPT (h)", "FIFO idle (h)", "LPT idle (h)", "FIFO util"
    );
    for gpus in [1usize, 2, 4, 8] {
        let fifo = schedule_generations(gpus, &generations, TaskOrdering::Fifo);
        let lpt = schedule_generations(gpus, &generations, TaskOrdering::Lpt);
        println!(
            "{gpus:>5} | {:>11.2}h | {:>11.2}h | {:>13.2}h | {:>13.2}h | {:>11.1}%",
            hours(fifo.total_wall_time()),
            hours(lpt.total_wall_time()),
            hours(fifo.total_idle_tail()),
            hours(lpt.total_idle_tail()),
            100.0 * fifo.utilization(),
        );
    }
    println!();
    println!("expected shape: idle tails grow with GPU count (10 models per generation");
    println!("do not divide evenly); LPT typically trims the tail FIFO leaves (within");
    println!("Graham's 4/3 bound of optimal in the worst case).");
    Ok(())
}
