//! # a4nn-sched — workflow resource manager
//!
//! The paper distributes NN training across GPUs with Ray's FIFO dynamic
//! scheduling (§2.5): within a generation, whenever a GPU frees up it
//! takes the next untrained network; generations are barriers, so an idle
//! tail accumulates when the generation size is not divisible by the GPU
//! count. This crate reproduces that resource manager twice over:
//!
//! - [`des`] — a **discrete-event simulator** of the GPU cluster that
//!   replays per-task durations (produced by the trainer's cost model)
//!   under FIFO scheduling, with failed attempts requeued after the
//!   retry backoff, and reports makespans, per-GPU busy time, and
//!   the per-generation idle tail. All the paper's wall-time figures are
//!   regenerated on this simulator.
//! - [`pool`] — a **real thread-pool executor** with the same FIFO
//!   semantics, mapping virtual GPUs onto worker threads: the job runner
//!   of the in-process transports. It runs each job once; a trainer
//!   retry is a loop inside the job. The socket coordinator runs no
//!   jobs itself: it dispatches from one loop that also requeues a lost
//!   worker's jobs.
//! - LPT ordering lives in [`des`] as an ablation: longest-processing-
//!   time-first reduces the idle tail FIFO leaves behind.

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
pub mod des;
pub mod pool;
pub mod retry;

pub use des::{
    schedule, schedule_generations, Assignment, GenerationSchedule, ScheduleResult, Task,
    TaskOrdering,
};
pub use pool::{intra_op_threads, GpuPool, JobReport};
pub use retry::RetryPolicy;
