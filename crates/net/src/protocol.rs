//! The coordinator↔worker message vocabulary.
//!
//! One session, in order:
//!
//! 1. worker → [`Welcome`](Message::Welcome), unprompted on accept,
//!    advertising its GPU count;
//! 2. coordinator → [`RunSetup`](Message::RunSetup): the full workflow
//!    configuration, its trainer included, plus the fault-tolerance
//!    contract, so the worker reconstructs the *same* deterministic
//!    trainer the coordinator would run in process;
//! 3. jobs: coordinator → [`Job`](Message::Job), worker →
//!    [`JobDone`](Message::JobDone), interleaved with periodic
//!    [`Heartbeat`](Message::Heartbeat)s from the worker;
//! 4. coordinator → [`Shutdown`](Message::Shutdown) (or just closes).
//!
//! No message body carries the protocol revision: every frame header
//! does, so a peer of another revision fails its first frame with a
//! typed [`VersionMismatch`](crate::NetError::VersionMismatch).
//! Revisions: 2, `JobDone` carries the full cost vector; 3, `RunSetup`'s
//! configuration carries the trainer (a worker of 2 would ignore it and
//! train the surrogate); 4, the worker speaks first and no body carries
//! a version; 5, `Job` drops its unused `generation` field.
//!
//! Trainer results cross the wire as the full
//! [`TrainingOutcome`] — every simulated duration and fitness value
//! bit-exact (the vendored JSON codec writes `f64`s shortest-roundtrip),
//! which is what lets the socket transport hold byte-identical commons
//! with the in-process transports.

use a4nn_core::{ModelCost, TrainingOutcome, WorkflowConfig};
use a4nn_faults::FaultPlan;
use a4nn_genome::Genome;
use a4nn_sched::RetryPolicy;
use serde::{Deserialize, Serialize};

/// Every message either side of an `a4nn-net` connection can send.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Message {
    /// Worker's opener: how many trainer jobs it can run concurrently
    /// (the sharding weight).
    Welcome {
        /// Advertised GPU count; the coordinator keeps at most this
        /// many jobs in flight on the connection.
        gpus: usize,
    },
    /// Everything the worker needs to train deterministically.
    RunSetup {
        /// The run's workflow configuration (search space, engine,
        /// seed, trainer); the worker rebuilds its trainer factory from
        /// this.
        config: WorkflowConfig,
        /// Trainer retry policy — worker-side attempts, identical to
        /// the in-process retry loop.
        retry: RetryPolicy,
        /// The deterministic fault plan, consulted at the same
        /// `(model, epoch, attempt)` sites as in-process transports.
        plan: FaultPlan,
        /// How often the worker must send
        /// [`Heartbeat`](Message::Heartbeat)s, in milliseconds.
        heartbeat_interval_ms: u64,
    },
    /// One trainer job.
    Job {
        /// Model id (also the reply correlation key).
        model_id: u64,
        /// 1-based dispatch attempt across workers — keys the
        /// `WorkerDrop` fault gate, never the trainer's own retry
        /// counter.
        dispatch_attempt: u32,
        /// The genome to decode and train.
        genome: Genome,
    },
    /// The completed job, outcome intact.
    JobDone {
        /// Which job this answers.
        model_id: u64,
        /// The trained architecture's full static/dynamic cost vector
        /// (MFLOPs, parameter bytes, MACs, peak workspace bytes) —
        /// measured worker-side so every configured objective is
        /// computed where the training ran.
        cost: ModelCost,
        /// The full training outcome, including worker-side retry
        /// accounting.
        outcome: TrainingOutcome,
    },
    /// Periodic liveness signal from the worker.
    Heartbeat,
    /// Coordinator is done with the session.
    Shutdown,
}
