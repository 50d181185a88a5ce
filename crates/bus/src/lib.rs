//! # a4nn-bus — in-situ event bus and the prediction-engine service
//!
//! The paper's workflow couples its concurrent trainers to the PENGUIN
//! prediction engine in situ, over memory instead of the filesystem
//! (§2.2, built on Wilkins/LowFive in the reference implementation).
//! This crate is that coupling layer:
//!
//! - [`topic`] — a typed MPMC publish–subscribe [`Topic`] over bounded
//!   per-subscriber queues with selectable backpressure ([`Policy`]:
//!   lossless blocking, lossy drop-oldest with exact drop accounting,
//!   or unbounded), per-subscriber delivery/lag counters, and graceful
//!   close-and-drain shutdown;
//! - [`events`] — the three-variant [`Event`] vocabulary of the
//!   trainer–engine hand-off: per-epoch fitness out, engine verdicts
//!   back, and a dead training attempt announced;
//! - [`services`] — the [`PredictionEngineService`], per-model PENGUIN
//!   engines answering epochs with verdicts.
//!
//! Determinism contract: a trainer coupled through the bus sees the same
//! verdicts as one driving its own engine inline, because engine state
//! is per-model and every verdict answers exactly one
//! `(model_id, epoch)`. The record trails are built by `a4nn-core`'s
//! pipeline from the trainers' outcomes, the same way on every
//! transport.

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod events;
pub mod services;
pub mod topic;

pub use events::{EngineVerdict, EpochCompleted, Event, TrainingFailed};
pub use services::{EngineFaultHook, PredictionEngineService, ENGINE_INBOX_CAPACITY};
pub use topic::{
    Policy, PublishError, RecvError, SubscriberStats, Subscription, Topic, TryRecvError,
};
