//! # a4nn-bus — a typed in-process publish–subscribe topic
//!
//! The paper's workflow couples its concurrent trainers to the PENGUIN
//! prediction engine in situ, over memory instead of the filesystem
//! (§2.2, built on Wilkins/LowFive in the reference implementation).
//! This crate is the communicator that coupling rides on: a typed MPMC
//! [`Topic`] over per-subscriber queues with selectable backpressure
//! ([`Policy`]: bounded and blocking, or unbounded; both lossless) and
//! graceful close-and-drain shutdown.
//!
//! The crate knows nothing of A4NN's events. `a4nn-core`'s Bus transport
//! defines its own two-message vocabulary on a `Topic` and hosts the
//! prediction engine behind it.

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
pub mod topic;

pub use topic::{Policy, PublishError, RecvError, Subscription, Topic, TryRecvError};
