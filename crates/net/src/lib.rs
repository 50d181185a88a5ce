//! # a4nn-net — distributed search over TCP
//!
//! The paper's workflow couples its components over pub/sub on one
//! machine; this crate extends the same [`Transport`](a4nn_core::Transport)
//! seam across machine boundaries. Three pieces:
//!
//! - [`frame`] — the wire codec: length-prefixed, versioned frames
//!   carrying JSON payloads (`"A4NN"` magic + `u16` protocol version +
//!   `u32` length), with typed rejection of truncation, corruption, and
//!   foreign protocol revisions.
//! - [`worker`] — the worker process ([`WorkerServer`]): accepts a
//!   coordinator session, advertises its GPUs unprompted, rebuilds the deterministic trainer the shipped
//!   [`RunSetup`](Message::RunSetup) names, trains jobs with
//!   [`a4nn_core::train_model`], and heartbeats its liveness.
//! - [`transport`] — the coordinator ([`SocketTransport`]): an
//!   implementation of the transport trait that shards each generation across
//!   workers weighted by their advertised GPU counts from one dispatch
//!   loop, detects dead workers by heartbeat deadline, and requeues
//!   their in-flight jobs on that loop's ready queue.
//! - [`reactor`] (Linux) — the event-driven I/O layer: an epoll event
//!   loop over hand-written syscall bindings ([`sys`]) that multiplexes
//!   every connection through one thread, driving nonblocking state
//!   machines built from the same [`FrameDecoder`] plus the buffered
//!   partial-write [`WriteQueue`]. The serve endpoint runs on it on
//!   Linux.
//!
//! The load-bearing property is *placement invariance*: the worker runs
//! exactly the in-process training function on a purely
//! config-derived factory, simulated GPU placement comes from the
//! discrete-event schedule (not from which worker trained what), and
//! `f64`s survive the JSON codec bit-exactly — so direct, bus, and
//! socket runs of the same seeded search produce byte-identical commons.
//!
//! Failure taxonomy: trainer panics on a worker are *data* (the worker's
//! retry loop absorbs them; exhaustion becomes `Terminated::Failed`),
//! while dead workers, bad frames, and foreign protocol revisions are
//! `Net`-class [`A4nnError`](a4nn_error::A4nnError)s — machinery
//! breakage with its own CLI exit code.

#![warn(clippy::redundant_clone)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod frame;
pub mod protocol;
#[cfg(target_os = "linux")]
pub mod reactor;
#[cfg(target_os = "linux")]
pub mod sys;
pub mod transport;
pub mod worker;

pub use frame::{
    encode, read_message, write_message, FrameDecoder, NetError, WriteQueue, HEADER_LEN, MAGIC,
    MAX_PAYLOAD, PROTOCOL_VERSION, READ_CHUNK,
};
pub use protocol::Message;
#[cfg(target_os = "linux")]
pub use reactor::{
    CloseReason, FrameHandler, HandlerAction, Reactor, ReactorConfig, ReactorHandle, Token,
};
pub use transport::{SocketOptions, SocketTransport};
pub use worker::{WorkerHandle, WorkerServer};
