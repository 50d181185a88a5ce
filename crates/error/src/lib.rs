//! # a4nn-error — the workspace error vocabulary
//!
//! One typed error enum, [`A4nnError`], shared by every layer of the
//! workflow: the evaluation pipeline, the scheduler pool, the lineage
//! writers, the Bus transport, and the CLI. Fallible operations
//! return `Result<_, A4nnError>` instead of panicking, and the CLI maps
//! each variant onto a distinct process exit code so scripted callers
//! (the paper's driver scripts, CI) can dispatch on failure class
//! without parsing stderr.
//!
//! The enum is deliberately coarse: variants distinguish *what kind of
//! subsystem failed* (I/O, checkpoint store, bus, network, config), not
//! every individual failure site — the human-readable context string
//! carries the specifics.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::fmt;
use std::io;

/// Every failure class the a4nn workflow can surface.
///
/// ```
/// use a4nn_error::A4nnError;
///
/// let e = A4nnError::Config("population must be positive".into());
/// assert_eq!(e.exit_code(), 3);
/// assert_eq!(e.to_string(), "invalid configuration: population must be positive");
/// ```
#[derive(Debug)]
pub enum A4nnError {
    /// Filesystem or serialization I/O failed; `context` names the
    /// operation and path.
    Io {
        /// What was being attempted (operation + path).
        context: String,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// A checkpoint could not be saved, loaded, or decoded.
    Checkpoint(String),
    /// The event bus closed while a producer or service still needed it.
    BusClosed(String),
    /// The requested configuration is invalid or inconsistent.
    Config(String),
    /// An internal invariant broke (a worker thread died, a service
    /// panicked); always a bug, never a user error.
    Internal(String),
    /// The network layer between the coordinator and a worker process
    /// broke: a peer spoke another protocol revision, a frame was
    /// malformed, a worker died past the dispatch-retry budget, or every
    /// worker is gone.
    /// Trainer panics *on* a worker are not `Net` errors — they flow
    /// back as failed training outcomes, exactly like local panics.
    Net(String),
    /// A cancellation hook stopped the search at a generation boundary
    /// after its state snapshot was committed. Not a failure of any
    /// subsystem: the run directory is resumable via `--resume`.
    Interrupted(String),
    /// An admission-controlled component (the inference server's bounded
    /// request queue) refused work because it is at capacity. Not
    /// machinery breakage: the caller should back off and retry, and a
    /// load generator that saw *nothing but* rejections surfaces this
    /// class instead of reporting an empty measurement.
    Saturated(String),
}

impl A4nnError {
    /// Shorthand for an [`A4nnError::Io`] with context.
    pub fn io(context: impl Into<String>, source: io::Error) -> Self {
        A4nnError::Io {
            context: context.into(),
            source,
        }
    }

    /// The process exit code the CLI maps this failure class onto.
    ///
    /// `0` is success and `2` is reserved for argument-parse errors
    /// (both outside this enum), so variants start at `3`:
    ///
    /// | code | class |
    /// |------|-------|
    /// | 3 | invalid configuration |
    /// | 4 | I/O failure |
    /// | 5 | checkpoint failure |
    /// | 6 | bus closed |
    /// | 8 | internal invariant broken |
    /// | 9 | network failure (worker lost, bad frame, protocol revision mismatch) |
    /// | 10 | interrupted at a generation boundary (resumable) |
    /// | 11 | admission queue saturated (back off and retry) |
    ///
    /// Code 7 is retired: a trainer that exhausts its retry budget is not
    /// an error but a `Terminated::Failed` record.
    pub fn exit_code(&self) -> i32 {
        match self {
            A4nnError::Config(_) => 3,
            A4nnError::Io { .. } => 4,
            A4nnError::Checkpoint(_) => 5,
            A4nnError::BusClosed(_) => 6,
            A4nnError::Internal(_) => 8,
            A4nnError::Net(_) => 9,
            A4nnError::Interrupted(_) => 10,
            A4nnError::Saturated(_) => 11,
        }
    }
}

impl fmt::Display for A4nnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            A4nnError::Io { context, source } => write!(f, "{context}: {source}"),
            A4nnError::Checkpoint(msg) => write!(f, "checkpoint failure: {msg}"),
            A4nnError::BusClosed(msg) => write!(f, "bus closed: {msg}"),
            A4nnError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            A4nnError::Internal(msg) => write!(f, "internal error: {msg}"),
            A4nnError::Net(msg) => write!(f, "network failure: {msg}"),
            A4nnError::Interrupted(msg) => write!(f, "search interrupted: {msg}"),
            A4nnError::Saturated(msg) => write!(f, "saturated: {msg}"),
        }
    }
}

impl std::error::Error for A4nnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            A4nnError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for A4nnError {
    fn from(source: io::Error) -> Self {
        A4nnError::Io {
            context: "I/O error".to_string(),
            source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_distinct_and_nonzero() {
        let errors = [
            A4nnError::Config("c".into()),
            A4nnError::io("ctx", io::Error::other("x")),
            A4nnError::Checkpoint("c".into()),
            A4nnError::BusClosed("b".into()),
            A4nnError::Internal("i".into()),
            A4nnError::Net("n".into()),
            A4nnError::Interrupted("stopped at generation 2".into()),
            A4nnError::Saturated("admission queue full".into()),
        ];
        let codes: Vec<i32> = errors.iter().map(A4nnError::exit_code).collect();
        assert_eq!(codes, vec![3, 4, 5, 6, 8, 9, 10, 11]);
        for c in codes {
            assert!(c != 0 && c != 1 && c != 2, "reserved code reused: {c}");
        }
    }

    #[test]
    fn display_is_single_line_with_context() {
        let e = A4nnError::io(
            "writing commons to ./out",
            io::Error::new(io::ErrorKind::PermissionDenied, "denied"),
        );
        let s = e.to_string();
        assert!(s.starts_with("writing commons to ./out: "));
        assert!(!s.contains('\n'), "diagnostics must be one line: {s:?}");
        assert_eq!(
            A4nnError::Net("worker 127.0.0.1:7001 missed 3 heartbeats".into()).to_string(),
            "network failure: worker 127.0.0.1:7001 missed 3 heartbeats"
        );
        assert_eq!(
            A4nnError::Saturated("serve queue holds 64 request(s)".into()).to_string(),
            "saturated: serve queue holds 64 request(s)"
        );
    }

    #[test]
    fn io_errors_convert_and_chain_source() {
        use std::error::Error;
        let e: A4nnError = io::Error::new(io::ErrorKind::NotFound, "gone").into();
        assert_eq!(e.exit_code(), 4);
        assert!(e.source().is_some());
        assert!(A4nnError::Config("x".into()).source().is_none());
    }
}
