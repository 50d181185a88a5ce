//! The serve endpoint: a TCP listener in front of the micro-batcher.
//!
//! Connections run on the crate's epoll event loop: every connection is
//! a nonblocking state machine (request decode → batcher hand-off →
//! response flush) multiplexed by one fixed thread, with the batch
//! worker posting completions back through an eventfd doorbell. A
//! server is those two threads, whatever its client count. It is the
//! only I/O model: off Linux, where there is no epoll,
//! [`ServeServer::bind`] refuses with an [`A4nnError::Config`] (exit 3).
//!
//! Connection handling does no tensor work: frames are decoded,
//! requests handed to the [`Batcher`], replies written. All `f32`
//! scratch lives in the batch worker's pooled arena.
//!
//! When a metrics path is configured, the registry snapshot is persisted
//! atomically (tmp+rename) at most once every two seconds as
//! connections close, plus once when the server finishes — so a server
//! killed by a supervisor still leaves its measurements on disk, but
//! metrics I/O does not scale with connection churn.

use crate::batcher::{Batcher, BatcherConfig};
use crate::model::ModelRepo;
use crate::reactor::Reactor;
use a4nn_error::A4nnError;
use a4nn_metrics::MetricsRegistry;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration: the idle deadline and the metrics sink. The
/// batcher's bounds are constants (see [`crate::batcher`]).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Close a connection with no read/write progress for this long —
    /// a client stalled mid-frame cannot hold its slot forever.
    pub idle_timeout: Duration,
    /// Where to persist the metrics snapshot (atomic tmp+rename), when
    /// set.
    pub metrics_out: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            idle_timeout: Duration::from_secs(30),
            metrics_out: None,
        }
    }
}

/// Write the metrics snapshot to `path` atomically (tmp+rename). A
/// failed write is logged, never fatal to the server.
pub(crate) fn persist_metrics(metrics: &MetricsRegistry, path: &Path) {
    let json = metrics
        .snapshot()
        .to_json()
        .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}").into_bytes());
    if let Err(e) = a4nn_lineage::write_atomic(path, &json) {
        eprintln!("a4nn serve: writing metrics to {}: {e}", path.display());
    }
}

/// A bound serve endpoint, ready to accept classify connections.
pub struct ServeServer {
    listener: TcpListener,
    reactor: Reactor,
    batcher: Batcher,
    metrics: Arc<MetricsRegistry>,
    metrics_out: Option<PathBuf>,
}

impl ServeServer {
    /// Create the reactor, bind `addr` (port `0` picks a free port) and
    /// start the batch worker over `repo`'s models. A zero
    /// `idle_timeout` is a [`A4nnError::Config`]: every connection would
    /// be idle at once. So is a platform without epoll, refused before
    /// the port is bound or the batch worker starts.
    pub fn bind(
        addr: &str,
        repo: ModelRepo,
        cfg: ServeConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<Self, A4nnError> {
        if cfg.idle_timeout.is_zero() {
            return Err(A4nnError::Config(
                "the serve idle timeout must be positive".into(),
            ));
        }
        let reactor = Reactor::new(cfg.idle_timeout, Arc::clone(&metrics))?;
        let listener = TcpListener::bind(addr)
            .map_err(|e| A4nnError::Net(format!("binding serve listener on {addr}: {e}")))?;
        let batcher = Batcher::start(repo, BatcherConfig, Arc::clone(&metrics))?;
        Ok(ServeServer {
            listener,
            reactor,
            batcher,
            metrics,
            metrics_out: cfg.metrics_out,
        })
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> Result<SocketAddr, A4nnError> {
        self.listener
            .local_addr()
            .map_err(|e| A4nnError::Net(format!("reading serve listener address: {e}")))
    }

    /// Accept and serve connections on the reactor. `sessions == 0`
    /// serves forever; otherwise the server exits after that many
    /// connections have been accepted *and* finished. A connection that
    /// ends abnormally (dropped socket, bad frame, idle deadline) is
    /// logged and counted, never fatal to the server.
    pub fn run(&mut self, sessions: usize) -> Result<(), A4nnError> {
        let result = self.reactor.run(
            &self.listener,
            &self.batcher,
            self.metrics_out.as_deref(),
            sessions,
        );
        if let Some(path) = &self.metrics_out {
            persist_metrics(&self.metrics, path);
        }
        result
    }

    /// Bind and serve on a background thread — the in-process server the
    /// tests drive.
    pub fn spawn(
        addr: &str,
        repo: ModelRepo,
        cfg: ServeConfig,
        metrics: Arc<MetricsRegistry>,
        sessions: usize,
    ) -> Result<ServeHandle, A4nnError> {
        let mut server = ServeServer::bind(addr, repo, cfg, metrics)?;
        let addr = server.local_addr()?;
        let join = std::thread::spawn(move || server.run(sessions));
        Ok(ServeHandle { addr, join })
    }
}

/// Handle to a [`ServeServer::spawn`]ed background server.
pub struct ServeHandle {
    addr: SocketAddr,
    join: std::thread::JoinHandle<Result<(), A4nnError>>,
}

impl ServeHandle {
    /// The server's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the server to finish its session budget.
    pub fn join(self) -> Result<(), A4nnError> {
        self.join
            .join()
            .map_err(|_| A4nnError::Internal("serve server thread panicked".into()))?
    }
}
