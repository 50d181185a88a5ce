//! The serve endpoint: a TCP listener in front of the micro-batcher.
//!
//! Connections run on the epoll event loop from `a4nn_net::reactor`:
//! every connection is a nonblocking state machine (request decode →
//! batcher hand-off → response flush) multiplexed by one fixed thread,
//! with batch workers posting completions back through the reactor's
//! eventfd doorbell. Thread count is reactor + batch workers,
//! independent of client count. It is the only I/O model: off Linux,
//! where there is no epoll, [`ServeServer::bind`] refuses with an
//! [`A4nnError::Config`] (exit 3).
//!
//! Connection handling does no tensor work: frames are decoded,
//! requests handed to the [`Batcher`], replies written. All `f32`
//! scratch lives in the batch workers' pooled arenas.
//!
//! When a metrics path is configured, the registry snapshot is persisted
//! atomically (tmp+rename) at most once every two seconds as
//! connections close, plus once when the server finishes — so a server
//! killed by a supervisor still leaves its measurements on disk, but
//! metrics I/O does not scale with connection churn.

use crate::batcher::{Batcher, BatcherConfig};
use crate::model::ModelRepo;
use a4nn_error::A4nnError;
use a4nn_metrics::MetricsRegistry;
use reactor_handler::Reactor;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration: batcher knobs plus the idle deadline and the
/// metrics sink.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-queue and batching knobs.
    pub batcher: BatcherConfig,
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
            batcher: BatcherConfig::default(),
            idle_timeout: Duration::from_secs(30),
            metrics_out: None,
        }
    }
}

/// Write the metrics snapshot to `path` atomically (tmp+rename). A
/// failed write is logged, never fatal to the server.
fn persist_metrics(metrics: &MetricsRegistry, path: &Path) {
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
    batcher: Arc<Batcher>,
    metrics: Arc<MetricsRegistry>,
    metrics_out: Option<PathBuf>,
}

impl ServeServer {
    /// Create the reactor, bind `addr` (port `0` picks a free port) and
    /// start the batch workers over `repo`'s models. A zero
    /// `idle_timeout` is a [`A4nnError::Config`]: every connection would
    /// be idle at once. So is a platform without epoll, refused before
    /// the port is bound or a batch worker starts.
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
        let reactor = reactor_handler::open(cfg.idle_timeout, Arc::clone(&metrics))?;
        let listener = TcpListener::bind(addr)
            .map_err(|e| A4nnError::Net(format!("binding serve listener on {addr}: {e}")))?;
        let batcher = Arc::new(Batcher::start(repo, cfg.batcher, Arc::clone(&metrics))?);
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
        let result = reactor_handler::serve(
            &mut self.reactor,
            &self.listener,
            &self.batcher,
            &self.metrics,
            &self.metrics_out,
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

/// The serve protocol on the epoll reactor.
#[cfg(target_os = "linux")]
mod reactor_handler {
    use super::*;
    use crate::batcher::Classification;
    use crate::protocol::{ServeRequest, ServeResponse};
    use a4nn_metrics::names;
    pub(super) use a4nn_net::reactor::Reactor;
    use a4nn_net::reactor::{FrameHandler, HandlerAction, ReactorConfig, ReactorHandle, Token};
    use a4nn_net::{encode, WriteQueue};
    use std::collections::{HashMap, VecDeque};
    use std::time::Instant;

    /// Persist the metrics snapshot at most this often as connections
    /// close.
    const METRICS_INTERVAL: Duration = Duration::from_secs(2);

    /// Create the epoll instance and its completion doorbell.
    pub(super) fn open(
        idle_timeout: Duration,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<Reactor, A4nnError> {
        Reactor::new(ReactorConfig {
            idle_timeout,
            metrics,
        })
    }

    /// Run the event loop over `listener` until the session budget is
    /// served (`sessions == 0` serves forever).
    pub(super) fn serve(
        reactor: &mut Reactor,
        listener: &TcpListener,
        batcher: &Arc<Batcher>,
        metrics: &Arc<MetricsRegistry>,
        metrics_out: &Option<PathBuf>,
        sessions: usize,
    ) -> Result<(), A4nnError> {
        let mut handler = ServeHandler {
            batcher: Arc::clone(batcher),
            metrics: Arc::clone(metrics),
            reactor: reactor.handle(),
            sessions: HashMap::new(),
            metrics_out: metrics_out.clone(),
            last_persist: None,
        };
        reactor.run(listener, &mut handler, sessions)
    }

    /// Most requests a pipelining client may have parked behind an
    /// in-flight classification before the connection is dropped as
    /// abusive. The blocking client never pipelines, so this only
    /// bounds hostile peers' memory.
    const PIPELINE_CAP: usize = 256;

    /// Per-connection protocol state: one request in flight at a time,
    /// made explicit because the reactor cannot block between states.
    struct Session {
        /// A classification is at the batcher; its reply frame must be
        /// written before any later request's.
        in_flight: bool,
        /// Requests received while one was in flight, answered strictly
        /// in arrival order.
        parked: VecDeque<ServeRequest>,
    }

    /// The reactor-side serve protocol: one handler instance for all
    /// connections, keyed by token.
    struct ServeHandler {
        batcher: Arc<Batcher>,
        metrics: Arc<MetricsRegistry>,
        reactor: ReactorHandle,
        sessions: HashMap<Token, Session>,
        metrics_out: Option<PathBuf>,
        /// The last on-close snapshot write, for the [`METRICS_INTERVAL`] debounce.
        last_persist: Option<Instant>,
    }

    impl ServeHandler {
        /// Hand one Classify to the batcher; the batch worker posts the
        /// encoded response back through the reactor doorbell. Inline
        /// errors (saturation, bad request) are answered immediately —
        /// ordering holds because nothing was in flight.
        #[allow(clippy::too_many_arguments)]
        fn submit_classify(
            &mut self,
            token: Token,
            model_id: Option<u64>,
            channels: usize,
            height: usize,
            width: usize,
            pixels: Vec<f32>,
            out: &mut WriteQueue,
        ) -> HandlerAction {
            let reactor = self.reactor.clone();
            let metrics = Arc::clone(&self.metrics);
            let t0 = Instant::now();
            let reply = move |c: Classification| {
                metrics.observe_duration(names::SERVE_LATENCY_US, t0.elapsed().as_secs_f64());
                let response = ServeResponse::Classified {
                    model_id: c.model_id,
                    class: c.class,
                    logits: c.logits,
                };
                match encode(&response) {
                    Ok(frame) => reactor.complete(token, frame),
                    // An unencodable response is machinery breakage; the
                    // reactor will close the connection at its idle
                    // deadline since no reply ever lands.
                    Err(e) => eprintln!("a4nn serve: encoding classify response: {e}"),
                }
            };
            match self
                .batcher
                .submit_sink(model_id, channels, height, width, pixels, reply)
            {
                Ok(()) => {
                    if let Some(s) = self.sessions.get_mut(&token) {
                        s.in_flight = true;
                    }
                    HandlerAction::Continue
                }
                Err(A4nnError::Saturated(reason)) => {
                    enqueue_or_close(out, &ServeResponse::Rejected { reason })
                }
                Err(e) => enqueue_or_close(
                    out,
                    &ServeResponse::Error {
                        message: e.to_string(),
                    },
                ),
            }
        }

        /// Apply one request whose turn has come (nothing in flight).
        fn process(
            &mut self,
            token: Token,
            request: ServeRequest,
            out: &mut WriteQueue,
        ) -> HandlerAction {
            match request {
                ServeRequest::Classify {
                    model_id,
                    channels,
                    height,
                    width,
                    pixels,
                } => self.submit_classify(token, model_id, channels, height, width, pixels, out),
                ServeRequest::Models => {
                    enqueue_or_close(out, &ServeResponse::Models(self.batcher.infos().to_vec()))
                }
                ServeRequest::Goodbye => HandlerAction::CloseAfterFlush,
            }
        }

        /// Drain parked requests until one goes in flight, one closes
        /// the session, or the queue empties.
        fn pump_parked(&mut self, token: Token, out: &mut WriteQueue) -> HandlerAction {
            loop {
                let Some(session) = self.sessions.get_mut(&token) else {
                    return HandlerAction::CloseNow;
                };
                if session.in_flight {
                    return HandlerAction::Continue;
                }
                let Some(request) = session.parked.pop_front() else {
                    return HandlerAction::Continue;
                };
                match self.process(token, request, out) {
                    HandlerAction::Continue => continue,
                    action => return action,
                }
            }
        }
    }

    impl FrameHandler for ServeHandler {
        fn on_open(&mut self, token: Token) {
            self.sessions.insert(
                token,
                Session {
                    in_flight: false,
                    parked: VecDeque::new(),
                },
            );
        }

        fn on_frame(
            &mut self,
            token: Token,
            payload: &[u8],
            out: &mut WriteQueue,
        ) -> HandlerAction {
            let request: ServeRequest = match serde_json::from_slice(payload) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("a4nn serve: undecodable request payload: {e}");
                    return HandlerAction::CloseNow;
                }
            };
            let Some(session) = self.sessions.get_mut(&token) else {
                return HandlerAction::CloseNow;
            };
            if session.in_flight || !session.parked.is_empty() {
                // Strict request→response ordering: later requests wait
                // their turn behind the in-flight classification.
                if session.parked.len() >= PIPELINE_CAP {
                    eprintln!(
                        "a4nn serve: dropping connection with {PIPELINE_CAP} pipelined \
                         request(s) already parked"
                    );
                    return HandlerAction::CloseNow;
                }
                session.parked.push_back(request);
                return HandlerAction::Continue;
            }
            self.process(token, request, out)
        }

        fn on_complete(
            &mut self,
            token: Token,
            frame: Vec<u8>,
            out: &mut WriteQueue,
        ) -> HandlerAction {
            out.enqueue(&frame);
            if let Some(session) = self.sessions.get_mut(&token) {
                session.in_flight = false;
            }
            self.pump_parked(token, out)
        }

        fn on_close(&mut self, token: Token) {
            self.sessions.remove(&token);
            if let Some(path) = &self.metrics_out {
                if self
                    .last_persist
                    .is_none_or(|at| at.elapsed() >= METRICS_INTERVAL)
                {
                    self.last_persist = Some(Instant::now());
                    persist_metrics(&self.metrics, path);
                }
            }
        }
    }

    /// Encode and queue one response; an unencodable response drops the
    /// connection (machinery breakage, never observed for our types).
    fn enqueue_or_close<T: serde::Serialize>(out: &mut WriteQueue, msg: &T) -> HandlerAction {
        match out.enqueue_message(msg) {
            Ok(()) => HandlerAction::Continue,
            Err(e) => {
                eprintln!("a4nn serve: encoding response: {e}");
                HandlerAction::CloseNow
            }
        }
    }
}

/// Off Linux there is no epoll and so no I/O model to serve on:
/// [`open`](reactor_handler::open) refuses, so `bind` fails before it
/// binds the port or starts a batch worker, and no server is ever built
/// to reach [`serve`](reactor_handler::serve).
#[cfg(not(target_os = "linux"))]
mod reactor_handler {
    use super::*;

    pub(super) enum Reactor {}

    pub(super) fn open(_: Duration, _: Arc<MetricsRegistry>) -> Result<Reactor, A4nnError> {
        Err(A4nnError::Config("a4nn serve needs epoll (Linux)".into()))
    }

    pub(super) fn serve(
        reactor: &mut Reactor,
        _: &TcpListener,
        _: &Arc<Batcher>,
        _: &Arc<MetricsRegistry>,
        _: &Option<PathBuf>,
        _: usize,
    ) -> Result<(), A4nnError> {
        match *reactor {}
    }
}
