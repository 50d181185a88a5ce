//! The serve endpoint: a TCP listener in front of the micro-batcher.
//!
//! The platform picks the connection layer; the operator does not:
//!
//! - **Linux** — the epoll event loop from [`a4nn_net::reactor`]: every
//!   connection is a nonblocking state machine (handshake → request
//!   decode → batcher hand-off → response flush) multiplexed by one fixed
//!   thread, with batch workers posting completions back through the
//!   reactor's eventfd doorbell. Thread count is reactor + batch workers,
//!   independent of client count.
//! - **Elsewhere** (no epoll) — one thread per accepted connection,
//!   blocking frame reads with the idle deadline applied as a socket read
//!   timeout. Finished connection threads are reaped as new connections
//!   arrive, so a long-lived server's bookkeeping stays bounded.
//!
//! Either way connection handling does no tensor work: frames are
//! decoded, requests handed to the [`Batcher`], replies written. All
//! `f32` scratch lives in the batch workers' pooled arenas.
//!
//! When a metrics path is configured, the registry snapshot is persisted
//! atomically (tmp+rename) at most once every two seconds as
//! connections close, plus once when the server finishes — so a server
//! killed by a supervisor still leaves its measurements on disk, but
//! metrics I/O does not scale with connection churn.

use crate::batcher::{Batcher, BatcherConfig};
use crate::model::ModelRepo;
use crate::protocol::{ServeRequest, ServeResponse};
use a4nn_error::A4nnError;
use a4nn_metrics::MetricsRegistry;
use a4nn_net::PROTOCOL_VERSION;
use parking_lot::Mutex;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
#[cfg(not(target_os = "linux"))]
use {
    a4nn_net::{read_message, write_message, NetError},
    std::net::TcpStream,
};

/// Persist the metrics snapshot at most this often as connections close.
const METRICS_INTERVAL: Duration = Duration::from_secs(2);

/// Server configuration: batcher knobs plus the idle deadline and the
/// metrics sink.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Admission-queue and batching knobs.
    pub batcher: BatcherConfig,
    /// Close a connection with no read/write progress for this long —
    /// a client stalled mid-frame cannot hold its slot forever. Applied
    /// as the reactor deadline or the per-socket read timeout.
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

/// Debounced metrics persistence shared by every connection closer:
/// writes are atomic and rate-limited, with an explicit final flush.
struct MetricsPersist {
    metrics: Arc<MetricsRegistry>,
    path: PathBuf,
    last: Mutex<Option<Instant>>,
}

impl MetricsPersist {
    /// Persist if [`METRICS_INTERVAL`] elapsed since the last write (or
    /// none happened yet). Connection churn beyond the rate costs nothing.
    fn maybe_persist(&self) {
        {
            let mut last = self.last.lock();
            match *last {
                Some(at) if at.elapsed() < METRICS_INTERVAL => return,
                _ => *last = Some(Instant::now()),
            }
        }
        self.persist_now();
    }

    /// Unconditional write — the shutdown flush.
    fn persist_now(&self) {
        if let Err(e) = a4nn_lineage::write_atomic(&self.path, &snapshot_json(&self.metrics)) {
            eprintln!(
                "a4nn serve: writing metrics to {}: {e}",
                self.path.display()
            );
        }
    }
}

fn snapshot_json(metrics: &MetricsRegistry) -> Vec<u8> {
    metrics
        .snapshot()
        .to_json()
        .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}").into_bytes())
}

/// A bound serve endpoint, ready to accept classify connections.
pub struct ServeServer {
    listener: TcpListener,
    batcher: Arc<Batcher>,
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    metrics: Arc<MetricsRegistry>,
    idle_timeout: Duration,
    persist: Option<Arc<MetricsPersist>>,
}

impl ServeServer {
    /// Bind `addr` (port `0` picks a free port) and start the batch
    /// workers over `repo`'s models. A zero `idle_timeout` is a
    /// [`A4nnError::Config`]: every connection would be idle at once.
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
        let listener = TcpListener::bind(addr)
            .map_err(|e| A4nnError::Net(format!("binding serve listener on {addr}: {e}")))?;
        let batcher = Arc::new(Batcher::start(repo, cfg.batcher, Arc::clone(&metrics))?);
        let persist = cfg.metrics_out.map(|path| {
            Arc::new(MetricsPersist {
                metrics: Arc::clone(&metrics),
                path,
                last: Mutex::new(None),
            })
        });
        Ok(ServeServer {
            listener,
            batcher,
            metrics,
            idle_timeout: cfg.idle_timeout,
            persist,
        })
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> Result<SocketAddr, A4nnError> {
        self.listener
            .local_addr()
            .map_err(|e| A4nnError::Net(format!("reading serve listener address: {e}")))
    }

    /// Accept and serve connections through the platform's I/O layer.
    /// `sessions == 0` serves forever; otherwise the server exits after
    /// that many connections have been accepted *and* finished. A
    /// connection that ends abnormally (dropped socket, bad frame, idle
    /// deadline) is logged and counted, never fatal to the server.
    pub fn run(&self, sessions: usize) -> Result<(), A4nnError> {
        #[cfg(target_os = "linux")]
        let result = self.run_reactor(sessions);
        #[cfg(not(target_os = "linux"))]
        let result = self.run_threads(sessions);
        if let Some(persist) = &self.persist {
            persist.persist_now();
        }
        result
    }

    /// The epoll event loop (Linux).
    #[cfg(target_os = "linux")]
    fn run_reactor(&self, sessions: usize) -> Result<(), A4nnError> {
        use a4nn_net::reactor::{Reactor, ReactorConfig};
        let mut reactor = Reactor::new(ReactorConfig {
            idle_timeout: self.idle_timeout,
            metrics: Arc::clone(&self.metrics),
        })?;
        let mut handler = ServeHandler {
            batcher: Arc::clone(&self.batcher),
            metrics: Arc::clone(&self.metrics),
            reactor: reactor.handle(),
            sessions: std::collections::HashMap::new(),
            persist: self.persist.clone(),
        };
        reactor.run(&self.listener, &mut handler, sessions)
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
        let server = ServeServer::bind(addr, repo, cfg, metrics)?;
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

// ---------------------------------------------------------------------
// Thread-per-connection path (platforms without epoll)
// ---------------------------------------------------------------------

#[cfg(not(target_os = "linux"))]
impl ServeServer {
    /// The portable thread-per-connection accept loop.
    fn run_threads(&self, sessions: usize) -> Result<(), A4nnError> {
        let mut accepted = 0usize;
        let mut joins: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for stream in self.listener.incoming() {
            let stream =
                stream.map_err(|e| A4nnError::Net(format!("accepting serve connection: {e}")))?;
            // Reap finished connection threads before tracking another:
            // a long-lived server must not accumulate a JoinHandle per
            // connection it ever served.
            let mut i = 0;
            while i < joins.len() {
                if joins[i].is_finished() {
                    let _ = joins.swap_remove(i).join();
                } else {
                    i += 1;
                }
            }
            let batcher = Arc::clone(&self.batcher);
            let persist = self.persist.clone();
            let idle = self.idle_timeout;
            joins.push(std::thread::spawn(move || {
                if let Err(e) = serve_connection(stream, &batcher, idle) {
                    eprintln!("a4nn serve: connection ended abnormally: {e}");
                }
                if let Some(persist) = persist {
                    persist.maybe_persist();
                }
            }));
            accepted += 1;
            if sessions != 0 && accepted >= sessions {
                break;
            }
        }
        for join in joins {
            let _ = join.join();
        }
        Ok(())
    }
}

/// Drive one client session over `stream` (thread-per-connection mode).
/// The idle deadline is enforced as a socket read timeout: a client
/// that stalls mid-frame or goes silent is disconnected, matching the
/// reactor's deadline semantics.
#[cfg(not(target_os = "linux"))]
fn serve_connection(
    stream: TcpStream,
    batcher: &Batcher,
    idle_timeout: Duration,
) -> Result<(), NetError> {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(idle_timeout));
    let mut reader = stream.try_clone()?;
    let mut writer = stream;

    // Handshake: refuse foreign protocol revisions explicitly, exactly
    // like the worker server does.
    match read_message::<_, ServeRequest>(&mut reader)? {
        Some(ServeRequest::Hello { version }) if version == PROTOCOL_VERSION => {}
        Some(ServeRequest::Hello { version }) => {
            let reason = format!(
                "protocol version mismatch: server speaks v{PROTOCOL_VERSION}, client v{version}"
            );
            let _ = write_message(&mut writer, &ServeResponse::Refused { reason });
            return Err(NetError::VersionMismatch {
                ours: PROTOCOL_VERSION,
                theirs: version,
            });
        }
        other => {
            return Err(NetError::Protocol(format!(
                "expected Hello to open the session, got {other:?}"
            )))
        }
    }
    write_message(
        &mut writer,
        &ServeResponse::Welcome {
            version: PROTOCOL_VERSION,
            models: batcher.infos().len(),
        },
    )?;

    loop {
        match read_message::<_, ServeRequest>(&mut reader)? {
            Some(ServeRequest::Classify {
                model_id,
                channels,
                height,
                width,
                pixels,
            }) => {
                let response = match batcher.classify(model_id, channels, height, width, pixels) {
                    Ok(c) => ServeResponse::Classified {
                        model_id: c.model_id,
                        class: c.class,
                        logits: c.logits,
                    },
                    Err(A4nnError::Saturated(reason)) => ServeResponse::Rejected { reason },
                    Err(e) => ServeResponse::Error {
                        message: e.to_string(),
                    },
                };
                write_message(&mut writer, &response)?;
            }
            Some(ServeRequest::Models) => {
                write_message(
                    &mut writer,
                    &ServeResponse::Models(batcher.infos().to_vec()),
                )?;
            }
            Some(ServeRequest::Goodbye) | None => return Ok(()),
            Some(other) => {
                return Err(NetError::Protocol(format!(
                    "unexpected mid-session request {other:?}"
                )))
            }
        }
    }
}

// ---------------------------------------------------------------------
// Reactor connection path (Linux)
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod reactor_handler {
    use super::*;
    use crate::batcher::Classification;
    use a4nn_metrics::names;
    use a4nn_net::reactor::{CloseReason, FrameHandler, HandlerAction, ReactorHandle, Token};
    use a4nn_net::{encode, WriteQueue};
    use std::collections::{HashMap, VecDeque};

    /// Most requests a pipelining client may have parked behind an
    /// in-flight classification before the connection is dropped as
    /// abusive. The blocking client never pipelines, so this only
    /// bounds hostile peers' memory.
    const PIPELINE_CAP: usize = 256;

    /// Per-connection protocol state: handshake, then one request in
    /// flight at a time, made explicit because the reactor cannot block
    /// between states.
    pub(super) struct Session {
        /// Hello/Welcome exchanged.
        greeted: bool,
        /// A classification is at the batcher; its reply frame must be
        /// written before any later request's.
        in_flight: bool,
        /// Requests received while one was in flight, answered strictly
        /// in arrival order.
        parked: VecDeque<ServeRequest>,
    }

    /// The reactor-side serve protocol: one handler instance for all
    /// connections, keyed by token.
    pub(super) struct ServeHandler {
        pub(super) batcher: Arc<Batcher>,
        pub(super) metrics: Arc<MetricsRegistry>,
        pub(super) reactor: ReactorHandle,
        pub(super) sessions: HashMap<Token, Session>,
        pub(super) persist: Option<Arc<MetricsPersist>>,
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
                ServeRequest::Hello { .. } => {
                    eprintln!("a4nn serve: protocol violation: repeated Hello");
                    HandlerAction::CloseNow
                }
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
        fn on_open(&mut self, token: Token, _out: &mut WriteQueue) {
            self.sessions.insert(
                token,
                Session {
                    greeted: false,
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
            if !session.greeted {
                // Handshake: refuse foreign protocol revisions
                // explicitly, exactly like the worker server does.
                return match request {
                    ServeRequest::Hello { version } if version == PROTOCOL_VERSION => {
                        session.greeted = true;
                        enqueue_or_close(
                            out,
                            &ServeResponse::Welcome {
                                version: PROTOCOL_VERSION,
                                models: self.batcher.infos().len(),
                            },
                        )
                    }
                    ServeRequest::Hello { version } => {
                        let reason = format!(
                            "protocol version mismatch: server speaks v{PROTOCOL_VERSION}, \
                             client v{version}"
                        );
                        eprintln!(
                            "a4nn serve: connection ended abnormally: handshake refused: {reason}"
                        );
                        match enqueue_or_close(out, &ServeResponse::Refused { reason }) {
                            HandlerAction::Continue => HandlerAction::CloseAfterFlush,
                            other => other,
                        }
                    }
                    other => {
                        eprintln!(
                            "a4nn serve: protocol violation: expected Hello to open the \
                             session, got {other:?}"
                        );
                        HandlerAction::CloseNow
                    }
                };
            }
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

        fn on_close(&mut self, token: Token, _reason: &CloseReason) {
            self.sessions.remove(&token);
            if let Some(persist) = &self.persist {
                persist.maybe_persist();
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

#[cfg(target_os = "linux")]
use reactor_handler::ServeHandler;
