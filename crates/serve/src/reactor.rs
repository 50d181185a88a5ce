//! The serve event loop: one thread multiplexing every connection
//! through `epoll` and speaking the serve protocol itself.
//!
//! Connections are nonblocking state machines driven by readiness
//! events, so a *fixed* reactor thread serves hundreds of sockets
//! instead of an OS thread and stack per client. Each connection is:
//!
//! ```text
//!   accept ──▶ read-ready: bytes ──▶ FrameDecoder ──▶ request
//!                                                       │
//!     Models / error reply: queued inline ◀─────────────┤
//!     Classify ──▶ batcher; the connection is busy ◀────┘
//!       busy: no frame decoded, no byte read; a readable
//!             socket drops EPOLLIN until the reply comes
//!       reply (batch worker, eventfd doorbell) ──▶ queued,
//!             then the frames already read are decoded in order
//!   write-ready: WriteQueue::flush_into ──▶ drained? drop EPOLLOUT
//!   Goodbye or EOF ──▶ flush, then close
//!   no progress before the idle deadline ──▶ close
//! ```
//!
//! One request is answered at a time per connection, so replies leave
//! in request order. A pipelining peer is bounded by what one read
//! pulled in: the rest waits in its socket, under TCP flow control. So
//! is a peer that does not read its replies: once more than
//! `MAX_QUEUED_REPLY_BYTES` of them wait unsent, its connection is
//! neither decoded nor read until a flush brings them back under.
//! Cross-thread completions land in a mutex-guarded queue and ring an
//! `eventfd` doorbell, which is itself just another fd in the epoll set.
//!
//! This file is Linux-only (see `sys.rs`); off Linux
//! [`ServeServer::bind`](crate::ServeServer::bind) refuses.

use crate::batcher::{Batcher, Classification};
use crate::protocol::{ServeRequest, ServeResponse};
use crate::server::persist_metrics;
use crate::sys::{epoll_event, Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use a4nn_error::A4nnError;
use a4nn_metrics::{names, MetricsRegistry};
use a4nn_net::{encode, FrameDecoder, NetError, WriteQueue, READ_CHUNK};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN_LISTENER: u64 = 0;
const TOKEN_DOORBELL: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Persist the metrics snapshot at most this often as connections
/// close.
const METRICS_INTERVAL: Duration = Duration::from_secs(2);

/// Unsent reply bytes past which a connection's requests are neither
/// decoded nor read, so a peer that pipelines and never reads is held
/// by TCP flow control, not by server memory.
const MAX_QUEUED_REPLY_BYTES: usize = 64 * 1024;

/// Encoded replies the batch worker finished, keyed by connection
/// token, and the eventfd that wakes the reactor thread for them.
struct Completions {
    replies: Mutex<Vec<(u64, Vec<u8>)>>,
    doorbell: EventFd,
}

/// Where a connection is in its request/response cycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// Reading and answering frames, while its unsent replies are
    /// within `MAX_QUEUED_REPLY_BYTES`.
    Reading,
    /// A classification is at the batcher. Nothing is decoded or read
    /// until its reply is queued; the registration still watches reads,
    /// so a client that waits for its reply costs no `epoll_ctl`.
    Busy,
    /// Busy, and the socket turned readable meanwhile: reads are
    /// unwatched until the reply is queued, or the loop would wake on
    /// them again and again.
    BusyUnwatched,
    /// Goodbye or EOF: flush the queued replies, then close.
    Closing,
}

/// One connection's state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    outq: WriteQueue,
    state: State,
    /// Last read/write progress — the idle-deadline clock.
    last_progress: Instant,
    accepted_at: Instant,
    seen_first_byte: bool,
    /// The interest set currently registered with epoll.
    interest: u32,
}

impl Conn {
    /// Whether its requests are decoded and read: it is reading, and its
    /// unsent replies are within `MAX_QUEUED_REPLY_BYTES`.
    fn takes_requests(&self) -> bool {
        self.state == State::Reading && self.outq.pending() <= MAX_QUEUED_REPLY_BYTES
    }

    /// Reads are watched while the connection takes requests or waits for
    /// its reply; writes exactly while bytes are queued.
    fn desired_interest(&self) -> u32 {
        let reads = if self.takes_requests() || self.state == State::Busy {
            EPOLLIN | EPOLLRDHUP
        } else {
            0
        };
        let writes = if self.outq.is_empty() { 0 } else { EPOLLOUT };
        reads | writes
    }
}

/// The epoll instance and the completion doorbell, created before the
/// port is bound.
pub(crate) struct Reactor {
    epoll: Epoll,
    completions: Arc<Completions>,
    idle_timeout: Duration,
    metrics: Arc<MetricsRegistry>,
}

impl Reactor {
    /// Create the epoll instance and the completion doorbell.
    pub(crate) fn new(
        idle_timeout: Duration,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<Self, A4nnError> {
        let epoll = Epoll::new()
            .map_err(|e| A4nnError::Net(format!("creating the epoll instance: {e}")))?;
        let doorbell = EventFd::new()
            .map_err(|e| A4nnError::Net(format!("creating the reactor doorbell eventfd: {e}")))?;
        Ok(Reactor {
            epoll,
            completions: Arc::new(Completions {
                replies: Mutex::new(Vec::new()),
                doorbell,
            }),
            idle_timeout,
            metrics,
        })
    }

    /// Accept and serve connections until the session budget is served
    /// (`sessions == 0` serves forever). A session is one accepted
    /// connection, and the loop returns once the budget is accepted
    /// *and* every connection has closed.
    pub(crate) fn run(
        &self,
        listener: &TcpListener,
        batcher: &Batcher,
        metrics_out: Option<&Path>,
        sessions: usize,
    ) -> Result<(), A4nnError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| A4nnError::Net(format!("setting the listener nonblocking: {e}")))?;
        self.epoll
            .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .map_err(|e| A4nnError::Net(format!("registering the listener with epoll: {e}")))?;
        let doorbell = self.completions.doorbell.as_raw_fd();
        self.epoll
            .add(doorbell, EPOLLIN, TOKEN_DOORBELL)
            .map_err(|e| A4nnError::Net(format!("registering the doorbell with epoll: {e}")))?;
        let result = EventLoop {
            reactor: self,
            batcher,
            metrics_out,
            last_persist: None,
            conns: HashMap::new(),
        }
        .run(listener, sessions);
        // Unregister so a later `run` can add them again; the listener
        // is already gone once the session budget was accepted.
        let _ = self.epoll.delete(doorbell);
        let _ = self.epoll.delete(listener.as_raw_fd());
        result
    }
}

/// One `run`'s state: the live connections and what answers them.
struct EventLoop<'a> {
    reactor: &'a Reactor,
    batcher: &'a Batcher,
    metrics_out: Option<&'a Path>,
    /// The last on-close snapshot write, for the [`METRICS_INTERVAL`] debounce.
    last_persist: Option<Instant>,
    conns: HashMap<u64, Conn>,
}

impl EventLoop<'_> {
    /// The loop proper.
    fn run(&mut self, listener: &TcpListener, sessions: usize) -> Result<(), A4nnError> {
        let reactor = self.reactor;
        let metrics = &reactor.metrics;
        let mut events = vec![epoll_event { events: 0, data: 0 }; 256];
        let mut read_buf = vec![0u8; READ_CHUNK];
        let mut next_token = FIRST_CONN_TOKEN;
        let mut accepted = 0usize;
        let mut accepting = true;
        let mut live_peak_exported = 0usize;

        loop {
            if !accepting && self.conns.is_empty() {
                return Ok(());
            }
            let timeout_ms = self.nearest_deadline_ms();
            let n = reactor
                .epoll
                .wait(&mut events, timeout_ms)
                .map_err(|e| A4nnError::Net(format!("epoll_wait failed: {e}")))?;
            metrics.add(names::REACTOR_WAKEUPS, 1);
            metrics.observe(names::REACTOR_READY_EVENTS, n as u64);

            for ev in &events[..n] {
                let (token, bits) = (ev.data, ev.events);
                match token {
                    TOKEN_LISTENER if accepting => {
                        while accepting {
                            let Some(stream) = accept(listener) else {
                                break;
                            };
                            if self.open(stream, next_token) {
                                next_token += 1;
                                accepted += 1;
                                accepting = sessions == 0 || accepted < sessions;
                            }
                        }
                        if !accepting {
                            let _ = reactor.epoll.delete(listener.as_raw_fd());
                        }
                        if self.conns.len() > live_peak_exported {
                            metrics.add(
                                names::REACTOR_CONNS_LIVE_PEAK,
                                (self.conns.len() - live_peak_exported) as u64,
                            );
                            live_peak_exported = self.conns.len();
                        }
                    }
                    TOKEN_LISTENER => {}
                    TOKEN_DOORBELL => self.deliver_replies(),
                    t => self.conn_ready(t, bits, &mut read_buf),
                }
            }

            // Idle/stall deadlines: no read or write progress for the
            // whole timeout closes the connection, no matter which state
            // it stalled in (partial frame, unflushed reply, silence).
            let now = Instant::now();
            let expired: Vec<u64> = self
                .conns
                .iter()
                .filter(|(_, c)| now.duration_since(c.last_progress) >= reactor.idle_timeout)
                .map(|(t, _)| *t)
                .collect();
            for t in expired {
                metrics.add(names::REACTOR_IDLE_CLOSED, 1);
                self.close(t, None);
            }
        }
    }

    /// Register an accepted connection under `token`; false when it
    /// could not be set up (logged, and the socket dropped).
    fn open(&mut self, stream: TcpStream, token: u64) -> bool {
        if let Err(e) = stream.set_nonblocking(true) {
            eprintln!("a4nn serve: setting accepted socket nonblocking: {e}");
            return false;
        }
        let _ = stream.set_nodelay(true);
        let interest = EPOLLIN | EPOLLRDHUP;
        if let Err(e) = self.reactor.epoll.add(stream.as_raw_fd(), interest, token) {
            eprintln!("a4nn serve: registering accepted socket: {e}");
            return false;
        }
        let now = Instant::now();
        self.conns.insert(
            token,
            Conn {
                stream,
                decoder: FrameDecoder::new(),
                outq: WriteQueue::new(),
                state: State::Reading,
                last_progress: now,
                accepted_at: now,
                seen_first_byte: false,
                interest,
            },
        );
        self.reactor.metrics.add(names::REACTOR_CONNS_OPENED, 1);
        true
    }

    /// Queue each reply the batch worker finished, then answer the
    /// frames its connection read while it was busy.
    fn deliver_replies(&mut self) {
        self.reactor.completions.doorbell.drain();
        let replies = std::mem::take(&mut *self.reactor.completions.replies.lock());
        for (t, frame) in replies {
            // A connection that died while its work was in flight has no
            // recipient for the reply.
            let Some(conn) = self.conns.get_mut(&t) else {
                continue;
            };
            conn.outq.enqueue(&frame);
            conn.state = State::Reading;
            conn.last_progress = Instant::now();
            match self.answer_buffered(t) {
                Ok(()) => self.flush_and_rearm(t),
                Err(e) => self.close(t, Some(e)),
            }
        }
    }

    /// Service one connection's readiness bits.
    fn conn_ready(&mut self, t: u64, bits: u32, read_buf: &mut [u8]) {
        let Some(conn) = self.conns.get_mut(&t) else {
            return;
        };
        // Hang-up and error cannot be unwatched: whatever the state,
        // the connection is over.
        if bits & (EPOLLHUP | EPOLLERR) != 0 {
            return self.close(t, None);
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            match conn.state {
                State::Reading => {
                    if let Err(e) = self.read(t, read_buf) {
                        return self.close(t, Some(e));
                    }
                }
                State::Busy => conn.state = State::BusyUnwatched,
                State::BusyUnwatched | State::Closing => {}
            }
        }
        self.flush_and_rearm(t);
    }

    /// Pull bytes until `WouldBlock`, answering complete frames as they
    /// arrive, and stop early once the connection takes no requests.
    /// EOF at a frame boundary closes after the flush; an error closes
    /// now.
    fn read(&mut self, t: u64, read_buf: &mut [u8]) -> Result<(), NetError> {
        loop {
            let Some(conn) = self.conns.get_mut(&t) else {
                return Ok(());
            };
            if !conn.takes_requests() {
                return Ok(());
            }
            match conn.stream.read(read_buf) {
                Ok(0) => {
                    conn.decoder.finish()?;
                    conn.state = State::Closing;
                    return Ok(());
                }
                Ok(got) => {
                    conn.last_progress = Instant::now();
                    if !conn.seen_first_byte {
                        conn.seen_first_byte = true;
                        self.reactor.metrics.observe_duration(
                            names::REACTOR_ACCEPT_FIRST_BYTE_US,
                            conn.accepted_at.elapsed().as_secs_f64(),
                        );
                    }
                    conn.decoder.push(&read_buf[..got]);
                    self.answer_buffered(t)?;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Answer the complete frames in the connection's read buffer, in
    /// order, until it runs dry or the connection takes no more requests.
    fn answer_buffered(&mut self, t: u64) -> Result<(), NetError> {
        let Some(conn) = self.conns.get_mut(&t) else {
            return Ok(());
        };
        while conn.takes_requests() {
            let Some(request) = conn.decoder.next_frame::<ServeRequest>()? else {
                break;
            };
            let reply = match request {
                ServeRequest::Classify {
                    model_id,
                    channels,
                    height,
                    width,
                    pixels,
                } => {
                    let completions = Arc::clone(&self.reactor.completions);
                    let metrics = Arc::clone(&self.reactor.metrics);
                    let t0 = Instant::now();
                    let on_done = move |c: Classification| {
                        metrics
                            .observe_duration(names::SERVE_LATENCY_US, t0.elapsed().as_secs_f64());
                        let response = ServeResponse::Classified {
                            model_id: c.model_id,
                            class: c.class,
                            logits: c.logits,
                        };
                        match encode(&response) {
                            Ok(frame) => {
                                completions.replies.lock().push((t, frame));
                                let _ = completions.doorbell.notify();
                            }
                            // An unencodable response is machinery
                            // breakage; no reply ever lands, so the idle
                            // deadline closes the connection.
                            Err(e) => eprintln!("a4nn serve: encoding classify response: {e}"),
                        }
                    };
                    match self
                        .batcher
                        .submit_sink(model_id, channels, height, width, pixels, on_done)
                    {
                        Ok(()) => {
                            conn.state = State::Busy;
                            continue;
                        }
                        Err(A4nnError::Saturated(reason)) => ServeResponse::Rejected { reason },
                        Err(e) => ServeResponse::Error {
                            message: e.to_string(),
                        },
                    }
                }
                ServeRequest::Models => ServeResponse::Models(self.batcher.infos().to_vec()),
                ServeRequest::Goodbye => {
                    conn.state = State::Closing;
                    continue;
                }
            };
            conn.outq.enqueue_message(&reply)?;
        }
        Ok(())
    }

    /// Write what the socket takes, close a finished `Closing`
    /// connection, and re-register interest when it changed.
    fn flush_and_rearm(&mut self, t: u64) {
        let Some(conn) = self.conns.get_mut(&t) else {
            return;
        };
        let queued = conn.outq.pending();
        if queued > 0 {
            if let Err(e) = conn.outq.flush_into(&mut conn.stream) {
                return self.close(t, Some(e.into()));
            }
            if conn.outq.pending() < queued {
                conn.last_progress = Instant::now();
            }
        }
        // A flush that brought the unsent replies back under the cap
        // resumes the frames already read; reads resume with the
        // interest below.
        if queued > MAX_QUEUED_REPLY_BYTES && conn.takes_requests() {
            if let Err(e) = self.answer_buffered(t) {
                return self.close(t, Some(e));
            }
        }
        let Some(conn) = self.conns.get_mut(&t) else {
            return;
        };
        if conn.state == State::Closing && conn.outq.is_empty() {
            return self.close(t, None);
        }
        let desired = conn.desired_interest();
        if desired != conn.interest {
            match self
                .reactor
                .epoll
                .modify(conn.stream.as_raw_fd(), desired, t)
            {
                Ok(()) => conn.interest = desired,
                Err(e) => eprintln!("a4nn serve: re-registering interest: {e}"),
            }
        }
    }

    /// Drop a connection, logging why when it ended in error, and
    /// persist the metrics snapshot when the debounce allows.
    fn close(&mut self, t: u64, error: Option<NetError>) {
        let Some(conn) = self.conns.remove(&t) else {
            return;
        };
        let _ = self.reactor.epoll.delete(conn.stream.as_raw_fd());
        self.reactor.metrics.add(names::REACTOR_CONNS_CLOSED, 1);
        if let Some(e) = error {
            eprintln!("a4nn serve: connection ended abnormally: {e}");
        }
        if let Some(path) = self.metrics_out {
            if self
                .last_persist
                .is_none_or(|at| at.elapsed() >= METRICS_INTERVAL)
            {
                self.last_persist = Some(Instant::now());
                persist_metrics(&self.reactor.metrics, path);
            }
        }
        // `conn.stream` drops here, closing the fd.
    }

    /// Milliseconds until the earliest idle deadline, for `epoll_wait`;
    /// `-1` (wait forever) with no connections.
    fn nearest_deadline_ms(&self) -> i32 {
        let now = Instant::now();
        self.conns
            .values()
            .map(|c| {
                (c.last_progress + self.reactor.idle_timeout)
                    .checked_duration_since(now)
                    .map_or(0, |d| d.as_millis().min(i32::MAX as u128) as i32)
            })
            .min()
            // +1 so we wake *after* the deadline passes, not just at it.
            .map_or(-1, |ms| ms.saturating_add(1))
    }
}

/// Take one connection off the accept backlog; `None` once it is empty.
/// Transient per-connection failures (ECONNABORTED and friends) are
/// logged and end the drain, never the server other clients are using.
fn accept(listener: &TcpListener) -> Option<TcpStream> {
    loop {
        match listener.accept() {
            Ok((stream, _)) => return Some(stream),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
            Err(e) => {
                eprintln!("a4nn serve: accepting connection: {e}");
                return None;
            }
        }
    }
}
