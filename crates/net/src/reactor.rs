//! The event-driven I/O reactor: one thread multiplexing every
//! connection through `epoll`.
//!
//! Thread-per-connection spends an OS thread and stack per client; this
//! module replaces that with nonblocking connection state machines
//! driven by readiness events, so a *fixed* reactor thread serves
//! hundreds of sockets. Each connection is:
//!
//! ```text
//!   accept ──▶ read-ready: bytes ──▶ FrameDecoder ──▶ handler.on_frame
//!                                                         │
//!           handler replies inline (WriteQueue) ◀─────────┤
//!           or asynchronously via ReactorHandle ◀── batch worker thread
//!                                                     (eventfd doorbell)
//!   write-ready: WriteQueue::flush_into ──▶ drained? drop EPOLLOUT
//!   no progress before the idle deadline ──▶ close
//! ```
//!
//! The pieces are exactly the blocking path's, re-entered incrementally:
//! [`FrameDecoder`] already consumes arbitrary byte chunks, and
//! [`WriteQueue`] is its write-side twin for partial writes. Protocol
//! logic lives behind [`FrameHandler`]; the reactor knows framing,
//! readiness, deadlines, and nothing about message types.
//!
//! Interest re-registration is per-state: `EPOLLIN` while the handler
//! still wants frames, `EPOLLOUT` exactly while the write queue holds
//! bytes, neither once a close is pending flush. Cross-thread
//! completions (a batch worker finishing a classification) land in a
//! mutex-guarded queue and ring an `eventfd` doorbell, which is itself
//! just another fd in the epoll set.
//!
//! This file is Linux-only (see [`sys`](crate::sys)); other platforms
//! keep the portable thread-per-connection path.

use crate::frame::{FrameDecoder, NetError, WriteQueue};
use crate::sys::{epoll_event, Epoll, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use a4nn_error::A4nnError;
use a4nn_metrics::{names, MetricsRegistry};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies one reactor connection; stable for the connection's life,
/// never reused within one reactor run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Token(u64);

impl Token {
    /// The raw token value (diagnostics).
    pub fn value(&self) -> u64 {
        self.0
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_DOORBELL: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Why a connection left the reactor.
#[derive(Debug)]
pub enum CloseReason {
    /// The peer closed cleanly at a frame boundary.
    PeerClosed,
    /// No read/write progress before the idle deadline — the
    /// slow/stalled-client guard that replaces blocking read timeouts.
    IdleDeadline,
    /// The stream carried a framing or protocol violation.
    Protocol(NetError),
    /// The socket failed.
    Io(String),
    /// The handler asked for the close.
    Requested,
}

/// What the handler wants done with the connection after an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HandlerAction {
    /// Keep the session open.
    Continue,
    /// Stop reading, flush queued replies, then close.
    CloseAfterFlush,
    /// Drop the connection immediately (protocol violation).
    CloseNow,
}

/// Protocol logic the reactor drives: one implementation serves every
/// connection, keyed by [`Token`]. All methods run on the reactor
/// thread, so `&mut self` needs no locking.
pub trait FrameHandler {
    /// A connection was accepted. Frames queued on `out` are sent
    /// before any request is read (unused by protocols where the client
    /// speaks first).
    fn on_open(&mut self, token: Token, out: &mut WriteQueue);

    /// One complete, header-validated frame payload arrived.
    fn on_frame(&mut self, token: Token, payload: &[u8], out: &mut WriteQueue) -> HandlerAction;

    /// An asynchronous completion posted through
    /// [`ReactorHandle::complete`] reached the reactor thread.
    fn on_complete(&mut self, token: Token, frame: Vec<u8>, out: &mut WriteQueue) -> HandlerAction;

    /// The connection is gone; drop any per-connection state.
    fn on_close(&mut self, token: Token, reason: &CloseReason);
}

/// Reactor tuning knobs.
#[derive(Debug, Clone)]
pub struct ReactorConfig {
    /// Close a connection after this long without read or write
    /// progress. Partial frames, stalled writes, and silent peers all
    /// hit the same deadline.
    pub idle_timeout: Duration,
    /// Sink for reactor metrics (wakeups, ready events, connection
    /// counts, accept→first-byte latency).
    pub metrics: Arc<MetricsRegistry>,
}

struct HandleInner {
    completions: Mutex<Vec<(Token, Vec<u8>)>>,
    doorbell: EventFd,
}

/// Cross-thread door into a running reactor: any thread may post an
/// encoded reply frame for a connection; the reactor wakes (eventfd)
/// and routes it through [`FrameHandler::on_complete`].
///
/// Completions for connections that died in the meantime are silently
/// dropped — a dead client cannot be answered, and the handler already
/// saw `on_close`.
#[derive(Clone)]
pub struct ReactorHandle {
    inner: Arc<HandleInner>,
}

impl ReactorHandle {
    /// Post `frame` (already-encoded bytes) for `token` and ring the
    /// doorbell.
    pub fn complete(&self, token: Token, frame: Vec<u8>) {
        self.inner.completions.lock().push((token, frame));
        let _ = self.inner.doorbell.notify();
    }
}

/// One connection's reactor-side state machine.
struct Conn {
    stream: TcpStream,
    decoder: FrameDecoder,
    outq: WriteQueue,
    /// `CloseAfterFlush` was requested: reads stop, the queue drains,
    /// then the socket closes.
    closing: bool,
    /// Last read/write progress — the idle-deadline clock.
    last_progress: Instant,
    accepted_at: Instant,
    seen_first_byte: bool,
    /// The interest set currently registered with epoll.
    interest: u32,
}

impl Conn {
    fn desired_interest(&self) -> u32 {
        let mut events = EPOLLRDHUP;
        if !self.closing {
            events |= EPOLLIN;
        }
        if !self.outq.is_empty() {
            events |= EPOLLOUT;
        }
        events
    }
}

/// The epoll event loop. Create one, share its [`handle`](Self::handle)
/// with whatever threads complete work asynchronously, then [`run`](Self::run).
pub struct Reactor {
    epoll: Epoll,
    handle: ReactorHandle,
    cfg: ReactorConfig,
}

impl Reactor {
    /// Create the epoll instance and the completion doorbell.
    pub fn new(cfg: ReactorConfig) -> Result<Self, A4nnError> {
        let epoll = Epoll::new()
            .map_err(|e| A4nnError::Net(format!("creating the epoll instance: {e}")))?;
        let doorbell = EventFd::new()
            .map_err(|e| A4nnError::Net(format!("creating the reactor doorbell eventfd: {e}")))?;
        Ok(Reactor {
            epoll,
            handle: ReactorHandle {
                inner: Arc::new(HandleInner {
                    completions: Mutex::new(Vec::new()),
                    doorbell,
                }),
            },
            cfg,
        })
    }

    /// The cross-thread completion handle.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Accept and multiplex connections until the session budget is
    /// served (`sessions == 0` serves forever). Counting matches the
    /// threaded accept loop: a session is one accepted connection, and
    /// the reactor returns once the budget is accepted *and* every
    /// connection has closed.
    pub fn run<H: FrameHandler>(
        &mut self,
        listener: &TcpListener,
        handler: &mut H,
        sessions: usize,
    ) -> Result<(), A4nnError> {
        listener
            .set_nonblocking(true)
            .map_err(|e| A4nnError::Net(format!("setting the listener nonblocking: {e}")))?;
        self.epoll
            .add(listener.as_raw_fd(), EPOLLIN, TOKEN_LISTENER)
            .map_err(|e| A4nnError::Net(format!("registering the listener with epoll: {e}")))?;
        self.epoll
            .add(
                self.handle.inner.doorbell.as_raw_fd(),
                EPOLLIN,
                TOKEN_DOORBELL,
            )
            .map_err(|e| A4nnError::Net(format!("registering the doorbell with epoll: {e}")))?;

        let mut conns: HashMap<u64, Conn> = HashMap::new();
        let mut events = vec![epoll_event { events: 0, data: 0 }; 256];
        let mut read_buf = vec![0u8; 64 * 1024];
        let mut next_token = FIRST_CONN_TOKEN;
        let mut accepted = 0usize;
        let mut accepting = true;
        let mut live_peak_exported = 0usize;

        let result = loop {
            if !accepting && conns.is_empty() {
                break Ok(());
            }
            let timeout_ms = nearest_deadline_ms(&conns, self.cfg.idle_timeout);
            let n = match self.epoll.wait(&mut events, timeout_ms) {
                Ok(n) => n,
                Err(e) => break Err(A4nnError::Net(format!("epoll_wait failed: {e}"))),
            };
            self.cfg.metrics.add(names::REACTOR_WAKEUPS, 1);
            self.cfg
                .metrics
                .observe(names::REACTOR_READY_EVENTS, n as u64);

            for ev in events.iter().take(n) {
                let token = ev.data;
                let bits = ev.events;
                match token {
                    TOKEN_LISTENER => {
                        if !accepting {
                            continue;
                        }
                        match self.accept_ready(
                            listener,
                            handler,
                            &mut conns,
                            &mut next_token,
                            &mut accepted,
                            sessions,
                        ) {
                            Ok(still_accepting) => {
                                if !still_accepting {
                                    accepting = false;
                                    let _ = self.epoll.delete(listener.as_raw_fd());
                                }
                            }
                            Err(e) => return Err(e),
                        }
                        if conns.len() > live_peak_exported {
                            self.cfg.metrics.add(
                                names::REACTOR_CONNS_LIVE_PEAK,
                                (conns.len() - live_peak_exported) as u64,
                            );
                            live_peak_exported = conns.len();
                        }
                    }
                    TOKEN_DOORBELL => {
                        self.handle.inner.doorbell.drain();
                        let batch: Vec<(Token, Vec<u8>)> =
                            self.handle.inner.completions.lock().drain(..).collect();
                        for (tok, frame) in batch {
                            let Some(conn) = conns.get_mut(&tok.0) else {
                                // The connection died while its work was
                                // in flight; the reply has no recipient.
                                continue;
                            };
                            let action = handler.on_complete(tok, frame, &mut conn.outq);
                            conn.last_progress = Instant::now();
                            self.after_handler(handler, &mut conns, tok, action);
                        }
                    }
                    t => {
                        let tok = Token(t);
                        if conns.contains_key(&t) {
                            self.conn_ready(handler, &mut conns, tok, bits, &mut read_buf);
                        }
                    }
                }
            }

            // Idle/stall deadlines: no read or write progress for the
            // whole timeout closes the connection, no matter which state
            // it stalled in (partial frame, unflushed reply, silence).
            let now = Instant::now();
            let expired: Vec<u64> = conns
                .iter()
                .filter(|(_, c)| now.duration_since(c.last_progress) >= self.cfg.idle_timeout)
                .map(|(t, _)| *t)
                .collect();
            for t in expired {
                self.cfg.metrics.add(names::REACTOR_IDLE_CLOSED, 1);
                self.close_conn(handler, &mut conns, Token(t), CloseReason::IdleDeadline);
            }
        };

        // Unregister the doorbell so a later `run` can re-add it.
        let _ = self.epoll.delete(self.handle.inner.doorbell.as_raw_fd());
        if accepting {
            let _ = self.epoll.delete(listener.as_raw_fd());
        }
        result
    }

    /// Drain the accept backlog. Returns whether the session budget
    /// still has room.
    fn accept_ready<H: FrameHandler>(
        &self,
        listener: &TcpListener,
        handler: &mut H,
        conns: &mut HashMap<u64, Conn>,
        next_token: &mut u64,
        accepted: &mut usize,
        sessions: usize,
    ) -> Result<bool, A4nnError> {
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if let Err(e) = stream.set_nonblocking(true) {
                        eprintln!("a4nn reactor: setting accepted socket nonblocking: {e}");
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = Token(*next_token);
                    *next_token += 1;
                    let mut conn = Conn {
                        stream,
                        decoder: FrameDecoder::new(),
                        outq: WriteQueue::new(),
                        closing: false,
                        last_progress: Instant::now(),
                        accepted_at: Instant::now(),
                        seen_first_byte: false,
                        interest: EPOLLIN | EPOLLRDHUP,
                    };
                    handler.on_open(token, &mut conn.outq);
                    if !conn.outq.is_empty() {
                        // Optimistic flush of any greeting frames.
                        let _ = conn.outq.flush_into(&mut conn.stream);
                        conn.interest = conn.desired_interest();
                    }
                    if let Err(e) = self
                        .epoll
                        .add(conn.stream.as_raw_fd(), conn.interest, token.0)
                    {
                        eprintln!("a4nn reactor: registering accepted socket: {e}");
                        handler.on_close(token, &CloseReason::Io(e.to_string()));
                        continue;
                    }
                    conns.insert(token.0, conn);
                    self.cfg.metrics.add(names::REACTOR_CONNS_OPENED, 1);
                    *accepted += 1;
                    if sessions != 0 && *accepted >= sessions {
                        return Ok(false);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (ECONNABORTED
                // and friends) must not kill a server that other clients
                // are using.
                Err(e) => {
                    eprintln!("a4nn reactor: accepting connection: {e}");
                    return Ok(true);
                }
            }
        }
    }

    /// Service one connection's readiness bits.
    fn conn_ready<H: FrameHandler>(
        &self,
        handler: &mut H,
        conns: &mut HashMap<u64, Conn>,
        token: Token,
        bits: u32,
        read_buf: &mut [u8],
    ) {
        let readable = bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0;
        let writable = bits & EPOLLOUT != 0;

        if readable {
            if let Some(reason) = self.read_until_blocked(handler, conns, token, read_buf) {
                self.close_conn(handler, conns, token, reason);
                return;
            }
        }
        if let Some(reason) = flush_outbound(conns, token, writable) {
            self.close_conn(handler, conns, token, reason);
            return;
        }
        self.update_interest(conns, token);
    }

    /// Pull bytes until `WouldBlock`, feeding complete frames to the
    /// handler. Returns a close reason when the connection must go.
    fn read_until_blocked<H: FrameHandler>(
        &self,
        handler: &mut H,
        conns: &mut HashMap<u64, Conn>,
        token: Token,
        read_buf: &mut [u8],
    ) -> Option<CloseReason> {
        loop {
            let conn = conns.get_mut(&token.0)?;
            if conn.closing {
                return None;
            }
            match conn.stream.read(read_buf) {
                Ok(0) => {
                    return Some(match conn.decoder.finish() {
                        Ok(()) => CloseReason::PeerClosed,
                        Err(e) => CloseReason::Protocol(e),
                    });
                }
                Ok(got) => {
                    conn.last_progress = Instant::now();
                    if !conn.seen_first_byte {
                        conn.seen_first_byte = true;
                        self.cfg.metrics.observe_duration(
                            names::REACTOR_ACCEPT_FIRST_BYTE_US,
                            conn.accepted_at.elapsed().as_secs_f64(),
                        );
                    }
                    conn.decoder.push(&read_buf[..got]);
                    // Drain every complete frame before reading more, so
                    // a pipelining client cannot grow the decode buffer
                    // past one read chunk plus a partial frame.
                    loop {
                        let conn = conns.get_mut(&token.0)?;
                        match conn.decoder.next_payload() {
                            Ok(Some(payload)) => {
                                let action = handler.on_frame(token, &payload, &mut conn.outq);
                                match action {
                                    HandlerAction::Continue => {}
                                    HandlerAction::CloseAfterFlush => {
                                        conn.closing = true;
                                        break;
                                    }
                                    HandlerAction::CloseNow => {
                                        return Some(CloseReason::Requested);
                                    }
                                }
                            }
                            Ok(None) => break,
                            Err(e) => return Some(CloseReason::Protocol(e)),
                        }
                    }
                    if conns.get(&token.0).is_some_and(|c| c.closing) {
                        return None;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Some(CloseReason::Io(e.to_string())),
            }
        }
    }

    /// Apply a handler action that arrived outside the read path
    /// (completions): flush, honor closes, re-register interest.
    fn after_handler<H: FrameHandler>(
        &self,
        handler: &mut H,
        conns: &mut HashMap<u64, Conn>,
        token: Token,
        action: HandlerAction,
    ) {
        match action {
            HandlerAction::CloseNow => {
                self.close_conn(handler, conns, token, CloseReason::Requested);
                return;
            }
            HandlerAction::CloseAfterFlush => {
                if let Some(conn) = conns.get_mut(&token.0) {
                    conn.closing = true;
                }
            }
            HandlerAction::Continue => {}
        }
        if let Some(reason) = flush_outbound(conns, token, false) {
            self.close_conn(handler, conns, token, reason);
            return;
        }
        self.update_interest(conns, token);
    }

    /// Re-register the connection's interest set when it changed —
    /// `EPOLLOUT` exactly while bytes are queued, `EPOLLIN` until a
    /// close is pending.
    fn update_interest(&self, conns: &mut HashMap<u64, Conn>, token: Token) {
        if let Some(conn) = conns.get_mut(&token.0) {
            let desired = conn.desired_interest();
            if desired != conn.interest {
                if let Err(e) = self.epoll.modify(conn.stream.as_raw_fd(), desired, token.0) {
                    eprintln!("a4nn reactor: re-registering interest: {e}");
                } else {
                    conn.interest = desired;
                }
            }
        }
    }

    fn close_conn<H: FrameHandler>(
        &self,
        handler: &mut H,
        conns: &mut HashMap<u64, Conn>,
        token: Token,
        reason: CloseReason,
    ) {
        if let Some(conn) = conns.remove(&token.0) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
            self.cfg.metrics.add(names::REACTOR_CONNS_CLOSED, 1);
            if let CloseReason::Protocol(e) = &reason {
                eprintln!("a4nn reactor: connection ended abnormally: {e}");
            }
            handler.on_close(token, &reason);
            // `conn.stream` drops here, closing the fd.
        }
    }
}

/// Try to drain a connection's write queue. Returns the close reason
/// the caller must apply — `Requested` when a pending close finished
/// flushing, `Io` when the socket failed — or `None` to keep going.
fn flush_outbound(
    conns: &mut HashMap<u64, Conn>,
    token: Token,
    write_ready: bool,
) -> Option<CloseReason> {
    let conn = conns.get_mut(&token.0)?;
    if conn.outq.is_empty() {
        // Nothing to write. A close that was waiting for the queue to
        // drain is due now: left open, the connection would sit on
        // `EPOLLRDHUP` alone and never be read or closed again.
        return conn.closing.then_some(CloseReason::Requested);
    }
    match conn.outq.flush_into(&mut conn.stream) {
        Ok(true) if conn.closing => Some(CloseReason::Requested),
        Ok(drained) => {
            if drained || write_ready {
                conn.last_progress = Instant::now();
            }
            None
        }
        Err(e) => Some(CloseReason::Io(e.to_string())),
    }
}

/// Milliseconds until the earliest idle deadline, for `epoll_wait`;
/// `-1` (wait forever) with no connections.
fn nearest_deadline_ms(conns: &HashMap<u64, Conn>, idle: Duration) -> i32 {
    let now = Instant::now();
    conns
        .values()
        .map(|c| {
            let deadline = c.last_progress + idle;
            deadline
                .checked_duration_since(now)
                .map_or(0, |d| d.as_millis().min(i32::MAX as u128) as i32)
        })
        .min()
        // +1 so we wake *after* the deadline passes, not just at it.
        .map_or(-1, |ms| ms.saturating_add(1))
}
