//! The coordinator side: [`SocketTransport`], a
//! [`Transport`] that shards each generation's
//! trainer jobs across connected worker processes.
//!
//! Sharding is GPU-weighted: each connection advertises a job capacity
//! in its `Welcome`, and the router always dispatches to the live
//! connection with the lowest relative load (`in_flight / gpus`). Dead
//! workers are detected by the heartbeat deadline — the reader thread's
//! socket read timeout — and their in-flight jobs are *requeued*: each
//! genome is one [`GpuPool::run_batch`] job whose body loops over
//! dispatch attempts, so a job whose connection died routes its next
//! attempt to a surviving worker. Only when every worker is gone (or a
//! job has been dispatched to every worker and lost each time) does the
//! run abort with a `Net`-class [`A4nnError`].
//!
//! Failure taxonomy, unchanged from the in-process transports: a trainer
//! panic *on* a worker is handled by the worker's own retry loop and
//! comes back as data (`Terminated::Failed` at worst); `Net` errors are
//! reserved for the machinery — sockets, frames, worker processes.

use crate::frame::{read_message, write_message, PROTOCOL_VERSION};
use crate::protocol::Message;
use a4nn_core::{
    EvalPipeline, FaultTolerance, ModelCost, TrainingOutcome, Transport, WorkflowConfig,
};
use a4nn_error::A4nnError;
use a4nn_genome::Genome;
use a4nn_sched::GpuPool;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TCP connect timeout per worker address.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Tunables for a coordinator connection set.
#[derive(Debug, Clone)]
pub struct SocketOptions {
    /// A worker silent for longer than this is declared dead and its
    /// in-flight jobs requeue. Workers are told to heartbeat at a
    /// quarter of this deadline.
    pub heartbeat_deadline: Duration,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            heartbeat_deadline: Duration::from_secs(2),
        }
    }
}

/// Per-connection scheduling state, guarded by the router lock.
#[derive(Debug)]
struct Slot {
    gpus: usize,
    in_flight: usize,
    alive: bool,
}

/// The GPU-weighted dispatcher over all connections.
struct Router {
    slots: Mutex<Vec<Slot>>,
    changed: Condvar,
}

impl Router {
    fn new(slots: Vec<Slot>) -> Self {
        Router {
            slots: Mutex::new(slots),
            changed: Condvar::new(),
        }
    }

    /// Reserve a job slot on the least-loaded live connection, blocking
    /// while all live connections are saturated. `None` when no live
    /// connection remains — the zero-workers abort signal.
    fn acquire(&self) -> Option<usize> {
        let mut slots = self.slots.lock();
        loop {
            if !slots.iter().any(|s| s.alive) {
                return None;
            }
            let best = slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.alive && s.in_flight < s.gpus)
                // Lowest relative load; cross-multiplied to stay in
                // integers (a/g_a < b/g_b ⇔ a·g_b < b·g_a).
                .min_by(|(_, a), (_, b)| (a.in_flight * b.gpus).cmp(&(b.in_flight * a.gpus)))
                .map(|(i, _)| i);
            if let Some(i) = best {
                slots[i].in_flight += 1;
                return Some(i);
            }
            self.changed.wait(&mut slots);
        }
    }

    fn release(&self, i: usize) {
        let mut slots = self.slots.lock();
        slots[i].in_flight = slots[i].in_flight.saturating_sub(1);
        drop(slots);
        self.changed.notify_all();
    }

    fn mark_dead(&self, i: usize) {
        self.slots.lock()[i].alive = false;
        self.changed.notify_all();
    }
}

/// Reply routing for one connection. `alive` lives under the same lock
/// as the pending map so registration and the reader's terminal drain
/// cannot race: either a sender registers before the drain (and is
/// drained), or it observes `alive == false` and bails.
#[derive(Default)]
struct ConnState {
    alive: bool,
    pending: HashMap<u64, SyncSender<Option<(TrainingOutcome, ModelCost)>>>,
}

struct Connection {
    gpus: usize,
    writer: Mutex<TcpStream>,
    state: Arc<Mutex<ConnState>>,
    reader: Option<std::thread::JoinHandle<()>>,
}

/// A connected, handshaken coordinator transport.
pub struct SocketTransport {
    connections: Vec<Connection>,
    router: Arc<Router>,
}

impl SocketTransport {
    /// Connect to every worker in `addrs`, handshake, and ship the
    /// [`RunSetup`](Message::RunSetup) derived from `cfg` and `ft`.
    /// Any unreachable, refusing, or version-mismatched worker fails
    /// the whole construction — a coordinator must start with exactly
    /// the fleet it was given.
    pub fn connect(
        addrs: &[String],
        cfg: &WorkflowConfig,
        ft: &FaultTolerance,
        options: SocketOptions,
    ) -> Result<Self, A4nnError> {
        if addrs.is_empty() {
            return Err(A4nnError::Net("no worker addresses to connect to".into()));
        }
        let deadline = options.heartbeat_deadline.max(Duration::from_millis(4));
        let heartbeat_interval_ms = (deadline.as_millis() as u64 / 4).max(1);

        let mut accepted = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let sock_addr = addr
                .to_socket_addrs()
                .map_err(|e| A4nnError::Net(format!("resolving worker address {addr}: {e}")))?
                .next()
                .ok_or_else(|| {
                    A4nnError::Net(format!("worker address {addr} resolved to nothing"))
                })?;
            let stream = TcpStream::connect_timeout(&sock_addr, CONNECT_TIMEOUT)
                .map_err(|e| A4nnError::Net(format!("connecting to worker {addr}: {e}")))?;
            let _ = stream.set_nodelay(true);
            let mut reader = stream
                .try_clone()
                .map_err(|e| A4nnError::Net(format!("cloning stream to worker {addr}: {e}")))?;
            // The read timeout IS the heartbeat deadline: any frame —
            // heartbeat or result — proves liveness and rearms it.
            reader
                .set_read_timeout(Some(deadline))
                .map_err(|e| A4nnError::Net(format!("arming deadline for worker {addr}: {e}")))?;

            write_message(
                &mut &stream,
                &Message::Hello {
                    version: PROTOCOL_VERSION,
                },
            )
            .map_err(|e| A4nnError::Net(format!("greeting worker {addr}: {e}")))?;
            let gpus = match read_message::<_, Message>(&mut reader) {
                Ok(Some(Message::Welcome { version, gpus })) if version == PROTOCOL_VERSION => {
                    if gpus == 0 {
                        return Err(A4nnError::Net(format!(
                            "worker {addr} advertised zero GPUs"
                        )));
                    }
                    gpus
                }
                Ok(Some(Message::Welcome { version, .. })) => {
                    return Err(A4nnError::Net(format!(
                        "worker {addr} speaks protocol v{version}, we speak v{PROTOCOL_VERSION}"
                    )))
                }
                Ok(Some(Message::Reject { reason })) => {
                    return Err(A4nnError::Net(format!("worker {addr} refused: {reason}")))
                }
                Ok(other) => {
                    return Err(A4nnError::Net(format!(
                        "worker {addr} answered the handshake with {other:?}"
                    )))
                }
                Err(e) => {
                    return Err(A4nnError::Net(format!(
                        "handshake with worker {addr} failed: {e}"
                    )))
                }
            };
            write_message(
                &mut &stream,
                &Message::RunSetup {
                    config: cfg.clone(),
                    retry: ft.retry,
                    plan: ft.plan.clone(),
                    heartbeat_interval_ms,
                },
            )
            .map_err(|e| A4nnError::Net(format!("shipping run setup to worker {addr}: {e}")))?;
            accepted.push((gpus, stream, reader));
        }

        let router = Arc::new(Router::new(
            accepted
                .iter()
                .map(|(gpus, _, _)| Slot {
                    gpus: *gpus,
                    in_flight: 0,
                    alive: true,
                })
                .collect(),
        ));
        let connections = accepted
            .into_iter()
            .enumerate()
            .map(|(i, (gpus, stream, mut reader))| {
                let state = Arc::new(Mutex::new(ConnState {
                    alive: true,
                    pending: HashMap::new(),
                }));
                let reader_state = Arc::clone(&state);
                let reader_router = Arc::clone(&router);
                let handle = std::thread::spawn(move || {
                    loop {
                        match read_message::<_, Message>(&mut reader) {
                            Ok(Some(Message::Heartbeat)) => {}
                            Ok(Some(Message::JobDone {
                                model_id,
                                cost,
                                outcome,
                            })) => {
                                let sender = reader_state.lock().pending.remove(&model_id);
                                if let Some(tx) = sender {
                                    let _ = tx.send(Some((outcome, cost)));
                                }
                            }
                            // Clean close, heartbeat-deadline timeout,
                            // truncated/corrupt frame, protocol breach:
                            // all mean this worker is unusable.
                            _ => break,
                        }
                    }
                    let mut st = reader_state.lock();
                    st.alive = false;
                    for (_, tx) in st.pending.drain() {
                        let _ = tx.send(None);
                    }
                    drop(st);
                    reader_router.mark_dead(i);
                });
                Connection {
                    gpus,
                    writer: Mutex::new(stream),
                    state,
                    reader: Some(handle),
                }
            })
            .collect();
        Ok(SocketTransport {
            connections,
            router,
        })
    }

    /// Connected workers (dead ones included — connections are never
    /// removed, only marked dead).
    pub fn worker_count(&self) -> usize {
        self.connections.len()
    }

    /// Total advertised job slots across all workers.
    pub fn total_gpus(&self) -> usize {
        self.connections.iter().map(|c| c.gpus).sum()
    }

    /// Dispatch one job to connection `conn_idx`; `None` when the
    /// connection dies at any point before the outcome arrives.
    fn dispatch(
        &self,
        conn_idx: usize,
        model_id: u64,
        generation: usize,
        dispatch_attempt: u32,
        genome: &Genome,
    ) -> Option<(TrainingOutcome, ModelCost)> {
        let conn = &self.connections[conn_idx];
        let (tx, rx) = sync_channel(1);
        {
            let mut st = conn.state.lock();
            if !st.alive {
                return None;
            }
            st.pending.insert(model_id, tx);
        }
        let write_ok = write_message(
            &mut *conn.writer.lock(),
            &Message::Job {
                model_id,
                generation,
                dispatch_attempt,
                genome: genome.clone(),
            },
        )
        .is_ok();
        if !write_ok {
            conn.state.lock().pending.remove(&model_id);
            return None;
        }
        // The reader thread either routes the outcome here or — on
        // death, which the heartbeat deadline bounds — drains the
        // pending map with `None`, so this recv always returns.
        match rx.recv() {
            Ok(Some(pair)) => Some(pair),
            _ => None,
        }
    }
}

impl Transport for SocketTransport {
    fn run_generation(
        &self,
        pipeline: &EvalPipeline<'_>,
        genomes: &[Genome],
        generation: usize,
        base_id: u64,
    ) -> Result<Vec<(TrainingOutcome, ModelCost)>, A4nnError> {
        if pipeline.checkpoints().is_some() {
            return Err(A4nnError::Config(
                "the socket transport cannot stream checkpoints back from workers; \
                 run checkpointed searches on the direct or bus transport"
                    .into(),
            ));
        }
        // A job loses at most one attempt per worker (a failed attempt
        // retires its connection), so with n workers n + 1 dispatch
        // attempts suffice (past that, acquire() returns None anyway).
        let max_dispatches = self.connections.len() as u32 + 1;
        let jobs: Vec<_> = genomes
            .iter()
            .enumerate()
            .map(|(k, genome)| {
                let model_id = base_id + k as u64;
                move |_worker: usize| -> Result<(TrainingOutcome, ModelCost), A4nnError> {
                    for attempt in 1..=max_dispatches {
                        let queued = Instant::now();
                        let conn_idx = self.router.acquire().ok_or_else(|| {
                            A4nnError::Net(format!(
                                "no live workers remain to train model {model_id} \
                                 (all {} worker connection(s) lost)",
                                self.connections.len()
                            ))
                        })?;
                        let queue_wait_s = queued.elapsed().as_secs_f64();
                        let dispatched = Instant::now();
                        let result = self.dispatch(conn_idx, model_id, generation, attempt, genome);
                        if result.is_none() {
                            // The connection died before the outcome
                            // landed. Retire it before freeing the slot:
                            // the reader thread drains this job before it
                            // marks the router, and the next attempt must
                            // not race back onto the dead connection.
                            self.router.mark_dead(conn_idx);
                        }
                        self.router.release(conn_idx);
                        if let Some((outcome, cost)) = result {
                            pipeline.record_job(
                                dispatched.elapsed().as_secs_f64(),
                                queue_wait_s,
                                u64::from(outcome.attempts.saturating_sub(1) + attempt - 1),
                            );
                            return Ok((outcome, cost));
                        }
                    }
                    Err(A4nnError::Net(format!(
                        "model {model_id} was dispatched {max_dispatches} time(s) and every \
                         worker holding it died"
                    )))
                }
            })
            .collect();
        let (outputs, _) = GpuPool::new(self.total_gpus().max(1)).run_batch(jobs)?;
        outputs
            .into_iter()
            .enumerate()
            .map(|(k, output)| {
                output.ok_or_else(|| {
                    A4nnError::Internal(format!(
                        "dispatch job for model {} panicked outside its attempts",
                        base_id + k as u64
                    ))
                })?
            })
            .collect()
    }

    fn name(&self) -> &'static str {
        "socket"
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        for conn in &self.connections {
            if conn.state.lock().alive {
                let _ = write_message(&mut *conn.writer.lock(), &Message::Shutdown);
            }
            // Severing the stream unblocks the reader thread's socket
            // read so the joins below cannot hang.
            let _ = conn.writer.lock().shutdown(Shutdown::Both);
        }
        for conn in &mut self.connections {
            if let Some(handle) = conn.reader.take() {
                let _ = handle.join();
            }
        }
    }
}
