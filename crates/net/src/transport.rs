//! The coordinator side: [`SocketTransport`], a
//! [`Transport`] that shards each generation's
//! trainer jobs across connected worker processes.
//!
//! The coordinator runs no jobs itself. One dispatch loop, on the
//! calling thread, owns every connection's slot accounting: it sends
//! each ready job to the live connection with a free slot and the
//! lowest relative load (`in_flight / gpus`, lowest index on ties), and
//! one reader thread per connection forwards that worker's answers —
//! and finally its loss — to the loop as events on one channel. Dead
//! workers are detected by the heartbeat deadline (the reader's socket
//! read timeout); the loop then *requeues* their in-flight jobs onto the
//! ready queue with the next dispatch attempt. Only when every worker is
//! gone does the run abort with a `Net`-class [`A4nnError`]. A job waits
//! in the ready queue from the generation's start, or from the loss of
//! its connection, until its dispatch: that wait is the transport's
//! queue wait.
//!
//! Failure taxonomy, unchanged from the in-process transports: a trainer
//! panic *on* a worker is handled by the worker's own retry loop and
//! comes back as data (`Terminated::Failed` at worst); `Net` errors are
//! reserved for the machinery — sockets, frames, worker processes.

use crate::frame::{read_message, write_message};
use crate::protocol::Message;
use a4nn_core::{
    EvalPipeline, FaultTolerance, ModelCost, TrainingOutcome, Transport, WorkflowConfig,
};
use a4nn_error::A4nnError;
use a4nn_genome::Genome;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::mpsc::{channel, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// TCP connect timeout per worker address, and how long a worker waits
/// for a session's [`RunSetup`](Message::RunSetup) once it has sent its
/// `Welcome`.
pub(crate) const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

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

/// What a connection's reader thread forwards to the dispatch loop.
enum Event {
    /// `Done(conn, model_id, ..)`: connection `conn` answered a job.
    Done(usize, u64, TrainingOutcome, ModelCost),
    /// Connection `conn` closed, missed its heartbeat deadline or broke
    /// the protocol; its reader has exited.
    Lost(usize),
}

struct Connection {
    gpus: usize,
    /// Written only by the dispatch loop (and by `Drop`), through
    /// `&TcpStream`.
    stream: TcpStream,
    reader: Option<JoinHandle<()>>,
}

/// The dispatch loop's state that outlives a generation.
struct Dispatch {
    events: Receiver<Event>,
    /// Jobs in flight per connection; `None` once the connection is
    /// retired. A retired connection is never dispatched to again, and
    /// its late answers and loss are ignored.
    in_flight: Vec<Option<usize>>,
}

/// One job of the generation being dispatched.
struct Job {
    /// Dispatches so far: the wire's `dispatch_attempt` of the latest.
    attempt: u32,
    /// When the job last became ready: the generation's start, or the
    /// loss of the connection that held it.
    ready_at: Instant,
    /// `(connection, sent at, queue wait in seconds)` while in flight.
    flight: Option<(usize, Instant, f64)>,
}

/// A connected coordinator transport, its run set up on every worker.
pub struct SocketTransport {
    connections: Vec<Connection>,
    dispatch: Mutex<Dispatch>,
}

impl SocketTransport {
    /// Connect to every worker in `addrs`, read the `Welcome` it opens
    /// the session with, and ship the [`RunSetup`](Message::RunSetup)
    /// derived from `cfg` and `ft`. Any unreachable, silent, or
    /// version-mismatched worker fails the whole construction — a
    /// coordinator must start with exactly the fleet it was given. A
    /// heartbeat deadline under 4 ms is an [`A4nnError::Config`], before
    /// any worker is contacted.
    pub fn connect(
        addrs: &[String],
        cfg: &WorkflowConfig,
        ft: &FaultTolerance,
        options: SocketOptions,
    ) -> Result<Self, A4nnError> {
        // Workers heartbeat at a quarter of the deadline, in whole
        // milliseconds: a shorter deadline leaves them no interval.
        let deadline = options.heartbeat_deadline;
        if deadline < Duration::from_millis(4) {
            return Err(A4nnError::Config(format!(
                "heartbeat deadline {deadline:?} is under the 4 ms minimum"
            )));
        }
        if addrs.is_empty() {
            return Err(A4nnError::Net("no worker addresses to connect to".into()));
        }
        let heartbeat_interval_ms = deadline.as_millis() as u64 / 4;

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
            // the worker's opening `Welcome`, a heartbeat or a result —
            // proves liveness and rearms it.
            reader
                .set_read_timeout(Some(deadline))
                .map_err(|e| A4nnError::Net(format!("arming deadline for worker {addr}: {e}")))?;

            // A worker of another protocol revision fails here, at its
            // first frame header, naming both versions.
            let gpus = match read_message::<_, Message>(&mut reader) {
                Ok(Some(Message::Welcome { gpus })) => (gpus > 0)
                    .then_some(gpus)
                    .ok_or_else(|| format!("worker {addr} advertised zero GPUs")),
                Ok(other) => Err(format!("worker {addr} opened the session with {other:?}")),
                Err(e) => Err(format!("handshake with worker {addr} failed: {e}")),
            }
            .map_err(A4nnError::Net)?;
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

        let (events_tx, events) = channel();
        let connections: Vec<Connection> = accepted
            .into_iter()
            .enumerate()
            .map(|(conn, (gpus, stream, mut reader))| {
                let events = events_tx.clone();
                let reader = std::thread::spawn(move || loop {
                    let event = match read_message::<_, Message>(&mut reader) {
                        Ok(Some(Message::Heartbeat)) => continue,
                        Ok(Some(Message::JobDone {
                            model_id,
                            cost,
                            outcome,
                        })) => Event::Done(conn, model_id, outcome, cost),
                        // Clean close, heartbeat-deadline timeout,
                        // truncated/corrupt frame, protocol breach: all
                        // mean this worker is unusable.
                        _ => Event::Lost(conn),
                    };
                    let lost = matches!(event, Event::Lost(_));
                    if events.send(event).is_err() || lost {
                        break;
                    }
                });
                Connection {
                    gpus,
                    stream,
                    reader: Some(reader),
                }
            })
            .collect();
        let in_flight = vec![Some(0); connections.len()];
        Ok(SocketTransport {
            connections,
            dispatch: Mutex::new(Dispatch { events, in_flight }),
        })
    }

    /// Connected workers (dead ones included — connections are never
    /// removed, only retired).
    pub fn worker_count(&self) -> usize {
        self.connections.len()
    }

    /// Total advertised job slots across all workers.
    pub fn total_gpus(&self) -> usize {
        self.connections.iter().map(|c| c.gpus).sum()
    }

    /// Retire connection `conn`. Severing the stream tells the worker
    /// the session is over and unblocks the connection's reader.
    fn retire(&self, in_flight: &mut [Option<usize>], conn: usize) {
        in_flight[conn] = None;
        let _ = self.connections[conn].stream.shutdown(Shutdown::Both);
    }

    /// The dispatch loop for one generation: send every ready job a free
    /// slot will take, then wait for the next answer or loss.
    fn dispatch_generation(
        &self,
        dispatch: &mut Dispatch,
        pipeline: &EvalPipeline<'_>,
        genomes: &[Genome],
        generation: usize,
        base_id: u64,
    ) -> Result<Vec<(TrainingOutcome, ModelCost)>, A4nnError> {
        let start = Instant::now();
        let mut jobs: Vec<Job> = genomes
            .iter()
            .map(|_| Job {
                attempt: 0,
                ready_at: start,
                flight: None,
            })
            .collect();
        let mut ready: VecDeque<usize> = (0..jobs.len()).collect();
        let mut results: Vec<_> = jobs.iter().map(|_| None).collect();
        let mut pending = jobs.len();
        while pending > 0 {
            while let Some(&k) = ready.front() {
                // The live connection with a free slot and the lowest
                // relative load, cross-multiplied to stay in integers
                // (a/g_a < b/g_b ⇔ a·g_b < b·g_a); `min_by` keeps the
                // lowest index on ties.
                let least_loaded = (dispatch.in_flight.iter().zip(&self.connections))
                    .enumerate()
                    .filter_map(|(i, (load, c))| {
                        load.filter(|&l| l < c.gpus).map(|l| (i, l, c.gpus))
                    })
                    .min_by(|a, b| (a.1 * b.2).cmp(&(b.1 * a.2)));
                let Some((conn, load, _)) = least_loaded else {
                    if dispatch.in_flight.iter().all(Option::is_none) {
                        return Err(A4nnError::Net(format!(
                            "no live workers remain to train model {} \
                             (all {} worker connection(s) lost)",
                            base_id + k as u64,
                            self.connections.len()
                        )));
                    }
                    break;
                };
                ready.pop_front();
                dispatch.in_flight[conn] = Some(load + 1);
                let job = &mut jobs[k];
                job.attempt += 1;
                let sent = Instant::now();
                job.flight = Some((conn, sent, (sent - job.ready_at).as_secs_f64()));
                let message = Message::Job {
                    model_id: base_id + k as u64,
                    generation,
                    dispatch_attempt: job.attempt,
                    genome: genomes[k].clone(),
                };
                if write_message(&mut &self.connections[conn].stream, &message).is_err() {
                    self.retire(&mut dispatch.in_flight, conn);
                    requeue(conn, &mut jobs, &mut ready);
                }
            }
            // Some job is in flight on a live connection here (a ready
            // job waits only while every live slot is taken), and that
            // connection's reader answers or reports its loss within the
            // heartbeat deadline, so this receive returns.
            match dispatch.events.recv() {
                Ok(Event::Done(conn, model_id, outcome, cost)) => {
                    // Only the connection holding the job may answer it:
                    // a retired connection's late answer is dropped.
                    let k = model_id.checked_sub(base_id).map(usize::try_from);
                    let Some(Ok(k)) = k else { continue };
                    let Some(job) = jobs.get_mut(k) else { continue };
                    let Some((_, sent, queue_wait_s)) = job.flight.filter(|f| f.0 == conn) else {
                        continue;
                    };
                    job.flight = None;
                    dispatch.in_flight[conn] = dispatch.in_flight[conn].map(|l| l - 1);
                    let retries =
                        u64::from(outcome.attempts.saturating_sub(1)) + u64::from(job.attempt - 1);
                    pipeline.record_job(sent.elapsed().as_secs_f64(), queue_wait_s, retries);
                    results[k] = Some((outcome, cost));
                    pending -= 1;
                }
                Ok(Event::Lost(conn)) => {
                    if dispatch.in_flight[conn].is_some() {
                        self.retire(&mut dispatch.in_flight, conn);
                        requeue(conn, &mut jobs, &mut ready);
                    }
                }
                // Every reader reports its loss before it exits, and
                // losing them all empties the fleet above first.
                Err(_) => {
                    return Err(A4nnError::Internal(
                        "every worker reader exited with jobs in flight".into(),
                    ))
                }
            }
        }
        Ok(results.into_iter().flatten().collect())
    }
}

/// Put every job connection `conn` held back on the ready queue.
fn requeue(conn: usize, jobs: &mut [Job], ready: &mut VecDeque<usize>) {
    let now = Instant::now();
    for (k, job) in jobs.iter_mut().enumerate() {
        if job.flight.is_some_and(|f| f.0 == conn) {
            job.flight = None;
            job.ready_at = now;
            ready.push_back(k);
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
        let mut dispatch = self.dispatch.lock();
        let result =
            self.dispatch_generation(&mut dispatch, pipeline, genomes, generation, base_id);
        if result.is_err() {
            // Nothing answers a failed generation: retire every
            // connection so a later run cannot pick up a stale answer.
            for conn in 0..self.connections.len() {
                self.retire(&mut dispatch.in_flight, conn);
            }
        }
        result
    }

    fn name(&self) -> &'static str {
        "socket"
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        let in_flight = &self.dispatch.get_mut().in_flight;
        for (conn, load) in self.connections.iter().zip(in_flight) {
            if load.is_some() {
                let _ = write_message(&mut &conn.stream, &Message::Shutdown);
            }
            // Severing the stream unblocks the reader thread's socket
            // read so the joins below cannot hang.
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        for conn in &mut self.connections {
            if let Some(handle) = conn.reader.take() {
                let _ = handle.join();
            }
        }
    }
}
