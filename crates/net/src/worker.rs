//! The worker process: a TCP server that trains jobs for a remote
//! coordinator.
//!
//! Each accepted connection is one coordinator *session*: the worker's
//! unprompted [`Welcome`](crate::Message::Welcome), the coordinator's
//! [`RunSetup`](crate::Message::RunSetup), then a stream of jobs. The
//! worker builds the trainer factory the shipped configuration names
//! (`WorkflowConfig::trainer_factory`: the surrogate, or real training
//! on images it synthesizes from the configuration), so every job it
//! trains is the *same* deterministic computation
//! [`a4nn_core::train_model`] would run in process — remote placement
//! cannot perturb results by construction. A configuration whose trainer
//! cannot be built ends that session with [`NetError::Protocol`]; the
//! worker goes on serving the next one. Sessions are served one at a
//! time, so a peer that never ships its `RunSetup` (a port probe, a
//! coordinator that died mid-connect) is dropped after the same 5 s the
//! coordinator allows a TCP connect; once set up, a session may idle
//! across a generation boundary without limit.
//!
//! A heartbeat thread signs the worker's liveness every
//! `heartbeat_interval_ms`; the deterministic `WorkerStall` fault mutes
//! it (so a coordinator with a shorter deadline declares the worker
//! dead), and `WorkerDrop` severs the connection outright, exercising
//! the coordinator's requeue path.
//!
//! A session runs at most its advertised `gpus` jobs at once: a `Job`
//! beyond that ends the session with [`NetError::Protocol`], so a peer
//! cannot make the worker spawn threads without limit.

use crate::frame::{read_message, write_message, NetError};
use crate::protocol::Message;
use crate::transport::CONNECT_TIMEOUT;
use a4nn_core::{train_model, FaultTolerance, InlineEngine};
use a4nn_error::A4nnError;
use parking_lot::Mutex;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// A bound worker server, ready to serve coordinator sessions.
pub struct WorkerServer {
    listener: TcpListener,
    gpus: usize,
}

impl WorkerServer {
    /// Bind the listener on `addr` (e.g. `127.0.0.1:7070`; port `0`
    /// picks a free port) advertising `gpus` concurrent job slots. Each
    /// slot trains its model on one thread, so a worker uses `gpus` cores
    /// as an in-process search does, and workers in one process train
    /// exactly as separate `a4nn worker` processes would.
    pub fn bind(addr: &str, gpus: usize) -> Result<Self, A4nnError> {
        if gpus == 0 {
            return Err(A4nnError::Config(
                "a worker must advertise at least one GPU".into(),
            ));
        }
        let listener = TcpListener::bind(addr)
            .map_err(|e| A4nnError::Net(format!("binding worker listener on {addr}: {e}")))?;
        Ok(WorkerServer { listener, gpus })
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> Result<SocketAddr, A4nnError> {
        self.listener
            .local_addr()
            .map_err(|e| A4nnError::Net(format!("reading worker listener address: {e}")))
    }

    /// Serve coordinator sessions sequentially: `sessions == 0` serves
    /// forever, otherwise exits after that many sessions. A session
    /// that ends abnormally (dropped connection, injected fault) is
    /// logged and counted, never fatal — dying with the coordinator is
    /// exactly what a worker must not do.
    pub fn run(&self, sessions: usize) -> Result<(), A4nnError> {
        let mut served = 0usize;
        for stream in self.listener.incoming() {
            let stream = stream
                .map_err(|e| A4nnError::Net(format!("accepting coordinator connection: {e}")))?;
            if let Err(e) = serve_session(stream, self.gpus) {
                eprintln!("a4nn worker: session ended abnormally: {e}");
            }
            served += 1;
            if sessions != 0 && served >= sessions {
                break;
            }
        }
        Ok(())
    }

    /// Bind and serve on a background thread — the in-process worker
    /// used by tests and single-machine smoke runs.
    pub fn spawn(addr: &str, gpus: usize, sessions: usize) -> Result<WorkerHandle, A4nnError> {
        let server = WorkerServer::bind(addr, gpus)?;
        let local = server.local_addr()?;
        let join = std::thread::spawn(move || server.run(sessions));
        Ok(WorkerHandle { addr: local, join })
    }
}

/// Handle to a [`WorkerServer::spawn`]ed background worker.
pub struct WorkerHandle {
    addr: SocketAddr,
    join: std::thread::JoinHandle<Result<(), A4nnError>>,
}

impl WorkerHandle {
    /// The worker's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Wait for the worker to finish its session budget.
    pub fn join(self) -> Result<(), A4nnError> {
        self.join
            .join()
            .map_err(|_| A4nnError::Internal("worker server thread panicked".into()))?
    }
}

/// Drive one coordinator session over `stream`.
fn serve_session(stream: TcpStream, gpus: usize) -> Result<(), NetError> {
    let _ = stream.set_nodelay(true);
    let mut reader = stream.try_clone()?;
    let writer = Mutex::new(stream);

    write_message(&mut *writer.lock(), &Message::Welcome { gpus })?;
    reader.set_read_timeout(Some(CONNECT_TIMEOUT))?;
    let setup = read_message::<_, Message>(&mut reader)?;
    reader.set_read_timeout(None)?;
    let Some(Message::RunSetup {
        config,
        retry,
        plan,
        heartbeat_interval_ms,
    }) = setup
    else {
        return Err(NetError::Protocol(format!(
            "expected RunSetup after Welcome, got {setup:?}"
        )));
    };
    let ft = FaultTolerance::new(retry, plan);
    // Set once the heartbeat runs: a real trainer synthesizes its images
    // here, which can outlast the coordinator's heartbeat deadline.
    let factory = OnceLock::new();

    let done = AtomicBool::new(false);
    // Jobs accepted and not yet answered; capped at `gpus`.
    let in_flight = AtomicUsize::new(0);
    // `WorkerStall` faults push this forward to silence the heartbeat.
    let mute_until = Mutex::new(Instant::now());
    let interval = Duration::from_millis(heartbeat_interval_ms.max(1));

    let result: Result<(), NetError> = std::thread::scope(|scope| {
        let heartbeat = scope.spawn(|| {
            while !done.load(Ordering::SeqCst) {
                if Instant::now() >= *mute_until.lock()
                    && write_message(&mut *writer.lock(), &Message::Heartbeat).is_err()
                {
                    break;
                }
                std::thread::sleep(interval);
            }
        });

        // Per-job thread handles, reaped as jobs finish: a long session
        // streaming thousands of jobs must not accumulate a handle per
        // job it ever trained (the scope would otherwise hold them all
        // until the session ends).
        let mut jobs: Vec<std::thread::ScopedJoinHandle<'_, ()>> = Vec::new();
        let mut panicked = false;
        // The factory is purely configuration-derived, which is the whole
        // determinism argument: same (config, genome, model_id, seed) ⇒
        // same trainer ⇒ same outcome, wherever it runs.
        let loop_result = match factory.get_or_init(|| config.trainer_factory()) {
            Err(e) => Err(NetError::Protocol(format!("unusable RunSetup: {e}"))),
            Ok(factory) => loop {
                match read_message::<_, Message>(&mut reader) {
                    Ok(Some(Message::Job {
                        model_id,
                        generation: _,
                        dispatch_attempt,
                        genome,
                    })) => {
                        if in_flight.load(Ordering::SeqCst) >= gpus {
                            break Err(NetError::Protocol(format!(
                                "job {model_id} exceeds the {gpus} advertised GPU(s)"
                            )));
                        }
                        in_flight.fetch_add(1, Ordering::SeqCst);
                        let mut i = 0;
                        while i < jobs.len() {
                            if jobs[i].is_finished() {
                                panicked |= jobs.swap_remove(i).join().is_err();
                            } else {
                                i += 1;
                            }
                        }
                        let factory = factory.as_ref();
                        let ft = &ft;
                        let config = &config;
                        let writer = &writer;
                        let mute_until = &mute_until;
                        let done = &done;
                        let in_flight = &in_flight;
                        jobs.push(scope.spawn(move || {
                            let epochs = config.nas.epochs;
                            let stall_ms: u64 = (1..=epochs)
                                .map(|e| ft.plan.worker_stall_millis(model_id, e))
                                .sum();
                            if stall_ms > 0 {
                                // Go quiet past the coordinator's deadline:
                                // heartbeats muted, job frozen.
                                *mute_until.lock() =
                                    Instant::now() + Duration::from_millis(stall_ms);
                                std::thread::sleep(Duration::from_millis(stall_ms));
                            }
                            if (1..=epochs)
                                .any(|e| ft.plan.worker_drop_due(model_id, e, dispatch_attempt))
                            {
                                // Sever the connection instead of answering —
                                // the coordinator must requeue this job (and
                                // every other one in flight here) elsewhere.
                                done.store(true, Ordering::SeqCst);
                                let _ = writer.lock().shutdown(Shutdown::Both);
                                return;
                            }
                            let mut engine =
                                InlineEngine::new(config.engine.as_ref(), &ft.plan, model_id);
                            let Ok((outcome, cost)) =
                                train_model(config, factory, &genome, model_id, ft, &mut engine)
                            else {
                                unreachable!("an inline engine link never errs")
                            };
                            // Free the slot before answering: the coordinator
                            // may send the next job as soon as it reads this.
                            in_flight.fetch_sub(1, Ordering::SeqCst);
                            let _ = write_message(
                                &mut *writer.lock(),
                                &Message::JobDone {
                                    model_id,
                                    cost,
                                    outcome,
                                },
                            );
                        }));
                    }
                    Ok(Some(Message::Shutdown)) | Ok(None) => break Ok(()),
                    Ok(Some(other)) => {
                        break Err(NetError::Protocol(format!(
                            "unexpected mid-session message {other:?}"
                        )))
                    }
                    Err(e) => break Err(e),
                }
            },
        };
        done.store(true, Ordering::SeqCst);
        // Join every thread before judging: a handle left unjoined would
        // re-raise its panic when the scope exits.
        for handle in jobs.into_iter().chain([heartbeat]) {
            panicked |= handle.join().is_err();
        }
        if panicked {
            return Err(NetError::Protocol("worker session thread panicked".into()));
        }
        loop_result
    });

    // Unblock any peer still reading from us before the session closes.
    let _ = writer.lock().shutdown(Shutdown::Both);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A peer that takes its `Welcome` and sends nothing holds the worker
    /// for [`CONNECT_TIMEOUT`] only: the next connection, queued behind
    /// it, is welcomed shortly after that deadline.
    #[test]
    fn a_silent_peer_is_dropped_at_the_setup_deadline() {
        let worker = WorkerServer::spawn("127.0.0.1:0", 1, 2).unwrap();
        let mut silent = TcpStream::connect(worker.addr()).unwrap();
        let welcome = read_message::<_, Message>(&mut silent).unwrap();
        assert!(matches!(welcome, Some(Message::Welcome { gpus: 1 })));

        let start = Instant::now();
        let mut next = TcpStream::connect(worker.addr()).unwrap();
        next.set_read_timeout(Some(3 * CONNECT_TIMEOUT)).unwrap();
        let welcome = read_message::<_, Message>(&mut next).unwrap();
        assert!(matches!(welcome, Some(Message::Welcome { gpus: 1 })));
        let waited = start.elapsed();
        assert!(
            waited > CONNECT_TIMEOUT - Duration::from_millis(500)
                && waited < CONNECT_TIMEOUT + Duration::from_secs(2),
            "the second connection was welcomed after {waited:?}"
        );
        assert!(matches!(read_message::<_, Message>(&mut silent), Ok(None)));
        drop(next);
        worker.join().unwrap();
    }
}
