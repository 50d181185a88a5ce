//! The micro-batcher: a bounded admission queue in front of batched
//! eval-mode forward passes.
//!
//! Concurrent classify requests from any number of connections land in
//! one queue of `QUEUE_CAP` (64) slots. Admission is all-or-nothing and non-blocking: a
//! full queue refuses the request with [`A4nnError::Saturated`] instead
//! of queueing unboundedly — the caller sees a typed rejection and backs
//! off, and the server's memory stays bounded no matter the offered load.
//!
//! One batch worker drains the queue greedily: each batch takes
//! consecutive requests for the *same model and image shape*, up to
//! `MAX_BATCH` (8), and runs them through a single eval-mode `forward_ws`.
//! Eval-mode forward treats every sample independently (per-sample
//! im2col, running BN stats, row-wise dense), so a request's logits are
//! bitwise identical whether it rode a batch of one or eight — the
//! property the equivalence suite pins.
//!
//! The worker owns the served networks and one [`Workspace`] arena:
//! after warm-up, steady-state serving performs no heap allocation in
//! the forward path, and a [`trim_to`](Workspace::trim_to) after every
//! batch bounds the pool to `WS_LIMIT_BYTES` (8 MiB) when request
//! shapes vary. The pool's high-water mark is exported through the metrics
//! registry.
//!
//! The bounds (batch size, queue capacity, workspace cap) are constants,
//! not settings, and a serve process is one event-loop thread plus this
//! one worker.

use crate::model::ModelRepo;
use crate::protocol::ModelInfo;
use a4nn_error::A4nnError;
use a4nn_metrics::{names, MetricsRegistry};
use a4nn_nn::{Network, Workspace};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::mpsc::sync_channel;
use std::sync::Arc;
use std::time::Instant;

/// Most requests folded into one forward pass.
const MAX_BATCH: usize = 8;
/// Admission queue capacity; requests beyond it are rejected.
const QUEUE_CAP: usize = 64;
/// The worker's workspace pool is trimmed to this many bytes after
/// every batch.
const WS_LIMIT_BYTES: usize = 8 * 1024 * 1024;

/// Configures nothing: the batcher's bounds are constants. It exists
/// only because the benchmark harness (`benchmark/src/probes.rs`) still
/// calls `Batcher::start(repo, BatcherConfig::default(), …)`; ROADMAP's
/// benchmark-scope item ("the Bus goes") deletes it together with that
/// call.
#[derive(Debug, Clone, Copy, Default)]
#[non_exhaustive]
pub struct BatcherConfig;

/// One classify answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Classification {
    /// The model that answered (resolves a `None` pick).
    pub model_id: u64,
    /// Argmax class index.
    pub class: usize,
    /// Raw logits, one per class.
    pub logits: Vec<f32>,
}

/// A request parked in the admission queue.
struct Pending {
    model_idx: usize,
    channels: usize,
    height: usize,
    width: usize,
    pixels: Vec<f32>,
    enqueued: Instant,
    /// Called once on the batch worker with the answer.
    reply: Box<dyn FnOnce(Classification) + Send>,
}

impl Pending {
    fn shape_key(&self) -> (usize, usize, usize, usize) {
        (self.model_idx, self.channels, self.height, self.width)
    }
}

struct Queue {
    items: VecDeque<Pending>,
    shutdown: bool,
}

struct Shared {
    queue: Mutex<Queue>,
    cond: Condvar,
    infos: Vec<ModelInfo>,
    default_idx: usize,
    metrics: Arc<MetricsRegistry>,
}

/// The running batcher: submit requests, receive classifications.
pub struct Batcher {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Consume `repo` and start the batch worker, which owns its
    /// networks. Fails only when the OS refuses the thread.
    pub fn start(
        repo: ModelRepo,
        _: BatcherConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<Self, A4nnError> {
        let (infos, default_idx, nets) = repo.into_parts();
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                shutdown: false,
            }),
            cond: Condvar::new(),
            infos,
            default_idx,
            metrics,
        });
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("a4nn-batch".into())
                .spawn(move || worker_loop(&shared, nets))
                .map_err(|e| A4nnError::Internal(format!("starting the batch worker: {e}")))?
        };
        Ok(Batcher {
            shared,
            worker: Some(worker),
        })
    }

    /// The Pareto menu the batcher serves.
    pub fn infos(&self) -> &[ModelInfo] {
        &self.shared.infos
    }

    /// Validate and admit one request, whose answer goes to `reply`.
    /// Returns a typed error instead: `Config` for a malformed request,
    /// `Saturated` when the admission queue is full. `reply` runs once on
    /// the batch worker thread, so it must be cheap: encode and notify,
    /// no tensor work.
    pub fn submit_sink(
        &self,
        model_id: Option<u64>,
        channels: usize,
        height: usize,
        width: usize,
        pixels: Vec<f32>,
        reply: impl FnOnce(Classification) + Send + 'static,
    ) -> Result<(), A4nnError> {
        let model_idx = match model_id {
            None => self.shared.default_idx,
            Some(id) => self
                .shared
                .infos
                .iter()
                .position(|m| m.model_id == id)
                .ok_or_else(|| {
                    A4nnError::Config(format!("model {id} is not on the served Pareto front"))
                })?,
        };
        let info = &self.shared.infos[model_idx];
        if channels != info.input_channels {
            return Err(A4nnError::Config(format!(
                "model {} expects {} channel(s), request has {channels}",
                info.model_id, info.input_channels
            )));
        }
        // The shape comes off the wire: a product that overflows is a
        // malformed request, not a wrapped length that happens to match.
        let expected = channels
            .checked_mul(height)
            .and_then(|n| n.checked_mul(width));
        if height == 0 || width == 0 || expected != Some(pixels.len()) {
            return Err(A4nnError::Config(format!(
                "pixel payload is {} value(s), expected {channels}x{height}x{width}",
                pixels.len()
            )));
        }
        let pending = Pending {
            model_idx,
            channels,
            height,
            width,
            pixels,
            enqueued: Instant::now(),
            reply: Box::new(reply),
        };
        {
            let mut q = self.shared.queue.lock();
            if q.shutdown {
                return Err(A4nnError::Internal("serve batcher is shut down".into()));
            }
            if q.items.len() >= QUEUE_CAP {
                drop(q);
                self.shared.metrics.add(names::SERVE_REJECTED, 1);
                return Err(A4nnError::Saturated(format!(
                    "serve queue holds {QUEUE_CAP} request(s)"
                )));
            }
            q.items.push_back(pending);
        }
        self.shared.cond.notify_one();
        self.shared.metrics.add(names::SERVE_REQUESTS, 1);
        Ok(())
    }

    /// Submit and block for the answer, recording end-to-end latency.
    pub fn classify(
        &self,
        model_id: Option<u64>,
        channels: usize,
        height: usize,
        width: usize,
        pixels: Vec<f32>,
    ) -> Result<Classification, A4nnError> {
        let t0 = Instant::now();
        let (tx, rx) = sync_channel(1);
        self.submit_sink(model_id, channels, height, width, pixels, move |c| {
            // A receiver that hung up is not an error.
            let _ = tx.send(c);
        })?;
        let answer = rx
            .recv()
            .map_err(|_| A4nnError::Internal("serve batch worker died before replying".into()))?;
        self.shared
            .metrics
            .observe_duration(names::SERVE_LATENCY_US, t0.elapsed().as_secs_f64());
        Ok(answer)
    }

    /// Drain the queue and stop the worker. Requests already admitted
    /// are answered; the queue refuses new work immediately.
    pub fn shutdown(&mut self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.cond.notify_all();
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

impl Drop for Batcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Argmax over one logits row, ties to the lower index — the same rule
/// `count_correct` applies during training-side evaluation.
fn argmax(row: &[f32]) -> usize {
    let mut best = 0usize;
    for (i, v) in row.iter().enumerate().skip(1) {
        if v.total_cmp(&row[best]) == std::cmp::Ordering::Greater {
            best = i;
        }
    }
    best
}

fn worker_loop(shared: &Shared, mut nets: Vec<Network>) {
    let mut ws = Workspace::new();
    // The registry has counters, not gauges: the pool's high-water mark
    // goes out as its growth since the last export.
    let mut exported_peak = 0usize;
    loop {
        let (key, batch) = {
            let mut q = shared.queue.lock();
            while q.items.is_empty() && !q.shutdown {
                shared.cond.wait(&mut q);
            }
            // Empty here means shut down with the queue drained.
            let Some(first) = q.items.pop_front() else {
                return;
            };
            let key = first.shape_key();
            let mut batch = Vec::with_capacity(MAX_BATCH);
            batch.push(first);
            while batch.len() < MAX_BATCH && q.items.front().is_some_and(|p| p.shape_key() == key) {
                batch.extend(q.items.pop_front());
            }
            (key, batch)
        };
        let now = Instant::now();
        for p in &batch {
            shared.metrics.observe_duration(
                names::SERVE_QUEUE_WAIT_US,
                now.duration_since(p.enqueued).as_secs_f64(),
            );
        }
        let (model_idx, c, h, w) = key;
        let n = batch.len();
        let mut x = ws.t4_scratch(n, c, h, w);
        let stride = c * h * w;
        for (i, p) in batch.iter().enumerate() {
            x.data_mut()[i * stride..(i + 1) * stride].copy_from_slice(&p.pixels);
        }
        let t0 = Instant::now();
        let logits = nets[model_idx].forward_ws(&x, false, &mut ws);
        shared
            .metrics
            .observe_duration(names::SERVE_EVAL_US, t0.elapsed().as_secs_f64());
        ws.give4(x);
        let model_id = shared.infos[model_idx].model_id;
        for (i, p) in batch.into_iter().enumerate() {
            let row = logits.row(i).to_vec();
            let class = argmax(&row);
            (p.reply)(Classification {
                model_id,
                class,
                logits: row,
            });
        }
        ws.give2(logits);
        ws.trim_to(WS_LIMIT_BYTES);
        shared.metrics.add(names::SERVE_BATCHES, 1);
        shared.metrics.observe(names::SERVE_BATCH_SIZE, n as u64);
        let peak = ws.peak_pooled_bytes();
        if peak > exported_peak {
            shared
                .metrics
                .add(names::SERVE_WS_PEAK_BYTES, (peak - exported_peak) as u64);
            exported_peak = peak;
        }
    }
}
