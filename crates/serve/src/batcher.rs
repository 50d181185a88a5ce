//! The micro-batcher: a bounded admission queue in front of batched
//! eval-mode forward passes.
//!
//! Concurrent classify requests from any number of connections land in
//! one bounded queue. Admission is all-or-nothing and non-blocking: a
//! full queue refuses the request with [`A4nnError::Saturated`] instead
//! of queueing unboundedly — the caller sees a typed rejection and backs
//! off, and the server's memory stays bounded no matter the offered load.
//!
//! Batch workers drain the queue greedily: each batch takes consecutive
//! requests for the *same model and image shape* up to `max_batch` and
//! runs them through a single eval-mode `forward_ws`. Eval-mode forward
//! treats every sample independently (per-sample im2col, running BN
//! stats, row-wise dense), so a request's logits are bitwise identical
//! whether it rode a batch of one or sixteen — the property the
//! equivalence suite pins.
//!
//! Each worker owns one [`Workspace`] arena: after warm-up, steady-state
//! serving performs no heap allocation in the forward path, and a
//! [`trim_to`](Workspace::trim_to) after every batch bounds the pool
//! when request shapes vary. The pool's high-water mark is exported
//! through the metrics registry (summed across workers).

use crate::model::ModelRepo;
use crate::protocol::ModelInfo;
use a4nn_error::A4nnError;
use a4nn_metrics::{names, MetricsRegistry};
use a4nn_nn::{Network, Workspace};
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::time::Instant;

/// Batcher tuning knobs.
#[derive(Debug, Clone)]
pub struct BatcherConfig {
    /// Most requests folded into one forward pass.
    pub max_batch: usize,
    /// Admission queue capacity; requests beyond it are rejected.
    pub queue_cap: usize,
    /// Batch worker threads (each owns a clone of every served model).
    pub workers: usize,
    /// Workspace pool cap per worker, bytes; trimmed after every batch.
    pub ws_limit_bytes: usize,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 8,
            queue_cap: 64,
            workers: 1,
            ws_limit_bytes: 8 * 1024 * 1024,
        }
    }
}

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
    cfg: BatcherConfig,
    infos: Vec<ModelInfo>,
    default_idx: usize,
    metrics: Arc<MetricsRegistry>,
}

/// The running batcher: submit requests, receive classifications.
pub struct Batcher {
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Batcher {
    /// Consume `repo` and start the batch workers.
    pub fn start(
        repo: ModelRepo,
        cfg: BatcherConfig,
        metrics: Arc<MetricsRegistry>,
    ) -> Result<Self, A4nnError> {
        if cfg.max_batch == 0 || cfg.queue_cap == 0 || cfg.workers == 0 {
            return Err(A4nnError::Config(
                "batcher max_batch, queue_cap, and workers must all be positive".into(),
            ));
        }
        let (infos, default_idx, nets) = repo.into_parts();
        let shared = Arc::new(Shared {
            queue: Mutex::new(Queue {
                items: VecDeque::new(),
                shutdown: false,
            }),
            cond: Condvar::new(),
            cfg: cfg.clone(),
            infos,
            default_idx,
            metrics,
        });
        let mut workers = Vec::with_capacity(cfg.workers);
        // The last worker takes the original networks; earlier ones
        // clone. Identical weights either way, so which worker executes
        // a batch cannot perturb answers.
        let mut pool = Some(nets);
        for w in 0..cfg.workers {
            let nets: Vec<Network> = if w + 1 == cfg.workers {
                pool.take().unwrap_or_default()
            } else {
                pool.as_ref().cloned().unwrap_or_default()
            };
            let shared = Arc::clone(&shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared, nets)));
        }
        Ok(Batcher { shared, workers })
    }

    /// The Pareto menu the batcher serves.
    pub fn infos(&self) -> &[ModelInfo] {
        &self.shared.infos
    }

    /// Validate and admit one request. Returns the reply receiver, or a
    /// typed error: `Config` for malformed requests, `Saturated` when the
    /// admission queue is full.
    pub fn submit(
        &self,
        model_id: Option<u64>,
        channels: usize,
        height: usize,
        width: usize,
        pixels: Vec<f32>,
    ) -> Result<Receiver<Classification>, A4nnError> {
        let (tx, rx) = sync_channel(1);
        self.submit_sink(model_id, channels, height, width, pixels, move |c| {
            // A receiver that hung up (dead connection) is not an error.
            let _ = tx.send(c);
        })?;
        Ok(rx)
    }

    /// [`submit`](Self::submit) with a reply callback — the reactor's
    /// nonblocking entry point. Validation and admission control are
    /// identical; only where the answer lands differs. `reply` runs once
    /// on the batch worker thread, so it must be cheap: encode and
    /// notify, no tensor work.
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
        if height == 0 || width == 0 || pixels.len() != channels * height * width {
            return Err(A4nnError::Config(format!(
                "pixel payload is {} value(s), expected {channels}x{height}x{width} = {}",
                pixels.len(),
                channels * height * width
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
            if q.items.len() >= self.shared.cfg.queue_cap {
                drop(q);
                self.shared.metrics.add(names::SERVE_REJECTED, 1);
                return Err(A4nnError::Saturated(format!(
                    "serve queue holds {} request(s)",
                    self.shared.cfg.queue_cap
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
        let rx = self.submit(model_id, channels, height, width, pixels)?;
        let result = rx
            .recv()
            .map_err(|_| A4nnError::Internal("serve batch worker died before replying".into()));
        if result.is_ok() {
            self.shared
                .metrics
                .observe_duration(names::SERVE_LATENCY_US, t0.elapsed().as_secs_f64());
        }
        result
    }

    /// Drain the queue and stop the workers. Requests already admitted
    /// are answered; the queue refuses new work immediately.
    pub fn shutdown(&mut self) {
        {
            let mut q = self.shared.queue.lock();
            q.shutdown = true;
        }
        self.shared.cond.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
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
    // Each worker exports the growth of its own pool high-water mark as a
    // counter delta, so the shared counter sums per-worker peaks.
    let mut exported_peak = 0usize;
    loop {
        let batch: Vec<Pending> = {
            let mut q = shared.queue.lock();
            while q.items.is_empty() && !q.shutdown {
                shared.cond.wait(&mut q);
            }
            if q.items.is_empty() {
                // Shutdown with a drained queue: done.
                return;
            }
            let mut batch = Vec::with_capacity(shared.cfg.max_batch);
            let Some(first) = q.items.pop_front() else {
                continue;
            };
            let key = first.shape_key();
            batch.push(first);
            while batch.len() < shared.cfg.max_batch
                && q.items.front().is_some_and(|p| p.shape_key() == key)
            {
                if let Some(p) = q.items.pop_front() {
                    batch.push(p);
                }
            }
            batch
        };
        // Admission control can in principle hand a worker zero work (a
        // sibling drained the queue between wake-up and pop); the guard
        // above makes that an explicit skip, never a zero-size forward,
        // whose accuracy-style reductions are undefined.
        let Some(first) = batch.first() else {
            continue;
        };
        let now = Instant::now();
        for p in &batch {
            shared.metrics.observe_duration(
                names::SERVE_QUEUE_WAIT_US,
                now.duration_since(p.enqueued).as_secs_f64(),
            );
        }
        let (model_idx, c, h, w) = first.shape_key();
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
        ws.trim_to(shared.cfg.ws_limit_bytes);
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
