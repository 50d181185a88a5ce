//! # a4nn-metrics — structured run metrics
//!
//! The operability layer every transport of the evaluation pipeline
//! feeds: monotonic [`Counter`]s and fixed-bucket
//! [`Histogram`]s behind a thread-safe [`MetricsRegistry`], with a
//! serializable [`MetricsSnapshot`] for atomic persistence beside the
//! commons CSVs and a CSV/JSON export read by the `a4nn analyze`
//! subcommand.
//!
//! Design constraints, in order:
//!
//! - **Exactness.** Counters and histogram totals are `u64` with
//!   saturating arithmetic, never floats, so a histogram is independent
//!   of observation order (pinned by the property suite) and a
//!   snapshot/restore round trip is the identity.
//! - **Crash-consistency.** A registry restores from its own snapshot,
//!   which is what lets an interrupted search resume its metrics
//!   mid-run instead of under-counting the generations already paid for.
//! - **Non-perturbation.** Metrics record *measured wall time* and event
//!   counts; nothing in this crate feeds back into the search, so the
//!   reproducible byte stream (models.csv / epochs.csv / commons) is
//!   invariant to the metrics layer by construction.

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use a4nn_error::A4nnError;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// A monotonic saturating counter.
///
/// `add` never decreases the value and saturates at `u64::MAX` instead
/// of wrapping, so a counter can never appear to move backwards — the
/// property suite pins both.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Counter(u64);

impl Counter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increase by `n`, saturating at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// Default histogram bucket bounds: exponentially spaced microseconds
/// from 1 µs to ~17 s, apt for queue waits and transport round trips.
/// Values above the last bound land in the implicit overflow bucket.
pub fn default_time_bounds_us() -> Vec<u64> {
    (0..25).map(|i| 1u64 << i).collect()
}

/// A fixed-bucket histogram over `u64` samples (typically microseconds).
///
/// Bucket `i` counts samples `<= bounds[i]` (and greater than
/// `bounds[i-1]`); one implicit overflow bucket catches the rest. All
/// totals are saturating `u64`, so the histogram of a sample multiset is
/// exact and independent of observation order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Ascending inclusive upper bounds, one per explicit bucket.
    bounds: Vec<u64>,
    /// Per-bucket sample counts; `len() == bounds.len() + 1` (overflow
    /// bucket last).
    counts: Vec<u64>,
    /// Total samples observed (saturating).
    count: u64,
    /// Sum of all observed values (saturating).
    sum: u64,
    /// Smallest observed value; meaningless while `count == 0`.
    min: u64,
    /// Largest observed value; meaningless while `count == 0`.
    max: u64,
}

impl Histogram {
    /// A histogram over ascending inclusive `bounds`. Unsorted or
    /// duplicated bounds are rejected as a configuration error.
    pub fn new(bounds: Vec<u64>) -> Result<Self, A4nnError> {
        if bounds.windows(2).any(|w| w[0] >= w[1]) {
            return Err(A4nnError::Config(
                "histogram bounds must be strictly ascending".into(),
            ));
        }
        let buckets = bounds.len() + 1;
        Ok(Histogram {
            bounds,
            counts: vec![0; buckets],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        })
    }

    /// A histogram over [`default_time_bounds_us`].
    pub fn time_us() -> Self {
        // Bounds are ascending powers of two by construction.
        Histogram {
            counts: vec![0; default_time_bounds_us().len() + 1],
            bounds: default_time_bounds_us(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .partition_point(|&b| b < value)
            .min(self.counts.len() - 1);
        self.counts[idx] = self.counts[idx].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample value, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// The bucket bounds.
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket counts (overflow bucket last).
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }
}

/// A point-in-time copy of a registry: plain serializable data, ordered
/// maps so serialization is deterministic.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, Counter>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
}

impl MetricsSnapshot {
    /// Value of one counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).map_or(0, Counter::get)
    }

    /// One histogram, when present.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Deterministic JSON encoding (pretty, ordered maps).
    pub fn to_json(&self) -> Result<Vec<u8>, A4nnError> {
        serde_json::to_vec_pretty(self)
            .map_err(|e| A4nnError::Internal(format!("serializing metrics snapshot: {e}")))
    }

    /// Decode a snapshot written by [`to_json`](Self::to_json).
    pub fn from_json(bytes: &[u8]) -> Result<Self, A4nnError> {
        serde_json::from_slice(bytes)
            .map_err(|e| A4nnError::Checkpoint(format!("decoding metrics snapshot: {e}")))
    }

    /// The CSV header matching [`to_csv`](Self::to_csv).
    pub const CSV_HEADER: &'static str = "name,kind,count,sum,min,max,mean";

    /// Flat CSV export: one row per counter (`kind=counter`, value in
    /// the `count` column) and one per histogram (`kind=histogram` with
    /// count/sum/min/max/mean). Loads directly into pandas/polars, like
    /// the commons CSVs.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(Self::CSV_HEADER);
        out.push('\n');
        for (name, c) in &self.counters {
            let _ = writeln!(out, "{name},counter,{},,,,", c.get());
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "{name},histogram,{},{},{},{},{}",
                h.count(),
                h.sum(),
                h.min().map(|v| v.to_string()).unwrap_or_default(),
                h.max().map(|v| v.to_string()).unwrap_or_default(),
                h.mean().map(|v| format!("{v:.3}")).unwrap_or_default(),
            );
        }
        out
    }
}

/// Thread-safe named counters and histograms — the live sink the
/// evaluation pipeline's transports record into.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry primed from a snapshot — the resume path: counters
    /// and histograms continue from the interrupted run's values.
    pub fn from_snapshot(snapshot: MetricsSnapshot) -> Self {
        MetricsRegistry {
            inner: Mutex::new(snapshot),
        }
    }

    /// Replace this registry's contents with `snapshot` — the in-place
    /// form of [`from_snapshot`](Self::from_snapshot) for registries
    /// already shared by reference.
    pub fn restore(&self, snapshot: MetricsSnapshot) {
        *self.inner.lock() = snapshot;
    }

    /// Increase counter `name` by `n` (created at zero on first use).
    pub fn add(&self, name: &str, n: u64) {
        let mut inner = self.inner.lock();
        match inner.counters.get_mut(name) {
            Some(c) => c.add(n),
            None => {
                let mut c = Counter::new();
                c.add(n);
                inner.counters.insert(name.to_string(), c);
            }
        }
    }

    /// Record one sample into histogram `name` (created over the
    /// default time bounds on first use).
    pub fn observe(&self, name: &str, value: u64) {
        let mut inner = self.inner.lock();
        match inner.histograms.get_mut(name) {
            Some(h) => h.observe(value),
            None => {
                let mut h = Histogram::time_us();
                h.observe(value);
                inner.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Record a wall-time duration in microseconds into histogram
    /// `name`.
    pub fn observe_duration(&self, name: &str, seconds: f64) {
        let us = (seconds * 1e6).clamp(0.0, u64::MAX as f64) as u64;
        self.observe(name, us);
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().clone()
    }
}

/// Metric names the evaluation pipeline maintains — one place so the
/// pipeline, the CLI, and the stats reader agree on spelling.
pub mod names {
    /// Trainer jobs completed through the transport.
    pub const JOBS_DISPATCHED: &str = "jobs_dispatched";
    /// Extra attempts beyond the first, summed over all jobs.
    pub const RETRIES: &str = "retries";
    /// Training epochs actually run (the paper's Figure 7 currency).
    pub const EPOCHS_TRAINED: &str = "epochs_trained";
    /// Models the prediction engine terminated early.
    pub const EARLY_TERMINATIONS: &str = "early_terminations";
    /// Models that exhausted their retry budget.
    pub const MODELS_FAILED: &str = "models_failed";
    /// Generations evaluated end to end.
    pub const GENERATIONS: &str = "generations";
    /// Dispatch→outcome wall time per job, microseconds.
    pub const ROUND_TRIP_US: &str = "round_trip_us";
    /// Wall time a job waited for a free execution slot, microseconds.
    pub const QUEUE_WAIT_US: &str = "queue_wait_us";

    // --- Inference server (`a4nn serve`) -------------------------------

    /// Classify requests admitted into the serve queue.
    pub const SERVE_REQUESTS: &str = "serve_requests";
    /// Classify requests refused because the admission queue was full.
    pub const SERVE_REJECTED: &str = "serve_rejected";
    /// Micro-batches executed by the serve batcher.
    pub const SERVE_BATCHES: &str = "serve_batches";
    /// Requests per executed micro-batch (histogram of batch sizes).
    pub const SERVE_BATCH_SIZE: &str = "serve_batch_size";
    /// Wall time a request waited in the admission queue, microseconds.
    pub const SERVE_QUEUE_WAIT_US: &str = "serve_queue_wait_us";
    /// Submit→response wall time per request, microseconds.
    pub const SERVE_LATENCY_US: &str = "serve_latency_us";
    /// Forward-pass wall time per micro-batch, microseconds.
    pub const SERVE_EVAL_US: &str = "serve_eval_us";
    /// High-water mark of bytes parked in the batcher's workspace pool
    /// (monotonic counter: updated by the delta since the last export).
    pub const SERVE_WS_PEAK_BYTES: &str = "serve_ws_peak_bytes";

    // --- Event-driven I/O reactor (`a4nn serve` on Linux) --------------

    /// `epoll_wait` returns, including deadline-only wakeups.
    pub const REACTOR_WAKEUPS: &str = "reactor_wakeups";
    /// Ready events delivered per `epoll_wait` return (histogram) — the
    /// multiplexing ratio: how many sockets each wakeup services.
    pub const REACTOR_READY_EVENTS: &str = "reactor_ready_events";
    /// Connections the reactor accepted.
    pub const REACTOR_CONNS_OPENED: &str = "reactor_conns_opened";
    /// Connections the reactor closed (any reason).
    pub const REACTOR_CONNS_CLOSED: &str = "reactor_conns_closed";
    /// High-water mark of simultaneously live reactor connections
    /// (monotonic counter: updated by the delta since the last export).
    pub const REACTOR_CONNS_LIVE_PEAK: &str = "reactor_conns_live_peak";
    /// Connections closed by the idle/stall deadline.
    pub const REACTOR_IDLE_CLOSED: &str = "reactor_idle_closed";
    /// Accept→first-byte wall time per connection, microseconds.
    pub const REACTOR_ACCEPT_FIRST_BYTE_US: &str = "reactor_accept_first_byte_us";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_is_monotonic_and_saturates() {
        let mut c = Counter::new();
        c.add(5);
        c.add(0);
        assert_eq!(c.get(), 5);
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.add(1);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bins_and_stats() {
        let mut h = Histogram::new(vec![10, 100, 1000]).unwrap();
        for v in [1, 10, 11, 100, 5000] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), &[2, 2, 0, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5122);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(5000));
        assert!((h.mean().unwrap() - 1024.4).abs() < 1e-9);
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::time_us();
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn unsorted_bounds_rejected() {
        assert!(Histogram::new(vec![5, 5]).is_err());
        assert!(Histogram::new(vec![9, 3]).is_err());
        assert!(Histogram::new(vec![]).is_ok());
    }

    #[test]
    fn registry_snapshot_roundtrip() {
        let reg = MetricsRegistry::new();
        reg.add(names::EPOCHS_TRAINED, 42);
        reg.add(names::RETRIES, 3);
        reg.observe(names::ROUND_TRIP_US, 1500);
        reg.observe_duration(names::QUEUE_WAIT_US, 0.002);
        let snap = reg.snapshot();
        assert_eq!(snap.counter(names::EPOCHS_TRAINED), 42);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.histogram(names::QUEUE_WAIT_US).unwrap().count(), 1);
        let restored = MetricsRegistry::from_snapshot(
            MetricsSnapshot::from_json(&snap.to_json().unwrap()).unwrap(),
        );
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn restored_registry_continues_counting() {
        let reg = MetricsRegistry::new();
        reg.add(names::EPOCHS_TRAINED, 10);
        let resumed = MetricsRegistry::from_snapshot(reg.snapshot());
        resumed.add(names::EPOCHS_TRAINED, 5);
        assert_eq!(resumed.snapshot().counter(names::EPOCHS_TRAINED), 15);
    }

    #[test]
    fn csv_export_shape() {
        let reg = MetricsRegistry::new();
        reg.add(names::EPOCHS_TRAINED, 7);
        reg.observe(names::ROUND_TRIP_US, 3);
        let csv = reg.snapshot().to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some(MetricsSnapshot::CSV_HEADER));
        assert_eq!(lines.next(), Some("epochs_trained,counter,7,,,,"));
        assert_eq!(lines.next(), Some("round_trip_us,histogram,1,3,3,3,3.000"));
        assert_eq!(lines.next(), None);
    }
}
