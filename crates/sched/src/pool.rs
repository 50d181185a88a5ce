//! A real FIFO executor mapping virtual GPUs onto worker threads.
//!
//! The A4NN workflow uses this when it actually trains networks with the
//! CPU substrate: each worker thread plays the role of one GPU, draining a
//! shared FIFO queue of jobs — the same dynamic policy the discrete-event
//! simulator models. Results are returned in submission order together
//! with the worker that ran each job and its measured wall time.
//!
//! Jobs run under [`std::panic::catch_unwind`]: a panicking job yields a
//! [`JobStatus::Failed`] report instead of poisoning the batch, and
//! [`GpuPool::run_batch_retry`] requeues failed jobs onto the next free
//! virtual GPU after an exponential backoff, up to a
//! [`RetryPolicy`]-bounded attempt count.

use crate::retry::RetryPolicy;
use a4nn_error::A4nnError;
use crossbeam::channel;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Intra-op thread budget for each of `workers` concurrent jobs: the
/// machine's cores divided evenly among the virtual GPUs, at least 1.
/// The workflow hands this to the NN substrate's GEMM kernels so
/// inter-model parallelism (this pool) and intra-model parallelism
/// (blocked GEMM) share the cores instead of oversubscribing them.
pub fn intra_op_threads(workers: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    (cores / workers.max(1)).max(1)
}

/// Terminal state of one job in a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// The job returned a value.
    Completed,
    /// Every allowed attempt panicked; `error` is the last panic message.
    Failed {
        /// Panic payload of the final attempt, best-effort stringified.
        error: String,
    },
}

impl JobStatus {
    /// Whether the job completed.
    pub fn is_completed(&self) -> bool {
        matches!(self, JobStatus::Completed)
    }
}

/// Execution record for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// Worker ("GPU") that executed its final attempt.
    pub worker: usize,
    /// Measured wall seconds summed over every attempt.
    pub seconds: f64,
    /// Attempts consumed (1 = no retries needed).
    pub attempts: u32,
    /// Whether the job ultimately completed or failed.
    pub status: JobStatus,
}

/// One attempt of one job, in dispatch order.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptRecord {
    /// Index of the job in the submitted batch.
    pub job: usize,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Worker that ran the attempt.
    pub worker: usize,
    /// Measured wall seconds of this attempt.
    pub seconds: f64,
    /// Whether the attempt panicked.
    pub failed: bool,
}

/// Everything [`GpuPool::run_batch_retry`] produces for one batch.
#[derive(Debug)]
pub struct RetryBatch<T> {
    /// Job outputs in submission order; `None` where every attempt failed.
    pub outputs: Vec<Option<T>>,
    /// Final per-job reports, in submission order.
    pub reports: Vec<JobReport>,
    /// Every attempt that ran, in completion order.
    pub attempts: Vec<AttemptRecord>,
    /// Measured busy seconds per worker (sums to total attempt seconds).
    pub worker_busy_s: Vec<f64>,
}

/// A fixed-size pool of worker threads with FIFO job dispatch.
#[derive(Debug)]
pub struct GpuPool {
    workers: usize,
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked".to_string()
    }
}

/// Join every pool worker; a worker that died outside a job's
/// `catch_unwind` is the pool's own machinery breaking.
fn join_workers(handles: Vec<std::thread::ScopedJoinHandle<'_, ()>>) -> Result<(), A4nnError> {
    // Join all of them before judging: a handle left unjoined would
    // re-raise its panic when the scope exits.
    let mut all_ok = true;
    for handle in handles {
        all_ok &= handle.join().is_ok();
    }
    if all_ok {
        Ok(())
    } else {
        Err(A4nnError::Internal("pool worker thread panicked".into()))
    }
}

/// Per-job result slot: the output (`None` if the job panicked) plus its
/// report, filled in by whichever worker ran the job.
type JobSlot<T> = Option<(Option<T>, JobReport)>;

/// One queue entry: a job attempt that becomes runnable at `not_before`.
struct Pending {
    job: usize,
    attempt: u32,
    not_before: Instant,
}

impl GpuPool {
    /// Create a pool that will use `workers` threads per batch.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        GpuPool { workers }
    }

    /// Number of virtual GPUs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run every job once, FIFO, across the pool. Returns the job
    /// outputs in submission order (`None` for panicked jobs) plus
    /// per-job execution reports — a panicking job is reported as
    /// [`JobStatus::Failed`] and never loses the rest of the batch.
    ///
    /// Jobs receive the worker index so trainers can tag lineage records
    /// with their virtual GPU. Errs only when the pool's own machinery
    /// breaks (a worker thread dies outside a job's `catch_unwind`) —
    /// job panics are data, not errors.
    pub fn run_batch<T, F>(
        &self,
        jobs: Vec<F>,
    ) -> Result<(Vec<Option<T>>, Vec<JobReport>), A4nnError>
    where
        T: Send,
        F: FnOnce(usize) -> T + Send,
    {
        let n = jobs.len();
        let (job_tx, job_rx) = channel::unbounded::<(usize, F)>();
        for (i, job) in jobs.into_iter().enumerate() {
            job_tx
                .send((i, job))
                .map_err(|_| A4nnError::Internal("job queue closed before dispatch".into()))?;
        }
        drop(job_tx);

        let results: Mutex<Vec<JobSlot<T>>> = Mutex::new((0..n).map(|_| None).collect());

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers);
            for worker in 0..self.workers {
                let job_rx = job_rx.clone();
                let results = &results;
                handles.push(scope.spawn(move || {
                    while let Ok((i, job)) = job_rx.recv() {
                        let t0 = Instant::now();
                        let outcome = catch_unwind(AssertUnwindSafe(|| job(worker)));
                        let seconds = t0.elapsed().as_secs_f64();
                        let (out, status) = match outcome {
                            Ok(v) => (Some(v), JobStatus::Completed),
                            Err(payload) => (
                                None,
                                JobStatus::Failed {
                                    error: panic_message(payload.as_ref()),
                                },
                            ),
                        };
                        let report = JobReport {
                            job: i,
                            worker,
                            seconds,
                            attempts: 1,
                            status,
                        };
                        results.lock()[i] = Some((out, report));
                    }
                }));
            }
            join_workers(handles)
        })?;

        let mut outs = Vec::with_capacity(n);
        let mut reports = Vec::with_capacity(n);
        for slot in results.into_inner() {
            let (out, report) =
                slot.ok_or_else(|| A4nnError::Internal("pool worker dropped a job slot".into()))?;
            outs.push(out);
            reports.push(report);
        }
        Ok((outs, reports))
    }

    /// Run every job FIFO with per-job retries: an attempt that panics is
    /// requeued at the back of the ready queue, eligible again after the
    /// policy's exponential backoff, and picked up by whichever virtual
    /// GPU frees up first. Jobs that exhaust `policy.max_attempts`
    /// attempts are reported as [`JobStatus::Failed`].
    ///
    /// Jobs receive `(worker, attempt)` so trainers can key per-attempt
    /// behaviour (attempt is 1-based). As with [`run_batch`](Self::run_batch),
    /// an `Err` means the pool itself broke; exhausted jobs come back as
    /// `None` outputs with [`JobStatus::Failed`] reports.
    pub fn run_batch_retry<T, F>(
        &self,
        jobs: Vec<F>,
        policy: &RetryPolicy,
    ) -> Result<RetryBatch<T>, A4nnError>
    where
        T: Send,
        F: Fn(usize, u32) -> T + Send + Sync,
    {
        let n = jobs.len();
        let max_attempts = policy.max_attempts.max(1);
        let now = Instant::now();
        let queue: Mutex<VecDeque<Pending>> = Mutex::new(
            (0..n)
                .map(|job| Pending {
                    job,
                    attempt: 1,
                    not_before: now,
                })
                .collect(),
        );
        // Jobs not yet terminally resolved; workers exit when it hits 0.
        let outstanding = Mutex::new(n);
        let ready = Condvar::new();
        let outputs: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
        let reports: Mutex<Vec<Option<JobReport>>> = Mutex::new((0..n).map(|_| None).collect());
        let attempts_log: Mutex<Vec<AttemptRecord>> = Mutex::new(Vec::new());
        let busy: Mutex<Vec<f64>> = Mutex::new(vec![0.0; self.workers]);
        // Wall seconds accumulated per job across attempts.
        let job_seconds: Mutex<Vec<f64>> = Mutex::new(vec![0.0; n]);
        let jobs = &jobs;

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers);
            for worker in 0..self.workers {
                let queue = &queue;
                let outstanding = &outstanding;
                let ready = &ready;
                let outputs = &outputs;
                let reports = &reports;
                let attempts_log = &attempts_log;
                let busy = &busy;
                let job_seconds = &job_seconds;
                handles.push(scope.spawn(move || loop {
                    let pending = {
                        let mut q = queue.lock();
                        loop {
                            if *outstanding.lock() == 0 {
                                return;
                            }
                            let now = Instant::now();
                            // FIFO among eligible entries.
                            if let Some(pos) = q.iter().position(|p| p.not_before <= now) {
                                let Some(p) = q.remove(pos) else {
                                    unreachable!("position from iter::position is in bounds")
                                };
                                break p;
                            }
                            match q.iter().map(|p| p.not_before).min() {
                                // Backoffs pending: sleep until the
                                // earliest becomes eligible.
                                Some(wake) => {
                                    ready.wait_for(&mut q, wake.saturating_duration_since(now));
                                }
                                // Queue empty: wait for a requeue or for
                                // the batch to finish.
                                None => {
                                    ready.wait_for(&mut q, Duration::from_millis(50));
                                }
                            }
                        }
                    };
                    let t0 = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        jobs[pending.job](worker, pending.attempt)
                    }));
                    let seconds = t0.elapsed().as_secs_f64();
                    busy.lock()[worker] += seconds;
                    job_seconds.lock()[pending.job] += seconds;
                    attempts_log.lock().push(AttemptRecord {
                        job: pending.job,
                        attempt: pending.attempt,
                        worker,
                        seconds,
                        failed: outcome.is_err(),
                    });
                    match outcome {
                        Ok(v) => {
                            outputs.lock()[pending.job] = Some(v);
                            reports.lock()[pending.job] = Some(JobReport {
                                job: pending.job,
                                worker,
                                seconds: job_seconds.lock()[pending.job],
                                attempts: pending.attempt,
                                status: JobStatus::Completed,
                            });
                            *outstanding.lock() -= 1;
                            ready.notify_all();
                        }
                        Err(payload) if pending.attempt < max_attempts => {
                            let backoff = policy.backoff_s(pending.attempt).max(0.0);
                            drop(payload);
                            queue.lock().push_back(Pending {
                                job: pending.job,
                                attempt: pending.attempt + 1,
                                not_before: Instant::now() + Duration::from_secs_f64(backoff),
                            });
                            ready.notify_all();
                        }
                        Err(payload) => {
                            reports.lock()[pending.job] = Some(JobReport {
                                job: pending.job,
                                worker,
                                seconds: job_seconds.lock()[pending.job],
                                attempts: pending.attempt,
                                status: JobStatus::Failed {
                                    error: panic_message(payload.as_ref()),
                                },
                            });
                            *outstanding.lock() -= 1;
                            ready.notify_all();
                        }
                    }
                }));
            }
            join_workers(handles)
        })?;

        let reports = reports
            .into_inner()
            .into_iter()
            .map(|r| {
                r.ok_or_else(|| A4nnError::Internal("pool worker dropped a job report".into()))
            })
            .collect::<Result<Vec<_>, A4nnError>>()?;
        Ok(RetryBatch {
            outputs: outputs.into_inner(),
            reports,
            attempts: attempts_log.into_inner(),
            worker_busy_s: busy.into_inner(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

    #[test]
    fn intra_op_budget_divides_cores_and_never_hits_zero() {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(intra_op_threads(1), cores);
        assert_eq!(intra_op_threads(0), cores); // degenerate: treated as 1 worker
        assert_eq!(intra_op_threads(cores * 2), 1);
        for w in 1..=cores {
            assert!(intra_op_threads(w) * w <= cores, "oversubscribed at {w}");
        }
    }

    #[test]
    fn results_preserve_submission_order() {
        let pool = GpuPool::new(4);
        let jobs: Vec<_> = (0..16).map(|i| move |_w: usize| i * 10).collect();
        let (outs, reports) = pool.run_batch(jobs).unwrap();
        assert_eq!(outs, (0..16).map(|i| Some(i * 10)).collect::<Vec<_>>());
        assert_eq!(reports.len(), 16);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.job, i);
            assert!(r.worker < 4);
            assert_eq!(r.status, JobStatus::Completed);
            assert_eq!(r.attempts, 1);
        }
    }

    #[test]
    fn all_workers_participate_under_load() {
        let pool = GpuPool::new(3);
        let jobs: Vec<_> = (0..24)
            .map(|_| {
                move |_w: usize| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            })
            .collect();
        let (_, reports) = pool.run_batch(jobs).unwrap();
        let mut seen = [false; 3];
        for r in reports {
            seen[r.worker] = true;
        }
        assert!(seen.iter().all(|&s| s), "workers {seen:?}");
    }

    #[test]
    fn concurrency_is_bounded_by_pool_size() {
        let pool = GpuPool::new(2);
        static ACTIVE: AtomicUsize = AtomicUsize::new(0);
        static PEAK: AtomicUsize = AtomicUsize::new(0);
        let jobs: Vec<_> = (0..12)
            .map(|_| {
                move |_w: usize| {
                    let now = ACTIVE.fetch_add(1, Ordering::SeqCst) + 1;
                    PEAK.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(3));
                    ACTIVE.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        let _ = pool.run_batch(jobs).unwrap();
        assert!(PEAK.load(Ordering::SeqCst) <= 2);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = GpuPool::new(2);
        let (outs, reports) = pool.run_batch(Vec::<fn(usize) -> ()>::new()).unwrap();
        assert!(outs.is_empty() && reports.is_empty());
    }

    #[test]
    fn parallel_pool_is_faster_than_serial_for_sleep_jobs() {
        let mk_jobs = || {
            (0..8)
                .map(|_| {
                    move |_w: usize| {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                })
                .collect::<Vec<_>>()
        };
        let t0 = Instant::now();
        GpuPool::new(1).run_batch(mk_jobs()).unwrap();
        let serial = t0.elapsed();
        let t1 = Instant::now();
        GpuPool::new(4).run_batch(mk_jobs()).unwrap();
        let parallel = t1.elapsed();
        assert!(
            parallel < serial,
            "parallel {parallel:?} should beat serial {serial:?}"
        );
    }

    #[test]
    fn panicking_job_reports_failed_without_losing_the_batch() {
        // Regression: a panic used to unwind the whole scope and lose
        // every result; now it must yield one Failed report.
        let pool = GpuPool::new(2);
        let jobs: Vec<Box<dyn FnOnce(usize) -> usize + Send>> = (0..6usize)
            .map(|i| {
                Box::new(move |_w: usize| {
                    if i == 3 {
                        panic!("injected failure in job 3");
                    }
                    i * 2
                }) as Box<dyn FnOnce(usize) -> usize + Send>
            })
            .collect();
        let (outs, reports) = pool.run_batch(jobs).unwrap();
        for i in 0..6 {
            if i == 3 {
                assert_eq!(outs[i], None);
                let JobStatus::Failed { error } = &reports[i].status else {
                    panic!("job 3 should be Failed");
                };
                assert!(error.contains("injected failure"));
            } else {
                assert_eq!(outs[i], Some(i * 2));
                assert_eq!(reports[i].status, JobStatus::Completed);
            }
        }
    }

    #[test]
    fn retry_recovers_transient_failures() {
        let pool = GpuPool::new(2);
        let counters: Vec<AtomicU32> = (0..8).map(|_| AtomicU32::new(0)).collect();
        let counters = &counters;
        // Jobs 2 and 5 fail on their first attempt only.
        let jobs: Vec<_> = (0..8)
            .map(|i| {
                move |_w: usize, attempt: u32| {
                    counters[i].fetch_add(1, Ordering::SeqCst);
                    if (i == 2 || i == 5) && attempt == 1 {
                        panic!("transient fault");
                    }
                    i
                }
            })
            .collect();
        let batch = pool
            .run_batch_retry(
                jobs,
                &RetryPolicy {
                    max_attempts: 3,
                    backoff_base_s: 0.001,
                    backoff_factor: 2.0,
                },
            )
            .unwrap();
        for (i, counter) in counters.iter().enumerate() {
            assert_eq!(batch.outputs[i], Some(i));
            assert_eq!(batch.reports[i].status, JobStatus::Completed);
            let expected = if i == 2 || i == 5 { 2 } else { 1 };
            assert_eq!(batch.reports[i].attempts, expected);
            assert_eq!(counter.load(Ordering::SeqCst), expected);
        }
        let total_attempts: usize = batch.attempts.len();
        assert_eq!(total_attempts, 10);
    }

    #[test]
    fn exhausted_retries_yield_failed_report() {
        let pool = GpuPool::new(2);
        let jobs: Vec<_> = (0..4)
            .map(|i| {
                move |_w: usize, _attempt: u32| {
                    if i == 1 {
                        panic!("permanent fault");
                    }
                    i
                }
            })
            .collect();
        let batch = pool
            .run_batch_retry(
                jobs,
                &RetryPolicy {
                    max_attempts: 3,
                    backoff_base_s: 0.001,
                    backoff_factor: 2.0,
                },
            )
            .unwrap();
        assert_eq!(batch.outputs[1], None);
        assert_eq!(batch.reports[1].attempts, 3);
        assert!(matches!(batch.reports[1].status, JobStatus::Failed { .. }));
        for i in [0usize, 2, 3] {
            assert_eq!(batch.outputs[i], Some(i));
        }
        // Three failed attempts logged for job 1.
        assert_eq!(
            batch
                .attempts
                .iter()
                .filter(|a| a.job == 1 && a.failed)
                .count(),
            3
        );
    }

    #[test]
    fn busy_accounting_sums_to_attempt_seconds() {
        let pool = GpuPool::new(3);
        let jobs: Vec<_> = (0..9)
            .map(|i| {
                move |_w: usize, attempt: u32| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    if i == 4 && attempt == 1 {
                        panic!("one transient");
                    }
                }
            })
            .collect();
        let batch = pool.run_batch_retry(jobs, &RetryPolicy::default()).unwrap();
        let attempt_total: f64 = batch.attempts.iter().map(|a| a.seconds).sum();
        let busy_total: f64 = batch.worker_busy_s.iter().sum();
        assert!((attempt_total - busy_total).abs() < 1e-9);
        let report_total: f64 = batch.reports.iter().map(|r| r.seconds).sum();
        assert!((attempt_total - report_total).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = GpuPool::new(0);
    }
}
