//! A real FIFO executor mapping virtual GPUs onto worker threads.
//!
//! The A4NN workflow uses this when it actually trains networks with the
//! CPU substrate: each worker thread plays the role of one GPU, draining a
//! shared FIFO queue of jobs — the same dynamic policy the discrete-event
//! simulator models. Results are returned in submission order together
//! with the worker that ran each job and its measured wall time.
//!
//! Jobs run under [`std::panic::catch_unwind`]: a panicking job yields a
//! `None` output instead of poisoning the batch. The pool never retries:
//! a job that wants another attempt loops inside itself, as the
//! trainers' retry loop does. The socket coordinator does not run on the
//! pool: it dispatches from one loop that also requeues a lost worker's
//! jobs.

use a4nn_error::A4nnError;
use parking_lot::Mutex;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The machine's cores divided evenly among `workers` concurrent jobs,
/// at least 1. Nothing in the workflow reads it: every layer runs on its
/// caller's thread. It exists only because the benchmark harness
/// (`benchmark/src/search.rs`, `benchmark/src/probes.rs`) still calls it;
/// ROADMAP's benchmark-scope item ("the Bus goes") deletes it together
/// with those calls.
pub fn intra_op_threads(workers: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    (cores / workers.max(1)).max(1)
}

/// Execution record for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport {
    /// Worker ("GPU") that executed the job.
    pub worker: usize,
    /// Measured wall seconds of the job.
    pub seconds: f64,
}

/// A fixed-size pool of worker threads with FIFO job dispatch.
#[derive(Debug)]
pub struct GpuPool {
    workers: usize,
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

impl GpuPool {
    /// Create a pool that will use `workers` threads per batch.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        GpuPool { workers }
    }

    /// Run every job once, FIFO, across the pool. Returns the job
    /// outputs in submission order (`None` for panicked jobs) plus
    /// per-job execution reports — a panicking job never loses the rest
    /// of the batch.
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
        let queue = Mutex::new(jobs.into_iter().enumerate());
        let results: Mutex<Vec<JobSlot<T>>> = Mutex::new((0..n).map(|_| None).collect());

        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(self.workers);
            for worker in 0..self.workers {
                let (queue, results) = (&queue, &results);
                handles.push(scope.spawn(move || loop {
                    // Its own statement, so the guard drops before the
                    // job runs and the other workers can take theirs.
                    let next = queue.lock().next();
                    let Some((i, job)) = next else { break };
                    let t0 = Instant::now();
                    let out = catch_unwind(AssertUnwindSafe(|| job(worker))).ok();
                    let seconds = t0.elapsed().as_secs_f64();
                    results.lock()[i] = Some((out, JobReport { worker, seconds }));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        assert!(reports.iter().all(|r| r.worker < 4));
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
    fn panicking_job_yields_none_without_losing_the_batch() {
        // Regression: a panic used to unwind the whole scope and lose
        // every result; now it must yield one `None` output.
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
        assert_eq!(reports.len(), 6);
        for (i, out) in outs.into_iter().enumerate() {
            assert_eq!(out, (i != 3).then_some(i * 2));
        }
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_workers_panics() {
        let _ = GpuPool::new(0);
    }
}
