//! Property tests for the discrete-event schedule ([`schedule`]), which
//! charges every trainer attempt — failed ones included — to the
//! simulated GPUs, under arbitrary failure patterns:
//!
//! - the DES conserves time, GPU by GPU, over every attempt;
//! - each task's attempts are strictly ordered and respect the policy's
//!   exponential backoff.

use a4nn_sched::{schedule, RetryPolicy, Task, TaskOrdering};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The DES conserves simulated time: `gpu_busy` sums to the sum
    /// of every attempt duration, and the assignment log holds exactly
    /// one entry per attempt, all within the makespan.
    #[test]
    fn des_retry_schedule_conserves_simulated_time(
        durations in proptest::collection::vec(
            proptest::collection::vec(1.0f64..50.0, 1..=3), // attempts per task
            1..=8,                                      // tasks
        ),
        n_gpus in 1usize..=4,
    ) {
        let tasks: Vec<Task> = durations
            .iter()
            .enumerate()
            .map(|(i, d)| Task { id: i as u64, attempt_durations: d.clone() })
            .collect();
        let policy = RetryPolicy { max_attempts: 3, backoff_base_s: 0.5, backoff_factor: 2.0 };
        let result = schedule(n_gpus, &tasks, TaskOrdering::Fifo, &policy);

        let total_attempts: usize = durations.iter().map(Vec::len).sum();
        prop_assert_eq!(result.assignments.len(), total_attempts);
        let busy: f64 = result.gpu_busy.iter().sum();
        let expected: f64 = durations.iter().flatten().sum();
        prop_assert!((busy - expected).abs() < 1e-6, "busy {} != {}", busy, expected);
        for a in &result.assignments {
            prop_assert!(a.end <= result.makespan + 1e-9);
            prop_assert!(a.gpu < n_gpus);
            prop_assert!(a.end > a.start);
        }
        // Each task's attempts are strictly ordered in simulated time.
        for (i, d) in durations.iter().enumerate() {
            let mine: Vec<_> = result
                .assignments
                .iter()
                .filter(|a| a.task_id == i as u64)
                .collect();
            prop_assert_eq!(mine.len(), d.len());
            for w in mine.windows(2) {
                prop_assert!(w[1].start >= w[0].end, "attempts overlap");
            }
        }
    }

    /// Simulated retries respect exponential backoff: attempt `k + 1`
    /// never starts before `fail time + backoff_s(k)`.
    #[test]
    fn des_retries_respect_backoff(
        n_failures in 1u32..=2,
        duration in 5.0f64..20.0,
    ) {
        let attempts = (0..=n_failures).map(|_| duration).collect::<Vec<_>>();
        let tasks = vec![Task { id: 0, attempt_durations: attempts }];
        let policy = RetryPolicy { max_attempts: 3, backoff_base_s: 2.0, backoff_factor: 3.0 };
        let result = schedule(1, &tasks, TaskOrdering::Fifo, &policy);
        for (k, w) in result.assignments.windows(2).enumerate() {
            let gap = w[1].start - w[0].end;
            prop_assert!(
                gap + 1e-9 >= policy.backoff_s(k as u32 + 1),
                "retry {} started {}s after failure; backoff demands {}s",
                k + 2, gap, policy.backoff_s(k as u32 + 1)
            );
        }
    }
}
