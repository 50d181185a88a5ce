//! Discrete-event simulation of a multi-GPU cluster under FIFO dynamic
//! scheduling with generation barriers.

use crate::retry::RetryPolicy;
use serde::{Deserialize, Serialize};

/// One unit of schedulable work — training one network to (possibly
/// early) termination — whose attempts may fail: attempt `k` (1-based)
/// runs for `attempt_durations[k-1]` simulated seconds; every attempt
/// before the last is a failure that occupies its GPU for the full
/// duration and is then requeued after the policy's backoff (in
/// simulated time). Whether the final attempt succeeds is the caller's
/// business — the simulator only replays the durations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Caller-assigned id (the model id in A4NN).
    pub id: u64,
    /// Duration of each attempt, in order. Must be non-empty.
    pub attempt_durations: Vec<f64>,
}

impl Task {
    /// A task that runs once, for `duration` seconds.
    pub fn once(id: u64, duration: f64) -> Self {
        Task {
            id,
            attempt_durations: vec![duration],
        }
    }
}

/// How tasks are ordered before list scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskOrdering {
    /// Submission order — Ray's FIFO dynamic scheduling, the paper's
    /// policy.
    Fifo,
    /// Longest processing time first — the classic makespan heuristic,
    /// provided as a scheduler ablation.
    Lpt,
}

/// Placement of one task on the simulated cluster.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// The task's id.
    pub task_id: u64,
    /// GPU index it ran on.
    pub gpu: usize,
    /// Start time (seconds since schedule origin).
    pub start: f64,
    /// End time.
    pub end: f64,
}

/// Outcome of scheduling one batch (generation) of tasks.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScheduleResult {
    /// Number of GPUs simulated.
    pub n_gpus: usize,
    /// Per-task placements, in completion-agnostic submission order.
    pub assignments: Vec<Assignment>,
    /// Time at which the last task finishes.
    pub makespan: f64,
    /// Per-GPU total busy seconds.
    pub gpu_busy: Vec<f64>,
}

impl ScheduleResult {
    /// Mean GPU utilization over the makespan (1.0 = fully busy).
    pub fn utilization(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.gpu_busy.iter().sum::<f64>() / (self.makespan * self.n_gpus as f64)
    }

    /// Total idle GPU-seconds accumulated before the barrier (the
    /// "downtime at the end of each generation's evaluation" of §2.5).
    pub fn idle_tail(&self) -> f64 {
        self.gpu_busy
            .iter()
            .map(|&b| (self.makespan - b).max(0.0))
            .sum()
    }
}

/// Schedule one generation of `tasks` on `n_gpus` GPUs.
///
/// List scheduling with requeue-on-failure: the ready queue starts in
/// `ordering` — submission order for FIFO, a stable sort by total
/// duration, longest first, for LPT — and is drained in order by
/// whichever GPU frees up first (lowest index on ties, matching a single
/// ready queue drained by idle workers). A failed attempt goes to the
/// back of the queue, eligible again `policy.backoff_s(attempt)`
/// simulated seconds after it failed. The returned [`ScheduleResult`]
/// carries one [`Assignment`] per *attempt* (a task's final attempt is
/// its last assignment), and `gpu_busy` includes the GPU time wasted on
/// failed attempts.
pub fn schedule(
    n_gpus: usize,
    tasks: &[Task],
    ordering: TaskOrdering,
    policy: &RetryPolicy,
) -> ScheduleResult {
    assert!(n_gpus > 0, "need at least one GPU");
    struct Ready {
        task: usize,
        attempt: u32,
        not_before: f64,
    }
    let mut queue: std::collections::VecDeque<Ready> = tasks
        .iter()
        .enumerate()
        .map(|(task, t)| {
            assert!(
                !t.attempt_durations.is_empty(),
                "task {} has no attempts",
                t.id
            );
            assert!(
                t.attempt_durations.iter().all(|&d| d >= 0.0),
                "negative duration for task {}",
                t.id
            );
            Ready {
                task,
                attempt: 1,
                not_before: 0.0,
            }
        })
        .collect();
    if ordering == TaskOrdering::Lpt {
        // A stable sort: equal total durations keep submission order.
        let total = |r: &Ready| tasks[r.task].attempt_durations.iter().sum::<f64>();
        queue
            .make_contiguous()
            .sort_by(|a, b| total(b).total_cmp(&total(a)));
    }
    let mut free_at = vec![0.0f64; n_gpus];
    let mut busy = vec![0.0f64; n_gpus];
    let total_attempts: usize = tasks.iter().map(|t| t.attempt_durations.len()).sum();
    let mut assignments = Vec::with_capacity(total_attempts);
    while !queue.is_empty() {
        // Earliest-free GPU, lowest index on ties (`n_gpus > 0` is
        // asserted above, so the minimum exists).
        let gpu = (0..n_gpus)
            .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]).then(a.cmp(&b)))
            .unwrap_or(0);
        let now = free_at[gpu];
        // FIFO among eligible entries; if none is eligible yet, the GPU
        // idles until the earliest backoff expires. The queue is
        // non-empty (loop condition), so a fallback of 0 is never taken.
        let pos = match queue.iter().position(|r| r.not_before <= now) {
            Some(pos) => pos,
            None => queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.not_before.total_cmp(&b.not_before))
                .map(|(pos, _)| pos)
                .unwrap_or(0),
        };
        let Some(ready) = queue.remove(pos) else {
            unreachable!("position from iter::position/min_by is in bounds")
        };
        let task = &tasks[ready.task];
        let duration = task.attempt_durations[(ready.attempt - 1) as usize];
        let start = now.max(ready.not_before);
        let end = start + duration;
        free_at[gpu] = end;
        busy[gpu] += duration;
        assignments.push(Assignment {
            task_id: task.id,
            gpu,
            start,
            end,
        });
        if (ready.attempt as usize) < task.attempt_durations.len() {
            queue.push_back(Ready {
                task: ready.task,
                attempt: ready.attempt + 1,
                not_before: end + policy.backoff_s(ready.attempt).max(0.0),
            });
        }
    }
    let makespan = assignments.iter().map(|a| a.end).fold(0.0, f64::max);
    ScheduleResult {
        n_gpus,
        assignments,
        makespan,
        gpu_busy: busy,
    }
}

/// Outcome of scheduling a full NAS run: one [`ScheduleResult`] per
/// generation with barriers between them.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GenerationSchedule {
    /// Per-generation results (times are generation-local).
    pub generations: Vec<ScheduleResult>,
}

impl GenerationSchedule {
    /// Total wall time: sum of generation makespans (barriers are strict).
    pub fn total_wall_time(&self) -> f64 {
        self.generations.iter().map(|g| g.makespan).sum()
    }

    /// Total busy GPU-seconds across the run.
    pub fn total_busy(&self) -> f64 {
        self.generations
            .iter()
            .map(|g| g.gpu_busy.iter().sum::<f64>())
            .sum()
    }

    /// Total idle-tail GPU-seconds across generations.
    pub fn total_idle_tail(&self) -> f64 {
        self.generations.iter().map(ScheduleResult::idle_tail).sum()
    }

    /// Mean utilization across the run.
    pub fn utilization(&self) -> f64 {
        let denom: f64 = self
            .generations
            .iter()
            .map(|g| g.makespan * g.n_gpus as f64)
            .sum();
        if denom <= 0.0 {
            0.0
        } else {
            self.total_busy() / denom
        }
    }
}

/// [`schedule`] a sequence of generations with barriers between them;
/// failed attempts requeue after [`RetryPolicy::default`]'s backoff.
pub fn schedule_generations(
    n_gpus: usize,
    generations: &[Vec<Task>],
    ordering: TaskOrdering,
) -> GenerationSchedule {
    GenerationSchedule {
        generations: generations
            .iter()
            .map(|tasks| schedule(n_gpus, tasks, ordering, &RetryPolicy::default()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tasks(durations: &[f64]) -> Vec<Task> {
        durations
            .iter()
            .enumerate()
            .map(|(i, &d)| Task::once(i as u64, d))
            .collect()
    }

    fn fifo(n_gpus: usize, tasks: &[Task]) -> ScheduleResult {
        schedule(n_gpus, tasks, TaskOrdering::Fifo, &RetryPolicy::default())
    }

    #[test]
    fn single_gpu_serializes_tasks() {
        let r = fifo(1, &tasks(&[3.0, 2.0, 5.0]));
        assert_eq!(r.makespan, 10.0);
        assert!((r.utilization() - 1.0).abs() < 1e-12);
        assert_eq!(r.assignments[1].start, 3.0);
        assert_eq!(r.assignments[2].end, 10.0);
    }

    #[test]
    fn fifo_takes_earliest_free_gpu() {
        // GPUs: g0 gets 4.0, g1 gets 1.0; third task should land on g1 at t=1.
        let r = fifo(2, &tasks(&[4.0, 1.0, 2.0]));
        let third = r.assignments[2];
        assert_eq!(third.gpu, 1);
        assert_eq!(third.start, 1.0);
        assert_eq!(r.makespan, 4.0);
    }

    #[test]
    fn no_gpu_runs_two_tasks_at_once() {
        let r = fifo(3, &tasks(&[2.0, 3.0, 1.0, 4.0, 2.5, 0.5, 3.5]));
        for a in &r.assignments {
            for b in &r.assignments {
                if a.task_id != b.task_id && a.gpu == b.gpu {
                    assert!(
                        a.end <= b.start || b.end <= a.start,
                        "overlap on gpu {}: {a:?} vs {b:?}",
                        a.gpu
                    );
                }
            }
        }
    }

    #[test]
    fn every_task_is_assigned_exactly_once() {
        let t = tasks(&[1.0; 17]);
        let r = fifo(4, &t);
        let mut ids: Vec<u64> = r.assignments.iter().map(|a| a.task_id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..17).collect::<Vec<u64>>());
    }

    #[test]
    fn equal_tasks_scale_nearly_linearly() {
        let t = tasks(&[5.0; 100]);
        let one = fifo(1, &t);
        let four = fifo(4, &t);
        assert_eq!(one.makespan, 500.0);
        assert_eq!(four.makespan, 125.0);
    }

    #[test]
    fn idle_tail_appears_when_generation_not_divisible() {
        // 5 equal tasks on 4 GPUs: one GPU does 2, three do 1 then idle.
        let r = fifo(4, &tasks(&[10.0; 5]));
        assert_eq!(r.makespan, 20.0);
        assert_eq!(r.idle_tail(), 30.0); // 3 GPUs idle for 10s each
        assert!(r.utilization() < 0.7);
    }

    #[test]
    fn lpt_beats_fifo_on_a_tail_heavy_instance() {
        // LPT is not universally better per instance, but on tail-heavy
        // submission orders (big jobs last) it wins clearly.
        let t = tasks(&[1.0, 1.0, 1.0, 2.0, 3.0, 7.0, 8.0, 9.0]);
        let fifo = fifo(3, &t);
        let lpt = schedule(3, &t, TaskOrdering::Lpt, &RetryPolicy::default());
        assert!(lpt.makespan < fifo.makespan);
    }

    #[test]
    fn lpt_starts_longest_first_and_keeps_ties_in_submission_order() {
        let r = schedule(
            1,
            &tasks(&[1.0, 3.0, 2.0, 3.0]),
            TaskOrdering::Lpt,
            &RetryPolicy::default(),
        );
        let order: Vec<u64> = r.assignments.iter().map(|a| a.task_id).collect();
        assert_eq!(order, [1, 3, 2, 0]);
    }

    #[test]
    fn generations_are_barriers() {
        let gens = vec![tasks(&[4.0, 1.0]), tasks(&[2.0, 2.0])];
        let sched = schedule_generations(2, &gens, TaskOrdering::Fifo);
        // gen0 makespan 4, gen1 makespan 2 ⇒ 6 total even though gen1
        // could have started on the free GPU at t=1.
        assert_eq!(sched.total_wall_time(), 6.0);
        assert_eq!(sched.total_busy(), 9.0);
        assert!(sched.total_idle_tail() > 0.0);
        assert!(sched.utilization() < 1.0);
    }

    #[test]
    fn empty_generation_contributes_nothing() {
        let sched = schedule_generations(2, &[vec![], tasks(&[1.0])], TaskOrdering::Fifo);
        assert_eq!(sched.total_wall_time(), 1.0);
    }

    #[test]
    fn zero_duration_tasks_are_legal() {
        let r = fifo(2, &tasks(&[0.0, 0.0, 1.0]));
        assert_eq!(r.makespan, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least one GPU")]
    fn zero_gpus_panics() {
        let _ = fifo(0, &tasks(&[1.0]));
    }

    #[test]
    fn failed_attempts_occupy_the_gpu_and_requeue_after_backoff() {
        // One task, first attempt fails after 2 s, retry takes 3 s; the
        // backoff between the attempts keeps the GPU idle.
        let t = vec![Task {
            id: 7,
            attempt_durations: vec![2.0, 3.0],
        }];
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff_base_s: 1.5,
            backoff_factor: 2.0,
        };
        let r = schedule(1, &t, TaskOrdering::Fifo, &policy);
        assert_eq!(r.assignments.len(), 2);
        assert_eq!(r.assignments[0].end, 2.0);
        // Retry eligible at 2.0 + 1.5.
        assert_eq!(r.assignments[1].start, 3.5);
        assert_eq!(r.makespan, 6.5);
        assert_eq!(r.gpu_busy[0], 5.0);
    }

    #[test]
    fn other_tasks_fill_in_during_a_backoff() {
        // Task 0 fails fast; task 1 runs while task 0 backs off.
        let t = vec![
            Task {
                id: 0,
                attempt_durations: vec![1.0, 1.0],
            },
            Task {
                id: 1,
                attempt_durations: vec![4.0],
            },
        ];
        let policy = RetryPolicy {
            max_attempts: 2,
            backoff_base_s: 0.5,
            backoff_factor: 2.0,
        };
        let r = schedule(1, &t, TaskOrdering::Fifo, &policy);
        // Dispatch order: task 0 attempt 1, task 1, task 0 attempt 2.
        assert_eq!(r.assignments[1].task_id, 1);
        assert_eq!(r.assignments[1].start, 1.0);
        assert_eq!(r.assignments[2].task_id, 0);
        assert_eq!(r.assignments[2].start, 5.0);
    }

    #[test]
    fn final_attempt_is_last_assignment_per_task() {
        let t = vec![
            Task {
                id: 0,
                attempt_durations: vec![2.0, 2.0, 2.0],
            },
            Task {
                id: 1,
                attempt_durations: vec![3.0],
            },
        ];
        let r = fifo(2, &t);
        let finals: Vec<&Assignment> = t
            .iter()
            .map(|task| {
                r.assignments
                    .iter()
                    .rev()
                    .find(|a| a.task_id == task.id)
                    .unwrap()
            })
            .collect();
        // Attempts of a task never overlap and the final one ends last.
        for (task, fin) in t.iter().zip(&finals) {
            for a in r.assignments.iter().filter(|a| a.task_id == task.id) {
                assert!(a.end <= fin.end);
            }
        }
        assert_eq!(r.assignments.len(), 4);
    }

    #[test]
    fn retry_busy_time_includes_wasted_attempts() {
        let t = vec![Task {
            id: 0,
            attempt_durations: vec![5.0, 5.0],
        }];
        let r = fifo(2, &t);
        assert_eq!(r.gpu_busy.iter().sum::<f64>(), 10.0);
    }
}
