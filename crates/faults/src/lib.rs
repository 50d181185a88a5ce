//! # a4nn-faults — deterministic fault-injection plans
//!
//! Test support for the A4NN fault-tolerance layer: a [`FaultPlan`] is a
//! seeded, deterministic schedule of faults that every transport
//! (`Direct`, `Bus` and socket) accepts and replays identically, so the
//! chaos suite can assert that the coupling mechanisms survive the same
//! faults with byte-identical surviving-model commons.
//!
//! Fault classes ([`FaultEvent`]):
//!
//! - [`PanicAt`](FaultEvent::PanicAt) — a trainer panics at the start of
//!   a given epoch, for the first `failures` attempts of the model (so a
//!   retry policy with more attempts than `failures` recovers it);
//! - [`StallFor`](FaultEvent::StallFor) — a trainer stalls (real wall
//!   time only; simulated durations are untouched, so results must not
//!   change);
//! - [`EngineDrop`](FaultEvent::EngineDrop) — the prediction engine
//!   crashes for one model from a given epoch on; training degrades to
//!   run-to-completion (standalone semantics) instead of deadlocking;
//! - [`WorkerDrop`](FaultEvent::WorkerDrop) — a remote worker drops its
//!   coordinator connection mid-job (socket mode only); the coordinator
//!   must requeue the job elsewhere with identical results;
//! - [`WorkerStall`](FaultEvent::WorkerStall) — a remote worker mutes
//!   its heartbeats past the coordinator's deadline (socket mode only).
//!
//! Plans are plain data (no clocks, no globals): injection sites query
//! the plan with `(model, epoch, attempt)` and the plan answers purely,
//! which is what makes a fault schedule replayable across orchestration
//! modes and across reruns.

#![warn(clippy::redundant_clone)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// The trainer of `model` panics when it reaches `epoch`, on every
    /// attempt up to and including `failures` (1-based attempts).
    PanicAt {
        /// Model id the fault targets.
        model: u64,
        /// 1-based epoch at which the panic fires (before training it).
        epoch: u32,
        /// Number of leading attempts that fail; attempt `failures + 1`
        /// proceeds normally.
        failures: u32,
    },
    /// The trainer of `model` sleeps `millis` of real time before
    /// training `epoch`. Wall-clock noise only — simulated durations and
    /// therefore all recorded results are unaffected.
    StallFor {
        /// Model id the fault targets.
        model: u64,
        /// 1-based epoch before which the stall happens.
        epoch: u32,
        /// Stall length in milliseconds.
        millis: u64,
    },
    /// The prediction engine crashes for `model` at `epoch`: from that
    /// epoch on the model trains without an engine (no predictions, no
    /// early termination), with engine stats frozen at the crash point.
    EngineDrop {
        /// Model id the fault targets.
        model: u64,
        /// 1-based epoch from which the engine is gone.
        epoch: u32,
    },
    /// The worker process training `model` drops its coordinator
    /// connection when training reaches `epoch`, for the first `drops`
    /// *dispatch* attempts of the job (1-based). The coordinator must
    /// requeue the job onto another worker; in-process transports have
    /// no connection to drop and ignore it, so results are identical.
    WorkerDrop {
        /// Model id whose job triggers the drop.
        model: u64,
        /// 1-based epoch at which the connection drops.
        epoch: u32,
        /// Number of leading dispatch attempts that drop; dispatch
        /// attempt `drops + 1` trains through normally.
        drops: u32,
    },
    /// The worker process training `model` mutes its heartbeats for
    /// `millis` of real time when training reaches `epoch`, so a
    /// coordinator with a shorter heartbeat deadline declares it dead.
    /// Simulated durations are untouched; in-process transports have no
    /// heartbeats and ignore it.
    WorkerStall {
        /// Model id whose job triggers the stall.
        model: u64,
        /// 1-based epoch at which the heartbeat goes quiet.
        epoch: u32,
        /// Real milliseconds the worker stays silent.
        millis: u64,
    },
}

/// A deterministic schedule of faults for one workflow run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Parameters for [`FaultPlan::seeded`]: which fault classes to draw and
/// how aggressively.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Model-id range the plan may target (`0..models`).
    pub models: u64,
    /// Highest epoch a fault may be scheduled at (inclusive, ≥ 1).
    pub max_epoch: u32,
    /// Probability that a model gets a `PanicAt` fault.
    pub panic_rate: f64,
    /// Leading failures per `PanicAt` are drawn from `1..=max_failures`.
    pub max_failures: u32,
    /// Probability that a model gets a `StallFor` fault.
    pub stall_rate: f64,
    /// Probability that a model gets an `EngineDrop` fault.
    pub engine_drop_rate: f64,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            models: 16,
            max_epoch: 8,
            panic_rate: 0.25,
            max_failures: 2,
            stall_rate: 0.15,
            engine_drop_rate: 0.1,
        }
    }
}

impl FaultPlan {
    /// The empty plan: no faults, byte-identical happy-path behaviour.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan from an explicit fault list.
    pub fn new(events: Vec<FaultEvent>) -> Self {
        FaultPlan { events }
    }

    /// Whether the plan schedules no faults at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled faults.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Draw a random plan from `spec`, deterministically per `seed`.
    pub fn seeded(seed: u64, spec: &ChaosSpec) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut events = Vec::new();
        let max_epoch = spec.max_epoch.max(1);
        for model in 0..spec.models {
            if spec.panic_rate > 0.0 && rng.gen_bool(spec.panic_rate) {
                events.push(FaultEvent::PanicAt {
                    model,
                    epoch: rng.gen_range(1..=max_epoch),
                    failures: rng.gen_range(1..=spec.max_failures.max(1)),
                });
            }
            if spec.stall_rate > 0.0 && rng.gen_bool(spec.stall_rate) {
                events.push(FaultEvent::StallFor {
                    model,
                    epoch: rng.gen_range(1..=max_epoch),
                    millis: rng.gen_range(1..=5u64),
                });
            }
            if spec.engine_drop_rate > 0.0 && rng.gen_bool(spec.engine_drop_rate) {
                events.push(FaultEvent::EngineDrop {
                    model,
                    epoch: rng.gen_range(1..=max_epoch),
                });
            }
        }
        FaultPlan { events }
    }

    /// Should `model`'s `attempt` (1-based) panic at the start of
    /// `epoch`?
    pub fn panic_due(&self, model: u64, epoch: u32, attempt: u32) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::PanicAt { model: m, epoch: ep, failures }
                if *m == model && *ep == epoch && attempt <= *failures)
        })
    }

    /// Total scheduled stall before `model`'s `epoch`, in milliseconds.
    pub fn stall_millis(&self, model: u64, epoch: u32) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::StallFor {
                    model: m,
                    epoch: ep,
                    millis,
                } if *m == model && *ep == epoch => Some(*millis),
                _ => None,
            })
            .sum()
    }

    /// Whether the engine is (injected-)crashed for `model` at `epoch`.
    pub fn engine_dropped(&self, model: u64, epoch: u32) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::EngineDrop { model: m, epoch: ep }
                if *m == model && epoch >= *ep)
        })
    }

    /// Highest attempt the plan can fail for any single `(model, epoch)`
    /// site — a retry policy needs strictly more attempts than this to
    /// guarantee every model survives.
    pub fn max_failures(&self) -> u32 {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::PanicAt { failures, .. } => Some(*failures),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Should the worker drop its coordinator connection when `model`'s
    /// job (on dispatch `attempt`, 1-based) reaches `epoch`?
    pub fn worker_drop_due(&self, model: u64, epoch: u32, attempt: u32) -> bool {
        self.events.iter().any(|e| {
            matches!(e, FaultEvent::WorkerDrop { model: m, epoch: ep, drops }
                if *m == model && *ep == epoch && attempt <= *drops)
        })
    }

    /// Total scheduled heartbeat silence when `model` reaches `epoch`,
    /// in real milliseconds.
    pub fn worker_stall_millis(&self, model: u64, epoch: u32) -> u64 {
        self.events
            .iter()
            .filter_map(|e| match e {
                FaultEvent::WorkerStall {
                    model: m,
                    epoch: ep,
                    millis,
                } if *m == model && *ep == epoch => Some(*millis),
                _ => None,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::none();
        assert!(p.is_empty());
        assert!(!p.panic_due(0, 1, 1));
        assert_eq!(p.stall_millis(0, 1), 0);
        assert!(!p.engine_dropped(0, 25));
        assert_eq!(p.max_failures(), 0);
    }

    #[test]
    fn panic_gates_on_attempt_count() {
        let p = FaultPlan::new(vec![FaultEvent::PanicAt {
            model: 3,
            epoch: 5,
            failures: 2,
        }]);
        assert!(p.panic_due(3, 5, 1));
        assert!(p.panic_due(3, 5, 2));
        assert!(!p.panic_due(3, 5, 3));
        assert!(!p.panic_due(3, 4, 1));
        assert!(!p.panic_due(2, 5, 1));
        assert_eq!(p.max_failures(), 2);
    }

    #[test]
    fn engine_drop_is_sticky_from_its_epoch() {
        let p = FaultPlan::new(vec![FaultEvent::EngineDrop { model: 1, epoch: 4 }]);
        assert!(!p.engine_dropped(1, 3));
        assert!(p.engine_dropped(1, 4));
        assert!(p.engine_dropped(1, 25));
        assert!(!p.engine_dropped(2, 4));
    }

    #[test]
    fn stalls_sum_per_site() {
        let p = FaultPlan::new(vec![
            FaultEvent::StallFor {
                model: 0,
                epoch: 2,
                millis: 3,
            },
            FaultEvent::StallFor {
                model: 0,
                epoch: 2,
                millis: 4,
            },
        ]);
        assert_eq!(p.stall_millis(0, 2), 7);
        assert_eq!(p.stall_millis(0, 3), 0);
    }

    #[test]
    fn seeded_plans_are_deterministic_and_seed_sensitive() {
        let spec = ChaosSpec::default();
        let a = FaultPlan::seeded(2023, &spec);
        let b = FaultPlan::seeded(2023, &spec);
        let c = FaultPlan::seeded(7, &spec);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(!a.is_empty());
    }

    #[test]
    fn seeded_plans_respect_the_spec_bounds() {
        let spec = ChaosSpec {
            models: 32,
            max_epoch: 6,
            max_failures: 3,
            ..ChaosSpec::default()
        };
        let p = FaultPlan::seeded(11, &spec);
        for e in p.events() {
            match e {
                FaultEvent::PanicAt {
                    model,
                    epoch,
                    failures,
                } => {
                    assert!(*model < 32);
                    assert!((1..=6).contains(epoch));
                    assert!((1..=3).contains(failures));
                }
                FaultEvent::StallFor { model, epoch, .. }
                | FaultEvent::EngineDrop { model, epoch } => {
                    assert!(*model < 32);
                    assert!((1..=6).contains(epoch));
                }
                FaultEvent::WorkerDrop { .. } | FaultEvent::WorkerStall { .. } => {
                    panic!("seeded plans never schedule worker-side faults")
                }
            }
        }
    }

    #[test]
    fn worker_drop_gates_on_dispatch_attempt() {
        let p = FaultPlan::new(vec![FaultEvent::WorkerDrop {
            model: 4,
            epoch: 3,
            drops: 2,
        }]);
        assert!(p.worker_drop_due(4, 3, 1));
        assert!(p.worker_drop_due(4, 3, 2));
        assert!(!p.worker_drop_due(4, 3, 3));
        assert!(!p.worker_drop_due(4, 2, 1));
        assert!(!p.worker_drop_due(5, 3, 1));
        // Worker faults are invisible to the in-process injection sites.
        assert!(!p.panic_due(4, 3, 1));
        assert_eq!(p.stall_millis(4, 3), 0);
        assert_eq!(p.max_failures(), 0);
    }

    #[test]
    fn worker_stalls_sum_per_site() {
        let p = FaultPlan::new(vec![
            FaultEvent::WorkerStall {
                model: 1,
                epoch: 2,
                millis: 40,
            },
            FaultEvent::WorkerStall {
                model: 1,
                epoch: 2,
                millis: 60,
            },
        ]);
        assert_eq!(p.worker_stall_millis(1, 2), 100);
        assert_eq!(p.worker_stall_millis(1, 3), 0);
    }

    #[test]
    fn plans_roundtrip_through_json() {
        let p = FaultPlan::seeded(5, &ChaosSpec::default());
        let json = serde_json::to_string(&p).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}
