//! Fault-tolerance policy and accounting: retry policies, deterministic
//! fault injection, and failure counters shared by all three transports.
//!
//! A [`FaultTolerance`] bundles the per-job [`RetryPolicy`] with an
//! [`a4nn_faults::FaultPlan`] — a pure, seeded schedule of injected
//! faults. Every transport of [`crate::pipeline::EvalPipeline`] —
//! direct, bus and socket — consults the same plan at the same
//! `(model, epoch, attempt)` sites, so a run under faults is as
//! reproducible as a clean one and the transports keep producing
//! identical record trails. The default value injects
//! nothing and leaves every happy-path byte unchanged.

use a4nn_faults::FaultPlan;
use a4nn_lineage::ModelRecord;
use a4nn_sched::RetryPolicy;

/// How a run tolerates (and, in tests, provokes) failures.
#[derive(Debug, Clone, Default)]
pub struct FaultTolerance {
    /// Attempts per model and the backoff between them.
    pub retry: RetryPolicy,
    /// Deterministic injection schedule; empty means no faults.
    pub plan: FaultPlan,
}

impl FaultTolerance {
    /// Tolerance with the default retry policy and no injected faults —
    /// byte-identical to a run without the fault layer.
    pub fn none() -> Self {
        FaultTolerance::default()
    }

    /// Tolerance from an explicit policy and plan.
    pub fn new(retry: RetryPolicy, plan: FaultPlan) -> Self {
        FaultTolerance { retry, plan }
    }
}

/// Failure accounting for one run, derived from its record trails.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultStats {
    /// Models that exhausted their retry budget (recorded as
    /// `Terminated::Failed`).
    pub models_failed: u64,
    /// Models that needed at least one retry but ultimately completed.
    pub models_recovered: u64,
    /// Total retries consumed across all models.
    pub retries: u64,
}

impl FaultStats {
    /// Derive the counters from a run's record trails.
    pub fn from_records(records: &[ModelRecord]) -> Self {
        let mut stats = FaultStats::default();
        for r in records {
            if r.failed() {
                stats.models_failed += 1;
            } else if r.attempts > 1 {
                stats.models_recovered += 1;
            }
            stats.retries += u64::from(r.attempts.saturating_sub(1));
        }
        stats
    }

    /// Whether the run saw no failures at all.
    pub fn is_quiet(&self) -> bool {
        self.models_failed == 0 && self.retries == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4nn_lineage::Terminated;

    fn record(termination: Terminated, attempts: u32) -> ModelRecord {
        ModelRecord {
            model_id: 0,
            generation: 0,
            gpu: None,
            genome: a4nn_genome::Genome::from_compact_string("1011010-0110101-0000001")
                .expect("valid genome"),
            arch_summary: String::new(),
            flops: 1.0,
            objective_names: Vec::new(),
            objective_values: Vec::new(),
            engine: None,
            epochs: Vec::new(),
            final_fitness: 0.0,
            predicted_fitness: None,
            termination,
            attempts,
            beam: "medium".to_string(),
            wall_time_s: 0.0,
        }
    }

    #[test]
    fn stats_derive_from_records() {
        let records = vec![
            record(Terminated::Completed, 1),
            record(Terminated::Completed, 3),
            record(Terminated::Early, 2),
            record(Terminated::Failed, 3),
        ];
        let stats = FaultStats::from_records(&records);
        assert_eq!(stats.models_failed, 1);
        assert_eq!(stats.models_recovered, 2);
        assert_eq!(stats.retries, 2 + 1 + 2);
        assert!(!stats.is_quiet());
        assert!(FaultStats::from_records(&[record(Terminated::Completed, 1)]).is_quiet());
    }
}
