//! The analyzer: query and aggregation over a data commons.
//!
//! Rust analogue of the paper's Jupyter-notebook analyzer (§2.4): search
//! for NNs with specific attributes (filter [`DataCommons::records`]),
//! study fitness-curve shapes, extract Pareto-optimal models, and answer
//! the conclusions' questions ("Is there a significant correlation
//! between high FLOPS and high validation accuracy?").
//!
//! A failed training's NaN fitness is left out of the fitness mean and
//! correlation, as its NaN objectives are left off the front: it would
//! only turn them into NaN.

use crate::commons::DataCommons;
use crate::record::ModelRecord;
use a4nn_error::A4nnError;
use a4nn_nsga::{Dominance, Objectives};

impl DataCommons {
    /// The records whose training produced a fitness.
    pub(crate) fn scored(&self) -> impl Iterator<Item = &ModelRecord> {
        self.records.iter().filter(|r| !r.final_fitness.is_nan())
    }

    /// Mean final fitness across the commons; 0 when no record has one.
    pub fn mean_fitness(&self) -> f64 {
        mean(self.scored().map(|r| r.final_fitness)).unwrap_or(0.0)
    }

    /// Total epochs trained across all models (Figure 7's bar heights).
    pub fn total_epochs(&self) -> u64 {
        self.records
            .iter()
            .map(|r| u64::from(r.epochs_trained()))
            .sum()
    }

    /// Total training wall time across all models (GPU-seconds).
    pub fn total_wall_time(&self) -> f64 {
        self.records.iter().map(|r| r.wall_time_s).sum()
    }

    /// Fraction of models whose training was terminated early
    /// (Figure 8's legend percentages), in `[0, 1]`.
    pub fn early_termination_rate(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.records.iter().filter(|r| r.terminated_early()).count() as f64 / self.len() as f64
    }

    /// Termination epochs `e_t` of early-terminated models (Figure 8's
    /// distribution).
    pub fn termination_epochs(&self) -> Vec<u32> {
        self.records
            .iter()
            .filter_map(ModelRecord::termination_epoch)
            .collect()
    }

    /// Mean termination epoch of early-terminated models, if any.
    pub fn mean_termination_epoch(&self) -> Option<f64> {
        mean(self.termination_epochs().into_iter().map(f64::from))
    }

    /// Pareto-optimal records over each record's *full* objective vector
    /// (N-dimensional): the models plotted in Figure 6. Legacy records
    /// report the reconstructed `(−final_fitness, flops)` pair, so on
    /// pre-registry commons this is the maximized-fitness,
    /// minimized-FLOPs front.
    ///
    /// A record with a NaN objective (a failed training) is on no front.
    /// Dropping it cannot change which other records are: NaN ranks worst
    /// in its coordinate, so it never dominates a finite vector.
    ///
    /// A commons mixing objective dimensions (e.g. merged from runs with
    /// different `--objectives` sets) is a foreign-data condition and
    /// returns a typed [`A4nnError::Config`] instead of panicking inside
    /// the dominance comparison.
    pub fn pareto_front(&self) -> Result<Vec<&ModelRecord>, A4nnError> {
        let rs = &self.records;
        let vectors: Vec<Objectives> = rs
            .iter()
            .map(|r| Objectives::new(r.objective_vector()))
            .collect();
        if let Some(first) = vectors.first() {
            let dim = first.len();
            if let Some((i, bad)) = vectors.iter().enumerate().find(|(_, v)| v.len() != dim) {
                return Err(A4nnError::Config(format!(
                    "commons mixes objective dimensions: model {} has {} objectives, model {} has {}",
                    rs[0].model_id,
                    dim,
                    rs[i].model_id,
                    bad.len(),
                )));
            }
        }
        let ranked: Vec<(&ModelRecord, Objectives)> = rs
            .iter()
            .zip(vectors)
            .filter(|(_, v)| !v.has_nan())
            .collect();
        let mut front = Vec::new();
        for (i, (record, a)) in ranked.iter().enumerate() {
            let mut dominated = false;
            for (j, (_, b)) in ranked.iter().enumerate() {
                if i == j {
                    continue;
                }
                // Dimensions verified uniform above.
                if a.compare(b) == Dominance::DominatedBy {
                    dominated = true;
                    break;
                }
            }
            if !dominated {
                front.push(*record);
            }
        }
        Ok(front)
    }

    /// The most accurate model. NaN fitness (failed trainings) ranks
    /// strictly worst rather than poisoning the comparison.
    pub fn best_by_fitness(&self) -> Option<&ModelRecord> {
        self.records
            .iter()
            .max_by(|a, b| crate::record::fitness_cmp(a.final_fitness, b.final_fitness))
    }

    /// Pearson correlation between FLOPs and final fitness — the
    /// conclusions' open question about high-FLOPs/high-accuracy
    /// correlation — over the records with a fitness. Returns `None` for
    /// degenerate inputs.
    pub fn flops_fitness_correlation(&self) -> Option<f64> {
        let (flops, fitness): (Vec<f64>, Vec<f64>) =
            self.scored().map(|r| (r.flops, r.final_fitness)).unzip();
        crate::structure::pearson(&flops, &fitness)
    }

    /// Mean [stop gap](ModelRecord::stop_gap) over early-terminated models.
    pub fn mean_stop_gap(&self) -> Option<f64> {
        mean(self.records.iter().filter_map(ModelRecord::stop_gap))
    }
}

/// The mean of `xs`, or `None` when there are none.
fn mean(xs: impl Iterator<Item = f64>) -> Option<f64> {
    let mut n = 0usize;
    let sum: f64 = xs.inspect(|_| n += 1).sum();
    (n > 0).then(|| sum / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EngineParamsRecord, EpochRecord};
    use a4nn_genome::Genome;

    fn record(id: u64, fitness: f64, flops: f64, early: Option<u32>) -> ModelRecord {
        let epochs_trained = early.unwrap_or(25);
        ModelRecord {
            model_id: id,
            generation: 0,
            gpu: None,
            genome: Genome::from_compact_string("0000000").unwrap(),
            arch_summary: String::new(),
            flops,
            objective_names: Vec::new(),
            objective_values: Vec::new(),
            engine: Some(EngineParamsRecord {
                function: "exp-base".into(),
                c_min: 3,
                e_pred: 25,
                n: 3,
                r: 0.5,
            }),
            epochs: (1..=epochs_trained)
                .map(|e| EpochRecord {
                    epoch: e,
                    train_acc: fitness,
                    val_acc: fitness - 1.0,
                    duration_s: 2.0,
                    prediction: None,
                })
                .collect(),
            final_fitness: fitness,
            predicted_fitness: early.map(|_| fitness),
            termination: if early.is_some() {
                crate::record::Terminated::Early
            } else {
                crate::record::Terminated::Completed
            },
            attempts: 1,
            beam: "low".into(),
            wall_time_s: 2.0 * f64::from(epochs_trained),
        }
    }

    fn commons() -> DataCommons {
        DataCommons::new(vec![
            record(0, 90.0, 400.0, Some(10)),
            record(1, 95.0, 600.0, Some(14)),
            record(2, 85.0, 300.0, None),
            record(3, 99.0, 900.0, Some(8)),
            record(4, 80.0, 800.0, None),
        ])
    }

    #[test]
    fn totals_and_means() {
        let c = commons();
        assert_eq!(c.total_epochs(), 10 + 14 + 25 + 8 + 25);
        assert!((c.mean_fitness() - 89.8).abs() < 1e-9);
        assert!((c.total_wall_time() - 2.0 * 82.0).abs() < 1e-9);
    }

    #[test]
    fn termination_statistics() {
        let c = commons();
        assert!((c.early_termination_rate() - 0.6).abs() < 1e-12);
        let mut es = c.termination_epochs();
        es.sort_unstable();
        assert_eq!(es, vec![8, 10, 14]);
        assert!((c.mean_termination_epoch().unwrap() - 32.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn pareto_front_max_fitness_min_flops() {
        let c = commons();
        let ids: Vec<u64> = c
            .pareto_front()
            .unwrap()
            .iter()
            .map(|r| r.model_id)
            .collect();
        // (85,300) (90,400) (95,600) (99,900) are non-dominated;
        // (80,800) is dominated by (95,600).
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn objective_front_agrees_with_legacy_front_on_untagged_records() {
        let c = commons();
        // The ids the maximized-fitness, minimized-FLOPs front picks.
        let legacy: Vec<u64> = vec![0, 1, 2, 3];
        let nd: Vec<u64> = c
            .pareto_front()
            .unwrap()
            .iter()
            .map(|r| r.model_id)
            .collect();
        assert_eq!(legacy, nd);
    }

    #[test]
    fn nan_fitness_record_is_never_on_the_front() {
        // The failed training has the lowest FLOPs in the commons, so
        // ranking its NaN fitness worst would still leave it undominated.
        let mut records = commons().records;
        records.push(record(5, f64::NAN, 100.0, None));
        let c = DataCommons::new(records);
        let ids: Vec<u64> = c
            .pareto_front()
            .unwrap()
            .iter()
            .map(|r| r.model_id)
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
    }

    #[test]
    fn nan_fitness_record_is_in_no_mean_or_correlation() {
        let mut records = commons().records;
        records.push(record(5, f64::NAN, 100.0, None));
        let c = DataCommons::new(records);
        assert!((c.mean_fitness() - 89.8).abs() < 1e-9);
        assert_eq!(
            c.flops_fitness_correlation(),
            commons().flops_fitness_correlation()
        );
    }

    #[test]
    fn objective_front_uses_the_full_vector() {
        // Two records with identical (fitness, flops) but differing
        // peak-workspace: the 3-objective front keeps only the smaller.
        let mut a = record(0, 90.0, 400.0, None);
        a.objective_names = vec!["neg_fitness".into(), "flops".into(), "peak_ws_bytes".into()];
        a.objective_values = vec![-90.0, 400.0, 1024.0];
        let mut b = record(1, 90.0, 400.0, None);
        b.objective_names = a.objective_names.clone();
        b.objective_values = vec![-90.0, 400.0, 4096.0];
        let c = DataCommons::new(vec![a, b]);
        let front: Vec<u64> = c
            .pareto_front()
            .unwrap()
            .iter()
            .map(|r| r.model_id)
            .collect();
        assert_eq!(front, vec![0]);
    }

    #[test]
    fn mixed_dimension_commons_is_a_typed_config_error() {
        let mut tagged = record(1, 90.0, 400.0, None);
        tagged.objective_names = vec!["neg_fitness".into(), "flops".into(), "macs".into()];
        tagged.objective_values = vec![-90.0, 400.0, 1e8];
        let c = DataCommons::new(vec![record(0, 85.0, 300.0, None), tagged]);
        let err = c.pareto_front().unwrap_err();
        assert_eq!(err.exit_code(), 3);
        assert!(err.to_string().contains("mixes objective dimensions"));
    }

    #[test]
    fn best_by_fitness() {
        let c = commons();
        assert_eq!(c.best_by_fitness().unwrap().model_id, 3);
    }

    #[test]
    fn correlation_detects_positive_relation() {
        // Fitness mostly grows with FLOPs in the sample (except model 4).
        let c = commons();
        let corr = c.flops_fitness_correlation().unwrap();
        assert!(corr.abs() <= 1.0);
        assert!(corr > 0.0, "expected positive, got {corr}");
    }

    #[test]
    fn empty_commons_degenerates_gracefully() {
        let c = DataCommons::default();
        assert_eq!(c.mean_fitness(), 0.0);
        assert_eq!(c.total_epochs(), 0);
        assert_eq!(c.early_termination_rate(), 0.0);
        assert!(c.mean_termination_epoch().is_none());
        assert!(c.pareto_front().unwrap().is_empty());
        assert!(c.best_by_fitness().is_none());
        assert!(c.flops_fitness_correlation().is_none());
        assert!(c.mean_stop_gap().is_none());
    }

    #[test]
    fn stop_gap_mean() {
        let c = commons();
        // Early records have predicted == final_fitness, measured val_acc
        // = fitness − 1 ⇒ gap 1.0 each.
        assert!((c.mean_stop_gap().unwrap() - 1.0).abs() < 1e-9);
    }
}
