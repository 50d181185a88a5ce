//! Record-trail types: everything the paper lists as data-commons content
//! (§4.5): "epoch times, training accuracies, validation accuracies,
//! FLOPS, predictions, prediction engine parameters, genomes, and
//! architecture information for each neural architecture."

use a4nn_genome::Genome;
use serde::{Deserialize, Serialize};

/// One training epoch of one model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// 1-based epoch number.
    pub epoch: u32,
    /// Training accuracy (%) after this epoch.
    pub train_acc: f64,
    /// Validation accuracy (%) after this epoch — the fitness the
    /// prediction engine consumes.
    pub val_acc: f64,
    /// Wall/simulated seconds the epoch took.
    pub duration_s: f64,
    /// The engine's fitness prediction made after this epoch, if any.
    pub prediction: Option<f64>,
}

/// Prediction-engine configuration attached to a record trail (Table 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineParamsRecord {
    /// Parametric function name (e.g. `"exp-base"`).
    pub function: String,
    /// Minimum points before predicting.
    pub c_min: usize,
    /// Epoch predicted for.
    pub e_pred: u32,
    /// Convergence window.
    pub n: usize,
    /// Convergence tolerance.
    pub r: f64,
}

/// How a model's training run ended.
///
/// `Completed` and `Early` are the two paper outcomes (trained to the
/// epoch budget, or terminated early by the prediction engine). `Failed`
/// is the fault-tolerance outcome: the trainer exhausted its retry
/// budget, and the trail carries whatever partial epoch history the last
/// attempt produced. NSGA-II sees failed models with fitness 0, so they
/// are dominated and naturally selected out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Terminated {
    /// Trained to the full epoch budget.
    #[default]
    Completed,
    /// Terminated early by the prediction engine.
    Early,
    /// Exhausted its retry budget; the epoch trail is partial.
    Failed,
}

impl Terminated {
    /// Stable lower-case label used in CSV exports.
    pub fn as_str(self) -> &'static str {
        match self {
            Terminated::Completed => "completed",
            Terminated::Early => "early",
            Terminated::Failed => "failed",
        }
    }
}

fn default_attempts() -> u32 {
    1
}

/// Ascending fitness order that ranks NaN (a failed training's fitness)
/// strictly worst — below every real value, including −∞ — instead of
/// panicking like `partial_cmp().unwrap()` or letting `total_cmp` rank a
/// negative NaN above everything. Use wherever records are ordered by
/// `final_fitness`.
pub fn fitness_cmp(a: f64, b: f64) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Less,
        (false, true) => std::cmp::Ordering::Greater,
        (false, false) => a.total_cmp(&b),
    }
}

/// The complete record trail of one neural architecture's life in the
/// search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRecord {
    /// Globally unique model id within the run.
    pub model_id: u64,
    /// Generation that produced the model.
    pub generation: usize,
    /// Virtual GPU the model trained on, when known.
    pub gpu: Option<usize>,
    /// The genome.
    pub genome: Genome,
    /// Human-readable architecture summary.
    pub arch_summary: String,
    /// Estimated forward FLOPs (the NAS's second objective).
    pub flops: f64,
    /// Names of the objective set the run searched under, in objective
    /// order. Empty on records written before the objective registry;
    /// consumers fall back to the legacy `(neg_fitness, flops)` pair
    /// via [`objective_labels`](Self::objective_labels).
    #[serde(default)]
    pub objective_names: Vec<String>,
    /// The minimized objective values, aligned with `objective_names`.
    #[serde(default)]
    pub objective_values: Vec<f64>,
    /// Engine configuration, absent for standalone-NAS runs.
    pub engine: Option<EngineParamsRecord>,
    /// Per-epoch entries, in order.
    pub epochs: Vec<EpochRecord>,
    /// Fitness the NAS used for selection (measured or predicted).
    pub final_fitness: f64,
    /// The engine's converged prediction, if training stopped early.
    pub predicted_fitness: Option<f64>,
    /// How the training run ended. Defaults to `Completed` when absent
    /// so record trails serialized before the fault-tolerance layer
    /// still deserialize.
    #[serde(default)]
    pub termination: Terminated,
    /// Training attempts consumed (1 = no retries).
    #[serde(default = "default_attempts")]
    pub attempts: u32,
    /// Beam-intensity label of the dataset (`"low"`, `"medium"`, `"high"`).
    pub beam: String,
    /// Total seconds spent training this model.
    pub wall_time_s: f64,
}

impl ModelRecord {
    /// Number of epochs actually trained.
    pub fn epochs_trained(&self) -> u32 {
        self.epochs.len() as u32
    }

    /// Whether the engine terminated training early.
    pub fn terminated_early(&self) -> bool {
        self.termination == Terminated::Early
    }

    /// Whether the model exhausted its retry budget.
    pub fn failed(&self) -> bool {
        self.termination == Terminated::Failed
    }

    /// Termination epoch `e_t` if the engine stopped training early.
    pub fn termination_epoch(&self) -> Option<u32> {
        if self.terminated_early() {
            self.epochs.last().map(|e| e.epoch)
        } else {
            None
        }
    }

    /// The measured validation-accuracy learning curve.
    pub fn learning_curve(&self) -> Vec<(u32, f64)> {
        self.epochs.iter().map(|e| (e.epoch, e.val_acc)).collect()
    }

    /// The stop gap |predicted − `val_acc` at the stop epoch|, when a
    /// prediction exists: the distance from the last value seen, not the
    /// error against the fitness the model would have reached.
    pub fn stop_gap(&self) -> Option<f64> {
        let predicted = self.predicted_fitness?;
        let measured = self.epochs.last()?.val_acc;
        Some((predicted - measured).abs())
    }

    /// The objective names this record was measured under. Records
    /// written before the objective registry carry none and report the
    /// legacy pair.
    pub fn objective_labels(&self) -> Vec<String> {
        if self.objective_names.is_empty() {
            vec!["neg_fitness".to_string(), "flops".to_string()]
        } else {
            self.objective_names.clone()
        }
    }

    /// The minimized objective vector, aligned with
    /// [`objective_labels`](Self::objective_labels). Legacy records
    /// reconstruct the pair `(−final_fitness, flops)` the search
    /// actually minimized.
    pub fn objective_vector(&self) -> Vec<f64> {
        if self.objective_values.is_empty() {
            vec![-self.final_fitness, self.flops]
        } else {
            self.objective_values.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4nn_genome::Genome;

    pub(crate) fn sample_record(id: u64, early: bool, epochs: u32) -> ModelRecord {
        let genome = Genome::from_compact_string("1011010-0110101-0000001").unwrap();
        let epoch_records: Vec<EpochRecord> = (1..=epochs)
            .map(|e| EpochRecord {
                epoch: e,
                train_acc: 50.0 + f64::from(e),
                val_acc: 48.0 + f64::from(e),
                duration_s: 2.0,
                prediction: if e >= 3 { Some(90.0) } else { None },
            })
            .collect();
        ModelRecord {
            model_id: id,
            generation: 0,
            gpu: Some(0),
            genome,
            arch_summary: "3 phases".into(),
            flops: 500.0,
            objective_names: Vec::new(),
            objective_values: Vec::new(),
            engine: Some(EngineParamsRecord {
                function: "exp-base".into(),
                c_min: 3,
                e_pred: 25,
                n: 3,
                r: 0.5,
            }),
            epochs: epoch_records,
            final_fitness: if early {
                90.0
            } else {
                48.0 + f64::from(epochs)
            },
            predicted_fitness: early.then_some(90.0),
            termination: if early {
                Terminated::Early
            } else {
                Terminated::Completed
            },
            attempts: 1,
            beam: "medium".into(),
            wall_time_s: 2.0 * f64::from(epochs),
        }
    }

    #[test]
    fn termination_epoch_only_for_early_models() {
        let early = sample_record(1, true, 12);
        assert_eq!(early.termination_epoch(), Some(12));
        let full = sample_record(2, false, 25);
        assert_eq!(full.termination_epoch(), None);
    }

    #[test]
    fn learning_curve_matches_epochs() {
        let r = sample_record(3, true, 5);
        let curve = r.learning_curve();
        assert_eq!(curve.len(), 5);
        assert_eq!(curve[0], (1, 49.0));
        assert_eq!(curve[4], (5, 53.0));
    }

    #[test]
    fn stop_gap_is_absolute_gap() {
        let r = sample_record(4, true, 10);
        // predicted 90, last measured 58 ⇒ 32.
        assert_eq!(r.stop_gap(), Some(32.0));
        let none = sample_record(5, false, 10);
        assert_eq!(none.stop_gap(), None);
    }

    #[test]
    fn json_roundtrip() {
        let r = sample_record(6, true, 8);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: ModelRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn failed_models_report_status_but_no_termination_epoch() {
        let mut r = sample_record(7, false, 4);
        r.termination = Terminated::Failed;
        r.attempts = 3;
        assert!(r.failed());
        assert!(!r.terminated_early());
        assert_eq!(r.termination_epoch(), None);
        assert_eq!(r.termination.as_str(), "failed");
    }

    #[test]
    fn legacy_json_without_termination_fields_deserializes() {
        // A record serialized before the fault-tolerance layer has no
        // `termination`/`attempts` keys; defaults must fill them in.
        let r = sample_record(8, false, 2);
        let json = serde_json::to_string(&r).unwrap();
        let stripped = json
            .replace("\"termination\":\"Completed\",", "")
            .replace("\"attempts\":1,", "");
        assert_ne!(json, stripped);
        let back: ModelRecord = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back.termination, Terminated::Completed);
        assert_eq!(back.attempts, 1);
    }

    #[test]
    fn legacy_records_fall_back_to_the_paper_objective_pair() {
        let r = sample_record(9, false, 3);
        assert!(r.objective_names.is_empty());
        assert_eq!(r.objective_labels(), vec!["neg_fitness", "flops"]);
        assert_eq!(r.objective_vector(), vec![-r.final_fitness, r.flops]);

        let mut tagged = sample_record(10, false, 3);
        tagged.objective_names = vec!["neg_fitness".into(), "macs".into()];
        tagged.objective_values = vec![-51.0, 1e8];
        assert_eq!(tagged.objective_labels(), tagged.objective_names);
        assert_eq!(tagged.objective_vector(), vec![-51.0, 1e8]);
    }

    #[test]
    fn legacy_json_without_objective_fields_deserializes() {
        let r = sample_record(11, false, 2);
        let json = serde_json::to_string(&r).unwrap();
        let stripped = json
            .replace("\"objective_names\":[],", "")
            .replace("\"objective_values\":[],", "");
        assert_ne!(json, stripped);
        let back: ModelRecord = serde_json::from_str(&stripped).unwrap();
        assert!(back.objective_names.is_empty());
        assert!(back.objective_values.is_empty());
        assert_eq!(back, r);
    }
}
