//! The objective registry: named, configurable NSGA objective vectors.
//!
//! The paper's NAS minimizes the fixed pair `(−accuracy, FLOPs)`. This
//! module generalizes that pair into an [`ObjectiveSet`] — an ordered
//! list of named providers, each mapping a trained model's
//! [`TrainingOutcome`] and measured [`ModelCost`] onto one minimized
//! coordinate — selected on the CLI as
//! `a4nn search --objectives neg_fitness,flops,peak_ws_bytes`.
//!
//! Every provider is deterministic given `(config, genome, outcome)`:
//! `neg_fitness` and `flops` reproduce the legacy pair bit for bit,
//! `params_bytes` and `macs` are closed-form genome costs
//! ([`a4nn_genome::cost`]), and `peak_ws_bytes` is the trainer's
//! workspace high-water mark (`Workspace::peak_pooled_bytes` for the
//! real substrate; the surrogate reports the matching closed-form
//! estimate so direct, bus, and socket evaluation agree exactly).
//!
//! The set rides inside [`WorkflowConfig`](crate::WorkflowConfig), so it
//! ships to remote workers in `RunSetup`, is covered by the resume
//! config fingerprint (resuming under a changed `--objectives` is a
//! stale snapshot, exit 5), and lands in every lineage record as named
//! per-objective columns.

use crate::training::TrainingOutcome;
use a4nn_error::A4nnError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Resource-cost vector measured for one trained model.
///
/// Produced by [`Trainer::cost`](crate::Trainer::cost) *after* training
/// (the workspace peak is a lifetime high-water mark), shipped over the
/// wire in `JobDone`, and consumed by the objective providers. All
/// components are `f64` so the vector flows through JSON and CSV without
/// a separate integer schema; the integer-valued components stay exact
/// (they are far below 2⁵³).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ModelCost {
    /// Estimated forward FLOPs in MFLOPs — the legacy cost objective.
    pub flops: f64,
    /// Trainable-parameter footprint in bytes (`f32` storage).
    pub params_bytes: f64,
    /// Multiply–accumulates of one forward pass.
    pub macs: f64,
    /// Peak workspace bytes: measured `Workspace::peak_pooled_bytes` for
    /// real trainers, the closed-form estimate for the surrogate.
    pub peak_ws_bytes: f64,
}

impl ModelCost {
    /// A cost vector carrying only the FLOPs estimate — the default for
    /// trainers that measure nothing else.
    pub fn from_flops(flops: f64) -> Self {
        ModelCost {
            flops,
            ..ModelCost::default()
        }
    }
}

/// One named objective provider.
///
/// Serde impls are hand-written (below) so the wire/JSON form is the
/// registry name (`"neg_fitness"`), not the Rust variant name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveKind {
    /// Negated final fitness (validation accuracy is maximized, NSGA
    /// minimizes).
    NegFitness,
    /// Estimated forward MFLOPs.
    Flops,
    /// Trainable-parameter bytes.
    ParamsBytes,
    /// Forward-pass multiply–accumulates.
    Macs,
    /// Peak workspace bytes.
    PeakWsBytes,
}

impl ObjectiveKind {
    /// Every registered provider, in canonical order.
    pub const ALL: [ObjectiveKind; 5] = [
        ObjectiveKind::NegFitness,
        ObjectiveKind::Flops,
        ObjectiveKind::ParamsBytes,
        ObjectiveKind::Macs,
        ObjectiveKind::PeakWsBytes,
    ];

    /// The registry name, as spelled on the CLI and in column headers.
    pub fn name(self) -> &'static str {
        match self {
            ObjectiveKind::NegFitness => "neg_fitness",
            ObjectiveKind::Flops => "flops",
            ObjectiveKind::ParamsBytes => "params_bytes",
            ObjectiveKind::Macs => "macs",
            ObjectiveKind::PeakWsBytes => "peak_ws_bytes",
        }
    }

    /// Look a provider up by registry name.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// The minimized coordinate this provider extracts.
    pub fn value(self, outcome: &TrainingOutcome, cost: &ModelCost) -> f64 {
        match self {
            ObjectiveKind::NegFitness => -outcome.final_fitness,
            ObjectiveKind::Flops => cost.flops,
            ObjectiveKind::ParamsBytes => cost.params_bytes,
            ObjectiveKind::Macs => cost.macs,
            ObjectiveKind::PeakWsBytes => cost.peak_ws_bytes,
        }
    }
}

/// An ordered, named objective configuration for one search.
///
/// Serializes transparently as the list of provider names
/// (`["neg_fitness","flops"]`), so the config fingerprint and the wire
/// `RunSetup` stay human-readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectiveSet {
    kinds: Vec<ObjectiveKind>,
}

impl Serialize for ObjectiveKind {
    fn to_value(&self) -> serde::Value {
        serde::Value::Str(self.name().to_string())
    }
}

impl Deserialize for ObjectiveKind {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let name = v
            .as_str()
            .ok_or_else(|| serde::DeError::expected("objective name string"))?;
        ObjectiveKind::from_name(name).ok_or_else(|| serde::DeError::unknown_variant(name))
    }
}

impl Serialize for ObjectiveSet {
    fn to_value(&self) -> serde::Value {
        serde::Value::Array(self.kinds.iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for ObjectiveSet {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        let kinds = Vec::<ObjectiveKind>::from_value(v)?;
        ObjectiveSet::new(kinds).map_err(|e| serde::DeError::new(e.to_string()))
    }
}

impl Default for ObjectiveSet {
    /// The paper's pair: `(neg_fitness, flops)`.
    fn default() -> Self {
        ObjectiveSet {
            kinds: vec![ObjectiveKind::NegFitness, ObjectiveKind::Flops],
        }
    }
}

impl fmt::Display for ObjectiveSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, k) in self.kinds.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            f.write_str(k.name())?;
        }
        Ok(())
    }
}

impl ObjectiveSet {
    /// Build a set from explicit kinds. Errors on an empty list or a
    /// duplicated provider.
    pub fn new(kinds: Vec<ObjectiveKind>) -> Result<Self, A4nnError> {
        if kinds.is_empty() {
            return Err(A4nnError::Config(
                "an objective set needs at least one objective".into(),
            ));
        }
        for (i, k) in kinds.iter().enumerate() {
            if kinds[..i].contains(k) {
                return Err(A4nnError::Config(format!(
                    "objective '{}' listed more than once",
                    k.name()
                )));
            }
        }
        Ok(ObjectiveSet { kinds })
    }

    /// Parse a comma-separated CLI spec, e.g.
    /// `neg_fitness,flops,peak_ws_bytes`.
    pub fn parse(spec: &str) -> Result<Self, A4nnError> {
        let mut kinds = Vec::new();
        for name in spec.split(',') {
            let name = name.trim();
            if name.is_empty() {
                return Err(A4nnError::Config(format!(
                    "empty objective name in --objectives '{spec}'"
                )));
            }
            let kind = ObjectiveKind::from_name(name).ok_or_else(|| {
                A4nnError::Config(format!(
                    "unknown objective '{name}'; registered objectives: {}",
                    ObjectiveKind::ALL
                        .iter()
                        .map(|k| k.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
            })?;
            kinds.push(kind);
        }
        Self::new(kinds)
    }

    /// The providers, in objective order.
    pub fn kinds(&self) -> &[ObjectiveKind] {
        &self.kinds
    }

    /// The provider names, in objective order.
    pub fn names(&self) -> Vec<String> {
        self.kinds.iter().map(|k| k.name().to_string()).collect()
    }

    /// Number of objectives.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// An objective set is never empty (enforced at construction), but
    /// clippy wants the pair.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Whether this is the legacy default pair `(neg_fitness, flops)`.
    pub fn is_default(&self) -> bool {
        *self == ObjectiveSet::default()
    }

    /// The minimized per-objective values for one evaluated model, as
    /// lineage records carry them (and the NSGA archive reads them).
    pub fn values(&self, outcome: &TrainingOutcome, cost: &ModelCost) -> Vec<f64> {
        self.kinds.iter().map(|k| k.value(outcome, cost)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use a4nn_lineage::EpochRecord;

    fn outcome(fitness: f64) -> TrainingOutcome {
        TrainingOutcome {
            epochs: Vec::<EpochRecord>::new(),
            final_fitness: fitness,
            predicted_fitness: None,
            terminated_early: false,
            failed: false,
            attempts: 1,
            failed_attempt_seconds: Vec::new(),
            train_seconds: 0.0,
            engine_seconds: 0.0,
            engine_interactions: 0,
        }
    }

    fn cost() -> ModelCost {
        ModelCost {
            flops: 123.5,
            params_bytes: 4096.0,
            macs: 1e7,
            peak_ws_bytes: 2048.0,
        }
    }

    #[test]
    fn default_set_reproduces_the_legacy_pair() {
        let set = ObjectiveSet::default();
        assert!(set.is_default());
        assert_eq!(set.names(), vec!["neg_fitness", "flops"]);
        let v = set.values(&outcome(91.5), &cost());
        assert_eq!(v, [-91.5, 123.5]);
    }

    #[test]
    fn parse_round_trips_every_registered_name() {
        let spec = "neg_fitness,flops,params_bytes,macs,peak_ws_bytes";
        let set = ObjectiveSet::parse(spec).unwrap();
        assert_eq!(set.len(), 5);
        assert_eq!(set.to_string(), spec);
        let v = set.values(&outcome(80.0), &cost());
        assert_eq!(v, [-80.0, 123.5, 4096.0, 1e7, 2048.0]);
    }

    #[test]
    fn parse_rejects_unknown_empty_and_duplicate() {
        assert!(matches!(
            ObjectiveSet::parse("latency"),
            Err(A4nnError::Config(_))
        ));
        assert!(matches!(
            ObjectiveSet::parse("neg_fitness,,flops"),
            Err(A4nnError::Config(_))
        ));
        assert!(matches!(
            ObjectiveSet::parse("flops,flops"),
            Err(A4nnError::Config(_))
        ));
        assert!(matches!(ObjectiveSet::parse(""), Err(A4nnError::Config(_))));
    }

    #[test]
    fn serde_form_is_the_name_list() {
        let set = ObjectiveSet::parse("neg_fitness,flops,peak_ws_bytes").unwrap();
        let json = serde_json::to_string(&set).unwrap();
        assert_eq!(json, r#"["neg_fitness","flops","peak_ws_bytes"]"#);
        let back: ObjectiveSet = serde_json::from_str(&json).unwrap();
        assert_eq!(back, set);
    }

    #[test]
    fn failed_outcome_neg_fitness_matches_legacy_sign() {
        // The legacy archive pushed `-final_fitness` verbatim; a failed
        // model (fitness 0.0) must keep producing the identical -0.0.
        let set = ObjectiveSet::default();
        let v = set.values(&outcome(0.0), &cost());
        assert_eq!(v[0].to_bits(), (-0.0f64).to_bits());
    }
}
