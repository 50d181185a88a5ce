//! Tabular exports of a data commons.
//!
//! The paper ships its Dataverse deposit with "a Python script
//! demonstrating how to load the data into a Pandas DataFrame" (§2.3) —
//! the equivalent affordance here is CSV export: one row per model
//! (summary) or one row per epoch (learning curves), both loading directly
//! into pandas/polars/R.

use crate::commons::DataCommons;
use crate::record::ModelRecord;
use std::fmt::Write as _;

/// One-row-per-model summary CSV.
///
/// Runs searched under the objective registry append one `obj_<name>`
/// column per configured objective (in objective order) after the fixed
/// columns. Commons written before the registry carry no objective
/// names, and their export stays byte-identical to the legacy 14-column
/// schema.
pub fn models_csv(commons: &DataCommons) -> String {
    let mut out = String::with_capacity(commons.len() * 96 + 128);
    // The objective columns of the run: the first tagged record's names
    // (every record of one run shares the configured set).
    let obj_names: Option<Vec<String>> = commons
        .records
        .iter()
        .find(|r| !r.objective_names.is_empty())
        .map(|r| r.objective_names.clone());
    out.push_str(
        "model_id,generation,gpu,beam,genome,flops_mflops,epochs_trained,final_fitness,\
         predicted_fitness,terminated_early,termination_epoch,wall_time_s,status,attempts",
    );
    if let Some(names) = &obj_names {
        for name in names {
            let _ = write!(out, ",obj_{name}");
        }
    }
    out.push('\n');
    for r in &commons.records {
        let _ = write!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            r.model_id,
            r.generation,
            r.gpu.map(|g| g.to_string()).unwrap_or_default(),
            r.beam,
            r.genome.to_compact_string(),
            r.flops,
            r.epochs_trained(),
            r.final_fitness,
            r.predicted_fitness
                .map(|p| p.to_string())
                .unwrap_or_default(),
            r.terminated_early(),
            r.termination_epoch()
                .map(|e| e.to_string())
                .unwrap_or_default(),
            r.wall_time_s,
            r.termination.as_str(),
            r.attempts,
        );
        if let Some(names) = &obj_names {
            // A record from a foreign objective set (merged commons)
            // leaves its cells empty rather than misaligning columns.
            let vals = if r.objective_labels() == *names {
                r.objective_vector()
            } else {
                Vec::new()
            };
            for i in 0..names.len() {
                match vals.get(i) {
                    Some(v) => {
                        let _ = write!(out, ",{v}");
                    }
                    None => out.push(','),
                }
            }
        }
        out.push('\n');
    }
    out
}

/// One-row-per-epoch learning-curve CSV.
pub fn epochs_csv(commons: &DataCommons) -> String {
    let mut out = String::with_capacity(commons.len() * 25 * 48 + 64);
    out.push_str("model_id,epoch,train_acc,val_acc,duration_s,prediction\n");
    for r in &commons.records {
        for e in &r.epochs {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{}",
                r.model_id,
                e.epoch,
                e.train_acc,
                e.val_acc,
                e.duration_s,
                e.prediction.map(|p| p.to_string()).unwrap_or_default(),
            );
        }
    }
    out
}

/// One row per model of its attempt accounting — generation, attempts
/// consumed (1 = clean first attempt), and whether it failed terminally —
/// the run's `retries.csv`.
pub fn retries_csv(records: &[ModelRecord]) -> String {
    let mut out = String::from("model_id,generation,attempts,failed\n");
    for r in records {
        let _ = writeln!(
            out,
            "{},{},{},{}",
            r.model_id,
            r.generation,
            r.attempts,
            r.failed()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{EpochRecord, ModelRecord, Terminated};
    use a4nn_genome::Genome;

    fn commons() -> DataCommons {
        DataCommons::new(vec![ModelRecord {
            model_id: 3,
            generation: 1,
            gpu: Some(2),
            genome: Genome::from_compact_string("1000001").unwrap(),
            arch_summary: "x".into(),
            flops: 123.5,
            objective_names: Vec::new(),
            objective_values: Vec::new(),
            engine: None,
            epochs: vec![
                EpochRecord {
                    epoch: 1,
                    train_acc: 60.0,
                    val_acc: 58.0,
                    duration_s: 2.0,
                    prediction: None,
                },
                EpochRecord {
                    epoch: 2,
                    train_acc: 70.0,
                    val_acc: 66.0,
                    duration_s: 2.1,
                    prediction: Some(91.5),
                },
            ],
            final_fitness: 91.5,
            predicted_fitness: Some(91.5),
            termination: Terminated::Early,
            attempts: 1,
            beam: "high".into(),
            wall_time_s: 4.1,
        }])
    }

    #[test]
    fn models_csv_has_header_and_row() {
        let csv = models_csv(&commons());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("model_id,generation,gpu,beam,genome"));
        assert_eq!(
            lines[1],
            "3,1,2,high,1000001,123.5,2,91.5,91.5,true,2,4.1,early,1"
        );
    }

    #[test]
    fn epochs_csv_one_row_per_epoch() {
        let csv = epochs_csv(&commons());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1], "3,1,60,58,2,");
        assert_eq!(lines[2], "3,2,70,66,2.1,91.5");
    }

    #[test]
    fn retries_csv_one_row_per_model() {
        let mut c = commons();
        assert_eq!(
            retries_csv(&c.records),
            "model_id,generation,attempts,failed\n3,1,1,false\n"
        );
        c.records[0].termination = Terminated::Failed;
        c.records[0].attempts = 3;
        assert!(retries_csv(&c.records).ends_with("\n3,1,3,true\n"));
    }

    #[test]
    fn tagged_records_grow_named_objective_columns() {
        let mut commons = commons();
        let r = &mut commons.records[0];
        r.objective_names = vec!["neg_fitness".into(), "flops".into(), "peak_ws_bytes".into()];
        r.objective_values = vec![-91.5, 123.5, 4096.0];
        let csv = models_csv(&commons);
        let lines: Vec<&str> = csv.lines().collect();
        assert!(lines[0].ends_with(",obj_neg_fitness,obj_flops,obj_peak_ws_bytes"));
        assert!(lines[1].ends_with(",-91.5,123.5,4096"));
    }

    #[test]
    fn legacy_records_keep_the_14_column_schema() {
        // Pre-registry commons must export byte-identically to the old
        // exporter: no objective columns at all.
        let csv = models_csv(&commons());
        let header = csv.lines().next().unwrap();
        assert!(!header.contains("obj_"));
        assert_eq!(header.split(',').count(), 14);
    }

    #[test]
    fn foreign_objective_records_export_empty_cells() {
        let mut c = commons();
        let mut other = c.records[0].clone();
        other.model_id = 4;
        other.objective_names = vec!["neg_fitness".into(), "macs".into()];
        other.objective_values = vec![-91.5, 1e8];
        c.records.push(other);
        let csv = models_csv(&c);
        let lines: Vec<&str> = csv.lines().collect();
        // Header comes from the first tagged record (model 4).
        assert!(lines[0].ends_with(",obj_neg_fitness,obj_macs"));
        // The untagged legacy record reports the legacy pair, which has
        // different labels — its cells stay empty.
        assert!(lines[1].ends_with(",early,1,,"));
        assert!(lines[2].ends_with(",-91.5,100000000"));
    }

    #[test]
    fn empty_commons_exports_headers_only() {
        let empty = DataCommons::default();
        assert_eq!(models_csv(&empty).lines().count(), 1);
        assert_eq!(epochs_csv(&empty).lines().count(), 1);
    }

    #[test]
    fn field_counts_are_consistent() {
        let csv = models_csv(&commons());
        let header_fields = csv.lines().next().unwrap().split(',').count();
        for row in csv.lines().skip(1) {
            assert_eq!(row.split(',').count(), header_fields);
        }
    }
}
