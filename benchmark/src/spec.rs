//! `BENCHMARK.json`: the one catalogue of workloads, metrics, units,
//! directions and regression bounds. The harness reads it instead of
//! repeating it, so a metric it emits without an entry (or an entry it
//! never emits) is an error, not drift.

use crate::harness::Res;
use crate::json::{self, Json};
use std::path::Path;

/// One metric of the catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `true` when lower readings are better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

/// The parsed catalogue.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// What a user of the system sees; printed by timed runs.
    pub end_to_end: Vec<MetricDef>,
    /// Single-layer readings; printed by traced runs.
    pub per_layer: Vec<MetricDef>,
}

fn field<'a>(v: &'a Json, key: &str) -> Res<&'a Json> {
    v.get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn text(v: &Json, key: &str) -> Res<String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a string"))
}

/// The metric definitions listed under `key` of `v`.
pub fn metrics(v: &Json, key: &str) -> Res<Vec<MetricDef>> {
    field(v, key)?
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not a list"))?
        .iter()
        .map(|m| {
            Ok(MetricDef {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: text(m, "better")? == "lower",
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parse the catalogue.
    pub fn from_json(v: &Json) -> Res<Spec> {
        let workloads = field(v, "workloads")?
            .as_array()
            .ok_or("BENCHMARK.json: \"workloads\" is not a list")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Res<_>>()?;
        Ok(Spec {
            run_seconds: field(v, "run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: \"run_seconds\" is not a number")?,
            workloads,
            end_to_end: metrics(v, "end_to_end")?,
            per_layer: metrics(v, "per_layer")?,
        })
    }

    /// Read `BENCHMARK.json` from the repository root.
    pub fn load(root: &Path) -> Res<Spec> {
        Spec::from_json(&json::read(&root.join("BENCHMARK.json"))?)
    }
}
