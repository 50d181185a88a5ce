//! What the harness prints and writes: the per-run metric table, the one
//! JSON line the driver reads, `out/results.json`, and `compare`.

use crate::harness::{Outcome, Res};
use crate::json::{self, num, obj, text, Json};
use crate::spec::{self, MetricDef, Spec};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

/// The host and build a result was measured on.
pub struct Host {
    /// `available_parallelism`.
    pub cores: usize,
    /// `rustc --version`, or `unknown`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub commit: String,
}

/// Every run of one workload.
pub struct WorkloadResults {
    /// Workload name.
    pub name: String,
    /// Timed runs with their seeds.
    pub timed: Vec<(u64, Outcome)>,
    /// The traced run, when one was asked for.
    pub traced: Option<Outcome>,
}

/// Check a run against the catalogue and list `(definition, value)` for
/// `defs` in catalogue order. End-to-end metrics must all be present; a
/// layer metric the workload does not exercise reads 0.
pub fn catalogued<'a>(
    spec: &'a Spec,
    traced: bool,
    outcome: &Outcome,
) -> Res<Vec<(&'a MetricDef, f64)>> {
    let defs = if traced {
        &spec.per_layer
    } else {
        &spec.end_to_end
    };
    for name in outcome.metrics.keys() {
        if !defs.iter().any(|d| d.name == *name) {
            return Err(format!("metric {name} is not in BENCHMARK.json"));
        }
    }
    defs.iter()
        .map(|d| match outcome.metrics.get(d.name.as_str()) {
            Some(v) if v.is_finite() => Ok((d, *v)),
            Some(v) => Err(format!("metric {} read {v}", d.name)),
            None if traced => Ok((d, 0.0)),
            None => Err(format!("end-to-end metric {} was not measured", d.name)),
        })
        .collect()
}

/// Print one run: every metric by name with its unit, then the checks.
pub fn print_run(workload: &str, seed: u64, rows: &[(&MetricDef, f64)], outcome: &Outcome) {
    for (def, value) in rows {
        println!("{workload} seed={seed} {} = {value} {}", def.name, def.unit);
    }
    for g in &outcome.gates {
        let verdict = if g.pass { "pass" } else { "FAIL" };
        println!(
            "{workload} seed={seed} check {} : {verdict} ({})",
            g.name, g.detail
        );
    }
    println!(
        "{workload} seed={seed} attempted={} failed={} correct={}",
        outcome.attempted,
        outcome.failed,
        outcome.correct()
    );
}

fn metrics_json(rows: &[(&MetricDef, f64)]) -> Json {
    Json::Object(
        rows.iter()
            .map(|(d, v)| {
                (
                    d.name.clone(),
                    obj([("value", num(*v)), ("unit", text(&d.unit))]),
                )
            })
            .collect(),
    )
}

/// The object the driver reads from the last line of standard output.
pub fn driver_line(rows: &[(&MetricDef, f64)], outcome: &Outcome) -> Res<String> {
    let line = obj([
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::U64(outcome.attempted.max(1))),
        ("failed", Json::U64(outcome.failed)),
        ("metrics", metrics_json(rows)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

fn run_json(seed: u64, rows: &[(&MetricDef, f64)], outcome: &Outcome) -> Json {
    let gates = outcome
        .gates
        .iter()
        .map(|g| {
            obj([
                ("name", text(g.name)),
                ("pass", Json::Bool(g.pass)),
                ("detail", text(&g.detail)),
            ])
        })
        .collect();
    obj([
        ("seed", Json::U64(seed)),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::U64(outcome.attempted)),
        ("failed", Json::U64(outcome.failed)),
        ("metrics", metrics_json(rows)),
        ("checks", Json::Array(gates)),
    ])
}

fn defs_json(defs: &[MetricDef]) -> Json {
    Json::Array(
        defs.iter()
            .map(|d| {
                obj([
                    ("name", text(&d.name)),
                    ("unit", text(&d.unit)),
                    (
                        "better",
                        text(if d.lower_is_better { "lower" } else { "higher" }),
                    ),
                    ("bound", d.bound.map_or(Json::Null, num)),
                ])
            })
            .collect(),
    )
}

/// `out/results.json`: host, settings, the end-to-end catalogue (so that
/// `compare` needs nothing else), and every run of every workload.
pub fn results_json(
    host: &Host,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    smoke: bool,
    workloads: &[WorkloadResults],
) -> Res<Json> {
    let mut by_name = Vec::new();
    for w in workloads {
        let mut timed = Vec::new();
        for (seed, outcome) in &w.timed {
            timed.push(run_json(*seed, &catalogued(spec, false, outcome)?, outcome));
        }
        let traced = match &w.traced {
            Some(outcome) => run_json(seed, &catalogued(spec, true, outcome)?, outcome),
            None => Json::Null,
        };
        by_name.push((
            w.name.clone(),
            obj([("runs", Json::Array(timed)), ("trace", traced)]),
        ));
    }
    Ok(obj([
        (
            "host",
            obj([
                ("host_cores", Json::U64(host.cores as u64)),
                ("rustc", text(&host.rustc)),
                ("git_commit", text(&host.commit)),
            ]),
        ),
        ("seed", Json::U64(seed)),
        ("seconds", num(seconds)),
        ("smoke", Json::Bool(smoke)),
        ("end_to_end", defs_json(&spec.end_to_end)),
        ("workloads", Json::Object(by_name)),
    ]))
}

/// Median and spread of every end-to-end metric over a workload's timed
/// runs, printed after them.
pub fn print_summary(spec: &Spec, w: &WorkloadResults) {
    for def in &spec.end_to_end {
        let values: Vec<f64> = w
            .timed
            .iter()
            .filter_map(|(_, o)| o.metrics.get(def.name.as_str()).copied())
            .collect();
        if values.len() >= 2 {
            println!(
                "{} median {} = {} {} (spread {:.1} % of {} runs, bound {:.0} %)",
                w.name,
                def.name,
                median(&values),
                def.unit,
                100.0 * spread(&values),
                values.len(),
                100.0 * def.bound.unwrap_or(0.0)
            );
        }
    }
}

/// How one end-to-end metric moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// The spread exceeds the bound, but every run of B beats every run of A.
    Improved,
    /// Worse by more than the bound.
    Regression,
    /// The run-to-run spread exceeds the bound: neither claim can be made.
    Unresolved,
}

/// Judge B against A: the share by which B's median is worse, the larger
/// of the two spreads, and the verdict under `def`'s bound.
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (f64, f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = if def.lower_is_better {
        mb - ma
    } else {
        ma - mb
    } / ma.abs();
    let of = |v: &[f64]| if v.len() >= 2 { spread(v) } else { 0.0 };
    let widest = of(a).max(of(b));
    let bound = def.bound.unwrap_or(0.0);
    let b_always_better = a.iter().all(|&x| {
        b.iter()
            .all(|&y| if def.lower_is_better { y < x } else { y > x })
    });
    let verdict = if widest > bound {
        if b_always_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        }
    } else if worse > bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    (worse, widest, verdict)
}

/// Readings by workload, then by metric, one per timed run.
type Readings = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn read_results(path: &Path) -> Res<(Vec<MetricDef>, Readings)> {
    let root = json::read(path)?;
    let defs = spec::metrics(&root, "end_to_end")?;
    let mut values = Readings::new();
    let Some(Json::Object(workloads)) = root.get("workloads") else {
        return Err(format!("{}: no workloads", path.display()));
    };
    for (name, w) in workloads {
        let per_metric = values.entry(name.clone()).or_default();
        for run in w.get("runs").and_then(Json::as_array).into_iter().flatten() {
            if let Some(Json::Object(metrics)) = run.get("metrics") {
                for (metric, reading) in metrics {
                    if let Some(v) = reading.get("value").and_then(Json::as_f64) {
                        per_metric.entry(metric.clone()).or_default().push(v);
                    }
                }
            }
        }
    }
    Ok((defs, values))
}

/// `compare A.json B.json`: per workload, each end-to-end metric's
/// relative difference against its bound. Returns whether any metric
/// regressed.
pub fn compare(a: &Path, b: &Path) -> Res<bool> {
    let (defs, va) = read_results(a)?;
    let (_, vb) = read_results(b)?;
    let mut regressed = false;
    for (workload, metrics_a) in &va {
        let Some(metrics_b) = vb.get(workload) else {
            println!("{workload}: only in {}", a.display());
            continue;
        };
        for def in &defs {
            let (Some(xa), Some(xb)) = (metrics_a.get(&def.name), metrics_b.get(&def.name)) else {
                continue;
            };
            let (worse, widest, verdict) = judge(def, xa, xb);
            regressed |= verdict == Verdict::Regression;
            let label = match verdict {
                Verdict::Ok => "ok",
                Verdict::Improved => "improved",
                Verdict::Regression => "REGRESSION",
                Verdict::Unresolved => "unresolved",
            };
            println!(
                "{workload} {}: A {} -> B {} {} ({:+.1} % worse, bound {:.0} %, spread {:.1} %) {label}",
                def.name,
                median(xa),
                median(xb),
                def.unit,
                100.0 * worse,
                100.0 * def.bound.unwrap_or(0.0),
                100.0 * widest,
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Spec {
        let metric = |name: &str, bound: Option<f64>| MetricDef {
            name: name.into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound,
        };
        Spec {
            run_seconds: 10.0,
            workloads: vec!["w".into()],
            end_to_end: vec![
                metric("setup_s", Some(0.25)),
                metric("wall_ms_per_op", Some(0.1)),
            ],
            per_layer: vec![metric("nn.fwd", None), metric("net.io", None)],
        }
    }

    fn outcome(values: &[(&'static str, f64)]) -> Outcome {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (k, v) in values {
            o.set(k, *v);
        }
        o.gate("check", true, "fine");
        o
    }

    #[test]
    fn catalogue_is_enforced_both_ways() {
        let s = spec();
        let full = outcome(&[("setup_s", 0.5), ("wall_ms_per_op", 1.25)]);
        assert_eq!(catalogued(&s, false, &full).unwrap().len(), 2);
        // An end-to-end metric may not be missing, a layer metric reads 0.
        assert!(catalogued(&s, false, &outcome(&[("setup_s", 0.5)])).is_err());
        let rows = catalogued(&s, true, &outcome(&[("nn.fwd", 3.0)])).unwrap();
        assert_eq!(rows[1].1, 0.0);
        // A metric outside the catalogue, or one that is not a number, is refused.
        assert!(catalogued(&s, true, &outcome(&[("nn.bwd", 3.0)])).is_err());
        assert!(catalogued(&s, true, &outcome(&[("nn.fwd", f64::NAN)])).is_err());
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let s = spec();
        let o = outcome(&[("setup_s", 0.8127), ("wall_ms_per_op", 1.2034)]);
        let line = driver_line(&catalogued(&s, false, &o).unwrap(), &o).unwrap();
        assert!(!line.contains('\n'));
        let Json::Object(fields) = serde_json::parse(&line).unwrap() else {
            panic!("not an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let v = serde_json::parse(&line).unwrap();
        assert_eq!(
            v["metrics"]["wall_ms_per_op"]["value"].as_f64(),
            Some(1.2034)
        );
        assert_eq!(v["metrics"]["setup_s"]["unit"], "ms");
        assert_eq!(v["attempted"].as_u64(), Some(10));
    }

    #[test]
    fn results_round_trip_through_the_file() {
        let s = spec();
        let w = WorkloadResults {
            name: "w".into(),
            timed: vec![
                (1, outcome(&[("setup_s", 0.5), ("wall_ms_per_op", 1.0)])),
                (2, outcome(&[("setup_s", 0.7), ("wall_ms_per_op", 1.5)])),
            ],
            traced: Some(outcome(&[("nn.fwd", 3.0)])),
        };
        let host = Host {
            cores: 2,
            rustc: "rustc 1.95.0".into(),
            commit: "unknown".into(),
        };
        let doc = results_json(&host, &s, 1, 10.0, false, &[w]).unwrap();
        let dir = std::env::temp_dir().join(format!("a4nn-benchmark-test-{}", std::process::id()));
        let path = dir.join("results.json");
        json::write(&path, &doc).unwrap();
        assert_eq!(json::read(&path).unwrap(), doc);
        let (defs, values) = read_results(&path).unwrap();
        assert_eq!(defs, s.end_to_end);
        assert_eq!(values["w"]["wall_ms_per_op"], [1.0, 1.5]);
        assert_eq!(values["w"]["setup_s"], [0.5, 0.7]);
        assert_eq!(doc["host"]["host_cores"].as_u64(), Some(2));
        assert_eq!(
            doc["workloads"]["w"]["trace"]["metrics"]["net.io"]["value"].as_f64(),
            Some(0.0)
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let def = MetricDef {
            name: "wall_ms_per_op".into(),
            unit: "ms".into(),
            lower_is_better: true,
            bound: Some(0.10),
        };
        let steady = [100.0, 101.0, 100.5, 99.5, 100.2];
        let scale = |k: f64| steady.map(|v| v * k);
        assert_eq!(judge(&def, &steady, &scale(1.05)).2, Verdict::Ok);
        assert_eq!(judge(&def, &steady, &scale(1.2)).2, Verdict::Regression);
        assert_eq!(judge(&def, &steady, &scale(0.5)).2, Verdict::Ok);
        let noisy = [80.0, 120.0, 100.0, 70.0, 130.0];
        assert_eq!(judge(&def, &noisy, &steady).2, Verdict::Unresolved);
        // Spread above the bound, yet every B run beats every A run.
        assert_eq!(judge(&def, &noisy, &scale(0.5)).2, Verdict::Improved);
        let higher = MetricDef {
            lower_is_better: false,
            ..def
        };
        let (worse, _, verdict) = judge(&higher, &steady, &scale(0.8));
        assert!(worse > 0.19 && verdict == Verdict::Regression);
    }
}
