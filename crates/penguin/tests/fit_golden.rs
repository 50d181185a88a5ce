//! Prediction-engine golden: pins `fit_curve` and
//! `PredictionEngine::interact` bit for bit in all six curve families, so
//! a fitter rewrite that claims "same results" has something to be held
//! to.
//!
//! `fixtures/fit_golden.txt` was written by the commit *before* the
//! Levenberg–Marquardt loop was rewritten to evaluate each curve once per
//! step (one-pass values + Jacobian, reused buffers), by running
//! `cargo test --release -p a4nn-penguin --test fit_golden -- --ignored --nocapture`
//! there and keeping the lines between the markers. It held unedited
//! through that rewrite and through the next, which moved θ, the step
//! and the normal equations onto fixed-size stack arrays. It must only be
//! regenerated by a change that means to alter predictions.
//!
//! The corpus is the surrogate trainer's five curve kinds (stable,
//! non-learner, late bloomer, ceiling hugger, random walk), drawn from
//! seeds, plus flat, ceiling-clamped, NaN-laden and too-short histories.
//! Each `fit` line records a prefix fit: the `to_bits` of every parameter
//! and of the SSE plus the iteration count, or the error. Each `engine`
//! line records one engine run up to its convergence: per epoch the
//! prediction's bits (`-` when there is none), and `=bits` of the
//! converged value on the epoch that stops training.

use a4nn_penguin::{fit_curve, CurveFamily, EngineConfig, FitConfig};
use a4nn_penguin::{PredictionEngine, Verdict};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

const FIXTURE: &str = include_str!("fixtures/fit_golden.txt");

/// Epoch budget of every drawn curve (the paper's `e_pred`).
const EPOCHS: u32 = 25;

/// Prefix lengths each curve is fitted on.
const PREFIXES: [usize; 4] = [3, 7, 12, 25];

#[derive(Debug, Clone, Copy)]
enum Kind {
    Stable,
    NonLearner,
    LateBloomer,
    Ceiling,
    Walk,
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..std::f64::consts::TAU);
    (-2.0 * u1.ln()).sqrt() * u2.cos()
}

/// One seeded curve of `kind`, shaped like the surrogate trainer's draws
/// and clamped to `[0, 100]`. The noise level cycles through the three
/// beams' calibrations (σ = 2.2, 0.5, 0.25).
fn surrogate_curve(kind: Kind, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma = [2.2, 0.5, 0.25][(seed % 3) as usize];
    let asymptote = (98.2 + gauss(&mut rng) * 1.2).min(99.95);
    let rate: f64 = rng.gen_range(0.55..0.95);
    let start: f64 = rng.gen_range(45.0..60.0);
    let scale = (asymptote - start).max(5.0) / rate;
    let flat = 50.0 + gauss(&mut rng);
    let bloom_start: f64 = rng.gen_range(46.0..55.0);
    let bloom_power: f64 = rng.gen_range(1.6..2.2);
    let bloom_coeff =
        (asymptote - rng.gen_range(2.0..10.0) - bloom_start) / 25f64.powf(bloom_power);
    let ceiling: f64 = rng.gen_range(100.8..102.0);
    let ceiling_scale = (ceiling - start).max(5.0) / rate;
    let mut walk = 0.0;
    (1..=EPOCHS)
        .map(|e| {
            let e = f64::from(e);
            let clean = match kind {
                Kind::Stable => asymptote - scale * rate.powf(e),
                Kind::NonLearner => flat,
                Kind::LateBloomer => bloom_start + bloom_coeff * e.powf(bloom_power),
                Kind::Ceiling => ceiling - ceiling_scale * rate.powf(e),
                Kind::Walk => {
                    walk += gauss(&mut rng) * 2.5;
                    asymptote - scale * rate.powf(e) + walk
                }
            };
            (clean + gauss(&mut rng) * sigma).clamp(0.0, 100.0)
        })
        .collect()
}

/// Named fitness histories, indexed from epoch 1.
fn corpus() -> Vec<(String, Vec<f64>)> {
    let mut curves = Vec::new();
    for kind in [
        Kind::Stable,
        Kind::NonLearner,
        Kind::LateBloomer,
        Kind::Ceiling,
        Kind::Walk,
    ] {
        for seed in 0..3u64 {
            let seed = seed + 31 * kind as u64;
            curves.push((format!("{kind:?}/{seed}"), surrogate_curve(kind, seed)));
        }
    }
    curves.push(("flat50".into(), vec![50.0; 25]));
    curves.push(("flat0".into(), vec![0.0; 12]));
    let clamped = (1..=EPOCHS)
        .map(|e| (104.0 - 50.0 * 0.5f64.powi(e as i32)).min(100.0))
        .collect();
    curves.push(("clamped100".into(), clamped));
    let mut nan_laden: Vec<f64> = (1..=EPOCHS)
        .map(|e| 92.0 - 45.0 * 0.75f64.powi(e as i32))
        .collect();
    nan_laden[3] = f64::NAN;
    nan_laden[8] = f64::NAN;
    nan_laden[14] = f64::INFINITY;
    curves.push(("nan_laden".into(), nan_laden));
    curves.push(("short".into(), vec![40.0, 55.0]));
    curves
}

fn hex(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn fit_line(out: &mut String, name: &str, family: CurveFamily, ys: &[f64]) {
    let xs: Vec<f64> = (1..=ys.len()).map(|e| e as f64).collect();
    let what = match fit_curve(&family, &xs, ys, &FitConfig::default()) {
        Ok(fit) => {
            let params: Vec<String> = fit.params.iter().map(|&p| hex(p)).collect();
            format!(
                "{} sse={} it={}",
                params.join(","),
                hex(fit.sse),
                fit.iterations
            )
        }
        Err(e) => format!("err={e:?}"),
    };
    writeln!(out, "fit {name} {} n={} {what}", family.name(), ys.len())
        .expect("writing to a String cannot fail");
}

fn engine_line(out: &mut String, name: &str, family: CurveFamily, ys: &[f64]) {
    let mut engine = PredictionEngine::new(EngineConfig {
        family,
        ..EngineConfig::paper_defaults()
    });
    let mut tokens = Vec::with_capacity(ys.len());
    for (e, &y) in (1..).zip(ys) {
        let Verdict {
            prediction,
            converged,
        } = engine.interact(e, y);
        let mut token = prediction.map_or_else(|| "-".to_string(), hex);
        if let Some(c) = converged {
            token.push('=');
            token.push_str(&hex(c));
        }
        tokens.push(token);
        if converged.is_some() {
            break;
        }
    }
    writeln!(out, "engine {name} {} {}", family.name(), tokens.join(" "))
        .expect("writing to a String cannot fail");
}

fn report() -> String {
    let mut out = String::new();
    for (name, ys) in corpus() {
        for family in CurveFamily::ALL {
            for n in PREFIXES.into_iter().filter(|&n| n <= ys.len()) {
                fit_line(&mut out, &name, family, &ys[..n]);
            }
            if ys.len() < PREFIXES[0] {
                fit_line(&mut out, &name, family, &ys);
            }
            engine_line(&mut out, &name, family, &ys);
        }
    }
    out
}

#[test]
fn fits_and_verdicts_match_the_parent_fixture() {
    let got = report();
    for (i, (g, want)) in got.lines().zip(FIXTURE.lines()).enumerate() {
        assert_eq!(g, want, "fixture line {} moved", i + 1);
    }
    assert_eq!(got.lines().count(), FIXTURE.lines().count());
}

/// Prints the fixture body; see the module docs for when to use it.
#[test]
#[ignore = "regenerates fixtures/fit_golden.txt; run it on purpose"]
fn print_fixture() {
    print!("--- fixture ---\n{}--- end ---\n", report());
}
