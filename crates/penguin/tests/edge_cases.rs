//! Edge-case hardening for the PENGUIN fitter and prediction engine.
//!
//! NAS populations produce pathological learning curves — networks that
//! never learn (constant accuracy), diverge (NaN/Inf losses), or die
//! after one epoch. The fault-tolerance layer depends on the engine
//! *never panicking* on such histories: a panic inside an engine
//! interaction is treated as an engine crash and degrades the whole
//! model to run-to-completion training.

use a4nn_penguin::{fit_curve, CurveFamily, EngineConfig, FitConfig, FitError, PredictionEngine};

fn epochs(n: usize) -> Vec<f64> {
    (1..=n).map(|e| e as f64).collect()
}

#[test]
fn constant_curves_fit_or_fail_cleanly_in_every_family() {
    // A network that never learns: zero-variance fitness history.
    for value in [0.0, 12.5, 100.0] {
        let xs = epochs(10);
        let ys = vec![value; 10];
        for family in CurveFamily::ALL {
            match fit_curve(&family, &xs, &ys, &FitConfig::default()) {
                Ok(fit) => {
                    assert!(
                        fit.params.iter().all(|p| p.is_finite()),
                        "{}: non-finite params for constant {value}",
                        family.name()
                    );
                    assert!(fit.sse.is_finite());
                    let extrapolated = family.eval(&fit.params, 25.0);
                    assert!(
                        extrapolated.is_finite(),
                        "{}: constant {value} extrapolates to {extrapolated}",
                        family.name()
                    );
                }
                Err(e) => assert_eq!(
                    e,
                    FitError::DidNotConverge,
                    "{}: unexpected error class for constant {value}",
                    family.name()
                ),
            }
        }
    }
}

#[test]
fn single_point_histories_are_rejected_not_fatal() {
    for family in CurveFamily::ALL {
        let err = fit_curve(&family, &[1.0], &[50.0], &FitConfig::default()).unwrap_err();
        assert_eq!(
            err,
            FitError::TooFewPoints {
                have: 1,
                need: family.n_params()
            },
            "{}",
            family.name()
        );
    }
    // Zero points likewise.
    let err = fit_curve(&CurveFamily::ExpBase, &[], &[], &FitConfig::default()).unwrap_err();
    assert!(matches!(err, FitError::TooFewPoints { have: 0, .. }));
}

#[test]
fn mismatched_series_are_rejected() {
    let err = fit_curve(
        &CurveFamily::Pow3,
        &[1.0, 2.0, 3.0],
        &[10.0, 20.0],
        &FitConfig::default(),
    )
    .unwrap_err();
    assert_eq!(err, FitError::LengthMismatch);
}

#[test]
fn nan_laden_histories_never_panic_the_fitter() {
    let xs = epochs(8);
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        // Fully poisoned series.
        let all_bad = vec![poison; 8];
        for family in CurveFamily::ALL {
            // Any Err is acceptable; Ok must at least carry finite params.
            if let Ok(fit) = fit_curve(&family, &xs, &all_bad, &FitConfig::default()) {
                assert!(
                    fit.params.iter().all(|p| p.is_finite()),
                    "{}: accepted non-finite params from poisoned data",
                    family.name()
                );
            }
        }
        // One poisoned observation amid a sane curve.
        let mut mixed: Vec<f64> = xs.iter().map(|x| 90.0 - 60.0 * 0.7f64.powf(*x)).collect();
        mixed[3] = poison;
        for family in CurveFamily::ALL {
            let _ = fit_curve(&family, &xs, &mixed, &FitConfig::default());
        }
    }
}

#[test]
fn engine_survives_non_finite_fitness_stream() {
    for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut engine = PredictionEngine::new(EngineConfig::paper_defaults());
        let mut verdict = None;
        for e in 1..=25u32 {
            let fitness = if e % 3 == 0 { poison } else { 80.0 };
            engine.observe(e, fitness);
            if let Some(v) = engine.step() {
                verdict = Some(v);
                break;
            }
        }
        // Converging is allowed only on a finite prediction; the common
        // outcome is simply running out the budget without converging.
        if let Some(v) = verdict {
            assert!(v.is_finite(), "engine converged on {v} with {poison} data");
        }
        let stats = engine.stats();
        assert!(stats.interactions >= 1);
        assert_eq!(
            stats.fits + stats.fit_failures,
            stats.interactions,
            "every interaction is either a fit or a counted failure"
        );
    }
}

#[test]
fn engine_handles_zero_variance_training() {
    // Constant 0% accuracy — a dead network. The engine must either
    // predict the constant (and may legitimately terminate early) or
    // decline to predict; it must not panic or emit garbage.
    let mut engine = PredictionEngine::new(EngineConfig::paper_defaults());
    for e in 1..=25u32 {
        engine.observe(e, 0.0);
        if let Some(v) = engine.step() {
            assert!(v.is_finite());
            assert!(v.abs() < 5.0, "constant-zero curve predicted {v}");
            break;
        }
    }
    for p in engine.predictions().iter().flatten() {
        assert!(p.is_finite(), "prediction history holds {p}");
    }
}

#[test]
fn engine_step_before_observe_is_a_counted_failure() {
    let mut engine = PredictionEngine::new(EngineConfig::paper_defaults());
    assert_eq!(engine.step(), None, "no data, no prediction");
    assert_eq!(engine.stats().fit_failures, 1);
    // A single observation is still below C_min.
    engine.observe(1, 42.0);
    assert_eq!(engine.step(), None);
    assert_eq!(engine.stats().fit_failures, 2);
    assert_eq!(engine.predictions().len(), 2);
}
