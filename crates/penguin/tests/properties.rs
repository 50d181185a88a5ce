//! Property-based tests of the prediction engine.

use a4nn_penguin::{fit_curve, replay, CurveFamily, EngineConfig, FitConfig, PredictionAnalyzer};
use proptest::prelude::*;

/// Valid parameters of `family` mapped from `unit`'s draws in `[0, 1)`,
/// in ranges where learning curves over epochs 1..=25 live.
fn valid_params(family: CurveFamily, unit: &[f64]) -> Vec<f64> {
    let ranges: &[(f64, f64)] = match family {
        CurveFamily::ExpBase => &[(50.0, 100.0), (1.1, 2.5), (2.0, 10.0)],
        CurveFamily::Pow3 => &[(50.0, 100.0), (1.0, 60.0), (0.1, 2.0)],
        CurveFamily::Log3 => &[(50.0, 100.0), (1.0, 60.0), (1.0, 5.0)],
        CurveFamily::Vap3 => &[(3.0, 5.0), (-2.0, 0.0), (0.0, 0.1)],
        CurveFamily::Weibull4 => &[(50.0, 100.0), (1.0, 60.0), (0.05, 1.0), (0.5, 2.0)],
        CurveFamily::Janoschek3 => &[(50.0, 100.0), (0.0, 60.0), (0.05, 1.0)],
    };
    ranges
        .iter()
        .zip(unit)
        .map(|(&(lo, hi), &u)| lo + u * (hi - lo))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The engine never trains past the budget, and its converged
    /// prediction is in bounds for any bounded curve.
    #[test]
    fn engine_respects_budget(
        a in 55.0f64..99.0,
        rho in 0.2f64..0.97,
        scale in 5.0f64..60.0,
        budget in 1u32..40,
    ) {
        let curve: Vec<(u32, f64)> = (1..=budget)
            .map(|e| (e, (a - scale * rho.powi(e as i32)).clamp(0.0, 100.0)))
            .collect();
        let run = replay(&EngineConfig::paper_defaults(), &curve);
        prop_assert!(run.epochs() <= budget as usize);
        if let Some(fitness) = run.converged {
            // Converged predictions respect the analyzer's bounds.
            prop_assert!((0.0..=100.0).contains(&fitness));
        } else {
            prop_assert_eq!(run.epochs(), curve.len());
        }
    }

    /// Exact curves are recovered: prediction at e_pred within tolerance.
    #[test]
    fn exact_curves_predict_accurately(
        a in 60.0f64..99.0,
        b in 1.1f64..2.5,
        c in 2.0f64..10.0,
    ) {
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| a - b.powf(c - x)).collect();
        // Skip degenerate curves that start far below zero.
        prop_assume!(ys[0] > -50.0);
        let fit = fit_curve(&CurveFamily::ExpBase, &xs, &ys, &FitConfig::default());
        prop_assume!(fit.is_ok());
        let pred = CurveFamily::ExpBase.eval(&fit.unwrap().params, 25.0);
        let truth = a - b.powf(c - 25.0);
        prop_assert!((pred - truth).abs() < 1.0, "pred {pred} vs truth {truth}");
    }

    /// Analyzer: scaling the tolerance up can only preserve or create
    /// convergence, never destroy it (monotonicity in r).
    #[test]
    fn analyzer_monotone_in_tolerance(
        values in proptest::collection::vec(0.0f64..100.0, 3..8),
        r_small in 0.01f64..1.0,
        extra in 0.0f64..5.0,
    ) {
        let preds: Vec<Option<f64>> = values.into_iter().map(Some).collect();
        let tight = PredictionAnalyzer {
            tolerance: r_small,
            ..PredictionAnalyzer::paper_defaults()
        };
        let loose = PredictionAnalyzer {
            tolerance: r_small + extra,
            ..PredictionAnalyzer::paper_defaults()
        };
        if tight.converged(&preds) {
            prop_assert!(loose.converged(&preds));
        }
    }

    /// Analyzer: the range rule accepts constant windows and rejects
    /// out-of-bounds windows.
    #[test]
    fn rules_agree_on_extremes(v in 0.0f64..100.0, oob in 100.01f64..1e4) {
        let a = PredictionAnalyzer::paper_defaults();
        prop_assert!(a.converged(&[Some(v), Some(v), Some(v)]));
        prop_assert!(!a.converged(&[Some(oob), Some(oob), Some(oob)]));
    }

    /// One function, two entry points: `eval_grad`'s values are `eval`'s
    /// bit for bit, and its Jacobian matches central differences, in every
    /// family at random valid parameters over epochs 1..=25.
    #[test]
    fn eval_grad_matches_eval_and_central_differences(
        family in 0usize..CurveFamily::ALL.len(),
        unit in proptest::collection::vec(0.0f64..1.0, 4),
    ) {
        let family = CurveFamily::ALL[family];
        let params = valid_params(family, &unit);
        prop_assert!(family.params_valid(&params), "{params:?}");
        let n = family.n_params();
        let xs: Vec<f64> = (1..=25).map(f64::from).collect();
        let mut vals = vec![0.0; xs.len()];
        let mut jac = vec![0.0; xs.len() * n];
        family.eval_grad(&params, &xs, &mut vals, &mut jac);
        for (j, &x) in xs.iter().enumerate() {
            let direct = family.eval(&params, x);
            prop_assert_eq!(vals[j].to_bits(), direct.to_bits(), "{} at x = {}", family.name(), x);
            for i in 0..n {
                let h = 1e-6 * params[i].abs().max(1.0);
                let mut plus = params.clone();
                let mut minus = params.clone();
                plus[i] += h;
                minus[i] -= h;
                let numeric = (family.eval(&plus, x) - family.eval(&minus, x)) / (2.0 * h);
                let analytic = jac[j * n + i];
                let scale = numeric.abs().max(analytic.abs()).max(1.0);
                prop_assert!(
                    (numeric - analytic).abs() / scale < 1e-4,
                    "{} param {} at x = {}: numeric {} vs analytic {}",
                    family.name(), i, x, numeric, analytic
                );
            }
        }
    }

    /// Fitting is invariant to observation order (least squares is a sum).
    #[test]
    fn fit_order_invariant(seed in any::<u64>()) {
        use rand::{seq::SliceRandom, SeedableRng};
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 90.0 - 45.0 * 0.7f64.powf(x)).collect();
        let fit_a = fit_curve(&CurveFamily::ExpBase, &xs, &ys, &FitConfig::default()).unwrap();
        let mut order: Vec<usize> = (0..xs.len()).collect();
        order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
        let xs2: Vec<f64> = order.iter().map(|&i| xs[i]).collect();
        let ys2: Vec<f64> = order.iter().map(|&i| ys[i]).collect();
        let fit_b = fit_curve(&CurveFamily::ExpBase, &xs2, &ys2, &FitConfig::default()).unwrap();
        let pa = CurveFamily::ExpBase.eval(&fit_a.params, 25.0);
        let pb = CurveFamily::ExpBase.eval(&fit_b.params, 25.0);
        prop_assert!((pa - pb).abs() < 0.05, "{pa} vs {pb}");
    }
}

/// The invariants every replay keeps, whatever the curve's shape, in
/// `family`: it does not panic; every prediction and the converged value
/// are finite; the engine stops no earlier than its first full window
/// allows (the first fit needs `max(C_min, n_params)` points, then `N`
/// predictions must agree); a converged value lies inside `bounds`; and
/// a second replay gives the same verdicts bit for bit.
fn replay_invariants(family: CurveFamily, curve: &[(u32, f64)]) -> Result<(), TestCaseError> {
    let config = EngineConfig {
        family,
        ..EngineConfig::paper_defaults()
    };
    let run = replay(&config, curve);
    let name = family.name();
    for p in run.predictions.iter().flatten() {
        prop_assert!(p.is_finite(), "{}: non-finite prediction {}", name, p);
    }
    if let Some(fitness) = run.converged {
        let earliest = config.c_min.max(family.n_params()) + config.n_converge - 1;
        prop_assert!(
            run.epochs() >= earliest,
            "{}: stopped at {}",
            name,
            run.epochs()
        );
        let (lo, hi) = config.bounds;
        prop_assert!(
            (lo..=hi).contains(&fitness),
            "{}: converged to {}",
            name,
            fitness
        );
    }
    // `f64`'s `Debug` round-trips, so equal text is equal bits.
    let again = replay(&config, curve);
    prop_assert_eq!(
        format!("{run:?}"),
        format!("{again:?}"),
        "{}: not deterministic",
        name
    );
    Ok(())
}

/// A saturating curve over epochs `1..=epochs`, clamped to `[0, 100]`.
fn saturating(epochs: u32, a: f64, rho: f64, scale: f64) -> Vec<(u32, f64)> {
    (1..=epochs)
        .map(|e| (e, (a - scale * rho.powi(e as i32)).clamp(0.0, 100.0)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Quantised accuracy: a validation set of `n_val` images only
    /// yields multiples of `100 / n_val`, so small sets give staircase
    /// curves with flat runs. The engine can lock onto a flat run and
    /// stop on a stale value (ROADMAP: "Make the engine earn its stops on
    /// real curves"); only the invariants are pinned here.
    #[test]
    fn quantised_accuracy_keeps_the_replay_invariants(
        family in 0usize..CurveFamily::ALL.len(),
        n_val in 5u32..200,
        a in 40.0f64..99.0,
        rho in 0.3f64..0.95,
        scale in 5.0f64..60.0,
        epochs in 1u32..=25,
    ) {
        let step = 100.0 / f64::from(n_val);
        let curve: Vec<(u32, f64)> = saturating(epochs, a, rho, scale)
            .into_iter()
            .map(|(e, v)| (e, (v / step).round() * step))
            .collect();
        replay_invariants(CurveFamily::ALL[family], &curve)?;
    }

    /// A plateau plus noise: a network that stopped learning, measured
    /// on a noisy validation set. Fits to such curves are poorly
    /// conditioned and their extrapolations can wander (ROADMAP: "Make
    /// the engine earn its stops on real curves").
    #[test]
    fn noisy_plateaus_keep_the_replay_invariants(
        family in 0usize..CurveFamily::ALL.len(),
        level in 5.0f64..99.0,
        noise in 0.0f64..3.0,
        seed in any::<u64>(),
        epochs in 1u32..=25,
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let curve: Vec<(u32, f64)> = (1..=epochs)
            .map(|e| (e, (level + noise * rng.gen_range(-1.0..=1.0)).clamp(0.0, 100.0)))
            .collect();
        replay_invariants(CurveFamily::ALL[family], &curve)?;
    }

    /// Curves that end near 100: the extrapolation to `e_pred` can
    /// overshoot the ceiling, which the analyzer's bounds veto, so such
    /// a model may train to the end instead of stopping (ROADMAP: "Make
    /// the engine earn its stops on real curves").
    #[test]
    fn near_ceiling_curves_keep_the_replay_invariants(
        family in 0usize..CurveFamily::ALL.len(),
        a in 98.0f64..102.0,
        rho in 0.3f64..0.95,
        scale in 5.0f64..80.0,
        epochs in 1u32..=25,
    ) {
        replay_invariants(CurveFamily::ALL[family], &saturating(epochs, a, rho, scale))?;
    }
}
