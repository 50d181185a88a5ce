//! Property-based tests over cross-crate invariants (proptest).

use a4nn_genome::{Genome, PhaseGenome, SearchSpace};
use a4nn_nsga::Objectives;
use a4nn_penguin::EngineConfig;
use a4nn_sched::{schedule, RetryPolicy, Task, TaskOrdering};
use proptest::prelude::*;

fn arb_genome() -> impl Strategy<Value = Genome> {
    proptest::collection::vec(any::<bool>(), 21)
        .prop_map(|bits| Genome::from_bits(&[4, 4, 4], &bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every 21-bit genome decodes, builds a network via the bridge, and
    /// runs a forward pass with consistent shapes.
    #[test]
    fn every_genome_decodes_and_builds(genome in arb_genome()) {
        use rand::SeedableRng;
        let space = SearchSpace::paper_defaults();
        let arch = space.decode(&genome);
        prop_assert_eq!(arch.phases.len(), 3);
        let flops = a4nn_genome::estimate_flops(&arch, (16, 16));
        prop_assert!(flops > 0.0);
        let spec = a4nn_core::netspec_from_arch(&arch);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut net = a4nn_nn::Network::new(&spec, &mut rng);
        let x = a4nn_nn::Tensor4::zeros(1, 1, 8, 8);
        let logits = net.forward_ws(&x, false, &mut a4nn_nn::Workspace::new());
        prop_assert_eq!((logits.rows, logits.cols), (1, 2));
    }

    /// Genome compact-string encoding round-trips.
    #[test]
    fn genome_string_roundtrip(genome in arb_genome()) {
        let s = genome.to_compact_string();
        let back = Genome::from_compact_string(&s).unwrap();
        prop_assert_eq!(genome, back);
    }

    /// Variation always produces a genome of the same shape.
    #[test]
    fn variation_preserves_shape(a in arb_genome(), b in arb_genome(), seed in any::<u64>()) {
        use rand::SeedableRng;
        let space = SearchSpace::paper_defaults();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let child = space.vary(&a, &b, &mut rng);
        prop_assert_eq!(child.bit_len(), 21);
        prop_assert_eq!(child.phases.len(), 3);
        for p in &child.phases {
            prop_assert_eq!(p.bits.len(), PhaseGenome::bits_for(4));
        }
    }

    /// FIFO scheduling conserves work: Σ busy == Σ durations, no GPU
    /// exceeds the makespan, every task appears exactly once.
    #[test]
    fn schedule_conserves_work(
        durations in proptest::collection::vec(0.0f64..50.0, 1..40),
        gpus in 1usize..6,
    ) {
        let tasks: Vec<Task> = durations
            .iter()
            .enumerate()
            .map(|(i, &d)| Task::once(i as u64, d))
            .collect();
        let result = schedule(gpus, &tasks, TaskOrdering::Fifo, &RetryPolicy::default());
        let total: f64 = durations.iter().sum();
        let busy: f64 = result.gpu_busy.iter().sum();
        prop_assert!((busy - total).abs() < 1e-9);
        prop_assert!(result.makespan <= total + 1e-9);
        prop_assert!(result.makespan * gpus as f64 >= total - 1e-9);
        for b in &result.gpu_busy {
            prop_assert!(*b <= result.makespan + 1e-9);
        }
        let mut ids: Vec<u64> = result.assignments.iter().map(|a| a.task_id).collect();
        ids.sort_unstable();
        prop_assert_eq!(ids, (0..durations.len() as u64).collect::<Vec<_>>());
    }

    /// LPT is within Graham's (4/3 − 1/3m) factor of optimal; since FIFO
    /// is itself ≥ OPT, LPT ≤ 4/3 · FIFO always holds (per-instance LPT
    /// can be *worse* than FIFO — proptest found such instances — but
    /// never by more than this bound). Both stay above the trivial lower
    /// bounds.
    #[test]
    fn lpt_within_graham_bound_of_fifo(
        durations in proptest::collection::vec(0.1f64..50.0, 1..30),
        gpus in 1usize..5,
    ) {
        let tasks: Vec<Task> = durations
            .iter()
            .enumerate()
            .map(|(i, &d)| Task::once(i as u64, d))
            .collect();
        let fifo = schedule(gpus, &tasks, TaskOrdering::Fifo, &RetryPolicy::default());
        let lpt = schedule(gpus, &tasks, TaskOrdering::Lpt, &RetryPolicy::default());
        let lower = (durations.iter().sum::<f64>() / gpus as f64)
            .max(durations.iter().cloned().fold(0.0, f64::max));
        prop_assert!(lpt.makespan + 1e-9 >= lower);
        prop_assert!(fifo.makespan + 1e-9 >= lower);
        prop_assert!(lpt.makespan <= 4.0 / 3.0 * fifo.makespan + 1e-9);
    }

    /// The prediction analyzer never converges on a window containing an
    /// out-of-bounds or missing prediction, and always converges on a
    /// constant in-bounds window.
    #[test]
    fn analyzer_bounds_and_constants(
        value in 0.0f64..100.0,
        garbage in 100.0001f64..1e6,
    ) {
        let analyzer = EngineConfig::paper_defaults();
        let stable = vec![Some(value); 3];
        prop_assert!(analyzer.converged(&stable));
        let poisoned = vec![Some(value), Some(garbage), Some(value)];
        prop_assert!(!analyzer.converged(&poisoned));
        let missing = vec![Some(value), None, Some(value)];
        prop_assert!(!analyzer.converged(&missing));
    }

    /// Pareto dominance is antisymmetric for distinct vectors.
    #[test]
    fn dominance_antisymmetric(
        a in proptest::collection::vec(-100.0f64..100.0, 2),
        b in proptest::collection::vec(-100.0f64..100.0, 2),
    ) {
        let oa = Objectives::new(a);
        let ob = Objectives::new(b);
        prop_assert!(!(oa.dominates(&ob) && ob.dominates(&oa)));
    }

    /// Curve fitting on any bounded noisy saturating curve yields a finite
    /// prediction inside a generous envelope.
    #[test]
    fn fitting_is_numerically_safe(
        a in 60.0f64..99.0,
        rho in 0.3f64..0.95,
        noise_seed in any::<u64>(),
    ) {
        use a4nn_penguin::{fit_curve, CurveFamily, FitConfig};
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(noise_seed);
        let xs: Vec<f64> = (1..=12).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| (a - (a - 50.0) * rho.powf(x) + rng.gen_range(-0.5..0.5)).clamp(0.0, 100.0))
            .collect();
        let fit = fit_curve(&CurveFamily::ExpBase, &xs, &ys, &FitConfig::default());
        if let Ok(fit) = fit {
            let pred = CurveFamily::ExpBase.eval(&fit.params, 25.0);
            prop_assert!(pred.is_finite());
            prop_assert!((-500.0..600.0).contains(&pred), "pred {}", pred);
        }
    }
}
