//! `a4nn reproduce --out DIR`: the paper's evaluation — Figures 2 and
//! 6–10, Table 3, the §4.3.1 overhead and the §6 ablations — from one
//! command that checks its own claims.
//!
//! The sections share one memoised set of surrogate searches, keyed by
//! driver and configuration fingerprint, so each distinct search runs
//! once: 15 in all. The engine ablations run no search of their own: they
//! replay the engine over every complete curve of each beam's standalone
//! search, which also gives the truth at `e_pred` for every model the
//! engine stops. Every number becomes a row of `DIR/reproduction.json`
//! beside the paper's value (`null` where the paper gives none). Every
//! shape statement becomes a claim: a predicate over the rows, listed with
//! the result it gave when it was recorded. The command exits 3 naming
//! each claim whose result moved, in either direction.
//!
//! Series are not copied into the JSON. The A4NN and standalone
//! single-GPU commons of each beam go to `DIR/runs/{a4nn,standalone}-<beam>/`,
//! where `a4nn analyze` prints Figure 6's fronts and
//! `a4nn viz [--dot] --model <fig10.model_id>` renders Figure 10.

use crate::args::Parsed;
use crate::commands::{required, CommandError};
use a4nn_core::config_hash;
use a4nn_core::prelude::*;
use a4nn_lineage::{feature_fitness_correlations, fitness_cmp, shape_census, success_contrast};
use a4nn_nn::Dataset;
use a4nn_penguin::replay;
use a4nn_sched::{schedule_generations, Task, TaskOrdering};
use a4nn_xfel::{generate_dataset, generate_split};
use rand::{rngs::StdRng, SeedableRng};
use serde_json::Value;
use std::collections::HashMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::Arc;

/// The seed of every search and dataset.
const SEED: u64 = 0xA4A4_2023;
const NAN: f64 = f64::NAN;

/// The paper's value of each row it reports, on low / medium / high beam
/// (NaN where it gives none). Figure 8's are bounds: > 60 % / > 70 % /
/// 55 % terminated, mean e_t > 18 / < 12.5 / ~10.
const PAPER: &[(&str, [f64; 3])] = &[
    ("fig2.termination_epoch", [NAN, 12.0, NAN]),
    ("fig6.a4nn.best_acc", [99.8, 100.0, 99.9]),
    ("fig6.standalone.best_acc", [98.1, NAN, 99.9]),
    ("fig7.standalone_epochs", [2500.0; 3]),
    ("fig7.saved_pct", [13.3, 34.1, 30.5]),
    ("fig8.terminated_pct", [60.0, 70.0, 55.0]),
    ("fig8.mean_et", [18.0, 12.5, 10.0]),
    ("fig9.hours", [46.55, 36.09, 32.3]),
    ("fig9.hours_4gpu", [12.06, 9.17, 9.46]),
    ("fig9.saved_hours", [3.5, 15.8, 16.3]),
    ("fig9.speedup", [3.8, 3.9, 3.4]),
    ("overhead.engine_s", [52.16; 3]),
    ("overhead.ms_per_interaction", [28.07; 3]),
    ("overhead.mean_epoch_s", [72.0; 3]),
    ("table3.xpsi_s", [15.45 * 3600.0; 3]),
    ("table3.a4nn_acc", [97.8, 99.9, 100.0]),
    ("table3.xpsi_acc", [92.0, 99.0, 100.0]),
];

/// Every claim: its id, the result it gave when it was recorded, and the
/// shape it states. `holds` computes each from the rows. The curve-family
/// ablation claims nothing across families (§6 leaves that question open);
/// the `audit` claims read its paper-default cell.
const CLAIMS: &str = "
fig2.terminates_mid_training        true  a medium-beam model stops between C_min and e_pred
fig6.best_acc_matches.low           true  the A4NN front's best accuracy >= the standalone front's
fig6.best_acc_matches.medium        true  the A4NN front's best accuracy >= the standalone front's
fig6.best_acc_matches.high          true  the A4NN front's best accuracy >= the standalone front's
fig6.weak_dominance.low             false an A4NN front point weakly dominates each standalone one
fig6.weak_dominance.medium          false an A4NN front point weakly dominates each standalone one
fig6.weak_dominance.high            false an A4NN front point weakly dominates each standalone one
fig7.all_save                       true  every beam saves more than 0 epochs
fig7.low_least_medium_most          true  low beam saves the fewest epochs and medium the most
fig7.gpu_invariant                  true  4-GPU epochs equal 1-GPU epochs on every beam
fig7.standalone_2500                true  standalone NSGA-Net trains exactly 2,500 epochs
fig8.mean_et_falls                  true  mean e_t falls from low to medium to high beam
fig8.medium_most_terminated         true  medium beam terminates the largest share early
fig9.low_saves_fewest_hours         true  low beam saves the fewest wall hours
fig9.speedup_sublinear              true  the 1->4 GPU speedup lies strictly within (1, 4)
overhead.negligible                 true  engine time per interaction < 1% of the mean epoch
table3.a4nn_ge_xpsi                 true  A4NN accuracy >= XPSI accuracy on every beam
table3.gap_largest_on_low           true  A4NN's lead over XPSI is largest on low beam
table3.a4nn_monotone                false A4NN accuracy is non-decreasing in beam
table3.xpsi_monotone                true  XPSI accuracy is non-decreasing in beam
audit.engine_beats_last_seen.low    true  the engine's stops predict e_pred's accuracy better than last-seen
audit.engine_beats_last_seen.medium true  the engine's stops predict e_pred's accuracy better than last-seen
audit.engine_beats_last_seen.high   true  the engine's stops predict e_pred's accuracy better than last-seen
ablation.engine_params.r_tradeoff   true  for each N, a larger r trains fewer epochs at larger MAE
ablation.flops_accuracy.weak        true  |r(FLOPs, accuracy)| < 0.3 for both modes on every beam
ablation.structure.weak             true  |r(feature, fitness)| < 0.3 for every feature and beam
ablation.scheduler.lpt_le_fifo      true  LPT's makespan <= FIFO's at 1, 2, 4 and 8 GPUs
ablation.scheduler.idle_tail_grows  true  FIFO's idle tail is non-decreasing in the GPU count
ablation.nas_drivers.all_save       true  every driver saves epochs on every beam
ablation.nas_drivers.nsga_cheapest  true  NSGA-Net's cheapest near-best model beats both others'
";

/// The §6 NAS drivers with their row labels.
const DRIVERS: [(Driver, &str); 3] = [
    (Driver::Nsga2, "nsga_net"),
    (Driver::AgingEvolution { sample_size: 5 }, "aging_evolution"),
    (Driver::Random, "random_search"),
];

type Run = Result<Rc<RunOutput>, A4nnError>;

/// Surrogate searches memoised by `(driver, config_hash)`.
#[derive(Default)]
struct Runs(HashMap<(Driver, u64), Rc<RunOutput>>);

impl Runs {
    fn run(&mut self, driver: Driver, config: WorkflowConfig) -> Run {
        let key = (driver, config_hash(&config)?);
        if let Some(out) = self.0.get(&key) {
            return Ok(Rc::clone(out));
        }
        let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
        let options = RunOptions {
            driver,
            ..RunOptions::default()
        };
        let out = Rc::new(A4nnWorkflow::new(config).run(&factory, options)?);
        self.0.insert(key, Rc::clone(&out));
        Ok(out)
    }

    fn a4nn(&mut self, beam: BeamIntensity, gpus: usize) -> Run {
        self.run(Driver::Nsga2, WorkflowConfig::a4nn(beam, gpus, SEED))
    }

    fn standalone(&mut self, beam: BeamIntensity) -> Run {
        self.run(Driver::Nsga2, WorkflowConfig::standalone(beam, SEED))
    }
}

/// One measured number, NaN where the run has none.
struct Row {
    id: String,
    beam: BeamIntensity,
    measured: f64,
}

/// A claim: `holds` as computed now, `expected` as recorded.
struct Claim {
    id: String,
    claim: String,
    holds: bool,
    expected: bool,
}

#[derive(Default)]
struct Report {
    rows: Vec<Row>,
}

impl Report {
    /// Rows `<prefix>.<name>` of one beam.
    fn rows(&mut self, beam: BeamIntensity, prefix: &str, values: &[(&str, f64)]) {
        for &(name, measured) in values {
            let id = format!("{prefix}.{name}");
            self.rows.push(Row { id, beam, measured });
        }
    }

    /// Row `id` on low, medium and high beam (NaN where absent).
    fn beams(&self, id: &str) -> [f64; 3] {
        BeamIntensity::ALL.map(|beam| {
            let row = self.rows.iter().find(|r| r.id == id && r.beam == beam);
            row.map_or(NAN, |r| r.measured)
        })
    }
}

/// The paper's value of a row (NaN where it gives none).
fn paper(id: &str, beam: BeamIntensity) -> f64 {
    let values = PAPER.iter().find(|(p, _)| *p == id);
    values.map_or(NAN, |(_, v)| v[beam as usize])
}

/// A run's Pareto front, most accurate first (ties keep commons order).
fn front_by_fitness(out: &RunOutput) -> Result<Vec<&ModelRecord>, A4nnError> {
    let mut front = Analyzer::new(&out.commons).pareto_front()?;
    front.sort_by(|a, b| fitness_cmp(b.final_fitness, a.final_fitness));
    Ok(front)
}

/// Figure 2: scan medium-beam models until one's prediction of its
/// epoch-25 fitness converges mid-training, like the paper's example.
fn fig2(r: &mut Report) -> Result<(), A4nnError> {
    let config = WorkflowConfig::a4nn(BeamIntensity::Medium, 1, SEED);
    let factory = SurrogateFactory::new(&config, SurrogateParams::for_beam(config.beam));
    let mut rng = StdRng::seed_from_u64(SEED);
    let genome = config.search_space().random_genome(&mut rng);
    let engine = EngineConfig::paper_defaults();
    let converges = |model_id: u64| {
        let mut trainer = factory.make(&genome, model_id, SEED);
        let curve: Vec<_> = (1..=engine.e_pred)
            .map(|e| (e, trainer.train_epoch(e).val_acc))
            .collect();
        let run = replay(&engine, &curve);
        let (epoch, predicted) = (run.epochs(), run.converged?);
        let mid_training = (9..=15).contains(&epoch);
        mid_training.then_some([model_id as f64, epoch as f64, predicted])
    };
    let no_model = || A4nnError::Internal("fig2: no model of 200 stops at epochs 9-15".into());
    let [model_id, epoch, predicted] = (0..200).find_map(converges).ok_or_else(no_model)?;
    let values = [
        ("model_id", model_id),
        ("termination_epoch", epoch),
        ("predicted_fitness", predicted),
    ];
    r.rows(config.beam, "fig2", &values);
    Ok(())
}

/// Figures 6–9, §4.3.1 and the FLOPs and structure ablations: everything
/// read from a beam's paper-default searches — A4NN on one and four GPUs
/// and standalone NSGA-Net.
fn paper_defaults(runs: &mut Runs, r: &mut Report, beam: BeamIntensity) -> Result<(), A4nnError> {
    let one = runs.a4nn(beam, 1)?;
    let four = runs.a4nn(beam, 4)?;
    let base = runs.standalone(beam)?;
    let analyzer = Analyzer::new(&one.commons);

    // Figure 6: (MFLOPs, accuracy) per Pareto-front point.
    let front = |out: &RunOutput| -> Result<Vec<(f64, f64)>, A4nnError> {
        let front = Analyzer::new(&out.commons).pareto_front()?;
        Ok(front.iter().map(|m| (m.flops, m.final_fitness)).collect())
    };
    let (a4nn, standalone) = (front(&one)?, front(&base)?);
    // Standalone points that some A4NN point matches on both axes.
    let covered = |s: &&(f64, f64)| a4nn.iter().any(|a| a.0 <= s.0 && a.1 >= s.1);
    let dominated = standalone.iter().filter(covered).count() as f64;
    for (prefix, points) in [("fig6.a4nn", &a4nn), ("fig6.standalone", &standalone)] {
        let best = points.iter().map(|p| p.1).fold(NAN, f64::max);
        let values = [("front_size", points.len() as f64), ("best_acc", best)];
        r.rows(beam, prefix, &values);
    }
    r.rows(beam, "fig6.standalone", &[("dominated", dominated)]);

    let epochs = |out: &RunOutput| out.total_epochs() as f64;
    let hours = |out: &RunOutput| out.wall_time_s() / 3600.0;
    let values = [
        ("standalone_epochs", epochs(&base)),
        ("epochs", epochs(&one)),
        ("epochs_4gpu", epochs(&four)),
        ("saved_pct", one.epochs_saved_pct()),
        ("saved_pct_4gpu", four.epochs_saved_pct()),
    ];
    r.rows(beam, "fig7", &values);
    let values = [
        ("terminated_pct", 100.0 * analyzer.early_termination_rate()),
        ("mean_et", analyzer.mean_termination_epoch().unwrap_or(NAN)),
    ];
    r.rows(beam, "fig8", &values);
    for (shape, models, terminated) in shape_census(&one.commons) {
        let values = [("models", models as f64), ("terminated", terminated as f64)];
        r.rows(beam, &format!("fig8.shape.{}", shape.label()), &values);
    }
    let values = [
        ("hours_standalone", hours(&base)),
        ("hours", hours(&one)),
        ("hours_4gpu", hours(&four)),
        ("saved_hours", hours(&base) - hours(&one)),
        ("speedup", hours(&one) / hours(&four)),
    ];
    r.rows(beam, "fig9", &values);

    // §4.3.1: wall time in the engine's `observe + step` against the
    // simulated epoch it rides on.
    let per_interaction = one.engine_seconds_per_interaction();
    let values = [
        ("interactions", one.engine_interactions as f64),
        ("engine_s", one.engine_seconds),
        ("ms_per_interaction", 1e3 * per_interaction),
        ("mean_epoch_s", analyzer.total_wall_time() / epochs(&one)),
    ];
    r.rows(beam, "overhead", &values);

    // §6: "is there a significant correlation between high FLOPS and high
    // validation accuracy?" and "are there structural similarities
    // between successful architectures?".
    let corr = |out: &RunOutput| Analyzer::new(&out.commons).flops_fitness_correlation();
    let values = [("a4nn_r", corr(&one)), ("standalone_r", corr(&base))];
    r.rows(
        beam,
        "ablation.flops_accuracy",
        &values.map(|(n, c)| (n, c.unwrap_or(NAN))),
    );
    let correlations = feature_fitness_correlations(&one.commons);
    r.rows(beam, "ablation.structure.r", &correlations);
    if let Some((top, rest)) = success_contrast(&one.commons, 0.2) {
        for (group, means) in [("top", top), ("rest", rest)] {
            let mut values = vec![("count", means.count as f64)];
            values.push(("mean_fitness", means.mean_fitness));
            values.extend(means.means.iter().map(|(n, v)| (n.as_str(), *v)));
            r.rows(beam, &format!("ablation.structure.{group}"), &values);
        }
    }
    Ok(())
}

/// Table 3: XPSI against the better of A4NN's two most accurate Pareto
/// models, both trained for real on the synthetic diffraction data and
/// scored once on a held-out test set. A4NN picks its model and epoch on
/// the validation split, then retrains that model with the test set as
/// its validation set. A4NN's hours are the `fig9` rows.
fn table3(runs: &mut Runs, r: &mut Report, beam: BeamIntensity) -> Result<(), A4nnError> {
    let epochs = 12;
    let xfel = XfelConfig::default();
    let (train, val) = generate_split(&xfel, beam, 300, SEED);
    // 1 000 images of the same two conformations, under a new image seed.
    let test = Arc::new(generate_dataset(&xfel, beam, 500, SEED + 1));
    let config = a4nn_xpsi::XpsiConfig {
        epochs,
        seed: SEED,
        ..Default::default()
    };
    let xpsi = a4nn_xpsi::XpsiFramework::new(config).run(&train, &test);
    let search = runs.a4nn(beam, 1)?;
    let train = Arc::new(train);
    // Each epoch's `(train_acc, val_acc)` of `m` through `epoch`, validated on `val`.
    let trail = |val: &Arc<Dataset>, m: &ModelRecord, epoch: usize| {
        let (space, hyper) = (search.config.search_space(), TrainingHyperparams::default());
        let factory = RealTrainerFactory::new(space, Arc::clone(&train), Arc::clone(val), hyper);
        let mut trainer = factory.make(&m.genome, m.model_id, SEED);
        (1..=epoch as u32)
            .map(|e| trainer.train_epoch(e))
            .map(|r| (r.train_acc, r.val_acc))
            .collect::<Vec<_>>()
    };
    let (val, front) = (Arc::new(val), front_by_fitness(&search)?);
    let trails: Vec<_> = front
        .iter()
        .take(2)
        .map(|m| trail(&val, m, epochs))
        .collect();
    // The first highest validation reading, as (val_acc, candidate, epoch).
    let readings = trails.iter().enumerate().flat_map(|(i, trail)| {
        let epochs = trail.iter().enumerate();
        epochs.map(move |(e, &(_, acc))| (acc, i, e + 1))
    });
    let first_max = |best: (f64, _, _), x: (f64, _, _)| if x.0 > best.0 { x } else { best };
    let empty = || A4nnError::Internal("table3: empty Pareto front".into());
    let (_, i, epoch) = readings.reduce(first_max).ok_or_else(empty)?;
    let tested = trail(&test, front[i], epoch);
    let train_acc = |t: &[(f64, f64)]| t.iter().map(|r| r.0.to_bits()).collect::<Vec<_>>();
    if train_acc(&tested) != train_acc(&trails[i][..epoch]) {
        let msg = format!("table3: model {} trained differently", front[i].model_id);
        return Err(A4nnError::Internal(msg));
    }
    let values = [
        ("xpsi_s", xpsi.wall_seconds),
        ("a4nn_acc", tested[epoch - 1].1),
        ("xpsi_acc", xpsi.accuracy),
    ];
    r.rows(beam, "table3", &values);
    Ok(())
}

/// Figures 3 and 10: the most accurate low-beam Pareto model.
fn fig10(runs: &mut Runs, r: &mut Report) -> Result<(), A4nnError> {
    let out = runs.a4nn(BeamIntensity::Low, 1)?;
    let front = front_by_fitness(&out)?;
    let empty = || A4nnError::Internal("fig10: empty Pareto front".into());
    let model = front.first().ok_or_else(empty)?;
    let values = [
        ("model_id", model.model_id as f64),
        ("generation", model.generation as f64),
        ("fitness", model.final_fitness),
        ("mflops", model.flops),
    ];
    r.rows(BeamIntensity::Low, "fig10", &values);
    Ok(())
}

/// One engine configuration replayed over every complete curve of a
/// standalone search: epochs, savings, early terminations and, over the
/// stopped curves, the stop gap |prediction − accuracy at the stop|
/// (`pred_mae`), the error against the accuracy at `e_pred` (`true_mae`),
/// and that of the accuracy at the stop (`last_seen_mae`).
fn replay_rows(
    r: &mut Report,
    beam: BeamIntensity,
    prefix: &str,
    models: &[ModelRecord],
    engine: &EngineConfig,
) {
    let (mut epochs, mut budget, mut errors) = (0, 0, Vec::new());
    for m in models {
        let curve = m.learning_curve();
        let run = replay(engine, &curve);
        (epochs, budget) = (epochs + run.epochs(), budget + curve.len());
        let truth = curve.iter().find(|(e, _)| *e == engine.e_pred);
        if let (Some(predicted), Some(&(_, truth))) = (run.converged, truth) {
            let seen = curve[run.epochs() - 1].1;
            errors.push([predicted - seen, predicted - truth, seen - truth].map(f64::abs));
        }
    }
    let mae = |i: usize| errors.iter().map(|e| e[i]).sum::<f64>() / errors.len() as f64;
    let stopped = errors.len() as f64 / models.len() as f64;
    let values = [
        ("epochs", epochs as f64),
        ("saved_pct", 100.0 * (1.0 - epochs as f64 / budget as f64)),
        ("terminated_pct", 100.0 * stopped),
        ("pred_mae", mae(0)),
        ("true_mae", mae(1)),
        ("last_seen_mae", mae(2)),
    ];
    r.rows(beam, prefix, &values);
}

/// §6 "which parametric functions are best able to predict fitness?":
/// each curve family as the engine's `F`.
fn ablation_functions(
    runs: &mut Runs,
    r: &mut Report,
    beam: BeamIntensity,
) -> Result<(), A4nnError> {
    let base = runs.standalone(beam)?;
    for family in CurveFamily::ALL {
        let engine = EngineConfig {
            family,
            ..EngineConfig::paper_defaults()
        };
        let prefix = format!("ablation.functions.{}", family.name());
        replay_rows(r, beam, &prefix, &base.commons.records, &engine);
    }
    Ok(())
}

/// The convergence window `N` and tolerance `r` (Table 1: 3 and 0.5),
/// swept on medium beam.
fn ablation_engine_params(runs: &mut Runs, r: &mut Report) -> Result<(), A4nnError> {
    let beam = BeamIntensity::Medium;
    let base = runs.standalone(beam)?;
    for n_converge in [2, 3, 5] {
        for tolerance in [0.1, 0.5, 1.0] {
            let engine = EngineConfig {
                n_converge,
                r: tolerance,
                ..EngineConfig::paper_defaults()
            };
            let prefix = format!("ablation.engine_params.n{n_converge}_r{tolerance:.1}");
            replay_rows(r, beam, &prefix, &base.commons.records, &engine);
        }
    }
    Ok(())
}

/// §2.5: the medium-beam run's generations replayed on 1–8 simulated GPUs
/// under FIFO and LPT ordering.
fn ablation_scheduler(runs: &mut Runs, r: &mut Report) -> Result<(), A4nnError> {
    let out = runs.a4nn(BeamIntensity::Medium, 1)?;
    let mut generations: Vec<Vec<Task>> = vec![Vec::new(); out.config.nas.generations];
    for m in &out.commons.records {
        generations[m.generation].push(Task::once(m.model_id, m.wall_time_s));
    }
    for gpus in [1usize, 2, 4, 8] {
        let fifo = schedule_generations(gpus, &generations, TaskOrdering::Fifo);
        let lpt = schedule_generations(gpus, &generations, TaskOrdering::Lpt);
        let values = [
            ("fifo_h", fifo.total_wall_time() / 3600.0),
            ("lpt_h", lpt.total_wall_time() / 3600.0),
            ("fifo_idle_h", fifo.total_idle_tail() / 3600.0),
            ("lpt_idle_h", lpt.total_idle_tail() / 3600.0),
            ("fifo_util_pct", 100.0 * fifo.utilization()),
        ];
        let prefix = format!("ablation.scheduler.gpus{gpus}");
        r.rows(BeamIntensity::Medium, &prefix, &values);
    }
    Ok(())
}

/// §6 "generalized to other NAS implementations": one engine, trainer,
/// scheduler and lineage stack under three NAS drivers.
fn ablation_nas_drivers(
    runs: &mut Runs,
    r: &mut Report,
    beam: BeamIntensity,
) -> Result<(), A4nnError> {
    for (driver, name) in DRIVERS {
        let out = runs.run(driver, WorkflowConfig::a4nn(beam, 1, SEED))?;
        let analyzer = Analyzer::new(&out.commons);
        let best = analyzer.best_by_fitness().map_or(NAN, |m| m.final_fitness);
        // The cheapest model within 1 point of the best accuracy: the
        // efficiency axis only the multi-objective driver optimizes.
        let near_best = out
            .commons
            .records
            .iter()
            .filter(|m| m.final_fitness >= best - 1.0);
        let values = [
            ("best_acc", best),
            (
                "cheapest_near_best_mflops",
                near_best.map(|m| m.flops).fold(NAN, f64::min),
            ),
            ("pareto_size", analyzer.pareto_front()?.len() as f64),
            ("epochs", out.total_epochs() as f64),
            ("saved_pct", out.epochs_saved_pct()),
            ("hours", out.wall_time_s() / 3600.0),
        ];
        r.rows(beam, &format!("ablation.nas_drivers.{name}"), &values);
    }
    Ok(())
}

/// Whether claim `id` holds over the rows; `None` for an unknown id.
fn holds(r: &Report, id: &str) -> Option<bool> {
    let b = |id: &str| r.beams(id);
    let every = |id: &str, f: fn(f64) -> bool| b(id).into_iter().all(f);
    let rising = |v: [f64; 3]| v[0] <= v[1] && v[1] <= v[2];
    let engine = EngineConfig::paper_defaults();
    let e_t = b("fig2.termination_epoch")[1];
    let best = |i: usize| b("fig6.a4nn.best_acc")[i] >= b("fig6.standalone.best_acc")[i];
    let (covered, size) = (
        b("fig6.standalone.dominated"),
        b("fig6.standalone.front_size"),
    );
    let (saved, mean_et, share) = (
        b("fig7.saved_pct"),
        b("fig8.mean_et"),
        b("fig8.terminated_pct"),
    );
    let hours = b("fig9.saved_hours");
    let (per_call, epoch) = (b("overhead.ms_per_interaction"), b("overhead.mean_epoch_s"));
    let (a4nn, xpsi) = (b("table3.a4nn_acc"), b("table3.xpsi_acc"));
    let gap = [0, 1, 2].map(|i| a4nn[i] - xpsi[i]);
    let sweep =
        |n: u32, r: f64, name: &str| b(&format!("ablation.engine_params.n{n}_r{r:.1}.{name}"))[1];
    let traded = |n: u32, [lo, hi]: [f64; 2]| {
        sweep(n, hi, "epochs") < sweep(n, lo, "epochs")
            && sweep(n, hi, "pred_mae") > sweep(n, lo, "pred_mae")
    };
    // The correlations' sign changes from beam to beam; only weakness is claimed.
    let weak = |prefix: &str| {
        let mut rows = r.rows.iter().filter(|row| row.id.starts_with(prefix));
        rows.all(|row| row.measured.abs() < 0.3)
    };
    let beats = |i: usize| {
        let cell = |name: &str| b(&format!("ablation.functions.exp-base.{name}"))[i];
        cell("true_mae") < cell("last_seen_mae")
    };
    let sched = |gpus: u32, name: &str| b(&format!("ablation.scheduler.gpus{gpus}.{name}"))[1];
    let drivers = |name: &str| DRIVERS.map(|(_, d)| b(&format!("ablation.nas_drivers.{d}.{name}")));
    let cost = drivers("cheapest_near_best_mflops");
    let idle = [1, 2, 4, 8].map(|gpus| sched(gpus, "fifo_idle_h"));
    Some(match id {
        "fig2.terminates_mid_training" => {
            (engine.c_min as f64) < e_t && e_t < f64::from(engine.e_pred)
        }
        "fig6.best_acc_matches.low" => best(0),
        "fig6.best_acc_matches.medium" => best(1),
        "fig6.best_acc_matches.high" => best(2),
        "fig6.weak_dominance.low" => covered[0] == size[0],
        "fig6.weak_dominance.medium" => covered[1] == size[1],
        "fig6.weak_dominance.high" => covered[2] == size[2],
        "fig7.all_save" => every("fig7.saved_pct", |s| s > 0.0),
        "fig7.low_least_medium_most" => saved[0] < saved[2] && saved[2] < saved[1],
        "fig7.gpu_invariant" => b("fig7.epochs_4gpu") == b("fig7.epochs"),
        "fig7.standalone_2500" => every("fig7.standalone_epochs", |e| e == 2500.0),
        "fig8.mean_et_falls" => mean_et[0] > mean_et[1] && mean_et[1] > mean_et[2],
        "fig8.medium_most_terminated" => share[1] > share[0] && share[1] > share[2],
        "fig9.low_saves_fewest_hours" => hours[0] < hours[1] && hours[0] < hours[2],
        "fig9.speedup_sublinear" => every("fig9.speedup", |s| 1.0 < s && s < 4.0),
        "overhead.negligible" => (0..3).all(|i| per_call[i] / 1e3 < 0.01 * epoch[i]),
        "table3.a4nn_ge_xpsi" => gap.iter().all(|&g| g >= 0.0),
        "table3.gap_largest_on_low" => gap[0] > gap[1] && gap[0] > gap[2],
        "table3.a4nn_monotone" => rising(a4nn),
        "table3.xpsi_monotone" => rising(xpsi),
        "audit.engine_beats_last_seen.low" => beats(0),
        "audit.engine_beats_last_seen.medium" => beats(1),
        "audit.engine_beats_last_seen.high" => beats(2),
        "ablation.engine_params.r_tradeoff" => [2, 3, 5]
            .into_iter()
            .all(|n| traded(n, [0.1, 0.5]) && traded(n, [0.5, 1.0])),
        "ablation.flops_accuracy.weak" => weak("ablation.flops_accuracy."),
        "ablation.structure.weak" => weak("ablation.structure.r."),
        // On one GPU both orders sum the same durations, in another order.
        "ablation.scheduler.lpt_le_fifo" => [1, 2, 4, 8]
            .into_iter()
            .all(|g| sched(g, "lpt_h") <= sched(g, "fifo_h") * (1.0 + 1e-9)),
        "ablation.scheduler.idle_tail_grows" => idle.windows(2).all(|w| w[0] <= w[1]),
        "ablation.nas_drivers.all_save" => drivers("saved_pct").iter().flatten().all(|&s| s > 0.0),
        "ablation.nas_drivers.nsga_cheapest" => {
            (0..3).all(|i| cost[0][i] < cost[1][i].min(cost[2][i]))
        }
        _ => return None,
    })
}

/// Judges every claim of `CLAIMS` over the rows.
fn claims(r: &Report) -> Result<Vec<Claim>, A4nnError> {
    let mut claims = Vec::new();
    for line in CLAIMS.lines().filter(|line| !line.is_empty()) {
        let bad = || A4nnError::Internal(format!("malformed or unknown claim: {line}"));
        let mut words = line.split_whitespace();
        let (id, expected) = (words.next().ok_or_else(bad)?, words.next().ok_or_else(bad)?);
        let expected = expected.parse().map_err(|_| bad())?;
        let holds = holds(r, id).ok_or_else(bad)?;
        let claim = words.collect::<Vec<_>>().join(" ");
        claims.push(Claim {
            id: id.into(),
            claim,
            holds,
            expected,
        });
    }
    Ok(claims)
}

/// Fails, naming every claim whose result differs from the one recorded
/// beside it.
fn check_claims(claims: &[Claim]) -> Result<(), CommandError> {
    let moved: Vec<&str> = claims
        .iter()
        .filter(|c| c.holds != c.expected)
        .map(|c| c.id.as_str())
        .collect();
    if moved.is_empty() {
        return Ok(());
    }
    let (n, ids) = (moved.len(), moved.join(", "));
    Err(A4nnError::Config(format!(
        "{n} claim(s) differ from their recorded result: {ids}"
    ))
    .into())
}

/// A JSON object from `(key, value)` pairs, in order.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(fields.map(|(k, v)| (k.to_string(), v)).to_vec())
}

/// `a4nn reproduce --out DIR`: measure every row, judge every claim, write
/// `DIR/reproduction.json` and `DIR/runs/`, print one JSON line per row
/// and per claim, and fail (exit 3) if a claim moved.
pub(crate) fn run_reproduce(parsed: &Parsed) -> Result<(), CommandError> {
    let out = PathBuf::from(required(parsed, "--out")?);
    let (mut runs, mut r) = (Runs::default(), Report::default());
    fig2(&mut r)?;
    for beam in BeamIntensity::ALL {
        paper_defaults(&mut runs, &mut r, beam)?;
        table3(&mut runs, &mut r, beam)?;
        ablation_functions(&mut runs, &mut r, beam)?;
        ablation_nas_drivers(&mut runs, &mut r, beam)?;
        let dir = |mode: &str| out.join(format!("runs/{mode}-{}", beam.label()));
        runs.a4nn(beam, 1)?.commons.save_dir(&dir("a4nn"))?;
        runs.standalone(beam)?
            .commons
            .save_dir(&dir("standalone"))?;
    }
    fig10(&mut runs, &mut r)?;
    ablation_engine_params(&mut runs, &mut r)?;
    ablation_scheduler(&mut runs, &mut r)?;
    let claims = claims(&r)?;
    // Stable, so each id keeps its rows in low, medium, high order.
    r.rows.sort_by(|a, b| a.id.cmp(&b.id));

    let text = |s: &str| Value::Str(s.into());
    let rows = r.rows.iter().map(|row| {
        object([
            ("id", text(&row.id)),
            ("beam", text(row.beam.label())),
            ("paper", Value::F64(paper(&row.id, row.beam))),
            ("measured", Value::F64(row.measured)),
        ])
    });
    let judged = claims.iter().map(|c| {
        object([
            ("id", text(&c.id)),
            ("claim", text(&c.claim)),
            ("holds", Value::Bool(c.holds)),
            ("expected", Value::Bool(c.expected)),
        ])
    });
    let (rows, judged): (Vec<Value>, Vec<Value>) = (rows.collect(), judged.collect());
    let path = out.join("reproduction.json");
    let unserializable = |e| A4nnError::Internal(format!("serializing {}: {e}", path.display()));
    for line in rows.iter().chain(&judged) {
        println!("{}", serde_json::to_string(line).map_err(unserializable)?);
    }
    let (n_rows, n_claims) = (rows.len(), judged.len());
    let report = object([
        ("seed", Value::U64(SEED)),
        ("rows", Value::Array(rows)),
        ("claims", Value::Array(judged)),
    ]);
    let json = serde_json::to_vec_pretty(&report).map_err(unserializable)?;
    a4nn_lineage::write_atomic(&path, &json)?;
    let (searches, path) = (runs.0.len(), path.display());
    println!("reproduce: {searches} searches, {n_rows} rows, {n_claims} claims -> {path}");
    check_claims(&claims)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_claim_that_moves_either_way_fails_and_is_named() {
        let claim = |id: &str, holds, expected| Claim {
            id: id.into(),
            claim: String::new(),
            holds,
            expected,
        };
        assert!(check_claims(&[claim("a", true, true), claim("b", false, false)]).is_ok());
        for (holds, expected) in [(true, false), (false, true)] {
            let claims = [
                claim("fig.steady", true, true),
                claim("fig.flipped", holds, expected),
            ];
            let msg = check_claims(&claims).unwrap_err().to_string();
            assert!(
                msg.contains("fig.flipped") && !msg.contains("fig.steady"),
                "{msg}"
            );
        }
    }

    #[test]
    fn every_listed_claim_has_a_predicate() {
        let claims = claims(&Report::default()).unwrap();
        assert_eq!(claims.len(), 30);
        assert_eq!(claims.iter().filter(|c| !c.expected).count(), 4);
    }

    #[test]
    fn asking_twice_for_one_config_runs_it_once() {
        let nas = NasSettings {
            population: 3,
            offspring: 3,
            generations: 2,
            epochs: 6,
            ..NasSettings::paper_defaults()
        };
        let low = WorkflowConfig::a4nn(BeamIntensity::Low, 1, SEED);
        let config = WorkflowConfig { nas, ..low };
        let mut runs = Runs::default();
        let first = runs.run(Driver::Nsga2, config.clone()).unwrap();
        let second = runs.run(Driver::Nsga2, config.clone()).unwrap();
        assert!(Rc::ptr_eq(&first, &second));
        assert_eq!(runs.0.len(), 1);
        runs.run(Driver::Random, config).unwrap();
        assert_eq!(runs.0.len(), 2, "another driver is another search");
    }

    #[test]
    fn harness_runs_are_reproducible() {
        let a = Runs::default().a4nn(BeamIntensity::Medium, 1).unwrap();
        let b = Runs::default().a4nn(BeamIntensity::Medium, 1).unwrap();
        assert_eq!(a.total_epochs(), b.total_epochs());
        assert_eq!(a.wall_time_s(), b.wall_time_s());
    }

    #[test]
    fn standalone_uses_exactly_2500_epochs() {
        let s = Runs::default().standalone(BeamIntensity::Low).unwrap();
        assert_eq!(s.total_epochs(), 2500);
        assert_eq!(s.epochs_saved_pct(), 0.0);
        assert_eq!(Analyzer::new(&s.commons).early_termination_rate(), 0.0);
    }
}
