//! The two `a4nn search` workloads.
//!
//! `search_real_direct` trains real networks in-process: the `nn` kernels
//! and `xfel` synthesis do nearly all the work, persistence and codec
//! next to none. `search_surrogate_socket` evaluates five hundred surrogate
//! models on two worker processes: training is free, so `penguin`
//! fitting, `nsga`, the `net` codec and transport, `core` snapshot commits
//! and `lineage` I/O do the work and `nn` none. The same `core` pipeline
//! runs both.

use crate::harness::{arg, ctx, Ctx, Listener, Outcome, Res};
use crate::json::{self, Json};
use crate::probes;
use crate::stats::median;
use crate::trace::{totals, Tracer};
use a4nn_core::{
    RealTrainerFactory, SurrogateFactory, SurrogateParams, TrainerFactory, TrainingHyperparams,
    WorkflowConfig,
};
use a4nn_lineage::DataCommons;
use a4nn_penguin::{EngineConfig, PredictionEngine};
use a4nn_xfel::{generate_split, BeamIntensity, XfelConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Virtual GPUs of both search workloads.
const GPUS: usize = 2;
/// Fewest repeats of the search in one timed run. The host's noise comes
/// in episodes of several seconds; a median over many short searches
/// shrugs one off where a median over three long ones cannot.
const MIN_REPEATS: usize = 5;
/// Most repeats, so a much faster build cannot make a run unbounded.
const MAX_REPEATS: usize = 24;
/// The files of a run directory that must repeat byte for byte.
const COMMONS_PREFIX: &str = "model_";
/// Record fields that follow the wall clock under real training: the two
/// measured times, and the virtual GPU, which the scheduler assigns from
/// those times.
const MEASURED_FIELDS: [&str; 3] = ["duration_s", "wall_time_s", "gpu"];

/// Size and kind of one search workload.
#[derive(Clone, Copy)]
pub struct Shape {
    /// Train real networks (`--real`) instead of the surrogate.
    pub real: bool,
    /// Evaluate on two `a4nn worker` processes over sockets.
    pub socket: bool,
    /// `--images`: samples per class before the 80/20 split.
    pub images: usize,
    /// `--population`.
    pub population: usize,
    /// `--offspring`.
    pub offspring: usize,
    /// `--generations`.
    pub generations: usize,
    /// `--epochs`.
    pub epochs: u32,
    /// `--seed` passed to `a4nn` whatever the harness seed; see
    /// [`shape_of`].
    pub fixed_seed: Option<u64>,
}

/// The shape of `workload`.
///
/// `a4nn search` has one input, `--seed`, and it selects the
/// architectures that get trained. With real training that decides the
/// work itself: twelve-model searches took 10.5 to 19.1 s across eight
/// seeds on the sizing host, which no regression bound survives. The
/// real-training workload therefore fixes the trajectory as part of its
/// shape, like its population size. Five hundred surrogate models average
/// the architectures out, so that workload takes the harness seed.
pub fn shape_of(workload: &str, smoke: bool) -> Shape {
    let real = workload == "search_real_direct";
    match (real, smoke) {
        (true, false) => Shape {
            real,
            socket: false,
            images: 16,
            population: 6,
            offspring: 6,
            generations: 2,
            epochs: 20,
            fixed_seed: Some(2023),
        },
        (true, true) => Shape {
            real,
            socket: false,
            images: 8,
            population: 3,
            offspring: 3,
            generations: 2,
            epochs: 6,
            fixed_seed: Some(2023),
        },
        (false, false) => Shape {
            real,
            socket: true,
            images: 0,
            population: 50,
            offspring: 50,
            generations: 10,
            epochs: 25,
            fixed_seed: None,
        },
        (false, true) => Shape {
            real,
            socket: true,
            images: 0,
            population: 10,
            offspring: 10,
            generations: 4,
            epochs: 25,
            fixed_seed: None,
        },
    }
}

impl Shape {
    /// Models one search evaluates.
    pub fn models(&self) -> u64 {
        self.config(0).nas.total_models() as u64
    }

    /// The `--seed` the program under test receives.
    pub fn a4nn_seed(&self, seed: u64) -> u64 {
        self.fixed_seed.unwrap_or(seed)
    }

    /// The configuration the CLI derives from [`args`](Self::args);
    /// snapshots only load under an identical one.
    pub fn config(&self, seed: u64) -> WorkflowConfig {
        let mut cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, GPUS, self.a4nn_seed(seed));
        cfg.nas.population = self.population;
        cfg.nas.offspring = self.offspring;
        cfg.nas.generations = self.generations;
        cfg.nas.epochs = self.epochs;
        if let Some(engine) = &mut cfg.engine {
            engine.e_pred = self.epochs;
        }
        cfg
    }

    /// `a4nn search` arguments; every flag not listed keeps its default.
    pub fn args(
        &self,
        seed: u64,
        orchestration: &str,
        workers: Option<&str>,
        out: Option<&Path>,
    ) -> Vec<String> {
        let mut a = vec!["search".to_string()];
        let mut flag = |name: &str, value: String| {
            a.push(name.to_string());
            a.push(value);
        };
        flag("--beam", "medium".into());
        flag("--seed", self.a4nn_seed(seed).to_string());
        flag("--population", self.population.to_string());
        flag("--offspring", self.offspring.to_string());
        flag("--generations", self.generations.to_string());
        flag("--epochs", self.epochs.to_string());
        flag("--gpus", GPUS.to_string());
        flag("--orchestration", orchestration.into());
        if let Some(w) = workers {
            flag("--workers", w.into());
        }
        if let Some(dir) = out {
            flag("--out", arg(dir));
        }
        if self.real {
            flag("--images", self.images.to_string());
            a.push("--real".into());
        }
        a
    }

    /// The workload's first generation alone, in-process and cut to three
    /// epochs when training is real: it pages the binary in and runs every
    /// code path of the search once.
    fn warm_up_args(&self, seed: u64) -> Vec<String> {
        Shape {
            generations: 1,
            epochs: if self.real { 3 } else { self.epochs },
            ..*self
        }
        .args(seed, "direct", None, None)
    }
}

/// One search from spawn to exit.
pub struct SearchRun {
    /// Warm-up plus, over sockets, workers spawned and listening.
    pub setup_s: f64,
    /// Spawn to exit of `a4nn search`.
    pub wall_s: f64,
    /// User plus system CPU of the search and its workers.
    pub cpu_s: f64,
    /// Largest peak resident set among those processes, MB.
    pub peak_rss_mb: f64,
    /// Whether the search and every worker exited with 0.
    pub exit_ok: bool,
}

/// Run one search under `orchestration`, writing to `out` if given.
pub fn search_once(
    ctx_: &Ctx,
    shape: &Shape,
    seed: u64,
    orchestration: &str,
    out: Option<&Path>,
) -> Res<SearchRun> {
    let t0 = Instant::now();
    ctx_.run_a4nn(&shape.warm_up_args(seed))?;
    let mut workers: Vec<Listener> = Vec::new();
    if orchestration == "socket" {
        for _ in 0..GPUS {
            workers.push(ctx_.spawn_listener(&[
                "worker".into(),
                "--listen".into(),
                "127.0.0.1:0".into(),
                "--gpus".into(),
                "1".into(),
                "--sessions".into(),
                "1".into(),
            ])?);
        }
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let addrs: Vec<&str> = workers.iter().map(|w| w.addr.as_str()).collect();
    let joined = addrs.join(",");
    let args = shape.args(
        seed,
        orchestration,
        (!workers.is_empty()).then_some(joined.as_str()),
        out,
    );
    let (wall_s, usage) = ctx_.run_a4nn(&args)?;
    let mut run = SearchRun {
        setup_s,
        wall_s,
        cpu_s: usage.cpu_s,
        peak_rss_mb: usage.peak_rss_mb,
        exit_ok: usage.exit_code == Some(0),
    };
    for w in workers {
        // A worker leaves after its one session; one that lingers is
        // killed and counts as a failed exit.
        let (usage, killed) = w.finish(Duration::from_secs(5))?;
        run.cpu_s += usage.cpu_s;
        run.peak_rss_mb = run.peak_rss_mb.max(usage.peak_rss_mb);
        run.exit_ok &= !killed && usage.exit_code == Some(0);
    }
    Ok(run)
}

/// What a run's commons says about the search it records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Models evaluated.
    pub models: u64,
    /// Epochs trained over all models.
    pub epochs: u64,
    /// Models the engine terminated early.
    pub early: u64,
    /// Models that ended as `Terminated::Failed`.
    pub failed: u64,
    /// Highest final fitness, percent.
    pub best_fitness: f64,
}

/// Summarise `commons`.
pub fn summarize(commons: &DataCommons) -> Summary {
    let r = &commons.records;
    Summary {
        models: r.len() as u64,
        epochs: r.iter().map(|m| m.epochs.len() as u64).sum(),
        early: r.iter().filter(|m| m.terminated_early()).count() as u64,
        failed: r.iter().filter(|m| m.failed()).count() as u64,
        best_fitness: r
            .iter()
            .map(|m| m.final_fitness)
            .filter(|f| !f.is_nan())
            .fold(0.0, f64::max),
    }
}

impl Summary {
    /// Share of the epoch budget the engine saved, percent.
    pub fn epochs_saved_pct(&self, budget: u32) -> f64 {
        100.0 * (1.0 - self.epochs as f64 / (self.models * u64::from(budget)).max(1) as f64)
    }
}

fn strip_measured(v: &mut Json) {
    match v {
        Json::Object(fields) => {
            fields.retain(|(k, _)| !MEASURED_FIELDS.contains(&k.as_str()));
            fields.iter_mut().for_each(|(_, v)| strip_measured(v));
        }
        Json::Array(items) => items.iter_mut().for_each(strip_measured),
        _ => {}
    }
}

/// Compare the record trails and manifest of two run directories.
///
/// Surrogate runs must agree byte for byte. Real training records the
/// wall time of every epoch, so there [`MEASURED_FIELDS`] are dropped and
/// everything else (accuracies, predictions, verdicts) must be equal.
pub fn compare_commons(a: &Path, b: &Path, measured_times: bool) -> Res<(usize, Vec<String>)> {
    let mut names: Vec<String> = ctx(std::fs::read_dir(a), "listing run directory")?
        .filter_map(|e| e.ok()?.file_name().into_string().ok())
        .filter(|n| n.starts_with(COMMONS_PREFIX) || n == "manifest.json")
        .collect();
    names.sort();
    let mut differing = Vec::new();
    for name in &names {
        let same = if measured_times {
            match (json::read(&a.join(name)), json::read(&b.join(name))) {
                (Ok(mut x), Ok(mut y)) => {
                    strip_measured(&mut x);
                    strip_measured(&mut y);
                    x == y
                }
                _ => false,
            }
        } else {
            match (std::fs::read(a.join(name)), std::fs::read(b.join(name))) {
                (Ok(x), Ok(y)) => x == y,
                _ => false,
            }
        };
        if !same {
            differing.push(name.clone());
        }
    }
    Ok((names.len(), differing))
}

/// Counter `name` from a run's `metrics.csv`.
fn metrics_counter(dir: &Path, name: &str) -> Option<f64> {
    let csv = std::fs::read_to_string(dir.join("metrics.csv")).ok()?;
    let row = csv.lines().find(|l| l.starts_with(&format!("{name},")))?;
    row.split(',').nth(2)?.parse().ok()
}

/// Column `name` of the single data row of `transport_stats.csv`.
fn transport_stat(dir: &Path, name: &str) -> Option<f64> {
    let csv = std::fs::read_to_string(dir.join("transport_stats.csv")).ok()?;
    let mut lines = csv.lines();
    let col = lines.next()?.split(',').position(|c| c == name)?;
    lines.next()?.split(',').nth(col)?.parse().ok()
}

/// `a4nn export` both directories and compare the two CSV files.
fn exports_equal(ctx_: &Ctx, a: &Path, b: &Path, scratch: &Path) -> Res<bool> {
    let mut exported = Vec::new();
    for (commons, label) in [(a, "export-a"), (b, "export-b")] {
        let dir = scratch.join(label);
        let (_, usage) = ctx_.run_a4nn(&[
            "export".into(),
            "--commons".into(),
            arg(commons),
            "--out".into(),
            arg(&dir),
        ])?;
        if usage.exit_code != Some(0) {
            return Err(format!("a4nn export exited with {:?}", usage.exit_code));
        }
        exported.push(dir);
    }
    for file in ["models.csv", "epochs.csv"] {
        let x = ctx(std::fs::read(exported[0].join(file)), "reading export")?;
        let y = ctx(std::fs::read(exported[1].join(file)), "reading export")?;
        if x != y || x.is_empty() {
            return Ok(false);
        }
    }
    Ok(true)
}

fn orchestration(shape: &Shape) -> &'static str {
    if shape.socket {
        "socket"
    } else {
        "direct"
    }
}

/// The timed run: the search repeated in fresh processes until `seconds`
/// have passed (at least [`MIN_REPEATS`] times), medians over repeats.
pub fn run_timed(ctx_: &Ctx, workload: &str, seed: u64, seconds: f64) -> Res<Outcome> {
    let shape = shape_of(workload, ctx_.smoke);
    let scratch = ctx_.scratch(&format!("{workload}-{seed}"))?;
    let min_repeats = if ctx_.smoke { 2 } else { MIN_REPEATS };
    let mut runs = Vec::new();
    let mut dirs: Vec<PathBuf> = Vec::new();
    // One whole search, discarded: the first run after the host has been
    // idle takes up to twice as long as the ones that follow.
    search_once(ctx_, &shape, seed, "direct", None)?;
    let t0 = Instant::now();
    while runs.len() < min_repeats
        || (t0.elapsed().as_secs_f64() < seconds && runs.len() < MAX_REPEATS)
    {
        let dir = scratch.join(format!("run{}", runs.len()));
        runs.push(search_once(
            ctx_,
            &shape,
            seed,
            orchestration(&shape),
            Some(&dir),
        )?);
        dirs.push(dir);
    }

    let mut out = Outcome::default();
    let models = shape.models() as f64;
    let per_model_ms = |f: fn(&SearchRun) -> f64| -> Vec<f64> {
        runs.iter().map(|r| f(r) * 1e3 / models).collect()
    };
    out.set(
        "setup_s",
        median(&runs.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
    );
    out.set("wall_ms_per_op", median(&per_model_ms(|r| r.wall_s)));
    out.set("cpu_ms_per_op", median(&per_model_ms(|r| r.cpu_s)));
    out.set(
        "peak_rss_mb",
        median(&runs.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
    );

    let exits_ok = runs.iter().all(|r| r.exit_ok);
    out.gate(
        "search_exit_codes",
        exits_ok,
        format!(
            "{} searches, every process exited 0: {exits_ok}",
            runs.len()
        ),
    );
    let mut summaries = Vec::new();
    for dir in &dirs {
        let commons = ctx(DataCommons::load_dir(dir), "loading run commons")?;
        summaries.push((summarize(&commons), metrics_counter(dir, "jobs_dispatched")));
    }
    let (first, _) = summaries[0];
    out.attempted = shape.models() * runs.len() as u64;
    out.failed = summaries.iter().map(|(s, _)| s.failed).sum();
    if !exits_ok {
        out.failed = out.attempted;
    }
    out.gate(
        "exact_counts_repeat",
        summaries.iter().all(|s| *s == summaries[0]) && first.models == shape.models(),
        format!(
            "models {}, epochs {}, early terminations {}, jobs {:?} on every repeat",
            first.models, first.epochs, first.early, summaries[0].1
        ),
    );
    let mut differing = Vec::new();
    let mut files = 0;
    for (repeat, dir) in dirs.iter().enumerate().skip(1) {
        let (compared, differs) = compare_commons(&dirs[0], dir, shape.real)?;
        files = compared;
        differing.extend(differs.into_iter().map(|f| format!("run{repeat}/{f}")));
    }
    out.gate(
        "repeats_byte_identical",
        differing.is_empty() && files as u64 == shape.models() + 1,
        format!(
            "{files} files of each of {} repeats compared with the first, differing: {differing:?}",
            dirs.len() - 1
        ),
    );
    if shape.socket {
        let direct = scratch.join("direct");
        let run = search_once(ctx_, &shape, seed, "direct", Some(&direct))?;
        let equal = run.exit_ok && exports_equal(ctx_, &dirs[0], &direct, &scratch)?;
        out.gate(
            "socket_export_equals_direct",
            equal,
            "models.csv and epochs.csv of the socket and the direct run",
        );
    }
    Ok(out)
}

/// What replaying a commons through the library measured.
pub struct Replay {
    /// Epochs whose replayed accuracies or prediction differ from the record.
    pub mismatches: u64,
    /// Epochs replayed.
    pub epochs: u64,
    /// Wall seconds of the whole replay.
    pub wall_s: f64,
    /// Training samples seen (epochs times training images); 0 for the surrogate.
    pub train_samples: u64,
}

/// Replay the recorded search through the crates' public functions, one
/// span per call: per model decode and build, `train_epoch` for exactly
/// the recorded number of epochs, the engine's `observe` and `step`; per
/// generation the NSGA calls; at the end `save_dir`.
pub fn replay(
    shape: &Shape,
    seed: u64,
    commons: &DataCommons,
    save_to: &Path,
    tracer: &mut Tracer,
) -> Res<Replay> {
    let t0 = Instant::now();
    let cfg = shape.config(seed);
    // The pipeline gives each of its workers this share of the cores for
    // the GEMM kernels; the replay trains one model at a time under the
    // same budget, so a replayed epoch costs what a searched one did.
    a4nn_nn::gemm::set_thread_budget(a4nn_sched::intra_op_threads(cfg.gpus));
    let mut train_images = 0u64;
    let factory: Box<dyn TrainerFactory> = if shape.real {
        let (train, val) = tracer.span("xfel.generate_split", 0, |_| {
            generate_split(&XfelConfig::default(), cfg.beam, shape.images, cfg.seed)
        });
        train_images = train.len() as u64;
        Box::new(RealTrainerFactory::new(
            cfg.search_space(),
            Arc::new(train),
            Arc::new(val),
            TrainingHyperparams::default(),
        ))
    } else {
        Box::new(SurrogateFactory::new(
            &cfg,
            SurrogateParams::for_beam(cfg.beam),
        ))
    };
    let engine_cfg: EngineConfig = cfg.engine.clone().ok_or("workload runs without engine")?;

    let mut mismatches = 0u64;
    let mut epochs = 0u64;
    for record in &commons.records {
        let op = record.model_id;
        tracer.span("core.model", op, |tracer| {
            let mut trainer = tracer.span("core.trainer_make", op, |_| {
                factory.make(&record.genome, record.model_id, cfg.seed)
            });
            let mut engine = PredictionEngine::new(engine_cfg.clone());
            for recorded in &record.epochs {
                let result = tracer.span("nn.train_epoch", op, |_| {
                    trainer.train_epoch(recorded.epoch)
                });
                let prediction = tracer.span("penguin.observe_step", op, |_| {
                    engine.observe(recorded.epoch, result.val_acc);
                    engine.step();
                    engine.predictions().last().copied().flatten()
                });
                let same = result.val_acc.to_bits() == recorded.val_acc.to_bits()
                    && result.train_acc.to_bits() == recorded.train_acc.to_bits()
                    && prediction.map(f64::to_bits) == recorded.prediction.map(f64::to_bits);
                mismatches += u64::from(!same);
                epochs += 1;
            }
        });
    }

    tracer.span("nsga.select", 0, |_| {
        probes::nsga_generations(&commons.records, shape.population)
    });
    tracer.span("lineage.save_dir", 0, |_| {
        ctx(commons.save_dir(save_to), "saving replayed commons")
    })?;
    a4nn_nn::gemm::set_thread_budget(0);
    Ok(Replay {
        mismatches,
        epochs,
        wall_s: t0.elapsed().as_secs_f64(),
        train_samples: epochs * train_images,
    })
}

/// The traced run of a search workload. Returns the outcome, the run
/// directory the probes should read, and the replay's spans.
pub fn run_traced(ctx_: &Ctx, workload: &str, seed: u64) -> Res<(Outcome, PathBuf, Tracer)> {
    let shape = shape_of(workload, ctx_.smoke);
    let scratch = ctx_.scratch(&format!("{workload}-{seed}-trace"))?;
    let mut out = Outcome::default();

    // The run being explained, tracing off.
    let dir = scratch.join("run");
    let run = search_once(ctx_, &shape, seed, orchestration(&shape), Some(&dir))?;
    out.gate(
        "search_exit_codes",
        run.exit_ok,
        "the explained search exited 0",
    );
    let commons = ctx(DataCommons::load_dir(&dir), "loading run commons")?;
    let summary = summarize(&commons);
    out.attempted = summary.models;
    out.failed = if run.exit_ok {
        summary.failed
    } else {
        summary.models
    };

    // The same search through the library: once silent, once with spans.
    let origin = Instant::now();
    let silent = replay(
        &shape,
        seed,
        &commons,
        &scratch.join("replay-silent"),
        &mut Tracer::new(origin, false),
    )?;
    let mut tracer = Tracer::new(origin, true);
    let traced = replay(
        &shape,
        seed,
        &commons,
        &scratch.join("replay-traced"),
        &mut tracer,
    )?;
    out.gate(
        "replay_reproduces_recorded_accuracy",
        silent.mismatches == 0 && traced.mismatches == 0 && traced.epochs == summary.epochs,
        format!(
            "{} epochs replayed twice, {} differ from the record",
            traced.epochs,
            silent.mismatches + traced.mismatches
        ),
    );
    out.set("trace_overhead_share", traced.wall_s / silent.wall_s - 1.0);

    let by_name = totals(tracer.spans());
    let self_s = |name: &str| by_name.get(name).map_or(0.0, |t| t.self_s);
    let train_s = self_s("nn.train_epoch");
    if shape.real {
        out.set("nn.train_epoch_s", train_s);
        out.set(
            "nn.train_samples_per_s",
            traced.train_samples as f64 / train_s,
        );
    }
    let step_s = self_s("penguin.observe_step");
    out.set("penguin.step_s", step_s);
    out.set(
        "penguin.step_us_per_call",
        step_s * 1e6 / traced.epochs.max(1) as f64,
    );
    let select_s = self_s("nsga.select");
    out.set("nsga.select_s", select_s);
    out.set(
        "nsga.sort_us_per_gen",
        select_s * 1e6 / shape.generations as f64,
    );

    out.set(
        "core.fail_share",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.set(
        "core.jobs",
        metrics_counter(&dir, "jobs_dispatched").unwrap_or(0.0),
    );
    out.set(
        "core.retries",
        metrics_counter(&dir, "retries").unwrap_or(0.0),
    );
    out.set(
        "core.round_trip_ms_mean",
        transport_stat(&dir, "round_trip_mean_s").unwrap_or(0.0) * 1e3,
    );
    out.set(
        "core.queue_wait_ms_mean",
        transport_stat(&dir, "queue_wait_mean_s").unwrap_or(0.0) * 1e3,
    );
    out.set(
        "core.parallel_share",
        run.cpu_s / (run.wall_s * GPUS.min(ctx_.cores) as f64),
    );

    // Busy time the replay attributes to a layer: every span's self time
    // except the per-model envelope, which is the loop around the calls.
    let mut attributed: f64 = by_name
        .iter()
        .filter(|(name, _)| **name != "core.model")
        .map(|(_, t)| t.self_s)
        .sum();
    if shape.socket {
        // Persistence and the two transports happen inside the processes
        // under test; differences between whole CLI runs stand in for them.
        let configs = [
            ("direct", false),
            ("direct", true),
            ("bus", false),
            ("socket", true),
        ];
        let mut wall = [0.0; 4];
        for (slot, (mode, persist)) in configs.into_iter().enumerate() {
            let dir = scratch.join(format!("diff-{mode}-{persist}"));
            let r = search_once(ctx_, &shape, seed, mode, persist.then_some(dir.as_path()))?;
            if !r.exit_ok {
                return Err(format!("differential {mode} search failed"));
            }
            wall[slot] = r.wall_s;
        }
        let [direct, direct_out, bus, socket_out] = wall;
        out.set("core.persist_s", direct_out - direct);
        out.set("bus.overhead_s", bus - direct);
        out.set("net.socket_overhead_s", socket_out - direct_out);
        attributed += (direct_out - direct).max(0.0) + (socket_out - direct_out).max(0.0);
    }
    out.set("core.unattributed_share", 1.0 - attributed / run.cpu_s);
    Ok((out, dir, tracer))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_fields_are_dropped_at_every_depth() {
        let mut v = serde_json::parse(
            r#"{"model_id": 3, "wall_time_s": 1.5, "gpu": 1,
                "epochs": [{"epoch": 1, "val_acc": 50.0, "duration_s": 0.2}]}"#,
        )
        .unwrap();
        strip_measured(&mut v);
        let expected =
            serde_json::parse(r#"{"model_id": 3, "epochs": [{"epoch": 1, "val_acc": 50.0}]}"#)
                .unwrap();
        assert_eq!(v, expected);
    }

    #[test]
    fn shapes_evaluate_the_documented_number_of_models() {
        assert_eq!(shape_of("search_real_direct", false).models(), 12);
        assert_eq!(shape_of("search_surrogate_socket", false).models(), 500);
        let args = shape_of("search_real_direct", false).args(7, "direct", None, None);
        // The real-training trajectory does not follow the harness seed.
        let at = args.iter().position(|a| a == "--seed").unwrap();
        assert_eq!(args[at + 1], "2023");
        assert!(args.contains(&"--real".to_string()));
        let args = shape_of("search_surrogate_socket", false).args(7, "socket", Some("a,b"), None);
        let at = args.iter().position(|a| a == "--seed").unwrap();
        assert_eq!(args[at + 1], "7");
        assert!(!args.contains(&"--real".to_string()) && !args.contains(&"--out".to_string()));
    }
}
