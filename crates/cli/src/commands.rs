//! Subcommand implementations: thin compositions of the library crates.

use crate::args::{ArgError, Command, Parsed, USAGE};
use a4nn_core::prelude::*;
use a4nn_core::{RealTrainerFactory, SurrogateFactory, SurrogateParams, TrainingHyperparams};
use a4nn_genome::viz::{render_ascii, render_dot};
use a4nn_lineage::{Analyzer, DataCommons};
use a4nn_net::{SocketOptions, SocketTransport, WorkerServer};
use a4nn_penguin::ParametricCurve;
use a4nn_xfel::generate_split;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Errors surfaced to the user by the subcommands.
#[derive(Debug)]
pub enum CommandError {
    /// Argument-level problem discovered during dispatch.
    Args(ArgError),
    /// A value outside its domain (e.g. unknown beam name).
    Invalid(String),
    /// Filesystem failure.
    Io(std::io::Error),
    /// The workflow machinery failed (see [`A4nnError`]).
    Workflow(A4nnError),
}

impl CommandError {
    /// Process exit code for this error: 2 = argument parsing, 3 = invalid
    /// value, 4 = I/O, and a workflow error's class-specific code from the
    /// table on [`A4nnError::exit_code`] (7 is retired).
    pub fn exit_code(&self) -> i32 {
        match self {
            CommandError::Args(_) => 2,
            CommandError::Invalid(_) => 3,
            CommandError::Io(_) => 4,
            CommandError::Workflow(e) => e.exit_code(),
        }
    }
}

impl fmt::Display for CommandError {
    fmt_impl!();
}

macro_rules! fmt_impl {
    () => {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                CommandError::Args(e) => write!(f, "{e}"),
                CommandError::Invalid(msg) => write!(f, "{msg}"),
                CommandError::Io(e) => write!(f, "io: {e}"),
                CommandError::Workflow(e) => write!(f, "{e}"),
            }
        }
    };
}
use fmt_impl;

impl std::error::Error for CommandError {}

impl From<ArgError> for CommandError {
    fn from(e: ArgError) -> Self {
        CommandError::Args(e)
    }
}

impl From<std::io::Error> for CommandError {
    fn from(e: std::io::Error) -> Self {
        CommandError::Io(e)
    }
}

impl From<A4nnError> for CommandError {
    fn from(e: A4nnError) -> Self {
        CommandError::Workflow(e)
    }
}

fn beam_of(parsed: &Parsed) -> Result<BeamIntensity, CommandError> {
    match parsed.get("--beam").unwrap_or("medium") {
        "low" => Ok(BeamIntensity::Low),
        "medium" => Ok(BeamIntensity::Medium),
        "high" => Ok(BeamIntensity::High),
        other => Err(CommandError::Invalid(format!(
            "unknown beam {other:?} (expected low|medium|high)"
        ))),
    }
}

/// Images per class when `--images` is absent.
const DEFAULT_IMAGES: usize = 100;

/// `--images`, refused below `min`: training passes 2, since fewer images
/// per class leave a half of the 80/20 split empty.
fn images_of(parsed: &Parsed, min: usize) -> Result<usize, CommandError> {
    let images = parsed.get_parse("--images", DEFAULT_IMAGES, "usize")?;
    if images < min {
        return Err(CommandError::Invalid(format!(
            "--images {images}: training needs at least {min} images per class"
        )));
    }
    Ok(images)
}

fn family_of(name: &str) -> Result<CurveFamily, CommandError> {
    CurveFamily::ALL
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| CommandError::Invalid(format!("unknown parametric function {name:?}")))
}

fn workflow_config(parsed: &Parsed, engine: bool) -> Result<WorkflowConfig, CommandError> {
    let beam = beam_of(parsed)?;
    let seed = parsed.get_parse("--seed", 2023u64, "u64")?;
    let nas = NasSettings {
        population: parsed.get_parse("--population", 10usize, "usize")?,
        offspring: parsed.get_parse("--offspring", 10usize, "usize")?,
        generations: parsed.get_parse("--generations", 10usize, "usize")?,
        epochs: parsed.get_parse("--epochs", 25u32, "u32")?,
        ..NasSettings::paper_defaults()
    };
    let engine = if engine {
        let mut cfg = EngineConfig::paper_defaults();
        if let Some(name) = parsed.get("--function") {
            cfg.family = family_of(name)?;
        }
        cfg.e_pred = parsed.get_parse("--e-pred", nas.epochs, "u32")?;
        cfg.n_converge = parsed.get_parse("--n-converge", 3usize, "usize")?;
        cfg.r = parsed.get_parse("--r", 0.5f64, "f64")?;
        Some(cfg)
    } else {
        None
    };
    // Typed registry lookup: an unknown objective name lists the whole
    // registry in the error and exits 3 before any search state exists.
    let objectives = match parsed.get("--objectives") {
        None => ObjectiveSet::default(),
        Some(spec) => ObjectiveSet::parse(spec)?,
    };
    Ok(WorkflowConfig {
        nas,
        engine,
        gpus: parsed.get_parse("--gpus", 1usize, "usize")?,
        beam,
        seed,
        objectives,
    })
}

/// Print one Pareto front, one `name=value` cell per configured
/// objective (legacy records fall back to the `(neg_fitness, flops)`
/// pair), sorted by FLOPs for a stable, cheap-to-expensive reading.
fn print_objective_front(analyzer: &Analyzer<'_>) -> Result<(), CommandError> {
    let mut front = analyzer.pareto_front()?;
    front.sort_by(|a, b| a.flops.total_cmp(&b.flops));
    for r in front {
        let cells: Vec<String> = r
            .objective_labels()
            .iter()
            .zip(r.objective_vector())
            .map(|(name, value)| format!("{name}={value:.3}"))
            .collect();
        println!(
            "  model {:>3} | {:>6.2}% | {}",
            r.model_id,
            r.final_fitness,
            cells.join("  ")
        );
    }
    Ok(())
}

fn run_search(parsed: &Parsed, engine: bool) -> Result<(), CommandError> {
    let config = workflow_config(parsed, engine)?;
    let mode = parsed.get("--orchestration").unwrap_or("direct");
    let retries = parsed.get_parse("--max-retries", 2u32, "u32")?;
    let tolerance = FaultTolerance::new(RetryPolicy::with_retries(retries), FaultPlan::none());
    let workflow = A4nnWorkflow::new(config.clone());
    if mode == "socket" && parsed.flag("--real") {
        return Err(CommandError::Invalid(
            "--real is not available over --orchestration socket; workers train the \
             deterministic surrogate rebuilt from the shipped configuration"
                .into(),
        ));
    }

    // Resume + snapshot wiring. The run directory (--out, or the
    // --resume dir when --out is absent) receives each generation's
    // records (the commons) and a search-state snapshot at every
    // generation boundary, so a killed process leaves a readable commons
    // and can continue bit-for-bit with `--resume <dir>` and identical
    // flags.
    let resume_dir = parsed.get("--resume").map(PathBuf::from);
    if resume_dir.is_some() && parsed.flag("--real") {
        return Err(CommandError::Invalid(
            "--resume is not available with --real: the training dataset is not part \
             of the snapshot's configuration fingerprint"
                .into(),
        ));
    }
    let out_dir = parsed
        .get("--out")
        .map(PathBuf::from)
        .or_else(|| resume_dir.clone());
    let snapshot = resume_dir
        .as_deref()
        .map(|dir| SearchSnapshot::load(dir, &config))
        .transpose()
        .map_err(CommandError::Workflow)?;
    if let Some(snap) = &snapshot {
        println!(
            "resuming from {} ({} of {} generation(s) already committed)",
            resume_dir
                .as_deref()
                .unwrap_or(std::path::Path::new("?"))
                .display(),
            snap.generations_done,
            config.nas.generations
        );
    }
    // CI kill-window knob: stall each generation boundary by this many
    // milliseconds so an external SIGKILL can land mid-run. Wall-clock
    // only — the search results are unaffected.
    let boundary_delay_ms = std::env::var("A4NN_SEARCH_GEN_DELAY_MS")
        .ok()
        .and_then(|raw| raw.parse::<u64>().ok())
        .unwrap_or(0);
    let pacing = move |_done: usize| {
        if boundary_delay_ms > 0 {
            std::thread::sleep(std::time::Duration::from_millis(boundary_delay_ms));
        }
        false
    };
    let mut control = RunControl::default();
    if let Some(dir) = &out_dir {
        control.snapshot_dir = Some(dir.clone());
    }
    if boundary_delay_ms > 0 {
        control = control.with_cancel(&pacing);
    }
    let socket;
    let transport: &dyn Transport = match mode {
        "direct" => &DirectTransport,
        "bus" => &BusTransport,
        "socket" => {
            let workers: Vec<String> = parsed
                .get("--workers")
                .ok_or_else(|| {
                    CommandError::Invalid(
                        "--orchestration socket requires --workers <addr,...> \
                         (e.g. --workers 10.0.0.2:7070,10.0.0.3:7070)"
                            .into(),
                    )
                })?
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(String::from)
                .collect();
            let heartbeat_ms = parsed.get_parse("--heartbeat-ms", 2000u64, "u64")?;
            socket = SocketTransport::connect(
                &workers,
                &config,
                &tolerance,
                SocketOptions {
                    heartbeat_deadline: std::time::Duration::from_millis(heartbeat_ms.max(1)),
                },
            )?;
            println!(
                "sharding across {} worker(s), {} advertised GPU slot(s)",
                socket.worker_count(),
                socket.total_gpus()
            );
            &socket
        }
        _ => {
            return Err(ArgError::BadValue {
                flag: "--orchestration".into(),
                value: mode.into(),
                expected: "orchestration (direct|bus|socket)",
            }
            .into())
        }
    };
    let factory: Box<dyn TrainerFactory> = if parsed.flag("--real") {
        let images = images_of(parsed, 2)?;
        let (train, test) =
            generate_split(&XfelConfig::default(), config.beam, images, config.seed);
        println!(
            "training for real: {} train / {} validation images",
            train.len(),
            test.len()
        );
        Box::new(RealTrainerFactory::new(
            config.search_space(),
            Arc::new(train),
            Arc::new(test),
            TrainingHyperparams::default(),
        ))
    } else {
        Box::new(SurrogateFactory::new(
            &config,
            SurrogateParams::for_beam(config.beam),
        ))
    };
    let output = workflow.run(
        factory.as_ref(),
        RunOptions {
            transport,
            fault_tolerance: tolerance,
            control,
            resume: snapshot,
            ..RunOptions::default()
        },
    )?;

    let analyzer = Analyzer::new(&output.commons);
    println!(
        "evaluated {} architectures in {:.2} simulated hours ({} epochs, {:.1}% saved)",
        output.commons.len(),
        output.wall_time_s() / 3600.0,
        output.total_epochs(),
        output.epochs_saved_pct()
    );
    if engine {
        println!(
            "engine: {:.0}% of models terminated early; overhead {:.3}s total",
            100.0 * analyzer.early_termination_rate(),
            output.engine_seconds
        );
    }
    if !output.fault_stats.is_quiet() {
        println!(
            "faults: {} retries consumed; {} models recovered, {} failed terminally",
            output.fault_stats.retries,
            output.fault_stats.models_recovered,
            output.fault_stats.models_failed
        );
    }
    if output.transport_stats.jobs_dispatched > 0 {
        println!("{}", output.transport_stats.summary_line());
    }
    println!("Pareto front ({}):", config.objectives);
    print_objective_front(&analyzer)?;
    if let Some(dir) = &out_dir {
        // Every generation boundary already committed its records to
        // the commons in `dir`. The run bookkeeping is written beside
        // it, never into it, so it can never perturb the golden commons
        // bytes the equivalence suite pins. All of it goes through
        // write_atomic: a kill during export must not leave a
        // half-written file next to a committed commons.
        a4nn_lineage::write_atomic(
            &dir.join("transport_stats.csv"),
            output.transport_stats.to_csv().as_bytes(),
        )?;
        a4nn_lineage::write_atomic(&dir.join("metrics.csv"), output.metrics.to_csv().as_bytes())?;
        a4nn_lineage::write_atomic(&dir.join("metrics.json"), &output.metrics.to_json()?)?;
        a4nn_lineage::write_atomic(
            &dir.join("retries.csv"),
            a4nn_lineage::retries_csv(&output.commons.records).as_bytes(),
        )?;
        println!("commons written to {}", dir.display());
    }
    Ok(())
}

/// `a4nn stats`: summarize a run directory offline — the artifacts a
/// search committed (`metrics.json`, `retries.csv`, the resume
/// manifest, and the commons), without running anything.
fn run_stats(parsed: &Parsed) -> Result<(), CommandError> {
    let dir = PathBuf::from(
        parsed
            .get("--run")
            .ok_or_else(|| CommandError::Invalid("--run <dir> is required".into()))?,
    );
    let mut found_any = false;

    let manifest_path = dir.join("resume_manifest.json");
    if let Ok(bytes) = std::fs::read(&manifest_path) {
        found_any = true;
        let manifest: a4nn_core::resume::ResumeManifest =
            serde_json::from_slice(&bytes).map_err(|e| {
                CommandError::Workflow(A4nnError::Checkpoint(format!(
                    "parsing {}: {e}",
                    manifest_path.display()
                )))
            })?;
        println!(
            "resume state : generation boundary {} committed (config {:016x}, {})",
            manifest.generations_done, manifest.config_hash, manifest.state_file
        );
    }

    if let Ok(commons) = DataCommons::load_dir(&dir) {
        found_any = true;
        let analyzer = Analyzer::new(&commons);
        println!(
            "commons      : {} record trails, {} epochs, {:.0}% early terminations",
            commons.len(),
            analyzer.total_epochs(),
            100.0 * analyzer.early_termination_rate()
        );
        if let Some(r) = commons.records.first() {
            println!(
                "objectives   : {} ({} model(s) on the front)",
                r.objective_labels().join(","),
                analyzer.pareto_front()?.len()
            );
        }
    }

    if let Ok(bytes) = std::fs::read(dir.join("metrics.json")) {
        found_any = true;
        let metrics = MetricsSnapshot::from_json(&bytes)?;
        println!("metrics      :");
        for line in metrics.to_csv().lines().skip(1) {
            println!("  {line}");
        }
    }

    if let Ok(retries) = std::fs::read_to_string(dir.join("retries.csv")) {
        found_any = true;
        let entries = retries.lines().skip(1).filter(|l| !l.is_empty()).count();
        let retried = retries
            .lines()
            .skip(1)
            .filter(|l| l.split(',').nth(2).is_some_and(|a| a != "1"))
            .count();
        let failed = retries
            .lines()
            .skip(1)
            .filter(|l| l.ends_with("true"))
            .count();
        println!(
            "retries      : {entries} model(s) tracked, {retried} needed retries, \
             {failed} failed terminally"
        );
    }

    if !found_any {
        return Err(CommandError::Invalid(format!(
            "{} holds no run artifacts (no resume manifest, commons, metrics.json, \
             or retries.csv)",
            dir.display()
        )));
    }
    Ok(())
}

fn run_worker(parsed: &Parsed) -> Result<(), CommandError> {
    let listen = parsed
        .get("--listen")
        .ok_or_else(|| CommandError::Invalid("--listen <addr> is required".into()))?;
    let gpus = parsed.get_parse("--gpus", 1usize, "usize")?;
    let sessions = parsed.get_parse("--sessions", 0usize, "usize")?;
    let server = WorkerServer::bind(listen, gpus)?;
    println!(
        "a4nn worker listening on {} ({gpus} GPU slot(s), {})",
        server.local_addr()?,
        if sessions == 0 {
            "serving until killed".to_string()
        } else {
            format!("serving {sessions} session(s)")
        }
    );
    server.run(sessions)?;
    Ok(())
}

fn run_serve(parsed: &Parsed) -> Result<(), CommandError> {
    let commons = parsed
        .get("--commons")
        .ok_or_else(|| CommandError::Invalid("--commons <dir> is required".into()))?;
    let listen = parsed
        .get("--listen")
        .ok_or_else(|| CommandError::Invalid("--listen <addr> is required".into()))?;
    let sessions = parsed.get_parse("--sessions", 0usize, "usize")?;
    let ws_limit_bytes = parsed
        .get_parse("--ws-limit-mb", 8usize, "usize")?
        .checked_mul(1024 * 1024)
        .ok_or_else(|| CommandError::Invalid("--ws-limit-mb is too large".into()))?;
    let cfg = a4nn_serve::ServeConfig {
        batcher: a4nn_serve::BatcherConfig {
            max_batch: parsed.get_parse("--batch", 8usize, "usize")?,
            queue_cap: parsed.get_parse("--queue", 64usize, "usize")?,
            workers: parsed.get_parse("--batch-workers", 1usize, "usize")?,
            ws_limit_bytes,
        },
        idle_timeout: Duration::from_millis(parsed.get_parse("--idle-ms", 30_000u64, "u64")?),
        metrics_out: parsed.get("--metrics-out").map(PathBuf::from),
    };
    let repo = a4nn_serve::ModelRepo::load(&PathBuf::from(commons))?;
    let menu = repo.infos();
    // Batch workers share the cores the way search's virtual GPUs do.
    a4nn_nn::gemm::set_thread_budget(a4nn_sched::intra_op_threads(cfg.batcher.workers));
    let server =
        a4nn_serve::ServeServer::bind(listen, repo, cfg, Arc::new(MetricsRegistry::new()))?;
    println!(
        "a4nn serve listening on {} ({} Pareto model(s), {})",
        server.local_addr()?,
        menu.len(),
        if sessions == 0 {
            "serving until killed".to_string()
        } else {
            format!("serving {sessions} connection(s)")
        }
    );
    for m in &menu {
        let objectives: Vec<String> = m
            .objective_names
            .iter()
            .zip(&m.objective_values)
            .map(|(name, value)| format!("{name}={value:.3}"))
            .collect();
        // The fitness is what the search trained the model to; the
        // weights served are those only when a checkpoint was found.
        let weights = match m.checkpoint_epoch {
            Some(epoch) => format!("checkpoint epoch {epoch}"),
            None => "untrained rebuild".to_string(),
        };
        println!(
            "  model {:>4}  fitness {:6.2}%  {}  {}  [{weights}]{}",
            m.model_id,
            m.fitness,
            objectives.join("  "),
            m.arch_summary,
            if m.default { "  [default]" } else { "" }
        );
    }
    server.run(sessions)?;
    Ok(())
}

fn run_xpsi(parsed: &Parsed) -> Result<(), CommandError> {
    let beam = beam_of(parsed)?;
    let seed = parsed.get_parse("--seed", 2023u64, "u64")?;
    let (train, test) = generate_split(&XfelConfig::default(), beam, images_of(parsed, 2)?, seed);
    let result = a4nn_xpsi::XpsiFramework::new(a4nn_xpsi::XpsiConfig {
        seed,
        ..Default::default()
    })
    .run(&train, &test);
    println!(
        "XPSI on {beam} beam: {:.1}% test accuracy ({:.1}% train) in {:.2}s \
         (latent dim {}, reconstruction error {:.4})",
        result.accuracy,
        result.train_accuracy,
        result.wall_seconds,
        result.latent_dim,
        result.reconstruction_error
    );
    Ok(())
}

fn run_dataset(parsed: &Parsed) -> Result<(), CommandError> {
    let beam = beam_of(parsed)?;
    let seed = parsed.get_parse("--seed", 2023u64, "u64")?;
    let dataset =
        a4nn_xfel::generate_dataset(&XfelConfig::default(), beam, images_of(parsed, 0)?, seed);
    println!(
        "generated {} diffraction images ({}x{}, classes {:?})",
        dataset.len(),
        dataset.height,
        dataset.width,
        dataset.class_counts()
    );
    if let Some(out) = parsed.get("--out") {
        let path = PathBuf::from(out);
        let bytes = serde_json::to_vec(&dataset)
            .map_err(|e| CommandError::Invalid(format!("serializing dataset: {e}")))?;
        std::fs::write(&path, bytes)?;
        println!("dataset written to {}", path.display());
    }
    Ok(())
}

fn load_commons(parsed: &Parsed) -> Result<DataCommons, CommandError> {
    let dir = parsed
        .get("--commons")
        .ok_or_else(|| CommandError::Invalid("--commons <dir> is required".into()))?;
    Ok(DataCommons::load_dir(&PathBuf::from(dir))?)
}

fn run_analyze(parsed: &Parsed) -> Result<(), CommandError> {
    let commons = load_commons(parsed)?;
    let analyzer = Analyzer::new(&commons);
    println!("commons: {} record trails", commons.len());
    println!(
        "  mean fitness            : {:.2}%",
        analyzer.mean_fitness()
    );
    println!("  total epochs            : {}", analyzer.total_epochs());
    println!(
        "  total training time     : {:.2} h",
        analyzer.total_wall_time() / 3600.0
    );
    println!(
        "  early terminations      : {:.0}%",
        100.0 * analyzer.early_termination_rate()
    );
    if let Some(et) = analyzer.mean_termination_epoch() {
        println!("  mean termination epoch  : {et:.1}");
    }
    if let Some(c) = analyzer.flops_fitness_correlation() {
        println!("  FLOPs-accuracy corr.    : {c:+.3}");
    }
    let labels = commons
        .records
        .first()
        .map(|r| r.objective_labels().join(","))
        .unwrap_or_default();
    println!("  Pareto front ({labels}):");
    print_objective_front(&analyzer)?;
    Ok(())
}

fn run_viz(parsed: &Parsed) -> Result<(), CommandError> {
    let commons = load_commons(parsed)?;
    let analyzer = Analyzer::new(&commons);
    let record = match parsed.get("--model") {
        Some(raw) => {
            let id: u64 = raw
                .parse()
                .map_err(|_| CommandError::Invalid(format!("--model {raw:?} is not a valid id")))?;
            commons
                .get(id)
                .ok_or_else(|| CommandError::Invalid(format!("model {id} not in commons")))?
        }
        None => analyzer
            .best_by_fitness()
            .ok_or_else(|| CommandError::Invalid("commons is empty".into()))?,
    };
    let space = SearchSpace::paper_defaults();
    let arch = space.decode(&record.genome);
    println!(
        "model {} | fitness {:.2}% | {:.1} MFLOPs | {}",
        record.model_id, record.final_fitness, record.flops, record.arch_summary
    );
    if parsed.flag("--dot") {
        println!(
            "{}",
            render_dot(&arch, &format!("a4nn-model-{}", record.model_id))
        );
    } else {
        println!("{}", render_ascii(&arch));
    }
    Ok(())
}

fn run_export(parsed: &Parsed) -> Result<(), CommandError> {
    let commons = load_commons(parsed)?;
    let out = PathBuf::from(parsed.get("--out").unwrap_or("."));
    std::fs::create_dir_all(&out)?;
    let models = out.join("models.csv");
    let epochs = out.join("epochs.csv");
    std::fs::write(&models, a4nn_lineage::models_csv(&commons))?;
    std::fs::write(&epochs, a4nn_lineage::epochs_csv(&commons))?;
    println!(
        "wrote {} ({} rows) and {} ({} rows)",
        models.display(),
        commons.len(),
        epochs.display(),
        commons
            .records
            .iter()
            .map(|r| r.epochs.len())
            .sum::<usize>()
    );
    Ok(())
}

/// Dispatch a parsed command line.
pub fn run_command(parsed: &Parsed) -> Result<(), CommandError> {
    match parsed.command {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Search => run_search(parsed, true),
        Command::Baseline => run_search(parsed, false),
        Command::Xpsi => run_xpsi(parsed),
        Command::Dataset => run_dataset(parsed),
        Command::Analyze => run_analyze(parsed),
        Command::Viz => run_viz(parsed),
        Command::Export => run_export(parsed),
        Command::Stats => run_stats(parsed),
        Command::Worker => run_worker(parsed),
        Command::Serve => run_serve(parsed),
        Command::Reproduce => crate::reproduce::run_reproduce(parsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Parsed;

    fn parsed(s: &str) -> Parsed {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Parsed::parse(&argv).unwrap()
    }

    #[test]
    fn workflow_config_from_flags() {
        let p = parsed("search --beam high --gpus 4 --population 6 --generations 3 --epochs 10 --r 1.0 --function pow3");
        let cfg = workflow_config(&p, true).unwrap();
        assert_eq!(cfg.beam, BeamIntensity::High);
        assert_eq!(cfg.gpus, 4);
        assert_eq!(cfg.nas.population, 6);
        assert_eq!(cfg.nas.generations, 3);
        assert_eq!(cfg.nas.epochs, 10);
        let engine = cfg.engine.unwrap();
        assert_eq!(engine.r, 1.0);
        assert_eq!(engine.family.name(), "pow3");
        // e_pred defaults to the epoch budget.
        assert_eq!(engine.e_pred, 10);
    }

    #[test]
    fn baseline_has_no_engine() {
        let cfg = workflow_config(&parsed("baseline --beam low"), false).unwrap();
        assert!(cfg.engine.is_none());
    }

    #[test]
    fn bad_beam_rejected() {
        assert!(beam_of(&parsed("search --beam ultraviolet")).is_err());
    }

    #[test]
    fn bad_function_rejected() {
        assert!(family_of("polynomial17").is_err());
        assert!(family_of("exp-base").is_ok());
    }

    #[test]
    fn end_to_end_search_and_analyze_via_commands() {
        let dir = std::env::temp_dir().join(format!("a4nn-cli-test-{}", std::process::id()));
        let out = dir.to_string_lossy().to_string();
        let search = parsed(&format!(
            "search --beam medium --population 4 --offspring 4 --generations 2 --epochs 10 --out {out}"
        ));
        run_command(&search).unwrap();
        let analyze = parsed(&format!("analyze --commons {out}"));
        run_command(&analyze).unwrap();
        let viz = parsed(&format!("viz --commons {out}"));
        run_command(&viz).unwrap();
        let viz_dot = parsed(&format!("viz --commons {out} --model 0 --dot"));
        run_command(&viz_dot).unwrap();
        let export_dir = dir.join("csv");
        run_command(&parsed(&format!(
            "export --commons {out} --out {}",
            export_dir.to_string_lossy()
        )))
        .unwrap();
        let csv = std::fs::read_to_string(export_dir.join("models.csv")).unwrap();
        assert_eq!(csv.lines().count(), 9); // header + 8 models
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn orchestration_flag_selects_bus_and_rejects_garbage() {
        let bus = parsed(
            "search --beam medium --population 3 --offspring 3 --generations 2 --epochs 8 \
             --orchestration bus",
        );
        run_command(&bus).unwrap();
        let bad = parsed("search --generations 1 --orchestration sidecar");
        assert!(run_command(&bad).is_err());
    }

    #[test]
    fn viz_unknown_model_errors() {
        let dir = std::env::temp_dir().join(format!("a4nn-cli-viz-{}", std::process::id()));
        let out = dir.to_string_lossy().to_string();
        run_command(&parsed(&format!(
            "search --beam low --population 3 --offspring 3 --generations 2 --epochs 6 --out {out}"
        )))
        .unwrap();
        let err = run_command(&parsed(&format!("viz --commons {out} --model 999")));
        assert!(err.is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn analyze_missing_commons_flag_errors() {
        assert!(run_command(&parsed("analyze")).is_err());
    }
}
