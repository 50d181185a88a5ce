//! Subcommand implementations: thin compositions of the library crates.
//!
//! Each command starts from the library's default for what it configures
//! and overrides only the flags that were given. The defaults no library
//! owns are the constants below.

use crate::args::{usage, ArgError, Command, Parsed};
use a4nn_core::prelude::*;
use a4nn_core::resume::{ResumeManifest, MANIFEST_FILE};
use a4nn_genome::viz::{render_ascii, render_dot};
use a4nn_net::{SocketOptions, SocketTransport, WorkerServer};
use a4nn_serve::ServeConfig;
use a4nn_xfel::generate_split;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// `--beam` when absent.
const DEFAULT_BEAM: BeamIntensity = BeamIntensity::Medium;
/// `--seed` when absent: the seed of the paper's runs.
const DEFAULT_SEED: u64 = 2023;
/// `--gpus` when absent, for `search`, `baseline` and `worker`.
const DEFAULT_GPUS: usize = 1;
/// `--sessions` when absent, for `worker` and `serve`: serve forever.
const DEFAULT_SESSIONS: usize = 0;
/// Images per class when `--images` is absent.
const DEFAULT_IMAGES: usize = 100;

/// Errors surfaced to the user by the subcommands.
#[derive(Debug)]
pub enum CommandError {
    /// A flag's value did not parse.
    Args(ArgError),
    /// Everything else, an invalid value (`A4nnError::Config`) included.
    Workflow(A4nnError),
}

impl CommandError {
    /// Process exit code: 2 for an argument error, otherwise the code of
    /// the workflow error's class from the table on
    /// [`A4nnError::exit_code`].
    pub fn exit_code(&self) -> i32 {
        match self {
            CommandError::Args(_) => 2,
            CommandError::Workflow(e) => e.exit_code(),
        }
    }
}

impl fmt::Display for CommandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommandError::Args(e) => e.fmt(f),
            CommandError::Workflow(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<ArgError> for CommandError {
    fn from(e: ArgError) -> Self {
        CommandError::Args(e)
    }
}

impl From<A4nnError> for CommandError {
    fn from(e: A4nnError) -> Self {
        CommandError::Workflow(e)
    }
}

/// The value of a flag the command cannot run without.
pub(crate) fn required<'a>(parsed: &'a Parsed, flag: &str) -> Result<&'a str, A4nnError> {
    parsed
        .get(flag)
        .ok_or_else(|| A4nnError::Config(format!("{flag} is required")))
}

fn beam_of(parsed: &Parsed) -> Result<BeamIntensity, A4nnError> {
    let Some(name) = parsed.get("--beam") else {
        return Ok(DEFAULT_BEAM);
    };
    BeamIntensity::ALL
        .into_iter()
        .find(|beam| beam.label() == name)
        .ok_or_else(|| {
            A4nnError::Config(format!("unknown beam {name:?} (expected low|medium|high)"))
        })
}

fn seed_of(parsed: &Parsed) -> Result<u64, ArgError> {
    Ok(parsed.value("--seed")?.unwrap_or(DEFAULT_SEED))
}

fn gpus_of(parsed: &Parsed) -> Result<usize, ArgError> {
    Ok(parsed.value("--gpus")?.unwrap_or(DEFAULT_GPUS))
}

fn sessions_of(parsed: &Parsed) -> Result<usize, ArgError> {
    Ok(parsed.value("--sessions")?.unwrap_or(DEFAULT_SESSIONS))
}

/// `--images`, refused below `min`: `xpsi` passes 2, since fewer images
/// per class leave a half of the 80/20 split empty (a real trainer's
/// [`WorkflowConfig::trainer_factory`] refuses those itself).
fn images_of(parsed: &Parsed, min: usize) -> Result<usize, CommandError> {
    let images = parsed.value("--images")?.unwrap_or(DEFAULT_IMAGES);
    if images < min {
        return Err(A4nnError::Config(format!(
            "--images {images}: training needs at least {min} images per class"
        ))
        .into());
    }
    Ok(images)
}

fn family_of(name: &str) -> Result<CurveFamily, A4nnError> {
    CurveFamily::ALL
        .into_iter()
        .find(|f| f.name() == name)
        .ok_or_else(|| A4nnError::Config(format!("unknown parametric function {name:?}")))
}

/// The paper's Tables 1 and 2 with the given flags applied; the engine's
/// `e_pred` follows `--epochs` unless `--e-pred` is given.
fn workflow_config(parsed: &Parsed, engine: bool) -> Result<WorkflowConfig, CommandError> {
    let mut nas = NasSettings::paper_defaults();
    parsed.set("--population", &mut nas.population)?;
    parsed.set("--offspring", &mut nas.offspring)?;
    parsed.set("--generations", &mut nas.generations)?;
    parsed.set("--epochs", &mut nas.epochs)?;
    let engine = if engine {
        let mut cfg = EngineConfig {
            e_pred: nas.epochs,
            ..EngineConfig::paper_defaults()
        };
        if let Some(name) = parsed.get("--function") {
            cfg.family = family_of(name)?;
        }
        parsed.set("--e-pred", &mut cfg.e_pred)?;
        parsed.set("--n-converge", &mut cfg.n_converge)?;
        parsed.set("--r", &mut cfg.r)?;
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
    let trainer = if parsed.flag("--real") {
        TrainerSpec::Real {
            images: images_of(parsed, 0)?,
            xfel: XfelConfig::default(),
        }
    } else {
        TrainerSpec::Surrogate
    };
    Ok(WorkflowConfig {
        nas,
        engine,
        gpus: gpus_of(parsed)?,
        beam: beam_of(parsed)?,
        seed: seed_of(parsed)?,
        objectives,
        trainer,
    })
}

/// [`RetryPolicy::default`], or `--max-retries` retries when given.
fn fault_tolerance(parsed: &Parsed) -> Result<FaultTolerance, ArgError> {
    let policy = parsed
        .value("--max-retries")?
        .map_or_else(RetryPolicy::default, RetryPolicy::with_retries);
    Ok(FaultTolerance::new(policy, FaultPlan::none()))
}

/// [`SocketOptions::default`] with `--heartbeat-ms` applied.
fn socket_options(parsed: &Parsed) -> Result<SocketOptions, ArgError> {
    let mut options = SocketOptions::default();
    if let Some(ms) = parsed.value("--heartbeat-ms")? {
        options.heartbeat_deadline = Duration::from_millis(ms);
    }
    Ok(options)
}

/// `--orchestration`'s in-process transport, or `None` for `socket`.
fn local_transport(parsed: &Parsed) -> Result<Option<&'static dyn Transport>, ArgError> {
    match parsed.get("--orchestration") {
        None | Some("direct") => Ok(Some(&DirectTransport)),
        Some("bus") => Ok(Some(&BusTransport)),
        Some("socket") => Ok(None),
        Some(other) => Err(ArgError::BadValue {
            flag: "--orchestration".into(),
            value: other.into(),
            expected: "orchestration (direct|bus|socket)",
        }),
    }
}

/// [`ServeConfig::default`] with `serve`'s flags applied.
fn serve_config(parsed: &Parsed) -> Result<ServeConfig, CommandError> {
    let mut cfg = ServeConfig::default();
    parsed.set("--batch", &mut cfg.batcher.max_batch)?;
    parsed.set("--queue", &mut cfg.batcher.queue_cap)?;
    parsed.set("--batch-workers", &mut cfg.batcher.workers)?;
    if let Some(mb) = parsed.value::<usize>("--ws-limit-mb")? {
        cfg.batcher.ws_limit_bytes = mb
            .checked_mul(1024 * 1024)
            .ok_or_else(|| A4nnError::Config("--ws-limit-mb is too large".into()))?;
    }
    if let Some(ms) = parsed.value("--idle-ms")? {
        cfg.idle_timeout = Duration::from_millis(ms);
    }
    cfg.metrics_out = parsed.get("--metrics-out").map(PathBuf::from);
    Ok(cfg)
}

/// Print one Pareto front, one `name=value` cell per configured
/// objective (legacy records fall back to the `(neg_fitness, flops)`
/// pair), sorted by FLOPs for a stable, cheap-to-expensive reading.
fn print_objective_front(commons: &DataCommons) -> Result<(), CommandError> {
    let mut front = commons.pareto_front()?;
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
    let local = local_transport(parsed)?;
    let tolerance = fault_tolerance(parsed)?;

    // Resume + snapshot wiring. The run directory (--out, or the
    // --resume dir when --out is absent) receives each generation's
    // records (the commons) and a search-state snapshot at every
    // generation boundary, so a killed process leaves a readable commons
    // and can continue bit-for-bit with `--resume <dir>` and identical
    // flags. The snapshot loads first: one trained by another trainer
    // exits 5 before this run's trainer synthesises a single image.
    let resume_dir = parsed.get("--resume").map(PathBuf::from);
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
        snap.check_trainer(&config)
            .map_err(CommandError::Workflow)?;
    }
    // Before any worker is contacted: a trainer the configuration cannot
    // build exits 3 without network traffic.
    let factory = config.trainer_factory()?;
    let workflow = A4nnWorkflow::new(config.clone());
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
            std::thread::sleep(Duration::from_millis(boundary_delay_ms));
        }
        false
    };
    let socket;
    let transport: &dyn Transport = match local {
        Some(transport) => transport,
        None => {
            let workers: Vec<String> = required(parsed, "--workers")?
                .split(',')
                .map(str::trim)
                .filter(|a| !a.is_empty())
                .map(String::from)
                .collect();
            socket =
                SocketTransport::connect(&workers, &config, &tolerance, socket_options(parsed)?)?;
            println!(
                "sharding across {} worker(s), {} advertised GPU slot(s)",
                socket.worker_count(),
                socket.total_gpus()
            );
            &socket
        }
    };
    let output = workflow.run(
        factory.as_ref(),
        RunOptions {
            transport,
            fault_tolerance: tolerance,
            snapshot_dir: out_dir.clone(),
            cancel: (boundary_delay_ms > 0).then_some(&pacing as &CancelHook),
            resume: snapshot,
            ..RunOptions::default()
        },
    )?;

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
            100.0 * output.commons.early_termination_rate(),
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
    print_objective_front(&output.commons)?;
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

fn run_worker(parsed: &Parsed) -> Result<(), CommandError> {
    let (gpus, sessions) = (gpus_of(parsed)?, sessions_of(parsed)?);
    let server = WorkerServer::bind(required(parsed, "--listen")?, gpus)?;
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
    let cfg = serve_config(parsed)?;
    let sessions = sessions_of(parsed)?;
    let listen = required(parsed, "--listen")?;
    let repo = a4nn_serve::ModelRepo::load(&PathBuf::from(required(parsed, "--commons")?))?;
    let menu = repo.infos();
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
    let (beam, seed) = (beam_of(parsed)?, seed_of(parsed)?);
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
    let (beam, seed) = (beam_of(parsed)?, seed_of(parsed)?);
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
            .map_err(|e| A4nnError::Config(format!("serializing dataset: {e}")))?;
        a4nn_lineage::write_atomic(&path, &bytes)?;
        println!("dataset written to {}", path.display());
    }
    Ok(())
}

fn load_commons(parsed: &Parsed) -> Result<DataCommons, CommandError> {
    let dir = PathBuf::from(required(parsed, "--commons")?);
    Ok(DataCommons::load_dir(&dir)?)
}

/// The bytes of `dir/name`, or `None` when there is no such file.
fn read_artifact(dir: &Path, name: &str) -> Result<Option<Vec<u8>>, A4nnError> {
    let path = dir.join(name);
    match std::fs::read(&path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(A4nnError::io(format!("reading {}", path.display()), e)),
    }
}

/// The metrics of the snapshot `manifest` commits in `dir`, as of its
/// generation boundary. A state file that does not read or parse is an
/// [`A4nnError::Checkpoint`], as it is to a resume.
fn committed_metrics(dir: &Path, manifest: &ResumeManifest) -> Result<MetricsSnapshot, A4nnError> {
    let path = manifest.state_path(dir)?;
    let bytes = std::fs::read(&path)
        .map_err(|e| A4nnError::Checkpoint(format!("reading {}: {e}", path.display())))?;
    let state: SearchSnapshot = serde_json::from_slice(&bytes)
        .map_err(|e| A4nnError::Checkpoint(format!("parsing {}: {e}", path.display())))?;
    Ok(state.metrics)
}

/// `a4nn analyze`: summarize a run directory offline, without running
/// anything. Each of its artifacts (the resume manifest, the commons and
/// `metrics.json`) is read once and reported when present; one that is
/// present but does not read or parse is an error. A killed or
/// still-running search has no `metrics.json` yet: its metrics are then
/// those of the snapshot the resume manifest commits.
fn run_analyze(parsed: &Parsed) -> Result<(), CommandError> {
    let dir = PathBuf::from(required(parsed, "--commons")?);
    std::fs::read_dir(&dir).map_err(|e| A4nnError::io(format!("reading {}", dir.display()), e))?;
    let resume = read_artifact(&dir, MANIFEST_FILE)?
        .map(|bytes| {
            serde_json::from_slice::<ResumeManifest>(&bytes).map_err(|e| {
                A4nnError::Checkpoint(format!(
                    "parsing {}: {e}",
                    dir.join(MANIFEST_FILE).display()
                ))
            })
        })
        .transpose()?;
    // The commons' own manifest lists its records; `load_dir` reads both.
    let commons = dir
        .join("manifest.json")
        .try_exists()
        .map_err(|e| A4nnError::io(format!("reading {}", dir.display()), e))?
        .then(|| DataCommons::load_dir(&dir))
        .transpose()?;
    let metrics = match read_artifact(&dir, "metrics.json")? {
        Some(bytes) => Some(MetricsSnapshot::from_json(&bytes)?),
        None => resume
            .as_ref()
            .map(|manifest| committed_metrics(&dir, manifest))
            .transpose()?,
    };
    if resume.is_none() && commons.is_none() && metrics.is_none() {
        return Err(A4nnError::Config(format!(
            "{} holds no run artifacts (no resume manifest, commons or metrics.json)",
            dir.display()
        ))
        .into());
    }

    if let Some(manifest) = resume {
        println!(
            "resume state: generation boundary {} committed (config {:016x}, {})",
            manifest.generations_done, manifest.config_hash, manifest.state_file
        );
    }
    if let Some(commons) = commons {
        println!("commons: {} record trails", commons.len());
        println!("  mean fitness            : {:.2}%", commons.mean_fitness());
        println!("  total epochs            : {}", commons.total_epochs());
        println!(
            "  total training time     : {:.2} h",
            commons.total_wall_time() / 3600.0
        );
        println!(
            "  early terminations      : {:.0}%",
            100.0 * commons.early_termination_rate()
        );
        if let Some(et) = commons.mean_termination_epoch() {
            println!("  mean termination epoch  : {et:.1}");
        }
        if let Some(c) = commons.flops_fitness_correlation() {
            println!("  FLOPs-accuracy corr.    : {c:+.3}");
        }
        let faults = FaultStats::from_records(&commons.records);
        println!(
            "  retries                 : {} retries consumed; {} model(s) recovered, {} failed terminally",
            faults.retries, faults.models_recovered, faults.models_failed
        );
        let labels = commons
            .records
            .first()
            .map(|r| r.objective_labels().join(","))
            .unwrap_or_default();
        println!("  Pareto front ({labels}):");
        print_objective_front(&commons)?;
    }
    if let Some(metrics) = metrics {
        println!("metrics:");
        for line in metrics.to_csv().lines().skip(1) {
            println!("  {line}");
        }
    }
    Ok(())
}

fn run_viz(parsed: &Parsed) -> Result<(), CommandError> {
    let commons = load_commons(parsed)?;
    let record = match parsed.get("--model") {
        Some(raw) => {
            let id: u64 = raw
                .parse()
                .map_err(|_| A4nnError::Config(format!("--model {raw:?} is not a valid id")))?;
            commons
                .get(id)
                .ok_or_else(|| A4nnError::Config(format!("model {id} not in commons")))?
        }
        None => commons
            .best_by_fitness()
            .ok_or_else(|| A4nnError::Config("commons is empty".into()))?,
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
    std::fs::create_dir_all(&out)
        .map_err(|e| A4nnError::io(format!("creating {}", out.display()), e))?;
    let models = out.join("models.csv");
    let epochs = out.join("epochs.csv");
    a4nn_lineage::write_atomic(&models, a4nn_lineage::models_csv(&commons).as_bytes())?;
    a4nn_lineage::write_atomic(&epochs, a4nn_lineage::epochs_csv(&commons).as_bytes())?;
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
            print!("{}", usage());
            Ok(())
        }
        Command::Search => run_search(parsed, true),
        Command::Baseline => run_search(parsed, false),
        Command::Xpsi => run_xpsi(parsed),
        Command::Dataset => run_dataset(parsed),
        Command::Analyze => run_analyze(parsed),
        Command::Viz => run_viz(parsed),
        Command::Export => run_export(parsed),
        Command::Worker => run_worker(parsed),
        Command::Serve => run_serve(parsed),
        Command::Reproduce => crate::reproduce::run_reproduce(parsed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{Flag, Parsed, COMMANDS, FLAGS};

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

    /// Everything `p`'s command resolves from its flags before it runs.
    fn resolved(p: &Parsed) -> String {
        match p.command {
            Command::Search | Command::Baseline => format!(
                "{:?} {:?} {:?} {:?} {}",
                workflow_config(p, p.command == Command::Search).unwrap(),
                fault_tolerance(p).unwrap(),
                socket_options(p).unwrap(),
                local_transport(p).unwrap().map(|t| t.name()),
                images_of(p, 0).unwrap(),
            ),
            Command::Xpsi | Command::Dataset => format!(
                "{} {} {}",
                beam_of(p).unwrap(),
                seed_of(p).unwrap(),
                images_of(p, 0).unwrap()
            ),
            Command::Worker => format!("{} {}", gpus_of(p).unwrap(), sessions_of(p).unwrap()),
            Command::Serve => format!("{:?} {}", serve_config(p).unwrap(), sessions_of(p).unwrap()),
            other => panic!("{} shows no default", other.name()),
        }
    }

    /// `(flag, v)` for each of `command`'s help lines ending in `[v]`.
    fn shown_defaults(command: Command) -> Vec<(&'static str, &'static str)> {
        FLAGS
            .iter()
            .filter(|Flag(.., commands)| commands.contains(&command))
            .filter_map(|Flag(flag, _, help, _)| {
                let (_, shown) = help.strip_suffix(']')?.rsplit_once('[')?;
                Some((*flag, shown))
            })
            .collect()
    }

    /// `v` itself, or for `[--epochs]` the value that flag has: the one
    /// `given`, else the default its own help shows.
    fn value_of(shown: &[(&str, &str)], given: &[(&str, String)], v: &str) -> String {
        if !v.starts_with("--") {
            return v.to_string();
        }
        match given.iter().find(|(flag, _)| *flag == v) {
            Some((_, value)) => value.clone(),
            None => value_of(shown, given, shown.iter().find(|(f, _)| *f == v).unwrap().1),
        }
    }

    /// A valid value of the same flag other than `v`.
    fn another(v: &str) -> String {
        if let Ok(n) = v.parse::<u64>() {
            return (n + 1).to_string();
        }
        if let Ok(x) = v.parse::<f64>() {
            return (x + 1.0).to_string();
        }
        match v {
            "medium" => "low",
            "direct" => "bus",
            "exp-base" => "pow3",
            "neg_fitness,flops" => "neg_fitness,macs",
            other => panic!("no other value for [{other}]"),
        }
        .to_string()
    }

    /// A help line's trailing `[v]` is what its command resolves without
    /// the flag: `<command>` alone and `<command> <flag> v` agree, and
    /// another value changes what it resolves. Checked once with the
    /// command's other flags absent and once with each at another value,
    /// so a default that follows another flag must say so.
    #[test]
    fn usage_defaults_are_what_the_code_resolves() {
        let mut checked = 0;
        for (command, ..) in COMMANDS {
            let shown = shown_defaults(*command);
            for moved in [false, true] {
                for &(flag, v) in &shown {
                    let given: Vec<(&str, String)> = shown
                        .iter()
                        .filter(|&&(other, _)| moved && other != flag)
                        .map(|&(other, w)| (other, another(&value_of(&shown, &[], w))))
                        .collect();
                    let base = given.iter().fold(command.name().to_string(), |s, (f, w)| {
                        format!("{s} {f} {w}")
                    });
                    let v = value_of(&shown, &given, v);
                    let alone = resolved(&parsed(&base));
                    let with = |value: &str| resolved(&parsed(&format!("{base} {flag} {value}")));
                    assert_eq!(alone, with(&v), "{base}: {flag} shows [{v}]");
                    assert_ne!(alone, with(&another(&v)), "{base}: {flag} is not read");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 80, "only {checked} defaults checked");
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
