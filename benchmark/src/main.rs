//! End-to-end benchmark for `a4nn search` and `a4nn serve`.
//!
//! `benchmark/run.sh` builds the `a4nn` binary and this harness, then
//! runs it. See `benchmark/README.md` for the workloads, the metrics and
//! what each layer metric is expected to move.

mod harness;
mod json;
mod probes;
mod proc;
mod report;
mod search;
mod serve;
mod spec;
mod stats;
mod trace;

use harness::{Ctx, Outcome, Res};
use report::{Host, WorkloadResults};
use spec::Spec;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage:
  run.sh [--seed N] [--repeats K] [--workload NAME] [--trace] [--smoke]
      every workload (or one), K timed runs each with seeds N..N+K-1, plus
      one traced run each with --trace; writes benchmark/out/results.json
  run.sh --workload NAME --seed N --seconds S --trace 0|1
      one run; the last line of standard output is the result as JSON
  run.sh compare A.json B.json
      each end-to-end metric's difference against its bound";

/// Parsed command line of a run.
struct Options {
    a4nn: PathBuf,
    root: PathBuf,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    repeats: Option<usize>,
    trace: bool,
    smoke: bool,
}

fn parse(args: &[String]) -> Res<Options> {
    let mut o = Options {
        a4nn: PathBuf::new(),
        root: PathBuf::from("."),
        workload: None,
        seed: 1,
        seconds: None,
        repeats: None,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| -> Res<&String> {
            it.next().ok_or_else(|| format!("{flag} needs {what}"))
        };
        let number = |raw: &String| -> Res<f64> {
            raw.parse()
                .map_err(|_| format!("{flag}: {raw:?} is not a number"))
        };
        match flag.as_str() {
            "--a4nn" => o.a4nn = PathBuf::from(value("a path")?),
            "--root" => o.root = PathBuf::from(value("a path")?),
            "--workload" => o.workload = Some(value("a name")?.clone()),
            "--seed" => o.seed = number(value("a number")?)? as u64,
            "--seconds" => o.seconds = Some(number(value("a number")?)?),
            "--repeats" => o.repeats = Some(number(value("a number")?)? as usize),
            "--smoke" => o.smoke = true,
            // `--trace` alone switches tracing on; the driver writes 0 or 1.
            "--trace" => match it.peek().map(|s| s.as_str()) {
                Some("0") => {
                    it.next();
                }
                Some("1") => {
                    it.next();
                    o.trace = true;
                }
                _ => o.trace = true,
            },
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if o.a4nn.as_os_str().is_empty() {
        return Err(format!("--a4nn is required (run.sh passes it)\n{USAGE}"));
    }
    Ok(o)
}

fn first_line_of(cmd: &mut Command) -> String {
    cmd.output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn host(root: &Path, cores: usize) -> Host {
    Host {
        cores,
        rustc: first_line_of(Command::new("rustc").arg("--version")),
        commit: first_line_of(
            Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["rev-parse", "HEAD"])
                .stderr(std::process::Stdio::null()),
        ),
    }
}

fn is_search(workload: &str) -> bool {
    workload.starts_with("search_")
}

fn timed_run(ctx_: &Ctx, workload: &str, seed: u64, seconds: f64) -> Res<Outcome> {
    if is_search(workload) {
        search::run_timed(ctx_, workload, seed, seconds)
    } else {
        serve::run_timed(ctx_, workload, seed, seconds)
    }
}

/// The traced run: the workload's own traced phases, then the leaf
/// probes on the commons it wrote or served. Writes the trace file.
fn traced_run(ctx_: &Ctx, workload: &str, seed: u64, seconds: f64) -> Res<Outcome> {
    let (mut out, commons, cfg, mut tracer) = if is_search(workload) {
        let (out, dir, tracer) = search::run_traced(ctx_, workload, seed)?;
        let cfg = search::shape_of(workload, ctx_.smoke).config(seed);
        (out, dir, cfg, tracer)
    } else {
        let (out, fixture, tracer) = serve::run_traced(ctx_, workload, seed, seconds)?;
        (out, fixture.commons, serve::fixture_config(), tracer)
    };
    probes::run(ctx_, &commons, &cfg, seed, &mut out, &mut tracer)?;
    let reading = |name: &str| out.metrics.get(name).copied();
    if let Some(round_trip) = reading("serve.closed_p50_us_1conn") {
        // What is left of one closed-loop round trip once the batcher
        // (queue, eval, reply hand-off) and the request codec on both
        // sides are taken out: sockets, the reactor, and the reply frame.
        let inner = [
            "serve.batcher_us_per_req",
            "net.encode_us_per_frame.classify",
            "net.decode_us_per_frame.classify",
        ];
        let known: f64 = inner.iter().filter_map(|n| reading(n)).sum();
        out.set("net.io_us_per_req", round_trip - known);
    }
    let path = ctx_.out.join(format!("trace-{workload}.json"));
    json::write(&path, &trace::to_json(tracer.spans()))?;
    Ok(out)
}

/// Thread-scaling ratios mean nothing on a host that cannot run the
/// threads side by side, so below four cores none is printed.
fn print_scaling(cores: usize, out: &Outcome) {
    let (Some(all), Some(one)) = (
        out.metrics.get("serve.closed_rps"),
        out.metrics.get("serve.closed_rps_1conn"),
    ) else {
        return;
    };
    if cores < 4 {
        println!("serve connection scaling: not printed, host_cores = {cores} < 4");
    } else {
        println!(
            "serve connection scaling: {:.3} (all connections over one)",
            all / one
        );
    }
}

fn run(o: &Options) -> Res<bool> {
    let spec = Spec::load(&o.root)?;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let ctx_ = Ctx {
        a4nn: o.a4nn.clone(),
        out: o.root.join("benchmark").join("out"),
        cores,
        smoke: o.smoke,
    };
    let workloads: Vec<String> = match &o.workload {
        Some(w) if spec.workloads.contains(w) => vec![w.clone()],
        Some(w) => {
            return Err(format!(
                "unknown workload {w:?}; known: {:?}",
                spec.workloads
            ))
        }
        None => spec.workloads.clone(),
    };
    let seconds = o.seconds.unwrap_or(spec.run_seconds);
    let seconds = if o.smoke { seconds.min(2.0) } else { seconds };

    // The driver's form: one workload, one run, result on the last line.
    if let (Some(workload), Some(_)) = (&o.workload, o.seconds) {
        let outcome = if o.trace {
            traced_run(&ctx_, workload, o.seed, seconds)?
        } else {
            timed_run(&ctx_, workload, o.seed, seconds)?
        };
        let rows = report::catalogued(&spec, o.trace, &outcome)?;
        report::print_run(workload, o.seed, &rows, &outcome);
        print_scaling(cores, &outcome);
        println!("{}", report::driver_line(&rows, &outcome)?);
        return Ok(outcome.correct());
    }

    let host = host(&o.root, cores);
    println!(
        "host_cores = {} | {} | commit {} | seed {} | {} s per run",
        host.cores, host.rustc, host.commit, o.seed, seconds
    );
    let repeats = match (o.smoke, o.repeats) {
        (true, _) => 1,
        (false, k) => k.unwrap_or(5).max(3),
    };
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in &workloads {
        let mut w = WorkloadResults {
            name: workload.clone(),
            timed: Vec::new(),
            traced: None,
        };
        for seed in (o.seed..).take(repeats) {
            let outcome = timed_run(&ctx_, workload, seed, seconds)?;
            report::print_run(
                workload,
                seed,
                &report::catalogued(&spec, false, &outcome)?,
                &outcome,
            );
            all_correct &= outcome.correct();
            w.timed.push((seed, outcome));
        }
        report::print_summary(&spec, &w);
        if o.trace || o.smoke {
            let outcome = traced_run(&ctx_, workload, o.seed, seconds)?;
            report::print_run(
                workload,
                o.seed,
                &report::catalogued(&spec, true, &outcome)?,
                &outcome,
            );
            print_scaling(cores, &outcome);
            all_correct &= outcome.correct();
            w.traced = Some(outcome);
        }
        results.push(w);
    }
    let doc = report::results_json(&host, &spec, o.seed, seconds, o.smoke, &results)?;
    let path = ctx_.out.join("results.json");
    json::write(&path, &doc)?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let done = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => {
            report::compare(Path::new(&args[1]), Path::new(&args[2])).map(|regressed| !regressed)
        }
        Some("compare") | Some("--help") | Some("-h") => Err(USAGE.to_string()),
        _ => parse(&args).and_then(|o| run(&o)),
    };
    match done {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed or a metric regressed");
            ExitCode::from(1)
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
