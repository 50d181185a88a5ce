//! The two `a4nn serve` workloads.
//!
//! `serve_steady` holds a few connections open and sends on a schedule
//! (open loop), so connection handling is amortised to nothing and the
//! framing, the reactor, the batcher and the eval forward pass do the
//! work. `serve_churn` opens a connection per five requests (closed
//! loop), so accept, handshake and close do a large share of it. A change
//! that trades one for the other shows on exactly one of the two.

use crate::harness::{arg, ctx, Ctx, Listener, Outcome, Res};
use crate::proc;
use crate::stats::{highest_supported_percentile, median, percentile, sorted};
use crate::trace::Tracer;
use a4nn_core::{A4nnError, WorkflowConfig};
use a4nn_nn::{Tensor4, Workspace};
use a4nn_serve::{ModelRepo, ServeClient};
use a4nn_xfel::{generate_split, BeamIntensity, XfelConfig};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Offered load of the open loop, requests per second over all
/// connections: about 35 % of what the seed commit sustains closed-loop
/// on the two-core sizing host, so a backlog never builds there.
pub const OPEN_LOOP_RPS: f64 = 400.0;
/// Classify requests per `serve_churn` session.
const SESSION_CLASSIFIES: usize = 4;
/// Images per class in the request pool (80 % of them are used).
const POOL_PER_CLASS: usize = 32;
/// Replies checked bit for bit against a local forward pass, per run.
const VERIFIED_REPLIES: usize = 16;
/// A reply this long after its due time counts as late.
const LATE_LIMIT_US: f64 = 50_000.0;
/// Width of the windows a load phase is cut into.
const WINDOW_S: f64 = 2.0;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Seed of the surrogate search that writes the served commons.
const FIXTURE_SEARCH_SEED: &str = "2023";

/// The commons a server loads and the images clients send.
pub struct Fixture {
    /// Commons directory written by the fixture search.
    pub commons: PathBuf,
    /// Request pool: one `height * width` pixel vector per image.
    pub images: Vec<Vec<f32>>,
    /// Image height and width.
    pub hw: (usize, usize),
}

/// Generate the commons (a small surrogate search) and the request images.
///
/// The search seed is fixed: it picks which architecture becomes the
/// served default model, and with it the cost of every request, so it is
/// part of the workload's shape like the image size. What the harness
/// seed varies is what clients send: the diffraction images.
pub fn make_fixture(ctx_: &Ctx, dir: &Path, seed: u64) -> Res<Fixture> {
    let commons = dir.join("commons");
    let flags = [
        "search",
        "--seed",
        FIXTURE_SEARCH_SEED,
        "--population",
        "10",
        "--offspring",
        "10",
        "--generations",
        "5",
        "--out",
    ];
    let mut args: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
    args.push(arg(&commons));
    let (_, usage) = ctx_.run_a4nn(&args)?;
    if usage.exit_code != Some(0) {
        return Err(format!("fixture search exited with {:?}", usage.exit_code));
    }
    let (pool, _) = generate_split(
        &XfelConfig::default(),
        BeamIntensity::Medium,
        POOL_PER_CLASS,
        seed,
    );
    let stride = pool.sample_stride();
    Ok(Fixture {
        commons,
        images: pool.images.chunks(stride).map(<[f32]>::to_vec).collect(),
        hw: (pool.height, pool.width),
    })
}

/// The configuration [`make_fixture`]'s search runs under: every flag it
/// does not pass keeps the CLI's default.
pub fn fixture_config() -> WorkflowConfig {
    let seed = FIXTURE_SEARCH_SEED
        .parse()
        .expect("the fixture seed is a number");
    let mut cfg = WorkflowConfig::a4nn(BeamIntensity::Medium, 1, seed);
    cfg.nas.generations = 5;
    cfg
}

/// Start `a4nn serve --sessions <n>` over `commons`.
pub fn start_server(ctx_: &Ctx, commons: &Path, sessions: usize) -> Res<Listener> {
    ctx_.spawn_listener(&[
        "serve".into(),
        "--commons".into(),
        arg(commons),
        "--listen".into(),
        "127.0.0.1:0".into(),
        "--sessions".into(),
        sessions.to_string(),
    ])
}

/// Connect, retrying while the server is still coming up.
fn connect_ready(addr: &str) -> Res<ServeClient> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match ServeClient::connect(addr) {
            Ok(c) => return Ok(c),
            Err(e) if Instant::now() >= deadline => return Err(format!("serve not ready: {e}")),
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// A fresh server over a fresh fixture, warmed and ready for load.
pub struct Served {
    /// What the server loaded and what clients send.
    pub fixture: Fixture,
    /// The `a4nn serve` child.
    pub server: Listener,
    /// Seconds the fixture, spawn-to-ready and warm-up took.
    pub setup_s: f64,
    /// The warm-up connection, held open and idle until the server is
    /// dropped. Closing it would leave the seed's reactor a half-closed
    /// connection to spin on, which is `serve_churn`'s subject and must
    /// not leak into `serve_steady`.
    _warm: ServeClient,
}

/// Fixture, fresh server, and one warm session that touches the menu and
/// the forward path.
pub fn set_up(ctx_: &Ctx, dir: &Path, seed: u64) -> Res<Served> {
    let t0 = Instant::now();
    let fixture = make_fixture(ctx_, dir, seed)?;
    let server = start_server(ctx_, &fixture.commons, 0)?;
    let mut warm = connect_ready(&server.addr)?;
    ctx(warm.models(), "warm-up models")?;
    for image in fixture.images.iter().take(8) {
        ctx(
            warm.classify(None, 1, fixture.hw.0, fixture.hw.1, image.clone()),
            "warm-up classify",
        )?;
    }
    Ok(Served {
        fixture,
        server,
        setup_s: t0.elapsed().as_secs_f64(),
        _warm: warm,
    })
}

impl Served {
    /// Kill the server (never wait for it to exit by itself) and hand the
    /// fixture on.
    pub fn stop(self) -> Res<Fixture> {
        self.server.finish(Duration::ZERO)?;
        Ok(self.fixture)
    }
}

/// One timed classify.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the reply arrived, microseconds since the load began.
    pub done_us: f64,
    /// Reply time minus due time (open loop) or send time (closed loops).
    pub latency_us: f64,
    /// How long after its due time the request was sent; 0 in closed loops.
    pub sent_late_us: f64,
}

/// How one request ended.
pub enum Reply {
    /// Logits came back.
    Ok,
    /// The admission queue refused it.
    Rejected,
    /// Anything else.
    Error,
}

/// Send on a fixed schedule: request `k` is due at `first_due + k *
/// interval` and is timed from that instant, not from when it was sent,
/// so a stall is charged to every request it delays. One request is in
/// flight at a time, as on one connection.
pub fn open_loop(
    origin: Instant,
    first_due: Duration,
    interval: Duration,
    until: Duration,
    mut send: impl FnMut(usize) -> bool,
) -> Vec<Sample> {
    let mut samples = Vec::new();
    for k in 0.. {
        let due = first_due + interval * k as u32;
        if due >= until {
            break;
        }
        if let Some(wait) = due.checked_sub(origin.elapsed()) {
            std::thread::sleep(wait);
        }
        let sent = origin.elapsed();
        let ok = send(k);
        let done = origin.elapsed();
        if ok {
            samples.push(Sample {
                done_us: done.as_secs_f64() * 1e6,
                latency_us: done.saturating_sub(due).as_secs_f64() * 1e6,
                sent_late_us: sent.saturating_sub(due).as_secs_f64() * 1e6,
            });
        }
    }
    samples
}

/// Traffic shape of one load phase.
#[derive(Clone, Copy, PartialEq)]
pub enum Load {
    /// Persistent connections, requests on a schedule at this total rate.
    Open(f64),
    /// Persistent connections, next request when the reply arrives.
    Closed,
    /// `connect, models, 4 x classify, Goodbye, close`, back to back.
    Churn,
}

/// What one generator thread saw.
#[derive(Default)]
struct Generated {
    samples: Vec<Sample>,
    connect_us: Vec<f64>,
    attempted: u64,
    rejected: u64,
    errors: u64,
    verify: Vec<(usize, Vec<f32>)>,
}

/// Everything one load phase measured.
pub struct LoadReport {
    /// Classify latencies, ascending, microseconds.
    pub latency_us: Vec<f64>,
    /// Every reply with its completion time, for the windows.
    pub samples: Vec<Sample>,
    /// Generator lateness, ascending, microseconds.
    pub sent_late_us: Vec<f64>,
    /// Connect plus handshake plus `models`, ascending, microseconds.
    pub connect_us: Vec<f64>,
    /// Requests attempted.
    pub attempted: u64,
    /// Requests the server refused.
    pub rejected: u64,
    /// Requests that failed any other way.
    pub errors: u64,
    /// `(image index, logits)` of the first replies, for verification.
    pub verify: Vec<(usize, Vec<f32>)>,
    /// Seconds the phase lasted.
    pub seconds: f64,
    /// `(seconds since the phase began, server CPU seconds so far)`,
    /// read every 100 ms.
    pub server_cpu_at: Vec<(f64, f64)>,
    /// Most descriptors the server held at any sampling instant.
    pub server_fds_peak: usize,
    /// Client-side spans (empty when tracing is off).
    pub tracer: Tracer,
}

/// One [`WINDOW_S`]-second slice of a load phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Replies that arrived in the slice.
    pub replies: u64,
    /// Median latency of those replies, microseconds.
    pub p50_us: f64,
    /// Server CPU spent in the slice over its replies, milliseconds.
    pub cpu_ms_per_op: f64,
}

impl LoadReport {
    /// Replies received.
    pub fn replies(&self) -> u64 {
        self.latency_us.len() as u64
    }

    /// Server CPU seconds used by `at_s`, between the two nearest readings.
    fn server_cpu_s(&self, at_s: f64) -> f64 {
        let after = self.server_cpu_at.partition_point(|&(t, _)| t < at_s);
        match (
            self.server_cpu_at.get(after.wrapping_sub(1)),
            self.server_cpu_at.get(after),
        ) {
            (Some(&(t0, c0)), Some(&(t1, c1))) if t1 > t0 => {
                c0 + (c1 - c0) * (at_s - t0) / (t1 - t0)
            }
            (_, Some(&(_, c))) | (Some(&(_, c)), None) => c,
            (None, None) => 0.0,
        }
    }

    /// The phase cut into whole windows (one window when it is shorter
    /// than two). The run's end-to-end readings are medians over these:
    /// the host's noise comes in episodes of a few seconds, which move a
    /// whole-run percentile but only a minority of windows.
    pub fn windows(&self) -> Vec<Window> {
        let count = ((self.seconds / WINDOW_S).floor() as usize).max(1);
        let width = if count == 1 {
            self.seconds.max(WINDOW_S)
        } else {
            WINDOW_S
        };
        (0..count)
            .filter_map(|w| {
                let (lo, hi) = (w as f64 * width, (w + 1) as f64 * width);
                let latencies = sorted(
                    self.samples
                        .iter()
                        .filter(|s| s.done_us >= lo * 1e6 && s.done_us < hi * 1e6)
                        .map(|s| s.latency_us)
                        .collect(),
                );
                let cpu_s = self.server_cpu_s(hi.min(self.seconds)) - self.server_cpu_s(lo);
                (!latencies.is_empty()).then(|| Window {
                    replies: latencies.len() as u64,
                    p50_us: percentile(&latencies, 50.0),
                    cpu_ms_per_op: cpu_s * 1e3 / latencies.len() as f64,
                })
            })
            .collect()
    }
}

/// What every generator thread of one load phase shares.
#[derive(Clone, Copy)]
struct Phase<'a> {
    addr: &'a str,
    fixture: &'a Fixture,
    load: Load,
    threads: usize,
    origin: Instant,
    until: Duration,
    traced: bool,
}

/// One generator thread: its share of the schedule, what it has seen,
/// and its spans.
struct Generator<'a> {
    phase: Phase<'a>,
    thread: usize,
    out: Generated,
    tracer: Tracer,
}

impl Generator<'_> {
    /// Request `k` of this thread under span id `op`: send the image,
    /// count the outcome, keep the first replies for the bitwise check.
    fn classify(&mut self, client: &mut ServeClient, op: u64, k: usize) -> Reply {
        let fixture = self.phase.fixture;
        // Threads walk the pool from different offsets so the server never
        // sees the same image on two connections at once.
        let image = (k * self.phase.threads + self.thread) % fixture.images.len();
        let pixels = fixture.images[image].clone();
        self.out.attempted += 1;
        let answer = self.tracer.span("serve.classify", op, |_| {
            client.classify(None, 1, fixture.hw.0, fixture.hw.1, pixels)
        });
        match answer {
            Ok(c) => {
                if self.out.verify.len() < VERIFIED_REPLIES.div_ceil(self.phase.threads) {
                    self.out.verify.push((image, c.logits));
                }
                Reply::Ok
            }
            Err(A4nnError::Saturated(_)) => {
                self.out.rejected += 1;
                Reply::Rejected
            }
            Err(_) => {
                self.out.errors += 1;
                Reply::Error
            }
        }
    }

    fn op_base(&self) -> u64 {
        (self.thread as u64) << 32
    }

    /// `connect, models, 4 x classify, Goodbye, close`, back to back.
    fn churn(&mut self) {
        let Phase {
            addr,
            origin,
            until,
            ..
        } = self.phase;
        let mut k = 0;
        for session in 1.. {
            if origin.elapsed() >= until {
                break;
            }
            let op = self.op_base() | session;
            let t0 = Instant::now();
            let opened = self
                .tracer
                .span("net.connect_handshake", op, |_| ServeClient::connect(addr))
                .and_then(|mut c| {
                    self.tracer
                        .span("serve.models", op, |_| c.models())
                        .map(|_| c)
                });
            let Ok(mut client) = opened else {
                self.out.attempted += 1;
                self.out.errors += 1;
                continue;
            };
            self.out.connect_us.push(t0.elapsed().as_secs_f64() * 1e6);
            for _ in 0..SESSION_CLASSIFIES {
                let sent = origin.elapsed();
                let reply = self.classify(&mut client, op, k);
                k += 1;
                match reply {
                    Reply::Ok => self.record(sent, sent),
                    Reply::Rejected => {}
                    Reply::Error => break,
                }
            }
            let _ = self.tracer.span("net.goodbye", op, |_| client.goodbye());
        }
    }

    /// One persistent connection: on a schedule (open loop) or as fast as
    /// replies arrive (closed loop). No Goodbye before measurement ends;
    /// the connection is dropped and the server killed right after.
    fn persistent(&mut self) -> Res<()> {
        let Phase {
            addr,
            load,
            threads,
            origin,
            until,
            ..
        } = self.phase;
        let mut client = ctx(ServeClient::connect(addr), "connecting generator")?;
        let mut send = |g: &mut Self, k: usize| {
            let reply = g.classify(&mut client, g.op_base() | k as u64, k);
            if matches!(reply, Reply::Error) {
                // The stream may be mid-frame: continue on a fresh connection.
                if let Ok(fresh) = ServeClient::connect(addr) {
                    client = fresh;
                }
            }
            matches!(reply, Reply::Ok)
        };
        if let Load::Open(rate) = load {
            let interval = Duration::from_secs_f64(threads as f64 / rate);
            let first_due = Duration::from_secs_f64(self.thread as f64 / rate);
            self.out.samples = open_loop(origin, first_due, interval, until, |k| send(self, k));
        } else {
            for k in 0.. {
                let sent = origin.elapsed();
                if sent >= until {
                    break;
                }
                if send(self, k) {
                    self.record(sent, sent);
                }
            }
        }
        Ok(())
    }

    /// A reply that just arrived for a request due at `due` and sent at `sent`.
    fn record(&mut self, due: Duration, sent: Duration) {
        let done = self.phase.origin.elapsed();
        self.out.samples.push(Sample {
            done_us: done.as_secs_f64() * 1e6,
            latency_us: done.saturating_sub(due).as_secs_f64() * 1e6,
            sent_late_us: sent.saturating_sub(due).as_secs_f64() * 1e6,
        });
    }
}

fn generate(phase: Phase<'_>, thread: usize) -> Res<(Generated, Tracer)> {
    let mut g = Generator {
        phase,
        thread,
        out: Generated::default(),
        tracer: Tracer::new(phase.origin, phase.traced),
    };
    match phase.load {
        Load::Churn => g.churn(),
        Load::Open(_) | Load::Closed => g.persistent()?,
    }
    Ok((g.out, g.tracer))
}

/// Drive `server` with `conns` generator threads for `seconds`.
pub fn drive(
    served: &Served,
    load: Load,
    conns: usize,
    seconds: f64,
    traced: bool,
) -> Res<LoadReport> {
    let (server, fixture) = (&served.server, &served.fixture);
    let pid = server.proc.pid();
    let cpu0 = ctx(proc::cpu_seconds(pid), "reading server CPU")?;
    let origin = Instant::now();
    let until = Duration::from_secs_f64(seconds);
    let mut fds_peak = 0usize;
    let mut cpu_at = vec![(0.0, 0.0)];
    let generated: Vec<Res<(Generated, Tracer)>> = std::thread::scope(|scope| {
        let phase = Phase {
            addr: server.addr.as_str(),
            fixture,
            load,
            threads: conns,
            origin,
            until,
            traced,
        };
        let handles: Vec<_> = (0..conns)
            .map(|t| scope.spawn(move || generate(phase, t)))
            .collect();
        // The main thread is idle while the generators run: every 100 ms
        // it reads the server's CPU time and descriptor count.
        for tick in 1.. {
            if let Some(wait) = (Duration::from_millis(100) * tick).checked_sub(origin.elapsed()) {
                std::thread::sleep(wait);
            }
            fds_peak = fds_peak.max(proc::open_fds(pid).unwrap_or(0));
            if let Ok(cpu) = proc::cpu_seconds(pid) {
                cpu_at.push((origin.elapsed().as_secs_f64(), cpu - cpu0));
            }
            if handles.iter().all(|h| h.is_finished()) {
                break;
            }
        }
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("generator thread panicked".into()))
            })
            .collect()
    });
    let elapsed = origin.elapsed().as_secs_f64();

    let mut report = LoadReport {
        latency_us: Vec::new(),
        samples: Vec::new(),
        sent_late_us: Vec::new(),
        connect_us: Vec::new(),
        attempted: 0,
        rejected: 0,
        errors: 0,
        verify: Vec::new(),
        seconds: elapsed,
        server_cpu_at: cpu_at,
        server_fds_peak: fds_peak,
        tracer: Tracer::new(origin, traced),
    };
    for g in generated {
        let (g, tracer) = g?;
        report.samples.extend(g.samples);
        report.connect_us.extend(g.connect_us);
        report.attempted += g.attempted;
        report.rejected += g.rejected;
        report.errors += g.errors;
        report.verify.extend(g.verify);
        report.tracer.absorb(tracer);
    }
    report.latency_us = sorted(report.samples.iter().map(|s| s.latency_us).collect());
    report.sent_late_us = sorted(report.samples.iter().map(|s| s.sent_late_us).collect());
    report.connect_us = sorted(std::mem::take(&mut report.connect_us));
    if report.latency_us.is_empty() {
        return Err("the load phase received no reply at all".into());
    }
    Ok(report)
}

/// Check the kept replies bit for bit against a local eval-mode forward
/// pass over the same commons' default model.
pub fn verify_replies(out: &mut Outcome, fixture: &Fixture, report: &LoadReport) -> Res<()> {
    let repo = ctx(
        ModelRepo::load(&fixture.commons),
        "loading the served commons",
    )?;
    let mut net = repo.models()[repo.default_idx()].net.clone();
    let mut ws = Workspace::new();
    let mut mismatches = 0usize;
    for (image, served) in &report.verify {
        let x = Tensor4::from_vec(
            1,
            1,
            fixture.hw.0,
            fixture.hw.1,
            fixture.images[*image].clone(),
        );
        let logits = net.forward_ws(&x, false, &mut ws);
        let same = logits.data().len() == served.len()
            && logits
                .data()
                .iter()
                .zip(served)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        mismatches += usize::from(!same);
        ws.give2(logits);
    }
    let enough = report.verify.len() >= VERIFIED_REPLIES.min(report.replies() as usize);
    out.gate(
        "served_logits_match_local_forward",
        mismatches == 0 && enough,
        format!(
            "{} replies compared bit for bit, {mismatches} differ",
            report.verify.len()
        ),
    );
    Ok(())
}

fn conns(ctx_: &Ctx) -> usize {
    ctx_.cores.min(2)
}

fn load_of(workload: &str) -> Load {
    if workload == "serve_churn" {
        Load::Churn
    } else {
        Load::Open(OPEN_LOOP_RPS)
    }
}

/// Set up [`SETUPS`] times (fresh fixture and server each), keep the last
/// server for the measurement, and return the set-up times.
fn set_up_repeatedly(ctx_: &Ctx, dir: &Path, seed: u64) -> Res<(Served, Vec<f64>)> {
    let rounds = if ctx_.smoke { 1 } else { SETUPS };
    let mut times = Vec::new();
    let mut last = None;
    for round in 0..rounds {
        // Dropping the previous server kills it.
        drop(last.take());
        let served = set_up(ctx_, &dir.join(format!("setup{round}")), seed)?;
        times.push(served.setup_s);
        last = Some(served);
    }
    Ok((last.ok_or("no set-up round ran")?, times))
}

fn end_to_end(out: &mut Outcome, report: &LoadReport, server_rss_mb: f64, setup: &[f64]) {
    out.attempted = report.attempted;
    out.failed = report.rejected + report.errors;
    let windows = report.windows();
    let over_windows = |f: fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
    out.set("setup_s", median(setup));
    out.set("wall_ms_per_op", over_windows(|w| w.p50_us) / 1e3);
    out.set("cpu_ms_per_op", over_windows(|w| w.cpu_ms_per_op));
    out.set("peak_rss_mb", server_rss_mb);
}

/// The timed run: tracing off, end-to-end metrics only.
pub fn run_timed(ctx_: &Ctx, workload: &str, seed: u64, seconds: f64) -> Res<Outcome> {
    let dir = ctx_.scratch(&format!("{workload}-{seed}"))?;
    let (served, setup) = set_up_repeatedly(ctx_, &dir, seed)?;
    let report = drive(&served, load_of(workload), conns(ctx_), seconds, false)?;
    let rss = ctx(
        proc::peak_rss_mb(served.server.proc.pid()),
        "reading server RSS",
    )?;
    let fixture = served.stop()?;
    let mut out = Outcome::default();
    end_to_end(&mut out, &report, rss, &setup);
    verify_replies(&mut out, &fixture, &report)?;
    Ok(out)
}

/// Share of classify latencies in `report` above the late limit, plus
/// rejections and errors, over attempts.
fn fail_share(report: &LoadReport) -> f64 {
    let late = report
        .latency_us
        .iter()
        .filter(|&&l| l > LATE_LIMIT_US)
        .count() as u64;
    (late + report.rejected + report.errors) as f64 / report.attempted.max(1) as f64
}

/// Replies in the last window over replies in the first.
fn rps_decay(report: &LoadReport) -> f64 {
    match report.windows().as_slice() {
        [first, .., last] => last.replies as f64 / first.replies as f64,
        _ => 0.0,
    }
}

/// The traced run: an untraced and a traced half on fresh servers, then
/// the phases that only feed layer metrics. Returns the outcome, the
/// fixture the probes should use, and the client-side spans.
pub fn run_traced(
    ctx_: &Ctx,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Res<(Outcome, Fixture, Tracer)> {
    let dir = ctx_.scratch(&format!("{workload}-{seed}-trace"))?;
    let load = load_of(workload);
    let half = seconds / 2.0;
    let mut out = Outcome::default();

    let served = set_up(ctx_, &dir.join("untraced"), seed)?;
    let plain = drive(&served, load, conns(ctx_), half, false)?;
    served.stop()?;

    let served = set_up(ctx_, &dir.join("traced"), seed)?;
    let traced = drive(&served, load, conns(ctx_), half, true)?;
    let fixture = served.stop()?;
    verify_replies(&mut out, &fixture, &traced)?;
    out.attempted = plain.attempted + traced.attempted;
    out.failed = plain.rejected + plain.errors + traced.rejected + traced.errors;

    let p50 = |r: &LoadReport| percentile(&r.latency_us, 50.0);
    out.set("trace_overhead_share", p50(&traced) / p50(&plain) - 1.0);
    out.set("serve.p90_us", percentile(&traced.latency_us, 90.0));
    let highest = highest_supported_percentile(traced.latency_us.len()).unwrap_or(90.0);
    out.set(
        "serve.p99_us",
        percentile(&traced.latency_us, highest.min(99.0)),
    );
    out.set("serve.rejected", traced.rejected as f64);
    out.set("serve.fail_share", fail_share(&traced));
    out.set(
        "serve.late_replies",
        traced
            .latency_us
            .iter()
            .filter(|&&l| l > LATE_LIMIT_US)
            .count() as f64,
    );
    out.set("net.server_fds_peak", traced.server_fds_peak as f64);

    if load == Load::Churn {
        out.set("net.connect_us", percentile(&traced.connect_us, 50.0));
        out.set("serve.rps_decay", rps_decay(&traced));
        out.set("net.reactor_drain_s", reactor_drain_s(ctx_, &fixture)?);
    } else {
        out.set("serve.late_us_p99", percentile(&traced.sent_late_us, 99.0));
        // Closed-loop capacity: a fresh server per phase, all connections
        // and then one; a phase's dropped connections would slow the next.
        let phase = (seconds / 4.0).max(1.0);
        let served = set_up(ctx_, &dir.join("closed"), seed)?;
        let full = drive(&served, Load::Closed, conns(ctx_), phase, false)?;
        served.stop()?;
        let served = set_up(ctx_, &dir.join("closed1"), seed)?;
        let single = drive(&served, Load::Closed, 1, phase, false)?;
        served.stop()?;
        out.set("serve.closed_rps", full.replies() as f64 / full.seconds);
        out.set(
            "serve.closed_rps_1conn",
            single.replies() as f64 / single.seconds,
        );
        out.set("serve.closed_p50_us_1conn", p50(&single));
    }
    Ok((out, fixture, traced.tracer))
}

/// Seconds from a client's Goodbye to the exit of an `a4nn serve
/// --sessions 1` that has nothing left to do, capped at five: a server
/// that is still up then is killed, and the cap is the reading.
fn reactor_drain_s(ctx_: &Ctx, fixture: &Fixture) -> Res<f64> {
    const CAP: Duration = Duration::from_secs(5);
    let server = start_server(ctx_, &fixture.commons, 1)?;
    let mut client = connect_ready(&server.addr)?;
    ctx(
        client.classify(
            None,
            1,
            fixture.hw.0,
            fixture.hw.1,
            fixture.images[0].clone(),
        ),
        "drain classify",
    )?;
    ctx(client.goodbye(), "drain goodbye")?;
    let t0 = Instant::now();
    let (_, killed) = server.finish(if ctx_.smoke {
        Duration::from_secs(1)
    } else {
        CAP
    })?;
    Ok(if killed {
        CAP.as_secs_f64()
    } else {
        t0.elapsed().as_secs_f64()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stall_is_charged_to_the_requests_it_delays() {
        let origin = Instant::now();
        let interval = Duration::from_millis(10);
        let samples = open_loop(
            origin,
            Duration::ZERO,
            interval,
            Duration::from_millis(400),
            |k| {
                // Request 5 stalls the connection for 200 ms.
                std::thread::sleep(Duration::from_millis(if k == 5 { 200 } else { 1 }));
                true
            },
        );
        assert_eq!(samples.len(), 40);
        // Before the stall requests go out on time and take about 1 ms.
        assert!(samples[3].latency_us < 20_000.0);
        assert!(samples[5].latency_us >= 200_000.0);
        // Request 6 was due at 60 ms but could only be sent at ~250 ms:
        // timed from its due time it shows the wait, although the service
        // itself took 1 ms.
        assert!(samples[6].sent_late_us > 150_000.0);
        assert!(samples[6].latency_us > 150_000.0);
        // The backlog drains one interval per request.
        assert!(samples[12].latency_us > 90_000.0);
        assert!(samples[12].latency_us < samples[6].latency_us);
        // Long after the stall the schedule has caught up.
        assert!(samples[38].sent_late_us < 20_000.0);
        assert!(samples[38].latency_us < 30_000.0);
    }

    #[test]
    fn windows_slice_replies_and_server_cpu() {
        let reply = |at_s: f64, latency_us: f64| Sample {
            done_us: at_s * 1e6,
            latency_us,
            sent_late_us: 0.0,
        };
        let mut r = LoadReport {
            latency_us: vec![1.0],
            samples: Vec::new(),
            sent_late_us: Vec::new(),
            connect_us: Vec::new(),
            attempted: 0,
            rejected: 0,
            errors: 0,
            verify: Vec::new(),
            seconds: 6.3,
            // One CPU second per wall second for 2 s, then a quarter.
            server_cpu_at: vec![(0.0, 0.0), (2.0, 2.0), (6.0, 3.0), (6.3, 3.075)],
            server_fds_peak: 0,
            tracer: Tracer::new(Instant::now(), false),
        };
        // 4 replies in [0, 2) s, 8 in [2, 4), 2 in [4, 6), 5 in the partial tail.
        for (n, at, latency) in [
            (4, 0.5, 100.0),
            (8, 2.5, 300.0),
            (2, 5.9, 200.0),
            (5, 6.1, 900.0),
        ] {
            r.samples.extend(std::iter::repeat_n(reply(at, latency), n));
        }
        let w = r.windows();
        assert_eq!(w.len(), 3, "the partial tail is no window");
        assert_eq!(w.iter().map(|w| w.replies).collect::<Vec<_>>(), [4, 8, 2]);
        assert_eq!(w[1].p50_us, 300.0);
        assert_eq!(w[0].cpu_ms_per_op, 2000.0 / 4.0);
        assert_eq!(w[1].cpu_ms_per_op, 500.0 / 8.0);
        assert_eq!(rps_decay(&r), 0.5);
        // A phase shorter than two windows is one window over all of it.
        r.seconds = 3.0;
        let w = r.windows();
        assert_eq!((w.len(), w[0].replies), (1, 12));
        assert_eq!(rps_decay(&r), 0.0);
    }
}
