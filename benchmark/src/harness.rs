//! What every workload shares: where things live, how the `a4nn` binary
//! is started, and what one run reports.

use crate::proc::{Proc, Usage};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Longest a child may take to announce its listening address.
const READY_TIMEOUT: Duration = Duration::from_secs(20);

/// Where the binary and the scratch space are, and how large the host is.
pub struct Ctx {
    /// The release `a4nn` binary under test.
    pub a4nn: PathBuf,
    /// Scratch root (`benchmark/out`); each run works in a directory of
    /// its own below it.
    pub out: PathBuf,
    /// `available_parallelism`; caps generator threads and connections.
    pub cores: usize,
    /// `--smoke`: every workload at most two seconds, checks only.
    pub smoke: bool,
}

/// One correctness check of a run.
pub struct Gate {
    /// Which check, e.g. `repeats_byte_identical`.
    pub name: &'static str,
    /// Whether it held.
    pub pass: bool,
    /// What was compared, or what differed.
    pub detail: String,
}

/// What one run of one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (models evaluated, classify requests sent).
    pub attempted: u64,
    /// Operations that failed outright.
    pub failed: u64,
    /// Correctness checks; the run is correct when all pass.
    pub gates: Vec<Gate>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record one metric. A name is set once per run.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let previous = self.metrics.insert(name, value);
        debug_assert!(previous.is_none(), "metric {name} set twice");
    }

    /// Record one check.
    pub fn gate(&mut self, name: &'static str, pass: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name,
            pass,
            detail: detail.into(),
        });
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.gates.iter().all(|g| g.pass)
    }
}

/// Errors are messages: the harness has one caller, its `main`.
pub type Res<T> = Result<T, String>;

/// Turn any displayable error into a message naming what was attempted.
pub fn ctx<T, E: std::fmt::Display>(r: Result<T, E>, what: &str) -> Res<T> {
    r.map_err(|e| format!("{what}: {e}"))
}

impl Ctx {
    /// A fresh, empty scratch directory for one run.
    pub fn scratch(&self, label: &str) -> Res<PathBuf> {
        let dir = self.out.join("scratch").join(label);
        if dir.exists() {
            ctx(std::fs::remove_dir_all(&dir), "clearing scratch")?;
        }
        ctx(std::fs::create_dir_all(&dir), "creating scratch")?;
        Ok(dir)
    }

    fn command(&self, args: &[String]) -> Command {
        let mut cmd = Command::new(&self.a4nn);
        cmd.args(args);
        cmd
    }

    /// Run `a4nn <args>` to completion with its output discarded, timing
    /// spawn to exit.
    pub fn run_a4nn(&self, args: &[String]) -> Res<(f64, Usage)> {
        let mut cmd = self.command(args);
        cmd.stdout(Stdio::null()).stderr(Stdio::null());
        let t0 = Instant::now();
        let mut p = ctx(Proc::spawn(&mut cmd), "spawning a4nn")?;
        let usage = ctx(p.wait(), "waiting for a4nn")?;
        Ok((t0.elapsed().as_secs_f64(), usage))
    }

    /// Start a listening child (`a4nn worker` or `a4nn serve`) on a port
    /// the kernel picks.
    ///
    /// Readiness is the child's own announcement: both commands bind
    /// before they print it, so a connection made afterwards queues in the
    /// listen backlog at worst. Probing a `--sessions 1` worker with a
    /// throw-away connection would instead spend its only session.
    pub fn spawn_listener(&self, args: &[String]) -> Res<Listener> {
        let mut cmd = self.command(args);
        cmd.stdout(Stdio::piped()).stderr(Stdio::null());
        let mut proc = ctx(Proc::spawn(&mut cmd), "spawning a4nn listener")?;
        let stdout = proc.take_stdout().ok_or("listener stdout was not piped")?;
        let (tx, rx) = std::sync::mpsc::channel();
        // The thread keeps draining what the child prints later, so the
        // child can never block on a full pipe; it ends with the child.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if let Some(addr) = announced_addr(&line) {
                    let _ = tx.send(addr);
                }
            }
        });
        let mut listener = Listener {
            proc,
            addr: String::new(),
            reader: Some(reader),
        };
        listener.addr = rx.recv_timeout(READY_TIMEOUT).map_err(|_| {
            format!(
                "a4nn {} did not announce a listening address",
                args.first().map_or("", String::as_str)
            )
        })?;
        Ok(listener)
    }
}

/// A listening child and the address it announced.
pub struct Listener {
    /// The child process.
    pub proc: Proc,
    /// `host:port` it listens on.
    pub addr: String,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Listener {
    /// Wait at most `limit` for the child to exit by itself, then kill it.
    /// Returns its usage and whether it had to be killed.
    pub fn finish(mut self, limit: Duration) -> Res<(Usage, bool)> {
        let exited = ctx(self.proc.wait_timeout(limit), "waiting for listener")?;
        let usage = match exited {
            Some(u) => u,
            None => ctx(self.proc.kill(), "killing listener")?,
        };
        Ok((usage, exited.is_none()))
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        let _ = self.proc.kill();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// The address in `... listening on 127.0.0.1:4242 (...)`.
fn announced_addr(line: &str) -> Option<String> {
    let rest = line.split_once(" listening on ")?.1;
    let addr = rest.split_ascii_whitespace().next()?;
    addr.contains(':').then(|| addr.to_string())
}

/// Path as an argument.
pub fn arg(path: &Path) -> String {
    path.to_string_lossy().into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listening_line_yields_the_address() {
        assert_eq!(
            announced_addr(
                "a4nn worker listening on 127.0.0.1:40123 (1 GPU slot(s), serving 1 session(s))"
            ),
            Some("127.0.0.1:40123".into())
        );
        assert_eq!(
            announced_addr(
                "a4nn serve listening on 127.0.0.1:7 (3 Pareto model(s), serving until killed)"
            ),
            Some("127.0.0.1:7".into())
        );
        assert_eq!(announced_addr("  model    3  fitness  91.20%"), None);
    }
}
