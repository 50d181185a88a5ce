//! Child processes and `/proc` readings.
//!
//! Every program under test runs as a child in a process group of its
//! own. A child is reaped with `wait4`, which is the only exact source of
//! its CPU time and peak resident set once it has exited; a child that is
//! still serving is read through `/proc/<pid>/{stat,status,fd}`. Children
//! die with the harness on every exit path: `Drop` kills the group, and
//! `PR_SET_PDEATHSIG` covers the paths on which `Drop` never runs (the
//! harness killed or aborted).

use std::io;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and declares the 64-bit Linux rusage layout");

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s and fourteen `long`s,
/// of which only `ru_maxrss` (kilobytes) is read.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sysconf(name: i32) -> i64;
}

const WNOHANG: i32 = 1;
const SIGKILL: i32 = 9;
const PR_SET_PDEATHSIG: i32 = 1;
const SC_CLK_TCK: i32 = 2;

/// What a reaped child cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Usage {
    /// User plus system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, MB.
    pub peak_rss_mb: f64,
    /// Exit code; `None` when a signal ended the child.
    pub exit_code: Option<i32>,
}

/// A running child in its own process group.
pub struct Proc {
    child: Child,
    usage: Option<Usage>,
}

impl Proc {
    /// Spawn `cmd` with stdin closed. The caller sets stdout and stderr.
    ///
    /// Must be called from the harness's main thread: the parent-death
    /// signal fires when the *thread* that forked exits.
    pub fn spawn(cmd: &mut Command) -> io::Result<Proc> {
        cmd.stdin(Stdio::null()).process_group(0);
        // SAFETY: the closure runs between fork and exec and makes one
        // async-signal-safe system call; it touches no memory of the
        // parent and allocates nothing.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64);
                Ok(())
            });
        }
        Ok(Proc {
            child: cmd.spawn()?,
            usage: None,
        })
    }

    /// Process id (also the process-group id).
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// The child's piped stdout, if it was piped and not yet taken.
    pub fn take_stdout(&mut self) -> Option<std::process::ChildStdout> {
        self.child.stdout.take()
    }

    fn reap(&mut self, options: i32) -> io::Result<Option<Usage>> {
        if let Some(u) = self.usage {
            return Ok(Some(u));
        }
        let mut status = 0i32;
        let mut ru = Rusage::default();
        // SAFETY: `status` and `ru` are valid for writes for the whole
        // call, `Rusage` has the kernel's layout on this target (see the
        // `compile_error!` guard), and the pid is a child of this process
        // that nothing else reaps: `Child::wait` is never called.
        let got = unsafe { wait4(self.pid() as i32, &mut status, options, &mut ru) };
        if got < 0 {
            return Err(io::Error::last_os_error());
        }
        if got == 0 {
            return Ok(None);
        }
        let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
        let usage = Usage {
            cpu_s: secs(&ru.utime) + secs(&ru.stime),
            peak_rss_mb: ru.maxrss as f64 / 1024.0,
            exit_code: (status & 0x7f == 0).then_some((status >> 8) & 0xff),
        };
        self.usage = Some(usage);
        Ok(Some(usage))
    }

    /// Block until the child exits.
    pub fn wait(&mut self) -> io::Result<Usage> {
        self.reap(0)?
            .ok_or_else(|| io::Error::other("wait4 returned without a child"))
    }

    /// Wait at most `limit` for the child to exit on its own.
    pub fn wait_timeout(&mut self, limit: Duration) -> io::Result<Option<Usage>> {
        let deadline = Instant::now() + limit;
        loop {
            if let Some(u) = self.reap(WNOHANG)? {
                return Ok(Some(u));
            }
            if Instant::now() >= deadline {
                return Ok(None);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Kill the whole group and reap the child.
    pub fn kill(&mut self) -> io::Result<Usage> {
        if self.usage.is_none() {
            // SAFETY: plain system call; a negative pid addresses the
            // group this child leads, which holds only its descendants.
            unsafe { kill(-(self.pid() as i32), SIGKILL) };
        }
        self.wait()
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        let _ = self.kill();
    }
}

/// Clock ticks per second, the unit of `/proc/<pid>/stat` times.
pub fn clock_ticks_per_s() -> f64 {
    // SAFETY: `sysconf` reads a constant; it has no preconditions.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    if hz > 0 {
        hz as f64
    } else {
        100.0
    }
}

/// User plus system ticks from one `/proc/<pid>/stat` line. The command
/// name sits in parentheses and may itself hold spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the name: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `VmHWM` (peak resident set) from `/proc/<pid>/status`, MB.
pub fn parse_status_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU seconds a live process has used so far.
pub fn cpu_seconds(pid: u32) -> io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat_cpu_ticks(&stat)
        .map(|t| t as f64 / clock_ticks_per_s())
        .ok_or_else(|| io::Error::other(format!("unparsable /proc/{pid}/stat")))
}

/// Peak resident set of a live process, MB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_status_hwm_mb(&status)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in /proc/{pid}/status")))
}

/// Open file descriptors of a live process.
pub fn open_fds(pid: u32) -> io::Result<usize> {
    Ok(std::fs::read_dir(format!("/proc/{pid}/fd"))?.count())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_line_with_spaces_and_parens_in_the_name() {
        let line = "4242 (a4nn (serve) x) S 1 4242 4242 0 -1 4194304 1200 0 0 0 \
                    731 52 0 0 20 0 3 0 1000 123456 789 18446744073709551615 0 0";
        assert_eq!(parse_stat_cpu_ticks(line), Some(731 + 52));
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn status_high_water_mark() {
        let status = "Name:\ta4nn\nVmPeak:\t  200000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_status_hwm_mb(status), Some(20.0));
        assert_eq!(parse_status_hwm_mb("Name:\tzombie\n"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).unwrap() >= 0.0);
        assert!(peak_rss_mb(pid).unwrap() > 0.0);
        assert!(open_fds(pid).unwrap() >= 3);
    }

    #[test]
    fn reaped_child_reports_exit_code_and_usage() {
        let mut cmd = Command::new("sh");
        cmd.args(["-c", "exit 7"]).stdout(Stdio::null());
        let mut p = Proc::spawn(&mut cmd).unwrap();
        let u = p.wait().unwrap();
        assert_eq!(u.exit_code, Some(7));
        assert!(u.peak_rss_mb > 0.0);
        // Reaping twice returns the stored usage instead of ECHILD.
        assert_eq!(p.kill().unwrap(), u);
    }

    #[test]
    fn kill_ends_a_child_that_would_not_exit() {
        let mut cmd = Command::new("sleep");
        cmd.arg("60").stdout(Stdio::null());
        let mut p = Proc::spawn(&mut cmd).unwrap();
        assert!(p.wait_timeout(Duration::from_millis(20)).unwrap().is_none());
        assert_eq!(p.kill().unwrap().exit_code, None);
    }
}
