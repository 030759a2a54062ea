//! Building, starting and measuring the programs under test.
//!
//! Every measured program runs as its own child process, so its CPU
//! time and peak RSS are its own: `regen`'s CPU comes from `wait4(2)`,
//! exact for one child; everything else is read through `/proc/<pid>`.

use std::ffi::{c_int, c_long};
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::http::Conn;

/// The two binaries the workloads run.
pub struct Programs {
    pub regen: PathBuf,
    pub regend: PathBuf,
}

/// The directory Cargo builds into: `CARGO_TARGET_DIR`, else `target/`.
pub fn target_dir() -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    std::env::current_dir().map_or(dir.clone(), |cwd| cwd.join(dir))
}

/// Builds `regen` and `regend` from the checkout in the current
/// directory (release profile) and returns their paths.
pub fn build() -> Result<Programs, String> {
    for file in ["Cargo.toml", "results_regenerated.txt"] {
        if !Path::new(file).is_file() {
            return Err(format!("{file} not found: run from the repository root"));
        }
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "bench",
            "-p",
            "serve",
        ])
        .args(["--bin", "regen", "--bin", "regend"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building regen and regend failed ({status})"));
    }
    let dir = target_dir().join("release");
    Ok(Programs {
        regen: dir.join("regen"),
        regend: dir.join("regend"),
    })
}

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` on LP64 Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [c_long; 14],
}

const SC_CLK_TCK: c_int = 2;

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
    fn sysconf(name: c_int) -> c_long;
}

/// A finished child: its exit, output and resource use.
pub struct Finished {
    /// Raw wait status (0 is a clean exit).
    pub status: i32,
    pub stdout: Vec<u8>,
    pub stderr: Vec<u8>,
    /// Spawn to reap.
    pub wall: Duration,
    /// User + system CPU.
    pub cpu: Duration,
    pub peak_rss_kb: u64,
}

/// Runs `cmd` to completion, capturing its output and its own resource
/// use. The peak RSS is the child's `VmHWM`, sampled every few
/// milliseconds while it runs: `ru_maxrss` would also count the
/// spawning process's high-water mark, which exec carries over.
pub fn run_measured(cmd: &mut Command) -> io::Result<Finished> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let drain = |mut pipe: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut v = Vec::new();
            pipe.read_to_end(&mut v).map(|_| v)
        })
    };
    let out = drain(Box::new(child.stdout.take().expect("stdout is piped")));
    let err = drain(Box::new(child.stderr.take().expect("stderr is piped")));
    let exited = Arc::new(AtomicBool::new(false));
    let sampler = {
        let (pid, exited) = (child.id().to_string(), Arc::clone(&exited));
        std::thread::spawn(move || {
            let mut peak = 0;
            while !exited.load(Ordering::SeqCst) {
                match peak_rss_kb_of(&pid) {
                    Ok(kb) => peak = peak.max(kb),
                    Err(_) => break,
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            peak
        })
    };
    let pid = c_int::try_from(child.id()).expect("pids fit in c_int");
    let mut status: c_int = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed, and
        // laid out as C `int` and `struct rusage`; `pid` is this process's
        // own unreaped child, which `child` never waits on after this.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let wall = start.elapsed();
    exited.store(true, Ordering::SeqCst);
    let peak_rss_kb = sampler.join().expect("RSS sampler panicked");
    let tv = |t: &Timeval| Duration::from_micros((t.sec as u64) * 1_000_000 + t.usec as u64);
    Ok(Finished {
        status,
        stdout: out.join().expect("stdout reader panicked")?,
        stderr: err.join().expect("stderr reader panicked")?,
        wall,
        cpu: tv(&usage.utime) + tv(&usage.stime),
        peak_rss_kb,
    })
}

/// User + system CPU of process `pid` (`"self"` for this one) so far,
/// threads that already exited included.
pub fn cpu_time(pid: &str) -> io::Result<Duration> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    let fields: Vec<&str> = stat
        .rfind(')')
        .map(|i| stat[i + 1..].split_whitespace().collect())
        .unwrap_or_default();
    let ticks = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| io::Error::other(format!("malformed /proc/{pid}/stat")))
    };
    // utime and stime are fields 14 and 15; the slice starts at field 3.
    let total = ticks(11)? + ticks(12)?;
    // SAFETY: sysconf reads nothing but its integer argument.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    Ok(Duration::from_secs_f64(total as f64 / hz.max(1) as f64))
}

/// Peak resident set of process `pid`, in kilobytes (`VmHWM`).
pub fn peak_rss_kb_of(pid: &str) -> io::Result<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| io::Error::other(format!("no VmHWM in /proc/{pid}/status")))
}

/// A running `regend` on an ephemeral loopback port. Dropping it kills
/// the process, so an early error never leaves a server behind.
pub struct Daemon {
    child: Child,
    pub addr: String,
    log: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Starts `regend --addr 127.0.0.1:0 <args>` and waits until it
    /// listens.
    pub fn start(bin: &Path, args: &[&str]) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut log = String::new();
        let addr = loop {
            let mut line = String::new();
            if lines.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "regend exited before listening:\n{log}"
                )));
            }
            log.push_str(&line);
            if let Some(rest) = line.trim_end().strip_prefix("regend: listening on http://") {
                break rest.split('/').next().unwrap_or(rest).to_string();
            }
        };
        let log = std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = lines.read_to_string(&mut rest);
            log + &rest
        });
        Ok(Daemon {
            child,
            addr,
            log: Some(log),
        })
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// CPU the server has used so far.
    pub fn cpu(&self) -> io::Result<Duration> {
        cpu_time(&self.pid())
    }

    /// The server's peak RSS so far, in kilobytes.
    pub fn peak_rss_kb(&self) -> io::Result<u64> {
        peak_rss_kb_of(&self.pid())
    }

    /// Drains the server through `POST /shutdown` and waits for a clean
    /// exit.
    pub fn stop(mut self) -> io::Result<()> {
        let reply = Conn::open(&self.addr)?.post("/shutdown")?;
        if reply.status != 200 {
            return Err(io::Error::other(format!(
                "POST /shutdown answered {}",
                reply.status
            )));
        }
        let deadline = Instant::now() + Duration::from_secs(60);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("regend did not drain within 60 s"));
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        if !status.success() {
            let log = self
                .log
                .take()
                .map(|h| h.join().unwrap_or_default())
                .unwrap_or_default();
            return Err(io::Error::other(format!(
                "regend exited with {status}:\n{log}"
            )));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.log.take() {
            let _ = h.join();
        }
    }
}
