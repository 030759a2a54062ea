//! What the root test suites share: scratch directories, a seeded
//! generator, in-process servers and the serial oracle they are held
//! to, metric reads, and spawned `regen`/`regend` processes.
//!
//! Each test binary compiles its own copy of this module and uses a
//! subset of it, hence the `dead_code` allowance.
#![allow(dead_code)]

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc::Receiver;
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bench::{render_artifact_block, run_regen, Artifact, RegenOptions};
use serve::client::{http_get_retrying, HttpResponse};
use serve::{percent_encode_path, RunSummary, Server, ServerConfig, ServerHandle};

/// Scratch directory unique to (test, process), emptied first.
pub fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regen-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A tiny deterministic generator (xorshift64*), replacing proptest.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    pub fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Boots one server (plain, shard or proxy) on a free port and runs it
/// on a background thread.
pub fn boot(cfg: ServerConfig) -> (String, ServerHandle, std::thread::JoinHandle<RunSummary>) {
    let server = Server::bind(ServerConfig { addr: "127.0.0.1:0".to_string(), ..cfg })
        .expect("bind to a free port");
    let base = format!("http://{}", server.local_addr());
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("event loop"));
    (base, handle, join)
}

/// GET that fails the test on transport errors, with a long timeout:
/// cold artifacts compute a full quick sweep behind the first request.
pub fn get(base: &str, path: &str) -> HttpResponse {
    http_get_retrying(&format!("{base}{path}"), Duration::from_secs(300), 10)
        .unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

/// The serial oracle: one in-process sweep, rendered per artifact.
pub fn serial_blocks(artifacts: &[Artifact], quick: bool, opts: RegenOptions) -> Vec<String> {
    let report = run_regen(&RegenOptions {
        artifacts: artifacts.to_vec(),
        quick,
        keep_going: true,
        ..opts
    })
    .expect("serial sweep");
    assert_eq!(report.results.len(), artifacts.len());
    report.results.iter().map(render_artifact_block).collect()
}

/// Reads one counter out of a Prometheus-style exposition, summed over
/// labels.
pub fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .filter(|(k, _)| *k == name || k.starts_with(&format!("{name}{{")))
        .map(|(_, v)| v.trim().parse::<f64>().unwrap_or(0.0))
        .sum()
}

/// Polls `/metrics` until `name` reaches `min` (or the deadline
/// passes), returning the last value seen. Close-derived counters are
/// updated when the event loop processes the close, a beat after the
/// client observes it — polling absorbs that gap without sleeps sized
/// by guesswork.
pub fn await_metric(base: &str, name: &str, min: f64, deadline: Duration) -> f64 {
    let start = Instant::now();
    loop {
        let v = metric(&get(base, "/metrics").text(), name);
        if v >= min || start.elapsed() > deadline {
            return v;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The catalog microarchitectures, in Table 2 order.
const CPUS: [&str; 8] = [
    "Broadwell",
    "Skylake Client",
    "Cascade Lake",
    "Ice Lake Client",
    "Ice Lake Server",
    "Zen",
    "Zen 2",
    "Zen 3",
];

/// Table 1's per-CPU cell keys (one per catalog microarchitecture):
/// routed across shards by content key, and computable on demand from
/// either side of a failover.
pub fn cell_keys() -> Vec<String> {
    CPUS.iter().map(|m| format!("{m}/mitigations")).collect()
}

/// The `/cell` path of a table1 content key, at the pinned seed.
pub fn cell_path(key: &str) -> String {
    format!("/cell/table1/{}?seed=0", percent_encode_path(key))
}

/// The cells of tables 3 to 8, one per CPU and table, as `(content
/// key, /cell path)`, in table order: cheap sweeps whose keys differ
/// from table1's and from each other's.
pub fn table_cells() -> Vec<(String, String)> {
    let tables = [
        ("table3", "entry-exit"),
        ("table4", "verw"),
        ("table5", "indirect-call"),
        ("table6", "ibpb"),
        ("table7", "rsb-fill"),
        ("table8", "lfence"),
    ];
    let cell = |table: &str, workload: &str, cpu: &str| {
        let key = format!("{cpu}/{workload}");
        let path = format!("/cell/{table}/{}?seed=0", percent_encode_path(&key));
        (key, path)
    };
    tables
        .iter()
        .flat_map(|(table, workload)| CPUS.iter().map(move |cpu| cell(table, workload, cpu)))
        .collect()
}

/// The workspace binary `name` (`regen` or `regend`) in the profile
/// directory this test binary was built into
/// (`target/<profile>/deps/<test>-<hash>` -> `target/<profile>/<name>`).
/// Root-package tests get no `CARGO_BIN_EXE_*` for the binaries of
/// other packages, so the first call in a process builds it there (a
/// no-op when it is up to date): a test never runs a missing or stale
/// binary.
pub fn binary(name: &str) -> PathBuf {
    static BUILT: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let exe = std::env::current_exe().expect("test binary has a path");
    let profile_dir = exe
        .parent() // deps/
        .and_then(Path::parent) // target/<profile>/
        .expect("test binary lives under target/<profile>/deps");
    let mut built = BUILT.lock().unwrap_or_else(PoisonError::into_inner);
    if !built.iter().any(|b| b == name) {
        let package = if name == "regend" { "serve" } else { "bench" };
        let mut cargo = Command::new(env!("CARGO"));
        cargo.args(["build", "-q", "-p", package, "--bin", name, "--target-dir"]);
        cargo.arg(profile_dir.parent().expect("target directory"));
        if profile_dir.ends_with("release") {
            cargo.arg("--release");
        }
        let out = cargo.output().expect("spawn cargo build");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "cargo build --bin {name} failed:\n{stderr}");
        built.push(name.to_string());
    }
    profile_dir.join(format!("{name}{}", std::env::consts::EXE_SUFFIX))
}

/// A spawned `regend` that has bound its port and answers `/healthz`.
/// Dropping it SIGKILLs the process, so a failing test leaves none
/// behind.
pub struct Daemon {
    child: Child,
    /// `http://127.0.0.1:<port>`.
    pub base: String,
    /// Its stderr lines, read so far.
    log: Vec<String>,
    lines: Receiver<String>,
    /// Drains stderr for the daemon's whole life, so the pipe never
    /// fills and blocks it; ends at EOF, when the daemon exits.
    reader: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `regend --addr 127.0.0.1:0 <args>`, reads the address it
    /// bound from its `listening on` line, and waits until `/healthz`
    /// answers 200 with `"status":"ok"`.
    pub fn spawn(args: &[&str]) -> Daemon {
        Daemon::start(Command::new(binary("regend")), args)
    }

    /// [`Daemon::spawn`] with its soft descriptor limit
    /// (`RLIMIT_NOFILE`) lowered to `nofile` before `regend` starts; the
    /// hard limit stays, so [`Daemon::raise_nofile`] can lift it again.
    pub fn spawn_with_nofile(args: &[&str], nofile: u64) -> Daemon {
        use std::os::unix::process::CommandExt;
        let limit = RLimit { cur: nofile, max: nofile_limit(0).max };
        let mut command = Command::new(binary("regend"));
        let hook = move || {
            // SAFETY: setrlimit(2) reads one struct that outlives the
            // call, and it is async-signal-safe, as a hook that runs
            // between fork and exec must be.
            match unsafe { setrlimit(RLIMIT_NOFILE, &limit) } {
                0 => Ok(()),
                _ => Err(std::io::Error::last_os_error()),
            }
        };
        // SAFETY: the hook allocates nothing and takes no lock.
        unsafe { command.pre_exec(hook) };
        Daemon::start(command, args)
    }

    fn start(mut command: Command, args: &[&str]) -> Daemon {
        let mut child = command
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn regend");
        let stderr = child.stderr.take().expect("piped stderr");
        let (tx, lines) = std::sync::mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let (base, log, reader) = (String::new(), Vec::new(), Some(reader));
        let mut daemon = Daemon { child, base, log, lines, reader };
        while daemon.base.is_empty() {
            let line = daemon.lines.recv_timeout(Duration::from_secs(60));
            let line = line.unwrap_or_else(|e| panic!("regend {args:?} never listened: {e}"));
            if let Some(rest) = line.strip_prefix("regend: listening on ") {
                let url = rest.split(' ').next().unwrap_or_default();
                daemon.base = url.trim_end_matches('/').to_string();
            }
            daemon.log.push(line);
        }
        let health = get(&daemon.base, "/healthz");
        assert_eq!(health.status, 200, "{}", health.text());
        assert!(health.text().contains("\"status\":\"ok\""), "{}", health.text());
        daemon
    }

    /// Raises the running daemon's soft descriptor limit to `nofile`:
    /// descriptors free up without any of its connections closing.
    pub fn raise_nofile(&self, nofile: u64) {
        let pid = i32::try_from(self.child.id()).expect("pid fits in pid_t");
        let limit = RLimit { cur: nofile, max: nofile_limit(pid).max };
        // SAFETY: prlimit(2) reads one live struct and, given a null
        // `old`, writes nothing; the pid is our unreaped child.
        let r = unsafe { prlimit(pid, RLIMIT_NOFILE, &limit, std::ptr::null_mut()) };
        assert_eq!(r, 0, "prlimit: {}", std::io::Error::last_os_error());
    }

    /// `host:port` of the listener.
    pub fn addr(&self) -> &str {
        self.base.strip_prefix("http://").expect("http base URL")
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL: no drain, no flush, no unwinding.
    pub fn sigkill(&mut self) {
        self.child.kill().expect("SIGKILL regend");
        self.child.wait().expect("reap regend");
    }

    /// SIGTERM, then waits for the drain. Returns the exit status and
    /// everything the daemon wrote to stderr.
    pub fn terminate(mut self) -> (ExitStatus, String) {
        // kill(2), declared the way `serve::sys` declares epoll: libc is
        // always linked, and std's `Child::kill` only sends SIGKILL.
        extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        const SIGTERM: i32 = 15;
        let pid = i32::try_from(self.child.id()).expect("pid fits in pid_t");
        // SAFETY: kill(2) takes no pointers; the pid is our unreaped
        // child, so it cannot name another process.
        assert_eq!(unsafe { kill(pid, SIGTERM) }, 0, "kill(SIGTERM)");
        let status = self.child.wait().expect("reap regend");
        if let Some(reader) = self.reader.take() {
            reader.join().expect("stderr reader");
        }
        let rest: Vec<String> = self.lines.try_iter().collect();
        self.log.extend(rest);
        (status, self.log.join("\n"))
    }
}

/// `struct rlimit`, for the resource-limit calls below, declared the way
/// [`Daemon::terminate`] declares kill(2).
#[repr(C)]
struct RLimit {
    cur: u64,
    max: u64,
}

const RLIMIT_NOFILE: i32 = 7;

extern "C" {
    fn setrlimit(resource: i32, limit: *const RLimit) -> i32;
    fn prlimit(pid: i32, resource: i32, new: *const RLimit, old: *mut RLimit) -> i32;
}

/// The descriptor limit of process `pid` (0: this one).
fn nofile_limit(pid: i32) -> RLimit {
    let mut limit = RLimit { cur: 0, max: 0 };
    // SAFETY: prlimit(2) with a null `new` only writes `limit`, which
    // is live and exclusively borrowed.
    let r = unsafe { prlimit(pid, RLIMIT_NOFILE, std::ptr::null(), &mut limit) };
    assert_eq!(r, 0, "prlimit: {}", std::io::Error::last_os_error());
    limit
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}
