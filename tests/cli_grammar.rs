//! The command-line grammar of `regen` and `regend`, over the real
//! binaries. All five command lines (the `regen` sweep, `regen
//! campaign`, `regen loadgen`, `regend` and `regend campaign`) read
//! their flags with one reader, so they keep one contract:
//!
//! - every count and millisecond flag takes a positive integer; a zero,
//!   a non-number or a missing value exits 2, names the flag and prints
//!   the usage before anything starts (as a bad `REGEN_JOBS` does where
//!   `--jobs` is read);
//! - every such flag is in its binary's `--help`, and each command
//!   line's `--help` exits 0;
//! - a flag is read only where a flag can stand, never as another
//!   flag's value.
//!
//! Each child is killed after a deadline, so a missing check fails the
//! test instead of hanging it on a daemon or a sweep that started.

mod support;

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use support::{binary, scratch};

/// How long a child may run before it is killed. A usage error exits at
/// once; only a run that wrongly started comes near this.
const DEADLINE: Duration = Duration::from_secs(30);

/// One command line and its count and millisecond flags.
struct Line {
    bin: &'static str,
    /// The subcommand word, if any.
    sub: &'static [&'static str],
    /// Arguments before the flag under test that keep a run which does
    /// start cheap and short.
    cheap: &'static [&'static str],
    flags: &'static [&'static str],
}

const LINES: [Line; 5] = [
    Line { bin: "regen", sub: &[], cheap: &["--quick", "table2"], flags: &["--retries", "--jobs"] },
    Line {
        bin: "regen",
        sub: &["campaign"],
        cheap: &["--quick", "table2"],
        flags: &["--retries", "--jobs", "--sample"],
    },
    Line {
        bin: "regen",
        sub: &["loadgen"],
        cheap: &["--requests", "1", "http://127.0.0.1:9/healthz"],
        flags: &["--requests", "--connections", "--timeout-ms"],
    },
    Line {
        bin: "regend",
        sub: &[],
        cheap: &["--addr", "127.0.0.1:0", "--quick"],
        flags: &[
            "--workers",
            "--queue",
            "--jobs",
            "--retries",
            "--shards",
            "--deadline-ms",
            "--idle-timeout-ms",
            "--probe-interval-ms",
        ],
    },
    Line { bin: "regend", sub: &["campaign"], cheap: &[], flags: &["--shards", "--jobs"] },
];

/// What a child did before it exited or was killed.
struct Run {
    what: String,
    code: Option<i32>,
    stdout: String,
    stderr: String,
}

impl Run {
    /// Whether the run got past its command line: it printed a result,
    /// or a daemon bound its port.
    fn started(&self) -> bool {
        !self.stdout.is_empty() || self.stderr.contains("listening on")
    }

    /// A usage error: exit 2, `wanted` and the usage on stderr, and
    /// nothing started. Returns the mismatch, if any.
    fn usage_error(&self, bin: &str, wanted: &str) -> Option<String> {
        let usage = format!("usage: {bin}");
        let ok = self.code == Some(2)
            && self.stderr.contains(wanted)
            && self.stderr.contains(&usage)
            && !self.started();
        (!ok).then(|| self.mismatch(&format!("exit 2 naming {wanted:?} before anything starts")))
    }

    fn mismatch(&self, wanted: &str) -> String {
        let Run { what, code, stdout, stderr } = self;
        let stdout = stdout.len();
        format!("{what}: wanted {wanted}; got exit {code:?}, {stdout} stdout bytes, stderr:\n{stderr}")
    }
}

/// Runs `bin args` in `dir` with `REGEN_JOBS` set to `jobs`, or removed
/// (the suite itself runs under `REGEN_JOBS` 1 and 4), and kills it
/// after [`DEADLINE`].
fn run(bin: &str, args: &[&str], jobs: Option<&str>, dir: &Path) -> Run {
    let mut cmd = Command::new(binary(bin));
    cmd.args(args).current_dir(dir);
    cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::piped());
    match jobs {
        Some(v) => cmd.env("REGEN_JOBS", v),
        None => cmd.env_remove("REGEN_JOBS"),
    };
    let mut child = cmd.spawn().unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    let deadline = Instant::now() + DEADLINE;
    while child.try_wait().expect("poll the child").is_none() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let _ = child.kill();
    let out = child.wait_with_output().expect("collect the child's output");
    let env = jobs.map_or(String::new(), |v| format!("REGEN_JOBS={v} "));
    Run {
        what: format!("{env}{bin} {}", args.join(" ")),
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

#[test]
fn every_count_and_millisecond_flag_is_a_positive_integer() {
    let dir = scratch("cli-counts");
    let mut failures = Vec::new();
    for line in &LINES {
        let help = run(line.bin, &[line.sub, &["--help"]].concat(), None, &dir);
        if help.code != Some(0) {
            failures.push(help.mismatch("exit 0"));
        }
        for &flag in line.flags {
            if !help.stdout.contains(flag) {
                failures.push(help.mismatch(&format!("{flag} in the --help text")));
            }
            let cases = [
                (Some("0"), format!("{flag} must be at least 1")),
                (Some("x"), format!("{flag} must be a positive integer, got \"x\"")),
                (None, format!("{flag} needs a value")),
            ];
            for (value, wanted) in cases {
                let args = [line.sub, line.cheap, &[flag], value.as_slice()].concat();
                failures.extend(run(line.bin, &args, None, &dir).usage_error(line.bin, &wanted));
            }
        }
        if line.flags.contains(&"--jobs") {
            let cases = [
                ("0", "REGEN_JOBS must be at least 1"),
                ("x", "REGEN_JOBS must be a positive integer, got \"x\""),
            ];
            for (value, wanted) in cases {
                let args = [line.sub, line.cheap].concat();
                let bad_env = run(line.bin, &args, Some(value), &dir);
                failures.extend(bad_env.usage_error(line.bin, wanted));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}

#[test]
fn a_flag_is_read_only_where_a_flag_can_stand() {
    let dir = scratch("cli-values");
    let mut failures = Vec::new();

    // `--list` as the value of `--out` is a file name: the sweep runs
    // and writes its rendering there.
    let sweep = run("regen", &["--quick", "--out", "--list", "table2"], None, &dir);
    let written = std::fs::read_to_string(dir.join("--list")).unwrap_or_default();
    if sweep.code != Some(0) || !sweep.stdout.contains("Table 2") || written != sweep.stdout {
        failures.push(sweep.mismatch("exit 0 with table2 written to a file named --list"));
    }

    // `--help` or `-h` as the value of a count is a bad count, not a
    // request for the usage.
    let as_values = [
        ("regen", &["--retries", "--help", "table2"][..], "--retries"),
        ("regen", &["campaign", "--sample", "-h"], "--sample"),
        ("regen", &["loadgen", "--timeout-ms", "--help", "http://127.0.0.1:9/"], "--timeout-ms"),
        ("regend", &["--addr", "127.0.0.1:0", "--retries", "--help"], "--retries"),
        ("regend", &["campaign", "--jobs", "--help"], "--jobs"),
    ];
    for (bin, args, flag) in as_values {
        let wanted = format!("{flag} must be a positive integer, got");
        failures.extend(run(bin, args, None, &dir).usage_error(bin, &wanted));
    }

    // Where it stands as a flag, every subcommand's `--help` is the
    // usage on stdout and exit 0; any other flag there is a usage error.
    for sub in ["fetch", "fsck"] {
        let help = run("regen", &[sub, "--help"], None, &dir);
        if help.code != Some(0) || !help.stdout.starts_with("usage: regen") {
            failures.push(help.mismatch("the usage on stdout and exit 0"));
        }
        let wanted = "unknown flag: --list";
        failures.extend(run("regen", &[sub, "--list"], None, &dir).usage_error("regen", wanted));
    }
    let wanted = "unknown campaign flag: --bogus";
    failures.extend(run("regend", &["campaign", "--bogus"], None, &dir).usage_error("regend", wanted));

    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n\n"));
}
