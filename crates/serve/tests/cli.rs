//! Exit-code contract of the `regend` binary's worker-count checks: a
//! `--jobs` value or a `REGEN_JOBS` environment variable that is not a
//! positive integer is a usage error (exit 2) before anything boots,
//! for the daemon and for `regend campaign` alike, by the same rule
//! `regen` applies.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

#[test]
fn bad_worker_counts_exit_2_before_anything_boots() {
    for (bad, why) in [("0", "must be at least 1"), ("x", "must be a positive integer")] {
        for mode in [&["--addr", "127.0.0.1:0"][..], &["campaign"]] {
            for from_env in [false, true] {
                let mut cmd = Command::new(env!("CARGO_BIN_EXE_regend"));
                cmd.args(mode).stdout(Stdio::null()).stderr(Stdio::piped());
                if from_env {
                    cmd.env("REGEN_JOBS", bad);
                } else {
                    cmd.env_remove("REGEN_JOBS").args(["--jobs", bad]);
                }
                // A missing check must fail the test, not hang it on a
                // daemon or a campaign that started: kill after 60 s.
                let mut child = cmd.spawn().expect("spawn regend");
                let deadline = Instant::now() + Duration::from_secs(60);
                while child.try_wait().expect("poll regend").is_none() && Instant::now() < deadline
                {
                    std::thread::sleep(Duration::from_millis(20));
                }
                let _ = child.kill();
                let out = child.wait_with_output().expect("collect regend output");
                let stderr = String::from_utf8_lossy(&out.stderr);
                let source = if from_env { "REGEN_JOBS" } else { "--jobs" };
                let what = format!("{source}={bad} regend {mode:?}");
                assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
                assert!(stderr.contains(&format!("{source} {why}")), "{what}: {stderr}");
            }
        }
    }
}
