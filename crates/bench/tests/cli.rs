//! Exit-code contract of the `regen` binary: usage errors are exit 2
//! (distinct from exit 1, which means a sweep ran but was not clean),
//! and `regen fsck` maps journal damage severity onto exit codes.

use std::path::{Path, PathBuf};
use std::process::Command;

fn regen() -> Command {
    Command::new(env!("CARGO_BIN_EXE_regen"))
}

/// A scratch directory unique to this test (the suite runs tests in
/// parallel in one process).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("regen-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Runs a quick table1 sweep journaling into `journal`, returning
/// (exit code, stderr).
fn sweep(journal: &Path, extra: &[&str]) -> (Option<i32>, String) {
    let mut cmd = regen();
    cmd.args(["--quick", "--resume"]).arg(journal).args(extra).arg("table1");
    let out = cmd.output().expect("spawn regen");
    (out.status.code(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_artifact_lists_valid_names_and_exits_2() {
    let out = regen().arg("table42").output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown artifact: table42"), "{stderr}");
    // The error must enumerate what *is* valid.
    for name in ["figure2", "table1", "table9"] {
        assert!(stderr.contains(name), "artifact list names {name}: {stderr}");
    }
}

#[test]
fn unknown_flag_exits_2() {
    let out = regen().arg("--frobnicate").output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn help_exits_0() {
    let out = regen().arg("--help").output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for flag in ["--quick", "--keep-going", "--retries", "--resume", "--inject"] {
        assert!(stdout.contains(flag), "help documents {flag}");
    }
}

#[test]
fn cheap_artifact_regenerates_cleanly() {
    let out = regen().args(["--quick", "table2"]).output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("Table 2"));
}

#[test]
fn fsck_without_a_path_exits_2() {
    let out = regen().arg("fsck").output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(2));
    let out = regen().args(["fsck", "a", "b"]).output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(2));
    let out = regen().args(["fsck", "/nonexistent/journal.jsonl"]).output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(2), "unreadable journal is severity 2");
}

#[test]
fn truncated_journal_resumes_after_fsck() {
    let dir = scratch("torn");
    let journal = dir.join("run.jsonl");
    let _ = std::fs::remove_file(&journal);

    // Seed the journal with a clean quick sweep, then tear its tail:
    // drop the final newline plus a few bytes, as a SIGKILL mid-append
    // would.
    let (code, stderr) = sweep(&journal, &[]);
    assert_eq!(code, Some(0), "{stderr}");
    let text = std::fs::read_to_string(&journal).expect("journal exists");
    assert!(text.starts_with("#regen-journal v2\n"), "v2 header present");
    let torn = &text.as_bytes()[..text.len() - 5];
    assert!(!torn.ends_with(b"\n"));
    std::fs::write(&journal, torn).expect("tear the journal tail");

    // fsck: severity 1 (recoverable crash artifact), compacted rewrite.
    let out = regen().args(["fsck"]).arg(&journal).output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(1), "torn tail is severity 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("1 truncated"), "{stderr}");
    assert!(stderr.contains("quarantined"), "{stderr}");
    assert!(dir.join("run.jsonl.quarantine").exists(), "quarantine file written");

    // A second fsck finds the compacted journal fully clean.
    let out = regen().args(["fsck"]).arg(&journal).output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(0), "compacted journal is clean");

    // Resuming completes the sweep: the compacted journal replays
    // cleanly (no damage warning) and only the torn cell re-runs.
    let (code, stderr) = sweep(&journal, &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("warning: journal"), "compacted journal is clean: {stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_journal_is_detected_and_quarantined() {
    let dir = scratch("flip");
    let journal = dir.join("run.jsonl");
    let _ = std::fs::remove_file(&journal);

    let (code, stderr) = sweep(&journal, &[]);
    assert_eq!(code, Some(0), "{stderr}");
    // Flip one byte in the middle of the first entry line (silent media
    // corruption: the line structure survives, the checksum must not).
    let mut bytes = std::fs::read(&journal).expect("journal exists");
    let header_end = bytes.iter().position(|&b| b == b'\n').expect("header line") + 1;
    let line_end = header_end
        + bytes[header_end..].iter().position(|&b| b == b'\n').expect("entry line");
    let mid = header_end + (line_end - header_end) / 2;
    assert_ne!(bytes[mid], b'\n');
    bytes[mid] ^= 0x01;
    std::fs::write(&journal, &bytes).expect("corrupt the journal");

    // The resumed sweep warns, re-runs the damaged cell, and still
    // exits 0 — corruption costs a re-measurement, never the sweep.
    let (code, stderr) = sweep(&journal, &[]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stderr.contains("corrupt"), "resume names the damage: {stderr}");

    // The journal is append-only, so the flipped line is still in
    // place; fsck quarantines it: severity 2.
    let out = regen().args(["fsck"]).arg(&journal).output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(2), "corruption is severity 2");
    let q = std::fs::read_to_string(dir.join("run.jsonl.quarantine"))
        .expect("quarantine file written");
    assert!(!q.trim().is_empty(), "quarantine holds the damaged line");

    // After quarantine the journal is clean and the sweep resumes.
    let out = regen().args(["fsck"]).arg(&journal).output().expect("spawn regen");
    assert_eq!(out.status.code(), Some(0));
    let (code, stderr) = sweep(&journal, &[]);
    assert_eq!(code, Some(0), "{stderr}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_io_faults_damage_the_journal_without_failing_the_sweep() {
    let dir = scratch("io-inject");
    let journal = dir.join("run.jsonl");
    let _ = std::fs::remove_file(&journal);

    // Damage every Broadwell cell's journal line: torn appends. The
    // sweep itself must stay clean (exit 0, no degraded artifacts).
    let (code, stderr) = sweep(
        &journal,
        &["--inject", "cell=Broadwell:kind=torn-write:times=1"],
    );
    assert_eq!(code, Some(0), "io faults never fail the sweep: {stderr}");
    assert!(stderr.contains("faults injected"), "{stderr}");

    // fsck classifies the damage (mid-file torn lines are corrupt,
    // a final torn line is truncated — either way nonzero severity).
    let out = regen().args(["fsck"]).arg(&journal).output().expect("spawn regen");
    assert!(
        matches!(out.status.code(), Some(1) | Some(2)),
        "damaged journal yields nonzero fsck severity: {:?}",
        out.status.code()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_permanent_fault_exits_nonzero_with_keep_going() {
    let out = regen()
        .args([
            "--quick",
            "--keep-going",
            "--retries",
            "2",
            "--inject",
            "cell=Broadwell/getpid/[nopti]:kind=sim:times=forever",
            "figure2",
        ])
        .output()
        .expect("spawn regen");
    assert_eq!(out.status.code(), Some(1), "degraded sweep exits 1");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DEGRADED"), "{stderr}");
}

/// The cell counts `regen` prints on stderr: (cells run, from cache).
fn printed_cell_counts(stderr: &str) -> (u64, u64) {
    let line = stderr
        .lines()
        .find(|l| l.starts_with("regen: ") && l.contains(" cells run, "))
        .unwrap_or_else(|| panic!("no cell summary on stderr:\n{stderr}"));
    let count = |label: &str| -> u64 {
        let end = line.find(label).unwrap_or_else(|| panic!("{label:?} missing: {line}"));
        let start = line[..end].rfind(' ').map_or(0, |i| i + 1);
        line[start..end].parse().unwrap_or_else(|e| panic!("{line}: {e}"))
    };
    (count(" cells run"), count(" from cache"))
}

/// Both trace and metrics exports of a real run: the trace parses and
/// holds spans, and the exposition's cell counters equal what `regen`
/// prints. With metrics alone nothing is recorded, and the counters
/// still come out the same.
#[test]
fn trace_and_metrics_exports_agree_with_the_printed_summary() {
    let dir = scratch("obs");
    let trace = dir.join("trace.json");
    let prom = dir.join("metrics.prom");
    let artifacts = ["--quick", "table9", "table10", "table9"];
    for with_trace in [true, false] {
        let _ = std::fs::remove_file(&prom);
        let mut cmd = regen();
        cmd.args(artifacts).arg("--metrics-out").arg(&prom);
        if with_trace {
            cmd.arg("--trace-out").arg(&trace);
        }
        let out = cmd.output().expect("spawn regen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{stderr}");
        let (run, cached) = printed_cell_counts(&stderr);
        assert!(cached > 0, "the repeated table9 is served from cache: {stderr}");

        let text = std::fs::read_to_string(&prom).expect("metrics written");
        assert!(text.contains(&format!("\nregen_cells_simulated_total {run}\n")), "{text}");
        assert!(text.contains(&format!("\nregen_cells_cached_total {cached}\n")), "{text}");
        if with_trace {
            let json = std::fs::read_to_string(&trace).expect("trace written");
            spectrebench::json::parse(&json).expect("the trace is well-formed JSON");
            assert!(json.contains("\"ph\":\"X\""), "cell spans present");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
