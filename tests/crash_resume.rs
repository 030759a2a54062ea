//! The kill-and-resume proof: SIGKILL a real `regen` process mid-sweep
//! at seeded points, fsck the journal it left behind, resume, and
//! demand the final artifact is byte-identical to the committed golden
//! file. This is the crash-safety contract end to end — journal v2
//! checksums, torn-tail classification, `regen fsck` quarantine +
//! compaction, and atomic (`tmp + fsync + rename`) artifact writes —
//! exercised through the actual binary, not in-process shims.
//!
//! Also proves the panic-isolation acceptance criterion: a sweep whose
//! compute closures panic permanently still renders every artifact
//! (degraded, `†`-bridged) and exits 1 — never a process abort.
//!
//! The test profile runs the kill chain under one seed; a release build
//! (`cargo test --release`) runs it under five other seeds.

use std::process::{Command, Stdio};
use std::time::Duration;

mod support;
use support::{binary, scratch, Rng};

/// Seeds for the kill instants: one in the test profile, five in
/// release builds, each on a fresh journal.
const SEEDS: &[u64] =
    if cfg!(debug_assertions) { &[0xC0FF_EE00] } else { &[17, 4242, 31337, 271828, 3141592] };

#[test]
fn sigkill_fsck_resume_reproduces_the_golden_file() {
    for &seed in SEEDS {
        kill_fsck_resume(seed);
    }
}

fn kill_fsck_resume(seed: u64) {
    let bin = binary("regen");
    let dir = scratch(&format!("crash-{seed}"));
    let journal = dir.join("run.jsonl");
    let out_path = dir.join("final.txt");
    let mut rng = Rng::new(seed);

    // Three progressive kills on ONE journal: each round the child
    // replays everything already journaled, gets a little further, and
    // is killed at a seeded instant mid-sweep. Work is never lost, so
    // the whole chain costs roughly one full sweep.
    for round in 0..3 {
        let mut child = Command::new(&bin)
            .args(["--keep-going", "--resume"])
            .arg(&journal)
            .arg("--out")
            .arg(&out_path)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn regen");
        // 200ms..2.2s after launch: early kills land mid-plan, late
        // kills land between plans — both must be survivable.
        let delay = Duration::from_millis(200 + rng.next() % 2000);
        std::thread::sleep(delay);
        // SIGKILL: no atexit handlers, no flush, no unwinding. If the
        // sweep already finished, the exit status is real; otherwise it
        // must report the kill signal.
        child.kill().expect("SIGKILL regen");
        let status = child.wait().expect("reap regen");
        assert!(
            !status.success() || out_path.exists(),
            "seed {seed} round {round}: a successful exit implies the artifact was written"
        );

        // fsck whatever the kill left: any severity is legal (clean,
        // torn tail, or a tear that mimics corruption), but fsck must
        // terminate, compact, and leave a journal a second fsck calls
        // clean.
        let fsck = Command::new(&bin)
            .arg("fsck")
            .arg(&journal)
            .output()
            .expect("spawn regen fsck");
        assert!(
            matches!(fsck.status.code(), Some(0) | Some(1) | Some(2)),
            "seed {seed} round {round}: fsck exits by severity, got {:?}",
            fsck.status.code()
        );
        let refsck = Command::new(&bin)
            .arg("fsck")
            .arg(&journal)
            .output()
            .expect("spawn regen fsck again");
        assert_eq!(
            refsck.status.code(),
            Some(0),
            "seed {seed} round {round}: a compacted journal must verify clean: {}",
            String::from_utf8_lossy(&refsck.stderr)
        );
    }

    // Final, uninterrupted run: resumes from the surviving journal and
    // must complete cleanly.
    let out = Command::new(&bin)
        .args(["--keep-going", "--resume"])
        .arg(&journal)
        .arg("--out")
        .arg(&out_path)
        .stdout(Stdio::null())
        .output()
        .expect("spawn final regen");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "seed {seed}: final resumed run is clean:\n{stderr}");

    // The acceptance bar: byte identity with the committed golden file.
    // Replayed journal values went through f64 Display/parse, so any
    // rounding drift or seed mismatch shows up here as a diff.
    let golden_path = concat!(env!("CARGO_MANIFEST_DIR"), "/results_regenerated.txt");
    let golden = std::fs::read(golden_path).expect("committed golden file exists");
    let produced = std::fs::read(&out_path).expect("final artifact written");
    assert!(
        produced == golden,
        "seed {seed}: resumed artifact must be byte-identical to the golden file \
         (first divergence at byte {})",
        produced
            .iter()
            .zip(golden.iter())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| produced.len().min(golden.len()))
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanent_panics_degrade_under_the_breaker_but_every_artifact_renders() {
    let bin = binary("regen");
    // The first three middle cells of every successive-disable lattice
    // panic forever (bracket-exact config substrings, so the `default`
    // and `mitigations=off` anchors — and every other experiment's
    // cells — are untouched). The harness must catch each unwind, the
    // circuit breaker must trip after 3 consecutive panicked cells and
    // degrade the remaining middles unrun (anchors are critical cells
    // and still run), and the sweep must still render EVERY artifact —
    // Figure 2 degraded with `†` bridges, the rest clean — and exit 1.
    // A SIGABRT (panic reaching the process boundary) fails the status
    // assertions below. Serial (`--jobs 1`) keeps the streak
    // deterministic: a clean cell finishing mid-trip would reset it.
    let inject = "cell=[nopti]:kind=panic:times=forever,\
                  cell=[nopti mds=off]:kind=panic:times=forever,\
                  cell=[nopti mds=off nospectre_v2]:kind=panic:times=forever";
    let out = Command::new(&bin)
        .args([
            "--quick",
            "--keep-going",
            "--retries",
            "2",
            "--jobs",
            "1",
            "--inject",
            inject,
        ])
        .output()
        .expect("spawn regen");
    assert_eq!(
        out.status.code(),
        Some(1),
        "degraded sweep exits 1, never aborts; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    // Every artifact block rendered — nothing was cut short.
    for caption in ["Table 1", "Table 2", "Figure 2", "Figure 3", "Table 9", "Table 10"] {
        assert!(stdout.contains(caption), "{caption} must render:\n{stderr}");
    }
    assert!(stdout.contains('†'), "figure2's dead cells are bridged:\n{stdout}");
    assert!(stderr.contains("panic(s) caught"), "summary counts panics:\n{stderr}");
    assert!(
        stderr.contains("degraded by the panic circuit breaker"),
        "summary counts breaker skips:\n{stderr}"
    );
    assert!(stderr.contains("DEGRADED"), "figure2 reported degraded:\n{stderr}");
}
