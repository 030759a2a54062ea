//! The fault-tolerance acceptance test: a `FaultPlan` that permanently
//! kills one lattice cell must not take the sweep down with it.
//!
//! * `--keep-going` still renders *every* artifact;
//! * exactly the slices adjacent to the failed cell are marked degraded
//!   (and only on the affected CPU's bar);
//! * the report is not clean (the regen binary maps that to a nonzero
//!   exit code);
//! * `--resume <log>` re-runs only the failed cell, reusing every
//!   journaled measurement, and converges to the fault-free rendering.

use bench::{run_regen, Artifact, RegenOptions};
use spectrebench::{Executor, FaultKind, FaultPlan, Harness, Journal};

/// The one lattice cell this test assassinates: Figure 2's quick-mode
/// Broadwell measurement with PTI disabled. It is a *middle* cell of the
/// successive-disable lattice, so `attribute()` must bridge over it.
const VICTIM_CELL: &str = "figure2/Broadwell/getpid/[nopti]";

fn journal_path(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("spectrebench-recovery-{tag}-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn keep_going_sweep_degrades_one_slice_and_resume_reruns_only_the_failed_cell() {
    let log = journal_path("sweep");

    // ---- Sweep 1: every artifact, quick, with the victim cell dead. ----
    let opts = RegenOptions {
        artifacts: Vec::new(), // all of them
        quick: true,
        keep_going: true,
        retries: Some(2), // fail fast; the fault is permanent anyway
        inject: Some(FaultPlan::new().fail_cell(VICTIM_CELL, FaultKind::SimFault, None)),
        resume: Some(log.clone()),
        ..RegenOptions::default()
    };
    let report = run_regen(&opts).expect("journal opens");

    // Every artifact still rendered.
    assert_eq!(report.results.len(), Artifact::ALL.len());
    assert!(
        report.failures().is_empty(),
        "no artifact may fail outright: {:?}",
        report.failures()
    );
    // Exactly Figure 2 is degraded, and the sweep is not clean (the
    // binary turns that into a nonzero exit).
    assert_eq!(report.degraded(), vec![Artifact::Figure2]);
    assert!(!report.is_clean());
    assert!(report.stats.faults_injected >= 2, "{:?}", report.stats);
    assert!(report.stats.cells_failed >= 1);

    // Only the Broadwell bar carries degraded slices, and they are the
    // two bridged over the dead [nopti] cell.
    let fig2 = &report
        .results
        .iter()
        .find(|r| r.artifact == Artifact::Figure2)
        .unwrap()
        .outcome
        .as_ref()
        .unwrap()
        .text;
    for line in fig2.lines() {
        // Skip the footnote legend explaining the marker itself.
        if line.contains('†') && !line.trim_start().starts_with('†') {
            assert!(line.contains("Broadwell"), "only Broadwell is degraded: {line}");
        }
    }
    assert!(fig2.contains('†'), "the degraded slice is marked:\n{fig2}");

    // ---- Sweep 2: resume Figure 2 from the journal, fault-free. ----
    let opts = RegenOptions {
        artifacts: vec![Artifact::Figure2],
        quick: true,
        resume: Some(log.clone()),
        ..RegenOptions::default()
    };
    let resumed = run_regen(&opts).expect("journal reopens");
    assert!(resumed.failures().is_empty());
    assert!(resumed.degraded().is_empty(), "the bridged slice heals on resume");
    assert!(resumed.is_clean());
    // Every cell except the previously failed one comes from the journal.
    assert_eq!(
        resumed.stats.cells_run, 1,
        "resume re-measures only the failed cell: {:?}",
        resumed.stats
    );
    assert!(
        resumed.stats.cells_from_journal >= 8,
        "the rest replays from the journal: {:?}",
        resumed.stats
    );

    // The healed figure matches a fault-free run exactly (cell noise
    // seeds are deterministic, and successful first attempts use the
    // same seed as a never-faulted run).
    let clean = Artifact::Figure2
        .regenerate(true, &Executor::default())
        .expect("clean reference run");
    let resumed_text = &resumed
        .results
        .first()
        .unwrap()
        .outcome
        .as_ref()
        .unwrap()
        .text;
    assert_eq!(resumed_text, &clean.text);

    let _ = std::fs::remove_file(&log);
}

#[test]
fn journal_survives_truncation_mid_line() {
    // An interrupted run can die mid-write; the loader must skip the
    // torn final line and resume from the intact prefix.
    let log = journal_path("torn");
    {
        let j = Journal::open(&log).expect("create");
        let exec = Executor::new(Harness::new()).with_journal(j);
        // Populate with real journaled lattice cells.
        let _ =
            spectrebench::experiments::figure2::run(&exec, &[cpu_models::CpuId::Broadwell], true)
                .unwrap();
    }
    // Tear the file: chop the last 10 bytes.
    let bytes = std::fs::read(&log).expect("journal exists");
    assert!(bytes.len() > 20);
    std::fs::write(&log, &bytes[..bytes.len() - 10]).expect("truncate");

    let j = Journal::open(&log).expect("reopen tolerates torn line");
    assert!(j.scan().valid > 0, "intact prefix survives");
    assert_eq!(j.scan().truncated, 1, "the torn line is skipped");
    let _ = std::fs::remove_file(&log);
}
