//! Fault-campaign proofs: the coordinate space is duplicate-free and
//! deterministic, stratified samples are seed-stable subsets, a full
//! campaign over a small experiment classifies every coordinate with
//! zero silent corruption (byte-identical report for a fixed seed, and
//! byte-identical to the committed `CAMPAIGN_BASELINE.json`), and a
//! campaign SIGKILLed mid-flight resumes from its journal instead of
//! starting over.

use std::collections::HashSet;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use bench::campaign::{run_campaign, CampaignOptions};
use bench::Artifact;
use spectrebench::campaign::{
    enumerate_coordinates, stratified_sample, Coordinate, FaultPoint, SurvivalClass,
};
use spectrebench::{EventBus, FaultKind};

mod support;
use support::{binary, scratch, Rng};

#[test]
fn coordinate_space_is_duplicate_free_and_deterministic() {
    let mut rng = Rng::new(0xCA3);
    for round in 0..25 {
        // Random cell census (with deliberate duplicates) and retry
        // budget.
        let n_cells = 1 + (rng.next() % 12) as usize;
        let retries = 1 + (rng.next() % 4) as u32;
        let mut cells: Vec<(String, u64)> = (0..n_cells)
            .map(|i| (format!("cpu{}/w{}/[c]", rng.next() % 6, i % 4), rng.next() % 3))
            .collect();
        let dup = cells[(rng.next() as usize) % cells.len()].clone();
        cells.push(dup);

        let space = enumerate_coordinates(&cells, retries);
        let distinct: HashSet<(String, u64)> = cells.iter().cloned().collect();
        // Size law: compute kinds get `retries` attempt depths, the two
        // I/O kinds one each.
        let compute = FaultKind::ALL.iter().filter(|k| !k.is_io()).count();
        let io = FaultKind::ALL.len() - compute;
        assert_eq!(
            space.len(),
            distinct.len() * (compute * retries as usize + io),
            "round {round}"
        );
        let ids: HashSet<String> = space.iter().map(Coordinate::id).collect();
        assert_eq!(ids.len(), space.len(), "round {round}: duplicate-free");
        assert_eq!(
            space,
            enumerate_coordinates(&cells, retries),
            "round {round}: deterministic"
        );
        // Ids round-trip, so the campaign journal can name any point.
        for c in &space {
            assert_eq!(Coordinate::parse_id(&c.id()).as_ref(), Some(c), "round {round}");
        }
    }
}

#[test]
fn stratified_sample_is_seed_stable_and_a_subset() {
    let mut rng = Rng::new(0x5A11);
    let cells: Vec<(String, u64)> =
        (0..15).map(|i| (format!("cpu{i}/w/[c]"), 0)).collect();
    let space = enumerate_coordinates(&cells, 3);
    let all_ids: HashSet<String> = space.iter().map(Coordinate::id).collect();
    for _ in 0..25 {
        let n = 1 + (rng.next() as usize) % (space.len() + 20);
        let seed = rng.next();
        let sample = stratified_sample(&space, n, seed);
        assert_eq!(sample.len(), n.min(space.len()), "exact quota");
        assert_eq!(sample, stratified_sample(&space, n, seed), "seed-stable");
        assert!(
            sample.iter().all(|c| all_ids.contains(&c.id())),
            "subset of the full space"
        );
        // Enumeration order is preserved, so sampled reports read like
        // filtered full reports.
        let positions: Vec<usize> = sample
            .iter()
            .map(|c| space.iter().position(|s| s == c).expect("member"))
            .collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "order preserved");
        // Every fault kind keeps representation once the sample is at
        // least one per stratum.
        if n >= FaultKind::ALL.len() {
            for kind in FaultKind::ALL {
                assert!(sample.iter().any(|c| c.kind == kind), "stratum {kind} covered");
            }
        }
    }
}

#[test]
fn full_campaign_classifies_every_coordinate_with_no_silent_corruption() {
    let dir = scratch("full");
    let bus = Arc::new(EventBus::new());
    let opts = CampaignOptions {
        artifacts: vec![Artifact::Table1],
        quick: true,
        retries: 2,
        dir: dir.join("a"),
        report_out: Some(dir.join("report-a.json")),
        obs: Some(Arc::clone(&bus)),
        ..CampaignOptions::default()
    };
    let run = run_campaign(&opts).expect("campaign completes");

    // Every coordinate of the enumerated space is classified, exactly
    // once, in enumeration order.
    assert_eq!(run.report.outcomes.len(), run.space, "full enumeration");
    assert_eq!(run.executed, run.report.outcomes.len());
    assert_eq!(run.replayed, 0);
    let ids: Vec<String> = run.report.outcomes.iter().map(|o| o.coord.id()).collect();
    let unique: HashSet<&String> = ids.iter().collect();
    assert_eq!(unique.len(), ids.len(), "each coordinate classified once");

    // The standing invariant: nothing corrupts silently.
    assert!(
        run.report.silent_corruptions().is_empty(),
        "zero silent-corruption rows:\n{}",
        run.report.render_matrix()
    );
    // Every fault the plan was asked to deliver actually fired.
    assert!(
        run.report.outcomes.iter().all(|o| o.counts.is_some_and(|(_, faults)| faults > 0)),
        "every coordinate injected at least one fault"
    );
    // The attempt axis means retry depth is really explored: shallow
    // compute faults absorb, budget-exhausting ones fail loud.
    for o in &run.report.outcomes {
        if !o.coord.kind.is_io() {
            let expect = if o.coord.attempt + 1 < opts.retries {
                SurvivalClass::Absorbed
            } else {
                SurvivalClass::FailedLoud
            };
            assert_eq!(o.class, expect, "{}", o.coord.id());
        } else {
            assert_eq!(o.class, SurvivalClass::Absorbed, "{}", o.coord.id());
        }
    }

    // The campaign surfaced through the bus's metrics exposition.
    let text = bus.metrics(|m| m.render(&run.stats));
    assert!(text.contains("regen_campaign_runs_total 1"), "{text}");
    let absorbed =
        run.report.outcomes.iter().filter(|o| o.class == SurvivalClass::Absorbed).count();
    assert!(
        text.contains(&format!(
            "regen_campaign_coordinates_total{{class=\"absorbed\"}} {absorbed}"
        )),
        "{text}"
    );

    // Byte-determinism: a second campaign with identical inputs renders
    // an identical report.
    let rerun = run_campaign(&CampaignOptions {
        dir: dir.join("b"),
        report_out: Some(dir.join("report-b.json")),
        obs: None,
        ..opts
    })
    .expect("second campaign completes");
    assert_eq!(
        run.report.to_json(),
        rerun.report.to_json(),
        "same inputs, byte-identical report"
    );
    let a = std::fs::read(dir.join("report-a.json")).expect("report a written");
    let b = std::fs::read(dir.join("report-b.json")).expect("report b written");
    assert_eq!(a, b, "written reports byte-identical");
    assert_eq!(a, run.report.to_json().into_bytes(), "file matches in-memory render");
    // These are the committed baseline's inputs: table1, quick, retry
    // budget 2, full enumeration.
    let baseline = std::fs::read(concat!(env!("CARGO_MANIFEST_DIR"), "/CAMPAIGN_BASELINE.json"))
        .expect("committed baseline");
    assert!(a == baseline, "report drifted from CAMPAIGN_BASELINE.json:\n{}", run.report.to_json());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A seeded stratified sample over a two-artifact space (what
/// `regen campaign --quick --retries 2 --sample 60 --seed 20260808
/// table1 table9` runs): a strict subset, every fault kind represented,
/// no silent corruption, and the same report bytes on a re-run.
#[test]
fn sampled_campaign_is_seed_stable_and_exit_clean() {
    let dir = scratch("sampled");
    let opts = CampaignOptions {
        artifacts: vec![Artifact::Table1, Artifact::Table9],
        quick: true,
        retries: 2,
        sample: Some(60),
        seed: 20260808,
        dir: dir.join("a"),
        ..CampaignOptions::default()
    };
    let run = run_campaign(&opts).expect("sampled campaign completes");
    assert_eq!(run.report.outcomes.len(), 60);
    assert!(run.report.outcomes.len() < run.space, "a strict subset");
    for kind in FaultKind::ALL {
        assert!(
            run.report.outcomes.iter().any(|o| o.coord.kind == kind),
            "no {} coordinate in the sample",
            kind.name()
        );
    }
    assert!(run.report.silent_corruptions().is_empty());
    let rerun = run_campaign(&CampaignOptions { dir: dir.join("b"), ..opts })
        .expect("re-run completes");
    assert_eq!(run.report.to_json(), rerun.report.to_json(), "seed-stable");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_survives_sigkill_and_resumes_from_its_journal() {
    let bin = binary("regen");
    let dir = scratch("kill");
    let report_path = dir.join("report.json");
    let campaign_args = |resume: bool| {
        let mut v = vec![
            "campaign".to_string(),
            "--quick".to_string(),
            "--retries".to_string(),
            "2".to_string(),
            "--dir".to_string(),
            dir.to_string_lossy().into_owned(),
            "--report".to_string(),
            report_path.to_string_lossy().into_owned(),
            "table1".to_string(),
        ];
        if resume {
            v.push("--resume".to_string());
        }
        v
    };

    // Start a full campaign and SIGKILL it mid-flight. The kill may
    // land before, during, or after the reference sweep — all must be
    // survivable.
    let mut child = Command::new(&bin)
        .args(campaign_args(false))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn regen campaign");
    std::thread::sleep(Duration::from_millis(400));
    child.kill().expect("SIGKILL regen campaign");
    let _ = child.wait().expect("reap regen campaign");

    // Resume: verdicts already journaled replay; the rest execute. The
    // resumed campaign must finish clean with the complete report.
    let out = Command::new(&bin)
        .args(campaign_args(true))
        .output()
        .expect("spawn resumed campaign");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(0),
        "resumed campaign exits clean:\n{stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("no silent corruption"),
        "matrix reports the invariant:\n{stdout}"
    );
    // 8 table1 cells x (4 compute kinds x 2 attempts + 2 io kinds).
    let report = std::fs::read_to_string(&report_path).expect("report written");
    assert_eq!(report.matches("\"coord\":").count(), 80, "every coordinate classified");
    assert!(report.contains("\"silent-corruption\":0"), "summary is all clear");

    // A second resume replays everything and re-renders the same
    // report bytes: the journal is the source of truth.
    let again = Command::new(&bin)
        .args(campaign_args(true))
        .output()
        .expect("spawn second resume");
    assert_eq!(again.status.code(), Some(0));
    let stderr = String::from_utf8_lossy(&again.stderr);
    assert!(
        stderr.contains("(0 executed now, 80 replayed"),
        "fully replayed from the journal:\n{stderr}"
    );
    let report_again = std::fs::read_to_string(&report_path).expect("report rewritten");
    assert_eq!(report, report_again, "replayed report is byte-identical");

    let _ = std::fs::remove_dir_all(&dir);
}
