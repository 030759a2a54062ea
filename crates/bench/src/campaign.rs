//! The `regen campaign` driver: runs the fault-space exploration the
//! core [`spectrebench::campaign`] module defines, over real artifact
//! sweeps.
//!
//! Phase 1 records a clean reference sweep (the cell census and golden
//! artifact bytes). Phase 2 enumerates every `(content-key, attempt,
//! fault-kind)` coordinate — or a seeded stratified sample — and runs
//! each one as an *independent* perturbed sweep: fresh executor, fresh
//! cache, its own scratch journal, the coordinate's [`FaultPlan`], and
//! the unchanged retry/breaker/fsck machinery. Phase 3 classifies each
//! outcome against the reference and reduces the results into the
//! survivability report.
//!
//! Every verdict streams to a crash-safe campaign journal as soon as it
//! is known, so a campaign killed at coordinate 800 of 1000 resumes
//! with `--resume` instead of starting over.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;

use spectrebench::campaign::{
    classify, enumerate_coordinates, stratified_sample, CampaignJournal, Coordinate, FaultPoint,
    Observation, Outcome, Report, SurvivalClass,
};
use spectrebench::obs::EventKind;
use spectrebench::plan::CellValue;
use spectrebench::{
    atomic_write, default_jobs, escape_json, scan_journal_text, EventBus, Executor, Harness,
    HarnessStats, Journal, JournalScan, RetryPolicy,
};

use crate::Artifact;

/// Options for one fault campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Artifacts each sweep regenerates. Empty means all of them
    /// (expensive: every coordinate re-runs the whole set — prefer a
    /// small set or `--sample`).
    pub artifacts: Vec<Artifact>,
    /// Use the quick workload variants.
    pub quick: bool,
    /// Retry budget (attempts per cell) — also the attempt-axis depth
    /// of the coordinate space.
    pub retries: u32,
    /// Worker threads per sweep (`None` = [`default_jobs`]).
    pub jobs: Option<usize>,
    /// Explore only a seeded stratified sample of this size.
    pub sample: Option<usize>,
    /// Seed for the stratified sample.
    pub seed: u64,
    /// Scratch directory: holds the campaign journal and the
    /// per-coordinate cell journals (created if missing).
    pub dir: PathBuf,
    /// Resume from the campaign journal already in `dir` instead of
    /// starting fresh.
    pub resume: bool,
    /// Write the JSON survivability report here (atomically).
    pub report_out: Option<PathBuf>,
    /// Record campaign progress events on this bus.
    pub obs: Option<Arc<EventBus>>,
}

impl Default for CampaignOptions {
    fn default() -> CampaignOptions {
        CampaignOptions {
            artifacts: Vec::new(),
            quick: false,
            retries: RetryPolicy::default().max_attempts,
            jobs: None,
            sample: None,
            seed: 0,
            dir: PathBuf::from("campaign-scratch"),
            resume: false,
            report_out: None,
            obs: None,
        }
    }
}

/// The finished campaign: the report plus run-level accounting.
#[derive(Debug)]
pub struct CampaignRun {
    /// The survivability report (deterministic for fixed inputs).
    pub report: Report<Coordinate>,
    /// Distinct cells the reference sweep recorded.
    pub cells: usize,
    /// Size of the full coordinate space (before sampling).
    pub space: usize,
    /// Harness counters aggregated across the reference sweep and
    /// every perturbed sweep.
    pub stats: HarnessStats,
    /// Coordinates replayed from the campaign journal instead of
    /// re-executed.
    pub replayed: usize,
    /// Coordinates executed in this run.
    pub executed: usize,
}

/// Why a campaign could not produce a report.
#[derive(Debug)]
pub enum CampaignError {
    /// Filesystem trouble (scratch dir, journals, report).
    Io(io::Error),
    /// The unperturbed reference sweep was not clean, so there is no
    /// baseline to classify against. Carries a rendering of what went
    /// wrong.
    ReferenceNotClean(String),
}

impl From<io::Error> for CampaignError {
    fn from(e: io::Error) -> CampaignError {
        CampaignError::Io(e)
    }
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Io(e) => write!(f, "campaign i/o error: {e}"),
            CampaignError::ReferenceNotClean(why) => {
                write!(f, "reference sweep is not clean, no baseline to classify against: {why}")
            }
        }
    }
}

/// What one (reference or perturbed) sweep produced.
#[derive(Default)]
struct SweepOutput {
    rendered: String,
    failed: Vec<String>,
    degraded: Vec<String>,
    stats: HarnessStats,
    census: Vec<((String, u64), CellValue)>,
}

/// Runs every selected artifact through a fresh executor with the
/// given fault plan, journaling to `journal`, always keep-going (a
/// campaign wants the blast radius of a fault, not the first crater).
fn run_sweep(
    opts: &CampaignOptions,
    plan: spectrebench::FaultPlan,
    journal: Option<Journal>,
) -> SweepOutput {
    let mut retry = RetryPolicy::standard();
    retry.max_attempts = opts.retries.max(1);
    let harness = Harness::new().with_plan(plan).with_retry(retry);
    let mut exec = Executor::new(harness).with_jobs(opts.jobs.unwrap_or_else(default_jobs));
    if let Some(journal) = journal {
        exec = exec.with_journal(journal);
    }
    let selected: &[Artifact] =
        if opts.artifacts.is_empty() { &Artifact::ALL } else { &opts.artifacts };
    let mut rendered = String::new();
    let mut failed = Vec::new();
    let mut degraded = Vec::new();
    for a in selected {
        let outcome = a.regenerate(opts.quick, &exec);
        match &outcome {
            Ok(out) if out.degraded => degraded.push(a.name().to_string()),
            Ok(_) => {}
            Err(_) => failed.push(a.name().to_string()),
        }
        rendered.push_str(&a.block(outcome.as_ref().ok().map(|out| out.text.as_str())));
    }
    let census = exec.cached_cells();
    SweepOutput { rendered, failed, degraded, stats: exec.stats(), census }
}

/// Reduces one perturbed sweep to what classification needs. Bytes that
/// differ from the reference with no failed or degraded artifact to
/// account for them are silent corruption, and so is a resume journal
/// that would replay a wrong value, however clean the bytes.
fn observe(reference: &str, sweep: &SweepOutput, replay_mismatch: bool) -> Observation {
    let failed = !sweep.failed.is_empty();
    let degraded = !sweep.degraded.is_empty();
    let unaccounted = sweep.rendered != reference && !failed && !degraded;
    Observation { silent: replay_mismatch || unaccounted, failed, degraded }
}

/// The report detail for an absorbed coordinate whose journal damage
/// was detected. One count, not the scan's corrupt/torn split: a torn
/// append scans as a torn tail only while no other cell appends after
/// it, and with several workers that depends on which cell finishes
/// last, so the split is not deterministic.
fn damage_detail(scan: &JournalScan) -> String {
    format!(
        "journal damage detected ({} damaged line(s)), cell re-ran",
        scan.corrupt + scan.truncated
    )
}

/// Runs a whole campaign. See the module docs for the three phases.
pub fn run_campaign(opts: &CampaignOptions) -> Result<CampaignRun, CampaignError> {
    std::fs::create_dir_all(&opts.dir)?;
    let bus = opts.obs.clone();
    let emit = |cell: &str, kind: EventKind| {
        if let Some(b) = &bus {
            b.emit("campaign", cell, "", 0, kind);
        }
    };
    let mut stats = HarnessStats::default();

    // Phase 1: the clean reference sweep (no journal — we only need the
    // cell census and the golden bytes, not a file).
    let reference = run_sweep(opts, spectrebench::FaultPlan::new(), None);
    stats.absorb(&reference.stats);
    if !reference.failed.is_empty() || !reference.degraded.is_empty() {
        return Err(CampaignError::ReferenceNotClean(format!(
            "failed: [{}], degraded: [{}]",
            reference.failed.join(", "),
            reference.degraded.join(", ")
        )));
    }
    let reference_values: HashMap<(String, u64), CellValue> =
        reference.census.iter().cloned().collect();
    let cells: Vec<(String, u64)> =
        reference.census.iter().map(|(k, _)| k.clone()).collect();

    // Phase 2: enumerate (and maybe sample) the fault space.
    let space = enumerate_coordinates(&cells, opts.retries.max(1));
    let space_size = space.len();
    let selected = match opts.sample {
        Some(n) => stratified_sample(&space, n, opts.seed),
        None => space,
    };

    // The campaign journal: resume replays verdicts already on record;
    // a fresh campaign starts from an empty file.
    let journal_path = opts.dir.join("campaign.jsonl");
    if !opts.resume {
        match std::fs::remove_file(&journal_path) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (campaign_journal, replayed_rows) = CampaignJournal::open(&journal_path)?;
    let mut done: HashMap<String, Outcome<Coordinate>> =
        replayed_rows.into_iter().map(|o| (o.coord.id(), o)).collect();
    let replayed = selected.iter().filter(|c| done.contains_key(&c.id())).count();
    let todo = selected.len() - replayed;
    emit("", EventKind::CampaignStarted { coordinates: todo });

    // Execute every coordinate not already on record, streaming each
    // verdict to the campaign journal the moment it is known.
    let mut executed = 0usize;
    for coord in &selected {
        let id = coord.id();
        if done.contains_key(&id) {
            emit(&id, EventKind::CampaignReplayed);
            continue;
        }
        let scratch = opts.dir.join("coordinate.jsonl");
        match std::fs::remove_file(&scratch) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e.into()),
        }
        let sweep = run_sweep(opts, coord.fault_plan(), Some(Journal::open(&scratch)?));
        stats.absorb(&sweep.stats);

        // Re-scan the scratch journal from disk: what would a resume
        // replay, and was any injected I/O damage actually detected?
        let journal_text = std::fs::read_to_string(&scratch)?;
        let (scan, survivors) = scan_journal_text(&journal_text);
        // Would a resume replay a value other than the reference's?
        let replay_mismatch = survivors.iter().any(|(key, value)| {
            reference_values.get(key).is_some_and(|reference| reference != value)
        });
        let class = classify(&observe(&reference.rendered, &sweep, replay_mismatch));
        let detail = match class {
            SurvivalClass::SilentCorruption if replay_mismatch => {
                "resume journal would replay a wrong value".to_string()
            }
            SurvivalClass::SilentCorruption => {
                "output diverged from reference with clean accounting".to_string()
            }
            SurvivalClass::FailedLoud => format!("failed: {}", sweep.failed.join(", ")),
            SurvivalClass::Degraded => format!("degraded: {}", sweep.degraded.join(", ")),
            SurvivalClass::Absorbed if scan.corrupt + scan.truncated > 0 => damage_detail(&scan),
            SurvivalClass::Absorbed => String::new(),
        };
        let outcome = Outcome {
            coord: coord.clone(),
            class,
            counts: Some((sweep.stats.retries, sweep.stats.faults_injected)),
            detail,
        };
        campaign_journal.record(&outcome)?;
        emit(&id, EventKind::CampaignCoordinate { fault: coord.kind, class });
        done.insert(id, outcome);
        executed += 1;
        let _ = std::fs::remove_file(&scratch);
    }
    campaign_journal.sync()?;

    // Phase 3: reduce, in enumeration order.
    let outcomes: Vec<Outcome<Coordinate>> = selected
        .iter()
        .filter_map(|c| done.remove(&c.id()))
        .collect();
    let artifacts: &[Artifact] =
        if opts.artifacts.is_empty() { &Artifact::ALL } else { &opts.artifacts };
    let artifacts: Vec<String> =
        artifacts.iter().map(|a| format!("\"{}\"", escape_json(a.name()))).collect();
    let retries = opts.retries.max(1);
    let report = Report {
        inputs: vec![
            ("artifacts", format!("[{}]", artifacts.join(","))),
            ("quick", opts.quick.to_string()),
            ("retries", retries.to_string()),
            ("seed", opts.seed.to_string()),
            ("sample", opts.sample.map_or_else(|| "null".to_string(), |n| n.to_string())),
            ("cells", cells.len().to_string()),
            ("space", space_size.to_string()),
        ],
        title: format!(
            "survivability matrix ({} coordinate(s) over {} cell(s), retry budget {retries})",
            outcomes.len(),
            cells.len()
        ),
        outcomes,
    };
    if let Some(path) = &opts.report_out {
        atomic_write(path, report.to_json().as_bytes())?;
    }
    emit("", EventKind::CampaignFinished);
    Ok(CampaignRun { report, cells: cells.len(), space: space_size, stats, replayed, executed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectrebench::cell_value_json;
    use spectrebench::persist::frame_line;

    fn journal_line(key: &str) -> String {
        frame_line("v2", &cell_value_json(key, 0, &CellValue::Num(1.0)))
    }

    #[test]
    fn sweeps_reduce_to_their_class() {
        let reference = "== T ==\nvalue 1\n";
        let class = |rendered: &str, failed: &[&str], degraded: &[&str], replay_mismatch| {
            let names = |xs: &[&str]| xs.iter().map(|x| x.to_string()).collect();
            let sweep = SweepOutput {
                rendered: rendered.to_string(),
                failed: names(failed),
                degraded: names(degraded),
                ..SweepOutput::default()
            };
            classify(&observe(reference, &sweep, replay_mismatch))
        };
        assert_eq!(class(reference, &[], &[], false), SurvivalClass::Absorbed);
        let marked = "== T ==\nvalue 1 \u{2020}\n";
        assert_eq!(class(marked, &[], &["t"], false), SurvivalClass::Degraded);
        assert_eq!(class("== T == FAILED\n", &["t"], &[], false), SurvivalClass::FailedLoud);
        // Diverged bytes that no failed or degraded artifact accounts for.
        assert_eq!(class("== T ==\nvalue 2\n", &[], &[], false), SurvivalClass::SilentCorruption);
        // A replay mismatch is silent corruption even with identical bytes.
        assert_eq!(class(reference, &[], &[], true), SurvivalClass::SilentCorruption);
    }

    #[test]
    fn torn_line_renders_the_same_detail_mid_file_and_at_the_tail() {
        let torn = journal_line("a/torn");
        let torn = &torn[..torn.len() * 2 / 3];
        let other = journal_line("a/other");
        let (mid, _) = scan_journal_text(&format!("{torn}\n{other}"));
        let (tail, _) = scan_journal_text(&format!("{other}{torn}"));
        assert_eq!((mid.corrupt, mid.truncated), (1, 0), "{mid:?}");
        assert_eq!((tail.corrupt, tail.truncated), (0, 1), "{tail:?}");
        assert_eq!(damage_detail(&mid), damage_detail(&tail));
    }
}
