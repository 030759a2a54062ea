//! # bench — the `regen` regeneration harness
//!
//! The `regen` binary reprints every table and figure of the paper from
//! the simulation (see `cargo run -p bench --bin regen -- --help`).
//!
//! The regeneration sweep itself is a library ([`run_regen`]) so the
//! integration tests can drive `--keep-going`, fault injection, and
//! `--resume` without spawning processes. What can be regenerated is
//! the core registry ([`Artifact`]); `regen fetch` and `regen loadgen`
//! talk to a running `regend` through [`serve::client`].

pub mod campaign;
pub mod loadgen;

use std::path::PathBuf;
use std::sync::Arc;

use spectrebench::obs::trace;
use spectrebench::{
    atomic_write, default_jobs, EventBus, Executor, ExperimentError, FaultPlan, Harness,
    HarnessStats, Journal, RetryPolicy, SystemClock,
};

pub use spectrebench::artifact::{Artifact, ArtifactOutput};

/// Options for one regeneration sweep.
#[derive(Debug, Clone, Default)]
pub struct RegenOptions {
    /// Artifacts to regenerate, in order. Empty means all of them.
    pub artifacts: Vec<Artifact>,
    /// Use the quick workload variants.
    pub quick: bool,
    /// Keep regenerating later artifacts after one fails.
    pub keep_going: bool,
    /// Override the retry limit (attempts per cell).
    pub retries: Option<u32>,
    /// Deterministic fault injection plan.
    pub inject: Option<FaultPlan>,
    /// Journal path: completed cells are recorded here, and cells
    /// already present (with a matching seed) are reused instead of
    /// re-measured.
    pub resume: Option<PathBuf>,
    /// Worker threads for the executor. `None` uses
    /// [`spectrebench::default_jobs`] (the `REGEN_JOBS` environment
    /// variable, falling back to the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Write a Chrome trace-event JSON file (one lane per worker;
    /// loadable in Perfetto or `chrome://tracing`) here after the sweep.
    pub trace_out: Option<PathBuf>,
    /// Write a Prometheus-style text metrics exposition here after the
    /// sweep.
    pub metrics_out: Option<PathBuf>,
    /// Write the concatenated artifact renderings here (atomically:
    /// tmp + fsync + rename) in addition to stdout. This is what the
    /// crash/resume proof byte-compares against the committed golden
    /// file — a killed run must leave either the old artifact or the
    /// complete new one, never a torn hybrid.
    pub out: Option<PathBuf>,
    /// Emit events on this bus instead of a fresh one. Tests pass a
    /// recording bus over a virtual clock; when `None`, a bus is created
    /// only if `trace_out` (a recording one) or `metrics_out` asks for
    /// one. `trace_out` on a bus that does not record writes an empty
    /// trace.
    pub obs: Option<Arc<EventBus>>,
}

/// The outcome of one artifact within a sweep.
#[derive(Debug)]
pub struct ArtifactResult {
    /// Which artifact.
    pub artifact: Artifact,
    /// The rendering, or why it could not be produced.
    pub outcome: Result<ArtifactOutput, ExperimentError>,
    /// Cell-level counters for this artifact alone (cells simulated,
    /// served from the cache, served from the journal, ...).
    pub cells: HarnessStats,
}

/// The outcome of a regeneration sweep.
#[derive(Debug)]
pub struct RegenReport {
    /// Per-artifact outcomes, in the order attempted. With
    /// `keep_going` off this stops after the first failure.
    pub results: Vec<ArtifactResult>,
    /// Cell-level counters for the whole sweep (runs, cache hits,
    /// journal hits, retries, injected faults, failed cells, and the
    /// per-phase timing totals).
    pub stats: HarnessStats,
    /// The event bus the sweep recorded on, when observability was
    /// requested (via [`RegenOptions::obs`], `trace_out`, or
    /// `metrics_out`).
    pub obs: Option<Arc<EventBus>>,
}

impl RegenReport {
    /// The artifacts that could not be regenerated at all.
    pub fn failures(&self) -> Vec<(Artifact, &ExperimentError)> {
        self.results
            .iter()
            .filter_map(|r| r.outcome.as_ref().err().map(|e| (r.artifact, e)))
            .collect()
    }

    /// The artifacts that rendered but contain degraded slices.
    pub fn degraded(&self) -> Vec<Artifact> {
        self.results
            .iter()
            .filter_map(|r| match &r.outcome {
                Ok(out) if out.degraded => Some(r.artifact),
                _ => None,
            })
            .collect()
    }

    /// Whether the sweep was fully clean: no failures, no degradation,
    /// and every journal append reached the OS (a sweep whose resume
    /// state silently rotted is not clean even if every table printed).
    pub fn is_clean(&self) -> bool {
        self.failures().is_empty()
            && self.degraded().is_empty()
            && self.stats.journal_write_errors == 0
    }
}

/// Renders one artifact result exactly as the `regen` binary prints it
/// to stdout — the unit the golden-output test diffs.
pub fn render_artifact_block(r: &ArtifactResult) -> String {
    r.artifact.block(r.outcome.as_ref().ok().map(|out| out.text.as_str()))
}

/// Renders a whole report as the `regen` binary's stdout: the
/// concatenation of every artifact block, in attempt order.
pub fn render_report(report: &RegenReport) -> String {
    report.results.iter().map(render_artifact_block).collect()
}

/// Runs a regeneration sweep. The only I/O error possible is opening
/// the resume journal; everything else is reported per-artifact.
pub fn run_regen(opts: &RegenOptions) -> std::io::Result<RegenReport> {
    let mut harness = Harness::new();
    if let Some(plan) = &opts.inject {
        harness = harness.with_plan(plan.clone());
    }
    if let Some(n) = opts.retries {
        let mut retry = RetryPolicy::standard();
        retry.max_attempts = n.max(1);
        harness = harness.with_retry(retry);
    }
    // Only a trace needs the event stream; metrics alone fold at emit.
    let obs = match (&opts.obs, &opts.trace_out, &opts.metrics_out) {
        (Some(bus), _, _) => Some(Arc::clone(bus)),
        (None, Some(_), _) => Some(Arc::new(EventBus::recording(Arc::new(SystemClock::new())))),
        (None, None, Some(_)) => Some(Arc::new(EventBus::new())),
        (None, None, None) => None,
    };
    let mut exec = Executor::new(harness).with_jobs(opts.jobs.unwrap_or_else(default_jobs));
    if let Some(bus) = &obs {
        exec = exec.with_obs(Arc::clone(bus));
    }
    if let Some(path) = &opts.resume {
        exec = exec.with_journal(Journal::open(path)?);
    }

    let selected: &[Artifact] =
        if opts.artifacts.is_empty() { &Artifact::ALL } else { &opts.artifacts };
    let mut results = Vec::new();
    for a in selected {
        let before = exec.stats();
        let outcome = a.regenerate(opts.quick, &exec);
        let failed = outcome.is_err();
        results.push(ArtifactResult {
            artifact: *a,
            outcome,
            cells: exec.stats().since(&before),
        });
        if failed && !opts.keep_going {
            break;
        }
    }
    let stats = exec.stats();
    if let Some(bus) = &obs {
        if let Some(path) = &opts.trace_out {
            atomic_write(path, trace::chrome_trace_json(&bus.snapshot()).as_bytes())?;
        }
        if let Some(path) = &opts.metrics_out {
            atomic_write(path, bus.metrics(|m| m.render(&stats)).as_bytes())?;
        }
    }
    let report = RegenReport { results, stats, obs };
    if let Some(path) = &opts.out {
        atomic_write(path, render_report(&report).as_bytes())?;
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_without_keep_going_stops_at_first_failure() {
        use spectrebench::FaultKind;
        // Kill a table1 column permanently: table1 fails, table2 is
        // never attempted without --keep-going...
        let plan =
            FaultPlan::new().fail_cell("table1/Broadwell", FaultKind::SimFault, None);
        let opts = RegenOptions {
            artifacts: vec![Artifact::Table1, Artifact::Table2],
            quick: true,
            inject: Some(plan.clone()),
            ..RegenOptions::default()
        };
        let report = run_regen(&opts).unwrap();
        assert_eq!(report.results.len(), 1);
        assert_eq!(report.failures().len(), 1);
        // ...and with it, the sweep carries on.
        let report = run_regen(&RegenOptions { keep_going: true, ..opts }).unwrap();
        assert_eq!(report.results.len(), 2);
        assert_eq!(report.failures().len(), 1);
        assert!(report.results[1].outcome.is_ok());
        assert!(report.stats.cells_failed >= 1);
    }

    #[test]
    fn metrics_alone_fold_events_without_recording_them() {
        let dir = std::env::temp_dir().join(format!("regen-metrics-only-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prom = dir.join("metrics.prom");
        let report = run_regen(&RegenOptions {
            artifacts: vec![Artifact::Table1],
            quick: true,
            metrics_out: Some(prom.clone()),
            ..RegenOptions::default()
        })
        .unwrap();
        let bus = report.obs.expect("--metrics-out attaches a bus");
        assert!(!bus.is_empty(), "the sweep emitted events");
        assert!(bus.snapshot().is_empty(), "without --trace-out nothing is recorded");
        let text = std::fs::read_to_string(&prom).unwrap();
        let run = report.stats.cells_run;
        assert!(text.contains(&format!("\nregen_cells_simulated_total {run}\n")), "{text}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
