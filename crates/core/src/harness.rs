//! Fault-tolerant execution of measurement cells.
//!
//! Every number in the paper's tables and figures comes from a *cell*:
//! one (experiment, CPU model, workload, mitigation config) point in a
//! lattice. This module wraps the act of producing a cell's value with
//! the machinery a real benchmark rig needs to survive a long sweep:
//!
//! * **Typed errors** ([`ExperimentError`]) that carry the cell context,
//!   so a failure three layers down still names the CPU model and
//!   mitigation config it came from.
//! * **A watchdog** ([`Watchdog`]): an instruction budget handed to the
//!   simulator plus a wall-clock deadline enforced around each attempt.
//! * **Retry with bounded exponential backoff** ([`RetryPolicy`]); the
//!   attempt index is passed to the cell closure so a cell that wants
//!   attempt-dependent behaviour can have it.
//! * **Deterministic fault injection** (a [`FaultPlan`] consulted before
//!   and after every attempt) so tests can prove recovery works.
//! * **A JSON-lines journal** ([`Journal`]) of completed cells, keyed by
//!   content key *and seed*, so an interrupted sweep resumes without
//!   re-measuring finished work — and a stale entry recorded under a
//!   different seed is never replayed.
//!
//! The harness is `Sync`: the [`crate::executor`] runs cells from a
//! `std::thread::scope` worker pool, so every mutable bit (stats, the
//! fault plan's delivery counters, the journal) sits behind a mutex.

use std::collections::HashMap;
use std::fmt;
use std::fs::OpenOptions;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use uarch::SimError;

use crate::faultplan::{FaultKind, FaultPlan};
use crate::obs::{EventBus, EventKind};
use crate::json::{self, Value};
use crate::persist::{atomic_write, frame_line, unframe_line, JournalFile, Unframed, WriteDamage};
use crate::plan::CellValue;
use crate::stats::Measurement;

/// Locks a mutex, recovering from poisoning (a panicking worker must
/// not wedge the rest of the sweep; the counters it held are still
/// internally consistent).
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Identifies the lattice cell a run belongs to. Threaded into every
/// [`ExperimentError`] so failures are attributable without a debugger.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RunContext {
    /// Experiment driver, e.g. `"figure2"` or `"tables9and10"`.
    pub experiment: String,
    /// CPU model name, e.g. `"Broadwell (Xeon E5-2699 v4)"`.
    pub cpu: String,
    /// Workload name, e.g. `"lebench"` or `"syscall"`.
    pub workload: String,
    /// Mitigation config (kernel cmdline fragment); empty for the
    /// experiment default.
    pub config: String,
}

impl RunContext {
    /// Builds a context; any field may be left empty.
    pub fn new(experiment: &str, cpu: &str, workload: &str, config: &str) -> RunContext {
        RunContext {
            experiment: experiment.to_string(),
            cpu: cpu.to_string(),
            workload: workload.to_string(),
            config: config.to_string(),
        }
    }

    /// Canonical journal / fault-plan key:
    /// `experiment/cpu/workload/[config]`. The config is bracketed so a
    /// fault rule for `[nopti]` does not also match `[nopti mds=off]`.
    pub fn cell_key(&self) -> String {
        if self.config.is_empty() {
            format!("{}/{}/{}", self.experiment, self.cpu, self.workload)
        } else {
            format!("{}/{}/{}/[{}]", self.experiment, self.cpu, self.workload, self.config)
        }
    }

    /// The content-addressed part of the key: `cpu/workload/[config]`,
    /// *without* the experiment segment. A cell's simulated value
    /// depends only on these, so two experiments requesting the same
    /// content key (and seed) share one simulation.
    pub fn content_key(&self) -> String {
        if self.config.is_empty() {
            format!("{}/{}", self.cpu, self.workload)
        } else {
            format!("{}/{}/[{}]", self.cpu, self.workload, self.config)
        }
    }
}

impl fmt::Display for RunContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.cell_key())
    }
}

/// Why a measurement cell (or a whole experiment) failed.
///
/// Every variant carries the [`RunContext`] it arose in.
#[derive(Debug, Clone, PartialEq)]
pub enum ExperimentError {
    /// The simulated machine failed (includes instruction-budget
    /// exhaustion, see [`ExperimentError::is_budget_exhausted`]).
    Sim { ctx: RunContext, source: SimError },
    /// The watchdog's wall-clock deadline expired (or a timeout was
    /// injected by the fault plan).
    Timeout { ctx: RunContext, deadline: Duration },
    /// A sandbox verifier (eBPF, JS) rejected the workload.
    VerifierRejected { ctx: RunContext, reason: String },
    /// The statistics layer rejected the samples (NaN / non-finite /
    /// corrupt data).
    DegenerateStatistics { ctx: RunContext, detail: String },
    /// An attribution lattice needs at least `needed` configs.
    InsufficientConfigs { ctx: RunContext, needed: usize, got: usize },
    /// The cell's compute closure panicked; the unwind was caught at the
    /// harness boundary so one buggy cell can never abort the sweep.
    /// Also produced (with a `circuit breaker` message) for cells
    /// short-circuited by an open per-experiment panic breaker.
    Panicked { ctx: RunContext, message: String },
    /// A cell kept failing after exhausting the retry budget; `last` is
    /// the error from the final attempt.
    CellFailed { ctx: RunContext, attempts: u32, last: Box<ExperimentError> },
}

impl ExperimentError {
    /// Wraps a simulator error with its cell context.
    pub fn sim(ctx: &RunContext, source: SimError) -> ExperimentError {
        ExperimentError::Sim { ctx: ctx.clone(), source }
    }

    /// Wraps an architectural fault (e.g. a rejected MSR write) with its
    /// cell context.
    pub fn fault(ctx: &RunContext, fault: uarch::Fault, at: u64) -> ExperimentError {
        ExperimentError::Sim {
            ctx: ctx.clone(),
            source: SimError::UnhandledFault { fault, at },
        }
    }

    /// The context the failure arose in.
    pub fn context(&self) -> &RunContext {
        match self {
            ExperimentError::Sim { ctx, .. }
            | ExperimentError::Timeout { ctx, .. }
            | ExperimentError::VerifierRejected { ctx, .. }
            | ExperimentError::DegenerateStatistics { ctx, .. }
            | ExperimentError::InsufficientConfigs { ctx, .. }
            | ExperimentError::Panicked { ctx, .. }
            | ExperimentError::CellFailed { ctx, .. } => ctx,
        }
    }

    /// True if the root cause is the simulator's instruction budget.
    pub fn is_budget_exhausted(&self) -> bool {
        match self {
            ExperimentError::Sim { source, .. } => {
                matches!(source, SimError::InstructionBudgetExhausted)
            }
            ExperimentError::CellFailed { last, .. } => last.is_budget_exhausted(),
            _ => false,
        }
    }

    /// True if the root cause is a caught panic (directly, or as the
    /// final error of an exhausted retry loop) — what the executor's
    /// per-experiment circuit breaker counts.
    pub fn is_panic(&self) -> bool {
        match self {
            ExperimentError::Panicked { .. } => true,
            ExperimentError::CellFailed { last, .. } => last.is_panic(),
            _ => false,
        }
    }
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::Sim { ctx, source } => write!(f, "[{ctx}] simulator: {source}"),
            ExperimentError::Timeout { ctx, deadline } => {
                write!(f, "[{ctx}] watchdog: run exceeded {deadline:?}")
            }
            ExperimentError::VerifierRejected { ctx, reason } => {
                write!(f, "[{ctx}] verifier rejected workload: {reason}")
            }
            ExperimentError::DegenerateStatistics { ctx, detail } => {
                write!(f, "[{ctx}] degenerate statistics: {detail}")
            }
            ExperimentError::InsufficientConfigs { ctx, needed, got } => {
                write!(f, "[{ctx}] need at least {needed} configs, got {got}")
            }
            ExperimentError::Panicked { ctx, message } => {
                write!(f, "[{ctx}] compute closure panicked: {message}")
            }
            ExperimentError::CellFailed { ctx, attempts, last } => {
                write!(f, "[{ctx}] cell failed after {attempts} attempts; last error: {last}")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Bounded exponential backoff between retry attempts.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per cell (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_delay: Duration,
    /// Backoff never exceeds this.
    pub max_delay: Duration,
}

impl RetryPolicy {
    /// Default for `regen`: 3 attempts, 10ms/80ms backoff.
    pub fn standard() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(80),
        }
    }

    /// Retry without sleeping — what tests use.
    pub fn immediate(max_attempts: u32) -> RetryPolicy {
        RetryPolicy { max_attempts, base_delay: Duration::ZERO, max_delay: Duration::ZERO }
    }

    /// Delay before attempt `attempt` (0-based; attempt 0 has none).
    pub fn backoff(&self, attempt: u32) -> Duration {
        if attempt == 0 || self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let factor = 1u32 << (attempt - 1).min(16);
        (self.base_delay * factor).min(self.max_delay)
    }
}

/// Per-run resource limits, enforced by the harness (wall clock) and by
/// the simulator via [`Watchdog::instruction_budget`] (instructions).
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    /// Instruction budget experiment drivers must pass to `Machine::run`
    /// / `Hypervisor::run` for a single measured run.
    pub instruction_budget: u64,
    /// Wall-clock deadline for one attempt at a cell.
    pub wall_deadline: Duration,
}

impl Watchdog {
    /// Defaults sized for the heaviest cell (the VM sweep's 4G-instruction
    /// guest boot) with slack.
    pub fn standard() -> Watchdog {
        Watchdog {
            instruction_budget: 8_000_000_000,
            wall_deadline: Duration::from_secs(120),
        }
    }

    /// The budget capped to `cap` — drivers with a known-cheaper cell use
    /// this so a wedged simulation dies early.
    pub fn instruction_budget(&self, cap: u64) -> u64 {
        self.instruction_budget.min(cap)
    }
}

/// Counters the harness keeps while running a sweep, including the
/// per-phase wall-clock totals the end-of-run summary reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HarnessStats {
    /// Cells simulated fresh (not satisfied from cache or journal).
    pub cells_run: u64,
    /// Cells served from the in-memory cross-experiment cache.
    pub cells_from_cache: u64,
    /// Cells satisfied from a resume journal without re-measuring.
    pub cells_from_journal: u64,
    /// Total retry attempts across all cells (first attempts excluded).
    pub retries: u64,
    /// Faults delivered by the fault plan.
    pub faults_injected: u64,
    /// Cells that failed permanently (retry budget exhausted).
    pub cells_failed: u64,
    /// Panics caught at the harness boundary (one per panicking
    /// attempt, not per cell).
    pub panics_caught: u64,
    /// Cells short-circuited by an open per-experiment panic breaker
    /// (degraded without burning retry attempts).
    pub breaker_skipped: u64,
    /// Journal appends (or flushes/fsyncs) that failed; nonzero makes
    /// the sweep not clean, because resumability was silently lost.
    pub journal_write_errors: u64,
    /// Journal lines rejected on open because their checksum or
    /// structure was wrong mid-file (corruption, never replayed).
    pub journal_corrupt: u64,
    /// Incomplete final journal lines skipped on open (the torn tail of
    /// a crashed writer; expected after a kill, not an error).
    pub journal_truncated: u64,
    /// Cumulative wall time spent inside fresh-cell attempt loops,
    /// summed across workers (so it can exceed the sweep's elapsed
    /// time when `--jobs > 1`).
    pub sim_time: Duration,
    /// Cumulative wall time inside `Executor::execute` (scheduling,
    /// cache pre-pass, and the worker pool), one span per plan.
    pub plan_time: Duration,
}

impl HarnessStats {
    /// The counter deltas since an `earlier` snapshot — what `regen`
    /// uses for its per-artifact accounting.
    pub fn since(&self, earlier: &HarnessStats) -> HarnessStats {
        HarnessStats {
            cells_run: self.cells_run.wrapping_sub(earlier.cells_run),
            cells_from_cache: self.cells_from_cache.wrapping_sub(earlier.cells_from_cache),
            cells_from_journal: self.cells_from_journal.wrapping_sub(earlier.cells_from_journal),
            retries: self.retries.wrapping_sub(earlier.retries),
            faults_injected: self.faults_injected.wrapping_sub(earlier.faults_injected),
            cells_failed: self.cells_failed.wrapping_sub(earlier.cells_failed),
            panics_caught: self.panics_caught.wrapping_sub(earlier.panics_caught),
            breaker_skipped: self.breaker_skipped.wrapping_sub(earlier.breaker_skipped),
            journal_write_errors: self
                .journal_write_errors
                .wrapping_sub(earlier.journal_write_errors),
            journal_corrupt: self.journal_corrupt.wrapping_sub(earlier.journal_corrupt),
            journal_truncated: self.journal_truncated.wrapping_sub(earlier.journal_truncated),
            sim_time: self.sim_time.saturating_sub(earlier.sim_time),
            plan_time: self.plan_time.saturating_sub(earlier.plan_time),
        }
    }

    /// Adds another snapshot's counters into this one — how a fault
    /// campaign aggregates totals across its many independent sweeps.
    pub fn absorb(&mut self, other: &HarnessStats) {
        self.cells_run += other.cells_run;
        self.cells_from_cache += other.cells_from_cache;
        self.cells_from_journal += other.cells_from_journal;
        self.retries += other.retries;
        self.faults_injected += other.faults_injected;
        self.cells_failed += other.cells_failed;
        self.panics_caught += other.panics_caught;
        self.breaker_skipped += other.breaker_skipped;
        self.journal_write_errors += other.journal_write_errors;
        self.journal_corrupt += other.journal_corrupt;
        self.journal_truncated += other.journal_truncated;
        self.sim_time += other.sim_time;
        self.plan_time += other.plan_time;
    }
}

/// The fault-tolerant cell runner beneath the [`crate::executor`].
/// Cheap to construct; share by reference. `Sync`, so executor workers
/// can drive it concurrently.
#[derive(Debug, Default)]
pub struct Harness {
    /// Retry/backoff schedule.
    pub retry: RetryPolicy,
    /// Per-run resource limits.
    pub watchdog: Watchdog,
    /// Deterministic fault injection (empty by default).
    pub plan: FaultPlan,
    stats: Mutex<HarnessStats>,
    /// The sweep's event bus, installed by [`crate::Executor::with_obs`]:
    /// the harness reports retries, injected faults and watchdog kills
    /// on it, and the executor its scheduling events.
    pub(crate) obs: Option<Arc<EventBus>>,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy::standard()
    }
}

impl Default for Watchdog {
    fn default() -> Watchdog {
        Watchdog::standard()
    }
}

impl Harness {
    /// A harness with standard retry/watchdog settings and no fault
    /// plan.
    pub fn new() -> Harness {
        Harness::default()
    }

    /// Builder: install a fault plan.
    pub fn with_plan(mut self, plan: FaultPlan) -> Harness {
        self.plan = plan;
        self
    }

    /// Builder: install a retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Harness {
        self.retry = retry;
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> HarnessStats {
        *lock(&self.stats)
    }

    /// Emits an event on the attached bus (no-op when none is attached).
    fn emit(&self, ctx: &RunContext, attempt: u32, kind: EventKind) {
        if let Some(bus) = &self.obs {
            bus.emit(&ctx.experiment, &ctx.cell_key(), &ctx.content_key(), attempt, kind);
        }
    }

    pub(crate) fn note_cache_hit(&self) {
        lock(&self.stats).cells_from_cache += 1;
    }

    pub(crate) fn note_journal_hit(&self) {
        lock(&self.stats).cells_from_journal += 1;
    }

    /// Adds one `Executor::execute` span to the plan-time total.
    pub(crate) fn note_plan_time(&self, d: Duration) {
        lock(&self.stats).plan_time += d;
    }

    /// Counts a failed journal append/flush/fsync (the executor also
    /// emits the matching event with its cell context).
    pub(crate) fn note_journal_write_error(&self) {
        lock(&self.stats).journal_write_errors += 1;
    }

    /// Counts a fault delivered outside the attempt loop (the I/O-layer
    /// kinds, injected by the executor on the journal write path).
    pub(crate) fn note_fault_injected(&self) {
        lock(&self.stats).faults_injected += 1;
    }

    /// Counts a cell degraded by an open panic circuit breaker.
    pub(crate) fn note_breaker_skipped(&self) {
        let mut stats = lock(&self.stats);
        stats.breaker_skipped += 1;
        stats.cells_failed += 1;
    }

    /// Folds a journal's open-time line classification into the sweep
    /// counters, so fsck-able damage shows up in the end-of-run summary
    /// and the metrics exposition.
    pub(crate) fn note_journal_scan(&self, scan: &JournalScan) {
        let mut stats = lock(&self.stats);
        stats.journal_corrupt += scan.corrupt;
        stats.journal_truncated += scan.truncated;
    }

    /// Runs one plan cell's compute closure with fault injection,
    /// watchdog, and retry; returns the value (or permanent failure)
    /// plus the number of extra attempts used. Degenerate values
    /// (non-finite floats) are rejected and retried like any other
    /// failure, so corrupt data cannot reach a table.
    pub(crate) fn run_value(
        &self,
        ctx: &RunContext,
        f: impl Fn(u32) -> Result<CellValue, ExperimentError>,
    ) -> (Result<CellValue, ExperimentError>, u32) {
        let started = Instant::now();
        let result = self.attempt_loop(ctx, |attempt| {
            let v = f(attempt)?;
            if v.is_degenerate() {
                return Err(ExperimentError::DegenerateStatistics {
                    ctx: ctx.clone(),
                    detail: format!("non-finite value in {} cell", v.kind()),
                });
            }
            Ok(v)
        });
        let elapsed = started.elapsed();
        match result {
            Ok((v, attempt)) => {
                let mut stats = lock(&self.stats);
                stats.cells_run += 1;
                stats.sim_time += elapsed;
                drop(stats);
                (Ok(v), attempt)
            }
            Err(e) => {
                let mut stats = lock(&self.stats);
                stats.cells_failed += 1;
                stats.sim_time += elapsed;
                drop(stats);
                (Err(e), self.retry.max_attempts.max(1) - 1)
            }
        }
    }

    /// The retry loop. On success returns the value together with the
    /// 0-based attempt index that produced it.
    ///
    /// Every call into the compute closure runs under `catch_unwind`:
    /// a panicking cell is mapped to [`ExperimentError::Panicked`] and
    /// flows through the same retry/degrade path as any other failure,
    /// so one buggy closure can never abort the whole sweep.
    fn attempt_loop<T>(
        &self,
        ctx: &RunContext,
        mut f: impl FnMut(u32) -> Result<T, ExperimentError>,
    ) -> Result<(T, u32), ExperimentError> {
        let key = ctx.cell_key();
        let mut last: Option<ExperimentError> = None;
        let mut guarded = |attempt: u32, force_panic: bool| -> Result<T, ExperimentError> {
            let caught = catch_unwind(AssertUnwindSafe(|| {
                if force_panic {
                    panic!("injected panic (fault plan)");
                }
                f(attempt)
            }));
            match caught {
                Ok(r) => r,
                Err(payload) => {
                    lock(&self.stats).panics_caught += 1;
                    self.emit(ctx, attempt, EventKind::PanicCaught);
                    Err(ExperimentError::Panicked {
                        ctx: ctx.clone(),
                        message: panic_message(payload.as_ref()),
                    })
                }
            }
        };
        for attempt in 0..self.retry.max_attempts.max(1) {
            if attempt > 0 {
                lock(&self.stats).retries += 1;
                self.emit(ctx, attempt, EventKind::Retry);
                let delay = self.retry.backoff(attempt);
                if !delay.is_zero() {
                    std::thread::sleep(delay);
                }
            }
            let injected = self.plan.inject(&key, attempt);
            if let Some(fault) = injected {
                lock(&self.stats).faults_injected += 1;
                self.emit(ctx, attempt, EventKind::FaultInjected { fault });
            }
            let outcome = match injected {
                Some(FaultKind::SimFault) => Err(ExperimentError::Sim {
                    ctx: ctx.clone(),
                    source: SimError::UnhandledFault {
                        fault: uarch::Fault::GeneralProtection,
                        at: 0,
                    },
                }),
                Some(FaultKind::Timeout) => Err(ExperimentError::Timeout {
                    ctx: ctx.clone(),
                    deadline: self.watchdog.wall_deadline,
                }),
                Some(FaultKind::CorruptSample) => {
                    // Let the run complete, then garble its result: the
                    // harness's own non-finite guard (or the caller's)
                    // must catch it, proving corrupt data cannot leak
                    // into a table.
                    guarded(attempt, false).and_then(|_| {
                        Err(ExperimentError::DegenerateStatistics {
                            ctx: ctx.clone(),
                            detail: "injected corrupt sample".to_string(),
                        })
                    })
                }
                Some(FaultKind::PanicFault) => guarded(attempt, true),
                // I/O-layer kinds never reach the compute path (the
                // fault plan routes them to `inject_io`), but a match
                // arm keeps the compiler honest if one slips through.
                Some(FaultKind::TornWrite) | Some(FaultKind::JournalCorrupt) => {
                    guarded(attempt, false)
                }
                None => {
                    let started = Instant::now();
                    let r = guarded(attempt, false);
                    if r.is_ok() && started.elapsed() > self.watchdog.wall_deadline {
                        self.emit(ctx, attempt, EventKind::WatchdogFired);
                        Err(ExperimentError::Timeout {
                            ctx: ctx.clone(),
                            deadline: self.watchdog.wall_deadline,
                        })
                    } else {
                        r
                    }
                }
            };
            match outcome {
                Ok(v) => return Ok((v, attempt)),
                Err(e) => last = Some(e),
            }
        }
        let attempts = self.retry.max_attempts.max(1);
        let last = last.unwrap_or(ExperimentError::Timeout {
            ctx: ctx.clone(),
            deadline: self.watchdog.wall_deadline,
        });
        Err(ExperimentError::CellFailed { ctx: ctx.clone(), attempts, last: Box::new(last) })
    }
}

/// Converts a caught panic payload into a displayable message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The header line a freshly created v2 journal starts with.
pub const JOURNAL_HEADER_V2: &str = "#regen-journal v2";

/// The line tag of a v2 journal entry (see [`frame_line`]).
const JOURNAL_TAG: &str = "v2";

/// How `Journal::open` / `fsck` classified one journal line.
#[derive(Debug, Clone, PartialEq)]
pub enum LineClass {
    /// A parseable cell entry: a `v2` line with a matching checksum.
    Valid(String, u64, CellValue),
    /// The format header (`#regen-journal v2`).
    Header,
    /// A blank line (ignored, not counted).
    Blank,
    /// The incomplete final line of a killed writer (no closing brace /
    /// short header); expected after a crash, recovered by re-running.
    TruncatedTail,
    /// A line whose checksum or structure is wrong anywhere else —
    /// corruption that fsck quarantines.
    Corrupt,
}

/// Per-class line counts from loading a journal file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JournalScan {
    /// Valid cell entries loaded (later duplicates overwrite earlier
    /// ones, so this can exceed the entry count).
    pub valid: u64,
    /// Torn final lines skipped.
    pub truncated: u64,
    /// Checksum/structure failures skipped.
    pub corrupt: u64,
}

impl JournalScan {
    /// True if every line was valid (or header/blank).
    pub fn is_clean(&self) -> bool {
        self.truncated == 0 && self.corrupt == 0
    }
}

/// Renders one completed cell as the journal's payload JSON object:
/// `{"cell":"...","seed":N,"kind":"...",...}`. This is the same shape a
/// v2 journal line carries (minus the checksum framing), so the serving
/// layer's `GET /cell/...` responses and the on-disk resume format
/// cannot drift apart.
pub fn cell_value_json(key: &str, seed: u64, v: &CellValue) -> String {
    format!(
        "{{\"cell\":\"{}\",\"seed\":{},\"kind\":\"{}\",{}}}",
        escape_json(key),
        seed,
        v.kind(),
        journal_value_fields(v)
    )
}

/// Encodes one cell entry as a v2 journal line (with trailing newline):
/// `v2 <crc32-of-payload, 8 hex digits> <payload JSON>`.
fn encode_v2_line(key: &str, seed: u64, v: &CellValue) -> String {
    frame_line(JOURNAL_TAG, &cell_value_json(key, seed, v))
}

/// Classifies one journal line. `is_last` enables the torn-tail
/// heuristic: only the final line of a file can be an expected
/// crash artifact; the same damage mid-file is corruption.
pub fn classify_line(line: &str, is_last: bool) -> LineClass {
    let trimmed = line.trim_end_matches('\r');
    if trimmed.trim().is_empty() {
        return LineClass::Blank;
    }
    if let Some(rest) = trimmed.strip_prefix("#regen-journal ") {
        if rest.trim() == "v2" {
            return LineClass::Header;
        }
        return LineClass::Corrupt;
    }
    match unframe_line(JOURNAL_TAG, trimmed, is_last) {
        Unframed::Payload(payload) => parse_cell_json(payload)
            .map_or(LineClass::Corrupt, |(key, seed, v)| LineClass::Valid(key, seed, v)),
        Unframed::Torn => LineClass::TruncatedTail,
        // A line without the `v2` framing carries no checksum, so it
        // never replays: the unterminated last line of a file is a torn
        // write, anything else is corruption.
        Unframed::Foreign if is_last => LineClass::TruncatedTail,
        Unframed::Foreign | Unframed::Corrupt => LineClass::Corrupt,
    }
}

/// Classifies every line of a journal's text in file order — the one
/// loop behind [`Journal::open`], [`fsck_journal`] and
/// [`scan_journal_text`] — counting the classes and handing each line
/// and its class to `visit`.
fn scan_lines(text: &str, mut visit: impl FnMut(&str, LineClass)) -> JournalScan {
    let mut scan = JournalScan::default();
    // A file ending exactly at a newline has no torn tail.
    let complete_tail = text.ends_with('\n');
    let mut lines = text.lines().peekable();
    while let Some(line) = lines.next() {
        let class = classify_line(line, lines.peek().is_none() && !complete_tail);
        match class {
            LineClass::Valid(..) => scan.valid += 1,
            LineClass::TruncatedTail => scan.truncated += 1,
            LineClass::Corrupt => scan.corrupt += 1,
            LineClass::Header | LineClass::Blank => {}
        }
        visit(line, class);
    }
    scan
}

/// Scans a cell journal's text the way [`Journal::open`] does (without
/// printing warnings or touching the file), returning the per-class
/// line counts and the entries a resume would replay.
pub fn scan_journal_text(text: &str) -> (JournalScan, HashMap<(String, u64), CellValue>) {
    let mut entries = HashMap::new();
    let scan = scan_lines(text, |_, class| {
        if let LineClass::Valid(key, seed, v) = class {
            entries.insert((key, seed), v);
        }
    });
    (scan, entries)
}

/// JSON-lines journal of completed cells, keyed by **content key and
/// seed**.
///
/// Format v2 prefixes every entry with a CRC-32 over its payload and
/// starts fresh files with a [`JOURNAL_HEADER_V2`] line:
///
/// ```text
/// #regen-journal v2
/// v2 91a3c7f0 {"cell":"Broadwell (...)/lebench/[nopti]","seed":0,"kind":"meas","mean":1.083,"ci95":0.004,"n":12,"retries":1}
/// ```
///
/// Raw-value payloads use `kind` `num`, `nums`, `optnums`, `ints`, or
/// `flags` with a `"v":[...]` array (`null` marks a not-applicable
/// entry). Lines are framed by [`frame_line`] and payloads read back
/// with [`crate::json`], which ignores unknown fields and keeps integers
/// exact. A line without a checksum never replays. Every line is
/// classified on open ([`classify_line`]) and the per-class counts are
/// kept in [`JournalScan`].
///
/// Durability: every cell's line reaches the OS as it is recorded
/// ([`Journal::record`]) and the file is fsynced at plan boundaries
/// ([`Journal::sync`]), bounding loss after SIGKILL to the line in
/// flight and after power loss to the current plan's appends.
///
/// The journal holds the append handle and the entries it replayed on
/// open, nothing else: a value recorded in this process lives in the
/// executor's cache, which is consulted first.
#[derive(Debug)]
pub struct Journal {
    replayed: HashMap<(String, u64), CellValue>,
    file: JournalFile,
    scan: JournalScan,
}

impl Journal {
    /// Opens (or creates) a journal file, loading any completed cells
    /// already recorded in it and classifying every line as valid /
    /// truncated-tail / corrupt. When anything other than valid
    /// lines is found, a one-line warning naming the path and counts is
    /// printed — a resumed sweep must never silently drop work.
    pub fn open(path: &Path) -> std::io::Result<Journal> {
        let (file, text) = JournalFile::open(path, JOURNAL_HEADER_V2)?;
        let (scan, entries) = scan_journal_text(&text);
        if !scan.is_clean() {
            eprintln!(
                "warning: journal {}: skipped {} corrupt, {} truncated line(s); \
                 affected cells will re-run (run `regen fsck` to quarantine and compact)",
                path.display(),
                scan.corrupt,
                scan.truncated
            );
        }
        Ok(Journal { replayed: entries, file, scan })
    }

    /// The per-class line counts from open time.
    pub fn scan(&self) -> &JournalScan {
        &self.scan
    }

    /// The value replayed for `key`, if the cell completed **under the
    /// same seed**. An entry journaled with a different seed is stale
    /// and never returned.
    pub fn lookup(&self, key: &str, seed: u64) -> Option<CellValue> {
        self.replayed.get(&(key.to_string(), seed)).cloned()
    }

    /// Records a completed cell: appends a v2 line straight to the OS,
    /// so a subsequent SIGKILL cannot lose it. The caller (the
    /// executor) counts and reports failures; losing a journal line
    /// only costs a re-measurement, never the sweep.
    pub fn record(&self, key: &str, seed: u64, v: &CellValue) -> std::io::Result<()> {
        self.record_damaged(key, seed, v, None)
    }

    /// [`Journal::record`] with an optional injected I/O fault applied
    /// to the bytes that reach disk. Only durability is damaged, exactly
    /// like a real torn write: the executor's cache holds the value
    /// intact either way.
    pub fn record_damaged(
        &self,
        key: &str,
        seed: u64,
        v: &CellValue,
        damage: Option<WriteDamage>,
    ) -> std::io::Result<()> {
        let line = encode_v2_line(key, seed, v);
        match damage {
            None => self.file.append(line.as_bytes()),
            Some(d) => self.file.append(&d.apply(&line)),
        }
    }

    /// Fsyncs the backing file — called by the executor at plan
    /// boundaries so a power loss cannot roll back past the last
    /// completed plan.
    pub fn sync(&self) -> std::io::Result<()> {
        self.file.sync()
    }
}

/// The verdict of [`fsck_journal`] on one journal file.
#[derive(Debug, Clone, Default)]
pub struct FsckReport {
    /// Per-class line counts over the whole file.
    pub scan: JournalScan,
    /// Distinct (cell, seed) entries surviving compaction.
    pub entries: u64,
    /// Where quarantined (corrupt + truncated) raw lines were written,
    /// when there were any.
    pub quarantine: Option<PathBuf>,
}

impl FsckReport {
    /// Exit-code severity: 0 = every line valid; 1 = a torn tail only;
    /// 2 = checksum or structural corruption found.
    pub fn severity(&self) -> u8 {
        if self.scan.corrupt > 0 {
            2
        } else if self.scan.truncated > 0 {
            1
        } else {
            0
        }
    }
}

/// Verifies and repairs a journal file:
///
/// 1. classifies every line ([`classify_line`]);
/// 2. writes corrupt and truncated raw lines to `<journal>.quarantine`
///    (appending, so repeated fsck runs keep earlier evidence);
/// 3. atomically rewrites the journal compacted — header plus one v2
///    line per surviving (cell, seed) entry.
///
/// The rewrite goes through [`atomic_write`], so a crash mid-fsck
/// leaves the original journal untouched.
pub fn fsck_journal(path: &Path) -> std::io::Result<FsckReport> {
    let text = std::fs::read_to_string(path)?;
    let mut entries: Vec<((String, u64), CellValue)> = Vec::new();
    let mut seen: HashMap<(String, u64), usize> = HashMap::new();
    let mut bad_lines = String::new();
    let scan = scan_lines(&text, |line, class| match class {
        LineClass::Valid(key, seed, v) => {
            let k = (key, seed);
            match seen.get(&k) {
                // A later duplicate wins, matching Journal::open.
                Some(&at) => entries[at].1 = v,
                None => {
                    seen.insert(k.clone(), entries.len());
                    entries.push((k, v));
                }
            }
        }
        LineClass::TruncatedTail | LineClass::Corrupt => {
            bad_lines.push_str(line);
            bad_lines.push('\n');
        }
        LineClass::Header | LineClass::Blank => {}
    });

    let mut quarantine = None;
    if !bad_lines.is_empty() {
        let qpath = PathBuf::from(format!("{}.quarantine", path.display()));
        let mut q = OpenOptions::new().create(true).append(true).open(&qpath)?;
        q.write_all(bad_lines.as_bytes())?;
        q.sync_all()?;
        quarantine = Some(qpath);
    }

    let mut compacted = String::from(JOURNAL_HEADER_V2);
    compacted.push('\n');
    for ((key, seed), v) in &entries {
        compacted.push_str(&encode_v2_line(key, *seed, v));
    }
    atomic_write(path, compacted.as_bytes())?;

    Ok(FsckReport { scan, entries: entries.len() as u64, quarantine })
}

/// Serializes a cell value's payload fields (everything after `kind`).
fn journal_value_fields(v: &CellValue) -> String {
    fn join<T, F: Fn(&T) -> String>(xs: &[T], f: F) -> String {
        xs.iter().map(f).collect::<Vec<_>>().join(",")
    }
    match v {
        CellValue::Measurement(m) => format!(
            "\"mean\":{},\"ci95\":{},\"n\":{},\"retries\":{}",
            m.mean, m.ci95, m.n, m.retries
        ),
        CellValue::Num(x) => format!("\"v\":[{x}]"),
        CellValue::Nums(xs) => format!("\"v\":[{}]", join(xs, |x| x.to_string())),
        CellValue::OptNums(xs) => format!(
            "\"v\":[{}]",
            join(xs, |x| x.map(|x| x.to_string()).unwrap_or_else(|| "null".to_string()))
        ),
        CellValue::Ints(xs) => format!("\"v\":[{}]", join(xs, |x| x.to_string())),
        CellValue::Flags(xs) => format!(
            "\"v\":[{}]",
            join(xs, |x| match x {
                Some(true) => "1".to_string(),
                Some(false) => "0".to_string(),
                None => "null".to_string(),
            })
        ),
    }
}

/// Escapes a string for embedding in the hand-rolled JSON the journal,
/// the trace writer, and the metrics exposition emit.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parses one cell's payload JSON, the inverse of [`cell_value_json`]:
/// `(content key, seed, value)`, or `None` for malformed input or a
/// degenerate value. Journal resume reads each checksummed line's
/// payload with it, and the cluster proxy each verified `/cell` body a
/// shard sends.
pub fn parse_cell_json(line: &str) -> Option<(String, u64, CellValue)> {
    // `null` marks a not-applicable entry.
    fn nullable<T: std::str::FromStr>(x: &Value) -> Option<Option<T>> {
        if *x == Value::Null { Some(None) } else { x.num().map(Some) }
    }
    let entry = json::parse(line).ok()?;
    let field = |name| entry.get(name);
    let items = || field("v")?.as_array();
    let flag = |x| match nullable::<u8>(x)? {
        None => Some(None),
        Some(bit @ (0 | 1)) => Some(Some(bit == 1)),
        Some(_) => None,
    };
    let value = match field("kind")?.as_str()? {
        "meas" => CellValue::Measurement(Measurement {
            mean: field("mean")?.num()?,
            ci95: field("ci95")?.num()?,
            n: field("n")?.num()?,
            retries: field("retries").map_or(Some(0), Value::num)?,
        }),
        "num" => match items()? {
            [x] => CellValue::Num(x.num()?),
            _ => return None,
        },
        "nums" => CellValue::Nums(items()?.iter().map(Value::num).collect::<Option<_>>()?),
        "optnums" => CellValue::OptNums(items()?.iter().map(nullable).collect::<Option<_>>()?),
        "ints" => CellValue::Ints(items()?.iter().map(Value::num).collect::<Option<_>>()?),
        "flags" => CellValue::Flags(items()?.iter().map(flag).collect::<Option<_>>()?),
        _ => return None,
    };
    if value.is_degenerate() {
        return None;
    }
    Some((field("cell")?.as_str()?.to_string(), field("seed")?.num()?, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultplan::{FaultKind, FaultPlan};

    fn ctx() -> RunContext {
        RunContext::new("figure2", "Broadwell", "lebench", "nopti")
    }

    fn ok_measurement(_attempt: u32) -> Result<CellValue, ExperimentError> {
        Ok(CellValue::Measurement(Measurement { mean: 1.5, ci95: 0.01, n: 10, retries: 0 }))
    }

    #[test]
    fn cell_key_brackets_config() {
        assert_eq!(ctx().cell_key(), "figure2/Broadwell/lebench/[nopti]");
        let no_config = RunContext::new("vm", "Zen 3", "boot", "");
        assert_eq!(no_config.cell_key(), "vm/Zen 3/boot");
    }

    #[test]
    fn content_key_drops_only_the_experiment() {
        assert_eq!(ctx().content_key(), "Broadwell/lebench/[nopti]");
        let no_config = RunContext::new("vm", "Zen 3", "boot", "");
        assert_eq!(no_config.content_key(), "Zen 3/boot");
    }

    #[test]
    fn clean_run_is_untouched() {
        let h = Harness::new().with_retry(RetryPolicy::immediate(3));
        let (v, retries) = h.run_value(&ctx(), ok_measurement);
        assert!(v.is_ok());
        assert_eq!(retries, 0);
        let s = h.stats();
        assert_eq!((s.cells_run, s.retries, s.faults_injected), (1, 0, 0));
    }

    #[test]
    fn transient_fault_is_retried_and_counted() {
        let plan = FaultPlan::new().fail_cell("[nopti]", FaultKind::SimFault, Some(2));
        let h = Harness::new().with_retry(RetryPolicy::immediate(4)).with_plan(plan);
        let (v, retries) = h.run_value(&ctx(), ok_measurement);
        assert!(v.is_ok());
        assert_eq!(retries, 2, "succeeded on the third attempt");
        let s = h.stats();
        assert_eq!((s.retries, s.faults_injected, s.cells_failed), (2, 2, 0));
    }

    #[test]
    fn permanent_fault_exhausts_retries() {
        let plan = FaultPlan::new().fail_cell("[nopti]", FaultKind::Timeout, None);
        let h = Harness::new().with_retry(RetryPolicy::immediate(3)).with_plan(plan);
        let err = h.run_value(&ctx(), ok_measurement).0.unwrap_err();
        match &err {
            ExperimentError::CellFailed { attempts, last, .. } => {
                assert_eq!(*attempts, 3);
                assert!(matches!(**last, ExperimentError::Timeout { .. }));
            }
            other => panic!("unexpected error: {other}"),
        }
        assert_eq!(err.context().config, "nopti");
        assert_eq!(h.stats().cells_failed, 1);
    }

    #[test]
    fn corrupt_sample_is_rejected_then_recovered() {
        let plan = FaultPlan::new().fail_cell("[nopti]", FaultKind::CorruptSample, Some(1));
        let h = Harness::new().with_retry(RetryPolicy::immediate(3)).with_plan(plan);
        let (v, retries) = h.run_value(&ctx(), ok_measurement);
        assert!(v.is_ok());
        assert_eq!(retries, 1);
    }

    #[test]
    fn nonfinite_measurement_is_degenerate() {
        let h = Harness::new().with_retry(RetryPolicy::immediate(2));
        let nan = Measurement { mean: f64::NAN, ci95: 0.0, n: 5, retries: 0 };
        let err = h.run_value(&ctx(), |_| Ok(CellValue::Measurement(nan))).0.unwrap_err();
        match err {
            ExperimentError::CellFailed { last, .. } => {
                assert!(matches!(*last, ExperimentError::DegenerateStatistics { .. }))
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn run_value_rejects_degenerate_values_and_reports_retries() {
        let plan = FaultPlan::new().fail_cell("[nopti]", FaultKind::SimFault, Some(1));
        let h = Harness::new().with_retry(RetryPolicy::immediate(3)).with_plan(plan);
        let (v, retries) = h.run_value(&ctx(), |_| Ok(CellValue::Num(2.0)));
        assert_eq!(v.unwrap(), CellValue::Num(2.0));
        assert_eq!(retries, 1);

        let h = Harness::new().with_retry(RetryPolicy::immediate(2));
        let (v, _) = h.run_value(&ctx(), |_| Ok(CellValue::Num(f64::NAN)));
        assert!(matches!(v, Err(ExperimentError::CellFailed { .. })));
        assert_eq!(h.stats().cells_failed, 1);
    }

    #[test]
    fn journal_roundtrips_every_value_kind() {
        let dir = std::env::temp_dir().join(format!("spectrebench-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let _ = std::fs::remove_file(&path);

        let values: Vec<(&str, u64, CellValue)> = vec![
            ("a/le/[nopti]", 0, CellValue::Measurement(Measurement { mean: 1.5, ci95: 0.01, n: 10, retries: 1 })),
            ("a/le \"q\"", 3, CellValue::Num(2.5)),
            ("a/nums", 1, CellValue::Nums(vec![1.0, -2.5])),
            ("a/opt", 1, CellValue::OptNums(vec![Some(4.0), None])),
            ("a/ints", 9, CellValue::Ints(vec![7, 0, 123_456_789_000])),
            ("a/flags", 2, CellValue::Flags(vec![Some(true), Some(false), None])),
        ];
        {
            let j = Journal::open(&path).unwrap();
            for (k, s, v) in &values {
                j.record(k, *s, v).unwrap();
            }
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.scan().valid, values.len() as u64);
        for (k, s, v) in &values {
            assert_eq!(j.lookup(k, *s).as_ref(), Some(v), "{k}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn journal_integers_round_trip_exactly_beyond_f64() {
        // 2^53 + 1 and 2^53 + 3 have no f64 of their own: read through
        // f64, the entry would replay under a seed it was not recorded
        // under.
        let (seed, n) = (9_007_199_254_740_993, 9_007_199_254_740_995);
        let v = CellValue::Measurement(Measurement { mean: 1.5, ci95: 0.01, n, retries: 2 });
        let line = encode_v2_line("a/b", seed, &v);
        assert_eq!(
            classify_line(line.trim_end(), false),
            LineClass::Valid("a/b".to_string(), seed, v)
        );
    }

    /// Every float a value holds, as bits (`None` for an absent entry).
    fn float_bits(v: &CellValue) -> Vec<Option<u64>> {
        match v {
            CellValue::Measurement(m) => vec![Some(m.mean.to_bits()), Some(m.ci95.to_bits())],
            CellValue::Num(x) => vec![Some(x.to_bits())],
            CellValue::Nums(xs) => xs.iter().map(|x| Some(x.to_bits())).collect(),
            CellValue::OptNums(xs) => xs.iter().map(|x| x.map(f64::to_bits)).collect(),
            CellValue::Ints(_) | CellValue::Flags(_) => Vec::new(),
        }
    }

    /// Journal resume and the cluster proxy's cell fill both rely on
    /// `cell_value_json(parse_cell_json(cell_value_json(k, s, v)))`
    /// giving back the same bytes, with every float bit for bit: `==` on
    /// values holds between `-0.0` and `0.0`, so it would pass a codec
    /// that dropped the sign, and the proxy would then fail over on every
    /// read of such a cell. Seeded over every value kind, hostile keys,
    /// and integers up to `u64::MAX`.
    #[test]
    fn cell_json_re_renders_byte_for_byte() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let special = [
            -0.0,
            0.0,
            f64::from_bits(1),
            -f64::from_bits(0x000f_ffff_ffff_ffff),
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0 / 3.0,
        ];
        let float = |next: &mut dyn FnMut() -> u64| loop {
            let bits = next();
            let x = if bits.is_multiple_of(4) {
                special[(bits >> 8) as usize % special.len()]
            } else {
                f64::from_bits(next())
            };
            if x.is_finite() {
                return x;
            }
        };
        let int = |next: &mut dyn FnMut() -> u64| match next() % 4 {
            0 => [0, 1, (1 << 53) + 1, u64::MAX][(next() % 4) as usize],
            _ => next() >> (next() % 64),
        };
        let alphabet = [
            "a", "/", " ", "[", "=", "\"", "\\", "\0", "\n", "\t", "\u{1f}", "\u{7f}", "\u{2028}",
            "\u{2029}", "é", "日", "🦀",
        ];
        let mut seen_negative_zero = false;
        for i in 0..3000u64 {
            let len = (next() % 8) as usize;
            let xs: Vec<f64> = (0..len).map(|_| float(&mut next)).collect();
            let value = match i % 6 {
                0 => CellValue::Measurement(Measurement {
                    mean: float(&mut next),
                    ci95: float(&mut next),
                    n: int(&mut next),
                    retries: int(&mut next) as u32,
                }),
                1 => CellValue::Num(float(&mut next)),
                2 => CellValue::Nums(xs),
                3 => CellValue::OptNums(
                    xs.into_iter().map(|x| (next() % 3 != 0).then_some(x)).collect(),
                ),
                4 => CellValue::Ints((0..len).map(|_| int(&mut next)).collect()),
                _ => {
                    let flag = |bits: u64| [Some(true), Some(false), None][(bits % 3) as usize];
                    CellValue::Flags((0..len).map(|_| flag(next())).collect())
                }
            };
            let pick = |bits: u64| alphabet[(bits % alphabet.len() as u64) as usize];
            let key: String = (0..next() % 12).map(|_| pick(next())).collect();
            let seed = int(&mut next);
            seen_negative_zero |= float_bits(&value).contains(&Some((-0.0f64).to_bits()));

            let json = cell_value_json(&key, seed, &value);
            let (k, s, v) = parse_cell_json(&json).unwrap_or_else(|| panic!("undecodable: {json}"));
            assert_eq!((k.as_str(), s), (key.as_str(), seed), "{json}");
            assert_eq!(cell_value_json(&k, s, &v), json, "re-render differs");
            assert_eq!(float_bits(&v), float_bits(&value), "{json}");
        }
        assert!(seen_negative_zero, "the draw covers -0.0");
    }

    #[test]
    fn journal_lookup_requires_a_matching_seed() {
        // Regression test: resume used to match cells by key alone, so a
        // sweep re-run under different seeding replayed stale values.
        let dir = std::env::temp_dir().join(format!("spectrebench-seed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        let _ = std::fs::remove_file(&path);
        let recorded = Journal::open(&path).unwrap();
        recorded.record("Broadwell/lebench", 1, &CellValue::Num(10.0)).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.lookup("Broadwell/lebench", 2), None, "stale seed is skipped");
        assert_eq!(j.lookup("Broadwell/lebench", 1), Some(CellValue::Num(10.0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_skips_truncated_and_legacy_lines() {
        assert!(parse_cell_json("{\"cell\":\"a/b\",\"seed\":0,\"kind\":\"num\",\"v\":[1").is_none());
        assert!(parse_cell_json("").is_none());
        // A payload without seed or kind is refused.
        assert!(
            parse_cell_json("{\"cell\":\"a/b/c\",\"mean\":1.0,\"ci95\":0.1,\"n\":7,\"retries\":0}")
                .is_none()
        );
        let (key, seed, v) = parse_cell_json(
            "{\"cell\":\"a/b \\\"q\\\"\",\"seed\":4,\"kind\":\"meas\",\"mean\":2.5,\"ci95\":0.1,\"n\":7,\"retries\":3}",
        )
        .unwrap();
        assert_eq!(key, "a/b \"q\"");
        assert_eq!(seed, 4);
        assert_eq!(
            v,
            CellValue::Measurement(Measurement { mean: 2.5, ci95: 0.1, n: 7, retries: 3 })
        );
    }

    #[test]
    fn classify_line_covers_every_class() {
        let valid = encode_v2_line("a/b", 3, &CellValue::Num(1.5));
        let valid = valid.trim_end();
        assert!(matches!(classify_line(valid, false), LineClass::Valid(..)));
        assert_eq!(classify_line(JOURNAL_HEADER_V2, false), LineClass::Header);
        assert_eq!(classify_line("", false), LineClass::Blank);
        assert_eq!(classify_line("   ", false), LineClass::Blank);
        // A bare payload carries no checksum: corrupt mid-file, a torn
        // write as the unterminated last line, never valid.
        let bare = "{\"cell\":\"a/b\",\"seed\":0,\"kind\":\"num\",\"v\":[2]}";
        assert_eq!(classify_line(bare, false), LineClass::Corrupt);
        assert_eq!(classify_line(bare, true), LineClass::TruncatedTail);
        // A torn prefix of a valid v2 line: tail => truncated, mid-file
        // => corrupt.
        let torn = &valid[..valid.len() * 2 / 3];
        assert_eq!(classify_line(torn, true), LineClass::TruncatedTail);
        assert_eq!(classify_line(torn, false), LineClass::Corrupt);
        // A bit-flip keeps the closing brace, so even on the tail it is
        // corruption, not a crash artifact.
        let mut flipped = valid.as_bytes().to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let flipped = String::from_utf8(flipped).unwrap();
        assert_eq!(classify_line(&flipped, true), LineClass::Corrupt);
        assert_eq!(classify_line(&flipped, false), LineClass::Corrupt);
        // A bad header version is corruption.
        assert_eq!(classify_line("#regen-journal v9", false), LineClass::Corrupt);
    }

    #[test]
    fn journal_open_counts_damage_and_skips_it() {
        let dir = std::env::temp_dir().join(format!("sb-scan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("scan.jsonl");
        let good = encode_v2_line("a/good", 1, &CellValue::Num(4.0));
        let other = encode_v2_line("a/other", 1, &CellValue::Num(5.0));
        let mut text = String::from(JOURNAL_HEADER_V2);
        text.push('\n');
        text.push_str(&good);
        // Mid-file bit-flip: corrupt.
        let mut flipped = other.trim_end().as_bytes().to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        text.push_str(&String::from_utf8(flipped).unwrap());
        text.push('\n');
        // A bare payload without the v2 framing: corrupt.
        text.push_str("{\"cell\":\"a/bare\",\"seed\":1,\"kind\":\"num\",\"v\":[7]}\n");
        // Torn tail: prefix of a valid line, no trailing newline.
        let torn_src = encode_v2_line("a/torn", 1, &CellValue::Num(6.0));
        text.push_str(&torn_src[..torn_src.len() * 2 / 3]);
        std::fs::write(&path, &text).unwrap();

        let j = Journal::open(&path).unwrap();
        let scan = *j.scan();
        assert_eq!((scan.valid, scan.corrupt, scan.truncated), (1, 2, 1), "{scan:?}");
        assert_eq!(j.lookup("a/good", 1), Some(CellValue::Num(4.0)));
        assert_eq!(j.lookup("a/other", 1), None, "corrupt line must not replay");
        assert_eq!(j.lookup("a/bare", 1), None, "bare line must not replay");
        assert_eq!(j.lookup("a/torn", 1), None, "torn line must not replay");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsck_quarantines_damage_and_compacts() {
        let dir = std::env::temp_dir().join(format!("sb-fsck-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fsck.jsonl");
        let _ = std::fs::remove_file(dir.join("fsck.jsonl.quarantine"));

        // Clean journal => severity 0, no quarantine file.
        let mut text = String::from(JOURNAL_HEADER_V2);
        text.push('\n');
        text.push_str(&encode_v2_line("a/x", 1, &CellValue::Num(1.0)));
        std::fs::write(&path, &text).unwrap();
        let report = fsck_journal(&path).unwrap();
        assert_eq!(report.severity(), 0);
        assert_eq!(report.entries, 1);
        assert!(report.quarantine.is_none());

        // Duplicate entries compact to one, later value winning.
        text.push_str(&encode_v2_line("a/x", 1, &CellValue::Num(2.0)));
        // A bare payload without the v2 framing and a mid-file bit-flip
        // are both corrupt => severity 2 + quarantine.
        let bare = "{\"cell\":\"a/v1\",\"seed\":0,\"kind\":\"num\",\"v\":[7]}";
        text.push_str(bare);
        text.push('\n');
        let mut flipped = encode_v2_line("a/bad", 1, &CellValue::Num(9.0)).trim_end().as_bytes().to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        let flipped = String::from_utf8(flipped).unwrap();
        text.push_str(&flipped);
        text.push('\n');
        std::fs::write(&path, &text).unwrap();
        let report = fsck_journal(&path).unwrap();
        assert_eq!(report.severity(), 2);
        assert_eq!(report.entries, 1, "a/x compacted; nothing else survives");
        assert_eq!((report.scan.valid, report.scan.corrupt), (2, 2));
        let qpath = report.quarantine.unwrap();
        assert_eq!(
            std::fs::read_to_string(&qpath).unwrap(),
            format!("{bare}\n{flipped}\n"),
            "the quarantine holds exactly the damaged lines"
        );

        // The compacted journal is fully valid and replays only a/x.
        let report = fsck_journal(&path).unwrap();
        assert_eq!(report.severity(), 0);
        let j = Journal::open(&path).unwrap();
        assert!(j.scan().is_clean());
        assert_eq!(j.lookup("a/x", 1), Some(CellValue::Num(2.0)), "later duplicate won");
        assert_eq!(j.lookup("a/v1", 0), None);

        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&qpath);
    }

    #[test]
    fn panics_are_caught_as_typed_errors() {
        let h = Harness::new().with_retry(RetryPolicy::immediate(1));
        let (v, _) = h.run_value(&ctx(), |_| -> Result<CellValue, ExperimentError> {
            panic!("boom {}", 42)
        });
        let err = v.unwrap_err();
        assert!(err.is_panic(), "{err}");
        assert!(err.to_string().contains("boom 42"), "{err}");
        let s = h.stats();
        assert_eq!(s.panics_caught, 1, "one attempt, one panic");
        assert_eq!(s.cells_failed, 1);
    }

    #[test]
    fn injected_panic_fault_is_caught_and_retried() {
        let plan = FaultPlan::new().fail_cell("[panics]", FaultKind::PanicFault, Some(1));
        let h = Harness::new().with_retry(RetryPolicy::immediate(3)).with_plan(plan);
        let c = RunContext::new("exp", "TestCpu", "w", "panics");
        let (v, retries) = h.run_value(&c, |_| Ok(CellValue::Num(8.0)));
        assert_eq!(v.unwrap(), CellValue::Num(8.0), "recovers after the injected panic");
        assert_eq!(retries, 1);
        assert_eq!(h.stats().panics_caught, 1);
    }

    #[test]
    fn backoff_is_bounded() {
        let p = RetryPolicy::standard();
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(1), Duration::from_millis(10));
        assert_eq!(p.backoff(2), Duration::from_millis(20));
        assert_eq!(p.backoff(10), Duration::from_millis(80), "capped");
    }
}
