//! The plan executor: scheduling, memoization, and journaling.
//!
//! An [`Executor`] consumes [`ExperimentPlan`]s. For every cell it
//! first consults a content-addressed in-memory cache (key = content
//! key + seed, shared across all plans run through the same executor),
//! then the resume [`Journal`] if one is attached, and only then
//! schedules a fresh simulation. Fresh cells run under the full
//! [`Harness`] machinery — fault injection, watchdog, retry with
//! backoff — across a `std::thread::scope` worker pool of
//! [`Executor::with_jobs`] threads.
//!
//! **Determinism under parallelism.** Outcomes are returned in plan
//! order no matter which worker finished first; every cell's value is a
//! pure function of its (content key, seed); and the fault plan keys
//! its injection counters by cell, not by global call order. So the
//! same seed yields byte-identical renderings for any `--jobs` value —
//! a property the `parallel_determinism` integration test pins down.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::cli::jobs_from_env;
use crate::harness::{lock, ExperimentError, Harness, HarnessStats, Journal, RunContext};
use crate::obs::{set_current_worker, EventBus, EventKind};
use crate::persist::WriteDamage;
use crate::plan::{CellOutcome, CellSource, CellValue, ExperimentPlan};

/// Default consecutive-panic threshold for the per-experiment circuit
/// breaker: after this many cells in one experiment fail by panicking,
/// the experiment's remaining fresh cells are degraded immediately
/// (bridged with `†` by the drivers) instead of burning retry budgets
/// on a closure that is evidently broken.
pub const DEFAULT_PANIC_BREAKER: u32 = 3;

/// Resolves the default worker count: a valid `REGEN_JOBS` environment
/// variable, else the machine's available parallelism, else 1. Invalid
/// `REGEN_JOBS` values are ignored here (library construction must not
/// fail); binaries reject them up front via [`jobs_from_env`].
pub fn default_jobs() -> usize {
    if let Ok(Some(n)) = jobs_from_env() {
        return n;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Executes experiment plans over a shared harness, cache, and journal.
/// One executor per sweep; share by reference between drivers so the
/// cross-experiment cache can do its job.
#[derive(Debug)]
pub struct Executor {
    harness: Harness,
    jobs: usize,
    journal: Option<Journal>,
    cache: Mutex<HashMap<(String, u64), CellValue>>,
    /// Consecutive panic-failed cells per experiment; the breaker is
    /// open once a streak reaches `panic_breaker`.
    panic_streaks: Mutex<HashMap<String, u32>>,
    panic_breaker: u32,
}

impl Default for Executor {
    fn default() -> Executor {
        Executor::new(Harness::new())
    }
}

impl Executor {
    /// An executor over `harness` with [`default_jobs`] workers and no
    /// journal.
    pub fn new(harness: Harness) -> Executor {
        Executor {
            harness,
            jobs: default_jobs(),
            journal: None,
            cache: Mutex::new(HashMap::new()),
            panic_streaks: Mutex::new(HashMap::new()),
            panic_breaker: DEFAULT_PANIC_BREAKER,
        }
    }

    /// Builder: set the worker-pool size (clamped to at least 1).
    pub fn with_jobs(mut self, jobs: usize) -> Executor {
        self.jobs = jobs.max(1);
        self
    }

    /// Builder: set the per-experiment consecutive-panic threshold
    /// (clamped to at least 1) after which remaining cells degrade
    /// without being attempted.
    pub fn with_panic_breaker(mut self, threshold: u32) -> Executor {
        self.panic_breaker = threshold.max(1);
        self
    }

    /// Builder: journal completed cells to (and replay them from)
    /// `journal`. The journal's open-time line classification is folded
    /// into the sweep counters so skipped damage is never silent.
    pub fn with_journal(mut self, journal: Journal) -> Executor {
        self.harness.note_journal_scan(journal.scan());
        self.journal = Some(journal);
        self
    }

    /// Builder: attach an observability event bus, shared with the
    /// harness so scheduler-level events (queued / started / finished /
    /// cache hits) and attempt-level events (retries, faults) land in
    /// one ordered stream.
    pub fn with_obs(mut self, bus: Arc<EventBus>) -> Executor {
        self.harness.obs = Some(bus);
        self
    }

    /// The attached event bus, if any.
    pub fn obs(&self) -> Option<&Arc<EventBus>> {
        self.harness.obs.as_ref()
    }

    /// Emits a cell-scoped event (no-op without a bus).
    fn emit_cell(&self, ctx: &RunContext, kind: EventKind) {
        if let Some(bus) = self.obs() {
            bus.emit(&ctx.experiment, &ctx.cell_key(), &ctx.content_key(), 0, kind);
        }
    }

    /// Emits a plan-scoped event (no cell context; no-op without a bus).
    fn emit_plan(&self, experiment: &str, kind: EventKind) {
        if let Some(bus) = self.obs() {
            bus.emit(experiment, "", "", 0, kind);
        }
    }

    /// The underlying harness (watchdog budgets, fault plan, retry).
    pub fn harness(&self) -> &Harness {
        &self.harness
    }

    /// True once `experiment` has accumulated `panic_breaker`
    /// consecutive panic-failed cells.
    fn breaker_is_open(&self, experiment: &str) -> bool {
        lock(&self.panic_streaks).get(experiment).is_some_and(|&s| s >= self.panic_breaker)
    }

    /// Updates the per-experiment consecutive-panic streak after a
    /// fresh cell ran: panics extend the streak (emitting
    /// [`EventKind::BreakerTripped`] the moment it crosses the
    /// threshold), anything else resets it.
    fn update_breaker(&self, ctx: &RunContext, value: &Result<CellValue, ExperimentError>) {
        let panicked = matches!(value, Err(e) if e.is_panic());
        let tripped = {
            let mut streaks = lock(&self.panic_streaks);
            let streak = streaks.entry(ctx.experiment.clone()).or_insert(0);
            if panicked {
                *streak += 1;
                *streak == self.panic_breaker
            } else {
                *streak = 0;
                false
            }
        };
        if tripped {
            self.emit_cell(ctx, EventKind::BreakerTripped);
        }
    }

    /// Worker-pool size.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Cell-level counters so far (cumulative across plans).
    pub fn stats(&self) -> HarnessStats {
        self.harness.stats()
    }

    /// Looks up one completed cell in the content-addressed cache
    /// without scheduling anything. This is how the serving layer
    /// answers point queries (`GET /cell/...`) after the owning
    /// artifact has been computed: the cache is shared across every
    /// plan executed through this executor, so any cell a sweep has
    /// touched is addressable by `(content key, seed)`.
    pub fn cache_lookup(&self, content_key: &str, seed: u64) -> Option<CellValue> {
        lock(&self.cache).get(&(content_key.to_string(), seed)).cloned()
    }

    /// Puts a cell value obtained elsewhere into the cache, unless the
    /// cache already holds `(content key, seed)`: an entry is never
    /// overwritten. A value is a pure function of its key and seed, so
    /// this is how the cluster proxy keeps the cells a shard sent it,
    /// and later plans and [`Executor::cache_lookup`] read them like
    /// cells computed here.
    pub fn cache_fill(&self, content_key: &str, seed: u64, value: CellValue) {
        lock(&self.cache).entry((content_key.to_string(), seed)).or_insert(value);
    }

    /// Number of distinct `(content key, seed)` entries currently in
    /// the cross-experiment cache (exposed by `regend /healthz`).
    pub fn cache_len(&self) -> usize {
        lock(&self.cache).len()
    }

    /// Every completed cell in the cache, sorted by `(content key,
    /// seed)` — the deterministic cell census a fault campaign
    /// enumerates its coordinate space from. Workers finish in
    /// nondeterministic order; sorting here is what makes the
    /// campaign's space stable.
    pub fn cached_cells(&self) -> Vec<((String, u64), CellValue)> {
        let mut cells: Vec<_> =
            lock(&self.cache).iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        cells.sort_by(|a, b| a.0.cmp(&b.0));
        cells
    }

    /// Executes a plan and returns one outcome per cell, in plan order.
    ///
    /// Cell failures are reported per-outcome, never panicked or
    /// short-circuited: a dead middle cell must not take down the cells
    /// scheduled after it (the driver's reduce step decides whether to
    /// bridge, degrade, or abort).
    pub fn execute(&self, plan: &ExperimentPlan) -> Vec<CellOutcome> {
        let plan_started = Instant::now();
        let n = plan.cells.len();
        self.emit_plan(&plan.experiment, EventKind::PlanStarted { cells: n });
        let slots: Vec<Mutex<Option<CellOutcome>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let mut pending: Vec<usize> = Vec::new();
        let mut dup_of: Vec<Option<usize>> = vec![None; n];

        // Serial pre-pass: resolve cache and journal hits, and collapse
        // duplicate keys within the plan onto their first occurrence.
        {
            let mut cache = lock(&self.cache);
            let mut first: HashMap<(String, u64), usize> = HashMap::new();
            for (i, cell) in plan.cells.iter().enumerate() {
                let key = cell.cache_key();
                if let Some(v) = cache.get(&key) {
                    self.harness.note_cache_hit();
                    self.emit_cell(&cell.ctx, EventKind::CacheHit);
                    *lock(&slots[i]) = Some(CellOutcome {
                        ctx: cell.ctx.clone(),
                        value: Ok(v.clone()),
                        retries: 0,
                        source: CellSource::Cache,
                    });
                } else if let Some(v) = self.journal.as_ref().and_then(|j| j.lookup(&key.0, key.1))
                {
                    self.harness.note_journal_hit();
                    self.emit_cell(&cell.ctx, EventKind::JournalReplay);
                    cache.insert(key, v.clone());
                    *lock(&slots[i]) = Some(CellOutcome {
                        ctx: cell.ctx.clone(),
                        value: Ok(v),
                        retries: 0,
                        source: CellSource::Journal,
                    });
                } else if let Some(&p) = first.get(&key) {
                    dup_of[i] = Some(p);
                } else {
                    first.insert(key, i);
                    pending.push(i);
                }
            }
        }
        // Queue admission, announced in plan order (outside the cache
        // lock).
        for &i in &pending {
            self.emit_cell(&plan.cells[i].ctx, EventKind::CellQueued);
        }

        // Schedule the fresh cells. Each pending index is a unique key;
        // its value depends only on the cell itself, so any assignment
        // of cells to workers produces the same outcomes.
        let workers = self.jobs.min(pending.len());
        let queue: Mutex<VecDeque<usize>> = Mutex::new(pending.into_iter().collect());
        let work = |wid: usize| {
            set_current_worker(wid);
            loop {
                let i = match lock(&queue).pop_front() {
                    Some(i) => i,
                    None => break,
                };
                let cell = &plan.cells[i];
                self.emit_cell(&cell.ctx, EventKind::CellStarted);
                let (value, retries) = if !cell.critical
                    && self.breaker_is_open(&cell.ctx.experiment)
                {
                    // Panic circuit breaker: this experiment's closures
                    // are evidently broken; degrade the cell (drivers
                    // bridge it with `†`) instead of burning retries on
                    // another panic. Critical cells (lattice anchors) are
                    // exempt: skipping one aborts the artifact outright,
                    // which the breaker exists to avoid.
                    self.harness.note_breaker_skipped();
                    self.emit_cell(&cell.ctx, EventKind::BreakerSkipped);
                    (
                        Err(ExperimentError::Panicked {
                            ctx: cell.ctx.clone(),
                            message: format!(
                                "circuit breaker open after {} consecutive panics in {}",
                                self.panic_breaker, cell.ctx.experiment
                            ),
                        }),
                        0,
                    )
                } else {
                    let (value, retries) =
                        self.harness.run_value(&cell.ctx, |a| cell.compute(a));
                    self.update_breaker(&cell.ctx, &value);
                    (value, retries)
                };
                if let Ok(v) = &value {
                    let key = cell.cache_key();
                    if let Some(j) = &self.journal {
                        let damage = match self.harness.plan.inject_io(&cell.ctx.cell_key()) {
                            Some(fault) => {
                                self.harness.note_fault_injected();
                                self.emit_cell(&cell.ctx, EventKind::FaultInjected { fault });
                                match fault {
                                    crate::faultplan::FaultKind::TornWrite => {
                                        Some(WriteDamage::Torn)
                                    }
                                    _ => Some(WriteDamage::BitFlip),
                                }
                            }
                            None => None,
                        };
                        if let Err(e) = j.record_damaged(&key.0, key.1, v, damage) {
                            self.harness.note_journal_write_error();
                            self.emit_cell(&cell.ctx, EventKind::JournalWriteError);
                            eprintln!(
                                "warning: journal write failed ({e}); cell {} will re-run on resume",
                                cell.ctx.cell_key()
                            );
                        }
                    }
                    lock(&self.cache).insert(key, v.clone());
                }
                self.emit_cell(
                    &cell.ctx,
                    EventKind::CellFinished { ok: value.is_ok(), retries },
                );
                *lock(&slots[i]) = Some(CellOutcome {
                    ctx: cell.ctx.clone(),
                    value,
                    retries,
                    source: CellSource::Fresh,
                });
            }
        };
        if workers <= 1 {
            // Serial: the calling thread is worker lane 1 for the
            // duration of the drain, then reverts to the scheduler lane.
            work(1);
            set_current_worker(0);
        } else {
            std::thread::scope(|s| {
                let work = &work;
                for wid in 1..=workers {
                    s.spawn(move || work(wid));
                }
            });
        }

        // Fill duplicates from their primaries (successes count as
        // cache hits; failures are shared, not re-attempted).
        for i in 0..n {
            if let Some(p) = dup_of[i] {
                let primary = lock(&slots[p]).clone();
                if let Some(o) = primary {
                    if o.value.is_ok() {
                        self.harness.note_cache_hit();
                        self.emit_cell(&plan.cells[i].ctx, EventKind::CacheHit);
                    }
                    *lock(&slots[i]) = Some(CellOutcome {
                        ctx: plan.cells[i].ctx.clone(),
                        value: o.value,
                        retries: 0,
                        source: CellSource::Cache,
                    });
                }
            }
        }

        // Plan-boundary durability point: everything this plan appended
        // to the journal reaches the disk before the outcomes are handed
        // to the reduce step, so a crash between plans never loses a
        // completed experiment.
        if let Some(j) = &self.journal {
            if let Err(e) = j.sync() {
                self.harness.note_journal_write_error();
                self.emit_plan(&plan.experiment, EventKind::JournalWriteError);
                eprintln!("warning: journal fsync failed at plan boundary ({e})");
            }
        }

        let outcomes: Vec<CellOutcome> = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .unwrap_or_else(|| missing_outcome(&plan.cells[i].ctx))
            })
            .collect();
        self.harness.note_plan_time(plan_started.elapsed());
        self.emit_plan(&plan.experiment, EventKind::PlanFinished);
        outcomes
    }
}

/// Unreachable in practice (every index lands in exactly one of the
/// pre-pass buckets), but the executor must not panic on its own
/// bookkeeping either.
fn missing_outcome(ctx: &RunContext) -> CellOutcome {
    CellOutcome {
        ctx: ctx.clone(),
        value: Err(crate::harness::ExperimentError::DegenerateStatistics {
            ctx: ctx.clone(),
            detail: "executor produced no outcome for this cell".to_string(),
        }),
        retries: 0,
        source: CellSource::Fresh,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultplan::{FaultKind, FaultPlan};
    use crate::harness::RetryPolicy;
    use crate::plan::CellSpec;

    fn num_cell(experiment: &str, config: &str, value: f64) -> CellSpec {
        CellSpec::new(
            RunContext::new(experiment, "TestCpu", "synthetic", config),
            0,
            move |_| Ok(CellValue::Num(value)),
        )
    }

    #[test]
    fn outcomes_come_back_in_plan_order_for_any_job_count() {
        for jobs in [1, 2, 8] {
            let exec = Executor::new(Harness::new()).with_jobs(jobs);
            let mut plan = ExperimentPlan::new("order");
            for k in 0..17 {
                plan.push(num_cell("order", &format!("cfg{k}"), k as f64));
            }
            let out = exec.execute(&plan);
            let values: Vec<f64> = out.iter().map(|o| o.num().unwrap_or(f64::NAN)).collect();
            assert_eq!(values, (0..17).map(|k| k as f64).collect::<Vec<_>>(), "jobs={jobs}");
        }
    }

    #[test]
    fn duplicate_cells_within_a_plan_are_simulated_once() {
        let exec = Executor::new(Harness::new()).with_jobs(4);
        let mut plan = ExperimentPlan::new("dup");
        plan.push(num_cell("dup", "same", 3.0));
        plan.push(num_cell("dup", "same", 3.0));
        plan.push(num_cell("dup", "other", 4.0));
        let out = exec.execute(&plan);
        assert_eq!(out[0].source, CellSource::Fresh);
        assert_eq!(out[1].source, CellSource::Cache);
        assert_eq!(out[1].num().map_err(|_| ()), Ok(3.0));
        let s = exec.stats();
        assert_eq!((s.cells_run, s.cells_from_cache), (2, 1));
    }

    #[test]
    fn cache_is_shared_across_experiments() {
        let exec = Executor::new(Harness::new());
        let mut p1 = ExperimentPlan::new("exp-a");
        p1.push(num_cell("exp-a", "anchor", 9.0));
        let mut p2 = ExperimentPlan::new("exp-b");
        p2.push(num_cell("exp-b", "anchor", 9.0));
        exec.execute(&p1);
        let out = exec.execute(&p2);
        assert_eq!(out[0].source, CellSource::Cache, "second experiment reuses the cell");
        assert_eq!(exec.stats().cells_from_cache, 1);
        assert_eq!(exec.stats().cells_run, 1);
    }

    #[test]
    fn failed_cells_do_not_poison_the_cache() {
        let plan_fault =
            FaultPlan::new().fail_cell("[dies]", FaultKind::SimFault, None);
        let exec = Executor::new(
            Harness::new().with_retry(RetryPolicy::immediate(2)).with_plan(plan_fault),
        );
        let mut p = ExperimentPlan::new("f");
        p.push(num_cell("f", "dies", 1.0));
        p.push(num_cell("f", "lives", 2.0));
        let out = exec.execute(&p);
        assert!(out[0].value.is_err());
        assert_eq!(out[1].num().map_err(|_| ()), Ok(2.0));
        // A second request for the dead cell re-attempts it (nothing
        // cached), still under the permanent fault.
        let out2 = exec.execute(&p);
        assert!(out2[0].value.is_err());
        assert_eq!(out2[1].source, CellSource::Cache);
    }

    #[test]
    fn breaker_degrades_after_consecutive_panics() {
        // Every cell in the experiment panics permanently; with a
        // breaker of 2 and serial execution, cells 0 and 1 burn their
        // retry budgets panicking, and cells 2..5 are degraded unrun.
        let plan_fault = FaultPlan::new().fail_cell("exp-p/", FaultKind::PanicFault, None);
        let exec = Executor::new(
            Harness::new().with_retry(RetryPolicy::immediate(2)).with_plan(plan_fault),
        )
        .with_jobs(1)
        .with_panic_breaker(2);
        let mut p = ExperimentPlan::new("exp-p");
        for k in 0..5 {
            p.push(num_cell("exp-p", &format!("c{k}"), k as f64));
        }
        let out = exec.execute(&p);
        assert!(out.iter().all(|o| o.value.is_err()), "every cell fails, none aborts");
        assert!(
            out.iter().all(|o| matches!(&o.value, Err(e) if e.is_panic())),
            "all failures are typed panics"
        );
        let s = exec.stats();
        assert_eq!(s.breaker_skipped, 3, "cells after the trip are degraded unrun");
        assert_eq!(s.panics_caught, 4, "2 cells x 2 attempts each");
        assert_eq!(s.cells_failed, 5, "skipped cells still count as failed");
    }

    #[test]
    fn breaker_streak_resets_on_success() {
        // One panicking cell between successes never trips a breaker of
        // 2: the streak resets.
        let plan_fault = FaultPlan::new().fail_cell("[c1]", FaultKind::PanicFault, None);
        let exec = Executor::new(
            Harness::new().with_retry(RetryPolicy::immediate(1)).with_plan(plan_fault),
        )
        .with_jobs(1)
        .with_panic_breaker(2);
        let mut p = ExperimentPlan::new("exp-r");
        for k in 0..4 {
            p.push(num_cell("exp-r", &format!("c{k}"), k as f64));
        }
        let out = exec.execute(&p);
        assert!(out[1].value.is_err());
        assert!(out[0].value.is_ok() && out[2].value.is_ok() && out[3].value.is_ok());
        assert_eq!(exec.stats().breaker_skipped, 0, "breaker never opened");
    }

    #[test]
    fn critical_cells_run_even_when_the_breaker_is_open() {
        // Two permanently panicking cells trip a breaker of 2. The
        // clean bulk cell scheduled after the trip is degraded unrun,
        // but the critical cell (a lattice anchor) must still be
        // attempted — and succeeds.
        let plan_fault = FaultPlan::new().fail_cell("/[p", FaultKind::PanicFault, None);
        let exec = Executor::new(
            Harness::new().with_retry(RetryPolicy::immediate(1)).with_plan(plan_fault),
        )
        .with_jobs(1)
        .with_panic_breaker(2);
        let mut p = ExperimentPlan::new("exp-k");
        p.push(num_cell("exp-k", "p0", 0.0));
        p.push(num_cell("exp-k", "p1", 1.0));
        p.push(num_cell("exp-k", "bulk", 2.0));
        p.push(num_cell("exp-k", "anchor", 3.0).critical());
        let out = exec.execute(&p);
        assert!(out[0].value.is_err() && out[1].value.is_err(), "injected panics fail");
        assert!(
            matches!(&out[2].value, Err(e) if e.is_panic()),
            "bulk cell degraded unrun by the open breaker"
        );
        assert_eq!(
            out[3].value.as_ref().ok(),
            Some(&CellValue::Num(3.0)),
            "critical cell ran to completion despite the open breaker"
        );
        assert_eq!(exec.stats().breaker_skipped, 1, "only the bulk cell was skipped");
    }

    #[test]
    fn io_faults_damage_the_journal_not_the_sweep() {
        let dir = std::env::temp_dir().join(format!("sb-exec-io-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("io.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let plan_fault =
                FaultPlan::new().fail_cell("[flip]", FaultKind::JournalCorrupt, Some(1));
            let exec = Executor::new(Harness::new().with_plan(plan_fault))
                .with_jobs(1)
                .with_journal(Journal::open(&path).unwrap());
            let mut p = ExperimentPlan::new("io");
            p.push(num_cell("io", "flip", 1.0));
            p.push(num_cell("io", "fine", 2.0));
            let out = exec.execute(&p);
            assert!(out.iter().all(|o| o.value.is_ok()), "io faults never fail the cell");
            assert_eq!(exec.stats().faults_injected, 1);
        }
        // Resume: the damaged line is counted corrupt and skipped; the
        // clean line replays.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.scan().corrupt, 1, "bit-flipped line detected by checksum");
        assert!(j.lookup("TestCpu/synthetic/[flip]", 0).is_none());
        assert!(j.lookup("TestCpu/synthetic/[fine]", 0).is_some());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn retries_are_surfaced_per_outcome() {
        let plan_fault = FaultPlan::new().fail_cell("[flaky]", FaultKind::Timeout, Some(2));
        let exec = Executor::new(
            Harness::new().with_retry(RetryPolicy::immediate(4)).with_plan(plan_fault),
        )
        .with_jobs(3);
        let mut p = ExperimentPlan::new("r");
        p.push(num_cell("r", "flaky", 5.0));
        p.push(num_cell("r", "calm", 6.0));
        let out = exec.execute(&p);
        assert_eq!(out[0].retries, 2, "succeeded on the third attempt");
        assert_eq!(out[1].retries, 0);
        assert_eq!(exec.stats().faults_injected, 2);
    }
}
