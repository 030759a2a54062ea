//! Structural invariants of the observability event stream, checked on
//! real sweeps driven through `run_regen` with a virtual clock:
//!
//! * every queued cell starts and finishes exactly once;
//! * spans on one worker lane never overlap, and per-worker timestamps
//!   are strictly monotone;
//! * a cell served from the cache never emits a retry afterwards;
//! * the Prometheus exposition's counters (derived from events) agree
//!   with the harness's own `HarnessStats` counters — a genuine
//!   cross-check, since the two are maintained independently — and the
//!   live bus's counters equal a fold of the stream it recorded;
//! * the Chrome trace export is well-formed JSON containing the spans;
//! * attaching the bus never changes rendered artifacts.
//!
//! All of it holds serially, in parallel, and under an injected
//! `FaultPlan` (CI additionally runs this suite with `REGEN_JOBS=1`
//! and `=4`).

use std::collections::HashMap;
use std::sync::Arc;

use bench::{run_regen, Artifact, RegenOptions};
use spectrebench::obs::{metrics, trace};
use spectrebench::{Event, EventBus, EventKind, FaultKind, FaultPlan, HarnessStats, VirtualClock};

/// A small sweep exercising fresh cells, cross-plan cache hits (table9
/// appears twice, so its second pass is served entirely from cache),
/// and — optionally — injected transient faults.
fn sweep(jobs: Option<usize>, inject: Option<FaultPlan>) -> (Vec<Event>, HarnessStats) {
    let (bus, stats) = recorded_sweep(jobs, inject);
    (bus.snapshot(), stats)
}

/// [`sweep`], returning the recording bus itself.
fn recorded_sweep(jobs: Option<usize>, inject: Option<FaultPlan>) -> (Arc<EventBus>, HarnessStats) {
    let bus = Arc::new(EventBus::recording(Arc::new(VirtualClock::new())));
    let opts = RegenOptions {
        artifacts: vec![Artifact::Table1, Artifact::Table9, Artifact::Table10, Artifact::Table9],
        quick: true,
        retries: Some(4),
        inject,
        jobs,
        obs: Some(Arc::clone(&bus)),
        ..RegenOptions::default()
    };
    let report = run_regen(&opts).expect("no journal, so no I/O to fail");
    assert!(report.failures().is_empty(), "{:?}", report.failures());
    (bus, report.stats)
}

/// The structural invariants every event stream must satisfy.
fn assert_invariants(events: &[Event]) {
    assert!(!events.is_empty());

    // -- Lifecycle: per cell key, queued == started == finished, and
    // every finish carries ok (no permanent failures in these sweeps).
    let mut queued: HashMap<&str, u32> = HashMap::new();
    let mut started: HashMap<&str, u32> = HashMap::new();
    let mut finished: HashMap<&str, u32> = HashMap::new();
    for e in events {
        match e.kind {
            EventKind::CellQueued => *queued.entry(e.cell.as_str()).or_default() += 1,
            EventKind::CellStarted => *started.entry(e.cell.as_str()).or_default() += 1,
            EventKind::CellFinished { ok, .. } => {
                assert!(ok, "cell {} failed permanently", e.cell);
                *finished.entry(e.cell.as_str()).or_default() += 1;
            }
            _ => {}
        }
    }
    assert_eq!(queued, started, "every queued cell starts exactly once per queueing");
    assert_eq!(started, finished, "every started cell finishes exactly once");

    // -- Per-worker discipline: timestamps strictly monotone (the
    // virtual clock ticks on every read, so ties would be real bugs)
    // and spans never overlap — a worker opens a second cell only
    // after closing the first.
    let mut by_worker: HashMap<usize, Vec<&Event>> = HashMap::new();
    for e in events {
        by_worker.entry(e.worker).or_default().push(e);
    }
    for (worker, stream) in &by_worker {
        let mut open: Option<&str> = None;
        for pair in stream.windows(2) {
            assert!(
                pair[1].ts > pair[0].ts,
                "worker {worker}: timestamps must be strictly monotone"
            );
        }
        for e in stream {
            match e.kind {
                EventKind::CellStarted => {
                    assert!(
                        open.is_none(),
                        "worker {worker}: {} started while {:?} still open",
                        e.cell,
                        open
                    );
                    open = Some(e.cell.as_str());
                }
                EventKind::CellFinished { .. } => {
                    assert_eq!(
                        open,
                        Some(e.cell.as_str()),
                        "worker {worker}: finish must close the open span"
                    );
                    open = None;
                }
                _ => {}
            }
        }
        assert!(open.is_none(), "worker {worker}: span left open at end of stream");
    }

    // -- Cache discipline: once a cell is served from the cache, it is
    // never re-attempted, so no retry for it may appear later.
    for (i, e) in events.iter().enumerate() {
        if e.kind == EventKind::CacheHit {
            let late_retry = events[i..]
                .iter()
                .any(|r| r.kind == EventKind::Retry && r.cell == e.cell);
            assert!(!late_retry, "cache-hit cell {} retried afterwards", e.cell);
        }
    }
}

#[test]
fn invariants_hold_serially_and_in_parallel() {
    // None defers to REGEN_JOBS (what CI varies); 1 and 4 pin both
    // scheduling shapes regardless of the environment.
    for jobs in [None, Some(1), Some(4)] {
        let (events, stats) = sweep(jobs, None);
        assert_invariants(&events);
        assert!(
            events.iter().any(|e| e.kind == EventKind::CacheHit),
            "jobs={jobs:?}: the repeated table9 must hit the cache"
        );
        assert!(stats.cells_from_cache > 0);
        assert!(!events.iter().any(|e| e.kind == EventKind::Retry), "clean sweep never retries");
    }
}

#[test]
fn invariants_hold_under_injected_faults() {
    let plan = || {
        FaultPlan::new()
            .fail_cell("table9/Cascade Lake", FaultKind::SimFault, Some(2))
            .fail_cell("table10/Zen 2", FaultKind::Timeout, Some(1))
    };
    for jobs in [Some(1), Some(4)] {
        let (events, stats) = sweep(jobs, Some(plan()));
        assert_invariants(&events);
        assert!(
            events.iter().any(|e| e.kind == EventKind::Retry),
            "jobs={jobs:?}: transient faults must surface as retry events"
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e.kind, EventKind::FaultInjected { fault: FaultKind::SimFault })),
            "jobs={jobs:?}: injected faults must surface with their kind"
        );
        assert!(stats.retries >= 3, "jobs={jobs:?}: {stats:?}");
    }
}

#[test]
fn metrics_cross_check_harness_stats() {
    let plan = FaultPlan::new().fail_cell("table9/Cascade Lake", FaultKind::SimFault, Some(2));
    let (events, stats) = sweep(Some(2), Some(plan));
    let text = metrics::prometheus_text(&events, &stats);
    let value = |name: &str| {
        metrics::metric_value(&text, name).unwrap_or_else(|| panic!("{name} missing:\n{text}"))
    };
    // The exposition counts events; the harness counts operations. They
    // are maintained on opposite sides of the executor, so agreement
    // means the instrumentation is complete.
    assert_eq!(value("regen_cells_simulated_total") as u64, stats.cells_run);
    assert_eq!(value("regen_cells_cached_total") as u64, stats.cells_from_cache);
    assert_eq!(value("regen_cells_replayed_total") as u64, stats.cells_from_journal);
    assert_eq!(value("regen_retries_total") as u64, stats.retries);
    assert_eq!(value("regen_faults_injected_total") as u64, stats.faults_injected);
    assert_eq!(value("regen_cells_failed_total") as u64, stats.cells_failed);
    assert_eq!(value("regen_watchdog_fired_total"), 0.0);
    assert!(value("regen_plans_total") >= 4.0, "one plan per artifact at least");
    // Histograms paired every queue/start and plan start/finish.
    assert_eq!(
        value("regen_queue_latency_seconds_count") as u64,
        stats.cells_run,
        "every fresh cell contributes one queue-latency sample"
    );
}

#[test]
fn live_metrics_equal_the_fold_of_the_recorded_stream() {
    // The bus folds each event as it is emitted, under the same lock
    // that records it; folding the recorded stream afterwards must give
    // the same exposition, line for line. Only the process-global
    // interpreter and analysis samples differ: other test threads move
    // them between the two renders.
    let plan = FaultPlan::new()
        .fail_cell("table9/Cascade Lake", FaultKind::SimFault, Some(2))
        .fail_cell("table10/Zen 2", FaultKind::Timeout, Some(1));
    let (bus, stats) = recorded_sweep(Some(4), Some(plan));
    let event_lines = |text: String| -> Vec<String> {
        text.lines()
            .filter(|l| !l.starts_with("regen_uarch_") && !l.starts_with("regen_spec_taint_"))
            .map(str::to_string)
            .collect()
    };
    let live = event_lines(bus.metrics(|m| m.render(&stats)));
    let recorded = event_lines(metrics::prometheus_text(&bus.snapshot(), &stats));
    assert!(live.iter().any(|l| l.starts_with("regen_retries_total ")), "{live:?}");
    assert_eq!(live, recorded);
}

#[test]
fn chrome_trace_is_wellformed_json_with_spans() {
    let (events, _) = sweep(Some(2), None);
    let json = trace::chrome_trace_json(&events);
    spectrebench::json::parse(&json).expect("trace must be parseable JSON");
    assert!(json.contains("\"ph\":\"X\""), "complete spans present");
    assert!(json.contains("\"ph\":\"M\""), "lane metadata present");
    assert!(json.contains("cache_hit"), "instant events present");
    assert!(json.ends_with("]}\n"));
}

#[test]
fn attaching_the_bus_never_changes_artifacts() {
    let artifacts = vec![Artifact::Table1, Artifact::Table9, Artifact::Table10];
    let base = RegenOptions { artifacts, quick: true, ..RegenOptions::default() };
    let silent = run_regen(&base).expect("no I/O");
    let observed = run_regen(&RegenOptions {
        obs: Some(Arc::new(EventBus::recording(Arc::new(VirtualClock::new())))),
        ..base
    })
    .expect("no I/O");
    assert_eq!(
        bench::render_report(&silent),
        bench::render_report(&observed),
        "tracing must be observational only"
    );
}
