//! The plan/executor determinism guarantee: rendered artifacts are
//! byte-identical for any `--jobs` value, with or without injected
//! transient faults. Noise is applied in each driver's reduce step,
//! seeded from plan indices — never from scheduling order or retry
//! counts — so the worker pool can interleave cells arbitrarily.

use std::sync::Arc;

use cpu_models::CpuId;
use spectrebench::experiments::{figure2, tables9and10};
use spectrebench::{EventBus, Executor, FaultKind, FaultPlan, Harness, RetryPolicy, VirtualClock};

fn exec_with_jobs(jobs: usize) -> Executor {
    Executor::new(Harness::new().with_retry(RetryPolicy::immediate(4))).with_jobs(jobs)
}

fn render_all(exec: &Executor) -> String {
    let fig2 = figure2::run(exec, &CpuId::ALL, true).expect("figure 2");
    let t9 = tables9and10::run(exec, false).expect("table 9");
    let t10 = tables9and10::run(exec, true).expect("table 10");
    format!(
        "{}\n{}\n{}",
        figure2::render(&fig2),
        tables9and10::render(&t9),
        tables9and10::render(&t10)
    )
}

#[test]
fn rendered_output_is_identical_for_any_job_count() {
    let serial = render_all(&exec_with_jobs(1));
    for jobs in [2, 8] {
        let parallel = render_all(&exec_with_jobs(jobs));
        assert_eq!(serial, parallel, "jobs={jobs} must render byte-identically");
    }
}

#[test]
fn rendered_output_is_identical_with_tracing_attached() {
    // The event bus is observational only: attaching it (system or
    // virtual clock) must not perturb a single rendered byte, at any
    // worker count.
    let silent = render_all(&exec_with_jobs(1));
    for jobs in [1, 8] {
        let bus = Arc::new(EventBus::recording(Arc::new(VirtualClock::new())));
        let exec = Executor::new(Harness::new().with_retry(RetryPolicy::immediate(4)))
            .with_jobs(jobs)
            .with_obs(Arc::clone(&bus));
        let traced = render_all(&exec);
        assert_eq!(silent, traced, "jobs={jobs} with tracing attached");
        assert!(!bus.is_empty(), "jobs={jobs}: the sweep must have been recorded");
    }
}

#[test]
fn rendered_output_survives_transient_faults_at_any_job_count() {
    let clean = render_all(&exec_with_jobs(1));
    // Transient faults (fewer than the retry limit) on cells spread
    // across the three artifacts: the worker pool retries them and the
    // reduce step reproduces the exact clean values.
    let plan = || {
        FaultPlan::new()
            .fail_cell("figure2/Broadwell/getpid/[nopti]", FaultKind::SimFault, Some(2))
            .fail_cell("figure2/Zen 3/getpid", FaultKind::Timeout, Some(1))
            .fail_cell("table9/Cascade Lake", FaultKind::SimFault, Some(2))
            .fail_cell("table10/Zen 2", FaultKind::Timeout, Some(1))
    };
    for jobs in [1, 8] {
        let exec = Executor::new(
            Harness::new().with_retry(RetryPolicy::immediate(4)).with_plan(plan()),
        )
        .with_jobs(jobs);
        let faulted = render_all(&exec);
        assert_eq!(clean, faulted, "jobs={jobs} with transient faults");
        let stats = exec.stats();
        assert!(stats.faults_injected >= 4, "jobs={jobs}: {stats:?}");
        assert!(stats.retries >= 4, "jobs={jobs}: {stats:?}");
    }
}
