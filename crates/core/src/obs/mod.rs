//! Executor observability: a structured event bus plus export sinks.
//!
//! The paper's contribution is *measurement you can trust*; PR 2's
//! executor made measurement fast but opaque. This module makes every
//! cell's lifecycle observable without touching any measured value:
//!
//! * an [`EventBus`] takes structured events — cell queued / started /
//!   finished / cache-hit / journal-replay / retry / fault-injected /
//!   watchdog-fired — each carrying the experiment, cell key, content
//!   key, worker id, attempt, and a monotonic timestamp from a
//!   swappable [`Clock`], and folds each into its [`metrics::Metrics`]
//!   as it is emitted;
//! * [`metrics`] renders those counters as a Prometheus-style text
//!   exposition that cross-checks [`crate::harness::HarnessStats`];
//! * [`trace`] renders a recorded [`Event`] stream as Chrome
//!   trace-event JSON (one lane per worker, loadable in Perfetto /
//!   `chrome://tracing`). Only a bus built by [`EventBus::recording`]
//!   keeps the stream, so a long-running process holds counters, not
//!   history.
//!
//! Recording is observational only: the executor emits events *after*
//! computing values, the bus never feeds back into scheduling, and the
//! same seed renders byte-identical artifacts with the bus attached or
//! not (pinned by `tests/trace_invariants.rs`).
//!
//! **Lock discipline.** A recorded event is fully built (keys cloned)
//! before the bus lock is acquired; the critical section folds the
//! event into the counters and, on a recording bus, pushes it, so the
//! recorded order is the fold order. The bus lock is never held while
//! any other lock (cache, stats, journal) is taken.

pub mod clock;
pub mod metrics;
pub mod trace;

use std::cell::Cell as StdCell;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::faultplan::FaultKind;
use crate::harness::lock;

pub use clock::{Clock, SystemClock, VirtualClock};
use metrics::Metrics;

thread_local! {
    /// The executor worker lane the current thread is running cells
    /// for. The scheduler / reduce path (and every thread outside the
    /// pool) reports lane 0.
    static CURRENT_WORKER: StdCell<usize> = const { StdCell::new(0) };
}

/// Tags the current thread as executor worker `worker` for subsequent
/// event emission. Called by the executor when a pool thread starts.
pub fn set_current_worker(worker: usize) {
    CURRENT_WORKER.with(|c| c.set(worker));
}

/// The worker lane recorded on events emitted from this thread.
pub fn current_worker() -> usize {
    CURRENT_WORKER.with(|c| c.get())
}

/// What happened to a cell (or a plan) at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An [`crate::plan::ExperimentPlan`] entered the executor.
    PlanStarted {
        /// Number of cells in the plan.
        cells: usize,
    },
    /// The plan's outcomes were handed back in plan order.
    PlanFinished,
    /// A fresh cell was placed on the worker queue.
    CellQueued,
    /// A worker began simulating the cell (span open).
    CellStarted,
    /// The worker finished the cell (span close).
    CellFinished {
        /// Whether the cell produced a value (false = permanent failure).
        ok: bool,
        /// Extra attempts the harness needed.
        retries: u32,
    },
    /// The cell was served from the cross-experiment cache.
    CacheHit,
    /// The cell was replayed from a resume journal.
    JournalReplay,
    /// The harness is re-attempting the cell (attempt > 0).
    Retry,
    /// The fault plan injected a failure into this attempt.
    FaultInjected {
        /// The injected failure kind.
        fault: FaultKind,
    },
    /// The harness's wall-clock deadline killed a completed-but-late
    /// attempt.
    WatchdogFired,
    /// A compute closure panicked and the unwind was caught at the
    /// harness boundary.
    PanicCaught,
    /// A journal append/flush/fsync failed; the cell will re-run on
    /// resume.
    JournalWriteError,
    /// An experiment crossed its consecutive-panic threshold; its
    /// remaining cells degrade without burning retries.
    BreakerTripped,
    /// A cell was short-circuited (degraded unrun) by an open breaker.
    BreakerSkipped,

    // Serving-layer kinds, emitted by `regend` (crates/serve). The
    // `cell` field carries the request path; `experiment` is the
    // artifact or endpoint being served.
    /// A connection was admitted to the server's bounded request queue;
    /// `queue_depth` is the depth right after admission.
    RequestReceived {
        /// Queue depth including this request.
        queue_depth: usize,
    },
    /// A connection was rejected at admission (HTTP 429 + `Retry-After`)
    /// because the request queue was full.
    RequestRejected,
    /// A response was fully written back to the client.
    RequestCompleted {
        /// The HTTP status code sent.
        status: u16,
        /// End-to-end latency (admission to response written) in
        /// microseconds, measured by the serving worker.
        micros: u64,
    },
    /// An artifact request was served from the rendered-artifact memory
    /// cache without touching the executor.
    ArtifactCacheHit,
    /// A `/cell` request was answered on the event loop from the
    /// executor's cell cache, with no dispatch and, on a proxy, no shard
    /// hop.
    CellCacheHit,
    /// A request was coalesced onto a concurrent identical computation
    /// (single-flight follower: it waited, computed nothing).
    FlightCoalesced,
    /// A request's deadline expired before it could be served; it was
    /// answered with an error instead of stale or partial data.
    DeadlineExpired,
    /// A client connection was accepted by the event-driven front end
    /// (keep-alive: one connection now carries many requests).
    ConnectionOpened,
    /// A connection was closed (any reason); `requests` is how many
    /// responses it carried — the keep-alive reuse factor — and
    /// `writes` how many write calls carried them.
    ConnectionClosed {
        /// Responses completed on this connection over its lifetime.
        requests: u64,
        /// Write calls its flushes made over its lifetime.
        writes: u64,
    },
    /// A peer vanished mid-request or mid-response (reset, or EOF with
    /// work still owed); its slot was freed immediately.
    ClientDisconnected,
    /// A connection was reaped by the idle/stall deadline while holding
    /// partial state (half a request, or an undrained response).
    IdleTimeout,
    /// One request was parsed; `depth` counts the requests outstanding
    /// on its connection including itself (1 = no pipelining).
    PipelineObserved {
        /// Outstanding requests on the connection, this one included.
        depth: usize,
    },

    // Fault-campaign kinds, emitted by the campaign driver. The
    // `experiment` field carries the campaign label; `cell` carries the
    // coordinate id for per-coordinate kinds.
    /// A fault campaign began; `coordinates` is the number it will
    /// explore (after sampling and resume-skipping).
    CampaignStarted {
        /// Coordinates left to execute in this run.
        coordinates: usize,
    },
    /// One coordinate's perturbed sweep was executed and classified.
    CampaignCoordinate {
        /// The fault kind that was injected.
        fault: FaultKind,
        /// The survivability verdict.
        class: crate::campaign::SurvivalClass,
    },
    /// A coordinate was skipped because the campaign journal already
    /// had its verdict (resume).
    CampaignReplayed,
    /// The campaign reduced its outcomes into the survivability report.
    CampaignFinished,

    // Cluster kinds, emitted by the sharded-serving proxy. The `cell`
    // field carries the request path of the hop (or probe).
    /// The proxy completed one fetch attempt against a shard.
    ShardFetch {
        /// Index of the shard the hop targeted.
        shard: usize,
        /// Whether the fetch returned a verified response.
        ok: bool,
    },
    /// A shard's health state machine moved to a new state.
    ShardStateChanged {
        /// Index of the shard whose state changed.
        shard: usize,
        /// The state it moved to.
        state: ShardState,
    },
    /// The proxy gave up on a shard for one request and recomputed the
    /// answer locally (failover; bytes stay identical by construction).
    ShardFailover {
        /// Index of the shard that was failed over.
        shard: usize,
    },
    /// The proxy's network fault plan injected a failure into a hop.
    NetFaultInjected {
        /// The injected network failure kind.
        fault: crate::faultplan::NetFaultKind,
    },

    // Branch-analysis kinds, emitted by the `targeted` experiment
    // driver. The `experiment` field carries the driver name.
    /// The spec-taint branch-attackability analysis classified a
    /// program set; counts are summed over every program analysed.
    SpecTaintAnalyzed {
        /// Conditional branches the analysis classified.
        scanned: usize,
        /// Branches flagged attackable (hardened under `targeted`).
        flagged: usize,
    },
}

impl EventKind {
    /// Short stable name, used by the sinks.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::PlanStarted { .. } => "plan_started",
            EventKind::PlanFinished => "plan_finished",
            EventKind::CellQueued => "cell_queued",
            EventKind::CellStarted => "cell_started",
            EventKind::CellFinished { .. } => "cell_finished",
            EventKind::CacheHit => "cache_hit",
            EventKind::JournalReplay => "journal_replay",
            EventKind::Retry => "retry",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::WatchdogFired => "watchdog_fired",
            EventKind::PanicCaught => "panic_caught",
            EventKind::JournalWriteError => "journal_write_error",
            EventKind::BreakerTripped => "breaker_tripped",
            EventKind::BreakerSkipped => "breaker_skipped",
            EventKind::RequestReceived { .. } => "request_received",
            EventKind::RequestRejected => "request_rejected",
            EventKind::RequestCompleted { .. } => "request_completed",
            EventKind::ArtifactCacheHit => "artifact_cache_hit",
            EventKind::CellCacheHit => "cell_cache_hit",
            EventKind::FlightCoalesced => "flight_coalesced",
            EventKind::DeadlineExpired => "deadline_expired",
            EventKind::ConnectionOpened => "connection_opened",
            EventKind::ConnectionClosed { .. } => "connection_closed",
            EventKind::ClientDisconnected => "client_disconnected",
            EventKind::IdleTimeout => "idle_timeout",
            EventKind::PipelineObserved { .. } => "pipeline_observed",
            EventKind::CampaignStarted { .. } => "campaign_started",
            EventKind::CampaignCoordinate { .. } => "campaign_coordinate",
            EventKind::CampaignReplayed => "campaign_replayed",
            EventKind::CampaignFinished => "campaign_finished",
            EventKind::ShardFetch { .. } => "shard_fetch",
            EventKind::ShardStateChanged { .. } => "shard_state_changed",
            EventKind::ShardFailover { .. } => "shard_failover",
            EventKind::NetFaultInjected { .. } => "net_fault_injected",
            EventKind::SpecTaintAnalyzed { .. } => "spec_taint_analyzed",
        }
    }
}

/// The health state of one shard, as judged by the proxy's probe loop
/// plus passive fetch outcomes. The machine is deliberately small:
/// one failure makes a shard *suspect* (still routed to, retried
/// harder), three consecutive failures make it *down* (skipped —
/// requests fail over to local recompute immediately), and any success
/// snaps it back to *healthy*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShardState {
    /// Last probe/fetch succeeded; routed to normally.
    Healthy,
    /// At least one recent failure; routed to, but treated warily.
    Suspect,
    /// Consecutive-failure threshold crossed; fail over without trying.
    Down,
}

impl ShardState {
    /// Every state, in escalation order.
    pub const ALL: [ShardState; 3] = [ShardState::Healthy, ShardState::Suspect, ShardState::Down];

    /// Stable name, used by `/healthz` JSON and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            ShardState::Healthy => "healthy",
            ShardState::Suspect => "suspect",
            ShardState::Down => "down",
        }
    }

    /// Numeric gauge value for the Prometheus exposition
    /// (0 = healthy, 1 = suspect, 2 = down).
    pub fn gauge(self) -> u64 {
        match self {
            ShardState::Healthy => 0,
            ShardState::Suspect => 1,
            ShardState::Down => 2,
        }
    }
}

impl std::fmt::Display for ShardState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One structured observation. Plan-level events leave `cell` and
/// `content_key` empty.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Monotonic timestamp from the bus's [`Clock`].
    pub ts: Duration,
    /// Experiment driver name (e.g. `"figure2"`).
    pub experiment: String,
    /// Full cell key (`experiment/cpu/workload/[config]`).
    pub cell: String,
    /// Content-addressed key (`cpu/workload/[config]`).
    pub content_key: String,
    /// Executor worker lane the event was emitted from.
    pub worker: usize,
    /// 0-based attempt index the event refers to.
    pub attempt: u32,
    /// What happened.
    pub kind: EventKind,
}

/// Folds [`Event`]s from the executor, harness and server into one
/// [`Metrics`] registry, and on a recording bus also keeps them.
///
/// Shared by `Arc` between the executor, its harness, and whoever reads
/// the counters or exports the stream afterwards. `Sync`; see the
/// module docs for the lock discipline that keeps emitting cheap.
#[derive(Debug)]
pub struct EventBus {
    clock: Arc<dyn Clock>,
    /// Whether [`EventBus::snapshot`] has a stream to return.
    recording: bool,
    state: Mutex<BusState>,
}

/// What the bus lock guards.
#[derive(Debug, Default)]
struct BusState {
    metrics: Metrics,
    /// Events emitted so far.
    emitted: usize,
    /// The events themselves, in emission order; always empty unless
    /// the bus is recording.
    events: Vec<Event>,
}

impl Default for EventBus {
    fn default() -> EventBus {
        EventBus::new()
    }
}

impl EventBus {
    /// A bus over the [`SystemClock`] that folds every event into its
    /// counters and keeps none: what a long-running server and a
    /// metrics-only sweep use.
    pub fn new() -> EventBus {
        EventBus::build(Arc::new(SystemClock::new()), false)
    }

    /// A bus that also keeps every event for a trace sink, over an
    /// explicit clock (tests pass a [`VirtualClock`]).
    pub fn recording(clock: Arc<dyn Clock>) -> EventBus {
        EventBus::build(clock, true)
    }

    fn build(clock: Arc<dyn Clock>, recording: bool) -> EventBus {
        EventBus { clock, recording, state: Mutex::new(BusState::default()) }
    }

    /// Folds one event into the counters (and records it on a recording
    /// bus). The worker lane is taken from the calling thread's tag (see
    /// [`set_current_worker`]).
    ///
    /// The clock is read only where its reading is used: on a recording
    /// bus, whose events keep it, and for the four kinds whose fold
    /// measures an interval (queue wait, plan wall). Any other event
    /// folds with a zero timestamp, so a served request's events read no
    /// clock at all.
    pub fn emit(
        &self,
        experiment: &str,
        cell: &str,
        content_key: &str,
        attempt: u32,
        kind: EventKind,
    ) {
        let timed = matches!(
            kind,
            EventKind::CellQueued
                | EventKind::CellStarted
                | EventKind::PlanStarted { .. }
                | EventKind::PlanFinished
        );
        let ts = if self.recording || timed { self.clock.now() } else { Duration::ZERO };
        let event = self.recording.then(|| Event {
            ts,
            experiment: experiment.to_string(),
            cell: cell.to_string(),
            content_key: content_key.to_string(),
            worker: current_worker(),
            attempt,
            kind,
        });
        let mut state = lock(&self.state);
        state.metrics.observe(ts, experiment, cell, &kind);
        state.emitted += 1;
        state.events.extend(event);
    }

    /// Whether this bus keeps its events (see [`EventBus::recording`]).
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Reads the counters under the bus lock, e.g.
    /// `bus.metrics(|m| m.render(&stats))` for the exposition.
    pub fn metrics<R>(&self, read: impl FnOnce(&Metrics) -> R) -> R {
        read(&lock(&self.state).metrics)
    }

    /// Every event recorded so far, in emission order; empty unless the
    /// bus is [`recording`](EventBus::recording).
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.state).events.clone()
    }

    /// Number of events emitted so far, recorded or not.
    pub fn len(&self) -> usize {
        lock(&self.state).emitted
    }

    /// True if nothing has been emitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_carry_worker_and_virtual_timestamps() {
        let bus = EventBus::recording(Arc::new(VirtualClock::new()));
        set_current_worker(3);
        bus.emit("exp", "exp/c/w", "c/w", 0, EventKind::CellStarted);
        bus.emit("exp", "exp/c/w", "c/w", 0, EventKind::CellFinished { ok: true, retries: 0 });
        set_current_worker(0);
        let events = bus.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].worker, 3);
        assert_eq!(events[0].kind, EventKind::CellStarted);
        assert!(events[1].ts > events[0].ts, "virtual clock ticks every read");
    }

    #[test]
    fn a_plain_bus_folds_every_event_and_keeps_none() {
        let bus = EventBus::new();
        bus.emit("regend", "/a", "", 0, EventKind::RequestReceived { queue_depth: 1 });
        bus.emit("artifact", "/a", "", 0, EventKind::RequestCompleted { status: 200, micros: 5 });
        bus.emit("regend", "/b", "", 0, EventKind::RequestReceived { queue_depth: 1 });
        assert_eq!(bus.len(), 3);
        assert!(bus.snapshot().is_empty(), "only a recording bus keeps the stream");
        assert_eq!(bus.metrics(|m| (m.requests(), m.completed(), m.in_flight())), (2, 1, 1));
    }

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(EventKind::CellQueued.name(), "cell_queued");
        assert_eq!(
            EventKind::FaultInjected { fault: FaultKind::Timeout }.name(),
            "fault_injected"
        );
    }
}
