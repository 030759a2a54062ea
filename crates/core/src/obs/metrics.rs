//! Prometheus-style text exposition of a sweep's observability stream.
//!
//! [`Metrics`] derives every counter from [`Event`]s — *not* from
//! [`HarnessStats`] — so comparing the exposition against the harness's
//! own counters (as `tests/trace_invariants.rs` does) genuinely
//! cross-checks the instrumentation instead of testing a tautology.
//! Histograms cover per-experiment wall clock and per-cell queue
//! latency. The live [`super::EventBus`] folds each event as it is
//! emitted, so a scrape costs the same however long the process has
//! run; [`prometheus_text`] folds a recorded stream the same way.

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::time::Duration;

use crate::harness::{escape_json, HarnessStats};

use super::{Event, EventKind, ShardState};

/// Bucket boundaries (seconds) for the queue-latency histogram.
const QUEUE_BUCKETS: [f64; 6] = [1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0];
/// Bucket boundaries (seconds) for the per-experiment wall-clock
/// histogram.
const WALL_BUCKETS: [f64; 8] = [0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0];
/// Bucket boundaries (requests) for the server admission-queue depth
/// histogram, observed at each admission.
const DEPTH_BUCKETS: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];
/// Bucket boundaries (seconds) for the server end-to-end request
/// latency histogram (admission to response written).
const REQUEST_BUCKETS: [f64; 8] = [0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 15.0, 60.0];
/// Bucket boundaries (requests) for the pipeline-depth histogram:
/// outstanding requests on a connection as each request arrives.
const PIPELINE_BUCKETS: [f64; 7] = [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0];

/// A fixed-bucket cumulative histogram.
#[derive(Debug, Clone)]
struct Histogram {
    bounds: &'static [f64],
    counts: Vec<u64>,
    sum: f64,
    total: u64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Histogram {
        Histogram { bounds, counts: vec![0; bounds.len()], sum: 0.0, total: 0 }
    }

    fn observe(&mut self, v: f64) {
        for (i, b) in self.bounds.iter().enumerate() {
            if v <= *b {
                self.counts[i] += 1;
            }
        }
        self.sum += v;
        self.total += 1;
    }

    /// Writes `_bucket`/`_sum`/`_count` lines; `labels` is either empty
    /// or a `key="value",` fragment placed before `le`.
    fn expose(&self, out: &mut String, name: &str, labels: &str) {
        let bare = if labels.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", labels.trim_end_matches(','))
        };
        for (i, b) in self.bounds.iter().enumerate() {
            let _ = writeln!(out, "{name}_bucket{{{labels}le=\"{b}\"}} {}", self.counts[i]);
        }
        let _ = writeln!(out, "{name}_bucket{{{labels}le=\"+Inf\"}} {}", self.total);
        let _ = writeln!(out, "{name}_sum{bare} {}", self.sum);
        let _ = writeln!(out, "{name}_count{bare} {}", self.total);
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn header(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

fn counter(out: &mut String, name: &str, help: &str, value: u64) {
    header(out, name, "counter", help);
    let _ = writeln!(out, "{name} {value}");
}

/// The counters, gauges and histograms of the exposition, folded one
/// event at a time. [`super::EventBus`] keeps one and folds every event
/// as it is emitted; [`prometheus_text`] folds a recorded stream into a
/// fresh one. Either way one fold and one writer produce the text.
#[derive(Debug)]
pub struct Metrics {
    simulated: u64,
    failed: u64,
    cached: u64,
    replayed: u64,
    retries: u64,
    faults: u64,
    watchdogs: u64,
    plans: u64,
    panics: u64,
    journal_write_errors: u64,
    breaker_tripped: u64,
    breaker_skipped: u64,

    // Serving-layer (`regend`) families. `requests` counts admissions;
    // responses are grouped by (endpoint, status) where the endpoint is
    // the event's experiment field.
    requests: u64,
    rejected: u64,
    artifact_cache_hits: u64,
    cell_cache_hits: u64,
    coalesced: u64,
    deadlines_expired: u64,
    completed: u64,
    responses: BTreeMap<String, BTreeMap<u16, u64>>,
    depth_hist: Histogram,
    request_hist: Histogram,

    // Keep-alive front-end families: connection lifecycle and
    // pipelining, derived from the connection events the event loop
    // emits.
    connections_opened: u64,
    connections_closed: u64,
    keepalive_requests: u64,
    keepalive_writes: u64,
    disconnects: u64,
    idle_timeouts: u64,
    pipeline_hist: Histogram,

    // Fault-campaign families, grouped by survivability class.
    campaigns: u64,
    campaign_replayed: u64,
    campaign_finished: u64,
    campaign_classes: HashMap<&'static str, u64>,

    // Cluster families, emitted by the sharded-serving proxy. BTreeMaps
    // keep label order deterministic without a sort pass.
    shard_fetches: BTreeMap<(usize, bool), u64>,
    shard_failovers: BTreeMap<usize, u64>,
    shard_states: BTreeMap<usize, ShardState>,
    net_faults: HashMap<&'static str, u64>,

    // Queue latency: pair each CellQueued with the next CellStarted for
    // the same cell key (FIFO per key; a re-executed plan can queue the
    // same key again later). A key leaves the map once its last queued
    // entry starts, so the map holds only cells still waiting.
    queued: HashMap<String, VecDeque<Duration>>,
    queue_hist: Histogram,
    // Per-experiment wall clock: PlanStarted .. PlanFinished.
    open_plans: HashMap<String, Vec<Duration>>,
    wall: BTreeMap<String, Histogram>,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            simulated: 0,
            failed: 0,
            cached: 0,
            replayed: 0,
            retries: 0,
            faults: 0,
            watchdogs: 0,
            plans: 0,
            panics: 0,
            journal_write_errors: 0,
            breaker_tripped: 0,
            breaker_skipped: 0,
            requests: 0,
            rejected: 0,
            artifact_cache_hits: 0,
            cell_cache_hits: 0,
            coalesced: 0,
            deadlines_expired: 0,
            completed: 0,
            responses: BTreeMap::new(),
            depth_hist: Histogram::new(&DEPTH_BUCKETS),
            request_hist: Histogram::new(&REQUEST_BUCKETS),
            connections_opened: 0,
            connections_closed: 0,
            keepalive_requests: 0,
            keepalive_writes: 0,
            disconnects: 0,
            idle_timeouts: 0,
            pipeline_hist: Histogram::new(&PIPELINE_BUCKETS),
            campaigns: 0,
            campaign_replayed: 0,
            campaign_finished: 0,
            campaign_classes: HashMap::new(),
            shard_fetches: BTreeMap::new(),
            shard_failovers: BTreeMap::new(),
            shard_states: BTreeMap::new(),
            net_faults: HashMap::new(),
            queued: HashMap::new(),
            queue_hist: Histogram::new(&QUEUE_BUCKETS),
            open_plans: HashMap::new(),
            wall: BTreeMap::new(),
        }
    }
}

/// Renders a recorded event stream (plus the harness's timing totals)
/// as a Prometheus text exposition: each event folded in order, then
/// written out.
pub fn prometheus_text(events: &[Event], stats: &HarnessStats) -> String {
    let mut metrics = Metrics::default();
    for e in events {
        metrics.observe(e.ts, &e.experiment, &e.cell, &e.kind);
    }
    metrics.render(stats)
}

impl Metrics {
    /// Folds one event, emitted at `ts` for `experiment` and `cell`.
    pub(crate) fn observe(&mut self, ts: Duration, experiment: &str, cell: &str, kind: &EventKind) {
        match kind {
            EventKind::CellFinished { ok: true, .. } => self.simulated += 1,
            EventKind::CellFinished { ok: false, .. } => self.failed += 1,
            EventKind::CacheHit => self.cached += 1,
            EventKind::JournalReplay => self.replayed += 1,
            EventKind::Retry => self.retries += 1,
            EventKind::FaultInjected { .. } => self.faults += 1,
            EventKind::WatchdogFired => self.watchdogs += 1,
            EventKind::PanicCaught => self.panics += 1,
            EventKind::JournalWriteError => self.journal_write_errors += 1,
            EventKind::BreakerTripped => self.breaker_tripped += 1,
            EventKind::BreakerSkipped => self.breaker_skipped += 1,
            EventKind::RequestReceived { queue_depth } => {
                self.requests += 1;
                self.depth_hist.observe(*queue_depth as f64);
            }
            EventKind::RequestRejected => self.rejected += 1,
            EventKind::RequestCompleted { status, micros } => {
                self.completed += 1;
                match self.responses.get_mut(experiment) {
                    Some(by_status) => *by_status.entry(*status).or_default() += 1,
                    None => {
                        let by_status = BTreeMap::from([(*status, 1)]);
                        self.responses.insert(experiment.to_owned(), by_status);
                    }
                }
                self.request_hist.observe(*micros as f64 / 1e6);
            }
            EventKind::ArtifactCacheHit => self.artifact_cache_hits += 1,
            EventKind::CellCacheHit => self.cell_cache_hits += 1,
            EventKind::FlightCoalesced => self.coalesced += 1,
            EventKind::DeadlineExpired => self.deadlines_expired += 1,
            EventKind::ConnectionOpened => self.connections_opened += 1,
            EventKind::ConnectionClosed { requests, writes } => {
                self.connections_closed += 1;
                self.keepalive_requests += requests;
                self.keepalive_writes += writes;
            }
            EventKind::ClientDisconnected => self.disconnects += 1,
            EventKind::IdleTimeout => self.idle_timeouts += 1,
            EventKind::PipelineObserved { depth } => self.pipeline_hist.observe(*depth as f64),
            EventKind::CampaignStarted { .. } => self.campaigns += 1,
            EventKind::CampaignCoordinate { class, .. } => {
                *self.campaign_classes.entry(class.name()).or_default() += 1;
            }
            EventKind::CampaignReplayed => self.campaign_replayed += 1,
            EventKind::CampaignFinished => self.campaign_finished += 1,
            EventKind::ShardFetch { shard, ok } => {
                *self.shard_fetches.entry((*shard, *ok)).or_default() += 1;
            }
            EventKind::ShardStateChanged { shard, state } => {
                self.shard_states.insert(*shard, *state);
            }
            EventKind::ShardFailover { shard } => {
                *self.shard_failovers.entry(*shard).or_default() += 1;
            }
            EventKind::NetFaultInjected { fault } => {
                *self.net_faults.entry(fault.name()).or_default() += 1;
            }
            // Analysis totals are exposed from the process-wide
            // spec-taint counters at render time (the analysis also
            // runs at boot, outside any experiment that emits events);
            // the event only marks the trace.
            EventKind::SpecTaintAnalyzed { .. } => {}
            // Only the next four kinds use `ts`: `EventBus::emit` reads
            // the clock for them alone on a bus that keeps no events.
            EventKind::CellQueued => {
                self.queued.entry(cell.to_owned()).or_default().push_back(ts);
            }
            EventKind::CellStarted => {
                if let Some(waiting) = self.queued.get_mut(cell) {
                    if let Some(at) = waiting.pop_front() {
                        self.queue_hist.observe(secs(ts.saturating_sub(at)));
                    }
                    if waiting.is_empty() {
                        self.queued.remove(cell);
                    }
                }
            }
            EventKind::PlanStarted { .. } => {
                self.open_plans.entry(experiment.to_owned()).or_default().push(ts);
            }
            EventKind::PlanFinished => {
                self.plans += 1;
                if let Some(start) = self.open_plans.get_mut(experiment).and_then(Vec::pop) {
                    self.wall
                        .entry(experiment.to_owned())
                        .or_insert_with(|| Histogram::new(&WALL_BUCKETS))
                        .observe(secs(ts.saturating_sub(start)));
                }
            }
        }
    }

    /// Requests admitted to the server's request queue.
    pub fn requests(&self) -> u64 {
        self.requests
    }

    /// Requests rejected with 429.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Responses written for admitted requests.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Requests admitted but not yet answered.
    pub fn in_flight(&self) -> u64 {
        self.requests.saturating_sub(self.completed)
    }

    /// Client connections accepted.
    pub fn connections(&self) -> u64 {
        self.connections_opened
    }

    /// Peers that vanished mid-request or mid-response.
    pub fn disconnects(&self) -> u64 {
        self.disconnects
    }

    /// Connections reaped by the idle/stall deadline.
    pub fn idle_timeouts(&self) -> u64 {
        self.idle_timeouts
    }

    /// Writes the exposition: every family folded so far, the
    /// harness's journal and timing gauges from `stats`, and the
    /// process-wide interpreter and analysis counters sampled now.
    pub fn render(&self, stats: &HarnessStats) -> String {
        let mut out = String::new();
        counter(
            &mut out,
            "regen_cells_simulated_total",
            "Cells simulated fresh (not cache or journal).",
            self.simulated,
        );
        counter(
            &mut out,
            "regen_cells_cached_total",
            "Cells served from the cross-experiment cache.",
            self.cached,
        );
        counter(
            &mut out,
            "regen_cells_replayed_total",
            "Cells replayed from a resume journal.",
            self.replayed,
        );
        counter(
            &mut out,
            "regen_retries_total",
            "Retry attempts (first attempts excluded).",
            self.retries,
        );
        counter(
            &mut out,
            "regen_faults_injected_total",
            "Faults delivered by the fault plan.",
            self.faults,
        );
        counter(
            &mut out,
            "regen_cells_failed_total",
            "Cells that failed permanently (retry budget exhausted).",
            self.failed,
        );
        counter(
            &mut out,
            "regen_watchdog_fired_total",
            "Wall-clock watchdog kills.",
            self.watchdogs,
        );
        counter(&mut out, "regen_plans_total", "Experiment plans executed.", self.plans);
        counter(
            &mut out,
            "regen_panics_caught_total",
            "Compute-closure panics caught at the harness boundary.",
            self.panics,
        );
        counter(
            &mut out,
            "regen_journal_write_errors_total",
            "Journal appends/flushes/fsyncs that failed.",
            self.journal_write_errors,
        );
        counter(
            &mut out,
            "regen_breaker_tripped_total",
            "Experiments whose consecutive-panic circuit breaker opened.",
            self.breaker_tripped,
        );
        counter(
            &mut out,
            "regen_breaker_skipped_total",
            "Cells degraded unrun by an open panic circuit breaker.",
            self.breaker_skipped,
        );

        // Journal line classification comes from HarnessStats (it is an
        // open-time scan, not an event-stream phenomenon).
        header(&mut out, "regen_journal_corrupt_lines", "gauge", "Checksum-failed journal lines skipped on resume.");
        let _ = writeln!(out, "regen_journal_corrupt_lines {}", stats.journal_corrupt);
        header(&mut out, "regen_journal_truncated_lines", "gauge", "Torn-tail journal lines skipped on resume.");
        let _ = writeln!(out, "regen_journal_truncated_lines {}", stats.journal_truncated);

        header(&mut out, "regen_sim_busy_seconds", "gauge", "Cumulative wall time simulating fresh cells.");
        let _ = writeln!(out, "regen_sim_busy_seconds {}", secs(stats.sim_time));
        header(&mut out, "regen_plan_wall_seconds", "gauge", "Cumulative wall time inside Executor::execute.");
        let _ = writeln!(out, "regen_plan_wall_seconds {}", secs(stats.plan_time));

        header(
            &mut out,
            "regen_queue_latency_seconds",
            "histogram",
            "Delay between a cell entering the worker queue and a worker starting it.",
        );
        self.queue_hist.expose(&mut out, "regen_queue_latency_seconds", "");

        header(
            &mut out,
            "regen_experiment_wall_seconds",
            "histogram",
            "Wall-clock time executing one experiment plan.",
        );
        for (exp, hist) in &self.wall {
            let labels = format!("experiment=\"{}\",", escape_json(exp));
            hist.expose(&mut out, "regen_experiment_wall_seconds", &labels);
        }

        // Serving-layer families (all zero unless the events came from a
        // `regend` process).
        counter(
            &mut out,
            "regend_requests_total",
            "Connections admitted to the request queue.",
            self.requests,
        );
        counter(
            &mut out,
            "regend_rejected_total",
            "Connections rejected with 429 because the request queue was full.",
            self.rejected,
        );
        counter(
            &mut out,
            "regend_artifact_cache_hits_total",
            "Artifact requests served from the rendered-artifact memory cache.",
            self.artifact_cache_hits,
        );
        counter(
            &mut out,
            "regend_cell_cache_hits_total",
            "Cell requests answered on the event loop from the executor's cell cache.",
            self.cell_cache_hits,
        );
        counter(
            &mut out,
            "regend_coalesced_total",
            "Requests coalesced onto a concurrent identical computation (single-flight).",
            self.coalesced,
        );
        counter(
            &mut out,
            "regend_deadline_expired_total",
            "Requests whose deadline expired before they could be served.",
            self.deadlines_expired,
        );
        header(
            &mut out,
            "regend_responses_total",
            "counter",
            "Responses written, by endpoint and HTTP status.",
        );
        for (endpoint, by_status) in &self.responses {
            for (status, n) in by_status {
                let _ = writeln!(
                    out,
                    "regend_responses_total{{endpoint=\"{}\",status=\"{status}\"}} {n}",
                    escape_json(endpoint),
                );
            }
        }
        header(
            &mut out,
            "regend_in_flight",
            "gauge",
            "Requests admitted but not yet answered.",
        );
        let _ = writeln!(out, "regend_in_flight {}", self.in_flight());
        header(
            &mut out,
            "regend_queue_depth",
            "histogram",
            "Admission-queue depth observed as each request was admitted.",
        );
        self.depth_hist.expose(&mut out, "regend_queue_depth", "");
        header(
            &mut out,
            "regend_request_latency_seconds",
            "histogram",
            "End-to-end request latency: admission to response written.",
        );
        self.request_hist.expose(&mut out, "regend_request_latency_seconds", "");

        // Keep-alive front-end families (all zero for the pre-PR-8 model
        // where every connection carried exactly one request).
        counter(
            &mut out,
            "regend_keepalive_connections_total",
            "Client connections accepted by the event-driven front end.",
            self.connections_opened,
        );
        counter(
            &mut out,
            "regend_keepalive_closed_total",
            "Client connections closed (any reason).",
            self.connections_closed,
        );
        counter(
            &mut out,
            "regend_keepalive_requests_total",
            "Responses carried by closed connections (keep-alive reuse).",
            self.keepalive_requests,
        );
        counter(
            &mut out,
            "regend_keepalive_writes_total",
            "Write calls that carried those responses.",
            self.keepalive_writes,
        );
        counter(
            &mut out,
            "regend_disconnects_total",
            "Peers that vanished mid-request or mid-response.",
            self.disconnects,
        );
        counter(
            &mut out,
            "regend_idle_timeouts_total",
            "Connections reaped by the idle/stall deadline while holding partial state.",
            self.idle_timeouts,
        );
        header(
            &mut out,
            "regend_pipeline_depth",
            "histogram",
            "Outstanding requests on a connection as each request arrived (1 = serial).",
        );
        self.pipeline_hist.expose(&mut out, "regend_pipeline_depth", "");

        // Fault-campaign families (all zero unless the events came from a
        // `regen campaign` run).
        counter(
            &mut out,
            "regen_campaign_runs_total",
            "Fault campaigns started.",
            self.campaigns,
        );
        counter(
            &mut out,
            "regen_campaign_replayed_total",
            "Coordinates skipped because the campaign journal already had their verdict.",
            self.campaign_replayed,
        );
        counter(
            &mut out,
            "regen_campaign_finished_total",
            "Campaigns that reduced their outcomes into a survivability report.",
            self.campaign_finished,
        );
        header(
            &mut out,
            "regen_campaign_coordinates_total",
            "counter",
            "Fault coordinates executed and classified, by survivability class.",
        );
        for class in crate::campaign::SurvivalClass::ALL {
            let _ = writeln!(
                out,
                "regen_campaign_coordinates_total{{class=\"{}\"}} {}",
                class.name(),
                self.campaign_classes.get(class.name()).copied().unwrap_or(0)
            );
        }

        // Cluster families (all zero unless the events came from a sharded
        // `regend` proxy).
        header(
            &mut out,
            "regend_shard_fetches_total",
            "counter",
            "Proxy fetch attempts against shards, by shard and outcome.",
        );
        for ((shard, ok), n) in &self.shard_fetches {
            let _ = writeln!(
                out,
                "regend_shard_fetches_total{{shard=\"{shard}\",ok=\"{ok}\"}} {n}"
            );
        }
        header(
            &mut out,
            "regend_shard_failovers_total",
            "counter",
            "Requests the proxy answered by local recompute after giving up on a shard.",
        );
        for (shard, n) in &self.shard_failovers {
            let _ = writeln!(out, "regend_shard_failovers_total{{shard=\"{shard}\"}} {n}");
        }
        header(
            &mut out,
            "regend_shard_state",
            "gauge",
            "Last observed shard health state (0 = healthy, 1 = suspect, 2 = down).",
        );
        for (shard, state) in &self.shard_states {
            let _ = writeln!(out, "regend_shard_state{{shard=\"{shard}\"}} {}", state.gauge());
        }
        header(
            &mut out,
            "regend_net_faults_injected_total",
            "counter",
            "Network faults the proxy's plan injected into proxy-shard hops, by kind.",
        );
        for kind in crate::faultplan::NetFaultKind::ALL {
            let _ = writeln!(
                out,
                "regend_net_faults_injected_total{{kind=\"{}\"}} {}",
                kind.name(),
                self.net_faults.get(kind.name()).copied().unwrap_or(0)
            );
        }

        // Interpreter throughput families: process-wide totals published by
        // every `uarch::Machine` when a run or slice ends. Unlike the other
        // counters these do not come from the event stream — the interpreter
        // hot loop must not emit events — so they are sampled here at
        // exposition time.
        let (insts, transient_insts, transient_windows) = uarch::pmc::global::snapshot();
        counter(
            &mut out,
            "regen_uarch_instructions_total",
            "Committed instructions executed by all uarch machines in this process.",
            insts,
        );
        counter(
            &mut out,
            "regen_uarch_transient_instructions_total",
            "Transient (squashed) instructions executed inside speculation windows.",
            transient_insts,
        );
        counter(
            &mut out,
            "regen_uarch_transient_windows_total",
            "Transient-execution windows opened (mispredicts, faulting loads, SSB).",
            transient_windows,
        );

        // Branch-attackability analysis totals: process-wide counters the
        // `spec-taint` crate bumps on every analysis and hardening pass
        // (boot-time kernel text, BPF load, experiment corpus). Like the
        // interpreter family above, they are sampled at exposition time.
        let (scanned, flagged, fences) = spec_taint::counters::snapshot();
        counter(
            &mut out,
            "regen_spec_taint_branches_scanned_total",
            "Conditional branches classified by the spec-taint analysis in this process.",
            scanned,
        );
        counter(
            &mut out,
            "regen_spec_taint_branches_flagged_total",
            "Branches the analysis flagged attackable (Figure-1 gadget in the shadow).",
            flagged,
        );
        counter(
            &mut out,
            "regen_spec_taint_fences_inserted_total",
            "Hardening instructions inserted by spec-taint instrumentation passes.",
            fences,
        );
        out
    }
}

/// Extracts the value of an unlabelled sample line (`<name> <value>`)
/// from an exposition — what the invariant tests use to compare the
/// metrics dump against [`HarnessStats`].
pub fn metric_value(exposition: &str, name: &str) -> Option<f64> {
    let prefix = format!("{name} ");
    exposition
        .lines()
        .find(|l| l.starts_with(&prefix))
        .and_then(|l| l[prefix.len()..].trim().parse().ok())
}

#[cfg(test)]
mod tests {
    use super::super::{EventBus, EventKind, VirtualClock};
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_come_from_events_and_histograms_pair_up() {
        let bus = EventBus::recording(Arc::new(VirtualClock::new()));
        bus.emit("exp", "", "", 0, EventKind::PlanStarted { cells: 2 });
        bus.emit("exp", "exp/a", "a", 0, EventKind::CellQueued);
        bus.emit("exp", "exp/a", "a", 0, EventKind::CellStarted);
        bus.emit("exp", "exp/a", "a", 1, EventKind::Retry);
        bus.emit("exp", "exp/a", "a", 0, EventKind::CellFinished { ok: true, retries: 1 });
        bus.emit("exp", "exp/b", "b", 0, EventKind::CacheHit);
        bus.emit("exp", "", "", 0, EventKind::PlanFinished);
        let text = prometheus_text(&bus.snapshot(), &HarnessStats::default());
        assert_eq!(metric_value(&text, "regen_cells_simulated_total"), Some(1.0));
        assert_eq!(metric_value(&text, "regen_cells_cached_total"), Some(1.0));
        assert_eq!(metric_value(&text, "regen_retries_total"), Some(1.0));
        assert_eq!(metric_value(&text, "regen_plans_total"), Some(1.0));
        assert_eq!(metric_value(&text, "regen_queue_latency_seconds_count"), Some(1.0));
        assert!(text.contains("regen_experiment_wall_seconds_bucket{experiment=\"exp\",le=\"+Inf\"} 1"));
        assert!(text.contains("# TYPE regen_cells_simulated_total counter"));
    }

    #[test]
    fn keepalive_families_derive_from_connection_events() {
        let bus = EventBus::recording(Arc::new(VirtualClock::new()));
        bus.emit("regend", "", "", 0, EventKind::ConnectionOpened);
        bus.emit("regend", "", "", 0, EventKind::ConnectionOpened);
        bus.emit("regend", "/a", "", 0, EventKind::PipelineObserved { depth: 1 });
        bus.emit("regend", "/b", "", 0, EventKind::PipelineObserved { depth: 3 });
        bus.emit("regend", "", "", 0, EventKind::ClientDisconnected);
        bus.emit("regend", "", "", 0, EventKind::IdleTimeout);
        bus.emit("regend", "", "", 0, EventKind::ConnectionClosed { requests: 5, writes: 2 });
        bus.emit("regend", "", "", 0, EventKind::ConnectionClosed { requests: 2, writes: 2 });
        let text = prometheus_text(&bus.snapshot(), &HarnessStats::default());
        assert_eq!(metric_value(&text, "regend_keepalive_connections_total"), Some(2.0));
        assert_eq!(metric_value(&text, "regend_keepalive_closed_total"), Some(2.0));
        assert_eq!(metric_value(&text, "regend_keepalive_requests_total"), Some(7.0));
        assert_eq!(metric_value(&text, "regend_keepalive_writes_total"), Some(4.0));
        assert_eq!(metric_value(&text, "regend_disconnects_total"), Some(1.0));
        assert_eq!(metric_value(&text, "regend_idle_timeouts_total"), Some(1.0));
        assert_eq!(metric_value(&text, "regend_pipeline_depth_count"), Some(2.0));
        assert!(text.contains("regend_pipeline_depth_bucket{le=\"2\"} 1"));
        assert!(text.contains("regend_pipeline_depth_bucket{le=\"4\"} 2"));
    }

    #[test]
    fn cluster_families_derive_from_shard_events() {
        use super::super::ShardState;
        use crate::faultplan::NetFaultKind;
        let bus = EventBus::recording(Arc::new(VirtualClock::new()));
        bus.emit("regend", "/cell/x", "", 0, EventKind::ShardFetch { shard: 1, ok: true });
        bus.emit("regend", "/cell/x", "", 1, EventKind::ShardFetch { shard: 1, ok: false });
        bus.emit("regend", "/cell/x", "", 1, EventKind::ShardFetch { shard: 1, ok: false });
        bus.emit(
            "regend",
            "",
            "",
            0,
            EventKind::ShardStateChanged { shard: 1, state: ShardState::Suspect },
        );
        bus.emit(
            "regend",
            "",
            "",
            0,
            EventKind::ShardStateChanged { shard: 1, state: ShardState::Down },
        );
        bus.emit("regend", "/cell/x", "", 0, EventKind::ShardFailover { shard: 1 });
        bus.emit(
            "regend",
            "/cell/x",
            "",
            0,
            EventKind::NetFaultInjected { fault: NetFaultKind::Drop },
        );
        let text = prometheus_text(&bus.snapshot(), &HarnessStats::default());
        assert!(text.contains("regend_shard_fetches_total{shard=\"1\",ok=\"true\"} 1"));
        assert!(text.contains("regend_shard_fetches_total{shard=\"1\",ok=\"false\"} 2"));
        assert!(text.contains("regend_shard_failovers_total{shard=\"1\"} 1"));
        // The gauge reflects the *last* state change, not a sum.
        assert!(text.contains("regend_shard_state{shard=\"1\"} 2"), "{text}");
        assert!(text.contains("regend_net_faults_injected_total{kind=\"drop\"} 1"));
        // Every net-fault label is always present, even at zero.
        assert!(text.contains("regend_net_faults_injected_total{kind=\"corrupt-byte\"} 0"));
    }

    #[test]
    fn uarch_counter_family_is_exposed() {
        let text = prometheus_text(&[], &HarnessStats::default());
        assert!(text.contains("# TYPE regen_uarch_instructions_total counter"));
        assert!(metric_value(&text, "regen_uarch_instructions_total").is_some());
        assert!(metric_value(&text, "regen_uarch_transient_instructions_total").is_some());
        assert!(metric_value(&text, "regen_uarch_transient_windows_total").is_some());
    }

    #[test]
    fn spec_taint_counter_family_is_exposed_and_tracks_analyses() {
        // Run one analysis so the scanned counter is provably live, then
        // check all three families are exposed with sane values.
        let report = spec_taint::analyze(
            0x1000,
            &[uarch::isa::Inst::Cmp(uarch::isa::Reg::R0, uarch::isa::Reg::R2)],
        );
        assert_eq!(report.scanned(), 0);
        let text = prometheus_text(&[], &HarnessStats::default());
        assert!(text.contains("# TYPE regen_spec_taint_branches_scanned_total counter"));
        let scanned = metric_value(&text, "regen_spec_taint_branches_scanned_total");
        let flagged = metric_value(&text, "regen_spec_taint_branches_flagged_total");
        let fences = metric_value(&text, "regen_spec_taint_fences_inserted_total");
        assert!(scanned.is_some() && flagged.is_some() && fences.is_some());
        assert!(flagged.unwrap() <= scanned.unwrap());
    }

    #[test]
    fn metric_value_ignores_labelled_lines() {
        let text = "a_bucket{le=\"1\"} 3\na 7\n";
        assert_eq!(metric_value(text, "a"), Some(7.0));
        assert_eq!(metric_value(text, "missing"), None);
    }
}
