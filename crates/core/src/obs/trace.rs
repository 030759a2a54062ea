//! Chrome trace-event export: one lane per executor worker.
//!
//! [`chrome_trace_json`] renders an [`Event`] stream as the Trace Event
//! Format consumed by Perfetto and `chrome://tracing`: each
//! `CellStarted`/`CellFinished` pair becomes a complete (`"X"`) span on
//! its worker's lane, plan executions become spans on a dedicated
//! `plans` lane, and queue/cache/retry/fault/watchdog events become
//! instant (`"i"`) marks. Timestamps are microseconds from the bus
//! clock's epoch. The trace-invariant tests prove the emitted file
//! parses with [`crate::json::parse`].

use crate::harness::escape_json;

use super::{Event, EventKind};

/// The synthetic lane (`tid`) plan-level spans are drawn on, far above
/// any plausible worker count.
pub const PLAN_LANE: usize = 1_000_000;

fn micros(e: &Event) -> u128 {
    e.ts.as_nanos() / 1_000
}

fn push_meta(out: &mut String, tid: usize, name: &str) {
    out.push_str(&format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
         \"args\":{{\"name\":\"{}\"}}}}",
        escape_json(name)
    ));
}

/// Renders the event stream as Chrome trace-event JSON.
///
/// The output is a single object `{"displayTimeUnit":"ms",
/// "traceEvents":[...]}`. Unpaired opens (a sweep snapshotted
/// mid-flight) are dropped rather than emitted as dangling begin
/// events, so the file always loads.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut records: Vec<String> = Vec::new();

    // Lane metadata: one named lane per worker seen, plus the plan lane.
    let mut workers: Vec<usize> = events
        .iter()
        .filter(|e| {
            matches!(e.kind, EventKind::CellStarted | EventKind::CellFinished { .. })
        })
        .map(|e| e.worker)
        .collect();
    workers.sort_unstable();
    workers.dedup();
    for w in &workers {
        let mut s = String::new();
        push_meta(&mut s, *w, &format!("worker {w}"));
        records.push(s);
    }
    if events.iter().any(|e| matches!(e.kind, EventKind::PlanStarted { .. })) {
        let mut s = String::new();
        push_meta(&mut s, PLAN_LANE, "plans");
        records.push(s);
    }

    // Pair spans. Workers run one cell at a time and plans are executed
    // sequentially per executor, so a per-lane "open event" slot
    // suffices; the invariant tests assert exactly this discipline.
    let mut open_cell: std::collections::HashMap<usize, &Event> = std::collections::HashMap::new();
    let mut open_plan: Vec<&Event> = Vec::new();
    for e in events {
        match &e.kind {
            EventKind::CellStarted => {
                open_cell.insert(e.worker, e);
            }
            EventKind::CellFinished { ok, retries } => {
                if let Some(start) = open_cell.remove(&e.worker) {
                    let dur = micros(e).saturating_sub(micros(start)).max(1);
                    records.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"cell\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\
                         \"experiment\":\"{}\",\"cell\":\"{}\",\"ok\":{},\"retries\":{}}}}}",
                        escape_json(&start.content_key),
                        micros(start),
                        dur,
                        e.worker,
                        escape_json(&e.experiment),
                        escape_json(&e.cell),
                        ok,
                        retries
                    ));
                }
            }
            EventKind::PlanStarted { cells } => {
                let _ = cells;
                open_plan.push(e);
            }
            EventKind::PlanFinished => {
                if let Some(start) = open_plan.pop() {
                    let dur = micros(e).saturating_sub(micros(start)).max(1);
                    let cells = match start.kind {
                        EventKind::PlanStarted { cells } => cells,
                        _ => 0,
                    };
                    records.push(format!(
                        "{{\"name\":\"{}\",\"cat\":\"plan\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{},\"pid\":1,\"tid\":{PLAN_LANE},\
                         \"args\":{{\"cells\":{cells}}}}}",
                        escape_json(&start.experiment),
                        micros(start),
                        dur
                    ));
                }
            }
            EventKind::CellQueued
            | EventKind::CacheHit
            | EventKind::JournalReplay
            | EventKind::Retry
            | EventKind::FaultInjected { .. }
            | EventKind::WatchdogFired
            | EventKind::PanicCaught
            | EventKind::JournalWriteError
            | EventKind::BreakerTripped
            | EventKind::BreakerSkipped
            | EventKind::RequestReceived { .. }
            | EventKind::RequestRejected
            | EventKind::RequestCompleted { .. }
            | EventKind::ArtifactCacheHit
            | EventKind::CellCacheHit
            | EventKind::FlightCoalesced
            | EventKind::DeadlineExpired
            | EventKind::ConnectionOpened
            | EventKind::ConnectionClosed { .. }
            | EventKind::ClientDisconnected
            | EventKind::IdleTimeout
            | EventKind::PipelineObserved { .. }
            | EventKind::CampaignStarted { .. }
            | EventKind::CampaignCoordinate { .. }
            | EventKind::CampaignReplayed
            | EventKind::CampaignFinished
            | EventKind::ShardFetch { .. }
            | EventKind::ShardStateChanged { .. }
            | EventKind::ShardFailover { .. }
            | EventKind::NetFaultInjected { .. }
            | EventKind::SpecTaintAnalyzed { .. } => {
                records.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{},\"s\":\"t\",\
                     \"pid\":1,\"tid\":{},\"args\":{{\"cell\":\"{}\",\"attempt\":{}}}}}",
                    e.kind.name(),
                    e.kind.name(),
                    micros(e),
                    e.worker,
                    escape_json(&e.cell),
                    e.attempt
                ));
            }
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
        records.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::super::{EventBus, EventKind, VirtualClock};
    use super::*;
    use std::sync::Arc;

    #[test]
    fn spans_pair_and_json_is_valid() {
        let bus = EventBus::recording(Arc::new(VirtualClock::new()));
        bus.emit("exp", "", "", 0, EventKind::PlanStarted { cells: 1 });
        bus.emit("exp", "exp/c/w", "c/w", 0, EventKind::CellQueued);
        bus.emit("exp", "exp/c/w", "c/w", 0, EventKind::CellStarted);
        bus.emit("exp", "exp/c/w", "c/w", 1, EventKind::Retry);
        bus.emit("exp", "exp/c/w", "c/w", 0, EventKind::CellFinished { ok: true, retries: 1 });
        bus.emit("exp", "", "", 0, EventKind::PlanFinished);
        let json = chrome_trace_json(&bus.snapshot());
        crate::json::parse(&json).expect("trace must be well-formed JSON");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2, "one cell span, one plan span");
        assert_eq!(json.matches("\"ph\":\"i\"").count(), 2, "queued + retry instants");
        assert!(json.contains("\"tid\":1000000"), "plan lane present");
    }

    #[test]
    fn unpaired_open_is_dropped() {
        let bus = EventBus::recording(Arc::new(VirtualClock::new()));
        bus.emit("exp", "exp/c/w", "c/w", 0, EventKind::CellStarted);
        let json = chrome_trace_json(&bus.snapshot());
        crate::json::parse(&json).expect("still valid");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 0);
    }
}
