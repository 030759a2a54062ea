//! # spectrebench — the paper's measurement and analysis harness
//!
//! This crate is the reproduction's primary contribution, mirroring the
//! paper's own `spectrebench` artifact: it measures the performance cost
//! of transient-execution mitigations on the simulated systems and
//! attributes the total slowdown to individual mitigations.
//!
//! * [`stats`] — the §4.1 methodology: adaptive repetition until the 95%
//!   confidence interval is tight, geometric means, seeded noise.
//! * [`harness`] — fault-tolerant cell execution: typed errors, watchdog,
//!   retry with backoff, and the resumable run journal.
//! * [`plan`] — declarative experiment plans: each driver enumerates its
//!   lattice as [`plan::CellSpec`] data plus a pure reduce step.
//! * [`executor`] — consumes plans: schedules cells across a scoped
//!   worker pool, memoizes them in a content-addressed cross-experiment
//!   cache, and journals completions deterministically.
//! * [`cells`] — canonical cell constructors for the workloads several
//!   experiments share (so their cache keys agree).
//! * [`faultplan`] — deterministic fault injection for testing recovery.
//! * [`cli`] — the one command-line grammar of `regen` and `regend`: an
//!   in-order argument reader and the positive-integer rule for counts
//!   and millisecond values.
//! * [`attribution`] — successive-disable attribution (the stacked bars
//!   of Figures 2 and 3).
//! * [`micro`] — per-mitigation instruction microbenchmarks (Tables 3–8).
//! * [`probe`] — the §6 speculation probe built on the divider
//!   performance counter (Figure 6 → Tables 9 and 10).
//! * [`experiments`] — one driver per paper table/figure, each returning
//!   a structured result and a text rendering.
//! * [`artifact`] — the registry of what the harness regenerates: every
//!   table and figure by name, its caption, its regeneration through the
//!   executor, and the `== caption ==` block all surfaces print.
//! * [`report`] — plain-text table rendering and paper-vs-measured
//!   comparisons.
//! * [`obs`] — executor observability: a structured event bus with a
//!   swappable clock, a Chrome trace-event exporter, and a
//!   Prometheus-style metrics exposition.
//! * [`persist`] — crash-safe persistence primitives: CRC32, the
//!   journal-line codec and append file both journals share, atomic
//!   (tmp + fsync + rename) artifact writes, and the torn/bit-flip
//!   damage shapes the fault plan injects on the journal write path.
//! * [`json`] — the one JSON reader: journal payloads, campaign rows,
//!   and well-formedness checks of reports and traces.
//! * [`singleflight`] — in-flight request coalescing for the serving
//!   layer: concurrent identical queries share one computation.

// A failed cell must surface as a typed ExperimentError, never a panic:
// regeneration sweeps have to survive any single cell dying.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod artifact;
pub mod attribution;
pub mod campaign;
pub mod cells;
pub mod cli;
pub mod executor;
pub mod experiments;
pub mod faultplan;
pub mod harness;
pub mod json;
pub mod micro;
pub mod obs;
pub mod persist;
pub mod plan;
pub mod probe;
pub mod report;
pub mod singleflight;
pub mod stats;

pub use artifact::{Artifact, ArtifactOutput};
pub use attribution::{attribute, Attribution, Slice, Toggle, OS_TOGGLES};
pub use campaign::{
    classify, enumerate_cluster_coordinates, enumerate_coordinates, stratified_sample,
    CampaignJournal, ClusterCoordinate, Coordinate, FaultPoint, FaultTiming, Observation, Outcome,
    Report, SurvivalClass, CAMPAIGN_JOURNAL_HEADER,
};
pub use cli::{jobs_from_env, Arg, Args};
pub use executor::{default_jobs, Executor, DEFAULT_PANIC_BREAKER};
pub use faultplan::{FaultKind, FaultPlan, NetFaultKind, NetFaultPlan};
pub use harness::{
    cell_value_json, classify_line, escape_json, fsck_journal, parse_cell_json, scan_journal_text,
    ExperimentError, FsckReport, Harness, HarnessStats, Journal, JournalScan, LineClass,
    RetryPolicy, RunContext, Watchdog, JOURNAL_HEADER_V2,
};
pub use singleflight::{FlightOutcome, SingleFlight};
pub use obs::{Clock, Event, EventBus, EventKind, ShardState, SystemClock, VirtualClock};
pub use persist::{atomic_write, crc32, crc32_extend, fnv1a, WriteDamage};
pub use plan::{CellOutcome, CellSource, CellSpec, CellValue, ExperimentPlan};
pub use probe::{ProbeConfig, ProbeResult};
pub use stats::{geomean, measure_until, Measurement, NoiseModel, StatsError, StopPolicy};
