//! Fault-space exploration campaigns: search the injection space
//! instead of sampling it.
//!
//! [`crate::faultplan`] injects at hand-picked coordinates, so every
//! recovery proof so far covers exactly the faults somebody thought of.
//! A *campaign* closes that gap the way the paper replaced anecdotal
//! attack PoCs with a systematic sweep of the attack space: take a clean
//! reference sweep, enumerate **every** `(content-key, attempt,
//! fault-kind)` coordinate its cell set admits (or a seeded stratified
//! sample for large spaces), execute each coordinate as an independent
//! perturbed sweep through the unchanged executor/retry/breaker/fsck
//! machinery, and classify what came out:
//!
//! * [`SurvivalClass::Absorbed`] — the artifact bytes are identical to
//!   the reference; retry / fsck ate the fault whole.
//! * [`SurvivalClass::Degraded`] — the output differs but is correctly
//!   accounted as partial (`†`-bridged slices, `DEGRADED` reported).
//! * [`SurvivalClass::FailedLoud`] — an artifact failed with a typed
//!   error and a nonzero exit; noisy, but honest.
//! * [`SurvivalClass::SilentCorruption`] — the output differs from the
//!   reference while the sweep claims to be clean, **or** a damaged
//!   journal line would replay a wrong value on resume. Always a bug.
//!
//! The serving tier runs the same kind of campaign over a second fault
//! space: every `(shard, net-fault-kind, timing)` point of a cluster
//! ([`ClusterCoordinate`]). Both spaces share one model: a point
//! implements [`FaultPoint`], a driver reduces each perturbed run to an
//! [`Observation`], [`classify`] places it on the lattice, and the
//! classified [`Outcome`]s reduce into one [`Report`].
//!
//! This module is the pure half of the feature: coordinate enumeration,
//! deterministic stratified sampling, outcome classification, the
//! crash-safe campaign journal (so an interrupted campaign resumes),
//! and the byte-deterministic report. The running halves live with
//! their drivers: `bench::campaign` sweeps artifacts, and
//! `serve::cluster_campaign` bursts requests through a faulted proxy.

use std::io;
use std::path::Path;

use crate::faultplan::{mix, FaultKind, FaultPlan, NetFaultKind, NetFaultPlan};
use crate::harness::escape_json;
use crate::json;
use crate::persist::{frame_line, unframe_line, JournalFile, Unframed};

/// What the machinery did with one injected fault coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SurvivalClass {
    /// Artifact bytes identical to the reference sweep: the fault was
    /// retried / recovered away completely.
    Absorbed,
    /// Output differs but is accounted: `†`-bridged slices and a
    /// DEGRADED verdict (exit 1).
    Degraded,
    /// An artifact failed outright with a typed error (exit 1); loud,
    /// attributable, recoverable by a re-run.
    FailedLoud,
    /// Output differs from the reference while the sweep claims to be
    /// clean (or resume state would silently replay a wrong value).
    /// Always a bug in the machinery, never an acceptable outcome.
    SilentCorruption,
}

impl SurvivalClass {
    /// Every class, in lattice order (best to worst).
    pub const ALL: [SurvivalClass; 4] = [
        SurvivalClass::Absorbed,
        SurvivalClass::Degraded,
        SurvivalClass::FailedLoud,
        SurvivalClass::SilentCorruption,
    ];

    /// Stable name used in the campaign journal, report, and metrics.
    pub fn name(self) -> &'static str {
        match self {
            SurvivalClass::Absorbed => "absorbed",
            SurvivalClass::Degraded => "degraded",
            SurvivalClass::FailedLoud => "failed-loud",
            SurvivalClass::SilentCorruption => "silent-corruption",
        }
    }

    /// Parses a stable name (the campaign journal reader).
    pub fn parse(s: &str) -> Option<SurvivalClass> {
        SurvivalClass::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// A point of a fault space: what the report and the matrix need to
/// know about it.
pub trait FaultPoint {
    /// The JSON key a report over this space files its inputs under.
    const REPORT: &'static str;
    /// The survivability matrix's first column heading.
    const AXIS: &'static str;
    /// Canonical id, unique within the space.
    fn id(&self) -> String;
    /// The point's own fields of its JSON report row (the row's
    /// `"coord"` id comes first, its verdict after).
    fn json_fields(&self) -> String;
    /// The survivability-matrix row this point is counted in.
    fn row(&self) -> String;
    /// Every matrix row, in display order.
    fn rows() -> Vec<String>;
}

/// One point of the fault space: inject `kind` into the cell addressed
/// by `(content_key, seed)` for its first `attempt + 1` attempts.
///
/// The attempt axis makes retry depth part of the search: `attempt 0`
/// kills only the first try (one retry must absorb it), and
/// `attempt == retries - 1` kills every try (the cell fails permanently
/// and the degradation path is on trial). I/O-layer kinds have a single
/// coordinate per cell — a cell's value is journaled exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Coordinate {
    /// Content-addressed cell key (`cpu/workload/[config]`). Targeting
    /// the content key (not the per-experiment cell key) means the
    /// fault fires in whichever experiment computes the cell first —
    /// exactly where a real failure would land under the shared cache.
    pub content_key: String,
    /// The cell's seed, as recorded by the reference sweep.
    pub seed: u64,
    /// 0-based attempt depth: the injected rule fires `attempt + 1`
    /// times.
    pub attempt: u32,
    /// Which failure to inject.
    pub kind: FaultKind,
}

impl FaultPoint for Coordinate {
    const REPORT: &'static str = "campaign";
    const AXIS: &'static str = "fault kind";

    /// `kind:attempt:seed:content-key` (the key goes last because it
    /// may contain any character except a newline).
    fn id(&self) -> String {
        format!("{}:{}:{}:{}", self.kind.name(), self.attempt, self.seed, self.content_key)
    }

    fn json_fields(&self) -> String {
        format!(
            "\"kind\":\"{}\",\"attempt\":{},\"cell\":\"{}\",\"seed\":{}",
            self.kind.name(),
            self.attempt,
            escape_json(&self.content_key),
            self.seed
        )
    }

    fn row(&self) -> String {
        self.kind.name().to_string()
    }

    fn rows() -> Vec<String> {
        FaultKind::ALL.iter().map(|k| k.name().to_string()).collect()
    }
}

impl Coordinate {
    /// Parses a canonical id back into a coordinate.
    pub fn parse_id(id: &str) -> Option<Coordinate> {
        let mut parts = id.splitn(4, ':');
        let kind = FaultKind::parse(parts.next()?)?;
        let attempt = parts.next()?.parse().ok()?;
        let seed = parts.next()?.parse().ok()?;
        let content_key = parts.next()?.to_string();
        if content_key.is_empty() {
            return None;
        }
        Some(Coordinate { content_key, seed, attempt, kind })
    }

    /// The fault plan that realises this coordinate: one targeted rule
    /// matching the content key, delivered `attempt + 1` times.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new().fail_cell(self.content_key.clone(), self.kind, Some(self.attempt + 1))
    }
}

/// Enumerates the full coordinate space of a cell set: every
/// `(cell, attempt, kind)` point, duplicate-free and in a canonical
/// order (cells sorted by key then seed; kinds in [`FaultKind::ALL`]
/// order; attempts ascending). Compute-path kinds get `retries`
/// attempt depths; I/O kinds get one (a cell journals once).
pub fn enumerate_coordinates(cells: &[(String, u64)], retries: u32) -> Vec<Coordinate> {
    let mut cells: Vec<(String, u64)> = cells.to_vec();
    cells.sort();
    cells.dedup();
    let retries = retries.max(1);
    let mut out = Vec::new();
    for (key, seed) in &cells {
        for kind in FaultKind::ALL {
            let depths = if kind.is_io() { 1 } else { retries };
            for attempt in 0..depths {
                out.push(Coordinate {
                    content_key: key.clone(),
                    seed: *seed,
                    attempt,
                    kind,
                });
            }
        }
    }
    out
}

/// Deterministic stratified sample of `n` coordinates from `space`,
/// decided by `seed`:
///
/// * strata are the fault kinds, so a small sample still exercises
///   every failure mode the space contains;
/// * per-stratum quotas are proportional with largest-remainder
///   rounding, so quotas sum to exactly `min(n, space.len())`;
/// * within a stratum, coordinates are ranked by a seeded hash of
///   their id — same seed, same sample, independent of how the caller
///   ordered the space;
/// * the result preserves the enumeration order of `space` (so the
///   report reads like a filtered full report).
pub fn stratified_sample(space: &[Coordinate], n: usize, seed: u64) -> Vec<Coordinate> {
    if n >= space.len() {
        return space.to_vec();
    }
    // Group indices by kind, preserving order.
    let mut strata: Vec<(FaultKind, Vec<usize>)> = Vec::new();
    for kind in FaultKind::ALL {
        let idx: Vec<usize> =
            (0..space.len()).filter(|&i| space[i].kind == kind).collect();
        if !idx.is_empty() {
            strata.push((kind, idx));
        }
    }
    // Largest-remainder quotas: each stratum gets the floor of its
    // proportional share, then the slots left over go one each to the
    // largest remainders (ties broken by stratum order — deterministic).
    // Fewer slots are left than there are nonzero remainders, and with
    // `n < space.len()` no floor share fills its stratum, so one pass
    // hands them all out.
    let total = space.len() as u128;
    let mut quotas: Vec<usize> = Vec::with_capacity(strata.len());
    let mut remainders: Vec<(u128, usize)> = Vec::with_capacity(strata.len());
    for (s, (_, idx)) in strata.iter().enumerate() {
        let exact_num = (n as u128) * (idx.len() as u128);
        quotas.push((exact_num / total) as usize);
        remainders.push((exact_num % total, s));
    }
    remainders.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let left = n - quotas.iter().sum::<usize>();
    for &(_, s) in remainders.iter().take(left) {
        quotas[s] += 1;
    }
    // Rank each stratum by seeded hash, take the quota, then restore
    // enumeration order.
    let mut picked: Vec<usize> = Vec::with_capacity(n);
    for (s, (_, idx)) in strata.iter().enumerate() {
        let mut ranked: Vec<(u64, usize)> = idx
            .iter()
            .map(|&i| (mix(seed, &space[i].id(), 0), i))
            .collect();
        ranked.sort();
        picked.extend(ranked.into_iter().take(quotas[s]).map(|(_, i)| i));
    }
    picked.sort_unstable();
    picked.into_iter().map(|i| space[i].clone()).collect()
}

/// What a driver saw of one perturbed run, reduced to the three facts
/// classification needs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Observation {
    /// The output diverged from the reference with nothing accounting
    /// for it, or resume state would replay a wrong value.
    pub silent: bool,
    /// Something failed with a typed error: an artifact, or requests a
    /// client saw fail.
    pub failed: bool,
    /// The output is marked partial: `†`-bridged slices, shed load, or
    /// a degraded-mode response.
    pub degraded: bool,
}

/// Classifies one observation, worst-first on the lattice: silent
/// corruption outranks a loud failure, which outranks degradation;
/// a run with none of the three absorbed its fault.
pub fn classify(obs: &Observation) -> SurvivalClass {
    if obs.silent {
        SurvivalClass::SilentCorruption
    } else if obs.failed {
        SurvivalClass::FailedLoud
    } else if obs.degraded {
        SurvivalClass::Degraded
    } else {
        SurvivalClass::Absorbed
    }
}

/// One classified coordinate, as recorded in the campaign journal and
/// the report.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome<C> {
    /// Which fault-space point.
    pub coord: C,
    /// The survivability verdict.
    pub class: SurvivalClass,
    /// `(retries, faults)`: the retries the perturbed run spent and the
    /// faults its plan actually delivered. `None` where they depend on
    /// scheduling (the cluster campaign), since the report is byte-pinned.
    pub counts: Option<(u64, u64)>,
    /// A short deterministic note: the first failed or degraded
    /// artifact, journal-damage accounting, or what the client saw.
    pub detail: String,
}

impl<C: FaultPoint> Outcome<C> {
    fn to_json(&self) -> String {
        let mut row = format!(
            "{{\"coord\":\"{}\",{},\"class\":\"{}\"",
            escape_json(&self.coord.id()),
            self.coord.json_fields(),
            self.class.name()
        );
        if let Some((retries, faults)) = self.counts {
            row.push_str(&format!(",\"retries\":{retries},\"faults\":{faults}"));
        }
        row.push_str(&format!(",\"detail\":\"{}\"}}", escape_json(&self.detail)));
        row
    }
}

/// The reduced verdict of a whole campaign: every classified
/// coordinate plus the inputs that make the report reproducible.
#[derive(Debug, Clone)]
pub struct Report<C> {
    /// The campaign's inputs as `(field, value)` pairs, in report order;
    /// the explored count follows them. Each value is already rendered
    /// as JSON text (`"x"`, `[...]`, `null`), which [`Report::to_json`]
    /// copies verbatim.
    pub inputs: Vec<(&'static str, String)>,
    /// The matrix's title line (without the colon).
    pub title: String,
    /// Classified coordinates, in enumeration order.
    pub outcomes: Vec<Outcome<C>>,
}

impl<C: FaultPoint> Report<C> {
    /// Per-class totals, in lattice order.
    pub fn counts(&self) -> [(SurvivalClass, usize); 4] {
        SurvivalClass::ALL.map(|c| (c, self.outcomes.iter().filter(|o| o.class == c).count()))
    }

    /// The coordinates classified as silent corruption — each one a
    /// bug.
    pub fn silent_corruptions(&self) -> Vec<&Outcome<C>> {
        self.outcomes
            .iter()
            .filter(|o| o.class == SurvivalClass::SilentCorruption)
            .collect()
    }

    /// Byte-deterministic JSON rendering (no timestamps, no timings;
    /// outcomes in enumeration order).
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"{}\": {{", C::REPORT);
        for (field, value) in &self.inputs {
            out.push_str(&format!("\"{field}\":{value},"));
        }
        out.push_str(&format!("\"explored\":{}}},\n  \"summary\": {{", self.outcomes.len()));
        let counts: Vec<String> =
            self.counts().iter().map(|(c, n)| format!("\"{}\":{n}", c.name())).collect();
        out.push_str(&counts.join(","));
        out.push_str("},\n  \"results\": [\n");
        for (i, o) in self.outcomes.iter().enumerate() {
            out.push_str("    ");
            out.push_str(&o.to_json());
            if i + 1 < self.outcomes.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// The human-readable survivability matrix: one row per
    /// [`FaultPoint::rows`] entry that has coordinates, one column per
    /// class, plus an explicit list of any silent corruptions.
    pub fn render_matrix(&self) -> String {
        let rows = C::rows();
        let labels = rows.iter().map(String::as_str).chain([C::AXIS]);
        let width = labels.map(|l| l.chars().count()).max().unwrap_or(0) + 1;
        // Each class column is as wide as its name plus one.
        let line = |label: &str, cols: [String; 4]| {
            let mut line = format!("  {label:width$}");
            for (class, col) in SurvivalClass::ALL.iter().zip(cols) {
                line.push_str(&format!(" {col:>w$}", w = class.name().len() + 1));
            }
            line + "\n"
        };
        let mut out = format!("{}:\n", self.title);
        out.push_str(&line(C::AXIS, SurvivalClass::ALL.map(|c| c.name().to_string())));
        for row in rows {
            let counts = SurvivalClass::ALL.map(|c| {
                self.outcomes.iter().filter(|o| o.class == c && o.coord.row() == row).count()
            });
            if counts.iter().sum::<usize>() > 0 {
                out.push_str(&line(&row, counts.map(|n| n.to_string())));
            }
        }
        let silent = self.silent_corruptions();
        if silent.is_empty() {
            out.push_str("  no silent corruption: every divergence was accounted.\n");
        } else {
            out.push_str(&format!(
                "  {} SILENT CORRUPTION coordinate(s) — each one is a bug:\n",
                silent.len()
            ));
            for o in silent {
                out.push_str(&format!("    {}  ({})\n", o.coord.id(), o.detail));
            }
        }
        out
    }
}

/// The header line a campaign journal starts with.
pub const CAMPAIGN_JOURNAL_HEADER: &str = "#regen-campaign v1";

/// The line tag of a campaign-journal row (see [`frame_line`]).
const CAMPAIGN_TAG: &str = "c1";

/// Append-only, CRC-checksummed journal of classified coordinates, so
/// a campaign killed at coordinate 800 of 1000 resumes with 800 rows
/// replayed instead of re-running them. Lines use the cell journal's
/// framing with tag `c1` (`c1 <crc32 lowercase-hex> <report row JSON>`);
/// damaged lines (the torn tail of a killed campaign) are skipped on
/// load and simply re-run.
#[derive(Debug)]
pub struct CampaignJournal(JournalFile);

impl CampaignJournal {
    /// Opens (or creates) a campaign journal, returning the outcomes
    /// already on record. Damaged lines are skipped, not fatal: a
    /// SIGKILLed campaign may leave a torn tail, and the coordinate it
    /// belonged to just re-runs.
    pub fn open(path: &Path) -> io::Result<(CampaignJournal, Vec<Outcome<Coordinate>>)> {
        let (file, text) = JournalFile::open(path, CAMPAIGN_JOURNAL_HEADER)?;
        Ok((CampaignJournal(file), text.lines().filter_map(decode_campaign_line).collect()))
    }

    /// Appends one classified coordinate, straight to the OS, so a kill
    /// right after costs at most the coordinate in flight.
    pub fn record(&self, outcome: &Outcome<Coordinate>) -> io::Result<()> {
        self.0.append(frame_line(CAMPAIGN_TAG, &outcome.to_json()).as_bytes())
    }

    /// Fsyncs the backing file (called once per coordinate batch).
    pub fn sync(&self) -> io::Result<()> {
        self.0.sync()
    }
}

/// Decodes one `c1 <crc> <payload>` campaign-journal line; `None` for
/// the header and for damaged lines.
fn decode_campaign_line(line: &str) -> Option<Outcome<Coordinate>> {
    let Unframed::Payload(payload) = unframe_line(CAMPAIGN_TAG, line, false) else {
        return None;
    };
    let row = json::parse(payload).ok()?;
    let text = |field| Some(row.get(field)?.as_str()?.to_string());
    Some(Outcome {
        coord: Coordinate::parse_id(&text("coord")?)?,
        class: SurvivalClass::parse(&text("class")?)?,
        counts: Some((row.get("retries")?.num()?, row.get("faults")?.num()?)),
        detail: text("detail")?,
    })
}

/// When along a hop's lifetime a cluster-campaign fault fires.
///
/// The serving tier's analogue of the compute campaign's attempt axis:
/// `First` kills only the first attempt per hop (the proxy's bounded
/// retry must absorb it), `Always` kills every attempt (the shard is
/// effectively unreachable and the failover-to-local-recompute path is
/// on trial).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultTiming {
    /// The fault fires once per hop; retry must absorb it.
    First,
    /// The fault fires on every attempt; failover must cover it.
    Always,
}

impl FaultTiming {
    /// Both timings, in enumeration order.
    pub const ALL: [FaultTiming; 2] = [FaultTiming::First, FaultTiming::Always];

    /// Stable name used in coordinate ids and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultTiming::First => "first",
            FaultTiming::Always => "always",
        }
    }
}

/// One point of the serving-tier fault space: inject `kind` into every
/// proxy↔shard hop that targets `shard`, with `timing` deciding whether
/// the hop's first attempt or all attempts are hit.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClusterCoordinate {
    /// Index of the shard whose hops are attacked.
    pub shard: usize,
    /// Which network failure to inject.
    pub kind: NetFaultKind,
    /// Whether retry (first) or failover (always) is on trial.
    pub timing: FaultTiming,
}

impl FaultPoint for ClusterCoordinate {
    const REPORT: &'static str = "cluster_campaign";
    const AXIS: &'static str = "net fault × timing";

    /// `kind:timing:shard`.
    fn id(&self) -> String {
        format!("{}:{}:{}", self.kind.name(), self.timing.name(), self.shard)
    }

    fn json_fields(&self) -> String {
        format!(
            "\"kind\":\"{}\",\"timing\":\"{}\",\"shard\":{}",
            self.kind.name(),
            self.timing.name(),
            self.shard
        )
    }

    fn row(&self) -> String {
        format!("{} ({})", self.kind.name(), self.timing.name())
    }

    fn rows() -> Vec<String> {
        // One shard's points cover every (kind, timing) row, in order.
        enumerate_cluster_coordinates(1).iter().map(FaultPoint::row).collect()
    }
}

impl ClusterCoordinate {
    /// The network fault plan this coordinate describes: a single
    /// targeted rule on the shard, firing once per hop (`first`) or
    /// forever (`always`).
    pub fn net_fault_plan(&self) -> NetFaultPlan {
        let times = match self.timing {
            FaultTiming::First => Some(1),
            FaultTiming::Always => None,
        };
        NetFaultPlan::new().fail_hop(Some(self.shard), "", self.kind, times)
    }
}

/// Enumerates the full (shard × net-fault-kind × timing) space for an
/// `shards`-shard cluster, in deterministic order.
pub fn enumerate_cluster_coordinates(shards: usize) -> Vec<ClusterCoordinate> {
    let mut space = Vec::with_capacity(shards * NetFaultKind::ALL.len() * FaultTiming::ALL.len());
    for shard in 0..shards {
        for kind in NetFaultKind::ALL {
            for timing in FaultTiming::ALL {
                space.push(ClusterCoordinate { shard, kind, timing });
            }
        }
    }
    space
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells() -> Vec<(String, u64)> {
        vec![
            ("cpuB/w/[cfg]".to_string(), 0),
            ("cpuA/w/[cfg]".to_string(), 7),
            ("cpuA/w/[cfg]".to_string(), 7), // duplicate, must collapse
        ]
    }

    #[test]
    fn enumeration_is_sorted_dedup_and_sized() {
        let space = enumerate_coordinates(&cells(), 3);
        // 2 distinct cells x (4 compute kinds x 3 attempts + 2 io kinds).
        assert_eq!(space.len(), 2 * (4 * 3 + 2));
        let ids: std::collections::HashSet<String> =
            space.iter().map(Coordinate::id).collect();
        assert_eq!(ids.len(), space.len(), "duplicate-free");
        assert_eq!(space, enumerate_coordinates(&cells(), 3), "deterministic");
        assert!(space[0].content_key <= space[space.len() - 1].content_key, "sorted by cell");
        // IO kinds get exactly one attempt depth.
        assert!(space
            .iter()
            .filter(|c| c.kind.is_io())
            .all(|c| c.attempt == 0));
    }

    #[test]
    fn coordinate_ids_round_trip() {
        for coord in enumerate_coordinates(&cells(), 2) {
            assert_eq!(Coordinate::parse_id(&coord.id()), Some(coord.clone()), "{}", coord.id());
        }
        // Keys containing the separator still round-trip (key is last).
        let c = Coordinate {
            content_key: "cpu/w/[x:y=1]".to_string(),
            seed: 3,
            attempt: 1,
            kind: FaultKind::Timeout,
        };
        assert_eq!(Coordinate::parse_id(&c.id()), Some(c));
        assert_eq!(Coordinate::parse_id("nope"), None);
    }

    #[test]
    fn coordinate_fault_plans_fire_exactly_attempt_plus_one_times() {
        let c = Coordinate {
            content_key: "cpu/w/[cfg]".to_string(),
            seed: 0,
            attempt: 1,
            kind: FaultKind::SimFault,
        };
        let plan = c.fault_plan();
        let key = "exp/cpu/w/[cfg]";
        assert_eq!(plan.inject(key, 0), Some(FaultKind::SimFault));
        assert_eq!(plan.inject(key, 1), Some(FaultKind::SimFault));
        assert_eq!(plan.inject(key, 2), None, "attempt 3 gets through");
    }

    #[test]
    fn sample_is_seed_stable_and_a_subset() {
        let space = enumerate_coordinates(
            &(0..20).map(|i| (format!("cpu{i}/w/[c]"), 0)).collect::<Vec<_>>(),
            3,
        );
        let a = stratified_sample(&space, 25, 42);
        let b = stratified_sample(&space, 25, 42);
        assert_eq!(a, b, "seed-stable");
        assert_eq!(a.len(), 25);
        let all: std::collections::HashSet<String> = space.iter().map(Coordinate::id).collect();
        assert!(a.iter().all(|c| all.contains(&c.id())), "subset of the space");
        // Every kind is represented (25 >= 6 strata).
        for kind in FaultKind::ALL {
            assert!(a.iter().any(|c| c.kind == kind), "stratum {kind} covered");
        }
        // A different seed picks a different sample (overwhelmingly).
        let c = stratified_sample(&space, 25, 43);
        assert_ne!(a, c, "seed changes the pick");
        // Oversampling returns the whole space.
        assert_eq!(stratified_sample(&space, space.len() + 10, 1), space);
    }

    #[test]
    fn classification_is_worst_first() {
        let class = |silent, failed, degraded| classify(&Observation { silent, failed, degraded });
        assert_eq!(class(false, false, false), SurvivalClass::Absorbed);
        assert_eq!(class(false, false, true), SurvivalClass::Degraded);
        assert_eq!(class(false, true, false), SurvivalClass::FailedLoud);
        // A sweep that fails one artifact and degrades another is as
        // bad as its worst artifact.
        assert_eq!(class(false, true, true), SurvivalClass::FailedLoud);
        // Silent corruption outranks everything.
        assert_eq!(class(true, false, false), SurvivalClass::SilentCorruption);
        assert_eq!(class(true, true, true), SurvivalClass::SilentCorruption);
    }

    #[test]
    fn campaign_journal_round_trips_and_survives_torn_tails() {
        let dir = std::env::temp_dir().join(format!("sb-campaign-j-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.jsonl");
        let _ = std::fs::remove_file(&path);
        let outcome = Outcome {
            coord: Coordinate {
                content_key: "cpu/w/[a \"q\"]".to_string(),
                seed: 9,
                attempt: 2,
                kind: FaultKind::PanicFault,
            },
            class: SurvivalClass::FailedLoud,
            counts: Some((4, 3)),
            detail: "table1 failed".to_string(),
        };
        {
            let (j, replayed) = CampaignJournal::open(&path).unwrap();
            assert!(replayed.is_empty());
            j.record(&outcome).unwrap();
            j.sync().unwrap();
        }
        // Tear the tail: append half a line, as a SIGKILL mid-append
        // would.
        {
            use std::io::Write as _;
            let mut f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"c1 deadbeef {\"coord\":\"sim:0:0:x").unwrap();
        }
        let (_j, replayed) = CampaignJournal::open(&path).unwrap();
        assert_eq!(replayed, vec![outcome], "torn tail skipped, not fatal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn no_one_bit_flip_of_a_campaign_line_decodes_to_another_outcome() {
        let outcome = Outcome {
            coord: Coordinate {
                content_key: "Broadwell (i7-5650U)/getpid/[nopti]".to_string(),
                seed: 3,
                attempt: 1,
                kind: FaultKind::SimFault,
            },
            class: SurvivalClass::Degraded,
            counts: Some((2, 2)),
            detail: "figure2 degraded".to_string(),
        };
        let line = frame_line(CAMPAIGN_TAG, &outcome.to_json());
        let line = line.trim_end();
        assert_eq!(decode_campaign_line(line), Some(outcome.clone()));
        for bit in 0..line.len() * 8 {
            let mut bytes = line.as_bytes().to_vec();
            bytes[bit / 8] ^= 1 << (bit % 8);
            // A non-UTF-8 journal fails at read time; a flip into a
            // newline splits the line, and the loader decodes each half.
            let Ok(text) = String::from_utf8(bytes) else {
                continue;
            };
            for decoded in text.lines().filter_map(decode_campaign_line) {
                assert_eq!(
                    decoded, outcome,
                    "flip of bit {bit} decodes another outcome: {text}"
                );
            }
        }
    }

    #[test]
    fn report_json_is_deterministic_and_well_formed() {
        let space = enumerate_coordinates(&[("cpu/w/[c]".to_string(), 1)], 2);
        let outcomes: Vec<Outcome<Coordinate>> = space
            .iter()
            .map(|c| Outcome {
                coord: c.clone(),
                class: SurvivalClass::Absorbed,
                counts: Some((1, 1)),
                detail: String::new(),
            })
            .collect();
        let report = Report {
            inputs: vec![("retries", "2".to_string())],
            title: "survivability matrix".to_string(),
            outcomes,
        };
        let a = report.to_json();
        assert_eq!(a, report.to_json(), "byte-deterministic");
        crate::json::parse(&a).expect("report is well-formed JSON");
        assert!(a.contains("\"retries\":1,\"faults\":1,"), "{a}");
        let matrix = report.render_matrix();
        assert!(matrix.contains("no silent corruption"));
        // The first column fits the longest kind, `journal-corrupt`.
        assert!(
            matrix.contains("\n  fault kind        absorbed  degraded  failed-loud  silent-corruption\n"),
            "{matrix}"
        );
        assert!(
            matrix.contains("\n  sim                      2         0            0                  0\n"),
            "{matrix}"
        );
    }

    #[test]
    fn cluster_enumeration_covers_the_space() {
        let space = enumerate_cluster_coordinates(4);
        assert_eq!(space.len(), 4 * 4 * 2, "shard x kind x timing");
        let ids: std::collections::HashSet<String> =
            space.iter().map(ClusterCoordinate::id).collect();
        assert_eq!(ids.len(), space.len(), "duplicate-free");
        assert_eq!(space, enumerate_cluster_coordinates(4), "deterministic");
    }

    #[test]
    fn cluster_coordinate_plans_match_their_timing() {
        let first = ClusterCoordinate {
            shard: 1,
            kind: NetFaultKind::Drop,
            timing: FaultTiming::First,
        };
        let plan = first.net_fault_plan();
        assert_eq!(plan.inject(1, "/cell/x", 0), Some(NetFaultKind::Drop));
        assert_eq!(plan.inject(1, "/cell/x", 1), None, "first timing fires once per hop");
        assert_eq!(plan.inject(0, "/cell/x", 0), None, "other shards untouched");

        let always = ClusterCoordinate {
            shard: 2,
            kind: NetFaultKind::Stall,
            timing: FaultTiming::Always,
        };
        let plan = always.net_fault_plan();
        for attempt in 0..5 {
            assert_eq!(plan.inject(2, "/artifact/t", attempt), Some(NetFaultKind::Stall));
        }
    }

    #[test]
    fn cluster_report_json_is_deterministic_and_well_formed() {
        let outcomes: Vec<Outcome<ClusterCoordinate>> = enumerate_cluster_coordinates(2)
            .into_iter()
            .map(|coord| {
                let class = match coord.timing {
                    FaultTiming::First => SurvivalClass::Absorbed,
                    FaultTiming::Always => SurvivalClass::Degraded,
                };
                Outcome { coord, class, counts: None, detail: "failover".to_string() }
            })
            .collect();
        let report = Report {
            inputs: vec![("version", "\"regend-cluster-campaign/v1\"".to_string())],
            title: "cluster survivability matrix".to_string(),
            outcomes,
        };
        let a = report.to_json();
        assert_eq!(a, report.to_json(), "byte-deterministic");
        crate::json::parse(&a).expect("report is well-formed JSON");
        assert!(a.contains("regend-cluster-campaign/v1"));
        assert!(!a.contains("\"retries\""), "scheduling-dependent counts stay out");
        let matrix = report.render_matrix();
        assert!(matrix.contains("no silent corruption"));
        // The first column fits the longest row, `corrupt-byte (always)`.
        assert!(
            matrix.contains("\n  corrupt-byte (always)          0         2            0                  0\n"),
            "{matrix}"
        );
    }
}
