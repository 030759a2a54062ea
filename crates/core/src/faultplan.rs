//! Deterministic fault injection for the measurement harness.
//!
//! Real benchmark rigs fail in boring, recurring ways: a run wedges and
//! has to be killed, a machine reboots mid-sweep, a sample file comes
//! back corrupt. The paper's methodology (§4.1) survives those because a
//! human re-ran the affected configuration; this module lets *tests*
//! prove the harness does the same thing mechanically. A [`FaultPlan`]
//! decides — deterministically, from a seed and a rule list — whether a
//! given lattice cell's nth attempt fails, and how. The measurement loop
//! in [`crate::harness`] consults the plan before and during every cell.

use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

use crate::harness::lock;
use crate::persist::fnv1a;

/// What kind of failure to inject into a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The simulated machine dies (models a crashed run).
    SimFault,
    /// The run exceeds its wall-clock deadline (models a hang the
    /// watchdog had to kill).
    Timeout,
    /// The run completes but its samples are garbage (models a corrupt
    /// result file); the statistics layer must detect and reject them.
    CorruptSample,
    /// The cell's compute closure panics (models a bug in a driver);
    /// the harness must catch the unwind and degrade, never abort.
    PanicFault,
    /// The journal append for this cell is torn mid-write (models a
    /// crash or full disk during an append); resume must re-run the
    /// cell and fsck must classify the tail.
    TornWrite,
    /// The journal line for this cell reaches disk with a flipped byte
    /// (models silent media corruption); the v2 checksum must catch it.
    JournalCorrupt,
}

impl FaultKind {
    /// Every kind, in the canonical order campaigns enumerate them:
    /// compute-path kinds first, then the I/O-layer kinds.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::SimFault,
        FaultKind::Timeout,
        FaultKind::CorruptSample,
        FaultKind::PanicFault,
        FaultKind::TornWrite,
        FaultKind::JournalCorrupt,
    ];

    /// The CLI names of every kind, comma-joined — the single source of
    /// truth for usage text and "unknown kind" errors.
    pub fn all_names() -> String {
        FaultKind::ALL.map(FaultKind::name).join(", ")
    }

    /// CLI name (`--inject kind=...`).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::SimFault => "sim",
            FaultKind::Timeout => "timeout",
            FaultKind::CorruptSample => "corrupt",
            FaultKind::PanicFault => "panic",
            FaultKind::TornWrite => "torn-write",
            FaultKind::JournalCorrupt => "journal-corrupt",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "sim" => Some(FaultKind::SimFault),
            "timeout" => Some(FaultKind::Timeout),
            "corrupt" => Some(FaultKind::CorruptSample),
            "panic" => Some(FaultKind::PanicFault),
            "torn-write" => Some(FaultKind::TornWrite),
            "journal-corrupt" => Some(FaultKind::JournalCorrupt),
            _ => None,
        }
    }

    /// True for I/O-layer kinds, which fire when a completed cell is
    /// journaled ([`FaultPlan::inject_io`]) rather than during compute
    /// attempts ([`FaultPlan::inject`]).
    pub fn is_io(self) -> bool {
        matches!(self, FaultKind::TornWrite | FaultKind::JournalCorrupt)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic fault-injection plan.
///
/// Two mechanisms compose:
///
/// * **Targeted rules** ([`FaultPlan::fail_cell`]): kill cells whose key
///   (`experiment/cpu/workload/[config]`) contains a substring, a fixed
///   number of times (or forever). This is what the resume /
///   keep-going integration tests use.
/// * **Seeded background noise** ([`FaultPlan::seeded`]): every
///   (cell, attempt) pair fails with probability `p`, decided by a hash
///   of the seed — a deterministic model of a generally flaky rig.
///
/// The plan is consulted once per attempt; delivered injections are
/// counted per (rule, cell) so `times = Some(k)` lets attempt `k`
/// through, which is how tests prove retry recovers. The counters are
/// keyed by cell, not by global call order, so injection is independent
/// of how the executor interleaves cells across workers.
#[derive(Debug, Default, Clone)]
pub struct FaultPlan(Rules<String, FaultKind>);

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// A background-flakiness plan: each (cell, attempt) fails with
    /// probability `probability`, decided deterministically from `seed`.
    pub fn seeded(seed: u64, probability: f64) -> FaultPlan {
        FaultPlan(Rules::seeded(seed, probability))
    }

    /// Adds a targeted rule, chainable: cells whose key contains
    /// `cell_substr` fail with `kind` on their first `times` attempts
    /// (`None` = every attempt, i.e. a permanent failure).
    pub fn fail_cell(
        mut self,
        cell_substr: impl Into<String>,
        kind: FaultKind,
        times: Option<u32>,
    ) -> FaultPlan {
        self.0.rules.push(Rule { target: cell_substr.into(), kind, times });
        self
    }

    /// Whether the plan can ever inject anything.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Parses the `regen --inject` specification:
    ///
    /// ```text
    /// cell=<substr>:kind=<kind>:times=<n|forever>[,<rule>...]
    /// seed=<n>:prob=<float>
    /// ```
    ///
    /// `<kind>` is any of [`FaultKind::ALL`] and defaults to `sim`: the
    /// compute kinds `sim`, `timeout`, `corrupt` and `panic` fail the
    /// attempt; the I/O kinds `torn-write` and `journal-corrupt` damage
    /// the cell's journal line instead. Rules are comma-separated; a
    /// `seed=`/`prob=` pair may appear as one of them to add background
    /// flakiness.
    pub fn parse_spec(spec: &str) -> Result<FaultPlan, String> {
        let rules = Rules::parse(
            spec,
            "--inject",
            "either cell=... or seed=...:prob=...",
            |(cell, kind): &mut (Option<String>, Option<FaultKind>), key, value| {
                match key {
                    "cell" => *cell = Some(value.to_string()),
                    "kind" => {
                        *kind = Some(FaultKind::parse(value).ok_or_else(|| {
                            format!(
                                "unknown fault kind {value:?} (valid kinds: {})",
                                FaultKind::all_names()
                            )
                        })?)
                    }
                    _ => return Ok(false),
                }
                Ok(true)
            },
            |(cell, kind)| Ok(cell.map(|c| (c, kind.unwrap_or(FaultKind::SimFault)))),
        )?;
        Ok(FaultPlan(rules))
    }

    /// Decides whether attempt `attempt` of the cell named `cell_key`
    /// fails, and how. Deterministic given the plan's history: calling
    /// in the same order always yields the same injections. I/O-layer
    /// rules ([`FaultKind::is_io`]) are never delivered here — they
    /// fire from [`FaultPlan::inject_io`] when the cell is journaled.
    pub fn inject(&self, cell_key: &str, attempt: u32) -> Option<FaultKind> {
        // Background faults rotate through the compute kinds
        // deterministically.
        let kinds = [FaultKind::SimFault, FaultKind::Timeout, FaultKind::CorruptSample];
        self.0
            .deliver(cell_key, |cell, kind| !kind.is_io() && cell_key.contains(cell.as_str()))
            .or_else(|| {
                let pick = self.0.background(cell_key, attempt, 0xC0FF_EE00)?;
                Some(kinds[(pick % kinds.len() as u64) as usize])
            })
    }

    /// Decides whether journaling the completed cell named `cell_key`
    /// suffers an injected I/O fault. Same delivery accounting as
    /// [`FaultPlan::inject`] (a `times = Some(k)` rule damages the
    /// first `k` appends for each matching cell), but consulted on the
    /// write path, so compute rules never fire here and vice versa.
    pub fn inject_io(&self, cell_key: &str) -> Option<FaultKind> {
        self.0.deliver(cell_key, |cell, kind| kind.is_io() && cell_key.contains(cell.as_str()))
    }
}

/// What kind of failure to inject into one proxy↔shard network hop.
///
/// The serving-tier sibling of [`FaultKind`]: where `FaultKind`
/// perturbs the compute/journal path inside one process, a
/// `NetFaultKind` perturbs the wire between the cluster proxy and a
/// shard. Injection is client-side (in the proxy's fetch path), so the
/// shard under test is untouched and the same seed reproduces the same
/// hop-level failures on any machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetFaultKind {
    /// The request never reaches the shard (models a dropped packet /
    /// dead route): the fetch fails immediately with a transport error.
    Drop,
    /// The shard stops answering (models a hung peer): the fetch blocks
    /// for the stall window, then fails with a timeout.
    Stall,
    /// The response body is cut short mid-flight (models a torn
    /// transfer); length/checksum verification must catch it.
    Truncate,
    /// One body byte is flipped in flight (models silent wire
    /// corruption); the body checksum must catch it — a corrupt byte
    /// that reaches a client is silent corruption by definition.
    CorruptByte,
}

impl NetFaultKind {
    /// Every kind, in the canonical order cluster campaigns enumerate
    /// them.
    pub const ALL: [NetFaultKind; 4] = [
        NetFaultKind::Drop,
        NetFaultKind::Stall,
        NetFaultKind::Truncate,
        NetFaultKind::CorruptByte,
    ];

    /// The CLI names of every kind, comma-joined.
    pub fn all_names() -> String {
        NetFaultKind::ALL.map(NetFaultKind::name).join(", ")
    }

    /// CLI name (`regend --net-inject kind=...`).
    pub fn name(self) -> &'static str {
        match self {
            NetFaultKind::Drop => "drop",
            NetFaultKind::Stall => "stall",
            NetFaultKind::Truncate => "truncate",
            NetFaultKind::CorruptByte => "corrupt-byte",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<NetFaultKind> {
        NetFaultKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

impl fmt::Display for NetFaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic network-fault plan for the proxy↔shard hop.
///
/// [`FaultPlan`]'s two mechanisms — targeted rules plus seeded
/// background noise — and its delivery accounting, with counters keyed
/// per (rule, hop), where a hop is `shard:path`, so injection is
/// independent of how proxy workers interleave fetches.
#[derive(Debug, Default, Clone)]
pub struct NetFaultPlan(Rules<(Option<usize>, String), NetFaultKind>);

impl NetFaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> NetFaultPlan {
        NetFaultPlan::default()
    }

    /// A background-flakiness plan: each (hop, attempt) fails with
    /// probability `probability`, decided deterministically from `seed`,
    /// rotating through every [`NetFaultKind`].
    pub fn seeded(seed: u64, probability: f64) -> NetFaultPlan {
        NetFaultPlan(Rules::seeded(seed, probability))
    }

    /// Adds a targeted rule, chainable: hops to `shard` (or any
    /// shard when `None`) whose request path contains `path_substr`
    /// fail with `kind` on their first `times` attempts per hop (`None`
    /// = every attempt).
    pub fn fail_hop(
        mut self,
        shard: Option<usize>,
        path_substr: impl Into<String>,
        kind: NetFaultKind,
        times: Option<u32>,
    ) -> NetFaultPlan {
        self.0.rules.push(Rule { target: (shard, path_substr.into()), kind, times });
        self
    }

    /// Whether the plan can ever inject anything.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Parses the `regend --net-inject` specification:
    ///
    /// ```text
    /// shard=<n|any>:kind=<drop|stall|truncate|corrupt-byte>:times=<n|forever>[:path=<substr>][,<rule>...]
    /// seed=<n>:prob=<float>
    /// ```
    pub fn parse_spec(spec: &str) -> Result<NetFaultPlan, String> {
        type Keys = (Option<Option<usize>>, Option<NetFaultKind>, String);
        let rules = Rules::parse(
            spec,
            "--net-inject",
            "shard=...:kind=... or seed=...:prob=...",
            |(shard, kind, path): &mut Keys, key, value| {
                match key {
                    "shard" => {
                        *shard = Some(if value == "any" {
                            None
                        } else {
                            Some(value.parse::<usize>().map_err(|e| {
                                format!("bad shard value {value:?}: {e}")
                            })?)
                        })
                    }
                    "kind" => {
                        *kind = Some(NetFaultKind::parse(value).ok_or_else(|| {
                            format!(
                                "unknown net fault kind {value:?} (valid kinds: {})",
                                NetFaultKind::all_names()
                            )
                        })?)
                    }
                    "path" => *path = value.to_string(),
                    _ => return Ok(false),
                }
                Ok(true)
            },
            |(shard, kind, path)| match (shard, kind) {
                (Some(shard), Some(kind)) => Ok(Some(((shard, path), kind))),
                (None, None) => Ok(None),
                _ => Err(()),
            },
        )?;
        Ok(NetFaultPlan(rules))
    }

    /// Decides whether attempt `attempt` of the hop `(shard, path)`
    /// suffers an injected network fault, and which. Deterministic
    /// given the plan's history, independent of fetch interleaving
    /// across hops.
    pub fn inject(&self, shard: usize, path: &str, attempt: u32) -> Option<NetFaultKind> {
        let hop = format!("{shard}:{path}");
        self.0
            .deliver(&hop, |(target, substr), _| {
                target.is_none_or(|s| s == shard) && path.contains(substr.as_str())
            })
            .or_else(|| {
                let pick = self.0.background(&hop, attempt, 0xBAD_CAB1E)?;
                Some(NetFaultKind::ALL[(pick % NetFaultKind::ALL.len() as u64) as usize])
            })
    }
}

/// One targeted rule: deliveries whose key matches `target` fail with
/// `kind`, the first `times` of them per (rule, key) (`None` = all).
#[derive(Debug, Clone)]
struct Rule<T, K> {
    target: T,
    kind: K,
    times: Option<u32>,
}

/// The rule engine both plans wrap: targeted rules, seeded background
/// noise, and delivery counts per (rule, key). A plan supplies only
/// what its rules match (`T`), its kinds (`K`), and its spec keys.
#[derive(Debug)]
struct Rules<T, K> {
    rules: Vec<Rule<T, K>>,
    seed: u64,
    probability: f64,
    delivered: Mutex<HashMap<(usize, String), u32>>,
}

impl<T, K: Copy> Default for Rules<T, K> {
    fn default() -> Rules<T, K> {
        Rules::seeded(0, 0.0)
    }
}

impl<T: Clone, K: Clone> Clone for Rules<T, K> {
    fn clone(&self) -> Rules<T, K> {
        Rules {
            rules: self.rules.clone(),
            seed: self.seed,
            probability: self.probability,
            delivered: Mutex::new(lock(&self.delivered).clone()),
        }
    }
}

impl<T, K: Copy> Rules<T, K> {
    fn seeded(seed: u64, probability: f64) -> Rules<T, K> {
        Rules {
            rules: Vec::new(),
            seed,
            probability: probability.clamp(0.0, 1.0),
            delivered: Mutex::new(HashMap::new()),
        }
    }

    fn is_empty(&self) -> bool {
        self.rules.is_empty() && self.probability == 0.0
    }

    /// Parses a spec: comma-separated rules of colon-separated
    /// `key=value` parts. `times=`, `seed=` and `prob=` are shared;
    /// `key` parses the plan's own keys into `Keys` (answering
    /// `Ok(false)` for a key it does not know), and `rule` turns them into a
    /// targeted rule, `Ok(None)` when they name none (a `seed=`/`prob=`
    /// rule), or `Err` when they name half of one. `flag` and `needs`
    /// word the errors.
    fn parse<Keys: Default>(
        spec: &str,
        flag: &str,
        needs: &str,
        key: impl Fn(&mut Keys, &str, &str) -> Result<bool, String>,
        rule: impl Fn(Keys) -> Result<Option<(T, K)>, ()>,
    ) -> Result<Rules<T, K>, String> {
        let mut parsed = Rules::default();
        for text in spec.split(',').filter(|r| !r.is_empty()) {
            let mut keys = Keys::default();
            let mut times = None;
            let mut seed = None;
            let mut prob = None;
            for part in text.split(':') {
                let (k, value) = part
                    .split_once('=')
                    .ok_or_else(|| format!("bad {flag} part (want key=value): {part:?}"))?;
                match k {
                    "times" => {
                        times = if value == "forever" {
                            None
                        } else {
                            Some(value.parse::<u32>().map_err(|e| {
                                format!("bad times value {value:?}: {e}")
                            })?)
                        }
                    }
                    "seed" => {
                        seed = Some(
                            value
                                .parse::<u64>()
                                .map_err(|e| format!("bad seed value {value:?}: {e}"))?,
                        )
                    }
                    "prob" => {
                        prob = Some(
                            value
                                .parse::<f64>()
                                .map_err(|e| format!("bad prob value {value:?}: {e}"))?,
                        )
                    }
                    other => {
                        if !key(&mut keys, other, value)? {
                            return Err(format!("unknown {flag} key: {other:?}"));
                        }
                    }
                }
            }
            match (rule(keys), seed, prob) {
                (Ok(Some((target, kind))), None, None) => {
                    parsed.rules.push(Rule { target, kind, times });
                }
                (Ok(None), Some(s), Some(p)) => {
                    parsed.seed = s;
                    parsed.probability = p.clamp(0.0, 1.0);
                }
                _ => return Err(format!("{flag} rule needs {needs}: {text:?}")),
            }
        }
        Ok(parsed)
    }

    /// The first rule `matches` accepts whose budget for `key` is not
    /// spent, counting the delivery.
    fn deliver(&self, key: &str, matches: impl Fn(&T, K) -> bool) -> Option<K> {
        for (i, rule) in self.rules.iter().enumerate() {
            if !matches(&rule.target, rule.kind) {
                continue;
            }
            match rule.times {
                None => return Some(rule.kind),
                Some(limit) => {
                    let mut delivered = lock(&self.delivered);
                    let count = delivered.entry((i, key.to_string())).or_insert(0);
                    if *count < limit {
                        *count += 1;
                        return Some(rule.kind);
                    }
                }
            }
        }
        None
    }

    /// Background noise: when the seeded draw fails attempt `attempt`
    /// of `key`, a hash salted with `salt` for the plan to pick a kind
    /// with.
    fn background(&self, key: &str, attempt: u32, salt: u64) -> Option<u64> {
        (self.probability > 0.0 && unit_hash(self.seed, key, attempt) < self.probability)
            .then(|| mix(self.seed ^ salt, key, attempt))
    }
}

/// Deterministic hash of (seed, key, attempt) into a u64.
pub(crate) fn mix(seed: u64, key: &str, attempt: u32) -> u64 {
    // FNV-1a over the key, then an xorshift* finalizer with the seed and
    // attempt folded in.
    let h = fnv1a(key.bytes());
    let mut x = h ^ seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ ((attempt as u64) << 32);
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Deterministic hash of (seed, key, attempt) into [0, 1).
fn unit_hash(seed: u64, key: &str, attempt: u32) -> f64 {
    (mix(seed, key, attempt) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let p = FaultPlan::new();
        assert!(p.is_empty());
        assert_eq!(p.inject("figure2/Broadwell/lebench/[nopti]", 0), None);
    }

    #[test]
    fn targeted_rule_counts_down() {
        let p = FaultPlan::new().fail_cell("[nopti]", FaultKind::Timeout, Some(2));
        let key = "figure2/Broadwell/lebench/[nopti]";
        assert_eq!(p.inject(key, 0), Some(FaultKind::Timeout));
        assert_eq!(p.inject(key, 1), Some(FaultKind::Timeout));
        assert_eq!(p.inject(key, 2), None, "attempt 3 gets through");
        // Other cells are untouched.
        assert_eq!(p.inject("figure2/Broadwell/lebench/[nopti mds=off]", 0), None);
    }

    #[test]
    fn permanent_rule_never_relents() {
        let p = FaultPlan::new().fail_cell("Zen 3", FaultKind::SimFault, None);
        for attempt in 0..10 {
            assert_eq!(p.inject("vm/Zen 3/lfs/[default]", attempt), Some(FaultKind::SimFault));
        }
    }

    #[test]
    fn seeded_plan_is_deterministic() {
        let a = FaultPlan::seeded(42, 0.3);
        let b = FaultPlan::seeded(42, 0.3);
        for attempt in 0..20 {
            assert_eq!(a.inject("x/y/z/[w]", attempt), b.inject("x/y/z/[w]", attempt));
        }
        // Roughly the right rate over many cells.
        let p = FaultPlan::seeded(7, 0.25);
        let hits = (0..1000)
            .filter(|i| p.inject(&format!("cell-{i}"), 0).is_some())
            .count();
        assert!((150..350).contains(&hits), "rate {hits}/1000");
    }

    #[test]
    fn io_kinds_fire_on_the_write_path_only() {
        let p = FaultPlan::new()
            .fail_cell("[torn]", FaultKind::TornWrite, Some(1))
            .fail_cell("[torn]", FaultKind::PanicFault, Some(1));
        let key = "f/cpu/w/[torn]";
        // Compute-path injection skips the io rule and delivers the
        // panic; write-path injection skips the panic and delivers the
        // torn write. Each keeps its own delivery count.
        assert_eq!(p.inject(key, 0), Some(FaultKind::PanicFault));
        assert_eq!(p.inject(key, 1), None);
        assert_eq!(p.inject_io(key), Some(FaultKind::TornWrite));
        assert_eq!(p.inject_io(key), None, "times=1 exhausted");
        // Cells not matching the substring are untouched.
        assert_eq!(p.inject_io("f/cpu/w/[clean]"), None);
    }

    #[test]
    fn io_kind_names_parse() {
        assert_eq!(FaultKind::parse("panic"), Some(FaultKind::PanicFault));
        assert_eq!(FaultKind::parse("torn-write"), Some(FaultKind::TornWrite));
        assert_eq!(FaultKind::parse("journal-corrupt"), Some(FaultKind::JournalCorrupt));
        assert!(FaultKind::PanicFault.name() == "panic");
        assert!(!FaultKind::PanicFault.is_io());
        assert!(FaultKind::TornWrite.is_io() && FaultKind::JournalCorrupt.is_io());
    }

    #[test]
    fn unknown_kind_error_lists_every_valid_kind() {
        let err = FaultPlan::parse_spec("cell=x:kind=nope").unwrap_err();
        for k in FaultKind::ALL {
            assert!(err.contains(k.name()), "{err:?} must name {}", k.name());
        }
        assert_eq!(FaultKind::ALL.len(), 6, "campaigns enumerate exactly six kinds");
    }

    #[test]
    fn spec_round_trips() {
        let p = FaultPlan::parse_spec("cell=[nopti]:kind=timeout:times=2").unwrap();
        assert_eq!(p.inject("f2/bdw/le/[nopti]", 0), Some(FaultKind::Timeout));
        let p = FaultPlan::parse_spec("cell=x:kind=sim:times=forever,seed=3:prob=0.5").unwrap();
        assert_eq!(p.inject("a/x/b", 5), Some(FaultKind::SimFault));
        assert!(FaultPlan::parse_spec("cell=x:kind=nope").is_err());
        assert!(FaultPlan::parse_spec("kind=sim").is_err());
        assert!(FaultPlan::parse_spec("cell=x:times=abc").is_err());
    }

    #[test]
    fn net_targeted_rule_counts_per_hop() {
        let p = NetFaultPlan::new().fail_hop(Some(1), "/cell/", NetFaultKind::Drop, Some(2));
        // Wrong shard and wrong path are untouched.
        assert_eq!(p.inject(0, "/cell/abc", 0), None);
        assert_eq!(p.inject(1, "/healthz", 0), None);
        // Each matching hop gets its own delivery budget.
        assert_eq!(p.inject(1, "/cell/abc", 0), Some(NetFaultKind::Drop));
        assert_eq!(p.inject(1, "/cell/abc", 1), Some(NetFaultKind::Drop));
        assert_eq!(p.inject(1, "/cell/abc", 2), None, "times=2 exhausted");
        assert_eq!(p.inject(1, "/cell/def", 0), Some(NetFaultKind::Drop));
    }

    #[test]
    fn net_any_shard_rule_and_forever() {
        let p = NetFaultPlan::new().fail_hop(None, "", NetFaultKind::Stall, None);
        for shard in 0..4 {
            for attempt in 0..3 {
                assert_eq!(p.inject(shard, "/artifact/figure2", attempt), Some(NetFaultKind::Stall));
            }
        }
    }

    #[test]
    fn net_seeded_background_is_deterministic() {
        let a = NetFaultPlan::seeded(42, 0.3);
        let b = NetFaultPlan::seeded(42, 0.3);
        for attempt in 0..20 {
            assert_eq!(a.inject(2, "/cell/k", attempt), b.inject(2, "/cell/k", attempt));
        }
        let p = NetFaultPlan::seeded(7, 0.25);
        let hits = (0..1000usize)
            .filter(|i| p.inject(i % 4, &format!("/cell/{i}"), 0).is_some())
            .count();
        assert!((150..350).contains(&hits), "rate {hits}/1000");
        // A clone replays identically from the same delivery history.
        let p = NetFaultPlan::new().fail_hop(Some(0), "", NetFaultKind::Truncate, Some(1));
        assert_eq!(p.inject(0, "/x", 0), Some(NetFaultKind::Truncate));
        let c = p.clone();
        assert_eq!(c.inject(0, "/x", 1), None, "clone carries delivery counters");
    }

    #[test]
    fn net_spec_round_trips() {
        let p = NetFaultPlan::parse_spec("shard=1:kind=drop:times=1").unwrap();
        assert_eq!(p.inject(1, "/cell/x", 0), Some(NetFaultKind::Drop));
        assert_eq!(p.inject(1, "/cell/x", 1), None);
        let p = NetFaultPlan::parse_spec(
            "shard=any:kind=corrupt-byte:times=forever:path=/cell/,seed=3:prob=0.5",
        )
        .unwrap();
        assert_eq!(p.inject(3, "/cell/x", 0), Some(NetFaultKind::CorruptByte));
        assert!(!p.is_empty());
        assert!(NetFaultPlan::parse_spec("shard=0:kind=nope").is_err());
        assert!(NetFaultPlan::parse_spec("kind=drop").is_err());
        assert!(NetFaultPlan::parse_spec("shard=x:kind=drop").is_err());
        let err = NetFaultPlan::parse_spec("shard=0:kind=bogus").unwrap_err();
        for k in NetFaultKind::ALL {
            assert!(err.contains(k.name()), "{err:?} must name {}", k.name());
        }
        assert!(NetFaultPlan::new().is_empty());
    }
}
