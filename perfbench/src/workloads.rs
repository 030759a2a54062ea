//! The four workloads: their pinned inputs, why each exists, and which
//! per-layer metrics each should and should not move.
//!
//! Every input is listed by name here (CPUs, artifacts, cell keys), never
//! taken from `CpuId::ALL` or `Artifact::ALL`, so a new artifact or CPU
//! in the program cannot silently grow a workload.
//!
//! The two cold workloads load disjoint layers on purpose: a LEBench
//! suite spends most of its host time copying pages for `fork` and
//! `big-fork` and simulates few instructions, while Octane simulates
//! about 50 times more instructions, mostly transient, and never forks.
//! One sweep-wide number would let a gain in one hide a loss in the
//! other.

use cpu_models::CpuId;
use js_engine::octane::OctaneBench;
use workloads::lebench::LeBenchOp;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Cold `regen --jobs 2 figure2`: 56 cells, each one LEBench suite
    /// run, on the eight paper CPUs. It exists because Figure 2 is the
    /// paper's OS-boundary result and the sim-kernel/workloads path: on
    /// Broadwell at the default boot, `fork` plus `big-fork` are about
    /// 90% of a suite's host time, and the whole figure simulates only
    /// about 13 M instructions.
    ///
    /// Should move: `workloads.lebench.*`, `sim_kernel.boot_ms` (about
    /// 1% of the run at most), `core.executor.*` (`idle_s` moves
    /// `wall_s` but not `cpu_s`). Should not move: `js_engine.*`; an
    /// interpreter change barely moves it.
    Figure2Lebench,
    /// Cold `regen --jobs 2 figure3`: 48 cells. It exists because Figure
    /// 3 is the paper's browser-boundary result and the uarch/js-engine
    /// path: 142 M committed plus 563 M transient instructions in 13.5 M
    /// windows, all through JIT'd code, with no fork.
    ///
    /// Should move: `js_engine.*`, `uarch.minst_per_cpu_s` (tracks
    /// `cpu_s`); the `uarch.*` counts stay fixed in a speed-only change.
    /// Should not move: `workloads.lebench.*`; a sim-kernel fork change
    /// should leave it alone.
    Figure3Octane,
    /// One warm `regend` serving the full renderings of the 15 cheap
    /// artifacts to two keep-alive clients that pipeline 40 requests each,
    /// then a burst of back-to-back `GET /metrics`. It exists to cover the
    /// inline cache-hit path (parse, route, zero-copy write) and the event
    /// bus, which retains every request's events and folds all of them on
    /// each scrape, on the event-loop thread. With one request in flight,
    /// every read waited on a vCPU waking up: while the host was busy, one
    /// read in ten took 0.2-1 ms instead of 0.035 ms and whole rounds took
    /// three times as long at the same CPU; two clients pipelining 8
    /// requests still left the server idle in two runs of ten, at 40 it
    /// stays busy.
    ///
    /// Should move: `serve.http.parse_ns`, `serve.core.route_ns`,
    /// `core.obs.*` (through `cpu_s`, `wall_s` and `peak_rss_mb`). Should
    /// not move: `serve.proxy.*`, `serve.shard.*`, the simulation layers
    /// (its simulation runs only in set-up).
    ServeDirect,
    /// `regend --shards 2` serving warm `/cell/<experiment>/<key>` reads
    /// for every cell of the 15 cheap artifacts, from two clients that
    /// pipeline 8 requests each. Every read crosses the dispatch pool and
    /// the CRC-verified proxy-to-shard hop; it is the only workload that
    /// runs `serve::proxy` and `serve::shard`. Two pipelining clients keep
    /// the CPU per read steady where one closed-loop client was bimodal.
    ///
    /// Should move: `serve.proxy.execute_us`, `serve.shard.fetch_us`,
    /// `core.crc32_ns_per_kb` (through `cpu_s` and `p50_ms`). Should not
    /// move: the direct cache-hit path's share, the simulation layers.
    ServeProxy,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Figure2Lebench,
        Workload::Figure3Octane,
        Workload::ServeDirect,
        Workload::ServeProxy,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Figure2Lebench => "figure2_lebench",
            Workload::Figure3Octane => "figure3_octane",
            Workload::ServeDirect => "serve_direct",
            Workload::ServeProxy => "serve_proxy",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What a cold workload runs. Consecutive cold runs on a shared
    /// 2-vCPU VM differ by up to 30%, so one per benchmark run is not
    /// enough. `figure3` (6-10 s on both cores) runs three times, so that
    /// the median passes over one run that the host slowed down (one in
    /// five or so, by 20-40%, unseen by the calibrations around it); each
    /// `figure2` takes 15-23 s, and two are what the whole benchmark's time
    /// budget allows. Both use both cores: over six interleaved runs in a
    /// stretch where the host slowed everything by 70%, `figure3` on one
    /// worker and on two spread alike after calibration (0.20 and 0.18 of
    /// the median), and two workers take half the time.
    pub fn cold(self) -> Option<Cold> {
        match self {
            Workload::Figure2Lebench => Some(Cold {
                artifact: "figure2",
                jobs: JOBS,
                runs: 2,
            }),
            Workload::Figure3Octane => Some(Cold {
                artifact: "figure3",
                jobs: JOBS,
                runs: 3,
            }),
            Workload::ServeDirect | Workload::ServeProxy => None,
        }
    }
}

/// What a cold workload runs.
#[derive(Clone, Copy)]
pub struct Cold {
    /// The artifact `regen` regenerates.
    pub artifact: &'static str,
    /// Executor worker threads (`regen --jobs`).
    pub jobs: usize,
    /// Cold runs per benchmark run; the metrics are their medians.
    pub runs: usize,
}

/// Executor worker threads for the simulations the benchmark starts (all
/// but `figure3`'s): the container's two cores.
pub const JOBS: usize = 2;

/// The eight paper CPUs in Table 2 order. `regen figure2` and `regen
/// figure3` run `CpuId::ALL`; the cold workloads stop if that list ever
/// differs from this one.
pub const PAPER_CPUS: [CpuId; 8] = [
    CpuId::Broadwell,
    CpuId::SkylakeClient,
    CpuId::CascadeLake,
    CpuId::IceLakeClient,
    CpuId::IceLakeServer,
    CpuId::Zen,
    CpuId::Zen2,
    CpuId::Zen3,
];

/// The artifacts that render in under a second: everything but
/// `figure2`, `figure3` and `discussion`. The serving workloads warm
/// exactly these, so `hypervisor`, `attacks` and `spec-taint` run only
/// inside their set-up.
pub const CHEAP_ARTIFACTS: [&str; 15] = [
    "table1",
    "table2",
    "table3",
    "table4",
    "table5",
    "table6",
    "table7",
    "table8",
    "figure5",
    "table9",
    "table10",
    "vm",
    "eibrs-bimodal",
    "ebpf",
    "targeted",
];

/// The cells `serve_proxy` reads, as `(experiment, content key)`.
pub fn cells() -> Vec<(&'static str, &'static str)> {
    include_str!("../cells.tsv")
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| {
            l.split_once('\t')
                .expect("cells.tsv lines are experiment<TAB>key")
        })
        .collect()
}

/// The LEBench operations the layer probes time, in suite order.
pub const LEBENCH_OPS: [LeBenchOp; 19] = [
    LeBenchOp::GetPid,
    LeBenchOp::SmallRead,
    LeBenchOp::MedRead,
    LeBenchOp::BigRead,
    LeBenchOp::HugeRead,
    LeBenchOp::SmallWrite,
    LeBenchOp::MedWrite,
    LeBenchOp::BigWrite,
    LeBenchOp::HugeWrite,
    LeBenchOp::Mmap,
    LeBenchOp::Munmap,
    LeBenchOp::BigMunmap,
    LeBenchOp::PageFault,
    LeBenchOp::ContextSwitch,
    LeBenchOp::SendRecv,
    LeBenchOp::Select,
    LeBenchOp::Fork,
    LeBenchOp::BigFork,
    LeBenchOp::ThreadCreate,
];

/// The Octane benchmarks the layer probes time.
pub const OCTANE_BENCHES: [OctaneBench; 8] = [
    OctaneBench::Richards,
    OctaneBench::DeltaBlue,
    OctaneBench::Crypto,
    OctaneBench::Splay,
    OctaneBench::NavierStokes,
    OctaneBench::RayTrace,
    OctaneBench::RegExp,
    OctaneBench::Earley,
];

/// Set-up repetitions per run; `setup_s` is their median.
pub const COLD_SETUPS: usize = 41;

/// Serving rounds per run. Each round is a fresh `regend` process (so
/// its CPU and peak RSS are its own): set-up, read phase, scrapes,
/// drain. Every serving metric is the median over rounds: on a shared
/// host, rounds a few seconds apart differ by up to 40%, and eight short
/// rounds give a median that one slow stretch does not decide.
pub const SERVE_ROUNDS: usize = 8;

/// Reads per second of `--seconds` in a serving workload, over all
/// rounds: sizes a fixed read phase, so `wall_s` and `cpu_s` time the
/// same work on every commit.
pub const READS_PER_SECOND: u64 = 24_000;

/// `GET /metrics` requests after each `serve_direct` read phase.
pub const DIRECT_SCRAPES: usize = 5;

/// Consecutive reads on one connection per timing window (see `wall_s`
/// in `e2e.rs`); a multiple of every pipeline depth.
pub const WINDOW: usize = 1000;

/// Client connections of both serving workloads (one thread each, one
/// per core), and their pipeline depths: deep enough that the server
/// still has a batch to work through while a client waits for its vCPU
/// to be woken, which on a busy host took up to a millisecond; a direct
/// read costs the server about a third of a proxied one.
pub const CLIENTS: usize = 2;
pub const DIRECT_DEPTH: usize = 40;
pub const PROXY_DEPTH: usize = 8;
