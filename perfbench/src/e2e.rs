//! The end-to-end runs: the programs under test as separate processes,
//! timed from outside, every output checked.
//!
//! Every time is scaled to the nominal machine speed by the calibrations
//! timed right before and right after its phase (see `calib.rs`; a
//! serving round's set-up and timed phase share theirs); the raw times
//! are printed beside them.
//!
//! Metrics (all lower is better, each on every workload):
//! - `setup_s`: before the timed phase. Cold workloads: starting `regen`
//!   (`regen --list`, spawn to exit), since their users pay for
//!   everything else. Serving: spawning `regend` until every pinned item
//!   has been served once (boot plus warm-up).
//! - `wall_s`: the timed phase. Cold: spawning `regen <artifact>` until
//!   it exits with the rendering (median over the run's cold runs).
//!   Serving: one round's fixed read phase plus, for `serve_direct`, its
//!   scrape burst (median over rounds). The read phase is timed as (reads
//!   per connection / 1000) x the median wall of its 1000-read windows:
//!   on a shared 2-vCPU VM, a few bursts of host preemption moved the
//!   end-to-end wall by 30% between runs while the median window held
//!   within 2%. A slowdown spread over all reads still moves every
//!   window. The end-to-end wall is printed per round.
//! - `cpu_s`: user + system CPU of the program under test in the timed
//!   phase.
//! - `peak_rss_mb`: that process's peak RSS.
//! - `p50_ms`: median latency of one operation of the timed phase: one
//!   read when serving; a cold workload's operation is a whole `regen`
//!   run, so there it equals `wall_s`.

use std::collections::HashMap;
use std::process::Command;
use std::time::{Duration, Instant};

use bench::Artifact;
use spectrebench::{cell_value_json, Executor, Harness};

use crate::calib::{self, Calibrator};
use crate::golden::Golden;
use crate::http::{encode_segment, request, Conn};
use crate::proc::{run_measured, Daemon, Programs};
use crate::report::{metric, Metric, Tally};
use crate::stats::{median, quantile, shuffled};
use crate::workloads::{self as wl, Cold, Workload};

/// Runs one workload untraced and returns its end-to-end metrics.
pub fn run(
    w: Workload,
    progs: &Programs,
    golden: &Golden,
    seed: u64,
    seconds: u64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let mut cal = Calibrator::new();
    match w.cold() {
        Some(cold) => Ok(cold_run(progs, golden, &cold, &mut cal, tally)?.metrics),
        None => {
            let items = Items::for_workload(w, golden)?;
            let rounds = (0..wl::SERVE_ROUNDS)
                .map(|r| {
                    let seed = round_seed(seed, r);
                    serve_round(w, progs, &items, seed, seconds, &mut cal, tally)
                })
                .collect::<Result<Vec<_>, _>>()?;
            for r in &rounds {
                r.print_extras();
            }
            let raw: Vec<String> = serving_metrics(&rounds, false)
                .iter()
                .map(|m| format!("{} {:.6} {}", m.name, m.value, m.unit))
                .collect();
            println!("  unscaled: {}", raw.join(", "));
            Ok(serving_metrics(&rounds, true))
        }
    }
}

/// The rounds of one run must not replay one request order.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed.wrapping_mul(0x100_0000_01b3)
        .wrapping_add(round as u64)
}

/// Fails unless `regen figure2`/`figure3` run exactly the pinned CPUs.
fn check_pinned_cpus() -> Result<(), String> {
    if cpu_models::CpuId::ALL != wl::PAPER_CPUS {
        return Err(
            "CpuId::ALL differs from the pinned PAPER_CPUS: the cold workloads \
                    would no longer run what they name; update the workload explicitly"
                .to_string(),
        );
    }
    Ok(())
}

/// A cold run's measurements.
pub struct ColdRun {
    pub metrics: Vec<Metric>,
    /// The median wall of its `regen` runs, unscaled.
    pub wall: Duration,
}

pub fn cold_run(
    progs: &Programs,
    golden: &Golden,
    cold: &Cold,
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> Result<ColdRun, String> {
    let Cold {
        artifact,
        jobs,
        runs,
    } = *cold;
    check_pinned_cpus()?;
    let expected = golden.block(artifact)?;
    // A calibration before the set-up, after it, and after every run.
    let mut cals = vec![cal.measure()];
    let mut setups = Vec::new();
    for _ in 0..wl::COLD_SETUPS {
        let f = run_measured(Command::new(&progs.regen).arg("--list"))
            .map_err(|e| format!("cannot run regen --list: {e}"))?;
        let listed = String::from_utf8_lossy(&f.stdout)
            .lines()
            .any(|l| l.split_whitespace().next() == Some(artifact));
        tally.check(f.status == 0 && listed, || {
            format!(
                "regen --list: wait status {}, lists {artifact}: {listed}",
                f.status
            )
        });
        setups.push(f.wall.as_secs_f64());
    }
    cals.push(cal.measure());
    let (mut walls, mut cpus, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..runs {
        let f =
            run_measured(Command::new(&progs.regen).args(["--jobs", &jobs.to_string(), artifact]))
                .map_err(|e| format!("cannot run regen {artifact}: {e}"))?;
        tally.check(f.status == 0 && f.stdout == expected.as_bytes(), || {
            format!(
                "regen {artifact}: wait status {}, stdout {} its golden block; stderr:\n{}",
                f.status,
                if f.stdout == expected.as_bytes() {
                    "matches"
                } else {
                    "differs from"
                },
                String::from_utf8_lossy(&f.stderr)
            )
        });
        walls.push(f.wall.as_secs_f64());
        cpus.push(f.cpu.as_secs_f64());
        rss.push(f.peak_rss_kb as f64 / 1024.0);
        cals.push(cal.measure());
    }
    // Each phase at the speed the calibrations around it read.
    let k: Vec<f64> = cals.windows(2).map(|c| calib::scale(c[0], c[1])).collect();
    let scaled = |xs: &[f64]| {
        median(
            &xs.iter()
                .zip(&k[1..])
                .map(|(x, k)| x * k)
                .collect::<Vec<_>>(),
        )
    };
    let list = |xs: &[f64], digits: usize| {
        xs.iter()
            .map(|x| format!("{x:.digits$}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    let cal_ms: Vec<f64> = cals.iter().map(|c| c.as_secs_f64() * 1e3).collect();
    println!(
        "  unscaled: setup {:.6} s; runs' wall [{}] s, cpu [{}] s; calibrations [{}] ms",
        median(&setups),
        list(&walls, 4),
        list(&cpus, 4),
        list(&cal_ms, 2)
    );
    let wall = scaled(&walls);
    Ok(ColdRun {
        metrics: vec![
            metric("setup_s", median(&setups) * k[0], "s", setups.len()),
            metric("wall_s", wall, "s", runs),
            metric("cpu_s", scaled(&cpus), "s", runs),
            metric("peak_rss_mb", median(&rss), "MB", runs),
            metric("p50_ms", wall * 1e3, "ms", runs),
        ],
        wall: Duration::from_secs_f64(median(&walls)),
    })
}

/// The pinned items a serving workload reads, with the exact bytes
/// each must answer.
pub struct Items {
    pub paths: Vec<String>,
    requests: Vec<Vec<u8>>,
    expected: Vec<Vec<u8>>,
}

impl Items {
    pub fn for_workload(w: Workload, golden: &Golden) -> Result<Items, String> {
        let pairs: Vec<(String, Vec<u8>)> = match w {
            Workload::ServeDirect => wl::CHEAP_ARTIFACTS
                .iter()
                .map(|name| {
                    Ok((
                        format!("/artifact/{name}"),
                        golden.block(name)?.as_bytes().to_vec(),
                    ))
                })
                .collect::<Result<_, String>>()?,
            Workload::ServeProxy => {
                let values = expected_cells()?;
                wl::cells()
                    .into_iter()
                    .map(|(exp, key)| {
                        (
                            format!("/cell/{exp}/{}", encode_segment(key)),
                            values[key].clone(),
                        )
                    })
                    .collect()
            }
            Workload::Figure2Lebench | Workload::Figure3Octane => {
                unreachable!("cold workloads serve nothing")
            }
        };
        Ok(Items {
            requests: pairs.iter().map(|(p, _)| request("GET", p)).collect(),
            paths: pairs.iter().map(|(p, _)| p.clone()).collect(),
            expected: pairs.into_iter().map(|(_, e)| e).collect(),
        })
    }

    fn len(&self) -> usize {
        self.paths.len()
    }
}

/// Every pinned cell's JSON as `regend` must serve it, computed
/// in-process: the cheap artifacts' sweeps on a fresh executor, then
/// [`cell_bodies`].
fn expected_cells() -> Result<HashMap<&'static str, Vec<u8>>, String> {
    let exec = Executor::new(Harness::new()).with_jobs(wl::JOBS);
    let mut swept: Vec<&str> = Vec::new();
    for (exp, _) in wl::cells() {
        if swept.contains(&exp) {
            continue;
        }
        let artifact = Artifact::parse(exp).ok_or_else(|| format!("unknown experiment {exp}"))?;
        let out = artifact
            .regenerate(false, &exec)
            .map_err(|e| format!("{exp} failed in-process: {e}"))?;
        if out.degraded {
            return Err(format!("{exp} degraded in-process"));
        }
        swept.push(exp);
    }
    cell_bodies(&exec)
}

/// The `/cell` body of every pinned cell, from an executor whose cache
/// holds the cheap artifacts' sweeps.
pub fn cell_bodies(exec: &Executor) -> Result<HashMap<&'static str, Vec<u8>>, String> {
    wl::cells()
        .into_iter()
        .map(|(exp, key)| {
            let v = exec
                .cache_lookup(key, 0)
                .ok_or_else(|| format!("{exp} computed no cell {key:?}"))?;
            Ok((
                key,
                format!("{}\n", cell_value_json(key, 0, &v)).into_bytes(),
            ))
        })
        .collect()
}

/// One timed request: which item, when it was sent, when its reply
/// completed, and whether the reply was right.
#[derive(Clone, Copy)]
pub struct Sample {
    pub item: usize,
    pub sent: Instant,
    pub done: Instant,
    pub ok: bool,
}

impl Sample {
    fn ms(&self) -> f64 {
        self.done.duration_since(self.sent).as_secs_f64() * 1e3
    }
}

/// One serving round's measurements, unscaled, with the scale that takes
/// them to the nominal machine speed.
pub struct Round {
    pub setup: Duration,
    /// The scale of the round, set-up and timed phase alike: they lie
    /// between the previous round's calibration and this one's.
    pub scale: f64,
    /// The read phase, as (reads / window) x the median window's wall,
    /// plus the scrape burst as timed.
    pub wall: Duration,
    /// The read phase and scrape burst as timed end to end.
    pub raw_wall: Duration,
    pub cpu: Duration,
    pub peak_rss_kb: u64,
    pub reads: Vec<Sample>,
    pub scrapes_ms: Vec<f64>,
}

impl Round {
    fn print_extras(&self) {
        let lat: Vec<f64> = self.reads.iter().map(Sample::ms).collect();
        let mut line = format!(
            "  round (unscaled): {} reads in {:.4} s end to end ({:.4} s timed), cpu {:.2} s, \
             peak rss {:.1} MB, p90 {:.4} ms, p99 {:.4} ms, scale {:.4}",
            lat.len(),
            self.raw_wall.as_secs_f64(),
            self.wall.as_secs_f64(),
            self.cpu.as_secs_f64(),
            self.peak_rss_kb as f64 / 1024.0,
            quantile(&lat, 0.9),
            quantile(&lat, 0.99),
            self.scale
        );
        if !self.scrapes_ms.is_empty() {
            line += &format!(
                ", scrape median {:.3} ms (n={})",
                median(&self.scrapes_ms),
                self.scrapes_ms.len()
            );
        }
        println!("{line}");
    }
}

/// The end-to-end metrics of a serving run, at the nominal machine speed
/// or, with `scaled` false, as timed.
pub fn serving_metrics(rounds: &[Round], scaled: bool) -> Vec<Metric> {
    let per_round = |f: &dyn Fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let k = |scale: f64| if scaled { scale } else { 1.0 };
    let lat: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.reads.iter().map(|s| s.ms() * k(r.scale)))
        .collect();
    let n = rounds.len();
    vec![
        metric(
            "setup_s",
            per_round(&|r| r.setup.as_secs_f64() * k(r.scale)),
            "s",
            n,
        ),
        metric(
            "wall_s",
            per_round(&|r| r.wall.as_secs_f64() * k(r.scale)),
            "s",
            n,
        ),
        metric(
            "cpu_s",
            per_round(&|r| r.cpu.as_secs_f64() * k(r.scale)),
            "s",
            n,
        ),
        metric(
            "peak_rss_mb",
            per_round(&|r| r.peak_rss_kb as f64 / 1024.0),
            "MB",
            n,
        ),
        metric("p50_ms", median(&lat), "ms", lat.len()),
    ]
}

/// One serving round against a fresh `regend`: boot and warm every item
/// (set-up), then the fixed read phase in a seed-permuted order, then
/// (direct only) the scrape burst, then drain.
pub fn serve_round(
    w: Workload,
    progs: &Programs,
    items: &Items,
    seed: u64,
    seconds: u64,
    cal: &mut Calibrator,
    tally: &mut Tally,
) -> Result<Round, String> {
    let err = |what: &'static str| move |e: std::io::Error| format!("{}: {what}: {e}", w.name());
    let jobs = wl::JOBS.to_string();
    let (args, depth) = match w {
        Workload::ServeDirect => (vec!["--jobs", &jobs], wl::DIRECT_DEPTH),
        _ => (vec!["--jobs", &jobs, "--shards", "2"], wl::PROXY_DEPTH),
    };
    let clients = wl::CLIENTS;
    let reads =
        (wl::READS_PER_SECOND * seconds / wl::SERVE_ROUNDS as u64).max((depth * clients) as u64);

    // The previous round's closing calibration, or the calibrator's first.
    let before = cal.latest();
    let t0 = Instant::now();
    let daemon = Daemon::start(&progs.regend, &args).map_err(err("cannot start regend"))?;
    let mut conn = Conn::open(&daemon.addr).map_err(err("cannot connect"))?;
    for (path, expected) in items.paths.iter().zip(&items.expected) {
        let r = conn.get(path).map_err(err("warm-up"))?;
        tally.check(r.is(expected), || {
            format!("warm-up {path}: status {}", r.status)
        });
    }
    // The read phase opens its own connections, at most one per core.
    drop(conn);
    let setup = t0.elapsed();

    let order = shuffled(&(0..items.len()).collect::<Vec<_>>(), seed);
    let cpu0 = daemon.cpu().map_err(err("reading CPU"))?;
    let t1 = Instant::now();
    let lanes = closed_loop(&daemon.addr, items, &order, reads as usize, clients, depth);
    let read_phase = t1.elapsed();
    let mut scrapes_ms = Vec::new();
    if w == Workload::ServeDirect {
        let mut conn = Conn::open(&daemon.addr).map_err(err("cannot connect"))?;
        for _ in 0..wl::DIRECT_SCRAPES {
            let s = Instant::now();
            let r = conn.get("/metrics").map_err(err("scrape"))?;
            scrapes_ms.push(s.elapsed().as_secs_f64() * 1e3);
            tally.check(r.status == 200 && !r.body.is_empty(), || {
                format!("/metrics: status {}", r.status)
            });
        }
    }
    let raw_wall = t1.elapsed();
    let cpu = daemon
        .cpu()
        .map_err(err("reading CPU"))?
        .saturating_sub(cpu0);
    let peak_rss_kb = daemon.peak_rss_kb().map_err(err("reading RSS"))?;
    let after = cal.measure();
    daemon.stop().map_err(err("drain"))?;

    // Outside the timed phase: tally every read, and time the read phase
    // by its median window of consecutive reads on one connection, so a
    // burst of host preemption in one window does not decide it.
    let mut samples = Vec::with_capacity(reads as usize);
    let mut windows = Vec::new();
    for lane in lanes {
        let lane = lane.map_err(|e| format!("{}: read phase: {e}", w.name()))?;
        windows.extend(lane.chunks_exact(wl::WINDOW).map(|c| {
            c[wl::WINDOW - 1]
                .done
                .duration_since(c[0].sent)
                .as_secs_f64()
        }));
        for s in lane {
            tally.check(s.ok, || {
                format!("read {}: wrong or failed reply", items.paths[s.item])
            });
            samples.push(s);
        }
    }
    let reads_per_lane = reads as f64 / clients as f64;
    let read_wall = if windows.is_empty() {
        read_phase
    } else {
        Duration::from_secs_f64(median(&windows) * reads_per_lane / wl::WINDOW as f64)
    };
    let wall = read_wall + (raw_wall - read_phase);
    Ok(Round {
        setup,
        scale: calib::scale(before, after),
        wall,
        raw_wall,
        cpu,
        peak_rss_kb,
        reads: samples,
        scrapes_ms,
    })
}

/// The read phase: `clients` keep-alive connections, one thread each,
/// each sending `depth` pipelined requests and waiting for all their
/// replies before sending more (a closed loop). Client `k` walks `order`
/// from its own offset. Returns each client's samples.
fn closed_loop(
    addr: &str,
    items: &Items,
    order: &[usize],
    reads: usize,
    clients: usize,
    depth: usize,
) -> Vec<std::io::Result<Vec<Sample>>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|k| {
                scope.spawn(move || -> std::io::Result<Vec<Sample>> {
                    let share = reads / clients + usize::from(k < reads % clients);
                    let mut next = k * order.len() / clients;
                    let mut conn = Conn::open(addr)?;
                    let mut out = Vec::with_capacity(share);
                    let mut batch = Vec::new();
                    let mut idxs = Vec::with_capacity(depth);
                    while out.len() < share {
                        batch.clear();
                        idxs.clear();
                        for _ in 0..depth.min(share - out.len()) {
                            let idx = order[next % order.len()];
                            next += 1;
                            batch.extend_from_slice(&items.requests[idx]);
                            idxs.push(idx);
                        }
                        let sent = Instant::now();
                        let mut broken = conn.send(&batch).is_err();
                        for &idx in &idxs {
                            let reply = if broken { None } else { conn.recv().ok() };
                            broken |= reply.is_none();
                            let ok = reply.is_some_and(|r| r.is(&items.expected[idx]));
                            out.push(Sample {
                                item: idx,
                                sent,
                                done: Instant::now(),
                                ok,
                            });
                        }
                        // A transport error fails the batch's remaining
                        // requests; carry on over a new connection.
                        if broken {
                            conn = Conn::open(addr)?;
                        }
                    }
                    Ok(out)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}
