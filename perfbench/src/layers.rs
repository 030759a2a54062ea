//! The traced run: spans around calls into each module's public
//! functions, and the per-layer metrics they give.
//!
//! A traced run does three things:
//! 1. runs its workload once untraced, as the end-to-end run does;
//! 2. runs the workload traced: a cold workload runs its figure
//!    in-process under one span, a serving workload runs one more round
//!    with a span per read. `trace.overhead_s` is traced minus untraced
//!    `wall_s`;
//! 3. runs the layer probes, the same calls on every workload, so each
//!    layer's numbers are comparable across workloads and commits.
//!
//! Where each metric comes from, and what it should move:
//! - `workloads.lebench.<op>_ms`, `.suite_ms`, `.fork_share`:
//!   `lebench::run_op` / `run_suite`, Broadwell, default boot. Moves
//!   `cpu_s`/`wall_s` of figure2_lebench, not of figure3_octane.
//! - `sim_kernel.boot_ms`: `Kernel::boot`, mean over the 8 CPUs. Moves
//!   figure2_lebench `cpu_s` by about 1% at most.
//! - `js_engine.octane.<bench>_ms`, `js_engine.jit_compile_ms`:
//!   `octane::run_bench` and `Jit::compile`, Broadwell, full JS
//!   mitigations. Moves figure3_octane, not figure2_lebench.
//! - `uarch.*`, `core.executor.*`: deltas of `pmc::global::snapshot()`
//!   and `Executor::stats()` around the workload's own simulation (the
//!   in-process figure for the cold workloads; for the serving
//!   workloads, the warm-up of the 15 cheap artifacts on an in-process
//!   `Core`). The counts repeat exactly in a speed-only change;
//!   `idle_s` (plan time x jobs - cell time) moves `wall_s`, not
//!   `cpu_s`.
//! - `core.obs.*`: `EventBus::emit`, and `EventBus::snapshot` +
//!   `prometheus_text` on a warmed `Core` after 10k and 100k routed
//!   cache hits. Moves serve_direct `cpu_s`, `wall_s`, `peak_rss_mb`.
//! - `serve.http.parse_ns`, `serve.core.route_ns`: `RequestParser` and
//!   `Core::route` on a warmed `Core`. Moves serve_direct `cpu_s` and
//!   `p50_ms`.
//! - `serve.proxy.execute_us`, `serve.shard.fetch_us`,
//!   `core.crc32_ns_per_kb`: `Core::execute` of a `/cell` read on a proxy
//!   `Core`, `Cluster::fetch`, `spectrebench::crc32`. Moves serve_proxy,
//!   not serve_direct.
//! - `serve.cache_hit_ratio`, `serve.shard.*`, `serve.rejected_429`,
//!   `serve.scrape_ms`, `client.p90_ms`, `client.p99_ms`: a proxy
//!   `Server` over two shards, in-process, read over HTTP by this
//!   benchmark's client; the counters come from its own `/metrics`.
//!   Failovers and 429s stay at 0.
//! - `trace.self_s.<module>`: each module's self time in the spans.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use bench::Artifact;
use cpu_models::CpuId;
use js_engine::jit::Jit;
use js_engine::{octane, JsMitigations};
use serve::core::{Action, Core};
use serve::{boot_shards, proxy_config, Request, RequestParser, Server, ServerConfig};
use sim_kernel::{userlib, BootParams, Kernel};
use spectrebench::experiments::{figure2, figure3};
use spectrebench::obs::metrics::prometheus_text;
use spectrebench::{crc32, EventBus, EventKind, Executor, Harness, HarnessStats};
use uarch::pmc::global as pmc;
use workloads::lebench;

use crate::calib::Calibrator;
use crate::e2e::{self, Items};
use crate::golden::Golden;
use crate::http::{encode_segment, request, Conn};
use crate::proc::{cpu_time, target_dir, Programs};
use crate::report::{metric, Metric, Tally};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{self as wl, Cold, Workload};

/// Runs the traced run of `w` and returns every per-layer metric.
pub fn traced(
    w: Workload,
    progs: &Programs,
    golden: &Golden,
    seed: u64,
    seconds: u64,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let run_id = seed
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos() as u64);
    let mut t = Tracer::new(run_id);
    let mut m = Vec::new();
    let mut cal = Calibrator::new();
    let (overhead, workload_sim) = match w.cold() {
        Some(cold) => {
            let untraced = e2e::cold_run(progs, golden, &cold, &mut cal, tally)?.wall;
            let (traced, sim) = t.span("perfbench", "workload", |t| {
                cold_traced(t, golden, &cold, tally)
            })?;
            (traced.as_secs_f64() - untraced.as_secs_f64(), Some(sim))
        }
        None => {
            let items = Items::for_workload(w, golden)?;
            let round = |r, cal: &mut Calibrator, tally: &mut Tally| {
                let seed = e2e::round_seed(seed, r);
                e2e::serve_round(w, progs, &items, seed, seconds, cal, tally)
            };
            let untraced = round(0, &mut cal, tally)?;
            let traced = t.span("perfbench", "workload", |t| {
                let round = round(1, &mut cal, tally)?;
                // One span per read, from the timestamps the client takes
                // on every run: recording them adds nothing to the round.
                for s in &round.reads {
                    t.record("serve", &items.paths[s.item], s.sent, s.done);
                }
                Ok::<_, String>(round)
            })?;
            (
                traced.wall.as_secs_f64() - untraced.wall.as_secs_f64(),
                None,
            )
        }
    };
    let warm_sim = t.span("perfbench", "probes", |t| probes(t, golden, tally, &mut m))?;
    m.extend(workload_sim.unwrap_or(warm_sim).metrics());
    m.push(metric("trace.overhead_s", overhead, "s", 2));
    for (module, d) in t.self_times() {
        m.push(metric(
            format!("trace.self_s.{module}"),
            d.as_secs_f64(),
            "s",
            1,
        ));
    }
    let path = target_dir()
        .join("perfbench")
        .join(format!("spans-{}.jsonl", w.name()));
    t.write_jsonl(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("  spans of run {} written to {}", t.run, path.display());
    Ok(m)
}

/// The simulation work of one in-process pass.
struct SimPass {
    insts: (u64, u64, u64),
    stats: HarnessStats,
    cpu: Duration,
    jobs: usize,
}

impl SimPass {
    /// Measures `f`'s simulation work on `exec`.
    fn measure<T>(exec: &Executor, f: impl FnOnce() -> T) -> (T, SimPass) {
        let (i0, s0, c0) = (
            pmc::snapshot(),
            exec.stats(),
            cpu_time("self").unwrap_or_default(),
        );
        let out = f();
        let (i1, s1, c1) = (
            pmc::snapshot(),
            exec.stats(),
            cpu_time("self").unwrap_or_default(),
        );
        let insts = (i1.0 - i0.0, i1.1 - i0.1, i1.2 - i0.2);
        (
            out,
            SimPass {
                insts,
                stats: s1.since(&s0),
                cpu: c1.saturating_sub(c0),
                jobs: exec.jobs(),
            },
        )
    }

    fn metrics(&self) -> Vec<Metric> {
        let (insts, transient, windows) = self.insts;
        let cell_s = self.stats.sim_time.as_secs_f64();
        let plan_s = self.stats.plan_time.as_secs_f64();
        let minst = (insts + transient) as f64 / 1e6 / self.cpu.as_secs_f64().max(1e-9);
        vec![
            metric("uarch.insts", insts as f64, "count", 1),
            metric("uarch.transient_insts", transient as f64, "count", 1),
            metric("uarch.windows", windows as f64, "count", 1),
            metric("uarch.minst_per_cpu_s", minst, "Minst/s", 1),
            metric(
                "core.executor.cells",
                self.stats.cells_run as f64,
                "count",
                1,
            ),
            metric("core.executor.cell_s", cell_s, "s", 1),
            metric("core.executor.plan_s", plan_s, "s", 1),
            metric(
                "core.executor.idle_s",
                plan_s * self.jobs as f64 - cell_s,
                "s",
                1,
            ),
        ]
    }
}

/// The cold workload's figure, in-process under one span, checked
/// against its golden block.
fn cold_traced(
    t: &mut Tracer,
    golden: &Golden,
    cold: &Cold,
    tally: &mut Tally,
) -> Result<(Duration, SimPass), String> {
    let artifact = cold.artifact;
    let exec = Executor::new(Harness::new()).with_jobs(cold.jobs);
    let start = Instant::now();
    let (rendered, sim) = SimPass::measure(&exec, || {
        t.span(
            "core",
            format!("experiments::{artifact}::run"),
            |_| match artifact {
                "figure2" => figure2::run(&exec, &wl::PAPER_CPUS, false)
                    .map(|f| (Artifact::Figure2, figure2::render(&f))),
                _ => figure3::run(&exec, &wl::PAPER_CPUS, false)
                    .map(|f| (Artifact::Figure3, figure3::render(&f))),
            },
        )
    });
    let wall = start.elapsed();
    let (which, text) = rendered.map_err(|e| format!("{artifact} failed in-process: {e}"))?;
    let block = format!("== {} ==\n{text}\n", which.caption());
    let expected = golden.block(artifact)?;
    tally.check(block == expected, || {
        format!("in-process {artifact} differs from its golden block")
    });
    Ok((wall, sim))
}

/// Every layer probe, in a fixed order. Returns the simulation work of
/// warming the 15 cheap artifacts, which the serving workloads report.
fn probes(
    t: &mut Tracer,
    golden: &Golden,
    tally: &mut Tally,
    m: &mut Vec<Metric>,
) -> Result<SimPass, String> {
    probe_lebench(t, m);
    probe_boot(t, m);
    probe_js(t, m);
    let (warm, cells) = probe_direct_core(t, golden, tally, m)?;
    probe_obs_emit(t, m);
    probe_crc(t, m);
    probe_proxy(t, golden, &cells, tally, m)?;
    Ok(warm)
}

const REPS: usize = 3;
/// LEBench repetitions: its ops are noisier than the rest.
const LEBENCH_REPS: usize = 5;

fn probe_lebench(t: &mut Tracer, m: &mut Vec<Metric>) {
    let model = CpuId::Broadwell.model();
    let params = BootParams::default();
    t.span("perfbench", "lebench", |t| {
        for _ in 0..LEBENCH_REPS {
            t.span("workloads", "lebench::run_suite", |_| {
                black_box(lebench::run_suite(&model, &params))
            });
            for op in wl::LEBENCH_OPS {
                t.span(
                    "workloads",
                    format!("lebench::run_op {}", op.name()),
                    |_| black_box(lebench::run_op(&model, &params, op)),
                );
            }
        }
    });
    let mut ops_ms = HashMap::new();
    for op in wl::LEBENCH_OPS {
        let ms = median(&t.durations_ms(&format!("lebench::run_op {}", op.name())));
        ops_ms.insert(op.name(), ms);
        m.push(metric(
            format!("workloads.lebench.{}_ms", op.name()),
            ms,
            "ms",
            LEBENCH_REPS,
        ));
    }
    let suite = median(&t.durations_ms("lebench::run_suite"));
    m.push(metric(
        "workloads.lebench.suite_ms",
        suite,
        "ms",
        LEBENCH_REPS,
    ));
    let fork = ops_ms["fork"] + ops_ms["big-fork"];
    m.push(metric(
        "workloads.lebench.fork_share",
        fork / suite,
        "ratio",
        LEBENCH_REPS,
    ));
    let sum: f64 = ops_ms.values().sum();
    println!("  lebench: the 19 ops sum to {sum:.3} ms against a {suite:.3} ms suite");
}

fn probe_boot(t: &mut Tracer, m: &mut Vec<Metric>) {
    const ROUNDS: usize = 10;
    let params = BootParams::default();
    let models: Vec<_> = wl::PAPER_CPUS
        .iter()
        .map(|c| (c.microarch(), c.model()))
        .collect();
    t.span("perfbench", "boot", |t| {
        for _ in 0..ROUNDS {
            for (name, model) in &models {
                let model = model.clone();
                t.span("sim-kernel", format!("Kernel::boot {name}"), |_| {
                    black_box(Kernel::boot(model, &params))
                });
            }
        }
    });
    let all: Vec<f64> = models
        .iter()
        .flat_map(|(name, _)| t.durations_ms(&format!("Kernel::boot {name}")))
        .collect();
    m.push(metric(
        "sim_kernel.boot_ms",
        all.iter().sum::<f64>() / all.len() as f64,
        "ms",
        all.len(),
    ));
}

fn probe_js(t: &mut Tracer, m: &mut Vec<Metric>) {
    let model = CpuId::Broadwell.model();
    let params = BootParams::default();
    let engines: Vec<_> = wl::OCTANE_BENCHES
        .iter()
        .map(|b| (b.name(), b.build()))
        .collect();
    let mut compile_ms = Vec::new();
    t.span("perfbench", "octane", |t| {
        for _ in 0..REPS {
            for bench in wl::OCTANE_BENCHES {
                t.span(
                    "js-engine",
                    format!("octane::run_bench {}", bench.name()),
                    |_| {
                        black_box(octane::run_bench(
                            bench,
                            &model,
                            &params,
                            JsMitigations::full(),
                        ))
                    },
                );
            }
            let start = Instant::now();
            for (name, engine) in &engines {
                t.span("js-engine", format!("Jit::compile {name}"), |_| {
                    black_box(
                        Jit::new(engine, JsMitigations::full(), userlib::data_base())
                            .compile(|_| {}),
                    )
                });
            }
            compile_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    });
    for bench in wl::OCTANE_BENCHES {
        let ms = median(&t.durations_ms(&format!("octane::run_bench {}", bench.name())));
        m.push(metric(
            format!("js_engine.octane.{}_ms", bench.name()),
            ms,
            "ms",
            REPS,
        ));
    }
    m.push(metric(
        "js_engine.jit_compile_ms",
        median(&compile_ms),
        "ms",
        REPS,
    ));
}

/// Parses one request the way the server does.
fn parse(path: &str) -> Result<Request, String> {
    let mut p = RequestParser::new();
    p.push(&request("GET", path));
    match p.next_request() {
        Ok(Some(r)) => Ok(r),
        other => Err(format!(
            "request for {path} did not parse: {:?}",
            other.err()
        )),
    }
}

/// A plain (direct) `Core`, warmed with the 15 cheap artifacts, for the
/// route/parse/obs probes. Its warm-up is the serving workloads'
/// simulation; its cell cache gives the expected cell bodies.
fn probe_direct_core(
    t: &mut Tracer,
    golden: &Golden,
    tally: &mut Tally,
    m: &mut Vec<Metric>,
) -> Result<(SimPass, HashMap<&'static str, Vec<u8>>), String> {
    const ROUTES: usize = 100_000;
    const CHUNK: usize = 10_000;
    let cfg = ServerConfig {
        jobs: Some(wl::JOBS),
        ..ServerConfig::default()
    };
    let core = Core::new(cfg).map_err(|e| format!("cannot build a Core: {e}"))?;
    let paths: Vec<String> = wl::CHEAP_ARTIFACTS
        .iter()
        .map(|a| format!("/artifact/{a}"))
        .collect();
    let requests = paths
        .iter()
        .map(|p| parse(p))
        .collect::<Result<Vec<_>, _>>()?;

    let ((), warm) = SimPass::measure(&core.exec, || {
        t.span("perfbench", "warm direct core", |t| {
            for ((name, path), req) in wl::CHEAP_ARTIFACTS.iter().zip(&paths).zip(&requests) {
                let resp = t.span("serve", format!("Core::execute {path}"), |_| {
                    match core.route(req, 0).1 {
                        Action::Slow(work) => core.execute(&work, path),
                        Action::Done(resp) | Action::StartDrain(resp) => resp,
                    }
                });
                let expected = golden.block(name).unwrap_or_default();
                tally.check(
                    resp.status == 200 && resp.body.as_bytes() == expected.as_bytes(),
                    || format!("in-process {path}: status {}", resp.status),
                );
            }
        })
    });
    let cells = e2e::cell_bodies(&core.exec)?;

    let raw = request("GET", &paths[0]);
    let mut parser = RequestParser::new();
    t.span("perfbench", "parse", |t| {
        for _ in 0..ROUTES / CHUNK {
            t.span("serve", "RequestParser ×10000", |_| {
                for _ in 0..CHUNK {
                    parser.push(&raw);
                    black_box(parser.next_request().ok().flatten());
                }
            });
        }
    });
    let parse_ms: f64 = t.durations_ms("RequestParser ×10000").iter().sum();
    m.push(metric(
        "serve.http.parse_ns",
        parse_ms * 1e6 / ROUTES as f64,
        "ns",
        ROUTES,
    ));

    let events0 = core.bus.len();
    let folds = |t: &mut Tracer, label: &str| {
        let name = format!("prometheus_text after {label}");
        for _ in 0..REPS {
            t.span("core", name.as_str(), |_| {
                black_box(prometheus_text(&core.bus.snapshot(), &core.exec.stats()))
            });
        }
        median(&t.durations_ms(&name))
    };
    let mut fold_10k = 0.0;
    let mut hits = 0usize;
    t.span("perfbench", "route", |t| {
        for chunk in 0..ROUTES / CHUNK {
            t.span("serve", "Core::route ×10000", |_| {
                for i in 0..CHUNK {
                    if let Action::Done(resp) = core.route(&requests[i % requests.len()], 0).1 {
                        hits += usize::from(resp.status == 200);
                        black_box(resp);
                    }
                }
            });
            if chunk == 0 {
                fold_10k = folds(t, "10k");
            }
        }
    });
    tally.check(hits == ROUTES, || {
        format!(
            "{} of {ROUTES} routed reads missed the cache",
            ROUTES - hits
        )
    });
    let route_ms: f64 = t.durations_ms("Core::route ×10000").iter().sum();
    m.push(metric(
        "serve.core.route_ns",
        route_ms * 1e6 / ROUTES as f64,
        "ns",
        ROUTES,
    ));
    let per_req = (core.bus.len() - events0) as f64 / ROUTES as f64;
    let fold_100k = t.span("perfbench", "fold", |t| folds(t, "100k"));
    m.push(metric("core.obs.events_per_req", per_req, "count", ROUTES));
    m.push(metric("core.obs.fold_10k_ms", fold_10k, "ms", REPS));
    m.push(metric("core.obs.fold_100k_ms", fold_100k, "ms", REPS));
    Ok((warm, cells))
}

fn probe_obs_emit(t: &mut Tracer, m: &mut Vec<Metric>) {
    const EMITS: usize = 200_000;
    const CHUNK: usize = 50_000;
    let bus = EventBus::new();
    t.span("perfbench", "emit", |t| {
        for _ in 0..EMITS / CHUNK {
            t.span("core", "EventBus::emit ×50000", |_| {
                for _ in 0..CHUNK {
                    bus.emit(
                        "table1",
                        "/artifact/table1",
                        "",
                        0,
                        EventKind::ArtifactCacheHit,
                    );
                }
            });
        }
    });
    let ms: f64 = t.durations_ms("EventBus::emit ×50000").iter().sum();
    m.push(metric(
        "core.obs.emit_ns",
        ms * 1e6 / EMITS as f64,
        "ns",
        EMITS,
    ));
}

fn probe_crc(t: &mut Tracer, m: &mut Vec<Metric>) {
    const KB: usize = 64;
    const PASSES: usize = 200;
    let buf: Vec<u8> = (0..KB * 1024).map(|i| (i * 31 % 251) as u8).collect();
    t.span("core", "crc32 ×200 of 64 KB", |_| {
        for _ in 0..PASSES {
            black_box(crc32(black_box(&buf)));
        }
    });
    let ms = t.durations_ms("crc32 ×200 of 64 KB")[0];
    m.push(metric(
        "core.crc32_ns_per_kb",
        ms * 1e6 / (KB * PASSES) as f64,
        "ns/KB",
        PASSES,
    ));
}

/// Sums every sample of `family` in a Prometheus exposition whose label
/// set contains `label` (when given).
fn family_sum(text: &str, family: &str, label: Option<&str>) -> f64 {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .filter(|(series, _)| {
            let name = series.split('{').next().unwrap_or(series);
            name == family && label.is_none_or(|lb| series.contains(lb))
        })
        .filter_map(|(_, v)| v.parse::<f64>().ok())
        .fold(0.0, |a, b| a + b)
}

/// An in-process proxy over two shards: `Core::execute` and
/// `Cluster::fetch` timings, then HTTP reads through a proxy `Server`
/// for the client tails and the wire counters.
fn probe_proxy(
    t: &mut Tracer,
    golden: &Golden,
    cells: &HashMap<&'static str, Vec<u8>>,
    tally: &mut Tally,
    m: &mut Vec<Metric>,
) -> Result<(), String> {
    const PASSES: usize = 4;
    const SCRAPES: usize = 5;
    let err = |what: &'static str| move |e: std::io::Error| format!("proxy probe: {what}: {e}");
    let base = ServerConfig {
        addr: "127.0.0.1:0".into(),
        jobs: Some(wl::JOBS),
        ..ServerConfig::default()
    };
    let shards = boot_shards(&base, 2).map_err(err("cannot boot shards"))?;
    let cfg = proxy_config(&base, shards.iter().map(|s| s.addr.clone()).collect());
    let server = Server::bind(cfg.clone()).map_err(err("cannot bind the proxy"))?;
    let addr = server.local_addr().to_string();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let result = (|| -> Result<(), String> {
        let mut reads: Vec<(String, Vec<u8>)> = wl::cells()
            .into_iter()
            .map(|(exp, key)| {
                (
                    format!("/cell/{exp}/{}", encode_segment(key)),
                    cells[key].clone(),
                )
            })
            .collect();
        let mut conn = Conn::open(&addr).map_err(err("cannot connect"))?;
        // Warm-up: each shard sweeps the artifacts whose cells it owns.
        for (path, expected) in &reads {
            let r = conn.get(path).map_err(err("warm-up"))?;
            tally.check(r.is(expected), || {
                format!("proxy warm-up {path}: status {}", r.status)
            });
        }
        for name in wl::CHEAP_ARTIFACTS {
            reads.push((
                format!("/artifact/{name}"),
                golden.block(name)?.as_bytes().to_vec(),
            ));
        }
        let before = conn.get("/metrics").map_err(err("scrape"))?.body;
        let mut lat = Vec::new();
        t.span("perfbench", "proxied reads", |t| -> Result<(), String> {
            for _ in 0..PASSES {
                for (path, expected) in &reads {
                    let sent = Instant::now();
                    let r = conn.get(path).map_err(err("read"))?;
                    let done = Instant::now();
                    t.record("serve", path, sent, done);
                    lat.push(done.duration_since(sent).as_secs_f64() * 1e3);
                    tally.check(r.is(expected), || {
                        format!("proxied {path}: status {}", r.status)
                    });
                }
            }
            Ok(())
        })?;
        let mut scrapes = Vec::new();
        let mut after = Vec::new();
        for _ in 0..SCRAPES {
            let sent = Instant::now();
            let r = conn.get("/metrics").map_err(err("scrape"))?;
            let done = Instant::now();
            t.record("serve", "/metrics", sent, done);
            scrapes.push(done.duration_since(sent).as_secs_f64() * 1e3);
            tally.check(r.status == 200, || {
                format!("proxy /metrics: status {}", r.status)
            });
            if after.is_empty() {
                after = r.body;
            }
        }
        let (before, after) = (
            String::from_utf8_lossy(&before),
            String::from_utf8_lossy(&after),
        );
        let delta =
            |family: &str| family_sum(&after, family, None) - family_sum(&before, family, None);
        let hit_ratio =
            delta("regend_artifact_cache_hits_total") / delta("regend_requests_total").max(1.0);
        m.push(metric(
            "serve.cache_hit_ratio",
            hit_ratio,
            "ratio",
            lat.len(),
        ));
        m.push(metric(
            "serve.shard.retries",
            family_sum(&after, "regend_shard_fetches_total", Some("ok=\"false\"")),
            "count",
            1,
        ));
        m.push(metric(
            "serve.shard.failovers",
            family_sum(&after, "regend_shard_failovers_total", None),
            "count",
            1,
        ));
        m.push(metric(
            "serve.rejected_429",
            family_sum(&after, "regend_rejected_total", None),
            "count",
            1,
        ));
        m.push(metric(
            "serve.scrape_ms",
            median(&scrapes),
            "ms",
            scrapes.len(),
        ));
        m.push(metric(
            "client.p90_ms",
            quantile(&lat, 0.9),
            "ms",
            lat.len(),
        ));
        m.push(metric(
            "client.p99_ms",
            quantile(&lat, 0.99),
            "ms",
            lat.len(),
        ));

        // The hop itself: a proxy Core routing /cell reads to their owners.
        let core = Core::new(cfg.clone()).map_err(err("cannot build a proxy Core"))?;
        let cluster = core.cluster.as_ref().ok_or("a proxy Core has a cluster")?;
        t.span("perfbench", "proxy hop", |t| -> Result<(), String> {
            for (exp, key) in wl::cells() {
                let path = format!("/cell/{exp}/{}", encode_segment(key));
                let req = parse(&path)?;
                let resp = t.span("serve", "Core::execute /cell", |_| {
                    match core.route(&req, 0).1 {
                        Action::Slow(work) => core.execute(&work, &req.path),
                        Action::Done(resp) | Action::StartDrain(resp) => resp,
                    }
                });
                tally.check(
                    resp.status == 200 && resp.body.as_bytes() == cells[key],
                    || format!("proxy Core::execute {path}: status {}", resp.status),
                );
                let hop = format!("{path}?seed=0&quick=0");
                let owner = cluster.owner(key);
                let fetched = t.span("serve", "Cluster::fetch", |_| {
                    cluster.fetch(&core.bus, owner, &hop)
                });
                tally.check(
                    fetched
                        .as_ref()
                        .is_ok_and(|r| r.status == 200 && r.body == cells[key]),
                    || {
                        format!(
                            "Cluster::fetch {hop}: {:?}",
                            fetched.as_ref().map(|r| r.status)
                        )
                    },
                );
            }
            Ok(())
        })?;
        let us = |name: &str| median(&t.durations_ms(name)) * 1e3;
        let n = wl::cells().len();
        m.push(metric(
            "serve.proxy.execute_us",
            us("Core::execute /cell"),
            "us",
            n,
        ));
        m.push(metric(
            "serve.shard.fetch_us",
            us("Cluster::fetch"),
            "us",
            n,
        ));
        Ok(())
    })();

    handle.drain();
    let proxy = join.join().map_err(|_| "proxy server panicked".to_string());
    for s in shards {
        s.handle.drain();
        let _ = s.join.join();
    }
    result?;
    proxy?.map_err(err("proxy server"))?;
    Ok(())
}
