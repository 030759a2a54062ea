//! `regend` — serves the paper's regenerated artifacts over HTTP.
//!
//! ```text
//! cargo run --release -p serve --bin regend                    # 127.0.0.1:7979
//! cargo run --release -p serve --bin regend -- --addr 0.0.0.0:8080
//! cargo run --release -p serve --bin regend -- --quick --workers 8 --queue 256
//! cargo run --release -p serve --bin regend -- --deadline-ms 30000
//! curl http://127.0.0.1:7979/artifact/figure2
//! curl http://127.0.0.1:7979/results > results.txt
//! ```
//!
//! Runs until SIGTERM (or `POST /shutdown`), drains the admitted
//! queue, prints the run's counters, and exits 0. Exit code 2 means
//! bad usage.

use std::process::ExitCode;
use std::time::Duration;

use serve::{
    boot_shards, install_sigterm_hook, proxy_config, run_cluster_campaign, Server, ServerConfig,
    ClusterCampaignConfig,
};
use spectrebench::{atomic_write, jobs_from_env, parse_jobs, FaultPlan, FaultPoint, NetFaultPlan};

fn usage(to_stdout: bool) {
    let text = "usage: regend [options]\n\
         \x20      regend campaign [--shards <n>] [--full] [--jobs <n>]\n\
         \x20                      [--report <f>] [--check <baseline>]\n\
         \n\
         options:\n\
         \x20 --addr <ip:port>    bind address (default 127.0.0.1:7979; port 0\n\
         \x20                     picks a free port and prints it)\n\
         \x20 --workers <n>       request worker threads (default 4)\n\
         \x20 --queue <n>         admission queue capacity; a full queue answers\n\
         \x20                     429 + Retry-After (default 128)\n\
         \x20 --quick             serve the fast workload variants by default\n\
         \x20                     (clients can override per-request with ?quick=)\n\
         \x20 --jobs <n>          executor worker threads per computation\n\
         \x20                     (default: REGEN_JOBS, else machine parallelism)\n\
         \x20 --retries <n>       attempts per measurement cell (default 3)\n\
         \x20 --deadline-ms <n>   default per-request deadline; expired requests\n\
         \x20                     answer 504 (clients can set ?deadline_ms=)\n\
         \x20 --idle-timeout-ms <n>  reap keep-alive connections that make no\n\
         \x20                     progress for this long (default 30000)\n\
         \x20 --journal <log>     journal completed cells to <log> (also reused\n\
         \x20                     on startup, like regen --resume)\n\
         \x20 --inject <spec>     deterministic fault plan (same syntax as\n\
         \x20                     regen --inject; for testing recovery)\n\
         \n\
         cluster options:\n\
         \x20 --shards <n>        boot an in-process cluster: n shard servers on\n\
         \x20                     ephemeral ports plus this proxy front end;\n\
         \x20                     content keys are consistent-hashed across shards\n\
         \x20 --shard-addrs <a,b> proxy an existing cluster at these addresses\n\
         \x20                     (mutually exclusive with --shards)\n\
         \x20 --net-inject <spec> deterministic network faults on the proxy<->shard\n\
         \x20                     hop: kind=drop|stall|truncate|corrupt-byte,\n\
         \x20                     shard=<n>|any, times=<n>|forever, path=<substr>,\n\
         \x20                     seed=<n>, prob=<p>\n\
         \x20 --probe-interval-ms <n>  shard health probe cadence (default 100)\n\
         \n\
         campaign: enumerate the (shard x net-fault x timing) space, boot a\n\
         \x20  cluster per coordinate, classify client-visible outcomes; exits 1\n\
         \x20  on any silent corruption, 1 on --check baseline drift\n\
         \n\
         endpoints: /healthz /metrics /artifacts /artifact/<name>\n\
         \x20          /results /cell/<experiment>/<key> POST /shutdown\n";
    if to_stdout {
        print!("{text}");
    } else {
        eprint!("{text}");
    }
}

fn parse_args(args: &[String]) -> Result<(ServerConfig, Option<usize>), String> {
    let mut cfg = ServerConfig::default();
    let mut shards: Option<usize> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |flag: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "--quick" => cfg.quick = true,
            "--workers" => {
                let v = value("--workers")?;
                let n: usize = v.parse().map_err(|_| format!("bad --workers value: {v}"))?;
                if n == 0 {
                    return Err("--workers must be at least 1".to_string());
                }
                cfg.workers = n;
            }
            "--queue" => {
                let v = value("--queue")?;
                let n: usize = v.parse().map_err(|_| format!("bad --queue value: {v}"))?;
                if n == 0 {
                    return Err("--queue must be at least 1".to_string());
                }
                cfg.queue_capacity = n;
            }
            "--jobs" => {
                let v = value("--jobs")?;
                cfg.jobs = Some(parse_jobs(&v).map_err(|e| format!("--jobs {e}"))?);
            }
            "--retries" => {
                let v = value("--retries")?;
                cfg.retries = Some(v.parse().map_err(|_| format!("bad --retries value: {v}"))?);
            }
            "--deadline-ms" => {
                let v = value("--deadline-ms")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --deadline-ms value: {v}"))?;
                cfg.default_deadline = Some(Duration::from_millis(ms));
            }
            "--idle-timeout-ms" => {
                let v = value("--idle-timeout-ms")?;
                let ms: u64 =
                    v.parse().map_err(|_| format!("bad --idle-timeout-ms value: {v}"))?;
                if ms == 0 {
                    return Err("--idle-timeout-ms must be at least 1".to_string());
                }
                cfg.idle_timeout = Duration::from_millis(ms);
            }
            "--journal" => cfg.journal = Some(value("--journal")?.into()),
            "--inject" => {
                let spec = value("--inject")?;
                cfg.inject =
                    Some(FaultPlan::parse_spec(&spec).map_err(|e| format!("bad --inject: {e}"))?);
            }
            "--shards" => {
                let v = value("--shards")?;
                let n: usize = v.parse().map_err(|_| format!("bad --shards value: {v}"))?;
                if n == 0 {
                    return Err("--shards must be at least 1".to_string());
                }
                shards = Some(n);
            }
            "--shard-addrs" => {
                cfg.shard_addrs = value("--shard-addrs")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if cfg.shard_addrs.is_empty() {
                    return Err("--shard-addrs needs at least one address".to_string());
                }
            }
            "--net-inject" => {
                let spec = value("--net-inject")?;
                cfg.net_inject = Some(
                    NetFaultPlan::parse_spec(&spec)
                        .map_err(|e| format!("bad --net-inject: {e}"))?,
                );
            }
            "--probe-interval-ms" => {
                let v = value("--probe-interval-ms")?;
                let ms: u64 =
                    v.parse().map_err(|_| format!("bad --probe-interval-ms value: {v}"))?;
                if ms == 0 {
                    return Err("--probe-interval-ms must be at least 1".to_string());
                }
                cfg.probe_interval = Duration::from_millis(ms);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
        i += 1;
    }
    if shards.is_some() && !cfg.shard_addrs.is_empty() {
        return Err("--shards and --shard-addrs are mutually exclusive".to_string());
    }
    // Same strict REGEN_JOBS rule as regen: a bad value is a usage
    // error up front, not a silent fallback mid-serve.
    if cfg.jobs.is_none() {
        cfg.jobs = jobs_from_env()?;
    }
    Ok((cfg, shards))
}

/// Parses and runs `regend campaign`: the serving-tier fault-space
/// sweep. Exits 1 on silent corruption or baseline drift, 2 on usage.
fn run_campaign_cmd(args: &[String]) -> ExitCode {
    let mut cfg = ClusterCampaignConfig::default();
    let mut report_path: Option<std::path::PathBuf> = None;
    let mut check_path: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let mut value = |flag: &str| -> Result<String, String> {
            i += 1;
            args.get(i).cloned().ok_or_else(|| format!("{flag} needs a value"))
        };
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--shards" => {
                    let v = value("--shards")?;
                    cfg.shards =
                        v.parse().map_err(|_| format!("bad --shards value: {v}"))?;
                    if cfg.shards == 0 {
                        return Err("--shards must be at least 1".to_string());
                    }
                }
                "--full" => cfg.quick = false,
                "--jobs" => {
                    let v = value("--jobs")?;
                    cfg.jobs = Some(parse_jobs(&v).map_err(|e| format!("--jobs {e}"))?);
                }
                "--report" => report_path = Some(value("--report")?.into()),
                "--check" => check_path = Some(value("--check")?.into()),
                other => return Err(format!("unknown campaign flag: {other}")),
            }
            Ok(())
        })();
        if let Err(msg) = parsed {
            eprintln!("regend campaign: {msg}");
            return ExitCode::from(2);
        }
        i += 1;
    }
    if cfg.jobs.is_none() {
        match jobs_from_env() {
            Ok(n) => cfg.jobs = n,
            Err(msg) => {
                eprintln!("regend campaign: {msg}");
                return ExitCode::from(2);
            }
        }
    }
    let report = match run_cluster_campaign(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("regend campaign: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_matrix());
    let json = report.to_json();
    if let Some(path) = &report_path {
        if let Err(e) = atomic_write(path, json.as_bytes()) {
            eprintln!("regend campaign: cannot write report: {e}");
            return ExitCode::from(2);
        }
        eprintln!("regend campaign: report written to {}", path.display());
    }
    let mut failed = false;
    for o in report.silent_corruptions() {
        eprintln!("regend campaign: SILENT CORRUPTION at {} ({})", o.coord.id(), o.detail);
        failed = true;
    }
    if let Some(path) = &check_path {
        match std::fs::read(path) {
            Ok(baseline) if baseline == json.as_bytes() => {
                eprintln!("regend campaign: matches baseline {}", path.display());
            }
            Ok(_) => {
                eprintln!(
                    "regend campaign: DRIFT from baseline {} (rerun with --report to refresh \
                     after reviewing the diff)",
                    path.display()
                );
                failed = true;
            }
            Err(e) => {
                eprintln!("regend campaign: cannot read baseline {}: {e}", path.display());
                return ExitCode::from(2);
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        usage(true);
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("campaign") {
        return run_campaign_cmd(&args[1..]);
    }
    let (mut cfg, shards) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("regend: {msg}");
            eprintln!();
            usage(false);
            return ExitCode::from(2);
        }
    };

    // --shards N: boot the shard tier in-process, then serve as its
    // proxy. Each shard is a full regend server on its own ephemeral
    // port with its own executor and journal (<journal>-shard<i>).
    let mut shard_instances = Vec::new();
    if let Some(n) = shards {
        match boot_shards(&cfg, n) {
            Ok(instances) => {
                let addrs: Vec<String> =
                    instances.iter().map(|s| s.addr.clone()).collect();
                for s in &instances {
                    eprintln!("regend: shard {} on http://{}/", s.index, s.addr);
                }
                cfg = proxy_config(&cfg, addrs);
                shard_instances = instances;
            }
            Err(e) => {
                eprintln!("regend: cannot boot shards: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("regend: cannot start: {e}");
            return ExitCode::from(2);
        }
    };
    install_sigterm_hook();
    eprintln!("regend: listening on http://{}/ (SIGTERM to drain)", server.local_addr());
    let summary = match server.run() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("regend: event loop failed: {e}");
            return ExitCode::from(2);
        }
    };
    // The proxy has drained; drain the in-process shard tier behind it.
    for s in shard_instances {
        s.handle.drain();
        let _ = s.join.join();
    }
    eprintln!(
        "regend: drained: {} request(s) served, {} admitted, {} rejected with 429",
        summary.served, summary.admitted, summary.rejected
    );
    eprintln!(
        "regend: connections: {} accepted, {} disconnects, {} idle timeouts",
        summary.connections, summary.disconnects, summary.idle_timeouts
    );
    let s = &summary.stats;
    eprintln!(
        "regend: executor: {} cells run, {} from cache, {} retries, {} faults injected, {} cells failed",
        s.cells_run, s.cells_from_cache, s.retries, s.faults_injected, s.cells_failed
    );
    ExitCode::SUCCESS
}
