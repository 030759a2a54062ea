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

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use serve::{
    boot_shards, install_sigterm_hook, proxy_config, run_cluster_campaign, Server, ServerConfig,
    ClusterCampaignConfig,
};
use spectrebench::Arg::{Flag, Positional};
use spectrebench::{atomic_write, jobs_from_env, Args, FaultPlan, FaultPoint, NetFaultPlan};

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

/// What a `regend` command line asks for.
enum Cmd {
    Help,
    /// Serve, booting `shards` in-process shards behind the proxy first.
    Serve { cfg: Box<ServerConfig>, shards: Option<usize> },
    /// `regend campaign`, with its report and baseline paths.
    Campaign { cfg: ClusterCampaignConfig, report: Option<PathBuf>, check: Option<PathBuf> },
}

/// Parses the daemon's arguments.
fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let mut cfg = ServerConfig::default();
    let mut shards: Option<usize> = None;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            Flag("--help" | "-h") => return Ok(Cmd::Help),
            Flag("--addr") => cfg.addr = args.value()?.to_string(),
            Flag("--quick") => cfg.quick = true,
            Flag("--workers") => cfg.workers = args.positive()?,
            Flag("--queue") => cfg.queue_capacity = args.positive()?,
            Flag("--jobs") => cfg.jobs = Some(args.positive()?),
            Flag("--retries") => cfg.retries = Some(args.positive()?),
            Flag("--deadline-ms") => cfg.default_deadline = Some(args.millis()?),
            Flag("--idle-timeout-ms") => cfg.idle_timeout = args.millis()?,
            Flag("--journal") => cfg.journal = Some(args.value()?.into()),
            Flag("--inject") => {
                let plan = FaultPlan::parse_spec(args.value()?);
                cfg.inject = Some(plan.map_err(|e| format!("bad --inject: {e}"))?);
            }
            Flag("--shards") => shards = Some(args.positive()?),
            Flag("--shard-addrs") => {
                cfg.shard_addrs = args
                    .value()?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if cfg.shard_addrs.is_empty() {
                    return Err("--shard-addrs needs at least one address".to_string());
                }
            }
            Flag("--net-inject") => {
                let plan = NetFaultPlan::parse_spec(args.value()?);
                cfg.net_inject = Some(plan.map_err(|e| format!("bad --net-inject: {e}"))?);
            }
            Flag("--probe-interval-ms") => cfg.probe_interval = args.millis()?,
            Flag(other) => return Err(format!("unknown flag: {other}")),
            Positional(other) => return Err(format!("unexpected argument: {other}")),
        }
    }
    if shards.is_some() && !cfg.shard_addrs.is_empty() {
        return Err("--shards and --shard-addrs are mutually exclusive".to_string());
    }
    // Same strict REGEN_JOBS rule as regen: a bad value is a usage
    // error up front, not a silent fallback mid-serve.
    if cfg.jobs.is_none() {
        cfg.jobs = jobs_from_env()?;
    }
    Ok(Cmd::Serve { cfg: Box::new(cfg), shards })
}

/// Parses `regend campaign` arguments (everything after the subcommand
/// word).
fn parse_campaign_args(args: &[String]) -> Result<Cmd, String> {
    let mut cfg = ClusterCampaignConfig::default();
    let (mut report, mut check) = (None, None);
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            Flag("--help" | "-h") => return Ok(Cmd::Help),
            Flag("--shards") => cfg.shards = args.positive()?,
            Flag("--full") => cfg.quick = false,
            Flag("--jobs") => cfg.jobs = Some(args.positive()?),
            Flag("--report") => report = Some(args.value()?.into()),
            Flag("--check") => check = Some(args.value()?.into()),
            Flag(other) => return Err(format!("unknown campaign flag: {other}")),
            Positional(other) => return Err(format!("unexpected argument: {other}")),
        }
    }
    if cfg.jobs.is_none() {
        cfg.jobs = jobs_from_env()?;
    }
    Ok(Cmd::Campaign { cfg, report, check })
}

/// Runs `regend campaign`: the serving-tier fault-space sweep. Exits 1
/// on silent corruption or baseline drift, 2 when it cannot run.
fn run_campaign_cmd(
    cfg: &ClusterCampaignConfig,
    report_path: Option<&Path>,
    check_path: Option<&Path>,
) -> ExitCode {
    let report = match run_cluster_campaign(cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("regend campaign: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.render_matrix());
    let json = report.to_json();
    if let Some(path) = report_path {
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
    if let Some(path) = check_path {
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
    let (what, parsed) = match args.first().map(String::as_str) {
        Some("campaign") => ("regend campaign", parse_campaign_args(&args[1..])),
        _ => ("regend", parse_args(&args)),
    };
    match parsed {
        Ok(Cmd::Help) => {
            usage(true);
            ExitCode::SUCCESS
        }
        Ok(Cmd::Serve { cfg, shards }) => serve(*cfg, shards),
        Ok(Cmd::Campaign { cfg, report, check }) => {
            run_campaign_cmd(&cfg, report.as_deref(), check.as_deref())
        }
        Err(msg) => {
            eprintln!("{what}: {msg}");
            eprintln!();
            usage(false);
            ExitCode::from(2)
        }
    }
}

/// Serves until SIGTERM or `POST /shutdown`, then prints the run's
/// counters.
fn serve(mut cfg: ServerConfig, shards: Option<usize>) -> ExitCode {
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
