//! Regenerates the paper's tables and figures from the simulation.
//!
//! ```text
//! cargo run --release -p bench --bin regen                  # everything
//! cargo run --release -p bench --bin regen -- figure2       # one artifact
//! cargo run --release -p bench --bin regen -- --quick       # fast variants
//! cargo run --release -p bench --bin regen -- --keep-going  # don't stop on failure
//! cargo run --release -p bench --bin regen -- --resume run.jsonl
//! cargo run --release -p bench --bin regen -- --jobs 8      # worker threads
//! cargo run --release -p bench --bin regen -- --inject 'cell=Broadwell:kind=sim:times=2'
//! cargo run --release -p bench --bin regen -- --trace-out trace.json --metrics-out metrics.prom
//! cargo run --release -p bench --bin regen -- --out results.txt
//! cargo run --release -p bench --bin regen -- fsck run.jsonl   # verify/repair a journal
//! cargo run --release -p bench --bin regen -- --list           # artifact inventory
//! cargo run --release -p bench --bin regen -- fetch http://127.0.0.1:7979 figure2
//! cargo run --release -p bench --bin regen -- campaign --quick table1  # fault-space sweep
//! cargo run --release -p bench --bin regen -- loadgen http://127.0.0.1:7979/artifact/table2
//! ```
//!
//! Exit codes: 0 clean; 1 at least one artifact failed or was degraded
//! (or a journal append was lost); 2 bad usage (unknown artifact or
//! malformed flag). `regen fsck` exits 0 when every line was valid, 1
//! when the only damage was a torn tail, 2 on checksum or structural
//! corruption. `regen campaign` exits 0 when every explored coordinate
//! was absorbed, degraded, or failed loud; 1 when the reference sweep
//! was not clean; 2 on any silent-corruption classification (or bad
//! usage).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use bench::campaign::{run_campaign, CampaignError, CampaignOptions};
use bench::loadgen::LoadgenOptions;
use bench::{Artifact, RegenOptions, run_regen};
use spectrebench::campaign::FaultPoint;
use spectrebench::Arg::{Flag, Positional};
use spectrebench::{fsck_journal, jobs_from_env, Args, FaultKind, FaultPlan};

fn usage(to_stdout: bool) {
    // The kind lists come from FaultKind::ALL so --help can never
    // drift from what parse_spec accepts.
    let compute_kinds = FaultKind::ALL
        .iter()
        .filter(|k| !k.is_io())
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join("|");
    let io_kinds = FaultKind::ALL
        .iter()
        .filter(|k| k.is_io())
        .map(|k| k.name())
        .collect::<Vec<_>>()
        .join("|");
    let mut text = format!(
        "usage: regen [options] [artifact ...]\n\
         \x20      regen fsck <journal>\n\
         \x20      regen fetch <base-url> <artifact|results>\n\
         \x20      regen loadgen [loadgen-options] <url>\n\
         \x20      regen campaign [campaign-options] [artifact ...]\n\
         \n\
         subcommands:\n\
         \x20 fsck <journal>    verify the journal's per-line checksums,\n\
         \x20                   quarantine damaged lines to <journal>.quarantine,\n\
         \x20                   and atomically rewrite a compacted valid journal.\n\
         \x20                   Exits 0 (clean), 1 (a torn tail only),\n\
         \x20                   or 2 (corruption found / unreadable)\n\
         \x20 fetch <url> <a>   pull one artifact rendering (or 'results' for\n\
         \x20                   all of them) off a running regend and print it;\n\
         \x20                   retries politely on 429 + Retry-After, and with\n\
         \x20                   seeded backoff on refused/timed-out connections\n\
         \x20 loadgen <url>     open-loop HTTP load generator against a running\n\
         \x20                   regend: arrivals on a fixed-rate clock, latency\n\
         \x20                   measured from each scheduled arrival (no\n\
         \x20                   coordinated omission), keep-alive connection\n\
         \x20                   reuse, p50/p90/p99/max + achieved throughput.\n\
         \x20                   Options: --rate <req/s> (default 200),\n\
         \x20                   --requests <n> (default 1000), --connections <n>\n\
         \x20                   (default 8), --timeout-ms <n>, --histogram <f>\n\
         \x20                   (write the latency histogram to <f>),\n\
         \x20                   --target <url> (repeatable; arrivals rotate over\n\
         \x20                   all targets and the summary adds per-target\n\
         \x20                   latency splits).\n\
         \x20                   Exits 1 when any request errored\n\
         \x20 campaign          explore the whole (cell x attempt x fault-kind)\n\
         \x20                   space: reference sweep, one perturbed sweep per\n\
         \x20                   coordinate (all of {compute_kinds},\n\
         \x20                   {io_kinds}), survivability report.\n\
         \x20                   Campaign options: --sample <n> (seeded stratified\n\
         \x20                   sample), --seed <n>, --dir <d> (scratch + campaign\n\
         \x20                   journal), --resume (continue an interrupted\n\
         \x20                   campaign), --report <f> (JSON report, atomic),\n\
         \x20                   plus --quick/--retries/--jobs as below.\n\
         \x20                   Exits 2 on any silent-corruption verdict\n\
         \n\
         options:\n\
         \x20 --list            list the artifacts and exit\n\
         \x20 --quick           fast workload variants\n\
         \x20 --keep-going      continue past failed artifacts\n\
         \x20 --retries <n>     attempts per measurement cell (default 3)\n\
         \x20 --jobs <n>        worker threads for measurement cells (default:\n\
         \x20                   the REGEN_JOBS environment variable, else the\n\
         \x20                   machine's available parallelism); the rendered\n\
         \x20                   output is byte-identical for any value\n\
         \x20 --resume <log>    reuse cells journaled in <log>; append new ones\n\
         \x20 --inject <spec>   deterministic fault plan, e.g.\n\
         \x20                   'cell=<substr>:kind=<kind>:times=<n|forever>'\n\
         \x20                   or 'seed=<n>:prob=<p>'. Compute kinds\n\
         \x20                   {compute_kinds} fail attempts; I/O kinds\n\
         \x20                   {io_kinds} damage the cell's\n\
         \x20                   journal line instead (the value still renders)\n\
         \x20 --trace-out <f>   write a Chrome trace-event JSON timeline of the\n\
         \x20                   sweep (one lane per worker; open in Perfetto or\n\
         \x20                   chrome://tracing)\n\
         \x20 --metrics-out <f> write a Prometheus-style text metrics dump\n\
         \x20                   (cell counters, retry/fault totals, latency\n\
         \x20                   histograms)\n\
         \x20 --out <f>         also write the artifact renderings to <f>,\n\
         \x20                   atomically (tmp + fsync + rename): a killed run\n\
         \x20                   leaves the old file or the complete new one\n\
         \n\
         artifacts:\n",
    );
    for a in Artifact::ALL {
        text.push_str(&format!("  {:14} {}\n", a.name(), a.caption()));
    }
    // The policy list comes from V1Policy::ALL — the same slice the
    // kernel's spectre_v1= parser accepts — so the help can never name
    // a policy the boot parameter rejects, or vice versa.
    let policies = sim_kernel::V1Policy::ALL
        .iter()
        .map(|p| p.name())
        .collect::<Vec<_>>()
        .join("|");
    text.push_str(&format!(
        "\nThe 'targeted' artifact measures every spectre_v1= boot policy\n\
         ({policies}) over the paper CPUs plus the extended RISC-V catalog.\n"
    ));
    if to_stdout {
        print!("{text}");
    } else {
        eprint!("{text}");
    }
}

/// What a `regen` command line asks for.
enum Cmd {
    Help,
    List,
    Sweep(RegenOptions),
    Fetch(String, String),
    Fsck(PathBuf),
    Campaign(CampaignOptions),
    Loadgen(LoadgenOptions, Option<PathBuf>),
}

/// Parses a whole `regen` command line; the first word picks the
/// subcommand. Returns the usage-error prefix with the result.
fn parse(args: &[String]) -> (&'static str, Result<Cmd, String>) {
    match args.first().map(String::as_str) {
        Some("fetch") => ("regen", parse_words(&args[1..], |words| match *words {
            [base, what] => Ok(Cmd::Fetch(base.to_string(), what.to_string())),
            _ => Err("fetch takes exactly two arguments: <base-url> <artifact|results>".into()),
        })),
        Some("fsck") => ("regen", parse_words(&args[1..], |words| match *words {
            [path] => Ok(Cmd::Fsck(PathBuf::from(path))),
            _ => Err("fsck takes exactly one argument: the journal path".into()),
        })),
        Some("campaign") => ("regen campaign", parse_campaign_args(&args[1..])),
        Some("loadgen") => ("regen loadgen", parse_loadgen_args(&args[1..])),
        _ => ("regen", parse_args(args)),
    }
}

/// `fetch` and `fsck` take positional words and no flag but `--help`.
fn parse_words(
    args: &[String],
    cmd: impl FnOnce(&[&str]) -> Result<Cmd, String>,
) -> Result<Cmd, String> {
    let mut words = Vec::new();
    for arg in Args::new(args) {
        match arg {
            Flag("--help" | "-h") => return Ok(Cmd::Help),
            Flag(other) => return Err(format!("unknown flag: {other}")),
            Positional(word) => words.push(word),
        }
    }
    cmd(&words)
}

/// Parses the sweep's arguments: options and artifact names.
fn parse_args(args: &[String]) -> Result<Cmd, String> {
    let mut opts = RegenOptions::default();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            Flag("--help" | "-h") => return Ok(Cmd::Help),
            Flag("--list") => return Ok(Cmd::List),
            Flag("--quick") => opts.quick = true,
            Flag("--keep-going") => opts.keep_going = true,
            Flag("--retries") => opts.retries = Some(args.positive()?),
            Flag("--jobs") => opts.jobs = Some(args.positive()?),
            Flag("--resume") => opts.resume = Some(args.value()?.into()),
            Flag("--trace-out") => opts.trace_out = Some(args.value()?.into()),
            Flag("--metrics-out") => opts.metrics_out = Some(args.value()?.into()),
            Flag("--out") => opts.out = Some(args.value()?.into()),
            Flag("--inject") => {
                let plan = FaultPlan::parse_spec(args.value()?);
                opts.inject = Some(plan.map_err(|e| format!("bad --inject: {e}"))?);
            }
            Flag(other) => return Err(format!("unknown flag: {other}")),
            Positional(name) => opts.artifacts.push(parse_artifact(name)?),
        }
    }
    // A malformed REGEN_JOBS is a usage error like a bad --jobs, not a
    // silent fallback to machine parallelism.
    if opts.jobs.is_none() {
        opts.jobs = jobs_from_env()?;
    }
    Ok(Cmd::Sweep(opts))
}

/// An artifact by name, or "unknown artifact" with a nearest-name hint
/// when one is close.
fn parse_artifact(name: &str) -> Result<Artifact, String> {
    Artifact::parse(name).ok_or_else(|| match Artifact::suggest(name) {
        Some(s) => format!("unknown artifact: {name} (did you mean: {s}?)"),
        None => format!("unknown artifact: {name} (see --list)"),
    })
}

/// `regen fetch <base-url> <artifact|results>`: pull a rendering off a
/// running regend and print it to stdout, exactly as `regen <artifact>`
/// would have (the server's bytes are golden-pinned to the same
/// renderer).
fn run_fetch(base: &str, what: &str) -> ExitCode {
    let path = match what {
        "results" => "/results".to_string(),
        name => match parse_artifact(name) {
            Ok(a) => format!("/artifact/{}", a.name()),
            Err(msg) => {
                eprintln!("regen: {msg}");
                return ExitCode::from(2);
            }
        },
    };
    let base = base.strip_suffix('/').unwrap_or(base);
    let url = format!("{base}{path}");
    match serve::client::http_get_retrying(&url, Duration::from_secs(120), 5) {
        Ok(r) if r.status == 200 => {
            if r.header("x-regend-degraded").is_some() {
                eprintln!("regen: warning: {what} is DEGRADED (bridged over failed cells)");
            }
            if r.header("x-regend-quick").is_some() {
                eprintln!("regen: note: the server rendered the quick variant");
            }
            print!("{}", r.text());
            ExitCode::SUCCESS
        }
        Ok(r) => {
            eprintln!("regen: fetch {url} failed: HTTP {}", r.status);
            for line in r.text().lines() {
                eprintln!("regen:   {line}");
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("regen: fetch {url} failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses `regen campaign` arguments (everything after the subcommand
/// word).
fn parse_campaign_args(args: &[String]) -> Result<Cmd, String> {
    let mut opts = CampaignOptions::default();
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            Flag("--help" | "-h") => return Ok(Cmd::Help),
            Flag("--quick") => opts.quick = true,
            Flag("--retries") => opts.retries = args.positive()?,
            Flag("--jobs") => opts.jobs = Some(args.positive()?),
            Flag("--sample") => opts.sample = Some(args.positive()?),
            Flag("--seed") => {
                let v = args.value()?;
                opts.seed = v.parse().map_err(|_| format!("bad --seed value: {v}"))?;
            }
            Flag("--dir") => opts.dir = args.value()?.into(),
            Flag("--resume") => opts.resume = true,
            Flag("--report") => opts.report_out = Some(args.value()?.into()),
            Flag(other) => return Err(format!("unknown campaign flag: {other}")),
            Positional(name) => opts.artifacts.push(parse_artifact(name)?),
        }
    }
    if opts.jobs.is_none() {
        opts.jobs = jobs_from_env()?;
    }
    Ok(Cmd::Campaign(opts))
}

/// `regen campaign`: the three-phase fault-space exploration. Prints
/// the survivability matrix to stdout; exit 2 on any silent-corruption
/// verdict, exit 1 when the reference sweep could not baseline.
fn run_campaign_cmd(opts: &CampaignOptions) -> ExitCode {
    let run = match run_campaign(opts) {
        Ok(run) => run,
        Err(e @ CampaignError::ReferenceNotClean(_)) => {
            eprintln!("regen campaign: {e}");
            return ExitCode::FAILURE;
        }
        Err(e) => {
            eprintln!("regen campaign: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", run.report.render_matrix());
    eprintln!(
        "regen campaign: {} coordinate(s) explored ({} executed now, {} replayed from {}), \
         space {} over {} cell(s)",
        run.report.outcomes.len(),
        run.executed,
        run.replayed,
        opts.dir.join("campaign.jsonl").display(),
        run.space,
        run.cells
    );
    let s = &run.stats;
    eprintln!(
        "regen campaign: {} cells run, {} retries, {} faults injected, {} cells failed, {} panic(s) caught",
        s.cells_run, s.retries, s.faults_injected, s.cells_failed, s.panics_caught
    );
    if let Some(path) = &opts.report_out {
        eprintln!("regen campaign: report written to {}", path.display());
    }
    let silent = run.report.silent_corruptions();
    if silent.is_empty() {
        ExitCode::SUCCESS
    } else {
        for o in &silent {
            eprintln!("regen campaign: SILENT CORRUPTION at {} ({})", o.coord.id(), o.detail);
        }
        // Reserve exit 2 for the one verdict that is always a bug.
        ExitCode::from(2)
    }
}

/// Parses `regen loadgen` arguments (everything after the subcommand
/// word; a bare argument is a target URL).
fn parse_loadgen_args(args: &[String]) -> Result<Cmd, String> {
    let mut opts = LoadgenOptions::default();
    let mut histogram = None;
    let mut args = Args::new(args);
    while let Some(arg) = args.next() {
        match arg {
            Flag("--help" | "-h") => return Ok(Cmd::Help),
            Flag("--rate") => {
                let v = args.value()?;
                opts.rate = v.parse().map_err(|_| format!("bad --rate value: {v}"))?;
                if !opts.rate.is_finite() || opts.rate <= 0.0 {
                    return Err("--rate must be positive".to_string());
                }
            }
            Flag("--requests") => opts.requests = args.positive()?,
            Flag("--connections") => opts.connections = args.positive()?,
            Flag("--timeout-ms") => opts.timeout = args.millis()?,
            Flag("--histogram") => histogram = Some(args.value()?.into()),
            Flag("--target") => opts.targets.push(args.value()?.to_string()),
            Flag(other) => return Err(format!("unknown loadgen flag: {other}")),
            Positional(url) => opts.targets.push(url.to_string()),
        }
    }
    if opts.targets.is_empty() {
        return Err("loadgen needs a target URL (bare or --target)".to_string());
    }
    Ok(Cmd::Loadgen(opts, histogram))
}

/// `regen loadgen <url>`: open-loop load against a running regend.
/// Exit 1 when any request failed outright (429s are responses, not
/// errors: they are the server keeping its overload contract).
fn run_loadgen_cmd(opts: &LoadgenOptions, histogram: Option<&Path>) -> ExitCode {
    let report = match bench::loadgen::run_loadgen(opts) {
        Ok(r) => r,
        Err(msg) => {
            eprintln!("regen loadgen: {msg}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render_text());
    if let Some(path) = histogram {
        if let Err(e) = spectrebench::atomic_write(path, report.render_histogram().as_bytes()) {
            eprintln!("regen loadgen: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("regen loadgen: histogram written to {}", path.display());
    }
    if report.errors > 0 {
        eprintln!("regen loadgen: {} request(s) failed", report.errors);
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `regen fsck <journal>`: verify, quarantine, compact. Severity maps
/// directly to the exit code; an unreadable journal is severity 2.
fn run_fsck(path: &Path) -> ExitCode {
    match fsck_journal(path) {
        Ok(report) => {
            let s = &report.scan;
            eprintln!(
                "regen fsck: {}: {} valid line(s) -> {} entr{} compacted; {} truncated, {} corrupt skipped",
                path.display(),
                s.valid,
                report.entries,
                if report.entries == 1 { "y" } else { "ies" },
                s.truncated,
                s.corrupt
            );
            if let Some(q) = &report.quarantine {
                eprintln!("regen fsck: damaged lines quarantined to {}", q.display());
            }
            ExitCode::from(report.severity())
        }
        Err(e) => {
            eprintln!("regen fsck: cannot read {}: {e}", path.display());
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (what, parsed) = parse(&args);
    match parsed {
        Ok(Cmd::Help) => {
            usage(true);
            ExitCode::SUCCESS
        }
        Ok(Cmd::List) => {
            for a in Artifact::ALL {
                println!("{:14} {}", a.name(), a.caption());
            }
            ExitCode::SUCCESS
        }
        Ok(Cmd::Sweep(opts)) => run_sweep(&opts),
        Ok(Cmd::Fetch(base, what)) => run_fetch(&base, &what),
        Ok(Cmd::Fsck(path)) => run_fsck(&path),
        Ok(Cmd::Campaign(opts)) => run_campaign_cmd(&opts),
        Ok(Cmd::Loadgen(opts, histogram)) => run_loadgen_cmd(&opts, histogram.as_deref()),
        Err(msg) => {
            eprintln!("{what}: {msg}");
            eprintln!();
            usage(false);
            ExitCode::from(2)
        }
    }
}

/// `regen [options] [artifact ...]`: the sweep. Prints each artifact's
/// rendering to stdout and the run's counters to stderr.
fn run_sweep(opts: &RegenOptions) -> ExitCode {
    let report = match run_regen(opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("regen: cannot open resume journal: {e}");
            return ExitCode::from(2);
        }
    };

    for r in &report.results {
        print!("{}", bench::render_artifact_block(r));
        let c = &r.cells;
        eprintln!(
            "regen: {}: {} cells simulated, {} from cache, {} from journal ({:.2}s simulating, {:.2}s in plans)",
            r.artifact.name(),
            c.cells_run,
            c.cells_from_cache,
            c.cells_from_journal,
            c.sim_time.as_secs_f64(),
            c.plan_time.as_secs_f64()
        );
    }

    let s = &report.stats;
    eprintln!(
        "regen: {} cells run, {} from cache, {} from journal, {} retries, {} faults injected, {} cells failed",
        s.cells_run,
        s.cells_from_cache,
        s.cells_from_journal,
        s.retries,
        s.faults_injected,
        s.cells_failed
    );
    eprintln!(
        "regen: timing: {:.2}s simulating cells, {:.2}s inside plan execution",
        s.sim_time.as_secs_f64(),
        s.plan_time.as_secs_f64()
    );
    if s.panics_caught > 0 || s.breaker_skipped > 0 {
        eprintln!(
            "regen: {} compute panic(s) caught; {} cell(s) degraded by the panic circuit breaker",
            s.panics_caught, s.breaker_skipped
        );
    }
    if s.journal_corrupt > 0 || s.journal_truncated > 0 {
        eprintln!(
            "regen: resume journal damage skipped: {} corrupt, {} truncated line(s) (run `regen fsck` to quarantine and compact)",
            s.journal_corrupt, s.journal_truncated
        );
    }
    if s.journal_write_errors > 0 {
        eprintln!(
            "regen: {} journal write error(s): affected cells will re-run on resume",
            s.journal_write_errors
        );
    }
    if let Some(path) = &opts.trace_out {
        eprintln!("regen: trace written to {}", path.display());
    }
    if let Some(path) = &opts.metrics_out {
        eprintln!("regen: metrics written to {}", path.display());
    }
    if let Some(path) = &opts.out {
        eprintln!("regen: artifacts written to {}", path.display());
    }
    let failures = report.failures();
    for (a, e) in &failures {
        eprintln!("regen: {} FAILED: {e}", a.name());
    }
    for a in report.degraded() {
        eprintln!("regen: {} is DEGRADED (bridged over failed cells)", a.name());
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
