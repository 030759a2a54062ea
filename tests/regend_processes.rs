//! The spawned-process path of the serving tier: real `regend` and
//! `regen` binaries, real sockets, real signals. The in-process suites
//! (`serve_determinism`, `cluster_determinism`) pin the bytes, the
//! overload and the failover logic; this file pins what only a process
//! shows — the `listening on` handshake, the fetch client, a SIGTERM
//! drain and its summary, resident memory over a long run, the event
//! loop's CPU under a connection flood past the descriptor limit, a
//! SIGKILLed shard, and the `regend campaign` baseline check.
//!
//! The cluster soak and the campaign run only in release builds
//! (`cargo test --release --test regend_processes`); the rest is
//! tier-1.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::{Command, Output, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use bench::Artifact;
use serve::client::Connection;
use serve::HashRing;

mod support;
use support::{
    await_metric, binary, cell_keys, cell_path, get, metric, scratch, table_cells, Daemon,
};

/// `regen loadgen <args>` to completion: exit 0, and its summary line
/// counts `requests` responses, every one a 200, and no errors.
fn assert_loadgen_all_200(loadgen: Output, requests: usize) {
    let stdout = String::from_utf8_lossy(&loadgen.stdout);
    let stderr = String::from_utf8_lossy(&loadgen.stderr);
    assert!(loadgen.status.success(), "regen loadgen: {}\n{stdout}{stderr}", loadgen.status);
    let summary =
        format!("loadgen: {requests} response(s) ({requests} x 200, 0 x 429), 0 error(s)");
    assert!(stdout.contains(&summary), "no {summary:?} in:\n{stdout}");
}

/// `regend --quick` end to end: 2,000 open-loop keep-alive reads from
/// `regen loadgen`, the `regen` fetch client over every artifact and
/// `/results`, and a SIGTERM drain whose summary repeats the last
/// `/metrics`.
#[test]
fn spawned_regend_serves_loadgen_and_fetch_then_drains_on_sigterm() {
    let regend = Daemon::spawn(&["--quick", "--workers", "2"]);
    let regen = binary("regen");

    let dir = scratch("loadgen");
    let loadgen = Command::new(&regen)
        .args(["loadgen", "--rate", "500", "--requests", "2000", "--connections", "8"])
        .arg("--histogram")
        .arg(dir.join("histogram.txt"))
        .arg(format!("{}/artifact/table2", regend.base))
        .output()
        .expect("regen loadgen");
    assert_loadgen_all_200(loadgen, 2_000);
    let histogram = std::fs::read_to_string(dir.join("histogram.txt")).expect("histogram");
    assert!(histogram.starts_with("# loadgen latency histogram (2000 sample(s)"), "{histogram}");
    let _ = std::fs::remove_dir_all(&dir);
    // The readiness poll is a served request too, so count the artifact
    // responses alone.
    let metrics = get(&regend.base, "/metrics").text();
    let line = "regend_responses_total{endpoint=\"artifact\",status=\"200\"} 2000";
    assert!(metrics.lines().any(|l| l == line), "{metrics}");

    // The fetch client, in `--list` order: `/results` is every block
    // in paper order, byte for byte.
    let list = Command::new(&regen).arg("--list").output().expect("regen --list");
    let list = String::from_utf8(list.stdout).expect("UTF-8 list");
    let names: Vec<&str> = list.lines().filter_map(|l| l.split(' ').next()).collect();
    assert_eq!(names, Artifact::ALL.map(|a| a.name()));
    let fetch = |what: &str| {
        let out = Command::new(&regen).args(["fetch", &regend.base, what]).output();
        let out = out.expect("regen fetch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "regen fetch {what}: {stderr}");
        String::from_utf8(out.stdout).expect("UTF-8 rendering")
    };
    let blocks: Vec<String> = names.iter().map(|name| fetch(name)).collect();
    assert!(blocks[0].starts_with("== Table 1"), "{}", blocks[0]);
    assert_eq!(fetch("results"), blocks.concat(), "/results is every block, in order");

    // SIGTERM drains cleanly, and the summary counts what the last
    // scrape counted, plus that scrape: every admitted request was
    // served.
    let metrics = get(&regend.base, "/metrics").text();
    let requests = metric(&metrics, "regend_requests_total") + 1.0;
    let rejected = metric(&metrics, "regend_rejected_total");
    assert!(requests >= (2_000 + names.len() + 2) as f64, "{metrics}");
    let (status, log) = regend.terminate();
    assert!(status.success(), "{status}:\n{log}");
    let drained = format!(
        "regend: drained: {requests} request(s) served, {requests} admitted, \
         {rejected} rejected with 429"
    );
    assert!(log.contains(&drained), "no {drained:?} in:\n{log}");
}

/// Resident memory does not grow with uptime: 100,000 pipelined
/// keep-alive reads of one cached artifact, in four rounds, move the
/// daemon's `VmRSS` by less than 1 MiB.
#[test]
fn spawned_regend_rss_stays_flat_over_a_hundred_thousand_cached_reads() {
    let regend = Daemon::spawn(&["--quick", "--workers", "2"]);
    assert_eq!(get(&regend.base, "/artifact/table2").status, 200, "warm the cache");
    let status_path = format!("/proc/{}/status", regend.pid());
    let rss_kb = || {
        let status = std::fs::read_to_string(&status_path).expect("read /proc/<pid>/status");
        let line = status.lines().find(|l| l.starts_with("VmRSS:")).expect("VmRSS line");
        line.split_whitespace().nth(1).and_then(|kb| kb.parse::<u64>().ok()).expect("kB")
    };

    let mut conn = Connection::to_url(&regend.base, Duration::from_secs(30)).expect("url");
    let burst = ["/artifact/table2"; 100];
    let mut readings = vec![rss_kb()];
    for _round in 0..4 {
        for _ in 0..250 {
            for r in conn.pipeline(&burst).expect("pipelined burst") {
                assert_eq!(r.status, 200);
            }
        }
        readings.push(rss_kb());
    }
    assert_eq!(conn.sockets_opened(), 1, "one keep-alive socket carried every read");
    let (first, last) = (readings[0], readings[readings.len() - 1]);
    assert!(last <= first + 1024, "VmRSS grew by more than 1 MiB (kB): {readings:?}");
    let (status, log) = regend.terminate();
    assert!(status.success(), "{status}:\n{log}");
}

/// A client that pipelines without reading cannot grow `regend`: once
/// a connection owes 256 responses the loop stops reading it, so the
/// flood stalls in both directions and is reaped at `--idle-timeout-ms`.
/// 200,000 pipelined `GET /healthz` (6.8 MB) on one socket that never
/// reads move the daemon's peak resident memory (`VmHWM`) by less than
/// 4 MiB, a fresh connection is answered during the flood, and the
/// stall counts as an idle timeout.
#[test]
fn a_client_that_pipelines_without_reading_stalls_instead_of_growing_regend() {
    let regend = Daemon::spawn(&["--quick", "--idle-timeout-ms", "500"]);
    let status_path = format!("/proc/{}/status", regend.pid());
    let peak_kb = || {
        let status = std::fs::read_to_string(&status_path).expect("read /proc/<pid>/status");
        let line = status.lines().find(|l| l.starts_with("VmHWM:")).expect("VmHWM line");
        line.split_whitespace().nth(1).and_then(|kb| kb.parse::<u64>().ok()).expect("kB")
    };
    let before = peak_kb();

    let mut flood = TcpStream::connect(regend.addr()).expect("connect");
    flood.set_write_timeout(Some(Duration::from_secs(10))).expect("write timeout");
    let flooder = std::thread::spawn(move || {
        // Ends in an error once regend reaps the stalled connection, or
        // at the write timeout; either way the socket is handed back
        // open, so the reap, not a reset, closes it.
        let _ = flood.write_all(&b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n".repeat(200_000));
        flood
    });
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(get(&regend.base, "/healthz").status, 200, "answered during the flood");
    let idle =
        await_metric(&regend.base, "regend_idle_timeouts_total", 1.0, Duration::from_secs(30));
    assert!(idle >= 1.0, "the stalled flood was never reaped");
    let flood = flooder.join().expect("flooder");
    let grown = peak_kb().saturating_sub(before);
    assert!(grown < 4096, "VmHWM grew by {grown} kB");
    drop(flood);
    let (status, log) = regend.terminate();
    assert!(status.success(), "{status}:\n{log}");
}

/// A client that half-closes after its request, as `nc -N` does, costs
/// the event loop nothing while its slow request computes: the loop
/// watches for the peer's EOF only while it reads. Registered after
/// that, the raised `EPOLLRDHUP` woke every `epoll_wait`, and the loop
/// thread spun for the whole computation.
#[test]
fn a_half_closed_client_owed_slow_work_does_not_spin_the_loop() {
    use std::io::Read;

    let regend = Daemon::spawn(&["--quick", "--workers", "1"]);
    let before = loop_ticks(&regend);
    let start = std::time::Instant::now();
    let mut client = TcpStream::connect(regend.addr()).expect("connect");
    let request = b"GET /results HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
    client.write_all(request).expect("request");
    client.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = Vec::new();
    client.read_to_end(&mut reply).expect("read to EOF");
    let waited = start.elapsed();
    let spent = loop_ticks(&regend) - before;
    assert!(reply.starts_with(b"HTTP/1.1 200 OK\r\n"), "{}", String::from_utf8_lossy(&reply));
    assert_under_a_quarter_core(spent, waited);
    let (status, log) = regend.terminate();
    assert!(status.success(), "{status}:\n{log}");
}

/// A flood of connections past `regend`'s descriptor limit costs the
/// event loop nothing while it is held: once `accept` fails for want of
/// a descriptor, the loop stops watching the listener until a
/// connection closes, retrying one `accept` every 50 ms. Watched
/// throughout, the listener's queued
/// connections woke every `epoll_wait`, and with 100 idle connections
/// held against a limit of 64 the loop thread spun a whole core. After
/// they drop, a new connection is answered and SIGTERM drains cleanly.
#[test]
fn a_connection_flood_past_the_descriptor_limit_does_not_spin_the_loop() {
    let regend = Daemon::spawn_with_nofile(&["--quick"], 64);
    let before = loop_ticks(&regend);
    let start = std::time::Instant::now();
    let held: Vec<TcpStream> =
        (0..100).map(|_| TcpStream::connect(regend.addr()).expect("connect")).collect();
    std::thread::sleep(Duration::from_secs(2));
    let waited = start.elapsed();
    let spent = loop_ticks(&regend) - before;
    assert_under_a_quarter_core(spent, waited);
    drop(held);
    let health = get(&regend.base, "/healthz");
    assert_eq!(health.status, 200, "{}", health.text());
    let (status, log) = regend.terminate();
    assert!(status.success(), "{status}:\n{log}");
}

/// A listener starved by the descriptor limit comes back by itself when
/// descriptors free up outside its own connections: with the flood held
/// and none of its connections closed, raising the daemon's soft limit
/// lets the loop's 50 ms retry accept a connection still queued behind
/// the listener, and that connection is answered.
#[test]
fn a_starved_listener_accepts_again_when_descriptors_free_up_elsewhere() {
    let regend = Daemon::spawn_with_nofile(&["--quick"], 64);
    let mut held: Vec<TcpStream> =
        (0..100).map(|_| TcpStream::connect(regend.addr()).expect("connect")).collect();
    // Time for the loop to accept what the limit allows and starve.
    std::thread::sleep(Duration::from_millis(500));
    regend.raise_nofile(1024);
    let queued = held.last_mut().expect("a held connection");
    queued.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    queued.write_all(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").expect("send");
    let mut head = [0u8; 12];
    queued.read_exact(&mut head).expect("the queued connection is answered");
    assert_eq!(&head, b"HTTP/1.1 200");
    drop(held);
    let (status, log) = regend.terminate();
    assert!(status.success(), "{status}:\n{log}");
}

/// Clock ticks the event loop has spent, user and system. The loop runs
/// on `regend`'s main thread, whose task id is its pid.
fn loop_ticks(regend: &Daemon) -> u64 {
    let stat = format!("/proc/{0}/task/{0}/stat", regend.pid());
    let stat = std::fs::read_to_string(stat).expect("read the loop thread's stat");
    let fields: Vec<&str> =
        stat.rsplit(')').next().unwrap_or_default().split_whitespace().collect();
    // utime and stime are fields 14 and 15; the slice starts at field 3.
    let ticks = |i: usize| fields[i].parse::<u64>().expect("clock ticks");
    ticks(11) + ticks(12)
}

/// `spent` clock ticks over `waited` are at most a quarter of a core.
fn assert_under_a_quarter_core(spent: u64, waited: Duration) {
    // Clock ticks are 10 ms: a quarter of the wait is a quarter of a core.
    let quarter = waited.as_millis() as u64 / 40;
    assert!(spent <= quarter + 2, "the loop spent {spent} tick(s) over a {waited:?} wait");
}

/// Four shard processes behind a proxy process: `/results` equals what
/// a plain `regend` serves; a 64-connection `regen loadgen` burst over
/// the table1 cells stays all 200 while the owner of the first key is
/// SIGKILLed, about 900 requests in. The proxy keeps every cell it
/// reads, so after their first reads the burst's cells are proxy cache
/// hits and survive the kill; test threads meanwhile read cells of
/// tables 3 to 8 that the victim owns and the proxy has not read yet,
/// from before the kill to after it, so hops to the victim are in
/// flight when it dies. Every read stays a 200 with the plain bytes, the
/// proxy counts the failover and marks the victim down, and a
/// replacement started from the victim's journal, in its place behind a
/// fresh proxy, replays cells and serves the same `/results`.
#[test]
#[cfg_attr(debug_assertions, ignore = "release builds only")]
fn spawned_cluster_survives_a_sigkilled_shard_and_resumes_it_from_its_journal() {
    const READERS: usize = 2;
    let dir = scratch("cluster-soak");
    let keys = cell_keys();
    let ring = HashRing::new(4);
    let victim = ring.owner(&keys[0]);
    let late: Vec<(String, String)> =
        table_cells().into_iter().filter(|(key, _)| ring.owner(key) == victim).collect();
    assert!(late.len() >= 2 * READERS, "the victim owns {} late cell(s)", late.len());
    let serial = Daemon::spawn(&["--quick", "--workers", "2"]);
    let expect = get(&serial.base, "/results");
    assert_eq!(expect.status, 200);
    let late_bodies: Vec<Vec<u8>> =
        late.iter().map(|(_, path)| get(&serial.base, path).body).collect();
    assert!(serial.terminate().0.success());

    let journal = |i: usize| dir.join(format!("shard{i}.jsonl")).to_string_lossy().into_owned();
    let shard = |i: usize| Daemon::spawn(&["--quick", "--workers", "2", "--journal", &journal(i)]);
    let mut shards: Vec<Daemon> = (0..4).map(shard).collect();
    let mut addrs: Vec<String> = shards.iter().map(|s| s.addr().to_string()).collect();
    let proxy_args = ["--quick", "--workers", "4", "--queue", "4096", "--probe-interval-ms", "50"];
    let proxy_for = |addrs: &[String]| {
        let list = addrs.join(",");
        Daemon::spawn(&[&proxy_args[..], &["--shard-addrs", &list]].concat())
    };
    let proxy = proxy_for(&addrs);
    assert!(get(&proxy.base, "/healthz").text().contains("\"shards\":["));
    assert_eq!(get(&proxy.base, "/results").body, expect.body, "cluster /results");

    let before = metric(&get(&proxy.base, "/metrics").text(), "regend_requests_total");
    let mut loadgen = Command::new(binary("regen"));
    loadgen.args(["loadgen", "--rate", "300", "--requests", "3000", "--connections", "64"]);
    for key in &keys {
        loadgen.args(["--target", &format!("{}{}", proxy.base, cell_path(key))]);
    }
    let burst = loadgen.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn();
    let burst = burst.expect("spawn regen loadgen");
    let (killed, base) = (AtomicBool::new(false), proxy.base.as_str());
    std::thread::scope(|s| {
        // Each reader takes every READERS-th late cell, one every 100 ms,
        // and holds its second half back until the victim is dead.
        for reader in 0..READERS {
            let (late, late_bodies, killed) = (&late, &late_bodies, &killed);
            s.spawn(move || {
                let mine: Vec<usize> = (reader..late.len()).step_by(READERS).collect();
                for (n, &i) in mine.iter().enumerate() {
                    while n >= mine.len() / 2 && !killed.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    let r = get(base, &late[i].1);
                    assert_eq!(r.status, 200, "late cell {}", late[i].0);
                    assert_eq!(r.body, late_bodies[i], "late cell {}", late[i].0);
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
        }
        // Mid-burst: once the proxy has admitted 900 of its 3,000 requests.
        let admitted = before + 900.0;
        let seen = await_metric(base, "regend_requests_total", admitted, Duration::from_secs(30));
        if seen >= admitted {
            shards[victim].sigkill();
        }
        // Released even if the burst stalled, so the readers finish and
        // the assertion below reports it instead of the test hanging.
        killed.store(true, Ordering::SeqCst);
        assert!(seen >= admitted, "the burst stalled at {} request(s)", seen - before);
    });
    assert_loadgen_all_200(burst.wait_with_output().expect("regen loadgen"), 3_000);
    let failovers = metric(&get(&proxy.base, "/metrics").text(), "regend_shard_failovers_total");
    assert!(failovers >= 1.0, "failovers: {failovers}");
    let state = format!("regend_shard_state{{shard=\"{victim}\"}}");
    let down = await_metric(&proxy.base, &state, 2.0, Duration::from_secs(10));
    assert_eq!(down, 2.0, "the prober marks shard {victim} down");
    assert!(proxy.terminate().0.success());

    let replacement = shard(victim);
    addrs[victim] = replacement.addr().to_string();
    let proxy = proxy_for(&addrs);
    assert_eq!(get(&proxy.base, "/results").body, expect.body, "resumed cluster /results");
    let replayed = metric(&get(&replacement.base, "/metrics").text(), "regen_cells_replayed_total");
    assert!(replayed >= 1.0, "the replacement replayed the victim's journal: {replayed}");

    shards.remove(victim);
    for daemon in [proxy, replacement].into_iter().chain(shards) {
        let (status, log) = daemon.terminate();
        assert!(status.success() && log.contains("regend: drained"), "{status}:\n{log}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The serving tier's fault space, enumerated by `regend campaign`,
/// classifies every coordinate with no silent corruption and renders
/// `CAMPAIGN_CLUSTER_BASELINE.json` byte for byte.
#[test]
#[cfg_attr(debug_assertions, ignore = "release builds only")]
fn cluster_campaign_matches_its_committed_baseline() {
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/CAMPAIGN_CLUSTER_BASELINE.json");
    let out = Command::new(binary("regend"))
        .args(["campaign", "--shards", "4", "--check", baseline])
        .output()
        .expect("regend campaign");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stdout}{stderr}");
    assert!(stdout.contains("no silent corruption"), "{stdout}");
    assert!(stderr.contains("matches baseline"), "{stderr}");
}
