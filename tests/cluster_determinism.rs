//! Cluster determinism: a sharded `regend` deployment — N shard
//! servers behind a forwarding proxy — must hand every client the
//! exact bytes a serial in-process sweep produces, with faults on the
//! proxy↔shard network hop, and with a shard lost mid-burst and later
//! resumed from its journal.
//!
//! Everything here is in-process (threads + loopback TCP, ports
//! chosen by the kernel) so drains are deterministic;
//! `tests/regend_processes.rs` covers the spawned-process path with a
//! real SIGKILL. The last test flips every bit, and every pair of bits,
//! of a signed shard reply on its way through the hop check.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bench::{Artifact, RegenOptions};
use serve::cluster_campaign::burst_paths;
use serve::{
    boot_shards, proxy_config, HashRing, Response, RunSummary, ServerConfig, ServerHandle,
    ShardInstance,
};
use spectrebench::json::{self, Value};
use spectrebench::{
    crc32, enumerate_cluster_coordinates, FaultKind, FaultPlan, FaultPoint, NetFaultKind,
    NetFaultPlan,
};

mod support;
use support::{
    await_metric, boot, cell_keys, cell_path, get, metric, scratch, serial_blocks, table_cells,
};

fn drain_all(shards: Vec<ShardInstance>) {
    for s in shards {
        s.handle.drain();
        let _ = s.join.join();
    }
}

/// Each table1 cell's body, read from the shard that owns its key (not
/// through a proxy, which would keep it).
fn read_from_owners(addrs: &[String], keys: &[String]) -> Vec<String> {
    let ring = HashRing::new(addrs.len());
    let owner = |key: &str| format!("http://{}", addrs[ring.owner(key)]);
    keys.iter().map(|k| get(&owner(k), &cell_path(k)).text()).collect()
}

/// The tentpole guarantee: 64 concurrent clients bursting against a
/// 4-shard cluster observe bytes identical to a serial sweep; the
/// reassembled `/results` document matches too; the proxy actually
/// fetched from shards (this was not one server wearing a trench
/// coat); and `/healthz` reports the full shard roster healthy.
#[test]
fn sixty_four_clients_against_four_shards_match_a_serial_sweep() {
    const CLIENTS: usize = 64;
    let artifacts = Artifact::ALL;
    let expect = serial_blocks(&artifacts, true, RegenOptions::default());
    let expected_results: String = expect.concat();

    let base_cfg = ServerConfig {
        quick: true,
        workers: 2,
        queue_capacity: 2 * CLIENTS * artifacts.len(),
        probe_interval: Duration::from_millis(50),
        ..ServerConfig::default()
    };
    let shards = boot_shards(&base_cfg, 4).expect("boot shard tier");
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let (proxy, handle, join) = boot(proxy_config(&base_cfg, addrs));

    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (proxy, expect, mismatches) = (&proxy, &expect, &mismatches);
            s.spawn(move || {
                for i in 0..artifacts.len() {
                    let idx = (i + client) % artifacts.len();
                    let a = artifacts[idx];
                    let r = get(proxy, &format!("/artifact/{}", a.name()));
                    assert_eq!(r.status, 200, "client {client}: {}", a.name());
                    assert!(
                        r.header("x-regend-shard-degraded").is_none(),
                        "no failover on a healthy cluster ({})",
                        a.name()
                    );
                    if r.text() != expect[idx] {
                        mismatches.fetch_add(1, Ordering::SeqCst);
                        eprintln!("client {client}: byte mismatch on {}", a.name());
                    }
                }
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::SeqCst), 0, "every client sees the serial bytes");

    let results = get(&proxy, "/results");
    assert_eq!(results.status, 200);
    assert_eq!(
        results.text(),
        expected_results,
        "/results reassembled from shard fan-out is the serial document"
    );

    // The proxy's own telemetry: it really fetched from shards, and
    // /healthz names all four, healthy, with fresh probe ages.
    let metrics = get(&proxy, "/metrics").text();
    assert!(
        metric(&metrics, "regend_shard_fetches_total") >= artifacts.len() as f64,
        "at least one owner fetch per artifact"
    );
    assert_eq!(metric(&metrics, "regend_shard_failovers_total"), 0.0);
    let health = get(&proxy, "/healthz").text();
    assert!(health.contains("\"status\":\"ok\""), "{health}");
    for shard in 0..4 {
        assert!(health.contains(&format!("\"shard\":{shard}")), "{health}");
    }
    assert_eq!(health.matches("\"state\":\"healthy\"").count(), 4, "{health}");

    handle.drain();
    let summary = join.join().expect("proxy thread");
    assert_eq!(summary.rejected, 0, "queue was sized for the burst");
    drain_all(shards);
}

/// Seeded network faults on every proxy↔shard hop: a targeted
/// first-attempt fault on each distinct hop plus background noise on
/// later attempts. Retry and failover must keep every response at 200
/// with serial bytes — the CRC check turns wire damage into detected
/// transient failures, so no corruption can reach a client.
#[test]
fn bursts_under_net_faults_on_every_hop_stay_byte_identical() {
    const CLIENTS: usize = 16;
    let artifacts = [Artifact::Table1, Artifact::Table2, Artifact::Table9, Artifact::Table10];
    let expect = serial_blocks(&artifacts, true, RegenOptions::default());

    // Ground truth for cell bodies: a plain single server (already
    // pinned against the sweep by tests/serve_determinism.rs).
    let keys = cell_keys();
    let (plain, plain_handle, plain_join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        ..ServerConfig::default()
    });
    let cell_expect: Vec<String> =
        keys.iter().map(|k| get(&plain, &cell_path(k)).text()).collect();
    plain_handle.drain();
    plain_join.join().expect("plain server");

    // Every distinct hop takes a drop on its first attempt; later
    // attempts roll seeded dice over all four fault kinds. Both plans
    // ride the same deterministic (seed, hop, attempt) hashing.
    let plan = NetFaultPlan::seeded(0xC1A5_7E12, 0.2)
        .fail_hop(None, "", NetFaultKind::Drop, Some(1));
    let base_cfg = ServerConfig {
        quick: true,
        workers: 2,
        queue_capacity: 4 * CLIENTS * keys.len(),
        probe_interval: Duration::from_millis(50),
        fetch_attempts: 3,
        ..ServerConfig::default()
    };
    let shards = boot_shards(&base_cfg, 4).expect("boot shard tier");
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let mut proxy_cfg = proxy_config(&base_cfg, addrs);
    proxy_cfg.net_inject = Some(plan);
    let (proxy, handle, join) = boot(proxy_cfg);

    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (proxy, expect, keys, cell_expect, mismatches) =
                (&proxy, &expect, &keys, &cell_expect, &mismatches);
            s.spawn(move || {
                for (i, a) in artifacts.iter().enumerate() {
                    let r = get(proxy, &format!("/artifact/{}", a.name()));
                    assert_eq!(r.status, 200, "client {client}: {}", a.name());
                    if r.text() != expect[i] {
                        mismatches.fetch_add(1, Ordering::SeqCst);
                    }
                }
                // A cell's first reads cross the faulted wire; once one
                // is verified (or recomputed on failover) the proxy keeps
                // it, and later reads of it are proxy cache hits.
                for (i, key) in keys.iter().enumerate() {
                    let r = get(proxy, &cell_path(key));
                    assert_eq!(r.status, 200, "client {client}: cell {key}");
                    if r.text() != cell_expect[i] {
                        mismatches.fetch_add(1, Ordering::SeqCst);
                        eprintln!("client {client}: cell mismatch on {key}");
                    }
                }
            });
        }
    });
    assert_eq!(
        mismatches.load(Ordering::SeqCst),
        0,
        "faults on the shard hop never surface as different bytes"
    );

    let metrics = get(&proxy, "/metrics").text();
    assert!(
        metric(&metrics, "regend_net_faults_injected_total") >= keys.len() as f64,
        "the plan actually fired on the hops"
    );

    handle.drain();
    join.join().expect("proxy thread");
    drain_all(shards);
}

/// Shard loss and resume: one shard of two goes away mid-burst — every
/// in-burst response still carries serial bytes (failover recomputes
/// locally, stamped with degraded markers); the prober marks the shard
/// down; and a replacement booted from the lost shard's journal
/// replays its cells instead of recomputing, behind a fresh proxy,
/// still byte-identical.
#[test]
fn shard_loss_mid_burst_fails_over_and_resumes_from_the_journal() {
    const CLIENTS: usize = 16;
    let dir = scratch("cluster-journal");
    let keys = cell_keys();

    let base_cfg = ServerConfig {
        quick: true,
        workers: 2,
        queue_capacity: 4 * CLIENTS * keys.len(),
        journal: Some(dir.join("journal.jsonl")),
        probe_interval: Duration::from_millis(25),
        fetch_attempts: 2,
        ..ServerConfig::default()
    };
    let mut shards = boot_shards(&base_cfg, 2).expect("boot shard tier");
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let (proxy, handle, join) = boot(proxy_config(&base_cfg, addrs.clone()));

    // Phase 1: warm pass, straight to each key's owner. Each cell
    // computes on its owning shard (and lands in that shard's journal);
    // the bodies are the ground truth for everything after. The proxy
    // keeps every cell it reads, so it stays cold until after the loss.
    let expect = read_from_owners(&addrs, &keys);

    // Kill the shard that owns the first key, so the burst is
    // guaranteed to cross the hole. (In-process stand-in for SIGKILL;
    // the CI soak job kills a real process.)
    let victim = HashRing::new(2).owner(&keys[0]);
    let lost = shards.remove(victim);
    lost.handle.drain();
    let _ = lost.join.join();

    // Phase 2: burst across the hole. Every response must still be the
    // phase-1 bytes; requests that needed the dead shard fail over to
    // the proxy's local executor and say so on the wire.
    let failovers = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (proxy, keys, expect, failovers) = (&proxy, &keys, &expect, &failovers);
            s.spawn(move || {
                for (i, key) in keys.iter().enumerate() {
                    let r = get(proxy, &cell_path(key));
                    assert_eq!(r.status, 200, "client {client}: cell {key}");
                    assert_eq!(r.text(), expect[i], "client {client}: bytes changed after loss");
                    if r.header("x-regend-shard-degraded").is_some() {
                        failovers.fetch_add(1, Ordering::SeqCst);
                    }
                }
            });
        }
    });
    assert!(
        failovers.load(Ordering::SeqCst) >= 1,
        "keys owned by the lost shard were answered via failover"
    );
    assert!(
        await_metric(&proxy, "regend_shard_failovers_total", 1.0, Duration::from_secs(10)) >= 1.0
    );
    // The prober marks the victim down (gauge 2; the survivor holds 0).
    assert!(
        await_metric(&proxy, "regend_shard_state", 2.0, Duration::from_secs(10)) >= 2.0,
        "prober never marked the lost shard down"
    );

    handle.drain();
    join.join().expect("proxy thread");

    // Resume: a replacement shard boots from the victim's journal on a
    // fresh port. Its first queries replay journalled cells instead of
    // recomputing them.
    let resumed_cfg = ServerConfig {
        journal: base_cfg.journal.as_ref().map(|p| {
            let mut os = p.clone().into_os_string();
            os.push(format!("-shard{victim}"));
            PathBuf::from(os)
        }),
        ..base_cfg.clone()
    };
    let (resumed, resumed_handle, resumed_join) = boot(resumed_cfg);
    let survivor_addr = shards[0].addr.clone();
    let resumed_addr = resumed.strip_prefix("http://").expect("base url").to_string();
    let new_addrs = if victim == 0 {
        vec![resumed_addr, survivor_addr]
    } else {
        vec![survivor_addr, resumed_addr]
    };
    let (proxy2, handle2, join2) = boot(proxy_config(&base_cfg, new_addrs));
    for (i, key) in keys.iter().enumerate() {
        let r = get(&proxy2, &cell_path(key));
        assert_eq!(r.status, 200, "post-resume cell {key}");
        assert_eq!(r.text(), expect[i], "post-resume bytes for {key}");
        assert!(
            r.header("x-regend-shard-degraded").is_none(),
            "no failover once the shard is back ({key})"
        );
    }
    let replayed = metric(&get(&resumed, "/metrics").text(), "regen_cells_replayed_total");
    assert!(
        replayed >= 1.0,
        "the resumed shard answered from its journal, not by recomputing"
    );

    handle2.drain();
    join2.join().expect("proxy2 thread");
    resumed_handle.drain();
    resumed_join.join().expect("resumed shard");
    drain_all(shards);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a proxy whose rendered cache was filled from shard
/// bytes (one `/results` fetch) must still answer cells by failover
/// when the owner dies. The rendered body proves nothing about the
/// proxy's *cell* cache — an earlier build answered 404 here, because
/// cell failover asked `obtain`, which was satisfied by the
/// shard-filled rendered entry without ever running the sweep locally.
#[test]
fn cell_failover_still_computes_after_results_warmed_the_rendered_cache() {
    let keys = cell_keys();
    let base_cfg = ServerConfig {
        quick: true,
        workers: 2,
        probe_interval: Duration::from_millis(25),
        fetch_attempts: 2,
        ..ServerConfig::default()
    };
    let mut shards = boot_shards(&base_cfg, 2).expect("boot shard tier");
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();
    let (proxy, handle, join) = boot(proxy_config(&base_cfg, addrs.clone()));

    // Ground truth for the cells, read straight from their owners: a
    // read through the proxy would keep the cell there, and the loss
    // below would then need no failover.
    let expect = read_from_owners(&addrs, &keys);
    // THE trigger: /results fills the proxy's rendered cache for every
    // artifact from shard bytes, without a single local cell value.
    assert_eq!(get(&proxy, "/results").status, 200);

    let victim = HashRing::new(2).owner(&keys[0]);
    let lost = shards.remove(victim);
    lost.handle.drain();
    let _ = lost.join.join();

    for (i, key) in keys.iter().enumerate() {
        let r = get(&proxy, &cell_path(key));
        assert_eq!(r.status, 200, "cell {key} after owner loss");
        assert_eq!(r.text(), expect[i], "cell {key} bytes after owner loss");
    }
    let metrics = get(&proxy, "/metrics").text();
    assert!(
        metric(&metrics, "regend_shard_failovers_total") >= 1.0,
        "the lost shard's keys were answered by local recompute"
    );

    handle.drain();
    join.join().expect("proxy thread");
    drain_all(shards);
}

/// A probe interval long enough that the prober makes only its first
/// round during a test, so `regend_shard_fetches_total` then counts
/// data hops alone.
const PROBES_OFF: Duration = Duration::from_secs(3600);

/// A cluster whose prober is effectively off: `n` shards and a proxy
/// whose config `tune` adjusts, returned once the prober's one round
/// has reached every shard.
fn quiet_cluster(
    n: usize,
    tune: impl FnOnce(&mut ServerConfig),
) -> (Vec<ShardInstance>, String, ServerHandle, JoinHandle<RunSummary>) {
    let base_cfg = ServerConfig {
        quick: true,
        workers: 2,
        probe_interval: PROBES_OFF,
        ..ServerConfig::default()
    };
    let shards = boot_shards(&base_cfg, n).expect("boot shard tier");
    let mut cfg = proxy_config(&base_cfg, shards.iter().map(|s| s.addr.clone()).collect());
    tune(&mut cfg);
    let (proxy, handle, join) = boot(cfg);
    let probes = Duration::from_secs(10);
    let probed = await_metric(&proxy, "regend_shard_fetches_total", n as f64, probes);
    assert_eq!(probed, n as f64, "one probe per shard, then none");
    (shards, proxy, handle, join)
}

/// The `cache_cells` count a server's `/healthz` reports: the cells its
/// executor holds.
fn cache_cells(base: &str) -> usize {
    let health = json::parse(&get(base, "/healthz").text()).expect("/healthz is JSON");
    health.get("cache_cells").and_then(Value::num).expect("cache_cells")
}

/// The proxy keeps every cell a shard sends it: a second read of a cell
/// is answered on the proxy's event loop, with the same bytes and
/// signature, no shard hop, and one cell cache hit.
#[test]
fn a_second_cell_read_is_a_proxy_cache_hit_with_no_hop() {
    let keys = cell_keys();
    let (shards, proxy, handle, join) = quiet_cluster(2, |_| {});
    let first: Vec<_> = keys.iter().map(|k| get(&proxy, &cell_path(k))).collect();
    let before = get(&proxy, "/metrics").text();
    for (key, first) in keys.iter().zip(&first) {
        let second = get(&proxy, &cell_path(key));
        assert_eq!((first.status, second.status), (200, 200), "{key}");
        assert_eq!(second.body, first.body, "{key}");
        assert_eq!(second.header("x-regend-crc32"), first.header("x-regend-crc32"), "{key}");
    }
    let after = get(&proxy, "/metrics").text();
    let delta = |name| metric(&after, name) - metric(&before, name);
    assert_eq!(delta("regend_shard_fetches_total"), 0.0, "no second read hopped");
    assert_eq!(delta("regend_cell_cache_hits_total"), keys.len() as f64);
    assert_eq!(cache_cells(&proxy), keys.len());

    handle.drain();
    join.join().expect("proxy thread");
    drain_all(shards);
}

/// After one read of each table1 cell, losing a shard changes nothing a
/// client sees: every read is a 200 with the same bytes, none is marked
/// degraded, and the proxy counts no failover and makes no hop.
#[test]
fn a_warm_cell_survives_the_loss_of_its_owner_without_failover() {
    const CLIENTS: usize = 4;
    let keys = cell_keys();
    let (mut shards, proxy, handle, join) = quiet_cluster(2, |_| {});
    let expect: Vec<String> = keys.iter().map(|k| get(&proxy, &cell_path(k)).text()).collect();
    let before = get(&proxy, "/metrics").text();

    let lost = shards.remove(HashRing::new(2).owner(&keys[0]));
    lost.handle.drain();
    let _ = lost.join.join();

    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (proxy, keys, expect) = (&proxy, &keys, &expect);
            s.spawn(move || {
                for (key, expect) in keys.iter().zip(expect) {
                    let r = get(proxy, &cell_path(key));
                    assert_eq!(r.status, 200, "client {client}: cell {key}");
                    assert_eq!(&r.text(), expect, "client {client}: bytes changed after loss");
                    let degraded = r.header("x-regend-shard-degraded");
                    assert_eq!(degraded, None, "client {client}: {key} failed over");
                }
            });
        }
    });
    let after = get(&proxy, "/metrics").text();
    let delta = |name| metric(&after, name) - metric(&before, name);
    assert_eq!(delta("regend_shard_failovers_total"), 0.0);
    assert_eq!(delta("regend_shard_fetches_total"), 0.0);
    assert_eq!(delta("regend_cell_cache_hits_total"), (CLIENTS * keys.len()) as f64);

    handle.drain();
    join.join().expect("proxy thread");
    drain_all(shards);
}

/// A loopback stand-in for one shard, on keep-alive sockets: it answers
/// `/healthz` with a signed 200 and any other path with a 200 signed
/// over `reply(path)`, and logs every path it is asked for.
struct FakeShard {
    addr: String,
    log: Arc<Mutex<Vec<String>>>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl FakeShard {
    fn spawn(reply: impl Fn(&str) -> String + Send + Sync + 'static) -> FakeShard {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking listener");
        let addr = listener.local_addr().expect("addr").to_string();
        let (log, stop) = (Arc::new(Mutex::new(Vec::new())), Arc::new(AtomicBool::new(false)));
        let (served, stopped, reply) = (Arc::clone(&log), Arc::clone(&stop), Arc::new(reply));
        let thread = std::thread::spawn(move || {
            let mut conns = Vec::new();
            while !stopped.load(Ordering::SeqCst) {
                let Ok((stream, _)) = listener.accept() else {
                    std::thread::sleep(Duration::from_millis(1));
                    continue;
                };
                let (reply, served) = (Arc::clone(&reply), Arc::clone(&served));
                conns.push(std::thread::spawn(move || serve_fake(stream, &*reply, &served)));
            }
            for conn in conns {
                conn.join().expect("fake shard connection");
            }
        });
        FakeShard { addr, log, stop, thread }
    }

    /// How many requests have asked for a path starting with `prefix`.
    fn hops(&self, prefix: &str) -> usize {
        self.log.lock().expect("log").iter().filter(|p| p.starts_with(prefix)).count()
    }

    /// Stops accepting and joins every connection, each of which ends
    /// when its client closes it.
    fn join(self) {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.join().expect("fake shard");
    }
}

/// One connection of a [`FakeShard`], until its client closes it.
fn serve_fake(
    mut stream: std::net::TcpStream,
    reply: &dyn Fn(&str) -> String,
    log: &Mutex<Vec<String>>,
) {
    use std::io::{Read, Write};

    stream.set_nonblocking(false).expect("blocking socket");
    loop {
        let (mut head, mut byte) = (Vec::new(), [0u8]);
        while !head.ends_with(b"\r\n\r\n") {
            match stream.read(&mut byte) {
                Ok(1) => head.push(byte[0]),
                _ => return,
            }
        }
        let head = String::from_utf8_lossy(&head);
        let path = head.split(' ').nth(1).unwrap_or_default().to_string();
        let body = if path == "/healthz" { "{}\n".to_string() } else { reply(&path) };
        log.lock().expect("log").push(path);
        let signed = format!("{:08x}", crc32(body.as_bytes()));
        let resp = Response::json(200, body.clone()).with_header("X-Regend-Crc32", signed);
        let mut wire = resp.render_head(true);
        wire.extend_from_slice(body.as_bytes());
        if stream.write_all(&wire).is_err() {
            return;
        }
    }
}

/// A signed 200 is kept only if it is the cell asked for. A shard that
/// signs another cell's bytes, then a body that does not decode, gets
/// each read failed over to the right bytes, marked degraded; nothing
/// is filled from either, so the next read hops again; and a genuine
/// reply after them is kept like any other.
#[test]
fn a_signed_200_for_another_cell_or_an_undecodable_one_fails_over_and_fills_nothing() {
    // Cells of three artifacts (table1, table3, table4): a failover
    // sweeps one artifact locally, which must not cover the next read.
    let tables = table_cells();
    let (a, b, c) = (cell_path(&cell_keys()[0]), tables[0].1.clone(), tables[8].1.clone());
    let (plain, plain_handle, plain_join) =
        boot(ServerConfig { quick: true, workers: 2, ..ServerConfig::default() });
    let (a_body, b_body) = (get(&plain, &a).text(), get(&plain, &b).text());
    // What a proxy that swept table1 and table3 itself holds.
    let swept = cache_cells(&plain);
    let c_body = get(&plain, &c).text();
    plain_handle.drain();
    plain_join.join().expect("plain server");

    let (b_reply, c_reply) = (b_body.clone(), c_body.clone());
    let shard = FakeShard::spawn(move |path| {
        if path.starts_with("/cell/table1/") {
            b_reply.clone() // another cell's genuine bytes, signed
        } else if path.starts_with("/cell/table3/") {
            b_reply[..b_reply.len() / 2].to_string() // a body cut short, signed
        } else {
            c_reply.clone()
        }
    });
    let cfg = ServerConfig {
        quick: true,
        workers: 2,
        probe_interval: PROBES_OFF,
        shard_addrs: vec![shard.addr.clone()],
        ..ServerConfig::default()
    };
    let (proxy, handle, join) = boot(cfg);

    for (path, body, table) in [(&a, &a_body, "/cell/table1/"), (&b, &b_body, "/cell/table3/")] {
        let r = get(&proxy, path);
        assert_eq!((r.status, &r.text()), (200, body), "{path}: the right bytes");
        assert_eq!(r.header("x-regend-shard-degraded"), Some("0"), "{path}: by failover");
        assert_eq!(shard.hops(table), 1, "{path}: hopped once, as nothing held it");
    }
    assert_eq!(cache_cells(&proxy), swept, "only what its own two sweeps made");

    let r = get(&proxy, &c);
    assert_eq!((r.status, r.header("x-regend-shard-degraded")), (200, None));
    assert_eq!(r.text(), c_body);
    assert_eq!(cache_cells(&proxy), swept + 1, "the genuine reply was kept");
    assert_eq!(get(&proxy, &c).text(), c_body);
    assert_eq!(shard.hops("/cell/"), 3, "a kept cell's second read makes no hop");

    handle.drain();
    join.join().expect("proxy thread");
    drop(handle); // the last owner of the proxy's pooled shard connections
    shard.join();
}

/// A hop damaged on its only attempt fills nothing. The proxy's own
/// executor is made to fail every cell, so only a fill could put one in
/// its cache: after the damaged read the cache is empty; the next read,
/// on a clean hop, fills the cell; the third is a hit with no hop.
#[test]
fn a_hop_damaged_on_its_only_attempt_fills_nothing() {
    let key = &cell_keys()[0];
    for kind in [NetFaultKind::CorruptByte, NetFaultKind::Truncate] {
        let (shards, proxy, handle, join) = quiet_cluster(1, |cfg| {
            cfg.fetch_attempts = 1;
            // Only the first hop to each cell path is damaged.
            cfg.net_inject = Some(NetFaultPlan::new().fail_hop(None, "/cell/", kind, Some(1)));
            cfg.inject = Some(FaultPlan::new().fail_cell("", FaultKind::SimFault, None));
            cfg.retries = Some(1);
        });
        let expect = get(&format!("http://{}", shards[0].addr), &cell_path(key)).text();

        let damaged = get(&proxy, &cell_path(key));
        assert_ne!(damaged.status, 200, "{kind:?}: the failover cannot compute");
        assert_eq!(damaged.header("x-regend-shard-degraded"), Some("0"), "{kind:?}");
        assert_eq!(cache_cells(&proxy), 0, "{kind:?}: nothing filled");
        let fetches = || metric(&get(&proxy, "/metrics").text(), "regend_shard_fetches_total");
        let before = fetches();
        let clean = get(&proxy, &cell_path(key));
        assert_eq!((clean.status, clean.text()), (200, expect.clone()), "{kind:?}");
        assert_eq!(clean.header("x-regend-shard-degraded"), None, "{kind:?}");
        assert_eq!(cache_cells(&proxy), 1, "{kind:?}");
        assert_eq!(get(&proxy, &cell_path(key)).text(), expect, "{kind:?}");
        assert_eq!(fetches() - before, 1.0, "{kind:?}: one clean hop, then a hit");

        handle.drain();
        join.join().expect("proxy thread");
        drain_all(shards);
    }
}

/// The seeded net-fault plan itself is deterministic: the same (seed,
/// hop, attempt) triple decides the same way in two independently
/// parsed plans — the property the campaign baseline rests on.
#[test]
fn net_fault_spec_round_trip_is_deterministic() {
    let a = NetFaultPlan::parse_spec("seed=7:prob=0.3").expect("spec");
    let b = NetFaultPlan::parse_spec("seed=7:prob=0.3").expect("spec");
    for attempt in 0..50u32 {
        for shard in 0..4usize {
            assert_eq!(
                a.inject(shard, "/cell/table1/x", attempt),
                b.inject(shard, "/cell/table1/x", attempt)
            );
        }
    }
}

/// The committed cluster baseline has the shape `regend campaign`
/// produces today: one request per burst path, the enumerated
/// coordinate space in order, and zero silent corruption. A new
/// artifact grows the burst and fails here, not only in the cluster
/// soak's drift check.
#[test]
fn committed_cluster_baseline_matches_the_campaign_shape() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/CAMPAIGN_CLUSTER_BASELINE.json");
    let text = std::fs::read_to_string(path).expect("committed cluster baseline");
    let report = json::parse(&text).expect("baseline is JSON");
    let inputs = report.get("cluster_campaign").expect("campaign inputs");
    let count = |field: &str| inputs.get(field).and_then(Value::num::<usize>).expect(field);
    let quick = matches!(inputs.get("quick"), Some(Value::Bool(true)));
    assert_eq!(count("requests_per_coordinate"), burst_paths(quick).len());
    let rows = report.get("results").and_then(Value::as_array).expect("results");
    let ids: Vec<&str> =
        rows.iter().map(|row| row.get("coord").and_then(Value::as_str).expect("id")).collect();
    let space: Vec<String> =
        enumerate_cluster_coordinates(count("shards")).iter().map(FaultPoint::id).collect();
    assert_eq!(ids, space, "every coordinate, in enumeration order");
    let silent = report.get("summary").and_then(|s| s.get("silent-corruption"));
    assert_eq!(silent.and_then(Value::num::<u64>), Some(0));
}

/// Wire damage on the hop is detected or harmless: every single-bit
/// and every two-bit flip of a signed shard `/cell` reply is either
/// refused or passes with the status, body and markers the shard sent.
/// Single flips cross the real hop (`Cluster::fetch` against a loopback
/// shard that closes after each reply); pairs go through the same
/// parser and hop check without a socket.
#[test]
fn bit_flips_in_a_shard_reply_never_pass_the_hop_changed() {
    use std::io::{Read, Write};

    use serve::client::{parse_response, HttpResponse};
    use serve::shard::verify_hop;
    use serve::{Cluster, Response};
    use spectrebench::{cell_value_json, crc32, CellValue, EventBus};

    // The reply a shard sends for a cached cell (`checksummed_json`).
    let value = CellValue::Flags(vec![Some(true), Some(false), None]);
    let body = format!("{}\n", cell_value_json("Broadwell/mitigations", 0, &value));
    let signed = format!("{:08x}", crc32(body.as_bytes()));
    let reply = Response::json(200, body.clone()).with_header("X-Regend-Crc32", signed);
    let mut wire = reply.render_head(true);
    wire.extend_from_slice(body.as_bytes());
    // What the proxy relays of a reply.
    let relayed = |r: &HttpResponse| {
        let marked = |name| r.header(name).is_some();
        (r.status, r.body.clone(), marked("x-regend-degraded"), marked("x-regend-quick"))
    };
    let intact = parse_response(&wire).expect("the intact reply parses");
    assert_eq!(verify_hop(&intact), Ok(()));
    let want = relayed(&intact);
    let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (bit % 8);
    let bits = wire.len() * 8;

    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addrs = [listener.local_addr().expect("addr").to_string()];
    let mutants: Vec<Vec<u8>> = (0..bits)
        .map(|bit| {
            let mut m = wire.clone();
            flip(&mut m, bit);
            m
        })
        .collect();
    let shard = std::thread::spawn(move || {
        for mutant in mutants {
            let (mut stream, _) = listener.accept().expect("accept");
            let (mut head, mut byte) = (Vec::new(), [0u8]);
            while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).expect("read") == 1 {
                head.push(byte[0]);
            }
            stream.write_all(&mutant).expect("reply");
        }
    });
    let bus = EventBus::new();
    let mut changed = Vec::new();
    for bit in 0..bits {
        let hop = Cluster::new(&addrs, None, 1).fetch(&bus, 0, "/cell/table1/x");
        if let Some(r) = hop.ok().filter(|r| relayed(r) != want) {
            changed.push((vec![bit], r.status));
        }
    }
    shard.join().expect("fake shard");

    let mut mutant = wire.clone();
    for i in 0..bits {
        flip(&mut mutant, i);
        for j in i + 1..bits {
            flip(&mut mutant, j);
            if let Ok(r) = parse_response(&mutant) {
                if verify_hop(&r).is_ok() && relayed(&r) != want {
                    changed.push((vec![i, j], r.status));
                }
            }
            flip(&mut mutant, j);
        }
        flip(&mut mutant, i);
    }
    let first = &changed[..changed.len().min(20)];
    assert!(changed.is_empty(), "{} accepted changed, first: {first:?}", changed.len());
}
