//! Serving determinism: `regend` must hand every client the exact
//! bytes an in-process sweep produces, no matter how many clients ask
//! at once, and no matter what faults the executor is absorbing
//! underneath.
//!
//! The servers here are in-process (bound to port 0) so the tests can
//! drain them deterministically via `ServerHandle`;
//! `tests/regend_processes.rs` covers the spawned-binary path (the
//! fetch client, open-loop load, the SIGTERM drain summary, resident
//! memory).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bench::{Artifact, RegenOptions};
use serve::client::{http_get, parse_response, Connection, HttpResponse};
use serve::ServerConfig;
use spectrebench::{FaultKind, FaultPlan};

mod support;
use support::{await_metric, boot, get, metric, scratch, serial_blocks};

/// The tentpole guarantee: 64 concurrent clients each fetching the
/// full artifact set observe bytes identical to a serial in-process
/// sweep, the concatenated `/results` document matches too, and the
/// hot traffic is served almost entirely out of the rendered cache
/// (single-flight keeps the cold computations to one per artifact).
#[test]
fn sixty_four_parallel_clients_match_a_serial_sweep() {
    const CLIENTS: usize = 64;
    let artifacts = Artifact::ALL;
    let expect = serial_blocks(&artifacts, true, RegenOptions::default());
    let expected_results: String = expect.concat();

    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 4,
        queue_capacity: 2 * CLIENTS * artifacts.len(),
        ..ServerConfig::default()
    });

    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (base, expect, mismatches) = (&base, &expect, &mismatches);
            s.spawn(move || {
                // Stagger the artifact order per client so the cold
                // phase exercises coalescing across different flights.
                for i in 0..artifacts.len() {
                    let idx = (i + client) % artifacts.len();
                    let a = artifacts[idx];
                    let r = get(base, &format!("/artifact/{}", a.name()));
                    assert_eq!(r.status, 200, "client {client}: {}", a.name());
                    if r.text() != expect[idx] {
                        mismatches.fetch_add(1, Ordering::SeqCst);
                        eprintln!("client {client}: byte mismatch on {}", a.name());
                    }
                }
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::SeqCst), 0, "every client sees the serial bytes");

    let results = get(&base, "/results");
    assert_eq!(results.status, 200);
    assert_eq!(results.text(), expected_results, "/results is the whole serial document");

    // A hot pass: every artifact again, all answered from the rendered
    // cache (>= 90% hit rate is the acceptance bar; in-process it is
    // exactly 100% because every flight already landed).
    let before = metric(&get(&base, "/metrics").text(), "regend_artifact_cache_hits_total");
    for a in artifacts {
        assert_eq!(get(&base, &format!("/artifact/{}", a.name())).status, 200);
    }
    let metrics = get(&base, "/metrics").text();
    let hot_hits = metric(&metrics, "regend_artifact_cache_hits_total") - before;
    assert!(
        hot_hits >= 0.9 * artifacts.len() as f64,
        "hot pass mostly cache hits: {hot_hits} of {}",
        artifacts.len()
    );
    // Cold-phase accounting: every artifact request beyond the first
    // computation per artifact was a rendered-cache hit or coalesced
    // into the in-flight computation.
    let requests = CLIENTS * artifacts.len();
    let deduped = metric(&metrics, "regend_artifact_cache_hits_total")
        + metric(&metrics, "regend_coalesced_total");
    assert!(
        deduped >= (requests - artifacts.len()) as f64,
        "single-flight + cache absorbed the fan-in: {deduped} of {requests}"
    );
    assert!(metric(&metrics, "regend_requests_total") >= requests as f64);
    assert_eq!(metric(&metrics, "regend_rejected_total"), 0.0, "queue was sized for the burst");

    handle.drain();
    let summary = join.join().expect("server thread");
    assert!(summary.served >= (requests + artifacts.len()) as u64);
    assert_eq!(summary.rejected, 0);
}

/// Fault tolerance is invisible on the wire: a server absorbing
/// injected compute panics and torn journal writes returns bytes
/// identical to a serial sweep under the same fault plan.
#[test]
fn faulted_server_matches_faulted_serial_sweep() {
    let dir = scratch("faults");
    // Transient faults only: two panics per matching cell (retry budget
    // is three) and torn writes on the journal append path. Both
    // recover, so the rendering must be the clean bytes.
    let plan = FaultPlan::new()
        .fail_cell("mitigations", FaultKind::PanicFault, Some(2))
        .fail_cell("table9", FaultKind::TornWrite, Some(3));
    let artifacts = [Artifact::Table1, Artifact::Table2, Artifact::Table9, Artifact::Table10];

    let expect = serial_blocks(
        &artifacts,
        true,
        RegenOptions {
            inject: Some(plan.clone()),
            resume: Some(dir.join("serial.jsonl")),
            ..RegenOptions::default()
        },
    );
    // The clean oracle: the faulted sweep must not have degraded.
    let clean = serial_blocks(&artifacts, true, RegenOptions::default());
    assert_eq!(expect, clean, "transient faults fully recovered serially");

    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        inject: Some(plan),
        journal: Some(dir.join("served.jsonl")),
        ..ServerConfig::default()
    });

    std::thread::scope(|s| {
        for _ in 0..8 {
            let (base, expect) = (&base, &expect);
            s.spawn(move || {
                for (i, a) in artifacts.iter().enumerate() {
                    let r = get(base, &format!("/artifact/{}", a.name()));
                    assert_eq!(r.status, 200);
                    assert_eq!(r.text(), expect[i], "{} under faults", a.name());
                    assert!(
                        r.header("x-regend-degraded").is_none(),
                        "{} should have recovered, not degraded",
                        a.name()
                    );
                }
            });
        }
    });

    // The journal absorbed the torn writes and still recorded the rest.
    assert!(dir.join("served.jsonl").exists());

    handle.drain();
    let summary = join.join().expect("server thread");
    assert!(summary.stats.faults_injected > 0, "the plan actually fired");
    assert!(summary.stats.retries > 0, "panics cost retries");
    assert_eq!(summary.stats.cells_failed, 0, "every cell recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Individual cells are queryable once their artifact has been
/// computed, in the journal's JSON payload shape, and unknown names
/// are guided toward valid ones.
#[test]
fn cell_queries_and_name_suggestions() {
    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        ..ServerConfig::default()
    });

    // /cell computes the owning artifact on demand (table1's cells are
    // keyed <microarch>/mitigations, without the experiment segment).
    let r = get(&base, "/cell/table1/Broadwell/mitigations?seed=0");
    assert_eq!(r.status, 200, "{}", r.text());
    assert_eq!(r.header("content-type"), Some("application/json"));
    let body = r.text();
    assert!(body.contains("\"cell\":\"Broadwell/mitigations\""), "{body}");
    assert!(body.contains("\"seed\":0"), "{body}");
    assert!(body.contains("\"kind\":"), "{body}");
    // A second read is answered on the event loop, from the cell cache.
    assert_eq!(get(&base, "/cell/table1/Broadwell/mitigations?seed=0").text(), body);
    let hits = metric(&get(&base, "/metrics").text(), "regend_cell_cache_hits_total");
    assert_eq!(hits, 1.0, "the first read computed, the second hit");

    // Unknown cell under a real experiment: 404 with a hint, not 500.
    let r = get(&base, "/cell/table1/NoSuchCpu/mitigations");
    assert_eq!(r.status, 404);
    assert!(r.text().contains("no cell"), "{}", r.text());

    // Typo'd artifact names suggest the closest valid one.
    let r = get(&base, "/artifact/figre2");
    assert_eq!(r.status, 404);
    assert!(r.text().contains("did you mean: figure2?"), "{}", r.text());
    let r = get(&base, "/cell/tabel1/Broadwell/mitigations");
    assert_eq!(r.status, 404);
    assert!(r.text().contains("did you mean: table1?"), "{}", r.text());

    // Non-default seeds are refused (the golden pin is seed 0).
    let r = get(&base, "/artifact/table1?seed=7");
    assert_eq!(r.status, 400);

    // The artifact index lists every name.
    let index = get(&base, "/artifacts").text();
    for a in Artifact::ALL {
        assert!(index.contains(a.name()), "index missing {}", a.name());
    }

    let health = get(&base, "/healthz");
    assert_eq!(health.status, 200);
    assert!(health.text().contains("\"status\":\"ok\""));

    handle.drain();
    join.join().expect("server thread");
}

/// `?deadline_ms=` is validated like `?quick=`, and a deadline that has
/// already passed answers 504 without computing or caching anything.
#[test]
fn deadline_ms_is_validated_and_an_expired_deadline_answers_504() {
    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        ..ServerConfig::default()
    });
    let r = get(&base, "/artifact/table1?deadline_ms=x");
    assert_eq!(r.status, 400, "{}", r.text());
    assert!(r.text().contains("deadline_ms"), "the error names the parameter: {}", r.text());

    // A cached artifact is answered inline, but not past its deadline.
    assert_eq!(get(&base, "/artifact/table1").status, 200);
    let r = get(&base, "/artifact/table1?deadline_ms=0");
    assert_eq!(r.status, 504, "{}", r.text());

    // A cold one expires in the dispatch queue, before any compute.
    let artifacts_cached = || {
        let health = spectrebench::json::parse(&get(&base, "/healthz").text()).expect("JSON");
        health.get("artifacts_cached").and_then(|v| v.num::<u64>()).expect("artifacts_cached")
    };
    let before = artifacts_cached();
    let r = get(&base, "/artifact/table2?deadline_ms=0");
    assert_eq!(r.status, 504);
    assert_eq!(r.text(), "regend: deadline expired in queue\n");
    assert_eq!(artifacts_cached(), before, "an expired request renders nothing");

    let metrics = get(&base, "/metrics").text();
    assert_eq!(metric(&metrics, "regend_deadline_expired_total"), 2.0, "{metrics}");

    handle.drain();
    join.join().expect("server thread");
}

/// Serving state does not grow with uptime: a plain `Core` folds each
/// request into its counters and keeps no event history, so `/metrics`
/// after 100,000 cached reads is as long as after 1,000 and still
/// counts every hit.
#[test]
fn serving_counters_stay_bounded_over_a_hundred_thousand_cached_reads() {
    use serve::core::{Action, Core};
    use serve::Request;

    let core = Core::new(ServerConfig { quick: true, ..ServerConfig::default() }).expect("core");
    let request = |path: &str| Request {
        method: "GET".to_string(),
        path: path.to_string(),
        query: Vec::new(),
        headers: Vec::new(),
        keep_alive: true,
    };
    let read = request("/artifact/table1");
    let Action::Slow(work) = core.route(&read, 0).1 else {
        panic!("a cold artifact is slow work")
    };
    assert_eq!(core.execute(&work, &read.path).status, 200);
    let scrape = || match core.route(&request("/metrics"), 0).1 {
        Action::Done(r) => String::from_utf8(r.body.as_bytes().to_vec()).expect("UTF-8"),
        _ => panic!("/metrics is answered inline"),
    };

    let hits_before = metric(&scrape(), "regend_artifact_cache_hits_total");
    let events_before = core.bus.len();
    let mut reads = 0usize;
    let mut expositions = Vec::new();
    for target in [1_000, 100_000] {
        while reads < target {
            match core.route(&read, 0).1 {
                Action::Done(r) => assert_eq!(r.status, 200),
                _ => panic!("a warm artifact is a cache hit"),
            }
            reads += 1;
        }
        let text = scrape();
        let hits = metric(&text, "regend_artifact_cache_hits_total") - hits_before;
        assert_eq!(hits, reads as f64, "every routed hit is counted");
        expositions.push(text);
    }
    assert!(core.bus.snapshot().is_empty(), "a serving bus keeps no event history");
    assert_eq!(core.bus.len() - events_before, reads, "one event per routed read");
    assert_eq!(
        expositions[0].lines().count(),
        expositions[1].lines().count(),
        "the exposition does not grow with uptime"
    );
}

/// Backpressure: with one worker busy and a one-slot queue, a burst of
/// clients sees 429 + `Retry-After` — and the polite retrying client
/// eventually gets the real bytes.
#[test]
fn overload_answers_429_with_retry_after() {
    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });

    // Occupy the single worker with a slow cold artifact, and burst
    // only once the server has admitted it: waiting on the gauge, not
    // on a sleep, keeps the check independent of how long it computes.
    let slow = {
        let base = base.clone();
        std::thread::spawn(move || get(&base, "/artifact/discussion"))
    };
    assert!(
        await_metric(&base, "regend_in_flight", 1.0, Duration::from_secs(60)) >= 1.0,
        "the slow request was never admitted"
    );

    // Flood: plain GETs with no 429-retry, concurrently.
    let rejected = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let (base, rejected) = (&base, &rejected);
            s.spawn(move || {
                let r = http_get(&format!("{base}/artifact/discussion"), Duration::from_secs(300))
                    .expect("transport");
                if r.status == 429 {
                    assert_eq!(r.header("retry-after"), Some("1"), "429 names a retry delay");
                    assert!(r.text().contains("queue full"), "{}", r.text());
                    rejected.fetch_add(1, Ordering::SeqCst);
                } else {
                    assert_eq!(r.status, 200);
                }
            });
        }
    });
    assert!(
        rejected.load(Ordering::SeqCst) >= 1,
        "a one-slot queue under an 8-client burst must shed load"
    );

    let slow = slow.join().expect("slow client");
    assert_eq!(slow.status, 200);

    handle.drain();
    let summary = join.join().expect("server thread");
    assert_eq!(summary.rejected, rejected.load(Ordering::SeqCst) as u64);
}

/// Keep-alive must change the framing, never the bytes: 64 clients
/// each holding ONE socket and sending interleaved pipelined bursts
/// see responses byte-identical to the serial sweep and to the
/// close-per-request wire pin — with transient faults injected
/// underneath, exactly as the thread-per-connection front end was
/// pinned in PR 5.
#[test]
fn keepalive_pipelined_bursts_match_serial_and_close_framing() {
    const CLIENTS: usize = 64;
    const ROUNDS: usize = 3;
    let artifacts = [Artifact::Table1, Artifact::Table2, Artifact::Table9, Artifact::Table10];
    let paths: Vec<String> =
        artifacts.iter().map(|a| format!("/artifact/{}", a.name())).collect();
    // Transient compute panics under the retry budget: the faulted
    // serial test already pins that these recover to the clean bytes,
    // so the clean sweep is the oracle here too.
    let plan = FaultPlan::new().fail_cell("mitigations", FaultKind::PanicFault, Some(2));
    let expect = serial_blocks(&artifacts, true, RegenOptions::default());

    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        queue_capacity: 2 * CLIENTS * artifacts.len(),
        inject: Some(plan),
        ..ServerConfig::default()
    });

    // The close-per-request wire pin: one `Connection: close` GET per
    // artifact (this is also the cold phase — each artifact computes
    // once, through the injected faults).
    for (i, path) in paths.iter().enumerate() {
        let r = http_get(&format!("{base}{path}"), Duration::from_secs(300))
            .unwrap_or_else(|e| panic!("close-framing GET {path}: {e}"));
        assert_eq!(r.status, 200, "{path}");
        assert_eq!(r.text(), expect[i], "close framing disagrees with the serial sweep");
    }

    let mismatches = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for client in 0..CLIENTS {
            let (base, paths, expect, mismatches) = (&base, &paths, &expect, &mismatches);
            s.spawn(move || {
                let mut conn =
                    Connection::to_url(base, Duration::from_secs(300)).expect("client url");
                for _ in 0..ROUNDS {
                    // Stagger the order per client so concurrent bursts
                    // interleave different artifacts on the wire.
                    let order: Vec<usize> =
                        (0..paths.len()).map(|i| (i + client) % paths.len()).collect();
                    let burst: Vec<&str> =
                        order.iter().map(|&i| paths[i].as_str()).collect();
                    let responses = conn.pipeline(&burst).expect("pipelined burst");
                    assert_eq!(responses.len(), burst.len());
                    for (r, &idx) in responses.iter().zip(&order) {
                        assert_eq!(r.status, 200, "client {client}: {}", paths[idx]);
                        if r.text() != expect[idx] {
                            mismatches.fetch_add(1, Ordering::SeqCst);
                            eprintln!("client {client}: keep-alive mismatch on {}", paths[idx]);
                        }
                    }
                }
                // The whole session rode one socket: pipelining and
                // keep-alive actually happened, this was not 768
                // reconnects that accidentally pass.
                assert_eq!(conn.sockets_opened(), 1, "client {client} reconnected");
            });
        }
    });
    assert_eq!(mismatches.load(Ordering::SeqCst), 0, "keep-alive bytes == serial bytes");

    // Keep-alive accounting (counted when the event loop processes each
    // close, so poll): every client connection closed having carried
    // ROUNDS bursts, and the loop observed pipelined reads.
    let per_client = (ROUNDS * paths.len()) as f64;
    let closed =
        await_metric(&base, "regend_keepalive_closed_total", CLIENTS as f64, Duration::from_secs(10));
    assert!(closed >= CLIENTS as f64, "clients closed: {closed}");
    let ka_requests = metric(&get(&base, "/metrics").text(), "regend_keepalive_requests_total");
    assert!(
        ka_requests >= CLIENTS as f64 * per_client,
        "requests carried over keep-alive: {ka_requests}"
    );
    let depth_samples = metric(&get(&base, "/metrics").text(), "regend_pipeline_depth_count");
    assert!(depth_samples >= 1.0, "no pipelined read was ever observed");

    handle.drain();
    let summary = join.join().expect("server thread");
    assert!(summary.stats.faults_injected > 0, "the plan actually fired");
    assert!(summary.connections >= CLIENTS as u64);
    assert!(summary.served >= (CLIENTS * ROUNDS * paths.len() + paths.len()) as u64);
    assert_eq!(summary.rejected, 0, "queue was sized for the burst");
    assert_eq!(summary.disconnects, 0, "clean keep-alive closes are not disconnects");
}

/// Connection hygiene: a client that stalls mid-request is idle-reaped
/// without touching anyone else, and a client that vanishes with a
/// response owed is detected, counted in `regend_disconnects_total`,
/// and its admitted work accounted — the event loop keeps serving
/// throughout.
#[test]
fn stalled_and_vanished_clients_are_reaped_without_poisoning_the_loop() {
    use std::io::{Read, Write};

    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 1,
        idle_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    let addr = base.strip_prefix("http://").expect("base url").to_string();

    // Warm the cheap artifact so its responses come from the rendered
    // cache while the single worker is busy later.
    assert_eq!(get(&base, "/artifact/table2").status, 200);

    // --- A peer that sends half a request head and stalls. ---
    let mut stall = std::net::TcpStream::connect(&addr).expect("connect");
    stall.write_all(b"GET /healthz HTT").expect("partial head");
    stall.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    // The idle sweep must reap it (close, not hang): EOF within the
    // read timeout, well after the 2s idle deadline.
    let mut sink = [0u8; 64];
    match stall.read(&mut sink) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("stalled connection got {n} unexpected byte(s)"),
    }
    let idle = await_metric(&base, "regend_idle_timeouts_total", 1.0, Duration::from_secs(10));
    assert!(idle >= 1.0, "stall reap counted: {idle}");

    // --- A peer that vanishes with a response owed. ---
    // Pipelined pair: a cached hit (whose response lands in the client
    // kernel, unread) and a slow cold artifact (admitted to the single
    // worker). Closing with unread data makes TCP send RST, so the
    // event loop sees the death immediately — while the slow slot is
    // still owed — and must free the connection without waiting for
    // the computation.
    {
        let mut doomed = std::net::TcpStream::connect(&addr).expect("connect");
        doomed
            .write_all(
                b"GET /artifact/table2 HTTP/1.1\r\nHost: x\r\n\r\n\
                  GET /artifact/discussion HTTP/1.1\r\nHost: x\r\n\r\n",
            )
            .expect("pipelined pair");
        // Let the cached response reach this socket's receive buffer.
        std::thread::sleep(Duration::from_millis(300));
        // Drop without reading: RST.
    }
    let disconnects =
        await_metric(&base, "regend_disconnects_total", 1.0, Duration::from_secs(30));
    assert!(disconnects >= 1.0, "vanished client counted: {disconnects}");

    // Neither casualty poisoned the loop: fast and slow paths both
    // still answer (the latter also proves the worker pool survived
    // the orphaned computation).
    assert_eq!(get(&base, "/healthz").status, 200);
    assert_eq!(get(&base, "/artifact/table9").status, 200);

    handle.drain();
    let summary = join.join().expect("server thread");
    assert!(summary.idle_timeouts >= 1, "summary counts the stall reap");
    assert!(summary.disconnects >= 1, "summary counts the vanish");
    assert_eq!(summary.stats.cells_failed, 0);
}

/// Graceful drain: `POST /shutdown` answers the in-flight queue, then
/// the listener goes away; new connections are refused rather than
/// silently hung.
#[test]
fn shutdown_drains_and_stops_accepting() {
    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        ..ServerConfig::default()
    });
    assert_eq!(get(&base, "/artifact/table2").status, 200);
    assert!(!handle.is_draining());

    // POST via a raw socket (the regen client only speaks GET).
    {
        use std::io::{Read, Write};
        let addr = base.strip_prefix("http://").expect("base url");
        let mut s = std::net::TcpStream::connect(addr).expect("connect");
        s.write_all(b"POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .expect("send shutdown");
        let mut reply = String::new();
        let _ = s.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
        assert!(reply.ends_with("draining\n"), "{reply}");
    }
    assert!(handle.is_draining());

    let summary = join.join().expect("server thread");
    assert!(summary.served >= 2);

    // The listener is gone: connecting now fails fast.
    let addr = base.strip_prefix("http://").expect("base url");
    let refused = std::net::TcpStream::connect_timeout(
        &addr.parse().expect("socket addr"),
        Duration::from_secs(2),
    );
    assert!(refused.is_err(), "post-drain connections are refused");
}

/// Reads `count` pipelined responses off `stream` 4 KiB at a time,
/// splitting them by their `Content-Length`.
fn read_responses(stream: &mut std::net::TcpStream, count: usize) -> Vec<HttpResponse> {
    use std::io::Read;
    let (mut raw, mut chunk, mut responses) = (Vec::new(), [0u8; 4096], Vec::new());
    while responses.len() < count {
        if let Ok(r) = parse_response(&raw) {
            let head = raw.windows(4).position(|w| w == b"\r\n\r\n").expect("a parsed head");
            raw.drain(..head + 4 + r.body.len());
            responses.push(r);
            continue;
        }
        let n = stream.read(&mut chunk).expect("read a response chunk");
        assert!(n > 0, "EOF after {} of {count} response(s)", responses.len());
        raw.extend_from_slice(&chunk[..n]);
    }
    assert!(raw.is_empty(), "{} byte(s) past the last response", raw.len());
    responses
}

/// Scrapes `/metrics` over `scraper`, a held-open keep-alive socket that
/// closes no connection itself, until every other connection's close has
/// been counted.
fn settled_metrics(scraper: &mut Connection) -> String {
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let text = scraper.get("/metrics").expect("scrape").text();
        let open = metric(&text, "regend_keepalive_connections_total")
            - metric(&text, "regend_keepalive_closed_total");
        if open == 1.0 {
            return text;
        }
        assert!(std::time::Instant::now() < deadline, "{open} connection(s) never closed");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// One write call carries a whole pipelined batch: 40 cached reads sent
/// in one write come back byte-identical, and the connection's close adds
/// 40 to `regend_keepalive_requests_total` and at most 4 to
/// `regend_keepalive_writes_total` (a write per head and per body would
/// be 80).
#[test]
fn a_pipelined_batch_of_cache_hits_leaves_in_a_few_write_calls() {
    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 1,
        ..ServerConfig::default()
    });
    let expect = get(&base, "/artifact/table2");
    assert_eq!(expect.status, 200, "warm the cache");
    let mut scraper = Connection::to_url(&base, Duration::from_secs(30)).expect("url");
    let before = settled_metrics(&mut scraper);

    let mut conn = Connection::to_url(&base, Duration::from_secs(30)).expect("url");
    let responses = conn.pipeline(&["/artifact/table2"; 40]).expect("pipelined burst");
    assert_eq!(responses.len(), 40);
    for r in &responses {
        assert_eq!((r.status, &r.body), (200, &expect.body));
    }
    assert_eq!(conn.sockets_opened(), 1);
    drop(conn);

    let after = settled_metrics(&mut scraper);
    let delta = |name: &str| metric(&after, name) - metric(&before, name);
    assert_eq!(delta("regend_keepalive_requests_total"), 40.0);
    let writes = delta("regend_keepalive_writes_total");
    assert!((1.0..=4.0).contains(&writes), "{writes} write call(s) for 40 responses");

    handle.drain();
    join.join().expect("server thread");
}

/// RFC 9112 §9.6: no request after one that closes the connection is
/// processed. A `Connection: close` GET, then a pipelined `POST
/// /shutdown` and a GET, get exactly one response and EOF, and the
/// server is not draining.
#[test]
fn nothing_pipelined_after_a_closing_request_is_processed() {
    use std::io::{Read, Write};

    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 1,
        ..ServerConfig::default()
    });
    let addr = base.strip_prefix("http://").expect("base url");
    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(30))).expect("read timeout");
    s.write_all(
        b"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n\
          POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n\
          GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    )
    .expect("pipelined requests");
    let mut reply = Vec::new();
    s.read_to_end(&mut reply).expect("read to EOF");
    let reply = String::from_utf8(reply).expect("UTF-8");
    assert_eq!(reply.matches("HTTP/1.1 ").count(), 1, "{reply}");
    assert!(reply.starts_with("HTTP/1.1 200 OK\r\n"), "{reply}");
    assert!(reply.contains("\r\nConnection: close\r\n"), "{reply}");

    assert!(!handle.is_draining(), "the pipelined POST /shutdown was processed");
    let health = get(&base, "/healthz");
    assert!(health.text().contains("\"status\":\"ok\""), "{}", health.text());

    handle.drain();
    join.join().expect("server thread");
}

/// The vectored flush under pressure. One connection pipelines 500 quick
/// reads, mostly `/results` with cached artifacts between them (about
/// 6 MB of responses, more than a loopback connection buffers under
/// Linux's default `tcp_wmem` limit of 4 MiB, so flushes stop partway
/// through a response), and one cold artifact's slow read in the
/// middle, so a flush also stops at a waiting slot. It reads them back
/// 4 KiB at a time after a pause: every response is a 200 with the
/// serial sweep's bytes, in request order. A second connection pipelines
/// 400 `/results`, reads part of the first response and drops with unread
/// data, so the kernel resets it mid-flush: the loop counts one
/// disconnect, answers each of the 400 exactly once, as a 200 if its
/// last byte was written and as a 499 if not, and keeps serving.
#[test]
fn the_flush_survives_partial_writes_a_waiting_slot_and_a_reset() {
    use std::io::{Read, Write};

    let expect = serial_blocks(&Artifact::ALL, true, RegenOptions::default());
    let results = expect.concat();
    let cold = serial_blocks(&[Artifact::Table9], false, RegenOptions::default()).remove(0);
    let (base, handle, join) = boot(ServerConfig {
        quick: true,
        workers: 2,
        ..ServerConfig::default()
    });
    assert_eq!(get(&base, "/results").text(), results, "warms every artifact");
    let addr = base.strip_prefix("http://").expect("base url").to_string();

    // Request i reads /results, unless i is a multiple of 10 (an
    // artifact) or the middle (full-mode table9, computed on a worker).
    let burst: Vec<(String, &str)> = (0..500)
        .map(|i| match i {
            250 => ("/artifact/table9?quick=0".to_string(), cold.as_str()),
            i if i % 10 == 0 => {
                let a = (i / 10) % Artifact::ALL.len();
                (format!("/artifact/{}", Artifact::ALL[a].name()), expect[a].as_str())
            }
            _ => ("/results".to_string(), results.as_str()),
        })
        .collect();
    let wire: String =
        burst.iter().map(|(path, _)| format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n")).collect();
    let mut one = std::net::TcpStream::connect(&addr).expect("connect");
    one.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    one.write_all(wire.as_bytes()).expect("pipelined burst");
    std::thread::sleep(Duration::from_millis(300));
    let responses = read_responses(&mut one, burst.len());
    let bytes: usize = responses.iter().map(|r| r.body.len()).sum();
    assert!(bytes > 5_000_000, "only {bytes} byte(s) of bodies");
    for (i, (r, (path, body))) in responses.iter().zip(&burst).enumerate() {
        assert_eq!(r.status, 200, "response {i} ({path})");
        assert!(r.body == body.as_bytes(), "response {i} ({path}) differs from the serial sweep");
    }
    drop(one);

    let mut scraper = Connection::to_url(&base, Duration::from_secs(30)).expect("url");
    let before = settled_metrics(&mut scraper);
    {
        let mut doomed = std::net::TcpStream::connect(&addr).expect("connect");
        doomed.write_all(&b"GET /results HTTP/1.1\r\nHost: x\r\n\r\n".repeat(400)).expect("burst");
        let mut part = [0u8; 1000];
        doomed.read_exact(&mut part).expect("part of the first response");
        assert!(part.starts_with(b"HTTP/1.1 200 OK\r\n"));
        // Drop with unread data: the kernel resets the connection.
    }
    let after = settled_metrics(&mut scraper);
    let delta = |name: &str| metric(&after, name) - metric(&before, name);
    let written = delta("regend_responses_total{endpoint=\"results\",status=\"200\"}");
    let unwritten = delta("regend_responses_total{endpoint=\"results\",status=\"499\"}");
    assert_eq!(delta("regend_disconnects_total"), 1.0);
    assert_eq!(written + unwritten, 400.0, "{written} written, {unwritten} unwritten");
    assert!(unwritten >= 1.0, "the reset came after every response was written");
    assert_eq!(delta("regend_keepalive_requests_total"), written);

    assert_eq!(get(&base, "/healthz").status, 200);
    assert_eq!(get(&base, "/results").text(), results);
    handle.drain();
    join.join().expect("server thread");
}
