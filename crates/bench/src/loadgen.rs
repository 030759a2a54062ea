//! `regen loadgen`: an open-loop HTTP load generator for `regend`.
//!
//! Arrivals are scheduled on a fixed-rate clock *before* any response
//! comes back — the open-loop discipline — and each request's latency is
//! measured from its **scheduled due time**, not from when a worker got
//! around to sending it. A server that stalls therefore shows the stall
//! in the tail percentiles instead of silently slowing the offered load
//! (the coordinated-omission trap closed-loop generators fall into).
//!
//! A fixed pool of keep-alive [`Connection`]s carries the traffic:
//! worker `k` sends arrival `i` as soon as both `i`'s due time has
//! passed and `k`'s previous response has been read. Backlogged workers
//! thus *add* the queueing delay to the measured latency rather than
//! suppressing arrivals.
//!
//! Errors are counted, never retried — retry would hide exactly the
//! overload behaviour the generator exists to measure. 429s count as
//! responses (the server answered; that is its overload contract).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use serve::client::{split_url, Connection};

/// Options for [`run_loadgen`].
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Full URLs to hammer (e.g. `http://127.0.0.1:7979/artifact/table2`).
    /// Arrival `i` deterministically targets `targets[i % len]`, so a
    /// proxy and a direct shard can be loaded side by side and their
    /// latency splits compared.
    pub targets: Vec<String>,
    /// Offered load, requests per second (across all targets).
    pub rate: f64,
    /// Total arrivals to schedule.
    pub requests: u64,
    /// Keep-alive connection sets (= worker threads) carrying the load;
    /// each worker holds one connection per target.
    pub connections: usize,
    /// Per-operation socket timeout.
    pub timeout: Duration,
}

impl Default for LoadgenOptions {
    fn default() -> LoadgenOptions {
        LoadgenOptions {
            targets: Vec::new(),
            rate: 200.0,
            requests: 1_000,
            connections: 8,
            timeout: Duration::from_secs(30),
        }
    }
}

/// Per-target slice of a loadgen run (meaningful with several
/// `--target`s: the proxy-vs-direct-shard overhead is the difference
/// between two splits).
#[derive(Debug, Clone)]
pub struct TargetStats {
    /// The target URL this split covers.
    pub url: String,
    /// Responses fully read (any status).
    pub responses: u64,
    /// Responses with status 200.
    pub responses_200: u64,
    /// Transport/protocol failures (no response).
    pub errors: u64,
    /// Due-time-to-response-read latencies, microseconds, sorted.
    pub latencies_micros: Vec<u64>,
}

impl TargetStats {
    /// Nearest-rank percentile of this split, microseconds.
    pub fn percentile_micros(&self, p: f64) -> u64 {
        percentile(&self.latencies_micros, p)
    }
}

/// Nearest-rank percentile over a sorted slice.
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let n = sorted.len();
    if n == 0 {
        return 0;
    }
    let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// What one loadgen run observed.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Arrivals scheduled.
    pub requests: u64,
    /// Responses fully read (any status).
    pub responses: u64,
    /// Responses with status 200.
    pub responses_200: u64,
    /// Responses with status 429 (admission shed).
    pub responses_429: u64,
    /// Transport/protocol failures (no response).
    pub errors: u64,
    /// Body bytes received across all responses.
    pub body_bytes: u64,
    /// TCP sockets the pool opened (ideally == `connections`).
    pub sockets_opened: u64,
    /// Keep-alive connections in the pool.
    pub connections: usize,
    /// Offered rate (requests/sec).
    pub offered_rps: f64,
    /// Wall seconds from first due time to last response.
    pub elapsed_secs: f64,
    /// Due-time-to-response-read latencies, microseconds, sorted.
    pub latencies_micros: Vec<u64>,
    /// Per-target splits, in `targets` order (one entry per target).
    pub per_target: Vec<TargetStats>,
}

impl LoadgenReport {
    /// Achieved throughput: completed responses over the wall clock.
    pub fn achieved_rps(&self) -> f64 {
        if self.elapsed_secs > 0.0 { self.responses as f64 / self.elapsed_secs } else { 0.0 }
    }

    /// The `p`-th percentile latency in microseconds (`p` in 0..=100),
    /// nearest-rank definition. Zero when nothing completed.
    pub fn percentile_micros(&self, p: f64) -> u64 {
        percentile(&self.latencies_micros, p)
    }

    /// Maximum observed latency in microseconds.
    pub fn max_micros(&self) -> u64 {
        self.latencies_micros.last().copied().unwrap_or(0)
    }

    /// The human-readable summary `regen loadgen` prints.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "loadgen: {} arrival(s) at {:.0} req/s over {} keep-alive connection(s)",
            self.requests, self.offered_rps, self.connections
        );
        let _ = writeln!(
            s,
            "loadgen: {} response(s) ({} x 200, {} x 429), {} error(s), {} socket(s) opened, {} body byte(s)",
            self.responses,
            self.responses_200,
            self.responses_429,
            self.errors,
            self.sockets_opened,
            self.body_bytes
        );
        let _ = writeln!(
            s,
            "loadgen: achieved {:.1} req/s in {:.2}s",
            self.achieved_rps(),
            self.elapsed_secs
        );
        let _ = writeln!(
            s,
            "loadgen: latency from scheduled arrival: p50 {} us, p90 {} us, p99 {} us, max {} us",
            self.percentile_micros(50.0),
            self.percentile_micros(90.0),
            self.percentile_micros(99.0),
            self.max_micros()
        );
        // Per-target splits only matter (and only print) when several
        // targets were loaded; the single-target lines above stay
        // byte-stable for the CI greps and the committed baseline.
        if self.per_target.len() > 1 {
            for t in &self.per_target {
                let _ = writeln!(
                    s,
                    "loadgen: target {}: {} response(s) ({} x 200), {} error(s), p50 {} us, p99 {} us",
                    t.url,
                    t.responses,
                    t.responses_200,
                    t.errors,
                    t.percentile_micros(50.0),
                    t.percentile_micros(99.0)
                );
            }
        }
        s
    }

    /// A power-of-two-bucket latency histogram (text, one `<= N us`
    /// line per occupied bucket) — the artifact CI uploads.
    pub fn render_histogram(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "# loadgen latency histogram ({} sample(s), microseconds)", self.latencies_micros.len());
        if self.latencies_micros.is_empty() {
            return s;
        }
        let max = self.max_micros();
        let mut bound = 1u64;
        let mut from = 0usize;
        loop {
            // latencies are sorted: count the slice within this bucket.
            let to = self.latencies_micros.partition_point(|&v| v <= bound);
            let count = to - from;
            if count > 0 {
                let _ = writeln!(s, "le {:>10} us: {count}", bound);
            }
            from = to;
            if bound >= max {
                break;
            }
            bound = bound.saturating_mul(2);
        }
        s
    }
}

/// Runs the open-loop generator. Fails only on setup errors (bad URL);
/// per-request failures are counted in the report.
pub fn run_loadgen(opts: &LoadgenOptions) -> Result<LoadgenReport, String> {
    if opts.rate <= 0.0 {
        return Err("rate must be positive".to_string());
    }
    if opts.requests == 0 || opts.connections == 0 {
        return Err("requests and connections must be at least 1".to_string());
    }
    if opts.targets.is_empty() {
        return Err("at least one target URL is required".to_string());
    }
    let parsed: Vec<(&str, &str)> = opts
        .targets
        .iter()
        .map(|t| split_url(t))
        .collect::<Result<_, _>>()?;
    let interval = Duration::from_secs_f64(1.0 / opts.rate);

    #[derive(Clone, Default)]
    struct TargetOut {
        latencies: Vec<u64>,
        responses: u64,
        responses_200: u64,
        errors: u64,
    }

    struct WorkerOut {
        per_target: Vec<TargetOut>,
        responses: u64,
        responses_200: u64,
        responses_429: u64,
        errors: u64,
        body_bytes: u64,
        sockets: u64,
    }

    let next = AtomicU64::new(0);
    let start = Instant::now() + Duration::from_millis(5);
    let outs: Vec<WorkerOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.connections)
            .map(|_| {
                let next = &next;
                let parsed = &parsed;
                s.spawn(move || {
                    // One keep-alive connection per target: target
                    // rotation must not cost reconnects.
                    let mut conns: Vec<Connection> = parsed
                        .iter()
                        .map(|(authority, _)| Connection::new(authority, opts.timeout))
                        .collect();
                    let mut out = WorkerOut {
                        per_target: vec![TargetOut::default(); parsed.len()],
                        responses: 0,
                        responses_200: 0,
                        responses_429: 0,
                        errors: 0,
                        body_bytes: 0,
                        sockets: 0,
                    };
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= opts.requests {
                            break;
                        }
                        // Arrival i deterministically targets
                        // targets[i % T], so splits are comparable
                        // across runs.
                        let t = (i % parsed.len() as u64) as usize;
                        // Open loop: arrival i is *due* at a fixed time
                        // regardless of how the server is doing.
                        let due = start + interval.mul_f64(i as f64);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        match conns[t].get(parsed[t].1) {
                            Ok(r) => {
                                out.responses += 1;
                                out.per_target[t].responses += 1;
                                match r.status {
                                    200 => {
                                        out.responses_200 += 1;
                                        out.per_target[t].responses_200 += 1;
                                    }
                                    429 => out.responses_429 += 1,
                                    _ => {}
                                }
                                out.body_bytes += r.body.len() as u64;
                                // Latency from the scheduled due time:
                                // backlog shows up here, not in a
                                // silently-reduced offered rate.
                                let lat = due.elapsed().as_micros().min(u128::from(u64::MAX))
                                    as u64;
                                out.per_target[t].latencies.push(lat);
                            }
                            Err(_) => {
                                out.errors += 1;
                                out.per_target[t].errors += 1;
                            }
                        }
                    }
                    out.sockets = conns.iter().map(Connection::sockets_opened).sum();
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("loadgen worker")).collect()
    });
    let elapsed_secs = start.elapsed().as_secs_f64();

    let mut latencies: Vec<u64> = outs
        .iter()
        .flat_map(|o| o.per_target.iter().flat_map(|t| t.latencies.iter().copied()))
        .collect();
    latencies.sort_unstable();
    let per_target: Vec<TargetStats> = opts
        .targets
        .iter()
        .enumerate()
        .map(|(t, url)| {
            let mut lat: Vec<u64> = outs
                .iter()
                .flat_map(|o| o.per_target[t].latencies.iter().copied())
                .collect();
            lat.sort_unstable();
            TargetStats {
                url: url.clone(),
                responses: outs.iter().map(|o| o.per_target[t].responses).sum(),
                responses_200: outs.iter().map(|o| o.per_target[t].responses_200).sum(),
                errors: outs.iter().map(|o| o.per_target[t].errors).sum(),
                latencies_micros: lat,
            }
        })
        .collect();
    Ok(LoadgenReport {
        requests: opts.requests,
        responses: outs.iter().map(|o| o.responses).sum(),
        responses_200: outs.iter().map(|o| o.responses_200).sum(),
        responses_429: outs.iter().map(|o| o.responses_429).sum(),
        errors: outs.iter().map(|o| o.errors).sum(),
        body_bytes: outs.iter().map(|o| o.body_bytes).sum(),
        sockets_opened: outs.iter().map(|o| o.sockets).sum(),
        connections: opts.connections,
        offered_rps: opts.rate,
        elapsed_secs,
        latencies_micros: latencies,
        per_target,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report_with(latencies: Vec<u64>) -> LoadgenReport {
        LoadgenReport {
            requests: latencies.len() as u64,
            responses: latencies.len() as u64,
            responses_200: latencies.len() as u64,
            responses_429: 0,
            errors: 0,
            body_bytes: 0,
            sockets_opened: 1,
            connections: 1,
            offered_rps: 100.0,
            elapsed_secs: 2.0,
            latencies_micros: latencies,
            per_target: Vec::new(),
        }
    }

    #[test]
    fn percentiles_read_the_sorted_tail() {
        let r = report_with((1..=100).collect());
        assert_eq!(r.percentile_micros(50.0), 50);
        assert_eq!(r.percentile_micros(99.0), 99);
        assert_eq!(r.max_micros(), 100);
        assert_eq!(r.achieved_rps(), 50.0);
        let empty = report_with(vec![]);
        assert_eq!(empty.percentile_micros(99.0), 0);
        assert_eq!(empty.max_micros(), 0);
    }

    #[test]
    fn histogram_buckets_double_and_cover_every_sample() {
        let r = report_with(vec![1, 2, 3, 700, 100_000]);
        let h = r.render_histogram();
        // Each occupied power-of-two bucket appears once; counts sum to
        // the sample count.
        let total: usize = h
            .lines()
            .filter(|l| l.starts_with("le "))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<usize>().unwrap())
            .sum();
        assert_eq!(total, 5, "{h}");
        assert!(h.contains("le          1 us: 1"), "{h}");
        assert!(h.contains("le          2 us: 1"), "{h}");
    }

    #[test]
    fn rejects_nonsense_options() {
        let bad = LoadgenOptions { rate: 0.0, ..LoadgenOptions::default() };
        assert!(run_loadgen(&bad).is_err());
        let bad = LoadgenOptions {
            targets: vec!["gopher://x".to_string()],
            ..LoadgenOptions::default()
        };
        assert!(run_loadgen(&bad).is_err());
        let bad = LoadgenOptions { targets: Vec::new(), ..LoadgenOptions::default() };
        assert!(run_loadgen(&bad).is_err(), "no targets is a setup error");
    }

    /// The aggregate summary lines are byte-stable regardless of the
    /// target count (CI greps them); per-target split lines appear only
    /// with several targets.
    #[test]
    fn per_target_splits_render_only_for_multiple_targets() {
        let mut r = report_with(vec![10, 20, 30, 40]);
        let single = TargetStats {
            url: "http://a:1/x".to_string(),
            responses: 4,
            responses_200: 4,
            errors: 0,
            latencies_micros: vec![10, 20, 30, 40],
        };
        r.per_target = vec![single.clone()];
        let text = r.render_text();
        assert!(!text.contains("loadgen: target"), "{text}");
        assert!(text.contains("loadgen: 4 response(s) (4 x 200, 0 x 429), 0 error(s)"), "{text}");

        r.per_target = vec![
            TargetStats {
                url: "http://a:1/x".to_string(),
                responses: 2,
                responses_200: 2,
                errors: 0,
                latencies_micros: vec![10, 30],
            },
            TargetStats {
                url: "http://b:2/x".to_string(),
                responses: 2,
                responses_200: 1,
                errors: 1,
                latencies_micros: vec![20, 40],
            },
        ];
        let text = r.render_text();
        assert!(text.contains("loadgen: target http://a:1/x: 2 response(s) (2 x 200), 0 error(s)"), "{text}");
        assert!(text.contains("loadgen: target http://b:2/x: 2 response(s) (1 x 200), 1 error(s)"), "{text}");
        // The aggregate lines are unchanged by the splits.
        assert!(text.contains("loadgen: 4 response(s) (4 x 200, 0 x 429), 0 error(s)"), "{text}");
    }

    /// A two-target run splits arrivals deterministically (i % T) and
    /// keeps one keep-alive socket per (worker, target).
    #[test]
    fn loadgen_splits_arrivals_across_targets() {
        fn tiny_server(listener: std::net::TcpListener) -> std::thread::JoinHandle<u64> {
            std::thread::spawn(move || {
                let mut served = 0u64;
                // One connection per worker; serve until the socket
                // closes.
                let (mut stream, _) = listener.accept().unwrap();
                use std::io::{Read, Write};
                let mut buf = Vec::new();
                let mut byte = [0u8; 1];
                loop {
                    match stream.read(&mut byte) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => buf.push(byte[0]),
                    }
                    if buf.ends_with(b"\r\n\r\n") {
                        buf.clear();
                        let body = "ok\n";
                        let reply = format!(
                            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                            body.len()
                        );
                        stream.write_all(reply.as_bytes()).unwrap();
                        served += 1;
                    }
                }
                served
            })
        }
        let la = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let lb = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let urls = vec![
            format!("http://{}/x", la.local_addr().unwrap()),
            format!("http://{}/x", lb.local_addr().unwrap()),
        ];
        let ha = tiny_server(la);
        let hb = tiny_server(lb);
        let opts = LoadgenOptions {
            targets: urls.clone(),
            rate: 2_000.0,
            requests: 10,
            connections: 1,
            timeout: Duration::from_secs(5),
        };
        let report = run_loadgen(&opts).unwrap();
        assert_eq!(report.responses, 10);
        assert_eq!(report.errors, 0);
        assert_eq!(report.per_target.len(), 2);
        assert_eq!(report.per_target[0].responses, 5, "even split of 10 over 2");
        assert_eq!(report.per_target[1].responses, 5);
        assert_eq!(report.sockets_opened, 2, "one socket per (worker, target)");
        drop(report);
        assert_eq!(ha.join().unwrap(), 5);
        assert_eq!(hb.join().unwrap(), 5);
    }
}
