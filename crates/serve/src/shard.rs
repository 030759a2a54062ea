//! Consistent-hash routing and shard health for the `regend` cluster.
//!
//! A sharded deployment is N ordinary `regend` instances, each owning
//! the content keys a [`HashRing`] maps to it, behind one proxy (see
//! [`crate::proxy`]). This module is the proxy's model of those peers:
//!
//! * [`HashRing`] — deterministic content-key → shard routing with
//!   virtual nodes. The ring hashes only stable strings (shard indices
//!   and content keys) with FNV-1a, so two processes — or the same
//!   process across runs — always agree on ownership; no `HashMap`
//!   iteration order leaks in.
//! * [`ShardHealth`] — the per-shard state machine
//!   (healthy → suspect → down) fed by active probes and passive fetch
//!   outcomes.
//! * [`Cluster`] — the fetch path: pooled keep-alive connections per
//!   shard, deterministic network-fault injection on every hop
//!   ([`NetFaultPlan`]), the hop check [`verify_hop`] on every shard
//!   response (a truncated or corrupted hop becomes a *detected*
//!   transient failure, never silent corruption), bounded retry with
//!   the client's seeded backoff, and health accounting.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use spectrebench::obs::ShardState;
use spectrebench::{fnv1a, EventBus, EventKind, NetFaultKind, NetFaultPlan};

use crate::client::{backoff_delay, Connection, HttpResponse};
use crate::core::{lock, marked_crc32};

/// Virtual nodes per shard on the ring. 64 points per shard keeps the
/// key split within a few percent of even for small clusters while the
/// ring stays tiny (4 shards = 256 points).
pub const VNODES: usize = 64;

/// Consecutive failures that move a shard from suspect to down.
pub const DOWN_THRESHOLD: u32 = 3;

/// Socket timeout for one proxy→shard fetch.
const FETCH_TIMEOUT: Duration = Duration::from_secs(10);

/// FNV-1a over `bytes`, finished with an xorshift-multiply scramble so
/// nearby keys spread over the whole u64 range.
fn ring_hash(bytes: &[u8]) -> u64 {
    let mut h = fnv1a(bytes.iter().copied());
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h
}

/// A consistent-hash ring: each shard contributes [`VNODES`] points,
/// and a key belongs to the shard owning the first point at or after
/// the key's hash (wrapping).
///
/// Everything is derived from stable strings and sorted `Vec`s, so the
/// assignment is a pure function of the shard set — identical across
/// processes, machines, and runs.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// `(point hash, shard index)`, sorted by hash.
    points: Vec<(u64, usize)>,
    shards: Vec<usize>,
}

impl HashRing {
    /// A ring over an explicit shard set (used by the removal property
    /// tests; production rings are contiguous `0..n`).
    pub fn with_shards(shards: &[usize]) -> HashRing {
        let mut points = Vec::with_capacity(shards.len() * VNODES);
        for &shard in shards {
            for vnode in 0..VNODES {
                points.push((ring_hash(format!("shard-{shard}/vnode-{vnode}").as_bytes()), shard));
            }
        }
        points.sort_unstable();
        HashRing { points, shards: shards.to_vec() }
    }

    /// A ring over shards `0..n`.
    pub fn new(n: usize) -> HashRing {
        let shards: Vec<usize> = (0..n).collect();
        HashRing::with_shards(&shards)
    }

    /// The shard set this ring was built over.
    pub fn shards(&self) -> &[usize] {
        &self.shards
    }

    /// The shard owning `content_key`. Ownership never consults shard
    /// health: a down shard keeps its ranges (failover covers the gap),
    /// so cache placement stays stable across blips.
    pub fn owner(&self, content_key: &str) -> usize {
        let h = ring_hash(content_key.as_bytes());
        let i = self.points.partition_point(|&(p, _)| p < h);
        let (_, shard) = self.points[i % self.points.len()];
        shard
    }
}

/// The proxy's health record for one shard.
#[derive(Debug, Clone, Copy)]
pub struct ShardHealth {
    /// Current state-machine position.
    pub state: ShardState,
    /// Consecutive failures since the last success.
    pub consecutive_failures: u32,
    /// When the last probe or fetch finished (None before first
    /// contact).
    pub last_seen: Option<Instant>,
}

impl ShardHealth {
    fn new() -> ShardHealth {
        ShardHealth { state: ShardState::Healthy, consecutive_failures: 0, last_seen: None }
    }

    /// Feeds one observation through the state machine; returns the new
    /// state if it changed. Any success snaps back to healthy; one
    /// failure is suspect; [`DOWN_THRESHOLD`] consecutive failures are
    /// down.
    fn record(&mut self, ok: bool, now: Instant) -> Option<ShardState> {
        self.last_seen = Some(now);
        let next = if ok {
            self.consecutive_failures = 0;
            ShardState::Healthy
        } else {
            self.consecutive_failures = self.consecutive_failures.saturating_add(1);
            if self.consecutive_failures >= DOWN_THRESHOLD {
                ShardState::Down
            } else {
                ShardState::Suspect
            }
        };
        if next == self.state {
            return None;
        }
        self.state = next;
        Some(next)
    }
}

/// The hop check: whether a shard response arrived as the shard sent
/// it. A shard signs every 200 it serves, and only its 200s, with
/// `X-Regend-Crc32` over the body and its marker headers (see
/// `marked_crc32`). So a signed response must be a 200 whose checksum
/// holds, and an unsigned one must carry an error status (4xx or 5xx):
/// a flipped status digit or a lost signature fails here instead of
/// passing another status, or unchecked bytes, on to the client.
pub fn verify_hop(response: &HttpResponse) -> Result<(), String> {
    let status = response.status;
    let Some(declared) = response.header("x-regend-crc32") else {
        return match status {
            400..=599 => Ok(()),
            _ => Err(format!("{status} without a body checksum")),
        };
    };
    if status != 200 {
        return Err(format!("checksummed {status} (a shard signs only 200s)"));
    }
    let degraded = response.header("x-regend-degraded").is_some();
    let quick = response.header("x-regend-quick").is_some();
    let actual = format!("{:08x}", marked_crc32(&response.body, degraded, quick));
    if declared != actual {
        return Err(format!("body checksum mismatch: got {actual}, declared {declared}"));
    }
    Ok(())
}

/// One shard as the proxy sees it: its address, health, and a pool of
/// keep-alive connections (workers check one out per fetch).
#[derive(Debug)]
pub struct ShardEndpoint {
    /// `host:port` of the shard's listener.
    pub addr: String,
    health: Mutex<ShardHealth>,
    pool: Mutex<Vec<Connection>>,
    /// Monotonic per-endpoint probe counter (the probe hop's attempt
    /// axis for fault injection).
    probes: AtomicU32,
}

/// A snapshot of one shard's health, for `/healthz` and tests.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Shard index.
    pub shard: usize,
    /// Listener address.
    pub addr: String,
    /// State-machine position.
    pub state: ShardState,
    /// Seconds since the last probe/fetch finished (None before first
    /// contact).
    pub last_seen_secs: Option<f64>,
}

/// The proxy's cluster model: ring + endpoints + fetch machinery.
#[derive(Debug)]
pub struct Cluster {
    ring: HashRing,
    endpoints: Vec<ShardEndpoint>,
    net_inject: Option<NetFaultPlan>,
    fetch_attempts: u32,
}

impl Cluster {
    /// Builds the model over `addrs` (shard `i` is `addrs[i]`).
    pub fn new(addrs: &[String], net_inject: Option<NetFaultPlan>, fetch_attempts: u32) -> Cluster {
        Cluster {
            ring: HashRing::new(addrs.len()),
            endpoints: addrs
                .iter()
                .map(|addr| ShardEndpoint {
                    addr: addr.clone(),
                    health: Mutex::new(ShardHealth::new()),
                    pool: Mutex::new(Vec::new()),
                    probes: AtomicU32::new(0),
                })
                .collect(),
            net_inject,
            fetch_attempts: fetch_attempts.max(1),
        }
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.endpoints.len()
    }

    /// True when the cluster has no shards (never in practice; the
    /// config layer rejects it).
    pub fn is_empty(&self) -> bool {
        self.endpoints.is_empty()
    }

    /// The routing ring.
    pub fn ring(&self) -> &HashRing {
        &self.ring
    }

    /// The shard owning `content_key`.
    pub fn owner(&self, content_key: &str) -> usize {
        self.ring.owner(content_key)
    }

    /// Current health of `shard`.
    pub fn state(&self, shard: usize) -> ShardState {
        lock(&self.endpoints[shard].health).state
    }

    /// Health snapshot of every shard, in index order.
    pub fn statuses(&self) -> Vec<ShardStatus> {
        let now = Instant::now();
        self.endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| {
                let h = *lock(&ep.health);
                ShardStatus {
                    shard: i,
                    addr: ep.addr.clone(),
                    state: h.state,
                    last_seen_secs: h.last_seen.map(|t| now.duration_since(t).as_secs_f64()),
                }
            })
            .collect()
    }

    /// Records one hop outcome into the shard's health machine and
    /// emits the fetch/state events.
    fn record(&self, bus: &EventBus, shard: usize, path: &str, ok: bool) {
        let changed = lock(&self.endpoints[shard].health).record(ok, Instant::now());
        bus.emit("regend", path, "", 0, EventKind::ShardFetch { shard, ok });
        if let Some(state) = changed {
            bus.emit("regend", path, "", 0, EventKind::ShardStateChanged { shard, state });
        }
    }

    /// One fetch attempt against `shard`, with fault injection applied
    /// *before* the wire (drop/stall) or *after* it (truncate/
    /// corrupt-byte, which damage the received bytes so the CRC check
    /// must catch them). Every failure is transient: whatever broke the
    /// hop — a refused connect, a damaged head, a short body — the
    /// retry layer bounds how often it is tried again.
    fn fetch_once(
        &self,
        bus: &EventBus,
        shard: usize,
        path: &str,
        attempt: u32,
    ) -> Result<HttpResponse, String> {
        let injected = self.net_inject.as_ref().and_then(|p| p.inject(shard, path, attempt));
        if let Some(kind) = injected {
            bus.emit("regend", path, "", attempt, EventKind::NetFaultInjected { fault: kind });
        }
        match injected {
            Some(NetFaultKind::Drop) => {
                return Err(format!("injected drop on shard {shard} hop {path}"));
            }
            Some(NetFaultKind::Stall) => {
                // A stalled peer looks like a timeout: burn a bounded
                // wait, then fail transiently.
                std::thread::sleep(Duration::from_millis(50));
                return Err(format!("injected stall on shard {shard} hop {path}"));
            }
            _ => {}
        }
        let ep = &self.endpoints[shard];
        let mut conn = lock(&ep.pool)
            .pop()
            .unwrap_or_else(|| Connection::new(&ep.addr, FETCH_TIMEOUT));
        // An errored connection is dropped here, not pooled.
        let mut response = conn.get(path)?;
        match injected {
            Some(NetFaultKind::Truncate) => {
                let cut = response.body.len() / 2;
                response.body.truncate(cut);
            }
            Some(NetFaultKind::CorruptByte) => {
                if let Some(b) = response.body.first_mut() {
                    *b ^= 0x20;
                }
            }
            _ => {}
        }
        // Damage on the wire (injected or real) becomes a detected
        // transient failure here — by construction it can never reach a
        // client. The socket itself is clean (any damage is in our
        // copy), so the connection is still poolable.
        lock(&ep.pool).push(conn);
        verify_hop(&response).map_err(|e| format!("shard {shard} {e} on {path}"))?;
        Ok(response)
    }

    /// Fetches `path` from `shard` with bounded retry + backoff.
    /// A shard already marked down is skipped outright (the caller
    /// fails over); otherwise up to `fetch_attempts` tries, sleeping
    /// the client's seeded backoff between failures.
    pub fn fetch(&self, bus: &EventBus, shard: usize, path: &str) -> Result<HttpResponse, String> {
        if self.state(shard) == ShardState::Down {
            return Err(format!("shard {shard} is down"));
        }
        let mut last = String::new();
        for attempt in 0..self.fetch_attempts {
            match self.fetch_once(bus, shard, path, attempt) {
                Ok(r) => {
                    self.record(bus, shard, path, true);
                    return Ok(r);
                }
                Err(e) => {
                    self.record(bus, shard, path, false);
                    last = e;
                    if attempt + 1 < self.fetch_attempts {
                        let url = format!("http://{}{}", self.endpoints[shard].addr, path);
                        std::thread::sleep(backoff_delay(&url, attempt));
                    }
                }
            }
        }
        Err(format!(
            "shard {shard} fetch failed after {} attempt(s): {last}",
            self.fetch_attempts
        ))
    }

    /// Probes every shard's `/healthz` once, feeding the state
    /// machines. Down shards are probed too — that is how a resumed
    /// shard comes back. Probe hops run through the same injection and
    /// accounting as data hops.
    pub fn probe_all(&self, bus: &EventBus) {
        for shard in 0..self.endpoints.len() {
            let attempt = self.endpoints[shard].probes.fetch_add(1, Ordering::Relaxed);
            let ok = matches!(
                self.fetch_once(bus, shard, "/healthz", attempt),
                Ok(r) if r.status == 200
            );
            self.record(bus, shard, "/healthz", ok);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_owner_is_stable_and_covers_all_shards() {
        let ring = HashRing::new(4);
        let keys: Vec<String> = (0..500).map(|i| format!("cpu{i}/w/[cfg-{i}]")).collect();
        let owners: Vec<usize> = keys.iter().map(|k| ring.owner(k)).collect();
        // Stable on a fresh, identically-built ring.
        let ring2 = HashRing::new(4);
        let owners2: Vec<usize> = keys.iter().map(|k| ring2.owner(k)).collect();
        assert_eq!(owners, owners2);
        // Every shard owns something (64 vnodes over 500 keys).
        for shard in 0..4 {
            assert!(owners.contains(&shard), "shard {shard} owns no keys");
        }
    }

    #[test]
    fn health_machine_escalates_and_snaps_back() {
        let mut h = ShardHealth::new();
        let t = Instant::now();
        assert_eq!(h.record(false, t), Some(ShardState::Suspect));
        assert_eq!(h.record(false, t), None, "still suspect at 2 failures");
        assert_eq!(h.record(false, t), Some(ShardState::Down));
        assert_eq!(h.record(false, t), None, "stays down");
        assert_eq!(h.record(true, t), Some(ShardState::Healthy), "one success recovers");
        assert_eq!(h.consecutive_failures, 0);
    }

    #[test]
    fn down_shard_is_skipped_without_a_wire_attempt() {
        // Point the endpoint at a dead port; after DOWN_THRESHOLD
        // failures, fetch() must answer instantly from the state
        // machine instead of burning connect timeouts.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let cluster = Cluster::new(&[dead], None, 1);
        let bus = EventBus::new();
        for _ in 0..DOWN_THRESHOLD {
            assert!(cluster.fetch(&bus, 0, "/healthz").is_err());
        }
        assert_eq!(cluster.state(0), ShardState::Down);
        let start = Instant::now();
        let err = cluster.fetch(&bus, 0, "/healthz").unwrap_err();
        assert!(err.contains("is down"), "{err}");
        assert!(start.elapsed() < Duration::from_millis(50), "no wire attempt");
    }

    /// A 200 carrying `headers` (name, value) and `body`.
    fn reply(headers: &[(&str, String)], body: &[u8]) -> Vec<u8> {
        let mut r = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n", body.len());
        for (name, value) in headers {
            r.push_str(&format!("{name}: {value}\r\n"));
        }
        r.push_str("\r\n");
        let mut r = r.into_bytes();
        r.extend_from_slice(body);
        r
    }

    /// `Cluster::fetch` against a loopback shard, one attempt per
    /// reply: the shard answers each attempt's request with the next
    /// reply, then holds the socket open, as a live keep-alive shard
    /// does, until the proxy closes it. A shard still waiting for an
    /// attempt after 5 s gives up, so a fetch that stops early fails
    /// its test instead of hanging it.
    fn fetch_from_fake_shard(
        bus: &EventBus,
        replies: Vec<Vec<u8>>,
    ) -> Result<HttpResponse, String> {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let attempts = replies.len() as u32;
        let shard = std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(5);
            for reply in replies {
                let mut stream = loop {
                    match listener.accept() {
                        Ok((stream, _)) => break stream,
                        Err(_) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                        Err(_) => return,
                    }
                };
                stream.set_nonblocking(false).unwrap();
                let mut head = Vec::new();
                let mut byte = [0u8];
                while !head.ends_with(b"\r\n\r\n") && stream.read(&mut byte).unwrap() == 1 {
                    head.push(byte[0]);
                }
                stream.write_all(&reply).unwrap();
                while stream.read(&mut byte).is_ok_and(|n| n > 0) {}
            }
        });
        let got = Cluster::new(&[addr], None, attempts).fetch(bus, 0, "/cell/x");
        shard.join().unwrap();
        got
    }

    /// A signed `/cell` reply, as `(body, intact reply, mutant)`, where
    /// the mutant's `Content-Length:` reads `damaged`, one bit away.
    fn reply_with_damaged_length(damaged: &[u8; 15]) -> (Vec<u8>, Vec<u8>, Vec<u8>) {
        let body = b"{\"cell\":\"a/b\",\"seed\":0,\"kind\":\"num\",\"v\":[1.5]}\n".to_vec();
        let crc = format!("{:08x}", spectrebench::crc32(&body));
        let intact = reply(&[("X-Regend-Crc32", crc)], &body);
        let at = intact.windows(15).position(|w| w == b"Content-Length:").unwrap();
        let mut mutant = intact.clone();
        mutant[at..at + 15].copy_from_slice(damaged);
        let flipped = intact.iter().zip(&mutant).map(|(a, b)| (a ^ b).count_ones()).sum::<u32>();
        assert_eq!(flipped, 1, "one bit flip");
        (body, intact, mutant)
    }

    #[test]
    fn a_200_without_its_checksum_is_a_failed_hop() {
        let body = b"{\"cell\":\"a/b\",\"seed\":0,\"kind\":\"num\",\"v\":[1.5]}\n".to_vec();
        // A 200 whose checksum header is `name: <crc of the intact body>`.
        let crc = format!("{:08x}", spectrebench::crc32(&body));

        // Intact: the declared checksum holds over the body.
        let intact = reply(&[("X-Regend-Crc32", crc.clone())], &body);
        let ok = fetch_from_fake_shard(&EventBus::new(), vec![intact]).unwrap();
        assert_eq!((ok.status, ok.body.as_slice()), (200, body.as_slice()));

        // One bit flipped in the header's name (`Crc32` -> `Crc33`) and
        // one in the body: the checksum is gone, so is the pass.
        let mut damaged = body.clone();
        damaged[9] ^= 0x04;
        let unsigned = reply(&[("X-Regend-Crc33", crc)], &damaged);
        let err = fetch_from_fake_shard(&EventBus::new(), vec![unsigned]).unwrap_err();
        assert!(err.contains("without a body checksum"), "{err}");
    }

    /// One bit flip in `Content-Length:` either removes the colon
    /// (`;`), which the header grammar refuses, or renames the header
    /// (`Content-Lengti`), which leaves a head without a length. Both
    /// fail the hop at once on a socket the shard holds open, where
    /// read-to-EOF framing would wait out `FETCH_TIMEOUT`.
    #[test]
    fn a_head_damaged_on_the_hop_fails_at_once_on_a_held_open_socket() {
        for (damaged, error) in [
            (b"Content-Length;", "bad header line: \"Content-Length; 47\""),
            (b"Content-Lengti:", "no Content-Length"),
        ] {
            let (_, _, mutant) = reply_with_damaged_length(damaged);
            let start = Instant::now();
            let err = fetch_from_fake_shard(&EventBus::new(), vec![mutant]).unwrap_err();
            assert!(err.contains(error), "{err}");
            assert!(start.elapsed() < Duration::from_secs(1), "took {:?}", start.elapsed());
        }
    }

    /// Hop damage goes back to the retry layer: a damaged head on the
    /// first attempt and an intact reply on the second is one failed
    /// and one good fetch from the same shard, and `Ok`, so the proxy
    /// does not fail over.
    #[test]
    fn a_head_damaged_on_the_hop_is_retried_on_the_same_shard() {
        for damaged in [b"Content-Length;", b"Content-Lengti:"] {
            let (body, intact, mutant) = reply_with_damaged_length(damaged);
            let bus = EventBus::new();
            assert_eq!(fetch_from_fake_shard(&bus, vec![mutant, intact]).unwrap().body, body);
            let text = bus.metrics(|m| m.render(&Default::default()));
            let fetches: Vec<&str> =
                text.lines().filter(|l| l.starts_with("regend_shard_fetches_total{")).collect();
            let expect = [
                "regend_shard_fetches_total{shard=\"0\",ok=\"false\"} 1",
                "regend_shard_fetches_total{shard=\"0\",ok=\"true\"} 1",
            ];
            assert_eq!(fetches, expect);
        }
    }

    #[test]
    fn a_marker_header_damaged_on_the_hop_fails_its_checksum() {
        let body = b"== Table 1 ==\nintact rendering\n".to_vec();
        let crc = format!("{:08x}", marked_crc32(&body, true, true));
        let fetch = |degraded: &str, quick: &str| {
            let headers = [
                ("X-Regend-Crc32", crc.clone()),
                (degraded, "true".to_string()),
                (quick, "true".to_string()),
            ];
            fetch_from_fake_shard(&EventBus::new(), vec![reply(&headers, &body)])
        };

        // Intact: the checksum covers the body and both markers.
        let ok = fetch("X-Regend-Degraded", "X-Regend-Quick").unwrap();
        assert!(ok.header("x-regend-degraded").is_some(), "the marker arrives");

        // One bit flipped in either marker's name (`d` -> `e`, `k` ->
        // `j`): the body is intact, but the degraded artifact must not
        // pass as clean, nor the quick one as full.
        for (degraded, quick) in
            [("X-Regend-Degradee", "X-Regend-Quick"), ("X-Regend-Degraded", "X-Regend-Quicj")]
        {
            let err = fetch(degraded, quick).unwrap_err();
            assert!(err.contains("checksum mismatch"), "{degraded}, {quick}: {err}");
        }
    }

    #[test]
    fn injected_drop_counts_as_a_failed_hop() {
        let plan = NetFaultPlan::new().fail_hop(Some(0), "", NetFaultKind::Drop, None);
        let cluster = Cluster::new(&["127.0.0.1:1".to_string()], Some(plan), 2);
        let bus = EventBus::new();
        let err = cluster.fetch(&bus, 0, "/cell/x").unwrap_err();
        assert!(err.contains("injected drop"), "{err}");
        let text = bus.metrics(|m| m.render(&Default::default()));
        assert!(
            text.contains("regend_net_faults_injected_total{kind=\"drop\"} 2\n"),
            "both attempts injected:\n{text}"
        );
        assert!(text.contains("regend_shard_state{shard=\"0\"} 1\n"), "suspect:\n{text}");
    }
}
