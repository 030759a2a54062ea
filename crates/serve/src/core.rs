//! The serving core: what the bytes say.
//!
//! `regend` is split into a *front end* (how bytes move: the
//! event-driven keep-alive loop in [`crate::server`]) and this *core*.
//! The core owns the three deduplication layers — rendered-artifact
//! cache, single-flight group, content-addressed executor cell cache —
//! plus routing and validation, so byte-for-byte a
//! response depends only on the request, never on how the connection
//! framed or pipelined it. `tests/serve_determinism.rs` pins that.
//!
//! Routing is split by cost. [`Core::route`] answers everything that
//! is O(1) — health, metrics, index pages, validation errors, *cache
//! hits* — and classifies the rest as [`SlowWork`]. The event loop
//! runs `route` inline on the loop thread and ships `SlowWork` to the
//! dispatch pool. The router slices its endpoint and arguments out of
//! the decoded path, and every hit, an artifact, a cell or `/results`,
//! answers from a kept [`Rendered`] response whose body and heads the
//! connection writes as they are: a hit costs one `HashMap` probe and
//! formats, hashes and allocates nothing.

// regend serves results; a request must never take down the process.
#![allow(clippy::result_large_err)]

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use spectrebench::obs::EventKind;
use spectrebench::{
    cell_value_json, crc32, crc32_extend, default_jobs, Artifact, EventBus, Executor, FaultPlan,
    FlightOutcome, Harness, HarnessStats, Journal, NetFaultPlan, RetryPolicy, SingleFlight,
};

use crate::http::{percent_encode_path, Rendered, Request, Response};
use crate::shard::Cluster;

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Configuration for one server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7979` (port 0 for tests).
    pub addr: String,
    /// Worker threads executing slow (cold-cache) requests.
    pub workers: usize,
    /// Dispatch-queue capacity; a full queue answers 429.
    pub queue_capacity: usize,
    /// Serve the quick workload variants (tests; the golden renderings
    /// are the full variants).
    pub quick: bool,
    /// Executor worker threads per plan (`None`: `REGEN_JOBS` / machine
    /// default).
    pub jobs: Option<usize>,
    /// Attempts per measurement cell (`None`: the standard 3).
    pub retries: Option<u32>,
    /// Deterministic fault injection on the backing executor (tests).
    pub inject: Option<FaultPlan>,
    /// Journal completed cells here (also the target of injected
    /// torn-write/journal-corrupt I/O faults).
    pub journal: Option<std::path::PathBuf>,
    /// Default per-request deadline; `None` means no deadline unless
    /// the request carries `?deadline_ms=`.
    pub default_deadline: Option<Duration>,
    /// How long a keep-alive connection may sit without making
    /// progress (no bytes read or written) before the event loop
    /// reaps it.
    pub idle_timeout: Duration,
    /// Shard listener addresses. Empty: this instance answers from its
    /// own executor (a plain server, or one shard of a cluster).
    /// Non-empty: this instance is the cluster proxy — slow work is
    /// routed to the owning shard and only recomputed locally on
    /// failover.
    pub shard_addrs: Vec<String>,
    /// Deterministic network-fault injection on the proxy↔shard hop
    /// (tests/campaigns; the executor-level `inject` stays separate).
    pub net_inject: Option<NetFaultPlan>,
    /// How often the proxy probes each shard's `/healthz`.
    pub probe_interval: Duration,
    /// Fetch attempts per shard hop before the proxy fails over to
    /// local recompute.
    pub fetch_attempts: u32,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:7979".to_string(),
            workers: 4,
            queue_capacity: 128,
            quick: false,
            jobs: None,
            retries: None,
            inject: None,
            journal: None,
            default_deadline: None,
            idle_timeout: Duration::from_secs(30),
            shard_addrs: Vec::new(),
            net_inject: None,
            probe_interval: Duration::from_millis(100),
            fetch_attempts: 3,
        }
    }
}

/// Renders an artifact for the serving cache: the exact block the CLI
/// prints (`== caption ==\n<text>\n`) as a 200 with its marker headers
/// (`degraded`: an attribution slice had to be bridged; `quick`: the
/// quick variant) and its wire checksum over both, so the cluster proxy
/// can detect damage on the proxy↔shard hop without a hit re-hashing
/// the body.
pub(crate) fn render_artifact(body: Arc<[u8]>, degraded: bool, quick: bool) -> Rendered {
    let checksum = format!("{:08x}", marked_crc32(&body, degraded, quick));
    let mut resp = Response::shared(200, body).with_header("X-Regend-Crc32", checksum);
    if degraded {
        resp = resp.with_header("X-Regend-Degraded", "true");
    }
    if quick {
        resp = resp.with_header("X-Regend-Quick", "true");
    }
    Rendered::new(resp)
}

/// The checksum an artifact response declares in `X-Regend-Crc32`: the
/// CRC-32 of its body followed by one tag per marker header it carries
/// (`X-Regend-Degraded`, then `X-Regend-Quick`). A marker lost or made
/// on the wire therefore fails the check like a damaged body does. The
/// tags start with `0xff`, which UTF-8 never contains, and an unmarked
/// response's checksum is its body's plain CRC-32.
pub(crate) fn marked_crc32(body: &[u8], degraded: bool, quick: bool) -> u32 {
    let mut crc = crc32(body);
    if degraded {
        crc = crc32_extend(crc, b"\xffdegraded");
    }
    if quick {
        crc = crc32_extend(crc, b"\xffquick");
    }
    crc
}

/// Outcome of obtaining an artifact: the rendering or the error text.
pub(crate) type ArtifactEntry = Result<Rendered, String>;

/// End-of-run counters, read from the bus and reported by `regend` at
/// exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunSummary {
    /// Requests admitted (answered inline or dispatched).
    pub admitted: u64,
    /// Requests rejected with 429.
    pub rejected: u64,
    /// Responses written for admitted requests (any status).
    pub served: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections that vanished mid-request or mid-response.
    pub disconnects: u64,
    /// Connections reaped by the idle/stall deadline.
    pub idle_timeouts: u64,
    /// Executor counters at drain time.
    pub stats: HarnessStats,
}

/// Work too slow for the event-loop thread: anything that may execute
/// experiment plans. Dispatched to the worker pool.
#[derive(Debug, Clone)]
pub enum SlowWork {
    /// `GET /artifact/<name>` missing the rendered cache.
    Artifact {
        /// The artifact to regenerate.
        artifact: Artifact,
        /// Quick-variant flag after `?quick=` resolution.
        quick: bool,
    },
    /// `GET /results` missing the whole-document cache.
    Results {
        /// Quick-variant flag after `?quick=` resolution.
        quick: bool,
    },
    /// `GET /cell/...` missing the executor cell cache.
    Cell {
        /// The artifact whose sweep owns the cell.
        artifact: Artifact,
        /// The experiment segment as the client wrote it (echoed in
        /// the not-found hint; `ablations`/`smt` both map onto the
        /// discussion artifact).
        experiment: String,
        /// The content key within that sweep.
        content_key: String,
        /// The seed (only 0 is golden-comparable, but cells accept any).
        seed: u64,
        /// Quick-variant flag after `?quick=` resolution.
        quick: bool,
    },
}

/// What `route` decided about one request.
pub enum Action {
    /// Fully answered on the routing thread (fast path / cache hit).
    Done(Response),
    /// Needs the executor: subject to admission control and dispatch.
    Slow(SlowWork),
    /// `POST /shutdown`: the front end starts draining, then writes
    /// this response.
    StartDrain(Response),
}

/// The shared serving core (see module docs).
pub struct Core {
    /// The resolved configuration.
    pub cfg: ServerConfig,
    /// The shared executor (content-addressed cell cache inside).
    pub exec: Executor,
    /// Event bus: the one set of counters behind `/metrics`, `/healthz`
    /// and [`RunSummary`].
    pub bus: Arc<EventBus>,
    /// The shard cluster when this instance is the proxy front end
    /// (see [`crate::proxy`]); `None` for plain servers and shards.
    pub cluster: Option<Cluster>,
    flights: SingleFlight<ArtifactEntry>,
    pub(crate) rendered: Mutex<HashMap<(&'static str, bool), Rendered>>,
    /// Renderings of the cells read so far, by seed and then content
    /// key (so a lookup borrows the key): made the first time a cell is
    /// answered from the executor's cell cache, or on a proxy from the
    /// verified bytes its owner sent.
    pub(crate) cells: Mutex<HashMap<u64, HashMap<String, Rendered>>>,
    /// `(artifact, quick)` pairs whose sweep ran on *this* executor, so
    /// its cell cache holds their values. A proxy's rendered cache can
    /// be filled from shard bytes instead, which satisfy `/artifact`
    /// and `/results` but carry no cell values — `/cell` failover must
    /// consult this, not the rendered cache.
    swept: Mutex<HashSet<(&'static str, bool)>>,
    results: Mutex<HashMap<bool, Rendered>>,
    /// Drain flag (SIGTERM, `POST /shutdown`, or a handle).
    pub draining: AtomicBool,
}

impl Core {
    /// Builds the executor stack from `cfg` (no sockets, no threads).
    pub fn new(cfg: ServerConfig) -> std::io::Result<Core> {
        let bus = Arc::new(EventBus::new());
        let mut harness = Harness::new();
        if let Some(plan) = &cfg.inject {
            harness = harness.with_plan(plan.clone());
        }
        if let Some(n) = cfg.retries {
            let mut retry = RetryPolicy::standard();
            retry.max_attempts = n.max(1);
            harness = harness.with_retry(retry);
        }
        let mut exec = Executor::new(harness)
            .with_jobs(cfg.jobs.unwrap_or_else(default_jobs))
            .with_obs(Arc::clone(&bus));
        if let Some(path) = &cfg.journal {
            exec = exec.with_journal(Journal::open(path)?);
        }
        let cluster = if cfg.shard_addrs.is_empty() {
            None
        } else {
            Some(Cluster::new(
                &cfg.shard_addrs,
                cfg.net_inject.clone(),
                cfg.fetch_attempts,
            ))
        };
        Ok(Core {
            cfg,
            exec,
            bus,
            cluster,
            flights: SingleFlight::new(),
            rendered: Mutex::new(HashMap::new()),
            cells: Mutex::new(HashMap::new()),
            swept: Mutex::new(HashSet::new()),
            results: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
        })
    }

    /// True once drain has started.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// The run counters as of now, read from the bus.
    pub fn summary(&self) -> RunSummary {
        let stats = self.exec.stats();
        self.bus.metrics(|m| RunSummary {
            admitted: m.requests(),
            rejected: m.rejected(),
            served: m.completed(),
            connections: m.connections(),
            disconnects: m.disconnects(),
            idle_timeouts: m.idle_timeouts(),
            stats,
        })
    }

    /// The effective deadline for one request: `?deadline_ms=`, else
    /// the server default. A value that is not a whole number of
    /// milliseconds is a 400.
    pub fn request_deadline(&self, request: &Request) -> Result<Option<Duration>, Response> {
        let Some(value) = request.query_param("deadline_ms") else {
            return Ok(self.cfg.default_deadline);
        };
        match value.parse::<u64>() {
            Ok(ms) => Ok(Some(Duration::from_millis(ms))),
            Err(_) => Err(Response::text(
                400,
                format!("regend: bad deadline_ms value {value:?} (use whole milliseconds)\n"),
            )),
        }
    }

    /// Routes a parsed request: answer it now, or classify the slow
    /// work. `queue_depth` is the server's current dispatch depth,
    /// reported by `/healthz`.
    pub fn route(&self, request: &Request, queue_depth: usize) -> (&'static str, Action) {
        let path = segments(&request.path);
        let mut parts = path.splitn(3, '/');
        match (request.method.as_str(), parts.next(), parts.next(), parts.next()) {
            ("GET", Some("healthz"), None, None) => {
                ("healthz", Action::Done(self.healthz(queue_depth)))
            }
            ("GET", Some("metrics"), None, None) => ("metrics", Action::Done(self.metrics())),
            ("GET", Some("artifacts"), None, None) => {
                ("artifacts", Action::Done(artifact_index()))
            }
            ("GET", Some("results"), None, None) => ("results", self.route_results(request)),
            ("GET", Some("artifact"), Some(name), None) => {
                ("artifact", self.route_artifact(request, name))
            }
            ("GET", Some("cell"), Some(experiment), Some(key)) => {
                ("cell", self.route_cell(request, experiment, key))
            }
            ("POST", Some("shutdown"), None, None) => {
                ("shutdown", Action::StartDrain(Response::text(200, "draining\n")))
            }
            ("GET", Some("shutdown"), None, None) => (
                "shutdown",
                Action::Done(Response::text(405, "regend: shutdown requires POST\n")),
            ),
            ("GET", ..) => ("error", Action::Done(Response::text(404, endpoint_index()))),
            _ => ("error", Action::Done(Response::text(405, "regend: method not allowed\n"))),
        }
    }

    /// Runs one piece of classified slow work to completion. A proxy
    /// core routes it to the owning shard (with failover back to the
    /// local executor); a plain core runs it locally.
    pub fn execute(&self, work: &SlowWork, path: &str) -> Response {
        match &self.cluster {
            Some(cluster) => crate::proxy::execute(self, cluster, work, path),
            None => self.execute_local(work, path),
        }
    }

    /// Runs slow work on this instance's own executor.
    pub(crate) fn execute_local(&self, work: &SlowWork, path: &str) -> Response {
        match work {
            SlowWork::Artifact { artifact, quick } => match self.obtain(*artifact, *quick, path) {
                Ok(r) => Response::rendered(r),
                Err(e) => {
                    Response::text(500, format!("regend: {} failed: {e}\n", artifact.name()))
                }
            },
            SlowWork::Results { quick } => {
                self.results_document(*quick, |artifact| self.obtain(artifact, *quick, path))
            }
            SlowWork::Cell { artifact, experiment, content_key, seed, quick } => {
                self.cell_response(*artifact, experiment, content_key, *seed, *quick, path)
            }
        }
    }

    fn healthz(&self, queue_depth: usize) -> Response {
        let status = if self.is_draining() { "draining" } else { "ok" };
        let mut body = format!(
            "{{\"status\":\"{}\",\"queue_depth\":{},\"in_flight\":{},\"cache_cells\":{},\"artifacts_cached\":{}",
            status,
            queue_depth,
            self.bus.metrics(|m| m.in_flight()),
            self.exec.cache_len(),
            lock(&self.rendered).len()
        );
        // A proxy also reports per-shard readiness: id, address,
        // state-machine position, and seconds since last contact.
        if let Some(cluster) = &self.cluster {
            body.push_str(",\"shards\":[");
            for (i, s) in cluster.statuses().iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let age = match s.last_seen_secs {
                    Some(a) => format!("{a:.3}"),
                    None => "null".to_string(),
                };
                body.push_str(&format!(
                    "{{\"shard\":{},\"addr\":\"{}\",\"state\":\"{}\",\"last_probe_age_secs\":{}}}",
                    s.shard, s.addr, s.state, age
                ));
            }
            body.push(']');
        }
        body.push_str("}\n");
        checksummed_json(body)
    }

    fn metrics(&self) -> Response {
        let stats = self.exec.stats();
        Response::text(200, self.bus.metrics(|m| m.render(&stats)))
    }

    /// `GET /artifact/<name>[?quick=0|1][&seed=0][&deadline_ms=..]`
    fn route_artifact(&self, request: &Request, name: &str) -> Action {
        let artifact = match Artifact::parse(name) {
            Some(a) => a,
            None => return Action::Done(unknown_artifact(name)),
        };
        if let Some(seed) = request.query_param("seed") {
            if seed != "0" && seed != "default" {
                return Action::Done(Response::text(
                    400,
                    "regend: only the pinned default seed (seed=0) is served; \
                     renderings at other seeds are not golden-comparable\n",
                ));
            }
        }
        let quick = match self.quick_for(request) {
            Ok(q) => q,
            Err(resp) => return Action::Done(resp),
        };
        if let Some(r) = lock(&self.rendered).get(&(artifact.name(), quick)).cloned() {
            self.bus.emit(artifact.name(), &request.path, "", 0, EventKind::ArtifactCacheHit);
            return Action::Done(Response::rendered(r));
        }
        Action::Slow(SlowWork::Artifact { artifact, quick })
    }

    /// `GET /results[?quick=0|1]`: every artifact in paper order, one
    /// document — byte-identical to `regen`'s stdout. A fully-rendered
    /// document is cached whole; a hit counts one rendered-cache hit
    /// per embedded artifact, exactly as assembling it would.
    fn route_results(&self, request: &Request) -> Action {
        let quick = match self.quick_for(request) {
            Ok(q) => q,
            Err(resp) => return Action::Done(resp),
        };
        if let Some(r) = lock(&self.results).get(&quick).cloned() {
            for artifact in Artifact::ALL {
                self.bus.emit(artifact.name(), &request.path, "", 0, EventKind::ArtifactCacheHit);
            }
            return Action::Done(Response::rendered(r));
        }
        Action::Slow(SlowWork::Results { quick })
    }

    /// Assembles the `/results` document: every artifact's block in
    /// paper order, each obtained through `fill` (this core's cache and
    /// executor, or a proxy's shard-first fill). An artifact that fails
    /// renders as its `FAILED` block and is counted in
    /// `X-Regend-Failures`; only a document without failures is cached.
    pub(crate) fn results_document(
        &self,
        quick: bool,
        mut fill: impl FnMut(Artifact) -> ArtifactEntry,
    ) -> Response {
        let mut body = Vec::new();
        let mut failures = 0u32;
        for artifact in Artifact::ALL {
            match fill(artifact) {
                Ok(r) => body.extend_from_slice(&r.body),
                Err(_) => {
                    failures += 1;
                    body.extend_from_slice(artifact.block(None).as_bytes());
                }
            }
        }
        let resp = Response::shared(200, body.into());
        if failures > 0 {
            return resp.with_header("X-Regend-Failures", failures.to_string());
        }
        let rendered = Rendered::new(resp);
        lock(&self.results).insert(quick, rendered.clone());
        Response::rendered(rendered)
    }

    /// `GET /cell/<experiment>/<content-key>[?seed=N]`: one lattice
    /// cell as journal-shaped JSON.
    fn route_cell(&self, request: &Request, experiment: &str, content_key: &str) -> Action {
        let artifact = match Artifact::for_experiment(experiment) {
            Some(a) => a,
            None => return Action::Done(unknown_artifact(experiment)),
        };
        let seed = match request.query_param("seed").unwrap_or("0").parse::<u64>() {
            Ok(s) => s,
            Err(_) => {
                return Action::Done(Response::text(
                    400,
                    "regend: seed must be a non-negative integer\n",
                ))
            }
        };
        let quick = match self.quick_for(request) {
            Ok(q) => q,
            Err(resp) => return Action::Done(resp),
        };
        if let Some(r) = self.cell_rendering(content_key, seed) {
            self.bus.emit(artifact.name(), &request.path, content_key, 0, EventKind::CellCacheHit);
            return Action::Done(Response::rendered(r));
        }
        Action::Slow(SlowWork::Cell {
            artifact,
            experiment: experiment.to_string(),
            content_key: content_key.to_string(),
            seed,
            quick,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn cell_response(
        &self,
        artifact: Artifact,
        experiment: &str,
        content_key: &str,
        seed: u64,
        quick: bool,
        path: &str,
    ) -> Response {
        if self.exec.cache_lookup(content_key, seed).is_none() {
            if let Err(e) = self.ensure_cells(artifact, quick, path) {
                return Response::text(
                    500,
                    format!("regend: computing {} for this cell failed: {e}\n", artifact.name()),
                );
            }
        }
        match self.cell_rendering(content_key, seed) {
            Some(r) => Response::rendered(r),
            None => Response::text(
                404,
                format!(
                    "regend: no cell {:?} (seed {seed}) under {}; try\n  GET /cell/{}/{}?seed={seed}\nafter checking the key against the journal or trace output\n",
                    content_key,
                    experiment,
                    experiment,
                    percent_encode_path(content_key),
                ),
            ),
        }
    }

    /// The rendering of cell `(content_key, seed)`: the kept one, else
    /// one made from the executor's cell cache and kept. `None` while the
    /// executor does not hold the cell.
    fn cell_rendering(&self, content_key: &str, seed: u64) -> Option<Rendered> {
        if let Some(r) = lock(&self.cells).get(&seed).and_then(|by_key| by_key.get(content_key)) {
            return Some(r.clone());
        }
        let value = self.exec.cache_lookup(content_key, seed)?;
        let body = format!("{}\n", cell_value_json(content_key, seed, &value));
        let rendered = Rendered::new(checksummed_json(body));
        self.keep_cell(content_key, seed, rendered.clone());
        Some(rendered)
    }

    /// Keeps the rendering of cell `(content_key, seed)` for later hits.
    pub(crate) fn keep_cell(&self, content_key: &str, seed: u64, rendered: Rendered) {
        lock(&self.cells).entry(seed).or_default().insert(content_key.to_string(), rendered);
    }

    /// Resolves the effective quick flag: the server default, overridden
    /// by `?quick=0|1`.
    fn quick_for(&self, request: &Request) -> Result<bool, Response> {
        match request.query_param("quick") {
            None => Ok(self.cfg.quick),
            Some("1") | Some("true") => Ok(true),
            Some("0") | Some("false") => Ok(false),
            Some(other) => Err(Response::text(
                400,
                format!("regend: bad quick value {other:?} (use 0 or 1)\n"),
            )),
        }
    }

    /// Obtains one artifact entry: rendered cache, then single-flight
    /// computation on the shared executor. Successful (including
    /// degraded) renderings are cached; failures are not, so a
    /// transiently failing artifact recovers on the next query.
    pub(crate) fn obtain(&self, artifact: Artifact, quick: bool, path: &str) -> ArtifactEntry {
        if let Some(r) = lock(&self.rendered).get(&(artifact.name(), quick)).cloned() {
            self.bus.emit(artifact.name(), path, "", 0, EventKind::ArtifactCacheHit);
            return Ok(r);
        }
        self.sweep(artifact, quick, path)
    }

    /// Guarantees this executor's cell cache holds `artifact`'s cells,
    /// running the sweep if it has not run here yet. A rendered-cache
    /// hit is *not* sufficient evidence: on a proxy the rendered body
    /// may have been filled from a shard's bytes, which answer
    /// `/artifact` and `/results` but carry no cell values.
    pub(crate) fn ensure_cells(
        &self,
        artifact: Artifact,
        quick: bool,
        path: &str,
    ) -> Result<(), String> {
        if lock(&self.swept).contains(&(artifact.name(), quick)) {
            return Ok(());
        }
        self.sweep(artifact, quick, path).map(|_| ())
    }

    /// Runs the artifact's sweep on the local executor (single-flight:
    /// concurrent callers coalesce onto one run), rendering and caching
    /// the block and marking the cells swept.
    fn sweep(&self, artifact: Artifact, quick: bool, path: &str) -> ArtifactEntry {
        let flight_key = format!("{}/{}", artifact.name(), quick);
        let (entry, outcome) = self.flights.run(&flight_key, || {
            match artifact.regenerate(quick, &self.exec) {
                Ok(out) => {
                    let block = artifact.block(Some(&out.text));
                    let rendered = render_artifact(block.into_bytes().into(), out.degraded, quick);
                    lock(&self.rendered).insert((artifact.name(), quick), rendered.clone());
                    lock(&self.swept).insert((artifact.name(), quick));
                    Ok(rendered)
                }
                Err(e) => Err(e.to_string()),
            }
        });
        if outcome == FlightOutcome::Coalesced {
            self.bus.emit(artifact.name(), path, "", 0, EventKind::FlightCoalesced);
        }
        entry
    }
}

/// Builds a 200 JSON response checksummed like artifact bodies: the
/// proxy verifies every shard hop, cell fills and `/healthz` probes
/// alike.
pub(crate) fn checksummed_json(body: String) -> Response {
    let checksum = format!("{:08x}", crc32(body.as_bytes()));
    Response::json(200, body).with_header("X-Regend-Crc32", checksum)
}

/// `path`'s non-empty `/`-separated segments joined by `/`, which the
/// router slices its endpoint and arguments out of: `//cell/t//k/`
/// routes as `cell/t/k`. Borrowed, unless the path has an empty segment
/// past its leading `/`.
fn segments(path: &str) -> Cow<'_, str> {
    let path = path.strip_prefix('/').unwrap_or(path);
    if path.is_empty() || path.split('/').all(|s| !s.is_empty()) {
        return Cow::Borrowed(path);
    }
    Cow::Owned(path.split('/').filter(|s| !s.is_empty()).collect::<Vec<_>>().join("/"))
}

/// True once `arrived + deadline` has passed.
pub fn deadline_expired(deadline: Option<Duration>, arrived: Instant) -> bool {
    deadline.is_some_and(|d| arrived.elapsed() > d)
}

fn artifact_index() -> Response {
    let mut body = String::new();
    for a in Artifact::ALL {
        body.push_str(&format!("{:14} {}\n", a.name(), a.caption()));
    }
    Response::text(200, body)
}

fn unknown_artifact(name: &str) -> Response {
    let mut body = format!("regend: unknown artifact: {name}\n");
    if let Some(suggestion) = Artifact::suggest(name) {
        body.push_str(&format!("did you mean: {suggestion}?\n"));
    }
    body.push_str("see GET /artifacts for the full list\n");
    Response::text(404, body)
}

fn endpoint_index() -> String {
    "regend endpoints:\n\
     \x20 GET  /healthz                         liveness + queue depth\n\
     \x20 GET  /metrics                         Prometheus-style exposition\n\
     \x20 GET  /artifacts                       artifact names and captions\n\
     \x20 GET  /artifact/<name>[?quick=0|1]     one artifact rendering\n\
     \x20 GET  /results[?quick=0|1]             every artifact, paper order\n\
     \x20 GET  /cell/<experiment>/<key>[?seed=N] one lattice cell as JSON\n\
     \x20 POST /shutdown                        graceful drain\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::RequestParser;

    /// The artifacts that render in under a second, whose cells
    /// `perfbench/cells.tsv` lists.
    const CHEAP_ARTIFACTS: [&str; 15] = [
        "table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
        "figure5", "table9", "table10", "vm", "eibrs-bimodal", "ebpf", "targeted",
    ];

    /// The segment rule the slicing router replaced, kept as its oracle:
    /// split the decoded path on `/`, drop empty segments, match, and
    /// re-join a cell key's segments.
    fn oracle_route(core: &Core, request: &Request) -> (&'static str, Action) {
        let segments: Vec<&str> =
            request.path.split('/').filter(|s| !s.is_empty()).collect();
        match (request.method.as_str(), segments.as_slice()) {
            ("GET", ["healthz"]) => ("healthz", Action::Done(core.healthz(0))),
            ("GET", ["metrics"]) => ("metrics", Action::Done(core.metrics())),
            ("GET", ["artifacts"]) => ("artifacts", Action::Done(artifact_index())),
            ("GET", ["results"]) => ("results", core.route_results(request)),
            ("GET", ["artifact", name]) => ("artifact", core.route_artifact(request, name)),
            ("GET", ["cell", experiment, rest @ ..]) if !rest.is_empty() => {
                ("cell", core.route_cell(request, experiment, &rest.join("/")))
            }
            ("POST", ["shutdown"]) => {
                ("shutdown", Action::StartDrain(Response::text(200, "draining\n")))
            }
            ("GET", ["shutdown"]) => (
                "shutdown",
                Action::Done(Response::text(405, "regend: shutdown requires POST\n")),
            ),
            ("GET", _) => ("error", Action::Done(Response::text(404, endpoint_index()))),
            _ => ("error", Action::Done(Response::text(405, "regend: method not allowed\n"))),
        }
    }

    /// What a routing decision puts on the wire: a response's bytes, or
    /// the slow work it hands the pool.
    fn shown((endpoint, action): (&'static str, Action)) -> (&'static str, String) {
        let wire = |r: Response| {
            let mut bytes = r.render_head(true);
            bytes.extend_from_slice(r.body.as_bytes());
            String::from_utf8_lossy(&bytes).into_owned()
        };
        let shown = match action {
            // The exposition reads process-wide counters that tests
            // running beside this one move.
            Action::Done(r) if endpoint == "metrics" => format!("{} exposition", r.status),
            Action::Done(r) => wire(r),
            Action::StartDrain(r) => format!("drain, then {}", wire(r)),
            Action::Slow(work) => format!("{work:?}"),
        };
        (endpoint, shown)
    }

    fn parse(method: &str, target: &str) -> Request {
        let mut parser = RequestParser::new();
        parser.push(format!("{method} {target} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes());
        parser.next_request().expect("a well-formed head").expect("a complete head")
    }

    /// The router slices what the segment rule collected and re-joined:
    /// the same endpoint and the same bytes, or the same slow work, for
    /// every warm cell perfbench reads, the 15 cheap artifacts, those
    /// paths with empty segments, doubled `%2F`s and trailing slashes
    /// worked in, and a list of odd paths (empty keys, non-ASCII and
    /// invalid UTF-8, `+` in a key, other methods).
    #[test]
    fn the_slicing_router_routes_as_the_segment_rule_did() {
        let core = Core::new(ServerConfig { jobs: Some(2), ..ServerConfig::default() })
            .expect("a core without a journal");
        let mut targets = Vec::new();
        for name in CHEAP_ARTIFACTS {
            let target = format!("/artifact/{name}");
            let Action::Slow(work) = core.route(&parse("GET", &target), 0).1 else {
                panic!("{target} starts cold")
            };
            assert_eq!(core.execute(&work, &target).status, 200, "{target}");
            targets.push(target);
        }
        let cells = include_str!("../../../perfbench/cells.tsv")
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.split_once('\t').expect("experiment<TAB>content key"));
        let mut warm = 0;
        for (experiment, key) in cells {
            let segment = percent_encode_path(key).replace('/', "%2F");
            let target = format!("/cell/{experiment}/{segment}");
            match core.route(&parse("GET", &target), 0) {
                ("cell", Action::Done(r)) if r.status == 200 => warm += 1,
                (endpoint, _) => panic!("{target} is not a warm cell ({endpoint})"),
            }
            targets.push(format!("/cell/{experiment}/{}", percent_encode_path(key)));
            targets.push(format!("//cell//{experiment}//{segment}//"));
            targets.push(format!("/cell/{experiment}/%2F{}", segment.replace("%2F", "%2F%2F")));
            targets.push(format!("{target}/?seed=0"));
            targets.push(target);
        }
        assert_eq!(warm, 239, "perfbench reads 239 cells");
        let odd = [
            "", "/", "//", "///", "?seed=0", "/healthz", "healthz", "/healthz/", "//healthz//",
            "/healthz/x", "/metrics", "/metrics/", "/artifacts", "/results", "//results/",
            "/results/x", "/artifact", "/artifact/", "/artifact//table1", "/artifact/table1/",
            "/artifact/table1//", "/artifact/table1/x", "/artifact/table1%2Fx",
            "/artifact/t%C3%A5ble1", "/artifact/tåble1", "/artifact/%FF", "/artifact/figre2",
            "/artifact/table1?seed=7", "/artifact/table1?quick=x", "/cell", "/cell/", "/cell//",
            "/cell/table1", "/cell/table1/", "/cell/table1//", "/cell/table1/%2F",
            "/cell/table1/%2F%2F", "/cell/%2Ftable1%2F/Broadwell", "/cell/tabel1/Broadwell",
            "/cell/table1/Broadwell", "/cell/table1/Broadwell/mitigations?seed=1",
            "/cell/table1/Broadwell/mitigations?seed=x",
            "/cell/table1/Br%C3%B6adwell%2Fmitigations", "/cell/table1/Bröadwell/mitigations",
            "/cell/table1/%FF%FE/mitigations", "/cell/ablations/x/y", "/cell/smt/x",
            "/cell/figure3/Broadwell%2Fcrypto%2F%5Bmitigations%3Doff%20js%3Dim+og%5D",
            "/cell/figure3/Broadwell%2Fcrypto%2F%5Bmitigations%3Doff%20js%3Dim%2Bog%5D",
            "/shutdown", "/shutdown/", "//shutdown", "/shutdown/now", "/nope", "/%2F",
        ];
        targets.extend(odd.iter().map(|t| t.to_string()));
        for target in &targets {
            for method in ["GET", "POST", "HEAD"] {
                let request = parse(method, target);
                let got = shown(core.route(&request, 0));
                let want = shown(oracle_route(&core, &request));
                assert_eq!(got, want, "{method} {target}");
            }
        }

        // figure3's `js=im+og` cell: a `+` in a path is a plus, however
        // it is spelled.
        let plus = odd.iter().filter(|t| t.starts_with("/cell/figure3/")).map(|t| {
            match core.route(&parse("GET", t), 0).1 {
                Action::Slow(SlowWork::Cell { content_key, .. }) => content_key,
                _ => panic!("{t} is a cold cell"),
            }
        });
        let keys: Vec<String> = plus.collect();
        assert_eq!(keys, ["Broadwell/crypto/[mitigations=off js=im+og]"; 2]);
    }

    #[test]
    fn unknown_artifact_suggests_the_closest_name() {
        let resp = unknown_artifact("figre2");
        assert_eq!(resp.status, 404);
        let body = String::from_utf8_lossy(resp.body.as_bytes()).into_owned();
        assert!(body.contains("did you mean: figure2?"), "{body}");
    }
}
