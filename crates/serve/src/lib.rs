//! # serve — the `regend` query daemon
//!
//! The CLI regenerates the paper's artifacts as a batch; `regend`
//! serves the same renderings over the network, on demand, to many
//! concurrent clients. It answers from the same [`Executor`]
//! machinery as `regen` — same plans, same retry/watchdog/fault
//! envelope, same content-addressed cell cache — so anything it
//! returns is byte-identical to what the CLI would have printed (and,
//! for a full-fidelity server, to the committed
//! `results_regenerated.txt`).
//!
//! * [`http`] — a minimal hand-rolled HTTP/1.1 layer with an
//!   incremental, fragmentation-tolerant parser (the repo's
//!   no-external-crates policy extends to the wire).
//! * [`client`] — the matching HTTP/1.1 client: close-per-request and
//!   keep-alive (pipelined) `GET`s, polite retry, and the seeded
//!   backoff schedule. The proxy's shard hop, `regen fetch` and
//!   `regen loadgen` all ride on it.
//! * [`sys`] — raw `epoll(7)`/`eventfd(2)` shims, no libc crate.
//! * [`core`] — routing, validation, the three deduplication layers
//!   (rendered cache, single-flight, executor cell cache), and run
//!   counters.
//! * [`server`] — the event-driven front end: one epoll readiness
//!   loop, HTTP/1.1 keep-alive with pipelining, zero-copy cache hits,
//!   bounded dispatch to a worker pool (429 + `Retry-After` when
//!   full), per-request deadlines, idle/stall reaping, the `/metrics`
//!   exposition, graceful drain on SIGTERM.
//! * [`shard`] — the cluster building blocks: the consistent-hash
//!   routing ring, the per-shard health state machine
//!   (healthy → suspect → down), and the pooled fetch path with
//!   seeded network-fault injection and CRC-verified bodies.
//! * [`proxy`] — the cluster front end: route slow work to the owning
//!   shard, reassemble `/results` from the fan-out, fail over to local
//!   recompute (same bytes, degraded-mode headers) when a shard
//!   cannot answer.
//! * [`cluster`] — boot N shard instances plus a proxy in one process
//!   (`regend --shards N`, tests, the campaign driver).
//! * [`cluster_campaign`] — `regend campaign`: enumerate every
//!   (shard × net-fault × timing) coordinate, classify client-visible
//!   outcomes on the absorbed/degraded/failed-loud/silent-corruption
//!   lattice, and hold `CAMPAIGN_CLUSTER_BASELINE.json` at zero
//!   silent corruption.
//!
//! [`Executor`]: spectrebench::Executor

pub mod client;
pub mod cluster;
pub mod cluster_campaign;
pub mod core;
pub mod http;
pub mod proxy;
pub mod server;
pub mod shard;
pub mod sys;

pub use cluster::{boot_shards, proxy_config, shard_config, ShardInstance};
pub use cluster_campaign::{run_cluster_campaign, ClusterCampaignConfig};
pub use core::{RunSummary, ServerConfig, SlowWork};
pub use http::{
    percent_decode, percent_encode_path, Body, Rendered, Request, RequestParser, Response,
};
pub use server::{install_sigterm_hook, Server, ServerHandle};
pub use shard::{Cluster, HashRing, ShardHealth, ShardStatus};
