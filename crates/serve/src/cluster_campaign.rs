//! Serving-tier fault-space campaigns: enumerate every
//! (shard × net-fault-kind × timing) coordinate, boot a real cluster
//! under that fault, burst requests through the proxy, and classify
//! what clients observed on the absorbed / degraded / failed-loud /
//! silent-corruption lattice.
//!
//! This is the cluster analogue of the executor-level campaign
//! (`regen campaign`): where that one proves the *compute* tier's
//! retry/journal envelope, this one proves the *serving* tier's
//! retry/failover envelope. Both share the core campaign model
//! ([`spectrebench::campaign`]): this driver only fills an
//! [`Observation`] per coordinate and builds the [`Report`]. The report
//! is byte-deterministic (classes only: request and retry counts depend
//! on scheduling, so its rows leave them out) so
//! `CAMPAIGN_CLUSTER_BASELINE.json` can be committed and CI can hold
//! the line at zero silent corruption.
//!
//! Topology per run: one set of shard servers (booted once — shard
//! caches only make hops faster, never change bytes) and one fresh
//! proxy per coordinate carrying that coordinate's [`NetFaultPlan`]
//! with zeroed delivery counters. Every burst compares response bytes
//! against a serial single-server reference fetched up front.
//!
//! [`NetFaultPlan`]: spectrebench::NetFaultPlan

use spectrebench::{
    classify, enumerate_cluster_coordinates, Artifact, ClusterCoordinate, Observation, Outcome,
    Report, SurvivalClass,
};

use crate::client::Connection;
use crate::cluster::{boot_shards, proxy_config, shard_config};
use crate::core::ServerConfig;
use crate::server::Server;

/// Knobs for one serving-tier campaign.
#[derive(Debug, Clone)]
pub struct ClusterCampaignConfig {
    /// Cluster width; the coordinate space scales linearly with it.
    pub shards: usize,
    /// Quick workload variants (the committed baseline uses quick —
    /// the serving tier's behavior is variant-independent).
    pub quick: bool,
    /// Executor worker threads per plan (`None`: `REGEN_JOBS` /
    /// machine default).
    pub jobs: Option<usize>,
}

impl Default for ClusterCampaignConfig {
    fn default() -> ClusterCampaignConfig {
        ClusterCampaignConfig { shards: 4, quick: true, jobs: None }
    }
}

/// The burst issued per coordinate: the whole-document fan-out plus
/// every single-artifact path, so at least one hop lands on every
/// shard that owns anything.
pub fn burst_paths(quick: bool) -> Vec<String> {
    let q = u32::from(quick);
    let mut paths = vec![format!("/results?quick={q}")];
    for artifact in Artifact::ALL {
        paths.push(format!("/artifact/{}?quick={q}", artifact.name()));
    }
    paths
}

fn timeout() -> std::time::Duration {
    std::time::Duration::from_secs(60)
}

/// Fetches every burst path once from `addr`, returning the bodies.
fn fetch_bodies(addr: &str, paths: &[String]) -> Result<Vec<Vec<u8>>, String> {
    let mut conn = Connection::new(addr, timeout());
    paths
        .iter()
        .map(|p| match conn.get_classified(p) {
            Ok(r) if r.status == 200 => Ok(r.body),
            Ok(r) => Err(format!("{p} answered {}", r.status)),
            Err((_, e)) => Err(format!("{p} failed: {e}")),
        })
        .collect()
}

/// Reduces one burst to what classification needs. Each response is
/// `(status, body matches the reference, marked degraded)`, the status
/// `None` for a transport error. A 200 with other bytes is silent
/// corruption; a transport error, any status but 200 or 503, or a burst
/// without one correct 200 is loud; a shed 503 or a degraded marker
/// (failover) is degraded.
fn observe_burst(burst: &[(Option<u16>, bool, bool)]) -> Observation {
    let mut obs = Observation::default();
    let mut answered = false;
    for &(status, matches, marked) in burst {
        match status {
            Some(200) => {
                answered |= matches;
                obs.silent |= !matches;
                obs.degraded |= marked;
            }
            Some(503) => obs.degraded = true,
            _ => obs.failed = true,
        }
    }
    obs.failed |= !answered;
    obs
}

/// Runs the full campaign and returns the deterministic report.
pub fn run_cluster_campaign(
    cfg: &ClusterCampaignConfig,
) -> std::io::Result<Report<ClusterCoordinate>> {
    let base = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        quick: cfg.quick,
        jobs: cfg.jobs,
        // Two attempts per hop keep `first`-timing absorption observable
        // while bounding the worst-case backoff spent before failover.
        fetch_attempts: 2,
        ..ServerConfig::default()
    };
    let paths = burst_paths(cfg.quick);

    // Serial reference: one plain server, every path once.
    let reference = {
        let server = Server::bind(shard_config(&base, usize::MAX))?;
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        let bodies = fetch_bodies(&addr, &paths);
        handle.drain();
        let _ = join.join();
        bodies.map_err(|e| {
            std::io::Error::other(format!("serial reference sweep failed: {e}"))
        })?
    };

    // The shard tier, shared across coordinates.
    let shards = boot_shards(&base, cfg.shards)?;
    let addrs: Vec<String> = shards.iter().map(|s| s.addr.clone()).collect();

    let mut outcomes = Vec::new();
    for coord in enumerate_cluster_coordinates(cfg.shards) {
        let mut proxy_cfg = proxy_config(&base, addrs.clone());
        proxy_cfg.net_inject = Some(coord.net_fault_plan());
        let proxy = Server::bind(proxy_cfg)?;
        let proxy_addr = proxy.local_addr().to_string();
        let handle = proxy.handle();
        let join = std::thread::spawn(move || proxy.run());

        let mut conn = Connection::new(&proxy_addr, timeout());
        let burst: Vec<_> = paths
            .iter()
            .zip(&reference)
            .map(|(path, want)| match conn.get_classified(path) {
                Ok(r) => {
                    let marked = r.header("x-regend-shard-degraded").is_some();
                    (Some(r.status), r.body == *want, marked)
                }
                Err(_) => (None, false, false),
            })
            .collect();
        handle.drain();
        let _ = join.join();

        let class = classify(&observe_burst(&burst));
        let detail = match class {
            SurvivalClass::Absorbed => "retry absorbed the fault".to_string(),
            SurvivalClass::Degraded => "failover to local recompute".to_string(),
            SurvivalClass::FailedLoud => "request errors reached the client".to_string(),
            SurvivalClass::SilentCorruption => "byte mismatch reached the client".to_string(),
        };
        outcomes.push(Outcome { coord, class, counts: None, detail });
    }

    for shard in shards {
        shard.handle.drain();
        let _ = shard.join.join();
    }

    Ok(Report {
        inputs: vec![
            ("version", "\"regend-cluster-campaign/v1\"".to_string()),
            ("shards", cfg.shards.to_string()),
            ("requests_per_coordinate", paths.len().to_string()),
            ("quick", cfg.quick.to_string()),
        ],
        title: format!(
            "cluster survivability matrix ({} coordinate(s), {} shard(s), {} request(s) each)",
            outcomes.len(),
            cfg.shards,
            paths.len()
        ),
        outcomes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spectrebench::{FaultPoint, FaultTiming, NetFaultKind};

    #[test]
    fn bursts_reduce_to_their_class() {
        let class = |burst: &[(Option<u16>, bool, bool)]| classify(&observe_burst(burst));
        let ok = (Some(200), true, false);
        let shed = (Some(503), false, false);
        assert_eq!(class(&[ok, ok]), SurvivalClass::Absorbed);
        assert_eq!(class(&[ok, shed]), SurvivalClass::Degraded, "shed load");
        assert_eq!(class(&[ok, (Some(200), true, true)]), SurvivalClass::Degraded, "failover");
        assert_eq!(class(&[ok, (None, false, false)]), SurvivalClass::FailedLoud, "error");
        assert_eq!(class(&[ok, (Some(500), false, false)]), SurvivalClass::FailedLoud, "status");
        assert_eq!(class(&[shed, shed]), SurvivalClass::FailedLoud, "no correct 200 is loud");
        assert_eq!(class(&[]), SurvivalClass::FailedLoud, "no 200 at all is loud");
        // A byte mismatch outranks everything, even a clean-looking run.
        assert_eq!(class(&[ok, (Some(200), false, false)]), SurvivalClass::SilentCorruption);
    }

    /// A one-shard campaign end to end: the whole coordinate space is
    /// classified, nothing silently corrupts, and `always`-timing
    /// faults degrade (failover) rather than fail loud.
    #[test]
    fn one_shard_campaign_classifies_the_space() {
        let report = run_cluster_campaign(&ClusterCampaignConfig {
            shards: 1,
            quick: true,
            jobs: Some(2),
        })
        .expect("campaign runs");
        assert_eq!(report.outcomes.len(), NetFaultKind::ALL.len() * FaultTiming::ALL.len());
        assert!(
            report.silent_corruptions().is_empty(),
            "silent corruption:\n{}",
            report.render_matrix()
        );
        for outcome in &report.outcomes {
            match outcome.coord.timing {
                FaultTiming::First => assert_eq!(
                    outcome.class,
                    SurvivalClass::Absorbed,
                    "first-timing fault must be absorbed by retry: {}\n{}",
                    outcome.coord.id(),
                    report.render_matrix()
                ),
                FaultTiming::Always => assert_eq!(
                    outcome.class,
                    SurvivalClass::Degraded,
                    "always-timing fault must degrade, not fail: {}\n{}",
                    outcome.coord.id(),
                    report.render_matrix()
                ),
            }
        }
        // The report is byte-deterministic: rendering twice is identical.
        assert_eq!(report.to_json(), report.to_json());
    }
}
