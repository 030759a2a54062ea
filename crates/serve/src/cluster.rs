//! Booting a whole `regend` cluster inside one process.
//!
//! Production deployments run N shard processes plus a proxy process
//! (as `tests/regend_processes.rs` does); tests and `regend --shards N` boot
//! the same topology in-process: N [`Server`]s — each with its own
//! epoll loop, executor, and journal — plus one proxy server whose
//! [`ServerConfig::shard_addrs`] points at them. The shards are real
//! network peers of the proxy (loopback TCP), so every cross-shard hop
//! crosses a socket and is subject to [`NetFaultPlan`] injection.
//!
//! [`NetFaultPlan`]: spectrebench::NetFaultPlan

use std::thread::JoinHandle;

use crate::core::{RunSummary, ServerConfig};
use crate::server::{Server, ServerHandle};

/// One booted shard: its index, where it listens, and how to stop it.
pub struct ShardInstance {
    /// Shard index (position in the proxy's address list).
    pub index: usize,
    /// The shard's listener address (`127.0.0.1:<port>`).
    pub addr: String,
    /// Drain handle.
    pub handle: ServerHandle,
    /// The serving thread; joins to the shard's run counters.
    pub join: JoinHandle<std::io::Result<RunSummary>>,
}

/// Derives shard `i`'s config from the cluster base config: same
/// workload knobs, its own port (0 = ephemeral), its own journal
/// (`<base>-shard<i>`), and no cluster fields of its own — a shard is
/// a plain server.
pub fn shard_config(base: &ServerConfig, i: usize) -> ServerConfig {
    let mut cfg = base.clone();
    cfg.addr = "127.0.0.1:0".to_string();
    cfg.journal = base.journal.as_ref().map(|p| {
        let mut os = p.clone().into_os_string();
        os.push(format!("-shard{i}"));
        std::path::PathBuf::from(os)
    });
    cfg.shard_addrs = Vec::new();
    cfg.net_inject = None;
    cfg
}

/// Derives the proxy's config: the base config pointed at `addrs`,
/// with no journal of its own (cells are journalled where they are
/// computed — on the shards; the proxy's executor only runs on
/// failover).
pub fn proxy_config(base: &ServerConfig, addrs: Vec<String>) -> ServerConfig {
    let mut cfg = base.clone();
    cfg.shard_addrs = addrs;
    cfg.journal = None;
    cfg
}

/// Boots `n` shards derived from `base`, each serving on its own
/// thread. Returns them in index order; pass their addresses to
/// [`proxy_config`].
pub fn boot_shards(base: &ServerConfig, n: usize) -> std::io::Result<Vec<ShardInstance>> {
    let mut shards = Vec::with_capacity(n);
    for index in 0..n {
        let server = Server::bind(shard_config(base, index))?;
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        shards.push(ShardInstance { index, addr, handle, join });
    }
    Ok(shards)
}
