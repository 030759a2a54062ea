//! Warm reads allocate nothing. A cached `/cell` or `/artifact`, served
//! by a plain `regend` or through a 2-shard proxy, is answered from a
//! kept rendering whose body and heads the connection writes as they
//! are, parsed in place into a recycled request, with no clock read
//! beyond its arrival.
//!
//! A counting global allocator sees every thread of the process, so this
//! is the only test in its binary (as in `golden_outputs.rs`), and its
//! own thread allocates nothing while it counts: the requests are built
//! and the expected replies rendered before the first count. Each case
//! counts 1,000 and then 2,000 pipelined reads on one warmed keep-alive
//! connection; a per-read allocation shows up as a difference of 1,000
//! per allocation, and the connection's own start-up cost cancels out.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serve::client::Connection;
use serve::{boot_shards, proxy_config, Response, ServerConfig};
use spectrebench::crc32;

mod support;
use support::{boot, cell_keys, cell_path, table_cells};

/// Heap allocations (and reallocations) made so far, by every thread.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Requests per pipelined batch: deeper than perfbench's 40, below the
/// 256 a connection may owe.
const DEPTH: usize = 50;

/// Reads of the two counted runs; their difference is the per-read cost.
const RUNS: [usize; 2] = [1_000, 2_000];

/// Fewer allocations than this between the two runs: under 0.02 per read.
const SLACK: u64 = 20;

/// One warmed keep-alive connection and one pipelined batch of reads
/// over `paths`, prebuilt: the request bytes, and the exact reply bytes
/// each keep-alive read must get back.
struct Pipeline {
    stream: TcpStream,
    requests: Vec<u8>,
    expected: Vec<u8>,
    reply: Vec<u8>,
}

impl Pipeline {
    fn new(addr: &str, paths: &[String], replies: &[Vec<u8>]) -> Pipeline {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
        let (mut requests, mut expected) = (Vec::new(), Vec::new());
        for i in 0..DEPTH {
            let path = &paths[i % paths.len()];
            let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n");
            requests.extend_from_slice(request.as_bytes());
            expected.extend_from_slice(&replies[i % paths.len()]);
        }
        let reply = vec![0; expected.len()];
        Pipeline { stream, requests, expected, reply }
    }

    /// Sends `reads` requests in batches of [`DEPTH`], checking every
    /// reply byte for byte. Allocates nothing.
    fn run(&mut self, reads: usize) {
        for _ in 0..reads / DEPTH {
            self.stream.write_all(&self.requests).expect("send a batch");
            self.stream.read_exact(&mut self.reply).expect("read a batch's replies");
            assert!(self.reply == self.expected, "a warm reply differs from its rendering");
        }
    }

    /// Allocations made, process-wide, while `reads` requests are served.
    fn count(&mut self, reads: usize) -> u64 {
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        self.run(reads);
        ALLOCATIONS.load(Ordering::SeqCst) - before
    }
}

/// Reads `path` once (cold: computed, or fetched from its owner) and
/// returns the exact replies a warm read must get, keep-alive and
/// `Connection: close`: the 200 a fresh `Response` renders for that body
/// and its checksum, head by `Response::render_head` followed by the
/// body.
fn rendered_replies(addr: &str, path: &str) -> [Vec<u8>; 2] {
    let mut conn = Connection::new(addr, Duration::from_secs(300));
    let cold = conn.get(path).unwrap_or_else(|e| panic!("GET {path}: {e}"));
    assert_eq!(cold.status, 200, "GET {path}: {}", cold.text());
    let checksum = format!("{:08x}", crc32(&cold.body));
    assert_eq!(cold.header("x-regend-crc32"), Some(checksum.as_str()), "GET {path}");
    let plain = if path.starts_with("/cell/") {
        Response::json(200, cold.text())
    } else {
        assert_eq!(cold.header("x-regend-degraded"), None, "GET {path}");
        Response::shared(200, cold.body.clone().into())
    };
    let plain = plain.with_header("X-Regend-Crc32", checksum);
    [true, false].map(|keep_alive| {
        let mut reply = plain.render_head(keep_alive);
        reply.extend_from_slice(&cold.body);
        reply
    })
}

/// A warm read with `Connection: close` on its own socket: the whole
/// stream up to the server's close.
fn read_closing(addr: &str, path: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let request = format!("GET {path} HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send");
    let mut reply = Vec::new();
    stream.read_to_end(&mut reply).expect("read to the close");
    reply
}

#[test]
fn warm_reads_allocate_nothing_direct_or_through_the_proxy() {
    let cfg = ServerConfig {
        workers: 2,
        jobs: Some(2),
        probe_interval: Duration::from_secs(3_600),
        ..ServerConfig::default()
    };
    let (direct, direct_handle, direct_join) = boot(cfg.clone());
    let shards = boot_shards(&cfg, 2).expect("boot two shards");
    let addrs = shards.iter().map(|s| s.addr.clone()).collect();
    let (proxy, proxy_handle, proxy_join) = boot(proxy_config(&cfg, addrs));

    let cells: Vec<String> = cell_keys()
        .iter()
        .map(|key| cell_path(key))
        .chain(table_cells().into_iter().take(8).map(|(_, path)| path))
        .collect();
    let artifacts: Vec<String> =
        ["table1", "table2", "table3", "table4"].iter().map(|a| format!("/artifact/{a}")).collect();

    let mut failures = Vec::new();
    for (server, base) in [("direct", &direct), ("proxied", &proxy)] {
        let addr = base.strip_prefix("http://").expect("base url");
        for (kind, paths) in [("/cell", &cells), ("/artifact", &artifacts)] {
            let mut keep_alive = Vec::new();
            for path in paths {
                let [open, closing] = rendered_replies(addr, path);
                assert!(read_closing(addr, path) == closing, "{server} {path}, Connection: close");
                keep_alive.push(open);
            }
            let mut pipeline = Pipeline::new(addr, paths, &keep_alive);
            pipeline.run(2 * DEPTH);
            let counts = RUNS.map(|reads| pipeline.count(reads));
            let extra = counts[1].abs_diff(counts[0]);
            eprintln!("{server} {kind}: {counts:?} allocations over {RUNS:?} warm reads");
            if extra >= SLACK {
                let per_read = extra as f64 / (RUNS[1] - RUNS[0]) as f64;
                failures.push(format!(
                    "{server} {kind}: {counts:?} allocations over {RUNS:?} reads, \
                     {per_read:.3} per warm read"
                ));
            }
        }
    }

    proxy_handle.drain();
    proxy_join.join().expect("proxy thread");
    for shard in shards {
        shard.handle.drain();
        shard.join.join().expect("shard thread").expect("shard run");
    }
    direct_handle.drain();
    direct_join.join().expect("direct server thread");
    assert!(failures.is_empty(), "warm reads allocate:\n{}", failures.join("\n"));
}
