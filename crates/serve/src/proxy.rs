//! The cluster front end: route slow work to the owning shard, fail
//! over to local recompute when the shard cannot answer.
//!
//! A proxy `regend` runs the same routing/core as a plain server —
//! `Core::route` still answers cache hits and validation inline — but
//! its [`Core::execute`] lands here instead of on the local executor.
//! Every piece of slow work has a single *owner* shard determined by
//! the consistent-hash ring ([`crate::shard::HashRing`]): artifacts
//! hash by name, cells by content key, and `/results` fans out one
//! fetch per artifact in paper order and reassembles the document.
//! What the proxy fetches it keeps: renderings in its rendered cache,
//! and cells in its executor's cell cache ([`Executor::cache_fill`])
//! and, rendered from the very bytes the owner signed, in its kept cell
//! renderings. So a cross-shard cache miss is filled from the shard that
//! already journalled the work instead of being recomputed, and a cell
//! read once is answered on the event loop after that, with no hop and
//! nothing re-rendered. A cell is a pure function of its content key
//! and seed, so a kept cell never goes stale, and it survives the loss
//! of its owner.
//!
//! [`Executor::cache_fill`]: spectrebench::Executor::cache_fill
//!
//! Failure handling is layered, worst case last:
//!
//! 1. the hop itself retries with seeded backoff
//!    ([`Cluster::fetch`]), absorbing transient faults;
//! 2. a hop that stays broken — or a shard already marked down — fails
//!    over to the proxy's local executor, which recomputes the same
//!    deterministic bytes (`ShardFailover` event, `X-Regend-Shard-
//!    Degraded` header);
//! 3. a down shard additionally stamps `Retry-After: 1`, telling
//!    clients the cluster is degraded and when to try again.
//!
//! Silent corruption is structurally excluded: every shard 200 carries
//! `X-Regend-Crc32`, verified on receipt ([`crate::shard::verify_hop`])
//! — a damaged hop, a 200 without the header, or a signed response that
//! is not a 200 is a *detected* transient failure that re-enters the
//! first layer. A signed `/cell` 200 that is not the cell asked for
//! fails over (the second layer), and is neither kept nor passed on.

use spectrebench::obs::{EventKind, ShardState};
use spectrebench::{cell_value_json, parse_cell_json, Artifact};

use crate::client::HttpResponse;
use crate::core::{lock, render_artifact, ArtifactEntry, Core, SlowWork};
use crate::http::{percent_encode_path, Rendered, Response};
use crate::shard::Cluster;

/// Runs one piece of slow work through the cluster.
pub(crate) fn execute(core: &Core, cluster: &Cluster, work: &SlowWork, path: &str) -> Response {
    match work {
        SlowWork::Artifact { artifact, quick } => {
            let (entry, failover) = fill_artifact(core, cluster, *artifact, *quick, path);
            let resp = match entry {
                Ok(r) => Response::rendered(r),
                Err(e) => {
                    Response::text(500, format!("regend: {} failed: {e}\n", artifact.name()))
                }
            };
            degrade(resp, cluster, failover.as_slice())
        }
        // `/results` fans out one owner fetch per artifact, reassembled
        // in paper order: byte-identical to a single server's document.
        SlowWork::Results { quick } => {
            let mut failovers: Vec<usize> = Vec::new();
            let resp = core.results_document(*quick, |artifact| {
                let (entry, failover) = fill_artifact(core, cluster, artifact, *quick, path);
                if let Some(shard) = failover.filter(|s| !failovers.contains(s)) {
                    failovers.push(shard);
                }
                entry
            });
            degrade(resp, cluster, &failovers)
        }
        SlowWork::Cell { artifact: _, experiment, content_key, seed, quick } => {
            cell(core, cluster, work, experiment, content_key, *seed, *quick, path)
        }
    }
}

/// Obtains one artifact rendering: proxy rendered cache, then the
/// owning shard, then local recompute. Returns the entry plus the
/// shard index if layer 2 (failover) had to answer.
fn fill_artifact(
    core: &Core,
    cluster: &Cluster,
    artifact: Artifact,
    quick: bool,
    path: &str,
) -> (ArtifactEntry, Option<usize>) {
    if let Some(r) = lock(&core.rendered).get(&(artifact.name(), quick)).cloned() {
        core.bus.emit(artifact.name(), path, "", 0, EventKind::ArtifactCacheHit);
        return (Ok(r), None);
    }
    let shard = cluster.owner(artifact.name());
    let hop = format!("/artifact/{}?quick={}", artifact.name(), u32::from(quick));
    match cluster.fetch(&core.bus, shard, &hop) {
        Ok(resp) if resp.status == 200 => {
            // The hop's checksum covered this marker (see `marked_crc32`).
            let degraded = resp.header("x-regend-degraded").is_some();
            let rendered = render_artifact(resp.body.into(), degraded, quick);
            lock(&core.rendered).insert((artifact.name(), quick), rendered.clone());
            (Ok(rendered), None)
        }
        // A non-200 from a live shard (draining 503, artifact failure
        // 500) and a dead hop both take the same exit: recompute on
        // the proxy's own executor. The bytes are deterministic, so
        // failover cannot change what a client reads — only how long
        // it waits.
        Ok(_) | Err(_) => {
            core.bus.emit(artifact.name(), path, "", 0, EventKind::ShardFailover { shard });
            (core.obtain(artifact, quick, path), Some(shard))
        }
    }
}

/// `/cell/...` on the proxy: fetch from the content key's owner and
/// keep the cell it sends ([`fill_cell`]); recompute locally on a
/// broken hop, or on a signed 200 that is not the requested cell.
#[allow(clippy::too_many_arguments)]
fn cell(
    core: &Core,
    cluster: &Cluster,
    work: &SlowWork,
    experiment: &str,
    content_key: &str,
    seed: u64,
    quick: bool,
    path: &str,
) -> Response {
    let shard = cluster.owner(content_key);
    let hop = format!(
        "/cell/{}/{}?seed={seed}&quick={}",
        experiment,
        percent_encode_path(content_key),
        u32::from(quick)
    );
    let answer = match cluster.fetch(&core.bus, shard, &hop) {
        Ok(resp) if resp.status == 200 => fill_cell(core, content_key, seed, resp),
        // Client-side errors (bad seed, unknown key) are the shard's
        // verdict on the request, not a shard failure — pass them
        // through verbatim.
        Ok(resp) if resp.status < 500 => {
            Some(Response::text(resp.status, String::from_utf8_lossy(&resp.body).into_owned()))
        }
        Ok(_) | Err(_) => None,
    };
    answer.unwrap_or_else(|| {
        core.bus.emit(experiment, path, content_key, 0, EventKind::ShardFailover { shard });
        degrade(core.execute_local(work, path), cluster, &[shard])
    })
}

/// Keeps a verified shard `/cell` 200 in the proxy's executor cache and
/// as a rendering of the bytes and checksum the shard signed, and
/// answers with that rendering. `None` unless the reply is the cell
/// asked for: unmarked (a shard never marks a cell), strict UTF-8,
/// decoded by the journal's own parser to `content_key` at `seed`, and
/// rendered back to the same bytes, which every later event-loop hit
/// then serves as they are.
fn fill_cell(core: &Core, content_key: &str, seed: u64, resp: HttpResponse) -> Option<Response> {
    if resp.header("x-regend-degraded").is_some() || resp.header("x-regend-quick").is_some() {
        return None;
    }
    let signature = resp.header("x-regend-crc32")?.to_string();
    let body = String::from_utf8(resp.body).ok()?;
    let (key, cell_seed, value) = parse_cell_json(&body)?;
    let same = key == content_key
        && cell_seed == seed
        && format!("{}\n", cell_value_json(&key, seed, &value)) == body;
    if !same {
        return None;
    }
    core.exec.cache_fill(content_key, seed, value);
    let signed = Response::json(200, body).with_header("X-Regend-Crc32", signature);
    let rendered = Rendered::new(signed);
    core.keep_cell(content_key, seed, rendered.clone());
    Some(Response::rendered(rendered))
}

/// Stamps degraded-mode accounting onto a response that needed
/// failover: which shards were bypassed, and `Retry-After: 1` when any
/// of them is currently down (clients should expect elevated latency
/// until the prober sees it recover).
fn degrade(resp: Response, cluster: &Cluster, failovers: &[usize]) -> Response {
    if failovers.is_empty() {
        return resp;
    }
    let list =
        failovers.iter().map(ToString::to_string).collect::<Vec<_>>().join(",");
    let mut resp = resp.with_header("X-Regend-Shard-Degraded", list);
    if failovers.iter().any(|&s| cluster.state(s) == ShardState::Down) {
        resp = resp.with_header("Retry-After", "1");
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::core::ServerConfig;
    use spectrebench::{crc32, CellValue};

    /// A parsed `GET` for `path`.
    fn get(path: &str) -> crate::http::Request {
        let mut parser = crate::http::RequestParser::new();
        parser.push(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes());
        parser.next_request().expect("well formed").expect("complete")
    }

    /// A signed shard 200 carrying `body` and `markers` (header names).
    fn reply(body: &str, markers: &[&str]) -> HttpResponse {
        let signature = format!("{:08x}", crc32(body.as_bytes()));
        let mut headers = vec![("x-regend-crc32".to_string(), signature)];
        headers.extend(markers.iter().map(|m| (m.to_string(), "true".to_string())));
        HttpResponse { status: 200, headers, body: body.as_bytes().to_vec() }
    }

    /// Every guard of the fill: a marked reply, another key or seed, a
    /// rendering that decodes but is not the canonical one, and a body
    /// that is not UTF-8 are refused and kept nowhere; the cell asked for
    /// is kept and answered with the shard's own signature.
    #[test]
    fn only_the_cell_asked_for_is_kept() {
        let core = Core::new(ServerConfig::default()).expect("a core without a journal");
        let body = format!("{}\n", cell_value_json("a/b", 0, &CellValue::Num(1.5)));
        let spaced = body.replace(',', ", ");
        assert!(parse_cell_json(&spaced).is_some(), "decodes, but is not the canonical rendering");
        for (key, seed, resp) in [
            ("a/b", 0, reply(&body, &["x-regend-quick"])),
            ("a/b", 0, reply(&body, &["x-regend-degraded"])),
            ("a/c", 0, reply(&body, &[])),
            ("a/b", 1, reply(&body, &[])),
            ("a/b", 0, reply(&spaced, &[])),
            ("a/b", 0, HttpResponse { body: vec![0xff], ..reply(&body, &[]) }),
        ] {
            assert!(fill_cell(&core, key, seed, resp).is_none(), "{key} {seed}");
        }
        assert_eq!(core.exec.cache_len(), 0, "nothing was kept");
        assert!(lock(&core.cells).is_empty(), "nothing was rendered");

        let kept = fill_cell(&core, "a/b", 0, reply(&body, &[])).expect("the cell asked for");
        assert_eq!(kept.body.as_bytes(), body.as_bytes());
        let signed = format!("\r\nX-Regend-Crc32: {:08x}\r\n", crc32(body.as_bytes()));
        let head = String::from_utf8(kept.render_head(true)).expect("UTF-8");
        assert!(head.contains(&signed), "{head}");
        assert_eq!(core.exec.cache_lookup("a/b", 0), Some(CellValue::Num(1.5)));
        let hit = match core.route(&get("/cell/table1/a%2Fb"), 0).1 {
            crate::core::Action::Done(hit) => hit,
            _ => panic!("a kept cell is answered inline"),
        };
        assert_eq!(hit.render_head(true), kept.render_head(true));
        assert_eq!(hit.body.as_bytes(), body.as_bytes());
    }
}
