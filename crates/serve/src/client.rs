//! A tiny HTTP/1.1 client: how `regen fetch`, `regen loadgen`, the
//! cluster proxy's shard hop and the determinism suites talk to
//! `regend`.
//!
//! Two wire disciplines, the two framings `regend` must answer with
//! identical bytes:
//!
//! * [`http_get`] — one `GET` per connection, `Connection: close`,
//!   read-to-EOF framing. The determinism suite uses it as the
//!   close-per-request wire pin, and it is the only client that checks
//!   `regend` closes a `Connection: close` socket: a server that kept
//!   it open would stall the read until the timeout.
//! * [`Connection`] — a persistent HTTP/1.1 keep-alive connection:
//!   many `GET`s per socket, `Content-Length` framing, optional
//!   pipelining. `regen loadgen`, the proxy↔shard hop and the
//!   keep-alive determinism tests ride on this.
//!
//! Both parse the response head with one `parse_head`. The client
//! mirrors the server's hand-rolled wire layer (the dependency policy
//! cuts both ways).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::http::{find_header, parse_header_lines};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// `(lowercased-name, value)` pairs, in order.
    pub headers: Vec<(String, String)>,
    /// The body bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        find_header(&self.headers, name)
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Splits `http://host:port/path` into authority and path.
pub fn split_url(url: &str) -> Result<(&str, &str), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("unsupported URL {url:?}: only http:// is spoken"))?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], &rest[i..]),
        None => (rest, "/"),
    };
    if authority.is_empty() {
        return Err(format!("bad URL {url:?}: empty host"));
    }
    Ok((authority, path))
}

/// Whether an I/O failure is worth retrying: the peer was not there
/// yet (connection refused — a daemon still binding its socket) or
/// stopped answering within the timeout (a daemon still warming up).
/// Anything else — unresolvable host, protocol garbage — is permanent.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::TimedOut
            // Unix reports a read/write timeout on a nonblocking-style
            // deadline as WouldBlock.
            | std::io::ErrorKind::WouldBlock
    )
}

/// Opens a socket to `authority` with `timeout` on connect, each read
/// and each write. On error the bool reports whether the failure is
/// transient (worth retrying).
fn connect(authority: &str, timeout: Duration) -> Result<TcpStream, (bool, String)> {
    use std::io::{Error, ErrorKind};
    use std::net::ToSocketAddrs;
    let addr = authority
        .to_socket_addrs()
        .and_then(|mut addrs| {
            addrs.next().ok_or_else(|| Error::new(ErrorKind::NotFound, "no address for host"))
        })
        .map_err(|e| (false, format!("cannot resolve {authority:?}: {e}")))?;
    let stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| (is_transient(&e), format!("cannot connect to {authority}: {e}")))?;
    stream.set_read_timeout(Some(timeout)).map_err(|e| (false, e.to_string()))?;
    stream.set_write_timeout(Some(timeout)).map_err(|e| (false, e.to_string()))?;
    Ok(stream)
}

/// Performs one `GET` on a fresh `Connection: close` socket and reads
/// the whole response, to EOF. `timeout` bounds connect, each read,
/// and each write independently.
pub fn http_get(url: &str, timeout: Duration) -> Result<HttpResponse, String> {
    let (authority, path) = split_url(url)?;
    let mut stream = connect(authority, timeout).map_err(|(_, e)| e)?;
    let request =
        format!("GET {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes()).map_err(|e| format!("write failed: {e}"))?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| format!("read failed: {e}"))?;
    parse_response(&raw)
}

/// Bounded exponential backoff with deterministic jitter for transient
/// failures: 50ms base doubling to a 1s cap, plus a jitter of up to
/// half the step derived from an FNV hash of `(url, attempt)` — seeded,
/// so two clients hammering the same slow daemon from different URLs
/// de-synchronize, and a given invocation is reproducible. Public
/// because the cluster proxy reuses the same schedule for its
/// shard-fetch retries.
pub fn backoff_delay(url: &str, attempt: u32) -> Duration {
    let base_ms = 50u64.saturating_mul(1 << attempt.min(5)).min(1_000);
    let h = spectrebench::fnv1a(url.bytes().chain(attempt.to_le_bytes()));
    Duration::from_millis(base_ms + h % (base_ms / 2).max(1))
}

/// Where the response head ends: the offset of its `\r\n\r\n`.
fn head_end(raw: &[u8]) -> Option<usize> {
    raw.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Parses a response head (status line and headers, without the
/// terminating blank line) into a response with an empty body, plus its
/// declared `Content-Length`. Header lines follow the grammar the
/// server applies to requests ([`parse_header_lines`]), so a damaged
/// head is refused at once instead of misframing the body.
fn parse_head(head: &[u8]) -> Result<(HttpResponse, Option<usize>), String> {
    let head = std::str::from_utf8(head).map_err(|_| "non-UTF-8 response head".to_string())?;
    let mut lines = head.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let status_line = lines.next().unwrap_or_default();
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    let mut headers = Vec::new();
    let len = parse_header_lines(lines, &mut headers)?;
    let len = len.map(usize::try_from).transpose().map_err(|_| "content-length overflows")?;
    Ok((HttpResponse { status, headers, body: Vec::new() }, len))
}

/// Parses a full wire response (head + body).
pub fn parse_response(raw: &[u8]) -> Result<HttpResponse, String> {
    let end = head_end(raw).ok_or_else(|| "truncated response: no header terminator".to_string())?;
    let (mut resp, len) = parse_head(&raw[..end])?;
    let rest = &raw[end + 4..];
    resp.body = match len {
        Some(len) if len <= rest.len() => rest[..len].to_vec(),
        Some(len) => {
            return Err(format!("truncated body: {} of {len} byte(s)", rest.len()));
        }
        None => rest.to_vec(),
    };
    Ok(resp)
}

/// A persistent HTTP/1.1 keep-alive connection to one authority.
///
/// Connects lazily on the first request and transparently reconnects
/// when the socket has been poisoned. The reuse discipline (pinned by
/// unit tests) is:
///
/// * a **fully read response** — any status, 429 included — leaves the
///   connection clean, and the next request reuses the same socket;
/// * any failure **after request bytes may have been written** (partial
///   write, read error, truncated response) poisons the socket: the
///   server's framing state is unknowable, so the next request must
///   reconnect;
/// * a failure **before the request was written** (connect error) never
///   had a socket to poison; the next attempt simply connects again.
///
/// `regend` answers every response with `Content-Length`, which is what
/// keep-alive framing needs; a response without one is refused at once
/// and poisons the socket, rather than read to an EOF that a held-open
/// socket never sends.
#[derive(Debug)]
pub struct Connection {
    authority: String,
    timeout: Duration,
    stream: Option<TcpStream>,
    /// Bytes read past the end of the previous response (pipelining).
    carry: Vec<u8>,
    /// Sockets opened over this connection's lifetime.
    opened: u64,
    /// Responses completed on the *current* socket.
    on_socket: u64,
}

impl Connection {
    /// A connection to `authority` (`host:port`). No socket is opened
    /// until the first request.
    pub fn new(authority: &str, timeout: Duration) -> Connection {
        Connection {
            authority: authority.to_string(),
            timeout,
            stream: None,
            carry: Vec::new(),
            opened: 0,
            on_socket: 0,
        }
    }

    /// A connection to the authority of `url` (the path part is
    /// ignored; pass paths to [`Connection::get`]).
    pub fn to_url(url: &str, timeout: Duration) -> Result<Connection, String> {
        let (authority, _) = split_url(url)?;
        Ok(Connection::new(authority, timeout))
    }

    /// How many TCP sockets this connection has opened so far. A
    /// keep-alive client doing N requests should report 1 here; every
    /// extra count is a reconnect.
    pub fn sockets_opened(&self) -> u64 {
        self.opened
    }

    /// Whether a live socket is currently held.
    pub fn is_connected(&self) -> bool {
        self.stream.is_some()
    }

    /// Drops the current socket (if any); the next request reconnects.
    pub fn poison(&mut self) {
        self.stream = None;
        self.carry.clear();
        self.on_socket = 0;
    }

    /// Writes one `GET` per path back-to-back, connecting first if no
    /// socket is held. A failed write poisons the socket.
    fn send(&mut self, paths: &[&str]) -> Result<(), (bool, String)> {
        if self.stream.is_none() {
            let stream = connect(&self.authority, self.timeout)?;
            let _ = stream.set_nodelay(true);
            self.stream = Some(stream);
            self.opened += 1;
            self.on_socket = 0;
        }
        let burst: String = paths
            .iter()
            .map(|path| format!("GET {path} HTTP/1.1\r\nHost: {}\r\n\r\n", self.authority))
            .collect();
        if let Err(e) = self.stream.as_mut().expect("connected").write_all(burst.as_bytes()) {
            let transient = is_transient(&e);
            self.poison();
            return Err((transient, format!("write failed: {e}")));
        }
        Ok(())
    }

    /// One keep-alive `GET`. On error the bool reports whether the
    /// failure is transient (worth retrying).
    pub fn get_classified(&mut self, path: &str) -> Result<HttpResponse, (bool, String)> {
        self.send(&[path])?;
        self.read_response()
    }

    /// One keep-alive `GET` (errors as plain strings).
    pub fn get(&mut self, path: &str) -> Result<HttpResponse, String> {
        self.get_classified(path).map_err(|(_, e)| e)
    }

    /// Writes every request back-to-back, then reads the responses in
    /// order — a fully pipelined burst on one socket.
    pub fn pipeline(&mut self, paths: &[&str]) -> Result<Vec<HttpResponse>, String> {
        self.send(paths).map_err(|(_, e)| e)?;
        paths
            .iter()
            .map(|path| self.read_response().map_err(|(_, e)| format!("GET {path}: {e}")))
            .collect()
    }

    /// Reads one `Content-Length`-framed response off the socket,
    /// leaving any bytes past it (pipelined follow-ups) buffered.
    fn read_response(&mut self) -> Result<HttpResponse, (bool, String)> {
        // 1. Buffer until the head terminator is in `carry`.
        let end = loop {
            if let Some(i) = head_end(&self.carry) {
                break i;
            }
            if self.read_more()? == 0 {
                // Clean EOF. On a reused socket with no response bytes
                // this is the classic stale keep-alive race (the server
                // idle-closed between requests): transient, retry on a
                // fresh socket. Anything else is a truncated response.
                let stale = self.on_socket > 0 && self.carry.is_empty();
                self.poison();
                return Err((
                    stale,
                    if stale {
                        "stale keep-alive connection: closed between requests".to_string()
                    } else {
                        "truncated response: no header terminator".to_string()
                    },
                ));
            }
        };
        let parsed = parse_head(&self.carry[..end]).and_then(|(resp, len)| {
            let len = len.ok_or("no Content-Length: keep-alive framing needs one")?;
            Ok((resp, len))
        });
        let (mut resp, len) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                self.poison();
                return Err((false, e));
            }
        };

        // 2. Buffer until the declared body is complete.
        let start = end + 4;
        while self.carry.len() < start + len {
            if self.read_more()? == 0 {
                let got = self.carry.len() - start;
                self.poison();
                return Err((false, format!("truncated body: {got} of {len} byte(s)")));
            }
        }
        resp.body = self.carry[start..start + len].to_vec();
        self.carry.drain(..start + len);
        self.on_socket += 1;
        let close =
            resp.headers.iter().any(|(k, v)| k == "connection" && v.eq_ignore_ascii_case("close"));
        if close {
            self.poison();
        }
        Ok(resp)
    }

    /// Appends one read's worth of bytes to `carry`; `Ok(0)` is EOF. A
    /// read error poisons the socket and reports its transience.
    fn read_more(&mut self) -> Result<usize, (bool, String)> {
        let mut buf = [0u8; 16 * 1024];
        match self.stream.as_mut().expect("connected").read(&mut buf) {
            Ok(n) => {
                self.carry.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            Err(e) => {
                let transient = is_transient(&e);
                self.poison();
                Err((transient, format!("read failed: {e}")))
            }
        }
    }
}

/// `GET` with bounded retry on the failures a healthy deployment still
/// produces:
///
/// * **429 / 503** — sleeps the server's `Retry-After` (default one
///   second); the client half of the admission-control and
///   degraded-mode contracts (a draining or shard-degraded `regend`
///   sheds load with 503 + `Retry-After`);
/// * **connection refused / read-timeout** — sleeps a capped
///   exponential backoff with seeded jitter ([`backoff_delay`]), so
///   `regen fetch` survives the race against a daemon that is still
///   binding its socket or warming its caches.
///
/// Permanent failures (unresolvable host, protocol errors, any other
/// HTTP status) return immediately.
///
/// Retries ride one [`Connection`]: a fully read 429 leaves the socket
/// clean, so the polite retry reuses it; a failure after the request
/// was (possibly) written poisons the socket and the retry reconnects;
/// a connect failure just connects again. The unit tests pin both
/// paths by counting server-side accepts.
pub fn http_get_retrying(
    url: &str,
    timeout: Duration,
    max_attempts: u32,
) -> Result<HttpResponse, String> {
    let (authority, path) = split_url(url)?;
    let mut conn = Connection::new(authority, timeout);
    let max_attempts = max_attempts.max(1);
    let mut last = String::new();
    for attempt in 0..max_attempts {
        let delay = match conn.get_classified(path) {
            Ok(r) if r.status == 429 || r.status == 503 => {
                let secs =
                    r.header("retry-after").and_then(|v| v.parse::<u64>().ok()).unwrap_or(1);
                last = format!("server busy ({}, Retry-After: {secs})", r.status);
                Duration::from_secs(secs)
            }
            Err((true, e)) => {
                last = e;
                backoff_delay(url, attempt)
            }
            Err((false, e)) => return Err(e),
            Ok(r) => return Ok(r),
        };
        if attempt + 1 < max_attempts {
            std::thread::sleep(delay);
        }
    }
    Err(format!("gave up after {max_attempts} attempt(s): {last}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_urls() {
        assert_eq!(split_url("http://127.0.0.1:7979/artifact/table1").unwrap(),
                   ("127.0.0.1:7979", "/artifact/table1"));
        assert_eq!(split_url("http://localhost:80").unwrap(), ("localhost:80", "/"));
        assert!(split_url("https://x/").is_err());
        assert!(split_url("http:///x").is_err());
    }

    #[test]
    fn backoff_is_seeded_bounded_and_growing() {
        let url = "http://127.0.0.1:7979/results";
        // Deterministic for a fixed (url, attempt)...
        assert_eq!(backoff_delay(url, 0), backoff_delay(url, 0));
        // ...different across urls (jitter de-synchronizes clients)...
        assert_ne!(
            backoff_delay("http://127.0.0.1:7979/a", 3),
            backoff_delay("http://127.0.0.1:7979/b", 3)
        );
        // ...never below the base step, capped with jitter at 1.5s.
        for attempt in 0..40 {
            let d = backoff_delay(url, attempt);
            assert!(d >= Duration::from_millis(50), "attempt {attempt}: {d:?}");
            assert!(d <= Duration::from_millis(1_500), "attempt {attempt}: {d:?}");
        }
        // The schedule grows: a late attempt waits at least the cap's
        // base where an early one may wait only the first step.
        assert!(backoff_delay(url, 10) >= Duration::from_millis(1_000));
    }

    #[test]
    fn connection_refused_is_retried_then_reported() {
        // Bind-then-drop guarantees a port nobody is listening on.
        let port = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let url = format!("http://127.0.0.1:{port}/results");
        let start = std::time::Instant::now();
        let err = http_get_retrying(&url, Duration::from_secs(1), 3).unwrap_err();
        assert!(err.starts_with("gave up after 3 attempt(s)"), "{err}");
        assert!(err.contains("cannot connect"), "{err}");
        // Two backoff sleeps happened (attempts 0 and 1): at least the
        // first two base steps.
        assert!(start.elapsed() >= Duration::from_millis(150), "{:?}", start.elapsed());
    }

    #[test]
    fn permanent_failures_do_not_retry() {
        // An unsupported scheme fails before any socket is opened; the
        // error comes straight back without the give-up wrapper.
        let err =
            http_get_retrying("https://example.invalid/", Duration::from_secs(1), 5).unwrap_err();
        assert!(err.contains("only http:// is spoken"), "{err}");
        assert!(!err.contains("gave up"), "{err}");
    }

    #[test]
    fn transient_classification_is_by_error_kind() {
        use std::io::{Error, ErrorKind};
        assert!(is_transient(&Error::from(ErrorKind::ConnectionRefused)));
        assert!(is_transient(&Error::from(ErrorKind::TimedOut)));
        assert!(is_transient(&Error::from(ErrorKind::WouldBlock)));
        assert!(!is_transient(&Error::from(ErrorKind::NotFound)));
        assert!(!is_transient(&Error::from(ErrorKind::PermissionDenied)));
    }

    /// Reads one request head off a test-server socket (requests here
    /// carry no body).
    fn read_request(stream: &mut TcpStream) -> bool {
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match stream.read(&mut byte) {
                Ok(0) | Err(_) => return false,
                Ok(_) => buf.push(byte[0]),
            }
            if buf.ends_with(b"\r\n\r\n") {
                return true;
            }
        }
    }

    fn keepalive_reply(stream: &mut TcpStream, status: &str, extra: &str, body: &str) {
        let reply = format!(
            "HTTP/1.1 {status}\r\nContent-Length: {}\r\n{extra}\r\n{body}",
            body.len()
        );
        stream.write_all(reply.as_bytes()).unwrap();
    }

    /// The reuse path: a fully read 429 leaves the keep-alive socket
    /// clean, so the polite retry rides the same connection — the
    /// server sees exactly one accept for three requests.
    #[test]
    fn retrying_reuses_the_connection_across_fully_read_429s() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let url = format!("http://{}/artifact/table1", listener.local_addr().unwrap());
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut requests = 0;
            for status in ["429 Too Many Requests", "429 Too Many Requests", "200 OK"] {
                assert!(read_request(&mut stream), "request {requests} arrived");
                let extra =
                    if status.starts_with("429") { "Retry-After: 0\r\n" } else { "" };
                keepalive_reply(&mut stream, status, extra, "ok\n");
                requests += 1;
            }
            // One accepted socket carried every attempt; a second
            // accept would hang the test (and fail read_request above
            // with EOF when the client gave up).
            requests
        });
        let r = http_get_retrying(&url, Duration::from_secs(5), 5).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.text(), "ok\n");
        assert_eq!(server.join().unwrap(), 3);
    }

    /// The reconnect path: an attempt that failed *after* the request
    /// was written (server went silent; read timed out) poisons the
    /// socket — the retry must arrive on a fresh connection.
    #[test]
    fn retrying_reconnects_after_a_mid_response_failure() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let url = format!("http://{}/artifact/table1", listener.local_addr().unwrap());
        let server = std::thread::spawn(move || {
            // First connection: swallow the request, answer nothing,
            // and keep the socket open so the client sees a timeout
            // rather than an EOF.
            let (mut first, _) = listener.accept().unwrap();
            assert!(read_request(&mut first));
            // Second connection: the retry. Answer it properly.
            let (mut second, _) = listener.accept().unwrap();
            assert!(read_request(&mut second));
            keepalive_reply(&mut second, "200 OK", "", "ok\n");
            drop(first);
            2u32
        });
        let r = http_get_retrying(&url, Duration::from_millis(300), 5).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.text(), "ok\n");
        assert_eq!(server.join().unwrap(), 2, "the retry opened a second connection");
    }

    /// A stale keep-alive socket (server closed between requests) is a
    /// transparent reconnect, not an error.
    #[test]
    fn connection_survives_a_server_side_idle_close() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            // First socket: answer one request, then close it.
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream));
            keepalive_reply(&mut stream, "200 OK", "", "a\n");
            drop(stream);
            // Second socket: the client noticed the stale conn.
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream));
            keepalive_reply(&mut stream, "200 OK", "", "b\n");
        });
        let mut conn = Connection::new(&authority, Duration::from_secs(5));
        assert_eq!(conn.get("/x").unwrap().text(), "a\n");
        // The server closed; the bare get() reports the stale socket...
        let (transient, msg) = conn.get_classified("/y").unwrap_err();
        assert!(transient, "stale keep-alive close is transient: {msg}");
        assert!(msg.contains("stale keep-alive"), "{msg}");
        // ...and the follow-up attempt reconnects and succeeds.
        assert_eq!(conn.get("/y").unwrap().text(), "b\n");
        assert_eq!(conn.sockets_opened(), 2);
        server.join().unwrap();
    }

    /// Pipelined bursts write every request up front and read the
    /// responses back in order off one socket.
    #[test]
    fn pipeline_reads_responses_in_order_from_one_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            for i in 0..3 {
                assert!(read_request(&mut stream));
                keepalive_reply(&mut stream, "200 OK", "", &format!("body{i}\n"));
            }
        });
        let mut conn = Connection::new(&authority, Duration::from_secs(5));
        let responses = conn.pipeline(&["/a", "/b", "/c"]).unwrap();
        assert_eq!(responses.len(), 3);
        for (i, r) in responses.iter().enumerate() {
            assert_eq!(r.status, 200);
            assert_eq!(r.text(), format!("body{i}\n"));
        }
        assert_eq!(conn.sockets_opened(), 1);
        server.join().unwrap();
    }

    /// 503 + `Retry-After` is the degraded-mode sibling of 429: the
    /// client honors the hint and retries on the same socket.
    #[test]
    fn retrying_honors_retry_after_on_503() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let url = format!("http://{}/results", listener.local_addr().unwrap());
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut requests = 0;
            for status in ["503 Service Unavailable", "200 OK"] {
                assert!(read_request(&mut stream), "request {requests} arrived");
                let extra =
                    if status.starts_with("503") { "Retry-After: 0\r\n" } else { "" };
                keepalive_reply(&mut stream, status, extra, "ok\n");
                requests += 1;
            }
            requests
        });
        let r = http_get_retrying(&url, Duration::from_secs(5), 5).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(server.join().unwrap(), 2, "503 retried on the same socket");
    }

    /// A keep-alive response shorter than its `Content-Length` (the
    /// server closed mid-body) is a permanent error, not a stale-socket
    /// retry: the bytes it did send prove the request arrived. The
    /// socket is poisoned, so the next request reconnects.
    #[test]
    fn truncated_keepalive_body_is_permanent_and_poisons_the_socket() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let authority = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream));
            stream.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nhi").unwrap();
            drop(stream);
            let (mut stream, _) = listener.accept().unwrap();
            assert!(read_request(&mut stream));
            keepalive_reply(&mut stream, "200 OK", "", "whole\n");
        });
        let mut conn = Connection::new(&authority, Duration::from_secs(5));
        let (transient, msg) = conn.get_classified("/x").unwrap_err();
        assert!(!transient, "a truncated body is not retried: {msg}");
        assert_eq!(msg, "truncated body: 2 of 9 byte(s)");
        assert!(!conn.is_connected(), "the truncated socket is poisoned");
        assert_eq!(conn.get("/x").unwrap().text(), "whole\n");
        assert_eq!(conn.sockets_opened(), 2);
        server.join().unwrap();
    }

    #[test]
    fn parses_responses() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 3\r\n\r\nhi\n";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("content-type"), Some("text/plain"));
        assert_eq!(r.text(), "hi\n");
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nhi").is_err());
        assert!(parse_response(b"garbage").is_err());
    }
}
