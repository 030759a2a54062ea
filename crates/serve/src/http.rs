//! A minimal, hand-rolled HTTP/1.1 layer with keep-alive and
//! pipelining.
//!
//! `regend` speaks just enough HTTP for its read-only query surface.
//! The parser is *incremental*: [`RequestParser`] is fed raw bytes in
//! whatever fragments the socket produces and yields complete
//! [`Request`]s — one per call — exactly as if the stream had arrived
//! in one piece. That is what lets the event-driven server
//! (`serve::server`) run thousands of keep-alive connections without a
//! thread per socket, and what makes pipelined bursts (several requests
//! back-to-back in one segment) parse identically to byte-dribbled
//! ones; `crates/serve/tests/http_parser.rs` pins that equivalence
//! property.
//!
//! No chunked encoding (a `Transfer-Encoding` head is refused), no
//! TLS — the repo's dependency policy
//! (hand-rolled JSON/CRC32/RNG, no external crates) extends to the
//! wire. Limits are enforced *while buffering*, so a malformed or
//! hostile peer costs a bounded amount of memory, never the process.

use std::sync::Arc;

/// Upper bound on one header line (request line included).
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;
/// Upper bound on a discarded request body.
const MAX_BODY: u64 = 64 * 1024;

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpError {
    /// Syntactically invalid or over a parser limit (maps to 400).
    Malformed(String),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
        }
    }
}

/// One parsed request. The target is split into a percent-decoded path
/// and its query parameters; header names are lowercased.
#[derive(Debug, Clone)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as sent).
    pub method: String,
    /// Percent-decoded path, without the query string.
    pub path: String,
    /// Decoded `(key, value)` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// `(lowercased-name, value)` pairs, in order.
    pub headers: Vec<(String, String)>,
    /// Whether the connection may serve another request after this one:
    /// HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `name`, if present.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    /// First value of header `name` (case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers.iter().find(|(k, _)| *k == name).map(|(_, v)| v.as_str())
    }
}

/// Incremental HTTP/1.1 request parser: feed bytes with
/// [`RequestParser::push`], harvest complete requests with
/// [`RequestParser::next_request`]. Tolerates arbitrary fragmentation
/// (including CRLF split across reads) and pipelined back-to-back
/// requests; enforces its limits *while buffering*, so memory stays
/// bounded even when no request ever completes. A malformed head is a
/// sticky error: every later call reports it again, and the connection
/// should answer 400 and close.
#[derive(Debug, Default)]
pub struct RequestParser {
    buf: Vec<u8>,
    /// First unconsumed byte.
    start: usize,
    /// How far the head scan has advanced (absolute index).
    scanned: usize,
    /// Where the head line currently being scanned begins.
    line_start: usize,
    /// Completed head lines so far (0 = still in the request line).
    lines: usize,
    /// A parsed head waiting for its body bytes to be discarded.
    pending_body: Option<(Request, u64)>,
    /// Sticky malformed-head error.
    error: Option<String>,
}

impl RequestParser {
    /// A fresh parser.
    pub fn new() -> RequestParser {
        RequestParser::default()
    }

    /// Appends raw bytes from the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (partial request data).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    fn fail(&mut self, msg: String) -> HttpError {
        self.error = Some(msg.clone());
        HttpError::Malformed(msg)
    }

    /// Reclaims consumed prefix space once it dominates the buffer.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
        } else if self.start > 8 * 1024 {
            self.buf.drain(..self.start);
        } else {
            return;
        }
        self.scanned -= self.start;
        self.line_start -= self.start;
        self.start = 0;
    }

    /// Parses the next complete request out of the buffered bytes.
    /// `Ok(None)` means more bytes are needed; a `Malformed` error is
    /// sticky and terminal for the connection.
    pub fn next_request(&mut self) -> Result<Option<Request>, HttpError> {
        if let Some(msg) = &self.error {
            return Err(HttpError::Malformed(msg.clone()));
        }
        // Discard a declared body so a pipelined follow-up request
        // doesn't get misread as payload.
        if let Some((_, remaining)) = &mut self.pending_body {
            let avail = (self.buf.len() - self.start) as u64;
            let take = avail.min(*remaining);
            self.start += take as usize;
            // Keep the head-scan cursors in step with the consumed
            // prefix; the next head starts scanning at `start`.
            self.scanned = self.start;
            self.line_start = self.start;
            *remaining -= take;
            if *remaining > 0 {
                self.compact();
                return Ok(None);
            }
            let (request, _) = self.pending_body.take().expect("pending body");
            self.compact();
            return Ok(Some(request));
        }
        while self.scanned < self.buf.len() {
            if self.buf[self.scanned] == b'\n' {
                let mut line_end = self.scanned;
                if line_end > self.line_start && self.buf[line_end - 1] == b'\r' {
                    line_end -= 1;
                }
                let empty = line_end == self.line_start;
                self.lines += 1;
                // An empty line terminates the head. (An empty *first*
                // line parses as an empty request line and is rejected
                // below.)
                if empty {
                    let head_end = self.scanned + 1;
                    let head = self.buf[self.start..head_end].to_vec();
                    self.start = head_end;
                    self.scanned = head_end;
                    self.line_start = head_end;
                    self.lines = 0;
                    let (request, body_len) =
                        parse_head(&head).map_err(|m| self.fail(m))?;
                    if body_len > MAX_BODY {
                        return Err(self.fail("request body too large".to_string()));
                    }
                    if body_len > 0 {
                        self.pending_body = Some((request, body_len));
                        return self.next_request();
                    }
                    self.compact();
                    return Ok(Some(request));
                }
                // Reject a 65th header even before the head completes,
                // so an endless header stream cannot buffer unboundedly.
                if self.lines >= MAX_HEADERS + 2 {
                    return Err(self.fail("too many headers".to_string()));
                }
                self.scanned += 1;
                self.line_start = self.scanned;
                continue;
            }
            self.scanned += 1;
            if self.scanned - self.line_start > MAX_LINE {
                return Err(self.fail("header line too long".to_string()));
            }
        }
        Ok(None)
    }
}

/// Parses one complete head (`request line .. blank line`, newline
/// included). Returns the request plus its declared body length. Error
/// strings depend only on the head's bytes, so rejection is
/// byte-identical no matter how the head was fragmented.
fn parse_head(head: &[u8]) -> Result<(Request, u64), String> {
    let text =
        std::str::from_utf8(head).map_err(|_| "non-UTF-8 header".to_string())?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let line = lines.next().unwrap_or("");
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => {
            (m.to_string(), t.to_string(), v)
        }
        _ => return Err(format!("bad request line: {line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version: {version:?}"));
    }
    // Strict percent-encoding: every '%' in the target must introduce a
    // valid two-digit escape. (A lenient decode here would make two
    // differently-fragmented copies of a hostile target decode to the
    // same path only by accident.)
    if !percent_escapes_valid(&target) {
        return Err(format!("bad percent-encoding in target: {target:?}"));
    }
    let (headers, body_len) = parse_header_lines(lines)?;
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target.as_str(), ""),
    };
    let connection = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.as_str())
        .unwrap_or("");
    let keep_alive = if version == "HTTP/1.0" {
        connection.eq_ignore_ascii_case("keep-alive")
    } else {
        !connection.eq_ignore_ascii_case("close")
    };
    let request = Request {
        method,
        path: percent_decode(raw_path),
        query: parse_query(raw_query),
        headers,
        keep_alive,
    };
    Ok((request, body_len.unwrap_or(0)))
}

/// `(lowercased-name, value)` pairs, in order.
pub(crate) type Headers = Vec<(String, String)>;

/// Parses the header lines of a head, up to its blank line, by the one
/// grammar requests and responses share: every line is `name: value`
/// (the name lowercased, both sides trimmed), at most [`MAX_HEADERS`]
/// of them. Returns the headers and the declared body length.
///
/// Body framing is `Content-Length` alone. Anything that could make
/// two parsers disagree on where a body ends (and so run body bytes as
/// the next pipelined message) is refused: a `Transfer-Encoding`, a
/// length that is not plain decimal, or two lengths that differ.
pub(crate) fn parse_header_lines<'a>(
    lines: impl Iterator<Item = &'a str>,
) -> Result<(Headers, Option<u64>), String> {
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err("too many headers".to_string());
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line: {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let mut body_len = None;
    for (name, value) in &headers {
        match name.as_str() {
            "transfer-encoding" => {
                return Err(format!("unsupported transfer-encoding: {value:?}"));
            }
            "content-length" => {
                // `parse` alone would also take a leading `+`.
                let digits = value.bytes().all(|b| b.is_ascii_digit());
                let len = match value.parse::<u64>() {
                    Ok(len) if digits => len,
                    _ => return Err(format!("bad content-length: {value:?}")),
                };
                if body_len.is_some_and(|first| first != len) {
                    return Err("conflicting content-length headers".to_string());
                }
                body_len = Some(len);
            }
            _ => {}
        }
    }
    Ok((headers, body_len))
}

/// True when every `%` in `s` is followed by two hex digits.
fn percent_escapes_valid(s: &str) -> bool {
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let ok = bytes
                .get(i + 1..i + 3)
                .is_some_and(|h| h.iter().all(u8::is_ascii_hexdigit));
            if !ok {
                return false;
            }
            i += 3;
        } else {
            i += 1;
        }
    }
    true
}

/// Decodes `%XX` escapes (and `+` as space); malformed escapes pass
/// through literally (request targets are pre-validated, but this is
/// also used on journal-shaped keys that may contain literal `%`).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes a path segment (everything but unreserved chars and
/// `/`), for clients building URLs out of cell keys that contain spaces
/// and brackets.
pub fn percent_encode_path(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' | b'/' => {
                out.push(b as char)
            }
            b => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(kv), String::new()),
        })
        .collect()
}

/// One response. Bodies are either owned strings (small, built per
/// request) or shared pre-rendered bytes served zero-copy out of the
/// artifact cache.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers, e.g. `Retry-After`.
    pub extra_headers: Vec<(String, String)>,
    /// The body.
    pub body: Body,
}

/// A response body: owned text, or a shared pre-rendered buffer.
#[derive(Debug, Clone)]
pub enum Body {
    /// Owned text, serialized into the head buffer.
    Text(String),
    /// Shared bytes (the rendered-artifact cache); the connection
    /// writes straight from this buffer without copying it.
    Shared(Arc<[u8]>),
}

impl Body {
    /// Body length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Body::Text(s) => s.len(),
            Body::Shared(b) => b.len(),
        }
    }

    /// True when the body has no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The body bytes as a slice.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Text(s) => s.as_bytes(),
            Body::Shared(b) => b,
        }
    }
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: Body::Text(body.into()),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json",
            extra_headers: Vec::new(),
            body: Body::Text(body.into()),
        }
    }

    /// A `text/plain` response over shared pre-rendered bytes.
    pub fn shared(status: u16, body: Arc<[u8]>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8",
            extra_headers: Vec::new(),
            body: Body::Shared(body),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the status line and headers with the requested
    /// connection framing. The body is *not* included — callers either
    /// append it (owned) or write it zero-copy from its shared buffer.
    pub fn render_head(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
            self.status,
            status_reason(self.status),
            self.content_type,
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        head.into_bytes()
    }
}

/// Reason phrase for the status codes regend uses.
pub fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feeds `s` in one piece; it must complete a request or fail.
    fn parse_str(s: &str) -> Result<Request, HttpError> {
        let mut p = RequestParser::new();
        p.push(s.as_bytes());
        Ok(p.next_request()?.expect("a complete request"))
    }

    #[test]
    fn parses_a_basic_get() {
        let r = parse_str("GET /artifact/table1?seed=0&quick=1 HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/artifact/table1");
        assert_eq!(r.query_param("seed"), Some("0"));
        assert_eq!(r.query_param("quick"), Some("1"));
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.header("HOST"), Some("x"));
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn connection_framing_follows_version_and_header() {
        assert!(!parse_str("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap().keep_alive);
        assert!(!parse_str("GET / HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        assert!(parse_str("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
            .unwrap()
            .keep_alive);
        assert!(parse_str("GET / HTTP/1.1\r\nConnection: CLOSE\r\n\r\n").is_ok_and(|r| !r.keep_alive));
    }

    #[test]
    fn percent_decoding_round_trips_cell_keys() {
        let key = "Cascade Lake (2019)/lebench/[nopti]";
        let encoded = percent_encode_path(key);
        assert!(!encoded.contains(' ') && !encoded.contains('['));
        assert_eq!(percent_decode(&encoded), key);
        let r = parse_str(&format!("GET /cell/figure2/{encoded} HTTP/1.1\r\n\r\n")).unwrap();
        assert_eq!(r.path, format!("/cell/figure2/{key}"));
    }

    #[test]
    fn rejects_garbage_and_oversized_lines() {
        assert!(matches!(parse_str("NONSENSE\r\n\r\n"), Err(HttpError::Malformed(_))));
        assert!(
            RequestParser::new().next_request().unwrap().is_none(),
            "no bytes, no request"
        );
        let long = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(9000));
        assert!(matches!(parse_str(&long), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn rejects_bad_percent_escapes_in_the_target() {
        let err = parse_str("GET /artifact/%zz HTTP/1.1\r\n\r\n").unwrap_err();
        assert!(matches!(&err, HttpError::Malformed(m) if m.contains("percent-encoding")), "{err}");
        let err = parse_str("GET /x% HTTP/1.1\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::Malformed(_)));
        // Valid escapes still decode.
        assert_eq!(parse_str("GET /a%20b HTTP/1.1\r\n\r\n").unwrap().path, "/a b");
    }

    #[test]
    fn incremental_parser_handles_fragmentation_and_pipelining() {
        let wire = b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\nGET /metrics HTTP/1.1\r\n\r\n";
        // One byte at a time...
        let mut p = RequestParser::new();
        let mut got = Vec::new();
        for b in wire.iter() {
            p.push(std::slice::from_ref(b));
            while let Some(r) = p.next_request().unwrap() {
                got.push(r.path.clone());
            }
        }
        assert_eq!(got, ["/healthz", "/metrics"]);
        assert_eq!(p.buffered(), 0);
        // ...and the whole burst at once parse identically.
        let mut p = RequestParser::new();
        p.push(wire);
        assert_eq!(p.next_request().unwrap().unwrap().path, "/healthz");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/metrics");
        assert!(p.next_request().unwrap().is_none());
    }

    #[test]
    fn split_crlf_across_fragments_parses() {
        let mut p = RequestParser::new();
        p.push(b"GET / HTTP/1.1\r");
        assert!(p.next_request().unwrap().is_none());
        p.push(b"\nHost: x\r\n\r");
        assert!(p.next_request().unwrap().is_none());
        p.push(b"\n");
        let r = p.next_request().unwrap().unwrap();
        assert_eq!(r.path, "/");
        assert_eq!(r.header("host"), Some("x"));
    }

    #[test]
    fn malformed_heads_are_sticky() {
        let mut p = RequestParser::new();
        p.push(b"NONSENSE\r\n\r\n");
        assert!(matches!(p.next_request(), Err(HttpError::Malformed(_))));
        p.push(b"GET / HTTP/1.1\r\n\r\n");
        assert!(matches!(p.next_request(), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn response_serializes_with_content_length_and_extra_headers() {
        let resp = Response::text(429, "queue full\n").with_header("Retry-After", "1");
        let mut out = resp.render_head(false);
        out.extend_from_slice(resp.body.as_bytes());
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(s.contains("Content-Length: 11\r\n"));
        assert!(s.contains("Retry-After: 1\r\n"));
        assert!(s.contains("Connection: close\r\n"));
        assert!(s.ends_with("\r\n\r\nqueue full\n"));
    }

    #[test]
    fn keep_alive_framing_only_changes_the_connection_header() {
        let resp = Response::text(200, "hi\n");
        let ka = String::from_utf8(resp.render_head(true)).unwrap();
        let cl = String::from_utf8(resp.render_head(false)).unwrap();
        assert!(ka.contains("Connection: keep-alive\r\n"));
        assert!(cl.contains("Connection: close\r\n"));
        assert_eq!(
            ka.replace("Connection: keep-alive", "Connection: close"),
            cl
        );
    }

    #[test]
    fn pipelined_request_after_a_body_is_not_eaten() {
        let mut p = RequestParser::new();
        p.push(b"POST /shutdown HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(p.next_request().unwrap().unwrap().method, "POST");
        assert_eq!(p.next_request().unwrap().unwrap().path, "/healthz");
    }
}
