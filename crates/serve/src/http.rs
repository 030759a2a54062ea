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
//! A head is parsed where it lies in the parser's buffer, into the
//! strings of a request the caller handed back with
//! [`RequestParser::recycle`], so a connection's steady stream of
//! requests allocates nothing once its first few have sized the
//! strings. A cache keeps a [`Rendered`] response: its body and both of
//! its heads, formatted once, which every hit then writes as they are.
//!
//! No chunked encoding (a `Transfer-Encoding` head is refused), no
//! TLS — the repo's dependency policy
//! (hand-rolled JSON/CRC32/RNG, no external crates) extends to the
//! wire. Limits are enforced *while buffering*, so a malformed or
//! hostile peer costs a bounded amount of memory, never the process.

use std::io::Write;
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
#[derive(Debug, Clone, Default)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as sent).
    pub method: String,
    /// Percent-decoded path, without the query string. A `+` stays a
    /// `+` (RFC 3986 gives it no meaning in a path).
    pub path: String,
    /// Decoded `(key, value)` pairs from the query string, in order
    /// (`+` decodes as a space here).
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
        find_header(&self.headers, name)
    }
}

/// First value of header `name` among `headers`, whose names are stored
/// lowercased: compared without regard to case, without copying `name`.
pub(crate) fn find_header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
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
    /// The request [`RequestParser::recycle`] handed back: the next head
    /// is parsed into its strings.
    spare: Option<Request>,
    /// Scratch bytes for percent-decoding.
    decoded: Vec<u8>,
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

    /// Takes back a request the caller is done with, so the next head is
    /// parsed into its strings instead of new ones.
    pub fn recycle(&mut self, request: Request) {
        self.spare = Some(request);
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
            // Jump to the current line's newline, or to the end of what
            // has arrived: either way the line so far must fit.
            let newline = self.buf[self.scanned..].iter().position(|&b| b == b'\n');
            self.scanned = newline.map_or(self.buf.len(), |at| self.scanned + at);
            if self.scanned - self.line_start > MAX_LINE {
                return Err(self.fail("header line too long".to_string()));
            }
            if newline.is_none() {
                break;
            }
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
                let head = self.start..self.scanned + 1;
                self.start = head.end;
                self.scanned = head.end;
                self.line_start = head.end;
                self.lines = 0;
                // Parsed where it lies in the buffer, into the
                // recycled request's strings.
                let mut request = self.spare.take().unwrap_or_default();
                let body_len =
                    match parse_head(&self.buf[head], &mut request, &mut self.decoded) {
                        Ok(len) => len,
                        Err(m) => return Err(self.fail(m)),
                    };
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
        }
        Ok(None)
    }
}

/// Parses one complete head (`request line .. blank line`, newline
/// included) into `request`, overwriting every field and reusing its
/// strings, with `decoded` as percent-decoding scratch. Returns the
/// declared body length. Error strings depend only on the head's bytes,
/// so rejection is byte-identical no matter how the head was
/// fragmented.
fn parse_head(head: &[u8], request: &mut Request, decoded: &mut Vec<u8>) -> Result<u64, String> {
    let text =
        std::str::from_utf8(head).map_err(|_| "non-UTF-8 header".to_string())?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));
    let line = lines.next().unwrap_or("");
    let mut parts = line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() && !m.is_empty() => (m, t, v),
        _ => return Err(format!("bad request line: {line:?}")),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(format!("unsupported version: {version:?}"));
    }
    // Strict percent-encoding: every '%' in the target must introduce a
    // valid two-digit escape. (A lenient decode here would make two
    // differently-fragmented copies of a hostile target decode to the
    // same path only by accident.)
    if !percent_escapes_valid(target) {
        return Err(format!("bad percent-encoding in target: {target:?}"));
    }
    let body_len = parse_header_lines(lines, &mut request.headers)?;
    let (raw_path, raw_query) = target.split_once('?').unwrap_or((target, ""));
    let connection = request.header("connection").unwrap_or("");
    request.keep_alive = if version == "HTTP/1.0" {
        connection.eq_ignore_ascii_case("keep-alive")
    } else {
        !connection.eq_ignore_ascii_case("close")
    };
    request.method.clear();
    request.method.push_str(method);
    request.path.clear();
    decode_into(raw_path, false, &mut request.path, decoded);
    parse_query(raw_query, &mut request.query, decoded);
    Ok(body_len.unwrap_or(0))
}

/// `(lowercased-name, value)` pairs, in order.
pub(crate) type Headers = Vec<(String, String)>;

/// Parses the header lines of a head, up to its blank line, by the one
/// grammar requests and responses share: every line is `name: value`
/// (the name lowercased, both sides trimmed), at most [`MAX_HEADERS`]
/// of them. Fills `headers` with them, reusing the strings it holds,
/// and returns the declared body length.
///
/// Body framing is `Content-Length` alone. Anything that could make
/// two parsers disagree on where a body ends (and so run body bytes as
/// the next pipelined message) is refused: a `Transfer-Encoding`, a
/// length that is not plain decimal, or two lengths that differ.
pub(crate) fn parse_header_lines<'a>(
    lines: impl Iterator<Item = &'a str>,
    headers: &mut Headers,
) -> Result<Option<u64>, String> {
    let mut count = 0;
    for line in lines {
        if line.is_empty() {
            break;
        }
        if count >= MAX_HEADERS {
            return Err("too many headers".to_string());
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("bad header line: {line:?}"))?;
        let (n, v) = refill(headers, count);
        n.push_str(name.trim());
        n.make_ascii_lowercase();
        v.push_str(value.trim());
        count += 1;
    }
    headers.truncate(count);
    let mut body_len = None;
    for (name, value) in headers.iter() {
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
    Ok(body_len)
}

/// Pair `i` of `pairs`, emptied for refilling: a recycled request's
/// strings are reused, and a pair is added only past the end.
fn refill(pairs: &mut Vec<(String, String)>, i: usize) -> (&mut String, &mut String) {
    if i == pairs.len() {
        pairs.push(Default::default());
    }
    let (k, v) = &mut pairs[i];
    k.clear();
    v.clear();
    (k, v)
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

/// Decodes `%XX` escapes in a path or path segment; a `+` stays a plus,
/// as RFC 3986 gives it no meaning there. Malformed escapes pass through
/// literally (request targets are pre-validated, but this is also used
/// on journal-shaped keys that may contain literal `%`).
pub fn percent_decode(s: &str) -> String {
    let mut out = String::new();
    decode_into(s, false, &mut out, &mut Vec::new());
    out
}

/// Appends `s` to `out` with its `%XX` escapes decoded, and with `+` as
/// a space when `plus_is_space` (a query string). Malformed escapes
/// pass through literally, and invalid UTF-8 is replaced. `bytes` is
/// scratch, untouched when `s` has nothing to decode.
fn decode_into(s: &str, plus_is_space: bool, out: &mut String, bytes: &mut Vec<u8>) {
    if !s.bytes().any(|b| b == b'%' || (plus_is_space && b == b'+')) {
        out.push_str(s);
        return;
    }
    let raw = s.as_bytes();
    bytes.clear();
    let mut i = 0;
    while i < raw.len() {
        match raw[i] {
            b'%' => {
                let hex = raw.get(i + 1..i + 3);
                match hex.and_then(|h| u8::from_str_radix(std::str::from_utf8(h).ok()?, 16).ok()) {
                    Some(b) => {
                        bytes.push(b);
                        i += 3;
                    }
                    None => {
                        bytes.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' if plus_is_space => {
                bytes.push(b' ');
                i += 1;
            }
            b => {
                bytes.push(b);
                i += 1;
            }
        }
    }
    out.push_str(&String::from_utf8_lossy(bytes));
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

/// Fills `query` with the decoded pairs of query string `q`, reusing
/// the strings it holds.
fn parse_query(q: &str, query: &mut Vec<(String, String)>, decoded: &mut Vec<u8>) {
    let mut count = 0;
    for kv in q.split('&').filter(|kv| !kv.is_empty()) {
        let (k, v) = kv.split_once('=').unwrap_or((kv, ""));
        let (key, value) = refill(query, count);
        decode_into(k, true, key, decoded);
        decode_into(v, true, value, decoded);
        count += 1;
    }
    query.truncate(count);
}

/// One response. Bodies are owned strings (small, built per request),
/// shared pre-rendered bytes served zero-copy, or a kept [`Rendered`]
/// response, whose heads are written as they are too.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers, e.g. `Retry-After`; on a [`Body::Rendered`]
    /// response, those added after the rendering's own.
    pub extra_headers: Vec<(String, String)>,
    /// The body.
    pub body: Body,
}

/// A response body: owned text, a shared pre-rendered buffer, or a kept
/// rendering.
#[derive(Debug, Clone)]
pub enum Body {
    /// Owned text, serialized into the head buffer.
    Text(String),
    /// Shared bytes; the connection writes straight from this buffer
    /// without copying it.
    Shared(Arc<[u8]>),
    /// A kept rendering: its body and its heads, both written as they
    /// are, with no head formatted.
    Rendered(Rendered),
}

impl Body {
    /// Body length in bytes.
    pub fn len(&self) -> usize {
        self.as_bytes().len()
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
            Body::Rendered(r) => &r.body,
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

    /// The response a kept rendering answers with. Building it formats,
    /// hashes and allocates nothing.
    pub fn rendered(r: Rendered) -> Response {
        Response {
            status: r.status,
            content_type: r.content_type,
            extra_headers: Vec::new(),
            body: Body::Rendered(r),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: &str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name.to_string(), value.into()));
        self
    }

    /// Serializes the status line and headers with the requested
    /// connection framing. The body is *not* included — callers either
    /// append it (owned) or write it zero-copy from its shared buffer. A
    /// rendered body's head is the rendering's own, followed by this
    /// response's extra headers.
    pub fn render_head(&self, keep_alive: bool) -> Vec<u8> {
        let mut head = match &self.body {
            Body::Rendered(r) => {
                // Up to the rendering's closing blank line.
                let kept = r.head(keep_alive);
                kept[..kept.len() - 2].to_vec()
            }
            _ => format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {}\r\n",
                self.status,
                status_reason(self.status),
                self.content_type,
                self.body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            )
            .into_bytes(),
        };
        for (name, value) in &self.extra_headers {
            let _ = write!(head, "{name}: {value}\r\n");
        }
        head.extend_from_slice(b"\r\n");
        head
    }
}

/// A response rendered once and kept by a cache: its body and both of
/// its heads (`Connection: close` and `keep-alive`), each made by
/// [`Response::render_head`], all shared. A hit answers with
/// [`Response::rendered`], whose connection writes these very bytes, so
/// it clones three `Arc`s and formats, hashes and allocates nothing.
#[derive(Debug, Clone)]
pub struct Rendered {
    /// The response body (shared, immutable), whose length the heads
    /// declare.
    pub(crate) body: Arc<[u8]>,
    status: u16,
    content_type: &'static str,
    /// The `Connection: close` head, then the keep-alive one, each with
    /// its closing blank line.
    heads: [Arc<[u8]>; 2],
}

impl Rendered {
    /// Renders `response` for keeping: both of its heads, and its body
    /// as shared bytes.
    pub fn new(response: Response) -> Rendered {
        let heads = [false, true].map(|keep_alive| Arc::from(response.render_head(keep_alive)));
        let body = match response.body {
            Body::Text(s) => s.into_bytes().into(),
            Body::Shared(b) => b,
            Body::Rendered(r) => r.body,
        };
        Rendered { body, status: response.status, content_type: response.content_type, heads }
    }

    /// The head for the given framing, blank line included.
    pub(crate) fn head(&self, keep_alive: bool) -> &Arc<[u8]> {
        &self.heads[usize::from(keep_alive)]
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

    /// figure3's `js=im+og` configuration, its `+` written as is and as
    /// `%2B`: both spell the same key, and only a query string reads `+`
    /// as a space.
    #[test]
    fn a_plus_is_literal_in_the_path_and_a_space_in_the_query() {
        let key = "Broadwell/crypto/[mitigations=off js=im+og]";
        for spelling in [
            "Broadwell%2Fcrypto%2F%5Bmitigations%3Doff%20js%3Dim+og%5D",
            "Broadwell%2Fcrypto%2F%5Bmitigations%3Doff%20js%3Dim%2Bog%5D",
        ] {
            let wire = format!("GET /cell/figure3/{spelling}?a=b+c&d=e%2Bf HTTP/1.1\r\n\r\n");
            let r = parse_str(&wire).unwrap();
            assert_eq!(r.path, format!("/cell/figure3/{key}"), "{spelling}");
            assert_eq!(r.query_param("a"), Some("b c"));
            assert_eq!(r.query_param("d"), Some("e+f"));
        }
        assert_eq!(percent_decode(&percent_encode_path(key)), key);
        assert_eq!(percent_decode("im+og"), "im+og");
    }

    /// A request handed back to the parser is overwritten field by
    /// field: the next parse equals a fresh parser's, whatever shape the
    /// recycled one had.
    #[test]
    fn a_recycled_request_parses_like_a_fresh_one() {
        let heads = [
            "GET /a%20b?x=1&y=2 HTTP/1.1\r\nHost: h\r\nX-One: 1\r\nConnection: close\r\n\r\n",
            "POST /c+d HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n",
            "GET /%C3%A9?q HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\nD: 4\r\n\r\n",
            "GET / HTTP/1.1\r\n\r\n",
        ];
        let mut p = RequestParser::new();
        for head in heads.iter().chain(heads.iter().rev()) {
            p.push(head.as_bytes());
            let reused = p.next_request().unwrap().expect("a complete request");
            assert_eq!(format!("{reused:?}"), format!("{:?}", parse_str(head).unwrap()));
            p.recycle(reused);
        }
    }

    /// A kept rendering writes exactly the heads `render_head` makes for
    /// the response it was made from, and a header added to a hit lands
    /// where `render_head` puts extra headers.
    #[test]
    fn a_rendered_response_carries_the_heads_render_head_makes() {
        let plain = Response::json(200, "{}\n").with_header("X-Regend-Crc32", "0000abcd");
        let hit = Response::rendered(Rendered::new(plain.clone()));
        assert_eq!((hit.status, hit.content_type), (200, "application/json"));
        assert_eq!(hit.body.as_bytes(), b"{}\n");
        for keep_alive in [false, true] {
            assert_eq!(hit.render_head(keep_alive), plain.render_head(keep_alive));
            let Body::Rendered(r) = &hit.body else { panic!("a rendered body") };
            assert_eq!(&r.head(keep_alive)[..], &plain.render_head(keep_alive)[..]);
            let marked = |r: Response| r.with_header("Retry-After", "1").render_head(keep_alive);
            assert_eq!(marked(hit.clone()), marked(plain.clone()));
        }
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
