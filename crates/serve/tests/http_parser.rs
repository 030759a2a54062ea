//! Fragmentation-equivalence property tests for the incremental HTTP
//! parser.
//!
//! The event-driven front end feeds [`RequestParser`] whatever byte
//! fragments the socket happens to produce. The server's correctness
//! therefore rests on one property: **the parse result is a function of
//! the byte stream, never of its framing**. These tests pin it three
//! ways for every wire in a corpus of valid and malformed request
//! streams:
//!
//!   1. byte-by-byte (the most adversarial dribble),
//!   2. seeded random fragment sizes (many seeds, including splits that
//!      land inside `\r\n`, inside percent-escapes, inside the blank
//!      line), and
//!   3. one pipelined burst (the whole stream in a single `push`).
//!
//! All three must yield the identical sequence of parsed requests, and
//! — for malformed input — the identical error string after the
//! identical number of successfully parsed requests. There is no
//! "lenient when buffered, strict when dribbled" mode to drift into.

use serve::http::{HttpError, RequestParser};

/// A tiny deterministic xorshift64* generator — the repo's no-external-
/// crates policy applies to tests too, and seeded determinism is the
/// point: a failure names its seed and replays exactly.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(2685821657736338717).max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(2685821657736338717)
    }

    /// Uniform in `1..=max`.
    fn frag(&mut self, max: usize) -> usize {
        1 + (self.next() as usize) % max
    }
}

/// One observed parser step: a parsed request (summarised) or the
/// sticky error string that ended the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step {
    Request(String),
    Error(String),
}

/// Flattens every field routing can see into a comparable string, so
/// "identical result" means identical method, decoded path, query
/// pairs, header pairs, and keep-alive disposition.
fn fingerprint(r: &serve::http::Request) -> String {
    format!(
        "{} {} q={:?} h={:?} ka={}",
        r.method, r.path, r.query, r.headers, r.keep_alive
    )
}

/// Harvests every request the parser can currently yield. Returns
/// `false` once the parser reports its (sticky) error, after which the
/// framing loop stops pushing — exactly what the server does.
fn drain(parser: &mut RequestParser, out: &mut Vec<Step>) -> bool {
    loop {
        match parser.next_request() {
            Ok(Some(r)) => out.push(Step::Request(fingerprint(&r))),
            Ok(None) => return true,
            Err(HttpError::Malformed(msg)) => {
                out.push(Step::Error(msg));
                return false;
            }
        }
    }
}

/// Parses `wire` delivered as the given fragment sizes (the last
/// fragment takes any remainder) and returns the observed step
/// sequence.
fn parse_fragmented(wire: &[u8], mut frag: impl FnMut(usize) -> usize) -> Vec<Step> {
    let mut parser = RequestParser::new();
    let mut out = Vec::new();
    let mut at = 0;
    while at < wire.len() {
        let n = frag(wire.len() - at).min(wire.len() - at);
        parser.push(&wire[at..at + n]);
        at += n;
        if !drain(&mut parser, &mut out) {
            return out;
        }
    }
    out
}

/// The three framings under test, plus 32 seeded random ones.
fn all_framings(wire: &[u8]) -> Vec<(String, Vec<Step>)> {
    let mut results = Vec::new();
    results.push(("byte-by-byte".to_string(), parse_fragmented(wire, |_| 1)));
    results.push(("one burst".to_string(), parse_fragmented(wire, |rest| rest)));
    for seed in 0..32u64 {
        let mut rng = Rng::new(seed);
        results.push((
            format!("seed {seed}"),
            parse_fragmented(wire, move |_| rng.frag(11)),
        ));
    }
    results
}

/// Asserts every framing of `wire` observes the same step sequence and
/// returns that sequence.
fn assert_framing_invariant(label: &str, wire: &[u8]) -> Vec<Step> {
    let mut framings = all_framings(wire).into_iter();
    let (first_name, expect) = framings.next().expect("framings");
    for (name, got) in framings {
        assert_eq!(
            got, expect,
            "{label}: framing {name:?} disagrees with {first_name:?}"
        );
    }
    expect
}

/// Valid request streams: each entry is a full pipelined wire plus the
/// number of requests it must parse to.
fn valid_corpus() -> Vec<(&'static str, Vec<u8>, usize)> {
    vec![
        ("bare GET", b"GET / HTTP/1.1\r\nHost: x\r\n\r\n".to_vec(), 1),
        (
            "query + headers",
            b"GET /artifact/table1?quick=1&seed=0 HTTP/1.1\r\nHost: x\r\nAccept: text/plain\r\n\r\n"
                .to_vec(),
            1,
        ),
        (
            "percent-encoded target",
            b"GET /cell/fig7%2Fleft?x=a%20b HTTP/1.1\r\n\r\n".to_vec(),
            1,
        ),
        (
            "declared body then pipelined follow-up",
            b"POST /shutdown HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /healthz HTTP/1.1\r\n\r\n"
                .to_vec(),
            2,
        ),
        (
            "explicit zero Content-Length, as perfbench sends",
            b"POST /shutdown HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n"
                .to_vec(),
            2,
        ),
        (
            "HTTP/1.0 opt-in keep-alive",
            b"GET /metrics HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec(),
            1,
        ),
        (
            "bare-LF line endings",
            b"GET /healthz HTTP/1.1\nHost: y\n\n".to_vec(),
            1,
        ),
        (
            "pipelined burst of four",
            b"GET /healthz HTTP/1.1\r\n\r\nGET /metrics HTTP/1.1\r\n\r\nGET /results HTTP/1.1\r\nConnection: close\r\n\r\nGET /artifact/table2 HTTP/1.1\r\n\r\n"
                .to_vec(),
            4,
        ),
    ]
}

/// A `POST` whose 26-byte body is itself a request, `POST /shutdown`,
/// framed by `framing` (header lines).
fn smuggle(framing: &str) -> Vec<u8> {
    format!("POST /artifact/x HTTP/1.1\r\n{framing}\r\nPOST /shutdown HTTP/1.1\r\n\r\n")
        .into_bytes()
}

/// Malformed heads: each entry is a wire (possibly with valid requests
/// first), the number of requests parsed before the failure, and the
/// exact error string every framing must report.
fn malformed_corpus() -> Vec<(&'static str, Vec<u8>, usize, &'static str)> {
    let mut corpus = vec![
        (
            "garbage request line",
            b"NONSENSE\r\n\r\n".to_vec(),
            0,
            r#"bad request line: "NONSENSE""#,
        ),
        (
            "unsupported version",
            b"GET /x HTTP/2.0\r\n\r\n".to_vec(),
            0,
            r#"unsupported version: "HTTP/2.0""#,
        ),
        (
            "bad percent-escape in target",
            b"GET /%zz HTTP/1.1\r\n\r\n".to_vec(),
            0,
            r#"bad percent-encoding in target: "/%zz""#,
        ),
        (
            "truncated percent-escape in target",
            b"GET /a%2 HTTP/1.1\r\n\r\n".to_vec(),
            0,
            r#"bad percent-encoding in target: "/a%2""#,
        ),
        (
            "colonless header line",
            b"GET / HTTP/1.1\r\nno colon here\r\n\r\n".to_vec(),
            0,
            r#"bad header line: "no colon here""#,
        ),
        (
            "non-UTF-8 head",
            b"GET /\xff HTTP/1.1\r\n\r\n".to_vec(),
            0,
            "non-UTF-8 header",
        ),
        (
            "oversized declared body",
            b"POST / HTTP/1.1\r\nContent-Length: 70000\r\n\r\n".to_vec(),
            0,
            "request body too large",
        ),
        // Smuggling: each head would let the declared body run as the
        // next pipelined request, so each is refused outright.
        (
            "Content-Length that is not plain decimal",
            smuggle("Content-Length: abc\r\n"),
            0,
            r#"bad content-length: "abc""#,
        ),
        (
            "conflicting duplicate Content-Lengths",
            smuggle("Content-Length: 0\r\nContent-Length: 26\r\n"),
            0,
            "conflicting content-length headers",
        ),
        (
            "Transfer-Encoding",
            smuggle("Transfer-Encoding: chunked\r\n"),
            0,
            r#"unsupported transfer-encoding: "chunked""#,
        ),
        (
            "valid request, then malformed pipelined follow-up",
            b"GET /healthz HTTP/1.1\r\n\r\nBROKEN\r\n\r\n".to_vec(),
            1,
            r#"bad request line: "BROKEN""#,
        ),
    ];
    // A single header line over the 8 KiB limit: rejected while
    // buffering, so even the byte-dribbled framing never stores it.
    let mut long = b"GET / HTTP/1.1\r\nX-Pad: ".to_vec();
    long.extend(std::iter::repeat_n(b'a', 9 * 1024));
    long.extend(b"\r\n\r\n");
    corpus.push(("oversized header line", long, 0, "header line too long"));
    // A 65th header: rejected as soon as the line count passes the cap,
    // before the head even completes.
    let mut many = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..65 {
        many.extend(format!("X-H{i}: v\r\n").as_bytes());
    }
    many.extend(b"\r\n");
    corpus.push(("too many headers", many, 0, "too many headers"));
    corpus
}

#[test]
fn every_framing_of_a_valid_stream_parses_identically() {
    for (label, wire, want_requests) in valid_corpus() {
        let steps = assert_framing_invariant(label, &wire);
        assert_eq!(
            steps.len(),
            want_requests,
            "{label}: expected {want_requests} request(s), got {steps:?}"
        );
        assert!(
            steps.iter().all(|s| matches!(s, Step::Request(_))),
            "{label}: unexpected error step in {steps:?}"
        );
    }
}

#[test]
fn every_framing_of_a_malformed_stream_fails_identically() {
    for (label, wire, want_ok, want_error) in malformed_corpus() {
        let steps = assert_framing_invariant(label, &wire);
        let (errors, requests): (Vec<_>, Vec<_>) =
            steps.iter().partition(|s| matches!(s, Step::Error(_)));
        assert_eq!(requests.len(), want_ok, "{label}: {steps:?}");
        assert_eq!(
            errors,
            vec![&Step::Error(want_error.to_string())],
            "{label}: {steps:?}"
        );
        // The error is sticky: pushing more bytes after it never
        // resurrects the connection.
        let mut parser = RequestParser::new();
        parser.push(&wire);
        while parser.next_request().is_ok() {}
        parser.push(b"GET /healthz HTTP/1.1\r\n\r\n");
        assert!(
            matches!(parser.next_request(), Err(HttpError::Malformed(m)) if m == want_error),
            "{label}: error was not sticky"
        );
    }
}

#[test]
fn a_pipelined_burst_equals_its_requests_parsed_one_at_a_time() {
    // The concatenation property from the other side: parsing the
    // concatenated burst yields exactly the per-request parses, in
    // order. This is what lets the server treat `k` pipelined requests
    // as `k` independent ones.
    let requests: Vec<&[u8]> = vec![
        b"GET /artifact/table2 HTTP/1.1\r\n\r\n",
        b"GET /cell/table2/0?quick=1 HTTP/1.1\r\nHost: z\r\n\r\n",
        b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc",
        b"GET /results HTTP/1.1\r\nConnection: close\r\n\r\n",
    ];
    let mut burst = Vec::new();
    let mut individually = Vec::new();
    for r in &requests {
        burst.extend_from_slice(r);
        individually.extend(parse_fragmented(r, |rest| rest));
    }
    assert_eq!(parse_fragmented(&burst, |rest| rest), individually);
}

/// Where the first head of `wire` ends by the grammar: the byte after
/// its first empty line (`\n` or `\r\n`).
fn head_end(wire: &[u8]) -> Option<usize> {
    let mut line_start = 0;
    for (i, &b) in wire.iter().enumerate() {
        if b == b'\n' {
            if matches!(&wire[line_start..i], b"" | b"\r") {
                return Some(i + 1);
            }
            line_start = i + 1;
        }
    }
    None
}

/// What the parser made of one mutant, judged against the grammar: its
/// sticky error, a wait for bytes the sample lacks (an unfinished head
/// buffers everything; an unfinished declared body, nothing), or a
/// first request after which exactly its accepted `Content-Length` was
/// skipped.
#[derive(Debug, PartialEq)]
enum Verdict {
    Refused,
    Waiting,
    Parsed,
}

fn judge(wire: &[u8]) -> Result<Verdict, String> {
    let mut parser = RequestParser::new();
    parser.push(wire);
    match parser.next_request() {
        Err(HttpError::Malformed(first)) => match parser.next_request() {
            Err(HttpError::Malformed(again)) if again == first => Ok(Verdict::Refused),
            other => Err(format!("error {first:?} was not sticky: {other:?}")),
        },
        Ok(None) => {
            let want = if head_end(wire).is_some() { 0 } else { wire.len() };
            match parser.buffered() {
                n if n == want => Ok(Verdict::Waiting),
                n => Err(format!("waiting with {n} byte(s) buffered, not {want}")),
            }
        }
        Ok(Some(request)) => {
            let end = head_end(wire).ok_or("a request without a blank line")?;
            let declared = request.header("content-length").map_or(Some(0), |v| v.parse().ok());
            let declared: usize = declared.ok_or("an accepted Content-Length that is no number")?;
            let want = wire.len().checked_sub(end + declared).ok_or("a body past the sample")?;
            if parser.buffered() != want {
                return Err(format!("resumed with {} byte(s) left, not {want}", parser.buffered()));
            }
            while let Ok(Some(_)) = parser.next_request() {}
            Ok(Verdict::Parsed)
        }
    }
}

/// A bit-flip sweep over one pipelined sample: a `GET` whose declared
/// body is itself a complete request, then a second request. Every
/// single and every double bit flip must leave the parser without a
/// panic (the test profile traps overflow), refusing the mutant with
/// its sticky error or parsing it, and a parsed first request must
/// resume exactly its accepted `Content-Length` after its head: a byte
/// inside a declared body never comes out as a request.
#[test]
fn bit_flips_in_a_pipelined_request_never_run_a_declared_body() {
    let sample: &[u8] = b"GET /a HTTP/1.1\r\nContent-Length: 26\r\n\r\n\
        GET /smuggled HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
    let paths: Vec<String> = {
        let mut parser = RequestParser::new();
        parser.push(sample);
        std::iter::from_fn(|| parser.next_request().ok().flatten()).map(|r| r.path).collect()
    };
    assert_eq!(paths, ["/a", "/b"], "the intact sample skips its body");
    assert_eq!(judge(sample), Ok(Verdict::Parsed));

    let flip = |bytes: &mut [u8], bit: usize| bytes[bit / 8] ^= 1 << (bit % 8);
    let bits = sample.len() * 8;
    let mut mutant = sample.to_vec();
    let mut seen = [0usize; 3];
    let mut check = |mutant: &[u8], flipped: &[usize]| match judge(mutant) {
        Ok(verdict) => seen[verdict as usize] += 1,
        Err(e) => panic!("bits {flipped:?}: {e}\n{:?}", String::from_utf8_lossy(mutant)),
    };
    for i in 0..bits {
        flip(&mut mutant, i);
        check(&mutant, &[i]);
        for j in i + 1..bits {
            flip(&mut mutant, j);
            check(&mutant, &[i, j]);
            flip(&mut mutant, j);
        }
        flip(&mut mutant, i);
    }
    let [refused, waiting, parsed] = seen;
    assert_eq!(refused + waiting + parsed, bits + bits * (bits - 1) / 2);
    assert!(refused > 0 && waiting > 0 && parsed > 0, "{seen:?}");
}
