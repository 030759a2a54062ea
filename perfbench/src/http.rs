//! A minimal HTTP/1.1 keep-alive client. The benchmark owns it, so the
//! load it offers does not change when the program's own client code
//! does.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One response.
pub struct Reply {
    pub status: u16,
    /// The server marked the body as bridged over a failed cell
    /// (`X-Regend-Degraded`) or answered it by failing over past a shard
    /// (`X-Regend-Shard-Degraded`).
    pub degraded: bool,
    pub body: Vec<u8>,
}

impl Reply {
    /// A clean 200 whose body is exactly `expected`.
    pub fn is(&self, expected: &[u8]) -> bool {
        self.status == 200 && !self.degraded && self.body == expected
    }
}

/// The bytes of one request with an empty body.
pub fn request(method: &str, path: &str) -> Vec<u8> {
    format!("{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: 0\r\n\r\n").into_bytes()
}

/// Percent-encodes `s` as one path segment (everything but unreserved
/// characters, so a content key's `/` stays inside the segment).
pub fn encode_segment(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b"-._~".contains(&b) {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// One keep-alive connection. Requests may be pipelined: `send` several,
/// then `recv` their replies in order.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
        })
    }

    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    pub fn get(&mut self, path: &str) -> io::Result<Reply> {
        self.send(&request("GET", path))?;
        self.recv()
    }

    pub fn post(&mut self, path: &str) -> io::Result<Reply> {
        self.send(&request("POST", path))?;
        self.recv()
    }

    /// Reads the next response (Content-Length framing, which is all
    /// `regend` sends).
    pub fn recv(&mut self) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(i) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break i + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let mut len = None;
        let mut degraded = false;
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                len = value.trim().parse::<usize>().ok();
            } else if name.eq_ignore_ascii_case("x-regend-degraded")
                || name.eq_ignore_ascii_case("x-regend-shard-degraded")
            {
                degraded = true;
            }
        }
        let len =
            len.ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Reply {
            status,
            degraded,
            body,
        })
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => {
                    self.buf.extend_from_slice(&chunk[..n]);
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_keys_stay_one_segment() {
        assert_eq!(
            encode_segment("Skylake Client/probe/[ibrs=on]"),
            "Skylake%20Client%2Fprobe%2F%5Bibrs%3Don%5D"
        );
    }
}
