//! The benchmark's own blocking HTTP/1.1 loopback client over
//! `std::net::TcpStream`. Deliberately not `gcx_net::client`: edits to
//! the shipped client must never move the numbers. Requests are encoded
//! once per workload (the document and the path never change), so the
//! generator spends its time in `write(2)`/`read(2)` and nowhere else.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Body bytes per chunk of a chunked request.
pub const CHUNK_BYTES: usize = 64 * 1024;

const READ_BUF_BYTES: usize = 64 * 1024;

/// Percent-encodes everything outside the RFC 3986 unreserved set.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for &b in s.as_bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// A complete keep-alive `POST`, ready for one `write_all`: chunked in
/// [`CHUNK_BYTES`] pieces, or with a `Content-Length` body.
pub fn encode_post(path: &str, body: &[u8], chunked: bool) -> Vec<u8> {
    let mut wire = Vec::with_capacity(body.len() + body.len() / CHUNK_BYTES * 16 + 256);
    wire.extend_from_slice(format!("POST {path} HTTP/1.1\r\nHost: gcx\r\n").as_bytes());
    if chunked {
        wire.extend_from_slice(b"Transfer-Encoding: chunked\r\n\r\n");
        for piece in body.chunks(CHUNK_BYTES) {
            wire.extend_from_slice(format!("{:x}\r\n", piece.len()).as_bytes());
            wire.extend_from_slice(piece);
            wire.extend_from_slice(b"\r\n");
        }
        wire.extend_from_slice(b"0\r\n\r\n");
    } else {
        wire.extend_from_slice(format!("Content-Length: {}\r\n\r\n", body.len()).as_bytes());
        wire.extend_from_slice(body);
    }
    wire
}

/// A keep-alive `GET`.
pub fn encode_get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: gcx\r\n\r\n").into_bytes()
}

/// Opens a loopback connection. The read timeout is a safety net: a
/// wedged server fails the operation instead of hanging the run.
pub fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.set_write_timeout(Some(Duration::from_secs(30)))?;
    Ok(stream)
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads responses off one connection, each to its framing boundary
/// (`Content-Length` or the chunked terminator), handing body bytes to a
/// caller-supplied sink as they arrive.
pub struct ResponseReader {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl ResponseReader {
    pub fn new(stream: TcpStream) -> Self {
        ResponseReader {
            stream,
            buf: vec![0; READ_BUF_BYTES],
            start: 0,
            end: 0,
        }
    }

    /// Reads more bytes behind `end`, making room first if needed.
    fn fill(&mut self) -> io::Result<()> {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() {
            if self.start == 0 {
                return Err(invalid("response line longer than the read buffer"));
            }
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.end += n;
        Ok(())
    }

    /// The next CRLF-terminated line, without its terminator.
    fn line(&mut self) -> io::Result<String> {
        let mut scanned = 0;
        loop {
            let window = &self.buf[self.start..self.end];
            if let Some(p) = window[scanned..].windows(2).position(|w| w == b"\r\n") {
                let len = scanned + p;
                let line = std::str::from_utf8(&window[..len])
                    .map_err(|_| invalid("response line is not UTF-8"))?
                    .to_string();
                self.start += len + 2;
                return Ok(line);
            }
            scanned = window.len().saturating_sub(1);
            self.fill()?;
        }
    }

    /// Hands `n` body bytes to `sink`.
    fn body(&mut self, mut n: usize, sink: &mut dyn FnMut(&[u8])) -> io::Result<()> {
        while n > 0 {
            if self.start == self.end {
                self.fill()?;
            }
            let take = n.min(self.end - self.start);
            sink(&self.buf[self.start..self.start + take]);
            self.start += take;
            n -= take;
        }
        Ok(())
    }

    /// Reads one response and returns its status; informational (1xx)
    /// heads are skipped.
    pub fn read_response(&mut self, sink: &mut dyn FnMut(&[u8])) -> io::Result<u16> {
        loop {
            let status_line = self.line()?;
            let status: u16 = status_line
                .split(' ')
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| invalid(format!("malformed status line {status_line:?}")))?;
            let mut length = None;
            let mut chunked = false;
            loop {
                let header = self.line()?;
                if header.is_empty() {
                    break;
                }
                let Some((name, value)) = header.split_once(':') else {
                    continue;
                };
                let value = value.trim().to_ascii_lowercase();
                match name.trim().to_ascii_lowercase().as_str() {
                    "content-length" => {
                        length = Some(
                            value
                                .parse::<usize>()
                                .map_err(|_| invalid("bad Content-Length"))?,
                        )
                    }
                    "transfer-encoding" => chunked = value.contains("chunked"),
                    _ => {}
                }
            }
            if (100..200).contains(&status) {
                continue;
            }
            if chunked {
                loop {
                    let size_line = self.line()?;
                    let digits = size_line.split(';').next().unwrap_or("").trim();
                    let size = usize::from_str_radix(digits, 16)
                        .map_err(|_| invalid(format!("bad chunk size {size_line:?}")))?;
                    if size == 0 {
                        while !self.line()?.is_empty() {} // trailers
                        break;
                    }
                    self.body(size, sink)?;
                    if !self.line()?.is_empty() {
                        return Err(invalid("chunk data not followed by CRLF"));
                    }
                }
            } else if let Some(n) = length {
                self.body(n, sink)?;
            } else {
                return Err(invalid(
                    "response has neither Content-Length nor chunked framing",
                ));
            }
            return Ok(status);
        }
    }
}

/// One request/response exchange on a connection that the caller both
/// writes and reads (small responses only: a large one would back up
/// against the unread request). Returns the head and the body.
pub fn exchange(
    stream: &mut TcpStream,
    reader: &mut ResponseReader,
    request: &[u8],
) -> io::Result<(u16, Vec<u8>)> {
    stream.write_all(request)?;
    let mut body = Vec::new();
    let status = reader.read_response(&mut |b| body.extend_from_slice(b))?;
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Serves `raw` on one accepted connection and returns what the
    /// reader made of it.
    fn read_back(raw: &'static [u8]) -> (u16, Vec<u8>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().expect("accept");
            // Dribble the bytes so framing has to survive short reads.
            for piece in raw.chunks(5) {
                s.write_all(piece).expect("write");
            }
        });
        let mut reader = ResponseReader::new(connect(addr).expect("connect"));
        let mut body = Vec::new();
        let status = reader
            .read_response(&mut |b| body.extend_from_slice(b))
            .expect("response");
        server.join().expect("server thread");
        (status, body)
    }

    #[test]
    fn reads_chunked_body_with_extension_and_trailer() {
        let (status, body) = read_back(
            b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n\
              5;x=1\r\nhello\r\n6\r\n world\r\n0\r\nX-T: v\r\n\r\n",
        );
        assert_eq!(status, 200);
        assert_eq!(body, b"hello world");
    }

    #[test]
    fn reads_length_body() {
        let (status, body) = read_back(
            b"HTTP/1.1 422 Unprocessable\r\nContent-Length: 3\r\nConnection: close\r\n\r\nbad",
        );
        assert_eq!(status, 422);
        assert_eq!(body, b"bad");
    }

    #[test]
    fn encodes_requests() {
        assert_eq!(
            percent_encode("<a>{ $x }</a>"),
            "%3Ca%3E%7B%20%24x%20%7D%3C%2Fa%3E"
        );
        let body = vec![b'x'; CHUNK_BYTES + 1];
        let wire = encode_post("/q", &body, true);
        let text = String::from_utf8_lossy(&wire);
        assert!(text.starts_with(
            "POST /q HTTP/1.1\r\nHost: gcx\r\nTransfer-Encoding: chunked\r\n\r\n10000\r\n"
        ));
        assert!(text.ends_with("\r\n1\r\nx\r\n0\r\n\r\n"));
        let wire = encode_post("/q", b"abc", false);
        assert!(wire.ends_with(b"Content-Length: 3\r\n\r\nabc"));
    }
}
