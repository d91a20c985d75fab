//! A minimal blocking HTTP/1.1 client over `std::net` — just enough to
//! test and benchmark the server from the same dependency-free world:
//! `GET`, `POST` with `Content-Length`, **streamed chunked uploads**
//! ([`PostStream`]) where the response body arrives while the request
//! body is still being written, and **keep-alive connection reuse**
//! ([`HttpClient`]): responses are read to their framing boundary
//! (`Content-Length` or the chunked terminator, never to EOF), bytes of
//! a pipelined successor are carried over, and one TCP connection serves
//! many requests.

use crate::http::{self, ChunkedDecoder};
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A fully read response.
#[derive(Debug)]
pub struct HttpResponse {
    pub status: u16,
    /// Lowercased header names, in order.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// `GET path`.
pub fn get(addr: impl ToSocketAddrs, path: &str) -> io::Result<HttpResponse> {
    let mut stream = connect(addr)?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: gcx\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    read_response(&mut stream)
}

/// `POST path` with a `Content-Length` body.
pub fn post(addr: impl ToSocketAddrs, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
    let mut stream = connect(addr)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: gcx\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    read_response(&mut stream)
}

/// An in-flight chunked `POST`: send the body piecewise, then collect the
/// response. Dropping it without [`PostStream::finish`] is a mid-stream
/// client disconnect (the server must cancel the session cleanly).
pub struct PostStream {
    stream: TcpStream,
}

impl PostStream {
    /// Opens the connection and sends the request head
    /// (`Transfer-Encoding: chunked`).
    pub fn open(addr: impl ToSocketAddrs, path: &str) -> io::Result<PostStream> {
        let mut stream = connect(addr)?;
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: gcx\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        Ok(PostStream { stream })
    }

    /// Sends one body chunk (empty slices are skipped — an empty chunk
    /// would terminate the body).
    pub fn send_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let mut wire = Vec::with_capacity(data.len() + 16);
        http::encode_chunk(data, &mut wire);
        self.stream.write_all(&wire)
    }

    /// Terminates the body and reads the full response.
    pub fn finish(mut self) -> io::Result<HttpResponse> {
        self.stream.write_all(http::FINAL_CHUNK)?;
        read_response(&mut self.stream)
    }

    /// Streams `chunks` as the body while a second thread concurrently
    /// reads the response — the shape of a real streaming client (curl),
    /// which never lets a large response back up while it uploads. Use
    /// this when the response is big relative to socket buffers;
    /// [`PostStream::finish`] alone would deadlock against the server's
    /// output backpressure.
    pub fn stream_and_finish<I>(mut self, chunks: I) -> io::Result<HttpResponse>
    where
        I: IntoIterator<Item = Vec<u8>>,
    {
        let reader_stream = self.stream.try_clone()?;
        let reader = std::thread::spawn(move || {
            let mut stream = reader_stream;
            read_response(&mut stream)
        });
        let mut write_result = Ok(());
        for chunk in chunks {
            if let Err(e) = self.send_chunk(&chunk) {
                write_result = Err(e);
                break;
            }
        }
        if write_result.is_ok() {
            write_result = self.stream.write_all(http::FINAL_CHUNK);
        }
        let response = reader
            .join()
            .map_err(|_| io::Error::other("response reader thread panicked"))?;
        // A write error (e.g. the server aborted) usually comes with a
        // more useful response/read error; prefer that one.
        match (response, write_result) {
            (Ok(r), _) => Ok(r),
            (Err(e), _) => Err(e),
        }
    }
}

fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    // A generous safety net so a wedged server fails tests instead of
    // hanging them.
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    Ok(stream)
}

/// Reads and parses a full response (status line, headers, body framed by
/// `Content-Length`, chunked coding, or connection close). A chunked body
/// cut off before its terminator yields `UnexpectedEof` — that is how the
/// server signals a mid-stream failure after the head went out.
pub fn read_response(stream: &mut TcpStream) -> io::Result<HttpResponse> {
    let mut carry = Vec::new();
    read_response_buffered(stream, &mut carry)
}

/// As [`read_response`], with an explicit carry-over buffer: leftover
/// bytes beyond the response's framing boundary (the head of a pipelined
/// successor) stay in `carry` for the next call — the keep-alive reader.
/// The body of a response with neither `Content-Length` nor chunked
/// framing runs to EOF (and the connection is spent).
pub fn read_response_buffered(
    stream: &mut TcpStream,
    carry: &mut Vec<u8>,
) -> io::Result<HttpResponse> {
    let mut scratch = [0u8; 16 * 1024];
    loop {
        let head_end = loop {
            if let Some(end) = http::find_head_end(carry) {
                break end;
            }
            let n = stream.read(&mut scratch)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed before response head",
                ));
            }
            carry.extend_from_slice(&scratch[..n]);
        };
        let (status, headers) = parse_response_head(&carry[..head_end])?;
        carry.drain(..head_end);
        if (100..200).contains(&status) {
            // Informational (e.g. `100 Continue`): drop it, keep any
            // bytes read past it, and read the real response.
            continue;
        }
        return read_body(stream, status, headers, carry);
    }
}

fn read_body(
    stream: &mut TcpStream,
    status: u16,
    headers: Vec<(String, String)>,
    carry: &mut Vec<u8>,
) -> io::Result<HttpResponse> {
    let header = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };
    let chunked =
        header("transfer-encoding").is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
    let mut body = Vec::new();
    let mut scratch = [0u8; 64 * 1024];
    if chunked {
        let mut dec = ChunkedDecoder::new();
        loop {
            if !carry.is_empty() {
                let used = dec
                    .decode(carry, &mut body)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
                carry.drain(..used);
            }
            if dec.is_done() {
                break; // leftover bytes in `carry` belong to the successor
            }
            let n = stream.read(&mut scratch)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "chunked response truncated (server aborted mid-stream)",
                ));
            }
            carry.extend_from_slice(&scratch[..n]);
        }
    } else if let Some(len) = header("content-length") {
        let len: usize = len
            .trim()
            .parse()
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad Content-Length"))?;
        while carry.len() < len {
            let n = stream.read(&mut scratch)?;
            if n == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "response body truncated",
                ));
            }
            carry.extend_from_slice(&scratch[..n]);
        }
        body.extend_from_slice(&carry[..len]);
        carry.drain(..len);
    } else {
        // Read to EOF (Connection: close framing).
        body = std::mem::take(carry);
        loop {
            let n = stream.read(&mut scratch)?;
            if n == 0 {
                break;
            }
            body.extend_from_slice(&scratch[..n]);
        }
    }
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// A persistent keep-alive connection: many requests over one socket,
/// responses read to their framing boundary. Also speaks pipelining —
/// queue several requests with [`HttpClient::send_get`]/
/// [`HttpClient::send_post`], then collect the responses in order with
/// [`HttpClient::read_response`].
pub struct HttpClient {
    stream: TcpStream,
    /// Bytes read past the previous response's framing boundary.
    carry: Vec<u8>,
    /// A response carried `Connection: close` (or close-delimited
    /// framing): the server is shutting the socket, further sends would
    /// fail confusingly mid-write.
    closed: bool,
}

impl HttpClient {
    /// Opens the connection.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<HttpClient> {
        Ok(HttpClient {
            stream: connect(addr)?,
            carry: Vec::new(),
            closed: false,
        })
    }

    /// True once the server has announced it is closing this connection
    /// (e.g. its per-connection request cap was reached) — reconnect to
    /// continue.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    fn check_open(&self) -> io::Result<()> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::NotConnected,
                "server closed this connection (Connection: close); reconnect to continue",
            ));
        }
        Ok(())
    }

    /// Queues a `GET` without reading the response (pipelining half).
    pub fn send_get(&mut self, path: &str) -> io::Result<()> {
        self.check_open()?;
        let head = format!("GET {path} HTTP/1.1\r\nHost: gcx\r\n\r\n");
        self.stream.write_all(head.as_bytes())
    }

    /// Queues a `POST` with a `Content-Length` body without reading the
    /// response (pipelining half).
    pub fn send_post(&mut self, path: &str, body: &[u8]) -> io::Result<()> {
        self.check_open()?;
        let head = format!(
            "POST {path} HTTP/1.1\r\nHost: gcx\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)
    }

    /// Reads the next queued response (in request order).
    pub fn read_response(&mut self) -> io::Result<HttpResponse> {
        let resp = read_response_buffered(&mut self.stream, &mut self.carry)?;
        self.note_framing(&resp);
        Ok(resp)
    }

    /// Records whether the response announced (or implied, by
    /// close-delimited framing) that the server is closing the socket.
    fn note_framing(&mut self, resp: &HttpResponse) {
        let close = resp
            .header("connection")
            .is_some_and(|v| v.to_ascii_lowercase().contains("close"));
        let unframed = resp.header("content-length").is_none()
            && !resp
                .header("transfer-encoding")
                .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"));
        if close || unframed {
            self.closed = true;
        }
    }

    /// `GET path` over the persistent connection.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.send_get(path)?;
        self.read_response()
    }

    /// `POST path` with a `Content-Length` body over the persistent
    /// connection.
    pub fn post(&mut self, path: &str, body: &[u8]) -> io::Result<HttpResponse> {
        self.send_post(path, body)?;
        self.read_response()
    }

    /// Raw stream access (tests that need half-close etc.).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }
}

fn parse_response_head(bytes: &[u8]) -> io::Result<(u16, Vec<(String, String)>)> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response head not UTF-8"))?;
    let mut lines = text.split("\r\n");
    let status_line = lines
        .next()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed status line {status_line:?}"),
            )
        })?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }
    Ok((status, headers))
}
