//! Minimal HTTP/1.1 wire protocol: request heads, percent decoding,
//! incremental chunked transfer coding, response building.
//!
//! Hand-rolled over `std` by design — the build environment is offline
//! (no hyper/tokio), and the server only needs the subset a streaming
//! query endpoint uses: `POST` with `Content-Length` or
//! `Transfer-Encoding: chunked` bodies, `GET` for observability, and
//! chunked responses so results flow while the document is still
//! arriving.

use std::fmt::Write as _;

/// A parsed request head (request line + headers).
#[derive(Debug, Clone)]
pub struct RequestHead {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Decoded path without the query string (`/query`).
    pub path: String,
    /// Decoded `key=value` pairs from the query string, in order.
    pub params: Vec<(String, String)>,
    /// Headers with lowercased names, in order.
    pub headers: Vec<(String, String)>,
    /// Minor HTTP version: `1` for HTTP/1.1, `0` for HTTP/1.0.
    pub minor_version: u8,
}

impl RequestHead {
    /// First header value with the given (lowercase) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// First query parameter with the given name.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parsed `Content-Length`, if present. Strict, because on a
    /// keep-alive connection this number decides where the next request
    /// starts and an intermediary must not be able to read it
    /// differently: the value is `1*DIGIT` (`str::parse` alone would take
    /// `+5`), and repeated headers must be byte-identical.
    pub fn content_length(&self) -> Result<Option<u64>, String> {
        let mut values = self
            .headers
            .iter()
            .filter(|(n, _)| n == "content-length")
            .map(|(_, v)| v.as_str());
        let Some(v) = values.next() else {
            return Ok(None);
        };
        if values.any(|other| other != v) {
            return Err("conflicting Content-Length headers".to_string());
        }
        let digits = !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit());
        match v.parse::<u64>() {
            Ok(n) if digits => Ok(Some(n)),
            _ => Err(format!("invalid Content-Length: {v:?}")),
        }
    }

    /// True when the body uses chunked transfer coding.
    pub fn is_chunked(&self) -> bool {
        self.header("transfer-encoding")
            .is_some_and(|v| v.to_ascii_lowercase().contains("chunked"))
    }

    /// True when the client asked for `100 Continue` before sending the
    /// body (curl does for large uploads).
    pub fn expects_continue(&self) -> bool {
        self.header("expect")
            .is_some_and(|v| v.to_ascii_lowercase().contains("100-continue"))
    }

    /// True when this request was made with HTTP/1.0 (which cannot take
    /// chunked responses and defaults to one request per connection).
    pub fn is_http10(&self) -> bool {
        self.minor_version == 0
    }

    /// Connection persistence the client asked for: HTTP/1.1 defaults to
    /// keep-alive unless `Connection: close`; HTTP/1.0 defaults to close
    /// unless `Connection: keep-alive`.
    pub fn wants_keep_alive(&self) -> bool {
        let conn = self.header("connection").map(str::to_ascii_lowercase);
        match conn.as_deref() {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => !self.is_http10(),
        }
    }
}

/// Index just past the `\r\n\r\n` terminating the head, if complete.
pub fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Parses the head bytes (everything up to and including `\r\n\r\n`).
pub fn parse_head(bytes: &[u8]) -> Result<RequestHead, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "head is not UTF-8".to_string())?;
    let mut lines = text.split("\r\n");
    let request_line = lines.next().ok_or("empty head")?;
    let mut parts = request_line.split(' ');
    let method = parts.next().ok_or("missing method")?.to_ascii_uppercase();
    let target = parts.next().ok_or("missing request target")?;
    let version = parts.next().ok_or("missing HTTP version")?;
    let Some(minor) = version.strip_prefix("HTTP/1.") else {
        return Err(format!("unsupported version {version:?}"));
    };
    let minor_version: u8 = minor
        .parse()
        .map_err(|_| format!("unsupported version {version:?}"))?;
    let (raw_path, raw_query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let params = raw_query.map_or_else(Vec::new, parse_query);
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| format!("malformed header line {line:?}"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok(RequestHead {
        method,
        path: percent_decode(raw_path),
        params,
        headers,
        minor_version,
    })
}

/// Splits and decodes an `application/x-www-form-urlencoded` query
/// string.
pub fn parse_query(q: &str) -> Vec<(String, String)> {
    q.split('&')
        .filter(|p| !p.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Decodes `%XX` escapes and `+`-as-space. Invalid escapes pass through
/// verbatim (lenient, like most servers).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b'%' => match (hex_val(bytes.get(i + 1)), hex_val(bytes.get(i + 2))) {
                (Some(h), Some(l)) => {
                    out.push((h << 4) | l);
                    i += 3;
                }
                _ => {
                    out.push(b'%');
                    i += 1;
                }
            },
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Percent-encodes everything outside the unreserved set (for building
/// request targets in the client).
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => {
                let _ = write!(out, "%{b:02X}");
            }
        }
    }
    out
}

fn hex_val(b: Option<&u8>) -> Option<u8> {
    match b? {
        c @ b'0'..=b'9' => Some(c - b'0'),
        c @ b'a'..=b'f' => Some(c - b'a' + 10),
        c @ b'A'..=b'F' => Some(c - b'A' + 10),
        _ => None,
    }
}

// ----------------------------------------------------------------------
// Chunked transfer coding (incremental decoder)
// ----------------------------------------------------------------------

#[derive(Debug)]
enum ChunkState {
    /// Reading the hex size line (bytes accumulated so far).
    Size(Vec<u8>),
    /// Reading `remaining` payload bytes.
    Data(u64),
    /// Expecting the `\r\n` after a chunk's payload (bytes still due).
    DataEnd(u8),
    /// Reading trailer lines after the last chunk (current line so far).
    Trailer(Vec<u8>),
    Done,
}

/// Incremental decoder for `Transfer-Encoding: chunked` bodies. Feed it
/// raw bytes in arbitrary splits; decoded payload is appended to the
/// caller's buffer.
#[derive(Debug)]
pub struct ChunkedDecoder {
    state: ChunkState,
}

impl Default for ChunkedDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkedDecoder {
    /// A decoder positioned at the first chunk-size line.
    pub fn new() -> Self {
        ChunkedDecoder {
            state: ChunkState::Size(Vec::new()),
        }
    }

    /// True after the terminating 0-chunk (and its trailers) was seen.
    pub fn is_done(&self) -> bool {
        matches!(self.state, ChunkState::Done)
    }

    /// Consumes as much of `input` as possible, appending decoded payload
    /// to `out`. Returns the number of input bytes consumed (always the
    /// full input unless the decoder finished mid-buffer).
    pub fn decode(&mut self, input: &[u8], out: &mut Vec<u8>) -> Result<usize, String> {
        let mut i = 0;
        while i < input.len() {
            match &mut self.state {
                ChunkState::Done => break,
                ChunkState::Size(line) => {
                    let b = input[i];
                    i += 1;
                    if b == b'\n' {
                        let text = std::str::from_utf8(line)
                            .map_err(|_| "chunk size is not UTF-8".to_string())?;
                        // `1*HEXDIG`, then optional whitespace before
                        // an extension or the line end. `from_str_radix`
                        // alone would also take a sign.
                        let size_part = text.split(';').next().unwrap_or("").trim_end();
                        let size = size_part
                            .bytes()
                            .all(|b| b.is_ascii_hexdigit())
                            .then(|| u64::from_str_radix(size_part, 16).ok())
                            .flatten()
                            .ok_or_else(|| format!("invalid chunk size {size_part:?}"))?;
                        self.state = if size == 0 {
                            ChunkState::Trailer(Vec::new())
                        } else {
                            ChunkState::Data(size)
                        };
                    } else {
                        if line.len() > 32 {
                            return Err("chunk size line too long".into());
                        }
                        line.push(b);
                    }
                }
                ChunkState::Data(remaining) => {
                    let take = (*remaining).min((input.len() - i) as u64) as usize;
                    out.extend_from_slice(&input[i..i + take]);
                    i += take;
                    *remaining -= take as u64;
                    if *remaining == 0 {
                        self.state = ChunkState::DataEnd(2);
                    }
                }
                ChunkState::DataEnd(due) => {
                    // Tolerate bare LF line endings: skip up to `due`
                    // bytes of CR/LF.
                    let b = input[i];
                    if b == b'\r' || b == b'\n' {
                        i += 1;
                        let done_line = b == b'\n';
                        *due -= 1;
                        if done_line || *due == 0 {
                            self.state = ChunkState::Size(Vec::new());
                        }
                    } else {
                        return Err("missing CRLF after chunk data".into());
                    }
                }
                ChunkState::Trailer(line) => {
                    let b = input[i];
                    i += 1;
                    if b == b'\n' {
                        let empty = line.iter().all(|&c| c == b'\r');
                        if empty {
                            self.state = ChunkState::Done;
                        } else {
                            line.clear();
                        }
                    } else {
                        if line.len() > 1024 {
                            return Err("trailer line too long".into());
                        }
                        line.push(b);
                    }
                }
            }
        }
        Ok(i)
    }
}

// ----------------------------------------------------------------------
// Response building
// ----------------------------------------------------------------------

/// Renders a response head. The connection disposition is explicit:
/// `keep_alive` emits `Connection: keep-alive` (the response is framed
/// per request — `Content-Length` or chunked — and the socket stays
/// open), `false` emits `Connection: close`.
pub fn response_head(
    status: u16,
    reason: &str,
    headers: &[(&str, &str)],
    keep_alive: bool,
) -> Vec<u8> {
    let mut out = format!("HTTP/1.1 {status} {reason}\r\n");
    for (name, value) in headers {
        let _ = write!(out, "{name}: {value}\r\n");
    }
    out.push_str(if keep_alive {
        "Connection: keep-alive\r\n\r\n"
    } else {
        "Connection: close\r\n\r\n"
    });
    out.into_bytes()
}

/// A complete small response with a body (`Content-Length` framing, so it
/// is keep-alive-safe whenever `keep_alive` is set).
pub fn simple_response(
    status: u16,
    reason: &str,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> Vec<u8> {
    let len = body.len().to_string();
    let mut out = response_head(
        status,
        reason,
        &[("Content-Type", content_type), ("Content-Length", &len)],
        keep_alive,
    );
    out.extend_from_slice(body);
    out
}

/// Appends one chunk of a chunked response body.
pub fn encode_chunk(payload: &[u8], out: &mut Vec<u8>) {
    if payload.is_empty() {
        return; // a 0-size chunk would terminate the body
    }
    let mut size = String::with_capacity(10);
    let _ = write!(size, "{:x}\r\n", payload.len());
    out.extend_from_slice(size.as_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(b"\r\n");
}

/// The chunked-body terminator.
pub const FINAL_CHUNK: &[u8] = b"0\r\n\r\n";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_head_with_params() {
        let raw = b"POST /query?xq=%3Cr%2F%3E&name=Q1 HTTP/1.1\r\n\
                    Host: localhost\r\n\
                    Content-Length: 42\r\n\
                    Content-Length: 42\r\n\
                    Transfer-Encoding: chunked\r\n\r\n";
        let head = parse_head(&raw[..find_head_end(raw).unwrap()]).unwrap();
        assert_eq!(head.method, "POST");
        assert_eq!(head.path, "/query");
        assert_eq!(head.param("xq"), Some("<r/>"));
        assert_eq!(head.param("name"), Some("Q1"));
        assert_eq!(head.content_length().unwrap(), Some(42));
        assert!(head.is_chunked());
        assert!(!head.expects_continue());
        assert!(!head.is_http10());
        assert!(head.wants_keep_alive(), "HTTP/1.1 defaults to keep-alive");
    }

    #[test]
    fn content_length_is_strict() {
        let parse = |cl: &str| {
            let raw = format!("POST / HTTP/1.1\r\n{cl}\r\n");
            parse_head(raw.as_bytes()).unwrap().content_length()
        };
        assert_eq!(parse(""), Ok(None));
        assert_eq!(parse("Content-Length:  7 \r\n"), Ok(Some(7)));
        for bad in ["+5", "-5", "0x5", "5, 5", "", "99999999999999999999999"] {
            let got = parse(&format!("Content-Length: {bad}\r\n"));
            assert!(got.is_err(), "{bad:?} accepted as {got:?}");
        }
        let dup = parse("Content-Length: 5\r\nContent-Length: 6\r\n");
        assert_eq!(dup, Err("conflicting Content-Length headers".to_string()));
    }

    #[test]
    fn keep_alive_negotiation() {
        let parse = |raw: &[u8]| parse_head(&raw[..find_head_end(raw).unwrap()]).unwrap();
        let h11_close = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!h11_close.wants_keep_alive());
        let h10 = parse(b"GET / HTTP/1.0\r\n\r\n");
        assert!(h10.is_http10());
        assert!(!h10.wants_keep_alive(), "HTTP/1.0 defaults to close");
        let h10_ka = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(h10_ka.wants_keep_alive(), "explicit 1.0 keep-alive honored");
    }

    #[test]
    fn percent_roundtrip() {
        let original = "<r>{ for $x in /a return $x }</r> +%";
        assert_eq!(percent_decode(&percent_encode(original)), original);
        assert_eq!(percent_decode("a+b%20c"), "a b c");
        assert_eq!(percent_decode("bad%zz"), "bad%zz", "lenient on junk");
    }

    #[test]
    fn chunked_decoder_handles_arbitrary_splits() {
        let encoded = b"4\r\nWiki\r\n5\r\npedia\r\nE\r\n in\r\n\r\nchunks.\r\n0\r\n\r\n";
        for split in 1..encoded.len() {
            let mut dec = ChunkedDecoder::new();
            let mut out = Vec::new();
            for part in encoded.chunks(split) {
                let used = dec.decode(part, &mut out).unwrap();
                assert_eq!(used, part.len());
            }
            assert!(dec.is_done(), "split {split}");
            assert_eq!(out, b"Wikipedia in\r\n\r\nchunks.");
        }
    }

    #[test]
    fn chunked_decoder_trailers_and_extensions() {
        let encoded = b"5;ext=1\r\nhello\r\n0\r\nX-Trailer: v\r\n\r\n";
        let mut dec = ChunkedDecoder::new();
        let mut out = Vec::new();
        dec.decode(encoded, &mut out).unwrap();
        assert!(dec.is_done());
        assert_eq!(out, b"hello");
    }

    #[test]
    fn chunked_decoder_rejects_garbage_size() {
        for bad in [
            "zz",
            "+5",
            " 5",
            "-5",
            "0x5",
            "",
            "1_0",
            "10000000000000000",
        ] {
            let mut dec = ChunkedDecoder::new();
            let got = dec.decode(format!("{bad}\r\nhello\r\n").as_bytes(), &mut Vec::new());
            assert!(
                got.as_ref()
                    .is_err_and(|e| e.starts_with("invalid chunk size")),
                "{bad:?} gave {got:?}"
            );
        }
        // Whitespace before an extension or the line end stays legal.
        for ok in ["5 ;ext", "5\t;ext", "5 "] {
            let mut dec = ChunkedDecoder::new();
            let mut out = Vec::new();
            dec.decode(format!("{ok}\r\nhello\r\n").as_bytes(), &mut out)
                .unwrap();
            assert_eq!(out, b"hello", "{ok:?}");
        }
    }

    #[test]
    fn encode_then_decode_roundtrip() {
        let mut wire = Vec::new();
        encode_chunk(b"hello ", &mut wire);
        encode_chunk(b"", &mut wire); // no-op, must not terminate
        encode_chunk(b"world", &mut wire);
        wire.extend_from_slice(FINAL_CHUNK);
        let mut dec = ChunkedDecoder::new();
        let mut out = Vec::new();
        dec.decode(&wire, &mut out).unwrap();
        assert!(dec.is_done());
        assert_eq!(out, b"hello world");
    }

    #[test]
    fn response_builders() {
        let head = response_head(200, "OK", &[("Content-Type", "application/xml")], false);
        let text = String::from_utf8(head).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Connection: close"));
        assert!(text.ends_with("\r\n\r\n"));
        let keep = response_head(200, "OK", &[], true);
        assert!(String::from_utf8(keep)
            .unwrap()
            .contains("Connection: keep-alive"));
        let full = simple_response(404, "Not Found", "text/plain", b"nope", false);
        let text = String::from_utf8(full).unwrap();
        assert!(text.contains("Content-Length: 4"));
        assert!(text.ends_with("nope"));
    }
}
