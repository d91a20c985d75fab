//! An amplifying query (70 KB in, 105 MB out) over one connection: once
//! the upload is complete the response must keep *streaming* under the
//! session's output bound, not pile up in the server until evaluation
//! ends. The check reads `active_sessions()` of the whole server, so
//! this binary holds exactly one test.

use gcx_net::{http, GcxServer, NetConfig};
use gcx_xml::TagInterner;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

const QUERY: &str = "<o>{ for $a in /r/a return for $b in /r/a return $b }</o>";

/// Length + FNV-1a of everything written: 105 MB is compared, not kept.
#[derive(Debug, PartialEq)]
struct Digest {
    len: u64,
    hash: u64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            len: 0,
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Write for Digest {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.len += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn post_upload_output_streams_under_the_session_bound() {
    let doc = format!(
        "<r>{}</r>",
        "<a>xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx</a>".repeat(1500)
    );
    let mut want = Digest::new();
    {
        let mut tags = TagInterner::new();
        let compiled = gcx_query::compile_default(QUERY, &mut tags).expect("compile");
        gcx_core::run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut want).expect("run_gcx");
    }
    assert!(
        want.len > 100 << 20,
        "the query amplifies: {} bytes",
        want.len
    );

    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            workers: 1,
            evaluators: 1,
            ..Default::default()
        },
    )
    .unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let head = format!(
        "POST /query?xq={} HTTP/1.1\r\nHost: gcx\r\nContent-Length: {}\r\n\r\n",
        http::percent_encode(QUERY),
        doc.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(doc.as_bytes()).unwrap();

    // Response head, then the chunked body as it arrives.
    let mut buf = vec![0u8; 64 * 1024];
    let mut raw = Vec::new();
    let head_end = loop {
        if let Some(end) = http::find_head_end(&raw) {
            break end;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "connection closed inside the response head");
        raw.extend_from_slice(&buf[..n]);
    };
    assert!(raw.starts_with(b"HTTP/1.1 200 "), "committed to the 200");
    let mut decoder = http::ChunkedDecoder::new();
    let mut got = Digest::new();
    let mut payload = Vec::new();
    decoder.decode(&raw[head_end..], &mut payload).unwrap();
    let mut checked_mid_stream = false;
    while !decoder.is_done() {
        got.write_all(&payload).unwrap();
        payload.clear();
        if got.len >= 1 << 20 && !checked_mid_stream {
            // The whole document was uploaded long ago and a mebibyte
            // of the result is here, yet 100 MB are still to come: the
            // evaluator is alive, paced by this reader.
            assert_eq!(
                server.active_sessions(),
                1,
                "results stream while evaluating"
            );
            checked_mid_stream = true;
        }
        let n = stream.read(&mut buf).unwrap();
        assert!(n > 0, "connection closed inside the response body");
        decoder.decode(&buf[..n], &mut payload).unwrap();
    }
    got.write_all(&payload).unwrap();
    assert!(checked_mid_stream);
    assert_eq!(got, want);
    server.shutdown();
}
