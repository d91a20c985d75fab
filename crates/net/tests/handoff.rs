//! Hand-offs per request, as a count: a response travels from the
//! evaluator to the socket one scheduler slice (or one full 64 KiB
//! block) at a time, so the connection worker's wake-ups scale with the
//! bytes moved — not with the number of tags in the result. The counter
//! is server-wide, so this binary holds exactly one test.

use gcx_net::{client, http, GcxServer, NetConfig};
use gcx_xmark::{generate_string, XmarkConfig};
use gcx_xml::TagInterner;
use std::sync::atomic::Ordering;

/// Every `item` below `regions`, whole: a third of the document comes
/// back, as some ten thousand tags.
const COPY_QUERY: &str = "<o>{ for $b in /site/regions return for $i in $b//item return $i }</o>";

const REQUESTS: u64 = 4;

#[test]
fn wakeups_per_request_scale_with_blocks_not_tags() {
    let doc = generate_string(XmarkConfig::with_target_bytes(1 << 20, 42));
    let mut want = Vec::new();
    {
        let mut tags = TagInterner::new();
        let compiled = gcx_query::compile_default(COPY_QUERY, &mut tags).expect("compile");
        gcx_core::run_gcx(&compiled, &mut tags, doc.as_bytes(), &mut want).expect("run_gcx");
    }
    let tags_out = want.iter().filter(|&&b| b == b'>').count() as u64;
    let blocks = (doc.len() + want.len()).div_ceil(64 * 1024) as u64;
    let bound = 16 + 4 * blocks;
    assert!(
        tags_out > 10 * bound,
        "{tags_out} tags against a bound of {bound}"
    );

    let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
    let mut conn = client::HttpClient::connect(server.local_addr()).unwrap();
    let path = format!("/query?xq={}", http::percent_encode(COPY_QUERY));
    let mut request = || {
        let resp = conn.post(&path, doc.as_bytes()).unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.body == want, "response differs from run_gcx");
    };
    request(); // connection set-up, query compilation
    let before = server.counters().epoll_wakeups.load(Ordering::Relaxed);
    for _ in 0..REQUESTS {
        request();
    }
    let per_request = (server.counters().epoll_wakeups.load(Ordering::Relaxed) - before) / REQUESTS;
    assert!(
        per_request <= bound,
        "{per_request} epoll wake-ups per request, bound {bound} ({blocks} blocks of 64 KiB, \
         {tags_out} tags)"
    );
    eprintln!("{per_request} epoll wake-ups per request (bound {bound}, {tags_out} tags)");
    server.shutdown();
}
