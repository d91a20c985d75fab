//! The server's thread count is fixed at bind time, however many
//! sessions are open. The check counts `/proc/self/task`, i.e. the whole
//! process, so this binary holds exactly one test: the only other
//! threads are the eight clients it spawns itself.
#![cfg(target_os = "linux")]

use gcx_net::{client, http, GcxServer, NetConfig};
use std::sync::Barrier;
use std::time::{Duration, Instant};

const QUERY: &str = "<r>{ for $b in /bib/book return $b/title }</r>";

fn process_threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

#[test]
fn eight_open_sessions_add_no_threads() {
    let server = GcxServer::bind(
        "127.0.0.1:0",
        NetConfig {
            workers: 4,
            evaluators: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let addr = server.local_addr();
    let path = format!("/query?xq={}", http::percent_encode(QUERY));
    let doc = format!("<bib>{}</bib>", "<book><title>T</title></book>".repeat(400));
    let (head, tail) = doc.as_bytes().split_at(doc.len() / 2);
    let before = process_threads();

    // Every client stops mid-upload until the count has been taken, so
    // the sample sees eight sessions open at once.
    let mid_upload = Barrier::new(9);
    let sampled = Barrier::new(9);
    let (during, responses) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| {
                    let mut ps = client::PostStream::open(addr, &path).unwrap();
                    ps.send_chunk(head).unwrap();
                    mid_upload.wait();
                    sampled.wait();
                    ps.send_chunk(tail).unwrap();
                    ps.finish().unwrap()
                })
            })
            .collect();
        mid_upload.wait();
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.active_sessions() < 8 {
            assert!(Instant::now() < deadline, "sessions never opened");
            std::thread::sleep(Duration::from_millis(1));
        }
        let during = process_threads();
        sampled.wait();
        let responses: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        (during, responses)
    });

    assert_eq!(
        during,
        before + 8,
        "the eight client threads are the only new ones: sessions must not cost threads"
    );
    let expected = format!("<r>{}</r>", "<title>T</title>".repeat(400));
    for resp in responses {
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, expected.as_bytes());
    }
    server.shutdown();
}
