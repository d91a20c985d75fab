//! # gcx-net — a dependency-free HTTP/1.1 streaming front-end for GCX
//!
//! Exposes the gcx-service session runtime over the wire so the
//! buffer-minimized streaming evaluator (the paper's whole point: a
//! single node handling documents and client counts far beyond DOM
//! engines) can actually be pointed at with load:
//!
//! * **`POST /query`** streams an XML document through a compiled query
//!   and streams the result back, chunked both ways — a 200 MB document
//!   flows end to end at constant memory.
//! * **`GET /stats`** samples *live* per-session buffer statistics
//!   (current/peak buffered nodes, text-arena bytes) from engines
//!   mid-run, plus cache/budget/server counters.
//! * A **fixed thread topology** (acceptor + epoll-driven connection
//!   workers + a bounded [`gcx_service::EvaluatorPool`]): each worker
//!   multiplexes its non-blocking sockets over an `epoll(7)` readiness
//!   loop and drives sessions with the non-blocking `try_feed` / `drain`
//!   pair. Blocked connections sleep until a socket event or a
//!   session-progress eventfd wakeup (raised on edges: input consumed,
//!   first output after a drain, termination) — no polling anywhere, so
//!   an idle server uses no CPU.
//!
//! Hand-rolled over `std::net` — the build environment is offline (no
//! hyper/tokio), the same constraint that produced `crates/compat`; even
//! epoll/eventfd are raw syscalls (`crate::epoll`) since there is no
//! libc crate either.
//!
//! ```no_run
//! use gcx_net::{GcxServer, NetConfig};
//!
//! let server = GcxServer::bind("127.0.0.1:0", NetConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let doc = b"<bib><book><title>Streams</title></book></bib>";
//! let resp = gcx_net::client::post(
//!     addr,
//!     &format!(
//!         "/query?xq={}",
//!         gcx_net::http::percent_encode("<r>{ for $b in /bib/book return $b/title }</r>")
//!     ),
//!     doc,
//! )
//! .unwrap();
//! assert_eq!(resp.text(), "<r><title>Streams</title></r>");
//! server.shutdown();
//! ```

pub mod client;
mod epoll;
pub mod http;
mod metrics;
pub mod server;
pub mod shutdown;
mod stats_json;

pub use client::HttpClient;
pub use server::{GcxServer, NetConfig, ServerCounters, SessionEntry};
