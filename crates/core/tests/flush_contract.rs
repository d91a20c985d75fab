//! The output half of the step contract: **a suspended engine holds no
//! output**. Whatever schedule drives it — any step budget, input
//! arriving in pieces of any size — everything the engine has written
//! has been flushed to its sink by the time `step` returns, and the
//! first flush is the output root's open tag on its own.

use gcx_core::{run_gcx, GcxEngine, StepOutcome, Strategy};
use gcx_query::{compile_default, CompiledQuery};
use gcx_xml::TagInterner;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::rc::Rc;

#[path = "../../../tests/corpus/mod.rs"]
mod corpus;

/// What a consumer of the sink can see: bytes count only once flushed.
#[derive(Default)]
struct Sink {
    staged: Vec<u8>,
    forwarded: Vec<u8>,
    first_flush: Option<Vec<u8>>,
}

#[derive(Clone, Default)]
struct FlushOnlyWriter(Rc<RefCell<Sink>>);

impl Write for FlushOnlyWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.borrow_mut().staged.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        let sink = &mut *self.0.borrow_mut();
        sink.forwarded.append(&mut sink.staged);
        if sink.first_flush.is_none() && !sink.forwarded.is_empty() {
            sink.first_flush = Some(sink.forwarded.clone());
        }
        Ok(())
    }
}

/// Input that arrives when the test says so: `WouldBlock` while dry.
#[derive(Default)]
struct Feed {
    bytes: VecDeque<u8>,
    closed: bool,
}

#[derive(Clone, Default)]
struct FedReader(Rc<RefCell<Feed>>);

impl Read for FedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let feed = &mut *self.0.borrow_mut();
        if feed.bytes.is_empty() && !feed.closed {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        feed.bytes.read(buf)
    }
}

/// Steps until the engine asks for input (`false`) or finishes (`true`),
/// checking after every return that nothing is left staged.
fn step_until_blocked(
    engine: &mut GcxEngine<&CompiledQuery, &mut TagInterner, FedReader, FlushOnlyWriter>,
    sink: &Rc<RefCell<Sink>>,
    budget: u32,
    what: &str,
) -> bool {
    loop {
        let outcome = engine.step(budget);
        assert!(
            sink.borrow().staged.is_empty(),
            "{what}: {} bytes left unflushed after {outcome:?}",
            sink.borrow().staged.len()
        );
        match outcome {
            StepOutcome::Yielded => {}
            StepOutcome::NeedInput => return false,
            StepOutcome::Finished(_) => return true,
            other => panic!("{what}: unexpected step outcome {other:?}"),
        }
    }
}

#[test]
fn every_step_return_leaves_the_sink_flushed() {
    for (query, doc) in corpus::corpus() {
        let mut tags = TagInterner::new();
        let compiled = compile_default(query, &mut tags).expect("compile");
        let mut reference = Vec::new();
        run_gcx(&compiled, &mut tags.clone(), doc.as_bytes(), &mut reference).expect("run_gcx");
        for budget in [1, 7, 4096] {
            for piece in [1, 64, doc.len().max(1)] {
                let what = format!("budget {budget}, {piece}-byte pieces, {query}");
                let writer = FlushOnlyWriter::default();
                let reader = FedReader::default();
                let mut run_tags = tags.clone();
                let mut engine = GcxEngine::new(
                    &compiled,
                    &mut run_tags,
                    reader.clone(),
                    writer.clone(),
                    Strategy::Gcx,
                );
                let mut finished = false;
                for chunk in doc.as_bytes().chunks(piece) {
                    reader.0.borrow_mut().bytes.extend(chunk);
                    finished = step_until_blocked(&mut engine, &writer.0, budget, &what);
                    if finished {
                        break; // the engine never reads past what it needs
                    }
                }
                if !finished {
                    reader.0.borrow_mut().closed = true;
                    assert!(
                        step_until_blocked(&mut engine, &writer.0, budget, &what),
                        "{what}: NeedInput after end of input"
                    );
                }
                drop(engine);
                let sink = writer.0.borrow();
                assert_eq!(sink.forwarded, reference, "{what}");
                assert_eq!(sink.first_flush.as_deref(), Some(&b"<r>"[..]), "{what}");
            }
        }
    }
}
