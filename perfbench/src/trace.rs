//! In-memory spans for the traced run.
//!
//! A span records a name, start, end, parent span and request id.
//! Spans are kept in memory per thread and written out as JSON lines
//! when the run ends. A layer's self time is its span's duration minus
//! the part covered by its child spans.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's base
/// instant; `parent` is 0 for a root span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Span id (unique within a [`Tracer`]).
    pub id: u64,
    /// Parent span id, 0 for a root.
    pub parent: u64,
    /// Request the span belongs to.
    pub req: u64,
    /// Layer boundary the span covers.
    pub name: &'static str,
    /// Start, ns since the base instant.
    pub start: u64,
    /// End, ns since the base instant.
    pub end: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    next_id: u64,
    id_base: u64,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose span ids start at `id_base + 1` (give each
    /// thread its own base so merged ids stay unique).
    pub fn new(id_base: u64) -> Self {
        Self {
            next_id: 0,
            id_base,
            spans: Vec::new(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: u64,
        end: u64,
    ) -> u64 {
        self.next_id += 1;
        let id = self.id_base + self.next_id;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start,
            end: end.max(start),
        });
        id
    }

    /// Reserves an id for a root span recorded after its children.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.id_base + self.next_id
    }

    /// Records a span under a reserved id.
    pub fn record_as(&mut self, id: u64, name: &'static str, req: u64, start: u64, end: u64) {
        self.spans.push(Span {
            id,
            parent: 0,
            req,
            name,
            start,
            end: end.max(start),
        });
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child coverage), ns.
    pub self_ns: u64,
}

/// Self time per span name. Children of one parent are assumed not to
/// overlap (true for the sequential steps recorded here).
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut child_cover: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_cover.entry(s.parent).or_default() += s.end - s.start;
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let d = s.end - s.start;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += d;
        e.self_ns += d.saturating_sub(child_cover.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start, s.end
        )?;
    }
    out.flush()
}

/// Timestamps of one request/response exchange through a stream,
/// filled in by [`TraceStream`].
#[derive(Debug, Clone, Copy, Default)]
pub struct CallMarks {
    /// First byte handed to the socket.
    pub first_write: Option<Instant>,
    /// Last `flush` (the request is on the wire).
    pub flushed: Option<Instant>,
    /// First byte of the answer received.
    pub first_read: Option<Instant>,
}

/// Counters and marks shared between a client and the streams its
/// connector opens.
#[derive(Debug, Default)]
pub struct Probe {
    /// Marks of the call in progress.
    pub marks: Cell<CallMarks>,
    /// Requests put on the wire: every client attempt ends its request
    /// frame with exactly one `flush`.
    pub attempts: Cell<u64>,
    /// Complete answer frames received.
    pub replies: Cell<u64>,
    /// Streams opened.
    pub connects: Cell<u64>,
}

/// A stream wrapper that marks where a client call's time goes
/// (encode → send → wait → decode) and counts requests sent and
/// answer frames received, so retries show as requests without an
/// answer.
#[derive(Debug)]
pub struct TraceStream<S> {
    inner: S,
    probe: Rc<Probe>,
    header: [u8; 4],
    header_got: usize,
    body_left: usize,
}

impl<S> TraceStream<S> {
    /// Wraps a freshly opened stream.
    pub fn new(inner: S, probe: Rc<Probe>) -> Self {
        probe.connects.set(probe.connects.get() + 1);
        Self {
            inner,
            probe,
            header: [0; 4],
            header_got: 0,
            body_left: 0,
        }
    }

    /// Follows the `u32` length-prefixed framing of the bytes read.
    fn account(&mut self, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            if self.header_got < 4 {
                let take = (4 - self.header_got).min(bytes.len());
                self.header[self.header_got..self.header_got + take]
                    .copy_from_slice(&bytes[..take]);
                self.header_got += take;
                bytes = &bytes[take..];
                if self.header_got == 4 {
                    self.body_left = u32::from_be_bytes(self.header) as usize;
                }
            } else {
                let take = self.body_left.min(bytes.len());
                self.body_left -= take;
                bytes = &bytes[take..];
            }
            if self.header_got == 4 && self.body_left == 0 {
                self.header_got = 0;
                self.probe.replies.set(self.probe.replies.get() + 1);
            }
        }
    }
}

impl<S: Write> Write for TraceStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut m = self.probe.marks.get();
        m.first_write.get_or_insert_with(Instant::now);
        self.probe.marks.set(m);
        self.inner.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let r = self.inner.flush();
        let mut m = self.probe.marks.get();
        m.flushed = Some(Instant::now());
        self.probe.marks.set(m);
        self.probe.attempts.set(self.probe.attempts.get() + 1);
        r
    }
}

impl<S: Read> Read for TraceStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            let mut m = self.probe.marks.get();
            m.first_read.get_or_insert_with(Instant::now);
            self.probe.marks.set(m);
            self.account(&buf[..n]);
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(0);
        let root = t.reserve();
        t.record("wire.encode", root, 7, 0, 10);
        t.record("listener.wait", root, 7, 10, 40);
        t.record_as(root, "connection.call", 7, 0, 50);
        let st = self_times(&t.into_spans());
        assert_eq!(st["connection.call"].self_ns, 10);
        assert_eq!(st["connection.call"].total_ns, 50);
        assert_eq!(st["listener.wait"].self_ns, 30);
        assert_eq!(st["wire.encode"].count, 1);
    }

    #[test]
    fn the_stream_counts_requests_and_whole_answers() {
        let mut replies = Vec::new();
        bas_server::write_frame(&mut replies, &bas_server::Response::Pong).unwrap();
        bas_server::write_frame(&mut replies, &bas_server::Response::Pong).unwrap();
        let probe = Rc::new(Probe::default());
        let mut s = TraceStream::new(std::io::Cursor::new(replies), probe.clone());
        let mut byte = [0u8; 1];
        // Byte-at-a-time reads still count two whole frames.
        while s.read(&mut byte).unwrap() == 1 {}
        assert_eq!(probe.replies.get(), 2);
        s.flush().unwrap();
        assert_eq!(probe.attempts.get(), 1);
        assert_eq!(probe.connects.get(), 1);
        assert!(probe.marks.get().first_read.is_some());
    }
}
