//! Streaming transform sessions ([`Server::begin_stream`]): the client
//! pushes a document as SAX events, twice, and receives the transformed
//! output incrementally, with no input tree ever built.

use std::time::Instant;

use xust_core::{CompiledTransform, LdStorage, Method, SaxStats, TransformStream};
use xust_sax::{SaxEvent, SaxWriter};

use crate::error::ServeError;
use crate::server::Server;
use crate::stats::{bump, Verb};
use crate::store::StoreSnapshot;

impl Server {
    /// Opens a [`StreamingSession`]: the client streams a document as
    /// SAX events — twice, mirroring the two-pass discipline — and
    /// receives the transformed output incrementally. The input tree is
    /// **never materialized**; session memory is O(depth · |p|) + |Ld|
    /// regardless of document size.
    ///
    /// The transform is resolved through the prepared cache (repeat
    /// sessions skip parse + NFA construction), and the session pins a
    /// store snapshot for its lifetime so the server's epoch bookkeeping
    /// can prove abandoned sessions release their resources.
    pub fn begin_stream(&self, query: &str) -> Result<StreamingSession, ServeError> {
        let stats = &self.inner.stats;
        bump(&stats.requests, 1);
        bump(&stats.stream_sessions, 1);
        let compiled = self.inner.transforms.get_or_try_insert(query, || {
            bump(&stats.compiles, 1);
            CompiledTransform::parse(query).map_err(|e| ServeError::Parse(e.to_string()))
        });
        let (ct, hit) = match compiled {
            Ok(v) => v,
            Err(e) => {
                bump(&stats.failures, 1);
                stats.record_verb(Verb::Stream, false);
                return Err(e);
            }
        };
        stats.record_verb(Verb::Stream, true);
        self.note_cache(hit);
        let stream = ct.stream(LdStorage::Memory);
        Ok(StreamingSession {
            server: self.clone(),
            stream,
            writer: SaxWriter::new(Vec::new()),
            started: Instant::now(),
            cache_hit: hit,
            _snapshot: self.inner.docs.snapshot(),
        })
    }
}

/// One client's streaming transform session (see
/// [`Server::begin_stream`]). Protocol:
///
/// 1. [`feed`](StreamingSession::feed) every event of the document
///    (pass 1 — qualifier evaluation);
/// 2. [`begin_replay`](StreamingSession::begin_replay) once;
/// 3. [`replay`](StreamingSession::replay) the same events again; each
///    call returns the transformed output bytes produced *so far* —
///    ship them to the client immediately (backpressure lives in the
///    caller's writer);
/// 4. [`finish`](StreamingSession::finish) to flush the tail and
///    collect statistics.
///
/// Dropping a session at any point — client disconnect, malformed
/// input, truncation — releases its store snapshot and leaves the
/// server untouched; the error paths are exercised by
/// `tests/failure_injection.rs`.
pub struct StreamingSession {
    server: Server,
    stream: TransformStream,
    writer: SaxWriter<Vec<u8>>,
    started: Instant,
    cache_hit: bool,
    /// Pins the store epoch for the session's lifetime; released on drop.
    _snapshot: StoreSnapshot,
}

/// Adapter: a [`xust_core::EventSink`] writing into the session's
/// drainable buffer.
struct SessionSink<'a> {
    w: &'a mut SaxWriter<Vec<u8>>,
}

impl xust_core::EventSink for SessionSink<'_> {
    fn event(&mut self, ev: SaxEvent) -> Result<(), xust_core::SaxTransformError> {
        self.w
            .write_event(&ev)
            .map_err(xust_core::SaxTransformError::Sax)
    }
}

impl StreamingSession {
    /// True when the transform came from the prepared cache.
    pub fn cache_hit(&self) -> bool {
        self.cache_hit
    }

    /// Feeds one pass-1 event.
    pub fn feed(&mut self, ev: SaxEvent) -> Result<(), ServeError> {
        self.stream
            .feed(ev)
            .map_err(|e| ServeError::Eval(e.to_string()))
    }

    /// Seals pass 1 and arms the replay. Errors on truncated input.
    pub fn begin_replay(&mut self) -> Result<(), ServeError> {
        self.stream
            .begin_replay()
            .map_err(|e| ServeError::Eval(e.to_string()))
    }

    /// Feeds one pass-2 event and drains whatever transformed output it
    /// produced (possibly empty — e.g. inside a deleted subtree).
    pub fn replay(&mut self, ev: SaxEvent) -> Result<Vec<u8>, ServeError> {
        let mut sink = SessionSink {
            w: &mut self.writer,
        };
        self.stream
            .replay(ev, &mut sink)
            .map_err(|e| ServeError::Eval(e.to_string()))?;
        Ok(std::mem::take(self.writer.get_mut()))
    }

    /// Transformed output bytes emitted so far.
    pub fn bytes_emitted(&self) -> u64 {
        self.writer.bytes_written()
    }

    /// Wall-clock time since the session was opened.
    pub fn elapsed(&self) -> std::time::Duration {
        self.started.elapsed()
    }

    /// Ends the session: validates the output is balanced, counts the
    /// execution, and returns `(tail output, streaming statistics)`.
    ///
    /// The session's wall-clock is *client-paced* (the caller feeds
    /// events at whatever rate the network delivers them), so it is
    /// deliberately NOT recorded in the per-method latency histogram —
    /// one slow client must not make `TwoPassSax` look slow for
    /// everyone else.
    pub fn finish(mut self) -> Result<(Vec<u8>, SaxStats), ServeError> {
        let mut sink = SessionSink {
            w: &mut self.writer,
        };
        let stats = self
            .stream
            .finish(&mut sink)
            .map_err(|e| ServeError::Eval(e.to_string()))?;
        let tail = std::mem::take(self.writer.get_mut());
        // An unbalanced *output* (truncated pass 2) is caught by
        // TransformStream::finish above; the writer depth double-checks.
        debug_assert_eq!(self.writer.depth(), 0);
        self.server.inner.stats.count_method(Method::TwoPassSax);
        Ok((tail, stats))
    }
}
