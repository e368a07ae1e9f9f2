//! Algorithm `twoPassSAX` (Section 6): the two-pass method fused with
//! SAX parsing, for documents too large for a DOM.
//!
//! **Pass 1** integrates `bottomUp` with event parsing: a stack bounded
//! by document depth carries, per open element, the filtering-NFA state
//! set, the `csat`/`dsat` aggregates, accumulated text, and the ids of
//! the top-level qualifiers to be evaluated there. Ids are drawn from a
//! cursor in traversal order; at `endElement` the qualifier truth values
//! are appended to the list `Ld` (optionally spilled to disk).
//!
//! **Pass 2** integrates `topDown`: it re-parses the document, *replays*
//! the pass-1 cursor discipline against the filtering NFA to map each
//! qualifier occurrence back to its `Ld` slot, runs the selecting NFA
//! with those truths as its `checkp`, and emits the transformed document
//! as an output event stream.
//!
//! Memory is O(depth · |p|) + |Ld| — independent of |T|, the property
//! Fig. 14 demonstrates on gigabyte inputs.
//!
//! Both passes are exposed as *push-based machines* behind the
//! [`EventSink`] abstraction: [`PreparedTransform`] runs pass 1 once and
//! can then replay pass 2 into any sink, and [`PathPrepass`] /
//! [`PreparedPath`] run the same qualifier machinery for an arbitrary X
//! path over an arbitrary event stream. The streaming composition of
//! user and transform queries (`xust-compose::stream`, the paper's §9
//! future work) is built from exactly these parts.

use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::Path as FsPath;

use xust_automata::{FilteringNfa, SelectingNfa, StateSet};
use xust_intern::Sym;
use xust_sax::{SaxError, SaxEvent, SaxParser, SaxWriter};
use xust_xpath::{qual_dp_facts, NodeFacts, Path, QualTable, SatVec};

use crate::query::{InsertPos, TransformQuery, UpdateOp};

/// Where pass 1 keeps the qualifier-truth list `Ld`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LdStorage {
    /// In memory (one byte per qualifier occurrence).
    #[default]
    Memory,
    /// Spilled to a temporary file between the passes, as in the paper
    /// ("writes it to disk as output"). The `ablation_ld_storage` bench
    /// compares the two.
    TempFile,
}

/// Error from the streaming transform.
#[derive(Debug)]
pub enum SaxTransformError {
    /// Malformed XML in either pass.
    Sax(SaxError),
    /// I/O failure reading input or writing output/spill.
    Io(std::io::Error),
    /// Pass 2 saw a different event stream than pass 1 (the input
    /// changed between passes).
    Desync(String),
    /// A downstream consumer failed (streaming composition).
    Sink(String),
}

impl fmt::Display for SaxTransformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SaxTransformError::Sax(e) => write!(f, "streaming transform: {e}"),
            SaxTransformError::Io(e) => write!(f, "streaming transform I/O: {e}"),
            SaxTransformError::Desync(m) => write!(f, "pass desynchronisation: {m}"),
            SaxTransformError::Sink(m) => write!(f, "stream consumer: {m}"),
        }
    }
}

impl std::error::Error for SaxTransformError {}

impl From<SaxError> for SaxTransformError {
    fn from(e: SaxError) -> Self {
        SaxTransformError::Sax(e)
    }
}

impl From<std::io::Error> for SaxTransformError {
    fn from(e: std::io::Error) -> Self {
        SaxTransformError::Io(e)
    }
}

/// The qualifier-truth list `Ld`: one bit per (qualifier, node) pair that
/// pass 1 evaluated, indexed by the traversal-order cursor id.
struct Ld {
    bits: Vec<u8>,
    storage: LdStorage,
    spill: Option<tempfile_path::TempPath>,
}

/// Minimal temp-file helper (std-only; removed on drop).
mod tempfile_path {
    use std::path::PathBuf;

    pub struct TempPath(pub PathBuf);

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn fresh(tag: &str) -> TempPath {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        TempPath(std::env::temp_dir().join(format!(
            "xust-ld-{tag}-{n}-{:?}",
            std::thread::current().id()
        )))
    }
}

impl Ld {
    fn new(storage: LdStorage) -> Ld {
        Ld {
            bits: Vec::new(),
            storage,
            spill: None,
        }
    }

    fn set(&mut self, id: u64, v: bool) {
        let id = id as usize;
        if self.bits.len() <= id {
            self.bits.resize(id + 1, 0);
        }
        self.bits[id] = u8::from(v);
    }

    fn get(&self, id: u64) -> bool {
        self.bits.get(id as usize).copied().unwrap_or(0) == 1
    }

    /// Between the passes: spill/reload when file-backed.
    fn seal(&mut self) -> Result<(), SaxTransformError> {
        if self.storage == LdStorage::TempFile {
            let path = tempfile_path::fresh("pass1");
            std::fs::write(&path.0, &self.bits)?;
            self.bits = Vec::new();
            self.spill = Some(path);
        }
        Ok(())
    }

    fn reload(&mut self) -> Result<(), SaxTransformError> {
        if let Some(path) = &self.spill {
            self.bits = std::fs::read(&path.0)?;
        }
        Ok(())
    }

    /// Number of qualifier occurrences recorded.
    fn len(&self) -> usize {
        self.bits.len()
    }
}

/// Facts adapter for a pass-1 stack entry.
struct SaxFacts<'a> {
    label: Sym,
    attrs: &'a [(Sym, String)],
    text: &'a str,
}

impl NodeFacts for SaxFacts<'_> {
    fn label(&self) -> Option<&str> {
        Some(self.label.as_str())
    }

    fn attr(&self, name: &str) -> Option<&str> {
        // One hash lookup for the queried name, then Sym compares — no
        // per-attribute string work on the pass-1 qualifier path.
        let want = xust_intern::Interner::global().lookup(name)?;
        self.attrs
            .iter()
            .find(|(k, _)| *k == want)
            .map(|(_, v)| v.as_str())
    }

    fn immediate_text(&self) -> String {
        self.text.to_string()
    }
}

/// Statistics from a streaming transform (for tests and the Fig. 14
/// harness).
#[derive(Debug, Default, Clone, Copy)]
pub struct SaxStats {
    /// Elements seen in pass 1.
    pub elements: u64,
    /// Qualifier occurrences recorded in `Ld`.
    pub ld_entries: u64,
    /// Maximum stack depth reached (memory bound witness).
    pub max_depth: usize,
}

// ---- event sinks ----

/// Consumer of a SAX event stream. [`two_pass_sax`] writes the events
/// out as XML text; the streaming composition pipes them into further
/// automata without ever materializing the transformed document.
pub trait EventSink {
    /// Receives one event.
    fn event(&mut self, ev: SaxEvent) -> Result<(), SaxTransformError>;

    /// Called once after the last event of the stream.
    fn finish(&mut self) -> Result<(), SaxTransformError> {
        Ok(())
    }
}

/// Sink that serializes the event stream as XML text.
pub struct WriterSink<W: Write> {
    w: Option<SaxWriter<W>>,
}

impl<W: Write> WriterSink<W> {
    /// Wraps an output writer.
    pub fn new(out: W) -> Self {
        WriterSink {
            w: Some(SaxWriter::new(out)),
        }
    }
}

impl<W: Write> EventSink for WriterSink<W> {
    fn event(&mut self, ev: SaxEvent) -> Result<(), SaxTransformError> {
        if let Some(w) = self.w.as_mut() {
            w.write_event(&ev)?;
        }
        Ok(())
    }

    fn finish(&mut self) -> Result<(), SaxTransformError> {
        if let Some(w) = self.w.take() {
            w.finish().map_err(SaxTransformError::Sax)?;
        }
        Ok(())
    }
}

// ---- public orchestration ----

/// Streaming transform: reads the document twice (two independent
/// parsers over the same input) and writes the transformed document.
pub fn two_pass_sax<R1: Read, R2: Read, W: Write>(
    pass1: SaxParser<R1>,
    pass2: SaxParser<R2>,
    q: &TransformQuery,
    out: W,
    storage: LdStorage,
) -> Result<SaxStats, SaxTransformError> {
    let mut prepared = PreparedTransform::prepare(pass1, q, storage)?;
    let mut sink = WriterSink::new(out);
    prepared.replay_into(pass2, &mut sink)?;
    Ok(prepared.stats)
}

/// Convenience: transform a string, returning the serialized result.
pub fn two_pass_sax_str(xml: &str, q: &TransformQuery) -> Result<String, SaxTransformError> {
    let mut out = Vec::new();
    two_pass_sax(
        SaxParser::from_str(xml),
        SaxParser::from_str(xml),
        q,
        &mut out,
        LdStorage::Memory,
    )?;
    Ok(String::from_utf8(out).expect("writer produces UTF-8"))
}

/// Convenience: transform file → file with bounded memory.
pub fn two_pass_sax_files(
    input: impl AsRef<FsPath>,
    q: &TransformQuery,
    output: impl AsRef<FsPath>,
    storage: LdStorage,
) -> Result<SaxStats, SaxTransformError> {
    let p1 = SaxParser::from_file(&input)?;
    let p2 = SaxParser::from_file(&input)?;
    let out = BufWriter::new(File::create(output)?);
    two_pass_sax::<BufReader<File>, BufReader<File>, _>(p1, p2, q, out, storage)
}

/// A transform query that has completed pass 1 over a document: the
/// qualifier truths `Ld` are sealed, and pass 2 can be *replayed* over
/// the same input any number of times, emitting the transformed document
/// as an event stream into any [`EventSink`].
pub struct PreparedTransform {
    q: TransformQuery,
    mf: FilteringNfa,
    mp: SelectingNfa,
    step_states: Vec<Option<usize>>,
    ld: Ld,
    /// Statistics accumulated across the passes.
    pub stats: SaxStats,
}

impl PreparedTransform {
    /// Pass 1: streams the document once, evaluating every qualifier of
    /// the embedded path bottom-up.
    pub fn prepare<R: Read>(
        parser: SaxParser<R>,
        q: &TransformQuery,
        storage: LdStorage,
    ) -> Result<Self, SaxTransformError> {
        let mf = FilteringNfa::new(&q.path);
        let mp = SelectingNfa::new(&q.path);
        Self::prepare_with(parser, q, storage, mf, mp)
    }

    /// [`PreparedTransform::prepare`] over pre-compiled automata (cloned
    /// out of a `CompiledTransform`), so cache hits in `xust-serve` skip
    /// NFA construction even on the streaming path. `mf` and `mp` must
    /// have been built from `q.path`.
    pub fn prepare_with<R: Read>(
        mut parser: SaxParser<R>,
        q: &TransformQuery,
        storage: LdStorage,
        mf: FilteringNfa,
        mp: SelectingNfa,
    ) -> Result<Self, SaxTransformError> {
        let table = QualTable::from_path(&q.path);
        let step_states: Vec<Option<usize>> = (0..q.path.steps.len())
            .map(|i| mf.state_of_step(i))
            .collect();
        let mut ld = Ld::new(storage);
        let mut stats = SaxStats::default();
        if !q.path.is_empty() {
            let mut m = Pass1State::new();
            while let Some(ev) = parser.next_event()? {
                m.on_event(ev, &table, &mf, &step_states, &mut ld, &mut stats);
            }
        }
        ld.seal()?;
        ld.reload()?;
        stats.ld_entries = ld.len() as u64;
        Ok(PreparedTransform {
            q: q.clone(),
            mf,
            mp,
            step_states,
            ld,
            stats,
        })
    }

    /// Pass 2: re-streams the same document and pushes the transformed
    /// event stream into `sink` (calling `sink.finish()` at the end).
    pub fn replay_into<R: Read>(
        &mut self,
        mut parser: SaxParser<R>,
        sink: &mut dyn EventSink,
    ) -> Result<(), SaxTransformError> {
        let mut core = Pass2Core::new(&self.q);
        let ctx = Pass2Ctx {
            op: &self.q.op,
            mf: &self.mf,
            mp: &self.mp,
            step_states: &self.step_states,
            ld: &self.ld,
        };
        while let Some(ev) = parser.next_event()? {
            core.on_event(&ctx, ev, sink)?;
        }
        self.stats.max_depth = self.stats.max_depth.max(core.max_depth);
        sink.finish()
    }
}

/// A fully push-based streaming transform session: the caller *feeds*
/// SAX events for pass 1, seals the qualifier truths, then feeds the
/// same event stream again for pass 2 and receives the transformed
/// document incrementally through an [`EventSink`]. Nothing is pulled
/// from a parser and the input tree is never materialized — memory
/// stays O(depth · |p|) + |Ld| however large the document is.
///
/// This is the engine behind `xust-serve`'s streaming session mode,
/// where a network client streams a document twice (mirroring the
/// two-pass discipline) and reads transformed output as it is produced.
///
/// ```
/// use xust_core::{parse_transform, TransformStream, WriterSink};
/// use xust_sax::SaxParser;
///
/// let q = parse_transform(
///     r#"transform copy $a := doc("d") modify do delete $a//price return $a"#,
/// ).unwrap();
/// let xml = "<db><part><price>9</price><n>kb</n></part></db>";
/// let mut ts = TransformStream::new(&q, Default::default());
/// let mut p = SaxParser::from_str(xml);
/// while let Some(ev) = p.next_event().unwrap() {
///     ts.feed(ev).unwrap();
/// }
/// ts.begin_replay().unwrap();
/// let mut out = Vec::new();
/// let mut sink = WriterSink::new(&mut out);
/// let mut p = SaxParser::from_str(xml);
/// while let Some(ev) = p.next_event().unwrap() {
///     ts.replay(ev, &mut sink).unwrap();
/// }
/// ts.finish(&mut sink).unwrap();
/// assert_eq!(String::from_utf8(out).unwrap(), "<db><part><n>kb</n></part></db>");
/// ```
pub struct TransformStream {
    q: TransformQuery,
    table: QualTable,
    mf: FilteringNfa,
    mp: SelectingNfa,
    step_states: Vec<Option<usize>>,
    ld: Ld,
    stats: SaxStats,
    phase: StreamPhase,
    /// Open-element depth of the *incoming* stream in the current pass,
    /// maintained defensively: unlike [`SaxParser`], a remote client can
    /// send arbitrary (unbalanced) event sequences.
    depth: usize,
    /// The current pass has seen its root element close.
    root_closed: bool,
}

enum StreamPhase {
    Pass1(Pass1State),
    Pass2(Pass2Core),
    Done,
}

impl TransformStream {
    /// Starts a session for `q`, compiling its automata.
    pub fn new(q: &TransformQuery, storage: LdStorage) -> TransformStream {
        Self::with_automata(
            q,
            storage,
            FilteringNfa::new(&q.path),
            SelectingNfa::new(&q.path),
        )
    }

    /// Starts a session over pre-compiled automata (cloned out of a
    /// [`crate::CompiledTransform`], so cache hits skip NFA
    /// construction). `mf` and `mp` must have been built from `q.path`.
    pub fn with_automata(
        q: &TransformQuery,
        storage: LdStorage,
        mf: FilteringNfa,
        mp: SelectingNfa,
    ) -> TransformStream {
        let table = QualTable::from_path(&q.path);
        let step_states = (0..q.path.steps.len())
            .map(|i| mf.state_of_step(i))
            .collect();
        TransformStream {
            q: q.clone(),
            table,
            mf,
            mp,
            step_states,
            ld: Ld::new(storage),
            stats: SaxStats::default(),
            phase: StreamPhase::Pass1(Pass1State::new()),
            depth: 0,
            root_closed: false,
        }
    }

    /// Validates stream discipline for one incoming event (both passes):
    /// rejects unbalanced end tags and content after the root closes, so
    /// a malformed client stream becomes an error instead of corrupt
    /// output or a panic.
    fn track(&mut self, ev: &SaxEvent) -> Result<(), SaxTransformError> {
        match ev {
            SaxEvent::StartElement { .. } => {
                if self.root_closed {
                    return Err(SaxTransformError::Desync(
                        "element after document root closed".into(),
                    ));
                }
                self.depth += 1;
            }
            SaxEvent::EndElement(_) => {
                if self.depth == 0 {
                    return Err(SaxTransformError::Desync(
                        "end element without matching start".into(),
                    ));
                }
                self.depth -= 1;
                if self.depth == 0 {
                    self.root_closed = true;
                }
            }
            SaxEvent::StartDocument | SaxEvent::EndDocument | SaxEvent::Text(_) => {}
        }
        Ok(())
    }

    /// Feeds one pass-1 event.
    pub fn feed(&mut self, ev: SaxEvent) -> Result<(), SaxTransformError> {
        if !matches!(self.phase, StreamPhase::Pass1(_)) {
            return Err(SaxTransformError::Desync(
                "feed() after begin_replay()".into(),
            ));
        }
        self.track(&ev)?;
        let StreamPhase::Pass1(state) = &mut self.phase else {
            unreachable!("phase checked above");
        };
        if !self.q.path.is_empty() {
            state.on_event(
                ev,
                &self.table,
                &self.mf,
                &self.step_states,
                &mut self.ld,
                &mut self.stats,
            );
        }
        Ok(())
    }

    /// Ends pass 1: seals the qualifier truths and arms pass 2. Errors
    /// if the pass-1 stream was truncated (elements still open).
    pub fn begin_replay(&mut self) -> Result<(), SaxTransformError> {
        if !matches!(self.phase, StreamPhase::Pass1(_)) {
            return Err(SaxTransformError::Desync(
                "begin_replay() called twice".into(),
            ));
        }
        if self.depth != 0 {
            return Err(SaxTransformError::Desync(format!(
                "pass-1 stream truncated: {} element(s) still open",
                self.depth
            )));
        }
        self.ld.seal()?;
        self.ld.reload()?;
        self.stats.ld_entries = self.ld.len() as u64;
        self.phase = StreamPhase::Pass2(Pass2Core::new(&self.q));
        self.depth = 0;
        self.root_closed = false;
        Ok(())
    }

    /// Feeds one pass-2 event; transformed events come out of `sink`.
    /// The pass-2 stream must replay the pass-1 stream exactly.
    pub fn replay(
        &mut self,
        ev: SaxEvent,
        sink: &mut dyn EventSink,
    ) -> Result<(), SaxTransformError> {
        if !matches!(self.phase, StreamPhase::Pass2(_)) {
            return Err(SaxTransformError::Desync(
                "replay() before begin_replay()".into(),
            ));
        }
        self.track(&ev)?;
        let StreamPhase::Pass2(core) = &mut self.phase else {
            unreachable!("phase checked above");
        };
        let ctx = Pass2Ctx {
            op: &self.q.op,
            mf: &self.mf,
            mp: &self.mp,
            step_states: &self.step_states,
            ld: &self.ld,
        };
        core.on_event(&ctx, ev, sink)?;
        self.stats.max_depth = self.stats.max_depth.max(core.max_depth);
        Ok(())
    }

    /// Ends pass 2: flushes the sink and returns the session statistics.
    /// Errors if the pass-2 stream was truncated.
    pub fn finish(&mut self, sink: &mut dyn EventSink) -> Result<SaxStats, SaxTransformError> {
        if !matches!(self.phase, StreamPhase::Pass2(_)) {
            return Err(SaxTransformError::Desync(
                "finish() before begin_replay()".into(),
            ));
        }
        if self.depth != 0 {
            return Err(SaxTransformError::Desync(format!(
                "pass-2 stream truncated: {} element(s) still open",
                self.depth
            )));
        }
        self.phase = StreamPhase::Done;
        sink.finish()?;
        Ok(self.stats)
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SaxStats {
        self.stats
    }

    /// The transform this session evaluates.
    pub fn query(&self) -> &TransformQuery {
        &self.q
    }
}

// ---- pass 1 (push-based machine) ----

struct P1Frame {
    /// Filtering-NFA states (empty ⇒ pruned region: no work below).
    states: StateSet,
    active: bool,
    label: Sym,
    attrs: Vec<(Sym, String)>,
    text: String,
    csat: SatVec,
    dsat: SatVec,
    /// (step, id) of top-level qualifiers to output at endElement.
    quals: Vec<(usize, u64)>,
}

/// The mutable state of a pass-1 run; fed one event at a time.
struct Pass1State {
    cursor: u64,
    stack: Vec<P1Frame>,
}

impl Pass1State {
    fn new() -> Self {
        Pass1State {
            cursor: 0,
            stack: Vec::new(),
        }
    }

    fn on_event(
        &mut self,
        ev: SaxEvent,
        table: &QualTable,
        mf: &FilteringNfa,
        step_states: &[Option<usize>],
        ld: &mut Ld,
        stats: &mut SaxStats,
    ) {
        let nq = table.len();
        match ev {
            SaxEvent::StartDocument | SaxEvent::EndDocument => {}
            SaxEvent::StartElement { name, attrs } => {
                stats.elements += 1;
                let parent_states = match self.stack.last() {
                    Some(f) => f.states.clone(),
                    None => mf.initial(),
                };
                let states = if self.stack.last().is_some_and(|f| !f.active) {
                    StateSet::new(mf.len())
                } else {
                    mf.next_states(&parent_states, name)
                };
                let active = !states.is_empty();
                let mut quals = Vec::new();
                if active {
                    // Assign cursor ids for step qualifiers anchored here
                    // (ascending step order — pass 2 replays identically).
                    for (step, state) in step_states.iter().enumerate() {
                        if table.step_roots[step].is_none() {
                            continue;
                        }
                        if state.is_some_and(|st| states.contains(st)) {
                            quals.push((step, self.cursor));
                            self.cursor += 1;
                        }
                    }
                }
                self.stack.push(P1Frame {
                    states,
                    active,
                    label: name,
                    attrs,
                    text: String::new(),
                    csat: SatVec::new(nq),
                    dsat: SatVec::new(nq),
                    quals,
                });
                stats.max_depth = stats.max_depth.max(self.stack.len());
            }
            SaxEvent::Text(t) => {
                if let Some(f) = self.stack.last_mut() {
                    if f.active {
                        f.text.push_str(&t);
                    }
                }
            }
            SaxEvent::EndElement(_) => {
                // `SaxParser` guarantees balance; push-based callers
                // ([`TransformStream`]) validate it before delegating, so
                // an orphan end tag here is simply ignored.
                let Some(frame) = self.stack.pop() else {
                    return;
                };
                if !frame.active {
                    return;
                }
                let mut sat = SatVec::new(nq);
                let facts = SaxFacts {
                    label: frame.label,
                    attrs: &frame.attrs,
                    text: &frame.text,
                };
                qual_dp_facts(table, &facts, &frame.csat, &frame.dsat, &mut sat);
                for &(step, id) in &frame.quals {
                    let root =
                        table.step_roots[step].expect("id assigned only for qualified steps");
                    ld.set(id, sat.get(root));
                }
                if let Some(parent) = self.stack.last_mut() {
                    if parent.active {
                        parent.csat.or_assign(&sat);
                        parent.dsat.or_assign(&sat);
                        parent.dsat.or_assign(&frame.dsat);
                    }
                }
            }
        }
    }
}

// ---- prepared paths (the reusable qualifier machinery) ----

/// Pass-1 qualifier evaluation for an arbitrary X path over an arbitrary
/// event stream. Feed it events (it is an [`EventSink`], so it can sit
/// directly downstream of [`PreparedTransform::replay_into`]), then call
/// [`PathPrepass::finish`] to seal the truths into a [`PreparedPath`].
pub struct PathPrepass {
    path: Path,
    table: QualTable,
    mf: FilteringNfa,
    mp: SelectingNfa,
    step_states: Vec<Option<usize>>,
    ld: Ld,
    stats: SaxStats,
    state: Pass1State,
}

impl PathPrepass {
    /// Prepares the automata and qualifier table for `path`.
    pub fn new(path: &Path, storage: LdStorage) -> PathPrepass {
        let table = QualTable::from_path(path);
        let mf = FilteringNfa::new(path);
        let mp = SelectingNfa::new(path);
        let step_states = (0..path.steps.len()).map(|i| mf.state_of_step(i)).collect();
        PathPrepass {
            path: path.clone(),
            table,
            mf,
            mp,
            step_states,
            ld: Ld::new(storage),
            stats: SaxStats::default(),
            state: Pass1State::new(),
        }
    }

    /// Feeds one event.
    pub fn feed(&mut self, ev: SaxEvent) {
        if self.path.is_empty() {
            return;
        }
        self.state.on_event(
            ev,
            &self.table,
            &self.mf,
            &self.step_states,
            &mut self.ld,
            &mut self.stats,
        );
    }

    /// Seals the qualifier truths.
    pub fn finish(mut self) -> Result<PreparedPath, SaxTransformError> {
        self.ld.seal()?;
        self.ld.reload()?;
        self.stats.ld_entries = self.ld.len() as u64;
        Ok(PreparedPath {
            path: self.path,
            mf: self.mf,
            mp: self.mp,
            step_states: self.step_states,
            ld: self.ld,
            stats: self.stats,
        })
    }
}

impl EventSink for PathPrepass {
    fn event(&mut self, ev: SaxEvent) -> Result<(), SaxTransformError> {
        self.feed(ev);
        Ok(())
    }
}

/// An X path whose qualifiers have been evaluated over a stream: replay
/// the same stream through [`PreparedPath::selector`] to learn, per
/// element, whether the path selects it.
pub struct PreparedPath {
    path: Path,
    mf: FilteringNfa,
    mp: SelectingNfa,
    step_states: Vec<Option<usize>>,
    ld: Ld,
    /// Prepass statistics.
    pub stats: SaxStats,
}

impl PreparedPath {
    /// Starts a replay over the same stream.
    pub fn selector(&self) -> PathSelector<'_> {
        PathSelector {
            pp: self,
            cursor: 0,
            truth: vec![false; self.path.steps.len().max(1)],
            stack: Vec::new(),
        }
    }

    /// The path this was prepared for.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

struct SelFrame {
    mf_states: StateSet,
    mp_states: StateSet,
}

/// Replays the pass-1 cursor discipline over the same event stream and
/// drives the selecting NFA with the recorded truths — reporting, per
/// start tag, whether the node is selected by the path.
pub struct PathSelector<'a> {
    pp: &'a PreparedPath,
    cursor: u64,
    truth: Vec<bool>,
    stack: Vec<SelFrame>,
}

impl PathSelector<'_> {
    /// Advances on a start tag; returns true iff the element is in
    /// `r[[p]]`. (An empty path selects exactly the stream's root.)
    pub fn start_element(&mut self, name: Sym) -> bool {
        let pp = self.pp;
        let (parent_mf, parent_mp) = match self.stack.last() {
            Some(f) => (f.mf_states.clone(), f.mp_states.clone()),
            None => (pp.mf.initial(), pp.mp.initial()),
        };
        let epsilon = pp.path.is_empty();
        let mf_next = pp.mf.next_states(&parent_mf, name);
        if !epsilon {
            for (step, state) in pp.step_states.iter().enumerate() {
                if pp.mp.path.steps[step].qualifier.is_none() {
                    continue;
                }
                if state.is_some_and(|st| mf_next.contains(st)) {
                    self.truth[step] = pp.ld.get(self.cursor);
                    self.cursor += 1;
                }
            }
        }
        let truth = &self.truth;
        let mp_next = pp.mp.next_states(&parent_mp, name, |step, _| truth[step]);
        let selected = if epsilon {
            self.stack.is_empty()
        } else {
            mp_next.contains(pp.mp.final_state)
        };
        self.stack.push(SelFrame {
            mf_states: mf_next,
            mp_states: mp_next,
        });
        selected
    }

    /// Advances past an end tag.
    pub fn end_element(&mut self) {
        self.stack.pop();
    }

    /// Current open-element depth.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }
}

// ---- pass 2 (push-based machine) ----

struct P2Frame {
    mf_states: StateSet,
    mp_states: StateSet,
    /// End-tag name to emit (None when this element is suppressed).
    emit_end: Option<Sym>,
    /// Emit `e` before the end tag (`insert … into` at a selected node).
    insert_at_end: bool,
    /// Emit `e` after the end tag (`insert … after` at a selected node).
    insert_after_end: bool,
}

/// Borrowed context for one pass-2 run: the immutable compiled pieces a
/// [`Pass2Core`] consults per event. Splitting these from the mutable
/// cursor state lets both the pull-based [`PreparedTransform`] and the
/// push-based [`TransformStream`] drive the same machine.
struct Pass2Ctx<'a> {
    op: &'a UpdateOp,
    mf: &'a FilteringNfa,
    mp: &'a SelectingNfa,
    step_states: &'a [Option<usize>],
    ld: &'a Ld,
}

/// Pass 2 as a machine: push input events, transformed events come out
/// of the sink. Owns only the mutable cursor/stack state; the compiled
/// context arrives per call via [`Pass2Ctx`].
struct Pass2Core {
    elem_events: Vec<SaxEvent>,
    cursor: u64,
    stack: Vec<P2Frame>,
    /// Count of suppressing ancestors (deleted/replaced subtrees).
    suppress: usize,
    epsilon: bool,
    truth: Vec<bool>,
    max_depth: usize,
}

impl Pass2Core {
    fn new(q: &TransformQuery) -> Self {
        let elem_events = match &q.op {
            UpdateOp::Insert { elem, .. } | UpdateOp::Replace { elem } => doc_events(elem),
            _ => Vec::new(),
        };
        Pass2Core {
            elem_events,
            cursor: 0,
            stack: Vec::new(),
            suppress: 0,
            epsilon: q.path.is_empty(),
            truth: vec![false; q.path.steps.len().max(1)],
            max_depth: 0,
        }
    }

    fn splice(&self, sink: &mut dyn EventSink) -> Result<(), SaxTransformError> {
        for ev in &self.elem_events {
            sink.event(ev.clone())?;
        }
        Ok(())
    }

    fn on_event(
        &mut self,
        ctx: &Pass2Ctx<'_>,
        ev: SaxEvent,
        sink: &mut dyn EventSink,
    ) -> Result<(), SaxTransformError> {
        match ev {
            SaxEvent::StartDocument | SaxEvent::EndDocument => {}
            SaxEvent::StartElement { name, attrs } => {
                let (parent_mf, parent_mp) = match self.stack.last() {
                    Some(f) => (f.mf_states.clone(), f.mp_states.clone()),
                    None => (ctx.mf.initial(), ctx.mp.initial()),
                };
                // Replay the pass-1 cursor discipline.
                let mf_next = ctx.mf.next_states(&parent_mf, name);
                if !self.epsilon {
                    for (step, state) in ctx.step_states.iter().enumerate() {
                        if ctx.mp.path.steps[step].qualifier.is_none() {
                            continue;
                        }
                        if state.is_some_and(|st| mf_next.contains(st)) {
                            self.truth[step] = ctx.ld.get(self.cursor);
                            self.cursor += 1;
                        }
                    }
                }
                let truth = &self.truth;
                let mp_next = ctx.mp.next_states(&parent_mp, name, |step, _| truth[step]);
                let selected = if self.epsilon {
                    self.stack.is_empty()
                } else {
                    mp_next.contains(ctx.mp.final_state)
                };

                let mut frame = P2Frame {
                    mf_states: mf_next,
                    mp_states: mp_next,
                    emit_end: None,
                    insert_at_end: false,
                    insert_after_end: false,
                };
                if self.suppress > 0 {
                    self.suppress += 1; // stay suppressed; frame emits nothing
                } else if selected {
                    // `stack` still excludes the current element, so
                    // emptiness here means this *is* the document root —
                    // where sibling inserts are skipped.
                    let at_root = self.stack.is_empty();
                    match ctx.op {
                        UpdateOp::Delete => {
                            self.suppress += 1;
                        }
                        UpdateOp::Replace { .. } => {
                            self.splice(sink)?;
                            self.suppress += 1;
                        }
                        UpdateOp::Rename { name: new_name } => {
                            sink.event(SaxEvent::StartElement {
                                name: *new_name,
                                attrs,
                            })?;
                            frame.emit_end = Some(*new_name);
                        }
                        UpdateOp::Insert { pos, .. } => {
                            let pos = *pos;
                            if pos == InsertPos::Before && !at_root {
                                self.splice(sink)?;
                            }
                            sink.event(SaxEvent::StartElement { name, attrs })?;
                            if pos == InsertPos::FirstInto {
                                self.splice(sink)?;
                            }
                            frame.emit_end = Some(name);
                            frame.insert_at_end = pos == InsertPos::LastInto;
                            frame.insert_after_end = pos == InsertPos::After && !at_root;
                        }
                    }
                } else {
                    sink.event(SaxEvent::StartElement { name, attrs })?;
                    frame.emit_end = Some(name);
                }
                self.stack.push(frame);
                self.max_depth = self.max_depth.max(self.stack.len());
            }
            SaxEvent::Text(t) => {
                if self.suppress == 0 && !self.stack.is_empty() {
                    sink.event(SaxEvent::Text(t))?;
                }
            }
            SaxEvent::EndElement(_) => {
                let frame = self
                    .stack
                    .pop()
                    .ok_or_else(|| SaxTransformError::Desync("end element without start".into()))?;
                match frame.emit_end {
                    Some(name) => {
                        if frame.insert_at_end {
                            self.splice(sink)?;
                        }
                        sink.event(SaxEvent::EndElement(name))?;
                        if frame.insert_after_end {
                            self.splice(sink)?;
                        }
                    }
                    None => {
                        self.suppress = self.suppress.saturating_sub(1);
                    }
                }
            }
        }
        Ok(())
    }
}

/// Serializes a constant element `e` into the event stream to splice into
/// the output.
pub(crate) fn doc_events(doc: &xust_tree::Document) -> Vec<SaxEvent> {
    let Some(root) = doc.root() else {
        return Vec::new();
    };
    let mut events = Vec::new();
    enum Frame {
        Enter(xust_tree::NodeId),
        Exit(xust_tree::NodeId),
    }
    let mut stack = vec![Frame::Enter(root)];
    while let Some(f) = stack.pop() {
        match f {
            Frame::Enter(n) => match doc.kind(n) {
                xust_tree::NodeKind::Text(t) => events.push(SaxEvent::Text(t.to_owned())),
                xust_tree::NodeKind::Element { name, attrs } => {
                    events.push(SaxEvent::StartElement {
                        name,
                        attrs: attrs.to_vec(),
                    });
                    stack.push(Frame::Exit(n));
                    let children: Vec<_> = doc.children(n).collect();
                    for &c in children.iter().rev() {
                        stack.push(Frame::Enter(c));
                    }
                }
            },
            Frame::Exit(n) => {
                events.push(SaxEvent::EndElement(
                    doc.name_sym(n).expect("exit frames are elements"),
                ));
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::copy_update::copy_update;
    use xust_tree::Document;
    use xust_xpath::parse_path;

    fn doc_xml() -> &'static str {
        "<db><part><pname>keyboard</pname><supplier><sname>HP</sname><price>12</price></supplier><part><pname>key</pname></part></part><part><pname>mouse</pname><supplier><sname>IBM</sname><price>20</price></supplier></part></db>"
    }

    fn agree(q: &TransformQuery) {
        let d = Document::parse(doc_xml()).unwrap();
        let expected = copy_update(&d, q).serialize();
        let got = two_pass_sax_str(doc_xml(), q).unwrap();
        assert_eq!(
            got,
            expected,
            "twoPassSAX disagrees for {} {}",
            q.op.kind(),
            q.path
        );
    }

    #[test]
    fn all_ops_match_baseline() {
        let e = Document::parse("<mark><inner>x</inner></mark>").unwrap();
        for p in [
            "//price",
            "db/part/supplier",
            "//part[pname = 'keyboard']//part",
            "//supplier[price < 15]",
            "//part[not(supplier/sname = 'HP') and not(supplier/price < 15)]",
            "db/part[supplier/sname = 'IBM']/pname",
            "zzz/nothing",
        ] {
            let path = parse_path(p).unwrap();
            agree(&TransformQuery::delete("d", path.clone()));
            agree(&TransformQuery::insert("d", path.clone(), e.clone()));
            agree(&TransformQuery::replace("d", path.clone(), e.clone()));
            agree(&TransformQuery::rename("d", path, "rn"));
        }
    }

    #[test]
    fn insert_position_variants_match_baseline() {
        let e = Document::parse("<mark/>").unwrap();
        for p in [
            "//supplier",
            "//part[pname = 'keyboard']",
            "db/part/supplier/price",
            "//part//part",
        ] {
            let path = parse_path(p).unwrap();
            for pos in [
                InsertPos::LastInto,
                InsertPos::FirstInto,
                InsertPos::Before,
                InsertPos::After,
            ] {
                agree(&TransformQuery::insert_at(
                    "d",
                    path.clone(),
                    e.clone(),
                    pos,
                ));
            }
        }
    }

    #[test]
    fn sibling_insert_at_root_skipped() {
        for pos in [InsertPos::Before, InsertPos::After] {
            let q = TransformQuery::insert_at(
                "d",
                parse_path("//db").unwrap(),
                Document::parse("<s/>").unwrap(),
                pos,
            );
            agree(&q);
            let out = two_pass_sax_str(doc_xml(), &q).unwrap();
            assert!(!out.contains("<s/>"));
        }
    }

    #[test]
    fn file_backed_ld_matches_memory() {
        let q = TransformQuery::delete("d", parse_path("//supplier[price < 15]").unwrap());
        let mut mem_out = Vec::new();
        let s1 = two_pass_sax(
            SaxParser::from_str(doc_xml()),
            SaxParser::from_str(doc_xml()),
            &q,
            &mut mem_out,
            LdStorage::Memory,
        )
        .unwrap();
        let mut file_out = Vec::new();
        let s2 = two_pass_sax(
            SaxParser::from_str(doc_xml()),
            SaxParser::from_str(doc_xml()),
            &q,
            &mut file_out,
            LdStorage::TempFile,
        )
        .unwrap();
        assert_eq!(mem_out, file_out);
        assert_eq!(s1.ld_entries, s2.ld_entries);
        assert!(s1.ld_entries > 0);
    }

    #[test]
    fn epsilon_path_ops() {
        let q = TransformQuery::rename("d", xust_xpath::Path::empty(), "r2");
        let out = two_pass_sax_str("<a><b/></a>", &q).unwrap();
        assert_eq!(out, "<r2><b/></r2>");
        let q = TransformQuery::delete("d", xust_xpath::Path::empty());
        let out = two_pass_sax_str("<a><b/></a>", &q).unwrap();
        assert_eq!(out, "");
        let q = TransformQuery::insert(
            "d",
            xust_xpath::Path::empty(),
            Document::parse("<x/>").unwrap(),
        );
        let out = two_pass_sax_str("<a><b/></a>", &q).unwrap();
        assert_eq!(out, "<a><b/><x/></a>");
    }

    #[test]
    fn delete_root_via_path() {
        let q = TransformQuery::delete("d", parse_path("//db").unwrap());
        assert_eq!(two_pass_sax_str(doc_xml(), &q).unwrap(), "");
    }

    #[test]
    fn files_roundtrip() {
        let dir = std::env::temp_dir();
        let input = dir.join("xust_sax2pass_in.xml");
        let output = dir.join("xust_sax2pass_out.xml");
        std::fs::write(&input, doc_xml()).unwrap();
        let q = TransformQuery::delete("d", parse_path("//price").unwrap());
        let stats = two_pass_sax_files(&input, &q, &output, LdStorage::Memory).unwrap();
        let got = std::fs::read_to_string(&output).unwrap();
        let d = Document::parse(doc_xml()).unwrap();
        assert_eq!(got, copy_update(&d, &q).serialize());
        assert!(stats.elements > 0);
        assert!(stats.max_depth >= 3);
        std::fs::remove_file(&input).ok();
        std::fs::remove_file(&output).ok();
    }

    #[test]
    fn stack_depth_bounded_by_document_depth() {
        // A wide, shallow document must not grow the stack.
        let mut xml = String::from("<db>");
        for i in 0..500 {
            xml.push_str(&format!("<p><v>{i}</v></p>"));
        }
        xml.push_str("</db>");
        let q = TransformQuery::delete("d", parse_path("//v[. = '7']").unwrap());
        let mut out = Vec::new();
        let stats = two_pass_sax(
            SaxParser::from_str(&xml),
            SaxParser::from_str(&xml),
            &q,
            &mut out,
            LdStorage::Memory,
        )
        .unwrap();
        assert_eq!(stats.max_depth, 3);
        let s = String::from_utf8(out).unwrap();
        assert!(!s.contains("<v>7</v>"));
        assert!(s.contains("<v>8</v>"));
    }

    #[test]
    fn text_and_attrs_preserved() {
        let xml = r#"<a k="v">pre<b x="1">t</b>post</a>"#;
        let q = TransformQuery::rename("d", parse_path("a/b").unwrap(), "c");
        let out = two_pass_sax_str(xml, &q).unwrap();
        assert_eq!(out, r#"<a k="v">pre<c x="1">t</c>post</a>"#);
    }

    #[test]
    fn malformed_input_errors() {
        let q = TransformQuery::delete("d", parse_path("//x").unwrap());
        assert!(two_pass_sax_str("<a><b></a>", &q).is_err());
    }

    #[test]
    fn replay_is_repeatable() {
        // One prepare, two replays — byte-identical outputs.
        let q = TransformQuery::delete("d", parse_path("//price").unwrap());
        let mut prepared =
            PreparedTransform::prepare(SaxParser::from_str(doc_xml()), &q, LdStorage::Memory)
                .unwrap();
        let mut out1 = Vec::new();
        let mut s1 = WriterSink::new(&mut out1);
        prepared
            .replay_into(SaxParser::from_str(doc_xml()), &mut s1)
            .unwrap();
        let mut out2 = Vec::new();
        let mut s2 = WriterSink::new(&mut out2);
        prepared
            .replay_into(SaxParser::from_str(doc_xml()), &mut s2)
            .unwrap();
        assert_eq!(out1, out2);
        assert!(!String::from_utf8(out1).unwrap().contains("price"));
    }

    fn stream_transform(xml: &str, q: &TransformQuery) -> Result<String, SaxTransformError> {
        let mut ts = TransformStream::new(q, LdStorage::Memory);
        let mut p = SaxParser::from_str(xml);
        while let Some(ev) = p.next_event()? {
            ts.feed(ev)?;
        }
        ts.begin_replay()?;
        let mut out = Vec::new();
        let mut sink = WriterSink::new(&mut out);
        let mut p = SaxParser::from_str(xml);
        while let Some(ev) = p.next_event()? {
            ts.replay(ev, &mut sink)?;
        }
        ts.finish(&mut sink)?;
        Ok(String::from_utf8(out).expect("writer produces UTF-8"))
    }

    #[test]
    fn push_stream_matches_pull_two_pass() {
        let e = Document::parse("<mark/>").unwrap();
        for p in [
            "//price",
            "//part[pname = 'keyboard']//part",
            "//supplier[price < 15]",
            "db/part[supplier/sname = 'IBM']/pname",
        ] {
            let path = parse_path(p).unwrap();
            for q in [
                TransformQuery::delete("d", path.clone()),
                TransformQuery::insert("d", path.clone(), e.clone()),
                TransformQuery::replace("d", path.clone(), e.clone()),
                TransformQuery::rename("d", path.clone(), "rn"),
            ] {
                let pull = two_pass_sax_str(doc_xml(), &q).unwrap();
                let push = stream_transform(doc_xml(), &q).unwrap();
                assert_eq!(push, pull, "push/pull disagree for {} {p}", q.op.kind());
            }
        }
    }

    #[test]
    fn push_stream_rejects_unbalanced_events() {
        let q = TransformQuery::delete("d", parse_path("//x").unwrap());
        // Orphan end tag.
        let mut ts = TransformStream::new(&q, LdStorage::Memory);
        assert!(ts.feed(SaxEvent::end("a")).is_err());
        // Truncated pass 1.
        let mut ts = TransformStream::new(&q, LdStorage::Memory);
        ts.feed(SaxEvent::start("a")).unwrap();
        assert!(ts.begin_replay().is_err());
        // Content after the root closed.
        let mut ts = TransformStream::new(&q, LdStorage::Memory);
        ts.feed(SaxEvent::start("a")).unwrap();
        ts.feed(SaxEvent::end("a")).unwrap();
        assert!(ts.feed(SaxEvent::start("b")).is_err());
        // Truncated pass 2.
        let mut ts = TransformStream::new(&q, LdStorage::Memory);
        ts.feed(SaxEvent::start("a")).unwrap();
        ts.feed(SaxEvent::end("a")).unwrap();
        ts.begin_replay().unwrap();
        let mut out = Vec::new();
        let mut sink = WriterSink::new(&mut out);
        ts.replay(SaxEvent::start("a"), &mut sink).unwrap();
        assert!(ts.finish(&mut sink).is_err());
    }

    #[test]
    fn push_stream_phase_discipline() {
        let q = TransformQuery::delete("d", parse_path("//x").unwrap());
        let mut ts = TransformStream::new(&q, LdStorage::Memory);
        let mut out = Vec::new();
        let mut sink = WriterSink::new(&mut out);
        // replay/finish before begin_replay are errors.
        assert!(ts.replay(SaxEvent::start("a"), &mut sink).is_err());
        assert!(ts.finish(&mut sink).is_err());
        ts.begin_replay().unwrap();
        // feed after begin_replay is an error; so is a second begin.
        assert!(ts.feed(SaxEvent::start("a")).is_err());
        assert!(ts.begin_replay().is_err());
        assert_eq!(ts.query().op.kind(), "delete");
    }

    #[test]
    fn path_selector_agrees_with_dom_eval() {
        // Feed the raw document through PathPrepass + PathSelector and
        // compare the selected labels with the DOM evaluator.
        for p in [
            "//part[pname = 'keyboard']",
            "db/part/supplier[price < 15]",
            "//part//part",
            "//supplier[not(sname = 'HP')]/price",
        ] {
            let path = parse_path(p).unwrap();
            let mut pre = PathPrepass::new(&path, LdStorage::Memory);
            let mut parser = SaxParser::from_str(doc_xml());
            let mut events = Vec::new();
            while let Some(ev) = parser.next_event().unwrap() {
                pre.feed(ev.clone());
                events.push(ev);
            }
            let prepared = pre.finish().unwrap();
            let mut sel = prepared.selector();
            let mut got = Vec::new();
            for ev in &events {
                match ev {
                    SaxEvent::StartElement { name, .. } if sel.start_element(*name) => {
                        got.push(name.as_str().to_string());
                    }
                    SaxEvent::StartElement { .. } => {}
                    SaxEvent::EndElement(_) => sel.end_element(),
                    _ => {}
                }
            }
            let d = Document::parse(doc_xml()).unwrap();
            let expect: Vec<String> = xust_xpath::eval_path_root(&d, &path)
                .into_iter()
                .map(|n| d.name(n).unwrap().to_string())
                .collect();
            assert_eq!(got, expect, "selector deviates on {p}");
        }
    }
}
