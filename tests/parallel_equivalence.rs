//! Differential hardening of the sharded/parallel evaluation path:
//!
//! * parallel sharded batches through `xust-serve` must agree
//!   **byte-for-byte** with sequential `two_pass` and with `copy_update`
//!   on randomized documents, queries, and update kinds, for shard
//!   counts {1, 2, 8};
//! * a streaming session's peak allocation must stay O(depth · |p|) —
//!   far below the document size — asserted with a per-thread
//!   peak-allocation counter installed as the global allocator.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

use common::{arb_doc, arb_op, arb_path, build_query, build_query_text};
use proptest::prelude::*;

use xust::core::{evaluate, Method};
use xust::sax::SaxParser;
use xust::serve::{Request, Server};
use xust::tree::Document;
use xust::xpath::parse_path;

// ---- per-thread peak-allocation counter ----
//
// Only threads that opt in (the memory test) are measured, so the other
// tests in this binary can run concurrently without polluting the peak.

thread_local! {
    static TRACKING: Cell<bool> = const { Cell::new(false) };
    static CURRENT: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

struct PeakCounting;

unsafe impl GlobalAlloc for PeakCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            let _ = TRACKING.try_with(|t| {
                if t.get() {
                    let _ = CURRENT.try_with(|c| {
                        let now = c.get() + layout.size() as isize;
                        c.set(now);
                        let _ = PEAK.try_with(|pk| pk.set(pk.get().max(now)));
                    });
                }
            });
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = TRACKING.try_with(|t| {
            if t.get() {
                let _ = CURRENT.try_with(|c| c.set(c.get() - layout.size() as isize));
            }
        });
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOC: PeakCounting = PeakCounting;

/// Runs `f` with this thread's allocations tracked; returns `(result,
/// peak_net_bytes)` — the high-water mark of net allocation inside `f`.
fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, usize) {
    TRACKING.with(|t| t.set(true));
    CURRENT.with(|c| c.set(0));
    PEAK.with(|p| p.set(0));
    let r = f();
    TRACKING.with(|t| t.set(false));
    let peak = PEAK.with(|p| p.get());
    (r, peak.max(0) as usize)
}

// ---- parallel sharded evaluation vs sequential references ----

const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: whatever shard count the store uses and
    /// however the batch lands on the work-stealing workers, every
    /// response body is byte-identical to sequential `two_pass` AND to
    /// `copy_update` on the same document.
    #[test]
    fn sharded_batches_agree_with_sequential_references(
        docs in prop::collection::vec(arb_doc(), 1..5),
        path in arb_path(),
        op in arb_op(),
    ) {
        let q = build_query(&path, op);
        let query_text = build_query_text("db", &path, op);
        let two_pass: Vec<String> = docs
            .iter()
            .map(|d| evaluate(d, &q, Method::TwoPass).unwrap().serialize())
            .collect();
        let copy_update: Vec<String> = docs
            .iter()
            .map(|d| evaluate(d, &q, Method::CopyUpdate).unwrap().serialize())
            .collect();
        prop_assert_eq!(&two_pass, &copy_update, "references disagree (core bug)");

        for shards in SHARD_COUNTS {
            let server = Server::builder().threads(4).shards(shards).build();
            for (i, d) in docs.iter().enumerate() {
                server.load_doc(format!("doc{i}"), d.clone());
            }
            // Duplicate each request so work overlaps across workers.
            let batch: Vec<Request> = (0..docs.len() * 2)
                .map(|i| Request::Transform {
                    doc: format!("doc{}", i % docs.len()),
                    query: query_text.clone(),
                })
                .collect();
            let results = server.execute_batch(batch);
            for (i, r) in results.iter().enumerate() {
                let body = &r.as_ref().unwrap_or_else(|e| {
                    panic!("shards={shards} item {i} failed: {e} (query: {query_text})")
                }).body;
                prop_assert_eq!(
                    body,
                    &two_pass[i % docs.len()],
                    "shards={} item {} deviates from sequential two_pass for {} over {}",
                    shards,
                    i,
                    query_text,
                    docs[i % docs.len()].serialize()
                );
            }
            prop_assert_eq!(server.store().active_snapshots(), 0);
        }
    }
}

/// Updates through the store are visible to later batches while earlier
/// snapshots stay consistent — the epoch behaviour the differential
/// harness relies on.
#[test]
fn parallel_batches_resolve_syms_identically() {
    use std::collections::HashMap;
    use std::sync::Mutex;
    use xust::core::Sym;

    // Two servers with different shard layouts share ONE concurrent
    // interner (the process-global table) across all shards and
    // snapshots — that is what makes a `Sym` meaningful across batch
    // workers.
    let server1 = Server::builder().threads(4).shards(1).build();
    let server8 = Server::builder().threads(4).shards(8).build();
    assert!(
        std::ptr::eq(server1.store().interner(), server8.store().interner()),
        "DocStores must share one interner"
    );

    let xml =
        "<db><part><pname>kb</pname><price>9</price></part><part><pname>m</pname></part></db>";
    for s in [&server1, &server8] {
        for i in 0..6 {
            s.load_doc_str(format!("doc{i}"), xml).unwrap();
        }
    }
    let query = r#"transform copy $a := doc("db") modify do rename $a//part as widget return $a"#;

    // Several threads per server fan batches out over the shards; every
    // element label in every response must resolve to the same Sym.
    let maps: Mutex<Vec<HashMap<&'static str, Sym>>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for server in [&server1, &server8] {
            for _ in 0..3 {
                let maps = &maps;
                scope.spawn(move || {
                    let batch: Vec<Request> = (0..6)
                        .map(|i| Request::Transform {
                            doc: format!("doc{i}"),
                            query: query.to_string(),
                        })
                        .collect();
                    let mut map: HashMap<&'static str, Sym> = HashMap::new();
                    for r in server.execute_batch(batch) {
                        let body = r.expect("batch item served").body;
                        let d = Document::parse(&body).expect("response parses");
                        for n in d.descendants_or_self(d.root().unwrap()) {
                            if let Some(sym) = d.name_sym(n) {
                                if let Some(prev) = map.insert(sym.as_str(), sym) {
                                    assert_eq!(prev, sym, "one thread saw two Syms for a label");
                                }
                            }
                        }
                    }
                    maps.lock().unwrap().push(map);
                });
            }
        }
    });

    let maps = maps.into_inner().unwrap();
    assert_eq!(maps.len(), 6);
    let interner = server1.store().interner();
    for map in &maps {
        assert!(map.contains_key("widget"), "rename must have applied");
        for (label, sym) in map {
            // Every thread's resolution matches the shared table…
            assert_eq!(interner.lookup(label), Some(*sym), "label {label}");
        }
    }
    // …and therefore each other's.
    for pair in maps.windows(2) {
        for (label, sym) in &pair[0] {
            if let Some(other) = pair[1].get(label) {
                assert_eq!(sym, other, "threads disagree on {label}");
            }
        }
    }
}

#[test]
fn batches_see_a_consistent_world_across_updates() {
    let server = Server::builder().threads(4).shards(8).build();
    for round in 0..5u32 {
        let xml = format!("<r><a><b>{round}</b></a></r>");
        server.load_doc_str("db", &xml).unwrap();
        let expect = evaluate(
            &Document::parse(&xml).unwrap(),
            &build_query("r/a", 3),
            Method::TwoPass,
        )
        .unwrap()
        .serialize();
        let batch: Vec<Request> = (0..8)
            .map(|_| Request::Transform {
                doc: "db".into(),
                query: build_query_text("db", "r/a", 3),
            })
            .collect();
        for r in server.execute_batch(batch) {
            assert_eq!(r.unwrap().body, expect, "round {round}");
        }
    }
    assert_eq!(server.store().active_snapshots(), 0);
}

// ---- streaming session memory bound ----

/// Synthesizes a wide, shallow document (`<db><p><v>i</v></p>…</db>`) on
/// the fly: the input never exists in memory, so any document-sized
/// allocation must come from the code under test.
struct WideXml {
    next: usize,
    total: usize,
    pending: Vec<u8>,
    offset: usize,
    stage: u8, // 0 = prologue, 1 = items, 2 = epilogue, 3 = done
}

impl WideXml {
    fn new(total: usize) -> WideXml {
        WideXml {
            next: 0,
            total,
            pending: Vec::new(),
            offset: 0,
            stage: 0,
        }
    }

    /// Total bytes this generator will produce.
    fn len(total: usize) -> usize {
        let mut n = 0usize;
        let mut gen = WideXml::new(total);
        let mut buf = [0u8; 4096];
        loop {
            let k = gen.read(&mut buf).unwrap();
            if k == 0 {
                return n;
            }
            n += k;
        }
    }

    fn refill(&mut self) {
        self.pending.clear();
        self.offset = 0;
        match self.stage {
            0 => {
                self.pending.extend_from_slice(b"<db>");
                self.stage = 1;
            }
            1 => {
                if self.next < self.total {
                    self.pending
                        .extend_from_slice(format!("<p><v>{}</v></p>", self.next).as_bytes());
                    self.next += 1;
                } else {
                    self.pending.extend_from_slice(b"</db>");
                    self.stage = 2;
                }
            }
            _ => self.stage = 3,
        }
    }
}

impl Read for WideXml {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.offset >= self.pending.len() {
            if self.stage >= 2 {
                self.stage = 3;
                return Ok(0);
            }
            self.refill();
        }
        let n = (self.pending.len() - self.offset).min(out.len());
        out[..n].copy_from_slice(&self.pending[self.offset..self.offset + n]);
        self.offset += n;
        Ok(n)
    }
}

/// Acceptance: streaming-session memory is O(depth · |p|) — the peak
/// net allocation while transforming a multi-megabyte document stays
/// bounded by parser buffers (~128 KiB), orders of magnitude below the
/// document, which is never materialized.
#[test]
fn streaming_session_memory_stays_sublinear() {
    const ITEMS: usize = 250_000;
    let doc_bytes = WideXml::len(ITEMS);
    assert!(doc_bytes > 4 << 20, "need a multi-MB document: {doc_bytes}");

    let server = Server::new();
    let query = r#"transform copy $a := doc("db") modify do delete $a//v return $a"#;
    let ((), peak) = measure_peak(|| {
        let mut session = server.begin_stream(query).unwrap();
        let mut p = SaxParser::from_reader(WideXml::new(ITEMS));
        while let Some(ev) = p.next_event().unwrap() {
            session.feed(ev).unwrap();
        }
        session.begin_replay().unwrap();
        drop(p);
        let mut emitted = 0usize;
        let mut p = SaxParser::from_reader(WideXml::new(ITEMS));
        while let Some(ev) = p.next_event().unwrap() {
            // Drain each chunk immediately, as a network client would.
            emitted += session.replay(ev).unwrap().len();
        }
        let (tail, stats) = session.finish().unwrap();
        emitted += tail.len();
        // Every item survives as `<p/>` (4 bytes) after its `v` child
        // is deleted.
        assert!(
            emitted > ITEMS * 4,
            "output was actually produced: {emitted}"
        );
        assert_eq!(stats.elements as usize, 2 * ITEMS + 1);
        assert_eq!(stats.max_depth, 3, "wide document stays shallow");
    });
    assert!(
        peak < 2 << 20,
        "session peak allocation {peak} B is not O(depth·|p|) for a {doc_bytes} B document"
    );
    assert!(
        peak * 2 < doc_bytes,
        "session peak {peak} B not sublinear in document size {doc_bytes} B"
    );
    assert_eq!(server.store().active_snapshots(), 0);
}

/// The same differential check through the streaming session: its output
/// matches sequential `two_pass` byte-for-byte on a structured document.
#[test]
fn streaming_session_agrees_with_two_pass() {
    let xml = {
        let mut s = String::from("<r>");
        for i in 0..200 {
            s.push_str(&format!(
                "<a id=\"i{i}\"><b>{}</b><c>t{i}</c></a>",
                10 + (i % 20)
            ));
        }
        s.push_str("</r>");
        s
    };
    let doc = Document::parse(&xml).unwrap();
    for (path, op) in [
        ("//b[. = '15']", 0u8),
        ("r/a", 6),
        ("//c", 3),
        ("//a[b < 15]", 2),
    ] {
        let q = build_query(path, op);
        let expect = evaluate(&doc, &q, Method::TwoPass).unwrap().serialize();
        let _ = parse_path(path).unwrap();

        let server = Server::new();
        let mut session = server
            .begin_stream(&build_query_text("db", path, op))
            .unwrap();
        let mut p = SaxParser::from_str(&xml);
        while let Some(ev) = p.next_event().unwrap() {
            session.feed(ev).unwrap();
        }
        session.begin_replay().unwrap();
        let mut out = Vec::new();
        let mut p = SaxParser::from_str(&xml);
        while let Some(ev) = p.next_event().unwrap() {
            out.extend(session.replay(ev).unwrap());
        }
        let (tail, _) = session.finish().unwrap();
        out.extend(tail);
        assert_eq!(
            String::from_utf8(out).unwrap(),
            expect,
            "session deviates on {path} op {op}"
        );
    }
}
