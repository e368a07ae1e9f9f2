//! Lock-free service counters.
//!
//! Every counter is a relaxed atomic: the numbers are observability
//! data, not synchronization. The concurrency tests use them to prove
//! that cache hits really skip parse + NFA construction (the `compiles`
//! counter stays at the number of *distinct* queries while `cache_hits`
//! grows with request volume).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use xust_core::{Method, Sym};

/// A latency EWMA whose whole state — sample count and smoothed value —
/// lives in **one** atomic word, merged with a single CAS loop.
///
/// Multiple executor workers finishing requests for the same view report
/// concurrently. A read-modify-write over two separate fields (count +
/// value) loses updates under that race: two workers read the same old
/// state, both fold their sample in, and one fold vanishes — the sample
/// count drifts below the number of reports and the EWMA over- or
/// under-weights history. Packing `(count: u32, value: f32)` into one
/// `u64` and installing updates with `compare_exchange_weak` makes the
/// merge atomic: every report is folded exactly once, in *some* total
/// order (EWMA folds don't commute, but any interleaving is a valid
/// sample order — what matters is that none is lost).
#[derive(Debug, Default)]
pub struct EwmaCell {
    /// `(count as u64) << 32 | f32::to_bits(value)`.
    state: AtomicU64,
}

impl EwmaCell {
    const fn pack(count: u32, value: f32) -> u64 {
        ((count as u64) << 32) | value.to_bits() as u64
    }

    const fn unpack(state: u64) -> (u32, f32) {
        ((state >> 32) as u32, f32::from_bits(state as u32))
    }

    /// Folds one sample in atomically. `weight` is the new-sample weight
    /// in (0, 1]; the first sample installs itself directly. Returns the
    /// post-fold `(count, value)`.
    pub fn record(&self, sample: f32, weight: f32) -> (u32, f32) {
        let mut cur = ld(&self.state);
        loop {
            let (count, value) = Self::unpack(cur);
            let next_value = if count == 0 {
                sample
            } else {
                weight * sample + (1.0 - weight) * value
            };
            let next = Self::pack(count.saturating_add(1), next_value);
            match self
                .state
                .compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) // relaxed: failure ordering; the retry reloads
            {
                Ok(_) => return Self::unpack(next),
                Err(seen) => cur = seen,
            }
        }
    }

    /// `(count, value)` as of now; `None` before the first sample.
    pub fn get(&self) -> Option<(u32, f32)> {
        let (count, value) = Self::unpack(self.state.load(Ordering::Acquire));
        (count > 0).then_some((count, value))
    }
}

const N_METHODS: usize = Method::ALL.len();

fn method_index(m: Method) -> usize {
    Method::ALL
        .iter()
        .position(|&x| x == m)
        .expect("Method::ALL is exhaustive")
}

/// The protocol verb a request arrived under. One counter pair per
/// verb means a failed `UPDATE` and a failed `QUERY` are
/// distinguishable in `STATS`/`METRICS` (before this, both were just
/// `failures`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// `VIEW` — materialize a view.
    View,
    /// `QUERY` — answer a user query over a virtual view.
    Query,
    /// `TRANSFORM` — run an ad-hoc transform.
    Transform,
    /// `UPDATE` — live write through the update path.
    Update,
    /// `STREAM` — open a streaming transform session.
    Stream,
    /// `LOAD` — load or reload a document.
    Load,
    /// `REMOVE` — remove a document.
    Remove,
    /// `METRICS` — metrics exposition.
    Metrics,
    /// `TRACE` — recent/slowest request traces.
    Trace,
    /// `EXPLAIN` — plan report without execution.
    Explain,
    /// `ANALYZE` — registration-time static-analysis report.
    Analyze,
    /// Connection setup — not a wire verb; its error counter records
    /// clients dropped before the protocol loop started (e.g. a failed
    /// `try_clone` after accept), so `METRICS` sees every lost client.
    Conn,
}

impl Verb {
    /// Every verb, in fixed (index) order.
    pub const ALL: [Verb; 12] = [
        Verb::View,
        Verb::Query,
        Verb::Transform,
        Verb::Update,
        Verb::Stream,
        Verb::Load,
        Verb::Remove,
        Verb::Metrics,
        Verb::Trace,
        Verb::Explain,
        Verb::Analyze,
        Verb::Conn,
    ];

    /// Lower-case verb name, as rendered in `STATS` and `METRICS`.
    pub fn name(self) -> &'static str {
        match self {
            Verb::View => "view",
            Verb::Query => "query",
            Verb::Transform => "transform",
            Verb::Update => "update",
            Verb::Stream => "stream",
            Verb::Load => "load",
            Verb::Remove => "remove",
            Verb::Metrics => "metrics",
            Verb::Trace => "trace",
            Verb::Explain => "explain",
            Verb::Analyze => "analyze",
            Verb::Conn => "conn",
        }
    }

    /// This verb's position in [`Verb::ALL`] (for per-verb arrays).
    pub fn index(self) -> usize {
        Verb::ALL
            .iter()
            .position(|&v| v == self)
            .expect("Verb::ALL is exhaustive")
    }
}

impl std::fmt::Display for Verb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Request/error counters for one [`Verb`].
#[derive(Debug, Default)]
pub struct VerbCounters {
    /// Requests that arrived under this verb.
    pub requests: AtomicU64,
    /// Of those, how many returned an error.
    pub errors: AtomicU64,
}

/// Point-in-time read of one stats counter.
// relaxed: counters are independent monotone values; readers either
// tolerate staleness (snapshots, reports) or re-validate with a CAS.
fn ld(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
}

/// Counters for one [`crate::Server`].
#[derive(Debug, Default)]
pub struct ServeStats {
    /// Requests accepted (all kinds).
    pub requests: AtomicU64,
    /// Requests that returned an error.
    pub failures: AtomicU64,
    /// Prepared-cache hits (transform or composed query reused).
    pub cache_hits: AtomicU64,
    /// Prepared-cache misses (entry had to be built).
    pub cache_misses: AtomicU64,
    /// Transform parse + NFA compilations actually performed.
    pub compiles: AtomicU64,
    /// User-query compositions actually performed.
    pub compositions: AtomicU64,
    /// View materializations served.
    pub view_requests: AtomicU64,
    /// User queries answered against a virtual view.
    pub query_requests: AtomicU64,
    /// Ad-hoc transform executions.
    pub transform_requests: AtomicU64,
    /// Batched entry-point invocations.
    pub batches: AtomicU64,
    /// Items executed through batched entry points.
    pub batch_items: AtomicU64,
    /// Work-stealing events across batch executions.
    pub batch_steals: AtomicU64,
    /// Streaming sessions opened.
    pub stream_sessions: AtomicU64,
    /// Live `UPDATE` writes accepted (applied and installed).
    pub update_requests: AtomicU64,
    /// View-result cache entries retained across a write (delta applied
    /// in place, no recomputation).
    pub delta_retained: AtomicU64,
    /// View-result cache entries that failed the relevance test but
    /// were **patched in place** through their provenance maps instead
    /// of dropped (the third maintenance fate).
    pub delta_patched: AtomicU64,
    /// Result fragments spliced across all patch fates.
    pub patched_fragments: AtomicU64,
    /// View-result cache entries invalidated by a write (recomputed
    /// lazily on next request).
    pub delta_recomputed: AtomicU64,
    /// Intact write-ahead-log records replayed at attach time.
    pub wal_recovered: AtomicU64,
    /// WAL recoveries that found — and dropped — a torn tail frame
    /// (what a crash mid-append leaves behind).
    pub wal_truncations: AtomicU64,
    /// One-pass shared evaluations run: each counts a single document
    /// sweep that produced results for every view riding it (write-path
    /// recompute sweeps and grouped batch evaluations alike).
    pub shared_passes: AtomicU64,
    /// Views whose results were produced by a shared pass instead of a
    /// private per-view evaluation. `shared_pass_views /
    /// shared_passes` is the average factorisation width.
    pub shared_pass_views: AtomicU64,
    per_method: [AtomicU64; N_METHODS],
    per_verb: [VerbCounters; Verb::ALL.len()],
    /// Total busy time across requests, in microseconds.
    pub busy_micros: AtomicU64,
    /// Per-view latency EWMAs (µs), merged lock-free by [`EwmaCell`].
    /// The map itself is read-mostly: a view's cell is created once and
    /// then only its atomic word changes.
    view_latency: RwLock<HashMap<String, Arc<EwmaCell>>>,
    /// Per-view delta-maintenance outcomes: `(retained, recomputed)`.
    view_delta: RwLock<HashMap<String, Arc<DeltaCell>>>,
    /// Per-document delta-maintenance outcomes: `(retained,
    /// recomputed)` for writes *to that document*. With the result
    /// cache keyed by per-document versions, a document's counters move
    /// only when it is written — a hot writer shows up here alone, and
    /// its shard neighbours' rows staying at zero is the observable
    /// proof that neighbour invalidation is gone (there is no `stale`
    /// counter any more because there is no stale path).
    doc_delta: RwLock<HashMap<String, Arc<DeltaCell>>>,
    /// Per-document element-label histograms (`label → live count`),
    /// seeded when an in-memory document is (re)loaded and shifted
    /// incrementally by every applied write — the selectivity raw
    /// material `STATS` surfaces per document.
    // lock-order: leaf mutex — nothing else is ever taken while held.
    doc_labels: Mutex<HashMap<String, HashMap<Sym, i64>>>,
}

/// Per-view delta-maintenance counters.
#[derive(Debug, Default)]
pub struct DeltaCell {
    /// Writes this view's cached result survived (maintained in place).
    pub retained: AtomicU64,
    /// Writes this view's cached result absorbed through an in-place
    /// provenance patch (failed the relevance test, was not dropped).
    pub patched: AtomicU64,
    /// Result fragments spliced into this row's cached results (only
    /// per-document rows track this; per-view rows leave it at zero).
    pub patched_fragments: AtomicU64,
    /// Writes that invalidated this view's cached result.
    pub recomputed: AtomicU64,
}

/// New-sample weight for the per-view latency EWMA.
const VIEW_EWMA_WEIGHT: f32 = 0.25;

/// The shared get-or-create for the keyed counter maps: a read-lock
/// lookup on the hot path, falling back to a write-lock insert the
/// first time a key reports. Every keyed map in [`ServeStats`] goes
/// through here so the locking discipline lives in one place.
fn cell_of<T: Default>(map: &RwLock<HashMap<String, Arc<T>>>, key: &str) -> Arc<T> {
    if let Some(cell) = map.read().expect("stats lock poisoned").get(key) {
        return Arc::clone(cell);
    }
    let mut map = map.write().expect("stats lock poisoned");
    Arc::clone(map.entry(key.to_string()).or_default())
}

/// One histogram row in reporting order: count descending, then label
/// ascending (stable output for tests and operators alike).
fn sorted_labels(hist: &HashMap<Sym, i64>) -> Vec<(String, i64)> {
    let mut v: Vec<(String, i64)> = hist
        .iter()
        .map(|(l, &n)| (l.as_str().to_string(), n))
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

impl ServeStats {
    /// Folds one observed service latency for `view` into its EWMA.
    /// Safe (and lossless) to call from any number of executor workers
    /// at once — the merge is a single CAS loop per sample.
    pub fn record_view_latency(&self, view: &str, micros: f64) {
        cell_of(&self.view_latency, view).record(micros as f32, VIEW_EWMA_WEIGHT);
    }

    /// The latency EWMA for `view`: `(samples, micros)`, if sampled.
    pub fn view_latency(&self, view: &str) -> Option<(u32, f32)> {
        self.view_latency
            .read()
            .expect("stats lock poisoned")
            .get(view)
            .and_then(|c| c.get())
    }

    /// Records one delta-maintenance outcome for `view` (and the global
    /// totals): `retained == true` means the cached result survived the
    /// write, `false` that it was dropped for lazy recomputation.
    pub fn record_view_delta(&self, view: &str, retained: bool) {
        if retained {
            self.delta_retained.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        } else {
            self.delta_recomputed.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        }
        let cell = cell_of(&self.view_delta, view);
        if retained {
            cell.retained.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        } else {
            cell.recomputed.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        }
    }

    /// Records one patch-fate outcome for `view` (and the global
    /// total): the view's cached result failed the relevance test but
    /// was spliced in place through its provenance map.
    pub fn record_view_patched(&self, view: &str) {
        self.delta_patched.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        cell_of(&self.view_delta, view)
            .patched
            .fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
    }

    /// The delta counters for `view`: `(retained, patched, recomputed)`,
    /// if any write ever examined a cached result of this view.
    pub fn view_delta(&self, view: &str) -> Option<(u64, u64, u64)> {
        self.view_delta
            .read()
            .expect("stats lock poisoned")
            .get(view)
            .map(|c| (ld(&c.retained), ld(&c.patched), ld(&c.recomputed)))
    }

    /// Records one write's maintenance outcome for the *written*
    /// document: how many of its cached entries were retained, patched
    /// in place (and with how many spliced fragments), and dropped for
    /// recomputation. Called once per write (even when every count is
    /// zero — the row proves the write was examined).
    pub fn record_doc_delta(
        &self,
        doc: &str,
        retained: u64,
        patched: u64,
        patched_fragments: u64,
        recomputed: u64,
    ) {
        let cell = cell_of(&self.doc_delta, doc);
        cell.retained.fetch_add(retained, Ordering::Relaxed); // relaxed: monotone counter; no data published
        cell.patched.fetch_add(patched, Ordering::Relaxed); // relaxed: monotone counter; no data published
        cell.patched_fragments
            .fetch_add(patched_fragments, Ordering::Relaxed); // relaxed: monotone counter; no data published
        cell.recomputed.fetch_add(recomputed, Ordering::Relaxed); // relaxed: monotone counter; no data published
    }

    /// Drops `doc`'s per-document delta row and label histogram. Called
    /// when the document is removed from the store: without this, a
    /// server with document-name churn (load → write → remove cycles)
    /// accumulates one permanent row per ever-written name — unbounded
    /// memory and an ever-growing `STATS` reply. A re-created name
    /// starts a fresh row (its versions are a new lineage; so are its
    /// counters).
    pub fn forget_doc(&self, doc: &str) {
        self.doc_delta
            .write()
            .expect("stats lock poisoned")
            .remove(doc);
        self.doc_labels
            .lock()
            .expect("stats lock poisoned")
            .remove(doc);
    }

    /// The delta counters for writes to `doc`: `(retained, patched,
    /// patched_fragments, recomputed)`, if `doc` was ever written
    /// through the update path.
    pub fn doc_delta(&self, doc: &str) -> Option<(u64, u64, u64, u64)> {
        self.doc_delta
            .read()
            .expect("stats lock poisoned")
            .get(doc)
            .map(|c| {
                (
                    ld(&c.retained),
                    ld(&c.patched),
                    ld(&c.patched_fragments),
                    ld(&c.recomputed),
                )
            })
    }

    /// Installs `doc`'s label histogram wholesale — called when an
    /// in-memory document is loaded or reloaded (a reload is an
    /// unbounded delta; the seed is the new ground truth).
    pub fn seed_doc_labels(&self, doc: &str, hist: HashMap<Sym, i64>) {
        self.doc_labels
            .lock()
            .expect("stats lock poisoned")
            .insert(doc.to_string(), hist);
    }

    /// Folds one write's label-count shift into `doc`'s histogram;
    /// labels whose count returns to zero are dropped from the row. A
    /// shift for a document that was never seeded (file-backed, or
    /// racing a removal) is discarded — there is no ground truth to
    /// shift.
    pub fn shift_doc_labels(&self, doc: &str, delta: &HashMap<Sym, i64>) {
        let mut map = self.doc_labels.lock().expect("stats lock poisoned");
        let Some(hist) = map.get_mut(doc) else {
            return;
        };
        for (&label, &d) in delta {
            if d == 0 {
                continue;
            }
            let slot = hist.entry(label).or_insert(0);
            *slot += d;
            if *slot == 0 {
                hist.remove(&label);
            }
        }
    }

    /// `doc`'s element-label histogram, sorted by count descending then
    /// label ascending — `None` when the document was never seeded.
    pub fn doc_labels(&self, doc: &str) -> Option<Vec<(String, i64)>> {
        let map = self.doc_labels.lock().expect("stats lock poisoned");
        map.get(doc).map(sorted_labels)
    }

    /// Records one request under `verb`; `ok == false` also bumps the
    /// verb's error counter.
    pub fn record_verb(&self, verb: Verb, ok: bool) {
        let cell = &self.per_verb[verb.index()];
        cell.requests.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        if !ok {
            cell.errors.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        }
    }

    /// `(requests, errors)` recorded for `verb`.
    pub fn verb_counts(&self, verb: Verb) -> (u64, u64) {
        let cell = &self.per_verb[verb.index()];
        (ld(&cell.requests), ld(&cell.errors))
    }

    /// Records one execution with `method`.
    pub fn count_method(&self, m: Method) {
        self.per_method[method_index(m)].fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
    }

    /// Executions recorded for `method`.
    pub fn method_count(&self, m: Method) -> u64 {
        ld(&self.per_method[method_index(m)])
    }

    /// Takes a consistent-enough snapshot for reporting.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: ld(&self.requests),
            failures: ld(&self.failures),
            cache_hits: ld(&self.cache_hits),
            cache_misses: ld(&self.cache_misses),
            compiles: ld(&self.compiles),
            compositions: ld(&self.compositions),
            view_requests: ld(&self.view_requests),
            query_requests: ld(&self.query_requests),
            transform_requests: ld(&self.transform_requests),
            batches: ld(&self.batches),
            batch_items: ld(&self.batch_items),
            batch_steals: ld(&self.batch_steals),
            interned_labels: xust_intern::Interner::global().len(),
            stream_sessions: ld(&self.stream_sessions),
            update_requests: ld(&self.update_requests),
            delta_retained: ld(&self.delta_retained),
            delta_patched: ld(&self.delta_patched),
            patched_fragments: ld(&self.patched_fragments),
            delta_recomputed: ld(&self.delta_recomputed),
            wal_recovered: ld(&self.wal_recovered),
            wal_truncations: ld(&self.wal_truncations),
            shared_passes: ld(&self.shared_passes),
            shared_pass_views: ld(&self.shared_pass_views),
            // The result cache is its own source of truth for hit/miss
            // counts; `Server::stats` overlays them (a bare `ServeStats`
            // has no cache attached).
            result_hits: 0,
            result_misses: 0,
            busy_micros: ld(&self.busy_micros),
            per_method: Method::ALL.map(|m| (m, self.method_count(m))),
            verbs: {
                let mut v: Vec<(Verb, u64, u64)> = Verb::ALL
                    .iter()
                    .map(|&verb| {
                        let (r, e) = self.verb_counts(verb);
                        (verb, r, e)
                    })
                    .filter(|&(_, r, e)| r > 0 || e > 0)
                    .collect();
                v.sort_by(|a, b| a.0.name().cmp(b.0.name()));
                v
            },
            view_delta: {
                let map = self.view_delta.read().expect("stats lock poisoned");
                let mut v: Vec<(String, u64, u64, u64)> = map
                    .iter()
                    .map(|(k, c)| {
                        (
                            k.clone(),
                            ld(&c.retained),
                            ld(&c.patched),
                            ld(&c.recomputed),
                        )
                    })
                    .collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            },
            doc_delta: {
                let map = self.doc_delta.read().expect("stats lock poisoned");
                let mut v: Vec<(String, u64, u64, u64, u64)> = map
                    .iter()
                    .map(|(k, c)| {
                        (
                            k.clone(),
                            ld(&c.retained),
                            ld(&c.patched),
                            ld(&c.patched_fragments),
                            ld(&c.recomputed),
                        )
                    })
                    .collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            },
            doc_labels: {
                let map = self.doc_labels.lock().expect("stats lock poisoned");
                let mut v: Vec<(String, Vec<(String, i64)>)> = map
                    .iter()
                    .map(|(doc, hist)| (doc.clone(), sorted_labels(hist)))
                    .collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            },
            view_latency: {
                let map = self.view_latency.read().expect("stats lock poisoned");
                let mut v: Vec<(String, u32, f32)> = map
                    .iter()
                    .filter_map(|(k, c)| c.get().map(|(n, e)| (k.clone(), n, e)))
                    .collect();
                v.sort_by(|a, b| a.0.cmp(&b.0));
                v
            },
        }
    }
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone)]
pub struct StatsSnapshot {
    /// Requests accepted.
    pub requests: u64,
    /// Requests that errored.
    pub failures: u64,
    /// Prepared-cache hits.
    pub cache_hits: u64,
    /// Prepared-cache misses.
    pub cache_misses: u64,
    /// Parse + NFA compilations performed.
    pub compiles: u64,
    /// Compositions performed.
    pub compositions: u64,
    /// View materializations.
    pub view_requests: u64,
    /// Virtual-view queries.
    pub query_requests: u64,
    /// Ad-hoc transforms.
    pub transform_requests: u64,
    /// Batch invocations.
    pub batches: u64,
    /// Items executed through batched entry points.
    pub batch_items: u64,
    /// Work-stealing events across batch executions.
    pub batch_steals: u64,
    /// Distinct labels in the shared interner at snapshot time — the
    /// vocabulary-growth gauge an operator watches when untrusted
    /// documents can mint fresh element/attribute names (the interner
    /// never shrinks; see DESIGN.md "Interning").
    pub interned_labels: usize,
    /// Streaming sessions opened.
    pub stream_sessions: u64,
    /// Live `UPDATE` writes accepted.
    pub update_requests: u64,
    /// View-result cache entries retained across writes (maintained in
    /// place — the delta-aware win).
    pub delta_retained: u64,
    /// Entries that failed the relevance test but were patched in place
    /// through their provenance maps (the third maintenance fate).
    pub delta_patched: u64,
    /// Result fragments spliced across all patch fates.
    pub patched_fragments: u64,
    /// View-result cache entries invalidated by writes.
    pub delta_recomputed: u64,
    /// Intact WAL records replayed at attach time.
    pub wal_recovered: u64,
    /// WAL recoveries that dropped a torn tail.
    pub wal_truncations: u64,
    /// One-pass shared evaluations run (factorised sweeps).
    pub shared_passes: u64,
    /// Views whose results rode a shared pass.
    pub shared_pass_views: u64,
    /// View-result cache hits (sourced from
    /// [`ViewResultCache`](crate::ViewResultCache) by `Server::stats`).
    pub result_hits: u64,
    /// View-result cache misses (sourced likewise).
    pub result_misses: u64,
    /// Total busy time (µs).
    pub busy_micros: u64,
    /// Executions per evaluation method.
    pub per_method: [(Method, u64); N_METHODS],
    /// Per-verb request/error counts: `(verb, requests, errors)`,
    /// sorted by verb name, verbs with no traffic omitted.
    pub verbs: Vec<(Verb, u64, u64)>,
    /// Per-view latency EWMAs: `(view, samples, micros)`, sorted by view.
    pub view_latency: Vec<(String, u32, f32)>,
    /// Per-view delta outcomes: `(view, retained, patched,
    /// recomputed)`, sorted.
    pub view_delta: Vec<(String, u64, u64, u64)>,
    /// Per-document delta outcomes for writes to that document: `(doc,
    /// retained, patched, patched_fragments, recomputed)`, sorted. A
    /// document appears here iff it was written — neighbour rows never
    /// move.
    pub doc_delta: Vec<(String, u64, u64, u64, u64)>,
    /// Per-document element-label histograms: `(doc, [(label, count)])`
    /// sorted by document, rows sorted by count descending then label.
    /// Only seeded (in-memory) documents appear.
    pub doc_labels: Vec<(String, Vec<(String, i64)>)>,
}

impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "requests={} failures={} views={} queries={} transforms={} batches={}",
            self.requests,
            self.failures,
            self.view_requests,
            self.query_requests,
            self.transform_requests,
            self.batches
        )?;
        writeln!(
            f,
            "cache: hits={} misses={} compiles={} compositions={} interned_labels={}",
            self.cache_hits,
            self.cache_misses,
            self.compiles,
            self.compositions,
            self.interned_labels
        )?;
        writeln!(
            f,
            "batches: runs={} items={} steals={} stream_sessions={}",
            self.batches, self.batch_items, self.batch_steals, self.stream_sessions
        )?;
        writeln!(
            f,
            "updates: accepted={} delta_retained={} delta_patched={} patched_fragments={} delta_recomputed={} result_hits={} result_misses={}",
            self.update_requests,
            self.delta_retained,
            self.delta_patched,
            self.patched_fragments,
            self.delta_recomputed,
            self.result_hits,
            self.result_misses
        )?;
        writeln!(
            f,
            "wal: recovered={} truncations={}",
            self.wal_recovered, self.wal_truncations
        )?;
        writeln!(
            f,
            "shared: passes={} shared_pass_views={}",
            self.shared_passes, self.shared_pass_views
        )?;
        write!(f, "methods:")?;
        for (m, n) in &self.per_method {
            if *n > 0 {
                write!(f, " {m}={n}")?;
            }
        }
        write!(f, " busy={}µs", self.busy_micros)?;
        for (view, n, ewma) in &self.view_latency {
            write!(f, "\nview {view}: ewma={ewma:.0}µs samples={n}")?;
        }
        for (view, retained, patched, recomputed) in &self.view_delta {
            write!(
                f,
                "\nview {view}: delta_retained={retained} delta_patched={patched} delta_recomputed={recomputed}"
            )?;
        }
        for (doc, retained, patched, fragments, recomputed) in &self.doc_delta {
            write!(
                f,
                "\ndoc {doc}: delta_retained={retained} delta_patched={patched} patched_fragments={fragments} delta_recomputed={recomputed}"
            )?;
        }
        for (doc, labels) in &self.doc_labels {
            write!(f, "\ndoc {doc} labels:")?;
            // The busiest labels carry the selectivity signal; a long
            // tail of one-offs would drown the reply.
            for (label, count) in labels.iter().take(12) {
                write!(f, " {label}={count}")?;
            }
            if labels.len() > 12 {
                write!(f, " (+{} more)", labels.len() - 12)?;
            }
        }
        for (verb, requests, errors) in &self.verbs {
            write!(f, "\nverb {verb}: requests={requests} errors={errors}")?;
        }
        Ok(())
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl StatsSnapshot {
    /// Renders the snapshot as one JSON object (stable key order, no
    /// trailing newline). The workspace deliberately has no serde; the
    /// shape is flat enough that hand-rolling stays honest.
    pub fn render_json(&self) -> String {
        use std::fmt::Write;
        let mut s = String::with_capacity(1024);
        s.push('{');
        let _ = write!(
            s,
            "\"requests\":{},\"failures\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"compiles\":{},\"compositions\":{},\"view_requests\":{},\"query_requests\":{},\
             \"transform_requests\":{},\"batches\":{},\"batch_items\":{},\"batch_steals\":{},\
             \"interned_labels\":{},\"stream_sessions\":{},\"update_requests\":{},\
             \"delta_retained\":{},\"delta_patched\":{},\"patched_fragments\":{},\
             \"delta_recomputed\":{},\"wal_recovered\":{},\"wal_truncations\":{},\
             \"shared_passes\":{},\
             \"shared_pass_views\":{},\"result_hits\":{},\
             \"result_misses\":{},\"busy_micros\":{}",
            self.requests,
            self.failures,
            self.cache_hits,
            self.cache_misses,
            self.compiles,
            self.compositions,
            self.view_requests,
            self.query_requests,
            self.transform_requests,
            self.batches,
            self.batch_items,
            self.batch_steals,
            self.interned_labels,
            self.stream_sessions,
            self.update_requests,
            self.delta_retained,
            self.delta_patched,
            self.patched_fragments,
            self.delta_recomputed,
            self.wal_recovered,
            self.wal_truncations,
            self.shared_passes,
            self.shared_pass_views,
            self.result_hits,
            self.result_misses,
            self.busy_micros
        );
        s.push_str(",\"per_method\":[");
        let mut first = true;
        for (m, n) in &self.per_method {
            if *n == 0 {
                continue;
            }
            if !first {
                s.push(',');
            }
            first = false;
            let _ = write!(
                s,
                "{{\"method\":\"{}\",\"count\":{n}}}",
                json_escape(&m.to_string())
            );
        }
        s.push_str("],\"verbs\":[");
        for (i, (verb, requests, errors)) in self.verbs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"verb\":\"{verb}\",\"requests\":{requests},\"errors\":{errors}}}"
            );
        }
        s.push_str("],\"view_latency\":[");
        for (i, (view, n, ewma)) in self.view_latency.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"view\":\"{}\",\"samples\":{n},\"ewma_micros\":{:.1}}}",
                json_escape(view),
                ewma
            );
        }
        s.push_str("],\"view_delta\":[");
        for (i, (view, retained, patched, recomputed)) in self.view_delta.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"view\":\"{}\",\"retained\":{retained},\"patched\":{patched},\
                 \"recomputed\":{recomputed}}}",
                json_escape(view)
            );
        }
        s.push_str("],\"doc_delta\":[");
        for (i, (doc, retained, patched, fragments, recomputed)) in
            self.doc_delta.iter().enumerate()
        {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"doc\":\"{}\",\"retained\":{retained},\"patched\":{patched},\
                 \"patched_fragments\":{fragments},\"recomputed\":{recomputed}}}",
                json_escape(doc)
            );
        }
        s.push_str("],\"doc_labels\":[");
        for (i, (doc, labels)) in self.doc_labels.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{{\"doc\":\"{}\",\"labels\":[", json_escape(doc));
            for (j, (label, count)) in labels.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let _ = write!(
                    s,
                    "{{\"label\":\"{}\",\"count\":{count}}}",
                    json_escape(label)
                );
            }
            s.push_str("]}");
        }
        s.push_str("]}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xust_core::intern;

    #[test]
    fn counters_roundtrip() {
        let s = ServeStats::default();
        s.requests.fetch_add(3, Ordering::Relaxed); // relaxed: monotone counter; no data published
        s.count_method(Method::TwoPass);
        s.count_method(Method::TwoPass);
        s.count_method(Method::Naive);
        let snap = s.snapshot();
        assert_eq!(snap.requests, 3);
        assert_eq!(s.method_count(Method::TwoPass), 2);
        assert_eq!(s.method_count(Method::Naive), 1);
        assert_eq!(s.method_count(Method::TopDown), 0);
        let text = snap.to_string();
        assert!(text.contains("requests=3"));
        assert!(text.contains("TD-BU=2"));
    }

    #[test]
    fn ewma_single_thread_matches_reference_fold() {
        let cell = EwmaCell::default();
        let samples = [100.0f32, 50.0, 200.0, 10.0, 400.0];
        let mut reference = None;
        for &s in &samples {
            cell.record(s, 0.25);
            reference = Some(match reference {
                None => s,
                Some(prev) => 0.25 * s + 0.75 * prev,
            });
        }
        let (n, v) = cell.get().unwrap();
        assert_eq!(n, samples.len() as u32);
        assert!((v - reference.unwrap()).abs() < 1e-3, "{v}");
    }

    /// Regression test for the atomic merge: with the packed-word CAS
    /// loop, concurrent reporters can never lose a fold — the sample
    /// count equals the number of reports exactly. (A two-field
    /// read-modify-write drops folds under this hammering.)
    #[test]
    fn ewma_concurrent_merge_loses_nothing() {
        use std::sync::Barrier;
        const THREADS: usize = 16;
        const PER_THREAD: u32 = 2_000;
        let cell = Arc::new(EwmaCell::default());
        let barrier = Arc::new(Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let cell = Arc::clone(&cell);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        // Samples confined to [100, 300]: the EWMA must
                        // stay inside the sample hull whatever the
                        // interleaving.
                        let sample = 100.0 + ((t as u32 * 7 + i) % 3) as f32 * 100.0;
                        cell.record(sample, 0.25);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        let (count, value) = cell.get().unwrap();
        assert_eq!(
            count,
            THREADS as u32 * PER_THREAD,
            "every concurrent fold must land exactly once"
        );
        assert!(
            (100.0..=300.0).contains(&value),
            "ewma escaped hull: {value}"
        );
    }

    #[test]
    fn per_view_delta_counters_roll_up() {
        let s = ServeStats::default();
        assert!(s.view_delta("public").is_none());
        s.record_view_delta("public", true);
        s.record_view_delta("public", true);
        s.record_view_delta("public", false);
        s.record_view_delta("audit", false);
        s.record_view_patched("public");
        assert_eq!(s.view_delta("public"), Some((2, 1, 1)));
        assert_eq!(s.view_delta("audit"), Some((0, 0, 1)));
        let snap = s.snapshot();
        assert_eq!(snap.delta_retained, 2);
        assert_eq!(snap.delta_patched, 1);
        assert_eq!(snap.delta_recomputed, 2);
        assert_eq!(
            snap.view_delta,
            vec![("audit".into(), 0, 0, 1), ("public".into(), 2, 1, 1)]
        );
        let text = snap.to_string();
        assert!(text.contains("delta_retained=2"));
        assert!(
            text.contains("view public: delta_retained=2 delta_patched=1 delta_recomputed=1"),
            "{text}"
        );
    }

    #[test]
    fn per_doc_delta_counters_roll_up() {
        let s = ServeStats::default();
        assert!(s.doc_delta("hot").is_none());
        s.record_doc_delta("hot", 3, 1, 4, 1);
        s.record_doc_delta("hot", 2, 0, 0, 0);
        s.record_doc_delta("cold", 0, 0, 0, 0);
        assert_eq!(s.doc_delta("hot"), Some((5, 1, 4, 1)));
        assert_eq!(s.doc_delta("cold"), Some((0, 0, 0, 0)));
        assert!(
            s.doc_delta("neighbour").is_none(),
            "never-written docs have no row"
        );
        let snap = s.snapshot();
        assert_eq!(
            snap.doc_delta,
            vec![("cold".into(), 0, 0, 0, 0), ("hot".into(), 5, 1, 4, 1)]
        );
        assert!(snap.to_string().contains(
            "doc hot: delta_retained=5 delta_patched=1 patched_fragments=4 delta_recomputed=1"
        ));
        // Removing a document drops its row; a re-created name starts
        // a fresh lineage of counters.
        s.forget_doc("hot");
        assert!(s.doc_delta("hot").is_none());
        s.record_doc_delta("hot", 1, 0, 0, 0);
        assert_eq!(s.doc_delta("hot"), Some((1, 0, 0, 0)));
    }

    #[test]
    fn per_verb_counters_roll_up_sorted() {
        let s = ServeStats::default();
        assert_eq!(s.verb_counts(Verb::View), (0, 0));
        s.record_verb(Verb::View, true);
        s.record_verb(Verb::View, false);
        s.record_verb(Verb::Update, true);
        assert_eq!(s.verb_counts(Verb::View), (2, 1));
        assert_eq!(s.verb_counts(Verb::Update), (1, 0));
        let snap = s.snapshot();
        // Sorted by verb name; untouched verbs omitted.
        assert_eq!(snap.verbs, vec![(Verb::Update, 1, 0), (Verb::View, 2, 1)]);
        let text = snap.to_string();
        assert!(text.contains("verb view: requests=2 errors=1"), "{text}");
        assert!(text.contains("verb update: requests=1 errors=0"), "{text}");
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let s = ServeStats::default();
        s.requests.fetch_add(2, Ordering::Relaxed); // relaxed: monotone counter; no data published
        s.count_method(Method::TopDown);
        s.record_verb(Verb::Query, true);
        s.record_view_latency("pub\"lic", 120.0);
        s.record_view_delta("public", true);
        s.record_doc_delta("db", 1, 1, 2, 0);
        s.seed_doc_labels("db", HashMap::from([(intern("person"), 3)]));
        let json = s.snapshot().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"requests\":2"), "{json}");
        assert!(
            json.contains("{\"verb\":\"query\",\"requests\":1,\"errors\":0}"),
            "{json}"
        );
        assert!(json.contains("\"view\":\"pub\\\"lic\""), "escaped: {json}");
        assert!(
            json.contains(
                "{\"doc\":\"db\",\"retained\":1,\"patched\":1,\
                 \"patched_fragments\":2,\"recomputed\":0}"
            ),
            "{json}"
        );
        assert!(
            json.contains("{\"doc\":\"db\",\"labels\":[{\"label\":\"person\",\"count\":3}]}"),
            "{json}"
        );
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn doc_label_histogram_shifts_and_clamps() {
        let s = ServeStats::default();
        assert!(s.doc_labels("db").is_none());
        // Shifts against an unseeded doc are discarded: without a seed
        // baseline the counts would be deltas, not a histogram.
        s.shift_doc_labels("db", &HashMap::from([(intern("person"), 1)]));
        assert!(s.doc_labels("db").is_none());
        s.seed_doc_labels(
            "db",
            HashMap::from([(intern("person"), 2), (intern("item"), 5)]),
        );
        s.shift_doc_labels(
            "db",
            &HashMap::from([(intern("person"), -2), (intern("open_auction"), 1)]),
        );
        // Zero-count keys are dropped; new keys appear; sort is count
        // desc, then label asc.
        assert_eq!(
            s.doc_labels("db").unwrap(),
            vec![("item".into(), 5), ("open_auction".into(), 1)]
        );
        let snap = s.snapshot();
        assert_eq!(snap.doc_labels.len(), 1);
        let text = snap.to_string();
        assert!(text.contains("doc db labels:"), "{text}");
        assert!(text.contains("item=5"), "{text}");
        s.forget_doc("db");
        assert!(s.doc_labels("db").is_none());
    }

    #[test]
    fn per_view_latency_rolls_up_into_snapshots() {
        let s = ServeStats::default();
        assert!(s.view_latency("public").is_none());
        s.record_view_latency("public", 100.0);
        s.record_view_latency("public", 100.0);
        s.record_view_latency("audit", 900.0);
        let (n, v) = s.view_latency("public").unwrap();
        assert_eq!(n, 2);
        assert!((v - 100.0).abs() < 1e-3);
        let snap = s.snapshot();
        assert_eq!(snap.view_latency.len(), 2);
        assert_eq!(snap.view_latency[0].0, "audit");
        assert!(snap.to_string().contains("view public: ewma=100µs"));
    }
}
