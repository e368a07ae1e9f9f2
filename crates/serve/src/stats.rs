//! The serve counters: one table, three renderings.
//!
//! Every scalar the server reports is declared once, as one row of the
//! `counter_table!` invocation below: its field name, its `STATS`
//! position (`section.key`, the name `xbench` reads), its
//! JSON key, its Prometheus name and kind, and one help line. The macro
//! expands the rows into the [`ServeStats`] atomics, the
//! [`StatsSnapshot`] fields and the snapshot copy, and into
//! [`SCALARS`]. Keyed families — per method, per recompute reason, per
//! view, per document, per verb, per prepared cache — are the rows of
//! [`FAMILIES`]. The three renderers iterate those two tables and
//! nothing else: `STATS` (the snapshot's `Display`),
//! [`StatsSnapshot::render_json`] and
//! [`StatsSnapshot::render_prometheus`]. A new counter is a new row;
//! no renderer changes. An empty `STATS` or JSON key keeps a row out of
//! that rendering (the server-wide gauges appear in `METRICS` only).
//!
//! Every counter is a relaxed atomic: the numbers are observability
//! data, not synchronization. The concurrency tests use them to prove
//! that cache hits really skip parse + NFA construction (the `compiles`
//! counter stays at the number of *distinct* queries while `cache_hits`
//! grows with request volume).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use xust_core::Method;

use crate::viewcache::Fallback;
use Val::{F, N};

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

/// Per-view and per-document delta-maintenance counters.
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

/// Point-in-time read of one stats counter.
// relaxed: counters are independent monotone values; readers either
// tolerate staleness (snapshots, reports) or re-validate with a CAS.
fn ld(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
}

/// Adds `by` to a monotone counter (the serve crate's one counter bump).
pub(crate) fn bump(counter: &AtomicU64, by: u64) {
    counter.fetch_add(by, Ordering::Relaxed); // relaxed: monotone counter; no data published
}

/// How Prometheus types a series (its `# TYPE` line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A monotone total.
    Counter,
    /// A point-in-time level.
    Gauge,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
        }
    }
}

/// One scalar row of the counter table.
#[derive(Debug, Clone, Copy)]
pub struct Scalar {
    /// `STATS` position as `section.key`; a key with no section sits on
    /// the first line, an empty string keeps the row out of `STATS`.
    pub stats: &'static str,
    /// Suffix `STATS` prints after the value.
    pub unit: &'static str,
    /// JSON key (empty: not in the JSON).
    pub json: &'static str,
    /// Prometheus name, without the `xust_` prefix.
    pub prom: &'static str,
    /// Prometheus kind.
    pub kind: Kind,
    /// The `# HELP` line.
    pub help: &'static str,
    /// Reads the row's value out of a snapshot.
    pub get: fn(&StatsSnapshot) -> u64,
}

/// Declares every counter. `atomic` rows are [`ServeStats`] atomics
/// copied by [`ServeStats::snapshot`]; `filled` rows are snapshot fields
/// the snapshot's producer fills (the interner gauge here, the
/// result-cache and server-wide gauges in `Server::stats`). Scalar row
/// grammar: `field: Kind "stats.key" ["unit"], "json_key", "prom_name",
/// "help";`. A `keyed` family is a header — `STATS` placement, JSON
/// array, key label, sparseness, and the function reading its rows out
/// of a snapshot — over one row per value column: `"stats_key"
/// ["unit"], "json_key", "prom_name", Kind, "help";`.
macro_rules! counter_table {
    (
        atomic { $( $a:ident: $ak:ident $as:literal $($au:literal)?, $aj:literal, $ap:literal, $ah:literal; )* }
        filled { $( $f:ident: $fk:ident $fs:literal, $fj:literal, $fp:literal, $fh:literal; )* }
        keyed { $(
            $text:expr, $json:literal, $label:literal, sparse: $sparse:literal, $rows:expr => {
                $( $cs:literal $($cu:literal)?, $cj:literal, $cp:literal, $ck:ident, $ch:literal; )*
            }
        )* }
    ) => {
        /// Counters for one [`crate::Server`]: one atomic per `atomic`
        /// row of the counter table, plus the keyed families.
        #[derive(Debug, Default)]
        pub struct ServeStats {
            $( #[doc = $ah] pub $a: AtomicU64, )*
            per_method: [AtomicU64; N_METHODS],
            per_verb: [VerbCounters; Verb::ALL.len()],
            fallbacks: [AtomicU64; Fallback::ALL.len()],
            /// Per-view latency EWMAs (µs), merged lock-free by
            /// [`EwmaCell`]. The map itself is read-mostly: a view's
            /// cell is created once and then only its atomic word
            /// changes.
            view_latency: RwLock<HashMap<String, Arc<EwmaCell>>>,
            view_delta: RwLock<HashMap<String, Arc<DeltaCell>>>,
            /// Per-document outcomes for writes *to that document*. With
            /// the result cache keyed by per-document versions, a
            /// document's row moves only when it is written — a hot
            /// writer shows up here alone, and its shard neighbours'
            /// rows staying absent is the observable proof that
            /// neighbour invalidation is gone.
            doc_delta: RwLock<HashMap<String, Arc<DeltaCell>>>,
        }

        /// A point-in-time copy of [`ServeStats`], plus the gauges
        /// `Server::stats` fills: one field per counter-table row.
        #[derive(Debug, Clone)]
        pub struct StatsSnapshot {
            $( #[doc = $ah] pub $a: u64, )*
            $( #[doc = $fh] pub $f: u64, )*
            /// Executions per evaluation method.
            pub per_method: [(Method, u64); N_METHODS],
            /// Recomputed cache entries per [`Fallback`] reason.
            pub recompute_fallbacks: [(Fallback, u64); Fallback::ALL.len()],
            /// Per-view latency EWMAs: `(view, samples, micros)`, sorted
            /// by view.
            pub view_latency: Vec<(String, u32, f32)>,
            /// Per-view delta outcomes: `(view, retained, patched,
            /// recomputed)`, sorted.
            pub view_delta: Vec<(String, u64, u64, u64)>,
            /// Per-document delta outcomes for writes to that document:
            /// `(doc, retained, patched, patched_fragments, recomputed)`,
            /// sorted. A document appears here iff it was written —
            /// neighbour rows never move.
            pub doc_delta: Vec<(String, u64, u64, u64, u64)>,
            /// Per-verb request/error counts: `(verb, requests,
            /// errors)` for every verb, sorted by verb name.
            pub verbs: Vec<(Verb, u64, u64)>,
            /// Prepared caches: `(cache, [entries, capacity, hits,
            /// misses, evictions])` (filled by `Server::stats`).
            pub prepared_caches: Vec<(&'static str, [u64; 5])>,
        }

        impl ServeStats {
            /// Takes a consistent-enough snapshot for reporting.
            /// `filled` rows other than the interner gauge read zero
            /// until the server fills them.
            pub fn snapshot(&self) -> StatsSnapshot {
                let mut s = StatsSnapshot {
                    $( $a: ld(&self.$a), )*
                    $( $f: 0, )*
                    per_method: Method::ALL.map(|m| (m, self.method_count(m))),
                    recompute_fallbacks: Fallback::ALL.map(|r| (r, self.fallback_count(r))),
                    view_latency: sorted_rows(&self.view_latency, |k, c| {
                        c.get().map(|(n, e)| (k, n, e))
                    }),
                    view_delta: sorted_rows(&self.view_delta, |k, c| {
                        Some((k, ld(&c.retained), ld(&c.patched), ld(&c.recomputed)))
                    }),
                    doc_delta: sorted_rows(&self.doc_delta, |k, c| {
                        Some((
                            k,
                            ld(&c.retained),
                            ld(&c.patched),
                            ld(&c.patched_fragments),
                            ld(&c.recomputed),
                        ))
                    }),
                    verbs: {
                        let mut v: Vec<(Verb, u64, u64)> = Verb::ALL
                            .iter()
                            .map(|&verb| {
                                let (r, e) = self.verb_counts(verb);
                                (verb, r, e)
                            })
                            .collect();
                        v.sort_by_key(|row| row.0.name());
                        v
                    },
                    prepared_caches: Vec::new(),
                };
                s.interned_labels = xust_intern::Interner::global().len() as u64;
                s
            }
        }

        /// The scalar rows of the counter table, in table order.
        pub const SCALARS: &[Scalar] = &[
            $( Scalar {
                stats: $as,
                unit: concat!("" $(, $au)?),
                json: $aj,
                prom: $ap,
                kind: Kind::$ak,
                help: $ah,
                get: |s| s.$a,
            }, )*
            $( Scalar {
                stats: $fs,
                unit: "",
                json: $fj,
                prom: $fp,
                kind: Kind::$fk,
                help: $fh,
                get: |s| s.$f,
            }, )*
        ];

        /// The keyed families of the counter table, in rendering order.
        pub const FAMILIES: &[Family] = &[ $( Family {
            text: $text,
            json: $json,
            label: $label,
            sparse: $sparse,
            cols: &[ $( Col {
                stats: $cs,
                unit: concat!("" $(, $cu)?),
                json: $cj,
                prom: $cp,
                kind: Kind::$ck,
                help: $ch,
            }, )* ],
            rows: $rows,
        }, )* ];
    };
}

counter_table! {
    atomic {
        requests: Counter "requests", "requests", "requests_total", "Requests accepted (all kinds).";
        failures: Counter "failures", "failures", "failures_total", "Requests that returned an error.";
        view_requests: Counter "views", "view_requests", "view_requests_total", "View materializations served.";
        query_requests: Counter "queries", "query_requests", "query_requests_total", "User queries answered against a virtual view.";
        transform_requests: Counter "transforms", "transform_requests", "transform_requests_total", "Ad-hoc transform executions.";
        cache_hits: Counter "cache.hits", "cache_hits", "prepared_cache_hits_total", "Prepared-cache hits (transform or composed query reused).";
        cache_misses: Counter "cache.misses", "cache_misses", "prepared_cache_misses_total", "Prepared-cache misses (entry had to be built).";
        compiles: Counter "cache.compiles", "compiles", "compiles_total", "Transform parse + NFA compilations performed.";
        compositions: Counter "cache.compositions", "compositions", "compositions_total", "User-query compositions performed.";
        serialized_builds: Counter "cache.serialized_builds", "serialized_builds", "serialized_builds_total", "Serialized indexes built (at most one per in-memory document version, by its second TRANSFORM).";
        batches: Counter "batches.runs", "batches", "batches_total", "Batched entry-point invocations.";
        batch_items: Counter "batches.items", "batch_items", "batch_items_total", "Items executed through batched entry points.";
        batch_steals: Counter "batches.steals", "batch_steals", "batch_steals_total", "Work-stealing events across batch executions.";
        stream_sessions: Counter "batches.stream_sessions", "stream_sessions", "stream_sessions_total", "Streaming sessions opened.";
        update_requests: Counter "updates.accepted", "update_requests", "update_requests_total", "Live UPDATE writes accepted (applied and installed).";
        delta_retained: Counter "updates.delta_retained", "delta_retained", "delta_retained_total", "View-result cache entries retained across a write (delta applied in place).";
        delta_patched: Counter "updates.delta_patched", "delta_patched", "patched_total", "Entries that failed the relevance test but were patched in place through their provenance maps.";
        patched_fragments: Counter "updates.patched_fragments", "patched_fragments", "patched_fragments_total", "Result fragments spliced across all patch fates.";
        delta_recomputed: Counter "updates.delta_recomputed", "delta_recomputed", "delta_recomputed_total", "View-result cache entries invalidated by a write (recomputed).";
        wal_recovered: Counter "wal.recovered", "wal_recovered", "wal_recovered_total", "Intact write-ahead-log records replayed at attach time.";
        wal_truncations: Counter "wal.truncations", "wal_truncations", "wal_truncations_total", "WAL recoveries that dropped a torn tail frame.";
        shared_passes: Counter "shared.passes", "shared_passes", "shared_passes_total", "One-pass shared evaluations run (one document sweep for every view riding it).";
        shared_pass_views: Counter "shared.shared_pass_views", "shared_pass_views", "shared_pass_views_total", "Views whose results rode a shared pass instead of a private evaluation.";
        busy_micros: Counter "methods.busy" "µs", "busy_micros", "busy_micros_total", "Total busy time across requests, in microseconds.";
    }
    filled {
        interned_labels: Gauge "cache.interned_labels", "interned_labels", "interned_labels", "Distinct labels in the shared interner (it never shrinks).";
        result_cache_bytes: Gauge "cache.result_bytes", "result_cache_bytes", "result_cache_bytes", "Bytes held by cached view results: result trees plus their fragment leaves' serialized bytes.";
        result_hits: Counter "updates.result_hits", "result_hits", "result_cache_hits_total", "View-result cache hits.";
        result_misses: Counter "updates.result_misses", "result_misses", "result_cache_misses_total", "View-result cache misses.";
        executor_in_flight: Gauge "", "", "executor_in_flight", "Jobs running on the worker pool.";
        executor_threads: Gauge "", "", "executor_threads", "Worker pool threads.";
        store_active_snapshots: Gauge "", "", "store_active_snapshots", "Store snapshots currently pinned.";
        store_snapshots: Counter "", "", "store_snapshots_total", "Store snapshots taken.";
        store_shards: Gauge "", "", "store_shards", "Document store shards.";
        store_docs: Gauge "", "", "store_docs", "Documents loaded.";
        result_cache_entries: Gauge "", "", "result_cache_entries", "View-result cache entries.";
        result_cache_docs: Gauge "", "", "result_cache_docs", "Documents with a view-result cache shard.";
        views_registered: Gauge "", "", "views_registered", "Registered views.";
        requests_traced: Counter "", "", "requests_traced_total", "Requests traced.";
    }
    keyed {
        Text::Inline("methods"), "per_method", "method", sparse: true, |s| s.per_method.iter().map(|&(m, n)| (m.to_string(), vec![N(n)])).collect() => {
            "", "count", "method_executions_total", Counter, "Executions per evaluation method.";
        }
        Text::Inline("recompute"), "recompute_fallback", "reason", sparse: false, |s| s.recompute_fallbacks.iter().map(|&(r, n)| (r.name().into(), vec![N(n)])).collect() => {
            "", "count", "recompute_fallback_total", Counter, "Recomputed cache entries by the reason the patch fate was not taken.";
        }
        Text::Lines("view"), "view_latency", "view", sparse: false, |s| s.view_latency.iter().map(|(v, n, e)| (v.clone(), vec![F(*e), N(u64::from(*n))])).collect() => {
            "ewma" "µs", "ewma_micros", "view_latency_ewma_micros", Gauge, "Per-view service latency EWMA, in microseconds.";
            "samples", "samples", "view_latency_samples_total", Counter, "Per-view latency samples folded into the EWMA.";
        }
        Text::Lines("view"), "view_delta", "view", sparse: false, |s| s.view_delta.iter().map(|(v, r, p, c)| (v.clone(), vec![N(*r), N(*p), N(*c)])).collect() => {
            "delta_retained", "retained", "view_delta_retained_total", Counter, "Writes this view's cached results survived.";
            "delta_patched", "patched", "view_delta_patched_total", Counter, "Writes this view's cached results absorbed through a provenance patch.";
            "delta_recomputed", "recomputed", "view_delta_recomputed_total", Counter, "Writes that invalidated this view's cached results.";
        }
        Text::Lines("doc"), "doc_delta", "doc", sparse: false, |s| s.doc_delta.iter().map(|(d, r, p, f, c)| (d.clone(), vec![N(*r), N(*p), N(*f), N(*c)])).collect() => {
            "delta_retained", "retained", "doc_delta_retained_total", Counter, "Cached entries of this document retained across its writes.";
            "delta_patched", "patched", "doc_delta_patched_total", Counter, "Cached entries of this document patched in place by its writes.";
            "patched_fragments", "patched_fragments", "doc_patched_fragments_total", Counter, "Result fragments spliced into this document's cached entries.";
            "delta_recomputed", "recomputed", "doc_delta_recomputed_total", Counter, "Cached entries of this document dropped by its writes.";
        }
        Text::Lines("verb"), "verbs", "verb", sparse: true, |s| s.verbs.iter().map(|&(v, r, e)| (v.name().into(), vec![N(r), N(e)])).collect() => {
            "requests", "requests", "verb_requests_total", Counter, "Requests per protocol verb.";
            "errors", "errors", "verb_errors_total", Counter, "Failed requests per protocol verb.";
        }
        Text::Hidden, "", "cache", sparse: false, |s| s.prepared_caches.iter().map(|(c, v)| (c.to_string(), v.map(N).to_vec())).collect() => {
            "", "", "prepared_cache_entries", Gauge, "Prepared-cache entries.";
            "", "", "prepared_cache_capacity", Gauge, "Prepared-cache capacity.";
            "", "", "prepared_cache_hits", Counter, "Prepared-cache hits, per cache.";
            "", "", "prepared_cache_misses", Counter, "Prepared-cache misses, per cache.";
            "", "", "prepared_cache_evictions", Counter, "Prepared-cache evictions, per cache.";
        }
    }
}

/// One value of a keyed row: counters are integers, EWMAs are not.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Val {
    /// A count.
    N(u64),
    /// A smoothed measurement.
    F(f32),
}

impl Val {
    /// Renders with `digits` decimals for [`Val::F`] (counts are exact).
    fn render(self, out: &mut String, digits: usize) {
        let _ = match self {
            Val::N(n) => write!(out, "{n}"),
            Val::F(x) => write!(out, "{x:.digits$}"),
        };
    }
}

/// One row of a keyed family: the key and one value per column.
pub type KeyedRow = (String, Vec<Val>);

/// Where `STATS` puts a keyed family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Text {
    /// Not in `STATS`.
    Hidden,
    /// `key=value` tokens on the `section:` line, ahead of the scalars
    /// that share it (single-column families only).
    Inline(&'static str),
    /// One `prefix <key>: col=value …` line per row.
    Lines(&'static str),
}

/// One value column of a keyed family.
#[derive(Debug, Clone, Copy)]
pub struct Col {
    /// `STATS` key (unused by [`Text::Inline`] families).
    pub stats: &'static str,
    /// Suffix `STATS` prints after the value.
    pub unit: &'static str,
    /// JSON key.
    pub json: &'static str,
    /// Prometheus name, without the `xust_` prefix.
    pub prom: &'static str,
    /// Prometheus kind.
    pub kind: Kind,
    /// The `# HELP` line.
    pub help: &'static str,
}

/// One keyed family of the counter table.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    /// `STATS` placement.
    pub text: Text,
    /// JSON array name (empty: not in the JSON).
    pub json: &'static str,
    /// The key's name: JSON key and Prometheus label.
    pub label: &'static str,
    /// A closed key set whose all-zero rows `STATS` and the JSON omit.
    /// `METRICS` renders every row of every family, so a scraper sees a
    /// stable schema from the first scrape.
    pub sparse: bool,
    /// Value columns, in row order.
    pub cols: &'static [Col],
    /// Reads the rows out of a snapshot.
    pub rows: fn(&StatsSnapshot) -> Vec<KeyedRow>,
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

/// A keyed map's rows in key order, as `read` shapes them; cells for
/// which `read` yields nothing are skipped.
fn sorted_rows<T, R>(
    map: &RwLock<HashMap<String, Arc<T>>>,
    read: impl Fn(String, &T) -> Option<R>,
) -> Vec<R> {
    let map = map.read().expect("stats lock poisoned");
    let mut keys: Vec<&String> = map.keys().collect();
    keys.sort();
    keys.into_iter()
        .filter_map(|k| read(k.clone(), &map[k]))
        .collect()
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

    /// Records that `view`'s cached result survived a write (and the
    /// global total).
    pub fn record_view_retained(&self, view: &str) {
        bump(&self.delta_retained, 1);
        bump(&cell_of(&self.view_delta, view).retained, 1);
    }

    /// Records one patch-fate outcome for `view` (and the global
    /// total): the view's cached result failed the relevance test but
    /// was spliced in place through its provenance map.
    pub fn record_view_patched(&self, view: &str) {
        bump(&self.delta_patched, 1);
        bump(&cell_of(&self.view_delta, view).patched, 1);
    }

    /// Records that a write dropped `view`'s cached result for
    /// recomputation because the patch fate was ineligible for reason
    /// `why` (and the global and per-reason totals, so the reasons
    /// always sum to `delta_recomputed`).
    pub fn record_view_recomputed(&self, view: &str, why: Fallback) {
        bump(&self.delta_recomputed, 1);
        bump(&self.fallbacks[why as usize], 1);
        bump(&cell_of(&self.view_delta, view).recomputed, 1);
    }

    /// Recomputations recorded with reason `why`.
    pub fn fallback_count(&self, why: Fallback) -> u64 {
        ld(&self.fallbacks[why as usize])
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
        bump(&cell.retained, retained);
        bump(&cell.patched, patched);
        bump(&cell.patched_fragments, patched_fragments);
        bump(&cell.recomputed, recomputed);
    }

    /// Drops `doc`'s per-document delta row. Called when the document
    /// is removed from the store: without this, a server with
    /// document-name churn (load → write → remove cycles) accumulates
    /// one permanent row per ever-written name — unbounded memory and
    /// an ever-growing `STATS` reply. A re-created name starts a fresh
    /// row (its versions are a new lineage; so are its counters).
    pub fn forget_doc(&self, doc: &str) {
        self.doc_delta
            .write()
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

    /// Records one request under `verb`; `ok == false` also bumps the
    /// verb's error counter.
    pub fn record_verb(&self, verb: Verb, ok: bool) {
        let cell = &self.per_verb[verb.index()];
        bump(&cell.requests, 1);
        if !ok {
            bump(&cell.errors, 1);
        }
    }

    /// `(requests, errors)` recorded for `verb`.
    pub fn verb_counts(&self, verb: Verb) -> (u64, u64) {
        let cell = &self.per_verb[verb.index()];
        (ld(&cell.requests), ld(&cell.errors))
    }

    /// Records one execution with `method`.
    pub fn count_method(&self, m: Method) {
        bump(&self.per_method[method_index(m)], 1);
    }

    /// Executions recorded for `method`.
    pub fn method_count(&self, m: Method) -> u64 {
        ld(&self.per_method[method_index(m)])
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

/// Escapes `s` for a Prometheus label value (`\`, `"` and newline).
fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Rows of `fam` that `STATS` and the JSON show.
fn shown(fam: &Family, rows: Vec<KeyedRow>) -> impl Iterator<Item = KeyedRow> {
    let sparse = fam.sparse;
    rows.into_iter()
        .filter(move |(_, vals)| !sparse || vals.iter().any(|&v| v != N(0)))
}

/// The `STATS` reply: one `section: key=value …` line per scalar
/// section (the first line has no section), single-column families
/// inline on their section's line, then one line per keyed row.
impl std::fmt::Display for StatsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn line<'a>(
            sections: &'a mut Vec<(&'static str, String)>,
            sec: &'static str,
        ) -> &'a mut String {
            let i = match sections.iter().position(|(s, _)| *s == sec) {
                Some(i) => i,
                None => {
                    sections.push((sec, String::new()));
                    sections.len() - 1
                }
            };
            &mut sections[i].1
        }
        let mut sections: Vec<(&'static str, String)> = Vec::new();
        for row in SCALARS.iter().filter(|r| !r.stats.is_empty()) {
            let (sec, key) = row.stats.split_once('.').unwrap_or(("", row.stats));
            let _ = write!(
                line(&mut sections, sec),
                " {key}={}{}",
                (row.get)(self),
                row.unit
            );
        }
        let mut lines = String::new();
        for fam in FAMILIES {
            match fam.text {
                Text::Hidden => {}
                Text::Inline(sec) => {
                    let mut tokens = String::new();
                    for (key, vals) in shown(fam, (fam.rows)(self)) {
                        let _ = write!(tokens, " {key}=");
                        vals[0].render(&mut tokens, 0);
                        tokens.push_str(fam.cols[0].unit);
                    }
                    line(&mut sections, sec).insert_str(0, &tokens);
                }
                Text::Lines(prefix) => {
                    for (key, vals) in shown(fam, (fam.rows)(self)) {
                        let _ = write!(lines, "\n{prefix} {key}:");
                        for (c, v) in fam.cols.iter().zip(vals) {
                            let _ = write!(lines, " {}=", c.stats);
                            v.render(&mut lines, 0);
                            lines.push_str(c.unit);
                        }
                    }
                }
            }
        }
        for (i, (sec, tokens)) in sections.iter().enumerate() {
            if i > 0 {
                f.write_str("\n")?;
            }
            if sec.is_empty() {
                f.write_str(tokens.trim_start())?;
            } else {
                write!(f, "{sec}:{tokens}")?;
            }
        }
        f.write_str(&lines)
    }
}

impl StatsSnapshot {
    /// Renders the snapshot as one JSON object (no trailing newline):
    /// every scalar row with a JSON key, then one array of row objects
    /// per keyed family. The workspace deliberately has no serde; the
    /// shape is flat enough that hand-rolling stays honest.
    pub fn render_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push('{');
        for row in SCALARS.iter().filter(|r| !r.json.is_empty()) {
            let _ = write!(s, "\"{}\":{},", row.json, (row.get)(self));
        }
        for fam in FAMILIES.iter().filter(|f| !f.json.is_empty()) {
            let _ = write!(s, "\"{}\":[", fam.json);
            for (i, (key, vals)) in shown(fam, (fam.rows)(self)).enumerate() {
                if i > 0 {
                    s.push(',');
                }
                let _ = write!(s, "{{\"{}\":\"{}\"", fam.label, json_escape(&key));
                for (c, v) in fam.cols.iter().zip(vals) {
                    let _ = write!(s, ",\"{}\":", c.json);
                    v.render(&mut s, 1);
                }
                s.push('}');
            }
            s.push_str("],");
        }
        s.pop();
        s.push('}');
        s
    }

    /// Renders the Prometheus text exposition of every row: `# HELP`
    /// and `# TYPE` for each metric, then `xust_<name>{label="key"}
    /// value` lines (no labels for scalars).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        fn head(out: &mut String, name: &str, kind: Kind, help: &str) {
            let _ = writeln!(out, "# HELP xust_{name} {help}");
            let _ = writeln!(out, "# TYPE xust_{name} {}", kind.name());
        }
        for row in SCALARS {
            head(&mut out, row.prom, row.kind, row.help);
            let _ = writeln!(out, "xust_{} {}", row.prom, (row.get)(self));
        }
        for fam in FAMILIES {
            let rows = (fam.rows)(self);
            for (i, c) in fam.cols.iter().enumerate() {
                head(&mut out, c.prom, c.kind, c.help);
                for (key, vals) in &rows {
                    let _ = write!(
                        out,
                        "xust_{}{{{}=\"{}\"}} ",
                        c.prom,
                        fam.label,
                        prom_escape(key)
                    );
                    vals[i].render(&mut out, 1);
                    out.push('\n');
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The `STATS` layout `xbench` and operators read: the
    /// section lines in order, `batches=` only under `batches:`, and
    /// method counts ahead of `busy` on the `methods:` line.
    #[test]
    fn stats_text_layout() {
        let s = ServeStats::default();
        s.batches.fetch_add(2, Ordering::Relaxed); // relaxed: monotone counter; no data published
        s.busy_micros.fetch_add(7, Ordering::Relaxed); // relaxed: monotone counter; no data published
        s.count_method(Method::TopDown);
        s.record_view_recomputed("v", Fallback::Root);
        let text = s.snapshot().to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0], "requests=0 failures=0 views=0 queries=0 transforms=0",
            "{text}"
        );
        let sections: Vec<&str> = lines[1..8]
            .iter()
            .map(|l| l.split_once(':').unwrap().0)
            .collect();
        assert_eq!(
            sections,
            [
                "cache",
                "batches",
                "updates",
                "wal",
                "shared",
                "methods",
                "recompute"
            ]
        );
        assert!(lines[2].starts_with("batches: runs=2 items=0 steals=0"));
        assert_eq!(lines[6], "methods: GENTOP=1 busy=7µs");
        assert!(
            lines[7].starts_with("recompute: threshold=0 root=1 guard=0"),
            "{text}"
        );
        assert_eq!(text.matches("batches=").count(), 0);
        assert_eq!(text.matches("runs=2").count(), 1);
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
        s.record_view_retained("public");
        s.record_view_retained("public");
        s.record_view_recomputed("public", Fallback::Threshold);
        s.record_view_recomputed("audit", Fallback::NoCtx);
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
        // The per-reason rows always sum to the recompute total.
        let by_reason: u64 = snap.recompute_fallbacks.iter().map(|r| r.1).sum();
        assert_eq!(by_reason, snap.delta_recomputed);
        assert_eq!(s.fallback_count(Fallback::Threshold), 1);
        let text = snap.to_string();
        assert!(text.contains("delta_retained=2"));
        assert!(
            text.contains("view public: delta_retained=2 delta_patched=1 delta_recomputed=1"),
            "{text}"
        );
        assert!(text.contains("threshold=1"), "{text}");
        assert!(text.contains("no_ctx=1"), "{text}");
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
        // Every verb, sorted by name.
        assert_eq!(snap.verbs.len(), Verb::ALL.len());
        assert_eq!(snap.verbs[0], (Verb::Analyze, 0, 0));
        assert_eq!(snap.verbs.last(), Some(&(Verb::View, 2, 1)));
        // STATS shows only the verbs with traffic; METRICS shows all.
        let text = snap.to_string();
        assert!(text.contains("verb view: requests=2 errors=1"), "{text}");
        assert!(text.contains("verb update: requests=1 errors=0"), "{text}");
        assert!(!text.contains("verb analyze"), "{text}");
        let prom = snap.render_prometheus();
        assert!(prom.contains("xust_verb_requests_total{verb=\"analyze\"} 0"));
        assert!(prom.contains("xust_verb_errors_total{verb=\"view\"} 1"));
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let s = ServeStats::default();
        s.requests.fetch_add(2, Ordering::Relaxed); // relaxed: monotone counter; no data published
        s.count_method(Method::TopDown);
        s.record_verb(Verb::Query, true);
        s.record_view_latency("pub\"lic", 120.0);
        s.record_view_retained("public");
        s.record_doc_delta("db", 1, 1, 2, 0);
        let json = s.snapshot().render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(!json.contains(",]") && !json.contains(",}"), "{json}");
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
            json.contains("\"recompute_fallback\":[{\"reason\":\"threshold\",\"count\":0}"),
            "{json}"
        );
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// Every Prometheus series is announced by exactly one `# HELP` and
    /// one `# TYPE` line, and label values are escaped.
    #[test]
    fn prometheus_rendering_announces_every_metric_once() {
        let s = ServeStats::default();
        s.record_view_latency("a\"b", 50.0);
        s.record_view_retained("a\"b");
        let prom = s.snapshot().render_prometheus();
        assert!(prom.contains("xust_view_latency_ewma_micros{view=\"a\\\"b\"} 50.0"));
        assert!(prom.contains("xust_view_delta_retained_total{view=\"a\\\"b\"} 1"));
        let mut typed = std::collections::HashSet::new();
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split(' ').next().unwrap();
                assert!(typed.insert(name.to_string()), "{name} typed twice");
            } else if !line.starts_with("# HELP ") {
                let name = line.split(['{', ' ']).next().unwrap();
                assert!(typed.contains(name), "{name} has no # TYPE line");
            }
        }
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
