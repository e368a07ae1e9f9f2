//! Request observability: lock-free latency histograms, per-request
//! phase traces, and the ring/slow-log buffers behind the `METRICS` and
//! `TRACE` protocol verbs.
//!
//! The EWMA cells in [`stats`](crate::stats) answer "what is the
//! smoothed mean" — useful for a dashboard, useless for tail latency.
//! This module keeps the *distribution*: every recorded duration lands
//! in a fixed array of power-of-√2 buckets via one relaxed
//! `fetch_add`, so p50/p90/p99/max are available per verb, per view,
//! and per evaluation method at any time, with no locks on the record
//! path and no allocation after startup (view histograms are created
//! once per view name, like the stats cells).
//!
//! ## Bucketing
//!
//! [`LatencyHistogram`] has 64 buckets; bucket `i` covers
//! `[2^(i/2), 2^((i+1)/2))` microseconds, so consecutive bucket bounds
//! differ by a factor of √2 (≈ ±41% relative error per bucket). Bucket
//! 0 also absorbs sub-microsecond samples and the last bucket absorbs
//! everything from ~50 minutes up, which comfortably brackets the
//! 1µs–60s range a request can plausibly take. Quantiles walk the
//! cumulative counts and report the bucket's upper bound, clamped to
//! the exact observed maximum.
//!
//! ## Traces
//!
//! A [`Trace`] is threaded through one request's dispatch; when tracing
//! is disabled it is a `None` and every recording call is a branch on a
//! dead option — the overhead budget for the enabled path is ≤ 3% of
//! `bench_smoke serve_mixed` (gated in CI via the `obs_overhead` row).
//! Completed traces become immutable [`RequestTrace`]s pushed into a
//! bounded ring of recent requests (atomic head reservation + per-slot
//! pointer swap; pushers never contend on a shared lock, only on their
//! own slot) and offered to a slowest-N log whose admission fast path
//! is a single relaxed load of the current threshold.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use std::collections::HashMap;

use xust_core::Method;

use crate::stats::Verb;

/// Number of histogram buckets (fixed; see the module docs).
pub const HIST_BUCKETS: usize = 64;

/// Upper bound on distinct phases per trace (≥ the number of [`Phase`]
/// variants): phase timings are merged into a fixed inline array at
/// record time, so a trace never allocates for its breakdown.
const MAX_PHASES: usize = 8;

const N_METHODS: usize = Method::ALL.len();
const N_VERBS: usize = Verb::ALL.len();

fn method_index(m: Method) -> usize {
    Method::ALL
        .iter()
        .position(|&x| x == m)
        .expect("Method::ALL is exhaustive")
}

/// A lock-free log-bucketed latency histogram (microsecond samples).
///
/// Recording is four relaxed atomic ops (bucket, count, sum, max);
/// concurrent recorders never lose a sample — the conservation law
/// `count == Σ buckets` and `sum == Σ samples` holds under any
/// interleaving and is asserted by the concurrency tests.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        LatencyHistogram::new()
    }
}

/// A point-in-time digest of one [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (µs).
    pub sum: u64,
    /// Largest sample (µs).
    pub max: u64,
    /// Median estimate (µs).
    pub p50: u64,
    /// 90th percentile estimate (µs).
    pub p90: u64,
    /// 99th percentile estimate (µs).
    pub p99: u64,
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// The bucket index for a sample of `micros`: `⌊2·log₂(v)⌋`,
    /// computed in integer arithmetic (`v ≥ 2^(k+½)` iff
    /// `v² ≥ 2^(2k+1)`), clamped into the fixed bucket range.
    pub fn bucket_index(micros: u64) -> usize {
        let v = micros.max(1);
        let log2 = 63 - v.leading_zeros() as usize;
        let upper_half = (v as u128) * (v as u128) >= (1u128 << (2 * log2 + 1));
        (2 * log2 + usize::from(upper_half)).min(HIST_BUCKETS - 1)
    }

    /// The exclusive upper bound of bucket `i` in microseconds:
    /// `⌈2^((i+1)/2)⌉`.
    pub fn bucket_upper(i: usize) -> u64 {
        debug_assert!(i < HIST_BUCKETS);
        2f64.powf((i as f64 + 1.0) / 2.0).ceil() as u64
    }

    /// Records one sample. Lock-free; relaxed ordering throughout (the
    /// histogram is observability data, not synchronization).
    pub fn record(&self, micros: u64) {
        self.buckets[Self::bucket_index(micros)].fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        self.count.fetch_add(1, Ordering::Relaxed); // relaxed: monotone counter; no data published
        self.sum.fetch_add(micros, Ordering::Relaxed); // relaxed: monotone counter; no data published
        self.max.fetch_max(micros, Ordering::Relaxed); // relaxed: monotone max; no data published
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Sum of all samples (µs).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Largest sample (µs); 0 when empty.
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// The `q`-quantile (`0 < q ≤ 1`) as the upper bound of the bucket
    /// holding the rank-`⌈q·count⌉` sample, clamped to the observed
    /// maximum; 0 when empty. Error is bounded by one bucket (√2).
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: [u64; HIST_BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)); // relaxed: point-in-time read; staleness is fine
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper(i).min(self.max().max(1));
            }
        }
        self.max()
    }

    /// A consistent-enough digest for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
        }
    }
}

/// One phase of a request's service time (see [`Trace::phase`] call
/// sites in `server.rs` and `write.rs` for exactly what each covers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Request/query text parsing (incl. file→DOM parses).
    Parse,
    /// Evaluation-method choice. The method is fixed when a transform
    /// compiles, so the server records no time here; the phase stays
    /// part of the trace vocabulary.
    Plan,
    /// Prepared-query / view-result cache lookups.
    Cache,
    /// Document store snapshot/version acquisition.
    Snapshot,
    /// Query/transform evaluation.
    Eval,
    /// Delta-aware view-result maintenance (write path).
    Maintain,
    /// In-place fragment patching of cached results (write path).
    Patch,
    /// Result serialization + cache install.
    Serialize,
}

impl Phase {
    /// Lower-case phase name, as rendered in `TRACE` output.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::Cache => "cache",
            Phase::Snapshot => "snapshot",
            Phase::Eval => "eval",
            Phase::Maintain => "maintain",
            Phase::Patch => "patch",
            Phase::Serialize => "serialize",
        }
    }
}

/// A completed, immutable request trace (what `TRACE` renders).
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// Monotonic sequence number of the traced request.
    pub seq: u64,
    /// The request's verb.
    pub verb: Verb,
    /// What the request addressed (`view/doc` or `doc`).
    pub target: String,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Total service time (µs).
    pub micros: u64,
    /// Per-phase timings, merged by phase at record time into a fixed
    /// inline array (first-seen order); see [`RequestTrace::phases`].
    phases: [(Phase, u64); MAX_PHASES],
    nphases: u8,
    /// The evaluation method that produced the response, if one ran.
    pub method: Option<Method>,
    /// Prepared-cache outcome, when the request consulted it.
    pub prepared_hit: Option<bool>,
    /// View-result-cache outcome, when the request consulted it.
    pub result_hit: Option<bool>,
    /// Method notes, one entry per evaluated link (input size and
    /// method).
    pub plan: Vec<String>,
}

impl RequestTrace {
    /// Per-phase timings (µs), merged by phase, in first-seen order.
    /// Phases cover the instrumented sections only, so their sum is a
    /// lower bound on `micros` (dispatch glue is uninstrumented).
    pub fn phases(&self) -> &[(Phase, u64)] {
        &self.phases[..self.nphases as usize]
    }

    /// One-line rendering with the phase breakdown, as shipped by the
    /// `TRACE` verb.
    pub fn render(&self) -> String {
        let mut s = format!(
            "#{} {} {} {} total={}µs",
            self.seq,
            if self.ok { "ok" } else { "err" },
            self.verb.name(),
            self.target,
            self.micros
        );
        if let Some(m) = self.method {
            s.push_str(&format!(" method={m}"));
        }
        if let Some(hit) = self.prepared_hit {
            s.push_str(if hit {
                " prepared=hit"
            } else {
                " prepared=miss"
            });
        }
        if let Some(hit) = self.result_hit {
            s.push_str(if hit { " result=hit" } else { " result=miss" });
        }
        s.push_str(" phases[");
        for (i, (p, us)) in self.phases().iter().enumerate() {
            if i > 0 {
                s.push(' ');
            }
            s.push_str(&format!("{}={us}µs", p.name()));
        }
        s.push(']');
        if !self.plan.is_empty() {
            s.push_str(&format!(" plan[{}]", self.plan.join("; ")));
        }
        s
    }
}

#[derive(Debug)]
struct TraceBuf {
    verb: Verb,
    target: String,
    phases: [(Phase, u64); MAX_PHASES],
    nphases: u8,
    method: Option<Method>,
    prepared_hit: Option<bool>,
    result_hit: Option<bool>,
    plan: Vec<String>,
}

impl TraceBuf {
    /// Attributes `us` to `phase`, merging into an existing entry or
    /// claiming the next inline slot. No allocation.
    fn push_phase(&mut self, phase: Phase, us: u64) {
        let n = self.nphases as usize;
        match self.phases[..n].iter_mut().find(|(p, _)| *p == phase) {
            Some((_, total)) => *total += us,
            None => {
                self.phases[n] = (phase, us);
                self.nphases = n as u8 + 1;
            }
        }
    }
}

/// A per-request trace builder, cheap when tracing is off.
///
/// Handlers call the recording methods unconditionally; with tracing
/// disabled the inner buffer is `None` and every call is a branch on a
/// dead option — no timestamps, no allocation.
#[derive(Debug)]
pub struct Trace {
    buf: Option<Box<TraceBuf>>,
}

impl Trace {
    /// A disabled trace (records nothing).
    pub fn off() -> Trace {
        Trace { buf: None }
    }

    /// True when this trace is recording.
    pub fn is_on(&self) -> bool {
        self.buf.is_some()
    }

    /// Starts timing a phase: `Some(now)` when recording, else `None`.
    /// Pair with [`Trace::phase`].
    pub fn start(&self) -> Option<Instant> {
        self.buf.as_ref().map(|_| Instant::now())
    }

    /// Ends a phase started by [`Trace::start`], attributing the
    /// elapsed time to `phase`.
    pub fn phase(&mut self, phase: Phase, started: Option<Instant>) {
        if let (Some(buf), Some(t)) = (self.buf.as_deref_mut(), started) {
            buf.push_phase(phase, t.elapsed().as_micros() as u64);
        }
    }

    /// Attributes an externally measured duration to `phase` (for
    /// sections that already time themselves, e.g. evaluation feeding
    /// the method histograms).
    pub fn phase_micros(&mut self, phase: Phase, micros: u64) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.push_phase(phase, micros);
        }
    }

    /// Notes the evaluation method that produced the response.
    pub fn set_method(&mut self, method: Method) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.method = Some(method);
        }
    }

    /// Notes a prepared-cache outcome.
    pub fn note_prepared(&mut self, hit: bool) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.prepared_hit = Some(hit);
        }
    }

    /// Notes a view-result-cache outcome.
    pub fn note_result(&mut self, hit: bool) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.result_hit = Some(hit);
        }
    }

    /// Appends one method note; `f` runs (and allocates) only
    /// when the trace is recording.
    pub fn note_plan(&mut self, f: impl FnOnce() -> String) {
        if let Some(buf) = self.buf.as_deref_mut() {
            buf.plan.push(f());
        }
    }
}

/// Bounded ring of the most recent completed traces. Pushing reserves
/// a slot with one atomic `fetch_add` on the head counter, then swaps
/// the trace pointer into that slot; two pushers contend only if they
/// wrap onto the same slot (ring-capacity pushes apart).
struct TraceRing {
    slots: Box<[Mutex<Option<Arc<RequestTrace>>>]>,
    head: AtomicU64,
}

impl TraceRing {
    fn new(capacity: usize) -> TraceRing {
        TraceRing {
            slots: (0..capacity.max(1)).map(|_| Mutex::new(None)).collect(),
            head: AtomicU64::new(0),
        }
    }

    fn push(&self, trace: Arc<RequestTrace>) {
        let i = self.head.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len(); // relaxed: monotone counter; no data published
        *self.slots[i].lock().expect("trace ring slot poisoned") = Some(trace);
    }

    fn pushed(&self) -> u64 {
        self.head.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Up to `n` most recent traces, newest first. Best-effort under
    /// concurrent pushes (a slot may hold a newer trace than the head
    /// we read — fine for an operator view).
    fn recent(&self, n: usize) -> Vec<Arc<RequestTrace>> {
        let head = self.pushed();
        let len = self.slots.len() as u64;
        let mut out = Vec::with_capacity(n.min(self.slots.len()));
        let floor = head.saturating_sub(len);
        let mut at = head;
        while at > floor && out.len() < n {
            at -= 1;
            let slot = self.slots[(at % len) as usize]
                .lock()
                .expect("trace ring slot poisoned");
            if let Some(t) = slot.as_ref() {
                out.push(Arc::clone(t));
            }
        }
        out
    }
}

/// The slowest-N log: a small sorted vector behind a mutex, with a
/// lock-free admission check — a request faster than the current
/// N-th-slowest threshold never takes the lock.
struct SlowLog {
    capacity: usize,
    /// Admission floor (µs): 0 until the log fills, then the smallest
    /// resident total. Monotonically non-decreasing.
    floor: AtomicU64,
    entries: Mutex<Vec<Arc<RequestTrace>>>,
}

impl SlowLog {
    fn new(capacity: usize) -> SlowLog {
        SlowLog {
            capacity: capacity.max(1),
            floor: AtomicU64::new(0),
            entries: Mutex::new(Vec::new()),
        }
    }

    fn offer(&self, trace: &Arc<RequestTrace>) {
        // relaxed: point-in-time read; staleness is fine
        if trace.micros < self.floor.load(Ordering::Relaxed) {
            return; // fast path: provably not among the slowest N
        }
        let mut entries = self.entries.lock().expect("slow log poisoned");
        let pos = entries.partition_point(|e| e.micros >= trace.micros);
        entries.insert(pos, Arc::clone(trace));
        if entries.len() > self.capacity {
            entries.pop();
        }
        if entries.len() == self.capacity {
            let floor = entries.last().expect("non-empty at capacity").micros;
            self.floor.store(floor, Ordering::Relaxed); // relaxed: advisory value; racy readers re-check or tolerate staleness
        }
    }

    fn slowest(&self) -> Vec<Arc<RequestTrace>> {
        self.entries.lock().expect("slow log poisoned").clone()
    }
}

/// Capacity of the recent-trace ring.
const RING_CAPACITY: usize = 128;
/// Capacity of the slowest-N log.
const SLOW_CAPACITY: usize = 16;

/// The server's observability state: histograms keyed by verb, view,
/// and method, plus the trace ring and slow log. One per server,
/// shared by all request threads.
pub struct Obs {
    /// Runtime-togglable so one server can be compared against itself
    /// with instrumentation on and off (`bench_smoke`'s `obs_overhead`
    /// row) — two separate processes would differ in heap layout by
    /// more than the instrumentation costs.
    enabled: AtomicBool,
    seq: AtomicU64,
    verb_hist: [LatencyHistogram; N_VERBS],
    method_hist: [LatencyHistogram; N_METHODS],
    /// Per-view histograms; read-mostly, same discipline as the stats
    /// cells (a view's histogram is created once, then only its atomics
    /// move).
    view_hist: RwLock<HashMap<String, Arc<LatencyHistogram>>>,
    ring: TraceRing,
    slow: SlowLog,
}

impl Obs {
    /// Creates the observability state; `enabled == false` turns every
    /// recording path into a no-op (the `--no-trace` mode benched by
    /// `obs_overhead`).
    pub fn new(enabled: bool) -> Obs {
        Obs {
            enabled: AtomicBool::new(enabled),
            seq: AtomicU64::new(0),
            verb_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            method_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            view_hist: RwLock::new(HashMap::new()),
            ring: TraceRing::new(RING_CAPACITY),
            slow: SlowLog::new(SLOW_CAPACITY),
        }
    }

    /// True when recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed) // relaxed: point-in-time read; staleness is fine
    }

    /// Switches tracing on or off at runtime. Already-recorded traces
    /// and histograms are kept either way; only future requests are
    /// affected.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed); // relaxed: advisory value; racy readers re-check or tolerate staleness
    }

    /// Begins a trace for one request; `target` is rendered lazily (it
    /// never allocates when tracing is off).
    pub fn begin(&self, verb: Verb, target: impl FnOnce() -> String) -> Trace {
        if !self.is_enabled() {
            return Trace::off();
        }
        Trace {
            buf: Some(Box::new(TraceBuf {
                verb,
                target: target(),
                phases: [(Phase::Parse, 0); MAX_PHASES],
                nphases: 0,
                method: None,
                prepared_hit: None,
                result_hit: None,
                plan: Vec::new(),
            })),
        }
    }

    /// Completes a trace: records the verb (and, when given, view)
    /// latency histograms and publishes the trace to the ring and slow
    /// log. No-op for disabled traces.
    pub fn finish(&self, trace: Trace, micros: u64, ok: bool, view: Option<&str>) {
        let Some(buf) = trace.buf else { return };
        self.verb_hist[buf.verb.index()].record(micros);
        if let Some(view) = view {
            self.view_histogram(view).record(micros);
        }
        let trace = Arc::new(RequestTrace {
            seq: self.seq.fetch_add(1, Ordering::Relaxed) + 1, // relaxed: monotone counter; no data published
            verb: buf.verb,
            target: buf.target,
            ok,
            micros,
            phases: buf.phases,
            nphases: buf.nphases,
            method: buf.method,
            prepared_hit: buf.prepared_hit,
            result_hit: buf.result_hit,
            plan: buf.plan,
        });
        self.slow.offer(&trace);
        self.ring.push(trace);
    }

    /// Records one evaluation's duration against its method — called at
    /// the evaluation sites, so method histograms measure *evaluation* time, not whole
    /// requests.
    pub fn record_method(&self, method: Method, micros: u64) {
        if self.is_enabled() {
            self.method_hist[method_index(method)].record(micros);
        }
    }

    /// The latency histogram for `verb`.
    pub fn verb_histogram(&self, verb: Verb) -> &LatencyHistogram {
        &self.verb_hist[verb.index()]
    }

    /// The evaluation-latency histogram for `method`.
    pub fn method_histogram(&self, method: Method) -> &LatencyHistogram {
        &self.method_hist[method_index(method)]
    }

    /// The latency histogram for `view`, created on first use.
    pub fn view_histogram(&self, view: &str) -> Arc<LatencyHistogram> {
        if let Some(h) = self.view_hist.read().expect("obs lock poisoned").get(view) {
            return Arc::clone(h);
        }
        let mut map = self.view_hist.write().expect("obs lock poisoned");
        Arc::clone(map.entry(view.to_string()).or_default())
    }

    /// Digests of every non-empty per-view histogram, sorted by view.
    pub fn view_histograms(&self) -> Vec<(String, HistogramSnapshot)> {
        let map = self.view_hist.read().expect("obs lock poisoned");
        let mut out: Vec<(String, HistogramSnapshot)> = map
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .filter(|(_, s)| s.count > 0)
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Total requests traced (pushed into the ring) so far.
    pub fn requests_traced(&self) -> u64 {
        self.ring.pushed()
    }

    /// The `n` most recent completed traces, newest first.
    pub fn recent_traces(&self, n: usize) -> Vec<Arc<RequestTrace>> {
        self.ring.recent(n)
    }

    /// The slowest traces seen so far, slowest first.
    pub fn slowest_traces(&self) -> Vec<Arc<RequestTrace>> {
        self.slow.slowest()
    }

    /// Renders the `TRACE [n]` reply: the last `n` traces plus the slow
    /// log, one line each.
    pub fn render_traces(&self, n: usize) -> String {
        if !self.is_enabled() {
            return "tracing disabled (--no-trace)".to_string();
        }
        let recent = self.recent_traces(n);
        let mut s = format!(
            "traced={} recent={}\n",
            self.requests_traced(),
            recent.len()
        );
        for t in &recent {
            s.push_str(&t.render());
            s.push('\n');
        }
        s.push_str("slowest:\n");
        for t in self.slowest_traces() {
            s.push_str(&t.render());
            s.push('\n');
        }
        s.pop();
        s
    }

    /// Appends the Prometheus-style `xust_latency_micros` summary
    /// family for every non-empty histogram (scope ∈ verb/view/method).
    pub fn render_histograms(&self, out: &mut String) {
        use std::fmt::Write;
        let _ = writeln!(out, "# TYPE xust_latency_micros summary");
        let mut emit = |scope: &str, key: &str, s: HistogramSnapshot| {
            if s.count == 0 {
                return;
            }
            let label = format!("scope=\"{scope}\",key=\"{key}\"");
            let _ = writeln!(out, "xust_latency_micros_count{{{label}}} {}", s.count);
            let _ = writeln!(out, "xust_latency_micros_sum{{{label}}} {}", s.sum);
            let _ = writeln!(out, "xust_latency_micros_max{{{label}}} {}", s.max);
            for (q, v) in [("0.5", s.p50), ("0.9", s.p90), ("0.99", s.p99)] {
                let _ = writeln!(
                    out,
                    "xust_latency_micros{{scope=\"{scope}\",key=\"{key}\",quantile=\"{q}\"}} {v}"
                );
            }
        };
        for v in Verb::ALL {
            emit("verb", v.name(), self.verb_histogram(v).snapshot());
        }
        for (view, snap) in self.view_histograms() {
            emit("view", &view, snap);
        }
        for m in Method::ALL {
            emit(
                "method",
                &m.to_string(),
                self.method_histogram(m).snapshot(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_sqrt2_spaced() {
        let mut last = 0;
        for v in 1..100_000u64 {
            let i = LatencyHistogram::bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            last = i;
            // v sits strictly below its bucket's upper bound.
            assert!(
                v < LatencyHistogram::bucket_upper(i) + 1,
                "{v} outside bucket {i}"
            );
        }
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 0);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        // 60 s = 6·10⁷ µs lands comfortably inside the bucket range.
        assert!(LatencyHistogram::bucket_index(60_000_000) < HIST_BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_known_distribution() {
        let h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // A √2-bucketed quantile is within one bucket of the truth.
        let p50 = h.quantile(0.5);
        assert!((500..=1000).contains(&p50), "p50={p50}");
        assert!(p50 <= 500 * 2, "p50={p50} more than one bucket off");
        assert_eq!(h.quantile(1.0), 1000, "p100 clamps to the exact max");
        assert_eq!(LatencyHistogram::new().quantile(0.5), 0, "empty → 0");
    }

    #[test]
    fn concurrent_records_conserve_count_and_sum() {
        use std::sync::Barrier;
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 5_000;
        let concurrent = Arc::new(LatencyHistogram::new());
        let reference = LatencyHistogram::new();
        let barrier = Arc::new(Barrier::new(THREADS));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = Arc::clone(&concurrent);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    for i in 0..PER_THREAD {
                        h.record((t as u64 * 31 + i * 7) % 10_000 + 1);
                    }
                })
            })
            .collect();
        for t in 0..THREADS as u64 {
            for i in 0..PER_THREAD {
                reference.record((t * 31 + i * 7) % 10_000 + 1);
            }
        }
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(concurrent.count(), THREADS as u64 * PER_THREAD);
        assert_eq!(concurrent.count(), reference.count());
        assert_eq!(concurrent.sum(), reference.sum());
        assert_eq!(concurrent.max(), reference.max());
        // Same multiset of samples → same buckets → quantiles within
        // one bucket (here: exactly equal) of the single-threaded run.
        for q in [0.5, 0.9, 0.99] {
            let (a, b) = (concurrent.quantile(q), reference.quantile(q));
            let (ba, bb) = (
                LatencyHistogram::bucket_index(a),
                LatencyHistogram::bucket_index(b),
            );
            assert!(ba.abs_diff(bb) <= 1, "q={q}: {a} vs {b}");
        }
    }

    fn trace_of(seq: u64, micros: u64) -> Arc<RequestTrace> {
        Arc::new(RequestTrace {
            seq,
            verb: Verb::View,
            target: "v/d".into(),
            ok: true,
            micros,
            phases: [(Phase::Eval, micros); MAX_PHASES],
            nphases: 1,
            method: None,
            prepared_hit: None,
            result_hit: None,
            plan: Vec::new(),
        })
    }

    #[test]
    fn ring_keeps_most_recent_in_order() {
        let ring = TraceRing::new(4);
        for i in 1..=10 {
            ring.push(trace_of(i, i));
        }
        assert_eq!(ring.pushed(), 10);
        let recent = ring.recent(3);
        let seqs: Vec<u64> = recent.iter().map(|t| t.seq).collect();
        assert_eq!(seqs, vec![10, 9, 8]);
        assert_eq!(ring.recent(100).len(), 4, "bounded by capacity");
    }

    #[test]
    fn slow_log_keeps_top_n_sorted() {
        let log = SlowLog::new(3);
        for (seq, micros) in [(1, 50), (2, 500), (3, 10), (4, 300), (5, 700), (6, 20)] {
            log.offer(&trace_of(seq, micros));
        }
        let slow: Vec<u64> = log.slowest().iter().map(|t| t.micros).collect();
        assert_eq!(slow, vec![700, 500, 300]);
        // Below-floor offers take the fast path and change nothing.
        log.offer(&trace_of(7, 5));
        assert_eq!(log.slowest().len(), 3);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::new(false);
        let trace = obs.begin(Verb::View, || unreachable!("lazy target must not run"));
        assert!(!trace.is_on());
        obs.finish(trace, 1000, true, Some("v"));
        obs.record_method(Method::TopDown, 1000);
        assert_eq!(obs.verb_histogram(Verb::View).count(), 0);
        assert_eq!(obs.method_histogram(Method::TopDown).count(), 0);
        assert_eq!(obs.requests_traced(), 0);
        assert!(obs.render_traces(4).contains("tracing disabled"));
    }

    #[test]
    fn finish_merges_phases_and_feeds_histograms() {
        let obs = Obs::new(true);
        let mut trace = obs.begin(Verb::Query, || "v/d".into());
        assert!(trace.is_on());
        trace.phase_micros(Phase::Eval, 30);
        trace.phase_micros(Phase::Cache, 5);
        trace.phase_micros(Phase::Eval, 20);
        trace.note_prepared(true);
        obs.finish(trace, 60, true, Some("v"));
        let t = &obs.recent_traces(1)[0];
        assert_eq!(t.phases(), &[(Phase::Eval, 50), (Phase::Cache, 5)]);
        assert_eq!(t.prepared_hit, Some(true));
        assert_eq!(obs.verb_histogram(Verb::Query).count(), 1);
        assert_eq!(obs.view_histogram("v").count(), 1);
        let rendered = t.render();
        assert!(rendered.contains("eval=50µs"), "{rendered}");
        assert!(rendered.contains("prepared=hit"), "{rendered}");
    }
}
