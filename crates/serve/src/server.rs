//! The concurrent transform-view server: the read side and the request
//! plumbing.
//!
//! [`Server`] owns a document store — immutable [`Document`]s behind
//! `Arc`, or file paths streamed without ever building a DOM — the
//! [`ViewRegistry`], two [`PreparedCache`]s (ad-hoc transforms by query
//! text, composed user queries by `(view, query)`), the
//! [`ViewResultCache`], and a [`ThreadPool`] for the batched and
//! asynchronous entry points. The write pipeline behind
//! [`Server::update_doc`] lives in `write.rs`, `EXPLAIN` / `ANALYZE` in
//! [`crate::explain`], streaming sessions in [`crate::session`]. Here:
//!
//! * **one request bracket** — `begin` / `finish` count, time and trace
//!   every request, whether it came through [`Server::handle`], a
//!   batch's grouped views, or a batch item whose worker panicked;
//! * **one cache fill** — `fill` evaluates, serializes and caches views
//!   for a private `VIEW` miss, a batch's grouped misses and the write
//!   path's eager refill alike. The views `rides_shared_pass` admits
//!   (single-link GENTOP) ride one [`multi_view_with_stats`] sweep and
//!   take `r[[p]]` from it; everything else goes through `materialize`.
//!
//! Every evaluation runs the method its [`CompiledTransform`] fixed at
//! compile time (GENTOP, or TD-BU when a qualifier has a `//` step).
//! `Server` is `Clone` (a cheap `Arc` handle) and every entry point
//! takes `&self`, so any number of client threads can call into one
//! server concurrently — including writers: updates serialize per
//! shard, readers keep their epoch.

use std::collections::HashMap;
use std::path::{Path as FsPath, PathBuf};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, RwLock};
use std::time::Instant;

use xust_compose::{compose, compose_two_pass_sax, ComposedQuery, UserQuery};
use xust_core::delta::TouchedLabels;
use xust_core::{
    multi_top_down, multi_view_with_stats, CompiledTransform, FragmentTree, Method,
    SharedViewResult, TransformQuery,
};
use xust_sax::SaxParser;
use xust_secview::Policy;
use xust_tree::{Document, Serialized};
use xust_xpath::eval_path_root;

use crate::cache::PreparedCache;
use crate::error::ServeError;
use crate::executor::ThreadPool;
use crate::obs::{Obs, Phase, Trace};
use crate::registry::{ViewBody, ViewDef, ViewRegistry};
use crate::stats::{bump, ServeStats, StatsSnapshot, Verb};
use crate::store::{DocStore, IndexCell, StoreSnapshot, VersionedDoc, WriteStamp};
use crate::viewcache::ViewResultCache;
use crate::wal::{Wal, WalRecord};
use crate::write::{frag_leaf_limit, handle_update};

// Moved out along the module's seams; the old paths keep working.
pub use crate::explain::{Analysis, Explanation, LinkPlan};
pub use crate::session::StreamingSession;

/// Where a named document lives.
#[derive(Debug, Clone)]
pub enum DocSource {
    /// Parsed once, shared immutably across all threads.
    Memory(Arc<Document>),
    /// On disk; requests stream it with bounded memory.
    File(PathBuf),
}

/// How a request resolves document names: a single request reads the
/// store's *current* epoch directly (one shard lock for its one
/// lookup), while batch items share one pinned [`StoreSnapshot`] so
/// every item sees the same document world.
pub(crate) enum DocView<'a> {
    Live(&'a DocStore),
    Pinned(&'a StoreSnapshot),
}

impl DocView<'_> {
    /// Resolves `name` together with the version of its content — read
    /// atomically (one shard read lock on the Live path; lock-free on a
    /// snapshot), so the returned source provably *is* the returned
    /// version. Pair with [`DocView::still_at`] before caching a result
    /// computed from the source.
    pub(crate) fn get_versioned(&self, name: &str) -> Result<(DocSource, u64), ServeError> {
        self.get_doc(name).map(|d| (d.source, d.version))
    }

    /// [`DocView::get_versioned`] with the version's serialized-index
    /// cell.
    fn get_doc(&self, name: &str) -> Result<VersionedDoc, ServeError> {
        match self {
            DocView::Live(store) => store.get_versioned(name),
            DocView::Pinned(snap) => snap.get_versioned(name).cloned(),
        }
        .ok_or_else(|| ServeError::UnknownDoc(name.to_string()))
    }

    /// True when a result computed from the source
    /// [`DocView::get_versioned`] returned at `version` still describes
    /// the document's current content — the guard that keeps a racing
    /// write from smuggling post-write content into the result cache
    /// under the pre-write tag (which a batch pinned to the old version
    /// would then wrongly hit). On the Live path time has passed since
    /// the versioned read, so the version must be re-checked; a snapshot
    /// is immutable, so its reads are always self-consistent (the
    /// result-cache insert guard keeps its possibly-old entry from ever
    /// downgrading a newer resident one).
    pub(crate) fn still_at(&self, name: &str, version: u64) -> bool {
        match self {
            DocView::Live(store) => store.version_of(name) == Some(version),
            DocView::Pinned(_) => true,
        }
    }
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Materialize view `view` of document `doc`.
    View {
        /// Registered view name.
        view: String,
        /// Loaded document name.
        doc: String,
    },
    /// Answer a user XQuery against the *virtual* view (composed when
    /// possible — the view is never materialized on this path).
    Query {
        /// Registered view name.
        view: String,
        /// Loaded document name.
        doc: String,
        /// The user query text.
        query: String,
    },
    /// Evaluate an ad-hoc transform query against a document.
    Transform {
        /// Loaded document name.
        doc: String,
        /// Concrete transform syntax.
        query: String,
    },
    /// Apply an update **to the stored document** — the live write path.
    /// The update is written in the same transform syntax (single or
    /// multi `modify do (…)`) and must read `doc("<doc>")`; it is applied
    /// copy-on-write into a fresh shard epoch, with delta-aware
    /// maintenance of cached view results. Always writes to the live
    /// store, even inside a batch running over a pinned snapshot.
    Update {
        /// Loaded document name (in-memory documents only).
        doc: String,
        /// Transform syntax whose embedded update(s) to apply.
        update: String,
    },
}

/// A served result.
#[derive(Debug, Clone)]
pub struct Response {
    /// Serialized XML result.
    pub body: String,
    /// The evaluation method that produced the body (None for cache
    /// hits, dead views, and composed queries, which run on the XQuery
    /// engine).
    pub method: Option<Method>,
    /// Wall-clock service time in microseconds.
    pub micros: u64,
    /// True when every prepared artifact this request needed came from
    /// cache (no parse, no NFA construction).
    pub cache_hit: bool,
}

/// What [`Server::attach_wal`] recovered before attaching the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalRecovery {
    /// Intact records replayed onto the server, in log order.
    pub applied: usize,
    /// True when the log ended in a torn or corrupt frame (dropped; a
    /// crash mid-append produces exactly this).
    pub truncated: bool,
}

/// Configures and builds a [`Server`].
pub struct ServerBuilder {
    threads: usize,
    shards: usize,
    cache_capacity: usize,
    result_capacity: usize,
    tracing: bool,
    patching: bool,
}

impl Default for ServerBuilder {
    fn default() -> ServerBuilder {
        ServerBuilder {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            shards: 8,
            cache_capacity: 256,
            result_capacity: 64,
            tracing: true,
            patching: true,
        }
    }
}

impl ServerBuilder {
    /// Worker threads for the batched/asynchronous entry points.
    pub fn threads(mut self, n: usize) -> ServerBuilder {
        self.threads = n;
        self
    }

    /// Document-store shards (see [`DocStore`]); default 8.
    pub fn shards(mut self, n: usize) -> ServerBuilder {
        self.shards = n;
        self
    }

    /// Capacity of each prepared cache.
    pub fn cache_capacity(mut self, n: usize) -> ServerBuilder {
        self.cache_capacity = n;
        self
    }

    /// Capacity of the materialized view-result cache (0 disables it);
    /// default 64. Entries survive writes when the delta relevance test
    /// proves them unaffected (see [`ViewResultCache`]).
    pub fn result_cache_capacity(mut self, n: usize) -> ServerBuilder {
        self.result_capacity = n;
        self
    }

    /// Per-request tracing and latency histograms (default on). Off,
    /// every recording path degenerates to a branch on a dead option —
    /// the `--no-trace` mode the `obs_overhead` bench row compares
    /// against. Counters in [`ServeStats`] always run.
    pub fn tracing(mut self, on: bool) -> ServerBuilder {
        self.tracing = on;
        self
    }

    /// Provenance-annotated in-place result patching (default on).
    /// Off, cached view results carry no fragment trees and writes fall
    /// back to retain-or-recompute — the mode the `ivm_patch` bench row
    /// compares against.
    pub fn patching(mut self, on: bool) -> ServerBuilder {
        self.patching = on;
        self
    }

    /// Builds the server.
    pub fn build(self) -> Server {
        Server {
            inner: Arc::new(Inner {
                docs: DocStore::new(self.shards),
                registry: ViewRegistry::new(),
                transforms: PreparedCache::new(self.cache_capacity),
                composed: PreparedCache::new(self.cache_capacity),
                results: ViewResultCache::new(self.result_capacity),
                stats: ServeStats::default(),
                obs: Obs::new(self.tracing),
                pool: ThreadPool::new(self.threads),
                wal: RwLock::new(None),
                patching: self.patching,
            }),
        }
    }
}

pub(crate) struct Inner {
    pub(crate) docs: DocStore,
    pub(crate) registry: ViewRegistry,
    pub(crate) transforms: PreparedCache<CompiledTransform>,
    pub(crate) composed: PreparedCache<ComposedQuery>,
    pub(crate) results: ViewResultCache,
    pub(crate) stats: ServeStats,
    pub(crate) obs: Obs,
    pub(crate) pool: ThreadPool,
    /// The attached write-ahead log, if any ([`Server::attach_wal`]).
    /// Every applied write appends its record *inside* the owning
    /// shard's write lock, so log order equals install order.
    // lock-order: this RwLock is only ever taken alone (clone the Arc
    // out, then release); the Wal's internal mutex nests inside a
    // DocStore shard write lock, never the reverse.
    pub(crate) wal: RwLock<Option<Arc<Wal>>>,
    /// Whether cached view results carry provenance fragment trees and
    /// single-rule writes may patch them in place (see
    /// [`ServerBuilder::patching`]).
    pub(crate) patching: bool,
}

/// The sharing rule: true when `def` rides the cache fill's shared
/// factorised sweep — a live single-link view whose compiled method is
/// GENTOP. The sweep checks qualifiers natively, like GENTOP, so a view
/// the method rule sends to TD-BU keeps its private pass.
fn rides_shared_pass(def: &ViewDef) -> bool {
    !def.analysis.dead && def.single().is_some_and(|l| l.method() == Method::TopDown)
}

/// See the module docs.
#[derive(Clone)]
pub struct Server {
    pub(crate) inner: Arc<Inner>,
}

impl Server {
    /// Starts configuring a server.
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    /// A server with default configuration.
    pub fn new() -> Server {
        ServerBuilder::default().build()
    }

    // ---- documents ----

    /// Loads (or replaces) an in-memory document. Copy-on-write into a
    /// fresh shard epoch: in-flight requests holding snapshots keep
    /// reading the old version. A reload is an unbounded delta, so
    /// exactly this document's view-result cache shard is dropped —
    /// entries of every other document are untouched (contrast
    /// [`Server::update_doc`], which maintains them). A reload also
    /// bumps the document's version, so an entry for the dead lineage
    /// that slips in late can never be served. Returns the install's
    /// [`WriteStamp`] — the version reported there is exactly the one
    /// this content was installed at (re-reading it later races other
    /// writers).
    pub fn load_doc(&self, name: impl Into<String>, doc: Document) -> WriteStamp {
        self.try_load_doc(name, doc)
            .expect("WAL append failed — use try_load_doc to handle it")
    }

    /// [`Server::load_doc`], surfacing write-ahead-log append failures:
    /// with a WAL attached, the `Load` record is appended (under the
    /// owning shard's write lock) before the document is installed, and
    /// on append failure nothing is installed at all.
    pub fn try_load_doc(
        &self,
        name: impl Into<String>,
        doc: Document,
    ) -> Result<WriteStamp, ServeError> {
        let name = name.into();
        let doc = Arc::new(doc);
        // The log keeps the installed bytes, so replay needs no source
        // file.
        let xml = Arc::clone(&doc);
        self.install(name.clone(), DocSource::Memory(doc), || WalRecord::Load {
            doc: name,
            xml: xml.serialize(),
        })
    }

    /// Parses and loads a document from XML text.
    pub fn load_doc_str(
        &self,
        name: impl Into<String>,
        xml: &str,
    ) -> Result<WriteStamp, ServeError> {
        let doc = match Document::parse(xml) {
            Ok(doc) => doc,
            Err(e) => {
                self.inner.stats.record_verb(Verb::Load, false);
                return Err(ServeError::Parse(e.to_string()));
            }
        };
        self.try_load_doc(name, doc)
    }

    /// Registers a file-backed document, served via the streaming path.
    /// The WAL logs the *path* (not the bytes): replay re-registers it,
    /// so a file that changed between crash and restart is served with
    /// its new content — the documented limitation of file-backed docs.
    pub fn load_doc_file(
        &self,
        name: impl Into<String>,
        path: impl Into<PathBuf>,
    ) -> Result<WriteStamp, ServeError> {
        let path = path.into();
        if !path.is_file() {
            self.inner.stats.record_verb(Verb::Load, false);
            return Err(ServeError::Io(format!("{}: not a file", path.display())));
        }
        let name = name.into();
        self.install(name.clone(), DocSource::File(path.clone()), || {
            WalRecord::LoadFile {
                doc: name,
                path: path.display().to_string(),
            }
        })
    }

    /// Installs `source` under `name` — a `LOAD` — and drops the
    /// document's view-result cache shard. With a WAL attached, the
    /// record is built outside the shard lock and appended under it
    /// before the install, so on append failure nothing is installed.
    fn install(
        &self,
        name: String,
        source: DocSource,
        record: impl FnOnce() -> WalRecord,
    ) -> Result<WriteStamp, ServeError> {
        let wal = self.wal_handle();
        let record = wal.as_ref().map(|_| record());
        let installed = self.inner.docs.insert_with(name.clone(), source, |_| {
            // lock-order: shard write lock → Wal mutex.
            log(wal.as_deref(), || {
                record.expect("built for the attached log")
            })
        });
        if installed.is_ok() {
            self.inner.results.purge_doc(&name);
        }
        self.inner.stats.record_verb(Verb::Load, installed.is_ok());
        installed
    }

    /// Unloads a document; true if it existed. Snapshots taken before
    /// the removal keep serving it until they drop. The document's
    /// view-result cache shard is dropped with it, and its version is
    /// retired — a re-created document under the same name draws a
    /// strictly larger version, so entries for the dead lineage can
    /// never hit again.
    pub fn remove_doc(&self, name: &str) -> bool {
        self.try_remove_doc(name)
            .expect("WAL append failed — use try_remove_doc to handle it")
    }

    /// [`Server::remove_doc`], surfacing write-ahead-log append
    /// failures: with a WAL attached, the `Remove` record is appended
    /// (under the owning shard's write lock) before the removal is
    /// installed, and on append failure the document stays.
    pub fn try_remove_doc(&self, name: &str) -> Result<bool, ServeError> {
        let wal = self.wal_handle();
        let removed = self.inner.docs.remove_with(name, || {
            // lock-order: shard write lock → Wal mutex.
            log(wal.as_deref(), || WalRecord::Remove {
                doc: name.to_string(),
            })
        })?;
        if removed {
            self.inner.results.purge_doc(name);
            // The per-doc stats row goes with the document (a server
            // with name churn must not accumulate rows forever).
            self.inner.stats.forget_doc(name);
        }
        self.inner.stats.record_verb(Verb::Remove, removed);
        Ok(removed)
    }

    /// Loaded document names, sorted.
    pub fn doc_names(&self) -> Vec<String> {
        self.inner.docs.snapshot().names()
    }

    /// The backing path of a file-backed document, if `name` is one —
    /// what a protocol front end needs to drive a streaming session
    /// from disk.
    pub fn doc_path(&self, name: &str) -> Option<PathBuf> {
        match self.inner.docs.get(name) {
            Some(DocSource::File(path)) => Some(path),
            _ => None,
        }
    }

    /// The sharded document store (snapshot counters, epochs, shard
    /// layout) — exposed for observability and tests.
    pub fn store(&self) -> &DocStore {
        &self.inner.docs
    }

    // ---- durability ----

    /// The attached WAL, cloned out so no caller ever holds the
    /// registration lock while appending.
    pub(crate) fn wal_handle(&self) -> Option<Arc<Wal>> {
        self.inner.wal.read().expect("wal lock poisoned").clone()
    }

    /// The attached WAL's path, if one is attached.
    pub fn wal_path(&self) -> Option<PathBuf> {
        self.wal_handle().map(|w| w.path().to_path_buf())
    }

    /// Forces everything appended to the attached WAL so far to stable
    /// storage (`fsync`); a no-op without a WAL. Per-record appends
    /// flush to the OS only — see the [`crate::wal`] durability notes.
    pub fn sync_wal(&self) -> Result<(), ServeError> {
        match self.wal_handle() {
            Some(w) => w
                .sync()
                .map_err(|e| ServeError::Io(format!("wal sync: {e}"))),
            None => Ok(()),
        }
    }

    /// Replays the write-ahead log at `path` onto this server, then
    /// opens it for appending and attaches it: every subsequently
    /// *applied* `UPDATE`/`LOAD`/`REMOVE` is logged before its reply.
    /// A missing file is an empty log (fresh start); a torn tail —
    /// what a crash mid-append leaves — is dropped and reported in
    /// [`WalRecovery::truncated`].
    ///
    /// Replay runs through the normal write paths (updates re-run
    /// cache maintenance), with logging detached, so recovered state is
    /// exactly what a live server that applied the same writes holds —
    /// the crash-recovery tests assert byte-identical views. Call this
    /// before loading any other documents: names the log recreates
    /// would otherwise be overwritten by the replay.
    pub fn attach_wal(&self, path: impl AsRef<FsPath>) -> Result<WalRecovery, ServeError> {
        let path = path.as_ref();
        let replay = Wal::replay(path).map_err(|e| ServeError::Io(format!("wal replay: {e}")))?;
        let (records, truncated) = (replay.records, replay.truncated);
        if truncated {
            // Drop the torn tail before reopening for append: records
            // appended after leftover garbage would be unreachable to
            // every later replay (it stops at the first bad frame).
            Wal::truncate_to(path, replay.valid_len)
                .map_err(|e| ServeError::Io(format!("wal truncate: {e}")))?;
        }
        let applied = records.len();
        for record in records {
            match record {
                WalRecord::Load { doc, xml } => {
                    self.load_doc_str(doc, &xml)?;
                }
                WalRecord::LoadFile { doc, path } => {
                    self.load_doc_file(doc, path)?;
                }
                WalRecord::Remove { doc } => {
                    self.try_remove_doc(&doc)?;
                }
                WalRecord::Update { doc, text } => {
                    self.update_doc(&doc, &text)?;
                }
            }
        }
        let wal = Wal::open(path).map_err(|e| ServeError::Io(format!("wal open: {e}")))?;
        *self.inner.wal.write().expect("wal lock poisoned") = Some(Arc::new(wal));
        // Recovery is part of the server's operational record: surface
        // it in STATS/METRICS, not just the attach call's return value.
        bump(&self.inner.stats.wal_recovered, applied as u64);
        bump(&self.inner.stats.wal_truncations, u64::from(truncated));
        Ok(WalRecovery { applied, truncated })
    }

    /// Counts a client lost before the protocol loop could start (e.g.
    /// a failed `try_clone` after accept) under the `conn` pseudo-verb,
    /// so `METRICS` sees dropped clients a failed accept log line alone
    /// would hide.
    pub fn record_conn_failure(&self) {
        self.inner.stats.record_verb(Verb::Conn, false);
    }

    // ---- views ----

    /// Registers a single-transform view. Re-registering a name drops
    /// any cached results computed under its old definition — unless
    /// the static analysis proves the new body equivalent to the old
    /// one (or to another live view), in which case the definition
    /// joins that containment class's cache family and its warm
    /// results keep serving.
    pub fn register_view(&self, name: &str, query: &str) -> Result<(), ServeError> {
        let def = self.inner.registry.register(name, query)?;
        self.after_register(&def);
        Ok(())
    }

    /// Registers a chain view (what-if scenario stacking).
    pub fn register_view_chain(&self, name: &str, queries: &[&str]) -> Result<(), ServeError> {
        let def = self.inner.registry.register_chain(name, queries)?;
        self.after_register(&def);
        Ok(())
    }

    /// Registers a security policy as a view named after its group.
    pub fn register_policy(&self, policy: &Policy) -> Result<(), ServeError> {
        let def = self.inner.registry.register_policy(policy)?;
        self.after_register(&def);
        Ok(())
    }

    /// Post-registration cache hygiene: purge results only for a fresh
    /// cache family. An adopted family means the body is provably
    /// equivalent to the family's representative, so existing results
    /// are still byte-correct for this definition.
    fn after_register(&self, def: &ViewDef) {
        if def.cache_generation == def.generation {
            self.inner.results.purge_view(&def.cache_key);
        }
    }

    /// Unregisters a view; true if it existed. Cached results computed
    /// under the definition are purged with it (across every document's
    /// cache shard) unless another live view still shares its cache
    /// family — a later re-registration starts from a clean slate
    /// *and* a fresh generation, so a straggling insert of the old
    /// definition's result can never be served.
    pub fn remove_view(&self, name: &str) -> bool {
        match self.inner.registry.remove(name) {
            Some(def) => {
                if !self.inner.registry.family_in_use(&def.cache_key) {
                    self.inner.results.purge_view(&def.cache_key);
                }
                true
            }
            None => false,
        }
    }

    /// Registered view names, sorted.
    pub fn view_names(&self) -> Vec<String> {
        self.inner.registry.names()
    }

    // ---- serving ----

    /// Handles one request synchronously. Safe to call from any number
    /// of threads at once. A single request resolves its one document
    /// against the store's current epoch directly (one shard lock —
    /// no cross-shard snapshot on the hot path); consistency across
    /// *several* lookups is what [`Server::execute_batch`] and
    /// streaming sessions use snapshots for.
    pub fn handle(&self, request: &Request) -> Result<Response, ServeError> {
        self.handle_in(request, &DocView::Live(&self.inner.docs))
    }

    /// Handles one request against an explicit document view — the unit
    /// of work the batch executor fans out (one pinned snapshot per
    /// batch, so all items see the same document world).
    fn handle_in(&self, request: &Request, docs: &DocView<'_>) -> Result<Response, ServeError> {
        let (verb, view) = request.verb_and_view();
        let mut b = self.begin(verb, || request.target());
        let rt = &mut b.rt;
        let result = match request {
            Request::View { view: v, doc } => self.handle_view(docs, v, doc, rt),
            Request::Query {
                view: v,
                doc,
                query,
            } => self.handle_query(docs, v, doc, query, rt),
            Request::Transform { doc, query } => self.handle_transform(docs, doc, query, rt),
            // Writes always go to the live store — a pinned batch
            // snapshot is a *read* consistency device.
            Request::Update { doc, update } => handle_update(self, doc, update, rt),
        };
        self.finish(b, view, result)
    }

    /// Opens a request's accounting bracket: counts the request and
    /// begins its trace. The target string is built lazily — with
    /// tracing off, the closure never runs (no allocation on the fast
    /// path).
    fn begin(&self, verb: Verb, target: impl FnOnce() -> String) -> Bracket {
        bump(&self.inner.stats.requests, 1);
        Bracket {
            verb,
            started: Instant::now(),
            rt: self.inner.obs.begin(verb, target),
        }
    }

    /// Closes a request's bracket with its outcome: busy time, the
    /// per-verb series, the failure total, the view's latency cell
    /// (merged lock-free when several workers report for one view), and
    /// the trace. A response is stamped with its service time.
    fn finish(
        &self,
        b: Bracket,
        view: Option<&str>,
        result: Result<Response, ServeError>,
    ) -> Result<Response, ServeError> {
        let stats = &self.inner.stats;
        let Bracket {
            verb,
            started,
            mut rt,
        } = b;
        let micros = started.elapsed().as_micros() as u64;
        bump(&stats.busy_micros, micros);
        stats.record_verb(verb, result.is_ok());
        match &result {
            Ok(resp) => {
                if let Some(view) = view {
                    stats.record_view_latency(view, micros as f64);
                }
                if let Some(m) = resp.method {
                    rt.set_method(m);
                }
            }
            Err(_) => bump(&stats.failures, 1),
        }
        self.inner.obs.finish(rt, micros, result.is_ok(), view);
        result.map(|resp| Response { micros, ..resp })
    }

    /// Enqueues one request on the worker pool; the receiver yields the
    /// result when it completes.
    pub fn submit(&self, request: Request) -> Receiver<Result<Response, ServeError>> {
        let server = self.clone();
        self.inner.pool.submit(move || server.handle(&request))
    }

    /// The batched multi-document entry point: takes **one** store
    /// snapshot (every item sees the same consistent document world) and
    /// fans the batch across the resident worker pool with work-stealing
    /// ([`ThreadPool::run_batch`]), so one slow request never serializes
    /// the rest while total concurrency stays bounded by the pool size
    /// even under many simultaneous batch callers. Results come back in
    /// request order; per-item latencies are merged into the per-view
    /// latency cells as each item completes.
    ///
    /// `VIEW` items are additionally **grouped by document**: co-resident
    /// single-link GENTOP views of the same in-memory document fill
    /// their misses with one shared factorised pass
    /// ([`multi_view_with_stats`]) instead of one full tree sweep each —
    /// the `shared_passes` / `shared_pass_views` counters report how
    /// often that happened.
    pub fn execute_batch(&self, requests: Vec<Request>) -> Vec<Result<Response, ServeError>> {
        bump(&self.inner.stats.batches, 1);
        bump(&self.inner.stats.batch_items, requests.len() as u64);
        let snap = Arc::new(self.inner.docs.snapshot());
        // Group `VIEW` items by document. Only views that ride the
        // shared pass (`rides_shared_pass`) of in-memory documents are
        // grouped; a group of one gains nothing and stays private.
        let mut by_doc: HashMap<&str, Vec<usize>> = HashMap::new();
        for (i, req) in requests.iter().enumerate() {
            if let Request::View { view, doc } = req {
                let groupable = matches!(snap.get(doc), Some(DocSource::Memory(_)))
                    && self
                        .inner
                        .registry
                        .get(view)
                        .is_some_and(|def| rides_shared_pass(&def));
                if groupable {
                    by_doc.entry(doc).or_default().push(i);
                }
            }
        }
        let groups: Vec<Vec<usize>> = by_doc.into_values().filter(|g| g.len() >= 2).collect();
        let mut grouped = vec![false; requests.len()];
        for &i in groups.iter().flatten() {
            grouped[i] = true;
        }
        // A job is the request indices it serves: one private item, or
        // a group of two or more views of one document.
        let jobs: Vec<Vec<usize>> = (0..requests.len())
            .filter(|&i| !grouped[i])
            .map(|i| vec![i])
            .chain(groups)
            .collect();
        let requests = Arc::new(requests);
        let (server, reqs) = (self.clone(), Arc::clone(&requests));
        let (raw, steal) = self.inner.pool.run_batch(jobs.clone(), move |_, job| {
            let docs = DocView::Pinned(&snap);
            match job[..] {
                [i] => vec![(i, server.handle_in(&reqs[i], &docs))],
                _ => server.handle_view_group(&reqs, job, &docs),
            }
        });
        bump(&self.inner.stats.batch_steals, steal.steals);
        let mut out: Vec<Option<Result<Response, ServeError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (job, job_result) in jobs.iter().zip(raw) {
            match job_result {
                Some(pairs) => {
                    for (i, r) in pairs {
                        out[i] = Some(r);
                    }
                }
                None => {
                    // The worker panicked mid-job: the panic unwound
                    // past the items' brackets, so each item gets its
                    // failure here instead. (An item the job had
                    // already *finished* before the panic is counted
                    // as both a success and this failure; the panic
                    // discarded its result either way.)
                    for &i in job {
                        out[i] = Some(Err(self.account_worker_panic(&requests[i])));
                    }
                }
            }
        }
        out.into_iter()
            .map(|r| r.unwrap_or_else(|| Err(ServeError::Eval("worker panicked".into()))))
            .collect()
    }

    /// The failure bracket for a batch item whose worker panicked, so
    /// `METRICS` and `TRACE` reflect panicked items like any other
    /// failure. Returns the error the caller stores in the item's slot.
    fn account_worker_panic(&self, request: &Request) -> ServeError {
        let (verb, view) = request.verb_and_view();
        let b = self.begin(verb, || request.target());
        let failed = Err(ServeError::Eval("worker panicked".into()));
        self.finish(b, view, failed)
            .expect_err("a failure stays a failure")
    }

    /// Serves a batch's grouped `VIEW` items (`group` indexes
    /// `requests`) — several single-link GENTOP views of one in-memory
    /// document — with at most **one** cache fill: each item gets its
    /// own request bracket, cache hits peel off first, then every miss
    /// rides the same fill (and so the same shared sweep). Items whose
    /// grouping preconditions raced away (view re-registered, document
    /// replaced or removed) take the private `handle_in` path instead.
    fn handle_view_group(
        &self,
        requests: &[Request],
        group: Vec<usize>,
        docs: &DocView<'_>,
    ) -> Vec<(usize, Result<Response, ServeError>)> {
        let names = |i: usize| match &requests[i] {
            Request::View { view, doc } => (view.as_str(), doc.as_str()),
            _ => unreachable!("only VIEW items are grouped"),
        };
        let doc = names(group[0]).1;
        let mut out: Vec<(usize, Result<Response, ServeError>)> = Vec::with_capacity(group.len());
        // Re-check the grouping preconditions (registration and the
        // snapshot can have moved since `execute_batch` scanned).
        let resolved = docs.get_versioned(doc);
        let mut shared: Vec<(usize, &str, Arc<ViewDef>)> = Vec::new();
        for i in group {
            let view = names(i).0;
            match (&resolved, self.inner.registry.get(view)) {
                (Ok((DocSource::Memory(_), _)), Some(def)) if rides_shared_pass(&def) => {
                    shared.push((i, view, def))
                }
                _ => out.push((i, self.handle_in(&requests[i], docs))),
            }
        }
        let Ok((DocSource::Memory(base), version)) = resolved else {
            return out;
        };
        let mut pending: Vec<(usize, &str, Bracket)> = Vec::new();
        let mut defs: Vec<Arc<ViewDef>> = Vec::new();
        for (i, view, def) in shared {
            let mut b = self.begin(Verb::View, || format!("{view}/{doc}"));
            bump(&self.inner.stats.view_requests, 1);
            match self.cached(&def, doc, version, &mut b.rt) {
                Some(hit) => out.push((i, self.finish(b, Some(view), Ok(hit)))),
                None => {
                    pending.push((i, view, b));
                    defs.push(def);
                }
            }
        }
        let mut rts: Vec<&mut Trace> = pending.iter_mut().map(|(_, _, b)| &mut b.rt).collect();
        let filled = self.fill(doc, version, docs, &base, &defs, &mut rts);
        for ((i, view, b), r) in pending.into_iter().zip(filled) {
            let resp = r.map(|(body, method)| Response::filled(body, method));
            out.push((i, self.finish(b, Some(view), resp)));
        }
        out
    }

    // ---- the live write path ----

    /// Applies an update — written in transform syntax, single or multi
    /// `modify do (…)` — **destructively** to the stored in-memory
    /// document `doc`, copy-on-write into a fresh shard epoch:
    ///
    /// 1. the update is parsed (and, for single updates, NFA-compiled
    ///    through the prepared cache — repeat update shapes skip parse
    ///    and automaton construction like repeat reads do);
    /// 2. with its WAL record appended first, the embedded updates are
    ///    applied in order to a clone of the current epoch's tree
    ///    (reusing the arena free-list for every deleted or replaced
    ///    subtree), while the labels the write actually touches are
    ///    collected as the *dynamic delta*;
    /// 3. every cached view result for this document takes one fate
    ///    ([`ViewResultCache::maintain`]): *retained* when the delta
    ///    relevance test proves it unaffected (the same updates are
    ///    replayed on the cached materialization), *patched* in place
    ///    when a single-rule write localizes to a few fragments, or
    ///    *recomputed* — dropped, and counted per view and per reason in
    ///    STATS;
    /// 4. the new tree is installed as the shard's next epoch (in-flight
    ///    readers and snapshots keep the old epoch until they drop), and
    ///    every dropped single-link entry is refilled eagerly over it —
    ///    its GENTOP views in one shared sweep.
    ///
    /// All-or-nothing: a parse error, a doc-name mismatch, a failed WAL
    /// append, an unknown or file-backed document leave the epoch, the
    /// stored tree, and every cached entry exactly as they were.
    pub fn update_doc(&self, doc: &str, update: &str) -> Result<Response, ServeError> {
        self.handle(&Request::Update {
            doc: doc.into(),
            update: update.into(),
        })
    }

    // ---- introspection ----

    /// Current counter snapshot, with the table's `filled` rows read
    /// from their owners: result-cache hits and misses (the cache's own
    /// counters are the single source of truth), and the executor,
    /// store, cache and registry gauges.
    pub fn stats(&self) -> StatsSnapshot {
        fn cache_row<V>(c: &PreparedCache<V>) -> [u64; 5] {
            let (len, cap) = (c.len() as u64, c.capacity() as u64);
            [len, cap, c.hits(), c.misses(), c.evictions()]
        }
        let i = &self.inner;
        let mut snap = i.stats.snapshot();
        snap.result_hits = i.results.hits();
        snap.result_misses = i.results.misses();
        snap.executor_in_flight = i.pool.in_flight();
        snap.executor_threads = i.pool.threads() as u64;
        snap.store_active_snapshots = i.docs.active_snapshots() as u64;
        snap.store_snapshots = i.docs.snapshots_taken();
        snap.store_shards = i.docs.shard_count() as u64;
        snap.store_docs = i.docs.len() as u64;
        snap.result_cache_entries = i.results.len() as u64;
        snap.result_cache_docs = i.results.doc_count() as u64;
        snap.result_cache_bytes = i.results.heap_bytes() as u64;
        snap.views_registered = i.registry.names().len() as u64;
        snap.requests_traced = i.obs.requests_traced();
        snap.prepared_caches = vec![
            ("transforms", cache_row(&i.transforms)),
            ("composed", cache_row(&i.composed)),
        ];
        snap
    }

    /// The materialized view-result cache (hit/miss counters, entry
    /// count) — exposed for observability and tests.
    pub fn view_results(&self) -> &ViewResultCache {
        &self.inner.results
    }

    /// Compilations performed registering views (once per link, ever).
    pub fn registration_compiles(&self) -> u64 {
        self.inner.registry.compiles()
    }

    /// The observability state (histograms, trace ring, slow log).
    pub fn obs(&self) -> &Obs {
        &self.inner.obs
    }

    /// Switches request tracing on or off at runtime (the builder's
    /// [`ServerBuilder::tracing`] sets the initial state). Existing
    /// traces and histograms are kept; only future requests change.
    pub fn set_tracing(&self, on: bool) {
        self.inner.obs.set_enabled(on);
    }

    /// Renders the `METRICS` reply: the counter table's Prometheus
    /// exposition ([`StatsSnapshot::render_prometheus`]) plus the
    /// latency histograms. The `METRICS` request itself is counted
    /// first, so it appears in its own output.
    pub fn metrics(&self) -> String {
        self.inner.stats.record_verb(Verb::Metrics, true);
        let mut out = self.stats().render_prometheus();
        self.inner.obs.render_histograms(&mut out);
        out
    }

    /// Renders the `TRACE [n]` reply: the last `n` completed request
    /// traces (newest first) plus the slowest-seen log, one line per
    /// trace with its phase breakdown.
    pub fn traces(&self, n: usize) -> String {
        self.inner.stats.record_verb(Verb::Trace, true);
        self.inner.obs.render_traces(n)
    }

    // ---- request handlers ----

    fn handle_transform(
        &self,
        docs: &DocView<'_>,
        doc: &str,
        query: &str,
        rt: &mut Trace,
    ) -> Result<Response, ServeError> {
        let stats = &self.inner.stats;
        bump(&stats.transform_requests, 1);
        let t = rt.start();
        let stored = docs.get_doc(doc)?;
        rt.phase(Phase::Snapshot, t);
        let t = rt.start();
        let (ct, hit) = self.inner.transforms.get_or_try_insert(query, || {
            bump(&stats.compiles, 1);
            CompiledTransform::parse(query).map_err(|e| ServeError::Parse(e.to_string()))
        })?;
        rt.phase(Phase::Cache, t);
        self.note_cache(hit);
        rt.note_prepared(hit);
        match stored.source {
            DocSource::Memory(d) => {
                let method = ct.method();
                rt.note_plan(|| format!("transform: nodes={} method={method}", d.arena_len()));
                let index = self.serialized(&d, &stored.serialized, rt);
                let t = Instant::now();
                // One pass writes the reply bytes: no result tree is
                // built, so the eval phase covers serialization too.
                let mut body = String::new();
                ct.evaluate_into(&d, index, method, &mut body)
                    .map_err(|e| ServeError::Eval(e.to_string()))?;
                self.evaluated(method, t, rt);
                Ok(Response {
                    body,
                    method: Some(method),
                    micros: 0,
                    cache_hit: hit,
                })
            }
            DocSource::File(path) => Ok(Response {
                body: self.stream_file(&ct, &path, "transform", rt)?,
                method: Some(Method::TwoPassSax),
                micros: 0,
                cache_hit: hit,
            }),
        }
    }

    fn handle_view(
        &self,
        docs: &DocView<'_>,
        view: &str,
        doc: &str,
        rt: &mut Trace,
    ) -> Result<Response, ServeError> {
        bump(&self.inner.stats.view_requests, 1);
        let def = self
            .inner
            .registry
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_string()))?;
        // Source and version are read atomically; the fill re-checks the
        // version before caching (see `fill`).
        let t = rt.start();
        let (source, version) = docs.get_versioned(doc)?;
        rt.phase(Phase::Snapshot, t);

        if let DocSource::Memory(base) = &source {
            // A statically dead view selects nothing on any document:
            // the materialization *is* the base document. Serve it
            // directly — no evaluation, and no result-cache entry to
            // maintain (the registration-time analysis already warned
            // about the view).
            if def.analysis.dead {
                let t = rt.start();
                let body = base.serialize();
                rt.phase(Phase::Serialize, t);
                return Ok(Response {
                    body,
                    method: None, // no evaluation ran at all
                    micros: 0,
                    cache_hit: true,
                });
            }
            // In-memory chain views are answered from the maintained
            // view-result cache when the entry matches this document
            // version (and this view definition's cache family
            // generation) exactly, and filled on a miss. Entries are
            // keyed by the definition's *cache family*
            // ([`ViewDef::cache_key`]) — provably equivalent views share
            // one entry per document version.
            if matches!(&def.body, ViewBody::Chain(_)) {
                if let Some(hit) = self.cached(&def, doc, version, rt) {
                    return Ok(hit);
                }
                let filled = self.fill(doc, version, docs, base, &[def], &mut [rt]);
                let (body, method) = filled.into_iter().next().expect("one view filled")?;
                return Ok(Response::filled(body, method));
            }
        }

        // File-backed, single-link chains stream end to end.
        if let (DocSource::File(path), Some(link)) = (&source, def.single()) {
            let body = self.stream_file(link, path, "link0", rt)?;
            return Ok(Response::filled(body, Some(Method::TwoPassSax)));
        }

        // Fused multi-update views, and multi-link chains over a
        // file-backed document: evaluated per request, never cached.
        let t = rt.start();
        let base = self.base_document(&source)?;
        rt.phase(Phase::Parse, t);
        let (out, method) = self.materialize(&def, &base, None, rt)?;
        let t = rt.start();
        let body = out.serialize();
        rt.phase(Phase::Serialize, t);
        Ok(Response::filled(body, method))
    }

    /// Probes the result cache for `def` over `doc` at `version`. Hit
    /// and miss accounting lives in the cache itself (surfaced through
    /// [`Server::stats`]).
    fn cached(&self, def: &ViewDef, doc: &str, version: u64, rt: &mut Trace) -> Option<Response> {
        let t = rt.start();
        let found = self
            .inner
            .results
            .get(&def.cache_key, doc, version, def.cache_generation);
        rt.phase(Phase::Cache, t);
        rt.note_result(found.is_some());
        found.map(|body| Response {
            body,
            method: None, // no evaluation ran at all
            micros: 0,
            cache_hit: true,
        })
    }

    /// The one cache fill: evaluates each of `defs` (live chain views)
    /// over `base` — the source `docs` resolved for `doc` at `version` —
    /// serializes the result through its fragment tree, and caches both
    /// with its touched labels. Returns each view's body and method, in
    /// `defs` order.
    ///
    /// Single-link GENTOP views (`rides_shared_pass`) ride one
    /// [`multi_view_with_stats`] sweep and take `r[[p]]` from it (the
    /// sweep collects nested matches under deleted nodes too), so they
    /// run no separate selection walk. Every other view goes through
    /// `materialize`. Each evaluated view counts once in the method
    /// counters and histogram. `rts[i]` is charged view `i`'s evaluation
    /// — for a swept view the whole sweep, which is what it waited on —
    /// and its serialization.
    pub(crate) fn fill(
        &self,
        doc: &str,
        version: u64,
        docs: &DocView<'_>,
        base: &Arc<Document>,
        defs: &[Arc<ViewDef>],
        rts: &mut [&mut Trace],
    ) -> Vec<Result<(String, Option<Method>), ServeError>> {
        let inner = &self.inner;
        let mut swept: Vec<Option<SharedViewResult>> = defs.iter().map(|_| None).collect();
        let riders: Vec<usize> = (0..defs.len())
            .filter(|&i| rides_shared_pass(&defs[i]))
            .collect();
        if !riders.is_empty() {
            let queries: Vec<&TransformQuery> = riders
                .iter()
                .map(|&i| defs[i].single().expect("riders are single-link").query())
                .collect();
            let t = Instant::now();
            let (results, mv) = multi_view_with_stats(base, &queries);
            // A sweep that carries one view shares nothing, so only
            // sweeps of two or more views count as shared passes.
            if mv.shared_views >= 2 {
                bump(&inner.stats.shared_passes, mv.passes as u64);
                bump(&inner.stats.shared_pass_views, mv.shared_views as u64);
            }
            for (&i, r) in riders.iter().zip(results) {
                rts[i].note_plan(|| {
                    let (nodes, m) = (base.arena_len(), Method::TopDown);
                    format!("link0: nodes={nodes} method={m} views={}", riders.len())
                });
                self.evaluated(Method::TopDown, t, rts[i]);
                swept[i] = Some(r);
            }
        }
        let leaf_limit = frag_leaf_limit(base);
        defs.iter()
            .zip(swept)
            .zip(rts.iter_mut())
            .map(|((def, swept), rt)| {
                let mut touched = TouchedLabels::new();
                let (out, method) = match (swept, def.single()) {
                    (Some(r), Some(link)) => {
                        touched.record(base, &r.targets, &link.query().op);
                        (r.doc, Some(Method::TopDown))
                    }
                    _ => self.materialize(def, base, Some(&mut touched), rt)?,
                };
                let t = rt.start();
                let opaque = || FragmentTree::opaque(base, &out);
                let mut frags = def.single().map_or_else(opaque, |link| {
                    FragmentTree::build(base, &out, link.query(), link.selecting(), leaf_limit)
                });
                let body = frags.assemble(&out);
                // Cache only if no write landed since the versioned
                // read: the version re-check keeps a racing write from
                // tagging post-write content with the pre-write version
                // (a write between the check and the insert is fine —
                // its maintenance sweep drops entries not at its
                // pre-write version, and `insert` never downgrades a
                // newer resident entry).
                if docs.still_at(doc, version) {
                    inner.results.insert(
                        &def.cache_key,
                        doc,
                        version,
                        def.cache_generation,
                        out,
                        def.alphabet.clone(),
                        touched,
                        frags,
                    );
                }
                rt.phase(Phase::Serialize, t);
                Ok((body, method))
            })
            .collect()
    }

    fn handle_query(
        &self,
        docs: &DocView<'_>,
        view: &str,
        doc: &str,
        query: &str,
        rt: &mut Trace,
    ) -> Result<Response, ServeError> {
        bump(&self.inner.stats.query_requests, 1);
        let def = self
            .inner
            .registry
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_string()))?;
        let t = rt.start();
        let (source, _) = docs.get_versioned(doc)?;
        rt.phase(Phase::Snapshot, t);

        if let Some(link) = def.single() {
            // File-backed: streaming composition over the unparsed
            // file. The composed-query cache is DOM-only, so this path
            // parses the user query per request and bypasses the cache
            // entirely (no phantom cache entries or composition counts).
            if let DocSource::File(path) = &source {
                let uq = user_query(&def, query)?;
                let open = || SaxParser::from_file(path).map_err(|e| ServeError::Io(e.to_string()));
                let mut out = Vec::new();
                let t = rt.start();
                compose_two_pass_sax(open()?, open()?, open()?, link.query(), &uq, &mut out)
                    .map_err(|e| ServeError::Eval(e.to_string()))?;
                rt.phase(Phase::Eval, t);
                return Ok(Response {
                    body: String::from_utf8(out).map_err(|e| ServeError::Eval(e.to_string()))?,
                    method: None,
                    micros: 0,
                    cache_hit: false,
                });
            }

            // In-memory: the Compose Method — rewrite the user query
            // against the virtual view, cached per (view, query) so
            // repeats skip parsing and composition entirely.
            let key = format!("{view}\u{1f}{query}");
            let stats = &self.inner.stats;
            let t = rt.start();
            let (qc, hit) = self.inner.composed.get_or_try_insert(&key, || {
                let uq = user_query(&def, query)?;
                bump(&stats.compositions, 1);
                compose(link.query(), &uq).map_err(|e| ServeError::Parse(e.to_string()))
            })?;
            rt.phase(Phase::Cache, t);
            self.note_cache(hit);
            rt.note_prepared(hit);
            let t = rt.start();
            let body = match &source {
                DocSource::Memory(d) => qc
                    .execute_to_string(d)
                    .map_err(|e| ServeError::Eval(e.to_string()))?,
                DocSource::File(_) => unreachable!("file sources handled above"),
            };
            rt.phase(Phase::Eval, t);
            return Ok(Response {
                body,
                method: None,
                micros: 0,
                cache_hit: hit,
            });
        }

        // Multi-link chains / snapshot policies: materialize the view,
        // then run the user query on the XQuery engine.
        let uq = user_query(&def, query)?;
        let t = rt.start();
        let base = self.base_document(&source)?;
        rt.phase(Phase::Parse, t);
        let (viewed, method) = self.materialize(&def, &base, None, rt)?;
        let mut engine = xust_xquery::Engine::new();
        engine.load_doc(def.doc_name.clone(), viewed);
        let t = rt.start();
        let v = engine
            .eval_expr(&uq.to_expr(), &[])
            .map_err(|e| ServeError::Eval(e.to_string()))?;
        rt.phase(Phase::Eval, t);
        Ok(Response {
            body: engine.serialize_value(&v),
            method,
            micros: 0,
            cache_hit: true,
        })
    }

    // ---- helpers ----

    pub(crate) fn note_cache(&self, hit: bool) {
        let stats = &self.inner.stats;
        bump(
            if hit {
                &stats.cache_hits
            } else {
                &stats.cache_misses
            },
            1,
        );
    }

    /// The serialized index in `cell` of the in-memory version `d`, for
    /// one `TRANSFORM` of it: `None` for the version's first (which
    /// walks, as a version written right after it would gain nothing
    /// from an index), else built on first use — once, however many
    /// requests race for it — with the build counted in
    /// `serialized_builds` and charged to the builder's (and any
    /// waiter's) serialize phase.
    fn serialized<'c>(
        &self,
        d: &Document,
        cell: &'c IndexCell,
        rt: &mut Trace,
    ) -> Option<&'c Serialized> {
        if let Some(index) = cell.index.get() {
            return index.as_ref();
        }
        if cell.transformed.set(()).is_ok() {
            return None;
        }
        let t = rt.start();
        let index = cell.index.get_or_init(|| {
            bump(&self.inner.stats.serialized_builds, 1);
            Serialized::build(d)
        });
        rt.phase(Phase::Serialize, t);
        index.as_ref()
    }

    /// Charges one evaluation by `method`, started at `t`, to the method
    /// counter and histogram and to the trace's Eval phase.
    fn evaluated(&self, method: Method, t: Instant, rt: &mut Trace) {
        let micros = t.elapsed().as_micros() as u64;
        self.inner.stats.count_method(method);
        rt.phase_micros(Phase::Eval, micros);
        self.inner.obs.record_method(method, micros);
    }

    /// Streams the file at `path` through `ct` with twoPassSAX (two
    /// buffered passes): the input is never held in memory, only the
    /// reply body.
    fn stream_file(
        &self,
        ct: &CompiledTransform,
        path: &FsPath,
        plan: &str,
        rt: &mut Trace,
    ) -> Result<String, ServeError> {
        rt.note_plan(|| {
            let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
            format!("{plan}: file bytes={bytes} method=twoPassSAX")
        });
        let t = Instant::now();
        let body = ct
            .evaluate_stream_file(path)
            .map_err(|e| ServeError::Eval(e.to_string()))?;
        self.evaluated(Method::TwoPassSax, t, rt);
        Ok(body)
    }

    fn base_document(&self, source: &DocSource) -> Result<Arc<Document>, ServeError> {
        match source {
            DocSource::Memory(d) => Ok(Arc::clone(d)),
            DocSource::File(path) => {
                let doc =
                    Document::parse_file(path).map_err(|e| ServeError::Parse(e.to_string()))?;
                Ok(Arc::new(doc))
            }
        }
    }

    /// Applies a view body to a base document, each link with its
    /// compiled method; returns the result and the (last) method used. When
    /// `touched` is given (chain bodies only), the labels each link's
    /// update touches — evaluated against that link's *input* — are
    /// folded in, so the result can be cached with its touched set.
    fn materialize(
        &self,
        def: &ViewDef,
        base: &Arc<Document>,
        mut touched: Option<&mut TouchedLabels>,
        rt: &mut Trace,
    ) -> Result<(Document, Option<Method>), ServeError> {
        match &def.body {
            ViewBody::Chain(links) => {
                let mut current: Option<Document> = None;
                let mut last_method = None;
                for (i, link) in links.iter().enumerate() {
                    let doc_ref: &Document = match &current {
                        Some(d) => d,
                        None => base,
                    };
                    if let Some(touched) = touched.as_deref_mut() {
                        // The link's `r[[p]]` needs its own selection
                        // walk here: only TD-BU links and the links of
                        // multi-link chains get here with `touched` (a
                        // single-link GENTOP view takes its targets
                        // from the fill's sweep), and only on a
                        // result-cache miss. Traced under Cache: it
                        // exists to make the result cacheable.
                        let t = rt.start();
                        let q = link.query();
                        let targets = eval_path_root(doc_ref, &q.path);
                        touched.record(doc_ref, &targets, &q.op);
                        rt.phase(Phase::Cache, t);
                    }
                    let method = link.method();
                    rt.note_plan(|| {
                        format!("link{i}: nodes={} method={method}", doc_ref.arena_len())
                    });
                    let t = Instant::now();
                    let next = link
                        .evaluate(doc_ref, method)
                        .map_err(|e| ServeError::Eval(e.to_string()))?;
                    self.evaluated(method, t, rt);
                    last_method = Some(method);
                    current = Some(next);
                }
                Ok((current.expect("registry rejects empty chains"), last_method))
            }
            ViewBody::Multi(mq) => {
                // Fused multi-automaton plan (snapshot semantics).
                rt.note_plan(|| {
                    format!(
                        "multi: nodes={} method={}",
                        base.arena_len(),
                        Method::TopDown
                    )
                });
                let t = Instant::now();
                let out = multi_top_down(base, mq);
                self.evaluated(Method::TopDown, t, rt);
                Ok((out, Some(Method::TopDown)))
            }
        }
    }
}

/// Appends `record` to `wal` when a log is attached. Writers call this
/// under the owning shard's write lock, so log order equals install
/// order.
pub(crate) fn log(wal: Option<&Wal>, record: impl FnOnce() -> WalRecord) -> Result<(), ServeError> {
    match wal {
        Some(w) => w
            .append(&record())
            .map_err(|e| ServeError::Io(format!("wal append: {e}"))),
        None => Ok(()),
    }
}

/// Parses a user query, checking that it reads the document `def`
/// serves.
fn user_query(def: &ViewDef, query: &str) -> Result<UserQuery, ServeError> {
    let uq = UserQuery::parse(query).map_err(|e| ServeError::Parse(e.to_string()))?;
    if uq.doc_name != def.doc_name {
        return Err(ServeError::Parse(format!(
            "query reads doc(\"{}\") but view '{}' serves doc(\"{}\")",
            uq.doc_name, def.name, def.doc_name
        )));
    }
    Ok(uq)
}

impl Default for Server {
    fn default() -> Server {
        Server::new()
    }
}

impl Request {
    /// The request's verb and, for view reads, its view name.
    fn verb_and_view(&self) -> (Verb, Option<&str>) {
        match self {
            Request::View { view, .. } => (Verb::View, Some(view)),
            Request::Query { view, .. } => (Verb::Query, Some(view)),
            Request::Transform { .. } => (Verb::Transform, None),
            Request::Update { .. } => (Verb::Update, None),
        }
    }

    /// The trace target: `view/doc` for view reads, else the document.
    fn target(&self) -> String {
        match self {
            Request::View { view, doc } | Request::Query { view, doc, .. } => {
                format!("{view}/{doc}")
            }
            Request::Transform { doc, .. } | Request::Update { doc, .. } => doc.clone(),
        }
    }
}

impl Response {
    /// A freshly evaluated view body. Views are compiled at
    /// registration, so nothing prepared was built for it.
    fn filled(body: String, method: Option<Method>) -> Response {
        Response {
            body,
            method,
            micros: 0,
            cache_hit: true,
        }
    }
}

/// One request's accounting bracket, from [`Server`]'s `begin` to its
/// `finish`.
struct Bracket {
    verb: Verb,
    started: Instant,
    rt: Trace,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker panic in `execute_batch` must land in the same
    /// accounting a failed request gets — the per-verb error series,
    /// the failure total, and a trace bracket — not just map to an
    /// error after the pool returns. (The panic itself can't be
    /// provoked through the public surface — evaluation is panic-free
    /// by design — so the epilogue is pinned down directly.)
    #[test]
    fn worker_panic_accounting_matches_failed_requests() {
        let server = Server::builder().threads(1).build();
        let traced_before = server.inner.obs.requests_traced();
        let e = server.account_worker_panic(&Request::View {
            view: "v".into(),
            doc: "db".into(),
        });
        assert!(matches!(e, ServeError::Eval(_)));
        assert_eq!(
            server.inner.stats.verb_counts(Verb::View),
            (1, 1),
            "the panicked item must appear in the verb's request and error series"
        );
        assert_eq!(server.stats().failures, 1);
        assert_eq!(
            server.inner.obs.requests_traced(),
            traced_before + 1,
            "the panicked item must get a trace bracket"
        );
        assert!(server.traces(4).contains("v/db"), "{}", server.traces(4));
    }
}
