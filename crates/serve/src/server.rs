//! The concurrent transform-view server.
//!
//! [`Server`] owns five pieces and wires them together per request:
//!
//! 1. a document store — immutable [`Document`]s behind `Arc` (shared
//!    zero-copy across threads) or file paths served via the streaming
//!    SAX path without ever building a DOM;
//! 2. the [`ViewRegistry`] of named, pre-compiled transform views;
//! 3. two [`PreparedCache`]s — ad-hoc transforms keyed by query text,
//!    and composed user queries keyed by `(view, query)`;
//! 4. the [`ViewResultCache`] of materialized view results, consulted
//!    by view reads and *maintained* (not just invalidated) by the live
//!    write path [`Server::update_doc`];
//! 5. a [`ThreadPool`] for the batched/asynchronous entry points.
//!
//! Every evaluation runs the method its [`CompiledTransform`] fixed at
//! compile time (GENTOP, or TD-BU when a qualifier has a `//` step);
//! file-backed documents stream with twoPassSAX.
//!
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
use xust_core::delta::{RenameMapping, TouchedLabels};
use xust_core::{
    apply_update, intern, multi_top_down, multi_view_with_stats, parse_multi_transform, site_chain,
    touched_labels_into, update_alphabet, value_alphabet_into, CompiledTransform, FragmentTree,
    LabelSet, LdStorage, Method, SaxStats, TransformQuery, TransformStream, UpdateOp,
};
use xust_sax::{SaxEvent, SaxParser, SaxWriter};
use xust_secview::Policy;
use xust_tree::{Document, NodeId};
use xust_xpath::{eval_path_root, Path};

use crate::cache::PreparedCache;
use crate::error::ServeError;
use crate::executor::ThreadPool;
use crate::obs::{Obs, Phase, Trace};
use crate::registry::{ViewBody, ViewDef, ViewRegistry};
use crate::stats::{ServeStats, StatsSnapshot, Verb};
use crate::store::{DocStore, StoreSnapshot, StoreUpdateError, WriteStamp};
use crate::viewcache::{DeltaReplay, PatchCtx, PatchView, ViewResultCache};
use crate::wal::{Wal, WalRecord};

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
enum DocView<'a> {
    Live(&'a DocStore),
    Pinned(&'a StoreSnapshot),
}

impl DocView<'_> {
    fn get(&self, name: &str) -> Result<DocSource, ServeError> {
        match self {
            DocView::Live(store) => store.get(name),
            DocView::Pinned(snap) => snap.get(name).cloned(),
        }
        .ok_or_else(|| ServeError::UnknownDoc(name.to_string()))
    }

    /// Resolves `name` together with the version of its content — read
    /// atomically (one shard read lock on the Live path; lock-free on a
    /// snapshot), so the returned source provably *is* the returned
    /// version. Pair with [`DocView::still_at`] before caching a result
    /// computed from the source.
    fn get_versioned(&self, name: &str) -> Result<(DocSource, u64), ServeError> {
        match self {
            DocView::Live(store) => store.get_versioned(name).map(|d| (d.source, d.version)),
            DocView::Pinned(snap) => snap
                .get_versioned(name)
                .map(|d| (d.source.clone(), d.version)),
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
    fn still_at(&self, name: &str, version: u64) -> bool {
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

struct Inner {
    docs: DocStore,
    registry: ViewRegistry,
    transforms: PreparedCache<CompiledTransform>,
    composed: PreparedCache<ComposedQuery>,
    results: ViewResultCache,
    stats: ServeStats,
    obs: Obs,
    pool: ThreadPool,
    /// The attached write-ahead log, if any ([`Server::attach_wal`]).
    /// Every applied write appends its record *inside* the owning
    /// shard's write lock, so log order equals install order.
    // lock-order: this RwLock is only ever taken alone (clone the Arc
    // out, then release); the Wal's internal mutex nests inside a
    // DocStore shard write lock, never the reverse.
    wal: RwLock<Option<Arc<Wal>>>,
    /// Whether cached view results carry provenance fragment trees and
    /// single-rule writes may patch them in place (see
    /// [`ServerBuilder::patching`]).
    patching: bool,
}

/// True when a batched `VIEW` of `def` may ride a shared factorised
/// pass: a live single-link view whose compiled method is GENTOP. The
/// shared sweep checks qualifiers natively, like GENTOP, so a view the
/// method rule sends to TD-BU keeps its private pass.
fn rides_shared_pass(def: &ViewDef) -> bool {
    !def.analysis.dead && def.single().is_some_and(|l| l.method() == Method::TopDown)
}

/// See the module docs.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
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
        let wal = self.wal_handle();
        // Serialize for the log *outside* the shard lock; the log keeps
        // the installed bytes, so replay needs no source file.
        let record = wal.as_ref().map(|_| WalRecord::Load {
            doc: name.clone(),
            xml: doc.serialize(),
        });
        let installed = self.inner.docs.insert_with(
            name.clone(),
            DocSource::Memory(doc),
            // lock-order: shard write lock → Wal mutex.
            |_| match (&wal, &record) {
                (Some(w), Some(r)) => w
                    .append(r)
                    .map_err(|e| ServeError::Io(format!("wal append: {e}"))),
                _ => Ok(()),
            },
        );
        let stamp = match installed {
            Ok(stamp) => stamp,
            Err(e) => {
                self.inner.stats.record_verb(Verb::Load, false);
                return Err(e);
            }
        };
        self.inner.results.purge_doc(&name);
        self.inner.stats.record_verb(Verb::Load, true);
        Ok(stamp)
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
        let wal = self.wal_handle();
        let record = wal.as_ref().map(|_| WalRecord::LoadFile {
            doc: name.clone(),
            path: path.display().to_string(),
        });
        let installed = self.inner.docs.insert_with(
            name.clone(),
            DocSource::File(path),
            // lock-order: shard write lock → Wal mutex.
            |_| match (&wal, &record) {
                (Some(w), Some(r)) => w
                    .append(r)
                    .map_err(|e| ServeError::Io(format!("wal append: {e}"))),
                _ => Ok(()),
            },
        );
        let stamp = match installed {
            Ok(stamp) => stamp,
            Err(e) => {
                self.inner.stats.record_verb(Verb::Load, false);
                return Err(e);
            }
        };
        self.inner.results.purge_doc(&name);
        self.inner.stats.record_verb(Verb::Load, true);
        Ok(stamp)
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
        let removed = self.inner.docs.remove_with(
            name,
            // lock-order: shard write lock → Wal mutex.
            || match &wal {
                Some(w) => w
                    .append(&WalRecord::Remove {
                        doc: name.to_string(),
                    })
                    .map_err(|e| ServeError::Io(format!("wal append: {e}"))),
                None => Ok(()),
            },
        )?;
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
    fn wal_handle(&self) -> Option<Arc<Wal>> {
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
        self.inner
            .stats
            .wal_recovered
            .fetch_add(applied as u64, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
        if truncated {
            self.inner
                .stats
                .wal_truncations
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
        }
        Ok(WalRecovery { applied, truncated })
    }

    /// Counts a client lost before the protocol loop could start (e.g.
    /// a failed `try_clone` after accept) under the `conn` pseudo-verb,
    /// so `METRICS` sees dropped clients a failed accept log line alone
    /// would hide.
    pub fn record_conn_failure(&self) {
        self.inner.stats.record_verb(Verb::Conn, false);
    }

    // (document resolution for requests goes through [`DocView`])

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
    fn handle_in(&self, request: &Request, view: &DocView<'_>) -> Result<Response, ServeError> {
        let started = Instant::now();
        self.inner
            .stats
            .requests
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
        let verb = match request {
            Request::View { .. } => Verb::View,
            Request::Query { .. } => Verb::Query,
            Request::Transform { .. } => Verb::Transform,
            Request::Update { .. } => Verb::Update,
        };
        // The target string is built lazily — with tracing off, `begin`
        // never calls the closure (no allocation on the fast path).
        let mut rt = self.inner.obs.begin(verb, || match request {
            Request::View { view, doc } | Request::Query { view, doc, .. } => {
                format!("{view}/{doc}")
            }
            Request::Transform { doc, .. } | Request::Update { doc, .. } => doc.clone(),
        });
        let result = match request {
            Request::View { view: v, doc } => self.handle_view(view, v, doc, &mut rt),
            Request::Query {
                view: v,
                doc,
                query,
            } => self.handle_query(view, v, doc, query, &mut rt),
            Request::Transform { doc, query } => self.handle_transform(view, doc, query, &mut rt),
            // Writes always go to the live store — a pinned batch
            // snapshot is a *read* consistency device.
            Request::Update { doc, update } => self.handle_update(doc, update, &mut rt),
        };
        let micros = started.elapsed().as_micros() as u64;
        self.inner
            .stats
            .busy_micros
            .fetch_add(micros, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
        self.inner.stats.record_verb(verb, result.is_ok());
        let view_name = match request {
            Request::View { view, .. } | Request::Query { view, .. } => Some(view.as_str()),
            _ => None,
        };
        match result {
            Ok(mut resp) => {
                if let Some(view) = view_name {
                    // Per-view latency feedback, merged lock-free (CAS)
                    // when several executor workers report for the same
                    // view at once.
                    self.inner.stats.record_view_latency(view, micros as f64);
                }
                if let Some(m) = resp.method {
                    rt.set_method(m);
                }
                self.inner.obs.finish(rt, micros, true, view_name);
                resp.micros = micros;
                Ok(resp)
            }
            Err(e) => {
                self.inner
                    .stats
                    .failures
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
                self.inner.obs.finish(rt, micros, false, view_name);
                Err(e)
            }
        }
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
    /// single-link views of the same in-memory document ride one shared
    /// factorised pass ([`multi_view_with_stats`]) instead of one full
    /// tree sweep each — the `shared_passes` / `shared_pass_views`
    /// counters report how often that happened.
    pub fn execute_batch(&self, requests: Vec<Request>) -> Vec<Result<Response, ServeError>> {
        use std::collections::HashMap;
        use std::sync::atomic::Ordering::Relaxed; // lint: atomic-ok (stats counters only)
        self.inner.stats.batches.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
        self.inner
            .stats
            .batch_items
            .fetch_add(requests.len() as u64, Relaxed); // relaxed: monotone counter; no data published
        let snap = Arc::new(self.inner.docs.snapshot());
        // Per-request (verb, view, trace target), kept on this side of
        // the pool: when a worker panics mid-job, its items still owe
        // the per-verb error series and the trace ring a record — the
        // panic unwound past `handle_in`'s epilogue, so the accounting
        // happens here instead.
        let descs: Vec<(Verb, Option<String>, String)> = requests
            .iter()
            .map(|req| match req {
                Request::View { view, doc } => {
                    (Verb::View, Some(view.clone()), format!("{view}/{doc}"))
                }
                Request::Query { view, doc, .. } => {
                    (Verb::Query, Some(view.clone()), format!("{view}/{doc}"))
                }
                Request::Transform { doc, .. } => (Verb::Transform, None, doc.clone()),
                Request::Update { doc, .. } => (Verb::Update, None, doc.clone()),
            })
            .collect();
        // Group `VIEW` items by document. Only single-link GENTOP views
        // of in-memory documents can ride a shared pass (see
        // `rides_shared_pass`); a group of one gains nothing and stays
        // on the private path.
        let mut by_doc: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, req) in requests.iter().enumerate() {
            if let Request::View { view, doc } = req {
                let groupable = matches!(snap.get(doc), Some(DocSource::Memory(_)))
                    && self
                        .inner
                        .registry
                        .get(view)
                        .is_some_and(|def| rides_shared_pass(&def));
                if groupable {
                    by_doc.entry(doc.clone()).or_default().push(i);
                }
            }
        }
        let groups: Vec<Vec<usize>> = by_doc
            .into_values()
            .filter(|idxs| idxs.len() >= 2)
            .collect();
        enum Job {
            One(usize, Request),
            Group(String, Vec<(usize, String)>),
        }
        let mut group_of: HashMap<usize, usize> = HashMap::new();
        for (g, idxs) in groups.iter().enumerate() {
            for &i in idxs {
                group_of.insert(i, g);
            }
        }
        let mut group_doc: Vec<String> = vec![String::new(); groups.len()];
        let mut group_items: Vec<Vec<(usize, String)>> = vec![Vec::new(); groups.len()];
        let mut jobs: Vec<Job> = Vec::new();
        for (i, req) in requests.into_iter().enumerate() {
            match group_of.get(&i) {
                Some(&g) => {
                    let Request::View { view, doc } = req else {
                        unreachable!("only VIEW items are grouped");
                    };
                    group_doc[g] = doc;
                    group_items[g].push((i, view));
                }
                None => jobs.push(Job::One(i, req)),
            }
        }
        for (g, items) in group_items.into_iter().enumerate() {
            jobs.push(Job::Group(std::mem::take(&mut group_doc[g]), items));
        }
        // Which request indices each job carries — the panic accounting
        // below needs them after the pool returns.
        let job_indices: Vec<Vec<usize>> = jobs
            .iter()
            .map(|job| match job {
                Job::One(i, _) => vec![*i],
                Job::Group(_, items) => items.iter().map(|(i, _)| *i).collect(),
            })
            .collect();
        let server = self.clone();
        let (raw, steal) = self.inner.pool.run_batch(jobs, move |_, job| match job {
            Job::One(i, req) => vec![(i, server.handle_in(&req, &DocView::Pinned(&snap)))],
            Job::Group(doc, items) => {
                server.handle_view_group(&doc, items, &DocView::Pinned(&snap))
            }
        });
        self.inner
            .stats
            .batch_steals
            .fetch_add(steal.steals, Relaxed); // relaxed: monotone counter; no data published
        let mut out: Vec<Option<Result<Response, ServeError>>> =
            (0..descs.len()).map(|_| None).collect();
        for (slot, job_result) in raw.into_iter().enumerate() {
            match job_result {
                Some(pairs) => {
                    for (i, r) in pairs {
                        out[i] = Some(r);
                    }
                }
                None => {
                    // The worker panicked mid-job: the panic unwound
                    // past `handle_in`'s failure epilogue, so each item
                    // gets it here instead. (An item the job had
                    // already *finished* before the panic is counted
                    // as both a success and this failure; the panic
                    // discarded its result either way.)
                    for &i in &job_indices[slot] {
                        let (verb, view, target) = &descs[i];
                        out[i] = Some(Err(self.account_worker_panic(
                            *verb,
                            view.as_deref(),
                            target,
                        )));
                    }
                }
            }
        }
        out.into_iter()
            .map(|r| r.unwrap_or_else(|| Err(ServeError::Eval("worker panicked".into()))))
            .collect()
    }

    /// The failure epilogue for a batch item whose worker panicked:
    /// the per-verb error series, the failure total, and a trace
    /// bracket — everything a failed `handle_in` would have recorded —
    /// so `METRICS` and `TRACE` reflect panicked items like any other
    /// failure. Returns the error the caller stores in the item's slot.
    fn account_worker_panic(&self, verb: Verb, view: Option<&str>, target: &str) -> ServeError {
        use std::sync::atomic::Ordering::Relaxed; // lint: atomic-ok (stats counters only)
        self.inner.stats.record_verb(verb, false);
        self.inner.stats.failures.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
        let rt = self.inner.obs.begin(verb, || target.to_string());
        self.inner.obs.finish(rt, 0, false, view);
        ServeError::Eval("worker panicked".into())
    }

    // ---- the live write path ----

    /// Applies an update — written in transform syntax, single or multi
    /// `modify do (…)` — **destructively** to the stored in-memory
    /// document `doc`, copy-on-write into a fresh shard epoch. This is
    /// the write path the paper's transform machinery earns its keep on:
    ///
    /// 1. the update is parsed (and, for single updates, NFA-compiled
    ///    through the prepared cache — repeat update shapes skip parse
    ///    and automaton construction like repeat reads do);
    /// 2. its embedded updates are applied in order to a clone of the
    ///    current epoch's tree, reusing the arena free-list for every
    ///    deleted or replaced subtree, while the labels the write
    ///    actually touches are collected as the *dynamic delta*;
    /// 3. every cached view result for this document faces the delta
    ///    relevance test ([`ViewResultCache::maintain`]): provably
    ///    unaffected entries are retained — the same delta is applied to
    ///    the cached materialization — and the rest are dropped for lazy
    ///    recomputation, counted per view in STATS;
    /// 4. the new tree is installed as the shard's next epoch. In-flight
    ///    readers and snapshots keep the old epoch until they drop.
    ///
    /// All-or-nothing: a parse error, a doc-name mismatch, an unknown or
    /// file-backed document leave the epoch, the stored tree, and every
    /// cached entry exactly as they were.
    pub fn update_doc(&self, doc: &str, update: &str) -> Result<Response, ServeError> {
        self.handle(&Request::Update {
            doc: doc.into(),
            update: update.into(),
        })
    }

    fn handle_update(
        &self,
        doc: &str,
        update: &str,
        rt: &mut Trace,
    ) -> Result<Response, ServeError> {
        use std::sync::atomic::Ordering::Relaxed; // lint: atomic-ok (stats counters only)
        let stats = &self.inner.stats;
        let t = rt.start();
        let mq = parse_multi_transform(update).map_err(|e| ServeError::Parse(e.to_string()))?;
        rt.phase(Phase::Parse, t);
        if mq.doc_name != doc {
            return Err(ServeError::Parse(format!(
                "update reads doc(\"{}\") but targets loaded document '{doc}'",
                mq.doc_name
            )));
        }
        // Single updates reuse the transform prepared cache (same key
        // space as ad-hoc reads — an UPDATE that mirrors a prepared
        // TRANSFORM shares its compiled NFAs), compiling from the parse
        // already in hand on a miss (this also keeps parenthesized
        // single-update lists, `modify do (u1)`, working — they are
        // valid multi syntax but not valid single syntax to re-parse).
        // Multi updates carry one alphabet per rule, built fresh.
        let t = rt.start();
        let (ops, update_alpha, hit): (Vec<(Path, UpdateOp)>, LabelSet, bool) =
            if mq.updates.len() == 1 {
                let mut mq = mq;
                let (path, op) = mq.updates.pop().expect("checked len == 1");
                let query = xust_core::TransformQuery {
                    var: mq.var,
                    doc_name: mq.doc_name,
                    path,
                    op,
                };
                let (ct, hit) = self.inner.transforms.get_or_try_insert(
                    update,
                    || -> Result<_, ServeError> {
                        stats.compiles.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
                        Ok(CompiledTransform::compile(query))
                    },
                )?;
                self.note_cache(hit);
                rt.note_prepared(hit);
                (
                    vec![(ct.query().path.clone(), ct.query().op.clone())],
                    ct.alphabet().clone(),
                    hit,
                )
            } else {
                let mut alpha = LabelSet::new();
                for (path, op) in &mq.updates {
                    alpha.union_with(&update_alphabet(path, op));
                }
                (mq.updates, alpha, false)
            };
        rt.phase(Phase::Cache, t);
        // The value-sensitive slice of the update's selection: only
        // qualifier-bearing reads — what the relevance test compares
        // against the string values a view materialization perturbed.
        let mut update_vals = LabelSet::new();
        for (path, _) in &ops {
            value_alphabet_into(path, &mut update_vals);
        }
        // The patch fate's view table — single-rule writes only
        // (multi-rule writes interleave arena slot recycling between
        // rules, so node ids captured for one rule can be stale by the
        // next). Every live view is listed whatever `doc("…")` name it
        // reads: VIEW serves any view over any loaded document, so this
        // document's cache shard can hold entries of all of them.
        // Resolved before the shard write lock: maintenance under the
        // lock only does hash lookups.
        let patching = self.inner.patching && ops.len() == 1;
        let defs = if patching {
            self.inner.registry.defs()
        } else {
            Vec::new()
        };
        let mut patch_views: HashMap<String, PatchView<'_>> = HashMap::new();
        for def in defs.iter().filter(|def| !def.analysis.dead) {
            let Some(link) = def.single() else { continue };
            patch_views.insert(
                def.cache_key.to_string(),
                PatchView {
                    ct: link,
                    anchor_alphabet: &def.anchor_alphabet,
                    generation: def.cache_generation,
                },
            );
        }
        let results = &self.inner.results;
        let wal = self.wal_handle();
        // The installed tree, smuggled out of the closure: the eager
        // shared recompute below runs on it *after* the shard write
        // lock is released.
        let mut new_tree: Option<Arc<Document>> = None;
        let (stamp, (outcome, targets)) = self
            .inner
            .docs
            .update(doc, |stamp: WriteStamp, source| {
                let DocSource::Memory(old) = source else {
                    return Err(ServeError::Unsupported(format!(
                        "UPDATE needs an in-memory document; '{doc}' is file-backed \
                         (load it in memory to enable live updates)"
                    )));
                };
                // Durability first: the record goes to the log before
                // anything — tree clone, cache maintenance — mutates
                // shared state, so a failed append leaves the write
                // fully un-happened (all-or-nothing), and log order
                // equals install order because both sit under this
                // shard write lock.
                // lock-order: shard write lock → Wal mutex.
                if let Some(w) = &wal {
                    w.append(&WalRecord::Update {
                        doc: doc.to_string(),
                        text: update.to_string(),
                    })
                    .map_err(|e| ServeError::Io(format!("wal append: {e}")))?;
                }
                let mut next = (**old).clone();
                let mut delta = LabelSet::new();
                let mut targets_total = 0usize;
                // Old→new label mappings of the applied renames, in
                // order: retained cache entries get the same renames
                // applied to their trees, so their stored touched-label
                // footprints must be carried into the new vocabulary
                // (`TouchedLabels::apply_renames`) or later relevance
                // tests would compare against pre-rename names.
                let mut renames: Vec<RenameMapping> = Vec::new();
                // Patch-fate inputs, collected against the pre-apply
                // tree: one ancestor-or-self chain per update site
                // (sites are chosen to survive the apply — the parent
                // for structural/sibling ops, the target itself for
                // renames and into-inserts), and the guard alphabet —
                // every site-chain label plus rename target names —
                // at which this write could flip a qualifier verdict.
                let mut sites: Vec<Vec<NodeId>> = Vec::new();
                let mut guard = LabelSet::new();
                let t = rt.start();
                for (path, op) in &ops {
                    let matched = eval_path_root(&next, path);
                    targets_total += matched.len();
                    touched_labels_into(&next, &matched, op, &mut delta);
                    if patching {
                        for &m in &matched {
                            let chain = site_chain(&next, update_site(&next, m, op));
                            for &n in &chain {
                                if let Some(l) = next.name(n) {
                                    guard.insert(intern(l));
                                }
                            }
                            sites.push(chain);
                        }
                    }
                    if let UpdateOp::Rename { name } = op {
                        renames.extend(RenameMapping::capture(&next, &matched, *name));
                        guard.insert(*name);
                    }
                    apply_update(&mut next, &matched, op);
                }
                rt.phase(Phase::Eval, t);
                // Maintenance runs while the shard write lock is held,
                // so it is ordered exactly like the install it mirrors
                // (two racing updates cannot maintain out of order). It
                // sweeps only this document's cache shard: entries —
                // and result reads — of every other document, same
                // store shard or not, proceed untouched.
                let t = rt.start();
                let ctx = PatchCtx {
                    base: &next,
                    sites: &sites,
                    guard: &guard,
                    views: &patch_views,
                };
                let outcome = results.maintain(
                    doc,
                    stamp.prev_version,
                    stamp.version,
                    &update_alpha,
                    &update_vals,
                    &delta,
                    &renames,
                    patching.then_some(&ctx),
                    &mut |cached| {
                        let mut replay = DeltaReplay::default();
                        for (path, op) in &ops {
                            let matched = eval_path_root(cached, path);
                            if patching {
                                // Result-side chains for provenance
                                // repair, read before the replay
                                // mutates the cached tree.
                                for &m in &matched {
                                    replay
                                        .chains
                                        .push(site_chain(cached, update_site(cached, m, op)));
                                }
                            }
                            apply_update(cached, &matched, op);
                        }
                        replay
                    },
                );
                // Localization and splicing get their own phase when
                // any entry took the patch fate; retention sweeps keep
                // reporting as maintenance.
                if outcome.patched.is_empty() {
                    rt.phase(Phase::Maintain, t);
                } else {
                    rt.phase(Phase::Patch, t);
                }
                // The per-doc row is recorded here, still under the
                // shard write lock, so it is ordered against a racing
                // `remove_doc` (which takes the same lock to remove the
                // doc and only then forgets the row): a write's row can
                // never be re-created *after* the removal's cleanup —
                // once the doc is gone, updates stop at NotFound.
                stats.record_doc_delta(
                    doc,
                    outcome.retained.len() as u64,
                    outcome.patched.len() as u64,
                    outcome.patched_fragments,
                    outcome.recomputed.len() as u64,
                );
                let next = Arc::new(next);
                new_tree = Some(Arc::clone(&next));
                Ok((DocSource::Memory(next), (outcome, targets_total)))
            })
            .map_err(|e| match e {
                StoreUpdateError::NotFound => ServeError::UnknownDoc(doc.to_string()),
                StoreUpdateError::Apply(e) => e,
            })?;
        stats.update_requests.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
        for v in &outcome.retained {
            stats.record_view_retained(v);
        }
        for v in &outcome.patched {
            stats.record_view_patched(v);
        }
        stats
            .patched_fragments
            .fetch_add(outcome.patched_fragments, Relaxed); // relaxed: monotone counter; no data published
        for (v, &why) in outcome.recomputed.iter().zip(&outcome.fallbacks) {
            stats.record_view_recomputed(v, why);
        }
        // Every entry the write just dropped is recomputed eagerly in
        // ONE factorised sweep over the new tree — outside the store
        // shard lock and the cache mutex, so a k-view document's write
        // holds shared state no longer than a 1-view document's (the
        // per-view work above is delta bookkeeping, not evaluation).
        if !outcome.recomputed.is_empty() {
            let tree = new_tree.as_ref().expect("update installed a memory doc");
            let t = rt.start();
            self.shared_recompute(doc, stamp.version, tree, &outcome.recomputed);
            rt.phase(Phase::Maintain, t);
        }
        Ok(Response {
            body: format!(
                "updated {doc} epoch={} version={} targets={targets} retained={} recomputed={} patched={}",
                stamp.epoch,
                stamp.version,
                outcome.retained.len(),
                outcome.recomputed.len(),
                outcome.patched.len()
            ),
            method: None,
            micros: 0,
            cache_hit: hit,
        })
    }

    /// Recomputes every single-link view a write just invalidated in
    /// **one** factorised sweep over the installed tree, re-inserting
    /// the results at the write's version so subsequent reads hit.
    /// Multi-link chains and fused multi-transform views stay lazy
    /// (their results depend on intermediate trees a shared pass over
    /// the base cannot produce). A view that raced a re-registration
    /// or removal since the maintain sweep simply drops out — the next
    /// read recomputes it privately.
    fn shared_recompute(&self, doc: &str, version: u64, tree: &Arc<Document>, names: &[String]) {
        use std::sync::atomic::Ordering::Relaxed; // lint: atomic-ok (stats counters only)
        let defs: Vec<Arc<ViewDef>> = names
            .iter()
            .filter_map(|n| self.inner.registry.get(n))
            .filter(|def| def.single().is_some() && !def.analysis.dead)
            .collect();
        if defs.is_empty() {
            return;
        }
        let queries: Vec<&TransformQuery> = defs
            .iter()
            .map(|def| def.single().expect("filtered on single()").query())
            .collect();
        let (outs, mv) = multi_view_with_stats(tree, &queries);
        self.inner
            .stats
            .shared_passes
            .fetch_add(mv.passes as u64, Relaxed); // relaxed: monotone counter; no data published
        self.inner
            .stats
            .shared_pass_views
            .fetch_add(mv.shared_views as u64, Relaxed); // relaxed: monotone counter; no data published
                                                         // A second write racing past this one makes the inserts dead
                                                         // weight at best — skip them (its own sweep recomputes at the
                                                         // newer version; `insert` also never downgrades a newer
                                                         // resident entry, so this check is an optimization, not the
                                                         // correctness guard).
        if !DocView::Live(&self.inner.docs).still_at(doc, version) {
            return;
        }
        let leaf_limit = frag_leaf_limit(tree);
        for (def, out) in defs.iter().zip(outs) {
            let link = def.single().expect("filtered on single()");
            let q = link.query();
            let mut touched = TouchedLabels::new();
            touched.record(tree, &out.targets, &q.op);
            let body = out.doc.serialize();
            let frags = self
                .inner
                .patching
                .then(|| FragmentTree::build(tree, &out.doc, q, link.selecting(), leaf_limit))
                .flatten();
            self.inner.results.insert(
                &def.cache_key,
                doc,
                version,
                def.cache_generation,
                out.doc,
                body,
                def.alphabet.clone(),
                touched,
                frags,
            );
        }
    }

    /// Serves a batch's grouped `VIEW` items — several single-link
    /// views of the same in-memory document — with at most **one**
    /// shared factorised pass: cache hits peel off first, then every
    /// miss rides the same [`multi_view_with_stats`] sweep. Each item
    /// gets the full per-request accounting `handle_in` would have
    /// given it (request/verb counters, latency EWMA, trace bracket).
    /// Items whose grouping preconditions raced away (view
    /// re-registered, document replaced or removed) fall back to the
    /// private `handle_in` path, which carries its own accounting.
    fn handle_view_group(
        &self,
        doc: &str,
        items: Vec<(usize, String)>,
        docs: &DocView<'_>,
    ) -> Vec<(usize, Result<Response, ServeError>)> {
        use std::sync::atomic::Ordering::Relaxed; // lint: atomic-ok (stats counters only)
        let stats = &self.inner.stats;
        let mut out: Vec<(usize, Result<Response, ServeError>)> = Vec::with_capacity(items.len());
        // Re-check the grouping preconditions (registration and the
        // snapshot can have moved since `execute_batch` scanned).
        let mut shared: Vec<(usize, String, Arc<ViewDef>)> = Vec::new();
        let mut fallback: Vec<(usize, String)> = Vec::new();
        for (idx, view) in items {
            match self.inner.registry.get(&view) {
                Some(def) if rides_shared_pass(&def) => shared.push((idx, view, def)),
                _ => fallback.push((idx, view)),
            }
        }
        let resolved = docs.get_versioned(doc);
        let base = match &resolved {
            Ok((DocSource::Memory(base), _)) => Some(Arc::clone(base)),
            _ => None,
        };
        if base.is_none() {
            // Unknown or file-backed document: nothing to share.
            fallback.extend(shared.drain(..).map(|(idx, view, _)| (idx, view)));
        }
        for (idx, view) in fallback {
            let req = Request::View {
                view,
                doc: doc.to_string(),
            };
            out.push((idx, self.handle_in(&req, docs)));
        }
        let Some(base) = base else {
            return out;
        };
        let version = resolved.expect("base came from resolved").1;
        // Per-item prologue (what `handle_in` does), with the cache
        // probe peeling resident entries off the pass.
        let mut pending: Vec<(usize, String, Arc<ViewDef>, Instant, Trace)> = Vec::new();
        for (idx, view, def) in shared {
            let started = Instant::now();
            stats.requests.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
            stats.view_requests.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
            let mut rt = self.inner.obs.begin(Verb::View, || format!("{view}/{doc}"));
            let t = rt.start();
            let found = self
                .inner
                .results
                .get(&def.cache_key, doc, version, def.cache_generation);
            rt.phase(Phase::Cache, t);
            rt.note_result(found.is_some());
            if let Some(body) = found {
                let micros = started.elapsed().as_micros() as u64;
                stats.busy_micros.fetch_add(micros, Relaxed); // relaxed: monotone counter; no data published
                stats.record_verb(Verb::View, true);
                stats.record_view_latency(&view, micros as f64);
                self.inner.obs.finish(rt, micros, true, Some(&view));
                out.push((
                    idx,
                    Ok(Response {
                        body: body.to_string(),
                        method: None,
                        micros,
                        cache_hit: true,
                    }),
                ));
            } else {
                pending.push((idx, view, def, started, rt));
            }
        }
        if pending.is_empty() {
            return out;
        }
        // ONE sweep for every miss. Each item's Eval phase is charged
        // the whole pass (it *is* the pass the item waited on).
        let queries: Vec<&TransformQuery> = pending
            .iter()
            .map(|(_, _, def, _, _)| def.single().expect("re-checked above").query())
            .collect();
        let t = Instant::now();
        let (results, mv) = multi_view_with_stats(&base, &queries);
        let eval_micros = t.elapsed().as_micros() as u64;
        stats.shared_passes.fetch_add(mv.passes as u64, Relaxed); // relaxed: monotone counter; no data published
        stats
            .shared_pass_views
            .fetch_add(mv.shared_views as u64, Relaxed); // relaxed: monotone counter; no data published
        let live = docs.still_at(doc, version);
        let leaf_limit = frag_leaf_limit(&base);
        for ((idx, view, def, started, mut rt), r) in pending.into_iter().zip(results) {
            rt.phase_micros(Phase::Eval, eval_micros);
            rt.set_method(Method::TopDown);
            let t = rt.start();
            let body = r.doc.serialize();
            if live {
                let link = def.single().expect("re-checked above");
                let q = link.query();
                let mut touched = TouchedLabels::new();
                touched.record(&base, &r.targets, &q.op);
                let frags = self
                    .inner
                    .patching
                    .then(|| FragmentTree::build(&base, &r.doc, q, link.selecting(), leaf_limit))
                    .flatten();
                self.inner.results.insert(
                    &def.cache_key,
                    doc,
                    version,
                    def.cache_generation,
                    r.doc,
                    body.clone(),
                    def.alphabet.clone(),
                    touched,
                    frags,
                );
            }
            rt.phase(Phase::Serialize, t);
            let micros = started.elapsed().as_micros() as u64;
            stats.busy_micros.fetch_add(micros, Relaxed); // relaxed: monotone counter; no data published
            stats.record_verb(Verb::View, true);
            stats.record_view_latency(&view, micros as f64);
            self.inner.obs.finish(rt, micros, true, Some(&view));
            out.push((
                idx,
                Ok(Response {
                    body,
                    method: Some(Method::TopDown),
                    micros,
                    cache_hit: true, // views are pre-compiled at registration
                }),
            ));
        }
        out
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

    /// Reports — **without executing anything** — the plan a `VIEW
    /// view doc` request would run: the method per link with the rule
    /// behind it, the document shape, and whether the view-result cache
    /// holds this (view, doc) at the current document version.
    pub fn explain(&self, view: &str, doc: &str) -> Result<Explanation, ServeError> {
        let result = self.explain_inner(view, doc);
        self.inner.stats.record_verb(Verb::Explain, result.is_ok());
        result
    }

    /// Reports — **without executing anything** — the registration-time
    /// static analysis of a view: satisfiability (dead views select
    /// nothing, ever), per-automaton dead-state counts, folded
    /// qualifier terms, the static alphabet, and the containment
    /// (cache-family) class the definition landed in.
    pub fn analyze(&self, view: &str) -> Result<Analysis, ServeError> {
        let result = self.analyze_inner(view);
        self.inner.stats.record_verb(Verb::Analyze, result.is_ok());
        result
    }

    fn analyze_inner(&self, view: &str) -> Result<Analysis, ServeError> {
        let def = self
            .inner
            .registry
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_string()))?;
        let labels = |set: &LabelSet| -> Vec<String> {
            let mut v: Vec<String> = set.iter().map(|s| s.as_str().to_string()).collect();
            v.sort();
            if set.has_wildcard() {
                v.push("*".to_string());
            }
            v
        };
        let a = &def.analysis;
        let family_members = self
            .inner
            .registry
            .defs()
            .iter()
            .filter(|d| d.cache_key == def.cache_key)
            .count();
        Ok(Analysis {
            view: def.name.clone(),
            doc: def.doc_name.clone(),
            dead: a.dead,
            rules: def.rules().len(),
            sel_states: a.sel_states,
            sel_dead: a.sel_dead,
            filt_states: a.filt_states,
            filt_dead: a.filt_dead,
            folded_qualifiers: a.folded_qualifiers,
            alphabet: labels(&def.alphabet),
            cache_key: def.cache_key.to_string(),
            cache_generation: def.cache_generation,
            family_members,
            micros: a.micros,
        })
    }

    fn explain_inner(&self, view: &str, doc: &str) -> Result<Explanation, ServeError> {
        let def = self
            .inner
            .registry
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_string()))?;
        let (source, version) = DocView::Live(&self.inner.docs).get_versioned(doc)?;
        let shape = match &source {
            DocSource::Memory(d) => format!("memory nodes={}", d.arena_len()),
            DocSource::File(path) => {
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                format!("file bytes={bytes}")
            }
        };
        let mut explanation = Explanation {
            view: view.to_string(),
            doc: doc.to_string(),
            version,
            generation: def.generation,
            shape,
            dead: false,
            result_cached: None,
            links: Vec::new(),
        };
        // Mirrors `handle_view`'s routing: a dead view of an in-memory
        // document serves the base document and evaluates nothing.
        if def.analysis.dead && matches!(&source, DocSource::Memory(_)) {
            explanation.dead = true;
            return Ok(explanation);
        }
        explanation.links = match (&source, &def.body) {
            (DocSource::File(_), ViewBody::Chain(chain)) if chain.len() == 1 => vec![LinkPlan {
                index: 0,
                method: Method::TwoPassSax,
                reason: "file-backed",
            }],
            (_, ViewBody::Chain(chain)) => {
                // `peek` is the non-perturbing probe: no hit/miss
                // counted, no LRU bump — EXPLAIN must not change what it
                // reports on.
                if matches!(&source, DocSource::Memory(_)) {
                    explanation.result_cached = Some(self.inner.results.peek(
                        &def.cache_key,
                        doc,
                        version,
                        def.cache_generation,
                    ));
                }
                chain
                    .iter()
                    .enumerate()
                    .map(|(index, link)| LinkPlan {
                        index,
                        method: link.method(),
                        reason: match link.method() {
                            Method::TwoPass => "qualifier with //",
                            _ => "default",
                        },
                    })
                    .collect()
            }
            (_, ViewBody::Multi(_)) => vec![LinkPlan {
                index: 0,
                method: Method::TopDown,
                reason: "fused multi-update",
            }],
        };
        Ok(explanation)
    }

    // ---- request handlers ----

    fn handle_transform(
        &self,
        view: &DocView<'_>,
        doc: &str,
        query: &str,
        rt: &mut Trace,
    ) -> Result<Response, ServeError> {
        self.inner
            .stats
            .transform_requests
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
        let t = rt.start();
        let source = view.get(doc)?;
        rt.phase(Phase::Snapshot, t);
        let stats = &self.inner.stats;
        let t = rt.start();
        let (ct, hit) = self.inner.transforms.get_or_try_insert(query, || {
            stats
                .compiles
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
            CompiledTransform::parse(query).map_err(|e| ServeError::Parse(e.to_string()))
        })?;
        rt.phase(Phase::Cache, t);
        self.note_cache(hit);
        rt.note_prepared(hit);
        match source {
            DocSource::Memory(d) => {
                let method = ct.method();
                rt.note_plan(|| format!("transform: nodes={} method={method}", d.arena_len()));
                let t = Instant::now();
                // One pass writes the reply bytes: no result tree is
                // built, so the eval phase covers serialization too.
                let mut body = String::new();
                ct.evaluate_into(&d, method, &mut body)
                    .map_err(|e| ServeError::Eval(e.to_string()))?;
                stats.count_method(method);
                let eval_micros = t.elapsed().as_micros() as u64;
                rt.phase_micros(Phase::Eval, eval_micros);
                self.inner.obs.record_method(method, eval_micros);
                Ok(Response {
                    body,
                    method: Some(method),
                    micros: 0,
                    cache_hit: hit,
                })
            }
            DocSource::File(path) => {
                rt.note_plan(|| {
                    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
                    format!("transform: file bytes={bytes} method=twoPassSAX")
                });
                let t = Instant::now();
                // Streams the file (two buffered passes); only the
                // serialized result is buffered for the response body.
                let body = ct
                    .evaluate_stream_file(&path)
                    .map_err(|e| ServeError::Eval(e.to_string()))?;
                stats.count_method(Method::TwoPassSax);
                let eval_micros = t.elapsed().as_micros() as u64;
                rt.phase_micros(Phase::Eval, eval_micros);
                self.inner
                    .obs
                    .record_method(Method::TwoPassSax, eval_micros);
                Ok(Response {
                    body,
                    method: Some(Method::TwoPassSax),
                    micros: 0,
                    cache_hit: hit,
                })
            }
        }
    }

    fn handle_view(
        &self,
        docs: &DocView<'_>,
        view: &str,
        doc: &str,
        rt: &mut Trace,
    ) -> Result<Response, ServeError> {
        self.inner
            .stats
            .view_requests
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
        let def = self
            .inner
            .registry
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_string()))?;
        // Source and version are read atomically; the version is
        // re-checked via `still_at` before the computed result is
        // cached (a write racing in between would otherwise tag
        // post-write content with the pre-write version, which a batch
        // pinned to the old version would wrongly hit).
        let t = rt.start();
        let (source, version) = docs.get_versioned(doc)?;
        rt.phase(Phase::Snapshot, t);

        // A statically dead view selects nothing on any document: the
        // materialization *is* the base document. Serve it directly —
        // no evaluation, and no result-cache entry to maintain (the
        // registration-time analysis already warned about the view).
        if def.analysis.dead {
            if let DocSource::Memory(base) = &source {
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
        }

        // In-memory chain views are answered from the maintained
        // view-result cache when the entry matches this document
        // version (and this view definition's cache family generation)
        // exactly. Entries are keyed by the definition's *cache family*
        // ([`ViewDef::cache_key`]) — provably equivalent views share
        // one entry per document version.
        let cacheable = matches!(&source, DocSource::Memory(_))
            && matches!(&def.body, ViewBody::Chain(_))
            && !def.analysis.dead;
        if cacheable {
            // Hit/miss accounting lives in the cache itself (surfaced
            // through `Server::stats`).
            let t = rt.start();
            let found = self
                .inner
                .results
                .get(&def.cache_key, doc, version, def.cache_generation);
            rt.phase(Phase::Cache, t);
            rt.note_result(found.is_some());
            if let Some(body) = found {
                return Ok(Response {
                    // The owned copy the response needs is made here,
                    // outside the cache mutex — a hit only bumps a
                    // refcount inside it.
                    body: body.to_string(),
                    method: None, // no evaluation ran at all
                    micros: 0,
                    cache_hit: true,
                });
            }
        }

        // File-backed, single-link chains stream end to end: the input
        // is never held in memory, only the response body.
        if let (DocSource::File(path), Some(link)) = (&source, def.single()) {
            rt.note_plan(|| {
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                format!("link0: file bytes={bytes} method=twoPassSAX")
            });
            let t = Instant::now();
            let body = link
                .evaluate_stream_file(path)
                .map_err(|e| ServeError::Eval(e.to_string()))?;
            self.inner.stats.count_method(Method::TwoPassSax);
            let eval_micros = t.elapsed().as_micros() as u64;
            rt.phase_micros(Phase::Eval, eval_micros);
            self.inner
                .obs
                .record_method(Method::TwoPassSax, eval_micros);
            return Ok(Response {
                body,
                method: Some(Method::TwoPassSax),
                micros: 0,
                cache_hit: true, // compiled at registration; nothing built here
            });
        }

        let t = rt.start();
        let base = self.base_document(&source)?;
        rt.phase(Phase::Parse, t);
        let mut touched = cacheable.then(TouchedLabels::new);
        let (out, method) = self.materialize(&def, &base, touched.as_mut(), rt)?;
        let t = rt.start();
        let body = out.serialize();
        // Cache only if no write landed since the versioned read: the
        // version re-check makes tag and content provably consistent (a
        // write between the check and the insert is fine — its
        // maintenance sweep drops entries not at its pre-write version,
        // and `insert` never downgrades a newer resident entry).
        if let Some(touched) = touched {
            if docs.still_at(doc, version) {
                let frags = def
                    .single()
                    .filter(|_| self.inner.patching)
                    .and_then(|link| {
                        FragmentTree::build(
                            &base,
                            &out,
                            link.query(),
                            link.selecting(),
                            frag_leaf_limit(&base),
                        )
                    });
                self.inner.results.insert(
                    &def.cache_key,
                    doc,
                    version,
                    def.cache_generation,
                    out,
                    body.clone(),
                    def.alphabet.clone(),
                    touched,
                    frags,
                );
            }
        }
        rt.phase(Phase::Serialize, t);
        Ok(Response {
            body,
            method,
            micros: 0,
            cache_hit: true, // views are pre-compiled at registration
        })
    }

    fn handle_query(
        &self,
        docs: &DocView<'_>,
        view: &str,
        doc: &str,
        query: &str,
        rt: &mut Trace,
    ) -> Result<Response, ServeError> {
        self.inner
            .stats
            .query_requests
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
        let def = self
            .inner
            .registry
            .get(view)
            .ok_or_else(|| ServeError::UnknownView(view.to_string()))?;
        let t = rt.start();
        let source = docs.get(doc)?;
        rt.phase(Phase::Snapshot, t);

        if let Some(link) = def.single() {
            // File-backed: streaming composition over the unparsed
            // file. The composed-query cache is DOM-only, so this path
            // parses the user query per request and bypasses the cache
            // entirely (no phantom cache entries or composition counts).
            if let DocSource::File(path) = &source {
                let uq = UserQuery::parse(query).map_err(|e| ServeError::Parse(e.to_string()))?;
                if uq.doc_name != def.doc_name {
                    return Err(ServeError::Parse(format!(
                        "query reads doc(\"{}\") but view '{}' serves doc(\"{}\")",
                        uq.doc_name, def.name, def.doc_name
                    )));
                }
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
            let def_doc = &def.doc_name;
            let t = rt.start();
            let (qc, hit) = self.inner.composed.get_or_try_insert(&key, || {
                let uq = UserQuery::parse(query).map_err(|e| ServeError::Parse(e.to_string()))?;
                if uq.doc_name != *def_doc {
                    return Err(ServeError::Parse(format!(
                        "query reads doc(\"{}\") but view '{}' serves doc(\"{}\")",
                        uq.doc_name, def.name, def_doc
                    )));
                }
                stats
                    .compositions
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed); // relaxed: monotone counter; no data published
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
        let uq = UserQuery::parse(query).map_err(|e| ServeError::Parse(e.to_string()))?;
        if uq.doc_name != def.doc_name {
            return Err(ServeError::Parse(format!(
                "query reads doc(\"{}\") but view '{}' serves doc(\"{}\")",
                uq.doc_name, def.name, def.doc_name
            )));
        }
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

    fn note_cache(&self, hit: bool) {
        use std::sync::atomic::Ordering::Relaxed; // lint: atomic-ok (stats counters only)
        if hit {
            self.inner.stats.cache_hits.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
        } else {
            self.inner.stats.cache_misses.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
        }
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
                        // One extra selection pass per link, paid only on
                        // result-cache *misses* (hits skip materialize
                        // entirely, and writes maintain entries without
                        // re-materializing) — the price of recording the
                        // touched set without threading target lists
                        // through every evaluation method. Traced under
                        // Cache: it exists to make the result cacheable.
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
                    self.inner.stats.count_method(method);
                    let eval_micros = t.elapsed().as_micros() as u64;
                    rt.phase_micros(Phase::Eval, eval_micros);
                    self.inner.obs.record_method(method, eval_micros);
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
                self.inner.stats.count_method(Method::TopDown);
                let eval_micros = t.elapsed().as_micros() as u64;
                rt.phase_micros(Phase::Eval, eval_micros);
                self.inner.obs.record_method(Method::TopDown, eval_micros);
                Ok((out, Some(Method::TopDown)))
            }
        }
    }
}

impl Default for Server {
    fn default() -> Server {
        Server::new()
    }
}

/// The update site whose ancestor-or-self chain localizes one target's
/// effect: the node that both *survives* the apply and *covers* every
/// node the op touches. Renames and into-inserts edit under the target,
/// so the target itself qualifies; deletes, replaces, and sibling
/// inserts change the target's parent's child list, so the parent is
/// the deepest surviving cover (a replaced root falls back to itself —
/// its chain then hits the root fragment and patching degrades to
/// recompute, which is correct).
fn update_site(doc: &Document, target: NodeId, op: &UpdateOp) -> NodeId {
    match op {
        UpdateOp::Rename { .. } => target,
        UpdateOp::Insert { pos, .. } if !pos.is_sibling() => target,
        _ => doc.parent(target).unwrap_or(target),
    }
}

/// Provenance granularity for one materialization: aim for fragments
/// of ~1/64th of the base document, clamped so tiny documents still
/// split (exercising the patch path) and huge ones don't track tens of
/// thousands of fragments. Sized from the live arena slots rather than
/// an O(|T|) walk: served documents delete (recycling slots) and never
/// detach, so the two counts agree.
fn frag_leaf_limit(base: &Document) -> usize {
    ((base.arena_len() - base.free_slots()) / 64).clamp(8, 512)
}

/// What [`Server::explain`] reports: the plan a `VIEW view doc`
/// request would run.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The view being explained.
    pub view: String,
    /// The target document.
    pub doc: String,
    /// The document's current version (what cache residency is keyed
    /// on).
    pub version: u64,
    /// The view definition's generation.
    pub generation: u64,
    /// Human-readable document shape (`memory nodes=…` / `file
    /// bytes=…`).
    pub shape: String,
    /// True when the view is statically dead: `VIEW` serves the base
    /// document without evaluating anything, so there are no links.
    pub dead: bool,
    /// View-result-cache residency at (version, generation): `None`
    /// when the (source, body) combination is not cacheable at all.
    pub result_cached: Option<bool>,
    /// Per-link plans, in evaluation order.
    pub links: Vec<LinkPlan>,
}

/// One link's plan inside an [`Explanation`].
#[derive(Debug, Clone)]
pub struct LinkPlan {
    /// Position in the view's chain.
    pub index: usize,
    /// The method the link evaluates with.
    pub method: Method,
    /// Why: `default` (GENTOP), `qualifier with //` (TD-BU),
    /// `file-backed` (twoPassSAX) or `fused multi-update`.
    pub reason: &'static str,
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "explain view={} doc={} version={} generation={} shape[{}] result_cache={}",
            self.view,
            self.doc,
            self.version,
            self.generation,
            self.shape,
            match self.result_cached {
                Some(true) => "hit",
                Some(false) => "miss",
                None => "n/a",
            }
        )?;
        if self.dead {
            write!(f, "\ndead (serves the base document)")?;
        }
        for link in &self.links {
            write!(
                f,
                "\nlink {}: method={} ({})",
                link.index, link.method, link.reason
            )?;
        }
        Ok(())
    }
}

/// What [`Server::analyze`] reports: the registration-time static
/// analysis of one view, exactly as the hot paths consume it. Nothing
/// here is recomputed — the report *is* the stored
/// [`xust_analyze::ViewAnalysis`] plus the containment-class
/// bookkeeping.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The view analyzed.
    pub view: String,
    /// The document the view reads.
    pub doc: String,
    /// True when no rule can ever select a node (the view is the
    /// identity transform; it is excluded from caching and grouping).
    pub dead: bool,
    /// Transform rules in the definition (chain links or fused rules).
    pub rules: usize,
    /// Selecting-NFA states, summed over rules.
    pub sel_states: usize,
    /// Dead selecting-NFA states (unreachable or non-co-reachable).
    pub sel_dead: usize,
    /// Filtering-NFA states, summed over rules.
    pub filt_states: usize,
    /// Dead filtering-NFA states.
    pub filt_dead: usize,
    /// Qualifier (sub-)terms eliminated by constant folding.
    pub folded_qualifiers: usize,
    /// The view's static alphabet, sorted (`*` marks a wildcard).
    pub alphabet: Vec<String>,
    /// The cache family (containment class) the definition landed in.
    pub cache_key: String,
    /// The family's cache generation.
    pub cache_generation: u64,
    /// Live views sharing this cache family (including this one).
    pub family_members: usize,
    /// Wall-clock cost of the registration-time analysis.
    pub micros: u64,
}

impl std::fmt::Display for Analysis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "analyze view={} doc={} dead={} rules={} analysis_micros={}",
            self.view, self.doc, self.dead, self.rules, self.micros
        )?;
        write!(
            f,
            "\nnfa: selecting states={} dead={} filtering states={} dead={} folded_qualifiers={}",
            self.sel_states,
            self.sel_dead,
            self.filt_states,
            self.filt_dead,
            self.folded_qualifiers
        )?;
        write!(f, "\nalphabet: {{{}}}", self.alphabet.join(","))?;
        write!(
            f,
            "\nfamily: key={} generation={} members={}",
            self.cache_key, self.cache_generation, self.family_members
        )
    }
}

// ---- streaming sessions ----

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
        use std::sync::atomic::Ordering::Relaxed; // lint: atomic-ok (stats counters only)
        self.inner.stats.requests.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
        self.inner.stats.stream_sessions.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
        let stats = &self.inner.stats;
        let compiled = self.inner.transforms.get_or_try_insert(query, || {
            stats.compiles.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
            CompiledTransform::parse(query).map_err(|e| ServeError::Parse(e.to_string()))
        });
        let (ct, hit) = match compiled {
            Ok(v) => v,
            Err(e) => {
                stats.failures.fetch_add(1, Relaxed); // relaxed: monotone counter; no data published
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
        let e = server.account_worker_panic(Verb::View, Some("v"), "v/db");
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
